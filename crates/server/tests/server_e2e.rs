//! End-to-end tests for the TCP search service: concurrent clients must
//! see exactly the hits the in-process facade produces, server-side
//! guardrails must surface as typed terminations with partial results,
//! and one client's disconnect must never leak into another's response.

use alae::bioseq::{Alphabet, ScoringScheme, Sequence};
use alae::client::Client;
use alae::search::{IndexBuilder, IndexedDatabase, SearchRequest, Searcher, Termination};
use alae::wire::{decode_done, decode_hit, encode_request, read_frame, write_frame, FrameKind};
use alae::workload::{MutationProfile, QuerySpec, TextSpec, WorkloadBuilder};
use alae_server::{Server, ServerConfig};
use std::net::{SocketAddr, TcpStream};
use std::thread;
use std::time::Duration;

fn workload(text_len: usize, queries: usize) -> (IndexedDatabase, Vec<Sequence>) {
    let built = WorkloadBuilder::new(
        TextSpec::dna(text_len, 7),
        QuerySpec {
            count: queries,
            length: 32,
            mutation: MutationProfile::HOMOLOGOUS,
            seed: 11,
        },
    )
    .build();
    (IndexBuilder::new().index(built.database), built.queries)
}

/// Bind an ephemeral-port server and start accepting.
fn spawn_server(db: IndexedDatabase, config: ServerConfig) -> SocketAddr {
    let server = Server::bind("127.0.0.1:0", db, config).expect("bind ephemeral port");
    let addr = server.local_addr().expect("local addr");
    thread::spawn(move || {
        let _ = server.serve();
    });
    addr
}

/// Four clients searching concurrently on two workers must each get
/// responses identical to a local in-process `Searcher` over the same
/// index — hits, threshold and termination alike.
#[test]
fn concurrent_clients_match_local_search() {
    let (db, queries) = workload(6_000, 4);
    let request = SearchRequest::with_threshold(ScoringScheme::DEFAULT, 12).top_k(32);
    let addr = spawn_server(
        db.clone(),
        ServerConfig {
            workers: 2,
            ..ServerConfig::default()
        },
    );

    let local = Searcher::new(db, request);
    let expected: Vec<_> = queries.iter().map(|q| local.search(q)).collect();

    let handles: Vec<_> = queries
        .iter()
        .cloned()
        .map(|query| {
            thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                client.search(&request, &query).expect("search over TCP")
            })
        })
        .collect();

    for (i, handle) in handles.into_iter().enumerate() {
        let response = handle.join().expect("client thread");
        assert_eq!(
            response.hits, expected[i].hits,
            "client {i}: hits over TCP differ from the in-process facade"
        );
        assert_eq!(response.threshold, expected[i].threshold);
        assert_eq!(response.raw_hit_count, expected[i].raw_hit_count);
        assert!(
            matches!(response.termination, Termination::Complete),
            "client {i}: unexpected termination {:?}",
            response.termination
        );
    }
}

/// With two workers and two concurrent clients, every query streams: each
/// client reads its hits as individual `Hit` frames, all before its
/// `Done` frame, and they are exactly the local `Searcher`'s hits.
#[test]
fn concurrent_queries_stream_hits_before_done() {
    let (db, queries) = workload(6_000, 2);
    let request = SearchRequest::with_threshold(ScoringScheme::DEFAULT, 12);
    let addr = spawn_server(
        db.clone(),
        ServerConfig {
            workers: 2,
            ..ServerConfig::default()
        },
    );
    let local = Searcher::new(db, request);

    let clients: Vec<_> = queries
        .iter()
        .map(|query| {
            let payload = encode_request(&request, query.codes());
            thread::spawn(move || {
                let mut stream = TcpStream::connect(addr).expect("connect");
                write_frame(&mut stream, FrameKind::Request, &payload).expect("send request");
                let mut frames = Vec::new();
                loop {
                    let (kind, payload) = read_frame(&mut stream)
                        .expect("read frame")
                        .expect("server closed before Done");
                    frames.push((kind, payload));
                    if kind != FrameKind::Hit {
                        return frames;
                    }
                }
            })
        })
        .collect();

    for (i, (client, query)) in clients.into_iter().zip(&queries).enumerate() {
        let frames = client.join().expect("client thread");
        let expected = local.search(query);
        assert!(
            !expected.hits.is_empty(),
            "query {i} must have hits to stream"
        );
        let (last, hits) = frames.split_last().expect("at least a Done frame");
        assert_eq!(last.0, FrameKind::Done, "client {i} must end with Done");
        let hits: Vec<_> = hits
            .iter()
            .map(|(kind, payload)| {
                assert_eq!(*kind, FrameKind::Hit);
                decode_hit(payload).expect("hit frame")
            })
            .collect();
        assert_eq!(hits, expected.hits, "client {i}: streamed hits differ");
        let done = decode_done(&last.1).expect("done frame");
        assert_eq!(done.delivered, expected.hits.len() as u64);
        assert!(matches!(done.termination, Termination::Complete));
    }
}

/// One connection can issue several searches back to back.
#[test]
fn sequential_requests_share_a_connection() {
    let (db, queries) = workload(3_000, 3);
    let request = SearchRequest::with_threshold(ScoringScheme::DEFAULT, 12);
    let addr = spawn_server(db.clone(), ServerConfig::default());
    let local = Searcher::new(db, request);

    let mut client = Client::connect(addr).expect("connect");
    for query in &queries {
        let over_tcp = client.search(&request, query).expect("search");
        assert_eq!(over_tcp.hits, local.search(query).hits);
    }
}

/// A deadline-capped request returns whatever was found plus the typed
/// `DeadlineExceeded` termination — the guardrail travels the wire intact.
#[test]
fn deadline_capped_request_reports_partial_results() {
    let (db, queries) = workload(20_000, 1);
    let addr = spawn_server(db, ServerConfig::default());

    // An immediately-expired deadline with the tightest poll cadence: the
    // engine trips the guard on its first check.
    let request = SearchRequest::with_threshold(ScoringScheme::DEFAULT, 12)
        .deadline(Duration::from_millis(0))
        .poll_interval(1);
    let mut client = Client::connect(addr).expect("connect");
    let response = client.search(&request, &queries[0]).expect("search");
    assert!(
        matches!(response.termination, Termination::DeadlineExceeded),
        "expected DeadlineExceeded, got {:?}",
        response.termination
    );
}

/// The server-side deadline cap applies even when the client asks for no
/// deadline at all.
#[test]
fn server_deadline_cap_overrides_client() {
    let (db, queries) = workload(20_000, 1);
    let addr = spawn_server(
        db,
        ServerConfig {
            max_deadline: Some(Duration::from_millis(0)),
            ..ServerConfig::default()
        },
    );
    let request = SearchRequest::with_threshold(ScoringScheme::DEFAULT, 12).poll_interval(1);
    let mut client = Client::connect(addr).expect("connect");
    let response = client.search(&request, &queries[0]).expect("search");
    assert!(
        matches!(response.termination, Termination::DeadlineExceeded),
        "server must cap the deadline; got {:?}",
        response.termination
    );
}

/// A client that vanishes mid-query must not disturb the others: its
/// closed channel stops only its own delivery.
#[test]
fn mid_query_disconnect_does_not_affect_other_clients() {
    let (db, queries) = workload(6_000, 2);
    let request = SearchRequest::with_threshold(ScoringScheme::DEFAULT, 12);
    let addr = spawn_server(db.clone(), ServerConfig::default());

    // The vanishing client: send a request frame, then slam the connection
    // shut before reading a single response frame.
    {
        let mut stream = TcpStream::connect(addr).expect("connect");
        let payload = encode_request(&request, queries[0].codes());
        write_frame(&mut stream, FrameKind::Request, &payload).expect("send request");
        // Dropping the stream here closes the socket mid-query.
    }

    // Well-behaved clients issued at the same time still get exact results.
    let local = Searcher::new(db, request);
    let expected = local.search(&queries[1]);
    let survivors: Vec<_> = (0..3)
        .map(|_| {
            let query = queries[1].clone();
            thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                client.search(&request, &query).expect("search")
            })
        })
        .collect();
    for handle in survivors {
        let response = handle.join().expect("client thread");
        assert_eq!(response.hits, expected.hits);
        assert!(matches!(response.termination, Termination::Complete));
    }
}

/// Garbage frames are answered with an error frame, not a dropped
/// connection or a poisoned server.
#[test]
fn malformed_request_gets_an_error_frame() {
    let (db, queries) = workload(1_000, 1);
    let request = SearchRequest::with_threshold(ScoringScheme::DEFAULT, 12);
    let addr = spawn_server(db, ServerConfig::default());

    let mut stream = TcpStream::connect(addr).expect("connect");
    write_frame(&mut stream, FrameKind::Request, b"\x09garbage").expect("send");
    let frame = alae::wire::read_frame(&mut stream)
        .expect("read")
        .expect("frame");
    assert_eq!(frame.0, FrameKind::Error);

    // The server is still healthy: a fresh client gets exact results, and
    // facade-level rejections (empty query) come back typed, not as
    // connection errors.
    let mut client = Client::connect(addr).expect("connect");
    let response = client.search(&request, &queries[0]).expect("search");
    assert!(matches!(response.termination, Termination::Complete));
    let invalid = Sequence::from_codes(Alphabet::Dna, vec![]);
    let rejected = client.search(&request, &invalid).expect("search");
    assert!(
        matches!(rejected.termination, Termination::Invalid(_)),
        "an empty query must surface the facade's typed rejection, got {:?}",
        rejected.termination
    );
}
