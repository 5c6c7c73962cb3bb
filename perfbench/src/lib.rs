//! End-to-end and per-layer benchmark of the ALAE stack.
//!
//! One run generates a workload from a seed with `alae-workload`, sets
//! the stack up the way a deployment does (build the index, save it,
//! verify and reopen the file, construct the engine and the searcher,
//! bind a server), and then times closed-loop callers on four paths over
//! the same queries:
//!
//! * `inproc` — one caller on [`Searcher::search`];
//! * `tcp1` / `tcp2` — one and two [`alae::client::Client`] connections
//!   to an in-process `alae_server::Server` (default two workers);
//! * `http1` — one keep-alive caller on the server's `POST /search`, on
//!   the workloads that score with `ScoringScheme::DEFAULT`, the only
//!   scheme the HTTP front speaks.
//!
//! Every answer is checked: repeated in-process answers against the first
//! one, the in-process ALAE hit set against the exact BWT-SW hit set, and
//! every TCP and HTTP answer against the in-process answer to the same
//! query.  A traced run ([`Settings::trace`]) records spans around each
//! layer call and reports per-layer metrics instead of the end-to-end
//! ones.

pub mod served;
pub mod trace;

use alae::bioseq::{Alphabet, ScoringScheme, Sequence, SequenceDatabase};
use alae::client::{Client, RetryPolicy};
use alae::core::{AlaeStats, DominationIndex, QGramIndex};
use alae::search::{
    build_engine, EngineKind, EngineRun, IndexBuilder, IndexedDatabase, LocalAligner, SearchGuard,
    SearchRequest, SearchResponse, Searcher, Termination,
};
use alae::suffix::{thread_scan_snapshot, ChildBuf};
use alae::workload::{random_sequence, QuerySpec, TextSpec, Workload, WorkloadBuilder};
use alae_server::{FairnessConfig, Server, ServerConfig};
use served::{HttpClient, ServerSnapshot};
use std::collections::VecDeque;
use std::hint::black_box;
use std::io;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};
use trace::Tracer;

/// Reporting threshold `H` of every workload.
pub const THRESHOLD: i64 = 30;

/// Length of one round of the timed phases, in seconds.
const ROUND_SECONDS: f64 = 5.0;

/// Shares of `--seconds` given to the in-process, TCP c1, TCP c2 and
/// HTTP c1 phases, with and without the HTTP phase.
const PHASE_SHARES: [f64; 4] = [0.4, 0.2, 0.2, 0.2];
const PHASE_SHARES_NO_HTTP: [f64; 4] = [0.5, 0.25, 0.25, 0.0];

/// Repetitions of the traced layer probes (median reported).
const PROBE_REPS: usize = 3;

/// Trie nodes in the breadth-first replay of `TextIndex::children_into`.
const REPLAY_NODES: usize = 50_000;

/// Distinct queries whose hits feed the wire-encoding probe.
const ENCODE_QUERIES: usize = 16;

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOAD_NAMES: [&str; 2] = ["protein-homolog", "dna-served"];

/// The shape of one workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadSpec {
    /// Name given on the command line.
    pub name: &'static str,
    /// Alphabet of text and queries.
    pub alphabet: Alphabet,
    /// Characters of generated text.
    pub text_len: usize,
    /// Length of every query.
    pub query_len: usize,
    /// Distinct segmented-homologous queries.
    pub homologous: usize,
    /// Homologous segments per homologous query.
    pub segments: usize,
    /// Distinct random (unrelated) queries.
    pub random: usize,
    /// Scoring scheme of every request.
    pub scheme: ScoringScheme,
    /// Whether the run has an HTTP phase; the HTTP front scores only with
    /// `ScoringScheme::DEFAULT`.
    pub http: bool,
    /// Set-ups per run; `setup_s` is their median.
    pub setup_reps: usize,
}

impl WorkloadSpec {
    /// The workload called `name`.
    pub fn named(name: &str) -> Option<WorkloadSpec> {
        let spec = match name {
            // σ = 21 occurrence layout, protein scoring, ~10 k hits a query:
            // fork handling, hit recording and hit shaping dominate.  The
            // 0.7 MB index stays within one core's L2; with a 1 M-residue
            // text (2.9 MB index, past L2) the timings moved by up to a
            // quarter between sets of runs on a shared machine.
            "protein-homolog" => WorkloadSpec {
                name: "protein-homolog",
                alphabet: Alphabet::Protein,
                text_len: 250_000,
                query_len: 500,
                homologous: 64,
                segments: 2,
                random: 0,
                scheme: ScoringScheme::PROTEIN_DEFAULT,
                http: false,
                setup_reps: 15,
            },
            // Small engine time, so the server, wire and client layers are
            // a visible share of the served latency.  0.44 MB index.
            "dna-served" => WorkloadSpec {
                name: "dna-served",
                alphabet: Alphabet::Dna,
                text_len: 250_000,
                query_len: 200,
                homologous: 48,
                segments: 2,
                random: 48,
                scheme: ScoringScheme::DEFAULT,
                http: true,
                setup_reps: 15,
            },
            _ => return None,
        };
        Some(spec)
    }

    /// The same workload shrunk to a size a unit test runs in a second.
    pub fn tiny(self) -> WorkloadSpec {
        WorkloadSpec {
            text_len: 20_000,
            query_len: self.query_len.min(120),
            homologous: self.homologous.min(4),
            random: self.random.min(4),
            setup_reps: 2,
            ..self
        }
    }

    /// The request every query carries.
    pub fn request(&self) -> SearchRequest {
        SearchRequest::with_threshold(self.scheme, THRESHOLD)
    }
}

/// How one run is driven.
#[derive(Debug, Clone)]
pub struct Settings {
    /// Workload seed: the same seed gives the same inputs.
    pub seed: u64,
    /// Seconds of timed work, shared among the phases.
    pub seconds: f64,
    /// Record spans and report per-layer metrics.
    pub trace: bool,
    /// Directory for the index files and the span dump.
    pub work_dir: PathBuf,
}

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as `BENCHMARK.json` lists it.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// The outcome of one run.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Answers checked.
    pub attempted: u64,
    /// Answers that were wrong, incomplete, refused or lost.
    pub failed: u64,
    /// The first few failures, described.
    pub failures: Vec<String>,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced run).
    pub metrics: Vec<Metric>,
    /// Human-readable detail: sample counts, tables, notes.
    pub lines: Vec<String>,
    /// Digest of the generated text and queries.
    pub input_digest: u64,
    /// Digest of the in-process answer to each distinct query.
    pub hit_digests: Vec<u64>,
}

impl Report {
    /// The value of the metric called `name`.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// Failed answers over attempted answers.
    pub fn error_rate(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// The fields that identify one hit in every answer format.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HitKey {
    /// Record index.
    pub record: usize,
    /// 1-based end in the record.
    pub record_end: usize,
    /// 1-based end in the query.
    pub query_end: usize,
    /// 0-based end offset in the concatenated text.
    pub text_end: usize,
    /// Alignment score.
    pub score: i64,
}

/// FNV-1a digest of a hit list, order included.
pub fn hit_digest(hits: impl Iterator<Item = HitKey>) -> u64 {
    let mut digest = Fnv::new();
    for hit in hits {
        digest.write(hit.record as u64);
        digest.write(hit.record_end as u64);
        digest.write(hit.query_end as u64);
        digest.write(hit.text_end as u64);
        digest.write(hit.score as u64);
    }
    digest.0
}

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn write(&mut self, value: u64) {
        for byte in value.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn write_bytes(&mut self, bytes: &[u8]) {
        self.write(bytes.len() as u64);
        for &byte in bytes {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Whether an answer is complete, the digest of its hits and their count.
pub fn answer_key(response: &SearchResponse) -> (bool, u64, usize) {
    let keys = response.hits.iter().map(|hit| HitKey {
        record: hit.record,
        record_end: hit.record_end,
        query_end: hit.query_end,
        text_end: hit.text_end,
        score: hit.score,
    });
    (
        response.termination == Termination::Complete,
        hit_digest(keys),
        response.hits.len(),
    )
}

/// Linear-interpolation percentile (`p` in 0..=1) of unsorted samples;
/// 0 for an empty sample.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = p.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let low = rank.floor() as usize;
    let high = rank.ceil() as usize;
    sorted[low] + (sorted[high] - sorted[low]) * (rank - low as f64)
}

fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// Generate the workload's database and its distinct queries, homologous
/// and random queries interleaved evenly.
pub fn generate(spec: &WorkloadSpec, seed: u64) -> (SequenceDatabase, Vec<Sequence>) {
    let text = match spec.alphabet {
        Alphabet::Dna => TextSpec::dna(spec.text_len, seed),
        Alphabet::Protein => TextSpec::protein(spec.text_len, seed),
    };
    let queries = QuerySpec::homologous(spec.homologous, spec.query_len, seed.wrapping_add(1));
    let Workload {
        database,
        queries: homologous,
    } = WorkloadBuilder::new(text, queries).build_segmented(spec.segments);
    let random: Vec<Sequence> = (0..spec.random)
        .map(|i| {
            let query_seed = (seed ^ 0x5eed_0f7a_2d00_0000).wrapping_add(i as u64);
            random_sequence(spec.alphabet, spec.query_len, query_seed)
        })
        .collect();
    let total = homologous.len() + random.len();
    let share = homologous.len();
    let mut homologous = homologous.into_iter();
    let mut random = random.into_iter();
    let queries = (0..total)
        .filter_map(|k| {
            if (k + 1) * share / total > k * share / total {
                homologous.next()
            } else {
                random.next()
            }
        })
        .collect();
    (database, queries)
}

/// Wraps an engine so each alignment is a span of its own.
struct TracedEngine {
    inner: Box<dyn LocalAligner>,
    tracer: Arc<Tracer>,
    span: &'static str,
}

impl LocalAligner for TracedEngine {
    fn kind(&self) -> EngineKind {
        self.inner.kind()
    }

    fn resolve_threshold(&self, query_len: usize) -> i64 {
        self.inner.resolve_threshold(query_len)
    }

    fn align_codes_guarded(&self, query: &[u8], guard: &SearchGuard) -> EngineRun {
        let _span = self.tracer.span(self.span);
        self.inner.align_codes_guarded(query, guard)
    }
}

/// A searcher; when tracing, its engine build and each alignment are
/// spans of their own, named after the engine's layer.
fn make_searcher(db: &IndexedDatabase, request: SearchRequest, tracer: &Arc<Tracer>) -> Searcher {
    if !tracer.enabled() {
        return Searcher::new(db.clone(), request);
    }
    let (build_span, align_span) = match request.engine {
        EngineKind::Alae => ("core.engine_build", "core.align"),
        _ => ("bwtsw.engine_build", "bwtsw.align"),
    };
    let inner = {
        let _span = tracer.span(build_span);
        build_engine(db, &request)
    };
    let engine = TracedEngine {
        inner,
        tracer: Arc::clone(tracer),
        span: align_span,
    };
    Searcher::with_engine(db.clone(), request, Box::new(engine))
}

/// Run `f` under a span and return its result with its wall time (s).
fn timed<T>(tracer: &Tracer, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
    let _span = tracer.span(name);
    let start = Instant::now();
    let value = f();
    (value, start.elapsed().as_secs_f64())
}

/// The server configuration: defaults (two workers, 1 ms batch window)
/// except the per-peer fairness gate, opened wide because every benchmark
/// caller shares one loopback peer address, so the gate would cap the
/// benchmark's own load rather than protect the server.
fn server_config() -> ServerConfig {
    ServerConfig {
        fairness: FairnessConfig {
            rate_per_sec: 1e9,
            burst: 1e9,
            max_concurrent: 64,
        },
        ..ServerConfig::default()
    }
}

/// Seconds spent in each set-up step of one repetition.
#[derive(Debug, Clone, Copy, Default)]
struct SetupTimes {
    build: f64,
    save: f64,
    verify: f64,
    open: f64,
    searcher: f64,
    bind: f64,
}

impl SetupTimes {
    fn total(&self) -> f64 {
        self.build + self.save + self.verify + self.open + self.searcher + self.bind
    }
}

/// What one set-up leaves behind.
struct Stack {
    db: IndexedDatabase,
    searcher: Searcher,
    server: Server,
    file_bytes: u64,
}

fn set_up(
    database: &Arc<SequenceDatabase>,
    request: SearchRequest,
    path: &Path,
    tracer: &Arc<Tracer>,
) -> io::Result<(SetupTimes, Stack)> {
    let _setup = tracer.request("setup");
    let (built, build) = timed(tracer, "suffix.build", || {
        IndexBuilder::new().index_shared(Arc::clone(database))
    });
    let (saved, save) = timed(tracer, "store.save", || built.save(path));
    saved.map_err(io::Error::other)?;
    drop(built);
    let (summary, verify) = timed(tracer, "store.verify", || alae::store::verify_index(path));
    let summary = summary.map_err(io::Error::other)?;
    let (db, open) = timed(tracer, "store.open", || IndexedDatabase::open(path));
    let db = db.map_err(io::Error::other)?;
    let start = Instant::now();
    let searcher = make_searcher(&db, request, tracer);
    let searcher_s = start.elapsed().as_secs_f64();
    let (server, bind) = timed(tracer, "server.bind", || {
        Server::bind(("127.0.0.1", 0), db.clone(), server_config())
    });
    let times = SetupTimes {
        build,
        save,
        verify,
        open,
        searcher: searcher_s,
        bind,
    };
    let stack = Stack {
        db,
        searcher,
        server: server?,
        file_bytes: summary.file_bytes,
    };
    Ok((times, stack))
}

/// Counts answers and keeps the first few failures.
#[derive(Debug, Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

impl Tally {
    fn pass(&mut self) {
        self.attempted += 1;
    }

    fn fail(&mut self, message: String) {
        self.attempted += 1;
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(message);
        }
    }

    /// Count one answer: complete and with the expected digest.
    fn check(&mut self, what: &str, query: usize, got: (bool, u64), expected: u64) {
        if !got.0 {
            self.fail(format!("{what}: query {query} did not complete"));
        } else if got.1 != expected {
            self.fail(format!(
                "{what}: query {query} hit set differs from the in-process answer"
            ));
        } else {
            self.pass();
        }
    }

    fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for failure in other.failures {
            if self.failures.len() < 8 {
                self.failures.push(failure);
            }
        }
    }
}

/// The first in-process answer to one distinct query.
#[derive(Debug, Clone)]
struct Reference {
    digest: u64,
    hits: usize,
    stats: AlaeStats,
    calculated_entries: u64,
}

/// One closed-loop caller: its connection, where it is in the query
/// cycle, and what it has measured so far.
struct Caller<C> {
    conn: C,
    next: usize,
    latencies: Vec<f64>,
    seconds: f64,
    tally: Tally,
}

impl<C> Caller<C> {
    fn new(conn: C, first_query: usize) -> Self {
        Self {
            conn,
            next: first_query,
            latencies: Vec::new(),
            seconds: 0.0,
            tally: Tally::default(),
        }
    }

    /// Issue queries back to back until `until`, and at least two.  The
    /// first query of a slice re-warms a path the other phases have just
    /// left cold; it is checked but not timed.  `step(conn, q, tally)`
    /// sends query `q`, checks the answer and returns the latency in ms.
    fn run_slice(
        &mut self,
        until: Instant,
        mut step: impl FnMut(&mut C, usize, &mut Tally) -> f64,
    ) {
        step(&mut self.conn, self.next, &mut self.tally);
        self.next += 1;
        let start = Instant::now();
        loop {
            let latency = step(&mut self.conn, self.next, &mut self.tally);
            self.next += 1;
            self.latencies.push(latency);
            if Instant::now() >= until {
                break;
            }
        }
        self.seconds += start.elapsed().as_secs_f64();
    }

    /// Timed queries per second of timed work.
    fn qps(&self) -> f64 {
        self.latencies.len() as f64 / self.seconds.max(1e-9)
    }
}

fn elapsed_ms(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

fn reference_of(response: &SearchResponse, key: (bool, u64, usize)) -> Reference {
    Reference {
        digest: key.1,
        hits: key.2,
        stats: response.counters.as_alae().copied().unwrap_or_default(),
        calculated_entries: response.counters.calculated_entries(),
    }
}

/// One in-process query, checked against its reference answer.
fn inproc_step(
    searcher: &Searcher,
    queries: &[Sequence],
    refs: &[u64],
    tracer: &Tracer,
    i: usize,
    tally: &mut Tally,
) -> f64 {
    let q = i % queries.len();
    let _request = tracer.request("inproc.query");
    let start = Instant::now();
    let response = {
        let _span = tracer.span("search.search");
        searcher.search(&queries[q])
    };
    let latency = elapsed_ms(start);
    let key = answer_key(&response);
    tally.check("inproc", q, (key.0, key.1), refs[q]);
    latency
}

/// One TCP query, checked against the in-process answer.
fn tcp_step(
    client: &mut Client,
    request: &SearchRequest,
    queries: &[Sequence],
    refs: &[u64],
    tracer: &Tracer,
    i: usize,
    tally: &mut Tally,
) -> f64 {
    let q = i % queries.len();
    let _request = tracer.request("tcp.query");
    let start = Instant::now();
    let answer = {
        let _span = tracer.span("client.search");
        client.search(request, &queries[q])
    };
    let latency = elapsed_ms(start);
    match answer {
        Ok(response) => {
            let key = answer_key(&response);
            tally.check("tcp", q, (key.0, key.1), refs[q]);
        }
        Err(err) => tally.fail(format!("tcp: query {q}: {err}")),
    }
    latency
}

/// One `POST /search`, checked against the in-process answer.
fn http_step(
    client: &mut HttpClient,
    bodies: &[String],
    refs: &[u64],
    tracer: &Tracer,
    i: usize,
    tally: &mut Tally,
) -> f64 {
    let q = i % bodies.len();
    let _request = tracer.request("http.query");
    let start = Instant::now();
    let answer = {
        let _span = tracer.span("http.post_search");
        client.post("/search", &bodies[q])
    };
    let latency = elapsed_ms(start);
    match answer {
        Ok((200, body)) => match served::parse_search_answer(&body) {
            Ok(answer) => tally.check("http", q, answer, refs[q]),
            Err(err) => tally.fail(format!("http: query {q}: unreadable answer: {err}")),
        },
        Ok((status, body)) => tally.fail(format!("http: query {q}: status {status}: {body}")),
        Err(err) => tally.fail(format!("http: query {q}: {err}")),
    }
    latency
}

fn tcp_client(addr: SocketAddr) -> io::Result<Client> {
    let mut client = Client::connect_with(addr, RetryPolicy::none())?;
    client.set_read_timeout(Some(Duration::from_secs(60)))?;
    Ok(client)
}

/// What the timed rounds measured.
struct Timings {
    inproc: Caller<()>,
    untraced: Option<Caller<()>>,
    tcp1: Caller<Client>,
    tcp1_window: ServerSnapshot,
    tcp2: Vec<Caller<Client>>,
    http1: Option<Caller<HttpClient>>,
    total: ServerSnapshot,
}

impl Timings {
    fn tcp2_latencies(&self) -> Vec<f64> {
        self.tcp2
            .iter()
            .flat_map(|c| c.latencies.iter().copied())
            .collect()
    }

    fn callers_tally(&mut self) -> Tally {
        let mut tally = Tally::default();
        tally.merge(std::mem::take(&mut self.inproc.tally));
        if let Some(untraced) = self.untraced.as_mut() {
            tally.merge(std::mem::take(&mut untraced.tally));
        }
        tally.merge(std::mem::take(&mut self.tcp1.tally));
        for caller in &mut self.tcp2 {
            tally.merge(std::mem::take(&mut caller.tally));
        }
        if let Some(http1) = self.http1.as_mut() {
            tally.merge(std::mem::take(&mut http1.tally));
        }
        tally
    }
}

/// The timed part of a run.  On a shared machine the CPU's speed drifts
/// over seconds, so the phases are not run one after another: every
/// round gives each phase a short slice, and each metric is sampled
/// across the whole run.
#[allow(clippy::too_many_arguments)]
fn timed_rounds(
    server: &Server,
    searcher: &Searcher,
    plain: Option<&Searcher>,
    request: &SearchRequest,
    queries: &[Sequence],
    refs: &[u64],
    http_bodies: Option<&[String]>,
    seconds: f64,
    tracer: &Tracer,
) -> io::Result<Timings> {
    let tcp_addr = server.local_addr()?;
    let http_addr = match http_bodies {
        Some(_) => {
            let http = server.http_front(("127.0.0.1", 0))?;
            let addr = http.local_addr()?;
            // The HTTP front has no stop call; its accept thread stays
            // parked in `accept` until the process exits, and holds no work.
            std::thread::spawn(move || {
                let _ = http.serve();
            });
            Some(addr)
        }
        None => None,
    };
    let shares = if http_bodies.is_some() {
        PHASE_SHARES
    } else {
        PHASE_SHARES_NO_HTTP
    };
    std::thread::scope(|scope| {
        let serving = scope.spawn(|| server.serve());
        let measured = (|| -> io::Result<Timings> {
            let n = queries.len();
            let untraced_tracer = Tracer::new(false);
            let mut timings = Timings {
                inproc: Caller::new((), 0),
                untraced: plain.map(|_| Caller::new((), 0)),
                tcp1: Caller::new(tcp_client(tcp_addr)?, 0),
                tcp1_window: ServerSnapshot::default(),
                tcp2: vec![
                    Caller::new(tcp_client(tcp_addr)?, 0),
                    Caller::new(tcp_client(tcp_addr)?, n / 2),
                ],
                http1: http_addr.map(|addr| Caller::new(HttpClient::new(addr), 0)),
                total: ServerSnapshot::default(),
            };
            let rounds = (seconds / ROUND_SECONDS).round().max(1.0) as usize;
            let slice = |share: f64| Duration::from_secs_f64(seconds * share / rounds as f64);
            // A traced run splits the in-process share between the traced
            // and the untraced searcher.
            let inproc_share = shares[0] / if plain.is_some() { 2.0 } else { 1.0 };
            let start = ServerSnapshot::take(server.metrics());
            // Slice ends are laid out from the start of the rounds, so a
            // slice that overruns (its last query ends late) shortens the
            // next one and the run keeps to `seconds`.
            let mut mark = Instant::now();
            for _ in 0..rounds {
                if let (Some(plain), Some(untraced)) = (plain, timings.untraced.as_mut()) {
                    mark += slice(inproc_share);
                    untraced.run_slice(mark, |_, i, tally| {
                        inproc_step(plain, queries, refs, &untraced_tracer, i, tally)
                    });
                }
                mark += slice(inproc_share);
                timings.inproc.run_slice(mark, |_, i, tally| {
                    inproc_step(searcher, queries, refs, tracer, i, tally)
                });

                let before = ServerSnapshot::take(server.metrics());
                mark += slice(shares[1]);
                timings.tcp1.run_slice(mark, |client, i, tally| {
                    tcp_step(client, request, queries, refs, tracer, i, tally)
                });
                let window = ServerSnapshot::take(server.metrics()).since(&before);
                timings.tcp1_window = timings.tcp1_window.plus(&window);

                mark += slice(shares[2]);
                std::thread::scope(|callers| {
                    for caller in &mut timings.tcp2 {
                        callers.spawn(move || {
                            caller.run_slice(mark, |client, i, tally| {
                                tcp_step(client, request, queries, refs, tracer, i, tally)
                            })
                        });
                    }
                });

                if let (Some(http1), Some(bodies)) = (timings.http1.as_mut(), http_bodies) {
                    mark += slice(shares[3]);
                    http1.run_slice(mark, |client, i, tally| {
                        http_step(client, bodies, refs, tracer, i, tally)
                    });
                }
            }
            timings.total = ServerSnapshot::take(server.metrics()).since(&start);
            Ok(timings)
        })();
        server.drain(Duration::from_secs(30));
        serving
            .join()
            .map_err(|_| io::Error::other("accept loop panicked"))??;
        measured
    })
}

/// Per-layer probes of the traced run, on the served index.
struct Probes {
    children_ns_per_node: f64,
    block_scans_per_node: f64,
    domination_build_ms: f64,
    engine_build_ms: f64,
    qgram_build_us: f64,
    encode_ns_per_hit: f64,
}

fn layer_probes(
    db: &IndexedDatabase,
    request: &SearchRequest,
    searcher: &Searcher,
    queries: &[Sequence],
    tracer: &Tracer,
) -> Probes {
    let index = db.index();
    let mut buf = ChildBuf::new();
    let mut nodes = Vec::with_capacity(REPLAY_NODES);
    let mut frontier = VecDeque::from([index.root()]);
    while let Some(cursor) = frontier.pop_front() {
        if nodes.len() == REPLAY_NODES {
            break;
        }
        nodes.push(cursor);
        index.children_into(cursor, &mut buf);
        frontier.extend(buf.as_slice().iter().map(|&(_, child)| child));
    }
    let mut replay_ns = Vec::new();
    let mut scans = 0;
    for _ in 0..PROBE_REPS {
        let before = thread_scan_snapshot();
        let (_, seconds) = timed(tracer, "suffix.children_into", || {
            for &cursor in &nodes {
                index.children_into(black_box(cursor), &mut buf);
                black_box(buf.len());
            }
        });
        scans = thread_scan_snapshot().since(&before).block_scans;
        replay_ns.push(seconds * 1e9 / nodes.len().max(1) as f64);
    }

    let q = request.scheme.q();
    let code_count = db.alphabet().code_count();
    let domination: Vec<f64> = (0..PROBE_REPS)
        .map(|_| {
            let (built, seconds) = timed(tracer, "core.domination_build", || {
                DominationIndex::build(index.text(), q, code_count)
            });
            black_box(built.distinct_grams());
            seconds * 1e3
        })
        .collect();
    let engine: Vec<f64> = (0..PROBE_REPS)
        .map(|_| {
            let (built, seconds) = timed(tracer, "core.engine_build", || build_engine(db, request));
            black_box(built.kind());
            seconds * 1e3
        })
        .collect();
    let qgram: Vec<f64> = queries
        .iter()
        .map(|query| {
            let (built, seconds) = timed(tracer, "core.qgram_build", || {
                QGramIndex::build(query.codes(), q, code_count)
            });
            black_box(built.distinct_grams());
            seconds * 1e6
        })
        .collect();

    let mut encoded_hits = 0usize;
    let mut encode_seconds = 0.0;
    for query in queries.iter().take(ENCODE_QUERIES) {
        let response = searcher.search(query);
        let (bytes, seconds) = timed(tracer, "wire.encode_hit", || {
            response
                .hits
                .iter()
                .map(|hit| black_box(alae::wire::encode_hit(hit)).len())
                .sum::<usize>()
        });
        black_box(bytes);
        encoded_hits += response.hits.len();
        encode_seconds += seconds;
    }

    Probes {
        children_ns_per_node: median(&replay_ns),
        block_scans_per_node: scans as f64 / nodes.len().max(1) as f64,
        domination_build_ms: median(&domination),
        engine_build_ms: median(&engine),
        qgram_build_us: median(&qgram),
        encode_ns_per_hit: if encoded_hits == 0 {
            0.0
        } else {
            encode_seconds * 1e9 / encoded_hits as f64
        },
    }
}

/// Peak resident set size of this process, in MiB (Linux `VmHWM`).
pub fn peak_rss_mb() -> io::Result<f64> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| io::Error::other("VmHWM missing from /proc/self/status"))
}

fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator == 0.0 {
        0.0
    } else {
        numerator / denominator
    }
}

/// Run one workload end to end.
pub fn run(spec: &WorkloadSpec, settings: &Settings) -> io::Result<Report> {
    let tracer = Arc::new(Tracer::new(settings.trace));
    let request = spec.request();
    if spec.http && spec.scheme != ScoringScheme::DEFAULT {
        return Err(io::Error::other(format!(
            "{}: the HTTP front scores only with ScoringScheme::DEFAULT",
            spec.name
        )));
    }
    std::fs::create_dir_all(&settings.work_dir)?;

    let (database, queries) = generate(spec, settings.seed);
    let mut inputs = Fnv::new();
    inputs.write_bytes(database.text());
    for query in &queries {
        inputs.write_bytes(query.codes());
    }
    let database = Arc::new(database);
    let text_len = database.text_len();

    // Set-up, repeated; the last stack serves the run.  Each repetition
    // saves to a file of its own, so no mapped index file is rewritten.
    let mut setups = Vec::with_capacity(spec.setup_reps);
    let mut stack: Option<(Stack, PathBuf)> = None;
    for rep in 0..spec.setup_reps.max(1) {
        let path = settings
            .work_dir
            .join(format!("{}-{}-{rep}.alaeidx", spec.name, settings.seed));
        let (times, next) = set_up(&database, request, &path, &tracer)?;
        setups.push(times);
        if let Some((previous, previous_path)) = stack.replace((next, path)) {
            previous.server.shutdown();
            drop(previous.searcher);
            drop(previous.db);
            std::fs::remove_file(previous_path)?;
        }
    }
    let (stack, index_path) = stack.expect("at least one set-up ran");
    let Stack {
        db,
        searcher,
        server,
        file_bytes,
    } = stack;

    let mut tally = Tally::default();

    // Untimed: the first in-process answer to every distinct query is the
    // reference every later answer is checked against.  This pass also
    // warms the caches the timed rounds use.
    let refs: Vec<Reference> = queries
        .iter()
        .enumerate()
        .map(|(q, query)| {
            let response = searcher.search(query);
            let key = answer_key(&response);
            if key.0 {
                tally.pass();
            } else {
                tally.fail(format!("inproc: query {q} did not complete"));
            }
            reference_of(&response, key)
        })
        .collect();
    let digests: Vec<u64> = refs.iter().map(|r| r.digest).collect();

    let http_bodies: Option<Vec<String>> = spec.http.then(|| {
        queries
            .iter()
            .map(|query| served::search_body(&query.to_ascii(), THRESHOLD))
            .collect()
    });

    // A traced run also times an untraced searcher in the same rounds; the
    // difference is the tracing overhead.
    let plain = settings.trace.then(|| Searcher::new(db.clone(), request));
    let mut timings = timed_rounds(
        &server,
        &searcher,
        plain.as_ref(),
        &request,
        &queries,
        &digests,
        http_bodies.as_deref(),
        settings.seconds,
        &tracer,
    )?;
    drop(server);
    drop(plain);
    tally.merge(timings.callers_tally());

    // Untimed exactness check: the in-process ALAE hit set of every
    // distinct query against the exact BWT-SW hit set.
    let bwtsw = make_searcher(&db, request.engine(EngineKind::Bwtsw), &tracer);
    let mut bwtsw_entries = 0u64;
    for (q, query) in queries.iter().enumerate() {
        let _request = tracer.request("verify.query");
        let response = {
            let _span = tracer.span("verify.search");
            bwtsw.search(query)
        };
        let key = answer_key(&response);
        bwtsw_entries += response.counters.calculated_entries();
        tally.check("bwtsw", q, (key.0, key.1), refs[q].digest);
    }

    let probes = settings
        .trace
        .then(|| layer_probes(&db, &request, &searcher, &queries, &tracer));

    drop(bwtsw);
    drop(searcher);
    drop(db);
    std::fs::remove_file(&index_path)?;

    let tcp2 = timings.tcp2_latencies();
    let http1: &[f64] = timings.http1.as_ref().map_or(&[], |c| &c.latencies);
    let mut report = Report {
        attempted: tally.attempted,
        failed: tally.failed,
        failures: tally.failures,
        input_digest: inputs.0,
        hit_digests: digests,
        ..Report::default()
    };
    report.lines.push(format!(
        "workload {} seed {}: text {} chars, {} distinct queries of {}, H = {THRESHOLD}, nproc {}",
        spec.name,
        settings.seed,
        text_len,
        queries.len(),
        spec.query_len,
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    ));
    report.lines.push(format!("set-ups {}", setups.len()));
    let mut phases = vec![
        ("inproc", timings.inproc.latencies.as_slice()),
        ("tcp1", timings.tcp1.latencies.as_slice()),
        ("tcp2", tcp2.as_slice()),
    ];
    if timings.http1.is_some() {
        phases.push(("http1", http1));
    }
    for (phase, latencies) in phases {
        let deciles: Vec<String> = [0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 1.0]
            .iter()
            .map(|&p| format!("{:.2}", percentile(latencies, p)))
            .collect();
        report.lines.push(format!(
            "{phase:<6} {} timed queries; ms at p10 p25 p50 p75 p90 p95 max: {}",
            latencies.len(),
            deciles.join(" ")
        ));
    }

    let setup_total: Vec<f64> = setups.iter().map(SetupTimes::total).collect();
    let inproc = &timings.inproc.latencies;
    let inproc_p50 = median(inproc);
    let tcp1_p50 = median(&timings.tcp1.latencies);
    let http1_p50 = median(http1);

    if let Some(probes) = probes {
        let count = refs.len() as f64;
        let sum = |f: fn(&AlaeStats) -> u64| refs.iter().map(|r| f(&r.stats) as f64).sum::<f64>();
        let alae_entries: f64 = refs.iter().map(|r| r.calculated_entries as f64).sum();
        // Only the timed in-process queries: the reference pass and the
        // wire probe run the same traced engine outside them.
        let align = tracer.durations_ms("core.align", "inproc.query");
        let bwtsw_align = tracer.durations_ms("bwtsw.align", "verify.query");
        let shape = tracer.self_times_ms("search.search", "inproc.query");
        let step = |f: fn(&SetupTimes) -> f64| median(&setups.iter().map(f).collect::<Vec<_>>());
        let untraced_p50 = timings
            .untraced
            .as_ref()
            .map_or(inproc_p50, |c| median(&c.latencies));
        let total = &timings.total;
        let m = |name, value, unit| Metric { name, value, unit };
        report.metrics = vec![
            m("suffix.build_s", step(|s| s.build), "s"),
            m(
                "suffix.children_ns_per_node",
                probes.children_ns_per_node,
                "ns",
            ),
            m(
                "suffix.block_scans_per_node",
                probes.block_scans_per_node,
                "count",
            ),
            m("store.save_s", step(|s| s.save), "s"),
            m("store.verify_s", step(|s| s.verify), "s"),
            m("store.open_s", step(|s| s.open), "s"),
            m("core.domination_build_ms", probes.domination_build_ms, "ms"),
            m("core.engine_build_ms", probes.engine_build_ms, "ms"),
            m("core.qgram_build_us", probes.qgram_build_us, "us"),
            m("core.align_ms_p50", median(&align), "ms"),
            m("core.align_ms_p95", percentile(&align, 0.95), "ms"),
            m("core.emr_entries", sum(|s| s.emr_entries) / count, "count"),
            m("core.ngr_entries", sum(|s| s.ngr_entries) / count, "count"),
            m("core.gap_entries", sum(|s| s.gap_entries) / count, "count"),
            m(
                "core.computation_cost",
                sum(|s| s.computation_cost()) / count,
                "count",
            ),
            m(
                "core.reused_entries",
                sum(|s| s.reused_entries) / count,
                "count",
            ),
            m(
                "core.visited_nodes",
                sum(|s| s.visited_nodes) / count,
                "count",
            ),
            m(
                "core.forks_started",
                sum(|s| s.forks_started) / count,
                "count",
            ),
            m(
                "core.forks_dominated",
                sum(|s| s.forks_dominated) / count,
                "count",
            ),
            m(
                "core.fork_prune_ratio",
                ratio(sum(|s| s.forks_dominated), sum(|s| s.forks_started)),
                "ratio",
            ),
            m(
                "core.occ_block_scans",
                sum(|s| s.occ_block_scans) / count,
                "count",
            ),
            m(
                "core.arena_bytes",
                refs.iter().map(|r| r.stats.arena_bytes).max().unwrap_or(0) as f64,
                "bytes",
            ),
            m(
                "core.entries_vs_bwtsw",
                ratio(alae_entries, bwtsw_entries as f64),
                "ratio",
            ),
            m(
                "core.speedup_vs_bwtsw",
                ratio(median(&bwtsw_align), median(&align)),
                "ratio",
            ),
            m("bwtsw.align_ms_p50", median(&bwtsw_align), "ms"),
            m(
                "bwtsw.calculated_entries",
                bwtsw_entries as f64 / count,
                "count",
            ),
            m("search.shape_ms_p50", median(&shape), "ms"),
            m(
                "search.hits_per_query",
                refs.iter().map(|r| r.hits as f64).sum::<f64>() / count,
                "count",
            ),
            m("wire.encode_ns_per_hit", probes.encode_ns_per_hit, "ns"),
            m(
                "wire.bytes_per_query",
                ratio(
                    timings.tcp1_window.tcp_bytes as f64,
                    timings.tcp1.latencies.len() as f64,
                ),
                "bytes",
            ),
            m(
                "server.queue_wait_ms_mean",
                total.queue_wait_ms_mean(),
                "ms",
            ),
            m("server.wave_size_mean", total.wave_size_mean(), "count"),
            m("server.engine_ms_mean", total.engine_ms_mean(), "ms"),
            m("server.rejected", total.rejected as f64, "count"),
            m("server.tcp_overhead_ms_p50", tcp1_p50 - untraced_p50, "ms"),
            m(
                "trace.overhead_pct",
                (inproc_p50 / untraced_p50.max(1e-9) - 1.0) * 100.0,
                "%",
            ),
        ];

        // How the TCP c1 median splits.  The server stamps a query as
        // picked up only after it has built the wave's Searcher, so its
        // queue wait includes engine construction; it is subtracted here.
        let window = &timings.tcp1_window;
        let construction = probes.engine_build_ms;
        let queue = (window.queue_wait_ms_mean() - construction).max(0.0);
        let remainder = tcp1_p50 - untraced_p50 - construction - queue;
        report.lines.push(format!(
            "tcp1_p50_ms {tcp1_p50:.3} = in-process search p50 {untraced_p50:.3} + engine construction {construction:.3} + queue wait {queue:.3} + remainder (wire, client, hand-off) {remainder:.3}"
        ));
        report.lines.push(format!(
            "server during tcp1: queue wait mean {:.3} ms (includes engine construction), engine mean {:.3} ms, wave size mean {:.2}",
            window.queue_wait_ms_mean(),
            window.engine_ms_mean(),
            window.wave_size_mean(),
        ));
        if timings.http1.is_some() {
            // Only where HTTP and TCP carry the same request.
            report.lines.push(format!(
                "server.http_overhead_ms_p50 {:.3} ms (http1 p50 {http1_p50:.3} - tcp1 p50 {tcp1_p50:.3})",
                http1_p50 - tcp1_p50
            ));
        }
        report.lines.push(format!(
            "tracing overhead: in-process p50 {inproc_p50:.3} ms traced vs {untraced_p50:.3} ms untraced"
        ));
        report.lines.push(format!(
            "{:<28} {:>8} {:>12} {:>12}",
            "span", "count", "total_ms", "self_ms"
        ));
        for (name, count, total_ms, self_ms) in tracer.self_time_table() {
            report.lines.push(format!(
                "{name:<28} {count:>8} {total_ms:>12.3} {self_ms:>12.3}"
            ));
        }
        let trace_path = settings
            .work_dir
            .join(format!("trace-{}-{}.jsonl", spec.name, settings.seed));
        tracer.write_jsonl(&trace_path)?;
        report
            .lines
            .push(format!("spans written to {}", trace_path.display()));
    } else {
        // The served tails are printed but not gated: from run to run they
        // move far more than the medians do (see `BENCHMARK.json`).
        report.lines.push(format!(
            "served tails (not gated): tcp1_p95_ms {:.3} ms, tcp2_p95_ms {:.3} ms",
            percentile(&timings.tcp1.latencies, 0.95),
            percentile(&tcp2, 0.95),
        ));
        if timings.http1.is_some() {
            report.lines.push(format!(
                "http1 (not gated, this workload only): http1_p50_ms {http1_p50:.3} ms, http1_p95_ms {:.3} ms",
                percentile(http1, 0.95),
            ));
        }
        let m = |name, value, unit| Metric { name, value, unit };
        report.metrics = vec![
            m("setup_s", median(&setup_total), "s"),
            m("inproc_qps", timings.inproc.qps(), "1/s"),
            m("inproc_p50_ms", inproc_p50, "ms"),
            m("inproc_p95_ms", percentile(inproc, 0.95), "ms"),
            m("tcp1_p50_ms", tcp1_p50, "ms"),
            m(
                "tcp2_qps",
                timings.tcp2.iter().map(Caller::qps).sum(),
                "1/s",
            ),
            m(
                "index_bytes_per_char",
                file_bytes as f64 / text_len as f64,
                "B/char",
            ),
            m("peak_rss_mb", peak_rss_mb()?, "MB"),
        ];
    }
    report.lines.push(format!(
        "answers checked {}, failed {}, error_rate {}",
        report.attempted,
        report.failed,
        report.error_rate()
    ));
    Ok(report)
}
