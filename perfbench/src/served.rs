//! The served path: an in-process `alae_server::Server` with its HTTP
//! front, driven by closed-loop TCP (`alae::client::Client`) and HTTP
//! callers, plus the small HTTP/1.1 client and JSON reader those callers
//! need.

use crate::{hit_digest, HitKey};
use alae::search::Termination;
use alae_server::metrics::Metrics;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::Ordering;

/// Cumulative server instruments, read between phases so each phase can
/// be attributed on its own.
#[derive(Debug, Clone, Copy, Default)]
pub struct ServerSnapshot {
    /// Sum (s) and count of `alae_queue_wait_seconds`.
    pub queue_wait: (f64, u64),
    /// Sum and count of the wave-size histogram.
    pub wave_size: (f64, u64),
    /// Sum (s) and count of the ALAE engine latency histogram.
    pub engine: (f64, u64),
    /// Every admission refusal: capacity, malformed, draining, fairness.
    pub rejected: u64,
    /// Bytes read plus bytes written on TCP frame connections.
    pub tcp_bytes: u64,
}

impl ServerSnapshot {
    /// Read the registry now.
    pub fn take(metrics: &Metrics) -> Self {
        let engine = metrics.latency_histogram(alae::search::EngineKind::Alae);
        Self {
            queue_wait: (
                metrics.queue_wait_seconds.sum(),
                metrics.queue_wait_seconds.count(),
            ),
            wave_size: (metrics.wave_size.sum(), metrics.wave_size.count()),
            engine: (engine.sum(), engine.count()),
            rejected: metrics.rejected_capacity.get()
                + metrics.rejected_malformed.get()
                + metrics.rejected_draining.get()
                + metrics
                    .fairness_rejections
                    .iter()
                    .map(|counter| counter.get())
                    .sum::<u64>(),
            tcp_bytes: metrics.tcp_bytes_read.load(Ordering::Relaxed)
                + metrics.tcp_bytes_written.load(Ordering::Relaxed),
        }
    }

    /// Activity between `earlier` and `self`.
    pub fn since(&self, earlier: &ServerSnapshot) -> ServerSnapshot {
        self.combine(earlier, |now, then| now - then, |now, then| now - then)
    }

    /// The activity of two disjoint windows together.
    pub fn plus(&self, other: &ServerSnapshot) -> ServerSnapshot {
        self.combine(other, |a, b| a + b, |a, b| a + b)
    }

    fn combine(
        &self,
        other: &ServerSnapshot,
        real: impl Fn(f64, f64) -> f64,
        count: impl Fn(u64, u64) -> u64,
    ) -> ServerSnapshot {
        let pair = |a: (f64, u64), b: (f64, u64)| (real(a.0, b.0), count(a.1, b.1));
        ServerSnapshot {
            queue_wait: pair(self.queue_wait, other.queue_wait),
            wave_size: pair(self.wave_size, other.wave_size),
            engine: pair(self.engine, other.engine),
            rejected: count(self.rejected, other.rejected),
            tcp_bytes: count(self.tcp_bytes, other.tcp_bytes),
        }
    }

    /// Mean queue wait in milliseconds (0 without samples).
    pub fn queue_wait_ms_mean(&self) -> f64 {
        mean(self.queue_wait.0 * 1e3, self.queue_wait.1)
    }

    /// Mean wave size (0 without samples).
    pub fn wave_size_mean(&self) -> f64 {
        mean(self.wave_size.0, self.wave_size.1)
    }

    /// Mean engine wall time per query in milliseconds.
    pub fn engine_ms_mean(&self) -> f64 {
        mean(self.engine.0 * 1e3, self.engine.1)
    }
}

fn mean(sum: f64, count: u64) -> f64 {
    if count == 0 {
        0.0
    } else {
        sum / count as f64
    }
}

/// A keep-alive HTTP/1.1 client for `POST /search`.
pub struct HttpClient {
    addr: SocketAddr,
    conn: Option<(BufReader<TcpStream>, TcpStream)>,
}

impl HttpClient {
    /// A client for the front at `addr` (connects on first use).
    pub fn new(addr: SocketAddr) -> Self {
        Self { addr, conn: None }
    }

    /// Send one request and return the status code and body.
    pub fn post(&mut self, path: &str, body: &str) -> io::Result<(u16, String)> {
        if self.conn.is_none() {
            let stream = TcpStream::connect(self.addr)?;
            stream.set_nodelay(true)?;
            self.conn = Some((BufReader::new(stream.try_clone()?), stream));
        }
        let result = match self.conn.as_mut() {
            Some((reader, writer)) => exchange(reader, writer, path, body),
            None => Err(io::Error::other("connection unavailable")),
        };
        match result {
            Ok((status, body, keep_alive)) => {
                if !keep_alive {
                    self.conn = None;
                }
                Ok((status, body))
            }
            Err(err) => {
                self.conn = None;
                Err(err)
            }
        }
    }
}

fn exchange(
    reader: &mut BufReader<TcpStream>,
    writer: &mut TcpStream,
    path: &str,
    body: &str,
) -> io::Result<(u16, String, bool)> {
    let request = format!(
        "POST {path} HTTP/1.1\r\nHost: localhost\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    writer.write_all(request.as_bytes())?;
    writer.flush()?;

    let mut line = String::new();
    if reader.read_line(&mut line)? == 0 {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "server closed the connection",
        ));
    }
    let status = line
        .split_whitespace()
        .nth(1)
        .and_then(|code| code.parse::<u16>().ok())
        .ok_or_else(|| io::Error::other(format!("bad status line {line:?}")))?;
    let mut content_length = None;
    let mut keep_alive = true;
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "headers cut short",
            ));
        }
        let header = line.trim_end();
        if header.is_empty() {
            break;
        }
        if let Some((key, value)) = header.split_once(':') {
            let value = value.trim();
            if key.eq_ignore_ascii_case("content-length") {
                content_length = value.parse::<usize>().ok();
            } else if key.eq_ignore_ascii_case("connection") && value.eq_ignore_ascii_case("close")
            {
                keep_alive = false;
            }
        }
    }
    let length = content_length.ok_or_else(|| io::Error::other("no Content-Length"))?;
    let mut bytes = vec![0u8; length];
    reader.read_exact(&mut bytes)?;
    let body = String::from_utf8(bytes).map_err(|_| io::Error::other("body is not UTF-8"))?;
    Ok((status, body, keep_alive))
}

/// The JSON body of a `POST /search` request for `query` (ASCII letters).
pub fn search_body(query: &str, threshold: i64) -> String {
    format!("{{\"query\":\"{query}\",\"threshold\":{threshold}}}")
}

/// What a `POST /search` answer says: whether it completed, and the
/// digest of its hits in the order they arrived.
pub fn parse_search_answer(body: &str) -> Result<(bool, u64), String> {
    let value = Json::parse(body)?;
    let complete =
        value.get("termination").and_then(Json::as_str) == Some(Termination::Complete.label());
    let hits = value
        .get("hits")
        .and_then(Json::as_array)
        .ok_or("answer has no hits array")?;
    let mut keys = Vec::with_capacity(hits.len());
    for hit in hits {
        let field = |name: &str| {
            hit.get(name)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("hit without numeric {name}"))
        };
        keys.push(HitKey {
            record: field("record")? as usize,
            record_end: field("record_end")? as usize,
            query_end: field("query_end")? as usize,
            text_end: field("text_end")? as usize,
            score: field("score")? as i64,
        });
    }
    Ok((complete, hit_digest(keys.into_iter())))
}

/// A parsed JSON value (the subset the HTTP front emits).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, fields in document order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parse one complete document.
    pub fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut pos = 0;
        let value = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing bytes at {pos}"));
        }
        Ok(value)
    }

    /// The field `key` of an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number, if this is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The string, if this is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && bytes[*pos].is_ascii_whitespace() {
        *pos += 1;
    }
}

fn expect_literal(
    bytes: &[u8],
    pos: &mut usize,
    literal: &str,
    value: Json,
) -> Result<Json, String> {
    if bytes[*pos..].starts_with(literal.as_bytes()) {
        *pos += literal.len();
        Ok(value)
    } else {
        Err(format!("bad literal at {pos}"))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err("unexpected end".into()),
        Some(b'n') => expect_literal(bytes, pos, "null", Json::Null),
        Some(b't') => expect_literal(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => expect_literal(bytes, pos, "false", Json::Bool(false)),
        Some(b'"') => parse_string(bytes, pos).map(Json::Str),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(bytes, pos)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(format!("bad array at {pos}")),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut fields = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(fields));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(bytes, pos)?;
                skip_ws(bytes, pos);
                if bytes.get(*pos) != Some(&b':') {
                    return Err(format!("missing ':' at {pos}"));
                }
                *pos += 1;
                fields.push((key, parse_value(bytes, pos)?));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(fields));
                    }
                    _ => return Err(format!("bad object at {pos}")),
                }
            }
        }
        Some(_) => {
            let start = *pos;
            while *pos < bytes.len()
                && matches!(bytes[*pos], b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
            {
                *pos += 1;
            }
            std::str::from_utf8(&bytes[start..*pos])
                .ok()
                .and_then(|s| s.parse::<f64>().ok())
                .map(Json::Num)
                .ok_or_else(|| format!("bad number at {start}"))
        }
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    if bytes.get(*pos) != Some(&b'"') {
        return Err(format!("expected string at {pos}"));
    }
    *pos += 1;
    let mut out = Vec::new();
    while let Some(&byte) = bytes.get(*pos) {
        *pos += 1;
        match byte {
            b'"' => return String::from_utf8(out).map_err(|_| "string is not UTF-8".into()),
            b'\\' => {
                let escaped = *bytes.get(*pos).ok_or("unterminated escape")?;
                *pos += 1;
                match escaped {
                    b'n' => out.push(b'\n'),
                    b't' => out.push(b'\t'),
                    b'r' => out.push(b'\r'),
                    b'u' => {
                        let hex = bytes.get(*pos..*pos + 4).ok_or("short \\u escape")?;
                        *pos += 4;
                        let code = std::str::from_utf8(hex)
                            .ok()
                            .and_then(|h| u32::from_str_radix(h, 16).ok())
                            .and_then(char::from_u32)
                            .ok_or("bad \\u escape")?;
                        let mut buf = [0u8; 4];
                        out.extend_from_slice(code.encode_utf8(&mut buf).as_bytes());
                    }
                    other => out.push(other),
                }
            }
            other => out.push(other),
        }
    }
    Err("unterminated string".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_a_search_answer() {
        let body = r#"{"engine":"alae","threshold":30,"termination":"complete","delivered":1,"raw_hit_count":1,"hits":[{"record":0,"name":"a\"b","record_end":12,"query_end":7,"text_end":11,"score":31,"evalue":null}]}"#;
        let (complete, digest) = parse_search_answer(body).unwrap();
        assert!(complete);
        let expected = hit_digest(std::iter::once(HitKey {
            record: 0,
            record_end: 12,
            query_end: 7,
            text_end: 11,
            score: 31,
        }));
        assert_eq!(digest, expected);
        assert!(Json::parse("{\"a\": [1, 2e3, -4.5]} x").is_err());
    }
}
