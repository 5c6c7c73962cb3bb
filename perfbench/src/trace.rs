//! In-memory span recorder for the traced run.
//!
//! A span is opened around one call into a layer's public API and closed
//! when the guard drops.  Spans nest through a per-thread stack, so a
//! span's parent is whichever span the same thread had open, and every
//! span of one request carries the request id of its root.  Nothing is
//! written while the benchmark runs: [`Tracer::write_jsonl`] dumps the
//! spans at the end and [`Tracer::self_time_table`] summarises them.
//!
//! A disabled tracer reads no clock and records nothing.

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::io::{self, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Unique id (1-based).
    pub id: u64,
    /// Id of the enclosing span on the same thread (0 for a root).
    pub parent: u64,
    /// Id shared by every span of one request.
    pub request: u64,
    /// Layer call the span covers, `layer.operation`.
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

thread_local! {
    /// Open spans of this thread, innermost last: `(span id, request id)`.
    static OPEN: RefCell<Vec<(u64, u64)>> = const { RefCell::new(Vec::new()) };
}

/// The span recorder shared by every thread of one run.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

/// Closes its span when dropped.
pub struct SpanGuard<'a> {
    open: Option<(&'a Tracer, u64, u64, u64, &'static str, u64)>,
}

impl Tracer {
    /// A recorder; `enabled = false` makes every call a no-op.
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Open a root span that starts a new request.
    pub fn request(&self, name: &'static str) -> SpanGuard<'_> {
        self.open(name, true)
    }

    /// Open a span inside the current request of this thread (a root
    /// request of its own when the thread has no open span).
    pub fn span(&self, name: &'static str) -> SpanGuard<'_> {
        self.open(name, false)
    }

    fn open(&self, name: &'static str, new_request: bool) -> SpanGuard<'_> {
        if !self.enabled {
            return SpanGuard { open: None };
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let (parent, request) = OPEN.with(|open| {
            let mut open = open.borrow_mut();
            let (parent, request) = match open.last() {
                Some(&(parent, request)) if !new_request => (parent, request),
                _ => (0, id),
            };
            open.push((id, request));
            (parent, request)
        });
        let start_ns = self.now_ns();
        SpanGuard {
            open: Some((self, id, parent, request, name, start_ns)),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Every span recorded so far, in closing order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span list poisoned").clone()
    }

    /// Durations (ms) of every span called `name` inside a request whose
    /// root span is called `request`.
    pub fn durations_ms(&self, name: &str, request: &str) -> Vec<f64> {
        let spans = self.spans.lock().expect("span list poisoned");
        spans_in(&spans, name, request)
            .map(|span| span.duration_ns() as f64 / 1e6)
            .collect()
    }

    /// Self time (ms) of every span called `name` inside a request whose
    /// root span is called `request`: its duration minus the durations of
    /// its direct children.
    pub fn self_times_ms(&self, name: &str, request: &str) -> Vec<f64> {
        let spans = self.spans.lock().expect("span list poisoned");
        let child_ns = child_time_by_parent(&spans);
        spans_in(&spans, name, request)
            .map(|span| {
                let children = child_ns.get(&span.id).copied().unwrap_or(0);
                span.duration_ns().saturating_sub(children) as f64 / 1e6
            })
            .collect()
    }

    /// Per-layer totals: for each span name, the call count, total time
    /// and self time (ms), largest self time first.
    pub fn self_time_table(&self) -> Vec<(&'static str, usize, f64, f64)> {
        let spans = self.spans.lock().expect("span list poisoned");
        let child_ns = child_time_by_parent(&spans);
        let mut rows: BTreeMap<&'static str, (usize, u64, u64)> = BTreeMap::new();
        for span in spans.iter() {
            let children = child_ns.get(&span.id).copied().unwrap_or(0);
            let row = rows.entry(span.name).or_default();
            row.0 += 1;
            row.1 += span.duration_ns();
            row.2 += span.duration_ns().saturating_sub(children);
        }
        let mut table: Vec<_> = rows
            .into_iter()
            .map(|(name, (count, total, own))| (name, count, total as f64 / 1e6, own as f64 / 1e6))
            .collect();
        table.sort_by(|a, b| b.3.total_cmp(&a.3));
        table
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        let spans = self.spans.lock().expect("span list poisoned");
        let mut out = String::with_capacity(spans.len() * 96);
        for span in spans.iter() {
            let _ = writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"request\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                span.id, span.parent, span.request, span.name, span.start_ns, span.end_ns
            );
        }
        let mut file = std::fs::File::create(path)?;
        file.write_all(out.as_bytes())?;
        file.flush()
    }
}

/// The spans called `name` whose request root is called `request`.
fn spans_in<'a>(
    spans: &'a [Span],
    name: &'a str,
    request: &str,
) -> impl Iterator<Item = &'a Span> + 'a {
    let roots: BTreeSet<u64> = spans
        .iter()
        .filter(|span| span.id == span.request && span.name == request)
        .map(|span| span.id)
        .collect();
    spans
        .iter()
        .filter(move |span| span.name == name && roots.contains(&span.request))
}

fn child_time_by_parent(spans: &[Span]) -> BTreeMap<u64, u64> {
    let mut child_ns = BTreeMap::new();
    for span in spans.iter().filter(|span| span.parent != 0) {
        *child_ns.entry(span.parent).or_insert(0) += span.duration_ns();
    }
    child_ns
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let Some((tracer, id, parent, request, name, start_ns)) = self.open.take() else {
            return;
        };
        let end_ns = tracer.now_ns();
        OPEN.with(|open| {
            let mut open = open.borrow_mut();
            if let Some(position) = open.iter().rposition(|&(open_id, _)| open_id == id) {
                open.remove(position);
            }
        });
        // Ignore a poisoned list here: a panic in Drop would abort.
        if let Ok(mut spans) = tracer.spans.lock() {
            spans.push(Span {
                id,
                parent,
                request,
                name,
                start_ns,
                end_ns,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_share_the_request_and_link_parents() {
        let tracer = Tracer::new(true);
        {
            let _root = tracer.request("outer");
            let _child = tracer.span("inner");
        }
        {
            let _root = tracer.request("outer");
        }
        let spans = tracer.spans();
        assert_eq!(spans.len(), 3);
        let inner = spans.iter().find(|s| s.name == "inner").unwrap();
        let outer = spans.iter().find(|s| s.id == inner.parent).unwrap();
        assert_eq!(outer.name, "outer");
        assert_eq!(inner.request, outer.request);
        let second = spans.iter().filter(|s| s.name == "outer").nth(1).unwrap();
        assert_ne!(second.request, outer.request);
        let table = tracer.self_time_table();
        assert_eq!(table.len(), 2);
    }

    #[test]
    fn span_queries_keep_to_the_named_requests() {
        let tracer = Tracer::new(true);
        {
            let _root = tracer.request("timed");
            let _outer = tracer.span("search");
            let _inner = tracer.span("align");
        }
        {
            let _root = tracer.request("check");
            let _inner = tracer.span("align");
        }
        {
            let _unrooted = tracer.span("align");
        }
        assert_eq!(tracer.durations_ms("align", "timed").len(), 1);
        assert_eq!(tracer.durations_ms("align", "check").len(), 1);
        assert_eq!(tracer.self_times_ms("search", "timed").len(), 1);
        assert!(tracer.self_times_ms("search", "check").is_empty());
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let tracer = Tracer::new(false);
        {
            let _root = tracer.request("outer");
        }
        assert!(tracer.spans().is_empty());
    }
}
