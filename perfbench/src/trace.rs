//! Spans for the traced run: name, start, end and parent, all sharing one
//! run id. Each thread appends to its own [`SpanLog`]; the logs are merged
//! and written out once the run ends, so tracing does no I/O while the
//! benchmark measures.

use crate::json::Json;
use std::collections::HashMap;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// One recorded interval. `parent == 0` marks a root span.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// Unique within the run, never 0.
    pub id: u64,
    /// The span that caused this one, or 0.
    pub parent: u64,
    /// The layer call or benchmark phase the span covers.
    pub name: &'static str,
    /// The benchmark thread that recorded it (0 is the main thread).
    pub thread: u32,
    /// Nanoseconds since the run started.
    pub start_ns: u64,
    /// Nanoseconds since the run started.
    pub end_ns: u64,
}

/// The run-wide clock origin and span id source.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    next_id: AtomicU64,
}

impl Tracer {
    /// A tracer whose clock starts now.
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
        }
    }

    /// A fresh span id.
    pub fn next_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// `t` as nanoseconds since the run started.
    pub fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

/// One thread's spans, appended without synchronization.
#[derive(Debug, Default)]
pub struct SpanLog {
    thread: u32,
    spans: Vec<Span>,
}

impl SpanLog {
    /// An empty log for `thread`, with room for `capacity` spans so
    /// recording in a measured loop does not allocate.
    pub fn new(thread: u32, capacity: usize) -> Self {
        Self {
            thread,
            spans: Vec::with_capacity(capacity),
        }
    }

    /// Appends a span whose id was taken from [`Tracer::next_id`].
    pub fn push(&mut self, id: u64, parent: u64, name: &'static str, start_ns: u64, end_ns: u64) {
        self.spans.push(Span {
            id,
            parent,
            name,
            thread: self.thread,
            start_ns,
            end_ns,
        });
    }

    /// Moves `other`'s spans into this log.
    pub fn absorb(&mut self, other: SpanLog) {
        self.spans.extend(other.spans);
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Runs `f` inside a span named `name` under `parent` when tracing, or
/// plainly when `tracer` is `None`. `f` receives the span's id (0 when
/// untraced) to parent its own children.
pub fn span<T>(
    tracer: Option<&Tracer>,
    log: &mut SpanLog,
    name: &'static str,
    parent: u64,
    f: impl FnOnce(&mut SpanLog, u64) -> T,
) -> T {
    match tracer {
        None => f(log, 0),
        Some(tr) => {
            let id = tr.next_id();
            let start = tr.ns(Instant::now());
            let out = f(log, id);
            let end = tr.ns(Instant::now());
            log.push(id, parent, name, start, end);
            out
        }
    }
}

/// Per-name totals of a trace.
#[derive(Clone, Debug, PartialEq)]
pub struct NameSummary {
    /// The span name.
    pub name: &'static str,
    /// Spans with that name.
    pub count: u64,
    /// Summed durations.
    pub total_ns: u64,
    /// Summed self time: each span's duration minus the part of it its
    /// children cover (overlapping children counted once).
    pub self_ns: u64,
}

/// Totals and self time per span name, sorted by name.
pub fn summarize(spans: &[Span]) -> Vec<NameSummary> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if s.parent != 0 {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
    }
    let mut by_name: HashMap<&'static str, NameSummary> = HashMap::new();
    for s in spans {
        let total = s.end_ns.saturating_sub(s.start_ns);
        let covered = children
            .get(&s.id)
            .map_or(0, |c| covered(c, s.start_ns, s.end_ns));
        let e = by_name.entry(s.name).or_insert(NameSummary {
            name: s.name,
            count: 0,
            total_ns: 0,
            self_ns: 0,
        });
        e.count += 1;
        e.total_ns += total;
        e.self_ns += total.saturating_sub(covered);
    }
    let mut out: Vec<NameSummary> = by_name.into_values().collect();
    out.sort_by_key(|s| s.name);
    out
}

/// Length of the union of `intervals`, clipped to `[lo, hi)`.
fn covered(intervals: &[(u64, u64)], lo: u64, hi: u64) -> u64 {
    let mut iv: Vec<(u64, u64)> = intervals
        .iter()
        .map(|&(s, e)| (s.max(lo), e.min(hi)))
        .filter(|&(s, e)| s < e)
        .collect();
    iv.sort_unstable();
    let (mut total, mut cur): (u64, Option<(u64, u64)>) = (0, None);
    for (s, e) in iv {
        cur = match cur {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    total + cur.map_or(0, |(s, e)| e - s)
}

/// Writes the trace as JSON lines: one `header` object, then one object
/// per span, each carrying the run id.
///
/// # Errors
///
/// Any I/O error creating or writing `path`.
pub fn write_jsonl(path: &Path, header: &Json, run_id: u64, spans: &[Span]) -> io::Result<()> {
    let mut w = BufWriter::new(std::fs::File::create(path)?);
    writeln!(w, "{header}")?;
    let run = format!("{run_id:016x}");
    for s in spans {
        let line = Json::obj([
            ("run", Json::str(run.clone())),
            ("id", Json::Num(s.id as f64)),
            ("parent", Json::Num(s.parent as f64)),
            ("name", Json::str(s.name)),
            ("thread", Json::Num(s.thread as f64)),
            ("start_ns", Json::Num(s.start_ns as f64)),
            ("end_ns", Json::Num(s.end_ns as f64)),
        ]);
        writeln!(w, "{line}")?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(id: u64, parent: u64, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name,
            thread: 0,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            sp(1, 0, "run", 0, 100),
            // Two overlapping children on different threads: 10..50.
            sp(2, 1, "work", 10, 40),
            sp(3, 1, "work", 30, 50),
            // A grandchild does not count against the root.
            sp(4, 2, "leaf", 12, 20),
        ];
        let sum = summarize(&spans);
        let get = |n: &str| sum.iter().find(|s| s.name == n).unwrap().clone();
        assert_eq!(get("run").self_ns, 60);
        assert_eq!(get("work").count, 2);
        assert_eq!(get("work").total_ns, 50);
        assert_eq!(get("work").self_ns, 42);
        assert_eq!(get("leaf").self_ns, 8);
    }

    #[test]
    fn span_helper_nests_and_skips_when_untraced() {
        let tr = Tracer::new();
        let mut log = SpanLog::new(0, 4);
        let got = span(Some(&tr), &mut log, "outer", 0, |log, id| {
            span(Some(&tr), log, "inner", id, |_, inner| inner)
        });
        assert_eq!(log.spans().len(), 2);
        assert_eq!(log.spans()[0].name, "inner");
        assert_eq!(log.spans()[0].id, got);
        assert_eq!(log.spans()[0].parent, log.spans()[1].id);
        let mut quiet = SpanLog::default();
        assert_eq!(span(None, &mut quiet, "outer", 0, |_, id| id), 0);
        assert!(quiet.spans().is_empty());
    }
}
