//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span records its name, start, end, parent span and the request it
//! serves (a span serving a whole batch carries its first request's
//! index). Spans stay in memory until [`Tracer::write_jsonl`] writes them
//! out at the end of the run.
//!
//! Layer totals use each span's duration on a [`Stopwatch`], like the
//! end-to-end timings; [`Tracer::root_secs`] uses wall time, since it is
//! compared with the loop's wall time.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

use crate::pace::Stopwatch;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer name, e.g. `query.plan`.
    pub name: &'static str,
    /// Start, since the tracer was created.
    pub start: Duration,
    /// End, since the tracer was created.
    pub end: Duration,
    /// Duration on a [`Stopwatch`], in seconds.
    pub secs: f64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Index of the request the span serves.
    pub request: u64,
}

/// Totals of every span with one name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SpanTotals {
    /// Spans recorded.
    pub count: usize,
    /// Sum of their durations, in seconds.
    pub total_s: f64,
    /// Sum of their self times (duration minus the time children cover).
    pub self_s: f64,
    /// Longest single span, in seconds.
    pub max_s: f64,
}

/// Records spans; see the module docs.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<(usize, Stopwatch)>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }
}

impl Tracer {
    /// Opens a span under the innermost open one and returns its index.
    pub fn begin(&mut self, name: &'static str, request: u64) -> usize {
        let start = self.epoch.elapsed();
        self.spans.push(Span {
            name,
            start,
            end: start,
            secs: 0.0,
            parent: self.open.last().map(|open| open.0),
            request,
        });
        self.open.push((self.spans.len() - 1, Stopwatch::start()));
        self.spans.len() - 1
    }

    /// Closes span `id`, which must be the innermost open one.
    pub fn end(&mut self, id: usize) {
        let (open, clock) = self.open.pop().expect("an open span");
        assert_eq!(open, id, "spans close innermost first");
        self.spans[id].secs = clock.secs();
        self.spans[id].end = self.epoch.elapsed();
    }

    /// Runs `f` inside a span.
    pub fn span<T>(&mut self, name: &'static str, request: u64, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name, request);
        let out = f();
        self.end(id);
        out
    }

    /// The spans recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Sum of the wall-clock durations of top-level spans, in seconds.
    pub fn root_secs(&self) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|s| (s.end - s.start).as_secs_f64())
            .sum()
    }

    /// Per-name totals of the stopwatch durations, with self time computed
    /// from the children. The stopwatch times of a span's children add up
    /// to no more than its own, so self times are not negative.
    pub fn totals(&self) -> BTreeMap<&'static str, SpanTotals> {
        let mut child_secs = vec![0.0f64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_secs[parent] += span.secs;
            }
        }
        let mut totals: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(child_secs) {
            let secs = span.secs;
            let entry = totals.entry(span.name).or_default();
            entry.count += 1;
            entry.total_s += secs;
            entry.self_s += secs - children;
            entry.max_s = entry.max_s.max(secs);
        }
        totals
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for span in &self.spans {
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"name\":\"{}\",\"start_us\":{},\"end_us\":{},\"stopwatch_us\":{:.3},\"parent\":{},\"request\":{}}}",
                span.name,
                span.start.as_micros(),
                span.end.as_micros(),
                span.secs * 1e6,
                parent,
                span.request
            )?;
        }
        out.flush()
    }
}
