//! In-memory span recorder for the benchmark's own calls into the
//! simulator. Span times are read from the thread's CPU clock
//! ([`crate::clock`]).
//!
//! A span is `(name, start, end, parent, cell)`. Spans live in memory
//! and are written once, at the end of a run, as Chrome `trace_event`
//! JSON. A span's self time is its duration minus the part covered by
//! its child spans.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::clock::thread_cpu_ns;

/// One recorded span. Times are thread-CPU nanoseconds since the
/// recorder started.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `host-sim.run`.
    pub name: &'static str,
    /// Start, ns.
    pub start_ns: u64,
    /// End, ns (`u64::MAX` while open).
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Index of the cell the span belongs to.
    pub cell: usize,
}

impl Span {
    /// Duration in nanoseconds.
    #[must_use]
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Per-name totals: calls, total time and self time (seconds).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SpanTotals {
    /// Spans of this name.
    pub calls: u64,
    /// Summed duration, s.
    pub total_s: f64,
    /// Summed self time (duration minus child spans), s.
    pub self_s: f64,
}

/// A stack-structured span recorder.
#[derive(Debug)]
pub struct Spans {
    origin: u64,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Spans {
    fn default() -> Self {
        Self::new()
    }
}

impl Spans {
    /// An empty recorder; span times count from now.
    #[must_use]
    pub fn new() -> Self {
        Spans {
            origin: thread_cpu_ns(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        thread_cpu_ns() - self.origin
    }

    /// Opens a span nested in the innermost open one.
    pub fn enter(&mut self, name: &'static str, cell: usize) {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: u64::MAX,
            parent: self.open.last().copied(),
            cell,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span and returns its duration in s.
    ///
    /// # Panics
    ///
    /// Panics if no span is open.
    pub fn exit(&mut self) -> f64 {
        let i = self.open.pop().expect("exit without enter");
        self.spans[i].end_ns = self.now_ns();
        self.spans[i].dur_ns() as f64 * 1e-9
    }

    /// Runs `f` inside a span; returns its value and duration in s.
    pub fn time<T>(&mut self, name: &'static str, cell: usize, f: impl FnOnce() -> T) -> (T, f64) {
        self.enter(name, cell);
        let out = f();
        (out, self.exit())
    }

    /// Closes every span left open (by a panic inside a timed call).
    pub fn close_all(&mut self) {
        while !self.open.is_empty() {
            self.exit();
        }
    }

    /// Forgets every closed span (runs that only need span durations
    /// keep memory flat this way).
    ///
    /// # Panics
    ///
    /// Panics if a span is open.
    pub fn clear(&mut self) {
        assert!(self.open.is_empty(), "clear with open spans");
        self.spans.clear();
    }

    /// The recorded spans.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Calls, total and self time per span name.
    #[must_use]
    pub fn totals(&self) -> BTreeMap<&'static str, SpanTotals> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns();
            }
        }
        let mut out: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
        for (s, &kids) in self.spans.iter().zip(&child_ns) {
            let t = out.entry(s.name).or_default();
            t.calls += 1;
            t.total_s += s.dur_ns() as f64 * 1e-9;
            t.self_s += s.dur_ns().saturating_sub(kids) as f64 * 1e-9;
        }
        out
    }

    /// Chrome `trace_event` JSON (complete `X` events, one thread per
    /// cell), loadable in `chrome://tracing` or Perfetto.
    #[must_use]
    pub fn to_chrome_json(&self, cell_labels: &[String]) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        for (i, (cell, label)) in cell_labels.iter().enumerate().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{cell},\"args\":{{\"name\":\"{label}\"}}}}"
            );
        }
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 || !cell_labels.is_empty() {
                out.push(',');
            }
            let parent = s.parent.map_or(-1, |p| p as i64);
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{},\"parent\":{},\"cell\":{}}}}}",
                s.name,
                s.cell,
                s.start_ns as f64 / 1e3,
                s.dur_ns() as f64 / 1e3,
                i,
                parent,
                s.cell
            );
        }
        out.push_str("]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut s = Spans::new();
        s.enter("outer", 0);
        s.enter("inner", 0);
        let t0 = thread_cpu_ns();
        while thread_cpu_ns() - t0 < 5_000_000 {}
        s.exit();
        s.exit();
        let t = s.totals();
        let outer = t["outer"];
        let inner = t["inner"];
        assert!(inner.total_s >= 0.004);
        assert!((outer.total_s - outer.self_s - inner.total_s).abs() < 1e-9);
        assert!(s.to_chrome_json(&["c".into()]).contains("\"parent\":0"));
    }
}
