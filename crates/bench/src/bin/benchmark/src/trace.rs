//! Spans recorded from outside the engine, around each public call.
//!
//! A span has a name (the layer), a start, an end, the span that caused it,
//! and an operation id shared by every span of one cold solve or one delta.
//! Spans nest on one thread and children run back to back, so a span's self
//! time is its duration minus the summed durations of its direct children.
//!
//! Self time is aggregated per layer as each span closes, so a long run keeps
//! only the totals; raw spans are kept for the first few operations of each
//! kind (see [`Tracer::on`]) and written out when the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span, in nanoseconds since the tracer started.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the parent in the raw span list.
    pub parent: Option<usize>,
    pub op: u64,
}

/// Per-layer aggregate over every closed span of that name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

struct Frame {
    name: &'static str,
    start_ns: u64,
    child_ns: u64,
    raw: Option<usize>,
}

pub struct Tracer {
    enabled: bool,
    origin: Instant,
    stack: Vec<Frame>,
    layers: BTreeMap<&'static str, LayerTotals>,
    spans: Vec<Span>,
    /// Remaining raw-span allowance per root span name.
    keep: BTreeMap<&'static str, usize>,
    next_op: u64,
    keeping: bool,
}

impl Tracer {
    /// A tracer that records nothing; [`Tracer::call`] still times the call.
    pub fn off() -> Self {
        Self::new(false, &[])
    }

    /// A recording tracer keeping raw spans for the first `n` operations
    /// whose root span is named `name`, for each `(name, n)` in `keep`.
    pub fn on(keep: &[(&'static str, usize)]) -> Self {
        Self::new(true, keep)
    }

    fn new(enabled: bool, keep: &[(&'static str, usize)]) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            stack: Vec::new(),
            layers: BTreeMap::new(),
            spans: Vec::new(),
            keep: keep.iter().copied().collect(),
            next_op: 0,
            keeping: false,
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Runs `f` inside a span named `name` and returns its result with the
    /// call's wall time in seconds. The time is measured whether or not the
    /// tracer records.
    pub fn call<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        let start = Instant::now();
        self.open(name, self.ns(start));
        let out = f();
        let end = Instant::now();
        self.close(self.ns(end));
        (out, end.duration_since(start).as_secs_f64())
    }

    /// Opens a span now; pair with [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str) {
        if self.enabled {
            self.open(name, self.ns(Instant::now()));
        }
    }

    /// Closes the innermost open span now.
    pub fn end(&mut self) {
        if self.enabled {
            self.close(self.ns(Instant::now()));
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        u64::try_from(at.duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span at `at_ns`. A span opened with no span open is the root
    /// of a new operation.
    pub fn open(&mut self, name: &'static str, at_ns: u64) {
        if !self.enabled {
            return;
        }
        if self.stack.is_empty() {
            self.next_op += 1;
            self.keeping = match self.keep.get_mut(name) {
                Some(left) if *left > 0 => {
                    *left -= 1;
                    true
                }
                _ => false,
            };
        }
        let raw = self.keeping.then(|| {
            self.spans.push(Span {
                name,
                start_ns: at_ns,
                end_ns: at_ns,
                parent: self.stack.last().and_then(|f| f.raw),
                op: self.next_op,
            });
            self.spans.len() - 1
        });
        self.stack.push(Frame {
            name,
            start_ns: at_ns,
            child_ns: 0,
            raw,
        });
    }

    /// Closes the innermost open span at `at_ns`.
    ///
    /// # Panics
    ///
    /// Panics when no span is open: opens and closes are paired in code.
    pub fn close(&mut self, at_ns: u64) {
        if !self.enabled {
            return;
        }
        let frame = self.stack.pop().expect("close without a matching open");
        let duration = at_ns.saturating_sub(frame.start_ns);
        let totals = self.layers.entry(frame.name).or_default();
        totals.count += 1;
        totals.total_ns += duration;
        totals.self_ns += duration.saturating_sub(frame.child_ns);
        if let Some(parent) = self.stack.last_mut() {
            parent.child_ns += duration;
        }
        if let Some(i) = frame.raw {
            self.spans[i].end_ns = at_ns;
        }
    }

    pub fn layers(&self) -> &BTreeMap<&'static str, LayerTotals> {
        &self.layers
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The trace file: per-layer self and total time, then the raw spans.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"layers\": {");
        for (i, (name, t)) in self.layers.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"count\": {}, \"self_s\": {}, \"total_s\": {}}}",
                t.count,
                t.self_ns as f64 * 1e-9,
                t.total_ns as f64 * 1e-9
            );
        }
        out.push_str("}, \"spans\": [");
        for (i, s) in self.spans.iter().enumerate() {
            let sep = if i == 0 { "\n" } else { ",\n" };
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{sep}{{\"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"op\": {}}}",
                s.name, s.start_ns, s.end_ns, s.op
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_nested_and_back_to_back_children() {
        let mut t = Tracer::on(&[("op", 1)]);
        t.open("op", 0);
        t.open("b", 10);
        t.close(30); // b: 20, no children
        t.open("c", 30); // back to back with b
        t.open("d", 35);
        t.close(45); // d: 10, nested in c
        t.close(60); // c: 30, of which 10 is d
        t.close(100); // op: 100, of which b + c = 50
        let l = t.layers();
        assert_eq!(
            l["op"],
            LayerTotals {
                count: 1,
                total_ns: 100,
                self_ns: 50
            }
        );
        assert_eq!(
            l["b"],
            LayerTotals {
                count: 1,
                total_ns: 20,
                self_ns: 20
            }
        );
        assert_eq!(
            l["c"],
            LayerTotals {
                count: 1,
                total_ns: 30,
                self_ns: 20
            }
        );
        assert_eq!(
            l["d"],
            LayerTotals {
                count: 1,
                total_ns: 10,
                self_ns: 10
            }
        );
        // Self times add up to the root's duration.
        let self_sum: u64 = l.values().map(|t| t.self_ns).sum();
        assert_eq!(self_sum, 100);
    }

    #[test]
    fn raw_spans_link_parents_and_share_the_operation_id() {
        let mut t = Tracer::on(&[("op", 1)]);
        t.open("op", 0);
        t.open("step", 1);
        t.close(2);
        t.open("step", 2);
        t.close(4);
        t.close(5);
        // A second operation is aggregated but its raw spans are not kept.
        t.open("op", 10);
        t.open("step", 11);
        t.close(12);
        t.close(13);
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans.iter().all(|s| s.op == spans[0].op));
        assert_eq!((spans[2].start_ns, spans[2].end_ns), (2, 4));
        assert_eq!(t.layers()["step"].count, 3);
        assert_eq!(t.layers()["op"].count, 2);
        assert!(t.to_json().contains("\"parent\": 0"));
    }

    #[test]
    fn a_disabled_tracer_records_nothing_but_still_times() {
        let mut t = Tracer::off();
        let (v, secs) = t.call("x", || 7);
        assert_eq!(v, 7);
        assert!(secs >= 0.0);
        t.begin("op");
        t.end();
        assert!(t.layers().is_empty());
        assert!(t.spans().is_empty());
    }
}
