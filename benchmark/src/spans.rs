//! In-memory spans recorded from the benchmark's side of each layer
//! boundary, written out as JSON lines when the pass ends.
//!
//! The program is not instrumented here: a span brackets a call into a
//! public function.  Spans nest by `parent`; a layer's self time is its
//! span minus the part of it its children cover.

use std::io::Write;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name (`core.tick`, `store.ingest`, ...).
    pub name: &'static str,
    /// Start, ns since the tracer was created.
    pub start_ns: u64,
    /// End, ns since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Pipeline tick the span belongs to (0 outside the tick loop); spans
    /// of one tick share it.
    pub tick: u64,
}

/// Handle to a span that has been opened and not yet closed.
#[derive(Debug, Clone, Copy)]
pub struct Open(Option<usize>);

/// Span recorder.  Disabled (the end-to-end pass) every call is a branch
/// and nothing is stored.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    enabled: bool,
}

impl Tracer {
    /// A recorder; `enabled = false` records nothing.
    pub fn new(enabled: bool) -> Tracer {
        Tracer { origin: Instant::now(), spans: Vec::new(), stack: Vec::new(), enabled }
    }

    /// Open a span under the innermost open one.
    pub fn open(&mut self, name: &'static str, tick: u64) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let now = self.origin.elapsed().as_nanos() as u64;
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.stack.last().copied(),
            tick,
        });
        self.stack.push(idx);
        Open(Some(idx))
    }

    /// Close `span` (the innermost open one) and return its duration in
    /// milliseconds (0 when disabled).
    pub fn close(&mut self, span: Open) -> f64 {
        let Some(idx) = span.0 else { return 0.0 };
        let top = self.stack.pop();
        assert_eq!(top, Some(idx), "spans close innermost-first");
        let now = self.origin.elapsed().as_nanos() as u64;
        self.spans[idx].end_ns = now;
        (now - self.spans[idx].start_ns) as f64 / 1e6
    }

    /// Time `f` as a span named `name`; returns its result and duration in
    /// milliseconds.  The duration is measured even when recording is off,
    /// so layer drivers can be timed in either mode.
    pub fn time<T>(&mut self, name: &'static str, tick: u64, f: impl FnOnce() -> T) -> (T, f64) {
        let span = self.open(name, tick);
        let started = Instant::now();
        let out = f();
        let ms = started.elapsed().as_secs_f64() * 1e3;
        self.close(span);
        (out, ms)
    }

    /// Everything recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Write one JSON object per span.
    pub fn write_jsonl(&self, out: &mut impl Write) -> std::io::Result<()> {
        let selfs = self_times_ns(&self.spans);
        for (i, (s, self_ns)) in self.spans.iter().zip(selfs).enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"tick\":{},\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"self_ns\":{self_ns}}}",
                s.name, s.tick, s.start_ns, s.end_ns
            )?;
        }
        Ok(())
    }
}

/// Self time of every span: its duration minus the part of its interval
/// covered by its direct children (children are clipped to the parent and
/// overlapping children are not counted twice).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let (ps, pe) = (spans[p].start_ns, spans[p].end_ns);
            let (start, end) = (s.start_ns.clamp(ps, pe), s.end_ns.clamp(ps, pe));
            if end > start {
                children[p].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(start, end) in kids.iter() {
                let start = start.max(reach);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            (s.end_ns - s.start_ns) - covered
        })
        .collect()
}

/// Total self time per span name, in milliseconds, in first-seen order.
pub fn self_ms_by_name(spans: &[Span]) -> Vec<(&'static str, f64)> {
    let mut out: Vec<(&'static str, f64)> = Vec::new();
    for (s, self_ns) in spans.iter().zip(self_times_ns(spans)) {
        let ms = self_ns as f64 / 1e6;
        match out.iter_mut().find(|(n, _)| *n == s.name) {
            Some((_, total)) => *total += ms,
            None => out.push((s.name, ms)),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span { name, start_ns, end_ns, parent, tick: 1 }
    }

    #[test]
    fn self_time_is_span_minus_children() {
        let spans = vec![
            span("tick", 0, 100, None),
            span("sim.step", 10, 40, Some(0)),
            span("store.ingest", 50, 90, Some(0)),
            span("store.route", 55, 60, Some(2)),
        ];
        assert_eq!(self_times_ns(&spans), vec![30, 30, 35, 5]);
    }

    #[test]
    fn overlapping_and_overhanging_children_are_not_counted_twice() {
        let spans = vec![
            span("parent", 100, 200, None),
            span("a", 110, 150, Some(0)),
            span("b", 140, 160, Some(0)), // overlaps a by 10
            span("c", 190, 250, Some(0)), // overhangs the parent by 50
            span("d", 120, 130, Some(0)), // inside a
        ];
        // Covered: [110,160) + [190,200) = 60.
        assert_eq!(self_times_ns(&spans)[0], 40);
    }

    #[test]
    fn tracer_nests_by_open_order_and_disabled_records_nothing() {
        let mut t = Tracer::new(true);
        let root = t.open("tick", 7);
        let (v, ms) = t.time("sim.step", 7, || 41 + 1);
        assert_eq!(v, 42);
        assert!(ms >= 0.0);
        t.close(root);
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(t.spans()[0].parent, None);
        assert!(t.spans()[0].end_ns >= t.spans()[1].end_ns);
        let mut buf = Vec::new();
        t.write_jsonl(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert_eq!(text.lines().count(), 2);
        assert!(text.lines().nth(1).unwrap().contains("\"parent\":0"));

        let mut off = Tracer::new(false);
        let root = off.open("tick", 1);
        let (_, ms) = off.time("sim.step", 1, || std::hint::black_box(3));
        assert!(ms >= 0.0);
        assert_eq!(off.close(root), 0.0);
        assert!(off.spans().is_empty());
    }

    #[test]
    fn self_ms_groups_by_name() {
        let spans = vec![
            span("tick", 0, 2_000_000, None),
            span("sim.step", 0, 500_000, Some(0)),
            span("tick", 2_000_000, 5_000_000, None),
            span("sim.step", 2_000_000, 3_000_000, Some(2)),
        ];
        assert_eq!(self_ms_by_name(&spans), vec![("tick", 3.5), ("sim.step", 1.5)]);
    }
}
