//! Assembling drained spans into completed traces.
//!
//! The [`crate::Tracer`] emits spans out of order (per-thread rings, each
//! stage closing at its own pace), so the store buffers spans by trace id
//! and declares a trace complete once it has gone one full ingest round
//! without growing — a watermark scheme matched to the tick-driven drain
//! cadence (spans for a frame all land within the tick, or the next one
//! for cross-thread stages like the gateway).

use crate::context::{SpanId, TraceId};
use crate::span::{DropReason, SpanRecord};
use std::collections::{HashMap, VecDeque};

/// One assembled trace: all spans sharing a trace id, sorted by start.
#[derive(Debug, Clone, PartialEq)]
pub struct Trace {
    /// The trace id.
    pub id: TraceId,
    /// Spans, sorted by `start_ns` (ties broken by span id).
    pub spans: Vec<SpanRecord>,
}

impl Trace {
    /// The root span (no parent), if one was recorded.
    pub fn root(&self) -> Option<&SpanRecord> {
        self.spans.iter().find(|s| s.parent == SpanId::NONE)
    }

    /// End-to-end duration: first start to last end across all spans.
    pub fn duration_ns(&self) -> u64 {
        let start = self.spans.iter().map(|s| s.start_ns).min().unwrap_or(0);
        let end = self.spans.iter().map(|s| s.end_ns).max().unwrap_or(0);
        end.saturating_sub(start)
    }

    /// Whether any span records a loss.
    pub fn has_drop(&self) -> bool {
        self.spans.iter().any(|s| s.is_drop())
    }

    /// The spans recording losses (drop provenance).
    pub fn drop_spans(&self) -> impl Iterator<Item = &SpanRecord> {
        self.spans.iter().filter(|s| s.is_drop())
    }

    /// The first drop reason, if the trace recorded a loss.
    pub fn first_drop_reason(&self) -> Option<DropReason> {
        self.drop_spans().find_map(|s| s.status.drop_reason())
    }
}

struct Pending {
    spans: Vec<SpanRecord>,
    /// Ingest rounds since this trace last received a span.
    idle_rounds: u32,
}

/// Buffers drained spans and surfaces completed traces, keeping the most
/// recent `capacity` around for inspection (gateway, viz, examples).
pub struct TraceStore {
    pending: HashMap<u64, Pending>,
    completed: VecDeque<Trace>,
    capacity: usize,
    completed_total: u64,
    completed_with_drops: u64,
    spans_seen: u64,
}

impl TraceStore {
    /// Rounds a trace must sit idle before being declared complete.
    const IDLE_ROUNDS: u32 = 1;

    /// A store retaining the `capacity` most recent completed traces.
    pub fn new(capacity: usize) -> TraceStore {
        TraceStore {
            pending: HashMap::new(),
            completed: VecDeque::new(),
            capacity: capacity.max(1),
            completed_total: 0,
            completed_with_drops: 0,
            spans_seen: 0,
        }
    }

    /// Ingest one drained batch; returns how many traces completed.
    pub fn ingest(&mut self, spans: Vec<SpanRecord>) -> usize {
        for p in self.pending.values_mut() {
            p.idle_rounds += 1;
        }
        for span in spans {
            self.spans_seen += 1;
            let entry = self
                .pending
                .entry(span.trace_id.0)
                .or_insert_with(|| Pending { spans: Vec::new(), idle_rounds: 0 });
            entry.spans.push(span);
            entry.idle_rounds = 0;
        }
        let done: Vec<u64> = self
            .pending
            .iter()
            .filter(|(_, p)| p.idle_rounds >= Self::IDLE_ROUNDS)
            .map(|(&id, _)| id)
            .collect();
        let mut completed = Vec::with_capacity(done.len());
        for id in done {
            let mut p = self.pending.remove(&id).expect("pending id listed");
            p.spans.sort_by_key(|s| (s.start_ns, s.span_id));
            completed.push(Trace { id: TraceId(id), spans: p.spans });
        }
        // Deterministic completion order regardless of hash-map iteration.
        completed.sort_by_key(|t| t.id);
        let n = completed.len();
        for trace in completed {
            self.completed_total += 1;
            if trace.has_drop() {
                self.completed_with_drops += 1;
            }
            self.completed.push_back(trace);
            while self.completed.len() > self.capacity {
                self.completed.pop_front();
            }
        }
        n
    }

    /// Retained completed traces, oldest first.
    pub fn completed(&self) -> impl DoubleEndedIterator<Item = &Trace> {
        self.completed.iter()
    }

    /// Find a retained trace by id.
    pub fn find(&self, id: TraceId) -> Option<&Trace> {
        self.completed.iter().find(|t| t.id == id)
    }

    /// Retained traces that recorded at least one loss, oldest first.
    pub fn with_drops(&self) -> impl DoubleEndedIterator<Item = &Trace> {
        self.completed.iter().filter(|t| t.has_drop())
    }

    /// Traces completed over this store's lifetime.
    pub fn completed_total(&self) -> u64 {
        self.completed_total
    }

    /// Completed traces that recorded at least one loss, lifetime.
    pub fn completed_with_drops(&self) -> u64 {
        self.completed_with_drops
    }

    /// Spans ingested over this store's lifetime.
    pub fn spans_seen(&self) -> u64 {
        self.spans_seen
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::{SpanStatus, Stage};

    fn span(trace: u64, id: u64, parent: u64, start: u64, status: SpanStatus) -> SpanRecord {
        SpanRecord {
            trace_id: TraceId(trace),
            span_id: SpanId(id),
            parent: SpanId(parent),
            stage: Stage::Tick,
            start_ns: start,
            end_ns: start + 10,
            status,
            note: String::new(),
        }
    }

    #[test]
    fn trace_completes_after_one_idle_round() {
        let mut store = TraceStore::new(8);
        assert_eq!(store.ingest(vec![span(1, 1, 0, 0, SpanStatus::Completed)]), 0);
        assert_eq!(store.pending.len(), 1);
        // Next round with no new spans for trace 1: it completes.
        assert_eq!(store.ingest(Vec::new()), 1);
        assert_eq!(store.pending.len(), 0);
        let t = store.find(TraceId(1)).unwrap();
        assert_eq!(t.spans.len(), 1);
        assert_eq!(t.root().unwrap().span_id, SpanId(1));
    }

    #[test]
    fn straggler_spans_extend_a_pending_trace() {
        let mut store = TraceStore::new(8);
        store.ingest(vec![span(1, 2, 1, 50, SpanStatus::Completed)]);
        // A straggler arrives the next round: trace stays pending, merged.
        store.ingest(vec![span(1, 1, 0, 0, SpanStatus::Completed)]);
        assert_eq!(store.ingest(Vec::new()), 1);
        let t = store.find(TraceId(1)).unwrap();
        assert_eq!(t.spans.len(), 2);
        // Sorted by start_ns: the root (start 0) first.
        assert_eq!(t.spans[0].span_id, SpanId(1));
        assert_eq!(t.duration_ns(), 60);
    }

    #[test]
    fn drop_traces_are_counted_and_filterable() {
        let mut store = TraceStore::new(8);
        store.ingest(vec![
            span(1, 1, 0, 0, SpanStatus::Completed),
            span(2, 2, 0, 0, SpanStatus::Dropped(DropReason::QueueFull)),
        ]);
        store.ingest(Vec::new());
        assert_eq!(store.completed_total(), 2);
        assert_eq!(store.completed_with_drops(), 1);
        let dropped: Vec<_> = store.with_drops().collect();
        assert_eq!(dropped.len(), 1);
        assert_eq!(dropped[0].id, TraceId(2));
        assert_eq!(dropped[0].first_drop_reason(), Some(DropReason::QueueFull));
    }

    #[test]
    fn capacity_evicts_oldest() {
        let mut store = TraceStore::new(2);
        for i in 1..=4u64 {
            store.ingest(vec![span(i, i, 0, 0, SpanStatus::Completed)]);
        }
        store.ingest(Vec::new());
        assert_eq!(store.completed_total(), 4);
        assert!(store.find(TraceId(1)).is_none());
        assert!(store.find(TraceId(4)).is_some());
        assert_eq!(store.completed().count(), 2);
    }
}
