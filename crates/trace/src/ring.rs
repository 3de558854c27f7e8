//! The bounded ring spans are recorded into.
//!
//! Recording must never stall the pipeline, so the ring is a
//! fixed-capacity queue behind one mutex: a push takes the lock, checks
//! the length and appends; the drain side takes the lock once and empties
//! the queue.  When the ring is full the span is *rejected and counted* —
//! tracing obeys the same "lossy but accounted" discipline as the broker,
//! and a stalled drain can never wedge the tick loop.  The tracer keeps
//! one ring per thread slot, so the lock is uncontended until more than
//! eight threads record spans and two of them share a slot.

use crate::span::SpanRecord;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// A multi-producer bounded span queue.
pub struct SpanRing {
    spans: Mutex<VecDeque<SpanRecord>>,
    capacity: usize,
    rejected: AtomicU64,
}

impl SpanRing {
    /// A ring holding up to `capacity` spans.
    pub(crate) fn new(capacity: usize) -> SpanRing {
        SpanRing {
            spans: Mutex::new(VecDeque::with_capacity(capacity)),
            capacity,
            rejected: AtomicU64::new(0),
        }
    }

    // A span is plain data: a producer that panicked mid-push left the
    // queue whole, so a poisoned lock is still good to use.
    fn lock(&self) -> MutexGuard<'_, VecDeque<SpanRecord>> {
        self.spans.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Record a span.  Returns false (and counts the rejection) when full.
    pub(crate) fn push(&self, span: SpanRecord) -> bool {
        let mut spans = self.lock();
        if spans.len() >= self.capacity {
            self.rejected.fetch_add(1, Ordering::Relaxed);
            return false;
        }
        spans.push_back(span);
        true
    }

    /// Take the oldest recorded span, if any.
    pub fn pop(&self) -> Option<SpanRecord> {
        self.lock().pop_front()
    }

    /// Drain everything currently recorded into `out`, oldest first.
    pub(crate) fn drain_into(&self, out: &mut Vec<SpanRecord>) {
        out.extend(self.lock().drain(..));
    }

    /// Spans rejected because the ring was full.
    pub(crate) fn rejected(&self) -> u64 {
        self.rejected.load(Ordering::Relaxed)
    }

    /// Slots available before producers start rejecting.
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::{SpanId, TraceId};
    use crate::span::{SpanStatus, Stage};
    use std::sync::Arc;

    fn span(n: u64) -> SpanRecord {
        SpanRecord {
            trace_id: TraceId(n),
            span_id: SpanId(n),
            parent: SpanId::NONE,
            stage: Stage::Collect,
            start_ns: n,
            end_ns: n + 1,
            status: SpanStatus::Completed,
            note: String::new(),
        }
    }

    #[test]
    fn fifo_order_single_thread() {
        let ring = SpanRing::new(8);
        for i in 0..5 {
            assert!(ring.push(span(i)));
        }
        for i in 0..5 {
            assert_eq!(ring.pop().unwrap().trace_id, TraceId(i));
        }
        assert!(ring.pop().is_none());
    }

    #[test]
    fn full_ring_rejects_and_counts() {
        let ring = SpanRing::new(4);
        for i in 0..4 {
            assert!(ring.push(span(i)));
        }
        assert!(!ring.push(span(99)));
        assert_eq!(ring.rejected(), 1);
        // Draining frees capacity again.
        let mut out = Vec::new();
        ring.drain_into(&mut out);
        assert_eq!(out.len(), 4);
        assert!(ring.push(span(100)));
    }

    #[test]
    fn wraps_many_laps() {
        let ring = SpanRing::new(4);
        for i in 0..1_000u64 {
            assert!(ring.push(span(i)));
            assert_eq!(ring.pop().unwrap().trace_id, TraceId(i));
        }
    }

    #[test]
    fn concurrent_producers_lose_nothing_under_capacity() {
        let ring = Arc::new(SpanRing::new(1_024));
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let ring = ring.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..200u64 {
                    assert!(ring.push(span(t * 1_000 + i)));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let mut out = Vec::new();
        ring.drain_into(&mut out);
        assert_eq!(out.len(), 800);
        let mut ids: Vec<u64> = out.iter().map(|s| s.trace_id.0).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 800, "every span distinct");
    }

    #[test]
    fn concurrent_producers_and_drainer() {
        let ring = Arc::new(SpanRing::new(64));
        let stop = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let mut producers = Vec::new();
        for t in 0..3u64 {
            let ring = ring.clone();
            producers.push(std::thread::spawn(move || {
                let mut pushed = 0u64;
                for i in 0..500u64 {
                    if ring.push(span(t * 10_000 + i)) {
                        pushed += 1;
                    }
                }
                pushed
            }));
        }
        let drainer = {
            let ring = ring.clone();
            let stop = stop.clone();
            std::thread::spawn(move || {
                let mut got = 0u64;
                while stop.load(Ordering::Relaxed) == 0 {
                    while ring.pop().is_some() {
                        got += 1;
                    }
                }
                while ring.pop().is_some() {
                    got += 1;
                }
                got
            })
        };
        let pushed: u64 = producers.into_iter().map(|h| h.join().unwrap()).sum();
        stop.store(1, Ordering::Relaxed);
        let drained = drainer.join().unwrap();
        assert_eq!(pushed + ring.rejected(), 1_500);
        assert_eq!(drained, pushed, "everything accepted is drained exactly once");
    }
}
