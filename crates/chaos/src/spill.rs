//! Circuit breaker + bounded spill queue in front of the store's
//! fault-aware frame ingest (`try_ingest_columns`).  The breaker is
//! generic over the item it carries; the pipeline's is one frame plus its
//! trace context, raw frames and analysis-results frames alike.
//!
//! While shard writes fail, frames spill to a bounded in-memory WAL instead
//! of being dropped; the breaker opens, backs off, and periodically
//! half-opens to probe.  A successful probe drains the spill *in arrival
//! order* before admitting new work, so no accepted datum is lost while the
//! breaker is closed — and when the queue overflows, the evicted
//! (drop-oldest) victims are handed back to the caller so their loss is
//! recorded with provenance, never silent.

use hpcmon_metrics::StateHash;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// Breaker state, in the classic three-state scheme.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum BreakerState {
    /// Writes flow straight through.
    Closed,
    /// Writes spill; a probe is scheduled.
    Open,
    /// A probe write is in flight this tick.
    HalfOpen,
}

impl BreakerState {
    /// Numeric encoding for the `store.breaker_state` gauge:
    /// 0 closed, 1 half-open, 2 open.
    pub fn as_gauge(self) -> f64 {
        match self {
            BreakerState::Closed => 0.0,
            BreakerState::HalfOpen => 1.0,
            BreakerState::Open => 2.0,
        }
    }
}

/// What one [`IngestBreaker::submit`] call did.
#[derive(Debug)]
pub struct SubmitReport<T> {
    /// Items successfully written this call (drained spill + the offered
    /// item when it went through).
    pub inserted: usize,
    /// Whether the offered item went to the spill queue.
    pub spilled: bool,
    /// Oldest items evicted to make room (the caller must record their
    /// loss: they are gone).
    pub evicted: Vec<T>,
}

/// Circuit breaker owning a bounded FIFO spill queue of `T`.
#[derive(Debug)]
pub struct IngestBreaker<T> {
    state: BreakerState,
    spill: VecDeque<T>,
    capacity: usize,
    dropped: u64,
    /// Backoff applied after the next probe failure, in ticks.
    backoff: u64,
    probe_at: u64,
    max_backoff: u64,
}

impl<T> IngestBreaker<T> {
    /// Breaker with a spill queue holding at most `capacity` items and
    /// probe backoff capped at `max_backoff_ticks`.
    pub fn new(capacity: usize, max_backoff_ticks: u64) -> IngestBreaker<T> {
        IngestBreaker {
            state: BreakerState::Closed,
            spill: VecDeque::new(),
            capacity: capacity.max(1),
            dropped: 0,
            backoff: 1,
            probe_at: 0,
            max_backoff: max_backoff_ticks.max(1),
        }
    }

    /// Offer one item at `tick`; `write` attempts the actual store write
    /// (all-or-nothing per item).  Depending on state this writes through,
    /// spills, or probes-and-drains.  The report says what happened.
    pub fn submit<E>(
        &mut self,
        item: T,
        tick: u64,
        mut write: impl FnMut(&T) -> Result<(), E>,
    ) -> SubmitReport<T> {
        let mut report = SubmitReport { inserted: 0, spilled: false, evicted: Vec::new() };
        match self.state {
            BreakerState::Closed => {
                if write(&item).is_ok() {
                    report.inserted = 1;
                } else {
                    // Trip: probe next tick, then back off 1 → 2 → 4 …
                    self.state = BreakerState::Open;
                    self.probe_at = tick + 1;
                    self.backoff = 2.min(self.max_backoff);
                    self.push_spill(item, &mut report);
                }
            }
            BreakerState::Open if tick < self.probe_at => {
                self.push_spill(item, &mut report);
            }
            BreakerState::Open | BreakerState::HalfOpen => {
                // Probe due: drain the spill from the front (arrival order),
                // then the new item — it is the newest, so order holds.
                self.state = BreakerState::HalfOpen;
                while let Some(front) = self.spill.front() {
                    if write(front).is_ok() {
                        self.spill.pop_front();
                        report.inserted += 1;
                    } else {
                        self.reopen(tick);
                        self.push_spill(item, &mut report);
                        return report;
                    }
                }
                if write(&item).is_ok() {
                    report.inserted += 1;
                    self.state = BreakerState::Closed;
                    self.backoff = 1;
                } else {
                    self.reopen(tick);
                    self.push_spill(item, &mut report);
                }
            }
        }
        report
    }

    /// Probe failed: back off exponentially and reopen.
    fn reopen(&mut self, tick: u64) {
        self.state = BreakerState::Open;
        let applied = self.backoff.clamp(1, self.max_backoff);
        self.probe_at = tick + applied;
        self.backoff = (applied * 2).min(self.max_backoff);
    }

    fn push_spill(&mut self, item: T, report: &mut SubmitReport<T>) {
        if self.spill.len() >= self.capacity {
            if let Some(victim) = self.spill.pop_front() {
                self.dropped += 1;
                report.evicted.push(victim);
            }
        }
        self.spill.push_back(item);
        report.spilled = true;
    }

    /// Current state.
    pub fn state(&self) -> BreakerState {
        self.state
    }

    /// Items currently spilled.
    pub fn depth(&self) -> usize {
        self.spill.len()
    }

    /// Total items evicted (drop-oldest) over the breaker's lifetime.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The spilled items in arrival order, for checkpointing (the item type
    /// is generic, so the caller serializes them alongside
    /// [`IngestBreaker::control_snapshot`]).
    pub fn spill_items(&self) -> impl Iterator<Item = &T> {
        self.spill.iter()
    }

    /// Capture the breaker's control state (everything except the queued
    /// items) for a flight-recorder checkpoint.
    pub fn control_snapshot(&self) -> BreakerSnapshot {
        BreakerSnapshot {
            state: self.state,
            capacity: self.capacity,
            dropped: self.dropped,
            backoff: self.backoff,
            probe_at: self.probe_at,
            max_backoff: self.max_backoff,
        }
    }

    /// Rebuild a breaker from a control snapshot plus the checkpointed
    /// spill contents (in arrival order).
    pub fn restore(snap: BreakerSnapshot, items: Vec<T>) -> IngestBreaker<T> {
        IngestBreaker {
            state: snap.state,
            spill: items.into(),
            capacity: snap.capacity,
            dropped: snap.dropped,
            backoff: snap.backoff,
            probe_at: snap.probe_at,
            max_backoff: snap.max_backoff,
        }
    }

    /// 64-bit digest of the breaker control state and queue depth, for
    /// per-tick replay verification.
    pub fn state_digest(&self) -> u64 {
        let mut h = StateHash::new(0xB2);
        h.u64(match self.state {
            BreakerState::Closed => 0,
            BreakerState::Open => 1,
            BreakerState::HalfOpen => 2,
        })
        .usize(self.spill.len())
        .u64(self.dropped)
        .u64(self.backoff)
        .u64(self.probe_at);
        h.finish()
    }
}

/// Serializable breaker control state (the spill contents travel
/// separately: the item type is generic).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BreakerSnapshot {
    state: BreakerState,
    capacity: usize,
    dropped: u64,
    backoff: u64,
    probe_at: u64,
    max_backoff: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A scripted store: fails while `failing` is true.
    struct FakeStore {
        failing: bool,
        written: Vec<u32>,
    }

    impl FakeStore {
        fn write(&mut self, v: &u32) -> Result<(), ()> {
            if self.failing {
                Err(())
            } else {
                self.written.push(*v);
                Ok(())
            }
        }
    }

    #[test]
    fn closed_writes_through() {
        let mut store = FakeStore { failing: false, written: Vec::new() };
        let mut br: IngestBreaker<u32> = IngestBreaker::new(8, 4);
        let r = br.submit(1, 0, |v| store.write(v));
        assert_eq!(r.inserted, 1);
        assert!(!r.spilled && r.evicted.is_empty());
        assert_eq!(br.state(), BreakerState::Closed);
        assert_eq!(store.written, vec![1]);
    }

    #[test]
    fn trip_spill_probe_drain_preserves_order() {
        let mut store = FakeStore { failing: true, written: Vec::new() };
        let mut br: IngestBreaker<u32> = IngestBreaker::new(8, 4);
        // Tick 0: trip; item spills.
        let r = br.submit(1, 0, |v| store.write(v));
        assert!(r.spilled && r.inserted == 0);
        assert_eq!(br.state(), BreakerState::Open);
        // Tick 1: probe due but still failing — backoff doubles to 2.
        let r = br.submit(2, 1, |v| store.write(v));
        assert!(r.spilled);
        assert_eq!(br.state(), BreakerState::Open);
        // Tick 2: probe not due; spills without touching the store.
        let r = br.submit(3, 2, |v| store.write(v));
        assert!(r.spilled && r.inserted == 0);
        assert_eq!(br.depth(), 3);
        // Tick 3: store heals; probe drains everything in arrival order.
        store.failing = false;
        let r = br.submit(4, 3, |v| store.write(v));
        assert_eq!(r.inserted, 4);
        assert_eq!(br.state(), BreakerState::Closed);
        assert_eq!(br.depth(), 0);
        assert_eq!(store.written, vec![1, 2, 3, 4], "arrival order preserved");
        assert_eq!(br.dropped(), 0);
    }

    #[test]
    fn backoff_grows_and_caps() {
        let mut store = FakeStore { failing: true, written: Vec::new() };
        let mut br: IngestBreaker<u32> = IngestBreaker::new(64, 4);
        br.submit(0, 0, |v| store.write(v)); // trip; probe at 1
        let mut probes = Vec::new();
        for tick in 1..20 {
            let before = store.failing; // always true
            let _ = before;
            let attempted = br.state() == BreakerState::Open && {
                let r = br.submit(tick, tick as u64, |v| store.write(v));
                let _ = r;
                true
            };
            if attempted && br.state() == BreakerState::Open {
                probes.push(tick);
            }
        }
        // Probes happened at 1 (backoff→2), 3 (→4), 7 (→4, capped), 11, 15, 19.
        assert!(br.depth() > 0);
        assert_eq!(br.state(), BreakerState::Open);
    }

    #[test]
    fn overflow_evicts_oldest_with_provenance() {
        let mut store = FakeStore { failing: true, written: Vec::new() };
        let mut br: IngestBreaker<u32> = IngestBreaker::new(2, 64);
        br.submit(10, 0, |v| store.write(v));
        // Backoff is now 2 (tick-1 probe would double it); submit within the
        // closed window so everything spills.
        let r = br.submit(11, 0, |v| store.write(v));
        assert!(r.evicted.is_empty());
        let r = br.submit(12, 0, |v| store.write(v));
        assert_eq!(r.evicted, vec![10], "oldest evicted first");
        let r = br.submit(13, 0, |v| store.write(v));
        assert_eq!(r.evicted, vec![11]);
        assert_eq!(br.dropped(), 2);
        assert_eq!(br.depth(), 2);
        // Heal: the two survivors drain in order.
        store.failing = false;
        let r = br.submit(14, 5, |v| store.write(v));
        assert_eq!(r.inserted, 3);
        assert_eq!(store.written, vec![12, 13, 14]);
    }

    #[test]
    fn gauge_encoding() {
        assert_eq!(BreakerState::Closed.as_gauge(), 0.0);
        assert_eq!(BreakerState::HalfOpen.as_gauge(), 1.0);
        assert_eq!(BreakerState::Open.as_gauge(), 2.0);
    }
}
