//! Fault kinds for the monitoring plane and the tick-keyed schedule that
//! fires them.
//!
//! This mirrors `hpcmon_sim::failure::{FaultKind, FaultPlan}` — but where
//! the simulator breaks the *machine under observation*, these faults break
//! the *observers*: collectors wedge, broker topics stall, envelopes arrive
//! bit-flipped, store shards return EIO, WAN links and disks fail.  Faults are
//! keyed by monitoring tick number (not simulated time) because that is the
//! unit the supervision machinery reasons in.

use serde::{Deserialize, Serialize};

/// A specific way the monitoring plane breaks.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ChaosFault {
    /// The named collector panics once when next invoked.
    CollectorPanic {
        /// Collector name (as returned by `Collector::name`).
        collector: String,
    },
    /// The named collector hangs — exceeds its tick budget and produces
    /// nothing — for the given number of ticks.
    CollectorHang {
        /// Collector name.
        collector: String,
        /// How many ticks the hang lasts.
        ticks: u64,
    },
    /// The named collector runs `factor`× slower than normal for the given
    /// number of ticks.  A factor beyond the supervisor's budget is treated
    /// as a deadline overrun (the frame segment is discarded).
    CollectorSlow {
        /// Collector name.
        collector: String,
        /// Slowdown multiplier (≥ 1).
        factor: f64,
        /// How many ticks the slowdown lasts.
        ticks: u64,
    },
    /// Publishes on the given topic stall (are buffered, not delivered)
    /// for the given number of ticks, then drain in order.
    BrokerTopicStall {
        /// Exact topic name.
        topic: String,
        /// How many ticks the stall lasts.
        ticks: u64,
    },
    /// Each envelope is independently corrupted (one bit flipped in its
    /// serialized form) with probability `rate` for the given number of
    /// ticks.  Corruption decisions are keyed on the broker sequence
    /// number, so they are identical across runs.
    EnvelopeCorrupt {
        /// Per-envelope corruption probability in `[0, 1]`.
        rate: f64,
        /// How many ticks the corruption window lasts.
        ticks: u64,
    },
    /// Writes to the given store shard fail (simulated disk-full / EIO)
    /// for the given number of ticks.
    StoreWriteFail {
        /// Target shard index.
        shard: usize,
        /// How many ticks writes fail.
        ticks: u64,
    },
    /// The WAN link to the named federation member site partitions: no
    /// rollup batches are delivered and scatter queries to the site report
    /// `Partitioned` until the window expires.  Interpreted by
    /// `hpcmon-federation`; a single-site `MonitoringSystem` ignores it.
    WanPartition {
        /// Member site name.
        site: String,
        /// How many ticks the partition lasts.
        ticks: u64,
    },
    /// The WAN link to the named site runs with extra one-way latency for
    /// the window — a slow site a deadline-budgeted scatter may shed.
    WanDelay {
        /// Member site name.
        site: String,
        /// Added one-way latency, in ticks.
        added_ticks: u64,
        /// How many ticks the slowdown lasts.
        ticks: u64,
    },
    /// The WAN link to the named site is squeezed to the given bandwidth
    /// for the window; rollup batches queue behind the cap.
    WanBandwidth {
        /// Member site name.
        site: String,
        /// Effective link capacity, bytes per tick.
        bytes_per_tick: u64,
        /// How many ticks the squeeze lasts.
        ticks: u64,
    },
    /// Appends to the durability plane's storage medium fail (EIO) for the
    /// window.  Refused WAL records queue in the plane's backlog and retry,
    /// so the window is lossless unless the process crashes inside it.
    DiskWriteFail {
        /// How many ticks writes fail.
        ticks: u64,
    },
    /// Arms the storage medium so the *next crash* keeps a seeded partial
    /// prefix of the unsynced tail — a record cut mid-frame that recovery
    /// must truncate at the last valid CRC.
    DiskTornWrite,
    /// Flips one seeded durable byte on the storage medium — silent bit rot
    /// the scrub stage or recovery must diagnose, count, and fail closed
    /// on, never panic.
    DiskCorruptByte,
    /// The storage medium reports ENOSPC for the window; appends and
    /// checkpoints are refused until it ends.
    DiskFull {
        /// How many ticks the medium stays full.
        ticks: u64,
    },
}

/// A fault scheduled at an absolute monitoring tick.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScheduledFault {
    /// Tick number at which the fault activates (compared against the
    /// tick passed to `ChaosEngine::begin_tick`; a monitoring system's
    /// first tick is 1).
    pub at_tick: u64,
    /// What breaks.
    pub fault: ChaosFault,
}

/// A tick-ordered script of monitoring-plane faults.
///
/// Same cursor discipline as `hpcmon_sim::FaultPlan`: firing is
/// monotonic, and scheduling after partial consumption keeps unfired
/// faults sorted.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ChaosPlan {
    faults: Vec<ScheduledFault>,
    cursor: usize,
}

impl ChaosPlan {
    /// Empty plan.
    pub fn new() -> ChaosPlan {
        ChaosPlan::default()
    }

    /// Build from an unordered list.
    pub fn from_faults(mut faults: Vec<ScheduledFault>) -> ChaosPlan {
        faults.sort_by_key(|f| f.at_tick);
        ChaosPlan { faults, cursor: 0 }
    }

    /// Add a fault (keeps the plan sorted relative to unfired faults).
    pub fn schedule(&mut self, at_tick: u64, fault: ChaosFault) {
        let pos = self.faults[self.cursor..]
            .iter()
            .position(|f| f.at_tick > at_tick)
            .map(|p| self.cursor + p)
            .unwrap_or(self.faults.len());
        self.faults.insert(pos.max(self.cursor), ScheduledFault { at_tick, fault });
    }

    /// Pop every fault due at or before `tick`, in schedule order.
    pub(crate) fn pop_due(&mut self, tick: u64) -> Vec<ScheduledFault> {
        let start = self.cursor;
        while self.cursor < self.faults.len() && self.faults[self.cursor].at_tick <= tick {
            self.cursor += 1;
        }
        self.faults[start..self.cursor].to_vec()
    }

    /// Faults not yet fired.
    pub(crate) fn remaining(&self) -> usize {
        self.faults.len() - self.cursor
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_fires_in_tick_order() {
        let mut plan = ChaosPlan::from_faults(vec![
            ScheduledFault { at_tick: 5, fault: ChaosFault::DiskTornWrite },
            ScheduledFault {
                at_tick: 2,
                fault: ChaosFault::CollectorPanic { collector: "node".into() },
            },
        ]);
        assert!(plan.pop_due(1).is_empty());
        let due = plan.pop_due(2);
        assert_eq!(due.len(), 1);
        assert!(matches!(due[0].fault, ChaosFault::CollectorPanic { .. }));
        assert_eq!(plan.remaining(), 1);
        assert_eq!(plan.pop_due(100).len(), 1);
        assert_eq!(plan.remaining(), 0);
    }

    #[test]
    fn schedule_after_partial_consumption() {
        let mut plan = ChaosPlan::new();
        assert!(plan.faults.is_empty());
        plan.schedule(10, ChaosFault::DiskTornWrite);
        plan.schedule(3, ChaosFault::StoreWriteFail { shard: 0, ticks: 2 });
        assert_eq!(plan.pop_due(5).len(), 1);
        plan.schedule(7, ChaosFault::EnvelopeCorrupt { rate: 0.5, ticks: 1 });
        let due = plan.pop_due(20);
        assert_eq!(due.len(), 2);
        assert!(matches!(due[0].fault, ChaosFault::EnvelopeCorrupt { .. }));
        assert!(matches!(due[1].fault, ChaosFault::DiskTornWrite));
        assert_eq!(plan.faults.len(), 3);
    }

    #[test]
    fn serde_round_trip() {
        let plan = ChaosPlan::from_faults(vec![ScheduledFault {
            at_tick: 4,
            fault: ChaosFault::CollectorSlow { collector: "power".into(), factor: 3.0, ticks: 2 },
        }]);
        let s = serde_json::to_string(&plan).unwrap();
        let back: ChaosPlan = serde_json::from_str(&s).unwrap();
        assert_eq!(plan, back);
    }
}
