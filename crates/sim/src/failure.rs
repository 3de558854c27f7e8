//! Failure injection: scripted faults and stochastic failure rates.
//!
//! Every monitoring story in the paper starts with something breaking —
//! a slow OST, a hung node, a corroding GPU, an HSN link flapping.  The
//! [`FaultPlan`] lets experiments script those events at exact times (so a
//! detector's output can be compared against ground truth), while
//! [`FailureRates`] adds a stochastic background of component failures.

use hpcmon_metrics::Ts;
use serde::{Deserialize, Serialize};

/// A specific thing that goes wrong (or is repaired).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum FaultKind {
    /// Node crashes (down, services dead, job killed).
    NodeCrash {
        /// Target node.
        node: u32,
    },
    /// Node hangs (alive at idle power, makes no progress).
    NodeHang {
        /// Target node.
        node: u32,
    },
    /// Node reboots back to health.
    NodeRecover {
        /// Target node.
        node: u32,
    },
    /// HSN link goes down.
    LinkDown {
        /// Target link.
        link: u32,
    },
    /// HSN link restored.
    LinkUp {
        /// Target link.
        link: u32,
    },
    /// HSN link starts throwing bit errors at `error_multiplier` times the
    /// base rate (a marginal cable — the ALCF BER-trend target).
    LinkDegrade {
        /// Target link.
        link: u32,
        /// Multiplier on the base bit-error rate.
        error_multiplier: f64,
    },
    /// OST becomes slow by the given factor (≥ 1).
    OstDegrade {
        /// Target OST.
        ost: u32,
        /// Latency/service multiplier.
        factor: f64,
    },
    /// OST restored to full speed.
    OstRestore {
        /// Target OST.
        ost: u32,
    },
    /// Metadata server becomes slow by the given factor (≥ 1).
    MdsDegrade {
        /// Latency multiplier.
        factor: f64,
    },
    /// Metadata server restored.
    MdsRestore,
    /// A GPU fails its health test permanently.
    GpuFail {
        /// Global GPU id.
        gpu: u32,
    },
    /// A service daemon dies on a node.
    ServiceDown {
        /// Target node.
        node: u32,
        /// Index into [`crate::node::SERVICES`].
        service: u8,
    },
    /// A service daemon is restarted.
    ServiceRestore {
        /// Target node.
        node: u32,
        /// Index into [`crate::node::SERVICES`].
        service: u8,
    },
    /// A memory leak starts on a node.
    MemoryLeak {
        /// Target node.
        node: u32,
        /// Leak rate in bytes per tick.
        bytes_per_tick: f64,
    },
    /// Corrosive gas enters the machine room.
    GasSpike {
        /// Added SO₂ concentration, ppb.
        added_ppb: f64,
        /// Spike duration, ms.
        duration_ms: u64,
    },
    /// Filesystem unmounts on a node (mount check failure).
    FsUnmount {
        /// Target node.
        node: u32,
    },
    /// A burst-buffer node loses its configuration (silently absorbs
    /// nothing — the LANL configuration-check target).
    BbMisconfigure {
        /// Target buffer node.
        bb: u32,
    },
    /// A burst-buffer node's configuration is repaired.
    BbRepair {
        /// Target buffer node.
        bb: u32,
    },
}

/// A fault scheduled at an absolute simulation time.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Fault {
    /// When it fires.
    pub at: Ts,
    /// What happens.
    pub kind: FaultKind,
}

/// A time-ordered script of faults.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    faults: Vec<Fault>,
    cursor: usize,
}

impl FaultPlan {
    /// Empty plan.
    pub(crate) fn new() -> FaultPlan {
        FaultPlan::default()
    }

    /// Add a fault (keeps the plan sorted relative to unfired faults).
    pub(crate) fn schedule(&mut self, at: Ts, kind: FaultKind) {
        let pos = self.faults[self.cursor..]
            .iter()
            .position(|f| f.at > at)
            .map(|p| self.cursor + p)
            .unwrap_or(self.faults.len());
        self.faults.insert(pos.max(self.cursor), Fault { at, kind });
    }

    /// Pop every fault due at or before `now`, in time order.
    pub(crate) fn pop_due(&mut self, now: Ts) -> Vec<Fault> {
        let start = self.cursor;
        while self.cursor < self.faults.len() && self.faults[self.cursor].at <= now {
            self.cursor += 1;
        }
        self.faults[start..self.cursor].to_vec()
    }

    /// Fold the plan position into a flight-recorder digest (fire times
    /// plus cursor; the kinds are covered by their downstream effects).
    pub(crate) fn digest_into(&self, h: &mut hpcmon_metrics::StateHash) {
        h.usize(self.faults.len()).usize(self.cursor);
        for f in &self.faults {
            h.u64(f.at.0);
        }
    }
}

/// Background stochastic failure rates, per component per hour of
/// simulated time.  Zero disables a process.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FailureRates {
    /// Node crash rate (per node-hour).
    pub node_crash_per_hour: f64,
    /// Node hang rate (per node-hour).
    pub node_hang_per_hour: f64,
    /// Link failure rate (per link-hour).
    pub link_down_per_hour: f64,
    /// Service death rate (per node-hour).
    pub service_down_per_hour: f64,
    /// Base bit-error rate per link: expected errors per GB transferred.
    pub link_errors_per_gb: f64,
}

impl FailureRates {
    /// A reliable machine: nothing fails stochastically.
    pub(crate) fn none() -> FailureRates {
        FailureRates {
            node_crash_per_hour: 0.0,
            node_hang_per_hour: 0.0,
            link_down_per_hour: 0.0,
            service_down_per_hour: 0.0,
            link_errors_per_gb: 0.0,
        }
    }

    /// Probability of one event in a tick of `dt_ms`, given a per-hour rate.
    pub(crate) fn per_tick_probability(rate_per_hour: f64, dt_ms: u64) -> f64 {
        (rate_per_hour * dt_ms as f64 / 3_600_000.0).min(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_fires_in_order() {
        let mut plan = FaultPlan::new();
        plan.schedule(Ts::from_mins(5), FaultKind::NodeCrash { node: 1 });
        plan.schedule(Ts::from_mins(2), FaultKind::LinkDown { link: 0 });
        plan.schedule(Ts::from_mins(2), FaultKind::GpuFail { gpu: 3 });
        assert_eq!(plan.faults.len(), 3);
        let due = plan.pop_due(Ts::from_mins(1));
        assert!(due.is_empty());
        let due = plan.pop_due(Ts::from_mins(2));
        assert_eq!(due.len(), 2);
        assert_eq!(plan.cursor, 2);
        let due = plan.pop_due(Ts::from_mins(60));
        assert_eq!(due.len(), 1);
        assert!(matches!(due[0].kind, FaultKind::NodeCrash { node: 1 }));
        assert_eq!(plan.cursor, 3);
        assert!(plan.pop_due(Ts::from_mins(61)).is_empty());
    }

    #[test]
    fn schedule_into_existing_plan() {
        let mut plan = FaultPlan::new();
        assert!(plan.faults.is_empty());
        plan.schedule(Ts::from_mins(10), FaultKind::MdsRestore);
        plan.schedule(Ts::from_mins(5), FaultKind::MdsDegrade { factor: 4.0 });
        let due = plan.pop_due(Ts::from_mins(7));
        assert_eq!(due.len(), 1);
        assert!(matches!(due[0].kind, FaultKind::MdsDegrade { .. }));
        // Scheduling after partial consumption still works.
        plan.schedule(Ts::from_mins(8), FaultKind::GasSpike { added_ppb: 50.0, duration_ms: 1 });
        let due = plan.pop_due(Ts::from_mins(20));
        assert_eq!(due.len(), 2);
        assert!(matches!(due[0].kind, FaultKind::GasSpike { .. }));
        assert!(matches!(due[1].kind, FaultKind::MdsRestore));
    }

    #[test]
    fn per_tick_probability_scales() {
        let p = FailureRates::per_tick_probability(1.0, 3_600_000);
        assert!((p - 1.0).abs() < 1e-12);
        let p = FailureRates::per_tick_probability(1.0, 60_000);
        assert!((p - 1.0 / 60.0).abs() < 1e-12);
        // Clamped at 1.
        assert_eq!(FailureRates::per_tick_probability(1e9, 3_600_000), 1.0);
    }

    #[test]
    fn none_rates_are_zero() {
        let r = FailureRates::none();
        assert_eq!(r.node_crash_per_hour, 0.0);
        assert_eq!(r.link_errors_per_gb, 0.0);
    }

    #[test]
    fn serde_round_trip() {
        let mut plan = FaultPlan::new();
        plan.schedule(Ts(1), FaultKind::MemoryLeak { node: 2, bytes_per_tick: 1e6 });
        let s = serde_json::to_string(&plan).unwrap();
        let back: FaultPlan = serde_json::from_str(&s).unwrap();
        assert_eq!(plan, back);
    }
}
