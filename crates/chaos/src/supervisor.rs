//! Per-collector supervision: quarantine with exponential-backoff re-probe.
//!
//! The tick loop asks the supervisor whether each collector slot should run
//! this tick.  A slot that fails (panic, budget overrun) is quarantined:
//! skipped for `backoff` ticks, then re-probed once.  A failed probe doubles
//! the backoff (1 → 2 → 4 … capped); a successful probe clears the slot
//! entirely.  Quarantined slots are handed to the deadman detector by the
//! caller, so the coverage gap is *reported*, never silent.

use hpcmon_metrics::StateHash;
use serde::{Deserialize, Serialize};

/// Supervisor policy knobs.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SupervisorConfig {
    /// A chaos-injected slowdown factor at or beyond this budget is treated
    /// as a deadline overrun: the collector's segment is discarded and the
    /// slot quarantined.  Factors below it run slow but succeed.
    pub slow_budget_factor: f64,
    /// Backoff cap in ticks: re-probe intervals grow 1 → 2 → 4 … up to this.
    pub max_backoff_ticks: u64,
}

impl Default for SupervisorConfig {
    fn default() -> SupervisorConfig {
        SupervisorConfig { slow_budget_factor: 8.0, max_backoff_ticks: 16 }
    }
}

#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
struct SlotState {
    quarantined: bool,
    /// Next tick at which a quarantined slot is re-probed.
    probe_at: u64,
    /// Backoff applied on the *next* failure, in ticks.
    backoff: u64,
    consecutive_failures: u64,
}

/// Tracks per-collector health; slots are the collector registration
/// indices, so the mapping is stable for the life of the pipeline.
#[derive(Debug)]
pub struct CollectorSupervisor {
    config: SupervisorConfig,
    slots: Vec<SlotState>,
}

impl CollectorSupervisor {
    /// Supervisor over `n_slots` collectors with default policy.
    pub fn new(n_slots: usize) -> CollectorSupervisor {
        CollectorSupervisor::with_config(n_slots, SupervisorConfig::default())
    }

    /// Supervisor with explicit policy.
    pub(crate) fn with_config(n_slots: usize, config: SupervisorConfig) -> CollectorSupervisor {
        CollectorSupervisor { config, slots: vec![SlotState::default(); n_slots] }
    }

    /// Policy in force.
    pub fn config(&self) -> SupervisorConfig {
        self.config
    }

    /// Whether slot `slot` should run at `tick`.  False while quarantined
    /// and the re-probe is not yet due.
    pub fn should_run(&self, slot: usize, tick: u64) -> bool {
        let s = &self.slots[slot];
        !s.quarantined || tick >= s.probe_at
    }

    /// Whether a run at `tick` would be a quarantine re-probe.
    pub fn is_probe(&self, slot: usize, tick: u64) -> bool {
        let s = &self.slots[slot];
        s.quarantined && tick >= s.probe_at
    }

    /// Record a successful run: clears quarantine and resets backoff.
    pub fn record_success(&mut self, slot: usize) {
        self.slots[slot] = SlotState::default();
    }

    /// Record a failed run at `tick` (panic, hang, budget overrun).
    /// Quarantines the slot and schedules the next probe; returns the
    /// backoff applied, in ticks.
    pub fn record_failure(&mut self, slot: usize, tick: u64) -> u64 {
        let cap = self.config.max_backoff_ticks.max(1);
        let s = &mut self.slots[slot];
        let applied = s.backoff.clamp(1, cap);
        s.quarantined = true;
        s.probe_at = tick + applied;
        s.backoff = (applied * 2).min(cap);
        s.consecutive_failures += 1;
        applied
    }

    /// Drop a slot whose collector was uninstalled; later slots shift
    /// down, matching the caller's collector vector.
    pub fn remove_slot(&mut self, slot: usize) {
        if slot < self.slots.len() {
            self.slots.remove(slot);
        }
    }

    /// Number of slots currently quarantined.
    pub fn quarantined_count(&self) -> usize {
        self.slots.iter().filter(|s| s.quarantined).count()
    }

    /// Capture the per-slot health state for a flight-recorder checkpoint.
    pub fn snapshot(&self) -> SupervisorSnapshot {
        SupervisorSnapshot { config: self.config, slots: self.slots.clone() }
    }

    /// Rebuild a supervisor from a checkpoint.
    pub fn restore(snap: SupervisorSnapshot) -> CollectorSupervisor {
        CollectorSupervisor { config: snap.config, slots: snap.slots }
    }

    /// 64-bit digest of the supervision state, for per-tick replay
    /// verification.
    pub fn state_digest(&self) -> u64 {
        let mut h = StateHash::new(0x5D);
        h.usize(self.slots.len());
        for s in &self.slots {
            h.bool(s.quarantined).u64(s.probe_at).u64(s.backoff).u64(s.consecutive_failures);
        }
        h.finish()
    }
}

/// Complete serializable supervision state at a tick boundary.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SupervisorSnapshot {
    config: SupervisorConfig,
    slots: Vec<SlotState>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_doubles_to_cap_and_probe_success_clears() {
        let mut sup = CollectorSupervisor::with_config(
            2,
            SupervisorConfig { slow_budget_factor: 8.0, max_backoff_ticks: 4 },
        );
        assert!(sup.should_run(0, 0));
        // Failure at tick 0: backoff 1 → probe at tick 1.
        assert_eq!(sup.record_failure(0, 0), 1);
        assert!(!sup.should_run(0, 0) || sup.is_probe(0, 0));
        assert!(sup.should_run(0, 1) && sup.is_probe(0, 1));
        // Probe fails: backoff 2 → probe at tick 3.
        assert_eq!(sup.record_failure(0, 1), 2);
        assert!(!sup.should_run(0, 2));
        assert!(sup.is_probe(0, 3));
        // Fails again: backoff 4 (capped) → probe at tick 7.
        assert_eq!(sup.record_failure(0, 3), 4);
        assert_eq!(sup.record_failure(0, 7), 4, "capped");
        assert_eq!(sup.slots[0].consecutive_failures, 4);
        assert_eq!(sup.quarantined_count(), 1);
        assert!(sup.slots[0].quarantined);
        // Probe at tick 11 succeeds: fully cleared.
        assert!(sup.is_probe(0, 11));
        sup.record_success(0);
        assert!(sup.should_run(0, 12) && !sup.is_probe(0, 12));
        assert_eq!(sup.quarantined_count(), 0);
        assert_eq!(sup.slots[0].consecutive_failures, 0);
        // Slot 1 was never disturbed.
        assert!(sup.should_run(1, 0));
    }

    #[test]
    fn untouched_slots_always_run() {
        let sup = CollectorSupervisor::new(3);
        for tick in 0..10 {
            for slot in 0..3 {
                assert!(sup.should_run(slot, tick));
                assert!(!sup.is_probe(slot, tick));
            }
        }
        assert_eq!(sup.quarantined_count(), 0);
    }
}
