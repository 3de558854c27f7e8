//! Per-node state: health, CPU, memory, services, GPUs.
//!
//! The LANL tests in the paper verify "that essential services and daemons
//! are functional, including filesystem mounts; and ensuring there is an
//! appropriate amount of free memory on compute nodes" — so nodes model
//! exactly those observables.  GPUs carry a *resistance drift* value that
//! grows with accumulated corrosive-gas dose, reproducing the ORNL
//! sulfur-corrosion failure mechanism.

use serde::{Deserialize, Serialize};

/// Names of the essential per-node services the health checks probe.
pub const SERVICES: [&str; 4] = ["slurmd", "munge", "lnet", "ntpd"];

/// Health of a node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum NodeHealth {
    /// Operating normally.
    Up,
    /// Alive but not making progress (accepts no work, burns idle power).
    Hung,
    /// Crashed / powered off.
    Down,
}

/// State of one GPU.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GpuState {
    /// Whether the GPU currently passes its health test.
    pub healthy: bool,
    /// Accumulated resistor drift from corrosive-gas exposure, in percent
    /// deviation from nominal.  Beyond ~10% the part starts failing
    /// (the ORNL crystalline-growth mechanism).
    pub resistance_drift_pct: f64,
}

impl GpuState {
    /// Drift level at which failure probability becomes significant.
    pub const DRIFT_FAILURE_THRESHOLD_PCT: f64 = 10.0;

    /// A factory-fresh GPU.
    pub(crate) fn new() -> GpuState {
        GpuState { healthy: true, resistance_drift_pct: 0.0 }
    }

    /// Per-tick failure probability given current drift.
    pub(crate) fn failure_probability(&self) -> f64 {
        if !self.healthy {
            return 0.0;
        }
        let excess = self.resistance_drift_pct - Self::DRIFT_FAILURE_THRESHOLD_PCT;
        if excess <= 0.0 {
            0.0
        } else {
            (excess * 2e-3).min(0.5)
        }
    }
}

impl Default for GpuState {
    fn default() -> Self {
        Self::new()
    }
}

/// Full state of one compute node.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NodeState {
    /// Health.
    pub health: NodeHealth,
    /// CPU utilization in `[0, 1]` for the current tick.
    pub cpu_util: f64,
    /// Installed memory in bytes.
    pub mem_total_bytes: f64,
    /// Memory in use, bytes.
    pub mem_used_bytes: f64,
    /// Extra memory consumed per tick by an injected leak (bytes).
    pub mem_leak_bytes_per_tick: f64,
    /// Memory accumulated by the leak so far (survives job boundaries —
    /// leaks live in system daemons, not in the job).
    pub leaked_bytes: f64,
    /// Per-service up/down flags, indexed like [`SERVICES`].
    pub services_ok: [bool; SERVICES.len()],
    /// Whether the parallel filesystem is mounted.
    pub fs_mounted: bool,
    /// Global ids of GPUs attached to this node (may be empty).
    pub gpus: Vec<u32>,
    /// Job currently occupying the node, if any.
    pub running_job: Option<u32>,
}

impl NodeState {
    /// A healthy idle node with the given memory and GPUs.
    pub(crate) fn new(mem_total_bytes: f64, gpus: Vec<u32>) -> NodeState {
        NodeState {
            health: NodeHealth::Up,
            cpu_util: 0.0,
            mem_total_bytes,
            mem_used_bytes: 0.05 * mem_total_bytes, // OS baseline
            mem_leak_bytes_per_tick: 0.0,
            leaked_bytes: 0.0,
            services_ok: [true; SERVICES.len()],
            fs_mounted: true,
            gpus,
            running_job: None,
        }
    }

    /// Free memory, bytes.
    pub fn free_mem_bytes(&self) -> f64 {
        (self.mem_total_bytes - self.mem_used_bytes).max(0.0)
    }

    /// Memory utilization in `[0, 1]`.
    pub fn mem_util(&self) -> f64 {
        (self.mem_used_bytes / self.mem_total_bytes).clamp(0.0, 1.0)
    }

    /// Whether the node passes a health check (ignores occupancy).
    pub fn passes_health_check(&self) -> bool {
        self.health == NodeHealth::Up
            && self.services_ok.iter().all(|&s| s)
            && self.fs_mounted
            && self.mem_util() < 0.97
    }

    /// Apply the per-tick memory leak; accumulated leak is capped so used
    /// memory cannot exceed installed memory.
    pub(crate) fn apply_leak(&mut self) {
        if self.mem_leak_bytes_per_tick > 0.0 {
            self.leaked_bytes =
                (self.leaked_bytes + self.mem_leak_bytes_per_tick).min(0.95 * self.mem_total_bytes);
            self.mem_used_bytes =
                (self.mem_used_bytes + self.mem_leak_bytes_per_tick).min(self.mem_total_bytes);
        }
    }

    /// Set memory use from the current job phase: OS baseline, job
    /// memory, and whatever the leak has eaten.  `job_fraction` is the
    /// phase's fraction of node memory.
    pub(crate) fn set_job_memory(&mut self, job_fraction: f64) {
        let base = 0.05 * self.mem_total_bytes;
        let job = job_fraction.clamp(0.0, 1.0) * 0.9 * self.mem_total_bytes;
        self.mem_used_bytes = (base + job + self.leaked_bytes).min(self.mem_total_bytes);
    }

    /// Reset transient per-job state when the node becomes idle.  Leaked
    /// memory persists — leaks in system daemons survive job boundaries,
    /// which is what makes them worth monitoring.
    pub(crate) fn release(&mut self) {
        self.running_job = None;
        self.cpu_util = 0.0;
        self.set_job_memory(0.0);
    }

    /// Mark crashed: all services gone, memory state lost.
    pub(crate) fn crash(&mut self) {
        self.health = NodeHealth::Down;
        self.services_ok = [false; SERVICES.len()];
        self.fs_mounted = false;
        self.cpu_util = 0.0;
        self.running_job = None;
    }

    /// Recover to a clean healthy state (reboot clears leaks too).
    pub(crate) fn recover(&mut self) {
        self.health = NodeHealth::Up;
        self.services_ok = [true; SERVICES.len()];
        self.fs_mounted = true;
        self.cpu_util = 0.0;
        self.mem_used_bytes = 0.05 * self.mem_total_bytes;
        self.mem_leak_bytes_per_tick = 0.0;
        self.leaked_bytes = 0.0;
        self.running_job = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const GIB: f64 = 1024.0 * 1024.0 * 1024.0;

    fn node() -> NodeState {
        NodeState::new(64.0 * GIB, vec![0])
    }

    #[test]
    fn fresh_node_is_healthy() {
        let n = node();
        assert!(n.passes_health_check());
        assert!(n.free_mem_bytes() > 0.9 * 64.0 * GIB);
    }

    #[test]
    fn occupied_node_is_healthy() {
        let mut n = node();
        n.running_job = Some(3);
        assert!(n.passes_health_check());
    }

    #[test]
    fn dead_service_fails_health_check() {
        let mut n = node();
        n.services_ok[SERVICES.iter().position(|&s| s == "munge").unwrap()] = false;
        assert!(!n.passes_health_check());
    }

    #[test]
    fn unmounted_fs_fails_health_check() {
        let mut n = node();
        n.fs_mounted = false;
        assert!(!n.passes_health_check());
    }

    #[test]
    fn memory_exhaustion_fails_health_check() {
        let mut n = node();
        n.mem_used_bytes = 0.99 * n.mem_total_bytes;
        assert!(!n.passes_health_check());
        assert!(n.mem_util() > 0.97);
    }

    #[test]
    fn leak_accumulates_and_caps() {
        let mut n = node();
        n.mem_leak_bytes_per_tick = 40.0 * GIB;
        let before = n.mem_used_bytes;
        n.apply_leak();
        assert!(n.mem_used_bytes > before);
        assert!(n.leaked_bytes > 0.0);
        n.apply_leak();
        n.apply_leak();
        assert_eq!(n.mem_used_bytes, n.mem_total_bytes, "capped at total");
        assert!(n.leaked_bytes <= 0.95 * n.mem_total_bytes);
    }

    #[test]
    fn job_memory_includes_leak() {
        let mut n = node();
        n.leaked_bytes = 10.0 * GIB;
        n.set_job_memory(0.5);
        let expected = 0.05 * 64.0 * GIB + 0.5 * 0.9 * 64.0 * GIB + 10.0 * GIB;
        assert!((n.mem_used_bytes - expected).abs() < 1.0);
        // Releasing keeps the leak in the accounting.
        n.release();
        assert!((n.mem_used_bytes - (0.05 * 64.0 * GIB + 10.0 * GIB)).abs() < 1.0);
    }

    #[test]
    fn recover_clears_leak() {
        let mut n = node();
        n.mem_leak_bytes_per_tick = 1.0 * GIB;
        n.apply_leak();
        n.recover();
        assert_eq!(n.leaked_bytes, 0.0);
        assert_eq!(n.mem_leak_bytes_per_tick, 0.0);
    }

    #[test]
    fn crash_and_recover() {
        let mut n = node();
        n.running_job = Some(1);
        n.crash();
        assert_eq!(n.health, NodeHealth::Down);
        assert!(n.running_job.is_none());
        n.recover();
        assert_eq!(n.health, NodeHealth::Up);
        assert!(n.fs_mounted);
    }

    #[test]
    fn release_returns_memory_but_keeps_leak_config() {
        let mut n = node();
        n.running_job = Some(1);
        n.mem_used_bytes = 0.5 * n.mem_total_bytes;
        n.mem_leak_bytes_per_tick = 1.0;
        n.release();
        assert!(n.running_job.is_none());
        assert!((n.mem_used_bytes - 0.05 * n.mem_total_bytes).abs() < 1.0);
        assert_eq!(n.mem_leak_bytes_per_tick, 1.0);
    }

    #[test]
    fn gpu_failure_probability_grows_past_threshold() {
        let mut g = GpuState::new();
        assert_eq!(g.failure_probability(), 0.0);
        g.resistance_drift_pct = 5.0;
        assert_eq!(g.failure_probability(), 0.0);
        g.resistance_drift_pct = 15.0;
        let p1 = g.failure_probability();
        assert!(p1 > 0.0);
        g.resistance_drift_pct = 30.0;
        assert!(g.failure_probability() > p1);
        g.healthy = false;
        assert_eq!(g.failure_probability(), 0.0, "already failed");
    }

    #[test]
    fn hung_node_fails_health_check() {
        let mut n = node();
        n.health = NodeHealth::Hung;
        assert!(!n.passes_health_check());
    }
}
