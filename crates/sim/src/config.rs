//! Top-level simulator configuration.

use crate::burst_buffer::BbConfig;
use crate::failure::FailureRates;
use crate::fs::FsConfig;
use crate::power::PowerModel;
use crate::routing::RoutePolicy;
use crate::sched::SchedulerConfig;
use crate::topology::TopologySpec;
use serde::{Deserialize, Serialize};

/// Per-node clock behaviour.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ClockConfig {
    /// When false, node clocks drift (the paper's association hazard).
    pub synchronized: bool,
    /// Maximum initial offset, ms (drifting mode).
    pub max_offset_ms: u64,
    /// Maximum rate error, ppm (drifting mode).
    pub max_rate_ppm: f64,
}

impl ClockConfig {
    /// NTP-disciplined clocks.
    pub(crate) fn synced() -> ClockConfig {
        ClockConfig { synchronized: true, max_offset_ms: 0, max_rate_ppm: 0.0 }
    }
}

/// Everything needed to build a [`crate::SimEngine`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimConfig {
    /// Interconnect shape.
    pub topology: TopologySpec,
    /// Per-link capacity, bytes/second.
    pub link_capacity_bytes_per_sec: f64,
    /// Routing policy.
    pub route_policy: RoutePolicy,
    /// Adaptive-routing detour threshold (load fraction).
    pub congestion_threshold: f64,
    /// Node memory, bytes.
    pub node_mem_bytes: f64,
    /// GPUs per node (0 for CPU-only partitions).
    pub gpus_per_node: u32,
    /// Filesystem shape.
    pub fs: FsConfig,
    /// Optional burst-buffer tier (None = writes go straight to the PFS).
    pub burst_buffer: Option<BbConfig>,
    /// Power model.
    pub power: PowerModel,
    /// Scheduler behaviour.
    pub scheduler: SchedulerConfig,
    /// Background failure rates.
    pub failure_rates: FailureRates,
    /// Clock behaviour.
    pub clock: ClockConfig,
    /// Simulation tick, ms (60_000 = the NCSA one-minute cadence).
    pub tick_ms: u64,
    /// GPU resistor drift per ppb·s of SO₂ exceedance (ORNL corrosion).
    pub gpu_corrosion_pct_per_ppb_s: f64,
    /// Master RNG seed; equal seeds reproduce runs exactly.
    pub seed: u64,
}

impl SimConfig {
    /// A small machine for unit and integration tests: 128 nodes on a
    /// 4×4×4 torus, reliable, synchronized, one-minute ticks.
    pub fn small() -> SimConfig {
        SimConfig {
            topology: TopologySpec::Torus3D { dims: [4, 4, 4], nodes_per_router: 2 },
            link_capacity_bytes_per_sec: 10.0e9,
            route_policy: RoutePolicy::Minimal,
            congestion_threshold: 0.8,
            node_mem_bytes: 64.0 * (1u64 << 30) as f64,
            gpus_per_node: 1,
            fs: FsConfig::scratch(),
            burst_buffer: None,
            power: PowerModel::xc40(),
            scheduler: SchedulerConfig::default(),
            failure_rates: FailureRates::none(),
            clock: ClockConfig::synced(),
            tick_ms: 60_000,
            gpu_corrosion_pct_per_ppb_s: 1.0e-4,
            seed: 42,
        }
    }

    /// Validate invariants; call before building an engine.
    pub(crate) fn validate(&self) -> Result<(), String> {
        if self.tick_ms == 0 {
            return Err("tick_ms must be positive".into());
        }
        if self.link_capacity_bytes_per_sec <= 0.0 {
            return Err("link capacity must be positive".into());
        }
        if self.node_mem_bytes <= 0.0 {
            return Err("node memory must be positive".into());
        }
        if !(0.0..=1.0).contains(&self.congestion_threshold) {
            return Err("congestion threshold must be in [0,1]".into());
        }
        if self.fs.num_osts == 0 {
            return Err("filesystem needs at least one OST".into());
        }
        if let Some(bb) = &self.burst_buffer {
            if bb.num_nodes == 0 || bb.capacity_bytes <= 0.0 {
                return Err("burst buffer needs nodes and capacity".into());
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_config_is_valid() {
        assert!(SimConfig::small().validate().is_ok());
    }

    #[test]
    fn invalid_configs_rejected() {
        let mut c = SimConfig::small();
        c.tick_ms = 0;
        assert!(c.validate().is_err());

        let mut c = SimConfig::small();
        c.link_capacity_bytes_per_sec = 0.0;
        assert!(c.validate().is_err());

        let mut c = SimConfig::small();
        c.node_mem_bytes = -1.0;
        assert!(c.validate().is_err());

        let mut c = SimConfig::small();
        c.congestion_threshold = 1.5;
        assert!(c.validate().is_err());

        let mut c = SimConfig::small();
        c.fs.num_osts = 0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn serde_round_trip() {
        let c = SimConfig::small();
        let s = serde_json::to_string(&c).unwrap();
        let back: SimConfig = serde_json::from_str(&s).unwrap();
        assert_eq!(c, back);
    }

    #[test]
    fn synced_clock_config() {
        assert!(ClockConfig::synced().synchronized);
    }
}
