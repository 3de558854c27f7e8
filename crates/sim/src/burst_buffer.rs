//! Burst-buffer tier: fast intermediate storage for checkpoint bursts.
//!
//! LANL's Trinity (paper §II-1) runs custom checks "including but not
//! limited to: configurations (e.g. on burst buffer nodes)".  The model:
//! a set of buffer nodes absorbs job writes at high bandwidth and drains
//! to the parallel filesystem in the background.  A *misconfigured*
//! buffer node (the LANL check target) silently absorbs nothing, pushing
//! its share of traffic straight at the filesystem — invisible unless
//! someone checks the configuration or watches the absorb rate.

use hpcmon_metrics::StateHash;
use serde::{Deserialize, Serialize};

/// Burst-buffer shape.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BbConfig {
    /// Number of buffer nodes.
    pub num_nodes: u32,
    /// Capacity per buffer node, bytes.
    pub capacity_bytes: f64,
    /// Absorb bandwidth per buffer node, bytes/second.
    pub absorb_bytes_per_sec: f64,
    /// Drain bandwidth per buffer node (to the PFS), bytes/second.
    pub drain_bytes_per_sec: f64,
}

impl BbConfig {
    /// A modest Trinity-flavored tier: fast absorb, slower drain.
    pub fn small() -> BbConfig {
        BbConfig {
            num_nodes: 4,
            capacity_bytes: 2.0e12,
            absorb_bytes_per_sec: 40.0e9,
            drain_bytes_per_sec: 4.0e9,
        }
    }
}

/// One buffer node.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BbNode {
    /// Whether the node is correctly configured (absorbs writes).
    pub configured: bool,
    /// Bytes currently buffered awaiting drain.
    pub occupancy_bytes: f64,
    /// Bytes absorbed in the last tick.
    pub absorbed_last_tick: f64,
    /// Bytes drained in the last tick.
    pub drained_last_tick: f64,
}

/// The burst-buffer tier.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BurstBuffer {
    config: BbConfig,
    nodes: Vec<BbNode>,
    next: usize,
}

impl BurstBuffer {
    /// Fold the full burst-buffer state into a flight-recorder digest.
    pub(crate) fn digest_into(&self, h: &mut StateHash) {
        h.usize(self.nodes.len());
        for n in &self.nodes {
            h.bool(n.configured)
                .f64(n.occupancy_bytes)
                .f64(n.absorbed_last_tick)
                .f64(n.drained_last_tick);
        }
        h.usize(self.next);
    }

    /// Fresh, fully configured tier.
    pub fn new(config: BbConfig) -> BurstBuffer {
        assert!(config.num_nodes >= 1);
        assert!(config.capacity_bytes > 0.0);
        assert!(config.absorb_bytes_per_sec > 0.0 && config.drain_bytes_per_sec > 0.0);
        BurstBuffer {
            config,
            nodes: vec![
                BbNode {
                    configured: true,
                    occupancy_bytes: 0.0,
                    absorbed_last_tick: 0.0,
                    drained_last_tick: 0.0,
                };
                config.num_nodes as usize
            ],
            next: 0,
        }
    }

    /// Number of buffer nodes.
    pub fn num_nodes(&self) -> u32 {
        self.config.num_nodes
    }

    /// One node's state.
    pub fn node(&self, i: u32) -> BbNode {
        self.nodes[i as usize]
    }

    /// Reset per-tick accounting.
    pub fn begin_tick(&mut self) {
        for n in &mut self.nodes {
            n.absorbed_last_tick = 0.0;
            n.drained_last_tick = 0.0;
        }
    }

    /// Offer `bytes` of burst writes for a tick of `dt_ms`; returns the
    /// bytes absorbed.  The remainder must go to the filesystem directly.
    /// Buffer nodes are used round-robin; misconfigured nodes absorb
    /// nothing (their share spills).
    pub fn absorb(&mut self, bytes: f64, dt_ms: u64) -> f64 {
        if bytes <= 0.0 {
            return 0.0;
        }
        let per_node_bw = self.config.absorb_bytes_per_sec * dt_ms as f64 / 1_000.0;
        let mut remaining = bytes;
        let mut absorbed = 0.0;
        for _ in 0..self.nodes.len() {
            if remaining <= 0.0 {
                break;
            }
            let idx = self.next;
            self.next = (self.next + 1) % self.nodes.len();
            let node = &mut self.nodes[idx];
            if !node.configured {
                continue;
            }
            let bw_room = (per_node_bw - node.absorbed_last_tick).max(0.0);
            let space = (self.config.capacity_bytes - node.occupancy_bytes).max(0.0);
            let take = remaining.min(bw_room).min(space);
            node.occupancy_bytes += take;
            node.absorbed_last_tick += take;
            absorbed += take;
            remaining -= take;
        }
        absorbed
    }

    /// Compute how much each node wants to drain this tick; the caller
    /// pushes it at the filesystem and reports back what was accepted via
    /// [`BurstBuffer::complete_drain`].
    pub fn drain_demand(&self, dt_ms: u64) -> Vec<f64> {
        let per_node = self.config.drain_bytes_per_sec * dt_ms as f64 / 1_000.0;
        self.nodes.iter().map(|n| n.occupancy_bytes.min(per_node)).collect()
    }

    /// Record that `accepted` bytes of node `i`'s drain were accepted.
    pub fn complete_drain(&mut self, i: u32, accepted: f64) {
        let node = &mut self.nodes[i as usize];
        let taken = accepted.min(node.occupancy_bytes);
        node.occupancy_bytes -= taken;
        node.drained_last_tick += taken;
    }

    /// Break or fix a node's configuration (the LANL check target).
    pub(crate) fn set_configured(&mut self, i: u32, configured: bool) {
        self.nodes[i as usize].configured = configured;
    }

    /// Whether all nodes pass the configuration check.
    pub fn all_configured(&self) -> bool {
        self.nodes.iter().all(|n| n.configured)
    }

    /// Total buffered bytes awaiting drain.
    pub fn total_occupancy(&self) -> f64 {
        self.nodes.iter().map(|n| n.occupancy_bytes).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bb() -> BurstBuffer {
        BurstBuffer::new(BbConfig {
            num_nodes: 2,
            capacity_bytes: 1_000.0,
            absorb_bytes_per_sec: 100.0,
            drain_bytes_per_sec: 10.0,
        })
    }

    #[test]
    fn absorbs_up_to_bandwidth() {
        let mut b = bb();
        b.begin_tick();
        // 2 nodes × 100 B/s × 1 s = 200 absorbable.
        assert_eq!(b.absorb(150.0, 1_000), 150.0);
        assert_eq!(b.absorb(100.0, 1_000), 50.0, "bandwidth exhausted mid-offer");
        assert_eq!(b.total_occupancy(), 200.0);
    }

    #[test]
    fn capacity_limits_absorption() {
        let mut b = bb();
        // Fill both nodes to capacity over several ticks.
        for _ in 0..10 {
            b.begin_tick();
            b.absorb(200.0, 1_000);
        }
        assert_eq!(b.total_occupancy(), 2_000.0, "both nodes full");
        b.begin_tick();
        assert_eq!(b.absorb(100.0, 1_000), 0.0, "no space left");
    }

    #[test]
    fn drain_cycle_moves_data_out() {
        let mut b = bb();
        b.begin_tick();
        b.absorb(200.0, 1_000);
        b.begin_tick();
        let demand = b.drain_demand(1_000);
        assert_eq!(demand, vec![10.0, 10.0], "drain bandwidth per node");
        b.complete_drain(0, 10.0);
        b.complete_drain(1, 4.0); // filesystem only took part of node 1's
        assert_eq!(b.total_occupancy(), 186.0);
        assert_eq!(b.node(0).drained_last_tick, 10.0);
        assert_eq!(b.node(1).drained_last_tick, 4.0);
    }

    #[test]
    fn misconfigured_node_spills() {
        let mut b = bb();
        b.set_configured(0, false);
        assert!(!b.all_configured());
        b.begin_tick();
        // Only node 1 absorbs: 100 of the 200 offered.
        assert_eq!(b.absorb(200.0, 1_000), 100.0);
        assert_eq!(b.node(0).occupancy_bytes, 0.0);
        assert_eq!(b.node(0).absorbed_last_tick, 0.0);
        // Repair restores full absorption.
        b.set_configured(0, true);
        b.begin_tick();
        assert_eq!(b.absorb(200.0, 1_000), 200.0);
    }

    #[test]
    fn round_robin_balances_nodes() {
        let mut b = bb();
        for _ in 0..4 {
            b.begin_tick();
            b.absorb(100.0, 1_000);
        }
        let occ0 = b.node(0).occupancy_bytes;
        let occ1 = b.node(1).occupancy_bytes;
        assert!((occ0 - occ1).abs() <= 100.0, "{occ0} vs {occ1}");
    }

    #[test]
    fn zero_and_negative_offers_are_noops() {
        let mut b = bb();
        b.begin_tick();
        assert_eq!(b.absorb(0.0, 1_000), 0.0);
        assert_eq!(b.absorb(-5.0, 1_000), 0.0);
    }

    #[test]
    #[should_panic]
    fn invalid_config_rejected() {
        BurstBuffer::new(BbConfig {
            num_nodes: 0,
            capacity_bytes: 1.0,
            absorb_bytes_per_sec: 1.0,
            drain_bytes_per_sec: 1.0,
        });
    }
}
