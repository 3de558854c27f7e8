//! Fluid network model: per-link loads, bottleneck sharing, stalls, errors.
//!
//! Each tick, running applications offer *flows* (a routed path plus a byte
//! demand).  [`NetworkState::settle`] then applies a single-pass bottleneck
//! model: every link has a byte capacity for the tick, each flow achieves
//! the fraction allowed by its most oversubscribed link, and the excess
//! demand on a link is recorded as *credit stalls* — the Aries/Gemini
//! counter the SNL congestion work in the paper is built on.

use crate::topology::Topology;
use hpcmon_metrics::StateHash;
use serde::{Deserialize, Serialize};

/// One offered flow for the current tick.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Flow {
    /// Node that injects the traffic (for injection-bandwidth accounting).
    pub src_node: u32,
    /// Routed path as link ids.
    pub path: Vec<u32>,
    /// Bytes the application wants to move this tick.
    pub demand_bytes: f64,
}

/// An offered flow whose path is `offered_links[first..first + len]`.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
struct OfferedFlow {
    src_node: u32,
    first: u32,
    len: u32,
    demand_bytes: f64,
}

/// Per-tick and cumulative state of every link, plus per-node injection.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct NetworkState {
    capacity_bytes_per_sec: f64,
    link_up: Vec<bool>,
    /// Always empty, kept so a snapshot reads and writes the shape it
    /// always had: this tick's flows are in `offered`.
    flows: Vec<Flow>,
    /// This tick's flows, their paths back to back in `offered_links` so
    /// that offering one allocates nothing once the buffers have grown.
    /// Both are empty again after `settle`, so at every tick boundary,
    /// which is where snapshots are taken.
    #[serde(default, skip_serializing_if = "Vec::is_empty")]
    offered: Vec<OfferedFlow>,
    #[serde(default, skip_serializing_if = "Vec::is_empty")]
    offered_links: Vec<u32>,
    demand: Vec<f64>,
    traffic: Vec<f64>,
    stalls: Vec<f64>,
    errors: Vec<f64>,
    injected: Vec<f64>,
    injection_demand: Vec<f64>,
    cumulative_traffic: Vec<f64>,
    last_dt_ms: u64,
}

impl NetworkState {
    /// Build for a topology with a uniform per-link capacity.
    pub fn new(topo: &Topology, capacity_bytes_per_sec: f64) -> NetworkState {
        assert!(capacity_bytes_per_sec > 0.0);
        let links = topo.num_links() as usize;
        let nodes = topo.num_nodes() as usize;
        NetworkState {
            capacity_bytes_per_sec,
            link_up: vec![true; links],
            flows: Vec::new(),
            offered: Vec::new(),
            offered_links: Vec::new(),
            demand: vec![0.0; links],
            traffic: vec![0.0; links],
            stalls: vec![0.0; links],
            errors: vec![0.0; links],
            injected: vec![0.0; nodes],
            injection_demand: vec![0.0; nodes],
            cumulative_traffic: vec![0.0; links],
            last_dt_ms: 0,
        }
    }

    /// Fold the full network state into a flight-recorder digest.
    pub(crate) fn digest_into(&self, h: &mut StateHash) {
        h.f64(self.capacity_bytes_per_sec)
            .bools(&self.link_up)
            .usize(self.offered.len())
            .f64s(&self.demand)
            .f64s(&self.traffic)
            .f64s(&self.stalls)
            .f64s(&self.errors)
            .f64s(&self.injected)
            .f64s(&self.injection_demand)
            .f64s(&self.cumulative_traffic)
            .u64(self.last_dt_ms);
    }

    /// Reset per-tick accumulators.  Call once at the start of each tick.
    pub fn begin_tick(&mut self) {
        self.offered.clear();
        self.offered_links.clear();
        self.demand.iter_mut().for_each(|d| *d = 0.0);
        self.traffic.iter_mut().for_each(|t| *t = 0.0);
        self.stalls.iter_mut().for_each(|s| *s = 0.0);
        self.errors.iter_mut().for_each(|e| *e = 0.0);
        self.injected.iter_mut().for_each(|i| *i = 0.0);
        self.injection_demand.iter_mut().for_each(|i| *i = 0.0);
    }

    /// Offer a flow for this tick.  Zero-demand and empty-path (same-router)
    /// flows are accepted; an empty path always achieves full demand.
    pub fn offer_flow(&mut self, src_node: u32, path: Vec<u32>, demand_bytes: f64) {
        self.offer_flow_links(src_node, &path, demand_bytes);
    }

    /// [`NetworkState::offer_flow`] for a path the caller keeps: the links
    /// are copied into this tick's flow buffer.
    pub(crate) fn offer_flow_links(&mut self, src_node: u32, path: &[u32], demand_bytes: f64) {
        debug_assert!(demand_bytes >= 0.0);
        for &l in path {
            self.demand[l as usize] += demand_bytes;
        }
        self.injection_demand[src_node as usize] += demand_bytes;
        let (first, len) = (self.offered_links.len() as u32, path.len() as u32);
        self.offered_links.extend_from_slice(path);
        self.offered.push(OfferedFlow { src_node, first, len, demand_bytes });
    }

    /// Settle all offered flows for a tick of `dt_ms` and account traffic,
    /// stalls, and injection.  Returns per-flow achieved bytes in offer
    /// order.
    pub fn settle(&mut self, dt_ms: u64) -> Vec<f64> {
        self.last_dt_ms = dt_ms;
        let cap = self.capacity_bytes_per_sec * dt_ms as f64 / 1_000.0;
        let mut achieved = Vec::with_capacity(self.offered.len());
        for flow in &self.offered {
            let path = &self.offered_links[flow.first as usize..(flow.first + flow.len) as usize];
            let mut fraction: f64 = 1.0;
            for &l in path {
                let li = l as usize;
                if !self.link_up[li] {
                    fraction = 0.0;
                    break;
                }
                if self.demand[li] > cap {
                    fraction = fraction.min(cap / self.demand[li]);
                }
            }
            let got = flow.demand_bytes * fraction;
            for &l in path {
                let li = l as usize;
                self.traffic[li] += got;
                self.cumulative_traffic[li] += got;
            }
            self.injected[flow.src_node as usize] += got;
            achieved.push(got);
        }
        // Stall accounting: excess demand beyond capacity, per link.
        for li in 0..self.demand.len() {
            let excess =
                if self.link_up[li] { (self.demand[li] - cap).max(0.0) } else { self.demand[li] };
            self.stalls[li] = excess;
        }
        self.offered.clear();
        self.offered_links.clear();
        achieved
    }

    /// Mark a link up or down (failure injection).
    pub(crate) fn set_link_up(&mut self, link: u32, up: bool) {
        self.link_up[link as usize] = up;
    }

    /// Whether a link is up.
    pub fn link_is_up(&self, link: u32) -> bool {
        self.link_up[link as usize]
    }

    /// Record bit errors observed on a link this tick (set by the engine's
    /// error process).
    pub(crate) fn add_link_errors(&mut self, link: u32, errors: f64) {
        self.errors[link as usize] += errors;
    }

    /// Bytes moved over a link this tick.
    #[inline]
    pub fn link_traffic_bytes(&self, link: u32) -> f64 {
        self.traffic[link as usize]
    }

    /// Excess (stalled) bytes on a link this tick.
    #[inline]
    pub fn link_stall_bytes(&self, link: u32) -> f64 {
        self.stalls[link as usize]
    }

    /// Bit errors on a link this tick.
    #[inline]
    pub fn link_errors(&self, link: u32) -> f64 {
        self.errors[link as usize]
    }

    /// Utilization of a link over the last settled tick, in `[0, 1]`.
    #[inline]
    pub fn link_utilization(&self, link: u32) -> f64 {
        if self.last_dt_ms == 0 {
            return 0.0;
        }
        let cap = self.capacity_bytes_per_sec * self.last_dt_ms as f64 / 1_000.0;
        (self.traffic[link as usize] / cap).clamp(0.0, 1.0)
    }

    /// Current per-link load fractions (demand / capacity), for adaptive
    /// routing decisions made *before* settling.
    pub fn load_fractions(&self, dt_ms: u64) -> Vec<f64> {
        let mut loads = Vec::new();
        self.load_fractions_into(dt_ms, &mut loads);
        loads
    }

    /// [`NetworkState::load_fractions`] into a buffer the caller reuses.
    pub(crate) fn load_fractions_into(&self, dt_ms: u64, loads: &mut Vec<f64>) {
        let cap = self.capacity_bytes_per_sec * dt_ms as f64 / 1_000.0;
        loads.clear();
        loads.extend(self.demand.iter().map(|d| d / cap));
    }

    /// Injection bandwidth as a percentage of one link's capacity — the
    /// Figure 1 metric ("injection of data into the network ... mean
    /// bandwidth utilization as a percent of maximum").
    #[inline]
    pub fn node_injection_pct(&self, node: u32) -> f64 {
        if self.last_dt_ms == 0 {
            return 0.0;
        }
        let cap = self.capacity_bytes_per_sec * self.last_dt_ms as f64 / 1_000.0;
        100.0 * self.injected[node as usize] / cap
    }

    /// Number of links tracked.
    pub fn num_links(&self) -> usize {
        self.link_up.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::{Topology, TopologySpec};

    fn net() -> (Topology, NetworkState) {
        let topo = Topology::build(TopologySpec::Torus3D { dims: [4, 1, 1], nodes_per_router: 1 });
        let ns = NetworkState::new(&topo, 1_000.0); // 1000 B/s per link
        (topo, ns)
    }

    #[test]
    fn uncongested_flow_achieves_demand() {
        let (topo, mut ns) = net();
        ns.begin_tick();
        let path = crate::routing::minimal_route(&topo, 0, 1);
        ns.offer_flow(0, path.clone(), 500.0);
        let got = ns.settle(1_000);
        assert_eq!(got, vec![500.0]);
        assert_eq!(ns.link_traffic_bytes(path[0]), 500.0);
        assert_eq!(ns.link_stall_bytes(path[0]), 0.0);
        assert!((ns.link_utilization(path[0]) - 0.5).abs() < 1e-12);
        assert_eq!(ns.injected[0], 500.0);
        assert!((ns.node_injection_pct(0) - 50.0).abs() < 1e-12);
    }

    #[test]
    fn oversubscribed_link_shares_proportionally() {
        let (topo, mut ns) = net();
        ns.begin_tick();
        let path = crate::routing::minimal_route(&topo, 0, 1);
        ns.offer_flow(0, path.clone(), 1_500.0);
        ns.offer_flow(0, path.clone(), 500.0);
        let got = ns.settle(1_000);
        // Total demand 2000 on a 1000-capacity link: everyone gets 1/2.
        assert!((got[0] - 750.0).abs() < 1e-9);
        assert!((got[1] - 250.0).abs() < 1e-9);
        assert_eq!(ns.link_stall_bytes(path[0]), 1_000.0);
    }

    #[test]
    fn bottleneck_is_the_worst_link() {
        let (topo, mut ns) = net();
        ns.begin_tick();
        // Flow A uses links 0->1->2; a competing flow saturates 1->2.
        let long = crate::routing::minimal_route(&topo, 0, 2);
        assert_eq!(long.len(), 2);
        let short = crate::routing::minimal_route(&topo, 1, 2);
        ns.offer_flow(0, long, 800.0);
        ns.offer_flow(1, short, 3_200.0);
        let got = ns.settle(1_000);
        // Link 1->2 carries 4000 demand with 1000 capacity: fraction 0.25.
        assert!((got[0] - 200.0).abs() < 1e-9);
        assert!((got[1] - 800.0).abs() < 1e-9);
    }

    #[test]
    fn down_link_kills_flow_and_counts_stalls() {
        let (topo, mut ns) = net();
        ns.begin_tick();
        let path = crate::routing::minimal_route(&topo, 0, 1);
        ns.set_link_up(path[0], false);
        ns.offer_flow(0, path.clone(), 400.0);
        let got = ns.settle(1_000);
        assert_eq!(got, vec![0.0]);
        assert_eq!(ns.link_traffic_bytes(path[0]), 0.0);
        assert_eq!(ns.link_stall_bytes(path[0]), 400.0);
        assert!(!ns.link_is_up(path[0]));
    }

    #[test]
    fn empty_path_always_succeeds() {
        let (_topo, mut ns) = net();
        ns.begin_tick();
        ns.offer_flow(2, Vec::new(), 123.0);
        let got = ns.settle(1_000);
        assert_eq!(got, vec![123.0]);
        assert_eq!(ns.injected[2], 123.0);
    }

    #[test]
    fn begin_tick_resets_per_tick_state_only() {
        let (topo, mut ns) = net();
        ns.begin_tick();
        let path = crate::routing::minimal_route(&topo, 0, 1);
        ns.offer_flow(0, path.clone(), 500.0);
        ns.settle(1_000);
        let link = path[0];
        assert_eq!(ns.cumulative_traffic[link as usize], 500.0);
        ns.begin_tick();
        assert_eq!(ns.link_traffic_bytes(link), 0.0);
        assert_eq!(ns.injected[0], 0.0);
        assert_eq!(ns.cumulative_traffic[link as usize], 500.0, "cumulative survives");
    }

    #[test]
    fn dt_scales_capacity() {
        let (topo, mut ns) = net();
        ns.begin_tick();
        let path = crate::routing::minimal_route(&topo, 0, 1);
        ns.offer_flow(0, path, 500.0);
        // 100 ms tick => capacity 100 bytes => fraction 0.2.
        let got = ns.settle(100);
        assert!((got[0] - 100.0).abs() < 1e-9);
    }

    #[test]
    fn error_accounting() {
        let (_topo, mut ns) = net();
        ns.begin_tick();
        ns.add_link_errors(3, 2.0);
        ns.add_link_errors(3, 1.0);
        assert_eq!(ns.link_errors(3), 3.0);
        ns.begin_tick();
        assert_eq!(ns.link_errors(3), 0.0);
    }

    #[test]
    fn injection_demand_tracked_even_when_starved() {
        let (topo, mut ns) = net();
        ns.begin_tick();
        let path = crate::routing::minimal_route(&topo, 0, 1);
        ns.set_link_up(path[0], false);
        ns.offer_flow(0, path, 400.0);
        ns.settle(1_000);
        assert_eq!(ns.injection_demand[0], 400.0);
        assert_eq!(ns.injected[0], 0.0);
    }
}
