//! Routing over the built topologies.
//!
//! Two policies are provided, mirroring what the Cray systems in the paper
//! ran: **minimal** (dimension-order on the torus, min-hop on the
//! dragonfly) and **adaptive**, which inspects current link loads and
//! detours around the most congested first hop.  The `abl_routing` bench
//! compares them under hot-spot traffic.

use crate::topology::{Topology, TopologySpec};
use serde::{Deserialize, Serialize};

/// Routing policy selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RoutePolicy {
    /// Always take the minimal path.
    Minimal,
    /// Detour via a random-ish intermediate when the minimal first hop is
    /// heavily loaded (Valiant-style, load-informed).
    Adaptive,
}

/// Compute the minimal path between two routers as a list of link ids.
/// Returns an empty path when `src == dst`.
pub fn minimal_route(topo: &Topology, src: u32, dst: u32) -> Vec<u32> {
    match topo.spec() {
        TopologySpec::Torus3D { .. } => torus_route(topo, src, dst),
        TopologySpec::Dragonfly { .. } => dragonfly_route(topo, src, dst),
    }
}

/// Compute a route under the given policy.  `link_load` supplies the current
/// per-link load fraction (load / capacity) used by the adaptive policy;
/// it is indexed by link id.
pub fn route_with_policy(
    topo: &Topology,
    src: u32,
    dst: u32,
    policy: RoutePolicy,
    link_load: &[f64],
    congestion_threshold: f64,
) -> Vec<u32> {
    if src == dst {
        return Vec::new();
    }
    match policy {
        RoutePolicy::Minimal => minimal_route(topo, src, dst),
        RoutePolicy::Adaptive => {
            let minimal = minimal_route(topo, src, dst);
            let first = minimal[0] as usize;
            let first_load = link_load.get(first).copied().unwrap_or(0.0);
            if first_load <= congestion_threshold {
                return minimal;
            }
            // Detour through the least-loaded neighbor, then minimally on.
            let mut best: Option<(f64, u32)> = None;
            for &n in topo.neighbors(src) {
                if n == dst {
                    continue;
                }
                let l = topo.link_between(src, n).expect("neighbor implies link");
                let load = link_load.get(l as usize).copied().unwrap_or(0.0);
                if best.is_none_or(|(b, _)| load < b) {
                    best = Some((load, n));
                }
            }
            match best {
                Some((load, via)) if load < first_load => {
                    let mut path =
                        vec![topo.link_between(src, via).expect("neighbor implies link")];
                    path.extend(minimal_route(topo, via, dst));
                    path
                }
                _ => minimal,
            }
        }
    }
}

/// Dimension-order (x, then y, then z) routing with shortest wrap direction.
fn torus_route(topo: &Topology, src: u32, dst: u32) -> Vec<u32> {
    let TopologySpec::Torus3D { dims, .. } = topo.spec() else {
        unreachable!("torus_route requires a torus")
    };
    let mut path = Vec::new();
    let mut cur = topo.torus_coords(src);
    let goal = topo.torus_coords(dst);
    for dim in 0..3 {
        while cur[dim] != goal[dim] {
            let size = dims[dim] as i64;
            let fwd = (goal[dim] as i64 - cur[dim] as i64).rem_euclid(size);
            let bwd = size - fwd;
            let step: i64 = if fwd <= bwd { 1 } else { -1 };
            let mut next = cur;
            next[dim] = ((cur[dim] as i64 + step).rem_euclid(size)) as u32;
            let from = topo.torus_router(cur);
            let to = topo.torus_router(next);
            path.push(topo.link_between(from, to).expect("torus neighbors are linked"));
            cur = next;
        }
    }
    path
}

/// Minimal dragonfly route: local hop to the source-side gateway, one global
/// hop, local hop from the destination-side gateway.
fn dragonfly_route(topo: &Topology, src: u32, dst: u32) -> Vec<u32> {
    if src == dst {
        return Vec::new();
    }
    let gs = topo.group_of(src);
    let gd = topo.group_of(dst);
    let mut path = Vec::new();
    if gs == gd {
        // Intra-group: direct (groups are all-to-all).
        path.push(topo.link_between(src, dst).expect("intra-group all-to-all"));
        return path;
    }
    let gw_src = topo.gateway_router(gs, gd);
    let gw_dst = topo.gateway_router(gd, gs);
    let mut cur = src;
    if cur != gw_src {
        path.push(topo.link_between(cur, gw_src).expect("intra-group all-to-all"));
        cur = gw_src;
    }
    path.push(topo.link_between(cur, gw_dst).expect("gateway pair has global link"));
    cur = gw_dst;
    if cur != dst {
        path.push(topo.link_between(cur, dst).expect("intra-group all-to-all"));
    }
    path
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::TopologySpec;

    fn check_path(topo: &Topology, src: u32, dst: u32, path: &[u32]) {
        let mut cur = src;
        for &lid in path {
            let l = topo.link(lid);
            assert_eq!(l.from, cur, "path is contiguous");
            cur = l.to;
        }
        assert_eq!(cur, dst, "path reaches destination");
    }

    #[test]
    fn torus_routes_reach_destination() {
        let topo = Topology::build(TopologySpec::Torus3D { dims: [4, 3, 5], nodes_per_router: 1 });
        for src in 0..topo.num_routers() {
            for dst in 0..topo.num_routers() {
                let path = minimal_route(&topo, src, dst);
                check_path(&topo, src, dst, &path);
                if src == dst {
                    assert!(path.is_empty());
                }
            }
        }
    }

    #[test]
    fn torus_takes_shortest_wrap() {
        // Ring of 8 in x: from 0 to 6 should go backwards (2 hops), not 6.
        let topo = Topology::build(TopologySpec::Torus3D { dims: [8, 1, 1], nodes_per_router: 1 });
        let path = minimal_route(&topo, 0, 6);
        assert_eq!(path.len(), 2);
        let path = minimal_route(&topo, 0, 4);
        assert_eq!(path.len(), 4); // tie goes forward but is still 4 hops
    }

    #[test]
    fn torus_route_length_is_manhattan() {
        let topo = Topology::build(TopologySpec::Torus3D { dims: [6, 6, 6], nodes_per_router: 1 });
        let src = topo.torus_router([0, 0, 0]);
        let dst = topo.torus_router([2, 3, 1]);
        assert_eq!(minimal_route(&topo, src, dst).len(), 6);
    }

    #[test]
    fn dragonfly_routes_reach_destination() {
        let topo = Topology::build(TopologySpec::small_dragonfly());
        for src in (0..topo.num_routers()).step_by(3) {
            for dst in (0..topo.num_routers()).step_by(5) {
                let path = minimal_route(&topo, src, dst);
                check_path(&topo, src, dst, &path);
            }
        }
    }

    #[test]
    fn dragonfly_max_three_hops() {
        let topo = Topology::build(TopologySpec::small_dragonfly());
        for src in 0..topo.num_routers() {
            for dst in 0..topo.num_routers() {
                assert!(minimal_route(&topo, src, dst).len() <= 3, "{src}->{dst}");
            }
        }
    }

    #[test]
    fn dragonfly_uses_exactly_one_global_hop_between_groups() {
        let topo = Topology::build(TopologySpec::small_dragonfly());
        let src = 0;
        let dst = topo.num_routers() - 1;
        let path = minimal_route(&topo, src, dst);
        let globals = path.iter().filter(|&&l| topo.link(l).global).count();
        assert_eq!(globals, 1);
    }

    #[test]
    fn adaptive_equals_minimal_when_uncongested() {
        let topo = Topology::build(TopologySpec::small_torus());
        let loads = vec![0.0; topo.num_links() as usize];
        let a = route_with_policy(&topo, 0, 9, RoutePolicy::Adaptive, &loads, 0.8);
        let m = minimal_route(&topo, 0, 9);
        assert_eq!(a, m);
    }

    #[test]
    fn adaptive_detours_around_hot_first_hop() {
        let topo = Topology::build(TopologySpec::small_torus());
        let m = minimal_route(&topo, 0, 9);
        let mut loads = vec![0.0; topo.num_links() as usize];
        loads[m[0] as usize] = 5.0; // first hop saturated
        let a = route_with_policy(&topo, 0, 9, RoutePolicy::Adaptive, &loads, 0.8);
        check_path(&topo, 0, 9, &a);
        assert_ne!(a[0], m[0], "adaptive must avoid the saturated first hop");
    }

    #[test]
    fn adaptive_self_route_is_empty() {
        let topo = Topology::build(TopologySpec::small_torus());
        let loads = vec![0.0; topo.num_links() as usize];
        assert!(route_with_policy(&topo, 3, 3, RoutePolicy::Adaptive, &loads, 0.8).is_empty());
    }
}
