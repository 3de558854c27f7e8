//! Interconnect topologies: Gemini-style 3D torus and Aries-style dragonfly.
//!
//! The SNL work in the paper targets "the Cray Aries-based dragonfly
//! networks and Gemini-based 3D torus"; NCSA's Blue Waters (Figure 1) is a
//! Gemini torus.  Both are provided here with a common interface: routers
//! joined by directed links, each router hosting a fixed number of nodes.
//!
//! Cabinets are derived from the topology: one X-column of the torus per
//! cabinet (as on XE/XK rows) and one dragonfly group per cabinet (an XC
//! group spans two physical cabinets; one is close enough for the power
//! figures).

use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Shape of the interconnect.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TopologySpec {
    /// 3D torus with the given dimensions; each router hosts
    /// `nodes_per_router` compute nodes (Gemini hosted 2).
    Torus3D {
        /// Torus dimensions (x, y, z).
        dims: [u32; 3],
        /// Compute nodes attached to each router.
        nodes_per_router: u32,
    },
    /// Dragonfly: all-to-all routers within a group, one global link per
    /// group pair (Aries hosts 4 nodes per router).
    Dragonfly {
        /// Number of groups.
        groups: u32,
        /// Routers per group (all-to-all connected).
        routers_per_group: u32,
        /// Compute nodes attached to each router.
        nodes_per_router: u32,
    },
}

/// A directed link between two routers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Link {
    /// Dense link id.
    pub id: u32,
    /// Source router.
    pub from: u32,
    /// Destination router.
    pub to: u32,
    /// Whether this is a dragonfly global (inter-group) link.
    pub global: bool,
}

/// A built topology: routers, nodes, directed links, and cabinet mapping.
#[derive(Debug, Clone)]
pub struct Topology {
    spec: TopologySpec,
    links: Vec<Link>,
    link_index: HashMap<(u32, u32), u32>,
    /// Each router's neighbors, in link-id order.
    adjacency: Vec<Vec<u32>>,
    num_routers: u32,
    num_nodes: u32,
    num_cabinets: u32,
}

impl Topology {
    /// Build the link structure for a spec.
    pub fn build(spec: TopologySpec) -> Topology {
        match spec {
            TopologySpec::Torus3D { dims, nodes_per_router } => {
                Self::build_torus(spec, dims, nodes_per_router)
            }
            TopologySpec::Dragonfly { groups, routers_per_group, nodes_per_router } => {
                Self::build_dragonfly(spec, groups, routers_per_group, nodes_per_router)
            }
        }
    }

    fn build_torus(spec: TopologySpec, dims: [u32; 3], nodes_per_router: u32) -> Topology {
        assert!(dims.iter().all(|&d| d >= 1), "torus dimensions must be >= 1");
        assert!(nodes_per_router >= 1);
        let num_routers = dims[0] * dims[1] * dims[2];
        let mut t = Topology {
            spec,
            links: Vec::new(),
            link_index: HashMap::new(),
            adjacency: vec![Vec::new(); num_routers as usize],
            num_routers,
            num_nodes: num_routers * nodes_per_router,
            num_cabinets: dims[0],
        };
        for r in 0..num_routers {
            let c = t.torus_coords(r);
            for dim in 0..3 {
                if dims[dim] < 2 {
                    continue; // no link to self in degenerate dimensions
                }
                for dir in [1i64, -1] {
                    let mut n = c;
                    n[dim] = (((c[dim] as i64 + dir) + dims[dim] as i64) % dims[dim] as i64) as u32;
                    let peer = t.torus_router(n);
                    t.add_link(r, peer, false);
                }
            }
        }
        t
    }

    fn build_dragonfly(
        spec: TopologySpec,
        groups: u32,
        routers_per_group: u32,
        nodes_per_router: u32,
    ) -> Topology {
        assert!(groups >= 1 && routers_per_group >= 1 && nodes_per_router >= 1);
        let num_routers = groups * routers_per_group;
        let mut t = Topology {
            spec,
            links: Vec::new(),
            link_index: HashMap::new(),
            adjacency: vec![Vec::new(); num_routers as usize],
            num_routers,
            num_nodes: num_routers * nodes_per_router,
            num_cabinets: groups,
        };
        // Intra-group all-to-all.
        for g in 0..groups {
            let base = g * routers_per_group;
            for a in 0..routers_per_group {
                for b in 0..routers_per_group {
                    if a != b {
                        t.add_link(base + a, base + b, false);
                    }
                }
            }
        }
        // One global link (each direction) per group pair, owned by a
        // deterministic router in each group.
        for ga in 0..groups {
            for gb in (ga + 1)..groups {
                let ra = t.gateway_router(ga, gb);
                let rb = t.gateway_router(gb, ga);
                t.add_link(ra, rb, true);
                t.add_link(rb, ra, true);
            }
        }
        t
    }

    fn add_link(&mut self, from: u32, to: u32, global: bool) {
        debug_assert_ne!(from, to, "self links are not allowed");
        if self.link_index.contains_key(&(from, to)) {
            return; // e.g. torus dimension of size 2: +1 and -1 coincide
        }
        let id = self.links.len() as u32;
        self.links.push(Link { id, from, to, global });
        self.link_index.insert((from, to), id);
        self.adjacency[from as usize].push(to);
    }

    /// The spec this topology was built from.
    pub(crate) fn spec(&self) -> TopologySpec {
        self.spec
    }

    /// Number of compute nodes.
    pub(crate) fn num_nodes(&self) -> u32 {
        self.num_nodes
    }

    /// Number of routers.
    pub fn num_routers(&self) -> u32 {
        self.num_routers
    }

    /// Number of directed links.
    pub fn num_links(&self) -> u32 {
        self.links.len() as u32
    }

    /// Number of cabinets (torus X-columns or dragonfly groups).
    pub fn num_cabinets(&self) -> u32 {
        self.num_cabinets
    }

    /// Link metadata by id.
    pub fn link(&self, id: u32) -> Link {
        self.links[id as usize]
    }

    /// Nodes attached to each router.
    pub(crate) fn nodes_per_router(&self) -> u32 {
        match self.spec {
            TopologySpec::Torus3D { nodes_per_router, .. } => nodes_per_router,
            TopologySpec::Dragonfly { nodes_per_router, .. } => nodes_per_router,
        }
    }

    /// The router hosting a node.
    pub(crate) fn router_of(&self, node: u32) -> u32 {
        assert!(node < self.num_nodes, "node {node} out of range");
        node / self.nodes_per_router()
    }

    /// The nodes hosted by a router, as a half-open range.
    pub fn nodes_of_router(&self, router: u32) -> std::ops::Range<u32> {
        let npr = self.nodes_per_router();
        (router * npr)..((router + 1) * npr)
    }

    /// The cabinet containing a node.  Node numbering follows the physical
    /// cabinet order (as on real machines), so each cabinet holds a
    /// contiguous block of node ids: torus cabinets are equal blocks of
    /// `num_nodes / dims[0]`, dragonfly cabinets are groups.
    #[inline]
    pub fn cabinet_of(&self, node: u32) -> u32 {
        assert!(node < self.num_nodes, "node {node} out of range");
        match self.spec {
            TopologySpec::Torus3D { dims, .. } => {
                let per_cabinet = (self.num_nodes / dims[0]).max(1);
                (node / per_cabinet).min(dims[0] - 1)
            }
            TopologySpec::Dragonfly { routers_per_group, .. } => {
                self.router_of(node) / routers_per_group
            }
        }
    }

    /// Directed link id from `from` to `to`, if adjacent.
    pub(crate) fn link_between(&self, from: u32, to: u32) -> Option<u32> {
        self.link_index.get(&(from, to)).copied()
    }

    /// Router neighbors reachable over one link, in link-id order.
    pub(crate) fn neighbors(&self, router: u32) -> &[u32] {
        &self.adjacency[router as usize]
    }

    /// Torus coordinates of a router (torus only).
    pub(crate) fn torus_coords(&self, router: u32) -> [u32; 3] {
        match self.spec {
            TopologySpec::Torus3D { dims, .. } => {
                let x = router % dims[0];
                let y = (router / dims[0]) % dims[1];
                let z = router / (dims[0] * dims[1]);
                [x, y, z]
            }
            _ => panic!("torus_coords on non-torus topology"),
        }
    }

    /// Router id from torus coordinates (torus only).
    pub(crate) fn torus_router(&self, coords: [u32; 3]) -> u32 {
        match self.spec {
            TopologySpec::Torus3D { dims, .. } => {
                coords[0] + coords[1] * dims[0] + coords[2] * dims[0] * dims[1]
            }
            _ => panic!("torus_router on non-torus topology"),
        }
    }

    /// Dragonfly group of a router (dragonfly only).
    pub(crate) fn group_of(&self, router: u32) -> u32 {
        match self.spec {
            TopologySpec::Dragonfly { routers_per_group, .. } => router / routers_per_group,
            _ => panic!("group_of on non-dragonfly topology"),
        }
    }

    /// The router in `group` that owns the global link toward `peer_group`
    /// (dragonfly only).
    pub(crate) fn gateway_router(&self, group: u32, peer_group: u32) -> u32 {
        match self.spec {
            TopologySpec::Dragonfly { routers_per_group, .. } => {
                // Deterministic spread of global links across a group's routers.
                let slot = peer_group % routers_per_group;
                group * routers_per_group + slot
            }
            _ => panic!("gateway_router on non-dragonfly topology"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl TopologySpec {
        /// A small torus suitable for tests.
        pub(crate) fn small_torus() -> TopologySpec {
            TopologySpec::Torus3D { dims: [4, 4, 4], nodes_per_router: 2 }
        }

        /// A small dragonfly suitable for tests.
        pub(crate) fn small_dragonfly() -> TopologySpec {
            TopologySpec::Dragonfly { groups: 6, routers_per_group: 8, nodes_per_router: 4 }
        }
    }

    #[test]
    fn torus_counts() {
        let t = Topology::build(TopologySpec::Torus3D { dims: [4, 3, 2], nodes_per_router: 2 });
        assert_eq!(t.num_routers(), 24);
        assert_eq!(t.num_nodes(), 48);
        assert_eq!(t.num_cabinets(), 4);
        // Every router has 6 outgoing links except where a dimension has
        // size 2 (two directions coincide) — z here has size 2, so 5 each.
        assert_eq!(t.num_links(), 24 * 5);
    }

    #[test]
    fn torus_coord_round_trip() {
        let t = Topology::build(TopologySpec::Torus3D { dims: [5, 4, 3], nodes_per_router: 1 });
        for r in 0..t.num_routers() {
            assert_eq!(t.torus_router(t.torus_coords(r)), r);
        }
    }

    #[test]
    fn torus_neighbors_are_symmetric() {
        let t = Topology::build(TopologySpec::small_torus());
        for r in 0..t.num_routers() {
            for &n in t.neighbors(r) {
                assert!(t.link_between(n, r).is_some(), "reverse link {n}->{r}");
            }
            // The adjacency index is the link list grouped by source.
            let scanned: Vec<u32> = t.links.iter().filter(|l| l.from == r).map(|l| l.to).collect();
            assert_eq!(t.neighbors(r), scanned);
        }
    }

    #[test]
    fn degenerate_dimension_has_no_self_links() {
        let t = Topology::build(TopologySpec::Torus3D { dims: [4, 1, 1], nodes_per_router: 1 });
        assert!(t.links.iter().all(|l| l.from != l.to));
        // A ring of 4: each router has exactly 2 neighbors.
        for r in 0..4 {
            assert_eq!(t.neighbors(r).len(), 2);
        }
    }

    #[test]
    fn node_router_mapping() {
        let t = Topology::build(TopologySpec::Torus3D { dims: [2, 2, 2], nodes_per_router: 4 });
        assert_eq!(t.router_of(0), 0);
        assert_eq!(t.router_of(3), 0);
        assert_eq!(t.router_of(4), 1);
        assert_eq!(t.nodes_of_router(1), 4..8);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn router_of_out_of_range_panics() {
        let t = Topology::build(TopologySpec::small_torus());
        t.router_of(t.num_nodes());
    }

    #[test]
    fn torus_cabinets_partition_nodes() {
        let t = Topology::build(TopologySpec::Torus3D { dims: [4, 2, 2], nodes_per_router: 2 });
        let mut per_cab = vec![0u32; t.num_cabinets() as usize];
        for n in 0..t.num_nodes() {
            per_cab[t.cabinet_of(n) as usize] += 1;
        }
        // 4 cabinets, 8 nodes each.
        assert!(per_cab.iter().all(|&c| c == 8), "{per_cab:?}");
        // Cabinets hold contiguous node blocks (physical numbering).
        assert_eq!(t.cabinet_of(0), 0);
        assert_eq!(t.cabinet_of(7), 0);
        assert_eq!(t.cabinet_of(8), 1);
        assert_eq!(t.cabinet_of(31), 3);
    }

    #[test]
    fn dragonfly_counts() {
        let t = Topology::build(TopologySpec::Dragonfly {
            groups: 4,
            routers_per_group: 3,
            nodes_per_router: 2,
        });
        assert_eq!(t.num_routers(), 12);
        assert_eq!(t.num_nodes(), 24);
        assert_eq!(t.num_cabinets(), 4);
        // Intra-group: 4 groups * 3*2 directed pairs = 24.
        // Global: C(4,2)=6 pairs * 2 directions = 12.
        assert_eq!(t.num_links(), 36);
        assert_eq!(t.links.iter().filter(|l| l.global).count(), 12);
    }

    #[test]
    fn dragonfly_gateways_are_in_their_group() {
        let t = Topology::build(TopologySpec::small_dragonfly());
        let TopologySpec::Dragonfly { groups, .. } = t.spec() else { unreachable!() };
        for ga in 0..groups {
            for gb in 0..groups {
                if ga != gb {
                    let gw = t.gateway_router(ga, gb);
                    assert_eq!(t.group_of(gw), ga);
                }
            }
        }
    }

    #[test]
    fn dragonfly_global_links_connect_gateways() {
        let t = Topology::build(TopologySpec::small_dragonfly());
        for l in t.links.iter().filter(|l| l.global) {
            assert_ne!(t.group_of(l.from), t.group_of(l.to));
            // The reverse global link exists too.
            assert!(t.link_between(l.to, l.from).is_some());
        }
    }

    #[test]
    fn dragonfly_intra_group_is_all_to_all() {
        let t = Topology::build(TopologySpec::Dragonfly {
            groups: 2,
            routers_per_group: 4,
            nodes_per_router: 1,
        });
        for a in 0..4u32 {
            for b in 0..4u32 {
                if a != b {
                    assert!(t.link_between(a, b).is_some(), "{a}->{b}");
                }
            }
        }
    }

    #[test]
    fn link_ids_are_dense_and_consistent() {
        let t = Topology::build(TopologySpec::small_dragonfly());
        for (i, l) in t.links.iter().enumerate() {
            assert_eq!(l.id as usize, i);
            assert_eq!(t.link_between(l.from, l.to), Some(l.id));
        }
    }
}
