//! Component identities.
//!
//! A large Cray-class system is a hierarchy: system → cabinets → chassis →
//! blades → nodes, with the high-speed network (links, routers), the parallel
//! filesystem (MDS, OSTs), per-node GPUs, services, and the datacenter
//! environment all observable.  [`CompId`] names any of these compactly
//! (8 bytes) so it can be used as a series key in the store.

use serde::{Deserialize, Serialize};

/// The kind of component a [`CompId`] refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
#[repr(u8)]
pub enum CompKind {
    /// The whole system (aggregates, queue depth, total power).
    System,
    /// A cabinet (power envelope, cooling).
    Cabinet,
    /// A chassis within a cabinet.
    Chassis,
    /// A blade holding nodes and a router.
    Blade,
    /// A compute or service node.
    Node,
    /// A GPU attached to a node (index = global GPU id).
    Gpu,
    /// A high-speed-network link (index = global link id).
    Link,
    /// A high-speed-network router.
    Router,
    /// A Lustre-like object storage target.
    Ost,
    /// A Lustre-like metadata server.
    Mds,
    /// A batch job (per-job aggregated series).
    Job,
    /// The datacenter environment (temperature, corrosive gas, ...).
    Environment,
    /// A system service/daemon instance (index = service slot).
    Service,
    /// A burst-buffer node (fast checkpoint tier).
    BurstBuffer,
}

impl CompKind {
    /// All kinds, for coverage checks.
    pub const ALL: [CompKind; 14] = [
        CompKind::System,
        CompKind::Cabinet,
        CompKind::Chassis,
        CompKind::Blade,
        CompKind::Node,
        CompKind::Gpu,
        CompKind::Link,
        CompKind::Router,
        CompKind::Ost,
        CompKind::Mds,
        CompKind::Job,
        CompKind::Environment,
        CompKind::Service,
        CompKind::BurstBuffer,
    ];

    /// Short lowercase label used in topics and dashboards.
    pub fn label(self) -> &'static str {
        match self {
            CompKind::System => "system",
            CompKind::Cabinet => "cabinet",
            CompKind::Chassis => "chassis",
            CompKind::Blade => "blade",
            CompKind::Node => "node",
            CompKind::Gpu => "gpu",
            CompKind::Link => "link",
            CompKind::Router => "router",
            CompKind::Ost => "ost",
            CompKind::Mds => "mds",
            CompKind::Job => "job",
            CompKind::Environment => "env",
            CompKind::Service => "service",
            CompKind::BurstBuffer => "bb",
        }
    }
}

/// A compact component identifier: a kind plus an index within that kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct CompId {
    /// What kind of thing this is.
    pub kind: CompKind,
    /// Index within the kind's namespace (e.g. global node id).
    pub index: u32,
}

impl CompId {
    /// The singleton system-wide component.
    pub const SYSTEM: CompId = CompId { kind: CompKind::System, index: 0 };
    /// The singleton datacenter environment component.
    pub const ENVIRONMENT: CompId = CompId { kind: CompKind::Environment, index: 0 };

    /// A node by global index.
    pub fn node(index: u32) -> CompId {
        CompId { kind: CompKind::Node, index }
    }

    /// A cabinet by index.
    pub fn cabinet(index: u32) -> CompId {
        CompId { kind: CompKind::Cabinet, index }
    }

    /// An HSN link by global index.
    pub fn link(index: u32) -> CompId {
        CompId { kind: CompKind::Link, index }
    }

    /// An HSN router by global index.
    pub fn router(index: u32) -> CompId {
        CompId { kind: CompKind::Router, index }
    }

    /// An object storage target by index.
    pub fn ost(index: u32) -> CompId {
        CompId { kind: CompKind::Ost, index }
    }

    /// A metadata server by index.
    pub fn mds(index: u32) -> CompId {
        CompId { kind: CompKind::Mds, index }
    }

    /// A job, keyed by job id.
    pub fn job(index: u32) -> CompId {
        CompId { kind: CompKind::Job, index }
    }

    /// A burst-buffer node by index.
    pub fn bb(index: u32) -> CompId {
        CompId { kind: CompKind::BurstBuffer, index }
    }

    /// Render as `kind/index`, the canonical textual form (used in topics).
    pub fn path(&self) -> String {
        format!("{}/{}", self.kind.label(), self.index)
    }
}

impl std::fmt::Display for CompId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}/{}", self.kind.label(), self.index)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn compact_size() {
        // Series keys are stored by the million; keep CompId at 8 bytes.
        assert_eq!(std::mem::size_of::<CompId>(), 8);
    }

    #[test]
    fn constructors_set_kind() {
        assert_eq!(CompId::node(7).kind, CompKind::Node);
        assert_eq!(CompId::node(7).index, 7);
        assert_eq!(CompId::cabinet(3).kind, CompKind::Cabinet);
        assert_eq!(CompId::link(2).kind, CompKind::Link);
        assert_eq!(CompId::router(4).kind, CompKind::Router);
        assert_eq!(CompId::ost(1).kind, CompKind::Ost);
        assert_eq!(CompId::mds(0).kind, CompKind::Mds);
        assert_eq!(CompId::job(99).kind, CompKind::Job);
        assert_eq!(CompId::SYSTEM.kind, CompKind::System);
        assert_eq!(CompId::ENVIRONMENT.kind, CompKind::Environment);
    }

    #[test]
    fn labels_unique_and_nonempty() {
        let labels: HashSet<_> = CompKind::ALL.iter().map(|k| k.label()).collect();
        assert_eq!(labels.len(), CompKind::ALL.len());
        assert!(labels.iter().all(|l| !l.is_empty()));
    }

    #[test]
    fn display_matches_path() {
        let c = CompId::node(42);
        assert_eq!(c.path(), "node/42");
        assert_eq!(format!("{c}"), "node/42");
    }

    #[test]
    fn ordering_groups_by_kind() {
        // Sorting samples groups all nodes together, enabling cache-friendly
        // per-kind scans in the store.
        let mut v = vec![CompId::node(1), CompId::cabinet(9), CompId::node(0)];
        v.sort();
        assert_eq!(v, vec![CompId::cabinet(9), CompId::node(0), CompId::node(1)]);
    }

    #[test]
    fn serde_round_trip() {
        let c = CompId::link(123);
        let s = serde_json::to_string(&c).unwrap();
        let back: CompId = serde_json::from_str(&s).unwrap();
        assert_eq!(c, back);
    }
}
