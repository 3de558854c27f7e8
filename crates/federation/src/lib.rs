#![forbid(unsafe_code)]

//! Multi-site federation: a scatter-gather query plane over N member
//! monitoring systems joined by simulated WAN links.
//!
//! The source paper is a ten-HPC-center collaboration — every site runs
//! its own full monitoring stack, and the hard problems are the
//! *cross-site* ones: flexible data paths, federated query, and surviving
//! inter-site link trouble.  This crate reproduces that shape in
//! miniature:
//!
//! * [`Federation`] owns N independent member sites (each a full
//!   [`hpcmon::system::MonitoringSystem`] with its own simulated cluster,
//!   store, and gateway) and steps them in **tick lockstep**.
//! * Each site is joined to the federation head by a simulated WAN link
//!   ([`WanLink`]) with per-link latency in ticks, bandwidth caps, and a
//!   bounded in-transit backlog; [`hpcmon_chaos::ChaosFault::WanPartition`],
//!   [`WanDelay`](hpcmon_chaos::ChaosFault::WanDelay), and
//!   [`WanBandwidth`](hpcmon_chaos::ChaosFault::WanBandwidth) faults are
//!   scheduled through the ordinary [`hpcmon_chaos::ChaosPlan`] machinery.
//! * Sites push **hierarchical rollups** (DCDB-style pushdown: a handful
//!   of site-level series, not per-node data) across their links;
//!   delivered batches are republished on the federation broker as
//!   `fed/rollup/<site>` and stored as `hpcmon.fed.*` series, so a global
//!   dashboard query touches O(sites) series instead of O(nodes).
//! * [`Federation::federated_query`] scatters one
//!   [`hpcmon_gateway::QueryRequest`] to every member gateway and merges
//!   centrally with **partial-result semantics**: every site appears in
//!   the answer's provenance as answered / timed-out / partitioned /
//!   failed — never silently dropped.  Per-site clock skew is aligned to
//!   federation time on both the request and response paths.
//!
//! Everything is deterministic: the same seeds and the same WAN fault
//! plan produce bit-identical federated answers and rollup stores on every
//! run.

#![warn(missing_docs)]

pub mod config;
pub mod federation;
pub mod scatter;
pub mod wan;

pub use config::{FederationConfig, SiteSpec, WanLinkSpec};
pub use federation::{site_comp, FedMetricIds, Federation};
pub use scatter::{FedQueryResult, FedResponse, FedRow, SiteOutcome, SiteStatus};
pub use wan::{InTransit, WanLink};
