#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! `hpcmon` — an end-to-end monitoring framework for large-scale HPC
//! systems.
//!
//! This is the facade crate: it wires the cluster simulator
//! ([`hpcmon_sim`]), the collectors and probes ([`hpcmon_collect`]), the
//! pub/sub transport ([`hpcmon_transport`]), the tiered store
//! ([`hpcmon_store`]), the analyses ([`hpcmon_analysis`]), and the
//! response engine ([`hpcmon_response`]) into one [`MonitoringSystem`]
//! that advances a simulated machine and its monitoring stack together,
//! one synchronized tick at a time.
//!
//! ```
//! use hpcmon::{MonitoringSystem, SimConfig};
//! use hpcmon_sim::{AppProfile, JobSpec};
//! use hpcmon_metrics::Ts;
//!
//! let mut mon = MonitoringSystem::builder(SimConfig::small()).build();
//! mon.submit_job(JobSpec::new(
//!     AppProfile::compute_heavy("stencil"), "alice", 16, 10 * 60_000, Ts::ZERO,
//! ));
//! mon.run_ticks(15);
//! assert!(mon.store().stats().series > 0);
//! ```

pub mod pipeline;
pub mod scenarios;
pub mod system;

pub use hpcmon_analysis as analysis;
pub use hpcmon_collect as collect;
pub use hpcmon_durability as durability;
pub use hpcmon_gateway as gateway;
pub use hpcmon_health as health;
pub use hpcmon_metrics as metrics;
pub use hpcmon_response as response;
pub use hpcmon_sim as sim;
pub use hpcmon_store as store;
pub use hpcmon_telemetry as telemetry;
pub use hpcmon_trace as trace;
pub use hpcmon_transport as transport;
pub use hpcmon_viz as viz;

pub use hpcmon_sim::SimConfig;
pub use system::{
    CoreSnapshot, DivergenceReport, DurableSample, DurableTickRecord, GatewayOp, MonitorBuilder,
    MonitorOptions, MonitoringSystem, RecoveryOutcome, ReplayError, ReplayOutcome, Replayer,
    RunSummary, TickInputs, TickStateHash,
};
