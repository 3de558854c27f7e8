#![forbid(unsafe_code)]

//! Deterministic SLO engine and burn-rate alerting for the monitoring
//! plane itself.
//!
//! The source paper's operators all learned the same lesson: a monitoring
//! system that is not itself monitored fails silently, and raw series are
//! not actionable — operators need "the broker is degraded", not ten
//! thousand gauges.  This crate turns `hpcmon`'s self-telemetry and
//! pipeline state into exactly that:
//!
//! * [`SloSpec`] — declarative objectives (target good-ratio + fast/slow
//!   rolling windows) over named good/bad feeds, evaluated with
//!   Google-SRE-style multi-window multi-burn-rate logic: an alert
//!   condition holds only while both the fast (default 5-tick) and slow
//!   (default 60-tick) windows burn error budget above threshold.
//! * [`HealthEngine`] — the per-tick evaluator and alert state machine
//!   (`Ok → Pending → Firing → Resolved`) with dedup keys, tick-keyed
//!   [`Silence`]s, and hysteresis on both edges.  Every transition is an
//!   [`AlertEvent`]: a serde value the pipeline publishes on the broker
//!   (`health/alerts`), republishes as `hpcmon.self.health.*` series, and
//!   byte-diffs between runs via [`HealthEngine::canonical_timeline`].
//! * [`HealthReport`] — the per-subsystem grades, active alerts, and
//!   per-site rollup rows that `hpcmon-viz`'s health board renders.
//!
//! Everything is keyed by tick, never wall clock; state snapshots
//! ([`HealthSnapshot`]) restore bit-exactly so replay reproduces alert
//! histories, and [`HealthEngine::state_digest`] folds into the replay
//! hash chain.

#![warn(missing_docs)]

pub mod alert;
pub mod engine;
pub mod slo;

pub use alert::{
    ActiveAlert, AlertEvent, Grade, HealthReport, Silence, SiteHealth, SubsystemHealth, Transition,
};
pub use engine::{FeedValue, HealthConfig, HealthEngine, HealthSnapshot, Phase, SloState};
pub use slo::{burn_rate, SloSpec, Subsystem};
