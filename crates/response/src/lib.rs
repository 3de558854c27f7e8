#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! `hpcmon-response` — acting on analysis results.
//!
//! Table I (Response): *"Reporting and alerting capabilities should be
//! easily configurable.  These should be able to be triggered based on
//! arbitrary locations in the data and analysis pathways.  Data and
//! analysis results should be able to be exposed to applications and
//! system software."*
//!
//! The pieces:
//!
//! * [`signal::Signal`] — the common shape every analysis stage emits, so
//!   rules can attach anywhere in the pipeline.
//! * [`engine::ResponseEngine`] — configurable rules mapping signal
//!   patterns to [`engine::Action`]s, with per-(rule, component) cooldowns
//!   so an event storm cannot become an alert storm.
//! * [`access`] — per-consumer filtering: the paper notes that tools built
//!   for root-access admins can't share data with users; here every alert
//!   route has a role and user-facing routes only see what concerns them.

pub mod access;
pub mod engine;
pub mod signal;

pub use access::{AccessPolicy, Consumer, Role};
pub use engine::{
    Action, ActionTaken, ResponseEngine, ResponseRule, ResponseSnapshot, SignalMatch,
};
pub use signal::{Signal, SignalKind};
