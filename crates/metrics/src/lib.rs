#![warn(missing_docs)]
#![deny(unsafe_code)]

//! Shared data model for the `hpcmon` monitoring framework.
//!
//! Every other crate in the workspace speaks in terms of the types defined
//! here: [`Ts`] timestamps, [`CompId`] component identities, [`MetricId`]
//! interned metric names, [`Sample`] numeric observations, [`LogRecord`]
//! textual events, and [`JobRecord`] workload allocations.
//!
//! The paper (*Large-Scale System Monitoring Experiences and
//! Recommendations*, CLUSTER 2018) stresses that monitoring data spans
//! "event, text, numeric time series" and must be associated across
//! components and time (Table I).  This crate is the single vocabulary that
//! makes that association possible: one timestamp type, one component
//! namespace, one metric namespace.

#[cfg(feature = "alloc-count")]
#[allow(unsafe_code)]
pub mod alloc_count;
pub mod arena;
pub mod component;
pub mod hash;
pub mod job;
pub mod layout;
pub mod log;
pub mod metric;
pub mod sample;
pub mod time;

pub use arena::{ColumnFrame, FrameArena, KeyColumn};
pub use component::{CompId, CompKind};
pub use hash::StateHash;
pub use job::{JobId, JobRecord, JobState};
pub use layout::{FrameLayout, MetricRun};
pub use log::{LogRecord, Severity};
pub use metric::{MetricId, MetricMeta, MetricRegistry, Unit};
pub use sample::{FrameCoverage, Sample, SeriesKey};
pub use time::{Ts, TsDelta, MINUTE_MS, SECOND_MS};
