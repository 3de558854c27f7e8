#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! `hpcmon-gateway` — the concurrent query-serving frontend.
//!
//! Table I requires monitoring data to be "available to multiple
//! consumers" under need-to-know access control, and the ROADMAP's north
//! star is a serving path, not just a pipeline.  The pieces:
//!
//! * [`request`] — serde-serializable [`QueryRequest`]s mirroring every
//!   `QueryEngine` operation, with value-typed errors (no panicking path
//!   from consumer input).
//! * [`service::Gateway`] — evaluates each query on its caller's thread
//!   against the shared [`hpcmon_store::TimeSeriesStore`], behind a
//!   per-shard admission gate with per-query deadline budgets.
//! * [`cache::ResultCache`] — an LRU keyed on (normalized request, scope,
//!   store epoch, job-view version); the store bumps its epoch on every
//!   mutation, so a cached response is never served whole across a change.
//!   A sliding `AggregateAcross` is extended instead while the store's
//!   history epoch holds: only the stamps since its last answer are folded.
//! * [`admission`] — per-principal token buckets plus the per-shard gate
//!   that bounds concurrent evaluation and sheds expired callers instead
//!   of stalling.
//! * Standing subscriptions — continuous queries re-evaluated each tick
//!   and delivered through `hpcmon-transport` broker topics.
//! * Self-telemetry — every instrument registers under `gateway.*`, so
//!   the self-monitoring feed republishes gateway activity as
//!   `hpcmon.self.gateway.*` series.

pub mod admission;
pub mod cache;
pub mod request;
pub mod service;

pub use cache::{CacheStats, ResultCache};
pub use request::{QueryError, QueryRequest, QueryResponse, SubscriptionUpdate};
pub use service::{Gateway, GatewayConfig, GatewaySnapshot, SubscriptionSnapshot};
