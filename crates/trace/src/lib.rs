#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! `hpcmon-trace` — follow one frame end-to-end.
//!
//! Aggregate self-telemetry (`hpcmon.self.*`) answers "is the pipeline
//! healthy"; it cannot answer the Table I operator question "where did
//! *this* datum go and why is it late?".  The vendor failure mode the
//! paper's sites complain about is monitoring data that is silently
//! dropped or delayed with no way to attribute the loss to a stage.  This
//! crate is the per-datum provenance layer that closes that gap:
//!
//! * [`TraceContext`] — a (trace id, span id, sampled) triple stamped on a
//!   frame at the collector and propagated through broker envelopes,
//!   store ingest, analysis, response, and gateway queries.
//! * [`Sampler`] — deterministic head sampling: a hash of the frame
//!   sequence number decides once, at the head of the pipeline, whether
//!   the frame records spans.  Drops and sheds are **always** recorded,
//!   even for unsampled frames, so every *lost* datum has a trace
//!   explaining which stage dropped it and why.
//! * [`SpanRing`] — the bounded ring buffer spans are recorded into (a
//!   mutex-guarded queue that rejects and counts when full); the
//!   [`Tracer`] keeps one ring per thread slot so the pipeline thread and
//!   gateway callers' threads do not contend.
//! * [`Tracer`] — hands out contexts and span guards; the hot path is a
//!   couple of relaxed atomics when sampled and a branch when not.
//! * [`TraceStore`] — assembles drained spans into completed [`Trace`]s,
//!   keeping a bounded window of recent traces indexed by id.
//!
//! Rendering (ASCII span trees, SVG timelines) lives in `hpcmon-viz`;
//! completed-trace counts are exported through the telemetry registry as
//! `hpcmon.self.trace.*` series like every other pipeline statistic.

pub mod context;
pub mod ring;
pub mod sampler;
pub mod span;
pub mod store;
pub mod tracer;

pub use context::{SpanId, TraceContext, TraceId};
pub use ring::SpanRing;
pub use sampler::Sampler;
pub use span::{DropReason, SpanRecord, SpanStatus, Stage};
pub use store::{Trace, TraceStore};
pub use tracer::{SpanGuard, Tracer, TracerStats};
