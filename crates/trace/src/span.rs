//! Span records: what happened to a datum at one pipeline stage.

use crate::context::{SpanId, TraceId};
use serde::{Deserialize, Serialize};

/// The pipeline stage a span describes.  A closed set, mirroring the
/// tick-loop order, so renderers can color and sort without a registry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Stage {
    /// The whole tick (root span of a frame trace).
    Tick,
    /// Synchronized collection into the frame.
    Collect,
    /// Broker publish / fan-out.
    Transport,
    /// Store ingest off the broker.
    Store,
    /// Streaming analysis over the fresh frame and logs.
    Analysis,
    /// Response routing and actuation.
    Response,
    /// Gateway query serving (root span of a query trace).
    Gateway,
    /// Federation plane: WAN rollup delivery and scatter-gather merging.
    Federation,
}

impl Stage {
    /// Stable lowercase name (metric/label friendly).
    pub fn as_str(self) -> &'static str {
        match self {
            Stage::Tick => "tick",
            Stage::Collect => "collect",
            Stage::Transport => "transport",
            Stage::Store => "store",
            Stage::Analysis => "analysis",
            Stage::Response => "response",
            Stage::Gateway => "gateway",
            Stage::Federation => "federation",
        }
    }
}

/// Why a datum was lost.  Mirrors the broker's backpressure policies and
/// the gateway's admission decisions — the full set of places this system
/// deliberately sheds load.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DropReason {
    /// `DropNewest` subscriber queue was full; the new message was lost.
    QueueFull,
    /// `DropOldest` subscriber queue was full; the oldest message was lost.
    DropOldest,
    /// The subscriber disconnected; the delivery went nowhere.
    PrunedReceiver,
    /// A gateway query's deadline budget expired before evaluation.
    DeadlineShed,
    /// A gateway principal exceeded its token-bucket rate limit.
    RateLimited,
    /// Every slot of a gateway shard was taken and its wait line full.
    AdmissionFull,
    /// The envelope failed to decode (truncated or bit-flipped payload)
    /// and was skipped at ingest.
    CorruptEnvelope,
    /// The ingest spill queue overflowed; the oldest spilled frame was
    /// evicted (drop-oldest).
    SpillOverflow,
    /// A federated scatter skipped a site whose WAN link was partitioned.
    WanPartition,
    /// A WAN link's in-transit backlog overflowed; the oldest queued
    /// rollup batch was evicted (drop-oldest).
    WanBacklogOverflow,
}

impl DropReason {
    /// Stable lowercase name (metric/label friendly).
    pub fn as_str(self) -> &'static str {
        match self {
            DropReason::QueueFull => "queue_full",
            DropReason::DropOldest => "drop_oldest",
            DropReason::PrunedReceiver => "pruned_receiver",
            DropReason::DeadlineShed => "deadline_shed",
            DropReason::RateLimited => "rate_limited",
            DropReason::AdmissionFull => "admission_full",
            DropReason::CorruptEnvelope => "corrupt_envelope",
            DropReason::SpillOverflow => "spill_overflow",
            DropReason::WanPartition => "wan_partition",
            DropReason::WanBacklogOverflow => "wan_backlog_overflow",
        }
    }
}

/// How a span ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SpanStatus {
    /// The stage completed and handed the datum onward.
    Completed,
    /// The datum was lost at this stage for the given reason.
    Dropped(DropReason),
}

impl SpanStatus {
    /// The drop reason, if this span records a loss.
    pub fn drop_reason(self) -> Option<DropReason> {
        match self {
            SpanStatus::Completed => None,
            SpanStatus::Dropped(r) => Some(r),
        }
    }
}

/// One recorded span: a stage's view of one datum.
///
/// Timestamps are nanoseconds since the owning [`crate::Tracer`]'s epoch
/// (monotonic, process-local) — cheap to take and directly comparable
/// across spans of the same process.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SpanRecord {
    /// The trace this span belongs to.
    pub trace_id: TraceId,
    /// This span's id.
    pub span_id: SpanId,
    /// Parent span (`SpanId::NONE` for the trace root).
    pub parent: SpanId,
    /// The pipeline stage.
    pub stage: Stage,
    /// Start, nanoseconds since tracer epoch.
    pub start_ns: u64,
    /// End, nanoseconds since tracer epoch.
    pub end_ns: u64,
    /// Completed or dropped-with-reason.
    pub status: SpanStatus,
    /// Free-form detail: topic, subscriber pattern, query kind, ...
    pub note: String,
}

impl SpanRecord {
    /// Span duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// Whether this span records a loss.
    pub(crate) fn is_drop(&self) -> bool {
        matches!(self.status, SpanStatus::Dropped(_))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_serde_round_trips() {
        let span = SpanRecord {
            trace_id: TraceId(5),
            span_id: SpanId(2),
            parent: SpanId(1),
            stage: Stage::Transport,
            start_ns: 100,
            end_ns: 250,
            status: SpanStatus::Dropped(DropReason::QueueFull),
            note: "metrics/frame".into(),
        };
        let s = serde_json::to_string(&span).unwrap();
        let back: SpanRecord = serde_json::from_str(&s).unwrap();
        assert_eq!(span, back);
        assert_eq!(back.duration_ns(), 150);
        assert!(back.is_drop());
        assert_eq!(back.status.drop_reason(), Some(DropReason::QueueFull));
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(Stage::Gateway.as_str(), "gateway");
        assert_eq!(DropReason::DeadlineShed.as_str(), "deadline_shed");
        assert_eq!(DropReason::CorruptEnvelope.as_str(), "corrupt_envelope");
        assert_eq!(DropReason::SpillOverflow.as_str(), "spill_overflow");
        assert_eq!(Stage::Federation.as_str(), "federation");
        assert_eq!(DropReason::WanPartition.as_str(), "wan_partition");
        assert_eq!(DropReason::WanBacklogOverflow.as_str(), "wan_backlog_overflow");
    }
}
