//! Trace identity: the context stamped on frames and envelopes.

use serde::{Deserialize, Serialize};

/// Identity of one end-to-end trace (one frame, one query, ...).
///
/// Ids are allocated by the [`crate::Tracer`] from a process-local counter
/// and are never zero; `TraceId(0)` is reserved as "untraced" so a raw
/// `u64` exemplar slot can use 0 for "empty".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct TraceId(pub u64);

impl TraceId {
    /// The reserved "no trace" id.
    pub const NONE: TraceId = TraceId(0);
}

/// Identity of one span within a trace.  `SpanId(0)` means "no span":
/// a context with span id 0 has no parent yet (its first span becomes the
/// trace root).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct SpanId(pub u64);

impl SpanId {
    /// The reserved "no span / root parent" id.
    pub const NONE: SpanId = SpanId(0);
}

/// The causal context carried through the pipeline: which trace a datum
/// belongs to, which span is its current parent, and whether the head
/// sampler elected it for full span recording.
///
/// The context is three words; stamping it on an envelope costs a copy.
/// `sampled == false` contexts still carry identity so that a drop or
/// shed anywhere downstream can be recorded with full provenance (the
/// drop span is recorded unconditionally — losing data is always worth a
/// trace).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceContext {
    /// The trace this datum belongs to.
    pub trace_id: TraceId,
    /// The span to parent further spans under (`SpanId::NONE` at the root).
    pub span_id: SpanId,
    /// Whether ordinary (non-drop) spans are recorded for this trace.
    pub sampled: bool,
}

impl TraceContext {
    /// A context at the head of a new trace.
    pub(crate) fn root(trace_id: TraceId, sampled: bool) -> TraceContext {
        TraceContext { trace_id, span_id: SpanId::NONE, sampled }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn context_serde_round_trips() {
        let ctx = TraceContext { trace_id: TraceId(42), span_id: SpanId(7), sampled: true };
        let s = serde_json::to_string(&ctx).unwrap();
        let back: TraceContext = serde_json::from_str(&s).unwrap();
        assert_eq!(ctx, back);
    }

    #[test]
    fn reserved_ids() {
        let ctx = TraceContext::root(TraceId(9), false);
        assert_eq!(ctx.span_id, SpanId::NONE);
    }
}
