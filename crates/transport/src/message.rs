//! Message envelope and payloads.
//!
//! Payloads travel in **native form** — typed frames and log records, or
//! raw bytes for anything else — honoring the Table I requirement that
//! "tools to transport and store the data in native format are highly
//! desirable" (ALCF's Deluge exists because Cray's translation/filtration
//! lost information).

use bytes::Bytes;
use hpcmon_metrics::{ColumnFrame, JobRecord, LogRecord};
use hpcmon_trace::TraceContext;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// The content of a message.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Payload {
    /// A synchronized frame of numeric samples — the arena-backed hot
    /// path hands these to transport by `Arc` swap, no copy.
    Columns(Arc<ColumnFrame>),
    /// One log record.
    Log(Arc<LogRecord>),
    /// A job record (scheduler stream).
    Job(Arc<JobRecord>),
    /// Uninterpreted bytes (vendor-native blobs pass through untouched).
    #[serde(with = "raw_bytes")]
    Raw(Bytes),
}

mod raw_bytes {
    use bytes::Bytes;
    use serde::{Deserialize, Deserializer, Serialize, Serializer};

    pub(crate) fn serialize<S: Serializer>(b: &Bytes, s: S) -> Result<S::Ok, S::Error> {
        b.as_ref().serialize(s)
    }

    pub(crate) fn deserialize<'de, D: Deserializer<'de>>(d: D) -> Result<Bytes, D::Error> {
        Ok(Bytes::from(Vec::<u8>::deserialize(d)?))
    }
}

impl Payload {
    /// Approximate in-memory size, for throughput accounting.
    pub(crate) fn approx_bytes(&self) -> usize {
        match self {
            Payload::Columns(c) => c.len() * std::mem::size_of::<hpcmon_metrics::Sample>(),
            Payload::Log(l) => l.message.len() + l.source.len() + 32,
            Payload::Job(j) => j.nodes.len() * 4 + j.user.len() + j.name.len() + 48,
            Payload::Raw(b) => b.len(),
        }
    }

    /// The frame, if this is a frame payload.
    pub fn as_columns(&self) -> Option<&Arc<ColumnFrame>> {
        match self {
            Payload::Columns(c) => Some(c),
            _ => None,
        }
    }

    /// The log record, if this is a log payload.
    pub fn as_log(&self) -> Option<&LogRecord> {
        match self {
            Payload::Log(l) => Some(l),
            _ => None,
        }
    }
}

/// A routed message: topic + sequence number + payload.
///
/// Payloads are `Arc`-shared, so fanning out to N subscribers costs N
/// reference bumps, not N copies — the broker stays cheap at high rates.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Envelope {
    /// The topic it was published on.
    pub topic: String,
    /// Broker-assigned sequence number (gap detection at consumers).
    pub seq: u64,
    /// Causal trace context, when the datum was stamped at the head of
    /// the pipeline.  `None` for untraced messages; absent in serialized
    /// envelopes from older producers (deserializes as `None`).
    pub trace: Option<TraceContext>,
    /// The content.
    pub payload: Payload,
}

/// Why a serialized envelope was rejected at decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeError(String);

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "envelope decode failed: {}", self.0)
    }
}

impl std::error::Error for DecodeError {}

impl Envelope {
    /// Serialize to the JSON wire form (cross-process bridges).
    pub fn encode(&self) -> Result<Vec<u8>, serde_json::Error> {
        serde_json::to_vec(self)
    }

    /// The hardened wire-decode path: parses JSON bytes into an envelope
    /// and sanity-checks it.  Truncated, bit-flipped, or otherwise mangled
    /// payloads return an error — they must be **counted and skipped** by
    /// the caller (see `Broker::decode_envelope`), never unwrapped.
    pub(crate) fn decode(bytes: &[u8]) -> Result<Envelope, DecodeError> {
        let env: Envelope =
            serde_json::from_slice(bytes).map_err(|e| DecodeError(e.to_string()))?;
        // Valid JSON can still be a mangled envelope: a flipped bit inside
        // a string literal survives parsing.  Reject the observably absurd.
        if env.topic.is_empty() {
            return Err(DecodeError("empty topic".to_owned()));
        }
        Ok(env)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpcmon_metrics::{CompId, MetricId, Severity, Ts};

    #[test]
    fn accessors_are_exclusive() {
        let mut cf = ColumnFrame::new(Ts(1));
        cf.push(MetricId(0), CompId::node(0), 1.0);
        cf.push(MetricId(0), CompId::node(1), 2.0);
        let c = Payload::Columns(Arc::new(cf));
        assert!(c.as_columns().is_some());
        assert!(c.as_log().is_none());
        assert_eq!(c.as_columns().unwrap().len(), 2);
        assert!(c.approx_bytes() > 0);

        let l = Payload::Log(Arc::new(LogRecord::new(
            Ts(1),
            CompId::node(0),
            Severity::Info,
            "console",
            "hello",
        )));
        assert!(l.as_log().is_some());
        assert!(l.as_columns().is_none());
    }

    #[test]
    fn approx_bytes_positive_for_content() {
        let mut frame = ColumnFrame::new(Ts(1));
        frame.push(MetricId(0), CompId::node(0), 1.0);
        assert!(Payload::Columns(Arc::new(frame)).approx_bytes() > 0);
        assert_eq!(Payload::Raw(Bytes::from_static(b"abc")).approx_bytes(), 3);
    }

    #[test]
    fn clone_shares_frame_storage() {
        let mut frame = ColumnFrame::new(Ts(1));
        for i in 0..1_000 {
            frame.push(MetricId(0), CompId::node(i), i as f64);
        }
        let p = Payload::Columns(Arc::new(frame));
        let q = p.clone();
        assert!(Arc::ptr_eq(p.as_columns().unwrap(), q.as_columns().unwrap()));
    }

    #[test]
    fn envelope_serde_round_trip() {
        let env = Envelope {
            topic: "logs/console".into(),
            seq: 7,
            trace: None,
            payload: Payload::Raw(Bytes::from_static(b"\x00\x01\x02")),
        };
        let s = serde_json::to_string(&env).unwrap();
        let back: Envelope = serde_json::from_str(&s).unwrap();
        assert_eq!(env, back);
    }

    #[test]
    fn envelope_with_trace_context_round_trips() {
        use hpcmon_trace::{SpanId, TraceId};
        let env = Envelope {
            topic: "metrics/frame".into(),
            seq: 3,
            trace: Some(TraceContext { trace_id: TraceId(17), span_id: SpanId(4), sampled: true }),
            payload: Payload::Raw(Bytes::from_static(b"x")),
        };
        let s = serde_json::to_string(&env).unwrap();
        let back: Envelope = serde_json::from_str(&s).unwrap();
        assert_eq!(env, back);
    }

    #[test]
    fn decode_rejects_truncated_and_bit_flipped_payloads() {
        let mut frame = ColumnFrame::new(Ts(9));
        frame.push(MetricId(1), CompId::node(4), 2.5);
        let env = Envelope {
            topic: "metrics/frame".into(),
            seq: 11,
            trace: None,
            payload: Payload::Columns(Arc::new(frame)),
        };
        let wire = env.encode().unwrap();
        assert_eq!(Envelope::decode(&wire).unwrap(), env, "clean bytes round-trip");

        // Truncation at every prefix length: must error, never panic.
        for cut in 0..wire.len() {
            assert!(Envelope::decode(&wire[..cut]).is_err(), "truncated at {cut} must fail");
        }

        // Single-bit flips at every position: must decode, error, or (for
        // flips inside string content) yield a *different* envelope —
        // never panic.
        for byte in 0..wire.len() {
            for bit in 0..8 {
                let mut mangled = wire.clone();
                mangled[byte] ^= 1 << bit;
                let _ = Envelope::decode(&mangled);
            }
        }

        // Structurally valid JSON that is not a sane envelope.
        assert!(Envelope::decode(br#"{"topic":"","seq":1,"payload":{"Raw":[]}}"#).is_err());
        assert!(Envelope::decode(b"\xff\xfe not utf8").is_err());
        assert!(Envelope::decode(b"").is_err());
    }

    #[test]
    fn envelope_without_trace_key_deserializes_as_none() {
        // An envelope serialized before the trace field existed: the key
        // is simply absent, and must decode as `trace: None`.
        let legacy = r#"{"topic":"t","seq":1,"payload":{"Raw":[9]}}"#;
        let back: Envelope = serde_json::from_str(legacy).unwrap();
        assert_eq!(back.trace, None);
        assert_eq!(back.seq, 1);
    }
}
