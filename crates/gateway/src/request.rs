//! The gateway's wire-level request/response model.
//!
//! Every operation the borrow-based [`hpcmon_store::QueryEngine`] offers is
//! mirrored here as a serde-serializable [`QueryRequest`] variant, so
//! external consumers (portals, dashboards, CLI tools) can submit queries
//! without linking against the store.  Responses and errors are values —
//! there is **no panicking path** from a malformed request to the pipeline.

use hpcmon_metrics::{CompId, CompKind, MetricId, SeriesKey, Ts};
use hpcmon_store::{AggFn, JobSeries, TimeRange};
use serde::{Deserialize, Serialize};

/// One query operation, mirroring [`hpcmon_store::QueryEngine`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum QueryRequest {
    /// Raw points of one series (`QueryEngine::series`).
    Series {
        /// The series to read.
        key: SeriesKey,
        /// Inclusive time range.
        range: TimeRange,
    },
    /// System-wide aggregate across all components of a metric
    /// (`QueryEngine::aggregate_across_components`).
    AggregateAcross {
        /// The metric to aggregate.
        metric: MetricId,
        /// Inclusive time range.
        range: TimeRange,
        /// Aggregation function applied per timestamp.
        agg: AggFn,
    },
    /// Group-by component kind (`QueryEngine::components_of_kind`).
    ComponentsOfKind {
        /// The metric to read.
        metric: MetricId,
        /// Component kind to keep.
        kind: CompKind,
        /// Inclusive time range.
        range: TimeRange,
    },
    /// Top-k components near an instant (`QueryEngine::top_components_at`).
    TopComponentsAt {
        /// The metric to rank.
        metric: MetricId,
        /// The instant of interest.
        at: Ts,
        /// Nearest-sample tolerance.
        tolerance_ms: u64,
        /// Row cap (after visibility filtering).
        limit: usize,
    },
    /// Fixed-bucket downsample of one series (`QueryEngine::downsample`).
    Downsample {
        /// The series to read.
        key: SeriesKey,
        /// Inclusive time range.
        range: TimeRange,
        /// Bucket width; must be positive.
        bucket_ms: u64,
        /// Aggregation within each bucket.
        agg: AggFn,
    },
    /// Inner join of two series on equal timestamps
    /// (`QueryEngine::align_join`).
    AlignJoin {
        /// Left series.
        a: SeriesKey,
        /// Right series.
        b: SeriesKey,
        /// Inclusive time range.
        range: TimeRange,
    },
    /// Per-job extraction (`QueryEngine::job_series`), resolved against the
    /// scheduler's stored allocations.
    JobSeries {
        /// Scheduler job id.
        job_id: u32,
        /// The metric to extract.
        metric: MetricId,
    },
}

impl QueryRequest {
    /// Surface-level validation that does not need the store: inverted
    /// ranges, zero buckets and quantiles outside `[0, 1]` are rejected
    /// before admission, so a bad
    /// request never occupies a worker.  (Deserialized `TimeRange`s bypass
    /// `TimeRange::new`'s assertion, so this must be checked here.)
    pub(crate) fn validate(&self) -> Result<(), QueryError> {
        let check_range = |r: &TimeRange| {
            if r.from > r.to {
                Err(QueryError::InvalidParam(format!(
                    "inverted time range: {} > {}",
                    r.from.0, r.to.0
                )))
            } else {
                Ok(())
            }
        };
        // `AggFn::apply` clamps a quantile, so an out-of-range one would
        // silently answer as the minimum or maximum.
        let check_agg = |agg: &AggFn| match agg {
            AggFn::Quantile(q) if !(0.0..=1.0).contains(q) => {
                Err(QueryError::InvalidParam(format!("quantile {q} outside [0, 1]")))
            }
            _ => Ok(()),
        };
        match self {
            QueryRequest::Series { range, .. }
            | QueryRequest::ComponentsOfKind { range, .. }
            | QueryRequest::AlignJoin { range, .. } => check_range(range),
            QueryRequest::AggregateAcross { range, agg, .. } => {
                check_range(range)?;
                check_agg(agg)
            }
            QueryRequest::Downsample { range, bucket_ms, agg, .. } => {
                check_range(range)?;
                check_agg(agg)?;
                if *bucket_ms == 0 {
                    return Err(QueryError::InvalidParam(
                        "downsample bucket must be positive".into(),
                    ));
                }
                Ok(())
            }
            QueryRequest::TopComponentsAt { .. } | QueryRequest::JobSeries { .. } => Ok(()),
        }
    }
}

/// The result of a successful query.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum QueryResponse {
    /// A single time series.
    Points(Vec<(Ts, f64)>),
    /// Per-component series (group-by results).
    Grouped(Vec<(CompId, Vec<(Ts, f64)>)>),
    /// Ranked (component, value) rows.
    Ranked(Vec<(CompId, f64)>),
    /// Two series joined on equal timestamps.
    Joined(Vec<(Ts, f64, f64)>),
    /// A per-job extraction.
    Job(JobSeries),
}

/// Why a query was not answered.  Every variant is a reportable value; the
/// gateway never panics on consumer input.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum QueryError {
    /// The request itself is malformed (inverted range, zero bucket, ...).
    InvalidParam(String),
    /// The principal may not read the requested data.
    AccessDenied(String),
    /// `JobSeries` referenced a job id the scheduler has no record of.
    UnknownJob(u32),
    /// The principal exceeded its token-bucket rate limit.
    RateLimited {
        /// The shed principal (consumer name).
        principal: String,
    },
    /// Every evaluation slot of the principal's shard was taken and
    /// `queue_capacity` callers already waited for one.
    QueueFull,
    /// The query's deadline budget expired before it was admitted.
    DeadlineExceeded,
}

impl std::fmt::Display for QueryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QueryError::InvalidParam(m) => write!(f, "invalid query parameter: {m}"),
            QueryError::AccessDenied(m) => write!(f, "access denied: {m}"),
            QueryError::UnknownJob(id) => write!(f, "unknown job id {id}"),
            QueryError::RateLimited { principal } => {
                write!(f, "rate limit exceeded for principal '{principal}'")
            }
            QueryError::QueueFull => write!(f, "admission wait line full"),
            QueryError::DeadlineExceeded => write!(f, "query deadline exceeded"),
        }
    }
}

impl std::error::Error for QueryError {}

impl From<hpcmon_store::InvalidParam> for QueryError {
    fn from(e: hpcmon_store::InvalidParam) -> QueryError {
        QueryError::InvalidParam(e.0)
    }
}

/// One delivery of a standing subscription, published on the subscriber's
/// broker topic as `Payload::Raw(serde_json bytes)`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SubscriptionUpdate {
    /// The subscription this update belongs to.
    pub id: u64,
    /// The pipeline tick that triggered the evaluation.
    pub tick: Ts,
    /// True when the payload carries only points newer than the previous
    /// delivery (incremental `Series` evaluation); false for a full re-eval.
    pub incremental: bool,
    /// The (scoped) query result.
    pub result: QueryResponse,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validate_rejects_inverted_range_and_zero_bucket() {
        let inverted = TimeRange { from: Ts(10), to: Ts(5) };
        let req = QueryRequest::Series {
            key: SeriesKey::new(MetricId(0), CompId::node(0)),
            range: inverted,
        };
        assert!(matches!(req.validate(), Err(QueryError::InvalidParam(_))));

        let req = QueryRequest::Downsample {
            key: SeriesKey::new(MetricId(0), CompId::node(0)),
            range: TimeRange::all(),
            bucket_ms: 0,
            agg: AggFn::Mean,
        };
        assert!(matches!(req.validate(), Err(QueryError::InvalidParam(_))));

        let req = QueryRequest::AggregateAcross {
            metric: MetricId(0),
            range: TimeRange::all(),
            agg: AggFn::Sum,
        };
        assert!(req.validate().is_ok());
    }

    #[test]
    fn request_and_error_round_trip_serde() {
        let req = QueryRequest::TopComponentsAt {
            metric: MetricId(3),
            at: Ts(60_000),
            tolerance_ms: 500,
            limit: 10,
        };
        let s = serde_json::to_string(&req).unwrap();
        let back: QueryRequest = serde_json::from_str(&s).unwrap();
        assert_eq!(req, back);

        let err = QueryError::RateLimited { principal: "alice-portal".into() };
        let s = serde_json::to_string(&err).unwrap();
        let back: QueryError = serde_json::from_str(&s).unwrap();
        assert_eq!(err, back);
    }
}
