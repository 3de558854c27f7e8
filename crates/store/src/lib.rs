#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! `hpcmon-store` — storage for monitoring data.
//!
//! Table I (Data Storage and Formats): *"Easy access to historical data and
//! the ability to access historical data in conjunction with current data
//! is required ... hierarchical storage models with the ability to locate
//! and reload data as needed are desirable.  Analysis results should be
//! able to be stored with raw data."*
//!
//! The pieces:
//!
//! * [`compress`] — delta-of-delta timestamps + Gorilla XOR floats, a run
//!   of a regular cadence or of a repeated value coded once; one-minute
//!   node metrics compress to under 2 bytes a sample, nearly all of it
//!   values that change.
//! * [`tsdb::TimeSeriesStore`] — sharded hot buffers that seal into
//!   compressed warm blocks; one store holds raw metrics *and* analysis
//!   outputs (they are just more series).
//! * [`cohort`] — the tick-major hot tier: the series a synchronized frame
//!   feeds one point a tick share one row-major matrix per shard, so the
//!   frame lands as one row; a series whose last block sealed flat holds
//!   its one value instead of a column.
//! * [`snapshot::StoreSnapshot`] — the checkpoint form: the whole store as
//!   one packed binary section, hot buffers written as unsealed blocks.
//! * [`archive::Archive`] — the cold tier: whole time ranges serialized
//!   out, catalogued, and reloadable into the query path.
//! * [`logstore::LogStore`] — append-only log storage with a token inverted
//!   index and a full-scan fallback (the `abl_logindex` ablation measures
//!   the difference).
//! * [`query`] — range scans, group-by, per-bucket aggregation,
//!   downsampling, and per-job extraction against stored allocations; every
//!   per-stamp aggregate is one [`Fold`] over the series as they stream out.

pub mod archive;
pub mod cohort;
pub mod compress;
pub mod logstore;
pub mod query;
pub mod retention;
pub mod snapshot;
pub mod tsdb;

pub use archive::{Archive, ArchiveCatalog, ArchiveError};
pub use cohort::HotLayout;
pub use logstore::{LogQuery, LogStore};
pub use query::{AggFn, Fold, InvalidParam, JobSeries, QueryEngine, TimeRange};
pub use retention::{RetentionPolicy, RetentionReport};
pub use snapshot::StoreSnapshot;
pub use tsdb::{
    BlockError, IngestRoute, SeriesBlock, StoreOpCounts, StoreStats, TimeSeriesStore, WriteError,
};
