//! The tiered time-series store.
//!
//! Layout: `SeriesKey → { warm: Vec<SeriesBlock>, hot }`, sharded by key
//! hash behind `parking_lot` RwLocks so collector threads ingest
//! concurrently with query threads.  A series' hot points are its own
//! `Vec<(Ts, f64)>` — what `insert()` writes — or, for the series a
//! synchronized frame feeds one point a tick, a column of one of its shard's
//! cohorts ([`crate::cohort`]).  Either way they seal into the same
//! compressed warm blocks at a size threshold; `archive` (cold tier) can
//! evict warm blocks wholesale and reload them later.

use crate::cohort::{Cohorts, Seat, ShardPlan};
use crate::compress;
use hpcmon_metrics::{ColumnFrame, CompId, KeyColumn, MetricId, Sample, SeriesKey, Ts};
use parking_lot::RwLock;
use serde::{Deserialize, Serialize};
use std::collections::hash_map::{DefaultHasher, Entry};
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// A sealed, compressed run of one series.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SeriesBlock {
    /// The series this block belongs to.
    pub key: SeriesKey,
    /// First timestamp in the block.
    pub start: Ts,
    /// Last timestamp in the block.
    pub end: Ts,
    /// Number of points.
    pub count: u32,
    /// Compressed timestamps.
    pub ts_bytes: Vec<u8>,
    /// Compressed values.
    pub val_bytes: Vec<u8>,
}

/// Why a [`SeriesBlock`] failed to decompress.
///
/// Archived blocks cross a (de)serialization boundary in `archive.rs`, so
/// corrupt bytes are an *input* condition, not a logic error — callers get
/// a `Result`, never a panic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockError {
    /// The timestamp stream is truncated, overflows, or goes negative.
    Timestamps,
    /// The Gorilla value stream is truncated or malformed.
    Values,
    /// Streams decoded but their lengths disagree with each other or with
    /// the block's declared `count`.
    CountMismatch,
}

impl std::fmt::Display for BlockError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BlockError::Timestamps => write!(f, "corrupt timestamp stream"),
            BlockError::Values => write!(f, "corrupt value stream"),
            BlockError::CountMismatch => write!(f, "decoded point count mismatch"),
        }
    }
}

impl std::error::Error for BlockError {}

/// Why a fault-aware write was refused.
///
/// Produced only by [`TimeSeriesStore::try_ingest_columns`], the ingest
/// entry point that honors injected shard write faults.  `insert` and
/// `ingest_columns` are fault-unaware and never fail.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteError {
    /// The named shard currently refuses writes (injected fault).  The
    /// frame was **not** inserted — not even its healthy shards — so the
    /// caller can spill it whole and retry later without double-ingesting.
    ShardUnavailable(usize),
}

impl std::fmt::Display for WriteError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WriteError::ShardUnavailable(s) => write!(f, "store shard {s} unavailable"),
        }
    }
}

impl std::error::Error for WriteError {}

/// Decode a block's two streams in lock step, handing each point to `visit`.
/// `None` on any corruption (either stream, or a length that disagrees with
/// `count`) — possibly after some points were visited.  The value header is
/// bounded ([`compress::MAX_BLOCK_POINTS`]); the stamp header must match it
/// before either stream is looped over.
pub(crate) fn decode_streams(
    ts_bytes: &[u8],
    val_bytes: &[u8],
    count: u32,
    mut visit: impl FnMut(Ts, f64),
) -> Option<()> {
    let mut ts = compress::TimestampDecoder::new(ts_bytes)?;
    let mut vals = compress::ValueDecoder::new(val_bytes)?;
    if ts.len != vals.len || ts.len != count as usize {
        return None;
    }
    for _ in 0..ts.len {
        visit(ts.next_ts()?, vals.next_value()?);
    }
    Some(())
}

impl SeriesBlock {
    /// Compress a non-empty, time-ordered run of points: both streams are
    /// encoded straight from the hot buffer, one exact-sized allocation each.
    pub fn compress(key: SeriesKey, points: &[(Ts, f64)]) -> SeriesBlock {
        assert!(!points.is_empty(), "cannot seal an empty block");
        debug_assert!(points.windows(2).all(|w| w[0].0 <= w[1].0), "points must be ordered");
        SeriesBlock {
            key,
            start: points[0].0,
            end: points[points.len() - 1].0,
            count: points.len() as u32,
            ts_bytes: compress::encode_timestamps(points.iter().map(|p| p.0)),
            val_bytes: compress::encode_values(points, |p| p.1),
        }
    }

    /// Decode both streams in lock step, handing each point to `visit`.
    /// `None` on any corruption — possibly after some points were visited.
    fn try_visit(&self, visit: impl FnMut(Ts, f64)) -> Option<()> {
        decode_streams(&self.ts_bytes, &self.val_bytes, self.count, visit)
    }

    /// Why [`Self::try_visit`] failed: each stream on its own, timestamps
    /// first, then the counts.  Both streams are walked, not decoded, runs
    /// stepped over whole, so a header claiming billions of points costs
    /// what its bytes cost.
    fn diagnose(&self) -> BlockError {
        if compress::check_timestamps(&self.ts_bytes).is_none() {
            BlockError::Timestamps
        } else if compress::check_values(&self.val_bytes).is_none() {
            BlockError::Values
        } else {
            BlockError::CountMismatch
        }
    }

    /// Check that the block decodes, without materialising it.
    pub(crate) fn validate(&self) -> Result<(), BlockError> {
        self.try_visit(|_, _| {}).ok_or_else(|| self.diagnose())
    }

    /// Append the block's points inside `[from, to]` to `out`, or report why
    /// the bytes are corrupt (leaving `out` as it was).
    pub fn decode_into(
        &self,
        from: Ts,
        to: Ts,
        out: &mut Vec<(Ts, f64)>,
    ) -> Result<(), BlockError> {
        let mark = out.len();
        let decoded = self.try_visit(|t, v| {
            if t >= from && t <= to {
                out.push((t, v));
            }
        });
        decoded.ok_or_else(|| {
            out.truncate(mark);
            self.diagnose()
        })
    }

    /// Decompress back to points, or report why the bytes are corrupt.
    pub fn decompress(&self) -> Result<Vec<(Ts, f64)>, BlockError> {
        let mut out = Vec::with_capacity(self.point_bound());
        self.decode_into(Ts::ZERO, Ts(u64::MAX), &mut out)?;
        Ok(out)
    }

    /// The most points the block can decode to: its `count`, or none when
    /// that is more than a value stream may claim (the decode refuses it).
    /// The bytes bound nothing: a run codes any number of points.
    fn point_bound(&self) -> usize {
        Some(self.count as usize).filter(|&n| n <= compress::MAX_BLOCK_POINTS).unwrap_or(0)
    }

    /// Compressed size in bytes.
    pub fn compressed_bytes(&self) -> usize {
        self.ts_bytes.len() + self.val_bytes.len()
    }

    /// Whether the block overlaps `[from, to]`.
    pub(crate) fn overlaps(&self, from: Ts, to: Ts) -> bool {
        self.start <= to && self.end >= from
    }
}

/// One warm block's decoded stamps, kept for the next block whose stamp
/// bytes are the same — a cohort seals every member with identical stamp
/// bytes, so across the series of one metric the stamps mostly decode once.
#[derive(Debug, Default)]
struct StampCache {
    /// The stamp bytes `stamps` decoded from; `None` until a decode succeeds.
    bytes: Option<Vec<u8>>,
    stamps: Vec<Ts>,
}

impl StampCache {
    /// Fill `out` with `block`'s points inside `[from, to]`, decoding only
    /// its values when its stamp bytes are those last decoded here.  `None`
    /// on any corruption — exactly the blocks
    /// [`SeriesBlock::decode_into`] rejects.
    fn decode_into(
        &mut self,
        block: &SeriesBlock,
        from: Ts,
        to: Ts,
        out: &mut Vec<(Ts, f64)>,
    ) -> Option<()> {
        out.clear();
        // The value header is bounded; the stamp header must match it
        // before the stamps are looped over.
        let mut vals = compress::ValueDecoder::new(&block.val_bytes)?;
        if vals.len != block.count as usize {
            return None;
        }
        if self.bytes.as_deref() != Some(&block.ts_bytes[..]) {
            self.bytes = None;
            self.stamps.clear();
            let mut ts = compress::TimestampDecoder::new(&block.ts_bytes)?;
            if ts.len != vals.len {
                return None;
            }
            for _ in 0..ts.len {
                self.stamps.push(ts.next_ts()?);
            }
            self.bytes = Some(block.ts_bytes.clone());
        }
        if self.stamps.len() != vals.len {
            return None;
        }
        for &t in &self.stamps {
            let v = vals.next_value()?;
            if t >= from && t <= to {
                out.push((t, v));
            }
        }
        Some(())
    }
}

/// Append a freshly sealed block to a series' warm list.  The first takes
/// one slot, not the four an empty `Vec` grows to: every series seals its
/// first block on the same tick, and at 65,536 nodes three empty 80-byte
/// slots a series were ~285 MB of that tick's peak.  Later pushes grow as
/// `Vec` does.
pub(crate) fn push_warm(warm: &mut Vec<SeriesBlock>, block: SeriesBlock) {
    if warm.capacity() == 0 {
        warm.reserve_exact(1);
    }
    warm.push(block);
}

#[derive(Debug, Default)]
pub(crate) struct SeriesData {
    pub(crate) warm: Vec<SeriesBlock>,
    pub(crate) hot: Vec<(Ts, f64)>,
}

/// One series in a shard's slab: the key plus its tiered data.
#[derive(Debug)]
pub(crate) struct SeriesSlot {
    pub(crate) key: SeriesKey,
    pub(crate) data: SeriesData,
    /// Set while the series' hot points are a cohort column (`data.hot`
    /// then stays empty).
    pub(crate) seat: Seat,
}

/// A shard is a **slab** of series plus a key→slot index, and the cohorts
/// some of those series keep their hot points in.  Slots are append-only
/// under ingest, so a slot number resolved once stays valid until a
/// slot-moving operation (retention drop, snapshot load) bumps the store's
/// layout generation — which is what lets [`IngestRoute`] keep slot numbers
/// instead of hashing every sample.
#[derive(Default)]
pub(crate) struct Shard {
    pub(crate) slots: Vec<SeriesSlot>,
    pub(crate) index: HashMap<SeriesKey, u32>,
    pub(crate) cohorts: Cohorts,
}

/// A caller-owned routing cache for columnar ingest: per shard, where the
/// frame's samples land — for each cohort the frame position of every
/// column's sample, so a synchronized frame lands as one gathered row, plus
/// position and slab slot of the samples of series in no cohort.
///
/// Frames produced by a fixed collector set repeat the same key column
/// tick after tick, so the route — built once with hashing and lookups —
/// is validated per tick and reused.  The route holds the key column it
/// routed, shared with the frame: a frame on the same buffer agrees with
/// it up to the shorter length without a key compared, any other is swept
/// against it; the slots are checked by one generation check per shard.
/// Ingest then costs one pass over the frame's
/// values that fills every cohort's row, plus one slab index and push per
/// loose sample, every touched shard locked once, and **zero
/// allocations**.  A key column that changes is re-routed from the first
/// key that differs, so a tail that comes and goes (the benchmark suite's
/// samples every tenth tick) costs the tail.
#[derive(Debug, Default)]
pub struct IngestRoute {
    /// Store layout generation the slot numbers were resolved at.
    layout: u64,
    /// The key column the route describes, shared with the frame it
    /// routed.
    pub(crate) column: KeyColumn,
    pub(crate) per_shard: Vec<ShardPlan>,
}

impl IngestRoute {
    /// An empty route; the first ingest through it builds the cache.
    pub fn new() -> IngestRoute {
        IngestRoute::default()
    }

    /// Whether any sample of the routed frame lands in `shard`.
    pub(crate) fn touches(&self, shard: usize) -> bool {
        self.per_shard.get(shard).is_some_and(|plan| plan.len() > 0)
    }
}

/// Occupancy and compression statistics.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct StoreStats {
    /// Number of distinct series.
    pub series: usize,
    /// Points in hot buffers.
    pub hot_points: usize,
    /// Points in warm (compressed) blocks.
    pub warm_points: usize,
    /// Bytes used by warm blocks.
    pub warm_bytes: usize,
    /// Compressed bytes per warm point (0 when no warm data).
    pub bytes_per_point: f64,
    /// Corrupt blocks encountered (skipped on query, rejected on reload).
    /// Monotonic — a counter, not an occupancy figure, carried here so
    /// every stats consumer sees corruption without a second call.
    pub corrupt_blocks: u64,
}

/// Monotonic operation counters: how much work the store has done, as
/// opposed to [`StoreStats`] which reports what it currently holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct StoreOpCounts {
    /// Samples accepted by `insert` / `ingest_columns`.
    pub samples_ingested: u64,
    /// Hot buffers sealed into warm blocks (threshold or `seal_all`).
    pub blocks_sealed: u64,
    /// Warm blocks handed to the archive tier.
    pub blocks_evicted: u64,
    /// Warm blocks reloaded from the archive tier.
    pub blocks_reloaded: u64,
}

/// The store.
///
/// ```
/// use hpcmon_store::TimeSeriesStore;
/// use hpcmon_metrics::{CompId, MetricId, Sample, SeriesKey, Ts};
///
/// let store = TimeSeriesStore::new();
/// for minute in 0..10 {
///     store.insert(&Sample::new(
///         MetricId(0), CompId::node(7), Ts::from_mins(minute), 200.0 + minute as f64,
///     ));
/// }
/// let key = SeriesKey::new(MetricId(0), CompId::node(7));
/// let points = store.query(key, Ts::from_mins(3), Ts::from_mins(5));
/// assert_eq!(points.len(), 3);
/// assert_eq!(points[0].1, 203.0);
/// ```
pub struct TimeSeriesStore {
    // `pub(crate)` fields are what `snapshot.rs` reads and rewrites whole.
    pub(crate) shards: Vec<RwLock<Shard>>,
    pub(crate) seal_threshold: usize,
    pub(crate) samples_ingested: AtomicU64,
    pub(crate) blocks_sealed: AtomicU64,
    pub(crate) blocks_evicted: AtomicU64,
    pub(crate) blocks_reloaded: AtomicU64,
    pub(crate) corrupt_blocks: AtomicU64,
    // Occupancy, maintained incrementally on every write path so
    // `occupancy()` is O(1) — the self-telemetry feed reads it every tick,
    // where the `stats()` scan would grow with the store.
    pub(crate) series_count: AtomicU64,
    pub(crate) hot_points: AtomicU64,
    pub(crate) warm_points: AtomicU64,
    pub(crate) warm_bytes: AtomicU64,
    // Bumped by every mutation (ingest, seal, evict, reload, retention
    // drop).  Consumers that cache derived results — the gateway's query
    // result cache — key entries on this value: an entry computed at epoch
    // E is valid exactly while `epoch()` still returns E.
    pub(crate) epoch: AtomicU64,
    // The history epoch: bumped only by what can change the points of a
    // stamp behind `head` — a write behind it, eviction, reload, a
    // retention drop, a snapshot load, a read that finds a corrupt block.
    // While it reads H, every stamp below the head read with H is final,
    // so a cached aggregate can be extended instead of recomputed.
    // Neither is snapshotted, restored or hashed.
    history: AtomicU64,
    // The newest stamp ever written; never lowered.
    head: AtomicU64,
    // Bumped only by operations that move or remove slab slots (a
    // retention pass that drops something, a snapshot load) — NOT by
    // appends.  The slot numbers an `IngestRoute` resolved at generation G
    // stay valid while the generation still reads G.
    layout_gen: AtomicU64,
    // Injected per-shard write faults (chaos testing).  Only
    // `try_ingest_columns` consults these; everything else ignores them.
    pub(crate) write_faults: Vec<AtomicBool>,
}

impl TimeSeriesStore {
    /// Default seal threshold: points per series before a hot buffer seals.
    pub const DEFAULT_SEAL_THRESHOLD: usize = 512;

    /// A store with 16 shards and the default seal threshold.
    pub fn new() -> TimeSeriesStore {
        TimeSeriesStore::with_options(16, Self::DEFAULT_SEAL_THRESHOLD)
    }

    /// Full control over sharding and sealing.
    pub fn with_options(shards: usize, seal_threshold: usize) -> TimeSeriesStore {
        assert!(shards > 0 && seal_threshold > 0);
        TimeSeriesStore {
            shards: (0..shards).map(|_| RwLock::new(Shard::default())).collect(),
            seal_threshold,
            samples_ingested: AtomicU64::new(0),
            blocks_sealed: AtomicU64::new(0),
            blocks_evicted: AtomicU64::new(0),
            blocks_reloaded: AtomicU64::new(0),
            corrupt_blocks: AtomicU64::new(0),
            series_count: AtomicU64::new(0),
            hot_points: AtomicU64::new(0),
            warm_points: AtomicU64::new(0),
            warm_bytes: AtomicU64::new(0),
            epoch: AtomicU64::new(0),
            history: AtomicU64::new(0),
            head: AtomicU64::new(0),
            layout_gen: AtomicU64::new(0),
            write_faults: (0..shards).map(|_| AtomicBool::new(false)).collect(),
        }
    }

    /// Inject (or clear) a write fault on one shard.  While set, any
    /// [`TimeSeriesStore::try_ingest_columns`] touching that shard fails
    /// whole; reads and the fault-unaware insert paths are unaffected.
    /// Out-of-range shards are ignored.
    pub fn set_shard_write_fault(&self, shard: usize, failing: bool) {
        if let Some(flag) = self.write_faults.get(shard) {
            flag.store(failing, Ordering::Release);
        }
    }

    /// Whether a shard currently refuses fault-aware writes.
    pub(crate) fn shard_write_faulted(&self, shard: usize) -> bool {
        self.write_faults.get(shard).is_some_and(|f| f.load(Ordering::Acquire))
    }

    /// The store's mutation epoch: a counter advanced by every write-path
    /// operation (`insert`, sealing, eviction, reload, retention drops).
    /// Two reads of the store separated by an unchanged epoch are
    /// guaranteed to observe identical contents, which is what makes
    /// query-result caching sound.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    fn bump_epoch(&self) {
        self.epoch.fetch_add(1, Ordering::Release);
    }

    pub(crate) fn bump_epoch_by(&self, n: u64) {
        // Batched ingest advances the epoch by the sample count so the
        // epoch value stays identical to per-sample insertion.
        self.epoch.fetch_add(n, Ordering::Release);
    }

    /// The history epoch and the head, the newest stamp ever written.  A
    /// write at or past the head and a seal leave the history epoch as it
    /// is; anything else that can change the points of a stamp behind the
    /// head advances it.  So two reads separated by an unchanged history
    /// epoch `H` see the same points at every stamp below the head the
    /// first read got with `H`: what a cache needs to extend an answer
    /// instead of recomputing it.  Read it before the query it guards.
    pub fn history(&self) -> (u64, Ts) {
        let history = self.history.load(Ordering::Acquire);
        (history, Ts(self.head.load(Ordering::Acquire)))
    }

    pub(crate) fn bump_history(&self) {
        self.history.fetch_add(1, Ordering::Release);
    }

    /// Account a write at `ts`, once it has landed: it raises the head, or
    /// rewrites history if it landed behind it.
    pub(crate) fn note_write(&self, ts: Ts) {
        if self.head.fetch_max(ts.0, Ordering::AcqRel) > ts.0 {
            self.bump_history();
        }
    }

    /// Number of shards (the fan-out width for batched ingest).
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Which shard a series key lives in.
    pub(crate) fn shard_index(&self, key: &SeriesKey) -> usize {
        let mut h = DefaultHasher::new();
        key.hash(&mut h);
        (h.finish() as usize) % self.shards.len()
    }

    pub(crate) fn shard_of(&self, key: &SeriesKey) -> &RwLock<Shard> {
        &self.shards[self.shard_index(key)]
    }

    /// Insert one sample.  Out-of-order samples (older than the hot tail)
    /// are accepted but land in order within the hot buffer.  This is the
    /// reference ingest: [`TimeSeriesStore::ingest_columns`] must leave
    /// contents, occupancy, op counts and epoch exactly as a loop of
    /// `insert` over the frame's samples would.
    pub fn insert(&self, sample: &Sample) {
        self.samples_ingested.fetch_add(1, Ordering::Relaxed);
        self.hot_points.fetch_add(1, Ordering::Relaxed);
        let mut shard = self.shard_of(&sample.key).write();
        let slot = self.resolve_slot(&mut shard, sample.key);
        let Shard { slots, cohorts, .. } = &mut *shard;
        let slot = &mut slots[slot as usize];
        cohorts.evict(slot);
        self.append_point(sample.key, &mut slot.data, sample.ts, sample.value);
        drop(shard);
        self.bump_epoch();
        self.note_write(sample.ts);
    }

    /// Resolve (or create) the slab slot for `key` in a locked shard.
    pub(crate) fn resolve_slot(&self, shard: &mut Shard, key: SeriesKey) -> u32 {
        let Shard { slots, index, .. } = shard;
        match index.entry(key) {
            Entry::Occupied(e) => *e.get(),
            Entry::Vacant(v) => {
                let slot = slots.len() as u32;
                slots.push(SeriesSlot { key, data: SeriesData::default(), seat: None });
                v.insert(slot);
                self.series_count.fetch_add(1, Ordering::Relaxed);
                slot
            }
        }
    }

    /// Append one point to the own buffer of a resolved series, sealing at
    /// the threshold.  Occupancy accounting is the caller's: `insert` bumps
    /// `hot_points` per sample, the routed columnar path once per shard
    /// batch.
    #[inline]
    pub(crate) fn append_point(&self, key: SeriesKey, data: &mut SeriesData, ts: Ts, value: f64) {
        // Common case: append in order.
        match data.hot.last() {
            Some(&(last, _)) if last > ts => {
                let pos = data.hot.partition_point(|&(t, _)| t <= ts);
                data.hot.insert(pos, (ts, value));
            }
            _ => data.hot.push((ts, value)),
        }
        if data.hot.len() >= self.seal_threshold {
            let block = SeriesBlock::compress(key, &data.hot);
            self.account_seal(&block);
            push_warm(&mut data.warm, block);
            data.hot.clear();
        }
    }

    /// Whether `block` is no longer than a seal of this store makes, the
    /// check every way in for a warm block makes before admitting it.
    pub(crate) fn admits(&self, block: &SeriesBlock) -> bool {
        block.count as usize <= self.seal_threshold
    }

    /// Move occupancy from hot to warm for a freshly sealed block.
    pub(crate) fn account_seal(&self, block: &SeriesBlock) {
        self.blocks_sealed.fetch_add(1, Ordering::Relaxed);
        self.hot_points.fetch_sub(block.count as u64, Ordering::Relaxed);
        self.warm_points.fetch_add(block.count as u64, Ordering::Relaxed);
        self.warm_bytes.fetch_add(block.compressed_bytes() as u64, Ordering::Relaxed);
    }

    /// The store's slab-layout generation: advanced only by operations
    /// that move or remove slots (a retention pass that drops something, a
    /// snapshot load).  The slot numbers an [`IngestRoute`] holds are valid
    /// exactly while this still reads the value they were resolved at.
    pub(crate) fn layout_gen(&self) -> u64 {
        self.layout_gen.load(Ordering::Acquire)
    }

    pub(crate) fn bump_layout(&self) {
        self.layout_gen.fetch_add(1, Ordering::Release);
    }

    /// Ensure `route` describes `cf`'s key column against the current slab
    /// layout and cohorts.  A changed key column is re-routed from the first
    /// key that differs — hashing and lookups for that tail only.  When
    /// `cf`'s keys are on the buffer the route holds, that is where the
    /// shorter column ends; otherwise a sweep of both finds it.  The work
    /// is **lookup-only** (read locks, no mutation): series the store has
    /// not seen yet stay unresolved and are created on first ingest.
    pub(crate) fn prepare_route(&self, cf: &ColumnFrame, route: &mut IngestRoute) {
        let layout = self.layout_gen();
        if route.per_shard.len() != self.shards.len() || route.layout != layout {
            // Another store, or slots moved: no slot number survives.
            route.per_shard.clear();
            route.per_shard.resize_with(self.shards.len(), ShardPlan::default);
            route.column = KeyColumn::default();
            route.layout = layout;
        }
        let sweep = || route.column.iter().zip(cf.keys.iter()).take_while(|(a, b)| a == b).count();
        let common = if route.column.same_buffer(&cf.keys) {
            route.column.len().min(cf.len())
        } else {
            sweep()
        };
        debug_assert_eq!(common, sweep(), "the pointer verdict disagrees with the key columns");
        if common < route.column.len() || common < cf.len() {
            for plan in &mut route.per_shard {
                plan.cut(common as u32);
            }
            for (i, key) in cf.keys.iter().enumerate().skip(common) {
                route.per_shard[self.shard_index(key)].push(i as u32);
            }
        }
        route.column = cf.keys.clone();
        self.finish_route(route);
    }

    /// Bring `route` up to date with what an ingest through it changed —
    /// series it created, cohorts it formed or evicted from — so the next
    /// tick is back on the fast path.  Lookup-only, and nearly free when
    /// nothing changed: one generation check per touched shard.
    pub(crate) fn finish_route(&self, route: &mut IngestRoute) {
        let IngestRoute { column, per_shard, .. } = route;
        for (shard, plan) in self.shards.iter().zip(per_shard) {
            if plan.len() > 0 {
                plan.refresh(&shard.read(), column);
            }
        }
    }

    /// Frame ingest through a cached route: contents, occupancy, op
    /// counts, and epoch identical to [`TimeSeriesStore::insert`] of each
    /// sample in frame order, but a synchronized frame lands as one row per
    /// cohort, with one lock per touched shard and no per-tick rebuild.
    pub fn ingest_columns(&self, cf: &ColumnFrame, route: &mut IngestRoute) {
        self.prepare_route(cf, route);
        self.ingest_route(cf, route);
        self.finish_route(route);
    }

    /// Fault-aware frame ingest: refuses the **whole frame** if any shard
    /// it would touch has an injected write fault — all-or-nothing, so a
    /// spilled frame can be retried later without double-ingesting its
    /// healthy shards.  The route build is lookup-only, so a refused frame
    /// leaves the store untouched.
    pub fn try_ingest_columns(
        &self,
        cf: &ColumnFrame,
        route: &mut IngestRoute,
    ) -> Result<(), WriteError> {
        self.prepare_route(cf, route);
        for shard_id in 0..self.shards.len() {
            if route.touches(shard_id) && self.shard_write_faulted(shard_id) {
                return Err(WriteError::ShardUnavailable(shard_id));
            }
        }
        self.ingest_route(cf, route);
        self.finish_route(route);
        Ok(())
    }

    /// All points of one series in `[from, to]`, time-ordered.
    pub fn query(&self, key: SeriesKey, from: Ts, to: Ts) -> Vec<(Ts, f64)> {
        let shard = self.shard_of(&key).read();
        let Some(slot) = shard.index.get(&key).map(|&slot| &shard.slots[slot as usize]) else {
            return Vec::new();
        };
        let overlapping = || slot.data.warm.iter().filter(|b| b.overlaps(from, to));
        let hot = shard.cohorts.hot(slot).within(from, to);
        // Sized up front (an admitted block holds at most `seal_threshold`
        // points, and no block decodes past its count), so the result is the
        // query's only allocation.
        let bound: usize = overlapping().map(SeriesBlock::point_bound).sum();
        let mut out = Vec::with_capacity(bound + hot.len());
        for block in overlapping() {
            // A corrupt block degrades one range of one series; it must
            // not take down the query (or the pipeline).
            if block.decode_into(from, to, &mut out).is_err() {
                self.corrupt_blocks.fetch_add(1, Ordering::Relaxed);
                self.bump_history();
            }
        }
        out.extend(hot.points());
        // Blocks seal in time order, so this is normally already sorted —
        // and the stable sort would allocate a merge buffer to find out.
        if !out.is_sorted_by_key(|&(t, _)| t) {
            out.sort_by_key(|&(t, _)| t);
        }
        out
    }

    /// All series keys for a metric (any component), in key order.
    pub fn series_of_metric(&self, metric: MetricId) -> Vec<SeriesKey> {
        // Counted first, so the list is one allocation however long it is.
        let count = (self.shards.iter())
            .map(|s| s.read().slots.iter().filter(|s| s.key.metric == metric).count())
            .sum();
        let mut keys = Vec::with_capacity(count);
        for shard in &self.shards {
            keys.extend(shard.read().slots.iter().map(|s| s.key).filter(|k| k.metric == metric));
        }
        // Keys are distinct, so this is the stable order without its buffer.
        keys.sort_unstable();
        keys
    }

    /// Hand `visit` every point in `[from, to]` of each series of `metric`
    /// whose component `keep` admits: series in
    /// [`TimeSeriesStore::series_of_metric`] order, each series' points in
    /// stored order — warm blocks, then hot.  That is not always stamp order
    /// (an insert can land behind a sealed block), but the points of one
    /// stamp come in the order [`TimeSeriesStore::query`]'s stable sort
    /// keeps, so a fold over the visits meets every stamp's operands as a
    /// fold over the `query` results would.  Nothing is materialised: warm
    /// blocks decode one at a time through a reused buffer, hot points are
    /// read in place.  A corrupt block is skipped whole and counted, as
    /// `query` does.
    pub(crate) fn visit_metric(
        &self,
        metric: MetricId,
        from: Ts,
        to: Ts,
        keep: impl Fn(CompId) -> bool,
        mut visit: impl FnMut(Ts, f64),
    ) {
        let mut decoded = Vec::new();
        // By a block's position among its series' overlapping blocks: the
        // series of one metric seal together, so the block at the same
        // position of the previous series usually carries the same stamps.
        let mut stamps: Vec<StampCache> = Vec::new();
        for key in self.series_of_metric(metric) {
            if !keep(key.comp) {
                continue;
            }
            let shard = self.shard_of(&key).read();
            let Some(slot) = shard.index.get(&key).map(|&slot| &shard.slots[slot as usize]) else {
                continue;
            };
            for (i, block) in slot.data.warm.iter().filter(|b| b.overlaps(from, to)).enumerate() {
                if i == stamps.len() {
                    stamps.push(StampCache::default());
                }
                match stamps[i].decode_into(block, from, to, &mut decoded) {
                    Some(()) => decoded.iter().for_each(|&(t, v)| visit(t, v)),
                    None => {
                        self.corrupt_blocks.fetch_add(1, Ordering::Relaxed);
                        self.bump_history();
                    }
                }
            }
            shard.cohorts.hot(slot).within(from, to).points().for_each(|(t, v)| visit(t, v));
        }
    }

    /// All distinct series keys.
    pub fn all_series(&self) -> Vec<SeriesKey> {
        let mut keys: Vec<SeriesKey> = self
            .shards
            .iter()
            .flat_map(|s| s.read().slots.iter().map(|slot| slot.key).collect::<Vec<_>>())
            .collect();
        keys.sort();
        keys
    }

    /// Per-component points of one metric in a range: the fan-in for
    /// group-by queries.
    pub fn query_metric(
        &self,
        metric: MetricId,
        from: Ts,
        to: Ts,
    ) -> Vec<(CompId, Vec<(Ts, f64)>)> {
        self.series_of_metric(metric)
            .into_iter()
            .map(|k| (k.comp, self.query(k, from, to)))
            .filter(|(_, pts)| !pts.is_empty())
            .collect()
    }

    /// Force-seal every non-empty hot buffer (used before archiving).
    pub fn seal_all(&self) {
        for shard in &self.shards {
            let mut shard = shard.write();
            let Shard { slots, cohorts, .. } = &mut *shard;
            cohorts.seal_all(slots, self);
            for slot in slots.iter_mut() {
                if !slot.data.hot.is_empty() {
                    let block = SeriesBlock::compress(slot.key, &slot.data.hot);
                    self.account_seal(&block);
                    push_warm(&mut slot.data.warm, block);
                    slot.data.hot.clear();
                }
            }
        }
        self.bump_epoch();
    }

    /// Remove and return all warm blocks that end at or before `cutoff`
    /// (the eviction half of the archive flow).
    pub fn evict_warm_before(&self, cutoff: Ts) -> Vec<SeriesBlock> {
        let mut evicted = Vec::new();
        for shard in &self.shards {
            let mut shard = shard.write();
            for slot in shard.slots.iter_mut() {
                let (old, keep): (Vec<_>, Vec<_>) =
                    slot.data.warm.drain(..).partition(|b| b.end <= cutoff);
                evicted.extend(old);
                slot.data.warm = keep;
            }
        }
        self.blocks_evicted.fetch_add(evicted.len() as u64, Ordering::Relaxed);
        let points: u64 = evicted.iter().map(|b| b.count as u64).sum();
        let bytes: u64 = evicted.iter().map(|b| b.compressed_bytes() as u64).sum();
        self.warm_points.fetch_sub(points, Ordering::Relaxed);
        self.warm_bytes.fetch_sub(bytes, Ordering::Relaxed);
        self.bump_epoch();
        self.bump_history();
        evicted
    }

    /// Re-insert previously evicted blocks (the reload half).  Blocks
    /// whose bytes no longer decompress — archives cross a serialization
    /// boundary, so this is an input condition — are rejected and counted
    /// rather than admitted as queryable-looking garbage, and so is a block
    /// longer than this store seals: no honest seal makes one, and its
    /// count is what every read of it loops on.
    pub fn reload_blocks(&self, blocks: Vec<SeriesBlock>) {
        let mut touched = Vec::new();
        for block in blocks {
            if !self.admits(&block) || block.validate().is_err() {
                self.corrupt_blocks.fetch_add(1, Ordering::Relaxed);
                continue;
            }
            self.blocks_reloaded.fetch_add(1, Ordering::Relaxed);
            self.warm_points.fetch_add(block.count as u64, Ordering::Relaxed);
            self.warm_bytes.fetch_add(block.compressed_bytes() as u64, Ordering::Relaxed);
            touched.push(block.key);
            let mut shard = self.shard_of(&block.key).write();
            let slot = self.resolve_slot(&mut shard, block.key);
            shard.slots[slot as usize].data.warm.push(block);
        }
        // One stable sort per touched series, not one per block: the same
        // order, since ties keep push order either way.
        touched.sort_unstable();
        touched.dedup();
        for key in touched {
            let mut shard = self.shard_of(&key).write();
            if let Some(&slot) = shard.index.get(&key) {
                shard.slots[slot as usize].data.warm.sort_by_key(|b| b.start);
            }
        }
        self.bump_epoch();
        self.bump_history();
    }

    /// Delete series whose data ends before `cutoff` and have no hot points
    /// (hard retention; returns dropped series count).
    pub fn drop_series_before(&self, cutoff: Ts) -> usize {
        let mut dropped = 0;
        for shard in &self.shards {
            let mut shard = shard.write();
            let Shard { slots, index, cohorts } = &mut *shard;
            let before = slots.len();
            slots.retain(|slot| {
                let data = &slot.data;
                let dead = cohorts.hot(slot).is_empty()
                    && !data.warm.is_empty()
                    && data.warm.iter().all(|b| b.end < cutoff);
                if dead {
                    dropped += 1;
                    let points: u64 = data.warm.iter().map(|b| b.count as u64).sum();
                    let bytes: u64 = data.warm.iter().map(|b| b.compressed_bytes() as u64).sum();
                    self.warm_points.fetch_sub(points, Ordering::Relaxed);
                    self.warm_bytes.fetch_sub(bytes, Ordering::Relaxed);
                }
                !dead
            });
            // A drop compacts the slab, so every slot number may shift:
            // rebuild the index, re-point the cohorts' columns and
            // invalidate cached routes.  A pass that drops nothing leaves
            // all three alone.
            if slots.len() != before {
                index.clear();
                for (i, slot) in slots.iter().enumerate() {
                    index.insert(slot.key, i as u32);
                }
                cohorts.remap(slots);
                self.bump_layout();
            }
        }
        self.series_count.fetch_sub(dropped as u64, Ordering::Relaxed);
        self.bump_epoch();
        self.bump_history();
        dropped
    }

    /// Occupancy statistics.
    pub fn stats(&self) -> StoreStats {
        let mut s = StoreStats::default();
        for shard in &self.shards {
            let shard = shard.read();
            s.series += shard.slots.len();
            for slot in &shard.slots {
                s.hot_points += shard.cohorts.hot(slot).len();
                for b in &slot.data.warm {
                    s.warm_points += b.count as usize;
                    s.warm_bytes += b.compressed_bytes();
                }
            }
        }
        s.bytes_per_point =
            if s.warm_points > 0 { s.warm_bytes as f64 / s.warm_points as f64 } else { 0.0 };
        s.corrupt_blocks = self.corrupt_blocks.load(Ordering::Relaxed);
        s
    }

    /// Occupancy from the counters maintained on the write paths: O(1),
    /// unlike the [`TimeSeriesStore::stats`] scan — the per-tick read for
    /// the self-telemetry feed.
    pub fn occupancy(&self) -> StoreStats {
        let warm_points = self.warm_points.load(Ordering::Relaxed) as usize;
        let warm_bytes = self.warm_bytes.load(Ordering::Relaxed) as usize;
        StoreStats {
            series: self.series_count.load(Ordering::Relaxed) as usize,
            hot_points: self.hot_points.load(Ordering::Relaxed) as usize,
            warm_points,
            warm_bytes,
            bytes_per_point: if warm_points > 0 {
                warm_bytes as f64 / warm_points as f64
            } else {
                0.0
            },
            corrupt_blocks: self.corrupt_blocks.load(Ordering::Relaxed),
        }
    }

    /// Corrupt blocks encountered so far (skipped on query, rejected on
    /// reload).
    pub fn corrupt_blocks(&self) -> u64 {
        self.corrupt_blocks.load(Ordering::Relaxed)
    }

    /// Monotonic operation counters.
    pub fn op_counts(&self) -> StoreOpCounts {
        StoreOpCounts {
            samples_ingested: self.samples_ingested.load(Ordering::Relaxed),
            blocks_sealed: self.blocks_sealed.load(Ordering::Relaxed),
            blocks_evicted: self.blocks_evicted.load(Ordering::Relaxed),
            blocks_reloaded: self.blocks_reloaded.load(Ordering::Relaxed),
        }
    }

    /// 64-bit digest of the store's deterministic observables, for per-tick
    /// replay verification.  Deliberately counter-based (epoch, occupancy,
    /// op counts): the counters are bit-identical across reruns, and any
    /// content divergence (different samples stored, different seal/evict
    /// decisions) moves at least one of them.  Hashing contents directly
    /// would cost a full store scan every tick.
    pub fn state_digest(&self) -> u64 {
        let mut h = hpcmon_metrics::StateHash::new(0x57);
        let occ = self.occupancy();
        let ops = self.op_counts();
        h.u64(self.epoch.load(Ordering::Relaxed))
            .usize(occ.series)
            .usize(occ.hot_points)
            .usize(occ.warm_points)
            .usize(occ.warm_bytes)
            .u64(occ.corrupt_blocks)
            .u64(ops.samples_ingested)
            .u64(ops.blocks_sealed)
            .u64(ops.blocks_evicted)
            .u64(ops.blocks_reloaded);
        h.finish()
    }
}

impl Default for TimeSeriesStore {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cohort::MIN_WIDTH;
    use hpcmon_metrics::MINUTE_MS;

    impl TimeSeriesStore {
        /// Admit a warm block without the reload validation, to exercise
        /// the query path's skip-and-count defense for corruption that
        /// bypasses the ingest boundary (e.g. in-memory bit flips).  A block
        /// longer than the store seals is still refused and counted.
        fn inject_warm_block(&self, block: SeriesBlock) {
            if !self.admits(&block) {
                self.corrupt_blocks.fetch_add(1, Ordering::Relaxed);
                return;
            }
            let mut shard = self.shard_of(&block.key).write();
            let slot = self.resolve_slot(&mut shard, block.key);
            shard.slots[slot as usize].data.warm.push(block);
        }
    }

    fn key(m: u32, n: u32) -> SeriesKey {
        SeriesKey::new(MetricId(m), CompId::node(n))
    }

    fn sample(m: u32, n: u32, ts: u64, v: f64) -> Sample {
        Sample::new(MetricId(m), CompId::node(n), Ts(ts), v)
    }

    #[test]
    fn insert_and_query_range() {
        let store = TimeSeriesStore::new();
        for i in 0..10u64 {
            store.insert(&sample(0, 1, i * MINUTE_MS, i as f64));
        }
        let pts = store.query(key(0, 1), Ts(2 * MINUTE_MS), Ts(5 * MINUTE_MS));
        assert_eq!(pts.len(), 4);
        assert_eq!(pts[0], (Ts(2 * MINUTE_MS), 2.0));
        assert_eq!(pts[3], (Ts(5 * MINUTE_MS), 5.0));
    }

    #[test]
    fn unknown_series_is_empty() {
        let store = TimeSeriesStore::new();
        assert!(store.query(key(9, 9), Ts::ZERO, Ts(u64::MAX)).is_empty());
    }

    #[test]
    fn sealing_preserves_data_across_tiers() {
        let store = TimeSeriesStore::with_options(4, 100);
        for i in 0..250u64 {
            store.insert(&sample(0, 1, i * 1_000, (i as f64).sqrt()));
        }
        let stats = store.stats();
        assert_eq!(stats.warm_points, 200, "two sealed blocks");
        assert_eq!(stats.hot_points, 50);
        let pts = store.query(key(0, 1), Ts::ZERO, Ts(u64::MAX));
        assert_eq!(pts.len(), 250);
        for (i, &(t, v)) in pts.iter().enumerate() {
            assert_eq!(t, Ts(i as u64 * 1_000));
            assert_eq!(v, (i as f64).sqrt());
        }
    }

    #[test]
    fn out_of_order_inserts_sorted_on_query() {
        let store = TimeSeriesStore::new();
        store.insert(&sample(0, 1, 3_000, 3.0));
        store.insert(&sample(0, 1, 1_000, 1.0));
        store.insert(&sample(0, 1, 2_000, 2.0));
        let pts = store.query(key(0, 1), Ts::ZERO, Ts(u64::MAX));
        assert_eq!(pts, vec![(Ts(1_000), 1.0), (Ts(2_000), 2.0), (Ts(3_000), 3.0)]);
    }

    #[test]
    fn query_metric_groups_components() {
        let store = TimeSeriesStore::new();
        for n in 0..4u32 {
            store.insert(&sample(7, n, 1_000, n as f64));
        }
        store.insert(&sample(8, 0, 1_000, 99.0)); // other metric
        let by_comp = store.query_metric(MetricId(7), Ts::ZERO, Ts(u64::MAX));
        assert_eq!(by_comp.len(), 4);
        assert!(by_comp.iter().all(|(c, pts)| pts[0].1 == c.index as f64));
    }

    #[test]
    fn seal_all_then_evict_and_reload() {
        let store = TimeSeriesStore::with_options(2, 1_000);
        for i in 0..100u64 {
            store.insert(&sample(0, 1, i * MINUTE_MS, i as f64));
        }
        store.seal_all();
        assert_eq!(store.stats().hot_points, 0);
        let evicted = store.evict_warm_before(Ts(u64::MAX));
        assert_eq!(evicted.len(), 1);
        assert!(store.query(key(0, 1), Ts::ZERO, Ts(u64::MAX)).is_empty());
        store.reload_blocks(evicted);
        assert_eq!(store.query(key(0, 1), Ts::ZERO, Ts(u64::MAX)).len(), 100);
    }

    #[test]
    fn evict_respects_cutoff() {
        let store = TimeSeriesStore::with_options(2, 10);
        for i in 0..30u64 {
            store.insert(&sample(0, 1, i * 1_000, i as f64));
        }
        // Blocks: [0..9], [10..19], [20..29] sealed at threshold 10.
        let evicted = store.evict_warm_before(Ts(15_000));
        assert_eq!(evicted.len(), 1, "only the fully-old block leaves");
        let remaining = store.query(key(0, 1), Ts::ZERO, Ts(u64::MAX));
        assert_eq!(remaining.len(), 20);
    }

    #[test]
    fn drop_series_before_removes_dead_series() {
        let store = TimeSeriesStore::with_options(2, 10);
        for i in 0..10u64 {
            store.insert(&sample(0, 1, i * 1_000, 0.0)); // seals exactly
        }
        for i in 0..5u64 {
            store.insert(&sample(0, 2, 100_000 + i * 1_000, 0.0)); // stays hot
        }
        let dropped = store.drop_series_before(Ts(50_000));
        assert_eq!(dropped, 1);
        assert!(store.query(key(0, 1), Ts::ZERO, Ts(u64::MAX)).is_empty());
        assert_eq!(store.query(key(0, 2), Ts::ZERO, Ts(u64::MAX)).len(), 5);
    }

    #[test]
    fn stats_report_compression() {
        let store = TimeSeriesStore::with_options(2, 1_000);
        for i in 0..1_000u64 {
            store.insert(&sample(0, 1, i * MINUTE_MS, 200.0));
        }
        let stats = store.stats();
        assert_eq!(stats.series, 1);
        assert_eq!(stats.warm_points, 1_000);
        assert!(
            stats.bytes_per_point < 2.0,
            "constant series ~1B/pt, got {}",
            stats.bytes_per_point
        );
    }

    #[test]
    fn concurrent_ingest_is_complete() {
        let store = std::sync::Arc::new(TimeSeriesStore::new());
        let mut handles = Vec::new();
        for t in 0..8u32 {
            let store = store.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..1_000u64 {
                    store.insert(&sample(0, t, i * 1_000, i as f64));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        for t in 0..8u32 {
            assert_eq!(store.query(key(0, t), Ts::ZERO, Ts(u64::MAX)).len(), 1_000);
        }
    }

    #[test]
    fn op_counts_track_ingest_seal_evict_reload() {
        let store = TimeSeriesStore::with_options(2, 10);
        for i in 0..25u64 {
            store.insert(&sample(0, 1, i * 1_000, i as f64));
        }
        let ops = store.op_counts();
        assert_eq!(ops.samples_ingested, 25);
        assert_eq!(ops.blocks_sealed, 2, "threshold 10 seals twice");
        store.seal_all();
        assert_eq!(store.op_counts().blocks_sealed, 3);
        let evicted = store.evict_warm_before(Ts(u64::MAX));
        assert_eq!(store.op_counts().blocks_evicted, 3);
        store.reload_blocks(evicted);
        assert_eq!(store.op_counts().blocks_reloaded, 3);
    }

    #[test]
    fn occupancy_counters_match_the_stats_scan() {
        // The O(1) occupancy counters must agree with the ground-truth
        // scan through every transition: ingest, threshold seal, force
        // seal, evict, reload, and hard retention.
        let store = TimeSeriesStore::with_options(2, 10);
        let check = |when: &str| {
            let (scan, fast) = (store.stats(), store.occupancy());
            assert_eq!(scan, fast, "after {when}");
        };
        for series in 0..3u32 {
            for i in 0..25u64 {
                store.insert(&sample(0, series, i * 1_000, i as f64));
            }
        }
        check("ingest with threshold seals");
        store.seal_all();
        check("seal_all");
        let evicted = store.evict_warm_before(Ts(15_000));
        assert!(!evicted.is_empty());
        check("evict");
        store.reload_blocks(evicted);
        check("reload");
        assert_eq!(store.drop_series_before(Ts(u64::MAX)), 3, "all series all-warm");
        check("drop_series_before");
        assert_eq!(store.occupancy().series, 0);
    }

    #[test]
    fn epoch_advances_on_every_mutation_class() {
        let store = TimeSeriesStore::with_options(2, 10);
        let e0 = store.epoch();
        store.insert(&sample(0, 1, 1_000, 1.0));
        let e1 = store.epoch();
        assert!(e1 > e0, "insert advances the epoch");
        assert_eq!(store.epoch(), e1, "queries do not");
        store.query(key(0, 1), Ts::ZERO, Ts(u64::MAX));
        assert_eq!(store.epoch(), e1);
        store.seal_all();
        let e2 = store.epoch();
        assert!(e2 > e1, "sealing advances the epoch");
        let evicted = store.evict_warm_before(Ts(u64::MAX));
        let e3 = store.epoch();
        assert!(e3 > e2, "eviction advances the epoch");
        store.reload_blocks(evicted);
        let e4 = store.epoch();
        assert!(e4 > e3, "reload advances the epoch");
        store.drop_series_before(Ts(u64::MAX));
        assert!(store.epoch() > e4, "retention drop advances the epoch");
    }

    #[test]
    fn history_moves_only_when_a_stamp_behind_the_head_can_change() {
        let store = TimeSeriesStore::with_options(2, 4);
        let mut route = IngestRoute::new();
        let specs: Vec<(u32, u32, f64)> = (0..6).map(|n| (0, n, n as f64)).collect();
        let frame = |ts: u64| column_frame(ts, &specs);
        let history = || store.history().0;
        let moved = |op: &mut dyn FnMut(), what: &str, bumps: bool| {
            let (h, epoch) = (history(), store.epoch());
            op();
            assert_eq!(history() > h, bumps, "{what}");
            assert!(history() <= h + 1, "{what} bumps once at most");
            assert!(store.epoch() >= epoch, "{what} keeps its epoch bumps");
        };
        moved(&mut || store.ingest_columns(&frame(1_000), &mut route), "a first frame", false);
        moved(
            &mut || store.ingest_columns(&frame(1_000), &mut route),
            "a frame at the head",
            false,
        );
        moved(&mut || store.ingest_columns(&frame(2_000), &mut route), "a frame past it", false);
        assert_eq!(store.history().1, Ts(2_000), "the head is the newest stamp");
        moved(&mut || store.ingest_columns(&frame(1_500), &mut route), "an old frame", true);
        moved(&mut || store.insert(&sample(0, 1, 500, 9.0)), "an insert behind the head", true);
        moved(&mut || store.insert(&sample(0, 1, 2_000, 9.0)), "an insert at the head", false);
        assert_eq!(store.history().1, Ts(2_000), "writes behind never lower the head");
        let sealed = store.op_counts().blocks_sealed;
        for ts in [3_000, 3_100, 3_200, 3_300] {
            moved(&mut || store.ingest_columns(&frame(ts), &mut route), "a frame past it", false);
        }
        assert!(store.op_counts().blocks_sealed > sealed, "threshold seals rewrite nothing");
        moved(&mut || store.seal_all(), "seal_all", false);
        moved(
            &mut || {
                store.set_shard_write_fault(0, true);
                let refused = store.try_ingest_columns(&frame(4_000), &mut route);
                assert_eq!(refused, Err(WriteError::ShardUnavailable(0)));
                store.set_shard_write_fault(0, false);
            },
            "a refused frame",
            false,
        );
        let evicted = std::cell::Cell::new(Vec::new());
        moved(&mut || evicted.set(store.evict_warm_before(Ts(1_500))), "an eviction", true);
        moved(&mut || store.reload_blocks(evicted.take()), "a reload", true);
        moved(&mut || _ = store.drop_series_before(Ts(1_000)), "a retention pass", true);
        let snap = store.snapshot();
        moved(&mut || store.load_snapshot(snap.clone()), "a snapshot load", true);
        assert_eq!(store.history().1, Ts(3_300), "a load leaves the head alone");
        let q = crate::QueryEngine::new(&store);
        moved(&mut || _ = q.series(key(0, 1), crate::TimeRange::all()), "a clean read", false);
        let mut bad = SeriesBlock::compress(key(0, 1), &[(Ts(100), 1.0), (Ts(200), 2.0)]);
        corrupt(&mut bad);
        store.inject_warm_block(bad);
        moved(&mut || _ = store.query(key(0, 1), Ts::ZERO, Ts(u64::MAX)), "a corrupt query", true);
        let all = crate::TimeRange::all();
        let mut fold = || _ = q.aggregate_across_components(MetricId(0), all, crate::AggFn::Sum);
        moved(&mut fold, "a fold over a corrupt block", true);
    }

    #[test]
    fn history_is_neither_snapshotted_nor_hashed() {
        let store = TimeSeriesStore::with_options(2, 4);
        for ts in 0..10u64 {
            store.insert(&sample(0, ts as u32 % 3, ts * 1_000, ts as f64));
        }
        let snap = store.snapshot();
        let (once, twice) =
            (TimeSeriesStore::with_options(2, 4), TimeSeriesStore::with_options(2, 4));
        once.load_snapshot(snap.clone());
        twice.load_snapshot(snap.clone());
        twice.load_snapshot(snap.clone());
        assert_ne!(once.history().0, twice.history().0);
        let json = |s: &TimeSeriesStore| serde_json::to_vec(&s.snapshot()).expect("serializes");
        assert_eq!(json(&once), json(&twice));
        assert_eq!(json(&once), json(&store));
        assert_eq!(once.state_digest(), twice.state_digest());
        assert_eq!(once.state_digest(), store.state_digest());
    }

    #[test]
    fn block_round_trip_and_overlap() {
        let pts: Vec<(Ts, f64)> = (0..50).map(|i| (Ts(i * 10), i as f64 * 0.5)).collect();
        let b = SeriesBlock::compress(key(0, 0), &pts);
        assert_eq!(b.decompress().unwrap(), pts);
        assert_eq!(b.start, Ts(0));
        assert_eq!(b.end, Ts(490));
        assert!(b.overlaps(Ts(490), Ts(1_000)));
        assert!(b.overlaps(Ts(0), Ts(0)));
        assert!(!b.overlaps(Ts(491), Ts(1_000)));
        assert!(b.compressed_bytes() > 0);
    }

    #[test]
    #[should_panic(expected = "empty block")]
    fn empty_block_rejected() {
        SeriesBlock::compress(key(0, 0), &[]);
    }

    fn corrupt(block: &mut SeriesBlock) {
        // Truncating the timestamp stream mid-varint makes decoding fail.
        let keep = block.ts_bytes.len() / 2;
        block.ts_bytes.truncate(keep.max(1));
    }

    #[test]
    fn corrupt_block_is_a_result_not_a_panic() {
        let pts: Vec<(Ts, f64)> = (0..50).map(|i| (Ts(i * 10), i as f64)).collect();
        let mut b = SeriesBlock::compress(key(0, 0), &pts);
        corrupt(&mut b);
        // Before the fix this line panicked via `expect("corrupt ts block")`.
        assert_eq!(b.decompress(), Err(BlockError::Timestamps));

        let mut b2 = SeriesBlock::compress(key(0, 0), &pts);
        b2.val_bytes.truncate(4);
        assert_eq!(b2.decompress(), Err(BlockError::Values));

        let mut b3 = SeriesBlock::compress(key(0, 0), &pts);
        b3.count += 1; // streams decode fine but disagree with the header
        assert_eq!(b3.decompress(), Err(BlockError::CountMismatch));
    }

    #[test]
    fn query_skips_corrupt_blocks_and_counts_them() {
        let store = TimeSeriesStore::with_options(2, 10);
        for i in 0..30u64 {
            store.insert(&sample(0, 1, i * 1_000, i as f64));
        }
        // Three sealed blocks; round-trip the middle one through eviction
        // with tampered bytes, as archive reload would deliver it.
        let mut evicted = store.evict_warm_before(Ts(u64::MAX));
        assert_eq!(evicted.len(), 3);
        corrupt(&mut evicted[1]);
        let (good, bad): (Vec<_>, Vec<_>) =
            evicted.into_iter().partition(|b| b.decompress().is_ok());
        assert_eq!(bad.len(), 1);
        // Reload rejects the corrupt block outright…
        store.reload_blocks(bad.clone());
        assert_eq!(store.corrupt_blocks(), 1);
        assert_eq!(store.stats().corrupt_blocks, 1);
        assert_eq!(store.occupancy().corrupt_blocks, 1);
        // …and the good data stays fully queryable.
        store.reload_blocks(good);
        let pts = store.query(key(0, 1), Ts::ZERO, Ts(u64::MAX));
        assert_eq!(pts.len(), 20, "two good blocks survive");
        assert_eq!(store.stats(), store.occupancy(), "counters stay consistent");

        // Past the reload guard, a fold skips the block whole and counts it
        // once, as `query` does.
        store.inject_warm_block(bad.into_iter().next().unwrap());
        let q = crate::QueryEngine::new(&store);
        let all = crate::TimeRange::all();
        let sums = q.aggregate_across_components(MetricId(0), all, crate::AggFn::Sum);
        assert_eq!(sums, pts, "one series: the sums are its good points");
        assert_eq!(store.corrupt_blocks(), 2);
    }

    #[test]
    fn query_fold_reuses_stamps_but_not_corrupt_values() {
        // Two series whose blocks carry the same stamp bytes: the second
        // decodes only its values, and a corrupt value stream there is
        // still skipped whole and counted.
        let block = |n: u32| {
            let pts: Vec<(Ts, f64)> =
                (0..10u64).map(|i| (Ts(i * 1_000), (i + 100 * n as u64) as f64)).collect();
            SeriesBlock::compress(key(0, n), &pts)
        };
        assert_eq!(block(1).ts_bytes, block(2).ts_bytes);
        let counts = |second: SeriesBlock| {
            let store = TimeSeriesStore::with_options(2, 1_000);
            store.inject_warm_block(block(1));
            store.inject_warm_block(second);
            let q = crate::QueryEngine::new(&store);
            let all = crate::TimeRange::all();
            let out = q.aggregate_across_components(MetricId(0), all, crate::AggFn::Count);
            (out.iter().map(|&(_, n)| n).collect::<Vec<_>>(), store.corrupt_blocks())
        };
        assert_eq!(counts(block(2)), (vec![2.0; 10], 0));
        let mut bad = block(2);
        bad.val_bytes.truncate(bad.val_bytes.len() - 2);
        assert_eq!(bad.decompress(), Err(BlockError::Values));
        assert_eq!(counts(bad), (vec![1.0; 10], 1));
    }

    #[test]
    fn corrupt_warm_block_degrades_query_not_pipeline() {
        // Corruption reaching the warm tier past the reload guard (e.g.
        // an in-memory bit flip) must degrade only the affected range,
        // not panic the querying thread.  Before the fix this query
        // panicked via `expect("corrupt ts block")`.
        let store = TimeSeriesStore::with_options(2, 1_000);
        for i in 0..20u64 {
            store.insert(&sample(0, 1, i * 1_000, i as f64));
        }
        let good: Vec<(Ts, f64)> = (100..120).map(|i| (Ts(i * 1_000), i as f64)).collect();
        let mut bad = SeriesBlock::compress(key(0, 1), &good);
        corrupt(&mut bad);
        store.inject_warm_block(bad);
        let pts = store.query(key(0, 1), Ts::ZERO, Ts(u64::MAX));
        assert_eq!(pts.len(), 20, "hot data still served");
        assert_eq!(store.corrupt_blocks(), 1, "skip was counted");
        // Repeat queries keep counting (each skip is an observed event).
        store.query(key(0, 1), Ts::ZERO, Ts(u64::MAX));
        assert_eq!(store.corrupt_blocks(), 2);
    }

    // ---- columnar route ingest ----

    // The counting allocator backs the allocation-regression tests below;
    // it serves the whole test binary (per-thread counters keep concurrent
    // tests from polluting each other).
    #[global_allocator]
    static ALLOC: hpcmon_metrics::alloc_count::CountingAllocator =
        hpcmon_metrics::alloc_count::CountingAllocator;

    fn column_frame(ts: u64, specs: &[(u32, u32, f64)]) -> ColumnFrame {
        let mut cf = ColumnFrame::new(Ts(ts));
        for &(m, n, v) in specs {
            cf.push(MetricId(m), CompId::node(n), v);
        }
        cf
    }

    /// The oracle every columnar path is compared against: one `insert`
    /// per sample, in frame order.
    fn insert_each(store: &TimeSeriesStore, cf: &ColumnFrame) {
        for s in cf.iter() {
            store.insert(&s);
        }
    }

    fn assert_same_contents(a: &TimeSeriesStore, b: &TimeSeriesStore) {
        assert_eq!(a.stats(), b.stats());
        assert_eq!(a.op_counts(), b.op_counts());
        assert_eq!(a.epoch(), b.epoch());
        assert_eq!(a.all_series(), b.all_series());
        for k in a.all_series() {
            assert_eq!(a.query(k, Ts::ZERO, Ts(u64::MAX)), b.query(k, Ts::ZERO, Ts(u64::MAX)));
        }
    }

    #[test]
    fn ingest_columns_matches_per_sample_insert_including_seals() {
        let row = TimeSeriesStore::with_options(4, 16);
        let col = TimeSeriesStore::with_options(4, 16);
        let mut route = IngestRoute::new();
        for tick in 0..40u64 {
            let specs: Vec<(u32, u32, f64)> = (0..50u64)
                .map(|i| ((i % 3) as u32, (i % 7) as u32, (tick * 50 + i) as f64))
                .collect();
            let cf = column_frame(tick * 1_000, &specs);
            insert_each(&row, &cf);
            col.ingest_columns(&cf, &mut route);
        }
        assert_same_contents(&row, &col);
    }

    #[test]
    fn layout_generation_moves_only_on_slot_moving_ops() {
        let store = TimeSeriesStore::with_options(2, 10);
        let g0 = store.layout_gen();
        for i in 0..25u64 {
            store.insert(&sample(0, 1, i * 1_000, i as f64));
        }
        store.seal_all();
        let evicted = store.evict_warm_before(Ts(u64::MAX));
        store.reload_blocks(evicted);
        assert_eq!(store.layout_gen(), g0, "appends/seal/evict/reload keep slots in place");
        assert_eq!(store.drop_series_before(Ts(0)), 0);
        assert_eq!(store.layout_gen(), g0, "a pass that drops nothing moves nothing");
        store.drop_series_before(Ts(u64::MAX));
        assert!(store.layout_gen() > g0, "retention compaction moves slots");
        let g1 = store.layout_gen();
        store.load_snapshot(store.snapshot());
        assert!(store.layout_gen() > g1, "snapshot load rebuilds slots");
    }

    #[test]
    fn route_rebuilds_after_retention_compaction() {
        let store = TimeSeriesStore::with_options(2, 10);
        let mut route = IngestRoute::new();
        // Series (0,1) seals exactly (all-warm, droppable); (0,2) stays hot.
        let specs: Vec<(u32, u32, f64)> = (0..10).map(|i| (0, 1, i as f64)).collect();
        for t in 0..10u64 {
            store.ingest_columns(
                &column_frame(t * 1_000, &specs[t as usize..=t as usize]),
                &mut route,
            );
        }
        let hot: Vec<(u32, u32, f64)> = vec![(0, 2, 7.0)];
        store.ingest_columns(&column_frame(100_000, &hot), &mut route);
        assert_eq!(store.drop_series_before(Ts(50_000)), 1);
        // Stale route (layout gen moved): re-ingesting must land correctly.
        store.ingest_columns(&column_frame(200_000, &specs), &mut route);
        store.ingest_columns(&column_frame(300_000, &hot), &mut route);
        assert_eq!(store.query(key(0, 1), Ts(150_000), Ts(u64::MAX)).len(), 10);
        assert_eq!(store.query(key(0, 2), Ts::ZERO, Ts(u64::MAX)).len(), 2);
    }

    #[test]
    fn try_ingest_columns_is_all_or_nothing() {
        let store = TimeSeriesStore::with_options(4, 512);
        let specs: Vec<(u32, u32, f64)> =
            (0..40u64).map(|i| ((i % 3) as u32, (i % 9) as u32, i as f64)).collect();
        let cf = column_frame(1_000, &specs);
        let mut route = IngestRoute::new();
        store.prepare_route(&cf, &mut route);
        let touched =
            (0..store.num_shards()).find(|&s| route.touches(s)).expect("frame touches a shard");
        store.set_shard_write_fault(touched, true);
        assert!(store.shard_write_faulted(touched));
        let e0 = store.epoch();
        assert_eq!(
            store.try_ingest_columns(&cf, &mut route),
            Err(WriteError::ShardUnavailable(touched))
        );
        // Nothing landed — not even the healthy shards — and no counter moved.
        assert_eq!(store.epoch(), e0, "refused frame must not mutate the store");
        assert_eq!(store.op_counts().samples_ingested, 0);
        assert!(store.all_series().is_empty());
        store.set_shard_write_fault(touched, false);
        assert!(store.try_ingest_columns(&cf, &mut route).is_ok());
        assert_eq!(store.op_counts().samples_ingested, 40);
        // The healthy fault-aware path matches per-sample insertion exactly.
        let oracle = TimeSeriesStore::with_options(4, 512);
        insert_each(&oracle, &cf);
        assert_same_contents(&oracle, &store);
        // The fault-unaware paths ignore the flag (the pre-chaos baseline).
        store.set_shard_write_fault(touched, true);
        store.ingest_columns(&cf, &mut route);
        store.insert(&cf.get(0));
        assert_eq!(store.op_counts().samples_ingested, 81);
        // Out-of-range shard indexes are ignored, not a panic.
        store.set_shard_write_fault(99, true);
        assert!(!store.shard_write_faulted(99));
    }

    /// Frames published through a `FrameArena` and ingested through one
    /// route beside an `insert()` twin.
    struct Published {
        arena: hpcmon_metrics::FrameArena,
        store: TimeSeriesStore,
        oracle: TimeSeriesStore,
        route: IngestRoute,
        tick: u64,
    }

    impl Published {
        fn new() -> Published {
            Published {
                arena: hpcmon_metrics::FrameArena::new(),
                store: TimeSeriesStore::with_options(4, 8),
                oracle: TimeSeriesStore::with_options(4, 8),
                route: IngestRoute::new(),
                tick: 0,
            }
        }

        /// The next tick's frame: three metrics for each of `nodes`, then
        /// a two-key tail if `tail`.
        fn publish(&mut self, nodes: u32, tail: bool) -> std::sync::Arc<ColumnFrame> {
            self.tick += 1;
            let t = self.tick;
            let mut cf = self.arena.take_current(Ts(t * 1_000));
            for n in 0..nodes {
                for m in 0..3 {
                    cf.push(MetricId(m), CompId::node(n), (t * 13 + u64::from(n * 3 + m)) as f64);
                }
            }
            if tail {
                cf.push(MetricId(7), CompId::SYSTEM, t as f64);
                cf.push(MetricId(8), CompId::SYSTEM, -(t as f64));
            }
            self.arena.publish(cf)
        }

        /// Ingest `cf` and check the store against its twin.
        fn ingest(&mut self, cf: &ColumnFrame) {
            assert_eq!(self.store.try_ingest_columns(cf, &mut self.route), Ok(()));
            assert!(self.route.column.same_buffer(&cf.keys), "the route holds the frame's column");
            assert_eq!(self.route.column, cf.keys);
            insert_each(&self.oracle, cf);
            assert_same_contents(&self.store, &self.oracle);
        }
    }

    #[test]
    fn route_shares_the_arena_column_for_unchanged_keys_and_a_tail() {
        let mut p = Published::new();
        // Past two seals, the tail on every third tick.
        for tick in 0..20 {
            let cf = p.publish(16, tick % 3 == 0);
            p.ingest(&cf);
        }
        assert!(p.store.hot_layout().members >= 48, "{:?}", p.store.hot_layout());
        // Without the tail, the next frame is a prefix of the column the
        // route holds: nothing to sweep.
        let next = p.publish(16, false);
        assert!(p.route.column.same_buffer(&next.keys));
        assert_eq!(p.route.column[..next.len()], next.keys[..]);
    }

    #[test]
    fn route_sweeps_a_frame_on_another_column() {
        let mut p = Published::new();
        for _ in 0..3 {
            let cf = p.publish(16, false);
            p.ingest(&cf);
        }
        // Published and lost in transit: the tail came and went unseen, so
        // the next frame is on a column the route never held.
        let lost = p.publish(16, true);
        let cf = p.publish(12, false);
        assert!(!p.route.column.same_buffer(&cf.keys));
        assert!(cf.keys.same_buffer(&lost.keys));
        p.ingest(&cf);
        drop(lost);
        for nodes in [12, 16, 16] {
            let cf = p.publish(nodes, false);
            p.ingest(&cf);
        }
    }

    #[test]
    fn route_follows_the_column_across_frames_on_other_buffers() {
        let mut p = Published::new();
        let mut held = p.publish(16, false);
        p.ingest(&held);
        for tick in 0..12 {
            let cf = p.publish(16, tick % 4 == 1);
            // A frame the arena did not publish last — a spilled one, or
            // another column entirely — between two fresh ones.
            if tick % 2 == 0 {
                let mut other = ColumnFrame::new(Ts(held.ts.0 + 1));
                other.push(MetricId(9), CompId::SYSTEM, tick as f64);
                other.push(MetricId(0), CompId::node(3), -1.0);
                p.ingest(&other);
            } else {
                p.ingest(&held);
            }
            p.ingest(&cf);
            held = cf;
        }
    }

    #[test]
    fn route_on_the_same_column_rebuilds_after_a_retention_drop() {
        let mut p = Published::new();
        // Eight ticks: every series seals exactly, all-warm and droppable.
        for _ in 0..8 {
            let cf = p.publish(16, false);
            p.ingest(&cf);
        }
        let gen = p.store.layout_gen();
        assert_eq!(p.store.drop_series_before(Ts(1_000_000)), 48);
        assert_eq!(p.oracle.drop_series_before(Ts(1_000_000)), 48);
        assert!(p.store.layout_gen() > gen);
        // The arena's column is unchanged, but no slot the route holds is.
        for _ in 0..10 {
            let cf = p.publish(16, false);
            p.ingest(&cf);
        }
    }

    /// Refill `cf` for `tick` with one sample per spec.
    fn refill(cf: &mut ColumnFrame, tick: u64, specs: &[(u32, u32, f64)]) {
        cf.clear_for_tick(Ts(tick * 1_000));
        for &(m, n, v) in specs {
            cf.push(MetricId(m), CompId::node(n), v + tick as f64);
        }
    }

    #[test]
    fn routed_ingest_is_allocation_free_in_steady_state() {
        // Once every cohort has been through one seal its matrix is at full
        // height and is reused (a seal gives back only what quiet members
        // held, and the values here change every tick): from the second seal
        // cycle on a routed tick that does not seal hits the allocator zero
        // times — in particular not at rows 4, 8, ..., 256, where every
        // per-series buffer used to double on the same tick.
        const THRESHOLD: u64 = 512;
        let store = TimeSeriesStore::with_options(4, THRESHOLD as usize);
        let mut route = IngestRoute::new();
        let specs: Vec<(u32, u32, f64)> = (0..200u32).map(|i| (i % 5, i / 5, i as f64)).collect();
        let mut cf = column_frame(0, &specs);
        for tick in 1..=THRESHOLD {
            refill(&mut cf, tick, &specs);
            store.ingest_columns(&cf, &mut route);
        }
        let layout = store.hot_layout();
        assert_eq!((layout.members, layout.cohort_seals, layout.quiet), (200, 4, 0), "{layout:?}");
        for tick in THRESHOLD + 1..2 * THRESHOLD {
            refill(&mut cf, tick, &specs);
            let before = hpcmon_metrics::alloc_count::thread_allocations();
            store.ingest_columns(&cf, &mut route);
            let after = hpcmon_metrics::alloc_count::thread_allocations();
            assert_eq!(after - before, 0, "tick {tick}: steady-state routed ingest allocated");
        }
        assert_eq!(store.hot_layout(), layout, "nothing formed, left, sealed or grew meanwhile");
    }

    #[test]
    fn frame_handoff_and_ingest_make_at_most_one_allocation_a_tick() {
        // The whole hot path from outside: take the arena's buffer, fill it,
        // publish by epoch swap, ingest.  In steady state the only
        // allocation left is the `Arc` control block `publish` makes.
        use hpcmon_metrics::FrameArena;
        let store = TimeSeriesStore::with_options(16, 1 << 20);
        let (mut arena, mut route) = (FrameArena::new(), IngestRoute::new());
        let mut tick = |t: u64| {
            let mut cf = arena.take_current(Ts(t * MINUTE_MS));
            for node in 0..512u32 {
                for m in 0..4u32 {
                    cf.push(MetricId(m), CompId::node(node), (t * 31 + node as u64) as f64 * 0.25);
                }
            }
            let shared = arena.publish(cf);
            store.ingest_columns(&shared, &mut route);
        };
        // Past the first two chunks of rows, so neither the stamps nor the
        // matrix grows inside the measured ticks.
        (0..130).for_each(&mut tick);
        for t in 130..135 {
            let before = hpcmon_metrics::alloc_count::thread_allocations();
            tick(t);
            let made = hpcmon_metrics::alloc_count::thread_allocations() - before;
            assert!(made <= 1, "tick {t} made {made} allocations");
        }
    }

    #[test]
    fn a_changing_key_column_allocates_no_key_buffer() {
        // The column changes mid-column every 5th tick (and back on the
        // next) and gains a tail every 3rd.  A changed column is a copy
        // into a retired one, `Arc` and buffer: the frame's `Arc` stays
        // the only allocation a tick makes.
        use hpcmon_metrics::FrameArena;
        let store = TimeSeriesStore::with_options(16, 1 << 20);
        let (mut arena, mut route) = (FrameArena::new(), IngestRoute::new());
        let mut tick = |t: u64| {
            let mut cf = arena.take_current(Ts(t * MINUTE_MS));
            for node in 0..512u32 {
                let node = if t.is_multiple_of(5) && node == 300 { 9_999 } else { node };
                for m in 0..4u32 {
                    cf.push(MetricId(m), CompId::node(node), (t * 31 + node as u64) as f64 * 0.25);
                }
            }
            if t.is_multiple_of(3) {
                cf.push(MetricId(7), CompId::SYSTEM, t as f64);
            }
            let shared = arena.publish(cf);
            store.ingest_columns(&shared, &mut route);
        };
        (0..130).for_each(&mut tick);
        for t in 130..160 {
            let before = hpcmon_metrics::alloc_count::thread_allocations();
            tick(t);
            let made = hpcmon_metrics::alloc_count::thread_allocations() - before;
            assert!(made <= 1, "tick {t} made {made} allocations");
        }
    }

    #[test]
    fn a_retention_pass_that_drops_nothing_leaves_routes_alone() {
        let store = TimeSeriesStore::with_options(2, 8);
        let mut route = IngestRoute::new();
        let specs: Vec<(u32, u32, f64)> = (0..40u32).map(|i| (i % 2, i / 2, i as f64)).collect();
        let mut cf = column_frame(0, &specs);
        // Two seal cycles in, three rows into the third.
        for tick in 1..=19 {
            refill(&mut cf, tick, &specs);
            store.ingest_columns(&cf, &mut route);
        }
        let (gen, epoch) = (store.layout_gen(), store.epoch());
        assert_eq!(store.drop_series_before(Ts(1)), 0, "every series still has hot points");
        assert_eq!(store.layout_gen(), gen, "no slab compacted: no route goes stale");
        assert_eq!(store.epoch(), epoch + 1, "the pass itself still counts as a mutation");
        refill(&mut cf, 20, &specs);
        let before = hpcmon_metrics::alloc_count::thread_allocations();
        store.ingest_columns(&cf, &mut route);
        let made = hpcmon_metrics::alloc_count::thread_allocations() - before;
        assert_eq!(made, 0, "the warmed route stayed on its zero-allocation path");
    }

    proptest::proptest! {
        #[test]
        fn prop_routed_columnar_ingest_equals_per_sample_insert(
            ticks in proptest::collection::vec(
                proptest::collection::vec(
                    (0u32..6, 0u32..12, -1.0e6f64..1.0e6),
                    0..80,
                ),
                1..5,
            ),
        ) {
            use proptest::prelude::*;
            let row = TimeSeriesStore::with_options(4, 16);
            let col = TimeSeriesStore::with_options(4, 16);
            let mut route = IngestRoute::new();
            for (t, specs) in ticks.iter().enumerate() {
                let cf = column_frame(t as u64 * 1_000, specs);
                insert_each(&row, &cf);
                col.ingest_columns(&cf, &mut route);
            }
            prop_assert_eq!(row.stats(), col.stats());
            prop_assert_eq!(row.op_counts(), col.op_counts());
            prop_assert_eq!(row.epoch(), col.epoch());
            for k in row.all_series() {
                prop_assert_eq!(
                    row.query(k, Ts::ZERO, Ts(u64::MAX)),
                    col.query(k, Ts::ZERO, Ts(u64::MAX))
                );
            }
        }
    }

    /// A fixed fill across two threshold seals: counters, occupancy and the
    /// warm blocks' stream bytes, as one comparable record.
    fn seeded_fill_fingerprint() -> (u64, StoreStats, usize, u64) {
        let store = TimeSeriesStore::with_options(4, 64);
        let mut route = IngestRoute::new();
        let mut rng = 0x2018_u64;
        let mut noise = move || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng
        };
        for tick in 0..150u64 {
            let mut cf = ColumnFrame::new(Ts(tick * MINUTE_MS + (tick % 7 == 3) as u64));
            for n in 0..10u32 {
                cf.push(MetricId(0), CompId::node(n), 230.0); // constant
                cf.push(MetricId(1), CompId::node(n), (tick * (n as u64 + 1)) as f64); // counter
                cf.push(MetricId(2), CompId::node(n), 200.0 + (noise() % 4_096) as f64 / 64.0);
                cf.push(MetricId(3), CompId::node(n), f64::from_bits(noise())); // any bits
            }
            store.ingest_columns(&cf, &mut route);
        }
        // The frames rode cohorts: nothing below may show it.
        let layout = store.hot_layout();
        assert!(layout.members >= 2 * MIN_WIDTH && layout.cohort_seals >= 4, "{layout:?}");
        assert_eq!(layout.evictions, 0);
        let (digest, stats) = (store.state_digest(), store.stats());
        let mut warm = store.evict_warm_before(Ts(u64::MAX));
        warm.sort_by_key(|b| (b.key, b.start));
        let mut hash = hpcmon_metrics::StateHash::new(0);
        for b in &warm {
            let (ts, vals): (Vec<Ts>, Vec<f64>) = b.decompress().unwrap().into_iter().unzip();
            assert_eq!(b.ts_bytes, compress::tests::reference::compress_timestamps(&ts));
            assert_eq!(b.val_bytes, compress::tests::reference::compress_values(&vals));
            hash.bytes(&b.ts_bytes).bytes(&b.val_bytes);
        }
        (digest, stats, warm.len(), hash.finish())
    }

    #[test]
    fn seeded_fill_is_byte_identical_to_the_bit_at_a_time_codec() {
        // Every warm block is checked against the bit-at-a-time reference
        // codec as the fill is fingerprinted.  The pins were re-recorded
        // when block format v2 coded runs of zero delta-of-deltas once:
        // stamp bytes shrank (warm bytes 21,147 → 19,867; the fill jitters
        // every seventh stamp, so runs are short), and with them the digest
        // (it folds `warm_bytes`) and the stream hash; and again when v3
        // coded runs of zero XORs once: the constant metric's 20 blocks of
        // 64 points went from 16 value bytes to 10 (19,867 → 19,747).
        // Counts and values did not move.  The hash is over every warm
        // block's two streams, in key then time order.
        let (digest, stats, blocks, stream_hash) = seeded_fill_fingerprint();
        assert_eq!(digest, 0xf818_984a_e4ad_df3a);
        let expected = StoreStats {
            series: 40,
            hot_points: 880,
            warm_points: 5_120,
            warm_bytes: 19_747,
            bytes_per_point: 19_747.0 / 5_120.0,
            corrupt_blocks: 0,
        };
        assert_eq!(stats, expected);
        assert_eq!((blocks, stream_hash), (80, 0xd2eb_f0dc_034e_e04a));
    }

    #[test]
    fn sealing_a_block_makes_exactly_two_allocations() {
        let store = TimeSeriesStore::with_options(1, 512);
        for i in 0..511u64 {
            store.insert(&sample(0, 1, i * MINUTE_MS, 200.0 + (i % 17) as f64 * 0.25));
        }
        // Leave room for the block in the series' warm list.
        store.shards[0].write().slots[0].data.warm.reserve(1);
        let last = sample(0, 1, 511 * MINUTE_MS, 203.5);
        let before = hpcmon_metrics::alloc_count::thread_allocations();
        store.insert(&last);
        let after = hpcmon_metrics::alloc_count::thread_allocations();
        assert_eq!(store.op_counts().blocks_sealed, 1);
        assert_eq!(after - before, 2, "one exact-sized allocation per stream");
        let shard = store.shards[0].read();
        let block = &shard.slots[0].data.warm[0];
        assert_eq!(block.ts_bytes.capacity(), block.ts_bytes.len());
        assert_eq!(block.val_bytes.capacity(), block.val_bytes.len());
    }

    #[test]
    fn warm_query_allocates_only_its_result() {
        let store = TimeSeriesStore::with_options(2, 64);
        for i in 0..300u64 {
            store.insert(&sample(0, 1, i * MINUTE_MS, (i as f64).sqrt()));
        }
        assert_eq!(store.stats().warm_points, 256, "four sealed blocks and a hot tail");
        for (from, to, len) in [(0, u64::MAX, 300), (70, 200, 131), (10, 20, 11), (290, 400, 10)] {
            let (from, to) = (Ts(from * MINUTE_MS), Ts(to.saturating_mul(MINUTE_MS)));
            let before = hpcmon_metrics::alloc_count::thread_allocations();
            let pts = store.query(key(0, 1), from, to);
            let after = hpcmon_metrics::alloc_count::thread_allocations();
            assert_eq!(pts.len(), len);
            assert_eq!(after - before, 1, "[{from}, {to}]: the result vector and nothing else");
        }
        // Validating a reload streams too: no allocation per block.
        let evicted = store.evict_warm_before(Ts(u64::MAX));
        let before = hpcmon_metrics::alloc_count::thread_allocations();
        assert!(evicted.iter().all(|b| b.validate().is_ok()));
        assert_eq!(hpcmon_metrics::alloc_count::thread_allocations(), before);
    }

    #[test]
    fn decode_into_filters_and_leaves_the_output_alone_on_corruption() {
        let pts: Vec<(Ts, f64)> = (0..50).map(|i| (Ts(i * 10), i as f64 * 0.5)).collect();
        let block = SeriesBlock::compress(key(0, 0), &pts);
        let mut out = vec![(Ts(7), 7.0)];
        block.decode_into(Ts(100), Ts(200), &mut out).unwrap();
        assert_eq!(out[0], (Ts(7), 7.0));
        assert_eq!(out[1..], pts[10..=20]);
        // Corrupt the value stream past its midpoint: the timestamps and the
        // first values decode before the error, and must not be left behind.
        let mut bad = block.clone();
        bad.val_bytes.truncate(block.val_bytes.len() / 2);
        let before = out.clone();
        assert_eq!(bad.decode_into(Ts::ZERO, Ts(u64::MAX), &mut out), Err(BlockError::Values));
        assert_eq!(out, before);
        assert_eq!(bad.validate(), Err(BlockError::Values));
        // Timestamps are diagnosed first, as when the streams decoded in turn.
        corrupt(&mut bad);
        assert_eq!(bad.validate(), Err(BlockError::Timestamps));
    }

    #[test]
    fn stamps_claiming_u32_max_points_in_one_run_cost_their_bytes_not_their_claim() {
        // Twelve bytes of well-formed stamps for u32::MAX points (the count,
        // a first stamp, one run), beside a true four-point value stream
        // (the block's count claiming u32::MAX too, or agreeing with the
        // values) and beside one that claims u32::MAX too.  Looping once per
        // claimed point would take minutes; sizing by `count` would ask for
        // 64 GB.  A block claiming u32::MAX is longer than the store seals,
        // so injection refuses and counts it and reads never meet it; the
        // four-point one is admitted and counted by each read.
        let ts_bytes = vec![0xFF, 0xFF, 0xFF, 0xFF, 0x0F, 0, 0, 0xFD, 0xFF, 0xFF, 0xFF, 0x0F];
        let four = compress::encode_values(&[1.0, 2.0, 3.0, 4.0], |&v| v);
        let mut claims = four.clone();
        claims.splice(..1, [0xFF, 0xFF, 0xFF, 0xFF, 0x0F]);
        let cases = [
            (u32::MAX, four.clone(), BlockError::CountMismatch),
            (4, four, BlockError::CountMismatch),
            (u32::MAX, claims, BlockError::Values),
        ];
        for (count, val_bytes, why) in cases {
            let block = SeriesBlock {
                key: key(0, 1),
                start: Ts::ZERO,
                end: Ts::ZERO,
                count,
                ts_bytes: ts_bytes.clone(),
                val_bytes,
            };
            let before = hpcmon_metrics::alloc_count::thread_allocations();
            assert_eq!(block.validate(), Err(why));
            assert_eq!(hpcmon_metrics::alloc_count::thread_allocations(), before);
            assert_eq!(block.decompress(), Err(why));
            let store = TimeSeriesStore::with_options(1, 64);
            store.insert(&sample(0, 1, 5, 9.0));
            store.inject_warm_block(block.clone());
            let read = u64::from(count == 4);
            assert_eq!(store.query(key(0, 1), Ts::ZERO, Ts(u64::MAX)), vec![(Ts(5), 9.0)]);
            assert_eq!(store.corrupt_blocks(), 1);
            let q = crate::QueryEngine::new(&store);
            let all = crate::TimeRange::all();
            let sums = q.aggregate_across_components(MetricId(0), all, crate::AggFn::Sum);
            assert_eq!((sums, store.corrupt_blocks()), (vec![(Ts(5), 9.0)], 1 + read));
            store.reload_blocks(vec![block]);
            assert_eq!(store.corrupt_blocks(), 2 + read);
        }
    }

    #[test]
    fn values_claiming_u32_max_points_in_one_run_cost_their_bytes_not_their_claim() {
        // Both streams in a few bytes: the twelve bytes of stamps above,
        // and values that are the first one plus a run, claiming u32::MAX
        // points (a run past any block) or one more than a block holds (a
        // header past the bound).  The store seals at 64, so no
        // way in admits a block claiming either: reload and injection refuse
        // and count it, and query and aggregate never see it.  One that
        // claims four points is admitted by injection and counted by each
        // read instead.
        use compress::tests::reference::write_varint;
        let (most, most_ts) = (compress::MAX_BLOCK_POINTS as u64, u32::MAX as u64);
        let stream = |count: u64, run: u64| {
            let mut out = vec![];
            write_varint(&mut out, count);
            let (zeros, mut w) = (63 - run.leading_zeros(), compress::BitWriter::default());
            w.write_bits(1.5f64.to_bits(), 64);
            w.write_bits(run, 2 * (zeros as u8 + 1));
            out.extend_from_slice(&w.finish());
            out
        };
        let stamps = |count: u64| {
            let mut out = vec![];
            for v in [count, 0, 0, count - 2] {
                write_varint(&mut out, v);
            }
            out
        };
        let cases = [
            (u32::MAX, stamps(most_ts), stream(most_ts, most_ts - 1), BlockError::Values),
            (4, stamps(most_ts), stream(most_ts, most_ts - 1), BlockError::Values),
            ((most + 1) as u32, stamps(most + 1), stream(most + 1, most), BlockError::Values),
        ];
        for (count, ts_bytes, val_bytes, why) in cases {
            assert!(ts_bytes.len() + val_bytes.len() <= 36);
            let block = SeriesBlock {
                key: key(0, 1),
                start: Ts::ZERO,
                end: Ts::ZERO,
                count,
                ts_bytes,
                val_bytes,
            };
            let before = hpcmon_metrics::alloc_count::thread_allocations();
            assert_eq!(block.validate(), Err(why));
            assert_eq!(hpcmon_metrics::alloc_count::thread_allocations(), before);
            assert!(block.point_bound() <= 4);
            assert_eq!(block.decompress(), Err(why));
            let store = TimeSeriesStore::with_options(1, 64);
            store.insert(&sample(0, 1, 5, 9.0));
            store.inject_warm_block(block.clone());
            let read = u64::from(count == 4);
            assert_eq!(store.corrupt_blocks(), 1 - read);
            assert_eq!(store.query(key(0, 1), Ts::ZERO, Ts(u64::MAX)), vec![(Ts(5), 9.0)]);
            assert_eq!(store.corrupt_blocks(), 1);
            let q = crate::QueryEngine::new(&store);
            let all = crate::TimeRange::all();
            let sums = q.aggregate_across_components(MetricId(0), all, crate::AggFn::Sum);
            assert_eq!((sums, store.corrupt_blocks()), (vec![(Ts(5), 9.0)], 1 + read));
            store.reload_blocks(vec![block]);
            assert_eq!(store.corrupt_blocks(), 2 + read);
            assert_eq!(store.op_counts().blocks_reloaded, 0);
        }
    }

    #[test]
    fn a_block_longer_than_the_store_seals_is_refused_and_counted() {
        // A sound block of 65 points where the store seals at 64: no seal
        // of this store makes one, so no way in admits it.
        let pts: Vec<(Ts, f64)> = (0..65).map(|i| (Ts(i * MINUTE_MS), 2.5)).collect();
        let block = SeriesBlock::compress(key(0, 1), &pts);
        assert_eq!(block.validate(), Ok(()));
        let store = TimeSeriesStore::with_options(1, 64);
        store.reload_blocks(vec![block.clone()]);
        store.inject_warm_block(block.clone());
        assert_eq!((store.corrupt_blocks(), store.op_counts().blocks_reloaded), (2, 0));
        assert!(store.query(key(0, 1), Ts::ZERO, Ts(u64::MAX)).is_empty());
        // A store that seals at 65 takes it.
        let store = TimeSeriesStore::with_options(1, 65);
        store.reload_blocks(vec![block]);
        assert_eq!(store.query(key(0, 1), Ts::ZERO, Ts(u64::MAX)), pts);
    }

    #[test]
    fn a_series_first_warm_block_reserves_one_slot() {
        // A cohort member and a lone series (fed by `insert`), each after
        // one seal: no empty slots behind the block.
        let store = TimeSeriesStore::with_options(1, 8);
        let mut route = IngestRoute::new();
        for tick in 0..8u64 {
            let specs: Vec<_> = (0..2 * MIN_WIDTH as u32).map(|n| (0, n, n as f64)).collect();
            store.ingest_columns(&column_frame(tick * MINUTE_MS, &specs), &mut route);
            store.insert(&sample(1, 0, tick * MINUTE_MS, tick as f64));
        }
        assert!(store.hot_layout().cohort_seals >= 1, "{:?}", store.hot_layout());
        let shard = store.shards[0].read();
        for key in [key(0, 3), key(1, 0)] {
            let warm = &shard.slots[shard.index[&key] as usize].data.warm;
            assert_eq!((warm.len(), warm.capacity()), (1, 1), "{key:?}");
        }
        drop(shard);
        // `seal_all` seals a part-filled buffer the same way.
        store.insert(&sample(2, 0, 0, 1.0));
        store.seal_all();
        let shard = store.shards[0].read();
        let warm = &shard.slots[shard.index[&key(2, 0)] as usize].data.warm;
        assert_eq!((warm.len(), warm.capacity()), (1, 1));
    }

    #[test]
    fn reload_rejects_and_counts_an_impossible_gorilla_window() {
        let pts: Vec<(Ts, f64)> = (0..4).map(|i| (Ts(i * 10), 1.5)).collect();
        let mut block = SeriesBlock::compress(key(0, 1), &pts);
        // count 4; 1.5; then `11`, leading 31, length 63 — 94 bits of
        // window in a 64-bit word — and enough ones to fill it.
        block.val_bytes = vec![4, 0x3F, 0xF8, 0, 0, 0, 0, 0, 0, 0xFF, 0xFF];
        block.val_bytes.extend_from_slice(&[0xFF; 8]);
        assert_eq!(block.decompress(), Err(BlockError::Values));
        let store = TimeSeriesStore::with_options(2, 10);
        store.reload_blocks(vec![block]);
        assert_eq!(store.corrupt_blocks(), 1);
        assert_eq!(store.op_counts().blocks_reloaded, 0);
        assert!(store.query(key(0, 1), Ts::ZERO, Ts(u64::MAX)).is_empty());
    }

    #[test]
    fn reload_orders_each_series_by_start_with_ties_in_arrival_order() {
        let block = |series: u32, start: u64, v: f64| {
            SeriesBlock::compress(key(0, series), &[(Ts(start), v), (Ts(start + 5), v)])
        };
        let store = TimeSeriesStore::with_options(2, 10);
        store.reload_blocks(vec![block(1, 30, 1.0), block(2, 10, 2.0)]);
        // Interleaved series, out of order, with a tie on `start`.
        store.reload_blocks(vec![
            block(1, 10, 3.0),
            block(2, 10, 4.0),
            block(1, 30, 5.0),
            block(1, 20, 6.0),
            block(2, 0, 7.0),
        ]);
        assert_eq!(store.op_counts().blocks_reloaded, 7);
        assert_eq!(store.stats(), store.occupancy());
        // Eviction hands a series' blocks back in stored order.
        let evicted = store.evict_warm_before(Ts(u64::MAX));
        let order = |series: u32| -> Vec<(u64, f64)> {
            let of_series = evicted.iter().filter(|b| b.key == key(0, series));
            of_series.map(|b| (b.start.0, b.decompress().unwrap()[0].1)).collect()
        };
        assert_eq!(order(1), [(10, 3.0), (20, 6.0), (30, 1.0), (30, 5.0)]);
        assert_eq!(order(2), [(0, 7.0), (10, 2.0), (10, 4.0)]);
    }
}
