//! The tick-major hot tier (DESIGN.md §14).
//!
//! Collection is synchronized: every sample of a frame carries the frame's
//! stamp, and the key column repeats tick after tick.  A **cohort** spends
//! that: a set of series of one shard that receive exactly one point per
//! synchronized row, kept as one stamp per row plus a row-major value
//! matrix, so a frame lands as one gathered row instead of one pointer
//! chase per sample, and a hot point costs 8 bytes plus its share of the
//! row's stamp.
//!
//! Every member of a cohort always holds exactly `rows` points, which is
//! what keeps the tier invisible: a member seals on its own
//! `seal_threshold`-th point because the whole cohort does, into the bytes
//! [`SeriesBlock::compress`] would have made.  Anything that would break
//! that — a member absent from a frame, present twice, written through
//! `insert()` — **evicts** the series involved into its own
//! `Vec<(Ts, f64)>`, the per-series representation `insert()` defines, and
//! the cohort carries on without it.
//!
//! Most series repeat one value for whole blocks.  A **quiet** member keeps
//! that value and the cohort's row stamps instead of a matrix column, and
//! the gather compares its sample with the value instead of storing it; the
//! first sample that differs evicts it, with a copy of the value for each
//! row before.  Members go quiet where the cohort is **re-laid**: at each
//! seal those whose block sealed flat, and at the first cycle's second row
//! those whose first two values are the same bits, so the first cycle's
//! matrix never holds the repeats at full height.  A re-lay keeps a column
//! for each member left loud and frees the rest.
//!
//! This is the only file that knows there are two representations: the rest
//! of the crate reads a series' hot points through `Cohorts::hot`.

use crate::compress;
use crate::tsdb::{push_warm, IngestRoute, SeriesBlock, SeriesSlot, Shard, TimeSeriesStore};
use hpcmon_metrics::{ColumnFrame, SeriesKey, Ts};
use std::ops::Range;
use std::sync::atomic::Ordering;

/// Rows a cohort's matrix grows by.  A constant, not `seal_threshold`: a
/// store built never to seal (`usize::MAX / 2`) must still take wide frames,
/// and at 65,536 nodes a 512-row matrix is 4.9 GB for a window of 64 rows.
const CHUNK_ROWS: usize = 64;
/// Fewest series worth a cohort: one cache line of `f64` per row.
pub const MIN_WIDTH: usize = 8;
/// Columns transposed together when a cohort is read column by column: four
/// cache lines from each row visited.  (A row is pages away from the next,
/// so the visit is what costs; row by row, at one line per visit the
/// transpose of a 4,096-node shard read 3.8 ns a value, at four 2.4, at
/// eight 2.5.)
const TILE: usize = 32;
/// Rows transposed together: one cache line of each tile column.  (Row by
/// row, 40 M values through a consumer that reads every one took 98–133 ms
/// over ten rounds; in bands of eight 60–73 ms.)
const BAND: usize = 8;
/// A member whose series was evicted or dropped; reclaimed at the cohort's
/// next seal.
const RETIRED: u32 = u32::MAX;
/// Set in a [`Seat`]'s column: the rest indexes the cohort's quiet members,
/// not its matrix.
const QUIET: u32 = 1 << 31;
/// A frame position whose series does not exist yet (or, in a gather, a
/// member the key column does not carry).
const UNRESOLVED: u32 = u32::MAX;
/// Shards an ingest holds at once: the default shard count, so a default
/// store takes a frame in one pass over its values.  The guards sit in a
/// stack array; a store with more shards takes the frame in several passes.
const LOCKED: usize = 16;
/// Frame positions each step of the gather covers: 32 KB of values, read
/// once while every cohort takes the columns that fall in them.  (Store-only
/// ingest of 1.2 M samples into 16 shards on an unchanged key column, first
/// touch of the new row included, p50s of 3–8 runs: 8.2–9.3 ms at 1,024,
/// 8.1–9.4 at 4,096, 7.5–8.8 at 16,384 — none resolved from the others —
/// and 10.1–10.9 with one block the size of the frame, i.e. one shard's
/// gather after another.)
const BLOCK: usize = 4_096;

/// Where a series' hot points live: `(cohort, column)` for a member, whose
/// own `hot` then stays empty; the column is `QUIET | i` for the cohort's
/// `i`-th quiet member.
pub(crate) type Seat = Option<(u32, u32)>;

#[derive(Debug, Default)]
pub(crate) struct Cohort {
    /// Slab slot of each loud member's series, one matrix column each.
    members: Vec<u32>,
    /// Slab slot of each quiet member's series and the bits of the value
    /// it has held at every row of the cycle.
    quiet: Vec<(u32, u64)>,
    /// Members, loud or quiet, not `RETIRED`.
    live: usize,
    /// One stamp per row, nondecreasing.
    stamps: Vec<Ts>,
    /// Row-major values, `members.len()` per row, `CHUNK_ROWS` rows per
    /// chunk; at each re-lay compacted and shrunk to the members left loud,
    /// and emptied at each seal.
    chunks: Vec<Vec<f64>>,
    /// Whether the cohort has sealed; until then its second row re-lays it
    /// (only the first cycle's: DESIGN.md §14 says why).
    sealed: bool,
}

impl Cohort {
    fn width(&self) -> usize {
        self.members.len()
    }

    fn rows(&self) -> usize {
        self.stamps.len()
    }

    fn row(&self, r: usize) -> &[f64] {
        let w = self.width();
        &self.chunks[r / CHUNK_ROWS][(r % CHUNK_ROWS) * w..][..w]
    }

    /// Start a row stamped `ts`; its values follow through [`Self::fill`].
    /// A chunk kept from the last cycle is filled again.
    fn open_row(&mut self, ts: Ts) {
        let chunk = self.rows() / CHUNK_ROWS;
        if chunk == self.chunks.len() {
            self.chunks.push(Vec::with_capacity(CHUNK_ROWS * self.width()));
        }
        self.stamps.push(ts);
    }

    /// Append the next columns' values to the open row.
    fn fill(&mut self, values: impl ExactSizeIterator<Item = f64>) {
        let chunk = (self.rows() - 1) / CHUNK_ROWS;
        self.chunks[chunk].extend(values);
    }

    /// Whether the last row holds a value for every column.
    fn row_is_full(&self) -> bool {
        let r = self.rows() - 1;
        self.chunks[r / CHUNK_ROWS].len() == (r % CHUNK_ROWS + 1) * self.width()
    }

    /// The hot points of the member at `column` of a [`Seat`].
    fn view(&self, column: u32) -> Hot<'_> {
        let rows = 0..self.rows();
        match column.checked_sub(QUIET) {
            Some(q) => {
                Hot::Quiet { cohort: self, value: f64::from_bits(self.quiet[q as usize].1), rows }
            }
            None => Hot::Column { cohort: self, column: column as usize, rows },
        }
    }

    /// The slab slot held at `column` of a [`Seat`].
    fn member_mut(&mut self, column: u32) -> &mut u32 {
        match column.checked_sub(QUIET) {
            Some(q) => &mut self.quiet[q as usize].0,
            None => &mut self.members[column as usize],
        }
    }

    /// Slab slots of the live members, loud then quiet.
    fn live_members(&self) -> impl Iterator<Item = u32> + '_ {
        let quiet = self.quiet.iter().map(|&(m, _)| m);
        self.members.iter().copied().chain(quiet).filter(|&m| m != RETIRED)
    }

    /// Hand `visit` every live column — its series' slot and one `cell` per
    /// row, contiguous, as the codec wants to read them.  The matrix is
    /// transposed `TILE` columns at a time into `tile`, so each row gives up
    /// a run of adjacent values per visit instead of one per series.
    fn each_column<T: Copy>(
        &self,
        tile: &mut Vec<T>,
        cell: impl Fn(Ts, f64) -> T,
        mut visit: impl FnMut(u32, &[T]),
    ) {
        let (rows, width) = (self.rows(), self.width());
        if width == 0 {
            return;
        }
        // Off a power of two, so the tile's columns do not share cache sets.
        let stride = rows + MIN_WIDTH;
        tile.clear();
        tile.resize(TILE * stride, cell(Ts::ZERO, 0.0));
        for base in (0..width).step_by(TILE) {
            let members = &self.members[base..(base + TILE).min(width)];
            if members.iter().all(|&m| m == RETIRED) {
                continue;
            }
            let n = members.len();
            let mut r = 0;
            for chunk in &self.chunks {
                // `BAND` rows at a time, so every store completes a line of
                // the tile while each row is still read left to right.
                let mut bands = chunk.chunks_exact(BAND * width);
                for band in &mut bands {
                    let lanes: [&[f64]; BAND] =
                        std::array::from_fn(|k| &band[k * width + base..][..n]);
                    let stamps: [Ts; BAND] = std::array::from_fn(|k| self.stamps[r + k]);
                    for j in 0..n {
                        let line = &mut tile[j * stride + r..][..BAND];
                        for k in 0..BAND {
                            line[k] = cell(stamps[k], lanes[k][j]);
                        }
                    }
                    r += BAND;
                }
                for row in bands.remainder().chunks_exact(width) {
                    for (j, &v) in row[base..base + n].iter().enumerate() {
                        tile[j * stride + r] = cell(self.stamps[r], v);
                    }
                    r += 1;
                }
            }
            for (j, &m) in members.iter().enumerate().filter(|&(_, &m)| m != RETIRED) {
                visit(m, &tile[j * stride..][..rows]);
            }
        }
    }
}

/// A series' hot points, whichever way they are held.
#[derive(Clone)]
pub(crate) enum Hot<'a> {
    /// The series' own buffer.
    Own(&'a [(Ts, f64)]),
    /// Rows `rows` of one column of a cohort.
    Column { cohort: &'a Cohort, column: usize, rows: Range<usize> },
    /// Rows `rows` of a quiet member: the cohort's stamps, one value.
    Quiet { cohort: &'a Cohort, value: f64, rows: Range<usize> },
}

impl<'a> Hot<'a> {
    pub(crate) fn len(&self) -> usize {
        match self {
            Hot::Own(points) => points.len(),
            Hot::Column { rows, .. } | Hot::Quiet { rows, .. } => rows.len(),
        }
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The points stamped inside `[from, to]` (hot points are time-ordered).
    pub(crate) fn within(self, from: Ts, to: Ts) -> Hot<'a> {
        fn window<T>(run: &[T], stamp: impl Fn(&T) -> Ts, from: Ts, to: Ts) -> Range<usize> {
            let lo = run.partition_point(|p| stamp(p) < from);
            lo..run.partition_point(|p| stamp(p) <= to).max(lo)
        }
        let rows_within = |cohort: &Cohort, rows: Range<usize>| {
            let w = window(&cohort.stamps[rows.clone()], |&t| t, from, to);
            rows.start + w.start..rows.start + w.end
        };
        match self {
            Hot::Own(points) => Hot::Own(&points[window(points, |p| p.0, from, to)]),
            Hot::Column { cohort, column, rows } => {
                Hot::Column { cohort, column, rows: rows_within(cohort, rows) }
            }
            Hot::Quiet { cohort, value, rows } => {
                Hot::Quiet { cohort, value, rows: rows_within(cohort, rows) }
            }
        }
    }

    /// The points in time order.
    pub(crate) fn points(&self) -> HotPoints<'a> {
        HotPoints(self.clone())
    }
}

/// Iterator over a [`Hot`] view.
#[derive(Clone)]
pub(crate) struct HotPoints<'a>(Hot<'a>);

impl Iterator for HotPoints<'_> {
    type Item = (Ts, f64);

    #[inline]
    fn next(&mut self) -> Option<(Ts, f64)> {
        match &mut self.0 {
            Hot::Own(points) => {
                let (first, rest) = points.split_first()?;
                *points = rest;
                Some(*first)
            }
            Hot::Column { cohort, column, rows } => {
                let r = rows.next()?;
                Some((cohort.stamps[r], cohort.row(r)[*column]))
            }
            Hot::Quiet { cohort, value, rows } => Some((cohort.stamps[rows.next()?], *value)),
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.0.len(), Some(self.0.len()))
    }
}

impl ExactSizeIterator for HotPoints<'_> {}

/// What [`TimeSeriesStore::hot_layout`] reports: which path the hot tier
/// has taken.  Diagnostic only — not part of `state_digest()`, not a self
/// series: two stores with equal contents may differ here.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HotLayout {
    /// Cohorts that currently have members.
    pub cohorts: usize,
    /// Series whose hot points a cohort holds, as a column or quiet.
    pub members: usize,
    /// Of those, the quiet: one value at every row, no column.
    pub quiet: usize,
    /// Bytes the hot tier holds, by capacity: the cohorts' stamps, matrices
    /// and member lists, and the series' own buffers.
    pub hot_bytes: usize,
    /// Cohorts formed so far.
    pub formations: u64,
    /// Members moved back to their own buffer so far.
    pub evictions: u64,
    /// Cohorts sealed so far (each seals all its members at once).
    pub cohort_seals: u64,
}

/// One shard's cohorts.
#[derive(Debug, Default)]
pub(crate) struct Cohorts {
    /// Indexed by the first half of a [`Seat`]; an entry without live
    /// members is free for the next formation.
    list: Vec<Cohort>,
    /// Advanced by whatever can stale a cached [`ShardPlan`]: formation,
    /// eviction, column compaction, slab compaction, a snapshot load.
    gen: u64,
    formations: u64,
    evictions: u64,
    seals: u64,
}

impl Cohorts {
    /// The hot points of `slot`, wherever they are held — the accessor every
    /// reader outside this file goes through.
    pub(crate) fn hot<'a>(&'a self, slot: &'a SeriesSlot) -> Hot<'a> {
        match slot.seat {
            None => Hot::Own(&slot.data.hot),
            Some((c, j)) => self.list[c as usize].view(j),
        }
    }

    /// The whole-slab read a checkpoint makes: hand `visit` every series
    /// (by slab position) with its hot points, cohort by cohort and then the
    /// rest.  Loud members come transposed out of the matrix through `tile`,
    /// `TILE` columns at a time, where [`Cohorts::hot`] would walk each
    /// column at the matrix's stride; quiet ones are spelled out in it.  The
    /// flag says the stamps are exactly those of the series visited just
    /// before — another member of the same cohort — so a writer that has
    /// just encoded them can copy that stream, as a seal does.
    pub(crate) fn each_hot(
        &self,
        slots: &[SeriesSlot],
        tile: &mut Vec<(Ts, f64)>,
        mut visit: impl FnMut(usize, &[(Ts, f64)], bool),
    ) {
        for cohort in &self.list {
            let mut same_stamps = false;
            cohort.each_column(
                tile,
                |ts, v| (ts, v),
                |member, points| {
                    visit(member as usize, points, same_stamps);
                    same_stamps = true;
                },
            );
            for &(member, bits) in cohort.quiet.iter().filter(|q| q.0 != RETIRED) {
                tile.clear();
                tile.extend(cohort.stamps.iter().map(|&t| (t, f64::from_bits(bits))));
                visit(member as usize, tile, same_stamps);
                same_stamps = true;
            }
        }
        for (i, slot) in slots.iter().enumerate().filter(|(_, s)| s.seat.is_none()) {
            visit(i, &slot.data.hot, false);
        }
    }

    /// Move a member's points into the series' own buffer (no-op for a
    /// series that is not a member).  A loud member's column stays
    /// allocated, unused, until the cohort is next re-laid or empties.
    pub(crate) fn evict(&mut self, slot: &mut SeriesSlot) {
        let Some((c, j)) = slot.seat.take() else { return };
        let cohort = &mut self.list[c as usize];
        debug_assert!(slot.data.hot.is_empty(), "a member's own buffer stays empty");
        slot.data.hot.extend(cohort.view(j).points());
        *cohort.member_mut(j) = RETIRED;
        cohort.live -= 1;
        if cohort.live == 0 {
            *cohort = Cohort::default();
        }
        self.gen += 1;
        self.evictions += 1;
    }

    /// Take `members` (hot-empty series in no cohort), in the order given,
    /// as loud columns of a new cohort.
    fn form(&mut self, members: &[u32], slots: &mut [SeriesSlot]) {
        let c = self.list.iter().position(|c| c.live == 0).unwrap_or_else(|| {
            self.list.push(Cohort::default());
            self.list.len() - 1
        });
        self.list[c] = Cohort::default();
        self.join(c, members, slots);
        self.formations += 1;
    }

    /// Take `members` (hot-empty series in no cohort), in the order given,
    /// as loud columns of cohort `c`, which holds no rows.
    fn join(&mut self, c: usize, members: &[u32], slots: &mut [SeriesSlot]) {
        let cohort = &mut self.list[c];
        debug_assert!(cohort.rows() == 0, "joined between rows");
        cohort.members.reserve_exact(members.len());
        for &m in members {
            let slot = &mut slots[m as usize];
            debug_assert!(slot.seat.is_none() && slot.data.hot.is_empty());
            // A series that sealed on its own gives its buffer back: it
            // will not be needed again short of an eviction.
            slot.data.hot = Vec::new();
            slot.seat = Some((c as u32, cohort.members.len() as u32));
            cohort.members.push(m);
        }
        cohort.live += members.len();
        self.gen += 1;
    }

    /// Re-lay cohort `c` for `loud`, the members that keep a column (in
    /// column order), and `quiet`; any other member (retired) is dropped.
    /// The rows held so far are compacted to the loud columns and every
    /// chunk shrunk to `CHUNK_ROWS` rows of them: what the matrix held for
    /// the others goes back now, and the rows still to come land without
    /// reallocating, in memory a loud column already touched.
    fn relay(
        &mut self,
        c: usize,
        loud: Vec<u32>,
        mut quiet: Vec<(u32, u64)>,
        slots: &mut [SeriesSlot],
    ) {
        // Quiet members in slab order, which is mostly frame order, so the
        // gather's compares walk the frame forwards.
        quiet.sort_unstable_by_key(|&(member, _)| member);
        let cohort = &mut self.list[c];
        // Unless a member went quiet or was retired, every seat stands.
        if loud != cohort.members || quiet.len() != cohort.quiet.len() {
            let width = cohort.width();
            let column = |m: u32| slots[m as usize].seat.expect("a member has a seat").1 as usize;
            for chunk in &mut cohort.chunks {
                // Columns keep their order, so each value moves left onto
                // one already read.
                let rows = chunk.len().checked_div(width).unwrap_or(0);
                for r in 0..rows {
                    for (j, &m) in loud.iter().enumerate() {
                        chunk[r * loud.len() + j] = chunk[r * width + column(m)];
                    }
                }
                chunk.truncate(rows * loud.len());
            }
            for (j, &m) in loud.iter().enumerate() {
                slots[m as usize].seat = Some((c as u32, j as u32));
            }
            for (q, &(m, _)) in quiet.iter().enumerate() {
                slots[m as usize].seat = Some((c as u32, QUIET | q as u32));
            }
            cohort.live = loud.len() + quiet.len();
            cohort.members = loud;
            cohort.quiet = quiet;
            self.gen += 1;
        }
        for chunk in &mut cohort.chunks {
            chunk.shrink_to(CHUNK_ROWS * cohort.members.len());
        }
    }

    /// A cohort's second row in its first cycle: re-lay it with the members
    /// whose two values are the same bits quiet, as a seal that found their
    /// block flat would, so the rest of the cycle takes no column for them.
    fn quiet_down(&mut self, c: usize, slots: &mut [SeriesSlot]) {
        let cohort = &self.list[c];
        debug_assert!(cohort.quiet.is_empty(), "a cohort goes quiet first at its second row");
        let (first, second) = (cohort.row(0), cohort.row(1));
        let (mut loud, mut quiet) = (Vec::new(), Vec::new());
        for (j, &m) in cohort.members.iter().enumerate().filter(|&(_, &m)| m != RETIRED) {
            let bits = first[j].to_bits();
            if second[j].to_bits() == bits {
                quiet.push((m, bits));
            } else {
                loud.push(m);
            }
        }
        self.relay(c, loud, quiet, slots);
    }

    /// Seal every member of cohort `c` into the block
    /// [`SeriesBlock::compress`] would make of its points, the timestamp
    /// stream encoded once and copied; a quiet member's values are its value
    /// and one run, built without a column.  Then re-lay the cohort for the
    /// next cycle: the members whose block came out flat go quiet, the rest
    /// keep a column.
    fn seal(&mut self, c: usize, slots: &mut [SeriesSlot], store: &TimeSeriesStore) {
        let cohort = &mut self.list[c];
        let rows = cohort.rows();
        if rows == 0 {
            return;
        }
        let (start, end) = (cohort.stamps[0], cohort.stamps[rows - 1]);
        let count = u32::try_from(rows).expect("a cohort seals long before 2^32 rows");
        let ts_bytes = compress::encode_timestamps(cohort.stamps.iter().copied());
        let mut seal_one = |member: u32, val_bytes: Vec<u8>| {
            let slot = &mut slots[member as usize];
            let ts_bytes = ts_bytes.clone();
            let block = SeriesBlock { key: slot.key, start, end, count, ts_bytes, val_bytes };
            store.account_seal(&block);
            push_warm(&mut slot.data.warm, block);
        };
        let (mut loud, mut quiet) = (Vec::with_capacity(cohort.width()), Vec::new());
        // Every column is encoded once, into `stream`, and copied out at its
        // exact size, where a lone series sizes its stream with a first run
        // of the codec: with thousands of columns to a seal one reused
        // buffer is cheaper than a second pass over each.
        let mut stream = Vec::new();
        cohort.each_column(
            &mut Vec::new(),
            |_, v| v,
            |member, column| {
                stream.clear();
                compress::encode_values_into(&mut stream, column, |&v| v);
                seal_one(member, stream.clone());
                let bits = column[0].to_bits();
                if compress::repeats(&column[1..], bits, |&v| v) == rows - 1 {
                    quiet.push((member, bits));
                } else {
                    loud.push(member);
                }
            },
        );
        for &(member, bits) in cohort.quiet.iter().filter(|q| q.0 != RETIRED) {
            seal_one(member, compress::encode_flat(bits, rows));
            quiet.push((member, bits));
        }
        cohort.stamps.clear();
        cohort.chunks.iter_mut().for_each(Vec::clear);
        cohort.sealed = true;
        // Re-laid before the next cohort's blocks are made, so the memory it
        // gives back is there for them.
        self.relay(c, loud, quiet, slots);
        self.seals += 1;
    }

    /// Seal every cohort that holds rows (`seal_all`).
    pub(crate) fn seal_all(&mut self, slots: &mut [SeriesSlot], store: &TimeSeriesStore) {
        for c in 0..self.list.len() {
            self.seal(c, slots, store);
        }
    }

    /// The slab was compacted: point every member at its series' new slot
    /// and retire the members whose series were dropped.
    pub(crate) fn remap(&mut self, slots: &[SeriesSlot]) {
        for cohort in &mut self.list {
            cohort.members.fill(RETIRED);
            cohort.quiet.iter_mut().for_each(|q| q.0 = RETIRED);
            cohort.live = 0;
        }
        for (i, slot) in slots.iter().enumerate() {
            if let Some((c, j)) = slot.seat {
                let cohort = &mut self.list[c as usize];
                *cohort.member_mut(j) = i as u32;
                cohort.live += 1;
            }
        }
        for cohort in self.list.iter_mut().filter(|c| c.live == 0) {
            *cohort = Cohort::default();
        }
        self.gen += 1;
    }

    /// Forget every cohort (the slab was emptied for a snapshot load, whose
    /// series all come back per-series).
    pub(crate) fn clear(&mut self) {
        self.list.clear();
        self.gen += 1;
    }

    /// Evict whatever this batch does not treat as one more whole row:
    /// members seen twice, the absentees of a cohort the
    /// batch mostly covers, the present members of one it mostly misses or
    /// whose last row is newer than the batch.
    fn settle(&mut self, slots: &mut [SeriesSlot], seen: &[Seen], ts: Ts) {
        for c in 0..self.list.len() {
            let cohort = &self.list[c];
            let present = cohort.live_members().filter(|&m| seen[m as usize] == Seen::Once).count();
            let stale = cohort.stamps.last().is_some_and(|&last| ts < last);
            if present == cohort.live && !stale {
                continue;
            }
            let evict_present = stale || present * 2 < cohort.live;
            let leaves = |&m: &u32| match seen[m as usize] {
                Seen::Irregular => true,
                Seen::Once => evict_present,
                Seen::Absent => !evict_present,
            };
            let leaving: Vec<u32> = cohort.live_members().filter(leaves).collect();
            for m in leaving {
                self.evict(&mut slots[m as usize]);
            }
        }
    }

    /// Hand a batch's newcomers — hot-empty series in no cohort, present
    /// once — a cohort: a new one if there are enough; else those that
    /// sealed on the tick a cohort the batch carries did (as a quiet member
    /// evicted in the cycle does) rejoin it while it holds no rows.
    fn seat(&mut self, newcomers: &[u32], seen: &[Seen], slots: &mut [SeriesSlot]) {
        if newcomers.len() >= MIN_WIDTH {
            return self.form(newcomers, slots);
        }
        let sealed_at = |m: u32| slots[m as usize].data.warm.last().map(|b| b.end);
        for c in 0..self.list.len() {
            let cohort = &self.list[c];
            let carried = cohort.live_members().find(|&m| seen[m as usize] == Seen::Once);
            let Some(member) = carried.filter(|_| cohort.rows() == 0) else { continue };
            let end = sealed_at(member);
            let rejoin: Vec<u32> =
                newcomers.iter().copied().filter(|&n| sealed_at(n) == end).collect();
            if !rejoin.is_empty() {
                return self.join(c, &rejoin, slots);
            }
        }
    }

    fn layout(&self, slots: &[SeriesSlot], into: &mut HotLayout) {
        into.cohorts += self.list.iter().filter(|c| c.live > 0).count();
        into.members += self.list.iter().map(|c| c.live).sum::<usize>();
        into.formations += self.formations;
        into.evictions += self.evictions;
        into.cohort_seals += self.seals;
        for c in &self.list {
            into.quiet += c.quiet.iter().filter(|q| q.0 != RETIRED).count();
            into.hot_bytes += c.stamps.capacity() * size_of::<Ts>()
                + c.chunks.iter().map(|k| k.capacity() * size_of::<f64>()).sum::<usize>()
                + c.chunks.capacity() * size_of::<Vec<f64>>()
                + c.members.capacity() * size_of::<u32>()
                + c.quiet.capacity() * size_of::<(u32, u64)>();
        }
        into.hot_bytes +=
            slots.iter().map(|s| s.data.hot.capacity() * size_of::<(Ts, f64)>()).sum::<usize>();
    }
}

/// How one batch treats a series.
#[derive(Clone, Copy, PartialEq)]
enum Seen {
    Absent,
    /// One sample.
    Once,
    /// Two or more samples.
    Irregular,
}

/// One cohort's share of a frame: the frame position of each column's
/// sample, so a row is one gather, and of each quiet member's, so the row
/// can check them.
#[derive(Debug, Default)]
struct Gather {
    cohort: u32,
    pos: Vec<u32>,
    quiet_pos: Vec<u32>,
    /// Live members the key column carries.
    present: usize,
    /// The last of their positions.
    last_pos: u32,
    /// Step `b` of the blocked gather fills columns `cuts[b]..cuts[b + 1]`.
    cuts: Vec<u32>,
}

impl Gather {
    /// Assign the columns, in order, to the `BLOCK`s of frame positions:
    /// a column goes to the block holding the highest position up to and
    /// including its own.  Where positions ascend with the columns that is
    /// the block holding its own; where they do not (a retired column reads
    /// the batch's first position, or the key column was permuted) a column
    /// never fills before the columns left of it, and some reads leave the
    /// block.
    fn cut(&mut self) {
        self.cuts.clear();
        self.cuts.push(0);
        let (mut high, mut end) = (0, BLOCK);
        for (j, &p) in self.pos.iter().enumerate() {
            high = high.max(p as usize);
            while high >= end {
                self.cuts.push(j as u32);
                end += BLOCK;
            }
        }
        self.cuts.push(self.pos.len() as u32);
    }
}

/// How a shard's batch lands, derived from its slot hints and the shard's
/// cohorts: the gathers in column order plus the loose rest.
#[derive(Debug, Default)]
struct RowPlan {
    /// [`Cohorts::gen`] this was derived at.
    gen: u64,
    /// The batch is nothing but whole rows and per-series appends: every
    /// series exists, no member is absent or present twice.
    clean: bool,
    gathers: Vec<Gather>,
    /// `(position, slot)` of every sample of a series in no cohort, in
    /// frame order.
    loose: Vec<(u32, u32)>,
}

impl RowPlan {
    /// Lookup-free: `slot_of` already names each position's slot.
    fn derive(&mut self, all: &[u32], slot_of: &[u32], keys: &[SeriesKey], shard: &Shard) {
        let cohorts = &shard.cohorts;
        self.gen = cohorts.gen;
        self.clean = true;
        self.loose.clear();
        for g in &mut self.gathers {
            g.present = 0;
        }
        for (&pos, &slot) in all.iter().zip(slot_of) {
            // A hint that is unresolved, or (a slab compaction raced the
            // route) names another series, sends the batch the slow way.
            let Some(s) = shard.slots.get(slot as usize).filter(|s| s.key == keys[pos as usize])
            else {
                self.clean = false;
                continue;
            };
            let Some((c, j)) = s.seat else {
                self.loose.push((pos, slot));
                continue;
            };
            let at = self.gathers.iter().position(|g| g.cohort == c).unwrap_or_else(|| {
                self.gathers.push(Gather { cohort: c, ..Gather::default() });
                self.gathers.len() - 1
            });
            let g = &mut self.gathers[at];
            if g.present == 0 {
                let cohort = &cohorts.list[c as usize];
                g.pos.clear();
                g.pos.resize(cohort.width(), UNRESOLVED);
                g.quiet_pos.clear();
                g.quiet_pos.resize(cohort.quiet.len(), UNRESOLVED);
            }
            let at = match j.checked_sub(QUIET) {
                Some(q) => &mut g.quiet_pos[q as usize],
                None => &mut g.pos[j as usize],
            };
            if *at != UNRESOLVED {
                self.clean = false;
                continue;
            }
            *at = pos;
            g.present += 1;
            g.last_pos = pos;
        }
        self.gathers.retain(|g| g.present > 0);
        for g in &mut self.gathers {
            let cohort = &cohorts.list[g.cohort as usize];
            self.clean &= g.present == cohort.live;
            // A retired column still takes a value every row, read by
            // nobody: any position of the batch will do.
            for (p, &m) in g.pos.iter_mut().zip(&cohort.members) {
                if m == RETIRED {
                    *p = all[0];
                }
            }
            for (p, &(m, _)) in g.quiet_pos.iter_mut().zip(&cohort.quiet) {
                if m == RETIRED {
                    *p = all[0];
                }
            }
        }
        // Rows that are not clean are never landed.
        if self.clean {
            self.gathers.iter_mut().for_each(Gather::cut);
        }
    }

    /// Whether `shard` can take a synchronized frame stamped `ts` straight
    /// through this plan: nothing moved since it was derived, no cohort's
    /// last row is newer, and no loose series is hot-empty that could be
    /// seated — enough of them to form a cohort of, or any while a cohort
    /// the plan gathers holds no rows to join.
    fn fits(&self, shard: &Shard, ts: Ts) -> bool {
        let cohorts = &shard.cohorts;
        let in_order = |g: &Gather| {
            cohorts.list[g.cohort as usize].stamps.last().is_none_or(|&last| last <= ts)
        };
        let hot_empty = |&&(_, slot): &&(u32, u32)| shard.slots[slot as usize].data.hot.is_empty();
        let newcomers = self.loose.iter().filter(hot_empty).count();
        let open = || self.gathers.iter().any(|g| cohorts.list[g.cohort as usize].rows() == 0);
        self.clean
            && self.gen == cohorts.gen
            && self.gathers.iter().all(in_order)
            && (newcomers == 0 || newcomers < MIN_WIDTH && !open())
    }
}

/// One shard's part of an `IngestRoute`.
#[derive(Debug, Default)]
pub(crate) struct ShardPlan {
    /// Frame positions that land in this shard, ascending.
    all: Vec<u32>,
    /// Slab slot of each (`UNRESOLVED` while the series does not exist).
    slot_of: Vec<u32>,
    unresolved: usize,
    /// `all` / `slot_of` changed since `rows` was derived.
    changed: bool,
    rows: RowPlan,
}

impl ShardPlan {
    /// Samples of the routed frame that land in this shard.
    pub(crate) fn len(&self) -> usize {
        self.all.len()
    }

    /// Forget every position at or past `common`.
    pub(crate) fn cut(&mut self, common: u32) {
        let keep = self.all.partition_point(|&p| p < common);
        if keep == self.all.len() {
            return;
        }
        self.unresolved -= self.slot_of[keep..].iter().filter(|&&s| s == UNRESOLVED).count();
        self.all.truncate(keep);
        self.slot_of.truncate(keep);
        // Loose samples leave the rows as they leave the column; a member
        // gone missing means deriving them again.
        if self.rows.clean && self.rows.gathers.iter().all(|g| g.last_pos < common) {
            let keep = self.rows.loose.partition_point(|&(p, _)| p < common);
            self.rows.loose.truncate(keep);
        } else {
            self.changed = true;
        }
    }

    /// Add frame position `pos` (past every position already held).
    pub(crate) fn push(&mut self, pos: u32) {
        self.all.push(pos);
        self.slot_of.push(UNRESOLVED);
        self.unresolved += 1;
    }

    /// Bring the plan up to date with `shard`, lookup-only: resolve the
    /// positions whose series now exist, and re-derive the rows if more
    /// than loose samples at the tail changed, or the shard's cohorts did.
    pub(crate) fn refresh(&mut self, shard: &Shard, keys: &[SeriesKey]) {
        if self.unresolved > 0 {
            for (&pos, slot) in self.all.iter().zip(&mut self.slot_of) {
                if *slot != UNRESOLVED {
                    continue;
                }
                let found = shard.index.get(&keys[pos as usize]).copied();
                if let Some(found) = found {
                    *slot = found;
                    self.unresolved -= 1;
                }
                // Pushed positions are past every other, so a sample of an
                // existing series in no cohort joins clean rows at the end.
                match found.filter(|&s| shard.slots[s as usize].seat.is_none()) {
                    Some(found) if self.rows.clean && !self.changed => {
                        self.rows.loose.push((pos, found));
                    }
                    _ => self.changed = true,
                }
            }
        }
        if !self.all.is_empty() && (self.changed || self.rows.gen != shard.cohorts.gen) {
            self.rows.derive(&self.all, &self.slot_of, keys, shard);
            self.changed = false;
        }
    }
}

impl TimeSeriesStore {
    /// Land `cf` through `route`, prepared for it, `LOCKED` shards at a
    /// time: every touched shard's write lock is taken in index order — the
    /// order `snapshot()` takes its read locks — and held until the group
    /// has landed.  A shard whose cached rows no longer fit goes the slow
    /// way first, alone; the rest land together ([`Self::land`]).
    pub(crate) fn ingest_route(&self, cf: &ColumnFrame, route: &IngestRoute) {
        assert_eq!(cf.len(), route.column.len(), "the route was prepared for another frame");
        for (group, plans) in route.per_shard.chunks(LOCKED).enumerate() {
            let batch: u64 = plans.iter().map(|p| p.len() as u64).sum();
            if batch == 0 {
                continue;
            }
            self.samples_ingested.fetch_add(batch, Ordering::Relaxed);
            // One occupancy bump for the whole batch — seals subtract their
            // own counts as they happen, so the final tally matches the
            // per-sample accounting of `insert`.
            self.hot_points.fetch_add(batch, Ordering::Relaxed);
            let shards = &self.shards[group * LOCKED..];
            let mut guards: [Option<_>; LOCKED] = std::array::from_fn(|i| {
                plans.get(i).filter(|p| p.len() > 0).map(|_| shards[i].write())
            });
            let mut lanes: [Option<(&mut Shard, &RowPlan)>; LOCKED] = std::array::from_fn(|_| None);
            for ((lane, guard), plan) in lanes.iter_mut().zip(&mut guards).zip(plans) {
                let Some(shard) = guard.as_deref_mut() else { continue };
                if plan.rows.fits(shard, cf.ts) {
                    *lane = Some((shard, &plan.rows));
                } else {
                    self.ingest_batch(shard, cf, plan);
                }
            }
            self.land(cf, &mut lanes);
            drop(guards);
            self.bump_epoch_by(batch);
        }
        // One head check for the frame, never one per sample.
        if !cf.is_empty() {
            self.note_write(cf.ts);
        }
    }

    /// The slow way round for one shard whose cached rows no longer fit:
    /// settle the shard for this batch, derive fresh rows, and land those.
    fn ingest_batch(&self, shard: &mut Shard, cf: &ColumnFrame, plan: &ShardPlan) {
        let slot_of = self.settle_batch(shard, cf, plan);
        let mut rows = RowPlan::default();
        rows.derive(&plan.all, &slot_of, &cf.keys, shard);
        assert!(rows.clean, "a settled shard takes its batch as whole rows");
        self.land(cf, &mut [Some((shard, &rows))]);
    }

    /// Land each lane's rows in its shard: one row opened per gathered
    /// cohort, filled in one pass over `cf`'s values, `BLOCK` positions at
    /// a time, each cohort taking the columns its cuts assign the block;
    /// then each cohort's quiet members are checked against their samples
    /// (one that differs is evicted, its row's point the sample), the
    /// cohorts that reached the threshold seal (the tick every member would
    /// seal on alone), those at their first cycle's second row are re-laid,
    /// and the loose samples are appended one by one.
    fn land(&self, cf: &ColumnFrame, lanes: &mut [Option<(&mut Shard, &RowPlan)>]) {
        for (shard, rows) in lanes.iter_mut().flatten() {
            for g in &rows.gathers {
                shard.cohorts.list[g.cohort as usize].open_row(cf.ts);
            }
        }
        for block in 0..cf.len().div_ceil(BLOCK) {
            for (shard, rows) in lanes.iter_mut().flatten() {
                for g in &rows.gathers {
                    let Some(&[from, to]) = g.cuts.get(block..block + 2) else { continue };
                    let columns = &g.pos[from as usize..to as usize];
                    let cohort = &mut shard.cohorts.list[g.cohort as usize];
                    cohort.fill(columns.iter().map(|&p| cf.values[p as usize]));
                }
            }
        }
        for (shard, rows) in lanes.iter_mut().flatten() {
            let Shard { slots, cohorts, .. } = &mut **shard;
            for g in &rows.gathers {
                let c = g.cohort as usize;
                let cohort = &cohorts.list[c];
                debug_assert!(cohort.row_is_full(), "every column of the row was filled");
                let moved = |(&(m, bits), &p): (&(u32, u64), &u32)| {
                    m != RETIRED && cf.values[p as usize].to_bits() != bits
                };
                if cohort.quiet.iter().zip(&g.quiet_pos).any(moved) {
                    for (q, &p) in g.quiet_pos.iter().enumerate() {
                        // Re-read each time: an eviction that empties the
                        // cohort resets it.
                        let Some(&quiet) = cohorts.list[c].quiet.get(q) else { break };
                        if !moved((&quiet, &p)) {
                            continue;
                        }
                        let s = &mut slots[quiet.0 as usize];
                        cohorts.evict(s);
                        // The row's point is the sample, not the value.
                        s.data.hot.pop();
                        self.append_point(s.key, &mut s.data, cf.ts, cf.values[p as usize]);
                    }
                }
                let cohort = &cohorts.list[c];
                if cohort.rows() >= self.seal_threshold {
                    cohorts.seal(c, slots, self);
                } else if cohort.rows() == 2 && !cohort.sealed {
                    cohorts.quiet_down(c, slots);
                }
            }
            for &(pos, slot) in &rows.loose {
                let s = &mut slots[slot as usize];
                self.append_point(s.key, &mut s.data, cf.ts, cf.values[pos as usize]);
            }
        }
    }

    /// Create the batch's missing series, evict every member it treats
    /// irregularly, and seat its newcomers in a cohort where one takes them:
    /// hot-empty series in no cohort (newborn, or just sealed), present
    /// exactly once.  Returns each position's slot.
    fn settle_batch(&self, shard: &mut Shard, cf: &ColumnFrame, plan: &ShardPlan) -> Vec<u32> {
        let mut slot_of = Vec::with_capacity(plan.all.len());
        for (&pos, &hint) in plan.all.iter().zip(&plan.slot_of) {
            let key = cf.keys[pos as usize];
            slot_of.push(match shard.slots.get(hint as usize) {
                Some(s) if s.key == key => hint,
                _ => self.resolve_slot(shard, key),
            });
        }
        let mut seen = vec![Seen::Absent; shard.slots.len()];
        for &slot in &slot_of {
            let s = &mut seen[slot as usize];
            *s = if *s == Seen::Absent { Seen::Once } else { Seen::Irregular };
        }
        let Shard { slots, cohorts, .. } = shard;
        cohorts.settle(slots, &seen, cf.ts);
        let newcomer = |&slot: &u32| {
            let s = &slots[slot as usize];
            seen[slot as usize] == Seen::Once && s.seat.is_none() && s.data.hot.is_empty()
        };
        let newcomers: Vec<u32> = slot_of.iter().copied().filter(newcomer).collect();
        cohorts.seat(&newcomers, &seen, slots);
        slot_of
    }

    /// Which path the hot tier has taken so far (see [`HotLayout`]).
    pub fn hot_layout(&self) -> HotLayout {
        let mut layout = HotLayout::default();
        for shard in &self.shards {
            let shard = shard.read();
            shard.cohorts.layout(&shard.slots, &mut layout);
        }
        layout
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpcmon_metrics::alloc_count::thread_allocations;
    use hpcmon_metrics::{CompId, MetricId, Sample};

    const ALL: (Ts, Ts) = (Ts::ZERO, Ts(u64::MAX));

    /// A store fed through the route beside the oracle: a twin that sees the
    /// same samples, in frame order, through `insert()` alone.
    struct Pair {
        routed: TimeSeriesStore,
        oracle: TimeSeriesStore,
        route: IngestRoute,
    }

    impl Pair {
        fn new(shards: usize, threshold: usize) -> Pair {
            Pair {
                routed: TimeSeriesStore::with_options(shards, threshold),
                oracle: TimeSeriesStore::with_options(shards, threshold),
                route: IngestRoute::new(),
            }
        }

        fn frame(&mut self, cf: &ColumnFrame) {
            self.routed.ingest_columns(cf, &mut self.route);
            for s in cf.iter() {
                self.oracle.insert(&s);
            }
        }

        fn insert(&self, s: Sample) {
            self.routed.insert(&s);
            self.oracle.insert(&s);
        }

        /// Everything observable, down to the checkpoint bytes and every
        /// warm block's bytes (consumes the warm tiers, so call it last).
        fn assert_same(&self, when: &str) {
            let (a, b) = (&self.routed, &self.oracle);
            assert_eq!(a.stats(), a.occupancy(), "{when}: counters against the scan");
            assert_eq!(a.stats(), b.stats(), "{when}");
            assert_eq!(a.op_counts(), b.op_counts(), "{when}");
            assert_eq!(a.epoch(), b.epoch(), "{when}");
            assert_eq!(a.state_digest(), b.state_digest(), "{when}");
            assert_eq!(a.all_series(), b.all_series(), "{when}");
            for k in a.all_series() {
                let bits = |s: &TimeSeriesStore| -> Vec<(Ts, u64)> {
                    s.query(k, ALL.0, ALL.1).into_iter().map(|(t, v)| (t, v.to_bits())).collect()
                };
                assert_eq!(bits(a), bits(b), "{when}: {k:?}");
            }
            let json = |s: &TimeSeriesStore| serde_json::to_vec(&s.snapshot()).unwrap();
            assert_eq!(json(a), json(b), "{when}: checkpoint bytes");
            let warm = |s: &TimeSeriesStore| {
                let mut blocks = s.evict_warm_before(ALL.1);
                blocks.sort_by_key(|b| (b.key, b.start));
                blocks
            };
            assert_eq!(warm(a), warm(b), "{when}: warm blocks");
        }
    }

    /// `metrics` samples for each of `nodes`, node-major like the collectors.
    fn frame_of(tick: u64, nodes: impl IntoIterator<Item = u32>, metrics: u32) -> ColumnFrame {
        let mut cf = ColumnFrame::new(Ts(tick * 1_000));
        for n in nodes {
            for m in 0..metrics {
                cf.push(MetricId(m), CompId::node(n), (tick * 7 + n as u64 * 3 + m as u64) as f64);
            }
        }
        cf
    }

    #[test]
    fn cohort_forms_on_the_first_frame_and_seals_with_the_oracle() {
        let mut pair = Pair::new(2, 8);
        for tick in 0..21 {
            pair.frame(&frame_of(tick, 0..16, 4));
        }
        let layout = pair.routed.hot_layout();
        assert_eq!((layout.cohorts, layout.members, layout.formations), (2, 64, 2));
        assert_eq!((layout.evictions, layout.cohort_seals), (0, 4));
        let oracle = HotLayout { hot_bytes: 0, ..pair.oracle.hot_layout() };
        assert_eq!(oracle, HotLayout::default(), "insert() never forms one");
        pair.assert_same("two seals and five rows");
    }

    /// Sixteen nodes of two metrics: metric 0 holds `level(node, tick)`,
    /// metric 1 changes every tick.
    fn leveled(
        tick: u64,
        nodes: impl IntoIterator<Item = u32>,
        level: impl Fn(u32, u64) -> f64,
    ) -> ColumnFrame {
        let mut cf = ColumnFrame::new(Ts(tick * 1_000));
        for n in nodes {
            cf.push(MetricId(0), CompId::node(n), level(n, tick));
            cf.push(MetricId(1), CompId::node(n), (tick * 7 + n as u64) as f64);
        }
        cf
    }

    #[test]
    fn cohort_member_that_sealed_flat_goes_quiet_and_seals_into_the_compress_bytes() {
        let mut pair = Pair::new(2, 8);
        let level = |n: u32, _| 100.0 + n as f64;
        for tick in 0..8 {
            pair.frame(&leveled(tick, 0..16, level));
        }
        let layout = pair.routed.hot_layout();
        assert_eq!((layout.members, layout.quiet, layout.evictions), (32, 16, 0), "{layout:?}");
        // The quiet members' half of the matrix was given back: a 64-row
        // chunk of the 16 loud columns is left (8 KB), not one of 32.
        assert!((8_192..16_384).contains(&layout.hot_bytes), "{layout:?}");
        for tick in 8..19 {
            pair.frame(&leveled(tick, 0..16, level));
            // A quiet member's hot points are the cohort's stamps and its
            // value.
            let key = SeriesKey::new(MetricId(0), CompId::node(5));
            let (from, to) = (Ts(9_500), Ts(u64::MAX));
            assert_eq!(pair.routed.query(key, from, to), pair.oracle.query(key, from, to));
        }
        // The second block of a quiet member was built from its value
        // alone, into the bytes `SeriesBlock::compress` makes of its points:
        // eight points, the value, a run of seven in six bits.
        let key = SeriesKey::new(MetricId(0), CompId::node(5));
        let points = pair.oracle.query(key, Ts(8_000), Ts(15_000));
        let shard = pair.routed.shard_of(&key).read();
        let warm = &shard.slots[shard.index[&key] as usize].data.warm;
        assert_eq!((warm.len(), warm[1].val_bytes.len()), (2, 1 + 9));
        assert_eq!(warm[1], SeriesBlock::compress(key, &points));
        drop(shard);
        let layout = pair.routed.hot_layout();
        assert_eq!((layout.quiet, layout.evictions, layout.cohort_seals), (16, 0, 4));
        pair.assert_same("two seals and three quiet rows");
    }

    #[test]
    fn cohort_quiet_member_that_moves_leaves_with_its_value_and_rejoins_after_the_seal() {
        let mut pair = Pair::new(2, 8);
        // Node 3 starts changing at row 5 of the second cycle; node 4 steps
        // to a new level on that cycle's seal row and holds it; node 6 is
        // absent from one frame of the third cycle.
        let level = |n: u32, t: u64| match n {
            3 if t >= 13 => t as f64,
            4 if t >= 15 => 7.0,
            _ => 100.0 + n as f64,
        };
        for tick in 0..15 {
            pair.frame(&leveled(tick, 0..16, level));
        }
        let layout = pair.routed.hot_layout();
        assert_eq!((layout.quiet, layout.evictions), (15, 1), "{layout:?}");
        pair.frame(&leveled(15, 0..16, level));
        // Node 4 left on the seal row and sealed on its own on that tick,
        // as node 3 did: the cohorts hold the rest, quiet.
        let layout = pair.routed.hot_layout();
        assert_eq!((layout.members, layout.quiet, layout.evictions), (30, 14, 2), "{layout:?}");
        // Both sealed with the cohorts, so the next frame seats them again,
        // loud.
        pair.frame(&leveled(16, 0..16, level));
        let layout = pair.routed.hot_layout();
        assert_eq!((layout.members, layout.quiet, layout.formations), (32, 14, 2), "{layout:?}");
        for tick in 17..20 {
            pair.frame(&leveled(tick, 0..16, level));
        }
        // Absent from a frame: node 6's quiet and loud members both leave.
        pair.frame(&leveled(20, (0..6).chain(7..16), level));
        let layout = pair.routed.hot_layout();
        assert_eq!((layout.members, layout.quiet, layout.evictions), (30, 13, 4), "{layout:?}");
        for tick in 21..24 {
            pair.frame(&leveled(tick, 0..16, level));
        }
        // Node 4 held its new level for the whole third cycle: quiet again.
        assert_eq!(pair.routed.hot_layout().quiet, 14);
        // Written through `insert()`: a quiet member leaves too.
        pair.insert(Sample::new(MetricId(0), CompId::node(9), Ts(23_500), 109.0));
        assert_eq!(pair.routed.hot_layout().quiet, 13);
        for tick in 24..29 {
            pair.frame(&leveled(tick, 0..16, level));
        }
        // A loaded store is per-series; it hashes like its twin, and its
        // series go quiet again after the next two seals — all but node 6's
        // and node 9's metric 0, which the absence and the insert put a
        // point out of step: they seal on other ticks, alone.
        pair.routed.load_snapshot(pair.routed.snapshot());
        assert_eq!(pair.routed.state_digest(), pair.oracle.state_digest());
        for tick in 29..48 {
            pair.frame(&leveled(tick, 0..16, level));
        }
        let layout = pair.routed.hot_layout();
        assert_eq!((layout.members, layout.quiet), (29, 13), "{layout:?}");
        pair.assert_same("moves, an absence, an insert and a load among quiet members");
    }

    /// Metric 0 of 64 nodes, node `n` holding `value(n, tick)`.
    fn of_64(tick: u64, value: impl Fn(u32, u64) -> f64) -> ColumnFrame {
        let mut cf = ColumnFrame::new(Ts(tick * 1_000));
        for n in 0..64 {
            cf.push(MetricId(0), CompId::node(n), value(n, tick));
        }
        cf
    }

    /// Nodes 0..48 repeat their first value; 48..56 change every row;
    /// 56..60 hold theirs until tick 5 and then change every row; 60..64
    /// differ from theirs at tick 1 and from tick 12 on.
    fn first_rows(n: u32, t: u64) -> f64 {
        match n {
            48..56 => (t * 7 + n as u64) as f64,
            56..60 if t >= 5 => t as f64 + 0.5,
            60..64 if t == 1 || t >= 12 => t as f64 + 0.25,
            _ => n as f64,
        }
    }

    #[test]
    fn cohort_member_that_repeats_its_first_value_goes_quiet_at_the_second_row() {
        let mut pair = Pair::new(1, 8);
        pair.frame(&of_64(0, first_rows));
        assert_eq!(pair.routed.hot_layout().quiet, 0, "one row decides nothing");
        pair.frame(&of_64(1, first_rows));
        // Nodes 0..48 and 56..60 went quiet at the second row, before any
        // seal: the matrix kept a 64-row chunk of the 12 loud columns
        // (6 KB), not one of 64 (32 KB).
        let layout = pair.routed.hot_layout();
        assert_eq!((layout.quiet, layout.evictions, layout.cohort_seals), (52, 0, 0));
        assert!((6_144..8_192).contains(&layout.hot_bytes), "{layout:?}");
        for k in pair.routed.all_series() {
            assert_eq!(pair.routed.query(k, ALL.0, ALL.1), pair.oracle.query(k, ALL.0, ALL.1));
        }
        for tick in 2..6 {
            pair.frame(&of_64(tick, first_rows));
        }
        // Nodes 56..60 moved at row 5 and left with six points each; the
        // cohort still holds the loud share alone.
        let layout = pair.routed.hot_layout();
        assert_eq!((layout.members, layout.quiet, layout.evictions), (60, 48, 4), "{layout:?}");
        assert!((6_144 + 4 * 96..8_192 + 4 * 96).contains(&layout.hot_bytes), "{layout:?}");
        for tick in 6..12 {
            pair.frame(&of_64(tick, first_rows));
        }
        // Sealed with the oracle; the movers sealed alone on that tick too
        // and rejoined loud.  A loaded store is per-series until it seals.
        let layout = pair.routed.hot_layout();
        assert_eq!((layout.members, layout.quiet, layout.cohort_seals), (64, 48, 1), "{layout:?}");
        pair.routed.load_snapshot(pair.routed.snapshot());
        assert_eq!(pair.routed.state_digest(), pair.oracle.state_digest());
        for tick in 12..30 {
            pair.frame(&of_64(tick, first_rows));
        }
        pair.assert_same("quiet from the second row, a seal and a load");
    }

    #[test]
    fn cohort_loud_member_whose_rows_agree_after_a_seal_keeps_its_column() {
        let mut pair = Pair::new(1, 8);
        for tick in 0..10 {
            pair.frame(&of_64(tick, first_rows));
        }
        // Row 2 of the second cycle: nodes 60..64 held one value at rows 0
        // and 1, as in every block that opens flat, and stay loud.
        let layout = pair.routed.hot_layout();
        assert_eq!((layout.quiet, layout.evictions, layout.cohort_seals), (48, 4, 1));
        for tick in 10..16 {
            pair.frame(&of_64(tick, first_rows));
        }
        // They moved at row 4 from their column, not out of the cohort.
        let layout = pair.routed.hot_layout();
        assert_eq!((layout.quiet, layout.evictions, layout.cohort_seals), (48, 4, 2));
        pair.assert_same("rows that agree after a seal");
    }

    #[test]
    fn cohort_that_seals_by_its_second_row_is_re_laid_by_the_seal_alone() {
        // Threshold 1 seals every row: each one-point block is flat, so all
        // go quiet and the 12 that change at tick 1 leave.  Threshold 2
        // seals the second row, whose verdict is the whole block's.
        for (threshold, after) in [(1, (52, 12, 2)), (2, (52, 0, 1))] {
            let mut pair = Pair::new(1, threshold);
            pair.frame(&of_64(0, first_rows));
            pair.frame(&of_64(1, first_rows));
            let layout = pair.routed.hot_layout();
            let got = (layout.quiet, layout.evictions, layout.cohort_seals);
            assert_eq!(got, after, "threshold {threshold}: {layout:?}");
            for tick in 2..20 {
                pair.frame(&of_64(tick, first_rows));
            }
            pair.assert_same(&format!("threshold {threshold}"));
        }
    }

    #[test]
    fn cohort_too_narrow_to_form_stays_per_series() {
        let mut pair = Pair::new(1, 8);
        for tick in 0..10 {
            pair.frame(&frame_of(tick, 0..(MIN_WIDTH as u32 - 1), 1));
        }
        let routed = pair.routed.hot_layout();
        assert_eq!(HotLayout { hot_bytes: 0, ..routed }, HotLayout::default());
        assert_eq!(routed.hot_bytes, 7 * 8 * 16, "seven own buffers with room for eight points");
        pair.assert_same("seven series");
    }

    #[test]
    fn cohort_store_that_never_seals_takes_wide_frames() {
        // A `seal_threshold x width` reservation here overflows capacity.
        let mut pair = Pair::new(2, usize::MAX / 2);
        for tick in 0..(2 * CHUNK_ROWS as u64 + 3) {
            pair.frame(&frame_of(tick, 0..64, 4));
        }
        assert_eq!(pair.routed.hot_layout().members, 256);
        pair.assert_same("131 rows, no seal");
    }

    #[test]
    fn cohort_frame_missing_a_segment_evicts_only_that_segment() {
        let mut pair = Pair::new(2, 16);
        for tick in 0..5 {
            pair.frame(&frame_of(tick, 0..32, 2));
        }
        // Nodes 8..12 go quiet for three ticks (a quarantined collector).
        for tick in 5..8 {
            pair.frame(&frame_of(tick, (0..8).chain(12..32), 2));
        }
        let layout = pair.routed.hot_layout();
        assert_eq!((layout.cohorts, layout.members, layout.evictions), (2, 56, 8), "{layout:?}");
        // Back again: the evicted series run per-series until their own seal
        // (three ticks after everyone else's), then form a cohort of their
        // own — here only in a shard that got at least MIN_WIDTH of them.
        for tick in 8..40 {
            pair.frame(&frame_of(tick, 0..32, 2));
        }
        let layout = pair.routed.hot_layout();
        assert_eq!(layout.evictions, 8);
        assert!(layout.members >= 56, "{layout:?}");
        pair.assert_same("a segment left and came back");
    }

    #[test]
    fn cohort_frame_covering_under_half_evicts_the_present_members() {
        let mut pair = Pair::new(1, 16);
        for tick in 0..4 {
            pair.frame(&frame_of(tick, 0..20, 1));
        }
        pair.frame(&frame_of(4, 0..6, 1));
        let layout = pair.routed.hot_layout();
        assert_eq!((layout.cohorts, layout.members, layout.evictions), (1, 14, 6), "{layout:?}");
        // A frame that carries none of a cohort costs it nothing.
        pair.frame(&frame_of(5, 0..6, 1));
        assert_eq!(pair.routed.hot_layout(), layout);
        for tick in 6..30 {
            pair.frame(&frame_of(tick, 0..20, 1));
        }
        pair.assert_same("minority frames");
    }

    /// Allocations `ingest_route` makes landing `cf`, on a fresh copy of
    /// the pair `build` makes.
    fn landing_allocations(build: impl Fn() -> Pair, cf: &ColumnFrame) -> u64 {
        let mut pair = build();
        pair.routed.prepare_route(cf, &mut pair.route);
        let before = thread_allocations();
        pair.routed.ingest_route(cf, &pair.route);
        thread_allocations() - before
    }

    #[test]
    fn cohort_member_written_twice_or_through_insert_is_evicted_alone() {
        // One seal cycle and three rows: every matrix is at full height.
        let full_height = || {
            let mut pair = Pair::new(4, 16);
            for tick in 0..19 {
                pair.frame(&frame_of(tick, 0..64, 1));
            }
            pair
        };
        let mut pair = full_height();
        assert_eq!(pair.routed.hot_layout().members, 64);
        // A duplicate key costs its own shard the row path for the tick;
        // every other shard lands its row without allocating.  So the frame
        // allocates what the owner's slow path does on its own ...
        let mut cf = frame_of(19, 0..64, 1);
        cf.push(MetricId(0), CompId::node(5), -1.0);
        let owner = pair.routed.shard_index(&cf.keys[5]);
        let alone = {
            let mut twin = full_height();
            twin.routed.prepare_route(&cf, &mut twin.route);
            let mut shard = twin.routed.shards[owner].write();
            let before = thread_allocations();
            twin.routed.ingest_batch(&mut shard, &cf, &twin.route.per_shard[owner]);
            thread_allocations() - before
        };
        assert!(alone > 0, "the owner's slow path allocates");
        assert_eq!(landing_allocations(full_height, &cf), alone, "owner {owner} alone");
        // ... and the same frame without the duplicate allocates nothing.
        assert_eq!(landing_allocations(full_height, &frame_of(19, 0..64, 1)), 0);
        pair.frame(&cf);
        assert_eq!(pair.routed.hot_layout().evictions, 1);
        pair.frame(&frame_of(20, 0..64, 1));
        assert_eq!(pair.routed.hot_layout().evictions, 1);
        // `insert()`, in and out of order.
        pair.insert(Sample::new(MetricId(0), CompId::node(2), Ts(20_500), 9.0));
        pair.insert(Sample::new(MetricId(0), CompId::node(2), Ts(500), 8.0));
        let layout = pair.routed.hot_layout();
        assert_eq!((layout.members, layout.evictions), (62, 2), "{layout:?}");
        for tick in 21..60 {
            pair.frame(&frame_of(tick, 0..64, 1));
        }
        assert_eq!(pair.routed.hot_layout().evictions, 2, "the rest never left");
        pair.assert_same("two members evicted one at a time");
    }

    #[test]
    fn cohort_frame_stamped_before_the_last_row_goes_per_sample() {
        let mut pair = Pair::new(1, 16);
        for tick in [0, 1, 2, 5] {
            pair.frame(&frame_of(tick, 0..10, 1));
        }
        pair.frame(&frame_of(3, 0..10, 1));
        let layout = pair.routed.hot_layout();
        assert_eq!((layout.cohorts, layout.evictions), (0, 10), "{layout:?}");
        // A tie with the last row is still in order.
        let mut pair2 = Pair::new(1, 16);
        for tick in [0, 1, 1, 2] {
            pair2.frame(&frame_of(tick, 0..10, 1));
        }
        assert_eq!(pair2.routed.hot_layout().evictions, 0);
        for tick in 6..30 {
            pair.frame(&frame_of(tick, 0..10, 1));
            pair2.frame(&frame_of(tick, 0..10, 1));
        }
        assert_eq!(pair.routed.hot_layout().members, 10, "re-formed after their next seal");
        pair.assert_same("an old frame");
        pair2.assert_same("a tied frame");
    }

    #[test]
    fn cohort_survives_seal_all_retention_and_a_snapshot_load() {
        let mut pair = Pair::new(2, 8);
        for tick in 0..5 {
            pair.frame(&frame_of(tick, 0..24, 2));
        }
        pair.routed.seal_all();
        pair.oracle.seal_all();
        // Retention while every cohort is empty: nodes 0..24 are all-warm
        // and old.  Drop them all, then feed another population.
        assert_eq!(pair.routed.drop_series_before(Ts(1_000_000)), 48);
        assert_eq!(pair.oracle.drop_series_before(Ts(1_000_000)), 48);
        assert_eq!(pair.routed.hot_layout().members, 0);
        for tick in 2_000..2_008 {
            pair.frame(&frame_of(tick, 10..40, 2));
        }
        // Nodes 30..40 sealed on tick 2007 and then fell silent: a partial
        // drop, which compacts the slab under cohorts that hold rows.
        for tick in 2_008..2_013 {
            pair.frame(&frame_of(tick, 10..30, 2));
        }
        assert_eq!(pair.routed.drop_series_before(Ts(2_008_000)), 20);
        assert_eq!(pair.oracle.drop_series_before(Ts(2_008_000)), 20);
        assert_eq!(pair.routed.hot_layout().members, 40);
        for tick in 2_013..2_020 {
            pair.frame(&frame_of(tick, 10..30, 2));
        }
        // A loaded store is per-series until its next seal, and hashes like
        // the store it was taken from.
        pair.routed.load_snapshot(pair.routed.snapshot());
        assert_eq!(pair.routed.hot_layout().members, 0);
        assert_eq!(pair.routed.state_digest(), pair.oracle.state_digest());
        for tick in 2_020..2_040 {
            pair.frame(&frame_of(tick, 10..30, 2));
        }
        assert!(pair.routed.hot_layout().members > 0, "re-formed after the next seal");
        pair.assert_same("seal_all, two retention passes and a load");
    }

    #[test]
    fn cohort_tail_change_reroutes_only_the_tail() {
        let mut pair = Pair::new(4, 64);
        let with_tail = |tick: u64| {
            let mut cf = frame_of(tick, 0..64, 4);
            cf.push(MetricId(9), CompId::SYSTEM, tick as f64);
            cf.push(MetricId(10), CompId::SYSTEM, 0.5);
            cf
        };
        // What the route holds for the cohorts, and how many samples in all.
        let plan = |route: &IngestRoute| {
            let gathers: Vec<_> = route.per_shard.iter().map(|p| &p.rows.gathers).collect();
            (format!("{gathers:?}"), route.per_shard.iter().map(ShardPlan::len).sum::<usize>())
        };
        // One whole seal cycle first, so no matrix grows below; then the
        // tail once, so its series exist.
        for tick in 0..64 {
            pair.frame(&frame_of(tick, 0..64, 4));
        }
        pair.frame(&with_tail(64));
        pair.frame(&frame_of(65, 0..64, 4));
        let (layout, (gathers, _)) = (pair.routed.hot_layout(), plan(&pair.route));
        assert_eq!((layout.members, layout.evictions), (256, 0));
        for tick in 66..75 {
            let before = thread_allocations();
            let cf = if tick % 3 == 0 { with_tail(tick) } else { frame_of(tick, 0..64, 4) };
            let made_frame = thread_allocations() - before;
            pair.routed.ingest_columns(&cf, &mut pair.route);
            assert_eq!(thread_allocations() - before, made_frame, "tick {tick}: route allocated");
            assert_eq!(plan(&pair.route), (gathers.clone(), cf.len()), "tick {tick}");
            cf.iter().for_each(|s| pair.oracle.insert(&s));
        }
        assert_eq!(pair.routed.hot_layout(), layout, "the cohorts never noticed");
        // A change in the middle is a member gone missing: evicted, and the
        // rows derived again.
        pair.frame(&frame_of(75, (0..32).chain(33..64), 4));
        assert_eq!(pair.routed.hot_layout().evictions, 4);
        assert_ne!(plan(&pair.route).0, gathers);
        pair.assert_same("a tail that comes and goes");
    }

    /// Keys enough for three whole steps of the blocked gather and part of
    /// a fourth (`tests/store_model.rs` frames are narrower than one).
    const WIDE: u32 = 3 * BLOCK as u32 + 17;

    /// `cf` with its key column reversed.
    fn reversed(cf: ColumnFrame) -> ColumnFrame {
        let mut rev = ColumnFrame::new(cf.ts);
        for s in (0..cf.len()).rev().map(|i| cf.get(i)) {
            rev.push(s.key.metric, s.key.comp, s.value);
        }
        rev
    }

    /// The block cuts each gather of the route holds.
    fn cuts(route: &IngestRoute) -> Vec<&[u32]> {
        route.per_shard.iter().flat_map(|p| &p.rows.gathers).map(|g| &g.cuts[..]).collect()
    }

    #[test]
    fn cohort_gather_wider_than_a_block_in_frame_order() {
        let mut pair = Pair::new(2, 64);
        for tick in 0..10 {
            pair.frame(&frame_of(tick, 0..WIDE, 1));
        }
        let layout = pair.routed.hot_layout();
        assert_eq!((layout.members, layout.formations, layout.evictions), (WIDE as usize, 2, 0));
        // Positions ascend with the columns: every step fills some of each.
        for cuts in cuts(&pair.route) {
            assert_eq!(cuts.len(), 5, "four steps");
            assert!(cuts.windows(2).all(|w| w[0] < w[1]), "{cuts:?}");
        }
        pair.assert_same("frames of four blocks");
    }

    #[test]
    fn cohort_gather_wider_than_a_block_with_positions_descending() {
        let mut pair = Pair::new(2, 64);
        for tick in 0..3 {
            pair.frame(&frame_of(tick, 0..WIDE, 1));
        }
        // The same keys reversed: the cohorts keep their columns, whose
        // positions now descend, so the last step fills every column.
        for tick in 3..10 {
            pair.frame(&reversed(frame_of(tick, 0..WIDE, 1)));
        }
        assert_eq!(pair.routed.hot_layout().evictions, 0);
        for cuts in cuts(&pair.route) {
            assert_eq!(cuts[..4], [0, 0, 0, 0], "{cuts:?}");
        }
        pair.assert_same("frames reversed after formation");
    }

    #[test]
    fn cohort_gather_wider_than_a_block_past_a_retired_column() {
        let mut pair = Pair::new(2, 64);
        for tick in 0..3 {
            pair.frame(&frame_of(tick, 0..WIDE, 1));
        }
        // Node 5,000 misses a frame: evicted, its column retired and read
        // from the batch's first position for every row after.
        pair.frame(&frame_of(3, (0..5_000).chain(5_001..WIDE), 1));
        for tick in 4..10 {
            pair.frame(&frame_of(tick, 0..WIDE, 1));
        }
        let layout = pair.routed.hot_layout();
        assert_eq!((layout.members, layout.evictions), (WIDE as usize - 1, 1));
        pair.assert_same("a retired column");
    }

    #[test]
    fn cohort_gather_wider_than_a_block_with_a_tail_that_comes_and_goes() {
        let mut pair = Pair::new(2, 64);
        for tick in 0..12 {
            let mut cf = frame_of(tick, 0..WIDE, 1);
            if tick % 3 == 1 {
                (0..5).for_each(|c| cf.push(MetricId(9), CompId::node(c), tick as f64));
            }
            pair.frame(&cf);
        }
        assert_eq!(pair.routed.hot_layout().evictions, 0);
        pair.assert_same("a tail past the third block");
    }

    #[test]
    fn cohort_gather_wider_than_a_block_seals_inside_the_run() {
        let mut pair = Pair::new(2, 4);
        for tick in 0..10 {
            pair.frame(&frame_of(tick, 0..WIDE, 1));
        }
        assert_eq!(pair.routed.hot_layout().cohort_seals, 4, "two seals a shard");
        pair.assert_same("two seals, two rows open");
    }

    #[test]
    fn cohort_store_with_more_shards_than_one_pass_locks() {
        // 40 shards: three groups of `LOCKED`, the last one part-full.
        let mut pair = Pair::new(2 * LOCKED + 8, 8);
        for tick in 0..20 {
            pair.frame(&frame_of(tick, 0..400, 2));
        }
        let layout = pair.routed.hot_layout();
        assert_eq!((layout.members, layout.evictions), (800, 0), "{layout:?}");
        assert!(layout.cohort_seals >= 2 * 40, "{layout:?}");
        pair.assert_same("a frame taken in three passes");
    }

    #[test]
    fn cohort_readers_never_see_a_torn_row() {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Barrier;
        const TICKS: u64 = 400;
        let store = TimeSeriesStore::with_options(2, 16);
        let (done, start) = (AtomicBool::new(false), Barrier::new(3));
        let keys: Vec<SeriesKey> = frame_of(0, 0..16, 2).keys.to_vec();
        std::thread::scope(|scope| {
            let readers: Vec<_> = (0..2usize)
                .map(|r| {
                    let (store, keys, done, start) = (&store, &keys, &done, &start);
                    scope.spawn(move || {
                        start.wait();
                        let mut seen = Vec::new();
                        let mut i = r;
                        while !done.load(Ordering::Acquire) {
                            let key = keys[i % keys.len()];
                            seen.push((key, store.query(key, ALL.0, ALL.1)));
                            i += 1;
                        }
                        seen
                    })
                })
                .collect();
            start.wait();
            let mut route = IngestRoute::new();
            for tick in 0..TICKS {
                store.ingest_columns(&frame_of(tick, 0..16, 2), &mut route);
            }
            done.store(true, Ordering::Release);
            let layout = store.hot_layout();
            assert_eq!((layout.members, layout.cohort_seals), (32, 2 * TICKS / 16));
            for seen in readers.into_iter().map(|r| r.join().expect("reader panicked")) {
                for (key, got) in seen {
                    let all = store.query(key, ALL.0, ALL.1);
                    assert_eq!(all.len() as u64, TICKS);
                    assert_eq!(got[..], all[..got.len()], "{key:?}: not a prefix");
                }
            }
        });
    }
}
