//! Columnar, arena-backed frames: the allocation-free collection hot path.
//!
//! The paper's central scaling lesson is that per-sample overhead in the
//! collection/ingest path is what caps fleet size.  One 32-byte `Sample`
//! struct per observation (AoS) means, at 100k nodes × several metrics,
//! millions of tiny writes per tick plus a full `Vec` clone when the frame
//! is handed to transport.
//!
//! [`ColumnFrame`] — the pipeline's only frame type — stores a tick's
//! samples as two parallel columns (structure-of-arrays), series keys and
//! values, under the one timestamp they share.  Collectors
//! append into the columns once per tick; the finished frame is handed to
//! transport and the store by **epoch swap** — the owning buffer moves into
//! an `Arc` and a [`FrameArena`] keeps the previous tick's buffer around so
//! the next tick can reclaim its capacity instead of allocating.  In steady
//! state the hot path performs *zero* heap allocations per tick.
//!
//! The key column is not even written: synchronized collection repeats it
//! tick after tick, so a frame's [`KeyColumn`] is a prefix of the column
//! the arena handed it, shared by pointer, and only a key that differs
//! makes the frame copy.  Whoever holds two key columns on one buffer
//! knows they agree on their common length without comparing a key.

use crate::sample::{FrameCoverage, Sample, SeriesKey};
use crate::{CompId, FrameLayout, MetricId, Ts};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::Deref;
use std::sync::{Arc, OnceLock};

type Column = Arc<Vec<SeriesKey>>;

/// [`KeyColumn`]'s `first_difference` while its keys are a prefix of the
/// buffer they were handed.
const UNFORKED: u32 = u32::MAX;

/// The column a new key column starts on: empty, shared, never written.
fn empty_column() -> Column {
    static EMPTY: OnceLock<Column> = OnceLock::new();
    Arc::clone(EMPTY.get_or_init(Column::default))
}

/// A frame's series keys: the first `len` keys of a shared buffer, copied
/// on the first key that differs.
///
/// [`ColumnFrame::push`] of the key the buffer already holds at the cursor
/// only advances the cursor.  On the first difference the prefix is copied
/// into a buffer of the column's own (its spare, when it has one) and
/// written from there on; a buffer nothing else holds is written in place.
/// So a buffer is never written while shared, and two key columns on one
/// buffer ([`KeyColumn::same_buffer`]) agree on their common length.
/// Dereferences to `&[SeriesKey]`.  Positions are `u32`, as everywhere a
/// frame is read by position: a column holds fewer than `u32::MAX` keys.
pub struct KeyColumn {
    buf: Column,
    /// Until the keys leave the buffer they were handed, the spare they
    /// would be copied into; after, the buffer they were handed.
    other: Option<Column>,
    len: u32,
    /// Where the keys first differ from the buffer they were handed, or
    /// `UNFORKED`.  Cut back to it, they are a prefix of that buffer again.
    first_difference: u32,
}

impl KeyColumn {
    /// An empty column on `buf`.
    fn on(buf: Column) -> KeyColumn {
        KeyColumn { buf, other: None, len: 0, first_difference: UNFORKED }
    }

    /// Append `key`: free when the buffer already holds it there.
    #[inline]
    fn push(&mut self, key: SeriesKey) {
        match self.buf.get(self.len as usize) {
            Some(&held) if held == key => self.len += 1,
            _ => self.diverge(key),
        }
    }

    /// Write `key` at the cursor: in place when the buffer is the column's
    /// alone, else into a copy of the prefix.
    fn diverge(&mut self, key: SeriesKey) {
        let at = self.len as usize;
        if let Some(own) = Arc::get_mut(&mut self.buf) {
            own.truncate(at);
            own.push(key);
        } else {
            // A column that already left the buffer it was handed keeps
            // that one in `other`, and copies into a new buffer.
            let spare = if self.forked() { None } else { self.other.take() };
            let mut own = spare.unwrap_or_default();
            let keys = Arc::make_mut(&mut own);
            keys.clear();
            keys.extend_from_slice(&self.buf[..at]);
            keys.push(key);
            let handed = std::mem::replace(&mut self.buf, own);
            if !self.forked() {
                (self.other, self.first_difference) = (Some(handed), self.len);
            }
        }
        self.len += 1;
        assert_ne!(self.len, UNFORKED, "a key column holds fewer than u32::MAX keys");
    }

    fn forked(&self) -> bool {
        self.first_difference != UNFORKED
    }

    /// Forget the buffer the keys were handed: `other` becomes the spare,
    /// if nothing else holds it.
    fn unfork(&mut self) {
        self.first_difference = UNFORKED;
        self.other = self.other.take().filter(|spare| Arc::strong_count(spare) == 1);
    }

    /// Keep the first `n` keys.  Cut back past its first difference, the
    /// column is on the buffer it was handed again.
    fn truncate(&mut self, n: usize) {
        if self.forked() && n <= self.first_difference as usize {
            if let Some(handed) = &mut self.other {
                std::mem::swap(&mut self.buf, handed);
            }
            self.unfork();
        }
        if n < self.len as usize {
            self.len = n as u32;
        }
    }

    /// Empty the column for a refill: a refill that repeats the keys
    /// writes none.  A column that left the buffer it was handed goes back
    /// to it, unless its own copy has been shared since: then the copy is
    /// what a refill should repeat.
    fn clear(&mut self) {
        if Arc::strong_count(&self.buf) == 1 {
            self.truncate(0);
        } else if self.forked() {
            self.unfork();
        }
        self.len = 0;
    }

    /// Whether `other` is on the same buffer: then the two agree on the
    /// keys below the shorter one's length.
    pub fn same_buffer(&self, other: &KeyColumn) -> bool {
        Arc::ptr_eq(&self.buf, &other.buf)
    }
}

impl Default for KeyColumn {
    fn default() -> KeyColumn {
        KeyColumn::on(empty_column())
    }
}

impl Deref for KeyColumn {
    type Target = [SeriesKey];

    #[inline]
    fn deref(&self) -> &[SeriesKey] {
        &self.buf[..self.len as usize]
    }
}

/// A clone shares the buffer.
impl Clone for KeyColumn {
    fn clone(&self) -> KeyColumn {
        KeyColumn { len: self.len, ..KeyColumn::on(Arc::clone(&self.buf)) }
    }
}

impl fmt::Debug for KeyColumn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl PartialEq for KeyColumn {
    fn eq(&self, other: &KeyColumn) -> bool {
        **self == **other
    }
}

impl PartialEq<KeyColumn> for Vec<SeriesKey> {
    fn eq(&self, other: &KeyColumn) -> bool {
        self[..] == **other
    }
}

impl Serialize for KeyColumn {
    fn to_value(&self) -> Result<serde::Value, serde::Error> {
        (**self).to_value()
    }
}

/// A synchronized collection frame: every sample gathered at one aligned
/// system-wide tick (the NCSA pattern — "collection times are synchronized
/// across the entire system"), in columnar (SoA) form.
///
/// Every sample carries the frame's `ts`, so a frame stores it once.  Keys
/// and values are two parallel columns so a tick's worth of appends
/// touches two dense arrays instead of one array of 32-byte structs, and
/// capacity can be recycled tick over tick by a [`FrameArena`].  A sample
/// stamped apart from its tick is not a frame's: it goes to the store
/// through `TimeSeriesStore::insert`.
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct ColumnFrame {
    /// The aligned tick this frame belongs to: every sample's timestamp.
    pub ts: Ts,
    /// Series identity of each sample, in append order.
    pub keys: KeyColumn,
    /// Observed value of each sample (parallel to `keys`).
    pub values: Vec<f64>,
    /// Which collectors contributed: stamped on every frame the pipeline's
    /// collect stage fills, `None` on frames built anywhere else.
    pub coverage: Option<FrameCoverage>,
}

/// Refuses a frame whose two columns differ in length (every consumer reads
/// them in parallel), or that holds too many samples for `u32` positions.
impl<'de> Deserialize<'de> for ColumnFrame {
    fn from_value(v: &serde::Value) -> Result<ColumnFrame, serde::Error> {
        #[derive(Deserialize)]
        struct Wire {
            ts: Ts,
            keys: Vec<SeriesKey>,
            values: Vec<f64>,
            coverage: Option<FrameCoverage>,
        }
        let Wire { ts, keys, values, coverage } = Wire::from_value(v)?;
        if keys.len() != values.len() {
            let (k, n) = (keys.len(), values.len());
            return Err(serde::Error::msg(format!("frame has {k} keys but {n} values")));
        }
        let len = u32::try_from(keys.len()).ok().filter(|&n| n != UNFORKED);
        let len =
            len.ok_or_else(|| serde::Error::msg("a frame holds fewer than u32::MAX samples"))?;
        let keys = KeyColumn { len, ..KeyColumn::on(Arc::new(keys)) };
        Ok(ColumnFrame { ts, keys, values, coverage })
    }
}

impl ColumnFrame {
    /// An empty columnar frame at `ts`.
    pub fn new(ts: Ts) -> ColumnFrame {
        ColumnFrame { ts, ..ColumnFrame::default() }
    }

    /// Append a sample, stamping it with the frame's tick.
    #[inline]
    pub fn push(&mut self, metric: MetricId, comp: CompId, value: f64) {
        self.keys.push(SeriesKey::new(metric, comp));
        self.values.push(value);
    }

    /// Number of samples in the frame.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// Whether the frame holds no samples.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// The sample at position `i` (by value — samples are 32-byte `Copy`).
    #[inline]
    pub fn get(&self, i: usize) -> Sample {
        Sample { key: self.keys[i], ts: self.ts, value: self.values[i] }
    }

    /// Iterate all samples by value, in append order (zero-allocation).
    pub fn iter(&self) -> impl Iterator<Item = Sample> + '_ {
        let ts = self.ts;
        self.keys.iter().zip(&self.values).map(move |(&key, &value)| Sample { key, ts, value })
    }

    /// Iterate samples of one metric, by value.
    pub fn of_metric(&self, metric: MetricId) -> impl Iterator<Item = Sample> + '_ {
        self.iter().filter(move |s| s.key.metric == metric)
    }

    /// Truncate to the first `n` samples (how the collect stage discards a
    /// failed collector's partial segment).
    pub fn truncate(&mut self, n: usize) {
        self.keys.truncate(n);
        self.values.truncate(n);
    }

    /// Reset for a new tick, retaining column capacity — the arena's
    /// reclamation step that makes the steady-state path allocation-free.
    pub fn clear_for_tick(&mut self, ts: Ts) {
        self.ts = ts;
        self.keys.clear();
        self.values.clear();
        self.coverage = None;
    }
}

/// Columns an arena keeps for the next divergence to copy into.
const FREE_COLUMNS: usize = 2;
/// Retired columns an arena waits on; past this the oldest is left to
/// its holders.
const RETIRED_COLUMNS: usize = 4;

/// Ping-pong double-buffered arena for per-tick [`ColumnFrame`]s.
///
/// Two slots alternate as the publish target.  Each tick the pipeline
/// [`FrameArena::take_current`]s an owned buffer (reclaiming the slot used
/// two ticks ago when all downstream holders have dropped it), collectors
/// fill it in place, and [`FrameArena::publish`] moves it into an `Arc`
/// that transport, the store, and analysis share **without copying** —
/// the epoch swap that replaces the old `Arc::new(frame.clone())`.
///
/// By the time a slot comes around again its consumers (transport envelope,
/// store ingest, detectors) have finished with the previous occupant, so
/// `Arc::try_unwrap` recovers the buffer and its column capacity.  The
/// fallback — someone still holds the frame — allocates fresh and is
/// counted in [`FrameArena::fresh_allocs`].
///
/// Every frame is handed the arena's key column: the longest one since
/// the last divergence, so a tail that comes and goes is a prefix of it.
/// At `publish` a frame still on that column changes the [`FrameLayout`]
/// only if its length changed; one that diverged becomes the column, and
/// the layout is re-derived from its first difference.  The column it
/// replaced is retired, and once nothing else holds it, it comes back —
/// `Arc` and buffer — as the spare a later divergence copies into, so a
/// column that keeps changing allocates nothing either.  That takes one
/// `publish` per `take_current`, which is the only way the pipeline calls
/// them.
#[derive(Debug, Default)]
pub struct FrameArena {
    slots: [Option<Arc<ColumnFrame>>; 2],
    live: usize,
    column: Column,
    retired: Vec<Column>,
    free: Vec<Column>,
    layout: FrameLayout,
    fresh_allocs: u64,
}

impl FrameArena {
    /// An empty arena: the first two ticks allocate, every tick after
    /// reuses in steady state.
    pub fn new() -> FrameArena {
        FrameArena::default()
    }

    /// Begin a tick: return an owned, empty frame stamped `ts` on the
    /// arena's key column, reusing the buffer published two ticks ago
    /// when it is no longer shared.
    pub fn take_current(&mut self, ts: Ts) -> ColumnFrame {
        self.live ^= 1;
        let mut cf = match self.slots[self.live].take().and_then(|a| Arc::try_unwrap(a).ok()) {
            Some(mut cf) => {
                cf.clear_for_tick(ts);
                cf
            }
            None => {
                self.fresh_allocs += 1;
                ColumnFrame::new(ts)
            }
        };
        // The reclaimed frame lets go of its column first: it may have
        // been a retired one's last holder.
        cf.keys = KeyColumn::on(Arc::clone(&self.column));
        let mut i = 0;
        while i < self.retired.len() {
            if Arc::strong_count(&self.retired[i]) == 1 {
                let column = self.retired.swap_remove(i);
                self.keep_free(column);
            } else {
                i += 1;
            }
        }
        cf.keys.other = self.free.pop();
        cf
    }

    /// Keep `column` for a divergence to copy into, if nothing else holds
    /// it and there is room.
    fn keep_free(&mut self, column: Column) {
        if Arc::strong_count(&column) == 1 && self.free.len() < FREE_COLUMNS {
            self.free.push(column);
        }
    }

    /// Finish a tick: move the filled frame into the live slot and hand
    /// back a shared handle.  No sample data is copied.
    pub fn publish(&mut self, mut frame: ColumnFrame) -> Arc<ColumnFrame> {
        let keys = &mut frame.keys;
        let first_difference = std::mem::replace(&mut keys.first_difference, UNFORKED);
        let handed = match keys.other.take() {
            Some(spare) if first_difference == UNFORKED => {
                self.keep_free(spare);
                None
            }
            handed => handed,
        };
        let described = &self.column[..self.layout.len()];
        let sweep = || described.iter().zip(keys.iter()).take_while(|(a, b)| a == b).count();
        let common = if Arc::ptr_eq(&keys.buf, &self.column) {
            described.len().min(keys.len())
        } else if handed.is_some_and(|handed| Arc::ptr_eq(&handed, &self.column)) {
            described.len().min(first_difference as usize)
        } else {
            // A frame this arena did not hand out.
            sweep()
        };
        debug_assert_eq!(common, sweep(), "the key column's verdict disagrees with a sweep");
        self.layout.observe(common, keys);
        if !Arc::ptr_eq(&keys.buf, &self.column) {
            let retired = std::mem::replace(&mut self.column, Arc::clone(&keys.buf));
            if retired.capacity() > 0 {
                if self.retired.len() == RETIRED_COLUMNS {
                    self.retired.remove(0);
                }
                self.retired.push(retired);
            }
        }
        let arc = Arc::new(frame);
        self.slots[self.live] = Some(Arc::clone(&arc));
        arc
    }

    /// Where things are in the frame published last.
    pub fn layout(&self) -> &FrameLayout {
        &self.layout
    }

    /// Watch `key` in the arena's layout; the returned slot is what
    /// [`FrameLayout::watched`] takes.
    pub fn watch(&mut self, key: SeriesKey) -> usize {
        self.layout.watch(key)
    }

    /// Times `take_current` had to allocate a fresh buffer (the first two
    /// ticks, plus any tick where a downstream consumer still held the
    /// two-ticks-ago frame).  Flat in steady state.
    pub fn fresh_allocs(&self) -> u64 {
        self.fresh_allocs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mid(n: u32) -> MetricId {
        MetricId(n)
    }

    #[test]
    fn push_stamps_tick() {
        let mut cf = ColumnFrame::new(Ts::from_mins(1));
        assert!(cf.is_empty());
        assert_eq!(cf.of_metric(mid(0)).count(), 0);
        cf.push(mid(0), CompId::node(0), 1.0);
        cf.push(mid(0), CompId::node(1), 3.0);
        assert_eq!(cf.len(), 2);
        assert!(cf.iter().all(|s| s.ts == Ts::from_mins(1)));
    }

    #[test]
    fn aggregates_per_metric() {
        let mut cf = ColumnFrame::new(Ts(0));
        cf.push(mid(0), CompId::node(0), 1.0);
        cf.push(mid(0), CompId::node(1), 3.0);
        cf.push(mid(1), CompId::node(0), 100.0);
        assert_eq!(cf.of_metric(mid(0)).map(|s| s.value).sum::<f64>(), 4.0);
        assert_eq!(cf.of_metric(mid(9)).count(), 0);
        assert_eq!(cf.of_metric(mid(0)).count(), 2);
        assert_eq!(cf.get(2).value, 100.0);
    }

    #[test]
    fn truncate_keeps_columns_parallel() {
        let mut b = ColumnFrame::new(Ts(5));
        for i in 0..4 {
            b.push(mid(1), CompId::node(i), 10.0 + i as f64);
        }
        b.truncate(2);
        assert_eq!(b.len(), 2);
        assert_eq!(b.keys.len(), b.values.len());
        assert_eq!(b.get(1).value, 11.0);
    }

    #[test]
    fn serde_round_trip() {
        let mut cf = ColumnFrame::new(Ts(5));
        cf.push(mid(2), CompId::ost(1), 9.25);
        let mut cov = FrameCoverage::default();
        cov.expect(0);
        cov.report(0);
        cf.coverage = Some(cov);
        let s = serde_json::to_string(&cf).unwrap();
        let back: ColumnFrame = serde_json::from_str(&s).unwrap();
        assert_eq!(cf, back);
        // A frame serialized before coverage existed: the key is absent.
        let legacy = r#"{"ts":5,"keys":[],"stamps":[],"values":[]}"#;
        let back: ColumnFrame = serde_json::from_str(legacy).unwrap();
        assert_eq!((back.ts, back.coverage), (Ts(5), None));
        // A frame serialized with a stamp per sample (spilled frames in
        // older checkpoints): the list is ignored, every sample takes the
        // frame's stamp.
        let keys = serde_json::to_string(&[cf.keys[0], cf.keys[0]]).unwrap();
        let legacy = format!(r#"{{"ts":5,"keys":{keys},"stamps":[5,3],"values":[9.25,1]}}"#);
        let back: ColumnFrame = serde_json::from_str(&legacy).unwrap();
        assert_eq!(back.len(), 2);
        assert!(back.iter().all(|s| s.ts == Ts(5)));
        assert!((0..back.len()).all(|i| back.get(i).ts == Ts(5)));
        // Today's form loads and writes back byte for byte.
        let today = format!(r#"{{"ts":5,"keys":{keys},"values":[9.25,1.5],"coverage":null}}"#);
        let back: ColumnFrame = serde_json::from_str(&today).unwrap();
        assert_eq!(serde_json::to_string(&back).unwrap(), today);
        assert_eq!(
            serde_json::to_string(&serde_json::from_str::<ColumnFrame>(&s).unwrap()).unwrap(),
            s
        );
    }

    #[test]
    fn a_frame_whose_columns_differ_in_length_is_refused() {
        let k = serde_json::to_string(&SeriesKey::new(mid(1), CompId::node(2))).unwrap();
        for bad in [
            format!(r#"{{"ts":5,"keys":[{k},{k}],"values":[1.0]}}"#),
            format!(r#"{{"ts":5,"keys":[{k}],"values":[1.0,2.0]}}"#),
            format!(r#"{{"ts":5,"keys":[{k}],"stamps":[5],"values":[]}}"#),
        ] {
            let err = serde_json::from_str::<ColumnFrame>(&bad).unwrap_err();
            assert!(err.to_string().contains("keys but"), "{bad}: {err}");
        }
    }

    fn key(m: u32, c: u32) -> SeriesKey {
        SeriesKey::new(mid(m), CompId::node(c))
    }

    fn fill(cf: &mut ColumnFrame, keys: &[SeriesKey]) {
        for (i, k) in keys.iter().enumerate() {
            cf.push(k.metric, k.comp, i as f64);
        }
    }

    #[test]
    fn a_repeated_key_column_is_shared_not_written() {
        let body: Vec<SeriesKey> = (0..100).map(|c| key(0, c)).collect();
        let mut with_tail = body.clone();
        with_tail.extend([key(7, 0), key(8, 0)]);
        let mut arena = FrameArena::new();
        let mut publish = |keys: &[SeriesKey]| {
            let mut cf = arena.take_current(Ts(0));
            fill(&mut cf, keys);
            arena.publish(cf)
        };
        let first = publish(&body);
        let again = publish(&body);
        assert!(again.keys.same_buffer(&first.keys), "the same keys are the same column");
        // A tail copies once; the body alone is then a prefix of that copy.
        let tailed = publish(&with_tail);
        assert!(!tailed.keys.same_buffer(&first.keys));
        let short = publish(&body);
        assert!(short.keys.same_buffer(&tailed.keys));
        assert!(publish(&with_tail).keys.same_buffer(&tailed.keys));
        // Held frames read what they were published with.
        assert_eq!((first.keys.to_vec(), tailed.keys.to_vec()), (body.clone(), with_tail));
        assert_eq!(short.keys.len(), 100);
    }

    #[test]
    fn cut_back_past_its_first_difference_a_frame_is_on_the_handed_column_again() {
        let body: Vec<SeriesKey> = (0..50).map(|c| key(0, c)).collect();
        let mut arena = FrameArena::new();
        let mut cf = arena.take_current(Ts(0));
        fill(&mut cf, &body);
        let first = arena.publish(cf);
        let mut cf = arena.take_current(Ts(1));
        fill(&mut cf, &body[..30]);
        cf.push(mid(9), CompId::node(0), 0.0);
        cf.push(mid(9), CompId::node(1), 0.0);
        assert!(!cf.keys.same_buffer(&first.keys), "a difference copies");
        cf.truncate(31);
        assert!(!cf.keys.same_buffer(&first.keys), "still past the difference");
        cf.truncate(30);
        assert!(cf.keys.same_buffer(&first.keys), "cut back to the shared prefix");
        fill(&mut cf, &[]);
        for k in &body[30..] {
            cf.push(k.metric, k.comp, 1.0);
        }
        assert!(arena.publish(cf).keys.same_buffer(&first.keys));
        assert_eq!(first.keys.to_vec(), body);
    }

    #[test]
    fn a_bare_frame_refilled_with_its_keys_stays_on_its_buffer() {
        let keys: Vec<SeriesKey> = (0..20).map(|c| key(c % 3, c)).collect();
        let mut cf = ColumnFrame::new(Ts(0));
        fill(&mut cf, &keys);
        // What a store route does: hold the column by pointer.
        let held = cf.keys.clone();
        for tick in 1..4 {
            cf.clear_for_tick(Ts(tick));
            fill(&mut cf, &keys);
            assert!(cf.keys.same_buffer(&held), "tick {tick}");
        }
        // A changed key copies; the holder keeps reading the old column.
        cf.clear_for_tick(Ts(9));
        let mut changed = keys.clone();
        changed[7] = key(5, 5);
        fill(&mut cf, &changed);
        assert!(!cf.keys.same_buffer(&held));
        assert_eq!((held.to_vec(), cf.keys.to_vec()), (keys, changed.clone()));
        // Unshared, the copy is written in place on the next change.
        drop(held);
        let copy = cf.keys.clone();
        cf.clear_for_tick(Ts(10));
        drop(copy);
        changed[3] = key(6, 6);
        fill(&mut cf, &changed);
        assert!(changed == cf.keys, "a Vec compares with a key column");
    }

    #[test]
    fn arena_reuses_buffers_once_consumers_drop() {
        let mut arena = FrameArena::new();
        let mut published: Vec<Arc<ColumnFrame>> = Vec::new();
        for tick in 0..6u64 {
            // Downstream consumers hold a frame for at most one tick, so
            // the two-ticks-ago frame is dropped before this tick begins.
            if published.len() > 1 {
                published.remove(0);
            }
            let mut cf = arena.take_current(Ts(tick * 1_000));
            for n in 0..100 {
                cf.push(mid(0), CompId::node(n), n as f64);
            }
            published.push(arena.publish(cf));
        }
        // Ticks 0 and 1 allocate; 2..6 reclaim the two-ticks-ago buffer.
        assert_eq!(arena.fresh_allocs(), 2);
    }

    #[test]
    fn arena_falls_back_to_fresh_when_frame_still_held() {
        let mut arena = FrameArena::new();
        let mut held = Vec::new();
        for tick in 0..4u64 {
            let mut cf = arena.take_current(Ts(tick));
            cf.push(mid(0), CompId::node(0), 0.0);
            held.push(arena.publish(cf)); // never dropped
        }
        assert_eq!(arena.fresh_allocs(), 4, "held frames cannot be reclaimed");
        // Every published frame is intact and distinct.
        for (tick, f) in held.iter().enumerate() {
            assert_eq!(f.ts, Ts(tick as u64));
            assert_eq!(f.len(), 1);
        }
    }

    /// One tick's frame in [`prop_key_columns_match_an_oracle`]: the
    /// keys, and what is done to the frame on the way.
    fn tick_keys(body: &[SeriesKey], len: usize, edit: (u8, usize), tail: bool) -> Vec<SeriesKey> {
        let mut keys: Vec<SeriesKey> = body[..len.min(body.len())].to_vec();
        // Past the body's end: keys no earlier column had.
        keys.extend((body.len()..len).map(|i| key(11, i as u32)));
        match edit {
            (1, at) if at < keys.len() => keys[at] = key(9, at as u32),
            (2, at) => keys.insert(at.min(keys.len()), key(10, at as u32)),
            _ => {}
        }
        if tail {
            keys.extend((0..3).map(|c| key(13, c)));
        }
        keys
    }

    proptest::proptest! {
        /// Pushes, truncations and refills across arena ticks — keys that
        /// differ at position 0, mid-column and past the end, short frames,
        /// a tail that comes and goes, frames held past their tick: every
        /// published frame's keys equal a `Vec` built from the same calls,
        /// every held frame still reads its own, the layout equals a scan,
        /// and a column that did not change is the previous one's buffer.
        #[test]
        fn prop_key_columns_match_an_oracle(
            ticks in proptest::collection::vec(
                (
                    (0usize..30, 0u8..4, 0usize..26, proptest::any::<bool>()),
                    // (how the frame is filled, a, b, ticks held past its own)
                    (0u8..4, 0usize..32, 0usize..32, 0usize..3),
                ),
                1..16,
            ),
        ) {
            use proptest::prelude::*;
            let body: Vec<SeriesKey> =
                (0..8).flat_map(|c| (0..3).map(move |m| key(m, c))).collect();
            let mut arena = FrameArena::new();
            let watched = [key(1, 2), key(13, 1), key(9, 3), key(12, 0)];
            let slots: Vec<usize> = watched.iter().map(|&k| arena.watch(k)).collect();
            let mut held: Vec<(Arc<ColumnFrame>, Vec<SeriesKey>, usize)> = Vec::new();
            let mut prev: Option<(Arc<ColumnFrame>, Vec<SeriesKey>)> = None;
            for (t, &((len, edit, at, tail), (how, a, b, hold))) in ticks.iter().enumerate() {
                let keys = tick_keys(&body, len, (edit, at), tail);
                let (a, mut oracle) = (a.min(keys.len()), Vec::new());
                let b = b.min(a);
                let mut cf = arena.take_current(Ts(t as u64));
                let push = |cf: &mut ColumnFrame, oracle: &mut Vec<SeriesKey>, ks: &[SeriesKey]| {
                    fill(cf, ks);
                    oracle.extend_from_slice(ks);
                };
                match how {
                    // Diverge at `a`, then cut back to `b` and go on.
                    1 => {
                        push(&mut cf, &mut oracle, &keys[..a]);
                        push(&mut cf, &mut oracle, &[key(12, 0)]);
                        cf.truncate(b);
                        oracle.truncate(b);
                        push(&mut cf, &mut oracle, &keys[b..]);
                    }
                    // A failed segment `b..a` dropped.
                    2 => {
                        push(&mut cf, &mut oracle, &keys[..a]);
                        cf.truncate(b);
                        oracle.truncate(b);
                        push(&mut cf, &mut oracle, &keys[a..]);
                    }
                    // Refilled from scratch part way.
                    3 => {
                        push(&mut cf, &mut oracle, &keys[..a]);
                        push(&mut cf, &mut oracle, &[key(12, 0)]);
                        cf.clear_for_tick(Ts(t as u64));
                        oracle.clear();
                        push(&mut cf, &mut oracle, &keys);
                    }
                    _ => push(&mut cf, &mut oracle, &keys),
                }
                let shared = arena.publish(cf);
                prop_assert_eq!(&shared.keys.to_vec(), &oracle);
                prop_assert_eq!(shared.values.len(), oracle.len());
                for (frame, keys, _) in &held {
                    prop_assert_eq!(&frame.keys.to_vec(), keys);
                }
                if let Some((p, pkeys)) = &prev {
                    prop_assert_eq!(&p.keys.to_vec(), pkeys);
                    if *pkeys == oracle {
                        prop_assert!(shared.keys.same_buffer(&p.keys), "tick {}: unchanged", t);
                    }
                }
                let layout = arena.layout();
                for m in (0..14).map(mid) {
                    let scan: Vec<usize> = (0..oracle.len()).filter(|&i| oracle[i].metric == m).collect();
                    prop_assert_eq!(layout.positions_of(m).collect::<Vec<_>>(), scan);
                }
                for (&k, &slot) in watched.iter().zip(&slots) {
                    let scan: Vec<u32> = (0..oracle.len() as u32).filter(|&i| oracle[i as usize] == k).collect();
                    prop_assert_eq!(layout.watched(slot), &scan[..]);
                }
                held.retain_mut(|(_, _, left)| std::mem::replace(left, left.saturating_sub(1)) > 0);
                if hold > 0 {
                    held.push((Arc::clone(&shared), oracle.clone(), hold));
                }
                prev = Some((shared, oracle));
            }
        }

        /// Columnar append + epoch swap keep every sample, in push order,
        /// across multiple collector segments and arena ticks — checked
        /// against a plain `Vec<Sample>` oracle.
        #[test]
        fn prop_columnar_epoch_swap_keeps_push_order(
            ticks in proptest::collection::vec(
                proptest::collection::vec(
                    proptest::collection::vec(
                        (0u32..8, 0u32..64, -1.0e9f64..1.0e9),
                        0..40,
                    ),
                    1..4, // collector segments per tick
                ),
                1..5, // ticks
            ),
        ) {
            use proptest::prelude::*;
            let mut arena = FrameArena::new();
            let mut last: Option<Arc<ColumnFrame>>;
            for (t, segments) in ticks.iter().enumerate() {
                let ts = Ts(t as u64 * 60_000);
                let mut oracle: Vec<Sample> = Vec::new();
                let mut cf = arena.take_current(ts);
                for &(m, n, v) in segments.iter().flatten() {
                    oracle.push(Sample::new(MetricId(m), CompId::node(n), ts, v));
                    cf.push(MetricId(m), CompId::node(n), v);
                }
                let shared = arena.publish(cf);
                prop_assert_eq!(shared.ts, ts);
                prop_assert_eq!(shared.iter().collect::<Vec<_>>(), oracle);
                last = Some(shared); // held exactly one tick, like transport
                let _ = &last;
            }
        }
    }
}
