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

use crate::sample::{FrameCoverage, Sample, SeriesKey};
use crate::{CompId, FrameLayout, MetricId, Ts};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// A synchronized collection frame: every sample gathered at one aligned
/// system-wide tick (the NCSA pattern — "collection times are synchronized
/// across the entire system"), in columnar (SoA) form.
///
/// Every sample carries the frame's `ts`, so a frame stores it once.  Keys
/// and values live in two parallel `Vec`s so a tick's worth of appends
/// touches two dense arrays instead of one array of 32-byte structs, and
/// capacity can be recycled tick over tick by a [`FrameArena`].  A sample
/// stamped apart from its tick is not a frame's: it goes to the store
/// through `TimeSeriesStore::insert`.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ColumnFrame {
    /// The aligned tick this frame belongs to: every sample's timestamp.
    pub ts: Ts,
    /// Series identity of each sample, in append order.
    pub keys: Vec<SeriesKey>,
    /// Observed value of each sample (parallel to `keys`).
    pub values: Vec<f64>,
    /// Which collectors contributed: stamped on every frame the pipeline's
    /// collect stage fills, `None` on frames built anywhere else.
    pub coverage: Option<FrameCoverage>,
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

    /// Sum of values for one metric across all components in the frame.
    pub fn sum_of(&self, metric: MetricId) -> f64 {
        self.of_metric(metric).map(|s| s.value).sum()
    }

    /// Mean of values for one metric, or `None` if absent.
    pub fn mean_of(&self, metric: MetricId) -> Option<f64> {
        let mut n = 0usize;
        let mut sum = 0.0;
        for s in self.of_metric(metric) {
            n += 1;
            sum += s.value;
        }
        if n == 0 {
            None
        } else {
            Some(sum / n as f64)
        }
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
/// At `publish` the other slot still holds last tick's frame, so the new
/// key column is compared against it there, without a second copy of the
/// keys, and the arena's [`FrameLayout`] follows the frame it handed out
/// last.  That takes one `publish` per `take_current`, which is the only
/// way the pipeline calls them.
#[derive(Debug, Default)]
pub struct FrameArena {
    slots: [Option<Arc<ColumnFrame>>; 2],
    live: usize,
    layout: FrameLayout,
    fresh_allocs: u64,
    reuses: u64,
}

impl FrameArena {
    /// An empty arena: the first two ticks allocate, every tick after
    /// reuses in steady state.
    pub fn new() -> FrameArena {
        FrameArena::default()
    }

    /// Begin a tick: return an owned, empty frame stamped `ts`, reusing
    /// the buffer published two ticks ago when it is no longer shared.
    pub fn take_current(&mut self, ts: Ts) -> ColumnFrame {
        self.live ^= 1;
        match self.slots[self.live].take().and_then(|a| Arc::try_unwrap(a).ok()) {
            Some(mut cf) => {
                self.reuses += 1;
                cf.clear_for_tick(ts);
                cf
            }
            None => {
                self.fresh_allocs += 1;
                ColumnFrame::new(ts)
            }
        }
    }

    /// Finish a tick: move the filled frame into the live slot and hand
    /// back a shared handle.  No sample data is copied.
    pub fn publish(&mut self, frame: ColumnFrame) -> Arc<ColumnFrame> {
        let prev = self.slots[self.live ^ 1].as_deref().map_or(&[][..], |cf| &cf.keys);
        self.layout.observe(prev, &frame.keys);
        let arc = Arc::new(frame);
        self.slots[self.live] = Some(Arc::clone(&arc));
        arc
    }

    /// Where things are in the frame published last.
    pub fn layout(&self) -> &FrameLayout {
        &self.layout
    }

    /// [`FrameLayout::watch`] on the arena's layout.
    pub fn watch(&mut self, key: SeriesKey) -> usize {
        self.layout.watch(key)
    }

    /// Times `take_current` had to allocate a fresh buffer (the first two
    /// ticks, plus any tick where a downstream consumer still held the
    /// two-ticks-ago frame).  Flat in steady state.
    pub fn fresh_allocs(&self) -> u64 {
        self.fresh_allocs
    }

    /// Times `take_current` reclaimed a previous buffer's capacity.
    pub fn reuses(&self) -> u64 {
        self.reuses
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
        assert_eq!(cf.sum_of(mid(0)), 0.0);
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
        assert_eq!(cf.sum_of(mid(0)), 4.0);
        assert_eq!(cf.mean_of(mid(0)), Some(2.0));
        assert_eq!(cf.mean_of(mid(9)), None);
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
        assert_eq!(arena.reuses(), 4);
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
        assert_eq!(arena.reuses(), 0);
        // Every published frame is intact and distinct.
        for (tick, f) in held.iter().enumerate() {
            assert_eq!(f.ts, Ts(tick as u64));
            assert_eq!(f.len(), 1);
        }
    }

    proptest::proptest! {
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
