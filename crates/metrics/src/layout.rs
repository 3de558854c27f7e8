//! Where things are in a frame: derived when the key column changes, read
//! by position every tick after.
//!
//! A synchronized frame's key column repeats tick after tick, so what a
//! consumer learns by searching it — "this metric's samples sit at 3, 7,
//! 11, ...", "this series is at position 81,920" — stays true until the
//! column changes.  [`FrameLayout`] holds those answers for the frame a
//! [`crate::FrameArena`] published last.  The arena knows where each new
//! key column first differs from the one described without comparing keys
//! (see [`crate::KeyColumn`]), and the layout is re-derived only from that
//! position on, so a tail that comes and goes costs the tail.
//!
//! Collectors emit component-major segments (node 0's four metrics, node
//! 1's four, ...) as often as metric-major ones, so a metric's positions
//! are kept as arithmetic runs — `start`, `start + stride`, ... — rather
//! than ranges: four interleaved per-node metrics are four runs, whatever
//! the node count.

use crate::{MetricId, SeriesKey};

/// `len` positions of one metric: `start + i * stride` for `i < len`
/// (`stride` is 0 while `len` is 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricRun {
    /// The metric every position of the run holds.
    pub metric: MetricId,
    /// First position.
    pub start: u32,
    /// Distance between consecutive positions.
    pub stride: u32,
    /// Number of positions.
    pub len: u32,
}

impl MetricRun {
    /// The run's positions, ascending.
    pub(crate) fn positions(&self) -> impl Iterator<Item = usize> {
        let (start, stride) = (self.start as usize, self.stride as usize);
        (0..self.len as usize).map(move |i| start + i * stride)
    }

    /// The position range, if the run is contiguous.
    pub fn range(&self) -> Option<std::ops::Range<usize>> {
        (self.stride <= 1).then(|| self.start as usize..(self.start + self.len) as usize)
    }

    /// The position that would extend the run.
    fn next(&self) -> u64 {
        u64::from(self.start) + u64::from(self.len) * u64::from(self.stride)
    }

    /// How many of the run's positions lie below `at`.
    fn len_below(&self, at: u32) -> u32 {
        match self.stride {
            0 => u32::from(self.start < at),
            s => at.saturating_sub(self.start).div_ceil(s).min(self.len),
        }
    }
}

/// Metric ids index a table of open runs; an id past this (none comes out
/// of a registry) gets one run per sample instead of a 4-GiB table.
const DENSE_METRICS: usize = 1 << 16;

/// The layout of the key column it last observed.
#[derive(Debug, Default)]
pub struct FrameLayout {
    /// Length of the described column.
    len: usize,
    /// Ascending by `start`; the runs of one metric never interleave.
    runs: Vec<MetricRun>,
    /// Per metric id, 1 + the index of its latest run (0: none yet).
    open: Vec<u32>,
    watched: Vec<(SeriesKey, Vec<u32>)>,
}

impl FrameLayout {
    /// Ask for the positions of `key` to be kept; returns the slot to read
    /// them from.
    ///
    /// # Panics
    /// Once a frame has been observed: positions are kept from the first
    /// difference on, which would miss `key` in the unchanged prefix.
    pub(crate) fn watch(&mut self, key: SeriesKey) -> usize {
        assert_eq!(self.len, 0, "watch before the first frame");
        self.watched.push((key, Vec::new()));
        self.watched.len() - 1
    }

    /// Length of the described column.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Positions of watched key `slot` in the described column, ascending.
    pub fn watched(&self, slot: usize) -> &[u32] {
        &self.watched[slot].1
    }

    /// The runs of `metric`, in position order.
    pub fn runs_of(&self, metric: MetricId) -> impl Iterator<Item = &MetricRun> {
        self.runs.iter().filter(move |r| r.metric == metric)
    }

    /// Every position of `metric`, ascending.
    pub fn positions_of(&self, metric: MetricId) -> impl Iterator<Item = usize> + '_ {
        self.runs_of(metric).flat_map(MetricRun::positions)
    }

    /// Describe `keys`, given that its first `common` keys are the
    /// described column's: nothing to do when that is all of both;
    /// otherwise everything from `common` on is re-derived.
    pub(crate) fn observe(&mut self, common: usize, keys: &[SeriesKey]) {
        assert!(common <= self.len.min(keys.len()), "a common prefix of both columns");
        assert!(keys.len() <= u32::MAX as usize, "positions are u32");
        if common == self.len && common == keys.len() {
            return;
        }
        self.len = keys.len();
        self.cut(common as u32);
        for (pos, key) in keys.iter().enumerate().skip(common) {
            self.append(pos as u32, key.metric);
        }
        let FrameLayout { runs, watched, .. } = self;
        for (key, positions) in watched {
            for run in runs.iter().filter(|r| r.metric == key.metric) {
                let fresh = run.positions().skip(run.len_below(common as u32) as usize);
                positions.extend(fresh.filter(|&p| keys[p] == *key).map(|p| p as u32));
            }
        }
    }

    /// Forget everything at or past position `at`.
    fn cut(&mut self, at: u32) {
        self.runs.truncate(self.runs.partition_point(|r| r.start < at));
        self.open.fill(0);
        for (i, run) in self.runs.iter_mut().enumerate() {
            run.len = run.len_below(at);
            if run.len == 1 {
                run.stride = 0;
            }
            if let Some(open) = self.open.get_mut(run.metric.0 as usize) {
                *open = i as u32 + 1;
            }
        }
        for (_, positions) in &mut self.watched {
            positions.truncate(positions.partition_point(|&p| p < at));
        }
    }

    /// Position `pos` (past every position seen) holds `metric`: extend
    /// the metric's latest run if it continues it, else open a new one.
    fn append(&mut self, pos: u32, metric: MetricId) {
        let m = metric.0 as usize;
        if m >= self.open.len() && m < DENSE_METRICS {
            self.open.resize(m + 1, 0);
        }
        let latest = self.open.get(m).and_then(|&i| i.checked_sub(1));
        match latest.map(|i| &mut self.runs[i as usize]) {
            Some(run) if run.len == 1 => (run.stride, run.len) = (pos - run.start, 2),
            Some(run) if run.next() == u64::from(pos) => run.len += 1,
            _ => {
                self.runs.push(MetricRun { metric, start: pos, stride: 0, len: 1 });
                if let Some(open) = self.open.get_mut(m) {
                    *open = self.runs.len() as u32;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CompId;

    fn key(m: u32, c: u32) -> SeriesKey {
        SeriesKey::new(MetricId(m), CompId::node(c))
    }

    /// Brute force: the positions of everything that satisfies `want`.
    fn scan(keys: &[SeriesKey], want: impl Fn(&SeriesKey) -> bool) -> Vec<usize> {
        (0..keys.len()).filter(|&i| want(&keys[i])).collect()
    }

    /// Describe `keys` after `prev`, from their first difference.
    fn observe(layout: &mut FrameLayout, prev: &[SeriesKey], keys: &[SeriesKey]) {
        assert_eq!(layout.len(), prev.len(), "the layout describes another column");
        layout.observe(prev.iter().zip(keys).take_while(|(a, b)| a == b).count(), keys);
    }

    fn assert_matches_scan(layout: &FrameLayout, keys: &[SeriesKey], metrics: u32) {
        for m in (0..metrics).map(MetricId) {
            let got: Vec<usize> = layout.positions_of(m).collect();
            assert_eq!(got, scan(keys, |k| k.metric == m), "metric {m:?}");
        }
        for (slot, (key, _)) in layout.watched.iter().enumerate() {
            let got: Vec<usize> = layout.watched(slot).iter().map(|&p| p as usize).collect();
            assert_eq!(got, scan(keys, |k| k == key), "watched {key:?}");
        }
        // Each sample is in exactly one run, and runs ascend by start.
        assert_eq!(layout.runs.iter().map(|r| r.len as usize).sum::<usize>(), keys.len());
        assert!(layout.runs.windows(2).all(|w| w[0].start < w[1].start));
        assert!(layout.runs.iter().all(|r| (r.len == 1) == (r.stride == 0)));
    }

    #[test]
    fn component_major_segments_are_one_strided_run_per_metric() {
        let mut keys = Vec::new();
        for node in 0..1_000 {
            keys.extend((0..4).map(|m| key(m, node)));
        }
        keys.extend((0..16).map(|c| key(4, c)));
        let mut layout = FrameLayout::default();
        let node_3_health = layout.watch(key(3, 3));
        observe(&mut layout, &[], &keys);
        assert_eq!(layout.runs.len(), 5);
        let health: Vec<&MetricRun> = layout.runs_of(MetricId(3)).collect();
        assert_eq!(health, [&MetricRun { metric: MetricId(3), start: 3, stride: 4, len: 1_000 }]);
        assert_eq!(health[0].range(), None);
        assert_eq!(layout.runs_of(MetricId(4)).next().unwrap().range(), Some(4_000..4_016));
        assert_eq!(layout.watched(node_3_health), [15]);
        // The same column again changes nothing.
        let runs = layout.runs.clone();
        observe(&mut layout, &keys, &keys);
        assert_eq!(layout.runs, runs);
        assert_matches_scan(&layout, &keys, 5);
    }

    #[test]
    fn a_tail_that_comes_and_goes_rederives_only_the_tail() {
        let body: Vec<SeriesKey> = (0..100).flat_map(|n| [key(0, n), key(1, n)]).collect();
        let mut with_tail = body.clone();
        with_tail.extend([key(7, 0), key(8, 0), key(1, 100)]);
        let mut layout = FrameLayout::default();
        let tail_key = layout.watch(key(8, 0));
        observe(&mut layout, &[], &body);
        let body_runs = layout.runs.clone();
        // Observed from the body's end: the body's runs are not re-derived
        // (they would be, and still match, from position 0).
        layout.observe(body.len(), &with_tail);
        assert_eq!(layout.watched(tail_key), [201]);
        assert_matches_scan(&layout, &with_tail, 9);
        observe(&mut layout, &with_tail, &body);
        assert_eq!(layout.runs, body_runs);
        assert!(layout.watched(tail_key).is_empty());
    }

    #[test]
    fn a_metric_id_past_the_dense_table_still_resolves() {
        let keys = [key(u32::MAX, 0), key(0, 0), key(u32::MAX, 1), key(u32::MAX, 2)];
        let mut layout = FrameLayout::default();
        observe(&mut layout, &[], &keys);
        let got: Vec<usize> = layout.positions_of(MetricId(u32::MAX)).collect();
        assert_eq!(got, [0, 2, 3]);
        assert!(layout.open.len() <= 1);
    }

    proptest::proptest! {
        /// Frames built from segments that vanish and return, a tail that
        /// comes and goes, duplicate keys and keys outside any run: after
        /// every frame, every metric's positions and every watched key's
        /// positions equal a brute-force scan of the key column.
        #[test]
        fn prop_layout_matches_a_scan_of_the_key_column(
            segments in proptest::collection::vec(
                // (metrics in the segment, components, component-major?)
                (1u32..4, 1u32..12, proptest::any::<bool>()),
                1..5,
            ),
            frames in proptest::collection::vec(
                // (segments present, tail present, strays: (at, metric, comp))
                (
                    0u32..32,
                    proptest::any::<bool>(),
                    proptest::collection::vec((0usize..200, 0u32..14, 0u32..12), 0..3),
                ),
                1..12,
            ),
        ) {
            let mut layout = FrameLayout::default();
            for m in [0, 3, 7, 13] {
                layout.watch(key(m, 2));
            }
            let mut prev: Vec<SeriesKey> = Vec::new();
            for (present, tail, strays) in &frames {
                let mut keys = Vec::new();
                let mut first_metric = 0;
                for (s, &(metrics, comps, comp_major)) in segments.iter().enumerate() {
                    if present & (1 << s) != 0 {
                        let (outer, inner) = if comp_major { (comps, metrics) } else { (metrics, comps) };
                        for (a, b) in (0..outer).flat_map(|a| (0..inner).map(move |b| (a, b))) {
                            let (m, c) = if comp_major { (b, a) } else { (a, b) };
                            keys.push(key(first_metric + m, c));
                        }
                    }
                    first_metric += metrics;
                }
                if *tail {
                    keys.extend((0..3).map(|c| key(13, c)));
                }
                // Duplicates of keys that exist, and keys that break a run.
                for &(at, m, c) in strays {
                    keys.insert(at.min(keys.len()), key(m, c));
                }
                observe(&mut layout, &prev, &keys);
                proptest::prop_assert_eq!(layout.len(), keys.len());
                assert_matches_scan(&layout, &keys, 14);
                prev = keys;
            }
        }
    }
}
