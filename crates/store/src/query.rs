//! The query engine: range scans, aggregation, group-by, downsampling, and
//! per-job extraction.
//!
//! Table I: "the data store should be designed to support arbitrary
//! extractions and computations" and "concurrent conditions on disparate
//! components should be able to be identified."  The primitives here are
//! what every figure-reproduction scenario is built from: Figure 4's
//! aggregate-then-drill-down is `aggregate_across_components` + `top_components_at`;
//! Figure 5's per-job panels are `job_series`.

use crate::tsdb::TimeSeriesStore;
use hpcmon_metrics::{CompId, CompKind, JobRecord, MetricId, SeriesKey, Ts};
use serde::{Deserialize, Serialize};

/// A malformed query parameter, reported instead of aborting the process:
/// query parameters now arrive from external consumers (the gateway), so
/// a bad request must be an error value, never a panic.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct InvalidParam(pub String);

impl std::fmt::Display for InvalidParam {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid query parameter: {}", self.0)
    }
}

impl std::error::Error for InvalidParam {}

/// An inclusive time range.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TimeRange {
    /// Inclusive start.
    pub from: Ts,
    /// Inclusive end.
    pub to: Ts,
}

impl TimeRange {
    /// Construct; panics if inverted.
    pub fn new(from: Ts, to: Ts) -> TimeRange {
        assert!(from <= to, "inverted time range");
        TimeRange { from, to }
    }

    /// Everything ever.
    pub fn all() -> TimeRange {
        TimeRange { from: Ts::ZERO, to: Ts(u64::MAX) }
    }

    /// Whether `t` lies inside.
    pub fn contains(&self, t: Ts) -> bool {
        t >= self.from && t <= self.to
    }
}

/// Aggregation functions over a set of values.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum AggFn {
    /// Sum of values.
    Sum,
    /// Arithmetic mean.
    Mean,
    /// Minimum.
    Min,
    /// Maximum.
    Max,
    /// Count of values.
    Count,
    /// Quantile in `[0, 1]` (nearest-rank on sorted values).
    Quantile(f64),
}

impl AggFn {
    /// Apply to a non-empty value set; returns `None` for empty input.
    pub fn apply(&self, values: &[f64]) -> Option<f64> {
        if values.is_empty() {
            return None;
        }
        Some(match self {
            AggFn::Sum => values.iter().sum(),
            AggFn::Mean => values.iter().sum::<f64>() / values.len() as f64,
            AggFn::Min => values.iter().copied().fold(f64::INFINITY, f64::min),
            AggFn::Max => values.iter().copied().fold(f64::NEG_INFINITY, f64::max),
            AggFn::Count => values.len() as f64,
            AggFn::Quantile(q) => {
                let mut sorted = values.to_vec();
                sorted.sort_by(|a, b| nan_last(*a, *b));
                let rank = ((q.clamp(0.0, 1.0)) * (sorted.len() - 1) as f64).round() as usize;
                sorted[rank]
            }
        })
    }

    /// The accumulator a stamp starts from: what the per-stamp operation
    /// folds its first value into.  `-0.0` for sums because `Iterator::sum`
    /// starts there, so `-0.0 + v` is bit for bit what [`AggFn::apply`]
    /// computes.
    fn identity(&self) -> f64 {
        match self {
            AggFn::Sum | AggFn::Mean => -0.0,
            AggFn::Min => f64::INFINITY,
            AggFn::Max => f64::NEG_INFINITY,
            AggFn::Count | AggFn::Quantile(_) => 0.0,
        }
    }
}

/// Ascending order with every NaN after every number: a total order over
/// the values a store can hold, in which ±0 still tie.
fn nan_last(a: f64, b: f64) -> std::cmp::Ordering {
    a.is_nan().cmp(&b.is_nan()).then_with(|| a.partial_cmp(&b).unwrap_or(std::cmp::Ordering::Equal))
}

/// A per-stamp fold: points of any number of series are pushed one after
/// another, and each stamp keeps one running value and a count instead of
/// every value — except under [`AggFn::Quantile`], which needs them all.
/// A stamp's operands meet in push order, so [`Fold::finish`] is bit for
/// bit [`AggFn::apply`] over each stamp's values gathered in that order.
///
/// Pushes are cheapest in stamp order, series after series: the cursor
/// steps forward, and a series that starts again from an older stamp finds
/// its place by binary search.
///
/// ```
/// use hpcmon_metrics::Ts;
/// use hpcmon_store::{AggFn, Fold};
///
/// let mut fold = Fold::new(AggFn::Mean);
/// for series in [[(0, 1.0), (60, 3.0)], [(0, 3.0), (120, 5.0)]] {
///     for (t, v) in series {
///         fold.push(Ts(t), v);
///     }
/// }
/// assert_eq!(fold.finish(), vec![(Ts(0), 2.0), (Ts(60), 3.0), (Ts(120), 5.0)]);
/// ```
#[derive(Debug)]
pub struct Fold {
    agg: AggFn,
    /// Every stamp pushed so far, ascending and distinct; `acc` and
    /// `counts` (and under `Quantile`, `values`) run parallel to it.
    stamps: Vec<Ts>,
    acc: Vec<f64>,
    counts: Vec<usize>,
    values: Vec<Vec<f64>>,
    /// The stamp the last push landed on.
    cursor: usize,
}

impl Fold {
    /// An empty fold computing `agg` per stamp.
    pub fn new(agg: AggFn) -> Fold {
        Fold {
            agg,
            stamps: Vec::new(),
            acc: Vec::new(),
            counts: Vec::new(),
            values: Vec::new(),
            cursor: 0,
        }
    }

    /// Fold `v` into stamp `t`.
    #[inline]
    pub fn push(&mut self, t: Ts, v: f64) {
        let i = self.seek(t);
        let acc = &mut self.acc[i];
        match self.agg {
            AggFn::Sum | AggFn::Mean => *acc += v,
            AggFn::Min => *acc = f64::min(*acc, v),
            AggFn::Max => *acc = f64::max(*acc, v),
            AggFn::Count => {}
            AggFn::Quantile(_) => self.values[i].push(v),
        }
        self.counts[i] += 1;
        self.cursor = i;
    }

    /// The position of stamp `t`, inserted with the identity if new.
    #[inline]
    fn seek(&mut self, t: Ts) -> usize {
        let mut i = self.cursor;
        if self.stamps.get(i).is_some_and(|&s| s > t) {
            i = self.stamps[..i].partition_point(|&s| s < t);
        } else {
            while self.stamps.get(i).is_some_and(|&s| s < t) {
                i += 1;
            }
        }
        if self.stamps.get(i) != Some(&t) {
            self.stamps.insert(i, t);
            self.acc.insert(i, self.agg.identity());
            self.counts.insert(i, 0);
            if let AggFn::Quantile(_) = self.agg {
                self.values.insert(i, Vec::new());
            }
        }
        i
    }

    /// One `(stamp, aggregate)` per stamp pushed, in stamp order.
    pub fn finish(self) -> Vec<(Ts, f64)> {
        self.read(self.agg)
    }

    /// The result as `agg`, which must fold the same way as the fold's own
    /// function: a `Mean` fold reads as `Sum` too.
    fn read(&self, agg: AggFn) -> Vec<(Ts, f64)> {
        let value = |i: usize| match agg {
            AggFn::Sum | AggFn::Min | AggFn::Max => self.acc[i],
            AggFn::Mean => self.acc[i] / self.counts[i] as f64,
            AggFn::Count => self.counts[i] as f64,
            AggFn::Quantile(_) => agg.apply(&self.values[i]).expect("a stamp holds a value"),
        };
        self.stamps.iter().enumerate().map(|(i, &t)| (t, value(i))).collect()
    }
}

/// Query operations over a [`TimeSeriesStore`].
pub struct QueryEngine<'a> {
    store: &'a TimeSeriesStore,
}

impl<'a> QueryEngine<'a> {
    /// Wrap a store.
    pub fn new(store: &'a TimeSeriesStore) -> QueryEngine<'a> {
        QueryEngine { store }
    }

    /// Raw points of one series.
    pub fn series(&self, key: SeriesKey, range: TimeRange) -> Vec<(Ts, f64)> {
        self.store.query(key, range.from, range.to)
    }

    /// For each timestamp present across all components of `metric`,
    /// aggregate the per-component values: the system-wide series
    /// (Figure 4 top panel, Figure 1's mean utilization).
    pub fn aggregate_across_components(
        &self,
        metric: MetricId,
        range: TimeRange,
        agg: AggFn,
    ) -> Vec<(Ts, f64)> {
        self.aggregate_visible(metric, range, agg, |_| true)
    }

    /// [`QueryEngine::aggregate_across_components`] over only the
    /// components `keep` admits.  The predicate sees each series' component
    /// before any of its points are read, so what it rejects costs nothing.
    pub fn aggregate_visible(
        &self,
        metric: MetricId,
        range: TimeRange,
        agg: AggFn,
        keep: impl Fn(CompId) -> bool,
    ) -> Vec<(Ts, f64)> {
        let mut fold = Fold::new(agg);
        self.store.visit_metric(metric, range.from, range.to, keep, |t, v| fold.push(t, v));
        fold.finish()
    }

    /// Aggregate one metric per component *kind* group — e.g. power summed
    /// per cabinet requires the caller to have stored cabinet-level series;
    /// this groups whatever granularity exists.
    pub fn components_of_kind(
        &self,
        metric: MetricId,
        kind: CompKind,
        range: TimeRange,
    ) -> Vec<(CompId, Vec<(Ts, f64)>)> {
        self.store
            .query_metric(metric, range.from, range.to)
            .into_iter()
            .filter(|(c, _)| c.kind == kind)
            .collect()
    }

    /// The per-component values of `metric` nearest to `at` (within
    /// `tolerance_ms`), largest first — the Figure 4 drill-down table.
    pub fn top_components_at(
        &self,
        metric: MetricId,
        at: Ts,
        tolerance_ms: u64,
        limit: usize,
    ) -> Vec<(CompId, f64)> {
        let range = TimeRange::new(at.sub_ms(tolerance_ms), at.add_ms(tolerance_ms));
        let mut rows: Vec<(CompId, f64)> = self
            .store
            .query_metric(metric, range.from, range.to)
            .into_iter()
            .filter_map(|(c, pts)| {
                pts.iter().min_by_key(|(t, _)| t.delta(at).abs_ms()).map(|&(_, v)| (c, v))
            })
            .collect();
        // Largest first, NaN last.
        rows.sort_by(|a, b| a.1.is_nan().cmp(&b.1.is_nan()).then_with(|| nan_last(b.1, a.1)));
        rows.truncate(limit);
        rows
    }

    /// Downsample one series into fixed buckets of `bucket_ms`, applying
    /// `agg` within each bucket.  Bucket timestamps are the bucket starts.
    /// A non-positive bucket is an [`InvalidParam`] error, not a panic —
    /// this path is reachable from external consumer requests.
    pub fn downsample(
        &self,
        key: SeriesKey,
        range: TimeRange,
        bucket_ms: u64,
        agg: AggFn,
    ) -> Result<Vec<(Ts, f64)>, InvalidParam> {
        let pts = self.series(key, range);
        Self::downsample_points(&pts, bucket_ms, agg)
    }

    /// Downsample already-fetched points.  Buckets are emitted in ascending
    /// time order; points may arrive unsorted (duplicates and out-of-order
    /// timestamps land in their proper bucket).
    pub fn downsample_points(
        pts: &[(Ts, f64)],
        bucket_ms: u64,
        agg: AggFn,
    ) -> Result<Vec<(Ts, f64)>, InvalidParam> {
        if bucket_ms == 0 {
            return Err(InvalidParam("downsample bucket must be positive".into()));
        }
        let mut fold = Fold::new(agg);
        for &(t, v) in pts {
            fold.push(t.align_down(bucket_ms), v);
        }
        Ok(fold.finish())
    }

    /// Align two series on exactly-equal timestamps (inner join) — the
    /// primitive for correlating e.g. power against network traffic.
    pub fn align_join(&self, a: SeriesKey, b: SeriesKey, range: TimeRange) -> Vec<(Ts, f64, f64)> {
        let pa = self.series(a, range);
        let pb = self.series(b, range);
        let mut out = Vec::new();
        let (mut i, mut j) = (0usize, 0usize);
        while i < pa.len() && j < pb.len() {
            match pa[i].0.cmp(&pb[j].0) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    out.push((pa[i].0, pa[i].1, pb[j].1));
                    i += 1;
                    j += 1;
                }
            }
        }
        out
    }

    /// Per-node series of `metric` for a job's allocation and timeframe,
    /// plus the across-nodes aggregate at each tick (sum and mean) — the
    /// Figure 5 condensation ("summing and averaging over nodes enables
    /// condensation of high dimensional data").
    pub fn job_series(&self, job: &JobRecord, metric: MetricId) -> JobSeries {
        let from = job.start.unwrap_or(job.submit);
        let to = job.end.unwrap_or(Ts(u64::MAX));
        let range = TimeRange::new(from, to);
        let per_node: Vec<(CompId, Vec<(Ts, f64)>)> = job
            .nodes
            .iter()
            .map(|&n| {
                let key = SeriesKey::new(metric, CompId::node(n));
                (CompId::node(n), self.series(key, range))
            })
            .collect();
        let mut fold = Fold::new(AggFn::Mean);
        for &(t, v) in per_node.iter().flat_map(|(_, pts)| pts) {
            fold.push(t, v);
        }
        let (sum, mean) = (fold.read(AggFn::Sum), fold.read(AggFn::Mean));
        JobSeries { metric, per_node, sum, mean }
    }
}

/// Output of [`QueryEngine::job_series`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobSeries {
    /// The queried metric.
    pub metric: MetricId,
    /// Per-node raw points.
    pub per_node: Vec<(CompId, Vec<(Ts, f64)>)>,
    /// Sum across nodes per tick.
    pub sum: Vec<(Ts, f64)>,
    /// Mean across nodes per tick.
    pub mean: Vec<(Ts, f64)>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpcmon_metrics::{JobId, JobState, Sample};

    fn store_with_grid() -> TimeSeriesStore {
        // metric 0 on nodes 0..4, minutes 0..10, value = node + minute.
        let store = TimeSeriesStore::new();
        for n in 0..4u32 {
            for m in 0..10u64 {
                store.insert(&Sample::new(
                    MetricId(0),
                    CompId::node(n),
                    Ts::from_mins(m),
                    (n as u64 + m) as f64,
                ));
            }
        }
        store
    }

    #[test]
    fn agg_fns() {
        let vals = [3.0, 1.0, 2.0, 4.0];
        assert_eq!(AggFn::Sum.apply(&vals), Some(10.0));
        assert_eq!(AggFn::Mean.apply(&vals), Some(2.5));
        assert_eq!(AggFn::Min.apply(&vals), Some(1.0));
        assert_eq!(AggFn::Max.apply(&vals), Some(4.0));
        assert_eq!(AggFn::Count.apply(&vals), Some(4.0));
        assert_eq!(AggFn::Quantile(0.0).apply(&vals), Some(1.0));
        assert_eq!(AggFn::Quantile(1.0).apply(&vals), Some(4.0));
        assert_eq!(AggFn::Quantile(0.5).apply(&vals), Some(3.0)); // nearest rank
        assert_eq!(AggFn::Sum.apply(&[]), None);
    }

    #[test]
    fn aggregate_across_components() {
        let store = store_with_grid();
        let q = QueryEngine::new(&store);
        let sums = q.aggregate_across_components(MetricId(0), TimeRange::all(), AggFn::Sum);
        assert_eq!(sums.len(), 10);
        // minute m: values m, m+1, m+2, m+3 → sum 4m+6.
        for (i, &(t, v)) in sums.iter().enumerate() {
            assert_eq!(t, Ts::from_mins(i as u64));
            assert_eq!(v, 4.0 * i as f64 + 6.0);
        }
    }

    const ALL_FNS: [AggFn; 6] =
        [AggFn::Sum, AggFn::Mean, AggFn::Min, AggFn::Max, AggFn::Count, AggFn::Quantile(0.3)];

    fn bits(points: &[(Ts, f64)]) -> Vec<(Ts, u64)> {
        points.iter().map(|&(t, v)| (t, v.to_bits())).collect()
    }

    #[test]
    fn sums_start_where_iterator_sum_does() {
        let empty: f64 = std::iter::empty::<f64>().sum();
        assert_eq!(AggFn::Sum.identity().to_bits(), empty.to_bits());
        // A lone -0.0 stays -0.0, as `apply` has it.
        let mut fold = Fold::new(AggFn::Sum);
        fold.push(Ts(0), -0.0);
        assert_eq!(bits(&fold.finish()), bits(&[(Ts(0), AggFn::Sum.apply(&[-0.0]).unwrap())]));
    }

    #[test]
    fn fold_is_apply_over_values_in_push_order() {
        // Runs that step forward, skip stamps, go back, repeat a stamp, and
        // carry signed zeros, infinities and NaN.
        let specials = [-0.0, 0.0, f64::INFINITY, f64::NEG_INFINITY, f64::NAN, 1e300, -1e-300];
        let mut x = 0x2545_f491_4f6c_dd1du64;
        let mut next = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let mut points = Vec::new();
        for _ in 0..40 {
            let mut t = next() % 30;
            for _ in 0..next() % 25 {
                let r = next();
                let v = match r % 5 {
                    0 => specials[(r >> 8) as usize % specials.len()],
                    _ => (r >> 11) as f64 / 1e3 - 4e12,
                };
                points.push((Ts(t * 1_000), v));
                t = match r >> 60 {
                    0 => t.saturating_sub(3),
                    1 => t,
                    _ => t + 1 + (r >> 56) % 3,
                };
            }
        }
        for agg in ALL_FNS {
            let mut by_ts: std::collections::BTreeMap<Ts, Vec<f64>> = Default::default();
            let mut fold = Fold::new(agg);
            for &(t, v) in &points {
                by_ts.entry(t).or_default().push(v);
                fold.push(t, v);
            }
            let want: Vec<(Ts, f64)> =
                by_ts.into_iter().map(|(t, vs)| (t, agg.apply(&vs).unwrap())).collect();
            // Rust leaves the sign and payload of a NaN that arithmetic
            // makes unspecified, so a NaN result is compared as NaN alone.
            let canon = |points: Vec<(Ts, f64)>| -> Vec<(Ts, u64)> {
                let bits = |v: f64| if v.is_nan() { f64::NAN.to_bits() } else { v.to_bits() };
                points.into_iter().map(|(t, v)| (t, bits(v))).collect()
            };
            assert_eq!(canon(fold.finish()), canon(want), "{agg:?}");
        }
    }

    #[test]
    fn a_nan_orders_last_and_panics_nothing() {
        let store = TimeSeriesStore::new();
        store.insert(&Sample::new(MetricId(0), CompId::node(0), Ts(0), f64::NAN));
        store.insert(&Sample::new(MetricId(0), CompId::node(1), Ts(0), 1.0));
        store.insert(&Sample::new(MetricId(0), CompId::node(2), Ts(0), 3.0));
        let q = QueryEngine::new(&store);
        let top = q.top_components_at(MetricId(0), Ts(0), 0, 3);
        assert_eq!(top[..2], [(CompId::node(2), 3.0), (CompId::node(1), 1.0)]);
        assert!(top[2].1.is_nan());
        let low =
            q.aggregate_across_components(MetricId(0), TimeRange::all(), AggFn::Quantile(0.0));
        assert_eq!(low, vec![(Ts(0), 1.0)]);
        assert!(AggFn::Quantile(1.0).apply(&[f64::NAN, 2.0]).unwrap().is_nan());
        // Signed zeros still tie: the stable sort keeps them as they came.
        assert_eq!(AggFn::Quantile(0.0).apply(&[0.0, -0.0]).unwrap().to_bits(), 0.0f64.to_bits());
    }

    #[test]
    fn a_fold_allocates_the_same_over_more_series() {
        // Same stamps everywhere: 16 series of metric 0, 64 of metric 1, in
        // cohorts, sealed blocks and a hot tail.
        let store = TimeSeriesStore::with_options(4, 32);
        let mut route = crate::IngestRoute::new();
        for t in 0..100u64 {
            let mut cf = hpcmon_metrics::ColumnFrame::new(Ts(t * 1_000));
            for n in 0..64u32 {
                if n < 16 {
                    cf.push(MetricId(0), CompId::node(n), (t * 64 + n as u64) as f64);
                }
                cf.push(MetricId(1), CompId::node(n), (t + n as u64) as f64);
            }
            store.ingest_columns(&cf, &mut route);
        }
        let q = QueryEngine::new(&store);
        let range = TimeRange::new(Ts(10_000), Ts(90_000));
        let allocations = |metric| {
            let before = hpcmon_metrics::alloc_count::thread_allocations();
            let out = q.aggregate_across_components(MetricId(metric), range, AggFn::Mean);
            let made = hpcmon_metrics::alloc_count::thread_allocations() - before;
            assert_eq!(out.len(), 81);
            made
        };
        let (narrow, wide) = (allocations(0), allocations(1));
        assert!(wide <= narrow, "64 series: {wide} allocations, 16: {narrow}");
    }

    #[test]
    fn top_components_at_ranks_descending() {
        let store = store_with_grid();
        let q = QueryEngine::new(&store);
        let top = q.top_components_at(MetricId(0), Ts::from_mins(5), 30_000, 2);
        assert_eq!(top.len(), 2);
        assert_eq!(top[0], (CompId::node(3), 8.0));
        assert_eq!(top[1], (CompId::node(2), 7.0));
    }

    #[test]
    fn top_components_respects_tolerance() {
        let store = store_with_grid();
        let q = QueryEngine::new(&store);
        // Querying off-grid with tiny tolerance finds nothing.
        let top = q.top_components_at(MetricId(0), Ts(30_500), 100, 5);
        assert!(top.is_empty());
    }

    #[test]
    fn downsample_means() {
        let pts: Vec<(Ts, f64)> = (0..6).map(|i| (Ts(i * 1_000), i as f64)).collect();
        let out = QueryEngine::downsample_points(&pts, 2_000, AggFn::Mean).unwrap();
        assert_eq!(out, vec![(Ts(0), 0.5), (Ts(2_000), 2.5), (Ts(4_000), 4.5)]);
    }

    #[test]
    fn downsample_handles_gaps() {
        let pts = vec![(Ts(0), 1.0), (Ts(10_000), 5.0)];
        let out = QueryEngine::downsample_points(&pts, 2_000, AggFn::Sum).unwrap();
        assert_eq!(out, vec![(Ts(0), 1.0), (Ts(10_000), 5.0)]);
        assert!(QueryEngine::downsample_points(&[], 1_000, AggFn::Sum).unwrap().is_empty());
    }

    #[test]
    fn downsample_rejects_zero_bucket_and_merges_unordered() {
        assert!(QueryEngine::downsample_points(&[(Ts(0), 1.0)], 0, AggFn::Sum).is_err());
        // Out-of-order buckets and duplicate timestamps merge into the same
        // buckets a sorted pass would produce.
        let pts = vec![(Ts(5_000), 5.0), (Ts(0), 1.0), (Ts(5_000), 3.0), (Ts(1_000), 2.0)];
        let out = QueryEngine::downsample_points(&pts, 2_000, AggFn::Sum).unwrap();
        assert_eq!(out, vec![(Ts(0), 3.0), (Ts(4_000), 8.0)]);
    }

    #[test]
    fn align_join_inner_semantics() {
        let store = TimeSeriesStore::new();
        let ka = SeriesKey::new(MetricId(0), CompId::node(0));
        let kb = SeriesKey::new(MetricId(1), CompId::node(0));
        for t in [0u64, 1_000, 2_000] {
            store.insert(&Sample::new(MetricId(0), CompId::node(0), Ts(t), t as f64));
        }
        for t in [1_000u64, 2_000, 3_000] {
            store.insert(&Sample::new(MetricId(1), CompId::node(0), Ts(t), -(t as f64)));
        }
        let q = QueryEngine::new(&store);
        let joined = q.align_join(ka, kb, TimeRange::all());
        assert_eq!(joined, vec![(Ts(1_000), 1_000.0, -1_000.0), (Ts(2_000), 2_000.0, -2_000.0)]);
    }

    #[test]
    fn job_series_condenses_nodes() {
        let store = store_with_grid();
        let q = QueryEngine::new(&store);
        let job = JobRecord {
            id: JobId(1),
            user: "alice".into(),
            name: "app".into(),
            nodes: vec![0, 1],
            submit: Ts::ZERO,
            start: Some(Ts::from_mins(2)),
            end: Some(Ts::from_mins(5)),
            state: JobState::Completed,
        };
        let js = q.job_series(&job, MetricId(0));
        assert_eq!(js.per_node.len(), 2);
        // Ticks 2..=5 inclusive (range is inclusive on both ends).
        assert_eq!(js.sum.len(), 4);
        // minute 2: nodes 0,1 → 2 + 3 = 5.
        assert_eq!(js.sum[0], (Ts::from_mins(2), 5.0));
        assert_eq!(js.mean[0], (Ts::from_mins(2), 2.5));
    }

    #[test]
    fn components_of_kind_filters() {
        let store = TimeSeriesStore::new();
        store.insert(&Sample::new(MetricId(0), CompId::node(0), Ts(0), 1.0));
        store.insert(&Sample::new(MetricId(0), CompId::cabinet(0), Ts(0), 2.0));
        let q = QueryEngine::new(&store);
        let cabs = q.components_of_kind(MetricId(0), CompKind::Cabinet, TimeRange::all());
        assert_eq!(cabs.len(), 1);
        assert_eq!(cabs[0].0, CompId::cabinet(0));
    }

    #[test]
    #[should_panic(expected = "inverted time range")]
    fn inverted_range_rejected() {
        TimeRange::new(Ts(10), Ts(5));
    }

    #[test]
    fn time_range_contains() {
        let r = TimeRange::new(Ts(5), Ts(10));
        assert!(r.contains(Ts(5)));
        assert!(r.contains(Ts(10)));
        assert!(!r.contains(Ts(4)));
        assert!(!r.contains(Ts(11)));
    }
}
