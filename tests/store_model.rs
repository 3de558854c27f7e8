//! Model-based test of `TimeSeriesStore` (ROADMAP item 6): random
//! interleavings of every mutating call against two oracles that are not the
//! store under test.
//!
//! * **Contents and block boundaries** come from [`Model`], a
//!   `BTreeMap<SeriesKey, _>` of plain vectors that restates what `insert()`
//!   promises: points kept in stamp order, a tie landing after its equals, a
//!   seal every `threshold` points.
//! * **Aggregates** across a metric's series come from the same model read
//!   series by series, grouped per stamp and handed to `AggFn::apply` — the
//!   materialising path the store's fold must equal bit for bit, including
//!   series an insert behind a sealed block leaves out of stamp order.
//! * **Counters** — `op_counts`, `epoch`, `occupancy`, `state_digest` — and
//!   the exact bytes of every warm block and checkpoint come from a twin
//!   store that only ever sees `insert()`, the reference ingest.
//!
//! The store under test is fed through the route: whole synchronized frames
//! and every way a frame can fall short of one.  Some frames are published
//! through a `FrameArena` first and ingested with its verdict on the key
//! column, some published frames are lost before the store sees them, and
//! the rest go in bare, so the route meets every generation gap.  Frames are at least
//! 4 x `MIN_WIDTH` wide per shard and thresholds 4..32, so cases form cohorts,
//! evict from them and seal them — asserted at the end through
//! `hot_layout()`.  The proptest shim does not shrink: a failing case prints
//! its index and decoded op list.

use hpcmon_metrics::{ColumnFrame, CompId, FrameArena, MetricId, Sample, SeriesKey, Ts};
use hpcmon_store::cohort::MIN_WIDTH;
use hpcmon_store::{
    AggFn, HotLayout, IngestRoute, QueryEngine, SeriesBlock, TimeRange, TimeSeriesStore, WriteError,
};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::Arc;

const SHARDS: usize = 2;
/// Series every full frame carries.
const POPULATION: u32 = (4 * MIN_WIDTH * SHARDS) as u32;
/// Series only a frame's tail carries.
const TAIL: u32 = 12;
const STEP: u64 = 1_000;
const ALL: (Ts, Ts) = (Ts::ZERO, Ts(u64::MAX));

type Points = Vec<(Ts, f64)>;

fn key(i: u32) -> SeriesKey {
    if i < POPULATION {
        SeriesKey::new(MetricId(i % 4), CompId::node(i / 4))
    } else {
        SeriesKey::new(MetricId(9), CompId::node(i - POPULATION))
    }
}

/// How a routed frame falls short of the full key column, if it does.
#[derive(Debug, Clone, Copy)]
enum Shape {
    Full,
    /// Without `len` consecutive keys from `start` on.
    MinusSegment {
        start: u32,
        len: u32,
    },
    /// With `n` tail series appended.
    PlusTail {
        n: u32,
    },
    /// With series `i` a second time, at the end.
    Duplicate {
        i: u32,
    },
    /// The whole frame stamped `back` steps before the newest stamp.
    Old {
        back: u64,
    },
}

#[derive(Debug, Clone, Copy)]
enum Op {
    /// Ingested through the route; first published through the case's
    /// arena, and ingested with its verdict, if `published`.
    Frame {
        shape: Shape,
        value: f64,
        published: bool,
    },
    /// Published through the arena, never ingested (lost in transit).
    Lost {
        shape: Shape,
    },
    /// `insert()`: `ahead` steps past the newest stamp, or `behind` it.
    Insert {
        series: u32,
        ahead: bool,
        steps: u64,
        value: f64,
    },
    SealAll,
    /// `evict_warm_before` then `reload_blocks` of what came out.
    EvictReload {
        back: u64,
    },
    Retention {
        back: u64,
    },
    /// A write fault on `shard`, one refused `try_ingest_columns`, cleared.
    RefusedFrame {
        shard: usize,
    },
    SnapshotLoad,
    /// From now on no frame carries these series (again: they are back) — a
    /// quarantined collector.  Silent long enough they seal, age and drop.
    Silence {
        start: u32,
        len: u32,
    },
    Query {
        series: u32,
        from: u64,
        to: u64,
    },
    /// Every `AggFn` across the series of `metric`, against brute force.
    Aggregate {
        metric: u32,
        from: u64,
        to: u64,
    },
}

fn decode((op, a, b, c, value): (u8, u32, u32, u64, f64)) -> Op {
    let frame = |shape| Op::Frame { shape, value, published: c >> 63 == 0 };
    // Half of all ops are plain synchronized frames: cohorts need runs of
    // them to fill and seal.
    match op % 23 {
        0..=11 => frame(Shape::Full),
        12 => {
            let len = 1 + b % (POPULATION / 2 + 8);
            frame(Shape::MinusSegment { start: a % POPULATION, len })
        }
        13 if c % 4 == 0 => Op::Lost { shape: Shape::PlusTail { n: 1 + a % TAIL } },
        13 => frame(Shape::PlusTail { n: 1 + a % TAIL }),
        14 => frame(Shape::Duplicate { i: a % POPULATION }),
        15 => frame(Shape::Old { back: 1 + c % 3 }),
        16 | 17 => {
            Op::Insert { series: a % (POPULATION + TAIL), ahead: b % 2 == 0, steps: c % 4, value }
        }
        18 => Op::SealAll,
        19 => Op::EvictReload { back: c % 40 },
        20 => Op::Retention { back: c % 8 },
        21 if a % 3 == 0 => Op::RefusedFrame { shard: b as usize % SHARDS },
        21 if a % 3 == 1 => Op::SnapshotLoad,
        21 => Op::Silence { start: b % POPULATION, len: 1 + c as u32 % (POPULATION / 2) },
        _ if b >> 31 == 0 => {
            Op::Query { series: a % (POPULATION + TAIL), from: c % 60, to: c % 60 + b as u64 % 60 }
        }
        _ => Op::Aggregate {
            metric: [0, 1, 2, 3, 9][a as usize % 5],
            from: c % 60,
            to: c % 60 + b as u64 % 60,
        },
    }
}

/// What `insert()` promises, restated over plain vectors.
#[derive(Default)]
struct Model {
    series: BTreeMap<SeriesKey, ModelSeries>,
}

#[derive(Default)]
struct ModelSeries {
    /// Sealed blocks, in stored order.
    warm: Vec<Points>,
    hot: Points,
}

impl Model {
    fn insert(&mut self, s: &Sample, threshold: usize) {
        let series = self.series.entry(s.key).or_default();
        let at = series.hot.partition_point(|&(t, _)| t <= s.ts);
        series.hot.insert(at, (s.ts, s.value));
        if series.hot.len() >= threshold {
            series.warm.push(std::mem::take(&mut series.hot));
        }
    }

    fn seal_all(&mut self) {
        for series in self.series.values_mut().filter(|s| !s.hot.is_empty()) {
            series.warm.push(std::mem::take(&mut series.hot));
        }
    }

    fn evict_warm_before(&mut self, cutoff: Ts) -> Vec<(SeriesKey, Points)> {
        let mut out = Vec::new();
        for (key, series) in &mut self.series {
            let (old, keep) = std::mem::take(&mut series.warm)
                .into_iter()
                .partition(|b| b.last().expect("blocks are never empty").0 <= cutoff);
            series.warm = keep;
            out.extend(Vec::into_iter(old).map(|b| (*key, b)));
        }
        out
    }

    fn reload(&mut self, blocks: Vec<(SeriesKey, Points)>) {
        for (key, block) in blocks {
            let warm = &mut self.series.entry(key).or_default().warm;
            warm.push(block);
            warm.sort_by_key(|b| b[0].0);
        }
    }

    fn drop_series_before(&mut self, cutoff: Ts) -> usize {
        let before = self.series.len();
        self.series.retain(|_, s| {
            let ended = |b: &Points| b.last().expect("blocks are never empty").0 < cutoff;
            !(s.hot.is_empty() && !s.warm.is_empty() && s.warm.iter().all(ended))
        });
        before - self.series.len()
    }

    fn query(&self, key: SeriesKey, from: Ts, to: Ts) -> Points {
        let Some(series) = self.series.get(&key) else { return Vec::new() };
        let stored = series.warm.iter().flatten().chain(&series.hot);
        let mut out: Points = stored.copied().filter(|&(t, _)| t >= from && t <= to).collect();
        out.sort_by_key(|&(t, _)| t);
        out
    }

    /// `agg` per stamp over the admitted series of `metric`, each read
    /// whole by [`Model::query`] in key order.
    fn aggregate(
        &self,
        metric: MetricId,
        (from, to): (Ts, Ts),
        agg: AggFn,
        keep: impl Fn(CompId) -> bool,
    ) -> Points {
        let mut by_ts: BTreeMap<Ts, Vec<f64>> = BTreeMap::new();
        for &key in self.series.keys().filter(|k| k.metric == metric && keep(k.comp)) {
            for (t, v) in self.query(key, from, to) {
                by_ts.entry(t).or_default().push(v);
            }
        }
        by_ts.into_iter().map(|(t, vs)| (t, agg.apply(&vs).expect("a stamp has a value"))).collect()
    }
}

fn bits(points: Points) -> Vec<(Ts, u64)> {
    points.into_iter().map(|(t, v)| (t, v.to_bits())).collect()
}

/// One case's three parties and the clock frames are stamped from.
struct Case {
    threshold: usize,
    store: TimeSeriesStore,
    route: IngestRoute,
    arena: FrameArena,
    twin: TimeSeriesStore,
    model: Model,
    /// Newest stamp any frame or insert has carried.
    newest: u64,
    /// Series no frame carries for now.
    silent: std::ops::Range<u32>,
}

impl Case {
    fn new(threshold: usize) -> Case {
        Case {
            threshold,
            store: TimeSeriesStore::with_options(SHARDS, threshold),
            route: IngestRoute::new(),
            arena: FrameArena::new(),
            twin: TimeSeriesStore::with_options(SHARDS, threshold),
            model: Model::default(),
            newest: 0,
            silent: 0..0,
        }
    }

    fn build_frame(&mut self, shape: Shape, value: f64) -> ColumnFrame {
        let ts = match shape {
            Shape::Old { back } => self.newest.saturating_sub(back * STEP),
            _ => self.newest + STEP,
        };
        self.newest = self.newest.max(ts);
        let mut cf = ColumnFrame::new(Ts(ts));
        let skipped = |i: u32| match shape {
            _ if self.silent.contains(&i) => true,
            Shape::MinusSegment { start, len } => (start..start + len).contains(&i),
            _ => false,
        };
        for i in (0..POPULATION).filter(|&i| !skipped(i)) {
            cf.push(key(i).metric, key(i).comp, value + i as f64);
        }
        match shape {
            Shape::PlusTail { n } => {
                for i in POPULATION..POPULATION + n {
                    cf.push(key(i).metric, key(i).comp, value - i as f64);
                }
            }
            Shape::Duplicate { i } => cf.push(key(i).metric, key(i).comp, -value),
            _ => {}
        }
        cf
    }

    /// `cf` as the arena's next published frame.
    fn publish(&mut self, cf: &ColumnFrame) -> Arc<ColumnFrame> {
        let mut frame = self.arena.take_current(cf.ts);
        frame.keys.extend_from_slice(&cf.keys);
        frame.values.extend_from_slice(&cf.values);
        self.arena.publish(frame)
    }

    /// Feed the oracles what the store under test just took through the route.
    fn oracles_take(&mut self, cf: &ColumnFrame) {
        for s in cf.iter() {
            self.twin.insert(&s);
            self.model.insert(&s, self.threshold);
        }
    }

    fn apply(&mut self, op: Op) {
        match op {
            Op::Frame { shape, value, published: false } => {
                let cf = self.build_frame(shape, value);
                self.store.ingest_columns(&cf, &mut self.route);
                self.oracles_take(&cf);
            }
            Op::Frame { shape, value, published: true } => {
                let cf = self.build_frame(shape, value);
                let cf = self.publish(&cf);
                let verdict = Some(self.arena.layout());
                assert_eq!(self.store.try_ingest_columns(&cf, &mut self.route, verdict), Ok(()));
                self.oracles_take(&cf);
            }
            Op::Lost { shape } => {
                let cf = self.build_frame(shape, 0.0);
                self.publish(&cf);
            }
            Op::Insert { series, ahead, steps, value } => {
                let ts = if ahead {
                    self.newest + steps * STEP
                } else {
                    self.newest.saturating_sub(steps * STEP + 1)
                };
                self.newest = self.newest.max(ts);
                let s = Sample { key: key(series), ts: Ts(ts), value };
                self.store.insert(&s);
                self.twin.insert(&s);
                self.model.insert(&s, self.threshold);
            }
            Op::SealAll => {
                self.store.seal_all();
                self.twin.seal_all();
                self.model.seal_all();
            }
            Op::EvictReload { back } => {
                let cutoff = Ts(self.newest.saturating_sub(back * STEP));
                let evicted = self.check_evicted(cutoff);
                self.reload(evicted);
            }
            Op::Retention { back } => {
                let cutoff = Ts(self.newest.saturating_sub(back * STEP));
                let dropped = self.store.drop_series_before(cutoff);
                assert_eq!(dropped, self.twin.drop_series_before(cutoff));
                assert_eq!(dropped, self.model.drop_series_before(cutoff));
            }
            Op::RefusedFrame { shard } => {
                let cf = self.build_frame(Shape::Full, 0.5);
                let before = (self.store.state_digest(), self.store.hot_layout());
                self.store.set_shard_write_fault(shard, true);
                let refused = self.store.try_ingest_columns(&cf, &mut self.route, None);
                assert_eq!(refused, Err(WriteError::ShardUnavailable(shard)));
                self.store.set_shard_write_fault(shard, false);
                assert_eq!(before, (self.store.state_digest(), self.store.hot_layout()));
                // Retried once the shard is back, as the spill queue would.
                assert_eq!(self.store.try_ingest_columns(&cf, &mut self.route, None), Ok(()));
                self.oracles_take(&cf);
            }
            Op::SnapshotLoad => {
                let (snap, twin) = (self.store.snapshot(), self.twin.snapshot());
                let json = serde_json::to_vec(&snap).expect("serializes");
                assert_eq!(json, serde_json::to_vec(&twin).expect("serializes"), "checkpoints");
                self.store.load_snapshot(serde_json::from_slice(&json).expect("round trips"));
                assert_eq!(self.store.hot_layout().members, 0, "a loaded store is per-series");
            }
            Op::Silence { start, len } => {
                self.silent = if self.silent.is_empty() { start..start + len } else { 0..0 };
            }
            Op::Query { series, from, to } => {
                let (from, to) = (Ts(from * STEP), Ts(to * STEP));
                let got = self.store.query(key(series), from, to);
                assert_eq!(bits(got), bits(self.model.query(key(series), from, to)));
            }
            Op::Aggregate { metric, from, to } => {
                let (metric, range) =
                    (MetricId(metric), TimeRange::new(Ts(from * STEP), Ts(to * STEP)));
                let engine = QueryEngine::new(&self.store);
                let aggs = [AggFn::Sum, AggFn::Mean, AggFn::Min, AggFn::Max, AggFn::Count];
                for agg in aggs.into_iter().chain([AggFn::Quantile(0.25)]) {
                    let got = engine.aggregate_across_components(metric, range, agg);
                    let want = self.model.aggregate(metric, (range.from, range.to), agg, |_| true);
                    assert_eq!(bits(got), bits(want), "{agg:?}");
                }
                let keep = |c: CompId| c.index % 3 != 1;
                let got = engine.aggregate_visible(metric, range, AggFn::Mean, keep);
                let want = self.model.aggregate(metric, (range.from, range.to), AggFn::Mean, keep);
                assert_eq!(bits(got), bits(want), "a visible subset");
            }
        }
    }

    /// Evict everything ending at or before `cutoff` from all three; the
    /// store's blocks must be the twin's byte for byte and decode to the
    /// model's.  Returns them.
    fn check_evicted(&mut self, cutoff: Ts) -> Vec<SeriesBlock> {
        // Stable, so a series' blocks stay in stored order.
        let in_key_order = |mut blocks: Vec<SeriesBlock>| {
            blocks.sort_by_key(|b| b.key);
            blocks
        };
        let evicted = in_key_order(self.store.evict_warm_before(cutoff));
        assert_eq!(evicted, in_key_order(self.twin.evict_warm_before(cutoff)), "warm blocks");
        let decoded: Vec<(SeriesKey, Vec<(Ts, u64)>)> =
            evicted.iter().map(|b| (b.key, bits(b.decompress().expect("decodes")))).collect();
        let modelled: Vec<_> = (self.model.evict_warm_before(cutoff).iter())
            .map(|(k, b)| (*k, bits(b.clone())))
            .collect();
        assert_eq!(decoded, modelled, "block boundaries");
        evicted
    }

    /// Hand `evicted` back to all three.
    fn reload(&mut self, evicted: Vec<SeriesBlock>) {
        let decoded = evicted.iter().map(|b| (b.key, b.decompress().expect("decodes")));
        self.model.reload(decoded.collect());
        self.store.reload_blocks(evicted.clone());
        self.twin.reload_blocks(evicted);
    }

    /// Everything observable without disturbing the stores.
    fn check(&self) {
        let (store, twin) = (&self.store, &self.twin);
        assert_eq!(store.stats(), store.occupancy(), "counters against the scan");
        assert_eq!(store.occupancy(), twin.occupancy());
        assert_eq!(store.op_counts(), twin.op_counts());
        assert_eq!(store.epoch(), twin.epoch());
        assert_eq!(store.state_digest(), twin.state_digest());
        assert_eq!(twin.hot_layout(), HotLayout::default(), "insert() alone forms no cohort");
        let keys: Vec<SeriesKey> = self.model.series.keys().copied().collect();
        assert_eq!(store.all_series(), keys);
        for k in keys {
            assert_eq!(bits(store.query(k, ALL.0, ALL.1)), bits(self.model.query(k, ALL.0, ALL.1)));
        }
    }
}

/// Run one case; returns the path its hot tier took.
fn run_case(threshold: usize, ops: &[Op]) -> HotLayout {
    let mut case = Case::new(threshold);
    for &op in ops {
        case.apply(op);
        case.check();
    }
    let json = |s: &TimeSeriesStore| serde_json::to_vec(&s.snapshot()).expect("serializes");
    assert_eq!(json(&case.store), json(&case.twin), "final checkpoint");
    let evicted = case.check_evicted(ALL.1);
    case.reload(evicted);
    case.check();
    case.store.hot_layout()
}

fn run_cases(cases: u32) {
    let strategy = (
        4usize..33,
        collection::vec(
            (0u8..230, any::<u32>(), any::<u32>(), any::<u64>(), -1.0e6f64..1.0e6),
            8..72,
        ),
    );
    let seed = proptest::seed_from_name("store_matches_its_model");
    let mut total = HotLayout::default();
    for case in 0..cases {
        let mut rng = TestRng::new(seed ^ u64::from(case).wrapping_mul(0x9e37_79b9));
        let (threshold, raw) = strategy.generate(&mut rng);
        let ops: Vec<Op> = raw.into_iter().map(decode).collect();
        match catch_unwind(AssertUnwindSafe(|| run_case(threshold, &ops))) {
            Ok(layout) => {
                total.formations += layout.formations;
                total.evictions += layout.evictions;
                total.cohort_seals += layout.cohort_seals;
            }
            Err(panic) => {
                eprintln!("case {case} failed: seal threshold {threshold}, ops {ops:#?}");
                resume_unwind(panic);
            }
        }
    }
    // The cases went where they were meant to.
    let cases = u64::from(cases);
    assert!(total.formations >= cases, "{total:?}");
    assert!(total.evictions >= cases, "{total:?}");
    assert!(total.cohort_seals >= cases, "{total:?}");
}

#[test]
fn store_matches_its_model() {
    run_cases(64);
}

/// The long run CI makes in the release profile.
#[test]
#[ignore = "2,000 cases: cargo test --release --test store_model -- --ignored"]
fn store_matches_its_model_over_2000_cases() {
    run_cases(2_000);
}
