//! The dashboard refresh: the ten queries an operator's board issues each
//! time it redraws, as gateway requests and as direct `QueryEngine` calls
//! with the same parameters.

use hpcmon::collect::StdMetrics;
use hpcmon::gateway::{Gateway, QueryError, QueryRequest, QueryResponse};
use hpcmon::metrics::{CompId, CompKind, JobRecord, JobState, SeriesKey, Ts, MINUTE_MS};
use hpcmon::response::Consumer;
use hpcmon::sim::Rng;
use hpcmon::store::{AggFn, QueryEngine, TimeRange, TimeSeriesStore};
use hpcmon::MonitoringSystem;
use std::time::Instant;

/// Panel names in issue order; the last two repeat the first and third so
/// the gateway's result cache is hit within every refresh.
pub const PANELS: [&str; 10] = [
    "agg_1h",
    "agg_8h",
    "topk",
    "cabinets",
    "node_drill",
    "sys_down",
    "join",
    "job",
    "agg_1h_repeat",
    "topk_repeat",
];

/// The distinct panels, as the layer metrics their direct `QueryEngine`
/// timings are reported under.
pub const STORE_PANELS: [&str; 8] = [
    "store.query.agg_1h_ms_p50",
    "store.query.agg_8h_ms_p50",
    "store.query.topk_ms_p50",
    "store.query.cabinets_ms_p50",
    "store.query.series_ms_p50",
    "store.query.downsample_ms_p50",
    "store.query.join_ms_p50",
    "store.query.job_ms_p50",
];

/// What the board is pinned to: one node and one running job, picked from
/// the workload seed once the job mix is placed.
pub struct Dashboard {
    m: StdMetrics,
    node: u32,
    job: JobRecord,
    admin: Consumer,
    owner: Consumer,
}

/// One answered (or refused) panel.
pub struct PanelResult {
    /// Wall time of the query, ms.
    pub ms: f64,
    /// The answer.
    pub response: Result<QueryResponse, QueryError>,
}

fn non_empty(r: &QueryResponse) -> bool {
    match r {
        QueryResponse::Points(p) => !p.is_empty(),
        QueryResponse::Grouped(g) => !g.is_empty(),
        QueryResponse::Ranked(r) => !r.is_empty(),
        QueryResponse::Joined(j) => !j.is_empty(),
        QueryResponse::Job(j) => !j.sum.is_empty(),
    }
}

impl PanelResult {
    /// Answered, and with data in the answer.
    pub fn ok(&self) -> bool {
        self.response.as_ref().is_ok_and(non_empty)
    }
}

impl Dashboard {
    /// Pin the board to a seeded node and a seeded running job.  `None`
    /// when no job is running (nothing to drill into).
    pub fn pick(mon: &MonitoringSystem, rng: &mut Rng) -> Option<Dashboard> {
        let running: Vec<&JobRecord> = mon
            .engine()
            .scheduler()
            .records()
            .iter()
            .filter(|j| j.state == JobState::Running && !j.nodes.is_empty())
            .collect();
        if running.is_empty() {
            return None;
        }
        let job = (*rng.pick(&running)).clone();
        let node = rng.below(mon.engine().num_nodes() as u64) as u32;
        Some(Dashboard {
            m: mon.metrics(),
            node,
            admin: Consumer::admin("ops-board"),
            owner: Consumer::user("job-portal", &job.user),
            job,
        })
    }

    /// The admin principal.
    pub fn admin(&self) -> &Consumer {
        &self.admin
    }

    /// The time range of the last `ticks` ticks ending at `now`.
    pub fn last_ticks(now: Ts, ticks: u64) -> TimeRange {
        TimeRange::new(now.sub_ms((ticks - 1) * MINUTE_MS), now)
    }

    /// The request behind panel `panel` at time `now`.
    pub fn request(&self, panel: usize, now: Ts) -> QueryRequest {
        let m = &self.m;
        let node = CompId::node(self.node);
        match PANELS[panel] {
            "agg_1h" | "agg_1h_repeat" => QueryRequest::AggregateAcross {
                metric: m.node_power,
                range: Dashboard::last_ticks(now, 60),
                agg: AggFn::Sum,
            },
            "agg_8h" => QueryRequest::AggregateAcross {
                metric: m.node_power,
                range: Dashboard::last_ticks(now, 480),
                agg: AggFn::Mean,
            },
            "topk" | "topk_repeat" => QueryRequest::TopComponentsAt {
                metric: m.node_cpu,
                at: now,
                tolerance_ms: MINUTE_MS / 2,
                limit: 20,
            },
            "cabinets" => QueryRequest::ComponentsOfKind {
                metric: m.cabinet_power,
                kind: CompKind::Cabinet,
                range: Dashboard::last_ticks(now, 60),
            },
            "node_drill" => QueryRequest::Series {
                key: SeriesKey::new(m.node_power, node),
                range: TimeRange::all(),
            },
            "sys_down" => QueryRequest::Downsample {
                key: SeriesKey::new(m.system_power, CompId::SYSTEM),
                range: TimeRange::all(),
                bucket_ms: 15 * MINUTE_MS,
                agg: AggFn::Mean,
            },
            "join" => QueryRequest::AlignJoin {
                a: SeriesKey::new(m.node_power, node),
                b: SeriesKey::new(m.node_cpu, node),
                range: TimeRange::all(),
            },
            "job" => QueryRequest::JobSeries { job_id: self.job.id.0, metric: m.node_power },
            other => unreachable!("unknown panel {other}"),
        }
    }

    /// One refresh through the gateway, in [`PANELS`] order: every panel as
    /// admin except `job`, which its owner asks for.
    pub fn refresh(&self, gw: &Gateway, now: Ts) -> Vec<PanelResult> {
        (0..PANELS.len())
            .map(|panel| {
                let who = if PANELS[panel] == "job" { &self.owner } else { &self.admin };
                let request = self.request(panel, now);
                let started = Instant::now();
                let response = gw.query(who, request);
                PanelResult { ms: started.elapsed().as_secs_f64() * 1e3, response }
            })
            .collect()
    }

    /// The eight distinct panels straight on the store's `QueryEngine`, no
    /// gateway: `(index into STORE_PANELS, ms)` each.  Results go through
    /// `black_box` so the work cannot be elided.
    pub fn refresh_direct(&self, store: &TimeSeriesStore, now: Ts) -> Vec<(usize, f64)> {
        let q = QueryEngine::new(store);
        let m = &self.m;
        let node = CompId::node(self.node);
        let power = SeriesKey::new(m.node_power, node);
        let mut out = Vec::with_capacity(STORE_PANELS.len());
        let mut timed = |i: usize, f: &mut dyn FnMut()| {
            let started = Instant::now();
            f();
            out.push((i, started.elapsed().as_secs_f64() * 1e3));
        };
        use std::hint::black_box as bb;
        timed(0, &mut || {
            bb(q.aggregate_across_components(
                m.node_power,
                Dashboard::last_ticks(now, 60),
                AggFn::Sum,
            ));
        });
        timed(1, &mut || {
            bb(q.aggregate_across_components(
                m.node_power,
                Dashboard::last_ticks(now, 480),
                AggFn::Mean,
            ));
        });
        timed(2, &mut || {
            bb(q.top_components_at(m.node_cpu, now, MINUTE_MS / 2, 20));
        });
        timed(3, &mut || {
            bb(q.components_of_kind(
                m.cabinet_power,
                CompKind::Cabinet,
                Dashboard::last_ticks(now, 60),
            ));
        });
        timed(4, &mut || {
            bb(q.series(power, TimeRange::all()));
        });
        timed(5, &mut || {
            let key = SeriesKey::new(m.system_power, CompId::SYSTEM);
            bb(q.downsample(key, TimeRange::all(), 15 * MINUTE_MS, AggFn::Mean).ok());
        });
        timed(6, &mut || {
            bb(q.align_join(power, SeriesKey::new(m.node_cpu, node), TimeRange::all()));
        });
        timed(7, &mut || {
            bb(q.job_series(&self.job, m.node_power));
        });
        out
    }

    /// Brute-force reference for `agg_1h`: sum `node_power` per timestamp
    /// over plain per-series `store.query` reads.
    pub fn agg_1h_reference(&self, store: &TimeSeriesStore, now: Ts) -> Vec<(Ts, f64)> {
        let range = Dashboard::last_ticks(now, 60);
        let mut sums: std::collections::BTreeMap<Ts, f64> = std::collections::BTreeMap::new();
        for key in store.series_of_metric(self.m.node_power) {
            for (t, v) in store.query(key, range.from, range.to) {
                *sums.entry(t).or_insert(0.0) += v;
            }
        }
        sums.into_iter().collect()
    }
}

/// Whether two point series agree to a relative 1e-9 (the reference sums in
/// a different association order than the engine may).
pub fn points_agree(a: &[(Ts, f64)], b: &[(Ts, f64)]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.0 == y.0 && (x.1 - y.1).abs() <= 1e-9 * x.1.abs().max(y.1.abs()).max(1.0)
        })
}
