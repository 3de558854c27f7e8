//! Replay hooks on the assembled system (DESIGN.md §11).
//!
//! Three capabilities turn a [`MonitoringSystem`] run into a replayable
//! artifact:
//!
//! * **Explicit tick inputs** — [`TickInputs`] names every external,
//!   non-deterministic input a tick can receive (job submissions, machine
//!   fault injections, gateway query/subscription arrivals).  A durable
//!   run journals each tick's value as the calls arrive; replay hands the
//!   journaled value to [`MonitoringSystem::apply_tick_inputs`].
//! * **Per-tick state hashing** — with
//!   [`MonitoringSystem::set_state_hashing`] enabled, every tick folds
//!   each subsystem's deterministic observables into a [`TickStateHash`].
//!   Replay verifies the hash chain tick by tick; the per-subsystem
//!   sub-hashes let a divergence report name *which* layer diverged first.
//!   With hashing off the pipeline is bit-identical to the unhashed build.
//! * **Snapshots** — [`MonitoringSystem::snapshot`] serializes the full
//!   deterministic state (machine, store tiers, chaos, supervisor,
//!   breaker spill, analysis state) so replay can seek to tick T without
//!   re-running from 0; [`MonitoringSystem::restore_snapshot`] loads it
//!   back in place, keeping every shared handle (gateway, self-collector)
//!   valid.
//!
//! Deliberately **outside** the hash and the snapshot: the log store, the
//! archive, traces, and telemetry timer values — all either derived from
//! hashed state or wall-clock-dependent observability that must be free to
//! differ between a recording and its replay (replay may force 1-in-1
//! trace sampling).  The chaos corruption predicate is computed over a
//! trace-stripped canonical encoding for the same reason (see
//! `MonitoringSystem::tick`).

use super::{MonitoringSystem, TickCtx};
use hpcmon_analysis::{CorrelatorSnapshot, Deadman, NoveltyDetector};
use hpcmon_chaos::{
    BreakerSnapshot, ChaosEngine, ChaosSnapshot, CollectorSupervisor, IngestBreaker,
    SupervisorSnapshot,
};
use hpcmon_gateway::{GatewaySnapshot, QueryRequest};
use hpcmon_health::HealthSnapshot;
use hpcmon_metrics::{ColumnFrame, FrameCoverage, MetricId, StateHash, Ts};
use hpcmon_response::{Consumer, ResponseSnapshot};
use hpcmon_sim::{FaultKind, JobSpec, SimEngine, SimSnapshot};
use hpcmon_store::StoreSnapshot;
use hpcmon_transport::Payload;
use serde::{Deserialize, Serialize, Value};

/// Every external input one tick can receive.  A tick driven from an
/// empty `TickInputs` is fully determined by the system's current state.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct TickInputs {
    /// Jobs submitted before this tick runs.
    pub jobs: Vec<JobSpec>,
    /// Machine fault injections scheduled before this tick runs.
    pub faults: Vec<(Ts, FaultKind)>,
    /// Standing-subscription registrations issued before this tick runs.
    /// One-shot queries are not inputs: they move no hashed state.
    pub gateway_ops: Vec<GatewayOp>,
    /// Lifetime `(good, bad)` totals of the `store.durability` health feed
    /// as fed this tick.  An input, not state: the failure counters behind
    /// it are disk-fault driven and cannot be recomputed on replay.  The
    /// pipeline fills it in itself when a durability plane and a health
    /// plane are both attached; replay feeds it back.  Absent from the
    /// serialized form when `None`, so journals of runs without that feed
    /// are byte-identical to those written before the field existed.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub durability_feed: Option<(u64, u64)>,
}

/// One recorded gateway arrival.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum GatewayOp {
    /// A standing-subscription registration.  Subscriptions *do* publish
    /// onto the broker every tick they deliver, which advances the broker
    /// sequence, so they must replay to keep corruption draws aligned.
    Subscribe {
        /// Who subscribed.
        consumer: Consumer,
        /// The re-evaluated request.
        request: QueryRequest,
        /// Topic updates are published on.
        topic: String,
    },
}

/// The per-tick state hash: one digest per subsystem plus the combined
/// chain value published as `hpcmon.self.replay.state_hash` and journaled
/// in every durable tick record.  On divergence, comparing sub-hashes names the
/// first subsystem whose state differs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TickStateHash {
    /// Tick number the hash was computed after.
    pub tick: u64,
    /// Simulated machine (nodes, scheduler, network, filesystem, RNGs).
    pub sim: u64,
    /// This tick's collection frame, excluding `hpcmon.self.*` samples
    /// (their values carry wall-clock timer readings).
    pub frame: u64,
    /// Time-series store counters (epoch, occupancy, op counts).
    pub store: u64,
    /// Pipeline plumbing: broker sequence, stall buffer, coverage
    /// bookkeeping, collector/bench RNGs, supervisor and breaker state.
    pub pipeline: u64,
    /// Analysis state: attached detectors, correlator, deadman, novelty,
    /// response engine.
    pub analysis: u64,
    /// Chaos engine schedule and counts (0 when chaos is off).
    pub chaos: u64,
    /// Gateway deterministic observables: scope-epoch version and standing
    /// subscription count (0 when no gateway is configured).
    pub gateway: u64,
    /// Fold of all of the above — the value the replay verifier compares.
    pub combined: u64,
}

/// Names for the sub-hash fields, in comparison order — divergence
/// reports use these to say which subsystem diverged first.
pub const SUBSYSTEMS: [&str; 8] =
    ["sim", "frame", "store", "pipeline", "analysis", "chaos", "gateway", "combined"];

impl TickStateHash {
    /// The first sub-hash (by [`SUBSYSTEMS`] order) where `self` and
    /// `other` differ, or `None` when the hashes match entirely.
    pub fn first_divergence(&self, other: &TickStateHash) -> Option<&'static str> {
        let (a, b) = (self.sub_hashes(), other.sub_hashes());
        a.iter().zip(b).position(|(x, y)| *x != y).map(|i| SUBSYSTEMS[i])
    }

    /// The sub-hashes in [`SUBSYSTEMS`] order.
    pub(crate) fn sub_hashes(&self) -> [u64; 8] {
        let h = self;
        [h.sim, h.frame, h.store, h.pipeline, h.analysis, h.chaos, h.gateway, h.combined]
    }
}

/// Serialized whole-system state at a tick boundary: everything the tick
/// loop reads that [`MonitoringSystem::restore_snapshot`] must put back
/// for the continuation to be bit-identical to an uninterrupted run.
///
/// Not included (derived or observability-only, see the module docs): the
/// log store, archive, trace store, telemetry timers, the gateway's
/// result cache and admission gates, and the accumulated `signals()` journal.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CoreSnapshot {
    tick: u64,
    sim: SimSnapshot,
    store: StoreSnapshot,
    chaos: Option<ChaosSnapshot>,
    supervisor: SupervisorSnapshot,
    breaker: BreakerSnapshot,
    // Spilled frames (raw and analysis results) in arrival order, wrapped
    // as `Payload::Columns`: the wire form checkpoints have always used.
    breaker_frames: Vec<Payload>,
    stalled: Vec<(String, Payload)>,
    response: ResponseSnapshot,
    correlator: CorrelatorSnapshot,
    novelty: NoveltyDetector,
    deadman: Deadman,
    detectors: Vec<Option<Value>>,
    ever_contributed: Vec<bool>,
    last_coverage: Option<FrameCoverage>,
    broker_seq: u64,
    bench_rng: u64,
    collector_rngs: Vec<Option<u64>>,
    gateway: Option<GatewaySnapshot>,
    // Serde default keeps snapshots taken before the health plane
    // loadable: absent field → health state restored as "off".
    #[serde(default)]
    health: Option<HealthSnapshot>,
}

impl CoreSnapshot {
    /// The tick count this snapshot was taken after.
    pub fn tick(&self) -> u64 {
        self.tick
    }
}

impl MonitoringSystem {
    /// Enable or disable per-tick state hashing.  Off (the default) costs
    /// one branch per tick and keeps the pipeline bit-identical to a build
    /// without state hashing.  On, each tick ends by computing a
    /// [`TickStateHash`] (readable via
    /// [`MonitoringSystem::last_state_hash`]) and publishing the combined
    /// value on the `replay.state_hash` gauge, which the self feed carries
    /// as `hpcmon.self.replay.state_hash`.
    ///
    /// Enable **before the first tick**: the gauge registers a metric, and
    /// metric ids must be allocated at the same point in a recording and
    /// its replay.
    pub fn set_state_hashing(&mut self, on: bool) {
        self.hashing = on;
        if on && self.replay_hash_gauge.is_none() {
            self.replay_hash_gauge = Some(self.telemetry.gauge("replay.state_hash"));
        }
    }

    /// The hash computed at the end of the most recent tick (`None` before
    /// the first hashed tick).
    pub fn last_state_hash(&self) -> Option<TickStateHash> {
        self.last_state_hash
    }

    /// Apply one tick's recorded external inputs: submit jobs, schedule
    /// machine faults, and re-register subscriptions.  Replay's half of the
    /// contract ([`MonitoringSystem::replay_tick`] calls it with inputs read
    /// from a journal); a live run takes the same inputs through
    /// `submit_job`, `schedule_fault` and `subscribe` as they arrive.
    pub fn apply_tick_inputs(&mut self, inputs: &TickInputs) {
        // Durable runs journal the inputs so crash recovery can replay
        // them.  The engine is driven directly below (not through
        // `submit_job`/`schedule_fault`), so this is the only capture —
        // recovery's own replay arrives here with no plane attached and
        // records nothing.
        if self.durability.is_some() {
            self.pending_inputs.jobs.extend(inputs.jobs.iter().cloned());
            self.pending_inputs.faults.extend(inputs.faults.iter().cloned());
            self.pending_inputs.gateway_ops.extend(inputs.gateway_ops.iter().cloned());
        }
        // Journaled durability evidence waits here for this tick's health
        // stage (a live plane overwrites it with its own counters).
        self.pending_inputs.durability_feed = inputs.durability_feed;
        for spec in &inputs.jobs {
            self.engine.submit_job(spec.clone());
        }
        for (at, kind) in &inputs.faults {
            self.engine.schedule_fault(*at, *kind);
        }
        for GatewayOp::Subscribe { consumer, request, topic } in &inputs.gateway_ops {
            let Some(gw) = &self.gateway else { continue };
            let _ = gw.subscribe(consumer, request.clone(), topic);
        }
    }

    /// Capture the full deterministic state at the current tick boundary.
    /// Call between ticks only (mid-tick state is not observable anyway).
    pub fn snapshot(&self) -> CoreSnapshot {
        CoreSnapshot {
            tick: self.engine.tick_count(),
            sim: self.engine.snapshot(),
            store: self.store.snapshot(),
            chaos: self.chaos.as_ref().map(|c| c.snapshot()),
            supervisor: self.supervisor.snapshot(),
            breaker: self.breaker.control_snapshot(),
            // Spilled frames are checkpointed without their trace
            // contexts: traces are observability, not state, and replay
            // re-stamps its own.
            breaker_frames: (self.breaker.spill_items())
                .map(|(frame, _)| Payload::Columns(frame.clone()))
                .collect(),
            stalled: self.stall_buffer.iter().map(|(t, p, _)| (t.clone(), p.clone())).collect(),
            response: self.response.snapshot(),
            correlator: self.correlator.snapshot(),
            novelty: self.novelty.clone(),
            deadman: self.deadman.clone(),
            detectors: self.detectors.iter().map(|a| a.detector.snapshot_state()).collect(),
            ever_contributed: self.ever_contributed.clone(),
            last_coverage: self.last_coverage,
            broker_seq: self.broker.seq(),
            bench_rng: self.bench_suite.rng_state(),
            collector_rngs: self.collectors.iter().map(|c| c.rng_state()).collect(),
            gateway: self.gateway.as_ref().map(|gw| gw.snapshot_replay_state()),
            health: self.health.as_ref().map(|h| h.snapshot()),
        }
    }

    /// Load a snapshot back into this system, in place.  The system must
    /// have been built from the same configuration that produced the
    /// snapshot (same collectors and detectors; collector, detector and
    /// store shard counts, and the seal threshold, are asserted).
    ///
    /// The accumulated `signals()` journal is cleared: after a seek it
    /// would describe ticks this instance never ran.
    pub fn restore_snapshot(&mut self, snap: CoreSnapshot) {
        assert_eq!(
            snap.collector_rngs.len(),
            self.collectors.len(),
            "snapshot collector count mismatch: was the system built with the same config?"
        );
        assert_eq!(
            snap.detectors.len(),
            self.detectors.len(),
            "snapshot detector count mismatch: was the system built with the same config?"
        );
        self.engine = SimEngine::restore(snap.sim);
        self.store.load_snapshot(snap.store);
        self.chaos = snap.chaos.map(ChaosEngine::restore);
        self.supervisor = CollectorSupervisor::restore(snap.supervisor);
        self.breaker = IngestBreaker::restore(
            snap.breaker,
            (snap.breaker_frames.iter())
                .filter_map(|p| p.as_columns().map(|frame| (frame.clone(), None)))
                .collect(),
        );
        self.stall_buffer = snap.stalled.into_iter().map(|(t, p)| (t, p, None)).collect();
        self.response.restore(snap.response);
        self.correlator.restore(snap.correlator);
        self.novelty = snap.novelty;
        self.deadman = snap.deadman;
        for (att, state) in self.detectors.iter_mut().zip(&snap.detectors) {
            if let Some(v) = state {
                att.detector.restore_state(v);
            }
        }
        self.ever_contributed = snap.ever_contributed;
        self.last_coverage = snap.last_coverage;
        self.broker.set_seq(snap.broker_seq);
        self.bench_suite.set_rng_state(snap.bench_rng);
        for (c, rng) in self.collectors.iter_mut().zip(&snap.collector_rngs) {
            if let Some(state) = rng {
                c.set_rng_state(*state);
            }
        }
        if let (Some(gw), Some(state)) = (&self.gateway, snap.gateway) {
            gw.restore_replay_state(state);
        }
        if let (Some(h), Some(state)) = (self.health.as_mut(), &snap.health) {
            h.restore(state);
        }
        // Broker counters are live infrastructure, not snapshotted state:
        // re-baseline so the health plane's first post-restore delta is
        // measured against this broker, not the recording run's totals.
        let bstats = self.broker.stats();
        self.health_broker_baseline = (bstats.delivered, bstats.dropped + bstats.decode_errors);
        // Anything queued from pre-restore ticks would double-deliver.
        let _ = self.store_sub.drain();
        self.signals.clear();
        self.last_state_hash = None;
        // Inputs captured for the WAL describe ticks this instance will
        // never journal (the snapshot predates them).
        self.pending_inputs = TickInputs::default();
    }

    /// Tick stage `hash`: with hashing on, fold every subsystem's
    /// deterministic state into this tick's hash.
    pub(super) fn finish_tick_hash(&mut self, _: &mut TickCtx<'_>) {
        if !self.hashing {
            return;
        }
        let frame = self.last_frame.clone().expect("transport publishes the frame");
        let hash = self.compute_state_hash(&frame);
        if let Some(g) = &self.replay_hash_gauge {
            // Lossy (f64) for the self feed; the WAL tick record keeps the
            // exact u64.  Identical in record and replay either way.
            g.set(hash.combined as f64);
        }
        self.last_state_hash = Some(hash);
    }

    fn compute_state_hash(&mut self, frame: &ColumnFrame) -> TickStateHash {
        let tick = self.engine.tick_count();
        let sim = self.engine.state_digest();
        let store = self.store.state_digest();

        self.refresh_self_metric_flags();
        let flags = &self.self_metric_flags;
        let mut fh = StateHash::new(0xF7);
        fh.u64(frame.ts.0);
        let mut hashed = 0usize;
        for (key, &value) in frame.keys.iter().zip(&frame.values) {
            if flags.get(key.metric.0 as usize).copied().unwrap_or(false) {
                continue;
            }
            hashed += 1;
            // Series key packed into one word (metric ids are dense and
            // small, component kinds are a u8, indices fit 32 bits) —
            // this loop runs over ~10^5 samples per tick on large
            // machines, so fewer absorbs is measurable.  Walking the
            // columns directly keeps it branch-light and cache-friendly.
            let packed = ((key.metric.0 as u64) << 40)
                | ((key.comp.kind as u64) << 32)
                | key.comp.index as u64;
            // Every sample's stamp is the frame's; it is still folded per
            // sample, so the chain reads the same words as it always has.
            fh.u64(packed).u64(frame.ts.0).f64(value);
        }
        fh.usize(hashed);
        let frame_h = fh.finish();

        // This tick's `collect` stamped the bitmap.
        let cov = self.last_coverage.unwrap_or_default();
        let mut ph = StateHash::new(0x7E);
        ph.u64(self.broker.seq())
            .usize(self.stall_buffer.len())
            .bools(&self.ever_contributed)
            .u64(cov.expected)
            .u64(cov.reported)
            .u64(self.bench_suite.rng_state())
            .u64(self.supervisor.state_digest())
            .u64(self.breaker.state_digest())
            .u64(self.health.as_ref().map_or(0, |h| h.state_digest()));
        for c in &self.collectors {
            ph.u64(c.rng_state().unwrap_or(u64::MAX));
        }
        let pipeline = ph.finish();

        let mut ah = StateHash::new(0xA0);
        ah.u64(self.correlator.state_digest())
            .u64(self.deadman.state_digest())
            .u64(self.novelty.state_digest())
            .u64(self.response.state_digest());
        for att in &self.detectors {
            ah.u64(att.detector.state_digest());
        }
        let analysis = ah.finish();

        let chaos = self.chaos.as_ref().map_or(0, |c| c.state_digest());
        let gateway = self.gateway.as_ref().map_or(0, |gw| {
            let (jobs_version, subs) = gw.replay_digest_inputs();
            StateHash::new(0x6A).u64(jobs_version).u64(subs).finish()
        });

        let combined = StateHash::new(0xFC)
            .u64(tick)
            .u64(sim)
            .u64(frame_h)
            .u64(store)
            .u64(pipeline)
            .u64(analysis)
            .u64(chaos)
            .u64(gateway)
            .finish();
        TickStateHash {
            tick,
            sim,
            frame: frame_h,
            store,
            pipeline,
            analysis,
            chaos,
            gateway,
            combined,
        }
    }

    /// Extend the positional `hpcmon.self.*` flag cache to cover every
    /// registered metric (the registry is append-only, so previously
    /// computed answers never change).  Called once per hashed tick so
    /// the per-sample check in the frame loop is a plain slice index —
    /// that loop runs over ~10^5 samples on large machines.
    fn refresh_self_metric_flags(&mut self) {
        for i in self.self_metric_flags.len()..self.registry.len() {
            let name = self.registry.name(MetricId(i as u32));
            self.self_metric_flags.push(name.starts_with("hpcmon.self."));
        }
    }
}
