//! The simulation engine: advances all subsystems one tick at a time and
//! exposes the observation API the collectors sample.
//!
//! A deliberate design point: faults mostly do **not** announce themselves
//! in the log stream.  A hung node is silent (KAUST finds it via power), a
//! degraded OST is silent (NCSA finds it via probes), corrosive gas is
//! silent (ORNL finds it via environment sensors).  What *does* log is what
//! a real machine logs: heartbeat losses, link LCB failures, CRC retries,
//! service exits, scheduler events.  Ground truth for experiments is kept
//! separately in [`SimEngine::truth_log`].

use crate::burst_buffer::BurstBuffer;
use crate::clock::DriftClock;
use crate::config::SimConfig;
use crate::env::EnvState;
use crate::failure::{FailureRates, Fault, FaultKind, FaultPlan};
use crate::fs::FsState;
use crate::network::NetworkState;
use crate::node::{GpuState, NodeHealth, NodeState, SERVICES};
use crate::power::PowerModel;
use crate::rng::Rng;
use crate::routing::{self, RoutePolicy};
use crate::sched::{RunningJob, SchedEvent, Scheduler};
use crate::topology::Topology;
use crate::workload::{CommPattern, JobSpec};
use hpcmon_metrics::{CompId, JobId, LogRecord, Severity, StateHash, Ts};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Stable template ids for machine-generated log lines, used by the log
/// analysis to recognize "well-known log lines" (paper §III-B).
pub mod templates {
    /// Heartbeat lost to a node (console).
    pub const NODE_HEARTBEAT_LOST: u32 = 1;
    /// Node returned to service (console).
    pub const NODE_BOOTED: u32 = 2;
    /// HSN link control block failed (hwerr).
    pub const LINK_FAILED: u32 = 3;
    /// HSN link recovered (hwerr).
    pub const LINK_RECOVERED: u32 = 4;
    /// CRC retries on a link this interval (hwerr).
    pub const LINK_CRC_RETRY: u32 = 5;
    /// Service exited on a node.
    pub const SERVICE_EXITED: u32 = 6;
    /// Lustre mount lost on a node.
    pub const FS_MOUNT_LOST: u32 = 7;
    /// GPU fell off the bus (hwerr).
    pub const GPU_XID_ERROR: u32 = 8;
    /// Job started (scheduler).
    pub const JOB_START: u32 = 9;
    /// Job completed (scheduler).
    pub const JOB_END: u32 = 10;
    /// Job failed (scheduler).
    pub const JOB_FAILED: u32 = 11;
    /// Node sidelined by health check (scheduler).
    pub const NODE_SIDELINED: u32 = 12;
    /// Out-of-memory killer fired on a node.
    pub const OOM_KILL: u32 = 13;
    /// Routine housekeeping chatter.
    pub const ROUTINE: u32 = 14;
}

/// Per-job accounting of one tick's demands, for efficiency computation.
struct JobTickDemand {
    job_index: usize,
    flow_range: std::ops::Range<usize>,
    net_demand: f64,
    io_want: f64,
    io_got: f64,
    any_hung: bool,
}

/// A running job's flows, routed.  Under [`RoutePolicy::Minimal`] they are
/// a pure function of the topology, the job's id, node list and comm
/// pattern, so derived once (on the first tick the job is stepped) instead
/// of every tick.  Rank `r` owns flows `rank_flows[r]..rank_flows[r + 1]`;
/// flow `f` is routed over `links[flow_links[f]..flow_links[f + 1]]`.
struct JobRoutes {
    rank_flows: Vec<u32>,
    flow_links: Vec<u32>,
    links: Vec<u32>,
}

impl JobRoutes {
    fn derive(
        topo: &Topology,
        job: &RunningJob,
        policy: RoutePolicy,
        loads: &[f64],
        threshold: f64,
        partners: &mut Vec<u32>,
    ) -> JobRoutes {
        let mut r = JobRoutes { rank_flows: vec![0], flow_links: vec![0], links: Vec::new() };
        for (rank, &src) in job.nodes.iter().enumerate() {
            comm_partners(job.spec.app.comm, job.id, &job.nodes, rank, partners);
            for &dst in partners.iter() {
                let (from, to) = (topo.router_of(src), topo.router_of(dst));
                r.links
                    .extend(routing::route_with_policy(topo, from, to, policy, loads, threshold));
                r.flow_links.push(r.links.len() as u32);
            }
            r.rank_flows.push(r.flow_links.len() as u32 - 1);
        }
        r
    }

    /// The paths of `rank`'s flows, in partner order.
    fn paths_of(&self, rank: usize) -> impl ExactSizeIterator<Item = &[u32]> + '_ {
        (self.rank_flows[rank] as usize..self.rank_flows[rank + 1] as usize)
            .map(|f| &self.links[self.flow_links[f] as usize..self.flow_links[f + 1] as usize])
    }
}

/// The nodes `rank` of job `id` sends to, into `out`.
fn comm_partners(comm: CommPattern, id: JobId, nodes: &[u32], rank: usize, out: &mut Vec<u32>) {
    let n_ranks = nodes.len();
    out.clear();
    match comm {
        CommPattern::None => {}
        CommPattern::Ring => out.push(nodes[(rank + 1) % n_ranks]),
        CommPattern::Random(k) => out.extend(
            (0..k as usize)
                .map(|i| {
                    // Deterministic pseudo-random partners so the
                    // profile is repeatable run to run.
                    let h = (id.0 as u64)
                        .wrapping_mul(0x9E37)
                        .wrapping_add(rank as u64 * 131 + i as u64 * 7919);
                    nodes[(h % n_ranks as u64) as usize]
                })
                .filter(|&p| p != nodes[rank]),
        ),
    }
}

/// What `apply_workload` derives and reuses: rebuilt on demand, so never in
/// a [`SimSnapshot`] and never in [`SimEngine::state_digest`].
#[derive(Default)]
struct WorkloadScratch {
    job_routes: HashMap<JobId, JobRoutes>,
    partners: Vec<u32>,
    loads: Vec<f64>,
}

/// Complete serializable state of the simulator at a tick boundary, for
/// flight-recorder checkpoints.  The topology is rebuilt from the config on
/// restore (it is immutable after construction), everything else — RNG
/// stream positions included — round-trips bit-exactly.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SimSnapshot {
    config: SimConfig,
    now: Ts,
    tick_count: u64,
    clock: DriftClock,
    nodes: Vec<NodeState>,
    gpus: Vec<GpuState>,
    gpu_util: Vec<f64>,
    power_w: Vec<f64>,
    net: NetworkState,
    link_error_mult: Vec<f64>,
    fs: FsState,
    env: EnvState,
    sched: Scheduler,
    faults: FaultPlan,
    logs: Vec<LogRecord>,
    truth: Vec<Fault>,
    rng_fail: Rng,
    rng_power: Rng,
    rng_work: Rng,
    rng_sched: Rng,
    rng_env: Rng,
    rng_log: Rng,
    ashrae_flagged: bool,
    pstate_scale: f64,
    bb: Option<BurstBuffer>,
}

/// The simulator.
pub struct SimEngine {
    config: SimConfig,
    topo: Topology,
    now: Ts,
    tick_count: u64,
    clock: DriftClock,
    nodes: Vec<NodeState>,
    gpus: Vec<GpuState>,
    gpu_util: Vec<f64>,
    power_w: Vec<f64>,
    net: NetworkState,
    link_error_mult: Vec<f64>,
    fs: FsState,
    env: EnvState,
    sched: Scheduler,
    faults: FaultPlan,
    logs: Vec<LogRecord>,
    truth: Vec<Fault>,
    rng_fail: Rng,
    rng_power: Rng,
    rng_work: Rng,
    rng_sched: Rng,
    rng_env: Rng,
    rng_log: Rng,
    ashrae_flagged: bool,
    pstate_scale: f64,
    bb: Option<BurstBuffer>,
    scratch: WorkloadScratch,
}

impl SimEngine {
    /// Build a fresh machine.  Panics on an invalid configuration.
    pub fn new(config: SimConfig) -> SimEngine {
        config.validate().expect("invalid SimConfig");
        let topo = Topology::build(config.topology);
        let n = topo.num_nodes() as usize;
        let mut master = Rng::new(config.seed);
        let mut rng_clock = master.fork(1);
        let clock = if config.clock.synchronized {
            DriftClock::synchronized(n)
        } else {
            DriftClock::drifting(
                n,
                config.clock.max_offset_ms,
                config.clock.max_rate_ppm,
                &mut rng_clock,
            )
        };
        let gpus_total = n * config.gpus_per_node as usize;
        let nodes = (0..n)
            .map(|i| {
                let g0 = i as u32 * config.gpus_per_node;
                NodeState::new(config.node_mem_bytes, (g0..g0 + config.gpus_per_node).collect())
            })
            .collect();
        let net = NetworkState::new(&topo, config.link_capacity_bytes_per_sec);
        let links = topo.num_links() as usize;
        let bb = config.burst_buffer.map(BurstBuffer::new);
        SimEngine {
            fs: FsState::new(config.fs),
            env: EnvState::new(),
            sched: Scheduler::new(config.scheduler, topo.num_nodes()),
            faults: FaultPlan::new(),
            logs: Vec::new(),
            truth: Vec::new(),
            rng_fail: master.fork(2),
            rng_power: master.fork(3),
            rng_work: master.fork(4),
            rng_sched: master.fork(5),
            rng_env: master.fork(6),
            rng_log: master.fork(7),
            clock,
            nodes,
            gpus: vec![GpuState::new(); gpus_total],
            gpu_util: vec![0.0; n],
            power_w: vec![0.0; n],
            net,
            link_error_mult: vec![1.0; links],
            topo,
            now: Ts::ZERO,
            tick_count: 0,
            config,
            ashrae_flagged: false,
            pstate_scale: 1.0,
            bb,
            scratch: WorkloadScratch::default(),
        }
    }

    /// Set the machine-wide CPU frequency scale (p-state) in `[0.1, 1.0]`.
    /// Compute progress slows linearly; dynamic CPU power drops ~f³ — the
    /// knobs SNL sweeps "with the goal of improving application and system
    /// energy efficiency while maintaining performance targets".
    pub fn set_pstate(&mut self, scale: f64) {
        self.pstate_scale = scale.clamp(0.1, 1.0);
    }

    /// Current p-state frequency scale.
    pub fn pstate(&self) -> f64 {
        self.pstate_scale
    }

    // ----- control -----

    /// Re-base the simulated clock epoch before the first tick.  A
    /// federation uses this to model per-site clock skew: every sample a
    /// skewed site emits carries `epoch + tick·tick_ms` timestamps, and the
    /// merge layer must subtract the offset rather than interleave raw
    /// site-local times.
    ///
    /// # Panics
    /// If any tick has already run — skew is a property of the site, not
    /// something that jumps mid-flight.
    pub fn set_epoch(&mut self, epoch: Ts) {
        assert_eq!(self.tick_count, 0, "set_epoch must precede the first step()");
        self.now = epoch;
    }

    /// Submit a job to the batch queue.
    pub fn submit_job(&mut self, spec: JobSpec) -> JobId {
        self.sched.submit(spec)
    }

    /// Schedule a fault for injection.
    pub fn schedule_fault(&mut self, at: Ts, kind: FaultKind) {
        self.faults.schedule(at, kind);
    }

    /// Advance one tick.
    pub fn step(&mut self) {
        self.tick_count += 1;
        self.now = self.now.add_ms(self.config.tick_ms);
        let now = self.now;
        let dt = self.config.tick_ms;

        for fault in self.faults.pop_due(now) {
            self.apply_fault(fault.kind);
        }
        self.stochastic_failures(dt);

        self.env.step(now, dt, &mut self.rng_env);
        self.flag_ashrae();
        self.age_gpus(dt);

        for i in 0..self.nodes.len() {
            let was_ok = self.nodes[i].mem_util() < 0.97;
            self.nodes[i].apply_leak();
            if was_ok && self.nodes[i].mem_util() >= 0.97 {
                self.log_node(
                    i as u32,
                    Severity::Error,
                    "console",
                    "Out of memory: kill process 4242 (daemon)",
                    templates::OOM_KILL,
                );
            }
        }

        self.complete_finished_jobs(now);
        self.start_queued_jobs(now);
        self.apply_workload(now, dt);
        self.roll_link_errors(dt);
        self.compute_power();
        self.emit_routine_logs();
    }

    /// Step until `deadline` (inclusive of the tick that reaches it).
    pub fn run_until(&mut self, deadline: Ts) {
        while self.now < deadline {
            self.step();
        }
    }

    // ----- per-tick stages -----

    fn apply_fault(&mut self, kind: FaultKind) {
        self.truth.push(Fault { at: self.now, kind });
        match kind {
            FaultKind::NodeCrash { node } => {
                self.nodes[node as usize].crash();
                let events = self.sched.node_failed(node, self.now);
                self.log_sched_events(&events);
                self.release_failed_job_nodes(&events);
                self.log_node(
                    node,
                    Severity::Critical,
                    "console",
                    "node heartbeat fault: no response",
                    templates::NODE_HEARTBEAT_LOST,
                );
            }
            FaultKind::NodeHang { node } => {
                // Silent: hangs produce no log line.  Power shows it.
                self.nodes[node as usize].health = NodeHealth::Hung;
            }
            FaultKind::NodeRecover { node } => {
                self.nodes[node as usize].recover();
                self.sched.return_to_service(node);
                self.log_node(
                    node,
                    Severity::Notice,
                    "console",
                    "node boot complete",
                    templates::NODE_BOOTED,
                );
            }
            FaultKind::LinkDown { link } => {
                self.net.set_link_up(link, false);
                let l = self.topo.link(link);
                self.logs.push(
                    LogRecord::new(
                        self.now,
                        CompId::link(link),
                        Severity::Error,
                        "hwerr",
                        format!("LCB failure on link r{}->r{}", l.from, l.to),
                    )
                    .with_template(templates::LINK_FAILED),
                );
            }
            FaultKind::LinkUp { link } => {
                self.net.set_link_up(link, true);
                self.logs.push(
                    LogRecord::new(
                        self.now,
                        CompId::link(link),
                        Severity::Notice,
                        "hwerr",
                        "link recovered, lanes up",
                    )
                    .with_template(templates::LINK_RECOVERED),
                );
            }
            FaultKind::LinkDegrade { link, error_multiplier } => {
                self.link_error_mult[link as usize] = error_multiplier.max(0.0);
            }
            FaultKind::OstDegrade { ost, factor } => self.fs.set_ost_degradation(ost, factor),
            FaultKind::OstRestore { ost } => self.fs.set_ost_degradation(ost, 1.0),
            FaultKind::MdsDegrade { factor } => self.fs.set_mds_degradation(factor),
            FaultKind::MdsRestore => self.fs.set_mds_degradation(1.0),
            FaultKind::GpuFail { gpu } => {
                self.gpus[gpu as usize].healthy = false;
                let node = gpu / self.config.gpus_per_node.max(1);
                self.log_node(
                    node,
                    Severity::Error,
                    "hwerr",
                    "NVRM Xid 79: GPU has fallen off the bus",
                    templates::GPU_XID_ERROR,
                );
            }
            FaultKind::ServiceDown { node, service } => {
                let s = service as usize % SERVICES.len();
                self.nodes[node as usize].services_ok[s] = false;
                self.log_node(
                    node,
                    Severity::Warning,
                    "console",
                    &format!("systemd: {}.service main process exited", SERVICES[s]),
                    templates::SERVICE_EXITED,
                );
            }
            FaultKind::ServiceRestore { node, service } => {
                let s = service as usize % SERVICES.len();
                self.nodes[node as usize].services_ok[s] = true;
            }
            FaultKind::MemoryLeak { node, bytes_per_tick } => {
                self.nodes[node as usize].mem_leak_bytes_per_tick = bytes_per_tick.max(0.0);
            }
            FaultKind::GasSpike { added_ppb, duration_ms } => {
                self.env.inject_gas_spike(self.now, added_ppb, duration_ms);
            }
            FaultKind::BbMisconfigure { bb } => {
                if let Some(buffer) = &mut self.bb {
                    buffer.set_configured(bb, false);
                }
            }
            FaultKind::BbRepair { bb } => {
                if let Some(buffer) = &mut self.bb {
                    buffer.set_configured(bb, true);
                }
            }
            FaultKind::FsUnmount { node } => {
                self.nodes[node as usize].fs_mounted = false;
                self.log_node(
                    node,
                    Severity::Error,
                    "console",
                    "Lustre: scratch-MDT0000 connection lost",
                    templates::FS_MOUNT_LOST,
                );
            }
        }
    }

    fn stochastic_failures(&mut self, dt: u64) {
        let rates = self.config.failure_rates;
        if rates.node_crash_per_hour > 0.0 || rates.node_hang_per_hour > 0.0 {
            let p_crash = FailureRates::per_tick_probability(rates.node_crash_per_hour, dt);
            let p_hang = FailureRates::per_tick_probability(rates.node_hang_per_hour, dt);
            for n in 0..self.nodes.len() as u32 {
                if self.nodes[n as usize].health != NodeHealth::Up {
                    continue;
                }
                if self.rng_fail.chance(p_crash) {
                    self.apply_fault(FaultKind::NodeCrash { node: n });
                } else if self.rng_fail.chance(p_hang) {
                    self.apply_fault(FaultKind::NodeHang { node: n });
                }
            }
        }
        if rates.service_down_per_hour > 0.0 {
            let p = FailureRates::per_tick_probability(rates.service_down_per_hour, dt);
            for n in 0..self.nodes.len() as u32 {
                if self.nodes[n as usize].health == NodeHealth::Up && self.rng_fail.chance(p) {
                    let svc = self.rng_fail.below(SERVICES.len() as u64) as u8;
                    self.apply_fault(FaultKind::ServiceDown { node: n, service: svc });
                }
            }
        }
        if rates.link_down_per_hour > 0.0 {
            let p = FailureRates::per_tick_probability(rates.link_down_per_hour, dt);
            for l in 0..self.net.num_links() as u32 {
                if self.net.link_is_up(l) && self.rng_fail.chance(p) {
                    self.apply_fault(FaultKind::LinkDown { link: l });
                }
            }
        }
    }

    /// GPU resistors age while gas exceeds the ASHRAE limit; sufficiently
    /// drifted parts start failing stochastically (the Titan mechanism).
    fn age_gpus(&mut self, dt: u64) {
        let exceed = (self.env.so2_ppb - crate::env::ASHRAE_SO2_G1_LIMIT_PPB).max(0.0);
        if exceed > 0.0 {
            let drift = exceed * dt as f64 / 1_000.0 * self.config.gpu_corrosion_pct_per_ppb_s;
            for g in &mut self.gpus {
                if g.healthy {
                    g.resistance_drift_pct += drift;
                }
            }
        }
        for gi in 0..self.gpus.len() {
            let p = self.gpus[gi].failure_probability();
            if p > 0.0 && self.rng_fail.chance(p) {
                self.apply_fault(FaultKind::GpuFail { gpu: gi as u32 });
            }
        }
    }

    fn flag_ashrae(&mut self) {
        let exceeding = self.env.exceeds_ashrae_gas_limit();
        if exceeding != self.ashrae_flagged {
            self.ashrae_flagged = exceeding;
        }
    }

    fn node_healthy_with_gpus(nodes: &[NodeState], gpus: &[GpuState], n: u32) -> bool {
        let node = &nodes[n as usize];
        node.passes_health_check() && node.gpus.iter().all(|&g| gpus[g as usize].healthy)
    }

    fn complete_finished_jobs(&mut self, now: Ts) {
        let finished: Vec<JobId> = self
            .sched
            .running()
            .iter()
            .filter(|r| r.progress_ms >= r.spec.work_ms as f64)
            .map(|r| r.id)
            .collect();
        for id in finished {
            let events = {
                let nodes = &self.nodes;
                let gpus = &self.gpus;
                self.sched.complete(id, now, &|n| Self::node_healthy_with_gpus(nodes, gpus, n))
            };
            // Release node state for the vacated allocation.
            let alloc = self.sched.record(id).nodes.clone();
            for n in alloc {
                if self.nodes[n as usize].health == NodeHealth::Up {
                    self.nodes[n as usize].release();
                }
                self.gpu_util[n as usize] = 0.0;
            }
            self.log_sched_events(&events);
        }
    }

    fn start_queued_jobs(&mut self, now: Ts) {
        let events = {
            let nodes = &self.nodes;
            let gpus = &self.gpus;
            let rng = &mut self.rng_sched;
            let mut shuffle = |v: &mut Vec<u32>| rng.shuffle(v);
            self.sched.try_start(
                now,
                &|n| Self::node_healthy_with_gpus(nodes, gpus, n),
                &mut shuffle,
            )
        };
        for e in &events {
            if let SchedEvent::Started { job, nodes } = e {
                for &n in nodes {
                    self.nodes[n as usize].running_job = Some(job.0);
                }
            }
        }
        self.log_sched_events(&events);
        // Without gating, a job launched onto a sick node dies on startup
        // (dead slurmd/munge, lost mount, broken GPU) — and the node stays
        // in the pool to kill the next one.  This is the failure mode the
        // CSCS pre-job assessment exists to prevent.
        if !self.sched.config().health_gating {
            let started: Vec<(JobId, Vec<u32>)> = events
                .iter()
                .filter_map(|e| match e {
                    SchedEvent::Started { job, nodes } => Some((*job, nodes.clone())),
                    _ => None,
                })
                .collect();
            for (job, nodes) in started {
                let bad = nodes
                    .iter()
                    .copied()
                    .find(|&n| !Self::node_healthy_with_gpus(&self.nodes, &self.gpus, n));
                if let Some(bad_node) = bad {
                    let fail_events = self.sched.launch_failed(job, bad_node, now);
                    for &n in &nodes {
                        if self.nodes[n as usize].health == NodeHealth::Up {
                            self.nodes[n as usize].release();
                        }
                        self.gpu_util[n as usize] = 0.0;
                    }
                    self.log_sched_events(&fail_events);
                }
            }
        }
    }

    fn apply_workload(&mut self, now: Ts, dt: u64) {
        self.net.begin_tick();
        self.fs.begin_tick();
        // Burst-buffer background drain competes with live I/O for the
        // filesystem, which is what makes drain backlog worth watching.
        if let Some(bb) = &mut self.bb {
            bb.begin_tick();
            let demands = bb.drain_demand(dt);
            for (i, want) in demands.into_iter().enumerate() {
                if want <= 0.0 {
                    continue;
                }
                let (_, accepted) = self.fs.offer_io(1_000_000 + i as u32, 0.0, want, 0.0, dt);
                bb.complete_drain(i as u32, accepted);
            }
        }
        let policy = self.config.route_policy;
        let threshold = self.config.congestion_threshold;
        let dt_s = dt as f64 / 1_000.0;
        let SimEngine { sched, nodes, gpu_util, net, fs, bb, rng_work, topo, scratch, .. } = self;
        let WorkloadScratch { job_routes, partners, loads } = scratch;

        let mut demands: Vec<JobTickDemand> = Vec::with_capacity(sched.running().len());
        let mut flow_cursor = 0usize;

        for (ji, r) in sched.running().iter().enumerate() {
            let (id, app, elapsed_ms) = (r.id, &r.spec.app, r.elapsed_ms(now));
            let phase = *app.phase_at(r.progress_ms as u64);
            let n_ranks = r.nodes.len();
            let mut any_hung = false;
            let mut net_demand_total = 0.0;
            let flow_start = flow_cursor;
            let mut active_ranks = 0usize;

            // Adaptive paths depend on load, so they are chosen afresh every
            // tick, against a load snapshot refreshed per job (a reasonable
            // fidelity/cost point for a fluid model); minimal ones are kept.
            if policy == RoutePolicy::Adaptive {
                net.load_fractions_into(dt, loads);
                job_routes.remove(&id);
            }
            let routes = &*job_routes
                .entry(id)
                .or_insert_with(|| JobRoutes::derive(topo, r, policy, loads, threshold, partners));

            for (rank, &node_id) in r.nodes.iter().enumerate() {
                let idles = app.rank_idles(rank, n_ranks, elapsed_ms);
                match nodes[node_id as usize].health {
                    NodeHealth::Hung => {
                        any_hung = true;
                        continue;
                    }
                    NodeHealth::Down => continue,
                    NodeHealth::Up => {}
                }
                let node = &mut nodes[node_id as usize];
                if idles {
                    node.cpu_util = 0.02;
                    node.set_job_memory(phase.mem_fraction);
                    gpu_util[node_id as usize] = 0.0;
                    continue;
                }
                active_ranks += 1;
                node.cpu_util = app.jitter(phase.cpu, rng_work).min(1.0);
                node.set_job_memory(phase.mem_fraction);
                gpu_util[node_id as usize] = app.jitter(phase.gpu, rng_work).min(1.0);

                // Network flows: the rank's bytes, split evenly over its
                // partners.
                if phase.net_bytes_per_sec > 0.0 && n_ranks > 1 {
                    let bytes = app.jitter(phase.net_bytes_per_sec * dt_s, rng_work);
                    let paths = routes.paths_of(rank);
                    let per_partner = bytes / paths.len() as f64;
                    flow_cursor += paths.len();
                    for path in paths {
                        net.offer_flow_links(node_id, path, per_partner);
                        net_demand_total += per_partner;
                    }
                }
            }

            // Filesystem I/O for the job as a whole.
            let (mut io_want, mut io_got) = (0.0, 0.0);
            if active_ranks > 0 {
                let want_r =
                    app.jitter(phase.read_bytes_per_sec * dt_s * active_ranks as f64, rng_work);
                let want_w =
                    app.jitter(phase.write_bytes_per_sec * dt_s * active_ranks as f64, rng_work);
                let meta = phase.metadata_ops_per_sec * dt_s * active_ranks as f64;
                if want_r > 0.0 || want_w > 0.0 || meta > 0.0 {
                    // Checkpoint writes hit the burst buffer first; spill
                    // (and everything on bb-less machines) goes to the PFS.
                    let absorbed = match bb {
                        Some(bb) => bb.absorb(want_w, dt),
                        None => 0.0,
                    };
                    let (got_r, got_w) = fs.offer_io(id.0, want_r, want_w - absorbed, meta, dt);
                    io_want = want_r + want_w;
                    io_got = got_r + got_w + absorbed;
                }
            }

            demands.push(JobTickDemand {
                job_index: ji,
                flow_range: flow_start..flow_cursor,
                net_demand: net_demand_total,
                io_want,
                io_got,
                any_hung,
            });
        }
        // A job that left `running` (completed, failed) takes its routes
        // with it.
        if job_routes.len() > sched.running().len() {
            job_routes.retain(|id, _| sched.running().iter().any(|r| r.id == *id));
        }

        let achieved = net.settle(dt);

        for d in demands {
            let r = &mut sched.running_mut()[d.job_index];
            let net_eff = if d.net_demand > 0.0 {
                achieved[d.flow_range.clone()].iter().sum::<f64>() / d.net_demand
            } else {
                1.0
            };
            let io_eff = if d.io_want > 0.0 { d.io_got / d.io_want } else { 1.0 };
            let eff = if d.any_hung {
                0.0
            } else {
                // Compute progress scales with frequency; I/O- and
                // network-bound phases do not speed up at higher p-states,
                // so the bottleneck rule applies after scaling.
                (self.pstate_scale * net_eff.min(io_eff)).clamp(0.0, 1.0)
            };
            r.last_efficiency = eff;
            r.progress_ms += dt as f64 * eff;
        }
    }

    fn roll_link_errors(&mut self, _dt: u64) {
        let per_gb = self.config.failure_rates.link_errors_per_gb;
        for l in 0..self.net.num_links() as u32 {
            let traffic_gb = self.net.link_traffic_bytes(l) / 1e9;
            if traffic_gb <= 0.0 {
                continue;
            }
            let mult = self.link_error_mult[l as usize];
            // A degraded link errors even under a zero base rate.
            let base = if per_gb > 0.0 {
                per_gb
            } else if mult > 1.0 {
                0.05
            } else {
                0.0
            };
            let mean = base * mult * traffic_gb;
            if mean <= 0.0 {
                continue;
            }
            let errors = self.rng_fail.poisson(mean) as f64;
            if errors > 0.0 {
                self.net.add_link_errors(l, errors);
                if errors >= 8.0 {
                    self.logs.push(
                        LogRecord::new(
                            self.now,
                            CompId::link(l),
                            Severity::Warning,
                            "hwerr",
                            format!("{errors} CRC retries on lane 0"),
                        )
                        .with_template(templates::LINK_CRC_RETRY),
                    );
                }
            }
        }
    }

    fn compute_power(&mut self) {
        let model: PowerModel = self.config.power;
        for i in 0..self.nodes.len() {
            self.power_w[i] = model.node_power_w_at(
                &self.nodes[i],
                self.gpu_util[i],
                self.pstate_scale,
                &mut self.rng_power,
            );
        }
    }

    /// Routine chatter so the log stream has a realistic noise floor.
    fn emit_routine_logs(&mut self) {
        let mean = self.nodes.len() as f64 * 0.01;
        let count = self.rng_log.poisson(mean).min(50);
        for _ in 0..count {
            let node = self.rng_log.below(self.nodes.len() as u64) as u32;
            self.log_node(
                node,
                Severity::Info,
                "console",
                "systemd: Started Session of user root",
                templates::ROUTINE,
            );
        }
    }

    // ----- logging helpers -----

    fn log_node(&mut self, node: u32, sev: Severity, source: &str, msg: &str, template: u32) {
        // Stamp with the node's local clock: this is where drift-induced
        // mis-association comes from.
        let local = self.clock.local_time(node, self.now);
        self.logs.push(
            LogRecord::new(local, CompId::node(node), sev, source, msg).with_template(template),
        );
    }

    fn log_sched_events(&mut self, events: &[SchedEvent]) {
        for e in events {
            let (sev, comp, msg, template) = match e {
                SchedEvent::Started { job, nodes } => (
                    Severity::Info,
                    CompId::job(job.0),
                    format!("job {} started on {} nodes", job.0, nodes.len()),
                    templates::JOB_START,
                ),
                SchedEvent::Completed { job } => (
                    Severity::Info,
                    CompId::job(job.0),
                    format!("job {} completed", job.0),
                    templates::JOB_END,
                ),
                SchedEvent::Failed { job, node } => (
                    Severity::Error,
                    CompId::job(job.0),
                    format!("job {} failed (node {:?})", job.0, node),
                    templates::JOB_FAILED,
                ),
                SchedEvent::NodeFailedPreCheck { node } => (
                    Severity::Warning,
                    CompId::node(*node),
                    format!("node {node} failed pre-job health check, sidelined"),
                    templates::NODE_SIDELINED,
                ),
                SchedEvent::NodeFailedPostCheck { job, node } => (
                    Severity::Warning,
                    CompId::node(*node),
                    format!("node {node} failed post-job health check after job {}", job.0),
                    templates::NODE_SIDELINED,
                ),
            };
            self.logs
                .push(LogRecord::new(self.now, comp, sev, "sched", msg).with_template(template));
        }
    }

    fn release_failed_job_nodes(&mut self, events: &[SchedEvent]) {
        for e in events {
            if let SchedEvent::Failed { job, .. } = e {
                let alloc = self.sched.record(*job).nodes.clone();
                for n in alloc {
                    if self.nodes[n as usize].health == NodeHealth::Up {
                        self.nodes[n as usize].release();
                    }
                    self.gpu_util[n as usize] = 0.0;
                }
            }
        }
    }

    // ----- observation API (what collectors sample) -----

    /// Current simulation time.
    pub fn now(&self) -> Ts {
        self.now
    }

    /// Tick length, ms.
    pub fn tick_ms(&self) -> u64 {
        self.config.tick_ms
    }

    /// Ticks executed so far.
    pub fn tick_count(&self) -> u64 {
        self.tick_count
    }

    /// The machine's configuration.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// The interconnect.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// Number of compute nodes.
    pub fn num_nodes(&self) -> u32 {
        self.topo.num_nodes()
    }

    /// One node's state.
    #[inline]
    pub fn node(&self, n: u32) -> &NodeState {
        &self.nodes[n as usize]
    }

    /// One GPU's state (global index).
    #[inline]
    pub fn gpu(&self, g: u32) -> &GpuState {
        &self.gpus[g as usize]
    }

    /// Instantaneous node power, watts.
    #[inline]
    pub fn node_power_w(&self, n: u32) -> f64 {
        self.power_w[n as usize]
    }

    /// Network state.
    pub fn network(&self) -> &NetworkState {
        &self.net
    }

    /// Filesystem state.
    pub fn filesystem(&self) -> &FsState {
        &self.fs
    }

    /// Burst-buffer tier, if this machine has one.
    pub fn burst_buffer(&self) -> Option<&BurstBuffer> {
        self.bb.as_ref()
    }

    /// Environment state.
    pub fn environment(&self) -> &EnvState {
        &self.env
    }

    /// Scheduler (queue depth, records, running jobs).
    pub fn scheduler(&self) -> &Scheduler {
        &self.sched
    }

    /// Mutable scheduler access, for response actions (drain, sideline).
    pub fn scheduler_mut(&mut self) -> &mut Scheduler {
        &mut self.sched
    }

    /// Drain all log records produced since the last drain.
    pub fn drain_logs(&mut self) -> Vec<LogRecord> {
        std::mem::take(&mut self.logs)
    }

    /// Ground-truth fault history (for detector validation; not visible to
    /// the monitoring stack).
    pub fn truth_log(&self) -> &[Fault] {
        &self.truth
    }

    /// Capture the complete simulator state for a flight-recorder
    /// checkpoint.  Taken at a tick boundary (after [`SimEngine::drain_logs`])
    /// the restored engine continues the exact same trajectory.
    pub fn snapshot(&self) -> SimSnapshot {
        SimSnapshot {
            config: self.config.clone(),
            now: self.now,
            tick_count: self.tick_count,
            clock: self.clock.clone(),
            nodes: self.nodes.clone(),
            gpus: self.gpus.clone(),
            gpu_util: self.gpu_util.clone(),
            power_w: self.power_w.clone(),
            net: self.net.clone(),
            link_error_mult: self.link_error_mult.clone(),
            fs: self.fs.clone(),
            env: self.env.clone(),
            sched: self.sched.clone(),
            faults: self.faults.clone(),
            logs: self.logs.clone(),
            truth: self.truth.clone(),
            rng_fail: self.rng_fail.clone(),
            rng_power: self.rng_power.clone(),
            rng_work: self.rng_work.clone(),
            rng_sched: self.rng_sched.clone(),
            rng_env: self.rng_env.clone(),
            rng_log: self.rng_log.clone(),
            ashrae_flagged: self.ashrae_flagged,
            pstate_scale: self.pstate_scale,
            bb: self.bb.clone(),
        }
    }

    /// Rebuild an engine from a checkpoint.  The topology is reconstructed
    /// from the snapshot's config; all mutable state is taken verbatim.
    pub fn restore(snap: SimSnapshot) -> SimEngine {
        let topo = Topology::build(snap.config.topology);
        SimEngine {
            topo,
            config: snap.config,
            now: snap.now,
            tick_count: snap.tick_count,
            clock: snap.clock,
            nodes: snap.nodes,
            gpus: snap.gpus,
            gpu_util: snap.gpu_util,
            power_w: snap.power_w,
            net: snap.net,
            link_error_mult: snap.link_error_mult,
            fs: snap.fs,
            env: snap.env,
            sched: snap.sched,
            faults: snap.faults,
            logs: snap.logs,
            truth: snap.truth,
            rng_fail: snap.rng_fail,
            rng_power: snap.rng_power,
            rng_work: snap.rng_work,
            rng_sched: snap.rng_sched,
            rng_env: snap.rng_env,
            rng_log: snap.rng_log,
            ashrae_flagged: snap.ashrae_flagged,
            pstate_scale: snap.pstate_scale,
            bb: snap.bb,
            scratch: WorkloadScratch::default(),
        }
    }

    /// 64-bit digest of the full simulator state, for per-tick replay
    /// verification.  Covers every field that feeds future ticks: RNG
    /// stream positions, node/GPU/network/filesystem/environment state,
    /// the scheduler, and the fault plan position.
    pub fn state_digest(&self) -> u64 {
        let mut h = StateHash::new(0x51);
        h.u64(self.now.0).u64(self.tick_count);
        h.u64(self.rng_fail.state())
            .u64(self.rng_power.state())
            .u64(self.rng_work.state())
            .u64(self.rng_sched.state())
            .u64(self.rng_env.state())
            .u64(self.rng_log.state());
        h.usize(self.nodes.len());
        for n in &self.nodes {
            let health = match n.health {
                NodeHealth::Up => 0u64,
                NodeHealth::Hung => 1,
                NodeHealth::Down => 2,
            };
            h.u64(health)
                .f64(n.cpu_util)
                .f64(n.mem_used_bytes)
                .f64(n.mem_leak_bytes_per_tick)
                .f64(n.leaked_bytes)
                .bools(&n.services_ok)
                .bool(n.fs_mounted)
                .u64(n.running_job.map_or(u64::MAX, |j| j as u64));
        }
        h.usize(self.gpus.len());
        for g in &self.gpus {
            h.bool(g.healthy).f64(g.resistance_drift_pct);
        }
        h.f64s(&self.gpu_util).f64s(&self.power_w).f64s(&self.link_error_mult);
        self.net.digest_into(&mut h);
        self.fs.digest_into(&mut h);
        self.env.digest_into(&mut h);
        self.sched.digest_into(&mut h);
        self.faults.digest_into(&mut h);
        h.usize(self.logs.len()).usize(self.truth.len());
        h.bool(self.ashrae_flagged).f64(self.pstate_scale);
        if let Some(bb) = &self.bb {
            bb.digest_into(&mut h);
        } else {
            h.u64(u64::MAX);
        }
        h.finish()
    }

    /// Maximum link utilization along the minimal route between two nodes —
    /// what a network probe pair would experience.
    pub fn probe_route_max_utilization(&self, a: u32, b: u32) -> f64 {
        let ra = self.topo.router_of(a);
        let rb = self.topo.router_of(b);
        routing::minimal_route(&self.topo, ra, rb)
            .iter()
            .map(|&l| self.net.link_utilization(l))
            .fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::AppProfile;

    fn engine() -> SimEngine {
        SimEngine::new(SimConfig::small())
    }

    impl SimEngine {
        /// Drop every cached job route, so the next step derives them
        /// afresh — what the code this cache replaced did on every step.
        fn forget_job_routes(&mut self) {
            self.scratch.job_routes.clear();
        }
    }

    fn quick_job(nodes: u32, work_mins: u64) -> JobSpec {
        JobSpec::new(
            AppProfile::compute_heavy("stencil"),
            "alice",
            nodes,
            work_mins * 60_000,
            Ts::ZERO,
        )
    }

    /// The cache's oracle is the per-tick derivation it replaced: an engine
    /// that forgets its routes before every step must stay digest-equal,
    /// tick for tick, to one that keeps them — through job starts and
    /// completions, a crash under a running job, a downed link and a
    /// snapshot -> restore that leaves the cache behind.
    #[test]
    fn cached_job_routes_match_deriving_them_every_tick() {
        for (policy, topology) in [
            (RoutePolicy::Minimal, crate::topology::TopologySpec::small_torus()),
            (RoutePolicy::Adaptive, crate::topology::TopologySpec::small_torus()),
            (RoutePolicy::Minimal, crate::topology::TopologySpec::small_dragonfly()),
        ] {
            let cfg = SimConfig { route_policy: policy, topology, ..SimConfig::small() };
            let build = || {
                let mut e = SimEngine::new(cfg.clone());
                let apps = [
                    AppProfile::comm_heavy("fft"),
                    AppProfile::compute_heavy("stencil"),
                    AppProfile::checkpointing("climate"),
                    AppProfile::io_storm("reader"),
                ];
                // More work than the machine has nodes for: jobs queue,
                // start as others complete, and finish inside the run.
                for i in 0..24u64 {
                    let app = apps[i as usize % apps.len()].clone();
                    let nodes = 8 + 8 * (i as u32 % 5);
                    e.submit_job(JobSpec::new(app, "u", nodes, (10 + 3 * i) * 60_000, Ts::ZERO));
                }
                e.schedule_fault(Ts::from_mins(30), FaultKind::LinkDown { link: 3 });
                e.schedule_fault(Ts::from_mins(90), FaultKind::LinkUp { link: 3 });
                e
            };
            let (mut kept, mut forgot) = (build(), build());
            for tick in 1..=400u64 {
                if tick == 50 {
                    // Crash a node that a job is running on right now.
                    let victim = kept.scheduler().running()[0].nodes[1];
                    for e in [&mut kept, &mut forgot] {
                        e.schedule_fault(e.now(), FaultKind::NodeCrash { node: victim });
                    }
                }
                if tick == 200 {
                    kept.drain_logs();
                    forgot.drain_logs();
                    kept = SimEngine::restore(kept.snapshot());
                    assert!(kept.scratch.job_routes.is_empty(), "routes are not snapshotted");
                }
                forgot.forget_job_routes();
                kept.step();
                forgot.step();
                assert_eq!(kept.state_digest(), forgot.state_digest(), "{policy:?} tick {tick}");
                // The cache holds the running jobs and nothing else.
                let running = kept.scheduler().running().len();
                assert_eq!(kept.scratch.job_routes.len(), running, "{policy:?} tick {tick}");
            }
            let failed = kept
                .scheduler()
                .records()
                .iter()
                .filter(|r| r.state == hpcmon_metrics::JobState::Failed)
                .count();
            let done = kept
                .scheduler()
                .records()
                .iter()
                .filter(|r| r.state == hpcmon_metrics::JobState::Completed)
                .count();
            assert!(failed >= 1 && done >= 10, "{policy:?}: failed {failed}, completed {done}");
        }
    }

    /// A job's routes are the paths the public router returns, pair by pair.
    #[test]
    fn job_routes_are_the_routers_path_for_each_partner() {
        let topo = Topology::build(crate::topology::TopologySpec::small_torus());
        let mut loads = vec![0.0; topo.num_links() as usize];
        loads.iter_mut().step_by(3).for_each(|l| *l = 2.0);
        let mut partners = Vec::new();
        for (app, policy) in [
            (AppProfile::compute_heavy("ring"), RoutePolicy::Minimal),
            (AppProfile::comm_heavy("random"), RoutePolicy::Minimal),
            (AppProfile::comm_heavy("random"), RoutePolicy::Adaptive),
            (AppProfile::io_storm("none"), RoutePolicy::Minimal),
        ] {
            let job = RunningJob {
                id: JobId(7),
                nodes: (0..40).map(|i| (i * 3) % topo.num_nodes()).collect(),
                spec: JobSpec::new(app, "u", 40, 60_000, Ts::ZERO),
                started: Ts::ZERO,
                progress_ms: 0.0,
                last_efficiency: 1.0,
            };
            let routes = JobRoutes::derive(&topo, &job, policy, &loads, 0.8, &mut partners);
            for (rank, &src) in job.nodes.iter().enumerate() {
                comm_partners(job.spec.app.comm, job.id, &job.nodes, rank, &mut partners);
                let want: Vec<Vec<u32>> = partners
                    .iter()
                    .map(|&dst| {
                        let (from, to) = (topo.router_of(src), topo.router_of(dst));
                        routing::route_with_policy(&topo, from, to, policy, &loads, 0.8)
                    })
                    .collect();
                let got: Vec<Vec<u32>> = routes.paths_of(rank).map(<[u32]>::to_vec).collect();
                assert_eq!(got, want, "{policy:?} rank {rank}");
            }
        }
    }

    #[test]
    fn job_lifecycle_runs_to_completion() {
        let mut e = engine();
        let id = e.submit_job(quick_job(8, 5));
        for _ in 0..10 {
            e.step();
        }
        let rec = e.scheduler().record(id);
        assert_eq!(rec.state, hpcmon_metrics::JobState::Completed);
        assert_eq!(rec.nodes.len(), 8);
        // Uncontended compute job: runtime ≈ work (5 min) within a tick.
        let rt = rec.runtime_ms().unwrap();
        assert!((5 * 60_000..=6 * 60_000).contains(&rt), "runtime {rt}");
    }

    #[test]
    fn busy_nodes_show_utilization_and_power() {
        let mut e = engine();
        e.submit_job(quick_job(8, 30));
        e.step();
        e.step();
        let rec = e.scheduler().records()[0].clone();
        let busy = rec.nodes[0];
        assert!(e.node(busy).cpu_util > 0.8);
        let idle = (0..e.num_nodes()).find(|n| !rec.nodes.contains(n)).unwrap();
        assert!(e.node_power_w(busy) > e.node_power_w(idle) + 100.0);
    }

    #[test]
    fn determinism_same_seed_same_history() {
        let run = || {
            let mut e = engine();
            e.submit_job(quick_job(16, 20));
            e.schedule_fault(Ts::from_mins(3), FaultKind::NodeCrash { node: 40 });
            for _ in 0..30 {
                e.step();
            }
            let powers: Vec<f64> = (0..e.num_nodes()).map(|n| e.node_power_w(n)).collect();
            let logs = e.drain_logs();
            (powers, logs.len(), e.scheduler().records().to_vec())
        };
        let (p1, l1, r1) = run();
        let (p2, l2, r2) = run();
        assert_eq!(p1, p2);
        assert_eq!(l1, l2);
        assert_eq!(r1, r2);
    }

    #[test]
    fn node_crash_kills_job_and_logs() {
        let mut e = engine();
        let id = e.submit_job(quick_job(8, 60));
        e.step();
        let victim = e.scheduler().record(id).nodes[0];
        e.schedule_fault(Ts::from_mins(2), FaultKind::NodeCrash { node: victim });
        e.step();
        e.step();
        assert_eq!(e.scheduler().record(id).state, hpcmon_metrics::JobState::Failed);
        let logs = e.drain_logs();
        assert!(logs.iter().any(|l| l.template == Some(templates::NODE_HEARTBEAT_LOST)));
        assert!(logs.iter().any(|l| l.template == Some(templates::JOB_FAILED)));
        assert_eq!(e.node(victim).health, NodeHealth::Down);
    }

    #[test]
    fn hung_node_stalls_job_silently() {
        let mut e = engine();
        let id = e.submit_job(quick_job(8, 10));
        e.step();
        let victim = e.scheduler().record(id).nodes[0];
        e.drain_logs();
        e.schedule_fault(Ts::from_mins(2), FaultKind::NodeHang { node: victim });
        for _ in 0..10 {
            e.step();
        }
        // Job cannot finish: progress frozen.
        assert_eq!(e.scheduler().record(id).state, hpcmon_metrics::JobState::Running);
        let r = e.scheduler().running().iter().find(|r| r.id == id).unwrap();
        assert_eq!(r.last_efficiency, 0.0);
        // And the hang itself produced no log line.
        let logs = e.drain_logs();
        assert!(logs
            .iter()
            .all(|l| l.comp != CompId::node(victim) || l.template == Some(templates::ROUTINE)));
        // But power dropped to idle on the hung node.
        assert!(e.node_power_w(victim) < 150.0);
    }

    #[test]
    fn ost_degradation_slows_io_job() {
        // An I/O-heavy job under a degraded filesystem stretches.
        let mk = |degrade: bool| {
            let mut e = engine();
            let spec = JobSpec::new(AppProfile::io_storm("reader"), "u", 16, 10 * 60_000, Ts::ZERO);
            let id = e.submit_job(spec);
            if degrade {
                for ost in 0..e.filesystem().num_osts() {
                    e.schedule_fault(Ts::from_mins(1), FaultKind::OstDegrade { ost, factor: 3.0 });
                }
            }
            for _ in 0..120 {
                e.step();
                if e.scheduler().record(id).state == hpcmon_metrics::JobState::Completed {
                    break;
                }
            }
            e.scheduler().record(id).runtime_ms()
        };
        let healthy = mk(false).expect("healthy run completes");
        let degraded = mk(true).expect("degraded run completes (slowly)");
        assert!(degraded as f64 > healthy as f64 * 1.5, "healthy {healthy} degraded {degraded}");
    }

    #[test]
    fn gas_spike_ages_and_kills_gpus() {
        // Massive, long spike with aggressive corrosion for test speed.
        let mut cfg = SimConfig::small();
        cfg.gpu_corrosion_pct_per_ppb_s = 3e-3;
        let mut e = SimEngine::new(cfg);
        e.schedule_fault(
            Ts::from_mins(1),
            FaultKind::GasSpike { added_ppb: 80.0, duration_ms: 10 * 3_600_000 },
        );
        for _ in 0..600 {
            e.step();
        }
        let failed = (0..e.num_nodes())
            .filter(|&n| e.node(n).gpus.iter().any(|&g| !e.gpu(g).healthy))
            .count();
        assert!(failed > 0, "corrosion should have killed some GPUs");
        assert!(e.environment().corrosion_dose_ppb_s > 0.0);
    }

    #[test]
    fn service_failure_blocks_scheduling_with_gating() {
        let mut cfg = SimConfig::small();
        cfg.scheduler.health_gating = true;
        let mut e = SimEngine::new(cfg);
        e.schedule_fault(Ts::from_mins(1), FaultKind::ServiceDown { node: 0, service: 0 });
        e.step(); // fault applies at minute 1
        let id = e.submit_job(quick_job(4, 5));
        e.step();
        let rec = e.scheduler().record(id);
        assert!(!rec.nodes.contains(&0), "gated scheduler avoids node 0");
        assert!(e.scheduler().out_of_service().contains(&0));
    }

    #[test]
    fn queue_depth_visible() {
        let mut e = engine();
        for _ in 0..40 {
            e.submit_job(quick_job(16, 30));
        }
        e.step();
        // 128 nodes / 16 per job = 8 running, rest queued.
        assert_eq!(e.scheduler().queue_depth_at(e.now()), 32);
    }

    #[test]
    fn link_down_logged_and_counters_move() {
        let mut e = engine();
        e.submit_job(JobSpec::new(AppProfile::comm_heavy("fft"), "u", 32, 30 * 60_000, Ts::ZERO));
        e.schedule_fault(Ts::from_mins(2), FaultKind::LinkDown { link: 0 });
        for _ in 0..4 {
            e.step();
        }
        let logs = e.drain_logs();
        assert!(logs.iter().any(|l| l.template == Some(templates::LINK_FAILED)));
        assert!(!e.network().link_is_up(0));
        // Comm-heavy job generated traffic somewhere.
        let total: f64 =
            (0..e.network().num_links() as u32).map(|l| e.network().link_traffic_bytes(l)).sum();
        assert!(total > 0.0);
    }

    #[test]
    fn degraded_link_produces_error_trend() {
        let mut e = engine();
        e.submit_job(JobSpec::new(AppProfile::comm_heavy("fft"), "u", 64, 60 * 60_000, Ts::ZERO));
        e.step();
        // Find a link with traffic and degrade it.
        let hot = (0..e.network().num_links() as u32)
            .max_by(|&a, &b| {
                e.network()
                    .link_traffic_bytes(a)
                    .partial_cmp(&e.network().link_traffic_bytes(b))
                    .unwrap()
            })
            .unwrap();
        e.schedule_fault(
            Ts::from_mins(2),
            FaultKind::LinkDegrade { link: hot, error_multiplier: 500.0 },
        );
        let mut errors = 0.0;
        for _ in 0..10 {
            e.step();
            errors += e.network().link_errors(hot);
        }
        assert!(errors > 0.0, "degraded hot link should show CRC errors");
    }

    #[test]
    fn memory_leak_eventually_fails_health_check() {
        let mut e = engine();
        let leak = e.config().node_mem_bytes * 0.2;
        e.schedule_fault(Ts::from_mins(1), FaultKind::MemoryLeak { node: 5, bytes_per_tick: leak });
        for _ in 0..8 {
            e.step();
        }
        assert!(!e.node(5).passes_health_check(), "leak exhausted memory");
        let logs = e.drain_logs();
        assert!(logs.iter().any(|l| l.template == Some(templates::OOM_KILL)));
    }

    #[test]
    fn run_until_reaches_deadline() {
        let mut e = engine();
        e.run_until(Ts::from_mins(10));
        assert_eq!(e.now(), Ts::from_mins(10));
        assert_eq!(e.tick_count(), 10);
    }

    #[test]
    fn burst_buffer_accelerates_checkpoints_under_fs_pressure() {
        // A checkpointing job racing an I/O storm: without a burst buffer
        // its write bursts starve; with one they land at absorb speed.
        let run = |with_bb: bool| {
            let mut cfg = SimConfig::small();
            if with_bb {
                cfg.burst_buffer = Some(crate::burst_buffer::BbConfig::small());
            }
            let mut e = SimEngine::new(cfg);
            // Storm first: earlier-submitted jobs offer I/O first each
            // tick, so the storm soaks the filesystem before the
            // checkpoints arrive — worst case for the checkpointer.
            e.submit_job(JobSpec::new(
                AppProfile::io_storm("storm"),
                "v",
                64,
                240 * 60_000,
                Ts::ZERO,
            ));
            let ckpt = e.submit_job(JobSpec::new(
                AppProfile::checkpointing("climate"),
                "u",
                32,
                30 * 60_000,
                Ts::ZERO,
            ));
            // Fixed horizon; compare useful work completed.
            for _ in 0..60 {
                e.step();
            }
            if e.scheduler().record(ckpt).state == hpcmon_metrics::JobState::Completed {
                return 30.0 * 60_000.0; // full work done
            }
            e.scheduler()
                .running()
                .iter()
                .find(|r| r.id == ckpt)
                .map(|r| r.progress_ms)
                .unwrap_or(0.0)
        };
        let without = run(false);
        let with = run(true);
        assert!(
            with > 1.5 * without,
            "bb keeps checkpoints moving under a storm: {with} vs {without}"
        );
    }

    #[test]
    fn misconfigured_bb_node_is_silent_but_observable() {
        let mut cfg = SimConfig::small();
        cfg.burst_buffer = Some(crate::burst_buffer::BbConfig::small());
        let mut e = SimEngine::new(cfg);
        e.submit_job(JobSpec::new(
            AppProfile::checkpointing("climate"),
            "u",
            64,
            240 * 60_000,
            Ts::ZERO,
        ));
        e.schedule_fault(Ts::from_mins(1), FaultKind::BbMisconfigure { bb: 2 });
        for _ in 0..12 {
            e.step();
        }
        let bb = e.burst_buffer().expect("configured");
        assert!(!bb.all_configured());
        assert!(!bb.node(2).configured);
        assert_eq!(bb.node(2).occupancy_bytes, 0.0, "absorbs nothing");
        // No log line announced it.
        let logs = e.drain_logs();
        assert!(logs.iter().all(|l| !l.message.contains("buffer")));
        // Repair restores the check.
        e.schedule_fault(Ts::from_mins(15), FaultKind::BbRepair { bb: 2 });
        for _ in 0..3 {
            e.step();
        }
        assert!(e.burst_buffer().unwrap().all_configured());
    }

    #[test]
    fn pstate_trades_time_for_power() {
        let run = |scale: f64| {
            let mut e = engine();
            e.set_pstate(scale);
            let id = e.submit_job(quick_job(16, 20));
            let mut energy = 0.0;
            for _ in 0..120 {
                e.step();
                energy += (0..e.num_nodes()).map(|n| e.node_power_w(n)).sum::<f64>() * 60.0;
                if e.scheduler().record(id).state == hpcmon_metrics::JobState::Completed {
                    break;
                }
            }
            (e.scheduler().record(id).runtime_ms().expect("completed"), energy)
        };
        let (t_full, _) = run(1.0);
        let (t_half, _) = run(0.5);
        // Half frequency → roughly double runtime.
        assert!(
            t_half as f64 > 1.7 * t_full as f64 && (t_half as f64) < 2.4 * t_full as f64,
            "full {t_full} half {t_half}"
        );
        // Mid-run power drops with p-state.
        let power_at = |scale: f64| {
            let mut e = engine();
            e.set_pstate(scale);
            let id = e.submit_job(quick_job(16, 60));
            e.step();
            e.step();
            let node = e.scheduler().record(id).nodes[0];
            e.node_power_w(node)
        };
        assert!(power_at(0.6) < 0.7 * power_at(1.0));
    }

    #[test]
    fn probe_route_utilization_reflects_traffic() {
        let mut e = engine();
        assert_eq!(e.probe_route_max_utilization(0, 100), 0.0);
        e.submit_job(JobSpec::new(AppProfile::comm_heavy("fft"), "u", 128, 60 * 60_000, Ts::ZERO));
        e.step();
        e.step();
        // Under a machine-wide comm-heavy job some probe pair sees load.
        let max = (0..16).map(|i| e.probe_route_max_utilization(i, 127 - i)).fold(0.0, f64::max);
        assert!(max > 0.0);
    }
}
