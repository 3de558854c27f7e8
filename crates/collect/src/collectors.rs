//! Passive subsystem collectors.
//!
//! Each collector samples one subsystem's observables into the shared
//! synchronized columnar frame ([`ColumnFrame`]).  All of them are pure
//! reads of the engine's observation API — the monitoring stack cannot
//! perturb the machine, which is the "lowest possible overhead"
//! requirement from Table I made literal.
//!
//! Each writes its samples as a [`MetricSet`] ([`ColumnFrame::extend_set`]):
//! its keys are declared once for the machine's shape, and every other
//! tick it writes values only, into a slice of the frame's value column.

use crate::registry::StdMetrics;
use hpcmon_metrics::{ColumnFrame, CompId, MetricSet, SetKeys};
use hpcmon_sim::SimEngine;

/// One data source that contributes samples to a synchronized frame.
pub trait Collector {
    /// Stable name (used as the transport topic suffix).
    fn name(&self) -> &str;
    /// Append this tick's samples to the columnar `frame`.
    fn collect(&mut self, engine: &SimEngine, frame: &mut ColumnFrame);
    /// Internal RNG state, for flight-recorder checkpoints (`None` for the
    /// common stateless collector; probes with measurement noise override).
    fn rng_state(&self) -> Option<u64> {
        None
    }
    /// Restore internal RNG state (replay seek).  The default is a no-op,
    /// matching [`Collector::rng_state`] returning `None`.
    fn set_rng_state(&mut self, _state: u64) {}
}

/// A set's version from the two counts its keys follow.
fn shape(a: u32, b: u32) -> u64 {
    u64::from(a) << 32 | u64::from(b)
}

/// Node CPU/memory/health sampler (the /proc scrape).
pub struct NodeCollector {
    metrics: StdMetrics,
    set: MetricSet,
}

impl NodeCollector {
    /// Build against the standard metric set.
    pub(crate) fn new(metrics: StdMetrics) -> NodeCollector {
        NodeCollector { metrics, set: MetricSet::new() }
    }
}

impl Collector for NodeCollector {
    fn name(&self) -> &str {
        "node"
    }

    fn collect(&mut self, engine: &SimEngine, frame: &mut ColumnFrame) {
        let m = &self.metrics;
        let ids = [m.node_cpu, m.node_mem_used, m.node_free_mem, m.node_health];
        let nodes = engine.num_nodes();
        let declare = |keys: &mut SetKeys<'_>| {
            for n in 0..nodes {
                ids.iter().for_each(|&id| keys.push(id, CompId::node(n)));
            }
        };
        frame.extend_set(&mut self.set, nodes.into(), declare, |values| {
            for (n, v) in (0..nodes).zip(values.as_chunks_mut().0) {
                let node = engine.node(n);
                let health = if node.passes_health_check() { 1.0 } else { 0.0 };
                *v = [node.cpu_util, node.mem_used_bytes, node.free_mem_bytes(), health];
            }
        });
    }
}

/// Power sampler: per node, per cabinet, and system-wide (the KAUST/SEDC
/// view that makes Figure 3).
pub struct PowerCollector {
    metrics: StdMetrics,
    set: MetricSet,
}

impl PowerCollector {
    /// Build against the standard metric set.
    pub(crate) fn new(metrics: StdMetrics) -> PowerCollector {
        PowerCollector { metrics, set: MetricSet::new() }
    }
}

impl Collector for PowerCollector {
    fn name(&self) -> &str {
        "power"
    }

    fn collect(&mut self, engine: &SimEngine, frame: &mut ColumnFrame) {
        let m = &self.metrics;
        let topo = engine.topology();
        let (nodes, cabinets) = (engine.num_nodes(), topo.num_cabinets());
        let declare = |keys: &mut SetKeys<'_>| {
            (0..nodes).for_each(|n| keys.push(m.node_power, CompId::node(n)));
            (0..cabinets).for_each(|c| keys.push(m.cabinet_power, CompId::cabinet(c)));
            keys.push(m.system_power, CompId::SYSTEM);
        };
        frame.extend_set(&mut self.set, shape(nodes, cabinets), declare, |values| {
            // Cabinets sum into their own slots of the slice.
            let (per_node, rest) = values.split_at_mut(nodes as usize);
            let (per_cabinet, system) = rest.split_at_mut(cabinets as usize);
            per_cabinet.fill(0.0);
            let mut total = 0.0;
            for (n, v) in (0..nodes).zip(per_node) {
                let w = engine.node_power_w(n);
                *v = w;
                per_cabinet[topo.cabinet_of(n) as usize] += w;
                total += w;
            }
            system[0] = total;
        });
    }
}

/// HSN counter sampler: per-link traffic/stalls/errors/utilization and
/// per-node injection bandwidth.  `link_stride` decimates link coverage
/// (1 = full fidelity) for the fidelity/overhead tradeoff bench.
pub struct NetworkCollector {
    metrics: StdMetrics,
    link_stride: u32,
    set: MetricSet,
}

impl NetworkCollector {
    /// Full-fidelity collector.
    pub(crate) fn new(metrics: StdMetrics) -> NetworkCollector {
        NetworkCollector::with_stride(metrics, 1)
    }

    /// Collect only every `stride`-th link (reduced fidelity).
    pub fn with_stride(metrics: StdMetrics, stride: u32) -> NetworkCollector {
        assert!(stride >= 1);
        NetworkCollector { metrics, link_stride: stride, set: MetricSet::new() }
    }
}

impl Collector for NetworkCollector {
    fn name(&self) -> &str {
        "hsn"
    }

    fn collect(&mut self, engine: &SimEngine, frame: &mut ColumnFrame) {
        let m = &self.metrics;
        let net = engine.network();
        let (links, nodes) = (net.num_links() as u32, engine.num_nodes());
        let sampled = || (0..links).step_by(self.link_stride as usize);
        let ids = [m.link_traffic, m.link_stalls, m.link_errors, m.link_util];
        let declare = |keys: &mut SetKeys<'_>| {
            for l in sampled() {
                ids.iter().for_each(|&id| keys.push(id, CompId::link(l)));
            }
            (0..nodes).for_each(|n| keys.push(m.node_injection_pct, CompId::node(n)));
        };
        frame.extend_set(&mut self.set, shape(links, nodes), declare, |values| {
            let (per_link, per_node) = values.split_at_mut(values.len() - nodes as usize);
            for (l, v) in sampled().zip(per_link.as_chunks_mut().0) {
                *v = [
                    net.link_traffic_bytes(l),
                    net.link_stall_bytes(l),
                    net.link_errors(l),
                    net.link_utilization(l),
                ];
            }
            for (n, v) in (0..nodes).zip(per_node) {
                *v = net.node_injection_pct(n);
            }
        });
    }
}

/// Filesystem sampler: per-OST rates and latency, MDS latency, aggregates,
/// and per-node read attribution.
///
/// The attribution is a second set, whose keys follow the running jobs: it
/// keeps the nodes it last declared and re-declares when they change.
pub struct FsCollector {
    metrics: StdMetrics,
    set: MetricSet,
    reads: MetricSet,
    /// Nodes of the read attribution as last declared, its version, and
    /// this tick's nodes and rates.
    read_nodes: Vec<u32>,
    reads_version: u64,
    next_nodes: Vec<u32>,
    rates: Vec<f64>,
}

impl FsCollector {
    /// Build against the standard metric set.
    pub(crate) fn new(metrics: StdMetrics) -> FsCollector {
        FsCollector {
            metrics,
            set: MetricSet::new(),
            reads: MetricSet::new(),
            read_nodes: Vec::new(),
            reads_version: 0,
            next_nodes: Vec::new(),
            rates: Vec::new(),
        }
    }
}

impl Collector for FsCollector {
    fn name(&self) -> &str {
        "fs"
    }

    fn collect(&mut self, engine: &SimEngine, frame: &mut ColumnFrame) {
        let m = &self.metrics;
        let fs = engine.filesystem();
        let dt_s = engine.tick_ms() as f64 / 1_000.0;
        let osts = fs.num_osts();
        let ids = [m.ost_read_bps, m.ost_write_bps, m.ost_latency];
        let declare = |keys: &mut SetKeys<'_>| {
            for o in 0..osts {
                ids.iter().for_each(|&id| keys.push(id, CompId::ost(o)));
            }
            keys.push(m.mds_latency, CompId::mds(0));
            keys.push(m.fs_agg_read_bps, CompId::SYSTEM);
            keys.push(m.fs_agg_write_bps, CompId::SYSTEM);
        };
        frame.extend_set(&mut self.set, osts.into(), declare, |values| {
            let (per_ost, rest) = values.split_at_mut(3 * osts as usize);
            for (o, v) in (0..osts).zip(per_ost.as_chunks_mut().0) {
                let (read, write) = (fs.ost_read_bytes(o) / dt_s, fs.ost_write_bytes(o) / dt_s);
                *v = [read, write, fs.ost_latency_ms(o)];
            }
            rest.copy_from_slice(&[
                fs.mds_latency_ms(),
                fs.aggregate_read_bytes_per_sec(),
                fs.aggregate_write_bytes_per_sec(),
            ]);
        });
        // Per-node read attribution: distribute each running job's phase
        // read rate over its active nodes (what a client-side stats scrape
        // would report).
        self.next_nodes.clear();
        self.rates.clear();
        for r in engine.scheduler().running() {
            let phase = r.spec.app.phase_at(r.progress_ms as u64);
            if phase.read_bytes_per_sec <= 0.0 {
                continue;
            }
            for &n in &r.nodes {
                if engine.node(n).cpu_util > 0.05 {
                    self.next_nodes.push(n);
                    self.rates.push(phase.read_bytes_per_sec);
                }
            }
        }
        if self.next_nodes != self.read_nodes {
            std::mem::swap(&mut self.next_nodes, &mut self.read_nodes);
            self.reads_version += 1;
        }
        let nodes = &self.read_nodes;
        let declare = |keys: &mut SetKeys<'_>| {
            nodes.iter().for_each(|&n| keys.push(m.node_fs_read_bps, CompId::node(n)));
        };
        frame.extend_set(&mut self.reads, self.reads_version, declare, |values| {
            values.copy_from_slice(&self.rates);
        });
    }
}

/// Datacenter environment sampler (the ORNL/ASHRAE watch).
pub struct EnvCollector {
    metrics: StdMetrics,
    set: MetricSet,
}

impl EnvCollector {
    /// Build against the standard metric set.
    pub(crate) fn new(metrics: StdMetrics) -> EnvCollector {
        EnvCollector { metrics, set: MetricSet::new() }
    }
}

impl Collector for EnvCollector {
    fn name(&self) -> &str {
        "env"
    }

    fn collect(&mut self, engine: &SimEngine, frame: &mut ColumnFrame) {
        let m = &self.metrics;
        let env = engine.environment();
        let ids = [m.env_temp, m.env_humidity, m.env_so2, m.env_particulates];
        let declare = |keys: &mut SetKeys<'_>| {
            ids.iter().for_each(|&id| keys.push(id, CompId::ENVIRONMENT));
        };
        frame.extend_set(&mut self.set, 0, declare, |values| {
            values.copy_from_slice(&[env.temp_c, env.humidity_pct, env.so2_ppb, env.particulates]);
        });
    }
}

/// Scheduler/queue sampler (the CSC/NERSC backlog view).
pub struct QueueCollector {
    metrics: StdMetrics,
    set: MetricSet,
}

impl QueueCollector {
    /// Build against the standard metric set.
    pub(crate) fn new(metrics: StdMetrics) -> QueueCollector {
        QueueCollector { metrics, set: MetricSet::new() }
    }
}

impl Collector for QueueCollector {
    fn name(&self) -> &str {
        "sched"
    }

    fn collect(&mut self, engine: &SimEngine, frame: &mut ColumnFrame) {
        let m = &self.metrics;
        let sched = engine.scheduler();
        let ids = [m.queue_depth, m.running_jobs, m.free_nodes, m.nodes_out_of_service];
        let declare = |keys: &mut SetKeys<'_>| {
            ids.iter().for_each(|&id| keys.push(id, CompId::SYSTEM));
        };
        frame.extend_set(&mut self.set, 0, declare, |values| {
            values.copy_from_slice(&[
                sched.queue_depth_at(engine.now()) as f64,
                sched.running().len() as f64,
                sched.free_count() as f64,
                sched.out_of_service_count() as f64,
            ]);
        });
    }
}

/// GPU health sampler (the CSCS per-node GPU validation view).
pub struct GpuHealthCollector {
    metrics: StdMetrics,
    set: MetricSet,
}

impl GpuHealthCollector {
    /// Build against the standard metric set.
    pub(crate) fn new(metrics: StdMetrics) -> GpuHealthCollector {
        GpuHealthCollector { metrics, set: MetricSet::new() }
    }
}

impl Collector for GpuHealthCollector {
    fn name(&self) -> &str {
        "gpu"
    }

    fn collect(&mut self, engine: &SimEngine, frame: &mut ColumnFrame) {
        let m = &self.metrics;
        let with_gpus = || (0..engine.num_nodes()).filter(|&n| !engine.node(n).gpus.is_empty());
        let declare = |keys: &mut SetKeys<'_>| {
            with_gpus().for_each(|n| keys.push(m.gpu_healthy, CompId::node(n)));
        };
        let version = shape(engine.num_nodes(), engine.config().gpus_per_node);
        frame.extend_set(&mut self.set, version, declare, |values| {
            for (v, n) in values.iter_mut().zip(with_gpus()) {
                let gpus = &engine.node(n).gpus;
                *v = gpus.iter().filter(|&&g| engine.gpu(g).healthy).count() as f64;
            }
        });
    }
}

/// Burst-buffer sampler: occupancy, absorb/drain rates, and the
/// configuration check (LANL's check target).  Emits nothing on machines
/// without a buffer tier.
pub struct BbCollector {
    metrics: StdMetrics,
    set: MetricSet,
}

impl BbCollector {
    /// Build against the standard metric set.
    pub(crate) fn new(metrics: StdMetrics) -> BbCollector {
        BbCollector { metrics, set: MetricSet::new() }
    }
}

impl Collector for BbCollector {
    fn name(&self) -> &str {
        "bb"
    }

    fn collect(&mut self, engine: &SimEngine, frame: &mut ColumnFrame) {
        let Some(bb) = engine.burst_buffer() else {
            return;
        };
        let m = &self.metrics;
        let dt_s = engine.tick_ms() as f64 / 1_000.0;
        let ids = [m.bb_occupancy, m.bb_absorb_bps, m.bb_drain_bps, m.bb_configured];
        let declare = |keys: &mut SetKeys<'_>| {
            for i in 0..bb.num_nodes() {
                ids.iter().for_each(|&id| keys.push(id, CompId::bb(i)));
            }
        };
        frame.extend_set(&mut self.set, bb.num_nodes().into(), declare, |values| {
            for (i, v) in (0..bb.num_nodes()).zip(values.as_chunks_mut().0) {
                let node = bb.node(i);
                let configured = if node.configured { 1.0 } else { 0.0 };
                *v = [
                    node.occupancy_bytes,
                    node.absorbed_last_tick / dt_s,
                    node.drained_last_tick / dt_s,
                    configured,
                ];
            }
        });
    }
}

/// Build the full standard collector set.
pub fn standard_collectors(metrics: StdMetrics) -> Vec<Box<dyn Collector>> {
    vec![
        Box::new(NodeCollector::new(metrics)),
        Box::new(PowerCollector::new(metrics)),
        Box::new(NetworkCollector::new(metrics)),
        Box::new(FsCollector::new(metrics)),
        Box::new(EnvCollector::new(metrics)),
        Box::new(QueueCollector::new(metrics)),
        Box::new(GpuHealthCollector::new(metrics)),
        Box::new(BbCollector::new(metrics)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpcmon_metrics::{MetricRegistry, Ts};
    use hpcmon_sim::{AppProfile, JobSpec, SimConfig, SimEngine};

    fn setup() -> (SimEngine, StdMetrics) {
        let mut engine = SimEngine::new(SimConfig::small());
        engine.submit_job(JobSpec::new(
            AppProfile::comm_heavy("fft"),
            "alice",
            32,
            30 * 60_000,
            Ts::ZERO,
        ));
        engine.step();
        engine.step();
        let reg = MetricRegistry::new();
        (engine, StdMetrics::register(&reg))
    }

    fn collect_one(c: &mut dyn Collector, engine: &SimEngine) -> ColumnFrame {
        let mut cf = ColumnFrame::new(engine.now());
        c.collect(engine, &mut cf);
        cf
    }

    #[test]
    fn node_collector_covers_every_node() {
        let (engine, m) = setup();
        let frame = collect_one(&mut NodeCollector::new(m), &engine);
        assert_eq!(frame.of_metric(m.node_cpu).count(), 128);
        assert_eq!(frame.of_metric(m.node_health).count(), 128);
        // Busy nodes exist.
        assert!(frame.of_metric(m.node_cpu).any(|s| s.value > 0.5));
        // All health values are 0/1.
        assert!(frame.of_metric(m.node_health).all(|s| s.value == 0.0 || s.value == 1.0));
    }

    #[test]
    fn power_collector_sums_consistently() {
        let (engine, m) = setup();
        let frame = collect_one(&mut PowerCollector::new(m), &engine);
        let sum = |metric| frame.of_metric(metric).map(|s| s.value).sum::<f64>();
        let (node_sum, cab_sum, system) =
            (sum(m.node_power), sum(m.cabinet_power), sum(m.system_power));
        assert!((node_sum - cab_sum).abs() < 1e-6);
        assert!((node_sum - system).abs() < 1e-6);
        assert!(system > 10_000.0, "128 nodes draw kWs");
        assert_eq!(
            frame.of_metric(m.cabinet_power).count(),
            engine.topology().num_cabinets() as usize
        );
    }

    #[test]
    fn network_collector_sees_traffic() {
        let (engine, m) = setup();
        let frame = collect_one(&mut NetworkCollector::new(m), &engine);
        let links = engine.network().num_links();
        assert_eq!(frame.of_metric(m.link_traffic).count(), links);
        assert!(frame.of_metric(m.link_traffic).any(|s| s.value > 0.0), "comm job moved bytes");
        assert_eq!(frame.of_metric(m.node_injection_pct).count(), 128);
        assert!(frame.of_metric(m.node_injection_pct).any(|s| s.value > 0.0));
    }

    #[test]
    fn network_stride_decimates() {
        let (engine, m) = setup();
        let full = collect_one(&mut NetworkCollector::new(m), &engine);
        let thin = collect_one(&mut NetworkCollector::with_stride(m, 4), &engine);
        let full_links = full.of_metric(m.link_traffic).count();
        let thin_links = thin.of_metric(m.link_traffic).count();
        assert!(thin_links <= full_links / 4 + 1);
        assert!(thin_links > 0);
    }

    #[test]
    fn fs_collector_reports_osts_and_aggregate() {
        let (engine, m) = setup();
        let frame = collect_one(&mut FsCollector::new(m), &engine);
        assert_eq!(frame.of_metric(m.ost_latency).count(), engine.filesystem().num_osts() as usize);
        assert_eq!(frame.of_metric(m.mds_latency).count(), 1);
        assert_eq!(frame.of_metric(m.fs_agg_read_bps).count(), 1);
        // All latencies positive.
        assert!(frame.of_metric(m.ost_latency).all(|s| s.value > 0.0));
    }

    #[test]
    fn env_collector_reports_room() {
        let (engine, m) = setup();
        let frame = collect_one(&mut EnvCollector::new(m), &engine);
        assert_eq!(frame.len(), 4);
        let temp = frame.of_metric(m.env_temp).next().unwrap().value;
        assert!((15.0..30.0).contains(&temp));
    }

    #[test]
    fn queue_collector_reports_scheduler() {
        let (engine, m) = setup();
        let frame = collect_one(&mut QueueCollector::new(m), &engine);
        assert_eq!(frame.of_metric(m.running_jobs).next().unwrap().value, 1.0);
        assert_eq!(frame.of_metric(m.free_nodes).next().unwrap().value, 96.0);
    }

    #[test]
    fn gpu_collector_counts_healthy() {
        let (engine, m) = setup();
        let frame = collect_one(&mut GpuHealthCollector::new(m), &engine);
        // SimConfig::small has 1 GPU per node, all healthy initially.
        assert_eq!(frame.of_metric(m.gpu_healthy).count(), 128);
        assert!(frame.of_metric(m.gpu_healthy).all(|s| s.value == 1.0));
    }

    #[test]
    fn standard_set_has_unique_names() {
        let (_, m) = setup();
        let set = standard_collectors(m);
        let names: std::collections::HashSet<&str> = set.iter().map(|c| c.name()).collect();
        assert_eq!(names.len(), set.len());
    }

    #[test]
    fn frame_timestamps_are_synchronized() {
        let (engine, m) = setup();
        let mut frame = ColumnFrame::new(engine.now());
        for c in &mut standard_collectors(m) {
            c.collect(&engine, &mut frame);
        }
        assert!(frame.iter().all(|s| s.ts == engine.now()));
        assert!(frame.len() > 500, "full sweep is rich: {}", frame.len());
    }
}
