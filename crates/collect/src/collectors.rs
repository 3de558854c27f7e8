//! Passive subsystem collectors.
//!
//! Each collector samples one subsystem's observables into the shared
//! synchronized columnar frame ([`ColumnFrame`]).  All of them are pure
//! reads of the engine's observation API — the monitoring stack cannot
//! perturb the machine, which is the "lowest possible overhead"
//! requirement from Table I made literal.

use crate::registry::StdMetrics;
use hpcmon_metrics::{ColumnFrame, CompId};
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

/// Node CPU/memory/health sampler (the /proc scrape).
pub struct NodeCollector {
    metrics: StdMetrics,
}

impl NodeCollector {
    /// Build against the standard metric set.
    pub(crate) fn new(metrics: StdMetrics) -> NodeCollector {
        NodeCollector { metrics }
    }
}

impl Collector for NodeCollector {
    fn name(&self) -> &str {
        "node"
    }

    fn collect(&mut self, engine: &SimEngine, frame: &mut ColumnFrame) {
        let m = &self.metrics;
        for n in 0..engine.num_nodes() {
            let node = engine.node(n);
            let comp = CompId::node(n);
            frame.push(m.node_cpu, comp, node.cpu_util);
            frame.push(m.node_mem_used, comp, node.mem_used_bytes);
            frame.push(m.node_free_mem, comp, node.free_mem_bytes());
            frame.push(m.node_health, comp, if node.passes_health_check() { 1.0 } else { 0.0 });
        }
    }
}

/// Power sampler: per node, per cabinet, and system-wide (the KAUST/SEDC
/// view that makes Figure 3).
pub struct PowerCollector {
    metrics: StdMetrics,
}

impl PowerCollector {
    /// Build against the standard metric set.
    pub(crate) fn new(metrics: StdMetrics) -> PowerCollector {
        PowerCollector { metrics }
    }
}

impl Collector for PowerCollector {
    fn name(&self) -> &str {
        "power"
    }

    fn collect(&mut self, engine: &SimEngine, frame: &mut ColumnFrame) {
        let m = &self.metrics;
        let topo = engine.topology();
        let mut cabinets = vec![0.0f64; topo.num_cabinets() as usize];
        let mut total = 0.0;
        for n in 0..engine.num_nodes() {
            let w = engine.node_power_w(n);
            frame.push(m.node_power, CompId::node(n), w);
            cabinets[topo.cabinet_of(n) as usize] += w;
            total += w;
        }
        for (c, w) in cabinets.into_iter().enumerate() {
            frame.push(m.cabinet_power, CompId::cabinet(c as u32), w);
        }
        frame.push(m.system_power, CompId::SYSTEM, total);
    }
}

/// HSN counter sampler: per-link traffic/stalls/errors/utilization and
/// per-node injection bandwidth.  `link_stride` decimates link coverage
/// (1 = full fidelity) for the fidelity/overhead tradeoff bench.
pub struct NetworkCollector {
    metrics: StdMetrics,
    link_stride: u32,
}

impl NetworkCollector {
    /// Full-fidelity collector.
    pub(crate) fn new(metrics: StdMetrics) -> NetworkCollector {
        NetworkCollector { metrics, link_stride: 1 }
    }

    /// Collect only every `stride`-th link (reduced fidelity).
    pub fn with_stride(metrics: StdMetrics, stride: u32) -> NetworkCollector {
        assert!(stride >= 1);
        NetworkCollector { metrics, link_stride: stride }
    }
}

impl Collector for NetworkCollector {
    fn name(&self) -> &str {
        "hsn"
    }

    fn collect(&mut self, engine: &SimEngine, frame: &mut ColumnFrame) {
        let m = &self.metrics;
        let net = engine.network();
        let links = net.num_links() as u32;
        let mut l = 0;
        while l < links {
            let comp = CompId::link(l);
            frame.push(m.link_traffic, comp, net.link_traffic_bytes(l));
            frame.push(m.link_stalls, comp, net.link_stall_bytes(l));
            frame.push(m.link_errors, comp, net.link_errors(l));
            frame.push(m.link_util, comp, net.link_utilization(l));
            l += self.link_stride;
        }
        for n in 0..engine.num_nodes() {
            frame.push(m.node_injection_pct, CompId::node(n), net.node_injection_pct(n));
        }
    }
}

/// Filesystem sampler: per-OST rates and latency, MDS latency, aggregates,
/// and per-node read attribution.
pub struct FsCollector {
    metrics: StdMetrics,
}

impl FsCollector {
    /// Build against the standard metric set.
    pub(crate) fn new(metrics: StdMetrics) -> FsCollector {
        FsCollector { metrics }
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
        for o in 0..fs.num_osts() {
            let comp = CompId::ost(o);
            frame.push(m.ost_read_bps, comp, fs.ost_read_bytes(o) / dt_s);
            frame.push(m.ost_write_bps, comp, fs.ost_write_bytes(o) / dt_s);
            frame.push(m.ost_latency, comp, fs.ost_latency_ms(o));
        }
        frame.push(m.mds_latency, CompId::mds(0), fs.mds_latency_ms());
        frame.push(m.fs_agg_read_bps, CompId::SYSTEM, fs.aggregate_read_bytes_per_sec());
        frame.push(m.fs_agg_write_bps, CompId::SYSTEM, fs.aggregate_write_bytes_per_sec());
        // Per-node read attribution: distribute each running job's phase
        // read rate over its active nodes (what a client-side stats scrape
        // would report).
        for r in engine.scheduler().running() {
            let phase = r.spec.app.phase_at(r.progress_ms as u64);
            if phase.read_bytes_per_sec <= 0.0 {
                continue;
            }
            for &n in &r.nodes {
                let node = engine.node(n);
                if node.cpu_util > 0.05 {
                    frame.push(m.node_fs_read_bps, CompId::node(n), phase.read_bytes_per_sec);
                }
            }
        }
    }
}

/// Datacenter environment sampler (the ORNL/ASHRAE watch).
pub struct EnvCollector {
    metrics: StdMetrics,
}

impl EnvCollector {
    /// Build against the standard metric set.
    pub(crate) fn new(metrics: StdMetrics) -> EnvCollector {
        EnvCollector { metrics }
    }
}

impl Collector for EnvCollector {
    fn name(&self) -> &str {
        "env"
    }

    fn collect(&mut self, engine: &SimEngine, frame: &mut ColumnFrame) {
        let m = &self.metrics;
        let env = engine.environment();
        let comp = CompId::ENVIRONMENT;
        frame.push(m.env_temp, comp, env.temp_c);
        frame.push(m.env_humidity, comp, env.humidity_pct);
        frame.push(m.env_so2, comp, env.so2_ppb);
        frame.push(m.env_particulates, comp, env.particulates);
    }
}

/// Scheduler/queue sampler (the CSC/NERSC backlog view).
pub struct QueueCollector {
    metrics: StdMetrics,
}

impl QueueCollector {
    /// Build against the standard metric set.
    pub(crate) fn new(metrics: StdMetrics) -> QueueCollector {
        QueueCollector { metrics }
    }
}

impl Collector for QueueCollector {
    fn name(&self) -> &str {
        "sched"
    }

    fn collect(&mut self, engine: &SimEngine, frame: &mut ColumnFrame) {
        let m = &self.metrics;
        let sched = engine.scheduler();
        frame.push(m.queue_depth, CompId::SYSTEM, sched.queue_depth_at(engine.now()) as f64);
        frame.push(m.running_jobs, CompId::SYSTEM, sched.running().len() as f64);
        frame.push(m.free_nodes, CompId::SYSTEM, sched.free_count() as f64);
        frame.push(m.nodes_out_of_service, CompId::SYSTEM, sched.out_of_service().len() as f64);
    }
}

/// GPU health sampler (the CSCS per-node GPU validation view).
pub struct GpuHealthCollector {
    metrics: StdMetrics,
}

impl GpuHealthCollector {
    /// Build against the standard metric set.
    pub(crate) fn new(metrics: StdMetrics) -> GpuHealthCollector {
        GpuHealthCollector { metrics }
    }
}

impl Collector for GpuHealthCollector {
    fn name(&self) -> &str {
        "gpu"
    }

    fn collect(&mut self, engine: &SimEngine, frame: &mut ColumnFrame) {
        let m = &self.metrics;
        for n in 0..engine.num_nodes() {
            let node = engine.node(n);
            if node.gpus.is_empty() {
                continue;
            }
            let healthy = node.gpus.iter().filter(|&&g| engine.gpu(g).healthy).count();
            frame.push(m.gpu_healthy, CompId::node(n), healthy as f64);
        }
    }
}

/// Burst-buffer sampler: occupancy, absorb/drain rates, and the
/// configuration check (LANL's check target).  Emits nothing on machines
/// without a buffer tier.
pub struct BbCollector {
    metrics: StdMetrics,
}

impl BbCollector {
    /// Build against the standard metric set.
    pub(crate) fn new(metrics: StdMetrics) -> BbCollector {
        BbCollector { metrics }
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
        for i in 0..bb.num_nodes() {
            let node = bb.node(i);
            let comp = CompId::bb(i);
            frame.push(m.bb_occupancy, comp, node.occupancy_bytes);
            frame.push(m.bb_absorb_bps, comp, node.absorbed_last_tick / dt_s);
            frame.push(m.bb_drain_bps, comp, node.drained_last_tick / dt_s);
            frame.push(m.bb_configured, comp, if node.configured { 1.0 } else { 0.0 });
        }
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
