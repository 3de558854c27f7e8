//! Active probes: measure what an application would experience.
//!
//! NCSA (paper §II-2) runs minute-cadence probes that "measure file I/O
//! and metadata action response latencies ... from a distributed set of
//! clients to exercise these operations over representative data paths".
//! The probes here do the same against the simulator: the filesystem probe
//! reads each OST's current client-visible latency (plus measurement
//! noise), and the network probe measures transfer-time inflation between
//! fixed node pairs.

use crate::collectors::Collector;
use crate::registry::StdMetrics;
use hpcmon_metrics::{ColumnFrame, CompId};
use hpcmon_sim::{Rng, SimEngine};

/// Distributed filesystem latency probe.
pub struct FsProbe {
    metrics: StdMetrics,
    rng: Rng,
    /// Multiplicative measurement noise (std dev fraction).
    noise: f64,
}

impl FsProbe {
    /// A probe with 2% measurement noise.
    pub fn new(metrics: StdMetrics, seed: u64) -> FsProbe {
        FsProbe { metrics, rng: Rng::new(seed), noise: 0.02 }
    }
}

impl Collector for FsProbe {
    fn name(&self) -> &str {
        "fs_probe"
    }

    fn rng_state(&self) -> Option<u64> {
        Some(self.rng.state())
    }

    fn set_rng_state(&mut self, state: u64) {
        self.rng = Rng::from_state(state);
    }

    fn collect(&mut self, engine: &SimEngine, frame: &mut ColumnFrame) {
        let fs = engine.filesystem();
        for o in 0..fs.num_osts() {
            let true_latency = fs.ost_latency_ms(o);
            let measured = true_latency * (1.0 + self.rng.normal_with(0.0, self.noise));
            frame.push(self.metrics.probe_ost_latency, CompId::ost(o), measured.max(0.0));
        }
        let mds = fs.mds_latency_ms() * (1.0 + self.rng.normal_with(0.0, self.noise));
        frame.push(self.metrics.probe_mds_latency, CompId::mds(0), mds.max(0.0));
    }
}

/// Network probe pairs: fixed (src, dst) node pairs spread across the
/// machine; each reports transfer-time inflation relative to an idle
/// network (1.0 = idle, 2.0 = the probe's path is half-starved).
pub struct NetworkProbe {
    metrics: StdMetrics,
    pairs: Vec<(u32, u32)>,
}

impl NetworkProbe {
    /// Build `n_pairs` probe pairs spread deterministically across the
    /// machine's node range.
    pub fn spread(metrics: StdMetrics, num_nodes: u32, n_pairs: u32) -> NetworkProbe {
        assert!(num_nodes >= 2, "need at least two nodes to probe");
        let n_pairs = n_pairs.max(1);
        let pairs = (0..n_pairs)
            .map(|i| {
                let src = (i * num_nodes / n_pairs) % num_nodes;
                let dst = (src + num_nodes / 2) % num_nodes;
                (src, if dst == src { (src + 1) % num_nodes } else { dst })
            })
            .collect();
        NetworkProbe { metrics, pairs }
    }
}

impl Collector for NetworkProbe {
    fn name(&self) -> &str {
        "net_probe"
    }

    fn collect(&mut self, engine: &SimEngine, frame: &mut ColumnFrame) {
        for &(src, dst) in &self.pairs {
            let max_util = engine.probe_route_max_utilization(src, dst);
            // A probe transfer through a link at utilization u gets the
            // residual capacity: time inflates by 1/(1-u), capped for
            // fully-saturated paths.
            let inflation = if max_util >= 0.99 { 100.0 } else { 1.0 / (1.0 - max_util) };
            frame.push(self.metrics.probe_net_inflation, CompId::node(src), inflation);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpcmon_metrics::{MetricRegistry, Ts};
    use hpcmon_sim::{AppProfile, FaultKind, JobSpec, SimConfig, SimEngine};

    fn metrics() -> StdMetrics {
        StdMetrics::register(&MetricRegistry::new())
    }

    fn collect_one(c: &mut dyn Collector, engine: &SimEngine) -> ColumnFrame {
        let mut cf = ColumnFrame::new(engine.now());
        c.collect(engine, &mut cf);
        cf
    }

    #[test]
    fn fs_probe_tracks_degradation() {
        let m = metrics();
        let mut engine = SimEngine::new(SimConfig::small());
        let mut probe = FsProbe::new(m, 1);
        engine.step();
        let before = collect_one(&mut probe, &engine);
        let latencies: Vec<f64> = before.of_metric(m.probe_ost_latency).map(|s| s.value).collect();
        let healthy = latencies.iter().sum::<f64>() / latencies.len() as f64;
        engine.schedule_fault(Ts::from_mins(2), FaultKind::OstDegrade { ost: 3, factor: 10.0 });
        engine.step();
        engine.step();
        let after = collect_one(&mut probe, &engine);
        let degraded = after
            .of_metric(m.probe_ost_latency)
            .find(|s| s.key.comp == CompId::ost(3))
            .unwrap()
            .value;
        assert!(degraded > 5.0 * healthy, "healthy {healthy} degraded {degraded}");
    }

    #[test]
    fn fs_probe_has_bounded_noise() {
        let m = metrics();
        let mut engine = SimEngine::new(SimConfig::small());
        engine.step();
        let mut probe = FsProbe::new(m, 2);
        let mut values = Vec::new();
        for _ in 0..100 {
            let f = collect_one(&mut probe, &engine);
            values.push(f.of_metric(m.probe_ost_latency).next().unwrap().value);
        }
        let mean = values.iter().sum::<f64>() / values.len() as f64;
        let spread = values.iter().map(|v| (v - mean).abs()).fold(0.0, f64::max);
        assert!(spread / mean < 0.15, "noise should be small: {}", spread / mean);
    }

    #[test]
    fn network_probe_reports_idle_as_one() {
        let m = metrics();
        let mut engine = SimEngine::new(SimConfig::small());
        engine.step();
        let mut probe = NetworkProbe::spread(m, engine.num_nodes(), 8);
        let frame = collect_one(&mut probe, &engine);
        assert_eq!(frame.of_metric(m.probe_net_inflation).count(), 8);
        assert!(frame.of_metric(m.probe_net_inflation).all(|s| (s.value - 1.0).abs() < 1e-9));
    }

    #[test]
    fn network_probe_detects_congestion() {
        let m = metrics();
        let mut engine = SimEngine::new(SimConfig::small());
        engine.submit_job(JobSpec::new(
            AppProfile::comm_heavy("fft"),
            "u",
            128,
            60 * 60_000,
            Ts::ZERO,
        ));
        engine.step();
        engine.step();
        let mut probe = NetworkProbe::spread(m, engine.num_nodes(), 16);
        let frame = collect_one(&mut probe, &engine);
        let max = frame.of_metric(m.probe_net_inflation).map(|s| s.value).fold(0.0, f64::max);
        assert!(max > 1.05, "machine-wide comm job inflates some probe: {max}");
    }

    #[test]
    fn probe_pairs_are_distinct_endpoints() {
        let m = metrics();
        let probe = NetworkProbe::spread(m, 10, 5);
        for &(a, b) in &probe.pairs {
            assert_ne!(a, b);
            assert!(a < 10 && b < 10);
        }
    }

    #[test]
    #[should_panic(expected = "at least two nodes")]
    fn probe_needs_two_nodes() {
        NetworkProbe::spread(metrics(), 1, 2);
    }
}
