//! The periodic health benchmark suite.
//!
//! LANL runs "a suite of custom tests ... system-wide, on 10 minute
//! intervals" checking configurations, services, mounts, and free memory;
//! NERSC "regularly runs a suite of custom benchmarks that exercise
//! compute, network, and I/O functionality, and publishes performance over
//! time" (Figure 2).  [`BenchmarkSuite`] is both: functional pass/fail
//! checks plus micro-benchmarks whose time-to-solution is published as
//! ordinary metrics, so degradation onsets show up in the same store as
//! everything else.

use crate::registry::StdMetrics;
use hpcmon_metrics::{ColumnFrame, CompId, LogRecord, Severity};
use hpcmon_sim::{Rng, SimEngine};

/// Outcome of one check or benchmark.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchResult {
    /// Check name.
    pub name: String,
    /// Whether the check passed (benchmarks pass unless they time out).
    pub passed: bool,
    /// Time-to-solution in seconds, when the check is a benchmark.
    pub seconds: Option<f64>,
    /// Human-readable detail on failure.
    pub detail: String,
}

/// The suite: samples a deterministic subset of nodes each round.
pub struct BenchmarkSuite {
    metrics: StdMetrics,
    rng: Rng,
    /// How many nodes each functional check samples.
    sample_nodes: u32,
    /// Free-memory floor for the LANL-style check, bytes.
    free_mem_floor: f64,
}

impl BenchmarkSuite {
    /// Baseline seconds for each micro-benchmark on an idle machine.
    pub const COMPUTE_BASE_S: f64 = 30.0;
    /// Memory benchmark baseline.
    pub const MEMORY_BASE_S: f64 = 20.0;
    /// I/O benchmark baseline.
    pub const IO_BASE_S: f64 = 45.0;
    /// Network benchmark baseline.
    pub const NETWORK_BASE_S: f64 = 15.0;
    /// Metadata benchmark baseline.
    pub const METADATA_BASE_S: f64 = 10.0;

    /// Build a suite sampling `sample_nodes` nodes per round.
    pub fn new(metrics: StdMetrics, seed: u64, sample_nodes: u32) -> BenchmarkSuite {
        BenchmarkSuite {
            metrics,
            rng: Rng::new(seed),
            sample_nodes: sample_nodes.max(1),
            free_mem_floor: 4.0 * (1u64 << 30) as f64,
        }
    }

    /// Raw state of the node-sampling RNG, for replay checkpoints.
    pub fn rng_state(&self) -> u64 {
        self.rng.state()
    }

    /// Restore the node-sampling RNG (replay seek).
    pub fn set_rng_state(&mut self, state: u64) {
        self.rng = Rng::from_state(state);
    }

    /// Run every check against the current machine state.  Returns the
    /// results and appends time-to-solution samples plus a pass-rate sample
    /// to `frame`; failures also produce log records.
    pub fn run(
        &mut self,
        engine: &SimEngine,
        frame: &mut ColumnFrame,
        logs: &mut Vec<LogRecord>,
    ) -> Vec<BenchResult> {
        let mut results = Vec::new();
        let nodes = self.pick_nodes(engine);

        // ---- functional checks (LANL style) ----
        let mut svc_fail = Vec::new();
        let mut mount_fail = Vec::new();
        let mut mem_fail = Vec::new();
        for &n in &nodes {
            let node = engine.node(n);
            if !node.services_ok.iter().all(|&s| s) {
                svc_fail.push(n);
            }
            if !node.fs_mounted {
                mount_fail.push(n);
            }
            if node.free_mem_bytes() < self.free_mem_floor {
                mem_fail.push(n);
            }
        }
        results.push(Self::check("services_up", &svc_fail));
        results.push(Self::check("fs_mounted", &mount_fail));
        results.push(Self::check("free_memory", &mem_fail));
        // LANL's burst-buffer configuration check, on machines that have one.
        if let Some(bb) = engine.burst_buffer() {
            let bad: Vec<u32> = (0..bb.num_nodes()).filter(|&i| !bb.node(i).configured).collect();
            results.push(Self::check("bb_configured", &bad));
        }

        // ---- micro-benchmarks (NERSC style) ----
        // Compute: slowed by CPU contention on the sampled nodes.
        let mean_cpu =
            nodes.iter().map(|&n| engine.node(n).cpu_util).sum::<f64>() / nodes.len() as f64;
        let compute = self.jitter(Self::COMPUTE_BASE_S * (1.0 + 0.8 * mean_cpu));
        results.push(Self::bench("compute", compute));

        // Memory: slowed by memory pressure.
        let mean_mem =
            nodes.iter().map(|&n| engine.node(n).mem_util()).sum::<f64>() / nodes.len() as f64;
        let memory = self.jitter(Self::MEMORY_BASE_S * (1.0 + 0.5 * mean_mem));
        results.push(Self::bench("memory", memory));

        // I/O: proportional to current OST latency (worst OST dominates a
        // striped write, which is exactly why NCSA probes per-OST).
        let fs = engine.filesystem();
        let worst_ost = (0..fs.num_osts()).map(|o| fs.ost_latency_ms(o)).fold(0.0, f64::max);
        let io = self.jitter(Self::IO_BASE_S * (worst_ost / fs.config().ost_base_latency_ms));
        results.push(Self::bench("io", io));

        // Metadata: proportional to MDS latency.
        let metadata = self.jitter(
            Self::METADATA_BASE_S * (fs.mds_latency_ms() / fs.config().mds_base_latency_ms),
        );
        results.push(Self::bench("metadata", metadata));

        // Network: inflated by the most congested probe path among sampled
        // node pairs.
        let mut worst_inflation: f64 = 1.0;
        for pair in nodes.windows(2) {
            let u = engine.probe_route_max_utilization(pair[0], pair[1]);
            let inflation = if u >= 0.99 { 100.0 } else { 1.0 / (1.0 - u) };
            worst_inflation = worst_inflation.max(inflation);
        }
        let network = self.jitter(Self::NETWORK_BASE_S * worst_inflation);
        results.push(Self::bench("network", network));

        // ---- publish ----
        let m = &self.metrics;
        for r in &results {
            let metric = match r.name.as_str() {
                "compute" => Some(m.bench_compute),
                "memory" => Some(m.bench_memory),
                "io" => Some(m.bench_io),
                "metadata" => Some(m.bench_metadata),
                "network" => Some(m.bench_network),
                _ => None,
            };
            if let (Some(metric), Some(s)) = (metric, r.seconds) {
                frame.push(metric, CompId::SYSTEM, s);
            }
            if !r.passed {
                logs.push(
                    LogRecord::new(
                        frame.ts,
                        CompId::SYSTEM,
                        Severity::Warning,
                        "bench",
                        format!("health check '{}' failed: {}", r.name, r.detail),
                    )
                    .with_template(1_000),
                );
            }
        }
        let pass_rate = results.iter().filter(|r| r.passed).count() as f64 / results.len() as f64;
        frame.push(m.bench_pass_rate, CompId::SYSTEM, pass_rate);
        results
    }

    fn pick_nodes(&mut self, engine: &SimEngine) -> Vec<u32> {
        let total = engine.num_nodes();
        let k = self.sample_nodes.min(total);
        // Deterministic stratified sample with a rotating offset so rounds
        // cover different nodes.
        let offset = self.rng.below(total as u64) as u32;
        (0..k).map(|i| (offset + i * total / k) % total).collect()
    }

    fn jitter(&mut self, seconds: f64) -> f64 {
        (seconds * (1.0 + self.rng.normal_with(0.0, 0.02))).max(0.01)
    }

    fn check(name: &str, failures: &[u32]) -> BenchResult {
        BenchResult {
            name: name.to_owned(),
            passed: failures.is_empty(),
            seconds: None,
            detail: if failures.is_empty() {
                String::new()
            } else {
                format!("failing nodes: {failures:?}")
            },
        }
    }

    fn bench(name: &str, seconds: f64) -> BenchResult {
        BenchResult {
            name: name.to_owned(),
            passed: true,
            seconds: Some(seconds),
            detail: String::new(),
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

    fn run_suite(
        engine: &SimEngine,
        suite: &mut BenchmarkSuite,
    ) -> (ColumnFrame, Vec<LogRecord>, Vec<BenchResult>) {
        let mut cf = ColumnFrame::new(engine.now());
        let mut logs = Vec::new();
        let results = suite.run(engine, &mut cf, &mut logs);
        (cf, logs, results)
    }

    #[test]
    fn healthy_machine_passes_everything() {
        let m = metrics();
        let mut engine = SimEngine::new(SimConfig::small());
        engine.step();
        let mut suite = BenchmarkSuite::new(m, 1, 16);
        let (frame, logs, results) = run_suite(&engine, &mut suite);
        assert!(results.iter().all(|r| r.passed));
        assert!(logs.is_empty());
        assert_eq!(frame.of_metric(m.bench_pass_rate).next().unwrap().value, 1.0);
        // Benchmarks near their baselines on an idle machine.
        let compute = frame.of_metric(m.bench_compute).next().unwrap().value;
        assert!((compute - BenchmarkSuite::COMPUTE_BASE_S).abs() < 5.0);
    }

    #[test]
    fn dead_service_fails_check_and_logs() {
        let m = metrics();
        let mut engine = SimEngine::new(SimConfig::small());
        for n in 0..engine.num_nodes() {
            engine.schedule_fault(Ts::from_mins(1), FaultKind::ServiceDown { node: n, service: 0 });
        }
        engine.step();
        let mut suite = BenchmarkSuite::new(m, 1, 8);
        let (frame, logs, results) = run_suite(&engine, &mut suite);
        let svc = results.iter().find(|r| r.name == "services_up").unwrap();
        assert!(!svc.passed);
        assert!(svc.detail.contains("failing nodes"));
        assert!(!logs.is_empty());
        let pass = frame.of_metric(m.bench_pass_rate).next().unwrap().value;
        assert!(pass < 1.0);
    }

    #[test]
    fn io_benchmark_tracks_ost_degradation() {
        let m = metrics();
        let mut engine = SimEngine::new(SimConfig::small());
        engine.step();
        let mut suite = BenchmarkSuite::new(m, 1, 8);
        let (frame, _, _) = run_suite(&engine, &mut suite);
        let before = frame.of_metric(m.bench_io).next().unwrap().value;
        engine.schedule_fault(Ts::from_mins(2), FaultKind::OstDegrade { ost: 0, factor: 8.0 });
        engine.step();
        engine.step();
        let (frame, _, _) = run_suite(&engine, &mut suite);
        let after = frame.of_metric(m.bench_io).next().unwrap().value;
        assert!(after > 4.0 * before, "before {before} after {after}");
    }

    #[test]
    fn network_benchmark_tracks_congestion() {
        let m = metrics();
        let mut engine = SimEngine::new(SimConfig::small());
        engine.step();
        let mut suite = BenchmarkSuite::new(m, 1, 16);
        let (frame, _, _) = run_suite(&engine, &mut suite);
        let idle = frame.of_metric(m.bench_network).next().unwrap().value;
        engine.submit_job(JobSpec::new(
            AppProfile::comm_heavy("fft"),
            "u",
            128,
            60 * 60_000,
            Ts::ZERO,
        ));
        engine.step();
        engine.step();
        let (frame, _, _) = run_suite(&engine, &mut suite);
        let busy = frame.of_metric(m.bench_network).next().unwrap().value;
        assert!(busy > idle, "idle {idle} busy {busy}");
    }

    #[test]
    fn memory_floor_check_fails_on_leak() {
        let m = metrics();
        let mut engine = SimEngine::new(SimConfig::small());
        let leak = engine.config().node_mem_bytes * 0.3;
        for n in 0..engine.num_nodes() {
            engine.schedule_fault(
                Ts::from_mins(1),
                FaultKind::MemoryLeak { node: n, bytes_per_tick: leak },
            );
        }
        for _ in 0..5 {
            engine.step();
        }
        let mut suite = BenchmarkSuite::new(m, 1, 8);
        let (_, _, results) = run_suite(&engine, &mut suite);
        assert!(!results.iter().find(|r| r.name == "free_memory").unwrap().passed);
    }

    #[test]
    fn sampled_nodes_rotate_between_rounds() {
        let m = metrics();
        let mut engine = SimEngine::new(SimConfig::small());
        engine.step();
        let mut suite = BenchmarkSuite::new(m, 7, 4);
        let a = suite.pick_nodes(&engine);
        let b = suite.pick_nodes(&engine);
        assert_ne!(a, b, "rotating offset changes coverage");
        assert!(a.iter().all(|&n| n < engine.num_nodes()));
    }

    #[test]
    fn results_are_deterministic_for_seed() {
        let m = metrics();
        let mut engine = SimEngine::new(SimConfig::small());
        engine.step();
        let run = |seed| {
            let mut suite = BenchmarkSuite::new(m, seed, 8);
            let (frame, _, _) = run_suite(&engine, &mut suite);
            let v = frame.of_metric(m.bench_compute).next().unwrap().value;
            v
        };
        assert_eq!(run(5), run(5));
    }
}
