//! Workload model: phased application profiles and job specifications.
//!
//! KAUST (paper §II-7) relies on application power profiles being
//! "repeatable enough" to detect problems by comparison against known-good
//! runs; HLRS (§II-10) classifies aggressors and victims by *runtime
//! variability*.  Both require applications whose resource demands are a
//! deterministic function of execution phase plus bounded noise — which is
//! what [`AppProfile`] provides.

use crate::rng::Rng;
use hpcmon_metrics::Ts;
use serde::{Deserialize, Serialize};

/// How a job's ranks communicate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CommPattern {
    /// Each rank sends to its successor (halo exchange on a 1D ring).
    Ring,
    /// Each rank sends to `k` pseudo-random partners (spectral/FFT-like).
    Random(u8),
    /// No inter-node communication (embarrassingly parallel).
    None,
}

/// One execution phase of an application, with per-node demand rates.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Phase {
    /// Phase length in ms of useful work (stretches under contention).
    pub duration_ms: u64,
    /// Target CPU utilization in `[0, 1]`.
    pub cpu: f64,
    /// Target GPU utilization in `[0, 1]` (ignored on GPU-less nodes).
    pub gpu: f64,
    /// Fraction of node memory used during this phase.
    pub mem_fraction: f64,
    /// Network bytes per node per second offered to the HSN.
    pub net_bytes_per_sec: f64,
    /// Filesystem read bytes per node per second.
    pub read_bytes_per_sec: f64,
    /// Filesystem write bytes per node per second.
    pub write_bytes_per_sec: f64,
    /// Metadata operations per node per second.
    pub metadata_ops_per_sec: f64,
}

/// A named, repeatable application profile.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AppProfile {
    /// Application name (the key for the power-profile library).
    pub name: String,
    /// Phases executed in order (cycled if the job outlives one pass).
    pub phases: Vec<Phase>,
    /// Communication pattern.
    pub comm: CommPattern,
    /// Multiplicative demand noise (std dev as a fraction, e.g. 0.03).
    pub noise: f64,
    /// Optional load-imbalance window: `(from_ms, to_ms, idle_fraction)`
    /// relative to job start — during the window, `idle_fraction` of the
    /// job's nodes sit idle (the Figure 3 pathology).
    pub imbalance: Option<(u64, u64, f64)>,
}

impl AppProfile {
    /// Total per-pass duration.
    pub(crate) fn pass_duration_ms(&self) -> u64 {
        self.phases.iter().map(|p| p.duration_ms).sum()
    }

    /// The phase active after `elapsed_ms` of useful work (phases cycle).
    pub fn phase_at(&self, elapsed_ms: u64) -> &Phase {
        assert!(!self.phases.is_empty(), "profile must have phases");
        let pass = self.pass_duration_ms();
        if pass == 0 {
            return &self.phases[0];
        }
        let mut t = elapsed_ms % pass;
        for p in &self.phases {
            if t < p.duration_ms {
                return p;
            }
            t -= p.duration_ms;
        }
        self.phases.last().expect("non-empty")
    }

    /// Whether a given rank idles at `elapsed_ms` due to the imbalance
    /// window.  Ranks in the *upper* `idle_fraction` of the job idle, so the
    /// idlers cluster on the same cabinets under contiguous placement —
    /// which is what makes the per-cabinet power variation of Figure 3.
    pub(crate) fn rank_idles(&self, rank: usize, n_ranks: usize, elapsed_ms: u64) -> bool {
        match self.imbalance {
            Some((from, to, frac)) if elapsed_ms >= from && elapsed_ms < to => {
                rank >= ((1.0 - frac) * n_ranks as f64).round() as usize
            }
            _ => false,
        }
    }

    /// Apply profile noise to a demand value.
    pub(crate) fn jitter(&self, value: f64, rng: &mut Rng) -> f64 {
        if self.noise <= 0.0 {
            return value;
        }
        (value * (1.0 + rng.normal_with(0.0, self.noise))).max(0.0)
    }

    // ----- canonical profiles used by the experiments -----

    /// Compute-bound stencil code: high CPU, modest halo traffic.
    pub fn compute_heavy(name: &str) -> AppProfile {
        AppProfile {
            name: name.to_owned(),
            phases: vec![Phase {
                duration_ms: 10 * 60_000,
                cpu: 0.95,
                gpu: 0.0,
                mem_fraction: 0.5,
                net_bytes_per_sec: 50e6,
                read_bytes_per_sec: 0.0,
                write_bytes_per_sec: 1e6,
                metadata_ops_per_sec: 0.1,
            }],
            comm: CommPattern::Ring,
            noise: 0.02,
            imbalance: None,
        }
    }

    /// Communication-bound code: saturating all-to-all-ish traffic.  These
    /// are the HLRS "victims" when the network is contended.
    pub fn comm_heavy(name: &str) -> AppProfile {
        AppProfile {
            name: name.to_owned(),
            phases: vec![Phase {
                duration_ms: 10 * 60_000,
                cpu: 0.6,
                gpu: 0.0,
                mem_fraction: 0.4,
                net_bytes_per_sec: 2e9,
                read_bytes_per_sec: 0.0,
                write_bytes_per_sec: 0.0,
                metadata_ops_per_sec: 0.1,
            }],
            comm: CommPattern::Random(4),
            noise: 0.02,
            imbalance: None,
        }
    }

    /// Checkpointing simulation: compute phases punctuated by write bursts.
    pub fn checkpointing(name: &str) -> AppProfile {
        AppProfile {
            name: name.to_owned(),
            phases: vec![
                Phase {
                    duration_ms: 8 * 60_000,
                    cpu: 0.9,
                    gpu: 0.5,
                    mem_fraction: 0.6,
                    net_bytes_per_sec: 100e6,
                    read_bytes_per_sec: 0.0,
                    write_bytes_per_sec: 0.0,
                    metadata_ops_per_sec: 0.2,
                },
                Phase {
                    duration_ms: 2 * 60_000,
                    cpu: 0.2,
                    gpu: 0.0,
                    mem_fraction: 0.6,
                    net_bytes_per_sec: 10e6,
                    read_bytes_per_sec: 0.0,
                    write_bytes_per_sec: 500e6,
                    metadata_ops_per_sec: 20.0,
                },
            ],
            comm: CommPattern::Ring,
            noise: 0.02,
            imbalance: None,
        }
    }

    /// I/O storm: a reader that hammers the filesystem (the Figure 4 culprit).
    pub fn io_storm(name: &str) -> AppProfile {
        AppProfile {
            name: name.to_owned(),
            phases: vec![Phase {
                duration_ms: 10 * 60_000,
                cpu: 0.3,
                gpu: 0.0,
                mem_fraction: 0.3,
                net_bytes_per_sec: 10e6,
                read_bytes_per_sec: 3e9,
                write_bytes_per_sec: 100e6,
                metadata_ops_per_sec: 200.0,
            }],
            comm: CommPattern::None,
            noise: 0.05,
            imbalance: None,
        }
    }
}

/// A job submission: which application, how many nodes, how much work.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobSpec {
    /// Application profile to run.
    pub app: AppProfile,
    /// Submitting user.
    pub user: String,
    /// Nodes requested.
    pub nodes: u32,
    /// Useful work to perform, in ms of uncontended execution.  Actual
    /// runtime stretches when the network or filesystem starve the app.
    pub work_ms: u64,
    /// Submission time.
    pub submit: Ts,
}

impl JobSpec {
    /// Convenience constructor.
    pub fn new(app: AppProfile, user: &str, nodes: u32, work_ms: u64, submit: Ts) -> JobSpec {
        assert!(nodes >= 1, "a job needs at least one node");
        JobSpec { app, user: user.to_owned(), nodes, work_ms, submit }
    }
}

/// Generates a randomized mix of jobs for steady-state experiments.
#[derive(Debug, Clone)]
pub struct WorkloadGenerator {
    apps: Vec<AppProfile>,
    users: Vec<String>,
    min_nodes: u32,
    max_nodes: u32,
    min_work_ms: u64,
    max_work_ms: u64,
}

impl WorkloadGenerator {
    /// A generator over the canonical application mix.
    pub fn standard(min_nodes: u32, max_nodes: u32) -> WorkloadGenerator {
        assert!(min_nodes >= 1 && max_nodes >= min_nodes);
        WorkloadGenerator {
            apps: vec![
                AppProfile::compute_heavy("stencil3d"),
                AppProfile::comm_heavy("spectral_fft"),
                AppProfile::checkpointing("climate_ckpt"),
            ],
            users: vec!["alice".into(), "bob".into(), "carol".into(), "dave".into()],
            min_nodes,
            max_nodes,
            min_work_ms: 20 * 60_000,
            max_work_ms: 120 * 60_000,
        }
    }

    /// Override the work range.
    pub fn with_work_range(mut self, min_ms: u64, max_ms: u64) -> WorkloadGenerator {
        assert!(min_ms > 0 && max_ms >= min_ms);
        self.min_work_ms = min_ms;
        self.max_work_ms = max_ms;
        self
    }

    /// Draw one job submitted at `submit`.
    pub fn next_job(&self, submit: Ts, rng: &mut Rng) -> JobSpec {
        let app = rng.pick(&self.apps).clone();
        let user = rng.pick(&self.users).clone();
        let nodes = self.min_nodes + rng.below((self.max_nodes - self.min_nodes + 1) as u64) as u32;
        let work = self.min_work_ms + rng.below(self.max_work_ms - self.min_work_ms + 1);
        JobSpec::new(app, &user, nodes, work, submit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_lookup_cycles() {
        let app = AppProfile::checkpointing("x");
        let pass = app.pass_duration_ms();
        assert_eq!(pass, 10 * 60_000);
        // First phase for the first 8 minutes.
        assert_eq!(app.phase_at(0).cpu, 0.9);
        assert_eq!(app.phase_at(7 * 60_000).cpu, 0.9);
        // Checkpoint phase afterwards.
        assert_eq!(app.phase_at(9 * 60_000).cpu, 0.2);
        // Cycles into the second pass.
        assert_eq!(app.phase_at(pass + 60_000).cpu, 0.9);
    }

    #[test]
    fn imbalance_window_idles_upper_ranks() {
        let mut app = AppProfile::compute_heavy("x");
        app.imbalance = Some((60_000, 120_000, 0.5));
        // Outside the window nobody idles.
        assert!(!app.rank_idles(7, 8, 0));
        assert!(!app.rank_idles(7, 8, 120_000));
        // Inside, the upper half idles.
        assert!(app.rank_idles(4, 8, 90_000));
        assert!(app.rank_idles(7, 8, 90_000));
        assert!(!app.rank_idles(3, 8, 90_000));
    }

    #[test]
    fn jitter_zero_noise_is_identity() {
        let mut app = AppProfile::compute_heavy("x");
        app.noise = 0.0;
        let mut rng = Rng::new(1);
        assert_eq!(app.jitter(5.0, &mut rng), 5.0);
    }

    #[test]
    fn jitter_is_bounded_noise() {
        let app = AppProfile::compute_heavy("x"); // noise = 0.02
        let mut rng = Rng::new(2);
        let mean: f64 = (0..10_000).map(|_| app.jitter(100.0, &mut rng)).sum::<f64>() / 10_000.0;
        assert!((mean - 100.0).abs() < 1.0, "mean {mean}");
    }

    #[test]
    fn jitter_never_negative() {
        let mut app = AppProfile::compute_heavy("x");
        app.noise = 5.0; // absurd noise to force negative draws
        let mut rng = Rng::new(3);
        for _ in 0..1_000 {
            assert!(app.jitter(1.0, &mut rng) >= 0.0);
        }
    }

    #[test]
    fn generator_respects_bounds() {
        let g = WorkloadGenerator::standard(2, 16).with_work_range(1_000, 2_000);
        let mut rng = Rng::new(4);
        for _ in 0..200 {
            let j = g.next_job(Ts::ZERO, &mut rng);
            assert!((2..=16).contains(&j.nodes));
            assert!((1_000..=2_000).contains(&j.work_ms));
            assert!(!j.user.is_empty());
            assert!(!j.app.phases.is_empty());
        }
    }

    #[test]
    fn generator_is_deterministic() {
        let g = WorkloadGenerator::standard(1, 8);
        let mut r1 = Rng::new(9);
        let mut r2 = Rng::new(9);
        for _ in 0..50 {
            assert_eq!(g.next_job(Ts::ZERO, &mut r1), g.next_job(Ts::ZERO, &mut r2));
        }
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn zero_node_job_rejected() {
        JobSpec::new(AppProfile::compute_heavy("x"), "u", 0, 1, Ts::ZERO);
    }
}
