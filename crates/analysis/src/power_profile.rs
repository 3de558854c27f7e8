//! KAUST-style power-profile analysis.
//!
//! Paper §II-7: power profiles of applications are "repeatable enough that
//! they can, through profiling, characterization, continuous monitoring,
//! and comparison against power profiles of known good application runs,
//! identify problems with the system and applications.  Anomalous
//! power-use behaviors within a job can also be used to detect problems
//! such as hung nodes or load imbalance."
//!
//! Two tools: [`PowerProfileLibrary`] stores a normalized reference
//! profile per application and scores new runs against it;
//! [`ImbalanceDetector`] watches per-cabinet power for the Figure 3
//! signature (large cabinet-to-cabinet variation while total draw sags).

use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Number of normalized time buckets per stored profile.
pub const PROFILE_BUCKETS: usize = 32;

/// Resample a run's mean-power series into [`PROFILE_BUCKETS`] normalized
/// time buckets (so runs of different lengths compare).
pub(crate) fn normalize_profile(series: &[f64]) -> Vec<f64> {
    assert!(!series.is_empty(), "cannot normalize an empty profile");
    (0..PROFILE_BUCKETS)
        .map(|b| {
            let lo = b * series.len() / PROFILE_BUCKETS;
            let hi = (((b + 1) * series.len()).div_ceil(PROFILE_BUCKETS)).min(series.len());
            let hi = hi.max(lo + 1).min(series.len());
            let slice = &series[lo.min(series.len() - 1)..hi];
            slice.iter().sum::<f64>() / slice.len() as f64
        })
        .collect()
}

/// Verdict from comparing a run against its reference.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ProfileVerdict {
    /// Mean absolute deviation as a fraction of the reference mean.
    pub deviation: f64,
    /// Whether the run is within tolerance of the known-good profile.
    pub matches: bool,
}

/// Library of known-good application power profiles.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct PowerProfileLibrary {
    profiles: HashMap<String, Vec<f64>>,
    /// Relative deviation above which a run is flagged.
    pub tolerance: f64,
}

impl PowerProfileLibrary {
    /// Library with a 10% deviation tolerance.
    pub fn new() -> PowerProfileLibrary {
        PowerProfileLibrary { profiles: HashMap::new(), tolerance: 0.10 }
    }

    /// Record a known-good run (mean node power per tick).
    pub fn record_reference(&mut self, app: &str, series: &[f64]) {
        self.profiles.insert(app.to_owned(), normalize_profile(series));
    }

    /// Compare a run against the stored reference; `None` when the app has
    /// no reference yet.
    pub fn compare(&self, app: &str, series: &[f64]) -> Option<ProfileVerdict> {
        let reference = self.profiles.get(app)?;
        let run = normalize_profile(series);
        let ref_mean = reference.iter().sum::<f64>() / reference.len() as f64;
        if ref_mean <= 0.0 {
            return Some(ProfileVerdict { deviation: 0.0, matches: true });
        }
        let mad = reference.iter().zip(&run).map(|(r, x)| (r - x).abs()).sum::<f64>()
            / reference.len() as f64;
        let deviation = mad / ref_mean;
        Some(ProfileVerdict { deviation, matches: deviation <= self.tolerance })
    }
}

/// One tick's imbalance assessment.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ImbalanceReading {
    /// Max/min cabinet power ratio (∞-safe: min clamped above zero).
    pub max_min_ratio: f64,
    /// Coefficient of variation across cabinets.
    pub cv: f64,
    /// Whether this tick is flagged as imbalanced.
    pub flagged: bool,
}

/// Watches per-cabinet power for load imbalance (Figure 3: "power usage
/// variation of up to 3 times was observed between different cabinets").
#[derive(Debug, Clone, Copy)]
pub struct ImbalanceDetector {
    /// Flag when max/min exceeds this (KAUST saw 3×; default flags at 2×).
    pub ratio_threshold: f64,
    /// Ignore ticks where total power is below this (idle machine).
    pub min_total_w: f64,
}

impl ImbalanceDetector {
    /// Default thresholds.
    pub fn new() -> ImbalanceDetector {
        ImbalanceDetector { ratio_threshold: 2.0, min_total_w: 1.0 }
    }

    /// Assess one tick of per-cabinet power.
    pub fn assess(&self, cabinet_power_w: &[f64]) -> ImbalanceReading {
        if cabinet_power_w.len() < 2 {
            return ImbalanceReading { max_min_ratio: 1.0, cv: 0.0, flagged: false };
        }
        let total: f64 = cabinet_power_w.iter().sum();
        let max = cabinet_power_w.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let min = cabinet_power_w.iter().copied().fold(f64::INFINITY, f64::min).max(1e-9);
        let mean = total / cabinet_power_w.len() as f64;
        let var = cabinet_power_w.iter().map(|p| (p - mean) * (p - mean)).sum::<f64>()
            / cabinet_power_w.len() as f64;
        let cv = if mean > 0.0 { var.sqrt() / mean } else { 0.0 };
        let ratio = max / min;
        ImbalanceReading {
            max_min_ratio: ratio,
            cv,
            flagged: total >= self.min_total_w && ratio > self.ratio_threshold,
        }
    }
}

impl Default for ImbalanceDetector {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalize_fixed_buckets() {
        let series: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let p = normalize_profile(&series);
        assert_eq!(p.len(), PROFILE_BUCKETS);
        // Monotone input stays monotone after bucketing.
        assert!(p.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn normalize_short_series() {
        let p = normalize_profile(&[5.0]);
        assert_eq!(p.len(), PROFILE_BUCKETS);
        assert!(p.iter().all(|&v| v == 5.0));
        let p = normalize_profile(&[1.0, 3.0]);
        assert_eq!(p.len(), PROFILE_BUCKETS);
        assert!(p[0] <= p[PROFILE_BUCKETS - 1]);
    }

    #[test]
    #[should_panic(expected = "empty profile")]
    fn normalize_empty_rejected() {
        normalize_profile(&[]);
    }

    #[test]
    fn matching_run_passes() {
        let mut lib = PowerProfileLibrary::new();
        let reference: Vec<f64> = (0..60).map(|i| 300.0 + 20.0 * ((i / 10) % 2) as f64).collect();
        lib.record_reference("lammps", &reference);
        assert!(lib.profiles.contains_key("lammps"));
        // Same shape, slightly different length and noise.
        let run: Vec<f64> = (0..55).map(|i| 302.0 + 20.0 * ((i / 9) % 2) as f64).collect();
        let v = lib.compare("lammps", &run).unwrap();
        assert!(v.matches, "deviation {}", v.deviation);
    }

    #[test]
    fn hung_node_run_fails_match() {
        let mut lib = PowerProfileLibrary::new();
        let reference = vec![350.0; 60];
        lib.record_reference("lammps", &reference);
        // Run where power collapses halfway (hung nodes draw idle power).
        let mut run = vec![350.0; 30];
        run.extend(vec![110.0; 30]);
        let v = lib.compare("lammps", &run).unwrap();
        assert!(!v.matches);
        assert!(v.deviation > 0.2);
    }

    #[test]
    fn unknown_app_has_no_verdict() {
        let lib = PowerProfileLibrary::new();
        assert!(lib.compare("mystery", &[1.0]).is_none());
        assert!(lib.profiles.is_empty());
    }

    #[test]
    fn imbalance_flags_three_x_variation() {
        let det = ImbalanceDetector::new();
        // Figure 3 shape: some cabinets at full draw, others near idle.
        let cabs = vec![60_000.0, 58_000.0, 20_000.0, 21_000.0];
        let r = det.assess(&cabs);
        assert!(r.flagged);
        assert!(r.max_min_ratio > 2.5, "ratio {}", r.max_min_ratio);
        assert!(r.cv > 0.3);
    }

    #[test]
    fn balanced_load_not_flagged() {
        let det = ImbalanceDetector::new();
        let cabs = vec![55_000.0, 54_000.0, 56_000.0, 55_500.0];
        let r = det.assess(&cabs);
        assert!(!r.flagged);
        assert!(r.max_min_ratio < 1.1);
    }

    #[test]
    fn idle_machine_not_flagged() {
        let det = ImbalanceDetector { ratio_threshold: 2.0, min_total_w: 10_000.0 };
        // Ratios are huge but the machine is essentially off.
        let r = det.assess(&[10.0, 1.0]);
        assert!(!r.flagged, "idle noise is not imbalance");
        assert!(r.max_min_ratio > 2.0);
    }

    #[test]
    fn single_cabinet_is_trivially_balanced() {
        let det = ImbalanceDetector::new();
        let r = det.assess(&[42_000.0]);
        assert!(!r.flagged);
        assert_eq!(r.max_min_ratio, 1.0);
    }
}
