//! Streaming anomaly and changepoint detectors.
//!
//! NERSC's Figure 2 workflow — "occurrences and onset of performance
//! problems are apparent in visualizations tracking performance over time"
//! — is automated here: z-score and MAD detectors flag deviations from a
//! learned baseline, a CUSUM detector finds sustained level shifts
//! (degradation onsets), and a plain threshold detector covers
//! requirements like the ASHRAE gas limit.

use crate::stats::RollingStats;
use hpcmon_metrics::{StateHash, Ts};
use serde::{Deserialize, Serialize};

/// A flagged observation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Anomaly {
    /// When it was observed.
    pub ts: Ts,
    /// The offending value.
    pub value: f64,
    /// Detector-specific score (z-score, MAD multiples, CUSUM sum, ...).
    pub score: f64,
}

/// A streaming detector over one series.
pub trait Detector {
    /// Observe one point; return an anomaly if this point is flagged.
    fn observe(&mut self, ts: Ts, value: f64) -> Option<Anomaly>;
    /// Reset learned state (e.g. after a known maintenance window).
    fn reset(&mut self);
    /// 64-bit digest of learned state, folded into the system's per-tick
    /// analysis sub-hash.  Stateless detectors keep the default.
    fn state_digest(&self) -> u64 {
        0
    }
    /// Serialize learned state for a flight-recorder checkpoint.  `None`
    /// (the default) means the detector is stateless or opts out — replay
    /// seek then resumes it from a fresh baseline, which the divergence
    /// verifier will surface if it matters.
    fn snapshot_state(&self) -> Option<serde::Value> {
        None
    }
    /// Restore learned state captured by [`Detector::snapshot_state`].
    /// Ignoring an unrecognized value is correct: the digest check catches
    /// any resulting divergence.
    fn restore_state(&mut self, _state: &serde::Value) {}
}

/// Flags values more than `threshold` standard deviations from the rolling
/// window mean.  Flagged values are not folded into the baseline, so a
/// fault cannot teach the detector that broken is normal.
#[derive(Debug, Clone)]
pub struct ZScoreDetector {
    stats: RollingStats,
    window: usize,
    threshold: f64,
    min_samples: usize,
    /// Absolute floor on σ so a perfectly flat baseline doesn't flag noise.
    sigma_floor: f64,
}

impl ZScoreDetector {
    /// Window size and z threshold (e.g. 60, 3.0).
    pub fn new(window: usize, threshold: f64) -> ZScoreDetector {
        ZScoreDetector {
            stats: RollingStats::new(window),
            window,
            threshold,
            min_samples: (window / 4).max(8),
            sigma_floor: 1e-9,
        }
    }

    /// Set the σ floor (units of the series).
    pub fn with_sigma_floor(mut self, floor: f64) -> ZScoreDetector {
        self.sigma_floor = floor;
        self
    }
}

impl Detector for ZScoreDetector {
    fn observe(&mut self, ts: Ts, value: f64) -> Option<Anomaly> {
        if self.stats.len() >= self.min_samples {
            let mean = self.stats.mean().expect("non-empty");
            let sigma = self.stats.std_dev().expect("non-empty").max(self.sigma_floor);
            let z = (value - mean) / sigma;
            if z.abs() > self.threshold {
                return Some(Anomaly { ts, value, score: z });
            }
        }
        self.stats.push(value);
        None
    }

    fn reset(&mut self) {
        self.stats = RollingStats::new(self.window);
    }

    fn state_digest(&self) -> u64 {
        let mut h = StateHash::new(0xA1);
        self.stats.digest_into(&mut h);
        h.finish()
    }

    fn snapshot_state(&self) -> Option<serde::Value> {
        self.stats.to_value().ok()
    }

    fn restore_state(&mut self, state: &serde::Value) {
        if let Ok(s) = RollingStats::from_value(state) {
            self.stats = s;
        }
    }
}

/// Robust variant: flags values more than `threshold` scaled MADs from the
/// rolling median.  Survives windows already containing outliers.
#[derive(Debug, Clone)]
pub struct MadDetector {
    stats: RollingStats,
    window: usize,
    threshold: f64,
    min_samples: usize,
    mad_floor: f64,
}

impl MadDetector {
    /// Consistency constant for normally distributed data.
    const MAD_TO_SIGMA: f64 = 1.4826;

    /// Window size and threshold in σ-equivalents.
    pub fn new(window: usize, threshold: f64) -> MadDetector {
        MadDetector {
            stats: RollingStats::new(window),
            window,
            threshold,
            min_samples: (window / 4).max(8),
            mad_floor: 1e-9,
        }
    }

    /// Set the MAD floor (units of the series).
    pub fn with_mad_floor(mut self, floor: f64) -> MadDetector {
        self.mad_floor = floor;
        self
    }
}

impl Detector for MadDetector {
    fn observe(&mut self, ts: Ts, value: f64) -> Option<Anomaly> {
        if self.stats.len() >= self.min_samples {
            let median = self.stats.median().expect("non-empty");
            let mad = self.stats.mad().expect("non-empty").max(self.mad_floor);
            let score = (value - median) / (mad * Self::MAD_TO_SIGMA);
            if score.abs() > self.threshold {
                return Some(Anomaly { ts, value, score });
            }
        }
        self.stats.push(value);
        None
    }

    fn reset(&mut self) {
        self.stats = RollingStats::new(self.window);
    }

    fn state_digest(&self) -> u64 {
        let mut h = StateHash::new(0xA2);
        self.stats.digest_into(&mut h);
        h.finish()
    }

    fn snapshot_state(&self) -> Option<serde::Value> {
        self.stats.to_value().ok()
    }

    fn restore_state(&mut self, state: &serde::Value) {
        if let Ok(s) = RollingStats::from_value(state) {
            self.stats = s;
        }
    }
}

/// Fixed-bound detector: fires whenever the value exceeds the limit.
/// The ASHRAE case.
#[derive(Debug, Clone, Copy)]
pub struct ThresholdDetector {
    limit: f64,
}

impl ThresholdDetector {
    /// Fire when value exceeds `limit`.
    pub fn above(limit: f64) -> ThresholdDetector {
        ThresholdDetector { limit }
    }
}

impl Detector for ThresholdDetector {
    fn observe(&mut self, ts: Ts, value: f64) -> Option<Anomaly> {
        (value > self.limit).then_some(Anomaly { ts, value, score: value - self.limit })
    }

    fn reset(&mut self) {}
}

/// One-sided CUSUM changepoint detector: accumulates positive deviations
/// beyond a `slack` margin from a learned baseline; fires when the sum
/// exceeds `decision`.  Finds *sustained* shifts that per-point detectors
/// dismiss as noise — the shape of a slow filesystem degradation onset.
#[derive(Debug, Clone)]
pub struct CusumDetector {
    baseline: RollingStats,
    baseline_window: usize,
    slack_sigmas: f64,
    decision_sigmas: f64,
    sum: f64,
    frozen_mean: Option<(f64, f64)>,
}

impl CusumDetector {
    /// Learn the baseline over `baseline_window` points, then accumulate
    /// deviations beyond `slack_sigmas`, firing at `decision_sigmas` of
    /// accumulated excess.
    pub fn new(baseline_window: usize, slack_sigmas: f64, decision_sigmas: f64) -> CusumDetector {
        CusumDetector {
            baseline: RollingStats::new(baseline_window),
            baseline_window,
            slack_sigmas,
            decision_sigmas,
            sum: 0.0,
            frozen_mean: None,
        }
    }
}

impl Detector for CusumDetector {
    fn observe(&mut self, ts: Ts, value: f64) -> Option<Anomaly> {
        match self.frozen_mean {
            None => {
                self.baseline.push(value);
                if self.baseline.is_full() {
                    let mean = self.baseline.mean().expect("full");
                    let sigma = self.baseline.std_dev().expect("full").max(1e-9);
                    self.frozen_mean = Some((mean, sigma));
                }
                None
            }
            Some((mean, sigma)) => {
                let z = (value - mean) / sigma;
                self.sum = (self.sum + z - self.slack_sigmas).max(0.0);
                if self.sum > self.decision_sigmas {
                    let score = self.sum;
                    self.sum = 0.0;
                    Some(Anomaly { ts, value, score })
                } else {
                    None
                }
            }
        }
    }

    fn reset(&mut self) {
        self.baseline = RollingStats::new(self.baseline_window);
        self.sum = 0.0;
        self.frozen_mean = None;
    }

    fn state_digest(&self) -> u64 {
        let mut h = StateHash::new(0xA3);
        self.baseline.digest_into(&mut h);
        h.f64(self.sum);
        match self.frozen_mean {
            Some((mean, sigma)) => h.f64(mean).f64(sigma),
            None => h.u64(u64::MAX),
        };
        h.finish()
    }

    fn snapshot_state(&self) -> Option<serde::Value> {
        CusumState { baseline: self.baseline.clone(), sum: self.sum, frozen_mean: self.frozen_mean }
            .to_value()
            .ok()
    }

    fn restore_state(&mut self, state: &serde::Value) {
        if let Ok(s) = CusumState::from_value(state) {
            self.baseline = s.baseline;
            self.sum = s.sum;
            self.frozen_mean = s.frozen_mean;
        }
    }
}

/// Checkpointed CUSUM learned state.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct CusumState {
    baseline: RollingStats,
    sum: f64,
    frozen_mean: Option<(f64, f64)>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn feed(det: &mut dyn Detector, values: &[f64]) -> Vec<(usize, Anomaly)> {
        values
            .iter()
            .enumerate()
            .filter_map(|(i, &v)| det.observe(Ts::from_mins(i as u64), v).map(|a| (i, a)))
            .collect()
    }

    fn steady_then_spike() -> Vec<f64> {
        let mut v: Vec<f64> = (0..50).map(|i| 100.0 + ((i * 37) % 10) as f64 * 0.1).collect();
        v.push(200.0);
        v.extend((0..10).map(|i| 100.0 + ((i * 37) % 10) as f64 * 0.1));
        v
    }

    #[test]
    fn zscore_flags_spike_only() {
        let mut det = ZScoreDetector::new(32, 4.0);
        let hits = feed(&mut det, &steady_then_spike());
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].0, 50);
        assert!(hits[0].1.score > 4.0);
    }

    #[test]
    fn zscore_does_not_learn_from_anomalies() {
        let mut det = ZScoreDetector::new(32, 4.0);
        let mut values: Vec<f64> = (0..40).map(|i| 100.0 + (i % 5) as f64 * 0.1).collect();
        // A sustained fault: every one of these should flag, because the
        // baseline must not absorb flagged values.
        values.extend(std::iter::repeat_n(300.0, 10));
        let hits = feed(&mut det, &values);
        assert_eq!(hits.len(), 10);
    }

    #[test]
    fn zscore_quiet_during_warmup() {
        let mut det = ZScoreDetector::new(32, 3.0);
        let hits = feed(&mut det, &[1.0, 100.0, 5.0, 80.0]);
        assert!(hits.is_empty(), "min_samples suppresses early noise");
    }

    #[test]
    fn zscore_sigma_floor_suppresses_flat_noise() {
        // A perfectly flat baseline then a tiny wiggle: without a floor
        // this flags; with a floor it does not.
        let mut values = vec![5.0; 40];
        values.push(5.001);
        let mut with_floor = ZScoreDetector::new(32, 3.0).with_sigma_floor(0.1);
        assert!(feed(&mut with_floor, &values).is_empty());
        let mut without = ZScoreDetector::new(32, 3.0);
        assert_eq!(feed(&mut without, &values).len(), 1);
    }

    #[test]
    fn mad_tolerates_polluted_window() {
        // Window contains occasional outliers; MAD stays calm about
        // normal values and still flags the monster.
        let mut values = Vec::new();
        for i in 0..60 {
            values.push(if i % 10 == 9 { 130.0 } else { 100.0 + (i % 3) as f64 });
        }
        values.push(500.0);
        let mut det = MadDetector::new(32, 6.0).with_mad_floor(0.5);
        let hits = feed(&mut det, &values);
        assert!(hits.iter().any(|(i, _)| *i == 60), "monster flagged");
        // The mild 130s may or may not flag depending on window phase, but
        // normal 100-102 values never do.
        assert!(hits.iter().all(|(i, _)| values[*i] >= 130.0));
    }

    #[test]
    fn threshold_above() {
        let mut above = ThresholdDetector::above(10.0);
        assert!(above.observe(Ts(0), 10.5).is_some());
        assert!(above.observe(Ts(1), 10.0).is_none());
    }

    #[test]
    fn cusum_finds_small_sustained_shift() {
        // A +1.5σ shift: far too small for a z=4 detector, but sustained.
        let mut values: Vec<f64> = (0..40).map(|i| 10.0 + (i % 4) as f64 * 0.1).collect();
        let sigma = {
            let mut s = RollingStats::new(40);
            values.iter().for_each(|&v| s.push(v));
            s.std_dev().unwrap()
        };
        values.extend((0..30).map(|i| 10.15 + 1.5 * sigma + (i % 4) as f64 * 0.1));
        let mut cusum = CusumDetector::new(40, 0.5, 8.0);
        let hits = feed(&mut cusum, &values);
        assert!(!hits.is_empty(), "sustained shift detected");
        let onset = hits[0].0;
        assert!((40..60).contains(&onset), "onset near the true changepoint, got {onset}");

        let mut z = ZScoreDetector::new(40, 4.0);
        assert!(feed(&mut z, &values).is_empty(), "z-score misses the small shift");
    }

    #[test]
    fn cusum_ignores_transient_spike() {
        // A single ~7σ blip: loud enough for a z-score detector, but not a
        // sustained shift, so CUSUM (decision = 20σ of accumulation) must
        // stay quiet and decay back to zero on the normal values after.
        let mut values: Vec<f64> = (0..40).map(|i| 10.0 + (i % 4) as f64 * 0.1).collect();
        values.push(11.0); // single spike
        values.extend((0..20).map(|i| 10.0 + (i % 4) as f64 * 0.1));
        let mut cusum = CusumDetector::new(40, 0.5, 20.0);
        assert!(feed(&mut cusum, &values).is_empty());
        assert!(cusum.sum < 5.0, "accumulator stays far from the decision bound");
    }

    #[test]
    fn reset_clears_state() {
        let mut det = ZScoreDetector::new(16, 3.0);
        for i in 0..16 {
            det.observe(Ts(i), 100.0 + (i % 3) as f64);
        }
        det.reset();
        // After reset the warmup applies again.
        assert!(det.observe(Ts(99), 1_000.0).is_none());

        let mut cusum = CusumDetector::new(8, 0.5, 5.0);
        for i in 0..8 {
            cusum.observe(Ts(i), 1.0 + (i % 2) as f64 * 0.01);
        }
        cusum.reset();
        assert_eq!(cusum.sum, 0.0);
    }
}
