//! Trend analysis and time-to-threshold forecasting.
//!
//! ALCF "performs trend analysis ... on component error rates (e.g., High
//! Speed Network link Bit Error Rates)" (paper §II-8); the paper also
//! notes sites' long-standing interest in "early detection and,
//! ultimately, prediction of component degradation and failure based on
//! trend and outlier analysis".  [`TrendTracker`] fits a streaming least
//! squares line and answers "when does this series cross X?".

use hpcmon_metrics::Ts;
use serde::{Deserialize, Serialize};

/// A fitted line `value = slope * t_seconds + intercept`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LinearTrend {
    /// Slope in value units per second.
    pub slope_per_sec: f64,
    /// Value at t = 0.
    pub intercept: f64,
    /// Coefficient of determination in `[0, 1]`.
    pub r_squared: f64,
    /// Points fitted.
    pub n: u64,
}

impl LinearTrend {
    /// The time at which the trend crosses `threshold`, if the slope heads
    /// toward it.  Returns `None` for flat or receding trends.
    pub fn time_to_cross(&self, threshold: f64) -> Option<Ts> {
        if self.slope_per_sec.abs() < 1e-15 {
            return None;
        }
        let t_secs = (threshold - self.intercept) / self.slope_per_sec;
        if t_secs < 0.0 || !t_secs.is_finite() {
            return None;
        }
        Some(Ts::from_secs(t_secs as u64))
    }
}

/// Streaming least-squares over (time, value) pairs.
///
/// Sums are kept relative to the first timestamp to preserve precision on
/// long-running series.
///
/// ```
/// use hpcmon_analysis::TrendTracker;
/// use hpcmon_metrics::Ts;
///
/// let mut tracker = TrendTracker::new();
/// for hour in 0..24u64 {
///     tracker.push(Ts::from_secs(hour * 3_600), 10.0 * hour as f64); // +10 errors/hour
/// }
/// let fit = tracker.fit().unwrap();
/// assert!((fit.slope_per_sec * 3_600.0 - 10.0).abs() < 1e-6);
/// let crossing = fit.time_to_cross(1_000.0).unwrap();
/// assert_eq!(crossing.as_secs() / 3_600, 100); // 100 hours to 1000 errors
/// ```
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct TrendTracker {
    t0: Option<f64>,
    n: u64,
    sum_t: f64,
    sum_v: f64,
    sum_tt: f64,
    sum_tv: f64,
    sum_vv: f64,
}

impl TrendTracker {
    /// Empty tracker.
    pub fn new() -> TrendTracker {
        TrendTracker::default()
    }

    /// Fold in a point.
    pub fn push(&mut self, ts: Ts, value: f64) {
        let t_abs = ts.as_secs_f64();
        let t0 = *self.t0.get_or_insert(t_abs);
        let t = t_abs - t0;
        self.n += 1;
        self.sum_t += t;
        self.sum_v += value;
        self.sum_tt += t * t;
        self.sum_tv += t * value;
        self.sum_vv += value * value;
    }

    /// Fit the line; `None` with fewer than 2 points or zero time spread.
    pub fn fit(&self) -> Option<LinearTrend> {
        if self.n < 2 {
            return None;
        }
        let n = self.n as f64;
        let denom = n * self.sum_tt - self.sum_t * self.sum_t;
        if denom.abs() < 1e-12 {
            return None;
        }
        let slope = (n * self.sum_tv - self.sum_t * self.sum_v) / denom;
        let intercept_rel = (self.sum_v - slope * self.sum_t) / n;
        // r² = 1 - SSE/SST, computed from the accumulated sums.
        let sst = self.sum_vv - self.sum_v * self.sum_v / n;
        let r_squared = if sst.abs() < 1e-12 {
            1.0 // perfectly flat data is perfectly fit by a flat line
        } else {
            let ssr = slope * (self.sum_tv - self.sum_t * self.sum_v / n);
            (ssr / sst).clamp(0.0, 1.0)
        };
        // Shift the intercept back to absolute time.
        let t0 = self.t0.expect("n >= 2 implies t0");
        Some(LinearTrend {
            slope_per_sec: slope,
            intercept: intercept_rel - slope * t0,
            r_squared,
            n: self.n,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn predict(fit: &LinearTrend, t: Ts) -> f64 {
        fit.slope_per_sec * t.as_secs_f64() + fit.intercept
    }

    #[test]
    fn exact_line_is_recovered() {
        let mut t = TrendTracker::new();
        for i in 0..100u64 {
            // value = 2 * t_secs + 5
            t.push(Ts::from_secs(i * 60), 2.0 * (i * 60) as f64 + 5.0);
        }
        let fit = t.fit().unwrap();
        assert!((fit.slope_per_sec - 2.0).abs() < 1e-9);
        assert!((fit.intercept - 5.0).abs() < 1e-6);
        assert!(fit.r_squared > 0.999);
        assert_eq!(fit.n, 100);
    }

    #[test]
    fn predict_and_time_to_cross() {
        let mut t = TrendTracker::new();
        for i in 0..50u64 {
            t.push(Ts::from_secs(i), i as f64); // slope 1/s from 0
        }
        let fit = t.fit().unwrap();
        assert!((predict(&fit, Ts::from_secs(100)) - 100.0).abs() < 1e-6);
        let cross = fit.time_to_cross(1_000.0).unwrap();
        assert!((cross.as_secs_f64() - 1_000.0).abs() < 1.0);
    }

    #[test]
    fn receding_trend_never_crosses() {
        let mut t = TrendTracker::new();
        for i in 0..50u64 {
            t.push(Ts::from_secs(i), 100.0 - i as f64);
        }
        let fit = t.fit().unwrap();
        assert!(fit.time_to_cross(200.0).is_none(), "moving away from an upper threshold");
        // But it does cross a lower threshold (on its way down).
        assert!(fit.time_to_cross(0.0).is_some());
    }

    #[test]
    fn flat_series_has_no_crossing_and_full_r2() {
        let mut t = TrendTracker::new();
        for i in 0..20u64 {
            t.push(Ts::from_secs(i), 7.0);
        }
        let fit = t.fit().unwrap();
        assert!(fit.slope_per_sec.abs() < 1e-12);
        assert!(fit.time_to_cross(10.0).is_none());
        assert_eq!(fit.r_squared, 1.0);
    }

    #[test]
    fn noisy_line_has_partial_r2() {
        let mut t = TrendTracker::new();
        for i in 0..200u64 {
            let noise = if i % 2 == 0 { 5.0 } else { -5.0 };
            t.push(Ts::from_secs(i), 0.1 * i as f64 + noise);
        }
        let fit = t.fit().unwrap();
        assert!((fit.slope_per_sec - 0.1).abs() < 0.01);
        assert!(fit.r_squared > 0.1 && fit.r_squared < 0.9, "r2 {}", fit.r_squared);
    }

    #[test]
    fn too_few_points_no_fit() {
        let mut t = TrendTracker::new();
        assert!(t.fit().is_none());
        t.push(Ts::ZERO, 1.0);
        assert!(t.fit().is_none());
        assert_eq!(t.n, 1);
    }

    #[test]
    fn identical_timestamps_no_fit() {
        let mut t = TrendTracker::new();
        t.push(Ts::from_secs(5), 1.0);
        t.push(Ts::from_secs(5), 2.0);
        assert!(t.fit().is_none());
    }

    #[test]
    fn late_epoch_series_keeps_precision() {
        // A series starting at t = 10^9 seconds: naive sums of t² would
        // lose the slope in f64 noise; the t0 shift keeps it exact.
        let base = 1_000_000_000u64;
        let mut t = TrendTracker::new();
        for i in 0..100u64 {
            t.push(Ts::from_secs(base + i), 3.0 * i as f64 + 1.0);
        }
        let fit = t.fit().unwrap();
        assert!((fit.slope_per_sec - 3.0).abs() < 1e-6, "slope {}", fit.slope_per_sec);
        // Predict at the series' own timebase.
        let p = predict(&fit, Ts::from_secs(base + 50));
        assert!((p - 151.0).abs() < 1e-3, "prediction {p}");
    }
}
