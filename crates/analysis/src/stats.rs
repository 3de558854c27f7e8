//! Streaming statistics primitives: rolling window moments, exponentially
//! weighted averages, and the P² streaming quantile estimator.

use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// Mean/variance over a sliding window of the last `capacity` values.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RollingStats {
    capacity: usize,
    window: VecDeque<f64>,
    sum: f64,
    sum_sq: f64,
}

impl RollingStats {
    /// Window of `capacity` values; panics on zero.
    pub(crate) fn new(capacity: usize) -> RollingStats {
        assert!(capacity > 0, "window capacity must be positive");
        RollingStats { capacity, window: VecDeque::with_capacity(capacity), sum: 0.0, sum_sq: 0.0 }
    }

    /// Push a value, evicting the oldest when full.
    pub(crate) fn push(&mut self, v: f64) {
        if self.window.len() == self.capacity {
            let old = self.window.pop_front().expect("full window");
            self.sum -= old;
            self.sum_sq -= old * old;
        }
        self.window.push_back(v);
        self.sum += v;
        self.sum_sq += v * v;
    }

    /// Values currently in the window.
    pub(crate) fn len(&self) -> usize {
        self.window.len()
    }

    /// Fold the window contents and running moments into a flight-recorder
    /// digest.
    pub(crate) fn digest_into(&self, h: &mut hpcmon_metrics::StateHash) {
        h.usize(self.capacity).usize(self.window.len());
        for &v in &self.window {
            h.f64(v);
        }
        h.f64(self.sum).f64(self.sum_sq);
    }

    /// Whether the window has reached capacity.
    pub(crate) fn is_full(&self) -> bool {
        self.window.len() == self.capacity
    }

    /// Mean of the window (`None` when empty).
    pub(crate) fn mean(&self) -> Option<f64> {
        if self.window.is_empty() {
            None
        } else {
            Some(self.sum / self.window.len() as f64)
        }
    }

    /// Population variance of the window.  Floating-point cancellation is
    /// corrected by clamping at zero.
    pub(crate) fn variance(&self) -> Option<f64> {
        let n = self.window.len() as f64;
        if self.window.is_empty() {
            return None;
        }
        let mean = self.sum / n;
        Some((self.sum_sq / n - mean * mean).max(0.0))
    }

    /// Standard deviation of the window.
    pub(crate) fn std_dev(&self) -> Option<f64> {
        self.variance().map(f64::sqrt)
    }

    /// Median of the window (by sorting a copy; windows are small).
    pub(crate) fn median(&self) -> Option<f64> {
        if self.window.is_empty() {
            return None;
        }
        let mut sorted: Vec<f64> = self.window.iter().copied().collect();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
        Some(sorted[sorted.len() / 2])
    }

    /// Median absolute deviation (robust spread).
    pub(crate) fn mad(&self) -> Option<f64> {
        let med = self.median()?;
        let mut devs: Vec<f64> = self.window.iter().map(|v| (v - med).abs()).collect();
        devs.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
        Some(devs[devs.len() / 2])
    }
}

/// P² streaming quantile estimator (Jain & Chlamtac, 1985): tracks one
/// quantile in O(1) memory without storing samples.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct P2Quantile {
    q: f64,
    // Marker heights and positions; initialized from the first 5 samples.
    heights: [f64; 5],
    positions: [f64; 5],
    desired: [f64; 5],
    increments: [f64; 5],
    initial: Vec<f64>,
    count: u64,
}

impl P2Quantile {
    /// Track quantile `q` in `(0, 1)`.
    pub fn new(q: f64) -> P2Quantile {
        assert!(q > 0.0 && q < 1.0, "quantile must be in (0,1)");
        P2Quantile {
            q,
            heights: [0.0; 5],
            positions: [1.0, 2.0, 3.0, 4.0, 5.0],
            desired: [1.0, 1.0 + 2.0 * q, 1.0 + 4.0 * q, 3.0 + 2.0 * q, 5.0],
            increments: [0.0, q / 2.0, q, (1.0 + q) / 2.0, 1.0],
            initial: Vec::with_capacity(5),
            count: 0,
        }
    }

    /// Observe a value.
    pub fn push(&mut self, v: f64) {
        self.count += 1;
        if self.initial.len() < 5 {
            self.initial.push(v);
            if self.initial.len() == 5 {
                self.initial.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
                self.heights.copy_from_slice(&self.initial);
            }
            return;
        }
        // Find the cell containing v and bump marker positions.
        let k = if v < self.heights[0] {
            self.heights[0] = v;
            0
        } else if v >= self.heights[4] {
            self.heights[4] = v;
            3
        } else {
            (0..4).find(|&i| v >= self.heights[i] && v < self.heights[i + 1]).expect("in range")
        };
        for i in (k + 1)..5 {
            self.positions[i] += 1.0;
        }
        for i in 0..5 {
            self.desired[i] += self.increments[i];
        }
        // Adjust interior markers with the parabolic formula.
        for i in 1..4 {
            let d = self.desired[i] - self.positions[i];
            let step_fwd = self.positions[i + 1] - self.positions[i];
            let step_bwd = self.positions[i - 1] - self.positions[i];
            if (d >= 1.0 && step_fwd > 1.0) || (d <= -1.0 && step_bwd < -1.0) {
                let d = d.signum();
                let candidate = self.parabolic(i, d);
                self.heights[i] = if candidate > self.heights[i - 1]
                    && candidate < self.heights[i + 1]
                {
                    candidate
                } else {
                    // Linear fallback.
                    self.heights[i]
                        + d * (self.heights[(i as i64 + d as i64) as usize] - self.heights[i])
                            / (self.positions[(i as i64 + d as i64) as usize] - self.positions[i])
                };
                self.positions[i] += d;
            }
        }
    }

    fn parabolic(&self, i: usize, d: f64) -> f64 {
        let p = &self.positions;
        let h = &self.heights;
        h[i] + d / (p[i + 1] - p[i - 1])
            * ((p[i] - p[i - 1] + d) * (h[i + 1] - h[i]) / (p[i + 1] - p[i])
                + (p[i + 1] - p[i] - d) * (h[i] - h[i - 1]) / (p[i] - p[i - 1]))
    }

    /// Current estimate (exact until 5 samples, then P²).
    pub fn value(&self) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        if self.initial.len() < 5 {
            let mut sorted = self.initial.clone();
            sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
            let rank = (self.q * (sorted.len() - 1) as f64).round() as usize;
            return Some(sorted[rank]);
        }
        Some(self.heights[2])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rolling_basic_moments() {
        let mut r = RollingStats::new(4);
        assert_eq!(r.len(), 0);
        assert_eq!(r.mean(), None);
        for v in [1.0, 2.0, 3.0, 4.0] {
            r.push(v);
        }
        assert!(r.is_full());
        assert_eq!(r.mean(), Some(2.5));
        assert!((r.variance().unwrap() - 1.25).abs() < 1e-12);
        assert_eq!(r.median(), Some(3.0));
    }

    #[test]
    fn rolling_evicts_oldest() {
        let mut r = RollingStats::new(3);
        for v in [10.0, 1.0, 2.0, 3.0] {
            r.push(v);
        }
        assert_eq!(r.len(), 3);
        assert_eq!(r.mean(), Some(2.0));
    }

    #[test]
    fn rolling_mad_robust_to_outlier() {
        let mut r = RollingStats::new(10);
        for _ in 0..9 {
            r.push(5.0);
        }
        r.push(1_000.0);
        assert_eq!(r.mad(), Some(0.0), "MAD ignores a single outlier");
        assert!(r.std_dev().unwrap() > 100.0, "std dev does not");
    }

    #[test]
    fn variance_never_negative_under_cancellation() {
        let mut r = RollingStats::new(8);
        for _ in 0..8 {
            r.push(1e9 + 0.1);
        }
        assert!(r.variance().unwrap() >= 0.0);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_window_rejected() {
        RollingStats::new(0);
    }

    #[test]
    fn p2_median_of_uniform() {
        let mut q = P2Quantile::new(0.5);
        // Deterministic pseudo-shuffled uniform values.
        for i in 0..10_000u64 {
            let v = ((i * 2_654_435_761) % 10_000) as f64 / 10_000.0;
            q.push(v);
        }
        let est = q.value().unwrap();
        assert!((est - 0.5).abs() < 0.02, "median estimate {est}");
    }

    #[test]
    fn p2_p95_of_uniform() {
        let mut q = P2Quantile::new(0.95);
        for i in 0..20_000u64 {
            let v = ((i * 2_654_435_761) % 20_000) as f64 / 20_000.0;
            q.push(v);
        }
        let est = q.value().unwrap();
        assert!((est - 0.95).abs() < 0.02, "p95 estimate {est}");
    }

    #[test]
    fn p2_small_samples_exact() {
        let mut q = P2Quantile::new(0.5);
        assert_eq!(q.value(), None);
        q.push(3.0);
        assert_eq!(q.value(), Some(3.0));
        q.push(1.0);
        q.push(2.0);
        assert_eq!(q.value(), Some(2.0));
        assert_eq!(q.count, 3);
    }

    #[test]
    #[should_panic(expected = "quantile must be in")]
    fn p2_bad_quantile() {
        P2Quantile::new(1.0);
    }
}
