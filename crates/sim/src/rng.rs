//! Deterministic random number generation.
//!
//! The simulator must be exactly reproducible for a given seed — the
//! integration tests assert bit-identical reruns — so it carries its own
//! small, well-understood generator (SplitMix64) rather than depending on a
//! crate whose stream might change across versions.

use serde::{Deserialize, Serialize};

/// SplitMix64 pseudo-random generator with distribution helpers.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Rng {
    state: u64,
}

impl Rng {
    /// Seeded constructor.  Equal seeds yield equal streams.
    pub fn new(seed: u64) -> Rng {
        Rng { state: seed.wrapping_add(0x9E37_79B9_7F4A_7C15) }
    }

    /// Raw generator state, for snapshots and state digests.
    pub fn state(&self) -> u64 {
        self.state
    }

    /// Rebuild a generator at an exact stream position (snapshot restore).
    /// Unlike [`Rng::new`] this does not perturb the value.
    pub fn from_state(state: u64) -> Rng {
        Rng { state }
    }

    /// Derive an independent child generator (used to give each subsystem
    /// its own stream so adding draws in one does not perturb another).
    pub(crate) fn fork(&mut self, tag: u64) -> Rng {
        Rng::new(self.next_u64() ^ tag.wrapping_mul(0xA24B_AED4_963E_E407))
    }

    /// Next raw 64-bit value.
    pub(crate) fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub(crate) fn f64(&mut self) -> f64 {
        // 53 random mantissa bits.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[0, n)`. Panics if `n == 0`.
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "below(0) is undefined");
        // Multiply-shift rejection-free mapping; bias is < 2^-64 * n which is
        // negligible for simulation purposes.
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// Uniform in `[lo, hi)`. Panics if the range is empty.
    pub(crate) fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(hi > lo, "empty range");
        lo + self.f64() * (hi - lo)
    }

    /// Bernoulli trial with probability `p` (clamped to `[0,1]`).
    pub(crate) fn chance(&mut self, p: f64) -> bool {
        self.f64() < p.clamp(0.0, 1.0)
    }

    /// Standard normal via Box–Muller.
    pub(crate) fn normal(&mut self) -> f64 {
        // Avoid ln(0).
        let u1 = (1.0 - self.f64()).max(f64::MIN_POSITIVE);
        let u2 = self.f64();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }

    /// Normal with the given mean and standard deviation.
    pub fn normal_with(&mut self, mean: f64, std_dev: f64) -> f64 {
        mean + std_dev * self.normal()
    }

    /// Poisson-distributed count with the given mean (Knuth's method; fine
    /// for the small means used by the failure and log generators).
    pub(crate) fn poisson(&mut self, mean: f64) -> u64 {
        if mean <= 0.0 {
            return 0;
        }
        let limit = (-mean).exp();
        let mut k = 0u64;
        let mut p = 1.0;
        loop {
            p *= self.f64();
            if p <= limit {
                return k;
            }
            k += 1;
            // Guard against pathological means.
            if k > 10_000 {
                return k;
            }
        }
    }

    /// Choose a uniformly random element of a non-empty slice.
    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        assert!(!items.is_empty(), "pick from empty slice");
        &items[self.below(items.len() as u64) as usize]
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn determinism() {
        let mut a = Rng::new(42);
        let mut b = Rng::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = Rng::new(1);
        let mut b = Rng::new(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = Rng::new(7);
        for _ in 0..10_000 {
            let x = r.f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn below_bounds_and_coverage() {
        let mut r = Rng::new(3);
        let mut seen = [false; 10];
        for _ in 0..1_000 {
            let v = r.below(10) as usize;
            assert!(v < 10);
            seen[v] = true;
        }
        assert!(seen.iter().all(|&s| s), "all residues should appear in 1000 draws");
    }

    #[test]
    #[should_panic(expected = "below(0)")]
    fn below_zero_panics() {
        Rng::new(0).below(0);
    }

    #[test]
    fn normal_moments() {
        let mut r = Rng::new(11);
        let n = 50_000;
        let samples: Vec<f64> = (0..n).map(|_| r.normal()).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.03, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn poisson_mean() {
        let mut r = Rng::new(17);
        let n = 20_000;
        let mean = (0..n).map(|_| r.poisson(3.0) as f64).sum::<f64>() / n as f64;
        assert!((mean - 3.0).abs() < 0.1, "mean {mean}");
        assert_eq!(r.poisson(0.0), 0);
        assert_eq!(r.poisson(-1.0), 0);
    }

    #[test]
    fn chance_extremes() {
        let mut r = Rng::new(23);
        assert!(!(0..100).any(|_| r.chance(0.0)));
        assert!((0..100).all(|_| r.chance(1.0)));
        // Out-of-range probabilities are clamped rather than panicking.
        assert!(r.chance(2.0));
        assert!(!r.chance(-1.0));
    }

    #[test]
    fn fork_independence() {
        let mut parent = Rng::new(5);
        let mut c1 = parent.fork(1);
        let mut c2 = parent.fork(2);
        // Children are distinct streams.
        assert_ne!(c1.next_u64(), c2.next_u64());
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut r = Rng::new(29);
        let mut v: Vec<u32> = (0..50).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn pick_returns_member() {
        let mut r = Rng::new(31);
        let items = [10, 20, 30];
        for _ in 0..20 {
            assert!(items.contains(r.pick(&items)));
        }
    }
}
