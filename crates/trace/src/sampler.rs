//! Head sampling: decide once, at the head of the pipeline, whether a
//! datum records spans.
//!
//! The decision is a hash of the datum's sequence number — deterministic
//! (the same run samples the same frames, preserving the simulator's
//! end-to-end reproducibility) and uniform (a 1/64 rate samples ~1/64 of
//! frames regardless of arrival pattern, unlike `seq % 64 == 0` which
//! aliases against any periodic workload).
//!
//! Sampling here governs only *ordinary* spans.  Drop and shed spans are
//! recorded unconditionally by the [`crate::Tracer`]: losing a datum is
//! always worth a trace, which is how every lost frame gets provenance
//! even at sparse sampling rates.

use serde::{Deserialize, Serialize};

/// Finalizer from splitmix64: a cheap, well-mixed 64-bit hash.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The head-sampling policy: off, always, or one-in-N.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Sampler {
    /// 0 = tracing disabled entirely; 1 = every datum; N = ~1/N of data.
    denom: u64,
}

impl Sampler {
    /// Tracing disabled: no contexts are allocated, nothing is stamped.
    pub fn off() -> Sampler {
        Sampler { denom: 0 }
    }

    /// Sample every datum (examples, debugging; too hot for production).
    pub fn always() -> Sampler {
        Sampler { denom: 1 }
    }

    /// Sample roughly one datum in `n` (`n >= 1`).
    pub fn one_in(n: u64) -> Sampler {
        assert!(n >= 1, "sampling denominator must be at least 1");
        Sampler { denom: n }
    }

    /// Whether tracing is enabled at all (drop provenance included).
    pub(crate) fn is_enabled(&self) -> bool {
        self.denom != 0
    }

    /// The sampling decision for sequence number `seq`.
    pub(crate) fn decide(&self, seq: u64) -> bool {
        match self.denom {
            0 => false,
            1 => true,
            n => splitmix64(seq).is_multiple_of(n),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_and_always() {
        assert!(!Sampler::off().is_enabled());
        assert!(!Sampler::off().decide(3));
        assert!(Sampler::always().decide(3));
        assert!(Sampler::always().is_enabled());
    }

    #[test]
    fn one_in_n_is_deterministic_and_roughly_uniform() {
        let s = Sampler::one_in(64);
        let hits: Vec<u64> = (0..64_000).filter(|&i| s.decide(i)).collect();
        // Deterministic: same decisions on a second pass.
        let again: Vec<u64> = (0..64_000).filter(|&i| s.decide(i)).collect();
        assert_eq!(hits, again);
        // Uniform-ish: 1000 expected, generous tolerance.
        assert!((700..1_300).contains(&hits.len()), "{} sampled", hits.len());
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_denominator_rejected() {
        Sampler::one_in(0);
    }
}
