//! Order-sensitive 64-bit state digests for the per-tick state hash.
//!
//! Replay verification compares per-tick digests of live subsystem state
//! against the recorded stream, so the hash must be (a) identical across
//! runs and platforms, (b) cheap enough to run every tick over
//! thousands of samples — one multiply-xor round per 64-bit word, not
//! byte-at-a-time — and (c) stable within an event-log format version
//! (recorded hashes are only ever compared against hashes recomputed by
//! the same code).  Cryptographic strength is not a goal (logs are
//! trusted local artifacts).

/// Streaming word-mixing digest builder with a SplitMix64 finalizer.
///
/// Field order matters: callers must feed fields in a fixed order so the
/// same state always produces the same digest.
///
/// Words round-robin across four independent accumulator lanes merged at
/// [`StateHash::finish`]: a single chained accumulator serializes on the
/// multiply's latency (~6-8 cycles per word), while four lanes keep the
/// multiplier pipeline full.  Order still matters — a word's lane is its
/// absolute position mod 4, so swapping two adjacent words changes two
/// lanes — and the total count is folded at finish so zero-padding can't
/// alias.
#[derive(Debug, Clone)]
pub struct StateHash {
    lanes: [u64; 4],
    count: u64,
}

const SEED_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const MIX_MUL: u64 = 0xA076_1D64_78BD_642F;
const CHAIN_MUL: u64 = 0x9E37_79B9_7F4A_7C15;

impl StateHash {
    /// Fresh digest, domain-separated by `tag` so sub-hashes of different
    /// subsystems never collide by construction.
    pub fn new(tag: u64) -> StateHash {
        let seed = SEED_OFFSET ^ tag.wrapping_mul(CHAIN_MUL);
        StateHash {
            lanes: [
                seed,
                seed.wrapping_add(MIX_MUL),
                seed.wrapping_add(MIX_MUL.wrapping_mul(2)),
                seed.wrapping_add(MIX_MUL.wrapping_mul(3)),
            ],
            count: 0,
        }
    }

    /// Mix one 64-bit word: pre-scramble it (multiply + xor-shift,
    /// wyhash-style), then fold into the next lane (xor-multiply-rotate).
    /// This path runs over every frame sample and simulator field every
    /// tick when state hashing is on — it replaced byte-wise FNV-1a
    /// (~8x more multiplies, all serialized) to hold hashing's ≤5%
    /// tick-overhead budget.
    #[inline]
    pub fn u64(&mut self, v: u64) -> &mut Self {
        let mut x = v.wrapping_mul(MIX_MUL);
        x ^= x >> 32;
        let lane = &mut self.lanes[(self.count & 3) as usize];
        *lane = (*lane ^ x).wrapping_mul(CHAIN_MUL).rotate_left(23);
        self.count += 1;
        self
    }

    /// Mix a float by raw bit pattern (replay is bit-exact, so `-0.0` and
    /// `NaN` payload differences are real divergences, not noise).
    pub fn f64(&mut self, v: f64) -> &mut Self {
        self.u64(v.to_bits())
    }

    /// Mix a boolean.
    pub fn bool(&mut self, v: bool) -> &mut Self {
        self.u64(v as u64)
    }

    /// Mix a usize (as u64 — digests must agree across pointer widths).
    pub fn usize(&mut self, v: usize) -> &mut Self {
        self.u64(v as u64)
    }

    /// Mix raw bytes (length-prefixed so `["ab","c"]` ≠ `["a","bc"]`).
    pub fn bytes(&mut self, v: &[u8]) -> &mut Self {
        self.u64(v.len() as u64);
        let mut chunks = v.chunks_exact(8);
        for c in &mut chunks {
            self.u64(u64::from_le_bytes(c.try_into().expect("chunks_exact yields 8 bytes")));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rem.len()].copy_from_slice(rem);
            self.u64(u64::from_le_bytes(buf));
        }
        self
    }

    /// Mix a string.
    pub fn str(&mut self, v: &str) -> &mut Self {
        self.bytes(v.as_bytes())
    }

    /// Mix a slice of floats (length-prefixed).
    pub fn f64s(&mut self, v: &[f64]) -> &mut Self {
        self.u64(v.len() as u64);
        for &x in v {
            self.u64(x.to_bits());
        }
        self
    }

    /// Mix a slice of booleans (length-prefixed).
    pub fn bools(&mut self, v: &[bool]) -> &mut Self {
        self.u64(v.len() as u64);
        for &x in v {
            self.u64(x as u64);
        }
        self
    }

    /// Merge the lanes and the word count, then a SplitMix64-style final
    /// avalanche so single-bit input changes flip about half the output
    /// bits.
    pub fn finish(&self) -> u64 {
        let mut z = self.count.wrapping_mul(MIX_MUL);
        for (i, lane) in self.lanes.iter().enumerate() {
            z = (z ^ lane.rotate_left(i as u32 * 17)).wrapping_mul(CHAIN_MUL);
            z ^= z >> 29;
        }
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic() {
        let mut a = StateHash::new(1);
        let mut b = StateHash::new(1);
        a.u64(7).f64(1.5).str("x");
        b.u64(7).f64(1.5).str("x");
        assert_eq!(a.finish(), b.finish());
    }

    #[test]
    fn tag_separates_domains() {
        assert_ne!(StateHash::new(1).finish(), StateHash::new(2).finish());
    }

    #[test]
    fn order_sensitive() {
        let mut a = StateHash::new(0);
        let mut b = StateHash::new(0);
        a.u64(1).u64(2);
        b.u64(2).u64(1);
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn length_prefix_disambiguates() {
        let mut a = StateHash::new(0);
        let mut b = StateHash::new(0);
        a.str("ab").str("c");
        b.str("a").str("bc");
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn single_bit_avalanche() {
        let h1 = StateHash::new(0).u64(0).finish();
        let h2 = StateHash::new(0).u64(1).finish();
        assert!((h1 ^ h2).count_ones() > 16);
    }
}
