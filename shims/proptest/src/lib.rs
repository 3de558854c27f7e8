#![forbid(unsafe_code)]

//! Offline stand-in for `proptest`.
//!
//! Runs each property over a fixed number of deterministically-generated
//! random inputs (SplitMix64 seeded from the test name), with no shrinking:
//! a failing case panics with the ordinary assert message.  Covers the
//! strategy surface this workspace uses — numeric ranges, tuples,
//! `collection::vec`, simple `[chars]{m,n}` string patterns, and
//! `any::<T>()`.

use std::ops::Range;

/// Deterministic SplitMix64 generator.
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// Seed the generator.
    pub fn new(seed: u64) -> TestRng {
        TestRng { state: seed ^ 0x9e37_79b9_7f4a_7c15 }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform value in `[0, bound)`.
    pub fn below(&mut self, bound: u64) -> u64 {
        if bound == 0 {
            0
        } else {
            self.next_u64() % bound
        }
    }

    /// Uniform float in `[0, 1)`.
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// A generator of test inputs.
pub trait Strategy {
    /// The generated input type.
    type Value;

    /// Produce one input.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;
}

macro_rules! impl_int_range {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;

            fn generate(&self, rng: &mut TestRng) -> $t {
                let span = (self.end as i128 - self.start as i128).max(1) as u64;
                (self.start as i128 + rng.below(span) as i128) as $t
            }
        }
    )*};
}
impl_int_range!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Strategy for Range<f64> {
    type Value = f64;

    fn generate(&self, rng: &mut TestRng) -> f64 {
        self.start + rng.unit_f64() * (self.end - self.start)
    }
}

impl Strategy for Range<f32> {
    type Value = f32;

    fn generate(&self, rng: &mut TestRng) -> f32 {
        self.start + (rng.unit_f64() as f32) * (self.end - self.start)
    }
}

/// Simple `[chars]{min,max}` string pattern strategy (proptest models string
/// regexes; only the charset-with-repetition form appears in this repo).
impl Strategy for &str {
    type Value = String;

    fn generate(&self, rng: &mut TestRng) -> String {
        let (charset, min, max) =
            parse_pattern(self).unwrap_or_else(|| panic!("unsupported string pattern {self:?}"));
        let len = min + rng.below((max - min + 1) as u64) as usize;
        (0..len).map(|_| charset[rng.below(charset.len() as u64) as usize]).collect()
    }
}

fn parse_pattern(pat: &str) -> Option<(Vec<char>, usize, usize)> {
    let rest = pat.strip_prefix('[')?;
    let close = rest.find(']')?;
    let class = &rest[..close];
    let mut charset = Vec::new();
    let chars: Vec<char> = class.chars().collect();
    let mut i = 0;
    while i < chars.len() {
        if i + 2 < chars.len() && chars[i + 1] == '-' {
            let (lo, hi) = (chars[i], chars[i + 2]);
            for c in lo..=hi {
                charset.push(c);
            }
            i += 3;
        } else {
            charset.push(chars[i]);
            i += 1;
        }
    }
    let reps = rest[close + 1..].strip_prefix('{')?.strip_suffix('}')?;
    let (min, max) = match reps.split_once(',') {
        Some((a, b)) => (a.trim().parse().ok()?, b.trim().parse().ok()?),
        None => {
            let n = reps.trim().parse().ok()?;
            (n, n)
        }
    };
    if charset.is_empty() || max < min {
        return None;
    }
    Some((charset, min, max))
}

macro_rules! impl_tuple_strategy {
    ($(($($name:ident : $idx:tt),+)),+ $(,)?) => {$(
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);

            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }
        }
    )+};
}
impl_tuple_strategy! {
    (A: 0, B: 1),
    (A: 0, B: 1, C: 2),
    (A: 0, B: 1, C: 2, D: 3),
    (A: 0, B: 1, C: 2, D: 3, E: 4),
}

/// Types with a whole-domain default strategy (`any::<T>()`).
pub trait Arbitrary {
    /// Generate an unconstrained value.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

impl Arbitrary for u64 {
    fn arbitrary(rng: &mut TestRng) -> u64 {
        rng.next_u64()
    }
}

impl Arbitrary for u32 {
    fn arbitrary(rng: &mut TestRng) -> u32 {
        rng.next_u64() as u32
    }
}

impl Arbitrary for i64 {
    fn arbitrary(rng: &mut TestRng) -> i64 {
        rng.next_u64() as i64
    }
}

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

impl Arbitrary for f64 {
    fn arbitrary(rng: &mut TestRng) -> f64 {
        f64::from_bits(rng.next_u64())
    }
}

/// Whole-domain strategy for `T` (`any::<u64>()`).
pub struct AnyStrategy<T> {
    _marker: std::marker::PhantomData<T>,
}

impl<T: Arbitrary> Strategy for AnyStrategy<T> {
    type Value = T;

    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// Construct the whole-domain strategy for `T`.
pub fn any<T: Arbitrary>() -> AnyStrategy<T> {
    AnyStrategy { _marker: std::marker::PhantomData }
}

/// Collection strategies (`proptest::collection::vec`).
pub mod collection {
    use super::{Strategy, TestRng};
    use std::ops::Range;

    /// Vec strategy with a length range.
    pub struct VecStrategy<S> {
        elem: S,
        size: Range<usize>,
    }

    /// Generate vectors whose length is drawn from `size`.
    pub fn vec<S: Strategy>(elem: S, size: Range<usize>) -> VecStrategy<S> {
        VecStrategy { elem, size }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.size.end - self.size.start).max(1) as u64;
            let len = self.size.start + rng.below(span) as usize;
            (0..len).map(|_| self.elem.generate(rng)).collect()
        }
    }
}

/// Per-run configuration (`#![proptest_config(...)]`).
#[derive(Debug, Clone, Copy)]
pub struct ProptestConfig {
    /// Number of random cases per property.
    pub cases: u32,
}

impl ProptestConfig {
    /// Run each property this many times.
    pub fn with_cases(cases: u32) -> ProptestConfig {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> ProptestConfig {
        ProptestConfig { cases: 64 }
    }
}

/// Seed helper: FNV-1a over the test name so each property gets a stable,
/// distinct stream.
pub fn seed_from_name(name: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

/// Assert inside a property (no shrinking: plain assert).
#[macro_export]
macro_rules! prop_assert {
    ($($args:tt)*) => { assert!($($args)*) };
}

/// Assert equality inside a property.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($args:tt)*) => { assert_eq!($($args)*) };
}

/// Assert inequality inside a property.
#[macro_export]
macro_rules! prop_assert_ne {
    ($($args:tt)*) => { assert_ne!($($args)*) };
}

/// Define property tests over generated inputs.
#[macro_export]
macro_rules! proptest {
    // Entry with a config attribute.
    (
        #![proptest_config($cfg:expr)]
        $($rest:tt)*
    ) => {
        $crate::proptest! { @cfg ($cfg) $($rest)* }
    };
    // Internal: config captured, expand each test fn.
    (
        @cfg ($cfg:expr)
        $(
            $(#[$meta:meta])*
            fn $name:ident($($pname:pat_param in $pstrategy:expr),+ $(,)?) $body:block
        )*
    ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let __cfg: $crate::ProptestConfig = $cfg;
                let __seed = $crate::seed_from_name(stringify!($name));
                for __case in 0..__cfg.cases {
                    let mut __rng =
                        $crate::TestRng::new(__seed ^ (__case as u64).wrapping_mul(0x9e37_79b9));
                    $(
                        let $pname =
                            $crate::Strategy::generate(&($pstrategy), &mut __rng);
                    )+
                    $body
                }
            }
        )*
    };
    // Entry without a config attribute.
    ( $($rest:tt)* ) => {
        $crate::proptest! { @cfg ($crate::ProptestConfig::default()) $($rest)* }
    };
}

/// Everything a test module needs (`use proptest::prelude::*`).
pub mod prelude {
    pub use crate::collection;
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assert_ne, proptest, Arbitrary, ProptestConfig,
        Strategy, TestRng,
    };
}
