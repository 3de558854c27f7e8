//! Simulation timestamps.
//!
//! All monitoring data in `hpcmon` is stamped with a [`Ts`]: milliseconds
//! since the start of the simulated epoch.  Using a single integer clock
//! domain is itself one of the paper's lessons — "a single global timestamp"
//! is what makes cross-component association tractable; per-node clock drift
//! is modelled explicitly in `hpcmon-sim` on top of this type rather than by
//! having multiple incompatible time representations.

use serde::{Deserialize, Serialize};

/// Milliseconds in one second.
pub const SECOND_MS: u64 = 1_000;
/// Milliseconds in one minute (the NCSA collection interval).
pub const MINUTE_MS: u64 = 60 * SECOND_MS;

/// A timestamp: milliseconds since simulation epoch.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct Ts(pub u64);

/// A signed duration between two timestamps, in milliseconds.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct TsDelta(pub i64);

impl Ts {
    /// The simulation epoch.
    pub const ZERO: Ts = Ts(0);

    /// Construct from whole seconds.
    pub fn from_secs(s: u64) -> Ts {
        Ts(s * SECOND_MS)
    }

    /// Construct from whole minutes.
    pub fn from_mins(m: u64) -> Ts {
        Ts(m * MINUTE_MS)
    }

    /// Whole seconds since epoch (truncating).
    pub fn as_secs(self) -> u64 {
        self.0 / SECOND_MS
    }

    /// Fractional seconds since epoch.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / SECOND_MS as f64
    }

    /// Saturating addition of a number of milliseconds.
    pub fn add_ms(self, ms: u64) -> Ts {
        Ts(self.0.saturating_add(ms))
    }

    /// Saturating subtraction of a number of milliseconds.
    pub fn sub_ms(self, ms: u64) -> Ts {
        Ts(self.0.saturating_sub(ms))
    }

    /// Signed difference `self - other`.
    pub fn delta(self, other: Ts) -> TsDelta {
        TsDelta(self.0 as i64 - other.0 as i64)
    }

    /// Round down to a multiple of `interval_ms` (downsampling buckets).
    pub fn align_down(self, interval_ms: u64) -> Ts {
        assert!(interval_ms > 0, "alignment interval must be positive");
        Ts(self.0 - self.0 % interval_ms)
    }

    /// Render as `HHH:MM:SS` for dashboards.
    pub fn display_hms(self) -> String {
        let s = self.as_secs();
        format!("{:03}:{:02}:{:02}", s / 3600, (s / 60) % 60, s % 60)
    }
}

impl TsDelta {
    /// Absolute magnitude in milliseconds.
    pub fn abs_ms(self) -> u64 {
        self.0.unsigned_abs()
    }
}

impl std::ops::Add<TsDelta> for Ts {
    type Output = Ts;
    fn add(self, rhs: TsDelta) -> Ts {
        if rhs.0 >= 0 {
            self.add_ms(rhs.0 as u64)
        } else {
            self.sub_ms(rhs.0.unsigned_abs())
        }
    }
}

impl std::fmt::Display for Ts {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.display_hms())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_round_trip() {
        assert_eq!(Ts::from_secs(90).0, 90_000);
        assert_eq!(Ts::from_mins(2).0, 120_000);
        assert_eq!(Ts::from_secs(90).as_secs(), 90);
        assert!((Ts(1_500).as_secs_f64() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn alignment() {
        let t = Ts(61_234);
        assert_eq!(t.align_down(MINUTE_MS), Ts(60_000));
        // Already aligned values stay put.
        let a = Ts(120_000);
        assert_eq!(a.align_down(MINUTE_MS), a);
        assert_eq!(Ts::ZERO.align_down(MINUTE_MS), Ts::ZERO);
    }

    #[test]
    #[should_panic(expected = "alignment interval")]
    fn zero_alignment_panics() {
        Ts(5).align_down(0);
    }

    #[test]
    fn deltas_are_signed() {
        let a = Ts(1_000);
        let b = Ts(4_000);
        assert_eq!(b.delta(a), TsDelta(3_000));
        assert_eq!(a.delta(b), TsDelta(-3_000));
        assert_eq!(a.delta(b).abs_ms(), 3_000);
        assert_eq!(a + TsDelta(500), Ts(1_500));
        assert_eq!(a + TsDelta(-500), Ts(500));
        // Negative deltas saturate at the epoch.
        assert_eq!(a + TsDelta(-5_000), Ts::ZERO);
    }

    #[test]
    fn saturating_arithmetic() {
        assert_eq!(Ts(10).sub_ms(100), Ts::ZERO);
        assert_eq!(Ts(u64::MAX).add_ms(1), Ts(u64::MAX));
    }

    #[test]
    fn display_format() {
        assert_eq!(Ts::from_secs(3_661).display_hms(), "001:01:01");
        assert_eq!(format!("{}", Ts::ZERO), "000:00:00");
    }
}
