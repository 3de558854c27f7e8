//! Numeric observations: samples, series keys, and per-frame collector
//! coverage.  The frame itself is [`crate::ColumnFrame`].

use crate::{CompId, MetricId, Ts};
use serde::{Deserialize, Serialize};

/// The identity of a time series: which metric on which component.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct SeriesKey {
    /// Which metric.
    pub metric: MetricId,
    /// Which component it was observed on.
    pub comp: CompId,
}

impl SeriesKey {
    /// Construct a series key.
    pub fn new(metric: MetricId, comp: CompId) -> SeriesKey {
        SeriesKey { metric, comp }
    }
}

/// One numeric observation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Sample {
    /// Series identity.
    pub key: SeriesKey,
    /// When it was observed (collector-side timestamp).
    pub ts: Ts,
    /// The observed value.
    pub value: f64,
}

impl Sample {
    /// Construct a sample.
    pub fn new(metric: MetricId, comp: CompId, ts: Ts, value: f64) -> Sample {
        Sample { key: SeriesKey::new(metric, comp), ts, value }
    }
}

/// Which collectors actually contributed to a frame.
///
/// Two bitmaps indexed by collector registration slot (supports up to 64
/// collectors): `expected` marks collectors that should have reported —
/// those that have ever produced samples — and `reported` marks those that
/// did this tick.  Downstream analysis uses this to *skip* missing
/// segments instead of zero-filling them, and the self feed exports the
/// ratio as `hpcmon.self.frame.coverage_pct`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FrameCoverage {
    /// Bitmap of collector slots expected to report.
    pub expected: u64,
    /// Bitmap of collector slots that reported this tick.
    pub reported: u64,
}

impl FrameCoverage {
    /// Mark slot `slot` as expected to report (slots ≥ 64 are ignored).
    pub fn expect(&mut self, slot: usize) {
        if slot < 64 {
            self.expected |= 1 << slot;
        }
    }

    /// Mark slot `slot` as having reported (slots ≥ 64 are ignored).
    pub fn report(&mut self, slot: usize) {
        if slot < 64 {
            self.reported |= 1 << slot;
        }
    }

    /// Whether an expected slot reported.  Unexpected slots count as
    /// covered — a collector with legitimately nothing to say is not a gap.
    pub fn covered(&self, slot: usize) -> bool {
        if slot >= 64 {
            return true;
        }
        let bit = 1u64 << slot;
        self.expected & bit == 0 || self.reported & bit != 0
    }

    /// Percentage of expected slots that reported, in `[0, 100]`.  An empty
    /// expectation is full coverage.
    pub fn pct(&self) -> f64 {
        let expected = self.expected.count_ones();
        if expected == 0 {
            return 100.0;
        }
        let hit = (self.expected & self.reported).count_ones();
        hit as f64 * 100.0 / expected as f64
    }

    /// Whether every expected slot reported.
    pub fn is_full(&self) -> bool {
        self.expected & !self.reported == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mid(n: u32) -> MetricId {
        MetricId(n)
    }

    #[test]
    fn sample_construction() {
        let s = Sample::new(mid(1), CompId::node(2), Ts(30), 4.5);
        assert_eq!(s.key.metric, mid(1));
        assert_eq!(s.key.comp, CompId::node(2));
        assert_eq!(s.ts, Ts(30));
        assert_eq!(s.value, 4.5);
    }

    #[test]
    fn series_key_ordering_is_metric_major() {
        let a = SeriesKey::new(mid(0), CompId::node(9));
        let b = SeriesKey::new(mid(1), CompId::node(0));
        assert!(a < b);
    }

    #[test]
    fn coverage_pct_and_covered() {
        let mut cov = FrameCoverage::default();
        assert_eq!(cov.pct(), 100.0, "no expectations is full coverage");
        assert!(cov.is_full());
        cov.expect(0);
        cov.expect(2);
        cov.expect(5);
        cov.report(0);
        cov.report(5);
        assert!(!cov.is_full());
        assert!(!cov.covered(2));
        assert!(cov.covered(0));
        assert!(cov.covered(1), "unexpected slot counts as covered");
        assert!((cov.pct() - 200.0 / 3.0).abs() < 1e-9);
        cov.report(2);
        assert_eq!(cov.pct(), 100.0);
        assert!(cov.is_full());
        // Out-of-range slots are ignored, not a panic.
        cov.expect(64);
        cov.report(200);
        assert!(cov.covered(64));
        assert_eq!(cov.pct(), 100.0);
    }
}
