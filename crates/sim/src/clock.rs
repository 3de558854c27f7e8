//! Global simulation time and per-node clock drift.
//!
//! §III-B of the paper: "Associating numerical or log events over components
//! and time is particularly tricky when a single global timestamp is
//! unavailable as local clock drift can result in erroneous associations."
//! [`DriftClock`] models exactly that failure mode: each node's local clock
//! runs at a slightly wrong rate with a fixed initial offset, so a log line
//! stamped locally lands at the wrong global time unless corrected.

use crate::rng::Rng;
use hpcmon_metrics::{Ts, TsDelta};
use serde::{Deserialize, Serialize};

/// Per-node drift parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NodeDrift {
    /// Initial offset of the local clock (ms, signed).
    pub offset_ms: i64,
    /// Rate error in parts per million (positive = local clock runs fast).
    pub rate_ppm: f64,
}

/// Clock drift model for the whole machine.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DriftClock {
    drifts: Vec<NodeDrift>,
    /// When true, local timestamps equal global time (NTP-perfect machine).
    pub synchronized: bool,
}

impl DriftClock {
    /// A perfectly synchronized machine (the baseline the paper wishes for).
    pub(crate) fn synchronized(nodes: usize) -> DriftClock {
        DriftClock {
            drifts: vec![NodeDrift { offset_ms: 0, rate_ppm: 0.0 }; nodes],
            synchronized: true,
        }
    }

    /// A machine whose node clocks drift, with offsets up to
    /// `max_offset_ms` and rate errors up to `max_rate_ppm` (both uniform,
    /// signed).  Typical unsynchronized commodity clocks drift tens of ppm;
    /// offsets of seconds accumulate over days.
    pub fn drifting(
        nodes: usize,
        max_offset_ms: u64,
        max_rate_ppm: f64,
        rng: &mut Rng,
    ) -> DriftClock {
        let drifts = (0..nodes)
            .map(|_| NodeDrift {
                offset_ms: rng.range_f64(-(max_offset_ms as f64), max_offset_ms as f64 + 1.0)
                    as i64,
                rate_ppm: rng.range_f64(-max_rate_ppm, max_rate_ppm),
            })
            .collect();
        DriftClock { drifts, synchronized: false }
    }

    /// The local timestamp node `node` would put on an event occurring at
    /// global time `global`.
    pub fn local_time(&self, node: u32, global: Ts) -> Ts {
        if self.synchronized {
            return global;
        }
        let d = self.drifts[node as usize];
        let skew = d.offset_ms as f64 + global.0 as f64 * d.rate_ppm * 1e-6;
        global + TsDelta(skew.round() as i64)
    }

    /// The true global time corresponding to a local stamp from `node`
    /// (what an analysis with access to the drift model can recover).
    pub fn to_global(&self, node: u32, local: Ts) -> Ts {
        if self.synchronized {
            return local;
        }
        let d = self.drifts[node as usize];
        // local = global + offset + global*ppm  =>  global = (local - offset)/(1+ppm)
        let global = (local.0 as f64 - d.offset_ms as f64) / (1.0 + d.rate_ppm * 1e-6);
        Ts(global.round().max(0.0) as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synchronized_is_identity() {
        let c = DriftClock::synchronized(4);
        let t = Ts::from_secs(1_000);
        for n in 0..4 {
            assert_eq!(c.local_time(n, t), t);
            assert_eq!(c.to_global(n, t), t);
        }
    }

    #[test]
    fn drift_offsets_within_bounds_at_epoch() {
        let mut rng = Rng::new(1);
        let c = DriftClock::drifting(100, 5_000, 50.0, &mut rng);
        for n in 0..100 {
            let local = c.local_time(n, Ts::ZERO);
            let skew = local.delta(Ts::ZERO).abs_ms();
            assert!(skew <= 5_001, "node {n} skew {skew}");
        }
    }

    #[test]
    fn rate_error_accumulates() {
        let c = DriftClock {
            drifts: vec![NodeDrift { offset_ms: 0, rate_ppm: 100.0 }],
            synchronized: false,
        };
        // 100 ppm over 10,000 seconds = 1 second fast.
        let g = Ts::from_secs(10_000);
        let local = c.local_time(0, g);
        assert_eq!(local.delta(g), TsDelta(1_000));
    }

    #[test]
    fn to_global_inverts_local_time() {
        let mut rng = Rng::new(2);
        let c = DriftClock::drifting(20, 10_000, 200.0, &mut rng);
        for n in 0..20 {
            // Times comfortably past the largest negative offset, so the
            // epoch saturation in `local_time` never engages.
            for secs in [60u64, 3_600, 86_400] {
                let g = Ts::from_secs(secs);
                let recovered = c.to_global(n, c.local_time(n, g));
                // Rounding can cost a millisecond or two.
                assert!(recovered.delta(g).abs_ms() <= 2, "node {n} at {secs}s");
            }
        }
    }

    #[test]
    fn negative_offset_saturates_at_epoch() {
        let c = DriftClock {
            drifts: vec![NodeDrift { offset_ms: -500, rate_ppm: 0.0 }],
            synchronized: false,
        };
        assert_eq!(c.local_time(0, Ts(100)), Ts::ZERO);
    }

    #[test]
    fn serde_round_trip() {
        let mut rng = Rng::new(3);
        let c = DriftClock::drifting(3, 100, 10.0, &mut rng);
        let s = serde_json::to_string(&c).unwrap();
        let back: DriftClock = serde_json::from_str(&s).unwrap();
        // JSON float text loses the last ulp; compare with tolerance.
        assert_eq!(back.synchronized, c.synchronized);
        assert_eq!(back.drifts.len(), c.drifts.len());
        for (b, a) in back.drifts.iter().zip(&c.drifts) {
            assert_eq!(b.offset_ms, a.offset_ms);
            assert!((b.rate_ppm - a.rate_ppm).abs() < 1e-9);
        }
    }
}
