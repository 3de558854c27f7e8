//! Datacenter environment: temperature, humidity, corrosive gas,
//! particulates.
//!
//! ORNL's Titan story (paper §II-6): GPU failures traced to sulfur
//! corrosion; the site "now monitors their data center environment to
//! ensure that ASHRAE standards for particulate and corrosive gases are
//! exceeded [sic — met]".  NERSC likewise captures environmental data for
//! real-time operations and post-hoc research.  The model provides a
//! diurnal temperature cycle, humidity, an SO₂ concentration with
//! injectable spikes, and a cumulative corrosion *dose* that ages GPU
//! resistors in `hpcmon-sim::node`.

use crate::rng::Rng;
use hpcmon_metrics::Ts;
use serde::{Deserialize, Serialize};

/// ASHRAE G1 "severity level" boundary for SO₂, in parts per billion.
/// (Classification thresholds approximated from ANSI/ISA-71.04.)
pub const ASHRAE_SO2_G1_LIMIT_PPB: f64 = 10.0;

/// Environment state and parameters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EnvState {
    /// Mean machine-room temperature, °C.
    pub base_temp_c: f64,
    /// Diurnal swing amplitude, °C.
    pub temp_swing_c: f64,
    /// Mean relative humidity, percent.
    pub base_humidity_pct: f64,
    /// Baseline SO₂ concentration, ppb.
    pub base_so2_ppb: f64,
    /// Current temperature, °C.
    pub temp_c: f64,
    /// Current relative humidity, percent.
    pub humidity_pct: f64,
    /// Current SO₂ concentration, ppb.
    pub so2_ppb: f64,
    /// Current particulate count (arbitrary ISO-class-like units).
    pub particulates: f64,
    /// Accumulated corrosion dose: ∫ max(0, so2 - G1 limit) dt, in ppb·s.
    pub corrosion_dose_ppb_s: f64,
    /// Active gas spike: (ends_at, added ppb).
    spike: Option<(Ts, f64)>,
}

impl EnvState {
    /// A clean, well-conditioned machine room.
    pub(crate) fn new() -> EnvState {
        EnvState {
            base_temp_c: 22.0,
            temp_swing_c: 1.5,
            base_humidity_pct: 45.0,
            base_so2_ppb: 2.0,
            temp_c: 22.0,
            humidity_pct: 45.0,
            so2_ppb: 2.0,
            particulates: 100.0,
            corrosion_dose_ppb_s: 0.0,
            spike: None,
        }
    }

    /// Inject a corrosive-gas spike of `added_ppb` lasting `duration_ms`
    /// from `now` (e.g. construction work near the air intake — the sort of
    /// event ORNL's monitoring now catches).
    pub(crate) fn inject_gas_spike(&mut self, now: Ts, added_ppb: f64, duration_ms: u64) {
        self.spike = Some((now.add_ms(duration_ms), added_ppb));
    }

    /// Advance the environment to `now` over a tick of `dt_ms`.
    pub(crate) fn step(&mut self, now: Ts, dt_ms: u64, rng: &mut Rng) {
        // Diurnal cycle with period 24h of simulated time.
        let day_fraction = (now.0 % 86_400_000) as f64 / 86_400_000.0;
        let phase = std::f64::consts::TAU * day_fraction;
        self.temp_c =
            self.base_temp_c + self.temp_swing_c * phase.sin() + rng.normal_with(0.0, 0.1);
        self.humidity_pct =
            (self.base_humidity_pct + 5.0 * (phase * 0.5).cos() + rng.normal_with(0.0, 0.5))
                .clamp(0.0, 100.0);
        let spike_ppb = match self.spike {
            Some((until, added)) if now < until => added,
            Some((until, _)) if now >= until => {
                self.spike = None;
                0.0
            }
            _ => 0.0,
        };
        self.so2_ppb = (self.base_so2_ppb + spike_ppb + rng.normal_with(0.0, 0.2)).max(0.0);
        self.particulates = (100.0 + 20.0 * phase.sin() + rng.normal_with(0.0, 3.0)).max(0.0);
        // Corrosion dose integrates exceedance over the ASHRAE limit.
        let exceed = (self.so2_ppb - ASHRAE_SO2_G1_LIMIT_PPB).max(0.0);
        self.corrosion_dose_ppb_s += exceed * dt_ms as f64 / 1_000.0;
    }

    /// Whether the room currently violates the ASHRAE gas limit.
    pub fn exceeds_ashrae_gas_limit(&self) -> bool {
        self.so2_ppb > ASHRAE_SO2_G1_LIMIT_PPB
    }

    /// Fold the full environment state into a flight-recorder digest.
    pub(crate) fn digest_into(&self, h: &mut hpcmon_metrics::StateHash) {
        h.f64(self.temp_c)
            .f64(self.humidity_pct)
            .f64(self.so2_ppb)
            .f64(self.particulates)
            .f64(self.corrosion_dose_ppb_s);
        match self.spike {
            Some((until, added)) => h.u64(until.0).f64(added),
            None => h.u64(u64::MAX),
        };
    }
}

impl Default for EnvState {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_room_accumulates_no_dose() {
        let mut env = EnvState::new();
        let mut rng = Rng::new(1);
        for m in 0..600 {
            env.step(Ts::from_mins(m), 60_000, &mut rng);
        }
        assert_eq!(env.corrosion_dose_ppb_s, 0.0);
        assert!(!env.exceeds_ashrae_gas_limit());
    }

    #[test]
    fn spike_raises_gas_then_decays() {
        let mut env = EnvState::new();
        let mut rng = Rng::new(2);
        env.inject_gas_spike(Ts::from_mins(10), 40.0, 20 * 60_000);
        // Before the spike window the injection is armed but inactive only
        // if stepped before `now`; our spike starts immediately at its
        // injection time, so step into the window.
        env.step(Ts::from_mins(15), 60_000, &mut rng);
        assert!(env.so2_ppb > 30.0);
        assert!(env.exceeds_ashrae_gas_limit());
        let dose_mid = env.corrosion_dose_ppb_s;
        assert!(dose_mid > 0.0);
        // After the window it returns to baseline.
        env.step(Ts::from_mins(31), 60_000, &mut rng);
        assert!(env.so2_ppb < 5.0);
        env.step(Ts::from_mins(32), 60_000, &mut rng);
        let final_dose = env.corrosion_dose_ppb_s;
        // Dose no longer grows once the spike ends.
        assert!(final_dose - dose_mid < 1.0);
    }

    #[test]
    fn temperature_follows_diurnal_cycle() {
        let mut env = EnvState::new();
        let mut rng = Rng::new(3);
        // Quarter day: sin peak; three quarters: sin trough.
        env.step(Ts(86_400_000 / 4), 60_000, &mut rng);
        let warm = env.temp_c;
        env.step(Ts(3 * 86_400_000 / 4), 60_000, &mut rng);
        let cool = env.temp_c;
        assert!(warm > cool, "warm {warm} cool {cool}");
        assert!(warm < env.base_temp_c + env.temp_swing_c + 1.0);
    }

    #[test]
    fn humidity_stays_in_range() {
        let mut env = EnvState::new();
        let mut rng = Rng::new(4);
        for m in 0..1_000 {
            env.step(Ts::from_mins(m), 60_000, &mut rng);
            assert!((0.0..=100.0).contains(&env.humidity_pct));
            assert!(env.particulates >= 0.0);
            assert!(env.so2_ppb >= 0.0);
        }
    }

    #[test]
    fn dose_is_monotone() {
        let mut env = EnvState::new();
        let mut rng = Rng::new(5);
        env.inject_gas_spike(Ts::ZERO, 100.0, 60 * 60_000);
        let mut last = 0.0;
        for m in 0..60 {
            env.step(Ts::from_mins(m), 60_000, &mut rng);
            assert!(env.corrosion_dose_ppb_s >= last);
            last = env.corrosion_dose_ppb_s;
        }
        assert!(last > 0.0);
    }
}
