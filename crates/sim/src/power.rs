//! Node and cabinet power model.
//!
//! KAUST's approach (paper §II-7, Figure 3) treats power as a universal
//! health signal: application power profiles are repeatable, so deviations
//! reveal hung nodes and load imbalance.  This model makes node power an
//! affine function of CPU and GPU activity plus small noise, which is
//! exactly repeatable-enough for profile matching while leaving room for
//! anomalies to stand out.

use crate::node::{NodeHealth, NodeState};
use crate::rng::Rng;
use serde::{Deserialize, Serialize};

/// Power model parameters (watts).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PowerModel {
    /// Node power when idle but up.
    pub node_idle_w: f64,
    /// Additional node power at 100% CPU.
    pub cpu_dynamic_w: f64,
    /// Per-GPU idle power.
    pub gpu_idle_w: f64,
    /// Additional per-GPU power at 100% GPU load.
    pub gpu_dynamic_w: f64,
    /// Gaussian measurement/VR noise (std dev, watts).
    pub noise_w: f64,
}

impl PowerModel {
    /// Values typical of an XC40 compute blade share.
    pub(crate) fn xc40() -> PowerModel {
        PowerModel {
            node_idle_w: 95.0,
            cpu_dynamic_w: 255.0,
            gpu_idle_w: 25.0,
            gpu_dynamic_w: 225.0,
            noise_w: 2.0,
        }
    }

    /// Power at a given CPU frequency scale (p-state).  Dynamic CPU power
    /// follows the classic ~f³ law (P ∝ f·V² with V roughly ∝ f), which is
    /// what makes the SNL p-state sweeps interesting: halving frequency
    /// costs 2× runtime but cuts dynamic power ~8×.
    pub(crate) fn node_power_w_at(
        &self,
        node: &NodeState,
        gpu_util: f64,
        freq_scale: f64,
        rng: &mut Rng,
    ) -> f64 {
        let f3 = freq_scale.clamp(0.1, 1.0).powi(3);
        match node.health {
            NodeHealth::Down => 0.0,
            NodeHealth::Hung => {
                let base = self.node_idle_w + node.gpus.len() as f64 * self.gpu_idle_w;
                (base + rng.normal_with(0.0, self.noise_w)).max(0.0)
            }
            NodeHealth::Up => {
                let cpu =
                    self.node_idle_w + self.cpu_dynamic_w * f3 * node.cpu_util.clamp(0.0, 1.0);
                let gpu = node.gpus.len() as f64
                    * (self.gpu_idle_w + self.gpu_dynamic_w * gpu_util.clamp(0.0, 1.0));
                (cpu + gpu + rng.normal_with(0.0, self.noise_w)).max(0.0)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quiet_model() -> PowerModel {
        PowerModel { noise_w: 0.0, ..PowerModel::xc40() }
    }

    fn node_with(cpu: f64, gpus: usize) -> NodeState {
        let mut n = NodeState::new(64e9, (0..gpus as u32).collect());
        n.cpu_util = cpu;
        n
    }

    #[test]
    fn idle_node_draws_idle_power() {
        let m = quiet_model();
        let mut rng = Rng::new(1);
        let p = m.node_power_w_at(&node_with(0.0, 0), 0.0, 1.0, &mut rng);
        assert!((p - m.node_idle_w).abs() < 1e-9);
    }

    #[test]
    fn busy_node_draws_more() {
        let m = quiet_model();
        let mut rng = Rng::new(1);
        let idle = m.node_power_w_at(&node_with(0.0, 0), 0.0, 1.0, &mut rng);
        let busy = m.node_power_w_at(&node_with(1.0, 0), 0.0, 1.0, &mut rng);
        assert!((busy - idle - m.cpu_dynamic_w).abs() < 1e-9);
        // Realistic imbalance signal: busy/idle ratio is large enough to
        // produce the ~3x cabinet variation of Figure 3.
        assert!(busy / idle > 3.0);
    }

    #[test]
    fn gpu_power_adds_per_gpu() {
        let m = quiet_model();
        let mut rng = Rng::new(1);
        let none = m.node_power_w_at(&node_with(0.5, 0), 0.0, 1.0, &mut rng);
        let two_idle = m.node_power_w_at(&node_with(0.5, 2), 0.0, 1.0, &mut rng);
        let two_busy = m.node_power_w_at(&node_with(0.5, 2), 1.0, 1.0, &mut rng);
        assert!((two_idle - none - 2.0 * m.gpu_idle_w).abs() < 1e-9);
        assert!((two_busy - two_idle - 2.0 * m.gpu_dynamic_w).abs() < 1e-9);
    }

    #[test]
    fn down_node_draws_nothing() {
        let m = quiet_model();
        let mut rng = Rng::new(1);
        let mut n = node_with(1.0, 2);
        n.crash();
        assert_eq!(m.node_power_w_at(&n, 1.0, 1.0, &mut rng), 0.0);
    }

    #[test]
    fn hung_node_draws_idle() {
        let m = quiet_model();
        let mut rng = Rng::new(1);
        let mut n = node_with(1.0, 1);
        n.health = NodeHealth::Hung;
        let p = m.node_power_w_at(&n, 1.0, 1.0, &mut rng);
        assert!((p - m.node_idle_w - m.gpu_idle_w).abs() < 1e-9);
    }

    #[test]
    fn utilization_is_clamped() {
        let m = quiet_model();
        let mut rng = Rng::new(1);
        let over = m.node_power_w_at(&node_with(5.0, 0), 0.0, 1.0, &mut rng);
        let full = m.node_power_w_at(&node_with(1.0, 0), 0.0, 1.0, &mut rng);
        assert_eq!(over, full);
    }

    #[test]
    fn pstate_scaling_follows_cubic_law() {
        let m = quiet_model();
        let mut rng = Rng::new(5);
        let n = node_with(1.0, 0);
        let full = m.node_power_w_at(&n, 0.0, 1.0, &mut rng);
        let half = m.node_power_w_at(&n, 0.0, 0.5, &mut rng);
        // Dynamic part drops to 1/8 at half frequency; idle unchanged.
        let expected = m.node_idle_w + m.cpu_dynamic_w * 0.125;
        assert!((half - expected).abs() < 1e-9, "half {half} expected {expected}");
        assert!(full > half);
        // Scale is clamped.
        let tiny = m.node_power_w_at(&n, 0.0, 0.0, &mut rng);
        assert!(tiny >= m.node_idle_w);
        assert_eq!(m.node_power_w_at(&n, 0.0, 5.0, &mut rng), full);
    }

    #[test]
    fn noise_is_zero_mean() {
        let m = PowerModel::xc40();
        let mut rng = Rng::new(3);
        let n = node_with(0.5, 0);
        let base = m.node_idle_w + 0.5 * m.cpu_dynamic_w;
        let mean: f64 =
            (0..5_000).map(|_| m.node_power_w_at(&n, 0.0, 1.0, &mut rng)).sum::<f64>() / 5_000.0;
        assert!((mean - base).abs() < 0.5, "mean {mean} vs base {base}");
    }
}
