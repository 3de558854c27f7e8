//! The common signal shape emitted by analysis stages.

use hpcmon_metrics::{CompId, Severity, Ts};
use serde::{Deserialize, Serialize};

/// What kind of condition a signal reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SignalKind {
    /// A metric anomaly (z-score/MAD/threshold detector fired).
    MetricAnomaly,
    /// A changepoint / degradation onset (CUSUM).
    Changepoint,
    /// A log correlation rule fired.
    LogCorrelation,
    /// A never-before-seen log shape appeared.
    LogNovelty,
    /// A node failed a health check.
    HealthCheckFailure,
    /// Power-profile mismatch or cabinet imbalance.
    PowerAnomaly,
    /// A network region is congested.
    Congestion,
    /// A trend forecast predicts a threshold crossing.
    TrendForecast,
    /// The datacenter environment violates a standard (ASHRAE).
    EnvironmentViolation,
    /// The monitoring system itself stopped producing expected data
    /// (deadman detection — silence must not look like health).
    MonitoringGap,
}

/// One analysis finding, normalized for the response engine.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Signal {
    /// When the condition was detected.
    pub ts: Ts,
    /// What kind of condition.
    pub kind: SignalKind,
    /// Severity assessed by the emitting analysis.
    pub severity: Severity,
    /// The component concerned.
    pub comp: CompId,
    /// Detector score / magnitude (meaning depends on `kind`).
    pub score: f64,
    /// Human-readable explanation.
    pub detail: String,
    /// Owning user, when the signal concerns one user's job (drives
    /// access-controlled routing).
    pub user: Option<String>,
}

impl Signal {
    /// Convenience constructor for component-level signals.
    pub fn new(
        ts: Ts,
        kind: SignalKind,
        severity: Severity,
        comp: CompId,
        score: f64,
        detail: impl Into<String>,
    ) -> Signal {
        Signal { ts, kind, severity, comp, score, detail: detail.into(), user: None }
    }

    /// Attach an owning user.
    pub fn with_user(mut self, user: &str) -> Signal {
        self.user = Some(user.to_owned());
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructor_and_user() {
        let s = Signal::new(
            Ts(1),
            SignalKind::Congestion,
            Severity::Warning,
            CompId::cabinet(2),
            0.8,
            "region hot",
        );
        assert_eq!(s.user, None);
        let s = s.with_user("alice");
        assert_eq!(s.user.as_deref(), Some("alice"));
    }

    #[test]
    fn serde_round_trip() {
        let s =
            Signal::new(Ts(9), SignalKind::LogNovelty, Severity::Notice, CompId::SYSTEM, 1.0, "x");
        let j = serde_json::to_string(&s).unwrap();
        let back: Signal = serde_json::from_str(&j).unwrap();
        assert_eq!(s, back);
    }
}
