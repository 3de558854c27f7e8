//! Declarative SLO specifications and the multi-window burn-rate math.
//!
//! An [`SloSpec`] names a good/bad event stream (a *feed*, wired up by the
//! embedding pipeline), a target good-ratio, and two rolling windows in
//! the Google-SRE multi-window multi-burn-rate style: the **fast** window
//! reacts within a few ticks and clears quickly after a heal, the **slow**
//! window confirms that real error budget was spent.  An alert condition
//! holds only while *both* windows burn above their thresholds, which is
//! what makes the lifecycle hysteretic without wall-clock timers.

use hpcmon_metrics::Severity;
use serde::{Deserialize, Serialize};

/// The monitoring-plane subsystem an SLO grades on the health board.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Subsystem {
    /// Collector fan-out and frame coverage.
    Collect,
    /// Broker publish/deliver path.
    Transport,
    /// Hot/warm store ingest.
    Store,
    /// Query gateway serving.
    Gateway,
    /// Fault-injection quiescence (fires while chaos is actively hurting us).
    Chaos,
    /// WAN links and rollup delivery in federation mode.
    Federation,
}

impl Subsystem {
    /// Every subsystem, in board render order.
    pub const ALL: [Subsystem; 6] = [
        Subsystem::Collect,
        Subsystem::Transport,
        Subsystem::Store,
        Subsystem::Gateway,
        Subsystem::Chaos,
        Subsystem::Federation,
    ];

    /// Lowercase label used in dedup keys, series names, and the board.
    pub fn label(self) -> &'static str {
        match self {
            Subsystem::Collect => "collect",
            Subsystem::Transport => "transport",
            Subsystem::Store => "store",
            Subsystem::Gateway => "gateway",
            Subsystem::Chaos => "chaos",
            Subsystem::Federation => "federation",
        }
    }
}

/// One declarative service-level objective over a good/bad feed.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SloSpec {
    /// Short name, unique within a subsystem (`"ingest"`, `"coverage"`).
    pub name: String,
    /// Subsystem this SLO grades.
    pub subsystem: Subsystem,
    /// Key of the feed the embedding pipeline supplies each tick.
    pub feed: String,
    /// Target good-ratio in `[0, 1)`; the error budget is `1 - target`.
    pub target: f64,
    /// Fast burn-rate window, ticks.
    pub fast_window: usize,
    /// Slow burn-rate window, ticks.
    pub slow_window: usize,
    /// Firing threshold on the fast window's burn rate.
    pub fast_burn: f64,
    /// Firing threshold on the slow window's burn rate.
    pub slow_burn: f64,
    /// Consecutive violating ticks before Pending promotes to Firing.
    pub pending_ticks: u64,
    /// Consecutive clear ticks before Firing resolves.
    pub resolve_ticks: u64,
    /// Severity stamped on this SLO's alerts.
    pub severity: Severity,
    /// Federation site this SLO belongs to, if any.
    pub site: Option<String>,
}

impl SloSpec {
    /// A spec with the standard window/hysteresis defaults: fast window 5,
    /// slow window 60, burn thresholds 2.0 (fast) and 1.0 (slow), two
    /// pending ticks, five resolve ticks, `Warning` severity.
    pub(crate) fn new(name: &str, subsystem: Subsystem, feed: &str, target: f64) -> SloSpec {
        SloSpec {
            name: name.to_string(),
            subsystem,
            feed: feed.to_string(),
            target,
            fast_window: 5,
            slow_window: 60,
            fast_burn: 2.0,
            slow_burn: 1.0,
            pending_ticks: 2,
            resolve_ticks: 5,
            severity: Severity::Warning,
            site: None,
        }
    }

    /// Override the alert severity.
    pub(crate) fn severity(mut self, severity: Severity) -> SloSpec {
        self.severity = severity;
        self
    }

    /// Attach the SLO to a federation site; the site joins the dedup key.
    pub(crate) fn site(mut self, site: &str) -> SloSpec {
        self.site = Some(site.to_string());
        self
    }

    /// Error budget: the tolerated bad fraction, floored so a `target` of
    /// exactly 1.0 still yields finite burn rates.
    pub(crate) fn budget(&self) -> f64 {
        (1.0 - self.target).max(1e-9)
    }

    /// Stable dedup key: `subsystem/name`, plus `@site` in federation mode.
    pub(crate) fn key(&self) -> String {
        match &self.site {
            Some(site) => format!("{}/{}@{}", self.subsystem.label(), self.name, site),
            None => format!("{}/{}", self.subsystem.label(), self.name),
        }
    }
}

/// Burn rate of a `(good, bad)` window against an error budget: the
/// observed bad-ratio divided by the tolerated one.  A window with no
/// events burns nothing (absence of traffic is not an outage).
pub fn burn_rate(good: f64, bad: f64, budget: f64) -> f64 {
    let total = good + bad;
    if total <= 0.0 {
        return 0.0;
    }
    (bad / total) / budget
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budget_is_floored() {
        let s = SloSpec::new("x", Subsystem::Store, "f", 1.0);
        assert!(s.budget() > 0.0);
        let s = SloSpec::new("x", Subsystem::Store, "f", 0.99);
        assert!((s.budget() - 0.01).abs() < 1e-12);
    }

    #[test]
    fn burn_rate_basics() {
        // 1% bad against a 1% budget burns at exactly 1.0.
        assert!((burn_rate(99.0, 1.0, 0.01) - 1.0).abs() < 1e-12);
        // Total failure against a 0.1% budget burns at 1000x.
        assert!((burn_rate(0.0, 5.0, 0.001) - 1000.0).abs() < 1e-9);
        // No traffic: no burn.
        assert_eq!(burn_rate(0.0, 0.0, 0.01), 0.0);
    }

    #[test]
    fn keys_are_site_scoped() {
        let s = SloSpec::new("ingest", Subsystem::Store, "store.ingest", 0.999);
        assert_eq!(s.key(), "store/ingest");
        assert_eq!(s.site("alcf").key(), "store/ingest@alcf");
    }
}
