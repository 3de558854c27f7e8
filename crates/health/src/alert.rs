//! Alert lifecycle: phases, transition events, silences, and the health
//! report types the operator console renders.
//!
//! The state machine is `Ok → Pending → Firing → Ok`, driven purely by
//! ticks: Pending promotes to Firing after `pending_ticks` consecutive
//! violating ticks, Firing resolves after `resolve_ticks` consecutive
//! clear ticks, and a Pending alert whose condition clears drops back to
//! Ok silently (it never fired, so there is nothing to resolve).  Every
//! *published* transition is an [`AlertEvent`] — a plain serde value, so
//! the broker payload, the stored series, and the byte-diffed canonical
//! timeline are all views of the same record.

use crate::slo::Subsystem;
use hpcmon_metrics::Severity;
use serde::{Deserialize, Serialize};

/// Published alert lifecycle transitions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Transition {
    /// The condition started violating; not yet confirmed.
    Pending,
    /// Confirmed: violating for `pending_ticks` consecutive ticks.
    Firing,
    /// Healed: clear for `resolve_ticks` consecutive ticks after Firing.
    Resolved,
}

/// One alert lifecycle transition, keyed by tick.
///
/// `exemplar_trace` is observability garnish, not state: it links the
/// alert to the trace nearest the violating latency quantile when tracing
/// is on, but it is zeroed out of the canonical timeline and excluded
/// from state digests because exemplar selection rides wall-clock stage
/// timings.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AlertEvent {
    /// Tick the transition happened on.
    pub tick: u64,
    /// Dedup key (`subsystem/name` or `subsystem/name@site`).
    pub key: String,
    /// Subsystem the underlying SLO grades.
    pub subsystem: Subsystem,
    /// Federation site, if the SLO is site-scoped.
    pub site: Option<String>,
    /// Which lifecycle edge this is.
    pub transition: Transition,
    /// Severity from the SLO spec.
    pub severity: Severity,
    /// Fast-window burn rate at the transition tick.
    pub fast_burn: f64,
    /// Slow-window burn rate at the transition tick.
    pub slow_burn: f64,
    /// Trace id nearest the violating quantile (0 when tracing is off).
    pub exemplar_trace: u64,
    /// True if a silence matched: recorded but not broker-published.
    pub silenced: bool,
}

/// A tick-keyed silence window.  `key` is an exact dedup key or a
/// trailing-`*` glob (`"store/*"` silences every store alert).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Silence {
    /// Dedup key or trailing-`*` glob to match.
    pub key: String,
    /// First silenced tick (inclusive).
    pub from_tick: u64,
    /// First tick no longer silenced (exclusive).
    pub until_tick: u64,
}

impl Silence {
    /// Does this silence cover `key` at `tick`?
    pub(crate) fn matches(&self, key: &str, tick: u64) -> bool {
        if tick < self.from_tick || tick >= self.until_tick {
            return false;
        }
        match self.key.strip_suffix('*') {
            Some(prefix) => key.starts_with(prefix),
            None => self.key == key,
        }
    }
}

/// Per-subsystem health grade, worst-of over that subsystem's alerts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Grade {
    /// No active alerts.
    Healthy,
    /// Something is Pending, or Firing below `Error` severity.
    Degraded,
    /// Firing at `Error` severity or above.
    Critical,
}

impl Grade {
    /// Uppercase label for the board.
    pub fn label(self) -> &'static str {
        match self {
            Grade::Healthy => "OK",
            Grade::Degraded => "DEGRADED",
            Grade::Critical => "CRITICAL",
        }
    }
}

/// A currently Pending or Firing alert as shown on the board.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ActiveAlert {
    /// Dedup key.
    pub key: String,
    /// Subsystem of the underlying SLO.
    pub subsystem: Subsystem,
    /// Federation site, if site-scoped.
    pub site: Option<String>,
    /// Severity from the SLO spec.
    pub severity: Severity,
    /// True if Firing, false if still Pending.
    pub firing: bool,
    /// Tick the current episode started violating.
    pub since_tick: u64,
    /// Ticks since `since_tick`, as of the report tick.
    pub age_ticks: u64,
    /// Current fast-window burn rate.
    pub fast_burn: f64,
    /// Current slow-window burn rate.
    pub slow_burn: f64,
    /// Exemplar trace captured when the alert fired (0 if none).
    pub exemplar_trace: u64,
}

/// One subsystem row of the board.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SubsystemHealth {
    /// Which subsystem.
    pub subsystem: Subsystem,
    /// Worst-of grade over its alerts.
    pub grade: Grade,
    /// Count of Firing alerts.
    pub firing: usize,
    /// Count of Pending alerts.
    pub pending: usize,
}

/// One federation-site row of the board (site-scoped SLOs only).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SiteHealth {
    /// Site name.
    pub site: String,
    /// Worst-of grade over the site's alerts.
    pub grade: Grade,
    /// Count of Firing alerts.
    pub firing: usize,
    /// Count of Pending alerts.
    pub pending: usize,
}

/// Everything the operator console needs for one render.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HealthReport {
    /// Tick the report describes.
    pub tick: u64,
    /// One row per subsystem, in [`Subsystem::ALL`] order.
    pub subsystems: Vec<SubsystemHealth>,
    /// Active (Pending or Firing) alerts, Firing first, then by key.
    pub active: Vec<ActiveAlert>,
    /// Per-site rollup rows; empty outside federation mode.
    pub sites: Vec<SiteHealth>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn silence_exact_and_glob() {
        let s = Silence { key: "store/ingest".into(), from_tick: 10, until_tick: 20 };
        assert!(s.matches("store/ingest", 10));
        assert!(s.matches("store/ingest", 19));
        assert!(!s.matches("store/ingest", 20), "until is exclusive");
        assert!(!s.matches("store/ingest", 9));
        assert!(!s.matches("store/other", 15));

        let g = Silence { key: "store/*".into(), from_tick: 0, until_tick: u64::MAX };
        assert!(g.matches("store/ingest", 5));
        assert!(g.matches("store/ingest@alcf", 5));
        assert!(!g.matches("transport/delivery", 5));
    }

    #[test]
    fn grades_order_worst_last() {
        assert!(Grade::Healthy < Grade::Degraded);
        assert!(Grade::Degraded < Grade::Critical);
    }

    #[test]
    fn alert_event_round_trips_serde() {
        let ev = AlertEvent {
            tick: 42,
            key: "store/ingest".into(),
            subsystem: Subsystem::Store,
            site: None,
            transition: Transition::Firing,
            severity: Severity::Error,
            fast_burn: 900.0,
            slow_burn: 75.0,
            exemplar_trace: 7,
            silenced: false,
        };
        let json = serde_json::to_string(&ev).expect("serialize");
        let back: AlertEvent = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(ev, back);
    }
}
