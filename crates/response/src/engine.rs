//! The response rule engine.
//!
//! Responses at the paper's sites are "typically simple — such as issuing
//! an alert or marking a node as down" (§III-C), with richer ones
//! envisioned (scheduler feedback, power redirection).  The engine
//! supports both tiers: every rule maps a [`SignalMatch`] to a list of
//! [`Action`]s, and a per-(rule, component) cooldown keeps event storms
//! from becoming pager storms.

use crate::signal::{Signal, SignalKind};
use hpcmon_metrics::{CompId, Severity, Ts};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// What a fired rule does.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Action {
    /// Send an alert on a named route (consumed via [`crate::access`]).
    Alert {
        /// Route name, e.g. "ops-pager", "user-portal".
        route: String,
    },
    /// Take the component's node out of scheduling.
    SidelineNode,
    /// Ask the scheduler to stop placing new work (node drains naturally).
    DrainNode,
    /// Requeue the affected job.
    RequeueJob,
    /// Notify the owning user (respecting access control).
    NotifyUser,
    /// Shift power budget between partitions (the paper's "redirection of
    /// power between platforms" vision).
    RedirectPowerBudget {
        /// Watts to shift.
        watts: f64,
    },
}

/// Predicate over signals.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SignalMatch {
    /// Required kind, or `None` for any.
    pub kind: Option<SignalKind>,
    /// Minimum severity.
    pub min_severity: Severity,
}

impl SignalMatch {
    /// Match a kind at or above a severity.
    pub(crate) fn kind(kind: SignalKind, min_severity: Severity) -> SignalMatch {
        SignalMatch { kind: Some(kind), min_severity }
    }

    /// Match anything at or above a severity.
    pub(crate) fn any(min_severity: Severity) -> SignalMatch {
        SignalMatch { kind: None, min_severity }
    }

    /// Whether a signal satisfies this match.
    pub(crate) fn matches(&self, s: &Signal) -> bool {
        if let Some(k) = self.kind {
            if s.kind != k {
                return false;
            }
        }
        // A NaN score matches no rule.
        s.severity >= self.min_severity && !s.score.is_nan()
    }
}

/// A configured rule.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ResponseRule {
    /// Rule name (appears in the action record).
    pub name: String,
    /// When it fires.
    pub m: SignalMatch,
    /// What it does.
    pub actions: Vec<Action>,
    /// Minimum ms between firings for the same (rule, component).
    pub cooldown_ms: u64,
}

/// A record of an executed action.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ActionTaken {
    /// When.
    pub ts: Ts,
    /// Which rule fired.
    pub rule: String,
    /// The action.
    pub action: Action,
    /// The component it concerns.
    pub comp: CompId,
    /// The triggering signal's detail.
    pub detail: String,
    /// Owning user from the signal, if any.
    pub user: Option<String>,
}

/// The engine: rules + cooldown state + an action journal.
pub struct ResponseEngine {
    rules: Vec<ResponseRule>,
    last_fired: HashMap<(usize, CompId), Ts>,
    journal: Vec<ActionTaken>,
    signals_handled: u64,
    suppressed_by_cooldown: u64,
}

/// Checkpointed response-engine state: cooldowns, journal, counters.  The
/// rules are configuration and are rebuilt by the caller.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ResponseSnapshot {
    // Vec-of-pairs: the serde layer only supports string map keys.
    last_fired: Vec<(usize, CompId, Ts)>,
    journal: Vec<ActionTaken>,
    signals_handled: u64,
    suppressed_by_cooldown: u64,
}

impl ResponseEngine {
    /// Capture cooldowns, journal and counters for a flight-recorder
    /// checkpoint (sorted so the bytes are canonical).
    pub fn snapshot(&self) -> ResponseSnapshot {
        let mut last_fired: Vec<(usize, CompId, Ts)> =
            self.last_fired.iter().map(|(&(rule, comp), &ts)| (rule, comp, ts)).collect();
        last_fired.sort_by_key(|&(rule, comp, _)| (rule, comp));
        ResponseSnapshot {
            last_fired,
            journal: self.journal.clone(),
            signals_handled: self.signals_handled,
            suppressed_by_cooldown: self.suppressed_by_cooldown,
        }
    }

    /// Re-attach checkpointed state (rules stay as configured).
    pub fn restore(&mut self, snap: ResponseSnapshot) {
        self.last_fired =
            snap.last_fired.into_iter().map(|(rule, comp, ts)| ((rule, comp), ts)).collect();
        self.journal = snap.journal;
        self.signals_handled = snap.signals_handled;
        self.suppressed_by_cooldown = snap.suppressed_by_cooldown;
    }

    /// 64-bit digest of cooldown state and counters, for per-tick replay
    /// verification (cooldowns folded in sorted order).
    pub fn state_digest(&self) -> u64 {
        let mut h = hpcmon_metrics::StateHash::new(0x2E);
        h.u64(self.signals_handled).u64(self.suppressed_by_cooldown).usize(self.journal.len());
        let mut fired: Vec<(usize, CompId, Ts)> =
            self.last_fired.iter().map(|(&(rule, comp), &ts)| (rule, comp, ts)).collect();
        fired.sort_by_key(|&(rule, comp, _)| (rule, comp));
        h.usize(fired.len());
        for (rule, comp, ts) in fired {
            h.usize(rule).u64(comp.kind as u64).u64(comp.index as u64).u64(ts.0);
        }
        h.finish()
    }

    /// Build from a rule set.
    pub fn new(rules: Vec<ResponseRule>) -> ResponseEngine {
        ResponseEngine {
            rules,
            last_fired: HashMap::new(),
            journal: Vec::new(),
            signals_handled: 0,
            suppressed_by_cooldown: 0,
        }
    }

    /// Lifetime evaluation counts: (signals handled, rule firings suppressed
    /// by cooldown) — the self-telemetry feed for the response stage.
    pub fn eval_counts(&self) -> (u64, u64) {
        (self.signals_handled, self.suppressed_by_cooldown)
    }

    /// A production-flavored default rule set.
    pub fn production_rules() -> Vec<ResponseRule> {
        vec![
            ResponseRule {
                name: "page-on-critical".into(),
                m: SignalMatch::any(Severity::Critical),
                actions: vec![Action::Alert { route: "ops-pager".into() }],
                cooldown_ms: 5 * 60_000,
            },
            ResponseRule {
                name: "sideline-unhealthy-node".into(),
                m: SignalMatch::kind(SignalKind::HealthCheckFailure, Severity::Warning),
                actions: vec![
                    Action::SidelineNode,
                    Action::Alert { route: "ops-dashboard".into() },
                ],
                cooldown_ms: 10 * 60_000,
            },
            ResponseRule {
                name: "warn-on-changepoint".into(),
                m: SignalMatch::kind(SignalKind::Changepoint, Severity::Warning),
                actions: vec![Action::Alert { route: "ops-dashboard".into() }],
                cooldown_ms: 30 * 60_000,
            },
            ResponseRule {
                name: "notify-user-power-anomaly".into(),
                m: SignalMatch::kind(SignalKind::PowerAnomaly, Severity::Warning),
                actions: vec![Action::NotifyUser, Action::Alert { route: "ops-dashboard".into() }],
                cooldown_ms: 10 * 60_000,
            },
            ResponseRule {
                name: "environment-violation".into(),
                m: SignalMatch::kind(SignalKind::EnvironmentViolation, Severity::Warning),
                actions: vec![Action::Alert { route: "facilities".into() }],
                cooldown_ms: 60 * 60_000,
            },
        ]
    }

    /// Handle one signal; returns the actions taken (also journaled).
    pub fn handle(&mut self, signal: &Signal) -> Vec<ActionTaken> {
        self.signals_handled += 1;
        let mut taken = Vec::new();
        for (i, rule) in self.rules.iter().enumerate() {
            if !rule.m.matches(signal) {
                continue;
            }
            let key = (i, signal.comp);
            if let Some(&last) = self.last_fired.get(&key) {
                if signal.ts.0.saturating_sub(last.0) < rule.cooldown_ms {
                    self.suppressed_by_cooldown += 1;
                    continue;
                }
            }
            self.last_fired.insert(key, signal.ts);
            for action in &rule.actions {
                taken.push(ActionTaken {
                    ts: signal.ts,
                    rule: rule.name.clone(),
                    action: action.clone(),
                    comp: signal.comp,
                    detail: signal.detail.clone(),
                    user: signal.user.clone(),
                });
            }
        }
        self.journal.extend(taken.iter().cloned());
        taken
    }

    /// Every action ever taken.
    pub fn journal(&self) -> &[ActionTaken] {
        &self.journal
    }

    /// Actions on a given alert route.
    pub fn alerts_on_route(&self, route: &str) -> Vec<&ActionTaken> {
        self.journal
            .iter()
            .filter(|a| matches!(&a.action, Action::Alert { route: r } if r == route))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sig(ts_min: u64, kind: SignalKind, sev: Severity, comp: CompId) -> Signal {
        Signal::new(Ts::from_mins(ts_min), kind, sev, comp, 10.0, "test")
    }

    fn engine_one(rule: ResponseRule) -> ResponseEngine {
        ResponseEngine::new(vec![rule])
    }

    #[test]
    fn rule_fires_matching_signal() {
        let mut e = engine_one(ResponseRule {
            name: "r".into(),
            m: SignalMatch::kind(SignalKind::HealthCheckFailure, Severity::Warning),
            actions: vec![Action::SidelineNode],
            cooldown_ms: 0,
        });
        let taken =
            e.handle(&sig(0, SignalKind::HealthCheckFailure, Severity::Error, CompId::node(3)));
        assert_eq!(taken.len(), 1);
        assert_eq!(taken[0].action, Action::SidelineNode);
        assert_eq!(taken[0].comp, CompId::node(3));
        // Wrong kind: nothing.
        assert!(e
            .handle(&sig(1, SignalKind::Congestion, Severity::Error, CompId::node(3)))
            .is_empty());
        // Too mild: nothing.
        assert!(e
            .handle(&sig(2, SignalKind::HealthCheckFailure, Severity::Info, CompId::node(3)))
            .is_empty());
    }

    #[test]
    fn cooldown_suppresses_storms_per_component() {
        let mut e = engine_one(ResponseRule {
            name: "r".into(),
            m: SignalMatch::any(Severity::Warning),
            actions: vec![Action::Alert { route: "pager".into() }],
            cooldown_ms: 10 * 60_000,
        });
        let comp = CompId::node(1);
        assert_eq!(e.handle(&sig(0, SignalKind::MetricAnomaly, Severity::Error, comp)).len(), 1);
        // Storm within cooldown: suppressed.
        for m in 1..9 {
            assert!(e.handle(&sig(m, SignalKind::MetricAnomaly, Severity::Error, comp)).is_empty());
        }
        // A different component is independent.
        assert_eq!(
            e.handle(&sig(3, SignalKind::MetricAnomaly, Severity::Error, CompId::node(2))).len(),
            1
        );
        // After the cooldown it fires again.
        assert_eq!(e.handle(&sig(11, SignalKind::MetricAnomaly, Severity::Error, comp)).len(), 1);
        assert_eq!(e.alerts_on_route("pager").len(), 3);
    }

    #[test]
    fn multiple_rules_and_actions() {
        let mut e = ResponseEngine::new(ResponseEngine::production_rules());
        let s = sig(0, SignalKind::HealthCheckFailure, Severity::Critical, CompId::node(7));
        let taken = e.handle(&s);
        // page-on-critical (1 action) + sideline-unhealthy-node (2 actions).
        assert_eq!(taken.len(), 3);
        assert!(taken.iter().any(|a| a.action == Action::SidelineNode));
        assert_eq!(e.alerts_on_route("ops-pager").len(), 1);
        assert_eq!(e.alerts_on_route("ops-dashboard").len(), 1);
    }

    #[test]
    fn journal_accumulates() {
        let mut e = engine_one(ResponseRule {
            name: "r".into(),
            m: SignalMatch::any(Severity::Debug),
            actions: vec![Action::Alert { route: "x".into() }, Action::DrainNode],
            cooldown_ms: 0,
        });
        e.handle(&sig(0, SignalKind::Congestion, Severity::Info, CompId::cabinet(0)));
        e.handle(&sig(1, SignalKind::Congestion, Severity::Info, CompId::cabinet(0)));
        assert_eq!(e.journal().len(), 4);
        assert_eq!(e.rules.len(), 1);
    }

    #[test]
    fn user_flows_through_to_action() {
        let mut e = engine_one(ResponseRule {
            name: "r".into(),
            m: SignalMatch::kind(SignalKind::PowerAnomaly, Severity::Warning),
            actions: vec![Action::NotifyUser],
            cooldown_ms: 0,
        });
        let s =
            sig(0, SignalKind::PowerAnomaly, Severity::Warning, CompId::job(9)).with_user("alice");
        let taken = e.handle(&s);
        assert_eq!(taken[0].user.as_deref(), Some("alice"));
    }

    #[test]
    fn power_redirect_action_carries_watts() {
        let mut e = engine_one(ResponseRule {
            name: "powercap".into(),
            m: SignalMatch::kind(SignalKind::PowerAnomaly, Severity::Error),
            actions: vec![Action::RedirectPowerBudget { watts: 50_000.0 }],
            cooldown_ms: 0,
        });
        let taken = e.handle(&sig(0, SignalKind::PowerAnomaly, Severity::Error, CompId::SYSTEM));
        assert_eq!(taken[0].action, Action::RedirectPowerBudget { watts: 50_000.0 });
    }
}
