//! SEC-style log event correlation.
//!
//! "Cray systems more generally use SEC, which can trigger events, such as
//! alerts, upon matching conditions" and "in production most log analysis
//! involves detection of well-known log lines" (paper §III-B, §IV-C).
//! Three rule shapes cover what the sites describe:
//!
//! * [`Rule::Single`] — fire on every matching line (the well-known-line
//!   scan).
//! * [`Rule::Threshold`] — fire when N matching lines land within a time
//!   window (error storms, CRC retry bursts).
//! * [`Rule::Pair`] — fire when a *second* pattern follows a *first*
//!   within a window (event propagation across components, e.g. an HSN
//!   link failure followed by job failures — the cross-time association
//!   the paper says "require\[s\] a vendor-supported understanding of the
//!   architecture").

use hpcmon_metrics::{CompId, LogRecord, Severity, Ts};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// Predicate over log records.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct EventMatch {
    /// Match a specific template id.
    pub template: Option<u32>,
    /// Require this (case-insensitive) substring in the message.
    pub contains: Option<String>,
    /// Require at least this severity.
    pub min_severity: Option<Severity>,
}

impl EventMatch {
    /// Match a template id.
    pub(crate) fn template(t: u32) -> EventMatch {
        EventMatch { template: Some(t), ..Default::default() }
    }

    /// Match a message substring.
    pub fn contains(s: &str) -> EventMatch {
        EventMatch { contains: Some(s.to_lowercase()), ..Default::default() }
    }

    /// Add a severity floor.
    pub(crate) fn with_min_severity(mut self, sev: Severity) -> EventMatch {
        self.min_severity = Some(sev);
        self
    }

    /// Whether a record satisfies every present clause.
    pub(crate) fn matches(&self, rec: &LogRecord) -> bool {
        if let Some(t) = self.template {
            if rec.template != Some(t) {
                return false;
            }
        }
        if let Some(ref s) = self.contains {
            if !rec.message.to_lowercase().contains(s.as_str()) {
                return false;
            }
        }
        if let Some(min) = self.min_severity {
            if rec.severity < min {
                return false;
            }
        }
        true
    }
}

/// A correlation rule.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Rule {
    /// Fire on every match.
    Single {
        /// Rule name (reported in findings).
        name: String,
        /// The predicate.
        m: EventMatch,
    },
    /// Fire when `count` matches land within `window_ms`.
    Threshold {
        /// Rule name.
        name: String,
        /// The predicate.
        m: EventMatch,
        /// Matches required.
        count: usize,
        /// Window length.
        window_ms: u64,
    },
    /// Fire when `second` occurs within `window_ms` after `first`.
    Pair {
        /// Rule name.
        name: String,
        /// The triggering predicate.
        first: EventMatch,
        /// The consequent predicate.
        second: EventMatch,
        /// Maximum delay between them.
        window_ms: u64,
    },
}

/// A fired rule.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Finding {
    /// Name of the rule that fired.
    pub rule: String,
    /// When it fired (timestamp of the completing record).
    pub ts: Ts,
    /// Components involved (1 for Single/Threshold trigger, 2 for Pair).
    pub comps: Vec<CompId>,
    /// Short human explanation.
    pub detail: String,
}

#[derive(Debug, Clone, Serialize, Deserialize)]
enum RuleState {
    Single,
    Threshold { recent: VecDeque<Ts> },
    Pair { pending_first: VecDeque<(Ts, CompId)> },
}

/// Checkpointed correlator state: per-rule windows (in rule order) plus the
/// lifetime counters.  The rules themselves are configuration and are
/// rebuilt by the caller; restore re-attaches state positionally.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CorrelatorSnapshot {
    states: Vec<RuleState>,
    records_observed: u64,
    findings_emitted: u64,
}

/// The correlation engine: feed records in time order, collect findings.
///
/// ```
/// use hpcmon_analysis::{Correlator, EventMatch, Rule};
/// use hpcmon_metrics::{CompId, LogRecord, Severity, Ts};
///
/// let mut correlator = Correlator::new(vec![Rule::Single {
///     name: "link-down".into(),
///     m: EventMatch::contains("lcb failure"),
/// }]);
/// let rec = LogRecord::new(
///     Ts(0), CompId::link(4), Severity::Error, "hwerr", "LCB failure on link r0->r1",
/// );
/// let findings = correlator.observe(&rec);
/// assert_eq!(findings.len(), 1);
/// assert_eq!(findings[0].rule, "link-down");
/// ```
pub struct Correlator {
    rules: Vec<(Rule, RuleState)>,
    records_observed: u64,
    findings_emitted: u64,
}

impl Correlator {
    /// Build from a rule set.
    pub fn new(rules: Vec<Rule>) -> Correlator {
        let rules = rules
            .into_iter()
            .map(|r| {
                let state = match &r {
                    Rule::Single { .. } => RuleState::Single,
                    Rule::Threshold { .. } => RuleState::Threshold { recent: VecDeque::new() },
                    Rule::Pair { .. } => RuleState::Pair { pending_first: VecDeque::new() },
                };
                (r, state)
            })
            .collect();
        Correlator { rules, records_observed: 0, findings_emitted: 0 }
    }

    /// Lifetime evaluation counts: (records observed, findings emitted) —
    /// the self-telemetry feed for this analysis stage.
    pub fn eval_counts(&self) -> (u64, u64) {
        (self.records_observed, self.findings_emitted)
    }

    /// Capture the correlation windows for a flight-recorder checkpoint.
    pub fn snapshot(&self) -> CorrelatorSnapshot {
        CorrelatorSnapshot {
            states: self.rules.iter().map(|(_, s)| s.clone()).collect(),
            records_observed: self.records_observed,
            findings_emitted: self.findings_emitted,
        }
    }

    /// Re-attach checkpointed state to this correlator's rules
    /// (positionally; a rule-count mismatch leaves extra rules fresh).
    pub fn restore(&mut self, snap: CorrelatorSnapshot) {
        for ((_, state), restored) in self.rules.iter_mut().zip(snap.states) {
            *state = restored;
        }
        self.records_observed = snap.records_observed;
        self.findings_emitted = snap.findings_emitted;
    }

    /// 64-bit digest of the correlation windows, for per-tick replay
    /// verification.
    pub fn state_digest(&self) -> u64 {
        let mut h = hpcmon_metrics::StateHash::new(0xC0);
        h.u64(self.records_observed).u64(self.findings_emitted).usize(self.rules.len());
        for (_, state) in &self.rules {
            match state {
                RuleState::Single => {
                    h.u64(0);
                }
                RuleState::Threshold { recent } => {
                    h.u64(1).usize(recent.len());
                    for t in recent {
                        h.u64(t.0);
                    }
                }
                RuleState::Pair { pending_first } => {
                    h.u64(2).usize(pending_first.len());
                    for (t, c) in pending_first {
                        h.u64(t.0).u64(c.kind as u64).u64(c.index as u64);
                    }
                }
            }
        }
        h.finish()
    }

    /// The default production rule set over the simulator's templates.
    pub fn production_rules() -> Vec<Rule> {
        // Template ids from hpcmon-sim's engine::templates; duplicated as
        // literals here because analysis must not depend on the simulator
        // (in production these come from a site config file).
        vec![
            Rule::Single {
                name: "node-heartbeat-lost".into(),
                m: EventMatch::template(1).with_min_severity(Severity::Critical),
            },
            Rule::Single { name: "link-failed".into(), m: EventMatch::template(3) },
            Rule::Single { name: "fs-mount-lost".into(), m: EventMatch::template(7) },
            Rule::Single { name: "gpu-xid".into(), m: EventMatch::template(8) },
            Rule::Single { name: "oom-kill".into(), m: EventMatch::template(13) },
            Rule::Threshold {
                name: "crc-retry-storm".into(),
                m: EventMatch::template(5),
                count: 5,
                window_ms: 10 * 60_000,
            },
            Rule::Pair {
                name: "link-failure-kills-jobs".into(),
                first: EventMatch::template(3),
                second: EventMatch::template(11),
                window_ms: 5 * 60_000,
            },
            Rule::Pair {
                name: "service-death-then-sideline".into(),
                first: EventMatch::template(6),
                second: EventMatch::template(12),
                window_ms: 30 * 60_000,
            },
        ]
    }

    /// Observe one record; returns the findings it completes.
    pub fn observe(&mut self, rec: &LogRecord) -> Vec<Finding> {
        self.records_observed += 1;
        let mut findings = Vec::new();
        for (rule, state) in &mut self.rules {
            match (rule, state) {
                (Rule::Single { name, m }, RuleState::Single) => {
                    if m.matches(rec) {
                        findings.push(Finding {
                            rule: name.clone(),
                            ts: rec.ts,
                            comps: vec![rec.comp],
                            detail: rec.message.clone(),
                        });
                    }
                }
                (
                    Rule::Threshold { name, m, count, window_ms },
                    RuleState::Threshold { recent },
                ) => {
                    if m.matches(rec) {
                        recent.push_back(rec.ts);
                        let cutoff = rec.ts.sub_ms(*window_ms);
                        while recent.front().is_some_and(|&t| t < cutoff) {
                            recent.pop_front();
                        }
                        if recent.len() >= *count {
                            findings.push(Finding {
                                rule: name.clone(),
                                ts: rec.ts,
                                comps: vec![rec.comp],
                                detail: format!("{} matches within window", recent.len()),
                            });
                            recent.clear();
                        }
                    }
                }
                (
                    Rule::Pair { name, first, second, window_ms },
                    RuleState::Pair { pending_first },
                ) => {
                    // Check consequent before adding new antecedents so a
                    // record matching both does not pair with itself.
                    if second.matches(rec) {
                        let cutoff = rec.ts.sub_ms(*window_ms);
                        while pending_first.front().is_some_and(|&(t, _)| t < cutoff) {
                            pending_first.pop_front();
                        }
                        if let Some(&(first_ts, first_comp)) = pending_first.front() {
                            findings.push(Finding {
                                rule: name.clone(),
                                ts: rec.ts,
                                comps: vec![first_comp, rec.comp],
                                detail: format!(
                                    "consequent after {} ms",
                                    rec.ts.delta(first_ts).abs_ms()
                                ),
                            });
                        }
                    }
                    if first.matches(rec) {
                        pending_first.push_back((rec.ts, rec.comp));
                        if pending_first.len() > 1_024 {
                            pending_first.pop_front();
                        }
                    }
                }
                _ => unreachable!("state always matches its rule"),
            }
        }
        self.findings_emitted += findings.len() as u64;
        findings
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn observe_all(c: &mut Correlator, recs: &[LogRecord]) -> Vec<Finding> {
        recs.iter().flat_map(|r| c.observe(r)).collect()
    }

    fn rec(ts_min: u64, comp: CompId, sev: Severity, msg: &str, template: u32) -> LogRecord {
        LogRecord::new(Ts::from_mins(ts_min), comp, sev, "test", msg).with_template(template)
    }

    #[test]
    fn event_match_clauses() {
        let r = rec(0, CompId::node(1), Severity::Error, "Link DOWN lane 3", 3);
        assert!(EventMatch::template(3).matches(&r));
        assert!(!EventMatch::template(4).matches(&r));
        assert!(EventMatch::contains("link down").matches(&r));
        assert!(!EventMatch::contains("power").matches(&r));
        assert!(EventMatch::template(3).with_min_severity(Severity::Error).matches(&r));
        assert!(!EventMatch::template(3).with_min_severity(Severity::Critical).matches(&r));
    }

    #[test]
    fn single_rule_fires_every_match() {
        let mut c =
            Correlator::new(vec![Rule::Single { name: "s".into(), m: EventMatch::template(3) }]);
        let hits = observe_all(
            &mut c,
            &[
                rec(0, CompId::link(0), Severity::Error, "a", 3),
                rec(1, CompId::link(1), Severity::Error, "b", 4),
                rec(2, CompId::link(2), Severity::Error, "c", 3),
            ],
        );
        assert_eq!(hits.len(), 2);
        assert_eq!(hits[0].comps, vec![CompId::link(0)]);
        assert_eq!(hits[1].comps, vec![CompId::link(2)]);
    }

    #[test]
    fn threshold_rule_needs_count_in_window() {
        let mut c = Correlator::new(vec![Rule::Threshold {
            name: "storm".into(),
            m: EventMatch::template(5),
            count: 3,
            window_ms: 5 * 60_000,
        }]);
        // Two matches in window: silence.
        assert!(observe_all(
            &mut c,
            &[
                rec(0, CompId::link(0), Severity::Warning, "crc", 5),
                rec(1, CompId::link(0), Severity::Warning, "crc", 5),
            ]
        )
        .is_empty());
        // Third completes it.
        let hits = c.observe(&rec(2, CompId::link(0), Severity::Warning, "crc", 5));
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].rule, "storm");
        // Window resets after firing.
        assert!(c.observe(&rec(3, CompId::link(0), Severity::Warning, "crc", 5)).is_empty());
    }

    #[test]
    fn threshold_window_expires_old_matches() {
        let mut c = Correlator::new(vec![Rule::Threshold {
            name: "storm".into(),
            m: EventMatch::template(5),
            count: 3,
            window_ms: 2 * 60_000,
        }]);
        c.observe(&rec(0, CompId::link(0), Severity::Warning, "crc", 5));
        c.observe(&rec(1, CompId::link(0), Severity::Warning, "crc", 5));
        // 10 minutes later: the old two are gone, this is a fresh first.
        let hits = c.observe(&rec(11, CompId::link(0), Severity::Warning, "crc", 5));
        assert!(hits.is_empty());
    }

    #[test]
    fn pair_rule_associates_across_components() {
        let mut c = Correlator::new(vec![Rule::Pair {
            name: "propagation".into(),
            first: EventMatch::template(3),
            second: EventMatch::template(11),
            window_ms: 5 * 60_000,
        }]);
        c.observe(&rec(0, CompId::link(7), Severity::Error, "LCB fail", 3));
        let hits = c.observe(&rec(2, CompId::job(42), Severity::Error, "job failed", 11));
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].comps, vec![CompId::link(7), CompId::job(42)]);
    }

    #[test]
    fn pair_rule_respects_window_and_order() {
        let mut c = Correlator::new(vec![Rule::Pair {
            name: "p".into(),
            first: EventMatch::template(3),
            second: EventMatch::template(11),
            window_ms: 60_000,
        }]);
        // Consequent before antecedent: nothing.
        assert!(c.observe(&rec(0, CompId::job(1), Severity::Error, "fail", 11)).is_empty());
        c.observe(&rec(1, CompId::link(0), Severity::Error, "down", 3));
        // Too late (window is 1 minute).
        assert!(c.observe(&rec(10, CompId::job(2), Severity::Error, "fail", 11)).is_empty());
    }

    #[test]
    fn production_rules_catch_crash_log() {
        let mut c = Correlator::new(Correlator::production_rules());
        let crash = LogRecord::new(
            Ts::from_mins(1),
            CompId::node(5),
            Severity::Critical,
            "console",
            "node heartbeat fault: no response",
        )
        .with_template(1);
        let hits = c.observe(&crash);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].rule, "node-heartbeat-lost");
    }

    #[test]
    fn multiple_rules_fire_independently() {
        let mut c = Correlator::new(vec![
            Rule::Single { name: "a".into(), m: EventMatch::template(3) },
            Rule::Single { name: "b".into(), m: EventMatch::contains("lcb") },
        ]);
        let hits = c.observe(&rec(0, CompId::link(0), Severity::Error, "LCB failure", 3));
        assert_eq!(hits.len(), 2);
    }
}
