//! Deadman monitoring: detecting the *absence* of expected data.
//!
//! A monitoring system whose collector dies looks exactly like a perfectly
//! healthy machine — no anomalies, no errors, just silence.  The paper's
//! requirement that "all monitoring system capabilities should be
//! production capabilities" implies the monitoring must watch itself.
//! [`Deadman`] tracks expected feeds and flags any that miss their
//! deadline.

use hpcmon_metrics::Ts;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Grace before a feed is flagged, in expected intervals.
const GRACE_FACTOR: f64 = 2.5;

/// A feed that went quiet.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SilentFeed {
    /// The feed's registered name.
    pub feed: String,
    /// When it last reported (`None` = never since registration).
    pub last_seen: Option<Ts>,
    /// How overdue it is, ms.
    pub overdue_ms: u64,
}

/// Tracks per-feed heartbeats against an expected interval.
///
/// ```
/// use hpcmon_analysis::Deadman;
/// use hpcmon_metrics::{Ts, MINUTE_MS};
///
/// let mut deadman = Deadman::new(MINUTE_MS);
/// deadman.beat("power-collector", Ts::from_mins(10));
/// assert!(deadman.check(Ts::from_mins(11)).is_empty());
/// let silent = deadman.check(Ts::from_mins(20));
/// assert_eq!(silent[0].feed, "power-collector");
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Deadman {
    expected_interval_ms: u64,
    feeds: HashMap<String, Option<Ts>>,
    /// Feeds the supervisor has quarantined: their grace collapses to
    /// zero, so one missed beat flags immediately.  A quarantined feed is
    /// *known* broken — waiting out the normal grace would turn a detected
    /// fault back into silence, exactly what the deadman exists to prevent.
    quarantined: Vec<String>,
}

impl Deadman {
    /// Expect each registered feed to report every `expected_interval_ms`,
    /// with 2.5× grace before flagging.
    pub fn new(expected_interval_ms: u64) -> Deadman {
        assert!(expected_interval_ms > 0);
        Deadman { expected_interval_ms, feeds: HashMap::new(), quarantined: Vec::new() }
    }

    /// 64-bit digest of the feed table, for per-tick replay verification.
    /// Feeds are folded in sorted order so hash-map iteration order cannot
    /// leak into the digest.
    pub fn state_digest(&self) -> u64 {
        let mut h = hpcmon_metrics::StateHash::new(0xDD);
        h.u64(self.expected_interval_ms).f64(GRACE_FACTOR);
        let mut feeds: Vec<(&String, &Option<Ts>)> = self.feeds.iter().collect();
        feeds.sort_by_key(|(name, _)| name.as_str());
        h.usize(feeds.len());
        for (name, last) in feeds {
            h.str(name).u64(last.map_or(u64::MAX, |t| t.0));
        }
        let mut q: Vec<&String> = self.quarantined.iter().collect();
        q.sort();
        h.usize(q.len());
        for name in q {
            h.str(name);
        }
        h.finish()
    }

    /// Register a feed that must report.  Registration time counts as the
    /// reference point for a feed that never reports at all.
    pub fn register(&mut self, feed: &str) {
        self.feeds.entry(feed.to_owned()).or_insert(None);
    }

    /// Record a report from a feed (auto-registers unknown feeds).
    pub fn beat(&mut self, feed: &str, ts: Ts) {
        let entry = self.feeds.entry(feed.to_owned()).or_insert(None);
        if entry.is_none_or(|prev| ts > prev) {
            *entry = Some(ts);
        }
    }

    /// Deadline in ms after the last beat before a feed is overdue.
    pub(crate) fn deadline_ms(&self) -> u64 {
        (self.expected_interval_ms as f64 * GRACE_FACTOR) as u64
    }

    /// Hand a feed to (or take it back from) quarantine.  While
    /// quarantined, the feed's grace is zero: any missed beat is flagged
    /// on the very next check, so a supervised fault surfaces as a
    /// monitoring gap immediately rather than after the normal grace.
    pub fn set_quarantined(&mut self, feed: &str, quarantined: bool) {
        let present = self.quarantined.iter().any(|f| f == feed);
        if quarantined && !present {
            self.quarantined.push(feed.to_owned());
            self.register(feed);
        } else if !quarantined && present {
            self.quarantined.retain(|f| f != feed);
        }
    }

    /// Whether a feed is currently quarantined.
    pub(crate) fn is_quarantined(&self, feed: &str) -> bool {
        self.quarantined.iter().any(|f| f == feed)
    }

    /// Feeds overdue as of `now`, sorted most-overdue first.
    pub fn check(&self, now: Ts) -> Vec<SilentFeed> {
        let mut silent: Vec<SilentFeed> = self
            .feeds
            .iter()
            .filter_map(|(name, last)| {
                let deadline = if self.is_quarantined(name) { 0 } else { self.deadline_ms() };
                let reference = last.unwrap_or(Ts::ZERO);
                let age = now.0.saturating_sub(reference.0);
                (age > deadline).then(|| SilentFeed {
                    feed: name.clone(),
                    last_seen: *last,
                    overdue_ms: age - deadline,
                })
            })
            .collect();
        silent.sort_by(|a, b| b.overdue_ms.cmp(&a.overdue_ms).then(a.feed.cmp(&b.feed)));
        silent
    }

    /// Number of tracked feeds.
    pub fn len(&self) -> usize {
        self.feeds.len()
    }

    /// Whether no feeds are registered.
    pub fn is_empty(&self) -> bool {
        self.feeds.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpcmon_metrics::MINUTE_MS;

    #[test]
    fn healthy_feeds_are_quiet() {
        let mut d = Deadman::new(MINUTE_MS);
        d.beat("node", Ts::from_mins(10));
        d.beat("power", Ts::from_mins(10));
        assert!(d.check(Ts::from_mins(11)).is_empty());
        assert!(d.check(Ts::from_mins(12)).is_empty(), "within 2.5x grace");
    }

    #[test]
    fn silent_feed_is_flagged_with_overdue_amount() {
        let mut d = Deadman::new(MINUTE_MS);
        d.beat("node", Ts::from_mins(10));
        d.beat("power", Ts::from_mins(24));
        let silent = d.check(Ts::from_mins(25));
        assert_eq!(silent.len(), 1);
        assert_eq!(silent[0].feed, "node");
        assert_eq!(silent[0].last_seen, Some(Ts::from_mins(10)));
        // 15 min since last beat, deadline 2.5 min → 12.5 min overdue.
        assert_eq!(silent[0].overdue_ms, 15 * MINUTE_MS - d.deadline_ms());
    }

    #[test]
    fn never_reported_feed_is_flagged() {
        let mut d = Deadman::new(MINUTE_MS);
        d.register("ghost");
        let silent = d.check(Ts::from_mins(5));
        assert_eq!(silent.len(), 1);
        assert_eq!(silent[0].last_seen, None);
    }

    #[test]
    fn recovery_clears_the_flag() {
        let mut d = Deadman::new(MINUTE_MS);
        d.beat("node", Ts::from_mins(1));
        assert_eq!(d.check(Ts::from_mins(30)).len(), 1);
        d.beat("node", Ts::from_mins(30));
        assert!(d.check(Ts::from_mins(31)).is_empty());
    }

    #[test]
    fn most_overdue_first() {
        let mut d = Deadman::new(MINUTE_MS);
        d.beat("a", Ts::from_mins(1));
        d.beat("b", Ts::from_mins(10));
        let silent = d.check(Ts::from_mins(40));
        assert_eq!(silent.len(), 2);
        assert_eq!(silent[0].feed, "a");
    }

    #[test]
    fn stale_beats_do_not_move_time_backwards() {
        let mut d = Deadman::new(MINUTE_MS);
        d.beat("a", Ts::from_mins(20));
        d.beat("a", Ts::from_mins(5)); // late-arriving old report
        assert!(d.check(Ts::from_mins(21)).is_empty());
    }

    #[test]
    fn registration_is_idempotent() {
        let mut d = Deadman::new(MINUTE_MS);
        d.beat("a", Ts::from_mins(7));
        d.register("a"); // must not clobber the beat
        assert!(d.check(Ts::from_mins(8)).is_empty());
        assert_eq!(d.len(), 1);
        assert!(!d.is_empty());
    }

    #[test]
    #[should_panic]
    fn zero_interval_rejected() {
        Deadman::new(0);
    }

    #[test]
    fn quarantined_feed_flags_on_the_first_missed_beat() {
        let mut d = Deadman::new(MINUTE_MS);
        d.beat("node", Ts::from_mins(10));
        d.beat("power", Ts::from_mins(10));
        d.set_quarantined("node", true);
        assert!(d.is_quarantined("node"));
        // One interval later: "power" is well within grace, but the
        // quarantined feed is flagged immediately — a known-broken
        // collector must never look healthy.
        let silent = d.check(Ts::from_mins(11));
        assert_eq!(silent.len(), 1);
        assert_eq!(silent[0].feed, "node");
        assert_eq!(silent[0].overdue_ms, MINUTE_MS);
        // A beat at the current instant (successful re-probe) clears it...
        d.beat("node", Ts::from_mins(12));
        d.beat("power", Ts::from_mins(12));
        assert!(d.check(Ts::from_mins(12)).is_empty());
        // ...and release restores the normal grace.
        d.set_quarantined("node", false);
        assert!(!d.is_quarantined("node"));
        assert!(d.check(Ts::from_mins(14)).is_empty(), "back within 2.5x grace");
        // Quarantining an unknown feed registers it (never silent).
        d.set_quarantined("ghost", true);
        assert_eq!(d.check(Ts::from_mins(14)).len(), 1);
    }
}
