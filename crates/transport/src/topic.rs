//! Topic names and subscription filters.
//!
//! Topics are `/`-separated paths, e.g. `metrics/node/42` or `logs/hwerr`.
//! Filters support `*` (exactly one segment) and a trailing `#` (zero or
//! more segments), matching AMQP/MQTT conventions the paper's sites already
//! use with RabbitMQ.

use serde::{Deserialize, Serialize};

/// Well-known topic roots used across the workspace.
pub mod topics {
    /// Numeric frames from synchronized collection.
    pub const METRICS: &str = "metrics";
    /// Log records.
    pub const LOGS: &str = "logs";
    /// Federation plane: cross-site rollups and control traffic.
    pub const FED: &str = "fed";
    /// Monitoring-plane health: SLO alert lifecycle events.
    pub const HEALTH: &str = "health";

    /// Topic for a metric frame from a collector.
    pub fn metrics(collector: &str) -> String {
        format!("{METRICS}/{collector}")
    }

    /// Topic for logs from a given source subsystem.
    pub fn logs(source: &str) -> String {
        format!("{LOGS}/{source}")
    }

    /// Topic a member site's rollup batches arrive on at the federation
    /// head after crossing the WAN link.
    pub fn fed_rollup(site: &str) -> String {
        format!("{FED}/rollup/{site}")
    }

    /// Topic the health plane publishes alert lifecycle transitions on.
    pub fn health_alerts() -> String {
        format!("{HEALTH}/alerts")
    }
}

/// A parsed subscription filter.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct TopicFilter {
    pattern: String,
}

impl TopicFilter {
    /// Parse a filter.  Panics on an empty pattern or a `#` that is not the
    /// final segment.
    pub fn new(pattern: &str) -> TopicFilter {
        assert!(!pattern.is_empty(), "empty topic filter");
        let segs: Vec<&str> = pattern.split('/').collect();
        for (i, s) in segs.iter().enumerate() {
            assert!(!s.is_empty(), "empty segment in filter {pattern:?}");
            if *s == "#" {
                assert_eq!(i, segs.len() - 1, "'#' must be the last segment in {pattern:?}");
            }
        }
        TopicFilter { pattern: pattern.to_owned() }
    }

    /// Match-all filter.
    pub fn all() -> TopicFilter {
        TopicFilter::new("#")
    }

    /// The raw pattern.
    pub(crate) fn pattern(&self) -> &str {
        &self.pattern
    }

    /// Whether this filter matches a concrete topic.
    pub(crate) fn matches(&self, topic: &str) -> bool {
        let mut f = self.pattern.split('/');
        let mut t = topic.split('/');
        loop {
            match (f.next(), t.next()) {
                (Some("#"), _) => return true,
                (Some("*"), Some(_)) => continue,
                (Some(fs), Some(ts)) if fs == ts => continue,
                (None, None) => return true,
                _ => return false,
            }
        }
    }
}

impl std::fmt::Display for TopicFilter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.pattern)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_match() {
        let f = TopicFilter::new("metrics/node");
        assert!(f.matches("metrics/node"));
        assert!(!f.matches("metrics/node/1"));
        assert!(!f.matches("metrics"));
        assert!(!f.matches("logs/node"));
    }

    #[test]
    fn single_segment_wildcard() {
        let f = TopicFilter::new("metrics/*/power");
        assert!(f.matches("metrics/node/power"));
        assert!(f.matches("metrics/cabinet/power"));
        assert!(!f.matches("metrics/power"));
        assert!(!f.matches("metrics/node/cpu"));
        assert!(!f.matches("metrics/node/power/extra"));
    }

    #[test]
    fn trailing_hash_matches_subtree() {
        let f = TopicFilter::new("logs/#");
        assert!(f.matches("logs/console"));
        assert!(f.matches("logs/hwerr/link"));
        assert!(!f.matches("metrics/node"));
        // '#' also matches zero further segments.
        assert!(f.matches("logs"));
    }

    #[test]
    fn all_matches_everything() {
        let f = TopicFilter::all();
        for t in ["a", "a/b", "a/b/c", "metrics/node/99"] {
            assert!(f.matches(t));
        }
    }

    #[test]
    #[should_panic(expected = "last segment")]
    fn interior_hash_rejected() {
        TopicFilter::new("logs/#/x");
    }

    #[test]
    #[should_panic(expected = "empty topic filter")]
    fn empty_filter_rejected() {
        TopicFilter::new("");
    }

    #[test]
    #[should_panic(expected = "empty segment")]
    fn empty_segment_rejected() {
        TopicFilter::new("a//b");
    }

    #[test]
    fn topic_helpers() {
        assert_eq!(topics::metrics("power"), "metrics/power");
        assert_eq!(topics::logs("hwerr"), "logs/hwerr");
        assert_eq!(topics::health_alerts(), "health/alerts");
        assert!(TopicFilter::new("metrics/#").matches(&topics::metrics("node")));
        // The store's ingest filter must NOT see alert events — health
        // on/off must leave store contents untouched.
        assert!(!TopicFilter::new("metrics/#").matches(&topics::health_alerts()));
        assert!(TopicFilter::new("health/#").matches(&topics::health_alerts()));
    }
}
