//! Cross-component event association under clock skew.
//!
//! Paper §III-B: "Associating numerical or log events over components and
//! time is particularly tricky when a single global timestamp is
//! unavailable as local clock drift can result in erroneous associations."
//!
//! [`associate`] clusters events into incidents by temporal proximity: two
//! events belong to the same incident when their (possibly corrected)
//! timestamps are within `window_ms`.  The `abl_clocksync` experiment runs
//! this twice — once on drifting local stamps, once after applying a clock
//! correction — and measures how association quality collapses without
//! synchronized time.

use hpcmon_metrics::{CompId, Ts};
use serde::{Deserialize, Serialize};

/// An event to be associated: where and (reportedly) when.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AssocEvent {
    /// Reported timestamp (may be skewed by the source's local clock).
    pub ts: Ts,
    /// Emitting component.
    pub comp: CompId,
    /// Caller-defined tag (e.g. ground-truth incident id, for scoring).
    pub tag: u32,
}

/// A cluster of events judged to be one incident.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Incident {
    /// Events in the incident, time-ordered.
    pub events: Vec<AssocEvent>,
}

/// Cluster events into incidents: sort by timestamp, then cut whenever the
/// gap to the previous event exceeds `window_ms`.  Single-linkage in time,
/// which matches how operators eyeball a log stream.
pub fn associate(mut events: Vec<AssocEvent>, window_ms: u64) -> Vec<Incident> {
    if events.is_empty() {
        return Vec::new();
    }
    events.sort_by_key(|e| e.ts);
    let mut incidents = Vec::new();
    let mut current = vec![events[0]];
    for e in events.into_iter().skip(1) {
        let prev = current.last().expect("non-empty").ts;
        if e.ts.0.saturating_sub(prev.0) <= window_ms {
            current.push(e);
        } else {
            incidents.push(Incident { events: std::mem::replace(&mut current, vec![e]) });
        }
    }
    incidents.push(Incident { events: current });
    incidents
}

/// Association quality against ground truth tags: pairwise precision and
/// recall.  Two events are a *true pair* when they share a tag; a
/// *predicted pair* when they land in the same incident.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AssocScore {
    /// Fraction of predicted pairs that are true pairs.
    pub precision: f64,
    /// Fraction of true pairs that were predicted.
    pub recall: f64,
    /// Harmonic mean.
    pub f1: f64,
}

/// Score a clustering against the events' ground-truth tags.
pub fn score(incidents: &[Incident]) -> AssocScore {
    let mut predicted_pairs = 0u64;
    let mut correct_pairs = 0u64;
    let mut all_events: Vec<AssocEvent> = Vec::new();
    for inc in incidents {
        let n = inc.events.len() as u64;
        predicted_pairs += n * (n - 1) / 2;
        for i in 0..inc.events.len() {
            for j in (i + 1)..inc.events.len() {
                if inc.events[i].tag == inc.events[j].tag {
                    correct_pairs += 1;
                }
            }
        }
        all_events.extend_from_slice(&inc.events);
    }
    // True pairs across the whole event set.
    let mut true_pairs = 0u64;
    for i in 0..all_events.len() {
        for j in (i + 1)..all_events.len() {
            if all_events[i].tag == all_events[j].tag {
                true_pairs += 1;
            }
        }
    }
    let precision =
        if predicted_pairs == 0 { 1.0 } else { correct_pairs as f64 / predicted_pairs as f64 };
    let recall = if true_pairs == 0 { 1.0 } else { correct_pairs as f64 / true_pairs as f64 };
    let f1 = if precision + recall == 0.0 {
        0.0
    } else {
        2.0 * precision * recall / (precision + recall)
    };
    AssocScore { precision, recall, f1 }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(ts_ms: u64, node: u32, tag: u32) -> AssocEvent {
        AssocEvent { ts: Ts(ts_ms), comp: CompId::node(node), tag }
    }

    #[test]
    fn clusters_by_gap() {
        let incidents = associate(
            vec![ev(0, 0, 1), ev(500, 1, 1), ev(900, 2, 1), ev(10_000, 3, 2), ev(10_100, 4, 2)],
            1_000,
        );
        assert_eq!(incidents.len(), 2);
        assert_eq!(incidents[0].events.len(), 3);
        assert_eq!(incidents[1].events.len(), 2);
    }

    #[test]
    fn unsorted_input_is_fine() {
        let incidents = associate(vec![ev(900, 2, 1), ev(0, 0, 1), ev(500, 1, 1)], 1_000);
        assert_eq!(incidents.len(), 1);
        assert_eq!(incidents[0].events[0].ts, Ts(0));
    }

    #[test]
    fn empty_input() {
        assert!(associate(vec![], 1_000).is_empty());
    }

    #[test]
    fn perfect_clustering_scores_one() {
        let incidents =
            associate(vec![ev(0, 0, 1), ev(100, 1, 1), ev(60_000, 2, 2), ev(60_100, 3, 2)], 1_000);
        let s = score(&incidents);
        assert_eq!(s.precision, 1.0);
        assert_eq!(s.recall, 1.0);
        assert_eq!(s.f1, 1.0);
    }

    #[test]
    fn skew_merges_incidents_and_hurts_precision() {
        // Two true incidents 10 s apart; skew pushes one event of incident
        // 2 right next to incident 1.
        let clean = vec![ev(0, 0, 1), ev(100, 1, 1), ev(10_000, 2, 2), ev(10_100, 3, 2)];
        let mut skewed = clean.clone();
        skewed[2].ts = Ts(600); // node 2's clock is 9.4 s slow
        let s_clean = score(&associate(clean, 2_000));
        let s_skew = score(&associate(skewed, 2_000));
        assert_eq!(s_clean.f1, 1.0);
        assert!(s_skew.precision < 1.0, "skew creates false pairs");
        assert!(s_skew.recall < 1.0, "skew splits a true pair");
    }

    #[test]
    fn singleton_incidents_have_perfect_precision() {
        // Window 0: everything is its own incident → no predicted pairs.
        let incidents = associate(vec![ev(0, 0, 1), ev(5_000, 1, 1)], 100);
        let s = score(&incidents);
        assert_eq!(s.precision, 1.0, "vacuous precision");
        assert_eq!(s.recall, 0.0, "missed the true pair");
        assert_eq!(s.f1, 0.0);
    }
}
