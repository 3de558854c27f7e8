//! Log template mining.
//!
//! Paper §III-B: "Log analysis has significant research history involving
//! techniques of abnormality detection and/or variation in occurrences of
//! log lines."  The miner clusters free-form messages into templates by
//! their token shape (numbers collapsed) and counts occurrences; the
//! operations report lists the loudest.

use crate::novelty::NoveltyDetector;
use hpcmon_metrics::LogRecord;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Occurrence statistics for one mined template.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TemplateStat {
    /// The template signature (source + token shape).
    pub signature: String,
    /// A representative raw message.
    pub example: String,
    /// Occurrences observed.
    pub count: u64,
}

/// Clusters messages by shape and counts occurrences within one window.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct TemplateMiner {
    counts: HashMap<String, u64>,
    examples: HashMap<String, String>,
    total: u64,
}

impl TemplateMiner {
    /// Empty miner.
    pub fn new() -> TemplateMiner {
        TemplateMiner::default()
    }

    /// Fold in one record.
    pub fn observe(&mut self, rec: &LogRecord) {
        let sig = NoveltyDetector::signature(rec);
        *self.counts.entry(sig.clone()).or_insert(0) += 1;
        self.examples.entry(sig).or_insert_with(|| rec.message.clone());
        self.total += 1;
    }

    /// Records observed.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Distinct templates mined.
    pub fn distinct(&self) -> usize {
        self.counts.len()
    }

    /// The `k` most frequent templates, descending (ties by signature so
    /// output is deterministic).
    pub fn top_k(&self, k: usize) -> Vec<TemplateStat> {
        let mut stats: Vec<TemplateStat> = self
            .counts
            .iter()
            .map(|(sig, &count)| TemplateStat {
                signature: sig.clone(),
                example: self.examples.get(sig).cloned().unwrap_or_default(),
                count,
            })
            .collect();
        stats.sort_by(|a, b| b.count.cmp(&a.count).then(a.signature.cmp(&b.signature)));
        stats.truncate(k);
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpcmon_metrics::{CompId, Severity, Ts};

    fn rec(msg: &str) -> LogRecord {
        LogRecord::new(Ts(0), CompId::node(0), Severity::Info, "console", msg)
    }

    #[test]
    fn numeric_variants_cluster_together() {
        let mut m = TemplateMiner::new();
        m.observe(&rec("job 17 started on 4 nodes"));
        m.observe(&rec("job 99 started on 128 nodes"));
        m.observe(&rec("link down on lane 3"));
        assert_eq!(m.distinct(), 2);
        assert_eq!(m.total(), 3);
        let top = m.top_k(1);
        assert_eq!(top[0].count, 2);
        assert!(top[0].example.contains("job 17"), "first example kept");
    }

    #[test]
    fn top_k_is_deterministic_and_bounded() {
        let mut m = TemplateMiner::new();
        for i in 0..5 {
            for _ in 0..=i {
                m.observe(&rec(&format!(
                    "event type {} letter{}",
                    9,
                    ["a", "b", "c", "d", "e"][i]
                )));
            }
        }
        let top = m.top_k(3);
        assert_eq!(top.len(), 3);
        assert!(top[0].count >= top[1].count && top[1].count >= top[2].count);
        assert_eq!(m.top_k(100).len(), 5);
    }
}
