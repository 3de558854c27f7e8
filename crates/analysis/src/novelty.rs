//! Log novelty detection.
//!
//! Paper §III-B: "new or infrequent events may be missed until manual
//! observation of events leads to identification of relevant log lines to
//! include in the scan."  [`NoveltyDetector`] automates the manual step:
//! it learns the set of seen templates (and, for untemplated free text, a
//! token-shape signature) during a training window, then flags anything
//! unseen — the candidate "new log line to add to the scan".

use hpcmon_metrics::LogRecord;
use serde::{Deserialize, Serialize};
use std::collections::HashSet;

/// Flags log shapes never seen during training.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct NoveltyDetector {
    templates: HashSet<u32>,
    signatures: HashSet<String>,
    training: bool,
    seen_count: u64,
    /// XOR of per-item digests of everything in `templates` and
    /// `signatures` — maintained on insert, so the per-tick
    /// [`NoveltyDetector::state_digest`] is O(1) instead of re-sorting a
    /// vocabulary that can grow to thousands of signatures.  XOR makes
    /// the fold order-insensitive, which is exactly right for sets.
    vocab_digest: u64,
}

impl NoveltyDetector {
    /// 64-bit digest of the learned vocabulary, for per-tick replay
    /// verification.
    pub fn state_digest(&self) -> u64 {
        hpcmon_metrics::StateHash::new(0x40)
            .bool(self.training)
            .u64(self.seen_count)
            .usize(self.templates.len())
            .usize(self.signatures.len())
            .u64(self.vocab_digest)
            .finish()
    }

    fn learn_template(&mut self, t: u32) -> bool {
        let inserted = self.templates.insert(t);
        if inserted {
            self.vocab_digest ^= hpcmon_metrics::StateHash::new(0x54).u64(t as u64).finish();
        }
        inserted
    }

    fn learn_signature(&mut self, sig: String) -> bool {
        if self.signatures.contains(&sig) {
            return false;
        }
        self.vocab_digest ^= hpcmon_metrics::StateHash::new(0x5A).str(&sig).finish();
        self.signatures.insert(sig);
        true
    }

    /// A detector in training mode.
    pub fn new() -> NoveltyDetector {
        NoveltyDetector {
            templates: HashSet::new(),
            signatures: HashSet::new(),
            training: true,
            seen_count: 0,
            vocab_digest: 0,
        }
    }

    /// Signature of a free-text message: source plus the shape of its
    /// tokens (alphabetic tokens kept, numbers collapsed to `#`), so
    /// "job 17 started" and "job 23 started" share a signature.
    pub(crate) fn signature(rec: &LogRecord) -> String {
        let mut sig = String::with_capacity(rec.message.len() + rec.source.len() + 1);
        sig.push_str(&rec.source);
        sig.push('|');
        for tok in rec.message.split(|c: char| !c.is_alphanumeric()) {
            if tok.is_empty() {
                continue;
            }
            if tok.chars().all(|c| c.is_ascii_digit()) {
                sig.push('#');
            } else {
                sig.push_str(&tok.to_lowercase());
            }
            sig.push(' ');
        }
        sig
    }

    /// Observe during training: learn, never flag.
    pub(crate) fn train(&mut self, rec: &LogRecord) {
        self.seen_count += 1;
        match rec.template {
            Some(t) => {
                self.learn_template(t);
            }
            None => {
                self.learn_signature(Self::signature(rec));
            }
        }
    }

    /// Leave training mode.
    pub fn freeze(&mut self) {
        self.training = false;
    }

    /// Whether still training.
    pub fn is_training(&self) -> bool {
        self.training
    }

    /// Observe a record: returns `true` when the record's shape is novel.
    /// In training mode this learns instead and never flags.  Novel shapes
    /// are learned on first flag, so each new shape is reported once.
    pub fn observe(&mut self, rec: &LogRecord) -> bool {
        if self.training {
            self.train(rec);
            return false;
        }
        self.seen_count += 1;
        match rec.template {
            Some(t) => self.learn_template(t),
            None => self.learn_signature(Self::signature(rec)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpcmon_metrics::{CompId, Severity, Ts};

    fn rec(msg: &str, template: Option<u32>) -> LogRecord {
        let mut r = LogRecord::new(Ts(0), CompId::node(0), Severity::Info, "console", msg);
        r.template = template;
        r
    }

    #[test]
    fn known_templates_not_flagged() {
        let mut d = NoveltyDetector::new();
        d.train(&rec("job started", Some(9)));
        d.freeze();
        assert!(!d.observe(&rec("job started", Some(9))));
        assert!(d.observe(&rec("never seen this", Some(99))));
        // Second occurrence of the new template: already learned.
        assert!(!d.observe(&rec("never seen this", Some(99))));
    }

    #[test]
    fn numeric_variation_shares_signature() {
        let mut d = NoveltyDetector::new();
        d.train(&rec("job 17 started on 4 nodes", None));
        d.freeze();
        assert!(!d.observe(&rec("job 23 started on 128 nodes", None)));
        assert!(d.observe(&rec("job 23 aborted on 128 nodes", None)));
    }

    #[test]
    fn source_is_part_of_signature() {
        let a = rec("disk full", None);
        let mut b = rec("disk full", None);
        b.source = "hwerr".into();
        assert_ne!(NoveltyDetector::signature(&a), NoveltyDetector::signature(&b));
    }

    #[test]
    fn training_never_flags() {
        let mut d = NoveltyDetector::new();
        assert!(d.is_training());
        for i in 0..10 {
            assert!(!d.observe(&rec(&format!("weird {i}"), Some(i))));
        }
        assert_eq!(d.seen_count, 10);
        d.freeze();
        assert!(!d.is_training());
        assert_eq!(d.templates.len() + d.signatures.len(), 10);
    }

    #[test]
    fn case_insensitive_signatures() {
        let mut d = NoveltyDetector::new();
        d.train(&rec("Link Down", None));
        d.freeze();
        assert!(!d.observe(&rec("link down", None)));
    }
}
