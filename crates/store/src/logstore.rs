//! Log storage with a token inverted index.
//!
//! The paper's sites index logs with Splunk/Elasticsearch because "in
//! production most log analysis involves detection of well-known log
//! lines" — which is a token lookup, not a scan.  [`LogStore`] keeps
//! records append-only (native format preserved) and maintains an inverted
//! index from lowercase tokens to record ids.  [`LogStore::search`] uses
//! the index; [`LogStore::scan_substring`] is the brute-force fallback the
//! `abl_logindex` bench compares against.

use hpcmon_metrics::{LogRecord, Severity};
use parking_lot::RwLock;
use std::collections::HashMap;

/// A structured log query: all present clauses must match (AND).
#[derive(Debug, Clone, Default)]
pub struct LogQuery {
    /// Tokens that must all appear in the message (case-insensitive).
    pub tokens: Vec<String>,
    /// Minimum severity, if any.
    pub min_severity: Option<Severity>,
    /// Restrict to one source subsystem.
    pub source: Option<String>,
}

impl LogQuery {
    /// Query for records containing all of `tokens`.
    pub fn tokens(tokens: &[&str]) -> LogQuery {
        LogQuery { tokens: tokens.iter().map(|t| t.to_lowercase()).collect(), ..Default::default() }
    }

    /// Add a minimum severity.
    pub fn with_min_severity(mut self, sev: Severity) -> LogQuery {
        self.min_severity = Some(sev);
        self
    }

    /// Restrict to a source.
    pub fn with_source(mut self, source: &str) -> LogQuery {
        self.source = Some(source.to_owned());
        self
    }

    fn matches_filters(&self, rec: &LogRecord) -> bool {
        if let Some(min) = self.min_severity {
            if rec.severity < min {
                return false;
            }
        }
        if let Some(ref s) = self.source {
            if &rec.source != s {
                return false;
            }
        }
        true
    }
}

#[derive(Default)]
struct Inner {
    records: Vec<LogRecord>,
    index: HashMap<String, Vec<u32>>,
}

/// Append-only log store with a token inverted index.
#[derive(Default)]
pub struct LogStore {
    inner: RwLock<Inner>,
}

/// Split a message into lowercase alphanumeric tokens.
pub(crate) fn tokenize(text: &str) -> Vec<String> {
    text.split(|c: char| !c.is_alphanumeric())
        .filter(|t| !t.is_empty())
        .map(|t| t.to_lowercase())
        .collect()
}

impl LogStore {
    /// Empty store.
    pub fn new() -> LogStore {
        LogStore::default()
    }

    /// Append one record; returns its id.
    pub fn append(&self, rec: LogRecord) -> u32 {
        let mut inner = self.inner.write();
        let id = inner.records.len() as u32;
        let mut tokens = tokenize(&rec.message);
        tokens.push(rec.source.to_lowercase());
        tokens.sort_unstable();
        tokens.dedup();
        for tok in tokens {
            inner.index.entry(tok).or_default().push(id);
        }
        inner.records.push(rec);
        id
    }

    /// Append many records.
    pub fn append_batch(&self, recs: impl IntoIterator<Item = LogRecord>) {
        for r in recs {
            self.append(r);
        }
    }

    /// Number of stored records.
    pub fn len(&self) -> usize {
        self.inner.read().records.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Fetch by id.
    pub fn get(&self, id: u32) -> Option<LogRecord> {
        self.inner.read().records.get(id as usize).cloned()
    }

    /// Indexed search: intersect token posting lists, then apply filters.
    /// A query with no tokens degrades to a filtered scan.
    pub fn search(&self, query: &LogQuery) -> Vec<LogRecord> {
        let inner = self.inner.read();
        if query.tokens.is_empty() {
            return inner.records.iter().filter(|r| query.matches_filters(r)).cloned().collect();
        }
        // Start from the rarest token's postings.
        let mut postings: Vec<&Vec<u32>> = Vec::with_capacity(query.tokens.len());
        for tok in &query.tokens {
            match inner.index.get(tok) {
                Some(p) => postings.push(p),
                None => return Vec::new(),
            }
        }
        postings.sort_by_key(|p| p.len());
        let mut candidates: Vec<u32> = postings[0].clone();
        for p in &postings[1..] {
            let set: std::collections::HashSet<u32> = p.iter().copied().collect();
            candidates.retain(|id| set.contains(id));
            if candidates.is_empty() {
                return Vec::new();
            }
        }
        candidates
            .into_iter()
            .map(|id| &inner.records[id as usize])
            .filter(|r| query.matches_filters(r))
            .cloned()
            .collect()
    }

    /// Brute-force substring scan over every record (the unindexed
    /// baseline; case-sensitive substring semantics).
    pub fn scan_substring(&self, needle: &str) -> Vec<LogRecord> {
        let inner = self.inner.read();
        inner.records.iter().filter(|r| r.message.contains(needle)).cloned().collect()
    }

    /// Approximate memory footprint of the index, bytes.
    pub fn index_bytes(&self) -> usize {
        let inner = self.inner.read();
        inner.index.iter().map(|(k, v)| k.len() + v.len() * 4 + 48).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpcmon_metrics::{CompId, Ts};

    fn rec(ts: u64, node: u32, sev: Severity, source: &str, msg: &str) -> LogRecord {
        LogRecord::new(Ts(ts), CompId::node(node), sev, source, msg)
    }

    fn populated() -> LogStore {
        let store = LogStore::new();
        store.append(rec(1_000, 0, Severity::Error, "hsn", "link down on lane 3"));
        store.append(rec(2_000, 1, Severity::Warning, "fs", "slow OST response"));
        store.append(rec(3_000, 0, Severity::Info, "console", "link flap recovered"));
        store.append(rec(4_000, 2, Severity::Error, "hsn", "link down on lane 1"));
        store
    }

    #[test]
    fn tokenize_lowercases_and_splits() {
        assert_eq!(tokenize("Link DOWN, lane-3!"), vec!["link", "down", "lane", "3"]);
        assert!(tokenize("...").is_empty());
    }

    #[test]
    fn token_search_intersects() {
        let store = populated();
        let hits = store.search(&LogQuery::tokens(&["link", "down"]));
        assert_eq!(hits.len(), 2);
        assert!(hits.iter().all(|r| r.message.contains("link down")));
        // Single token matches more.
        assert_eq!(store.search(&LogQuery::tokens(&["link"])).len(), 3);
        // Unknown token: nothing.
        assert!(store.search(&LogQuery::tokens(&["zebra"])).is_empty());
    }

    #[test]
    fn search_is_case_insensitive() {
        let store = populated();
        assert_eq!(store.search(&LogQuery::tokens(&["LINK", "Down"])).len(), 2);
    }

    #[test]
    fn severity_filter() {
        let store = populated();
        let q = LogQuery::tokens(&["link"]).with_min_severity(Severity::Error);
        assert_eq!(store.search(&q).len(), 2);
        let q = LogQuery::default().with_min_severity(Severity::Warning);
        assert_eq!(store.search(&q).len(), 3);
    }

    #[test]
    fn source_filter() {
        let store = populated();
        let q = LogQuery::tokens(&["link"]).with_source("hsn");
        assert_eq!(store.search(&q).len(), 2);
    }

    #[test]
    fn source_is_searchable_as_token() {
        let store = populated();
        assert_eq!(store.search(&LogQuery::tokens(&["hsn"])).len(), 2);
    }

    #[test]
    fn scan_substring_baseline_agrees() {
        let store = populated();
        let scanned = store.scan_substring("link down");
        let indexed = store.search(&LogQuery::tokens(&["link", "down"]));
        assert_eq!(scanned.len(), indexed.len());
    }

    #[test]
    fn get_and_len() {
        let store = populated();
        assert_eq!(store.len(), 4);
        assert!(!store.is_empty());
        assert_eq!(store.get(1).unwrap().source, "fs");
        assert!(store.get(99).is_none());
    }

    #[test]
    fn empty_query_returns_all() {
        let store = populated();
        assert_eq!(store.search(&LogQuery::default()).len(), 4);
    }

    #[test]
    fn index_bytes_grows() {
        let store = LogStore::new();
        let before = store.index_bytes();
        store.append(rec(0, 0, Severity::Info, "a", "some unique words here"));
        assert!(store.index_bytes() > before);
    }

    #[test]
    fn concurrent_append_and_search() {
        let store = std::sync::Arc::new(LogStore::new());
        let mut handles = Vec::new();
        for t in 0..4 {
            let store = store.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..250 {
                    store.append(rec(i, t, Severity::Info, "src", "tick event"));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(store.len(), 1_000);
        assert_eq!(store.search(&LogQuery::tokens(&["tick"])).len(), 1_000);
    }
}
