//! The LRU result cache, keyed on (normalized request, scope, epoch pair).
//!
//! Cache-correctness invariant: an entry computed while
//! `TimeSeriesStore::epoch()` returned `E` (and the gateway's job view was
//! at version `J`) is served **only** while both values are unchanged.  The
//! store bumps its epoch on every mutation class (ingest, seal, evict,
//! reload, retention drop), so a cached response can never be served across
//! a store change; the job version covers scope changes (a user gaining or
//! losing an allocation must not see a stale visibility set).  The epoch is
//! captured *before* the query executes, so a mutation racing the
//! evaluation conservatively invalidates the entry.

use crate::request::QueryResponse;
use parking_lot::Mutex;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The (store epoch, job-view version) pair an entry was computed at.
pub type EpochPair = (u64, u64);

struct Entry {
    epoch: EpochPair,
    seq: u64,
    value: Arc<QueryResponse>,
}

struct Inner {
    map: HashMap<String, Entry>,
    // Recency queue of (key, seq); stale pairs (seq no longer current for
    // the key) are skipped during eviction and compacted lazily.
    order: VecDeque<(String, u64)>,
    next_seq: u64,
}

/// Hit/miss/eviction accounting, all monotonic.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from cache.
    pub hits: u64,
    /// Lookups with no usable entry.
    pub misses: u64,
    /// Entries found but rejected because their epoch pair was stale.
    pub invalidated: u64,
    /// Entries stored.
    pub inserted: u64,
    /// Entries removed to respect capacity.
    pub evicted: u64,
}

/// A bounded LRU cache of query responses.
pub struct ResultCache {
    inner: Mutex<Inner>,
    capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    invalidated: AtomicU64,
    inserted: AtomicU64,
    evicted: AtomicU64,
}

impl ResultCache {
    /// A cache holding at most `capacity` responses; zero disables caching.
    pub(crate) fn new(capacity: usize) -> ResultCache {
        ResultCache {
            inner: Mutex::new(Inner { map: HashMap::new(), order: VecDeque::new(), next_seq: 0 }),
            capacity,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            invalidated: AtomicU64::new(0),
            inserted: AtomicU64::new(0),
            evicted: AtomicU64::new(0),
        }
    }

    /// Look up `key`, valid only at `epoch`.  A present-but-stale entry is
    /// removed and counted as an invalidation (and a miss).
    pub(crate) fn get(&self, key: &str, epoch: EpochPair) -> Option<Arc<QueryResponse>> {
        if self.capacity == 0 {
            self.misses.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        let mut inner = self.inner.lock();
        let current = inner.map.get(key).map(|e| e.epoch == epoch);
        match current {
            Some(true) => {
                let seq = inner.next_seq;
                inner.next_seq += 1;
                let value = {
                    let e = inner.map.get_mut(key).expect("entry just observed");
                    e.seq = seq;
                    e.value.clone()
                };
                inner.order.push_back((key.to_owned(), seq));
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(value)
            }
            Some(false) => {
                inner.map.remove(key);
                self.invalidated.fetch_add(1, Ordering::Relaxed);
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Store a response computed at `epoch`, evicting least-recently-used
    /// entries if over capacity.
    pub(crate) fn put(&self, key: String, epoch: EpochPair, value: Arc<QueryResponse>) {
        if self.capacity == 0 {
            return;
        }
        let mut inner = self.inner.lock();
        let seq = inner.next_seq;
        inner.next_seq += 1;
        inner.order.push_back((key.clone(), seq));
        inner.map.insert(key, Entry { epoch, seq, value });
        self.inserted.fetch_add(1, Ordering::Relaxed);
        while inner.map.len() > self.capacity {
            match inner.order.pop_front() {
                Some((k, s)) => {
                    // Only the entry's *current* recency marker may evict
                    // it; older markers are leftovers from refreshes.
                    if inner.map.get(&k).is_some_and(|e| e.seq == s) {
                        inner.map.remove(&k);
                        self.evicted.fetch_add(1, Ordering::Relaxed);
                    }
                }
                None => break,
            }
        }
        // Keep the recency queue from growing without bound under repeated
        // refreshes of the same keys.
        if inner.order.len() > self.capacity.saturating_mul(4).max(64) {
            let map = &inner.map;
            let compacted: VecDeque<(String, u64)> = inner
                .order
                .iter()
                .filter(|(k, s)| map.get(k).is_some_and(|e| e.seq == *s))
                .cloned()
                .collect();
            inner.order = compacted;
        }
    }

    /// Accounting snapshot.
    pub(crate) fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            invalidated: self.invalidated.load(Ordering::Relaxed),
            inserted: self.inserted.load(Ordering::Relaxed),
            evicted: self.evicted.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpcmon_metrics::Ts;

    fn resp(v: f64) -> Arc<QueryResponse> {
        Arc::new(QueryResponse::Points(vec![(Ts(0), v)]))
    }

    #[test]
    fn hit_then_epoch_change_invalidates() {
        let c = ResultCache::new(4);
        c.put("k".into(), (1, 0), resp(1.0));
        assert!(c.get("k", (1, 0)).is_some());
        assert!(c.get("k", (2, 0)).is_none(), "store epoch advanced");
        assert!(c.get("k", (1, 0)).is_none(), "stale entry was removed");
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.invalidated), (1, 2, 1));
    }

    #[test]
    fn job_version_is_part_of_the_epoch() {
        let c = ResultCache::new(4);
        c.put("k".into(), (1, 7), resp(1.0));
        assert!(c.get("k", (1, 8)).is_none(), "job view advanced");
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let c = ResultCache::new(2);
        c.put("a".into(), (1, 0), resp(1.0));
        c.put("b".into(), (1, 0), resp(2.0));
        assert!(c.get("a", (1, 0)).is_some()); // refresh a
        c.put("c".into(), (1, 0), resp(3.0)); // evicts b
        assert!(c.get("b", (1, 0)).is_none());
        assert!(c.get("a", (1, 0)).is_some());
        assert!(c.get("c", (1, 0)).is_some());
        assert_eq!(c.stats().evicted, 1);
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let c = ResultCache::new(0);
        c.put("k".into(), (1, 0), resp(1.0));
        assert!(c.get("k", (1, 0)).is_none());
        assert!(c.inner.lock().map.is_empty());
    }
}
