//! The LRU result cache, keyed on (normalized request, scope), each entry
//! stamped with the epochs it was computed at.
//!
//! Cache-correctness invariant: an entry computed while
//! `TimeSeriesStore::epoch()` returned `E` (and the gateway's job view was
//! at version `J`) is served **whole** only while both values are
//! unchanged.  The store bumps its epoch on every mutation class (ingest,
//! seal, evict, reload, retention drop, snapshot load), so a cached
//! response can never be served whole across a store change; the job
//! version covers scope changes (a user gaining or losing an allocation
//! must not see a stale visibility set).
//!
//! An `AggregateAcross` entry is keyed on its range's *span*, not the range,
//! and can also be **extended**.  It keeps the store's second epoch,
//! `TimeSeriesStore::history()`: a history counter bumped only by what can
//! change a stamp behind the head — a write behind the newest stamp,
//! eviction, reload, a retention drop, a snapshot load, a read that finds
//! a corrupt block — and the head itself.  While the history counter and
//! the job version are unchanged, every stamp below `min(head, to + 1)` of
//! the entry is final, so a later request for the same span starting no
//! earlier keeps those points and folds only the stamps after them.  A
//! stamp's aggregate depends only on that stamp's operands, so the splice
//! equals a fresh fold bit for bit.
//!
//! Both epochs are captured *before* the query executes, so a mutation
//! racing the evaluation conservatively invalidates the entry.

use crate::request::{QueryRequest, QueryResponse};
use hpcmon_metrics::Ts;
use hpcmon_store::TimeRange;
use parking_lot::Mutex;
use std::borrow::Cow;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The (store epoch, job-view version) pair an entry was computed at.
pub type EpochPair = (u64, u64);

/// The cache key of `request` under `scope`, with the range of a request
/// whose entries can be extended.  An `AggregateAcross` is keyed on its
/// range's span, so a sliding window finds the entry its last position
/// left; every other request on its canonical serde form.
pub(crate) fn key(scope: &str, request: &QueryRequest) -> (String, Option<TimeRange>) {
    let (keyed, range) = match *request {
        QueryRequest::AggregateAcross { metric, range, agg } => {
            let span =
                TimeRange { from: Ts::ZERO, to: Ts(range.to.0.saturating_sub(range.from.0)) };
            (Cow::Owned(QueryRequest::AggregateAcross { metric, range: span, agg }), Some(range))
        }
        _ => (Cow::Borrowed(request), None),
    };
    (format!("{scope}|{}", serde_json::to_string(&*keyed).unwrap_or_default()), range)
}

/// Where an extendable (`AggregateAcross`) answer stands in time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Extent {
    /// The range the answer covers.
    pub(crate) range: TimeRange,
    /// The store's history counter it was computed at.
    pub(crate) history: u64,
    /// Every stamp below this one is final: `min(head, to + 1)`.
    pub(crate) closed: Ts,
}

/// What a lookup found.
#[derive(Debug, PartialEq)]
pub(crate) enum Lookup {
    /// The entry answers the request whole.
    Hit(Arc<QueryResponse>),
    /// The entry's final points inside the requested range: the caller
    /// folds the stamps from `from` on and appends them.
    Extend { kept: Vec<(Ts, f64)>, from: Ts },
    /// Nothing usable.
    Miss,
}

struct Entry {
    epoch: EpochPair,
    extent: Option<Extent>,
    seq: u64,
    value: Arc<QueryResponse>,
}

impl Entry {
    /// The points to keep and where the fold resumes, if this entry can be
    /// extended to `range` at the store's `history` and job `version`.
    fn extend(&self, range: TimeRange, history: u64, version: u64) -> Option<Lookup> {
        let x = self.extent?;
        if x.history != history || self.epoch.1 != version || range.from < x.range.from {
            return None;
        }
        let QueryResponse::Points(points) = &*self.value else { return None };
        let lo = points.partition_point(|&(t, _)| t < range.from);
        let hi = points.partition_point(|&(t, _)| t < x.closed).max(lo);
        Some(Lookup::Extend { kept: points[lo..hi].to_vec(), from: range.from.max(x.closed) })
    }
}

struct Inner {
    map: HashMap<String, Entry>,
    // Recency queue of (key, seq); stale pairs (seq no longer current for
    // the key) are skipped during eviction and compacted lazily.
    order: VecDeque<(String, u64)>,
    next_seq: u64,
}

/// Hit/miss/eviction accounting, all monotonic.  Every lookup is exactly
/// one of a hit, an extension or a miss.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered whole from cache.
    pub hits: u64,
    /// Lookups answered by extending a cached aggregate with the stamps
    /// since it was computed.
    pub extended: u64,
    /// Lookups with no usable entry.
    pub misses: u64,
    /// Entries found but rejected: stale, and not extendable.
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
    extended: AtomicU64,
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
            extended: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            invalidated: AtomicU64::new(0),
            inserted: AtomicU64::new(0),
            evicted: AtomicU64::new(0),
        }
    }

    /// Look up `key` at `epoch`; `extend` is the requested range and the
    /// store's history counter, for keys whose entries can be extended.  An
    /// entry answers whole if its epoch pair (and range) match, is extended
    /// if it can be, and is otherwise removed and counted as an
    /// invalidation (and a miss).
    pub(crate) fn get(
        &self,
        key: &str,
        epoch: EpochPair,
        extend: Option<(TimeRange, u64)>,
    ) -> Lookup {
        if self.capacity == 0 {
            self.misses.fetch_add(1, Ordering::Relaxed);
            return Lookup::Miss;
        }
        let mut inner = self.inner.lock();
        let Some(entry) = inner.map.get(key) else {
            self.misses.fetch_add(1, Ordering::Relaxed);
            return Lookup::Miss;
        };
        let same_range = entry.extent.zip(extend).is_none_or(|(x, (range, _))| x.range == range);
        if entry.epoch == epoch && same_range {
            let seq = inner.next_seq;
            inner.next_seq += 1;
            let value = {
                let e = inner.map.get_mut(key).expect("entry just observed");
                e.seq = seq;
                e.value.clone()
            };
            inner.order.push_back((key.to_owned(), seq));
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Lookup::Hit(value);
        }
        if let Some(found) = extend.and_then(|(range, h)| entry.extend(range, h, epoch.1)) {
            self.extended.fetch_add(1, Ordering::Relaxed);
            return found;
        }
        inner.map.remove(key);
        self.invalidated.fetch_add(1, Ordering::Relaxed);
        self.misses.fetch_add(1, Ordering::Relaxed);
        Lookup::Miss
    }

    /// Store a response computed at `epoch` (and, if it can be extended,
    /// where it stands in time), replacing the key's entry and evicting
    /// least-recently-used entries if over capacity.
    pub(crate) fn put(
        &self,
        key: String,
        epoch: EpochPair,
        extent: Option<Extent>,
        value: Arc<QueryResponse>,
    ) {
        if self.capacity == 0 {
            return;
        }
        let mut inner = self.inner.lock();
        let seq = inner.next_seq;
        inner.next_seq += 1;
        inner.order.push_back((key.clone(), seq));
        inner.map.insert(key, Entry { epoch, extent, seq, value });
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
            extended: self.extended.load(Ordering::Relaxed),
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
    use hpcmon_metrics::MetricId;
    use hpcmon_store::AggFn;

    fn resp(v: f64) -> Arc<QueryResponse> {
        Arc::new(QueryResponse::Points(vec![(Ts(0), v)]))
    }

    fn hit(c: &ResultCache, key: &str, epoch: EpochPair) -> bool {
        matches!(c.get(key, epoch, None), Lookup::Hit(_))
    }

    #[test]
    fn hit_then_epoch_change_invalidates() {
        let c = ResultCache::new(4);
        c.put("k".into(), (1, 0), None, resp(1.0));
        assert!(hit(&c, "k", (1, 0)));
        assert!(!hit(&c, "k", (2, 0)), "store epoch advanced");
        assert!(!hit(&c, "k", (1, 0)), "stale entry was removed");
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.invalidated), (1, 2, 1));
    }

    #[test]
    fn job_version_is_part_of_the_epoch() {
        let c = ResultCache::new(4);
        c.put("k".into(), (1, 7), None, resp(1.0));
        assert!(!hit(&c, "k", (1, 8)), "job view advanced");
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let c = ResultCache::new(2);
        c.put("a".into(), (1, 0), None, resp(1.0));
        c.put("b".into(), (1, 0), None, resp(2.0));
        assert!(hit(&c, "a", (1, 0))); // refresh a
        c.put("c".into(), (1, 0), None, resp(3.0)); // evicts b
        assert!(!hit(&c, "b", (1, 0)));
        assert!(hit(&c, "a", (1, 0)));
        assert!(hit(&c, "c", (1, 0)));
        assert_eq!(c.stats().evicted, 1);
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let c = ResultCache::new(0);
        c.put("k".into(), (1, 0), None, resp(1.0));
        assert!(!hit(&c, "k", (1, 0)));
        assert!(c.inner.lock().map.is_empty());
    }

    // ---- extending aggregates ----

    fn range(from: u64, to: u64) -> TimeRange {
        TimeRange::new(Ts(from), Ts(to))
    }

    /// Stamps 100..=400 every 100 over `[100, 400]`, computed at history 5
    /// with the head at 400: everything below 400 is final.
    fn cached() -> ResultCache {
        let c = ResultCache::new(4);
        let points = (1..=4).map(|i| (Ts(i * 100), i as f64)).collect();
        let extent = Extent { range: range(100, 400), history: 5, closed: Ts(400) };
        c.put("agg".into(), (10, 1), Some(extent), Arc::new(QueryResponse::Points(points)));
        c
    }

    fn lookups(s: CacheStats) -> u64 {
        s.hits + s.extended + s.misses
    }

    #[test]
    fn an_extension_keeps_the_final_points_from_the_new_start() {
        let c = cached();
        let kept = vec![(Ts(200), 2.0), (Ts(300), 3.0)];
        let slid = c.get("agg", (11, 1), Some((range(200, 500), 5)));
        assert_eq!(slid, Lookup::Extend { kept, from: Ts(400) });
        let unmoved = c.get("agg", (11, 1), Some((range(100, 400), 5)));
        let kept = vec![(Ts(100), 1.0), (Ts(200), 2.0), (Ts(300), 3.0)];
        assert_eq!(unmoved, Lookup::Extend { kept, from: Ts(400) }, "the head was not final");
        let past = c.get("agg", (11, 1), Some((range(450, 750), 5)));
        assert_eq!(past, Lookup::Extend { kept: vec![], from: Ts(450) }, "nothing left to keep");
        let s = c.stats();
        assert_eq!((s.extended, lookups(s), s.invalidated), (3, 3, 0));
    }

    #[test]
    fn an_exact_repeat_is_a_plain_hit() {
        let c = cached();
        let Lookup::Hit(value) = c.get("agg", (10, 1), Some((range(100, 400), 5))) else {
            panic!("same range, same epochs");
        };
        assert_eq!(
            value.as_ref(),
            &QueryResponse::Points((1..=4).map(|i| (Ts(i * 100), i as f64)).collect())
        );
        let moved = c.get("agg", (10, 1), Some((range(200, 500), 5)));
        assert!(matches!(moved, Lookup::Extend { .. }), "another range is not a hit");
        let s = c.stats();
        assert_eq!((s.hits, s.extended, s.misses, lookups(s)), (1, 1, 0, 2));
    }

    #[test]
    fn a_span_mismatch_is_a_miss() {
        let scope = "admin";
        let agg = |from, to| QueryRequest::AggregateAcross {
            metric: MetricId(3),
            range: range(from, to),
            agg: AggFn::Sum,
        };
        let (slid, r) = key(scope, &agg(200, 500));
        assert_eq!((slid.clone(), r), (key(scope, &agg(100, 400)).0, Some(range(200, 500))));
        let (wider, _) = key(scope, &agg(100, 500));
        assert_ne!(wider, slid);
        assert_ne!(key("user:alice", &agg(200, 500)).0, slid, "scopes never share");
        let c = ResultCache::new(4);
        let extent = Extent { range: range(100, 400), history: 5, closed: Ts(400) };
        c.put(slid.clone(), (10, 1), Some(extent), resp(1.0));
        assert_eq!(c.get(&wider, (11, 1), Some((range(100, 500), 5))), Lookup::Miss);
        assert!(matches!(c.get(&slid, (11, 1), Some((range(200, 500), 5))), Lookup::Extend { .. }));
        let s = c.stats();
        assert_eq!((s.misses, s.extended, s.invalidated), (1, 1, 0));
    }

    #[test]
    fn a_changed_history_or_job_version_is_a_miss() {
        for (epoch, history) in [((11, 1), 6), ((11, 2), 5), ((10, 2), 5)] {
            let c = cached();
            assert_eq!(c.get("agg", epoch, Some((range(200, 500), history))), Lookup::Miss);
            let s = c.stats();
            assert_eq!((s.misses, s.invalidated, lookups(s)), (1, 1, 1), "{epoch:?} {history}");
            assert!(c.inner.lock().map.is_empty(), "the stale entry is gone");
        }
    }

    #[test]
    fn an_earlier_start_recomputes() {
        let c = cached();
        assert_eq!(c.get("agg", (11, 1), Some((range(0, 300), 5))), Lookup::Miss);
        let s = c.stats();
        assert_eq!((s.misses, s.invalidated, s.extended), (1, 1, 0));
    }
}
