#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! `hpcmon-telemetry` — the monitor monitoring itself.
//!
//! The paper's Table I requires that the monitoring system's own health be
//! observable: a dead collector must not impersonate a healthy machine, and
//! at scale the monitor is itself a large distributed system whose queue
//! depths, ingest rates, and per-stage latencies decide whether it keeps up.
//! This crate is the instrumentation substrate for that requirement:
//!
//! * [`Counter`] / [`Gauge`] — single atomics, lock-free on the hot path.
//! * [`Histogram`] — fixed log-spaced latency buckets with p50/p95/p99/max.
//! * [`Telemetry`] — the registry. Registration takes a lock once; the
//!   returned `Arc` handles are pure atomics afterwards.
//! * [`TelemetryReport`] — a serializable snapshot, rendered as text for
//!   the ops report or exported as JSON.
//!
//! The pipeline feeds these instruments and a `SelfCollector` (in
//! `hpcmon-collect`) republishes them as ordinary `hpcmon.self.*` metrics
//! into the system's own store, so the deadman detector, thresholds, and
//! status board cover the monitor exactly like the machine it watches.

use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

/// Number of log-spaced histogram buckets: 2 per octave over 1ns..~1100s.
const BUCKETS: usize = 80;

/// A monotonically increasing event count.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
    active: bool,
}

impl Counter {
    fn new(active: bool) -> Counter {
        Counter { value: AtomicU64::new(0), active }
    }

    /// Add `n` events.
    pub fn add(&self, n: u64) {
        if self.active {
            self.value.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Increment by one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current total.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A point-in-time level (queue depth, last-tick latency, ...).
#[derive(Debug, Default)]
pub struct Gauge {
    bits: AtomicU64,
    active: bool,
}

impl Gauge {
    fn new(active: bool) -> Gauge {
        Gauge { bits: AtomicU64::new(0), active }
    }

    /// Set the level.
    pub fn set(&self, value: f64) {
        if self.active {
            self.bits.store(value.to_bits(), Ordering::Relaxed);
        }
    }

    /// Current level.
    pub(crate) fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

/// Fixed-bucket latency histogram (log-spaced, 2 buckets per octave).
///
/// Recording is a couple of relaxed atomic adds; quantiles are estimated at
/// snapshot time from bucket midpoints, which is accurate to ~±19% (half an
/// octave step) — plenty for "where does tick time go".
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    /// Exemplar slot per bucket: an opaque tag (in practice a trace id)
    /// from the most recent tagged observation landing in that bucket.
    /// 0 means "no exemplar" — tag allocators must reserve 0 as "none".
    exemplars: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum_ns: AtomicU64,
    max_ns: AtomicU64,
    active: bool,
}

impl Histogram {
    fn new(active: bool) -> Histogram {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            exemplars: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum_ns: AtomicU64::new(0),
            max_ns: AtomicU64::new(0),
            active,
        }
    }

    fn bucket_index(ns: u64) -> usize {
        // Two buckets per octave: index = 2*log2(ns) + (ns in upper half).
        let ns = ns.max(1);
        let exp = 63 - ns.leading_zeros() as usize;
        let half = (ns >> exp.saturating_sub(1)) & 1;
        (exp * 2 + half as usize).min(BUCKETS - 1)
    }

    fn bucket_midpoint_ns(index: usize) -> u64 {
        let exp = index / 2;
        let base = 1u64 << exp;
        // Midpoint of [base, 1.5*base) or [1.5*base, 2*base).
        if index.is_multiple_of(2) {
            base + base / 4
        } else {
            base + base / 2 + base / 4
        }
    }

    /// Record one observation.
    pub fn record_ns(&self, ns: u64) {
        self.record_ns_tagged(ns, 0);
    }

    /// Record one observation carrying an exemplar tag (a trace id).
    /// `tag == 0` means untagged; the bucket's exemplar slot is left alone
    /// so a sparse sampled trace isn't clobbered by untraced observations.
    pub fn record_ns_tagged(&self, ns: u64, tag: u64) {
        if !self.active {
            return;
        }
        let bucket = Self::bucket_index(ns);
        self.buckets[bucket].fetch_add(1, Ordering::Relaxed);
        if tag != 0 {
            self.exemplars[bucket].store(tag, Ordering::Relaxed);
        }
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_ns.fetch_add(ns, Ordering::Relaxed);
        self.max_ns.fetch_max(ns, Ordering::Relaxed);
    }

    /// Observation count.
    pub(crate) fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Estimated quantile in nanoseconds (`q` in 0..=1).
    pub fn quantile_ns(&self, q: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen >= rank {
                return Self::bucket_midpoint_ns(i);
            }
        }
        self.max_ns.load(Ordering::Relaxed)
    }

    /// The exemplar tag nearest the quantile `q`: the tag stored in the
    /// bucket the quantile estimate falls in, or — when that bucket holds
    /// only untagged observations — the tag in the *nearest* tagged
    /// bucket by bucket distance, breaking ties toward the slower bucket
    /// (for a p99 question, the interesting exemplar is the slow
    /// outlier).  An any-direction upward scan would skip a tagged
    /// neighbor one bucket below in favor of an outlier many buckets
    /// above.  Returns 0 when no tagged observation exists at all.
    pub fn exemplar_near_quantile(&self, q: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
        let mut seen = 0;
        let mut target = BUCKETS - 1;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen >= rank {
                target = i;
                break;
            }
        }
        let mut best = 0u64;
        let mut best_dist = usize::MAX;
        for (i, slot) in self.exemplars.iter().enumerate() {
            let tag = slot.load(Ordering::Relaxed);
            if tag == 0 {
                continue;
            }
            let dist = i.abs_diff(target);
            if dist < best_dist || (dist == best_dist && i > target) {
                best = tag;
                best_dist = dist;
            }
        }
        best
    }

    /// Snapshot for reporting.
    pub fn snapshot(&self, name: &str) -> HistogramSnapshot {
        let count = self.count();
        let sum = self.sum_ns.load(Ordering::Relaxed);
        HistogramSnapshot {
            name: name.to_string(),
            count,
            mean_ns: sum.checked_div(count).unwrap_or(0),
            p50_ns: self.quantile_ns(0.50),
            p95_ns: self.quantile_ns(0.95),
            p99_ns: self.quantile_ns(0.99),
            max_ns: self.max_ns.load(Ordering::Relaxed),
        }
    }
}

/// One instrument family: `entries` preserves registration order (the
/// `visit_*` contract the self-feed depends on) while `index` makes
/// register-or-fetch O(1) instead of a linear scan — registries carry
/// hundreds of names once per-topic transport counters multiply.
struct Family<T> {
    entries: Vec<(String, Arc<T>)>,
    index: HashMap<String, usize>,
}

impl<T> Default for Family<T> {
    fn default() -> Self {
        Family { entries: Vec::new(), index: HashMap::new() }
    }
}

impl<T> Family<T> {
    fn get(&self, name: &str) -> Option<Arc<T>> {
        self.index.get(name).map(|&i| self.entries[i].1.clone())
    }

    fn insert(&mut self, name: &str, value: Arc<T>) {
        self.index.insert(name.to_string(), self.entries.len());
        self.entries.push((name.to_string(), value));
    }
}

#[derive(Default)]
struct Inner {
    counters: Family<Counter>,
    gauges: Family<Gauge>,
    histograms: Family<Histogram>,
}

/// The instrumentation registry.
///
/// Registration (`counter`/`gauge`/`histogram`) takes a write lock once per
/// name; the returned handles are lock-free. A registry built with
/// [`Telemetry::disabled`] hands out inert instruments whose operations are
/// a single predictable branch — the no-op baseline for the overhead bench.
pub struct Telemetry {
    inner: RwLock<Inner>,
    active: bool,
}

impl Default for Telemetry {
    fn default() -> Self {
        Telemetry::new()
    }
}

impl Telemetry {
    /// An active registry.
    pub fn new() -> Telemetry {
        Telemetry { inner: RwLock::new(Inner::default()), active: true }
    }

    /// An inert registry: instruments exist but record nothing.
    pub fn disabled() -> Telemetry {
        Telemetry { inner: RwLock::new(Inner::default()), active: false }
    }

    /// Whether instruments record.
    pub fn is_active(&self) -> bool {
        self.active
    }

    /// Acquire the registry read lock, recovering a poisoned lock rather
    /// than panicking: a panic elsewhere must not cascade into every
    /// thread that touches telemetry (no-panic policy).  The registry's invariants are append-only maps, which
    /// stay consistent across an interrupted writer.
    fn read(&self) -> std::sync::RwLockReadGuard<'_, Inner> {
        self.inner.read().unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Write-lock counterpart of [`Telemetry::read`].
    fn write(&self) -> std::sync::RwLockWriteGuard<'_, Inner> {
        self.inner.write().unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Register or fetch a counter.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        if let Some(c) = self.read().counters.get(name) {
            return c;
        }
        let mut inner = self.write();
        if let Some(c) = inner.counters.get(name) {
            return c;
        }
        let c = Arc::new(Counter::new(self.active));
        inner.counters.insert(name, c.clone());
        c
    }

    /// Register or fetch a gauge.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        if let Some(g) = self.read().gauges.get(name) {
            return g;
        }
        let mut inner = self.write();
        if let Some(g) = inner.gauges.get(name) {
            return g;
        }
        let g = Arc::new(Gauge::new(self.active));
        inner.gauges.insert(name, g.clone());
        g
    }

    /// Register or fetch a histogram.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        if let Some(h) = self.read().histograms.get(name) {
            return h;
        }
        let mut inner = self.write();
        if let Some(h) = inner.histograms.get(name) {
            return h;
        }
        let h = Arc::new(Histogram::new(self.active));
        inner.histograms.insert(name, h.clone());
        h
    }

    /// Visit every counter (registration order) with its current total.
    pub fn visit_counters(&self, mut f: impl FnMut(&str, u64)) {
        for (name, c) in &self.read().counters.entries {
            f(name, c.get());
        }
    }

    /// Visit every gauge (registration order) with its current level.
    pub fn visit_gauges(&self, mut f: impl FnMut(&str, f64)) {
        for (name, g) in &self.read().gauges.entries {
            f(name, g.get());
        }
    }

    /// Visit every histogram (registration order).  Allocation-free, unlike
    /// [`Telemetry::report`] — the per-tick self-feed path.
    pub fn visit_histograms(&self, mut f: impl FnMut(&str, &Histogram)) {
        for (name, h) in &self.read().histograms.entries {
            f(name, h);
        }
    }

    /// Snapshot everything for reporting/export.
    pub fn report(&self) -> TelemetryReport {
        let inner = self.read();
        TelemetryReport {
            counters: inner
                .counters
                .entries
                .iter()
                .map(|(n, c)| CounterSnapshot { name: n.clone(), value: c.get() })
                .collect(),
            gauges: inner
                .gauges
                .entries
                .iter()
                .map(|(n, g)| GaugeSnapshot { name: n.clone(), value: g.get() })
                .collect(),
            histograms: inner.histograms.entries.iter().map(|(n, h)| h.snapshot(n)).collect(),
        }
    }
}

/// Snapshot of one counter.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CounterSnapshot {
    /// Instrument name.
    pub name: String,
    /// Total count.
    pub value: u64,
}

/// Snapshot of one gauge.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GaugeSnapshot {
    /// Instrument name.
    pub name: String,
    /// Current level.
    pub value: f64,
}

/// Snapshot of one histogram.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HistogramSnapshot {
    /// Instrument name.
    pub name: String,
    /// Observations recorded.
    pub count: u64,
    /// Mean, nanoseconds.
    pub mean_ns: u64,
    /// Median estimate, nanoseconds.
    pub p50_ns: u64,
    /// 95th percentile estimate, nanoseconds.
    pub p95_ns: u64,
    /// 99th percentile estimate, nanoseconds.
    pub p99_ns: u64,
    /// Exact maximum, nanoseconds.
    pub max_ns: u64,
}

/// A full snapshot of the monitor's self-instrumentation.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct TelemetryReport {
    /// All counters.
    pub counters: Vec<CounterSnapshot>,
    /// All gauges.
    pub gauges: Vec<GaugeSnapshot>,
    /// All histograms.
    pub histograms: Vec<HistogramSnapshot>,
}

impl TelemetryReport {
    /// Render as indented text (ops-report / status-board section).
    pub fn render_text(&self) -> String {
        fn fmt_ns(ns: u64) -> String {
            if ns >= 1_000_000_000 {
                format!("{:.2}s", ns as f64 / 1e9)
            } else if ns >= 1_000_000 {
                format!("{:.2}ms", ns as f64 / 1e6)
            } else if ns >= 1_000 {
                format!("{:.1}us", ns as f64 / 1e3)
            } else {
                format!("{ns}ns")
            }
        }
        let mut out = String::from("self-telemetry\n");
        if !self.histograms.is_empty() {
            out.push_str("  stage latencies:\n");
            for h in &self.histograms {
                out.push_str(&format!(
                    "    {:<32} n={:<8} p50={:<9} p95={:<9} p99={:<9} max={}\n",
                    h.name,
                    h.count,
                    fmt_ns(h.p50_ns),
                    fmt_ns(h.p95_ns),
                    fmt_ns(h.p99_ns),
                    fmt_ns(h.max_ns),
                ));
            }
        }
        if !self.counters.is_empty() {
            out.push_str("  counters:\n");
            for c in &self.counters {
                out.push_str(&format!("    {:<40} {}\n", c.name, c.value));
            }
        }
        if !self.gauges.is_empty() {
            out.push_str("  gauges:\n");
            for g in &self.gauges {
                out.push_str(&format!("    {:<40} {:.3}\n", g.name, g.value));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_roundtrip() {
        let t = Telemetry::new();
        let c = t.counter("a.b");
        c.add(3);
        c.inc();
        assert_eq!(c.get(), 4);
        assert!(Arc::ptr_eq(&c, &t.counter("a.b")));
        let g = t.gauge("q.depth");
        g.set(7.5);
        assert_eq!(g.get(), 7.5);
    }

    #[test]
    fn disabled_records_nothing() {
        let t = Telemetry::disabled();
        let c = t.counter("x");
        c.add(10);
        assert_eq!(c.get(), 0);
        let h = t.histogram("h");
        h.record_ns(500);
        assert_eq!(h.count(), 0);
    }

    #[test]
    fn histogram_quantiles_bracket_data() {
        let t = Telemetry::new();
        let h = t.histogram("lat");
        for ns in [100u64, 200, 400, 800, 1600, 3200, 6400, 12800, 25600, 1_000_000] {
            h.record_ns(ns);
        }
        assert_eq!(h.count(), 10);
        let p50 = h.quantile_ns(0.5);
        assert!((400..=3200).contains(&p50), "p50 {p50}");
        assert_eq!(h.snapshot("lat").max_ns, 1_000_000);
        let p99 = h.quantile_ns(0.99);
        assert!(p99 >= 500_000, "p99 {p99}");
    }

    #[test]
    fn registration_order_survives_indexed_lookup() {
        let t = Telemetry::new();
        let names = ["zeta", "alpha", "mu", "beta"];
        for n in &names {
            t.counter(n);
            t.histogram(n);
        }
        // Re-fetch out of order: must return the same instruments...
        assert!(Arc::ptr_eq(&t.counter("mu"), &t.counter("mu")));
        for n in names.iter().rev() {
            t.counter(n);
        }
        // ...and visitation must still run in first-registration order.
        let mut seen = Vec::new();
        t.visit_counters(|n, _| seen.push(n.to_string()));
        assert_eq!(seen, names);
        let mut hseen = Vec::new();
        t.visit_histograms(|n, _| hseen.push(n.to_string()));
        assert_eq!(hseen, names);
    }

    #[test]
    fn exemplar_resolves_slow_outlier() {
        let t = Telemetry::new();
        let h = t.histogram("lat");
        // 99 fast untagged observations, one slow tagged outlier.
        for _ in 0..99 {
            h.record_ns(1_000);
        }
        h.record_ns_tagged(50_000_000, 42);
        assert_eq!(h.exemplar_near_quantile(0.99), 42);
        // The fast buckets hold no tags; p50 falls back to the nearest
        // tagged bucket rather than returning nothing.
        assert_eq!(h.exemplar_near_quantile(0.50), 42);
    }

    #[test]
    fn untagged_records_do_not_clobber_exemplars() {
        let t = Telemetry::new();
        let h = t.histogram("lat");
        h.record_ns_tagged(1_000, 7);
        for _ in 0..100 {
            h.record_ns(1_000); // same bucket, no tag
        }
        assert_eq!(h.exemplar_near_quantile(0.5), 7);
        // A later tagged record in the same bucket replaces it.
        h.record_ns_tagged(1_000, 9);
        assert_eq!(h.exemplar_near_quantile(0.5), 9);
    }

    #[test]
    fn exemplar_prefers_nearest_bucket_not_first_upward() {
        let t = Telemetry::new();
        let h = t.histogram("lat");
        // A tagged fast record 8 buckets below the p99 bucket, the p99
        // mass itself untagged, and a tagged outlier 12 buckets above.
        // The old upward-first scan skipped the near neighbor and
        // returned the far outlier; nearest-bucket wins now.
        h.record_ns_tagged(1_000, 7); // bucket 19
        for _ in 0..100 {
            h.record_ns(16_000); // bucket 27, untagged — holds the p99
        }
        h.record_ns_tagged(1_000_000, 9); // bucket 39
        assert_eq!(h.exemplar_near_quantile(0.99), 7);
    }

    #[test]
    fn exemplar_equidistant_tie_prefers_slower_bucket() {
        let t = Telemetry::new();
        let h = t.histogram("lat");
        h.record_ns_tagged(1_000, 5); // bucket 19: 8 below the target
        for _ in 0..100 {
            h.record_ns(16_000); // bucket 27, untagged
        }
        h.record_ns_tagged(200_000, 6); // bucket 35: 8 above the target
        assert_eq!(h.exemplar_near_quantile(0.99), 6, "tie breaks toward the slow outlier");
    }

    #[test]
    fn empty_histogram_has_no_exemplar() {
        let t = Telemetry::new();
        assert_eq!(t.histogram("h").exemplar_near_quantile(0.99), 0);
    }

    #[test]
    fn report_json_round_trips() {
        let t = Telemetry::new();
        t.counter("c1").add(5);
        t.gauge("g1").set(2.25);
        t.histogram("h1").record_ns(1234);
        let report = t.report();
        let json = serde_json::to_string(&report).unwrap();
        let back: TelemetryReport = serde_json::from_str(&json).unwrap();
        assert_eq!(report, back);
        assert!(report.render_text().contains("c1"));
    }
}
