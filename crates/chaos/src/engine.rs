//! The seeded chaos engine: activates scheduled faults at tick boundaries
//! and answers point queries from the pipeline ("is this collector wedged
//! right now?", "does this envelope get corrupted?").
//!
//! Everything here is deterministic.  Durations are measured in ticks and
//! decay at tick boundaries; per-envelope corruption decisions hash the
//! broker sequence number (allocated deterministically regardless of worker
//! count) against the engine seed, so the same seed and plan reproduce the
//! same damage bit-for-bit at any parallelism.

use crate::fault::{ChaosFault, ChaosPlan};
use hpcmon_metrics::StateHash;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// The fault currently active on one collector.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum CollectorFault {
    /// Panics when invoked this tick.
    Panic,
    /// Exceeds its budget and produces nothing.
    Hang,
    /// Runs this many times slower than normal.
    Slow(f64),
}

/// Per-kind counts of injected fault events.
///
/// Scheduled faults count once at activation; `envelope_corrupt` counts
/// each envelope actually corrupted (the per-envelope rate draw).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct InjectedCounts {
    /// Collector panics activated.
    pub collector_panic: u64,
    /// Collector hangs activated.
    pub collector_hang: u64,
    /// Collector slowdowns activated.
    pub collector_slow: u64,
    /// Broker topic stalls activated.
    pub topic_stall: u64,
    /// Envelopes actually corrupted.
    pub envelope_corrupt: u64,
    /// Store shard write-fail windows activated.
    pub store_write_fail: u64,
}

impl InjectedCounts {
    /// Sum over every kind.
    pub fn total(&self) -> u64 {
        self.collector_panic
            + self.collector_hang
            + self.collector_slow
            + self.topic_stall
            + self.envelope_corrupt
            + self.store_write_fail
    }
}

#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
struct ActiveCollectorFault {
    fault: CollectorFault,
    expires_at: u64,
}

/// Per-kind counts of injected WAN-link fault windows (federation plane).
/// Kept separate from [`InjectedCounts`] so single-site pipelines — whose
/// telemetry mirrors `InjectedCounts` field-for-field — are untouched.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct WanInjectedCounts {
    /// Partition windows activated.
    pub partition: u64,
    /// Added-latency windows activated.
    pub delay: u64,
    /// Bandwidth-squeeze windows activated.
    pub bandwidth: u64,
}

/// Per-kind counts of injected storage-medium fault events (durability
/// plane).  Kept separate from [`InjectedCounts`] for the same reason as
/// [`WanInjectedCounts`]: pipelines without a durability plane keep their
/// existing telemetry shape untouched.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct DiskInjectedCounts {
    /// Write-fail (EIO) windows activated.
    pub write_fail: u64,
    /// Torn-write arms delivered.
    pub torn_write: u64,
    /// Corrupt-byte strikes delivered.
    pub corrupt_byte: u64,
    /// Disk-full (ENOSPC) windows activated.
    pub full: u64,
}

/// The WAN faults active on one member site's link.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
struct ActiveWanFault {
    /// Partition window end (tick), if partitioned.
    partitioned_until: Option<u64>,
    /// (added one-way latency in ticks, window end).
    delay: Option<(u64, u64)>,
    /// (bytes-per-tick cap, window end).
    bandwidth: Option<(u64, u64)>,
}

impl ActiveWanFault {
    fn expire(&mut self, tick: u64) {
        if self.partitioned_until.is_some_and(|t| t <= tick) {
            self.partitioned_until = None;
        }
        if self.delay.is_some_and(|(_, t)| t <= tick) {
            self.delay = None;
        }
        if self.bandwidth.is_some_and(|(_, t)| t <= tick) {
            self.bandwidth = None;
        }
    }

    fn is_clear(&self) -> bool {
        self.partitioned_until.is_none() && self.delay.is_none() && self.bandwidth.is_none()
    }
}

/// Complete serializable state of the chaos engine at a tick boundary.
/// The active-fault maps and the plan cursor round-trip exactly, so a
/// restored engine makes the same corruption draws and expiry decisions.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ChaosSnapshot {
    seed: u64,
    plan: ChaosPlan,
    tick: u64,
    collectors: BTreeMap<String, ActiveCollectorFault>,
    topics: BTreeMap<String, u64>,
    corrupt: Option<(f64, u64)>,
    // Vec-of-pairs rather than the engine's BTreeMap: the serde layer only
    // supports string map keys.
    shards: Vec<(usize, u64)>,
    counts: InjectedCounts,
    wan: BTreeMap<String, ActiveWanFault>,
    wan_counts: WanInjectedCounts,
    // Disk-fault fields postdate the snapshot format; defaults keep older
    // recordings loadable.
    #[serde(default)]
    disk_write_fail_until: Option<u64>,
    #[serde(default)]
    disk_full_until: Option<u64>,
    #[serde(default)]
    pending_torn: Vec<u64>,
    #[serde(default)]
    pending_corrupt: Vec<u64>,
    #[serde(default)]
    disk_counts: DiskInjectedCounts,
}

/// Deterministic fault injector for the monitoring plane.
#[derive(Debug)]
pub struct ChaosEngine {
    seed: u64,
    plan: ChaosPlan,
    tick: u64,
    collectors: BTreeMap<String, ActiveCollectorFault>,
    topics: BTreeMap<String, u64>,
    corrupt: Option<(f64, u64)>,
    shards: BTreeMap<usize, u64>,
    counts: InjectedCounts,
    wan: BTreeMap<String, ActiveWanFault>,
    wan_counts: WanInjectedCounts,
    disk_write_fail_until: Option<u64>,
    disk_full_until: Option<u64>,
    /// Seeds for torn-write arms due this tick, drawn at activation.
    pending_torn: Vec<u64>,
    /// Seeds for corrupt-byte strikes due this tick, drawn at activation.
    pending_corrupt: Vec<u64>,
    disk_counts: DiskInjectedCounts,
}

/// SplitMix64 finalizer — the same mixer the simulator's `Rng` uses, inlined
/// so a corruption decision is a pure function of `(seed, seq)`.
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl ChaosEngine {
    /// Engine over `plan`, with `seed` keying per-envelope decisions.
    pub fn new(seed: u64, plan: ChaosPlan) -> ChaosEngine {
        ChaosEngine {
            seed,
            plan,
            tick: 0,
            collectors: BTreeMap::new(),
            topics: BTreeMap::new(),
            corrupt: None,
            shards: BTreeMap::new(),
            counts: InjectedCounts::default(),
            wan: BTreeMap::new(),
            wan_counts: WanInjectedCounts::default(),
            disk_write_fail_until: None,
            disk_full_until: None,
            pending_torn: Vec::new(),
            pending_corrupt: Vec::new(),
            disk_counts: DiskInjectedCounts::default(),
        }
    }

    /// Advance to `tick`: expire elapsed faults, then activate everything
    /// scheduled at or before it.  Call once per tick, before the collect
    /// stage.
    pub fn begin_tick(&mut self, tick: u64) {
        self.tick = tick;
        self.collectors.retain(|_, f| f.expires_at > tick);
        self.topics.retain(|_, expires| *expires > tick);
        if let Some((_, expires)) = self.corrupt {
            if expires <= tick {
                self.corrupt = None;
            }
        }
        self.shards.retain(|_, expires| *expires > tick);
        if self.disk_write_fail_until.is_some_and(|t| t <= tick) {
            self.disk_write_fail_until = None;
        }
        if self.disk_full_until.is_some_and(|t| t <= tick) {
            self.disk_full_until = None;
        }
        self.wan.retain(|_, f| {
            f.expire(tick);
            !f.is_clear()
        });
        for scheduled in self.plan.pop_due(tick) {
            match scheduled.fault {
                ChaosFault::CollectorPanic { collector } => {
                    self.counts.collector_panic += 1;
                    self.collectors.insert(
                        collector,
                        ActiveCollectorFault { fault: CollectorFault::Panic, expires_at: tick + 1 },
                    );
                }
                ChaosFault::CollectorHang { collector, ticks } => {
                    self.counts.collector_hang += 1;
                    self.collectors.insert(
                        collector,
                        ActiveCollectorFault {
                            fault: CollectorFault::Hang,
                            expires_at: tick + ticks.max(1),
                        },
                    );
                }
                ChaosFault::CollectorSlow { collector, factor, ticks } => {
                    self.counts.collector_slow += 1;
                    self.collectors.insert(
                        collector,
                        ActiveCollectorFault {
                            fault: CollectorFault::Slow(factor),
                            expires_at: tick + ticks.max(1),
                        },
                    );
                }
                ChaosFault::BrokerTopicStall { topic, ticks } => {
                    self.counts.topic_stall += 1;
                    self.topics.insert(topic, tick + ticks.max(1));
                }
                ChaosFault::EnvelopeCorrupt { rate, ticks } => {
                    self.corrupt = Some((rate.clamp(0.0, 1.0), tick + ticks.max(1)));
                }
                ChaosFault::StoreWriteFail { shard, ticks } => {
                    self.counts.store_write_fail += 1;
                    self.shards.insert(shard, tick + ticks.max(1));
                }
                ChaosFault::WanPartition { site, ticks } => {
                    self.wan_counts.partition += 1;
                    self.wan.entry(site).or_default().partitioned_until = Some(tick + ticks.max(1));
                }
                ChaosFault::WanDelay { site, added_ticks, ticks } => {
                    self.wan_counts.delay += 1;
                    self.wan.entry(site).or_default().delay =
                        Some((added_ticks, tick + ticks.max(1)));
                }
                ChaosFault::WanBandwidth { site, bytes_per_tick, ticks } => {
                    self.wan_counts.bandwidth += 1;
                    self.wan.entry(site).or_default().bandwidth =
                        Some((bytes_per_tick, tick + ticks.max(1)));
                }
                ChaosFault::DiskWriteFail { ticks } => {
                    self.disk_counts.write_fail += 1;
                    self.disk_write_fail_until = Some(tick + ticks.max(1));
                }
                ChaosFault::DiskFull { ticks } => {
                    self.disk_counts.full += 1;
                    self.disk_full_until = Some(tick + ticks.max(1));
                }
                ChaosFault::DiskTornWrite => {
                    self.disk_counts.torn_write += 1;
                    self.pending_torn.push(mix64(self.seed ^ tick.rotate_left(23) ^ 0xD15C_70A1));
                }
                ChaosFault::DiskCorruptByte => {
                    self.disk_counts.corrupt_byte += 1;
                    self.pending_corrupt
                        .push(mix64(self.seed ^ tick.rotate_left(29) ^ 0xD15C_C0DE));
                }
            }
        }
    }

    /// The fault active on the named collector this tick, if any.
    pub fn collector_fault(&self, name: &str) -> Option<CollectorFault> {
        self.collectors.get(name).map(|f| f.fault)
    }

    /// Whether publishes on `topic` are stalled this tick.
    pub fn topic_stalled(&self, topic: &str) -> bool {
        self.topics.contains_key(topic)
    }

    /// Corruption decision for the envelope with broker sequence `seq`.
    /// `Some(bits)` means corrupt it, with `bits` a deterministic value the
    /// caller uses to pick which bit to flip.  Counts each hit.
    pub fn corruption(&mut self, seq: u64) -> Option<u64> {
        let (rate, _) = self.corrupt?;
        let bits = mix64(self.seed ^ seq.rotate_left(17));
        let draw = (bits >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        if draw < rate {
            self.counts.envelope_corrupt += 1;
            Some(mix64(bits))
        } else {
            None
        }
    }

    /// Whether writes to `shard` fail this tick.
    pub fn shard_failing(&self, shard: usize) -> bool {
        self.shards.contains_key(&shard)
    }

    /// Whether durability-medium appends fail (EIO) this tick.
    pub fn disk_write_failing(&self) -> bool {
        self.disk_write_fail_until.is_some()
    }

    /// Whether the durability medium reports ENOSPC this tick.
    pub fn disk_full(&self) -> bool {
        self.disk_full_until.is_some()
    }

    /// Take the seeds for torn-write arms due this tick.  Call exactly
    /// once per tick (whether or not a medium is attached) so the digest
    /// stays identical across durable and non-durable runs.
    pub fn take_torn_writes(&mut self) -> Vec<u64> {
        std::mem::take(&mut self.pending_torn)
    }

    /// Take the seeds for corrupt-byte strikes due this tick.  Same
    /// once-per-tick discipline as [`ChaosEngine::take_torn_writes`].
    pub fn take_corrupt_bytes(&mut self) -> Vec<u64> {
        std::mem::take(&mut self.pending_corrupt)
    }

    /// Per-kind storage-medium fault counts so far.
    pub fn disk_counts(&self) -> DiskInjectedCounts {
        self.disk_counts
    }

    /// Whether the WAN link to `site` is partitioned this tick.
    pub fn wan_partitioned(&self, site: &str) -> bool {
        self.wan.get(site).is_some_and(|f| f.partitioned_until.is_some())
    }

    /// Extra one-way latency (in ticks) on the link to `site` this tick.
    pub fn wan_added_latency_ticks(&self, site: &str) -> u64 {
        self.wan.get(site).and_then(|f| f.delay).map_or(0, |(added, _)| added)
    }

    /// Bandwidth cap (bytes per tick) on the link to `site` this tick, if
    /// one is active.
    pub fn wan_bandwidth_cap(&self, site: &str) -> Option<u64> {
        self.wan.get(site).and_then(|f| f.bandwidth).map(|(cap, _)| cap)
    }

    /// Per-kind WAN fault-window counts so far.
    pub fn wan_counts(&self) -> WanInjectedCounts {
        self.wan_counts
    }

    /// Per-kind injection counts so far.
    pub fn counts(&self) -> InjectedCounts {
        self.counts
    }

    /// Capture the full injector state for a flight-recorder checkpoint.
    pub fn snapshot(&self) -> ChaosSnapshot {
        ChaosSnapshot {
            seed: self.seed,
            plan: self.plan.clone(),
            tick: self.tick,
            collectors: self.collectors.clone(),
            topics: self.topics.clone(),
            corrupt: self.corrupt,
            shards: self.shards.iter().map(|(&k, &v)| (k, v)).collect(),
            counts: self.counts,
            wan: self.wan.clone(),
            wan_counts: self.wan_counts,
            disk_write_fail_until: self.disk_write_fail_until,
            disk_full_until: self.disk_full_until,
            pending_torn: self.pending_torn.clone(),
            pending_corrupt: self.pending_corrupt.clone(),
            disk_counts: self.disk_counts,
        }
    }

    /// Rebuild an injector from a checkpoint.
    pub fn restore(snap: ChaosSnapshot) -> ChaosEngine {
        ChaosEngine {
            seed: snap.seed,
            plan: snap.plan,
            tick: snap.tick,
            collectors: snap.collectors,
            topics: snap.topics,
            corrupt: snap.corrupt,
            shards: snap.shards.into_iter().collect(),
            counts: snap.counts,
            wan: snap.wan,
            wan_counts: snap.wan_counts,
            disk_write_fail_until: snap.disk_write_fail_until,
            disk_full_until: snap.disk_full_until,
            pending_torn: snap.pending_torn,
            pending_corrupt: snap.pending_corrupt,
            disk_counts: snap.disk_counts,
        }
    }

    /// 64-bit digest of the injector state, for per-tick replay
    /// verification.
    pub fn state_digest(&self) -> u64 {
        let mut h = StateHash::new(0xC4);
        h.u64(self.seed).u64(self.tick).usize(self.plan.remaining());
        h.usize(self.collectors.len());
        for (name, f) in &self.collectors {
            let kind = match f.fault {
                CollectorFault::Panic => 0u64,
                CollectorFault::Hang => 1,
                CollectorFault::Slow(factor) => 2u64 ^ factor.to_bits().rotate_left(2),
            };
            h.str(name).u64(kind).u64(f.expires_at);
        }
        h.usize(self.topics.len());
        for (topic, expires) in &self.topics {
            h.str(topic).u64(*expires);
        }
        match self.corrupt {
            Some((rate, expires)) => h.f64(rate).u64(expires),
            None => h.u64(u64::MAX),
        };
        h.usize(self.shards.len());
        for (&shard, &expires) in &self.shards {
            h.usize(shard).u64(expires);
        }
        h.usize(self.wan.len());
        for (site, f) in &self.wan {
            h.str(site);
            h.u64(f.partitioned_until.unwrap_or(u64::MAX));
            let (added, delay_until) = f.delay.unwrap_or((u64::MAX, u64::MAX));
            h.u64(added).u64(delay_until);
            let (cap, bw_until) = f.bandwidth.unwrap_or((u64::MAX, u64::MAX));
            h.u64(cap).u64(bw_until);
        }
        let w = self.wan_counts;
        h.u64(w.partition).u64(w.delay).u64(w.bandwidth);
        let c = self.counts;
        h.u64(c.collector_panic)
            .u64(c.collector_hang)
            .u64(c.collector_slow)
            .u64(c.topic_stall)
            .u64(c.envelope_corrupt)
            .u64(c.store_write_fail);
        h.u64(self.disk_write_fail_until.unwrap_or(u64::MAX));
        h.u64(self.disk_full_until.unwrap_or(u64::MAX));
        h.usize(self.pending_torn.len());
        for seed in &self.pending_torn {
            h.u64(*seed);
        }
        h.usize(self.pending_corrupt.len());
        for seed in &self.pending_corrupt {
            h.u64(*seed);
        }
        let d = self.disk_counts;
        h.u64(d.write_fail).u64(d.torn_write).u64(d.corrupt_byte).u64(d.full);
        h.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::ScheduledFault;

    /// Fault states active this tick (collectors + topics + corruption
    /// window + shards + disturbed WAN links + disk windows).
    fn active_faults(eng: &ChaosEngine) -> usize {
        eng.collectors.len()
            + eng.topics.len()
            + usize::from(eng.corrupt.is_some())
            + eng.shards.len()
            + eng.wan.len()
            + usize::from(eng.disk_write_fail_until.is_some())
            + usize::from(eng.disk_full_until.is_some())
    }

    fn plan(faults: Vec<(u64, ChaosFault)>) -> ChaosPlan {
        ChaosPlan::from_faults(
            faults.into_iter().map(|(at_tick, fault)| ScheduledFault { at_tick, fault }).collect(),
        )
    }

    #[test]
    fn collector_faults_activate_and_expire() {
        let mut eng = ChaosEngine::new(
            1,
            plan(vec![
                (2, ChaosFault::CollectorHang { collector: "node".into(), ticks: 2 }),
                (3, ChaosFault::CollectorPanic { collector: "power".into() }),
            ]),
        );
        eng.begin_tick(0);
        assert!(eng.collector_fault("node").is_none());
        eng.begin_tick(2);
        assert_eq!(eng.collector_fault("node"), Some(CollectorFault::Hang));
        eng.begin_tick(3);
        assert_eq!(eng.collector_fault("node"), Some(CollectorFault::Hang), "2-tick hang");
        assert_eq!(eng.collector_fault("power"), Some(CollectorFault::Panic));
        eng.begin_tick(4);
        assert!(eng.collector_fault("node").is_none(), "hang expired");
        assert!(eng.collector_fault("power").is_none(), "panic is one-shot");
        assert_eq!(eng.counts().collector_hang, 1);
        assert_eq!(eng.counts().collector_panic, 1);
        assert_eq!(active_faults(&eng), 0);
    }

    #[test]
    fn corruption_is_deterministic_and_rate_bounded() {
        let p = plan(vec![(0, ChaosFault::EnvelopeCorrupt { rate: 0.3, ticks: 5 })]);
        let mut a = ChaosEngine::new(42, p.clone());
        let mut b = ChaosEngine::new(42, p.clone());
        a.begin_tick(0);
        b.begin_tick(0);
        let da: Vec<Option<u64>> = (0..1000).map(|s| a.corruption(s)).collect();
        let db: Vec<Option<u64>> = (0..1000).map(|s| b.corruption(s)).collect();
        assert_eq!(da, db, "same seed, same decisions");
        let hits = da.iter().filter(|d| d.is_some()).count();
        assert!((200..400).contains(&hits), "rate ~0.3, got {hits}/1000");
        // Different seed, different decisions.
        let mut c = ChaosEngine::new(43, p);
        c.begin_tick(0);
        let dc: Vec<Option<u64>> = (0..1000).map(|s| c.corruption(s)).collect();
        assert_ne!(da, dc);
        // Outside the window: no corruption.
        a.begin_tick(5);
        assert!((0..1000u64).all(|s| a.corruption(s).is_none()));
    }

    #[test]
    fn shard_and_topic_windows() {
        let mut eng = ChaosEngine::new(
            7,
            plan(vec![
                (1, ChaosFault::StoreWriteFail { shard: 3, ticks: 2 }),
                (1, ChaosFault::BrokerTopicStall { topic: "metrics/frame".into(), ticks: 1 }),
            ]),
        );
        eng.begin_tick(1);
        assert!(eng.shard_failing(3));
        assert!(!eng.shard_failing(0));
        assert_eq!(eng.shards.keys().copied().collect::<Vec<_>>(), vec![3]);
        assert!(eng.topic_stalled("metrics/frame"));
        eng.begin_tick(2);
        assert!(eng.shard_failing(3));
        assert!(!eng.topic_stalled("metrics/frame"));
        eng.begin_tick(3);
        assert!(!eng.shard_failing(3));
    }

    #[test]
    fn wan_faults_activate_overlap_and_expire() {
        let mut eng = ChaosEngine::new(
            11,
            plan(vec![
                (1, ChaosFault::WanPartition { site: "siteB".into(), ticks: 2 }),
                (1, ChaosFault::WanDelay { site: "siteB".into(), added_ticks: 3, ticks: 4 }),
                (
                    2,
                    ChaosFault::WanBandwidth { site: "siteC".into(), bytes_per_tick: 64, ticks: 1 },
                ),
            ]),
        );
        eng.begin_tick(0);
        assert!(!eng.wan_partitioned("siteB"));
        assert_eq!(eng.wan_added_latency_ticks("siteB"), 0);
        eng.begin_tick(1);
        assert!(eng.wan_partitioned("siteB"));
        assert_eq!(eng.wan_added_latency_ticks("siteB"), 3, "delay overlaps partition");
        assert_eq!(eng.wan_bandwidth_cap("siteC"), None);
        eng.begin_tick(2);
        assert!(eng.wan_partitioned("siteB"));
        assert_eq!(eng.wan_bandwidth_cap("siteC"), Some(64));
        assert_eq!(active_faults(&eng), 2, "two disturbed links");
        eng.begin_tick(3);
        assert!(!eng.wan_partitioned("siteB"), "partition expired");
        assert_eq!(eng.wan_added_latency_ticks("siteB"), 3, "delay still running");
        assert_eq!(eng.wan_bandwidth_cap("siteC"), None, "squeeze expired");
        eng.begin_tick(5);
        assert_eq!(eng.wan_added_latency_ticks("siteB"), 0);
        assert_eq!(active_faults(&eng), 0);
        let w = eng.wan_counts();
        assert_eq!((w.partition, w.delay, w.bandwidth), (1, 1, 1));
        // Snapshot round-trips the WAN state.
        let mut restored = ChaosEngine::restore(eng.snapshot());
        assert_eq!(restored.state_digest(), eng.state_digest());
        restored.begin_tick(6);
        assert_eq!(restored.wan_counts(), w);
    }

    #[test]
    fn disk_faults_window_arm_and_expire() {
        let mut eng = ChaosEngine::new(
            21,
            plan(vec![
                (1, ChaosFault::DiskWriteFail { ticks: 2 }),
                (2, ChaosFault::DiskTornWrite),
                (2, ChaosFault::DiskCorruptByte),
                (4, ChaosFault::DiskFull { ticks: 1 }),
            ]),
        );
        eng.begin_tick(0);
        assert!(!eng.disk_write_failing());
        assert!(eng.take_torn_writes().is_empty());
        eng.begin_tick(1);
        assert!(eng.disk_write_failing());
        assert!(!eng.disk_full());
        assert_eq!(active_faults(&eng), 1);
        eng.begin_tick(2);
        assert!(eng.disk_write_failing(), "2-tick window");
        let torn = eng.take_torn_writes();
        let corrupt = eng.take_corrupt_bytes();
        assert_eq!((torn.len(), corrupt.len()), (1, 1));
        assert_ne!(torn[0], corrupt[0], "independent seed streams");
        assert!(eng.take_torn_writes().is_empty(), "one-shots are taken once");
        eng.begin_tick(3);
        assert!(!eng.disk_write_failing(), "window expired");
        eng.begin_tick(4);
        assert!(eng.disk_full());
        let d = eng.disk_counts();
        assert_eq!((d.write_fail, d.torn_write, d.corrupt_byte, d.full), (1, 1, 1, 1));
        // Same seed and plan re-draw identical torn/corrupt seeds.
        let mut twin = ChaosEngine::new(
            21,
            plan(vec![(2, ChaosFault::DiskTornWrite), (2, ChaosFault::DiskCorruptByte)]),
        );
        twin.begin_tick(2);
        assert_eq!(twin.take_torn_writes(), torn);
        assert_eq!(twin.take_corrupt_bytes(), corrupt);
        // Snapshot round-trips the disk state.
        let restored = ChaosEngine::restore(eng.snapshot());
        assert_eq!(restored.state_digest(), eng.state_digest());
    }
}
