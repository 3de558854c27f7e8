//! Retention policies over the tiered store.
//!
//! Table I: "We will need to keep all data" — but not all of it in the
//! performant tier.  A [`RetentionPolicy`] drives the standard lifecycle:
//! recent data stays hot/warm, older data is archived (still locatable and
//! reloadable), and — only if a site configures it — data beyond a hard
//! horizon is purged.

use crate::archive::{Archive, ArchiveCatalog};
use crate::tsdb::TimeSeriesStore;
use hpcmon_metrics::Ts;
use serde::{Deserialize, Serialize};

/// What to keep where, expressed as ages relative to "now".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RetentionPolicy {
    /// Data younger than this stays in the performant (hot/warm) tier, ms.
    pub keep_performant_ms: u64,
    /// Data older than this is purged from the archive entirely
    /// (`None` = keep forever, the paper's default desire).
    pub purge_after_ms: Option<u64>,
    /// When set, archived data leaves behind a mean-downsampled rollup at
    /// this bucket size in the performant tier (the RRDtool pattern:
    /// "all storage does not have to be equally performant" — old data
    /// stays queryable at coarse resolution without touching the archive).
    pub rollup_bucket_ms: Option<u64>,
}

impl RetentionPolicy {
    /// Outcome of one enforcement pass.
    pub fn enforce(
        &self,
        now: Ts,
        store: &TimeSeriesStore,
        archive: &mut Archive,
    ) -> RetentionReport {
        let archive_cutoff = now.sub_ms(self.keep_performant_ms);
        let archived: Option<ArchiveCatalog> = if archive_cutoff > Ts::ZERO {
            store.seal_all();
            let blocks = store.evict_warm_before(archive_cutoff);
            if blocks.is_empty() {
                None
            } else {
                // Leave coarse rollups behind before the blocks go cold.
                if let Some(bucket) = self.rollup_bucket_ms {
                    let mut pts = Vec::new();
                    for block in &blocks {
                        // A corrupt block carries no points to roll up;
                        // the reload path counts it when it comes back.
                        pts.clear();
                        if block.decode_into(Ts::ZERO, Ts(u64::MAX), &mut pts).is_err() {
                            continue;
                        }
                        // A zero bucket cannot downsample: an empty rollup
                        // is the safe fallback.
                        for (t, v) in crate::query::QueryEngine::downsample_points(
                            &pts,
                            bucket,
                            crate::query::AggFn::Mean,
                        )
                        .unwrap_or_default()
                        {
                            store.insert(&hpcmon_metrics::Sample {
                                key: block.key,
                                ts: t,
                                value: v,
                            });
                        }
                    }
                }
                // Non-empty by the guard above; a refusal would mean an
                // archiver bug, and losing the catalog entry is the safe
                // degradation (the counter records it).
                archive.file_segment(blocks).ok()
            }
        } else {
            None
        };
        let mut purged = 0usize;
        if let Some(purge_ms) = self.purge_after_ms {
            let purge_cutoff = now.sub_ms(purge_ms);
            let doomed: Vec<u32> = archive
                .catalog()
                .into_iter()
                .filter(|c| c.end < purge_cutoff)
                .map(|c| c.segment)
                .collect();
            for seg in doomed {
                if archive.purge(seg) {
                    purged += 1;
                }
            }
        }
        RetentionReport { archived, purged_segments: purged }
    }
}

/// What an enforcement pass did.
#[derive(Debug, Clone, PartialEq)]
pub struct RetentionReport {
    /// The newly created archive segment, if anything aged out.
    pub archived: Option<ArchiveCatalog>,
    /// Archive segments purged past the hard horizon.
    pub purged_segments: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Keep one simulated week performant, everything forever.
    fn week_performant() -> RetentionPolicy {
        RetentionPolicy {
            keep_performant_ms: 7 * 24 * 3_600_000,
            purge_after_ms: None,
            rollup_bucket_ms: None,
        }
    }
    use hpcmon_metrics::{CompId, MetricId, Sample, SeriesKey};

    fn fill(store: &TimeSeriesStore, minutes: std::ops::Range<u64>) {
        for m in minutes {
            store.insert(&Sample::new(MetricId(0), CompId::node(0), Ts::from_mins(m), m as f64));
        }
    }

    fn key() -> SeriesKey {
        SeriesKey::new(MetricId(0), CompId::node(0))
    }

    #[test]
    fn young_data_stays_put() {
        let store = TimeSeriesStore::with_options(2, 16);
        fill(&store, 0..60);
        let mut archive = Archive::new();
        let policy = RetentionPolicy {
            keep_performant_ms: 2 * 3_600_000,
            purge_after_ms: None,
            rollup_bucket_ms: None,
        };
        let report = policy.enforce(Ts::from_mins(60), &store, &mut archive);
        assert!(report.archived.is_none());
        assert_eq!(store.query(key(), Ts::ZERO, Ts(u64::MAX)).len(), 60);
    }

    #[test]
    fn old_data_moves_to_archive_but_stays_reachable() {
        let store = TimeSeriesStore::with_options(2, 16);
        fill(&store, 0..240);
        let mut archive = Archive::new();
        let policy = RetentionPolicy {
            keep_performant_ms: 3_600_000,
            purge_after_ms: None,
            rollup_bucket_ms: None,
        };
        let now = Ts::from_mins(240);
        let report = policy.enforce(now, &store, &mut archive);
        let cat = report.archived.expect("something archived");
        assert!(cat.points > 0);
        // Performant tier is trimmed...
        let remaining = store.query(key(), Ts::ZERO, Ts(u64::MAX)).len();
        assert!(remaining < 240);
        // ...but history is locatable and reloadable.
        assert_eq!(archive.locate(Ts::ZERO, Ts::from_mins(100)).len(), 1);
        archive.reload_into(cat.segment, &store);
        assert_eq!(store.query(key(), Ts::ZERO, Ts(u64::MAX)).len(), 240);
    }

    #[test]
    fn purge_horizon_removes_ancient_segments() {
        let store = TimeSeriesStore::with_options(2, 16);
        let mut archive = Archive::new();
        let policy = RetentionPolicy {
            keep_performant_ms: 3_600_000,
            purge_after_ms: Some(5 * 3_600_000),
            rollup_bucket_ms: None,
        };
        // Two epochs far apart.
        fill(&store, 0..120);
        policy.enforce(Ts::from_mins(180), &store, &mut archive);
        fill(&store, 600..720);
        let report = policy.enforce(Ts::from_mins(780), &store, &mut archive);
        // The first segment (ends minute 119) is more than 5 h older than
        // minute 780, so it is purged.
        assert_eq!(report.purged_segments, 1);
        assert_eq!(archive.catalog().len(), 1, "only the recent segment remains");
    }

    #[test]
    fn keep_forever_never_purges() {
        let store = TimeSeriesStore::with_options(2, 16);
        let mut archive = Archive::new();
        let policy = week_performant();
        fill(&store, 0..60);
        // A month later, archive but never purge.
        let month = Ts(30 * 24 * 3_600_000);
        let report = policy.enforce(month, &store, &mut archive);
        assert!(report.archived.is_some());
        assert_eq!(report.purged_segments, 0);
        let far_future = Ts(365 * 24 * 3_600_000);
        let report = policy.enforce(far_future, &store, &mut archive);
        assert_eq!(report.purged_segments, 0);
        assert_eq!(archive.catalog().len(), 1);
    }

    #[test]
    fn rollup_keeps_coarse_history_in_the_performant_tier() {
        let store = TimeSeriesStore::with_options(2, 16);
        // Minutes 0..120, value = minute.
        fill(&store, 0..120);
        let mut archive = Archive::new();
        let policy = RetentionPolicy {
            keep_performant_ms: 30 * 60_000,
            purge_after_ms: None,
            rollup_bucket_ms: Some(60 * 60_000), // hourly rollups
        };
        let report = policy.enforce(Ts::from_mins(120), &store, &mut archive);
        assert!(report.archived.is_some());
        // Raw old points are gone, but hourly means remain queryable.
        let pts = store.query(key(), Ts::ZERO, Ts::from_mins(89));
        assert!(!pts.is_empty(), "rollups present");
        assert!(pts.len() < 90, "coarser than raw: {}", pts.len());
        // First hourly bucket covers minutes 0..59 → mean 29.5ish (bucket
        // membership depends on the seal boundary; just check plausibility).
        let (t0, v0) = pts[0];
        assert_eq!(t0, Ts::ZERO);
        assert!((0.0..60.0).contains(&v0), "mean of first hour: {v0}");
        // Full-resolution history is still in the archive.
        let cat = report.archived.unwrap();
        archive.reload_into(cat.segment, &store);
        let full = store.query(key(), Ts::ZERO, Ts(u64::MAX));
        assert!(full.len() >= 120, "raw + rollups after reload: {}", full.len());
    }

    #[test]
    fn enforce_near_epoch_is_safe() {
        let store = TimeSeriesStore::new();
        let mut archive = Archive::new();
        let policy = week_performant();
        let report = policy.enforce(Ts::from_mins(1), &store, &mut archive);
        assert!(report.archived.is_none());
        assert_eq!(report.purged_segments, 0);
    }
}
