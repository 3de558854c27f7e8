//! The cold storage tier.
//!
//! Table I: hierarchical storage "with the ability to locate and reload
//! data as needed", where "solutions must address both the mechanics of
//! the archiving and reloading and tracking the locations and contents of
//! archived data."  An [`Archive`] holds serialized segments; the
//! [`ArchiveCatalog`] is the tracking index (what range, which series,
//! how many bytes, where).

use crate::tsdb::{SeriesBlock, TimeSeriesStore};
use hpcmon_metrics::Ts;
use serde::{Deserialize, Serialize};

/// Catalog entry describing one archived segment.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ArchiveCatalog {
    /// Segment id (dense).
    pub segment: u32,
    /// Earliest point in the segment.
    pub start: Ts,
    /// Latest point in the segment.
    pub end: Ts,
    /// Number of series blocks.
    pub blocks: usize,
    /// Total points.
    pub points: u64,
    /// Serialized size in bytes.
    pub bytes: usize,
}

#[derive(Debug, Clone)]
struct Segment {
    catalog: ArchiveCatalog,
    blocks: Vec<SeriesBlock>,
}

/// Why the archive refused an operation: an error, never a crashed
/// archiver.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArchiveError {
    /// A segment with zero blocks has no time range and cannot be filed.
    EmptySegment,
}

impl std::fmt::Display for ArchiveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArchiveError::EmptySegment => write!(f, "cannot archive an empty segment"),
        }
    }
}

impl std::error::Error for ArchiveError {}

/// The cold tier: archived segments plus their catalog.
#[derive(Debug, Default)]
pub struct Archive {
    segments: Vec<Option<Segment>>,
}

impl Archive {
    /// Empty archive.
    pub fn new() -> Archive {
        Archive::default()
    }

    /// Archive everything in `store` older than `cutoff`: seals hot
    /// buffers, evicts the eligible warm blocks, and files them as a new
    /// segment.  Returns the catalog entry, or `None` if nothing was old
    /// enough.
    pub fn archive_before(
        &mut self,
        store: &TimeSeriesStore,
        cutoff: Ts,
    ) -> Option<ArchiveCatalog> {
        store.seal_all();
        let blocks = store.evict_warm_before(cutoff);
        if blocks.is_empty() {
            return None;
        }
        // Non-empty by the guard above, so filing cannot be refused.
        self.file_segment(blocks).ok()
    }

    /// File an explicit set of blocks as a segment.  Refuses an empty
    /// block list: it has no time range to catalog.
    pub fn file_segment(
        &mut self,
        blocks: Vec<SeriesBlock>,
    ) -> Result<ArchiveCatalog, ArchiveError> {
        let (Some(start), Some(end)) =
            (blocks.iter().map(|b| b.start).min(), blocks.iter().map(|b| b.end).max())
        else {
            return Err(ArchiveError::EmptySegment);
        };
        let points: u64 = blocks.iter().map(|b| b.count as u64).sum();
        let bytes: usize = blocks.iter().map(|b| b.compressed_bytes()).sum();
        let catalog = ArchiveCatalog {
            segment: self.segments.len() as u32,
            start,
            end,
            blocks: blocks.len(),
            points,
            bytes,
        };
        self.segments.push(Some(Segment { catalog: catalog.clone(), blocks }));
        Ok(catalog)
    }

    /// The catalog: every segment still in the archive, in id order.
    pub fn catalog(&self) -> Vec<ArchiveCatalog> {
        self.segments.iter().flatten().map(|s| s.catalog.clone()).collect()
    }

    /// Locate segments overlapping a time range (the "locate" half).
    pub fn locate(&self, from: Ts, to: Ts) -> Vec<ArchiveCatalog> {
        self.segments
            .iter()
            .flatten()
            .filter(|s| s.catalog.start <= to && s.catalog.end >= from)
            .map(|s| s.catalog.clone())
            .collect()
    }

    /// Reload a segment's blocks back into a store (the "reload" half).
    /// The segment stays in the archive — reloading is a cache fill, not a
    /// move — so repeated historical analyses need no re-archive step.
    pub fn reload_into(&self, segment: u32, store: &TimeSeriesStore) -> bool {
        match self.segments.get(segment as usize).and_then(|s| s.as_ref()) {
            Some(seg) => {
                store.reload_blocks(seg.blocks.clone());
                true
            }
            None => false,
        }
    }

    /// Permanently delete a segment (end of retention).
    pub(crate) fn purge(&mut self, segment: u32) -> bool {
        match self.segments.get_mut(segment as usize) {
            Some(slot @ Some(_)) => {
                *slot = None;
                true
            }
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpcmon_metrics::{CompId, MetricId, Sample, SeriesKey};

    fn fill(store: &TimeSeriesStore, node: u32, minutes: std::ops::Range<u64>) {
        for m in minutes {
            store.insert(&Sample::new(MetricId(0), CompId::node(node), Ts::from_mins(m), m as f64));
        }
    }

    #[test]
    fn archive_locate_reload_round_trip() {
        // Seal threshold 50 so minutes 0..49 form a sealed block per series
        // (archiving moves whole sealed blocks, never splits them).
        let store = TimeSeriesStore::with_options(4, 50);
        fill(&store, 0, 0..100);
        fill(&store, 1, 0..100);
        let mut archive = Archive::new();
        let cat = archive.archive_before(&store, Ts::from_mins(50)).unwrap();
        assert_eq!(cat.points, 100, "two series × 50 old points");
        assert_eq!(cat.blocks, 2);
        // Old data is gone from the store...
        let key = SeriesKey::new(MetricId(0), CompId::node(0));
        assert_eq!(store.query(key, Ts::ZERO, Ts::from_mins(49)).len(), 0);
        // ...locatable in the catalog...
        let found = archive.locate(Ts::from_mins(10), Ts::from_mins(20));
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].segment, cat.segment);
        // ...and reloadable for historical + current joint queries.
        assert!(archive.reload_into(cat.segment, &store));
        assert_eq!(store.query(key, Ts::ZERO, Ts(u64::MAX)).len(), 100);
    }

    #[test]
    fn archive_nothing_when_all_recent() {
        let store = TimeSeriesStore::new();
        fill(&store, 0, 90..100);
        let mut archive = Archive::new();
        assert!(archive.archive_before(&store, Ts::from_mins(50)).is_none());
        assert!(archive.catalog().is_empty());
    }

    #[test]
    fn reload_is_idempotent_cache_fill() {
        let store = TimeSeriesStore::new();
        fill(&store, 0, 0..10);
        let mut archive = Archive::new();
        let cat = archive.archive_before(&store, Ts::from_mins(100)).unwrap();
        assert!(archive.reload_into(cat.segment, &store));
        // Segment remains locatable after reload.
        assert_eq!(archive.locate(Ts::ZERO, Ts(u64::MAX)).len(), 1);
    }

    #[test]
    fn purge_removes_segment() {
        let store = TimeSeriesStore::new();
        fill(&store, 0, 0..10);
        let mut archive = Archive::new();
        let cat = archive.archive_before(&store, Ts::from_mins(100)).unwrap();
        assert!(cat.bytes > 0);
        assert!(archive.purge(cat.segment));
        assert!(!archive.purge(cat.segment), "double purge is false");
        assert!(!archive.reload_into(cat.segment, &store));
        assert!(archive.catalog().is_empty());
    }

    #[test]
    fn multiple_segments_catalogued_in_order() {
        let store = TimeSeriesStore::new();
        let mut archive = Archive::new();
        fill(&store, 0, 0..10);
        let c1 = archive.archive_before(&store, Ts::from_mins(100)).unwrap();
        fill(&store, 0, 100..110);
        let c2 = archive.archive_before(&store, Ts::from_mins(200)).unwrap();
        assert_eq!(c1.segment, 0);
        assert_eq!(c2.segment, 1);
        let cat = archive.catalog();
        assert_eq!(cat.len(), 2);
        assert!(cat[0].end < cat[1].start);
    }

    #[test]
    fn locate_misses_disjoint_ranges() {
        let store = TimeSeriesStore::new();
        fill(&store, 0, 0..10);
        let mut archive = Archive::new();
        archive.archive_before(&store, Ts::from_mins(100)).unwrap();
        assert!(archive.locate(Ts::from_mins(500), Ts::from_mins(600)).is_empty());
    }

    #[test]
    fn empty_segment_is_refused_not_a_panic() {
        let mut archive = Archive::new();
        assert_eq!(archive.file_segment(Vec::new()), Err(ArchiveError::EmptySegment));
        assert!(archive.catalog().is_empty());
    }

    #[test]
    fn unknown_segment_reload_fails() {
        let archive = Archive::new();
        let store = TimeSeriesStore::new();
        assert!(!archive.reload_into(42, &store));
    }
}
