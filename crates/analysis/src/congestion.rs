//! SNL-style network congestion levels and regions.
//!
//! Paper §II-9: SNL uses "functional combinations of High Speed Network
//! performance counters, collected periodically and synchronously across a
//! whole system, to determine congestion levels, congestion regions, and
//! impact on application performance."
//!
//! Input: one synchronized snapshot of per-link stall and traffic
//! counters, plus a link→region mapping (region = cabinet/group on real
//! machines).  Output: a per-region congestion level and the set of
//! contiguous hot regions.

use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Discretized congestion level, in SNL's spirit of operator-meaningful
/// bands rather than raw ratios.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum CongestionLevel {
    /// Stall ratio below 5%.
    None,
    /// 5–25%.
    Low,
    /// 25–75%.
    Medium,
    /// Above 75% — demand far exceeds capacity.
    High,
}

impl CongestionLevel {
    /// Band a stall ratio (stalled bytes / offered bytes).
    pub(crate) fn from_stall_ratio(ratio: f64) -> CongestionLevel {
        if ratio < 0.05 {
            CongestionLevel::None
        } else if ratio < 0.25 {
            CongestionLevel::Low
        } else if ratio < 0.75 {
            CongestionLevel::Medium
        } else {
            CongestionLevel::High
        }
    }
}

/// Per-link counter snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LinkCounters {
    /// Link id.
    pub link: u32,
    /// Bytes carried this interval.
    pub traffic_bytes: f64,
    /// Excess (stalled) bytes this interval.
    pub stall_bytes: f64,
}

impl LinkCounters {
    /// Stall ratio: stalled / offered (0 when idle).
    pub(crate) fn stall_ratio(&self) -> f64 {
        let offered = self.traffic_bytes + self.stall_bytes;
        if offered <= 0.0 {
            0.0
        } else {
            self.stall_bytes / offered
        }
    }
}

/// Region-level congestion assessment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RegionCongestion {
    /// Region id (cabinet/group index).
    pub region: u32,
    /// Mean stall ratio over the region's active links.
    pub stall_ratio: f64,
    /// Links in the region that carried or stalled traffic.
    pub active_links: usize,
    /// Banded level.
    pub level: CongestionLevel,
}

/// The full-system congestion picture for one snapshot.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CongestionMap {
    /// Per-region assessments, sorted by region id.
    pub regions: Vec<RegionCongestion>,
}

impl CongestionMap {
    /// Build from a counter snapshot and a link→region mapping.
    pub fn build(counters: &[LinkCounters], region_of_link: impl Fn(u32) -> u32) -> CongestionMap {
        let mut acc: HashMap<u32, (f64, usize)> = HashMap::new();
        for c in counters {
            if c.traffic_bytes <= 0.0 && c.stall_bytes <= 0.0 {
                continue; // idle links say nothing about congestion
            }
            let entry = acc.entry(region_of_link(c.link)).or_insert((0.0, 0));
            entry.0 += c.stall_ratio();
            entry.1 += 1;
        }
        let mut regions: Vec<RegionCongestion> = acc
            .into_iter()
            .map(|(region, (sum, n))| {
                let ratio = sum / n as f64;
                RegionCongestion {
                    region,
                    stall_ratio: ratio,
                    active_links: n,
                    level: CongestionLevel::from_stall_ratio(ratio),
                }
            })
            .collect();
        regions.sort_by_key(|r| r.region);
        CongestionMap { regions }
    }

    /// Regions at or above a level.
    pub fn hot_regions(&self, at_least: CongestionLevel) -> Vec<u32> {
        self.regions.iter().filter(|r| r.level >= at_least).map(|r| r.region).collect()
    }

    /// The single worst region, if any region was active.
    pub fn worst(&self) -> Option<&RegionCongestion> {
        self.regions
            .iter()
            .max_by(|a, b| a.stall_ratio.partial_cmp(&b.stall_ratio).expect("no NaN"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lc(link: u32, traffic: f64, stalls: f64) -> LinkCounters {
        LinkCounters { link, traffic_bytes: traffic, stall_bytes: stalls }
    }

    #[test]
    fn level_bands() {
        assert_eq!(CongestionLevel::from_stall_ratio(0.0), CongestionLevel::None);
        assert_eq!(CongestionLevel::from_stall_ratio(0.1), CongestionLevel::Low);
        assert_eq!(CongestionLevel::from_stall_ratio(0.5), CongestionLevel::Medium);
        assert_eq!(CongestionLevel::from_stall_ratio(0.9), CongestionLevel::High);
        assert!(CongestionLevel::High > CongestionLevel::Low);
    }

    #[test]
    fn stall_ratio_computation() {
        assert_eq!(lc(0, 900.0, 100.0).stall_ratio(), 0.1);
        assert_eq!(lc(0, 0.0, 0.0).stall_ratio(), 0.0);
        assert_eq!(lc(0, 0.0, 500.0).stall_ratio(), 1.0, "fully starved link");
    }

    #[test]
    fn regions_aggregate_their_links() {
        // Links 0..4 in region 0 (hot), 4..8 in region 1 (cool).
        let mut counters = Vec::new();
        for l in 0..4 {
            counters.push(lc(l, 200.0, 800.0));
        }
        for l in 4..8 {
            counters.push(lc(l, 1_000.0, 10.0));
        }
        let map = CongestionMap::build(&counters, |l| l / 4);
        assert_eq!(map.regions.len(), 2);
        assert_eq!(map.regions[0].level, CongestionLevel::High);
        assert_eq!(map.regions[1].level, CongestionLevel::None);
        assert_eq!(map.hot_regions(CongestionLevel::Medium), vec![0]);
        assert_eq!(map.worst().unwrap().region, 0);
        assert_eq!(map.regions[0].active_links, 4);
    }

    #[test]
    fn idle_links_are_excluded() {
        let counters = vec![lc(0, 0.0, 0.0), lc(1, 100.0, 100.0)];
        let map = CongestionMap::build(&counters, |_| 0);
        assert_eq!(map.regions.len(), 1);
        assert_eq!(map.regions[0].active_links, 1);
        assert_eq!(map.regions[0].stall_ratio, 0.5);
    }

    #[test]
    fn all_idle_is_empty_map() {
        let counters = vec![lc(0, 0.0, 0.0)];
        let map = CongestionMap::build(&counters, |_| 0);
        assert!(map.regions.is_empty());
        assert!(map.worst().is_none());
        assert!(map.hot_regions(CongestionLevel::Low).is_empty());
    }

    #[test]
    fn regions_sorted_by_id() {
        let counters = vec![lc(9, 1.0, 1.0), lc(2, 1.0, 1.0), lc(5, 1.0, 1.0)];
        let map = CongestionMap::build(&counters, |l| l);
        let ids: Vec<u32> = map.regions.iter().map(|r| r.region).collect();
        assert_eq!(ids, vec![2, 5, 9]);
    }
}
