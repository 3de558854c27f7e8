//! Scatter-gather results: per-site provenance and central merging.
//!
//! A federated query never silently drops a site.  Every member appears in
//! [`FedQueryResult::outcomes`] exactly once, with what happened to it —
//! answered, shed on deadline, unreachable behind a partition, or failed
//! with the gateway's own error.  Merging is central and deterministic:
//! timestamps are pre-aligned to federation time by the scatter layer (per
//! site clock skew), ranked rows order by value with a fixed
//! `(site index, component)` tie-break, and `AggregateAcross` responses
//! re-aggregate per aligned timestamp with the request's own function.

use hpcmon_gateway::{QueryError, QueryResponse};
use hpcmon_metrics::{CompId, Ts};
use hpcmon_store::{AggFn, Fold};
use serde::{Deserialize, Serialize};

/// What happened to one member site during a scatter.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum SiteStatus {
    /// The site's gateway answered within budget.
    Answered,
    /// The link round trip exceeded the caller's remaining deadline
    /// budget; the site was shed from the merge before being queried.
    TimedOut {
        /// Simulated round trip at scatter time, ticks.
        rtt_ticks: u64,
        /// The caller's budget, ticks.
        budget_ticks: u64,
    },
    /// The WAN link was partitioned; the site was unreachable.
    Partitioned,
    /// The site's gateway refused the query.
    Failed(QueryError),
}

/// One site's provenance entry in a federated answer.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SiteOutcome {
    /// Member site name.
    pub site: String,
    /// What happened.
    pub status: SiteStatus,
}

impl SiteOutcome {
    /// Whether this site contributed data to the merge.
    pub fn answered(&self) -> bool {
        self.status == SiteStatus::Answered
    }
}

/// One row of a federated ranking: which site the component lives on is
/// part of the answer (a global top-k names `(site, component)` pairs).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FedRow {
    /// Member site name.
    pub site: String,
    /// The component within that site.
    pub comp: CompId,
    /// The ranked value.
    pub value: f64,
}

/// A merged federated answer.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum FedResponse {
    /// Per-timestamp re-aggregation across sites (from `AggregateAcross`),
    /// on federation-aligned timestamps.
    Points(Vec<(Ts, f64)>),
    /// Globally ranked rows (from `TopComponentsAt`), value-descending
    /// with `(site index, component)` tie-break, truncated to the
    /// request's limit.
    Ranked(Vec<FedRow>),
    /// Responses that do not merge across sites (raw series, group-bys,
    /// joins, job extractions): one aligned answer per answering site, in
    /// site order.
    PerSite(Vec<(String, QueryResponse)>),
}

/// A complete federated answer: the merge plus per-site provenance.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FedQueryResult {
    /// The merged answer over every site that answered.
    pub merged: FedResponse,
    /// One entry per member site, in site order — never silently dropped.
    pub outcomes: Vec<SiteOutcome>,
}

impl FedQueryResult {
    /// Names of the sites that did **not** contribute to the merge.
    pub fn unreachable_sites(&self) -> Vec<&str> {
        self.outcomes.iter().filter(|o| !o.answered()).map(|o| o.site.as_str()).collect()
    }

    /// Whether every member site answered.
    pub fn complete(&self) -> bool {
        self.outcomes.iter().all(|o| o.answered())
    }
}

/// Merge per-site `Points` answers by re-aggregating the site values at
/// each aligned timestamp with `agg`.  `Count` sums (a count of samples
/// across sites is the sum of per-site counts); the other functions apply
/// directly — for `Mean`/`Quantile` this is the function *of the per-site
/// aggregates*, the standard rollup approximation.
pub(crate) fn merge_points(per_site: &[(String, QueryResponse)], agg: AggFn) -> Vec<(Ts, f64)> {
    let merge = match agg {
        AggFn::Count => AggFn::Sum,
        other => other,
    };
    let mut fold = Fold::new(merge);
    for (_, resp) in per_site {
        if let QueryResponse::Points(points) = resp {
            for &(ts, v) in points {
                fold.push(ts, v);
            }
        }
    }
    fold.finish()
}

/// Merge per-site `Ranked` answers into a global ranking: value
/// descending, ties broken by `(site index, component)` so the order is a
/// pure function of the data, truncated to `limit`.
pub(crate) fn merge_ranked(per_site: &[(String, QueryResponse)], limit: usize) -> Vec<FedRow> {
    let mut rows: Vec<(usize, FedRow)> = Vec::new();
    for (site_idx, (site, resp)) in per_site.iter().enumerate() {
        if let QueryResponse::Ranked(ranked) = resp {
            for &(comp, value) in ranked {
                rows.push((site_idx, FedRow { site: site.clone(), comp, value }));
            }
        }
    }
    rows.sort_by(|(ia, a), (ib, b)| {
        b.value
            .partial_cmp(&a.value)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(ia.cmp(ib))
            .then(a.comp.cmp(&b.comp))
    });
    rows.truncate(limit);
    rows.into_iter().map(|(_, row)| row).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn points(site: &str, pts: Vec<(u64, f64)>) -> (String, QueryResponse) {
        (site.into(), QueryResponse::Points(pts.into_iter().map(|(t, v)| (Ts(t), v)).collect()))
    }

    #[test]
    fn points_merge_sums_per_timestamp() {
        let per_site =
            vec![points("a", vec![(60, 1.0), (120, 2.0)]), points("b", vec![(60, 10.0)])];
        let merged = merge_points(&per_site, AggFn::Sum);
        assert_eq!(merged, vec![(Ts(60), 11.0), (Ts(120), 2.0)]);
        // Count semantics: counts add across sites.
        let merged = merge_points(&per_site, AggFn::Count);
        assert_eq!(merged, vec![(Ts(60), 11.0), (Ts(120), 2.0)]);
    }

    #[test]
    fn ranked_merge_orders_and_breaks_ties_by_site_then_comp() {
        let a = ("a".to_string(), QueryResponse::Ranked(vec![(CompId::node(3), 5.0)]));
        let b = (
            "b".to_string(),
            QueryResponse::Ranked(vec![(CompId::node(1), 5.0), (CompId::node(2), 9.0)]),
        );
        let rows = merge_ranked(&[a, b], 10);
        assert_eq!(rows.len(), 3);
        assert_eq!((rows[0].site.as_str(), rows[0].value), ("b", 9.0));
        // Tie at 5.0: site index 0 ("a") wins over site index 1 ("b").
        assert_eq!(rows[1].site, "a");
        assert_eq!(rows[2].site, "b");
        assert_eq!(merge_ranked(&[rows_input()], 1).len(), 1, "limit truncates");
    }

    fn rows_input() -> (String, QueryResponse) {
        ("x".into(), QueryResponse::Ranked(vec![(CompId::node(0), 1.0), (CompId::node(1), 2.0)]))
    }

    #[test]
    fn provenance_helpers() {
        let result = FedQueryResult {
            merged: FedResponse::PerSite(Vec::new()),
            outcomes: vec![
                SiteOutcome { site: "a".into(), status: SiteStatus::Answered },
                SiteOutcome { site: "b".into(), status: SiteStatus::Partitioned },
                SiteOutcome {
                    site: "c".into(),
                    status: SiteStatus::TimedOut { rtt_ticks: 8, budget_ticks: 4 },
                },
            ],
        };
        assert!(!result.complete());
        assert_eq!(result.unreachable_sites(), vec!["b", "c"]);
        let s = serde_json::to_string(&result).unwrap();
        let back: FedQueryResult = serde_json::from_str(&s).unwrap();
        assert_eq!(result, back);
    }
}
