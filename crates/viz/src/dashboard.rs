//! Declarative, shareable dashboard configurations.
//!
//! "Grafana is currently a popular first order solution, due to its ease
//! of configuration, ability to graph live data, and ability to copy and
//! share dashboard configurations" (paper §III-B).  A [`Dashboard`] is the
//! shareable config: panels reference metrics *by name*, so a config built
//! at one site renders at another against that site's own registry and
//! store.

use crate::chart::LineChart;
use crate::heatmap::CabinetHeatmap;
use hpcmon_metrics::{CompKind, MetricRegistry};
use hpcmon_store::{AggFn, QueryEngine, TimeRange, TimeSeriesStore};
use serde::{Deserialize, Serialize};

/// What a panel shows.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum PanelKind {
    /// The across-component aggregate of a metric as a line chart.
    AggregateLine {
        /// Aggregation across components per tick.
        agg: AggFn,
    },
    /// The latest per-cabinet values of a metric as a heatmap.
    CabinetHeatmap {
        /// Cabinets per rendered row.
        columns: usize,
    },
    /// The current top-k components by latest value, as a table.
    TopK {
        /// Rows to show.
        k: usize,
    },
}

/// One panel: a title, a metric (by name), and a presentation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PanelSpec {
    /// Panel title.
    pub title: String,
    /// Metric name as registered (e.g. `power.cabinet_w`).
    pub metric: String,
    /// Presentation.
    pub kind: PanelKind,
}

/// A shareable dashboard config.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Dashboard {
    /// Dashboard title.
    pub title: String,
    /// Panels in render order.
    pub panels: Vec<PanelSpec>,
}

impl Dashboard {
    /// The default operations dashboard.
    pub fn ops_default() -> Dashboard {
        Dashboard {
            title: "System overview".into(),
            panels: vec![
                PanelSpec {
                    title: "Total power".into(),
                    metric: "power.system_w".into(),
                    kind: PanelKind::AggregateLine { agg: AggFn::Sum },
                },
                PanelSpec {
                    title: "Cabinet power".into(),
                    metric: "power.cabinet_w".into(),
                    kind: PanelKind::CabinetHeatmap { columns: 8 },
                },
                PanelSpec {
                    title: "Queue depth".into(),
                    metric: "sched.queue_depth".into(),
                    kind: PanelKind::AggregateLine { agg: AggFn::Mean },
                },
                PanelSpec {
                    title: "Hottest links".into(),
                    metric: "hsn.link.utilization".into(),
                    kind: PanelKind::TopK { k: 5 },
                },
            ],
        }
    }

    /// Render every panel against a store for a time range.  Panels whose
    /// metric is unknown render an explanatory stub instead of failing —
    /// a dashboard copied from another site may reference sources this
    /// site does not collect.
    pub fn render(
        &self,
        store: &TimeSeriesStore,
        registry: &MetricRegistry,
        range: TimeRange,
    ) -> String {
        let q = QueryEngine::new(store);
        let mut out = format!("=== {} ===\n\n", self.title);
        for panel in &self.panels {
            let Some(metric) = registry.lookup(&panel.metric) else {
                out.push_str(&format!(
                    "{}\n  (metric {:?} not collected at this site)\n\n",
                    panel.title, panel.metric
                ));
                continue;
            };
            match &panel.kind {
                PanelKind::AggregateLine { agg } => {
                    let pts = q.aggregate_across_components(metric, range, *agg);
                    out.push_str(
                        &LineChart::new(&panel.title, 64, 8)
                            .with_unit(
                                registry
                                    .meta(metric)
                                    .map(|m| m.unit.suffix().to_owned())
                                    .unwrap_or_default()
                                    .as_str(),
                            )
                            .add_series(&panel.metric, pts)
                            .render(),
                    );
                }
                PanelKind::CabinetHeatmap { columns } => {
                    let comps = q.components_of_kind(metric, CompKind::Cabinet, range);
                    let mut latest: Vec<(u32, f64)> = comps
                        .iter()
                        .filter_map(|(c, pts)| pts.last().map(|&(_, v)| (c.index, v)))
                        .collect();
                    latest.sort_by_key(|&(i, _)| i);
                    let values: Vec<f64> = latest.iter().map(|&(_, v)| v).collect();
                    out.push_str(&CabinetHeatmap::new(&panel.title, *columns, values).render());
                }
                PanelKind::TopK { k } => {
                    let rows = q.top_components_at(metric, range.to, u64::MAX, *k);
                    out.push_str(&format!("{}\n", panel.title));
                    if rows.is_empty() {
                        out.push_str("  (no data)\n");
                    }
                    for (i, (comp, v)) in rows.iter().enumerate() {
                        out.push_str(&format!("  {:>2}. {:<12} {v:.4}\n", i + 1, comp.path()));
                    }
                }
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpcmon_metrics::{CompId, Sample, Ts, Unit};

    fn setup() -> (TimeSeriesStore, MetricRegistry) {
        let store = TimeSeriesStore::new();
        let registry = MetricRegistry::new();
        let sys = registry.register("power.system_w", Unit::Watts, "total");
        let cab = registry.register("power.cabinet_w", Unit::Watts, "per cabinet");
        let util = registry.register("hsn.link.utilization", Unit::Ratio, "util");
        for m in 0..10u64 {
            store.insert(&Sample::new(sys, CompId::SYSTEM, Ts::from_mins(m), 50_000.0 + m as f64));
            for c in 0..4u32 {
                store.insert(&Sample::new(
                    cab,
                    CompId::cabinet(c),
                    Ts::from_mins(m),
                    10_000.0 * (c + 1) as f64,
                ));
            }
            for l in 0..6u32 {
                store.insert(&Sample::new(
                    util,
                    CompId::link(l),
                    Ts::from_mins(m),
                    l as f64 / 10.0,
                ));
            }
        }
        (store, registry)
    }

    fn dash() -> Dashboard {
        Dashboard {
            title: "test".into(),
            panels: vec![
                PanelSpec {
                    title: "Total power".into(),
                    metric: "power.system_w".into(),
                    kind: PanelKind::AggregateLine { agg: AggFn::Sum },
                },
                PanelSpec {
                    title: "Cabinets".into(),
                    metric: "power.cabinet_w".into(),
                    kind: PanelKind::CabinetHeatmap { columns: 4 },
                },
                PanelSpec {
                    title: "Top links".into(),
                    metric: "hsn.link.utilization".into(),
                    kind: PanelKind::TopK { k: 3 },
                },
            ],
        }
    }

    #[test]
    fn render_all_panel_kinds() {
        let (store, registry) = setup();
        let text = dash().render(&store, &registry, TimeRange::all());
        assert!(text.contains("=== test ==="));
        assert!(text.contains("Total power"));
        assert!(text.contains("[W]"));
        assert!(text.contains("Cabinets"));
        assert!(text.contains("scale:"));
        assert!(text.contains("Top links"));
        assert!(text.contains("link/5"), "highest-utilization link listed");
        // Top-k respects k.
        assert!(!text.contains("link/1\n"), "k=3 keeps only links 5,4,3");
    }

    #[test]
    fn unknown_metric_renders_stub() {
        let (store, registry) = setup();
        let d = Dashboard {
            title: "foreign".into(),
            panels: vec![PanelSpec {
                title: "GPU temp".into(),
                metric: "gpu.temp_c".into(),
                kind: PanelKind::TopK { k: 3 },
            }],
        };
        let text = d.render(&store, &registry, TimeRange::all());
        assert!(text.contains("not collected at this site"));
    }

    #[test]
    fn ops_default_is_renderable() {
        let (store, registry) = setup();
        // Registry lacks sched.queue_depth: that panel stubs, others render.
        let text = Dashboard::ops_default().render(&store, &registry, TimeRange::all());
        assert!(text.contains("Total power"));
        assert!(text.contains("not collected"));
    }
}
