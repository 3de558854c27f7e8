#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! `hpcmon-viz` — dashboards, charts, and data export.
//!
//! The paper's sites converge on the same visualization needs (§III-B):
//! Grafana-style live dashboards; "reduced dimensionality through
//! higher-level aggregations ... coupled with drill-down capabilities";
//! per-job multi-metric panels with sum/mean condensation (Figure 5); and
//! "the ability to download both plot images and the associated CSV
//! formatted data ... to enable controlled release of data to users."
//!
//! All renderers here produce plain text (terminal dashboards) or SVG
//! (plot images); [`csv`] handles the data-download path; [`dashboard`]
//! holds declarative, serializable dashboard configs — "ability to copy
//! and share dashboard configurations" is what made Grafana popular at the
//! sites.

pub mod chart;
pub mod csv;
pub mod dashboard;
pub mod drilldown;
pub mod health;
pub mod heatmap;
pub mod panels;
pub mod report;
pub mod status;
pub mod svg;
pub mod trace;

pub use chart::{sparkline, LineChart};
pub use csv::{series_to_csv, table_to_csv};
pub use dashboard::{Dashboard, PanelKind, PanelSpec};
pub use drilldown::DrilldownView;
pub use health::{health_board_json, render_health_board};
pub use heatmap::CabinetHeatmap;
pub use panels::JobPanel;
pub use report::{AlertSummary, OpsReport};
pub use status::{ClassStatus, StatusBoard};
pub use svg::svg_line_chart;
pub use trace::{render_span_tree, svg_trace_timeline};
