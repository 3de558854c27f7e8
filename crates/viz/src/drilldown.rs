//! Aggregate-to-drill-down views (Figure 4).
//!
//! "Here high values of system aggregate I/O metrics (top) drives further
//! investigation into the nodes, and hence, the job responsible for the
//! I/O" — while "limiting screen real-estate requirements."  A
//! [`DrilldownView`] is exactly that: the aggregate chart on top, the
//! top-k component table at the selected instant below, and the attributed
//! job at the bottom.

use crate::chart::LineChart;
use crate::csv::table_to_csv;
use hpcmon_metrics::{CompId, JobRecord, Ts};
use std::cmp::Ordering;

/// The assembled view.
pub struct DrilldownView {
    title: String,
    unit: String,
    aggregate: Vec<(Ts, f64)>,
    selected: Ts,
    top: Vec<(CompId, f64)>,
    attributed: Option<JobRecord>,
}

impl DrilldownView {
    /// Build from query results.
    pub fn new(
        title: &str,
        unit: &str,
        aggregate: Vec<(Ts, f64)>,
        selected: Ts,
        top: Vec<(CompId, f64)>,
        attributed: Option<JobRecord>,
    ) -> DrilldownView {
        DrilldownView {
            title: title.to_owned(),
            unit: unit.to_owned(),
            aggregate,
            selected,
            top,
            attributed,
        }
    }

    /// The timestamp of the aggregate's maximum (the natural drill-down
    /// point), NaN ranking below every number; `None` when the series is
    /// empty.
    pub fn peak_of(aggregate: &[(Ts, f64)]) -> Option<Ts> {
        let nan_first = |a: f64, b: f64| {
            b.is_nan().cmp(&a.is_nan()).then_with(|| a.partial_cmp(&b).unwrap_or(Ordering::Equal))
        };
        aggregate.iter().max_by(|a, b| nan_first(a.1, b.1)).map(|p| p.0)
    }

    /// Render to text.
    pub fn render(&self) -> String {
        let mut out = LineChart::new(&self.title, 64, 10)
            .with_unit(&self.unit)
            .add_series("aggregate", self.aggregate.clone())
            .add_marker(self.selected)
            .render();
        out.push_str(&format!("\nDrill-down at {}:\n", self.selected.display_hms()));
        if self.top.is_empty() {
            out.push_str("  (no component data)\n");
        }
        for (i, (comp, value)) in self.top.iter().enumerate() {
            out.push_str(&format!(
                "  {:>2}. {:<12} {:>14.3e} {}\n",
                i + 1,
                comp.path(),
                value,
                self.unit
            ));
        }
        match &self.attributed {
            Some(job) => out.push_str(&format!(
                "\nAttributed to job {} ({}, user {}, {} nodes)\n",
                job.id.0,
                job.name,
                job.user,
                job.nodes.len()
            )),
            None => out.push_str("\nNo job attribution.\n"),
        }
        out
    }

    /// The drill-down table as CSV (the data-download path).
    pub fn table_csv(&self) -> String {
        let rows: Vec<Vec<String>> =
            self.top.iter().map(|(c, v)| vec![c.path(), format!("{v}")]).collect();
        table_to_csv(&["component", "value"], &rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpcmon_metrics::{JobId, JobState};

    fn job() -> JobRecord {
        JobRecord {
            id: JobId(42),
            user: "carol".into(),
            name: "io_storm".into(),
            nodes: vec![4, 5, 6],
            submit: Ts::ZERO,
            start: Some(Ts::from_mins(2)),
            end: None,
            state: JobState::Running,
        }
    }

    fn view() -> DrilldownView {
        let aggregate: Vec<(Ts, f64)> =
            (0..30).map(|i| (Ts::from_mins(i), if i == 20 { 5e9 } else { 1e8 })).collect();
        let peak = DrilldownView::peak_of(&aggregate).unwrap();
        DrilldownView::new(
            "FS read B/s",
            "B/s",
            aggregate,
            peak,
            vec![(CompId::node(5), 2e9), (CompId::node(4), 1.8e9), (CompId::node(6), 1.2e9)],
            Some(job()),
        )
    }

    #[test]
    fn peak_detection() {
        let agg = vec![(Ts(0), 1.0), (Ts(10), 9.0), (Ts(20), 3.0)];
        assert_eq!(DrilldownView::peak_of(&agg), Some(Ts(10)));
        assert_eq!(DrilldownView::peak_of(&[]), None);
        // A NaN ranks below every number; equal values keep the last.
        let agg = vec![(Ts(0), f64::NAN), (Ts(10), -0.0), (Ts(20), 0.0), (Ts(30), f64::NAN)];
        assert_eq!(DrilldownView::peak_of(&agg), Some(Ts(20)));
        assert_eq!(DrilldownView::peak_of(&[(Ts(0), f64::NAN)]), Some(Ts(0)));
    }

    #[test]
    fn render_contains_all_three_layers() {
        let text = view().render();
        assert!(text.contains("FS read B/s"), "aggregate chart");
        assert!(text.contains("Drill-down at 000:20:00"));
        assert!(text.contains("node/5"), "top component listed first");
        assert!(text.contains("Attributed to job 42"));
        assert!(text.contains("carol"));
        // Ranked order preserved.
        let n5 = text.find("node/5").unwrap();
        let n6 = text.find("node/6").unwrap();
        assert!(n5 < n6);
    }

    #[test]
    fn render_without_attribution() {
        let v = DrilldownView::new("x", "B/s", vec![(Ts(0), 1.0)], Ts(0), vec![], None);
        let text = v.render();
        assert!(text.contains("No job attribution"));
        assert!(text.contains("(no component data)"));
    }

    #[test]
    fn table_csv_export() {
        let csv = view().table_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "component,value");
        assert!(lines[1].starts_with("node/5,"));
        assert_eq!(lines.len(), 4);
    }
}
