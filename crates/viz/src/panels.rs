//! Per-job multi-metric panels (Figure 5).
//!
//! "Timeseries visualizations of multiple metrics can provide insights
//! into underperforming applications.  Summing and averaging over nodes
//! enables condensation of high dimensional data enabling at-a-glance
//! understanding" — with plot + raw-data download.  A [`JobPanel`] stacks
//! one condensed sparkline row per metric and exports the full CSV.

use crate::chart::sparkline;
use crate::csv::series_to_csv;
use hpcmon_metrics::JobRecord;
use hpcmon_store::query::JobSeries;

/// How to condense per-node series for display.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Condense {
    /// Sum across nodes (totals: bytes, watts).
    Sum,
    /// Mean across nodes (intensities: utilization).
    Mean,
}

/// A stacked per-job view over several metrics.
pub struct JobPanel {
    job: JobRecord,
    rows: Vec<(String, Condense, JobSeries)>,
}

impl JobPanel {
    /// Start a panel for a job.
    pub fn new(job: JobRecord) -> JobPanel {
        JobPanel { job, rows: Vec::new() }
    }

    /// Add one metric row.
    pub fn add(mut self, label: &str, condense: Condense, series: JobSeries) -> JobPanel {
        self.rows.push((label.to_owned(), condense, series));
        self
    }

    /// Render the condensed panel.
    pub fn render(&self) -> String {
        let mut out = format!(
            "Job {} — {} (user {}, {} nodes)\n",
            self.job.id.0,
            self.job.name,
            self.job.user,
            self.job.nodes.len()
        );
        if let (Some(s), Some(e)) = (self.job.start, self.job.end) {
            out.push_str(&format!("  window {} .. {}\n", s.display_hms(), e.display_hms()));
        }
        let label_w = self.rows.iter().map(|(l, _, _)| l.len()).max().unwrap_or(0).max(8);
        for (label, condense, series) in &self.rows {
            let pts = match condense {
                Condense::Sum => &series.sum,
                Condense::Mean => &series.mean,
            };
            let values: Vec<f64> = pts.iter().map(|p| p.1).collect();
            let (min, max) = values
                .iter()
                .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| (lo.min(v), hi.max(v)));
            let tag = match condense {
                Condense::Sum => "sum",
                Condense::Mean => "mean",
            };
            if values.is_empty() {
                out.push_str(&format!("  {label:<label_w$} ({tag:<4})  (no data)\n"));
            } else {
                out.push_str(&format!(
                    "  {label:<label_w$} ({tag:<4}) {}  [{:.3e} .. {:.3e}]\n",
                    sparkline(&values),
                    min,
                    max
                ));
            }
        }
        out
    }

    /// The full data behind the panel as CSV: one condensed column per
    /// metric (the Figure 5 "download the raw data" link).
    pub fn csv(&self) -> String {
        let series: Vec<(String, Vec<(hpcmon_metrics::Ts, f64)>)> = self
            .rows
            .iter()
            .map(|(label, condense, s)| {
                let pts = match condense {
                    Condense::Sum => s.sum.clone(),
                    Condense::Mean => s.mean.clone(),
                };
                (label.clone(), pts)
            })
            .collect();
        series_to_csv(&series)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpcmon_metrics::{CompId, JobId, JobState, MetricId, Sample, Ts};
    use hpcmon_store::{QueryEngine, TimeSeriesStore};

    fn job() -> JobRecord {
        JobRecord {
            id: JobId(7),
            user: "alice".into(),
            name: "climate".into(),
            nodes: vec![0, 1],
            submit: Ts::ZERO,
            start: Some(Ts::from_mins(0)),
            end: Some(Ts::from_mins(9)),
            state: JobState::Completed,
        }
    }

    fn store() -> TimeSeriesStore {
        let store = TimeSeriesStore::new();
        for n in 0..2u32 {
            for m in 0..10u64 {
                store.insert(&Sample::new(
                    MetricId(0),
                    CompId::node(n),
                    Ts::from_mins(m),
                    m as f64,
                ));
                store.insert(&Sample::new(MetricId(1), CompId::node(n), Ts::from_mins(m), 0.5));
            }
        }
        store
    }

    fn panel() -> JobPanel {
        let store = store();
        let q = QueryEngine::new(&store);
        let j = job();
        let cpu = q.job_series(&j, MetricId(1));
        let io = q.job_series(&j, MetricId(0));
        JobPanel::new(j).add("fs read", Condense::Sum, io).add("cpu", Condense::Mean, cpu)
    }

    #[test]
    fn renders_header_and_rows() {
        let text = panel().render();
        assert!(text.contains("Job 7 — climate"));
        assert!(text.contains("alice"));
        assert!(text.contains("2 nodes"));
        assert!(text.contains("window 000:00:00 .. 000:09:00"));
        assert!(text.contains("fs read"));
        assert!(text.contains("(sum "));
        assert!(text.contains("cpu"));
        assert!(text.contains("(mean"));
        // Sparkline of an increasing sum ends at the top block.
        let io_line = text.lines().find(|l| l.contains("fs read")).unwrap();
        assert!(io_line.contains('█'));
    }

    #[test]
    fn condensation_is_correct() {
        let p = panel();
        // sum of two nodes at minute 3 = 6; mean cpu = 0.5 everywhere.
        let (_, _, io) = &p.rows[0];
        assert_eq!(io.sum[3], (Ts::from_mins(3), 6.0));
        let (_, _, cpu) = &p.rows[1];
        assert!(cpu.mean.iter().all(|&(_, v)| v == 0.5));
    }

    #[test]
    fn csv_matches_condensed_rows() {
        let csv = panel().csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "time_ms,fs read,cpu");
        // minute 3: 180000 ms, sum 6, mean 0.5.
        assert!(lines.contains(&"180000,6,0.5"));
        assert_eq!(lines.len(), 11, "header + 10 minutes");
    }

    #[test]
    fn empty_panel() {
        let p = JobPanel::new(job());
        assert!(p.rows.is_empty());
        let text = p.render();
        assert!(text.contains("Job 7"));
    }
}
