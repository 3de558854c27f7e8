//! Operations report generation.
//!
//! Sites publish periodic summaries (NERSC "publishes performance over
//! time on its user-facing web pages").  An [`OpsReport`] assembles the
//! at-a-glance pieces — machine state, alert summary, loudest log
//! templates, benchmark trend lines — into one markdown document that can
//! be dropped into a wiki or mailed to a list.

use crate::chart::sparkline;
use crate::status::StatusBoard;
use hpcmon_metrics::Ts;
use std::collections::BTreeMap;

/// One alert-rule summary row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AlertSummary {
    /// Rule name.
    pub rule: String,
    /// Times it fired in the period.
    pub count: usize,
    /// Last firing.
    pub last: Ts,
}

/// Builder for the report.
#[derive(Debug, Default)]
pub struct OpsReport {
    title: String,
    period: Option<(Ts, Ts)>,
    status: Option<String>,
    alerts: Vec<AlertSummary>,
    benchmarks: Vec<(String, Vec<f64>)>,
    templates: Vec<(u64, String)>,
    telemetry: Option<String>,
}

impl OpsReport {
    /// Start a report.
    pub fn new(title: &str) -> OpsReport {
        OpsReport { title: title.to_owned(), ..Default::default() }
    }

    /// Set the reporting period.
    pub fn period(mut self, from: Ts, to: Ts) -> OpsReport {
        self.period = Some((from, to));
        self
    }

    /// Attach the machine status board.
    pub fn status_board(mut self, board: &StatusBoard) -> OpsReport {
        self.status = Some(board.render());
        self
    }

    /// Summarize fired alerts by rule name from `(rule, ts)` pairs.
    pub fn alerts<'a>(mut self, fired: impl IntoIterator<Item = (&'a str, Ts)>) -> OpsReport {
        let mut by_rule: BTreeMap<&str, (usize, Ts)> = BTreeMap::new();
        for (rule, ts) in fired {
            let entry = by_rule.entry(rule).or_insert((0, ts));
            entry.0 += 1;
            if ts > entry.1 {
                entry.1 = ts;
            }
        }
        self.alerts = by_rule
            .into_iter()
            .map(|(rule, (count, last))| AlertSummary { rule: rule.to_owned(), count, last })
            .collect();
        self.alerts.sort_by(|a, b| b.count.cmp(&a.count).then(a.rule.cmp(&b.rule)));
        self
    }

    /// Add a benchmark trend row (rendered as a sparkline).
    pub fn benchmark(mut self, name: &str, values: Vec<f64>) -> OpsReport {
        self.benchmarks.push((name.to_owned(), values));
        self
    }

    /// Add the loudest log templates as `(count, example)` rows.
    pub fn top_templates(mut self, rows: Vec<(u64, String)>) -> OpsReport {
        self.templates = rows;
        self
    }

    /// Attach the monitor's own telemetry (pre-rendered, e.g.
    /// `TelemetryReport::render_text()`) — the monitor is a subsystem too.
    pub fn telemetry(mut self, rendered: &str) -> OpsReport {
        self.telemetry = Some(rendered.to_owned());
        self
    }

    /// Render to markdown.
    pub fn render(&self) -> String {
        let mut out = format!("# {}\n\n", self.title);
        if let Some((from, to)) = self.period {
            out.push_str(&format!("Period: {} .. {}\n\n", from.display_hms(), to.display_hms()));
        }
        if let Some(status) = &self.status {
            out.push_str("## Machine state\n\n```\n");
            out.push_str(status);
            out.push_str("```\n\n");
        }
        if !self.alerts.is_empty() {
            out.push_str("## Alerts by rule\n\n| rule | fired | last |\n|---|---|---|\n");
            for a in &self.alerts {
                out.push_str(&format!("| {} | {} | {} |\n", a.rule, a.count, a.last.display_hms()));
            }
            out.push('\n');
        }
        if !self.benchmarks.is_empty() {
            out.push_str("## Benchmark trends\n\n");
            for (name, values) in &self.benchmarks {
                let (min, max) =
                    values.iter().fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| {
                        (lo.min(v), hi.max(v))
                    });
                if values.is_empty() {
                    out.push_str(&format!("- `{name}`: (no data)\n"));
                } else {
                    out.push_str(&format!(
                        "- `{name}`: {} [{:.2} .. {:.2}]\n",
                        sparkline(values),
                        min,
                        max
                    ));
                }
            }
            out.push('\n');
        }
        if !self.templates.is_empty() {
            out.push_str("## Loudest log templates\n\n");
            for (count, example) in &self.templates {
                out.push_str(&format!("- {count}× `{example}`\n"));
            }
            out.push('\n');
        }
        if let Some(telemetry) = &self.telemetry {
            out.push_str("## Monitor self-telemetry\n\n```\n");
            out.push_str(telemetry);
            if !telemetry.ends_with('\n') {
                out.push('\n');
            }
            out.push_str("```\n\n");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::status::ClassStatus;

    fn report() -> OpsReport {
        let board = StatusBoard::new("state")
            .add(ClassStatus::new("nodes", vec![("up", 100), ("down", 2)]));
        OpsReport::new("Weekly ops report")
            .period(Ts::ZERO, Ts::from_mins(7 * 24 * 60))
            .status_board(&board)
            .alerts(vec![
                ("page-on-critical", Ts::from_mins(10)),
                ("page-on-critical", Ts::from_mins(90)),
                ("sideline-unhealthy-node", Ts::from_mins(50)),
            ])
            .benchmark("io tts s", vec![45.0, 46.0, 44.5, 120.0, 118.0])
            .top_templates(vec![(740, "systemd: Started Session".into())])
            .telemetry("self-telemetry\n  stage.collect p95=1.2ms\n")
    }

    #[test]
    fn renders_all_sections() {
        let md = report().render();
        assert!(md.starts_with("# Weekly ops report\n"));
        assert!(md.contains("Period: 000:00:00 .. 168:00:00"));
        assert!(md.contains("## Machine state"));
        assert!(md.contains("nodes"));
        assert!(md.contains("## Alerts by rule"));
        assert!(md.contains("| page-on-critical | 2 | 001:30:00 |"));
        assert!(md.contains("## Benchmark trends"));
        assert!(md.contains("io tts s"));
        assert!(md.contains('▁'), "sparkline present");
        assert!(md.contains("## Loudest log templates"));
        assert!(md.contains("740×"));
        assert!(md.contains("## Monitor self-telemetry"));
        assert!(md.contains("stage.collect p95=1.2ms"));
    }

    #[test]
    fn alert_summary_sorted_by_count() {
        let md = report().render();
        let page = md.find("page-on-critical").unwrap();
        let sideline = md.find("sideline-unhealthy-node").unwrap();
        assert!(page < sideline, "most-fired rule first");
    }

    #[test]
    fn empty_report_is_just_a_title() {
        let md = OpsReport::new("empty").render();
        assert_eq!(md, "# empty\n\n");
    }

    #[test]
    fn empty_benchmark_row_is_handled() {
        let md = OpsReport::new("r").benchmark("ghost", vec![]).render();
        assert!(md.contains("(no data)"));
    }
}
