//! The log harvester: vendor formats in, normalized records out.
//!
//! ALCF's experience (paper §IV-A): "Cray separates log events into at
//! least 20 different per-day log files ... time and date formatting vary
//! between files, some log events are multi-line, and some files are
//! binary."  The harvester reproduces that mess deterministically — each
//! log source renders into a different vendor format — and then parses
//! everything back into [`LogRecord`]s.  Every format the machine renders
//! parses back; a foreign line no parser understands is skipped.

use hpcmon_metrics::{LogRecord, Severity, Ts};
use hpcmon_sim::SimEngine;
use hpcmon_transport::syslog;
use hpcmon_transport::{topics, Broker, Payload};
use std::sync::Arc;

/// The on-disk formats the machine emits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VendorFormat {
    /// The canonical hpcmon line format.
    Canonical,
    /// Bracketed console-log style: `[<ts>] <comp> <SEV> <source>| <msg>`.
    CrayConsole,
    /// One JSON object per line (the ERD-after-Deluge view).
    JsonEvent,
}

impl VendorFormat {
    /// Which format a given source subsystem writes (deterministic, so the
    /// mess is reproducible).
    pub(crate) fn for_source(source: &str) -> VendorFormat {
        match source {
            "console" => VendorFormat::CrayConsole,
            "hwerr" => VendorFormat::JsonEvent,
            _ => VendorFormat::Canonical,
        }
    }

    /// Render a record in this format.
    pub(crate) fn render(&self, rec: &LogRecord) -> String {
        match self {
            VendorFormat::Canonical => syslog::render_line(rec),
            VendorFormat::CrayConsole => {
                let tpl = rec.template.map(|t| format!(" #t{t}")).unwrap_or_default();
                format!(
                    "[{}] {} {} {}| {}{}",
                    rec.ts.0,
                    rec.comp.path(),
                    rec.severity.label(),
                    rec.source,
                    rec.message,
                    tpl
                )
            }
            VendorFormat::JsonEvent => {
                // Hand-rolled JSON so this crate needs no serde_json dep;
                // messages are escaped minimally (quotes and backslashes).
                let esc = |s: &str| s.replace('\\', "\\\\").replace('"', "\\\"");
                format!(
                    "{{\"ts\":{},\"comp\":\"{}\",\"sev\":\"{}\",\"src\":\"{}\",\"msg\":\"{}\",\"tpl\":{}}}",
                    rec.ts.0,
                    rec.comp.path(),
                    rec.severity.label(),
                    esc(&rec.source),
                    esc(&rec.message),
                    rec.template.map(|t| t.to_string()).unwrap_or_else(|| "null".into()),
                )
            }
        }
    }
}

/// Try to parse a line in any known vendor format.
pub(crate) fn parse_any(line: &str) -> Option<LogRecord> {
    let trimmed = line.trim();
    if trimmed.is_empty() {
        return None;
    }
    if trimmed.starts_with('{') {
        return parse_json_event(trimmed);
    }
    if trimmed.starts_with('[') {
        return parse_cray_console(trimmed);
    }
    syslog::parse_line(trimmed)
}

fn parse_cray_console(line: &str) -> Option<LogRecord> {
    let rest = line.strip_prefix('[')?;
    let (ts_s, rest) = rest.split_once("] ")?;
    let ts: u64 = ts_s.parse().ok()?;
    let mut parts = rest.splitn(4, ' ');
    let comp_s = parts.next()?;
    let sev = Severity::parse(parts.next()?)?;
    let src_pipe = parts.next()?;
    let source = src_pipe.strip_suffix('|')?;
    let msg = parts.next()?;
    let (msg, template) = split_template(msg);
    let comp = parse_comp_path(comp_s)?;
    let mut rec = LogRecord::new(Ts(ts), comp, sev, source, msg);
    rec.template = template;
    Some(rec)
}

fn parse_json_event(line: &str) -> Option<LogRecord> {
    // A small field extractor sufficient for our own renderer's output.
    let get_str = |key: &str| -> Option<String> {
        let pat = format!("\"{key}\":\"");
        let start = line.find(&pat)? + pat.len();
        let mut out = String::new();
        let mut chars = line[start..].chars();
        while let Some(c) = chars.next() {
            match c {
                '\\' => out.push(chars.next()?),
                '"' => return Some(out),
                c => out.push(c),
            }
        }
        None
    };
    let get_num = |key: &str| -> Option<u64> {
        let pat = format!("\"{key}\":");
        let start = line.find(&pat)? + pat.len();
        let digits: String = line[start..].chars().take_while(|c| c.is_ascii_digit()).collect();
        digits.parse().ok()
    };
    let ts = Ts(get_num("ts")?);
    let comp = parse_comp_path(&get_str("comp")?)?;
    let sev = Severity::parse(&get_str("sev")?)?;
    let source = get_str("src")?;
    let msg = get_str("msg")?;
    let template = get_num("tpl").map(|t| t as u32);
    let mut rec = LogRecord::new(ts, comp, sev, source, msg);
    rec.template = template;
    Some(rec)
}

fn split_template(msg: &str) -> (&str, Option<u32>) {
    match msg.rfind(" #t") {
        Some(pos) => match msg[pos + 3..].parse::<u32>() {
            Ok(t) => (&msg[..pos], Some(t)),
            Err(_) => (msg, None),
        },
        None => (msg, None),
    }
}

fn parse_comp_path(s: &str) -> Option<hpcmon_metrics::CompId> {
    let (kind_s, idx_s) = s.split_once('/')?;
    let index: u32 = idx_s.parse().ok()?;
    let kind = hpcmon_metrics::CompKind::ALL.iter().copied().find(|k| k.label() == kind_s)?;
    Some(hpcmon_metrics::CompId { kind, index })
}

/// Drains the machine's log stream, round-trips it through the vendor
/// formats, normalizes it, and publishes onto the broker.
pub struct LogHarvester {
    broker: Option<Arc<Broker>>,
}

impl LogHarvester {
    /// A harvester that publishes normalized records to `broker` under
    /// `logs/<source>` topics.  Pass `None` to only normalize.
    pub fn new(broker: Option<Arc<Broker>>) -> LogHarvester {
        LogHarvester { broker }
    }

    /// Drain, render through vendor formats, parse back, publish.
    pub fn harvest(&mut self, engine: &mut SimEngine) -> Vec<LogRecord> {
        let raw = engine.drain_logs();
        let mut out = Vec::with_capacity(raw.len());
        for rec in raw {
            let fmt = VendorFormat::for_source(&rec.source);
            let line = fmt.render(&rec);
            if let Some(parsed) = parse_any(&line) {
                if let Some(broker) = &self.broker {
                    broker.publish(
                        &topics::logs(&parsed.source),
                        Payload::Log(Arc::new(parsed.clone())),
                    );
                }
                out.push(parsed);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpcmon_metrics::CompId;
    use hpcmon_sim::{FaultKind, SimConfig, SimEngine};
    use hpcmon_transport::{BackpressurePolicy, TopicFilter};

    fn rec(source: &str, msg: &str) -> LogRecord {
        LogRecord::new(Ts(1_234), CompId::node(7), Severity::Error, source, msg).with_template(3)
    }

    #[test]
    fn all_formats_round_trip() {
        for fmt in [VendorFormat::Canonical, VendorFormat::CrayConsole, VendorFormat::JsonEvent] {
            let r = rec("hsn", "link down: lane 3");
            let line = fmt.render(&r);
            let back = parse_any(&line).unwrap_or_else(|| panic!("parse {fmt:?}: {line}"));
            assert_eq!(back, r, "format {fmt:?}");
        }
    }

    #[test]
    fn json_escaping_survives() {
        let r = LogRecord::new(
            Ts(1),
            CompId::SYSTEM,
            Severity::Info,
            "console",
            "path \"C:\\scratch\" mounted",
        );
        let line = VendorFormat::JsonEvent.render(&r);
        let back = parse_any(&line).unwrap();
        assert_eq!(back.message, "path \"C:\\scratch\" mounted");
    }

    #[test]
    fn format_selection_is_per_source() {
        assert_eq!(VendorFormat::for_source("console"), VendorFormat::CrayConsole);
        assert_eq!(VendorFormat::for_source("hwerr"), VendorFormat::JsonEvent);
        assert_eq!(VendorFormat::for_source("sched"), VendorFormat::Canonical);
    }

    #[test]
    fn garbage_is_rejected() {
        assert!(parse_any("").is_none());
        assert!(parse_any("complete nonsense").is_none());
        assert!(parse_any("[notanumber] node/0 INFO x| y").is_none());
        assert!(parse_any("{\"broken\":").is_none());
    }

    #[test]
    fn harvester_normalizes_machine_logs() {
        let machine = || {
            let mut engine = SimEngine::new(SimConfig::small());
            engine.schedule_fault(Ts::from_mins(1), FaultKind::NodeCrash { node: 3 });
            engine.schedule_fault(Ts::from_mins(1), FaultKind::LinkDown { link: 0 });
            engine.step();
            engine.step();
            engine
        };
        let mut engine = machine();
        let mut harvester = LogHarvester::new(None);
        let records = harvester.harvest(&mut engine);
        assert!(!records.is_empty());
        assert_eq!(records.len(), machine().drain_logs().len(), "all machine formats parse");
        // Crash and link events survive normalization with templates.
        assert!(records
            .iter()
            .any(|r| r.comp == CompId::node(3) && r.severity == Severity::Critical));
        assert!(records.iter().any(|r| r.comp == CompId::link(0)));
        // Drained: a second harvest is empty.
        assert!(harvester.harvest(&mut engine).is_empty());
    }

    #[test]
    fn harvester_publishes_to_broker() {
        let broker = Broker::new();
        let sub = broker.subscribe(TopicFilter::new("logs/#"), 1_024, BackpressurePolicy::Block);
        let mut engine = SimEngine::new(SimConfig::small());
        engine.schedule_fault(Ts::from_mins(1), FaultKind::NodeCrash { node: 3 });
        engine.step();
        let mut harvester = LogHarvester::new(Some(broker.clone()));
        let records = harvester.harvest(&mut engine);
        let published = sub.drain();
        assert_eq!(published.len(), records.len());
        assert!(published.iter().all(|e| e.topic.starts_with("logs/")));
        assert!(published.iter().all(|e| e.payload.as_log().is_some()));
    }
}
