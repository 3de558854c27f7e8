//! Line-oriented log transport.
//!
//! "The only standard is use of some version of syslog for transport of
//! log messages" (paper §IV-B).  This module renders [`LogRecord`]s to the
//! canonical single-line format and parses them back, tolerating the kinds
//! of real-world damage the sites describe: unknown severities, missing
//! template ids, and junk lines (which parse to `None`, never to a wrong
//! record).

use hpcmon_metrics::{CompId, CompKind, LogRecord, Severity, Ts};

/// Render a record to one transport line.
/// Format: `<ts_ms> <SEV> <kind>/<index> <source>: <message>`, with an
/// optional ` #t<id>` template suffix.
pub fn render_line(rec: &LogRecord) -> String {
    match rec.template {
        Some(t) => format!("{} #t{}", rec.render(), t),
        None => rec.render(),
    }
}

/// Parse one line in the canonical format.
pub fn parse_line(line: &str) -> Option<LogRecord> {
    // Split off an optional template suffix.
    let (body, template) = match line.rfind(" #t") {
        Some(pos) => {
            let (b, t) = line.split_at(pos);
            match t[3..].parse::<u32>() {
                Ok(id) => (b, Some(id)),
                Err(_) => (line, None),
            }
        }
        None => (line, None),
    };
    let mut parts = body.splitn(4, ' ');
    let ts: u64 = parts.next()?.parse().ok()?;
    let severity = Severity::parse(parts.next()?)?;
    let comp = parse_comp(parts.next()?)?;
    let rest = parts.next()?;
    let (source, message) = rest.split_once(": ")?;
    let mut rec = LogRecord::new(Ts(ts), comp, severity, source, message);
    rec.template = template;
    Some(rec)
}

fn parse_comp(s: &str) -> Option<CompId> {
    let (kind_s, idx_s) = s.split_once('/')?;
    let index: u32 = idx_s.parse().ok()?;
    let kind = CompKind::ALL.iter().copied().find(|k| k.label() == kind_s)?;
    Some(CompId { kind, index })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec() -> LogRecord {
        LogRecord::new(Ts(12_345), CompId::node(7), Severity::Error, "hsn", "link down")
            .with_template(3)
    }

    #[test]
    fn round_trip_with_template() {
        let r = rec();
        let line = render_line(&r);
        assert_eq!(line, "12345 ERROR node/7 hsn: link down #t3");
        let back = parse_line(&line).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn round_trip_without_template() {
        let mut r = rec();
        r.template = None;
        let line = render_line(&r);
        let back = parse_line(&line).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn message_with_colons_survives() {
        let r =
            LogRecord::new(Ts(1), CompId::SYSTEM, Severity::Info, "console", "mount: /scratch: ok");
        let back = parse_line(&render_line(&r)).unwrap();
        assert_eq!(back.message, "mount: /scratch: ok");
    }

    #[test]
    fn all_comp_kinds_parse() {
        for kind in CompKind::ALL {
            let c = CompId { kind, index: 9 };
            let r = LogRecord::new(Ts(0), c, Severity::Debug, "s", "m");
            assert_eq!(parse_line(&render_line(&r)).unwrap().comp, c);
        }
    }

    #[test]
    fn bad_component_rejected() {
        assert!(parse_line("1 INFO widget/3 s: m").is_none());
        assert!(parse_line("1 INFO node/x s: m").is_none());
        assert!(parse_line("1 INFO node s: m").is_none());
    }

    #[test]
    fn message_ending_in_hash_t_like_text() {
        // A message that happens to end in " #tXYZ" where XYZ is not a
        // number must not lose its tail.
        let r = LogRecord::new(Ts(1), CompId::node(0), Severity::Info, "s", "weird #tail");
        let back = parse_line(&render_line(&r)).unwrap();
        assert_eq!(back.message, "weird #tail");
        assert_eq!(back.template, None);
    }
}
