//! Pipeline plumbing: attaching streaming detectors to stored series and
//! turning analysis outputs into response signals.

use hpcmon_analysis::{Detector, Finding};
use hpcmon_metrics::{SeriesKey, Severity};
use hpcmon_response::{Signal, SignalKind};

/// A streaming detector attached to one series, with the signal shape it
/// emits when it fires.  This is the Table I "analysis ... as streaming
/// analysis" attachment point.
pub struct DetectorAttachment {
    /// The watched series.
    pub key: SeriesKey,
    /// The detector instance.
    pub detector: Box<dyn Detector>,
    /// Signal kind emitted on a hit.
    pub kind: SignalKind,
    /// Signal severity emitted on a hit.
    pub severity: Severity,
    /// Human label for the emitted signal detail.
    pub label: String,
}

impl DetectorAttachment {
    /// Attach `detector` to `key`.
    pub fn new(
        key: SeriesKey,
        detector: Box<dyn Detector>,
        kind: SignalKind,
        severity: Severity,
        label: &str,
    ) -> DetectorAttachment {
        DetectorAttachment { key, detector, kind, severity, label: label.to_owned() }
    }
}

/// Convert a correlator finding into a response signal.  Rule names map to
/// severities so paging rules can be expressed over signal severity.
pub(crate) fn finding_to_signal(finding: &Finding) -> Signal {
    let severity = match finding.rule.as_str() {
        "node-heartbeat-lost" => Severity::Critical,
        "link-failure-kills-jobs" => Severity::Error,
        _ => Severity::Warning,
    };
    let comp = finding.comps.first().copied().unwrap_or(hpcmon_metrics::CompId::SYSTEM);
    Signal::new(
        finding.ts,
        SignalKind::LogCorrelation,
        severity,
        comp,
        finding.comps.len() as f64,
        format!("{}: {}", finding.rule, finding.detail),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpcmon_analysis::ThresholdDetector;
    use hpcmon_metrics::{CompId, MetricId, Ts};

    #[test]
    fn attachment_carries_configuration() {
        let key = SeriesKey::new(MetricId(3), CompId::SYSTEM);
        let att = DetectorAttachment::new(
            key,
            Box::new(ThresholdDetector::above(10.0)),
            SignalKind::EnvironmentViolation,
            Severity::Warning,
            "SO2 over ASHRAE limit",
        );
        assert_eq!(att.key, key);
        assert_eq!(att.severity, Severity::Warning);
        assert_eq!(att.label, "SO2 over ASHRAE limit");
    }

    #[test]
    fn finding_severity_mapping() {
        let mk = |rule: &str| Finding {
            rule: rule.to_owned(),
            ts: Ts(1),
            comps: vec![CompId::node(3)],
            detail: "d".into(),
        };
        assert_eq!(finding_to_signal(&mk("node-heartbeat-lost")).severity, Severity::Critical);
        assert_eq!(finding_to_signal(&mk("link-failure-kills-jobs")).severity, Severity::Error);
        assert_eq!(finding_to_signal(&mk("crc-retry-storm")).severity, Severity::Warning);
        let s = finding_to_signal(&mk("x"));
        assert_eq!(s.comp, CompId::node(3));
        assert_eq!(s.kind, SignalKind::LogCorrelation);
        assert!(s.detail.starts_with("x: "));
    }

    #[test]
    fn finding_without_comps_targets_system() {
        let f = Finding { rule: "r".into(), ts: Ts(0), comps: vec![], detail: String::new() };
        assert_eq!(finding_to_signal(&f).comp, CompId::SYSTEM);
    }
}
