//! Serializable site configuration.
//!
//! Table I: "Reporting and alerting capabilities should be easily
//! configurable."  A [`MonitorConfig`] is the whole deployment — the
//! builder's own [`MonitorOptions`] (machine shape, collection cadence,
//! retention, gateway, health, tracing, …) plus the correlation and response
//! rules — as one JSON document a site can version-control and share, the
//! same way the paper's sites share Grafana dashboard configs.
//!
//! Streaming detector attachments are code (they hold `Box<dyn Detector>`
//! state machines), so they remain builder-level; everything declarative
//! lives here.

use crate::system::{MonitorBuilder, MonitorOptions, MonitoringSystem};
use hpcmon_analysis::{Correlator, Rule};
use hpcmon_response::{ResponseEngine, ResponseRule};
use hpcmon_sim::SimConfig;
use hpcmon_store::RetentionPolicy;
use serde::{Deserialize, Serialize};

/// A complete, shareable monitoring deployment description.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MonitorConfig {
    /// Everything the builder takes as plain data.
    pub options: MonitorOptions,
    /// Log correlation rules.
    pub correlator_rules: Vec<Rule>,
    /// Response rules.
    pub response_rules: Vec<ResponseRule>,
}

impl MonitorConfig {
    /// The default production-flavored deployment on a small machine.
    pub fn default_site() -> MonitorConfig {
        MonitorConfig {
            options: MonitorOptions {
                retention: Some((RetentionPolicy::week_performant(), 60)),
                ..MonitorOptions::new(SimConfig::small())
            },
            correlator_rules: Correlator::production_rules(),
            response_rules: ResponseEngine::production_rules(),
        }
    }

    /// Serialize for sharing/versioning.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("config is serializable")
    }

    /// Load a shared config.
    pub fn from_json(json: &str) -> Result<MonitorConfig, String> {
        serde_json::from_str(json).map_err(|e| e.to_string())
    }

    /// Turn into a builder (attach code-level detectors afterwards).
    pub fn into_builder(self) -> MonitorBuilder {
        MonitorBuilder::from_options(self.options)
            .correlator_rules(self.correlator_rules)
            .response_rules(self.response_rules)
    }

    /// Build the system directly.
    pub fn build(self) -> MonitoringSystem {
        self.into_builder().build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_round_trip() {
        let cfg = MonitorConfig::default_site();
        let json = cfg.to_json();
        let back = MonitorConfig::from_json(&json).unwrap();
        assert_eq!(cfg, back);
        assert!(MonitorConfig::from_json("{nope").is_err());
    }

    #[test]
    fn config_builds_a_working_system() {
        let mut mon = MonitorConfig::default_site().build();
        let r = mon.run_ticks(2);
        assert!(r.samples > 1_000);
    }

    #[test]
    fn edited_config_changes_behavior() {
        // A site that disables probes and the bench suite collects less.
        let mut quiet = MonitorConfig::default_site();
        quiet.options.probes = false;
        quiet.options.bench_every_ticks = None;
        let mut lean = quiet.build();
        let mut full = MonitorConfig::default_site().build();
        let lean_samples = lean.run_ticks(10).samples;
        let full_samples = full.run_ticks(10).samples;
        assert!(lean_samples < full_samples);
    }

    #[test]
    fn rules_survive_the_trip_as_config_not_code() {
        let cfg = MonitorConfig::default_site();
        let json = cfg.to_json();
        assert!(json.contains("node-heartbeat-lost"), "rules are data");
        assert!(json.contains("ops-pager"));
        assert!(json.contains("keep_performant_ms"));
    }
}
