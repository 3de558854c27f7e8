//! The metric catalogue (names, units, direction, bounds) and the result a
//! workload process hands back.  `BENCHMARK.json` at the repository root
//! lists the same names; a test keeps the two in step.

/// An end-to-end metric: what a user of the system would see.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

/// A metric of one layer (layer = crate); no bound.
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

/// Every workload emits every one of these in the end-to-end pass.
pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd { name: "setup_s", unit: "s", better: "lower", bound: 0.25 },
    EndToEnd { name: "tick_ms_p10", unit: "ms", better: "lower", bound: 0.25 },
    EndToEnd { name: "stall_ms", unit: "ms", better: "lower", bound: 0.25 },
    EndToEnd { name: "samples_per_s", unit: "samples/s", better: "higher", bound: 0.25 },
    EndToEnd { name: "cycle_s", unit: "s", better: "lower", bound: 0.25 },
    EndToEnd { name: "peak_rss_mb", unit: "MB", better: "lower", bound: 0.05 },
    EndToEnd { name: "store_bytes_per_point", unit: "B", better: "lower", bound: 0.04 },
    EndToEnd { name: "detect_lag_ticks", unit: "ticks", better: "lower", bound: 0.001 },
];

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> PerLayer {
    PerLayer { name, unit, better }
}

/// Every workload emits every one of these in the traced pass; a layer the
/// workload does not exercise reads 0 (it did no work and spent no time).
pub const PER_LAYER: &[PerLayer] = &[
    layer("core.tick_ms_p50", "ms", "lower"),
    layer("sim.step_ms_p50", "ms", "lower"),
    layer("sim.build_ms", "ms", "lower"),
    layer("core.stage.collect_ms_p50", "ms", "lower"),
    layer("core.stage.transport_us_p50", "us", "lower"),
    layer("core.stage.store_ms_p50", "ms", "lower"),
    layer("analysis.stage_ms_p50", "ms", "lower"),
    layer("response.stage_us_p50", "us", "lower"),
    layer("core.unattributed_ms_p50", "ms", "lower"),
    layer("core.unattributed_pct", "%", "lower"),
    layer("collect.ms_p50", "ms", "lower"),
    layer("collect.ns_per_sample", "ns", "lower"),
    layer("collect.samples_per_tick", "count", "higher"),
    layer("metrics.allocs_per_tick", "count", "lower"),
    layer("metrics.arena_fresh_allocs", "count", "lower"),
    layer("transport.publish_drain_us_p50", "us", "lower"),
    layer("transport.dropped", "count", "lower"),
    layer("store.ingest_ms_p50", "ms", "lower"),
    layer("store.ingest_ns_per_sample", "ns", "lower"),
    layer("store.route_rebuilds", "count", "lower"),
    layer("store.seal_ms", "ms", "lower"),
    layer("store.blocks_sealed", "count", "lower"),
    layer("store.warm_bytes_per_point", "B", "lower"),
    layer("store.grow_ms", "ms", "lower"),
    layer("store.query.agg_1h_ms_p50", "ms", "lower"),
    layer("store.query.agg_8h_ms_p50", "ms", "lower"),
    layer("store.query.topk_ms_p50", "ms", "lower"),
    layer("store.query.cabinets_ms_p50", "ms", "lower"),
    layer("store.query.series_ms_p50", "ms", "lower"),
    layer("store.query.downsample_ms_p50", "ms", "lower"),
    layer("store.query.join_ms_p50", "ms", "lower"),
    layer("store.query.job_ms_p50", "ms", "lower"),
    layer("gateway.refresh_ms_p50", "ms", "lower"),
    layer("gateway.refresh_ms_p90", "ms", "lower"),
    layer("gateway.cold_ms_p50", "ms", "lower"),
    layer("gateway.hit_ms_p50", "ms", "lower"),
    layer("gateway.hop_us_p50", "us", "lower"),
    layer("gateway.cache_hit_ratio", "ratio", "higher"),
    layer("gateway.shed", "count", "lower"),
    layer("response.actions", "count", "lower"),
    layer("health.alerts", "count", "lower"),
    layer("durability.encode_ms_p50", "ms", "lower"),
    layer("durability.append_sync_ms_p50", "ms", "lower"),
    layer("durability.wal_bytes_per_tick", "B", "lower"),
    layer("durability.wal_bytes_per_sample", "B", "lower"),
    layer("durability.checkpoint_ms_p50", "ms", "lower"),
    layer("durability.checkpoint_bytes", "B", "lower"),
    layer("core.snapshot_encode_ms_p50", "ms", "lower"),
    layer("core.snapshot_bytes", "B", "lower"),
    layer("core.recover_s", "s", "lower"),
    layer("durability.scan_ms", "ms", "lower"),
    layer("core.restore_ms", "ms", "lower"),
    layer("core.replay_ms", "ms", "lower"),
    layer("core.replayed_ticks", "count", "lower"),
    layer("telemetry.self_samples_per_tick", "count", "lower"),
    layer("harness.trace_overhead_pct", "%", "lower"),
    layer("harness.calib_ms_p50", "ms", "lower"),
];

/// Name, unit and better direction of every catalogued metric.
fn catalogue() -> impl Iterator<Item = (&'static str, &'static str, &'static str)> {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit, m.better))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit, m.better)))
}

/// The catalogue's own copy of `name`, if it is a metric.
pub fn catalogued(name: &str) -> Option<&'static str> {
    catalogue().map(|(n, _, _)| n).find(|n| *n == name)
}

/// Unit and better direction of a catalogued metric.
fn spec_of(name: &str) -> (&'static str, &'static str) {
    catalogue()
        .find(|(n, _, _)| *n == name)
        .map(|(_, unit, better)| (unit, better))
        .unwrap_or_else(|| panic!("metric {name} is not in the catalogue"))
}

/// The better of two readings of the catalogued metric `name`.
pub fn better_of(name: &str, a: f64, b: f64) -> f64 {
    if spec_of(name).1 == "higher" {
        a.max(b)
    } else {
        a.min(b)
    }
}

/// Unit of a catalogued metric.
pub fn unit_of(name: &str) -> &'static str {
    spec_of(name).0
}

/// One measured value and how many samples it summarises.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub samples: u64,
}

/// What one pass of one workload produced.
#[derive(Debug, Default)]
pub struct Outcome {
    pub metrics: Vec<Metric>,
    /// Operations attempted: ticks, queries, recoveries.
    pub attempted: u64,
    /// Operations that failed: ticks slower than the production cadence,
    /// queries refused or empty, recoveries that lost or mismatched ticks.
    pub failed: u64,
    /// Output checks that did not hold; empty means the outputs are correct.
    pub violations: Vec<String>,
}

impl Outcome {
    /// Record `value` for the catalogued metric `name`.
    pub fn put(&mut self, name: &'static str, value: f64, samples: u64) {
        unit_of(name);
        assert!(value.is_finite(), "metric {name} is not a finite number: {value}");
        self.metrics.push(Metric { name, value, samples });
    }

    /// Record an output check; a failed one makes the run incorrect.
    pub fn check(&mut self, holds: bool, what: impl FnOnce() -> String) {
        if !holds {
            self.violations.push(what());
        }
    }

    /// The value recorded for `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|m| m.name == name).map(|m| m.value)
    }

    /// Fill every catalogued metric of the pass that the workload did not
    /// record with 0 over 0 samples, in catalogue order.  Only per-layer
    /// metrics may be missing: an end-to-end metric is never 0.
    pub fn complete(&mut self, traced: bool) {
        let names: Vec<&'static str> = if traced {
            PER_LAYER.iter().map(|m| m.name).collect()
        } else {
            END_TO_END.iter().map(|m| m.name).collect()
        };
        let mut ordered = Vec::with_capacity(names.len());
        for name in names {
            match self.metrics.iter().find(|m| m.name == name) {
                Some(m) => ordered.push(m.clone()),
                None => {
                    assert!(traced, "end-to-end metric {name} was not measured");
                    ordered.push(Metric { name, value: 0.0, samples: 0 });
                }
            }
        }
        self.metrics = ordered;
    }

    /// Human-readable table of the pass: value, unit, which way is better,
    /// and how many samples the value summarises.
    pub fn render(&self, out: &mut String) {
        for m in &self.metrics {
            let (unit, better) = spec_of(m.name);
            out.push_str(&format!(
                "  {:<36} {:>16.6} {unit:<10} {better:<6} n={}\n",
                m.name, m.value, m.samples
            ));
        }
        for v in &self.violations {
            out.push_str(&format!("  CHECK FAILED: {v}\n"));
        }
    }

    /// The one-line JSON object the contract asks for.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    m.value,
                    unit_of(m.name)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.violations.is_empty(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_within_the_contract_limits() {
        let mut names: Vec<&str> =
            END_TO_END.iter().map(|m| m.name).chain(PER_LAYER.iter().map(|m| m.name)).collect();
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a metric name is used twice");
        for n in &names {
            assert!(
                n.len() <= 64 && n.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
            );
        }
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        assert!(END_TO_END.iter().all(|m| m.bound <= 0.25), "the contract caps a bound at 25%");
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound), "setup_s has the largest bound");
    }

    /// `BENCHMARK.json` must list exactly the catalogue.  (It is absent only
    /// in the bare directory the acceptance driver uses to see the command
    /// fail; there nothing builds, so this test cannot run.)
    #[test]
    fn benchmark_json_matches_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc: serde::Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
        let list = |key: &str| -> Vec<(String, String, String, Option<f64>)> {
            let serde::Value::Seq(items) = doc.get(key).expect("key present") else {
                panic!("{key} is not a list")
            };
            let text = |v: Option<&serde::Value>| match v {
                Some(serde::Value::Str(s)) => s.clone(),
                other => panic!("expected a string, got {other:?}"),
            };
            items
                .iter()
                .map(|m| {
                    let bound = match m.get("bound") {
                        Some(serde::Value::Float(f)) => Some(*f),
                        Some(serde::Value::UInt(u)) => Some(*u as f64),
                        _ => None,
                    };
                    (text(m.get("name")), text(m.get("unit")), text(m.get("better")), bound)
                })
                .collect()
        };
        let e2e: Vec<_> = END_TO_END
            .iter()
            .map(|m| (m.name.to_owned(), m.unit.to_owned(), m.better.to_owned(), Some(m.bound)))
            .collect();
        assert_eq!(list("end_to_end"), e2e);
        let layers: Vec<_> = PER_LAYER
            .iter()
            .map(|m| (m.name.to_owned(), m.unit.to_owned(), m.better.to_owned(), None))
            .collect();
        assert_eq!(list("per_layer"), layers);
        let serde::Value::Seq(workloads) = doc.get("workloads").unwrap() else { panic!() };
        let names: Vec<String> = workloads
            .iter()
            .map(|w| match w.get("name") {
                Some(serde::Value::Str(s)) => s.clone(),
                _ => panic!("workload without a name"),
            })
            .collect();
        let ours: Vec<String> =
            crate::workloads::SHAPES.iter().map(|s| s.name.to_owned()).collect();
        assert_eq!(names, ours);
    }

    #[test]
    fn better_of_follows_the_metric_direction() {
        assert_eq!(better_of("tick_ms_p10", 7.0, 9.0), 7.0);
        assert_eq!(better_of("samples_per_s", 7.0, 9.0), 9.0);
    }

    #[test]
    fn json_line_has_the_contract_keys() {
        let mut o = Outcome { attempted: 10, failed: 0, ..Outcome::default() };
        o.put("setup_s", 1.25, 1);
        let line = o.to_json();
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 1.25, \"unit\": \"s\"}}}"
        );
        let parsed: serde::Value = serde_json::from_str(&line).unwrap();
        assert!(parsed.get("metrics").and_then(|m| m.get("setup_s")).is_some());
    }
}
