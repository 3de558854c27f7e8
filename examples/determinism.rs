//! Determinism probe for the tick pipeline, built for diffing.
//!
//! Runs a fixed fault-injection scenario and prints a canonical JSON
//! document — per-tick `TickReport`s, the final signal stream, and a
//! digest of every stored series.  Self-telemetry is off so no
//! wall-clock-valued series enter the store; the output is therefore a
//! pure function of the scenario.
//!
//! CI runs this twice and byte-diffs the output:
//!
//! ```sh
//! cargo run --release --example determinism > a.json
//! cargo run --release --example determinism > b.json
//! diff a.json b.json
//! ```

use hpcmon::pipeline::DetectorAttachment;
use hpcmon::{MonitoringSystem, SimConfig};
use hpcmon_analysis::ZScoreDetector;
use hpcmon_collect::StdMetrics;
use hpcmon_metrics::{CompId, MetricRegistry, SeriesKey, Severity, Ts, MINUTE_MS};
use hpcmon_response::SignalKind;
use hpcmon_sim::{AppProfile, FaultKind, JobSpec};
use serde::Serialize;

/// The diff surface.
#[derive(Serialize)]
struct Doc {
    reports: Vec<hpcmon::system::TickReport>,
    signals: Vec<hpcmon_response::Signal>,
    store: Vec<(String, Vec<(u64, u64)>)>,
}

fn main() {
    let mut mon = MonitoringSystem::builder(SimConfig::small())
        .self_telemetry(false)
        .attach_detector(DetectorAttachment::new(
            SeriesKey::new(
                StdMetrics::register(&MetricRegistry::new()).probe_ost_latency,
                CompId::ost(3),
            ),
            Box::new(ZScoreDetector::new(32, 6.0).with_sigma_floor(0.05)),
            SignalKind::MetricAnomaly,
            Severity::Error,
            "OST latency anomaly",
        ))
        .build();
    mon.submit_job(JobSpec::new(
        AppProfile::checkpointing("climate"),
        "bob",
        32,
        40 * MINUTE_MS,
        Ts::ZERO,
    ));
    mon.submit_job(JobSpec::new(
        AppProfile::compute_heavy("stencil"),
        "alice",
        16,
        20 * MINUTE_MS,
        Ts::from_mins(3),
    ));
    mon.schedule_fault(Ts::from_mins(5), FaultKind::NodeHang { node: 3 });
    mon.schedule_fault(Ts::from_mins(16), FaultKind::OstDegrade { ost: 3, factor: 12.0 });

    let reports: Vec<_> = (0..25).map(|_| mon.tick()).collect();

    // Store digest: every series, every point, values as exact bit
    // patterns so the diff catches even sub-ULP drift.
    let store_dump: Vec<(String, Vec<(u64, u64)>)> = mon
        .store()
        .all_series()
        .into_iter()
        .map(|k| {
            let pts = mon
                .store()
                .query(k, Ts::ZERO, Ts(u64::MAX))
                .into_iter()
                .map(|(t, v)| (t.0, v.to_bits()))
                .collect();
            (format!("{k:?}"), pts)
        })
        .collect();

    let doc = Doc { reports, signals: mon.signals().to_vec(), store: store_dump };
    println!("{}", serde_json::to_string_pretty(&doc).unwrap());
}
