//! Determinism of the tick pipeline: the same scenario run twice must
//! produce identical `TickReport`s, identical signal streams, and — with
//! self-telemetry off, which removes wall-clock-valued series (latency
//! p95s) — a byte-identical store.
//!
//! Telemetry-on runs are still compared on reports, signals, and the
//! *set* of stored series: only the values of timing-derived series may
//! differ (DESIGN.md §9).
//!
//! Names that mention workers or parallelism predate the deletion of the
//! worker pool these runs used to be compared across: this file's name,
//! `store_contents_are_byte_identical_across_worker_counts` and
//! `parallel_run_is_reproducible_with_itself` here, and elsewhere
//! `chaos_runs_are_bit_identical_across_worker_counts` (chaos.rs),
//! `fsync_crash_recovers_zero_loss_at_workers_0_and_4` (durability.rs),
//! `bit_identity_across_worker_counts` (federation.rs),
//! `chaos_pipeline_matches_parent_build_at_any_worker_count`
//! (fingerprints.rs), `alert_timelines_are_bit_identical_across_worker_counts`
//! (health.rs), `replay_at_different_worker_count_is_bit_identical`
//! (replay.rs) and `hashes_identical_across_reruns_and_worker_counts`
//! (replay_hooks.rs).  They keep their names because the test floor tracks
//! tests by name; each now compares two runs of one seed on the one serial
//! tick.

use hpcmon::pipeline::DetectorAttachment;
use hpcmon::system::TickReport;
use hpcmon::{MonitoringSystem, SimConfig};
use hpcmon_analysis::ZScoreDetector;
use hpcmon_collect::StdMetrics;
use hpcmon_metrics::{CompId, MetricRegistry, SeriesKey, Severity, Ts};
use hpcmon_response::{Signal, SignalKind};
use hpcmon_sim::{AppProfile, FaultKind, JobSpec};

fn build(self_telemetry: bool) -> MonitoringSystem {
    let mut mon = MonitoringSystem::builder(SimConfig::small())
        .self_telemetry(self_telemetry)
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
        40 * 60_000,
        Ts::ZERO,
    ));
    mon.submit_job(JobSpec::new(
        AppProfile::compute_heavy("stencil"),
        "alice",
        16,
        20 * 60_000,
        Ts::from_mins(3),
    ));
    mon.schedule_fault(Ts::from_mins(5), FaultKind::NodeHang { node: 3 });
    mon.schedule_fault(Ts::from_mins(16), FaultKind::OstDegrade { ost: 3, factor: 12.0 });
    mon
}

/// Every stored point of every series, in deterministic series order.
fn dump_store(mon: &MonitoringSystem) -> Vec<(SeriesKey, Vec<(Ts, f64)>)> {
    mon.store()
        .all_series()
        .into_iter()
        .map(|k| (k, mon.store().query(k, Ts::ZERO, Ts(u64::MAX))))
        .collect()
}

type Run = (Vec<TickReport>, Vec<Signal>, MonitoringSystem);

fn run(self_telemetry: bool) -> Run {
    let mut mon = build(self_telemetry);
    let reports: Vec<TickReport> = (0..25).map(|_| mon.tick()).collect();
    let signals = mon.signals().to_vec();
    (reports, signals, mon)
}

/// Reports, signals, occupancy and the ENTIRE store — every series, every
/// point, every value — match bit-for-bit.
fn assert_bit_identical(
    (base_reports, base_signals, base_mon): &Run,
    (reports, signals, mon): &Run,
) {
    assert_eq!(base_reports, reports, "TickReports differ");
    assert_eq!(base_signals, signals, "signal streams differ");
    assert_eq!(base_mon.store().stats(), mon.store().stats());
    let (base_dump, dump) = (dump_store(base_mon), dump_store(mon));
    assert_eq!(base_dump.len(), dump.len());
    for ((bk, bp), (k, p)) in base_dump.iter().zip(&dump) {
        assert_eq!(bk, k, "series sets diverge");
        assert_eq!(bp.len(), p.len(), "{bk:?} point counts differ");
        for ((bt, bv), (t, v)) in bp.iter().zip(p) {
            assert_eq!(bt, t, "{bk:?} timestamps differ");
            assert_eq!(bv.to_bits(), v.to_bits(), "{bk:?} values differ");
        }
    }
}

#[test]
fn store_contents_are_byte_identical_across_worker_counts() {
    // Telemetry off: no wall-clock-valued series, so nothing is exempt.
    let base = run(false);
    assert!(base.0.iter().any(|r| !r.signals.is_empty()), "scenario produces signals");
    assert_bit_identical(&base, &run(false));
}

#[test]
fn reports_and_signals_match_with_self_telemetry_on() {
    // With the self feed running, timing-valued series (stage latency
    // p95s) are wall-clock dependent and differ between two runs.
    // Everything else must still match: per-tick reports, the signal
    // stream, and the set of series the store holds.
    let (base_reports, base_signals, base_mon) = run(true);
    let (reports, signals, mon) = run(true);
    assert_eq!(base_reports, reports, "TickReports differ");
    assert_eq!(base_signals, signals, "signal streams differ");
    assert_eq!(base_mon.store().all_series(), mon.store().all_series(), "series sets differ");
    let s = mon.store().stats();
    let b = base_mon.store().stats();
    assert_eq!((b.series, b.hot_points, b.warm_points), (s.series, s.hot_points, s.warm_points));
}

#[test]
fn parallel_run_is_reproducible_with_itself() {
    assert_bit_identical(&run(false), &run(false));
}
