//! Flight-recorder core hooks: hash determinism across runs, and
//! snapshot/restore continuation equivalence.

use hpcmon::{MonitoringSystem, SimConfig, TickStateHash};
use hpcmon_chaos::{ChaosFault, ChaosPlan};
use hpcmon_metrics::Ts;
use hpcmon_sim::{AppProfile, FaultKind, JobSpec};

fn plan() -> ChaosPlan {
    let mut plan = ChaosPlan::new();
    plan.schedule(5, ChaosFault::CollectorPanic { collector: "node".into() });
    plan.schedule(12, ChaosFault::EnvelopeCorrupt { rate: 0.5, ticks: 10 });
    plan.schedule(20, ChaosFault::StoreWriteFail { shard: 1, ticks: 4 });
    plan
}

fn build() -> MonitoringSystem {
    let mut mon = MonitoringSystem::builder(SimConfig::small())
        .self_telemetry(false)
        .chaos(0xD1CE, plan())
        .build();
    mon.set_state_hashing(true);
    mon
}

fn drive(mon: &mut MonitoringSystem, ticks: u64) -> Vec<TickStateHash> {
    mon.submit_job(JobSpec::new(
        AppProfile::compute_heavy("stencil"),
        "alice",
        8,
        600_000,
        Ts::ZERO,
    ));
    (0..ticks)
        .map(|_| {
            mon.tick();
            mon.last_state_hash().expect("hashing enabled")
        })
        .collect()
}

#[test]
fn hashes_identical_across_reruns_and_worker_counts() {
    // (Named before PR 20 deleted the worker pool.)
    let a = drive(&mut build(), 40);
    let b = drive(&mut build(), 40);
    assert_eq!(a, b, "same config must rerun bit-identically");
}

#[test]
fn divergence_names_the_first_differing_subsystem() {
    let a = drive(&mut build(), 10);
    let mut mon = build();
    mon.schedule_fault(Ts(60_000), FaultKind::NodeCrash { node: 1 });
    let b = drive(&mut mon, 10);
    let first = a.iter().zip(&b).find(|(x, y)| x != y).expect("input change must diverge");
    assert_eq!(first.0.first_divergence(first.1), Some("sim"));
    assert_ne!(first.0.combined, first.1.combined);
}

#[test]
fn snapshot_seek_matches_uninterrupted_run() {
    // Uninterrupted reference run.
    let mut reference = build();
    let ref_hashes = drive(&mut reference, 40);

    // Recorded run: checkpoint at tick 25.
    let mut rec = build();
    rec.submit_job(JobSpec::new(
        AppProfile::compute_heavy("stencil"),
        "alice",
        8,
        600_000,
        Ts::ZERO,
    ));
    for _ in 0..25 {
        rec.tick();
    }
    let snap = rec.snapshot();
    assert_eq!(snap.tick(), 25);
    let encoded = serde_json::to_vec(&snap).expect("snapshot serializes");

    // Seek: fresh system, restore, replay 26..=40.
    let decoded = serde_json::from_slice(&encoded).expect("snapshot deserializes");
    let mut seek = build();
    seek.restore_snapshot(decoded);
    for (i, want) in ref_hashes.iter().enumerate().skip(25) {
        seek.tick();
        let got = seek.last_state_hash().unwrap();
        assert_eq!(
            got,
            *want,
            "tick {} after seek diverged at {:?}",
            i + 1,
            want.first_divergence(&got)
        );
    }
}

#[test]
fn hashing_off_reports_match_hashing_on() {
    // The hash hook must observe, never perturb: per-tick reports are
    // identical with the recorder on and off.
    let mut on = build();
    let mut off = MonitoringSystem::builder(SimConfig::small())
        .self_telemetry(false)
        .chaos(0xD1CE, plan())
        .build();
    on.submit_job(JobSpec::new(
        AppProfile::compute_heavy("stencil"),
        "alice",
        8,
        600_000,
        Ts::ZERO,
    ));
    off.submit_job(JobSpec::new(
        AppProfile::compute_heavy("stencil"),
        "alice",
        8,
        600_000,
        Ts::ZERO,
    ));
    for _ in 0..30 {
        assert_eq!(on.tick(), off.tick());
    }
    assert!(off.last_state_hash().is_none());
}
