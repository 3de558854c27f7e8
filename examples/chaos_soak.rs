//! Chaos soak: 500 ticks under a dense, seeded fault schedule, asserting
//! the survival invariants of DESIGN.md §10 as it goes.
//!
//! Every ~30 ticks a block of monitoring-plane faults fires — collector
//! panics, hangs, and slowdowns, broker topic stalls, envelope bit-flips,
//! store shard write failures — and the soak
//! checks that the plane degrades *legibly* and heals:
//!
//! 1. No panic, no deadlock: the run completes (injected collector
//!    panics are caught by the supervisor, never escape the tick).
//! 2. Every collector fault surfaces as a `MonitoringGap` naming the
//!    collector within 2 ticks of injection — gaps are reported, never
//!    silent.
//! 3. After the last fault clears, quarantine empties, frame coverage
//!    returns to 100%, the ingest breaker closes, and the spill queue
//!    and stall buffer drain to zero.
//! 4. Frame conservation: every frame published toward the store is
//!    either stored, counted in `transport.decode_errors` (corrupted),
//!    or counted in `spill.dropped` — nothing vanishes unaccounted.
//! 5. Reproducibility: the whole soak, rerun with the same seed, yields
//!    a bit-identical store digest and injection counts.
//!
//! ```sh
//! cargo run --release --example chaos_soak            # seed 2018
//! cargo run --release --example chaos_soak -- 7       # seed 7
//! ```

use hpcmon::{MonitoringSystem, SimConfig};
use hpcmon_chaos::{BreakerState, ChaosFault, ChaosPlan, InjectedCounts};
use hpcmon_gateway::GatewayConfig;
use hpcmon_metrics::{CompId, SeriesKey, Ts, MINUTE_MS};
use hpcmon_response::SignalKind;
use hpcmon_sim::{AppProfile, JobSpec};

const TICKS: u64 = 500;

/// Injected collector panics unwind through the supervisor's catch; keep
/// the default hook from printing 500 ticks' worth of expected backtraces
/// while leaving real panics (and assertion failures) loud.
fn quiet_injected_panics() {
    let default = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let injected = info
            .payload()
            .downcast_ref::<&str>()
            .is_some_and(|m| m.contains("chaos: injected collector panic"));
        if !injected {
            default(info);
        }
    }));
}

/// The dense schedule: one block of every fault kind every 30 ticks,
/// rotating the targeted collector and store shard.  Returns the plan and
/// the (tick, collector) pairs whose gaps must surface.
fn dense_plan() -> (ChaosPlan, Vec<(u64, &'static str)>) {
    // "power" is deliberately not targeted: its one system-power point
    // per tick is the tracer the frame-conservation check counts, so its
    // segment must go missing only for transport/store reasons.
    let collectors = ["node", "hsn", "fs", "env", "sched", "gpu"];
    let mut plan = ChaosPlan::new();
    let mut expected_gaps = Vec::new();
    let mut block = 0u64;
    loop {
        let base = 10 + block * 30;
        if base + 20 > TICKS.saturating_sub(30) {
            break;
        }
        let c = collectors[(block as usize) % collectors.len()];
        let c2 = collectors[(block as usize + 3) % collectors.len()];
        plan.schedule(base, ChaosFault::CollectorPanic { collector: c.into() });
        expected_gaps.push((base, c));
        plan.schedule(base + 4, ChaosFault::CollectorHang { collector: c2.into(), ticks: 3 });
        expected_gaps.push((base + 4, c2));
        plan.schedule(
            base + 8,
            ChaosFault::CollectorSlow { collector: c.into(), factor: 16.0, ticks: 2 },
        );
        expected_gaps.push((base + 8, c));
        plan.schedule(
            base + 10,
            ChaosFault::BrokerTopicStall { topic: "metrics/frame".into(), ticks: 2 },
        );
        plan.schedule(base + 13, ChaosFault::EnvelopeCorrupt { rate: 0.4, ticks: 4 });
        plan.schedule(
            base + 16,
            ChaosFault::StoreWriteFail { shard: (block % 4) as usize, ticks: 3 },
        );
        block += 1;
    }
    (plan, expected_gaps)
}

struct SoakOutcome {
    digest: Vec<(String, Vec<(u64, u64)>)>,
    counts: InjectedCounts,
    decode_errors: u64,
    gaps_checked: usize,
}

fn run_soak(seed: u64) -> SoakOutcome {
    let (plan, expected_gaps) = dense_plan();
    let mut mon = MonitoringSystem::builder(SimConfig::small())
        .self_telemetry(false)
        .gateway(GatewayConfig { default_deadline_ms: 10_000, ..GatewayConfig::default() })
        .chaos(seed, plan)
        .build();
    mon.submit_job(JobSpec::new(
        AppProfile::checkpointing("climate"),
        "bob",
        32,
        400 * MINUTE_MS,
        Ts::ZERO,
    ));

    // Invariant 2: each collector fault must surface as a MonitoringGap
    // naming its collector within 2 ticks.  Faults can overlap, so track
    // open windows and retire them on a matching signal.
    let mut gap_windows: Vec<(u64, &str)> = Vec::new();
    let mut next_gap = 0usize;
    let mut gaps_checked = 0usize;
    for tick in 1..=TICKS {
        while next_gap < expected_gaps.len() && expected_gaps[next_gap].0 == tick {
            gap_windows.push(expected_gaps[next_gap]);
            next_gap += 1;
        }
        let report = mon.tick(); // invariant 1: returning at all is the proof
        gap_windows.retain(|&(at, name)| {
            let seen = report
                .signals
                .iter()
                .any(|s| s.kind == SignalKind::MonitoringGap && s.detail.contains(name));
            if seen {
                gaps_checked += 1;
            }
            !seen && {
                assert!(
                    tick < at + 2,
                    "collector fault at tick {at} on '{name}' not surfaced by tick {tick}"
                );
                true
            }
        });
    }
    assert!(gap_windows.is_empty(), "unsurfaced gaps at end of soak: {gap_windows:?}");

    // Invariant 3: the last fault block cleared ~30 ticks before the end,
    // so the plane must have healed completely.
    assert_eq!(mon.quarantined_collectors(), 0, "quarantine must empty after faults clear");
    let cov = mon.last_coverage().expect("every tick stamps coverage");
    assert!(cov.is_full(), "coverage must return to 100%, got {:.1}%", cov.pct());
    assert_eq!(mon.breaker_state(), BreakerState::Closed, "ingest breaker must close");
    assert_eq!(mon.spill_depth(), 0, "spill queue must drain");
    assert_eq!(mon.stalled_frames(), 0, "stall buffer must drain");

    // Invariant 4: frame conservation.  Each tick publishes exactly one
    // raw frame carrying one system-power point; a frame is missing from
    // the store only if its envelope failed decode (corrupted) or it was
    // evicted from the spill queue (counted in spill.dropped, which this
    // schedule's short outages never overflow into).
    let counts = mon.chaos_counts().unwrap();
    let decode_errors = mon.broker().stats().decode_errors;
    let stored = mon
        .store()
        .query(SeriesKey::new(mon.metrics().system_power, CompId::SYSTEM), Ts::ZERO, Ts(u64::MAX))
        .len() as u64;
    assert_eq!(mon.spill_dropped(), 0, "short outages must not overflow the spill queue");
    assert_eq!(
        stored,
        TICKS - decode_errors,
        "every published frame is stored or counted as a decode error"
    );

    let digest = mon
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
    SoakOutcome { digest, counts, decode_errors, gaps_checked }
}

fn main() {
    quiet_injected_panics();
    let seed: u64 = std::env::args().nth(1).map(|a| a.parse().expect("seed")).unwrap_or(2018);

    println!("=== chaos soak: {TICKS} ticks, seed {seed} ===");
    let first = run_soak(seed);
    let c = first.counts;
    println!(
        "  injected: {} total ({} panic, {} hang, {} slow, {} stall, {} corrupt, \
         {} store-fail)",
        c.total(),
        c.collector_panic,
        c.collector_hang,
        c.collector_slow,
        c.topic_stall,
        c.envelope_corrupt,
        c.store_write_fail,
    );
    println!("  gaps surfaced within 2 ticks: {}", first.gaps_checked);
    println!("  corrupt envelopes rejected at decode: {}", first.decode_errors);
    println!("  healed: quarantine empty, coverage 100%, breaker closed, spill drained");

    // Invariant 5: bit-identical rerun.
    let second = run_soak(seed);
    assert_eq!(first.counts, second.counts, "injection counts must reproduce by seed");
    assert_eq!(first.decode_errors, second.decode_errors);
    assert_eq!(first.digest, second.digest, "store digest must reproduce bit-for-bit");
    println!("  reproducible: rerun with seed {seed} is bit-identical");
    println!("OK");
}
