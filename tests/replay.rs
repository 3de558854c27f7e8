//! The flight recorder end to end (DESIGN.md §11): a recorded chaos run
//! replays bit-identically (with or without forced tracing, and from a
//! header that still names a worker count), seek-to-T equals
//! replay-from-0 at every T, a perturbed log
//! produces an attributed divergence report — and the event log, which is
//! one stream of WAL records, round-trips arbitrary runs bit-exactly and
//! refuses every truncation, every flipped bit and every impossible record
//! order rather than replay a run nobody recorded.

use hpcmon::system::durability::encode_tick_record;
use hpcmon::{DurableTickRecord, GatewayOp, MonitorOptions, SimConfig, TickInputs, TickStateHash};
use hpcmon_chaos::{ChaosFault, ChaosPlan};
use hpcmon_durability::wal::{
    encode_record, scan_segment, KIND_END, KIND_HEADER, KIND_TICK, WAL_MAGIC,
};
use hpcmon_gateway::{GatewayConfig, QueryRequest};
use hpcmon_metrics::{ColumnFrame, MetricId, Ts};
use hpcmon_replay::{EventLog, FlightRecorder, LogError, Replayer, RunSpec};
use hpcmon_response::Consumer;
use hpcmon_sim::{AppProfile, FaultKind, JobSpec};
use hpcmon_store::{AggFn, TimeRange};
use proptest::prelude::*;
use std::sync::OnceLock;

fn plan() -> ChaosPlan {
    let mut plan = ChaosPlan::new();
    plan.schedule(5, ChaosFault::CollectorPanic { collector: "node".into() });
    plan.schedule(12, ChaosFault::EnvelopeCorrupt { rate: 0.5, ticks: 10 });
    plan.schedule(20, ChaosFault::StoreWriteFail { shard: 1, ticks: 4 });
    plan.schedule(35, ChaosFault::BrokerTopicStall { topic: "metrics/frame".into(), ticks: 3 });
    plan
}

/// The builder's defaults on the small machine, minus self-telemetry
/// (strict replay requires it off).
fn quiet_options() -> MonitorOptions {
    MonitorOptions { self_telemetry: false, ..MonitorOptions::new(SimConfig::small()) }
}

fn spec() -> RunSpec {
    let options = MonitorOptions {
        chaos: Some((0xD1CE, plan())),
        gateway: Some(GatewayConfig { default_deadline_ms: 10_000, ..GatewayConfig::default() }),
        ..quiet_options()
    };
    RunSpec { options, snapshot_every: 16 }
}

/// One recorded 60-tick chaos run, shared across tests (recording is the
/// expensive part; every test replays it differently).
fn recorded() -> &'static EventLog {
    static LOG: OnceLock<EventLog> = OnceLock::new();
    LOG.get_or_init(|| {
        let mut rec = FlightRecorder::new(spec());
        rec.submit_job(JobSpec::new(
            AppProfile::compute_heavy("stencil"),
            "alice",
            8,
            600_000,
            Ts::ZERO,
        ));
        rec.schedule_fault(Ts(90_000), FaultKind::NodeCrash { node: 3 });
        // Gateway traffic so seek exercises the gateway checkpoint: a
        // standing subscription (registered before the first snapshot)
        // and periodic one-shot queries, which are no input: they move no
        // hashed state.
        let ops = Consumer::admin("ops");
        let agg = QueryRequest::AggregateAcross {
            metric: MetricId(0),
            range: TimeRange { from: Ts::ZERO, to: Ts(u64::MAX) },
            agg: AggFn::Mean,
        };
        rec.subscribe(&ops, agg.clone(), "ops/load")
            .expect("gateway is on")
            .expect("valid subscription");
        for t in 0..60u64 {
            if t % 13 == 5 {
                let gw = rec.system().gateway().expect("gateway is on");
                gw.query(&ops, agg.clone()).expect("valid query");
            }
            rec.tick();
        }
        rec.finish()
    })
}

#[test]
fn replay_is_bit_identical() {
    let outcome = Replayer::new(recorded()).run_to_end();
    assert!(outcome.is_clean(), "divergence: {:?}", outcome.divergence);
    assert_eq!(outcome.ticks_verified, 60);
}

/// A header recorded before PR 20 names the size of the worker pool the
/// run used.  The option is retired: the key is ignored and the log replays
/// bit-identically on the one runtime there is.
#[test]
fn replay_at_different_worker_count_is_bit_identical() {
    let bytes = reframed(recorded(), |kind, tick, payload, out| {
        if kind != KIND_HEADER {
            return encode_record(kind, tick, payload, out);
        }
        let json = std::str::from_utf8(payload).expect("the header is JSON");
        assert!(json.starts_with(r#"{"options":{"#), "header shape: {json}");
        let old = json.replacen(r#"{"options":{"#, r#"{"options":{"workers":4,"#, 1);
        encode_record(kind, tick, old.as_bytes(), out);
    });
    let log = EventLog::from_bytes(&bytes).expect("a header recorded at PR 19 still loads");
    let outcome = Replayer::new(&log).run_to_end();
    assert!(outcome.is_clean(), "divergence: {:?}", outcome.divergence);
    assert_eq!(outcome.ticks_verified, 60);
}

#[test]
fn forced_full_tracing_does_not_perturb_the_hash_chain() {
    let mut rep = Replayer::new(recorded());
    rep.force_full_tracing();
    let outcome = rep.run_to_end();
    assert!(outcome.is_clean(), "divergence: {:?}", outcome.divergence);
    assert_eq!(outcome.ticks_verified, 60);
}

#[test]
fn log_survives_the_wire_format() {
    let bytes = recorded().to_bytes();
    let back = EventLog::from_bytes(&bytes).expect("recorded log parses");
    assert_eq!(back.ticks, recorded().ticks);
    assert_eq!(back.snapshots.len(), 3, "checkpoints at 16, 32 and 48");
    assert_eq!(back.to_bytes(), bytes, "parse → serialize is the identity");
    let outcome = Replayer::new(&back).run_to_end();
    assert!(outcome.is_clean(), "divergence: {:?}", outcome.divergence);
}

/// The recorded hash of tick `tick` (1-based), for tampering with.
fn hash_at(log: &mut EventLog, tick: usize) -> &mut TickStateHash {
    log.ticks[tick - 1].hash.as_mut().expect("a parsed log carries every hash")
}

#[test]
fn perturbed_log_yields_attributed_divergence() {
    let mut tampered = EventLog::from_bytes(&recorded().to_bytes()).expect("parses");
    // Flip one bit of the recorded sim sub-hash at tick 42: replay must
    // stop exactly there and name the subsystem.
    hash_at(&mut tampered, 42).sim ^= 1;
    hash_at(&mut tampered, 42).combined ^= 1;
    let outcome = Replayer::new(&tampered).run_to_end();
    assert_eq!(outcome.ticks_verified, 41);
    let report = outcome.divergence.expect("tampered log must diverge");
    assert_eq!(report.first_divergent_tick, 42);
    assert_eq!(report.subsystem, "sim");
    assert_eq!(report.nearest_snapshot, Some(32), "16-tick cadence: nearest <= 41 is 32");
    let rendered = report.render();
    assert!(rendered.contains("first divergent tick : 42"));
    assert!(rendered.contains("sim"));
}

#[test]
fn changed_inputs_yield_divergence_not_panic() {
    let mut tampered = EventLog::from_bytes(&recorded().to_bytes()).expect("parses");
    // Drop the recorded job: replay executes different work, so the sim
    // digest must split and the report must say so.
    tampered.ticks[0].inputs.jobs.clear();
    let outcome = Replayer::new(&tampered).run_to_end();
    let report = outcome.divergence.expect("missing input must diverge");
    assert_eq!(report.subsystem, "sim");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Seeking to T and replaying the tail matches the from-0 hash chain
    /// for arbitrary T — snapshot restore is bit-exact.
    #[test]
    fn seek_matches_replay_from_zero(target in 1u64..60) {
        let log = recorded();
        let mut rep = Replayer::new(log);
        let outcome = rep.seek(target);
        prop_assert!(outcome.is_clean(), "seek diverged: {:?}", outcome.divergence);
        prop_assert_eq!(rep.position(), target);
        // Continue to the end: the tail after a seek must stay clean too.
        let mut verified = 0;
        while let Some(step) = rep.step() {
            prop_assert!(step.is_ok(), "post-seek divergence: {:?}", step.err());
            verified += 1;
        }
        prop_assert_eq!(verified, 60 - target);
    }
}

/// A forward seek carries on from where the replayer stands when that is
/// at or past the nearest checkpoint; only a backward seek, or one past a
/// later checkpoint, restores.
#[test]
fn seek_forward_steps_on_from_the_current_position() {
    // Without checkpoints a restore is a rebuild and a replay from tick 0.
    let mut rec = FlightRecorder::new(RunSpec { options: quiet_options(), snapshot_every: 0 });
    rec.run_ticks(20);
    let log = rec.finish();
    let mut rep = Replayer::new(&log);
    assert_eq!(rep.seek(10).ticks_verified, 10);
    let forward = rep.seek(20);
    assert!(forward.is_clean(), "seek diverged: {:?}", forward.divergence);
    assert_eq!((forward.ticks_verified, rep.position()), (10, 20), "ticks 11–20, not 1–20");
    assert_eq!(rep.seek(5).ticks_verified, 5, "backward: rebuilt and replayed from 0");

    // Checkpoints at 16, 32 and 48.
    let mut rep = Replayer::new(recorded());
    assert_eq!(rep.seek(20).ticks_verified, 4, "restored 16");
    assert_eq!(rep.seek(30).ticks_verified, 10, "16 ≤ 20 ≤ 30: stepped on from 20");
    assert_eq!(rep.seek(40).ticks_verified, 8, "a nearer checkpoint: restored 32");
    assert_eq!(rep.seek(32).ticks_verified, 0, "backward onto a checkpoint: restored 32");
    assert_eq!(rep.seek(20).ticks_verified, 4, "backward: restored 16");
    let tail = rep.seek(31);
    assert!(tail.is_clean(), "seek diverged: {:?}", tail.divergence);
    assert_eq!((tail.ticks_verified, rep.position()), (11, 31));
}

#[test]
fn seek_restores_forced_tracing_window() {
    // The incident workflow: seek near the end, force 1-in-1 tracing,
    // re-step the window — hashes must still match the recording.
    let mut rep = Replayer::new(recorded());
    rep.force_full_tracing();
    let outcome = rep.seek(48);
    assert!(outcome.is_clean(), "seek diverged: {:?}", outcome.divergence);
    for _ in 48..60 {
        let step = rep.step().expect("log has ticks left");
        assert!(step.is_ok(), "divergence under forced tracing: {:?}", step.err());
    }
    assert_eq!(rep.position(), 60);
}

// ---------------------------------------------------------------------------
// The event log as bytes: arbitrary logs round-trip, and nothing but the
// bytes a recorder wrote parses.
// ---------------------------------------------------------------------------

fn synthetic_tick(tick: u64, seed: u64) -> DurableTickRecord {
    let mut inputs = TickInputs::default();
    if seed.is_multiple_of(2) {
        inputs.jobs.push(JobSpec::new(
            AppProfile::compute_heavy("stencil"),
            "alice",
            (seed % 64) as u32 + 1,
            600_000,
            Ts(seed % 10_000),
        ));
    }
    if seed.is_multiple_of(3) {
        inputs
            .faults
            .push((Ts(seed % 100_000), FaultKind::NodeCrash { node: (seed % 128) as u32 }));
    }
    if seed.is_multiple_of(5) {
        inputs.gateway_ops.push(GatewayOp::Subscribe {
            consumer: Consumer::admin("ops"),
            request: QueryRequest::AggregateAcross {
                metric: MetricId((seed % 7) as u32),
                range: TimeRange { from: Ts::ZERO, to: Ts(seed % 1_000_000) },
                agg: AggFn::Mean,
            },
            topic: format!("ops/{}", seed % 11),
        });
    }
    let h = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let hash = TickStateHash {
        tick,
        sim: h,
        frame: h ^ 1,
        store: h ^ 2,
        pipeline: h ^ 3,
        analysis: h ^ 4,
        chaos: h ^ 5,
        gateway: h ^ 6,
        combined: h ^ 7,
    };
    DurableTickRecord { tick, inputs, hash: Some(hash) }
}

/// Deterministically expand a compact seed vector into arbitrary tick
/// records (the proptest shim generates the seeds; this keeps the
/// strategy surface simple while still exercising every payload arm).
fn log_from_seeds(seeds: &[u64]) -> EventLog {
    let ticks = seeds.iter().zip(1..).map(|(&seed, tick)| synthetic_tick(tick, seed)).collect();
    EventLog {
        spec: RunSpec { options: quiet_options(), snapshot_every: 0 },
        ticks,
        snapshots: Vec::new(),
    }
}

/// `log`'s records re-framed by hand, `edit` deciding what becomes of each
/// `(kind, tick, payload)` — how a well-checksummed log that no recorder
/// would write gets made.
fn reframed(log: &EventLog, edit: impl Fn(u8, u64, &[u8], &mut Vec<u8>)) -> Vec<u8> {
    let mut out = WAL_MAGIC.to_vec();
    scan_segment(&log.to_bytes(), |r| edit(r.kind, r.tick, r.payload, &mut out));
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Arbitrary payloads survive encode → decode bit-exactly.
    #[test]
    fn codec_round_trips(seeds in proptest::collection::vec(0u64..u64::MAX, 0..40)) {
        let log = log_from_seeds(&seeds);
        let bytes = log.to_bytes();
        let back = EventLog::from_bytes(&bytes).expect("valid log parses");
        prop_assert_eq!(back.ticks, log.ticks);
        prop_assert_eq!(back.len(), seeds.len() as u64);
    }

    /// Every proper prefix of a valid log is rejected — a log cut off
    /// mid-transfer must never parse as a shorter run.
    #[test]
    fn truncation_is_always_rejected(
        seeds in proptest::collection::vec(0u64..u64::MAX, 1..20),
        cut_frac in 0.0f64..1.0,
    ) {
        let bytes = log_from_seeds(&seeds).to_bytes();
        let cut = ((bytes.len() - 1) as f64 * cut_frac) as usize;
        match EventLog::from_bytes(&bytes[..cut]) {
            Err(LogError::Truncated) => {}
            Err(other) => prop_assert!(false, "expected Truncated, got {other:?}"),
            Ok(_) => prop_assert!(false, "truncated log at {cut}/{} parsed", bytes.len()),
        }
    }
}

fn refused(bytes: &[u8]) -> LogError {
    EventLog::from_bytes(bytes).err().expect("damaged log parsed")
}

/// What the old `[kind][len][JSON]` framing could not do: every single
/// flipped bit and every proper prefix of a log a recorder really wrote —
/// header, six ticks, end record, 3 KB — is refused.
#[test]
fn every_bit_flip_and_every_prefix_of_a_recorded_log_is_refused() {
    let mut rec = FlightRecorder::new(RunSpec { options: quiet_options(), snapshot_every: 0 });
    rec.submit_job(JobSpec::new(AppProfile::compute_heavy("stencil"), "alice", 8, 600_000, Ts(0)));
    rec.run_ticks(6);
    let bytes = rec.finish().to_bytes();
    assert_eq!(EventLog::from_bytes(&bytes).expect("the undamaged log parses").len(), 6);
    for cut in 0..bytes.len() {
        assert_eq!(refused(&bytes[..cut]), LogError::Truncated, "prefix of {cut} bytes");
    }
    let mut bad = bytes.clone();
    for bit in 0..bytes.len() * 8 {
        bad[bit / 8] ^= 1 << (bit % 8);
        assert!(EventLog::from_bytes(&bad).is_err(), "flip of bit {bit} parsed");
        bad[bit / 8] ^= 1 << (bit % 8);
    }
}

/// The same over the 1.2 MB chaos log, snapshots and all, where trying
/// every bit would be ten million parses of a megabyte: every cut on or
/// beside a record boundary (a log without its end record is `Truncated`,
/// never a shorter run), a bit in each field of every record's frame
/// header (kind, tick, length, CRC), and one bit in every 16 KiB of payload.
#[test]
fn damage_to_the_chaos_log_is_refused_at_every_record() {
    let bytes = recorded().to_bytes();
    let mut records = Vec::new();
    scan_segment(&bytes, |r| records.push(r));
    assert_eq!(records.len(), 1 + 60 + 3 + 1, "header, ticks, snapshots, end");
    let mut bad = bytes.clone();
    let mut flip = |bit: usize| {
        bad[bit / 8] ^= 1 << (bit % 8);
        assert!(EventLog::from_bytes(&bad).is_err(), "flip of bit {bit} parsed");
        bad[bit / 8] ^= 1 << (bit % 8);
    };
    let mut start = WAL_MAGIC.len();
    for r in &records {
        for cut in [start - 1, start, start + 1] {
            assert_eq!(refused(&bytes[..cut]), LogError::Truncated, "prefix of {cut} bytes");
        }
        [0, 1, 9, 13].map(|field| (start + field) * 8 + start % 8).into_iter().for_each(&mut flip);
        start += 17 + r.payload.len();
    }
    assert_eq!(start, bytes.len());
    (0..bytes.len() / 16_384).map(|i| i * 16_384 * 8 + i % 8).for_each(&mut flip);
}

#[test]
fn bad_magic_is_rejected() {
    let mut bytes = log_from_seeds(&[1, 2, 3]).to_bytes();
    bytes[0] ^= 0xFF;
    assert_eq!(refused(&bytes), LogError::BadMagic);
}

#[test]
fn unknown_frame_is_rejected() {
    // A well-checksummed record of a kind nobody writes, before the end.
    let bytes = reframed(&log_from_seeds(&[]), |kind, tick, payload, out| {
        if kind == KIND_END {
            encode_record(0x42, 0, b"", out);
        }
        encode_record(kind, tick, payload, out);
    });
    assert_eq!(refused(&bytes), LogError::UnknownFrame(0x42));
}

/// Records that each pass their CRC, in orders no recorder writes.
#[test]
fn impossible_record_orders_are_rejected() {
    let log = log_from_seeds(&[7, 11, 13]);
    let keep = |kind, tick, payload: &[u8], out: &mut Vec<u8>| {
        encode_record(kind, tick, payload, out);
    };
    assert!(EventLog::from_bytes(&reframed(&log, keep)).is_ok(), "re-framing alone is harmless");
    let malformed = |bytes: Vec<u8>, what: &str| match refused(&bytes) {
        LogError::Malformed(_) => {}
        other => panic!("{what}: expected Malformed, got {other:?}"),
    };
    let twice = |which: u8| {
        reframed(&log, |kind, tick, payload, out| {
            for _ in 0..if kind == which { 2 } else { 1 } {
                keep(kind, tick, payload, out);
            }
        })
    };
    let without = |which: u8, at: u64| {
        reframed(&log, |kind, tick, payload, out| {
            if (kind, tick) != (which, at) {
                keep(kind, tick, payload, out);
            }
        })
    };
    malformed(twice(KIND_HEADER), "duplicate header");
    malformed(without(KIND_HEADER, 0), "missing header");
    malformed(without(KIND_TICK, 2), "tick gap");
    malformed(without(KIND_TICK, 1), "log starting at tick 2");
    malformed(twice(KIND_END), "records after the end record");
    assert_eq!(refused(&without(KIND_END, 3)), LogError::Truncated, "cut on a record boundary");
    // A tick the plane journaled with hashing off has nothing to verify.
    let unhashed = reframed(&log, |kind, tick, payload, out| match (kind, tick) {
        (KIND_TICK, 2) => {
            let rec = DurableTickRecord { hash: None, ..synthetic_tick(2, 11) };
            keep(kind, tick, &encode_tick_record(&rec, &ColumnFrame::default()), out)
        }
        _ => keep(kind, tick, payload, out),
    });
    malformed(unhashed, "tick without a hash");
    let loud_end = reframed(&log, |kind, tick, payload, out| {
        keep(kind, tick, if kind == KIND_END { b"x" } else { payload }, out)
    });
    assert!(matches!(refused(&loud_end), LogError::Corrupt(_)), "payload on the end record");
}

#[test]
fn file_round_trip() {
    let log = log_from_seeds(&[7, 11, 13, 17]);
    let path = std::env::temp_dir().join("hpcmon_replay_codec_props.rlog");
    log.write_to(&path).expect("write");
    let back = EventLog::read_from(&path).expect("read");
    assert_eq!(back.ticks, log.ticks);
    let _ = std::fs::remove_file(&path);
}
