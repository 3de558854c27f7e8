//! Replaying a recording end to end (DESIGN.md §11).  A recording is a
//! durable run with state hashing on; its medium is the artifact.  A
//! recorded chaos run replays bit-identically (with or without forced
//! tracing, and after a copy onto another medium), seek-to-T equals
//! replay-from-0 at every T, a re-framed tick record produces an attributed
//! divergence report — and `Replayer::open` refuses every torn record,
//! every flipped bit and every impossible record order rather than replay
//! a run nobody recorded, while a cut between records opens as the shorter
//! run it is.

use hpcmon::durability::wal::{encode_record, scan_segment, KIND_TICK, WAL_MAGIC};
use hpcmon::durability::{DurabilityConfig, DurabilityPlane, SimDisk, StorageMedium};
use hpcmon::system::durability::{decode_tick_record, encode_tick_record};
use hpcmon::{
    DurableTickRecord, GatewayOp, MonitorBuilder, MonitorOptions, MonitoringSystem, ReplayError,
    Replayer, SimConfig, TickStateHash,
};
use hpcmon_chaos::{ChaosFault, ChaosPlan};
use hpcmon_gateway::{GatewayConfig, QueryRequest};
use hpcmon_metrics::{ColumnFrame, MetricId, Ts};
use hpcmon_response::Consumer;
use hpcmon_sim::{AppProfile, FaultKind, JobSpec, TopologySpec};
use hpcmon_store::{AggFn, TimeRange};
use proptest::prelude::*;
use std::sync::{Arc, OnceLock};

/// A medium's files by name, as `SimDisk::durable_files` lists them.
type Files = Vec<(String, Vec<u8>)>;

fn plan() -> ChaosPlan {
    let mut plan = ChaosPlan::new();
    plan.schedule(5, ChaosFault::CollectorPanic { collector: "node".into() });
    plan.schedule(12, ChaosFault::EnvelopeCorrupt { rate: 0.5, ticks: 10 });
    plan.schedule(20, ChaosFault::StoreWriteFail { shard: 1, ticks: 4 });
    plan.schedule(35, ChaosFault::BrokerTopicStall { topic: "metrics/frame".into(), ticks: 3 });
    plan
}

/// The builder's defaults on the small machine, minus self-telemetry
/// (replay requires it off).
fn quiet_options() -> MonitorOptions {
    MonitorOptions { self_telemetry: false, ..MonitorOptions::new(SimConfig::small()) }
}

fn options() -> MonitorOptions {
    MonitorOptions {
        chaos: Some((0xD1CE, plan())),
        gateway: Some(GatewayConfig { default_deadline_ms: 10_000, ..GatewayConfig::default() }),
        ..quiet_options()
    }
}

/// Record `ticks` ticks of the run `options` describe as a durable run with
/// state hashing on, `drive` called before each tick with the tick about
/// to run (0-based); hand back the medium's files.
fn record(
    options: MonitorOptions,
    checkpoint_every: u64,
    ticks: u64,
    mut drive: impl FnMut(&mut MonitoringSystem, u64),
) -> Files {
    let disk = Arc::new(SimDisk::new());
    let cfg = DurabilityConfig { checkpoint_every, ..DurabilityConfig::default() };
    let mut mon = MonitorBuilder::from_options(options).durability(disk.clone(), cfg).build();
    mon.set_state_hashing(true);
    for t in 0..ticks {
        drive(&mut mon, t);
        mon.tick();
    }
    disk.durable_files()
}

/// A fresh medium holding `files`, loaded the way a medium is copied:
/// append and sync through `StorageMedium`.
fn medium(files: &[(String, Vec<u8>)]) -> Arc<SimDisk> {
    let disk = Arc::new(SimDisk::new());
    for (name, bytes) in files {
        disk.append(name, bytes).unwrap();
        disk.sync(name).unwrap();
    }
    disk
}

fn open(options: MonitorOptions, files: &[(String, Vec<u8>)]) -> Result<Replayer, ReplayError> {
    Replayer::open(options, medium(files))
}

/// One recorded 60-tick chaos run, shared across tests (recording is the
/// expensive part; every test replays it differently).  A checkpoint every
/// 32 ticks leaves the whole chain on the medium plus the tick-32
/// checkpoint.
fn recorded() -> &'static Files {
    static FILES: OnceLock<Files> = OnceLock::new();
    FILES.get_or_init(|| {
        // Gateway traffic so seek exercises the gateway checkpoint: a
        // standing subscription (registered before the checkpoint) and
        // periodic one-shot queries, which are no input: they move no
        // hashed state.
        let ops = Consumer::admin("ops");
        let agg = QueryRequest::AggregateAcross {
            metric: MetricId(0),
            range: TimeRange { from: Ts::ZERO, to: Ts(u64::MAX) },
            agg: AggFn::Mean,
        };
        record(options(), 32, 60, |mon, t| {
            if t == 0 {
                mon.submit_job(JobSpec::new(
                    AppProfile::compute_heavy("stencil"),
                    "alice",
                    8,
                    600_000,
                    Ts::ZERO,
                ));
                mon.schedule_fault(Ts(90_000), FaultKind::NodeCrash { node: 3 });
                mon.subscribe(&ops, agg.clone(), "ops/load")
                    .expect("gateway is on")
                    .expect("valid subscription");
            }
            if t % 13 == 5 {
                mon.gateway().expect("gateway is on").query(&ops, agg.clone()).expect("valid");
            }
        })
    })
}

/// The quiet options on an eight-node machine: a tick record of a few
/// hundred samples, so a sweep that opens the medium once per byte stays
/// within seconds.
fn tiny_options() -> MonitorOptions {
    let topology = TopologySpec::Torus3D { dims: [2, 2, 2], nodes_per_router: 1 };
    MonitorOptions { sim: SimConfig { topology, ..SimConfig::small() }, ..quiet_options() }
}

/// Six ticks of the tiny machine with one job, no checkpoint: one segment,
/// the recording the exhaustive damage sweeps run over.
fn six_ticks() -> &'static Files {
    static FILES: OnceLock<Files> = OnceLock::new();
    FILES.get_or_init(|| {
        record(tiny_options(), 0, 6, |mon, t| {
            if t == 0 {
                let job = AppProfile::compute_heavy("stencil");
                mon.submit_job(JobSpec::new(job, "alice", 8, 600_000, Ts(0)));
            }
        })
    })
}

#[test]
fn replay_is_bit_identical() {
    let replayer = open(options(), recorded()).expect("the recording opens");
    assert_eq!(replayer.window(), (0, 60));
    let outcome = replayer.run_to_end();
    assert!(outcome.is_clean(), "divergence: {:?}", outcome.divergence);
    assert_eq!(outcome.ticks_verified, 60);
}

#[test]
fn forced_full_tracing_does_not_perturb_the_hash_chain() {
    let mut rep = open(options(), recorded()).expect("the recording opens");
    rep.force_full_tracing();
    let outcome = rep.run_to_end();
    assert!(outcome.is_clean(), "divergence: {:?}", outcome.divergence);
    assert_eq!(outcome.ticks_verified, 60);
}

/// The artifact is the medium's files: the whole chain in two segments
/// plus the tick-32 checkpoint, and they replay the same after a copy
/// onto another medium, file by file.
#[test]
fn log_survives_the_wire_format() {
    let names: Vec<&str> = recorded().iter().map(|(n, _)| n.as_str()).collect();
    assert_eq!(names, ["ckpt-0000000032.ck", "wal-0000000000.seg", "wal-0000000033.seg"]);
    let copy = medium(recorded());
    let again = medium(&copy.durable_files());
    assert_eq!(&again.durable_files(), recorded(), "a copy is the same bytes");
    let outcome = Replayer::open(options(), again).expect("the copy opens").run_to_end();
    assert!(outcome.is_clean(), "divergence: {:?}", outcome.divergence);
    assert_eq!(outcome.ticks_verified, 60);
}

/// `files` with the record of `tick` re-encoded after `edit` — a valid CRC
/// on a tick no run recorded.  The re-encoded record carries no sample
/// section, which replay never reads.
fn with_tick_edited(files: &Files, tick: u64, edit: impl Fn(&mut DurableTickRecord)) -> Files {
    reframed(files, |kind, t, payload, out| {
        if t != tick {
            return encode_record(kind, t, payload, out);
        }
        let (mut rec, _) = decode_tick_record(payload).expect("a tick record");
        edit(&mut rec);
        encode_record(kind, t, &encode_tick_record(&rec, &ColumnFrame::default()), out);
    })
}

/// `files` with every segment's records re-framed by hand, `edit` deciding
/// what becomes of each `(kind, tick, payload)`.
fn reframed(files: &Files, edit: impl Fn(u8, u64, &[u8], &mut Vec<u8>)) -> Files {
    let mut files = files.clone();
    for (_, bytes) in files.iter_mut().filter(|(n, _)| n.ends_with(".seg")) {
        let mut out = WAL_MAGIC.to_vec();
        scan_segment(bytes, |r| edit(r.kind, r.tick, r.payload, &mut out));
        *bytes = out;
    }
    files
}

fn hash_of(rec: &mut DurableTickRecord) -> &mut TickStateHash {
    rec.hash.as_mut().expect("a recording carries every hash")
}

#[test]
fn perturbed_log_yields_attributed_divergence() {
    // Flip one bit of the recorded sim sub-hash at tick 42: replay must
    // stop exactly there and name the subsystem.
    let tampered = with_tick_edited(recorded(), 42, |rec| {
        hash_of(rec).sim ^= 1;
        hash_of(rec).combined ^= 1;
    });
    let outcome = open(options(), &tampered).expect("a re-framed medium opens").run_to_end();
    assert_eq!(outcome.ticks_verified, 41);
    let report = outcome.divergence.expect("tampered recording must diverge");
    assert_eq!(report.first_divergent_tick, 42);
    assert_eq!(report.subsystem, "sim");
    assert_eq!(report.nearest_snapshot, Some(32), "32-tick cadence: nearest <= 41 is 32");
    let rendered = report.render();
    assert!(rendered.contains("first divergent tick : 42"));
    assert!(rendered.contains("sim"));

    // A seek after a divergence does not carry on from the diverged
    // system: it restores tick 32 and meets the tampered tick again.
    let mut rep = open(options(), &tampered).expect("opens");
    assert_eq!(rep.seek(42).unwrap().divergence.map(|d| d.first_divergent_tick), Some(42));
    let again = rep.seek(50).unwrap();
    assert_eq!(again.ticks_verified, 9, "33–41 from the checkpoint, not 43–50");
    assert_eq!(again.divergence.map(|d| d.first_divergent_tick), Some(42));
    let before = rep.seek(41).unwrap();
    assert!(before.is_clean(), "seek diverged: {:?}", before.divergence);
    assert_eq!((before.ticks_verified, rep.position()), (9, 41));
}

#[test]
fn changed_inputs_yield_divergence_not_panic() {
    // Drop the recorded job: replay executes different work, so the sim
    // digest must split and the report must say so.
    let tampered = with_tick_edited(recorded(), 1, |rec| rec.inputs.jobs.clear());
    let outcome = open(options(), &tampered).expect("opens").run_to_end();
    let report = outcome.divergence.expect("missing input must diverge");
    assert_eq!(report.subsystem, "sim");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Seeking to T and replaying the tail matches the from-0 hash chain
    /// for arbitrary T — checkpoint restore is bit-exact.
    #[test]
    fn seek_matches_replay_from_zero(target in 1u64..60) {
        let mut rep = open(options(), recorded()).expect("the recording opens");
        let outcome = rep.seek(target).expect("in the window");
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
/// later checkpoint, restores.  A target outside the window is an error.
#[test]
fn seek_forward_steps_on_from_the_current_position() {
    // Without checkpoints a restore is a rebuild and a replay from tick 0.
    let plain = record(quiet_options(), 0, 20, |_, _| {});
    let mut rep = open(quiet_options(), &plain).expect("opens");
    assert_eq!(rep.seek(10).unwrap().ticks_verified, 10);
    let forward = rep.seek(20).unwrap();
    assert!(forward.is_clean(), "seek diverged: {:?}", forward.divergence);
    assert_eq!((forward.ticks_verified, rep.position()), (10, 20), "ticks 11–20, not 1–20");
    assert_eq!(rep.seek(5).unwrap().ticks_verified, 5, "backward: rebuilt and replayed from 0");
    let past = ReplayError::OutOfWindow { target: 21, start: 0, end: 20 };
    assert_eq!(rep.seek(21).unwrap_err(), past);

    // A checkpoint at 32.
    let mut rep = open(options(), recorded()).expect("opens");
    assert_eq!(rep.seek(20).unwrap().ticks_verified, 20, "from tick 0");
    assert_eq!(rep.seek(30).unwrap().ticks_verified, 10, "0 ≤ 20 ≤ 30: stepped on from 20");
    assert_eq!(rep.seek(40).unwrap().ticks_verified, 8, "a nearer checkpoint: restored 32");
    assert_eq!(rep.seek(32).unwrap().ticks_verified, 0, "backward onto a checkpoint: restored 32");
    assert_eq!(rep.seek(20).unwrap().ticks_verified, 20, "backward: rebuilt");
    let tail = rep.seek(31).unwrap();
    assert!(tail.is_clean(), "seek diverged: {:?}", tail.divergence);
    assert_eq!((tail.ticks_verified, rep.position()), (11, 31));
}

/// Past two checkpoints the plane's retention has deleted the start of the
/// chain: the window starts at the oldest checkpoint left, and a seek
/// below it is an error, not a panic.
#[test]
fn a_recording_past_two_checkpoints_replays_from_the_oldest() {
    let files = record(quiet_options(), 32, 100, |_, _| {});
    let names: Vec<&str> = files.iter().map(|(n, _)| n.as_str()).collect();
    assert_eq!(
        names,
        ["ckpt-0000000064.ck", "ckpt-0000000096.ck", "wal-0000000065.seg", "wal-0000000097.seg"]
    );
    let mut rep = open(quiet_options(), &files).expect("opens");
    assert_eq!((rep.window(), rep.position()), ((64, 100), 64));
    let below = ReplayError::OutOfWindow { target: 63, start: 64, end: 100 };
    assert_eq!(rep.seek(63).unwrap_err(), below);
    assert!(rep.seek(101).is_err());
    assert_eq!(rep.seek(70).unwrap().ticks_verified, 6);
    assert_eq!(rep.seek(98).unwrap().ticks_verified, 2, "restored 96");
    let outcome = open(quiet_options(), &files).unwrap().run_to_end();
    assert!(outcome.is_clean(), "divergence: {:?}", outcome.divergence);
    assert_eq!(outcome.ticks_verified, 36);
}

#[test]
fn seek_restores_forced_tracing_window() {
    // The incident workflow: seek near the end, force 1-in-1 tracing,
    // re-step the window — hashes must still match the recording.
    let mut rep = open(options(), recorded()).expect("opens");
    rep.force_full_tracing();
    let outcome = rep.seek(48).unwrap();
    assert!(outcome.is_clean(), "seek diverged: {:?}", outcome.divergence);
    assert_eq!(outcome.ticks_verified, 16, "restored 32");
    for _ in 48..60 {
        let step = rep.step().expect("the window has ticks left");
        assert!(step.is_ok(), "divergence under forced tracing: {:?}", step.err());
    }
    assert_eq!(rep.position(), 60);
}

// ---------------------------------------------------------------------------
// The medium as bytes: nothing but what a durable run wrote opens.
// ---------------------------------------------------------------------------

fn synthetic_tick(tick: u64, seed: u64) -> DurableTickRecord {
    let mut rec = DurableTickRecord { tick, ..DurableTickRecord::default() };
    let inputs = &mut rec.inputs;
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
    if seed.is_multiple_of(7) {
        inputs.durability_feed = Some((seed % 1_000, seed % 3));
    }
    let h = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    rec.hash = Some(TickStateHash {
        tick,
        sim: h,
        frame: h ^ 1,
        store: h ^ 2,
        pipeline: h ^ 3,
        analysis: h ^ 4,
        chaos: h ^ 5,
        gateway: h ^ 6,
        combined: h ^ 7,
    });
    rec
}

/// One segment of arbitrary tick records, 1-based, as the plane frames
/// them (an empty sample section each).
fn segment_from_seeds(seeds: &[u64]) -> (Vec<DurableTickRecord>, Vec<u8>) {
    let ticks: Vec<_> = seeds.iter().zip(1..).map(|(&seed, t)| synthetic_tick(t, seed)).collect();
    let mut seg = WAL_MAGIC.to_vec();
    for rec in &ticks {
        encode_record(
            KIND_TICK,
            rec.tick,
            &encode_tick_record(rec, &ColumnFrame::default()),
            &mut seg,
        );
    }
    (ticks, seg)
}

fn one_segment(bytes: &[u8]) -> Files {
    vec![("wal-0000000000.seg".to_owned(), bytes.to_vec())]
}

/// Record boundaries of a segment: after the magic, and after each record.
fn boundaries(seg: &[u8]) -> Vec<usize> {
    let mut ends = vec![WAL_MAGIC.len()];
    scan_segment(seg, |r| ends.push(ends.last().unwrap() + 17 + r.payload.len()));
    ends
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Arbitrary tick records survive the WAL codec bit-exactly, and a
    /// medium holding them opens as a window of exactly their ticks.
    #[test]
    fn codec_round_trips(seeds in proptest::collection::vec(0u64..u64::MAX, 1..40)) {
        let (ticks, seg) = segment_from_seeds(&seeds);
        let mut back = Vec::new();
        scan_segment(&seg, |r| back.push(decode_tick_record(r.payload).expect("decodes").0));
        prop_assert_eq!(&back, &ticks);
        let rep = open(quiet_options(), &one_segment(&seg)).expect("a valid segment opens");
        prop_assert_eq!(rep.window(), (0, seeds.len() as u64));
    }

    /// A segment cut inside a record is torn and refused; one cut between
    /// records is the shorter run and opens as exactly the ticks it holds.
    #[test]
    fn a_cut_inside_a_record_is_refused_and_one_between_records_is_a_shorter_run(
        seeds in proptest::collection::vec(0u64..u64::MAX, 1..20),
        cut_frac in 0.0f64..1.0,
    ) {
        let (_, seg) = segment_from_seeds(&seeds);
        let cut = ((seg.len() - 1) as f64 * cut_frac) as usize;
        let bounds = boundaries(&seg);
        match (open(quiet_options(), &one_segment(&seg[..cut])), bounds.iter().position(|&b| b == cut)) {
            (Ok(rep), Some(held)) => prop_assert_eq!(rep.window(), (0, held as u64)),
            (Err(_), None) => {}
            (Ok(_), None) => prop_assert!(false, "a cut at {cut} inside a record opened"),
            (Err(e), Some(_)) => prop_assert!(false, "a cut between records was refused: {e}"),
        }
    }

    /// Whatever single bit of whatever file flips, `open` refuses the
    /// medium — CRC framing sees it — and never panics.
    #[test]
    fn open_never_panics_on_a_flipped_bit_in_any_file(
        file_sel in 0usize..10_000,
        byte_sel in 0usize..10_000_000,
        bit in 0u32..8,
    ) {
        let mut files = recorded().clone();
        let idx = file_sel % files.len();
        let byte = byte_sel % files[idx].1.len();
        files[idx].1[byte] ^= 1u8 << bit;
        prop_assert!(open(options(), &files).is_err(), "a flip in {} at {byte} opened", files[idx].0);
    }
}

/// The recording with segment `seg` cut to its first `cut` bytes, opened.
fn open_cut(
    options: &MonitorOptions,
    files: &Files,
    seg: usize,
    cut: usize,
) -> Result<Replayer, ReplayError> {
    let mut cut_files = files.clone();
    cut_files[seg].1.truncate(cut);
    open(options.clone(), &cut_files)
}

/// Over a real six-tick recording: every prefix that cuts inside a record
/// is refused, and every cut on a record boundary opens and verifies
/// exactly the ticks it holds.  Every bit of the magic, of each frame
/// header and of each JSON head — every byte the event log this replaced
/// had — is flipped and refused; the sample sections get one bit every
/// 97 bytes.
#[test]
fn every_bit_flip_and_every_torn_prefix_of_a_recording_is_refused() {
    let files = six_ticks();
    assert_eq!(files.len(), 1, "one segment: {files:?}");
    let seg = &files[0].1;
    let bounds = boundaries(seg);
    assert_eq!(bounds.len(), 7, "magic and six records");
    for cut in 0..seg.len() {
        let opened = open_cut(&tiny_options(), files, 0, cut);
        // An empty file is a segment cut before its magic: no ticks either.
        let held = if cut == 0 { Some(0) } else { bounds.iter().position(|&b| b == cut) };
        match (opened, held) {
            (Ok(rep), Some(held)) => {
                assert_eq!(rep.window(), (0, held as u64), "cut at {cut}");
                let outcome = rep.run_to_end();
                assert!(outcome.is_clean(), "cut at {cut}: {:?}", outcome.divergence);
                assert_eq!(outcome.ticks_verified, held as u64);
            }
            (Err(_), None) => {}
            (Ok(_), None) => panic!("a cut at {cut} inside a record opened"),
            (Err(e), Some(_)) => panic!("a cut at {cut} between records was refused: {e}"),
        }
    }
    let mut bad = seg.clone();
    let mut flip = |bit: usize| {
        bad[bit / 8] ^= 1 << (bit % 8);
        assert!(open(tiny_options(), &one_segment(&bad)).is_err(), "flip of bit {bit} opened");
        bad[bit / 8] ^= 1 << (bit % 8);
    };
    (0..WAL_MAGIC.len() * 8).for_each(&mut flip);
    for w in bounds.windows(2) {
        let (start, end) = (w[0], w[1]);
        let json_len = u32::from_le_bytes(seg[start + 17..start + 21].try_into().unwrap()) as usize;
        let head_end = start + 17 + 4 + json_len;
        (start * 8..head_end * 8).for_each(&mut flip);
        (head_end..end).step_by(97).map(|b| b * 8 + b % 8).for_each(&mut flip);
    }
}

/// The same over the chaos recording, where trying every bit would be
/// millions of opens: every cut on or beside a record boundary of either
/// segment, a bit in each field of every record's frame header (kind,
/// tick, length, CRC), one bit in every 16 KiB of payload, and the
/// checkpoint cut and flipped at a stride.  A boundary cut opens as the
/// shorter run only in the last segment: anywhere else it leaves a gap.
#[test]
fn damage_to_the_chaos_log_is_refused_at_every_record() {
    let files = recorded();
    let opts = options();
    for (idx, (name, bytes)) in files.iter().enumerate() {
        let mut bad = files.clone();
        let mut flip = |bit: usize| {
            bad[idx].1[bit / 8] ^= 1 << (bit % 8);
            assert!(open(opts.clone(), &bad).is_err(), "flip of bit {bit} of {name} opened");
            bad[idx].1[bit / 8] ^= 1 << (bit % 8);
        };
        if name.ends_with(".ck") {
            for cut in (0..bytes.len()).step_by(4_099) {
                let mut cut_files = files.clone();
                cut_files[idx].1.truncate(cut);
                assert!(open(opts.clone(), &cut_files).is_err(), "{name} cut at {cut} opened");
            }
            (0..bytes.len() * 8).step_by(4_099 * 8 + 1).for_each(&mut flip);
            continue;
        }
        let bounds = boundaries(bytes);
        let last = name == "wal-0000000033.seg";
        for (i, &b) in bounds.iter().enumerate() {
            // Cut between records, the last segment holds 32 + i ticks; the
            // first holds a gap before tick 33 — unless it holds none at
            // all, when the medium reads as a window from the checkpoint.
            let end = match (last, i) {
                (true, _) => Some(32 + i as u64),
                (false, 0) => Some(60),
                (false, _) if i + 1 == bounds.len() => Some(60),
                (false, _) => None,
            };
            let opened = open_cut(&opts, files, idx, b).map(|rep| rep.window().1);
            assert_eq!(opened.ok(), end, "{name} cut at {b}");
            assert!(open_cut(&opts, files, idx, b - 1).is_err(), "{name} cut at {}", b - 1);
            if b < bytes.len() {
                assert!(open_cut(&opts, files, idx, b + 1).is_err(), "{name} cut at {}", b + 1);
                [0, 1, 9, 13].map(|field| (b + field) * 8 + b % 8).into_iter().for_each(&mut flip);
            }
        }
        assert_eq!(*bounds.last().unwrap(), bytes.len());
        (0..bytes.len() / 16_384).map(|i| i * 16_384 * 8 + i % 8).for_each(&mut flip);
    }
}

#[test]
fn bad_magic_is_rejected() {
    for (idx, name) in [(0, "checkpoint"), (1, "first segment"), (2, "last segment")] {
        let mut files = recorded().clone();
        files[idx].1[0] ^= 0xFF;
        assert!(open(options(), &files).is_err(), "{name} with a bad magic opened");
    }
}

#[test]
fn unknown_frame_is_rejected() {
    // A well-checksummed record of a kind nobody writes, between two ticks
    // and after the last.
    for at in [3, 6] {
        let files = reframed(six_ticks(), |kind, tick, payload, out| {
            encode_record(kind, tick, payload, out);
            if tick == at {
                encode_record(0x42, tick, b"", out);
            }
        });
        match open(tiny_options(), &files) {
            Err(ReplayError::Refused(why)) => assert!(why.contains("not a tick"), "{why}"),
            other => panic!("a 0x42 record after tick {at}: {:?}", other.map(|r| r.window())),
        }
    }
}

/// Records that each pass their CRC, in orders or shapes no durable run
/// writes — and options no replay can honour.
#[test]
fn impossible_record_orders_are_rejected() {
    let keep = |kind, tick, payload: &[u8], out: &mut Vec<u8>| {
        encode_record(kind, tick, payload, out);
    };
    let refused = |files: Files, what: &str| match open(tiny_options(), &files) {
        Err(ReplayError::Refused(_)) => {}
        other => panic!("{what}: expected a refusal, got {:?}", other.map(|r| r.window())),
    };
    let six = six_ticks();
    assert!(open(tiny_options(), &reframed(six, keep)).is_ok(), "re-framing alone is harmless");
    let without = |at: u64| {
        reframed(six, move |kind, tick, payload, out| {
            if tick != at {
                keep(kind, tick, payload, out);
            }
        })
    };
    refused(without(2), "tick gap");
    refused(without(1), "a recording starting at tick 2 with no checkpoint");
    refused(
        reframed(six, |kind, tick, payload, out| {
            for _ in 0..if tick == 3 { 2 } else { 1 } {
                keep(kind, tick, payload, out);
            }
        }),
        "a tick recorded twice",
    );
    refused(
        reframed(six, |kind, tick, payload, out| {
            keep(kind, tick ^ (tick == 4) as u64, payload, out)
        }),
        "a frame naming another tick than its record",
    );
    // A tick the plane journaled with hashing off has nothing to verify.
    refused(with_tick_edited(six, 2, |rec| rec.hash = None), "tick without a hash");
    refused(Vec::new(), "an empty medium");
    // A checkpoint that does not decode, under a CRC that checks out.
    let disk = Arc::new(SimDisk::new());
    let mut plane = DurabilityPlane::new(disk.clone(), DurabilityConfig::default());
    plane.checkpoint(32, b"not a CoreSnapshot").unwrap();
    let mut garbage = recorded().clone();
    assert_eq!(garbage[0].0, "ckpt-0000000032.ck");
    garbage[0].1 = disk.read("ckpt-0000000032.ck").unwrap();
    assert!(open(options(), &garbage).is_err(), "an undecodable checkpoint opened");
    let loud = MonitorOptions { self_telemetry: true, ..options() };
    assert!(open(loud, recorded()).is_err(), "self-telemetry on: wall-clock samples never replay");
}
