//! Replaying a recording (DESIGN.md §11).
//!
//! A recording is a durable run: a [`MonitoringSystem`] built with
//! [`super::MonitorBuilder::durability`] and
//! [`MonitoringSystem::set_state_hashing`] on, driven through its own input
//! API.  Its medium then holds every tick's inputs and state hash in the
//! WAL, and full checkpoints on the plane's cadence — which is all a replay
//! needs besides the run's options.
//!
//! [`Replayer::open`] takes those options from the caller, as
//! [`MonitoringSystem::recover_from_medium`] does, and reads the medium
//! without writing to it.  Where recovery repairs, it refuses: a torn or
//! corrupt segment, a tick gap, a record that is not a tick, a tick
//! without a hash, or an invalid checkpoint.  It never panics on any bytes.
//! The replayer then re-runs each tick through
//! [`MonitoringSystem::replay_tick`] on a system with no plane attached —
//! recovery's own path — verifying the hash chain, and on a mismatch a
//! [`DivergenceReport`] names the tick and the first subsystem that
//! differed.
//!
//! **The window.**  Replay starts at tick 0 when the medium holds the
//! record of tick 1, and otherwise at the oldest checkpoint on it (the
//! plane's retention keeps two).  A medium cut on a record boundary is a
//! shorter recording; a cut inside a record is a torn segment.
//!
//! ```
//! use hpcmon::durability::{DurabilityConfig, SimDisk};
//! use hpcmon::{MonitorBuilder, MonitorOptions, Replayer, SimConfig};
//! use std::sync::Arc;
//!
//! let options =
//!     MonitorOptions { self_telemetry: false, ..MonitorOptions::new(SimConfig::small()) };
//! let disk = Arc::new(SimDisk::new());
//! let mut mon = MonitorBuilder::from_options(options.clone())
//!     .durability(disk.clone(), DurabilityConfig::default())
//!     .build();
//! mon.set_state_hashing(true);
//! mon.run_ticks(20);
//!
//! let outcome = Replayer::open(options, disk).unwrap().run_to_end();
//! assert!(outcome.is_clean());
//! assert_eq!(outcome.ticks_verified, 20);
//! ```

use super::durability::{decode_tick_head, DurableTickRecord};
use super::state::SUBSYSTEMS;
use super::{CoreSnapshot, MonitorBuilder, MonitorOptions, MonitoringSystem, TickStateHash};
use hpcmon_durability::wal::{decode_checkpoint, scan_segment, KIND_TICK};
use hpcmon_durability::{PlaneFiles, ScanEnd, StorageMedium};
use std::sync::Arc;

/// Why a medium cannot be replayed, or a seek cannot be served.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReplayError {
    /// The medium holds no replayable recording: what is wrong, and where.
    Refused(String),
    /// A seek target outside the replay window.
    OutOfWindow {
        /// The tick asked for.
        target: u64,
        /// The window's first tick.
        start: u64,
        /// The window's last tick.
        end: u64,
    },
}

impl std::fmt::Display for ReplayError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReplayError::Refused(why) => write!(f, "not a replayable recording: {why}"),
            ReplayError::OutOfWindow { target, start, end } => {
                write!(f, "tick {target} is outside the replay window {start}..={end}")
            }
        }
    }
}

impl std::error::Error for ReplayError {}

fn refused<T>(why: String) -> Result<T, ReplayError> {
    Err(ReplayError::Refused(why))
}

/// Where and how a replay first disagreed with its recording.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DivergenceReport {
    /// The first tick whose state hash differs from the recorded one.
    pub first_divergent_tick: u64,
    /// The first subsystem (in `sim → frame → store → pipeline →
    /// analysis → chaos → gateway → combined` order) whose sub-hash
    /// differs at that tick — the layer to start forensics in.
    pub subsystem: &'static str,
    /// The hash the recording run observed.
    pub expected: TickStateHash,
    /// The hash this replay computed.
    pub actual: TickStateHash,
    /// The latest checkpoint at or before the divergent tick (`None`
    /// when the medium has no earlier one) — seek here and re-step
    /// with full tracing to capture the divergence in detail.
    pub nearest_snapshot: Option<u64>,
    /// Whether this replay ran with trace sampling forced to 1-in-1.
    pub forced_full_tracing: bool,
}

impl DivergenceReport {
    /// Multi-line human-readable rendering.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("=== replay divergence ===\n");
        out.push_str(&format!("first divergent tick : {}\n", self.first_divergent_tick));
        out.push_str(&format!("first subsystem      : {}\n", self.subsystem));
        out.push_str(&format!("expected combined    : {:#018x}\n", self.expected.combined));
        out.push_str(&format!("actual combined      : {:#018x}\n", self.actual.combined));
        let (expected, actual) = (self.expected.sub_hashes(), self.actual.sub_hashes());
        // Every sub-hash but the combined one, printed above.
        for ((name, e), a) in SUBSYSTEMS.iter().zip(expected).zip(actual).take(7) {
            let mark = if e == a { "  ok" } else { "DIFF" };
            out.push_str(&format!("  {mark} {name:<9} {e:#018x} vs {a:#018x}\n"));
        }
        match self.nearest_snapshot {
            Some(t) => out.push_str(&format!(
                "nearest snapshot     : tick {t} (seek there, force full tracing, re-step)\n"
            )),
            None => out.push_str("nearest snapshot     : none (replay from tick 0)\n"),
        }
        if self.forced_full_tracing {
            out.push_str("trace sampling       : forced 1-in-1 for this window\n");
        }
        out
    }
}

/// What a verification run concluded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplayOutcome {
    /// Ticks that replayed with matching hashes.
    pub ticks_verified: u64,
    /// The first mismatch, if any.  `None` = the whole window was
    /// bit-identical.
    pub divergence: Option<DivergenceReport>,
}

impl ReplayOutcome {
    /// Whether the replayed window matched the recording everywhere.
    pub fn is_clean(&self) -> bool {
        self.divergence.is_none()
    }
}

/// Re-executes the recording on a medium against a freshly built (or
/// checkpoint-restored) system, verifying the state-hash chain tick by
/// tick.
pub struct Replayer {
    options: MonitorOptions,
    system: MonitoringSystem,
    /// The window's first tick: 0, or the oldest checkpoint's.
    start: u64,
    /// The records of ticks `start + 1 ..= end`, in order.
    ticks: Vec<DurableTickRecord>,
    /// The checkpoints on the medium, oldest first.
    checkpoints: Vec<CoreSnapshot>,
    /// The tick the system stands after.
    position: u64,
    /// Whether the system left the recorded chain since it was last
    /// built or restored: a seek must not carry on from there.
    diverged: bool,
    forced_full_tracing: bool,
}

impl Replayer {
    /// Open the recording on `medium`, made by a run built from `options`,
    /// positioned at the start of its window.  Reads every segment and
    /// checkpoint in place and writes nothing; refuses (never repairs, never
    /// panics on) anything a recording that ran to its last record cannot
    /// hold.  Self-telemetry must be off: its samples carry wall-clock
    /// timings no replay reproduces.
    pub fn open(
        options: MonitorOptions,
        medium: Arc<dyn StorageMedium>,
    ) -> Result<Replayer, ReplayError> {
        if options.self_telemetry {
            return refused("self-telemetry is on: its wall-clock samples never replay".into());
        }
        let files = PlaneFiles::list(&*medium);
        let mut ticks: Vec<DurableTickRecord> = Vec::new();
        for (_, name) in &files.segments {
            let mut why = Some("cannot be read".to_owned());
            let _ = medium.read_with(name, &mut |bytes| {
                why = None;
                let end = scan_segment(bytes, |r| {
                    if why.is_some() {
                        return;
                    }
                    let head = (r.kind == KIND_TICK).then(|| decode_tick_head(r.payload)).flatten();
                    let due = ticks.last().map_or(r.tick, |t| t.tick + 1);
                    why = match head {
                        None => Some(format!("the record of tick {} is not a tick", r.tick)),
                        Some((t, _)) if t.tick != r.tick || t.tick != due => {
                            Some(format!("a record of tick {} where tick {due} was due", t.tick))
                        }
                        Some((t, _)) if t.hash.is_none() => {
                            Some(format!("tick {} carries no state hash", t.tick))
                        }
                        Some((t, _)) => {
                            ticks.push(t);
                            None
                        }
                    };
                });
                if why.is_none() && end != ScanEnd::Clean {
                    why = Some(format!("{end:?}"));
                }
            });
            if let Some(why) = why {
                return refused(format!("{name}: {why}"));
            }
        }
        let mut checkpoints = Vec::new();
        for (tick, name) in &files.checkpoints {
            let mut snapshot = None;
            let _ = medium.read_with(name, &mut |bytes| {
                snapshot = decode_checkpoint(bytes)
                    .and_then(|payload| serde_json::from_slice::<CoreSnapshot>(payload).ok());
            });
            match snapshot {
                Some(s) if s.tick() == *tick => checkpoints.push(s),
                _ => return refused(format!("{name} is not a valid checkpoint")),
            }
        }
        let start = match (ticks.first(), checkpoints.first()) {
            (Some(first), _) if first.tick == 1 => 0,
            (_, Some(oldest)) => oldest.tick(),
            // Segments without a record: a recording cut before its first.
            (None, None) if !files.segments.is_empty() => 0,
            _ => return refused("the medium holds neither tick 1 nor a checkpoint".into()),
        };
        ticks.retain(|t| t.tick > start);
        if ticks.first().is_some_and(|t| t.tick != start + 1) {
            return refused(format!("no record of tick {} after the checkpoint", start + 1));
        }
        let mut replayer = Replayer {
            system: build(&options, false),
            options,
            start,
            ticks,
            checkpoints,
            position: start,
            diverged: false,
            forced_full_tracing: false,
        };
        if start > 0 {
            replayer.system.restore_snapshot(replayer.checkpoints[0].clone());
        }
        Ok(replayer)
    }

    /// Force trace sampling to 1-in-1 for everything this replayer
    /// executes — the point of replay is forensics, and the hash chain
    /// is immune to sampling (corruption draws are computed over
    /// trace-stripped canonical bytes; traces live outside the hash).
    pub fn force_full_tracing(&mut self) {
        self.forced_full_tracing = true;
        self.system.tracer().set_force_sampling(true);
    }

    /// The replay window: its first tick and its last.
    pub fn window(&self) -> (u64, u64) {
        (self.start, self.start + self.ticks.len() as u64)
    }

    /// The tick the replayer is positioned after (the window's start when
    /// nothing is replayed; after `seek(T)` with a clean outcome, `T`).
    pub fn position(&self) -> u64 {
        self.position
    }

    /// The system being driven (read-only; replay input comes from the
    /// medium).
    pub fn system(&self) -> &MonitoringSystem {
        &self.system
    }

    /// Seek to tick `target`: carry on from the current position if it
    /// lies between the nearest checkpoint at or before `target` and
    /// `target` itself, else restore that checkpoint (or rebuild, when
    /// the window starts at 0 and none lies below `target`); then replay
    /// the remaining ticks with hash verification.  A target outside the
    /// window is an error.
    pub fn seek(&mut self, target: u64) -> Result<ReplayOutcome, ReplayError> {
        let (start, end) = self.window();
        if !(start..=end).contains(&target) {
            return Err(ReplayError::OutOfWindow { target, start, end });
        }
        let checkpoint = self.checkpoints.iter().rev().find(|c| c.tick() <= target);
        let base = checkpoint.map_or(start, CoreSnapshot::tick);
        if self.diverged || !(base..=target).contains(&self.position) {
            match checkpoint {
                // Restoring consumes a snapshot; the replayer keeps its copy.
                Some(snapshot) => self.system.restore_snapshot(snapshot.clone()),
                None => self.system = build(&self.options, self.forced_full_tracing),
            }
            self.position = base;
            self.diverged = false;
        }
        Ok(self.verify_to(target))
    }

    /// Replay the next recorded tick through
    /// [`MonitoringSystem::replay_tick`] (apply its journaled inputs, run
    /// the pipeline, compare hashes).  `None` = end of the window;
    /// `Some(Ok(hash))` = verified; `Some(Err(report))` = divergence.
    #[allow(clippy::type_complexity)]
    pub fn step(&mut self) -> Option<Result<TickStateHash, DivergenceReport>> {
        let record = self.ticks.get((self.position - self.start) as usize)?;
        let mismatch = self.system.replay_tick(record);
        self.position += 1;
        let Some((expected, actual)) = mismatch else {
            return Some(Ok(self.system.last_state_hash().expect("replay systems always hash")));
        };
        self.diverged = true;
        let before = self.checkpoints.iter().rev().find(|c| c.tick() < self.position);
        Some(Err(DivergenceReport {
            first_divergent_tick: self.position,
            subsystem: expected.first_divergence(&actual).unwrap_or("combined"),
            expected,
            actual,
            nearest_snapshot: before.map(CoreSnapshot::tick),
            forced_full_tracing: self.forced_full_tracing,
        }))
    }

    /// Replay every remaining tick, stopping at the first divergence.
    pub fn run_to_end(mut self) -> ReplayOutcome {
        self.verify_to(self.window().1)
    }

    /// Step until `target`, the end of the window or a divergence.
    fn verify_to(&mut self, target: u64) -> ReplayOutcome {
        let mut ticks_verified = 0;
        while self.position < target {
            match self.step() {
                Some(Ok(_)) => ticks_verified += 1,
                // A divergence, or the end of the window.
                stop => {
                    return ReplayOutcome { ticks_verified, divergence: stop.and_then(Result::err) }
                }
            }
        }
        ReplayOutcome { ticks_verified, divergence: None }
    }
}

/// The system `options` describe, hashing from its first tick so lazily
/// registered metric ids line up with the recording's.
fn build(options: &MonitorOptions, forced_full_tracing: bool) -> MonitoringSystem {
    let mut system = MonitorBuilder::from_options(options.clone()).build();
    system.set_state_hashing(true);
    system.tracer().set_force_sampling(forced_full_tracing);
    system
}
