//! The replaying side: rebuild the system from the log header, re-drive
//! the tick loop from recorded inputs, verify the hash chain, and report
//! divergence with subsystem attribution.

use hpcmon::{CoreSnapshot, MonitoringSystem, TickStateHash};

use crate::log::EventLog;

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
    /// when the log has no earlier snapshot) — seek here and re-step
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
        for (name, (e, a)) in [
            ("sim", (self.expected.sim, self.actual.sim)),
            ("frame", (self.expected.frame, self.actual.frame)),
            ("store", (self.expected.store, self.actual.store)),
            ("pipeline", (self.expected.pipeline, self.actual.pipeline)),
            ("analysis", (self.expected.analysis, self.actual.analysis)),
            ("chaos", (self.expected.chaos, self.actual.chaos)),
            ("gateway", (self.expected.gateway, self.actual.gateway)),
        ] {
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

/// Re-executes an [`EventLog`] against a freshly built (or
/// snapshot-restored) system, verifying the state-hash chain tick by
/// tick.
pub struct Replayer<'log> {
    system: MonitoringSystem,
    log: &'log EventLog,
    /// Index into `log.ticks` of the next record to replay.
    cursor: usize,
    forced_full_tracing: bool,
}

impl<'log> Replayer<'log> {
    /// Build a fresh system from the log header, positioned at tick 0.
    pub fn new(log: &'log EventLog) -> Replayer<'log> {
        Replayer { system: log.spec.build_system(), log, cursor: 0, forced_full_tracing: false }
    }

    /// Force trace sampling to 1-in-1 for everything this replayer
    /// executes — the point of replay is forensics, and the hash chain
    /// is immune to sampling (corruption draws are computed over
    /// trace-stripped canonical bytes; traces live outside the hash).
    pub fn force_full_tracing(&mut self) {
        self.forced_full_tracing = true;
        self.system.tracer().set_force_sampling(true);
    }

    /// The tick the replayer is positioned after (0 = nothing replayed;
    /// after `seek(T)` with a clean outcome this is `T`).
    pub fn position(&self) -> u64 {
        self.cursor as u64
    }

    /// The system being driven (read-only; replay input comes from the
    /// log).
    pub fn system(&self) -> &MonitoringSystem {
        &self.system
    }

    /// Seek to tick `target`: carry on from the current position if it
    /// lies between the nearest checkpoint at or before `target` and
    /// `target` itself, else restore that checkpoint; then replay the
    /// remaining ticks with hash verification.  Returns the outcome of the
    /// replayed stretch (snapshot-restore itself is exact, so a divergence
    /// here indicates either a perturbed log or real non-determinism).
    ///
    /// With no usable snapshot a restore is a rebuild and replay-from-0.
    pub fn seek(&mut self, target: u64) -> ReplayOutcome {
        assert!(
            target <= self.log.len(),
            "seek target {target} past end of log ({} ticks)",
            self.log.len()
        );
        let snapshot = self.log.nearest_snapshot(target);
        let base = snapshot.map_or(0, CoreSnapshot::tick);
        if !((base..=target).contains(&self.position()) && self.on_recorded_chain()) {
            match snapshot {
                // Restoring consumes a snapshot; the log keeps its copy.
                Some(snap) => self.system.restore_snapshot(snap.clone()),
                None => {
                    // No checkpoint: rebuild from scratch and replay it all.
                    self.system = self.log.spec.build_system();
                    if self.forced_full_tracing {
                        self.system.tracer().set_force_sampling(true);
                    }
                }
            }
            self.cursor = base as usize;
        }
        let mut verified = 0;
        while self.position() < target {
            match self.step() {
                Some(Ok(_)) => verified += 1,
                Some(Err(report)) => {
                    return ReplayOutcome { ticks_verified: verified, divergence: Some(report) }
                }
                None => break,
            }
        }
        ReplayOutcome { ticks_verified: verified, divergence: None }
    }

    /// Whether the system holds the recorded state at `position`: nothing
    /// replayed yet, or the last tick it ran hashed as the log says — false
    /// after a divergence, which `seek` must not carry on from.
    fn on_recorded_chain(&self) -> bool {
        self.cursor == 0 || self.system.last_state_hash() == self.log.ticks[self.cursor - 1].hash
    }

    /// Replay the next recorded tick through
    /// [`MonitoringSystem::replay_tick`] (apply its logged inputs, run the
    /// pipeline, compare hashes) and stop at a mismatch.  `None` = end of
    /// log; `Some(Ok(hash))` = verified; `Some(Err(report))` = divergence.
    #[allow(clippy::type_complexity)]
    pub fn step(&mut self) -> Option<Result<TickStateHash, DivergenceReport>> {
        let record = self.log.ticks.get(self.cursor)?;
        let mismatch = self.system.replay_tick(record);
        self.cursor += 1;
        Some(match mismatch {
            None => Ok(self.system.last_state_hash().expect("replay systems always hash")),
            Some((expected, actual)) => Err(DivergenceReport {
                first_divergent_tick: record.tick,
                subsystem: expected.first_divergence(&actual).unwrap_or("combined"),
                expected,
                actual,
                nearest_snapshot: (self.log.nearest_snapshot(record.tick.saturating_sub(1)))
                    .map(CoreSnapshot::tick),
                forced_full_tracing: self.forced_full_tracing,
            }),
        })
    }

    /// Replay every remaining tick, stopping at the first divergence.
    pub fn run_to_end(mut self) -> ReplayOutcome {
        let mut verified = 0;
        while let Some(step) = self.step() {
            match step {
                Ok(_) => verified += 1,
                Err(report) => {
                    return ReplayOutcome { ticks_verified: verified, divergence: Some(report) }
                }
            }
        }
        ReplayOutcome { ticks_verified: verified, divergence: None }
    }
}
