#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! `hpcmon-replay` — a flight recorder for the monitoring plane.
//!
//! Large-scale monitoring incidents are rarely reproducible on demand:
//! the interesting tick happened hours ago, under a particular interleave
//! of injected faults, subscriptions, and collector failures.  This
//! crate turns any [`hpcmon::MonitoringSystem`] run into an attachable,
//! re-executable artifact:
//!
//! * [`FlightRecorder`] wraps a live system, funnels every
//!   non-deterministic input (job submissions, machine faults, gateway
//!   subscriptions) through a per-tick
//!   [`TickInputs`](hpcmon::TickInputs) record, hashes the full
//!   deterministic state after each tick, and checkpoints complete
//!   snapshots every K ticks.
//! * [`EventLog`] is the artifact: one file of CRC-checked write-ahead-log
//!   records — the durability plane's framing, tick payload and checkpoint
//!   payload (`hpcmon_durability::wal`, DESIGN.md §15) — opened by a header
//!   record and closed by an explicit end record so truncation is detected.
//! * [`Replayer`] rebuilds an identical system from the log header and
//!   re-runs each logged tick through the step crash recovery uses
//!   ([`hpcmon::MonitoringSystem::replay_tick`]), verifying the state-hash
//!   chain tick by tick.  [`Replayer::seek`] restores the nearest
//!   checkpoint at or before the target tick instead of re-running from 0;
//!   [`Replayer::force_full_tracing`] re-executes the window with 1-in-1
//!   trace sampling without perturbing the hash chain (the corruption
//!   predicate is computed over trace-stripped bytes — see `DESIGN.md`
//!   §11).
//! * On divergence, [`DivergenceReport`] names the first divergent tick,
//!   the first subsystem whose sub-hash differed, and the nearest
//!   snapshot to restart forensics from.
//!
//! ```
//! use hpcmon::{MonitorOptions, SimConfig};
//! use hpcmon_replay::{FlightRecorder, Replayer, RunSpec};
//! use hpcmon_sim::{AppProfile, JobSpec};
//! use hpcmon_metrics::Ts;
//!
//! let options =
//!     MonitorOptions { self_telemetry: false, ..MonitorOptions::new(SimConfig::small()) };
//! let mut rec = FlightRecorder::new(RunSpec { options, snapshot_every: 50 });
//! rec.submit_job(JobSpec::new(
//!     AppProfile::compute_heavy("stencil"), "alice", 8, 600_000, Ts::ZERO,
//! ));
//! for _ in 0..20 { rec.tick(); }
//! let log = rec.finish();
//!
//! let outcome = Replayer::new(&log).run_to_end();
//! assert!(outcome.divergence.is_none());
//! assert_eq!(outcome.ticks_verified, 20);
//! ```

pub mod log;
pub mod recorder;
pub mod replayer;

pub use log::{EventLog, LogError};
pub use recorder::FlightRecorder;
pub use replayer::{DivergenceReport, ReplayOutcome, Replayer};

use hpcmon::{MonitorBuilder, MonitorOptions, MonitoringSystem};
use serde::{Deserialize, Serialize};

/// Everything needed to rebuild a bit-identical [`MonitoringSystem`]: the
/// event log's header record.  The run itself is described by the
/// builder's own [`MonitorOptions`]; the recorder adds only its cadence.
///
/// Strict (hash-verified) replay additionally requires
/// `options.self_telemetry == false` — self-observation samples carry
/// wall-clock timer readings whose warm-tier byte sizes feed the store
/// digest (see `DESIGN.md` §11).  The recorder asserts this.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunSpec {
    /// The recorded run's configuration.
    pub options: MonitorOptions,
    /// Snapshot checkpoint cadence in ticks, the "K" in seek-to-T (0 = no
    /// checkpoints; seek then replays from tick 0).
    pub snapshot_every: u64,
}

impl RunSpec {
    /// Build the [`MonitoringSystem`] this spec describes, with state
    /// hashing enabled — it must be on before the first tick so lazily
    /// registered metric ids line up between recording and replay.
    pub(crate) fn build_system(&self) -> MonitoringSystem {
        let mut system = MonitorBuilder::from_options(self.options.clone()).build();
        system.set_state_hashing(true);
        system
    }
}
