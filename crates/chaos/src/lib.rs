#![forbid(unsafe_code)]

//! Fault injection for the monitoring plane — and the supervision
//! machinery that survives it.
//!
//! The paper's sites learned that monitoring must keep working *while the
//! system it watches is failing*: collectors hang, transports stall, and
//! stores fill up at the worst possible moments.  `hpcmon-sim` already
//! breaks the simulated cluster; this crate breaks the *observers*, on a
//! deterministic, seeded schedule, so the pipeline's self-healing paths are
//! exercised under test instead of discovered in production:
//!
//! * [`ChaosPlan`] / [`ChaosEngine`] — tick-keyed fault script and the
//!   seeded engine that activates it (collector panic/hang/slow, broker
//!   topic stall, envelope corruption, shard write failure, WAN and disk
//!   faults).  Same seed + same plan ⇒ bit-identical damage on every run.
//! * [`CollectorSupervisor`] — quarantine with exponential-backoff
//!   re-probe (1 → 2 → 4 … ticks, capped); quarantined collectors are
//!   handed to the deadman detector so the gap is reported, never silent.
//! * [`IngestBreaker`] — circuit breaker + bounded spill queue in front of
//!   the store: on write failure frames spill to an in-memory WAL with
//!   drop-oldest provenance, drained in order when a half-open probe
//!   succeeds.

#![warn(missing_docs)]

pub mod engine;
pub mod fault;
pub mod spill;
pub mod supervisor;

pub use engine::{
    ChaosEngine, ChaosSnapshot, CollectorFault, DiskInjectedCounts, InjectedCounts,
    WanInjectedCounts,
};
pub use fault::{ChaosFault, ChaosPlan, ScheduledFault};
pub use spill::{BreakerSnapshot, BreakerState, IngestBreaker, SubmitReport};
pub use supervisor::{CollectorSupervisor, SupervisorConfig, SupervisorSnapshot};
