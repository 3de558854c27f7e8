#![deny(unsafe_code)]

//! `hpcmon-durability` — the crash-tolerance layer under the monitoring
//! plane.
//!
//! The paper's hardest-won lesson is that monitoring must outlive the
//! system it monitors: sites lost visibility exactly when incidents made
//! it most valuable.  This crate gives `hpcmon` a restart-without-data-loss
//! story built from four pieces:
//!
//! * [`crc`] — table-driven CRC-32 (IEEE), the frame check behind every
//!   record and checkpoint.
//! * [`medium`] — the [`StorageMedium`] trait (append / sync / atomic
//!   rename, with fault hooks) and [`SimDisk`], a deterministic in-memory
//!   disk whose crashes, torn writes, and bit flips are seeded and
//!   bit-identical on every run.
//! * [`wal`] — the record and checkpoint codecs plus the segment scanner
//!   that distinguishes a *torn tail* (truncate and continue) from
//!   *mid-log corruption* (diagnose, count, fail closed — never panic).
//! * [`DurabilityPlane`] — the orchestrator: group-commit appends with a
//!   retry backlog, checkpoint rotation + retention, recovery, and a
//!   round-robin CRC scrub.
//!
//! Loss bounds are explicit: [`SyncPolicy::EveryTick`] guarantees zero
//! loss on crash; [`SyncPolicy::GroupCommit`]`(n)` bounds loss to the last
//! `n` ticks.  Both are asserted by the crash/restart test suite against
//! the monitoring system's per-tick state-hash chain.

#[allow(unsafe_code)]
pub mod crc;
pub mod medium;
mod plane;
pub mod wal;

pub use medium::{DiskError, SimDisk, StorageMedium};
pub use plane::{
    DurabilityConfig, DurabilityCounts, DurabilityPlane, PlaneFiles, RecoveredState, RecoveryReport,
};
pub use wal::{ScanEnd, SyncPolicy, WalRecord};
