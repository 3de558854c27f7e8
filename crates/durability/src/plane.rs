//! The durability plane: a segmented WAL with group-commit sync, atomic
//! checkpoints with rotation + retention, fail-closed crash recovery, and
//! a round-robin CRC scrub.
//!
//! ## File layout on the medium
//!
//! ```text
//! wal-0000000000.seg    segment holding records [start, next checkpoint]
//! ckpt-0000000063.ck    checkpoint of the core state at tick 63
//! *.tmp                 in-flight checkpoint writes (deleted on recovery)
//! ```
//!
//! Segments rotate at every checkpoint: a checkpoint at tick `T` seals the
//! current segment and opens `wal-{T+1}.seg`.  Retention keeps the two
//! newest checkpoints (the newest can be corrupt; the previous one plus the
//! still-retained segments behind it is the fallback) and deletes segments
//! whose records are covered by *both*.
//!
//! ## Recovery invariants
//!
//! * Never panics on arbitrary bytes — every failure is diagnosed, counted,
//!   and reported.
//! * A torn tail (crash mid-append, damage running to end-of-log) is
//!   truncated at the last valid CRC and operation resumes.
//! * Mid-log damage — a bad record with data after it, a tick gap, a record
//!   that is not a tick, a torn tail on a non-final segment — is
//!   corruption: the log is cut at the first bad record, everything after
//!   is dropped from the medium (fail closed), and `first_bad_tick` pins
//!   the damage.

use crate::medium::{DiskError, StorageMedium};
use crate::wal::{
    decode_checkpoint, encode_checkpoint, encode_record, scan_segment, ScanEnd, SyncPolicy,
    WalRecord, HEADER_LEN, KIND_TICK, WAL_MAGIC,
};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::sync::Arc;

/// Tuning for the durability plane.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DurabilityConfig {
    /// When appended records become durable.
    pub sync: SyncPolicy,
    /// Checkpoint (and rotate the segment) every this many ticks; 0 never.
    pub checkpoint_every: u64,
    /// Run one scrub step every this many ticks; 0 never.
    pub scrub_every: u64,
}

impl Default for DurabilityConfig {
    fn default() -> DurabilityConfig {
        DurabilityConfig { sync: SyncPolicy::EveryTick, checkpoint_every: 64, scrub_every: 16 }
    }
}

/// Monotonic counters for everything the plane has done or survived.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct DurabilityCounts {
    /// WAL records made it onto the medium.
    pub records_appended: u64,
    /// Encoded record bytes accepted by the medium.
    pub bytes_appended: u64,
    /// Append attempts the medium refused (record stays queued).
    pub append_failures: u64,
    /// Syncs performed.
    pub syncs: u64,
    /// Checkpoints written (temp + atomic rename).
    pub checkpoints: u64,
    /// Checkpoint writes the medium refused.
    pub checkpoint_failures: u64,
    /// Bytes of checkpoint files written, framing included (cumulative).
    #[serde(default)]
    pub checkpoint_bytes: u64,
    /// Checkpoint files rejected at recovery (bad magic/CRC).
    pub checkpoints_invalid: u64,
    /// Torn-tail bytes truncated at recovery.
    pub torn_tail_bytes: u64,
    /// Mid-log corruption events diagnosed (recovery or scrub never panic).
    pub corrupt_events: u64,
    /// Files CRC-verified by the scrub stage.
    pub scrub_files: u64,
    /// Scrub verifications that failed.
    pub scrub_failures: u64,
    /// Deepest the retry backlog has been.
    pub backlog_peak: u64,
}

/// What recovery found, diagnosed, and decided.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RecoveryReport {
    /// Tick of the checkpoint restored, if any survived.
    pub checkpoint_tick: Option<u64>,
    /// Checkpoint files rejected before one validated.
    pub checkpoints_invalid: u64,
    /// WAL segments scanned.
    pub segments_scanned: u64,
    /// Records recovered beyond the checkpoint.
    pub records_recovered: u64,
    /// The tick the recovered state resumes at (checkpoint if no records).
    pub last_tick: Option<u64>,
    /// Garbage bytes truncated off a torn tail.
    pub torn_tail_bytes: u64,
    /// Mid-log corruption events (bad record before end-of-log, tick gap,
    /// torn non-final segment).
    pub corrupt_events: u64,
    /// First tick whose record could not be trusted, if any.
    pub first_bad_tick: Option<u64>,
    /// Valid-looking records discarded because they sat beyond damage.
    pub records_dropped: u64,
}

/// Everything recovery hands back to the caller.
#[derive(Debug, Clone)]
pub struct RecoveredState {
    /// `(tick, payload)` of the newest valid checkpoint.
    pub checkpoint: Option<(u64, Vec<u8>)>,
    /// WAL records after the checkpoint, contiguous, ascending.
    pub records: Vec<WalRecord>,
    /// Diagnosis of what was found and dropped.
    pub report: RecoveryReport,
}

fn seg_name(start: u64) -> String {
    format!("wal-{start:010}.seg")
}

fn ckpt_name(tick: u64) -> String {
    format!("ckpt-{tick:010}.ck")
}

/// The plane's files on a medium, read off their names alone: the one
/// place those names are parsed.  Listing reads no file and writes nothing.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PlaneFiles {
    /// `(tick, name)` of every checkpoint, oldest first.
    pub checkpoints: Vec<(u64, String)>,
    /// `(first tick, name)` of every WAL segment, oldest first.
    pub segments: Vec<(u64, String)>,
    /// Checkpoint writes a crash left before their rename.
    pub temps: Vec<String>,
}

impl PlaneFiles {
    /// List `medium`'s plane files; names of any other shape are left out.
    pub fn list(medium: &dyn StorageMedium) -> PlaneFiles {
        let tick = |name: &str, prefix: &str, suffix: &str| -> Option<u64> {
            name.strip_prefix(prefix)?.strip_suffix(suffix)?.parse().ok()
        };
        let mut files = PlaneFiles::default();
        for name in medium.list() {
            if name.ends_with(".tmp") {
                files.temps.push(name);
            } else if let Some(t) = tick(&name, "ckpt-", ".ck") {
                files.checkpoints.push((t, name));
            } else if let Some(t) = tick(&name, "wal-", ".seg") {
                files.segments.push((t, name));
            }
        }
        files.checkpoints.sort();
        files.segments.sort();
        files
    }
}

/// What recovery does to a segment file once its scan is over.
enum SegmentFix {
    /// Every byte is trusted: appends may resume on it.
    Keep,
    /// Cut to its trusted prefix, so the damage is physically gone.
    Rewrite(Vec<u8>),
    /// Nothing in it is trusted.
    Delete,
}

/// The live write-ahead-log + checkpoint orchestrator over a medium.
pub struct DurabilityPlane {
    medium: Arc<dyn StorageMedium>,
    cfg: DurabilityConfig,
    /// Current segment file name.
    seg: String,
    /// Whether the segment's magic has been written.
    seg_started: bool,
    /// Encoded records the medium refused; retried every tick — a fault
    /// window shorter than the time to the next crash loses nothing.
    backlog: VecDeque<Vec<u8>>,
    /// Reusable encode buffer for the fast path: records are megabytes at
    /// production scale, and a fresh allocation per tick pays the page
    /// faults every time.
    scratch: Vec<u8>,
    counts: DurabilityCounts,
    scrub_cursor: u64,
    last_ckpt_tick: Option<u64>,
}

impl DurabilityPlane {
    /// Fresh plane on an empty (or to-be-ignored) medium.
    pub fn new(medium: Arc<dyn StorageMedium>, cfg: DurabilityConfig) -> DurabilityPlane {
        DurabilityPlane {
            medium,
            cfg,
            seg: seg_name(0),
            seg_started: false,
            backlog: VecDeque::new(),
            scratch: Vec::new(),
            counts: DurabilityCounts::default(),
            scrub_cursor: 0,
            last_ckpt_tick: None,
        }
    }

    /// Recover from whatever the medium holds: restore the newest valid
    /// checkpoint, scan the WAL tail, truncate torn bytes, fail closed on
    /// corruption, and hand back a plane ready to append.
    pub fn recover(
        medium: Arc<dyn StorageMedium>,
        cfg: DurabilityConfig,
    ) -> (DurabilityPlane, RecoveredState) {
        let PlaneFiles { checkpoints: ckpts, segments: segs, temps } = PlaneFiles::list(&*medium);
        // A crash mid-checkpoint leaves a temp file; it was never renamed,
        // so it was never the checkpoint of record.
        for f in &temps {
            let _ = medium.delete(f);
        }

        let mut report = RecoveryReport::default();

        // Newest checkpoint that validates wins; invalid ones are counted
        // and removed so they cannot shadow the fallback next time.
        let mut checkpoint: Option<(u64, Vec<u8>)> = None;
        for (tick, name) in ckpts.iter().rev() {
            // Only a payload that verifies is copied off the medium.
            let mut payload = None;
            let _ = medium.read_with(name, &mut |b| {
                payload = decode_checkpoint(b).map(<[u8]>::to_vec);
            });
            match payload {
                Some(payload) => {
                    checkpoint = Some((*tick, payload));
                    break;
                }
                None => {
                    report.checkpoints_invalid += 1;
                    let _ = medium.delete(name);
                }
            }
        }
        report.checkpoint_tick = checkpoint.as_ref().map(|(t, _)| *t);
        let covered = report.checkpoint_tick;

        let mut records: Vec<WalRecord> = Vec::new();
        // Replay cursor: the first tick the WAL must supply.  Without a
        // checkpoint there is no external anchor, so the first record
        // defines the chain base (embedders may start counting at 0 or 1);
        // every later record must still be contiguous.
        let mut expected: Option<u64> = covered.map(|t| t + 1);
        let mut damaged = false;
        // Last segment file still present after cleanup — appends resume here.
        let mut live_seg: Option<String> = None;

        for (idx, (_start, name)) in segs.iter().enumerate() {
            if damaged {
                // Everything beyond the first damage is untrusted: fail closed.
                let mut dropped = 0;
                let _ = medium.read_with(name, &mut |b| {
                    scan_segment(b, |_| dropped += 1);
                });
                report.records_dropped += dropped;
                let _ = medium.delete(name);
                continue;
            }
            let is_last = idx + 1 == segs.len();
            report.segments_scanned += 1;
            // The segment is walked in place: only records past the
            // checkpoint are copied out, and a trusted prefix only when the
            // file must be cut to it.
            let mut walk = |bytes: &[u8]| {
                // Records seen, records trusted, and where the trusted ones end.
                let (mut seen, mut trusted, mut trusted_end) = (0, None, WAL_MAGIC.len());
                let end = scan_segment(bytes, |r| {
                    seen += 1;
                    if trusted.is_some() {
                        return;
                    }
                    // Contiguity: records must continue the checkpoint's tick chain.
                    if r.kind == KIND_TICK {
                        if covered.is_some_and(|c| r.tick <= c) {
                            // Covered by the checkpoint; redundant, harmless.
                            trusted_end += HEADER_LEN + r.payload.len();
                            return;
                        }
                        if r.tick == *expected.get_or_insert(r.tick) {
                            expected = Some(r.tick + 1);
                            trusted_end += HEADER_LEN + r.payload.len();
                            records.push(r.to_record());
                            return;
                        }
                    }
                    // A tick gap — or a kind the plane never writes, which no
                    // crash can put here — is damage at this record.
                    report.corrupt_events += 1;
                    report.first_bad_tick.get_or_insert(expected.unwrap_or(0));
                    trusted = Some(seen - 1);
                    damaged = true;
                });
                let trusted = trusted.unwrap_or(seen);
                let mut fix = SegmentFix::Keep;
                match end {
                    ScanEnd::Clean => {}
                    ScanEnd::TornTail { valid_bytes, dropped_bytes } => {
                        if damaged {
                            // Already cut earlier in this segment; the rebuild
                            // below drops the torn bytes too.
                        } else if is_last {
                            // The expected crash signature: truncate at the
                            // last valid CRC and carry on.
                            report.torn_tail_bytes += dropped_bytes;
                            fix = SegmentFix::Rewrite(bytes[..valid_bytes as usize].to_vec());
                        } else {
                            // Torn bytes with a whole segment after them — a
                            // crash cannot produce that ordering.
                            report.corrupt_events += 1;
                            report.first_bad_tick.get_or_insert(expected.unwrap_or(0));
                            damaged = true;
                        }
                    }
                    ScanEnd::Corrupt { .. } => {
                        if !damaged {
                            report.corrupt_events += 1;
                            report.first_bad_tick.get_or_insert(expected.unwrap_or(0));
                        }
                        damaged = true;
                    }
                }
                if damaged {
                    report.records_dropped += (seen - trusted) as u64;
                    fix = if trusted == 0 {
                        SegmentFix::Delete
                    } else {
                        SegmentFix::Rewrite(bytes[..trusted_end].to_vec())
                    };
                }
                fix
            };
            let mut fix = None;
            let _ = medium.read_with(name, &mut |bytes| fix = Some(walk(bytes)));
            // An unreadable segment reads as an empty one.
            match fix.unwrap_or_else(|| walk(&[])) {
                SegmentFix::Keep => live_seg = Some(name.clone()),
                SegmentFix::Rewrite(trusted) => {
                    let _ = medium.overwrite_owned(name, trusted);
                    live_seg = Some(name.clone());
                }
                SegmentFix::Delete => {
                    let _ = medium.delete(name);
                }
            }
        }

        report.records_recovered = records.len() as u64;
        report.last_tick = records.last().map(|r| r.tick).or(report.checkpoint_tick);

        let (seg, seg_started) = match live_seg {
            Some(name) => {
                let started = medium.size(&name).unwrap_or(0) > 0;
                (name, started)
            }
            None => (seg_name(expected.unwrap_or(0)), false),
        };

        let counts = DurabilityCounts {
            checkpoints_invalid: report.checkpoints_invalid,
            torn_tail_bytes: report.torn_tail_bytes,
            corrupt_events: report.corrupt_events,
            ..DurabilityCounts::default()
        };
        let plane = DurabilityPlane {
            seg,
            seg_started,
            counts,
            last_ckpt_tick: report.checkpoint_tick,
            ..DurabilityPlane::new(medium, cfg)
        };
        (plane, RecoveredState { checkpoint, records, report })
    }

    /// Queue and (best-effort) write the record for `tick`.  A refused
    /// write is counted and retried next tick — lossless unless the
    /// process crashes while the backlog is non-empty.
    pub fn append_tick(&mut self, tick: u64, payload: &[u8]) {
        self.scratch.clear();
        encode_record(KIND_TICK, tick, payload, &mut self.scratch);
        // Fast path: nothing queued, so the record can go straight from
        // the reused scratch buffer to the medium without ever being
        // allocated per tick.  It only enters the backlog (taking the
        // buffer with it) when the medium refuses the write.
        let tried_direct = self.backlog.is_empty();
        if tried_direct {
            if !self.seg_started {
                if self.medium.append(&self.seg, WAL_MAGIC).is_ok() {
                    self.seg_started = true;
                } else {
                    self.counts.append_failures += 1;
                }
            }
            if self.seg_started {
                match self.medium.append(&self.seg, &self.scratch) {
                    Ok(()) => {
                        self.counts.records_appended += 1;
                        self.counts.bytes_appended += self.scratch.len() as u64;
                        return;
                    }
                    Err(_) => self.counts.append_failures += 1,
                }
            }
        }
        self.backlog.push_back(std::mem::take(&mut self.scratch));
        let depth = self.backlog.len() as u64;
        if depth > self.counts.backlog_peak {
            self.counts.backlog_peak = depth;
        }
        if !tried_direct {
            // The medium was just tried (and refused) on the direct path;
            // retrying in the same breath would only double the counters.
            self.drain_backlog();
        }
    }

    fn drain_backlog(&mut self) {
        if !self.seg_started {
            if self.medium.append(&self.seg, WAL_MAGIC).is_err() {
                self.counts.append_failures += 1;
                return;
            }
            self.seg_started = true;
        }
        while let Some(rec) = self.backlog.front() {
            match self.medium.append(&self.seg, rec) {
                Ok(()) => {
                    self.counts.records_appended += 1;
                    self.counts.bytes_appended += rec.len() as u64;
                    self.backlog.pop_front();
                }
                Err(_) => {
                    self.counts.append_failures += 1;
                    return;
                }
            }
        }
    }

    /// End-of-tick hook: retry any backlog, then sync per policy.
    pub fn end_tick(&mut self, tick: u64) {
        if !self.backlog.is_empty() {
            self.drain_backlog();
        }
        if self.cfg.sync.should_sync(tick)
            && self.seg_started
            && self.medium.sync(&self.seg).is_ok()
        {
            self.counts.syncs += 1;
        }
    }

    /// Write a checkpoint of `snapshot` at `tick` (temp file + atomic
    /// rename), rotate to a fresh segment, and apply retention: keep the
    /// two newest checkpoints and every segment either may still need.
    pub fn checkpoint(&mut self, tick: u64, snapshot: &[u8]) -> Result<(), DiskError> {
        self.checkpoint_with(tick, |file| file.extend_from_slice(snapshot))
    }

    /// [`checkpoint`](Self::checkpoint) of the snapshot `fill` appends to
    /// the buffer it is handed: serialized once, inside the checkpoint
    /// file's frame, into the buffer the medium then keeps.  (A snapshot
    /// built apart is tens of megabytes written, copied into the frame and
    /// copied again by the medium, each into freshly mapped pages.)
    pub fn checkpoint_with(
        &mut self,
        tick: u64,
        fill: impl FnOnce(&mut Vec<u8>),
    ) -> Result<(), DiskError> {
        let name = ckpt_name(tick);
        let tmp = format!("{name}.tmp");
        let encoded = encode_checkpoint(fill);
        let bytes = encoded.len() as u64;
        if let Err(e) = self
            .medium
            .overwrite_owned(&tmp, encoded)
            .and_then(|()| self.medium.rename(&tmp, &name))
        {
            self.counts.checkpoint_failures += 1;
            return Err(e);
        }
        self.counts.checkpoints += 1;
        self.counts.checkpoint_bytes += bytes;
        // Everything ≤ tick — including any still-queued records — is
        // covered by the checkpoint.
        self.backlog.clear();
        // Seal the outgoing segment before rotating: under group commit it
        // may still hold unsynced bytes, and a later torn crash would
        // plant torn garbage in a non-final segment — which recovery must
        // treat as corruption and fail closed on, dropping a valid tail.
        if self.seg_started && self.medium.sync(&self.seg).is_ok() {
            self.counts.syncs += 1;
        }
        self.seg = seg_name(tick + 1);
        self.seg_started = false;
        // Retention: the checkpoint before this one becomes the fallback.
        // Segments rotate at checkpoints, so a segment starting at or
        // before the fallback holds only records ≤ it — covered by both
        // retained checkpoints, safe to delete.
        let files = PlaneFiles::list(&*self.medium);
        let prev = self.last_ckpt_tick;
        let covered = files.segments.partition_point(|(s, _)| prev.is_some_and(|p| *s <= p));
        let superseded = files.checkpoints.len().saturating_sub(2);
        for (_, f) in files.segments[..covered].iter().chain(&files.checkpoints[..superseded]) {
            let _ = self.medium.delete(f);
        }
        self.last_ckpt_tick = Some(tick);
        Ok(())
    }

    /// CRC-verify one file per call, round-robin over the medium.
    /// Returns the file and whether it verified.
    pub fn scrub_step(&mut self) -> Option<(String, bool)> {
        let files: Vec<String> =
            self.medium.list().into_iter().filter(|f| !f.ends_with(".tmp")).collect();
        if files.is_empty() {
            return None;
        }
        let idx = (self.scrub_cursor as usize) % files.len();
        self.scrub_cursor = self.scrub_cursor.wrapping_add(1);
        let name = files[idx].clone();
        // Verified in place: the scrub copies nothing off the medium.
        let mut ok = false;
        let _ = self.medium.read_with(&name, &mut |bytes| {
            ok = if name.ends_with(".seg") {
                scan_segment(bytes, |_| ()) == ScanEnd::Clean
            } else if name.ends_with(".ck") {
                decode_checkpoint(bytes).is_some()
            } else {
                true
            };
        });
        self.counts.scrub_files += 1;
        if !ok {
            self.counts.scrub_failures += 1;
            self.counts.corrupt_events += 1;
        }
        Some((name, ok))
    }

    /// The medium this plane writes to.
    pub fn medium(&self) -> &Arc<dyn StorageMedium> {
        &self.medium
    }

    /// The plane's configuration.
    pub fn config(&self) -> DurabilityConfig {
        self.cfg
    }

    /// Lifetime counters.
    pub fn counts(&self) -> DurabilityCounts {
        self.counts
    }

    /// Records queued waiting for the medium to accept writes again.
    pub fn backlog_len(&self) -> usize {
        self.backlog.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::medium::SimDisk;

    fn payload(tick: u64) -> Vec<u8> {
        format!("tick-{tick}-payload").into_bytes()
    }

    fn run_ticks(plane: &mut DurabilityPlane, ticks: std::ops::Range<u64>) {
        for t in ticks {
            plane.append_tick(t, &payload(t));
            plane.end_tick(t);
        }
    }

    fn cfg(sync: SyncPolicy) -> DurabilityConfig {
        DurabilityConfig { sync, ..DurabilityConfig::default() }
    }

    #[test]
    fn fsync_per_tick_survives_a_crash_with_zero_loss() {
        let disk = Arc::new(SimDisk::new());
        let mut plane = DurabilityPlane::new(disk.clone(), cfg(SyncPolicy::EveryTick));
        run_ticks(&mut plane, 0..10);
        disk.crash();
        let (_plane, state) = DurabilityPlane::recover(disk, cfg(SyncPolicy::EveryTick));
        assert_eq!(state.report.last_tick, Some(9));
        assert_eq!(state.records.len(), 10);
        for (i, r) in state.records.iter().enumerate() {
            assert_eq!(r.tick, i as u64);
            assert_eq!(r.payload, payload(i as u64));
        }
        assert_eq!(state.report.corrupt_events, 0);
        assert_eq!(state.report.torn_tail_bytes, 0);
    }

    #[test]
    fn group_commit_loss_is_bounded_by_the_window() {
        let disk = Arc::new(SimDisk::new());
        let policy = SyncPolicy::GroupCommit(4);
        let mut plane = DurabilityPlane::new(disk.clone(), cfg(policy));
        run_ticks(&mut plane, 0..10); // syncs after ticks 3 and 7
        disk.crash();
        let (_plane, state) = DurabilityPlane::recover(disk, cfg(policy));
        let last = state.report.last_tick.expect("some records survive");
        assert_eq!(last, 7, "everything up to the last group sync survives");
        assert!(9 - last <= policy.loss_bound());
    }

    #[test]
    fn checkpoint_rotates_retains_and_recovers() {
        let disk = Arc::new(SimDisk::new());
        let mut plane = DurabilityPlane::new(disk.clone(), cfg(SyncPolicy::EveryTick));
        run_ticks(&mut plane, 0..5);
        plane.checkpoint(4, b"snap@4").unwrap();
        run_ticks(&mut plane, 5..10);
        // Written in place, in pieces, the second is the file `checkpoint`
        // makes of the whole.
        plane
            .checkpoint_with(9, |file| {
                file.extend_from_slice(b"snap");
                file.extend_from_slice(b"@9");
            })
            .unwrap();
        let (first, second) = ("ckpt-0000000004.ck", "ckpt-0000000009.ck");
        assert_eq!(disk.read(second).unwrap().len(), disk.read(first).unwrap().len());
        assert_eq!(plane.counts().checkpoint_bytes, 2 * (16 + 6));
        run_ticks(&mut plane, 10..12);
        // The segment covered by both checkpoints (wal-0) must be gone.
        let files = disk.list();
        assert!(!files.contains(&"wal-0000000000.seg".to_string()), "{files:?}");
        assert!(files.contains(&"ckpt-0000000004.ck".to_string()));
        assert!(files.contains(&"ckpt-0000000009.ck".to_string()));
        disk.crash();
        let (plane2, state) = DurabilityPlane::recover(disk, cfg(SyncPolicy::EveryTick));
        assert_eq!(state.checkpoint, Some((9, b"snap@9".to_vec())));
        let ticks: Vec<u64> = state.records.iter().map(|r| r.tick).collect();
        assert_eq!(ticks, vec![10, 11], "only the tail past the checkpoint replays");
        assert_eq!(plane2.last_ckpt_tick, Some(9));
    }

    #[test]
    fn corrupt_newest_checkpoint_falls_back_to_previous() {
        let disk = Arc::new(SimDisk::new());
        let mut plane = DurabilityPlane::new(disk.clone(), cfg(SyncPolicy::EveryTick));
        run_ticks(&mut plane, 0..5);
        plane.checkpoint(4, b"snap@4").unwrap();
        run_ticks(&mut plane, 5..10);
        plane.checkpoint(9, b"snap@9").unwrap();
        disk.overwrite("ckpt-0000000009.ck", b"garbage that fails the magic").unwrap();
        let (_plane, state) = DurabilityPlane::recover(disk.clone(), cfg(SyncPolicy::EveryTick));
        assert_eq!(state.report.checkpoints_invalid, 1);
        assert_eq!(state.checkpoint, Some((4, b"snap@4".to_vec())));
        let ticks: Vec<u64> = state.records.iter().map(|r| r.tick).collect();
        assert_eq!(ticks, vec![5, 6, 7, 8, 9], "segment behind the fallback was retained");
        // The bad checkpoint is physically gone now.
        assert!(!disk.list().contains(&"ckpt-0000000009.ck".to_string()));
    }

    #[test]
    fn torn_tail_is_truncated_and_counted_then_clean() {
        let disk = Arc::new(SimDisk::new());
        let mut plane = DurabilityPlane::new(disk.clone(), cfg(SyncPolicy::GroupCommit(100)));
        run_ticks(&mut plane, 0..6);
        // Nothing synced yet; a torn crash keeps a partial prefix.
        disk.arm_torn_write(1234);
        disk.crash();
        let (mut plane2, state) =
            DurabilityPlane::recover(disk.clone(), cfg(SyncPolicy::EveryTick));
        assert_eq!(state.report.corrupt_events, 0, "a torn tail is not corruption");
        if state.report.torn_tail_bytes > 0 {
            assert!(state.records.len() < 6);
        }
        // The tail was truncated: appends resume and a second recovery is clean.
        let next = state.report.last_tick.map(|t| t + 1).unwrap_or(0);
        plane2.append_tick(next, &payload(next));
        plane2.end_tick(next);
        disk.crash();
        let (_plane3, state2) = DurabilityPlane::recover(disk, cfg(SyncPolicy::EveryTick));
        assert_eq!(state2.report.torn_tail_bytes, 0);
        assert_eq!(state2.report.corrupt_events, 0);
        assert_eq!(state2.report.last_tick, Some(next));
    }

    #[test]
    fn mid_log_corruption_fails_closed_with_a_diagnosis() {
        let disk = Arc::new(SimDisk::new());
        let mut plane = DurabilityPlane::new(disk.clone(), cfg(SyncPolicy::EveryTick));
        run_ticks(&mut plane, 0..20);
        // Flip one durable byte somewhere in the log.
        assert!(disk.corrupt_byte(99));
        let (_plane, state) = DurabilityPlane::recover(disk.clone(), cfg(SyncPolicy::EveryTick));
        assert_eq!(state.report.corrupt_events, 1);
        let bad = state.report.first_bad_tick.expect("damage is pinned to a tick");
        // The recovered prefix is exactly the ticks before the damage.
        let ticks: Vec<u64> = state.records.iter().map(|r| r.tick).collect();
        let want: Vec<u64> = (0..bad).collect();
        assert_eq!(ticks, want);
        // Fail closed means the damage is physically gone: recover again, clean.
        let (_plane2, state2) = DurabilityPlane::recover(disk, cfg(SyncPolicy::EveryTick));
        assert_eq!(state2.report.corrupt_events, 0);
        assert_eq!(state2.report.last_tick, if bad == 0 { None } else { Some(bad - 1) });
    }

    #[test]
    fn disk_full_window_backs_up_then_drains_losslessly() {
        let disk = Arc::new(SimDisk::new());
        let mut plane = DurabilityPlane::new(disk.clone(), cfg(SyncPolicy::EveryTick));
        run_ticks(&mut plane, 0..3);
        disk.set_full(true);
        run_ticks(&mut plane, 3..6);
        assert_eq!(plane.backlog_len(), 3, "refused records queue up");
        assert!(plane.counts().append_failures > 0);
        disk.set_full(false);
        run_ticks(&mut plane, 6..8);
        assert_eq!(plane.backlog_len(), 0, "backlog drains once the medium recovers");
        // Peak is measured at push time: 3 queued + the tick-6 record.
        assert_eq!(plane.counts().backlog_peak, 4);
        disk.crash();
        let (_plane, state) = DurabilityPlane::recover(disk, cfg(SyncPolicy::EveryTick));
        assert_eq!(state.report.last_tick, Some(7));
        assert_eq!(state.records.len(), 8, "the fault window lost nothing");
    }

    #[test]
    fn scrub_flags_a_corrupted_file() {
        let disk = Arc::new(SimDisk::new());
        let mut plane = DurabilityPlane::new(disk.clone(), cfg(SyncPolicy::EveryTick));
        run_ticks(&mut plane, 0..4);
        plane.checkpoint(3, b"snap").unwrap();
        // One full round-robin pass over a healthy medium.
        let files = disk.list().len();
        for _ in 0..files {
            let (_, ok) = plane.scrub_step().unwrap();
            assert!(ok);
        }
        assert!(disk.corrupt_byte(7));
        let mut failures = 0;
        for _ in 0..files {
            let (_, ok) = plane.scrub_step().unwrap();
            failures += u64::from(!ok);
        }
        assert_eq!(failures, 1);
        assert_eq!(plane.counts().scrub_failures, 1);
        assert_eq!(plane.counts().scrub_files, 2 * files as u64);
    }

    #[test]
    fn recovery_of_an_empty_medium_is_a_fresh_plane() {
        let disk = Arc::new(SimDisk::new());
        let (plane, state) = DurabilityPlane::recover(disk, DurabilityConfig::default());
        assert_eq!(state.report, RecoveryReport::default());
        assert!(state.checkpoint.is_none());
        assert!(state.records.is_empty());
        assert_eq!(plane.seg, "wal-0000000000.seg");
    }
}
