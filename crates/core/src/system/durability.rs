//! Crash durability hooks on the assembled system (DESIGN.md §15).
//!
//! With a [`hpcmon_durability::DurabilityPlane`] attached
//! ([`super::MonitorBuilder::durability`]), every tick ends by appending
//! one [`DurableTickRecord`] — the tick's external inputs, its state hash
//! when state hashing is on, and the collected frame's samples — to
//! a segmented, CRC-framed write-ahead log, synced per the configured
//! [`hpcmon_durability::SyncPolicy`].  On the checkpoint cadence the full
//! [`super::CoreSnapshot`] is written (temp + rename, CRC-framed) and the
//! log rotates.
//!
//! [`MonitoringSystem::recover_from_medium`] is the other half: after a
//! crash, a *freshly built* system (same configuration) restores the
//! newest valid checkpoint and replays the WAL tail through
//! [`MonitoringSystem::replay_tick`] — the ordinary input/tick path, and,
//! when state hashing is enabled, a check of each replayed tick against
//! the hash the crashed run recorded.  Recovery is fail-closed and never
//! panics on damaged media: torn tails are truncated at the last valid
//! CRC, mid-log corruption stops the replay at the first bad record, and
//! everything dropped is counted in the returned [`RecoveryOutcome`].

use super::state::{TickInputs, TickStateHash};
use super::{MonitoringSystem, TickCtx};
use hpcmon_durability::{
    DiskError, DurabilityConfig, DurabilityPlane, RecoveredState, RecoveryReport, StorageMedium,
};
use hpcmon_metrics::ColumnFrame;
use serde::{Deserialize, Serialize};
use std::sync::Arc;
use std::time::Instant;

/// Everything one tick appends to the write-ahead log.  The JSON head
/// (inputs + expected hash) is what replay needs; the binary sample
/// section makes the collected data itself durable — after a crash the
/// raw samples of every logged tick are still readable straight off the
/// medium, replayer or not.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct DurableTickRecord {
    /// The tick this record captures.
    pub tick: u64,
    /// External inputs applied before this tick ran.
    pub inputs: TickInputs,
    /// The system's state hash after this tick (`None` with hashing off):
    /// recovery verifies the replayed tick against it, and a
    /// [`Replayer`](super::Replayer) refuses a medium whose ticks lack it.
    pub hash: Option<TickStateHash>,
}

/// One sample from the binary section of a durable tick record.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DurableSample {
    /// Metric id (dense registry index).
    pub metric: u32,
    /// Component kind discriminant.
    pub kind: u8,
    /// Component index.
    pub index: u32,
    /// Sample value.
    pub value: f64,
}

/// Bytes per sample in the binary section: metric u32 + kind u8 +
/// index u32 + value f64, all little-endian.  No stamp: every sample is
/// the frame's, and the record's `tick` names the frame.
pub const SAMPLE_LEN: usize = 4 + 1 + 4 + 8;

/// Encode a tick record as `[u32 json_len][json][u64 n][n × 17B samples]`.
pub fn encode_tick_record(record: &DurableTickRecord, frame: &ColumnFrame) -> Vec<u8> {
    let json = serde_json::to_vec(record).expect("DurableTickRecord serializes");
    let mut out = Vec::with_capacity(4 + json.len() + 8 + frame.len() * SAMPLE_LEN);
    out.extend_from_slice(&(json.len() as u32).to_le_bytes());
    out.extend_from_slice(&json);
    out.extend_from_slice(&(frame.len() as u64).to_le_bytes());
    for (key, value) in frame.keys.iter().zip(&frame.values) {
        // One 17-byte write per sample: at production scale this loop
        // runs ~100k times per tick, and per-field extends dominate it.
        let mut s = [0u8; SAMPLE_LEN];
        s[0..4].copy_from_slice(&key.metric.0.to_le_bytes());
        s[4] = key.comp.kind as u8;
        s[5..9].copy_from_slice(&key.comp.index.to_le_bytes());
        s[9..17].copy_from_slice(&value.to_le_bytes());
        out.extend_from_slice(&s);
    }
    out
}

/// Decode a tick record's JSON head and binary sample section.  `None` on
/// any structural damage (recovery counts it and moves on — the WAL layer
/// has already CRC-checked the payload, so a decode failure here means
/// schema skew, not bit rot).
pub fn decode_tick_record(bytes: &[u8]) -> Option<(DurableTickRecord, Vec<DurableSample>)> {
    let (record, body) = decode_tick_head(bytes)?;
    let samples = body
        .chunks_exact(SAMPLE_LEN)
        .map(|s| DurableSample {
            metric: u32::from_le_bytes(s[0..4].try_into().unwrap()),
            kind: s[4],
            index: u32::from_le_bytes(s[5..9].try_into().unwrap()),
            value: f64::from_le_bytes(s[9..17].try_into().unwrap()),
        })
        .collect();
    Some((record, samples))
}

/// A tick record's JSON head, and its sample section in place once the
/// section's count checks out: what replay needs, without decoding the
/// samples.  `None` exactly where [`decode_tick_record`] is.
pub(super) fn decode_tick_head(bytes: &[u8]) -> Option<(DurableTickRecord, &[u8])> {
    let json_len = u32::from_le_bytes(bytes.get(..4)?.try_into().ok()?) as usize;
    let rest = bytes.get(4..)?;
    let record: DurableTickRecord = serde_json::from_slice(rest.get(..json_len)?).ok()?;
    let rest = &rest[json_len..];
    let n = u64::from_le_bytes(rest.get(..8)?.try_into().ok()?);
    // The count is bytes someone handed us: compare it to what is there by
    // dividing, never by multiplying it out (17 is odd, so some `n` near
    // 2^64 wraps `n * 17` onto any trailing length).  A record in the older
    // layout, 25 bytes a sample, fails here too: 25n bytes are never 17n
    // for n ≥ 1, and with no samples the two layouts are the same bytes.
    let body = &rest[8..];
    if body.len() % SAMPLE_LEN != 0 || (body.len() / SAMPLE_LEN) as u64 != n {
        return None;
    }
    Some((record, body))
}

/// What [`MonitoringSystem::recover_from_medium`] did: the storage-layer
/// scan report plus the replay's verdict.  `Serialize` so crash harnesses
/// can diff outcomes as JSON.
#[derive(Debug, Clone, Default, Serialize)]
pub struct RecoveryOutcome {
    /// The durability plane's scan report (segments, torn bytes,
    /// corruption events, records dropped).
    pub report: RecoveryReport,
    /// Tick of the checkpoint the recovery restored from, if any.
    pub checkpoint_tick: Option<u64>,
    /// WAL-tail ticks replayed after the checkpoint.
    pub replayed_ticks: u64,
    /// The tick count the system resumed at.
    pub resumed_tick: u64,
    /// Replayed ticks whose state hash differed from the recorded one
    /// (always 0 for an honest medium; requires hashing enabled on both
    /// the recording and the recovering system).
    pub hash_mismatches: u64,
    /// First tick whose hash mismatched, if any.
    pub first_mismatch_tick: Option<u64>,
    /// The first subsystem whose sub-hash differed at that tick
    /// ([`TickStateHash::first_divergence`]) — where to start looking.
    pub first_mismatch_subsystem: Option<&'static str>,
    /// Records whose payload passed the WAL CRC but failed tick-record
    /// decoding (schema skew) — skipped, never fatal.
    pub undecodable_records: u64,
    /// Whether a CRC-valid checkpoint failed `CoreSnapshot` decoding; the
    /// WAL tail cannot replay against unknown state, so recovery resumed
    /// fresh and counted every tail record as dropped.
    pub checkpoint_undecodable: bool,
}

impl MonitoringSystem {
    /// Recover this system's state from a crashed run's storage medium:
    /// restore the newest valid checkpoint, replay the WAL tail through
    /// the ordinary input/tick path, then attach a durability plane over
    /// the medium (resealed with a fresh checkpoint) so the run continues
    /// journaling from where it resumed.
    ///
    /// The system must be freshly built from the same configuration as
    /// the crashed run (same collectors, detectors, chaos plan, shard
    /// count), with no ticks run yet.  Enable
    /// [`MonitoringSystem::set_state_hashing`] first to have every
    /// replayed tick verified against the recorded hash chain.
    ///
    /// Never panics on damaged media: torn tails, corrupt records, and
    /// undecodable payloads are counted in the returned
    /// [`RecoveryOutcome`] and the replay stops at the first bad record.
    pub fn recover_from_medium(
        &mut self,
        medium: Arc<dyn StorageMedium>,
        cfg: DurabilityConfig,
    ) -> RecoveryOutcome {
        assert!(
            self.durability.is_none(),
            "recover_from_medium: a durability plane is already attached"
        );
        let (mut plane, state) = DurabilityPlane::recover(medium, cfg);
        let RecoveredState { checkpoint, mut records, report } = state;
        let mut outcome = RecoveryOutcome {
            report,
            checkpoint_tick: checkpoint.as_ref().map(|(t, _)| *t),
            ..RecoveryOutcome::default()
        };
        // What recovery read is freed as soon as it is used, so the reseal
        // below does not stack its buffers on top of the checkpoint's.
        if let Some((_, payload)) = checkpoint {
            let parsed = serde_json::from_slice::<super::CoreSnapshot>(&payload);
            drop(payload);
            match parsed {
                Ok(snap) => self.restore_snapshot(snap),
                Err(_) => {
                    // CRC-valid bytes that are not a CoreSnapshot: schema
                    // skew.  The tail was logged against state we cannot
                    // reconstruct, so fail closed — resume fresh rather
                    // than replay inputs against the wrong baseline.
                    outcome.checkpoint_undecodable = true;
                    outcome.checkpoint_tick = None;
                    outcome.report.records_dropped += records.len() as u64;
                    records.clear();
                }
            }
        }
        for rec in records {
            // Replay needs the head alone; the samples are the store's.
            let Some((dtr, _)) = decode_tick_head(&rec.payload) else {
                outcome.undecodable_records += 1;
                continue;
            };
            // Policy here: count a mismatch and carry on — the medium
            // is all there is, and a resumed run beats none.
            let mismatch = self.replay_tick(&dtr);
            outcome.replayed_ticks += 1;
            if let Some((expected, actual)) = mismatch {
                outcome.hash_mismatches += 1;
                if outcome.first_mismatch_tick.is_none() {
                    outcome.first_mismatch_tick = Some(dtr.tick);
                    outcome.first_mismatch_subsystem = expected.first_divergence(&actual);
                }
            }
        }
        let resumed = self.engine.tick_count();
        outcome.resumed_tick = resumed;
        // The `store.durability` SLO is fed lifetime totals and the new
        // plane's start from zero: carry on from what the crashed run last
        // fed (restored with the health engine, or replayed from the tail),
        // so this run's first append — and whatever damage recovery itself
        // counted — is a delta the SLO sees.
        let fed = self.health.as_ref().and_then(|h| h.last_total("store.durability"));
        self.durability_feed_base = fed.map_or((0, 0), |(good, bad)| (good as u64, bad as u64));
        // Reseal: checkpoint the recovered state so the next crash
        // restores from here instead of re-replaying this whole tail.
        let _ = self.write_checkpoint(&mut plane, resumed);
        self.pending_inputs = TickInputs::default();
        self.durability = Some(plane);
        outcome
    }

    /// Re-run one journaled tick and check it against the journal: apply
    /// the record's inputs, tick, compare the whole [`TickStateHash`] with
    /// the one recorded.  A mismatch comes back as `(expected, actual)`;
    /// what to do about one is the caller's policy (crash recovery counts
    /// it and continues, the [`Replayer`](super::Replayer) stops and
    /// reports).  A record without a hash, or a system with hashing off,
    /// has nothing to compare and never mismatches.
    pub fn replay_tick(
        &mut self,
        record: &DurableTickRecord,
    ) -> Option<(TickStateHash, TickStateHash)> {
        self.apply_tick_inputs(&record.inputs);
        self.tick();
        let (expected, actual) = (record.hash?, self.last_state_hash?);
        (expected != actual).then_some((expected, actual))
    }

    /// Checkpoint the whole system at `tick`, the `CoreSnapshot` serialized
    /// straight into the checkpoint file's buffer.
    fn write_checkpoint(&self, plane: &mut DurabilityPlane, tick: u64) -> Result<(), DiskError> {
        let snapshot = self.snapshot();
        plane.checkpoint_with(tick, |file| {
            serde_json::to_writer(file, &snapshot).expect("CoreSnapshot serializes")
        })
    }

    /// Lifetime durability counters (`None` when no plane is attached).
    pub fn durability_counts(&self) -> Option<hpcmon_durability::DurabilityCounts> {
        self.durability.as_ref().map(|p| p.counts())
    }

    /// Tick stage `wal`, the last: with a plane attached, append this
    /// tick's record — strictly after the hash, so the record carries the
    /// value recovery verifies against — sync per policy, checkpoint +
    /// rotate and advance the scrub on their cadences, and republish the
    /// plane's counters as `durability.*` telemetry.
    pub(super) fn finish_tick_durability(&mut self, _: &mut TickCtx<'_>) {
        // take/put-back: `self.snapshot()` below needs `&self` while the
        // plane needs `&mut`.
        let Some(mut plane) = self.durability.take() else { return };
        let tick_no = self.engine.tick_count();
        let record = DurableTickRecord {
            tick: tick_no,
            inputs: std::mem::take(&mut self.pending_inputs),
            hash: self.last_state_hash.filter(|h| h.tick == tick_no),
        };
        let frame = self.last_frame.as_ref().expect("transport publishes the frame");
        let payload = encode_tick_record(&record, frame);
        plane.append_tick(tick_no, &payload);
        plane.end_tick(tick_no);
        let cfg = plane.config();
        if cfg.checkpoint_every > 0 && tick_no.is_multiple_of(cfg.checkpoint_every) {
            let started = Instant::now();
            let _ = self.write_checkpoint(&mut plane, tick_no);
            self.instruments.stage_checkpoint.record_ns(started.elapsed().as_nanos() as u64);
        }
        if cfg.scrub_every > 0 && tick_no.is_multiple_of(cfg.scrub_every) {
            let _ = plane.scrub_step();
        }
        self.instruments.sync_durability(plane.counts(), plane.backlog_len());
        self.durability = Some(plane);
    }
}
