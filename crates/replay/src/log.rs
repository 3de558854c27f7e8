//! The event log: one WAL record stream in one file.
//!
//! Layout: the segment magic `HPCMWAL1`, then
//! [`hpcmon_durability::wal`] records — the same CRC-checked
//! `[kind][tick][len][crc][payload]` framing the durability plane appends
//! to its segments, read back by the same scanner.  A `KIND_HEADER` record
//! carries the [`RunSpec`] as JSON, each tick is a `KIND_TICK` record
//! whose payload is what the plane journals for a tick
//! ([`encode_tick_record`], with an empty sample section), each checkpoint
//! a `KIND_SNAPSHOT` record holding the bytes of a checkpoint file (the
//! [`CoreSnapshot`] as JSON), and an empty `KIND_END` record closes the
//! log — so one cut off mid-write (crashed recorder, truncated artifact
//! upload) is *rejected* as [`LogError::Truncated`] rather than silently
//! replayed short, even when the cut falls between two records.

use hpcmon::system::durability::{decode_tick_record, encode_tick_record};
use hpcmon::{CoreSnapshot, DurableTickRecord};
use hpcmon_durability::wal::{
    encode_record, scan_segment, KIND_END, KIND_HEADER, KIND_SNAPSHOT, KIND_TICK, WAL_MAGIC,
};
use hpcmon_durability::ScanEnd;
use hpcmon_metrics::ColumnFrame;
use serde::{Deserialize, Serialize};

use crate::RunSpec;

/// Why a byte buffer failed to parse as an event log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LogError {
    /// The buffer does not start with the WAL magic.
    BadMagic,
    /// The buffer ends before a valid end record: the log was cut off
    /// while being written or transferred.
    Truncated,
    /// A record kind this version does not understand.
    UnknownFrame(u8),
    /// A record failed its CRC, or its payload failed to decode.
    Corrupt(String),
    /// The log has no header record, or records in an impossible order.
    Malformed(String),
}

impl std::fmt::Display for LogError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LogError::BadMagic => write!(f, "not an hpcmon event log (bad magic)"),
            LogError::Truncated => write!(f, "event log truncated before its end record"),
            LogError::UnknownFrame(k) => write!(f, "unknown record kind 0x{k:02X}"),
            LogError::Corrupt(msg) => write!(f, "corrupt record: {msg}"),
            LogError::Malformed(msg) => write!(f, "malformed event log: {msg}"),
        }
    }
}

impl std::error::Error for LogError {}

/// A complete recorded run: header, per-tick records, and snapshots.
pub struct EventLog {
    /// The run configuration needed to rebuild an identical system.
    pub spec: RunSpec,
    /// One record per executed tick, in order: `ticks[i].tick == i + 1`,
    /// and every `hash` is `Some` (a log tick without one is malformed).
    pub ticks: Vec<DurableTickRecord>,
    /// Checkpoints, in tick order, written every
    /// [`RunSpec::snapshot_every`] ticks so replay can seek without
    /// re-running from tick 0.
    pub snapshots: Vec<CoreSnapshot>,
}

impl EventLog {
    /// Serialize to the framed binary format.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = WAL_MAGIC.to_vec();
        encode_record(KIND_HEADER, 0, &encode_json(&self.spec), &mut out);
        let snapshot = |s: &CoreSnapshot, out: &mut Vec<u8>| {
            encode_record(KIND_SNAPSHOT, s.tick(), &encode_json(s), out)
        };
        // Interleave snapshots at their tick position so a streaming
        // writer and this batch writer produce the same bytes.
        let no_samples = ColumnFrame::default();
        let mut snaps = self.snapshots.iter().peekable();
        for rec in &self.ticks {
            encode_record(KIND_TICK, rec.tick, &encode_tick_record(rec, &no_samples), &mut out);
            while let Some(s) = snaps.next_if(|s| s.tick() == rec.tick) {
                snapshot(s, &mut out);
            }
        }
        // Snapshots recorded past the last tick (tick-0 checkpoints of an
        // empty run) still need flushing.
        for s in snaps {
            snapshot(s, &mut out);
        }
        encode_record(KIND_END, self.len(), &[], &mut out);
        out
    }

    /// Parse the framed binary format, rejecting truncated, damaged or
    /// unknown input: nothing is decoded until every record has passed its
    /// CRC.
    pub fn from_bytes(bytes: &[u8]) -> Result<EventLog, LogError> {
        if !bytes.starts_with(WAL_MAGIC) {
            let cut = WAL_MAGIC.starts_with(bytes);
            return Err(if cut { LogError::Truncated } else { LogError::BadMagic });
        }
        // Records are lent in place; only what they decode to is kept.
        let mut records = Vec::new();
        match scan_segment(bytes, |r| records.push(r)) {
            ScanEnd::Clean => {}
            ScanEnd::TornTail { .. } => return Err(LogError::Truncated),
            ScanEnd::Corrupt { offset, .. } => {
                return Err(LogError::Corrupt(format!("record at byte {offset} fails its check")))
            }
        }
        // The end record first: a log without one is cut, whatever else
        // it holds, and nothing of it is worth decoding.
        let Some((end, records)) = records.split_last().filter(|(end, _)| end.kind == KIND_END)
        else {
            return Err(LogError::Truncated);
        };
        if !end.payload.is_empty() {
            return Err(LogError::Corrupt("end record carries payload".into()));
        }
        let malformed = |msg: String| Err(LogError::Malformed(msg));
        let mut spec: Option<RunSpec> = None;
        let mut ticks: Vec<DurableTickRecord> = Vec::new();
        let mut snapshots: Vec<CoreSnapshot> = Vec::new();
        for rec in records {
            match rec.kind {
                KIND_HEADER if spec.is_some() => return malformed("duplicate header".into()),
                KIND_HEADER => spec = Some(decode_json(rec.payload)?),
                KIND_TICK => {
                    let (tick, _) = decode_tick_record(rec.payload)
                        .ok_or_else(|| LogError::Corrupt("tick record does not decode".into()))?;
                    if tick.tick != ticks.len() as u64 + 1 {
                        return malformed(format!("tick {} follows {}", tick.tick, ticks.len()));
                    }
                    if tick.hash.is_none() {
                        return malformed(format!("tick {} carries no state hash", tick.tick));
                    }
                    ticks.push(tick);
                }
                KIND_SNAPSHOT => snapshots.push(decode_json(rec.payload)?),
                KIND_END => return malformed("records after an end record".into()),
                other => return Err(LogError::UnknownFrame(other)),
            }
        }
        let spec = spec.ok_or_else(|| LogError::Malformed("missing header".into()))?;
        Ok(EventLog { spec, ticks, snapshots })
    }

    /// Write the framed binary format to a file.
    pub fn write_to(&self, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
        std::fs::write(path, self.to_bytes())
    }

    /// Read and parse an event log from a file.
    pub fn read_from(path: impl AsRef<std::path::Path>) -> std::io::Result<EventLog> {
        let bytes = std::fs::read(path)?;
        EventLog::from_bytes(&bytes)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
    }

    /// The tick count this log covers.
    pub fn len(&self) -> u64 {
        self.ticks.len() as u64
    }

    /// Whether the log records zero ticks.
    pub fn is_empty(&self) -> bool {
        self.ticks.is_empty()
    }

    /// The latest snapshot at or before `tick` (tick 0 = initial state,
    /// which has no snapshot unless the recorder wrote one).
    pub(crate) fn nearest_snapshot(&self, tick: u64) -> Option<&CoreSnapshot> {
        self.snapshots.iter().rev().find(|s| s.tick() <= tick)
    }
}

fn encode_json<T: Serialize>(value: &T) -> Vec<u8> {
    serde_json::to_vec(value).expect("event-log payloads always serialize")
}

fn decode_json<T: for<'de> Deserialize<'de>>(payload: &[u8]) -> Result<T, LogError> {
    serde_json::from_slice(payload).map_err(|e| LogError::Corrupt(e.to_string()))
}
