//! WAL and checkpoint codecs: framed records, CRC discipline, and the
//! segment scanner that tells a *torn tail* (crash mid-append — expected,
//! truncate and continue) from *mid-log corruption* (bit rot — diagnose,
//! count, fail closed).
//!
//! ## Record layout
//!
//! A segment file is the 8-byte magic `HPCMWAL1` followed by records:
//!
//! ```text
//! [kind u8][tick u64 LE][len u32 LE][crc u32 LE][payload; len]
//! ```
//!
//! The CRC covers kind + tick + len + payload, so a flipped bit anywhere
//! in a record — header or body — fails the check.  Lengths are bounded
//! (`MAX_RECORD_LEN`) so a corrupted length field cannot make the scanner
//! trust a gigabyte of garbage.
//!
//! The scanner frames records and checks them; what a kind *means* is its
//! reader's business.  The durability plane writes only [`KIND_TICK`], and
//! recovery and replay treat any other kind in a segment as damage.
//!
//! A checkpoint file is `HPCMCKP1` + `[len u32][crc u32][payload]` with
//! the CRC over the payload alone.

use crate::crc::{crc32, crc32_finish, crc32_update, CRC_INIT};
use serde::{Deserialize, Serialize};

/// Magic prefix of every WAL segment file.
pub const WAL_MAGIC: &[u8; 8] = b"HPCMWAL1";
/// Magic prefix of every checkpoint file.
pub const CKPT_MAGIC: &[u8; 8] = b"HPCMCKP1";
/// Record kind for a per-tick payload: external inputs, state hash and
/// the frame's samples.
pub const KIND_TICK: u8 = 0x01;
/// Upper bound on a record payload.  A length field above this is
/// corruption by definition, not a real record.
pub const MAX_RECORD_LEN: u32 = 64 * 1024 * 1024;

/// Bytes of a record's frame ahead of its payload.
pub(crate) const HEADER_LEN: usize = 1 + 8 + 4 + 4;

/// When the WAL is made durable relative to the tick that produced it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SyncPolicy {
    /// `fsync` at the end of every tick: a crash loses nothing.
    EveryTick,
    /// `fsync` every `n` ticks: a crash loses at most the last window.
    GroupCommit(u64),
}

impl SyncPolicy {
    /// The worst-case number of ticks a crash can lose under this policy.
    pub fn loss_bound(&self) -> u64 {
        match self {
            SyncPolicy::EveryTick => 0,
            SyncPolicy::GroupCommit(n) => (*n).max(1),
        }
    }

    /// Whether a tick ending at `tick` must sync.
    pub(crate) fn should_sync(&self, tick: u64) -> bool {
        match self {
            SyncPolicy::EveryTick => true,
            SyncPolicy::GroupCommit(n) => {
                let n = (*n).max(1);
                tick % n == n - 1
            }
        }
    }
}

/// One WAL record with its own payload, for a caller that keeps it past
/// the bytes it was scanned from ([`RecordRef::to_record`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalRecord {
    /// What the payload is (`KIND_*`).
    pub kind: u8,
    /// The tick this record captures.
    pub tick: u64,
    /// Opaque payload (the core's serialized tick record).
    pub payload: Vec<u8>,
}

/// One record as [`scan_segment`] frames it: the payload is a slice of the
/// scanned bytes, so looking at a record copies nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecordRef<'a> {
    /// What the payload is (`KIND_*`).
    pub kind: u8,
    /// The tick this record captures.
    pub tick: u64,
    /// The payload, in place.
    pub payload: &'a [u8],
}

impl RecordRef<'_> {
    /// The record with a copy of its payload.
    pub fn to_record(&self) -> WalRecord {
        WalRecord { kind: self.kind, tick: self.tick, payload: self.payload.to_vec() }
    }
}

/// Encode one record (header + CRC + payload) into `out`.
///
/// Panics if `payload` is longer than [`MAX_RECORD_LEN`]: the scanner would
/// refuse the record as an insane length, so it must fail where it is
/// written, not where it is read.
pub fn encode_record(kind: u8, tick: u64, payload: &[u8], out: &mut Vec<u8>) {
    assert!(
        payload.len() as u64 <= MAX_RECORD_LEN as u64,
        "a {}-byte WAL record payload exceeds MAX_RECORD_LEN",
        payload.len()
    );
    let start = out.len();
    out.push(kind);
    out.extend_from_slice(&tick.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&[0u8; 4]); // crc placeholder
    out.extend_from_slice(payload);
    // CRC over kind + tick + len + payload (everything but the crc field),
    // streamed so the payload is never copied just to be checksummed.
    let crc = crc32_finish(crc32_update(crc32_update(CRC_INIT, &out[start..start + 13]), payload));
    out[start + 13..start + 17].copy_from_slice(&crc.to_le_bytes());
}

/// How a segment scan ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ScanEnd {
    /// Every byte parsed into valid records.
    Clean,
    /// The segment ends in a partial or CRC-invalid record with nothing
    /// after it: the signature of a crash mid-append.  Recovery truncates
    /// the file to `valid_bytes` and continues.
    TornTail {
        /// Bytes up to and including the last valid record.
        valid_bytes: u64,
        /// Bytes of torn garbage dropped after it.
        dropped_bytes: u64,
    },
    /// An invalid record with more data *after* it — or a missing/broken
    /// magic — which a torn append cannot produce.  Fail closed at this
    /// offset; everything after is untrusted.
    Corrupt {
        /// Byte offset of the first bad record.
        offset: u64,
        /// Tick of the record preceding the damage, if any parsed.
        tick_hint: Option<u64>,
    },
}

/// Scan a WAL segment, handing `each` every valid record up to the first
/// damage, in order, and returning how the scan ended.  Records are lent
/// in place: a caller copies only what it keeps.  Never panics on
/// arbitrary bytes.
pub fn scan_segment<'a>(bytes: &'a [u8], mut each: impl FnMut(RecordRef<'a>)) -> ScanEnd {
    if bytes.is_empty() {
        return ScanEnd::Clean;
    }
    if bytes.len() < WAL_MAGIC.len() {
        // A torn first write of the magic itself.
        return ScanEnd::TornTail { valid_bytes: 0, dropped_bytes: bytes.len() as u64 };
    }
    if &bytes[..WAL_MAGIC.len()] != WAL_MAGIC {
        return ScanEnd::Corrupt { offset: 0, tick_hint: None };
    }
    let mut off = WAL_MAGIC.len();
    let mut tick_hint = None;
    loop {
        if off == bytes.len() {
            return ScanEnd::Clean;
        }
        let rest = &bytes[off..];
        // Partial header or body at EOF is a torn tail by construction:
        // nothing can follow it.
        let (ok, total) = validate_record(rest);
        if ok {
            let tick = u64::from_le_bytes(rest[1..9].try_into().unwrap());
            each(RecordRef { kind: rest[0], tick, payload: &rest[HEADER_LEN..total] });
            tick_hint = Some(tick);
            off += total;
            continue;
        }
        // Invalid record. Torn tail iff the damage plausibly runs to EOF:
        // the record is incomplete, or it is the last thing in the file.
        let runs_to_eof = total == 0 || off + total >= bytes.len();
        if runs_to_eof {
            return ScanEnd::TornTail {
                valid_bytes: off as u64,
                dropped_bytes: (bytes.len() - off) as u64,
            };
        }
        return ScanEnd::Corrupt { offset: off as u64, tick_hint };
    }
}

/// Check the record at the head of `rest`.  Returns `(valid, total_len)`;
/// `total_len == 0` means the record is incomplete (header or body runs
/// past EOF) and its true extent is unknowable.
fn validate_record(rest: &[u8]) -> (bool, usize) {
    if rest.len() < HEADER_LEN {
        return (false, 0);
    }
    let len = u32::from_le_bytes(rest[9..13].try_into().unwrap());
    if len > MAX_RECORD_LEN {
        // An insane length leaves no trustworthy extent.
        return (false, 0);
    }
    let total = HEADER_LEN + len as usize;
    if rest.len() < total {
        return (false, 0);
    }
    let stored_crc = u32::from_le_bytes(rest[13..17].try_into().unwrap());
    let crc =
        crc32_finish(crc32_update(crc32_update(CRC_INIT, &rest[..13]), &rest[HEADER_LEN..total]));
    (crc == stored_crc, total)
}

/// Encode a checkpoint file: magic + len + crc + payload, the payload being
/// whatever `fill` appends to the buffer it is handed — so a caller that
/// serializes its payload writes it once, in place, instead of building it
/// and copying it in.
pub(crate) fn encode_checkpoint(fill: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
    let mut out = CKPT_MAGIC.to_vec();
    out.extend_from_slice(&[0; 8]);
    let head = out.len();
    fill(&mut out);
    let (len, crc) = ((out.len() - head) as u32, crc32(&out[head..]));
    out[head - 8..head - 4].copy_from_slice(&len.to_le_bytes());
    out[head - 4..head].copy_from_slice(&crc.to_le_bytes());
    out
}

/// Decode a checkpoint file, returning its payload in place iff magic,
/// length and CRC all check out.
pub fn decode_checkpoint(bytes: &[u8]) -> Option<&[u8]> {
    let head = CKPT_MAGIC.len() + 8;
    if bytes.len() < head || &bytes[..CKPT_MAGIC.len()] != CKPT_MAGIC {
        return None;
    }
    let len = u32::from_le_bytes(bytes[8..12].try_into().unwrap()) as usize;
    let crc = u32::from_le_bytes(bytes[12..16].try_into().unwrap());
    if bytes.len() - head != len {
        return None;
    }
    let payload = &bytes[head..];
    if crc32(payload) != crc {
        return None;
    }
    Some(payload)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every record the scan lends, copied, and how it ended.
    fn scan(bytes: &[u8]) -> (Vec<WalRecord>, ScanEnd) {
        let mut records = Vec::new();
        let end = scan_segment(bytes, |r| records.push(r.to_record()));
        (records, end)
    }

    fn segment(records: &[(u64, &[u8])]) -> Vec<u8> {
        let mut out = WAL_MAGIC.to_vec();
        for (tick, payload) in records {
            encode_record(KIND_TICK, *tick, payload, &mut out);
        }
        out
    }

    #[test]
    fn roundtrip_and_clean_scan() {
        let seg = segment(&[(0, b"alpha"), (1, b"beta"), (2, b"")]);
        let (records, end) = scan(&seg);
        assert_eq!(end, ScanEnd::Clean);
        assert_eq!(records.len(), 3);
        assert_eq!(records[0], WalRecord { kind: KIND_TICK, tick: 0, payload: b"alpha".to_vec() });
        assert_eq!(records[2], WalRecord { kind: KIND_TICK, tick: 2, payload: Vec::new() });
    }

    #[test]
    #[should_panic(expected = "exceeds MAX_RECORD_LEN")]
    fn a_payload_over_the_record_bound_panics_at_the_writer() {
        let payload = vec![0u8; MAX_RECORD_LEN as usize + 1];
        encode_record(KIND_TICK, 0, &payload, &mut Vec::new());
    }

    #[test]
    fn every_kind_round_trips_and_a_flipped_kind_fails_its_crc() {
        // The scanner frames and checks; it does not judge kinds — 0x42 is
        // nobody's, and still comes back as written.
        let kinds = [0x02, KIND_TICK, 0x03, 0x42, 0x7F];
        let mut seg = WAL_MAGIC.to_vec();
        for (i, kind) in kinds.iter().enumerate() {
            encode_record(*kind, i as u64, b"body", &mut seg);
        }
        let (records, end) = scan(&seg);
        assert_eq!(end, ScanEnd::Clean);
        assert_eq!(records.iter().map(|r| r.kind).collect::<Vec<_>>(), kinds);
        // The kind byte is under the CRC: 0x01 → 0x03 is one bit.
        let second = WAL_MAGIC.len() + HEADER_LEN + 4;
        seg[second] ^= KIND_TICK ^ 0x03;
        let (records, end) = scan(&seg);
        assert_eq!(records.len(), 1);
        assert_eq!(end, ScanEnd::Corrupt { offset: second as u64, tick_hint: Some(0) });
    }

    #[test]
    fn every_truncation_is_a_torn_tail_never_a_panic() {
        let seg = segment(&[(0, b"alpha"), (1, b"longer payload here"), (2, b"z")]);
        for end in 0..seg.len() {
            let (records, verdict) = scan(&seg[..end]);
            match verdict {
                ScanEnd::Clean => {
                    // Only at record boundaries.
                    assert!(records.len() <= 3);
                }
                ScanEnd::TornTail { valid_bytes, dropped_bytes } => {
                    assert_eq!(valid_bytes + dropped_bytes, end as u64);
                    let (again, end2) = scan(&seg[..valid_bytes as usize]);
                    assert_eq!(end2, ScanEnd::Clean, "truncation must be clean");
                    assert_eq!(again, records);
                }
                ScanEnd::Corrupt { .. } => panic!("truncation misdiagnosed as corruption"),
            }
        }
    }

    #[test]
    fn mid_log_bit_flip_is_corruption_with_a_tick_hint() {
        let seg = segment(&[(7, b"alpha"), (8, b"beta"), (9, b"gamma")]);
        // Flip a byte inside record 8's payload (not the last record).
        let off = WAL_MAGIC.len() + (17 + 5) + 17; // first payload byte of record 1
        let mut bad = seg.clone();
        bad[off] ^= 0x01;
        let (records, end) = scan(&bad);
        assert_eq!(records.len(), 1, "only the prefix before the damage survives");
        match end {
            ScanEnd::Corrupt { offset, tick_hint } => {
                assert_eq!(offset, (WAL_MAGIC.len() + 22) as u64);
                assert_eq!(tick_hint, Some(7));
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn flip_in_the_final_record_is_a_torn_tail() {
        let seg = segment(&[(0, b"alpha"), (1, b"beta")]);
        let mut bad = seg.clone();
        let last = bad.len() - 1;
        bad[last] ^= 0x80;
        let (records, end) = scan(&bad);
        assert_eq!(records.len(), 1);
        assert!(matches!(end, ScanEnd::TornTail { .. }), "got {end:?}");
    }

    #[test]
    fn insane_length_field_fails_closed() {
        let mut seg = segment(&[(0, b"alpha")]);
        let mut raw = vec![KIND_TICK];
        raw.extend_from_slice(&1u64.to_le_bytes());
        raw.extend_from_slice(&u32::MAX.to_le_bytes());
        raw.extend_from_slice(&[0u8; 4]);
        seg.extend_from_slice(&raw);
        seg.extend_from_slice(b"trailing bytes beyond the bad record");
        let (records, end) = scan(&seg);
        assert_eq!(records.len(), 1);
        // Incomplete extent → treated as running to EOF → torn tail.
        assert!(matches!(end, ScanEnd::TornTail { .. }), "got {end:?}");
    }

    #[test]
    fn bad_magic_is_corruption_at_offset_zero() {
        let mut seg = segment(&[(0, b"alpha")]);
        seg[0] ^= 0xFF;
        let (records, end) = scan(&seg);
        assert!(records.is_empty());
        assert_eq!(end, ScanEnd::Corrupt { offset: 0, tick_hint: None });
    }

    #[test]
    fn checkpoint_roundtrip_and_rejection() {
        let enc = encode_checkpoint(|file| {
            file.extend_from_slice(b"snapshot");
            file.extend_from_slice(b" bytes");
        });
        assert_eq!(enc[..8], CKPT_MAGIC[..]);
        assert_eq!(enc[8..12], 14u32.to_le_bytes());
        assert_eq!(enc[12..16], crc32(b"snapshot bytes").to_le_bytes());
        assert_eq!(decode_checkpoint(&enc), Some(&b"snapshot bytes"[..]));
        assert_eq!(decode_checkpoint(&encode_checkpoint(|_| ())), Some(&[][..]));
        for end in 0..enc.len() {
            assert_eq!(decode_checkpoint(&enc[..end]), None, "truncation at {end} accepted");
        }
        let mut bad = enc.clone();
        for i in 0..bad.len() {
            bad[i] ^= 0x10;
            assert_eq!(decode_checkpoint(&bad), None, "flip at {i} accepted");
            bad[i] ^= 0x10;
        }
    }

    #[test]
    fn sync_policy_bounds() {
        assert_eq!(SyncPolicy::EveryTick.loss_bound(), 0);
        assert_eq!(SyncPolicy::GroupCommit(4).loss_bound(), 4);
        assert!(SyncPolicy::EveryTick.should_sync(3));
        let g = SyncPolicy::GroupCommit(4);
        let syncs: Vec<u64> = (0..12).filter(|&t| g.should_sync(t)).collect();
        assert_eq!(syncs, vec![3, 7, 11]);
        // Degenerate group size behaves like every-tick.
        assert_eq!(SyncPolicy::GroupCommit(0).loss_bound(), 1);
        assert!(SyncPolicy::GroupCommit(0).should_sync(0));
    }
}
