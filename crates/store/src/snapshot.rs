//! The store's checkpoint form: a few counters and one packed binary
//! section holding every series (DESIGN.md §15, "Store section").
//!
//! A checkpoint used to push each stored point through the serde `Value`
//! tree and print it as a JSON number; at 1,024 nodes that was 100 MB of
//! text and over a second per checkpoint for a store holding 15 MB.  The
//! section is instead written in one pass from the shards and read back in
//! one pass:
//!
//! ```text
//! section := version:u8 (= 3)  series:u32  series*  digest:u64
//! series  := metric:u32 kind:u8 index:u32  warm:u32  block{warm}  block
//! block   := start:u64 end:u64 count:u32  ts_len:u32 ts_bytes  val_len:u32 val_bytes
//! ```
//!
//! All integers little-endian; series in strictly increasing key order, so
//! equal stores give equal bytes whatever order their series were created
//! in.  Warm blocks are copied verbatim, so the version names the block
//! format too: version 3 codes runs of zero delta-of-deltas in the stamp
//! stream and runs of zero XORs in the value stream ([`crate::compress`]).
//! A version-1 or -2 section is refused — its warm streams would reach the
//! store undecoded — and no older reader is kept.  The last block of a
//! series is its **hot buffer, encoded as the block a seal would make of
//! it** — the same
//! codec and framing, nothing re-encoded on the way back: loading decodes it
//! into a hot buffer again, so occupancy, `state_digest()` and the seal
//! schedule are those of the store that was captured.  An empty hot buffer
//! is the all-zero block.  Gorilla is bit-exact, so NaN payloads, ±Inf and
//! −0.0 survive (JSON numbers could not carry them).  `digest` is a
//! [`StateHash`] of everything before it.
//!
//! In JSON the section rides beside the counters as one base64 string.
//! Deserializing checks the whole section — digest, framing, every length
//! against the bytes that remain, keys increasing, no block longer than the
//! store seals, every hot block decodes to `count` ordered points —
//! allocating nothing while it does, so a [`StoreSnapshot`] that exists
//! always loads.

use crate::compress;
use crate::tsdb::{
    decode_streams, SeriesBlock, SeriesData, SeriesSlot, StoreOpCounts, TimeSeriesStore,
};
use hpcmon_metrics::{CompId, CompKind, MetricId, SeriesKey, StateHash, Ts};
use serde::{Deserialize, Error, Serialize, Value};
use std::sync::atomic::Ordering;

const VERSION: u8 = 3;
const DIGEST_TAG: u64 = 0x5ec7;
/// `start`, `end`, `count` and the two stream lengths.
const BLOCK_HEADER: usize = 8 + 8 + 4 + 4 + 4;
/// Key, warm-block count and the hot block's header.
const SERIES_HEADER: usize = 9 + 4 + BLOCK_HEADER;

/// The counters that stay ordinary JSON fields.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct Head {
    num_shards: usize,
    seal_threshold: usize,
    counts: StoreOpCounts,
    corrupt_blocks: u64,
    epoch: u64,
    write_faults: Vec<bool>,
}

/// Complete serializable state of the store at a tick boundary.
#[derive(Debug, Clone)]
pub struct StoreSnapshot {
    head: Head,
    // Always passes `validate`: written by `snapshot()` or checked on the
    // way in by `Deserialize`.
    section: Vec<u8>,
}

impl Serialize for StoreSnapshot {
    fn to_value(&self) -> Result<Value, Error> {
        let Value::Map(mut fields) = self.head.to_value()? else {
            unreachable!("a struct serializes as a map")
        };
        fields.push(("section".to_owned(), Value::Str(base64_encode(&self.section))));
        Ok(Value::Map(fields))
    }
}

impl<'de> Deserialize<'de> for StoreSnapshot {
    fn from_value(v: &Value) -> Result<Self, Error> {
        let head = Head::from_value(v)?;
        let Some(Value::Str(text)) = v.get("section") else {
            return Err(Error::msg("store snapshot has no packed `section`"));
        };
        let section = base64_decode(text).ok_or_else(|| Error::msg("store section: bad base64"))?;
        validate(&section, head.seal_threshold)
            .map_err(|why| Error::msg(format!("store section: {why}")))?;
        Ok(StoreSnapshot { head, section })
    }
}

// ----- writing -----

fn put_block_header(out: &mut Vec<u8>, start: Ts, end: Ts, count: u32) {
    out.extend_from_slice(&start.0.to_le_bytes());
    out.extend_from_slice(&end.0.to_le_bytes());
    out.extend_from_slice(&count.to_le_bytes());
}

fn put_count(out: &mut Vec<u8>, count: usize) {
    let count = u32::try_from(count).expect("series and blocks number far below 2^32");
    out.extend_from_slice(&count.to_le_bytes());
}

/// Append one length-prefixed stream written by `encode`.
fn put_stream(out: &mut Vec<u8>, encode: impl FnOnce(&mut Vec<u8>)) {
    let at = out.len();
    out.extend_from_slice(&[0; 4]);
    encode(out);
    let len = u32::try_from(out.len() - at - 4).expect("a block stream is far below 4 GiB");
    out[at..at + 4].copy_from_slice(&len.to_le_bytes());
}

/// A series up to its hot block: key, warm count, warm blocks verbatim.
fn put_series_head(out: &mut Vec<u8>, key: SeriesKey, warm: &[SeriesBlock]) {
    out.extend_from_slice(&key.metric.0.to_le_bytes());
    out.push(key.comp.kind as u8);
    out.extend_from_slice(&key.comp.index.to_le_bytes());
    put_count(out, warm.len());
    for b in warm {
        put_block_header(out, b.start, b.end, b.count);
        put_stream(out, |o| o.extend_from_slice(&b.ts_bytes));
        put_stream(out, |o| o.extend_from_slice(&b.val_bytes));
    }
}

/// A hot buffer as the block a seal would make of it.  `ts_stream` is where
/// the last timestamp stream written sits in `out`: a series with the
/// `same_stamps` as the one before (the cohort says which) copies it.
fn put_hot_block(
    out: &mut Vec<u8>,
    hot: &[(Ts, f64)],
    same_stamps: bool,
    ts_stream: &mut std::ops::Range<usize>,
) {
    let (Some(first), Some(last)) = (hot.first(), hot.last()) else {
        out.extend_from_slice(&[0; BLOCK_HEADER]);
        return;
    };
    let count = u32::try_from(hot.len()).expect("a hot buffer seals long before 2^32 points");
    put_block_header(out, first.0, last.0, count);
    if same_stamps {
        out.extend_from_within(ts_stream.clone());
    } else {
        let at = out.len();
        put_stream(out, |o| compress::encode_timestamps_into(o, hot.iter().map(|p| p.0)));
        *ts_stream = at..out.len();
    }
    put_stream(out, |o| compress::encode_values_into(o, hot, |p| p.1));
}

fn digest(body: &[u8]) -> u64 {
    StateHash::new(DIGEST_TAG).bytes(body).finish()
}

// ----- reading -----

struct Reader<'a>(&'a [u8]);

/// One block's frame, borrowed from the section.
struct RawBlock<'a> {
    start: Ts,
    end: Ts,
    count: u32,
    ts_bytes: &'a [u8],
    val_bytes: &'a [u8],
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], &'static str> {
        let (head, rest) = self.0.split_at_checked(n).ok_or("truncated")?;
        self.0 = rest;
        Ok(head)
    }

    fn u8(&mut self) -> Result<u8, &'static str> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, &'static str> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("took 4 bytes")))
    }

    fn u64(&mut self) -> Result<u64, &'static str> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("took 8 bytes")))
    }

    /// A length prefix and the bytes it announces.
    fn stream(&mut self) -> Result<&'a [u8], &'static str> {
        let len = self.u32()? as usize;
        self.take(len)
    }

    fn key(&mut self) -> Result<SeriesKey, &'static str> {
        let metric = MetricId(self.u32()?);
        let kind = *CompKind::ALL.get(self.u8()? as usize).ok_or("unknown component kind")?;
        Ok(SeriesKey::new(metric, CompId { kind, index: self.u32()? }))
    }

    fn block(&mut self) -> Result<RawBlock<'a>, &'static str> {
        Ok(RawBlock {
            start: Ts(self.u64()?),
            end: Ts(self.u64()?),
            count: self.u32()?,
            ts_bytes: self.stream()?,
            val_bytes: self.stream()?,
        })
    }

    /// The version byte and the series count.
    fn preamble(&mut self) -> Result<u32, &'static str> {
        if self.u8()? != VERSION {
            return Err("unknown version");
        }
        self.u32()
    }
}

impl RawBlock<'_> {
    /// Decode as a hot buffer, handing each point to `visit`; an error if it
    /// is not `count` time-ordered points spanning exactly `start..=end`.
    fn visit_hot(&self, mut visit: impl FnMut(Ts, f64)) -> Result<(), &'static str> {
        if self.count == 0 {
            let zero = self.start == Ts::ZERO && self.end == Ts::ZERO;
            let empty = self.ts_bytes.is_empty() && self.val_bytes.is_empty();
            return if zero && empty { Ok(()) } else { Err("empty hot block is not all-zero") };
        }
        let (mut first, mut prev, mut ordered) = (None, Ts::ZERO, true);
        decode_streams(self.ts_bytes, self.val_bytes, self.count, |t, v| {
            first.get_or_insert(t);
            ordered &= t >= prev;
            prev = t;
            visit(t, v);
        })
        .ok_or("hot block does not decode")?;
        if ordered && first == Some(self.start) && prev == self.end {
            Ok(())
        } else {
            Err("hot block out of order or outside its span")
        }
    }
}

fn split_digest(section: &[u8]) -> Result<(&[u8], u64), &'static str> {
    let at = section.len().checked_sub(8).ok_or("truncated")?;
    let (body, tail) = section.split_at(at);
    Ok((body, u64::from_le_bytes(tail.try_into().expect("split 8 bytes"))))
}

/// Check a whole section without allocating, for a store that seals at
/// `seal_threshold` points: no block of it may be longer, since a block's
/// count is what every read of it loops on.
fn validate(section: &[u8], seal_threshold: usize) -> Result<(), &'static str> {
    let (body, recorded) = split_digest(section)?;
    if digest(body) != recorded {
        return Err("digest mismatch");
    }
    let mut r = Reader(body);
    let mut prev: Option<SeriesKey> = None;
    for _ in 0..r.preamble()? {
        let key = r.key()?;
        if prev.is_some_and(|p| p >= key) {
            return Err("series keys not strictly increasing");
        }
        prev = Some(key);
        for _ in 0..r.u32()? {
            let count = r.block()?.count as usize;
            if count == 0 {
                return Err("empty warm block");
            }
            if count > seal_threshold {
                return Err("block longer than the store seals");
            }
        }
        let hot = r.block()?;
        if hot.count as usize > seal_threshold {
            return Err("block longer than the store seals");
        }
        hot.visit_hot(|_, _| {})?;
    }
    if r.0.is_empty() {
        Ok(())
    } else {
        Err("trailing bytes")
    }
}

impl TimeSeriesStore {
    /// Capture the full store contents and counters for a checkpoint: no
    /// per-series allocation, nothing cloned.  Hot buffers are encoded first,
    /// shard by shard in whatever order each shard reads its own fastest,
    /// then everything is laid out in key order.
    pub fn snapshot(&self) -> StoreSnapshot {
        let shards: Vec<_> = self.shards.iter().map(|s| s.read()).collect();
        let series: usize = shards.iter().map(|s| s.slots.len()).sum();
        // Per series: key, shard, slot, and where its hot block is in `hot`.
        let mut order = Vec::with_capacity(series);
        let (mut warm_bytes, mut hot_points) = (0, 0);
        for (shard, guard) in shards.iter().enumerate() {
            for (slot, s) in guard.slots.iter().enumerate() {
                order.push((s.key, shard, slot, 0..0));
                hot_points += guard.cohorts.hot(s).len();
                for b in &s.data.warm {
                    warm_bytes += BLOCK_HEADER + b.compressed_bytes();
                }
            }
        }
        // The hot streams are sized by the codec as it goes: a block opens
        // with its first stamp and value in full, and three bytes a point
        // after that covers the usual mix of values (stamps, coded in runs,
        // are a few bytes a block) without a regrow.
        let mut hot = Vec::with_capacity(series * (BLOCK_HEADER + 16) + hot_points * 3);
        let (mut tile, mut base, mut ts_stream) = (Vec::new(), 0, 0..0);
        for guard in &shards {
            guard.cohorts.each_hot(&guard.slots, &mut tile, |slot, points, same_stamps| {
                let at = hot.len();
                put_hot_block(&mut hot, points, same_stamps, &mut ts_stream);
                order[base + slot].3 = at..hot.len();
            });
            base += guard.slots.len();
        }
        order.sort_unstable_by_key(|entry| entry.0);
        let mut section = Vec::with_capacity(
            1 + 4 + 8 + series * (SERIES_HEADER - BLOCK_HEADER) + warm_bytes + hot.len(),
        );
        section.push(VERSION);
        put_count(&mut section, series);
        for (key, shard, slot, hot_block) in order {
            put_series_head(&mut section, key, &shards[shard].slots[slot].data.warm);
            section.extend_from_slice(&hot[hot_block]);
        }
        let digest = digest(&section);
        section.extend_from_slice(&digest.to_le_bytes());
        let head = Head {
            num_shards: self.shards.len(),
            seal_threshold: self.seal_threshold,
            counts: self.op_counts(),
            corrupt_blocks: self.corrupt_blocks.load(Ordering::Relaxed),
            epoch: self.epoch.load(Ordering::Relaxed),
            write_faults: self.write_faults.iter().map(|f| f.load(Ordering::Relaxed)).collect(),
        };
        StoreSnapshot { head, section }
    }

    /// Load a checkpoint into this store **in place**, replacing all
    /// contents and counters.  The shard count and seal threshold must
    /// match the checkpoint (shard choice is a pure function of the key
    /// and shard count).  In-place restore keeps every
    /// `Arc<TimeSeriesStore>` handle (gateway, self-collector, query
    /// engines) valid, so replay seek swaps state without rebuilding the
    /// surrounding system.
    pub fn load_snapshot(&self, snap: StoreSnapshot) {
        let StoreSnapshot { head, section } = snap;
        assert_eq!(self.shards.len(), head.num_shards, "snapshot shard count mismatch");
        assert_eq!(self.seal_threshold, head.seal_threshold, "snapshot seal threshold mismatch");
        for shard in &self.shards {
            let mut shard = shard.write();
            shard.slots.clear();
            shard.index.clear();
            shard.cohorts.clear();
        }
        self.load_section(&section)
            .expect("a StoreSnapshot's section was validated when it was made");
        // Every slot may have moved: cached routes are stale.
        self.bump_layout();
        self.samples_ingested.store(head.counts.samples_ingested, Ordering::Relaxed);
        self.blocks_sealed.store(head.counts.blocks_sealed, Ordering::Relaxed);
        self.blocks_evicted.store(head.counts.blocks_evicted, Ordering::Relaxed);
        self.blocks_reloaded.store(head.counts.blocks_reloaded, Ordering::Relaxed);
        self.corrupt_blocks.store(head.corrupt_blocks, Ordering::Relaxed);
        self.epoch.store(head.epoch, Ordering::Relaxed);
        for (i, &f) in head.write_faults.iter().enumerate() {
            self.set_shard_write_fault(i, f);
        }
        // Any stamp may hold other points now; the head stays where it is.
        self.bump_history();
    }

    /// Fill the emptied shards from a section and set the occupancy counters
    /// to what it held.
    fn load_section(&self, section: &[u8]) -> Result<(), &'static str> {
        let mut r = Reader(split_digest(section)?.0);
        let series = r.preamble()?;
        let (mut hot_points, mut warm_points, mut warm_bytes) = (0u64, 0u64, 0u64);
        for _ in 0..series {
            let key = r.key()?;
            let blocks = r.u32()?;
            let mut warm = Vec::with_capacity(blocks as usize);
            for _ in 0..blocks {
                let b = r.block()?;
                warm_points += b.count as u64;
                warm_bytes += (b.ts_bytes.len() + b.val_bytes.len()) as u64;
                warm.push(SeriesBlock {
                    key,
                    start: b.start,
                    end: b.end,
                    count: b.count,
                    ts_bytes: b.ts_bytes.to_vec(),
                    val_bytes: b.val_bytes.to_vec(),
                });
            }
            let block = r.block()?;
            let mut hot = Vec::with_capacity(block.count as usize);
            block.visit_hot(|t, v| hot.push((t, v)))?;
            hot_points += hot.len() as u64;
            let mut shard = self.shard_of(&key).write();
            let slot = shard.slots.len() as u32;
            shard.slots.push(SeriesSlot { key, data: SeriesData { warm, hot }, seat: None });
            shard.index.insert(key, slot);
        }
        self.series_count.store(series as u64, Ordering::Relaxed);
        self.hot_points.store(hot_points, Ordering::Relaxed);
        self.warm_points.store(warm_points, Ordering::Relaxed);
        self.warm_bytes.store(warm_bytes, Ordering::Relaxed);
        Ok(())
    }
}

// ----- base64 (standard alphabet, padded) -----

const B64: &[u8; 64] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";

/// Encode into a buffer sized up front, a whole group at a time.
fn base64_encode(bytes: &[u8]) -> String {
    let mut out = vec![0u8; bytes.len().div_ceil(3) * 4];
    let sextets = |n: u32| [18, 12, 6, 0].map(|shift| B64[(n >> shift) as usize & 63]);
    let groups = bytes.chunks_exact(3);
    let rest = groups.remainder();
    let mut quads = out.chunks_exact_mut(4);
    for (c, quad) in groups.zip(&mut quads) {
        quad.copy_from_slice(&sextets(u32::from_be_bytes([0, c[0], c[1], c[2]])));
    }
    if let Some(quad) = quads.next() {
        let mut padded = [0u8; 4];
        padded[1..1 + rest.len()].copy_from_slice(rest);
        quad.copy_from_slice(&sextets(u32::from_be_bytes(padded)));
        quad[rest.len() + 1..].fill(b'=');
    }
    String::from_utf8(out).expect("base64 is ASCII")
}

fn base64_decode(text: &str) -> Option<Vec<u8>> {
    const INVALID: u8 = 0xFF;
    const fn table() -> [u8; 256] {
        let mut t = [INVALID; 256];
        let mut i = 0;
        while i < 64 {
            t[B64[i] as usize] = i as u8;
            i += 1;
        }
        t
    }
    const VALUE: [u8; 256] = table();
    let text = text.as_bytes();
    if !text.len().is_multiple_of(4) {
        return None;
    }
    let pad = text.iter().rev().take(2).take_while(|&&c| c == b'=').count();
    // Whole groups in bulk; a padded final group (one or two bytes) apart.
    let (body, tail) = text.split_at(text.len() - if pad > 0 { 4 } else { 0 });
    let mut out = vec![0u8; body.len() / 4 * 3 + (3 - pad) % 3];
    let (bulk, last) = out.split_at_mut(body.len() / 4 * 3);
    // Every sextet is below 64 and `INVALID` is not: OR-ing them all and
    // refusing once at the end keeps the loop free of early exits.
    let mut seen = 0u8;
    for (quad, bytes) in body.chunks_exact(4).zip(bulk.chunks_exact_mut(3)) {
        let v = [quad[0], quad[1], quad[2], quad[3]].map(|c| VALUE[c as usize]);
        seen |= v[0] | v[1] | v[2] | v[3];
        let n = (v[0] as u32) << 18 | (v[1] as u32) << 12 | (v[2] as u32) << 6 | v[3] as u32;
        bytes.copy_from_slice(&n.to_be_bytes()[1..]);
    }
    if seen >= 64 {
        return None;
    }
    if !tail.is_empty() {
        // A short final group carries 12 or 18 bits: one or two bytes.
        let quad = &tail[..4 - pad];
        let mut n = 0u32;
        for &c in quad {
            let v = VALUE[c as usize];
            if v == INVALID {
                return None;
            }
            n = n << 6 | v as u32;
        }
        n <<= 6 * pad;
        last.copy_from_slice(&n.to_be_bytes()[1..quad.len()]);
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tsdb::IngestRoute;
    use hpcmon_metrics::alloc_count::thread_allocations;
    use hpcmon_metrics::{ColumnFrame, Sample, MINUTE_MS};

    /// A fresh store of the checkpoint's shape with the checkpoint loaded.
    fn restore(snap: StoreSnapshot) -> TimeSeriesStore {
        let store = TimeSeriesStore::with_options(snap.head.num_shards, snap.head.seal_threshold);
        store.load_snapshot(snap);
        store
    }

    const ALL: (Ts, Ts) = (Ts::ZERO, Ts(u64::MAX));

    /// One tick of a small machine: constants, counters, noise and, on
    /// metric 3, any bit pattern at all.
    fn frame(tick: u64, nodes: u32, rng: &mut u64) -> ColumnFrame {
        let mut noise = || {
            *rng ^= *rng << 13;
            *rng ^= *rng >> 7;
            *rng ^= *rng << 17;
            *rng
        };
        let mut cf = ColumnFrame::new(Ts(tick * MINUTE_MS + (tick % 7 == 3) as u64));
        for n in 0..nodes {
            cf.push(MetricId(0), CompId::node(n), 230.0);
            cf.push(MetricId(1), CompId::ost(n), (tick * (n as u64 + 1)) as f64);
            cf.push(MetricId(2), CompId::node(n), 200.0 + (noise() % 4_096) as f64 / 64.0);
            cf.push(MetricId(3), CompId::SYSTEM, f64::from_bits(noise()));
        }
        cf
    }

    /// `ticks` frames through `ingest`, into a 4-shard store sealing at 8.
    fn filled(
        ticks: u64,
        nodes: u32,
        seed: u64,
        ingest: impl Fn(&TimeSeriesStore, &ColumnFrame),
    ) -> TimeSeriesStore {
        let store = TimeSeriesStore::with_options(4, 8);
        let mut rng = seed | 1;
        for tick in 0..ticks {
            ingest(&store, &frame(tick, nodes, &mut rng));
        }
        store
    }

    fn by_columns(store: &TimeSeriesStore, cf: &ColumnFrame) {
        store.ingest_columns(cf, &mut IngestRoute::new());
    }

    /// Two seals behind it and a part-filled hot buffer on every series.
    fn two_seal_store(seed: u64) -> TimeSeriesStore {
        filled(19, 2, seed, by_columns)
    }

    fn through_json(store: &TimeSeriesStore) -> TimeSeriesStore {
        let json = serde_json::to_vec(&store.snapshot()).expect("serializes");
        restore(serde_json::from_slice(&json).expect("round trips"))
    }

    fn bits(points: Vec<(Ts, f64)>) -> Vec<(Ts, u64)> {
        points.into_iter().map(|(t, v)| (t, v.to_bits())).collect()
    }

    fn assert_same_store(a: &TimeSeriesStore, b: &TimeSeriesStore) {
        assert_eq!(a.stats(), b.stats());
        assert_eq!(a.occupancy(), b.occupancy());
        assert_eq!(a.op_counts(), b.op_counts());
        assert_eq!(a.epoch(), b.epoch());
        assert_eq!(a.state_digest(), b.state_digest());
        assert_eq!(a.all_series(), b.all_series());
        for k in a.all_series() {
            assert_eq!(bits(a.query(k, ALL.0, ALL.1)), bits(b.query(k, ALL.0, ALL.1)), "{k:?}");
        }
    }

    /// A section around `body`, with the digest a writer would have put.
    fn sealed(mut body: Vec<u8>) -> Vec<u8> {
        let d = digest(&body);
        body.extend_from_slice(&d.to_le_bytes());
        body
    }

    fn body_of(section: &[u8]) -> Vec<u8> {
        split_digest(section).unwrap().0.to_vec()
    }

    #[test]
    fn round_trip_through_json_equals_the_source_store() {
        let source = two_seal_store(0x2018);
        assert!(source.op_counts().blocks_sealed >= 2 * source.stats().series as u64);
        assert!(source.stats().hot_points > 0);
        let restored = through_json(&source);
        assert_same_store(&source, &restored);
        // Hot points came back hot: both seal next on the same tick.
        let mut rng = 7;
        for tick in 19..30 {
            let cf = frame(tick, 2, &mut rng);
            by_columns(&source, &cf);
            by_columns(&restored, &cf);
            assert_eq!(source.state_digest(), restored.state_digest(), "tick {tick}");
        }
        assert_same_store(&source, &restored);
    }

    #[test]
    fn every_ingest_path_gives_the_same_section() {
        let columns = two_seal_store(0x2018).snapshot();
        let rows = filled(19, 2, 0x2018, |store, cf| {
            for s in cf.iter() {
                store.insert(&s);
            }
        });
        // Every frame through the route in descending key order, so series
        // are created in another order than the frame's.  The sort is
        // stable: the key each frame carries twice keeps its samples' order.
        let reversed = filled(19, 2, 0x2018, |store, cf| {
            let mut order: Vec<usize> = (0..cf.len()).collect();
            order.sort_by_key(|&i| std::cmp::Reverse(cf.keys[i]));
            let mut rev = ColumnFrame::new(cf.ts);
            for i in order {
                rev.push(cf.keys[i].metric, cf.keys[i].comp, cf.values[i]);
            }
            by_columns(store, &rev);
        });
        assert_eq!(columns.section, rows.snapshot().section);
        assert_eq!(columns.section, reversed.snapshot().section);
        assert_eq!(
            serde_json::to_vec(&columns).unwrap(),
            serde_json::to_vec(&reversed.snapshot()).unwrap()
        );
    }

    #[test]
    fn non_finite_and_signed_zero_values_survive_bit_for_bit() {
        let odd = [
            f64::from_bits(0x7FF8_0000_DEAD_BEEF), // NaN with a payload
            f64::from_bits(0xFFF0_0000_0000_0001), // signalling, negative
            f64::INFINITY,
            f64::NEG_INFINITY,
            -0.0,
            0.0,
            f64::from_bits(1), // smallest subnormal
            f64::MIN_POSITIVE / 2.0,
        ];
        // Threshold 5: the first five seal, the last three stay hot.
        let store = TimeSeriesStore::with_options(2, 5);
        for (i, v) in odd.into_iter().enumerate() {
            store.insert(&Sample::new(MetricId(0), CompId::node(1), Ts(i as u64 * 1_000), v));
        }
        assert_eq!((store.stats().warm_points, store.stats().hot_points), (5, 3));
        let restored = through_json(&store);
        let key = SeriesKey::new(MetricId(0), CompId::node(1));
        let expected: Vec<u64> = odd.iter().map(|v| v.to_bits()).collect();
        let got: Vec<u64> =
            restored.query(key, ALL.0, ALL.1).iter().map(|p| p.1.to_bits()).collect();
        assert_eq!(got, expected);
        assert_same_store(&store, &restored);
    }

    #[test]
    fn an_empty_store_round_trips() {
        let empty = TimeSeriesStore::with_options(3, 8);
        let snap = empty.snapshot();
        assert_eq!(snap.section.len(), 1 + 4 + 8);
        assert_same_store(&empty, &through_json(&empty));
    }

    #[test]
    fn warm_blocks_with_an_empty_hot_buffer_round_trip() {
        // 16 ticks at threshold 8: every series sealed on the last tick.
        let store = filled(16, 2, 5, by_columns);
        assert_eq!(store.stats().hot_points, 0);
        assert!(store.stats().warm_points > 0);
        let restored = through_json(&store);
        assert_same_store(&store, &restored);
        // The hot block of the first series is the all-zero frame.
        let snap = store.snapshot();
        let mut r = Reader(&snap.section);
        r.preamble().unwrap();
        r.key().unwrap();
        for _ in 0..r.u32().unwrap() {
            r.block().unwrap();
        }
        assert_eq!(r.take(BLOCK_HEADER).unwrap(), [0u8; BLOCK_HEADER]);
    }

    #[test]
    fn counters_faults_and_corruption_count_ride_along() {
        let store = two_seal_store(3);
        store.set_shard_write_fault(2, true);
        let mut bad = store.evict_warm_before(Ts(5 * MINUTE_MS)).pop().expect("evicts a block");
        bad.ts_bytes.truncate(1);
        store.reload_blocks(vec![bad]);
        assert_eq!(store.corrupt_blocks(), 1);
        let restored = through_json(&store);
        assert_same_store(&store, &restored);
        assert!(restored.shard_write_faulted(2) && !restored.shard_write_faulted(1));
        assert!(restored.op_counts().blocks_evicted > 0);
    }

    /// `validate` on damaged bytes: an error, and not one allocation.
    fn assert_rejected_without_allocating(section: &[u8], what: &str) {
        let before = thread_allocations();
        let verdict = validate(section, 8);
        assert_eq!(thread_allocations(), before, "{what}: validation allocated");
        assert!(verdict.is_err(), "{what}: accepted");
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(6))]

        #[test]
        fn prop_every_truncation_and_every_bit_flip_is_rejected(seed in proptest::any::<u64>()) {
            let section = two_seal_store(seed).snapshot().section;
            validate(&section, 8).expect("the writer's own bytes are valid");
            for len in 0..section.len() {
                assert_rejected_without_allocating(&section[..len], "truncation");
            }
            let mut flipped = section.clone();
            for bit in 0..section.len() * 8 {
                flipped[bit / 8] ^= 1 << (bit % 8);
                assert_rejected_without_allocating(&flipped, "bit flip");
                flipped[bit / 8] ^= 1 << (bit % 8);
            }
        }

        #[test]
        fn prop_damage_behind_a_matching_digest_never_panics_or_allocates(
            seed in proptest::any::<u64>(),
        ) {
            // The digest is a checksum, not a signature: the framing checks
            // must stand on their own against bytes that carry a right one.
            let StoreSnapshot { head, section } = two_seal_store(seed).snapshot();
            let body = body_of(&section);
            for len in 0..body.len() {
                assert_rejected_without_allocating(&sealed(body[..len].to_vec()), "truncation");
            }
            let mut flipped = body.clone();
            for bit in 0..body.len() * 8 {
                flipped[bit / 8] ^= 1 << (bit % 8);
                let section = sealed(flipped.clone());
                let before = thread_allocations();
                let verdict = validate(&section, 8);
                proptest::prop_assert_eq!(thread_allocations(), before);
                if verdict.is_ok() {
                    // A flip inside a warm stream or a value: still a
                    // well-formed section, and it loads.
                    let head = head.clone();
                    let store = restore(StoreSnapshot { head, section });
                    proptest::prop_assert_eq!(store.stats(), store.occupancy());
                }
                flipped[bit / 8] ^= 1 << (bit % 8);
            }
        }
    }

    #[test]
    fn huge_counts_and_lengths_are_refused_before_anything_is_allocated() {
        let key = [0u8; 9];
        let max = u32::MAX.to_le_bytes();
        let block_header = |count: [u8; 4]| [[0u8; 16].as_slice(), &count].concat();
        let cases: Vec<(&str, Vec<u8>)> = vec![
            ("series count", [&[VERSION][..], &max].concat()),
            ("warm count", [&[VERSION][..], &1u32.to_le_bytes(), &key, &max].concat()),
            (
                "stream length",
                [
                    &[VERSION][..],
                    &1u32.to_le_bytes(),
                    &key,
                    &[0; 4],
                    &block_header([1, 0, 0, 0]),
                    &max,
                ]
                .concat(),
            ),
            (
                "hot point count",
                [
                    &[VERSION][..],
                    &1u32.to_le_bytes(),
                    &key,
                    &[0; 4],
                    &block_header(max),
                    // Streams that claim u32::MAX points in six bytes.
                    &6u32.to_le_bytes(),
                    &[0xFF, 0xFF, 0xFF, 0xFF, 0x0F, 0],
                    &6u32.to_le_bytes(),
                    &[0xFF, 0xFF, 0xFF, 0xFF, 0x0F, 0],
                ]
                .concat(),
            ),
        ];
        for (what, body) in cases {
            assert_rejected_without_allocating(&sealed(body), what);
        }
    }

    #[test]
    fn a_hot_block_whose_stamps_claim_u32_max_points_in_one_run_is_refused() {
        // Twelve bytes of well-formed stamps for u32::MAX points: the
        // count, a first stamp, and one run.  Beside a true four-point
        // value stream, and beside one that also claims u32::MAX.
        let ts = [0xFF, 0xFF, 0xFF, 0xFF, 0x0F, 0, 0, 0xFD, 0xFF, 0xFF, 0xFF, 0x0F];
        let four = compress::encode_values(&[1.0, 2.0, 3.0, 4.0], |&v| v);
        let mut claims = four.clone();
        claims.splice(..1, [0xFF, 0xFF, 0xFF, 0xFF, 0x0F]);
        for vals in [four, claims] {
            let mut body = vec![VERSION, 1, 0, 0, 0];
            body.extend_from_slice(&[0; 9 + 4]);
            put_block_header(&mut body, Ts(0), Ts(0), u32::MAX);
            put_stream(&mut body, |o| o.extend_from_slice(&ts));
            put_stream(&mut body, |o| o.extend_from_slice(&vals));
            assert_rejected_without_allocating(&sealed(body), "a run of u32::MAX");
        }
    }

    #[test]
    fn a_block_longer_than_the_store_seals_is_refused() {
        // One series, its warm block then its hot block: each of 9 points
        // (decodable, stamps and values in runs) where the store seals at 8.
        let nine: Vec<(Ts, f64)> = (0..9).map(|i| (Ts(i * MINUTE_MS), 2.5)).collect();
        let block = |body: &mut Vec<u8>| {
            put_block_header(body, nine[0].0, nine[8].0, 9);
            put_stream(body, |o| compress::encode_timestamps_into(o, nine.iter().map(|p| p.0)));
            put_stream(body, |o| compress::encode_values_into(o, &nine, |p| p.1));
        };
        let key = [4, 0, 0, 0, 0, 2, 0, 0, 0];
        let mut warm = vec![VERSION, 1, 0, 0, 0];
        warm.extend_from_slice(&key);
        warm.extend_from_slice(&1u32.to_le_bytes());
        block(&mut warm);
        warm.extend_from_slice(&[0; BLOCK_HEADER]);
        let mut hot = vec![VERSION, 1, 0, 0, 0];
        hot.extend_from_slice(&key);
        hot.extend_from_slice(&0u32.to_le_bytes());
        block(&mut hot);
        for (what, body) in [("warm", warm), ("hot", hot)] {
            let section = sealed(body);
            assert_eq!(validate(&section, 9), Ok(()), "{what}");
            assert_eq!(validate(&section, 8), Err("block longer than the store seals"), "{what}");
            assert_rejected_without_allocating(&section, what);
        }
    }

    #[test]
    fn unknown_version_disordered_keys_and_unordered_hot_points_are_refused() {
        let good = two_seal_store(1).snapshot().section;
        // The next version; version 2, whose value streams wrote a `0` bit
        // per repeat, which this codec reads as the start of a run; and
        // version 1, whose stamp streams wrote a `00` byte per regular
        // point, which this codec reads as a run.
        for version in [VERSION + 1, 2, 1] {
            let mut body = body_of(&good);
            body[0] = version;
            assert_eq!(validate(&sealed(body), 8), Err("unknown version"), "version {version}");
        }
        assert_eq!(validate(&good[..good.len() - 1], 8), Err("digest mismatch"));
        assert_eq!(validate(&[], 8), Err("truncated"));
        let mut trailing = body_of(&good);
        trailing.push(0);
        assert_eq!(validate(&sealed(trailing), 8), Err("trailing bytes"));

        // The same series twice: keys must strictly increase.
        let one = TimeSeriesStore::with_options(1, 8);
        one.insert(&Sample::new(MetricId(4), CompId::node(2), Ts(10), 1.0));
        let single = body_of(&one.snapshot().section);
        let mut twice = vec![VERSION, 2, 0, 0, 0];
        twice.extend_from_slice(&single[5..]);
        twice.extend_from_slice(&single[5..]);
        assert_eq!(validate(&sealed(twice), 8), Err("series keys not strictly increasing"));

        // A hot block whose timestamps step backwards decodes as a block
        // but cannot be a hot buffer (queries binary-search it).
        let mut body = vec![VERSION, 1, 0, 0, 0];
        body.extend_from_slice(&single[5..5 + 9 + 4]);
        put_block_header(&mut body, Ts(20), Ts(10), 2);
        put_stream(&mut body, |o| {
            compress::encode_timestamps_into(o, [Ts(20), Ts(10)].into_iter())
        });
        put_stream(&mut body, |o| compress::encode_values_into(o, &[1.0, 2.0], |&v| v));
        assert_eq!(validate(&sealed(body), 8), Err("hot block out of order or outside its span"));
    }

    #[test]
    fn the_legacy_series_form_and_a_damaged_string_fail_to_deserialize() {
        let legacy = r#"{"num_shards":4,"seal_threshold":8,"series":[],
            "counts":{"samples_ingested":0,"blocks_sealed":0,"blocks_evicted":0,"blocks_reloaded":0},
            "corrupt_blocks":0,"epoch":0,"write_faults":[false,false,false,false]}"#;
        let err = serde_json::from_str::<StoreSnapshot>(legacy).unwrap_err();
        assert!(err.to_string().contains("section"), "{err}");

        let json = serde_json::to_string(&two_seal_store(9).snapshot()).unwrap();
        assert!(serde_json::from_str::<StoreSnapshot>(&json).is_ok());
        let at = json.find("\"section\":\"").unwrap() + 20;
        for replacement in ["*", "=", ""] {
            let mut damaged = json.clone();
            damaged.replace_range(at..at + 1, replacement);
            assert!(serde_json::from_str::<StoreSnapshot>(&damaged).is_err(), "{replacement:?}");
        }
        // Another valid base64 character: decodes, fails the digest.
        let mut damaged = json.clone().into_bytes();
        damaged[at] = if damaged[at] == b'A' { b'B' } else { b'A' };
        let err = serde_json::from_slice::<StoreSnapshot>(&damaged).unwrap_err();
        assert!(err.to_string().contains("digest mismatch"), "{err}");
    }

    #[test]
    fn base64_matches_the_rfc_vectors_and_round_trips_every_tail_length() {
        let vectors = [
            ("", ""),
            ("f", "Zg=="),
            ("fo", "Zm8="),
            ("foo", "Zm9v"),
            ("foob", "Zm9vYg=="),
            ("fooba", "Zm9vYmE="),
            ("foobar", "Zm9vYmFy"),
        ];
        for (plain, coded) in vectors {
            assert_eq!(base64_encode(plain.as_bytes()), coded);
            assert_eq!(base64_decode(coded).as_deref(), Some(plain.as_bytes()));
        }
        let bytes: Vec<u8> = (0..=255u8).rev().collect();
        for len in 0..bytes.len() {
            assert_eq!(
                base64_decode(&base64_encode(&bytes[..len])).as_deref(),
                Some(&bytes[..len])
            );
        }
        for bad in ["Zg=", "Zg", "Z===", "=Zg=", "Zm9v Zm9v", "Zm9\u{e9}"] {
            assert_eq!(base64_decode(bad), None, "{bad:?}");
        }
    }

    /// The per-group codec the bulk one replaced, kept as its oracle.
    fn reference_base64_encode(bytes: &[u8]) -> String {
        let mut out = Vec::with_capacity(bytes.len().div_ceil(3) * 4);
        let sextets = |n: u32| [18, 12, 6, 0].map(|shift| B64[(n >> shift) as usize & 63]);
        let mut chunks = bytes.chunks_exact(3);
        for c in &mut chunks {
            out.extend_from_slice(&sextets(u32::from_be_bytes([0, c[0], c[1], c[2]])));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut padded = [0u8; 4];
            padded[1..1 + rest.len()].copy_from_slice(rest);
            let mut quad = sextets(u32::from_be_bytes(padded));
            quad[rest.len() + 1..].fill(b'=');
            out.extend_from_slice(&quad);
        }
        String::from_utf8(out).unwrap()
    }

    fn reference_base64_decode(text: &str) -> Option<Vec<u8>> {
        let mut value = [0xFFu8; 256];
        for (i, &c) in B64.iter().enumerate() {
            value[c as usize] = i as u8;
        }
        let text = text.as_bytes();
        if !text.len().is_multiple_of(4) {
            return None;
        }
        let pad = text.iter().rev().take(2).take_while(|&&c| c == b'=').count();
        let mut out = Vec::with_capacity(text.len() / 4 * 3);
        for quad in text[..text.len() - pad].chunks(4) {
            let mut n = 0u32;
            for &c in quad {
                let v = value[c as usize];
                if v == 0xFF {
                    return None;
                }
                n = n << 6 | v as u32;
            }
            // A short final group carries 12 or 18 bits: one or two bytes.
            n <<= 6 * (4 - quad.len());
            out.extend_from_slice(&n.to_be_bytes()[1..quad.len()]);
        }
        Some(out)
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(8))]

        #[test]
        fn prop_base64_matches_the_per_group_codec_at_every_length(
            seed in proptest::any::<u64>(),
        ) {
            let mut x = seed;
            let bytes: Vec<u8> = (0..1100)
                .map(|_| {
                    x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
                    (x >> 56) as u8
                })
                .collect();
            for len in 0..=bytes.len() {
                let coded = base64_encode(&bytes[..len]);
                proptest::prop_assert_eq!(&coded, &reference_base64_encode(&bytes[..len]));
                proptest::prop_assert_eq!(base64_decode(&coded), reference_base64_decode(&coded));
                proptest::prop_assert_eq!(base64_decode(&coded).as_deref(), Some(&bytes[..len]));
            }
        }
    }

    #[test]
    fn base64_refuses_every_non_alphabet_byte_at_every_position() {
        // 766 bytes: 255 whole groups in bulk and a one-byte final group,
        // decoded apart, that ends in `==`.
        let bytes: Vec<u8> = (0..766u32).map(|i| (i * 7 + 3) as u8).collect();
        let coded = base64_encode(&bytes);
        assert_eq!(coded.len(), 1024);
        assert!(coded.ends_with("=="));
        assert_eq!(base64_decode(&coded).as_deref(), Some(&bytes[..]));
        let strangers: Vec<u8> = (0..=127u8).filter(|c| !B64.contains(c)).collect();
        assert!(strangers.contains(&b'='));
        // `=` in the data, a third `=`, or padding not at the end: all refused.
        let mut text = coded.clone().into_bytes();
        for at in 0..text.len() {
            let was = text[at];
            for &c in strangers.iter().filter(|&&c| c != was) {
                text[at] = c;
                let damaged = std::str::from_utf8(&text).unwrap();
                assert_eq!(base64_decode(damaged), None, "{:?} at {at}", c as char);
            }
            text[at] = was;
        }
        // Bytes above ASCII come in pairs or more in a `str`.
        for at in 0..coded.len() - 1 {
            for wide in ["\u{80}", "é", "ÿ"] {
                let mut damaged = coded.clone();
                damaged.replace_range(at..at + 2, wide);
                assert_eq!(base64_decode(&damaged), None, "{wide:?} at {at}");
            }
        }
    }

    #[test]
    fn a_snapshot_makes_a_fixed_number_of_allocations_whatever_the_series_count() {
        let allocations = |nodes: u32| {
            let store = TimeSeriesStore::with_options(16, 512);
            let mut cf = ColumnFrame::new(Ts(0));
            for tick in 0..3u64 {
                cf.clear_for_tick(Ts(tick * MINUTE_MS));
                for n in 0..nodes {
                    for m in 0..19 {
                        cf.push(MetricId(m), CompId::node(n), (tick + n as u64) as f64 * 0.5);
                    }
                }
                by_columns(&store, &cf);
            }
            let before = thread_allocations();
            let snap = store.snapshot();
            let made = thread_allocations() - before;
            assert_eq!(store.stats().series, nodes as usize * 19);
            drop(snap);
            made
        };
        let (small, large) = (allocations(8), allocations(1_024));
        // The shard guards, the key order, the hot blocks, the tile the
        // cohorts transpose through, the section and the fault flags.
        assert!(large <= 6, "{large} allocations for 19,456 series");
        assert!(large <= small + 1, "{small} allocations at 152 series, {large} at 19,456");
    }
}
