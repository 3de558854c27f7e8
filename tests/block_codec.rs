//! An oracle for the warm block's timestamp stream, written from the format
//! as DESIGN §2 (*Warm block format*) states it and compared byte for byte
//! with what `SeriesBlock::compress` seals — through the public API only, so
//! the tier-1 suite pins the format the store writes to every checkpoint.
//!
//! The stream is LEB128 varints: the point count, the first stamp, then the
//! zigzagged delta-of-deltas (the first delta taken against zero), where a
//! run of `k` zero delta-of-deltas is written once as `0` and `k - 1`.

use hpcmon_metrics::{CompId, MetricId, SeriesKey, Ts, MINUTE_MS};
use hpcmon_store::{BlockError, SeriesBlock, TimeSeriesStore};

fn leb128(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let low = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            return out.push(low);
        }
        out.push(low | 0x80);
    }
}

/// The stamp stream of `ts`, from the format's statement.
fn stamp_stream(ts: &[u64]) -> Vec<u8> {
    let mut out = Vec::new();
    leb128(&mut out, ts.len() as u64);
    let Some(&first) = ts.first() else { return out };
    leb128(&mut out, first);
    let deltas: Vec<i64> = ts.windows(2).map(|w| w[1] as i64 - w[0] as i64).collect();
    let dods: Vec<i64> =
        deltas.iter().zip([0].iter().chain(&deltas)).map(|(d, prev)| d - prev).collect();
    // Zeros group into runs; every other delta-of-delta stands alone.
    for group in dods.chunk_by(|a, b| *a == 0 && *b == 0) {
        if group[0] == 0 {
            leb128(&mut out, 0);
            leb128(&mut out, group.len() as u64 - 1);
        } else {
            leb128(&mut out, ((group[0] << 1) ^ (group[0] >> 63)) as u64);
        }
    }
    out
}

/// A xorshift stream, so every case is reproducible from its seed.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

#[derive(Debug, Clone, Copy)]
enum Shape {
    Regular,
    Jittered,
    Gapped,
    Duplicated,
}

/// `len` stamps from a random origin on a random cadence, damaged by `shape`.
fn stamps(rng: &mut Rng, shape: Shape, len: usize) -> Vec<u64> {
    let origin = 1_500_000_000_000 + rng.below(1 << 36);
    let cadence = [MINUTE_MS, 1_000, 10_000, 1 + rng.below(1 << 20)][rng.below(4) as usize];
    let mut ts: Vec<u64> = (0..len as u64).map(|i| origin + i * cadence).collect();
    let damaged = 1 + rng.below(8);
    for _ in 0..damaged {
        let at = rng.below(len as u64) as usize;
        match shape {
            Shape::Regular => {}
            Shape::Jittered => ts[at] += rng.below(cadence),
            Shape::Gapped => ts[at..].iter_mut().for_each(|t| *t += cadence * rng.below(100)),
            Shape::Duplicated if at > 0 => ts[at] = ts[at - 1],
            Shape::Duplicated => {}
        }
        ts.sort_unstable();
    }
    ts
}

fn block_of(ts: &[u64], rng: &mut Rng) -> (Vec<(Ts, f64)>, SeriesBlock) {
    let points: Vec<(Ts, f64)> =
        ts.iter().map(|&t| (Ts(t), 200.0 + rng.below(64) as f64 / 8.0)).collect();
    let key = SeriesKey::new(MetricId(1), CompId::node(7));
    let block = SeriesBlock::compress(key, &points);
    (points, block)
}

#[test]
fn sealed_stamp_streams_equal_the_format_statement_and_round_trip() {
    let mut rng = Rng(0x2018);
    let lens = [1usize, 2, 3, 17, 512, 1_000];
    for shape in [Shape::Regular, Shape::Jittered, Shape::Gapped, Shape::Duplicated] {
        for case in 0..200 {
            let len = lens[case % lens.len()];
            let ts = stamps(&mut rng, shape, len);
            let (points, block) = block_of(&ts, &mut rng);
            assert_eq!(block.ts_bytes, stamp_stream(&ts), "{shape:?} case {case}");
            assert_eq!(block.decompress(), Ok(points), "{shape:?} case {case}");
        }
    }
    // 2^16 points, each shape once.
    for shape in [Shape::Regular, Shape::Jittered, Shape::Gapped, Shape::Duplicated] {
        let ts = stamps(&mut rng, shape, 1 << 16);
        let (points, block) = block_of(&ts, &mut rng);
        assert_eq!(block.ts_bytes, stamp_stream(&ts), "{shape:?}");
        assert_eq!(block.decompress(), Ok(points), "{shape:?}");
    }
}

#[test]
fn a_one_minute_block_of_512_points_keeps_its_stamps_in_16_bytes() {
    let ts: Vec<u64> = (0..512).map(|i| 1_537_000_000_000 + i * MINUTE_MS).collect();
    let (points, block) = block_of(&ts, &mut Rng(7));
    assert!(block.ts_bytes.len() <= 16, "{} stamp bytes", block.ts_bytes.len());
    assert_eq!(block.decompress(), Ok(points));
}

#[test]
fn crafted_stamp_headers_are_refused() {
    let key = SeriesKey::new(MetricId(1), CompId::node(7));
    let (_, four) = block_of(&[0, 60_000, 120_000, 180_000], &mut Rng(3));
    let zz = |d: i64| ((d << 1) ^ (d >> 63)) as u64;
    let stream = |codes: &[u64]| {
        let mut out = Vec::new();
        codes.iter().for_each(|&v| leb128(&mut out, v));
        out
    };
    let max = u32::MAX as u64;
    let cases: [(&str, u32, Vec<u8>, BlockError); 5] = [
        // u32::MAX points in twelve bytes, beside four values.
        ("one run of u32::MAX", u32::MAX, stream(&[max, 0, 0, max - 2]), BlockError::CountMismatch),
        // The same claim where the block's count agrees with the values.
        ("a header past the values", 4, stream(&[max, 0, 0, max - 2]), BlockError::CountMismatch),
        (
            "a run past the points left",
            4,
            stream(&[4, 0, zz(60_000), 0, 2]),
            BlockError::Timestamps,
        ),
        ("a truncated run length", 4, stream(&[4, 0, zz(60_000), 0]), BlockError::Timestamps),
        ("a run that overflows", 4, stream(&[4, 0, zz(1 << 62), 0, 1]), BlockError::Timestamps),
    ];
    for (what, count, ts_bytes, why) in cases {
        let block = SeriesBlock { key, count, ts_bytes, ..four.clone() };
        assert_eq!(block.decompress(), Err(why), "{what}");
        let store = TimeSeriesStore::with_options(1, 64);
        store.reload_blocks(vec![block]);
        assert_eq!(store.corrupt_blocks(), 1, "{what}");
        assert!(store.query(key, Ts::ZERO, Ts(u64::MAX)).is_empty(), "{what}");
    }
}
