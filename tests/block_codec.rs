//! An oracle for the warm block's two streams, written from the format as
//! DESIGN §2 (*Warm block format*, version 3) states it and compared byte for
//! byte with what `SeriesBlock::compress` seals — through the public API
//! only, so the tier-1 suite pins the format the store writes to every
//! checkpoint.
//!
//! The stamp stream is LEB128 varints: the point count, the first stamp,
//! then the zigzagged delta-of-deltas (the first delta taken against zero),
//! where a run of `k` zero delta-of-deltas is written once as `0` and
//! `k - 1`.
//!
//! The value stream is a LEB128 point count, then bits, most significant
//! first, zero-padded to a byte: the first value's 64 raw bits, then the XOR
//! of each value with the one before.  A run of `k` zero XORs is `0`
//! followed by the Elias-gamma code of `k` (`⌊log2 k⌋` zero bits, then `k`
//! in binary).  Any other XOR is `10` and its bits inside the window last
//! opened, when it fits that window, or else `11`, five bits of leading
//! zeros (at most 31), six bits of window length (64 written as 0) and the
//! window's bits, which opens a new window.

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

/// The value stream of `values`, from the format's statement.
fn value_stream(values: &[f64]) -> Vec<u8> {
    let mut bits: Vec<bool> = Vec::new();
    let mut put = |v: u64, width: u32| (0..width).rev().for_each(|i| bits.push(v >> i & 1 == 1));
    let words: Vec<u64> = values.iter().map(|v| v.to_bits()).collect();
    if let Some(&first) = words.first() {
        put(first, 64);
    }
    let xors: Vec<u64> = words.windows(2).map(|w| w[0] ^ w[1]).collect();
    let mut window: Option<(u32, u32)> = None;
    for group in xors.chunk_by(|a, b| *a == 0 && *b == 0) {
        let xor = group[0];
        if xor == 0 {
            let k = group.len() as u64;
            let log = 63 - k.leading_zeros();
            put(0, 1 + log);
            put(k, log + 1);
            continue;
        }
        let (leading, trailing) = (xor.leading_zeros().min(31), xor.trailing_zeros());
        match window {
            Some((l, t)) if leading >= l && trailing >= t => {
                put(0b10, 2);
                put(xor >> t, 64 - l - t);
            }
            _ => {
                let length = 64 - leading - trailing;
                put(0b11, 2);
                put(leading.into(), 5);
                put(u64::from(length % 64), 6);
                put(xor >> trailing, length);
                window = Some((leading, trailing));
            }
        }
    }
    let mut out = Vec::new();
    leb128(&mut out, values.len() as u64);
    for byte in bits.chunks(8) {
        out.push(byte.iter().enumerate().fold(0, |b, (i, &bit)| b | u8::from(bit) << (7 - i)));
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

/// `len` values of a shape the store meets: a level held for the whole block
/// or for runs of random length, steps, a counter, noise, NaN payloads and
/// signed zeros.
fn values(rng: &mut Rng, len: usize) -> Vec<f64> {
    let levels = [230.0, -0.0, 0.0, f64::from_bits(0x7FF8_0000_DEAD_BEEF), 1e-300, 64.5];
    let mut level = levels[rng.below(6) as usize];
    match rng.below(4) {
        0 => vec![level; len],
        1 => (0..len)
            .map(|_| {
                if rng.below(20) == 0 {
                    level = levels[rng.below(6) as usize] + rng.below(3) as f64;
                }
                level
            })
            .collect(),
        2 => (0..len).map(|i| (i as u64 * rng.below(5)) as f64).collect(),
        _ => (0..len).map(|_| f64::from_bits(rng.next())).collect(),
    }
}

#[test]
fn sealed_value_streams_equal_the_format_statement_and_round_trip() {
    let mut rng = Rng(0x2092);
    let key = SeriesKey::new(MetricId(1), CompId::node(7));
    for case in 0..800 {
        let len = [1usize, 2, 3, 9, 64, 511, 512, 1_000][case % 8];
        let vals = values(&mut rng, len);
        let points: Vec<(Ts, f64)> =
            vals.iter().enumerate().map(|(i, &v)| (Ts(i as u64 * MINUTE_MS), v)).collect();
        let block = SeriesBlock::compress(key, &points);
        assert_eq!(block.val_bytes, value_stream(&vals), "case {case}");
        let back: Vec<u64> = block.decompress().unwrap().iter().map(|p| p.1.to_bits()).collect();
        assert_eq!(back, vals.iter().map(|v| v.to_bits()).collect::<Vec<_>>(), "case {case}");
    }
    // A block that never changes is its count, its value and one run.
    let flat: Vec<(Ts, f64)> = (0..512).map(|i| (Ts(i * MINUTE_MS), 230.0)).collect();
    assert_eq!(SeriesBlock::compress(key, &flat).val_bytes.len(), 2 + 8 + 3);
}

#[test]
fn crafted_value_run_headers_are_refused() {
    let key = SeriesKey::new(MetricId(1), CompId::node(7));
    let ts: Vec<u64> = (0..4).map(|i| i * MINUTE_MS).collect();
    let (_, four) = block_of(&ts, &mut Rng(5));
    // Values: the count, 1.5, then the given (bits, width) codes.
    let stream = |count: u64, codes: &[(u64, u32)]| {
        let mut bits = Vec::new();
        for &(v, width) in [(1.5f64.to_bits(), 64)].iter().chain(codes) {
            (0..width).rev().for_each(|i| bits.push(v >> i & 1 == 1));
        }
        let mut out = Vec::new();
        leb128(&mut out, count);
        for byte in bits.chunks(8) {
            out.push(byte.iter().enumerate().fold(0, |b, (i, &bit)| b | u8::from(bit) << (7 - i)));
        }
        out
    };
    // Runs after the first value: `0`, then `⌊log2 k⌋` zeros and `k`.
    let (run2, run3, run4) = ((0b0_010, 4), (0b0_011, 4), (0b0_00100, 6));
    let good = SeriesBlock { val_bytes: stream(4, &[run3]), ..four.clone() };
    let decoded: Vec<f64> = good.decompress().unwrap().iter().map(|p| p.1).collect();
    assert_eq!(decoded, [1.5; 4]);
    let max = u32::MAX as u64;
    let cases: [(&str, u32, Vec<u8>, BlockError); 5] = [
        // A run past the points left: four, where three are.
        ("a run past the points left", 4, stream(4, &[run4]), BlockError::Values),
        // `0` and its zeros, then nothing but padding.
        ("a truncated run length", 4, stream(4, &[(0, 3)]), BlockError::Values),
        // u32::MAX points claimed in one run of u32::MAX - 1.
        ("one run of u32::MAX", u32::MAX, stream(max, &[(max - 1, 64)]), BlockError::Values),
        // The same claim where the block's count agrees with the stamps.
        ("a header past the stamps", 4, stream(max, &[(max - 1, 64)]), BlockError::Values),
        // A well-formed run, one point short of the stamps.
        ("a count short of the stamps", 4, stream(3, &[run2]), BlockError::CountMismatch),
    ];
    for (what, count, val_bytes, why) in cases {
        assert!(val_bytes.len() <= 24, "{what}: a few bytes");
        let block = SeriesBlock { key, count, val_bytes, ..four.clone() };
        assert_eq!(block.decompress(), Err(why), "{what}");
        let store = TimeSeriesStore::with_options(1, 64);
        store.reload_blocks(vec![block]);
        assert_eq!(store.corrupt_blocks(), 1, "{what}");
        assert!(store.query(key, Ts::ZERO, Ts(u64::MAX)).is_empty(), "{what}");
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
