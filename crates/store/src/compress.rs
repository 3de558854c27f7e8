//! Time-series block compression (block format v3).
//!
//! A block is two streams.  Timestamps use zigzag-varint delta-of-delta
//! with each run of zero delta-of-deltas written once (a perfectly regular
//! cadence costs a few bytes a block, whatever its length).  Values use the
//! Gorilla XOR scheme (Facebook, VLDB'15) with the same rule on the XOR
//! stream: after the first value's 64 raw bits, a run of `k >= 1` zero
//! XORs is written once, as `0` plus the Elias-gamma code of `k`, so a
//! block whose values never change is its first value and one run (13
//! bytes for 512 points), and values with a stable exponent/mantissa window
//! cost a few bits.  Together they bring a one-minute node-metric stream to
//! under two bytes a sample (1.66 at 4,096 nodes), which is what makes
//! "keep all data" (Table I) a defensible requirement.  Runs free both
//! streams' headers from their bytes, so the value header is bounded by
//! what a block may hold, 2^24 points (`MAX_BLOCK_POINTS`), the stamp header
//! by matching it, and every run by the points left.
//!
//! Every series seals on the same tick, so the encoder sits on the tick's
//! critical path under the shard write lock.  The kernels therefore move
//! whole words: the writer packs into a 64-bit accumulator and the reader
//! loads unaligned big-endian words, one bounds check per code instead of
//! one per bit; a run of repeats is found by a compare-and-count over the
//! slice, eight values at a time.  The byte format is pinned by the
//! bit-at-a-time reference in this module's tests.

use hpcmon_metrics::Ts;

/// Bit-level writer over a byte vector, most significant bit first.
#[derive(Debug, Default)]
pub struct BitWriter {
    bytes: Vec<u8>,
    // Pending bits, left-aligned; the low `64 - fill` bits are zero.
    acc: u64,
    // Pending bits in `acc` (0..=63).
    fill: u32,
}

impl BitWriter {
    /// Append the low `n` bits of `value`, most significant first.
    #[inline]
    pub(crate) fn write_bits(&mut self, value: u64, n: u8) {
        assert!(n <= 64);
        let n = n as u32;
        let v = if n == 0 { 0 } else { value << (64 - n) };
        self.acc |= v >> self.fill;
        let total = self.fill + n;
        if total >= 64 {
            self.bytes.extend_from_slice(&self.acc.to_be_bytes());
            // The `64 - fill` high bits of `v` just left; keep the rest.
            self.acc = (v << 1) << (63 - self.fill);
            self.fill = total - 64;
        } else {
            self.fill = total;
        }
    }

    /// Finish, returning the packed bytes (the last byte zero-padded).
    pub(crate) fn finish(mut self) -> Vec<u8> {
        let tail = self.fill.div_ceil(8) as usize;
        self.bytes.extend_from_slice(&self.acc.to_be_bytes()[..tail]);
        self.bytes
    }
}

/// Bit-level reader over a byte slice, most significant bit first.
#[derive(Debug)]
pub struct BitReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> BitReader<'a> {
    /// Read from the start of `bytes`.
    pub(crate) fn new(bytes: &'a [u8]) -> BitReader<'a> {
        BitReader { bytes, pos: 0 }
    }

    /// The bits from the cursor on, left-aligned (at least 57 of them),
    /// zero-padded past the end of input.  Does not advance.
    #[inline]
    fn peek(&self) -> u64 {
        let byte = self.pos / 8;
        let word = match self.bytes.get(byte..byte + 8) {
            Some(w) => u64::from_be_bytes(w.try_into().expect("8-byte slice")),
            None => {
                let rest = self.bytes.get(byte..).unwrap_or(&[]);
                let mut w = [0u8; 8];
                w[..rest.len()].copy_from_slice(rest);
                u64::from_be_bytes(w)
            }
        };
        word << (self.pos % 8)
    }

    /// Advance `n` bits; `None` (cursor unmoved) if fewer remain.
    #[inline]
    fn skip(&mut self, n: u32) -> Option<()> {
        let end = self.pos + n as usize;
        if end > self.bytes.len().saturating_mul(8) {
            return None;
        }
        self.pos = end;
        Some(())
    }

    /// Next `n` bits as an integer (MSB first); `None` if fewer remain.
    #[inline]
    pub(crate) fn read_bits(&mut self, n: u8) -> Option<u64> {
        assert!(n <= 64);
        if n > 56 {
            // One load guarantees 57 bits: take a wide read in two.
            let hi = self.read_bits(n - 32)?;
            return Some(hi << 32 | self.read_bits(32)?);
        }
        let v = (self.peek() >> 1) >> (63 - n);
        self.skip(n as u32)?;
        Some(v)
    }
}

// ----- varint / zigzag -----

fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Encoded length of `v`: one byte per started group of seven bits.
fn varint_len(v: u64) -> usize {
    (70 - (v | 1).leading_zeros() as usize) / 7
}

#[inline]
fn write_varint(out: &mut Vec<u8>, mut v: u64) {
    // A regular cadence makes almost every delta-of-delta a single byte.
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

#[inline]
fn read_varint(bytes: &[u8], pos: &mut usize) -> Option<u64> {
    let first = *bytes.get(*pos)?;
    *pos += 1;
    if first < 0x80 {
        return Some(first as u64);
    }
    let mut v = (first & 0x7F) as u64;
    let mut shift = 7u32;
    loop {
        let byte = *bytes.get(*pos)?;
        *pos += 1;
        v |= ((byte & 0x7F) as u64) << shift;
        if byte & 0x80 == 0 {
            return Some(v);
        }
        shift += 7;
        if shift >= 64 {
            return None;
        }
    }
}

// ----- timestamps: delta-of-delta varint, zero runs coded once -----

/// Feed `emit` the varint payloads of a timestamp stream: the count, the
/// first timestamp, then the zigzag delta-of-deltas (the first against
/// zero).  A run of `k` zero delta-of-deltas is written once, as `0` and
/// `k - 1`; no other delta-of-delta zigzags to `0`, so the code is
/// unambiguous.
#[inline]
fn timestamp_codes(mut ts: impl ExactSizeIterator<Item = Ts>, mut emit: impl FnMut(u64)) {
    emit(ts.len() as u64);
    let Some(first) = ts.next() else { return };
    emit(first.0);
    let (mut prev, mut prev_delta, mut zeros) = (first.0 as i64, 0i64, 0u64);
    for t in ts {
        let delta = t.0 as i64 - prev;
        if delta == prev_delta {
            zeros += 1;
        } else {
            if zeros > 0 {
                emit(0);
                emit(zeros - 1);
                zeros = 0;
            }
            emit(zigzag(delta - prev_delta));
        }
        prev_delta = delta;
        prev = t.0 as i64;
    }
    if zeros > 0 {
        emit(0);
        emit(zeros - 1);
    }
}

/// Append the compressed form of a monotone-nondecreasing timestamp
/// sequence to `out`.
pub(crate) fn encode_timestamps_into(out: &mut Vec<u8>, ts: impl ExactSizeIterator<Item = Ts>) {
    timestamp_codes(ts, |v| write_varint(out, v));
}

/// Compress a monotone-nondecreasing timestamp sequence into one
/// exact-sized allocation (a sizing pass, then the encode).
pub(crate) fn encode_timestamps(ts: impl ExactSizeIterator<Item = Ts> + Clone) -> Vec<u8> {
    let mut len = 0usize;
    timestamp_codes(ts.clone(), |v| len += varint_len(v));
    let mut out = Vec::with_capacity(len);
    encode_timestamps_into(&mut out, ts);
    out
}

/// Streaming decoder for [`encode_timestamps`] output.
///
/// Fails closed on truncated input, overflow, a run longer than the points
/// left, or a cumulative timestamp that goes negative: a corrupt or
/// adversarial block must surface as an error, never silently round-trip
/// to *different* data.
pub(crate) struct TimestampDecoder<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Declared point count.  The bytes present do not bound it (a run
    /// codes any number of points in a few bytes): a caller bounds it by
    /// something else — a block's value stream — before looping on it.
    pub(crate) len: usize,
    // Points not yet handed out.
    left: usize,
    // Zero delta-of-deltas still owed by the current run.
    run: usize,
    // Last timestamp, or negative when the first does not fit an `i64`
    // (legal alone, but no delta can follow it).
    cur: i64,
    delta: i64,
    started: bool,
}

impl<'a> TimestampDecoder<'a> {
    /// Read the length header.
    pub(crate) fn new(bytes: &'a [u8]) -> Option<TimestampDecoder<'a>> {
        let mut pos = 0usize;
        let len = usize::try_from(read_varint(bytes, &mut pos)?).ok()?;
        let (cur, delta) = (0, 0);
        Some(TimestampDecoder { bytes, pos, len, left: len, run: 0, cur, delta, started: false })
    }

    /// The next timestamp; `None` on corruption or past `len`.  Inside a run
    /// a point costs a decrement, not a varint read.
    #[inline]
    pub(crate) fn next_ts(&mut self) -> Option<Ts> {
        self.left = self.left.checked_sub(1)?;
        if self.run > 0 {
            self.run -= 1;
        } else {
            let v = read_varint(self.bytes, &mut self.pos)?;
            if !self.started {
                self.started = true;
                self.cur = i64::try_from(v).unwrap_or(-1);
                return Some(Ts(v));
            }
            if v == 0 {
                // This point and `more` after it repeat the delta.
                let more = read_varint(self.bytes, &mut self.pos)?;
                if more > self.left as u64 {
                    return None;
                }
                self.run = more as usize;
            } else {
                self.delta = self.delta.checked_add(unzigzag(v))?;
            }
        }
        let next = self.cur.checked_add(self.delta)?;
        if self.cur < 0 || next < 0 {
            return None;
        }
        self.cur = next;
        Some(Ts(next as u64))
    }
}

/// Check that [`TimestampDecoder`] would hand out every declared point of
/// `bytes`, walking the codes once and stepping over each run
/// arithmetically: O(bytes), whatever the header claims.
pub(crate) fn check_timestamps(bytes: &[u8]) -> Option<()> {
    let mut pos = 0usize;
    let mut left = read_varint(bytes, &mut pos)?;
    if left == 0 {
        return Some(());
    }
    let first = read_varint(bytes, &mut pos)?;
    left -= 1;
    let (mut cur, mut delta) = (i64::try_from(first).unwrap_or(-1), 0i64);
    while left > 0 {
        let v = read_varint(bytes, &mut pos)?;
        let steps = if v == 0 {
            read_varint(bytes, &mut pos)?.checked_add(1).filter(|&k| k <= left)?
        } else {
            delta = delta.checked_add(unzigzag(v))?;
            1
        };
        // A run's stamps lie between `cur` and its last: check the last.
        let last = i128::from(cur) + i128::from(delta) * i128::from(steps);
        if cur < 0 || !(0..=i128::from(i64::MAX)).contains(&last) {
            return None;
        }
        cur = last as i64;
        left -= steps;
    }
    Some(())
}

// ----- values: Gorilla XOR, zero runs coded once -----

/// Most points a block may hold: 2^24, 256 MB decoded.  Runs free both
/// streams from their bytes (a few bytes claim any count), so this, not the
/// input's length, is what bounds a decoder's loop and output, whatever a
/// header claims.
pub(crate) const MAX_BLOCK_POINTS: usize = 1 << 24;

/// How many leading `values` carry exactly the bits `bits`: a compare and
/// count, eight at a time so the loop vectorizes.
#[inline]
pub(crate) fn repeats<T>(values: &[T], bits: u64, value: impl Fn(&T) -> f64) -> usize {
    let mut n = 0;
    for chunk in values.chunks_exact(8) {
        if chunk.iter().fold(0, |diff, v| diff | (value(v).to_bits() ^ bits)) != 0 {
            break;
        }
        n += 8;
    }
    n + values[n..].iter().take_while(|v| value(v).to_bits() == bits).count()
}

/// The code of a run of `k >= 1` zero XORs: `0`, then the Elias-gamma code
/// of `k` (`⌊log2 k⌋` zeros and `k` in binary) — `k` written in twice its
/// bit length.
#[inline]
fn run_code(k: usize) -> (u64, u8) {
    (k as u64, 2 * (usize::BITS - k.leading_zeros()) as u8)
}

/// Feed `emit(bits, width)` the code of a float stream: 64 raw bits for the
/// first value, then per XOR with the value before: a run of zero XORs as
/// [`run_code`], else `10` + the XOR's bits inside the previous window, or
/// `11` + 5-bit leading-zero count + 6-bit window length (64 wraps to 0) +
/// the window's bits.
#[inline]
fn value_codes<T>(values: &[T], value: impl Fn(&T) -> f64, mut emit: impl FnMut(u64, u8)) {
    assert!(values.len() <= MAX_BLOCK_POINTS, "a block holds at most 2^24 points");
    let Some((first, mut rest)) = values.split_first() else { return };
    let mut prev = value(first).to_bits();
    emit(prev, 64);
    // No window yet: no XOR has `u32::MAX` leading zeros.
    let (mut win_leading, mut win_trailing) = (u32::MAX, 0u32);
    while let Some((v, tail)) = rest.split_first() {
        let xor = value(v).to_bits() ^ prev;
        if xor == 0 {
            let k = 1 + repeats(tail, prev, &value);
            let (code, width) = run_code(k);
            emit(code, width);
            rest = &rest[k..];
            continue;
        }
        prev ^= xor;
        rest = tail;
        let leading = xor.leading_zeros().min(31);
        let trailing = xor.trailing_zeros();
        if leading >= win_leading && trailing >= win_trailing {
            emit(0b10, 2);
            emit(xor >> win_trailing, (64 - win_leading - win_trailing) as u8);
        } else {
            let meaningful = 64 - leading - trailing;
            emit(0b11 << 11 | (leading as u64) << 6 | (meaningful as u64 & 63), 13);
            emit(xor >> trailing, meaningful as u8);
            win_leading = leading;
            win_trailing = trailing;
        }
    }
}

/// Append the value stream of `values` (each read through `value`) to
/// `out`.
pub(crate) fn encode_values_into<T>(out: &mut Vec<u8>, values: &[T], value: impl Fn(&T) -> f64) {
    write_varint(out, values.len() as u64);
    let mut w = BitWriter { bytes: std::mem::take(out), acc: 0, fill: 0 };
    value_codes(values, value, |code, width| w.write_bits(code, width));
    *out = w.finish();
}

/// The value stream of `values` in one exact-sized allocation (a sizing
/// pass, then the encode).
pub(crate) fn encode_values<T>(values: &[T], value: impl Fn(&T) -> f64 + Copy) -> Vec<u8> {
    let mut bits = 0usize;
    value_codes(values, value, |_, width| bits += width as usize);
    let mut out = Vec::with_capacity(varint_len(values.len() as u64) + bits.div_ceil(8));
    encode_values_into(&mut out, values, value);
    out
}

/// What [`encode_values`] makes of `count` copies of the value with bits
/// `bits`, in O(1): the first value and one run.
pub(crate) fn encode_flat(bits: u64, count: usize) -> Vec<u8> {
    assert!((1..=MAX_BLOCK_POINTS).contains(&count), "a flat block holds 1 to 2^24 points");
    let run = (count > 1).then(|| run_code(count - 1));
    let width = 64 + run.map_or(0, |(_, w)| w as usize);
    let mut out = Vec::with_capacity(varint_len(count as u64) + width.div_ceil(8));
    write_varint(&mut out, count as u64);
    let mut w = BitWriter { bytes: out, acc: 0, fill: 0 };
    w.write_bits(bits, 64);
    if let Some((code, width)) = run {
        w.write_bits(code, width);
    }
    w.finish()
}

/// Streaming decoder for [`encode_values`] output.
///
/// Fails closed on a header past [`MAX_BLOCK_POINTS`], truncated input, a
/// run longer than the points left, and a window no encoder opens.
pub(crate) struct ValueDecoder<'a> {
    bits: BitReader<'a>,
    /// Declared value count, at most [`MAX_BLOCK_POINTS`]: the bytes present
    /// do not bound it (a run codes any number of points).
    pub(crate) len: usize,
    // Points not yet covered by a code read.
    left: usize,
    // Repeats of `prev` still owed by the current run.
    run: usize,
    prev: u64,
    leading: u32,
    // Window length; 0 until the stream opens its first window.
    meaningful: u32,
}

impl<'a> ValueDecoder<'a> {
    /// Read the length header; `None` past what a block may hold.
    pub(crate) fn new(bytes: &'a [u8]) -> Option<ValueDecoder<'a>> {
        let mut pos = 0usize;
        let len = usize::try_from(read_varint(bytes, &mut pos)?).ok()?;
        if len > MAX_BLOCK_POINTS {
            return None;
        }
        let bits = BitReader::new(&bytes[pos..]);
        Some(ValueDecoder { bits, len, left: len, run: 0, prev: 0, leading: 0, meaningful: 0 })
    }

    /// The next value; `None` on corruption or past `len`.  Inside a run a
    /// point costs a decrement, not a code read.
    #[inline]
    pub(crate) fn next_value(&mut self) -> Option<f64> {
        if self.run > 0 {
            self.run -= 1;
        } else {
            self.run = self.next_code()? - 1;
        }
        Some(f64::from_bits(self.prev))
    }

    /// Read one code into `prev` and return how many points it stands for
    /// (a run's length, else one); `None` on corruption or past `len`.
    #[inline]
    fn next_code(&mut self) -> Option<usize> {
        if self.left == 0 {
            return None;
        }
        if self.left == self.len {
            self.prev = self.bits.read_bits(64)?;
            self.left -= 1;
            return Some(1);
        }
        let head = self.bits.peek();
        if head >> 63 == 0 {
            // A run: its length's bit length less one, in zeros.  No block
            // holds 2^25 points, so more zeros than that is corruption (and
            // keeps the code inside the bits one peek sees).
            let zeros = (head << 1).leading_zeros();
            if zeros > MAX_BLOCK_POINTS.ilog2() {
                return None;
            }
            self.bits.skip(1 + zeros)?;
            let k = self.bits.read_bits(zeros as u8 + 1)? as usize;
            if k > self.left {
                return None;
            }
            self.left -= k;
            return Some(k);
        }
        if head >> 62 == 0b11 {
            self.bits.skip(13)?;
            self.leading = (head >> 57) as u32 & 31;
            // 6 bits cannot express 64; 0 encodes a full-width window.
            self.meaningful = match (head >> 51) as u32 & 63 {
                0 => 64,
                m => m,
            };
        } else {
            self.bits.skip(2)?;
        }
        // No encoder reuses a window before opening one or opens one wider
        // than the word; decoding either would shift out of range and hand
        // back different data, so both are corruption.
        if self.meaningful == 0 || self.leading + self.meaningful > 64 {
            return None;
        }
        let xor = self.bits.read_bits(self.meaningful as u8)?;
        self.prev ^= xor << (64 - self.leading - self.meaningful);
        self.left -= 1;
        Some(1)
    }
}

/// Check that [`ValueDecoder`] would hand out every declared value of
/// `bytes`, reading each code once and stepping over each run in one step:
/// O(bytes), whatever the header claims.
pub(crate) fn check_values(bytes: &[u8]) -> Option<()> {
    let mut d = ValueDecoder::new(bytes)?;
    while d.left > 0 {
        d.next_code()?;
    }
    Some(())
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Most points a test stream may claim.  Neither codec bounds its
    /// header by its bytes (a run codes any number of points): a block
    /// bounds it by its count, so the test decoders, kernel and reference
    /// alike, bound it here.
    const MAX_POINTS: usize = 1 << 17;

    fn compress_timestamps(ts: &[Ts]) -> Vec<u8> {
        encode_timestamps(ts.iter().copied())
    }

    /// Every stamp of `bytes` through [`TimestampDecoder`], checking on the
    /// way that the arithmetic walk of [`check_timestamps`] agrees.
    fn decompress_timestamps(bytes: &[u8]) -> Option<Vec<Ts>> {
        let mut d = TimestampDecoder::new(bytes)?;
        if d.len > MAX_POINTS {
            return None;
        }
        let out: Option<Vec<Ts>> = (0..d.len).map(|_| d.next_ts()).collect();
        assert_eq!(check_timestamps(bytes).is_some(), out.is_some(), "walk and decoder disagree");
        out
    }

    fn compress_values(values: &[f64]) -> Vec<u8> {
        encode_values(values, |&v| v)
    }

    /// Every value of `bytes` through [`ValueDecoder`], checking on the way
    /// that the code walk of [`check_values`] agrees.
    fn decompress_values(bytes: &[u8]) -> Option<Vec<f64>> {
        let mut d = ValueDecoder::new(bytes)?;
        if d.len > MAX_POINTS {
            return None;
        }
        let out: Option<Vec<f64>> = (0..d.len).map(|_| d.next_value()).collect();
        assert_eq!(check_values(bytes).is_some(), out.is_some(), "check and decoder disagree");
        out
    }

    impl BitWriter {
        fn bit_len(&self) -> usize {
            self.bytes.len() * 8 + self.fill as usize
        }
    }

    impl BitReader<'_> {
        fn read_bit(&mut self) -> Option<bool> {
            self.read_bits(1).map(|b| b == 1)
        }
    }

    #[test]
    fn bitwriter_round_trip() {
        let mut w = BitWriter::default();
        w.write_bits(1, 1);
        w.write_bits(0b1011, 4);
        w.write_bits(u64::MAX, 64);
        w.write_bits(0, 1);
        assert_eq!(w.bit_len(), 70);
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_bit(), Some(true));
        assert_eq!(r.read_bits(4), Some(0b1011));
        assert_eq!(r.read_bits(64), Some(u64::MAX));
        assert_eq!(r.read_bit(), Some(false));
    }

    #[test]
    fn reader_ends_cleanly() {
        let mut r = BitReader::new(&[0xFF]);
        assert_eq!(r.read_bits(8), Some(0xFF));
        assert_eq!(r.read_bit(), None);
        assert_eq!(r.read_bits(4), None);
    }

    #[test]
    fn zigzag_round_trip() {
        for v in [0i64, 1, -1, 42, -42, i64::MAX / 2, i64::MIN / 2] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
    }

    #[test]
    fn empty_and_singleton_series() {
        assert_eq!(decompress_timestamps(&compress_timestamps(&[])).unwrap(), vec![]);
        assert_eq!(decompress_values(&compress_values(&[])).unwrap(), Vec::<f64>::new());
        let one = vec![Ts(99)];
        assert_eq!(decompress_timestamps(&compress_timestamps(&one)).unwrap(), one);
        let onev = vec![std::f64::consts::PI];
        assert_eq!(decompress_values(&compress_values(&onev)).unwrap(), onev);
    }

    #[test]
    fn regular_cadence_costs_a_few_bytes_whatever_its_length() {
        let ts: Vec<Ts> = (0..1_000).map(Ts::from_mins).collect();
        let bytes = compress_timestamps(&ts);
        // header 2 + first 1 + first delta 3 + one run of 998 zero dods 3.
        assert_eq!(bytes.len(), 9, "got {}", hex(&bytes));
        assert_eq!(decompress_timestamps(&bytes).unwrap(), ts);
        // Jitter costs the points it moves: a stamp one off the cadence
        // breaks the run with three one-byte delta-of-deltas (+1, -2, +1)
        // and opens a second run.
        let mut jittered = ts.clone();
        jittered[500].0 += 1;
        let bytes = compress_timestamps(&jittered);
        assert_eq!(bytes.len(), 9 + 3 + 3, "got {}", hex(&bytes));
        assert_eq!(decompress_timestamps(&bytes).unwrap(), jittered);
    }

    #[test]
    fn irregular_timestamps_round_trip() {
        let ts = vec![Ts(0), Ts(7), Ts(7), Ts(1_000_000), Ts(1_000_001)];
        assert_eq!(decompress_timestamps(&compress_timestamps(&ts)).unwrap(), ts);
    }

    #[test]
    fn constant_values_compress_to_bits() {
        let vals = vec![42.5; 10_000];
        let bytes = compress_values(&vals);
        // Header 2 + the first value 8 + one run of 9,999: `0`, 13 zeros
        // and 14 bits, 28 bits in all.
        assert_eq!(bytes.len(), 2 + 8 + 4, "got {}", hex(&bytes));
        assert_eq!(decompress_values(&bytes).unwrap(), vals);
        // A change costs the two XORs it makes and splits the run: 64 +
        // 26 (a run of 4,999) + 15 (`11`, a new two-bit window) + 4 (`10`,
        // the same window) + 26 bits.
        let mut bumped = vals.clone();
        bumped[5_000] = 43.0;
        let bytes = compress_values(&bumped);
        assert_eq!(bytes.len(), 2 + 17, "got {}", hex(&bytes));
        assert_eq!(decompress_values(&bytes).unwrap(), bumped);
    }

    #[test]
    fn a_flat_block_is_built_in_constant_time_into_the_encoders_bytes() {
        for bits in [0, 42.5f64.to_bits(), f64::NAN.to_bits(), (-0.0f64).to_bits(), u64::MAX] {
            for count in (1..=70).chain([255, 256, 257, 511, 512, 513, 4_096, MAX_BLOCK_POINTS]) {
                let vals = vec![f64::from_bits(bits); count];
                let flat = encode_flat(bits, count);
                assert_eq!(flat, compress_values(&vals), "{bits:#x} x {count}");
                assert_eq!(flat.capacity(), flat.len(), "one exact-sized allocation");
                if count <= MAX_POINTS {
                    assert!(same_bits(decompress_values(&flat), Some(vals)));
                }
                assert_eq!(check_values(&flat), Some(()));
            }
        }
        // 512 points: header 2, the value 8, a run of 511 in 18 bits.
        assert_eq!(encode_flat(0, 512).len(), 13);
    }

    #[test]
    fn runs_are_the_longest_the_values_allow() {
        // Every run length from one to 40 between two changes, and a
        // repeat at the very end: a run is as long as the repeats it codes,
        // and a lone repeat costs two bits.
        for k in 1..40usize {
            let mut vals = vec![1.0];
            vals.extend(std::iter::repeat_n(2.0, k + 1));
            vals.push(3.0);
            vals.push(3.0);
            let bytes = compress_values(&vals);
            assert_eq!(bytes, reference::compress_values(&vals), "run of {k}");
            assert_eq!(decompress_values(&bytes).unwrap(), vals);
        }
        for (vals, n) in [(vec![7.0, 7.0], 0usize), (vec![7.0; 9], 0), (vec![1.0, 7.0, 7.0], 1)] {
            assert_eq!(repeats(&vals[n + 1..], 7.0f64.to_bits(), |&v| v), vals.len() - n - 1);
        }
        assert_eq!(repeats(&[1.0, 1.0, 2.0, 1.0], 1.0f64.to_bits(), |&v: &f64| v), 2);
        let nine: Vec<f64> = (0..17).map(|i| if i == 9 { 0.5 } else { 1.5 }).collect();
        assert_eq!(repeats(&nine, 1.5f64.to_bits(), |&v| v), 9);
    }

    #[test]
    fn slowly_varying_values_compress_well() {
        let vals: Vec<f64> = (0..10_000).map(|i| 200.0 + (i as f64 * 0.01).sin()).collect();
        let bytes = compress_values(&vals);
        let ratio = bytes.len() as f64 / (vals.len() * 8) as f64;
        // Full-precision sin() wiggles most mantissa bits; Gorilla still
        // beats raw by trimming the stable exponent/sign window.
        assert!(ratio < 0.85, "ratio {ratio}");
        let back = decompress_values(&bytes).unwrap();
        assert_eq!(back, vals);
    }

    #[test]
    fn full_width_xor_window() {
        // Values engineered so the XOR has no leading/trailing zeros:
        // meaningful = 64 exercises the 6-bit length wrap encoding.
        let a = f64::from_bits(0x8000_0000_0000_0001);
        let b = f64::from_bits(0x0000_0000_0000_0000);
        let vals = vec![a, b, a, b];
        assert_eq!(decompress_values(&compress_values(&vals)).unwrap(), vals);
    }

    #[test]
    fn special_floats_round_trip() {
        let vals = vec![0.0, -0.0, f64::MIN_POSITIVE, f64::MAX, -f64::MAX, 1e-300];
        let back = decompress_values(&compress_values(&vals)).unwrap();
        assert_eq!(back.len(), vals.len());
        for (x, y) in back.iter().zip(&vals) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn negative_cumulative_timestamp_is_an_error_not_wrong_data() {
        // Hand-encode a block whose second point lands at 10 - 15 = -5.
        // Before the fix this decoded "successfully" to Ts(0) — silently
        // different data; now it must be rejected.
        let mut bytes = Vec::new();
        write_varint(&mut bytes, 2); // n
        write_varint(&mut bytes, 10); // first
        write_varint(&mut bytes, zigzag(-15)); // first delta
        assert_eq!(decompress_timestamps(&bytes), None);

        // Same shape but going negative mid-stream via a delta-of-delta.
        let mut bytes = Vec::new();
        write_varint(&mut bytes, 3); // n
        write_varint(&mut bytes, 100); // first
        write_varint(&mut bytes, zigzag(5)); // 100 -> 105
        write_varint(&mut bytes, zigzag(-300)); // delta becomes -295 -> -190
        assert_eq!(decompress_timestamps(&bytes), None);

        // A negative delta that stays non-negative is still legal.
        let ts = vec![Ts(100), Ts(40), Ts(0)];
        assert_eq!(decompress_timestamps(&compress_timestamps(&ts)).unwrap(), ts);
    }

    #[test]
    fn overflowing_delta_stream_is_an_error() {
        let mut bytes = Vec::new();
        write_varint(&mut bytes, 3);
        write_varint(&mut bytes, 0);
        write_varint(&mut bytes, zigzag(i64::MAX)); // delta = i64::MAX
        write_varint(&mut bytes, zigzag(i64::MAX)); // delta overflows
        assert_eq!(decompress_timestamps(&bytes), None);
    }

    #[test]
    fn oversized_declared_length_is_rejected_before_allocating() {
        // A header claiming u64::MAX values over a 3-byte body must fail
        // up front — before the fix it reached `Vec::with_capacity(n)`.
        let mut bytes = Vec::new();
        write_varint(&mut bytes, u64::MAX);
        bytes.extend_from_slice(&[1, 2, 3]);
        assert_eq!(decompress_values(&bytes), None);
        // A stamp stream has no such budget (see the runs below), and its
        // walk stops at the body's end, not after u64::MAX points.
        assert_eq!(check_timestamps(&bytes), None);
    }

    /// `count` stamps: `first`, then `codes` (already zigzagged; a `0` is
    /// followed by its run length minus one).
    fn stamp_stream(count: u64, first: u64, codes: &[u64]) -> Vec<u8> {
        let mut bytes = Vec::new();
        for v in [count, first].iter().chain(codes) {
            write_varint(&mut bytes, *v);
        }
        bytes
    }

    #[test]
    fn runs_that_overclaim_truncate_or_overflow_are_corruption() {
        let min = zigzag(60_000);
        // Four points: the first, one delta, and a run of two.
        let good = stamp_stream(4, 0, &[min, 0, 1]);
        assert_eq!(good, compress_timestamps(&[0, 1, 2, 3].map(Ts::from_mins)));
        assert_eq!(decompress_timestamps(&good), Some([0, 1, 2, 3].map(Ts::from_mins).to_vec()));
        // A run of two is not a run of three, and `0` needs its length.
        assert_eq!(decompress_timestamps(&stamp_stream(4, 0, &[min, 0, 2])), None);
        assert_eq!(decompress_timestamps(&stamp_stream(4, 0, &[min, 0])), None);
        // Each point of a run stays in range, checked at the run's end by
        // the walk: past `i64::MAX`, or below zero.
        let big = zigzag(1 << 62);
        assert_eq!(decompress_timestamps(&stamp_stream(12, 0, &[big, 0, 9])), None);
        assert!(decompress_timestamps(&stamp_stream(2, 0, &[big])).is_some());
        let down = zigzag(-10);
        assert_eq!(decompress_timestamps(&stamp_stream(102, 1_000, &[down, 0, 99])), None);
        assert!(decompress_timestamps(&stamp_stream(101, 1_000, &[down, 0, 98])).is_some());
        // A run may repeat the first stamp (duplicates) and may follow a
        // run (no encoder writes that, but it is the same data).
        let dup = stamp_stream(5, 7, &[0, 1, 0, 0, 4]);
        assert_eq!(decompress_timestamps(&dup), Some(vec![Ts(7), Ts(7), Ts(7), Ts(7), Ts(9)]));
        // The walk steps over a run of 2^64 - 2 points in one step.
        let long = stamp_stream(u64::MAX, 5, &[0, u64::MAX - 2]);
        assert_eq!(long.len(), 22);
        assert_eq!(check_timestamps(&long), Some(()));
        assert_eq!(check_timestamps(&stamp_stream(u64::MAX, 5, &[0, u64::MAX - 1])), None);
        assert_eq!(check_timestamps(&stamp_stream(u64::MAX, 5, &[2, 0, u64::MAX - 3])), None);
    }

    /// `count` values: the first, then `codes` as `(bits, width)`.
    fn value_stream(count: u64, first: f64, codes: &[(u64, u8)]) -> Vec<u8> {
        let mut bytes = Vec::new();
        write_varint(&mut bytes, count);
        let mut w = BitWriter::default();
        w.write_bits(first.to_bits(), 64);
        codes.iter().for_each(|&(code, width)| w.write_bits(code, width));
        bytes.extend_from_slice(&w.finish());
        bytes
    }

    #[test]
    fn value_runs_that_overclaim_or_truncate_are_corruption() {
        // Four points: the first and a run of three.
        let good = value_stream(4, 1.5, &[run_code(3)]);
        assert_eq!(good, compress_values(&[1.5; 4]));
        assert_eq!(decompress_values(&good), Some(vec![1.5; 4]));
        // A run of four is not a run of three, and `0` needs its length:
        // what follows a truncated one is padding, all zeros.
        assert_eq!(decompress_values(&value_stream(4, 1.5, &[run_code(4)])), None);
        assert_eq!(decompress_values(&value_stream(4, 1.5, &[(0, 3)])), None);
        assert_eq!(decompress_values(&value_stream(4, 1.5, &[])), None);
        // A run may follow a run (no encoder writes that, but it is the
        // same data).
        let split = value_stream(4, 1.5, &[run_code(1), run_code(2)]);
        assert_eq!(decompress_values(&split), Some(vec![1.5; 4]));
        // The walk steps over a run of 2^24 - 1 in one step; a header past
        // 2^24 is refused whatever follows, and a run of 2^25 is longer than
        // any block.
        let most = MAX_BLOCK_POINTS as u64;
        let long = value_stream(most, 1.5, &[run_code(MAX_BLOCK_POINTS - 1)]);
        assert_eq!(long.len(), 4 + 8 + 6);
        assert_eq!(check_values(&long), Some(()));
        assert_eq!(check_values(&value_stream(most, 1.5, &[run_code(MAX_BLOCK_POINTS)])), None);
        let past = value_stream(most + 1, 1.5, &[run_code(MAX_BLOCK_POINTS)]);
        assert_eq!(check_values(&past), None);
        let longer = value_stream(most, 1.5, &[run_code(2 * MAX_BLOCK_POINTS)]);
        assert_eq!(check_values(&longer), None);
        assert_eq!(check_values(&value_stream(u64::MAX, 1.5, &[run_code(3)])), None);
    }

    #[test]
    fn truncated_input_returns_none() {
        let ts: Vec<Ts> = (0..100).map(Ts::from_secs).collect();
        let bytes = compress_timestamps(&ts);
        assert!(decompress_timestamps(&bytes[..bytes.len() / 2]).is_none());
        let vals: Vec<f64> = (0..100).map(|i| i as f64 * 1.7).collect();
        let vb = compress_values(&vals);
        assert!(decompress_values(&vb[..vb.len() / 2]).is_none());
    }

    proptest! {
        #[test]
        fn prop_timestamps_round_trip(mut raw in proptest::collection::vec(0u64..10_000_000_000, 0..300)) {
            raw.sort_unstable();
            let ts: Vec<Ts> = raw.into_iter().map(Ts).collect();
            prop_assert_eq!(decompress_timestamps(&compress_timestamps(&ts)).unwrap(), ts);
        }

        #[test]
        fn prop_adversarial_dod_streams_round_trip_or_fail_explicitly(
            first in 0u64..1_000_000_000,
            groups in proptest::collection::vec(
                (-1_099_511_627_776i64..1_099_511_627_776, 1usize..300, 0u8..3),
                1..50,
            ),
        ) {
            // Hand-encode a delta-of-delta stream with large negative
            // swings (±2^40), each delta held for a run of points — a
            // repeated delta, possibly zero (duplicate stamps), possibly
            // written as two runs back to back.  If every cumulative
            // timestamp stays non-negative the decoder must be lossless;
            // otherwise it must refuse — never clamp to different data.
            let mut codes = Vec::new();
            let mut prev_delta = 0i64;
            let mut deltas = Vec::new();
            for &(d, k, pick) in &groups {
                // A third of the groups hold the previous delta.
                let d = if pick == 0 { prev_delta } else { d };
                let run = if d == prev_delta { k } else { k - 1 };
                if d != prev_delta {
                    codes.push(zigzag(d - prev_delta));
                }
                if run > 0 {
                    codes.extend([0, run as u64 - 1]);
                }
                deltas.extend(std::iter::repeat_n(d, k));
                prev_delta = d;
            }
            let bytes = stamp_stream(deltas.len() as u64 + 1, first, &codes);
            let mut expected = vec![first as i64];
            let mut cur = first as i64;
            for &d in &deltas {
                cur += d; // |values| ≤ 2^30 + 15,000·2^40: no i64 overflow
                expected.push(cur);
            }
            let decoded = decompress_timestamps(&bytes);
            if expected.iter().all(|&t| t >= 0) {
                let want: Vec<Ts> = expected.into_iter().map(|t| Ts(t as u64)).collect();
                prop_assert_eq!(decoded, Some(want));
            } else {
                prop_assert_eq!(decoded, None);
            }
        }

        #[test]
        fn prop_values_round_trip(vals in proptest::collection::vec(-1.0e12f64..1.0e12, 0..300)) {
            let back = decompress_values(&compress_values(&vals)).unwrap();
            prop_assert_eq!(back.len(), vals.len());
            for (x, y) in back.iter().zip(&vals) {
                prop_assert_eq!(x.to_bits(), y.to_bits());
            }
        }

        #[test]
        fn prop_corrupt_length_headers_fail_closed(
            n in any::<u64>(),
            opens_with_a_run in any::<bool>(),
            run in any::<u64>(),
            raw_body in proptest::collection::vec(0u64..256, 0..64),
        ) {
            // Arbitrary declared length over an arbitrary small body, which
            // may open with a run of any length: the decoders must either
            // decode exactly `n` points or refuse — never loop or allocate
            // on the say-so of a corrupt header.  Neither stream's budget is
            // its bytes (a run codes any number of points), so a block
            // bounds both by its count, which may not pass
            // `MAX_BLOCK_POINTS`, and the walks step over runs: O(bytes).
            let mut body = Vec::new();
            if opens_with_a_run {
                for v in [1_000, zigzag(60_000), 0, run] {
                    write_varint(&mut body, v);
                }
            }
            body.extend(raw_body.iter().map(|&b| b as u8));
            let mut bytes = Vec::new();
            write_varint(&mut bytes, n);
            bytes.extend_from_slice(&body);
            check_timestamps(&bytes); // O(bytes), whatever it finds
            check_values(&bytes);
            let count = u32::try_from(n).unwrap_or(u32::MAX);
            let mut visited = 0u64;
            let decoded = crate::tsdb::decode_streams(&bytes, &bytes, count, |_, _| visited += 1);
            prop_assert!(visited <= n.min(MAX_BLOCK_POINTS as u64), "{visited} points of {n}");
            if decoded.is_some() {
                prop_assert_eq!(visited, n);
            }
            if let Some(out) = decompress_values(&bytes) {
                prop_assert_eq!(out.len() as u64, n);
            }
        }

        #[test]
        fn prop_value_bit_patterns_round_trip(bits in proptest::collection::vec(any::<u64>(), 0..200)) {
            // Arbitrary bit patterns (including NaNs with odd payloads)
            // must survive: the store must not corrupt vendor data.
            let vals: Vec<f64> = bits.iter().map(|&b| f64::from_bits(b)).collect();
            let back = decompress_values(&compress_values(&vals)).unwrap();
            prop_assert_eq!(back.len(), vals.len());
            for (x, y) in back.iter().zip(&vals) {
                prop_assert_eq!(x.to_bits(), y.to_bits());
            }
        }
    }

    // ----- the format, pinned independently of the kernels above -----

    /// The bit-at-a-time codec this module shipped before the word-wise
    /// kernels, kept as the oracle for the byte format.  Its edits: the
    /// value decoder refuses the two window states no encoder emits, where
    /// it used to overflow a `u8` subtraction or shift; the stamp codec
    /// gained the run rule (a run of `k` zero delta-of-deltas is `0`,
    /// `k - 1`), written here as a second pass over the delta-of-deltas and
    /// decoded one point at a time; and the value codec gained it too (a
    /// run of `k` zero XORs is `0`, then `⌊log2 k⌋` zero bits and `k`),
    /// counted with `take_while`, written and read a bit at a time.
    pub(crate) mod reference {
        use super::super::{unzigzag, zigzag};
        use super::MAX_POINTS;
        use hpcmon_metrics::Ts;

        #[derive(Default)]
        pub struct BitWriter {
            bytes: Vec<u8>,
            bit_pos: u8,
        }

        impl BitWriter {
            pub(crate) fn write_bit(&mut self, bit: bool) {
                if self.bit_pos == 0 {
                    self.bytes.push(0);
                }
                if bit {
                    let last = self.bytes.len() - 1;
                    self.bytes[last] |= 1 << (7 - self.bit_pos);
                }
                self.bit_pos = (self.bit_pos + 1) % 8;
            }

            pub(crate) fn write_bits(&mut self, value: u64, n: u8) {
                assert!(n <= 64);
                for i in (0..n).rev() {
                    self.write_bit((value >> i) & 1 == 1);
                }
            }

            pub(crate) fn finish(self) -> Vec<u8> {
                self.bytes
            }
        }

        pub struct BitReader<'a> {
            bytes: &'a [u8],
            pos: usize,
        }

        impl<'a> BitReader<'a> {
            pub(crate) fn new(bytes: &'a [u8]) -> BitReader<'a> {
                BitReader { bytes, pos: 0 }
            }

            pub(crate) fn read_bit(&mut self) -> Option<bool> {
                let byte = self.bytes.get(self.pos / 8)?;
                let bit = (byte >> (7 - (self.pos % 8) as u8)) & 1 == 1;
                self.pos += 1;
                Some(bit)
            }

            pub(crate) fn read_bits(&mut self, n: u8) -> Option<u64> {
                let mut v = 0u64;
                for _ in 0..n {
                    v = (v << 1) | self.read_bit()? as u64;
                }
                Some(v)
            }
        }

        pub(crate) fn write_varint(out: &mut Vec<u8>, mut v: u64) {
            loop {
                let byte = (v & 0x7F) as u8;
                v >>= 7;
                if v == 0 {
                    out.push(byte);
                    return;
                }
                out.push(byte | 0x80);
            }
        }

        fn read_varint(bytes: &[u8], pos: &mut usize) -> Option<u64> {
            let mut v = 0u64;
            let mut shift = 0u32;
            loop {
                let byte = *bytes.get(*pos)?;
                *pos += 1;
                v |= ((byte & 0x7F) as u64) << shift;
                if byte & 0x80 == 0 {
                    return Some(v);
                }
                shift += 7;
                if shift >= 64 {
                    return None;
                }
            }
        }

        pub(crate) fn compress_timestamps(ts: &[Ts]) -> Vec<u8> {
            let mut out = Vec::with_capacity(ts.len() + 8);
            write_varint(&mut out, ts.len() as u64);
            if ts.is_empty() {
                return out;
            }
            write_varint(&mut out, ts[0].0);
            let mut dods = Vec::with_capacity(ts.len());
            let mut prev_delta = 0i64;
            for w in ts.windows(2) {
                let delta = w[1].0 as i64 - w[0].0 as i64;
                dods.push(delta - prev_delta);
                prev_delta = delta;
            }
            let mut i = 0;
            while i < dods.len() {
                let zeros = dods[i..].iter().take_while(|&&d| d == 0).count();
                if zeros == 0 {
                    write_varint(&mut out, zigzag(dods[i]));
                    i += 1;
                } else {
                    write_varint(&mut out, 0);
                    write_varint(&mut out, zeros as u64 - 1);
                    i += zeros;
                }
            }
            out
        }

        pub(crate) fn decompress_timestamps(bytes: &[u8]) -> Option<Vec<Ts>> {
            let mut pos = 0usize;
            let n = read_varint(bytes, &mut pos)? as usize;
            if n > MAX_POINTS {
                return None;
            }
            let mut out = Vec::with_capacity(n);
            if n == 0 {
                return Some(out);
            }
            let first = read_varint(bytes, &mut pos)?;
            out.push(Ts(first));
            if n == 1 {
                return Some(out);
            }
            let mut cur = i64::try_from(first).ok()?;
            let mut delta = 0i64;
            while out.len() < n {
                let code = read_varint(bytes, &mut pos)?;
                let points = if code == 0 {
                    read_varint(bytes, &mut pos)?.checked_add(1)?
                } else {
                    delta = delta.checked_add(unzigzag(code))?;
                    1
                };
                if points > (n - out.len()) as u64 {
                    return None;
                }
                for _ in 0..points {
                    cur = cur.checked_add(delta)?;
                    if cur < 0 {
                        return None;
                    }
                    out.push(Ts(cur as u64));
                }
            }
            Some(out)
        }

        pub(crate) fn compress_values(values: &[f64]) -> Vec<u8> {
            let mut header = Vec::new();
            write_varint(&mut header, values.len() as u64);
            if values.is_empty() {
                return header;
            }
            let mut w = BitWriter::default();
            w.write_bits(values[0].to_bits(), 64);
            let mut prev = values[0].to_bits();
            let mut prev_leading: u8 = 65; // sentinel: no previous window
            let mut prev_trailing: u8 = 0;
            let mut i = 1;
            while i < values.len() {
                let bits = values[i].to_bits();
                let xor = bits ^ prev;
                if xor == 0 {
                    let k = values[i..].iter().take_while(|v| v.to_bits() == prev).count();
                    w.write_bit(false);
                    let zeros = 63 - (k as u64).leading_zeros() as u8;
                    for _ in 0..zeros {
                        w.write_bit(false);
                    }
                    w.write_bits(k as u64, zeros + 1);
                    i += k;
                    continue;
                } else {
                    w.write_bit(true);
                    let leading = (xor.leading_zeros() as u8).min(31);
                    let trailing = xor.trailing_zeros() as u8;
                    if prev_leading <= 64 && leading >= prev_leading && trailing >= prev_trailing {
                        w.write_bit(false);
                        let meaningful = 64 - prev_leading - prev_trailing;
                        w.write_bits(xor >> prev_trailing, meaningful);
                    } else {
                        w.write_bit(true);
                        let meaningful = 64 - leading - trailing;
                        w.write_bits(leading as u64, 5);
                        w.write_bits(meaningful as u64, 6);
                        w.write_bits(xor >> trailing, meaningful);
                        prev_leading = leading;
                        prev_trailing = trailing;
                    }
                }
                prev = bits;
                i += 1;
            }
            header.extend_from_slice(&w.finish());
            header
        }

        pub(crate) fn decompress_values(bytes: &[u8]) -> Option<Vec<f64>> {
            let mut pos = 0usize;
            let n = read_varint(bytes, &mut pos)? as usize;
            if n > MAX_POINTS {
                return None;
            }
            let mut out = Vec::with_capacity(n);
            if n == 0 {
                return Some(out);
            }
            let mut r = BitReader::new(&bytes[pos..]);
            let mut prev = r.read_bits(64)?;
            out.push(f64::from_bits(prev));
            let mut leading: u8 = 0;
            let mut meaningful: u8 = 0;
            while out.len() < n {
                if !r.read_bit()? {
                    let mut zeros = 0u8;
                    while !r.read_bit()? {
                        zeros += 1;
                        if zeros == 64 {
                            return None;
                        }
                    }
                    let k = 1u64 << zeros | r.read_bits(zeros)?;
                    if k > (n - out.len()) as u64 {
                        return None;
                    }
                    out.extend(std::iter::repeat_n(f64::from_bits(prev), k as usize));
                    continue;
                }
                if r.read_bit()? {
                    leading = r.read_bits(5)? as u8;
                    meaningful = r.read_bits(6)? as u8;
                    if meaningful == 0 {
                        meaningful = 64;
                    }
                }
                if meaningful == 0 || leading + meaningful > 64 {
                    return None;
                }
                let trailing = 64 - leading - meaningful;
                let xor = r.read_bits(meaningful)? << trailing;
                let bits = prev ^ xor;
                out.push(f64::from_bits(bits));
                prev = bits;
            }
            Some(out)
        }
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    fn same_bits(a: Option<Vec<f64>>, b: Option<Vec<f64>>) -> bool {
        let bits =
            |v: Option<Vec<f64>>| v.map(|v| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>());
        bits(a) == bits(b)
    }

    /// A value walk that exercises every control code: each step XORs the
    /// previous bits with a mask of seeded position and width (0 = repeat).
    fn windowed_walk(steps: &[(u64, u8, u8)]) -> Vec<f64> {
        let mut bits = 0x4069_0000_0000_0000u64; // 200.0
        let walk = steps.iter().map(|&(mask, width, shift)| {
            let mask = if width == 0 { 0 } else { mask >> (64 - width.min(64)) };
            bits ^= mask << (shift % 64);
            f64::from_bits(bits)
        });
        walk.collect()
    }

    #[test]
    fn golden_blocks_pin_the_byte_format() {
        // Hex committed from the bit-at-a-time codec when block format v3
        // (value runs) was introduced: the kernels and the reference above
        // cannot drift together.  Only the first value stream changed from
        // v2, where each of its three repeats was a `0` bit: a run of one is
        // `01`.  The stamp streams are v2's, committed when the stamp run
        // code was introduced; v1 spent a `00` byte on each of the first
        // stream's six zero delta-of-deltas.
        let minutes: Vec<Ts> = (0..8).map(Ts::from_mins).collect();
        let steps = [200.0, 200.0, 200.5, 201.0, 201.0, 150.25, 150.25, 1e-3];
        // Multi-byte varints, a repeated stamp, a negative delta-of-delta;
        // a NaN payload and a full-width (64-bit) XOR window.
        let ragged =
            [1_537_000_000_000, 1_537_000_060_000, 1_537_000_060_000, 1_537_000_060_001].map(Ts);
        let odd = [
            f64::from_bits(0x7FF8_0000_DEAD_BEEF),
            f64::from_bits(0x8000_0000_0000_0001),
            0.0,
            -0.0,
        ];
        let lone = [Ts(u64::MAX)];
        let cases: [(&[Ts], &[f64], &str, &str); 3] = [
            (
                &minutes,
                &steps,
                "0800c0a9070005",
                "0840690000000000007983e416ec26fae1f7f995526e978d4fe0",
            ),
            (
                &ragged,
                &odd,
                "048094dbe2dd2cc0a907bfa90702",
                "047ff80000deadbeefc1ffffc00006f56df77c004000000000000000d00000000000000000",
            ),
            (&lone, &[f64::MIN_POSITIVE], "01ffffffffffffffffff01", "010010000000000000"),
        ];
        // A sealed one-minute block: 512 stamps in 14 bytes — the count, the
        // first stamp, the first delta, and one run of 510.
        let block: Vec<Ts> = (0..512).map(|i| Ts(1_537_000_000_000 + i * 60_000)).collect();
        let block_hex = "80048094dbe2dd2cc0a90700fd03";
        assert_eq!(hex(&compress_timestamps(&block)), block_hex);
        assert_eq!(hex(&reference::compress_timestamps(&block)), block_hex);
        assert_eq!(decompress_timestamps(&compress_timestamps(&block)), Some(block));
        // And its values when they never change: the count, the value, and
        // one run of 511 (`0`, eight zeros, nine bits).
        let flat = [230.0; 512];
        let flat_hex = "8004406cc00000000000007fc0";
        assert_eq!(hex(&compress_values(&flat)), flat_hex);
        assert_eq!(hex(&reference::compress_values(&flat)), flat_hex);
        assert_eq!(hex(&encode_flat(230.0f64.to_bits(), 512)), flat_hex);
        assert_eq!(decompress_values(&compress_values(&flat)), Some(flat.to_vec()));
        for (ts, vals, ts_hex, val_hex) in cases {
            assert_eq!(hex(&compress_timestamps(ts)), ts_hex);
            assert_eq!(hex(&compress_values(vals)), val_hex);
            assert_eq!(hex(&reference::compress_timestamps(ts)), ts_hex);
            assert_eq!(hex(&reference::compress_values(vals)), val_hex);
            assert_eq!(decompress_timestamps(&compress_timestamps(ts)).as_deref(), Some(ts));
            assert!(same_bits(decompress_values(&compress_values(vals)), Some(vals.to_vec())));
        }
    }

    #[test]
    fn bit_io_round_trips_every_width_at_every_fill() {
        for fill in 0..64u8 {
            for width in 1..=64u8 {
                let pad = 0xA5A5_A5A5_A5A5_A5A5u64;
                let value = 0x9E37_79B9_7F4A_7C15u64.rotate_left((fill as u32) * 7 + width as u32);
                let low = if width == 64 { value } else { value & ((1 << width) - 1) };
                let (mut w, mut r) = (BitWriter::default(), reference::BitWriter::default());
                w.write_bits(pad, fill);
                w.write_bits(value, width);
                w.write_bits(0b101, 3);
                r.write_bits(pad, fill);
                r.write_bits(value, width);
                r.write_bits(0b101, 3);
                assert_eq!(w.bit_len(), fill as usize + width as usize + 3);
                let bytes = w.finish();
                assert_eq!(bytes, r.finish(), "fill {fill} width {width}");
                let mut rd = BitReader::new(&bytes);
                assert_eq!(rd.read_bits(fill), reference::BitReader::new(&bytes).read_bits(fill));
                assert_eq!(rd.read_bits(width), Some(low), "fill {fill} width {width}");
                assert_eq!(rd.read_bits(3), Some(0b101));
                // Only zero padding to the byte boundary is left.
                let left = bytes.len() * 8 - (fill as usize + width as usize + 3);
                assert_eq!(rd.read_bits(left as u8), Some(0));
                assert_eq!(rd.read_bit(), None);
            }
        }
    }

    #[test]
    fn impossible_windows_are_corruption_not_different_data() {
        // `11`, leading = 31, length = 63: 94 bits of window in a 64-bit
        // word.  The old decoder underflowed `64 - 31 - 63` in `u8`.
        let mut w = BitWriter::default();
        w.write_bits(1.5f64.to_bits(), 64);
        w.write_bits(0b11 << 11 | 31 << 6 | 63, 13);
        w.write_bits(u64::MAX, 63);
        let mut wide = vec![2u8];
        wide.extend_from_slice(&w.finish());
        assert_eq!(decompress_values(&wide), None);
        assert_eq!(reference::decompress_values(&wide), None);

        // `10` (reuse the window) before any window was opened.
        let mut w = BitWriter::default();
        w.write_bits(1.5f64.to_bits(), 64);
        w.write_bits(0b10, 2);
        w.write_bits(u64::MAX, 64);
        let mut early = vec![2u8];
        early.extend_from_slice(&w.finish());
        assert_eq!(decompress_values(&early), None);
        assert_eq!(reference::decompress_values(&early), None);

        // The widest legal windows still decode: 31 + 33 and 0 + 64.
        let vals = [f64::from_bits(0), f64::from_bits(0x1_FFFF_FFFF), f64::from_bits(u64::MAX)];
        assert!(same_bits(decompress_values(&compress_values(&vals)), Some(vals.to_vec())));
    }

    proptest! {
        #[test]
        fn prop_value_bytes_equal_the_reference_for_any_bit_pattern(
            bits in proptest::collection::vec(any::<u64>(), 0..200),
        ) {
            // Includes NaN payloads, infinities, subnormals and (XOR of two
            // arbitrary words) full-width 64-bit windows.
            let vals: Vec<f64> = bits.iter().map(|&b| f64::from_bits(b)).collect();
            prop_assert_eq!(compress_values(&vals), reference::compress_values(&vals));
        }

        #[test]
        fn prop_value_bytes_equal_the_reference_across_window_shapes(
            steps in proptest::collection::vec((any::<u64>(), 0u8..66, 0u8..64), 0..300),
        ) {
            let vals = windowed_walk(&steps);
            let bytes = compress_values(&vals);
            prop_assert_eq!(&bytes, &reference::compress_values(&vals));
            prop_assert!(same_bits(decompress_values(&bytes), Some(vals)));
            prop_assert_eq!(bytes.capacity(), bytes.len(), "one exact-sized allocation");
        }

        #[test]
        fn prop_timestamp_bytes_equal_the_reference(
            first in 0u64..4_000_000_000_000,
            gaps in proptest::collection::vec((any::<u64>(), 0u8..41), 0..300),
        ) {
            // Non-decreasing stamps with gaps from 0 to 2^40 ms: one- to
            // six-byte varints, delta-of-deltas of both signs.
            let mut t = first;
            let mut ts = vec![Ts(t)];
            for &(r, width) in &gaps {
                t += r & ((1u64 << width) - 1);
                ts.push(Ts(t));
            }
            for ts in [&ts[..], &ts[..1], &ts[..0]] {
                let bytes = compress_timestamps(ts);
                prop_assert_eq!(&bytes, &reference::compress_timestamps(ts));
                prop_assert_eq!(decompress_timestamps(&bytes).as_deref(), Some(ts));
                prop_assert_eq!(bytes.capacity(), bytes.len(), "one exact-sized allocation");
            }
        }

        #[test]
        fn prop_run_heavy_stamps_equal_the_reference_on_every_truncation(
            first in 0u64..4_000_000_000_000,
            one_minute in any::<bool>(),
            cadence in 0u64..100_000,
            len in 1usize..1_500,
            events in proptest::collection::vec((0usize..1_500, 0u8..3, 1u64..5_000), 0..12),
        ) {
            // A synchronized cadence with sparse damage: a stamp jittered
            // off the beat, a gap of whole periods, a stamp repeated.
            let cadence = if one_minute { 60_000 } else { cadence };
            let mut ts: Vec<Ts> = (0..len as u64).map(|i| Ts(first + i * cadence)).collect();
            for &(at, kind, size) in &events {
                let at = at % len;
                match kind {
                    0 => ts[at].0 += size % cadence.max(1),
                    1 => ts[at..].iter_mut().for_each(|t| t.0 += size * cadence),
                    _ => ts[at..].iter_mut().for_each(|t| t.0 -= cadence.min(t.0 - first)),
                }
                ts.sort_unstable();
            }
            let bytes = compress_timestamps(&ts);
            prop_assert_eq!(&bytes, &reference::compress_timestamps(&ts));
            prop_assert_eq!(bytes.capacity(), bytes.len(), "one exact-sized allocation");
            prop_assert_eq!(decompress_timestamps(&bytes).as_deref(), Some(&ts[..]));
            prop_assert!(bytes.len() <= 22 + 24 * events.len(), "{} bytes", bytes.len());
            for cut in 0..bytes.len() {
                let got = decompress_timestamps(&bytes[..cut]);
                prop_assert_eq!(&got, &reference::decompress_timestamps(&bytes[..cut]));
                prop_assert_eq!(got, None);
            }
        }

        #[test]
        fn prop_decoders_agree_with_the_reference_on_arbitrary_bytes(
            n in 0u64..40,
            raw in proptest::collection::vec(0u16..256, 0..96),
        ) {
            let raw: Vec<u8> = raw.iter().map(|&b| b as u8).collect();
            // Raw bytes, and the same bytes behind a small plausible length
            // header so the body is actually walked.
            let mut framed = Vec::new();
            write_varint(&mut framed, n);
            framed.extend_from_slice(&raw);
            for bytes in [&raw, &framed] {
                prop_assert_eq!(decompress_timestamps(bytes), reference::decompress_timestamps(bytes));
                prop_assert!(same_bits(decompress_values(bytes), reference::decompress_values(bytes)));
            }
        }

        #[test]
        fn prop_decoders_agree_with_the_reference_on_every_truncation(
            first in 0u64..2_000_000_000_000,
            steps in proptest::collection::vec((any::<u64>(), 0u8..66, 0u8..64), 1..40),
        ) {
            let vals = windowed_walk(&steps);
            let ts: Vec<Ts> = steps
                .iter()
                .scan(first, |t, &(r, width, _)| {
                    *t += r >> (64 - width.clamp(1, 40));
                    Some(Ts(*t))
                })
                .collect();
            let (tb, vb) = (compress_timestamps(&ts), compress_values(&vals));
            for cut in 0..=tb.len() {
                let got = decompress_timestamps(&tb[..cut]);
                prop_assert_eq!(&got, &reference::decompress_timestamps(&tb[..cut]));
                prop_assert_eq!(got.is_some(), cut == tb.len());
            }
            for cut in 0..=vb.len() {
                let got = decompress_values(&vb[..cut]);
                prop_assert!(same_bits(got.clone(), reference::decompress_values(&vb[..cut])));
                prop_assert_eq!(got.is_some(), cut == vb.len());
            }
            // Single bit flips: whatever the reference makes of them.
            for byte in 0..vb.len() {
                let mut flipped = vb.clone();
                flipped[byte] ^= 1 << (byte % 8);
                prop_assert!(same_bits(
                    decompress_values(&flipped),
                    reference::decompress_values(&flipped)
                ));
            }
        }
    }
}
