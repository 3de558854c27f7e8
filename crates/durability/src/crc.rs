//! CRC-32C (Castagnoli polynomial, reflected) — the frame check behind
//! every WAL record and checkpoint file.
//!
//! Hand-rolled because the build environment is offline (no `crc32fast`),
//! and because the durability plane's guarantees rest on this exact
//! function: a torn tail or flipped bit must fail the check.  Castagnoli
//! rather than IEEE so the x86 `crc32` instruction (SSE 4.2) can carry the
//! hot path — WAL records are megabytes per tick at production scale, and
//! the checksum must not dominate the tick.  A slice-by-8 table path
//! (compile-time tables) covers machines without the instruction.

/// The reflected Castagnoli polynomial.
const POLY: u32 = 0x82F6_3B78;

/// Slice-by-8 tables: `TABLES[0]` is the classic byte table; `TABLES[k]`
/// advances a byte `k` positions further, so eight bytes fold per lookup
/// round on machines without hardware CRC.
const fn build_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ POLY } else { crc >> 1 };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

static TABLES: [[u32; 256]; 8] = build_tables();

/// Initial value for a streaming CRC (pre-inversion).
pub const CRC_INIT: u32 = 0xFFFF_FFFF;

/// Fold `bytes` into a running CRC started at [`CRC_INIT`].  Streaming
/// form so callers can cover a header and a payload without gluing them
/// into one allocation.
pub(crate) fn crc32_update(crc: u32, bytes: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("sse4.2") {
        // SAFETY: sse4.2 was just verified present on this CPU.
        return unsafe { update_hw(crc, bytes) };
    }
    update_soft(crc, bytes)
}

/// Hardware path: the `crc32` instruction folds 8 bytes per cycle-ish.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse4.2")]
unsafe fn update_hw(crc: u32, bytes: &[u8]) -> u32 {
    use std::arch::x86_64::{_mm_crc32_u64, _mm_crc32_u8};
    let mut acc = crc as u64;
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        acc = _mm_crc32_u64(acc, u64::from_le_bytes(c.try_into().unwrap()));
    }
    let mut crc = acc as u32;
    for &b in chunks.remainder() {
        crc = _mm_crc32_u8(crc, b);
    }
    crc
}

/// Portable path: slice-by-8 table lookups.
fn update_soft(mut crc: u32, bytes: &[u8]) -> u32 {
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        crc ^= u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
        let hi = u32::from_le_bytes([c[4], c[5], c[6], c[7]]);
        crc = TABLES[7][(crc & 0xFF) as usize]
            ^ TABLES[6][((crc >> 8) & 0xFF) as usize]
            ^ TABLES[5][((crc >> 16) & 0xFF) as usize]
            ^ TABLES[4][(crc >> 24) as usize]
            ^ TABLES[3][(hi & 0xFF) as usize]
            ^ TABLES[2][((hi >> 8) & 0xFF) as usize]
            ^ TABLES[1][((hi >> 16) & 0xFF) as usize]
            ^ TABLES[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    crc
}

/// Finalize a streaming CRC.
pub(crate) fn crc32_finish(crc: u32) -> u32 {
    crc ^ 0xFFFF_FFFF
}

/// CRC-32C of `bytes` (Castagnoli, init/xorout `0xFFFF_FFFF`, reflected —
/// the same value `crc32c` libraries produce).
pub(crate) fn crc32(bytes: &[u8]) -> u32 {
    crc32_finish(crc32_update(CRC_INIT, bytes))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // The canonical CRC-32C check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xE306_9283);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn single_bit_flip_changes_the_crc() {
        let mut data = b"the durability plane's guarantees rest on this".to_vec();
        let base = crc32(&data);
        for byte in 0..data.len() {
            for bit in 0..8 {
                data[byte] ^= 1 << bit;
                assert_ne!(crc32(&data), base, "flip at {byte}:{bit} went undetected");
                data[byte] ^= 1 << bit;
            }
        }
    }

    /// Hardware, slice-by-8, and bytewise paths must agree at every
    /// length, alignment, and streaming split.
    #[test]
    fn all_paths_agree() {
        fn bytewise(bytes: &[u8]) -> u32 {
            let mut crc = CRC_INIT;
            for &b in bytes {
                crc = (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
            }
            crc32_finish(crc)
        }
        let data: Vec<u8> = (0..96u32).map(|i| (i.wrapping_mul(167) >> 3) as u8).collect();
        for len in 0..data.len() {
            let want = bytewise(&data[..len]);
            assert_eq!(crc32(&data[..len]), want, "dispatch path, length {len}");
            assert_eq!(
                crc32_finish(update_soft(CRC_INIT, &data[..len])),
                want,
                "table path, length {len}"
            );
            // Streaming across an arbitrary split must match one-shot.
            let split = len / 3;
            let streamed = crc32_finish(crc32_update(
                crc32_update(CRC_INIT, &data[..split]),
                &data[split..len],
            ));
            assert_eq!(streamed, want, "split {split}/{len}");
        }
    }

    #[test]
    fn truncation_changes_the_crc() {
        let data = b"records are framed, never length-trusted".to_vec();
        let base = crc32(&data);
        for end in 0..data.len() {
            assert_ne!(crc32(&data[..end]), base, "prefix {end} collided");
        }
    }
}
