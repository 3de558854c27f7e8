//! The pluggable storage medium under the WAL — and the deterministic
//! simulated disk the tests and chaos suites run against.
//!
//! A [`StorageMedium`] is the minimal surface a write-ahead log needs:
//! append, sync, whole-file read/overwrite, atomic rename, delete, list.
//! The contract mirrors a POSIX directory of log files with `fsync`
//! semantics: **appends are volatile until synced**, renames are atomic,
//! and a crash discards everything unsynced.
//!
//! [`SimDisk`] is the deterministic implementation: an in-memory file map
//! where every file keeps a *durable* prefix and a *pending* (unsynced)
//! tail.  [`SimDisk::crash`] models power loss — pending bytes vanish,
//! unless a torn write is armed, in which case a seeded **prefix** of the
//! pending tail survives, cutting a record mid-frame exactly the way a
//! real disk tears a sector-straddling write.  The chaos engine's
//! `Disk*` faults project onto the fault hooks ([`StorageMedium::set_write_fail`]
//! and friends), so the same seeded plan damages the medium bit-for-bit
//! on every run.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::Mutex;

/// Why the medium refused an operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DiskError {
    /// Transient write failure (EIO): the bytes were not accepted.
    WriteFail,
    /// The medium is out of space.
    Full,
    /// No such file.
    NotFound,
}

impl std::fmt::Display for DiskError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DiskError::WriteFail => write!(f, "write failed (EIO)"),
            DiskError::Full => write!(f, "medium full (ENOSPC)"),
            DiskError::NotFound => write!(f, "no such file"),
        }
    }
}

impl std::error::Error for DiskError {}

/// The minimal storage surface a WAL needs, with fault hooks the chaos
/// projection drives.  All methods take `&self`: a medium is shared
/// between the durability plane (appending) and the chaos projection
/// (injecting faults) through an `Arc`.
pub trait StorageMedium: Send + Sync {
    /// Append bytes to `file` (creating it if absent).  The bytes are
    /// *not* durable until [`StorageMedium::sync`] succeeds.
    fn append(&self, file: &str, bytes: &[u8]) -> Result<(), DiskError>;
    /// Make every pending byte of `file` durable.
    fn sync(&self, file: &str) -> Result<(), DiskError>;
    /// Replace `file`'s contents durably (write + fsync of a fresh file —
    /// used for checkpoint temp files and recovery-time tail truncation,
    /// never for the hot append path).
    fn overwrite(&self, file: &str, bytes: &[u8]) -> Result<(), DiskError>;
    /// [`overwrite`](Self::overwrite) for a caller that is done with the
    /// buffer: a medium that keeps file contents in memory takes it as is.
    fn overwrite_owned(&self, file: &str, bytes: Vec<u8>) -> Result<(), DiskError> {
        self.overwrite(file, &bytes)
    }
    /// Atomically rename `from` to `to`, replacing any existing `to`.
    fn rename(&self, from: &str, to: &str) -> Result<(), DiskError>;
    /// Delete `file`.
    fn delete(&self, file: &str) -> Result<(), DiskError>;
    /// Read `file` in full (durable bytes plus any still-pending tail —
    /// what a reader of the live file would see).
    fn read(&self, file: &str) -> Result<Vec<u8>, DiskError>;
    /// Lend `with` the bytes [`read`](Self::read) would return, for a
    /// caller that only looks at them: a medium that keeps files in memory
    /// hands over its own buffer instead of a copy.  `with` must not call
    /// back into the medium (an implementation may hold a lock while it
    /// runs); compute inside it, then delete or rewrite after it returns.
    fn read_with(&self, file: &str, with: &mut dyn FnMut(&[u8])) -> Result<(), DiskError> {
        with(&self.read(file)?);
        Ok(())
    }
    /// Every file name, sorted.
    fn list(&self) -> Vec<String>;
    /// Size of `file` in bytes (durable + pending), if it exists.
    fn size(&self, file: &str) -> Option<u64>;

    // ----- fault hooks (no-ops on media without injection support) -----

    /// Make every subsequent append fail with [`DiskError::WriteFail`]
    /// while `on`.
    fn set_write_fail(&self, _on: bool) {}
    /// Make every subsequent append fail with [`DiskError::Full`] while
    /// `on`.
    fn set_full(&self, _on: bool) {}
    /// Arm a torn write: the next crash keeps a seeded prefix of the
    /// pending tail instead of discarding it cleanly.
    fn arm_torn_write(&self, _seed: u64) {}
    /// Flip one seeded durable byte somewhere on the medium.  Returns
    /// whether anything was corrupted (false on an empty medium).
    fn corrupt_byte(&self, _seed: u64) -> bool {
        false
    }
}

/// One simulated file.  The durable side is a list of synced chunks
/// rather than one flat buffer: `sync` then moves the pending tail in
/// O(1) instead of copying it — at production scale the WAL appends
/// megabytes per tick, and a flat buffer made the simulated `fsync`
/// (a memcpy plus reallocs) the most expensive instruction stream in
/// the hot path, which no real disk's write-back cache would charge
/// the caller for.
#[derive(Debug, Default, Clone)]
struct SimFile {
    durable: Vec<Vec<u8>>,
    durable_len: usize,
    pending: Vec<u8>,
}

impl SimFile {
    fn total_len(&self) -> usize {
        self.durable_len + self.pending.len()
    }

    fn durable_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.durable_len);
        for chunk in &self.durable {
            out.extend_from_slice(chunk);
        }
        out
    }
}

#[derive(Debug, Default)]
struct DiskInner {
    files: BTreeMap<String, SimFile>,
    write_fail: bool,
    full: bool,
    torn_seed: Option<u64>,
}

/// Deterministic in-memory disk with crash and fault-injection semantics.
#[derive(Debug, Default)]
pub struct SimDisk {
    inner: Mutex<DiskInner>,
}

/// SplitMix64 finalizer — seeded fault placement must be a pure function
/// of the seed, identical on every run.
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl SimDisk {
    /// Unbounded disk.
    pub fn new() -> SimDisk {
        SimDisk::default()
    }

    /// Simulate power loss: pending bytes are discarded.  If a torn write
    /// is armed, one seeded *prefix* of each pending tail survives instead
    /// — a record cut mid-frame, which recovery must truncate at the last
    /// valid CRC.
    pub fn crash(&self) {
        let mut inner = self.inner.lock().unwrap();
        let torn = inner.torn_seed.take();
        for (i, file) in inner.files.values_mut().enumerate() {
            if file.pending.is_empty() {
                continue;
            }
            if let Some(seed) = torn {
                // Keep a strict prefix (never the whole tail: the point is
                // to land mid-record) of the pending bytes.
                let keep =
                    (mix64(seed ^ (i as u64).rotate_left(11)) % file.pending.len() as u64) as usize;
                if keep > 0 {
                    file.durable.push(file.pending[..keep].to_vec());
                    file.durable_len += keep;
                }
            }
            file.pending.clear();
        }
        // Fault windows do not survive the machine they were injected on.
        inner.write_fail = false;
        inner.full = false;
    }

    /// Total bytes on the medium (durable + pending).
    pub fn total_bytes(&self) -> u64 {
        let inner = self.inner.lock().unwrap();
        inner.files.values().map(|f| f.total_len() as u64).sum()
    }

    /// Durable contents of every file — what survives a clean crash.
    /// Tests use this to clone a disk's post-crash image.
    pub fn durable_files(&self) -> Vec<(String, Vec<u8>)> {
        let inner = self.inner.lock().unwrap();
        inner.files.iter().map(|(name, f)| (name.clone(), f.durable_bytes())).collect()
    }
}

impl StorageMedium for SimDisk {
    fn append(&self, file: &str, bytes: &[u8]) -> Result<(), DiskError> {
        let mut inner = self.inner.lock().unwrap();
        if inner.write_fail {
            return Err(DiskError::WriteFail);
        }
        if inner.full {
            return Err(DiskError::Full);
        }
        inner.files.entry(file.to_string()).or_default().pending.extend_from_slice(bytes);
        Ok(())
    }

    fn sync(&self, file: &str) -> Result<(), DiskError> {
        let mut inner = self.inner.lock().unwrap();
        let f = inner.files.get_mut(file).ok_or(DiskError::NotFound)?;
        if !f.pending.is_empty() {
            f.durable_len += f.pending.len();
            let chunk = std::mem::take(&mut f.pending);
            f.durable.push(chunk);
        }
        Ok(())
    }

    fn overwrite(&self, file: &str, bytes: &[u8]) -> Result<(), DiskError> {
        self.overwrite_owned(file, bytes.to_vec())
    }

    fn overwrite_owned(&self, file: &str, bytes: Vec<u8>) -> Result<(), DiskError> {
        let mut inner = self.inner.lock().unwrap();
        if inner.write_fail {
            return Err(DiskError::WriteFail);
        }
        if inner.full {
            return Err(DiskError::Full);
        }
        let replacement =
            SimFile { durable_len: bytes.len(), durable: vec![bytes], pending: Vec::new() };
        inner.files.insert(file.to_string(), replacement);
        Ok(())
    }

    fn rename(&self, from: &str, to: &str) -> Result<(), DiskError> {
        let mut inner = self.inner.lock().unwrap();
        let f = inner.files.remove(from).ok_or(DiskError::NotFound)?;
        inner.files.insert(to.to_string(), f);
        Ok(())
    }

    fn delete(&self, file: &str) -> Result<(), DiskError> {
        let mut inner = self.inner.lock().unwrap();
        inner.files.remove(file).map(|_| ()).ok_or(DiskError::NotFound)
    }

    fn read(&self, file: &str) -> Result<Vec<u8>, DiskError> {
        let inner = self.inner.lock().unwrap();
        let f = inner.files.get(file).ok_or(DiskError::NotFound)?;
        let mut out = f.durable_bytes();
        out.reserve(f.pending.len());
        out.extend_from_slice(&f.pending);
        Ok(out)
    }

    fn read_with(&self, file: &str, with: &mut dyn FnMut(&[u8])) -> Result<(), DiskError> {
        let mut inner = self.inner.lock().unwrap();
        let f = inner.files.get_mut(file).ok_or(DiskError::NotFound)?;
        // Fold the synced chunks into one, so this lend and later ones hand
        // out a slice as is.  Chunks are an artifact of `sync`; folding them
        // moves no byte across the durable/pending line.
        if f.durable.len() > 1 {
            f.durable = vec![f.durable_bytes()];
        }
        let durable = f.durable.first().map_or(&[][..], Vec::as_slice);
        if f.pending.is_empty() {
            with(durable);
        } else {
            // Pending bytes sit apart until a sync; only then is a copy due.
            with(&[durable, &f.pending].concat());
        }
        Ok(())
    }

    fn list(&self) -> Vec<String> {
        self.inner.lock().unwrap().files.keys().cloned().collect()
    }

    fn size(&self, file: &str) -> Option<u64> {
        let inner = self.inner.lock().unwrap();
        inner.files.get(file).map(|f| f.total_len() as u64)
    }

    fn set_write_fail(&self, on: bool) {
        self.inner.lock().unwrap().write_fail = on;
    }

    fn set_full(&self, on: bool) {
        self.inner.lock().unwrap().full = on;
    }

    fn arm_torn_write(&self, seed: u64) {
        self.inner.lock().unwrap().torn_seed = Some(seed);
    }

    fn corrupt_byte(&self, seed: u64) -> bool {
        let mut inner = self.inner.lock().unwrap();
        let total: u64 = inner.files.values().map(|f| f.durable_len as u64).sum();
        if total == 0 {
            return false;
        }
        let mut target = mix64(seed) % total;
        let mut hit: Option<(String, usize)> = None;
        for (name, f) in &inner.files {
            if target < f.durable_len as u64 {
                hit = Some((name.clone(), target as usize));
                break;
            }
            target -= f.durable_len as u64;
        }
        if let Some((name, mut off)) = hit {
            if let Some(f) = inner.files.get_mut(&name) {
                for chunk in &mut f.durable {
                    if off < chunk.len() {
                        chunk[off] ^= 0x5A;
                        return true;
                    }
                    off -= chunk.len();
                }
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn appends_are_volatile_until_synced() {
        let disk = SimDisk::new();
        disk.append("a.log", b"hello ").unwrap();
        disk.append("a.log", b"world").unwrap();
        assert_eq!(disk.read("a.log").unwrap(), b"hello world");
        disk.crash();
        assert_eq!(disk.read("a.log").unwrap(), b"", "unsynced bytes vanish");
        disk.append("a.log", b"again").unwrap();
        disk.sync("a.log").unwrap();
        disk.crash();
        assert_eq!(disk.read("a.log").unwrap(), b"again", "synced bytes survive");
    }

    #[test]
    fn torn_crash_keeps_a_strict_prefix() {
        let disk = SimDisk::new();
        disk.append("w.seg", b"0123456789").unwrap();
        disk.sync("w.seg").unwrap();
        disk.append("w.seg", b"ABCDEFGHIJ").unwrap();
        disk.arm_torn_write(7);
        disk.crash();
        let got = disk.read("w.seg").unwrap();
        assert!(got.starts_with(b"0123456789"));
        assert!(got.len() < 20, "never the whole pending tail: {}", got.len());
        // The arm is one-shot.
        disk.append("w.seg", b"XY").unwrap();
        disk.crash();
        assert_eq!(disk.read("w.seg").unwrap(), got);
    }

    #[test]
    fn write_fail_and_full_windows() {
        let disk = SimDisk::new();
        disk.set_write_fail(true);
        assert_eq!(disk.append("f", b"x"), Err(DiskError::WriteFail));
        disk.set_write_fail(false);
        disk.set_full(true);
        assert_eq!(disk.append("f", b"x"), Err(DiskError::Full));
        disk.set_full(false);
        disk.append("f", b"x").unwrap();
        assert_eq!(disk.read("f").unwrap(), b"x", "only the accepted append landed");
    }

    #[test]
    fn rename_is_atomic_replace() {
        let disk = SimDisk::new();
        disk.overwrite("a.tmp", b"new").unwrap();
        disk.overwrite("a", b"old").unwrap();
        disk.rename("a.tmp", "a").unwrap();
        assert_eq!(disk.read("a").unwrap(), b"new");
        assert_eq!(disk.list(), vec!["a".to_string()]);
        // A buffer handed over replaces the file, and is refused, as a
        // borrowed one.
        disk.overwrite_owned("a", b"newer".to_vec()).unwrap();
        disk.crash();
        assert_eq!(disk.read("a").unwrap(), b"newer");
        disk.set_write_fail(true);
        assert_eq!(disk.overwrite_owned("a", b"lost".to_vec()), Err(DiskError::WriteFail));
        disk.set_write_fail(false);
        assert_eq!(disk.read("a").unwrap(), b"newer");
        assert_eq!(disk.rename("missing", "x"), Err(DiskError::NotFound));
    }

    /// What `read_with` lends, copied.
    fn lent(disk: &SimDisk, file: &str) -> Vec<u8> {
        let mut bytes = None;
        disk.read_with(file, &mut |b| bytes = Some(b.to_vec())).unwrap();
        bytes.unwrap()
    }

    /// Every file lends exactly what `read` returns.
    fn lends_what_it_reads(disk: &SimDisk, state: &str) {
        for file in disk.list() {
            assert_eq!(lent(disk, &file), disk.read(&file).unwrap(), "{state}: {file}");
        }
    }

    #[test]
    fn a_lend_is_what_read_returns_in_every_state_of_a_file() {
        let disk = SimDisk::new();
        for i in 0..40u8 {
            disk.append("many.seg", &[i; 7]).unwrap();
            disk.sync("many.seg").unwrap();
        }
        disk.append("group.seg", b"synced").unwrap();
        disk.sync("group.seg").unwrap();
        lends_what_it_reads(&disk, "synced in many chunks");
        // Group commit: pending bytes behind durable ones, and alone.
        disk.append("group.seg", b" and pending").unwrap();
        disk.append("fresh.seg", b"only pending").unwrap();
        lends_what_it_reads(&disk, "with pending bytes");
        // A merged file takes new chunks, and lends them too.
        for i in 0..5u8 {
            disk.append("many.seg", &[0xA0 | i; 3]).unwrap();
            disk.sync("many.seg").unwrap();
        }
        lends_what_it_reads(&disk, "after a lend merged its chunks");
        disk.append("many.seg", b"torn tail").unwrap();
        disk.arm_torn_write(11);
        disk.crash();
        lends_what_it_reads(&disk, "after a torn crash");
        assert!(disk.read("group.seg").unwrap().starts_with(b"synced"));
        assert!(disk.corrupt_byte(5));
        lends_what_it_reads(&disk, "after corrupt_byte");
        assert_eq!(
            disk.read_with("missing", &mut |_| panic!("nothing to lend")),
            Err(DiskError::NotFound)
        );
    }

    #[test]
    fn merged_chunks_crash_tear_and_corrupt_as_unmerged_ones_do() {
        // Two disks fed the same bytes, one lent between the steps so its
        // chunks merge: every fault lands on the same byte of both.
        let (merged, chunked) = (SimDisk::new(), SimDisk::new());
        for disk in [&merged, &chunked] {
            for i in 0..30u8 {
                disk.append("a.seg", &[i; 11]).unwrap();
                disk.sync("a.seg").unwrap();
                disk.append("b.seg", &[!i; 5]).unwrap();
                disk.sync("b.seg").unwrap();
            }
            disk.append("b.seg", &[0x77; 40]).unwrap();
        }
        lent(&merged, "a.seg");
        lent(&merged, "b.seg");
        for seed in [1, 99, 12345] {
            assert!(merged.corrupt_byte(seed) && chunked.corrupt_byte(seed));
        }
        for disk in [&merged, &chunked] {
            disk.arm_torn_write(3);
            disk.crash();
        }
        assert_eq!(merged.durable_files(), chunked.durable_files());
    }

    #[test]
    fn corrupt_byte_is_seeded() {
        let disk = SimDisk::new();
        assert!(!disk.corrupt_byte(1), "empty medium: nothing to corrupt");
        disk.overwrite("f", &[0u8; 64]).unwrap();
        assert!(disk.corrupt_byte(42));
        let a = disk.read("f").unwrap();
        assert_eq!(a.iter().filter(|&&b| b != 0).count(), 1);
        // Same seed on an identical disk flips the identical byte.
        let twin = SimDisk::new();
        twin.overwrite("f", &[0u8; 64]).unwrap();
        twin.corrupt_byte(42);
        assert_eq!(a, twin.read("f").unwrap());
    }
}
