//! Handing freed memory back to the operating system.
//!
//! glibc's malloc keeps what a program frees.  Small blocks stay in its
//! heap, and so do large ones once the first large block mapped on its own
//! has been freed: that raises its mmap threshold (up to 32 MiB), and from
//! then on buffers below it come from the heap too.  A pipeline dropped and
//! rebuilt in one process — a recovery, a second run — then starts on a
//! resident, fragmented heap, and its peak memory depends on what ran
//! before it and in what order it freed things.  Three 65,536-node systems
//! built, run and dropped one after another in one process (glibc 2.36,
//! 2-core guest) peaked anywhere between 334 and 415 MB from one process
//! to the next, where the first system alone peaks at 287 MB.
//! [`HeapRelease`] asks the allocator to return its free pages when it is
//! dropped, so the next build starts where the first one did: the same
//! three then peak at 289–294 MB.

/// Returns the allocator's free pages to the operating system when it is
/// dropped.  Place it last in a struct: fields drop in declaration order,
/// so it runs once everything before it has been freed.
#[derive(Debug, Default)]
pub struct HeapRelease;

impl Drop for HeapRelease {
    fn drop(&mut self) {
        release_free_pages();
    }
}

#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn release_free_pages() {
    extern "C" {
        fn malloc_trim(pad: usize) -> std::os::raw::c_int;
    }
    // SAFETY: `malloc_trim` takes the allocator's own locks and gives back
    // only pages no allocation occupies; it reads and writes no live block.
    unsafe {
        malloc_trim(0);
    }
}

/// Other allocators return memory on their own terms.
#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn release_free_pages() {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_release_leaves_live_blocks_intact() {
        let kept: Vec<u64> = (0..1 << 16).collect();
        drop(vec![7u8; 8 << 20]);
        drop(HeapRelease);
        assert!(kept.iter().enumerate().all(|(i, &v)| v == i as u64));
    }
}
