//! Copy a storage medium through the `StorageMedium` trait, so recovery can
//! be timed several times on identical bytes.

use hpcmon::durability::{DiskError, StorageMedium};

/// Copy every file of `src` into the empty medium `dst` using only
/// list/read/append/sync, and return the bytes copied.  What `read`
/// returns after a crash is what survived it, so the copy is the crashed
/// image and recovering it leaves the original untouched.
pub fn copy_medium(src: &dyn StorageMedium, dst: &dyn StorageMedium) -> Result<u64, DiskError> {
    let mut copied = 0u64;
    for file in src.list() {
        let bytes = src.read(&file)?;
        dst.append(&file, &bytes)?;
        dst.sync(&file)?;
        copied += bytes.len() as u64;
    }
    Ok(copied)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpcmon::durability::SimDisk;

    #[test]
    fn copy_carries_exactly_what_survived_the_crash() {
        let src = SimDisk::new();
        src.append("wal-0000000000.seg", b"durable").unwrap();
        src.sync("wal-0000000000.seg").unwrap();
        src.append("wal-0000000000.seg", b" pending").unwrap();
        src.append("ckpt-0000000008.ck", b"checkpoint").unwrap();
        src.sync("ckpt-0000000008.ck").unwrap();
        src.crash();

        let dst = SimDisk::new();
        let copied = copy_medium(&src, &dst).unwrap();
        assert_eq!(copied, (b"durable".len() + b"checkpoint".len()) as u64);
        assert_eq!(dst.list(), src.list());
        assert_eq!(dst.read("wal-0000000000.seg").unwrap(), b"durable");
        assert_eq!(dst.read("ckpt-0000000008.ck").unwrap(), b"checkpoint");

        // The copy is synced: it survives its own crash, and the source is
        // unchanged by anything done to the copy.
        dst.crash();
        dst.delete("ckpt-0000000008.ck").unwrap();
        assert_eq!(dst.read("wal-0000000000.seg").unwrap(), b"durable");
        assert_eq!(src.read("ckpt-0000000008.ck").unwrap(), b"checkpoint");
    }
}
