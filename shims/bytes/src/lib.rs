#![forbid(unsafe_code)]

//! Offline stand-in for `bytes`.
//!
//! [`Bytes`] here is an immutable byte buffer that clones by reference count
//! (or for-free for `'static` data), covering the subset of the real crate's
//! API the workspace touches.

use std::fmt;
use std::ops::Deref;
use std::sync::Arc;

/// A cheaply-cloneable immutable byte buffer.
#[derive(Clone)]
pub enum Bytes {
    /// Borrowed from static data (no allocation, free clone).
    Static(&'static [u8]),
    /// Shared heap allocation.
    Shared(Arc<Vec<u8>>),
}

impl Bytes {
    /// Empty buffer.
    pub const fn new() -> Bytes {
        Bytes::Static(&[])
    }

    /// Wrap static data without copying.
    pub const fn from_static(bytes: &'static [u8]) -> Bytes {
        Bytes::Static(bytes)
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.as_slice().len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.as_slice().is_empty()
    }

    /// Copy out to a `Vec`.
    pub fn to_vec(&self) -> Vec<u8> {
        self.as_slice().to_vec()
    }

    fn as_slice(&self) -> &[u8] {
        match self {
            Bytes::Static(s) => s,
            Bytes::Shared(v) => v.as_slice(),
        }
    }
}

impl Default for Bytes {
    fn default() -> Bytes {
        Bytes::new()
    }
}

impl Deref for Bytes {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Bytes {
        Bytes::Shared(Arc::new(v))
    }
}

impl From<&'static [u8]> for Bytes {
    fn from(s: &'static [u8]) -> Bytes {
        Bytes::Static(s)
    }
}

impl From<&'static str> for Bytes {
    fn from(s: &'static str) -> Bytes {
        Bytes::Static(s.as_bytes())
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Bytes) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for Bytes {}

impl PartialEq<[u8]> for Bytes {
    fn eq(&self, other: &[u8]) -> bool {
        self.as_slice() == other
    }
}

impl std::hash::Hash for Bytes {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b\"")?;
        for &b in self.as_slice() {
            for esc in std::ascii::escape_default(b) {
                write!(f, "{}", esc as char)?;
            }
        }
        write!(f, "\"")
    }
}
