#![forbid(unsafe_code)]

//! Offline stand-in for `parking_lot`.
//!
//! Wraps `std::sync` primitives with parking_lot's no-`Result` API (lock
//! poisoning becomes a panic, which is also what unwrapping a poisoned std
//! lock does).  Only the types this workspace uses are provided.

use std::sync::{self, LockResult, PoisonError};

/// A mutex whose `lock` returns the guard directly.
#[derive(Debug, Default)]
pub struct Mutex<T: ?Sized>(sync::Mutex<T>);

impl<T> Mutex<T> {
    /// Create a new mutex.
    pub const fn new(value: T) -> Self {
        Mutex(sync::Mutex::new(value))
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquire the lock, ignoring poisoning.
    pub fn lock(&self) -> sync::MutexGuard<'_, T> {
        recover(self.0.lock())
    }
}

/// A reader-writer lock whose `read`/`write` return guards directly.
#[derive(Debug, Default)]
pub struct RwLock<T: ?Sized>(sync::RwLock<T>);

impl<T> RwLock<T> {
    /// Create a new rwlock.
    pub const fn new(value: T) -> Self {
        RwLock(sync::RwLock::new(value))
    }

    /// Consume the lock, returning the inner value.
    pub fn into_inner(self) -> T {
        recover(self.0.into_inner())
    }
}

impl<T: ?Sized> RwLock<T> {
    /// Acquire a shared read guard.
    pub fn read(&self) -> sync::RwLockReadGuard<'_, T> {
        recover(self.0.read())
    }

    /// Acquire an exclusive write guard.
    pub fn write(&self) -> sync::RwLockWriteGuard<'_, T> {
        recover(self.0.write())
    }
}

fn recover<G>(r: LockResult<G>) -> G {
    r.unwrap_or_else(PoisonError::into_inner)
}
