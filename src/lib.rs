#![forbid(unsafe_code)]

//! `hpcmon-repro` — umbrella package hosting the runnable examples under
//! `examples/` and the cross-crate integration tests under `tests/`.
//!
//! The library surface re-exports the workspace facade crate so examples and
//! tests can use a single import root.

pub use hpcmon;
