#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! `hpcmon-collect` — the data sources.
//!
//! Table I (Data Sources): *"Potential data sources include traditional
//! text (e.g., logs), numeric (e.g., counters) sources, as well as test
//! results and application performance information.  Vendors should expose
//! all possible data sources for all possible subsystems."*
//!
//! Three kinds of source, mirroring §III-A of the paper:
//!
//! * **Passive counters** ([`collectors`]) — every subsystem's state
//!   sampled at synchronized ticks: node CPU/memory, per-link HSN
//!   counters, per-OST filesystem rates, node/cabinet power, environment,
//!   queue depth, GPU health.
//! * **Active probes** ([`probes`]) — NCSA-style filesystem latency probes
//!   and network probe pairs that measure what an *application* would
//!   experience.
//! * **Benchmark suites** ([`bench_suite`]) — LANL/NERSC-style periodic
//!   checks: service/mount/memory assertions and compute/network/IO
//!   micro-benchmarks with time-to-solution outputs.
//!
//! Plus the [`harvester`], which normalizes the machine's messy log stream
//! (ALCF's "20 per-day log files, formats vary" problem) into
//! [`hpcmon_metrics::LogRecord`]s.

pub mod bench_suite;
pub mod collectors;
pub mod harvester;
pub mod probes;
pub mod registry;
pub mod selfmon;

pub use bench_suite::{BenchResult, BenchmarkSuite};
pub use collectors::{
    BbCollector, Collector, EnvCollector, FsCollector, GpuHealthCollector, NetworkCollector,
    NodeCollector, PowerCollector, QueueCollector,
};
pub use harvester::{LogHarvester, VendorFormat};
pub use probes::{FsProbe, NetworkProbe};
pub use registry::StdMetrics;
pub use selfmon::SelfCollector;
