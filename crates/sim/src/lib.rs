#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! `hpcmon-sim` — a deterministic simulator of a Cray-class HPC system.
//!
//! The paper's sites run their monitoring against real machines of
//! 1,688–27,648 nodes.  We have no such machine, so this crate provides the
//! substrate the monitoring framework is evaluated on: a discrete-time
//! simulation of
//!
//! * a **topology** (Aries-style dragonfly or Gemini-style 3D torus) with a
//!   fluid **network** model (per-link loads, bottleneck sharing, credit
//!   stalls, bit errors),
//! * **nodes** with CPU/memory/GPU state, services, and health,
//! * a Lustre-like **filesystem** (one MDS, many OSTs) with load-dependent
//!   latency,
//! * a per-node **power** model aggregated per cabinet (the KAUST view),
//! * the **datacenter environment** (temperature, humidity, corrosive gas —
//!   the ORNL sulfur-corrosion story),
//! * **failures** (stochastic and scripted injection),
//! * a **workload** generator with repeatable phased application profiles,
//! * and a **scheduler** (FCFS + backfill; random or topology-aware
//!   placement; optional CSCS-style pre/post-job health gating).
//!
//! Everything is driven by [`engine::SimEngine::step`], is fully
//! deterministic for a given seed, and exposes an observation API that the
//! collectors in `hpcmon-collect` sample — the same way LDMS or Cray's ERD
//! would sample a real system.

pub mod burst_buffer;
pub mod clock;
pub mod config;
pub mod engine;
pub mod env;
pub mod failure;
pub mod fs;
pub mod network;
pub mod node;
pub mod power;
pub mod rng;
pub mod routing;
pub mod sched;
pub mod topology;
pub mod workload;

pub use burst_buffer::{BbConfig, BurstBuffer};
pub use clock::DriftClock;
pub use config::SimConfig;
pub use engine::{SimEngine, SimSnapshot};
pub use failure::{Fault, FaultKind};
pub use rng::Rng;
pub use sched::{Placement, SchedulerConfig};
pub use topology::{Topology, TopologySpec};
pub use workload::{AppProfile, JobSpec, Phase};
