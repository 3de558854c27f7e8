#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! `hpcmon-transport` — data transport for monitoring pipelines.
//!
//! Table I of the paper (Architecture) demands: multiple flexible data
//! paths; platform owners choosing their own transport/storage tradeoffs;
//! native-format transport; and extensibility.  This crate provides the
//! pieces:
//!
//! * [`broker::Broker`] — a topic-based publish/subscribe event router (the
//!   role Cray's ERD, LDMS, or RabbitMQ play at the paper's sites), with
//!   per-subscriber bounded queues, explicit backpressure policies, and
//!   drop accounting (a transport that silently loses data is exactly the
//!   vendor failure mode the paper complains about).
//! * [`syslog`] — the one transport the sites actually had in common:
//!   line-oriented log forwarding, with render/parse round-tripping.
//!
//! Forwarding between brokers is federation's tick-keyed `WanLink`
//! (`hpcmon-federation`); loss is visible through the per-topic and
//! per-subscriber drop counts plus drop-provenance spans; and the
//! synchronized collection instant is the pipeline's tick itself.

pub mod broker;
pub mod message;
pub mod syslog;
pub mod topic;

pub use broker::{BackpressurePolicy, Broker, BrokerStats, Subscription, TopicStats};
pub use message::{DecodeError, Envelope, Payload};
pub use topic::{topics, TopicFilter};
