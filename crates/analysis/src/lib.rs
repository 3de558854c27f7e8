#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! `hpcmon-analysis` — turning monitoring data into findings.
//!
//! Table I (Analysis and Visualization) asks for analysis "at a variety of
//! locations within the monitoring infrastructure (e.g., at data sources,
//! as streaming analysis, at the store, at points of exposure)".  Every
//! analysis here is therefore *streaming-capable*: observe one sample or
//! log record at a time, keep bounded state, emit findings incrementally.
//!
//! The modules map one-to-one onto site techniques from §II of the paper:
//!
//! | module | site technique |
//! |---|---|
//! | [`anomaly`] | NERSC benchmark-deviation flagging; changepoint onsets (Fig 2) |
//! | [`trend`] | ALCF BER trend analysis; ORNL corrosion-dose forecasting |
//! | [`correlator`] | SEC/Splunk well-known-line detection and windowed correlation |
//! | [`association`] | cross-component event association under clock drift (§III-B) |
//! | [`variability`] | HLRS aggressor/victim classification by runtime variability |
//! | [`power_profile`] | KAUST power-profile matching and imbalance detection (Fig 3) |
//! | [`congestion`] | SNL HSN congestion levels and regions from stall counters |
//! | [`novelty`] | "new or infrequent events may be missed" — template novelty |

pub mod anomaly;
pub mod association;
pub mod congestion;
pub mod correlator;
pub mod deadman;
pub mod novelty;
pub mod power_profile;
pub mod stats;
pub mod template_miner;
pub mod trend;
pub mod variability;

pub use anomaly::{
    Anomaly, CusumDetector, Detector, MadDetector, ThresholdDetector, ZScoreDetector,
};
pub use association::{associate, Incident};
pub use congestion::{CongestionLevel, CongestionMap};
pub use correlator::{Correlator, CorrelatorSnapshot, EventMatch, Finding, Rule};
pub use deadman::{Deadman, SilentFeed};
pub use novelty::NoveltyDetector;
pub use power_profile::{ImbalanceDetector, PowerProfileLibrary, ProfileVerdict};
pub use stats::{P2Quantile, RollingStats};
pub use template_miner::{TemplateMiner, TemplateStat};
pub use trend::{LinearTrend, TrendTracker};
pub use variability::{classify_jobs, JobClass, VariabilityReport};
