//! Batch job records.
//!
//! Per-job analysis "requires storing and extraction of job allocations and
//! timeframes" (paper, §III-B).  [`JobRecord`] is that stored allocation:
//! it is what lets Figure 4's drill-down attribute an I/O spike to a job and
//! Figure 5's per-job panels select the right nodes and time window.

use crate::Ts;
use serde::{Deserialize, Serialize};

/// Job identifier (dense, assigned by the scheduler).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct JobId(pub u32);

/// Lifecycle state of a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum JobState {
    /// Waiting in the batch queue.
    Queued,
    /// Running on an allocation.
    Running,
    /// Finished successfully.
    Completed,
    /// Terminated by failure (its own or a node's).
    Failed,
    /// Killed before start by a failed pre-job health check (CSCS gating).
    RejectedByHealthCheck,
}

/// A job's allocation and timeframe, as stored for later attribution.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobRecord {
    /// Scheduler-assigned id.
    pub id: JobId,
    /// Owning user (for access-controlled data exposure).
    pub user: String,
    /// Human-readable application name.
    pub name: String,
    /// Global node indices allocated to the job.
    pub nodes: Vec<u32>,
    /// Submission time.
    pub submit: Ts,
    /// Start of execution (`None` while queued or if rejected).
    pub start: Option<Ts>,
    /// End of execution (`None` while running).
    pub end: Option<Ts>,
    /// Current state.
    pub state: JobState,
}

impl JobRecord {
    /// A freshly submitted job.
    pub fn submitted(
        id: JobId,
        user: impl Into<String>,
        name: impl Into<String>,
        nodes: Vec<u32>,
        submit: Ts,
    ) -> JobRecord {
        JobRecord {
            id,
            user: user.into(),
            name: name.into(),
            nodes,
            submit,
            start: None,
            end: None,
            state: JobState::Queued,
        }
    }

    /// Whether the job was running (inclusive start, exclusive end) at `ts`.
    pub fn running_at(&self, ts: Ts) -> bool {
        match (self.start, self.end) {
            (Some(s), Some(e)) => ts >= s && ts < e,
            (Some(s), None) => ts >= s && self.state == JobState::Running,
            _ => false,
        }
    }

    /// Whether the job's allocation includes `node`.
    pub fn uses_node(&self, node: u32) -> bool {
        self.nodes.contains(&node)
    }

    /// Wall-clock runtime, if the job both started and ended.
    pub fn runtime_ms(&self) -> Option<u64> {
        match (self.start, self.end) {
            (Some(s), Some(e)) if e >= s => Some(e.0 - s.0),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job() -> JobRecord {
        JobRecord::submitted(JobId(1), "alice", "lammps", vec![0, 1, 2], Ts(100))
    }

    #[test]
    fn fresh_job_is_queued() {
        let j = job();
        assert_eq!(j.state, JobState::Queued);
        assert!(!j.running_at(Ts(150)));
        assert_eq!(j.runtime_ms(), None);
    }

    #[test]
    fn running_window_is_half_open() {
        let mut j = job();
        j.start = Some(Ts(200));
        j.end = Some(Ts(300));
        j.state = JobState::Completed;
        assert!(!j.running_at(Ts(199)));
        assert!(j.running_at(Ts(200)));
        assert!(j.running_at(Ts(299)));
        assert!(!j.running_at(Ts(300)));
        assert_eq!(j.runtime_ms(), Some(100));
    }

    #[test]
    fn open_ended_running_job() {
        let mut j = job();
        j.start = Some(Ts(200));
        j.state = JobState::Running;
        assert!(j.running_at(Ts(10_000)));
        assert_eq!(j.runtime_ms(), None);
    }

    #[test]
    fn node_membership() {
        let j = job();
        assert!(j.uses_node(1));
        assert!(!j.uses_node(5));
    }

    #[test]
    fn serde_round_trip() {
        let j = job();
        let s = serde_json::to_string(&j).unwrap();
        let back: JobRecord = serde_json::from_str(&s).unwrap();
        assert_eq!(j, back);
    }
}
