//! Batch scheduler: FCFS + backfill, placement policies, health gating.
//!
//! Three site practices from the paper are modelled:
//!
//! * **Topology-aware scheduling** (NCSA, Figure 1): placing a job on
//!   contiguous nodes keeps its traffic off shared links.  [`Placement`]
//!   selects random vs contiguous placement.
//! * **Health gating** (CSCS, §II-5): "no job should start on a node with a
//!   problem, and a problem should only be encountered by at most one batch
//!   job".  With gating on, candidate nodes are health-checked before job
//!   start and after job end; failures take the node out of service.
//! * **Queue-depth monitoring** (CSC/NERSC): [`Scheduler::queue_depth_at`]
//!   is the series those sites watch for backlog anomalies.

use crate::workload::JobSpec;
use hpcmon_metrics::{JobId, JobRecord, JobState, StateHash, Ts};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// Node-selection policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Placement {
    /// Any free nodes, scattered (pre-TAS Blue Waters).
    Random,
    /// Prefer a contiguous block of node ids (TAS).
    TopologyAware,
}

/// Scheduler configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SchedulerConfig {
    /// Placement policy.
    pub placement: Placement,
    /// CSCS-style pre/post-job health checks.
    pub health_gating: bool,
    /// Allow later queue entries to start ahead of a blocked head.
    pub backfill: bool,
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        SchedulerConfig {
            placement: Placement::TopologyAware,
            health_gating: false,
            backfill: true,
        }
    }
}

/// A job currently executing.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunningJob {
    /// Job id.
    pub id: JobId,
    /// The submission it came from.
    pub spec: JobSpec,
    /// Allocated node ids (rank order).
    pub nodes: Vec<u32>,
    /// Start time.
    pub started: Ts,
    /// Useful work completed, ms.
    pub progress_ms: f64,
    /// Efficiency achieved last tick (1.0 = uncontended).
    pub last_efficiency: f64,
}

impl RunningJob {
    /// Milliseconds of wall-clock elapsed since start at `now`.
    pub(crate) fn elapsed_ms(&self, now: Ts) -> u64 {
        now.0.saturating_sub(self.started.0)
    }
}

/// Scheduler events surfaced to the engine (which turns them into logs).
#[derive(Debug, Clone, PartialEq)]
pub enum SchedEvent {
    /// A job began execution.
    Started {
        /// Job id.
        job: JobId,
        /// Allocation.
        nodes: Vec<u32>,
    },
    /// A candidate node failed its pre-job health check and was sidelined.
    NodeFailedPreCheck {
        /// The node taken out of service.
        node: u32,
    },
    /// A node failed its post-job health check and was sidelined.
    NodeFailedPostCheck {
        /// The job that just vacated the node.
        job: JobId,
        /// The node taken out of service.
        node: u32,
    },
    /// A job finished successfully.
    Completed {
        /// Job id.
        job: JobId,
    },
    /// A job died (node crash under it).
    Failed {
        /// Job id.
        job: JobId,
        /// The node whose failure killed it, if known.
        node: Option<u32>,
    },
}

/// The batch scheduler.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Scheduler {
    config: SchedulerConfig,
    num_nodes: u32,
    /// Which job occupies each node.
    alloc: Vec<Option<JobId>>,
    /// Nodes administratively out of service (failed health checks).
    oos: Vec<bool>,
    queue: VecDeque<(JobId, JobSpec)>,
    running: Vec<RunningJob>,
    records: Vec<JobRecord>,
}

impl Scheduler {
    /// Fold the full scheduler state into a flight-recorder digest.
    pub(crate) fn digest_into(&self, h: &mut StateHash) {
        h.u64(self.num_nodes as u64);
        h.usize(self.alloc.len());
        for a in &self.alloc {
            h.u64(a.map_or(u64::MAX, |j| j.0 as u64));
        }
        h.bools(&self.oos);
        h.usize(self.queue.len());
        for (id, spec) in &self.queue {
            h.u64(id.0 as u64).u64(spec.nodes as u64).u64(spec.work_ms);
        }
        h.usize(self.running.len());
        for r in &self.running {
            h.u64(r.id.0 as u64)
                .u64(r.started.0)
                .f64(r.progress_ms)
                .f64(r.last_efficiency)
                .usize(r.nodes.len());
        }
        h.usize(self.records.len());
    }

    /// Create for a machine of `num_nodes`.
    pub(crate) fn new(config: SchedulerConfig, num_nodes: u32) -> Scheduler {
        Scheduler {
            config,
            num_nodes,
            alloc: vec![None; num_nodes as usize],
            oos: vec![false; num_nodes as usize],
            queue: VecDeque::new(),
            running: Vec::new(),
            records: Vec::new(),
        }
    }

    /// Configuration in effect.
    pub(crate) fn config(&self) -> SchedulerConfig {
        self.config
    }

    /// Submit a job; returns its id.
    pub(crate) fn submit(&mut self, spec: JobSpec) -> JobId {
        let id = JobId(self.records.len() as u32);
        self.records.push(JobRecord::submitted(
            id,
            spec.user.clone(),
            spec.app.name.clone(),
            Vec::new(),
            spec.submit,
        ));
        self.queue.push_back((id, spec));
        id
    }

    /// Queued jobs already submitted as of `now` (what the batch system
    /// would actually show in its queue).
    pub fn queue_depth_at(&self, now: Ts) -> usize {
        self.queue.iter().filter(|(_, spec)| spec.submit <= now).count()
    }

    /// Jobs currently executing.
    pub fn running(&self) -> &[RunningJob] {
        &self.running
    }

    /// Mutable access for the engine's progress updates.
    pub(crate) fn running_mut(&mut self) -> &mut Vec<RunningJob> {
        &mut self.running
    }

    /// All job records (queued, running, finished).
    pub fn records(&self) -> &[JobRecord] {
        &self.records
    }

    /// Record for one job.
    pub fn record(&self, id: JobId) -> &JobRecord {
        &self.records[id.0 as usize]
    }

    /// Nodes currently out of service.
    pub fn out_of_service(&self) -> Vec<u32> {
        (0..self.num_nodes).filter(|&n| self.oos[n as usize]).collect()
    }

    /// Return a sidelined node to service (post-repair).
    pub(crate) fn return_to_service(&mut self, node: u32) {
        self.oos[node as usize] = false;
    }

    /// Administratively sideline a node (response-engine action).
    pub fn take_out_of_service(&mut self, node: u32) {
        self.oos[node as usize] = true;
    }

    /// Free, in-service nodes in ascending id order.
    fn free_nodes(&self) -> Vec<u32> {
        (0..self.num_nodes)
            .filter(|&n| self.alloc[n as usize].is_none() && !self.oos[n as usize])
            .collect()
    }

    /// Number of free, in-service nodes.
    pub fn free_count(&self) -> usize {
        self.free_nodes().len()
    }

    /// Attempt to start queued jobs at `now`.
    ///
    /// `healthy` answers the CSCS pre-job health assessment for a node;
    /// `shuffle` provides randomness for [`Placement::Random`] (a closure so
    /// the scheduler stays RNG-agnostic).
    pub(crate) fn try_start(
        &mut self,
        now: Ts,
        healthy: &dyn Fn(u32) -> bool,
        shuffle: &mut dyn FnMut(&mut Vec<u32>),
    ) -> Vec<SchedEvent> {
        let mut events = Vec::new();
        let mut qi = 0usize;
        while qi < self.queue.len() {
            // A job does not exist to the scheduler before its submit time.
            if self.queue[qi].1.submit > now {
                if !self.config.backfill {
                    break;
                }
                qi += 1;
                continue;
            }
            let need = self.queue[qi].1.nodes;
            match self.pick_nodes(need, healthy, shuffle, &mut events) {
                Some(nodes) => {
                    let (id, spec) = self.queue.remove(qi).expect("index in bounds");
                    for &n in &nodes {
                        self.alloc[n as usize] = Some(id);
                    }
                    let rec = &mut self.records[id.0 as usize];
                    rec.nodes = nodes.clone();
                    rec.start = Some(now);
                    rec.state = JobState::Running;
                    self.running.push(RunningJob {
                        id,
                        spec,
                        nodes: nodes.clone(),
                        started: now,
                        progress_ms: 0.0,
                        last_efficiency: 1.0,
                    });
                    events.push(SchedEvent::Started { job: id, nodes });
                    // Restart the scan: freed positions shifted.
                }
                None => {
                    if !self.config.backfill {
                        break; // strict FCFS: blocked head blocks the queue
                    }
                    qi += 1;
                }
            }
        }
        events
    }

    /// Pick an allocation of `need` nodes, health-gating if configured.
    fn pick_nodes(
        &mut self,
        need: u32,
        healthy: &dyn Fn(u32) -> bool,
        shuffle: &mut dyn FnMut(&mut Vec<u32>),
        events: &mut Vec<SchedEvent>,
    ) -> Option<Vec<u32>> {
        loop {
            let mut free = self.free_nodes();
            if (free.len() as u32) < need {
                return None;
            }
            let candidate: Vec<u32> = match self.config.placement {
                Placement::TopologyAware => {
                    // First contiguous run of `need` ids, else first `need`.
                    let mut run_start = 0usize;
                    let mut found = None;
                    for i in 1..=free.len() {
                        let contiguous = i < free.len() && free[i] == free[i - 1] + 1;
                        if !contiguous {
                            if i - run_start >= need as usize {
                                found = Some(free[run_start..run_start + need as usize].to_vec());
                                break;
                            }
                            run_start = i;
                        }
                    }
                    found.unwrap_or_else(|| free[..need as usize].to_vec())
                }
                Placement::Random => {
                    shuffle(&mut free);
                    free[..need as usize].to_vec()
                }
            };
            if !self.config.health_gating {
                return Some(candidate);
            }
            // CSCS gating: sideline any unhealthy candidate and retry with
            // the remaining pool.
            let bad: Vec<u32> = candidate.iter().copied().filter(|&n| !healthy(n)).collect();
            if bad.is_empty() {
                return Some(candidate);
            }
            for n in bad {
                self.oos[n as usize] = true;
                events.push(SchedEvent::NodeFailedPreCheck { node: n });
            }
        }
    }

    /// Finish a running job (called by the engine when its work is done).
    /// With gating enabled, `healthy` drives the post-job assessment.
    pub(crate) fn complete(
        &mut self,
        id: JobId,
        now: Ts,
        healthy: &dyn Fn(u32) -> bool,
    ) -> Vec<SchedEvent> {
        let mut events = Vec::new();
        let Some(pos) = self.running.iter().position(|r| r.id == id) else {
            return events;
        };
        let job = self.running.swap_remove(pos);
        for &n in &job.nodes {
            self.alloc[n as usize] = None;
            if self.config.health_gating && !healthy(n) {
                self.oos[n as usize] = true;
                events.push(SchedEvent::NodeFailedPostCheck { job: id, node: n });
            }
        }
        let rec = &mut self.records[id.0 as usize];
        rec.end = Some(now);
        rec.state = JobState::Completed;
        events.push(SchedEvent::Completed { job: id });
        events
    }

    /// A job failed to launch (e.g. a dead daemon on one of its nodes).
    /// The job dies but the node stays in service — which is exactly how
    /// an ungated machine lets one bad node eat job after job.
    pub(crate) fn launch_failed(&mut self, id: JobId, node: u32, now: Ts) -> Vec<SchedEvent> {
        let Some(pos) = self.running.iter().position(|r| r.id == id) else {
            return Vec::new();
        };
        let job = self.running.swap_remove(pos);
        for &n in &job.nodes {
            self.alloc[n as usize] = None;
        }
        let rec = &mut self.records[id.0 as usize];
        rec.end = Some(now);
        rec.state = JobState::Failed;
        vec![SchedEvent::Failed { job: id, node: Some(node) }]
    }

    /// A node died: fail any job on it and sideline the node.
    pub(crate) fn node_failed(&mut self, node: u32, now: Ts) -> Vec<SchedEvent> {
        let mut events = Vec::new();
        self.oos[node as usize] = true;
        if let Some(id) = self.alloc[node as usize] {
            if let Some(pos) = self.running.iter().position(|r| r.id == id) {
                let job = self.running.swap_remove(pos);
                for &n in &job.nodes {
                    self.alloc[n as usize] = None;
                }
                let rec = &mut self.records[id.0 as usize];
                rec.end = Some(now);
                rec.state = JobState::Failed;
                events.push(SchedEvent::Failed { job: id, node: Some(node) });
            }
            self.alloc[node as usize] = None;
        }
        events
    }

    /// The job allocated to a node, if any.
    pub fn job_on_node(&self, node: u32) -> Option<JobId> {
        self.alloc[node as usize]
    }

    /// Estimate how long a hypothetical `need`-node job submitted at `now`
    /// would wait — the CSC user-facing queue view ("a realistic view into
    /// the expected wait time for the currently submitted workload").
    ///
    /// The estimate replays the queue FCFS against projected completions:
    /// running jobs finish after their remaining work at current
    /// efficiency; queued jobs run for their nominal work.  Placement
    /// fragmentation and future contention are ignored, so this is a
    /// lower-bound-flavored estimate, which is what sites display.
    /// Returns `None` when the job can never fit.
    pub fn estimate_wait_ms(&self, need: u32, now: Ts) -> Option<u64> {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;
        let in_service = (0..self.num_nodes).filter(|&n| !self.oos[n as usize]).count() as u32;
        if need == 0 || need > in_service {
            return None;
        }
        // (completion time from now, nodes returned).
        let mut completions: BinaryHeap<Reverse<(u64, u32)>> = self
            .running
            .iter()
            .map(|r| {
                let remaining = (r.spec.work_ms as f64 - r.progress_ms).max(0.0);
                let eff = r.last_efficiency.max(0.05);
                Reverse(((remaining / eff) as u64, r.nodes.len() as u32))
            })
            .collect();
        let mut pending: std::collections::VecDeque<(u32, u64)> = self
            .queue
            .iter()
            .filter(|(_, spec)| spec.submit <= now)
            .map(|(_, spec)| (spec.nodes, spec.work_ms))
            .collect();
        let mut free = self.free_count() as u32;
        let mut t = 0u64;
        loop {
            // FCFS: drain the head of the queue while it fits.
            while let Some(&(n, work)) = pending.front() {
                if free >= n {
                    free -= n;
                    completions.push(Reverse((t + work, n)));
                    pending.pop_front();
                } else {
                    break;
                }
            }
            if pending.is_empty() && free >= need {
                return Some(t);
            }
            match completions.pop() {
                Some(Reverse((when, nodes))) => {
                    t = when.max(t);
                    free += nodes;
                }
                None => return None, // queue head larger than the machine
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;
    use crate::workload::AppProfile;

    fn spec(nodes: u32) -> JobSpec {
        JobSpec::new(AppProfile::compute_heavy("app"), "u", nodes, 60_000, Ts::ZERO)
    }

    fn no_shuffle() -> impl FnMut(&mut Vec<u32>) {
        |_: &mut Vec<u32>| {}
    }

    fn all_healthy(_: u32) -> bool {
        true
    }

    #[test]
    fn fcfs_start_and_queue_depth() {
        let mut s = Scheduler::new(SchedulerConfig::default(), 8);
        let a = s.submit(spec(4));
        let b = s.submit(spec(4));
        let c = s.submit(spec(4));
        assert_eq!(s.queue.len(), 3);
        let mut sh = no_shuffle();
        let ev = s.try_start(Ts::ZERO, &all_healthy, &mut sh);
        let started: Vec<_> = ev
            .iter()
            .filter_map(|e| match e {
                SchedEvent::Started { job, .. } => Some(*job),
                _ => None,
            })
            .collect();
        assert_eq!(started, vec![a, b]);
        assert_eq!(s.queue.len(), 1);
        assert_eq!(s.record(c).state, JobState::Queued);
        assert_eq!(s.free_count(), 0);
    }

    #[test]
    fn topology_aware_placement_is_contiguous() {
        let mut s = Scheduler::new(
            SchedulerConfig { placement: Placement::TopologyAware, ..Default::default() },
            16,
        );
        let a = s.submit(spec(4));
        let mut sh = no_shuffle();
        s.try_start(Ts::ZERO, &all_healthy, &mut sh);
        let nodes = &s.record(a).nodes;
        assert_eq!(nodes, &vec![0, 1, 2, 3]);
    }

    #[test]
    fn topology_aware_finds_gap_after_fragmentation() {
        let mut s = Scheduler::new(SchedulerConfig::default(), 12);
        let a = s.submit(spec(4));
        let b = s.submit(spec(4));
        let c = s.submit(spec(4));
        let mut sh = no_shuffle();
        s.try_start(Ts::ZERO, &all_healthy, &mut sh);
        // Free the middle job; a new 4-node job should land in its hole.
        s.complete(b, Ts::from_mins(1), &all_healthy);
        let d = s.submit(spec(4));
        s.try_start(Ts::from_mins(2), &all_healthy, &mut sh);
        assert_eq!(s.record(d).nodes, vec![4, 5, 6, 7]);
        let _ = (a, c);
    }

    #[test]
    fn random_placement_uses_shuffle() {
        let mut s = Scheduler::new(
            SchedulerConfig { placement: Placement::Random, ..Default::default() },
            64,
        );
        let a = s.submit(spec(8));
        let mut rng = Rng::new(7);
        let mut sh = move |v: &mut Vec<u32>| rng.shuffle(v);
        s.try_start(Ts::ZERO, &all_healthy, &mut sh);
        let nodes = s.record(a).nodes.clone();
        // Overwhelmingly unlikely to be the contiguous prefix.
        assert_ne!(nodes, (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn backfill_skips_blocked_head() {
        let mut s = Scheduler::new(SchedulerConfig::default(), 8);
        let big = s.submit(spec(16)); // can never fit
        let small = s.submit(spec(4));
        let mut sh = no_shuffle();
        s.try_start(Ts::ZERO, &all_healthy, &mut sh);
        assert_eq!(s.record(small).state, JobState::Running);
        assert_eq!(s.record(big).state, JobState::Queued);
    }

    #[test]
    fn strict_fcfs_blocks_behind_head() {
        let mut s = Scheduler::new(SchedulerConfig { backfill: false, ..Default::default() }, 8);
        s.submit(spec(16));
        let small = s.submit(spec(4));
        let mut sh = no_shuffle();
        s.try_start(Ts::ZERO, &all_healthy, &mut sh);
        assert_eq!(s.record(small).state, JobState::Queued);
    }

    #[test]
    fn health_gating_sidelines_bad_nodes() {
        let mut s =
            Scheduler::new(SchedulerConfig { health_gating: true, ..Default::default() }, 8);
        let a = s.submit(spec(4));
        let unhealthy = |n: u32| n != 1; // node 1 is bad
        let mut sh = no_shuffle();
        let ev = s.try_start(Ts::ZERO, &unhealthy, &mut sh);
        assert!(ev.contains(&SchedEvent::NodeFailedPreCheck { node: 1 }));
        let nodes = s.record(a).nodes.clone();
        assert!(!nodes.contains(&1), "bad node excluded: {nodes:?}");
        assert_eq!(nodes.len(), 4);
        assert_eq!(s.out_of_service(), vec![1]);
    }

    #[test]
    fn post_job_check_sidelines_node() {
        let mut s =
            Scheduler::new(SchedulerConfig { health_gating: true, ..Default::default() }, 8);
        let a = s.submit(spec(2));
        let mut sh = no_shuffle();
        s.try_start(Ts::ZERO, &all_healthy, &mut sh);
        let broke = |n: u32| n != 0; // node 0 broke during the job
        let ev = s.complete(a, Ts::from_mins(5), &broke);
        assert!(ev.contains(&SchedEvent::NodeFailedPostCheck { job: a, node: 0 }));
        assert!(ev.contains(&SchedEvent::Completed { job: a }));
        assert_eq!(s.out_of_service(), vec![0]);
        // Node returns after repair.
        s.return_to_service(0);
        assert!(s.out_of_service().is_empty());
    }

    #[test]
    fn node_failure_kills_job_and_frees_allocation() {
        let mut s = Scheduler::new(SchedulerConfig::default(), 8);
        let a = s.submit(spec(4));
        let mut sh = no_shuffle();
        s.try_start(Ts::ZERO, &all_healthy, &mut sh);
        let ev = s.node_failed(2, Ts::from_mins(3));
        assert_eq!(ev, vec![SchedEvent::Failed { job: a, node: Some(2) }]);
        assert_eq!(s.record(a).state, JobState::Failed);
        // Nodes 0,1,3 freed; node 2 out of service.
        assert_eq!(s.free_count(), 7);
        assert_eq!(s.job_on_node(0), None);
    }

    #[test]
    fn completed_job_frees_nodes_for_queue() {
        let mut s = Scheduler::new(SchedulerConfig::default(), 4);
        let a = s.submit(spec(4));
        let b = s.submit(spec(4));
        let mut sh = no_shuffle();
        s.try_start(Ts::ZERO, &all_healthy, &mut sh);
        assert_eq!(s.record(b).state, JobState::Queued);
        s.complete(a, Ts::from_mins(10), &all_healthy);
        s.try_start(Ts::from_mins(10), &all_healthy, &mut sh);
        assert_eq!(s.record(b).state, JobState::Running);
        assert_eq!(s.record(a).runtime_ms(), Some(10 * 60_000));
    }

    #[test]
    fn future_submissions_wait_for_their_time() {
        let mut s = Scheduler::new(SchedulerConfig::default(), 16);
        let now_job = s.submit(spec(4));
        let future = {
            let mut sp = spec(4);
            sp.submit = Ts::from_mins(30);
            s.submit(sp)
        };
        let mut sh = no_shuffle();
        s.try_start(Ts::from_mins(1), &all_healthy, &mut sh);
        assert_eq!(s.record(now_job).state, JobState::Running);
        assert_eq!(s.record(future).state, JobState::Queued);
        assert_eq!(s.queue.len(), 1);
        assert_eq!(s.queue_depth_at(Ts::from_mins(1)), 0, "future job invisible");
        assert_eq!(s.queue_depth_at(Ts::from_mins(30)), 1);
        // Its time arrives: it starts.
        s.try_start(Ts::from_mins(30), &all_healthy, &mut sh);
        assert_eq!(s.record(future).state, JobState::Running);
        assert_eq!(s.record(future).start, Some(Ts::from_mins(30)));
    }

    #[test]
    fn launch_failed_frees_nodes_without_sidelining() {
        let mut s = Scheduler::new(SchedulerConfig::default(), 8);
        let a = s.submit(spec(4));
        let mut sh = no_shuffle();
        s.try_start(Ts::ZERO, &all_healthy, &mut sh);
        let ev = s.launch_failed(a, 2, Ts::from_mins(1));
        assert_eq!(ev, vec![SchedEvent::Failed { job: a, node: Some(2) }]);
        assert_eq!(s.record(a).state, JobState::Failed);
        assert_eq!(s.free_count(), 8, "nodes freed AND still in service");
        assert!(s.out_of_service().is_empty());
        // Unknown job: no-op.
        assert!(s.launch_failed(JobId(99), 0, Ts::ZERO).is_empty());
    }

    #[test]
    fn wait_estimate_idle_machine_is_zero() {
        let s = Scheduler::new(SchedulerConfig::default(), 16);
        assert_eq!(s.estimate_wait_ms(8, Ts::ZERO), Some(0));
        assert_eq!(s.estimate_wait_ms(16, Ts::ZERO), Some(0));
        assert_eq!(s.estimate_wait_ms(17, Ts::ZERO), None, "never fits");
        assert_eq!(s.estimate_wait_ms(0, Ts::ZERO), None);
    }

    #[test]
    fn wait_estimate_accounts_for_running_and_queued_work() {
        let mut s = Scheduler::new(SchedulerConfig::default(), 16);
        // One job occupies the whole machine for ~10 minutes...
        let a = s.submit(spec(16));
        let mut sh = no_shuffle();
        s.try_start(Ts::ZERO, &all_healthy, &mut sh);
        // spec() jobs carry 60_000 ms of work.
        s.running_mut()[0].last_efficiency = 1.0;
        let _ = a;
        // A full-machine follow-up must wait for completion.
        let wait = s.estimate_wait_ms(16, Ts::ZERO).unwrap();
        assert!((50_000..=70_000).contains(&wait), "wait {wait}");
        // A queued job ahead of us pushes the estimate out further.
        s.submit(spec(16));
        let wait2 = s.estimate_wait_ms(16, Ts::ZERO).unwrap();
        assert!(wait2 > wait, "{wait2} > {wait}");
    }

    #[test]
    fn wait_estimate_respects_out_of_service_nodes() {
        let mut s = Scheduler::new(SchedulerConfig::default(), 16);
        for n in 0..8 {
            s.take_out_of_service(n);
        }
        assert_eq!(s.estimate_wait_ms(8, Ts::ZERO), Some(0));
        assert_eq!(s.estimate_wait_ms(9, Ts::ZERO), None);
    }

    #[test]
    fn wait_estimate_slow_job_waits_longer() {
        let mut s = Scheduler::new(SchedulerConfig::default(), 8);
        s.submit(spec(8));
        let mut sh = no_shuffle();
        s.try_start(Ts::ZERO, &all_healthy, &mut sh);
        s.running_mut()[0].last_efficiency = 1.0;
        let fast = s.estimate_wait_ms(8, Ts::ZERO).unwrap();
        s.running_mut()[0].last_efficiency = 0.25; // congested job
        let slow = s.estimate_wait_ms(8, Ts::ZERO).unwrap();
        assert!(slow > 3 * fast, "fast {fast} slow {slow}");
    }

    #[test]
    fn completing_unknown_job_is_noop() {
        let mut s = Scheduler::new(SchedulerConfig::default(), 4);
        let ev = s.complete(JobId(99), Ts::ZERO, &all_healthy);
        assert!(ev.is_empty());
    }
}
