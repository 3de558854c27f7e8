//! The recording side: wrap a live system, funnel every external input
//! through the event log, hash every tick, checkpoint every K ticks.

use hpcmon::system::TickReport;
use hpcmon::{CoreSnapshot, DurableTickRecord, GatewayOp, MonitoringSystem, TickInputs};
use hpcmon_gateway::{QueryError, QueryRequest};
use hpcmon_metrics::{JobId, Ts};
use hpcmon_response::Consumer;
use hpcmon_sim::{FaultKind, JobSpec};

use crate::log::EventLog;
use crate::RunSpec;

/// Records a run as it executes.
///
/// All external inputs must flow through the recorder's methods — they
/// are applied to the live system *immediately* (so callers still get
/// their `JobId`s and subscription ids) and buffered into the next tick's
/// [`TickInputs`] record.  Nothing advances between ticks, so
/// "applied at call time" and "applied just before the next tick" are
/// equivalent — which is exactly how the replayer re-applies them.
pub struct FlightRecorder {
    system: MonitoringSystem,
    spec: RunSpec,
    ticks: Vec<DurableTickRecord>,
    snapshots: Vec<CoreSnapshot>,
    pending: TickInputs,
}

impl FlightRecorder {
    /// Build the system described by `spec` and start recording.
    ///
    /// Panics if `spec.options.self_telemetry` is on: self-observation samples
    /// carry wall-clock timer readings, which make the warm-tier store
    /// digest non-reproducible (DESIGN.md §11).
    pub fn new(spec: RunSpec) -> FlightRecorder {
        assert!(
            !spec.options.self_telemetry,
            "strict replay requires self_telemetry off: self-observation \
             values carry wall-clock timings that break hash reproducibility"
        );
        let system = spec.build_system();
        FlightRecorder {
            system,
            spec,
            ticks: Vec::new(),
            snapshots: Vec::new(),
            pending: TickInputs::default(),
        }
    }

    /// Submit a job to the simulated machine (recorded).
    pub fn submit_job(&mut self, spec: JobSpec) -> JobId {
        self.pending.jobs.push(spec.clone());
        self.system.submit_job(spec)
    }

    /// Schedule a machine fault injection (recorded).
    pub fn schedule_fault(&mut self, at: Ts, kind: FaultKind) {
        self.pending.faults.push((at, kind));
        self.system.schedule_fault(at, kind);
    }

    /// Register a standing subscription (recorded).  Returns `None` when
    /// the run has no gateway.
    pub fn subscribe(
        &mut self,
        consumer: &Consumer,
        request: QueryRequest,
        topic: &str,
    ) -> Option<Result<u64, QueryError>> {
        let result = self.system.subscribe(consumer, request.clone(), topic)?;
        self.pending.gateway_ops.push(GatewayOp::Subscribe {
            consumer: consumer.clone(),
            request,
            topic: topic.to_string(),
        });
        Some(result)
    }

    /// Advance one tick: run the pipeline, log this tick's buffered
    /// inputs and resulting state hash, checkpoint if the cadence says
    /// so.
    pub fn tick(&mut self) -> TickReport {
        let inputs = std::mem::take(&mut self.pending);
        let report = self.system.tick();
        let tick = self.ticks_recorded() + 1;
        let hash = self
            .system
            .last_state_hash()
            .expect("recorder systems always run with state hashing on");
        debug_assert_eq!(hash.tick, tick);
        self.ticks.push(DurableTickRecord { tick, inputs, hash: Some(hash) });
        if self.spec.snapshot_every > 0 && tick.is_multiple_of(self.spec.snapshot_every) {
            self.snapshots.push(self.system.snapshot());
        }
        report
    }

    /// Run `n` ticks.
    pub fn run_ticks(&mut self, n: u64) {
        for _ in 0..n {
            self.tick();
        }
    }

    /// The live system (read-only: inputs must flow through the
    /// recorder so they reach the log).
    pub fn system(&self) -> &MonitoringSystem {
        &self.system
    }

    /// Ticks recorded so far.
    pub(crate) fn ticks_recorded(&self) -> u64 {
        self.ticks.len() as u64
    }

    /// Finish recording and hand back the event log.
    pub fn finish(self) -> EventLog {
        EventLog { spec: self.spec, ticks: self.ticks, snapshots: self.snapshots }
    }
}
