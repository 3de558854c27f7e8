//! The tracer: context allocation, span guards, and drop recording.

use crate::context::{SpanId, TraceContext, TraceId};
use crate::ring::SpanRing;
use crate::sampler::Sampler;
use crate::span::{DropReason, SpanRecord, SpanStatus, Stage};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::time::Instant;

/// Process-wide thread-slot allocator: each thread gets a stable small
/// index on first use, mapping it onto one of the tracer's rings.
static NEXT_THREAD_SLOT: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static THREAD_SLOT: usize = NEXT_THREAD_SLOT.fetch_add(1, Ordering::Relaxed);
}

/// Rings per tracer; thread slot `s` records into ring `s % RINGS`.
const RINGS: usize = 8;

/// Spans one ring holds before it rejects.
const RING_CAPACITY: usize = 4_096;

/// Recording statistics for the tracer itself (the tracing layer obeys
/// the same "observable monitor" rule as everything else).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TracerStats {
    /// Sampled traces started (head-sampling elections).
    pub traces_sampled: u64,
    /// Spans accepted into rings.
    pub spans_recorded: u64,
    /// Spans rejected because a ring was full.
    pub spans_rejected: u64,
}

/// Allocates trace/span identity and records spans into per-thread-slot
/// rings.
///
/// The hot path costs: an unsampled frame pays one atomic id allocation
/// and a hash; a sampled span pays one additional ring push (one
/// uncontended lock).
/// With [`Sampler::off`] the tracer hands out no contexts at all and
/// every guard is an inert branch.
pub struct Tracer {
    sampler: Sampler,
    // When set, every context is sampled regardless of the head sampler's
    // decision — replay uses this to get full traces for a window that was
    // originally recorded at 1-in-N.
    force_sampling: AtomicBool,
    rings: [SpanRing; RINGS],
    next_trace: AtomicU64,
    next_span: AtomicU64,
    traces_sampled: AtomicU64,
    spans_recorded: AtomicU64,
    epoch: Instant,
}

impl Tracer {
    /// A tracer with `RINGS` thread rings of `RING_CAPACITY` spans each.
    pub fn new(sampler: Sampler) -> Tracer {
        Tracer {
            sampler,
            force_sampling: AtomicBool::new(false),
            rings: std::array::from_fn(|_| SpanRing::new(RING_CAPACITY)),
            next_trace: AtomicU64::new(1),
            next_span: AtomicU64::new(1),
            traces_sampled: AtomicU64::new(0),
            spans_recorded: AtomicU64::new(0),
            epoch: Instant::now(),
        }
    }

    /// Whether tracing is enabled at all.
    pub fn is_enabled(&self) -> bool {
        self.sampler.is_enabled()
    }

    /// Override head sampling: while set, every context is sampled
    /// (1-in-1), regardless of the configured sampler.  Replay flips this
    /// on to capture full traces for a window originally recorded at
    /// 1-in-N.  Has no effect when tracing is off entirely.
    pub fn set_force_sampling(&self, force: bool) {
        self.force_sampling.store(force, Ordering::Relaxed);
    }

    /// Nanoseconds since this tracer's epoch (the span clock).
    pub(crate) fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn ring(&self) -> &SpanRing {
        let slot = THREAD_SLOT.with(|s| *s);
        &self.rings[slot % RINGS]
    }

    fn alloc_span_id(&self) -> SpanId {
        SpanId(self.next_span.fetch_add(1, Ordering::Relaxed))
    }

    /// A context for the datum with head sequence number `seq` (frame
    /// number, query number).  `None` when tracing is off; otherwise the
    /// context carries a fresh trace id and the sampler's decision.
    pub fn context_for(&self, seq: u64) -> Option<TraceContext> {
        if !self.sampler.is_enabled() {
            return None;
        }
        let sampled = self.force_sampling.load(Ordering::Relaxed) || self.sampler.decide(seq);
        if sampled {
            self.traces_sampled.fetch_add(1, Ordering::Relaxed);
        }
        let id = TraceId(self.next_trace.fetch_add(1, Ordering::Relaxed));
        Some(TraceContext::root(id, sampled))
    }

    /// Open a span under `ctx` (as child of `ctx.span_id`).  For an
    /// unsampled context the guard is inert: it records nothing and its
    /// [`SpanGuard::context`] keeps the parent's span id, so any drop
    /// recorded downstream still parents correctly.
    pub fn span(&self, ctx: &TraceContext, stage: Stage) -> SpanGuard<'_> {
        let span_id = if ctx.sampled { self.alloc_span_id() } else { SpanId::NONE };
        SpanGuard {
            tracer: self,
            trace_id: ctx.trace_id,
            span_id,
            parent: ctx.span_id,
            stage,
            sampled: ctx.sampled,
            start_ns: if ctx.sampled { self.now_ns() } else { 0 },
            note: String::new(),
        }
    }

    /// Record a loss with full provenance, **regardless of sampling** —
    /// every dropped datum gets a trace explaining which stage lost it
    /// and why.  `note` names the victim (topic, subscriber, principal).
    pub fn record_drop(&self, ctx: &TraceContext, stage: Stage, reason: DropReason, note: &str) {
        let now = self.now_ns();
        self.record(SpanRecord {
            trace_id: ctx.trace_id,
            span_id: self.alloc_span_id(),
            parent: ctx.span_id,
            stage,
            start_ns: now,
            end_ns: now,
            status: SpanStatus::Dropped(reason),
            note: note.to_owned(),
        });
    }

    /// Low-level: push a finished span into this thread's ring.
    pub(crate) fn record(&self, span: SpanRecord) {
        if self.ring().push(span) {
            self.spans_recorded.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Drain every ring into one batch (the per-tick assembly step).
    pub fn drain(&self) -> Vec<SpanRecord> {
        let mut out = Vec::new();
        for ring in self.rings.iter() {
            ring.drain_into(&mut out);
        }
        out
    }

    /// Recording statistics.
    pub fn stats(&self) -> TracerStats {
        TracerStats {
            traces_sampled: self.traces_sampled.load(Ordering::Relaxed),
            spans_recorded: self.spans_recorded.load(Ordering::Relaxed),
            spans_rejected: self.rings.iter().map(|r| r.rejected()).sum(),
        }
    }
}

/// An open span: records on drop with status `Completed`.
pub struct SpanGuard<'a> {
    tracer: &'a Tracer,
    trace_id: TraceId,
    span_id: SpanId,
    parent: SpanId,
    stage: Stage,
    sampled: bool,
    start_ns: u64,
    note: String,
}

impl SpanGuard<'_> {
    /// The context to propagate to work nested under this span.
    pub fn context(&self) -> TraceContext {
        TraceContext {
            trace_id: self.trace_id,
            // Inert guards keep the parent id so provenance still chains.
            span_id: if self.sampled { self.span_id } else { self.parent },
            sampled: self.sampled,
        }
    }

    /// Attach free-form detail to the span.
    pub fn set_note(&mut self, note: impl Into<String>) {
        if self.sampled {
            self.note = note.into();
        }
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if !self.sampled {
            return;
        }
        self.tracer.record(SpanRecord {
            trace_id: self.trace_id,
            span_id: self.span_id,
            parent: self.parent,
            stage: self.stage,
            start_ns: self.start_ns,
            end_ns: self.tracer.now_ns(),
            status: SpanStatus::Completed,
            note: std::mem::take(&mut self.note),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_tracer_allocates_nothing() {
        let t = Tracer::new(Sampler::off());
        assert!(t.context_for(0).is_none());
        assert!(t.drain().is_empty());
    }

    #[test]
    fn sampled_spans_chain_parent_child() {
        let t = Tracer::new(Sampler::always());
        let ctx = t.context_for(0).unwrap();
        assert!(ctx.sampled);
        let root = t.span(&ctx, Stage::Tick);
        let rctx = root.context();
        let child = t.span(&rctx, Stage::Collect);
        let child_id = child.span_id;
        drop(child);
        let root_id = root.span_id;
        drop(root);
        let spans = t.drain();
        assert_eq!(spans.len(), 2);
        let c = spans.iter().find(|s| s.span_id == child_id).unwrap();
        let r = spans.iter().find(|s| s.span_id == root_id).unwrap();
        assert_eq!(c.parent, root_id);
        assert_eq!(r.parent, SpanId::NONE);
        assert_eq!(c.trace_id, r.trace_id);
        assert!(c.start_ns >= r.start_ns);
    }

    #[test]
    fn unsampled_context_records_only_drops() {
        let t = Tracer::new(Sampler::one_in(u64::MAX));
        let ctx = t.context_for(1).unwrap();
        assert!(!ctx.sampled);
        {
            let root = t.span(&ctx, Stage::Tick);
            let _inner = t.span(&root.context(), Stage::Collect);
        }
        assert!(t.drain().is_empty(), "ordinary spans skipped");
        t.record_drop(&ctx, Stage::Transport, DropReason::QueueFull, "metrics/frame");
        let spans = t.drain();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].status, SpanStatus::Dropped(DropReason::QueueFull));
        assert_eq!(spans[0].trace_id, ctx.trace_id);
        assert_eq!(spans[0].note, "metrics/frame");
    }

    #[test]
    fn stats_count_traces_and_spans() {
        let t = Tracer::new(Sampler::always());
        let ctx = t.context_for(0).unwrap();
        drop(t.span(&ctx, Stage::Tick));
        let stats = t.stats();
        assert_eq!(stats.traces_sampled, 1);
        assert_eq!(stats.spans_recorded, 1);
        assert_eq!(stats.spans_rejected, 0);
    }

    #[test]
    fn spans_from_multiple_threads_all_drain() {
        let t = std::sync::Arc::new(Tracer::new(Sampler::always()));
        let mut handles = Vec::new();
        for _ in 0..4 {
            let t = t.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..50 {
                    let ctx = t.context_for(i).unwrap();
                    drop(t.span(&ctx, Stage::Gateway));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(t.drain().len(), 200);
    }

    #[test]
    fn threads_beyond_the_slot_count_share_rings_and_lose_nothing() {
        // Sixteen threads onto eight rings: by pigeonhole at least one ring
        // has two producers, whatever slots the other tests' threads took.
        const THREADS: usize = 2 * RINGS;
        const SPANS: usize = 100;
        let t = std::sync::Arc::new(Tracer::new(Sampler::always()));
        let start = std::sync::Arc::new(std::sync::Barrier::new(THREADS));
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                let (t, start) = (t.clone(), start.clone());
                std::thread::spawn(move || {
                    start.wait();
                    for i in 0..SPANS {
                        let ctx = t.context_for(i as u64).unwrap();
                        drop(t.span(&ctx, Stage::Gateway));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let spans = t.drain();
        assert_eq!(spans.len(), THREADS * SPANS);
        let mut ids: Vec<u64> = spans.iter().map(|s| s.span_id.0).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), THREADS * SPANS, "every span recorded exactly once");
        let stats = t.stats();
        assert_eq!(stats.spans_recorded, (THREADS * SPANS) as u64);
        assert_eq!(stats.spans_rejected, 0);
    }
}
