//! The topic-based publish/subscribe event router.
//!
//! Design points taken from the paper's requirements table:
//!
//! * **Multiple consumers per topic** — fan-out is a reference-count bump
//!   per subscriber, so "directing the data and analysis results to
//!   multiple consumers" is cheap.
//! * **Explicit backpressure** — every subscriber has a bounded queue and a
//!   declared policy ([`BackpressurePolicy::Block`] for must-not-lose
//!   consumers like the store, [`BackpressurePolicy::DropOldest`] for
//!   dashboards).  Drops are *counted*, never silent.
//! * **Reconfigurable data paths** — subscriptions can be added and dropped
//!   at any time; a dropped receiver is pruned on the next publish.

use crate::message::{DecodeError, Envelope, Payload};
use crate::topic::TopicFilter;
use hpcmon_trace::{DropReason, Stage, TraceContext, Tracer};
use parking_lot::RwLock;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

/// What to do when a subscriber's queue is full.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackpressurePolicy {
    /// Block the publisher until there is room (lossless; can stall).
    Block,
    /// Drop the oldest queued message to make room (lossy; never stalls).
    DropOldest,
    /// Drop the new message (lossy; never stalls, preserves history).
    DropNewest,
}

/// Counters describing broker activity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BrokerStats {
    /// Messages published.
    pub published: u64,
    /// Deliveries made (one per matching subscriber).
    pub delivered: u64,
    /// Messages dropped due to backpressure policies.
    pub dropped: u64,
    /// Approximate payload bytes published.
    pub bytes_published: u64,
    /// Serialized envelopes that failed to decode at a broker consumer
    /// (truncated / bit-flipped payloads, counted and skipped).
    pub decode_errors: u64,
}

/// Per-topic counters: the drop/publish breakdown the global
/// [`BrokerStats`] totals hide.  A transport that only reports "some
/// messages were dropped" is the vendor failure mode the paper complains
/// about — operators need to know *which* data path is lossy.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TopicStats {
    /// Topic string as published.
    pub topic: String,
    /// Messages published on this topic.
    pub published: u64,
    /// Deliveries made for this topic (one per matching subscriber).
    pub delivered: u64,
    /// Messages dropped under backpressure while fanning out this topic
    /// (`queue_full + drop_oldest`; pruned deliveries are tracked apart
    /// because no queued datum was lost, the consumer just went away).
    pub dropped: u64,
    /// Drops where a `DropNewest` queue was full (the new message lost).
    pub queue_full: u64,
    /// Drops where a `DropOldest` queue evicted its oldest message.
    pub drop_oldest: u64,
    /// Deliveries skipped because the subscriber had disconnected.
    pub pruned_receiver: u64,
    /// Approximate payload bytes published on this topic.
    pub bytes_published: u64,
}

#[derive(Default)]
struct TopicCounters {
    published: AtomicU64,
    delivered: AtomicU64,
    queue_full: AtomicU64,
    drop_oldest: AtomicU64,
    pruned: AtomicU64,
    bytes_published: AtomicU64,
}

struct QueueState {
    items: VecDeque<Envelope>,
    // Set when either end goes away: the broker's entry (unsubscribed,
    // pruned, broker dropped) or the `Subscription` handle.
    closed: bool,
}

/// One subscription's bounded queue.  Every policy is one critical
/// section on `state`, so evict-and-push cannot interleave with another
/// publisher and the queue never holds more than `capacity`.
struct SubQueue {
    state: Mutex<QueueState>,
    capacity: usize,
    not_empty: Condvar,
    not_full: Condvar,
    dropped: AtomicU64,
}

/// What became of one envelope offered to a [`SubQueue`].
enum Pushed {
    Delivered,
    /// `DropOldest` made room by evicting this envelope.
    Evicted(Envelope),
    /// `DropNewest` found the queue full; the new envelope is lost.
    Rejected,
    /// The other end is gone.
    Closed,
}

impl SubQueue {
    // Nothing inside a critical section can panic, so a poisoned lock
    // (a holder unwound elsewhere) still guards a whole queue.
    fn lock(&self) -> MutexGuard<'_, QueueState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn push(&self, env: Envelope, policy: BackpressurePolicy) -> Pushed {
        let mut st = self.lock();
        let mut outcome = Pushed::Delivered;
        while !st.closed && st.items.len() >= self.capacity {
            match policy {
                BackpressurePolicy::Block => {
                    st = self.not_full.wait(st).unwrap_or_else(PoisonError::into_inner);
                }
                BackpressurePolicy::DropNewest => {
                    self.dropped.fetch_add(1, Ordering::Relaxed);
                    return Pushed::Rejected;
                }
                BackpressurePolicy::DropOldest => {
                    let victim = st.items.pop_front().expect("capacity is positive");
                    self.dropped.fetch_add(1, Ordering::Relaxed);
                    outcome = Pushed::Evicted(victim);
                }
            }
        }
        if st.closed {
            return Pushed::Closed;
        }
        st.items.push_back(env);
        drop(st);
        self.not_empty.notify_one();
        outcome
    }

    fn try_pop(&self) -> Option<Envelope> {
        let env = self.lock().items.pop_front()?;
        self.not_full.notify_one();
        Some(env)
    }

    /// Blocking pop; `None` once the queue is closed *and* drained.
    fn pop(&self) -> Option<Envelope> {
        let mut st = self.lock();
        loop {
            if let Some(env) = st.items.pop_front() {
                drop(st);
                self.not_full.notify_one();
                return Some(env);
            }
            if st.closed {
                return None;
            }
            st = self.not_empty.wait(st).unwrap_or_else(PoisonError::into_inner);
        }
    }

    fn drain(&self) -> Vec<Envelope> {
        let out = self.lock().items.drain(..).collect();
        self.not_full.notify_all();
        out
    }

    fn len(&self) -> usize {
        self.lock().items.len()
    }

    fn is_closed(&self) -> bool {
        self.lock().closed
    }
}

/// One end of a [`SubQueue`]: the broker's entry holds one, the
/// [`Subscription`] the other.  Dropping either closes the queue and
/// wakes whoever is parked on it — a `Block` publisher sees a pruned
/// receiver, a consumer in `recv` sees `None` once the queue is drained.
struct QueueEnd(Arc<SubQueue>);

impl std::ops::Deref for QueueEnd {
    type Target = SubQueue;
    fn deref(&self) -> &SubQueue {
        &self.0
    }
}

impl Drop for QueueEnd {
    fn drop(&mut self) {
        self.lock().closed = true;
        self.not_full.notify_all();
        self.not_empty.notify_all();
    }
}

struct SubscriberEntry {
    filter: TopicFilter,
    queue: QueueEnd,
    policy: BackpressurePolicy,
}

/// A subscription handle: the consuming end of a bounded queue plus drop
/// accounting.
pub struct Subscription {
    queue: QueueEnd,
}

impl Subscription {
    /// Blocking receive; `None` when the broker is gone.
    pub fn recv(&self) -> Option<Envelope> {
        self.queue.pop()
    }

    /// Non-blocking receive.
    pub fn try_recv(&self) -> Option<Envelope> {
        self.queue.try_pop()
    }

    /// Drain everything currently queued.
    pub fn drain(&self) -> Vec<Envelope> {
        self.queue.drain()
    }

    /// Messages dropped for this subscriber so far.
    pub fn dropped(&self) -> u64 {
        self.queue.dropped.load(Ordering::Relaxed)
    }

    /// Messages currently queued.
    pub fn queued(&self) -> usize {
        self.queue.len()
    }
}

/// The event router.
///
/// ```
/// use hpcmon_transport::{BackpressurePolicy, Broker, Payload, TopicFilter};
/// use bytes::Bytes;
///
/// let broker = Broker::new();
/// let sub = broker.subscribe(TopicFilter::new("logs/#"), 16, BackpressurePolicy::Block);
/// broker.publish("logs/console", Payload::Raw(Bytes::from_static(b"hello")));
/// broker.publish("metrics/node", Payload::Raw(Bytes::from_static(b"ignored")));
/// assert_eq!(sub.drain().len(), 1);
/// assert_eq!(broker.stats().published, 2);
/// ```
#[derive(Default)]
pub struct Broker {
    subscribers: RwLock<Vec<SubscriberEntry>>,
    seq: AtomicU64,
    decode_errors: AtomicU64,
    // First-seen order; counters are atomics so publish only needs the
    // read lock once the topic exists.
    topics: RwLock<Vec<(String, Arc<TopicCounters>)>>,
    // When set, drops during fan-out are recorded as trace spans with
    // full provenance (which subscriber, which reason).
    tracer: RwLock<Option<Arc<Tracer>>>,
}

impl Broker {
    /// A broker with no subscribers.
    pub fn new() -> Arc<Broker> {
        Arc::new(Broker::default())
    }

    /// Subscribe with a filter, queue capacity, and backpressure policy.
    pub fn subscribe(
        &self,
        filter: TopicFilter,
        capacity: usize,
        policy: BackpressurePolicy,
    ) -> Subscription {
        assert!(capacity > 0, "subscription capacity must be positive");
        let queue = Arc::new(SubQueue {
            state: Mutex::new(QueueState { items: VecDeque::new(), closed: false }),
            capacity,
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            dropped: AtomicU64::new(0),
        });
        self.subscribers.write().push(SubscriberEntry {
            filter,
            queue: QueueEnd(queue.clone()),
            policy,
        });
        Subscription { queue: QueueEnd(queue) }
    }

    /// Attach a tracer: from here on, every drop during fan-out is also
    /// recorded as a trace span naming the subscriber and reason.
    pub fn set_tracer(&self, tracer: Arc<Tracer>) {
        *self.tracer.write() = Some(tracer);
    }

    /// The next envelope sequence number this broker would assign.
    /// Chaos corruption keys on envelope sequence numbers, so replay must
    /// checkpoint and restore this counter exactly.
    pub fn seq(&self) -> u64 {
        self.seq.load(Ordering::Relaxed)
    }

    /// Restore the envelope sequence counter (replay seek).  Publishes
    /// after this call continue numbering from `seq`.
    pub fn set_seq(&self, seq: u64) {
        self.seq.store(seq, Ordering::Relaxed);
    }

    /// Publish a payload on a topic, fanning out to matching subscribers.
    /// Returns the number of deliveries.
    pub fn publish(&self, topic: &str, payload: Payload) -> usize {
        self.publish_traced(topic, payload, None)
    }

    /// [`Broker::publish`] with a trace context stamped on the envelope.
    /// Every matching subscriber receives the same context; any drop on
    /// the way records a provenance span against it.
    pub fn publish_traced(
        &self,
        topic: &str,
        payload: Payload,
        trace: Option<TraceContext>,
    ) -> usize {
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        let per_topic = self.topic_counters(topic);
        per_topic.published.fetch_add(1, Ordering::Relaxed);
        per_topic.bytes_published.fetch_add(payload.approx_bytes() as u64, Ordering::Relaxed);
        let tracer = self.tracer.read().clone();
        let trace_drop = |ctx: Option<&TraceContext>, reason: DropReason, pattern: &str| {
            if let (Some(t), Some(ctx)) = (tracer.as_deref(), ctx) {
                t.record_drop(ctx, Stage::Transport, reason, &format!("{topic} -> {pattern}"));
            }
        };
        let mut delivered = 0usize;
        let mut saw_closed = false;
        for sub in self.subscribers.read().iter() {
            if !sub.filter.matches(topic) {
                saw_closed |= sub.queue.is_closed();
                continue;
            }
            let pattern = sub.filter.pattern();
            let env = Envelope { topic: topic.to_owned(), seq, trace, payload: payload.clone() };
            match sub.queue.push(env, sub.policy) {
                Pushed::Delivered => delivered += 1,
                Pushed::Evicted(victim) => {
                    delivered += 1;
                    per_topic.drop_oldest.fetch_add(1, Ordering::Relaxed);
                    // Provenance belongs to the evicted datum, not the
                    // one being pushed.
                    trace_drop(victim.trace.as_ref(), DropReason::DropOldest, pattern);
                }
                Pushed::Rejected => {
                    per_topic.queue_full.fetch_add(1, Ordering::Relaxed);
                    trace_drop(trace.as_ref(), DropReason::QueueFull, pattern);
                }
                Pushed::Closed => {
                    per_topic.pruned.fetch_add(1, Ordering::Relaxed);
                    trace_drop(trace.as_ref(), DropReason::PrunedReceiver, pattern);
                    saw_closed = true;
                }
            }
        }
        if saw_closed {
            self.subscribers.write().retain(|s| !s.queue.is_closed());
        }
        per_topic.delivered.fetch_add(delivered as u64, Ordering::Relaxed);
        delivered
    }

    fn topic_counters(&self, topic: &str) -> Arc<TopicCounters> {
        if let Some((_, c)) = self.topics.read().iter().find(|(t, _)| t == topic) {
            return c.clone();
        }
        let mut topics = self.topics.write();
        if let Some((_, c)) = topics.iter().find(|(t, _)| t == topic) {
            return c.clone();
        }
        let c = Arc::new(TopicCounters::default());
        topics.push((topic.to_owned(), c.clone()));
        c
    }

    /// Activity counters: the per-topic counters summed, plus decode
    /// errors (which belong to no topic).
    pub fn stats(&self) -> BrokerStats {
        let mut stats = BrokerStats {
            decode_errors: self.decode_errors.load(Ordering::Relaxed),
            ..BrokerStats::default()
        };
        for (_, c) in self.topics.read().iter() {
            stats.published += c.published.load(Ordering::Relaxed);
            stats.delivered += c.delivered.load(Ordering::Relaxed);
            stats.dropped +=
                c.queue_full.load(Ordering::Relaxed) + c.drop_oldest.load(Ordering::Relaxed);
            stats.bytes_published += c.bytes_published.load(Ordering::Relaxed);
        }
        stats
    }

    /// The audited wire-decode path for broker consumers: a malformed
    /// envelope is **counted and skipped** — the error is returned for the
    /// caller to log or trace, never unwrapped.
    pub fn decode_envelope(&self, bytes: &[u8]) -> Result<Envelope, DecodeError> {
        Envelope::decode(bytes).inspect_err(|_| {
            self.decode_errors.fetch_add(1, Ordering::Relaxed);
        })
    }

    /// Per-topic publish/deliver/drop breakdown, in first-publish order.
    pub fn topic_stats(&self) -> Vec<TopicStats> {
        self.topics
            .read()
            .iter()
            .map(|(topic, c)| {
                let queue_full = c.queue_full.load(Ordering::Relaxed);
                let drop_oldest = c.drop_oldest.load(Ordering::Relaxed);
                TopicStats {
                    topic: topic.clone(),
                    published: c.published.load(Ordering::Relaxed),
                    delivered: c.delivered.load(Ordering::Relaxed),
                    dropped: queue_full + drop_oldest,
                    queue_full,
                    drop_oldest,
                    pruned_receiver: c.pruned.load(Ordering::Relaxed),
                    bytes_published: c.bytes_published.load(Ordering::Relaxed),
                }
            })
            .collect()
    }

    /// Current queue depth per live subscriber, keyed by filter pattern.
    pub fn queue_depths(&self) -> Vec<(String, usize)> {
        self.subscribers
            .read()
            .iter()
            .filter(|s| !s.queue.is_closed())
            .map(|s| (s.filter.pattern().to_owned(), s.queue.len()))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use std::time::Duration;

    fn raw(n: u8) -> Payload {
        Payload::Raw(Bytes::from(vec![n]))
    }

    #[test]
    fn fan_out_to_matching_subscribers() {
        let b = Broker::new();
        let s1 = b.subscribe(TopicFilter::new("metrics/#"), 16, BackpressurePolicy::Block);
        let s2 = b.subscribe(TopicFilter::new("logs/#"), 16, BackpressurePolicy::Block);
        let s3 = b.subscribe(TopicFilter::all(), 16, BackpressurePolicy::Block);
        let n = b.publish("metrics/node", raw(1));
        assert_eq!(n, 2);
        assert!(s1.try_recv().is_some());
        assert!(s2.try_recv().is_none());
        assert!(s3.try_recv().is_some());
    }

    #[test]
    fn sequence_numbers_increase() {
        let b = Broker::new();
        let s = b.subscribe(TopicFilter::all(), 16, BackpressurePolicy::Block);
        b.publish("a", raw(0));
        b.publish("a", raw(1));
        let e1 = s.recv().unwrap();
        let e2 = s.recv().unwrap();
        assert!(e2.seq > e1.seq);
        assert_eq!(e1.topic, "a");
    }

    #[test]
    fn drop_newest_counts_drops() {
        let b = Broker::new();
        let s = b.subscribe(TopicFilter::all(), 2, BackpressurePolicy::DropNewest);
        for i in 0..5 {
            b.publish("t", raw(i));
        }
        assert_eq!(s.dropped(), 3);
        assert_eq!(b.stats().dropped, 3);
        // Oldest two survive.
        let got: Vec<u8> = s
            .drain()
            .iter()
            .map(|e| match &e.payload {
                Payload::Raw(b) => b[0],
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(got, vec![0, 1]);
    }

    #[test]
    fn per_topic_stats_track_publish_deliver_drop() {
        let b = Broker::new();
        let _all = b.subscribe(TopicFilter::all(), 2, BackpressurePolicy::DropNewest);
        for i in 0..4 {
            b.publish("metrics/node", raw(i));
        }
        b.publish("logs/syslog", raw(9));
        let stats = b.topic_stats();
        assert_eq!(stats.len(), 2);
        assert_eq!(stats[0].topic, "metrics/node");
        assert_eq!(stats[0].published, 4);
        assert_eq!(stats[0].delivered, 2);
        assert_eq!(stats[0].dropped, 2);
        assert!(stats[0].bytes_published > 0);
        assert_eq!(stats[1].topic, "logs/syslog");
        assert_eq!(stats[1].published, 1);
        assert_eq!(stats[1].dropped, 1);
        // Per-topic totals reconcile with the aggregate counters.
        let agg = b.stats();
        assert_eq!(stats.iter().map(|t| t.published).sum::<u64>(), agg.published);
        assert_eq!(stats.iter().map(|t| t.dropped).sum::<u64>(), agg.dropped);
        assert_eq!(stats.iter().map(|t| t.delivered).sum::<u64>(), agg.delivered);
        assert_eq!(stats.iter().map(|t| t.bytes_published).sum::<u64>(), agg.bytes_published);
    }

    #[test]
    fn per_topic_drop_reasons_are_split() {
        let b = Broker::new();
        let _newest = b.subscribe(TopicFilter::new("a/#"), 1, BackpressurePolicy::DropNewest);
        let _oldest = b.subscribe(TopicFilter::new("b/#"), 1, BackpressurePolicy::DropOldest);
        let gone = b.subscribe(TopicFilter::new("a/#"), 4, BackpressurePolicy::Block);
        drop(gone);
        for i in 0..3 {
            b.publish("a/x", raw(i));
            b.publish("b/x", raw(i));
        }
        let stats = b.topic_stats();
        let a = stats.iter().find(|t| t.topic == "a/x").unwrap();
        let bt = stats.iter().find(|t| t.topic == "b/x").unwrap();
        assert_eq!(a.queue_full, 2);
        assert_eq!(a.drop_oldest, 0);
        assert_eq!(a.pruned_receiver, 1, "first publish hits the dead Block sub");
        assert_eq!(bt.queue_full, 0);
        assert_eq!(bt.drop_oldest, 2);
        assert_eq!(bt.pruned_receiver, 0);
        // The aggregate `dropped` remains backpressure-only on both levels.
        assert_eq!(a.dropped, a.queue_full + a.drop_oldest);
        assert_eq!(stats.iter().map(|t| t.dropped).sum::<u64>(), b.stats().dropped);
    }

    #[test]
    fn traced_publish_stamps_context_and_records_drop_spans() {
        use hpcmon_trace::{Sampler, SpanStatus, Tracer};
        let b = Broker::new();
        let tracer = Arc::new(Tracer::new(Sampler::always()));
        b.set_tracer(tracer.clone());
        let sub = b.subscribe(TopicFilter::all(), 1, BackpressurePolicy::DropNewest);
        let ctx1 = tracer.context_for(0).unwrap();
        let ctx2 = tracer.context_for(1).unwrap();
        assert_eq!(b.publish_traced("t", raw(0), Some(ctx1)), 1);
        // Queue is now full: the second publish drops and records a span.
        assert_eq!(b.publish_traced("t", raw(1), Some(ctx2)), 0);
        let env = sub.try_recv().unwrap();
        assert_eq!(env.trace, Some(ctx1), "context rides the envelope");
        let spans = tracer.drain();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].trace_id, ctx2.trace_id);
        assert_eq!(spans[0].status, SpanStatus::Dropped(DropReason::QueueFull));
        assert!(spans[0].note.contains("t -> #"), "note names topic and subscriber");
    }

    #[test]
    fn drop_oldest_span_blames_the_evicted_datum() {
        use hpcmon_trace::{Sampler, Tracer};
        let b = Broker::new();
        let tracer = Arc::new(Tracer::new(Sampler::always()));
        b.set_tracer(tracer.clone());
        let sub = b.subscribe(TopicFilter::all(), 1, BackpressurePolicy::DropOldest);
        let victim = tracer.context_for(0).unwrap();
        let survivor = tracer.context_for(1).unwrap();
        b.publish_traced("t", raw(0), Some(victim));
        b.publish_traced("t", raw(1), Some(survivor));
        let spans = tracer.drain();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].trace_id, victim.trace_id, "evicted datum owns the drop");
        assert_eq!(spans[0].status.drop_reason(), Some(DropReason::DropOldest));
        assert_eq!(sub.try_recv().unwrap().trace, Some(survivor));
    }

    #[test]
    fn queue_depths_report_backlog() {
        let b = Broker::new();
        let s = b.subscribe(TopicFilter::new("metrics/#"), 8, BackpressurePolicy::Block);
        b.publish("metrics/node", raw(0));
        b.publish("metrics/node", raw(1));
        let depths = b.queue_depths();
        assert_eq!(depths, vec![(String::from("metrics/#"), 2)]);
        s.drain();
        assert_eq!(b.queue_depths(), vec![(String::from("metrics/#"), 0)]);
    }

    #[test]
    fn drop_oldest_keeps_latest() {
        let b = Broker::new();
        let s = b.subscribe(TopicFilter::all(), 2, BackpressurePolicy::DropOldest);
        for i in 0..5 {
            b.publish("t", raw(i));
        }
        assert_eq!(s.dropped(), 3);
        let got: Vec<u8> = s
            .drain()
            .iter()
            .map(|e| match &e.payload {
                Payload::Raw(b) => b[0],
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(got, vec![3, 4]);
    }

    #[test]
    fn stats_track_published_and_delivered() {
        let b = Broker::new();
        let _s1 = b.subscribe(TopicFilter::all(), 16, BackpressurePolicy::Block);
        let _s2 = b.subscribe(TopicFilter::all(), 16, BackpressurePolicy::Block);
        b.publish("x", raw(0));
        b.publish("x", raw(1));
        let st = b.stats();
        assert_eq!(st.published, 2);
        assert_eq!(st.delivered, 4);
        assert_eq!(st.dropped, 0);
        assert!(st.bytes_published >= 2);
    }

    #[test]
    fn no_subscribers_is_fine() {
        let b = Broker::new();
        assert_eq!(b.publish("anything", raw(9)), 0);
        assert_eq!(b.stats().published, 1);
    }

    #[test]
    fn concurrent_publishers_lose_nothing_with_block() {
        let b = Broker::new();
        let s = b.subscribe(TopicFilter::all(), 1_024, BackpressurePolicy::Block);
        let mut handles = Vec::new();
        for t in 0..4 {
            let b = b.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..100 {
                    b.publish(&format!("t/{t}"), raw(i as u8));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(s.drain().len(), 400);
        assert_eq!(s.dropped(), 0);
    }

    #[test]
    fn drain_empties_queue() {
        let b = Broker::new();
        let s = b.subscribe(TopicFilter::all(), 16, BackpressurePolicy::Block);
        for i in 0..5 {
            b.publish("t", raw(i));
        }
        assert_eq!(s.queued(), 5);
        assert_eq!(s.drain().len(), 5);
        assert_eq!(s.queued(), 0);
        assert!(s.try_recv().is_none());
    }

    #[test]
    fn decode_errors_are_counted_and_skipped() {
        let b = Broker::new();
        assert_eq!(b.stats().decode_errors, 0);
        // A clean envelope decodes without touching the counter.
        let env = Envelope { topic: "t".into(), seq: 0, trace: None, payload: raw(1) };
        let wire = env.encode().unwrap();
        assert_eq!(b.decode_envelope(&wire).unwrap(), env);
        assert_eq!(b.stats().decode_errors, 0);
        // Truncated and bit-flipped forms are counted, never panic.
        assert!(b.decode_envelope(&wire[..wire.len() / 2]).is_err());
        let mut mangled = wire.clone();
        mangled[0] ^= 0x04; // '{' -> '\x7f': structurally broken JSON
        assert!(b.decode_envelope(&mangled).is_err());
        assert_eq!(b.stats().decode_errors, 2);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        let b = Broker::new();
        b.subscribe(TopicFilter::all(), 0, BackpressurePolicy::Block);
    }

    #[test]
    fn dropped_subscription_is_pruned_and_never_blocks() {
        let b = Broker::new();
        let s = b.subscribe(TopicFilter::all(), 1, BackpressurePolicy::Block);
        drop(s);
        assert_eq!(b.subscribers.read().len(), 1);
        // A dead Block subscriber with a full queue must not stall
        // publishers; it is skipped and pruned instead.
        b.publish("t", raw(0));
        b.publish("t", raw(1));
        assert_eq!(b.subscribers.read().len(), 0);
    }

    #[test]
    fn dropping_a_subscription_releases_a_parked_block_publisher() {
        use hpcmon_trace::{Sampler, Tracer};
        let b = Broker::new();
        let tracer = Arc::new(Tracer::new(Sampler::always()));
        b.set_tracer(tracer.clone());
        let s = b.subscribe(TopicFilter::all(), 1, BackpressurePolicy::Block);
        assert_eq!(b.publish("t", raw(0)), 1, "queue is now full");
        let ctx = tracer.context_for(0).unwrap();
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        let publisher = {
            let b = b.clone();
            std::thread::spawn(move || {
                done_tx.send(b.publish_traced("t", raw(1), Some(ctx))).unwrap();
            })
        };
        // Give the publisher time to park on the full queue.
        std::thread::sleep(Duration::from_millis(200));
        drop(s);
        let delivered = done_rx
            .recv_timeout(Duration::from_secs(3))
            .expect("publisher still parked after its subscriber went away");
        publisher.join().unwrap();
        // The released publish is accounted like any other dead subscriber.
        assert_eq!(delivered, 0);
        assert_eq!(b.topic_stats()[0].pruned_receiver, 1);
        assert_eq!(b.stats().dropped, 0);
        assert_eq!(b.subscribers.read().len(), 0, "and the entry is pruned, not wedged");
        let spans = tracer.drain();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].trace_id, ctx.trace_id);
        assert_eq!(spans[0].status.drop_reason(), Some(DropReason::PrunedReceiver));
    }

    #[test]
    fn dropping_the_broker_releases_a_parked_consumer() {
        let b = Broker::new();
        let s = b.subscribe(TopicFilter::all(), 4, BackpressurePolicy::Block);
        b.publish("t", raw(7));
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        let consumer = std::thread::spawn(move || {
            let queued = s.recv(); // published before the drop: still delivered
            let after = s.recv(); // parks until the broker goes away
            done_tx.send((queued, after)).unwrap();
        });
        std::thread::sleep(Duration::from_millis(200));
        drop(b);
        let (queued, after) = done_rx
            .recv_timeout(Duration::from_secs(3))
            .expect("consumer still parked after the broker was dropped");
        consumer.join().unwrap();
        assert_eq!(queued.unwrap().payload, raw(7));
        assert!(after.is_none());
    }

    /// Four concurrent publishers into a capacity-8 lossy subscription while
    /// the test thread drains: the queue never exceeds its capacity and
    /// every published message is drained, still queued, or counted dropped.
    fn lossy_policy_conserves_messages(policy: BackpressurePolicy) {
        const PUBLISHERS: u64 = 4;
        const EACH: u64 = 500;
        const CAPACITY: usize = 8;
        let b = Broker::new();
        let s = b.subscribe(TopicFilter::all(), CAPACITY, policy);
        let handles: Vec<_> = (0..PUBLISHERS)
            .map(|t| {
                let b = b.clone();
                std::thread::spawn(move || {
                    for i in 0..EACH {
                        assert!(b.publish(&format!("t/{t}"), raw(i as u8)) <= 1);
                    }
                })
            })
            .collect();
        let mut drained = 0u64;
        while handles.iter().any(|h| !h.is_finished()) {
            assert!(s.queued() <= CAPACITY);
            let batch = s.drain();
            assert!(batch.len() <= CAPACITY);
            drained += batch.len() as u64;
        }
        for h in handles {
            h.join().unwrap();
        }
        let queued = s.queued();
        assert!(queued <= CAPACITY);
        assert_eq!(PUBLISHERS * EACH, drained + queued as u64 + s.dropped());
        let topics = b.topic_stats();
        let (queue_full, drop_oldest) =
            topics.iter().fold((0, 0), |(f, o), t| (f + t.queue_full, o + t.drop_oldest));
        assert_eq!(queue_full + drop_oldest, s.dropped());
        assert_eq!(b.stats().dropped, s.dropped());
        match policy {
            BackpressurePolicy::DropNewest => assert_eq!(drop_oldest, 0),
            _ => assert_eq!(queue_full, 0),
        }
        let delivered: u64 = topics.iter().map(|t| t.delivered).sum();
        assert_eq!(delivered, drained + queued as u64 + drop_oldest);
    }

    #[test]
    fn concurrent_publishers_conserve_under_drop_oldest() {
        lossy_policy_conserves_messages(BackpressurePolicy::DropOldest);
    }

    #[test]
    fn concurrent_publishers_conserve_under_drop_newest() {
        lossy_policy_conserves_messages(BackpressurePolicy::DropNewest);
    }
}
