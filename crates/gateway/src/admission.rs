//! Admission control: per-principal token buckets plus a bounded queue
//! that sheds expired work instead of stalling.
//!
//! The paper's Table I asks the serving side to protect the pipeline from
//! its consumers ("analysis must not perturb the system under
//! measurement").  Two mechanisms compose here:
//!
//! * [`TokenBuckets`] — each principal (consumer name) draws from its own
//!   bucket; a principal that exceeds its refill rate is refused *at the
//!   door* with a rate-limit error while everyone else proceeds untouched.
//! * [`AdmissionQueue`] — a bounded FIFO between admission and the worker
//!   pool.  When full, it first sheds queued entries whose deadline has
//!   already passed (their waiters get a deadline error immediately —
//!   nobody waits on work that can no longer be answered in time), and
//!   only refuses the new request if the queue is still full of live work.

use parking_lot::Mutex;
use std::collections::{HashMap, VecDeque};
use std::time::Instant;

/// Per-principal token buckets.  `burst` is the bucket capacity, `per_sec`
/// the refill rate; a non-positive `burst` disables limiting entirely.
pub struct TokenBuckets {
    burst: f64,
    per_sec: f64,
    inner: Mutex<HashMap<String, BucketState>>,
}

struct BucketState {
    tokens: f64,
    last: Instant,
}

impl TokenBuckets {
    /// A limiter with the given capacity and refill rate.
    pub(crate) fn new(burst: f64, per_sec: f64) -> TokenBuckets {
        TokenBuckets { burst, per_sec, inner: Mutex::new(HashMap::new()) }
    }

    /// Take one token for `principal` at time `now`; false means shed.
    pub(crate) fn try_admit(&self, principal: &str, now: Instant) -> bool {
        if self.burst <= 0.0 {
            return true;
        }
        let mut inner = self.inner.lock();
        let state = inner
            .entry(principal.to_owned())
            .or_insert(BucketState { tokens: self.burst, last: now });
        let elapsed = now.saturating_duration_since(state.last).as_secs_f64();
        state.tokens = (state.tokens + elapsed * self.per_sec).min(self.burst);
        state.last = now;
        if state.tokens >= 1.0 {
            state.tokens -= 1.0;
            true
        } else {
            false
        }
    }
}

/// Why a push was refused.
pub enum PushError<T> {
    /// Queue full of unexpired work; the item is handed back.
    Full(T),
    /// The queue was closed (gateway shutdown); the item is handed back.
    Closed(T),
}

struct QueueState<T> {
    q: VecDeque<T>,
    closed: bool,
}

/// A bounded FIFO with blocking pop and deadline-aware shedding on push.
///
/// Built on `std::sync::{Mutex, Condvar}` (blocking workers park on the
/// condvar until work arrives or the queue closes).
pub struct AdmissionQueue<T> {
    inner: std::sync::Mutex<QueueState<T>>,
    cv: std::sync::Condvar,
    capacity: usize,
}

impl<T> AdmissionQueue<T> {
    /// A queue admitting at most `capacity` entries.
    pub(crate) fn new(capacity: usize) -> AdmissionQueue<T> {
        AdmissionQueue {
            inner: std::sync::Mutex::new(QueueState { q: VecDeque::new(), closed: false }),
            cv: std::sync::Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    /// Enqueue `item`.  When full, entries for which `expired` is true are
    /// removed and passed to `shed` (which must answer their waiters);
    /// if the queue is still full afterwards the push is refused.
    pub(crate) fn push(
        &self,
        item: T,
        expired: impl Fn(&T) -> bool,
        mut shed: impl FnMut(T),
    ) -> Result<(), PushError<T>> {
        let mut state = self.inner.lock().expect("admission queue poisoned");
        if state.closed {
            return Err(PushError::Closed(item));
        }
        if state.q.len() >= self.capacity {
            let mut live = VecDeque::with_capacity(state.q.len());
            for entry in state.q.drain(..) {
                if expired(&entry) {
                    shed(entry);
                } else {
                    live.push_back(entry);
                }
            }
            state.q = live;
        }
        if state.q.len() >= self.capacity {
            return Err(PushError::Full(item));
        }
        state.q.push_back(item);
        drop(state);
        self.cv.notify_one();
        Ok(())
    }

    /// Blocking pop; `None` once the queue is closed *and* drained.
    pub fn pop(&self) -> Option<T> {
        let mut state = self.inner.lock().expect("admission queue poisoned");
        loop {
            if let Some(item) = state.q.pop_front() {
                return Some(item);
            }
            if state.closed {
                return None;
            }
            state = self.cv.wait(state).expect("admission queue poisoned");
        }
    }

    /// Blocking pop that re-checks `exit` at every job boundary: returns
    /// `None` as soon as `exit()` is true (queued items stay queued for
    /// other workers) or once the queue is closed and drained.  Callers
    /// that flip their exit condition must also call
    /// [`AdmissionQueue::wake_all`] so parked workers observe it.
    pub(crate) fn pop_unless(&self, exit: impl Fn() -> bool) -> Option<T> {
        let mut state = self.inner.lock().expect("admission queue poisoned");
        loop {
            if exit() {
                return None;
            }
            if let Some(item) = state.q.pop_front() {
                return Some(item);
            }
            if state.closed {
                return None;
            }
            state = self.cv.wait(state).expect("admission queue poisoned");
        }
    }

    /// Wake every parked popper so it re-evaluates its exit condition.
    pub(crate) fn wake_all(&self) {
        // The exit condition lives outside the mutex.  Passing through the
        // lock first means a popper that read it as false has reached
        // `wait` (which releases the lock) before the notify goes out;
        // without this the wake-up can land in between and be lost.
        drop(self.inner.lock().expect("admission queue poisoned"));
        self.cv.notify_all();
    }

    /// Close the queue: pending items remain poppable, waiters wake.
    pub(crate) fn close(&self) {
        self.inner.lock().expect("admission queue poisoned").closed = true;
        self.cv.notify_all();
    }

    /// Entries currently queued.
    pub(crate) fn len(&self) -> usize {
        self.inner.lock().expect("admission queue poisoned").q.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn token_bucket_sheds_over_limit_then_refills() {
        let tb = TokenBuckets::new(2.0, 1.0);
        let t0 = Instant::now();
        assert!(tb.try_admit("alice", t0));
        assert!(tb.try_admit("alice", t0));
        assert!(!tb.try_admit("alice", t0), "burst spent");
        // Another principal is unaffected.
        assert!(tb.try_admit("bob", t0));
        // After 1s one token is back.
        assert!(tb.try_admit("alice", t0 + Duration::from_secs(1)));
        assert!(!tb.try_admit("alice", t0 + Duration::from_secs(1)));
    }

    #[test]
    fn non_positive_burst_means_unlimited() {
        let tb = TokenBuckets::new(0.0, 0.0);
        let t0 = Instant::now();
        for _ in 0..1_000 {
            assert!(tb.try_admit("anyone", t0));
        }
    }

    #[test]
    fn queue_sheds_expired_entries_before_refusing() {
        // Items are (id, expired) pairs.
        let q: AdmissionQueue<(u32, bool)> = AdmissionQueue::new(2);
        assert!(q.push((1, true), |e| e.1, |_| {}).is_ok());
        assert!(q.push((2, false), |e| e.1, |_| {}).is_ok());
        // Full; entry 1 is expired and should be shed to make room.
        let mut shed = Vec::new();
        assert!(q.push((3, false), |e| e.1, |e| shed.push(e.0)).is_ok());
        assert_eq!(shed, vec![1]);
        // Full of live work now: refused.
        match q.push((4, false), |e| e.1, |_| {}) {
            Err(PushError::Full((4, _))) => {}
            _ => panic!("expected Full"),
        }
        assert_eq!(q.pop().unwrap().0, 2, "FIFO order preserved");
        assert_eq!(q.pop().unwrap().0, 3);
    }

    #[test]
    fn pop_unless_exits_at_job_boundaries_without_losing_items() {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Arc;
        let q: Arc<AdmissionQueue<u32>> = Arc::new(AdmissionQueue::new(8));
        let die = Arc::new(AtomicBool::new(false));
        q.push(1, |_| false, |_| {}).ok();
        q.push(2, |_| false, |_| {}).ok();
        // Exit already requested: nothing is popped, items survive.
        die.store(true, Ordering::Relaxed);
        let die2 = die.clone();
        assert_eq!(q.pop_unless(move || die2.load(Ordering::Relaxed)), None);
        assert_eq!(q.len(), 2, "queued jobs survive a worker death");
        // Exit cleared: items drain normally.
        die.store(false, Ordering::Relaxed);
        let die3 = die.clone();
        assert_eq!(q.pop_unless(move || die3.load(Ordering::Relaxed)), Some(1));
        // A parked popper wakes and exits when the flag flips + wake_all.
        let q2 = q.clone();
        let die4 = die.clone();
        let h = std::thread::spawn(move || {
            // Drain the remaining item, then park until woken by wake_all.
            let mut got = Vec::new();
            while let Some(v) = q2.pop_unless(|| die4.load(Ordering::Relaxed)) {
                got.push(v);
            }
            got
        });
        while q.len() > 0 {
            std::thread::yield_now();
        }
        die.store(true, Ordering::Relaxed);
        q.wake_all();
        assert_eq!(h.join().unwrap(), vec![2]);
    }

    #[test]
    fn close_wakes_poppers_and_drains() {
        let q: AdmissionQueue<u32> = AdmissionQueue::new(4);
        q.push(7, |_| false, |_| {}).ok();
        q.close();
        assert_eq!(q.pop(), Some(7), "queued work still drains after close");
        assert_eq!(q.pop(), None);
        match q.push(8, |_| false, |_| {}) {
            Err(PushError::Closed(8)) => {}
            _ => panic!("expected Closed"),
        }
    }
}
