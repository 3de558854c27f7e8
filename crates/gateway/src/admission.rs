//! Admission control: per-principal token buckets plus a per-shard gate
//! that bounds concurrent evaluation and sheds expired callers instead of
//! stalling.
//!
//! The paper's Table I asks the serving side to protect the pipeline from
//! its consumers ("analysis must not perturb the system under
//! measurement").  Two mechanisms compose here:
//!
//! * [`TokenBuckets`] — each principal (consumer name) draws from its own
//!   bucket; a principal that exceeds its refill rate is refused *at the
//!   door* with a rate-limit error while everyone else proceeds untouched.
//! * `Gate` — per shard, a count of callers evaluating and callers
//!   waiting, under one mutex and one condvar.  The query runs on the
//!   caller's own thread once it holds a slot; a caller refused for a full
//!   wait line is answered at once, and one whose deadline passes while it
//!   waits leaves instead of being served late.

use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Condvar;
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

/// Why [`Gate::enter`] refused a caller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Refused {
    /// Every slot is taken and `capacity` callers already wait.
    Full,
    /// The caller's deadline passed before a slot was free.
    Expired,
}

/// Callers evaluating and callers waiting to, on one gate.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct Occupancy {
    pub(crate) running: usize,
    pub(crate) waiting: usize,
}

/// One shard's admission gate: at most `slots` callers evaluate at once,
/// at most `capacity` more park on the condvar for a slot, and any more
/// are refused without blocking.  A caller is admitted only before its
/// deadline; one that reaches it while parked leaves refused.
pub(crate) struct Gate {
    state: Mutex<Occupancy>,
    freed: Condvar,
    slots: usize,
    capacity: usize,
}

/// A held slot; dropping it frees the slot and wakes one waiter.
pub(crate) struct Slot<'a>(&'a Gate);

impl Gate {
    /// A gate of `slots` (at least one) concurrent callers and `capacity`
    /// waiters.
    pub(crate) fn new(slots: usize, capacity: usize) -> Gate {
        Gate {
            state: Mutex::new(Occupancy::default()),
            freed: Condvar::new(),
            slots: slots.max(1),
            capacity,
        }
    }

    /// Take a slot, parking until one frees if need be.
    pub(crate) fn enter(&self, deadline: Instant) -> Result<Slot<'_>, Refused> {
        let mut state = self.state.lock();
        if state.running == self.slots {
            if state.waiting >= self.capacity {
                return Err(Refused::Full);
            }
            state.waiting += 1;
            while state.running == self.slots {
                let left = deadline.saturating_duration_since(Instant::now());
                if left.is_zero() {
                    break;
                }
                state = self.freed.wait_timeout(state, left).unwrap_or_else(|e| e.into_inner()).0;
            }
            state.waiting -= 1;
        }
        if Instant::now() >= deadline {
            // A wake-up meant for this caller goes to the next waiter.
            if state.running < self.slots && state.waiting > 0 {
                self.freed.notify_one();
            }
            return Err(Refused::Expired);
        }
        state.running += 1;
        Ok(Slot(self))
    }

    /// Callers evaluating and waiting right now.
    pub(crate) fn occupancy(&self) -> Occupancy {
        *self.state.lock()
    }
}

impl Drop for Slot<'_> {
    fn drop(&mut self) {
        self.0.state.lock().running -= 1;
        self.0.freed.notify_one();
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

    fn far() -> Instant {
        Instant::now() + Duration::from_secs(600)
    }

    /// Spin until `gate` shows `waiting` parked callers.
    fn until_waiting(gate: &Gate, waiting: usize) {
        while gate.occupancy().waiting != waiting {
            std::thread::yield_now();
        }
    }

    /// Slots held by hand: the gate never lets more than `slots` callers
    /// in, refuses the caller past `capacity` waiters without parking it,
    /// and a released slot admits exactly one waiter.
    #[test]
    fn slots_and_the_wait_line_are_bounded_and_a_release_admits_one() {
        let gate = Gate::new(2, 2);
        let held = [gate.enter(far()).expect("free"), gate.enter(far()).expect("free")];
        assert_eq!(gate.occupancy(), Occupancy { running: 2, waiting: 0 });
        std::thread::scope(|s| {
            let waiters: Vec<_> = (0..2).map(|_| s.spawn(|| gate.enter(far()))).collect();
            until_waiting(&gate, 2);
            let started = Instant::now();
            assert_eq!(gate.enter(far()).err(), Some(Refused::Full), "the third waiter");
            assert!(started.elapsed() < Duration::from_secs(5), "refused without parking");
            assert_eq!(gate.occupancy(), Occupancy { running: 2, waiting: 2 });

            let [first, second] = held;
            drop(first);
            until_waiting(&gate, 1);
            assert_eq!(gate.occupancy(), Occupancy { running: 2, waiting: 1 }, "one admitted");
            drop(second);
            let admitted: Vec<_> = waiters.into_iter().map(|w| w.join().unwrap()).collect();
            assert!(admitted.iter().all(Result::is_ok));
            assert_eq!(gate.occupancy(), Occupancy { running: 2, waiting: 0 });
        });
        assert_eq!(gate.occupancy(), Occupancy::default(), "every slot released");
    }

    /// A caller is admitted only before its deadline: on arrival, or while
    /// it waits; either way it leaves the wait line.
    #[test]
    fn a_caller_past_its_deadline_is_refused() {
        let gate = Gate::new(1, 4);
        assert_eq!(gate.enter(Instant::now()).err(), Some(Refused::Expired), "a free slot");
        let held = gate.enter(far()).expect("free");
        let started = Instant::now();
        let soon = started + Duration::from_millis(20);
        assert_eq!(gate.enter(soon).err(), Some(Refused::Expired), "parked, then expired");
        assert!(started.elapsed() >= Duration::from_millis(20));
        assert_eq!(gate.occupancy(), Occupancy { running: 1, waiting: 0 });
        drop(held);
        assert!(gate.enter(far()).is_ok());
    }

    /// More callers than slots hammer one gate: every call returns, and the
    /// bounds hold at every observation — in flight by a count the gate
    /// does not keep, waiting by the gate's own.
    #[test]
    fn contended_gate_returns_every_call_within_its_bounds() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        const SLOTS: usize = 2;
        const CAPACITY: usize = 3;
        const THREADS: usize = 8;
        const CALLS: usize = 200;
        let gate = Gate::new(SLOTS, CAPACITY);
        let in_flight = AtomicUsize::new(0);
        let outcomes: Vec<[usize; 3]> = std::thread::scope(|s| {
            let callers: Vec<_> = (0..THREADS)
                .map(|i| {
                    let (gate, in_flight) = (&gate, &in_flight);
                    s.spawn(move || {
                        let mut seen = [0; 3];
                        for call in 0..CALLS {
                            // Every fourth call of odd threads has a budget
                            // short enough to expire in the line.
                            let budget = if i % 2 == 1 && call % 4 == 0 { 0 } else { 600_000 };
                            let deadline = Instant::now() + Duration::from_micros(budget);
                            match gate.enter(deadline) {
                                Ok(_slot) => {
                                    let now = in_flight.fetch_add(1, Ordering::SeqCst) + 1;
                                    assert!(now <= SLOTS, "{now} in flight");
                                    let occupancy = gate.occupancy();
                                    assert!(occupancy.running <= SLOTS, "{occupancy:?}");
                                    assert!(occupancy.waiting <= CAPACITY, "{occupancy:?}");
                                    std::thread::yield_now();
                                    in_flight.fetch_sub(1, Ordering::SeqCst);
                                    seen[0] += 1;
                                }
                                Err(Refused::Full) => seen[1] += 1,
                                Err(Refused::Expired) => seen[2] += 1,
                            }
                        }
                        seen
                    })
                })
                .collect();
            callers.into_iter().map(|c| c.join().unwrap()).collect()
        });
        let total = outcomes.iter().fold([0; 3], |a, o| [a[0] + o[0], a[1] + o[1], a[2] + o[2]]);
        assert_eq!(total.iter().sum::<usize>(), THREADS * CALLS, "every call returned");
        assert!(total[0] > 0, "{total:?}");
        assert_eq!(gate.occupancy(), Occupancy::default());
    }
}
