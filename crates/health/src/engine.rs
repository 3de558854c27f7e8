//! The health engine: feeds in, alert transitions out, one tick at a time.
//!
//! The engine is deliberately inert plumbing — it owns no clocks, no
//! threads, and reads no telemetry on its own.  Each tick the embedding
//! pipeline hands it a batch of named good/bad feeds sourced from
//! *deterministic* pipeline state (coverage bitmaps, breaker phase, spill
//! depths — never wall-clock instruments), and the engine updates every
//! SLO's rolling windows and phase machine.  That is what makes alert
//! timelines bit-identical between runs and exactly reproducible from a
//! snapshot.

use crate::alert::{
    ActiveAlert, AlertEvent, Grade, HealthReport, Silence, SiteHealth, SubsystemHealth, Transition,
};
use crate::slo::{burn_rate, SloSpec, Subsystem};
use hpcmon_metrics::{Severity, StateHash};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// One tick's worth of evidence for a feed.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum FeedValue {
    /// Event counts that happened *this tick* (or a level resampled per
    /// tick, e.g. coverage percent as good and its complement as bad).
    Tick {
        /// Good events this tick.
        good: f64,
        /// Bad events this tick.
        bad: f64,
    },
    /// Lifetime totals; the engine diffs consecutive ticks internally, so
    /// monotonic counters can be fed without the caller tracking deltas.
    Total {
        /// Good events since startup.
        good: f64,
        /// Bad events since startup.
        bad: f64,
    },
}

/// Configuration for a [`HealthEngine`]: the SLOs to evaluate plus any
/// pre-declared silences.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct HealthConfig {
    /// SLOs, evaluated in order every tick.
    pub slos: Vec<SloSpec>,
    /// Tick-keyed silences.
    pub silences: Vec<Silence>,
}

impl HealthConfig {
    /// The standard single-site SLO set over the core pipeline feeds that
    /// `hpcmon`'s tick stage supplies (see `DESIGN.md` §13 for the feed
    /// sources):
    ///
    /// * `collect/coverage` — frame coverage percent vs its complement.
    /// * `transport/delivery` — frames delivered vs stalled + dropped +
    ///   decode-failed.
    /// * `store/ingest` — breaker-closed ticks vs spill depth and open
    ///   breakers.
    /// * `store/integrity` — samples ingested vs corrupt blocks + spill
    ///   drops.
    /// * `chaos/quiescence` — quiet ticks vs injected faults.
    /// * `trace/drops` (graded under transport) — assembled spans vs drop
    ///   provenance records.
    ///
    /// The gateway has no SLO here: its shed counters ride wall-clock
    /// deadlines, which no tick-keyed feed may read, so it grades healthy,
    /// as federation does outside a federation run.
    pub fn standard() -> HealthConfig {
        HealthConfig {
            slos: vec![
                SloSpec::new("coverage", Subsystem::Collect, "collect.coverage", 0.99)
                    .severity(Severity::Warning),
                SloSpec::new("delivery", Subsystem::Transport, "transport.delivery", 0.999)
                    .severity(Severity::Error),
                SloSpec::new("ingest", Subsystem::Store, "store.ingest", 0.999)
                    .severity(Severity::Error),
                SloSpec::new("integrity", Subsystem::Store, "store.integrity", 0.999)
                    .severity(Severity::Error),
                SloSpec::new("quiescence", Subsystem::Chaos, "chaos.quiescence", 0.999)
                    .severity(Severity::Notice),
                SloSpec::new("drops", Subsystem::Transport, "trace.drops", 0.99)
                    .severity(Severity::Notice),
            ],
            silences: Vec::new(),
        }
    }

    /// The standard set plus one WAN-delivery SLO per federation site,
    /// graded under [`Subsystem::Federation`] and keyed `…@site`.  Each
    /// site reads its own `fed.wan.<site>` feed (a partition or rollup
    /// drop on one link must not page the others).
    pub fn federation(site_names: &[String]) -> HealthConfig {
        let mut cfg = HealthConfig::standard();
        for site in site_names {
            cfg.slos.push(
                SloSpec::new(
                    "wan-delivery",
                    Subsystem::Federation,
                    &format!("fed.wan.{site}"),
                    0.99,
                )
                .severity(Severity::Error)
                .site(site),
            );
        }
        cfg
    }

    /// Add the durability SLO over the `store.durability` feed the core
    /// supplies when a crash-durability plane is attached: WAL records
    /// appended vs append failures + failed checkpoints + corruption
    /// events + scrub failures.  Graded under [`Subsystem::Store`] and
    /// keyed `store/durability`.  Without a plane the feed is absent and
    /// the SLO stays healthy (absence of a WAL is not an outage).
    pub fn durability(self) -> HealthConfig {
        self.slo(
            SloSpec::new("durability", Subsystem::Store, "store.durability", 0.999)
                .severity(Severity::Error),
        )
    }

    /// Append an SLO.
    pub(crate) fn slo(mut self, spec: SloSpec) -> HealthConfig {
        self.slos.push(spec);
        self
    }

    /// Append a silence.
    pub fn silence(mut self, silence: Silence) -> HealthConfig {
        self.silences.push(silence);
        self
    }
}

/// Lifecycle phase of one SLO's alert.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub enum Phase {
    /// Condition clear; nothing active.
    #[default]
    Ok,
    /// Violating, waiting out `pending_ticks` before firing.
    Pending {
        /// Tick the episode started violating.
        since: u64,
        /// Consecutive violating ticks so far.
        streak: u64,
    },
    /// Confirmed firing; waiting for `resolve_ticks` clear ticks.
    Firing {
        /// Tick the episode started violating.
        since: u64,
        /// Consecutive clear ticks so far.
        clear_streak: u64,
    },
}

/// Evaluation state of one SLO, serde-able for snapshots.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct SloState {
    /// Per-tick `(good, bad)` ring, newest at the back, ≤ `slow_window`.
    pub ring: VecDeque<(f64, f64)>,
    /// Last lifetime totals seen, for diffing [`FeedValue::Total`] feeds.
    pub last_total: Option<(f64, f64)>,
    /// Current lifecycle phase.
    pub phase: Phase,
    /// Fast-window burn rate as of the last observed tick.
    pub fast_burn: f64,
    /// Slow-window burn rate as of the last observed tick.
    pub slow_burn: f64,
    /// Exemplar trace captured when the alert last fired.
    pub exemplar_trace: u64,
}

/// Snapshot of a [`HealthEngine`]'s mutable state (not its config).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct HealthSnapshot {
    /// Per-SLO evaluation state, parallel to the config's SLO list.
    pub states: Vec<SloState>,
    /// Full transition history, so restored runs replay alert timelines.
    pub events: Vec<AlertEvent>,
}

/// The deterministic SLO/alerting engine.
#[derive(Debug)]
pub struct HealthEngine {
    cfg: HealthConfig,
    states: Vec<SloState>,
    events: Vec<AlertEvent>,
}

impl HealthEngine {
    /// An engine with every SLO at Ok and an empty history.
    pub fn new(cfg: HealthConfig) -> HealthEngine {
        let states = cfg.slos.iter().map(|_| SloState::default()).collect();
        HealthEngine { cfg, states, events: Vec::new() }
    }

    /// Evaluate one tick.  `feeds` maps feed keys to this tick's evidence;
    /// an SLO whose feed is absent sees a zero-traffic tick (no burn).
    /// `exemplar` is consulted once per *newly firing* alert to capture
    /// the trace id nearest the violating quantile for that subsystem.
    ///
    /// Returns the transitions that happened this tick, silenced ones
    /// included (callers filter on [`AlertEvent::silenced`] before
    /// publishing).
    pub fn observe_tick(
        &mut self,
        tick: u64,
        feeds: &[(&str, FeedValue)],
        exemplar: &dyn Fn(Subsystem) -> u64,
    ) -> Vec<AlertEvent> {
        let mut out = Vec::new();
        for (spec, st) in self.cfg.slos.iter().zip(self.states.iter_mut()) {
            let fed = feeds.iter().find(|(k, _)| *k == spec.feed).map(|(_, v)| *v);
            let (good, bad) = match fed {
                Some(FeedValue::Tick { good, bad }) => (good.max(0.0), bad.max(0.0)),
                Some(FeedValue::Total { good, bad }) => {
                    let (lg, lb) = st.last_total.unwrap_or((0.0, 0.0));
                    st.last_total = Some((good, bad));
                    ((good - lg).max(0.0), (bad - lb).max(0.0))
                }
                None => (0.0, 0.0),
            };
            st.ring.push_back((good, bad));
            while st.ring.len() > spec.slow_window {
                st.ring.pop_front();
            }
            let sum = |n: usize| -> (f64, f64) {
                st.ring.iter().rev().take(n).fold((0.0, 0.0), |(g, b), &(eg, eb)| (g + eg, b + eb))
            };
            let (fg, fb) = sum(spec.fast_window);
            let (sg, sb) = sum(spec.slow_window);
            st.fast_burn = burn_rate(fg, fb, spec.budget());
            st.slow_burn = burn_rate(sg, sb, spec.budget());
            let violating = st.fast_burn >= spec.fast_burn && st.slow_burn >= spec.slow_burn;

            let mut emit = |st: &SloState, transition: Transition, exemplar_trace: u64| {
                let key = spec.key();
                let silenced = self.cfg.silences.iter().any(|s| s.matches(&key, tick));
                out.push(AlertEvent {
                    tick,
                    key,
                    subsystem: spec.subsystem,
                    site: spec.site.clone(),
                    transition,
                    severity: spec.severity,
                    fast_burn: st.fast_burn,
                    slow_burn: st.slow_burn,
                    exemplar_trace,
                    silenced,
                });
            };

            match st.phase {
                Phase::Ok => {
                    if violating {
                        st.phase = Phase::Pending { since: tick, streak: 1 };
                        emit(st, Transition::Pending, 0);
                        if 1 >= spec.pending_ticks {
                            st.exemplar_trace = exemplar(spec.subsystem);
                            st.phase = Phase::Firing { since: tick, clear_streak: 0 };
                            emit(st, Transition::Firing, st.exemplar_trace);
                        }
                    }
                }
                Phase::Pending { since, streak } => {
                    if violating {
                        let streak = streak + 1;
                        if streak >= spec.pending_ticks {
                            st.exemplar_trace = exemplar(spec.subsystem);
                            st.phase = Phase::Firing { since, clear_streak: 0 };
                            emit(st, Transition::Firing, st.exemplar_trace);
                        } else {
                            st.phase = Phase::Pending { since, streak };
                        }
                    } else {
                        // Never fired — drop back silently, no Resolved spam.
                        st.phase = Phase::Ok;
                    }
                }
                Phase::Firing { since, clear_streak } => {
                    if violating {
                        st.phase = Phase::Firing { since, clear_streak: 0 };
                    } else {
                        let clear_streak = clear_streak + 1;
                        if clear_streak >= spec.resolve_ticks {
                            st.phase = Phase::Ok;
                            emit(st, Transition::Resolved, st.exemplar_trace);
                            st.exemplar_trace = 0;
                        } else {
                            st.phase = Phase::Firing { since, clear_streak };
                        }
                    }
                }
            }
        }
        self.events.extend(out.iter().cloned());
        out
    }

    /// Full transition history since startup (or snapshot restore).
    pub fn events(&self) -> &[AlertEvent] {
        &self.events
    }

    /// Count of Firing alerts right now.
    pub fn firing_count(&self) -> usize {
        self.states.iter().filter(|s| matches!(s.phase, Phase::Firing { .. })).count()
    }

    /// Count of Pending alerts right now.
    pub fn pending_count(&self) -> usize {
        self.states.iter().filter(|s| matches!(s.phase, Phase::Pending { .. })).count()
    }

    /// Build the operator report as of `tick`.
    pub fn report(&self, tick: u64) -> HealthReport {
        let mut active: Vec<ActiveAlert> = Vec::new();
        for (spec, st) in self.cfg.slos.iter().zip(self.states.iter()) {
            let (firing, since) = match st.phase {
                Phase::Ok => continue,
                Phase::Pending { since, .. } => (false, since),
                Phase::Firing { since, .. } => (true, since),
            };
            active.push(ActiveAlert {
                key: spec.key(),
                subsystem: spec.subsystem,
                site: spec.site.clone(),
                severity: spec.severity,
                firing,
                since_tick: since,
                age_ticks: tick.saturating_sub(since),
                fast_burn: st.fast_burn,
                slow_burn: st.slow_burn,
                exemplar_trace: st.exemplar_trace,
            });
        }
        active.sort_by(|a, b| b.firing.cmp(&a.firing).then_with(|| a.key.cmp(&b.key)));

        let grade_of = |firing_sev: Option<Severity>, pending: usize| -> Grade {
            match firing_sev {
                Some(sev) if sev >= Severity::Error => Grade::Critical,
                Some(_) => Grade::Degraded,
                None if pending > 0 => Grade::Degraded,
                None => Grade::Healthy,
            }
        };

        let subsystems = Subsystem::ALL
            .iter()
            .map(|&sub| {
                let of_sub: Vec<&ActiveAlert> =
                    active.iter().filter(|a| a.subsystem == sub).collect();
                let firing = of_sub.iter().filter(|a| a.firing).count();
                let pending = of_sub.len() - firing;
                let worst = of_sub.iter().filter(|a| a.firing).map(|a| a.severity).max();
                SubsystemHealth { subsystem: sub, grade: grade_of(worst, pending), firing, pending }
            })
            .collect();

        let mut sites: Vec<SiteHealth> = Vec::new();
        let mut site_names: Vec<&String> =
            self.cfg.slos.iter().filter_map(|s| s.site.as_ref()).collect();
        site_names.dedup();
        for site in site_names {
            let of_site: Vec<&ActiveAlert> =
                active.iter().filter(|a| a.site.as_ref() == Some(site)).collect();
            let firing = of_site.iter().filter(|a| a.firing).count();
            let pending = of_site.len() - firing;
            let worst = of_site.iter().filter(|a| a.firing).map(|a| a.severity).max();
            sites.push(SiteHealth {
                site: site.clone(),
                grade: grade_of(worst, pending),
                firing,
                pending,
            });
        }

        HealthReport { tick, subsystems, active, sites }
    }

    /// The canonical alert timeline: one JSON object per transition, in
    /// order, with `exemplar_trace` zeroed (exemplar selection rides
    /// wall-clock stage timings, so it is observability, not state).
    /// This is the artifact the determinism suites byte-diff.
    pub fn canonical_timeline(&self) -> String {
        let mut out = String::new();
        for ev in &self.events {
            let mut canon = ev.clone();
            canon.exemplar_trace = 0;
            out.push_str(&serde_json::to_string(&canon).expect("AlertEvent serializes"));
            out.push('\n');
        }
        out
    }

    /// The lifetime totals last fed as [`FeedValue::Total`] on `feed` —
    /// where a caller whose own counters restart (a durability plane after
    /// recovery) has to carry on from for the SLO to keep seeing deltas.
    pub fn last_total(&self, feed: &str) -> Option<(f64, f64)> {
        let at = self.cfg.slos.iter().position(|spec| spec.feed == feed)?;
        self.states[at].last_total
    }

    /// Capture the mutable state for a snapshot.
    pub fn snapshot(&self) -> HealthSnapshot {
        HealthSnapshot { states: self.states.clone(), events: self.events.clone() }
    }

    /// Restore from a snapshot taken against the same config.
    pub fn restore(&mut self, snap: &HealthSnapshot) {
        assert_eq!(
            snap.states.len(),
            self.cfg.slos.len(),
            "health snapshot does not match the configured SLO set"
        );
        self.states = snap.states.clone();
        self.events = snap.events.clone();
    }

    /// Order-sensitive digest of phases, windows, and the event history,
    /// excluding exemplar ids (wall-clock-tainted) so the digest agrees
    /// across runs and telemetry settings.
    pub fn state_digest(&self) -> u64 {
        let mut h = StateHash::new(0x6E);
        h.usize(self.states.len());
        for st in &self.states {
            h.usize(st.ring.len());
            for &(g, b) in &st.ring {
                h.f64(g).f64(b);
            }
            match st.last_total {
                Some((g, b)) => h.bool(true).f64(g).f64(b),
                None => h.bool(false),
            };
            match st.phase {
                Phase::Ok => h.u64(0),
                Phase::Pending { since, streak } => h.u64(1).u64(since).u64(streak),
                Phase::Firing { since, clear_streak } => h.u64(2).u64(since).u64(clear_streak),
            };
            h.f64(st.fast_burn).f64(st.slow_burn);
        }
        h.usize(self.events.len());
        for ev in &self.events {
            h.u64(ev.tick).str(&ev.key);
            h.u64(match ev.transition {
                Transition::Pending => 0,
                Transition::Firing => 1,
                Transition::Resolved => 2,
            });
            h.f64(ev.fast_burn).f64(ev.slow_burn).bool(ev.silenced);
        }
        h.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn no_exemplar(_: Subsystem) -> u64 {
        0
    }

    fn one_slo() -> HealthConfig {
        HealthConfig::default().slo(SloSpec {
            resolve_ticks: 3,
            ..SloSpec::new("ingest", Subsystem::Store, "store.ingest", 0.999)
        })
    }

    fn tick_feed(good: f64, bad: f64) -> Vec<(&'static str, FeedValue)> {
        vec![("store.ingest", FeedValue::Tick { good, bad })]
    }

    #[test]
    fn pending_then_firing_then_resolved() {
        let mut eng = HealthEngine::new(one_slo());
        // Healthy warm-up.
        for t in 0..10 {
            assert!(eng.observe_tick(t, &tick_feed(10.0, 0.0), &no_exemplar).is_empty());
        }
        // Outage: all bad.  Tick 10 → Pending, tick 11 → Firing.
        let ev = eng.observe_tick(10, &tick_feed(0.0, 10.0), &no_exemplar);
        assert_eq!(ev.len(), 1);
        assert_eq!(ev[0].transition, Transition::Pending);
        assert_eq!(ev[0].tick, 10);
        let ev = eng.observe_tick(11, &tick_feed(0.0, 10.0), &no_exemplar);
        assert_eq!(ev.len(), 1);
        assert_eq!(ev[0].transition, Transition::Firing);
        assert_eq!(eng.firing_count(), 1);
        // Heal.  Fast window (5 ticks) still holds outage ticks for a
        // while; violation clears once the fast burn drops below 2x, then
        // three clear ticks resolve.
        let mut resolved_at = None;
        for t in 12..40 {
            let ev = eng.observe_tick(t, &tick_feed(10.0, 0.0), &no_exemplar);
            if let Some(e) = ev.first() {
                assert_eq!(e.transition, Transition::Resolved);
                resolved_at = Some(t);
                break;
            }
        }
        let resolved_at = resolved_at.expect("alert resolves after heal");
        assert!(resolved_at >= 14, "hysteresis holds at least resolve_ticks");
        assert_eq!(eng.firing_count(), 0);
        assert_eq!(eng.events().len(), 3);
    }

    #[test]
    fn pending_that_heals_never_fires() {
        let mut eng = HealthEngine::new(one_slo());
        for t in 0..10 {
            eng.observe_tick(t, &tick_feed(10.0, 0.0), &no_exemplar);
        }
        let ev = eng.observe_tick(10, &tick_feed(0.0, 10.0), &no_exemplar);
        assert_eq!(ev[0].transition, Transition::Pending);
        // One blip only — drops straight back to Ok with no event.  The
        // fast window still carries the blip, but a single bad tick out of
        // five good ones (2/6 of budget-relative burn…) — force clarity by
        // feeding overwhelming good traffic.
        for t in 11..30 {
            let ev = eng.observe_tick(t, &tick_feed(10_000.0, 0.0), &no_exemplar);
            assert!(ev.is_empty(), "no Firing, no Resolved after a cleared Pending");
        }
        assert_eq!(eng.events().len(), 1);
    }

    #[test]
    fn total_feeds_are_diffed() {
        let mut eng = HealthEngine::new(HealthConfig::default().slo(SloSpec {
            pending_ticks: 1,
            resolve_ticks: 1,
            fast_burn: 1.0,
            ..SloSpec::new("x", Subsystem::Transport, "t", 0.9)
        }));
        // Lifetime totals: 100 good always, bad jumps 0 → 50 at tick 3.
        for t in 0..3 {
            let ev = eng.observe_tick(
                t,
                &[("t", FeedValue::Total { good: 100.0 + t as f64, bad: 0.0 })],
                &no_exemplar,
            );
            assert!(ev.is_empty());
        }
        let ev = eng.observe_tick(
            3,
            &[("t", FeedValue::Total { good: 103.0, bad: 50.0 })],
            &no_exemplar,
        );
        // pending_ticks=1 → Pending and Firing the same tick.
        assert_eq!(ev.len(), 2);
        assert_eq!(ev[0].transition, Transition::Pending);
        assert_eq!(ev[1].transition, Transition::Firing);
    }

    #[test]
    fn silences_mark_but_do_not_suppress_recording() {
        let cfg =
            one_slo().silence(Silence { key: "store/*".into(), from_tick: 0, until_tick: 100 });
        let mut eng = HealthEngine::new(cfg);
        for t in 0..5 {
            eng.observe_tick(t, &tick_feed(10.0, 0.0), &no_exemplar);
        }
        let ev = eng.observe_tick(5, &tick_feed(0.0, 10.0), &no_exemplar);
        assert_eq!(ev.len(), 1);
        assert!(ev[0].silenced);
        assert_eq!(eng.events().len(), 1, "silenced events still recorded");
    }

    #[test]
    fn snapshot_restore_is_exact() {
        let mut eng = HealthEngine::new(one_slo());
        for t in 0..10 {
            eng.observe_tick(t, &tick_feed(10.0, 0.0), &no_exemplar);
        }
        eng.observe_tick(10, &tick_feed(0.0, 10.0), &no_exemplar);
        eng.observe_tick(11, &tick_feed(0.0, 10.0), &no_exemplar);
        let snap = eng.snapshot();
        let digest = eng.state_digest();
        let timeline = eng.canonical_timeline();

        // Diverge, then restore: digest and timeline must match exactly.
        eng.observe_tick(12, &tick_feed(10.0, 0.0), &no_exemplar);
        assert_ne!(eng.state_digest(), digest);
        eng.restore(&snap);
        assert_eq!(eng.state_digest(), digest);
        assert_eq!(eng.canonical_timeline(), timeline);

        // And the restored engine evolves identically to a never-diverged
        // one.
        let mut fresh = HealthEngine::new(one_slo());
        fresh.restore(&snap);
        for t in 12..30 {
            let a = eng.observe_tick(t, &tick_feed(10.0, 0.0), &no_exemplar);
            let b = fresh.observe_tick(t, &tick_feed(10.0, 0.0), &no_exemplar);
            assert_eq!(a, b);
        }
        assert_eq!(eng.state_digest(), fresh.state_digest());
    }

    #[test]
    fn canonical_timeline_zeroes_exemplars() {
        let mut eng = HealthEngine::new(one_slo());
        for t in 0..5 {
            eng.observe_tick(t, &tick_feed(10.0, 0.0), &no_exemplar);
        }
        eng.observe_tick(5, &tick_feed(0.0, 10.0), &|_| 0xDEAD);
        eng.observe_tick(6, &tick_feed(0.0, 10.0), &|_| 0xDEAD);
        let firing = eng.events().iter().find(|e| e.transition == Transition::Firing).unwrap();
        assert_eq!(firing.exemplar_trace, 0xDEAD, "live event keeps the exemplar");
        assert!(
            !eng.canonical_timeline().contains("57005"),
            "canonical timeline zeroes exemplar ids"
        );
    }

    #[test]
    fn report_grades_worst_of() {
        let cfg = HealthConfig::default()
            .slo(
                SloSpec {
                    pending_ticks: 1,
                    ..SloSpec::new("ingest", Subsystem::Store, "s", 0.999)
                }
                .severity(Severity::Error),
            )
            .slo(
                SloSpec {
                    pending_ticks: 10,
                    ..SloSpec::new("coverage", Subsystem::Collect, "c", 0.99)
                }
                .severity(Severity::Warning),
            );
        let mut eng = HealthEngine::new(cfg);
        eng.observe_tick(
            0,
            &[
                ("s", FeedValue::Tick { good: 0.0, bad: 5.0 }),
                ("c", FeedValue::Tick { good: 0.0, bad: 5.0 }),
            ],
            &no_exemplar,
        );
        let rep = eng.report(0);
        let store = rep.subsystems.iter().find(|s| s.subsystem == Subsystem::Store).unwrap();
        assert_eq!(store.grade, Grade::Critical, "Error-severity firing is Critical");
        assert_eq!(store.firing, 1);
        let collect = rep.subsystems.iter().find(|s| s.subsystem == Subsystem::Collect).unwrap();
        assert_eq!(collect.grade, Grade::Degraded, "Pending is Degraded");
        assert_eq!(collect.pending, 1);
        let gw = rep.subsystems.iter().find(|s| s.subsystem == Subsystem::Gateway).unwrap();
        assert_eq!(gw.grade, Grade::Healthy);
        assert_eq!(rep.active.len(), 2);
        assert!(rep.active[0].firing, "firing sorts first");
    }
}
