//! Per-consumer access control for alerts and analysis results.
//!
//! Paper §V: "Tools are often developed by/for administrators with root
//! access and ubiquitous 'need to know'.  Adding infrastructure to control
//! information access per user is often impractical and hence information
//! that might be of tremendous benefit in answering users' burning
//! question(s) cannot be shared with them."
//!
//! Here the control is built in rather than bolted on: every consumer has
//! a [`Role`], and [`AccessPolicy`] decides what each consumer
//! may see.  Admins see everything; users see system-level signals and
//! anything about their own jobs, never other users' job details.

use crate::signal::Signal;
use hpcmon_metrics::{CompKind, JobRecord, SeriesKey};
use serde::{Deserialize, Serialize};

/// Who a consumer is.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Role {
    /// Operations staff: unrestricted.
    Admin,
    /// An end user: own jobs + system-level signals only.
    User(String),
}

/// A registered consumer of alerts/results.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Consumer {
    /// Display name (e.g. "ops-pager", "alice's portal").
    pub name: String,
    /// Access role.
    pub role: Role,
}

impl Consumer {
    /// An admin consumer.
    pub fn admin(name: &str) -> Consumer {
        Consumer { name: name.to_owned(), role: Role::Admin }
    }

    /// A user consumer.
    pub fn user(name: &str, user: &str) -> Consumer {
        Consumer { name: name.to_owned(), role: Role::User(user.to_owned()) }
    }
}

/// The visibility policy.
#[derive(Debug, Clone, Copy, Default)]
pub struct AccessPolicy;

impl AccessPolicy {
    /// Whether `consumer` may see `signal`.
    pub(crate) fn visible(&self, consumer: &Consumer, signal: &Signal) -> bool {
        match &consumer.role {
            Role::Admin => true,
            Role::User(user) => {
                // A user sees their own job's signals...
                if signal.user.as_deref() == Some(user.as_str()) {
                    return true;
                }
                // ...and system-scope conditions that affect everyone,
                // but only if not attributed to someone else's job.
                signal.user.is_none()
                    && matches!(signal.comp.kind, CompKind::System | CompKind::Environment)
            }
        }
    }

    /// Filter a batch of signals for one consumer.
    pub fn filter<'a>(&self, consumer: &Consumer, signals: &'a [Signal]) -> Vec<&'a Signal> {
        signals.iter().filter(|s| self.visible(consumer, s)).collect()
    }

    /// Data-level scoping: whether `consumer` may read the raw series `key`,
    /// given the scheduler's job view.  Admins read everything.  A user
    /// reads system/environment-scope series, series on nodes inside their
    /// own jobs' allocations, and their own jobs' per-job series — never
    /// other users' nodes or jobs, and never infrastructure internals
    /// (routers, links, filesystem servers, ...).
    pub fn series_visible(&self, consumer: &Consumer, key: &SeriesKey, jobs: &[JobRecord]) -> bool {
        match &consumer.role {
            Role::Admin => true,
            Role::User(user) => match key.comp.kind {
                CompKind::System | CompKind::Environment => true,
                CompKind::Node => {
                    jobs.iter().any(|j| j.user == *user && j.nodes.contains(&key.comp.index))
                }
                CompKind::Job => jobs.iter().any(|j| j.user == *user && j.id.0 == key.comp.index),
                _ => false,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::signal::SignalKind;
    use hpcmon_metrics::{CompId, Severity, Ts};

    fn sys_signal() -> Signal {
        Signal::new(
            Ts(0),
            SignalKind::Congestion,
            Severity::Warning,
            CompId::SYSTEM,
            1.0,
            "network busy",
        )
    }

    fn job_signal(user: &str) -> Signal {
        Signal::new(
            Ts(0),
            SignalKind::PowerAnomaly,
            Severity::Warning,
            CompId::job(3),
            1.0,
            "imbalance in your job",
        )
        .with_user(user)
    }

    fn node_signal() -> Signal {
        Signal::new(
            Ts(0),
            SignalKind::HealthCheckFailure,
            Severity::Error,
            CompId::node(5),
            1.0,
            "node sick",
        )
    }

    #[test]
    fn admin_sees_everything() {
        let p = AccessPolicy;
        let admin = Consumer::admin("ops");
        for s in [sys_signal(), job_signal("alice"), node_signal()] {
            assert!(p.visible(&admin, &s));
        }
    }

    #[test]
    fn user_sees_own_job_and_system_only() {
        let p = AccessPolicy;
        let alice = Consumer::user("alice-portal", "alice");
        assert!(p.visible(&alice, &job_signal("alice")));
        assert!(!p.visible(&alice, &job_signal("bob")), "not other users' jobs");
        assert!(p.visible(&alice, &sys_signal()), "system scope is public");
        assert!(!p.visible(&alice, &node_signal()), "node internals are ops-only");
    }

    #[test]
    fn environment_is_public() {
        let p = AccessPolicy;
        let alice = Consumer::user("alice-portal", "alice");
        let env = Signal::new(
            Ts(0),
            SignalKind::EnvironmentViolation,
            Severity::Warning,
            CompId::ENVIRONMENT,
            1.0,
            "gas above ASHRAE",
        );
        assert!(p.visible(&alice, &env));
    }

    #[test]
    fn filter_batches() {
        let p = AccessPolicy;
        let alice = Consumer::user("alice-portal", "alice");
        let signals = vec![sys_signal(), job_signal("alice"), job_signal("bob"), node_signal()];
        let visible = p.filter(&alice, &signals);
        assert_eq!(visible.len(), 2);
    }

    #[test]
    fn series_visibility_scopes_to_job_allocations() {
        use hpcmon_metrics::{JobId, MetricId, SeriesKey};
        let p = AccessPolicy;
        let jobs = vec![
            JobRecord::submitted(JobId(3), "alice", "sim", vec![5, 6], Ts(0)),
            JobRecord::submitted(JobId(4), "bob", "ml", vec![7], Ts(0)),
        ];
        let key = |comp| SeriesKey::new(MetricId(0), comp);
        let admin = Consumer::admin("ops");
        let alice = Consumer::user("alice-portal", "alice");

        // Admin reads everything, including infrastructure internals.
        for comp in [CompId::SYSTEM, CompId::node(7), CompId::job(4), CompId::router(1)] {
            assert!(p.series_visible(&admin, &key(comp), &jobs));
        }

        // System/environment scope is public.
        assert!(p.series_visible(&alice, &key(CompId::SYSTEM), &jobs));
        assert!(p.series_visible(&alice, &key(CompId::ENVIRONMENT), &jobs));

        // Own allocation's nodes and own job series: yes.
        assert!(p.series_visible(&alice, &key(CompId::node(5)), &jobs));
        assert!(p.series_visible(&alice, &key(CompId::node(6)), &jobs));
        assert!(p.series_visible(&alice, &key(CompId::job(3)), &jobs));

        // Foreign job's node/job series and unallocated nodes: no.
        assert!(!p.series_visible(&alice, &key(CompId::node(7)), &jobs), "bob's node");
        assert!(!p.series_visible(&alice, &key(CompId::job(4)), &jobs), "bob's job");
        assert!(!p.series_visible(&alice, &key(CompId::node(9)), &jobs), "idle node");

        // Infrastructure internals stay ops-only even for job owners.
        assert!(!p.series_visible(&alice, &key(CompId::router(1)), &jobs));
    }
}
