//! The simulated WAN link: a latency/bandwidth-shaped queue of in-transit
//! rollup batches between a member site and the federation head.
//!
//! Everything is denominated in federation ticks.  A batch enqueued at
//! tick `T` on a link with effective one-way latency `L` becomes *due* at
//! `T + L`; each tick the link delivers due batches in order, subject to
//! the effective bandwidth cap (static spec ∧ chaos squeeze) and blocked
//! entirely while the link is partitioned.  The backlog is bounded:
//! overflow evicts the oldest batch — counted and traced, never silent.

use crate::config::WanLinkSpec;
use hpcmon_metrics::ColumnFrame;
use std::collections::VecDeque;
use std::sync::Arc;

/// One rollup batch crossing the WAN.
#[derive(Debug, Clone)]
pub struct InTransit {
    /// First tick the batch may be delivered.
    pub due_at: u64,
    /// Metered size, bytes — what the bandwidth cap counts (see [`WanLink`]).
    pub bytes: u64,
    /// The rollup frame itself.
    pub frame: Arc<ColumnFrame>,
}

/// Send-side state of one site's WAN link.
///
/// Bandwidth is metered in bytes of a packed columnar form: each batch is
/// charged `wire_bytes` of its [`ColumnFrame`].
#[derive(Debug)]
pub struct WanLink {
    spec: WanLinkSpec,
    backlog: VecDeque<InTransit>,
    /// Batches evicted by backlog overflow (lifetime).
    dropped: u64,
}

/// A frame's size packed for the wire: its stamp and sample count (8 + 4
/// bytes), then per sample a key of metric id, component kind and index
/// (4 + 1 + 4 bytes) and an 8-byte value.  A six-sample rollup is 114
/// bytes.
pub(crate) fn wire_bytes(frame: &ColumnFrame) -> u64 {
    12 + 17 * frame.len() as u64
}

impl WanLink {
    /// A quiet link with the given static parameters.
    pub(crate) fn new(spec: WanLinkSpec) -> WanLink {
        WanLink { spec, backlog: VecDeque::new(), dropped: 0 }
    }

    /// Base one-way latency in ticks.
    pub(crate) fn latency_ticks(&self) -> u64 {
        self.spec.latency_ticks
    }

    /// Enqueue a batch sent at `tick` with `added_latency` extra one-way
    /// ticks (from a chaos delay window), metered at [`wire_bytes`].
    /// Returns the batch evicted to make room, if the bounded backlog
    /// overflowed.
    pub(crate) fn enqueue(
        &mut self,
        tick: u64,
        added_latency: u64,
        frame: Arc<ColumnFrame>,
    ) -> Option<InTransit> {
        let bytes = wire_bytes(&frame);
        let due_at = tick + self.spec.latency_ticks + added_latency;
        let evicted = if self.backlog.len() >= self.spec.max_backlog.max(1) {
            self.dropped += 1;
            self.backlog.pop_front()
        } else {
            None
        };
        self.backlog.push_back(InTransit { due_at, bytes, frame });
        evicted
    }

    /// Deliver the batches due at `tick`, in order, under the effective
    /// bandwidth cap (`chaos_cap` ∧ the static spec; the head-of-line
    /// batch always goes through so a cap below one batch size delays
    /// rather than wedges).  `partitioned` blocks delivery entirely.
    pub(crate) fn deliver_due(
        &mut self,
        tick: u64,
        partitioned: bool,
        chaos_cap: Option<u64>,
    ) -> Vec<InTransit> {
        if partitioned {
            return Vec::new();
        }
        let cap = match (self.spec.bandwidth_bytes_per_tick, chaos_cap) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (Some(a), None) => Some(a),
            (None, b) => b,
        };
        let mut out = Vec::new();
        let mut used = 0u64;
        while let Some(front) = self.backlog.front() {
            if front.due_at > tick {
                break;
            }
            if let Some(cap) = cap {
                if used > 0 && used + front.bytes > cap {
                    break;
                }
            }
            let batch = self.backlog.pop_front().expect("front checked above");
            used += batch.bytes;
            out.push(batch);
        }
        out
    }

    /// Batches currently queued on the link.
    pub(crate) fn backlog_len(&self) -> usize {
        self.backlog.len()
    }

    /// Batches evicted by backlog overflow so far.
    pub(crate) fn dropped(&self) -> u64 {
        self.dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpcmon_metrics::Ts;

    fn frame(n: u64) -> Arc<ColumnFrame> {
        Arc::new(ColumnFrame::new(Ts(n)))
    }

    #[test]
    fn latency_holds_then_delivers_in_order() {
        let mut link = WanLink::new(WanLinkSpec { latency_ticks: 2, ..Default::default() });
        link.enqueue(1, 0, frame(1));
        link.enqueue(2, 0, frame(2));
        assert!(link.deliver_due(2, false, None).is_empty());
        let due = link.deliver_due(3, false, None);
        assert_eq!(due.len(), 1);
        assert_eq!(due[0].frame.ts, Ts(1));
        let due = link.deliver_due(4, false, None);
        assert_eq!(due.len(), 1);
        assert_eq!(due[0].frame.ts, Ts(2));
        assert_eq!(link.backlog_len(), 0);
    }

    #[test]
    fn partition_blocks_then_drains() {
        let mut link = WanLink::new(WanLinkSpec { latency_ticks: 1, ..Default::default() });
        link.enqueue(1, 0, frame(1));
        link.enqueue(2, 0, frame(2));
        assert!(link.deliver_due(3, true, None).is_empty(), "partitioned");
        assert_eq!(link.backlog_len(), 2);
        assert_eq!(link.deliver_due(4, false, None).len(), 2, "drains after heal");
    }

    #[test]
    fn bandwidth_cap_spreads_delivery_but_never_wedges() {
        let mut link = WanLink::new(WanLinkSpec { latency_ticks: 0, ..Default::default() });
        for i in 0..3 {
            link.enqueue(1, 0, frame(i));
        }
        let batch = wire_bytes(&frame(0));
        // Cap below one batch: exactly the head-of-line batch per tick.
        assert_eq!(link.deliver_due(1, false, Some(batch - 1)).len(), 1);
        // Cap fitting two: two go through.
        assert_eq!(link.deliver_due(2, false, Some(2 * batch)).len(), 2);
        assert_eq!(link.backlog_len(), 0);
    }

    #[test]
    fn overflow_evicts_oldest() {
        let mut link = WanLink::new(WanLinkSpec { max_backlog: 2, ..Default::default() });
        assert!(link.enqueue(1, 0, frame(1)).is_none());
        assert!(link.enqueue(1, 0, frame(2)).is_none());
        let evicted = link.enqueue(1, 0, frame(3)).expect("overflow");
        assert_eq!(evicted.frame.ts, Ts(1), "oldest goes first");
        assert_eq!(link.dropped(), 1);
        assert_eq!(link.backlog_len(), 2);
    }

    #[test]
    fn chaos_delay_pushes_due_tick() {
        let mut link = WanLink::new(WanLinkSpec { latency_ticks: 1, ..Default::default() });
        link.enqueue(1, 3, frame(1));
        assert!(link.deliver_due(2, false, None).is_empty());
        assert!(link.deliver_due(4, false, None).is_empty());
        assert_eq!(link.deliver_due(5, false, None).len(), 1);
    }
}
