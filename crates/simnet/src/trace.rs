//! Simulation traces and network statistics.
//!
//! Every externally observable event of a run is appended to a trace:
//! sends, deliveries, drops (with reason), timer firings and the faults
//! that applied. Experiments derive message counts and
//! timing series from the trace; tests use it to assert on schedules.

use crate::ids::SiteId;
use crate::sim::Fault;
use crate::time::Time;
use crate::topology::DropReason;
use std::collections::BTreeMap;
use std::fmt;

/// One observable event of a simulation run.
#[derive(Clone, Debug, PartialEq)]
#[allow(missing_docs)] // variant fields are self-describing
pub enum TraceEvent {
    /// A message was handed to the network.
    Sent {
        at: Time,
        from: SiteId,
        to: SiteId,
        label: &'static str,
    },
    /// A message reached its destination and was processed.
    Delivered {
        at: Time,
        from: SiteId,
        to: SiteId,
        label: &'static str,
    },
    /// A message was dropped.
    Dropped {
        at: Time,
        from: SiteId,
        to: SiteId,
        label: &'static str,
        reason: DropReason,
    },
    /// A timer fired at a site.
    TimerFired { at: Time, site: SiteId },
    /// A scheduled fault applied. A crash of a down site or a recovery
    /// of an up one does not apply and is not recorded.
    Fault { at: Time, fault: Fault },
}

impl TraceEvent {
    /// Virtual time at which the event occurred.
    pub fn at(&self) -> Time {
        match self {
            TraceEvent::Sent { at, .. }
            | TraceEvent::Delivered { at, .. }
            | TraceEvent::Dropped { at, .. }
            | TraceEvent::TimerFired { at, .. }
            | TraceEvent::Fault { at, .. } => *at,
        }
    }
}

/// Aggregate network statistics for a run.
#[derive(Clone, Debug, Default)]
pub struct NetStats {
    /// Messages handed to the network.
    pub sent: u64,
    /// Messages delivered to a live process.
    pub delivered: u64,
    /// Messages dropped because sender and receiver were partitioned.
    pub dropped_partitioned: u64,
    /// Messages dropped by an adversarial link block.
    pub dropped_link_blocked: u64,
    /// Messages dropped by random loss.
    pub dropped_random_loss: u64,
    /// Messages dropped because the receiver was crashed.
    pub dropped_receiver_down: u64,
    /// Messages dropped because the sender was crashed.
    pub dropped_sender_down: u64,
    /// Per-label `(label, sent, delivered)` counters. A message
    /// vocabulary has a dozen-odd labels, all `'static` literals, so a
    /// linear scan with a pointer-equality fast path beats a map on the
    /// per-message path (this is bumped twice per delivered message).
    by_label: Vec<(&'static str, u64, u64)>,
    /// Timers fired.
    pub timers_fired: u64,
}

impl NetStats {
    /// Index of the label's counter slot, appending one if new.
    fn label_slot(&mut self, label: &'static str) -> usize {
        if let Some(i) = self
            .by_label
            .iter()
            .position(|&(l, _, _)| std::ptr::eq(l, label) || l == label)
        {
            i
        } else {
            self.by_label.push((label, 0, 0));
            self.by_label.len() - 1
        }
    }

    pub(crate) fn record_sent(&mut self, label: &'static str) {
        self.sent += 1;
        let i = self.label_slot(label);
        self.by_label[i].1 += 1;
    }

    pub(crate) fn record_delivered(&mut self, label: &'static str) {
        self.delivered += 1;
        let i = self.label_slot(label);
        self.by_label[i].2 += 1;
    }

    /// Deliveries per message label, in label order.
    pub fn delivered_by_label(&self) -> BTreeMap<&'static str, u64> {
        self.by_label
            .iter()
            .filter(|&&(_, _, d)| d > 0)
            .map(|&(l, _, d)| (l, d))
            .collect()
    }

    pub(crate) fn record_dropped(&mut self, reason: DropReason) {
        match reason {
            DropReason::Partitioned => self.dropped_partitioned += 1,
            DropReason::LinkBlocked => self.dropped_link_blocked += 1,
            DropReason::RandomLoss => self.dropped_random_loss += 1,
            DropReason::ReceiverDown => self.dropped_receiver_down += 1,
            DropReason::SenderDown => self.dropped_sender_down += 1,
        }
    }

    /// Total number of dropped messages across all reasons.
    pub fn dropped_total(&self) -> u64 {
        self.dropped_partitioned
            + self.dropped_link_blocked
            + self.dropped_random_loss
            + self.dropped_receiver_down
            + self.dropped_sender_down
    }
}

impl fmt::Display for NetStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "sent={} delivered={} dropped={} (partition={} link={} loss={} rx-down={} tx-down={}) timers={}",
            self.sent,
            self.delivered,
            self.dropped_total(),
            self.dropped_partitioned,
            self.dropped_link_blocked,
            self.dropped_random_loss,
            self.dropped_receiver_down,
            self.dropped_sender_down,
            self.timers_fired,
        )?;
        for (label, n) in self.delivered_by_label() {
            writeln!(f, "  {label}: {n} delivered")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_accumulate_by_label() {
        let mut s = NetStats::default();
        s.record_sent("VOTE-REQ");
        s.record_sent("VOTE-REQ");
        s.record_delivered("VOTE-REQ");
        s.record_dropped(DropReason::Partitioned);
        s.record_dropped(DropReason::RandomLoss);
        assert_eq!(s.sent, 2);
        assert_eq!(s.delivered, 1);
        assert_eq!(s.dropped_total(), 2);
        assert_eq!(s.delivered_by_label()["VOTE-REQ"], 1);
    }

    #[test]
    fn trace_event_time_accessor() {
        let e = TraceEvent::Fault {
            at: Time(9),
            fault: Fault::Crash(SiteId(2)),
        };
        assert_eq!(e.at(), Time(9));
        let e = TraceEvent::TimerFired {
            at: Time(4),
            site: SiteId(0),
        };
        assert_eq!(e.at(), Time(4));
    }

    #[test]
    fn display_is_humane() {
        let mut s = NetStats::default();
        s.record_sent("X");
        s.record_delivered("X");
        let text = s.to_string();
        assert!(text.contains("sent=1"));
        assert!(text.contains("X: 1 delivered"));
    }
}
