//! The flight recorder: a fixed-capacity ring of recent protocol
//! events per site, dumped as a readable timeline when something goes
//! wrong (crash injection, atomicity violation).

use crate::event::TraceEvent;
use qbc_simnet::SiteId;
use std::collections::{BTreeMap, VecDeque};
use std::fmt::Write as _;

/// Per-site rings of the last `capacity` events.
#[derive(Debug, Default)]
pub(crate) struct FlightRecorder {
    capacity: usize,
    rings: BTreeMap<SiteId, VecDeque<TraceEvent>>,
}

impl FlightRecorder {
    pub(crate) fn new(capacity: usize) -> Self {
        FlightRecorder {
            capacity: capacity.max(1),
            rings: BTreeMap::new(),
        }
    }

    pub(crate) fn push(&mut self, ev: TraceEvent) {
        let ring = self.rings.entry(ev.site).or_default();
        if ring.len() == self.capacity {
            ring.pop_front();
        }
        ring.push_back(ev);
    }

    /// All retained events, merged across sites in time order (ties
    /// broken by site id, then per-site arrival order).
    pub(crate) fn events(&self) -> Vec<TraceEvent> {
        let mut all: Vec<TraceEvent> = self.rings.values().flatten().copied().collect();
        all.sort_by_key(|e| (e.at, e.site));
        all
    }

    /// Renders the dump: a header with the reason, then one section per
    /// site with its retained timeline.
    pub(crate) fn dump(&self, reason: &str) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "=== qbc-obs flight recorder ===");
        let _ = writeln!(out, "reason: {reason}");
        let total: usize = self.rings.values().map(|r| r.len()).sum();
        let _ = writeln!(
            out,
            "events retained: {total} across {} sites",
            self.rings.len()
        );
        for (site, ring) in &self.rings {
            let _ = writeln!(out, "--- site {} (last {} events) ---", site.0, ring.len());
            for ev in ring {
                let _ = writeln!(out, "{ev}");
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventKind;
    use qbc_core::TxnId;
    use qbc_simnet::Time;

    fn ev(at: u64, site: u32, kind: EventKind) -> TraceEvent {
        TraceEvent {
            at: Time(at),
            site: SiteId(site),
            txn: Some(TxnId(1)),
            kind,
        }
    }

    #[test]
    fn ring_keeps_only_the_last_n_per_site() {
        let mut fr = FlightRecorder::new(3);
        for t in 0..10 {
            fr.push(ev(t, 0, EventKind::VoteReqOut));
        }
        fr.push(ev(99, 1, EventKind::Crash));
        let evs = fr.events();
        assert_eq!(evs.len(), 4);
        assert_eq!(evs[0].at, Time(7)); // oldest surviving site-0 event
        assert_eq!(evs[3].kind, EventKind::Crash);
    }

    #[test]
    fn dump_has_header_and_per_site_sections() {
        let mut fr = FlightRecorder::new(8);
        fr.push(ev(5, 0, EventKind::VoteReqOut));
        fr.push(ev(6, 2, EventKind::VoteOut { yes: true }));
        let d = fr.dump("unit-test");
        assert!(d.contains("reason: unit-test"), "{d}");
        assert!(d.contains("--- site 0"), "{d}");
        assert!(d.contains("--- site 2"), "{d}");
        assert!(d.contains("vote-req-out"), "{d}");
    }
}
