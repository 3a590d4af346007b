//! Blocking-window and pin-time accounting — the paper's headline
//! quantities.
//!
//! *Pin time* is the virtual-time span one item copy is X-locked by an
//! undecided transaction (vote cast → decision applied at that site).
//! *Read unavailability* is the span during which the live, unpinned
//! copies of an item muster fewer than `r(x)` votes, so a Gifford
//! quorum read would return `Unavailable`. A *blocked window* is the
//! per-site span between the termination protocol declaring a
//! transaction blocked and the decision finally arriving — the
//! operator-facing cost of the blocking effect under coordinator
//! failure.

use crate::hist::LatencyHistogram;
use qbc_core::TxnId;
use qbc_simnet::{SiteId, Time};
use qbc_votes::ItemId;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// One closed (or still-open) span of read unavailability.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Window {
    /// When the item's available votes dropped below `r(x)`.
    pub from: Time,
    /// When a read quorum became available again (`None` while open).
    pub until: Option<Time>,
}

impl Window {
    /// Length of the window, measured to `now` while still open.
    pub fn length(&self, now: Time) -> qbc_simnet::Duration {
        self.until.unwrap_or(now).since(self.from)
    }
}

#[derive(Clone, Debug)]
struct ItemState {
    /// Each copy site's votes: the catalog's placement, shared.
    copies: Arc<BTreeMap<SiteId, u32>>,
    read_quorum: u32,
    /// Live pins: which transaction holds the copy at each site, and
    /// since when.
    pinned: BTreeMap<SiteId, (TxnId, Time)>,
    open: Option<Time>,
    windows: Vec<Window>,
}

impl ItemState {
    fn available_votes(&self, down: &BTreeSet<SiteId>) -> u32 {
        self.copies
            .iter()
            .filter(|&(s, _)| !down.contains(s) && !self.pinned.contains_key(s))
            .map(|(_, w)| w)
            .sum()
    }

    fn reevaluate(&mut self, now: Time, down: &BTreeSet<SiteId>) {
        let ok = self.available_votes(down) >= self.read_quorum;
        match (ok, self.open) {
            (false, None) => self.open = Some(now),
            (true, Some(from)) => {
                self.windows.push(Window {
                    from,
                    until: Some(now),
                });
                self.open = None;
            }
            _ => {}
        }
    }
}

/// Tracks copy pins, site liveness, and the derived per-item
/// unavailability windows and per-transaction blocked windows.
#[derive(Debug, Default)]
pub(crate) struct BlockingTracker {
    items: BTreeMap<ItemId, ItemState>,
    down: BTreeSet<SiteId>,
    /// When each (site, txn) was first declared blocked.
    blocked_since: BTreeMap<(SiteId, TxnId), Time>,
    pub(crate) pin_time: LatencyHistogram,
    pub(crate) blocked_window: LatencyHistogram,
}

impl BlockingTracker {
    /// Registers `(item, copies, read quorum)` shapes; an item already
    /// registered keeps its first shape. Built apart and merged, so an
    /// id-sorted batch costs one pass, not one tree descent per item.
    pub(crate) fn register_items(
        &mut self,
        items: impl IntoIterator<Item = (ItemId, Arc<BTreeMap<SiteId, u32>>, u32)>,
    ) {
        let mut fresh: BTreeMap<ItemId, ItemState> = items
            .into_iter()
            .map(|(item, copies, read_quorum)| {
                let st = ItemState {
                    copies,
                    read_quorum,
                    pinned: BTreeMap::new(),
                    open: None,
                    windows: Vec::new(),
                };
                (item, st)
            })
            .collect();
        fresh.append(&mut self.items);
        self.items = fresh;
    }

    pub(crate) fn pin_start(&mut self, now: Time, site: SiteId, txn: TxnId, item: ItemId) {
        let down = &self.down;
        if let Some(st) = self.items.get_mut(&item) {
            st.pinned.insert(site, (txn, now));
            st.reevaluate(now, down);
        }
    }

    pub(crate) fn pin_end(&mut self, now: Time, site: SiteId, item: ItemId) {
        let down = &self.down;
        if let Some(st) = self.items.get_mut(&item) {
            if let Some((_, since)) = st.pinned.remove(&site) {
                self.pin_time.record(now.since(since));
                st.reevaluate(now, down);
            }
        }
    }

    pub(crate) fn crash(&mut self, now: Time, site: SiteId) {
        self.down.insert(site);
        // A crash wipes the site's lock table: its pins evaporate
        // (without contributing pin-time — the copy is simply gone
        // until recovery re-pins it from the WAL).
        let down = &self.down;
        for st in self.items.values_mut() {
            st.pinned.remove(&site);
            st.reevaluate(now, down);
        }
        // Volatile blocked state is also gone.
        self.blocked_since.retain(|(s, _), _| *s != site);
    }

    pub(crate) fn recover(&mut self, now: Time, site: SiteId) {
        self.down.remove(&site);
        let down = &self.down;
        for st in self.items.values_mut() {
            st.reevaluate(now, down);
        }
    }

    pub(crate) fn blocked(&mut self, now: Time, site: SiteId, txn: TxnId) {
        self.blocked_since.entry((site, txn)).or_insert(now);
    }

    pub(crate) fn decided(&mut self, now: Time, site: SiteId, txn: TxnId) {
        if let Some(since) = self.blocked_since.remove(&(site, txn)) {
            self.blocked_window.record(now.since(since));
        }
    }

    /// Count of *closed* unavailability windows plus currently open ones.
    pub(crate) fn window_count(&self) -> u64 {
        self.items
            .values()
            .map(|s| s.windows.len() as u64 + u64::from(s.open.is_some()))
            .sum()
    }

    /// Total unavailable ticks across items, open windows measured to
    /// `now`.
    pub(crate) fn unavailable_total(&self, now: Time) -> u64 {
        self.items
            .values()
            .map(|s| {
                s.windows.iter().map(|w| w.length(now).0).sum::<u64>()
                    + s.open.map_or(0, |from| now.since(from).0)
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tracker() -> BlockingTracker {
        let mut t = BlockingTracker::default();
        // Item 0: three single-vote copies, r = 2.
        let copies = [(SiteId(0), 1), (SiteId(1), 1), (SiteId(2), 1)];
        t.register_items([(ItemId(0), Arc::new(BTreeMap::from(copies)), 2)]);
        t
    }

    #[test]
    fn window_opens_when_pins_break_the_read_quorum() {
        let mut t = tracker();
        t.pin_start(Time(10), SiteId(0), TxnId(1), ItemId(0));
        assert_eq!(t.unavailable_total(Time(20)), 0); // 2 of 3 free: r met
        t.pin_start(Time(20), SiteId(1), TxnId(1), ItemId(0));
        assert_eq!(t.window_count(), 1); // 1 of 3 free: r broken
        t.pin_end(Time(50), SiteId(1), ItemId(0));
        t.pin_end(Time(55), SiteId(0), ItemId(0));
        assert_eq!(t.unavailable_total(Time(100)), 30); // [20, 50)
        assert_eq!(t.window_count(), 1);
        assert_eq!(
            t.items[&ItemId(0)].windows,
            vec![Window {
                from: Time(20),
                until: Some(Time(50))
            }]
        );
    }

    #[test]
    fn crash_counts_as_unavailable_copy_and_drops_pins() {
        let mut t = tracker();
        t.pin_start(Time(5), SiteId(1), TxnId(1), ItemId(0));
        t.crash(Time(10), SiteId(0)); // down copy + pinned copy: 1 vote left
        assert_eq!(t.window_count(), 1);
        t.recover(Time(40), SiteId(0));
        // Site 1 still pinned: 2 of 3 available, quorum restored.
        assert_eq!(t.unavailable_total(Time(40)), 30);
        // The crashed site's own pin would have been dropped silently.
        assert_eq!(t.pin_time.count(), 0);
        t.pin_end(Time(41), SiteId(1), ItemId(0));
        assert_eq!(t.pin_time.count(), 1);
    }

    #[test]
    fn blocked_windows_measure_declare_to_decide() {
        let mut t = tracker();
        t.blocked(Time(100), SiteId(1), TxnId(7));
        t.blocked(Time(120), SiteId(1), TxnId(7)); // re-declare keeps the first
        t.decided(Time(400), SiteId(1), TxnId(7));
        assert_eq!(t.blocked_window.count(), 1);
        assert_eq!(t.blocked_window.max(), qbc_simnet::Duration(300));
        // A decision without a prior blocked declaration records nothing.
        t.decided(Time(500), SiteId(2), TxnId(8));
        assert_eq!(t.blocked_window.count(), 1);
    }

    #[test]
    fn unmatched_pin_end_is_ignored() {
        let mut t = tracker();
        t.pin_end(Time(5), SiteId(0), ItemId(0));
        assert_eq!(t.pin_time.count(), 0);
        assert_eq!(t.window_count(), 0);
    }
}
