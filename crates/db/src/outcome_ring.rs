//! The retired outcomes of one kind, sorted by transaction id: the one
//! order [`TxnTable`](crate::txn_table::TxnTable) serves lookups, aging,
//! the checkpoint and the fingerprint from.
//!
//! Ids come from counters, so outcomes retire nearly in id order: an
//! insert scans back a few slots from the tail, and the hot lookup — a
//! straggler asking about an id newer than any retired one — misses
//! after one comparison; any other id is a binary search. Aging is exact
//! without touching the middle of the ring: each sweep stores a cutoff,
//! an entry retired at or before it is absent to every reader, and
//! expired entries are freed as they reach the front.

use qbc_core::{RetiredOutcome, TxnId, XRetiredOutcome};
use qbc_simnet::Time;
use std::collections::VecDeque;

/// A retired outcome in the checkpoint record's own format, with when
/// this site decided it (a coordination: when it retired) and when it
/// retired.
#[derive(Clone, Debug)]
pub(crate) struct Retired<T> {
    pub(crate) outcome: T,
    pub(crate) decided_at: Time,
    pub(crate) retired_at: Time,
}

/// The transaction a checkpoint outcome speaks for.
pub(crate) trait Keyed {
    fn txn(&self) -> TxnId;
}

impl Keyed for RetiredOutcome {
    fn txn(&self) -> TxnId {
        self.txn
    }
}

impl Keyed for XRetiredOutcome {
    fn txn(&self) -> TxnId {
        self.txn
    }
}

/// Retired outcomes sorted by transaction id, and the last sweep's
/// aging cutoff.
#[derive(Clone, Debug)]
pub(crate) struct Ring<T> {
    entries: VecDeque<Retired<T>>,
    cutoff: Option<Time>,
}

impl<T> Default for Ring<T> {
    fn default() -> Self {
        Ring {
            entries: VecDeque::new(),
            cutoff: None,
        }
    }
}

impl<T: Keyed> Ring<T> {
    /// Inserts `outcome` at its id's slot, replacing an entry of the
    /// same id.
    pub(crate) fn insert(&mut self, outcome: T, decided_at: Time, retired_at: Time) {
        let txn = outcome.txn();
        let at = self.entries.iter().rposition(|e| e.outcome.txn() <= txn);
        let entry = Retired {
            outcome,
            decided_at,
            retired_at,
        };
        match at {
            Some(i) if self.entries[i].outcome.txn() == txn => self.entries[i] = entry,
            _ => self.entries.insert(at.map_or(0, |i| i + 1), entry),
        }
    }

    /// The unexpired entry of `txn`.
    pub(crate) fn get(&self, txn: TxnId) -> Option<&Retired<T>> {
        if self.entries.back()?.outcome.txn() < txn {
            return None;
        }
        let i = self.entries.binary_search_by_key(&txn, |e| e.outcome.txn());
        Some(&self.entries[i.ok()?]).filter(|e| self.cutoff < Some(e.retired_at))
    }

    /// The unexpired entries, in id order.
    pub(crate) fn live(&self) -> impl Iterator<Item = &Retired<T>> {
        self.entries
            .iter()
            .filter(|e| self.cutoff < Some(e.retired_at))
    }

    /// Expires every entry retired at or before `cutoff`, and frees
    /// those at the front.
    pub(crate) fn age(&mut self, cutoff: Time) {
        self.cutoff = Some(cutoff);
        while self.entries.front().is_some_and(|e| e.retired_at <= cutoff) {
            self.entries.pop_front();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qbc_core::Decision;

    fn outcome(id: u64) -> RetiredOutcome {
        RetiredOutcome {
            txn: TxnId(id),
            decision: Decision::Commit,
            commit_version: None,
        }
    }

    fn ids(ring: &Ring<RetiredOutcome>) -> Vec<u64> {
        ring.entries.iter().map(|e| e.outcome.txn.0).collect()
    }

    #[test]
    fn inserts_keep_id_order_and_replace_an_equal_id() {
        let mut ring = Ring::default();
        for (id, at) in [(5, 1), (2, 2), (9, 3), (7, 4), (2, 5), (1, 6)] {
            ring.insert(outcome(id), Time(0), Time(at));
        }
        assert_eq!(ids(&ring), [1, 2, 5, 7, 9]);
        assert_eq!(ring.get(TxnId(2)).map(|e| e.retired_at), Some(Time(5)));
        assert!(ring.get(TxnId(3)).is_none());
        assert!(ring.get(TxnId(10)).is_none());
        assert!(Ring::<RetiredOutcome>::default().get(TxnId(1)).is_none());
    }

    #[test]
    fn an_expired_entry_is_absent_before_it_is_freed() {
        let mut ring = Ring::default();
        for (id, at) in [(1, 4), (2, 1), (3, 2), (4, 5)] {
            ring.insert(outcome(id), Time(0), Time(at));
        }
        ring.age(Time(2));
        // Id 1 retired late and holds the front, so nothing is freed yet;
        // ids 2 and 3 are expired all the same.
        assert_eq!(ids(&ring), [1, 2, 3, 4]);
        let live: Vec<u64> = ring.live().map(|e| e.outcome.txn.0).collect();
        assert_eq!(live, [1, 4]);
        assert!(ring.get(TxnId(2)).is_none() && ring.get(TxnId(3)).is_none());
        ring.age(Time(4));
        assert_eq!(ids(&ring), [4]);
    }
}
