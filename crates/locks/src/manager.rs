//! The pin table: which transaction holds each copy.

use std::collections::btree_map::Entry;
use std::collections::BTreeMap;

/// The one lock mode the protocol takes: a yes vote pins every local
/// copy of its writeset exclusively until the decision.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum LockMode {
    /// Exclusive (write) lock; compatible with nothing.
    Exclusive,
}

/// A per-site no-wait lock table over resources `R` held by
/// transactions `T`: a request on a copy another transaction holds is
/// refused, never queued.
#[derive(Clone, Debug)]
pub struct LockManager<R, T> {
    holder: BTreeMap<R, T>,
    /// Reverse index: the resources each transaction holds, sorted.
    /// Keeps `release_all` — the per-decision hot path — and `held_by`
    /// proportional to the transaction's own footprint.
    by_txn: BTreeMap<T, Vec<R>>,
}

impl<R: Ord + Clone, T: Ord + Clone> Default for LockManager<R, T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<R: Ord + Clone, T: Ord + Clone> LockManager<R, T> {
    /// An empty lock table.
    pub fn new() -> Self {
        LockManager {
            holder: BTreeMap::new(),
            by_txn: BTreeMap::new(),
        }
    }

    /// True when any transaction holds `res`.
    pub fn is_locked(&self, res: &R) -> bool {
        self.holder.contains_key(res)
    }

    /// Pins `res` for `txn`. Granted (`true`) when the copy is free or
    /// already `txn`'s; otherwise refused (`false`) with nothing changed.
    pub fn acquire(&mut self, txn: T, res: R, _mode: LockMode) -> bool {
        match self.holder.entry(res) {
            Entry::Occupied(e) => *e.get() == txn,
            Entry::Vacant(e) => {
                let held = self.by_txn.entry(txn.clone()).or_default();
                let at = held
                    .binary_search(e.key())
                    .expect_err("a free copy is in no transaction's index");
                held.insert(at, e.key().clone());
                e.insert(txn);
                true
            }
        }
    }

    /// Frees `res` if `txn` holds it.
    pub fn release(&mut self, txn: &T, res: &R) {
        if self.holder.get(res) != Some(txn) {
            return;
        }
        self.holder.remove(res);
        if let Some(held) = self.by_txn.get_mut(txn) {
            held.retain(|r| r != res);
            if held.is_empty() {
                self.by_txn.remove(txn);
            }
        }
    }

    /// Frees every pin of `txn` (its decision).
    pub fn release_all(&mut self, txn: &T) {
        for res in self.by_txn.remove(txn).unwrap_or_default() {
            self.holder.remove(&res);
        }
    }

    /// The resources `txn` holds, in resource order.
    pub fn held_by(&self, txn: &T) -> &[R] {
        self.by_txn.get(txn).map_or(&[], Vec::as_slice)
    }

    /// Canonical snapshot of the table for state hashing: every held
    /// resource with its holder, in resource order.
    pub fn table_snapshot(&self) -> Vec<(R, T)> {
        self.holder
            .iter()
            .map(|(r, t)| (r.clone(), t.clone()))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type Lm = LockManager<&'static str, u32>;

    #[test]
    fn a_held_copy_refuses_other_transactions_and_changes_nothing() {
        let mut lm = Lm::new();
        assert!(lm.acquire(1, "x", LockMode::Exclusive));
        assert!(!lm.acquire(2, "x", LockMode::Exclusive));
        assert_eq!(lm.table_snapshot(), vec![("x", 1)]);
        assert!(lm.held_by(&2).is_empty());
    }

    #[test]
    fn reacquiring_an_own_pin_is_granted() {
        let mut lm = Lm::new();
        assert!(lm.acquire(1, "x", LockMode::Exclusive));
        assert!(lm.acquire(1, "x", LockMode::Exclusive));
        assert_eq!(lm.held_by(&1), ["x"]);
    }

    #[test]
    fn release_frees_only_the_holders_pin() {
        let mut lm = Lm::new();
        lm.acquire(1, "x", LockMode::Exclusive);
        lm.acquire(1, "y", LockMode::Exclusive);
        lm.release(&2, &"x");
        assert!(lm.is_locked(&"x"));
        lm.release(&1, &"x");
        assert!(!lm.is_locked(&"x"));
        assert_eq!(lm.held_by(&1), ["y"]);
        assert!(lm.acquire(2, "x", LockMode::Exclusive));
    }

    #[test]
    fn release_all_frees_exactly_the_transactions_pins() {
        let mut lm = Lm::new();
        lm.acquire(1, "y", LockMode::Exclusive);
        lm.acquire(1, "x", LockMode::Exclusive);
        lm.acquire(2, "z", LockMode::Exclusive);
        assert_eq!(lm.held_by(&1), ["x", "y"], "resource order");
        lm.release_all(&1);
        assert!(lm.held_by(&1).is_empty());
        assert_eq!(lm.table_snapshot(), vec![("z", 2)]);
    }
}
