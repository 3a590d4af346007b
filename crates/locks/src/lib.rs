//! # qbc-locks — per-site no-wait pin table
//!
//! Serializability inside a partition is delegated to classical
//! concurrency control (refs. \[2,6,10,13\] in the paper); the site runs
//! strict **no-wait** 2PL. Voting yes pins every local copy of the
//! writeset exclusively until the decision; a copy another transaction
//! holds makes the site vote no instead of waiting, so there are no
//! queues and no deadlocks to detect. The table matters to the paper's
//! argument because a *blocked* transaction — one whose commit protocol
//! can neither commit nor abort — keeps its pins, "rendering those data
//! items inaccessible to the other transactions". The availability
//! experiments ask this crate which copies are pinned.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod manager;

pub use manager::{LockManager, LockMode};

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    #[derive(Clone, Debug)]
    enum Op {
        Acquire { txn: u8, res: u8 },
        Release { txn: u8, res: u8 },
        ReleaseAll { txn: u8 },
    }

    fn arb_op() -> impl Strategy<Value = Op> {
        prop_oneof![
            (0u8..6, 0u8..4).prop_map(|(txn, res)| Op::Acquire { txn, res }),
            (0u8..6, 0u8..4).prop_map(|(txn, res)| Op::Release { txn, res }),
            (0u8..6).prop_map(|txn| Op::ReleaseAll { txn }),
        ]
    }

    proptest! {
        /// Under any interleaving of acquires and releases, the table
        /// behaves as a plain "resource → holder" map: a grant exactly
        /// when the copy is free or already the requester's, and the
        /// snapshot and every reverse-index lookup agree with the map.
        #[test]
        fn matches_a_resource_to_holder_map(ops in proptest::collection::vec(arb_op(), 1..120)) {
            let mut lm: LockManager<u8, u8> = LockManager::new();
            let mut model: BTreeMap<u8, u8> = BTreeMap::new();
            for op in ops {
                match op {
                    Op::Acquire { txn, res } => {
                        let free = *model.entry(res).or_insert(txn) == txn;
                        prop_assert_eq!(lm.acquire(txn, res, LockMode::Exclusive), free);
                    }
                    Op::Release { txn, res } => {
                        if model.get(&res) == Some(&txn) {
                            model.remove(&res);
                        }
                        lm.release(&txn, &res);
                    }
                    Op::ReleaseAll { txn } => {
                        model.retain(|_, t| *t != txn);
                        lm.release_all(&txn);
                    }
                }
                let expect: Vec<(u8, u8)> = model.iter().map(|(r, t)| (*r, *t)).collect();
                prop_assert_eq!(lm.table_snapshot(), expect);
                for txn in 0u8..6 {
                    let held: Vec<u8> =
                        model.iter().filter(|(_, t)| **t == txn).map(|(r, _)| *r).collect();
                    prop_assert_eq!(lm.held_by(&txn), held.as_slice());
                }
                for res in 0u8..4 {
                    prop_assert_eq!(lm.is_locked(&res), model.contains_key(&res));
                }
            }
        }
    }
}
