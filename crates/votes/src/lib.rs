//! # qbc-votes — Gifford weighted-voting replica control
//!
//! The partition-processing strategy the paper designs its termination
//! protocols around (ref. \[8\], Gifford 1979): every copy of every data item
//! carries votes; reading item `x` requires collecting `r(x)` votes,
//! writing requires `w(x)`, with `r(x)+w(x) > v(x)` and `w(x) > v(x)/2`.
//! Version numbers identify the most recent copy inside any read quorum.
//!
//! This crate provides:
//!
//! * [`ItemSpec`]/[`Catalog`] — per-item copy placement, vote weights and
//!   quorum parameters, with constraint validation; a catalog keeps each
//!   item as its id and an [`ItemClass`], and hands it out as an
//!   [`ItemRef`];
//! * [`CatalogBuilder`] — fluent construction (including `majority()` and
//!   `read_one_write_all()` presets);
//! * quorum arithmetic over arbitrary site sets (the primitive queried by
//!   the TP1/TP2 termination rules);
//! * [`availability::analyze`] — the accessibility metric of the paper's
//!   Examples 1 and 4: which items can each partition component read or
//!   write, given vote placement and lock-blocked copies.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod availability;
mod catalog;
mod item;

pub use availability::{analyze, AccessReport, ItemAccess};
pub use catalog::{Catalog, CatalogBuilder};
pub use item::{slot_of, ItemClass, ItemId, ItemRef, ItemSpec, Version, VoteError};
// Re-export so downstream crates keyed on item/txn ids can reach the
// deterministic hasher without an extra dependency edge.
pub use qbc_simnet::{FastBuildHasher, FastHasher, FastMap};

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use qbc_simnet::SiteId;
    use std::collections::BTreeSet;

    /// Strategy: a valid item class over up to 8 sites with weights
    /// 1..=3, majority-style quorums.
    fn arb_valid_spec() -> impl Strategy<Value = ItemClass> {
        (2usize..=8).prop_flat_map(|n| {
            proptest::collection::vec(1u32..=3, n).prop_map(move |weights| {
                let copies: std::collections::BTreeMap<SiteId, u32> = weights
                    .iter()
                    .enumerate()
                    .map(|(i, &w)| (SiteId(i as u32), w))
                    .collect();
                let total: u32 = copies.values().sum();
                let write = total / 2 + 1;
                let read = total - write + 1;
                ItemClass {
                    copies: std::sync::Arc::new(copies),
                    read_quorum: read,
                    write_quorum: write,
                }
            })
        })
    }

    proptest! {
        /// Majority-style assignments always satisfy Gifford's constraints.
        #[test]
        fn generated_specs_validate(spec in arb_valid_spec()) {
            prop_assert_eq!(spec.validate(ItemId(0)), Ok(()));
        }

        /// Core safety of weighted voting: a read quorum and a write
        /// quorum can never exist in two disjoint site sets.
        #[test]
        fn read_and_write_quorums_always_intersect(
            spec in arb_valid_spec(),
            split in proptest::collection::vec(proptest::bool::ANY, 8),
        ) {
            let left: BTreeSet<SiteId> = spec
                .sites()
                .enumerate()
                .filter(|(i, _)| split.get(*i).copied().unwrap_or(false))
                .map(|(_, s)| s)
                .collect();
            let right: BTreeSet<SiteId> =
                spec.sites().filter(|s| !left.contains(s)).collect();
            // Disjoint halves cannot both hold quorums that must intersect.
            prop_assert!(!(spec.read_quorum_among(&left) && spec.write_quorum_among(&right)));
            prop_assert!(!(spec.write_quorum_among(&left) && spec.write_quorum_among(&right)));
        }

        /// Votes are monotone: adding sites never removes a quorum.
        #[test]
        fn quorums_are_monotone(
            spec in arb_valid_spec(),
            subset_bits in proptest::collection::vec(proptest::bool::ANY, 8),
        ) {
            let subset: BTreeSet<SiteId> = spec
                .sites()
                .enumerate()
                .filter(|(i, _)| subset_bits.get(*i).copied().unwrap_or(false))
                .map(|(_, s)| s)
                .collect();
            let all: BTreeSet<SiteId> = spec.sites().collect();
            if spec.read_quorum_among(&subset) {
                prop_assert!(spec.read_quorum_among(&all));
            }
            if spec.write_quorum_among(&subset) {
                prop_assert!(spec.write_quorum_among(&all));
            }
            // The full copy set always satisfies both quorums.
            prop_assert!(spec.read_quorum_among(&all));
            prop_assert!(spec.write_quorum_among(&all));
        }
    }
}
