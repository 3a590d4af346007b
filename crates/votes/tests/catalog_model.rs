//! Model check of [`Catalog`]'s id-sorted (id, class) slots against a
//! `BTreeMap<ItemId, ItemSpec>` reference.
//!
//! Random id sets — contiguous runs, runs with gaps, scattered ids,
//! runs ending at `u32::MAX` — each item on one of a few random
//! placements, built both ways (the builder and
//! `Catalog::from_classes`). Every query answers as the map does:
//! `item` for ids in the set, in its gaps, below its first and above
//! its last; `items_at` and its exact length, `participants`,
//! `all_sites`, and `items()` in id order. A repeated id is rejected
//! on every path.

use proptest::collection::vec;
use proptest::prelude::*;
use qbc_simnet::SiteId;
use qbc_votes::{Catalog, CatalogBuilder, ItemId, ItemSpec, VoteError};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// Sites the placements draw from; probes also ask one past them.
const SITES: u32 = 6;

/// A strictly ascending id set.
fn arb_ids() -> impl Strategy<Value = Vec<u32>> {
    prop_oneof![
        // Contiguous, from a random start.
        (0u32..1_000, 0u32..48).prop_map(|(start, n)| (start..start + n).collect()),
        // Contiguous up to the last id there is.
        (1u32..16).prop_map(|n| (u32::MAX - (n - 1)..=u32::MAX).collect()),
        // Gaps: steps of one to four from a random start.
        (0u32..1_000, vec(1u32..=4, 1..48)).prop_map(|(start, steps)| {
            steps
                .iter()
                .scan(start, |id, step| {
                    *id += step;
                    Some(*id)
                })
                .collect()
        }),
        // Scattered over the whole space, `u32::MAX` likely.
        vec(
            prop_oneof![0u32..64, 0u32..=u32::MAX, Just(u32::MAX)],
            1..32
        )
        .prop_map(|mut ids| {
            ids.sort_unstable();
            ids.dedup();
            ids
        }),
    ]
}

/// A valid placement class: unit- or double-weight copies on a random
/// non-empty subset of the sites, majority quorums.
fn arb_class() -> impl Strategy<Value = ItemSpec> {
    vec((0..SITES, 1u32..=2), 1..5).prop_map(|copies| {
        let copies: BTreeMap<SiteId, u32> =
            copies.into_iter().map(|(s, w)| (SiteId(s), w)).collect();
        let total: u32 = copies.values().sum();
        let write = total / 2 + 1;
        ItemSpec {
            id: ItemId(0),
            copies: Arc::new(copies),
            read_quorum: total - write + 1,
            write_quorum: write,
        }
    })
}

/// Ids, one class per id, the classes, and a rotation of the input
/// order (so the builders also see unsorted input).
fn arb_catalog() -> impl Strategy<Value = (Vec<u32>, Vec<usize>, Vec<ItemSpec>, usize)> {
    (arb_ids(), vec(arb_class(), 1..4)).prop_flat_map(|(ids, classes)| {
        let n = ids.len();
        (
            Just(ids),
            vec(0..classes.len(), n),
            Just(classes),
            0..n.max(1),
        )
    })
}

/// Item `id` of class `c`.
fn spec(id: u32, c: usize, classes: &[ItemSpec]) -> ItemSpec {
    ItemSpec {
        id: ItemId(id),
        ..classes[c].clone()
    }
}

/// The two ways to build the same catalog, from items in `order`.
fn build_all(order: &[(u32, usize)], classes: &[ItemSpec]) -> [Result<Catalog, VoteError>; 2] {
    let mut b = CatalogBuilder::new();
    for &(id, c) in order {
        b = b.item(ItemId(id));
        for (&site, &weight) in classes[c].copies.iter() {
            b = b.copy(site, weight);
        }
        b = b.quorums(classes[c].read_quorum, classes[c].write_quorum);
    }
    [
        b.build(),
        Catalog::from_classes(classes, order.iter().map(|&(id, c)| (ItemId(id), c))),
    ]
}

/// Ids worth asking about: every member, its neighbours (gaps), the
/// ends of the space.
fn probes(ids: &[u32]) -> BTreeSet<u32> {
    let mut out: BTreeSet<u32> = [0, 1, u32::MAX - 1, u32::MAX].into();
    for &id in ids {
        out.extend([
            id.wrapping_sub(1),
            id,
            id.wrapping_add(1),
            id.wrapping_add(2),
        ]);
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    #[test]
    fn the_catalog_answers_like_a_sorted_map(
        (ids, class_of, classes, rotate) in arb_catalog(),
        pick in vec(proptest::bool::ANY, 64),
    ) {
        let reference: BTreeMap<ItemId, ItemSpec> = ids
            .iter()
            .zip(&class_of)
            .map(|(&id, &c)| (ItemId(id), spec(id, c, &classes)))
            .collect();
        let mut order: Vec<(u32, usize)> = ids.iter().copied().zip(class_of.iter().copied()).collect();
        let rotate = rotate.min(order.len());
        order.rotate_left(rotate);
        let built = build_all(&order, &classes);
        for catalog in &built {
            let catalog = catalog.as_ref().expect("valid classes build");
            prop_assert_eq!(catalog, built[0].as_ref().unwrap());
            prop_assert_eq!(catalog.len(), reference.len());
            prop_assert!(catalog.items().eq(reference.values()), "items() order");
            for id in probes(&ids) {
                prop_assert_eq!(
                    catalog.item(ItemId(id)).map(ItemSpec::from),
                    reference.get(&ItemId(id)).cloned(),
                    "item {}",
                    id
                );
            }
            for site in (0..=SITES).map(SiteId) {
                let want = reference.values().filter(|s| s.copies.contains_key(&site));
                prop_assert_eq!(catalog.items_at(site).len(), want.clone().count(), "items_at {} len", site);
                prop_assert!(catalog.items_at(site).eq(want), "items_at {}", site);
            }
            let asked: Vec<ItemId> = probes(&ids)
                .into_iter()
                .zip(pick.iter().cycle())
                .filter(|&(_, &on)| on)
                .map(|(id, _)| ItemId(id))
                .collect();
            let want: BTreeSet<SiteId> = asked
                .iter()
                .filter_map(|id| reference.get(id))
                .flat_map(|s| s.sites())
                .collect();
            prop_assert_eq!(catalog.participants(asked.iter().copied()), want);
            let all: BTreeSet<SiteId> = reference.values().flat_map(|s| s.sites()).collect();
            prop_assert_eq!(catalog.all_sites(), all);
            // Every item holds one of the interned placements, whose
            // counts add up to the items.
            let placements: Vec<_> = catalog.placements().collect();
            prop_assert_eq!(placements.iter().map(|&(_, n)| n).sum::<usize>(), reference.len());
            for s in catalog.items() {
                prop_assert!(placements.iter().any(|(p, _)| Arc::ptr_eq(p, &s.copies)));
            }
        }
    }

    #[test]
    fn a_repeated_id_is_rejected_on_every_path(
        (ids, class_of, classes, which) in arb_catalog(),
    ) {
        prop_assume!(!ids.is_empty());
        let mut order: Vec<(u32, usize)> = ids.iter().copied().zip(class_of.iter().copied()).collect();
        let twice = order[which % order.len()];
        order.push(twice);
        let rotate = which % order.len();
        order.rotate_left(rotate);
        for catalog in build_all(&order, &classes) {
            prop_assert_eq!(catalog, Err(VoteError::DuplicateItem(ItemId(twice.0))));
        }
    }
}
