//! `VersionedStore` against a reference model of its chain rules.
//!
//! The model is the plainest possible store: a `BTreeMap` from item to
//! its retained `(version, value)` chain, ascending, newest last, with
//! the rules written out longhand. Random operation sequences — loads,
//! writes (including version regressions and writes to items the store
//! never held), watermark GC, chain installs and retention changes —
//! run against both, and after every step every read the store offers
//! must agree with the model.

use proptest::prelude::*;
use qbc_storage::{StoreError, VersionedStore};
use qbc_votes::{ItemId, Version};
use std::collections::BTreeMap;

type Chain = Vec<(Version, i64)>;

/// The reference: one `Vec` chain per item.
struct Model {
    chains: BTreeMap<ItemId, Chain>,
    retention: usize,
}

impl Model {
    fn apply(&mut self, item: ItemId, version: Version, value: i64) -> bool {
        let chain = self.chains.entry(item).or_default();
        if chain.last().is_some_and(|&(stored, _)| stored >= version) {
            return false;
        }
        chain.push((version, value));
        if chain.len() > self.retention {
            let excess = chain.len() - self.retention;
            chain.drain(..excess);
        }
        true
    }

    /// Applies each entry; a held chain entirely older than the
    /// installed one is replaced, not extended.
    fn install_chain(&mut self, item: ItemId, chain: &[(Version, i64)]) {
        if let (Some(held), Some(&(oldest, _))) = (self.chains.get_mut(&item), chain.first()) {
            if held.last().is_some_and(|&(newest, _)| newest < oldest) {
                held.clear();
            }
        }
        for &(v, val) in chain {
            self.apply(item, v, val);
        }
    }

    fn gc_below(&mut self, watermark: Version) {
        for chain in self.chains.values_mut() {
            if let Some(keep_from) = chain.iter().rposition(|&(v, _)| v <= watermark) {
                chain.drain(..keep_from);
            }
        }
    }

    fn read_at(&self, item: ItemId, at: Version) -> Option<(Version, i64)> {
        let chain = self.chains.get(&item)?;
        chain
            .iter()
            .rev()
            .find(|&&(v, _)| v <= at)
            .or_else(|| chain.first())
            .copied()
    }

    fn newest(&self, item: ItemId) -> Version {
        self.chains
            .get(&item)
            .and_then(|c| c.last())
            .map_or(Version::INITIAL, |&(v, _)| v)
    }
}

fn chain_of(store: &VersionedStore<i64>, item: ItemId) -> Option<Chain> {
    store
        .versions(item)
        .map(|chain| chain.map(|(v, &x)| (v, x)).collect())
}

/// Every observable of the store equals the model's.
fn agree(store: &VersionedStore<i64>, model: &Model) -> Result<(), TestCaseError> {
    let items: Vec<ItemId> = store.items().collect();
    let expected: Vec<ItemId> = model.chains.keys().copied().collect();
    prop_assert_eq!(&items, &expected);
    prop_assert_eq!(store.len(), expected.len());
    let top = model.chains.keys().map(|&i| model.newest(i).0).max();
    for item in (0..ITEMS).map(ItemId) {
        let chain = model.chains.get(&item);
        prop_assert_eq!(chain_of(store, item), chain.cloned(), "chain of {:?}", item);
        let newest = chain.and_then(|c| c.last().copied());
        prop_assert_eq!(store.read(item).map(|(v, &x)| (v, x)), newest);
        prop_assert_eq!(store.version(item), newest.map(|(v, _)| v));
        for at in 0..=top.unwrap_or(0) + 1 {
            let at = Version(at);
            prop_assert_eq!(
                store.read_at(item, at).map(|(v, &x)| (v, x)),
                model.read_at(item, at),
                "read_at({:?}, {:?})",
                item,
                at
            );
        }
    }
    Ok(())
}

const ITEMS: u32 = 6;
const VERSIONS: u64 = 24;

proptest! {
    #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

    #[test]
    fn store_matches_the_chain_model(
        retention in 1usize..=4,
        ops in proptest::collection::vec(
            (0u8..8, 0u32..ITEMS, 0u64..VERSIONS, -50i64..50),
            0..80,
        ),
    ) {
        let mut store: VersionedStore<i64> = VersionedStore::with_retention(retention);
        let mut model = Model { chains: BTreeMap::new(), retention };
        prop_assert_eq!(store.retention(), retention);
        for (kind, item, x, value) in ops {
            let item = ItemId(item);
            match kind {
                0 => {
                    store.initialize(item, value);
                    model.chains.insert(item, vec![(Version::INITIAL, value)]);
                }
                1 | 2 => {
                    // Mostly advances, sometimes repeats or regresses.
                    let version = Version((model.newest(item).0 + x % 5).saturating_sub(1));
                    let res = store.apply(item, version, value);
                    let ok = model.apply(item, version, value);
                    prop_assert_eq!(res.is_ok(), ok, "apply {:?} {:?}", item, version);
                    if let Err(StoreError::VersionRegression { stored, offered, .. }) = res {
                        prop_assert_eq!(stored, model.newest(item));
                        prop_assert_eq!(offered, version);
                    }
                }
                3 => {
                    store.gc_below(Version(x));
                    model.gc_below(Version(x));
                }
                4 | 5 => {
                    // An ascending chain that may overlap what is held.
                    let chain: Chain = (0..value.rem_euclid(4) as u64)
                        .map(|k| (Version(x + 2 * k), value + k as i64))
                        .collect();
                    store.install_chain(item, chain.iter().copied());
                    model.install_chain(item, &chain);
                }
                6 => {
                    let r = 1 + (x as usize % 4);
                    store.set_retention(r);
                    model.retention = r;
                }
                _ => {
                    // Read-only step: the agreement check below.
                }
            }
            agree(&store, &model)?;
        }
    }
}
