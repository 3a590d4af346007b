//! Item-space partitioning and replica placement.

use crate::config::ClusterConfig;
use qbc_core::{ProtocolKind, TxnId, TxnSpec, WriteSet};
use qbc_simnet::SiteId;
use qbc_votes::{Catalog, ItemId, ItemSpec};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// Identifier of one shard (replica group).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ShardId(pub u32);

impl fmt::Debug for ShardId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "shard{}", self.0)
    }
}

impl fmt::Display for ShardId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "shard{}", self.0)
    }
}

/// Static placement: which shard owns an item, which sites form a
/// shard, and the per-shard replication catalog.
///
/// Both id spaces are contiguous per shard, so routing is arithmetic —
/// no lookup table sits on the submit path. Each shard's catalog is
/// built once and held by `Arc`: cloning the map (the planner's copy)
/// and configuring the shard's sites share it instead of copying it.
#[derive(Clone, Debug)]
pub struct ShardMap {
    shards: u32,
    sites_per_shard: u32,
    items_per_shard: u32,
    catalogs: Vec<Arc<Catalog>>,
}

impl ShardMap {
    /// Builds the placement for a configuration (panics on an invalid
    /// one; see [`ClusterConfig::validate`]).
    pub fn new(cfg: &ClusterConfig) -> Self {
        cfg.validate();
        let mut catalogs = Vec::with_capacity(cfg.shards as usize);
        for shard in 0..cfg.shards {
            // Item `k`'s copies sit on the `replication` sites from
            // `k mod sites_per_shard` on, so a shard has one placement
            // class per site, and the catalog's slot column gets each
            // item's id and class and nothing else.
            let base = shard * cfg.sites_per_shard;
            let classes: Vec<ItemSpec> = (0..cfg.sites_per_shard)
                .map(|c| ItemSpec {
                    id: ItemId(0),
                    copies: Arc::new(
                        (0..cfg.replication)
                            .map(|j| (SiteId(base + (c + j) % cfg.sites_per_shard), 1))
                            .collect(),
                    ),
                    read_quorum: cfg.read_quorum,
                    write_quorum: cfg.write_quorum,
                })
                .collect();
            // The class steps round the sites, counted rather than
            // divided for: a division per item costs more than writing
            // its slot.
            let first = shard * cfg.items_per_shard;
            let mut class = 0;
            let items = (0..cfg.items_per_shard).map(|k| {
                let item = (ItemId(first + k), class);
                class = if class + 1 == classes.len() {
                    0
                } else {
                    class + 1
                };
                item
            });
            let catalog = Catalog::from_classes(&classes, items).expect("validated cluster config");
            catalogs.push(Arc::new(catalog));
        }
        ShardMap {
            shards: cfg.shards,
            sites_per_shard: cfg.sites_per_shard,
            items_per_shard: cfg.items_per_shard,
            catalogs,
        }
    }

    /// Number of shards.
    pub fn shards(&self) -> u32 {
        self.shards
    }

    /// Number of sites in every shard.
    pub fn sites_per_shard(&self) -> u32 {
        self.sites_per_shard
    }

    /// The shard owning `item`, or `None` for an id outside the space.
    pub fn shard_of_item(&self, item: ItemId) -> Option<ShardId> {
        let s = item.0 / self.items_per_shard;
        (s < self.shards).then_some(ShardId(s))
    }

    /// The sites of one shard, in id order.
    pub fn sites_of(&self, shard: ShardId) -> Vec<SiteId> {
        self.sites_iter(shard).collect()
    }

    /// The sites of one shard as an iterator (no allocation; placement
    /// is arithmetic). The per-transaction paths — status polls and
    /// metric harvests — use this instead of [`ShardMap::sites_of`].
    pub fn sites_iter(&self, shard: ShardId) -> impl Iterator<Item = SiteId> {
        let base = shard.0 * self.sites_per_shard;
        (base..base + self.sites_per_shard).map(SiteId)
    }

    /// The `n`-th coordinator choice of a shard (round-robin placement).
    pub fn coordinator(&self, shard: ShardId, n: u64) -> SiteId {
        SiteId(shard.0 * self.sites_per_shard + (n % self.sites_per_shard as u64) as u32)
    }

    /// Every site in the cluster.
    pub fn all_sites(&self) -> Vec<SiteId> {
        (0..self.shards * self.sites_per_shard)
            .map(SiteId)
            .collect()
    }

    /// The replication catalog of one shard: the one allocation the
    /// shard's sites share.
    pub fn catalog(&self, shard: ShardId) -> &Arc<Catalog> {
        &self.catalogs[shard.0 as usize]
    }

    /// The items of one shard, in id order.
    pub fn items_of(&self, shard: ShardId) -> Vec<ItemId> {
        let base = shard.0 * self.items_per_shard;
        (base..base + self.items_per_shard).map(ItemId).collect()
    }

    /// Splits a writeset into its per-shard slices, in shard order: the
    /// branch writesets of a cross-shard transaction (one entry means
    /// the writeset is single-shard). Panics on an empty writeset or an
    /// item outside the cluster's item space. Shared by both cluster
    /// front-ends so the two substrates can never route the same
    /// writeset differently.
    pub fn split_writeset(&self, writeset: &WriteSet) -> Vec<(ShardId, WriteSet)> {
        assert!(
            !writeset.is_empty(),
            "cannot submit a transaction with an empty writeset"
        );
        let mut by_shard: BTreeMap<ShardId, WriteSet> = BTreeMap::new();
        for (&item, &value) in writeset.updates.iter() {
            let shard = self
                .shard_of_item(item)
                .unwrap_or_else(|| panic!("{item:?} outside the cluster's item space"));
            by_shard
                .entry(shard)
                .or_default()
                .updates
                .insert(item, value);
        }
        by_shard.into_iter().collect()
    }

    /// Builds the branch specs of a cross-shard transaction from its
    /// writeset split ([`ShardMap::split_writeset`]): one spec per
    /// shard, every one carrying `parent` (the cross-shard
    /// coordinator's site). The home branch is coordinated by `parent`
    /// itself (one hop saved); the others by `pick_coordinator`.
    /// Shared by both cluster front-ends so the two substrates can
    /// never plan the same cross-shard transaction differently.
    pub fn xtxn_branches(
        &self,
        txn: TxnId,
        protocol: ProtocolKind,
        parent: SiteId,
        home: ShardId,
        split: Vec<(ShardId, WriteSet)>,
        mut pick_coordinator: impl FnMut(ShardId) -> SiteId,
    ) -> Vec<Arc<TxnSpec>> {
        split
            .into_iter()
            .map(|(shard, ws)| {
                let branch_coord = if shard == home {
                    parent
                } else {
                    pick_coordinator(shard)
                };
                Arc::new(
                    TxnSpec::from_catalog(txn, branch_coord, ws, protocol, self.catalog(shard))
                        .with_parent(parent),
                )
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn map() -> ShardMap {
        ShardMap::new(&ClusterConfig::default())
    }

    #[test]
    fn items_and_sites_route_to_their_shard() {
        let m = map();
        assert_eq!(m.shard_of_item(ItemId(0)), Some(ShardId(0)));
        assert_eq!(m.shard_of_item(ItemId(7)), Some(ShardId(0)));
        assert_eq!(m.shard_of_item(ItemId(8)), Some(ShardId(1)));
        assert_eq!(m.shard_of_item(ItemId(99)), None);
    }

    #[test]
    fn coordinators_rotate_round_robin_within_the_shard() {
        let m = map();
        let picks: Vec<SiteId> = (0..4).map(|n| m.coordinator(ShardId(1), n)).collect();
        assert_eq!(
            picks,
            vec![SiteId(3), SiteId(4), SiteId(5), SiteId(3)],
            "round robin over shard 1's sites"
        );
    }

    #[test]
    fn split_writeset_slices_by_shard_in_order() {
        let m = map();
        let ws = WriteSet::new([(ItemId(9), 1), (ItemId(0), 2), (ItemId(7), 3)]);
        let split = m.split_writeset(&ws);
        assert_eq!(split.len(), 2);
        assert_eq!(split[0].0, ShardId(0));
        assert_eq!(split[0].1, WriteSet::new([(ItemId(0), 2), (ItemId(7), 3)]));
        assert_eq!(split[1].0, ShardId(1));
        assert_eq!(split[1].1, WriteSet::new([(ItemId(9), 1)]));
        // Single-shard writesets come back whole.
        let single = m.split_writeset(&WriteSet::new([(ItemId(1), 4)]));
        assert_eq!(single.len(), 1);
        assert_eq!(single[0].0, ShardId(0));
    }

    #[test]
    fn catalogs_place_copies_only_on_shard_sites() {
        let m = map();
        for shard in [ShardId(0), ShardId(1)] {
            let sites = m.sites_of(shard);
            let cat = m.catalog(shard);
            for item in m.items_of(shard) {
                let spec = cat.item(item).expect("item in shard catalog");
                for s in spec.sites() {
                    assert!(sites.contains(&s), "{item:?} copy at foreign {s}");
                }
            }
        }
    }
}
