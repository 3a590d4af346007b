//! The replicated-data catalog: every item's placement and quorums.

use crate::item::{ItemId, ItemSpec, VoteError};
use qbc_simnet::SiteId;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// The full replication catalog of the database: one [`ItemSpec`] per
/// logical data item. Immutable once built, and shared rather than
/// copied: sites hold it behind one `Arc` per replica group (see
/// `NodeConfig::catalog` in `qbc-db`), so a cluster keeps one catalog
/// per shard however many sites it runs.
///
/// Placements are interned: every item with the same (site, weight)
/// set shares one [`ItemSpec::copies`] allocation, so an item costs its
/// spec's slot in the index and nothing more.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct Catalog {
    items: BTreeMap<ItemId, ItemSpec>,
}

/// Interns placements: one shared map per distinct (site, weight) set,
/// looked up by its entries in site order.
#[derive(Debug, Default)]
struct Placements(BTreeMap<Vec<(SiteId, u32)>, Arc<Placement>>);

/// An item's copies: the vote weight at each site.
type Placement = BTreeMap<SiteId, u32>;

impl Placements {
    /// The shared placement holding exactly `copies` (ascending by
    /// site); allocates only the first time a set is seen.
    fn intern(&mut self, copies: &[(SiteId, u32)]) -> Arc<Placement> {
        if let Some(shared) = self.0.get(copies) {
            return Arc::clone(shared);
        }
        let shared = Arc::new(copies.iter().copied().collect::<Placement>());
        self.0.insert(copies.to_vec(), Arc::clone(&shared));
        shared
    }
}

impl Catalog {
    /// Builds a catalog from specs, validating each, interning their
    /// placements and rejecting duplicate item ids.
    pub fn new(specs: impl IntoIterator<Item = ItemSpec>) -> Result<Self, VoteError> {
        Self::interned(specs, &mut Placements::default())
    }

    fn interned(
        specs: impl IntoIterator<Item = ItemSpec>,
        placements: &mut Placements,
    ) -> Result<Self, VoteError> {
        let mut specs: Vec<ItemSpec> = specs.into_iter().collect();
        let mut copies = Vec::new();
        for spec in &mut specs {
            spec.validate()?;
            copies.clear();
            copies.extend(spec.copies.iter().map(|(&s, &w)| (s, w)));
            spec.copies = placements.intern(&copies);
        }
        specs.sort_unstable_by_key(|spec| spec.id);
        if let Some(pair) = specs.windows(2).find(|pair| pair[0].id == pair[1].id) {
            return Err(VoteError::DuplicateItem(pair[0].id));
        }
        // Collected from sorted input, the index is bulk-built with
        // full nodes instead of split one insert at a time.
        let items = specs.into_iter().map(|spec| (spec.id, spec)).collect();
        Ok(Catalog { items })
    }

    /// Looks up an item's spec.
    pub fn item(&self, id: ItemId) -> Option<&ItemSpec> {
        self.items.get(&id)
    }

    /// Looks up an item's spec, panicking on unknown id (for internal use
    /// where the id is known to exist).
    pub fn expect_item(&self, id: ItemId) -> &ItemSpec {
        self.items
            .get(&id)
            .unwrap_or_else(|| panic!("unknown item {id}"))
    }

    /// Iterates over all items.
    pub fn items(&self) -> impl Iterator<Item = &ItemSpec> {
        self.items.values()
    }

    /// Number of items.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True when the catalog holds no items.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// The specs of the items stored (replicated) at a given site, in id
    /// order, walked lazily.
    pub fn items_at(&self, site: SiteId) -> impl Iterator<Item = &ItemSpec> {
        self.items
            .values()
            .filter(move |s| s.copies.contains_key(&site))
    }

    /// The participant set of a transaction: every site holding a copy of
    /// any item in its writeset. (The paper's commit protocol distributes
    /// update values "to all sites which contain data items to be
    /// updated".)
    pub fn participants(&self, writeset: impl IntoIterator<Item = ItemId>) -> BTreeSet<SiteId> {
        let mut out = BTreeSet::new();
        for id in writeset {
            if let Some(spec) = self.items.get(&id) {
                out.extend(spec.sites());
            }
        }
        out
    }

    /// Every site that stores at least one copy of anything.
    pub fn all_sites(&self) -> BTreeSet<SiteId> {
        let mut out = BTreeSet::new();
        for spec in self.items.values() {
            out.extend(spec.sites());
        }
        out
    }
}

/// Fluent builder for [`Catalog`].
///
/// ```
/// use qbc_votes::{CatalogBuilder, ItemId};
/// use qbc_simnet::SiteId;
///
/// let catalog = CatalogBuilder::new()
///     .item(ItemId(0), "x")
///     .copy(SiteId(1), 1)
///     .copy(SiteId(2), 1)
///     .copy(SiteId(3), 1)
///     .quorums(2, 2)
///     .build()
///     .unwrap();
/// assert_eq!(catalog.len(), 1);
/// ```
///
/// The current item's copies collect in one scratch list reused across
/// items and are interned when the next item starts, so a builder
/// allocates per distinct placement, not per item.
#[derive(Debug, Default)]
pub struct CatalogBuilder {
    done: Vec<ItemSpec>,
    current: Option<Started>,
    /// The current item's copies, ascending by site.
    copies: Vec<(SiteId, u32)>,
    placements: Placements,
}

/// The item a [`CatalogBuilder`] is filling in, bar its copies.
#[derive(Debug)]
struct Started {
    id: ItemId,
    name: String,
    read_quorum: u32,
    write_quorum: u32,
}

impl CatalogBuilder {
    /// Starts an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    fn flush(&mut self) {
        if let Some(item) = self.current.take() {
            self.done.push(ItemSpec {
                id: item.id,
                name: item.name,
                copies: self.placements.intern(&self.copies),
                read_quorum: item.read_quorum,
                write_quorum: item.write_quorum,
            });
            self.copies.clear();
        }
    }

    fn started(&mut self, call: &str) -> &mut Started {
        self.current
            .as_mut()
            .unwrap_or_else(|| panic!("call .item() before .{call}()"))
    }

    /// The current item's total votes.
    fn total_votes(&self) -> u32 {
        self.copies.iter().map(|&(_, w)| w).sum()
    }

    /// Starts a new item with the given id and name.
    pub fn item(mut self, id: ItemId, name: impl Into<String>) -> Self {
        self.flush();
        self.current = Some(Started {
            id,
            name: name.into(),
            read_quorum: 1,
            write_quorum: 1,
        });
        self
    }

    /// Places a copy of the current item at `site` with `weight` votes.
    ///
    /// # Panics
    /// Panics if no item was started.
    pub fn copy(mut self, site: SiteId, weight: u32) -> Self {
        self.started("copy");
        match self.copies.binary_search_by_key(&site, |&(s, _)| s) {
            Ok(i) => self.copies[i].1 = weight,
            Err(i) => self.copies.insert(i, (site, weight)),
        }
        self
    }

    /// Places unit-weight copies of the current item at every given site.
    pub fn copies_at(mut self, sites: impl IntoIterator<Item = SiteId>) -> Self {
        self.started("copies_at");
        for s in sites {
            self = self.copy(s, 1);
        }
        self
    }

    /// Sets `r(x)` and `w(x)` of the current item.
    ///
    /// # Panics
    /// Panics if no item was started.
    pub fn quorums(mut self, read: u32, write: u32) -> Self {
        let cur = self.started("quorums");
        cur.read_quorum = read;
        cur.write_quorum = write;
        self
    }

    /// Uses majority quorums for the current item:
    /// `w = floor(v/2)+1`, `r = v - w + 1` (minimal read quorum).
    pub fn majority(mut self) -> Self {
        let v = self.total_votes();
        let cur = self.started("majority");
        let w = v / 2 + 1;
        cur.read_quorum = v - w + 1;
        cur.write_quorum = w;
        self
    }

    /// Uses read-one/write-all quorums for the current item.
    pub fn read_one_write_all(mut self) -> Self {
        let v = self.total_votes();
        let cur = self.started("read_one_write_all");
        cur.read_quorum = 1;
        cur.write_quorum = v;
        self
    }

    /// Finishes, validating every item.
    pub fn build(mut self) -> Result<Catalog, VoteError> {
        self.flush();
        Catalog::interned(self.done, &mut self.placements)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The Example 1 configuration of the paper: items x and y, four
    /// unit-vote copies each, r = 2, w = 3.
    pub fn example1_catalog() -> Catalog {
        CatalogBuilder::new()
            .item(ItemId(0), "x")
            .copies_at([SiteId(1), SiteId(2), SiteId(3), SiteId(4)])
            .quorums(2, 3)
            .item(ItemId(1), "y")
            .copies_at([SiteId(5), SiteId(6), SiteId(7), SiteId(8)])
            .quorums(2, 3)
            .build()
            .expect("valid catalog")
    }

    #[test]
    fn example1_catalog_builds() {
        let c = example1_catalog();
        assert_eq!(c.len(), 2);
        let x = c.item(ItemId(0)).unwrap();
        assert_eq!(x.total_votes(), 4);
        assert_eq!(x.read_quorum, 2);
        assert_eq!(x.write_quorum, 3);
    }

    #[test]
    fn participants_unions_copy_sites() {
        let c = example1_catalog();
        let p = c.participants([ItemId(0), ItemId(1)]);
        assert_eq!(p.len(), 8);
        let px = c.participants([ItemId(0)]);
        assert_eq!(
            px,
            [SiteId(1), SiteId(2), SiteId(3), SiteId(4)]
                .into_iter()
                .collect()
        );
    }

    #[test]
    fn items_at_reports_placement() {
        let c = example1_catalog();
        let ids = |site| c.items_at(site).map(|s| s.id).collect::<Vec<_>>();
        assert_eq!(ids(SiteId(2)), [ItemId(0)]);
        assert_eq!(ids(SiteId(7)), [ItemId(1)]);
        assert!(ids(SiteId(99)).is_empty());
    }

    #[test]
    fn duplicate_item_rejected() {
        let r = CatalogBuilder::new()
            .item(ItemId(0), "x")
            .copy(SiteId(1), 1)
            .quorums(1, 1)
            .item(ItemId(0), "x2")
            .copy(SiteId(2), 1)
            .quorums(1, 1)
            .build();
        assert!(matches!(r, Err(VoteError::DuplicateItem(_))));
    }

    #[test]
    fn majority_quorums_satisfy_constraints() {
        let c = CatalogBuilder::new()
            .item(ItemId(0), "m")
            .copies_at([SiteId(0), SiteId(1), SiteId(2), SiteId(3), SiteId(4)])
            .majority()
            .build()
            .unwrap();
        let m = c.expect_item(ItemId(0));
        assert_eq!(m.write_quorum, 3);
        assert_eq!(m.read_quorum, 3);
    }

    #[test]
    fn read_one_write_all_satisfies_constraints() {
        let c = CatalogBuilder::new()
            .item(ItemId(0), "rowa")
            .copies_at([SiteId(0), SiteId(1), SiteId(2)])
            .read_one_write_all()
            .build()
            .unwrap();
        let m = c.expect_item(ItemId(0));
        assert_eq!(m.read_quorum, 1);
        assert_eq!(m.write_quorum, 3);
    }

    #[test]
    fn invalid_quorums_rejected_at_build() {
        let r = CatalogBuilder::new()
            .item(ItemId(0), "bad")
            .copies_at([SiteId(0), SiteId(1)])
            .quorums(1, 1)
            .build();
        assert!(r.is_err());
    }

    #[test]
    fn item_lookup_by_name_and_id() {
        let c = example1_catalog();
        assert_eq!(c.item(ItemId(1)).unwrap().name, "y");
        assert!(c.item(ItemId(5)).is_none());
    }

    #[test]
    fn equal_placements_share_one_allocation() {
        // Built out of order, with one weight overwritten: the copies
        // are compared as sets, whichever way they were added.
        let c = CatalogBuilder::new()
            .item(ItemId(0), "a")
            .copies_at([SiteId(2), SiteId(1)])
            .quorums(2, 2)
            .item(ItemId(1), "b")
            .copy(SiteId(1), 3)
            .copy(SiteId(2), 1)
            .copy(SiteId(1), 1)
            .quorums(2, 2)
            .item(ItemId(2), "c")
            .copies_at([SiteId(1), SiteId(3)])
            .quorums(2, 2)
            .build()
            .unwrap();
        let copies = |i| &c.expect_item(ItemId(i)).copies;
        assert!(Arc::ptr_eq(copies(0), copies(1)));
        assert!(!Arc::ptr_eq(copies(0), copies(2)));
        // Specs handed to `Catalog::new` directly are interned too.
        let rebuilt = Catalog::new(c.items().cloned().map(|mut spec| {
            spec.copies = Arc::new((*spec.copies).clone());
            spec
        }))
        .unwrap();
        assert_eq!(rebuilt, c);
        let copies = |i| &rebuilt.expect_item(ItemId(i)).copies;
        assert!(Arc::ptr_eq(copies(0), copies(1)));
    }
}
