//! The replicated-data catalog: every item's placement and quorums.

use crate::item::{slot_of, ItemId, ItemSpec, VoteError};
use qbc_simnet::SiteId;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// The full replication catalog of the database: one [`ItemSpec`] per
/// logical data item. Immutable once built, and shared rather than
/// copied: sites hold it behind one `Arc` per replica group (see
/// `NodeConfig::catalog` in `qbc-db`), so a cluster keeps one catalog
/// per shard however many sites it runs.
///
/// The specs sit in one id-sorted array. A lookup tries the slot its
/// id would have if the ids were contiguous and binary-searches when
/// they are not, so a dense catalog answers in one probe and a sparse
/// one still answers. Placements are interned: every item with the
/// same (site, weight) set shares one [`ItemSpec::copies`] allocation,
/// so an item costs its spec's slot and nothing more.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct Catalog {
    /// Every item's spec, ascending by id, no two alike.
    specs: Vec<ItemSpec>,
    /// Every placement some item uses (the very `Arc` its specs hold),
    /// with how many items use it, ascending by placement.
    placements: Vec<(Arc<Placement>, usize)>,
}

/// An item's copies: the vote weight at each site.
type Placement = BTreeMap<SiteId, u32>;

/// Interns placements and counts their items: one shared map per
/// distinct (site, weight) set, looked up by its entries in site order.
#[derive(Debug, Default)]
struct Placements {
    index: BTreeMap<Vec<(SiteId, u32)>, usize>,
    entries: Vec<Entry>,
}

/// One interned placement, the items placed on it so far, and the
/// quorum pairs already validated over it.
#[derive(Debug)]
struct Entry {
    copies: Arc<Placement>,
    items: usize,
    validated: Vec<(u32, u32)>,
}

impl Placements {
    /// The index of the shared placement holding exactly `copies`
    /// (ascending by site); allocates only the first time a set is
    /// seen.
    fn intern(&mut self, copies: &[(SiteId, u32)]) -> usize {
        if let Some(&i) = self.index.get(copies) {
            return i;
        }
        self.entries.push(Entry {
            copies: Arc::new(copies.iter().copied().collect()),
            items: 0,
            validated: Vec::new(),
        });
        self.index.insert(copies.to_vec(), self.entries.len() - 1);
        self.entries.len() - 1
    }

    /// [`Placements::intern`] for a placement held as a map.
    fn intern_map(&mut self, copies: &Placement, scratch: &mut Vec<(SiteId, u32)>) -> usize {
        scratch.clear();
        scratch.extend(copies.iter().map(|(&s, &w)| (s, w)));
        self.intern(scratch)
    }

    /// The shared map of placement `i`.
    fn copies(&self, i: usize) -> Arc<Placement> {
        Arc::clone(&self.entries[i].copies)
    }

    /// Counts `spec` against placement `i`, validating it unless an
    /// item with the same placement and quorums already passed. The
    /// checks read nothing else, so the items skipped would pass too,
    /// and a rejection still names the first invalid item.
    fn admit(&mut self, i: usize, spec: &ItemSpec) -> Result<(), VoteError> {
        let entry = &mut self.entries[i];
        let quorums = (spec.read_quorum, spec.write_quorum);
        if !entry.validated.contains(&quorums) {
            spec.validate()?;
            entry.validated.push(quorums);
        }
        entry.items += 1;
        Ok(())
    }

    /// Sorts interned, validated specs by id and rejects duplicates.
    fn finish(self, mut specs: Vec<ItemSpec>) -> Result<Catalog, VoteError> {
        // Strictly ascending input, the common case, is checked in one
        // pass and neither sorted nor searched for duplicates.
        if !specs.windows(2).all(|pair| pair[0].id < pair[1].id) {
            specs.sort_unstable_by_key(|spec| spec.id);
            if let Some(pair) = specs.windows(2).find(|pair| pair[0].id == pair[1].id) {
                return Err(VoteError::DuplicateItem(pair[0].id));
            }
        }
        let mut placements: Vec<_> = self
            .entries
            .into_iter()
            .filter(|entry| entry.items > 0)
            .map(|entry| (entry.copies, entry.items))
            .collect();
        placements.sort_unstable();
        Ok(Catalog { specs, placements })
    }
}

impl Catalog {
    /// Builds a catalog from specs, validating each, interning their
    /// placements and rejecting duplicate item ids.
    pub fn new(specs: impl IntoIterator<Item = ItemSpec>) -> Result<Self, VoteError> {
        let mut placements = Placements::default();
        let mut scratch = Vec::new();
        let specs = specs
            .into_iter()
            .map(|mut spec| {
                let i = placements.intern_map(&spec.copies, &mut scratch);
                spec.copies = placements.copies(i);
                placements.admit(i, &spec)?;
                Ok(spec)
            })
            .collect::<Result<Vec<_>, _>>()?;
        placements.finish(specs)
    }

    /// Builds a catalog whose items each take one of a few class specs:
    /// item `(id, c)` is `classes[c]` under its own id. A class is
    /// interned once and validated on its first item, and every item
    /// costs one slot; the result equals what [`Catalog::new`] builds
    /// from the expanded specs, errors included. Classes no item names
    /// are left out.
    ///
    /// # Panics
    /// When an item names a class past the end of `classes`.
    pub fn from_classes(
        classes: &[ItemSpec],
        items: impl IntoIterator<Item = (ItemId, usize)>,
    ) -> Result<Self, VoteError> {
        let mut placements = Placements::default();
        let mut scratch = Vec::new();
        let interned: Vec<usize> = classes
            .iter()
            .map(|class| placements.intern_map(&class.copies, &mut scratch))
            .collect();
        let items = items.into_iter();
        let mut specs = Vec::with_capacity(items.size_hint().0);
        for (id, c) in items {
            let class = &classes[c];
            let spec = ItemSpec {
                id,
                name: class.name.clone(),
                copies: placements.copies(interned[c]),
                read_quorum: class.read_quorum,
                write_quorum: class.write_quorum,
            };
            placements.admit(interned[c], &spec)?;
            specs.push(spec);
        }
        placements.finish(specs)
    }

    /// Looks up an item's spec.
    pub fn item(&self, id: ItemId) -> Option<&ItemSpec> {
        slot_of(&self.specs, id, |spec| spec.id).map(|i| &self.specs[i])
    }

    /// Looks up an item's spec, panicking on unknown id (for internal use
    /// where the id is known to exist).
    pub fn expect_item(&self, id: ItemId) -> &ItemSpec {
        self.item(id).unwrap_or_else(|| panic!("unknown item {id}"))
    }

    /// Iterates over all items, in id order.
    pub fn items(&self) -> impl Iterator<Item = &ItemSpec> {
        self.specs.iter()
    }

    /// Number of items.
    pub fn len(&self) -> usize {
        self.specs.len()
    }

    /// True when the catalog holds no items.
    pub fn is_empty(&self) -> bool {
        self.specs.is_empty()
    }

    /// Every distinct placement the items use, each with the number of
    /// items placed on it, ascending by placement. The maps are the
    /// ones the specs share, so a placement holds every site that some
    /// class of items is replicated at, once.
    pub fn placements(&self) -> impl Iterator<Item = (&Arc<BTreeMap<SiteId, u32>>, usize)> {
        self.placements.iter().map(|(copies, n)| (copies, *n))
    }

    /// The specs of the items stored (replicated) at a given site, in id
    /// order, walked lazily. The site's placements are found once; an
    /// item then costs a pointer comparison per placement.
    pub fn items_at(&self, site: SiteId) -> impl Iterator<Item = &ItemSpec> {
        let here: Vec<&Arc<Placement>> = self
            .placements
            .iter()
            .filter(|(copies, _)| copies.contains_key(&site))
            .map(|(copies, _)| copies)
            .collect();
        self.specs
            .iter()
            .filter(move |spec| here.iter().any(|p| Arc::ptr_eq(p, &spec.copies)))
    }

    /// The participant set of a transaction: every site holding a copy of
    /// any item in its writeset. (The paper's commit protocol distributes
    /// update values "to all sites which contain data items to be
    /// updated".)
    pub fn participants(&self, writeset: impl IntoIterator<Item = ItemId>) -> BTreeSet<SiteId> {
        let mut out = BTreeSet::new();
        for id in writeset {
            if let Some(spec) = self.item(id) {
                out.extend(spec.sites());
            }
        }
        out
    }

    /// Every site that stores at least one copy of anything.
    pub fn all_sites(&self) -> BTreeSet<SiteId> {
        let mut out = BTreeSet::new();
        for (copies, _) in &self.placements {
            out.extend(copies.keys().copied());
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
    /// Finished items, interned and each with its placement's index.
    done: Vec<(usize, ItemSpec)>,
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
            let i = self.placements.intern(&self.copies);
            self.done.push((
                i,
                ItemSpec {
                    id: item.id,
                    name: item.name,
                    copies: self.placements.copies(i),
                    read_quorum: item.read_quorum,
                    write_quorum: item.write_quorum,
                },
            ));
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

    /// Finishes, validating every item: once per distinct placement
    /// and quorum pair, since the checks read nothing else.
    pub fn build(mut self) -> Result<Catalog, VoteError> {
        self.flush();
        let mut specs = Vec::with_capacity(self.done.len());
        for (i, spec) in self.done {
            self.placements.admit(i, &spec)?;
            specs.push(spec);
        }
        self.placements.finish(specs)
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
