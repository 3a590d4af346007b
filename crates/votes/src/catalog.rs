//! The replicated-data catalog: every item's placement and quorums.

use crate::item::{slot_of, ItemClass, ItemId, ItemRef, ItemSpec, VoteError};
use qbc_simnet::SiteId;
use std::collections::{BTreeMap, BTreeSet};
use std::slice;
use std::sync::Arc;

/// The full replication catalog of the database: every logical data
/// item's placement and quorums. Immutable once built, and shared
/// rather than copied: sites hold it behind one `Arc` per replica group
/// (see `NodeConfig::catalog` in `qbc-db`), so a cluster keeps one
/// catalog per shard however many sites it runs.
///
/// An item is an (id, class) slot: one id-sorted column holds each
/// item's id beside the index of its [`ItemClass`], 8 B an item, with
/// no pointer and no name. A class is one validated (placement, `r`, `w`)
/// row, and placements are interned, so every class with the same
/// (site, weight) set shares one map. A lookup tries the slot its id
/// would have if the ids were contiguous and binary-searches when they
/// are not, so a dense catalog answers in one probe and a sparse one
/// still answers; it hands out an [`ItemRef`], the id and its class.
#[derive(Clone, Debug, Default)]
pub struct Catalog {
    /// Every item's id and its class (an index into `classes`),
    /// ascending by id, no two ids alike.
    slots: Vec<Slot>,
    /// Every class some item takes, each validated.
    classes: Vec<ItemClass>,
    /// Every placement some item uses (the very `Arc` its classes
    /// hold), with how many items use it, ascending by placement.
    placements: Vec<(Arc<Placement>, usize)>,
}

/// Item by item, so two catalogs holding the same items are equal
/// however their classes are numbered.
impl PartialEq for Catalog {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.items().eq(other.items())
    }
}

impl Eq for Catalog {}

/// An item's copies: the vote weight at each site.
type Placement = BTreeMap<SiteId, u32>;

/// An item in a catalog: its id and the index of its class.
type Slot = (ItemId, u32);

/// Interns placements and classes while a catalog is built: one shared
/// map per distinct (site, weight) set, looked up by its entries in
/// site order, and one class per distinct (placement, `r`, `w`).
#[derive(Debug, Default)]
struct Interner {
    index: BTreeMap<Vec<(SiteId, u32)>, usize>,
    /// Each interned placement, with the classes on it.
    placements: Vec<(Arc<Placement>, Vec<u32>)>,
    /// Each class, with its placement's index.
    classes: Vec<(usize, ItemClass)>,
}

impl Interner {
    /// The index of the shared placement holding exactly `copies`
    /// (ascending by site); allocates only the first time a set is
    /// seen.
    fn placement(&mut self, copies: &[(SiteId, u32)]) -> usize {
        if let Some(&i) = self.index.get(copies) {
            return i;
        }
        let i = self.placements.len();
        let shared = Arc::new(copies.iter().copied().collect());
        self.placements.push((shared, Vec::new()));
        self.index.insert(copies.to_vec(), i);
        i
    }

    /// The index of the class with `spec`'s placement and quorums.
    fn class_of(&mut self, spec: &ItemSpec, scratch: &mut Vec<(SiteId, u32)>) -> u32 {
        scratch.clear();
        scratch.extend(spec.copies.iter().map(|(&s, &w)| (s, w)));
        let p = self.placement(scratch);
        self.class(p, spec.read_quorum, spec.write_quorum)
    }

    /// The index of the class on placement `p` with quorums `r` and
    /// `w`, added the first time it is seen. A placement carries one or
    /// two quorum pairs, so a scan of its own classes finds it.
    fn class(&mut self, p: usize, r: u32, w: u32) -> u32 {
        let (copies, on_p) = &mut self.placements[p];
        let found = on_p.iter().copied().find(|&c| {
            let class = &self.classes[c as usize].1;
            (class.read_quorum, class.write_quorum) == (r, w)
        });
        found.unwrap_or_else(|| {
            let c = self.classes.len() as u32;
            on_p.push(c);
            let class = ItemClass {
                copies: Arc::clone(copies),
                read_quorum: r,
                write_quorum: w,
            };
            self.classes.push((p, class));
            c
        })
    }

    /// Validates each class on its first item, in input order, sorts
    /// the slots by id, rejects duplicates and drops the classes and
    /// placements no item takes. The checks read the class alone, so
    /// the items skipped would pass too, and a rejection names the
    /// first invalid item.
    fn finish(self, mut slots: Vec<Slot>) -> Result<Catalog, VoteError> {
        // One pass counts the classes' items and checks that the ids
        // ascend strictly, the common case, which is then neither
        // sorted nor searched for duplicates.
        let mut counts = vec![0usize; self.classes.len()];
        let (mut ascending, mut least_next) = (true, 0u64);
        for &(id, c) in &slots {
            let n = &mut counts[c as usize];
            if *n == 0 {
                self.classes[c as usize].1.validate(id)?;
            }
            *n += 1;
            ascending &= u64::from(id.0) >= least_next;
            least_next = u64::from(id.0) + 1;
        }
        if !ascending {
            slots.sort_unstable_by_key(|&(id, _)| id);
            if let Some(pair) = slots.windows(2).find(|pair| pair[0].0 == pair[1].0) {
                return Err(VoteError::DuplicateItem(pair[0].0));
            }
        }
        let mut per_placement = vec![0; self.placements.len()];
        let mut renumber = Vec::with_capacity(counts.len());
        let mut classes = Vec::with_capacity(counts.len());
        for ((p, class), n) in self.classes.into_iter().zip(counts) {
            per_placement[p] += n;
            renumber.push(classes.len() as u32);
            if n > 0 {
                classes.push(class);
            }
        }
        if classes.len() < renumber.len() {
            for (_, c) in &mut slots {
                *c = renumber[*c as usize];
            }
        }
        let mut placements: Vec<_> = self
            .placements
            .into_iter()
            .zip(per_placement)
            .filter(|&(_, n)| n > 0)
            .map(|((copies, _), n)| (copies, n))
            .collect();
        placements.sort_unstable();
        Ok(Catalog {
            slots,
            classes,
            placements,
        })
    }
}

impl Catalog {
    /// Builds a catalog whose items each take one of a few class specs:
    /// item `(id, c)` is `classes[c]` under its own id (the specs' own
    /// ids are ignored). The classes are interned first, and an item
    /// then costs its slot; the result equals what a
    /// [`CatalogBuilder`] builds from the expanded items, errors
    /// included. Classes no item names are left out.
    ///
    /// # Panics
    /// When an item names a class past the end of `classes`.
    pub fn from_classes(
        classes: &[ItemSpec],
        items: impl IntoIterator<Item = (ItemId, usize)>,
    ) -> Result<Self, VoteError> {
        let mut interner = Interner::default();
        let mut scratch = Vec::new();
        let interned: Vec<u32> = classes
            .iter()
            .map(|class| interner.class_of(class, &mut scratch))
            .collect();
        let slots = items.into_iter().map(|(id, c)| (id, interned[c])).collect();
        interner.finish(slots)
    }

    /// The item in slot `i`.
    fn at(&self, i: usize) -> ItemRef<'_> {
        let (id, c) = self.slots[i];
        ItemRef::new(id, &self.classes[c as usize])
    }

    /// Looks up an item.
    pub fn item(&self, id: ItemId) -> Option<ItemRef<'_>> {
        slot_of(&self.slots, id, |&(id, _)| id).map(|i| self.at(i))
    }

    /// Looks up an item, panicking on unknown id (for internal use
    /// where the id is known to exist).
    pub fn expect_item(&self, id: ItemId) -> ItemRef<'_> {
        self.item(id).unwrap_or_else(|| panic!("unknown item {id}"))
    }

    /// Iterates over all items, in id order.
    pub fn items(&self) -> impl ExactSizeIterator<Item = ItemRef<'_>> {
        let class = |c: u32| &self.classes[c as usize];
        self.slots
            .iter()
            .map(move |&(id, c)| ItemRef::new(id, class(c)))
    }

    /// Number of items.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True when the catalog holds no items.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Every distinct placement the items use, each with the number of
    /// items placed on it, ascending by placement. The maps are the
    /// ones the classes share, so a placement holds every site that
    /// some class of items is replicated at, once.
    pub fn placements(&self) -> impl Iterator<Item = (&Arc<BTreeMap<SiteId, u32>>, usize)> {
        self.placements.iter().map(|(copies, n)| (copies, *n))
    }

    /// The items stored (replicated) at a given site, in id order,
    /// walked lazily. The site's classes and its number of copies are
    /// found once from the placements; an item then costs a look at its
    /// class index, and the walk knows its exact length.
    pub fn items_at(&self, site: SiteId) -> impl ExactSizeIterator<Item = ItemRef<'_>> {
        let here = self
            .classes
            .iter()
            .map(|class| class.copies.contains_key(&site).then_some(class))
            .collect();
        let left = self
            .placements()
            .filter(|(copies, _)| copies.contains_key(&site))
            .map(|(_, n)| n)
            .sum();
        ItemsAt {
            slots: self.slots.iter(),
            here,
            left,
        }
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

/// The items of a [`Catalog`] with a copy at one site, in id order
/// ([`Catalog::items_at`]). Its length is known from the start, so
/// collecting it allocates once.
struct ItemsAt<'a> {
    /// The slots not looked at yet.
    slots: slice::Iter<'a, Slot>,
    /// Each class, when it has a copy at the site.
    here: Vec<Option<&'a ItemClass>>,
    /// Items still to yield.
    left: usize,
}

impl<'a> Iterator for ItemsAt<'a> {
    type Item = ItemRef<'a>;

    fn next(&mut self) -> Option<ItemRef<'a>> {
        // `left` counts the matching slots still ahead, so the scan
        // ends on the last of them.
        if self.left == 0 {
            return None;
        }
        for &(id, c) in self.slots.by_ref() {
            if let Some(class) = self.here[c as usize] {
                self.left -= 1;
                return Some(ItemRef::new(id, class));
            }
        }
        None
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }
}

impl ExactSizeIterator for ItemsAt<'_> {}

/// Fluent builder for [`Catalog`].
///
/// ```
/// use qbc_votes::{CatalogBuilder, ItemId};
/// use qbc_simnet::SiteId;
///
/// let catalog = CatalogBuilder::new()
///     .item(ItemId(0))
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
/// items, and the item is interned into its class when the next item
/// starts, so a builder allocates per distinct placement, not per item.
#[derive(Debug, Default)]
pub struct CatalogBuilder {
    /// Finished items, in the order they were added.
    slots: Vec<Slot>,
    current: Option<Started>,
    /// The current item's copies, ascending by site.
    copies: Vec<(SiteId, u32)>,
    interner: Interner,
}

/// The item a [`CatalogBuilder`] is filling in, bar its copies.
#[derive(Debug)]
struct Started {
    id: ItemId,
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
            let p = self.interner.placement(&self.copies);
            let c = self.interner.class(p, item.read_quorum, item.write_quorum);
            self.slots.push((item.id, c));
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

    /// Starts a new item with the given id.
    pub fn item(mut self, id: ItemId) -> Self {
        self.flush();
        self.current = Some(Started {
            id,
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

    /// Finishes, validating every item: once per class, since the
    /// checks read nothing else.
    pub fn build(mut self) -> Result<Catalog, VoteError> {
        self.flush();
        self.interner.finish(self.slots)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The Example 1 configuration of the paper: items x and y, four
    /// unit-vote copies each, r = 2, w = 3.
    pub fn example1_catalog() -> Catalog {
        CatalogBuilder::new()
            .item(ItemId(0))
            .copies_at([SiteId(1), SiteId(2), SiteId(3), SiteId(4)])
            .quorums(2, 3)
            .item(ItemId(1))
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
            .item(ItemId(0))
            .copy(SiteId(1), 1)
            .quorums(1, 1)
            .item(ItemId(0))
            .copy(SiteId(2), 1)
            .quorums(1, 1)
            .build();
        assert!(matches!(r, Err(VoteError::DuplicateItem(_))));
    }

    #[test]
    fn majority_quorums_satisfy_constraints() {
        let c = CatalogBuilder::new()
            .item(ItemId(0))
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
            .item(ItemId(0))
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
            .item(ItemId(0))
            .copies_at([SiteId(0), SiteId(1)])
            .quorums(1, 1)
            .build();
        assert!(r.is_err());
    }

    #[test]
    fn item_lookup_by_id() {
        let c = example1_catalog();
        let y = c.item(ItemId(1)).unwrap();
        assert_eq!(y.id, ItemId(1));
        assert!(y.copies.contains_key(&SiteId(5)));
        assert!(c.item(ItemId(5)).is_none());
    }

    #[test]
    fn equal_placements_share_one_allocation() {
        // Built out of order, with one weight overwritten: the copies
        // are compared as sets, whichever way they were added.
        let c = CatalogBuilder::new()
            .item(ItemId(0))
            .copies_at([SiteId(2), SiteId(1)])
            .quorums(2, 2)
            .item(ItemId(1))
            .copy(SiteId(1), 3)
            .copy(SiteId(2), 1)
            .copy(SiteId(1), 1)
            .quorums(2, 2)
            .item(ItemId(2))
            .copies_at([SiteId(1), SiteId(3)])
            .quorums(2, 2)
            .build()
            .unwrap();
        let copies = |i| Arc::clone(&c.expect_item(ItemId(i)).copies);
        assert!(Arc::ptr_eq(&copies(0), &copies(1)));
        assert!(!Arc::ptr_eq(&copies(0), &copies(2)));
        // Classes handed to `from_classes` with private copies of one
        // placement are interned too.
        let classes: Vec<ItemSpec> = c
            .items()
            .map(ItemSpec::from)
            .map(|mut spec| {
                spec.copies = Arc::new((*spec.copies).clone());
                spec
            })
            .collect();
        let rebuilt =
            Catalog::from_classes(&classes, classes.iter().enumerate().map(|(k, s)| (s.id, k)))
                .unwrap();
        assert_eq!(rebuilt, c);
        let copies = |i| Arc::clone(&rebuilt.expect_item(ItemId(i)).copies);
        assert!(Arc::ptr_eq(&copies(0), &copies(1)));
    }
}
