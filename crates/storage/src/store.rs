//! Versioned item store.
//!
//! Each site durably stores the copies it replicates, tagged with
//! Gifford version numbers: "Version numbers are used to identify the
//! most recent copy" (paper, §2). Writes carry the version computed by
//! the writing transaction (max version read + 1); the store rejects
//! regressions, making replica divergence detectable.
//!
//! The store is multi-version: each item keeps a bounded chain of
//! committed `(version, value)` pairs in ascending version order, so
//! snapshot reads can answer at a commit-stable watermark while the
//! newest version is still pinned by the commit protocol. The chain
//! length is bounded by `retention` (default 1, i.e. the classic
//! single-slot behaviour) and further trimmed by [`VersionedStore::
//! gc_below`] once a watermark has passed a version.
//!
//! A copy costs one slot, not an allocation: the newest version of
//! every copy lives in one dense id-sorted array, and only items that
//! actually retain older versions (retention > 1) get a side entry. A
//! site's store is built in one bulk pass ([`VersionedStore::load`]).

use qbc_votes::{slot_of, FastMap, ItemId, Version};

/// Error applying a versioned write.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StoreError {
    /// An update carried a version not newer than the stored copy.
    VersionRegression {
        /// Item being written.
        item: ItemId,
        /// Version currently stored.
        stored: Version,
        /// Version offered by the write.
        offered: Version,
    },
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::VersionRegression {
                item,
                stored,
                offered,
            } => write!(
                f,
                "version regression on {item}: stored {stored:?}, offered {offered:?}"
            ),
        }
    }
}

impl std::error::Error for StoreError {}

/// A durable map from item to a bounded chain of `(version, value)`
/// pairs (ascending, newest last) for the copies a site replicates.
///
/// Layout: `ids` is the ascending array of held item ids (4 bytes a
/// copy; a lookup probes the slot the id would have without gaps, and
/// binary-searches only when that slot holds another id) and
/// `newest` the parallel array of each copy's newest `(version,
/// value)`, the version as its bare number. A site builds both in one
/// pass with [`VersionedStore::load`]: the ids from an exact-size walk
/// of its catalog, the newest array allocated zeroed — every copy
/// starts at `Version::INITIAL`, so an initial value whose default is
/// all zero bytes (the `i64` 0) writes nothing. Versions older than
/// the newest sit in `older`, keyed by item, only for items that
/// retain any — with the default retention of 1 it stays empty.
/// Iteration walks the dense arrays in id order, so no observer sees
/// hash order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct VersionedStore<V> {
    ids: Vec<ItemId>,
    newest: Vec<Newest<V>>,
    older: FastMap<ItemId, Vec<(Version, V)>>,
    retention: usize,
}

/// A copy's newest `(version, value)`, the version as its bare number:
/// a tuple of plain integers is what `vec!` allocates zeroed.
type Newest<V> = (u64, V);

impl<V> Default for VersionedStore<V> {
    fn default() -> Self {
        VersionedStore {
            ids: Vec::new(),
            newest: Vec::new(),
            older: FastMap::default(),
            retention: 1,
        }
    }
}

impl<V> VersionedStore<V> {
    /// An empty store retaining one version per item (the classic
    /// single-slot behaviour).
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty store retaining up to `retention` versions per item
    /// (clamped to at least 1).
    pub fn with_retention(retention: usize) -> Self {
        VersionedStore {
            retention: retention.max(1),
            ..Self::default()
        }
    }

    /// A store holding a copy of each of `ids` at `Version::INITIAL`
    /// with value `value(id)`, retaining one version per item. The ids
    /// come from an exact-size walk (a site's
    /// [`qbc_votes::Catalog::items_at`]), so each array is allocated
    /// once; ids out of order are sorted and repeats kept once. The
    /// newest array is allocated zeroed, and a value equal to
    /// `V::default()` is not written: when that default is all zero
    /// bytes, loading touches the id array alone.
    pub fn load(ids: impl ExactSizeIterator<Item = ItemId>, value: impl Fn(ItemId) -> V) -> Self
    where
        V: Clone + Default + PartialEq,
    {
        let mut ids: Vec<ItemId> = ids.collect();
        if !ids.windows(2).all(|pair| pair[0] < pair[1]) {
            ids.sort_unstable();
            ids.dedup();
        }
        let zero = V::default();
        let mut newest = vec![(Version::INITIAL.0, zero.clone()); ids.len()];
        for ((_, slot), &id) in newest.iter_mut().zip(&ids) {
            let v = value(id);
            if v != zero {
                *slot = v;
            }
        }
        VersionedStore {
            ids,
            newest,
            ..Self::default()
        }
    }

    /// Changes the retention bound (clamped to at least 1). Existing
    /// chains are trimmed lazily on the next write to each item.
    pub fn set_retention(&mut self, retention: usize) {
        self.retention = retention.max(1);
    }

    /// Maximum number of versions retained per item.
    pub fn retention(&self) -> usize {
        self.retention
    }

    /// The slot of `item` in the dense arrays: its offset from the
    /// first id when the held ids run without gaps, a binary search
    /// otherwise.
    fn slot(&self, item: ItemId) -> Option<usize> {
        slot_of(&self.ids, item, |&id| id)
    }

    /// The retained versions of `item` older than its newest.
    fn older_of(&self, item: ItemId) -> &[(Version, V)] {
        if self.older.is_empty() {
            return &[];
        }
        self.older.get(&item).map_or(&[], Vec::as_slice)
    }

    /// Makes `(version, value)` the only retained version of `item`:
    /// an append when ids arrive ascending, an ordered insert
    /// otherwise.
    fn place(&mut self, item: ItemId, (version, value): (Version, V)) {
        let entry = (version.0, value);
        if self.ids.last().is_none_or(|&last| last < item) {
            self.ids.push(item);
            self.newest.push(entry);
            return;
        }
        match self.ids.binary_search(&item) {
            Ok(i) => {
                self.newest[i] = entry;
                self.older.remove(&item);
            }
            Err(i) => {
                self.ids.insert(i, item);
                self.newest.insert(i, entry);
            }
        }
    }

    /// Initialises a copy at `Version::INITIAL`, one at a time;
    /// [`VersionedStore::load`] builds a whole site's copies at once.
    pub fn initialize(&mut self, item: ItemId, value: V) {
        self.place(item, (Version::INITIAL, value));
    }

    /// The newest stored `(version, value)` of an item, if this site
    /// has a copy.
    pub fn read(&self, item: ItemId) -> Option<(Version, &V)> {
        let (v, val) = &self.newest[self.slot(item)?];
        Some((Version(*v), val))
    }

    /// The newest stored version ≤ `at`, or — when every retained
    /// version is newer — the oldest retained version. The fallback
    /// keeps reads total (a copy always answers) and monotone per
    /// site: a chain's oldest entry only ever advances.
    pub fn read_at(&self, item: ItemId, at: Version) -> Option<(Version, &V)> {
        let (v, val) = &self.newest[self.slot(item)?];
        let newest = (Version(*v), val);
        if newest.0 <= at {
            return Some(newest);
        }
        let older = self.older_of(item);
        let found = older.iter().rev().find(|(v, _)| *v <= at).or(older.first());
        Some(found.map_or(newest, |(v, val)| (*v, val)))
    }

    /// The newest stored version only.
    pub fn version(&self, item: ItemId) -> Option<Version> {
        self.read(item).map(|(v, _)| v)
    }

    /// The full retained chain of an item, ascending by version.
    pub fn versions(&self, item: ItemId) -> Option<impl Iterator<Item = (Version, &V)>> {
        let (v, val) = &self.newest[self.slot(item)?];
        Some(
            self.older_of(item)
                .iter()
                .map(|(v, val)| (*v, val))
                .chain(std::iter::once((Version(*v), val))),
        )
    }

    /// Applies a committed write. The offered version must exceed the
    /// newest stored one (write quorums make concurrent equal versions
    /// impossible; a regression indicates a protocol bug). Superseded
    /// versions beyond the retention bound are dropped oldest-first.
    pub fn apply(&mut self, item: ItemId, version: Version, value: V) -> Result<(), StoreError> {
        let Some(i) = self.slot(item) else {
            self.place(item, (version, value));
            return Ok(());
        };
        let stored = Version(self.newest[i].0);
        if stored >= version {
            return Err(StoreError::VersionRegression {
                item,
                stored,
                offered: version,
            });
        }
        let (_, superseded) = std::mem::replace(&mut self.newest[i], (version.0, value));
        if self.retention > 1 {
            let older = self.older.entry(item).or_default();
            older.push((stored, superseded));
            if older.len() >= self.retention {
                let excess = older.len() + 1 - self.retention;
                older.drain(..excess);
            }
        } else if !self.older.is_empty() {
            self.older.remove(&item);
        }
        Ok(())
    }

    /// Drops versions made unreachable by a watermark: for each item,
    /// entries strictly older than the newest version ≤ `watermark`
    /// can never be returned by [`VersionedStore::read_at`] again (the
    /// watermark is monotone) and are discarded. Entries newer than
    /// the watermark, and the newest-≤-watermark entry itself, stay.
    pub fn gc_below(&mut self, watermark: Version) {
        let (ids, newest) = (&self.ids, &self.newest);
        self.older.retain(|item, older| {
            let Ok(i) = ids.binary_search(item) else {
                return false;
            };
            if Version(newest[i].0) <= watermark {
                return false;
            }
            if let Some(keep_from) = older.iter().rposition(|(v, _)| *v <= watermark) {
                older.drain(..keep_from);
            }
            true
        });
    }

    /// Installs a recovered chain wholesale (checkpoint recovery). The
    /// chain must be ascending; entries at or below the newest already
    /// stored version are ignored via [`VersionedStore::apply`] rules,
    /// so reinstalling is a no-op. When every stored version is older
    /// than the chain's oldest — a store reloaded from scratch under a
    /// snapshot taken later — the stored versions are dropped first:
    /// they had been trimmed from the copy before the snapshot was
    /// taken, and must not resurface beneath it.
    pub fn install_chain(&mut self, item: ItemId, chain: impl IntoIterator<Item = (Version, V)>) {
        let mut chain = chain.into_iter();
        let Some(oldest) = chain.next() else {
            return;
        };
        match self.slot(item) {
            Some(i) if Version(self.newest[i].0) < oldest.0 => self.place(item, oldest),
            _ => {
                let _ = self.apply(item, oldest.0, oldest.1);
            }
        }
        for (v, val) in chain {
            let _ = self.apply(item, v, val);
        }
    }

    /// Items this site holds copies of, in id order.
    pub fn items(&self) -> impl Iterator<Item = ItemId> + '_ {
        self.ids.iter().copied()
    }

    /// Every retained `(item, version, value)`, ascending by item and
    /// then by version: one pass over the dense arrays, with a side
    /// lookup only while some item retains older versions.
    pub fn entries(&self) -> impl Iterator<Item = (ItemId, Version, &V)> {
        self.ids
            .iter()
            .zip(&self.newest)
            .flat_map(move |(&item, (v, val))| {
                self.older_of(item)
                    .iter()
                    .map(move |(v, val)| (item, *v, val))
                    .chain(std::iter::once((item, Version(*v), val)))
            })
    }

    /// The number of items [`VersionedStore::entries`] yields, without
    /// walking them.
    pub fn entry_count(&self) -> usize {
        self.ids.len() + self.older.values().map(Vec::len).sum::<usize>()
    }

    /// Number of items with at least one copy stored.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// True when no copies are stored.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain(s: &VersionedStore<i64>, item: ItemId) -> Vec<Version> {
        s.versions(item).unwrap().map(|(v, _)| v).collect()
    }

    #[test]
    fn initialize_and_read() {
        let mut s = VersionedStore::new();
        s.initialize(ItemId(1), 100i64);
        assert_eq!(s.read(ItemId(1)), Some((Version::INITIAL, &100)));
        assert_eq!(s.read(ItemId(2)), None);
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn load_equals_initializing_each_copy() {
        let value = |id: ItemId| {
            if id.0.is_multiple_of(3) {
                0
            } else {
                id.0 as i64 * 10
            }
        };
        let mut one_by_one = VersionedStore::new();
        for id in [1, 2, 3, 5, 6, 9].map(ItemId) {
            one_by_one.initialize(id, value(id));
        }
        let loaded = VersionedStore::load([1, 2, 3, 5, 6, 9].map(ItemId).into_iter(), value);
        assert_eq!(loaded, one_by_one);
        assert_eq!(loaded.read(ItemId(5)), Some((Version::INITIAL, &50)));
        assert_eq!(loaded.read(ItemId(6)), Some((Version::INITIAL, &0)));
        assert_eq!(loaded.read(ItemId(4)), None);
        // Out of order and repeated, as `initialize` takes them.
        let shuffled = [9, 2, 6, 1, 5, 3, 2].map(ItemId).into_iter();
        assert_eq!(VersionedStore::load(shuffled, value), one_by_one);
    }

    #[test]
    fn items_are_listed_in_id_order() {
        let mut s = VersionedStore::new();
        s.initialize(ItemId(3), 0i64);
        s.initialize(ItemId(1), 0i64);
        let items: Vec<ItemId> = s.items().collect();
        assert_eq!(items, vec![ItemId(1), ItemId(3)]);
    }

    #[test]
    fn apply_advances_version() {
        let mut s = VersionedStore::new();
        s.initialize(ItemId(1), 0i64);
        s.apply(ItemId(1), Version(1), 5).unwrap();
        assert_eq!(s.read(ItemId(1)), Some((Version(1), &5)));
        assert_eq!(s.version(ItemId(1)), Some(Version(1)));
    }

    #[test]
    fn regression_rejected() {
        let mut s = VersionedStore::new();
        s.initialize(ItemId(1), 0i64);
        s.apply(ItemId(1), Version(3), 5).unwrap();
        let err = s.apply(ItemId(1), Version(3), 9).unwrap_err();
        assert!(matches!(err, StoreError::VersionRegression { .. }));
        let err = s.apply(ItemId(1), Version(2), 9).unwrap_err();
        assert!(matches!(err, StoreError::VersionRegression { .. }));
        // Value unchanged.
        assert_eq!(s.read(ItemId(1)), Some((Version(3), &5)));
    }

    #[test]
    fn apply_to_missing_item_creates_copy() {
        // A site may receive a copy it did not originally host (e.g. on
        // catalog extension); apply installs it.
        let mut s = VersionedStore::new();
        s.apply(ItemId(9), Version(4), "v").unwrap();
        assert_eq!(s.read(ItemId(9)), Some((Version(4), &"v")));
    }

    #[test]
    fn default_retention_keeps_single_slot_semantics() {
        let mut s = VersionedStore::new();
        s.initialize(ItemId(1), 0i64);
        for v in 1..=5u64 {
            s.apply(ItemId(1), Version(v), v as i64).unwrap();
            assert_eq!(chain(&s, ItemId(1)).len(), 1);
        }
        assert_eq!(s.read(ItemId(1)), Some((Version(5), &5)));
        // With only the newest retained, read_at below it falls back
        // to the oldest retained entry (which is the newest).
        assert_eq!(s.read_at(ItemId(1), Version(2)), Some((Version(5), &5)));
    }

    #[test]
    fn retention_bounds_chain_and_read_at_picks_newest_leq() {
        let mut s = VersionedStore::with_retention(3);
        s.initialize(ItemId(1), 0i64);
        for v in 1..=5u64 {
            s.apply(ItemId(1), Version(v), v as i64 * 10).unwrap();
        }
        // Chain holds versions 3, 4, 5.
        assert_eq!(
            chain(&s, ItemId(1)),
            vec![Version(3), Version(4), Version(5)]
        );
        assert_eq!(s.read_at(ItemId(1), Version(4)), Some((Version(4), &40)));
        assert_eq!(s.read_at(ItemId(1), Version(9)), Some((Version(5), &50)));
        // Below the oldest retained: fall back to the oldest.
        assert_eq!(s.read_at(ItemId(1), Version(1)), Some((Version(3), &30)));
        assert_eq!(s.read_at(ItemId(2), Version(1)), None);
    }

    #[test]
    fn gc_below_drops_superseded_versions_only() {
        let mut s = VersionedStore::with_retention(8);
        s.initialize(ItemId(1), 0i64);
        for v in 1..=4u64 {
            s.apply(ItemId(1), Version(v), v as i64).unwrap();
        }
        s.gc_below(Version(2));
        // Version 2 (newest ≤ watermark) and everything newer survive.
        assert_eq!(
            chain(&s, ItemId(1)),
            vec![Version(2), Version(3), Version(4)]
        );
        assert_eq!(s.read_at(ItemId(1), Version(2)), Some((Version(2), &2)));
        // A watermark below every entry drops nothing.
        let mut s2 = VersionedStore::with_retention(4);
        s2.apply(ItemId(1), Version(5), 1i64).unwrap();
        s2.apply(ItemId(1), Version(6), 2).unwrap();
        s2.gc_below(Version(3));
        assert_eq!(chain(&s2, ItemId(1)).len(), 2);
    }

    #[test]
    fn install_chain_is_idempotent_and_ordered() {
        let mut s = VersionedStore::with_retention(4);
        s.install_chain(ItemId(1), [(Version(1), 10i64), (Version(3), 30)]);
        // Re-installing (recovery replay) is a no-op.
        s.install_chain(ItemId(1), [(Version(1), 10), (Version(3), 30)]);
        assert_eq!(chain(&s, ItemId(1)), vec![Version(1), Version(3)]);
        assert_eq!(s.read_at(ItemId(1), Version(2)), Some((Version(1), &10)));
    }

    #[test]
    fn install_chain_over_a_reloaded_copy_drops_what_it_superseded() {
        // A store reloaded at the initial version, then handed a
        // snapshot whose chain had already trimmed that version.
        let mut s = VersionedStore::with_retention(4);
        s.initialize(ItemId(1), 0i64);
        s.install_chain(ItemId(1), [(Version(5), 50), (Version(6), 60)]);
        assert_eq!(chain(&s, ItemId(1)), vec![Version(5), Version(6)]);
        assert_eq!(s.read_at(ItemId(1), Version(0)), Some((Version(5), &50)));
        // A chain reaching back to the held version only appends.
        s.install_chain(ItemId(1), [(Version(6), 60), (Version(7), 70)]);
        assert_eq!(
            chain(&s, ItemId(1)),
            vec![Version(5), Version(6), Version(7)]
        );
    }

    #[test]
    fn entries_walk_every_chain_in_item_then_version_order() {
        let mut s = VersionedStore::with_retention(3);
        for item in [ItemId(2), ItemId(5), ItemId(7)] {
            s.initialize(item, 0i64);
        }
        s.apply(ItemId(5), Version(1), 10).unwrap();
        s.apply(ItemId(5), Version(2), 20).unwrap();
        s.apply(ItemId(7), Version(4), 40).unwrap();
        let all: Vec<(ItemId, Version, i64)> = s.entries().map(|(i, v, &x)| (i, v, x)).collect();
        assert_eq!(
            all,
            vec![
                (ItemId(2), Version(0), 0),
                (ItemId(5), Version(0), 0),
                (ItemId(5), Version(1), 10),
                (ItemId(5), Version(2), 20),
                (ItemId(7), Version(0), 0),
                (ItemId(7), Version(4), 40),
            ]
        );
        assert_eq!(s.entry_count(), all.len());
    }
}
