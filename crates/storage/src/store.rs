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

use qbc_votes::{FastMap, ItemId, Version};

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
/// Copies are keyed by a deterministic hash map: the store sits on the
/// per-message hot path (version witnesses, update installs) and is
/// only ever read by key; [`VersionedStore::items`] sorts, so no
/// observer sees hash order and determinism is unaffected.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct VersionedStore<V> {
    copies: FastMap<ItemId, Vec<(Version, V)>>,
    retention: usize,
}

impl<V> Default for VersionedStore<V> {
    fn default() -> Self {
        VersionedStore {
            copies: FastMap::default(),
            retention: 1,
        }
    }
}

impl<V: Clone> VersionedStore<V> {
    /// An empty store retaining one version per item (the classic
    /// single-slot behaviour).
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty store retaining up to `retention` versions per item
    /// (clamped to at least 1).
    pub fn with_retention(retention: usize) -> Self {
        VersionedStore {
            copies: FastMap::default(),
            retention: retention.max(1),
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

    /// Initialises a copy at `Version::INITIAL` (database load time).
    pub fn initialize(&mut self, item: ItemId, value: V) {
        self.copies.insert(item, vec![(Version::INITIAL, value)]);
    }

    /// The newest stored `(version, value)` of an item, if this site
    /// has a copy.
    pub fn read(&self, item: ItemId) -> Option<(Version, &V)> {
        self.copies
            .get(&item)
            .and_then(|chain| chain.last())
            .map(|(v, val)| (*v, val))
    }

    /// The newest stored version ≤ `at`, or — when every retained
    /// version is newer — the oldest retained version. The fallback
    /// keeps reads total (a copy always answers) and monotone per
    /// site: a chain's oldest entry only ever advances.
    pub fn read_at(&self, item: ItemId, at: Version) -> Option<(Version, &V)> {
        let chain = self.copies.get(&item)?;
        chain
            .iter()
            .rev()
            .find(|(v, _)| *v <= at)
            .or_else(|| chain.first())
            .map(|(v, val)| (*v, val))
    }

    /// The newest stored version only.
    pub fn version(&self, item: ItemId) -> Option<Version> {
        self.read(item).map(|(v, _)| v)
    }

    /// The full retained chain of an item, ascending by version.
    pub fn versions(&self, item: ItemId) -> Option<&[(Version, V)]> {
        self.copies.get(&item).map(|chain| chain.as_slice())
    }

    /// Applies a committed write. The offered version must exceed the
    /// newest stored one (write quorums make concurrent equal versions
    /// impossible; a regression indicates a protocol bug). Superseded
    /// versions beyond the retention bound are dropped oldest-first.
    pub fn apply(&mut self, item: ItemId, version: Version, value: V) -> Result<(), StoreError> {
        match self.copies.get_mut(&item) {
            Some(chain) => {
                if let Some((stored, _)) = chain.last() {
                    if *stored >= version {
                        return Err(StoreError::VersionRegression {
                            item,
                            stored: *stored,
                            offered: version,
                        });
                    }
                }
                chain.push((version, value));
                if chain.len() > self.retention {
                    let excess = chain.len() - self.retention;
                    chain.drain(..excess);
                }
                Ok(())
            }
            None => {
                self.copies.insert(item, vec![(version, value)]);
                Ok(())
            }
        }
    }

    /// Drops versions made unreachable by a watermark: for each item,
    /// entries strictly older than the newest version ≤ `watermark`
    /// can never be returned by [`VersionedStore::read_at`] again (the
    /// watermark is monotone) and are discarded. Entries newer than
    /// the watermark, and the newest-≤-watermark entry itself, stay.
    pub fn gc_below(&mut self, watermark: Version) {
        for chain in self.copies.values_mut() {
            if let Some(keep_from) = chain.iter().rposition(|(v, _)| *v <= watermark) {
                chain.drain(..keep_from);
            }
        }
    }

    /// Installs a recovered chain wholesale (checkpoint recovery). The
    /// chain must be ascending; entries at or below the newest already
    /// stored version are ignored via [`VersionedStore::apply`] rules.
    pub fn install_chain(&mut self, item: ItemId, chain: &[(Version, V)]) {
        for (v, val) in chain {
            let _ = self.apply(item, *v, val.clone());
        }
    }

    /// Items this site holds copies of, in id order.
    pub fn items(&self) -> impl Iterator<Item = ItemId> {
        let mut items: Vec<ItemId> = self.copies.keys().copied().collect();
        items.sort_unstable();
        items.into_iter()
    }

    /// Number of items with at least one copy stored.
    pub fn len(&self) -> usize {
        self.copies.len()
    }

    /// True when no copies are stored.
    pub fn is_empty(&self) -> bool {
        self.copies.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn initialize_and_read() {
        let mut s = VersionedStore::new();
        s.initialize(ItemId(1), 100i64);
        assert_eq!(s.read(ItemId(1)), Some((Version::INITIAL, &100)));
        assert_eq!(s.read(ItemId(2)), None);
        assert_eq!(s.len(), 1);
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
            assert_eq!(s.versions(ItemId(1)).unwrap().len(), 1);
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
        let chain: Vec<Version> = s
            .versions(ItemId(1))
            .unwrap()
            .iter()
            .map(|(v, _)| *v)
            .collect();
        assert_eq!(chain, vec![Version(3), Version(4), Version(5)]);
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
        let chain: Vec<Version> = s
            .versions(ItemId(1))
            .unwrap()
            .iter()
            .map(|(v, _)| *v)
            .collect();
        // Version 2 (newest ≤ watermark) and everything newer survive.
        assert_eq!(chain, vec![Version(2), Version(3), Version(4)]);
        assert_eq!(s.read_at(ItemId(1), Version(2)), Some((Version(2), &2)));
        // A watermark below every entry drops nothing.
        let mut s2 = VersionedStore::with_retention(4);
        s2.apply(ItemId(1), Version(5), 1i64).unwrap();
        s2.apply(ItemId(1), Version(6), 2).unwrap();
        s2.gc_below(Version(3));
        assert_eq!(s2.versions(ItemId(1)).unwrap().len(), 2);
    }

    #[test]
    fn install_chain_is_idempotent_and_ordered() {
        let mut s = VersionedStore::with_retention(4);
        s.install_chain(ItemId(1), &[(Version(1), 10i64), (Version(3), 30)]);
        // Re-installing (recovery replay) is a no-op.
        s.install_chain(ItemId(1), &[(Version(1), 10), (Version(3), 30)]);
        let chain: Vec<Version> = s
            .versions(ItemId(1))
            .unwrap()
            .iter()
            .map(|(v, _)| *v)
            .collect();
        assert_eq!(chain, vec![Version(1), Version(3)]);
        assert_eq!(s.read_at(ItemId(1), Version(2)), Some((Version(1), &10)));
    }
}
