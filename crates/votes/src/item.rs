//! Data items, copies and vote assignments.
//!
//! Following Gifford's weighted voting scheme ([8] in the paper): every
//! copy of each data item is assigned some number of votes. A transaction
//! must collect `r(x)` votes to read item `x` and `w(x)` votes to write
//! it, subject to two constraints:
//!
//! 1. `r(x) + w(x) > v(x)` — any read quorum intersects any write quorum,
//!    so reads always see the most recent copy (identified by version
//!    number) and an item cannot be read in one partition while written
//!    in another;
//! 2. `w(x) > v(x)/2` — two write quorums always intersect, so writes
//!    cannot proceed in two partitions at once.

use qbc_simnet::SiteId;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// Identifier of a logical data item.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ItemId(pub u32);

impl fmt::Debug for ItemId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "x{}", self.0)
    }
}

impl fmt::Display for ItemId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "x{}", self.0)
    }
}

/// Version number identifying the most recent copy of an item.
///
/// Gifford's currency rule: a read quorum always contains at least one
/// copy carrying the maximum version, which is the current value.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Debug)]
pub struct Version(pub u64);

impl Version {
    /// The version of a never-written item.
    pub const INITIAL: Version = Version(0);

    /// The next version after this one.
    #[inline]
    pub fn next(self) -> Version {
        Version(self.0 + 1)
    }
}

/// Errors arising from invalid vote assignments.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum VoteError {
    /// The item has no copies.
    NoCopies(ItemId),
    /// A copy was assigned zero votes.
    ZeroWeight(ItemId, SiteId),
    /// `r + w > v` violated.
    ReadWriteOverlap {
        /// The offending item.
        item: ItemId,
        /// Configured read quorum.
        read: u32,
        /// Configured write quorum.
        write: u32,
        /// Total votes of the item.
        total: u32,
    },
    /// `w > v/2` violated.
    WriteMajority {
        /// The offending item.
        item: ItemId,
        /// Configured write quorum.
        write: u32,
        /// Total votes of the item.
        total: u32,
    },
    /// A quorum exceeds the total number of votes (unsatisfiable).
    QuorumTooLarge {
        /// The offending item.
        item: ItemId,
        /// The unsatisfiable quorum value.
        quorum: u32,
        /// Total votes of the item.
        total: u32,
    },
    /// A quorum of zero was configured.
    ZeroQuorum(ItemId),
    /// Two items share an id in one catalog.
    DuplicateItem(ItemId),
}

impl fmt::Display for VoteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VoteError::NoCopies(i) => write!(f, "item {i} has no copies"),
            VoteError::ZeroWeight(i, s) => write!(f, "copy of {i} at {s} has zero votes"),
            VoteError::ReadWriteOverlap {
                item,
                read,
                write,
                total,
            } => write!(
                f,
                "item {item}: r({read}) + w({write}) must exceed v({total})"
            ),
            VoteError::WriteMajority { item, write, total } => {
                write!(f, "item {item}: w({write}) must exceed v({total})/2")
            }
            VoteError::QuorumTooLarge {
                item,
                quorum,
                total,
            } => {
                write!(
                    f,
                    "item {item}: quorum {quorum} exceeds total votes {total}"
                )
            }
            VoteError::ZeroQuorum(i) => write!(f, "item {i} has a zero quorum"),
            VoteError::DuplicateItem(i) => write!(f, "duplicate item id {i}"),
        }
    }
}

impl std::error::Error for VoteError {}

/// The replication specification of one data item: where its copies live,
/// how many votes each copy carries, and its read/write quorums.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ItemSpec {
    /// Item identifier.
    pub id: ItemId,
    /// Human-readable name (the paper's `x`, `y`, ...).
    pub name: String,
    /// Vote weight of the copy stored at each site.
    pub copies: BTreeMap<SiteId, u32>,
    /// Read quorum `r(x)`.
    pub read_quorum: u32,
    /// Write quorum `w(x)`.
    pub write_quorum: u32,
}

impl ItemSpec {
    /// Total votes `v(x)` of the item.
    pub fn total_votes(&self) -> u32 {
        self.copies.values().sum()
    }

    /// The sites storing a copy of this item.
    pub fn sites(&self) -> impl Iterator<Item = SiteId> + '_ {
        self.copies.keys().copied()
    }

    /// Vote weight of the copy at `site` (zero when no copy there).
    pub fn weight_at(&self, site: SiteId) -> u32 {
        self.copies.get(&site).copied().unwrap_or(0)
    }

    /// Sum of vote weights of copies stored at the given sites.
    pub fn votes_among<'a>(&self, sites: impl IntoIterator<Item = &'a SiteId>) -> u32 {
        sites.into_iter().map(|s| self.weight_at(*s)).sum()
    }

    /// True when the given sites muster a read quorum for this item.
    pub fn read_quorum_among(&self, sites: &BTreeSet<SiteId>) -> bool {
        self.votes_among(sites) >= self.read_quorum
    }

    /// True when the given sites muster a write quorum for this item.
    pub fn write_quorum_among(&self, sites: &BTreeSet<SiteId>) -> bool {
        self.votes_among(sites) >= self.write_quorum
    }

    /// Validates Gifford's two constraints plus basic sanity.
    pub fn validate(&self) -> Result<(), VoteError> {
        if self.copies.is_empty() {
            return Err(VoteError::NoCopies(self.id));
        }
        for (&s, &w) in &self.copies {
            if w == 0 {
                return Err(VoteError::ZeroWeight(self.id, s));
            }
        }
        if self.read_quorum == 0 || self.write_quorum == 0 {
            return Err(VoteError::ZeroQuorum(self.id));
        }
        let total = self.total_votes();
        for q in [self.read_quorum, self.write_quorum] {
            if q > total {
                return Err(VoteError::QuorumTooLarge {
                    item: self.id,
                    quorum: q,
                    total,
                });
            }
        }
        if self.read_quorum + self.write_quorum <= total {
            return Err(VoteError::ReadWriteOverlap {
                item: self.id,
                read: self.read_quorum,
                write: self.write_quorum,
                total,
            });
        }
        if 2 * self.write_quorum <= total {
            return Err(VoteError::WriteMajority {
                item: self.id,
                write: self.write_quorum,
                total,
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(weights: &[(u32, u32)], r: u32, w: u32) -> ItemSpec {
        ItemSpec {
            id: ItemId(1),
            name: "x".into(),
            copies: weights.iter().map(|&(s, v)| (SiteId(s), v)).collect(),
            read_quorum: r,
            write_quorum: w,
        }
    }

    #[test]
    fn paper_example_assignment_is_valid() {
        // Example 1: each copy has 1 vote, r = 2, w = 3, 4 copies.
        let s = spec(&[(1, 1), (2, 1), (3, 1), (4, 1)], 2, 3);
        assert_eq!(s.validate(), Ok(()));
        assert_eq!(s.total_votes(), 4);
    }

    #[test]
    fn read_write_overlap_enforced() {
        let s = spec(&[(1, 1), (2, 1), (3, 1), (4, 1)], 1, 3);
        assert!(matches!(
            s.validate(),
            Err(VoteError::ReadWriteOverlap { .. })
        ));
    }

    #[test]
    fn write_majority_enforced() {
        let s = spec(&[(1, 1), (2, 1), (3, 1), (4, 1)], 3, 2);
        assert!(matches!(s.validate(), Err(VoteError::WriteMajority { .. })));
    }

    #[test]
    fn zero_weight_rejected() {
        let s = spec(&[(1, 0), (2, 2), (3, 2)], 2, 3);
        assert!(matches!(s.validate(), Err(VoteError::ZeroWeight(_, _))));
    }

    #[test]
    fn quorum_larger_than_total_rejected() {
        let s = spec(&[(1, 1), (2, 1)], 3, 2);
        assert!(matches!(
            s.validate(),
            Err(VoteError::QuorumTooLarge { .. })
        ));
    }

    #[test]
    fn no_copies_rejected() {
        let s = spec(&[], 1, 1);
        assert!(matches!(s.validate(), Err(VoteError::NoCopies(_))));
    }

    #[test]
    fn weighted_copies_count_correctly() {
        let s = spec(&[(1, 3), (2, 1), (3, 1)], 2, 4);
        assert_eq!(s.validate(), Ok(()));
        let g: BTreeSet<SiteId> = [SiteId(1)].into();
        assert!(s.read_quorum_among(&g), "3 votes at s1 beat r=2");
        assert!(!s.write_quorum_among(&g), "3 votes at s1 miss w=4");
        let g2: BTreeSet<SiteId> = [SiteId(1), SiteId(2)].into();
        assert!(s.write_quorum_among(&g2));
    }

    #[test]
    fn version_ordering() {
        assert!(Version(2) > Version::INITIAL);
        assert_eq!(Version(1).next(), Version(2));
    }
}
