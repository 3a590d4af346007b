//! Core identifiers shared by every layer of the system.
//!
//! A [`SiteId`] names a database site (a node of the distributed system).
//! Sites are the unit of failure in the paper's model: a site crashes and
//! recovers as a whole, and network partitions separate *sites*.

use std::fmt;

/// Identifier of a database site (node).
///
/// Sites are small dense integers so they can be used as indices into
/// per-site tables. Display renders as `s<N>` to match the paper's
/// `site1`, `site2`, ... naming.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SiteId(pub u32);

impl SiteId {
    /// Returns the raw index of this site.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for SiteId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

impl fmt::Display for SiteId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

impl From<u32> for SiteId {
    fn from(v: u32) -> Self {
        SiteId(v)
    }
}

/// Convenience constructor for a contiguous range of sites `s0..s<n>`.
pub fn sites(n: u32) -> Vec<SiteId> {
    (0..n).map(SiteId).collect()
}

/// Identifier of a timer set by a process.
///
/// Timer ids are unique per simulation run; cancelled timers never fire.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct TimerId(pub u64);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn site_id_display_matches_paper_naming() {
        assert_eq!(SiteId(3).to_string(), "s3");
        assert_eq!(format!("{:?}", SiteId(0)), "s0");
    }

    #[test]
    fn sites_builds_contiguous_range() {
        let v = sites(4);
        assert_eq!(v, vec![SiteId(0), SiteId(1), SiteId(2), SiteId(3)]);
    }

    #[test]
    fn site_id_ordering_is_numeric() {
        assert!(SiteId(2) < SiteId(10));
        assert_eq!(SiteId(7).index(), 7);
    }
}
