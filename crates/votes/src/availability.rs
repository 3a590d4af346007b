//! Partition accessibility analysis.
//!
//! Section 2 of the paper observes that data availability is reduced
//! *twice* under failures: once by the commit/termination protocol
//! (blocked transactions hold locks) and once by the partition-processing
//! strategy (a partition lacking `r(x)`/`w(x)` votes cannot touch `x`).
//! This module computes, for a given partition of the network and a given
//! set of lock-blocked copies, exactly which items each component may
//! read or write — the metric behind Examples 1 and 4 and experiment E8.

use crate::catalog::Catalog;
use crate::item::ItemId;
use qbc_simnet::SiteId;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// Accessibility of one item inside one partition component.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ItemAccess {
    /// The component can collect `r(x)` votes from unblocked copies.
    pub readable: bool,
    /// The component can collect `w(x)` votes from unblocked copies.
    pub writable: bool,
}

/// Accessibility report for an entire partitioned network.
#[derive(Clone, Debug, Default)]
pub struct AccessReport {
    /// `per_component[i][item]` = accessibility of `item` in component `i`.
    pub per_component: Vec<BTreeMap<ItemId, ItemAccess>>,
    /// The components analysed (parallel to `per_component`).
    pub components: Vec<BTreeSet<SiteId>>,
}

impl AccessReport {
    /// Number of `(component, item)` pairs where the item is readable.
    pub fn readable_pairs(&self) -> usize {
        self.per_component
            .iter()
            .flat_map(|m| m.values())
            .filter(|a| a.readable)
            .count()
    }

    /// Number of `(component, item)` pairs where the item is writable.
    pub fn writable_pairs(&self) -> usize {
        self.per_component
            .iter()
            .flat_map(|m| m.values())
            .filter(|a| a.writable)
            .count()
    }

    /// True when the item is readable in at least one component.
    pub fn readable_somewhere(&self, item: ItemId) -> bool {
        self.per_component
            .iter()
            .any(|m| m.get(&item).map(|a| a.readable).unwrap_or(false))
    }

    /// True when the item is writable in at least one component.
    pub fn writable_somewhere(&self, item: ItemId) -> bool {
        self.per_component
            .iter()
            .any(|m| m.get(&item).map(|a| a.writable).unwrap_or(false))
    }

    /// Accessibility of `item` in the component containing `site`.
    pub fn at_site(&self, site: SiteId, item: ItemId) -> Option<ItemAccess> {
        self.components
            .iter()
            .position(|c| c.contains(&site))
            .and_then(|i| self.per_component[i].get(&item).copied())
    }
}

impl fmt::Display for AccessReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, (comp, access)) in self
            .components
            .iter()
            .zip(self.per_component.iter())
            .enumerate()
        {
            let members: Vec<String> = comp.iter().map(|s| s.to_string()).collect();
            writeln!(f, "G{} = {{{}}}", i + 1, members.join(", "))?;
            for (item, a) in access {
                writeln!(
                    f,
                    "  {item}: read={} write={}",
                    if a.readable { "yes" } else { "no" },
                    if a.writable { "yes" } else { "no" },
                )?;
            }
        }
        Ok(())
    }
}

/// Computes accessibility of every item in every component.
///
/// * `components` — the current partition (only up sites should be listed;
///   crashed sites contribute no votes).
/// * `blocked` — predicate: is the copy of `item` at `site` held by a
///   blocked (undecided) transaction? Blocked copies contribute no votes,
///   reflecting that their locks make them inaccessible.
pub fn analyze(
    catalog: &Catalog,
    components: &[BTreeSet<SiteId>],
    mut blocked: impl FnMut(SiteId, ItemId) -> bool,
) -> AccessReport {
    let mut report = AccessReport {
        per_component: Vec::with_capacity(components.len()),
        components: components.to_vec(),
    };
    for comp in components {
        let mut access = BTreeMap::new();
        for spec in catalog.items() {
            let votes: u32 = spec
                .copies
                .iter()
                .filter(|(s, _)| comp.contains(s) && !blocked(**s, spec.id))
                .map(|(_, &w)| w)
                .sum();
            access.insert(
                spec.id,
                ItemAccess {
                    readable: votes >= spec.read_quorum,
                    writable: votes >= spec.write_quorum,
                },
            );
        }
        report.per_component.push(access);
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::CatalogBuilder;

    fn example1_catalog() -> Catalog {
        CatalogBuilder::new()
            .item(ItemId(0))
            .copies_at([SiteId(1), SiteId(2), SiteId(3), SiteId(4)])
            .quorums(2, 3)
            .item(ItemId(1))
            .copies_at([SiteId(5), SiteId(6), SiteId(7), SiteId(8)])
            .quorums(2, 3)
            .build()
            .unwrap()
    }

    /// The Example 1/4 partition: G1 = {s1,s2,s3}, G2 = {s4,s5},
    /// G3 = {s6,s7,s8} (s1 is crashed in the paper's scenario, so we list
    /// G1 without it to model "contributes no votes").
    fn example_components(include_s1: bool) -> Vec<BTreeSet<SiteId>> {
        let mut g1: BTreeSet<SiteId> = [SiteId(2), SiteId(3)].into();
        if include_s1 {
            g1.insert(SiteId(1));
        }
        vec![
            g1,
            [SiteId(4), SiteId(5)].into(),
            [SiteId(6), SiteId(7), SiteId(8)].into(),
        ]
    }

    #[test]
    fn example4_availability_when_no_locks_held() {
        // After TP1 aborts TR in G1 and G3, no locks are held: the paper
        // says x can be read in G1 and y can be written in G3.
        let cat = example1_catalog();
        let report = analyze(&cat, &example_components(false), |_, _| false);
        let x = ItemId(0);
        let y = ItemId(1);
        // G1 = {s2,s3}: 2 votes of x => readable (r=2), not writable (w=3).
        assert_eq!(
            report.per_component[0][&x],
            ItemAccess {
                readable: true,
                writable: false
            }
        );
        // G3 = {s6,s7,s8}: 3 votes of y => readable and writable.
        assert_eq!(
            report.per_component[2][&y],
            ItemAccess {
                readable: true,
                writable: true
            }
        );
        // G2 = {s4,s5}: 1 vote of x, 1 of y => nothing accessible.
        assert_eq!(
            report.per_component[1][&x],
            ItemAccess {
                readable: false,
                writable: false
            }
        );
        assert_eq!(
            report.per_component[1][&y],
            ItemAccess {
                readable: false,
                writable: false
            }
        );
    }

    #[test]
    fn example1_blocked_locks_destroy_availability() {
        // While TR is blocked everywhere (Skeen [16] termination), its
        // X-locks on x and y copies make both items inaccessible even in
        // components with enough votes.
        let cat = example1_catalog();
        let report = analyze(&cat, &example_components(false), |_, _| true);
        assert_eq!(report.readable_pairs(), 0);
        assert_eq!(report.writable_pairs(), 0);
        assert!(!report.readable_somewhere(ItemId(0)));
    }

    #[test]
    fn partial_blocking_counts_only_free_copies() {
        let cat = example1_catalog();
        // Only s2's copy of x is blocked: G1 keeps 1 free vote => below r=2.
        let report = analyze(&cat, &example_components(false), |s, i| {
            s == SiteId(2) && i == ItemId(0)
        });
        assert!(!report.per_component[0][&ItemId(0)].readable);
        // y in G3 untouched.
        assert!(report.per_component[2][&ItemId(1)].writable);
    }

    #[test]
    fn at_site_resolves_component() {
        let cat = example1_catalog();
        let report = analyze(&cat, &example_components(false), |_, _| false);
        let a = report.at_site(SiteId(7), ItemId(1)).unwrap();
        assert!(a.writable);
        assert!(report.at_site(SiteId(99), ItemId(1)).is_none());
    }

    #[test]
    fn display_renders_components() {
        let cat = example1_catalog();
        let report = analyze(&cat, &example_components(false), |_, _| false);
        let text = report.to_string();
        assert!(text.contains("G1 = {s2, s3}"));
        assert!(text.contains("x0: read=yes write=no"));
    }
}
