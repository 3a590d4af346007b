//! Network topology: partitions, per-link blocks, and message loss.
//!
//! The failure model follows the paper exactly: the network may be
//! partitioned into disjoint components with no communication possible
//! between them, individual messages may be lost, and individual sites
//! may be crashed. Adversarial scenarios (Example 3 of the paper) need
//! *directional* per-link message suppression in addition to partitions,
//! so the topology layers three mechanisms:
//!
//! 1. a partition (a set of disjoint components covering all sites),
//! 2. a set of directed blocked links `(from, to)`,
//! 3. a uniform random loss probability applied to every message.

use crate::ids::SiteId;
use rand::Rng;
use std::collections::{BTreeMap, BTreeSet};

/// Why a message failed to be delivered.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DropReason {
    /// Sender and receiver are in different partition components.
    Partitioned,
    /// The directed link is explicitly blocked (adversarial loss).
    LinkBlocked,
    /// The message was lost at random.
    RandomLoss,
    /// The destination site is crashed.
    ReceiverDown,
    /// The source site is crashed (stale send from a dying site).
    SenderDown,
}

/// Mutable view of the network's connectivity.
#[derive(Clone, Debug)]
pub struct Topology {
    /// `component[site] = component id`; sites can only talk within their
    /// component. A fully connected network has every site in component 0.
    component: BTreeMap<SiteId, u32>,
    /// Directed links that silently drop every message.
    blocked: BTreeSet<(SiteId, SiteId)>,
    /// Probability in `[0,1]` that any individual message is lost.
    loss_probability: f64,
    /// Sites that are currently crashed.
    down: BTreeSet<SiteId>,
}

impl Topology {
    /// A fully connected topology over the given sites with no loss.
    pub fn fully_connected(sites: impl IntoIterator<Item = SiteId>) -> Self {
        Topology {
            component: sites.into_iter().map(|s| (s, 0)).collect(),
            blocked: BTreeSet::new(),
            loss_probability: 0.0,
            down: BTreeSet::new(),
        }
    }

    /// All sites known to the topology, crashed or not.
    pub fn sites(&self) -> impl Iterator<Item = SiteId> + '_ {
        self.component.keys().copied()
    }

    /// Number of sites.
    pub fn len(&self) -> usize {
        self.component.len()
    }

    /// True when the topology contains no sites.
    pub fn is_empty(&self) -> bool {
        self.component.is_empty()
    }

    /// Splits the network into the given disjoint components.
    ///
    /// Every site must appear in exactly one component; sites omitted from
    /// all components are isolated into singleton components of their own
    /// (so "partition away a site" is expressible by just listing the rest).
    ///
    /// # Panics
    /// Panics if a site appears in more than one component or if a listed
    /// site is unknown.
    pub fn partition(&mut self, components: &[Vec<SiteId>]) {
        let mut assigned: BTreeMap<SiteId, u32> = BTreeMap::new();
        for (cid, comp) in components.iter().enumerate() {
            for &s in comp {
                assert!(
                    self.component.contains_key(&s),
                    "partition references unknown site {s}"
                );
                let prev = assigned.insert(s, cid as u32);
                assert!(prev.is_none(), "site {s} listed in two components");
            }
        }
        let mut next = components.len() as u32;
        for (&s, c) in self.component.iter_mut() {
            match assigned.get(&s) {
                Some(&cid) => *c = cid,
                None => {
                    *c = next;
                    next += 1;
                }
            }
        }
    }

    /// Restores full connectivity (all sites in one component).
    /// Blocked links and loss probability are unaffected.
    pub fn heal(&mut self) {
        for c in self.component.values_mut() {
            *c = 0;
        }
    }

    /// Returns the current component id of a site.
    pub fn component_of(&self, s: SiteId) -> Option<u32> {
        self.component.get(&s).copied()
    }

    /// Returns the partition as a list of components (sorted, deterministic).
    pub fn components(&self) -> Vec<BTreeSet<SiteId>> {
        let mut by_comp: BTreeMap<u32, BTreeSet<SiteId>> = BTreeMap::new();
        for (&s, &c) in &self.component {
            by_comp.entry(c).or_default().insert(s);
        }
        by_comp.into_values().collect()
    }

    /// Blocks every message sent on the directed link `from -> to`.
    pub fn block_link(&mut self, from: SiteId, to: SiteId) {
        self.blocked.insert((from, to));
    }

    /// Sets the probability that any individual message is lost.
    ///
    /// # Panics
    /// Panics unless `p` is within `[0, 1]`.
    pub fn set_loss_probability(&mut self, p: f64) {
        assert!((0.0..=1.0).contains(&p), "loss probability out of range");
        self.loss_probability = p;
    }

    /// Marks a site crashed. Messages to and from it are dropped.
    pub fn mark_down(&mut self, s: SiteId) {
        self.down.insert(s);
    }

    /// Marks a site recovered.
    pub fn mark_up(&mut self, s: SiteId) {
        self.down.remove(&s);
    }

    /// True when the site is currently crashed.
    pub fn is_down(&self, s: SiteId) -> bool {
        self.down.contains(&s)
    }

    /// Decides the fate of a message on the link `from -> to`.
    ///
    /// `rng` is consulted only for random loss, so a zero loss probability
    /// keeps the run fully deterministic regardless of RNG state.
    pub fn route<R: Rng + ?Sized>(
        &self,
        from: SiteId,
        to: SiteId,
        rng: &mut R,
    ) -> Result<(), DropReason> {
        if self.down.contains(&from) {
            return Err(DropReason::SenderDown);
        }
        if self.down.contains(&to) {
            return Err(DropReason::ReceiverDown);
        }
        if self.component.get(&from) != self.component.get(&to) {
            return Err(DropReason::Partitioned);
        }
        if self.blocked.contains(&(from, to)) {
            return Err(DropReason::LinkBlocked);
        }
        if self.loss_probability > 0.0 && rng.gen::<f64>() < self.loss_probability {
            return Err(DropReason::RandomLoss);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::sites;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(7)
    }

    #[test]
    fn fully_connected_routes_everywhere() {
        let t = Topology::fully_connected(sites(4));
        let mut r = rng();
        for a in sites(4) {
            for b in sites(4) {
                assert_eq!(t.route(a, b, &mut r), Ok(()));
            }
        }
    }

    #[test]
    fn partition_blocks_cross_component_traffic() {
        let mut t = Topology::fully_connected(sites(5));
        t.partition(&[
            vec![SiteId(0), SiteId(1)],
            vec![SiteId(2), SiteId(3), SiteId(4)],
        ]);
        let mut r = rng();
        assert_eq!(t.route(SiteId(0), SiteId(1), &mut r), Ok(()));
        assert_eq!(
            t.route(SiteId(0), SiteId(2), &mut r),
            Err(DropReason::Partitioned)
        );
        assert_eq!(t.route(SiteId(3), SiteId(4), &mut r), Ok(()));
    }

    #[test]
    fn omitted_sites_become_singletons() {
        let mut t = Topology::fully_connected(sites(3));
        t.partition(&[vec![SiteId(0), SiteId(1)]]);
        let mut r = rng();
        assert_eq!(
            t.route(SiteId(2), SiteId(0), &mut r),
            Err(DropReason::Partitioned)
        );
        assert_ne!(t.component_of(SiteId(2)), t.component_of(SiteId(0)));
        assert_eq!(
            t.components(),
            [
                BTreeSet::from([SiteId(0), SiteId(1)]),
                BTreeSet::from([SiteId(2)])
            ]
        );
    }

    #[test]
    fn heal_restores_connectivity() {
        let mut t = Topology::fully_connected(sites(4));
        t.partition(&[vec![SiteId(0)], vec![SiteId(1), SiteId(2), SiteId(3)]]);
        t.heal();
        let mut r = rng();
        assert_eq!(t.route(SiteId(0), SiteId(3), &mut r), Ok(()));
        assert_eq!(t.components().len(), 1);
    }

    #[test]
    fn blocked_links_are_directional() {
        let mut t = Topology::fully_connected(sites(3));
        t.block_link(SiteId(0), SiteId(1));
        let mut r = rng();
        assert_eq!(
            t.route(SiteId(0), SiteId(1), &mut r),
            Err(DropReason::LinkBlocked)
        );
        assert_eq!(t.route(SiteId(1), SiteId(0), &mut r), Ok(()));
    }

    #[test]
    fn crashed_sites_drop_traffic() {
        let mut t = Topology::fully_connected(sites(2));
        t.mark_down(SiteId(1));
        let mut r = rng();
        assert_eq!(
            t.route(SiteId(0), SiteId(1), &mut r),
            Err(DropReason::ReceiverDown)
        );
        assert_eq!(
            t.route(SiteId(1), SiteId(0), &mut r),
            Err(DropReason::SenderDown)
        );
        t.mark_up(SiteId(1));
        assert_eq!(t.route(SiteId(0), SiteId(1), &mut r), Ok(()));
    }

    #[test]
    fn loss_probability_one_drops_everything() {
        let mut t = Topology::fully_connected(sites(2));
        t.set_loss_probability(1.0);
        let mut r = rng();
        assert_eq!(
            t.route(SiteId(0), SiteId(1), &mut r),
            Err(DropReason::RandomLoss)
        );
    }

    #[test]
    #[should_panic(expected = "two components")]
    fn duplicate_site_in_partition_panics() {
        let mut t = Topology::fully_connected(sites(2));
        t.partition(&[vec![SiteId(0)], vec![SiteId(0), SiteId(1)]]);
    }
}
