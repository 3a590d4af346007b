//! Submission planning: the one place a writeset becomes a coordinator
//! choice and a begin message.
//!
//! Both front-ends route through a [`ClusterPlanner`] — [`crate::SimCluster`]
//! owns one and turns the planned message into a scheduled call, the
//! reactor's front door consults one per request ([`SharedPlanner`]) —
//! so the two substrates cannot rotate coordinators or split a
//! cross-shard writeset differently.

use crate::shard::{ShardId, ShardMap};
use crate::sim_cluster::TxnHandle;
use qbc_core::{ProtocolKind, TxnId, WriteSet};
use qbc_db::NetMsg;
use qbc_reactor::Planner;
use qbc_simnet::{SiteId, Time};
use qbc_votes::ItemId;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, Mutex};

/// Round-robin coordinator rotation and cross-shard branch split over a
/// [`ShardMap`], plus the record of everything planned (the harvest
/// audits exactly these handles).
pub(crate) struct ClusterPlanner {
    pub(crate) map: ShardMap,
    protocol: ProtocolKind,
    /// Every planned submission, in planning order.
    pub(crate) handles: Vec<TxnHandle>,
    /// Shard sets of cross-shard transactions (absent ⇒ single-shard).
    pub(crate) xshards: BTreeMap<TxnId, Vec<ShardId>>,
    rr_by_shard: Vec<u64>,
}

impl ClusterPlanner {
    pub(crate) fn new(map: ShardMap, protocol: ProtocolKind) -> Self {
        let shards = map.shards() as usize;
        ClusterPlanner {
            map,
            protocol,
            handles: Vec::new(),
            xshards: BTreeMap::new(),
            rr_by_shard: vec![0; shards],
        }
    }

    /// Round-robin coordinator pick skipping down sites; `None` when
    /// the whole shard is down.
    fn pick(&mut self, shard: ShardId, down: &BTreeSet<SiteId>) -> Option<SiteId> {
        for _ in 0..self.map.sites_per_shard() {
            let n = self.rr_by_shard[shard.0 as usize];
            self.rr_by_shard[shard.0 as usize] += 1;
            let site = self.map.coordinator(shard, n);
            if !down.contains(&site) {
                return Some(site);
            }
        }
        None
    }

    /// Plans a write submission: a single-shard writeset runs the
    /// paper's protocol inside its shard ([`NetMsg::BeginTxn`]); one
    /// spanning shards is split into per-shard branches driven by a
    /// cross-shard coordinator at its *home* shard — the shard of its
    /// lowest item ([`NetMsg::BeginXTxn`]). `None` when a shard involved
    /// has no live site. Panics on an empty writeset or items outside
    /// the cluster's space.
    pub(crate) fn plan_submit(
        &mut self,
        now: Time,
        txn: TxnId,
        writeset: WriteSet,
        down: &BTreeSet<SiteId>,
    ) -> Option<(SiteId, NetMsg)> {
        let split = self.map.split_writeset(&writeset);
        let (home, _) = split[0];
        let coordinator = self.pick(home, down)?;
        let msg = if split.len() == 1 {
            let (_, writeset) = split.into_iter().next().expect("one slice");
            NetMsg::BeginTxn {
                txn,
                writeset,
                protocol: self.protocol,
            }
        } else {
            let shards: Vec<ShardId> = split.iter().map(|(s, _)| *s).collect();
            // Rotate the remote branch coordinators up front (the
            // round-robin counters live next to the map).
            let mut picks: BTreeMap<ShardId, SiteId> = BTreeMap::new();
            for &s in shards.iter().filter(|&&s| s != home) {
                picks.insert(s, self.pick(s, down)?);
            }
            let branches =
                self.map
                    .xtxn_branches(txn, self.protocol, coordinator, home, split, |s| picks[&s]);
            self.xshards.insert(txn, shards);
            NetMsg::BeginXTxn { txn, branches }
        };
        self.handles.push(TxnHandle {
            txn,
            shard: home,
            coordinator,
            submitted_at: now,
        });
        Some((coordinator, msg))
    }

    /// The shard set of a planned handle: the involved shards of a
    /// cross-shard transaction, or the handle's single shard.
    pub(crate) fn shards_of<'a>(&'a self, h: &'a TxnHandle) -> &'a [ShardId] {
        self.xshards
            .get(&h.txn)
            .map_or(std::slice::from_ref(&h.shard), |v| v.as_slice())
    }

    /// Picks a live site to coordinate a read of `item`, rotating like a
    /// submission; `None` for an item outside the cluster's space or a
    /// shard with no live site.
    pub(crate) fn plan_read(&mut self, item: ItemId, down: &BTreeSet<SiteId>) -> Option<SiteId> {
        let shard = self.map.shard_of_item(item)?;
        self.pick(shard, down)
    }
}

/// The planner as the reactor front door holds it: shared with
/// [`crate::ReactorCluster`], which reads the planned handles back at
/// shutdown.
pub(crate) struct SharedPlanner(pub(crate) Arc<Mutex<ClusterPlanner>>);

impl Planner for SharedPlanner {
    fn plan_submit(
        &mut self,
        now: Time,
        txn: TxnId,
        writes: &[(ItemId, i64)],
        down: &BTreeSet<SiteId>,
    ) -> Option<(SiteId, NetMsg)> {
        let writeset = WriteSet::new(writes.iter().copied());
        if writeset.updates.is_empty() {
            return None;
        }
        let mut planner = self.0.lock().expect("planner");
        planner.plan_submit(now, txn, writeset, down)
    }

    fn plan_read(&mut self, item: ItemId, down: &BTreeSet<SiteId>) -> Option<SiteId> {
        self.0.lock().expect("planner").plan_read(item, down)
    }
}
