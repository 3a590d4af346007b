//! The cluster front-end on the deterministic simulator.

use crate::config::ClusterConfig;
use crate::harvest::{build_nodes, harvest, make_obs};
use crate::metrics::{AtomicityViolation, ClusterMetrics};
use crate::plan::ClusterPlanner;
use crate::shard::{ShardId, ShardMap};
use qbc_core::{Decision, TxnId, WriteSet};
use qbc_db::{NetMsg, NodeTimer, ReadResult, SiteNode, Violation};
use qbc_obs::{Obs, Registry};
use qbc_simnet::{Ctx, DelayModel, Duration, Quiescence, Sim, SimConfig, SiteId, Time};
use qbc_votes::{ItemId, Version};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// Client-observable state of a submitted transaction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TxnStatus {
    /// Some participant decided commit.
    Committed,
    /// Some participant decided abort (and none committed).
    Aborted,
    /// In flight: at least one site is running the protocol for it.
    Pending,
    /// The submission never reached a live coordinator (the site was
    /// down at the submission instant): no live site knows the
    /// transaction and its coordinator is up — the cluster-level
    /// equivalent of a client connection error. While the coordinator
    /// is *down* the handle reads as [`TxnStatus::Pending`] instead,
    /// because a recovering coordinator can revive a transaction from
    /// its WAL. (A spec-carrying message still in flight at the poll
    /// instant can, in rare crash/recovery interleavings, still revive
    /// a `Rejected` transaction — treat it as best-effort terminal.)
    Rejected,
}

impl TxnStatus {
    /// True when the handle has reached a terminal state (committed,
    /// aborted or rejected). Commit/abort never change again; see
    /// [`TxnStatus::Rejected`] for its (narrow) revival caveat.
    pub fn is_resolved(self) -> bool {
        !matches!(self, TxnStatus::Pending)
    }
}

/// A submitted transaction: everything a client needs to resolve its
/// outcome later. Cheap to copy; does not borrow the cluster.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TxnHandle {
    /// Cluster-unique transaction id.
    pub txn: TxnId,
    /// Shard the transaction runs on — for a cross-shard transaction,
    /// its *home* shard (the shard of its lowest item, which hosts the
    /// cross-shard coordinator); the full shard set is tracked by the
    /// cluster front-end.
    pub shard: ShardId,
    /// Site chosen (round-robin) to coordinate it. For a cross-shard
    /// transaction this is the cross-shard coordinator's site.
    pub coordinator: SiteId,
    /// Virtual time of submission.
    pub submitted_at: Time,
}

/// How a read starts at its coordinator: [`SiteNode::start_read`] or
/// [`SiteNode::start_snapshot_read`].
type StartRead = fn(&mut SiteNode, &mut Ctx<'_, NetMsg, NodeTimer>, u64, ItemId);

/// A started read, resolvable via [`SimCluster::read_result`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReadHandle {
    /// Node-local request id at the coordinating site.
    pub req_id: u64,
    /// Site collecting the read quorum.
    pub coordinator: SiteId,
    /// Item read.
    pub item: ItemId,
    /// Virtual time of submission.
    pub submitted_at: Time,
}

/// One client's view of the cluster: remembers the handles it issued so
/// the whole session can be awaited at once. Sessions are cheap and any
/// number can be open; their transactions run concurrently.
#[derive(Debug)]
pub struct Session {
    /// Session id (diagnostic only).
    pub id: u32,
    handles: Vec<TxnHandle>,
    /// Newest snapshot-read answer per item: successive reads through
    /// one session never go backwards, even when round-robin routing
    /// lands them on coordinators with lagging watermarks.
    snap_cache: BTreeMap<ItemId, (Version, i64)>,
}

impl Session {
    /// Handles submitted through this session, in submission order.
    pub fn handles(&self) -> &[TxnHandle] {
        &self.handles
    }

    /// Applies the session-monotonicity clamp: a successful answer
    /// older than one this session already observed for the same item
    /// is replaced by the cached newer (version, value).
    fn observe_snapshot(&mut self, item: ItemId, r: ReadResult) -> ReadResult {
        match r {
            ReadResult::Success { version, value } => match self.snap_cache.get(&item) {
                Some(&(cv, cval)) if cv > version => ReadResult::Success {
                    version: cv,
                    value: cval,
                },
                _ => {
                    self.snap_cache.insert(item, (version, value));
                    r
                }
            },
            other => other,
        }
    }
}

/// A sharded cluster running on the deterministic simulator: site nodes
/// for every shard on one [`Sim`], fronted by a submit/read/await client
/// API. Determinism is inherited — a run is a pure function of the
/// configuration and the submission schedule.
pub struct SimCluster {
    cfg: ClusterConfig,
    /// Placement, coordinator rotation and the handles issued so far —
    /// the planner the reactor front door uses, here with no site ever
    /// routed around.
    planner: ClusterPlanner,
    sim: Sim<SiteNode>,
    next_txn: u64,
    next_read: u64,
    next_session: u32,
    peak_queue: Vec<u64>,
    obs: Option<Arc<Obs>>,
}

impl SimCluster {
    /// Builds and deploys the cluster (all sites up, fully connected).
    pub fn new(cfg: ClusterConfig) -> Self {
        let map = ShardMap::new(&cfg);
        let obs = make_obs(&cfg, &map);
        let nodes = build_nodes(&cfg, &map, obs.as_ref(), false);
        let mut sim = Sim::new(
            SimConfig {
                seed: cfg.seed,
                delay: DelayModel::uniform(Duration(1), cfg.t_bound),
                record_trace: false,
            },
            nodes,
        );
        // Sites start at time 0, where one over a reopened log recovers;
        // the cluster then numbers past every id its logs hold.
        sim.run_until(Time::ZERO);
        let next_txn = sim.nodes().map(|(_, n)| n.first_fresh_txn()).max();
        SimCluster {
            peak_queue: vec![0; cfg.shards as usize],
            planner: ClusterPlanner::new(map, cfg.protocol),
            cfg,
            sim,
            next_txn: next_txn.unwrap_or(1),
            next_read: 1,
            next_session: 0,
            obs,
        }
    }

    /// The placement map.
    pub fn map(&self) -> &ShardMap {
        &self.planner.map
    }

    /// The configuration the cluster was built with.
    pub fn config(&self) -> &ClusterConfig {
        &self.cfg
    }

    /// Current virtual time.
    pub fn now(&self) -> Time {
        self.sim.now()
    }

    /// Opens a new client session.
    pub fn open_session(&mut self) -> Session {
        let id = self.next_session;
        self.next_session += 1;
        Session {
            id,
            handles: Vec::new(),
            snap_cache: BTreeMap::new(),
        }
    }

    /// Submits a transaction at virtual time `at` (no waiting). A
    /// single-shard writeset runs the paper's protocol inside its shard,
    /// coordinated by a round-robin-chosen site. A writeset spanning
    /// shards is split into per-shard branches and driven by a
    /// cross-shard (top-level 2PC) coordinator at its *home* shard —
    /// the shard of its lowest item — with each branch holding at its
    /// in-shard commit point until the cross-shard decision. Panics on
    /// an empty writeset or items outside the cluster's space.
    pub fn submit_at(&mut self, at: Time, writeset: WriteSet) -> TxnHandle {
        let txn = TxnId(self.next_txn);
        let (coordinator, begin) = self
            .planner
            .plan_submit(at, txn, writeset, &BTreeSet::new())
            .expect("no site is routed around");
        self.next_txn += 1;
        self.sim
            .schedule_call(at, coordinator, move |node, ctx| match begin {
                NetMsg::BeginTxn {
                    txn,
                    writeset,
                    protocol,
                } => node.begin_transaction(ctx, txn, writeset, protocol),
                NetMsg::BeginXTxn { txn, branches } => node.begin_xshard(ctx, txn, branches),
                other => unreachable!("planned a {other:?}"),
            });
        *self.planner.handles.last().expect("just planned")
    }

    /// The shard set of a handle: the involved shards of a cross-shard
    /// transaction, or the handle's single shard.
    pub fn shards_of(&self, h: &TxnHandle) -> Vec<ShardId> {
        self.planner.shards_of(h).to_vec()
    }

    /// [`SimCluster::submit_at`], recorded in `session`.
    pub fn submit(&mut self, session: &mut Session, at: Time, writeset: WriteSet) -> TxnHandle {
        let h = self.submit_at(at, writeset);
        session.handles.push(h);
        h
    }

    /// Starts a quorum read of `item` at virtual time `at`, coordinated
    /// round-robin like a transaction.
    pub fn read_at(&mut self, at: Time, item: ItemId) -> ReadHandle {
        self.start_read_at(at, item, SiteNode::start_read)
    }

    /// Starts a snapshot read of `item` at virtual time `at`,
    /// coordinated round-robin like a transaction. Requires
    /// [`ClusterConfig::snapshot_reads`]; answered from the
    /// multi-version store at the shard watermark, so pinned copies
    /// never make it unavailable.
    pub fn snapshot_read_at(&mut self, at: Time, item: ItemId) -> ReadHandle {
        assert!(
            self.cfg.snapshot_reads,
            "snapshot reads are off; enable ClusterConfig::snapshot_reads"
        );
        self.start_read_at(at, item, SiteNode::start_snapshot_read)
    }

    /// Starts a read of `item` at virtual time `at` with `start`, at a
    /// coordinator picked round-robin (the rotation submissions use).
    fn start_read_at(&mut self, at: Time, item: ItemId, start: StartRead) -> ReadHandle {
        let coordinator = self
            .planner
            .plan_read(item, &BTreeSet::new())
            .unwrap_or_else(|| panic!("{item:?} outside the cluster's item space"));
        let req_id = self.next_read;
        self.next_read += 1;
        self.sim.schedule_call(at, coordinator, move |node, ctx| {
            start(node, ctx, req_id, item)
        });
        ReadHandle {
            req_id,
            coordinator,
            item,
            submitted_at: at,
        }
    }

    /// Blocking snapshot read through a session: starts the read now,
    /// drives the simulation until it resolves (bounded by enough
    /// collection windows to try every copy site), and applies the
    /// session-monotonicity clamp — successive reads of one item
    /// through one session never go backwards.
    pub fn snapshot_read(&mut self, session: &mut Session, item: ItemId) -> ReadResult {
        let h = self.snapshot_read_at(self.now(), item);
        // Worst case: one collection window per copy site, plus slack.
        let budget = self
            .cfg
            .t_bound
            .0
            .saturating_mul(8)
            .saturating_mul(self.cfg.replication as u64 + 2);
        let deadline = Time(self.now().0.saturating_add(budget.max(1)));
        let result = loop {
            match self.read_result(&h) {
                Some(r) if r != ReadResult::Pending => break r,
                _ if self.sim.now() >= deadline || !self.sim.step() => {
                    break ReadResult::Unavailable
                }
                _ => {}
            }
        };
        session.observe_snapshot(item, result)
    }

    /// Runs the cluster until virtual time `t`.
    pub fn run_until(&mut self, t: Time) {
        self.sim.run_until(t);
    }

    /// Runs until the event queue drains or `max_events` are processed.
    pub fn run_to_quiescence(&mut self, max_events: u64) -> Quiescence {
        self.sim.run_to_quiescence(max_events)
    }

    /// The decision for a handle, if any site of its shard set has one.
    pub fn decision(&self, h: &TxnHandle) -> Option<Decision> {
        if let Some(d) = self.sim.node(h.coordinator).decision(h.txn) {
            return Some(d);
        }
        self.handle_sites(h)
            .find_map(|s| self.sim.node(s).decision(h.txn))
    }

    /// Every site hosting any part of a handle's transaction (all sites
    /// of every involved shard).
    fn handle_sites<'a>(&'a self, h: &'a TxnHandle) -> impl Iterator<Item = SiteId> + 'a {
        let shards = self.planner.shards_of(h);
        shards.iter().flat_map(|&s| self.planner.map.sites_iter(s))
    }

    /// Client-observable status of a handle (see [`TxnStatus`]).
    pub fn status(&self, h: &TxnHandle) -> TxnStatus {
        match self.decision(h) {
            Some(Decision::Commit) => TxnStatus::Committed,
            Some(Decision::Abort) => TxnStatus::Aborted,
            None => {
                let known = self
                    .handle_sites(h)
                    .any(|s| self.sim.node(s).local_state(h.txn).is_some());
                // A down coordinator may hold the transaction durably in
                // its WAL and revive it on recovery: stay Pending until
                // it is back up and still knows nothing.
                let coordinator_down = self.sim.topology().is_down(h.coordinator);
                if known || coordinator_down || self.sim.now() <= h.submitted_at {
                    TxnStatus::Pending
                } else {
                    TxnStatus::Rejected
                }
            }
        }
    }

    /// The outcome of a read, quorum or snapshot, while its collector
    /// is alive (collectors retire a few windows after resolving).
    pub fn read_result(&self, h: &ReadHandle) -> Option<ReadResult> {
        self.sim.node(h.coordinator).read_result(h.req_id)
    }

    /// Drives the simulation until the handle resolves, the event queue
    /// drains, or virtual time reaches `deadline`; returns the decision
    /// if one was reached.
    pub fn await_decision(&mut self, h: &TxnHandle, deadline: Time) -> Option<Decision> {
        loop {
            if let Some(d) = self.decision(h) {
                return Some(d);
            }
            if self.sim.now() >= deadline || !self.sim.step() {
                return self.decision(h);
            }
        }
    }

    /// Awaits every transaction of a session (same bounds as
    /// [`SimCluster::await_decision`]); returns each handle's outcome.
    pub fn await_all(
        &mut self,
        session: &Session,
        deadline: Time,
    ) -> Vec<(TxnHandle, Option<Decision>)> {
        session
            .handles
            .iter()
            .map(|h| (*h, self.await_decision(h, deadline)))
            .collect()
    }

    /// Harvests the live metrics registry *and* the cluster-level
    /// atomicity check in one pass over the nodes (both views are from
    /// the same instant). Callable mid-run; peak queue depths
    /// accumulate across harvests.
    pub fn metrics_and_violations(&mut self) -> (ClusterMetrics, Vec<AtomicityViolation>) {
        let nodes: BTreeMap<SiteId, &SiteNode> = self.sim.nodes().collect();
        let (mut metrics, violations) = harvest(&self.planner, &nodes, self.sim.now());
        for (i, m) in metrics.shards.iter_mut().enumerate() {
            self.peak_queue[i] = self.peak_queue[i].max(m.queue_depth);
            m.peak_queue_depth = self.peak_queue[i];
        }
        if let (Some(obs), Some(v)) = (&self.obs, violations.first()) {
            // The one outcome the protocols must never allow: freeze
            // the flight recorder's view of how it happened.
            let _ = obs.dump(&format!("atomicity violation: txn {}", v.txn.0));
        }
        (metrics, violations)
    }

    /// The shared observer, when [`ClusterConfig::obs`] enabled one.
    pub fn obs(&self) -> Option<&Arc<Obs>> {
        self.obs.as_ref()
    }

    /// Deterministic JSON snapshot of the full metrics registry:
    /// per-shard counters/histograms plus (when observability is on)
    /// every observer metric. Key order is insertion order, and every
    /// value derives from virtual time, so two runs of the same
    /// schedule serialize byte-identically.
    pub fn metrics_json(&mut self) -> String {
        let now = self.sim.now();
        let metrics = self.metrics();
        let mut r = Registry::new();
        metrics.fill_registry(&mut r);
        if let Some(obs) = &self.obs {
            obs.fill_registry(now, &mut r);
        }
        r.json()
    }

    /// Harvests the live metrics registry: counters and histograms over
    /// everything submitted so far (see
    /// [`SimCluster::metrics_and_violations`] when the atomicity check
    /// is also needed).
    pub fn metrics(&mut self) -> ClusterMetrics {
        self.metrics_and_violations().0
    }

    /// Transactions that terminated inconsistently (must be empty).
    pub fn atomicity_violations(&self) -> Vec<AtomicityViolation> {
        let nodes: BTreeMap<SiteId, &SiteNode> = self.sim.nodes().collect();
        harvest(&self.planner, &nodes, self.sim.now()).1
    }

    /// Diagnostic violations recorded by any engine (must be empty).
    pub fn engine_violations(&self) -> Vec<(SiteId, Violation)> {
        self.sim
            .nodes()
            .flat_map(|(s, n)| n.violations().iter().cloned().map(move |v| (s, v)))
            .collect()
    }

    /// Every handle submitted so far, in submission order.
    pub fn handles(&self) -> &[TxnHandle] {
        &self.planner.handles
    }

    /// Read access to the underlying simulator (failure injection,
    /// node inspection).
    pub fn sim(&self) -> &Sim<SiteNode> {
        &self.sim
    }

    /// Mutable access to the underlying simulator (schedule crashes,
    /// partitions, recoveries around the client workload).
    pub fn sim_mut(&mut self) -> &mut Sim<SiteNode> {
        &mut self.sim
    }
}
