//! The read path of a site: quorum reads, snapshot reads, and the
//! commit-stable watermark that snapshot reads are served at.
//!
//! [`Reads`] keeps one collector table for both read kinds, keyed by
//! request id and bounded by [`NodeTimer::ReadRetire`]. A quorum read
//! collects `r(x)` votes over live, unpinned copies and returns the
//! max-version value (Gifford's currency rule), so copies pinned by a
//! blocked transaction make it unavailable. A snapshot read is served
//! from the multi-version store at the shard watermark, bypassing locks
//! and pins: one live copy answers it. The node feeds the watermark
//! through hooks on its commit path: [`Reads::pin`], [`Reads::raise_floor`],
//! [`Reads::note_installed`], [`Reads::release`], crash and recovery.

use crate::config::NodeConfig;
use crate::envelope::{NetMsg, NodeTimer};
use qbc_core::{TxnId, TxnSpec};
use qbc_locks::LockManager;
use qbc_obs::EventKind;
use qbc_simnet::{Ctx, FastHasher, Fingerprint, Label, SiteId, Time};
use qbc_storage::VersionedStore;
use qbc_votes::{ItemId, Version};
use std::collections::{BTreeMap, VecDeque};

/// A site's versioned copies.
type Store = VersionedStore<i64>;

/// Outcome of a read.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReadResult {
    /// Still collecting replies.
    Pending,
    /// Read quorum assembled (a snapshot read: one copy answered);
    /// max-version value returned.
    Success {
        /// Version of the newest copy in the quorum.
        version: Version,
        /// Its value.
        value: i64,
    },
    /// The collection window expired below quorum (partition, crashes,
    /// or copies pinned by blocked transactions); for a snapshot read,
    /// no copy site answered.
    Unavailable,
}

/// A read this site resolved, queued for the host with
/// [`NodeConfig::decision_events`] on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReadEvent {
    /// The request id the read was started with.
    pub req_id: u64,
    /// Its outcome, never [`ReadResult::Pending`].
    pub result: ReadResult,
}

#[derive(Clone, Debug)]
struct Collect {
    item: ItemId,
    kind: ReadKind,
    result: ReadResult,
}

#[derive(Clone, Debug)]
enum ReadKind {
    /// Summed votes of the copies that answered unpinned, and the
    /// newest `(version, value)` among them.
    Quorum {
        votes: u32,
        best: Option<(Version, i64)>,
    },
    /// Copy sites asked in turn, each for one [`NodeTimer::ReadTimeout`];
    /// only crashes or a partition, never pins, can exhaust them.
    Snapshot { targets: Vec<SiteId>, next: usize },
}

/// What one step of the read path borrows from its site.
pub(crate) struct ReadSite<'a, 'c> {
    pub(crate) cfg: &'a NodeConfig,
    pub(crate) items: &'a Store,
    pub(crate) locks: &'a LockManager<ItemId, TxnId>,
    /// The site's self-delivery queue.
    pub(crate) local: &'a mut VecDeque<NetMsg>,
    pub(crate) ctx: &'a mut Ctx<'c, NetMsg, NodeTimer>,
}

impl ReadSite<'_, '_> {
    /// Sends at once: a read speaks for no transaction, so no log gate
    /// withholds it. A message to this site goes to its local queue.
    fn send(&mut self, to: SiteId, msg: NetMsg) {
        if to == self.cfg.site {
            return self.local.push_back(msg);
        }
        if let Some(obs) = &self.cfg.obs {
            obs.note_msg(msg.label());
        }
        self.ctx.send(to, msg);
    }

    fn emit(&self, kind: EventKind) {
        self.cfg.emit(self.ctx.now(), None, kind);
    }

    fn arm_timeout(&mut self, req_id: u64) {
        self.ctx
            .set_timer(self.cfg.window_2t(), NodeTimer::ReadTimeout { req_id });
    }

    /// A resolved collector stays readable for two collection windows.
    fn arm_retire(&mut self, req_id: u64) {
        let ttl = qbc_simnet::Duration(self.cfg.window_2t().0.saturating_mul(2).max(1));
        self.ctx.set_timer(ttl, NodeTimer::ReadRetire { req_id });
    }
}

/// The highest local version among `spec`'s writeset copies: what a yes
/// vote reports, and the floor its pin puts on the watermark.
pub(crate) fn local_max_version(items: &Store, spec: &TxnSpec) -> Option<Version> {
    spec.writeset.items().filter_map(|i| items.version(i)).max()
}

/// A site's read path: its read collectors and watermark state.
#[derive(Clone, Default)]
pub(crate) struct Reads {
    /// [`NodeConfig::snapshot_reads`]: else no watermark is kept.
    snapshot: bool,
    /// [`NodeConfig::decision_events`]: queue resolved reads in `events`.
    push: bool,
    table: BTreeMap<u64, Collect>,
    events: Vec<ReadEvent>,
    /// This site's commit-stable watermark: every version at or below
    /// it on a local copy belongs to a *decided* transaction. Monotone.
    local_wm: Version,
    /// Highest version ever installed on a local copy.
    vmax: Version,
    /// Per undecided pinning transaction, a floor on its eventual
    /// commit version: the watermark may not pass the smallest.
    stable_floors: BTreeMap<TxnId, Version>,
    /// Latest watermark heard from each peer, max-merged.
    peer_watermarks: BTreeMap<SiteId, Version>,
    /// The other sites holding a copy of an item this site hosts: the
    /// peers bounding the shard watermark.
    wm_peers: Vec<SiteId>,
    /// Shard watermark below which version GC already ran.
    last_gc_wm: Version,
}

impl Reads {
    pub(crate) fn new(snapshot: bool, push: bool, wm_peers: Vec<SiteId>) -> Self {
        Reads {
            snapshot,
            push,
            wm_peers,
            ..Reads::default()
        }
    }

    pub(crate) fn result(&self, req_id: u64) -> Option<ReadResult> {
        self.table.get(&req_id).map(|r| r.result)
    }

    pub(crate) fn len(&self) -> usize {
        self.table.len()
    }

    pub(crate) fn pending(&self) -> impl Iterator<Item = u64> + '_ {
        let pending = |(&id, r): (&u64, &Collect)| (r.result == ReadResult::Pending).then_some(id);
        self.table.iter().filter_map(pending)
    }

    pub(crate) fn drain_events(&mut self, out: &mut Vec<ReadEvent>) {
        out.append(&mut self.events);
    }

    /// This site's watermark bounded by the latest one heard from every
    /// copy-sharing peer.
    pub(crate) fn shard_watermark(&self) -> Version {
        let heard = |p| self.peer_watermarks.get(p).copied();
        self.wm_peers.iter().fold(self.local_wm, |wm, p| {
            wm.min(heard(p).unwrap_or(Version::INITIAL))
        })
    }

    /// Opens a collector; one already resolved is answered and retired.
    fn open(&mut self, site: &mut ReadSite<'_, '_>, req_id: u64, read: Collect) {
        let result = read.result;
        self.table.insert(req_id, read);
        if result != ReadResult::Pending {
            self.settle(req_id, result);
            site.arm_retire(req_id);
        }
    }

    /// Records a read's result and queues it for the host.
    fn settle(&mut self, req_id: u64, result: ReadResult) {
        if let Some(r) = self.table.get_mut(&req_id) {
            r.result = result;
        }
        if self.push {
            self.events.push(ReadEvent { req_id, result });
        }
    }

    /// Starts a quorum read of `item`, asking every copy site; an
    /// unknown item is unavailable at once.
    pub(crate) fn start_read(&mut self, site: &mut ReadSite<'_, '_>, req_id: u64, item: ItemId) {
        let cfg = site.cfg;
        let spec = cfg.catalog.item(item);
        let result = spec.map_or(ReadResult::Unavailable, |_| ReadResult::Pending);
        let kind = ReadKind::Quorum {
            votes: 0,
            best: None,
        };
        self.open(site, req_id, Collect { item, kind, result });
        if let Some(spec) = spec {
            for to in spec.sites() {
                site.send(to, NetMsg::ReadReq { req_id, item });
            }
            site.arm_timeout(req_id);
        }
    }

    /// Starts a snapshot read of `item` at the shard watermark: a local
    /// copy answers on the spot, else the other copy sites are asked in
    /// turn. With none (an unknown item, or a catalog listing only this
    /// copyless site) nothing can ever answer.
    pub(crate) fn start_snapshot_read(
        &mut self,
        site: &mut ReadSite<'_, '_>,
        req_id: u64,
        item: ItemId,
    ) {
        let answer = |result, targets| Collect {
            item,
            kind: ReadKind::Snapshot { targets, next: 1 },
            result,
        };
        if let Some((version, &value)) = site.items.read_at(item, self.shard_watermark()) {
            site.emit(EventKind::SnapshotRead { item, local: true });
            let read = answer(ReadResult::Success { version, value }, Vec::new());
            return self.open(site, req_id, read);
        }
        let me = site.cfg.site;
        let targets: Vec<SiteId> = match site.cfg.catalog.item(item) {
            Some(spec) => spec.sites().filter(|&s| s != me).collect(),
            None => Vec::new(),
        };
        let Some(&to) = targets.first() else {
            site.emit(EventKind::SnapshotReadUnavailable { item });
            return self.open(site, req_id, answer(ReadResult::Unavailable, targets));
        };
        self.open(site, req_id, answer(ReadResult::Pending, targets));
        site.send(to, NetMsg::SnapReadReq { req_id, item });
        site.arm_timeout(req_id);
    }

    /// Handles one read message, or a front door's
    /// [`NetMsg::BeginSnapRead`].
    pub(crate) fn handle_net(&mut self, site: &mut ReadSite<'_, '_>, from: SiteId, msg: NetMsg) {
        match msg {
            NetMsg::BeginSnapRead { req_id, item } => {
                self.start_snapshot_read(site, req_id, item);
            }
            NetMsg::ReadReq { req_id, item } => {
                // A copy pinned by an undecided transaction is inaccessible.
                let pinned = site.locks.is_locked(&item);
                let copy = site.items.read(item).filter(|_| !pinned);
                let copy = copy.map(|(v, val)| (v, *val));
                site.send(from, NetMsg::ReadRep { req_id, item, copy });
            }
            NetMsg::ReadRep { req_id, item, copy } => {
                let cfg = site.cfg;
                let (Some(spec), Some((version, value))) = (cfg.catalog.item(item), copy) else {
                    return;
                };
                let Some(r) = self.table.get_mut(&req_id) else {
                    return;
                };
                let ReadKind::Quorum { votes, best } = &mut r.kind else {
                    return;
                };
                if r.result != ReadResult::Pending || r.item != item {
                    return;
                }
                *votes += spec.weight_at(from);
                if best.is_none_or(|(bv, _)| version > bv) {
                    *best = Some((version, value));
                }
                if let (true, Some((version, value))) = (*votes >= spec.read_quorum, *best) {
                    self.settle(req_id, ReadResult::Success { version, value });
                }
            }
            NetMsg::SnapReadReq { req_id, item } => {
                let wm = self.shard_watermark();
                let copy = site.items.read_at(item, wm).map(|(v, val)| (v, *val));
                let reply = NetMsg::SnapReadRep {
                    req_id,
                    item,
                    copy,
                    wm,
                };
                site.send(from, reply);
            }
            NetMsg::SnapReadRep {
                req_id,
                item,
                copy,
                wm,
            } => {
                self.hear_watermark(from, wm);
                let waiting = |r: &Collect| {
                    let snapshot = matches!(r.kind, ReadKind::Snapshot { .. });
                    snapshot && r.result == ReadResult::Pending && r.item == item
                };
                // A copyless answer (catalog drift) leaves the read to
                // its timeout, which moves on to the next copy site.
                let waiting = self.table.get(&req_id).is_some_and(waiting);
                if let (true, Some((version, value))) = (waiting, copy) {
                    self.settle(req_id, ReadResult::Success { version, value });
                    site.emit(EventKind::SnapshotRead { item, local: false });
                    site.arm_retire(req_id);
                }
            }
            other => unreachable!("{} is not a read message", other.label()),
        }
    }

    /// A read's timeout: it closes a quorum read, and moves a snapshot
    /// read still waiting on to its next copy site, unavailable after
    /// the last.
    pub(crate) fn on_timeout(&mut self, site: &mut ReadSite<'_, '_>, req_id: u64) {
        let Some(r) = self.table.get_mut(&req_id) else {
            return;
        };
        let (item, pending) = (r.item, r.result == ReadResult::Pending);
        match &mut r.kind {
            ReadKind::Quorum { .. } => {
                if pending {
                    self.settle(req_id, ReadResult::Unavailable);
                }
                site.arm_retire(req_id);
            }
            ReadKind::Snapshot { targets, next } if pending => match targets.get(*next) {
                Some(&to) => {
                    *next += 1;
                    site.send(to, NetMsg::SnapReadReq { req_id, item });
                    site.arm_timeout(req_id);
                }
                None => {
                    self.settle(req_id, ReadResult::Unavailable);
                    site.emit(EventKind::SnapshotReadUnavailable { item });
                    site.arm_retire(req_id);
                }
            },
            ReadKind::Snapshot { .. } => {}
        }
    }

    pub(crate) fn retire(&mut self, req_id: u64) {
        self.table.remove(&req_id);
    }

    /// Wraps an outbound protocol message with this site's watermark
    /// ([`NetMsg::ProtoW`]) when snapshot reads are on.
    pub(crate) fn piggyback(&self, msg: NetMsg) -> NetMsg {
        match msg {
            NetMsg::Proto(m) if self.snapshot => NetMsg::ProtoW {
                msg: m,
                wm: self.local_wm,
            },
            other => other,
        }
    }

    /// Max-merges a peer's watermark: deliveries can reorder, and a
    /// watermark never regresses.
    pub(crate) fn hear_watermark(&mut self, from: SiteId, wm: Version) {
        if self.snapshot {
            let e = self.peer_watermarks.entry(from).or_default();
            *e = (*e).max(wm);
        }
    }

    /// `txn` pins its writeset's local copies, on a yes vote or again in
    /// recovery. Its commit version, if any, exceeds their highest local
    /// version, and is `commit_version` once a PreCommit fixed it: that
    /// floors the watermark until the decision.
    pub(crate) fn pin(&mut self, txn: TxnId, items: &Store, spec: &TxnSpec, cv: Option<Version>) {
        if self.snapshot {
            let pc = cv.map(|cv| Version(cv.0.saturating_sub(1)));
            if let Some(floor) = local_max_version(items, spec).max(pc) {
                self.stable_floors.insert(txn, floor);
            }
        }
    }

    /// A PreCommit record fixed `txn`'s commit version: its floor rises
    /// to just below it (a decided commit at `commit_version - 1` is
    /// stable).
    pub(crate) fn raise_floor(&mut self, txn: TxnId, commit_version: Version) {
        if self.snapshot {
            let floor = Version(commit_version.0.saturating_sub(1));
            let e = self.stable_floors.entry(txn).or_default();
            *e = (*e).max(floor);
        }
    }

    pub(crate) fn note_installed(&mut self, version: Version) {
        self.vmax = self.vmax.max(version);
    }

    /// `txn` decided here: its floor no longer binds the watermark,
    /// which may advance, and versions below the *shard* watermark are
    /// dropped (a peer may still serve reads at its lower watermark, so
    /// GC must not outrun the minimum).
    pub(crate) fn release(&mut self, txn: TxnId, items: &mut Store) {
        if !self.snapshot {
            return;
        }
        self.stable_floors.remove(&txn);
        self.refresh_watermark();
        let wm = self.shard_watermark();
        if wm > self.last_gc_wm {
            self.last_gc_wm = wm;
            items.gc_below(wm);
        }
    }

    /// Raises the local watermark to `vmax` bounded by every open floor.
    fn refresh_watermark(&mut self) {
        let floors = self.stable_floors.values();
        let wm = floors.fold(self.vmax, |wm, &f| wm.min(f));
        self.local_wm = self.local_wm.max(wm);
    }

    /// Everything here is volatile. Recovery re-pins in-doubt
    /// transactions and then rebuilds the rest ([`Reads::recover`]);
    /// peers keep their last-heard value for this site, stale but valid.
    pub(crate) fn crash(&mut self) {
        let wm_peers = std::mem::take(&mut self.wm_peers);
        *self = Reads::new(self.snapshot, self.push, wm_peers);
    }

    /// Rebuilds `vmax` from the durable store, where every installed
    /// version survived, and the watermark over the re-pinned floors.
    pub(crate) fn recover(&mut self, items: &Store) {
        if self.snapshot {
            let installed = items.entries().map(|(_, v, _)| v);
            self.vmax = installed.fold(self.vmax, Version::max);
            self.refresh_watermark();
        }
    }
}

/// The read half of a site's model-checker state. Queued answers are
/// left out, like the node's decision events: the host drains both
/// after every step.
impl Fingerprint for Reads {
    fn fingerprint(&self, _now: Time, h: &mut FastHasher) {
        use std::hash::Hasher as _;
        let (table, wm, vmax, gc) = (&self.table, self.local_wm, self.vmax, self.last_gc_wm);
        let (floors, pwm) = (&self.stable_floors, &self.peer_watermarks);
        let s = format!("reads{table:?}|wm{wm:?},{vmax:?},{gc:?}|floors{floors:?}|pwm{pwm:?}");
        h.write(s.as_bytes());
    }
}
