//! The database site node: protocol engines wired to the network, the
//! lock manager and stable storage.
//!
//! A [`SiteNode`] implements [`Process`] and can run on the
//! deterministic simulator or under a `NodeDriver` (the reactor). Per
//! transaction it hosts:
//!
//! * a [`Participant`] engine (always),
//! * a [`Coordinator`] engine (at the site where the client submitted),
//! * an [`Elector`] plus a [`Termination`] engine while the termination
//!   protocol runs (any site of the partition can end up coordinator —
//!   including several at once),
//!
//! and integrates them with:
//!
//! * **strict 2PL (no-wait)** — voting yes requires X-locks on every
//!   local copy of the writeset; a conflict makes the site vote no;
//!   locks are held until the decision, which is what makes *blocked*
//!   transactions reduce availability (the paper's Section 1 argument);
//! * **stable storage** — every engine `Log` action is force-written
//!   before subsequent sends; recovery replays the log and re-enters the
//!   termination path;
//! * **quorum reads** — `r(x)` votes collected over live, unlocked
//!   copies, returning the max-version value (Gifford's currency rule).

use crate::config::NodeConfig;
use crate::durable_log::{DeferredOp, DurableLog};
use crate::envelope::{NetMsg, NodeTimer};
use qbc_core::{
    last_checkpoint, recover_paxos, recover_state, recover_xstate, Action, Coordinator, Decision,
    LocalState, LogRecord, Msg, Participant, ParticipantConfig, PaxosAcceptor, PaxosLeader,
    ProtocolKind, RetiredOutcome, Termination, TimerKind, Transition, TxnId, TxnSpec, WriteSet,
    XRetiredOutcome, XTxnCoordinator,
};
use qbc_election::{Action as ElAction, ElectionMsg, Elector, Input as ElInput};
use qbc_locks::{LockManager, LockMode, LockOutcome};
use qbc_obs::{EventKind, TraceEvent, TraceSink};
use qbc_simnet::{Ctx, Label, Process, SiteId, Time, TimerId};
use qbc_storage::{Lsn, VersionedStore, WalBackend};
use qbc_votes::{Catalog, FastMap, ItemId, Version};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::Arc;

/// Outcome of a quorum read.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReadResult {
    /// Still collecting replies.
    Pending,
    /// Read quorum assembled; max-version value returned.
    Success {
        /// Version of the newest copy in the quorum.
        version: Version,
        /// Its value.
        value: i64,
    },
    /// The collection window expired below quorum (partition, crashes,
    /// or copies pinned by blocked transactions).
    Unavailable,
}

#[derive(Clone, Debug)]
struct ReadCollect {
    item: ItemId,
    votes: u32,
    best: Option<(Version, i64)>,
    result: ReadResult,
}

/// A snapshot read in flight: copy sites are tried one at a time (the
/// answer needs one live copy, not a quorum), with a timeout advancing
/// to the next site. Exhausting `targets` — only possible through real
/// crashes or partitions, never pinned copies — yields `Unavailable`.
#[derive(Clone, Debug)]
struct SnapReadCollect {
    item: ItemId,
    targets: Vec<SiteId>,
    /// Next entry of `targets` to try when the current attempt times out.
    next_target: usize,
    result: ReadResult,
}

/// Per-transaction state hosted at this site.
#[derive(Clone, Debug)]
struct TxnState {
    spec: Arc<TxnSpec>,
    participant: Participant,
    /// The four driving engines are boxed: at two of three sites every
    /// transaction is participant-only, and inline they were three
    /// quarters of the entry.
    coordinator: Option<Box<Coordinator>>,
    /// The Paxos Commit leader (at the submitting site, ballot 0) or
    /// recovery candidate (any participant whose watchdog fired, at a
    /// positive ballot) — the [`ProtocolKind::PaxosCommit`] peer of
    /// `coordinator`. A later candidacy replaces an earlier engine;
    /// ballots only grow.
    paxos: Option<Box<PaxosLeader>>,
    termination: Option<Box<Termination>>,
    elector: Option<Box<Elector>>,
    /// End LSN of the newest log record this site staged for the
    /// transaction ([`Lsn`]`(0)`: none). Whatever the transaction tells
    /// another site, applies or releases waits until the durable
    /// watermark reaches it — see [`SiteNode::closed_gate`].
    gate: Lsn,
    last_coord_contact: Time,
    watchdog_armed: bool,
    decided: Option<Decision>,
    decided_at: Option<Time>,
    /// Commit version adopted with an engine-less decision (a recovered
    /// copy-less branch coordinator learning `X-DECIDE` directly): the
    /// participant never saw a command, so the version must be kept
    /// here for retirement records and `Decided` re-announces.
    decided_version: Option<Version>,
    blocked: bool,
    termination_rounds: u64,
    started_at: Time,
    /// Coordinators of the sibling branches of a cross-shard
    /// transaction (from `X-BRANCH-REQ`). Outcome discovery asks them
    /// alongside the parent: any branch that learned the top-level
    /// decision can answer, so a crashed parent no longer blocks this
    /// shard until recovery. Volatile — a branch coordinator that
    /// crashes falls back to parent-only discovery.
    x_siblings: Vec<SiteId>,
}

impl TxnState {
    /// A fresh entry: no driving engine, undecided, nothing logged.
    fn new(spec: Arc<TxnSpec>, participant: Participant, now: Time) -> Self {
        TxnState {
            spec,
            participant,
            coordinator: None,
            paxos: None,
            termination: None,
            elector: None,
            gate: Lsn(0),
            last_coord_contact: now,
            watchdog_armed: false,
            decided: None,
            decided_at: None,
            decided_version: None,
            blocked: false,
            termination_rounds: 0,
            started_at: now,
            x_siblings: Vec::new(),
        }
    }

    /// The commit version to re-announce with this entry's decision,
    /// whichever role learned it.
    fn commit_version(&self) -> Option<Version> {
        self.participant
            .commit_version()
            .or_else(|| self.coordinator.as_ref().and_then(|c| c.commit_version()))
            .or_else(|| self.paxos.as_ref().and_then(|p| p.commit_version()))
            .or(self.decided_version)
    }
}

/// A cross-shard coordination hosted at this site, with the gate LSN of
/// the records staged for it (the same rule as [`TxnState::gate`]).
#[derive(Clone, Debug)]
struct XCoord {
    engine: XTxnCoordinator,
    gate: Lsn,
}

/// Compact outcome of a retired (decided, past the re-announce window)
/// transaction: everything a straggler's question can still need,
/// without the engines, spec and audit trail of a live [`TxnState`].
#[derive(Clone, Copy, Debug)]
struct RetiredTxn {
    decision: Decision,
    commit_version: Option<Version>,
    decided_at: Time,
}

/// Compact outcome of a retired cross-shard coordination: enough to
/// keep answering `X-OUTCOME-REQ` from late orphans (per-branch
/// membership and commit versions) after the engine and its specs are
/// dropped.
#[derive(Clone, Debug)]
struct XRetired {
    decision: Decision,
    /// `(coordinator, participants, in-shard commit version)` per branch.
    branches: Vec<(SiteId, BTreeSet<SiteId>, Option<Version>)>,
}

impl XRetired {
    fn xdecide_for(&self, to: SiteId, txn: TxnId) -> Msg {
        let commit_version = match self.decision {
            Decision::Commit => self
                .branches
                .iter()
                .find(|(c, p, _)| *c == to || p.contains(&to))
                .and_then(|(_, _, v)| *v),
            Decision::Abort => None,
        };
        Msg::XDecide {
            txn,
            decision: self.decision,
            commit_version,
        }
    }
}

/// One local decision transition, recorded for
/// [`SiteNode::drain_decision_events`] when
/// [`NodeConfig::decision_events`] is on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DecisionEvent {
    /// Transaction that decided.
    pub txn: TxnId,
    /// The outcome.
    pub decision: Decision,
    /// Commit version, when the outcome is a commit and this site
    /// learned the version alongside it.
    pub commit_version: Option<Version>,
}

/// A diagnostic violation note recorded by the engines.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Violation {
    /// Transaction involved.
    pub txn: TxnId,
    /// What happened.
    pub note: &'static str,
}

/// One full database site.
///
/// `Clone` is how the model checker branches on a choice point: it
/// duplicates the entire site (engines, lock table, log, item store).
/// Only meaningful on the in-memory WAL backend — cloning a site with
/// a file-backed log panics (see [`qbc_storage::EitherWal`]).
#[derive(Clone)]
pub struct SiteNode {
    cfg: NodeConfig,
    catalog: Arc<Catalog>,
    /// The write-ahead log behind its durability gate: nothing of a
    /// transaction is told or applied while a record of it is undurable.
    log: DurableLog,
    /// The versioned copies this site holds. Durable: survives `on_crash`
    /// (the page store of a real site).
    items: VersionedStore<i64>,
    locks: LockManager<ItemId, TxnId>,
    /// Per-transaction state. A (deterministic) hash map: the table
    /// grows with every transaction the site ever hosted and sits on
    /// every message's path; nothing iterates it in an order-sensitive
    /// way (accessors sort), so O(1) lookups are free determinism-wise.
    txns: FastMap<TxnId, TxnState>,
    /// Cross-shard (top-level 2PC) coordinations hosted at this site.
    xcoords: FastMap<TxnId, XCoord>,
    /// Paxos Commit acceptor state, one per transaction this site
    /// co-hosts an acceptor for (every participant site). Spec-free and
    /// keyed separately from `txns`: a recovering site re-installs it
    /// straight from its `PaxosPromise`/`PaxosAccept` records, and a
    /// candidate's 1a can be answered before the site ever saw the
    /// `VOTE-REQ`. Dropped at retirement alongside the `txns` entry.
    acceptors: FastMap<TxnId, PaxosAcceptor>,
    /// Compact outcomes of retired transactions (see
    /// [`NodeConfig::retire_after`]); rebuilt from the WAL on recovery.
    retired: FastMap<TxnId, RetiredTxn>,
    /// Compact outcomes of retired cross-shard coordinations.
    xretired: FastMap<TxnId, XRetired>,
    /// Decisions awaiting retirement, in decision-time order (times are
    /// event times, hence monotonic — a plain queue, no heap needed).
    retire_queue: VecDeque<(Time, TxnId)>,
    /// Retired outcomes queued for aging out entirely (only with
    /// [`NodeConfig::retire_horizon`]); retirement-time order, so the
    /// sweep stops at the first young entry.
    age_queue: VecDeque<(Time, TxnId)>,
    reads: BTreeMap<u64, ReadCollect>,
    /// Snapshot-read collectors. Kept apart from `reads` (different
    /// resolution machinery) but sharing its request-id space; both
    /// tables are bounded by the same `ReadRetire` timers.
    snap_reads: BTreeMap<u64, SnapReadCollect>,
    violations: Vec<Violation>,
    /// Self-addressed messages processed synchronously (local delivery).
    local_queue: VecDeque<NetMsg>,
    /// Scratch buffer [`DurableLog::force_done`] releases effects into,
    /// kept so the withhold → force → run cycle allocates nothing in
    /// steady state.
    released: Vec<DeferredOp>,
    /// Emptied engine-action scratch buffers kept for reuse: engines
    /// push into a caller-supplied buffer, `apply_actions` drains it
    /// and returns it here, so the steady-state message path allocates
    /// no `Vec<Action>` per event.
    spare_actions: Vec<Vec<Action>>,
    /// Host-drainable record of local decision transitions (only with
    /// [`NodeConfig::decision_events`]); push-style front-ends drain it
    /// after every delivery to answer waiting client sessions.
    decision_events: Vec<DecisionEvent>,
    /// First log record of every *live* transaction — the LSNs a
    /// checkpoint's truncation cutoff must stay below. Entries are
    /// dropped at retirement (the checkpoint record then carries the
    /// outcome instead).
    first_lsn: FastMap<TxnId, Lsn>,
    /// Whether a [`NodeTimer::Checkpoint`] tick is outstanding (armed
    /// lazily by the first record after a quiet period, so an idle site
    /// quiesces instead of ticking forever).
    checkpoint_armed: bool,
    /// Log end as of the last checkpoint (including the checkpoint
    /// record itself); no new checkpoint until the log outgrows it.
    last_checkpoint_end: Lsn,
    /// Encoded bytes of log records appended since the last checkpoint
    /// (the [`NodeConfig::checkpoint_bytes`] trigger). Only maintained
    /// when that threshold is configured; volatile (a post-recovery
    /// checkpoint re-baselines it).
    bytes_since_checkpoint: u64,
    /// Recursion guard: the checkpoint record itself passes through
    /// `log_record`, which must not re-enter the byte-threshold
    /// checkpoint while one is being written.
    checkpointing: bool,
    /// This site's commit-stable watermark: every version at or below
    /// it on a local copy belongs to a *decided* transaction. Monotone;
    /// maintained only when [`NodeConfig::snapshot_reads`] is on.
    local_wm: Version,
    /// Highest version ever installed on a local copy.
    vmax: Version,
    /// Per-undecided-pinning-transaction floor on its eventual commit
    /// version: a yes vote reporting local max `m` proves the commit
    /// version, if any, exceeds `m`; a PreCommit record raises the floor
    /// to `commit_version - 1`. The watermark may not pass the smallest
    /// floor while its transaction's outcome is open here.
    stable_floors: FastMap<TxnId, Version>,
    /// Latest watermark heard from each peer, piggybacked on protocol
    /// messages ([`NetMsg::ProtoW`]); max-merged so a stale delivery
    /// never regresses it.
    peer_watermarks: FastMap<SiteId, Version>,
    /// The peers whose watermarks bound this site's *shard* watermark:
    /// every other site holding a copy of any item this site hosts
    /// (computed once from the catalog; unheard peers count as
    /// [`Version::INITIAL`]).
    wm_peers: Vec<SiteId>,
    /// Shard watermark below which version GC already ran.
    last_gc_wm: Version,
}

impl SiteNode {
    /// Builds a site and loads the initial value of every local copy.
    ///
    /// With a file-backed WAL ([`crate::WalBackendConfig::File`]) the log
    /// directory is opened, recovering any existing segments; a node
    /// whose reopened log is non-empty then replays it automatically
    /// in `on_start` (both substrates invoke it before delivering
    /// anything), so restarting over an existing directory needs no
    /// manual recovery scheduling.
    ///
    /// # Panics
    /// When the file-backed log cannot be opened (I/O error or non-tail
    /// corruption): a site without its log has no safe way to run.
    pub fn new(cfg: NodeConfig, initial_values: impl Fn(ItemId) -> i64) -> Self {
        let catalog = Arc::new(cfg.catalog.clone());
        let log = DurableLog::open(&cfg);
        let mut items = VersionedStore::new();
        items.set_retention(cfg.version_retention.max(1));
        for item in catalog.items_at(cfg.site) {
            items.initialize(item, initial_values(item));
        }
        // The shard watermark is bounded by every other site that holds
        // a copy of anything this site hosts: those are exactly the
        // sites whose in-flight transactions can pin a local copy.
        let wm_peers: Vec<SiteId> = if cfg.snapshot_reads {
            let mut peers: BTreeSet<SiteId> = BTreeSet::new();
            for item in catalog.items_at(cfg.site) {
                if let Some(spec) = catalog.item(item) {
                    peers.extend(spec.sites());
                }
            }
            peers.remove(&cfg.site);
            peers.into_iter().collect()
        } else {
            Vec::new()
        };
        SiteNode {
            cfg,
            catalog,
            log,
            items,
            locks: LockManager::new(),
            txns: FastMap::default(),
            xcoords: FastMap::default(),
            acceptors: FastMap::default(),
            retired: FastMap::default(),
            xretired: FastMap::default(),
            retire_queue: VecDeque::new(),
            age_queue: VecDeque::new(),
            reads: BTreeMap::new(),
            snap_reads: BTreeMap::new(),
            violations: Vec::new(),
            local_queue: VecDeque::new(),
            released: Vec::new(),
            spare_actions: Vec::new(),
            decision_events: Vec::new(),
            first_lsn: FastMap::default(),
            checkpoint_armed: false,
            last_checkpoint_end: Lsn(0),
            bytes_since_checkpoint: 0,
            checkpointing: false,
            local_wm: Version::INITIAL,
            vmax: Version::INITIAL,
            stable_floors: FastMap::default(),
            peer_watermarks: FastMap::default(),
            wm_peers,
            last_gc_wm: Version::INITIAL,
        }
    }

    /// This site's id.
    pub fn site(&self) -> SiteId {
        self.cfg.site
    }

    // ---- public inspection API (used by the harness and tests) --------

    /// The decision reached for a transaction at this site, if any
    /// (retired transactions keep answering from their compact record).
    pub fn decision(&self, txn: TxnId) -> Option<Decision> {
        self.txns
            .get(&txn)
            .and_then(|t| t.decided)
            .or_else(|| self.retired.get(&txn).map(|r| r.decision))
    }

    /// Virtual time at which this site decided the transaction.
    pub fn decided_at(&self, txn: TxnId) -> Option<Time> {
        self.txns
            .get(&txn)
            .and_then(|t| t.decided_at)
            .or_else(|| self.retired.get(&txn).map(|r| r.decided_at))
    }

    /// The local participant state for a transaction.
    pub fn local_state(&self, txn: TxnId) -> Option<LocalState> {
        self.txns
            .get(&txn)
            .map(|t| t.participant.state())
            .or_else(|| {
                self.retired.get(&txn).map(|r| match r.decision {
                    Decision::Commit => LocalState::Committed,
                    Decision::Abort => LocalState::Aborted,
                })
            })
    }

    /// Number of live (unretired) per-transaction state entries — the
    /// table the retention policy ([`NodeConfig::retire_after`]) bounds.
    pub fn txn_table_len(&self) -> usize {
        self.txns.len()
    }

    /// Number of transactions retired to compact outcome records.
    pub fn retired_len(&self) -> usize {
        self.retired.len()
    }

    /// Number of cross-shard coordinations retired to compact records.
    pub fn xretired_len(&self) -> usize {
        self.xretired.len()
    }

    /// Drains the decision transitions recorded since the last drain
    /// into `out` (only populated with
    /// [`NodeConfig::decision_events`]). Front-ends call this after
    /// every delivery: each event is the moment this site first learned
    /// a transaction's outcome.
    pub fn drain_decision_events(&mut self, out: &mut Vec<DecisionEvent>) {
        out.append(&mut self.decision_events);
    }

    /// Records a local decision transition for
    /// [`SiteNode::drain_decision_events`]. Call sites are exactly the
    /// `st.decided` `None -> Some` assignments, so one event fires per
    /// transaction per site lifetime.
    fn note_decision(&mut self, txn: TxnId, decision: Decision, commit_version: Option<Version>) {
        if self.cfg.decision_events {
            self.decision_events.push(DecisionEvent {
                txn,
                decision,
                commit_version,
            });
        }
    }

    /// The top-level decision of a cross-shard transaction coordinated
    /// at this site, if reached.
    pub fn x_decision(&self, txn: TxnId) -> Option<Decision> {
        self.xcoords
            .get(&txn)
            .and_then(|x| x.engine.decision())
            .or_else(|| self.xretired.get(&txn).map(|x| x.decision))
    }

    /// True while the transaction is declared blocked at this site.
    pub fn is_blocked(&self, txn: TxnId) -> bool {
        self.txns.get(&txn).map(|t| t.blocked).unwrap_or(false)
    }

    /// The commit version this site associates with its decision for
    /// `txn`, whichever role learned it (participant command, coordinator
    /// decision, engine-less `X-DECIDE` adoption, or a retired record).
    pub fn commit_version_of(&self, txn: TxnId) -> Option<Version> {
        self.txns
            .get(&txn)
            .and_then(|t| t.commit_version())
            .or_else(|| self.retired.get(&txn).and_then(|r| r.commit_version))
    }

    /// All transactions this site knows about, in id order.
    pub fn known_txns(&self) -> Vec<TxnId> {
        let mut out: Vec<TxnId> = self.txns.keys().copied().collect();
        out.sort_unstable();
        out
    }

    /// The audit trail of participant state transitions (experiment E6).
    pub fn transitions(&self, txn: TxnId) -> &[Transition] {
        self.txns
            .get(&txn)
            .map(|t| t.participant.transitions())
            .unwrap_or(&[])
    }

    /// Diagnostic violations recorded by the engines (empty in correct
    /// runs).
    pub fn violations(&self) -> &[Violation] {
        &self.violations
    }

    /// The durable value of a local copy.
    pub fn item_value(&self, item: ItemId) -> Option<(Version, i64)> {
        self.items.read(item).map(|(v, val)| (v, *val))
    }

    /// True when the local copy of `item` is pinned by an undecided
    /// transaction's lock.
    pub fn is_item_locked(&self, item: ItemId) -> bool {
        self.locks.is_locked(&item)
    }

    /// The result of a quorum read started with [`SiteNode::start_read`].
    ///
    /// Collectors are retired a couple of collection windows after they
    /// resolve (see [`NodeTimer::ReadRetire`]); `None` for an unknown or
    /// already-retired request id.
    pub fn read_result(&self, req_id: u64) -> Option<ReadResult> {
        self.reads.get(&req_id).map(|r| r.result)
    }

    /// The result of a snapshot read started with
    /// [`SiteNode::start_snapshot_read`]; retired like quorum reads.
    pub fn snap_read_result(&self, req_id: u64) -> Option<ReadResult> {
        self.snap_reads.get(&req_id).map(|r| r.result)
    }

    /// Number of live quorum-read collectors (bounded by retirement).
    pub fn reads_table_len(&self) -> usize {
        self.reads.len()
    }

    /// Number of live snapshot-read collectors (bounded by retirement).
    pub fn snap_reads_table_len(&self) -> usize {
        self.snap_reads.len()
    }

    /// This site's own commit-stable watermark (monotone;
    /// [`Version::INITIAL`] when snapshot reads are off).
    pub fn local_watermark(&self) -> Version {
        self.local_wm
    }

    /// The shard watermark this site currently serves snapshot reads
    /// at: its own watermark bounded by the latest one heard from every
    /// copy-sharing peer (unheard peers count as [`Version::INITIAL`]).
    pub fn shard_watermark(&self) -> Version {
        let mut wm = self.local_wm;
        for p in &self.wm_peers {
            let pw = self
                .peer_watermarks
                .get(p)
                .copied()
                .unwrap_or(Version::INITIAL);
            wm = wm.min(pw);
        }
        wm
    }

    /// Read-only access to the durable log (for experiments and tests).
    pub fn log_records(&self) -> impl Iterator<Item = &LogRecord> + '_ {
        self.log.wal().replay().map(|(_, r)| r)
    }

    /// The largest transaction id with any durable trace at this site —
    /// in per-transaction records or folded into a checkpoint's retired
    /// outcomes. A cluster reopening durable logs primes its id
    /// allocator above the maximum across sites, so restarted workloads
    /// never re-issue an id the old incarnation already used.
    pub fn max_durable_txn(&self) -> Option<TxnId> {
        let mut max: Option<TxnId> = None;
        let mut note = |t: TxnId| {
            if max.map(|m| t > m).unwrap_or(true) {
                max = Some(t);
            }
        };
        for rec in self.log_records() {
            match rec {
                LogRecord::Checkpoint {
                    retired, xretired, ..
                } => {
                    for o in retired {
                        note(o.txn);
                    }
                    for o in xretired {
                        note(o.txn);
                    }
                }
                other => {
                    if let Some(t) = other.txn() {
                        note(t);
                    }
                }
            }
        }
        max
    }

    /// Number of termination rounds this site initiated for `txn`.
    pub fn termination_rounds(&self, txn: TxnId) -> u64 {
        self.txns
            .get(&txn)
            .map(|t| t.termination_rounds)
            .unwrap_or(0)
    }

    /// Number of WAL forces this site has paid (one per flush; with
    /// group commit many records share one force).
    pub fn wal_forces(&self) -> u64 {
        self.log.wal().forces()
    }

    /// Number of *retained* durable WAL records at this site
    /// (checkpoint truncation shrinks this; see
    /// [`SiteNode::wal_appended`] for the cumulative count).
    pub fn wal_len(&self) -> usize {
        self.log.wal().len()
    }

    /// Number of records ever made durable at this site — the durable
    /// end LSN, which truncation never moves. This is the denominator
    /// of batching metrics (`records / forces`), so it must not shrink
    /// when checkpoints free the prefix.
    pub fn wal_appended(&self) -> u64 {
        let wal = self.log.wal();
        wal.start_lsn().0 + wal.len() as u64
    }

    /// Outstanding work on the serial log device as of `now`: how long a
    /// force issued now would wait before even starting. Zero when the
    /// device is idle.
    pub fn wal_backlog(&self, now: Time) -> qbc_simnet::Duration {
        self.log.backlog(now)
    }

    /// Bytes of stable storage the WAL currently occupies (0 on the
    /// in-memory backend) — the quantity checkpoint truncation bounds.
    pub fn wal_storage_bytes(&self) -> u64 {
        self.log.wal().storage_bytes()
    }

    /// LSN of the oldest retained WAL record: 0 until the first
    /// checkpoint truncation, then climbing as prefixes are freed.
    pub fn wal_start_lsn(&self) -> Lsn {
        self.log.wal().start_lsn()
    }

    // ---- client entry points -------------------------------------------

    /// Submits a transaction at this site (this site coordinates).
    ///
    /// Invoke inside the simulation via `Sim::schedule_call`.
    pub fn begin_transaction(
        &mut self,
        ctx: &mut Ctx<'_, NetMsg, NodeTimer>,
        txn: TxnId,
        writeset: WriteSet,
        protocol: ProtocolKind,
    ) {
        debug_assert!(self.cfg.validate_for(protocol).is_ok());
        // Built once; every VOTE-REQ copy, log record and engine shares
        // this one allocation for the life of the transaction.
        let spec = Arc::new(TxnSpec::from_catalog(
            txn,
            self.cfg.site,
            writeset,
            protocol,
            &self.catalog,
        ));
        let state = self.ensure_txn(ctx.now(), &spec);
        state.started_at = ctx.now();
        self.emit(ctx.now(), Some(txn), EventKind::Submitted { protocol });
        let mut actions = self.take_actions();
        if protocol == ProtocolKind::PaxosCommit {
            let mut leader = PaxosLeader::new(spec);
            if self.cfg.mutation_weaken_paxos {
                leader = leader.with_weakened_quorum();
            }
            leader.start(&mut actions);
            self.txns.get_mut(&txn).expect("just ensured").paxos = Some(Box::new(leader));
        } else {
            let mut coord = Coordinator::new(spec, self.cfg.site_votes.clone());
            if self.cfg.mutation_weaken_qc1 {
                coord = coord.with_weakened_qc1();
            }
            coord.start(&mut actions);
            self.txns.get_mut(&txn).expect("just ensured").coordinator = Some(Box::new(coord));
        }
        self.apply_actions(ctx, txn, self.cfg.site, actions);
        self.pump(ctx);
    }

    /// Submits a *cross-shard* transaction at this site (this site runs
    /// the top-level 2PC over the given per-shard branches and also
    /// coordinates the branch whose spec names it).
    ///
    /// The branch specs are pre-split by the cluster layer — only it
    /// holds every shard's catalog — each with `parent` set to this
    /// site. Invoke inside the simulation via `Sim::schedule_call`, or
    /// over the wire via [`NetMsg::BeginXTxn`].
    pub fn begin_xshard(
        &mut self,
        ctx: &mut Ctx<'_, NetMsg, NodeTimer>,
        txn: TxnId,
        branches: Vec<Arc<TxnSpec>>,
    ) {
        if self.xcoords.contains_key(&txn) || self.xretired.contains_key(&txn) {
            return; // duplicate submission
        }
        if let Some(b) = branches.first() {
            self.emit(
                ctx.now(),
                Some(txn),
                EventKind::Submitted {
                    protocol: b.protocol,
                },
            );
        }
        let mut engine = XTxnCoordinator::new(txn, branches);
        let actions = engine.start();
        self.xcoords.insert(
            txn,
            XCoord {
                engine,
                gate: Lsn(0),
            },
        );
        self.apply_actions(ctx, txn, self.cfg.site, actions);
        self.pump(ctx);
    }

    /// Starts coordinating one branch of a cross-shard transaction
    /// (`X-BRANCH-REQ` arrived, possibly self-addressed).
    fn start_branch(
        &mut self,
        ctx: &mut Ctx<'_, NetMsg, NodeTimer>,
        spec: &Arc<TxnSpec>,
        siblings: &[SiteId],
    ) {
        debug_assert_eq!(spec.coordinator, self.cfg.site, "misrouted X-BRANCH-REQ");
        debug_assert!(self.cfg.validate_for(spec.protocol).is_ok());
        let txn = spec.id;
        if self.retired.contains_key(&txn) {
            return; // long decided; duplicate request
        }
        let state = self.ensure_txn(ctx.now(), spec);
        state.started_at = ctx.now();
        let st = self.txns.get_mut(&txn).expect("just ensured");
        // Remember the sibling coordinators even on a duplicate request:
        // a retried solicitation may be the first one that arrives after
        // this entry was created by an in-shard message.
        st.x_siblings = siblings.to_vec();
        if st.coordinator.is_some() || st.paxos.is_some() || st.decided.is_some() {
            return; // duplicate request
        }
        if spec.protocol == ProtocolKind::PaxosCommit {
            // A Paxos branch behaves like 2PC toward the parent: all
            // yes → held + X-VOTE yes; the parent is the only outcome
            // authority, so no Paxos rounds ever run in-shard.
            let mut leader = PaxosLeader::new(Arc::clone(spec));
            if self.cfg.mutation_weaken_paxos {
                leader = leader.with_weakened_quorum();
            }
            st.paxos = Some(Box::new(leader));
        } else {
            let mut coord = Coordinator::new(Arc::clone(spec), self.cfg.site_votes.clone());
            if self.cfg.mutation_weaken_qc1 {
                coord = coord.with_weakened_qc1();
            }
            st.coordinator = Some(Box::new(coord));
        }
        let mut actions = self.take_actions();
        let st = self.txns.get_mut(&txn).expect("just ensured");
        if let Some(leader) = st.paxos.as_mut() {
            leader.start(&mut actions);
        } else if let Some(coord) = st.coordinator.as_mut() {
            coord.start(&mut actions);
        }
        self.apply_actions(ctx, txn, self.cfg.site, actions);
        // A held branch coordinator may be left orphaned by a crashed
        // parent: the watchdog drives its outcome discovery.
        self.arm_watchdog(ctx, txn);
    }

    /// Starts a quorum read of `item`, collecting `r(item)` votes.
    pub fn start_read(&mut self, ctx: &mut Ctx<'_, NetMsg, NodeTimer>, req_id: u64, item: ItemId) {
        let Some(spec) = self.catalog.item(item) else {
            // Unknown item: an immediately-Unavailable collector, on the
            // same retirement path as every other read (it used to leak
            // here forever — no timer ever referenced it).
            self.reads.insert(
                req_id,
                ReadCollect {
                    item,
                    votes: 0,
                    best: None,
                    result: ReadResult::Unavailable,
                },
            );
            self.arm_read_retire(ctx, req_id);
            return;
        };
        self.reads.insert(
            req_id,
            ReadCollect {
                item,
                votes: 0,
                best: None,
                result: ReadResult::Pending,
            },
        );
        let targets: Vec<SiteId> = spec.sites().collect();
        for to in targets {
            self.send_net(ctx, to, NetMsg::ReadReq { req_id, item });
        }
        ctx.set_timer(self.cfg.window_2t(), NodeTimer::ReadTimeout { req_id });
        self.pump(ctx);
    }

    /// Starts a snapshot read of `item` at the shard watermark.
    ///
    /// Locks and pins are never consulted: any single live copy site
    /// can answer from its multi-version store, so — unlike the quorum
    /// read — blocked transactions cannot make the item unavailable. A
    /// local copy answers synchronously; otherwise copy sites are tried
    /// one at a time ([`NodeTimer::SnapReadTimeout`] advances), and only
    /// exhausting them all (crashes/partition) yields `Unavailable`.
    pub fn start_snapshot_read(
        &mut self,
        ctx: &mut Ctx<'_, NetMsg, NodeTimer>,
        req_id: u64,
        item: ItemId,
    ) {
        let Some(spec) = self.catalog.item(item) else {
            self.snap_reads.insert(
                req_id,
                SnapReadCollect {
                    item,
                    targets: Vec::new(),
                    next_target: 0,
                    result: ReadResult::Unavailable,
                },
            );
            self.emit(ctx.now(), None, EventKind::SnapshotReadUnavailable { item });
            self.arm_read_retire(ctx, req_id);
            return;
        };
        if let Some((version, value)) = self.items.read_at(item, self.shard_watermark()) {
            // Local copy: answered without any network round.
            self.snap_reads.insert(
                req_id,
                SnapReadCollect {
                    item,
                    targets: Vec::new(),
                    next_target: 0,
                    result: ReadResult::Success {
                        version,
                        value: *value,
                    },
                },
            );
            self.emit(
                ctx.now(),
                None,
                EventKind::SnapshotRead { item, local: true },
            );
            self.arm_read_retire(ctx, req_id);
            return;
        }
        let me = self.cfg.site;
        let targets: Vec<SiteId> = spec.sites().filter(|&s| s != me).collect();
        self.snap_reads.insert(
            req_id,
            SnapReadCollect {
                item,
                targets: targets.clone(),
                next_target: 1,
                result: ReadResult::Pending,
            },
        );
        match targets.first() {
            Some(&to) => {
                self.send_net(ctx, to, NetMsg::SnapReadReq { req_id, item });
                ctx.set_timer(self.cfg.window_2t(), NodeTimer::SnapReadTimeout { req_id });
            }
            None => {
                // No copy anywhere (catalog lists only this copyless
                // site): nothing can ever answer.
                self.snap_reads
                    .get_mut(&req_id)
                    .expect("just inserted")
                    .result = ReadResult::Unavailable;
                self.emit(ctx.now(), None, EventKind::SnapshotReadUnavailable { item });
                self.arm_read_retire(ctx, req_id);
            }
        }
        self.pump(ctx);
    }

    /// Arms the retirement timer that bounds both read tables: the
    /// collector stays pollable for a couple of collection windows after
    /// resolving, then is dropped.
    fn arm_read_retire(&mut self, ctx: &mut Ctx<'_, NetMsg, NodeTimer>, req_id: u64) {
        let ttl = qbc_simnet::Duration(self.cfg.window_2t().0.saturating_mul(2).max(1));
        ctx.set_timer(ttl, NodeTimer::ReadRetire { req_id });
    }

    /// The current snapshot-read target stayed silent (crashed or
    /// partitioned): try the next copy site, or give up once every one
    /// has been asked.
    fn on_snap_read_timeout(&mut self, ctx: &mut Ctx<'_, NetMsg, NodeTimer>, req_id: u64) {
        enum Next {
            Try(SiteId, ItemId),
            Exhausted(ItemId),
            Done,
        }
        let next = match self.snap_reads.get_mut(&req_id) {
            Some(r) if r.result == ReadResult::Pending => {
                match r.targets.get(r.next_target).copied() {
                    Some(to) => {
                        r.next_target += 1;
                        Next::Try(to, r.item)
                    }
                    None => {
                        r.result = ReadResult::Unavailable;
                        Next::Exhausted(r.item)
                    }
                }
            }
            _ => Next::Done,
        };
        match next {
            Next::Try(to, item) => {
                self.send_net(ctx, to, NetMsg::SnapReadReq { req_id, item });
                ctx.set_timer(self.cfg.window_2t(), NodeTimer::SnapReadTimeout { req_id });
            }
            Next::Exhausted(item) => {
                self.emit(ctx.now(), None, EventKind::SnapshotReadUnavailable { item });
                self.arm_read_retire(ctx, req_id);
            }
            Next::Done => {}
        }
    }

    // ---- internals -----------------------------------------------------

    /// Emits one protocol trace event when observability is wired
    /// (`NodeConfig::obs`); free otherwise.
    #[inline]
    fn emit(&self, at: Time, txn: Option<TxnId>, kind: EventKind) {
        if let Some(obs) = &self.cfg.obs {
            obs.record(TraceEvent {
                at,
                site: self.cfg.site,
                txn,
                kind,
            });
        }
    }

    /// Maps an engine action onto the trace event model. Called once
    /// per action from [`SiteNode::apply_actions`]; the gate on
    /// `cfg.obs` keeps the uninstrumented path to a single branch.
    fn obs_action(&self, at: Time, txn: TxnId, a: &Action) {
        if self.cfg.obs.is_none() {
            return;
        }
        let kind = match a {
            Action::Broadcast(_, Msg::VoteReq { .. }) => Some(EventKind::VoteReqOut),
            Action::Broadcast(_, Msg::PrepareCommit { .. }) => {
                Some(EventKind::PrepareOut { abort: false })
            }
            Action::Broadcast(_, Msg::PrepareAbort { .. }) => {
                Some(EventKind::PrepareOut { abort: true })
            }
            Action::Broadcast(_, Msg::PaxosP2a { bal, .. }) => {
                Some(EventKind::PaxosProposalOut { bal: *bal })
            }
            Action::Broadcast(_, Msg::PaxosP1a { bal, .. }) => {
                Some(EventKind::PaxosRecoveryOut { bal: *bal })
            }
            Action::Broadcast(_, Msg::Commit { .. }) => Some(EventKind::DecisionOut {
                decision: Decision::Commit,
            }),
            Action::Broadcast(_, Msg::Abort { .. }) => Some(EventKind::DecisionOut {
                decision: Decision::Abort,
            }),
            Action::Reply(Msg::Vote { yes, .. }) => Some(EventKind::VoteOut { yes: *yes }),
            Action::Send(_, Msg::XVote { yes, .. }) => Some(EventKind::XVoteOut { yes: *yes }),
            Action::Send(_, Msg::XDecide { decision, .. })
            | Action::Broadcast(_, Msg::XDecide { decision, .. }) => Some(EventKind::XDecideOut {
                decision: *decision,
            }),
            Action::Log(LogRecord::Decided { decision, .. })
            | Action::Log(LogRecord::XDecision { decision, .. }) => {
                Some(EventKind::DecisionLogged {
                    decision: *decision,
                })
            }
            Action::DeclareBlocked { .. } => Some(EventKind::Blocked),
            _ => None,
        };
        if let Some(kind) = kind {
            // The commit point: the site driving the protocol (commit
            // or termination coordinator, or the cross-shard parent)
            // forcing a commit decision — past this force the
            // transaction can no longer abort.
            if kind
                == (EventKind::DecisionLogged {
                    decision: Decision::Commit,
                })
            {
                let driving = self
                    .txns
                    .get(&txn)
                    .map(|st| {
                        st.coordinator.is_some() || st.termination.is_some() || st.paxos.is_some()
                    })
                    .unwrap_or(false)
                    || self.xcoords.contains_key(&txn);
                if driving {
                    self.emit(at, Some(txn), EventKind::CommitPoint);
                }
            }
            self.emit(at, Some(txn), kind);
        }
        // A branch voting yes upward is *held* at its in-shard commit
        // point until the top-level outcome arrives.
        if let Action::Send(_, Msg::XVote { yes: true, .. }) = a {
            self.emit(at, Some(txn), EventKind::Held);
        }
    }

    fn ensure_txn(&mut self, now: Time, spec: &Arc<TxnSpec>) -> &mut TxnState {
        let site = self.cfg.site;
        let faulty = self.cfg.faulty;
        self.txns.entry(spec.id).or_insert_with(|| {
            let participant = Participant::new(
                site,
                spec.id,
                ParticipantConfig {
                    vote_yes: true,
                    faulty,
                },
            );
            TxnState::new(Arc::clone(spec), participant, now)
        })
    }

    /// Sends a message, or withholds it while a log record of the
    /// transaction it speaks for is staged or being forced.
    ///
    /// The rule is per transaction, not per site: a message with no
    /// undurable record of its own transaction behind it (a
    /// `PrepareCommit` once every vote is in, any read request or reply)
    /// leaves at once, whatever other transactions have staged. A
    /// self-addressed message goes straight to the local queue (a site
    /// never loses messages to itself) and is never withheld: it does
    /// not leave the failure domain, and whatever its handler tells
    /// another site is gated on a later LSN of the same log, which a
    /// prefix-ordered force makes durable no earlier than the record it
    /// followed.
    fn send_net(&mut self, ctx: &mut Ctx<'_, NetMsg, NodeTimer>, to: SiteId, msg: NetMsg) {
        if to == self.cfg.site {
            self.local_queue.push_back(msg);
        } else if let Some(gate) = self.closed_gate(msg.txn()) {
            self.log.defer(gate, DeferredOp::Send { to, msg });
        } else {
            self.send_net_now(ctx, to, msg);
        }
    }

    /// Puts a message for another site on the wire.
    ///
    /// With snapshot reads on, outbound protocol messages carry this
    /// site's watermark piggybacked ([`NetMsg::ProtoW`]). The wrap
    /// happens here — the last moment before the wire — so messages
    /// withheld behind their gate ship the watermark as of the send,
    /// not as of when they were queued.
    fn send_net_now(&mut self, ctx: &mut Ctx<'_, NetMsg, NodeTimer>, to: SiteId, msg: NetMsg) {
        debug_assert!(
            self.closed_gate(msg.txn()).is_none(),
            "told before logged: {} to {to:?}",
            msg.label()
        );
        let msg = match msg {
            NetMsg::Proto(m) if self.cfg.snapshot_reads => NetMsg::ProtoW {
                msg: m,
                wm: self.local_wm,
            },
            other => other,
        };
        if let Some(obs) = &self.cfg.obs {
            obs.note_msg(msg.label());
        }
        ctx.send(to, msg);
    }

    /// The gate LSN an effect of `txn` must wait for, or `None` when it
    /// may run now: every record this site staged for `txn` is durable
    /// (or it is no transaction's effect at all). The first test is the
    /// whole cost on a log that forces per record — nothing is ever
    /// undurable there, so no table is consulted.
    fn closed_gate(&self, txn: Option<TxnId>) -> Option<Lsn> {
        if self.log.all_durable() {
            return None;
        }
        self.log
            .closed(newest_gate(&self.txns, &self.xcoords, txn?))
    }

    /// Remembers a just-staged record as the newest one of its
    /// transaction (LSNs only grow, so a plain store). A cross-shard
    /// parent and its local branch share one id; both entries take the
    /// gate, and [`newest_gate`] reads the larger.
    fn raise_gate(&mut self, txn: TxnId, lsn: Lsn) {
        let gate = Lsn(lsn.0 + 1);
        let own = self.txns.get_mut(&txn).map(|st| st.gate = gate);
        let x = self.xcoords.get_mut(&txn).map(|x| x.gate = gate);
        debug_assert!(
            own.or(x).is_some(),
            "record staged for {txn:?}, which has no table entry to gate"
        );
    }

    /// A force up to `upto` completed: runs every withheld effect the
    /// log releases, in arrival order.
    fn advance_durable(&mut self, ctx: &mut Ctx<'_, NetMsg, NodeTimer>, upto: Lsn) {
        let mut released = std::mem::take(&mut self.released);
        let (txns, xcoords) = (&self.txns, &self.xcoords);
        self.log
            .force_done(upto, |txn| newest_gate(txns, xcoords, txn), &mut released);
        for op in released.drain(..) {
            match op {
                DeferredOp::Send { to, msg } => self.send_net_now(ctx, to, msg),
                DeferredOp::Apply {
                    txn,
                    decision,
                    commit_version,
                } => self.apply_decision(ctx.now(), txn, decision, commit_version),
            }
        }
        self.released = released;
    }

    /// Records one engine log action; the log applies the force policy.
    fn log_record(&mut self, ctx: &mut Ctx<'_, NetMsg, NodeTimer>, rec: LogRecord) {
        let txn = rec.txn();
        // Sized before the record moves into the WAL; skipped entirely
        // (a constant zero) unless the byte threshold is configured.
        let rec_bytes = if self.cfg.checkpoint_bytes.is_some() {
            qbc_core::encoded_len(&rec) as u64
        } else {
            0
        };
        let (lsn, forced) = self.log.append(ctx, rec);
        if let Some(upto) = forced {
            self.advance_durable(ctx, upto);
        }
        // Not durable on return (staged, or its force is in flight):
        // whatever its transaction goes on to tell or apply waits for it.
        if !self.log.is_durable(lsn) {
            if let Some(txn) = txn {
                self.raise_gate(txn, lsn);
            }
        }
        // Track the live transaction's earliest record: the truncation
        // cutoff must never pass it. (`None`: the record is itself a
        // checkpoint.) Only the checkpointer reads this map, so the
        // common no-checkpoint configuration pays nothing on the
        // logging hot path.
        if self.checkpoints_enabled() {
            if let Some(txn) = txn {
                self.first_lsn.entry(txn).or_insert(lsn);
            }
            self.arm_checkpoint(ctx);
        }
        // Byte-threshold trigger: a site with a skewed write rate
        // checkpoints when the log *grows* enough, not merely when the
        // clock ticks. The guard keeps the checkpoint record itself
        // (which passes through here) from re-entering.
        if let Some(limit) = self.cfg.checkpoint_bytes {
            self.bytes_since_checkpoint += rec_bytes;
            if self.bytes_since_checkpoint >= limit && !self.checkpointing {
                self.do_checkpoint(ctx);
            }
        }
    }

    /// True when any checkpoint trigger (periodic tick or byte
    /// threshold) is configured — the gate on truncation bookkeeping.
    fn checkpoints_enabled(&self) -> bool {
        self.cfg.checkpoint_interval.is_some() || self.cfg.checkpoint_bytes.is_some()
    }

    /// Arms the periodic checkpoint tick if configured and not already
    /// outstanding. Lazy (armed by record arrival, not free-running) so
    /// an idle site quiesces.
    fn arm_checkpoint(&mut self, ctx: &mut Ctx<'_, NetMsg, NodeTimer>) {
        if let Some(interval) = self.cfg.checkpoint_interval {
            if !self.checkpoint_armed {
                self.checkpoint_armed = true;
                ctx.set_timer(interval, NodeTimer::Checkpoint);
            }
        }
    }

    /// The checkpoint tick: if the log grew since the last checkpoint,
    /// force a [`LogRecord::Checkpoint`] carrying every retired outcome
    /// and truncate the prefix no live transaction (and no recovery)
    /// needs any more. Under group commit the truncation waits for the
    /// watermark to pass the checkpoint record, like every other effect
    /// that depends on a staged record.
    fn on_checkpoint_tick(&mut self, ctx: &mut Ctx<'_, NetMsg, NodeTimer>) {
        self.checkpoint_armed = false;
        if self.cfg.checkpoint_interval.is_none() {
            return;
        }
        if self.do_checkpoint(ctx) {
            // Keep ticking while the site keeps logging.
            self.arm_checkpoint(ctx);
        }
    }

    /// Writes and forces one checkpoint record, then truncates. Shared
    /// by the periodic tick and the byte-threshold trigger. Returns
    /// `false` (without logging anything) when the log has not grown
    /// since the last checkpoint — stay quiet until the next record.
    fn do_checkpoint(&mut self, ctx: &mut Ctx<'_, NetMsg, NodeTimer>) -> bool {
        if self.checkpointing || self.log.wal().next_lsn() <= self.last_checkpoint_end {
            return false;
        }
        // Compact outcomes, sorted for a canonical on-disk encoding.
        let mut retired: Vec<RetiredOutcome> = self
            .retired
            .iter()
            .map(|(&txn, r)| RetiredOutcome {
                txn,
                decision: r.decision,
                commit_version: r.commit_version,
            })
            .collect();
        retired.sort_unstable_by_key(|r| r.txn);
        let mut xretired: Vec<XRetiredOutcome> = self
            .xretired
            .iter()
            .map(|(&txn, x)| XRetiredOutcome {
                txn,
                decision: x.decision,
                branches: x
                    .branches
                    .iter()
                    .map(|(c, p, v)| (*c, p.iter().copied().collect(), *v))
                    .collect(),
            })
            .collect();
        xretired.sort_unstable_by_key(|x| x.txn);
        // Snapshot the versioned copies — the full retained chain per
        // item, so a recovered multi-version store can keep serving
        // snapshot reads below its watermark: committed values whose
        // records are truncated survive only here (the durable page
        // store of a real site, folded into the log).
        let item_ids: Vec<ItemId> = self.items.items().collect();
        let items: Vec<(ItemId, qbc_core::ItemChain)> = item_ids
            .into_iter()
            .filter_map(|i| self.items.versions(i).map(|c| (i, c.to_vec())))
            .collect();
        // Everything below the oldest live transaction's first record
        // AND below this checkpoint is dead: retired outcomes live in
        // the checkpoint now, decided-but-unretired transactions still
        // have their Decided record above their first_lsn.
        let checkpoint_lsn = self.log.wal().next_lsn();
        let live_min = self
            .txns
            .keys()
            .chain(self.xcoords.keys())
            .filter_map(|t| self.first_lsn.get(t))
            .min()
            .copied()
            .unwrap_or(checkpoint_lsn);
        let cutoff = live_min.min(checkpoint_lsn);
        self.checkpointing = true;
        self.log_record(
            ctx,
            LogRecord::Checkpoint {
                retired,
                xretired,
                items,
            },
        );
        self.checkpointing = false;
        self.bytes_since_checkpoint = 0;
        self.last_checkpoint_end = self.log.wal().next_lsn();
        self.log
            .truncate_when_durable(self.last_checkpoint_end, cutoff);
        true
    }

    /// Drains locally queued (self-addressed) messages.
    fn pump(&mut self, ctx: &mut Ctx<'_, NetMsg, NodeTimer>) {
        let me = self.cfg.site;
        while let Some(msg) = self.local_queue.pop_front() {
            self.handle_net(ctx, me, msg);
        }
    }

    fn handle_net(&mut self, ctx: &mut Ctx<'_, NetMsg, NodeTimer>, from: SiteId, msg: NetMsg) {
        match msg {
            NetMsg::Proto(m) => self.handle_proto(ctx, from, m),
            NetMsg::ProtoW { msg: m, wm } => {
                // Piggybacked watermark: max-merge (deliveries can
                // reorder; a watermark never regresses) then dispatch
                // the protocol message as if it arrived bare.
                if self.cfg.snapshot_reads {
                    let e = self.peer_watermarks.entry(from).or_insert(Version::INITIAL);
                    if wm > *e {
                        *e = wm;
                    }
                }
                self.handle_proto(ctx, from, m);
            }
            NetMsg::SnapReadReq { req_id, item } => {
                // Serve from the multi-version store at this site's own
                // shard watermark — locks and pins are never consulted.
                let wm = self.shard_watermark();
                let copy = self.items.read_at(item, wm).map(|(v, val)| (v, *val));
                self.send_net(
                    ctx,
                    from,
                    NetMsg::SnapReadRep {
                        req_id,
                        item,
                        copy,
                        wm,
                    },
                );
            }
            NetMsg::SnapReadRep {
                req_id,
                item,
                copy,
                wm,
            } => {
                if self.cfg.snapshot_reads {
                    let e = self.peer_watermarks.entry(from).or_insert(Version::INITIAL);
                    if wm > *e {
                        *e = wm;
                    }
                }
                let resolved = match self.snap_reads.get_mut(&req_id) {
                    Some(r) if r.result == ReadResult::Pending && r.item == item => {
                        match copy {
                            Some((version, value)) => {
                                r.result = ReadResult::Success { version, value };
                                true
                            }
                            // A copyless answer (catalog drift): stay
                            // pending, the timeout advances to the next
                            // target.
                            None => false,
                        }
                    }
                    _ => false,
                };
                if resolved {
                    self.emit(
                        ctx.now(),
                        None,
                        EventKind::SnapshotRead { item, local: false },
                    );
                    self.arm_read_retire(ctx, req_id);
                }
            }
            NetMsg::Election { txn, spec, msg } => {
                self.handle_election_msg(ctx, from, txn, spec, msg)
            }
            NetMsg::ReadReq { req_id, item } => {
                let copy = if self.locks.is_locked(&item) {
                    // Pinned by an undecided transaction: inaccessible.
                    None
                } else {
                    self.items.read(item).map(|(v, val)| (v, *val))
                };
                self.send_net(ctx, from, NetMsg::ReadRep { req_id, item, copy });
            }
            NetMsg::BeginTxn {
                txn,
                writeset,
                protocol,
            } => {
                // Wire form of `begin_transaction` for front-ends on
                // transports without direct node access.
                self.begin_transaction(ctx, txn, writeset, protocol);
            }
            NetMsg::BeginXTxn { txn, branches } => {
                self.begin_xshard(ctx, txn, branches);
            }
            NetMsg::BeginSnapRead { req_id, item } => {
                // Wire form of `start_snapshot_read` for front-ends on
                // transports without direct node access.
                self.start_snapshot_read(ctx, req_id, item);
            }
            NetMsg::ReadRep { req_id, item, copy } => {
                let Some(weight) = self.catalog.item(item).map(|spec| spec.weight_at(from)) else {
                    return;
                };
                let read_quorum = self
                    .catalog
                    .item(item)
                    .map(|s| s.read_quorum)
                    .unwrap_or(u32::MAX);
                if let Some(r) = self.reads.get_mut(&req_id) {
                    if r.result != ReadResult::Pending || r.item != item {
                        return;
                    }
                    if let Some((version, value)) = copy {
                        r.votes += weight;
                        if r.best.map(|(bv, _)| version > bv).unwrap_or(true) {
                            r.best = Some((version, value));
                        }
                        if r.votes >= read_quorum {
                            let (version, value) = r.best.expect("at least one copy");
                            r.result = ReadResult::Success { version, value };
                        }
                    }
                }
            }
        }
    }

    fn handle_proto(&mut self, ctx: &mut Ctx<'_, NetMsg, NodeTimer>, from: SiteId, m: Msg) {
        let txn = m.txn();
        // Cross-shard messages first: they address the X coordinator or
        // the branch machinery, not the per-transaction participant
        // table (and must work even when that table knows nothing yet).
        match &m {
            Msg::XBranchReq { spec, siblings } => {
                self.start_branch(ctx, spec, siblings);
                return;
            }
            Msg::XVote {
                yes,
                commit_version,
                ..
            } => {
                if let Some(XCoord { engine: x, .. }) = self.xcoords.get_mut(&txn) {
                    let was_decided = x.decision().is_some();
                    let actions = x.on_vote(from, *yes, *commit_version);
                    let now_decided = x.decision().is_some();
                    self.apply_actions(ctx, txn, self.cfg.site, actions);
                    // Only the None→Some transition queues retirement;
                    // late votes after the decision must not re-enqueue.
                    if now_decided && !was_decided {
                        self.schedule_retire(ctx.now(), txn);
                    }
                } else if let Some(xr) = self.xretired.get(&txn) {
                    let reply = xr.xdecide_for(from, txn);
                    self.send_net(ctx, from, NetMsg::Proto(reply));
                }
                return;
            }
            Msg::XOutcomeReq { .. } => {
                if let Some(x) = self.xcoords.get_mut(&txn) {
                    let actions = x.engine.on_outcome_req(from);
                    self.apply_actions(ctx, txn, self.cfg.site, actions);
                } else if let Some(xr) = self.xretired.get(&txn) {
                    let reply = xr.xdecide_for(from, txn);
                    self.send_net(ctx, from, NetMsg::Proto(reply));
                } else if let Some(decision) = self
                    .txns
                    .get(&txn)
                    .and_then(|st| st.decided)
                    .or_else(|| self.retired.get(&txn).map(|r| r.decision))
                {
                    // Cooperative discovery: not the parent, but a
                    // decided branch of the same transaction (a branch
                    // only ever decides with the top-level outcome —
                    // via the parent's X-DECIDE or by aborting before
                    // voting yes, which forces a top-level abort). A
                    // sibling cannot know the asker's *branch* commit
                    // version, so the answer carries none; the asker's
                    // engine keeps its own held version, and an
                    // engine-less asker falls back to its locally
                    // learned PC version.
                    let reply = Msg::XDecide {
                        txn,
                        decision,
                        commit_version: None,
                    };
                    self.send_net(ctx, from, NetMsg::Proto(reply));
                }
                return;
            }
            Msg::XDecide {
                decision,
                commit_version,
                ..
            } => {
                self.handle_x_decide(ctx, from, txn, *decision, *commit_version);
                return;
            }
            _ => {}
        }
        // A retired transaction answers every straggler with its outcome
        // instead of resurrecting state (`Decided` itself needs no
        // answer — and must not echo into a reply loop).
        if !self.txns.contains_key(&txn) {
            if let Some(r) = self.retired.get(&txn) {
                if !matches!(m, Msg::Decided { .. }) {
                    let reply = Msg::Decided {
                        txn,
                        decision: r.decision,
                        commit_version: r.commit_version,
                    };
                    self.send_net(ctx, from, NetMsg::Proto(reply));
                }
                return;
            }
        }
        // Learn the spec from spec-carrying messages (a recovery
        // candidate's 1a may be the first word this site ever hears of
        // the transaction).
        match &m {
            Msg::VoteReq { spec } | Msg::StateReq { spec, .. } | Msg::PaxosP1a { spec, .. } => {
                self.ensure_txn(ctx.now(), spec);
            }
            _ => {}
        }
        if !self.txns.contains_key(&txn) {
            // A message about a transaction this site knows nothing of
            // (e.g. a stray ack to a recovered coordinator): ignore.
            return;
        }

        // Paxos acceptor role: 1a/2a address the co-located acceptor,
        // never the participant engine. The acceptor entry is created on
        // demand; its force-logged promise/acceptance records rebuild it
        // after a crash ([`recover_paxos`]). A decided site answers with
        // the outcome instead — an acceptor that kept promising would
        // leave a late candidate chasing a consensus that is already
        // over. A *remote* candidate's contact counts as coordinator
        // liveness for the watchdog; a candidate's own broadcast must
        // not, or a stale-ballot candidacy being ignored by every peer
        // would pet its own watchdog forever instead of escalating.
        if matches!(m, Msg::PaxosP1a { .. } | Msg::PaxosP2a { .. }) {
            if let Some(st) = self.txns.get_mut(&txn) {
                if let Some(decision) = st.decided {
                    let commit_version = st.commit_version();
                    self.send_net(
                        ctx,
                        from,
                        NetMsg::Proto(Msg::Decided {
                            txn,
                            decision,
                            commit_version,
                        }),
                    );
                    return;
                }
                if from != self.cfg.site {
                    st.last_coord_contact = ctx.now();
                }
            }
        }
        match &m {
            Msg::PaxosP1a { bal, .. } => {
                let mut actions = self.take_actions();
                self.acceptors
                    .entry(txn)
                    .or_default()
                    .on_p1a(txn, *bal, &mut actions);
                self.apply_actions(ctx, txn, from, actions);
                self.arm_watchdog(ctx, txn);
                return;
            }
            Msg::PaxosP2a { bal, votes, .. } => {
                let mut actions = self.take_actions();
                self.acceptors
                    .entry(txn)
                    .or_default()
                    .on_p2a(txn, *bal, votes, &mut actions);
                self.apply_actions(ctx, txn, from, actions);
                return;
            }
            _ => {}
        }

        // Dynamic vote decision: scripted no-votes and lock conflicts.
        if let Msg::VoteReq { spec } = &m {
            if self.txns[&txn].participant.state() == LocalState::Initial {
                let scripted_no = self.cfg.vote_no_on.contains(&txn);
                let locked = scripted_no || !self.try_lock_writeset(ctx.now(), txn, spec);
                let st = self.txns.get_mut(&txn).expect("ensured");
                st.participant.set_vote(!locked);
                if !locked && self.cfg.snapshot_reads {
                    // A yes vote pins local copies whose eventual commit
                    // version (if any) exceeds the local max it reports:
                    // that max floors the watermark until the decision.
                    let floor = spec
                        .writeset
                        .items()
                        .filter_map(|i| self.items.version(i))
                        .max();
                    if let Some(floor) = floor {
                        self.stable_floors.insert(txn, floor);
                    }
                }
            }
        }
        if let Msg::Vote { yes, .. } = &m {
            self.emit(ctx.now(), Some(txn), EventKind::VoteIn { yes: *yes });
        }

        // The highest local version among writeset copies (reported in
        // yes votes; basis of the commit version). Only `VOTE-REQ`
        // handling reads it — a vote is the only reply that carries a
        // version — so every other message skips the writeset walk.
        let local_max_version = if matches!(m, Msg::VoteReq { .. }) {
            let st = &self.txns[&txn];
            st.spec
                .writeset
                .items()
                .filter_map(|i| self.items.version(i))
                .max()
                .unwrap_or(Version::INITIAL)
        } else {
            Version::INITIAL
        };

        let catalog = Arc::clone(&self.catalog);
        let mut actions = self.take_actions();
        {
            let st = self.txns.get_mut(&txn).expect("checked");
            st.last_coord_contact = ctx.now();
            match &m {
                Msg::Vote {
                    yes, max_version, ..
                } => {
                    if let Some(c) = st.coordinator.as_mut() {
                        c.on_vote(from, *yes, *max_version, &catalog, &mut actions);
                    } else if let Some(p) = st.paxos.as_mut() {
                        p.on_vote(from, *yes, *max_version, &mut actions);
                    }
                }
                Msg::PaxosP1b { bal, accepted, .. } => {
                    if let Some(p) = st.paxos.as_mut() {
                        p.on_p1b(from, *bal, accepted, &mut actions);
                    }
                }
                Msg::PaxosP2b { bal, .. } => {
                    if let Some(p) = st.paxos.as_mut() {
                        p.on_p2b(from, *bal, &mut actions);
                    }
                }
                Msg::PcAck { .. } => {
                    if let Some(c) = st.coordinator.as_mut() {
                        c.on_pc_ack(from, &catalog, &mut actions);
                    }
                    if let Some(t) = st.termination.as_mut() {
                        actions.extend(t.on_pc_ack(from, &catalog));
                    }
                }
                Msg::PaAck { .. } => {
                    if let Some(t) = st.termination.as_mut() {
                        actions.extend(t.on_pa_ack(from, &catalog));
                    }
                }
                Msg::StateRep {
                    round,
                    state,
                    pc_version,
                    ..
                } => {
                    if let Some(t) = st.termination.as_mut() {
                        actions.extend(t.on_state_rep(from, *round, *state, *pc_version, &catalog));
                    }
                }
                Msg::Decided {
                    decision,
                    commit_version,
                    ..
                } => {
                    if let Some(t) = st.termination.as_mut() {
                        actions.extend(t.on_decided(*decision, *commit_version));
                    }
                    if let Some(p) = st.paxos.as_mut() {
                        // A straggler's answer terminates a live Paxos
                        // candidacy quietly: the participant path below
                        // applies the outcome locally, and the engine
                        // must stop re-broadcasting its round.
                        p.adopt_decision(*decision, *commit_version);
                    }
                    st.participant
                        .on_msg(from, &m, local_max_version, &mut actions);
                }
                // Participant-role messages.
                Msg::VoteReq { .. }
                | Msg::PrepareCommit { .. }
                | Msg::PrepareAbort { .. }
                | Msg::Commit { .. }
                | Msg::Abort { .. }
                | Msg::StateReq { .. } => {
                    st.participant
                        .on_msg(from, &m, local_max_version, &mut actions);
                }
                // Cross-shard and Paxos acceptor messages returned
                // early above.
                Msg::XBranchReq { .. }
                | Msg::XVote { .. }
                | Msg::XDecide { .. }
                | Msg::XOutcomeReq { .. }
                | Msg::PaxosP1a { .. }
                | Msg::PaxosP2a { .. } => unreachable!("dispatched before the engine match"),
            }
        }
        self.apply_actions(ctx, txn, from, actions);
        self.adopt_coordinator_decision(ctx.now(), txn);
        self.arm_watchdog(ctx, txn);
    }

    /// The cross-shard decision arrived at a branch site: terminate the
    /// branch with the parent's outcome. At the branch coordinator the
    /// engine broadcasts the command in-shard; a site without an engine
    /// (a recovered coordinator, or a discovering participant) applies
    /// or relays it directly. Idempotent once decided.
    fn handle_x_decide(
        &mut self,
        ctx: &mut Ctx<'_, NetMsg, NodeTimer>,
        from: SiteId,
        txn: TxnId,
        decision: Decision,
        commit_version: Option<Version>,
    ) {
        let site = self.cfg.site;
        enum Route {
            Engine(Vec<Action>),
            Rebroadcast(Arc<TxnSpec>, Option<Version>),
            Participant(Vec<Action>),
            Ignore,
        }
        let mut scratch = self.take_actions();
        let route = match self.txns.get_mut(&txn) {
            None => Route::Ignore, // unknown or retired: nothing held here
            Some(st) if st.decided.is_some() => Route::Ignore,
            Some(st) => {
                st.last_coord_contact = ctx.now();
                if let Some(c) = st.coordinator.as_mut() {
                    c.on_x_decide(decision, commit_version, &mut scratch);
                    Route::Engine(std::mem::take(&mut scratch))
                } else if let Some(p) = st.paxos.as_mut() {
                    p.on_x_decide(decision, commit_version, &mut scratch);
                    Route::Engine(std::mem::take(&mut scratch))
                } else if st.spec.coordinator == site {
                    // The parent's echo carries the branch version; a
                    // sibling's answer does not — fall back to the
                    // locally learned PC version.
                    let v = commit_version.or(st.participant.commit_version());
                    Route::Rebroadcast(Arc::clone(&st.spec), v)
                } else {
                    // A discovering participant: obey the command. The
                    // version falls back to the locally learned PC
                    // version; a commit without either is undeliverable
                    // (cannot happen: the parent echoes the version our
                    // branch reported) and is dropped defensively.
                    let v = commit_version.or(st.participant.commit_version());
                    let msg = match decision {
                        Decision::Commit => v.map(|v| Msg::Commit {
                            txn,
                            commit_version: v,
                        }),
                        Decision::Abort => Some(Msg::Abort { txn }),
                    };
                    match msg {
                        Some(m) if st.participant.state() != LocalState::Initial => {
                            st.participant
                                .on_msg(from, &m, Version::INITIAL, &mut scratch);
                            Route::Participant(std::mem::take(&mut scratch))
                        }
                        _ => Route::Ignore,
                    }
                }
            }
        };
        self.recycle_actions(scratch);
        match route {
            Route::Ignore => {}
            Route::Engine(actions) | Route::Participant(actions) => {
                self.apply_actions(ctx, txn, self.cfg.site, actions);
                self.adopt_coordinator_decision(ctx.now(), txn);
            }
            Route::Rebroadcast(spec, version) => {
                // Recovered branch coordinator without an engine:
                // re-issue the in-shard command (idempotent at every
                // receiver; self-addressed copy terminates the local
                // participant).
                let msg = match decision {
                    Decision::Commit => match version {
                        Some(v) => Msg::Commit {
                            txn,
                            commit_version: v,
                        },
                        // A sibling's versionless commit answer with no
                        // local PC version either: the in-shard command
                        // cannot be built yet. Drop it — the watchdog
                        // re-arms, and the parent's echo (which carries
                        // the version) answers a later retry.
                        None => return,
                    },
                    Decision::Abort => Msg::Abort { txn },
                };
                for to in spec.participants.iter().copied() {
                    self.send_net(ctx, to, NetMsg::Proto(msg.clone()));
                }
                if !spec.participants.contains(&site) {
                    if let Some(st) = self.txns.get_mut(&txn) {
                        let fresh = st.decided.is_none();
                        st.decided = Some(decision);
                        st.decided_at = Some(ctx.now());
                        st.decided_version = version;
                        if fresh {
                            self.note_decision(txn, decision, version);
                        }
                    }
                    self.schedule_retire(ctx.now(), txn);
                }
            }
        }
    }

    /// A coordinator that holds no copies (it is a client, not a
    /// participant — Example 3's s1) never receives the commit/abort
    /// command it broadcasts; its bookkeeping adopts the engine's
    /// decision directly. Participant coordinators are handled by the
    /// normal participant path (which also applies the updates), so
    /// they are excluded here. The adoption is what tells the client, so
    /// it waits for the engine's `Decided` record exactly as the
    /// participant path's [`Action::ApplyAndDecide`] does.
    fn adopt_coordinator_decision(&mut self, now: Time, txn: TxnId) {
        let Some(st) = self.txns.get(&txn) else {
            return;
        };
        if st.decided.is_some() || st.spec.participants.contains(&self.cfg.site) {
            return;
        }
        let decision = match st.coordinator.as_ref().map(|c| c.phase()) {
            Some(qbc_core::CoordPhase::Decided(d)) => d,
            _ => match st.paxos.as_ref().map(|p| p.phase()) {
                Some(qbc_core::PaxosPhase::Decided(d)) => d,
                _ => return,
            },
        };
        let commit_version = match decision {
            Decision::Commit => st.commit_version(),
            Decision::Abort => None,
        };
        self.apply_when_durable(now, txn, decision, commit_version);
    }

    /// Queues a decided transaction (or cross-shard coordination) for
    /// retirement after the re-announce window. No-op without a
    /// configured [`NodeConfig::retire_after`].
    fn schedule_retire(&mut self, now: Time, txn: TxnId) {
        if self.cfg.retire_after.is_some() {
            self.retire_queue.push_back((now, txn));
        }
    }

    /// Retires everything decided longer than `retire_after` ago: the
    /// heavy per-transaction entry (engines, spec, audit trail) is
    /// replaced by a compact outcome record that keeps answering
    /// stragglers, bounding the live tables on long-running sites. Runs
    /// at the top of every message/timer delivery; the queue is in
    /// decision-time order, so the scan stops at the first young entry.
    fn sweep_retired(&mut self, now: Time) {
        let Some(after) = self.cfg.retire_after else {
            return;
        };
        while let Some(&(t, txn)) = self.retire_queue.front() {
            // An entry with a record still undurable stays one more
            // round: its gate LSN lives in it, and the compact outcome
            // that replaces it answers stragglers ungated.
            if now.since(t) < after || self.closed_gate(Some(txn)).is_some() {
                break;
            }
            self.retire_queue.pop_front();
            let mut retired_any = false;
            if let Some(st) = self.txns.get(&txn) {
                if let (Some(decision), Some(decided_at)) = (st.decided, st.decided_at) {
                    let commit_version = st.commit_version();
                    self.retired.insert(
                        txn,
                        RetiredTxn {
                            decision,
                            commit_version,
                            decided_at,
                        },
                    );
                    self.txns.remove(&txn);
                    retired_any = true;
                }
            }
            if let Some(XCoord { engine: x, .. }) = self.xcoords.get(&txn) {
                if let Some(decision) = x.decision() {
                    let versions = x.branch_versions();
                    let branches = x
                        .branches()
                        .iter()
                        .zip(versions)
                        .map(|(b, (_, v))| (b.coordinator, b.participants.clone(), v))
                        .collect();
                    self.xretired.insert(txn, XRetired { decision, branches });
                    self.xcoords.remove(&txn);
                    retired_any = true;
                }
            }
            // The acceptor's promise/accept state is only needed while
            // recovery candidates may still ask; a retired outcome
            // answers them directly.
            if !self.txns.contains_key(&txn) {
                self.acceptors.remove(&txn);
            }
            // Fully retired: the next checkpoint carries the outcome, so
            // this transaction no longer pins the truncation cutoff.
            if !self.txns.contains_key(&txn) && !self.xcoords.contains_key(&txn) {
                self.first_lsn.remove(&txn);
            }
            if retired_any && self.cfg.retire_horizon.is_some() {
                self.age_queue.push_back((now, txn));
            }
        }
        self.sweep_aged(now);
    }

    /// Ages retired outcomes out entirely once they have sat in the
    /// compact maps for [`NodeConfig::retire_horizon`]: the maps — and
    /// every checkpoint record serializing them — stay O(live +
    /// horizon) instead of O(history). A straggler asking after the
    /// horizon gets silence instead of the outcome, which is why the
    /// horizon must dwarf every retry window (see the config doc).
    fn sweep_aged(&mut self, now: Time) {
        let Some(horizon) = self.cfg.retire_horizon else {
            return;
        };
        while let Some(&(t, txn)) = self.age_queue.front() {
            if now.since(t) < horizon {
                break;
            }
            self.age_queue.pop_front();
            self.retired.remove(&txn);
            self.xretired.remove(&txn);
        }
    }

    fn try_lock_writeset(&mut self, now: Time, txn: TxnId, spec: &TxnSpec) -> bool {
        // No-wait 2PL: X-lock every local copy of the writeset; any
        // conflict means vote no (prevents distributed deadlock).
        let local_items: Vec<ItemId> = spec
            .writeset
            .items()
            .filter(|&i| {
                self.catalog
                    .item(i)
                    .map(|s| s.copies.contains_key(&self.cfg.site))
                    .unwrap_or(false)
            })
            .collect();
        for (k, item) in local_items.iter().enumerate() {
            match self.locks.acquire(txn, *item, LockMode::Exclusive) {
                LockOutcome::Granted => {}
                LockOutcome::Waiting => {
                    // Roll back the partial acquisition (and the queued
                    // request).
                    for it in &local_items[..=k] {
                        self.locks.release(&txn, it);
                    }
                    return false;
                }
            }
        }
        // The yes vote pins every local copy until the decision: the
        // pin-time clock starts here.
        for &item in &local_items {
            self.emit(now, Some(txn), EventKind::PinStart { item });
        }
        true
    }

    /// Consumes a filled action buffer (typically from [`take_actions`])
    /// and recycles it into the spare pool, so the steady-state message
    /// path allocates no `Vec<Action>` per event. Reentrancy
    /// (`RequestTermination` → election → nested `apply_actions`) is
    /// safe: each level pops its own buffer from the pool.
    ///
    /// [`take_actions`]: SiteNode::take_actions
    fn apply_actions(
        &mut self,
        ctx: &mut Ctx<'_, NetMsg, NodeTimer>,
        txn: TxnId,
        reply_to: SiteId,
        mut actions: Vec<Action>,
    ) {
        for a in actions.drain(..) {
            self.obs_action(ctx.now(), txn, &a);
            match a {
                Action::Reply(m) => self.send_net(ctx, reply_to, NetMsg::Proto(m)),
                Action::Send(to, m) => self.send_net(ctx, to, NetMsg::Proto(m)),
                Action::Broadcast(targets, m) => {
                    for to in targets {
                        self.send_net(ctx, to, NetMsg::Proto(m.clone()));
                    }
                }
                Action::Log(rec) => {
                    if self.cfg.snapshot_reads {
                        // A PreCommit fixes the commit version: the pin
                        // now guards exactly `commit_version`, so the
                        // floor rises to just below it (a decided-commit
                        // neighbor at `commit_version - 1` is stable).
                        if let LogRecord::PreCommit {
                            txn: pc_txn,
                            commit_version,
                        } = &rec
                        {
                            let floor = Version(commit_version.0.saturating_sub(1));
                            let e = self
                                .stable_floors
                                .entry(*pc_txn)
                                .or_insert(Version::INITIAL);
                            if floor > *e {
                                *e = floor;
                            }
                        }
                    }
                    self.log_record(ctx, rec)
                }
                Action::ApplyAndDecide {
                    decision,
                    commit_version,
                } => self.apply_when_durable(ctx.now(), txn, decision, commit_version),
                Action::SetTimer(kind) => {
                    let span = match kind {
                        TimerKind::VoteCollection { .. }
                        | TimerKind::AckCollection { .. }
                        | TimerKind::StateCollection { .. }
                        | TimerKind::TerminationAcks { .. }
                        | TimerKind::Paxos1bCollection { .. }
                        | TimerKind::Paxos2bCollection { .. } => self.cfg.window_2t(),
                        TimerKind::CoordinatorWatch { .. } => self.cfg.watchdog_3t(),
                        TimerKind::BlockedRetry { .. } => self.cfg.blocked_retry,
                        TimerKind::XVoteCollection { .. } => self.cfg.x_window(),
                    };
                    ctx.set_timer(span, NodeTimer::Proto(kind));
                }
                Action::RequestTermination { txn } => {
                    self.start_termination_election(ctx, txn);
                }
                Action::DeclareBlocked { txn } => {
                    if let Some(st) = self.txns.get_mut(&txn) {
                        st.blocked = true;
                    }
                    if self.cfg.retry_blocked {
                        ctx.set_timer(
                            self.cfg.blocked_retry,
                            NodeTimer::Proto(TimerKind::BlockedRetry { txn }),
                        );
                    }
                }
                Action::ViolationNote { txn, note } => {
                    self.violations.push(Violation { txn, note });
                }
            }
        }
        self.recycle_actions(actions);
    }

    /// Pops a spare engine-action scratch buffer (empty, capacity
    /// retained from earlier events) or allocates the pool's first.
    fn take_actions(&mut self) -> Vec<Action> {
        self.spare_actions.pop().unwrap_or_default()
    }

    /// Returns an emptied action buffer to the pool (bounded, so a
    /// one-off burst does not pin memory forever).
    fn recycle_actions(&mut self, buf: Vec<Action>) {
        debug_assert!(buf.is_empty());
        if buf.capacity() > 0 && self.spare_actions.len() < 4 {
            self.spare_actions.push(buf);
        }
    }

    /// Applies a decision now, or — while the decision's log record is
    /// not durable yet — once it is: installing values, freeing locks
    /// and telling the front door wait for the force, like the messages
    /// announcing it.
    fn apply_when_durable(
        &mut self,
        now: Time,
        txn: TxnId,
        decision: Decision,
        commit_version: Option<Version>,
    ) {
        if let Some(gate) = self.closed_gate(Some(txn)) {
            let op = DeferredOp::Apply {
                txn,
                decision,
                commit_version,
            };
            self.log.defer(gate, op);
        } else {
            self.apply_decision(now, txn, decision, commit_version)
        }
    }

    fn apply_decision(
        &mut self,
        now: Time,
        txn: TxnId,
        decision: Decision,
        commit_version: Option<Version>,
    ) {
        debug_assert!(
            self.closed_gate(Some(txn)).is_none(),
            "{txn:?} applied before its decision record is durable"
        );
        let mut applied = false;
        if let Some(st) = self.txns.get_mut(&txn) {
            if st.decided.is_some() {
                return;
            }
            applied = true;
            st.decided = Some(decision);
            st.decided_at = Some(now);
            st.blocked = false;
            if decision == Decision::Commit {
                let version = commit_version.expect("commit carries version");
                let spec = Arc::clone(&st.spec);
                for (&item, &value) in spec.writeset.updates.iter() {
                    if self.items.read(item).is_some() {
                        // Regression errors mean the update was already
                        // applied (recovery replay): idempotent.
                        if self.items.apply(item, version, value).is_ok() && version > self.vmax {
                            self.vmax = version;
                        }
                    }
                }
            }
            self.schedule_retire(now, txn);
            self.note_decision(txn, decision, commit_version);
        }
        // Pin-time clocks stop with the release; the walk over held
        // locks is skipped entirely when no sink is wired.
        if self.cfg.obs.is_some() {
            for (item, _) in self.locks.held_by(&txn) {
                self.emit(now, Some(txn), EventKind::PinEnd { item });
            }
        }
        self.locks.release_all(&txn);
        if applied {
            self.emit(now, Some(txn), EventKind::DecisionApplied { decision });
        }
        if self.cfg.snapshot_reads {
            // The decision frees this transaction's pins: its floor no
            // longer binds the watermark, which may now advance (and the
            // shard watermark with it, unlocking version GC).
            self.stable_floors.remove(&txn);
            self.refresh_watermark();
            self.gc_versions();
        }
    }

    /// Recomputes the local commit-stable watermark: everything at or
    /// below `vmax` is stable except what an undecided pinning
    /// transaction's floor still protects. Monotone by construction
    /// (only ever raised).
    fn refresh_watermark(&mut self) {
        let mut wm = self.vmax;
        for &floor in self.stable_floors.values() {
            wm = wm.min(floor);
        }
        if wm > self.local_wm {
            self.local_wm = wm;
        }
    }

    /// Drops item versions below the *shard* watermark (the level
    /// snapshot reads are served at — a peer may still serve reads at
    /// its lower watermark, so GC must not outrun the minimum).
    fn gc_versions(&mut self) {
        let wm = self.shard_watermark();
        if wm > self.last_gc_wm {
            self.last_gc_wm = wm;
            self.items.gc_below(wm);
        }
    }

    fn arm_watchdog(&mut self, ctx: &mut Ctx<'_, NetMsg, NodeTimer>, txn: TxnId) {
        if let Some(st) = self.txns.get_mut(&txn) {
            if st.decided.is_none() && !st.watchdog_armed {
                st.watchdog_armed = true;
                ctx.set_timer(
                    self.cfg.watchdog_3t(),
                    NodeTimer::Proto(TimerKind::CoordinatorWatch { txn }),
                );
            }
        }
    }

    fn start_termination_election(&mut self, ctx: &mut Ctx<'_, NetMsg, NodeTimer>, txn: TxnId) {
        let Some(st) = self.txns.get_mut(&txn) else {
            return;
        };
        if st.decided.is_some() || st.termination_rounds >= self.cfg.max_termination_rounds {
            return;
        }
        if let Some(parent) = st.spec.parent {
            // A branch of a cross-shard transaction may not terminate
            // in-shard: once prepared it could contradict the top-level
            // decision (e.g. a PC quorum committing a branch the parent
            // aborted). Outcome discovery replaces the election; the
            // watchdog re-arms, so the ask retries until answered.
            // Sibling branch coordinators are asked alongside the
            // parent — any decided branch can relay the outcome, so a
            // crashed parent no longer blocks until recovery.
            let targets = discovery_targets(parent, &st.x_siblings, self.cfg.site);
            for to in targets {
                self.send_net(ctx, to, NetMsg::Proto(Msg::XOutcomeReq { txn }));
            }
            self.emit(ctx.now(), Some(txn), EventKind::OutcomeDiscoveryOut);
            return;
        }
        if st.spec.protocol == ProtocolKind::PaxosCommit {
            // Paxos Commit replaces the termination election entirely:
            // any participant may stand up as a recovery candidate and
            // run Phase 1a at a ballot above every earlier one. The
            // acceptor majority then tells the candidate what (if
            // anything) was already chosen; unchosen instances are
            // presumed aborted.
            st.termination_rounds += 1;
            let bal = qbc_election::recovery_ballot(st.termination_rounds, self.cfg.site);
            let spec = Arc::clone(&st.spec);
            let mut candidate = PaxosLeader::recover(spec, bal);
            if self.cfg.mutation_weaken_paxos {
                candidate = candidate.with_weakened_quorum();
            }
            st.paxos = Some(Box::new(candidate));
            let mut actions = self.take_actions();
            let st = self.txns.get_mut(&txn).expect("still live");
            st.paxos
                .as_mut()
                .expect("just installed")
                .start(&mut actions);
            self.apply_actions(ctx, txn, self.cfg.site, actions);
            return;
        }
        let spec = Arc::clone(&st.spec);
        if st.elector.is_none() {
            st.elector = Some(Box::new(Elector::new(
                self.cfg.site,
                spec.participants.clone(),
            )));
        }
        let actions = st
            .elector
            .as_mut()
            .expect("just created")
            .step(ElInput::Start);
        self.emit(ctx.now(), Some(txn), EventKind::ElectionStarted);
        self.apply_election_actions(ctx, txn, spec, actions);
    }

    fn handle_election_msg(
        &mut self,
        ctx: &mut Ctx<'_, NetMsg, NodeTimer>,
        from: SiteId,
        txn: TxnId,
        spec: Arc<TxnSpec>,
        msg: ElectionMsg,
    ) {
        // A retired transaction answers the election with its outcome
        // instead of resurrecting state.
        if let Some(r) = self.retired.get(&txn) {
            let reply = Msg::Decided {
                txn,
                decision: r.decision,
                commit_version: r.commit_version,
            };
            self.send_net(ctx, from, NetMsg::Proto(reply));
            return;
        }
        self.ensure_txn(ctx.now(), &spec);
        let st = self.txns.get_mut(&txn).expect("ensured");
        // A decided site answers elections with the outcome directly.
        if let Some(decision) = st.decided {
            let commit_version = st.commit_version();
            self.send_net(
                ctx,
                from,
                NetMsg::Proto(Msg::Decided {
                    txn,
                    decision,
                    commit_version,
                }),
            );
            return;
        }
        st.last_coord_contact = ctx.now();
        if st.elector.is_none() {
            st.elector = Some(Box::new(Elector::new(
                self.cfg.site,
                spec.participants.clone(),
            )));
        }
        let actions = st
            .elector
            .as_mut()
            .expect("just created")
            .step(ElInput::Msg { from, msg });
        self.apply_election_actions(ctx, txn, spec, actions);
        self.arm_watchdog(ctx, txn);
    }

    fn apply_election_actions(
        &mut self,
        ctx: &mut Ctx<'_, NetMsg, NodeTimer>,
        txn: TxnId,
        spec: Arc<TxnSpec>,
        actions: Vec<ElAction>,
    ) {
        for a in actions {
            match a {
                ElAction::Send { to, msg } => {
                    let m = NetMsg::Election {
                        txn,
                        spec: Arc::clone(&spec),
                        msg,
                    };
                    self.send_net(ctx, to, m);
                }
                ElAction::SetTimer(timer) => {
                    ctx.set_timer(self.cfg.window_2t(), NodeTimer::Election { txn, timer });
                }
                ElAction::Elected => self.start_termination_round(ctx, txn),
                ElAction::CoordinatorIs(_) => {
                    if let Some(st) = self.txns.get_mut(&txn) {
                        st.last_coord_contact = ctx.now();
                    }
                }
            }
        }
    }

    fn start_termination_round(&mut self, ctx: &mut Ctx<'_, NetMsg, NodeTimer>, txn: TxnId) {
        let Some(st) = self.txns.get_mut(&txn) else {
            return;
        };
        if st.decided.is_some() {
            return;
        }
        // An elected leader that never voted seeds its own `q` state
        // into the round's view — a veto, which must be durable and
        // irrevocable before the round runs (see
        // `Participant::veto_abort`).
        let mut veto = self.take_actions();
        let st = self.txns.get_mut(&txn).expect("checked above");
        st.participant.veto_abort(&mut veto);
        if veto.is_empty() {
            self.recycle_actions(veto);
        } else {
            self.apply_actions(ctx, txn, self.cfg.site, veto);
        }
        let Some(st) = self.txns.get_mut(&txn) else {
            return;
        };
        st.termination_rounds += 1;
        let round = st.termination_rounds;
        let kind = qbc_core::termination_kind_for(st.spec.protocol, self.cfg.site_votes.as_ref());
        let (term, actions) = Termination::start(
            self.cfg.site,
            Arc::clone(&st.spec),
            kind,
            round,
            st.participant.state(),
            st.participant.commit_version(),
        );
        st.termination = Some(Box::new(term));
        self.emit(ctx.now(), Some(txn), EventKind::TerminationRound { round });
        self.apply_actions(ctx, txn, self.cfg.site, actions);
    }
}

impl Process for SiteNode {
    type Msg = NetMsg;
    type Timer = NodeTimer;

    fn on_start(&mut self, ctx: &mut Ctx<'_, NetMsg, NodeTimer>) {
        // A node built over a reopened (non-empty) file WAL holds
        // durable history but no volatile state: recover before serving
        // anything, exactly as post-crash recovery would. A fresh log
        // is a no-op, so newly created clusters (and their golden
        // digests) are unaffected.
        if !self.log.wal().is_empty() {
            self.on_recover(ctx);
        }
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, NetMsg, NodeTimer>, from: SiteId, msg: NetMsg) {
        self.sweep_retired(ctx.now());
        self.handle_net(ctx, from, msg);
        self.pump(ctx);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, NetMsg, NodeTimer>, _id: TimerId, timer: NodeTimer) {
        self.sweep_retired(ctx.now());
        let catalog = Arc::clone(&self.catalog);
        match timer {
            NodeTimer::Proto(kind) => match kind {
                TimerKind::VoteCollection { txn } => {
                    let mut actions = self.take_actions();
                    if let Some(st) = self.txns.get_mut(&txn) {
                        if let Some(c) = st.coordinator.as_mut() {
                            c.on_vote_timer(&mut actions);
                        } else if let Some(p) = st.paxos.as_mut() {
                            p.on_vote_timer(&mut actions);
                        }
                    }
                    self.apply_actions(ctx, txn, self.cfg.site, actions);
                    self.adopt_coordinator_decision(ctx.now(), txn);
                }
                TimerKind::Paxos1bCollection { txn, bal } => {
                    // Guarded on the undecided state: a leader stuck in
                    // `Proposing` after a higher-ballot candidate already
                    // decided would otherwise re-broadcast forever.
                    let mut actions = self.take_actions();
                    if let Some(p) = self
                        .txns
                        .get_mut(&txn)
                        .filter(|st| st.decided.is_none())
                        .and_then(|st| st.paxos.as_mut())
                    {
                        p.on_1b_timer(bal, &mut actions);
                    }
                    self.apply_actions(ctx, txn, self.cfg.site, actions);
                }
                TimerKind::Paxos2bCollection { txn, bal } => {
                    let mut actions = self.take_actions();
                    if let Some(p) = self
                        .txns
                        .get_mut(&txn)
                        .filter(|st| st.decided.is_none())
                        .and_then(|st| st.paxos.as_mut())
                    {
                        p.on_2b_timer(bal, &mut actions);
                    }
                    self.apply_actions(ctx, txn, self.cfg.site, actions);
                }
                TimerKind::AckCollection { txn } => {
                    let mut actions = self.take_actions();
                    if let Some(c) = self
                        .txns
                        .get_mut(&txn)
                        .and_then(|st| st.coordinator.as_mut())
                    {
                        c.on_ack_timer(&catalog, &mut actions);
                    }
                    self.apply_actions(ctx, txn, self.cfg.site, actions);
                    self.adopt_coordinator_decision(ctx.now(), txn);
                }
                TimerKind::StateCollection { txn, round } => {
                    let actions = self
                        .txns
                        .get_mut(&txn)
                        .and_then(|st| st.termination.as_mut())
                        .map(|t| t.on_state_timer(round, &catalog))
                        .unwrap_or_default();
                    self.apply_actions(ctx, txn, self.cfg.site, actions);
                }
                TimerKind::TerminationAcks { txn, round } => {
                    let actions = self
                        .txns
                        .get_mut(&txn)
                        .and_then(|st| st.termination.as_mut())
                        .map(|t| t.on_acks_timer(round, &catalog))
                        .unwrap_or_default();
                    self.apply_actions(ctx, txn, self.cfg.site, actions);
                }
                TimerKind::CoordinatorWatch { txn } => self.on_watchdog(ctx, txn),
                TimerKind::XVoteCollection { txn } => {
                    let actions = self
                        .xcoords
                        .get_mut(&txn)
                        .map(|x| x.engine.on_vote_timer())
                        .unwrap_or_default();
                    let decided = !actions.is_empty();
                    self.apply_actions(ctx, txn, self.cfg.site, actions);
                    if decided {
                        self.schedule_retire(ctx.now(), txn);
                    }
                }
                TimerKind::BlockedRetry { txn } => {
                    let undecided = self
                        .txns
                        .get(&txn)
                        .map(|st| st.decided.is_none())
                        .unwrap_or(false);
                    if undecided {
                        self.start_termination_election(ctx, txn);
                    }
                }
            },
            NodeTimer::Election { txn, timer } => {
                let (spec, actions) = match self.txns.get_mut(&txn) {
                    Some(st) if st.decided.is_none() => match st.elector.as_mut() {
                        Some(e) => (Arc::clone(&st.spec), e.step(ElInput::Timer(timer))),
                        None => return,
                    },
                    _ => return,
                };
                self.apply_election_actions(ctx, txn, spec, actions);
            }
            NodeTimer::ReadTimeout { req_id } => {
                if let Some(r) = self.reads.get_mut(&req_id) {
                    if r.result == ReadResult::Pending {
                        r.result = ReadResult::Unavailable;
                    }
                    // Whatever the outcome, the collector's life now has
                    // a bound: retire it after the polling grace period.
                    self.arm_read_retire(ctx, req_id);
                }
            }
            NodeTimer::ReadRetire { req_id } => {
                self.reads.remove(&req_id);
                self.snap_reads.remove(&req_id);
            }
            NodeTimer::SnapReadTimeout { req_id } => self.on_snap_read_timeout(ctx, req_id),
            NodeTimer::FlushWal => {
                if let Some(upto) = self.log.flush(ctx) {
                    self.advance_durable(ctx, upto);
                }
            }
            NodeTimer::WalForceDone { upto } => self.advance_durable(ctx, upto),
            NodeTimer::Checkpoint => self.on_checkpoint_tick(ctx),
        }
        self.pump(ctx);
    }

    fn on_crash(&mut self, now: Time) {
        // Volatile state dies with the site; the item store survives,
        // and of the log exactly what was forced (staged records and
        // the effects waiting on them are the group-commit loss window).
        self.log.crash();
        self.txns.clear();
        self.xcoords.clear();
        // Acceptor promises/accepts are durable (force-logged before
        // every echo); the in-memory map is rebuilt from the WAL.
        self.acceptors.clear();
        // Retired summaries are volatile too: the WAL still holds every
        // record they were distilled from, so recovery rebuilds them.
        self.retired.clear();
        self.xretired.clear();
        self.retire_queue.clear();
        self.age_queue.clear();
        self.decision_events.clear();
        self.reads.clear();
        self.snap_reads.clear();
        self.locks = LockManager::new();
        self.local_queue.clear();
        // Checkpoint bookkeeping is volatile (timers from before the
        // crash never fire); recovery rebuilds it from the log.
        self.first_lsn.clear();
        self.checkpoint_armed = false;
        self.last_checkpoint_end = Lsn(0);
        self.bytes_since_checkpoint = 0;
        self.checkpointing = false;
        // Watermark state is volatile; recovery rebuilds floors from
        // in-doubt records and vmax from the durable store. Peers keep
        // their last-heard value for this site — stale but valid, since
        // decided-ness never regresses.
        self.stable_floors.clear();
        self.peer_watermarks.clear();
        self.local_wm = Version::INITIAL;
        self.vmax = Version::INITIAL;
        self.last_gc_wm = Version::INITIAL;
        self.emit(now, None, EventKind::Crash);
    }

    fn on_recover(&mut self, ctx: &mut Ctx<'_, NetMsg, NodeTimer>) {
        // Checkpoint outcomes first: they stand in for truncated
        // per-transaction records, so the retired maps must answer
        // before the replay passes decide what to resurrect.
        let (ck_retired, ck_xretired, ck_items) = match last_checkpoint(self.log_records()) {
            Some((r, x, i)) => (r.to_vec(), x.to_vec(), i.to_vec()),
            None => (Vec::new(), Vec::new(), Vec::new()),
        };
        // Item snapshot before the replay passes: suffix records carry
        // only post-checkpoint updates. Chain installation is additive
        // and idempotent, so never-written copies (snapshot at the
        // initial version) fall through to the load-time value
        // harmlessly.
        for (item, chain) in ck_items {
            if self.items.read(item).is_some() {
                self.items.install_chain(item, &chain);
            }
        }
        for o in ck_retired {
            self.retired.insert(
                o.txn,
                RetiredTxn {
                    decision: o.decision,
                    commit_version: o.commit_version,
                    decided_at: ctx.now(),
                },
            );
            // Re-enter the aging pipeline with a fresh clock: the
            // recovered site grants stragglers a full horizon again
            // rather than guessing how much had already elapsed.
            if self.cfg.retire_horizon.is_some() {
                self.age_queue.push_back((ctx.now(), o.txn));
            }
        }
        for o in ck_xretired {
            if self.cfg.retire_horizon.is_some() && !self.retired.contains_key(&o.txn) {
                self.age_queue.push_back((ctx.now(), o.txn));
            }
            self.xretired.insert(
                o.txn,
                XRetired {
                    decision: o.decision,
                    branches: o
                        .branches
                        .into_iter()
                        .map(|(c, p, v)| (c, p.into_iter().collect(), v))
                        .collect(),
                },
            );
        }
        // Rebuild the truncation bookkeeping from the durable log: the
        // first retained LSN per transaction, and the log end as of the
        // newest checkpoint.
        for (lsn, rec) in self.log.wal().replay() {
            match rec.txn() {
                Some(t) => {
                    self.first_lsn.entry(t).or_insert(lsn);
                }
                None => self.last_checkpoint_end = Lsn(lsn.0 + 1),
            }
        }
        let recovered = recover_state(self.log.wal().replay().map(|(_, r)| r));
        let site = self.cfg.site;
        let faulty = self.cfg.faulty;
        for (txn, rec) in recovered {
            if self.retired.contains_key(&txn) {
                // Retired before the checkpoint: only leftover records
                // of an already-answered history (truncation keeps
                // whole segments). The compact outcome keeps answering.
                continue;
            }
            let Some(spec) = rec.spec.clone() else {
                // Without a spec (vote-no abort) there is nothing to
                // re-enter; the decision is already durable.
                continue;
            };
            let participant = Participant::from_recovery(
                site,
                txn,
                ParticipantConfig {
                    vote_yes: true,
                    faulty,
                },
                &rec,
            );
            let state = participant.state();
            let decided = state.decision();
            // Re-apply committed updates (idempotent: version checks).
            if decided == Some(Decision::Commit) {
                if let Some(version) = rec.commit_version {
                    for (&item, &value) in spec.writeset.updates.iter() {
                        if self.items.read(item).is_some() {
                            let _ = self.items.apply(item, version, value);
                        }
                    }
                }
            }
            // Re-acquire locks for in-doubt transactions: their outcome
            // is unknown, so their items must stay inaccessible.
            if decided.is_none() {
                for item in spec.writeset.items() {
                    if self.items.read(item).is_some() {
                        let _ = self.locks.acquire(txn, item, LockMode::Exclusive);
                        self.emit(ctx.now(), Some(txn), EventKind::PinStart { item });
                    }
                }
                if self.cfg.snapshot_reads {
                    // Rebuild the watermark floor the in-doubt pin
                    // imposes: at least the current local max of its
                    // writeset copies, raised to just below the commit
                    // version when a PreCommit record fixed it.
                    let mut floor = spec
                        .writeset
                        .items()
                        .filter_map(|i| self.items.version(i))
                        .max();
                    if let Some(cv) = rec.commit_version {
                        let pc = Version(cv.0.saturating_sub(1));
                        floor = Some(floor.map_or(pc, |f| f.max(pc)));
                    }
                    if let Some(floor) = floor {
                        self.stable_floors.insert(txn, floor);
                    }
                }
            }
            // Sibling knowledge is volatile: a recovered branch falls
            // back to parent-only outcome discovery.
            let mut st = TxnState::new(spec, participant, ctx.now());
            st.decided = decided;
            st.decided_at = decided.map(|_| ctx.now());
            self.txns.insert(txn, st);
            if decided.is_none() {
                self.arm_watchdog(ctx, txn);
            } else {
                self.schedule_retire(ctx.now(), txn);
            }
            // Coordinator-side recovery duties.
            let st = self.txns.get(&txn).expect("just inserted");
            if st.spec.coordinator != site {
                continue;
            }
            let targets: Vec<SiteId> = st.spec.participants.iter().copied().collect();
            let is_participant = st.spec.participants.contains(&site);
            let protocol = st.spec.protocol;
            let is_branch = st.spec.parent.is_some();
            let commit_version = st.participant.commit_version();
            match st.decided {
                // Re-announce a decision that may never have left this
                // site (crash between log force and broadcast).
                Some(decision) => {
                    for to in targets {
                        self.send_net(
                            ctx,
                            to,
                            NetMsg::Proto(Msg::Decided {
                                txn,
                                decision,
                                commit_version,
                            }),
                        );
                    }
                }
                // 2PC presumed abort: the commit point is this site's
                // own Decided record; its absence proves the transaction
                // never committed, so the recovering coordinator may
                // (must, for liveness) abort it. The quorum protocols
                // may NOT do this — their termination protocols can
                // commit without the coordinator — and neither may a
                // *branch* of a cross-shard transaction under any
                // protocol: its commit point lives at the parent, which
                // may already have counted this shard's yes vote. A
                // recovered branch rejoins and rediscovers the outcome
                // (the watchdog armed above drives the asks).
                None if protocol == ProtocolKind::TwoPhase && !is_branch => {
                    // Through the configured force policy, so recovery
                    // pays the same device costs as normal operation and
                    // the abort broadcasts below wait for the force.
                    self.log_record(
                        ctx,
                        LogRecord::Decided {
                            txn,
                            decision: Decision::Abort,
                            commit_version: None,
                        },
                    );
                    if is_participant {
                        // Terminate the local participant too.
                        let mut actions = self.take_actions();
                        self.txns
                            .get_mut(&txn)
                            .expect("present")
                            .participant
                            .on_msg(site, &Msg::Abort { txn }, Version::INITIAL, &mut actions);
                        self.apply_actions(ctx, txn, site, actions);
                    } else if let Some(st) = self.txns.get_mut(&txn) {
                        st.decided = Some(Decision::Abort);
                        st.decided_at = Some(ctx.now());
                        self.note_decision(txn, Decision::Abort, None);
                    }
                    for to in targets {
                        self.send_net(ctx, to, NetMsg::Proto(Msg::Abort { txn }));
                    }
                }
                None => {}
            }
        }
        // Cross-shard coordinator recovery (after the participant pass,
        // so self-addressed X-DECIDEs find the local branch state): an
        // undecided XStart is presumed aborted — no durable XDecision
        // proves no commit X-DECIDE ever left this site — and a decided
        // one is re-announced to every branch coordinator.
        let xrecovered = recover_xstate(self.log.wal().replay().map(|(_, r)| r));
        for (txn, rec) in xrecovered {
            if self.xretired.contains_key(&txn) {
                // Retired into the checkpoint: the compact record keeps
                // answering orphans; no engine (and no re-announce
                // storm) needed.
                continue;
            }
            let (engine, actions) = XTxnCoordinator::from_recovery(txn, &rec);
            self.xcoords.insert(
                txn,
                XCoord {
                    engine,
                    gate: Lsn(0),
                },
            );
            self.apply_actions(ctx, txn, self.cfg.site, actions);
            self.schedule_retire(ctx.now(), txn);
        }
        // Paxos Commit acceptor recovery: promises and accepted batches
        // were force-logged before every 1b/2b echo, so the durable
        // records reconstruct exactly what this acceptor may still be
        // held to by a recovery candidate. Decided or retired
        // transactions answer with the outcome instead.
        for (txn, rec) in recover_paxos(self.log.wal().replay().map(|(_, r)| r)) {
            if self.retired.contains_key(&txn) {
                continue;
            }
            if self.txns.get(&txn).is_some_and(|st| st.decided.is_some()) {
                continue;
            }
            self.acceptors
                .insert(txn, PaxosAcceptor::from_recovery(&rec));
        }
        // Only live transactions pin the truncation cutoff; leftover
        // entries for retired/abandoned ones would pin it forever.
        let (txns, xcoords) = (&self.txns, &self.xcoords);
        self.first_lsn
            .retain(|t, _| txns.contains_key(t) || xcoords.contains_key(t));
        if self.cfg.snapshot_reads {
            // Rebuild vmax from the durable store (every installed
            // version survived in the chains) and recompute the local
            // watermark over the floors the in-doubt pass re-imposed.
            let items: Vec<ItemId> = self.items.items().collect();
            for i in items {
                if let Some(v) = self.items.version(i) {
                    if v > self.vmax {
                        self.vmax = v;
                    }
                }
            }
            self.refresh_watermark();
        }
        // Emitted after the re-pins above: recovery's re-acquired locks
        // register while the site still counts as down, so the
        // availability tracker sees the copies stay inaccessible across
        // the down→up edge.
        self.emit(ctx.now(), None, EventKind::Recover);
        self.pump(ctx);
    }
}

impl SiteNode {
    fn on_watchdog(&mut self, ctx: &mut Ctx<'_, NetMsg, NodeTimer>, txn: TxnId) {
        let now = ctx.now();
        let watchdog = self.cfg.watchdog_3t();
        let site = self.cfg.site;
        {
            let Some(st) = self.txns.get_mut(&txn) else {
                return;
            };
            st.watchdog_armed = false;
            if st.decided.is_some() {
                return;
            }
        }
        let mut actions = self.take_actions();
        let (expired, orphan_discovery) = {
            let st = self.txns.get_mut(&txn).expect("checked above");
            if now.since(st.last_coord_contact) >= watchdog {
                st.participant.on_coordinator_silent(&mut actions);
                // A held branch coordinator that holds no copies has
                // a participant still in `q` (which stays quiet):
                // it must still discover the cross-shard outcome —
                // from the parent, and cooperatively from sibling
                // branch coordinators.
                let discovery = if actions.is_empty() && st.spec.coordinator == site {
                    st.spec
                        .parent
                        .map(|p| discovery_targets(p, &st.x_siblings, site))
                } else {
                    None
                };
                (true, discovery)
            } else {
                (false, None)
            }
        };
        if expired {
            if let Some(targets) = orphan_discovery {
                for to in targets {
                    self.send_net(ctx, to, NetMsg::Proto(Msg::XOutcomeReq { txn }));
                }
                self.emit(now, Some(txn), EventKind::OutcomeDiscoveryOut);
            }
            self.apply_actions(ctx, txn, self.cfg.site, actions);
        } else {
            self.recycle_actions(actions);
        }
        // Re-arm while undecided (drives the re-entrant retry loop).
        self.arm_watchdog(ctx, txn);
        self.pump(ctx);
    }
}

/// The end LSN of the newest record staged for `txn` (`Lsn(0)`: none):
/// the larger of its transaction entry's gate and, for a cross-shard
/// parent hosted here, its coordination's.
fn newest_gate(
    txns: &FastMap<TxnId, TxnState>,
    xcoords: &FastMap<TxnId, XCoord>,
    txn: TxnId,
) -> Lsn {
    let own = txns.get(&txn).map_or(Lsn(0), |st| st.gate);
    let x = xcoords.get(&txn).map_or(Lsn(0), |x| x.gate);
    own.max(x)
}

/// Who an orphaned branch asks for the cross-shard outcome: the parent
/// first, then every sibling branch coordinator (cooperative
/// discovery), skipping the parent (no duplicate ask when a sibling's
/// coordinator *is* the parent's site) and this site itself.
fn discovery_targets(parent: SiteId, siblings: &[SiteId], this: SiteId) -> Vec<SiteId> {
    let mut targets = vec![parent];
    targets.extend(
        siblings
            .iter()
            .copied()
            .filter(|&s| s != parent && s != this),
    );
    targets
}

/// Canonical whole-site state hash for the model checker's visited-set.
///
/// Canonicalisation rules:
///
/// * hash-map tables (`txns`, `xcoords`, `retired`, `xretired`,
///   `first_lsn`) are sorted by key first — their iteration order is
///   insertion history, not state;
/// * absolute timestamps are hashed *relative* to `now`
///   (`last_coord_contact` feeds the watchdog's `now.since(..)`
///   comparison), so states that differ only by a clock translation
///   merge; each table entry's gate likewise as its distance above the
///   durable watermark (zero for every open gate), and the log hashes
///   its own device, watermark and queue the same way
///   (`DurableLog::fingerprint_volatile`);
/// * pure history is excluded: the participant's transition audit
///   trail, the lock manager's activity counters, `started_at`
///   (metrics-only), force counters and the spare-buffer cache —
///   hashing any of it would make every distinct path hash distinct and
///   destroy the merging that keeps exhaustive search tractable.
impl qbc_simnet::Fingerprint for SiteNode {
    fn fingerprint(&self, now: Time, h: &mut qbc_simnet::FastHasher) {
        use std::fmt::Write as _;
        use std::hash::Hasher as _;
        let mut s = String::with_capacity(1024);
        // Durable half: item store, then the retained + pending log.
        // Log content is state (recovery replays it), and per-site
        // record order is fixed by the site's own event order, so
        // hashing it does not break cross-site delivery commutation.
        for item in self.items.items() {
            // The whole retained chain: with version retention > 1 the
            // older versions are observable (snapshot reads), so states
            // differing only there must not merge.
            let chain = self.items.versions(item);
            let _ = write!(s, "i{item:?}={chain:?};");
        }
        self.log.fingerprint_durable(&mut s);
        // Volatile half: lock table (stats-free snapshot), reads,
        // violations, the local self-delivery queue (empty between
        // events) and the durability gate (device, watermark, queue).
        let _ = write!(s, "|locks{:?}", self.locks.table_snapshot());
        let _ = write!(s, "|reads{:?}", self.reads);
        let _ = write!(s, "|viol{:?}", self.violations);
        let _ = write!(s, "|lq{:?}", self.local_queue);
        self.log.fingerprint_volatile(now, &mut s);
        let _ = write!(
            s,
            "|ckpt{}@{:?}",
            self.checkpoint_armed, self.last_checkpoint_end
        );
        // Snapshot-read machinery (all constant when the feature is
        // off, so legacy state spaces merge exactly as before).
        let _ = write!(s, "|snreads{:?}", self.snap_reads);
        let _ = write!(s, "|ckb{}", self.bytes_since_checkpoint);
        let _ = write!(
            s,
            "|wm{:?},{:?},{:?}",
            self.local_wm, self.vmax, self.last_gc_wm
        );
        let mut floors: Vec<(TxnId, Version)> =
            self.stable_floors.iter().map(|(t, v)| (*t, *v)).collect();
        floors.sort_unstable();
        let _ = write!(s, "|floors{floors:?}");
        let mut pws: Vec<(SiteId, Version)> =
            self.peer_watermarks.iter().map(|(p, v)| (*p, *v)).collect();
        pws.sort_unstable();
        let _ = write!(s, "|pwm{pws:?}");
        h.write(s.as_bytes());
        // Per-transaction engines, sorted by id.
        let mut ids: Vec<TxnId> = self.txns.keys().copied().collect();
        ids.sort_unstable();
        for id in ids {
            let st = self.txns.get(&id).expect("sorted key");
            let mut t = format!("t{id:?}");
            st.participant.fingerprint(now, h);
            if let Some(c) = &st.coordinator {
                c.fingerprint(now, h);
            }
            if let Some(term) = &st.termination {
                term.fingerprint(now, h);
            }
            if let Some(e) = &st.elector {
                e.fingerprint(now, h);
            }
            if let Some(p) = &st.paxos {
                p.fingerprint(now, h);
            }
            let _ = write!(
                t,
                "|{}{}{}{}{}|{}|{:?}|{:?}|{}|{}|{:?}|{}",
                st.coordinator.is_some() as u8,
                st.termination.is_some() as u8,
                st.elector.is_some() as u8,
                st.paxos.is_some() as u8,
                st.watchdog_armed as u8,
                now.since(st.last_coord_contact).0,
                st.decided,
                st.decided_version,
                st.blocked as u8,
                st.termination_rounds,
                st.x_siblings,
                self.log.above_watermark(st.gate),
            );
            h.write(t.as_bytes());
        }
        let mut xids: Vec<TxnId> = self.xcoords.keys().copied().collect();
        xids.sort_unstable();
        for id in xids {
            let x = self.xcoords.get(&id).expect("sorted key");
            let closed = self.log.above_watermark(x.gate);
            h.write(format!("x{id:?}+{closed}").as_bytes());
            x.engine.fingerprint(now, h);
        }
        // Paxos acceptor table, sorted by transaction.
        let mut aids: Vec<TxnId> = self.acceptors.keys().copied().collect();
        aids.sort_unstable();
        for id in aids {
            h.write(format!("a{id:?}").as_bytes());
            self.acceptors
                .get(&id)
                .expect("sorted key")
                .fingerprint(now, h);
        }
        // Compact outcomes and retirement/checkpoint bookkeeping.
        let mut rids: Vec<TxnId> = self.retired.keys().copied().collect();
        rids.sort_unstable();
        for id in rids {
            let r = self.retired.get(&id).expect("sorted key");
            h.write(
                format!(
                    "r{id:?}={:?},{:?},{}",
                    r.decision,
                    r.commit_version,
                    now.since(r.decided_at).0
                )
                .as_bytes(),
            );
        }
        let mut xrids: Vec<TxnId> = self.xretired.keys().copied().collect();
        xrids.sort_unstable();
        for id in xrids {
            h.write(
                format!("xr{id:?}={:?}", self.xretired.get(&id).expect("sorted key")).as_bytes(),
            );
        }
        for (t, id) in &self.retire_queue {
            h.write(format!("rq{}:{id:?}", now.since(*t).0).as_bytes());
        }
        let mut lsns: Vec<(TxnId, Lsn)> = self.first_lsn.iter().map(|(t, l)| (*t, *l)).collect();
        lsns.sort_unstable();
        for (id, lsn) in lsns {
            h.write(format!("fl{id:?}@{lsn:?}").as_bytes());
        }
    }
}

/// Convenience: builds one [`SiteNode`] per site over a shared catalog.
///
/// `sites` should cover every site appearing in the catalog (plus any
/// extra client-only sites). Initial values default to zero.
pub fn build_cluster(
    sites: impl IntoIterator<Item = SiteId>,
    catalog: &Catalog,
    t_bound: qbc_simnet::Duration,
    mut customize: impl FnMut(NodeConfig) -> NodeConfig,
) -> Vec<(SiteId, SiteNode)> {
    sites
        .into_iter()
        .map(|s| {
            let cfg = customize(NodeConfig::new(s, catalog.clone(), t_bound));
            (s, SiteNode::new(cfg, |_| 0))
        })
        .collect()
}
