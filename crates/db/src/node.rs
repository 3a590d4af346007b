//! The database site node: protocol engines wired to the network, the
//! pin table and stable storage.
//!
//! A [`SiteNode`] implements [`Process`] and can run on the
//! deterministic simulator or under a `NodeDriver` (the reactor). Per
//! transaction it hosts, in its `TxnTable` (`txn_table.rs`):
//!
//! * a [`Participant`] engine (always),
//! * a leader, at most one: the commit [`Coordinator`] or the Paxos
//!   Commit [`PaxosLeader`] at the site where the client submitted, or a
//!   Paxos recovery candidate at a participant whose watchdog fired —
//!   named only where it is built and driven only through
//!   [`CommitEngine`],
//! * an [`Elector`](qbc_core::election::Elector) plus a
//!   [`Termination`](qbc_core::Termination) engine while the termination
//!   protocol runs (any site of the partition can end up coordinator —
//!   including several at once),
//! * a [`PaxosAcceptor`](qbc_core::PaxosAcceptor) under Paxos Commit,
//!   in a map of its own,
//!
//! and integrates them with:
//!
//! * **strict 2PL (no-wait)** — voting yes pins every local copy of the
//!   writeset in the `qbc-locks` table; a copy another transaction holds
//!   makes the site vote no; pins are held until the decision, which is
//!   what makes *blocked* transactions reduce availability (the paper's
//!   Section 1 argument);
//! * **stable storage** — nothing of a transaction is told or applied
//!   before its outcome is irrevocable: every engine `Log` action is
//!   force-written before subsequent sends, except the `Decided` of a
//!   commit already fixed by durable state elsewhere
//!   ([`TxnSpec::commit_precedes_decided`]), which rides the next
//!   force; recovery replays the log, re-pins the copies of in-doubt
//!   yes votes and re-enters the termination path;
//! * **the read path** — quorum and snapshot reads and the watermark
//!   snapshot reads are served at, in [`Reads`] (`reads.rs`), which
//!   the commit path feeds through a few hooks.
//!
//! This file hosts the site itself: message and timer dispatch, the
//! durability gating of sends and decision applications, the one path
//! that marks a transaction decided (`apply_decision`) and checkpoints.
//! Dispatch does not route by message or timer: every engine takes
//! events the way the leader slot does (see [`CommitEngine`]), ignoring
//! other roles' events, so `handle_proto` feeds a message, and
//! `on_timer` a protocol timer, to every engine the transaction's entry
//! holds, and a site that knows the outcome answers stragglers with it
//! in one place. A leader at a coordinator without a copy applies its
//! own decision through [`Action::ApplyAndDecide`], as a participant
//! does. Three parts live beside it as further `impl SiteNode` blocks:
//! the watchdog and the start of an election or of a termination round
//! in `escalation.rs`, restart's one walk over the log in
//! `recovery.rs`, and the cross-shard relay in `xrelay.rs`.

use crate::config::{Mutation, NodeConfig};
use crate::durable_log::{DeferredOp, DurableLog};
use crate::envelope::{NetMsg, NodeTimer};
use crate::reads::{local_max_version, ReadEvent, ReadResult, ReadSite, Reads};
use crate::txn_table::{Outcome, TxnState, TxnTable};
use qbc_core::{
    Action, CommitEngine, Coordinator, Decision, EngineCtx, LocalState, LogRecord, Msg,
    Participant, ParticipantConfig, PaxosLeader, ProtocolKind, TimerKind, Transition, TxnId,
    TxnSpec, WriteSet,
};
use qbc_locks::{LockManager, LockMode};
use qbc_obs::EventKind;
use qbc_simnet::{Ctx, Label, Process, SiteId, Time, TimerId};
use qbc_storage::{Lsn, VersionedStore, WalBackend};
use qbc_votes::{Catalog, ItemId, Version};
use std::collections::{BTreeSet, VecDeque};
use std::sync::Arc;

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
    pub(crate) cfg: NodeConfig,
    /// The write-ahead log behind its durability gate: nothing of a
    /// transaction is told or applied before it is irrevocable — while a
    /// record of it is undurable, bar the `Decided` of a commit that was
    /// irrevocable before it.
    pub(crate) log: DurableLog,
    /// The versioned copies this site holds. Durable: survives `on_crash`
    /// (the page store of a real site).
    pub(crate) items: VersionedStore<i64>,
    pub(crate) locks: LockManager<ItemId, TxnId>,
    /// Everything this site knows about each transaction, live or
    /// retired, with the retirement policy.
    pub(crate) table: TxnTable,
    /// The read path: read collectors and the watermark.
    pub(crate) reads: Reads,
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
    /// Whether a [`NodeTimer::Checkpoint`] tick is outstanding (armed
    /// lazily by the first record after a quiet period, so an idle site
    /// quiesces instead of ticking forever).
    checkpoint_armed: bool,
    /// Log end as of the last checkpoint (including the checkpoint
    /// record itself); no new checkpoint until the log outgrows it.
    pub(crate) last_checkpoint_end: Lsn,
    /// The largest transaction id the last recovery walk read. Derived
    /// from the log, so not part of the fingerprint.
    pub(crate) max_recovered_txn: Option<TxnId>,
}

impl SiteNode {
    /// Builds a site and loads the initial value of every local copy.
    ///
    /// With a file-backed WAL ([`crate::WalBackendConfig::File`]) the log
    /// directory is opened: every segment checked, a torn tail cut. A
    /// node whose reopened log is non-empty recovers in `on_start`
    /// (every substrate runs it before delivering anything), in one
    /// streaming walk that also finds [`SiteNode::first_fresh_txn`]; no
    /// manual recovery scheduling is needed, and nothing else reads the
    /// log back.
    ///
    /// # Panics
    /// When the file-backed log cannot be opened (I/O error or non-tail
    /// corruption): a site without its log has no safe way to run.
    pub fn new(cfg: NodeConfig, initial_values: impl Fn(ItemId) -> i64) -> Self {
        let log = DurableLog::open(&cfg);
        // The site's copies come in one bulk pass over the catalog's
        // slots, every copy at the initial version.
        let mut items = VersionedStore::load(
            cfg.catalog.items_at(cfg.site).map(|item| item.id),
            initial_values,
        );
        items.set_retention(cfg.version_retention.max(1));
        // With snapshot reads, the peers bounding the shard watermark:
        // every other site that holds a copy of anything this site
        // hosts, exactly the sites whose in-flight transactions can pin
        // a local copy.
        let mut peers: BTreeSet<SiteId> = BTreeSet::new();
        if cfg.snapshot_reads {
            for (placement, _) in cfg.catalog.placements() {
                if placement.contains_key(&cfg.site) {
                    peers.extend(placement.keys());
                }
            }
        }
        peers.remove(&cfg.site);
        let peers = peers.into_iter().collect();
        let reads = Reads::new(cfg.snapshot_reads, cfg.decision_events, peers);
        SiteNode {
            table: TxnTable::new(&cfg),
            cfg,
            log,
            items,
            locks: LockManager::new(),
            reads,
            violations: Vec::new(),
            local_queue: VecDeque::new(),
            released: Vec::new(),
            spare_actions: Vec::new(),
            decision_events: Vec::new(),
            checkpoint_armed: false,
            last_checkpoint_end: Lsn(0),
            max_recovered_txn: None,
        }
    }

    /// This site's id.
    pub fn site(&self) -> SiteId {
        self.cfg.site
    }

    // ---- public inspection API (used by the harness and tests) --------

    /// The replication catalog this site runs over: the handle its
    /// configuration shares with the rest of its shard.
    pub fn catalog(&self) -> &Arc<Catalog> {
        &self.cfg.catalog
    }

    /// The decision reached for a transaction at this site, if any
    /// (retired transactions keep answering from their compact record).
    pub fn decision(&self, txn: TxnId) -> Option<Decision> {
        self.table.decision(txn)
    }

    /// Virtual time at which this site decided the transaction.
    pub fn decided_at(&self, txn: TxnId) -> Option<Time> {
        self.table.decided_at(txn)
    }

    /// The local participant state for a transaction.
    pub fn local_state(&self, txn: TxnId) -> Option<LocalState> {
        self.table.local_state(txn)
    }

    /// Number of live (unretired) per-transaction state entries — the
    /// table the retention policy ([`NodeConfig::retire_after`]) bounds.
    pub fn txn_table_len(&self) -> usize {
        self.table.len()
    }

    /// Number of transactions retired to compact outcome records.
    pub fn retired_len(&self) -> usize {
        self.table.retired_len()
    }

    /// Number of cross-shard coordinations retired to compact records.
    pub fn xretired_len(&self) -> usize {
        self.table.xretired_len()
    }

    /// Drains the decision transitions recorded since the last drain
    /// into `out` (only populated with
    /// [`NodeConfig::decision_events`]). Front-ends call this after
    /// every delivery: each event is the moment this site first learned
    /// a transaction's outcome.
    pub fn drain_decision_events(&mut self, out: &mut Vec<DecisionEvent>) {
        out.append(&mut self.decision_events);
    }

    /// The top-level decision of a cross-shard transaction coordinated
    /// at this site, if reached.
    pub fn x_decision(&self, txn: TxnId) -> Option<Decision> {
        self.table.x_decision(txn)
    }

    /// True while the transaction is declared blocked at this site.
    pub fn is_blocked(&self, txn: TxnId) -> bool {
        self.table.get(txn).is_some_and(|t| t.blocked())
    }

    /// The commit version this site associates with its decision for
    /// `txn`, whichever role learned it (participant command, coordinator
    /// decision, engine-less `X-DECIDE` adoption, or a retired record).
    pub fn commit_version_of(&self, txn: TxnId) -> Option<Version> {
        self.table.commit_version_of(txn)
    }

    /// All transactions this site knows about, in id order.
    pub fn known_txns(&self) -> Vec<TxnId> {
        self.table.ids()
    }

    /// The audit trail of participant state transitions (experiment E6).
    pub fn transitions(&self, txn: TxnId) -> &[Transition] {
        self.table
            .get(txn)
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

    /// Every retained `(version, value)` of a local copy, oldest first:
    /// one entry unless snapshot reads retain more. Empty when the site
    /// holds no copy.
    pub fn item_versions(&self, item: ItemId) -> Vec<(Version, i64)> {
        let chain = self.items.versions(item).into_iter().flatten();
        chain.map(|(v, &val)| (v, val)).collect()
    }

    /// True when the local copy of `item` is pinned by an undecided
    /// transaction's lock.
    pub fn is_item_locked(&self, item: ItemId) -> bool {
        self.locks.is_locked(&item)
    }

    /// The result of a read started with [`SiteNode::start_read`] or
    /// [`SiteNode::start_snapshot_read`].
    ///
    /// Collectors are retired a couple of collection windows after they
    /// resolve (see [`NodeTimer::ReadRetire`]); `None` for an unknown or
    /// already-retired request id.
    pub fn read_result(&self, req_id: u64) -> Option<ReadResult> {
        self.reads.result(req_id)
    }

    /// Number of live read collectors (bounded by retirement).
    pub fn reads_table_len(&self) -> usize {
        self.reads.len()
    }

    /// Request ids of the reads this site is still collecting: a host
    /// that stops driving the site must answer these itself.
    pub fn pending_reads(&self) -> impl Iterator<Item = u64> + '_ {
        self.reads.pending()
    }

    /// Like [`SiteNode::drain_decision_events`], for the reads this
    /// site coordinates: each event is the moment one resolved.
    pub fn drain_read_events(&mut self, out: &mut Vec<ReadEvent>) {
        self.reads.drain_events(out);
    }

    /// The durable log, read back one record at a time (for experiments
    /// and tests).
    pub fn log_records(&self) -> impl Iterator<Item = LogRecord> + '_ {
        self.log.wal().replay().map(|(_, rec)| rec)
    }

    /// One past the largest transaction id the last recovery read in
    /// the log, checkpointed outcomes included (1 if it never ran). A
    /// cluster over reopened logs numbers from the maximum across its
    /// recovered sites, so it never re-issues an id.
    pub fn first_fresh_txn(&self) -> u64 {
        self.max_recovered_txn.map_or(1, |t| t.0 + 1)
    }

    /// Number of WAL forces this site has paid (one per flush; with
    /// group commit many records share one force).
    pub fn wal_forces(&self) -> u64 {
        self.log.wal().forces()
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
            &self.cfg.catalog,
        ));
        self.ensure_txn(ctx.now(), &spec);
        self.cfg
            .emit(ctx.now(), Some(txn), EventKind::Submitted { protocol });
        let actions = self.start_leader(spec);
        self.apply_actions(ctx, txn, self.cfg.site, actions);
        self.pump(ctx);
    }

    /// Installs this site as the driving engine of `spec` — a Paxos
    /// Commit leader at ballot 0 or a commit coordinator, with the
    /// configured test mutation — and returns what its start does.
    pub(crate) fn start_leader(&mut self, spec: Arc<TxnSpec>) -> Vec<Action> {
        let txn = spec.id;
        let leader: Box<dyn CommitEngine> = if spec.protocol == ProtocolKind::PaxosCommit {
            self.paxos_leader(PaxosLeader::new(spec))
        } else {
            let coord = Coordinator::new(spec, self.cfg.site_votes.clone());
            Box::new(if self.cfg.mutation == Some(Mutation::WeakenQc1) {
                coord.with_weakened_qc1()
            } else {
                coord
            })
        };
        self.install_leader(txn, leader)
    }

    /// A Paxos Commit leader or candidate with the configured test
    /// mutation.
    pub(crate) fn paxos_leader(&self, leader: PaxosLeader) -> Box<dyn CommitEngine> {
        Box::new(if self.cfg.mutation == Some(Mutation::WeakenPaxos) {
            leader.with_weakened_quorum()
        } else {
            leader
        })
    }

    /// Starts `leader` as `txn`'s leader, replacing any earlier one, and
    /// returns what its start does.
    pub(crate) fn install_leader(
        &mut self,
        txn: TxnId,
        mut leader: Box<dyn CommitEngine>,
    ) -> Vec<Action> {
        let mut actions = self.take_actions();
        leader.start(&mut actions);
        self.table.get_mut(txn).expect("ensured").leader = Some(leader);
        actions
    }

    /// Starts a quorum read of `item`, collecting `r(item)` votes.
    pub fn start_read(&mut self, ctx: &mut Ctx<'_, NetMsg, NodeTimer>, req_id: u64, item: ItemId) {
        let (reads, mut site) = self.read_site(ctx);
        reads.start_read(&mut site, req_id, item);
        self.pump(ctx);
    }

    /// Starts a snapshot read of `item` at the shard watermark. Locks
    /// and pins are never consulted, so unlike a quorum read it is
    /// unavailable only when no copy site is up (see `reads.rs`).
    pub fn start_snapshot_read(
        &mut self,
        ctx: &mut Ctx<'_, NetMsg, NodeTimer>,
        req_id: u64,
        item: ItemId,
    ) {
        let (reads, mut site) = self.read_site(ctx);
        reads.start_snapshot_read(&mut site, req_id, item);
        self.pump(ctx);
    }

    /// Lends the read path what one step of it borrows from this site.
    fn read_site<'a, 'c>(
        &'a mut self,
        ctx: &'a mut Ctx<'c, NetMsg, NodeTimer>,
    ) -> (&'a mut Reads, ReadSite<'a, 'c>) {
        let site = ReadSite {
            cfg: &self.cfg,
            items: &self.items,
            locks: &self.locks,
            local: &mut self.local_queue,
            ctx,
        };
        (&mut self.reads, site)
    }

    // ---- internals -----------------------------------------------------

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
            // logging a commit decision. Under 2PC, 3PC and Paxos
            // Commit the transaction can no longer abort once this
            // record is forced; under a quorum engine it already
            // cannot — the durable PC quorum just counted fixed it
            // (`TxnSpec::commit_precedes_decided`).
            if kind
                == (EventKind::DecisionLogged {
                    decision: Decision::Commit,
                })
            {
                let driving = self
                    .table
                    .get(txn)
                    .is_some_and(|st| st.leader.is_some() || st.terminating())
                    || self.table.xcoords.contains_key(&txn);
                if driving {
                    self.cfg.emit(at, Some(txn), EventKind::CommitPoint);
                }
            }
            self.cfg.emit(at, Some(txn), kind);
        }
        // A branch voting yes upward is *held* at its in-shard commit
        // point until the top-level outcome arrives.
        if let Action::Send(_, Msg::XVote { yes: true, .. }) = a {
            self.cfg.emit(at, Some(txn), EventKind::Held);
        }
    }

    pub(crate) fn ensure_txn(&mut self, now: Time, spec: &Arc<TxnSpec>) -> &mut TxnState {
        let site = self.cfg.site;
        let faulty = self.cfg.faulty;
        self.table.get_or_insert_with(spec.id, || {
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

    /// Sends a message, or withholds it while a gating log record of the
    /// transaction it speaks for is staged or being forced (every record
    /// gates but the `Decided` of an irrevocable commit — see
    /// [`SiteNode::log_record`]).
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
    pub(crate) fn send_net(
        &mut self,
        ctx: &mut Ctx<'_, NetMsg, NodeTimer>,
        to: SiteId,
        msg: NetMsg,
    ) {
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
            "told before irrevocable: {} to {to:?}",
            msg.label()
        );
        let msg = self.reads.piggyback(msg);
        if let Some(obs) = &self.cfg.obs {
            obs.note_msg(msg.label());
        }
        ctx.send(to, msg);
    }

    /// The gate LSN an effect of `txn` must wait for, or `None` when it
    /// may run now: every gating record this site staged for `txn` is
    /// durable (or it is no transaction's effect at all). The first test
    /// is the whole cost on a log that forces per record — nothing is
    /// ever undurable there, so no table is consulted.
    fn closed_gate(&self, txn: Option<TxnId>) -> Option<Lsn> {
        if self.log.all_durable() {
            return None;
        }
        self.log.closed(self.table.gate(txn?))
    }

    /// A force up to `upto` completed: runs every withheld effect the
    /// log releases, in arrival order.
    fn advance_durable(&mut self, ctx: &mut Ctx<'_, NetMsg, NodeTimer>, upto: Lsn) {
        let mut released = std::mem::take(&mut self.released);
        let table = &self.table;
        self.log
            .force_done(upto, |txn| table.gate(txn), &mut released);
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
    pub(crate) fn log_record(&mut self, ctx: &mut Ctx<'_, NetMsg, NodeTimer>, rec: LogRecord) {
        let txn = rec.txn();
        let commit = matches!(
            rec,
            LogRecord::Decided {
                decision: Decision::Commit,
                ..
            }
        );
        let (lsn, forced) = self.log.append(ctx, rec);
        if let Some(upto) = forced {
            self.advance_durable(ctx, upto);
        }
        // Not durable on return (staged, or its force is in flight):
        // whatever its transaction goes on to tell or apply waits for it
        // — unless it is the `Decided` of a commit that was irrevocable
        // before it (a quorum commit point, or a branch under the
        // parent's durable decision): that record rides the next force
        // and gates nothing. A `Decided` without a live entry gates.
        if !self.log.is_durable(lsn) {
            if let Some(txn) = txn {
                let irrevocable = commit
                    && self
                        .table
                        .get(txn)
                        .is_some_and(|st| st.spec.commit_precedes_decided());
                if !irrevocable {
                    self.table.raise_gate(txn, lsn);
                }
            }
        }
        // Track the live transaction's earliest record: the truncation
        // cutoff must never pass it. (`None`: the record is itself a
        // checkpoint.) Only the checkpointer reads this map, so the
        // common no-checkpoint configuration pays nothing on the
        // logging hot path. The tick is armed lazily, by record
        // arrival rather than free-running, so an idle site quiesces.
        if let Some(interval) = self.cfg.checkpoint_interval {
            if let Some(txn) = txn {
                self.table.note_record(txn, lsn);
            }
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
    /// that depends on a staged record. Logging the checkpoint re-arms
    /// the tick, so the site keeps ticking while it keeps logging; a
    /// quiet log stays quiet until the next record.
    fn on_checkpoint_tick(&mut self, ctx: &mut Ctx<'_, NetMsg, NodeTimer>) {
        self.checkpoint_armed = false;
        if self.log.wal().next_lsn() <= self.last_checkpoint_end {
            return;
        }
        let (retired, xretired) = self.table.checkpoint_outcomes();
        // Snapshot the versioned copies — every retained version, so a
        // recovered multi-version store can keep serving snapshot reads
        // below its watermark: committed values whose records are
        // truncated survive only here (the durable page store of a real
        // site, folded into the log). One pass over the store, already
        // in id order, into one allocation sized up front.
        let mut items = Vec::with_capacity(self.items.entry_count());
        items.extend(
            self.items
                .entries()
                .map(|(item, v, &value)| (item, v, value)),
        );
        // Everything below the oldest live transaction's first record
        // AND below this checkpoint is dead: retired outcomes live in
        // the checkpoint now, decided-but-unretired transactions still
        // have their Decided record above their first record.
        let checkpoint_lsn = self.log.wal().next_lsn();
        let cutoff = self
            .table
            .truncation_floor()
            .map_or(checkpoint_lsn, |floor| floor.min(checkpoint_lsn));
        self.log_record(
            ctx,
            LogRecord::Checkpoint {
                retired,
                xretired,
                items,
            },
        );
        self.last_checkpoint_end = self.log.wal().next_lsn();
        self.log
            .truncate_when_durable(self.last_checkpoint_end, cutoff);
    }

    /// Drains locally queued (self-addressed) messages.
    pub(crate) fn pump(&mut self, ctx: &mut Ctx<'_, NetMsg, NodeTimer>) {
        let me = self.cfg.site;
        while let Some(msg) = self.local_queue.pop_front() {
            self.handle_net(ctx, me, msg);
        }
    }

    fn handle_net(&mut self, ctx: &mut Ctx<'_, NetMsg, NodeTimer>, from: SiteId, msg: NetMsg) {
        match msg {
            NetMsg::Proto(m) => self.handle_proto(ctx, from, m),
            NetMsg::ProtoW { msg: m, wm } => {
                // Piggybacked watermark: merge it, then dispatch the
                // protocol message as if it arrived bare.
                self.reads.hear_watermark(from, wm);
                self.handle_proto(ctx, from, m);
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
            read @ (NetMsg::ReadReq { .. }
            | NetMsg::ReadRep { .. }
            | NetMsg::SnapReadReq { .. }
            | NetMsg::SnapReadRep { .. }
            | NetMsg::BeginSnapRead { .. }) => {
                let (reads, mut site) = self.read_site(ctx);
                reads.handle_net(&mut site, from, read);
            }
        }
    }

    /// Answers a straggler asking after a decided transaction with its
    /// outcome instead of resurrecting state.
    pub(crate) fn send_decided(
        &mut self,
        ctx: &mut Ctx<'_, NetMsg, NodeTimer>,
        to: SiteId,
        txn: TxnId,
        (decision, commit_version): Outcome,
    ) {
        let reply = Msg::Decided {
            txn,
            decision,
            commit_version,
        };
        self.send_net(ctx, to, NetMsg::Proto(reply));
    }

    /// One protocol message. The cross-shard relay takes its messages
    /// first, and a site that knows the outcome answers stragglers with
    /// it; every other message goes to each engine of the live entry,
    /// which ignores what is not its role's.
    fn handle_proto(&mut self, ctx: &mut Ctx<'_, NetMsg, NodeTimer>, from: SiteId, m: Msg) {
        // Cross-shard messages first (`xrelay.rs`).
        if self.handle_x(ctx, from, &m) {
            return;
        }
        let (txn, site) = (m.txn(), self.cfg.site);
        // A site that knows the outcome answers a straggler with it
        // instead of resurrecting state: a retired transaction answers
        // every message but `Decided` (no echo into a reply loop), a
        // live decided one a Paxos candidate's 1a/2a and an election
        // message, whose senders would otherwise chase a consensus that
        // is already over.
        let to_acceptor = matches!(m, Msg::PaxosP1a { .. } | Msg::PaxosP2a { .. });
        let outcome = if !self.table.contains(txn) {
            self.table.retired_outcome(txn)
        } else if to_acceptor || matches!(m, Msg::Election { .. }) {
            self.table.outcome(txn)
        } else {
            None
        };
        if let Some(outcome) = outcome {
            if !matches!(m, Msg::Decided { .. }) {
                self.send_decided(ctx, from, txn, outcome);
            }
            return;
        }
        // Learn the spec from spec-carrying messages (a recovery
        // candidate's 1a may be the first word this site ever hears of
        // the transaction); an election message also draws this site
        // into the election.
        match &m {
            Msg::VoteReq { spec } | Msg::StateReq { spec, .. } | Msg::PaxosP1a { spec, .. } => {
                self.ensure_txn(ctx.now(), spec);
            }
            Msg::Election { spec, .. } => {
                self.ensure_txn(ctx.now(), spec).elector(site);
            }
            _ => {}
        }
        if !self.table.contains(txn) {
            // A message about a transaction this site knows nothing of
            // (e.g. a stray ack to a recovered coordinator): ignore.
            return;
        }

        // Dynamic vote decision: scripted no-votes and lock conflicts.
        if let Msg::VoteReq { spec } = &m {
            let st = self.table.get(txn).expect("ensured");
            if st.participant.state() == LocalState::Initial {
                let scripted_no = self.cfg.vote_no_on.contains(&txn);
                let locked = scripted_no || !self.try_lock_writeset(ctx.now(), txn, spec);
                let st = self.table.get_mut(txn).expect("ensured");
                st.participant.set_vote(!locked);
                if !locked {
                    self.reads.pin(txn, &self.items, spec, None);
                }
            }
        }
        if let Msg::Vote { yes, .. } = &m {
            self.cfg
                .emit(ctx.now(), Some(txn), EventKind::VoteIn { yes: *yes });
        }

        // Reported in yes votes (basis of the commit version). Only
        // `VOTE-REQ` handling reads it — a vote is the only reply that
        // carries a version — so every other message skips the walk.
        let local_max_version = match &m {
            Msg::VoteReq { .. } => {
                let spec = &self.table.get(txn).expect("ensured").spec;
                local_max_version(&self.items, spec).unwrap_or(Version::INITIAL)
            }
            _ => Version::INITIAL,
        };

        // The leader, the termination round, the elector, then the
        // participant: the order the digests pin. A straggler's
        // `Decided` is for three of them: it quietly ends a live Paxos
        // candidacy, decides a running termination round, and the
        // participant applies it.
        let mut actions = self.take_actions();
        let catalog: &Catalog = &self.cfg.catalog;
        let st = self.table.get_mut(txn).expect("checked");
        // A candidate's own 1a/2a is no word from a coordinator: else a
        // stale-ballot candidacy ignored by every peer would pet its own
        // watchdog forever instead of escalating.
        if !(to_acceptor && from == site) {
            st.last_coord_contact = ctx.now();
        }
        if let Some(l) = st.leader.as_mut() {
            let ectx = EngineCtx {
                catalog,
                local_max_version,
            };
            l.on_msg(from, &m, &ectx, &mut actions);
        }
        if let Some(t) = st.termination_mut() {
            t.on_msg(from, &m, catalog, &mut actions);
        }
        if let Some(e) = st.elector_mut() {
            e.on_msg(from, &m, &mut actions);
        }
        st.participant
            .on_msg(from, &m, local_max_version, &mut actions);
        // The co-located Paxos acceptor exists from the first 1a or 2a
        // on, apart from the entry (see `TxnTable::acceptors`).
        if to_acceptor {
            let acceptor = self.table.acceptors.entry(txn).or_default();
            acceptor.on_msg(from, &m, &mut actions);
        }
        self.apply_actions(ctx, txn, from, actions);
        // Of the acceptor's messages, only a 1a arms the watchdog.
        if !matches!(m, Msg::PaxosP2a { .. }) {
            self.arm_watchdog(ctx, txn);
        }
    }

    fn try_lock_writeset(&mut self, now: Time, txn: TxnId, spec: &TxnSpec) -> bool {
        // No-wait 2PL: X-lock every local copy of the writeset; any
        // conflict means vote no (prevents distributed deadlock). The
        // local copies are walked in place: no list per VOTE-REQ.
        let catalog: &Catalog = &self.cfg.catalog;
        let site = self.cfg.site;
        let local = |&i: &ItemId| {
            catalog
                .item(i)
                .is_some_and(|s| s.copies.contains_key(&site))
        };
        for (k, item) in spec.writeset.items().filter(local).enumerate() {
            if !self.locks.acquire(txn, item, LockMode::Exclusive) {
                // Roll back the partial acquisition.
                for it in spec.writeset.items().filter(local).take(k) {
                    self.locks.release(&txn, &it);
                }
                return false;
            }
        }
        // The yes vote pins every local copy until the decision: the
        // pin-time clock starts here.
        for item in spec.writeset.items().filter(local) {
            self.cfg.emit(now, Some(txn), EventKind::PinStart { item });
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
    pub(crate) fn apply_actions(
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
                    if let LogRecord::PreCommit {
                        txn: pc_txn,
                        commit_version,
                    } = &rec
                    {
                        self.reads.raise_floor(*pc_txn, *commit_version);
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
                        | TimerKind::Paxos2bCollection { .. }
                        | TimerKind::ElectionAlive { .. }
                        | TimerKind::ElectionCoordinator { .. } => self.cfg.window_2t(),
                        TimerKind::CoordinatorWatch { .. } => self.cfg.watchdog_3t(),
                        TimerKind::BlockedRetry { .. } => self.cfg.blocked_retry(),
                        TimerKind::XVoteCollection { .. } => self.cfg.x_window(),
                    };
                    ctx.set_timer(span, NodeTimer::Proto(kind));
                }
                Action::RequestTermination { txn } => {
                    self.start_termination_election(ctx, txn);
                }
                Action::Elected { txn } => self.start_termination_round(ctx, txn),
                Action::DeclareBlocked { txn } => {
                    if let Some(st) = self.table.get_mut(txn) {
                        st.set_blocked(true);
                    }
                    if self.cfg.retry_blocked {
                        ctx.set_timer(
                            self.cfg.blocked_retry(),
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

    /// Runs `f` on `txn`'s live entry, if any, with a scratch action
    /// buffer, and applies what it emits.
    pub(crate) fn step(
        &mut self,
        ctx: &mut Ctx<'_, NetMsg, NodeTimer>,
        txn: TxnId,
        f: impl FnOnce(&mut TxnState, &Catalog, &mut Vec<Action>),
    ) {
        let mut actions = self.take_actions();
        if let Some(st) = self.table.get_mut(txn) {
            f(st, &self.cfg.catalog, &mut actions);
        }
        self.apply_actions(ctx, txn, self.cfg.site, actions);
    }

    /// Pops a spare engine-action scratch buffer (empty, capacity
    /// retained from earlier events) or allocates the pool's first.
    pub(crate) fn take_actions(&mut self) -> Vec<Action> {
        self.spare_actions.pop().unwrap_or_default()
    }

    /// Returns an emptied action buffer to the pool (bounded, so a
    /// one-off burst does not pin memory forever).
    pub(crate) fn recycle_actions(&mut self, buf: Vec<Action>) {
        debug_assert!(buf.is_empty());
        if buf.capacity() > 0 && self.spare_actions.len() < 4 {
            self.spare_actions.push(buf);
        }
    }

    /// Applies a decision now, or — while a gating record of its
    /// transaction is not durable yet — once it is: installing values,
    /// freeing locks and telling the front door wait for the force, like
    /// the messages announcing it. The `Decided` record of an
    /// irrevocable commit does not gate, so such a commit applies at its
    /// commit point and the record reaches the log in the next force.
    pub(crate) fn apply_when_durable(
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

    /// The one path that marks a live entry decided (recovery alone
    /// rebuilds entries with the decisions their logs hold, and queues
    /// no event for them): installs a commit's writes, schedules the
    /// retirement and records the transition for
    /// [`SiteNode::drain_decision_events`], once per transaction per
    /// site lifetime. An entry decided before is left alone; otherwise
    /// `txn`'s locks and watermark floor are released, entry or not.
    fn apply_decision(
        &mut self,
        now: Time,
        txn: TxnId,
        decision: Decision,
        commit_version: Option<Version>,
    ) {
        debug_assert!(
            self.closed_gate(Some(txn)).is_none(),
            "{txn:?} applied before irrevocable"
        );
        let mut applied = false;
        if let Some(st) = self.table.get_mut(txn) {
            if st.decided.is_some() {
                return;
            }
            applied = true;
            st.decided = Some(decision);
            st.decided_at = Some(now);
            st.set_blocked(false);
            if decision == Decision::Commit {
                let version = commit_version.expect("commit carries version");
                let spec = Arc::clone(&st.spec);
                for (&item, &value) in spec.writeset.updates.iter() {
                    if self.items.read(item).is_some() {
                        // Regression errors mean the update was already
                        // applied (recovery replay): idempotent.
                        if self.items.apply(item, version, value).is_ok() {
                            self.reads.note_installed(version);
                        }
                    }
                }
            }
            self.table.schedule_retire(now, txn);
            if self.cfg.decision_events {
                self.decision_events.push(DecisionEvent {
                    txn,
                    decision,
                    commit_version,
                });
            }
        }
        // Pin-time clocks stop with the release; the walk over held
        // locks is skipped entirely when no sink is wired.
        if self.cfg.obs.is_some() {
            for &item in self.locks.held_by(&txn) {
                self.cfg.emit(now, Some(txn), EventKind::PinEnd { item });
            }
        }
        self.locks.release_all(&txn);
        if applied {
            self.cfg
                .emit(now, Some(txn), EventKind::DecisionApplied { decision });
        }
        self.reads.release(txn, &mut self.items);
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
            self.recover(ctx);
        }
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, NetMsg, NodeTimer>, from: SiteId, msg: NetMsg) {
        let log = &self.log;
        self.table
            .retire_due(ctx.now(), |gate| log.closed(gate).is_some());
        self.handle_net(ctx, from, msg);
        self.pump(ctx);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, NetMsg, NodeTimer>, _id: TimerId, timer: NodeTimer) {
        let log = &self.log;
        self.table
            .retire_due(ctx.now(), |gate| log.closed(gate).is_some());
        match timer {
            NodeTimer::Proto(kind) => match kind {
                TimerKind::CoordinatorWatch { txn } => self.on_watchdog(ctx, txn),
                TimerKind::XVoteCollection { txn } => {
                    self.step_x(ctx, txn, |x, out| x.on_timer(kind, out));
                }
                TimerKind::BlockedRetry { txn } => self.start_termination_election(ctx, txn),
                TimerKind::VoteCollection { txn }
                | TimerKind::AckCollection { txn }
                | TimerKind::StateCollection { txn, .. }
                | TimerKind::TerminationAcks { txn, .. }
                | TimerKind::Paxos1bCollection { txn, .. }
                | TimerKind::Paxos2bCollection { txn, .. }
                | TimerKind::ElectionAlive { txn, .. }
                | TimerKind::ElectionCoordinator { txn, .. } => {
                    // Paxos round and election windows skip a decided
                    // entry: a leader stuck in `Proposing` after a
                    // higher-ballot candidate decided would re-broadcast
                    // forever, an elector elect for nothing. Only the
                    // commit coordinator's own windows decide a leader.
                    let undecided_only = matches!(
                        kind,
                        TimerKind::Paxos1bCollection { .. }
                            | TimerKind::Paxos2bCollection { .. }
                            | TimerKind::ElectionAlive { .. }
                            | TimerKind::ElectionCoordinator { .. }
                    );
                    self.step(ctx, txn, |st, catalog, out| {
                        if undecided_only && st.decided.is_some() {
                            return;
                        }
                        if let Some(l) = st.leader.as_mut() {
                            let ectx = EngineCtx {
                                catalog,
                                local_max_version: Version::INITIAL,
                            };
                            l.on_timer(kind, &ectx, out);
                        }
                        if let Some(t) = st.termination_mut() {
                            t.on_timer(kind, catalog, out);
                        }
                        if let Some(e) = st.elector_mut() {
                            e.on_timer(kind, out);
                        }
                    });
                }
            },
            NodeTimer::ReadTimeout { req_id } => {
                let (reads, mut site) = self.read_site(ctx);
                reads.on_timeout(&mut site, req_id);
            }
            NodeTimer::ReadRetire { req_id } => self.reads.retire(req_id),
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
        self.table.crash();
        self.decision_events.clear();
        self.reads.crash();
        self.locks = LockManager::new();
        self.local_queue.clear();
        // Checkpoint bookkeeping is volatile (timers from before the
        // crash never fire); recovery rebuilds it from the log.
        self.checkpoint_armed = false;
        self.last_checkpoint_end = Lsn(0);
        self.cfg.emit(now, None, EventKind::Crash);
    }

    fn on_recover(&mut self, ctx: &mut Ctx<'_, NetMsg, NodeTimer>) {
        self.recover(ctx);
    }
}

/// Canonical whole-site state hash for the model checker's visited-set.
///
/// Canonicalisation rules:
///
/// * hash-map tables are sorted by key first — their iteration order is
///   insertion history, not state;
/// * absolute timestamps are hashed *relative* to `now`, so states that
///   differ only by a clock translation merge; the log hashes its own
///   device, watermark and queue the same way
///   (`DurableLog::fingerprint_volatile`), and the transaction table
///   each entry's gate as its distance above the durable watermark
///   (`TxnTable::fingerprint`), which comes last;
/// * pure history is excluded: force counters and the spare-buffer
///   cache here, audit trails in the table — hashing any of it would
///   make every distinct path hash distinct and destroy the merging
///   that keeps exhaustive search tractable.
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
            // differing only there must not merge. The text is the
            // `Debug` of `Some(&[(Version, i64)])`, the form the model
            // checker's state counts were pinned with.
            let _ = write!(s, "i{item:?}=Some([");
            for (k, (v, val)) in self.items.versions(item).into_iter().flatten().enumerate() {
                let sep = if k == 0 { "" } else { ", " };
                let _ = write!(s, "{sep}({v:?}, {val:?})");
            }
            s.push_str("]);");
        }
        self.log.fingerprint_durable(&mut s);
        // Volatile half: pin table, violations, the local self-delivery
        // queue (empty between events) and the durability gate (device,
        // watermark, queue); then the read path's own fingerprint.
        let _ = write!(s, "|locks{:?}", self.locks.table_snapshot());
        let _ = write!(s, "|viol{:?}", self.violations);
        let _ = write!(s, "|lq{:?}", self.local_queue);
        self.log.fingerprint_volatile(now, &mut s);
        let _ = write!(
            s,
            "|ckpt{}@{:?}",
            self.checkpoint_armed, self.last_checkpoint_end
        );
        h.write(s.as_bytes());
        self.reads.fingerprint(now, h);
        self.table
            .fingerprint(now, h, |gate| self.log.above_watermark(gate));
    }
}

/// Convenience: builds one [`SiteNode`] per site over a shared catalog.
///
/// `sites` should cover every site appearing in the catalog (plus any
/// extra client-only sites). Initial values default to zero. The
/// catalog is copied once and every site shares that copy.
pub fn build_cluster(
    sites: impl IntoIterator<Item = SiteId>,
    catalog: &Catalog,
    t_bound: qbc_simnet::Duration,
    mut customize: impl FnMut(NodeConfig) -> NodeConfig,
) -> Vec<(SiteId, SiteNode)> {
    let catalog = Arc::new(catalog.clone());
    sites
        .into_iter()
        .map(|s| {
            let cfg = customize(NodeConfig::new(s, Arc::clone(&catalog), t_bound));
            (s, SiteNode::new(cfg, |_| 0))
        })
        .collect()
}
