//! What a site knows about each transaction, for as long as anyone may
//! ask.
//!
//! The paper's termination protocol asks every reachable site for its
//! local state, so a site keeps answering for a transaction long after
//! it decided. [`TxnTable`] owns that promise through three stages:
//!
//! * **live** — the transaction's entry ([`TxnState`]: spec, participant,
//!   leader and termination engines), a cross-shard coordination hosted here
//!   ([`XCoord`]) and the co-hosted Paxos acceptor, all driven by
//!   [`SiteNode`](crate::SiteNode);
//! * **retired** — [`NodeConfig::retire_after`] past the decision the
//!   live entries give way to a compact outcome that keeps answering
//!   stragglers: 32 bytes for a transaction, and for a coordination
//!   core's [`XRetiredOutcome`] — the very format the checkpoint record
//!   carries;
//! * **aged out** — [`NodeConfig::retire_horizon`] after retirement the
//!   outcome goes too, and a straggler gets silence.
//!
//! Every outcome lookup tries the live entry first, then the compact
//! one. The table also keeps what the log needs to know of its entries:
//! each entry's *gate* (the end LSN of the newest gating record staged
//! for the transaction) and every live transaction's first LSN, below
//! which a checkpoint may truncate. The checkpoint's outcome lists are written
//! by [`TxnTable::checkpoint_outcomes`] and read back by
//! [`TxnTable::install_checkpoint`], and by nothing else.

use crate::config::NodeConfig;
use qbc_core::{
    CommitEngine, Decision, LocalState, Msg, Participant, PaxosAcceptor, RetiredOutcome,
    Termination, TxnId, TxnSpec, XRetiredOutcome, XTxnCoordinator,
};
use qbc_election::Elector;
use qbc_simnet::{Duration, FastHasher, Fingerprint, SiteId, Time};
use qbc_storage::Lsn;
use qbc_votes::{FastMap, Version};
use std::collections::VecDeque;
use std::sync::Arc;

/// A decided transaction's `(decision, commit version)`: what a
/// straggler is told.
pub(crate) type Outcome = (Decision, Option<Version>);

/// Per-transaction state hosted at this site.
#[derive(Clone, Debug)]
pub(crate) struct TxnState {
    pub(crate) spec: Arc<TxnSpec>,
    pub(crate) participant: Participant,
    /// The engine driving the commit: a [`qbc_core::Coordinator`] at the
    /// submitting site, or under [`qbc_core::ProtocolKind::PaxosCommit`]
    /// a [`qbc_core::PaxosLeader`] — the ballot-0 leader there, or a
    /// recovery candidate at any participant whose watchdog fired. A
    /// later candidacy replaces an earlier engine; ballots only grow.
    /// It and the two termination engines below are boxed: at two of
    /// three sites every transaction is participant-only, and inline
    /// they were three quarters of the entry.
    pub(crate) leader: Option<Box<dyn CommitEngine>>,
    pub(crate) termination: Option<Box<Termination>>,
    pub(crate) elector: Option<Box<Elector>>,
    /// End LSN of the newest gating log record this site staged for the
    /// transaction ([`Lsn`]`(0)`: none) — every record but the `Decided`
    /// of a commit irrevocable before it. Whatever the transaction tells
    /// another site, applies or releases waits until the durable
    /// watermark reaches it.
    pub(crate) gate: Lsn,
    pub(crate) last_coord_contact: Time,
    pub(crate) watchdog_armed: bool,
    pub(crate) decided: Option<Decision>,
    pub(crate) decided_at: Option<Time>,
    /// Commit version adopted with an engine-less decision (a recovered
    /// copy-less branch coordinator learning `X-DECIDE` directly): the
    /// participant never saw a command, so the version must be kept
    /// here for retirement records and `Decided` re-announces.
    pub(crate) decided_version: Option<Version>,
    pub(crate) blocked: bool,
    pub(crate) termination_rounds: u64,
    pub(crate) started_at: Time,
    /// Coordinators of the sibling branches of a cross-shard
    /// transaction (from `X-BRANCH-REQ`). Outcome discovery asks them
    /// alongside the parent: any branch that learned the top-level
    /// decision can answer, so a crashed parent no longer blocks this
    /// shard until recovery. Volatile — a branch coordinator that
    /// crashes falls back to parent-only discovery.
    pub(crate) x_siblings: Vec<SiteId>,
}

impl TxnState {
    /// A fresh entry: no driving engine, undecided, nothing logged.
    pub(crate) fn new(spec: Arc<TxnSpec>, participant: Participant, now: Time) -> Self {
        TxnState {
            spec,
            participant,
            leader: None,
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
    pub(crate) fn commit_version(&self) -> Option<Version> {
        self.participant
            .commit_version()
            .or_else(|| self.leader.as_ref().and_then(|l| l.commit_version()))
            .or(self.decided_version)
    }

    /// This site's elector for the transaction, created on first use.
    pub(crate) fn elector(&mut self, site: SiteId) -> &mut Elector {
        let participants = &self.spec.participants;
        self.elector
            .get_or_insert_with(|| Box::new(Elector::new(site, participants.clone())))
    }
}

/// A cross-shard coordination hosted at this site, with the gate LSN of
/// the records staged for it (the same rule as [`TxnState::gate`]).
#[derive(Clone, Debug)]
pub(crate) struct XCoord {
    pub(crate) engine: XTxnCoordinator,
    pub(crate) gate: Lsn,
}

/// Compact outcome of a retired transaction: everything a straggler's
/// question can still need, without the engines, spec and audit trail
/// of a live [`TxnState`]. Not core's [`RetiredOutcome`], which repeats
/// the key and would grow every entry.
#[derive(Clone, Copy, Debug)]
struct RetiredTxn {
    decision: Decision,
    commit_version: Option<Version>,
    decided_at: Time,
}

/// Every transaction a site knows about, live or retired.
#[derive(Clone, Default)]
pub(crate) struct TxnTable {
    /// Per-transaction state. A (deterministic) hash map: the table
    /// grows with every transaction the site hosts and sits on every
    /// message's path; nothing iterates it in an order-sensitive way
    /// (accessors sort), so O(1) lookups are free determinism-wise.
    pub(crate) txns: FastMap<TxnId, TxnState>,
    /// Cross-shard (top-level 2PC) coordinations hosted at this site.
    pub(crate) xcoords: FastMap<TxnId, XCoord>,
    /// Paxos Commit acceptor state, one per transaction this site
    /// co-hosts an acceptor for (every participant site). Spec-free and
    /// keyed separately from `txns`: a recovering site re-installs it
    /// straight from its `PaxosPromise`/`PaxosAccept` records, and a
    /// candidate's 1a can be answered before the site ever saw the
    /// `VOTE-REQ`. Dropped at retirement alongside the `txns` entry.
    pub(crate) acceptors: FastMap<TxnId, PaxosAcceptor>,
    /// Compact outcomes of retired transactions.
    retired: FastMap<TxnId, RetiredTxn>,
    /// Compact outcomes of retired cross-shard coordinations.
    xretired: FastMap<TxnId, XRetiredOutcome>,
    /// Decisions awaiting retirement, in decision-time order (times are
    /// event times, hence monotonic — a plain queue, no heap needed).
    retire_queue: VecDeque<(Time, TxnId)>,
    /// Retired outcomes queued for aging out entirely; retirement-time
    /// order, so the sweep stops at the first young entry.
    age_queue: VecDeque<(Time, TxnId)>,
    /// First log record of every *live* transaction — the LSNs a
    /// checkpoint's truncation cutoff must stay below. Dropped at
    /// retirement (the checkpoint record then carries the outcome).
    first_lsn: FastMap<TxnId, Lsn>,
    retire_after: Option<Duration>,
    retire_horizon: Option<Duration>,
}

impl TxnTable {
    /// An empty table under `cfg`'s retirement policy.
    pub(crate) fn new(cfg: &NodeConfig) -> Self {
        TxnTable {
            retire_after: cfg.retire_after,
            retire_horizon: cfg.retire_horizon,
            ..TxnTable::default()
        }
    }

    // ---- outcomes: the live entry first, then the compact one ---------

    /// The decision reached for `txn`, if any.
    pub(crate) fn decision(&self, txn: TxnId) -> Option<Decision> {
        self.txns
            .get(&txn)
            .and_then(|t| t.decided)
            .or_else(|| self.retired.get(&txn).map(|r| r.decision))
    }

    /// When this site decided `txn`.
    pub(crate) fn decided_at(&self, txn: TxnId) -> Option<Time> {
        self.txns
            .get(&txn)
            .and_then(|t| t.decided_at)
            .or_else(|| self.retired.get(&txn).map(|r| r.decided_at))
    }

    /// The participant state of `txn`; a retired one is terminal.
    pub(crate) fn local_state(&self, txn: TxnId) -> Option<LocalState> {
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

    /// The commit version this site associates with `txn`'s decision.
    pub(crate) fn commit_version_of(&self, txn: TxnId) -> Option<Version> {
        self.txns
            .get(&txn)
            .and_then(|t| t.commit_version())
            .or_else(|| self.retired.get(&txn).and_then(|r| r.commit_version))
    }

    /// The top-level decision of a cross-shard transaction coordinated
    /// here.
    pub(crate) fn x_decision(&self, txn: TxnId) -> Option<Decision> {
        self.xcoords
            .get(&txn)
            .and_then(|x| x.engine.decision())
            .or_else(|| self.xretired.get(&txn).map(|x| x.decision))
    }

    /// The outcome of `txn` if its live entry has decided.
    pub(crate) fn decided_outcome(&self, txn: TxnId) -> Option<Outcome> {
        let st = self.txns.get(&txn)?;
        Some((st.decided?, st.commit_version()))
    }

    /// The outcome of `txn` if it is retired.
    pub(crate) fn retired_outcome(&self, txn: TxnId) -> Option<Outcome> {
        self.retired
            .get(&txn)
            .map(|r| (r.decision, r.commit_version))
    }

    /// True while a coordination of `txn` is live or retired here.
    pub(crate) fn x_known(&self, txn: TxnId) -> bool {
        self.xcoords.contains_key(&txn) || self.xretired.contains_key(&txn)
    }

    /// The `X-DECIDE` answering `to` about a cross-shard `txn` that has
    /// no live coordination here: a retired coordination's outcome with
    /// `to`'s branch version, or else — only when `cooperative`, for an
    /// `X-OUTCOME-REQ` — a decided branch's. A branch only ever decides
    /// with the top-level outcome (via the parent's `X-DECIDE`, or by
    /// aborting before voting yes, which forces a top-level abort), but
    /// cannot know the asker's *branch* commit version, so that answer
    /// carries none: the asker's engine keeps its own held version, and
    /// an engine-less asker falls back to its locally learned one.
    pub(crate) fn x_reply(&self, txn: TxnId, to: SiteId, cooperative: bool) -> Option<Msg> {
        if let Some(x) = self.xretired.get(&txn) {
            return Some(x.xdecide_for(to));
        }
        let decision = self.decision(txn).filter(|_| cooperative)?;
        Some(Msg::XDecide {
            txn,
            decision,
            commit_version: None,
        })
    }

    /// Number of retired transactions.
    pub(crate) fn retired_len(&self) -> usize {
        self.retired.len()
    }

    /// Number of retired cross-shard coordinations.
    pub(crate) fn xretired_len(&self) -> usize {
        self.xretired.len()
    }

    // ---- gates --------------------------------------------------------

    /// The end LSN of the newest gating record staged for `txn`
    /// (`Lsn(0)`: none): the larger of its entry's gate and, for a
    /// cross-shard parent hosted here, its coordination's.
    pub(crate) fn gate(&self, txn: TxnId) -> Lsn {
        let own = self.txns.get(&txn).map_or(Lsn(0), |st| st.gate);
        let x = self.xcoords.get(&txn).map_or(Lsn(0), |x| x.gate);
        own.max(x)
    }

    /// Remembers a just-staged gating record as the newest one of its
    /// transaction (LSNs only grow, so a plain store). A cross-shard
    /// parent and its local branch share one id; both entries take the
    /// gate, and [`TxnTable::gate`] reads the larger.
    pub(crate) fn raise_gate(&mut self, txn: TxnId, lsn: Lsn) {
        let gate = Lsn(lsn.0 + 1);
        let own = self.txns.get_mut(&txn).map(|st| st.gate = gate);
        let x = self.xcoords.get_mut(&txn).map(|x| x.gate = gate);
        debug_assert!(
            own.or(x).is_some(),
            "record staged for {txn:?}, which has no table entry to gate"
        );
    }

    // ---- retirement ---------------------------------------------------

    /// Queues a decided transaction (or cross-shard coordination) for
    /// retirement after the re-announce window. No-op without a
    /// configured [`NodeConfig::retire_after`].
    pub(crate) fn schedule_retire(&mut self, now: Time, txn: TxnId) {
        if self.retire_after.is_some() {
            self.retire_queue.push_back((now, txn));
        }
    }

    /// Retires everything decided longer than `retire_after` ago — the
    /// live entries give way to compact outcomes that keep answering
    /// stragglers — then ages out outcomes past the horizon. Runs at the
    /// top of every delivery; the queue is in decision-time order, so
    /// the scan stops at the first young entry. `gated(gate)` tells
    /// whether a gate is still above the durable watermark: an entry
    /// with a gating record still undurable stays one more round,
    /// because its gate lives in it and the compact outcome answers
    /// ungated. (An irrevocable commit's staged `Decided` gates nothing,
    /// so its outcome may be answered before that record is forced.)
    pub(crate) fn retire_due(&mut self, now: Time, gated: impl Fn(Lsn) -> bool) {
        let Some(after) = self.retire_after else {
            return;
        };
        while let Some(&(t, txn)) = self.retire_queue.front() {
            if now.since(t) < after || gated(self.gate(txn)) {
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
                    let branches = x
                        .branches()
                        .iter()
                        .zip(x.branch_versions())
                        .map(|(b, (_, v))| {
                            (b.coordinator, b.participants.iter().copied().collect(), v)
                        })
                        .collect();
                    self.xretired.insert(
                        txn,
                        XRetiredOutcome {
                            txn,
                            decision,
                            branches,
                        },
                    );
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
            if retired_any && self.retire_horizon.is_some() {
                self.age_queue.push_back((now, txn));
            }
        }
        self.age_out(now);
    }

    /// Ages retired outcomes out entirely once they have sat in the
    /// compact maps for [`NodeConfig::retire_horizon`]: the maps — and
    /// every checkpoint record serializing them — stay O(live +
    /// horizon) instead of O(history). A straggler asking after the
    /// horizon gets silence instead of the outcome, which is why the
    /// horizon must dwarf every retry window (see the config doc).
    fn age_out(&mut self, now: Time) {
        let Some(horizon) = self.retire_horizon else {
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

    // ---- the log's view -----------------------------------------------

    /// Notes a record of `txn` logged at `lsn`: the first one of a live
    /// transaction bounds the checkpoint's truncation.
    pub(crate) fn note_record(&mut self, txn: TxnId, lsn: Lsn) {
        self.first_lsn.entry(txn).or_insert(lsn);
    }

    /// The oldest first record of any live transaction or coordination:
    /// the log below it (and below the checkpoint) is dead. `None` when
    /// no live entry has a record.
    pub(crate) fn truncation_floor(&self) -> Option<Lsn> {
        self.txns
            .keys()
            .chain(self.xcoords.keys())
            .filter_map(|t| self.first_lsn.get(t))
            .min()
            .copied()
    }

    /// Forgets the first records of transactions recovery left without
    /// a live entry (retired or abandoned): they would pin the
    /// truncation cutoff forever.
    pub(crate) fn forget_dead_records(&mut self) {
        let (txns, xcoords) = (&self.txns, &self.xcoords);
        self.first_lsn
            .retain(|t, _| txns.contains_key(t) || xcoords.contains_key(t));
    }

    /// The retired outcomes a checkpoint record carries, sorted by
    /// transaction for a canonical on-disk encoding.
    pub(crate) fn checkpoint_outcomes(&self) -> (Vec<RetiredOutcome>, Vec<XRetiredOutcome>) {
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
        let mut xretired: Vec<XRetiredOutcome> = self.xretired.values().cloned().collect();
        xretired.sort_unstable_by_key(|x| x.txn);
        (retired, xretired)
    }

    /// Installs a recovered checkpoint's outcomes. Each re-enters the
    /// aging pipeline with a fresh clock: the recovered site grants
    /// stragglers a full horizon again rather than guessing how much had
    /// already elapsed.
    pub(crate) fn install_checkpoint(
        &mut self,
        now: Time,
        retired: &[RetiredOutcome],
        xretired: &[XRetiredOutcome],
    ) {
        let aging = self.retire_horizon.is_some();
        for o in retired {
            let entry = RetiredTxn {
                decision: o.decision,
                commit_version: o.commit_version,
                decided_at: now,
            };
            self.retired.insert(o.txn, entry);
            if aging {
                self.age_queue.push_back((now, o.txn));
            }
        }
        for o in xretired {
            if aging && !self.retired.contains_key(&o.txn) {
                self.age_queue.push_back((now, o.txn));
            }
            self.xretired.insert(o.txn, o.clone());
        }
    }

    /// The site crashed: every entry is volatile. Acceptor promises and
    /// accepts were force-logged, and the WAL (with its checkpoint) still
    /// holds every record the compact outcomes were distilled from, so
    /// recovery rebuilds them all.
    pub(crate) fn crash(&mut self) {
        self.txns.clear();
        self.xcoords.clear();
        self.acceptors.clear();
        self.retired.clear();
        self.xretired.clear();
        self.retire_queue.clear();
        self.age_queue.clear();
        self.first_lsn.clear();
    }

    /// The table's part of the site fingerprint. Every map is hashed in
    /// key order (iteration order is insertion history, not state);
    /// times are hashed relative to `now`, and each gate as
    /// `above_watermark(gate)` — its distance above the durable
    /// watermark, zero when open — so states that differ only by a clock
    /// or log-position translation merge. The participant's audit trail
    /// and `started_at` are history, not state, and are left out.
    pub(crate) fn fingerprint(
        &self,
        now: Time,
        h: &mut FastHasher,
        above_watermark: impl Fn(Lsn) -> u64,
    ) {
        use std::fmt::Write as _;
        use std::hash::Hasher as _;
        for id in sorted_keys(&self.txns) {
            let st = &self.txns[&id];
            let mut t = format!("t{id:?}");
            st.participant.fingerprint(now, h);
            if let Some(l) = &st.leader {
                l.fingerprint(now, h);
            }
            if let Some(term) = &st.termination {
                term.fingerprint(now, h);
            }
            if let Some(e) = &st.elector {
                e.fingerprint(now, h);
            }
            let _ = write!(
                t,
                "|{}{}{}{}|{}|{:?}|{:?}|{}|{}|{:?}|{}",
                st.leader.is_some() as u8,
                st.termination.is_some() as u8,
                st.elector.is_some() as u8,
                st.watchdog_armed as u8,
                now.since(st.last_coord_contact).0,
                st.decided,
                st.decided_version,
                st.blocked as u8,
                st.termination_rounds,
                st.x_siblings,
                above_watermark(st.gate),
            );
            h.write(t.as_bytes());
        }
        for id in sorted_keys(&self.xcoords) {
            let x = &self.xcoords[&id];
            h.write(format!("x{id:?}+{}", above_watermark(x.gate)).as_bytes());
            x.engine.fingerprint(now, h);
        }
        for id in sorted_keys(&self.acceptors) {
            h.write(format!("a{id:?}").as_bytes());
            self.acceptors[&id].fingerprint(now, h);
        }
        for id in sorted_keys(&self.retired) {
            let r = &self.retired[&id];
            let age = now.since(r.decided_at).0;
            h.write(format!("r{id:?}={:?},{:?},{age}", r.decision, r.commit_version).as_bytes());
        }
        for id in sorted_keys(&self.xretired) {
            let x = &self.xretired[&id];
            h.write(format!("xr{id:?}={:?},{:?}", x.decision, x.branches).as_bytes());
        }
        for (t, id) in &self.retire_queue {
            h.write(format!("rq{}:{id:?}", now.since(*t).0).as_bytes());
        }
        for id in sorted_keys(&self.first_lsn) {
            h.write(format!("fl{id:?}@{:?}", self.first_lsn[&id]).as_bytes());
        }
    }
}

/// A map's keys in ascending order.
fn sorted_keys<V>(map: &FastMap<TxnId, V>) -> Vec<TxnId> {
    let mut ids: Vec<TxnId> = map.keys().copied().collect();
    ids.sort_unstable();
    ids
}
