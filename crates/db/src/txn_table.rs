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
//!   stragglers, in the format the checkpoint record carries
//!   ([`RetiredOutcome`], [`XRetiredOutcome`]), kept in one
//!   [`Ring`] per kind sorted by transaction id;
//! * **aged out** — [`NodeConfig::retire_horizon`] after its own
//!   retirement the outcome is absent, and a straggler gets silence.
//!
//! A live entry is one [`TxnState`] of at most 128 B, boxed: its map
//! slot holds the id and the box, 16 B. The map runs 44–88 % full, and
//! the tombstones retirement leaves can halve that again; that slack
//! costs 16 B slots, not whole entries. What only termination and
//! cross-shard outcome discovery use sits in a second box
//! ([`Escalation`]) that most transactions never allocate. Callers
//! reach entries through [`TxnTable::get`] and its siblings; none of
//! them sees the map.
//!
//! Every outcome lookup tries the live entry first, then the ring. The
//! table also keeps what the log needs to know of its entries: each
//! entry's *gate* (the end LSN of the newest gating record staged for
//! the transaction), and it tells the log when the last engine that
//! logs for an id retires, which unpins that id's first record. The
//! checkpoint's outcome lists are written by
//! [`TxnTable::checkpoint_outcomes`] and read back by
//! [`TxnTable::install_checkpoint`], and by nothing else.

use crate::config::NodeConfig;
use crate::durable_log::DurableLog;
use crate::escalation::Escalation;
use crate::outcome_ring::Ring;
use qbc_core::election::Elector;
use qbc_core::{
    Action, CommitEngine, Decision, LocalState, Msg, Participant, PaxosAcceptor, RetiredOutcome,
    Termination, TxnId, TxnSpec, XRetiredOutcome, XTxnCoordinator,
};
use qbc_simnet::{Duration, FastHasher, Fingerprint, SiteId, Time};
use qbc_storage::Lsn;
use qbc_votes::{FastMap, Version};
use std::collections::VecDeque;
use std::mem::size_of;
use std::sync::Arc;

/// A decided transaction's `(decision, commit version)`: what a
/// straggler is told.
pub(crate) type Outcome = (Decision, Option<Version>);

/// What the table's map keeps per transaction: the entry lives behind
/// it, so an empty or tombstoned slot costs 16 B, not an entry.
type Entry = Box<TxnState>;

// A field that re-inflates the entry or the map slot fails the build.
const _: () = assert!(size_of::<TxnState>() <= 128, "TxnState outgrew 128 B");
const _: () = assert!(size_of::<Entry>() <= 16, "the map value outgrew 16 B");

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
    /// Boxed: at two of three sites every transaction is
    /// participant-only.
    pub(crate) leader: Option<Box<dyn CommitEngine>>,
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
    /// Created on first use: see [`TxnState::escalation_mut`]. Read
    /// through the accessors below, never directly.
    escalation: Option<Box<Escalation>>,
}

impl TxnState {
    /// A fresh entry: no driving engine, undecided, nothing logged.
    pub(crate) fn new(spec: Arc<TxnSpec>, participant: Participant, now: Time) -> Self {
        TxnState {
            spec,
            participant,
            leader: None,
            gate: Lsn(0),
            last_coord_contact: now,
            watchdog_armed: false,
            decided: None,
            decided_at: None,
            escalation: None,
        }
    }

    /// The escalation state, created on first use.
    pub(crate) fn escalation_mut(&mut self) -> &mut Escalation {
        self.escalation.get_or_insert_with(Box::default)
    }

    /// The termination engine, if a round runs here.
    pub(crate) fn termination_mut(&mut self) -> Option<&mut Termination> {
        self.escalation.as_mut()?.termination.as_deref_mut()
    }

    /// True once this site runs a termination engine for the transaction.
    pub(crate) fn terminating(&self) -> bool {
        self.escalation
            .as_ref()
            .is_some_and(|e| e.termination.is_some())
    }

    /// True while the transaction is declared blocked here.
    pub(crate) fn blocked(&self) -> bool {
        self.escalation.as_ref().is_some_and(|e| e.blocked)
    }

    /// Declares the transaction blocked here, or lifts it. Lifting never
    /// creates the escalation state.
    pub(crate) fn set_blocked(&mut self, blocked: bool) {
        if blocked {
            self.escalation_mut().blocked = true;
        } else if let Some(e) = self.escalation.as_deref_mut() {
            e.blocked = false;
        }
    }

    /// Termination rounds this site initiated.
    pub(crate) fn termination_rounds(&self) -> u64 {
        self.escalation.as_ref().map_or(0, |e| e.termination_rounds)
    }

    /// The sibling branch coordinators outcome discovery asks.
    pub(crate) fn x_siblings(&self) -> &[SiteId] {
        self.escalation.as_ref().map_or(&[], |e| &e.x_siblings)
    }

    /// The commit version to re-announce with this entry's decision,
    /// whichever role learned it.
    pub(crate) fn commit_version(&self) -> Option<Version> {
        self.participant
            .commit_version()
            .or_else(|| self.leader.as_ref().and_then(|l| l.commit_version()))
            .or_else(|| self.escalation.as_ref().and_then(|e| e.decided_version))
    }

    /// Feeds `m` to the participant at `site`. A coordinator without a
    /// copy is no participant: its own never votes, so it adopts the
    /// outcome a decided peer tells it, as it applies its leader's.
    pub(crate) fn participant_on_msg(
        &mut self,
        site: SiteId,
        from: SiteId,
        m: &Msg,
        local_max_version: Version,
        out: &mut Vec<Action>,
    ) {
        if self.spec.participants.contains(&site) {
            return self.participant.on_msg(from, m, local_max_version, out);
        }
        if let &Msg::Decided {
            decision,
            commit_version,
            ..
        } = m
        {
            if self.decided.is_none() && (decision == Decision::Abort || commit_version.is_some()) {
                self.escalation_mut().decided_version = commit_version;
                out.push(Action::ApplyAndDecide {
                    decision,
                    commit_version,
                });
            }
        }
    }

    /// This site's elector for the transaction, if an election ran here.
    pub(crate) fn elector_mut(&mut self) -> Option<&mut Elector> {
        self.escalation.as_mut()?.elector.as_deref_mut()
    }

    /// This site's elector for the transaction, created on first use.
    pub(crate) fn elector(&mut self, site: SiteId) -> &mut Elector {
        let spec = &self.spec;
        let escalation = self.escalation.get_or_insert_with(Box::default);
        escalation
            .elector
            .get_or_insert_with(|| Box::new(Elector::new(site, Arc::clone(spec))))
    }
}

/// A cross-shard coordination hosted at this site, with the gate LSN of
/// the records staged for it (the same rule as [`TxnState::gate`]).
#[derive(Clone, Debug)]
pub(crate) struct XCoord {
    pub(crate) engine: XTxnCoordinator,
    pub(crate) gate: Lsn,
}

/// Every transaction a site knows about, live or retired.
#[derive(Clone, Default)]
pub(crate) struct TxnTable {
    /// Live per-transaction entries, reached through [`TxnTable::get`]
    /// and its siblings. A (deterministic) hash map: the table grows
    /// with every transaction the site hosts and sits on every
    /// message's path; nothing iterates it in an order-sensitive way
    /// ([`TxnTable::ids`] sorts), so O(1) lookups are free
    /// determinism-wise.
    txns: FastMap<TxnId, Entry>,
    /// Cross-shard (top-level 2PC) coordinations hosted at this site.
    pub(crate) xcoords: FastMap<TxnId, XCoord>,
    /// Paxos Commit acceptor state, one per transaction this site
    /// co-hosts an acceptor for (every participant site). Spec-free and
    /// keyed separately from `txns`: a recovering site re-installs it
    /// straight from its `PaxosPromise`/`PaxosAccept` records, and a
    /// candidate's 1a can be answered before the site ever saw the
    /// `VOTE-REQ`. Dropped at retirement alongside the `txns` entry.
    pub(crate) acceptors: FastMap<TxnId, PaxosAcceptor>,
    /// Outcomes of retired transactions.
    retired: Ring<RetiredOutcome>,
    /// Outcomes of retired cross-shard coordinations.
    xretired: Ring<XRetiredOutcome>,
    /// Decisions awaiting retirement, in decision-time order (times are
    /// event times, hence monotonic — a plain queue, no heap needed).
    retire_queue: VecDeque<(Time, TxnId)>,
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

    // ---- live entries -------------------------------------------------

    /// `txn`'s live entry.
    pub(crate) fn get(&self, txn: TxnId) -> Option<&TxnState> {
        self.txns.get(&txn).map(|st| &**st)
    }

    /// `txn`'s live entry, mutably.
    pub(crate) fn get_mut(&mut self, txn: TxnId) -> Option<&mut TxnState> {
        self.txns.get_mut(&txn).map(|st| &mut **st)
    }

    /// True while `txn` has a live entry.
    pub(crate) fn contains(&self, txn: TxnId) -> bool {
        self.txns.contains_key(&txn)
    }

    /// True while an engine that logs for `txn` is live: entry, coordination or acceptor.
    pub(crate) fn logs_for(&self, txn: TxnId) -> bool {
        self.txns.contains_key(&txn)
            || self.xcoords.contains_key(&txn)
            || self.acceptors.contains_key(&txn)
    }

    /// Makes `st` the live entry of `txn`, replacing any.
    pub(crate) fn insert(&mut self, txn: TxnId, st: TxnState) {
        self.txns.insert(txn, Box::new(st));
    }

    /// `txn`'s live entry, made by `make` if there is none.
    pub(crate) fn get_or_insert_with(
        &mut self,
        txn: TxnId,
        make: impl FnOnce() -> TxnState,
    ) -> &mut TxnState {
        self.txns.entry(txn).or_insert_with(|| Box::new(make()))
    }

    /// Makes `engine` the live coordination of `txn`, nothing staged.
    pub(crate) fn insert_x(&mut self, txn: TxnId, engine: XTxnCoordinator) {
        let gate = Lsn(0);
        self.xcoords.insert(txn, XCoord { engine, gate });
    }

    /// Number of live entries.
    pub(crate) fn len(&self) -> usize {
        self.txns.len()
    }

    /// The ids of the live entries, ascending.
    pub(crate) fn ids(&self) -> Vec<TxnId> {
        sorted_keys(&self.txns)
    }

    // ---- outcomes: the live entry first, then the ring ----------------

    /// The decision reached for `txn`, if any.
    pub(crate) fn decision(&self, txn: TxnId) -> Option<Decision> {
        self.txns
            .get(&txn)
            .and_then(|t| t.decided)
            .or_else(|| self.retired.get(txn).map(|r| r.outcome.decision))
    }

    /// When this site decided `txn`.
    pub(crate) fn decided_at(&self, txn: TxnId) -> Option<Time> {
        self.txns
            .get(&txn)
            .and_then(|t| t.decided_at)
            .or_else(|| self.retired.get(txn).map(|r| r.decided_at))
    }

    /// The participant state of `txn`; a retired one is terminal.
    pub(crate) fn local_state(&self, txn: TxnId) -> Option<LocalState> {
        self.txns
            .get(&txn)
            .map(|t| t.participant.state())
            .or_else(|| {
                self.retired.get(txn).map(|r| match r.outcome.decision {
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
            .or_else(|| self.retired.get(txn).and_then(|r| r.outcome.commit_version))
    }

    /// The top-level decision of a cross-shard transaction coordinated
    /// here.
    pub(crate) fn x_decision(&self, txn: TxnId) -> Option<Decision> {
        self.xcoords
            .get(&txn)
            .and_then(|x| x.engine.decision())
            .or_else(|| self.xretired.get(txn).map(|x| x.outcome.decision))
    }

    /// The outcome of `txn`: its live entry's decision, else its
    /// retired one.
    pub(crate) fn outcome(&self, txn: TxnId) -> Option<Outcome> {
        self.txns
            .get(&txn)
            .and_then(|st| st.decided.map(|d| (d, st.commit_version())))
            .or_else(|| self.retired_outcome(txn))
    }

    /// The outcome of `txn` if it is retired.
    pub(crate) fn retired_outcome(&self, txn: TxnId) -> Option<Outcome> {
        self.retired
            .get(txn)
            .map(|r| (r.outcome.decision, r.outcome.commit_version))
    }

    /// True while a coordination of `txn` is live or retired here.
    pub(crate) fn x_known(&self, txn: TxnId) -> bool {
        self.xcoords.contains_key(&txn) || self.xretired.get(txn).is_some()
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
        if let Some(x) = self.xretired.get(txn) {
            return Some(x.outcome.xdecide_for(to));
        }
        let decision = self.decision(txn).filter(|_| cooperative)?;
        Some(Msg::XDecide {
            txn,
            decision,
            commit_version: None,
        })
    }

    /// Number of retired transactions (a walk of the ring).
    pub(crate) fn retired_len(&self) -> usize {
        self.retired.live().count()
    }

    /// Number of retired cross-shard coordinations (a walk of the ring).
    pub(crate) fn xretired_len(&self) -> usize {
        self.xretired.live().count()
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
    /// stragglers — then ages out outcomes retired a horizon ago. Runs
    /// at the top of every delivery; the queue is in decision-time
    /// order, so the scan stops at the first young entry. An entry whose
    /// gate `log` still holds closed stays one more round, because its
    /// gate lives in it and the compact outcome answers ungated. (An
    /// irrevocable commit's staged `Decided` gates nothing, so its
    /// outcome may be answered before that record is forced.) An id
    /// left with no engine that logs is unpinned in `log`.
    pub(crate) fn retire_due(&mut self, now: Time, log: &mut DurableLog) {
        let Some(after) = self.retire_after else {
            return;
        };
        while let Some(&(t, txn)) = self.retire_queue.front() {
            if now.since(t) < after || log.closed(self.gate(txn)).is_some() {
                break;
            }
            self.retire_queue.pop_front();
            if let Some(st) = self.txns.get(&txn) {
                if let (Some(decision), Some(decided_at)) = (st.decided, st.decided_at) {
                    let outcome = RetiredOutcome {
                        txn,
                        decision,
                        commit_version: st.commit_version(),
                    };
                    self.retired.insert(outcome, decided_at, now);
                    self.txns.remove(&txn);
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
                    let outcome = XRetiredOutcome {
                        txn,
                        decision,
                        branches,
                    };
                    self.xretired.insert(outcome, now, now);
                    self.xcoords.remove(&txn);
                }
            }
            // The acceptor's promise/accept state is only needed while
            // recovery candidates may still ask; a retired outcome
            // answers them directly.
            if !self.txns.contains_key(&txn) {
                self.acceptors.remove(&txn);
            }
            // Fully retired: the next checkpoint carries the outcome.
            if !self.logs_for(txn) {
                log.unpin(txn);
            }
        }
        // Aging: from this sweep on, an outcome retired a horizon ago is
        // absent, so the rings — and every checkpoint record serializing
        // them — stay O(live + horizon) instead of O(history). A
        // straggler asking after the horizon gets silence instead of the
        // outcome, which is why the horizon must dwarf every retry
        // window (see the config doc).
        if let Some(cutoff) = self.retire_horizon.and_then(|h| now.0.checked_sub(h.0)) {
            self.retired.age(Time(cutoff));
            self.xretired.age(Time(cutoff));
        }
    }

    // ---- checkpoints --------------------------------------------------

    /// The retired outcomes a checkpoint record carries, in the rings'
    /// transaction order — a canonical on-disk encoding.
    pub(crate) fn checkpoint_outcomes(&self) -> (Vec<RetiredOutcome>, Vec<XRetiredOutcome>) {
        let retired = self.retired.live().map(|r| r.outcome).collect();
        let xretired = self.xretired.live().map(|x| x.outcome.clone()).collect();
        (retired, xretired)
    }

    /// Installs a recovered checkpoint's outcomes, already in
    /// transaction order. Each retires afresh: the recovered site grants
    /// stragglers a full horizon again rather than guessing how much had
    /// already elapsed.
    pub(crate) fn install_checkpoint(
        &mut self,
        now: Time,
        retired: &[RetiredOutcome],
        xretired: &[XRetiredOutcome],
    ) {
        for &o in retired {
            self.retired.insert(o, now, now);
        }
        for o in xretired {
            self.xretired.insert(o.clone(), now, now);
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
        self.retired = Ring::default();
        self.xretired = Ring::default();
        self.retire_queue.clear();
    }

    /// The table's part of the site fingerprint. Every map and ring is
    /// hashed in id order (a map's iteration order is history, not
    /// state); times are hashed relative to `now`, and each gate as
    /// `above_watermark(gate)` — its distance above the durable
    /// watermark, zero when open — so states that differ only by a clock
    /// or log-position translation merge. The participant's audit trail
    /// and retirement times are history, not state, and are left out.
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
            let esc = st.escalation.as_deref();
            let termination = esc.and_then(|e| e.termination.as_deref());
            let elector = esc.and_then(|e| e.elector.as_deref());
            let mut t = format!("t{id:?}");
            st.participant.fingerprint(now, h);
            if let Some(l) = &st.leader {
                l.fingerprint(now, h);
            }
            if let Some(term) = termination {
                term.fingerprint(now, h);
            }
            if let Some(e) = elector {
                e.fingerprint(now, h);
            }
            let _ = write!(
                t,
                "|{}{}{}{}|{}|{:?}|{:?}|{}|{}|{:?}|{}",
                st.leader.is_some() as u8,
                termination.is_some() as u8,
                elector.is_some() as u8,
                st.watchdog_armed as u8,
                now.since(st.last_coord_contact).0,
                st.decided,
                esc.and_then(|e| e.decided_version),
                st.blocked() as u8,
                st.termination_rounds(),
                st.x_siblings(),
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
        for r in self.retired.live() {
            let (o, age) = (&r.outcome, now.since(r.decided_at).0);
            let (id, d, v) = (o.txn, o.decision, o.commit_version);
            h.write(format!("r{id:?}={d:?},{v:?},{age}").as_bytes());
        }
        for x in self.xretired.live().map(|x| &x.outcome) {
            h.write(format!("xr{:?}={:?},{:?}", x.txn, x.decision, x.branches).as_bytes());
        }
        for (t, id) in &self.retire_queue {
            h.write(format!("rq{}:{id:?}", now.since(*t).0).as_bytes());
        }
    }
}

/// A map's keys in ascending order.
fn sorted_keys<V>(map: &FastMap<TxnId, V>) -> Vec<TxnId> {
    let mut ids: Vec<TxnId> = map.keys().copied().collect();
    ids.sort_unstable();
    ids
}

#[cfg(test)]
mod tests {
    use super::*;
    use qbc_core::{ParticipantConfig, ProtocolKind, TimerKind, WriteSet};
    use qbc_votes::{CatalogBuilder, ItemId};
    use std::collections::BTreeMap;

    const SITES: [SiteId; 3] = [SiteId(0), SiteId(1), SiteId(2)];

    /// A table under the retirement policy, and an empty log for its
    /// sweeps: every gate open, nothing pinned.
    fn table(after: u64, horizon: u64) -> (TxnTable, DurableLog) {
        let catalog = CatalogBuilder::new()
            .item(ItemId(0))
            .copies_at(SITES)
            .majority()
            .build()
            .unwrap();
        let cfg = NodeConfig::new(SiteId(0), catalog, Duration(10))
            .with_retirement(Duration(after))
            .with_retire_horizon(Duration(horizon));
        (TxnTable::new(&cfg), DurableLog::open(&cfg))
    }

    /// A branch spec of `txn` coordinated here, with this site as parent.
    fn spec(txn: TxnId) -> Arc<TxnSpec> {
        Arc::new(TxnSpec {
            id: txn,
            coordinator: SiteId(0),
            writeset: WriteSet::new([(ItemId(0), 1)]),
            participants: SITES.into_iter().collect(),
            protocol: ProtocolKind::QuorumCommit2,
            parent: Some(SiteId(0)),
        })
    }

    /// Adds a live, undecided entry for `txn`.
    fn begin(t: &mut TxnTable, txn: TxnId, now: Time) {
        let participant = Participant::new(SiteId(0), txn, ParticipantConfig::default());
        t.insert(txn, TxnState::new(spec(txn), participant, now));
    }

    /// Decides `txn`'s live entry at `now` and queues it for retirement.
    fn decide(t: &mut TxnTable, txn: TxnId, outcome: Outcome, decided_at: Time, now: Time) {
        if !t.contains(txn) {
            begin(t, txn, decided_at);
        }
        let st = t.get_mut(txn).unwrap();
        (st.decided, st.decided_at) = (Some(outcome.0), Some(decided_at));
        st.escalation_mut().decided_version = outcome.1;
        t.schedule_retire(now, txn);
    }

    /// Hosts a coordination of `txn` decided at `now` and queues it for
    /// retirement.
    fn decide_x(t: &mut TxnTable, txn: TxnId, commit: bool, now: Time) {
        let mut engine = XTxnCoordinator::new(txn, vec![spec(txn)]);
        let out = &mut Vec::new();
        if commit {
            let vote = Msg::XVote {
                txn,
                yes: true,
                commit_version: Some(Version(txn.0)),
            };
            engine.on_msg(SiteId(0), &vote, out);
        } else {
            engine.on_timer(TimerKind::XVoteCollection { txn }, out);
        }
        t.xcoords.insert(
            txn,
            XCoord {
                engine,
                gate: Lsn(0),
            },
        );
        t.schedule_retire(now, txn);
    }

    #[test]
    fn a_branch_retired_after_its_coordination_keeps_its_own_horizon() {
        let (after, horizon) = (5, 40);
        let (mut t, mut log) = table(after, horizon);
        let txn = TxnId(7);
        // The parent site hosts the coordination and the local branch,
        // which is still undecided when the coordination retires.
        begin(&mut t, txn, Time(0));
        decide_x(&mut t, txn, false, Time(0));
        t.retire_due(Time(after), &mut log);
        assert!(t.x_known(txn));
        assert_eq!(t.retired_len(), 0);
        // The branch learns the abort later and retires a sweep later.
        let branch_retired = 20 + after;
        decide(&mut t, txn, (Decision::Abort, None), Time(20), Time(20));
        t.retire_due(Time(branch_retired), &mut log);
        assert_eq!(t.retired_len(), 1);
        // One horizon after the coordination retired, it is gone; the
        // branch outcome has sat a shorter time and still answers.
        t.retire_due(Time(after + horizon), &mut log);
        assert!(!t.x_known(txn));
        assert_eq!(t.xretired_len(), 0);
        assert_eq!(t.decision(txn), Some(Decision::Abort));
        t.retire_due(Time(branch_retired + horizon - 1), &mut log);
        assert_eq!(t.retired_outcome(txn), Some((Decision::Abort, None)));
        t.retire_due(Time(branch_retired + horizon), &mut log);
        assert_eq!(t.decision(txn), None);
        assert_eq!(t.retired_len(), 0);
    }

    /// splitmix64: a fixed-seed source for the model test.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }
    }

    /// The live-entry accessors against a `BTreeMap` reference. Entries
    /// are made (`get_or_insert_with`), replaced (`insert`) and marked
    /// through `get_mut` in random id order; decided ones retire, which
    /// removes them out of id order; and the site crashes now and then.
    /// Each entry's mark is the time in its `last_coord_contact`.
    #[test]
    fn live_entries_match_a_btreemap_reference() {
        for seed in 0..8 {
            let mut rng = Rng(seed);
            let (mut t, mut log) = table(0, 1 << 40);
            let mut live: BTreeMap<TxnId, u64> = BTreeMap::new();
            for step in 0..2_000 {
                let txn = TxnId(rng.below(48));
                let now = Time(step);
                match rng.below(20) {
                    0..=5 => {
                        let st = t.get_or_insert_with(txn, || {
                            let p = Participant::new(SiteId(0), txn, ParticipantConfig::default());
                            TxnState::new(spec(txn), p, now)
                        });
                        let mark = *live.entry(txn).or_insert(step);
                        assert_eq!(st.last_coord_contact, Time(mark), "{txn:?}");
                    }
                    6..=7 => {
                        begin(&mut t, txn, now);
                        live.insert(txn, step);
                    }
                    8..=10 => {
                        if let Some(st) = t.get_mut(txn) {
                            st.last_coord_contact = now;
                        }
                        if let Some(mark) = live.get_mut(&txn) {
                            *mark = step;
                        }
                    }
                    11..=18 => {
                        if live.remove(&txn).is_some() {
                            decide(&mut t, txn, (Decision::Abort, None), now, now);
                            t.retire_due(now, &mut log);
                            assert_eq!(t.retired_outcome(txn), Some((Decision::Abort, None)));
                        }
                    }
                    _ => {
                        t.crash();
                        live.clear();
                    }
                }
                assert_eq!(t.len(), live.len());
                assert_eq!(t.ids(), live.keys().copied().collect::<Vec<_>>());
                for id in (0..48).map(TxnId) {
                    assert_eq!(t.contains(id), live.contains_key(&id), "{id:?}");
                    let mark = t.get(id).map(|st| st.last_coord_contact);
                    assert_eq!(mark, live.get(&id).map(|&m| Time(m)), "{id:?}");
                }
            }
        }
    }

    /// The reference: every retired outcome with its retirement time,
    /// and the time of the last sweep. An outcome is visible while less
    /// than the horizon has passed between its retirement and that
    /// sweep.
    #[derive(Clone, Default)]
    struct Model {
        plain: BTreeMap<TxnId, (Outcome, Time, Time)>,
        x: BTreeMap<TxnId, (XRetiredOutcome, Time)>,
        sweep: Time,
    }

    impl Model {
        fn visible(&self, retired: Time, horizon: u64) -> bool {
            self.sweep.since(retired) < Duration(horizon)
        }

        fn plain(&self, txn: TxnId, horizon: u64) -> Option<(Outcome, Time)> {
            let &(outcome, decided_at, retired) = self.plain.get(&txn)?;
            self.visible(retired, horizon)
                .then_some((outcome, decided_at))
        }

        fn x(&self, txn: TxnId, horizon: u64) -> Option<&XRetiredOutcome> {
            let (x, retired) = self.x.get(&txn)?;
            self.visible(*retired, horizon).then_some(x)
        }

        fn checkpoint(&self, horizon: u64) -> (Vec<RetiredOutcome>, Vec<XRetiredOutcome>) {
            let plain = self.plain.iter().filter(|e| self.visible(e.1 .2, horizon));
            let x = self.x.values().filter(|e| self.visible(e.1, horizon));
            (
                plain
                    .map(|(&txn, &((decision, commit_version), ..))| RetiredOutcome {
                        txn,
                        decision,
                        commit_version,
                    })
                    .collect(),
                x.map(|(x, _)| x.clone()).collect(),
            )
        }
    }

    /// Every outcome answer of `t` for `txn` against the model's.
    fn check(t: &TxnTable, m: &Model, txn: TxnId, horizon: u64) {
        let plain = m.plain(txn, horizon);
        let x = m.x(txn, horizon);
        assert_eq!(t.decision(txn), plain.map(|p| p.0 .0), "{txn:?}");
        assert_eq!(t.decided_at(txn), plain.map(|p| p.1), "{txn:?}");
        assert_eq!(t.retired_outcome(txn), plain.map(|p| p.0), "{txn:?}");
        assert_eq!(t.x_known(txn), x.is_some(), "{txn:?}");
        for to in SITES {
            let want = x.map(|x| x.xdecide_for(to));
            assert_eq!(t.x_reply(txn, to, false), want, "{txn:?}");
            let want = want.or_else(|| {
                plain.map(|((decision, _), _)| Msg::XDecide {
                    txn,
                    decision,
                    commit_version: None,
                })
            });
            assert_eq!(t.x_reply(txn, to, true), want, "{txn:?}");
        }
    }

    /// Random retirements far out of id order, lookups below and above
    /// the newest id, time steps across the horizon, checkpoints and
    /// crashes that reinstall the last one, checked against [`Model`]
    /// after every step. Ids ≡ 3 (mod 5) are cross-shard coordinations,
    /// the rest plain transactions.
    #[test]
    fn outcome_answers_match_a_model_with_exact_aging() {
        const HORIZON: u64 = 60;
        const WINDOW: u64 = 100;
        for seed in 0..8 {
            let mut rng = Rng(seed);
            let (mut t, mut log) = table(0, HORIZON);
            let mut m = Model::default();
            let mut ck = (Vec::new(), Vec::new());
            let mut pending: Vec<u64> = (1..=WINDOW).collect();
            let mut next = WINDOW + 1;
            let mut now = 0;
            for _ in 0..3_000 {
                match rng.below(20) {
                    0..=9 => {
                        // Retire a few decided transactions, each one a
                        // random pick from the next `WINDOW` ids.
                        for _ in 0..=rng.below(4) {
                            let k = rng.below(pending.len() as u64) as usize;
                            let id = pending.swap_remove(k);
                            pending.push(next);
                            next += 1;
                            let txn = TxnId(id);
                            let commit = rng.below(3) > 0;
                            if id % 5 == 3 {
                                decide_x(&mut t, txn, commit, Time(now));
                                let x = XRetiredOutcome {
                                    txn,
                                    decision: [Decision::Abort, Decision::Commit][commit as usize],
                                    branches: vec![(
                                        SiteId(0),
                                        SITES.to_vec(),
                                        commit.then_some(Version(id)),
                                    )],
                                };
                                m.x.insert(txn, (x, Time(now)));
                            } else {
                                let outcome = match commit {
                                    true => (Decision::Commit, Some(Version(rng.below(1_000)))),
                                    false => (Decision::Abort, None),
                                };
                                let at = Time(now.saturating_sub(rng.below(3)));
                                decide(&mut t, txn, outcome, at, Time(now));
                                m.plain.insert(txn, (outcome, at, Time(now)));
                            }
                        }
                        t.retire_due(Time(now), &mut log);
                        assert!(t.len() == 0 && t.xcoords.is_empty());
                        m.sweep = Time(now);
                    }
                    10..=14 => {
                        now += rng.below(HORIZON / 3);
                        t.retire_due(Time(now), &mut log);
                        m.sweep = Time(now);
                    }
                    15..=17 => {
                        ck = t.checkpoint_outcomes();
                        assert_eq!(ck, m.checkpoint(HORIZON));
                    }
                    18 => {
                        t.crash();
                        t.install_checkpoint(Time(now), &ck.0, &ck.1);
                        m.plain =
                            ck.0.iter()
                                .map(|o| {
                                    (
                                        o.txn,
                                        ((o.decision, o.commit_version), Time(now), Time(now)),
                                    )
                                })
                                .collect();
                        m.x =
                            ck.1.iter()
                                .map(|x| (x.txn, (x.clone(), Time(now))))
                                .collect();
                    }
                    _ => {}
                }
                for _ in 0..8 {
                    check(&t, &m, TxnId(rng.below(next + 150)), HORIZON);
                }
                let (plain, x) = m.checkpoint(HORIZON);
                assert_eq!(t.retired_len(), plain.len());
                assert_eq!(t.xretired_len(), x.len());
            }
        }
    }
}
