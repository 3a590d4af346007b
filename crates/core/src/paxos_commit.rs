//! Gray & Lamport's Paxos Commit (*Consensus on Transaction Commit*).
//!
//! One Paxos consensus instance per participant's vote, with the 2F+1
//! acceptors co-located on the participant sites and the transaction
//! coordinator acting as the initial leader (ballot 0). This engine
//! batches the instances: every Phase-2a/2b/1a/1b message carries the
//! full vote vector, so the batch behaves like single-decree Paxos over
//! the composite value — the same safety argument, one message per
//! acceptor per phase.
//!
//! The normal case (leader = coordinator, ballot 0):
//!
//! 1. `VOTE-REQ` fan-out exactly as in the other engines; participants
//!    vote with the shared [`Msg::Vote`] path.
//! 2. All yes → the leader broadcasts `PAXOS-2A` with the vote vector.
//!    Any no vote, or the vote window expiring, short-circuits to
//!    presumed abort (safe: no 2a was ever sent, so no recovery
//!    candidate can choose *prepared*).
//! 3. Each acceptor force-logs [`LogRecord::PaxosAccept`] and echoes
//!    `PAXOS-2B`. The leader never force-logs the votes itself — F+1
//!    acceptor records *are* the decision's durability.
//! 4. F+1 distinct 2b echoes at the leader's ballot → decided: commit
//!    iff every instance chose *prepared*, version = max reported + 1.
//!
//! Leader failover replaces the quorum-paper termination protocol for
//! this engine: a participant whose watchdog fires becomes a recovery
//! candidate at a ballot > 0 unique to it ([`recovery_ballot`]), runs
//! Phase 1a/1b over the acceptors, adopts the highest-ballot accepted
//! batch any quorum member reports (presumed abort when none does), and
//! **must** drive that batch through a full Phase 2 at its own ballot
//! before deciding — deciding straight off an empty Phase 1 would leave
//! the outcome invisible to the next candidate's quorum, which is
//! exactly the split the model checker's seeded `weaken_paxos` mutation
//! demonstrates.

use crate::actions::{Action, TimerKind};
use crate::commit_engine::{apply_at_copyless_coordinator, push_decision, CommitEngine, EngineCtx};
use crate::log::LogRecord;
use crate::messages::Msg;
use crate::types::{Decision, TxnId, TxnSpec};
use qbc_simnet::SiteId;
use qbc_votes::Version;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// One instance's proposed/accepted value: `(participant whose vote
/// this instance decides, prepared?, reported max version)`.
pub type PaxosVotes = Vec<(SiteId, bool, Version)>;

/// Leader/candidate progress.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PaxosPhase {
    /// Ballot-0 leader collecting participant votes.
    SolicitingVotes,
    /// Recovery candidate collecting Phase-1b promises.
    Recovering,
    /// Phase-2a broadcast out, collecting 2b acceptances.
    Proposing,
    /// Branch of a cross-shard transaction at its commit point (all
    /// votes yes): held for the parent's decision, Paxos rounds never
    /// start — the parent is the outcome authority, as for 2PC.
    Held,
    /// Decision reached and commanded.
    Decided(Decision),
}

/// The Paxos Commit leader (ballot 0) / recovery candidate (ballot > 0)
/// engine for one transaction.
#[derive(Clone, Debug)]
pub struct PaxosLeader {
    spec: Arc<TxnSpec>,
    bal: u64,
    phase: PaxosPhase,
    /// Participant votes collected at ballot 0.
    votes: BTreeMap<SiteId, (bool, Version)>,
    /// Phase-1b promises collected (candidates only): reporter →
    /// accepted `(instance, ballot, prepared, version)` entries.
    onebs: BTreeMap<SiteId, Vec<(SiteId, u64, bool, Version)>>,
    /// Acceptors that echoed 2b at this engine's ballot.
    twobs: BTreeSet<SiteId>,
    /// The Phase-2a batch this engine proposed.
    proposal: Option<PaxosVotes>,
    commit_version: Option<Version>,
    /// Seeded mutation for checker validation: accept one 2b less than
    /// the F+1 majority. Never set outside tests — it lets a decision
    /// rest on a quorum a recovery candidate's Phase-1 quorum need not
    /// intersect, and the model checker exists to prove it would
    /// notice.
    weaken: bool,
}

impl PaxosLeader {
    /// The ballot-0 leader at the transaction coordinator.
    pub fn new(spec: Arc<TxnSpec>) -> Self {
        PaxosLeader {
            spec,
            bal: 0,
            phase: PaxosPhase::SolicitingVotes,
            votes: BTreeMap::new(),
            onebs: BTreeMap::new(),
            twobs: BTreeSet::new(),
            proposal: None,
            commit_version: None,
            weaken: false,
        }
    }

    /// A recovery candidate at ballot `bal` (> 0), created at a
    /// participant site whose coordinator watchdog fired.
    pub fn recover(spec: Arc<TxnSpec>, bal: u64) -> Self {
        debug_assert!(bal > 0, "recovery ballots are positive");
        PaxosLeader {
            spec,
            bal,
            phase: PaxosPhase::Recovering,
            votes: BTreeMap::new(),
            onebs: BTreeMap::new(),
            twobs: BTreeSet::new(),
            proposal: None,
            commit_version: None,
            weaken: false,
        }
    }

    /// Installs the seeded acceptor-quorum mutation (see the field
    /// doc). Test-only by convention; the model-check suite proves it
    /// is caught.
    pub fn with_weakened_quorum(mut self) -> Self {
        self.weaken = true;
        self
    }

    /// Current phase.
    pub fn phase(&self) -> PaxosPhase {
        self.phase
    }

    /// The commit version, once the decision batch is fixed.
    pub fn commit_version(&self) -> Option<Version> {
        self.commit_version
    }

    fn everyone(&self) -> Vec<SiteId> {
        self.spec.participants.iter().copied().collect()
    }

    /// F+1 of the 2F+1 co-located acceptors (`weaken` shaves one off —
    /// the seeded bug).
    fn majority(&self) -> usize {
        let m = self.spec.participants.len() / 2 + 1;
        m - usize::from(self.weaken)
    }

    /// Kicks off ballot 0 (vote solicitation) or a recovery ballot
    /// (Phase 1a). Actions are appended to the caller's scratch buffer
    /// (as everywhere on this engine: no per-event allocation in steady
    /// state).
    pub fn start(&mut self, out: &mut Vec<Action>) {
        match self.phase {
            PaxosPhase::SolicitingVotes => {
                // Broadcast first: no recovery presumes anything from
                // the start record (see `Coordinator::start`).
                out.push(Action::Broadcast(
                    self.everyone(),
                    Msg::VoteReq {
                        spec: Arc::clone(&self.spec),
                    },
                ));
                out.push(Action::Log(LogRecord::CoordinatorStart {
                    spec: Arc::clone(&self.spec),
                }));
                out.push(Action::SetTimer(TimerKind::VoteCollection {
                    txn: self.spec.id,
                }));
            }
            PaxosPhase::Recovering => {
                out.push(Action::Broadcast(
                    self.everyone(),
                    Msg::PaxosP1a {
                        txn: self.spec.id,
                        bal: self.bal,
                        spec: Arc::clone(&self.spec),
                    },
                ));
                out.push(Action::SetTimer(TimerKind::Paxos1bCollection {
                    txn: self.spec.id,
                    bal: self.bal,
                }));
            }
            _ => {}
        }
    }

    /// Handles a participant vote (ballot-0 leaders only).
    pub(crate) fn on_vote(
        &mut self,
        from: SiteId,
        yes: bool,
        max_version: Version,
        out: &mut Vec<Action>,
    ) {
        match self.phase {
            PaxosPhase::SolicitingVotes => {}
            PaxosPhase::Decided(d) => {
                out.push(self.decision_reply(d));
                return;
            }
            _ => return,
        }
        if !self.spec.participants.contains(&from) {
            return;
        }
        self.votes.insert(from, (yes, max_version));
        if !yes {
            // Presumed abort: no 2a has left this site, so no recovery
            // candidate can ever choose *prepared* — aborting without a
            // Paxos round is safe (a branch reports the no upward too).
            self.abort_unilaterally(out);
            return;
        }
        if self.votes.len() == self.spec.participants.len() {
            if self.spec.is_branch() {
                // All yes at a branch: durable yes votes are the
                // prepared state (hierarchical 2PC); hold for the
                // parent instead of starting Paxos rounds.
                let v = self.max_reported().next();
                self.commit_version = Some(v);
                self.hold_and_vote_yes(out);
                return;
            }
            let batch: PaxosVotes = self
                .votes
                .iter()
                .map(|(&s, &(yes, v))| (s, yes, v))
                .collect();
            self.propose(batch, out);
        }
    }

    fn max_reported(&self) -> Version {
        self.votes
            .values()
            .map(|&(_, v)| v)
            .max()
            .unwrap_or(Version::INITIAL)
    }

    /// Broadcasts the Phase-2a batch at this engine's ballot.
    fn propose(&mut self, batch: PaxosVotes, out: &mut Vec<Action>) {
        self.phase = PaxosPhase::Proposing;
        self.twobs.clear();
        self.proposal = Some(batch.clone());
        out.push(Action::Broadcast(
            self.everyone(),
            Msg::PaxosP2a {
                txn: self.spec.id,
                bal: self.bal,
                votes: batch,
            },
        ));
        out.push(Action::SetTimer(TimerKind::Paxos2bCollection {
            txn: self.spec.id,
            bal: self.bal,
        }));
    }

    /// Handles a Phase-1b promise (recovery candidates only).
    pub(crate) fn on_p1b(
        &mut self,
        from: SiteId,
        bal: u64,
        accepted: &[(SiteId, u64, bool, Version)],
        out: &mut Vec<Action>,
    ) {
        match self.phase {
            PaxosPhase::Recovering => {}
            PaxosPhase::Decided(d) => {
                out.push(self.decision_reply(d));
                return;
            }
            _ => return,
        }
        if bal != self.bal || !self.spec.participants.contains(&from) {
            return;
        }
        self.onebs.insert(from, accepted.to_vec());
        if self.onebs.len() < self.majority() {
            return;
        }
        // A promise quorum is in: per instance, adopt the value with
        // the highest accepted ballot any reporter carries; an instance
        // no quorum member reports gets presumed abort. The batch must
        // still survive Phase 2 at this ballot before the decision is
        // spoken.
        let batch: PaxosVotes = self
            .spec
            .participants
            .iter()
            .map(|&inst| {
                let best = self
                    .onebs
                    .values()
                    .flatten()
                    .filter(|&&(i, _, _, _)| i == inst)
                    .max_by_key(|&&(_, b, _, _)| b);
                match best {
                    Some(&(_, _, prepared, v)) => (inst, prepared, v),
                    None => (inst, false, Version::INITIAL),
                }
            })
            .collect();
        self.propose(batch, out);
    }

    /// Handles a Phase-2b acceptance echo.
    pub(crate) fn on_p2b(&mut self, from: SiteId, bal: u64, out: &mut Vec<Action>) {
        match self.phase {
            PaxosPhase::Proposing => {}
            PaxosPhase::Decided(d) => {
                out.push(self.decision_reply(d));
                return;
            }
            _ => return,
        }
        if bal != self.bal || !self.spec.participants.contains(&from) {
            return;
        }
        self.twobs.insert(from);
        if self.twobs.len() < self.majority() {
            return;
        }
        // Chosen: the proposed batch is durable at F+1 acceptors.
        // Commit exactly when every instance chose *prepared*.
        let batch = self.proposal.as_ref().expect("proposing implies batch");
        if batch.iter().all(|&(_, prepared, _)| prepared) {
            let v = batch
                .iter()
                .map(|&(_, _, v)| v)
                .max()
                .unwrap_or(Version::INITIAL)
                .next();
            self.commit_version = Some(v);
            self.decide(Decision::Commit, out);
        } else {
            self.decide(Decision::Abort, out);
        }
    }

    /// Vote-collection window expired (ballot-0 leaders only): missing
    /// votes are presumed aborts — safe for the same reason a no vote
    /// is (no 2a out yet).
    pub(crate) fn on_vote_timer(&mut self, out: &mut Vec<Action>) {
        if self.phase != PaxosPhase::SolicitingVotes {
            return;
        }
        self.abort_unilaterally(out);
    }

    /// Phase-1b collection window expired: re-broadcast the 1a (lost
    /// promises; the acceptors re-answer idempotently).
    pub(crate) fn on_1b_timer(&mut self, bal: u64, out: &mut Vec<Action>) {
        if self.phase != PaxosPhase::Recovering || bal != self.bal {
            return;
        }
        out.push(Action::Broadcast(
            self.everyone(),
            Msg::PaxosP1a {
                txn: self.spec.id,
                bal: self.bal,
                spec: Arc::clone(&self.spec),
            },
        ));
        out.push(Action::SetTimer(TimerKind::Paxos1bCollection {
            txn: self.spec.id,
            bal: self.bal,
        }));
    }

    /// Phase-2b collection window expired: re-broadcast the 2a.
    pub(crate) fn on_2b_timer(&mut self, bal: u64, out: &mut Vec<Action>) {
        if self.phase != PaxosPhase::Proposing || bal != self.bal {
            return;
        }
        let batch = self.proposal.clone().expect("proposing implies batch");
        out.push(Action::Broadcast(
            self.everyone(),
            Msg::PaxosP2a {
                txn: self.spec.id,
                bal: self.bal,
                votes: batch,
            },
        ));
        out.push(Action::SetTimer(TimerKind::Paxos2bCollection {
            txn: self.spec.id,
            bal: self.bal,
        }));
    }

    /// The cross-shard decision arrived (branches only).
    pub(crate) fn on_x_decide(
        &mut self,
        decision: Decision,
        commit_version: Option<Version>,
        out: &mut Vec<Action>,
    ) {
        debug_assert!(self.spec.is_branch(), "X-DECIDE at a non-branch engine");
        match self.phase {
            PaxosPhase::Decided(_) => {}
            _ => {
                if decision == Decision::Commit && commit_version.is_some() {
                    self.commit_version = commit_version;
                }
                self.decide(decision, out);
            }
        }
    }

    /// Another engine (a higher-ballot candidate, or a decided
    /// straggler's re-announcement) already terminated the transaction:
    /// adopt the outcome without re-commanding anyone. A ballot-0 leader
    /// at a coordinator without a copy still applies it here.
    pub(crate) fn adopt_decision(
        &mut self,
        decision: Decision,
        commit_version: Option<Version>,
        out: &mut Vec<Action>,
    ) {
        if matches!(self.phase, PaxosPhase::Decided(_)) {
            return;
        }
        if commit_version.is_some() {
            self.commit_version = commit_version;
        }
        self.phase = PaxosPhase::Decided(decision);
        if self.bal == 0 {
            apply_at_copyless_coordinator(&self.spec, decision, self.commit_version, out);
        }
    }

    fn hold_and_vote_yes(&mut self, out: &mut Vec<Action>) {
        let parent = self.spec.parent.expect("held only for branches");
        self.phase = PaxosPhase::Held;
        out.push(Action::Send(
            parent,
            Msg::XVote {
                txn: self.spec.id,
                yes: true,
                commit_version: self.commit_version,
            },
        ));
    }

    fn abort_unilaterally(&mut self, out: &mut Vec<Action>) {
        self.phase = PaxosPhase::Decided(Decision::Abort);
        push_decision(&self.spec, Decision::Abort, None, true, self.bal == 0, out);
    }

    fn decision_reply(&self, d: Decision) -> Action {
        match d {
            Decision::Commit => Action::Reply(Msg::Commit {
                txn: self.spec.id,
                commit_version: self.commit_version.expect("decided commit has version"),
            }),
            Decision::Abort => Action::Reply(Msg::Abort { txn: self.spec.id }),
        }
    }

    /// Force-log the decision, then command every participant.
    fn decide(&mut self, decision: Decision, out: &mut Vec<Action>) {
        self.phase = PaxosPhase::Decided(decision);
        let at_coordinator = self.bal == 0;
        push_decision(
            &self.spec,
            decision,
            self.commit_version,
            false,
            at_coordinator,
            out,
        );
    }
}

/// The Paxos Commit recovery ballot for a candidate site's `round`-th
/// takeover attempt.
///
/// Paxos leader failover needs no election at all — any number of
/// candidates may run Phase 1 concurrently and safety holds — but every
/// candidate must use a ballot that is (a) strictly greater than 0 (the
/// original coordinator's ballot) and (b) distinct from every other
/// candidate's, or two candidates could split one ballot's acceptances.
/// Packing the per-site retry round into the high bits and the site id
/// (+1, so round 1 of site 0 stays above ballot 0) into the low 16 bits
/// gives both properties, and later rounds dominate earlier ones at
/// every site.
pub fn recovery_ballot(round: u64, site: SiteId) -> u64 {
    debug_assert!(round > 0, "recovery rounds start at 1");
    (round << 16) | (u64::from(site.0) + 1)
}

/// Vec-returning wrappers so protocol unit tests keep their original
/// collect-and-assert shape without threading scratch buffers through.
#[cfg(test)]
impl PaxosLeader {
    fn start_v(&mut self) -> Vec<Action> {
        let mut out = Vec::new();
        self.start(&mut out);
        out
    }
    fn on_vote_v(&mut self, from: SiteId, yes: bool, max_version: Version) -> Vec<Action> {
        let mut out = Vec::new();
        self.on_vote(from, yes, max_version, &mut out);
        out
    }
    fn on_p1b_v(
        &mut self,
        from: SiteId,
        bal: u64,
        accepted: &[(SiteId, u64, bool, Version)],
    ) -> Vec<Action> {
        let mut out = Vec::new();
        self.on_p1b(from, bal, accepted, &mut out);
        out
    }
    fn on_p2b_v(&mut self, from: SiteId, bal: u64) -> Vec<Action> {
        let mut out = Vec::new();
        self.on_p2b(from, bal, &mut out);
        out
    }
    fn on_vote_timer_v(&mut self) -> Vec<Action> {
        let mut out = Vec::new();
        self.on_vote_timer(&mut out);
        out
    }
    fn on_1b_timer_v(&mut self, bal: u64) -> Vec<Action> {
        let mut out = Vec::new();
        self.on_1b_timer(bal, &mut out);
        out
    }
    fn on_2b_timer_v(&mut self, bal: u64) -> Vec<Action> {
        let mut out = Vec::new();
        self.on_2b_timer(bal, &mut out);
        out
    }
    fn on_x_decide_v(
        &mut self,
        decision: Decision,
        commit_version: Option<Version>,
    ) -> Vec<Action> {
        let mut out = Vec::new();
        self.on_x_decide(decision, commit_version, &mut out);
        out
    }
}

/// Canonical state hash for the model checker's visited-set. The spec
/// is excluded (fixed per transaction id, hashed at node level).
impl qbc_simnet::Fingerprint for PaxosLeader {
    fn fingerprint(&self, _now: qbc_simnet::Time, h: &mut qbc_simnet::FastHasher) {
        use std::hash::Hasher;
        h.write(
            format!(
                "{:?}|{}|{:?}|{:?}|{:?}|{:?}|{:?}",
                self.phase,
                self.bal,
                self.votes,
                self.onebs,
                self.twobs,
                self.proposal,
                self.commit_version
            )
            .as_bytes(),
        );
    }
}

impl CommitEngine for PaxosLeader {
    fn start(&mut self, out: &mut Vec<Action>) {
        PaxosLeader::start(self, out)
    }

    fn on_msg(&mut self, from: SiteId, msg: &Msg, _ctx: &EngineCtx<'_>, out: &mut Vec<Action>) {
        match msg {
            Msg::Vote {
                yes, max_version, ..
            } => self.on_vote(from, *yes, *max_version, out),
            Msg::PaxosP1b { bal, accepted, .. } => self.on_p1b(from, *bal, accepted, out),
            Msg::PaxosP2b { bal, .. } => self.on_p2b(from, *bal, out),
            Msg::XDecide {
                decision,
                commit_version,
                ..
            } => self.on_x_decide(*decision, *commit_version, out),
            // A straggler's answer (or a higher-ballot candidate's
            // announcement) ends this leader's rounds quietly.
            Msg::Decided {
                decision,
                commit_version,
                ..
            } => self.adopt_decision(*decision, *commit_version, out),
            _ => {}
        }
    }

    fn on_timer(&mut self, kind: TimerKind, _ctx: &EngineCtx<'_>, out: &mut Vec<Action>) {
        match kind {
            TimerKind::VoteCollection { .. } => self.on_vote_timer(out),
            TimerKind::Paxos1bCollection { bal, .. } => self.on_1b_timer(bal, out),
            TimerKind::Paxos2bCollection { bal, .. } => self.on_2b_timer(bal, out),
            _ => {}
        }
    }

    fn decision(&self) -> Option<Decision> {
        match self.phase {
            PaxosPhase::Decided(d) => Some(d),
            _ => None,
        }
    }

    fn commit_version(&self) -> Option<Version> {
        PaxosLeader::commit_version(self)
    }

    fn clone_box(&self) -> Box<dyn CommitEngine> {
        Box::new(self.clone())
    }
}

/// The Paxos Commit acceptor state for one transaction at one site —
/// spec-free (keyed by transaction id at the node), so a recovering
/// site can re-install it straight from the log without ever having
/// seen the `VOTE-REQ`.
#[derive(Clone, Debug, Default)]
pub struct PaxosAcceptor {
    /// Highest ballot promised; 1a/2a below it are ignored.
    promised: u64,
    /// The accepted batch with the highest ballot, if any.
    accepted: Option<(u64, PaxosVotes)>,
}

impl PaxosAcceptor {
    /// A fresh acceptor (promised nothing, accepted nothing).
    pub fn new() -> Self {
        PaxosAcceptor::default()
    }

    /// Re-applies one of this acceptor's own durable records after a
    /// crash, in log order on a fresh acceptor, so a recovering site
    /// never breaks a promise an earlier incarnation made. The promise
    /// is the highest ballot of any promise or accept (accepting at `b`
    /// implies promising `b`); the accepted batch is the one at the
    /// highest ballot, the later record winning a tie.
    pub fn redo(&mut self, rec: &LogRecord) {
        match rec {
            LogRecord::PaxosPromise { bal, .. } => self.promised = self.promised.max(*bal),
            LogRecord::PaxosAccept { bal, votes, .. } => {
                self.promised = self.promised.max(*bal);
                if self.accepted.as_ref().is_none_or(|(b, _)| *bal >= *b) {
                    self.accepted = Some((*bal, votes.clone()));
                }
            }
            _ => {}
        }
    }

    /// Highest ballot promised.
    pub fn promised(&self) -> u64 {
        self.promised
    }

    /// The highest-ballot accepted batch, if any.
    pub fn accepted(&self) -> Option<&(u64, PaxosVotes)> {
        self.accepted.as_ref()
    }

    /// Feeds one message: a candidate's Phase-1a or a leader's Phase-2a,
    /// each answered with a [`Action::Reply`]; appends the effects to
    /// `out`. Messages for other roles are ignored.
    pub fn on_msg(&mut self, _from: SiteId, msg: &Msg, out: &mut Vec<Action>) {
        match msg {
            Msg::PaxosP1a { txn, bal, .. } => self.on_p1a(*txn, *bal, out),
            Msg::PaxosP2a { txn, bal, votes } => self.on_p2a(*txn, *bal, votes, out),
            _ => {}
        }
    }

    /// Phase 1a: promise `bal` (idempotent re-answer at the promised
    /// ballot, so candidate re-broadcasts stay live), force-logging the
    /// promise before it leaves the site.
    fn on_p1a(&mut self, txn: TxnId, bal: u64, out: &mut Vec<Action>) {
        if bal < self.promised {
            return;
        }
        // Only a *raised* promise needs a new force-log: a re-answer at
        // the already-promised ballot is covered by the record written
        // when that promise was first made (or replayed from it), so a
        // re-broadcasting candidate cannot grow the WAL unboundedly.
        let raised = bal > self.promised;
        self.promised = bal;
        let accepted = match &self.accepted {
            Some((b, votes)) => votes.iter().map(|&(s, p, v)| (s, *b, p, v)).collect(),
            None => Vec::new(),
        };
        if raised {
            out.push(Action::Log(LogRecord::PaxosPromise { txn, bal }));
        }
        out.push(Action::Reply(Msg::PaxosP1b { txn, bal, accepted }));
    }

    /// Phase 2a: accept the batch at `bal` unless a higher ballot was
    /// promised, force-logging the acceptance before the 2b echo.
    /// Public beside [`PaxosAcceptor::on_msg`]: the per-layer benchmark
    /// (`benchmark/src/layers.rs`) drives an acceptor through it.
    pub fn on_p2a(
        &mut self,
        txn: TxnId,
        bal: u64,
        votes: &[(SiteId, bool, Version)],
        out: &mut Vec<Action>,
    ) {
        if bal < self.promised {
            return;
        }
        self.promised = bal;
        self.accepted = Some((bal, votes.to_vec()));
        out.push(Action::Log(LogRecord::PaxosAccept {
            txn,
            bal,
            votes: votes.to_vec(),
        }));
        out.push(Action::Reply(Msg::PaxosP2b {
            txn,
            bal,
            votes: votes.to_vec(),
        }));
    }
}

/// Vec-returning wrappers mirroring the leader's test shims.
#[cfg(test)]
impl PaxosAcceptor {
    fn on_p1a_v(&mut self, txn: TxnId, bal: u64) -> Vec<Action> {
        let mut out = Vec::new();
        self.on_p1a(txn, bal, &mut out);
        out
    }
    fn on_p2a_v(&mut self, txn: TxnId, bal: u64, votes: &[(SiteId, bool, Version)]) -> Vec<Action> {
        let mut out = Vec::new();
        self.on_p2a(txn, bal, votes, &mut out);
        out
    }
}

/// Canonical state hash for the model checker's visited-set.
impl qbc_simnet::Fingerprint for PaxosAcceptor {
    fn fingerprint(&self, _now: qbc_simnet::Time, h: &mut qbc_simnet::FastHasher) {
        use std::hash::Hasher;
        h.write(format!("{}|{:?}", self.promised, self.accepted).as_bytes());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{ProtocolKind, WriteSet};
    use qbc_votes::ItemId;

    const S0: SiteId = SiteId(0);
    const S1: SiteId = SiteId(1);
    const S2: SiteId = SiteId(2);

    fn spec() -> Arc<TxnSpec> {
        Arc::new(TxnSpec {
            id: TxnId(1),
            coordinator: S0,
            writeset: WriteSet::new([(ItemId(0), 7)]),
            participants: [S0, S1, S2].into(),
            protocol: ProtocolKind::PaxosCommit,
            parent: None,
        })
    }

    fn all_yes(l: &mut PaxosLeader) -> Vec<Action> {
        let mut last = Vec::new();
        for s in [S0, S1, S2] {
            last = l.on_vote_v(s, true, Version(0));
        }
        last
    }

    #[test]
    fn happy_path_commits_at_acceptor_majority() {
        let mut l = PaxosLeader::new(spec());
        let start = l.start_v();
        // The requests lead: no recovery reads the start record.
        assert!(matches!(
            start[0],
            Action::Broadcast(_, Msg::VoteReq { .. })
        ));
        assert!(matches!(
            start[1],
            Action::Log(LogRecord::CoordinatorStart { .. })
        ));
        // All yes → the 2a batch goes out, nothing is decided yet.
        let actions = all_yes(&mut l);
        assert!(matches!(
            actions[0],
            Action::Broadcast(_, Msg::PaxosP2a { bal: 0, .. })
        ));
        assert_eq!(l.phase(), PaxosPhase::Proposing);
        // One 2b is short of F+1 = 2.
        assert!(l.on_p2b_v(S0, 0).is_empty());
        let actions = l.on_p2b_v(S1, 0);
        assert!(matches!(
            actions[0],
            Action::Log(LogRecord::Decided {
                decision: Decision::Commit,
                ..
            })
        ));
        assert!(matches!(
            actions[1],
            Action::Broadcast(_, Msg::Commit { .. })
        ));
        assert_eq!(l.phase(), PaxosPhase::Decided(Decision::Commit));
        assert_eq!(l.commit_version(), Some(Version(1)));
    }

    #[test]
    fn any_no_vote_aborts_without_a_paxos_round() {
        let mut l = PaxosLeader::new(spec());
        l.start_v();
        l.on_vote_v(S0, true, Version(0));
        let actions = l.on_vote_v(S1, false, Version(0));
        assert!(matches!(
            actions[1],
            Action::Broadcast(_, Msg::Abort { .. })
        ));
        assert_eq!(l.phase(), PaxosPhase::Decided(Decision::Abort));
    }

    #[test]
    fn vote_timeout_presumes_abort() {
        let mut l = PaxosLeader::new(spec());
        l.start_v();
        l.on_vote_v(S0, true, Version(0));
        let actions = l.on_vote_timer_v();
        assert!(matches!(
            actions[1],
            Action::Broadcast(_, Msg::Abort { .. })
        ));
    }

    #[test]
    fn commit_version_is_max_reported_plus_one() {
        let mut l = PaxosLeader::new(spec());
        l.start_v();
        l.on_vote_v(S0, true, Version(4));
        l.on_vote_v(S1, true, Version(9));
        l.on_vote_v(S2, true, Version(2));
        l.on_p2b_v(S1, 0);
        l.on_p2b_v(S2, 0);
        assert_eq!(l.commit_version(), Some(Version(10)));
    }

    #[test]
    fn recovery_ballots_are_positive_and_unique() {
        let sites = [SiteId(0), SiteId(1), SiteId(7), SiteId(65000)];
        let mut seen = BTreeSet::new();
        for round in 1..=3u64 {
            for s in sites {
                let b = recovery_ballot(round, s);
                assert!(b > 0, "every recovery ballot beats the leader's 0");
                assert!(seen.insert(b), "ballot {b} duplicated");
            }
        }
        // Later rounds dominate earlier ones at every site.
        assert!(recovery_ballot(2, SiteId(0)) > recovery_ballot(1, SiteId(65000)));
    }

    /// `on_msg` routes a 1a and a 2a exactly as the per-phase methods
    /// do, and ignores every other role's message.
    #[test]
    fn acceptor_on_msg_routes_1a_and_2a_and_ignores_the_rest() {
        let (txn, votes) = (TxnId(1), vec![(S1, true, Version(3))]);
        let (mut direct, mut via) = (PaxosAcceptor::new(), PaxosAcceptor::new());
        let mut out = Vec::new();
        let p2a = Msg::PaxosP2a {
            txn,
            bal: 2,
            votes: votes.clone(),
        };
        via.on_msg(S0, &p2a, &mut out);
        assert_eq!(out, direct.on_p2a_v(txn, 2, &votes));
        out.clear();
        let p1a = Msg::PaxosP1a {
            txn,
            bal: 4,
            spec: spec(),
        };
        via.on_msg(S2, &p1a, &mut out);
        assert_eq!(out, direct.on_p1a_v(txn, 4));
        out.clear();
        for other in [Msg::Abort { txn }, Msg::PaxosP2b { txn, bal: 9, votes }] {
            via.on_msg(S0, &other, &mut out);
        }
        assert!(out.is_empty(), "{out:?}");
        assert_eq!((via.promised(), via.accepted()), (4, direct.accepted()));
    }

    #[test]
    fn acceptor_logs_before_echoing_2b() {
        let mut a = PaxosAcceptor::new();
        let votes = vec![(S0, true, Version(0)), (S1, true, Version(3))];
        let out = a.on_p2a_v(TxnId(1), 0, &votes);
        assert!(matches!(out[0], Action::Log(LogRecord::PaxosAccept { .. })));
        assert!(matches!(
            out[1],
            Action::Reply(Msg::PaxosP2b { bal: 0, .. })
        ));
    }

    #[test]
    fn acceptor_rejects_below_promise() {
        let mut a = PaxosAcceptor::new();
        a.on_p1a_v(TxnId(1), 5);
        assert!(a.on_p2a_v(TxnId(1), 0, &[]).is_empty(), "2a below promise");
        assert!(a.on_p1a_v(TxnId(1), 4).is_empty(), "1a below promise");
        // Idempotent re-answer at the promised ballot keeps candidate
        // re-broadcasts live — but without a fresh force-log, so a
        // re-broadcast loop cannot grow the WAL.
        let again = a.on_p1a_v(TxnId(1), 5);
        assert_eq!(again.len(), 1);
        assert!(matches!(
            again[0],
            Action::Reply(Msg::PaxosP1b { bal: 5, .. })
        ));
    }

    #[test]
    fn recovery_adopts_accepted_value_and_reruns_phase2() {
        // Leader proposed all-prepared at ballot 0, S1 accepted, leader
        // crashed. Candidate at ballot 7 must adopt and re-propose.
        let mut acc = PaxosAcceptor::new();
        let votes = vec![
            (S0, true, Version(0)),
            (S1, true, Version(0)),
            (S2, true, Version(0)),
        ];
        acc.on_p2a_v(TxnId(1), 0, &votes);
        let mut c = PaxosLeader::recover(spec(), 7);
        let start = c.start_v();
        assert!(matches!(
            start[0],
            Action::Broadcast(_, Msg::PaxosP1a { bal: 7, .. })
        ));
        // S1 reports its acceptance; S2 reports nothing.
        let p1b = acc.on_p1a_v(TxnId(1), 7);
        let Action::Reply(Msg::PaxosP1b { accepted, .. }) = &p1b[1] else {
            panic!("expected 1b reply, got {p1b:?}");
        };
        assert!(c.on_p1b_v(S2, 7, &[]).is_empty(), "one promise is not F+1");
        let actions = c.on_p1b_v(S1, 7, accepted);
        // The adopted batch goes through Phase 2 at ballot 7 — no
        // direct decision off the promises.
        let Action::Broadcast(
            _,
            Msg::PaxosP2a {
                bal: 7,
                votes: batch,
                ..
            },
        ) = &actions[0]
        else {
            panic!("expected 2a re-proposal, got {actions:?}");
        };
        assert!(
            batch.iter().all(|&(_, p, _)| p),
            "adopted batch is prepared"
        );
        // Majority 2b at ballot 7 → the original outcome (commit).
        c.on_p2b_v(S1, 7);
        let done = c.on_p2b_v(S2, 7);
        assert!(matches!(
            done[0],
            Action::Log(LogRecord::Decided {
                decision: Decision::Commit,
                ..
            })
        ));
    }

    #[test]
    fn recovery_with_nothing_accepted_presumes_abort_via_phase2() {
        let mut c = PaxosLeader::recover(spec(), 3);
        c.start_v();
        c.on_p1b_v(S1, 3, &[]);
        let actions = c.on_p1b_v(S2, 3, &[]);
        let Action::Broadcast(_, Msg::PaxosP2a { votes: batch, .. }) = &actions[0] else {
            panic!("expected 2a, got {actions:?}");
        };
        assert!(
            batch.iter().all(|&(_, p, _)| !p),
            "unreported instances are presumed aborts"
        );
        // The abort still needs a chosen Phase 2 before it is spoken.
        assert_eq!(c.phase(), PaxosPhase::Proposing);
        c.on_p2b_v(S1, 3);
        let done = c.on_p2b_v(S2, 3);
        assert!(matches!(
            done[0],
            Action::Log(LogRecord::Decided {
                decision: Decision::Abort,
                ..
            })
        ));
    }

    #[test]
    fn stale_ballot_echoes_are_ignored() {
        let mut c = PaxosLeader::recover(spec(), 7);
        c.start_v();
        c.on_p1b_v(S1, 7, &[]);
        c.on_p1b_v(S2, 7, &[]);
        assert!(c.on_p2b_v(S1, 0).is_empty(), "2b from ballot 0 is stale");
        assert!(
            c.on_p1b_v(S0, 3, &[]).is_empty(),
            "1b from ballot 3 is stale"
        );
    }

    #[test]
    fn weakened_quorum_decides_on_f_acceptances() {
        let mut l = PaxosLeader::new(spec()).with_weakened_quorum();
        l.start_v();
        all_yes(&mut l);
        // F = 1 acceptance suffices under the mutation — the bug the
        // model checker must catch.
        let actions = l.on_p2b_v(S0, 0);
        assert!(matches!(actions[0], Action::Log(LogRecord::Decided { .. })));
    }

    #[test]
    fn timers_rebroadcast_current_round() {
        let mut c = PaxosLeader::recover(spec(), 2);
        c.start_v();
        let again = c.on_1b_timer_v(2);
        assert!(matches!(
            again[0],
            Action::Broadcast(_, Msg::PaxosP1a { bal: 2, .. })
        ));
        assert!(c.on_2b_timer_v(2).is_empty(), "not proposing yet");
        c.on_p1b_v(S1, 2, &[]);
        c.on_p1b_v(S2, 2, &[]);
        assert!(c.on_1b_timer_v(2).is_empty(), "past recovery");
        let again = c.on_2b_timer_v(2);
        assert!(matches!(
            again[0],
            Action::Broadcast(_, Msg::PaxosP2a { bal: 2, .. })
        ));
    }

    #[test]
    fn acceptor_recovery_reinstalls_durable_state() {
        let mut a = PaxosAcceptor::new();
        a.on_p1a_v(TxnId(1), 2);
        a.on_p2a_v(TxnId(1), 4, &[(S0, true, Version(1))]);
        let records = vec![
            LogRecord::PaxosPromise {
                txn: TxnId(1),
                bal: 2,
            },
            LogRecord::PaxosAccept {
                txn: TxnId(1),
                bal: 4,
                votes: vec![(S0, true, Version(1))],
            },
        ];
        let mut b = PaxosAcceptor::new();
        for rec in &records {
            b.redo(rec);
        }
        assert_eq!(b.promised(), a.promised());
        assert_eq!(b.accepted(), a.accepted());
        // The reborn acceptor still honours the old promise.
        assert!(b.clone().on_p2a_v(TxnId(1), 3, &[]).is_empty());
    }

    #[test]
    fn a_lower_ballot_accept_logged_later_keeps_the_higher_batch() {
        let mut a = PaxosAcceptor::new();
        a.redo(&LogRecord::PaxosAccept {
            txn: TxnId(1),
            bal: 4,
            votes: vec![(S0, true, Version(1))],
        });
        a.redo(&LogRecord::PaxosAccept {
            txn: TxnId(1),
            bal: 2,
            votes: vec![(S0, false, Version(0))],
        });
        assert_eq!(a.promised(), 4);
        assert_eq!(a.accepted(), Some(&(4, vec![(S0, true, Version(1))])));
    }

    #[test]
    fn a_promise_above_every_accept_survives_recovery() {
        let mut a = PaxosAcceptor::new();
        a.redo(&LogRecord::PaxosAccept {
            txn: TxnId(1),
            bal: 1,
            votes: vec![(S0, true, Version(1))],
        });
        a.redo(&LogRecord::PaxosPromise {
            txn: TxnId(1),
            bal: 5,
        });
        assert_eq!(a.promised(), 5);
        assert_eq!(a.accepted(), Some(&(1, vec![(S0, true, Version(1))])));
        // The promise is kept: a 2a below it is ignored.
        assert!(a.on_p2a_v(TxnId(1), 3, &[]).is_empty());
    }

    #[test]
    fn branch_holds_on_all_yes_like_2pc() {
        let branch = Arc::new(TxnSpec {
            parent: Some(SiteId(42)),
            ..(*spec()).clone()
        });
        let mut l = PaxosLeader::new(branch);
        l.start_v();
        let actions = all_yes(&mut l);
        assert!(matches!(
            actions[0],
            Action::Send(SiteId(42), Msg::XVote { yes: true, .. })
        ));
        assert_eq!(l.phase(), PaxosPhase::Held);
        let done = l.on_x_decide_v(Decision::Commit, Some(Version(1)));
        assert!(matches!(done[1], Action::Broadcast(_, Msg::Commit { .. })));
    }
}
