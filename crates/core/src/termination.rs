//! The termination-protocol coordinator engine (Figs. 5 and 8).
//!
//! Runs at the site elected coordinator of its partition. Three phases:
//!
//! 1. request local states from all reachable participants (`2T` window);
//! 2. evaluate the rule table ([`crate::rules::phase2`]): immediate
//!    decision, prepare round, or block;
//! 3. collect PREPARE acks (`2T`); if the quorum completes, command the
//!    decision; otherwise "start the election protocol" again (the
//!    re-entrant path — handled by emitting
//!    [`Action::RequestTermination`]).
//!
//! The engine is re-enterable: each attempt carries a round number, and
//! stale replies or timers from older rounds are ignored. Multiple
//! engines may run concurrently in one partition (several coordinators);
//! safety rests on the participants' PC/PA wall, not on uniqueness here.
//!
//! It takes events the way the leader slot ([`crate::CommitEngine`])
//! does: one message or timer expiry at a time through
//! [`Termination::on_msg`] and [`Termination::on_timer`], which ignore
//! other roles' events and push the effects into the caller's buffer.

use crate::actions::{Action, TimerKind};
use crate::commit_engine::apply_at_copyless_coordinator;
use crate::messages::Msg;
use crate::rules::{phase2, phase3_satisfied, Phase2Outcome, StateView, TerminationKind};
use crate::states::LocalState;
use crate::types::{Decision, TxnId, TxnSpec};
use qbc_simnet::SiteId;
use qbc_votes::{Catalog, Version};
use std::collections::BTreeSet;
use std::sync::Arc;

/// Progress of one termination attempt.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TerminationPhase {
    /// Phase 1: collecting `STATE-REP`s.
    CollectingStates,
    /// Phase 3 (commit direction): collecting `PC-ACK`s.
    AwaitingPcAcks,
    /// Phase 3 (abort direction): collecting `PA-ACK`s.
    AwaitingPaAcks,
    /// Decided and commanded.
    Done(Decision),
    /// Rule 5: blocked (will be retried by a later round).
    Blocked,
    /// Phase 3 failed; a new election/round was requested.
    Failed,
}

/// The termination coordinator for one transaction, one round.
#[derive(Clone, Debug)]
pub struct Termination {
    spec: Arc<TxnSpec>,
    kind: TerminationKind,
    round: u64,
    phase: TerminationPhase,
    view: StateView,
    /// Commit version learned from any committable replier.
    pc_version: Option<Version>,
    /// Phase-1 repliers already in the prepared state (the "base").
    base: BTreeSet<SiteId>,
    /// Phase-3 ackers.
    acks: BTreeSet<SiteId>,
    /// Direction being attempted in phase 3.
    attempt: Option<Decision>,
    /// Whether this site is one of the participants; if not, it is a
    /// coordinator without a copy, which the commands it broadcasts
    /// skip, so it applies the decision itself.
    participates: bool,
}

impl Termination {
    /// Creates a termination attempt and pushes its kickoff actions into
    /// `out`: broadcast `STATE-REQ` and arm the `2T` collection timer.
    ///
    /// `own_state`/`own_pc_version` seed the view with the coordinator's
    /// own participant state. A site outside `spec.participants` (a
    /// coordinator that holds no copy) contributes no state: its
    /// participant never votes, and its `q` would make every phase-2
    /// rule abort.
    pub fn start(
        self_site: SiteId,
        spec: Arc<TxnSpec>,
        kind: TerminationKind,
        round: u64,
        own_state: LocalState,
        own_pc_version: Option<Version>,
        out: &mut Vec<Action>,
    ) -> Self {
        let mut view = StateView::new();
        let participates = spec.participants.contains(&self_site);
        if participates {
            view.record(self_site, own_state);
        }
        let peers: Vec<SiteId> = spec
            .participants
            .iter()
            .copied()
            .filter(|&s| s != self_site)
            .collect();
        let txn = spec.id;
        out.push(Action::Broadcast(
            peers,
            Msg::StateReq {
                round,
                spec: Arc::clone(&spec),
            },
        ));
        // A lone participant can evaluate immediately only when its
        // partition contains nobody else; we still wait for the timer so
        // late repliers are counted (deterministic and simple).
        out.push(Action::SetTimer(TimerKind::StateCollection { txn, round }));
        Termination {
            spec,
            kind,
            round,
            phase: TerminationPhase::CollectingStates,
            view,
            pc_version: own_pc_version,
            base: BTreeSet::new(),
            acks: BTreeSet::new(),
            attempt: None,
            participates,
        }
    }

    /// The round of this attempt.
    pub fn round(&self) -> u64 {
        self.round
    }

    /// Current phase.
    pub fn phase(&self) -> &TerminationPhase {
        &self.phase
    }

    /// The transaction being terminated.
    pub fn txn(&self) -> TxnId {
        self.spec.id
    }

    /// Feeds one message: a `STATE-REP` (phase 1), a `PC-ACK` or `PA-ACK`
    /// (phase 3) or a `Decided` relay; appends the effects to `out`.
    /// Messages for other roles, and replies to another round or phase,
    /// are ignored.
    pub fn on_msg(&mut self, from: SiteId, msg: &Msg, catalog: &Catalog, out: &mut Vec<Action>) {
        match (msg, &self.phase) {
            (
                Msg::StateRep {
                    round,
                    state,
                    pc_version,
                    ..
                },
                TerminationPhase::CollectingStates,
            ) if *round == self.round => self.on_state_rep(from, *state, *pc_version, catalog, out),
            (Msg::PcAck { .. }, TerminationPhase::AwaitingPcAcks)
            | (Msg::PaAck { .. }, TerminationPhase::AwaitingPaAcks) => {
                self.acks.insert(from);
                self.try_finish(catalog, out);
            }
            (
                Msg::Decided {
                    decision,
                    commit_version,
                    ..
                },
                phase,
            ) if !matches!(phase, TerminationPhase::Done(_)) => {
                self.pc_version = commit_version.or(self.pc_version);
                self.decide(*decision, out);
            }
            _ => {}
        }
    }

    /// Feeds one timer expiry: the phase-1 collection window or the
    /// phase-3 ack window; appends the effects to `out`. Other timers,
    /// and windows of another round or phase, are ignored.
    pub fn on_timer(&mut self, kind: TimerKind, catalog: &Catalog, out: &mut Vec<Action>) {
        match (kind, &self.phase) {
            (TimerKind::StateCollection { round, .. }, TerminationPhase::CollectingStates)
                if round == self.round =>
            {
                self.evaluate(catalog, out)
            }
            // The ack window expired: finish if the quorum completed,
            // otherwise Fig. 5 says "start the election protocol" (a
            // fresh round will re-poll states).
            (
                TimerKind::TerminationAcks { round, .. },
                TerminationPhase::AwaitingPcAcks | TerminationPhase::AwaitingPaAcks,
            ) if round == self.round => {
                if self.try_finish(catalog, out) {
                    return;
                }
                self.phase = TerminationPhase::Failed;
                out.push(Action::RequestTermination { txn: self.spec.id });
            }
            _ => {}
        }
    }

    /// A `STATE-REP` of this round while collecting states.
    fn on_state_rep(
        &mut self,
        from: SiteId,
        state: LocalState,
        pc_version: Option<Version>,
        catalog: &Catalog,
        out: &mut Vec<Action>,
    ) {
        self.view.record(from, state);
        self.pc_version = pc_version.or(self.pc_version);
        // A terminal report decides immediately — "if any participant
        // has committed, then TR is immediately committed at all
        // participants in the partition" (and symmetrically for abort).
        if let Some(decision) = state.decision() {
            self.decide(decision, out);
        } else if self.view.len() == self.spec.participants.len() {
            // All participants answered: no need to wait out the timer.
            self.evaluate(catalog, out);
        }
    }

    /// Evaluates the phase-2 rule table and acts on it.
    fn evaluate(&mut self, catalog: &Catalog, out: &mut Vec<Action>) {
        let txn = self.spec.id;
        match phase2(&self.kind, catalog, &self.spec, &self.view) {
            Phase2Outcome::Immediate(d) => self.decide(d, out),
            Phase2Outcome::AttemptCommit => match self.pc_version {
                Some(commit_version) => {
                    let base = self
                        .view
                        .sites_where(|s| s == LocalState::PreCommit || s == LocalState::Committed);
                    let msg = Msg::PrepareCommit {
                        txn,
                        commit_version,
                    };
                    self.prepare(Decision::Commit, base, msg, out);
                }
                // ∃PC is a precondition of the commit attempt, and PC
                // repliers carry their version; missing version means a
                // protocol bug.
                None => out.push(Action::ViolationNote {
                    txn,
                    note: "commit attempt without a PC version witness",
                }),
            },
            Phase2Outcome::AttemptAbort => {
                let base = self.view.sites_where(|s| s == LocalState::PreAbort);
                self.prepare(Decision::Abort, base, Msg::PrepareAbort { txn }, out);
            }
            Phase2Outcome::Block => {
                self.phase = TerminationPhase::Blocked;
                out.push(Action::DeclareBlocked { txn });
            }
        }
    }

    /// Phase 3 toward `attempt`: `msg`, its PREPARE, goes to the sites
    /// still in `W`, and the ack window opens; `base` already counts
    /// toward the quorum.
    fn prepare(
        &mut self,
        attempt: Decision,
        base: BTreeSet<SiteId>,
        msg: Msg,
        out: &mut Vec<Action>,
    ) {
        self.phase = match attempt {
            Decision::Commit => TerminationPhase::AwaitingPcAcks,
            Decision::Abort => TerminationPhase::AwaitingPaAcks,
        };
        self.attempt = Some(attempt);
        self.base = base;
        self.acks.clear();
        let wait_sites = self.view.sites_where(|s| s == LocalState::Wait);
        out.push(Action::Broadcast(wait_sites.into_iter().collect(), msg));
        out.push(Action::SetTimer(TimerKind::TerminationAcks {
            txn: self.spec.id,
            round: self.round,
        }));
    }

    /// Issues the decision to every reachable participant; a site that
    /// is none applies it here.
    fn decide(&mut self, decision: Decision, out: &mut Vec<Action>) {
        self.phase = TerminationPhase::Done(decision);
        let everyone: Vec<SiteId> = self.spec.participants.iter().copied().collect();
        let msg = match decision {
            Decision::Commit => match self.pc_version {
                Some(v) => Msg::Commit {
                    txn: self.spec.id,
                    commit_version: v,
                },
                None => {
                    return out.push(Action::ViolationNote {
                        txn: self.spec.id,
                        note: "termination commit without version witness",
                    })
                }
            },
            Decision::Abort => Msg::Abort { txn: self.spec.id },
        };
        out.push(Action::Broadcast(everyone, msg));
        if !self.participates {
            apply_at_copyless_coordinator(&self.spec, decision, self.pc_version, out);
        }
    }

    /// Commands the attempted decision once the phase-3 quorum is
    /// complete; tells whether it did.
    fn try_finish(&mut self, catalog: &Catalog, out: &mut Vec<Action>) -> bool {
        let Some(attempt) = self.attempt else {
            return false;
        };
        let quorum: BTreeSet<SiteId> = self.base.union(&self.acks).copied().collect();
        let done = phase3_satisfied(&self.kind, catalog, &self.spec, attempt, &quorum);
        if done {
            self.decide(attempt, out);
        }
        done
    }
}

/// Collecting wrappers for unit tests: same entry points, fresh buffer
/// per call (production code passes a reused scratch buffer instead).
#[cfg(test)]
impl Termination {
    fn start_v(
        self_site: SiteId,
        spec: Arc<TxnSpec>,
        kind: TerminationKind,
        round: u64,
        own_state: LocalState,
        own_pc_version: Option<Version>,
    ) -> (Self, Vec<Action>) {
        let mut v = Vec::new();
        let t = Self::start(
            self_site,
            spec,
            kind,
            round,
            own_state,
            own_pc_version,
            &mut v,
        );
        (t, v)
    }

    fn on_msg_v(&mut self, from: SiteId, msg: Msg, catalog: &Catalog) -> Vec<Action> {
        let mut v = Vec::new();
        self.on_msg(from, &msg, catalog, &mut v);
        v
    }

    fn on_timer_v(&mut self, kind: TimerKind, catalog: &Catalog) -> Vec<Action> {
        let mut v = Vec::new();
        self.on_timer(kind, catalog, &mut v);
        v
    }
}

/// Canonical state hash for the model checker's visited-set.
///
/// Hashes the attempt round (stale-round filtering depends on it), the
/// phase, the collected state view, the learned PC version, the quorum
/// base, the phase-3 ack set and the attempted direction — every field
/// that steers the rule evaluation. All containers are ordered, so the
/// rendering is canonical.
impl qbc_simnet::Fingerprint for Termination {
    fn fingerprint(&self, _now: qbc_simnet::Time, h: &mut qbc_simnet::FastHasher) {
        use std::hash::Hasher;
        h.write(
            format!(
                "{}|{:?}|{:?}|{:?}|{:?}|{:?}|{:?}",
                self.round,
                self.phase,
                self.view,
                self.pc_version,
                self.base,
                self.acks,
                self.attempt
            )
            .as_bytes(),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{ProtocolKind, WriteSet};
    use qbc_votes::{CatalogBuilder, ItemId};

    fn catalog() -> Catalog {
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

    fn spec() -> Arc<TxnSpec> {
        Arc::new(TxnSpec {
            id: TxnId(1),
            coordinator: SiteId(1),
            writeset: WriteSet::new([(ItemId(0), 10), (ItemId(1), 20)]),
            participants: (1..=8).map(SiteId).collect(),
            protocol: ProtocolKind::QuorumCommit1,
            parent: None,
        })
    }

    fn msgs_in(actions: &[Action]) -> Vec<&Msg> {
        actions
            .iter()
            .filter_map(|a| match a {
                Action::Broadcast(_, m) => Some(m),
                Action::Send(_, m) => Some(m),
                Action::Reply(m) => Some(m),
                _ => None,
            })
            .collect()
    }

    fn state_rep(round: u64, state: LocalState, pc_version: Option<Version>) -> Msg {
        Msg::StateRep {
            txn: TxnId(1),
            round,
            state,
            pc_version,
        }
    }

    fn state_timer(round: u64) -> TimerKind {
        TimerKind::StateCollection {
            txn: TxnId(1),
            round,
        }
    }

    fn acks_timer(round: u64) -> TimerKind {
        TimerKind::TerminationAcks {
            txn: TxnId(1),
            round,
        }
    }

    #[test]
    fn kickoff_broadcasts_state_req_and_arms_timer() {
        let (t, actions) = Termination::start_v(
            SiteId(2),
            spec(),
            TerminationKind::Tp1,
            1,
            LocalState::Wait,
            None,
        );
        assert_eq!(t.round(), 1);
        match &actions[0] {
            Action::Broadcast(targets, Msg::StateReq { round: 1, .. }) => {
                assert_eq!(targets.len(), 7, "everyone but self");
                assert!(!targets.contains(&SiteId(2)));
            }
            other => panic!("expected StateReq broadcast, got {other:?}"),
        }
        assert!(matches!(
            actions[1],
            Action::SetTimer(TimerKind::StateCollection { round: 1, .. })
        ));
    }

    #[test]
    fn a_site_without_a_copy_contributes_no_state() {
        // s9 coordinates but holds no copy: its participant is in `q`.
        let cat = catalog();
        let (mut t, actions) = Termination::start_v(
            SiteId(9),
            spec(),
            TerminationKind::Tp1,
            1,
            LocalState::Initial,
            None,
        );
        assert!(t.view.is_empty(), "no state of its own: {:?}", t.view);
        match &actions[0] {
            Action::Broadcast(targets, Msg::StateReq { .. }) => {
                assert_eq!(targets.len(), 8, "every participant");
            }
            other => panic!("expected StateReq broadcast, got {other:?}"),
        }
        // Every participant answers, s5 from PC: the view is complete
        // without s9, and the round attempts the commit.
        for s in 1..=8u32 {
            let (st, v) = if s == 5 {
                (LocalState::PreCommit, Some(Version(7)))
            } else {
                (LocalState::Wait, None)
            };
            t.on_msg_v(SiteId(s), state_rep(1, st, v), &cat);
        }
        assert_eq!(*t.phase(), TerminationPhase::AwaitingPcAcks);
    }

    #[test]
    fn a_coordinator_without_a_copy_applies_the_decision_itself() {
        let copyless = Arc::new(TxnSpec {
            coordinator: SiteId(9),
            ..(*spec()).clone()
        });
        let (mut t, _) = Termination::start_v(
            SiteId(9),
            copyless,
            TerminationKind::Tp1,
            1,
            LocalState::Initial,
            None,
        );
        let rep = state_rep(1, LocalState::Committed, Some(Version(4)));
        let actions = t.on_msg_v(SiteId(3), rep, &catalog());
        assert!(matches!(
            actions[..],
            [
                Action::Broadcast(_, Msg::Commit { .. }),
                Action::ApplyAndDecide {
                    decision: Decision::Commit,
                    commit_version: Some(Version(4)),
                },
            ]
        ));
    }

    #[test]
    fn terminal_report_decides_immediately() {
        let (mut t, _) = Termination::start_v(
            SiteId(2),
            spec(),
            TerminationKind::Tp1,
            1,
            LocalState::Wait,
            None,
        );
        let actions = t.on_msg_v(
            SiteId(3),
            state_rep(1, LocalState::Committed, Some(Version(4))),
            &catalog(),
        );
        assert_eq!(*t.phase(), TerminationPhase::Done(Decision::Commit));
        let msgs = msgs_in(&actions);
        assert!(matches!(
            msgs[0],
            Msg::Commit {
                commit_version: Version(4),
                ..
            }
        ));
    }

    #[test]
    fn example4_g1_runs_abort_round_and_finishes() {
        // G1 = {s2, s3}: abort quorum via r(x)=2. Only s2, s3 reply.
        let cat = catalog();
        let (mut t, _) = Termination::start_v(
            SiteId(2),
            spec(),
            TerminationKind::Tp1,
            1,
            LocalState::Wait,
            None,
        );
        assert!(t
            .on_msg_v(SiteId(3), state_rep(1, LocalState::Wait, None), &cat)
            .is_empty());
        let actions = t.on_timer_v(state_timer(1), &cat);
        // Phase 2 → AttemptAbort: PREPARE-TO-ABORT to the W sites (s2,s3).
        match &actions[0] {
            Action::Broadcast(targets, Msg::PrepareAbort { .. }) => {
                assert_eq!(
                    targets.iter().copied().collect::<BTreeSet<_>>(),
                    [SiteId(2), SiteId(3)].into()
                );
            }
            other => panic!("expected PrepareAbort, got {other:?}"),
        }
        assert_eq!(*t.phase(), TerminationPhase::AwaitingPaAcks);
        // s2 acks: 1 vote of x < r(x)=2 → not yet.
        assert!(t
            .on_msg_v(SiteId(2), Msg::PaAck { txn: TxnId(1) }, &cat)
            .is_empty());
        // s3 acks: 2 votes → abort commanded to all participants.
        let actions = t.on_msg_v(SiteId(3), Msg::PaAck { txn: TxnId(1) }, &cat);
        assert_eq!(*t.phase(), TerminationPhase::Done(Decision::Abort));
        assert!(matches!(
            actions[0],
            Action::Broadcast(_, Msg::Abort { .. })
        ));
    }

    #[test]
    fn example1_g2_blocks() {
        let cat = catalog();
        let (mut t, _) = Termination::start_v(
            SiteId(4),
            spec(),
            TerminationKind::Tp1,
            1,
            LocalState::Wait,
            None,
        );
        t.on_msg_v(
            SiteId(5),
            state_rep(1, LocalState::PreCommit, Some(Version(1))),
            &cat,
        );
        let actions = t.on_timer_v(state_timer(1), &cat);
        assert!(matches!(actions[0], Action::DeclareBlocked { .. }));
        assert_eq!(*t.phase(), TerminationPhase::Blocked);
    }

    #[test]
    fn commit_round_uses_pc_version_from_replier() {
        // Full partition with s5 in PC: commit attempt; version must come
        // from s5's report.
        let cat = catalog();
        let (mut t, _) = Termination::start_v(
            SiteId(1),
            spec(),
            TerminationKind::Tp1,
            2,
            LocalState::Wait,
            None,
        );
        for s in 2..=8u32 {
            let (st, v) = if s == 5 {
                (LocalState::PreCommit, Some(Version(7)))
            } else {
                (LocalState::Wait, None)
            };
            t.on_msg_v(SiteId(s), state_rep(2, st, v), &cat);
        }
        // All 8 replied → evaluates immediately (no timer needed).
        assert_eq!(*t.phase(), TerminationPhase::AwaitingPcAcks);
        // Ack from everyone in W; completion at w(x)∀x, which needs
        // s1..s4 (x) minus... s1,s2,s3,s4 hold x (4 votes ≥ 3) and
        // s5 (base) + s6,s7 hold y (3 ≥ 3).
        let mut done = false;
        for s in [1u32, 2, 3, 4, 6, 7] {
            let actions = t.on_msg_v(SiteId(s), Msg::PcAck { txn: TxnId(1) }, &cat);
            if !actions.is_empty() {
                match &actions[0] {
                    Action::Broadcast(_, Msg::Commit { commit_version, .. }) => {
                        assert_eq!(*commit_version, Version(7));
                        done = true;
                    }
                    other => panic!("unexpected {other:?}"),
                }
                break;
            }
        }
        assert!(done, "commit quorum should have completed");
    }

    #[test]
    fn failed_ack_round_requests_new_round() {
        let cat = catalog();
        let (mut t, _) = Termination::start_v(
            SiteId(2),
            spec(),
            TerminationKind::Tp1,
            3,
            LocalState::Wait,
            None,
        );
        t.on_msg_v(SiteId(3), state_rep(3, LocalState::Wait, None), &cat);
        t.on_timer_v(state_timer(3), &cat); // → AttemptAbort (r(x) among s2,s3)
                                            // Nobody acks (additional failures); window expires.
        let actions = t.on_timer_v(acks_timer(3), &cat);
        assert!(matches!(actions[0], Action::RequestTermination { .. }));
        assert_eq!(*t.phase(), TerminationPhase::Failed);
    }

    #[test]
    fn stale_rounds_are_ignored() {
        let cat = catalog();
        let (mut t, _) = Termination::start_v(
            SiteId(2),
            spec(),
            TerminationKind::Tp1,
            5,
            LocalState::Wait,
            None,
        );
        assert!(t
            .on_msg_v(SiteId(3), state_rep(4, LocalState::Committed, None), &cat)
            .is_empty());
        assert!(t.on_timer_v(state_timer(4), &cat).is_empty());
        assert_eq!(*t.phase(), TerminationPhase::CollectingStates);
    }

    #[test]
    fn decided_relay_short_circuits() {
        let (mut t, _) = Termination::start_v(
            SiteId(2),
            spec(),
            TerminationKind::Tp1,
            1,
            LocalState::Wait,
            None,
        );
        let decided = Msg::Decided {
            txn: TxnId(1),
            decision: Decision::Commit,
            commit_version: Some(Version(3)),
        };
        let actions = t.on_msg_v(SiteId(3), decided, &catalog());
        assert_eq!(*t.phase(), TerminationPhase::Done(Decision::Commit));
        assert!(matches!(
            actions[0],
            Action::Broadcast(_, Msg::Commit { .. })
        ));
    }

    #[test]
    fn skeen_kind_drives_site_vote_rounds() {
        // Skeen [16]: 8 sites, Vc=5, Va=4. Partition of 5 sites with one
        // PC → commit attempt; acks complete at 5 site votes.
        let cat = catalog();
        let sv = crate::types::SiteVotes::uniform((1..=8).map(SiteId), 5, 4);
        let (mut t, _) = Termination::start_v(
            SiteId(1),
            spec(),
            TerminationKind::SkeenQuorum(sv),
            1,
            LocalState::Wait,
            None,
        );
        for s in 2..=5u32 {
            let (st, v) = if s == 5 {
                (LocalState::PreCommit, Some(Version(2)))
            } else {
                (LocalState::Wait, None)
            };
            t.on_msg_v(SiteId(s), state_rep(1, st, v), &cat);
        }
        let actions = t.on_timer_v(state_timer(1), &cat);
        assert!(matches!(
            actions[0],
            Action::Broadcast(_, Msg::PrepareCommit { .. })
        ));
        // base = {s5}; acks needed: 4 more to reach Vc=5.
        for s in [1u32, 2, 3] {
            assert!(t
                .on_msg_v(SiteId(s), Msg::PcAck { txn: TxnId(1) }, &cat)
                .is_empty());
        }
        let actions = t.on_msg_v(SiteId(4), Msg::PcAck { txn: TxnId(1) }, &cat);
        assert!(matches!(
            actions.first(),
            Some(Action::Broadcast(_, Msg::Commit { .. }))
        ));
    }

    /// A fresh round-1 attempt at s2, collecting states.
    fn collecting(_: &Catalog) -> Termination {
        let (t, _) = Termination::start_v(
            SiteId(2),
            spec(),
            TerminationKind::Tp1,
            1,
            LocalState::Wait,
            None,
        );
        t
    }

    /// Example 4's G1 attempt: only s3 replied, so round 1 tries abort
    /// and awaits the PA-ACKs of s2 and s3.
    fn awaiting_pa_acks(cat: &Catalog) -> Termination {
        let mut t = collecting(cat);
        t.on_msg_v(SiteId(3), state_rep(1, LocalState::Wait, None), cat);
        t.on_timer_v(state_timer(1), cat);
        assert_eq!(*t.phase(), TerminationPhase::AwaitingPaAcks);
        t
    }

    enum Event {
        Msg(Msg),
        Timer(TimerKind),
    }

    /// Every event the engine must ignore pushes nothing and leaves the
    /// engine, its phase included, as it was.
    #[test]
    fn ignored_events_push_nothing_and_keep_the_phase() {
        let cat = catalog();
        let txn = TxnId(1);
        type Row = (&'static str, fn(&Catalog) -> Termination, Event);
        let rows: Vec<Row> = vec![
            (
                "the leader's VOTE",
                collecting,
                Event::Msg(Msg::Vote {
                    txn,
                    yes: true,
                    max_version: Version(1),
                }),
            ),
            (
                "the participant's VOTE-REQ",
                collecting,
                Event::Msg(Msg::VoteReq { spec: spec() }),
            ),
            (
                "the cross-shard coordinator's X-VOTE",
                collecting,
                Event::Msg(Msg::XVote {
                    txn,
                    yes: true,
                    commit_version: None,
                }),
            ),
            (
                "the leader's vote window",
                collecting,
                Event::Timer(TimerKind::VoteCollection { txn }),
            ),
            (
                "the participant's watchdog",
                awaiting_pa_acks,
                Event::Timer(TimerKind::CoordinatorWatch { txn }),
            ),
            (
                "a STATE-REP of an older round",
                collecting,
                Event::Msg(state_rep(0, LocalState::Committed, Some(Version(2)))),
            ),
            (
                "the state window of an older round",
                collecting,
                Event::Timer(state_timer(0)),
            ),
            (
                "the ack window of an older round",
                awaiting_pa_acks,
                Event::Timer(acks_timer(0)),
            ),
            (
                "a STATE-REP after phase 1",
                awaiting_pa_acks,
                Event::Msg(state_rep(1, LocalState::PreAbort, None)),
            ),
            (
                "a PC-ACK while awaiting PA-ACKs",
                awaiting_pa_acks,
                Event::Msg(Msg::PcAck { txn }),
            ),
        ];
        for (row, engine, event) in rows {
            let mut t = engine(&cat);
            let before = format!("{t:?}");
            let out = match event {
                Event::Msg(m) => t.on_msg_v(SiteId(3), m, &cat),
                Event::Timer(k) => t.on_timer_v(k, &cat),
            };
            assert!(out.is_empty(), "{row}: pushed {out:?}");
            assert_eq!(format!("{t:?}"), before, "{row}: changed the engine");
        }
    }
}
