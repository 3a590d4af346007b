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

use crate::actions::{Action, TimerKind};
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
}

impl Termination {
    /// Creates a termination attempt and returns it with its kickoff
    /// actions: broadcast `STATE-REQ` and arm the `2T` collection timer.
    ///
    /// `own_state`/`own_pc_version` seed the view with the coordinator's
    /// own participant state (it is always itself a participant, except
    /// for a site that learned the spec only through a `STATE-REQ`).
    pub fn start(
        self_site: SiteId,
        spec: Arc<TxnSpec>,
        kind: TerminationKind,
        round: u64,
        own_state: LocalState,
        own_pc_version: Option<Version>,
    ) -> (Self, Vec<Action>) {
        let mut view = StateView::new();
        view.record(self_site, own_state);
        let t = Termination {
            spec,
            kind,
            round,
            phase: TerminationPhase::CollectingStates,
            view,
            pc_version: own_pc_version,
            base: BTreeSet::new(),
            acks: BTreeSet::new(),
            attempt: None,
        };
        let peers: Vec<SiteId> = t
            .spec
            .participants
            .iter()
            .copied()
            .filter(|&s| s != self_site)
            .collect();
        let mut actions = vec![Action::Broadcast(
            peers,
            Msg::StateReq {
                round,
                spec: Arc::clone(&t.spec),
            },
        )];
        actions.push(Action::SetTimer(TimerKind::StateCollection {
            txn: t.spec.id,
            round,
        }));
        // A lone participant can evaluate immediately only when its
        // partition contains nobody else; we still wait for the timer so
        // late repliers are counted (deterministic and simple).
        (t, actions)
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

    /// Handles a `STATE-REP` (phase 1) or a terminal `Decided` relay.
    pub fn on_state_rep(
        &mut self,
        from: SiteId,
        round: u64,
        state: LocalState,
        pc_version: Option<Version>,
        catalog: &Catalog,
    ) -> Vec<Action> {
        if round != self.round || self.phase != TerminationPhase::CollectingStates {
            return Vec::new();
        }
        self.view.record(from, state);
        if let Some(v) = pc_version {
            self.pc_version = Some(v);
        }
        // A terminal report decides immediately — "if any participant
        // has committed, then TR is immediately committed at all
        // participants in the partition" (and symmetrically for abort).
        if let Some(decision) = state.decision() {
            return self.decide(decision);
        }
        // All participants answered: no need to wait out the timer.
        if self.view.len() == self.spec.participants.len() {
            return self.evaluate(catalog);
        }
        Vec::new()
    }

    /// Phase-1 collection window expired.
    pub fn on_state_timer(&mut self, round: u64, catalog: &Catalog) -> Vec<Action> {
        if round != self.round || self.phase != TerminationPhase::CollectingStates {
            return Vec::new();
        }
        self.evaluate(catalog)
    }

    /// Evaluates the phase-2 rule table and acts on it.
    fn evaluate(&mut self, catalog: &Catalog) -> Vec<Action> {
        match phase2(&self.kind, catalog, &self.spec, &self.view) {
            Phase2Outcome::Immediate(d) => self.decide(d),
            Phase2Outcome::AttemptCommit => {
                let Some(version) = self.pc_version else {
                    // ∃PC is a precondition of the commit attempt, and PC
                    // repliers carry their version; missing version means
                    // a protocol bug.
                    return vec![Action::ViolationNote {
                        txn: self.spec.id,
                        note: "commit attempt without a PC version witness",
                    }];
                };
                self.phase = TerminationPhase::AwaitingPcAcks;
                self.attempt = Some(Decision::Commit);
                self.base = self
                    .view
                    .sites_where(|s| s == LocalState::PreCommit || s == LocalState::Committed);
                self.acks.clear();
                let wait_sites: Vec<SiteId> = self
                    .view
                    .sites_where(|s| s == LocalState::Wait)
                    .into_iter()
                    .collect();
                vec![
                    Action::Broadcast(
                        wait_sites,
                        Msg::PrepareCommit {
                            txn: self.spec.id,
                            commit_version: version,
                        },
                    ),
                    Action::SetTimer(TimerKind::TerminationAcks {
                        txn: self.spec.id,
                        round: self.round,
                    }),
                ]
            }
            Phase2Outcome::AttemptAbort => {
                self.phase = TerminationPhase::AwaitingPaAcks;
                self.attempt = Some(Decision::Abort);
                self.base = self.view.sites_where(|s| s == LocalState::PreAbort);
                self.acks.clear();
                let wait_sites: Vec<SiteId> = self
                    .view
                    .sites_where(|s| s == LocalState::Wait)
                    .into_iter()
                    .collect();
                vec![
                    Action::Broadcast(wait_sites, Msg::PrepareAbort { txn: self.spec.id }),
                    Action::SetTimer(TimerKind::TerminationAcks {
                        txn: self.spec.id,
                        round: self.round,
                    }),
                ]
            }
            Phase2Outcome::Block => {
                self.phase = TerminationPhase::Blocked;
                vec![Action::DeclareBlocked { txn: self.spec.id }]
            }
        }
    }

    /// Issues the decision to every reachable participant.
    fn decide(&mut self, decision: Decision) -> Vec<Action> {
        self.phase = TerminationPhase::Done(decision);
        let everyone: Vec<SiteId> = self.spec.participants.iter().copied().collect();
        let msg = match decision {
            Decision::Commit => match self.pc_version {
                Some(v) => Msg::Commit {
                    txn: self.spec.id,
                    commit_version: v,
                },
                None => {
                    return vec![Action::ViolationNote {
                        txn: self.spec.id,
                        note: "termination commit without version witness",
                    }]
                }
            },
            Decision::Abort => Msg::Abort { txn: self.spec.id },
        };
        vec![Action::Broadcast(everyone, msg)]
    }

    /// Handles a PC-ACK during phase 3 (commit direction).
    pub fn on_pc_ack(&mut self, from: SiteId, catalog: &Catalog) -> Vec<Action> {
        if self.phase != TerminationPhase::AwaitingPcAcks {
            return Vec::new();
        }
        self.acks.insert(from);
        self.try_finish(catalog)
    }

    /// Handles a PA-ACK during phase 3 (abort direction).
    pub fn on_pa_ack(&mut self, from: SiteId, catalog: &Catalog) -> Vec<Action> {
        if self.phase != TerminationPhase::AwaitingPaAcks {
            return Vec::new();
        }
        self.acks.insert(from);
        self.try_finish(catalog)
    }

    fn quorum_sites(&self) -> BTreeSet<SiteId> {
        self.base.union(&self.acks).copied().collect()
    }

    fn try_finish(&mut self, catalog: &Catalog) -> Vec<Action> {
        let Some(attempt) = self.attempt else {
            return Vec::new();
        };
        if phase3_satisfied(
            &self.kind,
            catalog,
            &self.spec,
            attempt,
            &self.quorum_sites(),
        ) {
            self.decide(attempt)
        } else {
            Vec::new()
        }
    }

    /// Phase-3 ack window expired: finish if the quorum completed,
    /// otherwise Fig. 5 says "start the election protocol" (a fresh
    /// round will re-poll states).
    pub fn on_acks_timer(&mut self, round: u64, catalog: &Catalog) -> Vec<Action> {
        if round != self.round {
            return Vec::new();
        }
        match self.phase {
            TerminationPhase::AwaitingPcAcks | TerminationPhase::AwaitingPaAcks => {
                let actions = self.try_finish(catalog);
                if actions.is_empty() {
                    self.phase = TerminationPhase::Failed;
                    vec![Action::RequestTermination { txn: self.spec.id }]
                } else {
                    actions
                }
            }
            _ => Vec::new(),
        }
    }

    /// A `Decided` relay reached the termination coordinator directly.
    pub fn on_decided(
        &mut self,
        decision: Decision,
        commit_version: Option<Version>,
    ) -> Vec<Action> {
        if matches!(self.phase, TerminationPhase::Done(_)) {
            return Vec::new();
        }
        if let Some(v) = commit_version {
            self.pc_version = Some(v);
        }
        self.decide(decision)
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

    #[test]
    fn kickoff_broadcasts_state_req_and_arms_timer() {
        let (t, actions) = Termination::start(
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
    fn terminal_report_decides_immediately() {
        let (mut t, _) = Termination::start(
            SiteId(2),
            spec(),
            TerminationKind::Tp1,
            1,
            LocalState::Wait,
            None,
        );
        let actions = t.on_state_rep(
            SiteId(3),
            1,
            LocalState::Committed,
            Some(Version(4)),
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
        let (mut t, _) = Termination::start(
            SiteId(2),
            spec(),
            TerminationKind::Tp1,
            1,
            LocalState::Wait,
            None,
        );
        assert!(t
            .on_state_rep(SiteId(3), 1, LocalState::Wait, None, &cat)
            .is_empty());
        let actions = t.on_state_timer(1, &cat);
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
        assert!(t.on_pa_ack(SiteId(2), &cat).is_empty());
        // s3 acks: 2 votes → abort commanded to all participants.
        let actions = t.on_pa_ack(SiteId(3), &cat);
        assert_eq!(*t.phase(), TerminationPhase::Done(Decision::Abort));
        assert!(matches!(
            actions[0],
            Action::Broadcast(_, Msg::Abort { .. })
        ));
    }

    #[test]
    fn example1_g2_blocks() {
        let cat = catalog();
        let (mut t, _) = Termination::start(
            SiteId(4),
            spec(),
            TerminationKind::Tp1,
            1,
            LocalState::Wait,
            None,
        );
        t.on_state_rep(SiteId(5), 1, LocalState::PreCommit, Some(Version(1)), &cat);
        let actions = t.on_state_timer(1, &cat);
        assert!(matches!(actions[0], Action::DeclareBlocked { .. }));
        assert_eq!(*t.phase(), TerminationPhase::Blocked);
    }

    #[test]
    fn commit_round_uses_pc_version_from_replier() {
        // Full partition with s5 in PC: commit attempt; version must come
        // from s5's report.
        let cat = catalog();
        let (mut t, _) = Termination::start(
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
            t.on_state_rep(SiteId(s), 2, st, v, &cat);
        }
        // All 8 replied → evaluates immediately (no timer needed).
        assert_eq!(*t.phase(), TerminationPhase::AwaitingPcAcks);
        // Ack from everyone in W; completion at w(x)∀x, which needs
        // s1..s4 (x) minus... s1,s2,s3,s4 hold x (4 votes ≥ 3) and
        // s5 (base) + s6,s7 hold y (3 ≥ 3).
        let mut done = false;
        for s in [1u32, 2, 3, 4, 6, 7] {
            let actions = t.on_pc_ack(SiteId(s), &cat);
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
        let (mut t, _) = Termination::start(
            SiteId(2),
            spec(),
            TerminationKind::Tp1,
            3,
            LocalState::Wait,
            None,
        );
        t.on_state_rep(SiteId(3), 3, LocalState::Wait, None, &cat);
        t.on_state_timer(3, &cat); // → AttemptAbort (r(x) among s2,s3)
                                   // Nobody acks (additional failures); window expires.
        let actions = t.on_acks_timer(3, &cat);
        assert!(matches!(actions[0], Action::RequestTermination { .. }));
        assert_eq!(*t.phase(), TerminationPhase::Failed);
    }

    #[test]
    fn stale_rounds_are_ignored() {
        let cat = catalog();
        let (mut t, _) = Termination::start(
            SiteId(2),
            spec(),
            TerminationKind::Tp1,
            5,
            LocalState::Wait,
            None,
        );
        assert!(t
            .on_state_rep(SiteId(3), 4, LocalState::Committed, None, &cat)
            .is_empty());
        assert!(t.on_state_timer(4, &cat).is_empty());
        assert_eq!(*t.phase(), TerminationPhase::CollectingStates);
    }

    #[test]
    fn decided_relay_short_circuits() {
        let (mut t, _) = Termination::start(
            SiteId(2),
            spec(),
            TerminationKind::Tp1,
            1,
            LocalState::Wait,
            None,
        );
        let actions = t.on_decided(Decision::Commit, Some(Version(3)));
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
        let (mut t, _) = Termination::start(
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
            t.on_state_rep(SiteId(s), 1, st, v, &cat);
        }
        let actions = t.on_state_timer(1, &cat);
        assert!(matches!(
            actions[0],
            Action::Broadcast(_, Msg::PrepareCommit { .. })
        ));
        // base = {s5}; acks needed: 4 more to reach Vc=5.
        for s in [1u32, 2, 3] {
            assert!(t.on_pc_ack(SiteId(s), &cat).is_empty());
        }
        let actions = t.on_pc_ack(SiteId(4), &cat);
        assert!(matches!(
            actions.first(),
            Some(Action::Broadcast(_, Msg::Commit { .. }))
        ));
    }
}
