//! The participant engine (Fig. 5 "PARTICIPANTS", shared by all
//! protocol variants).
//!
//! One `Participant` instance tracks one transaction at one site. The
//! engine implements the message handling of the paper's Fig. 5 with the
//! safe reading of the PREPARE rules (Example 3 is what the unsafe one
//! costs):
//!
//! * `PREPARE-TO-COMMIT` is honoured in `{W, PC}` (idempotent re-ack in
//!   PC), **ignored in PA**, answered with the decision in `{C, A}`;
//! * `PREPARE-TO-ABORT` is honoured in `{W, PA}`, **ignored in PC**,
//!   answered with the decision in `{C, A}`;
//! * direct `COMMIT`/`ABORT` commands are obeyed in any non-terminal
//!   state — the protocols only issue them once the opposite outcome is
//!   impossible.
//!
//! The [`FaultyMode`] switch re-creates the broken variant of Example 3
//! (answering prepares across the PC/PA wall) for the E3/E10 experiments.

use crate::actions::Action;
use crate::log::{LogRecord, RecoveredTxn};
use crate::messages::Msg;
use crate::states::{LocalState, Transition};
use crate::types::{Decision, TxnId, TxnSpec};
use qbc_simnet::SiteId;
use qbc_votes::Version;
use std::sync::Arc;

/// Whether the participant honours the PC/PA mutual-ignore rule.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum FaultyMode {
    /// Correct behaviour per Fig. 6: no PC↔PA transitions.
    #[default]
    Correct,
    /// The Example 3 counterexample: respond to PREPARE-TO-ABORT in PC
    /// and PREPARE-TO-COMMIT in PA. Demonstrably unsafe.
    AnswerAcrossWall,
}

/// Per-transaction participant configuration.
#[derive(Clone, Copy, Debug)]
pub struct ParticipantConfig {
    /// Vote yes on `VOTE-REQ`? (A site votes no when it cannot perform
    /// the update, e.g. its I/O subsystem failed.)
    pub vote_yes: bool,
    /// Fault-injection switch for Example 3.
    pub faulty: FaultyMode,
}

impl Default for ParticipantConfig {
    fn default() -> Self {
        ParticipantConfig {
            vote_yes: true,
            faulty: FaultyMode::Correct,
        }
    }
}

/// The participant state machine for one transaction at one site.
#[derive(Clone, Debug)]
pub struct Participant {
    site: SiteId,
    txn: TxnId,
    cfg: ParticipantConfig,
    spec: Option<Arc<TxnSpec>>,
    state: LocalState,
    commit_version: Option<Version>,
    /// Audit trail of every state change (consumed by experiment E6).
    transitions: Vec<Transition>,
    /// Set when a command conflicting with an irrevocable decision
    /// arrived (never in correct runs).
    conflicting_command: bool,
}

impl Participant {
    /// A fresh participant in the initial (`q`) state.
    pub fn new(site: SiteId, txn: TxnId, cfg: ParticipantConfig) -> Self {
        Participant {
            site,
            txn,
            cfg,
            spec: None,
            state: LocalState::Initial,
            commit_version: None,
            transitions: Vec::new(),
            conflicting_command: false,
        }
    }

    /// Rebuilds a participant from recovered durable state.
    pub fn from_recovery(
        site: SiteId,
        txn: TxnId,
        cfg: ParticipantConfig,
        rec: &RecoveredTxn,
    ) -> Self {
        Participant {
            site,
            txn,
            cfg,
            spec: rec.spec.clone(),
            state: rec.state,
            commit_version: rec.commit_version,
            transitions: Vec::new(),
            conflicting_command: false,
        }
    }

    /// This site's id.
    pub fn site(&self) -> SiteId {
        self.site
    }

    /// The transaction this engine tracks.
    pub fn txn(&self) -> TxnId {
        self.txn
    }

    /// Current local state.
    pub fn state(&self) -> LocalState {
        self.state
    }

    /// The spec, once known.
    pub fn spec(&self) -> Option<&TxnSpec> {
        self.spec.as_deref()
    }

    /// The commit version learned from a prepare/commit, if any.
    pub fn commit_version(&self) -> Option<Version> {
        self.commit_version
    }

    /// Every state change this engine performed (for Fig. 6 audits).
    pub fn transitions(&self) -> &[Transition] {
        &self.transitions
    }

    /// Overrides the vote this participant will cast on `VOTE-REQ`.
    ///
    /// The database node decides the vote dynamically (scripted no-votes,
    /// lock conflicts) just before feeding the request to the engine; it
    /// has no effect once the vote is cast.
    pub fn set_vote(&mut self, yes: bool) {
        self.cfg.vote_yes = yes;
    }

    /// True when a command conflicting with the local decision arrived.
    pub fn saw_conflicting_command(&self) -> bool {
        self.conflicting_command
    }

    /// The decision, once terminal.
    pub fn decision(&self) -> Option<Decision> {
        self.state.decision()
    }

    fn set_state(&mut self, to: LocalState) {
        self.transitions.push(Transition {
            from: self.state,
            to,
        });
        self.state = to;
    }

    /// Handles a protocol message addressed to the participant role.
    ///
    /// `local_max_version` is the highest version among this site's
    /// copies of the transaction's writeset items (reported in the yes
    /// vote; the coordinator derives the commit version from these).
    /// Actions are appended to the caller's scratch buffer (as
    /// everywhere on this engine: no per-event allocation in steady
    /// state).
    pub fn on_msg(
        &mut self,
        _from: SiteId,
        msg: &Msg,
        local_max_version: Version,
        out: &mut Vec<Action>,
    ) {
        match msg {
            Msg::VoteReq { spec } => self.on_vote_req(spec, local_max_version, out),
            Msg::PrepareCommit { commit_version, .. } => {
                self.on_prepare_commit(*commit_version, out)
            }
            Msg::PrepareAbort { .. } => self.on_prepare_abort(out),
            Msg::Commit { commit_version, .. } => self.on_commit(*commit_version, out),
            Msg::Abort { .. } => self.on_abort(out),
            Msg::Decided {
                decision,
                commit_version,
                ..
            } => match decision {
                Decision::Commit => match commit_version {
                    Some(v) => self.on_commit(*v, out),
                    None => out.push(Action::ViolationNote {
                        txn: self.txn,
                        note: "Decided(Commit) without version",
                    }),
                },
                Decision::Abort => self.on_abort(out),
            },
            Msg::StateReq { round, spec } => self.on_state_req(*round, spec, out),
            // Coordinator/termination/cross-shard/acceptor-role messages
            // are not ours.
            Msg::Vote { .. }
            | Msg::PcAck { .. }
            | Msg::PaAck { .. }
            | Msg::StateRep { .. }
            | Msg::XBranchReq { .. }
            | Msg::XVote { .. }
            | Msg::XDecide { .. }
            | Msg::XOutcomeReq { .. }
            | Msg::PaxosP1a { .. }
            | Msg::PaxosP1b { .. }
            | Msg::PaxosP2a { .. }
            | Msg::PaxosP2b { .. } => {}
        }
    }

    fn on_vote_req(
        &mut self,
        spec: &Arc<TxnSpec>,
        local_max_version: Version,
        out: &mut Vec<Action>,
    ) {
        match self.state {
            LocalState::Initial => {
                if self.cfg.vote_yes {
                    self.spec = Some(Arc::clone(spec));
                    self.set_state(LocalState::Wait);
                    out.push(Action::Log(LogRecord::Voted {
                        spec: Arc::clone(spec),
                    }));
                    out.push(Action::Reply(Msg::Vote {
                        txn: self.txn,
                        yes: true,
                        max_version: local_max_version,
                    }));
                } else {
                    self.set_state(LocalState::Aborted);
                    out.push(Action::Log(LogRecord::VotedNo { txn: self.txn }));
                    out.push(Action::Reply(Msg::Vote {
                        txn: self.txn,
                        yes: false,
                        max_version: local_max_version,
                    }));
                    out.push(Action::ApplyAndDecide {
                        decision: Decision::Abort,
                        commit_version: None,
                    });
                }
            }
            // Duplicate VOTE-REQ (retransmission): re-reply idempotently.
            LocalState::Wait | LocalState::PreCommit | LocalState::PreAbort => {
                out.push(Action::Reply(Msg::Vote {
                    txn: self.txn,
                    yes: true,
                    max_version: local_max_version,
                }));
            }
            LocalState::Committed | LocalState::Aborted => out.push(self.reply_decided()),
        }
    }

    fn reply_decided(&self) -> Action {
        Action::Reply(Msg::Decided {
            txn: self.txn,
            decision: self.state.decision().expect("terminal"),
            commit_version: self.commit_version,
        })
    }

    fn on_prepare_commit(&mut self, commit_version: Version, out: &mut Vec<Action>) {
        match self.state {
            LocalState::Wait => {
                self.commit_version = Some(commit_version);
                self.set_state(LocalState::PreCommit);
                out.push(Action::Log(LogRecord::PreCommit {
                    txn: self.txn,
                    commit_version,
                }));
                out.push(Action::Reply(Msg::PcAck { txn: self.txn }));
            }
            // Already in PC: idempotent re-ack (supports several
            // termination coordinators, Example 3's legal half).
            LocalState::PreCommit => out.push(Action::Reply(Msg::PcAck { txn: self.txn })),
            LocalState::PreAbort => match self.cfg.faulty {
                // The Fig. 6 rule: a PA site must ignore PREPARE-TO-COMMIT.
                FaultyMode::Correct => {}
                FaultyMode::AnswerAcrossWall => {
                    // The Example 3 bug: PA answers and moves to PC.
                    self.commit_version = Some(commit_version);
                    self.set_state(LocalState::PreCommit);
                    out.push(Action::Log(LogRecord::PreCommit {
                        txn: self.txn,
                        commit_version,
                    }));
                    out.push(Action::Reply(Msg::PcAck { txn: self.txn }));
                }
            },
            // A prepare must never precede the vote.
            LocalState::Initial => {}
            LocalState::Committed | LocalState::Aborted => out.push(self.reply_decided()),
        }
    }

    fn on_prepare_abort(&mut self, out: &mut Vec<Action>) {
        match self.state {
            LocalState::Wait => {
                self.set_state(LocalState::PreAbort);
                out.push(Action::Log(LogRecord::PreAbort { txn: self.txn }));
                out.push(Action::Reply(Msg::PaAck { txn: self.txn }));
            }
            LocalState::PreAbort => out.push(Action::Reply(Msg::PaAck { txn: self.txn })),
            LocalState::PreCommit => match self.cfg.faulty {
                FaultyMode::Correct => {}
                FaultyMode::AnswerAcrossWall => {
                    self.set_state(LocalState::PreAbort);
                    out.push(Action::Log(LogRecord::PreAbort { txn: self.txn }));
                    out.push(Action::Reply(Msg::PaAck { txn: self.txn }));
                }
            },
            LocalState::Initial => {}
            LocalState::Committed | LocalState::Aborted => out.push(self.reply_decided()),
        }
    }

    fn on_commit(&mut self, commit_version: Version, out: &mut Vec<Action>) {
        match self.state {
            LocalState::Committed => {}
            LocalState::Aborted => {
                // Irrevocable: keep the abort; flag the impossible event.
                self.conflicting_command = true;
                out.push(Action::ViolationNote {
                    txn: self.txn,
                    note: "COMMIT command arrived at an aborted participant",
                });
            }
            LocalState::Initial => {
                // Provably unreachable in the paper's protocols (a PC
                // state, prerequisite for commit, implies all voted).
                // Defensive: we cannot apply updates we never received.
                out.push(Action::ViolationNote {
                    txn: self.txn,
                    note: "COMMIT command arrived at a participant in q",
                });
            }
            LocalState::Wait | LocalState::PreCommit | LocalState::PreAbort => {
                self.commit_version = Some(commit_version);
                self.set_state(LocalState::Committed);
                out.push(Action::Log(LogRecord::Decided {
                    txn: self.txn,
                    decision: Decision::Commit,
                    commit_version: Some(commit_version),
                }));
                out.push(Action::ApplyAndDecide {
                    decision: Decision::Commit,
                    commit_version: Some(commit_version),
                });
            }
        }
    }

    fn on_abort(&mut self, out: &mut Vec<Action>) {
        match self.state {
            LocalState::Aborted => {}
            LocalState::Committed => {
                self.conflicting_command = true;
                out.push(Action::ViolationNote {
                    txn: self.txn,
                    note: "ABORT command arrived at a committed participant",
                });
            }
            LocalState::Initial
            | LocalState::Wait
            | LocalState::PreCommit
            | LocalState::PreAbort => {
                self.set_state(LocalState::Aborted);
                out.push(Action::Log(LogRecord::Decided {
                    txn: self.txn,
                    decision: Decision::Abort,
                    commit_version: None,
                }));
                out.push(Action::ApplyAndDecide {
                    decision: Decision::Abort,
                    commit_version: None,
                });
            }
        }
    }

    fn on_state_req(&mut self, round: u64, spec: &Arc<TxnSpec>, out: &mut Vec<Action>) {
        // A site that never saw VOTE-REQ learns the spec here, so it can
        // serve as a termination coordinator if elected.
        if self.spec.is_none() {
            self.spec = Some(Arc::clone(spec));
        }
        // An unvoted site answering a termination STATE-REQ casts a
        // veto, and the veto must be irrevocable *before* it is spoken.
        self.veto_abort(out);
        out.push(Action::Reply(Msg::StateRep {
            txn: self.txn,
            round,
            state: self.state,
            pc_version: if self.state.is_committable() {
                self.commit_version
            } else {
                None
            },
        }));
    }

    /// The unvoted-site veto, made durable and irrevocable: a
    /// participant still in `q` that engages in the termination
    /// protocol — answering a `STATE-REQ`, or starting a round as an
    /// elected leader — contributes an abort-leaning state to some
    /// leader's view, so it must never vote yes afterwards. Model
    /// checking found the window this closes: reply (or seed) `q`,
    /// *then* receive the late `VOTE-REQ` and vote yes — the leader
    /// aborts on the veto while the coordinator commits on the vote.
    /// Logging `VotedNo` before the reply leaves closes the crash
    /// window too (a recovered site replays the no-vote instead of
    /// forgetting it ever vetoed). No-op in any other state.
    pub fn veto_abort(&mut self, out: &mut Vec<Action>) {
        if self.state != LocalState::Initial {
            return;
        }
        self.set_state(LocalState::Aborted);
        out.push(Action::Log(LogRecord::VotedNo { txn: self.txn }));
        out.push(Action::ApplyAndDecide {
            decision: Decision::Abort,
            commit_version: None,
        });
    }

    /// The coordinator has been silent for `3T` after our last message to
    /// it (Fig. 5 participant event 6): request the termination protocol.
    pub fn on_coordinator_silent(&mut self, out: &mut Vec<Action>) {
        if !(self.state.is_terminal() || self.state == LocalState::Initial) {
            out.push(Action::RequestTermination { txn: self.txn });
        }
    }
}

/// Collecting wrappers for unit tests: same engine calls, fresh buffer
/// per call (production code passes a reused scratch buffer instead).
#[cfg(test)]
impl Participant {
    pub(crate) fn on_msg_v(
        &mut self,
        from: SiteId,
        msg: &Msg,
        local_max_version: Version,
    ) -> Vec<Action> {
        let mut v = Vec::new();
        self.on_msg(from, msg, local_max_version, &mut v);
        v
    }

    fn on_coordinator_silent_v(&mut self) -> Vec<Action> {
        let mut v = Vec::new();
        self.on_coordinator_silent(&mut v);
        v
    }
}

/// Canonical state hash for the model checker's visited-set.
///
/// Hashes the behavioural state — local protocol state, adopted commit
/// version, the vote this participant will cast, whether it has seen
/// the spec, and the conflicting-command violation flag. The
/// `transitions` audit trail is deliberately excluded: it is pure
/// history, and hashing it would make every distinct path hash distinct,
/// destroying the state merging that keeps exhaustive search tractable.
impl qbc_simnet::Fingerprint for Participant {
    fn fingerprint(&self, _now: qbc_simnet::Time, h: &mut qbc_simnet::FastHasher) {
        use std::hash::Hasher;
        h.write(
            format!(
                "{:?}|{:?}|{:?}|{}|{}",
                self.state,
                self.commit_version,
                self.cfg,
                self.spec.is_some(),
                self.conflicting_command
            )
            .as_bytes(),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{ProtocolKind, WriteSet};
    use qbc_votes::ItemId;

    fn spec() -> Arc<TxnSpec> {
        Arc::new(TxnSpec {
            id: TxnId(1),
            coordinator: SiteId(0),
            writeset: WriteSet::new([(ItemId(0), 42)]),
            participants: [SiteId(0), SiteId(1), SiteId(2)].into(),
            protocol: ProtocolKind::QuorumCommit1,
            parent: None,
        })
    }

    fn fresh() -> Participant {
        Participant::new(SiteId(1), TxnId(1), ParticipantConfig::default())
    }

    fn coordinator() -> SiteId {
        SiteId(0)
    }

    #[test]
    fn yes_vote_logs_before_replying() {
        let mut p = fresh();
        let out = p.on_msg_v(coordinator(), &Msg::VoteReq { spec: spec() }, Version(3));
        assert!(matches!(out[0], Action::Log(LogRecord::Voted { .. })));
        assert!(matches!(
            out[1],
            Action::Reply(Msg::Vote {
                yes: true,
                max_version: Version(3),
                ..
            })
        ));
        assert_eq!(p.state(), LocalState::Wait);
    }

    #[test]
    fn no_vote_aborts_immediately() {
        let mut p = Participant::new(
            SiteId(1),
            TxnId(1),
            ParticipantConfig {
                vote_yes: false,
                faulty: FaultyMode::Correct,
            },
        );
        let out = p.on_msg_v(coordinator(), &Msg::VoteReq { spec: spec() }, Version(0));
        assert_eq!(p.state(), LocalState::Aborted);
        assert!(out
            .iter()
            .any(|a| matches!(a, Action::Reply(Msg::Vote { yes: false, .. }))));
        assert!(out.iter().any(|a| matches!(
            a,
            Action::ApplyAndDecide {
                decision: Decision::Abort,
                ..
            }
        )));
    }

    fn to_wait(p: &mut Participant) {
        p.on_msg_v(coordinator(), &Msg::VoteReq { spec: spec() }, Version(0));
        assert_eq!(p.state(), LocalState::Wait);
    }

    #[test]
    fn prepare_commit_moves_w_to_pc() {
        let mut p = fresh();
        to_wait(&mut p);
        let out = p.on_msg_v(
            coordinator(),
            &Msg::PrepareCommit {
                txn: TxnId(1),
                commit_version: Version(5),
            },
            Version(0),
        );
        assert_eq!(p.state(), LocalState::PreCommit);
        assert_eq!(p.commit_version(), Some(Version(5)));
        assert!(matches!(out[0], Action::Log(LogRecord::PreCommit { .. })));
        assert!(matches!(out[1], Action::Reply(Msg::PcAck { .. })));
    }

    #[test]
    fn pc_ignores_prepare_abort_the_fig6_rule() {
        let mut p = fresh();
        to_wait(&mut p);
        p.on_msg_v(
            coordinator(),
            &Msg::PrepareCommit {
                txn: TxnId(1),
                commit_version: Version(5),
            },
            Version(0),
        );
        let out = p.on_msg_v(SiteId(2), &Msg::PrepareAbort { txn: TxnId(1) }, Version(0));
        assert!(out.is_empty(), "PC must ignore PREPARE-TO-ABORT");
        assert_eq!(p.state(), LocalState::PreCommit);
        assert!(p.transitions().iter().all(Transition::is_legal));
    }

    #[test]
    fn pa_ignores_prepare_commit_the_fig6_rule() {
        let mut p = fresh();
        to_wait(&mut p);
        p.on_msg_v(SiteId(2), &Msg::PrepareAbort { txn: TxnId(1) }, Version(0));
        assert_eq!(p.state(), LocalState::PreAbort);
        let out = p.on_msg_v(
            SiteId(3),
            &Msg::PrepareCommit {
                txn: TxnId(1),
                commit_version: Version(5),
            },
            Version(0),
        );
        assert!(out.is_empty(), "PA must ignore PREPARE-TO-COMMIT");
        assert_eq!(p.state(), LocalState::PreAbort);
    }

    #[test]
    fn faulty_mode_answers_across_the_wall() {
        let mut p = Participant::new(
            SiteId(1),
            TxnId(1),
            ParticipantConfig {
                vote_yes: true,
                faulty: FaultyMode::AnswerAcrossWall,
            },
        );
        to_wait(&mut p);
        p.on_msg_v(SiteId(2), &Msg::PrepareAbort { txn: TxnId(1) }, Version(0));
        assert_eq!(p.state(), LocalState::PreAbort);
        let out = p.on_msg_v(
            SiteId(3),
            &Msg::PrepareCommit {
                txn: TxnId(1),
                commit_version: Version(5),
            },
            Version(0),
        );
        assert!(
            out.iter()
                .any(|a| matches!(a, Action::Reply(Msg::PcAck { .. }))),
            "faulty participant acks PREPARE-TO-COMMIT in PA"
        );
        assert_eq!(p.state(), LocalState::PreCommit);
        // The audit trail records the illegal transition.
        assert!(p.transitions().iter().any(|t| !t.is_legal()));
    }

    #[test]
    fn re_ack_in_pc_is_idempotent() {
        let mut p = fresh();
        to_wait(&mut p);
        for _ in 0..2 {
            let out = p.on_msg_v(
                coordinator(),
                &Msg::PrepareCommit {
                    txn: TxnId(1),
                    commit_version: Version(5),
                },
                Version(0),
            );
            assert!(out
                .iter()
                .any(|a| matches!(a, Action::Reply(Msg::PcAck { .. }))));
        }
        // Only one log record (first transition), one transition recorded.
        assert_eq!(
            p.transitions()
                .iter()
                .filter(|t| t.to == LocalState::PreCommit)
                .count(),
            1
        );
    }

    #[test]
    fn commit_command_from_pa_is_obeyed() {
        let mut p = fresh();
        to_wait(&mut p);
        p.on_msg_v(SiteId(2), &Msg::PrepareAbort { txn: TxnId(1) }, Version(0));
        let out = p.on_msg_v(
            SiteId(3),
            &Msg::Commit {
                txn: TxnId(1),
                commit_version: Version(9),
            },
            Version(0),
        );
        assert_eq!(p.state(), LocalState::Committed);
        assert!(out.iter().any(|a| matches!(
            a,
            Action::ApplyAndDecide {
                decision: Decision::Commit,
                ..
            }
        )));
        assert!(p.transitions().iter().all(Transition::is_legal));
    }

    #[test]
    fn abort_command_from_pc_is_obeyed() {
        let mut p = fresh();
        to_wait(&mut p);
        p.on_msg_v(
            coordinator(),
            &Msg::PrepareCommit {
                txn: TxnId(1),
                commit_version: Version(5),
            },
            Version(0),
        );
        p.on_msg_v(SiteId(2), &Msg::Abort { txn: TxnId(1) }, Version(0));
        assert_eq!(p.state(), LocalState::Aborted);
        assert!(p.transitions().iter().all(Transition::is_legal));
    }

    #[test]
    fn terminated_participant_reannounces_decision() {
        let mut p = fresh();
        to_wait(&mut p);
        p.on_msg_v(SiteId(2), &Msg::Abort { txn: TxnId(1) }, Version(0));
        let out = p.on_msg_v(
            SiteId(3),
            &Msg::PrepareCommit {
                txn: TxnId(1),
                commit_version: Version(5),
            },
            Version(0),
        );
        assert!(matches!(
            out[0],
            Action::Reply(Msg::Decided {
                decision: Decision::Abort,
                ..
            })
        ));
    }

    #[test]
    fn conflicting_command_is_flagged_not_obeyed() {
        let mut p = fresh();
        to_wait(&mut p);
        p.on_msg_v(SiteId(2), &Msg::Abort { txn: TxnId(1) }, Version(0));
        let out = p.on_msg_v(
            SiteId(3),
            &Msg::Commit {
                txn: TxnId(1),
                commit_version: Version(9),
            },
            Version(0),
        );
        assert_eq!(p.state(), LocalState::Aborted, "decision is irrevocable");
        assert!(p.saw_conflicting_command());
        assert!(matches!(out[0], Action::ViolationNote { .. }));
    }

    #[test]
    fn state_req_teaches_spec_and_vetoes_an_unvoted_site() {
        let mut p = fresh();
        assert!(p.spec().is_none());
        let out = p.on_msg_v(
            SiteId(2),
            &Msg::StateReq {
                round: 1,
                spec: spec(),
            },
            Version(0),
        );
        assert!(p.spec().is_some());
        // The veto is durable and irrevocable *before* the reply: the
        // no-vote is logged, the local abort applied, and the reported
        // state is already `a` — never `q` followed by a later yes
        // (the commit/abort split the model checker found).
        assert!(matches!(out[0], Action::Log(LogRecord::VotedNo { .. })));
        assert!(matches!(
            out[1],
            Action::ApplyAndDecide {
                decision: Decision::Abort,
                ..
            }
        ));
        assert!(matches!(
            out[2],
            Action::Reply(Msg::StateRep {
                state: LocalState::Aborted,
                round: 1,
                ..
            })
        ));
        assert_eq!(p.state(), LocalState::Aborted);
        // A late VOTE-REQ now draws the decided-abort reply, not a yes.
        let out = p.on_msg_v(coordinator(), &Msg::VoteReq { spec: spec() }, Version(0));
        assert!(matches!(
            out[0],
            Action::Reply(Msg::Decided {
                decision: Decision::Abort,
                ..
            })
        ));
    }

    #[test]
    fn state_rep_from_pc_carries_version() {
        let mut p = fresh();
        to_wait(&mut p);
        p.on_msg_v(
            coordinator(),
            &Msg::PrepareCommit {
                txn: TxnId(1),
                commit_version: Version(5),
            },
            Version(0),
        );
        let out = p.on_msg_v(
            SiteId(2),
            &Msg::StateReq {
                round: 2,
                spec: spec(),
            },
            Version(0),
        );
        assert!(matches!(
            out[0],
            Action::Reply(Msg::StateRep {
                state: LocalState::PreCommit,
                pc_version: Some(Version(5)),
                ..
            })
        ));
    }

    #[test]
    fn watchdog_requests_termination_only_when_undecided() {
        let mut p = fresh();
        assert!(p.on_coordinator_silent_v().is_empty(), "q site stays quiet");
        to_wait(&mut p);
        let out = p.on_coordinator_silent_v();
        assert!(matches!(out[0], Action::RequestTermination { .. }));
        p.on_msg_v(SiteId(2), &Msg::Abort { txn: TxnId(1) }, Version(0));
        assert!(
            p.on_coordinator_silent_v().is_empty(),
            "terminal stays quiet"
        );
    }

    #[test]
    fn recovery_restores_state_and_version() {
        let rec = RecoveredTxn {
            spec: Some(spec()),
            state: LocalState::PreCommit,
            commit_version: Some(Version(7)),
        };
        let p = Participant::from_recovery(SiteId(1), TxnId(1), ParticipantConfig::default(), &rec);
        assert_eq!(p.state(), LocalState::PreCommit);
        assert_eq!(p.commit_version(), Some(Version(7)));
    }

    #[test]
    fn duplicate_vote_req_is_idempotent() {
        let mut p = fresh();
        to_wait(&mut p);
        let out = p.on_msg_v(coordinator(), &Msg::VoteReq { spec: spec() }, Version(2));
        assert_eq!(out.len(), 1);
        assert!(matches!(out[0], Action::Reply(Msg::Vote { yes: true, .. })));
        assert_eq!(p.state(), LocalState::Wait);
    }
}
