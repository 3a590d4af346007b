//! The protocol message vocabulary (Figs. 1, 2, 5, 8, 9).

use crate::states::LocalState;
use crate::types::{Decision, TxnId, TxnSpec};
use qbc_simnet::{Label, SiteId};
use qbc_votes::Version;
use std::sync::Arc;

/// All messages exchanged by the commit and termination protocols.
///
/// One vocabulary serves every protocol variant: 2PC never sends
/// `PrepareCommit`; only the termination protocols send `PrepareAbort`
/// and `StateReq`.
#[derive(Clone, Debug, PartialEq)]
pub enum Msg {
    /// Coordinator → participants: the transaction spec (update values
    /// included); "vote on this transaction".
    ///
    /// The spec is built once per transaction and shared by reference
    /// (`Arc`) across every copy of the fan-out — cloning the message
    /// per recipient costs a refcount bump, not a writeset copy.
    VoteReq {
        /// Full transaction description, logged by the participant.
        spec: Arc<TxnSpec>,
    },
    /// Participant → coordinator: yes/no vote. A yes carries the local
    /// version of the highest-versioned writeset copy at the voter, from
    /// which the coordinator derives the commit version.
    Vote {
        /// Transaction voted on.
        txn: TxnId,
        /// True = yes (enter W), false = no (abort).
        yes: bool,
        /// Highest local version among the voter's writeset copies.
        max_version: Version,
    },
    /// Coordinator → participants: enter PC (3PC/QC/termination).
    PrepareCommit {
        /// Transaction.
        txn: TxnId,
        /// The version every copy will carry after commit.
        commit_version: Version,
    },
    /// Participant → sender of `PrepareCommit`: now in PC.
    PcAck {
        /// Transaction.
        txn: TxnId,
    },
    /// Termination coordinator → participants: enter PA.
    PrepareAbort {
        /// Transaction.
        txn: TxnId,
    },
    /// Participant → sender of `PrepareAbort`: now in PA.
    PaAck {
        /// Transaction.
        txn: TxnId,
    },
    /// Commit command (normal case or termination).
    Commit {
        /// Transaction.
        txn: TxnId,
        /// Version installed on every written copy.
        commit_version: Version,
    },
    /// Abort command (normal case or termination).
    Abort {
        /// Transaction.
        txn: TxnId,
    },
    /// Termination coordinator → participants: report your local state
    /// (phase 1 of Figs. 5/8). Carries the spec so that participants
    /// that never saw `VoteReq` can still answer (they report `q`).
    StateReq {
        /// Round of the termination attempt (guards stale replies).
        round: u64,
        /// Transaction description (shared, like [`Msg::VoteReq`]'s).
        spec: Arc<TxnSpec>,
    },
    /// Participant → termination coordinator: local state report.
    StateRep {
        /// Transaction.
        txn: TxnId,
        /// Round this reply answers.
        round: u64,
        /// The participant's current local state.
        state: LocalState,
        /// When in PC: the commit version it learned, so a termination
        /// coordinator in W can issue a correct `Commit`.
        pc_version: Option<Version>,
    },
    /// A terminated participant re-announcing the outcome to anyone who
    /// still asks. An engineering addition: Fig. 5 has a participant in
    /// `{C, A}` answer a late prepare or state request with its
    /// decision but names no message for the answer.
    Decided {
        /// Transaction.
        txn: TxnId,
        /// The irrevocable outcome.
        decision: Decision,
        /// Commit version when the decision is Commit.
        commit_version: Option<Version>,
    },
    /// Cross-shard coordinator → branch coordinator: run the in-shard
    /// commit protocol for this branch and report your vote. The spec
    /// carries `parent` (the cross-shard coordinator's site), so the
    /// whole branch knows where the outcome authority lives.
    XBranchReq {
        /// The branch's transaction spec (one shard's slice of the
        /// cross-shard writeset; shared like [`Msg::VoteReq`]'s).
        spec: Arc<TxnSpec>,
        /// Coordinators of the *other* branches. An orphaned branch asks
        /// them for the outcome alongside the parent: any branch that
        /// learned the top-level decision can answer, so a crashed
        /// parent no longer leaves the shard blocked until recovery.
        siblings: Vec<SiteId>,
    },
    /// Branch coordinator → cross-shard coordinator: this shard's
    /// resource-manager vote. A yes means the branch reached its
    /// in-shard commit point and is *held* there; the branch can no
    /// longer abort unilaterally.
    XVote {
        /// Cross-shard transaction.
        txn: TxnId,
        /// True = this shard can commit (held at its commit point).
        yes: bool,
        /// The branch's in-shard commit version (yes votes only).
        commit_version: Option<Version>,
    },
    /// Cross-shard coordinator → a branch site: the top-level decision.
    /// Sent to every branch coordinator once decided (and re-announced
    /// on recovery), and to any site that asks via [`Msg::XOutcomeReq`].
    XDecide {
        /// Cross-shard transaction.
        txn: TxnId,
        /// The irrevocable top-level outcome.
        decision: Decision,
        /// The *recipient's branch* commit version when committing.
        commit_version: Option<Version>,
    },
    /// An orphaned branch site → cross-shard coordinator: what happened
    /// to this transaction? (The branch replacement for the in-shard
    /// termination protocol: a held branch may not decide unilaterally,
    /// so coordinator silence triggers outcome discovery instead of an
    /// election.) Answered with [`Msg::XDecide`] once decided; ignored
    /// while undecided (the asker's watchdog retries).
    XOutcomeReq {
        /// Cross-shard transaction.
        txn: TxnId,
    },
    /// Paxos Commit, recovery candidate → acceptors: Phase-1a prepare at
    /// ballot `bal` for *every* vote instance of `txn` at once (Gray &
    /// Lamport run one Paxos instance per participant's vote; a single
    /// batched message carries the round for all of them). Carries the
    /// spec so acceptors that never saw `VoteReq` can still answer.
    PaxosP1a {
        /// Transaction whose vote instances are being recovered.
        txn: TxnId,
        /// Candidate's ballot (> 0; ballot 0 is the original leader's).
        bal: u64,
        /// Transaction description (shared, like [`Msg::VoteReq`]'s).
        spec: Arc<TxnSpec>,
    },
    /// Paxos Commit, acceptor → recovery candidate: Phase-1b promise at
    /// `bal`, reporting for each vote instance the highest-ballot value
    /// this acceptor has accepted (instances it never accepted in are
    /// simply absent — the candidate applies presumed abort to any
    /// instance no quorum member reports).
    PaxosP1b {
        /// Transaction.
        txn: TxnId,
        /// Ballot this promise answers.
        bal: u64,
        /// Accepted values: `(instance participant, accepted ballot,
        /// prepared?, reported max version)` per instance.
        accepted: Vec<(SiteId, u64, bool, Version)>,
    },
    /// Paxos Commit, leader → acceptors: Phase-2a at ballot `bal`,
    /// proposing a value for every vote instance in one batched message
    /// (one entry per participant's vote).
    PaxosP2a {
        /// Transaction.
        txn: TxnId,
        /// Proposing ballot (0 from the original coordinator; higher
        /// from a recovery candidate).
        bal: u64,
        /// Proposed values: `(instance participant, prepared?, reported
        /// max version)` per instance.
        votes: Vec<(SiteId, bool, Version)>,
    },
    /// Paxos Commit, acceptor → leader: Phase-2b, echoing the accepted
    /// values after force-logging them.
    PaxosP2b {
        /// Transaction.
        txn: TxnId,
        /// Ballot accepted at.
        bal: u64,
        /// The values this acceptor accepted (echo of the 2a batch).
        votes: Vec<(SiteId, bool, Version)>,
    },
}

impl Msg {
    /// The transaction this message is about.
    pub fn txn(&self) -> TxnId {
        match self {
            Msg::VoteReq { spec } => spec.id,
            Msg::StateReq { spec, .. } => spec.id,
            Msg::XBranchReq { spec, .. } => spec.id,
            Msg::PaxosP1a { spec, .. } => spec.id,
            Msg::Vote { txn, .. }
            | Msg::PrepareCommit { txn, .. }
            | Msg::PcAck { txn }
            | Msg::PrepareAbort { txn }
            | Msg::PaAck { txn }
            | Msg::Commit { txn, .. }
            | Msg::Abort { txn }
            | Msg::StateRep { txn, .. }
            | Msg::Decided { txn, .. }
            | Msg::XVote { txn, .. }
            | Msg::XDecide { txn, .. }
            | Msg::XOutcomeReq { txn }
            | Msg::PaxosP1b { txn, .. }
            | Msg::PaxosP2a { txn, .. }
            | Msg::PaxosP2b { txn, .. } => *txn,
        }
    }
}

impl Label for Msg {
    fn label(&self) -> &'static str {
        match self {
            Msg::VoteReq { .. } => "VOTE-REQ",
            Msg::Vote { yes: true, .. } => "VOTE-YES",
            Msg::Vote { yes: false, .. } => "VOTE-NO",
            Msg::PrepareCommit { .. } => "PREPARE-TO-COMMIT",
            Msg::PcAck { .. } => "PC-ACK",
            Msg::PrepareAbort { .. } => "PREPARE-TO-ABORT",
            Msg::PaAck { .. } => "PA-ACK",
            Msg::Commit { .. } => "COMMIT",
            Msg::Abort { .. } => "ABORT",
            Msg::StateReq { .. } => "STATE-REQ",
            Msg::StateRep { .. } => "STATE-REP",
            Msg::Decided { .. } => "DECIDED",
            Msg::XBranchReq { .. } => "X-BRANCH-REQ",
            Msg::XVote { yes: true, .. } => "X-VOTE-YES",
            Msg::XVote { yes: false, .. } => "X-VOTE-NO",
            Msg::XDecide { .. } => "X-DECIDE",
            Msg::XOutcomeReq { .. } => "X-OUTCOME-REQ",
            Msg::PaxosP1a { .. } => "PAXOS-1A",
            Msg::PaxosP1b { .. } => "PAXOS-1B",
            Msg::PaxosP2a { .. } => "PAXOS-2A",
            Msg::PaxosP2b { .. } => "PAXOS-2B",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{ProtocolKind, WriteSet};
    use qbc_simnet::SiteId;

    fn spec() -> Arc<TxnSpec> {
        Arc::new(TxnSpec {
            id: TxnId(7),
            coordinator: SiteId(1),
            writeset: WriteSet::default(),
            participants: Default::default(),
            protocol: ProtocolKind::QuorumCommit1,
            parent: None,
        })
    }

    #[test]
    fn txn_accessor_covers_all_variants() {
        let msgs = [
            Msg::VoteReq { spec: spec() },
            Msg::Vote {
                txn: TxnId(7),
                yes: true,
                max_version: Version(0),
            },
            Msg::PrepareCommit {
                txn: TxnId(7),
                commit_version: Version(1),
            },
            Msg::PcAck { txn: TxnId(7) },
            Msg::PrepareAbort { txn: TxnId(7) },
            Msg::PaAck { txn: TxnId(7) },
            Msg::Commit {
                txn: TxnId(7),
                commit_version: Version(1),
            },
            Msg::Abort { txn: TxnId(7) },
            Msg::StateReq {
                round: 1,
                spec: spec(),
            },
            Msg::StateRep {
                txn: TxnId(7),
                round: 1,
                state: LocalState::Wait,
                pc_version: None,
            },
            Msg::Decided {
                txn: TxnId(7),
                decision: Decision::Commit,
                commit_version: Some(Version(1)),
            },
            Msg::XBranchReq {
                spec: spec(),
                siblings: vec![SiteId(3)],
            },
            Msg::XVote {
                txn: TxnId(7),
                yes: true,
                commit_version: Some(Version(1)),
            },
            Msg::XDecide {
                txn: TxnId(7),
                decision: Decision::Abort,
                commit_version: None,
            },
            Msg::XOutcomeReq { txn: TxnId(7) },
            Msg::PaxosP1a {
                txn: TxnId(7),
                bal: 3,
                spec: spec(),
            },
            Msg::PaxosP1b {
                txn: TxnId(7),
                bal: 3,
                accepted: vec![(SiteId(2), 0, true, Version(4))],
            },
            Msg::PaxosP2a {
                txn: TxnId(7),
                bal: 0,
                votes: vec![(SiteId(2), true, Version(4))],
            },
            Msg::PaxosP2b {
                txn: TxnId(7),
                bal: 0,
                votes: vec![(SiteId(2), true, Version(4))],
            },
        ];
        for m in &msgs {
            assert_eq!(m.txn(), TxnId(7), "{m:?}");
        }
    }

    #[test]
    fn labels_distinguish_vote_outcomes() {
        let yes = Msg::Vote {
            txn: TxnId(1),
            yes: true,
            max_version: Version(0),
        };
        let no = Msg::Vote {
            txn: TxnId(1),
            yes: false,
            max_version: Version(0),
        };
        assert_eq!(yes.label(), "VOTE-YES");
        assert_eq!(no.label(), "VOTE-NO");
    }

    #[test]
    fn labels_match_paper_vocabulary() {
        assert_eq!(
            Msg::PrepareCommit {
                txn: TxnId(0),
                commit_version: Version(0)
            }
            .label(),
            "PREPARE-TO-COMMIT"
        );
        assert_eq!(Msg::PaAck { txn: TxnId(0) }.label(), "PA-ACK");
    }
}
