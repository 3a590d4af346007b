//! # qbc-core — quorum-based commit and termination protocols
//!
//! The primary contribution of Huang & Li, *"A Quorum-based Commit and
//! Termination Protocol for Distributed Database Systems"* (ICDE 1988),
//! implemented as sans-IO state machines, alongside every baseline the
//! paper compares against:
//!
//! | Engine | Paper artifact |
//! |---|---|
//! | [`Coordinator`] (`ProtocolKind::TwoPhase`) | Fig. 1, 2PC |
//! | [`Coordinator`] (`ProtocolKind::ThreePhase`) | Fig. 2, Skeen's 3PC |
//! | [`Coordinator`] (`ProtocolKind::SkeenQuorum`) | Skeen's quorum commit `[16]` |
//! | [`Coordinator`] (`ProtocolKind::QuorumCommit1/2`) | Fig. 9, QC1/QC2 |
//! | [`PaxosLeader`] + [`PaxosAcceptor`] (`ProtocolKind::PaxosCommit`) | Gray & Lamport's Paxos Commit (comparison engine) |
//! | [`Participant`] | Fig. 5 "PARTICIPANTS" (all variants) |
//! | [`Termination`] + [`rules`] | Figs. 5 & 8, TP1/TP2 + baselines |
//! | [`election::Elector`] | the termination protocols' election `[7]` |
//! | [`LocalState`]/[`Transition`] | Fig. 6 state-transition diagram |
//! | [`partition_state`] | Fig. 4 partition states & concurrency sets |
//!
//! Engines are pure: they consume messages/timeouts and emit
//! [`Action`]s. The `qbc-db` crate wires them to the network, the lock
//! manager and stable storage.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod actions;
mod commit_engine;
mod coordinator;
pub mod election;
mod inline_vec;
pub mod log;
mod messages;
mod participant;
pub mod partition_state;
mod paxos_commit;
pub mod rules;
mod states;
mod termination;
mod types;
mod wal_codec;
mod xshard;

pub use actions::{Action, TimerKind};
pub use commit_engine::{CommitEngine, EngineCtx};
pub use coordinator::{CoordPhase, Coordinator};
pub use log::{LogRecord, RetiredOutcome, XRetiredOutcome};
pub use messages::Msg;
pub use participant::{FaultyMode, Participant, ParticipantConfig};
pub use paxos_commit::{recovery_ballot, PaxosAcceptor, PaxosLeader, PaxosPhase, PaxosVotes};
pub use rules::{Phase2Outcome, StateView, TerminationKind};
pub use states::{LocalState, Transition};
pub use termination::{Termination, TerminationPhase};
pub use types::{CommitVersion, Decision, ProtocolKind, SiteVotes, TxnId, TxnSpec, WriteSet};
pub use xshard::{XPhase, XTxnCoordinator};

/// Derives the termination rule set for a protocol kind.
///
/// `site_votes` must be provided for [`ProtocolKind::SkeenQuorum`].
pub fn termination_kind_for(
    protocol: ProtocolKind,
    site_votes: Option<&SiteVotes>,
) -> TerminationKind {
    match protocol {
        ProtocolKind::TwoPhase => TerminationKind::TwoPcCooperative,
        ProtocolKind::ThreePhase => TerminationKind::ThreePcSiteFailure,
        ProtocolKind::SkeenQuorum => TerminationKind::SkeenQuorum(
            site_votes
                .cloned()
                .expect("Skeen quorum protocol requires site votes"),
        ),
        ProtocolKind::QuorumCommit1 => TerminationKind::Tp1,
        ProtocolKind::QuorumCommit2 => TerminationKind::Tp2,
        // Paxos Commit replaces the quorum termination protocol with
        // Phase-1 leader recovery ([`PaxosLeader::recover`]); asking
        // for its termination rules is a driver bug.
        ProtocolKind::PaxosCommit => {
            panic!("Paxos Commit has no termination protocol: leader recovery replaces it")
        }
    }
}

#[cfg(test)]
mod kind_tests {
    use super::*;
    use qbc_simnet::SiteId;

    #[test]
    fn protocol_to_termination_mapping() {
        assert_eq!(
            termination_kind_for(ProtocolKind::TwoPhase, None),
            TerminationKind::TwoPcCooperative
        );
        assert_eq!(
            termination_kind_for(ProtocolKind::ThreePhase, None),
            TerminationKind::ThreePcSiteFailure
        );
        assert_eq!(
            termination_kind_for(ProtocolKind::QuorumCommit1, None),
            TerminationKind::Tp1
        );
        assert_eq!(
            termination_kind_for(ProtocolKind::QuorumCommit2, None),
            TerminationKind::Tp2
        );
        let sv = SiteVotes::uniform([SiteId(1)], 1, 1);
        assert!(matches!(
            termination_kind_for(ProtocolKind::SkeenQuorum, Some(&sv)),
            TerminationKind::SkeenQuorum(_)
        ));
    }

    #[test]
    #[should_panic(expected = "requires site votes")]
    fn skeen_without_votes_panics() {
        termination_kind_for(ProtocolKind::SkeenQuorum, None);
    }

    #[test]
    #[should_panic(expected = "no termination protocol")]
    fn paxos_commit_has_no_termination_protocol() {
        termination_kind_for(ProtocolKind::PaxosCommit, None);
    }
}
