//! Effects emitted by the sans-IO protocol engines.
//!
//! Engines never touch the network, the clock or the disk: they return
//! [`Action`]s which the driver (the `qbc-db` site node, or a unit test)
//! applies. This keeps every protocol rule a pure, exhaustively testable
//! function.

use crate::log::LogRecord;
use crate::messages::Msg;
use crate::types::{Decision, TxnId};
use qbc_simnet::SiteId;
use qbc_votes::Version;

/// Timers requested by engines. Spans are fixed multiples of the network
/// bound `T` (the driver owns the mapping): vote/ack/state collection use
/// `2T` (Figs. 5/8 phase 2–3), the coordinator watchdog `3T` (participant
/// event 6), blocked-retry a longer span chosen by the driver.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TimerKind {
    /// Coordinator collecting votes (`2T`).
    VoteCollection {
        /// Transaction.
        txn: TxnId,
    },
    /// Coordinator collecting PC-ACKs (`2T`).
    AckCollection {
        /// Transaction.
        txn: TxnId,
    },
    /// Participant watchdog: coordinator silent for `3T`.
    CoordinatorWatch {
        /// Transaction.
        txn: TxnId,
    },
    /// Termination coordinator collecting state reports (`2T`).
    StateCollection {
        /// Transaction.
        txn: TxnId,
        /// Termination round.
        round: u64,
    },
    /// Termination coordinator collecting prepare acks (`2T`).
    TerminationAcks {
        /// Transaction.
        txn: TxnId,
        /// Termination round.
        round: u64,
    },
    /// Re-poll a blocked transaction after topology may have changed.
    BlockedRetry {
        /// Transaction.
        txn: TxnId,
    },
    /// Cross-shard coordinator collecting branch votes (long enough for
    /// a full in-shard vote + prepare round per branch; the driver maps
    /// it to a multiple of `2T`).
    XVoteCollection {
        /// Cross-shard transaction.
        txn: TxnId,
    },
    /// Paxos Commit recovery candidate collecting Phase-1b promises
    /// (`2T`).
    Paxos1bCollection {
        /// Transaction.
        txn: TxnId,
        /// Candidate's ballot.
        bal: u64,
    },
    /// Paxos Commit leader collecting Phase-2b acceptances (`2T`).
    Paxos2bCollection {
        /// Transaction.
        txn: TxnId,
        /// Leader's ballot.
        bal: u64,
    },
    /// Elector waiting for `ELECTION-ALIVE` from a higher site (`2T`).
    ElectionAlive {
        /// Transaction.
        txn: TxnId,
        /// Election round.
        round: u64,
    },
    /// Elector that heard `ELECTION-ALIVE`, waiting for the higher
    /// site's `ELECTION-COORD` (`2T` more).
    ElectionCoordinator {
        /// Transaction.
        txn: TxnId,
        /// Election round.
        round: u64,
    },
}

/// An effect requested by a protocol engine.
#[derive(Clone, Debug, PartialEq)]
pub enum Action {
    /// Reply to the sender of the input currently being processed.
    Reply(Msg),
    /// Send to a specific site.
    Send(SiteId, Msg),
    /// Send a copy to every listed site (the driver may deliver the
    /// self-addressed copy locally).
    Broadcast(Vec<SiteId>, Msg),
    /// Force-write a log record before any subsequent send is performed.
    Log(LogRecord),
    /// The local participant reached a terminal decision: apply updates
    /// (on commit), release locks, mark the transaction done.
    ApplyAndDecide {
        /// The outcome.
        decision: Decision,
        /// Version to install on written copies (commit only).
        commit_version: Option<Version>,
    },
    /// Arm a timer.
    SetTimer(TimerKind),
    /// The engine wants the termination protocol to run (watchdog fired,
    /// commit coordinator gave up, or a termination round failed and
    /// Fig. 5 says "start the election protocol").
    RequestTermination {
        /// Transaction.
        txn: TxnId,
    },
    /// This site won the election for `txn`'s termination coordinator
    /// and runs the next termination round.
    Elected {
        /// Transaction.
        txn: TxnId,
    },
    /// The termination protocol evaluated its rules and must block
    /// (Fig. 5 phase 2, final branch).
    DeclareBlocked {
        /// Transaction.
        txn: TxnId,
    },
    /// Diagnostic: something happened that the protocol proofs say is
    /// impossible (e.g. a commit command arriving at an aborted site).
    /// Harnesses collect these; correct runs produce none.
    ViolationNote {
        /// Transaction.
        txn: TxnId,
        /// Human-readable description.
        note: &'static str,
    },
}
