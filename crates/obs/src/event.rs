//! The protocol-phase event model.
//!
//! Every observable step of the commit, termination and cross-shard
//! protocols maps onto one [`EventKind`]. The site node emits a
//! [`TraceEvent`] per step into a [`TraceSink`]; the sink decides what
//! to do with it — the bundled [`crate::Obs`] feeds flight-recorder
//! rings, phase timers, and the blocking-window tracker from the same
//! stream.

use qbc_core::{Decision, ProtocolKind, TxnId};
use qbc_simnet::{SiteId, Time};
use qbc_votes::ItemId;
use std::fmt;

/// One observable protocol step at one site.
///
/// The `Out`/`In` suffixes name the direction from the emitting site's
/// point of view: `VoteOut` is *this* site casting its vote,
/// `VoteIn` is a coordinator receiving one.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// A client submission arrived; this site coordinates.
    Submitted {
        /// Commit protocol the transaction runs.
        protocol: ProtocolKind,
    },
    /// Coordinator broadcast `VOTE-REQ` (vote solicitation).
    VoteReqOut,
    /// This site cast its vote.
    VoteOut {
        /// True = yes (entered W), false = no.
        yes: bool,
    },
    /// Coordinator received a vote.
    VoteIn {
        /// The vote's verdict.
        yes: bool,
    },
    /// Coordinator broadcast a prepare (`abort` distinguishes
    /// `PREPARE-TO-ABORT` from `PREPARE-TO-COMMIT`).
    PrepareOut {
        /// True for `PREPARE-TO-ABORT`.
        abort: bool,
    },
    /// The commit point: the coordinating site is about to force the
    /// commit decision — past this instant the transaction can no
    /// longer abort.
    CommitPoint,
    /// A cross-shard branch reached its in-shard commit point and is
    /// *held* there pending the top-level decision.
    Held,
    /// A terminal decision record is being forced to the WAL.
    DecisionLogged {
        /// The outcome being made durable.
        decision: Decision,
    },
    /// The decision command (`COMMIT`/`ABORT`) was broadcast.
    DecisionOut {
        /// The outcome announced.
        decision: Decision,
    },
    /// This site applied the decision locally (updates installed on
    /// commit, locks released either way).
    DecisionApplied {
        /// The outcome applied.
        decision: Decision,
    },
    /// Branch coordinator cast its cross-shard vote upward.
    XVoteOut {
        /// True when the branch is held at its commit point.
        yes: bool,
    },
    /// Cross-shard coordinator announced the top-level outcome to a
    /// branch.
    XDecideOut {
        /// The top-level outcome.
        decision: Decision,
    },
    /// An orphaned branch site asked the cross-shard coordinator for
    /// the outcome (`X-OUTCOME-REQ`).
    OutcomeDiscoveryOut,
    /// Paxos Commit leader/candidate broadcast its Phase-2a vote batch
    /// — the phase boundary equivalent to a prepare broadcast (the
    /// acceptor force-logs that follow are this protocol's prepares).
    PaxosProposalOut {
        /// The proposing ballot (0 = the original coordinator).
        bal: u64,
    },
    /// A Paxos Commit recovery candidate broadcast Phase 1a: leader
    /// failover started at this site (this engine's replacement for a
    /// termination election).
    PaxosRecoveryOut {
        /// The candidate's ballot (> 0).
        bal: u64,
    },
    /// This site started a termination election (coordinator silence).
    ElectionStarted,
    /// This site, as elected termination coordinator, started a
    /// termination round.
    TerminationRound {
        /// Round number (re-entrant rounds increment).
        round: u64,
    },
    /// The termination protocol declared the transaction blocked here.
    Blocked,
    /// A local copy was X-locked by an undecided transaction (pin
    /// start).
    PinStart {
        /// The pinned item.
        item: ItemId,
    },
    /// The pin on a local copy was released by the decision.
    PinEnd {
        /// The released item.
        item: ItemId,
    },
    /// A snapshot read was answered from the multi-version store at
    /// the shard watermark — locks and pins never refused it.
    SnapshotRead {
        /// Item served.
        item: ItemId,
        /// True when the coordinator answered from its own copy
        /// (no network round at all).
        local: bool,
    },
    /// A snapshot read exhausted every copy site without an answer
    /// (crashes or partition; pinned copies can never cause this).
    SnapshotReadUnavailable {
        /// Item requested.
        item: ItemId,
    },
    /// The WAL device completed a force.
    WalForce {
        /// Records made durable by this force.
        records: u64,
    },
    /// This site crashed (volatile state lost).
    Crash,
    /// This site completed crash recovery.
    Recover,
}

impl fmt::Display for EventKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EventKind::Submitted { protocol } => write!(f, "submitted proto={protocol:?}"),
            EventKind::VoteReqOut => write!(f, "vote-req-out"),
            EventKind::VoteOut { yes } => write!(f, "vote-out yes={yes}"),
            EventKind::VoteIn { yes } => write!(f, "vote-in yes={yes}"),
            EventKind::PrepareOut { abort: false } => write!(f, "prepare-commit-out"),
            EventKind::PrepareOut { abort: true } => write!(f, "prepare-abort-out"),
            EventKind::CommitPoint => write!(f, "commit-point"),
            EventKind::Held => write!(f, "held-at-commit-point"),
            EventKind::DecisionLogged { decision } => write!(f, "decision-logged {decision:?}"),
            EventKind::DecisionOut { decision } => write!(f, "decision-out {decision:?}"),
            EventKind::DecisionApplied { decision } => write!(f, "decision-applied {decision:?}"),
            EventKind::XVoteOut { yes } => write!(f, "x-vote-out yes={yes}"),
            EventKind::XDecideOut { decision } => write!(f, "x-decide-out {decision:?}"),
            EventKind::OutcomeDiscoveryOut => write!(f, "x-outcome-req-out"),
            EventKind::PaxosProposalOut { bal } => write!(f, "paxos-2a-out bal={bal}"),
            EventKind::PaxosRecoveryOut { bal } => write!(f, "paxos-1a-out bal={bal}"),
            EventKind::ElectionStarted => write!(f, "election-started"),
            EventKind::TerminationRound { round } => write!(f, "termination-round {round}"),
            EventKind::Blocked => write!(f, "blocked"),
            EventKind::PinStart { item } => write!(f, "pin-start {item}"),
            EventKind::PinEnd { item } => write!(f, "pin-end {item}"),
            EventKind::SnapshotRead { item, local } => {
                write!(f, "snapshot-read {item} local={local}")
            }
            EventKind::SnapshotReadUnavailable { item } => {
                write!(f, "snapshot-read-unavailable {item}")
            }
            EventKind::WalForce { records } => write!(f, "wal-force records={records}"),
            EventKind::Crash => write!(f, "crash"),
            EventKind::Recover => write!(f, "recover"),
        }
    }
}

/// One timestamped protocol event at one site.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// Virtual time of the step.
    pub at: Time,
    /// The site where it happened.
    pub site: SiteId,
    /// The transaction it concerns (`None` for site-level events such
    /// as crash, recovery, or a WAL force serving a whole batch).
    pub txn: Option<TxnId>,
    /// What happened.
    pub kind: EventKind,
}

impl fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{:<8} s{:<3} ", self.at.0, self.site.0)?;
        match self.txn {
            Some(t) => write!(f, "txn={:<5} ", t.0)?,
            None => write!(f, "{:10}", "-")?,
        }
        write!(f, "{}", self.kind)
    }
}

/// A consumer of protocol trace events.
///
/// Implementations must be cheap and must not call back into the
/// emitting node. `&self` because sinks are shared (`Arc`) between
/// sites and, on the reactor substrate, between worker threads.
pub trait TraceSink: Send + Sync {
    /// Consumes one event.
    fn record(&self, ev: TraceEvent);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_render_one_line() {
        let ev = TraceEvent {
            at: Time(42),
            site: SiteId(3),
            txn: Some(TxnId(7)),
            kind: EventKind::VoteOut { yes: true },
        };
        let s = ev.to_string();
        assert!(s.contains("t42"), "{s}");
        assert!(s.contains("s3"), "{s}");
        assert!(s.contains("txn=7"), "{s}");
        assert!(s.contains("vote-out yes=true"), "{s}");
    }
}
