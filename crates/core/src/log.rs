//! Log records forced to stable storage at each protocol transition.
//!
//! The rule: a participant logs *before* acknowledging. What the log
//! contains after a crash is exactly what the participant may claim to
//! remember; recovery replays these records to rebuild the local state
//! (see [`recover_state`]).

use crate::messages::Msg;
use crate::states::LocalState;
use crate::types::{Decision, TxnId, TxnSpec};
use qbc_votes::Version;
use std::sync::Arc;

/// A force-written log record of the commit/termination protocols.
#[derive(Clone, Debug, PartialEq)]
pub enum LogRecord {
    /// Written by the coordinator before soliciting votes: makes the
    /// spec (and this site's coordinatorship) durable, so a recovering
    /// coordinator can apply presumed-abort (2PC) or re-announce a
    /// logged decision — even when it holds no copies itself.
    CoordinatorStart {
        /// The transaction spec being coordinated (shared with the
        /// engines and messages; a durable record conceptually owns its
        /// bytes, which the `Arc` preserves — the spec is immutable).
        spec: Arc<TxnSpec>,
    },
    /// Voted yes: the spec (with update values) is durable; state W.
    Voted {
        /// The transaction spec as received in `VOTE-REQ`.
        spec: Arc<TxnSpec>,
    },
    /// Voted no / aborted before voting; state A.
    VotedNo {
        /// Transaction.
        txn: TxnId,
    },
    /// Entered PC (acknowledged a PREPARE-TO-COMMIT).
    PreCommit {
        /// Transaction.
        txn: TxnId,
        /// The commit version learned from the prepare.
        commit_version: Version,
    },
    /// Entered PA (acknowledged a PREPARE-TO-ABORT).
    PreAbort {
        /// Transaction.
        txn: TxnId,
    },
    /// Terminal decision (commit or abort).
    Decided {
        /// Transaction.
        txn: TxnId,
        /// Outcome.
        decision: Decision,
        /// Version installed when committing.
        commit_version: Option<Version>,
    },
    /// Written by a *cross-shard* coordinator before soliciting branch
    /// votes: the branch specs (and this site's cross-shard
    /// coordinatorship) are durable, so recovery can apply top-level
    /// presumed abort — the absence of a durable [`LogRecord::XDecision`]
    /// proves no `X-DECIDE` commit was ever sent.
    XStart {
        /// Cross-shard transaction.
        txn: TxnId,
        /// One spec per involved shard, each with `parent` set to this
        /// site (shared with the engine and the `X-BRANCH-REQ` fan-out).
        branches: Vec<Arc<TxnSpec>>,
    },
    /// The cross-shard commit point: the top-level decision, forced
    /// before any `X-DECIDE` leaves this site. Carries every branch's
    /// in-shard commit version so a recovering coordinator can
    /// re-announce the correct version to each shard.
    XDecision {
        /// Cross-shard transaction.
        txn: TxnId,
        /// The irrevocable top-level outcome.
        decision: Decision,
        /// `(branch coordinator, branch commit version)` per branch,
        /// in [`LogRecord::XStart`] branch order.
        branch_versions: Vec<(qbc_simnet::SiteId, Option<Version>)>,
    },
    /// Paxos Commit acceptor: promised not to accept below `bal`
    /// (Phase-1b). Forced before the promise leaves the site, so a
    /// recovering acceptor never accepts a 2a an earlier incarnation
    /// already promised away.
    PaxosPromise {
        /// Transaction.
        txn: TxnId,
        /// The ballot promised.
        bal: u64,
    },
    /// Paxos Commit acceptor: accepted the batched Phase-2a values at
    /// `bal` (Phase-2b). Forced before the 2b echo leaves the site —
    /// this is the acceptor's contribution to the decision's durability
    /// (the leader never force-logs votes itself; F+1 of these records
    /// across the acceptors make the outcome stable).
    PaxosAccept {
        /// Transaction.
        txn: TxnId,
        /// The ballot accepted at.
        bal: u64,
        /// The accepted values: `(instance participant, prepared?,
        /// reported max version)` per vote instance.
        votes: Vec<(qbc_simnet::SiteId, bool, Version)>,
    },
    /// A checkpoint: the compact outcomes of every *retired*
    /// transaction and cross-shard coordination, plus a snapshot of the
    /// site's versioned item copies, re-logged in one record so the
    /// per-transaction records they were distilled from become dead
    /// weight. Once this record is forced, the log prefix below it (and
    /// below every live transaction's first record) can be truncated;
    /// recovery installs the snapshot and replays only the suffix
    /// instead of the full history. This is what bounds stable storage
    /// the way retirement bounds the in-memory tables.
    Checkpoint {
        /// Outcomes of retired single-shard transactions.
        retired: Vec<RetiredOutcome>,
        /// Outcomes of retired cross-shard coordinations hosted here.
        xretired: Vec<XRetiredOutcome>,
        /// Every retained `(item, version, value)` of the local copies
        /// as of the checkpoint, ascending by item and then by version
        /// — the durable home of updates whose commit records are
        /// about to be truncated. Single-slot sites carry one entry per
        /// item; multi-version retention (snapshot reads) carries each
        /// item's full bounded chain so recovery can still answer
        /// watermark reads. Flat in memory, grouped per item on disk
        /// (`wal_codec`).
        items: Vec<(qbc_votes::ItemId, Version, i64)>,
    },
}

/// The compact outcome of one retired transaction, as carried by
/// [`LogRecord::Checkpoint`]: everything a straggler's question can
/// still need after the per-record history is truncated.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RetiredOutcome {
    /// Transaction.
    pub txn: TxnId,
    /// Its irrevocable outcome.
    pub decision: Decision,
    /// Version installed when committing.
    pub commit_version: Option<Version>,
}

/// The compact outcome of one retired *cross-shard* coordination, as
/// carried by [`LogRecord::Checkpoint`]: per-branch membership and
/// commit versions, enough to keep answering `X-OUTCOME-REQ` from late
/// orphans.
#[derive(Clone, Debug, PartialEq)]
pub struct XRetiredOutcome {
    /// Cross-shard transaction.
    pub txn: TxnId,
    /// The top-level outcome.
    pub decision: Decision,
    /// `(branch coordinator, branch participants, in-shard commit
    /// version)` per branch.
    pub branches: Vec<(qbc_simnet::SiteId, Vec<qbc_simnet::SiteId>, Option<Version>)>,
}

impl XRetiredOutcome {
    /// The `X-DECIDE` answering a late orphan at `to`: on commit it
    /// carries the in-shard commit version of the branch `to` belongs
    /// to (as coordinator or participant).
    pub fn xdecide_for(&self, to: qbc_simnet::SiteId) -> Msg {
        let commit_version = match self.decision {
            Decision::Commit => self
                .branches
                .iter()
                .find(|(c, p, _)| *c == to || p.contains(&to))
                .and_then(|(_, _, v)| *v),
            Decision::Abort => None,
        };
        Msg::XDecide {
            txn: self.txn,
            decision: self.decision,
            commit_version,
        }
    }
}

impl LogRecord {
    /// The transaction this record belongs to; `None` for
    /// [`LogRecord::Checkpoint`], which spans many.
    pub fn txn(&self) -> Option<TxnId> {
        match self {
            LogRecord::CoordinatorStart { spec } | LogRecord::Voted { spec } => Some(spec.id),
            LogRecord::VotedNo { txn }
            | LogRecord::PreCommit { txn, .. }
            | LogRecord::PreAbort { txn }
            | LogRecord::Decided { txn, .. }
            | LogRecord::XStart { txn, .. }
            | LogRecord::XDecision { txn, .. }
            | LogRecord::PaxosPromise { txn, .. }
            | LogRecord::PaxosAccept { txn, .. } => Some(*txn),
            LogRecord::Checkpoint { .. } => None,
        }
    }
}

/// The most recent [`LogRecord::Checkpoint`] in a replay, if any: the
/// retired outcomes and item snapshot a recovering site must
/// re-install before replaying the per-transaction suffix (their own
/// records may be truncated). Returns
/// `(retired, xretired, item versions)`.
#[allow(clippy::type_complexity)]
pub fn last_checkpoint<'a>(
    records: impl IntoIterator<Item = &'a LogRecord>,
) -> Option<(
    &'a [RetiredOutcome],
    &'a [XRetiredOutcome],
    &'a [(qbc_votes::ItemId, Version, i64)],
)> {
    let mut found = None;
    for rec in records {
        if let LogRecord::Checkpoint {
            retired,
            xretired,
            items,
        } = rec
        {
            found = Some((retired.as_slice(), xretired.as_slice(), items.as_slice()));
        }
    }
    found
}

/// The durable state of one transaction reconstructed from the log.
#[derive(Clone, Debug, PartialEq)]
pub struct RecoveredTxn {
    /// The spec, if the site voted yes (q/vote-no sites have none).
    pub spec: Option<Arc<TxnSpec>>,
    /// Local state as of the last logged record.
    pub state: LocalState,
    /// Commit version learned (from PC or commit records).
    pub commit_version: Option<Version>,
}

/// Replays a site's log records (in order) into per-transaction state.
///
/// Used by a recovering site to rebuild its participant engines: a
/// transaction recovered in a non-terminal state re-enters the
/// termination path.
pub fn recover_state<'a>(
    records: impl IntoIterator<Item = &'a LogRecord>,
) -> std::collections::BTreeMap<TxnId, RecoveredTxn> {
    let mut out: std::collections::BTreeMap<TxnId, RecoveredTxn> =
        std::collections::BTreeMap::new();
    for rec in records {
        // Cross-shard coordinator records describe the top-level 2PC
        // role, not this site's participant state (recovered separately
        // by [`recover_xstate`]); checkpoints span many transactions
        // (recovered by [`last_checkpoint`]).
        let Some(txn) = rec.txn() else { continue };
        if matches!(
            rec,
            LogRecord::XStart { .. }
                | LogRecord::XDecision { .. }
                | LogRecord::PaxosPromise { .. }
                | LogRecord::PaxosAccept { .. }
        ) {
            // Cross-shard coordinator records are recovered by
            // [`recover_xstate`]; Paxos acceptor records by
            // [`recover_paxos`].
            continue;
        }
        let entry = out.entry(txn).or_insert(RecoveredTxn {
            spec: None,
            state: LocalState::Initial,
            commit_version: None,
        });
        // Terminal decisions are irrevocable: later records (which should
        // not exist) never downgrade them.
        if entry.state.is_terminal() {
            continue;
        }
        match rec {
            LogRecord::CoordinatorStart { spec } => {
                // Establishes the spec; the local *participant* state is
                // untouched (a pure coordinator never votes).
                if entry.spec.is_none() {
                    entry.spec = Some(Arc::clone(spec));
                }
            }
            LogRecord::Voted { spec } => {
                entry.spec = Some(Arc::clone(spec));
                entry.state = LocalState::Wait;
            }
            LogRecord::VotedNo { .. } => {
                entry.state = LocalState::Aborted;
            }
            LogRecord::PreCommit { commit_version, .. } => {
                entry.state = LocalState::PreCommit;
                entry.commit_version = Some(*commit_version);
            }
            LogRecord::PreAbort { .. } => {
                entry.state = LocalState::PreAbort;
            }
            LogRecord::Decided {
                decision,
                commit_version,
                ..
            } => {
                entry.state = match decision {
                    Decision::Commit => LocalState::Committed,
                    Decision::Abort => LocalState::Aborted,
                };
                if commit_version.is_some() {
                    entry.commit_version = *commit_version;
                }
            }
            LogRecord::XStart { .. }
            | LogRecord::XDecision { .. }
            | LogRecord::PaxosPromise { .. }
            | LogRecord::PaxosAccept { .. }
            | LogRecord::Checkpoint { .. } => {
                unreachable!("skipped above")
            }
        }
    }
    out
}

/// `(branch coordinator, in-shard commit version)` per branch — the
/// payload of [`LogRecord::XDecision`].
pub type BranchVersions = Vec<(qbc_simnet::SiteId, Option<Version>)>;

/// The durable state of one *cross-shard* coordination reconstructed
/// from the log (the top-level 2PC counterpart of [`RecoveredTxn`]).
#[derive(Clone, Debug, PartialEq)]
pub struct RecoveredXTxn {
    /// The branch specs logged at start.
    pub branches: Vec<Arc<TxnSpec>>,
    /// The logged top-level decision with per-branch commit versions,
    /// if the transaction reached its cross-shard commit point.
    pub decision: Option<(Decision, BranchVersions)>,
}

/// Replays a site's log into per-transaction cross-shard coordinator
/// state. A transaction recovered *without* a decision is presumed
/// aborted by the recovering coordinator (the top-level analogue of 2PC
/// presumed abort): no durable [`LogRecord::XDecision`] means no
/// `X-DECIDE` was ever sent, so abort is still safe.
pub fn recover_xstate<'a>(
    records: impl IntoIterator<Item = &'a LogRecord>,
) -> std::collections::BTreeMap<TxnId, RecoveredXTxn> {
    let mut out: std::collections::BTreeMap<TxnId, RecoveredXTxn> =
        std::collections::BTreeMap::new();
    for rec in records {
        match rec {
            LogRecord::XStart { txn, branches } => {
                out.entry(*txn).or_insert(RecoveredXTxn {
                    branches: branches.clone(),
                    decision: None,
                });
            }
            LogRecord::XDecision {
                txn,
                decision,
                branch_versions,
            } => {
                if let Some(x) = out.get_mut(txn) {
                    // The decision is irrevocable: keep the first.
                    if x.decision.is_none() {
                        x.decision = Some((*decision, branch_versions.clone()));
                    }
                }
            }
            _ => {}
        }
    }
    out
}

/// The durable Paxos-acceptor state for one transaction reconstructed
/// from the log: the highest ballot promised and the highest-ballot
/// batch of values accepted.
#[derive(Clone, Debug, PartialEq, Default)]
pub struct RecoveredAcceptor {
    /// Highest ballot promised (from both promise and accept records —
    /// accepting at `b` implies promising `b`).
    pub promised: u64,
    /// The accepted batch with the highest ballot, if any:
    /// `(ballot, values)`.
    pub accepted: Option<(u64, crate::paxos_commit::PaxosVotes)>,
}

/// Replays a site's log into per-transaction Paxos acceptor state (the
/// Paxos Commit counterpart of [`recover_state`]). A recovering
/// acceptor re-installs these before answering any 1a/2a, so it never
/// breaks a promise an earlier incarnation made.
pub fn recover_paxos<'a>(
    records: impl IntoIterator<Item = &'a LogRecord>,
) -> std::collections::BTreeMap<TxnId, RecoveredAcceptor> {
    let mut out: std::collections::BTreeMap<TxnId, RecoveredAcceptor> =
        std::collections::BTreeMap::new();
    for rec in records {
        match rec {
            LogRecord::PaxosPromise { txn, bal } => {
                let a = out.entry(*txn).or_default();
                a.promised = a.promised.max(*bal);
            }
            LogRecord::PaxosAccept { txn, bal, votes } => {
                let a = out.entry(*txn).or_default();
                a.promised = a.promised.max(*bal);
                if a.accepted.as_ref().is_none_or(|(b, _)| *bal >= *b) {
                    a.accepted = Some((*bal, votes.clone()));
                }
            }
            _ => {}
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{ProtocolKind, WriteSet};
    use qbc_simnet::SiteId;

    fn spec(id: u64) -> Arc<TxnSpec> {
        Arc::new(TxnSpec {
            id: TxnId(id),
            coordinator: SiteId(1),
            writeset: WriteSet::default(),
            participants: Default::default(),
            protocol: ProtocolKind::ThreePhase,
            parent: None,
        })
    }

    #[test]
    fn empty_log_recovers_nothing() {
        let state = recover_state([]);
        assert!(state.is_empty());
    }

    #[test]
    fn voted_then_pc_recovers_as_pc() {
        let records = vec![
            LogRecord::Voted { spec: spec(1) },
            LogRecord::PreCommit {
                txn: TxnId(1),
                commit_version: Version(4),
            },
        ];
        let state = recover_state(&records);
        let t = &state[&TxnId(1)];
        assert_eq!(t.state, LocalState::PreCommit);
        assert_eq!(t.commit_version, Some(Version(4)));
        assert!(t.spec.is_some());
    }

    #[test]
    fn decision_is_final_even_with_trailing_garbage() {
        let records = vec![
            LogRecord::Voted { spec: spec(1) },
            LogRecord::Decided {
                txn: TxnId(1),
                decision: Decision::Abort,
                commit_version: None,
            },
            // A corrupt/duplicated trailing record must not resurrect it.
            LogRecord::PreCommit {
                txn: TxnId(1),
                commit_version: Version(9),
            },
        ];
        let state = recover_state(&records);
        assert_eq!(state[&TxnId(1)].state, LocalState::Aborted);
    }

    #[test]
    fn multiple_transactions_recover_independently() {
        let records = vec![
            LogRecord::Voted { spec: spec(1) },
            LogRecord::Voted { spec: spec(2) },
            LogRecord::PreAbort { txn: TxnId(2) },
            LogRecord::Decided {
                txn: TxnId(1),
                decision: Decision::Commit,
                commit_version: Some(Version(2)),
            },
        ];
        let state = recover_state(&records);
        assert_eq!(state[&TxnId(1)].state, LocalState::Committed);
        assert_eq!(state[&TxnId(1)].commit_version, Some(Version(2)));
        assert_eq!(state[&TxnId(2)].state, LocalState::PreAbort);
    }

    #[test]
    fn x_records_recover_separately_from_participant_state() {
        let records = vec![
            LogRecord::XStart {
                txn: TxnId(5),
                branches: vec![spec(5)],
            },
            LogRecord::Voted { spec: spec(5) },
            LogRecord::XDecision {
                txn: TxnId(5),
                decision: Decision::Commit,
                branch_versions: vec![(SiteId(1), Some(Version(2)))],
            },
        ];
        // Participant recovery sees only the Voted record.
        let state = recover_state(&records);
        assert_eq!(state[&TxnId(5)].state, LocalState::Wait);
        // X recovery sees the start and the decision.
        let x = recover_xstate(&records);
        assert_eq!(x[&TxnId(5)].branches.len(), 1);
        assert_eq!(
            x[&TxnId(5)].decision,
            Some((Decision::Commit, vec![(SiteId(1), Some(Version(2)))]))
        );
    }

    #[test]
    fn xstart_without_decision_recovers_undecided() {
        let records = vec![LogRecord::XStart {
            txn: TxnId(9),
            branches: vec![spec(9), spec(9)],
        }];
        let x = recover_xstate(&records);
        assert_eq!(x[&TxnId(9)].decision, None);
        assert_eq!(x[&TxnId(9)].branches.len(), 2);
    }

    #[test]
    fn paxos_records_recover_separately_from_participant_state() {
        let records = vec![
            LogRecord::Voted { spec: spec(4) },
            LogRecord::PaxosAccept {
                txn: TxnId(4),
                bal: 0,
                votes: vec![(SiteId(1), true, Version(2))],
            },
            LogRecord::PaxosPromise {
                txn: TxnId(4),
                bal: 3,
            },
            LogRecord::PaxosAccept {
                txn: TxnId(4),
                bal: 3,
                votes: vec![(SiteId(1), false, Version(0))],
            },
        ];
        // Participant recovery is untouched by acceptor records.
        let state = recover_state(&records);
        assert_eq!(state[&TxnId(4)].state, LocalState::Wait);
        // Acceptor recovery keeps the highest-ballot acceptance and the
        // highest promise.
        let paxos = recover_paxos(&records);
        let a = &paxos[&TxnId(4)];
        assert_eq!(a.promised, 3);
        assert_eq!(a.accepted, Some((3, vec![(SiteId(1), false, Version(0))])));
    }

    #[test]
    fn paxos_accept_implies_promise() {
        let records = vec![LogRecord::PaxosAccept {
            txn: TxnId(8),
            bal: 5,
            votes: vec![],
        }];
        let paxos = recover_paxos(&records);
        assert_eq!(paxos[&TxnId(8)].promised, 5);
    }

    #[test]
    fn vote_no_recovers_aborted_without_spec() {
        let records = vec![LogRecord::VotedNo { txn: TxnId(3) }];
        let state = recover_state(&records);
        assert_eq!(state[&TxnId(3)].state, LocalState::Aborted);
        assert!(state[&TxnId(3)].spec.is_none());
    }
}
