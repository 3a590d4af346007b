//! Log records forced to stable storage at each protocol transition.
//!
//! The rule: a participant logs *before* acknowledging. What the log
//! contains after a crash is exactly what the participant may claim to
//! remember; recovery hands each record back to the engine kind that
//! logged it ([`Participant::redo`](crate::Participant::redo),
//! [`XTxnCoordinator::redo`](crate::XTxnCoordinator::redo),
//! [`PaxosAcceptor::redo`](crate::PaxosAcceptor::redo)), so the engine
//! that forces a record is the only code that says what it means.

use crate::messages::Msg;
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::states::LocalState;
    use crate::types::{ProtocolKind, WriteSet};
    use crate::{Participant, ParticipantConfig, PaxosAcceptor, XTxnCoordinator};
    use qbc_simnet::SiteId;
    use std::collections::BTreeMap;

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

    /// [`spec`] as a cross-shard branch coordinated by site 1.
    fn branch(id: u64) -> Arc<TxnSpec> {
        Arc::new(TxnSpec {
            parent: Some(SiteId(1)),
            ..(*spec(id)).clone()
        })
    }

    /// The engines a replay rebuilds, per transaction.
    #[derive(Default)]
    struct Replayed {
        participants: BTreeMap<TxnId, Participant>,
        xcoords: BTreeMap<TxnId, XTxnCoordinator>,
        acceptors: BTreeMap<TxnId, PaxosAcceptor>,
    }

    /// Recovery's replay in miniature: each record, in log order, to its
    /// transaction's engine of the kind that logged it; a coordination
    /// exists from its `XStart` on.
    fn replay(records: &[LogRecord]) -> Replayed {
        let mut out = Replayed::default();
        for rec in records {
            let Some(txn) = rec.txn() else { continue };
            match rec {
                LogRecord::XStart { branches, .. } => {
                    out.xcoords
                        .entry(txn)
                        .or_insert_with(|| XTxnCoordinator::new(txn, branches.clone()));
                }
                LogRecord::XDecision { .. } => {
                    if let Some(x) = out.xcoords.get_mut(&txn) {
                        x.redo(rec);
                    }
                }
                LogRecord::PaxosPromise { .. } | LogRecord::PaxosAccept { .. } => {
                    out.acceptors.entry(txn).or_default().redo(rec)
                }
                _ => out
                    .participants
                    .entry(txn)
                    .or_insert_with(|| {
                        Participant::new(SiteId(0), txn, ParticipantConfig::default())
                    })
                    .redo(rec),
            }
        }
        out
    }

    #[test]
    fn empty_log_recovers_nothing() {
        let r = replay(&[]);
        assert!(r.participants.is_empty());
        assert!(r.xcoords.is_empty());
        assert!(r.acceptors.is_empty());
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
        let t = &replay(&records).participants[&TxnId(1)];
        assert_eq!(t.state(), LocalState::PreCommit);
        assert_eq!(t.commit_version(), Some(Version(4)));
        assert!(t.spec().is_some());
        assert!(t.transitions().is_empty(), "recovery is not a transition");
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
        let t = &replay(&records).participants[&TxnId(1)];
        assert_eq!(t.state(), LocalState::Aborted);
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
        let state = replay(&records).participants;
        assert_eq!(state[&TxnId(1)].state(), LocalState::Committed);
        assert_eq!(state[&TxnId(1)].commit_version(), Some(Version(2)));
        assert_eq!(state[&TxnId(2)].state(), LocalState::PreAbort);
    }

    #[test]
    fn decided_without_version_keeps_the_pre_commit_version() {
        let records = vec![
            LogRecord::Voted { spec: spec(1) },
            LogRecord::PreCommit {
                txn: TxnId(1),
                commit_version: Version(6),
            },
            LogRecord::Decided {
                txn: TxnId(1),
                decision: Decision::Commit,
                commit_version: None,
            },
        ];
        let t = &replay(&records).participants[&TxnId(1)];
        assert_eq!(t.state(), LocalState::Committed);
        assert_eq!(t.commit_version(), Some(Version(6)));
    }

    #[test]
    fn x_records_recover_separately_from_participant_state() {
        let records = vec![
            LogRecord::XStart {
                txn: TxnId(5),
                branches: vec![branch(5)],
            },
            LogRecord::Voted { spec: branch(5) },
            LogRecord::XDecision {
                txn: TxnId(5),
                decision: Decision::Commit,
                branch_versions: vec![(SiteId(1), Some(Version(2)))],
            },
        ];
        let r = replay(&records);
        // The participant sees only the Voted record.
        assert_eq!(r.participants[&TxnId(5)].state(), LocalState::Wait);
        // The coordination sees the start and the decision.
        let x = &r.xcoords[&TxnId(5)];
        assert_eq!(x.branches().len(), 1);
        assert_eq!(x.decision(), Some(Decision::Commit));
        assert_eq!(x.branch_versions(), vec![(SiteId(1), Some(Version(2)))]);
    }

    #[test]
    fn xstart_without_decision_recovers_undecided() {
        let records = vec![LogRecord::XStart {
            txn: TxnId(9),
            branches: vec![branch(9), branch(9)],
        }];
        let x = &replay(&records).xcoords[&TxnId(9)];
        assert_eq!(x.decision(), None);
        assert_eq!(x.branches().len(), 2);
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
        let r = replay(&records);
        // The participant is untouched by acceptor records.
        assert_eq!(r.participants[&TxnId(4)].state(), LocalState::Wait);
        // The acceptor keeps the highest-ballot acceptance and the
        // highest promise.
        let a = &r.acceptors[&TxnId(4)];
        assert_eq!(a.promised(), 3);
        assert_eq!(
            a.accepted(),
            Some(&(3, vec![(SiteId(1), false, Version(0))]))
        );
    }

    #[test]
    fn paxos_accept_implies_promise() {
        let records = vec![LogRecord::PaxosAccept {
            txn: TxnId(8),
            bal: 5,
            votes: vec![],
        }];
        assert_eq!(replay(&records).acceptors[&TxnId(8)].promised(), 5);
    }

    #[test]
    fn vote_no_recovers_aborted_without_spec() {
        let records = vec![LogRecord::VotedNo { txn: TxnId(3) }];
        let t = &replay(&records).participants[&TxnId(3)];
        assert_eq!(t.state(), LocalState::Aborted);
        assert!(t.spec().is_none());
    }

    /// A coordinator's start record alone — its own `Voted` record was
    /// lost, or it holds no copy — recovers the spec in `Initial`: the
    /// site never voted, so recovery pins none of its copies (the node
    /// re-pins only undecided non-`Initial` participants; see
    /// `db/tests/lsn_gating.rs::recovery_repins_only_copies_this_site_voted_on`).
    #[test]
    fn coordinator_start_alone_recovers_the_spec_in_initial() {
        let records = vec![LogRecord::CoordinatorStart { spec: spec(6) }];
        let t = &replay(&records).participants[&TxnId(6)];
        assert_eq!(t.state(), LocalState::Initial);
        assert_eq!(t.spec().map(|s| s.id), Some(TxnId(6)));
        assert_eq!(t.decision(), None);
        assert_eq!(t.commit_version(), None);
    }

    #[test]
    fn coordinator_start_after_a_vote_keeps_the_voted_spec() {
        let voted = spec(2);
        let records = vec![
            LogRecord::Voted {
                spec: Arc::clone(&voted),
            },
            LogRecord::CoordinatorStart { spec: spec(2) },
        ];
        let t = &replay(&records).participants[&TxnId(2)];
        assert_eq!(t.state(), LocalState::Wait);
        assert!(Arc::ptr_eq(t.spec().unwrap(), &voted));
    }
}
