//! The cross-shard transaction coordinator: a top-level two-phase
//! commit over per-shard branches.
//!
//! A cross-shard writeset is split into one *branch* per involved shard
//! (all sharing the global [`TxnId`] — shards own disjoint site sets).
//! Each branch runs the paper's quorum-based commit protocol inside its
//! shard as the "resource manager" of Gray & Lamport's *Consensus on
//! Transaction Commit*: the branch coordinator drives the in-shard vote
//! and prepare rounds, and at its commit point it *holds*
//! ([`crate::CoordPhase::Held`]) and casts this shard's yes vote upward
//! instead of committing. This engine collects those votes:
//!
//! * any no vote, or the vote window expiring, decides **abort**;
//! * all branches yes decides **commit** — the decision is force-logged
//!   ([`LogRecord::XDecision`]) *before* any `X-DECIDE` leaves the
//!   site, making the log record the cross-shard commit point;
//! * the decision is relayed to every branch coordinator, re-announced
//!   on recovery, and served to any orphaned branch site that asks via
//!   `X-OUTCOME-REQ` (the branches' replacement for the in-shard
//!   termination protocol, which may not run while a branch is held).
//!
//! Like every engine in this crate it is sans-IO: inputs are messages
//! and timer expiries, outputs are [`Action`]s applied by the driver.

use crate::actions::{Action, TimerKind};
use crate::log::{LogRecord, RecoveredXTxn};
use crate::messages::Msg;
use crate::types::{Decision, TxnId, TxnSpec};
use qbc_simnet::SiteId;
use qbc_votes::Version;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Cross-shard coordinator progress.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum XPhase {
    /// Waiting for every branch's vote.
    CollectingVotes,
    /// Top-level decision logged and relayed.
    Decided(Decision),
}

/// The top-level 2PC engine for one cross-shard transaction, hosted at
/// the parent site named in every branch spec.
#[derive(Clone, Debug)]
pub struct XTxnCoordinator {
    txn: TxnId,
    branches: Vec<Arc<TxnSpec>>,
    /// Vote per branch, keyed by the branch's coordinator site:
    /// `(yes, in-shard commit version)`.
    votes: BTreeMap<SiteId, (bool, Option<Version>)>,
    phase: XPhase,
}

impl XTxnCoordinator {
    /// Creates the engine over the branch specs (one per shard, each
    /// with `parent` set to this site).
    pub fn new(txn: TxnId, branches: Vec<Arc<TxnSpec>>) -> Self {
        debug_assert!(!branches.is_empty(), "a cross-shard txn needs branches");
        debug_assert!(
            branches.iter().all(|b| b.id == txn && b.is_branch()),
            "branches must share the txn id and carry the parent"
        );
        XTxnCoordinator {
            txn,
            branches,
            votes: BTreeMap::new(),
            phase: XPhase::CollectingVotes,
        }
    }

    /// Rebuilds the engine from recovered durable state and returns the
    /// recovery actions: a transaction recovered *undecided* is presumed
    /// aborted (no durable [`LogRecord::XDecision`] proves no commit
    /// `X-DECIDE` ever left this site); a recovered decision is
    /// re-announced to every branch coordinator.
    pub fn from_recovery(txn: TxnId, rec: &RecoveredXTxn) -> (Self, Vec<Action>) {
        let mut x = XTxnCoordinator::new(txn, rec.branches.clone());
        match &rec.decision {
            None => {
                let actions = x.decide(Decision::Abort);
                (x, actions)
            }
            Some((decision, branch_versions)) => {
                for &(coord, v) in branch_versions {
                    x.votes.insert(coord, (*decision == Decision::Commit, v));
                }
                x.phase = XPhase::Decided(*decision);
                let actions = x.relay_decision(*decision);
                (x, actions)
            }
        }
    }

    /// The cross-shard transaction.
    pub fn txn(&self) -> TxnId {
        self.txn
    }

    /// Current phase.
    pub fn phase(&self) -> XPhase {
        self.phase
    }

    /// The top-level decision, once reached.
    pub fn decision(&self) -> Option<Decision> {
        match self.phase {
            XPhase::Decided(d) => Some(d),
            XPhase::CollectingVotes => None,
        }
    }

    /// The branch specs, in submission order.
    pub fn branches(&self) -> &[Arc<TxnSpec>] {
        &self.branches
    }

    /// Kicks off the top-level protocol: durably record the branch set,
    /// then ask every branch coordinator to run its in-shard protocol.
    pub fn start(&mut self) -> Vec<Action> {
        let mut actions = Vec::with_capacity(self.branches.len() + 2);
        actions.push(Action::Log(LogRecord::XStart {
            txn: self.txn,
            branches: self.branches.clone(),
        }));
        for b in &self.branches {
            // Each branch learns its siblings' coordinators so an
            // orphaned branch can ask *them* for the outcome when this
            // parent is down (cooperative outcome discovery).
            let siblings = self
                .branches
                .iter()
                .map(|o| o.coordinator)
                .filter(|&c| c != b.coordinator)
                .collect();
            actions.push(Action::Send(
                b.coordinator,
                Msg::XBranchReq {
                    spec: Arc::clone(b),
                    siblings,
                },
            ));
        }
        actions.push(Action::SetTimer(TimerKind::XVoteCollection {
            txn: self.txn,
        }));
        actions
    }

    /// Handles a branch's vote. A vote from an unknown site is ignored;
    /// a vote arriving after the decision is answered with it (the
    /// sender is a held branch coordinator that needs the outcome).
    pub fn on_vote(
        &mut self,
        from: SiteId,
        yes: bool,
        commit_version: Option<Version>,
    ) -> Vec<Action> {
        if !self.branches.iter().any(|b| b.coordinator == from) {
            return Vec::new();
        }
        if let XPhase::Decided(d) = self.phase {
            return vec![Action::Send(from, self.xdecide_for(from, d))];
        }
        self.votes.insert(from, (yes, commit_version));
        if !yes {
            return self.decide(Decision::Abort);
        }
        if self.votes.len() == self.branches.len() && self.votes.values().all(|(y, _)| *y) {
            self.decide(Decision::Commit)
        } else {
            Vec::new()
        }
    }

    /// The vote-collection window expired: top-level presumed abort for
    /// whatever is still missing.
    pub fn on_vote_timer(&mut self) -> Vec<Action> {
        match self.phase {
            XPhase::CollectingVotes => self.decide(Decision::Abort),
            XPhase::Decided(_) => Vec::new(),
        }
    }

    /// An orphaned branch site asks for the outcome: answer once
    /// decided, stay silent while collecting (the asker's watchdog
    /// retries).
    pub fn on_outcome_req(&mut self, from: SiteId) -> Vec<Action> {
        match self.phase {
            XPhase::Decided(d) => vec![Action::Send(from, self.xdecide_for(from, d))],
            XPhase::CollectingVotes => Vec::new(),
        }
    }

    /// `(branch coordinator, in-shard commit version)` per branch, in
    /// branch order — the payload of [`LogRecord::XDecision`].
    pub fn branch_versions(&self) -> Vec<(SiteId, Option<Version>)> {
        self.branches
            .iter()
            .map(|b| {
                (
                    b.coordinator,
                    self.votes.get(&b.coordinator).and_then(|(_, v)| *v),
                )
            })
            .collect()
    }

    /// The in-shard commit version of the branch `site` belongs to (as
    /// its coordinator or as a participant).
    pub fn version_for_site(&self, site: SiteId) -> Option<Version> {
        self.branches
            .iter()
            .find(|b| b.coordinator == site || b.participants.contains(&site))
            .and_then(|b| self.votes.get(&b.coordinator))
            .and_then(|(_, v)| *v)
    }

    fn xdecide_for(&self, to: SiteId, decision: Decision) -> Msg {
        Msg::XDecide {
            txn: self.txn,
            decision,
            commit_version: match decision {
                Decision::Commit => self.version_for_site(to),
                Decision::Abort => None,
            },
        }
    }

    /// Reaches the top-level decision: force-log it (the cross-shard
    /// commit point), then relay it to every branch coordinator. The
    /// driver's durability gate keeps the sends behind the force.
    fn decide(&mut self, decision: Decision) -> Vec<Action> {
        self.phase = XPhase::Decided(decision);
        let mut actions = Vec::with_capacity(self.branches.len() + 1);
        actions.push(Action::Log(LogRecord::XDecision {
            txn: self.txn,
            decision,
            branch_versions: self.branch_versions(),
        }));
        actions.extend(self.relay_decision(decision));
        actions
    }

    fn relay_decision(&self, decision: Decision) -> Vec<Action> {
        self.branches
            .iter()
            .map(|b| Action::Send(b.coordinator, self.xdecide_for(b.coordinator, decision)))
            .collect()
    }
}

/// Canonical state hash for the model checker's visited-set.
///
/// Hashes the phase and the per-branch votes (an ordered map). The
/// branch specs are excluded: they are fixed for the transaction's
/// lifetime and the node-level fingerprint covers the transaction id.
impl qbc_simnet::Fingerprint for XTxnCoordinator {
    fn fingerprint(&self, _now: qbc_simnet::Time, h: &mut qbc_simnet::FastHasher) {
        use std::hash::Hasher;
        h.write(format!("{:?}|{:?}", self.phase, self.votes).as_bytes());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{ProtocolKind, WriteSet};
    use qbc_votes::ItemId;

    fn branch(coord: u32, participants: &[u32], item: u32) -> Arc<TxnSpec> {
        Arc::new(TxnSpec {
            id: TxnId(7),
            coordinator: SiteId(coord),
            writeset: WriteSet::new([(ItemId(item), 1)]),
            participants: participants.iter().copied().map(SiteId).collect(),
            protocol: ProtocolKind::QuorumCommit2,
            parent: Some(SiteId(0)),
        })
    }

    fn engine() -> XTxnCoordinator {
        XTxnCoordinator::new(
            TxnId(7),
            vec![branch(0, &[0, 1, 2], 0), branch(3, &[3, 4, 5], 10)],
        )
    }

    #[test]
    fn start_logs_before_soliciting_branches() {
        let mut x = engine();
        let actions = x.start();
        assert!(matches!(actions[0], Action::Log(LogRecord::XStart { .. })));
        // Each solicitation names the *other* branch coordinators so an
        // orphaned branch can run cooperative outcome discovery.
        match &actions[1] {
            Action::Send(SiteId(0), Msg::XBranchReq { siblings, .. }) => {
                assert_eq!(siblings, &vec![SiteId(3)]);
            }
            other => panic!("expected X-BRANCH-REQ to site 0, got {other:?}"),
        }
        match &actions[2] {
            Action::Send(SiteId(3), Msg::XBranchReq { siblings, .. }) => {
                assert_eq!(siblings, &vec![SiteId(0)]);
            }
            other => panic!("expected X-BRANCH-REQ to site 3, got {other:?}"),
        }
        assert!(matches!(
            actions[3],
            Action::SetTimer(TimerKind::XVoteCollection { .. })
        ));
    }

    #[test]
    fn all_yes_commits_with_per_branch_versions() {
        let mut x = engine();
        x.start();
        assert!(x.on_vote(SiteId(0), true, Some(Version(3))).is_empty());
        let actions = x.on_vote(SiteId(3), true, Some(Version(8)));
        assert!(matches!(
            actions[0],
            Action::Log(LogRecord::XDecision {
                decision: Decision::Commit,
                ..
            })
        ));
        // Each branch coordinator gets its own shard's version.
        assert!(actions.iter().any(|a| matches!(
            a,
            Action::Send(
                SiteId(0),
                Msg::XDecide {
                    decision: Decision::Commit,
                    commit_version: Some(Version(3)),
                    ..
                }
            )
        )));
        assert!(actions.iter().any(|a| matches!(
            a,
            Action::Send(
                SiteId(3),
                Msg::XDecide {
                    commit_version: Some(Version(8)),
                    ..
                }
            )
        )));
        assert_eq!(x.decision(), Some(Decision::Commit));
    }

    #[test]
    fn any_no_vote_aborts_every_branch() {
        let mut x = engine();
        x.start();
        x.on_vote(SiteId(0), true, Some(Version(3)));
        let actions = x.on_vote(SiteId(3), false, None);
        assert!(matches!(
            actions[0],
            Action::Log(LogRecord::XDecision {
                decision: Decision::Abort,
                ..
            })
        ));
        assert_eq!(
            actions.len(),
            3,
            "abort relayed to both branches: {actions:?}"
        );
        assert_eq!(x.decision(), Some(Decision::Abort));
    }

    #[test]
    fn vote_timeout_presumes_abort() {
        let mut x = engine();
        x.start();
        x.on_vote(SiteId(0), true, Some(Version(3)));
        let actions = x.on_vote_timer();
        assert_eq!(x.decision(), Some(Decision::Abort));
        assert!(matches!(
            actions[0],
            Action::Log(LogRecord::XDecision { .. })
        ));
        assert!(x.on_vote_timer().is_empty(), "timer is idempotent");
    }

    #[test]
    fn late_vote_after_decision_gets_the_outcome() {
        let mut x = engine();
        x.start();
        x.on_vote(SiteId(3), false, None);
        let actions = x.on_vote(SiteId(0), true, Some(Version(3)));
        assert!(matches!(
            actions[0],
            Action::Send(
                SiteId(0),
                Msg::XDecide {
                    decision: Decision::Abort,
                    ..
                }
            )
        ));
    }

    #[test]
    fn outcome_req_served_by_participant_branch_lookup() {
        let mut x = engine();
        x.start();
        assert!(
            x.on_outcome_req(SiteId(4)).is_empty(),
            "undecided discovery stays silent"
        );
        x.on_vote(SiteId(0), true, Some(Version(3)));
        x.on_vote(SiteId(3), true, Some(Version(8)));
        // Site 4 participates in the second branch: gets that version.
        let actions = x.on_outcome_req(SiteId(4));
        assert!(matches!(
            actions[0],
            Action::Send(
                SiteId(4),
                Msg::XDecide {
                    decision: Decision::Commit,
                    commit_version: Some(Version(8)),
                    ..
                }
            )
        ));
    }

    #[test]
    fn votes_from_unknown_sites_are_ignored() {
        let mut x = engine();
        x.start();
        assert!(x.on_vote(SiteId(9), false, None).is_empty());
        assert_eq!(x.decision(), None);
    }

    #[test]
    fn recovery_without_decision_presumes_abort() {
        let rec = RecoveredXTxn {
            branches: vec![branch(0, &[0, 1, 2], 0), branch(3, &[3, 4, 5], 10)],
            decision: None,
        };
        let (x, actions) = XTxnCoordinator::from_recovery(TxnId(7), &rec);
        assert_eq!(x.decision(), Some(Decision::Abort));
        assert!(matches!(
            actions[0],
            Action::Log(LogRecord::XDecision {
                decision: Decision::Abort,
                ..
            })
        ));
    }

    #[test]
    fn recovery_with_decision_reannounces_without_relogging() {
        let rec = RecoveredXTxn {
            branches: vec![branch(0, &[0, 1, 2], 0), branch(3, &[3, 4, 5], 10)],
            decision: Some((
                Decision::Commit,
                vec![(SiteId(0), Some(Version(3))), (SiteId(3), Some(Version(8)))],
            )),
        };
        let (x, actions) = XTxnCoordinator::from_recovery(TxnId(7), &rec);
        assert_eq!(x.decision(), Some(Decision::Commit));
        assert!(
            actions.iter().all(|a| !matches!(a, Action::Log(_))),
            "re-announce must not duplicate the decision record"
        );
        assert!(actions.iter().any(|a| matches!(
            a,
            Action::Send(
                SiteId(3),
                Msg::XDecide {
                    commit_version: Some(Version(8)),
                    ..
                }
            )
        )));
        assert_eq!(x.version_for_site(SiteId(2)), Some(Version(3)));
    }
}
