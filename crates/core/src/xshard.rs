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
//! Like every engine in this crate it is sans-IO, and it takes events
//! the way the leader slot ([`crate::CommitEngine`]) does: one message
//! or timer expiry at a time through [`XTxnCoordinator::on_msg`] and
//! [`XTxnCoordinator::on_timer`], which ignore other roles' events and
//! push [`Action`]s into the caller's buffer.

use crate::actions::{Action, TimerKind};
use crate::log::LogRecord;
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

    /// Re-applies one of this engine's own durable records after a
    /// crash, on an engine built with [`XTxnCoordinator::new`] from the
    /// transaction's [`LogRecord::XStart`]: a logged
    /// [`LogRecord::XDecision`] restores the decision and the branch
    /// commit versions. The decision is irrevocable, so the first one
    /// wins.
    pub fn redo(&mut self, rec: &LogRecord) {
        let LogRecord::XDecision {
            decision,
            branch_versions,
            ..
        } = rec
        else {
            return;
        };
        if self.phase != XPhase::CollectingVotes {
            return;
        }
        for &(coord, v) in branch_versions {
            self.votes.insert(coord, (*decision == Decision::Commit, v));
        }
        self.phase = XPhase::Decided(*decision);
    }

    /// What a recovered engine does once its records are redone: an
    /// undecided transaction is presumed aborted (no durable
    /// [`LogRecord::XDecision`] proves no commit `X-DECIDE` ever left
    /// this site); a decision is re-announced to every branch
    /// coordinator without being logged again.
    pub fn resume(&mut self, out: &mut Vec<Action>) {
        match self.phase {
            XPhase::CollectingVotes => self.decide(Decision::Abort, out),
            XPhase::Decided(decision) => self.relay_decision(decision, out),
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
    pub fn start(&mut self, out: &mut Vec<Action>) {
        out.push(Action::Log(LogRecord::XStart {
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
            out.push(Action::Send(
                b.coordinator,
                Msg::XBranchReq {
                    spec: Arc::clone(b),
                    siblings,
                },
            ));
        }
        out.push(Action::SetTimer(TimerKind::XVoteCollection {
            txn: self.txn,
        }));
    }

    /// Feeds one message: a branch's `X-VOTE` or an orphaned branch
    /// site's `X-OUTCOME-REQ`; appends the effects to `out`. Messages for
    /// other roles, and votes from a site that coordinates no branch, are
    /// ignored.
    pub fn on_msg(&mut self, from: SiteId, msg: &Msg, out: &mut Vec<Action>) {
        let branch = self.branches.iter().any(|b| b.coordinator == from);
        match (msg, self.phase) {
            (Msg::XVote { .. }, _) if !branch => {}
            (
                Msg::XVote {
                    yes,
                    commit_version,
                    ..
                },
                XPhase::CollectingVotes,
            ) => self.on_vote(from, *yes, *commit_version, out),
            // Once decided, a late vote (from a held branch coordinator)
            // and an outcome request are answered with the decision;
            // while collecting, an outcome request goes unanswered (the
            // asker's watchdog retries).
            (Msg::XVote { .. } | Msg::XOutcomeReq { .. }, XPhase::Decided(d)) => {
                out.push(Action::Send(from, self.xdecide_for(from, d)))
            }
            _ => {}
        }
    }

    /// Feeds one timer expiry: the vote-collection window, which
    /// presumes abort for whatever is still missing. Other timers are
    /// ignored.
    pub fn on_timer(&mut self, kind: TimerKind, out: &mut Vec<Action>) {
        if matches!(kind, TimerKind::XVoteCollection { .. })
            && self.phase == XPhase::CollectingVotes
        {
            self.decide(Decision::Abort, out);
        }
    }

    /// A branch's vote while collecting: any no aborts, all yes commits.
    fn on_vote(
        &mut self,
        from: SiteId,
        yes: bool,
        commit_version: Option<Version>,
        out: &mut Vec<Action>,
    ) {
        self.votes.insert(from, (yes, commit_version));
        if !yes {
            self.decide(Decision::Abort, out);
        } else if self.votes.len() == self.branches.len() && self.votes.values().all(|(y, _)| *y) {
            self.decide(Decision::Commit, out);
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
    fn decide(&mut self, decision: Decision, out: &mut Vec<Action>) {
        self.phase = XPhase::Decided(decision);
        out.push(Action::Log(LogRecord::XDecision {
            txn: self.txn,
            decision,
            branch_versions: self.branch_versions(),
        }));
        self.relay_decision(decision, out);
    }

    fn relay_decision(&self, decision: Decision, out: &mut Vec<Action>) {
        out.extend(
            self.branches
                .iter()
                .map(|b| Action::Send(b.coordinator, self.xdecide_for(b.coordinator, decision))),
        );
    }
}

/// Collecting wrappers for unit tests: same entry points, fresh buffer
/// per call (production code passes a reused scratch buffer instead).
#[cfg(test)]
impl XTxnCoordinator {
    fn start_v(&mut self) -> Vec<Action> {
        let mut v = Vec::new();
        self.start(&mut v);
        v
    }

    fn resume_v(&mut self) -> Vec<Action> {
        let mut v = Vec::new();
        self.resume(&mut v);
        v
    }

    fn on_msg_v(&mut self, from: SiteId, msg: Msg) -> Vec<Action> {
        let mut v = Vec::new();
        self.on_msg(from, &msg, &mut v);
        v
    }

    fn on_timer_v(&mut self, kind: TimerKind) -> Vec<Action> {
        let mut v = Vec::new();
        self.on_timer(kind, &mut v);
        v
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

    fn xvote(yes: bool, commit_version: Option<Version>) -> Msg {
        Msg::XVote {
            txn: TxnId(7),
            yes,
            commit_version,
        }
    }

    fn outcome_req() -> Msg {
        Msg::XOutcomeReq { txn: TxnId(7) }
    }

    fn vote_timer() -> TimerKind {
        TimerKind::XVoteCollection { txn: TxnId(7) }
    }

    #[test]
    fn start_logs_before_soliciting_branches() {
        let mut x = engine();
        let actions = x.start_v();
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
        x.start_v();
        assert!(x
            .on_msg_v(SiteId(0), xvote(true, Some(Version(3))))
            .is_empty());
        let actions = x.on_msg_v(SiteId(3), xvote(true, Some(Version(8))));
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
        x.start_v();
        x.on_msg_v(SiteId(0), xvote(true, Some(Version(3))));
        let actions = x.on_msg_v(SiteId(3), xvote(false, None));
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
        x.start_v();
        x.on_msg_v(SiteId(0), xvote(true, Some(Version(3))));
        let actions = x.on_timer_v(vote_timer());
        assert_eq!(x.decision(), Some(Decision::Abort));
        assert!(matches!(
            actions[0],
            Action::Log(LogRecord::XDecision { .. })
        ));
        assert!(x.on_timer_v(vote_timer()).is_empty(), "timer is idempotent");
    }

    #[test]
    fn late_vote_after_decision_gets_the_outcome() {
        let mut x = engine();
        x.start_v();
        x.on_msg_v(SiteId(3), xvote(false, None));
        let actions = x.on_msg_v(SiteId(0), xvote(true, Some(Version(3))));
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
        x.start_v();
        assert!(
            x.on_msg_v(SiteId(4), outcome_req()).is_empty(),
            "undecided discovery stays silent"
        );
        x.on_msg_v(SiteId(0), xvote(true, Some(Version(3))));
        x.on_msg_v(SiteId(3), xvote(true, Some(Version(8))));
        // Site 4 participates in the second branch: gets that version.
        let actions = x.on_msg_v(SiteId(4), outcome_req());
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
        x.start_v();
        assert!(x.on_msg_v(SiteId(9), xvote(false, None)).is_empty());
        assert_eq!(x.decision(), None);
    }

    fn xdecision(decision: Decision, branch_versions: &[(SiteId, Option<Version>)]) -> LogRecord {
        LogRecord::XDecision {
            txn: TxnId(7),
            decision,
            branch_versions: branch_versions.to_vec(),
        }
    }

    /// The engine recovery builds from the coordination's `XStart`,
    /// with `records` redone.
    fn recovered(records: &[LogRecord]) -> XTxnCoordinator {
        let mut x = engine();
        for rec in records {
            x.redo(rec);
        }
        x
    }

    #[test]
    fn recovery_without_decision_presumes_abort() {
        let mut x = recovered(&[]);
        let actions = x.resume_v();
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
        let mut x = recovered(&[xdecision(
            Decision::Commit,
            &[(SiteId(0), Some(Version(3))), (SiteId(3), Some(Version(8)))],
        )]);
        let actions = x.resume_v();
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

    #[test]
    fn a_second_logged_decision_never_replaces_the_first() {
        let x = recovered(&[
            xdecision(
                Decision::Commit,
                &[(SiteId(0), Some(Version(3))), (SiteId(3), Some(Version(8)))],
            ),
            xdecision(Decision::Abort, &[(SiteId(0), None), (SiteId(3), None)]),
        ]);
        assert_eq!(x.decision(), Some(Decision::Commit));
        assert_eq!(
            x.branch_versions(),
            vec![(SiteId(0), Some(Version(3))), (SiteId(3), Some(Version(8)))]
        );
    }

    /// The engine after `start`, collecting votes.
    fn collecting() -> XTxnCoordinator {
        let mut x = engine();
        x.start_v();
        x
    }

    /// The engine after its vote window presumed abort.
    fn decided() -> XTxnCoordinator {
        let mut x = collecting();
        x.on_timer_v(vote_timer());
        x
    }

    enum Event {
        Msg(Msg),
        Timer(TimerKind),
    }

    /// Every event the engine must ignore pushes nothing and leaves the
    /// engine, its phase included, as it was. It runs no rounds and
    /// awaits no acks, so its rows are other roles' events and its own
    /// silent answers.
    #[test]
    fn ignored_events_push_nothing_and_keep_the_phase() {
        let txn = TxnId(7);
        type Row = (&'static str, fn() -> XTxnCoordinator, u32, Event);
        let rows: Vec<Row> = vec![
            (
                "the termination coordinator's PC-ACK",
                collecting,
                0,
                Event::Msg(Msg::PcAck { txn }),
            ),
            (
                "the leader's VOTE",
                collecting,
                3,
                Event::Msg(Msg::Vote {
                    txn,
                    yes: false,
                    max_version: Version(1),
                }),
            ),
            (
                "a branch site's X-DECIDE",
                decided,
                3,
                Event::Msg(Msg::XDecide {
                    txn,
                    decision: Decision::Abort,
                    commit_version: None,
                }),
            ),
            (
                "the leader's vote window",
                collecting,
                0,
                Event::Timer(TimerKind::VoteCollection { txn }),
            ),
            (
                "a termination state window",
                collecting,
                0,
                Event::Timer(TimerKind::StateCollection { txn, round: 1 }),
            ),
            (
                "an X-VOTE from a site that coordinates no branch",
                collecting,
                9,
                Event::Msg(xvote(false, None)),
            ),
            (
                "an X-OUTCOME-REQ while collecting",
                collecting,
                4,
                Event::Msg(outcome_req()),
            ),
            (
                "the vote window once decided",
                decided,
                0,
                Event::Timer(vote_timer()),
            ),
        ];
        for (row, engine, from, event) in rows {
            let mut x = engine();
            let before = format!("{x:?}");
            let out = match event {
                Event::Msg(m) => x.on_msg_v(SiteId(from), m),
                Event::Timer(k) => x.on_timer_v(k),
            };
            assert!(out.is_empty(), "{row}: pushed {out:?}");
            assert_eq!(format!("{x:?}"), before, "{row}: changed the engine");
        }
    }
}
