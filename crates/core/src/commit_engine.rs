//! The pluggable commit-engine abstraction.
//!
//! Every engine of this crate shares one event contract: each is fed
//! one message (`on_msg`) or one timer expiry (`on_timer`) at a time,
//! ignores the events of other roles, and pushes its effects
//! ([`Action`]s) into a buffer the caller supplies. Besides the leader
//! slot below, the termination coordinator ([`crate::Termination`]),
//! the election before it ([`crate::election::Elector`]), the
//! cross-shard coordinator ([`crate::XTxnCoordinator`]) and the Paxos
//! acceptor ([`crate::PaxosAcceptor`]) keep it as inherent methods, and
//! the [`crate::Participant`] takes messages the same way (its one
//! timer, the watchdog, is the site's). So a site feeds each message
//! and timer to every engine a transaction holds without knowing which
//! one it is for.
//!
//! This module names the *leader* slot as a trait, so the
//! [`Coordinator`] that drives the five quorum-paper engines and Gray &
//! Lamport's Paxos Commit leader ([`crate::paxos_commit::PaxosLeader`])
//! are peers: a site builds one by [`crate::types::ProtocolKind`], holds
//! it in a single slot per transaction, and from then on talks to it only
//! through this interface. The trait requires
//! [`qbc_simnet::Fingerprint`], so the slot hashes straight into the
//! model checker's visited states, and [`CommitEngine::clone_box`], so
//! the table holding it stays `Clone` for the checker.
//!
//! Each impl only routes a message or timer to the engine's method for
//! that event (crate-private, so the trait is the one way in); the
//! tests below check the routing event by event, and the golden digests
//! in `crates/cluster/tests/determinism.rs` pin the schedule a site
//! driving its leader this way produces.

use crate::actions::{Action, TimerKind};
use crate::coordinator::{CoordPhase, Coordinator};
use crate::log::LogRecord;
use crate::messages::Msg;
use crate::types::{Decision, TxnSpec};
use qbc_simnet::SiteId;
use qbc_votes::{Catalog, Version};

/// Per-event context the driver supplies alongside each message or
/// timer: the replica catalog (quorum arithmetic) and the highest local
/// version among this site's copies of the transaction's writeset items
/// (reported in yes votes).
pub struct EngineCtx<'a> {
    /// The cluster's replica catalog.
    pub catalog: &'a Catalog,
    /// Highest local version among the site's writeset copies.
    pub local_max_version: Version,
}

/// One transaction's leader (commit coordinator or Paxos Commit
/// leader/candidate), as a uniform message-in/actions-out machine.
///
/// Effects are appended to a caller-supplied scratch buffer rather than
/// returned in a fresh `Vec`: the driver recycles a small pool of
/// buffers, so the steady-state message path performs no allocation per
/// event. Engines only ever *push* — they must not read, clear, or
/// reorder what the caller already buffered.
///
/// A leader at a coordinator that holds no copy of the writeset
/// (Example 3's s1) applies its own decision: the event that decides
/// ends with an [`Action::ApplyAndDecide`] for the site.
pub trait CommitEngine: qbc_simnet::Fingerprint + std::fmt::Debug + Send {
    /// Kicks the engine off.
    fn start(&mut self, out: &mut Vec<Action>);

    /// Feeds one protocol message; appends the effects to `out`.
    /// Messages addressed to another role are ignored.
    fn on_msg(&mut self, from: SiteId, msg: &Msg, ctx: &EngineCtx<'_>, out: &mut Vec<Action>);

    /// Feeds one timer expiry; appends the effects to `out`.
    fn on_timer(&mut self, kind: TimerKind, ctx: &EngineCtx<'_>, out: &mut Vec<Action>);

    /// The irrevocable outcome, once this engine reached one.
    fn decision(&self) -> Option<Decision>;

    /// The commit version, once fixed.
    fn commit_version(&self) -> Option<Version>;

    /// A boxed copy of this engine.
    fn clone_box(&self) -> Box<dyn CommitEngine>;
}

/// A leader's decision: force-log it, then command every participant;
/// a branch aborting before its yes vote (`abort_upward`) tells the
/// parent too. The event ends with [`apply_at_copyless_coordinator`]
/// where the leader runs at the coordinator (`at_coordinator` is false
/// only for a Paxos recovery candidate, which runs at a participant).
pub(crate) fn push_decision(
    spec: &TxnSpec,
    decision: Decision,
    commit_version: Option<Version>,
    abort_upward: bool,
    at_coordinator: bool,
    out: &mut Vec<Action>,
) {
    let txn = spec.id;
    let (commit_version, command) = match decision {
        Decision::Commit => {
            let v = commit_version.expect("commit implies version");
            (
                Some(v),
                Msg::Commit {
                    txn,
                    commit_version: v,
                },
            )
        }
        Decision::Abort => (None, Msg::Abort { txn }),
    };
    out.push(Action::Log(LogRecord::Decided {
        txn,
        decision,
        commit_version,
    }));
    let everyone = spec.participants.iter().copied().collect();
    out.push(Action::Broadcast(everyone, command));
    if let Some(parent) = spec.parent.filter(|_| abort_upward) {
        let no = Msg::XVote {
            txn,
            yes: false,
            commit_version: None,
        };
        out.push(Action::Send(parent, no));
    }
    if at_coordinator {
        apply_at_copyless_coordinator(spec, decision, commit_version, out);
    }
}

/// At a coordinator that holds no copy of `spec`'s writeset, which is
/// sent none of the commands it broadcasts, the site applies `decision`
/// itself, behind the durability gate a participant's application takes.
pub(crate) fn apply_at_copyless_coordinator(
    spec: &TxnSpec,
    decision: Decision,
    commit_version: Option<Version>,
    out: &mut Vec<Action>,
) {
    if !spec.participants.contains(&spec.coordinator) {
        let commit_version = commit_version.filter(|_| decision == Decision::Commit);
        out.push(Action::ApplyAndDecide {
            decision,
            commit_version,
        });
    }
}

impl Clone for Box<dyn CommitEngine> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

impl CommitEngine for Coordinator {
    fn start(&mut self, out: &mut Vec<Action>) {
        Coordinator::start(self, out)
    }

    fn on_msg(&mut self, from: SiteId, msg: &Msg, ctx: &EngineCtx<'_>, out: &mut Vec<Action>) {
        match msg {
            Msg::Vote {
                yes, max_version, ..
            } => self.on_vote(from, *yes, *max_version, ctx.catalog, out),
            Msg::PcAck { .. } => self.on_pc_ack(from, ctx.catalog, out),
            Msg::XDecide {
                decision,
                commit_version,
                ..
            } => self.on_x_decide(*decision, *commit_version, out),
            _ => {}
        }
    }

    fn on_timer(&mut self, kind: TimerKind, ctx: &EngineCtx<'_>, out: &mut Vec<Action>) {
        match kind {
            TimerKind::VoteCollection { .. } => self.on_vote_timer(out),
            TimerKind::AckCollection { .. } => self.on_ack_timer(ctx.catalog, out),
            _ => {}
        }
    }

    fn decision(&self) -> Option<Decision> {
        match self.phase() {
            CoordPhase::Decided(d) => Some(d),
            _ => None,
        }
    }

    fn commit_version(&self) -> Option<Version> {
        Coordinator::commit_version(self)
    }

    fn clone_box(&self) -> Box<dyn CommitEngine> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paxos_commit::PaxosLeader;
    use crate::types::{ProtocolKind, TxnId, TxnSpec, WriteSet};
    use qbc_votes::{CatalogBuilder, ItemId};
    use std::sync::Arc;

    fn catalog() -> Catalog {
        CatalogBuilder::new()
            .item(ItemId(0))
            .copies_at([SiteId(0), SiteId(1), SiteId(2)])
            .quorums(2, 2)
            .build()
            .unwrap()
    }

    fn spec(protocol: ProtocolKind) -> Arc<TxnSpec> {
        Arc::new(TxnSpec {
            id: TxnId(1),
            coordinator: SiteId(0),
            writeset: WriteSet::new([(ItemId(0), 7)]),
            participants: [SiteId(0), SiteId(1), SiteId(2)].into(),
            protocol,
            parent: None,
        })
    }

    fn vote(s: u32) -> Msg {
        Msg::Vote {
            txn: TxnId(1),
            yes: true,
            max_version: Version(s as u64),
        }
    }

    /// One event through the direct method and through the trait: both
    /// must emit the same actions.
    fn same(direct: impl FnOnce(&mut Vec<Action>), via_trait: impl FnOnce(&mut Vec<Action>)) {
        let (mut a, mut b) = (Vec::new(), Vec::new());
        direct(&mut a);
        via_trait(&mut b);
        assert_eq!(a, b);
    }

    /// The trait path and the direct-method path must emit identical
    /// actions, checked event by event on a full 2PC run through a
    /// coordinator and a full Paxos Commit run through a ballot-0 leader.
    #[test]
    fn trait_dispatch_matches_direct_calls_for_each_leader() {
        let cat = catalog();
        let ctx = EngineCtx {
            catalog: &cat,
            local_max_version: Version(0),
        };
        let mut direct = Coordinator::new(spec(ProtocolKind::TwoPhase), None);
        let mut via: Box<dyn CommitEngine> = Box::new(direct.clone());
        same(|o| direct.start(o), |o| via.start(o));
        for s in 0..3u32 {
            same(
                |o| direct.on_vote(SiteId(s), true, Version(s.into()), &cat, o),
                |o| via.on_msg(SiteId(s), &vote(s), &ctx, o),
            );
        }
        assert_eq!(via.decision(), Some(Decision::Commit));
        assert_eq!(via.commit_version(), Some(Version(3)));

        let mut direct = PaxosLeader::new(spec(ProtocolKind::PaxosCommit));
        let mut via: Box<dyn CommitEngine> = Box::new(direct.clone());
        same(|o| direct.start(o), |o| via.start(o));
        for s in 0..3u32 {
            same(
                |o| direct.on_vote(SiteId(s), true, Version(s.into()), o),
                |o| via.on_msg(SiteId(s), &vote(s), &ctx, o),
            );
        }
        let (txn, bal) = (TxnId(1), 0);
        same(
            |o| direct.on_2b_timer(bal, o),
            |o| via.on_timer(TimerKind::Paxos2bCollection { txn, bal }, &ctx, o),
        );
        let votes = Vec::new();
        let p2b = Msg::PaxosP2b { txn, bal, votes };
        for s in 0..2u32 {
            same(
                |o| direct.on_p2b(SiteId(s), bal, o),
                |o| via.on_msg(SiteId(s), &p2b, &ctx, o),
            );
        }
        assert_eq!(via.decision(), Some(Decision::Commit));
        assert_eq!(via.commit_version(), Some(Version(3)));
    }

    /// A straggler's `Decided` ends a live recovery candidacy quietly:
    /// the candidate reports the outcome, and its Phase-1b and
    /// Phase-2b windows re-broadcast nothing more.
    #[test]
    fn decided_through_on_msg_ends_a_paxos_candidacy() {
        let cat = catalog();
        let ctx = EngineCtx {
            catalog: &cat,
            local_max_version: Version(0),
        };
        let mut candidate: Box<dyn CommitEngine> =
            Box::new(PaxosLeader::recover(spec(ProtocolKind::PaxosCommit), 5));
        let mut out = Vec::new();
        candidate.start(&mut out);
        assert!(matches!(out[0], Action::Broadcast(_, Msg::PaxosP1a { .. })));
        out.clear();
        let decided = Msg::Decided {
            txn: TxnId(1),
            decision: Decision::Commit,
            commit_version: Some(Version(4)),
        };
        candidate.on_msg(SiteId(2), &decided, &ctx, &mut out);
        assert!(out.is_empty(), "adopting announces nothing: {out:?}");
        assert_eq!(candidate.decision(), Some(Decision::Commit));
        assert_eq!(candidate.commit_version(), Some(Version(4)));
        let txn = TxnId(1);
        candidate.on_timer(TimerKind::Paxos1bCollection { txn, bal: 5 }, &ctx, &mut out);
        candidate.on_timer(TimerKind::Paxos2bCollection { txn, bal: 5 }, &ctx, &mut out);
        assert!(out.is_empty(), "a decided candidate stays quiet: {out:?}");
    }

    /// `spec(protocol)` coordinated at `coordinator`, under `parent` if
    /// any.
    fn spec_at(protocol: ProtocolKind, coordinator: u32, parent: Option<u32>) -> Arc<TxnSpec> {
        Arc::new(TxnSpec {
            coordinator: SiteId(coordinator),
            parent: parent.map(SiteId),
            ..(*spec(protocol)).clone()
        })
    }

    /// Starts `leader`, feeds it `events` and returns what the last
    /// one pushed.
    fn last_event(leader: &mut dyn CommitEngine, events: &[(u32, Msg)]) -> Vec<Action> {
        let cat = catalog();
        let ctx = EngineCtx {
            catalog: &cat,
            local_max_version: Version(0),
        };
        let mut out = Vec::new();
        leader.start(&mut out);
        for (from, msg) in events {
            out.clear();
            leader.on_msg(SiteId(*from), msg, &ctx, &mut out);
        }
        out
    }

    fn no_vote(s: u32) -> (u32, Msg) {
        let (txn, yes, max_version) = (TxnId(1), false, Version(0));
        (
            s,
            Msg::Vote {
                txn,
                yes,
                max_version,
            },
        )
    }

    /// The events that take `protocol`'s leader to a commit, or to an
    /// abort: every vote yes then the commit point's acks, or one no.
    fn run_to(protocol: ProtocolKind, commit: bool) -> Vec<(u32, Msg)> {
        if !commit {
            return vec![no_vote(0)];
        }
        let mut events: Vec<_> = (0..3).map(|s| (s, vote(s))).collect();
        let txn = TxnId(1);
        match protocol {
            ProtocolKind::QuorumCommit2 => events.extend((0..2).map(|s| (s, Msg::PcAck { txn }))),
            ProtocolKind::PaxosCommit => {
                let votes = Vec::new();
                let p2b = Msg::PaxosP2b { txn, bal: 0, votes };
                events.extend((0..2).map(|s| (s, p2b.clone())));
            }
            _ => {}
        }
        events
    }

    fn leader(protocol: ProtocolKind, spec: Arc<TxnSpec>) -> Box<dyn CommitEngine> {
        match protocol {
            ProtocolKind::PaxosCommit => Box::new(PaxosLeader::new(spec)),
            _ => Box::new(Coordinator::new(spec, None)),
        }
    }

    fn applies(out: &[Action]) -> usize {
        let apply = |a: &&Action| matches!(a, Action::ApplyAndDecide { .. });
        out.iter().filter(apply).count()
    }

    /// A leader at a coordinator that holds no copy (site 9; the copies
    /// are at 0–2) ends the deciding event with one `ApplyAndDecide`,
    /// after its `Decided` record and its command; at a coordinator
    /// that holds a copy the same event pushes none.
    #[test]
    fn a_copyless_coordinator_applies_its_own_decision() {
        let two_pc = ProtocolKind::TwoPhase;
        let qc2 = ProtocolKind::QuorumCommit2;
        let paxos = ProtocolKind::PaxosCommit;
        for protocol in [two_pc, qc2, paxos] {
            for commit in [true, false] {
                let row = format!("{protocol:?}, commit {commit}");
                let events = run_to(protocol, commit);
                let mut copyless = leader(protocol, spec_at(protocol, 9, None));
                let out = last_event(copyless.as_mut(), &events);
                let (decision, commit_version) = match commit {
                    true => (Decision::Commit, Some(Version(3))),
                    false => (Decision::Abort, None),
                };
                let logged = |a: &Action| matches!(a, Action::Log(LogRecord::Decided { decision: d, .. }) if *d == decision);
                let apply = Action::ApplyAndDecide {
                    decision,
                    commit_version,
                };
                assert_eq!(out.len(), 3, "{row}: {out:?}");
                assert!(logged(&out[0]), "{row}: {out:?}");
                assert!(matches!(out[1], Action::Broadcast(..)), "{row}: {out:?}");
                assert_eq!(out[2], apply, "{row}");
                let mut holder = leader(protocol, spec_at(protocol, 0, None));
                let out = last_event(holder.as_mut(), &events);
                assert_eq!(out.len(), 2, "{row}: {out:?}");
                assert_eq!(applies(&out), 0, "{row}: {out:?}");
            }
        }
        // A branch's upward no comes before the application.
        let mut branch = leader(two_pc, spec_at(two_pc, 9, Some(7)));
        let out = last_event(branch.as_mut(), &[no_vote(0)]);
        assert!(
            matches!(
                out.as_slice(),
                [
                    Action::Log(_),
                    Action::Broadcast(..),
                    Action::Send(SiteId(7), Msg::XVote { yes: false, .. }),
                    Action::ApplyAndDecide {
                        decision: Decision::Abort,
                        commit_version: None
                    }
                ]
            ),
            "{out:?}"
        );
        // A ballot-0 leader that adopts a straggler's outcome applies it
        // too; it logs and commands nothing.
        let decided = Msg::Decided {
            txn: TxnId(1),
            decision: Decision::Commit,
            commit_version: Some(Version(4)),
        };
        let mut copyless = leader(paxos, spec_at(paxos, 9, None));
        let out = last_event(copyless.as_mut(), &[(2, decided)]);
        let apply = Action::ApplyAndDecide {
            decision: Decision::Commit,
            commit_version: Some(Version(4)),
        };
        assert_eq!(out, vec![apply]);
    }

    /// A Paxos recovery candidate runs at a participant, which its own
    /// command reaches: even for a coordinator without a copy it decides
    /// (commit on an adopted all-prepared batch, abort on an empty
    /// Phase 1) and adopts without an `ApplyAndDecide`.
    #[test]
    fn a_recovery_candidate_applies_nothing_itself() {
        let paxos = ProtocolKind::PaxosCommit;
        let (txn, bal) = (TxnId(1), 5);
        for commit in [true, false] {
            let accepted: Vec<_> = match commit {
                true => (0..3)
                    .map(|s| (SiteId(s), 0, true, Version(s.into())))
                    .collect(),
                false => Vec::new(),
            };
            let p1b = Msg::PaxosP1b { txn, bal, accepted };
            let p2b = Msg::PaxosP2b {
                txn,
                bal,
                votes: Vec::new(),
            };
            let events = [(0, p1b.clone()), (1, p1b), (0, p2b.clone()), (1, p2b)];
            let mut candidate = PaxosLeader::recover(spec_at(paxos, 9, None), bal);
            let out = last_event(&mut candidate, &events);
            let decision = if commit {
                Decision::Commit
            } else {
                Decision::Abort
            };
            assert_eq!(candidate.decision(), Some(decision));
            assert!(
                matches!(out.as_slice(), [Action::Log(_), Action::Broadcast(..)]),
                "commit {commit}: {out:?}"
            );
        }
        let decided = Msg::Decided {
            txn,
            decision: Decision::Abort,
            commit_version: None,
        };
        let mut candidate = PaxosLeader::recover(spec_at(paxos, 9, None), bal);
        assert_eq!(last_event(&mut candidate, &[(2, decided)]), vec![]);
    }
}
