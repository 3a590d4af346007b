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
use crate::messages::Msg;
use crate::types::Decision;
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
}
