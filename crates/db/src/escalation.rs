//! Escalation: what a site does once a transaction leaves the normal
//! case.
//!
//! A watchdog per undecided transaction notices coordinator silence
//! (`3T` without contact) and escalates. An in-shard transaction elects
//! a termination coordinator per partition, and the elected site runs
//! termination rounds until the transaction decides or blocks (a
//! blocked one retries on a timer when so configured). Under Paxos
//! Commit any participant stands as a recovery candidate instead. A
//! branch of a cross-shard transaction may not terminate in-shard: it
//! asks the parent and its sibling branch coordinators for the outcome
//! (`discover_outcome`, in `xrelay.rs`).
//!
//! What this needs per transaction is [`Escalation`], a second box of
//! the `TxnState` that most transactions never allocate; the functions
//! here are the [`SiteNode`] methods that start each step. The elector
//! and the termination round they start take their messages and timers
//! like every other engine, through `handle_proto` and `on_timer` in
//! `node.rs`; an election won there comes back as
//! [`Action::Elected`](qbc_core::Action::Elected) to
//! `start_termination_round`.

use crate::envelope::{NodeCtx, NodeTimer};
use crate::node::SiteNode;
use qbc_core::election::Elector;
use qbc_core::{
    recovery_ballot, LocalState, PaxosLeader, ProtocolKind, Termination, TimerKind, TxnId,
};
use qbc_obs::EventKind;
use qbc_simnet::SiteId;
use qbc_votes::Version;
use std::sync::Arc;

/// What a transaction needs only once it leaves the normal case —
/// termination, the election before it, cross-shard outcome discovery —
/// boxed apart from its `TxnState`, which it would otherwise grow by
/// half. The two engines stay boxed within: a branch coordinator
/// creates this for its siblings alone.
#[derive(Clone, Debug, Default)]
pub(crate) struct Escalation {
    pub(crate) termination: Option<Box<Termination>>,
    pub(crate) elector: Option<Box<Elector>>,
    pub(crate) termination_rounds: u64,
    pub(crate) blocked: bool,
    /// Commit version adopted with an engine-less decision (a recovered
    /// copy-less branch coordinator learning `X-DECIDE` directly): the
    /// participant never saw a command, so the version must be kept
    /// here for retirement records and `Decided` re-announces.
    pub(crate) decided_version: Option<Version>,
    /// Coordinators of the sibling branches of a cross-shard
    /// transaction (from `X-BRANCH-REQ`). Outcome discovery asks them
    /// alongside the parent: any branch that learned the top-level
    /// decision can answer, so a crashed parent no longer blocks this
    /// shard until recovery. Volatile — a branch coordinator that
    /// crashes falls back to parent-only discovery.
    pub(crate) x_siblings: Vec<SiteId>,
}

impl SiteNode {
    pub(crate) fn arm_watchdog(&mut self, ctx: &mut NodeCtx<'_>, txn: TxnId) {
        if let Some(st) = self.table.get_mut(txn) {
            if st.decided.is_none() && !st.watchdog_armed {
                st.watchdog_armed = true;
                ctx.set_timer(
                    self.cfg.watchdog_3t(),
                    NodeTimer::Proto(TimerKind::CoordinatorWatch { txn }),
                );
            }
        }
    }

    /// The watchdog fired: a participant that heard nothing from a
    /// coordinator for `3T` escalates, and the watchdog re-arms while
    /// `txn` is undecided (the re-entrant retry loop).
    pub(crate) fn on_watchdog(&mut self, ctx: &mut NodeCtx<'_>, txn: TxnId) {
        let (now, site) = (ctx.now(), self.cfg.site);
        let watchdog = self.cfg.watchdog_3t();
        let mut actions = self.take_actions();
        let Some(st) = self.table.get_mut(txn) else {
            return self.recycle_actions(actions);
        };
        st.watchdog_armed = false;
        if st.decided.is_some() {
            return self.recycle_actions(actions);
        }
        let mut orphan_parent = None;
        if now.since(st.last_coord_contact) >= watchdog {
            if st.spec.protocol == ProtocolKind::PaxosCommit
                && st.participant.state() == LocalState::Initial
                && st.spec.participants.contains(&site)
            {
                // A Paxos copy holder still in `q` was drawn in by a
                // candidate's 1a (the quorum engines' `STATE-REQ`
                // vetoes on arrival instead). It never voted: its
                // vote cannot leave before its `Voted` record is
                // forced, so no commit can count on it. Waiting could
                // be forever — a candidate that adopts a decided
                // peer's answer tells no one, and a coordinator that
                // lost its unforced start record knows nothing of the
                // transaction — so it vetoes.
                st.participant.veto_abort(&mut actions);
            } else {
                st.participant.on_coordinator_silent(&mut actions);
            }
            // A held branch coordinator that holds no copies has a
            // participant still in `q` (which stays quiet): it must
            // still discover the cross-shard outcome — from the
            // parent, and cooperatively from sibling branch
            // coordinators.
            orphan_parent = st
                .spec
                .parent
                .filter(|_| actions.is_empty() && st.spec.coordinator == site);
        }
        if let Some(parent) = orphan_parent {
            self.discover_outcome(ctx, txn, parent);
        }
        self.apply_actions(ctx, txn, site, actions);
        self.arm_watchdog(ctx, txn);
    }

    /// Escalates an undecided `txn` that has rounds left: outcome
    /// discovery for a cross-shard branch, a recovery candidacy under
    /// Paxos Commit, else a termination election.
    pub(crate) fn start_termination_election(&mut self, ctx: &mut NodeCtx<'_>, txn: TxnId) {
        let Some(st) = self.table.get_mut(txn) else {
            return;
        };
        if st.decided.is_some() || st.termination_rounds() >= self.cfg.max_termination_rounds {
            return;
        }
        if let Some(parent) = st.spec.parent {
            // A branch of a cross-shard transaction may not terminate
            // in-shard: once prepared it could contradict the top-level
            // decision (e.g. a PC quorum committing a branch the parent
            // aborted). Outcome discovery replaces the election; the
            // watchdog re-arms, so the ask retries until answered.
            // Sibling branch coordinators are asked alongside the
            // parent — any decided branch can relay the outcome, so a
            // crashed parent no longer blocks until recovery.
            self.discover_outcome(ctx, txn, parent);
            return;
        }
        if st.spec.protocol == ProtocolKind::PaxosCommit {
            // Paxos Commit replaces the termination election entirely:
            // any participant may stand up as a recovery candidate and
            // run Phase 1a at a ballot above every earlier one. The
            // acceptor majority then tells the candidate what (if
            // anything) was already chosen; unchosen instances are
            // presumed aborted.
            let esc = st.escalation_mut();
            esc.termination_rounds += 1;
            let bal = recovery_ballot(esc.termination_rounds, self.cfg.site);
            let candidate = PaxosLeader::recover(Arc::clone(&st.spec), bal);
            let candidate = self.paxos_leader(candidate);
            let actions = self.install_leader(txn, candidate);
            self.apply_actions(ctx, txn, self.cfg.site, actions);
            return;
        }
        self.cfg
            .emit(ctx.now(), Some(txn), EventKind::ElectionStarted);
        let site = self.cfg.site;
        self.step(ctx, txn, |st, _, out| st.elector(site).start(out));
    }

    /// This site was elected: it runs the next termination round. A
    /// participant that never voted seeds its own `q` state into the
    /// round's view — a veto, made durable and irrevocable before the
    /// round's messages leave (see `Participant::veto_abort`). A
    /// coordinator without a copy is no participant and does neither.
    pub(crate) fn start_termination_round(&mut self, ctx: &mut NodeCtx<'_>, txn: TxnId) {
        let Some(st) = self.table.get(txn).filter(|st| st.decided.is_none()) else {
            return;
        };
        let kind = qbc_core::termination_kind_for(st.spec.protocol, self.cfg.site_votes.as_ref());
        let (site, round) = (self.cfg.site, st.termination_rounds() + 1);
        if st.spec.participants.contains(&site) {
            self.step(ctx, txn, |st, _, out| st.participant.veto_abort(out));
        }
        self.cfg
            .emit(ctx.now(), Some(txn), EventKind::TerminationRound { round });
        self.step(ctx, txn, |st, _, out| {
            st.escalation_mut().termination_rounds = round;
            let (state, version) = (st.participant.state(), st.participant.commit_version());
            let spec = Arc::clone(&st.spec);
            let term = Termination::start(site, spec, kind, round, state, version, out);
            st.escalation_mut().termination = Some(Box::new(term));
        });
    }
}
