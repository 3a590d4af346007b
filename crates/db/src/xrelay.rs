//! The cross-shard relay: a site's part in a transaction that spans
//! shards.
//!
//! A top-level 2PC ([`XTxnCoordinator`], the *parent*) runs over one
//! in-shard *branch* per shard; in Gray & Lamport's terms each branch
//! coordinator is a resource manager voting up to a parent transaction
//! manager. A site is the parent ([`SiteNode::begin_xshard`], `step_x`,
//! `resume_xcoords` after a crash), a branch coordinator (`start_branch`
//! on `X-BRANCH-REQ`, `handle_x_decide` on the outcome), or an orphan
//! asking for that outcome (`discover_outcome`; when to ask is
//! `escalation.rs`'s call). The relay holds no state of its own: the
//! coordinations and their retired outcomes are `TxnTable`'s
//! cross-shard half.

use crate::envelope::{NetMsg, NodeCtx, NodeTimer};
use crate::node::SiteNode;
use crate::txn_table::XCoord;
use qbc_core::{Action, Decision, EngineCtx, LocalState, Msg, TxnId, TxnSpec, XTxnCoordinator};
use qbc_obs::EventKind;
use qbc_simnet::{Ctx, SiteId};
use qbc_votes::Version;
use std::collections::BTreeMap;
use std::sync::Arc;

impl SiteNode {
    /// Submits a *cross-shard* transaction at this site (this site runs
    /// the top-level 2PC over the given per-shard branches and also
    /// coordinates the branch whose spec names it).
    ///
    /// The branch specs are pre-split by the cluster layer — only it
    /// holds every shard's catalog — each with `parent` set to this
    /// site. Invoke inside the simulation via `Sim::schedule_call`, or
    /// over the wire via [`NetMsg::BeginXTxn`].
    pub fn begin_xshard(
        &mut self,
        ctx: &mut Ctx<'_, NetMsg, NodeTimer>,
        txn: TxnId,
        branches: Vec<Arc<TxnSpec>>,
    ) {
        if self.table.x_known(txn) {
            return; // duplicate submission
        }
        if let Some(b) = branches.first() {
            self.cfg.emit(
                ctx.now(),
                Some(txn),
                EventKind::Submitted {
                    protocol: b.protocol,
                },
            );
        }
        self.table
            .insert_x(txn, XTxnCoordinator::new(txn, branches));
        self.step_x(ctx, txn, |x, out| x.start(out));
        self.pump(ctx);
    }

    /// Takes a cross-shard message. These address the coordination or
    /// the branch machinery, not the transaction's entry, and must work
    /// when the table knows nothing of the transaction yet. Tells
    /// whether `m` was one.
    pub(crate) fn handle_x(&mut self, ctx: &mut NodeCtx<'_>, from: SiteId, m: &Msg) -> bool {
        match m {
            Msg::XBranchReq { spec, siblings } => self.start_branch(ctx, spec, siblings),
            &(Msg::XVote { txn, .. } | Msg::XOutcomeReq { txn }) => {
                if !self.step_x(ctx, txn, |x, out| x.on_msg(from, m, out)) {
                    // Not the parent: a retired coordination, or (asked
                    // for the outcome) cooperative discovery from a
                    // decided branch.
                    let cooperative = matches!(m, Msg::XOutcomeReq { .. });
                    if let Some(reply) = self.table.x_reply(txn, from, cooperative) {
                        self.send_net(ctx, from, NetMsg::Proto(reply));
                    }
                }
            }
            Msg::XDecide { .. } => self.handle_x_decide(ctx, from, m),
            _ => return false,
        }
        true
    }

    /// Starts coordinating one branch of a cross-shard transaction
    /// (`X-BRANCH-REQ` arrived, possibly self-addressed).
    fn start_branch(&mut self, ctx: &mut NodeCtx<'_>, spec: &Arc<TxnSpec>, siblings: &[SiteId]) {
        debug_assert_eq!(spec.coordinator, self.cfg.site, "misrouted X-BRANCH-REQ");
        debug_assert!(self.cfg.validate_for(spec.protocol).is_ok());
        let txn = spec.id;
        if self.table.retired_outcome(txn).is_some() {
            return; // long decided; duplicate request
        }
        let st = self.ensure_txn(ctx.now(), spec);
        // Remember the sibling coordinators even on a duplicate request:
        // a retried solicitation may be the first one that arrives after
        // this entry was created by an in-shard message.
        st.escalation_mut().x_siblings = siblings.to_vec();
        if st.leader.is_some() || st.decided.is_some() {
            return; // duplicate request
        }
        // A Paxos branch behaves like 2PC toward the parent: all yes →
        // held + X-VOTE yes; the parent is the only outcome authority,
        // so no Paxos rounds ever run in-shard.
        let actions = self.start_leader(Arc::clone(spec));
        self.apply_actions(ctx, txn, self.cfg.site, actions);
        // A held branch coordinator may be left orphaned by a crashed
        // parent: the watchdog drives its outcome discovery.
        self.arm_watchdog(ctx, txn);
    }

    /// The cross-shard decision `msg` (an `X-DECIDE`; any other message
    /// is ignored) arrived at a branch site: terminate the branch with
    /// the parent's outcome. At the branch coordinator the engine
    /// broadcasts the command in-shard; a site without an engine (a
    /// recovered coordinator, or a discovering participant) applies or
    /// relays it directly. Idempotent once decided.
    fn handle_x_decide(&mut self, ctx: &mut NodeCtx<'_>, from: SiteId, msg: &Msg) {
        let &Msg::XDecide {
            txn,
            decision,
            commit_version,
        } = msg
        else {
            return;
        };
        let site = self.cfg.site;
        let Some(st) = self.table.get_mut(txn).filter(|st| st.decided.is_none()) else {
            return; // unknown, retired or decided: nothing held here
        };
        st.last_coord_contact = ctx.now();
        if st.leader.is_some() {
            return self.step(ctx, txn, |st, catalog, out| {
                if let Some(l) = st.leader.as_mut() {
                    let local_max_version = Version::INITIAL;
                    let ectx = EngineCtx {
                        catalog,
                        local_max_version,
                    };
                    l.on_msg(from, msg, &ectx, out);
                }
            });
        }
        // No engine: a recovered branch coordinator or a discovering
        // participant carries the command out itself. The parent's echo
        // carries the branch version; a sibling's answer does not — fall
        // back to the locally learned PC version. A commit with neither
        // cannot be built yet: drop it — the watchdog re-arms, and the
        // parent's echo answers a later retry.
        let version = commit_version.or(st.participant.commit_version());
        let command = match (decision, version) {
            (Decision::Commit, Some(v)) => Msg::Commit {
                txn,
                commit_version: v,
            },
            (Decision::Abort, _) => Msg::Abort { txn },
            (Decision::Commit, None) => return,
        };
        if st.spec.coordinator == site {
            // Re-issue the in-shard command (idempotent at every
            // receiver; the self-addressed copy terminates the local
            // participant). A coordinator without a copy is sent none and
            // decides here, keeping the version to re-announce.
            let spec = Arc::clone(&st.spec);
            let copyless = !spec.participants.contains(&site);
            if copyless {
                st.escalation_mut().decided_version = version;
            }
            for &to in &spec.participants {
                self.send_net(ctx, to, NetMsg::Proto(command.clone()));
            }
            if copyless {
                self.apply_when_durable(ctx.now(), txn, decision, version);
            }
        } else if st.participant.state() != LocalState::Initial {
            self.step(ctx, txn, |st, _, out| {
                st.participant.on_msg(from, &command, Version::INITIAL, out)
            });
        }
    }

    /// Runs `f` on the cross-shard coordination of `txn` hosted here,
    /// if any, with a scratch action buffer, and applies what it emits;
    /// the step that decides queues the coordination's retirement.
    /// Tells whether this site hosts the coordination.
    pub(crate) fn step_x(
        &mut self,
        ctx: &mut NodeCtx<'_>,
        txn: TxnId,
        f: impl FnOnce(&mut XTxnCoordinator, &mut Vec<Action>),
    ) -> bool {
        let mut actions = self.take_actions();
        let Some(XCoord { engine, .. }) = self.table.xcoords.get_mut(&txn) else {
            self.recycle_actions(actions);
            return false;
        };
        let undecided = engine.decision().is_none();
        f(engine, &mut actions);
        let decides = undecided && engine.decision().is_some();
        self.apply_actions(ctx, txn, self.cfg.site, actions);
        if decides {
            self.table.schedule_retire(ctx.now(), txn);
        }
        true
    }

    /// Orphan outcome discovery for a branch of a cross-shard
    /// transaction: `X-OUTCOME-REQ` to the parent first, then to every
    /// sibling branch coordinator (cooperative discovery), skipping the
    /// parent (no duplicate ask when a sibling's coordinator *is* the
    /// parent's site) and this site itself.
    pub(crate) fn discover_outcome(&mut self, ctx: &mut NodeCtx<'_>, txn: TxnId, parent: SiteId) {
        let site = self.cfg.site;
        let siblings = self.table.get(txn).map_or(&[][..], |st| st.x_siblings());
        let mut targets = vec![parent];
        targets.extend(siblings.iter().filter(|&&s| s != parent && s != site));
        for to in targets {
            self.send_net(ctx, to, NetMsg::Proto(Msg::XOutcomeReq { txn }));
        }
        self.cfg
            .emit(ctx.now(), Some(txn), EventKind::OutcomeDiscoveryOut);
    }

    /// Coordinator recovery, run after the participant pass so that
    /// self-addressed `X-DECIDE`s find the local branch state: every
    /// coordination the log started comes back, and resumes — an
    /// undecided one is presumed aborted (no durable `XDecision` proves
    /// no commit `X-DECIDE` ever left this site), a decided one is
    /// re-announced to every branch coordinator.
    pub(crate) fn resume_xcoords(
        &mut self,
        ctx: &mut NodeCtx<'_>,
        xcoords: BTreeMap<TxnId, XTxnCoordinator>,
    ) {
        for (txn, mut engine) in xcoords {
            if self.table.x_known(txn) {
                // Retired into the checkpoint: the compact record keeps
                // answering orphans; no engine (and no re-announce
                // storm) needed.
                continue;
            }
            let mut actions = self.take_actions();
            engine.resume(&mut actions);
            self.table.insert_x(txn, engine);
            self.apply_actions(ctx, txn, self.cfg.site, actions);
            self.table.schedule_retire(ctx.now(), txn);
        }
    }
}
