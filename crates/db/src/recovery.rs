//! Restart: one walk over the durable log rebuilds a site.
//!
//! A crashed site keeps its item store and the forced prefix of its
//! log; everything else is gone. [`SiteNode::recover`] reads the log
//! once, from its start. The newest checkpoint gives the retired
//! outcomes and the item snapshot; every other record goes to a freshly
//! built engine of the kind that logged it — the participant, the
//! cross-shard coordinator or the Paxos acceptor — which redoes it.
//! Then each recovered transaction re-enters its protocol: committed
//! writes are installed again, an in-doubt yes vote re-pins its copies
//! and arms the watchdog, and a coordinator re-announces a logged
//! decision or, under 2PC, presumes abort. A reopened log is read by
//! `FileWal::open`'s validating scan and by this walk, and by nothing
//! else.

use crate::config::Mutation;
use crate::envelope::{NetMsg, NodeTimer};
use crate::node::SiteNode;
use crate::txn_table::TxnState;
use qbc_core::{
    Decision, LocalState, LogRecord, Msg, Participant, ParticipantConfig, PaxosAcceptor, TxnId,
    XTxnCoordinator,
};
use qbc_locks::LockMode;
use qbc_obs::EventKind;
use qbc_simnet::Ctx;
use qbc_storage::{Lsn, WalBackend};
use qbc_votes::Version;
use std::collections::BTreeMap;
use std::sync::Arc;

impl SiteNode {
    /// Rebuilds this site's volatile state from its log and re-enters
    /// every transaction the log leaves open.
    pub(crate) fn recover(&mut self, ctx: &mut Ctx<'_, NetMsg, NodeTimer>) {
        // One walk over the durable log: keep the newest checkpoint and
        // its end LSN, note each transaction's first record (the
        // truncation bookkeeping) and the largest id of any record or
        // checkpointed outcome, and hand every other record to its
        // transaction's engine of the kind that logged it, built fresh —
        // each engine redoes its own records.
        let site = self.cfg.site;
        let participant_cfg = ParticipantConfig {
            vote_yes: true,
            faulty: self.cfg.faulty,
        };
        let mut checkpoint = None;
        let mut participants = BTreeMap::new();
        let mut xcoords = BTreeMap::new();
        let mut acceptors: BTreeMap<TxnId, PaxosAcceptor> = BTreeMap::new();
        let mut max_txn = None;
        for (lsn, rec) in self.log.wal().replay() {
            let Some(txn) = rec.txn() else {
                if let LogRecord::Checkpoint {
                    retired, xretired, ..
                } = &rec
                {
                    let x = xretired.iter().map(|o| o.txn);
                    max_txn = max_txn.max(retired.iter().map(|o| o.txn).chain(x).max());
                }
                self.last_checkpoint_end = Lsn(lsn.0 + 1);
                checkpoint = Some(rec);
                continue;
            };
            max_txn = max_txn.max(Some(txn));
            self.table.note_record(txn, lsn);
            match &rec {
                // A coordination exists from its start record on.
                LogRecord::XStart { branches, .. } => {
                    xcoords
                        .entry(txn)
                        .or_insert_with(|| XTxnCoordinator::new(txn, branches.clone()));
                }
                LogRecord::XDecision { .. } => {
                    if let Some(x) = xcoords.get_mut(&txn) {
                        x.redo(&rec);
                    }
                }
                LogRecord::PaxosPromise { .. } | LogRecord::PaxosAccept { .. } => {
                    acceptors.entry(txn).or_default().redo(&rec)
                }
                _ => {
                    let rec = match rec {
                        LogRecord::Decided {
                            decision: Decision::Commit,
                            commit_version,
                            ..
                        } if self.cfg.mutation == Some(Mutation::RedoCommitAsAbort) => {
                            LogRecord::Decided {
                                txn,
                                decision: Decision::Abort,
                                commit_version,
                            }
                        }
                        rec => rec,
                    };
                    participants
                        .entry(txn)
                        .or_insert_with(|| Participant::new(site, txn, participant_cfg))
                        .redo(&rec)
                }
            }
        }
        self.max_recovered_txn = max_txn;
        // Checkpoint outcomes first: they stand in for truncated
        // per-transaction records, so the retired outcomes must answer
        // before the passes below decide what to resurrect.
        if let Some(LogRecord::Checkpoint {
            retired,
            xretired,
            items,
        }) = &checkpoint
        {
            // Item snapshot before the passes: suffix records carry only
            // post-checkpoint updates. Chain installation is additive
            // and idempotent, so never-written copies (snapshot at the
            // initial version) fall through to the load-time value
            // harmlessly; over a store reloaded from scratch it also
            // drops the load-time value wherever the snapshot had
            // trimmed it.
            for chain in items.chunk_by(|a, b| a.0 == b.0) {
                let item = chain[0].0;
                if self.items.read(item).is_some() {
                    let versions = chain.iter().map(|&(_, v, value)| (v, value));
                    self.items.install_chain(item, versions);
                }
            }
            self.table.install_checkpoint(ctx.now(), retired, xretired);
        }
        for (txn, participant) in participants {
            if self.table.retired_outcome(txn).is_some() {
                // Retired before the checkpoint: only leftover records
                // of an already-answered history (truncation keeps
                // whole segments). The compact outcome keeps answering.
                continue;
            }
            let Some(spec) = participant.spec().cloned() else {
                // Without a spec (vote-no abort) there is nothing to
                // re-enter; the decision is already durable.
                continue;
            };
            let state = participant.state();
            let decided = state.decision();
            let commit_version = participant.commit_version();
            // Re-apply committed updates (idempotent: version checks).
            if let (Some(Decision::Commit), Some(version)) = (decided, commit_version) {
                for (&item, &value) in spec.writeset.updates.iter() {
                    if self.items.read(item).is_some() {
                        let _ = self.items.apply(item, version, value);
                    }
                }
            }
            // Re-pin the copies of an in-doubt yes vote: its outcome is
            // unknown, so its items must stay inaccessible. A transaction
            // recovered in `Initial` (only its `CoordinatorStart` durable)
            // never voted here and pins nothing. The re-pins cannot
            // collide: a copy is released only once its holder's
            // `Decided` record is at least staged, and the next yes vote
            // on it is logged behind that record, so a prefix-forced log
            // keeps at most one undecided yes vote per copy.
            if decided.is_none() && state != LocalState::Initial {
                for item in spec.writeset.items() {
                    if self.items.read(item).is_some() {
                        let pinned = self.locks.acquire(txn, item, LockMode::Exclusive);
                        debug_assert!(pinned, "{txn:?} re-pins {item:?}, already pinned");
                        self.cfg
                            .emit(ctx.now(), Some(txn), EventKind::PinStart { item });
                    }
                }
                // The watermark floor the in-doubt pin imposes, raised
                // to just below the commit version a PreCommit fixed.
                self.reads.pin(txn, &self.items, &spec, commit_version);
            }
            // Sibling knowledge is volatile: a recovered branch falls
            // back to parent-only outcome discovery.
            let mut st = TxnState::new(Arc::clone(&spec), participant, ctx.now());
            st.decided = decided;
            st.decided_at = decided.map(|_| ctx.now());
            self.table.insert(txn, st);
            if decided.is_none() {
                self.arm_watchdog(ctx, txn);
            } else {
                self.table.schedule_retire(ctx.now(), txn);
            }
            // Coordinator-side recovery duties.
            if spec.coordinator != site {
                continue;
            }
            match decided {
                // Re-announce a decision that may never have left this
                // site (crash between log force and broadcast).
                Some(decision) => {
                    for &to in &spec.participants {
                        self.send_decided(ctx, to, txn, (decision, commit_version));
                    }
                }
                // 2PC presumed abort: the commit point is this site's
                // own Decided record; its absence proves the transaction
                // never committed, so the recovering coordinator may
                // (must, for liveness) abort it. The quorum protocols
                // may NOT do this — their termination protocols can
                // commit without the coordinator — and neither may a
                // *branch* of a cross-shard transaction under any
                // protocol: its commit point lives at the parent, which
                // may already have counted this shard's yes vote. A
                // recovered branch rejoins and rediscovers the outcome
                // (the watchdog armed above drives the asks). The same
                // predicate is why only this coordinator forces its start
                // record before asking for votes.
                None if spec.coordinator_presumes_abort() => {
                    // One `Decided{Abort}`, through the configured force
                    // policy, so recovery pays the same device costs as
                    // normal operation and the abort waits for the
                    // force, like its broadcasts.
                    let abort = Msg::Abort { txn };
                    if spec.participants.contains(&site) {
                        // The local participant's engine logs and
                        // applies the abort itself.
                        self.step(ctx, txn, |st, _, out| {
                            st.participant.on_msg(site, &abort, Version::INITIAL, out)
                        });
                    } else {
                        self.log_record(
                            ctx,
                            LogRecord::Decided {
                                txn,
                                decision: Decision::Abort,
                                commit_version: None,
                            },
                        );
                        self.apply_when_durable(ctx.now(), txn, Decision::Abort, None);
                    }
                    for &to in &spec.participants {
                        self.send_net(ctx, to, NetMsg::Proto(abort.clone()));
                    }
                }
                None => {}
            }
        }
        self.resume_xcoords(ctx, xcoords);
        // Paxos Commit acceptor recovery: promises and accepted batches
        // were force-logged before every 1b/2b echo, so the durable
        // records reconstruct exactly what this acceptor may still be
        // held to by a recovery candidate. Decided or retired
        // transactions answer with the outcome instead.
        for (txn, acceptor) in acceptors {
            if self.table.decision(txn).is_none() {
                self.table.acceptors.insert(txn, acceptor);
            }
        }
        self.table.forget_dead_records();
        self.reads.recover(&self.items);
        // Emitted after the re-pins above: recovery's re-acquired locks
        // register while the site still counts as down, so the
        // availability tracker sees the copies stay inaccessible across
        // the down→up edge.
        self.cfg.emit(ctx.now(), None, EventKind::Recover);
        self.pump(ctx);
    }
}
