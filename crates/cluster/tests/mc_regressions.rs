//! Pinned counterexample schedules from model-checker runs (PR-7
//! satellite: every trace the checker found during development stays
//! behind as a deterministic regression).
//!
//! Two families live here:
//!
//! 1. **The unvoted-veto race** — a *real* protocol bug the checker
//!    found in the clean implementation under free timer fires: a site
//!    that had never voted joined a termination round via an election
//!    message, seeded `Initial` into the leader's state view (rule 2:
//!    immediate abort), and then answered a late `VoteReq` with a yes
//!    vote — letting the coordinator commit what termination was
//!    already aborting. The fix makes the unvoted site's veto durable
//!    and irrevocable (`Participant::veto_abort`). The schedule that
//!    found it is replayed here against the fixed code.
//!
//! 2. **The weakened-commit-point mutation** — the seeded mutation the
//!    ISSUE plants to validate the checker end-to-end. Its minimal
//!    20-step counterexample is pinned choice-for-choice, and the same
//!    adversarial schedule is shown to be harmless against the real
//!    commit rule.
//!
//! Schedules are reconstructed by *shape* (from/to/payload needle)
//! rather than raw sequence numbers so they stay readable and survive
//! refactors that renumber messages without changing behavior.

#[path = "common/mc_harness.rs"]
mod mc_harness;

use mc_harness::{
    atomicity, crash_and_four_drops, decision_stability, deliver, drop_in_flight as drop_msg,
    single_shard_host, CLIENT,
};
use qbc_core::{Decision, LogRecord, ProtocolKind, TxnId};
use qbc_db::{Mutation, SiteNode};
use qbc_mc::{Choice, ControlledHost, HostConfig};
use qbc_obs::{Obs, ObsConfig};
use qbc_simnet::SiteId;
use std::sync::Arc;

const S0: SiteId = SiteId(0);
const S1: SiteId = SiteId(1);
const S2: SiteId = SiteId(2);

/// Drives the host to quiescence (delivering everything, then firing
/// timers in deadline order), checking the safety invariants after
/// every step. Panics if the system is still busy after `limit` steps.
///
/// Fires pick the globally earliest pending deadline — a *fair*
/// schedule. Always firing one site's timers while another's sit
/// overdue forever models a permanently-paused-yet-responsive process,
/// which no liveness claim survives.
fn drain(h: &mut ControlledHost<SiteNode>, limit: usize) {
    let safety = atomicity(vec![TxnId(1)]);
    let stability = decision_stability();
    let mut recent = std::collections::VecDeque::new();
    for _ in 0..limit {
        let next_fire = h
            .pending_timers()
            .iter()
            .map(|t| (t.deadline, t.site))
            .min()
            .map(|(_, site)| Choice::Fire { site });
        let Some(choice) = h
            .enabled_choices()
            .into_iter()
            .find(|c| matches!(c, Choice::Deliver { .. }))
            .or(next_fire)
        else {
            return;
        };
        if recent.len() == 12 {
            recent.pop_front();
        }
        recent.push_back(h.describe(choice));
        h.apply(choice);
        safety(h).unwrap_or_else(|e| panic!("atomicity violated while draining: {e}"));
        stability(h).unwrap_or_else(|e| panic!("stability violated while draining: {e}"));
    }
    panic!(
        "host did not quiesce within {limit} steps; last choices:\n{}",
        recent.into_iter().collect::<Vec<_>>().join("\n")
    );
}

/// The unvoted-veto race, found by the checker on a fault-free 3-site
/// QC1 run under free timer fires (an early watchdog at s1 starts an
/// election before s2 has even received its `VoteReq`).
///
/// Pre-fix, this 10-step schedule ended with s0 committed and s2
/// aborted. Post-fix, delivering the election message to the unvoted
/// s2 makes its abort durable *before* it answers anything, the late
/// `VoteReq` gets a `Decided{Abort}` reply instead of a yes vote, and
/// the whole cluster converges on abort.
#[test]
fn pinned_unvoted_veto_race_now_converges_on_abort() {
    // Free fire policy: the trigger needs s1's watchdog to fire while
    // votes are still on the wire, which Lazy/Ordered would forbid.
    let mut h = single_shard_host(ProtocolKind::QuorumCommit1, HostConfig::default(), |c| c);

    deliver(&mut h, CLIENT, S0, "BeginTxn"); // 0
    deliver(&mut h, S0, S1, "VoteReq"); // 1
    deliver(&mut h, S1, S0, "Vote"); // 2
    h.apply(Choice::Fire { site: S1 }); // 3: CoordinatorWatch -> election
    deliver(&mut h, S1, S2, "Election"); // 4: s2 learns the spec unvoted

    // The fix under test: joining termination while `Initial` must
    // leave a durable, irrevocable veto behind.
    assert_eq!(
        h.node(S2).decision(TxnId(1)),
        Some(Decision::Abort),
        "unvoted site drawn into termination must veto-abort durably"
    );
    assert!(
        h.node(S2)
            .log_records()
            .any(|r| matches!(r, LogRecord::VotedNo { txn: TxnId(1) })),
        "the veto must hit the log, not just volatile state"
    );

    // Historical step 5: the late VoteReq reaches the vetoed site. It
    // must NOT produce a yes vote any more.
    deliver(&mut h, S0, S2, "VoteReq"); // 5
    assert!(
        !h.in_flight()
            .iter()
            .any(|m| m.from == S2 && format!("{:?}", m.msg).contains("yes: true")),
        "vetoed site must never vote yes afterwards"
    );

    // Let everything else play out; safety is re-checked every step.
    drain(&mut h, 300);
    for s in [S0, S1, S2] {
        assert_eq!(
            h.node(s).decision(TxnId(1)),
            Some(Decision::Abort),
            "{s} must settle on the veto's abort"
        );
    }
}

/// Builds the mutation host: weakened QC1 commit point, one coordinator
/// crash, four message losses — exactly the budget the checker search
/// in `model_check.rs` uses. `ControlledHost::apply` takes a choice
/// whatever the fire policy, so the schedules below replay under it.
fn mutation_host(weakened: bool, obs: Option<Arc<Obs>>) -> ControlledHost<SiteNode> {
    single_shard_host(
        ProtocolKind::QuorumCommit1,
        crash_and_four_drops(),
        move |mut cfg| {
            if weakened {
                cfg = cfg.with_mutation(Mutation::WeakenQc1);
            }
            match &obs {
                Some(o) => cfg.with_obs(o.clone()),
                None => cfg,
            }
        },
    )
}

/// The minimal counterexample the checker finds for the seeded
/// weakened-commit-point mutation, pinned choice-for-choice: lose both
/// prepares and both commit announcements, crash the coordinator that
/// (wrongly) reached its commit point on the self-ack alone, and let
/// the survivors' termination round abort from `Wait`/`Wait`.
#[test]
fn pinned_mutation_counterexample_reproduces_the_violation() {
    let obs = Arc::new(Obs::new(ObsConfig::on()));
    let mut h = mutation_host(true, Some(obs.clone()));

    deliver(&mut h, CLIENT, S0, "BeginTxn"); // 0
    deliver(&mut h, S0, S1, "VoteReq"); // 1
    deliver(&mut h, S0, S2, "VoteReq"); // 2
    deliver(&mut h, S1, S0, "Vote"); // 3
    deliver(&mut h, S2, S0, "Vote"); // 4

    // The mutated coordinator is now durably committed on one self-ack.
    assert!(
        h.node(S0).log_records().any(|r| matches!(
            r,
            LogRecord::Decided {
                txn: TxnId(1),
                decision: Decision::Commit,
                ..
            }
        )),
        "weakened commit point must fire on the self-ack alone"
    );

    drop_msg(&mut h, S0, S1, "PrepareCommit"); // 5
    drop_msg(&mut h, S0, S2, "PrepareCommit"); // 6
    drop_msg(&mut h, S0, S1, "Commit"); // 7
    drop_msg(&mut h, S0, S2, "Commit"); // 8
    h.apply(Choice::Crash { site: S0 }); // 9

    h.apply(Choice::Fire { site: S2 }); // 10: CoordinatorWatch
    deliver(&mut h, S2, S0, "Election"); // 11: swallowed by the corpse
    deliver(&mut h, S2, S1, "Election"); // 12
    deliver(&mut h, S2, S0, "StateReq"); // 13: swallowed by the corpse
    deliver(&mut h, S2, S1, "StateReq"); // 14
    deliver(&mut h, S1, S2, "StateRep"); // 15
    h.apply(Choice::Fire { site: S1 }); // 16: CoordinatorWatch
    h.apply(Choice::Fire { site: S2 }); // 17: StateCollection expiry
    deliver(&mut h, S2, S1, "PrepareAbort"); // 18
    deliver(&mut h, S1, S2, "PaAck"); // 19

    // The violation: a durable commit in the crashed coordinator's log,
    // an abort among the survivors.
    let violation = atomicity(vec![TxnId(1)])(&h).expect_err("the pinned schedule must violate");
    assert!(violation.contains("committed"), "{violation}");
    assert_eq!(h.node(S2).decision(TxnId(1)), Some(Decision::Abort));

    // Dump the flight recorder the way a checker-driven harness would
    // on any violation: the timeline of both sides of the split brain.
    let dump = obs.dump("pinned mutation counterexample: durable commit at s0, abort at s2");
    println!("{dump}");
    assert!(dump.contains("flight recorder"), "{dump}");
}

/// Builds the Paxos mutation host: weakened acceptor quorum (F 2b
/// echoes instead of F+1), one leader crash, four message losses — the
/// budget the `mutant_weaken_paxos` search in `model_check.rs` uses.
fn paxos_mutation_host(weakened: bool) -> ControlledHost<SiteNode> {
    single_shard_host(
        ProtocolKind::PaxosCommit,
        crash_and_four_drops(),
        move |cfg| {
            if weakened {
                cfg.with_mutation(Mutation::WeakenPaxos)
            } else {
                cfg
            }
        },
    )
}

/// The counterexample the checker finds for the seeded acceptor-quorum
/// mutation, pinned by shape: under `weaken`, F = 1 acceptance
/// suffices, so the ballot-0 leader reaches a durable `Decided{Commit}`
/// off its own co-located acceptor's 2b alone — before any other
/// acceptor saw the 2a. Dropping both outbound 2a's and both commit
/// announcements and crashing the leader leaves survivors whose
/// recovery quorum (also weakened to one promise — its own) saw nothing
/// accepted: presumed abort, split-brain against the leader's log.
///
/// The honest F+1 rule makes this impossible by quorum intersection:
/// any decision quorum and any recovery quorum share an acceptor, so a
/// chosen batch is always visible to the candidate (the
/// `recovery_adopts_accepted_value_and_reruns_phase2` unit test drives
/// that path directly).
#[test]
fn pinned_paxos_mutation_counterexample_reproduces_the_violation() {
    let mut h = paxos_mutation_host(true);

    deliver(&mut h, CLIENT, S0, "BeginTxn"); // 0
    deliver(&mut h, S0, S1, "VoteReq"); // 1
    deliver(&mut h, S0, S2, "VoteReq"); // 2
    deliver(&mut h, S1, S0, "Vote"); // 3
    deliver(&mut h, S2, S0, "Vote"); // 4

    // The mutated leader is durably committed: its own acceptor's 2b
    // (local self-delivery) met the weakened quorum of one.
    assert!(
        h.node(S0).log_records().any(|r| matches!(
            r,
            LogRecord::Decided {
                txn: TxnId(1),
                decision: Decision::Commit,
                ..
            }
        )),
        "weakened acceptor quorum must choose on the self-echo alone"
    );

    drop_msg(&mut h, S0, S1, "PaxosP2a"); // 5
    drop_msg(&mut h, S0, S2, "PaxosP2a"); // 6
    drop_msg(&mut h, S0, S1, "Commit"); // 7
    drop_msg(&mut h, S0, S2, "Commit"); // 8
    h.apply(Choice::Crash { site: S0 }); // 9

    // One watchdog fire is the whole failover under the mutation: the
    // candidate's weakened Phase-1 quorum is its own acceptor, which
    // accepted nothing — presumed abort, driven through a (weakened)
    // Phase 2 against itself, all in local self-delivery.
    h.apply(Choice::Fire { site: S2 }); // 10: CoordinatorWatch
    assert_eq!(h.node(S2).decision(TxnId(1)), Some(Decision::Abort));

    // The violation: a durable commit in the crashed leader's log, an
    // abort among the survivors.
    let violation = atomicity(vec![TxnId(1)])(&h).expect_err("the pinned schedule must violate");
    assert!(violation.contains("committed"), "{violation}");
}

/// The same adversarial schedule against the real F+1 rule: the
/// leader's own 2b echo is one acceptance short of a quorum, so no
/// commit ever becomes durable; the crash leaves the survivors'
/// recovery candidates to presume abort — correctly, because nothing
/// was chosen — and atomicity holds throughout.
#[test]
fn pinned_paxos_mutation_schedule_is_harmless_without_the_mutation() {
    let mut h = paxos_mutation_host(false);

    deliver(&mut h, CLIENT, S0, "BeginTxn");
    deliver(&mut h, S0, S1, "VoteReq");
    deliver(&mut h, S0, S2, "VoteReq");
    deliver(&mut h, S1, S0, "Vote");
    deliver(&mut h, S2, S0, "Vote");

    // Real rule: the self-echo is 1 of F+1 = 2; no decision yet, and
    // no Commit announcements exist to drop.
    assert_eq!(h.node(S0).decision(TxnId(1)), None);

    drop_msg(&mut h, S0, S1, "PaxosP2a");
    drop_msg(&mut h, S0, S2, "PaxosP2a");
    h.apply(Choice::Crash { site: S0 });

    drain(&mut h, 300);
    for s in [S1, S2] {
        assert_eq!(
            h.node(s).decision(TxnId(1)),
            Some(Decision::Abort),
            "{s}: survivors abort the unchosen transaction"
        );
    }
    assert!(
        !h.node(S0).log_records().any(|r| matches!(
            r,
            LogRecord::Decided {
                txn: TxnId(1),
                decision: Decision::Commit,
                ..
            }
        )),
        "the honest leader must not hold a durable commit"
    );
}

/// The same adversarial schedule against the *real* commit rule: with
/// four losses and the coordinator crash, the survivors still abort —
/// but the coordinator never reached its commit point, so there is no
/// durable commit anywhere and atomicity holds throughout.
#[test]
fn pinned_mutation_schedule_is_harmless_without_the_mutation() {
    let mut h = mutation_host(false, None);

    deliver(&mut h, CLIENT, S0, "BeginTxn");
    deliver(&mut h, S0, S1, "VoteReq");
    deliver(&mut h, S0, S2, "VoteReq");
    deliver(&mut h, S1, S0, "Vote");
    deliver(&mut h, S2, S0, "Vote");

    // Real rule: one self-ack is not w = 2; no decision yet, and no
    // Commit announcements exist to drop.
    assert_eq!(h.node(S0).decision(TxnId(1)), None);

    drop_msg(&mut h, S0, S1, "PrepareCommit");
    drop_msg(&mut h, S0, S2, "PrepareCommit");
    h.apply(Choice::Crash { site: S0 });

    drain(&mut h, 300);
    for s in [S1, S2] {
        assert_eq!(
            h.node(s).decision(TxnId(1)),
            Some(Decision::Abort),
            "{s}: survivors abort the orphaned transaction"
        );
    }
    assert!(
        !h.node(S0).log_records().any(|r| matches!(
            r,
            LogRecord::Decided {
                txn: TxnId(1),
                decision: Decision::Commit,
                ..
            }
        )),
        "the honest coordinator must not hold a durable commit"
    );
}
