//! Exhaustive model checking of the commit/termination protocols on
//! small configurations (the PR-7 tentpole acceptance suite).
//!
//! Each test builds a `mc_harness` host, hands it to the `qbc-mc`
//! checker, and asserts either *zero* invariant violations over the
//! full bounded state space (clean protocol) or that a deliberately
//! seeded mutation is caught with a replayable counterexample.
//!
//! All runs use [`FirePolicy::Lazy`] — timeouts fire only at network
//! quiescence, with drop budgets covering the timeout-vs-loss races —
//! which is what makes the exploration close: the clean 3-site space is
//! 81 states, the one-crash space 388. The free-fire semantics (clock
//! drift, process pauses) is exercised by the pinned regression
//! schedules in `tests/mc_regressions.rs` instead of by search.
//!
//! See `docs/model-checking.md` for the state model, the reductions,
//! and how to read a counterexample trace.

use qbc_cluster::mc_harness::{
    atomicity, client_parent_host, decision_stability, paxos_host, quiescent_termination,
    single_shard_host, two_shard_host,
};
use qbc_core::{Decision, ProtocolKind, TxnId};
use qbc_db::SiteNode;
use qbc_mc::{replay, Checker, Choice, FirePolicy, HostConfig, McConfig};
use qbc_simnet::SiteId;

/// The three safety/termination invariants every exploration runs.
fn protocol_checker(cfg: McConfig) -> Checker<SiteNode> {
    Checker::new(cfg)
        .invariant("atomicity", atomicity(vec![TxnId(1)]))
        .invariant("decision-stability", decision_stability())
        .quiescent_invariant("bounded-termination", quiescent_termination(vec![TxnId(1)]))
}

fn lazy() -> HostConfig {
    HostConfig {
        fire_policy: FirePolicy::Lazy,
        ..HostConfig::default()
    }
}

fn one_crash() -> HostConfig {
    HostConfig {
        crash_sites: vec![SiteId(0)],
        max_crashes: 1,
        ..lazy()
    }
}

#[test]
fn qc1_three_sites_no_faults_is_exhaustively_clean() {
    let host = single_shard_host(ProtocolKind::QuorumCommit1, lazy(), |cfg| cfg);
    let report = protocol_checker(McConfig {
        max_depth: 20,
        ..McConfig::default()
    })
    .run(host);
    println!("qc1 clean: {}", report.stats.summary());
    if let Some(cex) = &report.violation {
        panic!("unexpected violation:\n{}", cex.render());
    }
    assert!(report.stats.complete, "exploration must finish in budget");
    assert_eq!(report.stats.frontier_cut, 0, "space must close below depth");
    // `mc_probe clean 20`: the count every change to the node quotes.
    assert_eq!(report.stats.explored, 81);
    assert!(report.stats.quiescent > 0, "must reach decided quiescence");
}

#[test]
fn qc1_three_sites_one_crash_is_exhaustively_clean() {
    let host = single_shard_host(ProtocolKind::QuorumCommit1, one_crash(), |cfg| cfg);
    let report = protocol_checker(McConfig {
        max_depth: 30,
        ..McConfig::default()
    })
    .run(host);
    println!("qc1 one crash: {}", report.stats.summary());
    if let Some(cex) = &report.violation {
        panic!("unexpected violation:\n{}", cex.render());
    }
    assert!(report.stats.complete, "exploration must finish in budget");
    assert_eq!(report.stats.frontier_cut, 0, "space must close below depth");
    // `mc_probe crash 30`.
    assert_eq!(report.stats.explored, 388);
    assert!(report.stats.quiescent > 0, "must reach decided quiescence");
}

#[test]
fn weakened_qc1_mutation_is_caught_with_replayable_trace() {
    // The weakened commit point (one PC-ack of slack) lets the
    // coordinator reach a durable Decided{Commit} on its self-ack
    // alone; losing the prepares and the commit announcements and then
    // crashing the coordinator leaves the survivors to run the
    // termination protocol from Wait — which correctly aborts.
    let make_host = || {
        single_shard_host(
            ProtocolKind::QuorumCommit1,
            HostConfig {
                max_drops: 4,
                ..one_crash()
            },
            |cfg| cfg.with_weakened_qc1(),
        )
    };
    let report = protocol_checker(McConfig {
        max_depth: 24,
        ..McConfig::default()
    })
    .run(make_host());
    let cex = report
        .violation
        .expect("the weakened commit-quorum check must violate atomicity");
    println!("mutation caught: {}", report.stats.summary());
    println!("{}", cex.render());
    assert_eq!(cex.invariant, "atomicity");
    assert!(
        cex.schedule.contains(&Choice::Crash { site: SiteId(0) }),
        "the minimal trace crashes the over-eager coordinator"
    );

    // The counterexample replays deterministically to a disagreeing
    // end state on a fresh host.
    let (end, _) = replay(make_host(), &cex.schedule);
    let survivor_ds: Vec<Option<Decision>> = end
        .sites()
        .filter(|&s| end.is_up(s))
        .map(|s| end.node(s).decision(TxnId(1)))
        .collect();
    assert!(
        survivor_ds.contains(&Some(Decision::Abort)),
        "survivors must have aborted: {survivor_ds:?}"
    );
    let durable_commit = end.sites().any(|s| {
        end.node(s).log_records().any(|r| {
            matches!(
                r,
                qbc_core::LogRecord::Decided {
                    txn: TxnId(1),
                    decision: Decision::Commit,
                    ..
                }
            )
        })
    });
    assert!(
        durable_commit,
        "the crashed coordinator holds a durable commit"
    );
}

#[test]
fn paxos_three_sites_no_faults_is_exhaustively_clean() {
    let host = paxos_host(lazy(), |cfg| cfg);
    let report = protocol_checker(McConfig {
        max_depth: 24,
        ..McConfig::default()
    })
    .run(host);
    println!("paxos clean: {}", report.stats.summary());
    if let Some(cex) = &report.violation {
        panic!("unexpected violation:\n{}", cex.render());
    }
    assert!(report.stats.complete, "exploration must finish in budget");
    assert_eq!(report.stats.frontier_cut, 0, "space must close below depth");
    assert!(report.stats.quiescent > 0, "must reach decided quiescence");
}

/// One *acceptor* crash (site 1): the leader survives, so this space
/// exercises losing one member of the 2F+1 acceptor set — the 2a/2b
/// round must still choose through the remaining majority.
#[test]
fn paxos_one_acceptor_crash_is_exhaustively_clean() {
    let host = paxos_host(
        HostConfig {
            crash_sites: vec![SiteId(1)],
            max_crashes: 1,
            ..lazy()
        },
        |cfg| cfg,
    );
    let report = protocol_checker(McConfig {
        max_depth: 30,
        ..McConfig::default()
    })
    .run(host);
    println!("paxos acceptor crash: {}", report.stats.summary());
    if let Some(cex) = &report.violation {
        panic!("unexpected violation:\n{}", cex.render());
    }
    assert!(report.stats.complete, "exploration must finish in budget");
    assert_eq!(report.stats.frontier_cut, 0, "space must close below depth");
    assert!(report.stats.quiescent > 0, "must reach decided quiescence");
}

/// The coordinator (= ballot-0 leader) crash: every interleaving of the
/// crash against the vote/2a/2b traffic, with the survivors' watchdogs
/// standing up Phase-1a recovery candidates. This is the space that
/// proves leader failover terminates without the blocked windows 2PC
/// shows in E16.
#[test]
fn paxos_coordinator_crash_is_exhaustively_clean() {
    let host = paxos_host(one_crash(), |cfg| cfg);
    let report = protocol_checker(McConfig {
        max_depth: 34,
        ..McConfig::default()
    })
    .run(host);
    println!("paxos coordinator crash: {}", report.stats.summary());
    if let Some(cex) = &report.violation {
        panic!("unexpected violation:\n{}", cex.render());
    }
    assert!(report.stats.complete, "exploration must finish in budget");
    assert_eq!(report.stats.frontier_cut, 0, "space must close below depth");
    assert!(report.stats.quiescent > 0, "must reach decided quiescence");
}

#[test]
fn weakened_paxos_mutation_is_caught_with_replayable_trace() {
    // The weakened acceptor quorum (F instead of F+1 2b echoes) lets
    // the ballot-0 leader reach a durable Decided{Commit} on its own
    // co-located acceptor alone; dropping the 2a broadcasts and the
    // commit announcements and then crashing the leader leaves a
    // recovery candidate whose Phase-1 majority saw nothing accepted —
    // presumed abort, against the leader's durable commit.
    let make_host = || {
        paxos_host(
            HostConfig {
                max_drops: 4,
                ..one_crash()
            },
            |cfg| cfg.with_weakened_paxos(),
        )
    };
    let report = protocol_checker(McConfig {
        max_depth: 28,
        ..McConfig::default()
    })
    .run(make_host());
    let cex = report
        .violation
        .expect("the weakened acceptor quorum must violate atomicity");
    println!("paxos mutation caught: {}", report.stats.summary());
    println!("{}", cex.render());
    assert_eq!(cex.invariant, "atomicity");
    assert!(
        cex.schedule.contains(&Choice::Crash { site: SiteId(0) }),
        "the minimal trace crashes the under-quorumed leader"
    );

    // The counterexample replays deterministically to a disagreeing
    // end state on a fresh host.
    let (end, _) = replay(make_host(), &cex.schedule);
    let survivor_ds: Vec<Option<Decision>> = end
        .sites()
        .filter(|&s| end.is_up(s))
        .map(|s| end.node(s).decision(TxnId(1)))
        .collect();
    assert!(
        survivor_ds.contains(&Some(Decision::Abort)),
        "survivors must have aborted: {survivor_ds:?}"
    );
    let durable_commit = end.sites().any(|s| {
        end.node(s).log_records().any(|r| {
            matches!(
                r,
                qbc_core::LogRecord::Decided {
                    txn: TxnId(1),
                    decision: Decision::Commit,
                    ..
                }
            )
        })
    });
    assert!(
        durable_commit,
        "the crashed leader holds a durable commit chosen by too few acceptors"
    );
}

#[test]
fn cross_shard_parent_crash_is_exhaustively_clean() {
    let host = two_shard_host(ProtocolKind::QuorumCommit1, one_crash(), |cfg| cfg);
    let report = protocol_checker(McConfig {
        max_depth: 40,
        ..McConfig::default()
    })
    .run(host);
    println!("xshard parent crash: {}", report.stats.summary());
    if let Some(cex) = &report.violation {
        panic!("unexpected violation:\n{}", cex.render());
    }
    assert!(report.stats.complete, "exploration must finish in budget");
    assert!(report.stats.quiescent > 0, "must reach decided quiescence");
}

/// The cross-shard configuration where the parent holds no branch
/// (`client_parent_host`): crashing it orphans *both* branch
/// coordinators, and every interleaving in which the decision got out
/// must be resolvable through cooperative sibling discovery. The only
/// schedules that do not quiesce below the depth bound are the ones
/// where the parent died before anyone learned the outcome — there the
/// orphans retry discovery forever by design (only parent recovery can
/// answer), which the depth bound cuts.
#[test]
fn cross_shard_client_parent_crash_is_exhaustively_clean() {
    let host = client_parent_host(ProtocolKind::QuorumCommit1, one_crash(), |cfg| cfg);
    let report = protocol_checker(McConfig {
        max_depth: 40,
        ..McConfig::default()
    })
    .run(host);
    println!("xshard client-parent crash: {}", report.stats.summary());
    if let Some(cex) = &report.violation {
        panic!("unexpected violation:\n{}", cex.render());
    }
    assert!(report.stats.complete, "exploration must finish in budget");
    assert!(report.stats.quiescent > 0, "must reach decided quiescence");
}
