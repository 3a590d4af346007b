//! Crash-recovery integration tests spanning storage, core and db.

use quorum_commit::core::{Decision, LogRecord, ProtocolKind, TxnId, WriteSet};
use quorum_commit::db::{build_cluster, SiteNode};
use quorum_commit::simnet::{sites, DelayModel, Duration, Fault, Sim, SimConfig, SiteId, Time};
use quorum_commit::votes::{Catalog, CatalogBuilder, ItemId};

fn catalog(n: u32) -> Catalog {
    CatalogBuilder::new()
        .item(ItemId(0))
        .copies_at(sites(n))
        .quorums(2, n - 1)
        .build()
        .unwrap()
}

fn sim(n: u32, seed: u64) -> Sim<SiteNode> {
    let nodes = build_cluster(sites(n), &catalog(n), Duration(10), |c| c);
    Sim::new(
        SimConfig {
            seed,
            delay: DelayModel::uniform(Duration(2), Duration(10)),
            record_trace: false,
        },
        nodes,
    )
}

fn begin(sim: &mut Sim<SiteNode>, at: u64, site: u32, txn: u64, p: ProtocolKind) {
    sim.schedule_call(Time(at), SiteId(site), move |node, ctx| {
        node.begin_transaction(ctx, TxnId(txn), WriteSet::new([(ItemId(0), 42)]), p);
    });
}

#[test]
fn coordinator_recovers_and_rejoins_decision() {
    let mut s = sim(5, 3);
    begin(&mut s, 0, 0, 1, ProtocolKind::QuorumCommit1);
    // Coordinator dies mid-protocol and comes back much later; the rest
    // terminate via TP1 and the recovered site must converge to the
    // same outcome through its own termination path.
    s.schedule(Time(18), Fault::Crash(SiteId(0)));
    s.schedule(Time(1_500), Fault::Recover(SiteId(0)));
    s.run_until(Time(8_000));
    let d_rest = s.node(SiteId(1)).decision(TxnId(1));
    assert!(d_rest.is_some(), "survivors must terminate");
    assert_eq!(
        s.node(SiteId(0)).decision(TxnId(1)),
        d_rest,
        "recovered coordinator must converge"
    );
}

#[test]
fn participant_recovers_from_pc_state_and_commits() {
    let mut s = sim(5, 5);
    begin(&mut s, 0, 0, 1, ProtocolKind::ThreePhase);
    // Crash a participant after it likely acked PC (t=35 > prepare
    // delivery), recover later; 3PC commits (ack timeout) and the
    // recovered node must apply the value from its log + decided relay.
    s.schedule(Time(35), Fault::Crash(SiteId(4)));
    s.schedule(Time(600), Fault::Recover(SiteId(4)));
    s.run_until(Time(6_000));
    assert_eq!(
        s.node(SiteId(4)).decision(TxnId(1)),
        Some(Decision::Commit),
        "log: {:?}",
        s.node(SiteId(4)).log_records().collect::<Vec<_>>()
    );
    let (_, v) = s.node(SiteId(4)).item_value(ItemId(0)).unwrap();
    assert_eq!(v, 42);
}

#[test]
fn double_crash_still_converges() {
    let mut s = sim(6, 7);
    begin(&mut s, 0, 0, 1, ProtocolKind::QuorumCommit2);
    s.schedule(Time(15), Fault::Crash(SiteId(0)));
    s.schedule(Time(45), Fault::Crash(SiteId(3)));
    s.schedule(Time(900), Fault::Recover(SiteId(3)));
    s.schedule(Time(1_400), Fault::Recover(SiteId(0)));
    s.run_until(Time(10_000));
    let decisions: Vec<Option<Decision>> = s
        .site_ids()
        .iter()
        .map(|&x| s.node(x).decision(TxnId(1)))
        .collect();
    let set: std::collections::BTreeSet<Decision> = decisions.iter().flatten().copied().collect();
    assert!(set.len() <= 1, "mixed decisions: {decisions:?}");
    assert!(
        decisions.iter().all(|d| d.is_some()),
        "everyone decides after recoveries: {decisions:?}"
    );
}

#[test]
fn recovered_in_doubt_participant_repins_its_locks() {
    let mut s = sim(5, 11);
    begin(&mut s, 0, 0, 1, ProtocolKind::TwoPhase);
    // Isolate the coordinator's commands, crash it for good: classic
    // 2PC blocking. Crash + recover a participant while in doubt.
    for k in 1..5 {
        s.schedule(Time(11), Fault::BlockLink(SiteId(0), SiteId(k)));
    }
    s.schedule(Time(30), Fault::Crash(SiteId(0)));
    s.schedule(Time(200), Fault::Crash(SiteId(2)));
    s.schedule(Time(400), Fault::Recover(SiteId(2)));
    s.run_until(Time(3_000));
    // Still in doubt after recovery: the lock must be re-acquired so the
    // item stays inaccessible (the availability-reduction effect).
    assert_eq!(s.node(SiteId(2)).decision(TxnId(1)), None);
    assert!(
        s.node(SiteId(2)).is_item_locked(ItemId(0)),
        "in-doubt transaction must keep its copies pinned after recovery"
    );
}

#[test]
fn two_pc_coordinator_recovery_applies_presumed_abort() {
    // Classic 2PC blocking, then the coordinator recovers *without* a
    // durable decision: presumed abort terminates everyone.
    //
    // Crash the coordinator at t=3: its VOTE-REQs (sent at t=0) are
    // still in flight and will be delivered, but no vote can return
    // (minimum round trip is 4 ticks), so no decision is ever logged.
    let mut s = sim(5, 17);
    begin(&mut s, 0, 0, 1, ProtocolKind::TwoPhase);
    s.schedule(Time(3), Fault::Crash(SiteId(0)));
    // Blocked window: participants voted yes into the void and hold
    // their locks; cooperative termination sees all-W and blocks.
    s.run_until(Time(1_000));
    assert_eq!(s.node(SiteId(1)).decision(TxnId(1)), None);
    assert!(s.node(SiteId(1)).is_item_locked(ItemId(0)));
    s.schedule(Time(1_010), Fault::Recover(SiteId(0)));
    s.run_until(Time(5_000));
    for k in 0..5u32 {
        assert_eq!(
            s.node(SiteId(k)).decision(TxnId(1)),
            Some(Decision::Abort),
            "s{k}: presumed abort must terminate the blocked transaction"
        );
        assert!(!s.node(SiteId(k)).is_item_locked(ItemId(0)));
    }
    // The coordinator holds a copy, so its participant engine logs the
    // presumed abort, once, and the coordinator adds no second record.
    let s0 = s.node(SiteId(0));
    let aborts = s0
        .log_records()
        .filter(|r| {
            matches!(
                r,
                LogRecord::Decided {
                    txn: TxnId(1),
                    decision: Decision::Abort,
                    ..
                }
            )
        })
        .count();
    assert_eq!(aborts, 1, "s0 logs Decided{{Abort}} once");
    // Four forces when it logged the abort twice.
    assert_eq!(s0.wal_forces(), 3);
}

#[test]
fn two_pc_coordinator_recovery_reannounces_a_logged_commit() {
    // The coordinator logs COMMIT, its commands are lost, it crashes:
    // participants block in W. On recovery it must re-announce the
    // decision, and everyone commits (never aborts: the decision was
    // durable).
    let mut s = sim(5, 19);
    begin(&mut s, 0, 0, 1, ProtocolKind::TwoPhase);
    // Block the coordinator's outgoing links after the votes are cast
    // (≤ 2T = 20) so the decision — logged at the coordinator — never
    // reaches the participants before the crash.
    for k in 1..5 {
        s.schedule(Time(21), Fault::BlockLink(SiteId(0), SiteId(k)));
    }
    s.schedule(Time(40), Fault::Crash(SiteId(0)));
    s.schedule(Time(1_000), Fault::Recover(SiteId(0)));
    s.run_until(Time(6_000));
    // Whatever the durable decision was, after recovery it must be
    // uniform and total: every site decided the same way.
    let d0 = s.node(SiteId(0)).decision(TxnId(1));
    assert!(d0.is_some());
    for k in 1..5u32 {
        assert_eq!(s.node(SiteId(k)).decision(TxnId(1)), d0, "s{k}");
    }
}

#[test]
fn log_replay_is_idempotent_across_repeated_crashes() {
    let mut s = sim(5, 13);
    begin(&mut s, 0, 0, 1, ProtocolKind::QuorumCommit1);
    s.run_until(Time(500));
    assert_eq!(s.node(SiteId(3)).decision(TxnId(1)), Some(Decision::Commit));
    let value_before = s.node(SiteId(3)).item_value(ItemId(0));
    // Crash and recover the same site repeatedly after the commit.
    for k in 0..3 {
        s.schedule(Time(600 + k * 200), Fault::Crash(SiteId(3)));
        s.schedule(Time(700 + k * 200), Fault::Recover(SiteId(3)));
    }
    s.run_until(Time(2_000));
    assert_eq!(s.node(SiteId(3)).decision(TxnId(1)), Some(Decision::Commit));
    assert_eq!(s.node(SiteId(3)).item_value(ItemId(0)), value_before);
}
