//! Robustness beyond the paper's worked examples: random message loss,
//! read-one-write-all quorum specializations, mixed protocols in one
//! cluster, and repeated partition churn.

use quorum_commit::core::{Decision, ProtocolKind, TxnId, WriteSet};
use quorum_commit::harness::scenario::{Fault, Scenario};
use quorum_commit::simnet::{sites, SiteId, Time};
use quorum_commit::votes::{Catalog, CatalogBuilder, ItemId};

fn majority_catalog(n: u32) -> Catalog {
    CatalogBuilder::new()
        .item(ItemId(0))
        .copies_at(sites(n))
        .majority()
        .build()
        .unwrap()
}

/// Lost messages are part of the paper's fault model: with 15% random
/// loss and the re-entrant termination protocol, transactions still
/// terminate consistently (and, with retries, completely).
#[test]
fn random_message_loss_never_breaks_atomicity() {
    for seed in 0..15u64 {
        let mut s = Scenario::new("loss", majority_catalog(6), sites(6))
            .submit(
                Time(0),
                SiteId(0),
                1,
                WriteSet::new([(ItemId(0), 9)]),
                ProtocolKind::QuorumCommit1,
            )
            .fault(Time(1), Fault::SetLoss(0.15));
        s.seed = seed;
        s.run_until = Time(20_000);
        let out = s.run();
        let v = out.verdict(TxnId(1));
        assert!(v.consistent, "seed {seed}: {v:?}");
        assert!(
            v.undecided.is_empty(),
            "seed {seed}: loss must not block forever with retries: {v:?}"
        );
    }
}

/// §5: "The idea can be generalized to work with other
/// partition-processing strategies." Read-one/write-all is the extreme
/// quorum assignment (r = 1, w = v): TP1's abort quorum needs just one
/// unlocked copy of some item, so *any* partition with any copy can
/// abort an undecided transaction — while commits require every copy.
#[test]
fn rowa_specialization_terminates_any_partition_with_a_copy() {
    let catalog = CatalogBuilder::new()
        .item(ItemId(0))
        .copies_at(sites(4))
        .read_one_write_all()
        .build()
        .unwrap();
    let s = Scenario::new("rowa", catalog, sites(4))
        .submit(
            Time(0),
            SiteId(0),
            1,
            WriteSet::new([(ItemId(0), 5)]),
            ProtocolKind::QuorumCommit1,
        )
        // Cut off the coordinator before the prepare round, crash it,
        // and split the survivors into singletons.
        .fault(Time(11), Fault::BlockLink(SiteId(0), SiteId(1)))
        .fault(Time(11), Fault::BlockLink(SiteId(0), SiteId(2)))
        .fault(Time(11), Fault::BlockLink(SiteId(0), SiteId(3)))
        .fault(Time(30), Fault::Crash(SiteId(0)))
        .fault(
            Time(30),
            Fault::Partition(vec![vec![SiteId(1)], vec![SiteId(2)], vec![SiteId(3)]]),
        );
    let mut s = s.constant_delays();
    s.run_until = Time(4_000);
    let out = s.run();
    let v = out.verdict(TxnId(1));
    assert!(v.consistent);
    // Every singleton partition holds one copy = r(x) votes: all abort.
    for k in 1..4u32 {
        assert!(
            v.aborted.contains(&SiteId(k)),
            "s{k} should abort under ROWA/TP1: {v:?}"
        );
    }
}

/// Different transactions may run different protocols over the same
/// data concurrently; locks serialize them and each stays atomic.
#[test]
fn mixed_protocols_coexist() {
    let mut s = Scenario::new("mixed", majority_catalog(6), sites(6));
    let protocols = [
        ProtocolKind::TwoPhase,
        ProtocolKind::ThreePhase,
        ProtocolKind::QuorumCommit1,
        ProtocolKind::QuorumCommit2,
    ];
    for (i, p) in protocols.into_iter().enumerate() {
        s = s.submit(
            Time(i as u64 * 200),
            SiteId(i as u32),
            (i + 1) as u64,
            WriteSet::new([(ItemId(0), (i + 1) as i64 * 10)]),
            p,
        );
    }
    s.run_until = Time(5_000);
    let out = s.run();
    for i in 1..=4u64 {
        let v = out.verdict(TxnId(i));
        assert!(v.consistent, "txn {i}: {v:?}");
        assert!(v.undecided.is_empty(), "txn {i}: {v:?}");
    }
    // The last committed value is uniform across all copies.
    let finals: std::collections::BTreeSet<i64> = out
        .sim
        .nodes()
        .filter_map(|(_, n)| n.item_value(ItemId(0)).map(|(_, v)| v))
        .collect();
    assert_eq!(finals.len(), 1, "replicas diverged: {finals:?}");
}

/// Partition churn: repeated split/heal cycles during a commit must
/// never produce mixed decisions, and the final heal lets it terminate.
#[test]
fn partition_churn_is_survivable() {
    for seed in 0..10u64 {
        let mut s = Scenario::new("churn", majority_catalog(5), sites(5)).submit(
            Time(0),
            SiteId(0),
            1,
            WriteSet::new([(ItemId(0), 3)]),
            ProtocolKind::QuorumCommit2,
        );
        s.seed = seed;
        // Three split/heal cycles with different shapes.
        s = s
            .fault(
                Time(12),
                Fault::Partition(vec![
                    vec![SiteId(0), SiteId(1)],
                    vec![SiteId(2), SiteId(3), SiteId(4)],
                ]),
            )
            .fault(Time(400), Fault::Heal)
            .fault(
                Time(500),
                Fault::Partition(vec![
                    vec![SiteId(0), SiteId(3), SiteId(4)],
                    vec![SiteId(1), SiteId(2)],
                ]),
            )
            .fault(Time(900), Fault::Heal)
            .fault(
                Time(1_000),
                Fault::Partition(vec![
                    vec![SiteId(0)],
                    vec![SiteId(1), SiteId(2), SiteId(3), SiteId(4)],
                ]),
            )
            .fault(Time(1_500), Fault::Heal);
        s.run_until = Time(12_000);
        let out = s.run();
        let v = out.verdict(TxnId(1));
        assert!(v.consistent, "seed {seed}: {v:?}");
        assert!(v.undecided.is_empty(), "seed {seed}: {v:?}");
    }
}

/// A transaction whose writeset spans items with disjoint copy sets
/// exercises multi-item quorum counting end to end (the Fig. 3 shape)
/// with commits instead of aborts: no failures, everything lands.
#[test]
fn multi_item_disjoint_copies_commit() {
    let catalog = CatalogBuilder::new()
        .item(ItemId(0))
        .copies_at([SiteId(0), SiteId(1), SiteId(2)])
        .quorums(2, 2)
        .item(ItemId(1))
        .copies_at([SiteId(3), SiteId(4), SiteId(5)])
        .quorums(2, 2)
        .build()
        .unwrap();
    let mut s = Scenario::new("disjoint", catalog, sites(6)).submit(
        Time(0),
        SiteId(0),
        1,
        WriteSet::new([(ItemId(0), 1), (ItemId(1), 2)]),
        ProtocolKind::QuorumCommit1,
    );
    s.run_until = Time(2_000);
    let out = s.run();
    let v = out.verdict(TxnId(1));
    assert_eq!(v.committed.len(), 6, "{v:?}");
    for (site, n) in out.sim.nodes() {
        for item in [ItemId(0), ItemId(1)] {
            if let Some((_, val)) = n.item_value(item) {
                let expect = if item == ItemId(0) { 1 } else { 2 };
                assert_eq!(val, expect, "{site} {item}");
            }
        }
    }
    let _ = Decision::Commit;
}
