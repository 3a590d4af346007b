//! A replicated banking workload: three accounts, each replicated at
//! four of six branch sites, transfers committed under QC2 + TP2 while
//! a partition cuts the network in half mid-traffic.
//!
//! Demonstrates the paper's end goal: after the termination protocol
//! resolves in-flight transfers, the surviving quorum side keeps
//! serving reads and writes; no transfer is half-applied anywhere.
//!
//! ```text
//! cargo run --example banking
//! ```

use quorum_commit::core::{Decision, ProtocolKind, TxnId, WriteSet};
use quorum_commit::db::{ReadResult, SiteNode};
use quorum_commit::simnet::{sites, DelayModel, Duration, Fault, Sim, SimConfig, SiteId, Time};
use quorum_commit::votes::{analyze, CatalogBuilder, ItemId};

const ALICE: ItemId = ItemId(0);
const BOB: ItemId = ItemId(1);
const CAROL: ItemId = ItemId(2);

fn main() {
    // Accounts replicated at 4 of 6 branches each, r=2, w=3.
    let catalog = CatalogBuilder::new()
        .item(ALICE)
        .copies_at([SiteId(0), SiteId(1), SiteId(2), SiteId(3)])
        .quorums(2, 3)
        .item(BOB)
        .copies_at([SiteId(2), SiteId(3), SiteId(4), SiteId(5)])
        .quorums(2, 3)
        .item(CAROL)
        .copies_at([SiteId(0), SiteId(1), SiteId(4), SiteId(5)])
        .quorums(2, 3)
        .build()
        .expect("valid catalog");

    // Every account starts with 100 units.
    let nodes: Vec<(SiteId, SiteNode)> = sites(6)
        .into_iter()
        .map(|s| {
            let cfg = quorum_commit::db::NodeConfig::new(s, catalog.clone(), Duration(10));
            (s, SiteNode::new(cfg, |_| 100))
        })
        .collect();
    let mut sim: Sim<SiteNode> = Sim::new(
        SimConfig {
            seed: 2024,
            delay: DelayModel::uniform(Duration(2), Duration(10)),
            record_trace: false,
        },
        nodes,
    );

    // Transfers are write transactions carrying the *new balances*
    // (values computed by the client from quorum reads; sequential here).
    // t=0:    alice -> bob, 30    (alice 70, bob 130)
    // t=300:  bob -> carol, 50    (bob 80, carol 150)
    // t=600:  partition {0,1,2,3} | {4,5} strikes...
    // t=590:  ...while carol -> alice 20 is in flight.
    sim.schedule_call(Time(0), SiteId(0), |node, ctx| {
        node.begin_transaction(
            ctx,
            TxnId(1),
            WriteSet::new([(ALICE, 70), (BOB, 130)]),
            ProtocolKind::QuorumCommit2,
        );
    });
    sim.schedule_call(Time(300), SiteId(2), |node, ctx| {
        node.begin_transaction(
            ctx,
            TxnId(2),
            WriteSet::new([(BOB, 80), (CAROL, 150)]),
            ProtocolKind::QuorumCommit2,
        );
    });
    sim.schedule_call(Time(590), SiteId(4), |node, ctx| {
        node.begin_transaction(
            ctx,
            TxnId(3),
            WriteSet::new([(CAROL, 130), (ALICE, 90)]),
            ProtocolKind::QuorumCommit2,
        );
    });
    sim.schedule(
        Time(600),
        Fault::Partition(vec![
            vec![SiteId(0), SiteId(1), SiteId(2), SiteId(3)],
            vec![SiteId(4), SiteId(5)],
        ]),
    );

    sim.run_until(Time(4_000));

    println!("decisions during the partition:");
    for t in [1u64, 2, 3] {
        let ds: Vec<String> = sim
            .nodes()
            .filter_map(|(s, n)| n.decision(TxnId(t)).map(|d| format!("{s}:{d}")))
            .collect();
        println!(
            "  txn{t}: {}",
            if ds.is_empty() {
                "blocked".into()
            } else {
                ds.join(" ")
            }
        );
        // Atomicity check: never both commit and abort.
        let set: std::collections::BTreeSet<Decision> = sim
            .nodes()
            .filter_map(|(_, n)| n.decision(TxnId(t)))
            .collect();
        assert!(set.len() <= 1, "transfer {t} half-applied!");
    }

    // Which accounts does the majority side still serve?
    let components: Vec<std::collections::BTreeSet<SiteId>> =
        sim.topology().components().into_iter().collect();
    let report = analyze(&catalog, &components, |site, item| {
        sim.node(site).is_item_locked(item)
    });
    println!("\naccessibility during the partition:\n{report}");

    // Quorum reads from the majority side: bob (copies at s2..s5; s2+s3
    // give r=2 votes, and transfer 2 already committed) succeeds, while
    // alice is pinned by the *in-doubt* transfer 3 — its X-locks at
    // s0..s3 make every copy unavailable, exactly the paper's
    // blocked-transaction availability loss.
    sim.schedule_call(Time(4_000), SiteId(1), |node, ctx| {
        node.start_read(ctx, 7, BOB);
        node.start_read(ctx, 8, ALICE);
    });
    sim.run_until(Time(4_200));
    match sim.node(SiteId(1)).read_result(7) {
        Some(ReadResult::Success { value, version }) => {
            println!(
                "quorum read of bob on the majority side: {value} (v{})",
                version.0
            );
            assert_eq!(value, 80);
        }
        other => println!("bob read: {other:?}"),
    }
    match sim.node(SiteId(1)).read_result(8) {
        Some(ReadResult::Unavailable) => {
            println!("quorum read of alice: UNAVAILABLE — pinned by the in-doubt transfer");
        }
        other => println!("alice read (unexpected): {other:?}"),
    }

    // Heal; everything terminates; balances must conserve money.
    sim.schedule(Time(4_300), Fault::Heal);
    sim.run_until(Time(10_000));
    println!("\nafter heal:");
    let mut total = 0i64;
    for (name, item, sample_site) in [
        ("alice", ALICE, SiteId(0)),
        ("bob", BOB, SiteId(2)),
        ("carol", CAROL, SiteId(4)),
    ] {
        let (ver, val) = sim.node(sample_site).item_value(item).expect("copy");
        println!("  {name}: {val} (v{})", ver.0);
        total += val;
    }
    assert_eq!(total, 300, "money must be conserved");
    println!("  total = {total} (conserved)");
}
