//! Substrate independence: the same `SiteNode` code that runs on the
//! deterministic simulator commits a transaction under bare
//! `NodeDriver`s — the public host contract the reactor worker uses —
//! with a hand-rolled message pump standing in for the network.

use quorum_commit::core::{Decision, ProtocolKind, TxnId, WriteSet};
use quorum_commit::db::{NetMsg, NodeConfig, SiteNode};
use quorum_commit::simnet::{sites, Duration, NodeDriver, SiteId, Time};
use quorum_commit::votes::{CatalogBuilder, ItemId};
use std::collections::VecDeque;

#[test]
fn bare_node_drivers_commit_failure_free() {
    let catalog = CatalogBuilder::new()
        .item(ItemId(0), "x")
        .copies_at(sites(5))
        .majority()
        .build()
        .unwrap();
    let now = Time::ZERO;
    let mut out: Vec<(SiteId, NetMsg)> = Vec::new();
    // (from, to, message), delivered in FIFO order.
    let mut inbox: VecDeque<(SiteId, SiteId, NetMsg)> = VecDeque::new();
    let mut drivers: Vec<NodeDriver<SiteNode>> = Vec::new();
    for s in sites(5) {
        let cfg = NodeConfig::new(s, catalog.clone(), Duration(20));
        let driver = NodeDriver::new(s, SiteNode::new(cfg, |_| 0), 7 ^ s.0 as u64, now, &mut out);
        inbox.extend(out.drain(..).map(|(to, msg)| (s, to, msg)));
        drivers.push(driver);
    }

    // The wire form of `begin_transaction`, from a client outside the
    // site set.
    let client = SiteId(5);
    let begin = NetMsg::BeginTxn {
        txn: TxnId(1),
        writeset: WriteSet::new([(ItemId(0), 99)]),
        protocol: ProtocolKind::QuorumCommit2,
    };
    inbox.push_back((client, SiteId(0), begin));
    while let Some((from, to, msg)) = inbox.pop_front() {
        // Replies addressed to the client fall off the end.
        let Some(driver) = drivers.get_mut(to.0 as usize) else {
            continue;
        };
        driver.deliver(now, from, msg, &mut out);
        inbox.extend(out.drain(..).map(|(dest, msg)| (to, dest, msg)));
    }

    for d in &drivers {
        assert_eq!(
            d.node().decision(TxnId(1)),
            Some(Decision::Commit),
            "site {} must commit under a bare NodeDriver",
            d.site()
        );
        let (_, v) = d.node().item_value(ItemId(0)).unwrap();
        assert_eq!(v, 99);
    }
}
