//! A Paxos acceptor keeps a raised promise across a crash.
//!
//! One site under a bare [`NodeDriver`], its peers played by hand. The
//! acceptor accepts the ballot-0 proposal, then promises a recovery
//! candidate's higher ballot, crashes and recovers from its log. A 2a
//! at any ballot from the accepted one up to (not including) the
//! promised one must then be refused: no `PaxosAccept` is logged and no
//! 2b leaves the site. A recovery that replays the accept but forgets
//! the promise would accept it, and two candidates could then see
//! different values chosen at one ballot.

use qbc_core::{recovery_ballot, LogRecord, Msg, ProtocolKind, TxnId, TxnSpec, WriteSet};
use qbc_db::{NetMsg, NodeConfig, SiteNode};
use qbc_simnet::{sites, Duration, NodeDriver, Process, SiteId, Time};
use qbc_votes::{CatalogBuilder, ItemId, Version};
use std::sync::Arc;

const S0: SiteId = SiteId(0);
const S1: SiteId = SiteId(1);
const S2: SiteId = SiteId(2);
const TXN: TxnId = TxnId(1);

/// What `driver` sends when `msg` arrives from `from`.
fn deliver(driver: &mut NodeDriver<SiteNode>, from: SiteId, msg: Msg) -> Vec<(SiteId, NetMsg)> {
    let mut out = Vec::new();
    driver.deliver(Time(1), from, NetMsg::Proto(msg), &mut out);
    out
}

fn sends_2b(out: &[(SiteId, NetMsg)]) -> bool {
    out.iter()
        .any(|(_, m)| matches!(m, NetMsg::Proto(Msg::PaxosP2b { .. })))
}

fn accepts(node: &SiteNode) -> Vec<u64> {
    node.log_records()
        .filter_map(|r| match r {
            LogRecord::PaxosAccept { bal, .. } => Some(bal),
            _ => None,
        })
        .collect()
}

#[test]
fn a_raised_promise_survives_a_crash_at_the_site() {
    let catalog = CatalogBuilder::new()
        .item(ItemId(0))
        .copies_at(sites(3))
        .quorums(2, 2)
        .build()
        .unwrap();
    let spec = Arc::new(TxnSpec::from_catalog(
        TXN,
        S0,
        WriteSet::new([(ItemId(0), 7)]),
        ProtocolKind::PaxosCommit,
        &catalog,
    ));
    let node = SiteNode::new(NodeConfig::new(S1, catalog, Duration(10)), |_| 0);
    let mut start = Vec::new();
    let mut s1 = NodeDriver::new(S1, node, 7, Time(0), &mut start);
    let votes: Vec<_> = sites(3)
        .into_iter()
        .map(|s| (s, true, Version::INITIAL))
        .collect();
    let p2a = |bal| Msg::PaxosP2a {
        txn: TXN,
        bal,
        votes: votes.clone(),
    };

    // s1 votes yes, accepts the leader's ballot-0 batch (b1 = 0), then
    // promises s2's recovery ballot b2.
    deliver(
        &mut s1,
        S0,
        Msg::VoteReq {
            spec: Arc::clone(&spec),
        },
    );
    assert!(sends_2b(&deliver(&mut s1, S0, p2a(0))));
    let b2 = recovery_ballot(1, S2);
    let p1a = Msg::PaxosP1a {
        txn: TXN,
        bal: b2,
        spec,
    };
    deliver(&mut s1, S2, p1a);
    assert!(s1
        .node()
        .log_records()
        .any(|r| r == LogRecord::PaxosPromise { txn: TXN, bal: b2 }));
    assert_eq!(accepts(s1.node()), [0]);

    // s1 crashes and recovers from its log.
    let mut node = s1.into_node();
    node.on_crash(Time(1));
    let mut out = Vec::new();
    let mut s1 = NodeDriver::new(S1, node, 11, Time(1), &mut out);
    assert_eq!(s1.node().decision(TXN), None, "still in doubt");

    // Every ballot in [b1, b2) is refused: the ballot-0 leader's
    // re-broadcast, and a lower candidate's.
    for bal in [0, recovery_ballot(1, S0)] {
        assert!(bal < b2);
        let out = deliver(&mut s1, S0, p2a(bal));
        assert!(
            !sends_2b(&out),
            "2b at {bal} below the promise {b2}: {out:?}"
        );
        assert_eq!(accepts(s1.node()), [0], "logged an accept at {bal}");
    }
    // The promised ballot itself is still accepted.
    assert!(sends_2b(&deliver(&mut s1, S2, p2a(b2))));
    assert_eq!(accepts(s1.node()), [0, b2]);
}
