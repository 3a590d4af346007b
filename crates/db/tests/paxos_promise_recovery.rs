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
//!
//! The promise must also outlive the site's checkpoints. A site that
//! promised a candidate before any `VOTE-REQ` recovers holding only
//! that acceptor; its `PaxosPromise` record pins the log while the
//! acceptor lives, so a later checkpoint cannot truncate it away and a
//! second crash still remembers the promise.

use qbc_core::{recovery_ballot, LogRecord, Msg, ProtocolKind, TxnId, TxnSpec, WriteSet};
use qbc_db::{NetMsg, NodeConfig, SiteNode};
use qbc_simnet::{sites, Duration, NodeDriver, Process, SiteId, Time};
use qbc_votes::{Catalog, CatalogBuilder, ItemId, Version};
use std::sync::Arc;

const S0: SiteId = SiteId(0);
const S1: SiteId = SiteId(1);
const S2: SiteId = SiteId(2);
const TXN: TxnId = TxnId(1);

/// What `driver` sends when `msg` arrives from `from`.
fn deliver(driver: &mut NodeDriver<SiteNode>, from: SiteId, msg: Msg) -> Vec<(SiteId, NetMsg)> {
    deliver_at(driver, 1, from, msg)
}

/// What `driver` sends when `msg` arrives from `from` at `now`.
fn deliver_at(
    driver: &mut NodeDriver<SiteNode>,
    now: u64,
    from: SiteId,
    msg: Msg,
) -> Vec<(SiteId, NetMsg)> {
    let mut out = Vec::new();
    driver.deliver(Time(now), from, NetMsg::Proto(msg), &mut out);
    out
}

/// `node` crashes at `now` and recovers from its log under a new driver.
fn crash_and_recover(node: SiteNode, now: u64) -> NodeDriver<SiteNode> {
    let mut node = node;
    node.on_crash(Time(now));
    NodeDriver::new(S1, node, 11, Time(now), &mut Vec::new())
}

fn sends_2b(out: &[(SiteId, NetMsg)]) -> bool {
    out.iter()
        .any(|(_, m)| matches!(m, NetMsg::Proto(Msg::PaxosP2b { .. })))
}

fn sends_1b(out: &[(SiteId, NetMsg)]) -> bool {
    out.iter()
        .any(|(_, m)| matches!(m, NetMsg::Proto(Msg::PaxosP1b { .. })))
}

fn promises(node: &SiteNode) -> Vec<u64> {
    node.log_records()
        .filter_map(|r| match r {
            LogRecord::PaxosPromise { bal, .. } => Some(bal),
            _ => None,
        })
        .collect()
}

fn accepts(node: &SiteNode) -> Vec<u64> {
    node.log_records()
        .filter_map(|r| match r {
            LogRecord::PaxosAccept { bal, .. } => Some(bal),
            _ => None,
        })
        .collect()
}

/// One item with a copy at each of three sites, read and write
/// quorums of two.
fn catalog() -> Catalog {
    CatalogBuilder::new()
        .item(ItemId(0))
        .copies_at(sites(3))
        .quorums(2, 2)
        .build()
        .unwrap()
}

/// `txn`'s spec under `protocol`, coordinated at s0.
fn spec(txn: TxnId, protocol: ProtocolKind, catalog: &Catalog) -> Arc<TxnSpec> {
    let writeset = WriteSet::new([(ItemId(0), 7)]);
    Arc::new(TxnSpec::from_catalog(txn, S0, writeset, protocol, catalog))
}

#[test]
fn a_raised_promise_survives_a_crash_at_the_site() {
    let catalog = catalog();
    let spec = spec(TXN, ProtocolKind::PaxosCommit, &catalog);
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
    let mut s1 = crash_and_recover(s1.into_node(), 1);
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

#[test]
fn a_promise_made_before_any_vote_request_outlives_a_checkpoint() {
    let catalog = catalog();
    let paxos = spec(TXN, ProtocolKind::PaxosCommit, &catalog);
    let cfg = NodeConfig::new(S1, catalog.clone(), Duration(10))
        .with_retirement(Duration(20))
        .with_checkpoints(Duration(50));
    let mut s1 = NodeDriver::new(S1, SiteNode::new(cfg, |_| 0), 7, Time(0), &mut Vec::new());

    // s2's recovery candidacy reaches s1 before the leader's VOTE-REQ:
    // s1 promises b2 (its first record) and has no vote to log.
    let b2 = recovery_ballot(1, S2);
    let p1a = |bal| Msg::PaxosP1a {
        txn: TXN,
        bal,
        spec: Arc::clone(&paxos),
    };
    assert!(sends_1b(&deliver_at(&mut s1, 1, S2, p1a(b2))));
    assert_eq!(promises(s1.node()), [b2]);

    // s1 crashes and recovers holding only that acceptor.
    let mut s1 = crash_and_recover(s1.into_node(), 2);
    assert_eq!(
        s1.node().local_state(TXN),
        None,
        "no entry, only the acceptor"
    );

    // A second transaction commits at s1 and retires, and a checkpoint
    // passes: nothing live but the acceptor pins the log.
    let t2 = TxnId(2);
    let two_pc = spec(t2, ProtocolKind::TwoPhase, &catalog);
    deliver_at(&mut s1, 10, S0, Msg::VoteReq { spec: two_pc });
    let commit = Msg::Commit {
        txn: t2,
        commit_version: Version(1),
    };
    deliver_at(&mut s1, 11, S0, commit);
    s1.tick(Time(60), &mut Vec::new());
    assert_eq!(s1.node().retired_len(), 1, "t2 retired");
    let checkpoints = s1.node().log_records();
    assert_eq!(
        checkpoints
            .filter(|r| matches!(r, LogRecord::Checkpoint { .. }))
            .count(),
        1
    );
    assert_eq!(promises(s1.node()), [b2], "the checkpoint kept the promise");

    // s1 crashes again. Below the promise, a 1a gets no 1b and logs no
    // promise, and a 2a gets no 2b and logs no accept.
    let mut s1 = crash_and_recover(s1.into_node(), 70);
    let low = recovery_ballot(1, S0);
    assert!(low < b2);
    let out = deliver_at(&mut s1, 71, S0, p1a(low));
    assert!(
        !sends_1b(&out),
        "1b at {low} below the promise {b2}: {out:?}"
    );
    assert_eq!(promises(s1.node()), [b2]);
    let p2a = Msg::PaxosP2a {
        txn: TXN,
        bal: low,
        votes: sites(3)
            .into_iter()
            .map(|s| (s, true, Version::INITIAL))
            .collect(),
    };
    let out = deliver_at(&mut s1, 72, S0, p2a);
    assert!(
        !sends_2b(&out),
        "2b at {low} below the promise {b2}: {out:?}"
    );
    assert_eq!(accepts(s1.node()), [] as [u64; 0]);
}
