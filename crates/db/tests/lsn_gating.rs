//! Logged before told, per transaction: one group-commit site under a
//! bare [`NodeDriver`], its peers played by the test.
//!
//! A `Send`/`Apply` waits only for the log records of *its own*
//! transaction; a self-addressed message never waits; a coordinator
//! that holds no copy tells its client after the `Decided` force like
//! everyone else. Every scenario runs on the instant log device and on
//! the modelled one (`force_latency = 2`), where the wait ends at
//! `WalForceDone` rather than at the flush.

use qbc_core::{Decision, LocalState, LogRecord, Msg, ProtocolKind, TxnId, TxnSpec, WriteSet};
use qbc_db::{DecisionEvent, NetMsg, NodeConfig, SiteNode};
use qbc_simnet::{sites, Duration, Label, NodeDriver, Process, SiteId, Time};
use qbc_votes::{Catalog, CatalogBuilder, ItemId, Version};
use std::sync::Arc;

const ME: SiteId = SiteId(0);
const S1: SiteId = SiteId(1);
const S2: SiteId = SiteId(2);
const CLIENT: SiteId = SiteId(99);
/// `t_bound / 2`: the static group-commit window.
const WINDOW: u64 = 5;
const X: ItemId = ItemId(0);
const Y: ItemId = ItemId(1);
const Z: ItemId = ItemId(2);
const T1: TxnId = TxnId(1);
const T2: TxnId = TxnId(2);

/// Items `x` and `y`, each with unit copies at s0..s2, r = w = 2, and
/// `z` with copies at s1 and s2 only: s0 coordinates it as a client.
fn catalog() -> Catalog {
    CatalogBuilder::new()
        .item(X, "x")
        .copies_at(sites(3))
        .quorums(2, 2)
        .item(Y, "y")
        .copies_at(sites(3))
        .quorums(2, 2)
        .item(Z, "z")
        .copies_at([S1, S2])
        .quorums(2, 2)
        .build()
        .unwrap()
}

fn config(latency: u64) -> NodeConfig {
    NodeConfig::new(ME, catalog(), Duration(10))
        .with_group_commit()
        .with_force_latency(Duration(latency))
}

/// Site s0 and everything it has put on the wire so far.
struct Site {
    driver: NodeDriver<SiteNode>,
    out: Vec<(SiteId, NetMsg)>,
    /// Ticks from a flush to the moment its records count as durable.
    latency: u64,
    clock: u64,
}

impl Site {
    fn new(latency: u64) -> Self {
        Site::with_config(config(latency), latency)
    }

    fn with_config(cfg: NodeConfig, latency: u64) -> Self {
        let mut out = Vec::new();
        let node = SiteNode::new(cfg, |_| 0);
        let driver = NodeDriver::new(ME, node, 7, Time(0), &mut out);
        Site {
            driver,
            out,
            latency,
            clock: 0,
        }
    }

    fn deliver(&mut self, now: u64, from: SiteId, msg: Msg) {
        self.driver
            .deliver(Time(now), from, NetMsg::Proto(msg), &mut self.out);
    }

    fn begin(&mut self, now: u64, txn: TxnId, item: ItemId) {
        self.begin_under(now, txn, item, ProtocolKind::QuorumCommit2);
    }

    fn begin_under(&mut self, now: u64, txn: TxnId, item: ItemId, protocol: ProtocolKind) {
        let msg = NetMsg::BeginTxn {
            txn,
            writeset: WriteSet::new([(item, 7)]),
            protocol,
        };
        self.driver.deliver(Time(now), CLIENT, msg, &mut self.out);
    }

    /// Fires timers tick by tick up to `now` (a flush and the force
    /// completion it arms are separate ticks on the modelled device).
    fn tick(&mut self, now: u64) {
        for t in self.clock..=now {
            self.driver.tick(Time(t), &mut self.out);
        }
        self.clock = now;
    }

    /// Drains the wire: `(destination, label)` of everything sent since
    /// the last call, in send order.
    fn sent(&mut self) -> Vec<(SiteId, &'static str)> {
        self.out.drain(..).map(|(to, m)| (to, m.label())).collect()
    }

    fn node(&self) -> &SiteNode {
        self.driver.node()
    }

    fn durable(&self) -> Vec<LogRecord> {
        self.node().log_records().cloned().collect()
    }

    /// Drains what the site has told its front door since the last call.
    fn events(&mut self) -> Vec<DecisionEvent> {
        let mut out = Vec::new();
        self.driver.node_mut().drain_decision_events(&mut out);
        out
    }
}

fn spec(txn: TxnId, coordinator: SiteId, item: ItemId) -> Arc<TxnSpec> {
    Arc::new(TxnSpec::from_catalog(
        txn,
        coordinator,
        WriteSet::new([(item, 7)]),
        ProtocolKind::QuorumCommit2,
        &catalog(),
    ))
}

fn yes(txn: TxnId) -> Msg {
    Msg::Vote {
        txn,
        yes: true,
        max_version: Version(0),
    }
}

/// s0 coordinates T1 on `x`; returns once its `VoteReq`s are on the wire
/// (so T1's `CoordinatorStart` and `Voted` records are durable). The
/// returned time is the first tick after that.
fn t1_soliciting(s: &mut Site) -> u64 {
    s.begin(0, T1, X);
    let durable_at = WINDOW + s.latency;
    s.tick(durable_at);
    assert_eq!(s.sent(), vec![(S1, "VOTE-REQ"), (S2, "VOTE-REQ")]);
    durable_at + 1
}

/// (a) T2's `Voted` record is staged (or in flight) and T2's vote waits
/// for it; T1's `PrepareCommit` has nothing of T1 behind it and leaves
/// in the tick the last vote arrives.
fn prepare_commit_overtakes_an_unrelated_record(latency: u64) {
    let mut s = Site::new(latency);
    let mut now = t1_soliciting(&mut s);
    s.deliver(
        now,
        S1,
        Msg::VoteReq {
            spec: spec(T2, S1, Y),
        },
    );
    assert_eq!(s.sent(), vec![], "T2's vote waits for T2's Voted record");
    if latency > 0 {
        // Forced but not complete: the old in-flight barrier.
        now += WINDOW;
        s.tick(now);
        assert_eq!(s.sent(), vec![]);
    }
    s.deliver(now, S1, yes(T1));
    s.deliver(now, S2, yes(T1));
    assert_eq!(
        s.sent(),
        vec![(S1, "PREPARE-TO-COMMIT"), (S2, "PREPARE-TO-COMMIT")],
        "no undurable record of T1: its PrepareCommit leaves at once"
    );
    s.tick(now + WINDOW + latency);
    assert!(
        s.sent().contains(&(S1, "VOTE-YES")),
        "T2's vote follows its force"
    );
}

/// (b) A vote does not leave before its `Voted` record is forced, and a
/// crash before the flush leaves no trace of it: nothing on the wire,
/// nothing in the log, nothing after recovery.
fn vote_waits_for_voted_and_dies_with_it(latency: u64) {
    let mut s = Site::new(latency);
    s.deliver(
        0,
        S1,
        Msg::VoteReq {
            spec: spec(T2, S1, Y),
        },
    );
    assert_eq!(s.node().local_state(T2), Some(LocalState::Wait));
    s.tick(WINDOW + latency - 1);
    assert_eq!(s.sent(), vec![]);
    s.tick(WINDOW + latency);
    assert_eq!(s.sent(), vec![(S1, "VOTE-YES")]);
    assert!(matches!(s.durable()[..], [LogRecord::Voted { .. }]));

    let mut s = Site::new(latency);
    s.deliver(
        0,
        S1,
        Msg::VoteReq {
            spec: spec(T2, S1, Y),
        },
    );
    let mut node = s.driver.into_node();
    node.on_crash(Time(1));
    // A fresh driver: the crashed site's timers never fire.
    let mut out = Vec::new();
    let mut driver = NodeDriver::new(ME, node, 7, Time(2), &mut out);
    driver.tick(Time(1000), &mut out);
    assert!(out.is_empty(), "the lost vote was never told");
    assert_eq!(driver.node().log_records().count(), 0);
    assert_eq!(driver.node().local_state(T2), None);
    assert!(!driver.node().is_item_locked(Y));
}

/// (c) Self-addressed `VoteReq`, `PrepareCommit` and `Commit` are handled
/// before any flush — the coordinator counts its own vote and ack — and
/// the `Apply` the self-delivered `Commit` triggers still waits, with
/// the remote `Commit`s, for the decision record.
fn self_delivery_is_immediate_and_its_apply_still_waits(latency: u64) {
    let mut s = Site::new(latency);
    s.begin(0, T1, X);
    assert_eq!(s.sent(), vec![], "VoteReqs wait for CoordinatorStart");
    assert_eq!(
        s.node().local_state(T1),
        Some(LocalState::Wait),
        "the self-addressed VoteReq was handled before the flush"
    );
    assert!(s.durable().is_empty());
    s.tick(WINDOW + latency);
    assert_eq!(s.sent(), vec![(S1, "VOTE-REQ"), (S2, "VOTE-REQ")]);

    let now = WINDOW + latency + 1;
    s.deliver(now, S1, yes(T1));
    s.deliver(now, S2, yes(T1));
    s.sent();
    assert_eq!(s.node().local_state(T1), Some(LocalState::PreCommit));
    // s0's own ack (counted while its PreCommit record is only staged)
    // plus s1's reach w(x) = 2: the commit point.
    s.deliver(now, S1, Msg::PcAck { txn: T1 });
    assert_eq!(s.node().local_state(T1), Some(LocalState::Committed));
    assert_eq!(s.sent(), vec![], "Commit waits for the Decided record");
    assert_eq!(s.node().decision(T1), None, "not applied before the force");
    assert_eq!(s.node().item_value(X), Some((Version(0), 0)));
    assert!(s.node().is_item_locked(X));

    s.tick(now + WINDOW + latency - 1);
    assert_eq!(s.node().decision(T1), None);
    s.tick(now + WINDOW + latency);
    assert_eq!(s.sent(), vec![(S1, "COMMIT"), (S2, "COMMIT")]);
    assert_eq!(s.node().decision(T1), Some(Decision::Commit));
    assert_eq!(s.node().item_value(X), Some((Version(1), 7)));
    assert!(!s.node().is_item_locked(X));
}

/// Drives s0, coordinating T1 on `z` (copies at s1 and s2 only), to its
/// commit point and returns the time it was reached. From here the
/// `Decided` record is staged and nothing of the decision has left.
fn copyless_coordinator_at_its_commit_point(s: &mut Site, protocol: ProtocolKind) -> u64 {
    s.begin_under(0, T1, Z, protocol);
    s.tick(WINDOW + s.latency);
    assert_eq!(s.sent(), vec![(S1, "VOTE-REQ"), (S2, "VOTE-REQ")]);
    let now = WINDOW + s.latency + 1;
    s.deliver(now, S1, yes(T1));
    s.deliver(now, S2, yes(T1));
    if protocol == ProtocolKind::QuorumCommit2 {
        assert_eq!(
            s.sent(),
            vec![(S1, "PREPARE-TO-COMMIT"), (S2, "PREPARE-TO-COMMIT")]
        );
        s.deliver(now, S1, Msg::PcAck { txn: T1 });
        s.deliver(now, S2, Msg::PcAck { txn: T1 });
    }
    assert_eq!(s.sent(), vec![], "Commit waits for the Decided record");
    let decided = |r: &LogRecord| matches!(r, LogRecord::Decided { .. });
    assert!(!s.durable().iter().any(decided));
    now
}

/// (d) A coordinator without a copy never hears its own `Commit`: it
/// adopts the engine's decision, and that adoption is what the front
/// door turns into the client's reply. It waits for the `Decided` force
/// and carries the commit version; a crash before the flush takes the
/// decision with it, so the client was never told a commit that the
/// recovering coordinator (2PC presumes abort) would contradict.
fn copyless_coordinator_tells_the_client_after_the_force(latency: u64, protocol: ProtocolKind) {
    let with_events = || {
        let mut cfg = config(latency);
        cfg.decision_events = true;
        Site::with_config(cfg, latency)
    };
    let mut s = with_events();
    let now = copyless_coordinator_at_its_commit_point(&mut s, protocol);
    assert_eq!(s.events(), vec![], "told before logged");
    s.tick(now + WINDOW + latency - 1);
    assert_eq!(s.events(), vec![]);
    s.tick(now + WINDOW + latency);
    assert_eq!(s.sent(), vec![(S1, "COMMIT"), (S2, "COMMIT")]);
    assert_eq!(
        s.events(),
        vec![DecisionEvent {
            txn: T1,
            decision: Decision::Commit,
            commit_version: Some(Version(1)),
        }]
    );
    assert_eq!(s.node().decision(T1), Some(Decision::Commit));

    let mut s = with_events();
    let now = copyless_coordinator_at_its_commit_point(&mut s, protocol);
    let mut node = s.driver.into_node();
    node.on_crash(Time(now + 1));
    let mut out = Vec::new();
    let mut driver = NodeDriver::new(ME, node, 7, Time(now + 2), &mut out);
    driver.tick(Time(1000), &mut out);
    let mut events = Vec::new();
    driver.node_mut().drain_decision_events(&mut events);
    assert!(
        events.iter().all(|e| e.decision == Decision::Abort),
        "the lost commit was never told: {events:?}"
    );
    let committed = |r: &LogRecord| {
        matches!(
            r,
            LogRecord::Decided {
                decision: Decision::Commit,
                ..
            }
        )
    };
    assert!(!driver.node().log_records().any(committed));
    assert_ne!(driver.node().decision(T1), Some(Decision::Commit));
}

#[test]
fn prepare_commit_overtakes_an_unrelated_record_instant_device() {
    prepare_commit_overtakes_an_unrelated_record(0);
}

#[test]
fn prepare_commit_overtakes_an_unrelated_record_inflight_force() {
    prepare_commit_overtakes_an_unrelated_record(2);
}

#[test]
fn vote_waits_for_voted_and_dies_with_it_instant_device() {
    vote_waits_for_voted_and_dies_with_it(0);
}

#[test]
fn vote_waits_for_voted_and_dies_with_it_inflight_force() {
    vote_waits_for_voted_and_dies_with_it(2);
}

#[test]
fn self_delivery_is_immediate_and_its_apply_still_waits_instant_device() {
    self_delivery_is_immediate_and_its_apply_still_waits(0);
}

#[test]
fn self_delivery_is_immediate_and_its_apply_still_waits_inflight_force() {
    self_delivery_is_immediate_and_its_apply_still_waits(2);
}

#[test]
fn copyless_coordinator_tells_the_client_after_the_force_instant_device() {
    copyless_coordinator_tells_the_client_after_the_force(0, ProtocolKind::TwoPhase);
    copyless_coordinator_tells_the_client_after_the_force(0, ProtocolKind::QuorumCommit2);
}

#[test]
fn copyless_coordinator_tells_the_client_after_the_force_inflight_force() {
    copyless_coordinator_tells_the_client_after_the_force(2, ProtocolKind::TwoPhase);
    copyless_coordinator_tells_the_client_after_the_force(2, ProtocolKind::QuorumCommit2);
}
