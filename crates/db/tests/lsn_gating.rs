//! Irrevocable before told, per transaction: one group-commit site under
//! a bare [`NodeDriver`], its peers played by the test.
//!
//! A `Send`/`Apply` waits only for the log records of *its own*
//! transaction; a self-addressed message never waits. Every record
//! gates except the `Decided` of a commit that was irrevocable before
//! it: under QC2 the commit point is the PC-ACK quorum, so `COMMIT`
//! leaves, applies and answers the client there, and the `Decided`
//! records ride the next force. Under 2PC the coordinator's `Decided`
//! *is* the commit point, and a coordinator that holds no copy tells
//! its client after that force like everyone else. Every scenario runs
//! on the instant log device and on the modelled one
//! (`force_latency = 2`), where the wait ends at `WalForceDone` rather
//! than at the flush. Two more pin what a crash inside the group-commit
//! window leaves locked after recovery.

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
        .item(X)
        .copies_at(sites(3))
        .quorums(2, 2)
        .item(Y)
        .copies_at(sites(3))
        .quorums(2, 2)
        .item(Z)
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
        self.node().log_records().collect()
    }

    /// Drains what the site has told its front door since the last call.
    fn events(&mut self) -> Vec<DecisionEvent> {
        let mut out = Vec::new();
        self.driver.node_mut().drain_decision_events(&mut out);
        out
    }

    /// The site crashes at `at` and recovers under a fresh driver one
    /// tick later: the crashed site's timers never fire.
    fn crash_and_recover(self, at: u64) -> Site {
        let mut node = self.driver.into_node();
        node.on_crash(Time(at));
        let mut out = Vec::new();
        let driver = NodeDriver::new(ME, node, 7, Time(at + 1), &mut out);
        Site {
            driver,
            out,
            latency: self.latency,
            clock: at + 1,
        }
    }

    /// The `Decided` records of the durable log.
    fn durable_decided(&self) -> usize {
        let decided = |r: &LogRecord| matches!(r, LogRecord::Decided { .. });
        self.node().log_records().filter(decided).count()
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

/// s0 coordinates T1 on `x`; returns once T1's `CoordinatorStart` and
/// `Voted` records are durable (its `VoteReq`s left with the begin). The
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
/// before any flush — the coordinator counts its own vote and ack. No
/// recovery under QC2 reads `CoordinatorStart`, so the `VoteReq`s leave
/// in the tick the begin arrives, ahead of it; the `PrepareCommit`s wait
/// for it and for the coordinator's own `Voted`, which share one force.
/// The commit point is the PC-ACK quorum, with s0's own `PreCommit`
/// already durable: the remote `Commit`s leave at once, and the `Apply`
/// the self-delivered `Commit` triggers — decision, value and unpin —
/// comes with them. The `Decided` records are staged and reach the log
/// in the next force.
fn self_delivery_is_immediate_and_commit_leaves_at_the_commit_point(latency: u64) {
    let mut s = Site::new(latency);
    s.begin(0, T1, X);
    assert_eq!(
        s.sent(),
        vec![(S1, "VOTE-REQ"), (S2, "VOTE-REQ")],
        "nothing of T1 is staged ahead of its VoteReqs"
    );
    assert_eq!(
        s.node().local_state(T1),
        Some(LocalState::Wait),
        "the self-addressed VoteReq was handled before the flush"
    );
    assert!(s.durable().is_empty());
    s.deliver(0, S1, yes(T1));
    s.deliver(0, S2, yes(T1));
    assert_eq!(
        s.node().local_state(T1),
        Some(LocalState::PreCommit),
        "every vote is in: the self-addressed PrepareCommit was handled"
    );
    s.tick(WINDOW + latency - 1);
    assert_eq!(
        s.sent(),
        vec![],
        "PrepareCommits wait for the staged records"
    );
    s.tick(WINDOW + latency);
    assert_eq!(
        s.sent(),
        vec![(S1, "PREPARE-TO-COMMIT"), (S2, "PREPARE-TO-COMMIT")]
    );
    assert!(matches!(
        s.durable()[..],
        [
            LogRecord::CoordinatorStart { .. },
            LogRecord::Voted { .. },
            LogRecord::PreCommit { .. }
        ]
    ));

    let now = WINDOW + latency + 1;
    // s0's own ack (counted while its PreCommit record was only staged,
    // durable since) plus s1's reach r(x) = 2: the commit point.
    s.deliver(now, S1, Msg::PcAck { txn: T1 });
    assert_eq!(s.node().local_state(T1), Some(LocalState::Committed));
    assert_eq!(
        s.sent(),
        vec![(S1, "COMMIT"), (S2, "COMMIT")],
        "irrevocable at the commit point: Commit waits for no Decided record"
    );
    assert_eq!(s.node().decision(T1), Some(Decision::Commit));
    assert_eq!(s.node().item_value(X), Some((Version(1), 7)));
    assert!(!s.node().is_item_locked(X));
    assert_eq!(s.durable_decided(), 0, "the Decided records are staged");

    s.tick(now + WINDOW - 1);
    assert_eq!(s.durable_decided(), 0);
    s.tick(now + WINDOW);
    assert!(matches!(
        s.durable()[3..],
        [LogRecord::Decided { .. }, LogRecord::Decided { .. }]
    ));
    assert_eq!(s.sent(), vec![]);
}

/// (c′) The remote PC-ACK completes the quorum while s0's own
/// `PreCommit` — whose ack was counted on self-delivery — is still
/// staged: `Commit` and the `Apply` wait for exactly that record's force
/// and not one more. On the modelled device the ack arrives while that
/// force is in flight, so the `Decided` records miss it and are still
/// staged when the commit is told.
fn commit_waits_for_its_own_pre_commit_and_no_later_force(latency: u64) {
    let mut s = Site::new(latency);
    let t1 = t1_soliciting(&mut s);
    s.deliver(t1, S1, yes(T1));
    s.deliver(t1, S2, yes(T1));
    assert_eq!(
        s.sent(),
        vec![(S1, "PREPARE-TO-COMMIT"), (S2, "PREPARE-TO-COMMIT")]
    );
    let mut now = t1;
    if latency > 0 {
        now += WINDOW;
        s.tick(now);
        assert_eq!(s.node().wal_forces(), 2, "PreCommit's force is in flight");
    }
    s.deliver(now, S1, Msg::PcAck { txn: T1 });
    assert_eq!(s.node().local_state(T1), Some(LocalState::Committed));
    assert_eq!(s.sent(), vec![], "Commit waits for s0's own PreCommit");
    assert_eq!(s.node().decision(T1), None, "not applied before it either");
    assert!(s.node().is_item_locked(X));

    let pre_commit_durable = t1 + WINDOW + latency;
    s.tick(pre_commit_durable - 1);
    assert_eq!(s.sent(), vec![]);
    assert_eq!(s.node().decision(T1), None);
    s.tick(pre_commit_durable);
    assert_eq!(s.sent(), vec![(S1, "COMMIT"), (S2, "COMMIT")]);
    assert_eq!(s.node().decision(T1), Some(Decision::Commit));
    assert_eq!(s.node().item_value(X), Some((Version(1), 7)));
    assert!(!s.node().is_item_locked(X));
    if latency > 0 {
        assert_eq!(
            s.durable_decided(),
            0,
            "the Decided records ride the next force"
        );
    }
}

/// (c) under 2PC: a recovered coordinator presumes abort from its
/// `CoordinatorStart`, so the record is forced before any `VoteReq`
/// leaves — with the coordinator's own `Voted`, staged meanwhile by the
/// self-addressed request, in the same force.
fn two_pc_vote_reqs_wait_for_coordinator_start(latency: u64) {
    let mut s = Site::new(latency);
    s.begin_under(0, T1, X, ProtocolKind::TwoPhase);
    assert_eq!(s.sent(), vec![], "VoteReqs wait for CoordinatorStart");
    assert_eq!(s.node().local_state(T1), Some(LocalState::Wait));
    s.tick(WINDOW + latency - 1);
    assert_eq!(s.sent(), vec![]);
    s.tick(WINDOW + latency);
    assert_eq!(s.sent(), vec![(S1, "VOTE-REQ"), (S2, "VOTE-REQ")]);
    assert!(matches!(
        s.durable()[..],
        [LogRecord::CoordinatorStart { .. }, LogRecord::Voted { .. }]
    ));
}

/// Drives s0, coordinating T1 on `z` (copies at s1 and s2 only), to its
/// commit point and returns the time it was reached. From here the
/// `Decided` record is staged; under 2PC nothing of the decision has
/// left, under QC2 the `Commit`s have.
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
        assert_eq!(s.sent(), vec![(S1, "COMMIT"), (S2, "COMMIT")]);
    } else {
        assert_eq!(s.sent(), vec![], "Commit waits for the Decided record");
    }
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
    let committed = |r: LogRecord| {
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

/// (d) under QC2: the PC-ACK quorum made the commit irrevocable, so the
/// copy-less coordinator tells its client at the commit point, with the
/// commit version, before its `Decided` record is forced. A crash before
/// the flush loses that record, and nothing the recovered coordinator
/// does contradicts what the client was told: it never reports Abort.
fn copyless_quorum_coordinator_tells_the_client_at_the_commit_point(latency: u64) {
    let with_events = || {
        let mut cfg = config(latency);
        cfg.decision_events = true;
        Site::with_config(cfg, latency)
    };
    let mut s = with_events();
    let now = copyless_coordinator_at_its_commit_point(&mut s, ProtocolKind::QuorumCommit2);
    assert_eq!(
        s.events(),
        vec![DecisionEvent {
            txn: T1,
            decision: Decision::Commit,
            commit_version: Some(Version(1)),
        }]
    );
    assert_eq!(s.node().decision(T1), Some(Decision::Commit));
    s.tick(now + WINDOW + latency);
    assert_eq!(
        s.durable_decided(),
        1,
        "the Decided record rode the next force"
    );

    let mut s = with_events();
    let now = copyless_coordinator_at_its_commit_point(&mut s, ProtocolKind::QuorumCommit2);
    assert_eq!(s.events().len(), 1, "told");
    let mut s = s.crash_and_recover(now + 1);
    s.tick(1000);
    assert_eq!(s.durable_decided(), 0, "the Decided record was lost");
    assert!(
        s.events().iter().all(|e| e.decision != Decision::Abort),
        "a told commit is never contradicted"
    );
    assert_ne!(s.node().decision(T1), Some(Decision::Abort));
}

/// (e) Recovery re-pins only copies this site voted yes on. With a batch
/// of two, T2's staged `Voted` record and T1's `CoordinatorStart` fill
/// the batch and are forced together, while T1's own `Voted` record is
/// staged behind them and dies in the crash. Recovered, T1 never voted
/// here (`Initial`) and must leave `x` free; T2 is in doubt and keeps
/// `y` pinned.
#[test]
fn recovery_repins_only_copies_this_site_voted_on() {
    let mut cfg = config(0);
    cfg.group_commit_max_batch = 2;
    let mut s = Site::with_config(cfg, 0);
    s.deliver(
        0,
        S1,
        Msg::VoteReq {
            spec: spec(T2, S1, Y),
        },
    );
    s.begin(0, T1, X);
    assert_eq!(s.node().local_state(T1), Some(LocalState::Wait));
    assert!(matches!(
        s.durable()[..],
        [LogRecord::Voted { .. }, LogRecord::CoordinatorStart { .. }]
    ));

    let mut node = s.driver.into_node();
    node.on_crash(Time(1));
    let mut out = Vec::new();
    let driver = NodeDriver::new(ME, node, 7, Time(2), &mut out);
    let node = driver.node();
    assert_eq!(node.local_state(T1), Some(LocalState::Initial));
    assert!(!node.is_item_locked(X), "T1 never voted here");
    assert_eq!(node.local_state(T2), Some(LocalState::Wait));
    assert!(node.is_item_locked(Y), "T2's yes vote is in doubt");
}

/// (f) s0 is a QC2 participant of T2 on `y`. The `Commit` it receives was
/// sent past the commit point, so it applies and unpins before s0's own
/// `Decided` record is forced. A crash before the flush loses that
/// record: s0 recovers in `PreCommit` with `y` pinned again, and the
/// re-sent `Commit` commits it at the same version.
fn a_participant_applies_before_its_decided_is_forced(latency: u64) {
    let mut s = Site::new(latency);
    s.deliver(
        0,
        S1,
        Msg::VoteReq {
            spec: spec(T2, S1, Y),
        },
    );
    let mut now = WINDOW + latency;
    s.tick(now);
    assert_eq!(s.sent(), vec![(S1, "VOTE-YES")]);
    now += 1;
    let commit_version = Version(1);
    s.deliver(
        now,
        S1,
        Msg::PrepareCommit {
            txn: T2,
            commit_version,
        },
    );
    now += WINDOW + latency;
    s.tick(now);
    assert_eq!(s.sent(), vec![(S1, "PC-ACK")]);
    now += 1;
    let commit = Msg::Commit {
        txn: T2,
        commit_version,
    };
    s.deliver(now, S1, commit.clone());
    assert_eq!(s.node().decision(T2), Some(Decision::Commit));
    assert_eq!(s.node().item_value(Y), Some((commit_version, 7)));
    assert!(!s.node().is_item_locked(Y), "unpinned at once");
    assert_eq!(
        s.durable_decided(),
        0,
        "before its Decided record is forced"
    );

    let mut s = s.crash_and_recover(now + 1);
    assert_eq!(s.node().local_state(T2), Some(LocalState::PreCommit));
    assert_eq!(s.node().decision(T2), None);
    assert!(s.node().is_item_locked(Y), "in doubt again: re-pinned");
    s.deliver(now + 2, S1, commit);
    assert_eq!(s.node().decision(T2), Some(Decision::Commit));
    assert_eq!(s.node().commit_version_of(T2), Some(commit_version));
    assert_eq!(s.node().item_value(Y), Some((commit_version, 7)));
    assert!(!s.node().is_item_locked(Y));
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
fn self_delivery_is_immediate_and_commit_leaves_at_the_commit_point_instant_device() {
    self_delivery_is_immediate_and_commit_leaves_at_the_commit_point(0);
}

#[test]
fn self_delivery_is_immediate_and_commit_leaves_at_the_commit_point_inflight_force() {
    self_delivery_is_immediate_and_commit_leaves_at_the_commit_point(2);
}

#[test]
fn commit_waits_for_its_own_pre_commit_and_no_later_force_instant_device() {
    commit_waits_for_its_own_pre_commit_and_no_later_force(0);
}

#[test]
fn commit_waits_for_its_own_pre_commit_and_no_later_force_inflight_force() {
    commit_waits_for_its_own_pre_commit_and_no_later_force(2);
}

#[test]
fn two_pc_vote_reqs_wait_for_coordinator_start_instant_device() {
    two_pc_vote_reqs_wait_for_coordinator_start(0);
}

#[test]
fn two_pc_vote_reqs_wait_for_coordinator_start_inflight_force() {
    two_pc_vote_reqs_wait_for_coordinator_start(2);
}

#[test]
fn copyless_coordinator_tells_the_client_once_irrevocable_instant_device() {
    copyless_coordinator_tells_the_client_after_the_force(0, ProtocolKind::TwoPhase);
    copyless_quorum_coordinator_tells_the_client_at_the_commit_point(0);
}

#[test]
fn copyless_coordinator_tells_the_client_once_irrevocable_inflight_force() {
    copyless_coordinator_tells_the_client_after_the_force(2, ProtocolKind::TwoPhase);
    copyless_quorum_coordinator_tells_the_client_at_the_commit_point(2);
}

#[test]
fn a_participant_applies_before_its_decided_is_forced_instant_device() {
    a_participant_applies_before_its_decided_is_forced(0);
}

#[test]
fn a_participant_applies_before_its_decided_is_forced_inflight_force() {
    a_participant_applies_before_its_decided_is_forced(2);
}
