//! What a decided transaction still answers, and for how long.
//!
//! Three sites under bare [`NodeDriver`]s, a hand-rolled pump standing
//! in for the network, retirement and checkpoints on. One QC2, one Paxos
//! Commit and one two-branch cross-shard transaction commit; then the
//! same straggler questions are asked three times — while the entries
//! are live, once they are retired to compact outcomes, and after every
//! site crashed and recovered from a checkpoint that carries those
//! outcomes (the per-transaction records truncated below it). Each time
//! the reply must tell the same decision and commit version: a live
//! participant answers `STATE-REQ` with its state, a retired one with
//! `DECIDED`, and both carry the same pair. After the aging horizon the
//! questions that carry no spec meet silence.

use qbc_core::election::ElectionMsg;
use qbc_core::{Decision, LogRecord, Msg, ProtocolKind, TxnId, TxnSpec, WriteSet};
use qbc_db::{NetMsg, NodeConfig, SiteNode};
use qbc_simnet::{sites, Duration, NodeDriver, Process, SiteId, Time};
use qbc_storage::Lsn;
use qbc_votes::{Catalog, CatalogBuilder, ItemId, Version};
use std::collections::VecDeque;
use std::sync::Arc;

const S0: SiteId = SiteId(0);
const S1: SiteId = SiteId(1);
const S2: SiteId = SiteId(2);
const CLIENT: SiteId = SiteId(99);
const X: ItemId = ItemId(0);
const Y: ItemId = ItemId(1);
/// Branch A of the cross-shard transaction: copies at s0 and s1.
const U: ItemId = ItemId(2);
/// Branch B: one copy, at s2.
const V: ItemId = ItemId(3);
/// QC2 on `x`, coordinated by s0.
const T1: TxnId = TxnId(1);
/// Paxos Commit on `y`, coordinated by s0.
const T2: TxnId = TxnId(2);
/// Cross-shard on `u` (branch coordinator s0) and `v` (branch
/// coordinator s2), parent s0.
const T3: TxnId = TxnId(3);
const RETIRE_AFTER: u64 = 20;
const CHECKPOINT_EVERY: u64 = 100;
const HORIZON: u64 = 1_000;

fn catalog() -> Catalog {
    CatalogBuilder::new()
        .item(X)
        .copies_at(sites(3))
        .quorums(2, 2)
        .item(Y)
        .copies_at(sites(3))
        .quorums(2, 2)
        .item(U)
        .copies_at([S0, S1])
        .quorums(1, 2)
        .item(V)
        .copies_at([S2])
        .quorums(1, 1)
        .build()
        .unwrap()
}

fn spec(txn: TxnId, item: ItemId, protocol: ProtocolKind) -> TxnSpec {
    TxnSpec::from_catalog(txn, S0, WriteSet::new([(item, 7)]), protocol, &catalog())
}

fn branches() -> Vec<Arc<TxnSpec>> {
    let a = spec(T3, U, ProtocolKind::QuorumCommit2).with_parent(S0);
    let mut b = spec(T3, V, ProtocolKind::QuorumCommit2).with_parent(S0);
    b.coordinator = S2;
    vec![Arc::new(a), Arc::new(b)]
}

/// The three sites and the messages in flight between them.
struct Sites {
    drivers: Vec<NodeDriver<SiteNode>>,
    /// `(from, to, message)`, delivered in FIFO order.
    inbox: VecDeque<(SiteId, SiteId, NetMsg)>,
    now: u64,
}

impl Sites {
    fn new() -> Self {
        let mut out = Vec::new();
        let drivers = sites(3)
            .into_iter()
            .map(|s| {
                let cfg = NodeConfig::new(s, catalog(), Duration(10))
                    .with_retirement(Duration(RETIRE_AFTER))
                    .with_retire_horizon(Duration(HORIZON))
                    .with_checkpoints(Duration(CHECKPOINT_EVERY));
                NodeDriver::new(
                    s,
                    SiteNode::new(cfg, |_| 0),
                    7 ^ s.0 as u64,
                    Time(0),
                    &mut out,
                )
            })
            .collect();
        Sites {
            drivers,
            inbox: VecDeque::new(),
            now: 0,
        }
    }

    fn node(&self, site: SiteId) -> &SiteNode {
        self.drivers[site.0 as usize].node()
    }

    fn send(&mut self, from: SiteId, to: SiteId, msg: NetMsg) {
        self.inbox.push_back((from, to, msg));
        self.pump();
    }

    /// Delivers everything in flight, and what that sends, at `now`.
    fn pump(&mut self) {
        let mut out = Vec::new();
        while let Some((from, to, msg)) = self.inbox.pop_front() {
            // Replies to the client fall off the end.
            let Some(driver) = self.drivers.get_mut(to.0 as usize) else {
                continue;
            };
            driver.deliver(Time(self.now), from, msg, &mut out);
            self.inbox
                .extend(out.drain(..).map(|(dest, m)| (to, dest, m)));
        }
    }

    /// Fires every timer tick by tick up to `until`, delivering what
    /// each tick sends.
    fn run_until(&mut self, until: u64) {
        let mut out = Vec::new();
        for t in self.now..=until {
            self.now = t;
            for driver in &mut self.drivers {
                driver.tick(Time(t), &mut out);
                let from = driver.site();
                self.inbox
                    .extend(out.drain(..).map(|(to, m)| (from, to, m)));
            }
            self.pump();
        }
    }

    /// Asks `to` one straggler question from `from`, without pumping
    /// anything further: what `to` tells `from`, or `None` for silence.
    fn ask(&mut self, from: SiteId, to: SiteId, msg: NetMsg) -> Told {
        let mut out = Vec::new();
        self.drivers[to.0 as usize].deliver(Time(self.now), from, msg, &mut out);
        match &out[..] {
            [] => None,
            [(dest, reply)] if *dest == from => Some(told(reply)),
            other => panic!("one reply to {from:?} expected, got {other:?}"),
        }
    }

    /// Every site crashes and recovers from its own log.
    fn crash_and_recover(&mut self) {
        let now = Time(self.now);
        let drivers = std::mem::take(&mut self.drivers);
        for driver in drivers {
            let site = driver.site();
            let mut node = driver.into_node();
            node.on_crash(now);
            let mut out = Vec::new();
            self.drivers
                .push(NodeDriver::new(site, node, 11, now, &mut out));
            assert!(out.is_empty(), "{site:?} re-announced a retired outcome");
        }
    }

    /// Every straggler question, in one fixed order.
    fn stragglers(&mut self) -> Vec<Told> {
        let t1 = Arc::new(spec(T1, X, ProtocolKind::QuorumCommit2));
        let t2 = Arc::new(spec(T2, Y, ProtocolKind::PaxosCommit));
        let election = proto(Msg::Election {
            txn: T1,
            spec: Arc::clone(&t1),
            msg: ElectionMsg::Election { round: 1 },
        });
        let (parent_ask, sibling_ask, late_vote) = t3_stragglers();
        vec![
            // A termination coordinator's STATE-REQ to a participant.
            self.ask(S2, S1, proto(Msg::StateReq { round: 1, spec: t1 })),
            // An election message for the same transaction.
            self.ask(S2, S1, election),
            // A Paxos recovery candidate's 1a to an acceptor.
            self.ask(
                S2,
                S1,
                proto(Msg::PaxosP1a {
                    txn: T2,
                    bal: 5,
                    spec: t2,
                }),
            ),
            // An orphaned branch participant asks the parent ...
            self.ask(S1, S0, parent_ask),
            // ... and the decided sibling branch's coordinator.
            self.ask(S1, S2, sibling_ask),
            // A branch coordinator's late vote reaches the parent.
            self.ask(S2, S0, late_vote),
        ]
    }
}

/// What a straggler is told: the decision and the commit version the
/// reply carries, or `None` for silence.
type Told = Option<(Decision, Option<Version>)>;

fn proto(msg: Msg) -> NetMsg {
    NetMsg::Proto(msg)
}

/// The cross-shard questions: `X-OUTCOME-REQ` to the parent and to the
/// sibling branch's coordinator, and a late `X-VOTE`. None carries a
/// spec, so none can make a site that forgot the transaction re-create
/// an entry for it.
fn t3_stragglers() -> (NetMsg, NetMsg, NetMsg) {
    let ask = proto(Msg::XOutcomeReq { txn: T3 });
    let vote = proto(Msg::XVote {
        txn: T3,
        yes: true,
        commit_version: Some(Version(1)),
    });
    (ask.clone(), ask, vote)
}

/// What a reply tells a straggler: the outcome and the commit version it
/// carries.
fn told(reply: &NetMsg) -> (Decision, Option<Version>) {
    match reply {
        NetMsg::Proto(Msg::Decided {
            decision,
            commit_version,
            ..
        })
        | NetMsg::Proto(Msg::XDecide {
            decision,
            commit_version,
            ..
        }) => (*decision, *commit_version),
        NetMsg::Proto(Msg::StateRep {
            state, pc_version, ..
        }) => (state.decision().expect("a decided state"), *pc_version),
        other => panic!("not an answer: {other:?}"),
    }
}

#[test]
fn a_retired_transaction_answers_as_it_did_live_until_the_horizon() {
    let mut s = Sites::new();
    let begin = |txn, item, protocol| NetMsg::BeginTxn {
        txn,
        writeset: WriteSet::new([(item, 7)]),
        protocol,
    };
    s.send(CLIENT, S0, begin(T1, X, ProtocolKind::QuorumCommit2));
    s.send(CLIENT, S0, begin(T2, Y, ProtocolKind::PaxosCommit));
    let xbegin = NetMsg::BeginXTxn {
        txn: T3,
        branches: branches(),
    };
    s.send(CLIENT, S0, xbegin);
    s.run_until(1);
    for site in sites(3) {
        for txn in [T1, T2, T3] {
            let decision = s.node(site).decision(txn);
            assert_eq!(decision, Some(Decision::Commit), "{txn:?} at {site:?}");
        }
        assert_eq!(s.node(site).retired_len(), 0);
    }
    assert_eq!(s.node(S0).x_decision(T3), Some(Decision::Commit));

    let live = s.stragglers();
    let committed = Some((Decision::Commit, Some(Version(1))));
    assert_eq!(
        live,
        vec![
            committed,
            committed,
            committed,
            committed,
            Some((Decision::Commit, None)),
            committed
        ],
        "STATE-REQ, election, 1a, parent's and sibling's X-DECIDE, late X-VOTE"
    );

    // Everything is retired `RETIRE_AFTER` past its decision, by the
    // first timer delivered after that; the first checkpoint tick then
    // writes the outcomes down and truncates the log below them.
    s.run_until(CHECKPOINT_EVERY + 1);
    for site in sites(3) {
        assert_eq!(s.node(site).txn_table_len(), 0, "{site:?} retired all");
        assert_eq!(s.node(site).retired_len(), 3);
    }
    assert_eq!(s.node(S0).xretired_len(), 1);
    assert_eq!(s.stragglers(), live, "retired answers as live");

    s.crash_and_recover();
    for site in sites(3) {
        let node = s.node(site);
        assert!(node.wal_start_lsn() > Lsn(0), "{site:?} truncated its log");
        assert!(matches!(
            node.log_records().next(),
            Some(LogRecord::Checkpoint { .. })
        ));
        assert_eq!(node.retired_len(), 3, "{site:?} reinstalled the outcomes");
    }
    assert_eq!(s.stragglers(), live, "recovered answers as live");

    // Outcomes age out a full horizon after recovery reinstalled them.
    s.now += HORIZON;
    let (parent_ask, sibling_ask, late_vote) = t3_stragglers();
    let silence = [
        s.ask(S1, S0, parent_ask),
        s.ask(S1, S2, sibling_ask),
        s.ask(S2, S0, late_vote),
    ];
    assert_eq!(silence, [None, None, None]);
    // Aging runs on delivery: the two sites asked have forgotten.
    for site in [S0, S2] {
        assert_eq!(s.node(site).retired_len(), 0, "{site:?} aged out");
    }
    assert_eq!(s.node(S0).xretired_len(), 0);
}
