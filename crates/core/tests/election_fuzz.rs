//! Property tests for the election machine: totality, round
//! monotonicity, and liveness of the timeout path under arbitrary
//! message barrages.

use proptest::prelude::*;
use qbc_core::election::{ElectionMsg, Elector, Phase};
use qbc_core::{Action, Msg, ProtocolKind, TimerKind, TxnId, TxnSpec, WriteSet};
use qbc_simnet::SiteId;
use std::sync::Arc;

const TXN: TxnId = TxnId(1);

/// One event fed to an elector.
#[derive(Clone, Debug)]
enum Input {
    Start,
    Msg(SiteId, ElectionMsg),
    Timer(TimerKind),
}

fn arb_msg() -> impl Strategy<Value = ElectionMsg> {
    prop_oneof![
        (0u64..5).prop_map(|round| ElectionMsg::Election { round }),
        (0u64..5).prop_map(|round| ElectionMsg::Alive { round }),
        (0u64..5).prop_map(|round| ElectionMsg::Coordinator { round }),
    ]
}

fn arb_input(n_sites: u32) -> impl Strategy<Value = Input> {
    prop_oneof![
        1 => Just(Input::Start),
        4 => (0..n_sites, arb_msg()).prop_map(|(from, msg)| Input::Msg(SiteId(from), msg)),
        2 => (0u64..5).prop_map(|round| Input::Timer(TimerKind::ElectionAlive { txn: TXN, round })),
        2 => (0u64..5)
            .prop_map(|round| Input::Timer(TimerKind::ElectionCoordinator { txn: TXN, round })),
    ]
}

/// The transaction every elector runs for: participants s0..s5.
fn spec() -> Arc<TxnSpec> {
    Arc::new(TxnSpec {
        id: TXN,
        coordinator: SiteId(0),
        writeset: WriteSet::default(),
        participants: (0..6).map(SiteId).collect(),
        protocol: ProtocolKind::QuorumCommit2,
        parent: None,
    })
}

/// Feeds one input; returns what the elector emitted.
fn step(e: &mut Elector, input: Input) -> Vec<Action> {
    let mut out = Vec::new();
    match input {
        Input::Start => e.start(&mut out),
        Input::Msg(from, msg) => {
            let election = Msg::Election {
                txn: TXN,
                spec: spec(),
                msg,
            };
            e.on_msg(from, &election, &mut out)
        }
        Input::Timer(kind) => e.on_timer(kind, &mut out),
    }
    out
}

proptest! {
    /// The machine is total: arbitrary (even nonsensical) input
    /// sequences never panic, and rounds never go backwards.
    #[test]
    fn arbitrary_inputs_never_panic_and_rounds_grow(
        me in 0u32..6,
        inputs in proptest::collection::vec(arb_input(6), 0..60),
    ) {
        let mut e = Elector::new(SiteId(me), spec());
        let mut last_round = e.round();
        for input in inputs {
            let _ = step(&mut e, input);
            prop_assert!(e.round() >= last_round, "round went backwards");
            last_round = e.round();
        }
    }

    /// Liveness of the timeout path: whatever garbage arrived before,
    /// Start followed by the matching `ElectionAlive` timeout always leaves
    /// the site Leader when it has no higher peers alive to answer.
    #[test]
    fn start_then_timeout_always_elects_highest(
        noise in proptest::collection::vec(arb_input(6), 0..30),
    ) {
        // Site 5 is the highest of 0..6: Start elects it immediately.
        let mut e = Elector::new(SiteId(5), spec());
        for input in noise {
            let _ = step(&mut e, input);
        }
        let out = step(&mut e, Input::Start);
        prop_assert!(out.contains(&Action::Elected { txn: TXN }), "highest site must win on Start");
        prop_assert!(e.is_leader());
    }

    /// A follower always knows its coordinator; a leader reports itself.
    #[test]
    fn coordinator_accessor_is_consistent_with_phase(
        me in 0u32..6,
        inputs in proptest::collection::vec(arb_input(6), 0..60),
    ) {
        let mut e = Elector::new(SiteId(me), spec());
        for input in inputs {
            let _ = step(&mut e, input);
            match e.phase() {
                Phase::Leader => prop_assert_eq!(e.coordinator(), Some(SiteId(me))),
                Phase::Follower(c) => prop_assert_eq!(e.coordinator(), Some(c)),
                _ => prop_assert_eq!(e.coordinator(), None),
            }
        }
    }
}
