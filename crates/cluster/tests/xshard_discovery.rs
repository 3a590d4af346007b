//! Cooperative cross-shard outcome discovery (PR-7 satellite): when the
//! parent X coordinator dies after deciding, an orphaned branch asks
//! its *sibling* branch coordinators for the outcome alongside the
//! (dead) parent — any branch that learned the top-level decision can
//! answer, so the branch's blocked window ends at the first discovery
//! round instead of stretching until parent recovery.
//!
//! The host is [`client_parent_host`]: parent at site 0 holds no
//! branch, shard A's coordinator is site 1, shard B's is site 2. That
//! separation matters — in [`two_shard_host`] the parent doubles as a
//! branch coordinator, so "ask the parent" and "ask the sibling" name
//! the same site and cooperation is invisible.

#[path = "common/mc_harness.rs"]
mod mc_harness;

use mc_harness::{
    atomicity, client_parent_host, decision_stability, deliver, drop_in_flight, find_in_flight,
    CLIENT,
};
use qbc_core::{Decision, LogRecord, ProtocolKind, TxnId};
use qbc_db::SiteNode;
use qbc_mc::{Choice, ControlledHost, HostConfig};
use qbc_obs::{Obs, ObsConfig};
use qbc_simnet::SiteId;
use std::sync::Arc;

const PARENT: SiteId = SiteId(0);
const S1: SiteId = SiteId(1);
const S2: SiteId = SiteId(2);
const TXN: TxnId = TxnId(1);

/// Fires site `s`'s earliest pending timer until `pred` holds, bounded
/// by `limit` fires (skips over no-op expiries like a held branch's
/// stale vote-collection window).
fn fire_until(
    h: &mut ControlledHost<SiteNode>,
    s: SiteId,
    limit: usize,
    pred: impl Fn(&ControlledHost<SiteNode>) -> bool,
) {
    for _ in 0..limit {
        if pred(h) {
            return;
        }
        assert!(
            h.pending_timers().iter().any(|t| t.site == s),
            "{s} has no timers left to fire"
        );
        h.apply(Choice::Fire { site: s });
    }
    assert!(pred(h), "predicate still false after {limit} fires at {s}");
}

/// Builds the host and runs the shared prefix: the transaction commits
/// top-level, shard A learns it, the X-DECIDE to shard B is lost, and
/// the parent crashes — leaving site 2 held at its commit point with a
/// dead outcome authority.
fn orphaned_branch_b(max_drops: u32, obs: &Arc<Obs>) -> ControlledHost<SiteNode> {
    let host_cfg = HostConfig {
        crash_sites: vec![PARENT],
        max_crashes: 1,
        max_drops,
        ..HostConfig::default()
    };
    let o = obs.clone();
    let mut h = client_parent_host(ProtocolKind::QuorumCommit1, host_cfg, move |cfg| {
        cfg.with_obs(o.clone())
    });

    deliver(&mut h, CLIENT, PARENT, "BeginXTxn");
    deliver(&mut h, PARENT, S1, "XBranchReq"); // shard A runs to Held
    deliver(&mut h, PARENT, S2, "XBranchReq"); // shard B runs to Held
    deliver(&mut h, S1, PARENT, "XVote");
    deliver(&mut h, S2, PARENT, "XVote"); // all yes: top-level commit
    assert_eq!(h.node(PARENT).x_decision(TXN), Some(Decision::Commit));

    deliver(&mut h, PARENT, S1, "XDecide"); // shard A commits
    assert_eq!(h.node(S1).decision(TXN), Some(Decision::Commit));
    drop_in_flight(&mut h, PARENT, S2, "XDecide"); // shard B's copy is lost
    h.apply(Choice::Crash { site: PARENT });
    assert_eq!(
        h.node(S2).decision(TXN),
        None,
        "shard B must be orphaned at its commit point"
    );
    h
}

/// One discovery round at site 2: the watchdog expires, and the asks go
/// to the dead parent *and* the living sibling.
fn fire_discovery_round(h: &mut ControlledHost<SiteNode>) {
    fire_until(h, S2, 5, |h| {
        h.in_flight()
            .iter()
            .any(|m| m.from == S2 && format!("{:?}", m.msg).contains("XOutcomeReq"))
    });
    // The cooperative ask targets the sibling, not just the parent.
    find_in_flight(h, S2, PARENT, "XOutcomeReq");
    find_in_flight(h, S2, S1, "XOutcomeReq");
    deliver(h, S2, PARENT, "XOutcomeReq"); // swallowed by the corpse
}

#[test]
fn sibling_answers_the_outcome_while_the_parent_is_down() {
    let obs = Arc::new(Obs::new(ObsConfig::on()));
    let mut h = orphaned_branch_b(1, &obs);

    fire_discovery_round(&mut h);
    deliver(&mut h, S2, S1, "XOutcomeReq"); // the sibling is decided…
    deliver(&mut h, S1, S2, "XDecide"); // …and relays the outcome

    // Shard B commits off the sibling's versionless answer (its own
    // held engine supplies the branch commit version) with the parent
    // still dead.
    assert!(!h.is_up(PARENT));
    assert_eq!(h.node(S2).decision(TXN), Some(Decision::Commit));
    assert!(
        h.node(S2).log_records().any(|r| matches!(
            r,
            LogRecord::Decided {
                txn: TXN,
                decision: Decision::Commit,
                ..
            }
        )),
        "the discovered outcome must be durable at shard B"
    );
    atomicity(vec![TXN])(&h).unwrap();
    decision_stability()(&h).unwrap();

    // The observability layer saw the discovery traffic: this is the
    // measured blocked window the satellite shrinks.
    let dump = obs.dump("sibling discovery resolved shard B");
    println!("{dump}");
    assert!(dump.contains("x-outcome-req-out"), "{dump}");
}

/// The A/B control for the blocked window: withholding the sibling asks
/// (losing them round after round) models the old parent-only
/// discovery — shard B stays blocked for exactly as many rounds as
/// sibling cooperation is denied, and resolves at the first round it is
/// allowed through.
#[test]
fn blocked_window_lasts_while_sibling_asks_are_withheld() {
    let obs = Arc::new(Obs::new(ObsConfig::on()));
    // 1 drop for the X-DECIDE + 3 withheld sibling asks.
    let mut h = orphaned_branch_b(4, &obs);

    for round in 0..3 {
        fire_discovery_round(&mut h);
        drop_in_flight(&mut h, S2, S1, "XOutcomeReq"); // deny cooperation
        assert_eq!(
            h.node(S2).decision(TXN),
            None,
            "round {round}: parent-only discovery cannot resolve a dead parent"
        );
    }

    // First round with the sibling ask delivered: the window closes.
    fire_discovery_round(&mut h);
    deliver(&mut h, S2, S1, "XOutcomeReq");
    deliver(&mut h, S1, S2, "XDecide");
    assert_eq!(h.node(S2).decision(TXN), Some(Decision::Commit));
    atomicity(vec![TXN])(&h).unwrap();
}
