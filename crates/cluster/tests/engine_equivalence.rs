//! Cross-engine equivalence property (PR-9 satellite): one workload,
//! one crash/recovery schedule, six commit engines — and the decided
//! outcomes must line up transaction for transaction.
//!
//! The property is deliberately stated over *decided* outcomes:
//! engines differ in how long a fault can keep them in doubt (2PC
//! blocks until the coordinator returns; the quorum and Paxos engines
//! terminate through survivors), so the universally comparable claim
//! is that whenever every engine reaches a verdict for a transaction,
//! it is the same verdict. Conflict-free writesets keep the workload
//! itself deterministic across engines — lock-conflict aborts depend
//! on per-protocol message timing and would make the comparison
//! vacuous.
//!
//! The crash-free anchor is stronger: with nobody failing, every
//! engine must commit every transaction outright, which pins the
//! happy path of all six engines to one another (and to the obvious
//! expected outcome), not merely to each other's indecision.
//!
//! A second property aims a crash instead of scattering it: one
//! transaction's coordinator dies a few ticks into its own commit
//! (under group commit: between staging and forcing a record whose
//! self-delivered consequence was already handled). It checks each
//! engine on its own — quiescence, atomicity, no engine violation.

use proptest::prelude::*;
use qbc_cluster::{ClusterConfig, SimCluster};
use qbc_core::{Decision, ProtocolKind, TxnId, WriteSet};
use qbc_simnet::{SiteId, Time};
use qbc_votes::ItemId;
use std::collections::BTreeMap;

/// Every commit engine the cluster can run, in a fixed comparison
/// order. `ProtocolKind::ALL` is re-asserted against this list so a
/// seventh engine cannot be added without extending the equivalence
/// property.
const ENGINES: [ProtocolKind; 6] = [
    ProtocolKind::TwoPhase,
    ProtocolKind::ThreePhase,
    ProtocolKind::SkeenQuorum,
    ProtocolKind::QuorumCommit1,
    ProtocolKind::QuorumCommit2,
    ProtocolKind::PaxosCommit,
];

#[test]
fn engines_list_covers_every_protocol_kind() {
    assert_eq!(ENGINES, ProtocolKind::ALL);
}

/// One run of the shared workload under one engine: per-transaction
/// outcomes (`None` = still in doubt anywhere it is known at all).
fn run_engine(
    protocol: ProtocolKind,
    seed: u64,
    group_commit: bool,
    txns: &[(bool, i64)],
    crash: Option<(u32, u64)>,
) -> Option<BTreeMap<TxnId, Option<Decision>>> {
    run_engine_aimed(protocol, seed, group_commit, txns, crash, None)
}

/// [`run_engine`] plus an aimed crash `(k, after)`: the coordinator of
/// transaction `k` (modulo the workload) dies `after` ticks into that
/// transaction's commit and recovers like the scattered one.
fn run_engine_aimed(
    protocol: ProtocolKind,
    seed: u64,
    group_commit: bool,
    txns: &[(bool, i64)],
    crash: Option<(u32, u64)>,
    aimed: Option<(u64, u64)>,
) -> Option<BTreeMap<TxnId, Option<Decision>>> {
    let mut cfg = ClusterConfig {
        protocol,
        seed,
        ..ClusterConfig::default()
    };
    if group_commit {
        cfg = cfg.with_group_commit();
    }
    let mut cluster = SimCluster::new(cfg);
    // Transaction k owns items {k, k + 8}: item k lives in shard 0,
    // item k + 8 in shard 1, so `cross` flips between a single-shard
    // and a cross-shard transaction — with writesets disjoint across
    // transactions by construction.
    let mut handles = Vec::new();
    for (k, &(cross, value)) in txns.iter().enumerate() {
        let mut pairs = vec![(ItemId(k as u32), value)];
        if cross {
            pairs.push((ItemId(k as u32 + 8), value + 1));
        }
        handles.push(cluster.submit_at(Time(k as u64 * 45), WriteSet::new(pairs)));
    }
    let aimed = aimed.map(|(k, after)| {
        let h = handles[k as usize % handles.len()];
        (h.coordinator.0, h.submitted_at.0 + after)
    });
    for (site, at) in crash.into_iter().chain(aimed) {
        cluster.sim_mut().schedule_crash(Time(at), SiteId(site));
        cluster
            .sim_mut()
            .schedule_recover(Time(at + 600), SiteId(site));
    }
    let mut drained = false;
    for _ in 0..100 {
        if cluster.run_to_quiescence(5_000_000).drained() {
            drained = true;
            break;
        }
    }
    if !drained {
        return None;
    }
    assert!(
        cluster.atomicity_violations().is_empty(),
        "{protocol:?}: atomicity violated (seed {seed})"
    );
    assert!(
        cluster.engine_violations().is_empty(),
        "{protocol:?}: engine violation (seed {seed})"
    );
    let mut outcomes: BTreeMap<TxnId, Option<Decision>> = BTreeMap::new();
    for h in &handles {
        let mut decision = None;
        for (site, node) in cluster.sim().nodes() {
            if let Some(d) = node.decision(h.txn) {
                if let Some(prev) = decision.replace(d) {
                    assert_eq!(
                        prev, d,
                        "{protocol:?}: {:?} decided both ways by {site} (seed {seed})",
                        h.txn
                    );
                }
            }
        }
        outcomes.insert(h.txn, decision);
    }
    Some(outcomes)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    /// The same conflict-free workload and the same crash/recovery
    /// schedule, replayed under all six engines: every transaction all
    /// six decide gets the same verdict everywhere, and without any
    /// crash all six commit everything.
    #[test]
    fn identical_workloads_decide_identically_across_all_six_engines(
        seed in 0u64..10_000,
        txns in proptest::collection::vec(
            (proptest::bool::ANY, 0i64..1_000),
            2..=6,
        ),
        crash in proptest::option::of((0u32..6u32, 20u64..350u64)),
        group_commit in proptest::bool::ANY,
    ) {
        let mut per_engine: Vec<(ProtocolKind, BTreeMap<TxnId, Option<Decision>>)> = Vec::new();
        for protocol in ENGINES {
            let outcomes = run_engine(protocol, seed, group_commit, &txns, crash);
            prop_assert!(
                outcomes.is_some(),
                "{:?} never quiesced (seed {})", protocol, seed
            );
            per_engine.push((protocol, outcomes.unwrap()));
        }
        let (_, reference) = &per_engine[0];
        for txn in reference.keys() {
            // Whenever every engine decides, the verdicts must agree.
            let verdicts: Vec<(ProtocolKind, Option<Decision>)> = per_engine
                .iter()
                .map(|(p, o)| (*p, o[txn]))
                .collect();
            if verdicts.iter().all(|(_, d)| d.is_some()) {
                let first = verdicts[0].1;
                prop_assert!(
                    verdicts.iter().all(|(_, d)| *d == first),
                    "{:?} diverged across engines: {:?} (seed {})",
                    txn, verdicts, seed
                );
            }
            // Crash-free anchor: all six must commit outright.
            if crash.is_none() {
                prop_assert!(
                    verdicts.iter().all(|(_, d)| *d == Some(Decision::Commit)),
                    "{:?} must commit under every engine without faults: {:?} (seed {})",
                    txn, verdicts, seed
                );
            }
        }
    }

    /// The second crash point: besides the scattered crash, one
    /// transaction's coordinator dies 0-59 ticks into its own commit.
    /// Under group commit that lands between staging and forcing a
    /// record whose self-delivered consequence (the coordinator's own
    /// vote or ack, counted at once) has already been handled. Which
    /// side of the victim's vote such a crash falls on differs by
    /// engine, so verdicts are not compared across engines here: each
    /// engine must quiesce, stay atomic and report no violation (the
    /// last two asserted inside the run).
    #[test]
    fn a_coordinator_crash_inside_its_own_commit_stays_atomic_under_all_six_engines(
        seed in 0u64..10_000,
        txns in proptest::collection::vec(
            (proptest::bool::ANY, 0i64..1_000),
            2..=6,
        ),
        crash in proptest::option::of((0u32..6u32, 20u64..350u64)),
        aimed in (0u64..6u64, 0u64..60u64),
        group_commit in proptest::bool::ANY,
    ) {
        for protocol in ENGINES {
            let outcomes =
                run_engine_aimed(protocol, seed, group_commit, &txns, crash, Some(aimed));
            prop_assert!(
                outcomes.is_some(),
                "{:?} never quiesced (seed {})", protocol, seed
            );
        }
    }
}
