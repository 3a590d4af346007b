//! Cross-engine equivalence property (PR-9 satellite): one workload,
//! one crash/recovery schedule, six commit engines — and the decided
//! outcomes must line up transaction for transaction.
//!
//! The property is deliberately stated over *decided* outcomes of
//! transactions the crash cannot split. Engines differ in how long a
//! fault can keep them in doubt (2PC blocks until the coordinator
//! returns; the quorum and Paxos engines terminate through survivors)
//! and in how many rounds reach their commit point, so one crash tick
//! can fall after a decision under one engine and before it under
//! another. Seed 8447: the parent of the cross-shard `tx6` dies at tick
//! 254, after 2PC's and Paxos Commit's one-round branches let it commit,
//! but before the other four's prepare rounds let shard 1 vote up, so
//! it recovers undecided and presumes abort — each engine within its
//! contract. So whenever every engine reaches a verdict for a
//! transaction the crashed site takes no part in, or one every engine
//! had decided before the crash, it must be the same verdict.
//! Conflict-free writesets keep the workload itself deterministic
//! across engines — lock-conflict aborts depend on per-protocol message
//! timing and would make the comparison vacuous.
//!
//! The crash-free anchor is stronger: with nobody failing, every
//! engine must commit every transaction outright, which pins the
//! happy path of all six engines to one another (and to the obvious
//! expected outcome), not merely to each other's indecision.
//!
//! A second property aims a crash instead of scattering it: one
//! transaction's coordinator dies a few ticks into its own commit
//! (under group commit: between staging and forcing a record whose
//! self-delivered consequence was already handled), right after its
//! `VOTE-REQ`s left and before its start record was forced, or at its
//! commit point with its `Decided` record staged. It checks each engine
//! on its own — quiescence, atomicity, no engine violation; for the
//! second point an Abort wherever the transaction is known, and for the
//! third a Commit wherever it is known when the engine (or the branch)
//! commits before its `Decided` record.

use proptest::prelude::*;
use qbc_cluster::{ClusterConfig, SimCluster};
use qbc_core::{Decision, ProtocolKind, TxnId, WriteSet};
use qbc_simnet::{Fault, SiteId, Time};
use qbc_votes::ItemId;
use std::collections::{BTreeMap, BTreeSet};

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

/// One engine's run of the shared workload.
struct Run {
    /// Each transaction's outcome (`None` = still in doubt anywhere it
    /// is known at all).
    outcomes: BTreeMap<TxnId, Option<Decision>>,
    /// The transactions the scattered crash can split: the crashed site
    /// takes part in them, and none was decided when it crashed.
    exposed: BTreeSet<TxnId>,
}

/// One run of the shared workload under one engine.
fn run_engine(
    protocol: ProtocolKind,
    seed: u64,
    group_commit: bool,
    txns: &[(bool, i64)],
    crash: Option<(u32, u64)>,
) -> Option<Run> {
    run_engine_aimed(protocol, seed, group_commit, txns, crash, None)
}

/// Where an aimed crash lands in its transaction's commit.
#[derive(Clone, Copy, Debug)]
enum Aim {
    /// This many ticks in.
    After(u64),
    /// One tick in, under group commit (window `T/2` = 5 ticks): after
    /// the coordinator's `VOTE-REQ`s left, before its start record's
    /// force. Only a plain 2PC coordinator, whose recovery presumes abort
    /// from that record, still holds its requests for the force, and so
    /// does a cross-shard parent for its `XStart`. Whoever learned of the
    /// transaction must decide Abort: nothing of a commit was logged.
    StartUnforced,
    /// Under group commit, in the tick the coordinator reaches its
    /// commit point: the first event after which its entry for the
    /// transaction is decided, found by stepping the simulator. Under
    /// QC1, QC2 and Skeen, and for every branch of a cross-shard
    /// transaction, the commit was irrevocable before its `Decided`
    /// record, so that record is still staged — it dies in the crash —
    /// while the `COMMIT`s are already out. Whoever learned of such a
    /// transaction must decide Commit.
    DecidedUnforced,
}

/// [`run_engine`] plus an aimed crash `(k, aim)`: the coordinator of
/// transaction `k` (modulo the workload) dies where `aim` says in that
/// transaction's commit and recovers like the scattered one.
fn run_engine_aimed(
    protocol: ProtocolKind,
    seed: u64,
    group_commit: bool,
    txns: &[(bool, i64)],
    crash: Option<(u32, u64)>,
    aimed: Option<(u64, Aim)>,
) -> Option<Run> {
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
    let aimed = aimed.map(|(k, aim)| (handles[k as usize % handles.len()], aim));
    let aimed_crash = aimed.and_then(|(h, aim)| {
        let after = match aim {
            Aim::After(ticks) => ticks,
            Aim::StartUnforced => 1,
            Aim::DecidedUnforced => return None,
        };
        Some((h.coordinator.0, h.submitted_at.0 + after))
    });
    let crash_and_recover = |cluster: &mut SimCluster, site: u32, at: u64| {
        cluster
            .sim_mut()
            .schedule(Time(at), Fault::Crash(SiteId(site)));
        cluster
            .sim_mut()
            .schedule(Time(at + 600), Fault::Recover(SiteId(site)));
    };
    for (site, at) in crash.into_iter().chain(aimed_crash) {
        crash_and_recover(&mut cluster, site, at);
    }
    // What the scattered crash can split, read off the run just before
    // it (an aimed run is not compared across engines).
    let mut exposed = BTreeSet::new();
    if let (Some((site, at)), None) = (crash, aimed) {
        cluster.run_until(Time(at - 1));
        for h in &handles {
            let takes_part = cluster
                .shards_of(h)
                .into_iter()
                .any(|shard| cluster.map().sites_of(shard).contains(&SiteId(site)));
            if takes_part && cluster.decision(h).is_none() {
                exposed.insert(h.txn);
            }
        }
    }
    // The coordinator's decision as of the tick it reached it, when that
    // tick is the aim: a crash scheduled for the current tick runs
    // before any other event of it, the window's flush included.
    let mut decided_at_crash = None;
    if let Some((h, Aim::DecidedUnforced)) = aimed {
        let decided = |c: &SimCluster| c.sim().node(h.coordinator).decision(h.txn);
        for _ in 0..5_000_000 {
            if decided(&cluster).is_some() || !cluster.sim_mut().step() {
                break;
            }
        }
        decided_at_crash = decided(&cluster);
        if decided_at_crash.is_some() {
            let now = cluster.now().0;
            crash_and_recover(&mut cluster, h.coordinator.0, now);
        }
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
    if let Some((h, Aim::StartUnforced)) = aimed {
        for (site, node) in cluster.sim().nodes() {
            if node.local_state(h.txn).is_some() {
                assert_eq!(
                    node.decision(h.txn),
                    Some(Decision::Abort),
                    "{protocol:?}: {site} on {:?}, whose start record was lost (seed {seed})",
                    h.txn
                );
            }
        }
    }
    if let Some((h, Aim::DecidedUnforced)) = aimed {
        let quorum = matches!(
            protocol,
            ProtocolKind::QuorumCommit1 | ProtocolKind::QuorumCommit2 | ProtocolKind::SkeenQuorum
        );
        let branch = cluster.shards_of(&h).len() > 1;
        if decided_at_crash == Some(Decision::Commit) && (quorum || branch) {
            for (site, node) in cluster.sim().nodes() {
                if node.local_state(h.txn).is_some() {
                    assert_eq!(
                        node.decision(h.txn),
                        Some(Decision::Commit),
                        "{protocol:?}: {site} on {:?}, committed before its coordinator \
                         lost its Decided record (seed {seed})",
                        h.txn
                    );
                }
            }
        }
    }
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
    Some(Run { outcomes, exposed })
}

/// A case the aimed property found at `cases: 3000`: under Paxos Commit
/// the coordinator s2 of tx3 dies before its start record's force, s0
/// dies too, and s1 decides Abort alone meanwhile. s2 recovers knowing
/// nothing; s0 recovers and runs a ballot whose 1a draws s2 in, in `q`,
/// then adopts s1's decided answer and tells no one. s2's watchdog must
/// end the wait with a veto, or the run never quiesces.
#[test]
fn a_paxos_site_drawn_into_a_ballot_it_never_voted_in_does_not_wait_forever() {
    let txns = [(false, 700), (true, 596), (false, 552)];
    let run = run_engine_aimed(
        ProtocolKind::PaxosCommit,
        6879,
        true,
        &txns,
        Some((0, 180)),
        Some((2, Aim::StartUnforced)),
    )
    .expect("quiesces");
    assert_eq!(run.outcomes[&TxnId(3)], Some(Decision::Abort));
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    /// The same conflict-free workload and the same crash/recovery
    /// schedule, replayed under all six engines: every transaction the
    /// crash cannot split under any engine and all six decide gets the
    /// same verdict everywhere, and without any crash all six commit
    /// everything.
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
        let mut per_engine: Vec<(ProtocolKind, Run)> = Vec::new();
        for protocol in ENGINES {
            let outcomes = run_engine(protocol, seed, group_commit, &txns, crash);
            prop_assert!(
                outcomes.is_some(),
                "{:?} never quiesced (seed {})", protocol, seed
            );
            per_engine.push((protocol, outcomes.unwrap()));
        }
        let (_, reference) = &per_engine[0];
        for txn in reference.outcomes.keys() {
            // Whenever every engine decides a transaction the crash
            // cannot split, the verdicts must agree.
            let verdicts: Vec<(ProtocolKind, Option<Decision>)> = per_engine
                .iter()
                .map(|(p, run)| (*p, run.outcomes[txn]))
                .collect();
            let split = per_engine.iter().any(|(_, run)| run.exposed.contains(txn));
            if !split && verdicts.iter().all(|(_, d)| d.is_some()) {
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
    /// last two asserted inside the run). A third of the cases aim
    /// instead at [`Aim::StartUnforced`], where the survivors must also
    /// decide Abort, and a third at [`Aim::DecidedUnforced`], where a
    /// quorum engine's or a branch's commit must hold everywhere.
    #[test]
    fn a_coordinator_crash_inside_its_own_commit_stays_atomic_under_all_six_engines(
        seed in 0u64..10_000,
        txns in proptest::collection::vec(
            (proptest::bool::ANY, 0i64..1_000),
            2..=6,
        ),
        crash in proptest::option::of((0u32..6u32, 20u64..350u64)),
        aimed in (
            0u64..6u64,
            prop_oneof![
                (0u64..60u64).prop_map(Aim::After),
                Just(Aim::StartUnforced),
                Just(Aim::DecidedUnforced),
            ],
        ),
        group_commit in proptest::bool::ANY,
    ) {
        let group_commit = group_commit || !matches!(aimed.1, Aim::After(_));
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
