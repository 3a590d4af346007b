//! Property tests for cross-shard commit: random multi-shard writesets
//! under random crash schedules must (a) terminate every shard of a
//! transaction the same way and (b) leave every site's WAL replaying —
//! after volatile loss — to a state consistent with the decided
//! outcome.

use proptest::prelude::*;
use qbc_cluster::{ClusterConfig, SimCluster};
use qbc_core::{Decision, LocalState, Participant, ParticipantConfig, WriteSet};
use qbc_simnet::{Duration, Fault, SiteId, Time};
use qbc_votes::ItemId;
use std::collections::BTreeMap;

const SHARDS: u32 = 3;
const ITEMS_PER_SHARD: u32 = 8;
const SITES: u32 = SHARDS * 3;

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Random multi-shard writesets + random crash/recovery schedules ⇒
    /// all shards agree on every transaction's outcome, and WAL replay
    /// (durable records only — exactly what survives volatile loss)
    /// matches it at every site.
    #[test]
    fn random_xshard_load_with_crashes_is_atomic_and_replayable(
        seed in 0u64..10_000,
        writesets in proptest::collection::vec(
            proptest::collection::vec(
                (0u32..SHARDS * ITEMS_PER_SHARD, 0i64..1_000),
                1..=5,
            ),
            3..=8,
        ),
        crashes in proptest::collection::vec(
            (0u32..SITES, 20u64..350),
            0..=2,
        ),
        staged_crash in proptest::option::of((0u64..8u64, 0u64..60u64)),
        group_commit in proptest::bool::ANY,
    ) {
        let mut cfg = ClusterConfig {
            shards: SHARDS,
            seed,
            ..ClusterConfig::default()
        };
        if group_commit {
            cfg = cfg.with_group_commit().with_force_latency(Duration(2));
        }
        let mut cluster = SimCluster::new(cfg);
        let mut handles = Vec::new();
        for (k, pairs) in writesets.iter().enumerate() {
            let ws = WriteSet::new(pairs.iter().map(|&(i, v)| (ItemId(i), v)));
            handles.push(cluster.submit_at(Time(k as u64 * 45), ws));
        }
        // The second crash point takes down one transaction's (parent
        // and home-branch) coordinator a few ticks into its own commit:
        // under group commit, between staging and forcing a record
        // whose self-delivered consequence — its own vote or ack,
        // counted at once — has already been handled.
        let staged = staged_crash.map(|(k, after)| {
            let h = handles[k as usize % handles.len()];
            (h.coordinator.0, h.submitted_at.0 + after)
        });
        for (site, at) in crashes.iter().copied().chain(staged) {
            cluster.sim_mut().schedule(Time(at), Fault::Crash(SiteId(site)));
            cluster.sim_mut().schedule(Time(at + 500), Fault::Recover(SiteId(site)));
        }
        let mut drained = false;
        for _ in 0..100 {
            if cluster.run_to_quiescence(5_000_000).drained() {
                drained = true;
                break;
            }
        }
        prop_assert!(drained, "cluster never quiesced (seed {seed})");
        prop_assert!(cluster.atomicity_violations().is_empty());
        prop_assert!(cluster.engine_violations().is_empty());

        // (a) All shards of every transaction agree.
        let mut decided: BTreeMap<_, Decision> = BTreeMap::new();
        for (site, node) in cluster.sim().nodes() {
            for txn in node.known_txns() {
                if let Some(d) = node.decision(txn) {
                    if let Some(prev) = decided.insert(txn, d) {
                        prop_assert_eq!(
                            prev, d,
                            "{:?} decided both ways (last disagreement at {}, seed {})",
                            txn, site, seed
                        );
                    }
                }
            }
        }
        // Every submitted transaction terminated somewhere (crashed
        // sites recovered, so nothing may stay in doubt) — except
        // submissions that never reached a live coordinator.
        let metrics = cluster.metrics();
        prop_assert_eq!(metrics.total_undecided(), 0);

        // (b) WAL replay after volatile loss matches the outcome:
        // `log_records()` reads back durable records only, exactly what
        // a crash at this instant would preserve.
        for (site, node) in cluster.sim().nodes() {
            // Each transaction's records redone into a fresh participant
            // (the records of other engine kinds leave it untouched).
            let mut recovered = BTreeMap::new();
            for rec in node.log_records() {
                if let Some(txn) = rec.txn() {
                    recovered
                        .entry(txn)
                        .or_insert_with(|| Participant::new(site, txn, ParticipantConfig::default()))
                        .redo(&rec);
                }
            }
            for (txn, participant) in recovered {
                let wal_decision = match participant.state() {
                    LocalState::Committed => Some(Decision::Commit),
                    LocalState::Aborted => Some(Decision::Abort),
                    _ => None,
                };
                if let (Some(w), Some(d)) = (wal_decision, decided.get(&txn)) {
                    prop_assert_eq!(
                        w, *d,
                        "{:?} WAL at {} replays {:?}, cluster decided {:?} (seed {})",
                        txn, site, w, d, seed
                    );
                }
                // A durably committed WAL state implies the cluster
                // decision exists and is commit (commit is never local).
                if wal_decision == Some(Decision::Commit) {
                    prop_assert_eq!(decided.get(&txn), Some(&Decision::Commit));
                }
            }
        }
    }
}
