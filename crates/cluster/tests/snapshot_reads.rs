//! Snapshot-read consistency properties under random crash schedules,
//! each seed with and without group commit (on the modelled log device):
//!
//! 1. **No undecided data** — a snapshot read's value is always the
//!    initial value or the write of a transaction that had *already
//!    committed* at the moment the read was answered; in-flight and
//!    aborted writes are invisible at any watermark.
//! 2. **Session monotonicity** — successive snapshot reads of one item
//!    through one session never go backwards in version, even when the
//!    reads land on different coordinators with different watermarks.
//!
//! The golden-digest determinism tests (`determinism.rs`) separately
//! pin that all of this machinery is inert when the feature is off.

use qbc_cluster::{ClusterConfig, ShardId, SimCluster};
use qbc_core::{Decision, WriteSet};
use qbc_db::ReadResult;
use qbc_simnet::{Duration, Fault, SiteId, Time};
use qbc_votes::{ItemId, Version};
use std::collections::BTreeMap;

/// Tiny deterministic generator for the crash schedules (keeps the
/// test free of RNG crates; constants from Knuth's MMIX LCG).
fn next(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *state >> 33
}

#[test]
fn snapshot_reads_observe_only_committed_data_and_never_go_backwards() {
    let runs = (0..8u64).flat_map(|seed| [(seed, false), (seed, true)]);
    for (seed, group_commit) in runs {
        let mut cfg = ClusterConfig {
            seed,
            ..ClusterConfig::default()
        }
        .with_snapshot_reads(4);
        if group_commit {
            // A quorum commit applies before its `Decided` record is
            // forced, so a crash can take a site's own watermark back
            // below what it already piggybacked.
            cfg = cfg.with_group_commit().with_force_latency(Duration(2));
        }
        let mut c = SimCluster::new(cfg);
        let run = format!("seed {seed}, group commit {group_commit}");
        let shards = c.map().shards();
        let total_sites = c.config().total_sites();

        // 40 writes with per-(item, txn) unique values, so any observed
        // value identifies exactly the transaction that wrote it.
        let mut writes: BTreeMap<ItemId, BTreeMap<i64, qbc_cluster::TxnHandle>> = BTreeMap::new();
        for k in 0..40u64 {
            let shard = ShardId((k % shards as u64) as u32);
            let items = c.map().items_of(shard);
            let item = items[(k as usize / shards as usize) % items.len()];
            let value = 10_000 + k as i64;
            let h = c.submit_at(Time(k * 30), WriteSet::new([(item, value)]));
            writes.entry(item).or_default().insert(value, h);
        }

        // A random crash/recover pair per shard-ish, derived from the
        // seed: reads race real failures and recoveries.
        let mut st = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        for _ in 0..2 {
            let site = SiteId((next(&mut st) % total_sites as u64) as u32);
            let down = 150 + next(&mut st) % 500;
            let up = down + 200 + next(&mut st) % 600;
            c.sim_mut().schedule(Time(down), Fault::Crash(site));
            c.sim_mut().schedule(Time(up), Fault::Recover(site));
        }

        // Interleave snapshot reads with the running schedule: two
        // sessions, each probing a couple of items per wave.
        let probe_items: Vec<ItemId> = (0..shards)
            .flat_map(|s| c.map().items_of(ShardId(s)).into_iter().take(2))
            .collect();
        let mut sessions = [c.open_session(), c.open_session()];
        let mut last_seen: Vec<BTreeMap<ItemId, Version>> = vec![BTreeMap::new(), BTreeMap::new()];
        for wave in 1..=12u64 {
            let t = wave * 120;
            if c.now() < Time(t) {
                c.run_until(Time(t));
            }
            for (s, session) in sessions.iter_mut().enumerate() {
                for &item in &probe_items {
                    let r = c.snapshot_read(session, item);
                    match r {
                        ReadResult::Success { version, value } => {
                            // Property 1: the value is initial or was
                            // committed *before* this read answered.
                            if value != 0 {
                                let h = writes
                                    .get(&item)
                                    .and_then(|m| m.get(&value))
                                    .unwrap_or_else(|| {
                                        panic!(
                                            "{run}: read of {item:?} returned {value}, \
                                             which no transaction ever wrote"
                                        )
                                    });
                                assert_eq!(
                                    c.decision(h),
                                    Some(Decision::Commit),
                                    "{run}: read of {item:?} observed value {value} of \
                                     a transaction not committed at read time"
                                );
                            }
                            // Property 2: per session per item, versions
                            // never regress.
                            if let Some(&prev) = last_seen[s].get(&item) {
                                assert!(
                                    version >= prev,
                                    "{run}: session {s} saw {item:?} go backwards \
                                     ({prev:?} -> {version:?})"
                                );
                            }
                            last_seen[s].insert(item, version);
                        }
                        // A crashed round-robin coordinator can eat a
                        // probe; availability is e17's claim, not this
                        // test's.
                        ReadResult::Unavailable => {}
                        ReadResult::Pending => panic!("blocking read returned Pending"),
                    }
                }
            }
        }

        // The schedule itself stays sound under the crashes.
        for _ in 0..50 {
            if c.run_to_quiescence(10_000_000).drained() {
                break;
            }
        }
        assert_eq!(c.atomicity_violations(), vec![], "{run}");
        assert_eq!(c.engine_violations(), vec![], "{run}");
    }
}
