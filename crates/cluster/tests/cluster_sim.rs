//! Deterministic-substrate integration tests for the cluster runtime:
//! many concurrent transactions across shards, with and without group
//! commit, with and without failures — always atomic, always resolving.

use qbc_cluster::{ClusterConfig, ShardId, SimCluster};
use qbc_core::{Decision, WriteSet};
use qbc_db::ReadResult;
use qbc_simnet::{Duration, Fault, SiteId, Time};
use qbc_votes::ItemId;

/// A writeset of one or two items within one shard, varied by index.
fn writeset(cluster: &SimCluster, shard: ShardId, k: u64) -> WriteSet {
    let items = cluster.map().items_of(shard);
    let a = items[(k as usize) % items.len()];
    let b = items[(k as usize + 3) % items.len()];
    if a == b {
        WriteSet::new([(a, 100 + k as i64)])
    } else {
        WriteSet::new([(a, 100 + k as i64), (b, 200 + k as i64)])
    }
}

fn drive(mut cluster: SimCluster, n_txns: u64, interarrival: u64) {
    let shards = cluster.map().shards();
    let mut sessions: Vec<_> = (0..4).map(|_| cluster.open_session()).collect();
    for k in 0..n_txns {
        let shard = ShardId((k % shards as u64) as u32);
        let ws = writeset(&cluster, shard, k);
        let at = Time(k * interarrival);
        let s = (k as usize) % sessions.len();
        cluster.submit(&mut sessions[s], at, ws);
    }
    let q = cluster.run_to_quiescence(10_000_000);
    assert!(q.drained(), "cluster must quiesce, got {q:?}");

    // Every handle resolves, across every session.
    let deadline = cluster.now();
    for session in &sessions {
        for (h, d) in cluster.await_all(session, deadline) {
            assert!(d.is_some(), "handle {h:?} did not resolve");
        }
    }

    // Zero consistency violations, cluster-level and engine-level.
    assert_eq!(cluster.atomicity_violations(), vec![]);
    assert_eq!(cluster.engine_violations(), vec![]);

    // The metrics registry agrees: everything decided, most committed
    // (low contention; occasional no-wait lock conflicts abort a few).
    let m = cluster.metrics();
    assert_eq!(m.total_undecided(), 0);
    let decided = m.total_committed() + m.total_aborted();
    assert_eq!(decided, n_txns);
    assert!(
        m.total_committed() >= n_txns * 7 / 10,
        "only {}/{} committed",
        m.total_committed(),
        n_txns
    );
    for (i, s) in m.shards.iter().enumerate() {
        assert!(s.submitted > 0, "shard {i} never used");
        assert!(s.latency.count() > 0, "shard {i} recorded no latencies");
        assert!(s.wal_forces > 0, "shard {i} paid no forces");
    }
}

#[test]
fn sixty_concurrent_txns_across_two_shards_stay_atomic() {
    drive(SimCluster::new(ClusterConfig::default()), 60, 25);
}

#[test]
fn group_commit_cluster_stays_atomic_and_saves_forces() {
    let base = ClusterConfig {
        seed: 7,
        ..ClusterConfig::default()
    };
    let mut plain = SimCluster::new(base.clone());
    let mut batched = SimCluster::new(
        ClusterConfig {
            force_latency: Duration(4),
            ..base
        }
        .with_group_commit(),
    );
    for cluster in [&mut plain, &mut batched] {
        let shards = cluster.map().shards();
        for k in 0..60u64 {
            let shard = ShardId((k % shards as u64) as u32);
            let ws = writeset(cluster, shard, k);
            cluster.submit_at(Time(k * 20), ws);
        }
        let q = cluster.run_to_quiescence(10_000_000);
        assert!(q.drained());
        assert_eq!(cluster.atomicity_violations(), vec![]);
        assert_eq!(cluster.engine_violations(), vec![]);
    }
    let (mp, mb) = (plain.metrics(), batched.metrics());
    assert_eq!(mp.total_undecided(), 0);
    assert_eq!(mb.total_undecided(), 0);
    assert!(
        mb.total_wal_forces() < mp.total_wal_forces(),
        "batched paid {} forces vs per-record {}",
        mb.total_wal_forces(),
        mp.total_wal_forces()
    );
}

#[test]
fn four_shard_cluster_commits_under_load() {
    let cfg = ClusterConfig {
        shards: 4,
        items_per_shard: 6,
        seed: 3,
        ..Default::default()
    };
    drive(SimCluster::new(cfg), 80, 15);
}

/// `coord-kill`'s shape in virtual time: site 0, a coordinator of shard
/// 0, crashes mid-stream, for every seed, replication, crash instant,
/// whether it recovers and whether the log runs group commit (a 2-tick
/// force behind a window, as `coord-kill` does; at replication 2 that
/// puts coordinators without a copy behind closed gates). Every row
/// stays atomic with no engine violation.
/// A recovered cluster decides everything it accepted and resolves every
/// handle. With the coordinator down for good, shard 0 may block (at
/// replication 2 a lone survivor holds no quorum), so its undecided
/// count is printed (`--nocapture`) instead of required to be 0; every
/// handle of shard 1, which the crash does not touch, still resolves.
///
/// The loss-window rows drop 10 % of messages over [50, 1 500), around
/// a crash at 200 and a recovery at 800, under a denser stream at
/// replication 2. Loss draws from the seed, so there every seed is its
/// own schedule, and lost acks push coordinators without a copy into
/// termination, where they must not veto a shard that committed. They
/// run to t = 20 000, not to quiescence: a coordinator without a copy
/// that no peer tells the outcome stays undecided, its watchdog
/// re-arming for good.
#[test]
fn coordinator_crash_mid_stream_keeps_the_cluster_atomic() {
    for seed in [11, 12, 13] {
        for replication in [2, 3] {
            for crash_at in [300, 600, 1_000] {
                for recovers in [true, false] {
                    for group_commit in [false, true] {
                        let shape = Shape {
                            txns: 50,
                            every: 30,
                            crash_at,
                            down_for: recovers.then_some(800),
                            loss: None,
                            min_committed: 26,
                        };
                        coordinator_crash_row(seed, replication, group_commit, shape);
                    }
                }
            }
        }
    }
    for seed in 0..8 {
        for group_commit in [false, true] {
            let shape = Shape {
                txns: 40,
                every: 13,
                crash_at: 200,
                down_for: Some(600),
                loss: Some((50, 1_500)),
                min_committed: 15,
            };
            coordinator_crash_row(seed, 2, group_commit, shape);
        }
    }
}

/// One row's stream and faults: `txns` writesets, one every `every`
/// ticks, alternating shards; site 0 down from `crash_at` for
/// `down_for` ticks (or for good); 10 % loss over the `loss` window.
/// A row where site 0 recovers commits at least `min_committed`.
#[derive(Debug)]
struct Shape {
    txns: u64,
    every: u64,
    crash_at: u64,
    down_for: Option<u64>,
    loss: Option<(u64, u64)>,
    min_committed: u64,
}

fn coordinator_crash_row(seed: u64, replication: u32, group_commit: bool, shape: Shape) {
    let row = format!("seed {seed}, r{replication}, group commit {group_commit}, {shape:?}");
    let mut cfg = ClusterConfig {
        seed,
        replication,
        ..Default::default()
    };
    if group_commit {
        cfg = cfg.with_group_commit().with_force_latency(Duration(2));
    }
    let mut cluster = SimCluster::new(cfg);
    let shards = cluster.map().shards();
    for k in 0..shape.txns {
        let shard = ShardId((k % shards as u64) as u32);
        let ws = writeset(&cluster, shard, k);
        cluster.submit_at(Time(k * shape.every), ws);
    }
    let sim = cluster.sim_mut();
    if let Some((from, to)) = shape.loss {
        sim.schedule(Time(from), Fault::SetLoss(0.1));
        sim.schedule(Time(to), Fault::SetLoss(0.0));
    }
    sim.schedule(Time(shape.crash_at), Fault::Crash(SiteId(0)));
    let recovers = shape.down_for.is_some();
    if let Some(down_for) = shape.down_for {
        sim.schedule(Time(shape.crash_at + down_for), Fault::Recover(SiteId(0)));
    }
    if recovers && shape.loss.is_none() {
        let q = cluster.run_to_quiescence(20_000_000);
        assert!(q.drained(), "{row}");
    } else {
        // A blocked transaction retries forever: run a long while
        // instead of to quiescence.
        cluster.run_until(Time(20_000));
    }
    assert_eq!(cluster.atomicity_violations(), vec![], "{row}");
    assert_eq!(cluster.engine_violations(), vec![], "{row}");
    let m = cluster.metrics();
    // Submissions aimed at the crashed site while it was down are
    // rejected (never reached a coordinator).
    let rejected: u64 = m.shards.iter().map(|s| s.rejected).sum();
    let unresolved: Vec<_> = cluster
        .handles()
        .iter()
        .filter(|h| !cluster.status(h).is_resolved())
        .map(|h| (h.txn, h.shard))
        .collect();
    if recovers {
        assert_eq!(
            m.total_undecided(),
            0,
            "{row}: a healed cluster must decide everything it accepted"
        );
        assert_eq!(unresolved, vec![], "{row}");
        println!(
            "{row}: {} committed, {rejected} rejected",
            m.total_committed()
        );
        assert!(rejected < 10, "{row}: too many rejected: {rejected}");
        assert!(m.total_committed() >= shape.min_committed, "{row}");
    } else {
        println!(
            "{row}: {} committed, {} undecided, {rejected} rejected",
            m.total_committed(),
            m.total_undecided()
        );
        assert!(
            unresolved.iter().all(|&(_, shard)| shard == ShardId(0)),
            "{row}: unresolved outside the crashed shard: {unresolved:?}"
        );
    }
}

#[test]
fn quorum_reads_resolve_against_committed_writes() {
    let mut cluster = SimCluster::new(ClusterConfig::default());
    let item = ItemId(0);
    let h = cluster.submit_at(Time(0), WriteSet::new([(item, 42)]));
    let d = cluster.await_decision(&h, Time(5_000));
    assert_eq!(d, Some(Decision::Commit));
    assert_eq!(cluster.status(&h), qbc_cluster::TxnStatus::Committed);
    // Let the remaining participants decide and release their locks: a
    // copy pinned by an undecided transaction is unreadable (the paper's
    // blocked-locks effect), so reading at the first decision instant
    // can legitimately return Unavailable.
    cluster.run_to_quiescence(1_000_000);
    let r = cluster.read_at(cluster.now(), item);
    // Poll within the collector's lifetime: resolved collectors retire
    // a couple of collection windows after their timeout, so running to
    // quiescence here would drain the retire timer and drop the entry.
    cluster.run_until(Time(r.submitted_at.0 + 35));
    match cluster.read_result(&r) {
        Some(ReadResult::Success { value, .. }) => assert_eq!(value, 42),
        other => panic!("read did not succeed: {other:?}"),
    }
}

#[test]
fn determinism_same_seed_same_metrics() {
    let run = || {
        let mut c = SimCluster::new(ClusterConfig {
            seed: 99,
            ..Default::default()
        });
        for k in 0..30u64 {
            let shard = ShardId((k % 2) as u32);
            let ws = writeset(&c, shard, k);
            c.submit_at(Time(k * 17), ws);
        }
        c.run_to_quiescence(10_000_000);
        let m = c.metrics();
        (
            m.total_committed(),
            m.total_aborted(),
            m.total_wal_forces(),
            m.mean_latency().to_bits(),
        )
    };
    assert_eq!(run(), run());
}
