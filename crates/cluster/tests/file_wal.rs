//! File-backed WAL acceptance tests (ISSUE 4):
//!
//! 1. **Backend equivalence** — the same schedule (same seed, same
//!    submissions, same crash/recover points) reaches the same
//!    decisions and the same committed item state on the in-memory
//!    model and on real segment files.
//! 2. **Crash/restart replay** — a cluster is torn down entirely and
//!    rebuilt over the same log directories; recovery (checkpoint
//!    snapshot + suffix replay) reproduces every decision and every
//!    committed value.
//! 3. **Bounded storage** — under sustained load with checkpointing,
//!    on-disk bytes stay bounded while an untruncated control grows
//!    monotonically.
//!
//! Logical crashes only (processes, never the machine), so fsync is
//! off for speed; qbench's `storage.fsync_us_p50` row measures the real
//! device.

use qbc_cluster::{ClusterConfig, ShardId, SimCluster};
use qbc_core::{Decision, WriteSet};
use qbc_simnet::{Duration, SiteId, Time};
use qbc_storage::TempDir;
use qbc_votes::{ItemId, Version};
use std::path::Path;

/// A small sharded cluster tuned so retirement and checkpointing both
/// fire many times within a short run.
fn base_config(seed: u64) -> ClusterConfig {
    ClusterConfig {
        shards: 2,
        sites_per_shard: 3,
        replication: 3,
        items_per_shard: 8,
        seed,
        t_bound: Duration(10),
        ..ClusterConfig::default()
    }
    .with_group_commit()
    .with_retirement(Duration(200))
    .with_checkpoints(Duration(300))
}

fn file_config(seed: u64, dir: &Path) -> ClusterConfig {
    let mut cfg = base_config(seed).with_wal_dir(dir);
    cfg.wal_segment_bytes = 2048;
    cfg.wal_fsync = false;
    cfg
}

/// Deterministic single-shard writesets (the schedule every variant of
/// these tests replays identically).
fn writeset(cluster: &SimCluster, shard: ShardId, k: u64) -> WriteSet {
    let items = cluster.map().items_of(shard);
    let a = items[(k as usize) % items.len()];
    let b = items[(k as usize + 3) % items.len()];
    WriteSet::new([(a, 1000 + k as i64), (b, 2000 + k as i64)])
}

/// Submits `n` transactions round-robin across shards, with a crash and
/// recovery of one site per shard mid-stream.
fn drive(cluster: &mut SimCluster, n: u64) -> Vec<qbc_cluster::TxnHandle> {
    let shards = cluster.map().shards();
    let mut handles = Vec::new();
    for k in 0..n {
        let shard = ShardId((k % shards as u64) as u32);
        let ws = writeset(cluster, shard, k);
        handles.push(cluster.submit_at(Time(10 + k * 25), ws));
    }
    // One participant down and back up mid-stream per shard: recovery
    // replays the log while the load is still running.
    cluster.sim_mut().schedule_crash(Time(400), SiteId(1));
    cluster.sim_mut().schedule_recover(Time(900), SiteId(1));
    cluster.sim_mut().schedule_crash(Time(700), SiteId(4));
    cluster.sim_mut().schedule_recover(Time(1300), SiteId(4));
    let q = cluster.run_to_quiescence(20_000_000);
    assert!(q.drained(), "cluster must quiesce, got {q:?}");
    handles
}

/// `(site, item) -> (version, value)` across the whole cluster.
fn committed_state(cluster: &SimCluster) -> Vec<(SiteId, ItemId, u64, i64)> {
    let mut out = Vec::new();
    for shard in 0..cluster.map().shards() {
        for site in cluster.map().sites_of(ShardId(shard)) {
            let node = cluster.sim().node(site);
            for item in cluster.map().items_of(ShardId(shard)) {
                if let Some((v, val)) = node.item_value(item) {
                    out.push((site, item, v.0, val));
                }
            }
        }
    }
    out
}

#[test]
fn file_backend_reaches_the_same_state_as_memory_on_the_same_schedule() {
    let dir = TempDir::new("cluster-equiv");
    let mut mem = SimCluster::new(base_config(42));
    let mut file = SimCluster::new(file_config(42, dir.path()));

    let mem_handles = drive(&mut mem, 80);
    let file_handles = drive(&mut file, 80);

    assert_eq!(mem.atomicity_violations(), vec![]);
    assert_eq!(file.atomicity_violations(), vec![]);

    let mem_decisions: Vec<Option<Decision>> =
        mem_handles.iter().map(|h| mem.decision(h)).collect();
    let file_decisions: Vec<Option<Decision>> =
        file_handles.iter().map(|h| file.decision(h)).collect();
    assert_eq!(mem_decisions, file_decisions, "decision schedules diverge");
    assert!(
        mem_decisions.iter().filter(|d| d.is_some()).count() >= 70,
        "schedule should mostly resolve"
    );

    assert_eq!(
        committed_state(&mem),
        committed_state(&file),
        "committed item state diverges between backends"
    );

    // The file cluster really ran on files, and checkpoints really
    // truncated prefixes on both backends.
    let file_sites: Vec<SiteId> = (0..file.config().total_sites()).map(SiteId).collect();
    assert!(
        file_sites
            .iter()
            .all(|&s| file.sim().node(s).wal_storage_bytes() > 0),
        "every site should have on-disk segments"
    );
    assert!(
        file_sites
            .iter()
            .any(|&s| file.sim().node(s).wal_start_lsn().0 > 0),
        "checkpointing should have truncated some prefix"
    );
}

#[test]
fn full_restart_replays_checkpoint_plus_suffix_to_the_same_state() {
    let dir = TempDir::new("cluster-restart");
    let (handles, decisions, state) = {
        let mut cluster = SimCluster::new(file_config(7, dir.path()));
        let handles = drive(&mut cluster, 80);
        assert_eq!(cluster.atomicity_violations(), vec![]);
        let decisions: Vec<Option<Decision>> =
            handles.iter().map(|h| cluster.decision(h)).collect();
        assert!(
            decisions.iter().filter(|d| d.is_some()).count() >= 70,
            "first run should mostly resolve"
        );
        // Truncation must have happened, or the restart below would be
        // a plain full replay instead of checkpoint + suffix.
        let truncated = (0..cluster.config().total_sites())
            .map(SiteId)
            .any(|s| cluster.sim().node(s).wal_start_lsn().0 > 0);
        assert!(truncated, "no site ever truncated its log");
        (handles, decisions, committed_state(&cluster))
        // Cluster dropped here: the only durable remnant is the files.
    };

    // A brand-new cluster over the same directories: every node reopens
    // its segments and recovers on startup (`on_start` detects the
    // non-empty log) — no manual crash/recover scheduling, exactly the
    // restart path a real deployment takes.
    let mut restarted = SimCluster::new(file_config(7, dir.path()));
    let q = restarted.run_to_quiescence(20_000_000);
    assert!(q.drained(), "recovery must quiesce, got {q:?}");

    for (h, before) in handles.iter().zip(&decisions) {
        if before.is_some() {
            assert_eq!(
                restarted.decision(h),
                *before,
                "decision for {:?} changed across restart",
                h.txn
            );
        }
    }
    assert_eq!(
        committed_state(&restarted),
        state,
        "committed item state changed across restart"
    );
}

/// `(site, item) -> every retained (version, value)` across the cluster.
type RetainedChains = Vec<(SiteId, ItemId, Vec<(Version, i64)>)>;

/// Every site's whole retained version chain of every item it holds.
fn retained_chains(cluster: &SimCluster) -> RetainedChains {
    let mut out = Vec::new();
    for shard in 0..cluster.map().shards() {
        for site in cluster.map().sites_of(ShardId(shard)) {
            let node = cluster.sim().node(site);
            for item in cluster.map().items_of(ShardId(shard)) {
                out.push((site, item, node.item_versions(item)));
            }
        }
    }
    out
}

#[test]
fn full_restart_preserves_multi_version_chains() {
    // The restart above at retention 4: checkpoints carry multi-version
    // chains through the segment files, and recovery must rebuild every
    // retained version, not just the newest.
    let dir = TempDir::new("cluster-restart-chains");
    let config = || file_config(7, dir.path()).with_snapshot_reads(4);
    let chains = {
        let mut cluster = SimCluster::new(config());
        drive(&mut cluster, 80);
        assert_eq!(cluster.atomicity_violations(), vec![]);
        let truncated = (0..cluster.config().total_sites())
            .map(SiteId)
            .any(|s| cluster.sim().node(s).wal_start_lsn().0 > 0);
        assert!(truncated, "no site ever truncated its log");
        let chains = retained_chains(&cluster);
        assert!(
            chains.iter().any(|(_, _, chain)| chain.len() > 1),
            "no site retained an older version"
        );
        chains
    };

    let mut restarted = SimCluster::new(config());
    let q = restarted.run_to_quiescence(20_000_000);
    assert!(q.drained(), "recovery must quiesce, got {q:?}");
    assert_eq!(
        retained_chains(&restarted),
        chains,
        "retained version chains changed across restart"
    );
}

#[test]
fn checkpoints_bound_disk_bytes_while_a_control_grows() {
    let truncated_dir = TempDir::new("cluster-bounded");
    let control_dir = TempDir::new("cluster-control");
    let mut truncated = SimCluster::new(file_config(11, truncated_dir.path()));
    let mut control = {
        let mut cfg = file_config(11, control_dir.path());
        cfg.checkpoint_interval = None; // retirement on, truncation off
        SimCluster::new(cfg)
    };

    let mut truncated_bytes = Vec::new();
    let mut control_bytes = Vec::new();
    let total_bytes = |c: &SimCluster| -> u64 {
        (0..c.config().total_sites())
            .map(|s| c.sim().node(SiteId(s)).wal_storage_bytes())
            .sum()
    };
    // Sustained load in waves; sample the footprint after each.
    let mut k = 0u64;
    for _wave in 0..4 {
        for cluster in [&mut truncated, &mut control] {
            let shards = cluster.map().shards();
            let start = cluster.now().0.max(1);
            for i in 0..60u64 {
                let shard = ShardId(((k + i) % shards as u64) as u32);
                let ws = writeset(cluster, shard, k + i);
                cluster.submit_at(Time(start + i * 25), ws);
            }
            let q = cluster.run_to_quiescence(50_000_000);
            assert!(q.drained());
        }
        k += 60;
        truncated_bytes.push(total_bytes(&truncated));
        control_bytes.push(total_bytes(&control));
    }

    assert_eq!(truncated.atomicity_violations(), vec![]);
    assert_eq!(control.atomicity_violations(), vec![]);

    // The control only ever grows...
    for w in 1..control_bytes.len() {
        assert!(
            control_bytes[w] > control_bytes[w - 1],
            "control stopped growing: {control_bytes:?}"
        );
    }
    // ...while checkpoint truncation holds the footprint well below it.
    let t_final = *truncated_bytes.last().unwrap();
    let c_final = *control_bytes.last().unwrap();
    assert!(
        t_final * 2 < c_final,
        "truncated {t_final} bytes not well below control {c_final}"
    );
    // And every site actually gave bytes back at some point.
    for s in 0..truncated.config().total_sites() {
        assert!(
            truncated.sim().node(SiteId(s)).wal_start_lsn().0 > 0,
            "site {s} never truncated"
        );
    }
}

#[test]
fn restarted_cluster_resumes_txn_ids_past_the_durable_maximum() {
    let dir = TempDir::new("cluster-txn-ids");
    let committed_max = {
        let mut cluster = SimCluster::new(file_config(3, dir.path()));
        let handles = drive(&mut cluster, 40);
        assert_eq!(cluster.atomicity_violations(), vec![]);
        // Committed transactions certainly left durable traces; an
        // aborted tail may be presumed-abort (no record anywhere), so
        // its ids are legitimately reusable.
        handles
            .iter()
            .filter(|h| cluster.decision(h) == Some(Decision::Commit))
            .map(|h| h.txn.0)
            .max()
            .unwrap()
        // Cluster dropped; only the log files remain.
    };
    assert!(
        committed_max >= 30,
        "schedule should mostly commit, got {committed_max}"
    );

    // A fresh cluster over the same directories must not hand out ids
    // with a durable trace from the previous incarnation — a durable
    // record of txn k plus a brand-new txn k would corrupt recovery and
    // the audit.
    let mut restarted = SimCluster::new(file_config(3, dir.path()));
    let q = restarted.run_to_quiescence(20_000_000);
    assert!(q.drained(), "recovery must quiesce, got {q:?}");
    let start = restarted.now().0 + 10;
    let ws = writeset(&restarted, ShardId(0), 99);
    let h = restarted.submit_at(Time(start), ws);
    assert!(
        h.txn.0 > committed_max,
        "restart reused txn id {} (durable committed max {committed_max})",
        h.txn.0
    );
    let q = restarted.run_to_quiescence(20_000_000);
    assert!(q.drained());
    assert_eq!(restarted.decision(&h), Some(Decision::Commit));
    assert_eq!(restarted.atomicity_violations(), vec![]);

    // An untouched directory still numbers from 1.
    let fresh_dir = TempDir::new("cluster-txn-ids-fresh");
    let mut fresh = SimCluster::new(file_config(3, fresh_dir.path()));
    let ws = writeset(&fresh, ShardId(0), 0);
    assert_eq!(fresh.submit_at(Time(10), ws).txn.0, 1);
}
