//! A durable two-worker reactor cluster restarts over its own logs and
//! serves at once: the reopened front door admits nothing until every
//! site on every worker has replayed its log, and every acknowledged
//! write survives the restart.
//!
//! Wall-clock and CPU-heavy (twenty thousand writes), so it has a
//! binary of its own: a neighbour's 20 ms vote timers would expire
//! under it.

use qbc_cluster::{ClusterConfig, Outcome, ReactorCluster, ReactorConfig, ShardId, SimCluster};
use qbc_simnet::Duration;
use qbc_storage::TempDir;
use qbc_votes::ItemId;
use std::collections::BTreeMap;
use std::path::Path;

/// Two shards of three sites over file logs, group commit on. Sites go
/// round-robin over two workers: worker 0 hosts the front door and
/// sites 0, 2 and 4, worker 1 sites 1, 3 and 5.
fn config(dir: &Path, t_bound: u64) -> ClusterConfig {
    let mut cfg = ClusterConfig {
        t_bound: Duration(t_bound),
        seed: 5,
        items_per_shard: 64,
        ..Default::default()
    }
    .with_wal_dir(dir)
    .with_group_commit();
    cfg.wal_fsync = false;
    cfg.group_commit_window = Some(Duration(1));
    cfg
}

fn two_workers() -> ReactorConfig {
    ReactorConfig {
        workers: 2,
        ..Default::default()
    }
}

#[test]
fn a_two_worker_cluster_serves_only_after_every_site_has_recovered() {
    let dir = TempDir::new("reactor-restart");

    // Phase 1: single-item writes to shard 1 only (items 64..128), in
    // awaited waves of one write per item; a few may abort, and only
    // acknowledged commits are checked. Sites 3 and 5 of that shard
    // sit on worker 1, so worker 1 has two long logs to replay and
    // worker 0 one. Values grow with every write, so an item's newest
    // acknowledged value is its largest.
    let cluster = ReactorCluster::spawn(config(dir.path(), 50), two_workers());
    let items = cluster.map().items_of(ShardId(1));
    assert_eq!(items.len(), 64);
    let mut acked: BTreeMap<ItemId, i64> = BTreeMap::new();
    let mut writes = 0i64;
    while writes < 20_032 {
        let wave: Vec<_> = items
            .iter()
            .map(|&item| {
                writes += 1;
                (item, writes, cluster.submit(vec![(item, writes)]))
            })
            .collect();
        for (item, value, handle) in wave {
            match handle.wait() {
                Outcome::Committed { .. } => {
                    acked.insert(item, value);
                }
                Outcome::Aborted { .. } => {}
                other => panic!("write of {item:?} ended {other:?}"),
            }
        }
    }
    let report = cluster.shutdown();
    assert_eq!(report.atomicity_violations, vec![]);

    // Phase 2: reopen with a tight vote window and write to shard 0.
    // Were the front door admitting while worker 1 still replayed, a
    // VOTE-REQ to a site there would be answered after the window
    // closed, and the write would abort.
    let cluster = ReactorCluster::spawn(config(dir.path(), 5), two_workers());
    let first = cluster.submit(vec![(ItemId(0), 1)]).wait();
    assert!(
        matches!(first, Outcome::Committed { .. }),
        "the reopened cluster's first write ended {first:?}"
    );
    let report = cluster.shutdown();
    assert_eq!(report.atomicity_violations, vec![]);

    // Every acknowledged write survived: reopened once more on the
    // simulator, each item's newest copy holds its last acknowledged
    // value.
    let mut sim = SimCluster::new(config(dir.path(), 5));
    assert!(sim.run_to_quiescence(10_000_000).drained());
    assert_eq!(sim.atomicity_violations(), vec![]);
    let sites = sim.map().sites_of(ShardId(1));
    for (&item, &value) in &acked {
        let newest = sites
            .iter()
            .filter_map(|&s| sim.sim().node(s).item_value(item))
            .max();
        assert_eq!(
            newest.map(|(_, v)| v),
            Some(value),
            "{item:?} lost its last acknowledged write"
        );
    }
    assert_eq!(acked.len(), items.len());
}
