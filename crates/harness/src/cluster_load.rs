//! Cluster load generator: many concurrent client sessions driving a
//! [`SimCluster`] through its submit/await API, with periodic metric
//! sampling (supports experiment E13, the group-commit throughput
//! claim).

use qbc_cluster::{ClusterConfig, ClusterMetrics, SimCluster};
use qbc_core::WriteSet;
use qbc_simnet::{Duration, Time};
use qbc_votes::ItemId;
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Shape of a cluster load run.
#[derive(Clone, Debug)]
pub struct ClusterLoadConfig {
    /// The cluster under load.
    pub cluster: ClusterConfig,
    /// Concurrent client sessions.
    pub clients: u32,
    /// Transactions each client submits.
    pub txns_per_client: u32,
    /// Items written per transaction (within one shard, or split across
    /// two when the cross-shard coin lands).
    pub items_per_txn: u32,
    /// Fraction of transactions whose writeset spans *two* shards
    /// (routed through the cross-shard two-layer commit). Zero keeps
    /// the single-shard-only workload.
    pub xshard_fraction: f64,
    /// Fraction of submission slots that *also* fire a read of a random
    /// item alongside the write transaction. Reads go through the
    /// quorum path ([`SimCluster::read_at`]) unless the cluster has
    /// [`ClusterConfig::snapshot_reads`] on, in which case they use the
    /// watermark snapshot path. Zero keeps the write-only workload and
    /// leaves the RNG stream — and so every pre-existing seeded
    /// workload — bit-identical.
    pub read_fraction: f64,
    /// Ticks between one client's consecutive submissions.
    pub think_time: u64,
    /// RNG seed for writesets and shard choice.
    pub seed: u64,
}

impl Default for ClusterLoadConfig {
    fn default() -> Self {
        ClusterLoadConfig {
            cluster: ClusterConfig {
                // A wider item space than the cluster default: load runs
                // measure throughput, and 8 items per shard under no-wait
                // 2PL turns most of the stream into lock-conflict aborts.
                items_per_shard: 24,
                ..ClusterConfig::default()
            },
            clients: 8,
            txns_per_client: 4,
            items_per_txn: 2,
            xshard_fraction: 0.0,
            read_fraction: 0.0,
            think_time: 60,
            seed: 0,
        }
    }
}

/// Ticks one log force costs in experiment E13's cells.
pub const E13_FORCE_LATENCY: u64 = 6;

impl ClusterLoadConfig {
    /// One cell of experiment E13 (per-record forcing vs group commit):
    /// 4 shards x 3 sites, 48 items per shard, a log device whose force
    /// costs [`E13_FORCE_LATENCY`] ticks, 4 two-item transactions per
    /// client.
    pub fn e13(clients: u32, think_time: u64, group_commit: bool) -> Self {
        let mut cluster = ClusterConfig {
            shards: 4,
            sites_per_shard: 3,
            replication: 3,
            items_per_shard: 48,
            seed: 13,
            force_latency: Duration(E13_FORCE_LATENCY),
            ..Default::default()
        };
        if group_commit {
            cluster = cluster.with_group_commit();
        }
        ClusterLoadConfig {
            cluster,
            clients,
            txns_per_client: 4,
            items_per_txn: 2,
            think_time,
            seed: 13,
            ..Default::default()
        }
    }
}

/// Aggregated outcome of a load run.
#[derive(Clone, Debug)]
pub struct ClusterLoadReport {
    /// Final harvested metrics (peak queue depths sampled during the
    /// run).
    pub metrics: ClusterMetrics,
    /// Transactions submitted.
    pub submitted: u64,
    /// Of those, writesets spanning two shards.
    pub cross_shard: u64,
    /// Reads fired alongside the write stream (zero unless
    /// [`ClusterLoadConfig::read_fraction`] is set).
    pub reads_issued: u64,
    /// Of those, reads that resolved with a committed value.
    pub reads_success: u64,
    /// Of those, reads that resolved `Unavailable` (pinned copies under
    /// the quorum path, or no reachable copy under the snapshot path).
    pub reads_unavailable: u64,
    /// Transactions committed.
    pub committed: u64,
    /// Transactions aborted.
    pub aborted: u64,
    /// Transactions still undecided when the run settled.
    pub undecided: u64,
    /// No transaction terminated inconsistently and no engine recorded
    /// a violation.
    pub consistent: bool,
    /// Virtual time when the cluster settled.
    pub elapsed: Time,
    /// Committed transactions per 1 000 virtual ticks.
    pub committed_per_kilotick: f64,
    /// Total WAL forces paid.
    pub wal_forces: u64,
    /// Mean client-observed decision latency.
    pub mean_latency: f64,
    /// Median client-observed decision latency (bucket upper bound),
    /// over all shards merged.
    pub p50_latency: u64,
    /// 99th-percentile client-observed decision latency (bucket upper
    /// bound), over all shards merged.
    pub p99_latency: u64,
}

/// Runs the load: `clients` sessions submit on a staggered schedule,
/// the cluster runs to quiescence (bounded), and metrics are sampled
/// along the way so peak queue depths are meaningful.
pub fn run_cluster_load(cfg: &ClusterLoadConfig) -> ClusterLoadReport {
    let mut cluster = SimCluster::new(cfg.cluster.clone());
    let mut rng = SmallRng::seed_from_u64(cfg.seed.wrapping_add(0xE13));
    let shards: Vec<_> = (0..cluster.map().shards())
        .map(qbc_cluster::ShardId)
        .collect();

    let mut sessions: Vec<_> = (0..cfg.clients).map(|_| cluster.open_session()).collect();
    let mut last_submission = Time::ZERO;
    let mut cross_shard = 0u64;
    let mut pending_reads: Vec<qbc_cluster::ReadHandle> = Vec::new();
    for j in 0..cfg.txns_per_client {
        for (c, session) in sessions.iter_mut().enumerate() {
            // Stagger clients inside one think window so submissions
            // spread instead of arriving in lockstep.
            let jitter = (c as u64).wrapping_mul(7) % cfg.think_time.max(1);
            let at = Time(j as u64 * cfg.think_time + jitter);
            // Short-circuit before drawing: a zero fraction must leave
            // the RNG stream — and so every pre-existing seeded
            // workload — bit-identical.
            let go_wide = cfg.xshard_fraction > 0.0
                && shards.len() > 1
                && rng.gen_bool(cfg.xshard_fraction.clamp(0.0, 1.0));
            let mut items: Vec<ItemId>;
            if go_wide {
                // Split the writeset across two distinct shards.
                cross_shard += 1;
                let a = *shards.choose(&mut rng).expect("at least one shard");
                let b = loop {
                    let s = *shards.choose(&mut rng).expect("at least one shard");
                    if s != a {
                        break s;
                    }
                };
                // Preserve the configured writeset size: ceil(n/2) items
                // from the first shard, floor(n/2) from the second.
                let n = (cfg.items_per_txn as usize).max(2);
                items = Vec::new();
                for (shard, take) in [(a, n.div_ceil(2)), (b, n / 2)] {
                    let mut side = cluster.map().items_of(shard);
                    side.shuffle(&mut rng);
                    items.extend(side.into_iter().take(take));
                }
            } else {
                let shard = *shards.choose(&mut rng).expect("at least one shard");
                items = cluster.map().items_of(shard);
                items.shuffle(&mut rng);
                items.truncate((cfg.items_per_txn as usize).max(1));
            }
            let ws = WriteSet::new(
                items
                    .into_iter()
                    .map(|i: ItemId| (i, rng.gen_range(0..1_000_000i64))),
            );
            cluster.submit(session, at, ws);
            // Same short-circuit discipline as `go_wide`: a zero read
            // fraction must not draw from the RNG at all.
            if cfg.read_fraction > 0.0 && rng.gen_bool(cfg.read_fraction.clamp(0.0, 1.0)) {
                let shard = *shards.choose(&mut rng).expect("at least one shard");
                let item = *cluster
                    .map()
                    .items_of(shard)
                    .choose(&mut rng)
                    .expect("shards are non-empty");
                let h = if cfg.cluster.snapshot_reads {
                    cluster.snapshot_read_at(at, item)
                } else {
                    cluster.read_at(at, item)
                };
                pending_reads.push(h);
            }
            if at > last_submission {
                last_submission = at;
            }
        }
    }

    // Drive in slices, harvesting between them so peak queue depth and
    // device backlog are observed live rather than only at the end.
    // With reads in flight the slices shrink and extend past the last
    // submission: read collectors retire a couple of collection windows
    // after resolving (the read tables are bounded), so results must be
    // polled while the entries are still present.
    let reads_issued = pending_reads.len() as u64;
    let mut reads_success = 0u64;
    let mut reads_unavailable = 0u64;
    let snap = cfg.cluster.snapshot_reads;
    let (slice, drive_end) = if pending_reads.is_empty() {
        ((cfg.think_time.max(1)) * 4, last_submission)
    } else {
        (25, Time(last_submission.0 + 200))
    };
    let mut t = Time::ZERO;
    while t < drive_end {
        t = Time(t.0 + slice);
        cluster.run_until(t);
        let _ = cluster.metrics();
        pending_reads.retain(|h| {
            let r = if snap {
                cluster.snap_read_result(h)
            } else {
                cluster.read_result(h)
            };
            match r {
                Some(qbc_db::ReadResult::Success { .. }) => {
                    reads_success += 1;
                    false
                }
                Some(qbc_db::ReadResult::Unavailable) => {
                    reads_unavailable += 1;
                    false
                }
                // Still collecting (or already retired unobserved:
                // counted in neither bucket).
                _ => true,
            }
        });
    }
    let mut settled = false;
    for _ in 0..200 {
        let q = cluster.run_to_quiescence(5_000_000);
        let _ = cluster.metrics();
        if q.drained() {
            settled = true;
            break;
        }
    }
    let _ = settled; // undecided count reports any residue

    let (metrics, violations) = cluster.metrics_and_violations();
    let merged_latency = metrics.merged_latency();
    let consistent = violations.is_empty() && cluster.engine_violations().is_empty();
    let submitted: u64 = metrics.shards.iter().map(|s| s.submitted).sum();
    let committed = metrics.total_committed();
    let aborted = metrics.total_aborted();
    let undecided = metrics.total_undecided();
    let elapsed = cluster.now();
    ClusterLoadReport {
        submitted,
        cross_shard,
        reads_issued,
        reads_success,
        reads_unavailable,
        committed,
        aborted,
        undecided,
        consistent,
        elapsed,
        committed_per_kilotick: if elapsed.0 > 0 {
            committed as f64 * 1_000.0 / elapsed.0 as f64
        } else {
            0.0
        },
        wal_forces: metrics.total_wal_forces(),
        mean_latency: metrics.mean_latency(),
        p50_latency: merged_latency.p50().0,
        p99_latency: merged_latency.p99().0,
        metrics,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn light_load_commits_nearly_everything() {
        let cfg = ClusterLoadConfig::default();
        let r = run_cluster_load(&cfg);
        assert!(r.consistent);
        assert_eq!(r.undecided, 0);
        assert_eq!(r.submitted, 32);
        assert!(
            r.committed >= r.submitted * 7 / 10,
            "committed {}/{}",
            r.committed,
            r.submitted
        );
        assert!(r.wal_forces > 0);
        // Quantiles of the merged latency distribution are populated
        // and ordered.
        assert!(r.p50_latency > 0);
        assert!(r.p50_latency <= r.p99_latency);
    }

    #[test]
    fn mixed_cross_shard_load_commits_and_stays_consistent() {
        let cfg = ClusterLoadConfig {
            xshard_fraction: 0.4,
            clients: 8,
            txns_per_client: 5,
            seed: 5,
            ..Default::default()
        };
        let r = run_cluster_load(&cfg);
        assert!(r.consistent);
        assert_eq!(r.undecided, 0);
        assert_eq!(r.submitted, 40);
        assert!(
            r.cross_shard >= 8,
            "expected a real cross-shard share, got {}",
            r.cross_shard
        );
        assert!(
            r.committed >= r.submitted * 6 / 10,
            "committed {}/{} (cross-shard {})",
            r.committed,
            r.submitted,
            r.cross_shard
        );
    }

    #[test]
    fn read_heavy_snapshot_load_observes_every_read() {
        // Snapshot reads under a concurrent write stream: every issued
        // read resolves while its collector is still alive, and the
        // watermark path never reports Unavailable while all sites are
        // up (copies pinned by in-flight commits are read *under* the
        // pins).
        let cfg = ClusterLoadConfig {
            read_fraction: 0.5,
            seed: 21,
            cluster: ClusterConfig::default().with_snapshot_reads(4),
            ..Default::default()
        };
        let r = run_cluster_load(&cfg);
        assert!(r.consistent);
        assert!(r.reads_issued > 0, "the read coin never landed");
        assert_eq!(
            r.reads_success + r.reads_unavailable,
            r.reads_issued,
            "every read must be observed before its collector retires"
        );
        assert_eq!(
            r.reads_unavailable, 0,
            "snapshot reads must not be blocked by pinned copies"
        );
    }

    #[test]
    fn read_heavy_quorum_load_observes_every_read() {
        // Same workload over the quorum read path: everything still
        // resolves in-window; availability is not asserted (pinned
        // copies can legitimately return Unavailable here).
        let cfg = ClusterLoadConfig {
            read_fraction: 0.5,
            seed: 21,
            ..Default::default()
        };
        let r = run_cluster_load(&cfg);
        assert!(r.consistent);
        assert!(r.reads_issued > 0);
        assert_eq!(r.reads_success + r.reads_unavailable, r.reads_issued);
    }

    /// E13's acceptance bar. At 64 clients the serial log device
    /// saturates under per-record forcing while group commit amortizes
    /// one force over many records.
    #[test]
    fn group_commit_doubles_committed_throughput_at_64_clients() {
        let plain = run_cluster_load(&ClusterLoadConfig::e13(64, 60, false));
        let batched = run_cluster_load(&ClusterLoadConfig::e13(64, 60, true));
        assert!(plain.consistent && batched.consistent);
        assert!(
            batched.committed_per_kilotick >= 2.0 * plain.committed_per_kilotick,
            "group commit {:.2} vs per-record {:.2} committed per kilotick",
            batched.committed_per_kilotick,
            plain.committed_per_kilotick
        );
    }

    #[test]
    fn group_commit_load_is_consistent_and_cheaper_in_forces() {
        let base = ClusterLoadConfig {
            clients: 16,
            txns_per_client: 3,
            seed: 2,
            ..Default::default()
        };
        let plain = run_cluster_load(&base);
        let batched = run_cluster_load(&ClusterLoadConfig {
            cluster: ClusterConfig {
                force_latency: Duration(3),
                ..base.cluster.clone()
            }
            .with_group_commit(),
            ..base
        });
        assert!(plain.consistent && batched.consistent);
        assert!(
            batched.wal_forces < plain.wal_forces,
            "batched {} vs plain {}",
            batched.wal_forces,
            plain.wal_forces
        );
    }
}
