//! Cluster-wide configuration.

use qbc_core::ProtocolKind;
use qbc_obs::ObsConfig;
use qbc_simnet::Duration;
use std::path::PathBuf;

/// Shape and tuning of a sharded cluster.
#[derive(Clone, Debug)]
pub struct ClusterConfig {
    /// Number of shards. Each shard is an independent replica group
    /// running its own commit protocol instances.
    pub shards: u32,
    /// Sites per shard. Site ids are allocated contiguously:
    /// shard `k` owns sites `k*sites_per_shard .. (k+1)*sites_per_shard`.
    pub sites_per_shard: u32,
    /// Copies per item (placed round-robin within the shard's sites);
    /// must not exceed `sites_per_shard`.
    pub replication: u32,
    /// Items per shard. Global ids are contiguous per shard: shard `k`
    /// owns items `k*items_per_shard .. (k+1)*items_per_shard`.
    pub items_per_shard: u32,
    /// Read quorum per item (votes; copies carry one vote each).
    pub read_quorum: u32,
    /// Write quorum per item.
    pub write_quorum: u32,
    /// Commit protocol every transaction runs.
    pub protocol: ProtocolKind,
    /// Longest end-to-end network delay `T`; protocol timeouts derive
    /// from it.
    pub t_bound: Duration,
    /// RNG seed of the deterministic substrate.
    pub seed: u64,
    /// Enable group-commit batching at every site
    /// (see [`qbc_db::NodeConfig::group_commit`]).
    pub group_commit: bool,
    /// Batch window; `None` keeps the per-node default (`T/2`).
    pub group_commit_window: Option<Duration>,
    /// Force a batch early at this many staged records.
    pub group_commit_max_batch: usize,
    /// Simulated latency of one WAL force (serial log device).
    pub force_latency: Duration,
    /// Retire decided per-transaction state at every site this long
    /// after the decision (see [`qbc_db::NodeConfig::retire_after`]).
    /// `None` (the default) keeps every entry forever.
    pub retire_after: Option<Duration>,
    /// Age retired outcome records out of the compact maps entirely
    /// this long after retirement (see
    /// [`qbc_db::NodeConfig::retire_horizon`]), so checkpoints are
    /// O(live + horizon) rather than O(history). Pick a horizon several
    /// times the widest straggler/retry window. `None` (the default)
    /// keeps retired outcomes forever.
    pub retire_horizon: Option<Duration>,
    /// Root directory for file-backed WALs: site `k` logs to
    /// `<wal_dir>/site-<k>`. `None` (the default) keeps the
    /// deterministic in-memory backend at every site. Reopening an
    /// existing root recovers the existing logs: each node replays its
    /// retained records on startup, before serving anything (the
    /// crash/restart tests rebuild whole clusters this way). The
    /// front-end's transaction-id counter is primed past the largest id
    /// with any durable trace across the reopened logs, so a restarted
    /// cluster can take new submissions without colliding with its
    /// previous incarnation's ids.
    pub wal_dir: Option<PathBuf>,
    /// Segment roll threshold for file-backed WALs, in bytes.
    pub wal_segment_bytes: u64,
    /// `fsync` every file-WAL force (see
    /// [`qbc_db::WalBackendConfig::File`]). Benchmarks measuring the
    /// real device keep this on; logical crash/restart tests turn it
    /// off for speed.
    pub wal_fsync: bool,
    /// Per-site checkpoint + log-truncation period (see
    /// [`qbc_db::NodeConfig::checkpoint_interval`]); pair with
    /// [`ClusterConfig::retire_after`], since live transactions pin
    /// the log. `None` (the default) never truncates.
    pub checkpoint_interval: Option<Duration>,
    /// Per-site byte-threshold checkpoint trigger (see
    /// [`qbc_db::NodeConfig::checkpoint_bytes`]): checkpoint when this
    /// many encoded log bytes accumulate since the last one, so a site
    /// with a skewed write rate truncates by growth, not just by clock.
    /// `None` (the default) leaves the timer as the only trigger.
    pub checkpoint_bytes: Option<u64>,
    /// Enable MVCC snapshot reads at every site: multi-version item
    /// stores, commit-stable watermark exchange piggybacked on protocol
    /// messages, and the [`crate::SimCluster::snapshot_read_at`] path
    /// that never blocks on pinned copies. Off by default (and the
    /// golden digests require it off: the piggyback changes the wire).
    pub snapshot_reads: bool,
    /// Versions retained per item when `snapshot_reads` is on (≥ 1;
    /// ignored otherwise — single-version stores keep exactly 1).
    pub version_retention: usize,
    /// Observability layer (protocol tracing, metrics registry, flight
    /// recorder). Disabled by default: no observer is constructed at
    /// all, so the simulator hot path — and the golden digests — are
    /// byte-identical to the uninstrumented build.
    pub obs: ObsConfig,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            shards: 2,
            sites_per_shard: 3,
            replication: 3,
            items_per_shard: 8,
            read_quorum: 2,
            write_quorum: 2,
            protocol: ProtocolKind::QuorumCommit2,
            t_bound: Duration(10),
            seed: 0,
            group_commit: false,
            group_commit_window: None,
            group_commit_max_batch: 64,
            force_latency: Duration::ZERO,
            retire_after: None,
            retire_horizon: None,
            wal_dir: None,
            wal_segment_bytes: 4 << 20,
            wal_fsync: true,
            checkpoint_interval: None,
            checkpoint_bytes: None,
            snapshot_reads: false,
            version_retention: 1,
            obs: ObsConfig::default(),
        }
    }
}

impl ClusterConfig {
    /// Total number of sites across all shards.
    pub fn total_sites(&self) -> u32 {
        self.shards * self.sites_per_shard
    }

    /// Total number of items across all shards.
    pub fn total_items(&self) -> u32 {
        self.shards * self.items_per_shard
    }

    /// Enables group commit (builder style).
    pub fn with_group_commit(mut self) -> Self {
        self.group_commit = true;
        self
    }

    /// Enables the observability layer (builder style).
    pub fn with_obs(mut self, obs: ObsConfig) -> Self {
        self.obs = obs;
        self
    }

    /// Sets the simulated WAL force latency (builder style).
    pub fn with_force_latency(mut self, latency: Duration) -> Self {
        self.force_latency = latency;
        self
    }

    /// Sets the decided-state retention window (builder style).
    pub fn with_retirement(mut self, after: Duration) -> Self {
        self.retire_after = Some(after);
        self
    }

    /// Sets the retired-outcome aging horizon (builder style; see
    /// [`ClusterConfig::retire_horizon`]).
    pub fn with_retire_horizon(mut self, horizon: Duration) -> Self {
        self.retire_horizon = Some(horizon);
        self
    }

    /// Runs every site on a file-backed WAL under `root` (builder
    /// style).
    pub fn with_wal_dir(mut self, root: impl Into<PathBuf>) -> Self {
        self.wal_dir = Some(root.into());
        self
    }

    /// Enables periodic checkpointing + log truncation at every site
    /// (builder style).
    pub fn with_checkpoints(mut self, interval: Duration) -> Self {
        self.checkpoint_interval = Some(interval);
        self
    }

    /// Adds the byte-threshold checkpoint trigger (builder style).
    pub fn with_checkpoint_bytes(mut self, bytes: u64) -> Self {
        self.checkpoint_bytes = Some(bytes);
        self
    }

    /// Enables MVCC snapshot reads with the given per-item version
    /// retention (builder style; retention is clamped to ≥ 1).
    pub fn with_snapshot_reads(mut self, retention: usize) -> Self {
        self.snapshot_reads = true;
        self.version_retention = retention.max(1);
        self
    }

    /// Panics unless the shape is internally consistent (quorums valid,
    /// replication feasible).
    pub fn validate(&self) {
        assert!(self.shards > 0, "need at least one shard");
        assert!(self.sites_per_shard > 0, "need at least one site per shard");
        assert!(self.items_per_shard > 0, "need at least one item per shard");
        assert!(
            self.replication > 0 && self.replication <= self.sites_per_shard,
            "replication must be in 1..=sites_per_shard"
        );
        let total = self.replication;
        assert!(
            self.read_quorum >= 1 && self.read_quorum <= total,
            "r must be in 1..=total votes"
        );
        assert!(self.write_quorum <= total, "w must not exceed total votes");
        assert!(
            self.read_quorum + self.write_quorum > total,
            "r + w must exceed total votes (Gifford)"
        );
        assert!(
            2 * self.write_quorum > total,
            "w must exceed half the total votes (Gifford)"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_valid() {
        let cfg = ClusterConfig::default();
        cfg.validate();
        assert_eq!(cfg.total_sites(), 6);
        assert_eq!(cfg.total_items(), 16);
    }

    #[test]
    #[should_panic(expected = "r + w")]
    fn bad_quorums_are_rejected() {
        ClusterConfig {
            read_quorum: 1,
            write_quorum: 1,
            ..Default::default()
        }
        .validate();
    }

    #[test]
    #[should_panic(expected = "r must be in")]
    fn oversized_read_quorum_is_rejected() {
        ClusterConfig {
            read_quorum: 4,
            write_quorum: 2,
            replication: 3,
            ..Default::default()
        }
        .validate();
    }
}
