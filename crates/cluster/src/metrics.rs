//! Live cluster metrics: counters, latency histograms, consistency
//! verdicts.

use crate::shard::ShardId;
use qbc_core::TxnId;
use qbc_obs::Registry;
use qbc_simnet::{Duration, SiteId};
use std::fmt;

// The histogram moved to `qbc-obs` (where every metrics consumer can
// reach it without depending on the cluster runtime); re-exported here
// so existing `qbc_cluster::LatencyHistogram` users are unaffected.
pub use qbc_obs::LatencyHistogram;

/// Counters and distributions for one shard.
#[derive(Clone, Debug, Default)]
pub struct ShardMetrics {
    /// Transactions submitted to this shard.
    pub submitted: u64,
    /// Transactions committed (some participant decided commit).
    pub committed: u64,
    /// Transactions aborted everywhere they decided.
    pub aborted: u64,
    /// Transactions with no decision yet anywhere.
    pub undecided: u64,
    /// Transactions whose submission never reached a live coordinator
    /// (the site was down at the submission instant): no live site
    /// knows them at harvest time — the cluster-level equivalent of a
    /// client connection error. Observational: a harvest taken while
    /// the coordinator is down (or a spec-carrying message is in
    /// flight) can count here a transaction that recovery later
    /// revives; re-harvest after the cluster settles for final counts.
    pub rejected: u64,
    /// Transactions currently declared blocked at some site.
    pub blocked: u64,
    /// Client-observed decision latency of decided transactions.
    pub latency: LatencyHistogram,
    /// WAL forces paid across the shard's sites.
    pub wal_forces: u64,
    /// Durable WAL records across the shard's sites.
    pub wal_records: u64,
    /// In-flight (undecided) transactions at harvest time.
    pub queue_depth: u64,
    /// Largest queue depth seen across harvests of one registry. Only
    /// [`crate::SimCluster::metrics`] harvests repeatedly and tracks a
    /// running maximum; a single-harvest registry (the reactor
    /// shutdown report) carries its final `queue_depth` here.
    pub peak_queue_depth: u64,
    /// Largest log-device backlog across the shard's sites at harvest.
    pub wal_backlog: Duration,
}

impl ShardMetrics {
    /// Durable WAL records per force: the group-commit batching factor
    /// (1.0 means every record paid its own force).
    pub fn records_per_force(&self) -> f64 {
        if self.wal_forces == 0 {
            0.0
        } else {
            self.wal_records as f64 / self.wal_forces as f64
        }
    }
}

/// A transaction that terminated inconsistently: the one outcome the
/// protocols must never allow (the paper's Theorem 1 at cluster scope).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AtomicityViolation {
    /// The transaction.
    pub txn: TxnId,
    /// Sites that decided commit.
    pub committed_at: Vec<SiteId>,
    /// Sites that decided abort.
    pub aborted_at: Vec<SiteId>,
}

/// Cluster-wide registry: one [`ShardMetrics`] per shard.
#[derive(Clone, Debug, Default)]
pub struct ClusterMetrics {
    /// Indexed by shard id.
    pub shards: Vec<ShardMetrics>,
}

impl ClusterMetrics {
    /// Metrics of one shard.
    pub fn shard(&self, s: ShardId) -> &ShardMetrics {
        &self.shards[s.0 as usize]
    }

    /// Sum of committed transactions across shards.
    pub fn total_committed(&self) -> u64 {
        self.shards.iter().map(|s| s.committed).sum()
    }

    /// Sum of aborted transactions across shards.
    pub fn total_aborted(&self) -> u64 {
        self.shards.iter().map(|s| s.aborted).sum()
    }

    /// Sum of undecided transactions across shards.
    pub fn total_undecided(&self) -> u64 {
        self.shards.iter().map(|s| s.undecided).sum()
    }

    /// Sum of WAL forces across shards.
    pub fn total_wal_forces(&self) -> u64 {
        self.shards.iter().map(|s| s.wal_forces).sum()
    }

    /// Mean decision latency over all decided transactions.
    pub fn mean_latency(&self) -> f64 {
        let count: u64 = self.shards.iter().map(|s| s.latency.count()).sum();
        if count == 0 {
            return 0.0;
        }
        let weighted: f64 = self
            .shards
            .iter()
            .map(|s| s.latency.mean() * s.latency.count() as f64)
            .sum();
        weighted / count as f64
    }

    /// Latency distribution merged over every shard (client-observed
    /// decision latency, for cluster-level quantiles).
    pub fn merged_latency(&self) -> LatencyHistogram {
        let mut all = LatencyHistogram::new();
        for s in &self.shards {
            all.merge(&s.latency);
        }
        all
    }

    /// Appends every per-shard metric to `r`, labeled `shard="<k>"`.
    /// Combined with [`qbc_obs::Obs::fill_registry`] this is the full
    /// exporter surface: the Prometheus text report of the reactor
    /// cluster and the JSON snapshot of the simulated one both render
    /// the registry this fills.
    pub fn fill_registry(&self, r: &mut Registry) {
        for (i, s) in self.shards.iter().enumerate() {
            let l = &[("shard", i.to_string())];
            r.counter(
                "qbc_shard_submitted_total",
                l,
                "transactions submitted to the shard",
                s.submitted,
            );
            r.counter(
                "qbc_shard_committed_total",
                l,
                "transactions committed",
                s.committed,
            );
            r.counter(
                "qbc_shard_aborted_total",
                l,
                "transactions aborted",
                s.aborted,
            );
            r.counter(
                "qbc_shard_rejected_total",
                l,
                "submissions lost to a down coordinator",
                s.rejected,
            );
            r.gauge(
                "qbc_shard_undecided",
                l,
                "transactions with no decision anywhere (at harvest)",
                s.undecided as f64,
            );
            r.gauge(
                "qbc_shard_blocked",
                l,
                "transactions currently declared blocked",
                s.blocked as f64,
            );
            r.counter(
                "qbc_shard_wal_forces_total",
                l,
                "WAL forces paid across the shard's sites",
                s.wal_forces,
            );
            r.counter(
                "qbc_shard_wal_records_total",
                l,
                "records ever made durable across the shard's sites",
                s.wal_records,
            );
            r.gauge(
                "qbc_shard_queue_depth",
                l,
                "in-flight transactions at harvest",
                s.queue_depth as f64,
            );
            r.gauge(
                "qbc_shard_peak_queue_depth",
                l,
                "largest queue depth seen across harvests",
                s.peak_queue_depth as f64,
            );
            r.gauge(
                "qbc_shard_wal_backlog_ticks",
                l,
                "largest log-device backlog across sites at harvest",
                s.wal_backlog.0 as f64,
            );
            r.histogram(
                "qbc_shard_latency_ticks",
                l,
                "client-observed decision latency",
                &s.latency,
            );
        }
    }
}

impl fmt::Display for ClusterMetrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{:<8} {:>9} {:>9} {:>8} {:>9} {:>8} {:>10} {:>9} {:>7} {:>9}",
            "shard",
            "submitted",
            "committed",
            "aborted",
            "undecided",
            "blocked",
            "lat(mean)",
            "lat(p95)",
            "forces",
            "rec/force"
        )?;
        for (i, s) in self.shards.iter().enumerate() {
            writeln!(
                f,
                "{:<8} {:>9} {:>9} {:>8} {:>9} {:>8} {:>10.1} {:>9} {:>7} {:>9.1}",
                format!("shard{i}"),
                s.submitted,
                s.committed,
                s.aborted,
                s.undecided,
                s.blocked,
                s.latency.mean(),
                s.latency.quantile(0.95).0,
                s.wal_forces,
                s.records_per_force(),
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_and_stats() {
        let mut h = LatencyHistogram::new();
        for d in [1, 2, 3, 4, 100] {
            h.record(Duration(d));
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.mean(), 22.0);
        assert_eq!(h.max(), Duration(100));
        assert!(h.quantile(0.5).0 <= 8);
        assert!(h.quantile(1.0).0 >= 100);
    }

    #[test]
    fn zero_duration_is_recorded() {
        let mut h = LatencyHistogram::new();
        h.record(Duration::ZERO);
        assert_eq!(h.count(), 1);
        assert_eq!(h.mean(), 0.0);
    }

    #[test]
    fn records_per_force_reflects_batching() {
        let m = ShardMetrics {
            wal_forces: 10,
            wal_records: 80,
            ..Default::default()
        };
        assert_eq!(m.records_per_force(), 8.0);
    }
}
