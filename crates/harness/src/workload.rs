//! Multi-transaction workloads: contention, throughput and failure
//! injection over a stream of transactions (supports experiment E11 and
//! the intro's concurrency motivation).

use crate::scenario::Scenario;
use qbc_core::{ProtocolKind, SiteVotes, TxnId, WriteSet};
use qbc_simnet::{sites, Duration, Fault, SiteId, Time};
use qbc_votes::{Catalog, CatalogBuilder, ItemId};
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Configuration of a transaction-stream workload.
#[derive(Clone, Debug)]
pub struct WorkloadConfig {
    /// Number of sites.
    pub n_sites: u32,
    /// Number of items.
    pub n_items: u32,
    /// Copies per item (round-robin placement).
    pub copies_per_item: u32,
    /// Read quorum per item.
    pub read_q: u32,
    /// Write quorum per item.
    pub write_q: u32,
    /// Number of transactions submitted.
    pub n_txns: u32,
    /// Items written per transaction.
    pub items_per_txn: u32,
    /// Ticks between consecutive submissions.
    pub interarrival: u64,
    /// Protocol under test.
    pub protocol: ProtocolKind,
    /// Crash the busiest coordinator mid-stream?
    pub crash_mid_stream: bool,
    /// RNG seed (writesets, coordinators).
    pub seed: u64,
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        WorkloadConfig {
            n_sites: 8,
            n_items: 6,
            copies_per_item: 4,
            read_q: 2,
            write_q: 3,
            n_txns: 40,
            items_per_txn: 2,
            interarrival: 120,
            protocol: ProtocolKind::QuorumCommit2,
            crash_mid_stream: false,
            seed: 0,
        }
    }
}

impl WorkloadConfig {
    /// Builds the catalog for this workload.
    pub fn catalog(&self) -> Catalog {
        let mut b = CatalogBuilder::new();
        for i in 0..self.n_items {
            b = b.item(ItemId(i));
            for k in 0..self.copies_per_item {
                b = b.copy(SiteId((i + k) % self.n_sites), 1);
            }
            b = b.quorums(self.read_q, self.write_q);
        }
        b.build().expect("workload catalog valid")
    }
}

/// Results of a workload run.
#[derive(Clone, Debug)]
pub struct WorkloadReport {
    /// Transactions fully committed (every participant).
    pub committed: u32,
    /// Transactions fully aborted.
    pub aborted: u32,
    /// Transactions with any undecided participant at end time.
    pub undecided: u32,
    /// No transaction terminated inconsistently.
    pub consistent: bool,
    /// Mean client-observed commit latency over committed transactions.
    pub mean_commit_latency: f64,
    /// Messages delivered per submitted transaction.
    pub messages_per_txn: f64,
    /// Committed transactions per 1 000 ticks.
    pub throughput: f64,
}

/// Runs the workload and aggregates.
pub fn run_workload(cfg: &WorkloadConfig) -> WorkloadReport {
    let catalog = cfg.catalog();
    let mut rng = SmallRng::seed_from_u64(cfg.seed.wrapping_add(0xC0FFEE));
    let all_sites = sites(cfg.n_sites);
    let item_pool: Vec<ItemId> = (0..cfg.n_items).map(ItemId).collect();

    let mut s = Scenario::new(
        format!("workload/{}", cfg.protocol.name()),
        catalog,
        all_sites.clone(),
    );
    s.seed = cfg.seed;
    s.record_trace = false;
    s.min_delay = Duration(1);
    if cfg.protocol == ProtocolKind::SkeenQuorum {
        let q = cfg.n_sites / 2 + 1;
        s.site_votes = Some(SiteVotes::uniform(all_sites.clone(), q, q));
    }
    for k in 0..cfg.n_txns {
        let at = Time(k as u64 * cfg.interarrival);
        let coordinator = *all_sites.choose(&mut rng).expect("sites");
        let mut items = item_pool.clone();
        items.shuffle(&mut rng);
        items.truncate(cfg.items_per_txn as usize);
        let ws = WriteSet::new(
            items
                .into_iter()
                .map(|i| (i, rng.gen_range(0..1_000_000i64))),
        );
        s = s.submit(at, coordinator, (k + 1) as u64, ws, cfg.protocol);
    }
    let span = cfg.n_txns as u64 * cfg.interarrival;
    if cfg.crash_mid_stream {
        s = s
            .fault(Time(span / 2), Fault::Crash(SiteId(0)))
            .fault(Time(span / 2 + 600), Fault::Recover(SiteId(0)));
    }
    s.run_until = Time(span + 4_000);
    let out = s.run();

    let mut committed = 0;
    let mut aborted = 0;
    let mut undecided = 0;
    let mut consistent = true;
    let mut latency_sum = 0u64;
    for k in 0..cfg.n_txns {
        let v = out.verdict(TxnId((k + 1) as u64));
        consistent &= v.consistent;
        if !v.undecided.is_empty() {
            undecided += 1;
        } else if !v.committed.is_empty() {
            committed += 1;
            if let Some(l) = out.coordinator_latency(TxnId((k + 1) as u64)) {
                latency_sum += l.0;
            }
        } else {
            aborted += 1;
        }
    }
    WorkloadReport {
        committed,
        aborted,
        undecided,
        consistent,
        mean_commit_latency: if committed > 0 {
            latency_sum as f64 / committed as f64
        } else {
            0.0
        },
        messages_per_txn: out.sim.stats().delivered as f64 / cfg.n_txns as f64,
        throughput: committed as f64 * 1_000.0 / (span + 4_000) as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn failure_free_workload_commits_nearly_everything() {
        let cfg = WorkloadConfig::default();
        let r = run_workload(&cfg);
        assert!(r.consistent);
        assert_eq!(r.undecided, 0);
        // Low contention (6 items, 2 per txn, staggered): most commit;
        // occasional no-wait lock conflicts may abort a few.
        assert!(
            r.committed >= cfg.n_txns * 8 / 10,
            "committed only {}/{}",
            r.committed,
            cfg.n_txns
        );
    }

    #[test]
    fn every_protocol_stays_consistent_under_contention() {
        for p in ProtocolKind::ALL {
            let cfg = WorkloadConfig {
                protocol: p,
                n_items: 2, // high contention
                items_per_txn: 2,
                interarrival: 40, // heavy overlap
                n_txns: 25,
                ..Default::default()
            };
            let r = run_workload(&cfg);
            assert!(r.consistent, "{} inconsistent under contention", p.name());
        }
    }

    #[test]
    fn coordinator_crash_mid_stream_is_survivable() {
        let cfg = WorkloadConfig {
            crash_mid_stream: true,
            ..Default::default()
        };
        let r = run_workload(&cfg);
        assert!(r.consistent);
        // In-flight transactions at the crash may abort or block briefly;
        // the stream as a whole keeps committing.
        assert!(r.committed > cfg.n_txns / 2);
    }

    #[test]
    fn contention_aborts_rise_with_overlap() {
        let relaxed = run_workload(&WorkloadConfig {
            interarrival: 300,
            ..Default::default()
        });
        let contended = run_workload(&WorkloadConfig {
            interarrival: 10,
            n_items: 2,
            ..Default::default()
        });
        assert!(
            contended.aborted >= relaxed.aborted,
            "contended {} vs relaxed {}",
            contended.aborted,
            relaxed.aborted
        );
    }
}
