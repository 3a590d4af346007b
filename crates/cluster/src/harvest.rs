//! Shared plumbing between the two substrates: node construction and
//! metric/consistency harvesting from a set of [`SiteNode`]s.

use crate::config::ClusterConfig;
use crate::metrics::{AtomicityViolation, ClusterMetrics, ShardMetrics};
use crate::plan::ClusterPlanner;
use crate::shard::{ShardId, ShardMap};
use qbc_core::{Decision, ProtocolKind, SiteVotes};
use qbc_db::{NodeConfig, SiteNode};
use qbc_obs::Obs;
use qbc_simnet::{SiteId, Time};
use qbc_storage::FileWalConfig;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Builds the cluster's shared observer when the configuration enables
/// it, with every catalog item pre-registered so the blocking tracker
/// knows each item's replication shape and read quorum.
pub(crate) fn make_obs(cfg: &ClusterConfig, map: &ShardMap) -> Option<Arc<Obs>> {
    if !cfg.obs.enabled {
        return None;
    }
    let obs = Arc::new(Obs::new(cfg.obs.clone()));
    for shard in 0..cfg.shards {
        obs.register_catalog(map.catalog(ShardId(shard)));
    }
    Some(obs)
}

/// Builds one configured [`SiteNode`] per cluster site (initial item
/// values zero), ready for any substrate. Every site of a shard shares
/// the map's catalog for it. `decision_events` is on for
/// push-style front-ends (the reactor) and off for the polling ones.
pub(crate) fn build_nodes(
    cfg: &ClusterConfig,
    map: &ShardMap,
    obs: Option<&Arc<Obs>>,
    decision_events: bool,
) -> Vec<(SiteId, SiteNode)> {
    let mut nodes = Vec::with_capacity(cfg.total_sites() as usize);
    for shard in 0..cfg.shards {
        let shard = ShardId(shard);
        let sites = map.sites_of(shard);
        for &site in &sites {
            let mut nc = NodeConfig::new(site, Arc::clone(map.catalog(shard)), cfg.t_bound);
            nc.group_commit = cfg.group_commit;
            if let Some(w) = cfg.group_commit_window {
                nc.group_commit_window = w;
            }
            nc.group_commit_max_batch = cfg.group_commit_max_batch;
            nc.force_latency = cfg.force_latency;
            nc.retire_after = cfg.retire_after;
            nc.retire_horizon = cfg.retire_horizon;
            nc.checkpoint_interval = cfg.checkpoint_interval;
            nc.snapshot_reads = cfg.snapshot_reads;
            nc.decision_events = decision_events;
            nc.version_retention = cfg.version_retention;
            if let Some(obs) = obs {
                nc.obs = Some(Arc::clone(obs));
            }
            if let Some(root) = &cfg.wal_dir {
                nc.wal_backend = qbc_db::WalBackendConfig::File(FileWalConfig {
                    dir: root.join(format!("site-{}", site.0)),
                    segment_bytes: cfg.wal_segment_bytes,
                    fsync: cfg.wal_fsync,
                });
            }
            if cfg.protocol == ProtocolKind::SkeenQuorum {
                let q = cfg.sites_per_shard / 2 + 1;
                nc = nc.with_site_votes(SiteVotes::uniform(sites.iter().copied(), q, q));
            }
            nodes.push((site, SiteNode::new(nc, |_| 0)));
        }
    }
    nodes
}

/// Walks the cluster's nodes and computes per-shard metrics plus the
/// cluster-level atomicity check for every submitted handle. A
/// cross-shard transaction is audited over the
/// *union* of its shards' sites — commit at any site of one shard plus
/// abort at any site of another is exactly the violation the top-level
/// 2PC must prevent — and counted in its home shard's metrics.
pub(crate) fn harvest(
    planned: &ClusterPlanner,
    nodes: &BTreeMap<SiteId, &SiteNode>,
    now: Time,
) -> (ClusterMetrics, Vec<AtomicityViolation>) {
    let map = &planned.map;
    let mut shards: Vec<ShardMetrics> =
        (0..map.shards()).map(|_| ShardMetrics::default()).collect();
    let mut violations = Vec::new();

    for h in &planned.handles {
        let shard_set = planned.shards_of(h);
        let sites = || shard_set.iter().flat_map(|&s| map.sites_iter(s));
        let m = &mut shards[h.shard.0 as usize];
        m.submitted += 1;
        // Counting pass only: the harvest runs per submitted handle on
        // every metrics sample, so it must not grow per-transaction
        // vectors. Site lists are materialized only for the (never, in
        // correct runs) case of an actual atomicity violation.
        let mut commits = 0u64;
        let mut aborts = 0u64;
        let mut blocked = false;
        let mut known = false;
        for site in sites() {
            let Some(node) = nodes.get(&site) else {
                continue;
            };
            match node.decision(h.txn) {
                Some(Decision::Commit) => commits += 1,
                Some(Decision::Abort) => aborts += 1,
                None => {}
            }
            known |= node.local_state(h.txn).is_some();
            blocked |= node.is_blocked(h.txn);
        }
        if commits > 0 && aborts > 0 {
            let decided_at = |d: Decision| {
                sites()
                    .filter(|site| {
                        nodes
                            .get(site)
                            .is_some_and(|n| n.decision(h.txn) == Some(d))
                    })
                    .collect()
            };
            violations.push(AtomicityViolation {
                txn: h.txn,
                committed_at: decided_at(Decision::Commit),
                aborted_at: decided_at(Decision::Abort),
            });
        }
        if blocked {
            m.blocked += 1;
        }
        if commits > 0 {
            m.committed += 1;
        } else if aborts > 0 {
            m.aborted += 1;
        } else if known || now <= h.submitted_at {
            m.undecided += 1;
            m.queue_depth += 1;
        } else {
            // Submitted in the past yet unknown everywhere: the
            // coordinator was down at the submission instant and the
            // request was lost. Nothing was ever logged, so the
            // transaction can never commit.
            m.rejected += 1;
        }
        // Client-observed latency: the coordinator's decision time.
        if let Some(node) = nodes.get(&h.coordinator) {
            if let Some(at) = node.decided_at(h.txn) {
                m.latency.record(at.since(h.submitted_at));
            }
        }
    }

    for (i, m) in shards.iter_mut().enumerate() {
        for site in map.sites_iter(ShardId(i as u32)) {
            if let Some(node) = nodes.get(&site) {
                m.wal_forces += node.wal_forces();
                // Cumulative, not retained: checkpoint truncation frees
                // log prefixes, and a shrinking denominator would turn
                // records_per_force into nonsense.
                m.wal_records += node.wal_appended();
                let backlog = node.wal_backlog(now);
                if backlog > m.wal_backlog {
                    m.wal_backlog = backlog;
                }
            }
        }
        m.peak_queue_depth = m.queue_depth;
    }

    (ClusterMetrics { shards }, violations)
}
