//! The cluster front-end on the event-driven reactor transport.
//!
//! Second substrate, same cluster: the deterministic simulator carries
//! the correctness evidence, and this front-end is the *serving* shape
//! — every site plus the client front door multiplexed onto a small
//! fixed pool of `qbc-reactor` event-loop workers, with clients as
//! logical sessions over framed sockets instead of in-process calls.
//!
//! Placement and routing are [`crate::SimCluster`]'s: the same
//! [`ShardMap`] and the same planner (`plan.rs`), here told which sites
//! are down — the reactor is the substrate where sites die mid-run and
//! clients keep submitting. The differential test in `tests/reactor.rs`
//! holds this front-end to the deterministic oracle's decisions.

use crate::config::ClusterConfig;
use crate::harvest::{build_nodes, harvest, make_obs};
use crate::metrics::{AtomicityViolation, ClusterMetrics};
use crate::plan::{ClusterPlanner, SharedPlanner};
use crate::shard::ShardMap;
use crate::sim_cluster::TxnHandle;
use qbc_core::Decision;
use qbc_obs::{LatencyHistogram, Obs, Registry};
use qbc_reactor::{ClientStats, Handle, ReactorClient, ReactorConfig, ReactorServer, ServerStats};
use qbc_simnet::{SiteId, Time};
use qbc_votes::ItemId;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A per-process-unique Unix socket path under the system temp dir.
fn socket_path() -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let n = SEQ.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("qbc-reactor-{}-{n}.sock", std::process::id()))
}

/// Final state of a reactor cluster run, computed at shutdown.
#[derive(Debug)]
pub struct ReactorReport {
    /// Outcome of every *accepted* submission attempt (each client
    /// resubmission is a fresh attempt), in planning order.
    pub decisions: Vec<(TxnHandle, Option<Decision>)>,
    /// Per-shard metrics harvested from the final node states.
    pub metrics: ClusterMetrics,
    /// Transactions that terminated inconsistently (must be empty).
    pub atomicity_violations: Vec<AtomicityViolation>,
    /// Reactor front-door counters.
    pub server: ServerStats,
    /// Client-side counters (committed/aborted/failed, resubmits,
    /// reconnects).
    pub client: ClientStats,
    /// Client-observed end-to-end session latency, recorded in
    /// microseconds.
    pub latency: LatencyHistogram,
    /// The cluster's observer, when configured.
    pub obs: Option<Arc<Obs>>,
}

impl ReactorReport {
    /// Renders the full metrics registry in the Prometheus text
    /// exposition format: per-shard counters/histograms, the reactor
    /// gauges and (when observability was on) every observer metric.
    pub fn prometheus_text(&self) -> String {
        let mut r = Registry::new();
        self.metrics.fill_registry(&mut r);
        self.server.fill_registry(&mut r);
        if let Some(obs) = &self.obs {
            // "Now" for still-open windows: the newest event the
            // flight recorder retained (the report is post-shutdown, so
            // nothing further can happen).
            let now = obs.events().last().map(|e| e.at).unwrap_or(Time::ZERO);
            obs.fill_registry(now, &mut r);
        }
        r.prometheus_text()
    }
}

/// A sharded cluster served through the event-driven reactor.
///
/// Dropped without [`ReactorCluster::shutdown`], it still stops the
/// client and then the server (fields drop in declaration order): no
/// thread outlives it and its socket is removed.
pub struct ReactorCluster {
    map: ShardMap,
    client: Option<ReactorClient>,
    server: Option<ReactorServer>,
    planner: Arc<Mutex<ClusterPlanner>>,
    obs: Option<Arc<Obs>>,
}

impl ReactorCluster {
    /// Boots the server workers on a fresh Unix socket and connects the
    /// client pool.
    pub fn spawn(cfg: ClusterConfig, rcfg: ReactorConfig) -> Self {
        let map = ShardMap::new(&cfg);
        let obs = make_obs(&cfg, &map);
        let nodes = build_nodes(&cfg, &map, obs.as_ref(), true);
        let planner = Arc::new(Mutex::new(ClusterPlanner::new(map.clone(), cfg.protocol)));
        let path = socket_path();
        let server = ReactorServer::spawn(
            &rcfg,
            cfg.seed,
            nodes,
            Box::new(SharedPlanner(Arc::clone(&planner))),
            &path,
        )
        .expect("spawn reactor server");
        let client =
            ReactorClient::connect(&path, rcfg.client_conns).expect("connect reactor client");
        ReactorCluster {
            map,
            server: Some(server),
            client: Some(client),
            planner,
            obs,
        }
    }

    /// The placement map.
    pub fn map(&self) -> &ShardMap {
        &self.map
    }

    /// The shared observer, when configured.
    pub fn obs(&self) -> Option<&Arc<Obs>> {
        self.obs.as_ref()
    }

    /// The in-process client, for direct session control.
    pub fn client(&self) -> &ReactorClient {
        self.client.as_ref().expect("client live")
    }

    /// Starts a write-transaction session; the returned [`Handle`]
    /// resubmits itself through surviving coordinators on rejection or
    /// connection loss.
    pub fn submit(&self, writes: Vec<(ItemId, i64)>) -> Handle {
        self.client().submit(writes)
    }

    /// Starts a snapshot-read session.
    pub fn snapshot_read(&self, item: ItemId) -> Handle {
        self.client().snap_read(item)
    }

    /// Kills a site: it stops being driven, its in-flight traffic is
    /// dropped, and the planner routes around it. In-flight
    /// transactions it coordinated resolve through the survivors'
    /// termination protocol.
    pub fn kill_site(&self, site: SiteId) {
        self.server.as_ref().expect("server live").kill_site(site);
    }

    /// Live reactor front-door counters.
    pub fn server_stats(&self) -> ServerStats {
        self.server.as_ref().expect("server live").stats()
    }

    /// The front door's Unix socket (extra raw connections — e.g. a
    /// deliberately slow client in the backpressure test — attach
    /// here).
    pub fn socket(&self) -> &std::path::Path {
        self.server.as_ref().expect("server live").socket_path()
    }

    /// Stops client and server and harvests decisions, metrics and the
    /// atomicity check from the final node states.
    pub fn shutdown(mut self) -> ReactorReport {
        let client = self.client.take().expect("client live");
        let client_stats = client.stats();
        let latency = client.latency();
        client.shutdown();
        let (nodes, server_stats) = self.server.take().expect("server live").shutdown();
        let by_site: BTreeMap<SiteId, &qbc_db::SiteNode> =
            nodes.iter().map(|(s, n)| (*s, n)).collect();
        let planned = self.planner.lock().expect("planner");
        let (metrics, atomicity_violations) = harvest(&planned, &by_site, Time(u64::MAX));
        let decisions = planned
            .handles
            .iter()
            .map(|h| {
                let d = planned
                    .shards_of(h)
                    .iter()
                    .flat_map(|&s| self.map.sites_iter(s))
                    .find_map(|s| by_site.get(&s).and_then(|n| n.decision(h.txn)));
                (*h, d)
            })
            .collect();
        if let (Some(obs), Some(v)) = (&self.obs, atomicity_violations.first()) {
            let _ = obs.dump(&format!("atomicity violation: txn {}", v.txn.0));
        }
        ReactorReport {
            decisions,
            metrics,
            atomicity_violations,
            server: server_stats,
            client: client_stats,
            latency,
            obs: self.obs.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shard::ShardId;
    use crate::sim_cluster::SimCluster;
    use qbc_db::SiteNode;

    /// Every site holds the catalog allocation the map built for its
    /// shard, not a copy of it.
    fn assert_shared<'a>(map: &ShardMap, nodes: impl IntoIterator<Item = (SiteId, &'a SiteNode)>) {
        let mut sites = 0;
        for (site, node) in nodes {
            let shard = ShardId(site.0 / map.sites_per_shard());
            assert!(
                Arc::ptr_eq(node.catalog(), map.catalog(shard)),
                "{site} holds a copy of {shard}'s catalog"
            );
            sites += 1;
        }
        assert_eq!(sites, map.all_sites().len());
    }

    #[test]
    fn every_site_shares_its_shards_catalog() {
        let cfg = ClusterConfig::default();
        let sim = SimCluster::new(cfg.clone());
        assert_shared(sim.map(), sim.sim().nodes());

        let mut reactor = ReactorCluster::spawn(cfg, ReactorConfig::default());
        for s in 0..reactor.map.shards() {
            let planned = reactor.planner.lock().expect("planner");
            assert!(Arc::ptr_eq(
                planned.map.catalog(ShardId(s)),
                reactor.map.catalog(ShardId(s))
            ));
        }
        reactor.client.take().expect("client live").shutdown();
        let (nodes, _) = reactor.server.take().expect("server live").shutdown();
        assert_shared(&reactor.map, nodes.iter().map(|(s, n)| (*s, n)));
    }
}
