//! Protocol-aware metrics (experiment E16): phase breakdown, blocking
//! windows, and the Gray & Lamport message/force comparison across the
//! six commit protocols.
//!
//! Every cell runs the *identical* deterministic submission schedule;
//! each protocol gets a fault-free cell and a coordinator-crash cell
//! (one site down mid-stream, recovered later). The observability layer
//! (`qbc-obs`) decomposes commit latency into phases, measures how long
//! copies stay pinned by undecided transactions and how long sites sit
//! declared-blocked, and counts every wire message and WAL force — the
//! quantities Gray & Lamport's "Consensus on Transaction Commit" uses
//! to compare commit protocols.

use qbc_cluster::{ClusterConfig, LatencyHistogram, ObsConfig, ShardId, SimCluster};
use qbc_core::{ProtocolKind, WriteSet};
use qbc_simnet::{Duration, SiteId, Time};

/// The protocols compared, in table order.
pub const PROTOCOLS: [ProtocolKind; 6] = [
    ProtocolKind::TwoPhase,
    ProtocolKind::ThreePhase,
    ProtocolKind::SkeenQuorum,
    ProtocolKind::QuorumCommit1,
    ProtocolKind::QuorumCommit2,
    ProtocolKind::PaxosCommit,
];

/// Striped writers per cell.
pub const CLIENTS: u32 = 6;
/// Transactions each writer submits.
pub const TXNS_PER_CLIENT: u32 = 20;

/// One replica group, three sites, one vote per copy, r = w = 2 — the
/// paper's running example shape, small enough that a single crash
/// leaves a live quorum.
fn cluster(protocol: ProtocolKind) -> ClusterConfig {
    ClusterConfig {
        shards: 1,
        sites_per_shard: 3,
        replication: 3,
        items_per_shard: 64,
        read_quorum: 2,
        write_quorum: 2,
        protocol,
        t_bound: Duration(10),
        seed: 16,
        ..Default::default()
    }
    .with_obs(ObsConfig::on())
}

/// What one (protocol, cell) run measured.
pub struct Cell {
    /// Transactions submitted.
    pub submitted: u64,
    /// Submissions routed to the crashed coordinator while it was down
    /// (the request dies with the site, nothing is ever logged).
    pub rejected: u64,
    /// Transactions committed.
    pub committed: u64,
    /// Transactions aborted.
    pub aborted: u64,
    /// Wire messages sent, all sites.
    pub msgs_sent: u64,
    /// WAL forces paid, all sites.
    pub wal_forces: u64,
    /// Vote phase: `VoteReq` out to the prepare round (or decision).
    pub vote: LatencyHistogram,
    /// Submission to decision applied, at the coordinator.
    pub commit: LatencyHistogram,
    /// How long copies stayed pinned by undecided transactions.
    pub pin: LatencyHistogram,
    /// How long sites sat declared-blocked.
    pub blocked: LatencyHistogram,
    /// Flight-recorder dumps taken, as `(reason, text)`.
    pub dumps: Vec<(String, String)>,
}

/// Runs one (protocol, cell) on the shared deterministic schedule:
/// [`CLIENTS`] striped writers over disjoint item stripes (no RNG, no
/// conflict aborts — differences between cells are protocol cost, not
/// workload noise). The crash cell takes one site down mid-stream.
pub fn run_cell(protocol: ProtocolKind, crash: bool) -> Cell {
    let mut cluster = SimCluster::new(cluster(protocol));
    let items = cluster.map().items_of(ShardId(0));
    let think = 40u64;
    let per_txn = 2usize;
    let mut submitted = 0u64;
    for j in 0..TXNS_PER_CLIENT {
        for c in 0..CLIENTS {
            let jitter = (c as u64).wrapping_mul(7) % think;
            let at = Time(10 + j as u64 * think + jitter);
            let stripe = c as usize * per_txn;
            let ws = WriteSet::new((0..per_txn).map(|i| {
                (
                    items[(stripe + i) % items.len()],
                    ((c as i64) << 32) | ((j as i64) << 16) | i as i64,
                )
            }));
            cluster.submit_at(at, ws);
            submitted += 1;
        }
    }
    if crash {
        // One site (a round-robin coordinator) dies mid-stream and
        // returns much later: in-flight transactions it coordinated
        // must be terminated by the survivors (or block until it
        // returns, depending on the protocol).
        let mid = Time(10 + (TXNS_PER_CLIENT as u64 / 2) * think + 5);
        cluster.sim_mut().schedule_crash(mid, SiteId(0));
        cluster
            .sim_mut()
            .schedule_recover(Time(mid.0 + 2_000), SiteId(0));
    }
    for _ in 0..200 {
        if cluster.run_to_quiescence(10_000_000).drained() {
            break;
        }
    }
    let (metrics, violations) = cluster.metrics_and_violations();
    assert!(
        violations.is_empty() && cluster.engine_violations().is_empty(),
        "{protocol:?} crash={crash}: atomicity violated"
    );
    assert_eq!(
        metrics.total_undecided(),
        0,
        "{protocol:?} crash={crash}: schedule did not fully terminate"
    );
    let rejected: u64 = metrics.shards.iter().map(|s| s.rejected).sum();
    let obs = cluster.obs().expect("obs enabled").clone();
    let phases = obs.phase_hists();
    Cell {
        submitted,
        rejected,
        committed: metrics.total_committed(),
        aborted: metrics.total_aborted(),
        msgs_sent: obs.msgs_sent(),
        wal_forces: obs.wal_forces(),
        vote: phases.vote,
        commit: phases.commit,
        pin: obs.pin_time(),
        blocked: obs.blocked_window(),
        dumps: obs.dumps(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every cell decided its whole schedule; the fault-free cells never
    /// rejected a submission or declared a blocked window; per-protocol
    /// message and force counts are live (the comparison columns mean
    /// something); and a crash cell's flight recorder captured the
    /// failure timeline.
    #[test]
    fn every_cell_is_decided_accounted_for_and_observed() {
        let mut crash_dumped = false;
        for protocol in PROTOCOLS {
            for crash in [false, true] {
                let cell = run_cell(protocol, crash);
                assert_eq!(
                    cell.committed + cell.aborted + cell.rejected,
                    cell.submitted,
                    "{protocol:?} crash={crash}: submissions unaccounted for"
                );
                assert!(cell.committed > 0, "{protocol:?}: nothing committed");
                assert!(cell.msgs_sent > 0 && cell.wal_forces > 0);
                assert_eq!(
                    cell.commit.count(),
                    cell.committed,
                    "{protocol:?}: phase coverage"
                );
                if crash {
                    crash_dumped |= cell.dumps.first().is_some_and(|d| !d.1.is_empty());
                } else {
                    assert_eq!(cell.rejected, 0, "{protocol:?} happy cell rejected");
                    assert_eq!(
                        cell.blocked.count(),
                        0,
                        "{protocol:?} happy cell declared blocked"
                    );
                }
            }
        }
        assert!(
            crash_dumped,
            "a crash cell must have auto-dumped its flight recorder"
        );
    }
}
