//! The reactor front door under a burst. In a test binary of its own:
//! the wave saturates the machine for a moment, and the tests in
//! `reactor.rs` run 20 ms vote timers that must not share it.

use qbc_cluster::{ClusterConfig, Outcome, ReactorCluster, ReactorConfig};
use qbc_core::ProtocolKind;
use qbc_simnet::Duration;
use qbc_votes::ItemId;

/// A burst of unique-item sessions piles up at the front door instead
/// of draining as it trickles in, and every one of them resolves.
#[test]
fn a_burst_piles_up_at_the_front_door_and_all_of_it_resolves() {
    const SESSIONS: u64 = 2_000;
    let cfg = ClusterConfig {
        // Wide enough that every session writes its own item: the
        // burst meets the commit pipeline, not no-wait-2PL aborts.
        items_per_shard: 16_384,
        protocol: ProtocolKind::QuorumCommit2,
        // Ticks are milliseconds here; a deep backlog must not trip
        // the vote timers that presume a silent site dead.
        t_bound: Duration(2_000),
        seed: 18,
        ..Default::default()
    };
    let rcfg = ReactorConfig {
        // Likewise the front-door liveness sweep: a queued begin is
        // not a swallowed one.
        txn_timeout_ms: 600_000,
        ..Default::default()
    };
    let cluster = ReactorCluster::spawn(cfg, rcfg);
    let handles: Vec<_> = (0..SESSIONS)
        .map(|i| cluster.submit(vec![(ItemId(i as u32), i as i64)]))
        .collect();
    let (mut committed, mut aborted) = (0u64, 0u64);
    for h in handles {
        match h.wait() {
            Outcome::Committed { .. } => committed += 1,
            Outcome::Aborted { .. } => aborted += 1,
            other => panic!("write session ended {other:?}"),
        }
    }
    let report = cluster.shutdown();
    assert_eq!(report.atomicity_violations, vec![]);
    assert_eq!(committed + aborted, SESSIONS);
    assert!(
        committed >= SESSIONS * 9 / 10,
        "only {committed}/{SESSIONS} committed"
    );
    // Half the wave, not all of it: decisions overlap submission.
    assert!(
        report.server.peak_sessions_in_flight >= SESSIONS / 2,
        "peak in flight only {}",
        report.server.peak_sessions_in_flight
    );
}
