//! The reactor front-end: differential conformance against the
//! deterministic oracle, the Prometheus scrape text, backpressure
//! isolation, and coordinator-kill resubmission. Wall-clock tests —
//! kept small and time-bounded; the deterministic substrate carries the
//! correctness evidence.

use qbc_cluster::{ClusterConfig, ObsConfig, Outcome, ReactorCluster, ReactorConfig, SimCluster};
use qbc_core::{Decision, WriteSet};
use qbc_simnet::{Duration, Time};
use qbc_votes::ItemId;
use std::io::Write as _;
use std::os::unix::net::UnixStream;

/// The shared differential workload: conflict-free (every session
/// writes its own items), so on *any* correct substrate every
/// transaction must commit — timing cannot change the answer. Twelve
/// single-shard writesets plus two cross-shard ones (items 0..7 live in
/// shard 0, 8..15 in shard 1).
fn workload() -> Vec<Vec<(ItemId, i64)>> {
    let mut w: Vec<Vec<(ItemId, i64)>> = Vec::new();
    for i in 0..6u32 {
        w.push(vec![(ItemId(i), i as i64 + 100)]);
    }
    for i in 8..14u32 {
        w.push(vec![(ItemId(i), i as i64 + 100)]);
    }
    w.push(vec![(ItemId(6), 1), (ItemId(14), 2)]);
    w.push(vec![(ItemId(7), 3), (ItemId(15), 4)]);
    w
}

#[test]
fn reactor_decisions_match_the_deterministic_oracle() {
    let cfg = || ClusterConfig {
        t_bound: Duration(20),
        seed: 21,
        ..Default::default()
    };

    // Reactor substrate: block on every session handle.
    let cluster = ReactorCluster::spawn(cfg(), ReactorConfig::default());
    let handles: Vec<_> = workload().into_iter().map(|w| cluster.submit(w)).collect();
    let reactor: Vec<Decision> = handles
        .into_iter()
        .map(|h| match h.wait() {
            Outcome::Committed { .. } => Decision::Commit,
            Outcome::Aborted { .. } => Decision::Abort,
            other => panic!("reactor session ended {other:?}"),
        })
        .collect();
    let report = cluster.shutdown();
    assert_eq!(report.atomicity_violations, vec![]);
    for (h, d) in &report.decisions {
        assert_eq!(*d, Some(Decision::Commit), "{h:?} on the reactor");
    }

    // Deterministic oracle: same config, same workload, run to
    // quiescence.
    let mut oracle = SimCluster::new(cfg());
    let handles: Vec<_> = workload()
        .into_iter()
        .map(|w| oracle.submit_at(Time::ZERO, WriteSet::new(w)))
        .collect();
    assert!(oracle.run_to_quiescence(10_000_000).drained());
    assert_eq!(oracle.atomicity_violations(), vec![]);
    let sim: Vec<Decision> = handles
        .iter()
        .map(|h| {
            oracle
                .decision(h)
                .unwrap_or_else(|| panic!("{h:?} undecided on the simulator"))
        })
        .collect();

    assert_eq!(
        reactor, sim,
        "the two substrates decided the same workload differently"
    );
}

#[test]
fn reactor_report_exports_prometheus_text() {
    let cfg = ClusterConfig {
        t_bound: Duration(20),
        seed: 13,
        ..Default::default()
    }
    .with_obs(ObsConfig::on());
    let cluster = ReactorCluster::spawn(cfg, ReactorConfig::default());
    // One transaction per shard (items 0 and 8 live in shards 0 and 1).
    for h in [
        cluster.submit(vec![(ItemId(0), 7)]),
        cluster.submit(vec![(ItemId(8), 9)]),
    ] {
        assert!(matches!(h.wait(), Outcome::Committed { .. }));
    }
    let report = cluster.shutdown();
    assert_eq!(report.atomicity_violations, vec![]);
    assert_eq!(report.metrics.total_committed(), 2);

    // The scrape payload: shard metrics, reactor gauges and the
    // observer's protocol counters, in valid exposition format.
    let text = report.prometheus_text();
    assert!(
        text.contains("# TYPE qbc_shard_committed_total counter"),
        "{text}"
    );
    assert!(
        text.contains("qbc_shard_committed_total{shard=\"0\"} 1"),
        "{text}"
    );
    assert!(
        text.contains("# TYPE qbc_reactor_sessions_in_flight_peak gauge"),
        "{text}"
    );
    assert!(
        text.contains("# TYPE qbc_msgs_sent_total counter"),
        "{text}"
    );
    assert!(text.contains("qbc_txns_committed_total 2"), "{text}");
    assert!(text.contains("qbc_commit_latency_ticks_count 2"), "{text}");
    // Histograms render cumulative buckets.
    assert!(
        text.contains("qbc_pin_time_ticks_bucket{le=\"+Inf\"}"),
        "{text}"
    );
}

#[test]
fn a_slow_client_does_not_stall_other_sessions() {
    let cfg = ClusterConfig {
        shards: 1,
        t_bound: Duration(20),
        seed: 7,
        ..Default::default()
    };
    let rcfg = ReactorConfig {
        // Tiny reply budget per connection: a few KiB of unread replies
        // (kernel buffer + queued frames) trips the pause.
        write_hwm: 2 * 1024,
        sockbuf: Some(4 * 1024),
        ..Default::default()
    };
    let cluster = ReactorCluster::spawn(cfg, rcfg);

    // The rogue connection floods submissions and never reads a reply.
    let mut rogue = UnixStream::connect(cluster.socket()).expect("connect rogue");
    let mut flood = Vec::new();
    for i in 0..3000u64 {
        let mut payload = Vec::new();
        qbc_reactor::Request::Submit {
            session: i,
            writes: vec![(ItemId(0), i as i64)],
        }
        .encode_into(&mut payload);
        flood.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        flood.extend_from_slice(&payload);
    }
    rogue.write_all(&flood).expect("flood");

    // Unrelated sessions on the well-behaved client keep completing
    // while the rogue connection is paused.
    for round in 0..3 {
        let handles: Vec<_> = (1..8u32)
            .map(|i| cluster.submit(vec![(ItemId(i), round * 10 + i as i64)]))
            .collect();
        for h in handles {
            assert!(
                matches!(h.wait(), Outcome::Committed { .. }),
                "well-behaved session starved in round {round}"
            );
        }
    }

    // The pause must actually have happened (else the test proved
    // nothing): wait briefly for the flood's replies to pile up.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    while cluster.server_stats().backpressure_stalls == 0 {
        assert!(
            std::time::Instant::now() < deadline,
            "flooded connection never hit the write high-water mark"
        );
        std::thread::sleep(std::time::Duration::from_millis(20));
    }

    drop(rogue);
    let report = cluster.shutdown();
    assert_eq!(report.atomicity_violations, vec![]);
    assert!(report.server.backpressure_stalls > 0);
}

#[test]
fn killing_the_coordinator_resubmits_to_a_survivor() {
    let cfg = ClusterConfig {
        shards: 1,
        // Two copies per item: items whose copy pair excludes the
        // victim keep full participation and can still commit (the
        // paper's vote round needs *every* copy site; a transaction
        // touching a dead copy presumed-aborts instead).
        replication: 2,
        t_bound: Duration(20),
        seed: 3,
        ..Default::default()
    };
    let rcfg = ReactorConfig {
        // Fast front-door timeout so begins swallowed whole by the
        // killed site bounce back quickly.
        txn_timeout_ms: 500,
        ..Default::default()
    };
    let cluster = ReactorCluster::spawn(cfg, rcfg);
    let shard = qbc_cluster::ShardId(0);
    let victim = cluster.map().coordinator(shard, 0);
    let spared: Vec<ItemId> = cluster
        .map()
        .catalog(shard)
        .items()
        .filter(|spec| !spec.copies.contains_key(&victim))
        .map(|spec| spec.id)
        .collect();
    assert!(spared.len() >= 2, "placement: {spared:?}");

    // In-flight work racing the kill: every session must still resolve
    // — by the survivors' termination protocol if the victim had
    // started it, by timeout + resubmission if it swallowed the begin.
    let racing: Vec<_> = (0..8u32)
        .map(|i| cluster.submit(vec![(ItemId(i), i as i64)]))
        .collect();
    cluster.kill_site(victim);
    for h in racing {
        let o = h.wait();
        assert!(
            !matches!(o, Outcome::Failed),
            "session racing the kill was dropped on the floor: {o:?}"
        );
    }
    // Let the decision messages reach the copy sites so the racing
    // sessions' pins are released before the fresh round conflicts
    // with them.
    std::thread::sleep(std::time::Duration::from_millis(200));

    // New work after the kill routes around the victim; sessions on
    // items it held no copy of must commit via the survivors.
    let fresh: Vec<_> = spared
        .iter()
        .map(|&item| cluster.submit(vec![(item, 1_000)]))
        .collect();
    for h in fresh {
        let o = h.wait();
        assert!(
            matches!(o, Outcome::Committed { .. }),
            "post-kill submission did not commit via the survivors: {o:?}"
        );
    }

    let report = cluster.shutdown();
    assert_eq!(report.atomicity_violations, vec![]);
}
