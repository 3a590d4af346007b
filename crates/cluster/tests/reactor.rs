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

/// Polls every handle until it resolves, failing the test at
/// `deadline` instead of hanging on an answer that never comes.
fn await_all(handles: &[&qbc_reactor::Handle], within: std::time::Duration) -> Vec<Outcome> {
    let deadline = std::time::Instant::now() + within;
    let mut outcomes: Vec<Option<Outcome>> = vec![None; handles.len()];
    loop {
        for (slot, h) in outcomes.iter_mut().zip(handles) {
            if slot.is_none() {
                *slot = h.try_outcome();
            }
        }
        let open = outcomes.iter().filter(|o| o.is_none()).count();
        if open == 0 {
            return outcomes.into_iter().flatten().collect();
        }
        assert!(
            std::time::Instant::now() < deadline,
            "{open} of {} sessions never answered",
            handles.len()
        );
        std::thread::sleep(std::time::Duration::from_millis(2));
    }
}

#[test]
fn snapshot_reads_through_the_front_door_see_acknowledged_writes() {
    use qbc_votes::Version;
    use std::collections::{BTreeMap, BTreeSet};
    use std::time::Duration as Wall;

    // Two copies per item over three sites: the planner's round robin
    // sends about a third of the reads to a site holding no copy, which
    // must ask a remote one.
    let cfg = ClusterConfig {
        shards: 1,
        replication: 2,
        t_bound: Duration(20),
        seed: 17,
        ..Default::default()
    }
    .with_snapshot_reads(4);
    let cluster = ReactorCluster::spawn(cfg, ReactorConfig::default());
    let shard = qbc_cluster::ShardId(0);
    let items: Vec<ItemId> = cluster.map().catalog(shard).items().map(|s| s.id).collect();
    let copyless = |item: ItemId| {
        let spec = cluster.map().catalog(shard).item(item).expect("item");
        cluster
            .map()
            .sites_iter(shard)
            .any(|s| !spec.copies.contains_key(&s))
    };
    assert!(items.iter().all(|&i| copyless(i)), "placement: {items:?}");

    // What a read may return: the initial load, or an acknowledged
    // commit (at its version, when the answering site knew it).
    let mut produced: BTreeMap<ItemId, BTreeSet<(Option<Version>, i64)>> = items
        .iter()
        .map(|&i| (i, BTreeSet::from([(Some(Version::INITIAL), 0)])))
        .collect();
    let allowed = |produced: &BTreeMap<ItemId, BTreeSet<(Option<Version>, i64)>>,
                   item: ItemId,
                   version: Version,
                   value: i64| {
        let seen = &produced[&item];
        seen.contains(&(Some(version), value)) || seen.contains(&(None, value))
    };

    // Three rounds of one write per item, each value distinct.
    for round in 0..3i64 {
        let writes: Vec<(ItemId, i64)> = items
            .iter()
            .map(|&i| (i, 1_000 * (round + 1) + i.0 as i64))
            .collect();
        let handles: Vec<_> = writes.iter().map(|&w| cluster.submit(vec![w])).collect();
        let refs: Vec<_> = handles.iter().collect();
        let outcomes = await_all(&refs, Wall::from_secs(20));
        for ((item, value), o) in writes.into_iter().zip(outcomes) {
            match o {
                Outcome::Committed { commit_version, .. } => {
                    produced
                        .get_mut(&item)
                        .expect("item")
                        .insert((commit_version, value));
                }
                // A copy still pinned by the previous round votes no.
                Outcome::Aborted { .. } => {}
                other => panic!("write of {item:?} ended {other:?}"),
            }
        }
    }
    assert!(
        produced.values().any(|s| s.len() > 1),
        "no write committed: the reads below would prove nothing"
    );

    // Reads after the acknowledged commits: every copy site is up, so
    // each read answers, with a value some write produced.
    let reads: Vec<(ItemId, _)> = (0..4)
        .flat_map(|_| items.iter().map(|&i| (i, cluster.snapshot_read(i))))
        .collect();
    let handles: Vec<_> = reads.iter().map(|(_, h)| h).collect();
    let outcomes = await_all(&handles, Wall::from_secs(20));
    for ((item, _), o) in reads.iter().zip(outcomes) {
        match o {
            Outcome::ReadOk { version, value } => assert!(
                allowed(&produced, *item, version, value),
                "{item:?} read ({version:?}, {value}), which no acknowledged write produced"
            ),
            other => panic!("read of {item:?} with every site up ended {other:?}"),
        }
    }

    // Reads racing kills. `victim` holds no copy of `item` and asks
    // `first` before the other copy site. With `first` dead, a read of
    // `item` at `victim` waits out a collection window (2T = 40 ms);
    // killing `victim` within it leaves the read pending at a dead site.
    // It, and every other read issued around the kills, must still be
    // answered: served by a surviving copy or unavailable, never lost.
    let victim = cluster.map().coordinator(shard, 1);
    let spec = cluster
        .map()
        .catalog(shard)
        .items()
        .find(|spec| !spec.copies.contains_key(&victim))
        .expect("an item the victim holds no copy of");
    let (item, first) = (spec.id, spec.sites().next().expect("a copy site"));
    cluster.kill_site(first);
    let mut racing: Vec<(ItemId, _)> = (0..12)
        .map(|_| (item, cluster.snapshot_read(item)))
        .collect();
    std::thread::sleep(Wall::from_millis(10));
    cluster.kill_site(victim);
    racing.extend(items.iter().map(|&i| (i, cluster.snapshot_read(i))));
    let handles: Vec<_> = racing.iter().map(|(_, h)| h).collect();
    let outcomes = await_all(&handles, Wall::from_secs(20));
    for ((item, _), o) in racing.iter().zip(outcomes) {
        match o {
            Outcome::ReadOk { version, value } => assert!(
                allowed(&produced, *item, version, value),
                "{item:?} read ({version:?}, {value}) across the kills"
            ),
            Outcome::ReadUnavailable => {}
            other => panic!("read of {item:?} across the kills ended {other:?}"),
        }
    }

    let report = cluster.shutdown();
    assert_eq!(report.atomicity_violations, vec![]);
}
