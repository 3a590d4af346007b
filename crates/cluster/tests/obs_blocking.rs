//! Observability acceptance tests (ISSUE 6): the blocking-window
//! measurement against a deterministic crash schedule.
//!
//! 1. **Happy path** — no failures: every transaction commits and no
//!    site ever declares itself blocked, so the blocked-window
//!    histogram stays empty even though copies were pinned during the
//!    vote rounds.
//! 2. **Crashed quorum** — the coordinator and one participant crash
//!    right after the vote round starts; the lone survivor has voted
//!    (pinned its copies) but cannot assemble any termination quorum,
//!    so it declares blocked (rule 5) and stays pinned until the
//!    recovered sites terminate the transaction. The measured window
//!    must equal the virtual-time gap between the `Blocked` declaration
//!    and the `DecisionApplied` event in the recorded timeline, and it
//!    must span the outage.
//! 3. **Observation is passive** — the same schedule with the observer
//!    on and off reaches identical decisions, and two observed runs
//!    render identical metric snapshots.

use qbc_cluster::{ClusterConfig, ObsConfig, ShardId, SimCluster};
use qbc_core::{Decision, ProtocolKind, WriteSet};
use qbc_obs::EventKind;
use qbc_simnet::{Duration, Fault, SiteId, Time};
use std::collections::BTreeMap;

/// One shard of three sites, one vote per copy, r = w = 2: a single
/// crash is survivable, two crashes leave no termination quorum.
fn config(protocol: ProtocolKind, seed: u64) -> ClusterConfig {
    ClusterConfig {
        shards: 1,
        sites_per_shard: 3,
        replication: 3,
        items_per_shard: 8,
        read_quorum: 2,
        write_quorum: 2,
        protocol,
        t_bound: Duration(10),
        seed,
        ..ClusterConfig::default()
    }
}

#[test]
fn happy_path_commits_with_zero_blocked_window() {
    let mut cluster =
        SimCluster::new(config(ProtocolKind::QuorumCommit2, 1).with_obs(ObsConfig::on()));
    let items = cluster.map().items_of(ShardId(0));
    let mut handles = Vec::new();
    for k in 0..6u64 {
        // Disjoint single-item writesets: no lock conflicts, nothing to
        // abort.
        let ws = WriteSet::new([(items[k as usize], 100 + k as i64)]);
        handles.push(cluster.submit_at(Time(10 + k * 40), ws));
    }
    let q = cluster.run_to_quiescence(5_000_000);
    assert!(q.drained(), "cluster must quiesce, got {q:?}");
    for h in &handles {
        assert_eq!(cluster.decision(h), Some(Decision::Commit));
    }

    let obs = cluster.obs().expect("observer was enabled").clone();
    // No failure ever forced the termination protocol into rule 5, so
    // no blocked window may be recorded...
    assert_eq!(obs.blocked_window().count(), 0);
    // ...even though the vote rounds did pin copies for a while.
    assert!(obs.pin_time().count() > 0, "votes must have pinned copies");
    let phases = obs.phase_hists();
    assert_eq!(phases.commit.count(), handles.len() as u64);
    assert!(obs.msgs_sent() > 0);
    assert!(obs.wal_forces() > 0);
    assert!(obs.dumps().is_empty(), "nothing crashed, nothing to dump");
}

#[test]
fn crashed_quorum_blocks_and_the_window_matches_the_event_timeline() {
    let mut cfg = config(ProtocolKind::QuorumCommit2, 2).with_obs(ObsConfig::on());
    // Plenty of ring for the whole scenario: the cross-check below
    // replays the full event timeline.
    cfg.obs.ring_capacity = 4096;
    let mut cluster = SimCluster::new(cfg);
    let items = cluster.map().items_of(ShardId(0));
    let h = cluster.submit_at(Time(10), WriteSet::new([(items[0], 7), (items[1], 8)]));

    // Coordinator and one participant die right after the vote round
    // starts; the survivor alone musters 1 < w = 2 votes, so every
    // termination attempt it runs ends in rule 5 (blocked).
    cluster
        .sim_mut()
        .schedule(Time(12), Fault::Crash(SiteId(0)));
    cluster
        .sim_mut()
        .schedule(Time(12), Fault::Crash(SiteId(1)));
    cluster
        .sim_mut()
        .schedule(Time(600), Fault::Recover(SiteId(0)));
    cluster
        .sim_mut()
        .schedule(Time(650), Fault::Recover(SiteId(1)));

    let q = cluster.run_to_quiescence(10_000_000);
    assert!(q.drained(), "cluster must quiesce, got {q:?}");
    assert!(
        cluster.decision(&h).is_some(),
        "the recovered quorum must terminate the transaction"
    );
    assert_eq!(cluster.atomicity_violations(), vec![]);

    let obs = cluster.obs().expect("observer was enabled").clone();
    let windows = obs.blocked_window();
    assert!(
        windows.count() >= 1,
        "the survivor must have declared blocked"
    );

    // Cross-check against the recorded timeline: per site, a window is
    // the span from the first `Blocked` declaration to the
    // `DecisionApplied` that closed it.
    let mut blocked_at: BTreeMap<u32, u64> = BTreeMap::new();
    let mut expected_sum = 0u64;
    let mut expected_count = 0u64;
    for e in obs.events() {
        match e.kind {
            EventKind::Blocked if e.txn == Some(h.txn) => {
                blocked_at.entry(e.site.0).or_insert(e.at.0);
            }
            EventKind::DecisionApplied { .. } if e.txn == Some(h.txn) => {
                if let Some(b) = blocked_at.remove(&e.site.0) {
                    expected_sum += e.at.0 - b;
                    expected_count += 1;
                }
            }
            _ => {}
        }
    }
    assert_eq!(
        windows.count(),
        expected_count,
        "window count diverges from timeline"
    );
    assert_eq!(
        windows.sum(),
        expected_sum,
        "window ticks diverge from timeline"
    );
    // The schedule keeps the quorum dead until t = 600, so the window
    // must span most of the outage (declared after the vote at ~t 10+,
    // closed only once the recovered sites re-terminated).
    assert!(
        windows.max() >= Duration(500),
        "window {:?} should span the outage",
        windows.max()
    );
    // The injected crashes stored flight-recorder dumps.
    assert!(
        obs.dumps()
            .iter()
            .any(|(reason, _)| reason.contains("crash")),
        "crash should have auto-dumped the flight recorder"
    );
}

#[test]
fn observer_is_passive_and_snapshots_are_deterministic() {
    let run = |observed: bool| {
        let mut cfg = config(ProtocolKind::QuorumCommit1, 3);
        if observed {
            cfg = cfg.with_obs(ObsConfig::on());
        }
        let mut cluster = SimCluster::new(cfg);
        let items = cluster.map().items_of(ShardId(0));
        let mut handles = Vec::new();
        for k in 0..8u64 {
            // Overlapping writesets: some no-wait aborts in the mix.
            let a = items[(k % 4) as usize];
            let b = items[((k + 1) % 4) as usize];
            handles.push(cluster.submit_at(
                Time(10 + k * 15),
                WriteSet::new([(a, k as i64), (b, -(k as i64))]),
            ));
        }
        cluster
            .sim_mut()
            .schedule(Time(60), Fault::Crash(SiteId(2)));
        cluster
            .sim_mut()
            .schedule(Time(300), Fault::Recover(SiteId(2)));
        let q = cluster.run_to_quiescence(10_000_000);
        assert!(q.drained());
        let decisions: Vec<Option<Decision>> =
            handles.iter().map(|h| cluster.decision(h)).collect();
        let snapshot = cluster.obs().is_some().then(|| cluster.metrics_json());
        (decisions, snapshot)
    };

    let (plain, none) = run(false);
    let (observed_a, snap_a) = run(true);
    let (observed_b, snap_b) = run(true);
    assert_eq!(none, None);
    assert_eq!(
        plain, observed_a,
        "observation changed the schedule's decisions"
    );
    assert_eq!(observed_a, observed_b);
    let snap_a = snap_a.expect("observed run renders a snapshot");
    assert_eq!(
        Some(&snap_a),
        snap_b.as_ref(),
        "metric snapshots diverge across identical runs"
    );
    assert!(snap_a.contains("\"qbc_blocked_window_ticks\""), "{snap_a}");
    assert!(snap_a.contains("\"qbc_shard_submitted_total\""), "{snap_a}");
}
