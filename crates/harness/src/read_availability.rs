//! Read availability under pinned copies (experiment E17): quorum reads
//! vs MVCC snapshot reads at the commit-stable watermark.
//!
//! The paper's quorum read protocol treats a copy X-locked by an
//! undecided transaction as unreadable, so an in-doubt transaction that
//! pins copies (a 2PC coordinator crash between collecting yes-votes
//! and delivering the decision) makes the item `Unavailable` for the
//! whole blocking window. The multi-version store removes that
//! coupling: snapshot reads answer from the newest version at or below
//! the shard's commit-stable watermark, *under* the pins, without
//! touching locks.
//!
//! Both cells run the **identical** deterministic schedule: a committed
//! baseline write, then an in-doubt transaction whose 2PC coordinator
//! crashes mid-protocol and stays down for a long pinned window, with
//! probe reads of the pinned item fired at a fixed cadence throughout.
//! The quorum cell probes through `start_read`; the snapshot cell
//! probes through `start_snapshot_read`. Both exhibit the same
//! pinned-copy contention (the observability layer records the blocked
//! windows); only the read path differs.

use qbc_cluster::{ClusterConfig, ObsConfig, ShardId, SimCluster};
use qbc_core::{ProtocolKind, WriteSet};
use qbc_db::ReadResult;
use qbc_simnet::{Duration, Time};
use qbc_votes::ItemId;

/// Ticks between consecutive probe reads of the pinned item.
pub const PROBE_INTERVAL: u64 = 50;
/// Ticks the crashed coordinator stays down, pinning the item.
pub const PIN_LEN: u64 = 2_000;
/// The in-doubt transaction is submitted at this virtual time.
const PIN_START: u64 = 200;
/// The committed baseline value every probe must observe.
const BASELINE: i64 = 41;

/// One replica group, three sites, one vote per copy, r = w = 2 — the
/// paper's running example shape — under plain 2PC, the protocol whose
/// coordinator crash actually blocks participants.
fn cfg(snapshot: bool) -> ClusterConfig {
    let base = ClusterConfig {
        shards: 1,
        sites_per_shard: 3,
        replication: 3,
        items_per_shard: 8,
        read_quorum: 2,
        write_quorum: 2,
        protocol: ProtocolKind::TwoPhase,
        t_bound: Duration(10),
        seed: 17,
        ..Default::default()
    }
    .with_obs(ObsConfig::on());
    if snapshot {
        base.with_snapshot_reads(4)
    } else {
        base
    }
}

/// What one read path measured over the pinned window.
pub struct Cell {
    /// `"quorum"` or `"snapshot"`.
    pub read_path: &'static str,
    /// Probe reads fired inside the pinned window.
    pub probes: u64,
    /// Probes that returned a value.
    pub success: u64,
    /// Probes that resolved `Unavailable`; times [`PROBE_INTERVAL`], the
    /// span of virtual time this read path could not answer.
    pub unavailable: u64,
    /// Probes that observed anything other than the committed baseline
    /// value (the undecided write must never be visible).
    pub dirty: u64,
    /// Transactions committed once the cluster settled.
    pub committed: u64,
    /// Transactions aborted once the cluster settled.
    pub aborted: u64,
    /// Sum of the observer's pinned-copy durations — evidence the
    /// contention was real and identical across cells.
    pub pinned_copy_ticks: u64,
    /// Blocked windows the observer recorded.
    pub blocked_windows: u64,
    /// Snapshot reads the observer counted.
    pub snapshot_reads_total: u64,
}

/// Runs one cell: baseline commit, in-doubt 2PC transaction pinning the
/// item for [`PIN_LEN`] ticks, probe reads at [`PROBE_INTERVAL`]
/// throughout the pinned window, then coordinator recovery and full
/// settlement.
pub fn run_cell(snapshot: bool) -> Cell {
    let mut c = SimCluster::new(cfg(snapshot));
    let item = ItemId(0);

    // Baseline: a committed value installed on every copy.
    let h1 = c.submit_at(Time(0), WriteSet::new([(item, BASELINE)]));
    assert_eq!(
        c.await_decision(&h1, Time(5_000)),
        Some(qbc_core::Decision::Commit),
        "baseline write must commit"
    );
    c.run_to_quiescence(1_000_000);
    assert!(
        c.now() < Time(PIN_START),
        "baseline settlement overran the pin start"
    );

    // The in-doubt transaction: its 2PC coordinator crashes between
    // collecting yes-votes and delivering the decision, so the
    // surviving participants hold the item's copies pinned (blocked,
    // in the paper's sense) until the coordinator returns.
    let h2 = c.submit_at(Time(PIN_START), WriteSet::new([(item, 42)]));
    let crashed = h2.coordinator;
    c.sim_mut().schedule_crash(Time(PIN_START + 6), crashed);
    c.sim_mut()
        .schedule_recover(Time(PIN_START + PIN_LEN), crashed);

    // Probe through the live sites only (alternating), via direct
    // scheduled calls: the round-robin front-end would aim a third of
    // the probes at the crashed coordinator.
    let live: Vec<_> = c
        .map()
        .sites_of(ShardId(0))
        .into_iter()
        .filter(|&s| s != crashed)
        .collect();
    let (mut probes, mut success, mut unavailable, mut dirty) = (0u64, 0u64, 0u64, 0u64);
    let mut t = PIN_START + 50;
    let mut req_id = 9_000_000u64;
    while t + 100 <= PIN_START + PIN_LEN {
        let site = live[(probes % live.len() as u64) as usize];
        let r = req_id;
        req_id += 1;
        c.sim_mut().schedule_call(Time(t), site, move |node, ctx| {
            if snapshot {
                node.start_snapshot_read(ctx, r, item)
            } else {
                node.start_read(ctx, r, item)
            }
        });
        // Poll after the collection window but before the resolved
        // collector retires (the read table is bounded).
        c.run_until(Time(t + 35));
        let res = c.sim().node(site).read_result(r);
        probes += 1;
        match res {
            Some(ReadResult::Success { value, .. }) => {
                success += 1;
                if value != BASELINE {
                    dirty += 1;
                }
            }
            Some(ReadResult::Unavailable) => unavailable += 1,
            other => panic!("probe at t={t} did not resolve in-window: {other:?}"),
        }
        t += PROBE_INTERVAL;
    }

    // Recovery and settlement: the healed cluster decides everything.
    for _ in 0..200 {
        if c.run_to_quiescence(10_000_000).drained() {
            break;
        }
    }
    let (metrics, violations) = c.metrics_and_violations();
    assert!(
        violations.is_empty() && c.engine_violations().is_empty(),
        "snapshot={snapshot}: atomicity violated"
    );
    assert_eq!(
        metrics.total_undecided(),
        0,
        "snapshot={snapshot}: the in-doubt transaction never resolved"
    );
    let obs = c.obs().expect("obs enabled").clone();
    Cell {
        read_path: if snapshot { "snapshot" } else { "quorum" },
        probes,
        success,
        unavailable,
        dirty,
        committed: metrics.total_committed(),
        aborted: metrics.total_aborted(),
        pinned_copy_ticks: obs.pin_time().sum(),
        blocked_windows: obs.blocked_window().count(),
        snapshot_reads_total: obs.snapshot_reads().0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Both cells ran the same schedule and saw the same real pinned
    /// window; the quorum path is `Unavailable` across all of it while
    /// every snapshot probe returns the committed baseline, and neither
    /// path ever observes the undecided write.
    #[test]
    fn snapshot_reads_answer_where_quorum_reads_cannot() {
        let (quorum, snap) = (run_cell(false), run_cell(true));
        assert!(quorum.probes > 0 && quorum.probes == snap.probes);
        for cell in [&quorum, &snap] {
            assert!(
                cell.blocked_windows > 0 && cell.pinned_copy_ticks as f64 >= PIN_LEN as f64 * 0.8,
                "{}: the in-doubt crash did not produce a real pinned window",
                cell.read_path
            );
            assert_eq!(
                cell.dirty, 0,
                "{}: a probe observed the undecided write",
                cell.read_path
            );
        }
        assert_eq!(
            quorum.unavailable, quorum.probes,
            "quorum reads must be unavailable across the whole pinned window"
        );
        assert_eq!(
            snap.unavailable, 0,
            "snapshot reads must never be unavailable while the copies are merely pinned"
        );
        assert_eq!(snap.success, snap.probes);
        assert_eq!(
            snap.snapshot_reads_total, snap.probes,
            "the observer must count every snapshot read"
        );
    }
}
