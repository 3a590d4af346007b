//! Golden-digest determinism regression: a fixed-seed cluster scenario
//! must reproduce the exact same ordered decisions (and decision times)
//! forever. Perf refactors of the hot path (message sharing, event-loop
//! allocation changes) must not perturb the event order; this test
//! pins it.
//!
//! If this test fails after an intentional semantic change (new message
//! round, different timer arithmetic), re-derive the digest by running
//! the scenario with `QBC_PRINT_DIGEST=1` and update the constant —
//! with a commit message explaining *why* the schedule changed.

use qbc_cluster::{ClusterConfig, SimCluster};
use qbc_core::{Decision, ProtocolKind, WriteSet};
use qbc_simnet::{Duration, Fault, SiteId, Time};
use qbc_votes::ItemId;

/// The pinned digest of `scenario()` (see module docs for re-deriving).
const GOLDEN_DIGEST: u64 = 0x2bb70a66ca8e2556;

/// The pinned digest of `xshard_scenario()`: the cross-shard (two-layer
/// commit) schedule, pinned the same way. Re-derive with
/// `QBC_PRINT_XSHARD_DIGEST=1`.
const GOLDEN_XSHARD_DIGEST: u64 = 0x9b3c32b97d00abd7;

/// The pinned digest of `paxos_scenario()`: the Paxos Commit engine
/// under a leader crash, pinned the same way. Re-derive with
/// `QBC_PRINT_PAXOS_DIGEST=1`.
const GOLDEN_PAXOS_DIGEST: u64 = 0x71e157fb16e6c888;

/// The pinned digest of `retirement_scenario()`: retirement, aging and
/// checkpoints on, pinned the same way. Re-derive with
/// `QBC_PRINT_RETIREMENT_DIGEST=1`.
const GOLDEN_RETIREMENT_DIGEST: u64 = 0x4f5d3030b3431b42;

fn fnv1a(h: u64, word: u64) -> u64 {
    let mut h = h;
    for b in word.to_le_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// A deterministic mixed scenario: two shards under load, a crash and
/// recovery mid-stream (exercising the termination/election paths), no
/// RNG outside the seeded simulator.
fn scenario() -> u64 {
    let cfg = ClusterConfig {
        shards: 2,
        sites_per_shard: 3,
        replication: 3,
        items_per_shard: 12,
        seed: 42,
        ..Default::default()
    };
    let mut cluster = SimCluster::new(cfg);
    // Site 1 (shard 0) fails under load and comes back.
    cluster
        .sim_mut()
        .schedule(Time(120), Fault::Crash(SiteId(1)));
    cluster
        .sim_mut()
        .schedule(Time(700), Fault::Recover(SiteId(1)));

    let per_shard = 12u64;
    for i in 0..48u64 {
        let shard = (i % 2) as u32;
        let base = shard as u64 * per_shard;
        let a = ItemId((base + i % per_shard) as u32);
        let b = ItemId((base + (i * 5 + 1) % per_shard) as u32);
        let ws = if a == b {
            WriteSet::new([(a, i as i64)])
        } else {
            WriteSet::new([(a, i as i64), (b, (i * 31) as i64)])
        };
        cluster.submit_at(Time(i * 17), ws);
    }
    for _ in 0..50 {
        if cluster.run_to_quiescence(5_000_000).drained() {
            break;
        }
    }

    let mut digest = 0xcbf29ce484222325u64;
    let handles: Vec<_> = cluster.handles().to_vec();
    for h in &handles {
        let d = match cluster.decision(h) {
            Some(Decision::Commit) => 1u64,
            Some(Decision::Abort) => 2,
            None => 3,
        };
        let at = cluster
            .sim()
            .node(h.coordinator)
            .decided_at(h.txn)
            .map_or(0, |t| t.0);
        digest = fnv1a(digest, h.txn.0);
        digest = fnv1a(digest, d);
        digest = fnv1a(digest, at);
    }
    digest = fnv1a(digest, cluster.now().0);
    digest = fnv1a(digest, cluster.sim().events_processed());
    digest
}

/// A deterministic *cross-shard* scenario: three shards, a mixed
/// single/multi-shard workload, a crash and recovery of the busiest
/// cross-shard coordinator site mid-stream (exercising the top-level
/// presumed-abort/re-announce and outcome-discovery paths).
fn xshard_scenario() -> u64 {
    let cfg = ClusterConfig {
        shards: 3,
        sites_per_shard: 3,
        replication: 3,
        items_per_shard: 8,
        seed: 7,
        ..Default::default()
    };
    let mut cluster = SimCluster::new(cfg);
    cluster
        .sim_mut()
        .schedule(Time(150), Fault::Crash(SiteId(0)));
    cluster
        .sim_mut()
        .schedule(Time(800), Fault::Recover(SiteId(0)));

    for i in 0..36u64 {
        let ws = match i % 3 {
            // Single-shard filler.
            0 => WriteSet::new([(ItemId(((i / 3) % 24) as u32), i as i64)]),
            // Two-shard: one item on shard (i%3 derived), one on the next.
            1 => {
                let a = (i % 8) as u32;
                let b = 8 + ((i * 3) % 8) as u32;
                WriteSet::new([(ItemId(a), i as i64), (ItemId(b), (i * 7) as i64)])
            }
            // Three-shard.
            _ => WriteSet::new([
                (ItemId((i % 8) as u32), i as i64),
                (ItemId(8 + ((i + 2) % 8) as u32), (i * 11) as i64),
                (ItemId(16 + ((i + 5) % 8) as u32), (i * 13) as i64),
            ]),
        };
        cluster.submit_at(Time(i * 23), ws);
    }
    for _ in 0..50 {
        if cluster.run_to_quiescence(5_000_000).drained() {
            break;
        }
    }

    let mut digest = 0xcbf29ce484222325u64;
    let handles: Vec<_> = cluster.handles().to_vec();
    for h in &handles {
        let d = match cluster.decision(h) {
            Some(Decision::Commit) => 1u64,
            Some(Decision::Abort) => 2,
            None => 3,
        };
        let at = cluster
            .sim()
            .node(h.coordinator)
            .decided_at(h.txn)
            .map_or(0, |t| t.0);
        digest = fnv1a(digest, h.txn.0);
        digest = fnv1a(digest, d);
        digest = fnv1a(digest, at);
    }
    digest = fnv1a(digest, cluster.now().0);
    digest = fnv1a(digest, cluster.sim().events_processed());
    digest
}

/// A deterministic Paxos Commit scenario: one shard of three co-located
/// acceptors under mixed load, the ballot-0 leader site crashing
/// mid-stream and recovering (exercising Phase-1 recovery candidacy,
/// adopted-batch re-proposal, and the decided-site 1a answer).
fn paxos_scenario() -> u64 {
    let cfg = ClusterConfig {
        shards: 1,
        sites_per_shard: 3,
        replication: 3,
        items_per_shard: 12,
        protocol: ProtocolKind::PaxosCommit,
        seed: 1988,
        ..Default::default()
    };
    let mut cluster = SimCluster::new(cfg);
    cluster
        .sim_mut()
        .schedule(Time(110), Fault::Crash(SiteId(0)));
    cluster
        .sim_mut()
        .schedule(Time(750), Fault::Recover(SiteId(0)));

    for i in 0..32u64 {
        let a = ItemId((i % 12) as u32);
        let b = ItemId(((i * 7 + 3) % 12) as u32);
        let ws = if a == b {
            WriteSet::new([(a, i as i64)])
        } else {
            WriteSet::new([(a, i as i64), (b, (i * 19) as i64)])
        };
        cluster.submit_at(Time(i * 21), ws);
    }
    for _ in 0..50 {
        if cluster.run_to_quiescence(5_000_000).drained() {
            break;
        }
    }

    let mut digest = 0xcbf29ce484222325u64;
    let handles: Vec<_> = cluster.handles().to_vec();
    for h in &handles {
        let d = match cluster.decision(h) {
            Some(Decision::Commit) => 1u64,
            Some(Decision::Abort) => 2,
            None => 3,
        };
        let at = cluster
            .sim()
            .node(h.coordinator)
            .decided_at(h.txn)
            .map_or(0, |t| t.0);
        digest = fnv1a(digest, h.txn.0);
        digest = fnv1a(digest, d);
        digest = fnv1a(digest, at);
    }
    digest = fnv1a(digest, cluster.now().0);
    digest = fnv1a(digest, cluster.sim().events_processed());
    digest
}

/// A deterministic scenario on the retirement path, which the
/// scenarios above leave off: decided entries retire, their outcomes
/// age out past the horizon, and every site checkpoints. Two shards
/// under a mixed single/cross-shard load; the site coordinating most
/// cross-shard transactions crashes and recovers from its checkpoint
/// mid-stream. Besides the decisions, the digest takes every site's
/// retired-outcome counts every 50 ticks, so an outcome that ages out
/// one sweep early or late moves it, and it runs past the last horizon
/// so the tables drain.
fn retirement_scenario() -> u64 {
    let cfg = ClusterConfig {
        shards: 2,
        sites_per_shard: 3,
        replication: 3,
        items_per_shard: 8,
        seed: 29,
        ..Default::default()
    }
    .with_retirement(Duration(60))
    .with_retire_horizon(Duration(250))
    .with_checkpoints(Duration(120));
    let mut cluster = SimCluster::new(cfg);
    cluster
        .sim_mut()
        .schedule(Time(610), Fault::Crash(SiteId(0)));
    cluster
        .sim_mut()
        .schedule(Time(900), Fault::Recover(SiteId(0)));

    for i in 0..96u64 {
        let ws = if i % 3 == 1 {
            let a = (i % 8) as u32;
            let b = 8 + ((i * 3) % 8) as u32;
            WriteSet::new([(ItemId(a), i as i64), (ItemId(b), (i * 7) as i64)])
        } else {
            WriteSet::new([(ItemId(((i * 5) % 16) as u32), i as i64)])
        };
        cluster.submit_at(Time(i * 19), ws);
    }
    // A late trickle of single-shard writes keeps every site sweeping
    // until the last outcomes have aged out.
    for k in 0..10u64 {
        let ws = WriteSet::new([(ItemId(((k % 2) * 8 + k / 2) as u32), k as i64)]);
        cluster.submit_at(Time(1_900 + k * 70), ws);
    }
    let mut digest = 0xcbf29ce484222325u64;
    let mut t = 0u64;
    while t < 2_600 {
        t += 50;
        cluster.run_until(Time(t));
        for (site, node) in cluster.sim().nodes() {
            digest = fnv1a(digest, site.0 as u64);
            digest = fnv1a(digest, node.retired_len() as u64);
            digest = fnv1a(digest, node.xretired_len() as u64);
        }
    }
    for _ in 0..50 {
        if cluster.run_to_quiescence(5_000_000).drained() {
            break;
        }
    }

    let handles: Vec<_> = cluster.handles().to_vec();
    for h in &handles {
        let d = match cluster.decision(h) {
            Some(Decision::Commit) => 1u64,
            Some(Decision::Abort) => 2,
            None => 3,
        };
        digest = fnv1a(digest, h.txn.0);
        digest = fnv1a(digest, d);
    }
    digest = fnv1a(digest, cluster.now().0);
    digest = fnv1a(digest, cluster.sim().events_processed());
    digest
}

#[test]
fn fixed_seed_scenario_matches_golden_digest() {
    let digest = scenario();
    if std::env::var("QBC_PRINT_DIGEST").is_ok() {
        panic!("digest = {digest:#x}");
    }
    assert_eq!(
        digest, GOLDEN_DIGEST,
        "event schedule changed: got {digest:#x}, pinned {GOLDEN_DIGEST:#x}. \
         A perf refactor must be schedule-preserving; see module docs."
    );
}

#[test]
fn scenario_is_self_consistent_across_two_runs() {
    assert_eq!(scenario(), scenario(), "same-process nondeterminism");
}

#[test]
fn fixed_seed_xshard_scenario_matches_golden_digest() {
    let digest = xshard_scenario();
    if std::env::var("QBC_PRINT_XSHARD_DIGEST").is_ok() {
        panic!("xshard digest = {digest:#x}");
    }
    assert_eq!(
        digest, GOLDEN_XSHARD_DIGEST,
        "cross-shard event schedule changed: got {digest:#x}, pinned \
         {GOLDEN_XSHARD_DIGEST:#x}. A perf refactor must be \
         schedule-preserving; see module docs."
    );
}

#[test]
fn xshard_scenario_is_self_consistent_across_two_runs() {
    assert_eq!(
        xshard_scenario(),
        xshard_scenario(),
        "same-process nondeterminism"
    );
}

#[test]
fn fixed_seed_paxos_scenario_matches_golden_digest() {
    let digest = paxos_scenario();
    if std::env::var("QBC_PRINT_PAXOS_DIGEST").is_ok() {
        panic!("paxos digest = {digest:#x}");
    }
    assert_eq!(
        digest, GOLDEN_PAXOS_DIGEST,
        "Paxos Commit event schedule changed: got {digest:#x}, pinned \
         {GOLDEN_PAXOS_DIGEST:#x}. A perf refactor must be \
         schedule-preserving; see module docs."
    );
}

#[test]
fn paxos_scenario_is_self_consistent_across_two_runs() {
    assert_eq!(
        paxos_scenario(),
        paxos_scenario(),
        "same-process nondeterminism"
    );
}

#[test]
fn fixed_seed_retirement_scenario_matches_golden_digest() {
    let digest = retirement_scenario();
    if std::env::var("QBC_PRINT_RETIREMENT_DIGEST").is_ok() {
        panic!("retirement digest = {digest:#x}");
    }
    assert_eq!(
        digest, GOLDEN_RETIREMENT_DIGEST,
        "retirement event schedule changed: got {digest:#x}, pinned \
         {GOLDEN_RETIREMENT_DIGEST:#x}. A perf refactor must be \
         schedule-preserving; see module docs."
    );
}

#[test]
fn retirement_scenario_is_self_consistent_across_two_runs() {
    assert_eq!(
        retirement_scenario(),
        retirement_scenario(),
        "same-process nondeterminism"
    );
}
