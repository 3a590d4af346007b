//! Deterministic fault-injection sweep for cross-shard commit: crash
//! the cross-shard coordinator, a remote branch coordinator, or a
//! branch participant at each protocol-step boundary, across fixed
//! seeds. Every cell must show **zero cross-shard atomicity
//! violations** and **eventual termination** (all surviving shards
//! reach the same decision once the crashed site recovers). A failing
//! sweep names every failed cell — target, step, seed, reasons — in
//! the assertion message.

use qbc_cluster::{ClusterConfig, SimCluster};
use qbc_core::{Decision, WriteSet};
use qbc_simnet::{SiteId, Time};
use qbc_votes::ItemId;

/// Which site the cell crashes.
#[derive(Clone, Copy, Debug)]
enum Target {
    /// The cross-shard coordinator's site (also home branch coordinator).
    XCoordinator,
    /// The remote shard's branch coordinator.
    BranchCoordinator,
    /// A plain participant of the remote shard.
    Participant,
}

/// Protocol-step boundary the crash lands on (virtual-time offsets from
/// submission, chosen to straddle the step under the default delay
/// model `[1, 10]`; the safety claim must hold wherever they land).
#[derive(Clone, Copy, Debug)]
enum Step {
    /// Before the branches' `VOTE-REQ` rounds complete.
    PrePrepare,
    /// After in-shard votes, during the prepare rounds.
    PostVote,
    /// While `X-VOTE`s converge, before the decision is forced.
    PreDecisionForce,
    /// After the cross-shard decision, during the `X-DECIDE` relay.
    PostDecision,
}

impl Step {
    fn crash_at(self) -> Time {
        match self {
            Step::PrePrepare => Time(3),
            Step::PostVote => Time(25),
            Step::PreDecisionForce => Time(48),
            Step::PostDecision => Time(80),
        }
    }
}

const TARGETS: [Target; 3] = [
    Target::XCoordinator,
    Target::BranchCoordinator,
    Target::Participant,
];
const STEPS: [Step; 4] = [
    Step::PrePrepare,
    Step::PostVote,
    Step::PreDecisionForce,
    Step::PostDecision,
];
const SEEDS: [u64; 3] = [1, 17, 4242];

struct CellOutcome {
    target: Target,
    step: Step,
    seed: u64,
    violations: usize,
    /// Every safety/liveness check the cell failed (empty in a correct
    /// run). Collected instead of asserted so the matrix always
    /// completes and the failure message records *what* broke in every
    /// cell.
    failures: Vec<String>,
}

/// Runs one matrix cell: a 2-shard cluster, one cross-shard transaction
/// under crash-fire plus background traffic, the chosen site crashed at
/// the chosen step and recovered later. Returns the cell's check
/// failures.
fn run_cell(target: Target, step: Step, seed: u64) -> CellOutcome {
    let mut c = SimCluster::new(ClusterConfig {
        shards: 2,
        seed,
        ..ClusterConfig::default()
    });
    // The transaction under fire: shards 0+1, submitted first so its
    // coordinators are deterministic (round-robin from zero — the
    // cross-shard coordinator is site 0, the remote branch coordinator
    // site 3; sites 4..6 are plain shard-1 participants).
    let hot = c.submit_at(Time(0), WriteSet::new([(ItemId(0), 77), (ItemId(8), 88)]));
    assert_eq!(hot.coordinator, SiteId(0));
    // Background traffic on both shards, one more cross-shard among it.
    for k in 0..6u64 {
        let ws = match k % 3 {
            0 => WriteSet::new([(ItemId(1 + (k % 4) as u32), k as i64)]),
            1 => WriteSet::new([(ItemId(9 + (k % 4) as u32), k as i64)]),
            _ => WriteSet::new([(ItemId(5), 50 + k as i64), (ItemId(13), 60 + k as i64)]),
        };
        c.submit_at(Time(10 + k * 35), ws);
    }

    let victim = match target {
        Target::XCoordinator => SiteId(0),
        Target::BranchCoordinator => SiteId(3),
        Target::Participant => SiteId(4),
    };
    c.sim_mut().schedule_crash(step.crash_at(), victim);
    c.sim_mut().schedule_recover(Time(900), victim);

    let mut drained = false;
    for _ in 0..100 {
        if c.run_to_quiescence(5_000_000).drained() {
            drained = true;
            break;
        }
    }
    let mut failures = Vec::new();
    if !drained {
        failures.push("never quiesced".to_string());
    }
    let (metrics, violations) = c.metrics_and_violations();
    for v in &violations {
        failures.push(format!("atomicity violation: {v:?}"));
    }
    for (site, v) in c.engine_violations() {
        failures.push(format!("engine violation at {site}: {v:?}"));
    }
    if metrics.total_undecided() != 0 {
        failures.push(format!(
            "{} transactions never terminated",
            metrics.total_undecided()
        ));
    }

    // Cross-shard agreement: every site that decided the hot
    // transaction decided the same way, across both shards.
    let hot_decision = c.decision(&hot);
    let mut deciders = 0;
    for (site, node) in c.sim().nodes() {
        if let Some(d) = node.decision(hot.txn) {
            deciders += 1;
            if Some(d) != hot_decision {
                failures.push(format!("{site} disagrees on the hot transaction"));
            }
        }
    }
    // The crashed site recovered, so at least one full shard (and with
    // a commit, both) must know the outcome.
    if deciders < 3 {
        failures.push(format!("only {deciders} sites decided the hot transaction"));
    }
    if hot_decision == Some(Decision::Commit) {
        for item in [ItemId(0), ItemId(8)] {
            let installed = c
                .sim()
                .nodes()
                .filter_map(|(_, n)| n.item_value(item))
                .any(|(_, v)| v == if item == ItemId(0) { 77 } else { 88 });
            if !installed {
                failures.push(format!("committed value of {item:?} missing"));
            }
        }
    }

    CellOutcome {
        target,
        step,
        seed,
        violations: violations.len(),
        failures,
    }
}

#[test]
fn fault_matrix_is_atomic_and_terminates_in_every_cell() {
    let mut outcomes = Vec::new();
    for seed in SEEDS {
        for target in TARGETS {
            for step in STEPS {
                outcomes.push(run_cell(target, step, seed));
            }
        }
    }
    let total_violations: usize = outcomes.iter().map(|o| o.violations).sum();
    let failed: Vec<String> = outcomes
        .iter()
        .filter(|o| !o.failures.is_empty())
        .map(|o| {
            format!(
                "[{:?} × {:?} × seed {}]: {}",
                o.target,
                o.step,
                o.seed,
                o.failures.join("; ")
            )
        })
        .collect();
    assert!(
        failed.is_empty(),
        "{} of {} cells failed:\n{}",
        failed.len(),
        outcomes.len(),
        failed.join("\n")
    );
    assert_eq!(total_violations, 0);
}
