//! Deterministic fault-injection sweep for Paxos Commit (PR-9
//! satellite, the `xshard_faults.rs` pattern applied to the sixth
//! engine): crash the leader, one acceptor (majority survives), or two
//! acceptors (majority lost) at each protocol-step boundary, across
//! fixed seeds. Every cell must show **zero atomicity violations** and
//! **eventual termination** — leader failover covers the first two
//! rows outright; the majority-lost row may only stall until the
//! acceptors recover, never decide wrongly. A failing sweep names every
//! failed cell — target, step, seed, reasons — in the assertion message.

use qbc_cluster::{ClusterConfig, SimCluster};
use qbc_core::{Decision, ProtocolKind, WriteSet};
use qbc_simnet::{SiteId, Time};
use qbc_votes::ItemId;

/// Which sites the cell crashes.
#[derive(Clone, Copy, Debug)]
enum Target {
    /// The transaction coordinator = ballot-0 Paxos leader (site 0).
    /// Its co-located acceptor dies with it; the surviving 2-of-3
    /// acceptor majority lets a recovery candidate finish.
    Coordinator,
    /// One non-leader acceptor (site 1): F = 1 failures, the quorum
    /// the protocol is sized for.
    AcceptorMajoritySurvives,
    /// Two non-leader acceptors (sites 1 and 2): only F acceptors
    /// remain, so nothing may be chosen until one recovers — the
    /// protocol must stall safely, not guess.
    AcceptorMajorityLost,
}

/// Protocol-step boundary the crashes land on (virtual-time offsets
/// from submission, chosen to straddle the step under the default
/// delay model `[1, 10]`; the safety claim must hold wherever they
/// land).
#[derive(Clone, Copy, Debug)]
enum Step {
    /// Before the `VOTE-REQ` round completes.
    PreVote,
    /// After the votes, while the Phase-2a batch and 2b echoes fly.
    ProposalInFlight,
    /// After the decision, during the commit/abort announcements.
    PostDecision,
}

impl Step {
    fn crash_at(self) -> Time {
        match self {
            Step::PreVote => Time(3),
            Step::ProposalInFlight => Time(25),
            Step::PostDecision => Time(70),
        }
    }
}

const TARGETS: [Target; 3] = [
    Target::Coordinator,
    Target::AcceptorMajoritySurvives,
    Target::AcceptorMajorityLost,
];
const STEPS: [Step; 3] = [Step::PreVote, Step::ProposalInFlight, Step::PostDecision];
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

/// Runs one matrix cell: a single-shard 3-site Paxos Commit cluster,
/// one transaction under fire plus background traffic, the chosen
/// sites crashed at the chosen step and recovered later. Returns the
/// cell's check failures.
fn run_cell(target: Target, step: Step, seed: u64) -> CellOutcome {
    let mut c = SimCluster::new(ClusterConfig {
        shards: 1,
        protocol: ProtocolKind::PaxosCommit,
        seed,
        ..ClusterConfig::default()
    });
    // The transaction under fire, submitted first so its coordinator
    // is deterministic (round-robin from zero: site 0, which is also
    // the ballot-0 leader and one of the three co-located acceptors).
    let hot = c.submit_at(Time(0), WriteSet::new([(ItemId(0), 77)]));
    assert_eq!(hot.coordinator, SiteId(0));
    // Background traffic so the sweep exercises acceptor-table
    // bookkeeping across transactions, not a single pristine instance.
    for k in 0..5u64 {
        let ws = WriteSet::new([(ItemId(1 + (k % 4) as u32), k as i64)]);
        c.submit_at(Time(10 + k * 35), ws);
    }

    let victims: &[SiteId] = match target {
        Target::Coordinator => &[SiteId(0)],
        Target::AcceptorMajoritySurvives => &[SiteId(1)],
        Target::AcceptorMajorityLost => &[SiteId(1), SiteId(2)],
    };
    for (i, &v) in victims.iter().enumerate() {
        c.sim_mut().schedule_crash(step.crash_at(), v);
        // Staggered recovery keeps the two majority-lost corpses from
        // reappearing in lockstep.
        c.sim_mut().schedule_recover(Time(900 + i as u64 * 60), v);
    }

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

    // Agreement: somebody decided the hot transaction, every site that
    // decided it agrees, and no site is left knowing the transaction
    // without a verdict after recovery. A site that crashed before its
    // `VOTE-REQ` arrived legitimately never learns the transaction
    // exists — presumed abort covers it, so it owes no decision.
    let hot_decision = c.decision(&hot);
    if hot_decision.is_none() {
        failures.push("no site ever decided the hot transaction".to_string());
    }
    for (site, node) in c.sim().nodes() {
        match node.decision(hot.txn) {
            Some(d) if Some(d) != hot_decision => {
                failures.push(format!("{site} disagrees on the hot transaction"));
            }
            None if node.known_txns().contains(&hot.txn) => {
                failures.push(format!(
                    "{site} knows the hot transaction but never decided it"
                ));
            }
            _ => {}
        }
    }
    if hot_decision == Some(Decision::Commit) {
        let installed = c
            .sim()
            .nodes()
            .filter_map(|(_, n)| n.item_value(ItemId(0)))
            .any(|(_, v)| v == 77);
        if !installed {
            failures.push("committed value of x0 missing".to_string());
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
fn paxos_fault_matrix_is_atomic_and_terminates_in_every_cell() {
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
