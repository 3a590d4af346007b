//! Exhaustive model checking of the commit/termination protocols on
//! small configurations.
//!
//! Every space is one row of [`SPACES`] and every seeded fault one row
//! of [`MUTANTS`]; each row expands to one `#[test]`, and one runner
//! explores them all. A space must close with no invariant violation
//! at its pinned (explored, quiescent, frontier cut) counts. A mutant
//! must fail the named invariant in each of its killer spaces at a
//! pinned explored count, and its trace must fail that invariant again
//! when replayed on a fresh host. `docs/model-checking.md` holds the
//! one copy of these numbers outside this file, checked by
//! `the_doc_tables_match_the_rows`.
//!
//! All spaces run under `FirePolicy::Lazy` — timeouts fire only at
//! network quiescence, with drop budgets covering the timeout-vs-loss
//! races — which is what makes the explorations close. The free-fire
//! semantics (clock drift, process pauses) is exercised by the pinned
//! regression schedules in `tests/mc_regressions.rs` instead.
//!
//! One row runs alone with `cargo test --release -p qbc-cluster --test
//! model_check -- <row> --nocapture`. On an unexpected violation the
//! rendered trace is appended to the file `$MC_TRACE` names, when set.

#[path = "common/mc_harness.rs"]
mod mc_harness;

use mc_harness::{
    atomicity, client_parent_host, crash_and_four_drops, crash_and_recover, decision_stability,
    lazy, one_crash, paxos_host, quiescent_termination, single_shard_host, two_shard_host,
};
use qbc_core::{ProtocolKind, TxnId};
use qbc_db::{Mutation, NodeConfig, SiteNode};
use qbc_mc::{replay, Checker, ControlledHost, HostConfig, McConfig, McReport};
use qbc_simnet::SiteId;
use std::io::Write;

type Host = ControlledHost<SiteNode>;

const QC1: ProtocolKind = ProtocolKind::QuorumCommit1;
const S0: SiteId = SiteId(0);
const S1: SiteId = SiteId(1);

/// One bounded exploration: a host, its fault budget and a depth bound.
struct Space {
    name: &'static str,
    host: fn(HostConfig, Option<Mutation>) -> Host,
    budget: fn() -> HostConfig,
    depth: usize,
}

/// A space a mutant must fail in: the states explored when the first
/// violation is found, and the invariant it breaks.
struct Killer {
    space: Space,
    explored: usize,
    invariant: &'static str,
}

fn qc1(budget: HostConfig, mutation: Option<Mutation>) -> Host {
    single_shard_host(QC1, budget, mutated(mutation))
}

fn paxos(budget: HostConfig, mutation: Option<Mutation>) -> Host {
    paxos_host(budget, mutated(mutation))
}

fn xshard(budget: HostConfig, mutation: Option<Mutation>) -> Host {
    two_shard_host(QC1, budget, mutated(mutation))
}

fn xclient(budget: HostConfig, mutation: Option<Mutation>) -> Host {
    client_parent_host(QC1, budget, mutated(mutation))
}

fn mutated(mutation: Option<Mutation>) -> impl FnMut(NodeConfig) -> NodeConfig {
    move |cfg| NodeConfig { mutation, ..cfg }
}

/// The invariants every row runs: two in every state, one at
/// quiescence.
fn checker(depth: usize) -> Checker<SiteNode> {
    Checker::new(McConfig {
        max_depth: depth,
        ..McConfig::default()
    })
    .invariant("atomicity", atomicity(vec![TxnId(1)]))
    .invariant("decision-stability", decision_stability())
    .quiescent_invariant("bounded-termination", quiescent_termination(vec![TxnId(1)]))
}

fn explore(space: &Space, mutation: Option<Mutation>) -> McReport {
    let report = checker(space.depth).run((space.host)((space.budget)(), mutation));
    println!("{}@{}: {}", space.name, space.depth, report.stats.summary());
    report
}

/// Explores a space that must close with no violation, and checks its
/// `[explored, quiescent, frontier cut]`.
fn expect_clean(space: &Space, expected: [usize; 3]) {
    let report = explore(space, None);
    if let Some(cex) = &report.violation {
        let trace = format!("{}@{}\n{}\n", space.name, space.depth, cex.render());
        if let Some(path) = std::env::var_os("MC_TRACE") {
            std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(path)
                .and_then(|mut file| file.write_all(trace.as_bytes()))
                .expect("append the trace to $MC_TRACE");
        }
        panic!("unexpected violation in {trace}");
    }
    let stats = &report.stats;
    assert!(stats.complete, "{} must finish in budget", space.name);
    assert_eq!(
        [stats.explored, stats.quiescent, stats.frontier_cut],
        expected,
        "{}: [explored, quiescent, frontier cut]",
        space.name
    );
}

/// Checks that `mutation` fails each killer's invariant at its pinned
/// count, and that the trace fails it again on a fresh host.
fn expect_killed(mutation: Mutation, killers: &[Killer]) {
    for k in killers {
        let report = explore(&k.space, Some(mutation));
        let cex = report
            .violation
            .unwrap_or_else(|| panic!("{mutation:?} survives {}", k.space.name));
        println!("{}", cex.render());
        assert_eq!(
            (cex.invariant.as_str(), report.stats.explored),
            (k.invariant, k.explored),
            "{mutation:?} in {}: (invariant, explored)",
            k.space.name
        );
        let (end, _) = replay(
            (k.space.host)((k.space.budget)(), Some(mutation)),
            &cex.schedule,
        );
        let again = checker(0).run(end).violation.map(|c| c.invariant);
        assert_eq!(
            again.as_deref(),
            Some(k.invariant),
            "{mutation:?} in {}: the replayed trace",
            k.space.name
        );
    }
}

macro_rules! spaces {
    ($($(#[$doc:meta])* $name:ident: $host:ident, $budget:expr, depth $depth:literal
        => [$explored:literal, $quiescent:literal, $cut:literal];)*) => {
        /// Every clean space, by row name.
        #[allow(non_upper_case_globals)]
        mod space {
            use super::*;
            $(pub const $name: Space = Space {
                name: stringify!($name),
                host: $host,
                budget: || $budget,
                depth: $depth,
            };)*
        }
        /// Every clean space and its `[explored, quiescent, frontier cut]`.
        const SPACES: &[(Space, [usize; 3])] = &[$((space::$name, [$explored, $quiescent, $cut])),*];
        $($(#[$doc])* #[test] fn $name() {
            expect_clean(&space::$name, [$explored, $quiescent, $cut]);
        })*
    };
}

macro_rules! mutants {
    ($($test:ident: $mutation:ident => [$($space:expr => $explored:literal, $invariant:literal;)+])*) => {
        /// Every seeded fault and the spaces that must kill it.
        const MUTANTS: &[(Mutation, &[Killer])] = &[$((Mutation::$mutation, &[$(Killer {
            space: $space,
            explored: $explored,
            invariant: $invariant,
        }),+])),*];
        $(#[test] fn $test() {
            let (_, killers) = MUTANTS.iter().find(|(m, _)| *m == Mutation::$mutation).expect("a row");
            expect_killed(Mutation::$mutation, killers);
        })*
    };
}

spaces! {
    qc1_clean: qc1, lazy(), depth 20 => [81, 4, 0];
    qc1_crash: qc1, one_crash(S0), depth 30 => [388, 12, 0];
    /// The frontier cut is the schedules where the parent died before
    /// anyone learned the outcome: the orphans retry discovery forever.
    xshard_crash: xshard, one_crash(S0), depth 40 => [180, 4, 3];
    /// The parent holds no branch, so its crash orphans both branch
    /// coordinators and they must resolve through sibling discovery.
    xclient_crash: xclient, one_crash(S0), depth 40 => [135, 4, 1];
    paxos_clean: paxos, lazy(), depth 24 => [85, 4, 0];
    /// The 2a/2b round must still choose through the remaining majority.
    paxos_acceptor_crash: paxos, one_crash(S1), depth 30 => [211, 13, 0];
    /// Leader failover: the survivors' watchdogs stand up Phase-1a
    /// recovery candidates.
    paxos_leader_crash: paxos, one_crash(S0), depth 34 => [284, 12, 0];
    /// The recovered site's engines come from its log alone, and what it
    /// re-announces must agree with what the survivors terminated to.
    qc1_crash_recover: qc1, crash_and_recover(S0), depth 40 => [83_186, 173, 0];
    paxos_leader_crash_recover: paxos, crash_and_recover(S0), depth 34 => [7_262, 134, 0];
    /// The acceptor must never break a promise or lose an acceptance an
    /// earlier incarnation logged.
    paxos_acceptor_crash_recover: paxos, crash_and_recover(S1), depth 30 => [779, 46, 0];
    /// An undecided coordination is presumed aborted, a decided one
    /// re-announced; orphans whose parent is still down are cut.
    xshard_crash_recover: xshard, crash_and_recover(S0), depth 40 => [1_022, 14, 23];
}

mutants! {
    mutant_weaken_qc1: WeakenQc1 => [
        Space { name: "qc1_crash_four_drops", host: qc1, budget: crash_and_four_drops, depth: 24 }
            => 141_975, "atomicity";
    ]
    mutant_weaken_paxos: WeakenPaxos => [
        Space { name: "paxos_crash_four_drops", host: paxos, budget: crash_and_four_drops, depth: 28 }
            => 3_909, "atomicity";
    ]
    mutant_redo_commit_as_abort: RedoCommitAsAbort => [
        space::qc1_crash_recover => 93, "atomicity";
        space::paxos_leader_crash_recover => 92, "atomicity";
        space::xshard_crash_recover => 164, "atomicity";
        space::paxos_acceptor_crash_recover => 120, "atomicity";
    ]
}

const DOC: &str = include_str!(concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../docs/",
    "model-checking.md"
));

/// The rows of the `docs/model-checking.md` table whose header starts
/// with `header`: each row's first `width` cells, without backticks,
/// spaces or thousands separators.
fn doc_rows(header: &str, width: usize) -> Vec<Vec<String>> {
    DOC.lines()
        .skip_while(|line| !line.starts_with(header))
        .skip(2)
        .take_while(|line| line.starts_with('|'))
        .map(|line| {
            let cells = line.split('|').skip(1).take(width);
            cells.map(|c| c.replace(['`', ',', ' '], "")).collect()
        })
        .collect()
}

#[test]
fn the_doc_tables_match_the_rows() {
    let spaces: Vec<Vec<String>> = SPACES
        .iter()
        .map(|(s, [explored, quiescent, cut])| {
            vec![
                s.name.to_string(),
                s.depth.to_string(),
                explored.to_string(),
                quiescent.to_string(),
                cut.to_string(),
            ]
        })
        .collect();
    assert_eq!(doc_rows("| space |", 5), spaces);
    let killers: Vec<Vec<String>> = MUTANTS
        .iter()
        .flat_map(|(mutation, killers)| {
            killers.iter().map(move |k| {
                vec![
                    format!("{mutation:?}"),
                    k.space.name.to_string(),
                    k.space.depth.to_string(),
                    k.explored.to_string(),
                    k.invariant.to_string(),
                ]
            })
        })
        .collect();
    assert_eq!(doc_rows("| mutant |", 5), killers);
}
