//! `paper_figures [name…]` — every artifact this reproduction claims,
//! printed as tables and checked.
//!
//! | Name | Artifact |
//! |---|---|
//! | `e1` | Example 1 / Fig. 3 — Skeen `[16]` blocks all partitions |
//! | `e2` | Example 2 — 3PC terminates inconsistently |
//! | `e3` | Example 3 / Fig. 7 — the PC/PA wall under two coordinators |
//! | `e4` | Example 4 — TP1 restores availability |
//! | `e5` | Fig. 4 — empirical concurrency sets |
//! | `e6` | Fig. 6 — state-transition conformance audit |
//! | `e7` | Figs. 1/2/9 — commit latency & message counts |
//! | `e8` | §1/§5 claim — Monte-Carlo availability |
//! | `e9` | §3.2/§5 claim — failure vulnerability window |
//! | `e10` | Example 3 generalized — mutual-ignore-rule ablation |
//! | `e11` | extension — transaction-stream throughput per protocol |
//! | `e12` | Figs. 1/2/9 as executed message sequence charts |
//! | `e13` | extension — cluster throughput under group commit |
//! | `e16` | extension — phases, blocking, messages and forces, six engines |
//! | `e17` | extension — quorum vs snapshot reads under pinned copies |
//!
//! With no argument every artifact runs, in that order. The exit code
//! is 1, and stderr names the artifact, when one prints `MISMATCH` or
//! fails an assertion; the rest still run. Everything is virtual-time
//! deterministic: two runs print the same bytes.

use qbc_core::partition_state::{paper_concurrency_claims, Ps};
use qbc_core::{FaultyMode, LocalState, ProtocolKind, TxnId, WriteSet};
use qbc_harness::audit::TransitionAudit;
use qbc_harness::cluster_load::{
    run_cluster_load, ClusterLoadConfig, ClusterLoadReport, E13_FORCE_LATENCY,
};
use qbc_harness::concurrency::enumerate;
use qbc_harness::latency::measure;
use qbc_harness::montecarlo::{random_failure_scenario, sweep, vulnerable_at, MonteCarloConfig};
use qbc_harness::msc::render_filtered;
use qbc_harness::paper::{example_catalog, fig3_scenario, fig7_scenario, ITEM_X, ITEM_Y, TR};
use qbc_harness::scenario::Scenario;
use qbc_harness::table::Table;
use qbc_harness::workload::{run_workload, WorkloadConfig};
use qbc_harness::{protocol_metrics, read_availability};
use qbc_simnet::{sites, SiteId, Time};
use qbc_votes::{CatalogBuilder, ItemId};
use std::process::ExitCode;

/// A named artifact; the function prints it and says whether it
/// reproduced.
type Artifact = (&'static str, fn() -> bool);

const ARTIFACTS: [Artifact; 15] = [
    ("e1", e1),
    ("e2", e2),
    ("e3", e3),
    ("e4", e4),
    ("e5", e5),
    ("e6", e6),
    ("e7", e7),
    ("e8", e8),
    ("e9", e9),
    ("e10", e10),
    ("e11", e11),
    ("e12", e12),
    ("e13", e13),
    ("e16", e16),
    ("e17", e17),
];

/// Prints an artifact's closing line — `claim`, then the verdict — and
/// returns the verdict: the word printed and the exit code cannot
/// disagree.
fn conclude(claim: &str, ok: bool) -> bool {
    println!("{claim}{}", if ok { "REPRODUCED" } else { "MISMATCH" });
    ok
}

/// Example 1 / Fig. 3: Skeen's quorum protocol `[16]` blocks every
/// partition, making x and y inaccessible everywhere.
fn e1() -> bool {
    println!("E1 — Example 1 (Fig. 3): Skeen [16], Vc=5, Va=4, 8 unit-vote sites");
    println!("TR updates x (copies s1–s4) and y (copies s5–s8), r=2, w=3.");
    println!("Coordinator s1 crashes mid-prepare; partition G1/G2/G3.\n");

    let out = fig3_scenario(ProtocolKind::SkeenQuorum, 1).run();
    let v = out.verdict(TxnId(TR));

    let mut t = Table::new(&["partition", "members", "TR outcome"]);
    for (i, comp) in out.live_components().iter().enumerate() {
        let members: Vec<String> = comp.iter().map(|s| s.to_string()).collect();
        let outcome = if comp.iter().any(|s| v.committed.contains(s)) {
            "COMMITTED"
        } else if comp.iter().any(|s| v.aborted.contains(s)) {
            "ABORTED"
        } else {
            "BLOCKED"
        };
        t.row(&[&format!("G{}", i + 1), &members.join(","), &outcome]);
    }
    println!("{t}");

    let report = out.availability(&example_catalog());
    println!("Accessibility after termination (paper: x,y inaccessible everywhere):");
    println!("{report}");
    let x_anywhere = report.readable_somewhere(ITEM_X) || report.writable_somewhere(ITEM_X);
    let y_anywhere = report.readable_somewhere(ITEM_Y) || report.writable_somewhere(ITEM_Y);
    println!("x accessible anywhere: {x_anywhere}   y accessible anywhere: {y_anywhere}");
    conclude(
        "\npaper expectation: TR blocked in all partitions, zero accessibility -> ",
        v.committed.is_empty() && v.aborted.is_empty() && !x_anywhere && !y_anywhere,
    )
}

/// Example 2: the same Fig. 3 failure under 3PC's site-failure-only
/// termination protocol terminates TR *inconsistently*: G2 (which holds
/// the PC witness s5) commits while G1 and G3 abort.
fn e2() -> bool {
    println!("E2 — Example 2: 3PC + its termination protocol under the Fig. 3 failure");
    println!("(the 3PC termination rule: any PC or C in the partition => commit; else abort)\n");

    let out = fig3_scenario(ProtocolKind::ThreePhase, 1).run();
    let v = out.verdict(TxnId(TR));

    let mut t = Table::new(&["site", "decision"]);
    for (site, node) in out.sim.nodes() {
        let d = node
            .decision(TxnId(TR))
            .map(|d| d.to_string())
            .unwrap_or_else(|| "-".into());
        t.row(&[&site, &d]);
    }
    println!("{t}");
    println!("committed at {:?}, aborted at {:?}", v.committed, v.aborted);
    conclude(
        "\npaper expectation: G2 = {s4,s5} commits, G1/G3 abort — INCONSISTENT -> ",
        !v.consistent && v.committed.contains(&SiteId(4)) && v.committed.contains(&SiteId(5)),
    )
}

/// Example 3 / Fig. 7: two termination coordinators race in one healed
/// partition under adversarial message loss. A participant that answers
/// prepares across the PC/PA wall (the "faulty" variant the paper warns
/// against) produces an inconsistent termination; the correct
/// mutual-ignore rule keeps the run safe.
fn e3() -> bool {
    println!("E3 — Example 3 (Fig. 7): the PC/PA mutual-ignore rule");
    println!("TR at s1 over x,y with copies at s2–s5 (r=2, w=3); s2↔s3 and s2↔s5 lost;\ncoordinator crash + partition {{s1,s2}}|{{s3,s4,s5}}, heal mid-election.\n");

    let mut t = Table::new(&["variant", "committed", "aborted", "consistent"]);
    let [correct, faulty] = [
        ("correct (Fig. 6 rule)", FaultyMode::Correct),
        ("faulty (answers across wall)", FaultyMode::AnswerAcrossWall),
    ]
    .map(|(label, mode)| {
        let v = fig7_scenario(mode, 1).run().verdict(TxnId(TR));
        t.row(&[
            &label,
            &format!("{:?}", v.committed),
            &format!("{:?}", v.aborted),
            &v.consistent,
        ]);
        v.consistent
    });
    println!("{t}");
    conclude(
        "paper expectation: faulty variant inconsistent, correct variant safe -> ",
        correct && !faulty,
    )
}

/// Example 4: the same Fig. 3 failure under QC1 + Termination
/// Protocol 1. G1 and G3 both form *abort quorums* (per-item votes!),
/// so TR terminates there and releases its locks: x becomes readable in
/// G1 and y writable in G3, while G2 stays blocked.
fn e4() -> bool {
    println!("E4 — Example 4: 3PC-shaped QC1 + TP1 under the Fig. 3 failure\n");

    let out = fig3_scenario(ProtocolKind::QuorumCommit1, 1).run();
    let v = out.verdict(TxnId(TR));

    let mut t = Table::new(&[
        "partition",
        "TR outcome",
        "x read",
        "x write",
        "y read",
        "y write",
    ]);
    let cat = example_catalog();
    let report = out.availability(&cat);
    for (i, comp) in out.live_components().iter().enumerate() {
        let any = *comp.iter().next().expect("non-empty");
        let outcome = if comp.iter().any(|s| v.aborted.contains(s)) {
            "ABORTED"
        } else if comp.iter().any(|s| v.committed.contains(s)) {
            "COMMITTED"
        } else {
            "BLOCKED"
        };
        let ax = report.at_site(any, ITEM_X).unwrap();
        let ay = report.at_site(any, ITEM_Y).unwrap();
        t.row(&[
            &format!("G{}", i + 1),
            &outcome,
            &ax.readable,
            &ax.writable,
            &ay.readable,
            &ay.writable,
        ]);
    }
    println!("{t}");

    let g1_x = report.at_site(SiteId(2), ITEM_X).unwrap();
    let g3_y = report.at_site(SiteId(6), ITEM_Y).unwrap();
    let g2_blocked = v.undecided.contains(&SiteId(4)) && v.undecided.contains(&SiteId(5));
    conclude(
        "paper expectation: G1/G3 abort; x readable in G1; y updatable in G3; G2 blocked -> ",
        v.consistent && g1_x.readable && g3_y.writable && g2_blocked,
    )
}

/// Fig. 4: the concurrency sets of partition states, re-derived by
/// exhaustive enumeration of interrupted 3PC runs.
fn e5() -> bool {
    println!("E5 — Fig. 4: partition states PS1–PS6 and their concurrency sets");
    println!("(enumerating interruption time × partition shape × vote script × prepare loss)\n");

    let rel = enumerate();

    let mut t = Table::new(&["PS", "observed concurrent with"]);
    for a in Ps::ALL {
        let with: Vec<String> = Ps::ALL
            .into_iter()
            .filter(|b| rel.pairs.contains(&(a, *b)))
            .map(|b| b.to_string())
            .collect();
        t.row(&[&a, &with.join(", ")]);
    }
    println!("{t}");

    println!("paper-stated relations and their witnesses:");
    let mut t = Table::new(&["claim", "status", "witness"]);
    for (a, b) in paper_concurrency_claims() {
        let status = if rel.pairs.contains(&(*a, *b)) {
            "observed"
        } else {
            "MISSING"
        };
        let witness = rel.witnesses.get(&(*a, *b)).cloned().unwrap_or_default();
        t.row(&[&format!("{a} ∈ C({b})"), &status, &witness]);
    }
    println!("{t}");
    println!(
        "fatal pair PS2/PS5 observed (the impossibility argument's core): {}",
        rel.pairs.contains(&(Ps::Ps2, Ps::Ps5))
    );
    conclude(
        "\npaper expectation: all stated relations observed -> ",
        rel.covers_paper_claims(),
    )
}

/// Fig. 6: state-transition conformance. Randomized fault-injected runs
/// across all protocols; every participant state transition is audited
/// against the Fig. 6 relation (notably: no PC↔PA).
fn e6() -> bool {
    println!("E6 — Fig. 6: state-transition diagram conformance audit\n");

    let mut audit = TransitionAudit::default();

    // Randomized failure runs across every protocol.
    let cfg = MonteCarloConfig {
        heal_at: Some(1_500),
        recover_at: Some(1_800),
        run_until: 6_000,
        ..Default::default()
    };
    for p in ProtocolKind::ALL {
        for seed in 0..40u64 {
            audit.absorb(&random_failure_scenario(p, &cfg, seed).run(), TxnId(1));
        }
    }
    // Plus the deterministic paper scenarios and the correct Fig. 7 run.
    for p in ProtocolKind::ALL {
        audit.absorb(&fig3_scenario(p, 1).run(), TxnId(TR));
    }
    audit.absorb(&fig7_scenario(FaultyMode::Correct, 1).run(), TxnId(TR));

    let mut t = Table::new(&["transition", "count", "legal per Fig. 6"]);
    for ((from, to), n) in &audit.counts {
        t.row(&[
            &format!("{from} -> {to}"),
            n,
            &LocalState::legal_transition(*from, *to),
        ]);
    }
    println!("{t}");
    println!(
        "illegal transitions in correct-mode runs: {}",
        audit.illegal.len()
    );

    // The faulty variant must, by contrast, cross the PC/PA wall.
    let mut faulty = TransitionAudit::default();
    faulty.absorb(
        &fig7_scenario(FaultyMode::AnswerAcrossWall, 1).run(),
        TxnId(TR),
    );
    println!(
        "faulty variant crosses the PC/PA wall (expected true): {}",
        faulty.crossed_the_wall()
    );
    conclude(
        "\npaper expectation: zero illegal transitions under the correct rule -> ",
        audit.clean() && faulty.crossed_the_wall(),
    )
}

/// Figs. 1/2/9 and the §3.2/§5 speed claim: failure-free commit latency
/// and message counts per protocol, swept over cluster size.
///
/// Expected shape: 2PC fastest (blocking); QC2 < QC1 ≤ 3PC among the
/// nonblocking protocols, because QC2's commit point needs only `r(x)`
/// PC-ACK votes of some item while QC1 needs `w(x)` of every item and
/// 3PC needs all acks.
fn e7() -> bool {
    println!("E7 — commit latency (virtual ticks, mean over 50 seeds) and messages");
    println!("single item replicated at all sites; delays uniform in [1, T=10]\n");

    for (r, w, label) in [(2u32, 6u32, "write-skewed r=2"), (3, 5, "balanced r=3")] {
        println!("--- 7 sites, {label}, w={w} ---");
        let mut t = Table::new(&["protocol", "client latency", "global latency", "messages"]);
        for p in ProtocolKind::ALL {
            // Skeen's site votes are chosen internally by `measure`
            // (majority); the per-item quorums apply to every protocol.
            let pt = measure(p, 7, r, w, 0..50);
            t.row(&[
                &p.name(),
                &format!("{:.1}", pt.coordinator_latency),
                &format!("{:.1}", pt.global_latency),
                &format!("{:.1}", pt.messages),
            ]);
        }
        println!("{t}");
    }

    println!("--- scaling: QC2 vs QC1 vs 3PC client latency by cluster size (r=2, w=n-1) ---");
    let mut t = Table::new(&["sites", "2PC", "3PC", "QC1+TP1", "QC2+TP2"]);
    for n in [4u32, 6, 8, 10, 12] {
        let row: Vec<String> = [
            ProtocolKind::TwoPhase,
            ProtocolKind::ThreePhase,
            ProtocolKind::QuorumCommit1,
            ProtocolKind::QuorumCommit2,
        ]
        .into_iter()
        .map(|p| format!("{:.1}", measure(p, n, 2, n - 1, 0..30).coordinator_latency))
        .collect();
        t.row_strings(std::iter::once(n.to_string()).chain(row).collect());
    }
    println!("{t}");

    let p2 = measure(ProtocolKind::TwoPhase, 7, 2, 6, 0..50).coordinator_latency;
    let p3 = measure(ProtocolKind::ThreePhase, 7, 2, 6, 0..50).coordinator_latency;
    let q1 = measure(ProtocolKind::QuorumCommit1, 7, 2, 6, 0..50).coordinator_latency;
    let q2 = measure(ProtocolKind::QuorumCommit2, 7, 2, 6, 0..50).coordinator_latency;
    conclude(
        "\npaper expectation: 2PC < QC2 < QC1 <= 3PC -> ",
        p2 < q2 && q2 < q1 && q1 <= p3 + 1e-9,
    )
}

/// The paper's central availability claim, quantified: across random
/// coordinator-crash + partition schedules, TP1/TP2 leave more
/// `(partition, item)` pairs readable/writable and fewer runs blocked
/// than Skeen's site-vote protocol; 3PC never blocks but violates
/// atomicity; 2PC blocks the most.
fn e8() -> bool {
    println!("E8 — Monte-Carlo availability under coordinator crash + partition");
    let runs = 300;

    for components in [2usize, 3, 4] {
        let cfg = MonteCarloConfig {
            components,
            ..Default::default()
        };
        println!(
            "\n--- {runs} runs, 8 sites, 2 items × 4 copies (r=2, w=3), {components}-way partition ---"
        );
        let mut t = Table::new(&[
            "protocol",
            "blocked runs",
            "terminated runs",
            "violations",
            "readable frac",
            "writable frac",
        ]);
        for p in ProtocolKind::ALL {
            let a = sweep(p, &cfg, runs);
            t.row(&[
                &p.name(),
                &format!("{:.1}%", a.blocked_rate * 100.0),
                &format!("{:.1}%", a.decided_rate * 100.0),
                &format!("{:.1}%", a.violation_rate * 100.0),
                &format!("{:.3}", a.mean_readable),
                &format!("{:.3}", a.mean_writable),
            ]);
        }
        println!("{t}");
    }

    let cfg = MonteCarloConfig {
        components: 3,
        ..Default::default()
    };
    let skeen = sweep(ProtocolKind::SkeenQuorum, &cfg, runs);
    let tp1 = sweep(ProtocolKind::QuorumCommit1, &cfg, runs);
    let tp2 = sweep(ProtocolKind::QuorumCommit2, &cfg, runs);
    let p3 = sweep(ProtocolKind::ThreePhase, &cfg, runs);
    println!(
        "\npaper expectations: TP1/TP2 ≥ Skeen on availability ({:.3}/{:.3} vs {:.3});",
        tp1.mean_readable, tp2.mean_readable, skeen.mean_readable
    );
    println!(
        "  correct protocols never violate (TP1 {:.1}%, TP2 {:.1}%, Skeen {:.1}%); 3PC violates under partitions ({:.1}%)",
        tp1.violation_rate * 100.0,
        tp2.violation_rate * 100.0,
        skeen.violation_rate * 100.0,
        p3.violation_rate * 100.0
    );
    conclude(
        "-> ",
        tp1.mean_readable >= skeen.mean_readable
            && tp2.mean_readable >= skeen.mean_readable
            && tp1.violation_rate == 0.0
            && tp2.violation_rate == 0.0
            && skeen.violation_rate == 0.0
            && p3.violation_rate > 0.0,
    )
}

/// "Commit protocol 2 runs faster, which ... makes transactions less
/// susceptible to failures" (§3.2/§5). A coordinator crash + 2-way
/// partition is injected at each instant `t` of the commit run, and the
/// probability (over random partition shapes) that some participant is
/// left undecided is measured.
fn e9() -> bool {
    println!("E9 — vulnerability window: P(blocked | failure at t), 30 shapes per point\n");
    let protocols = [
        ProtocolKind::SkeenQuorum,
        ProtocolKind::QuorumCommit1,
        ProtocolKind::QuorumCommit2,
    ];
    // With delays uniform in [1, T=10], votes are all in by ≈2T and the
    // prepare round begins; failures from t ≥ 20 strike the *commit
    // phase* the paper's speed claim is about.
    const PREPARE_ONSET: u64 = 20;
    let mut t = Table::new(&["t", "Skeen-QC", "QC1+TP1", "QC2+TP2"]);
    let mut full = [0.0f64; 3];
    let mut commit_phase = [0.0f64; 3];
    for inject in (5..=60u64).step_by(5) {
        let mut cells = vec![inject.to_string()];
        for (i, p) in protocols.into_iter().enumerate() {
            let blocked = (0..30u64)
                .filter(|&seed| vulnerable_at(p, inject, seed))
                .count();
            let frac = blocked as f64 / 30.0;
            full[i] += frac;
            if inject >= PREPARE_ONSET {
                commit_phase[i] += frac;
            }
            cells.push(format!("{:.2}", frac));
        }
        t.row_strings(cells);
    }
    println!("{t}");
    println!(
        "integrated vulnerability, full window:   Skeen {:.2}, QC1 {:.2}, QC2 {:.2}",
        full[0], full[1], full[2]
    );
    println!(
        "integrated vulnerability, commit phase (t ≥ {PREPARE_ONSET}): Skeen {:.2}, QC1 {:.2}, QC2 {:.2}",
        commit_phase[0], commit_phase[1], commit_phase[2]
    );
    println!("\nobserved trade-off: QC2 closes its window earliest — its commit");
    println!("point needs only r(x) acks — but TP2's abort rule (w(x) of every");
    println!("item) is weaker than TP1's before the prepare round, so QC2 is more");
    println!("exposed to very early failures.");
    // The paper's two susceptibility claims: (§3.2/§5) protocol 2 is
    // less susceptible than protocol 1 because its commit protocol runs
    // faster — a commit-phase statement; and (§1/§5) the per-item
    // protocols block less than Skeen's site-vote protocol overall.
    let qc2_beats_qc1 = commit_phase[2] <= commit_phase[1] + 1e-9;
    let quorum_beats_skeen = full[1] <= full[0] + 1e-9 && full[2] <= full[0] + 1e-9;
    conclude(
        &format!(
            "\npaper expectations: commit-phase QC2 ≤ QC1 ({qc2_beats_qc1}) and \
             full-window QC1,QC2 ≤ Skeen ({quorum_beats_skeen}) -> "
        ),
        qc2_beats_qc1 && quorum_beats_skeen,
    )
}

/// Ablation of the PC/PA mutual-ignore rule (Example 3 generalized):
/// the Fig. 7 two-coordinator race across seeds and jittered delays,
/// with the rule on and off, counting atomicity violations.
fn e10() -> bool {
    /// `(violations, undecided runs)` over `seeds` runs.
    fn run_rate(mode: FaultyMode, jitter: bool, seeds: u32) -> (u32, u32) {
        let mut violations = 0;
        let mut undecided = 0;
        for seed in 0..seeds {
            let mut s = fig7_scenario(mode, seed as u64);
            if jitter {
                // Jitter: delays uniform in [8, 10] instead of constant
                // 10 — shifts the race interleavings across seeds.
                s.min_delay = qbc_simnet::Duration(8);
            }
            let out = s.run();
            let v = out.verdict(TxnId(TR));
            if !v.consistent {
                violations += 1;
            }
            if !v.undecided.is_empty() {
                undecided += 1;
            }
        }
        (violations, undecided)
    }

    println!("E10 — ablation: participants answering prepares across the PC/PA wall");
    println!("Fig. 7 two-coordinator race, 60 seeds, constant and jittered delays\n");

    let seeds = 60;
    let mut t = Table::new(&["variant", "delays", "violations", "undecided runs"]);
    for (mode, label) in [
        (FaultyMode::Correct, "correct (rule on)"),
        (FaultyMode::AnswerAcrossWall, "faulty (rule off)"),
    ] {
        for (jitter, dl) in [(false, "constant T"), (true, "uniform [0.8T, T]")] {
            let (v, u) = run_rate(mode, jitter, seeds);
            t.row(&[
                &label,
                &dl,
                &format!("{v}/{seeds}"),
                &format!("{u}/{seeds}"),
            ]);
        }
    }
    println!("{t}");

    let (v_correct, _) = run_rate(FaultyMode::Correct, false, seeds);
    let (v_correct_j, _) = run_rate(FaultyMode::Correct, true, seeds);
    let (v_faulty, _) = run_rate(FaultyMode::AnswerAcrossWall, false, seeds);
    conclude(
        "\npaper expectation: rule on -> zero violations; rule off -> violations occur -> ",
        v_correct == 0 && v_correct_j == 0 && v_faulty > 0,
    )
}

/// Extension: transaction-stream throughput per protocol, with and
/// without a coordinator crash mid-stream. Supports the paper's
/// introduction: concurrent execution provides throughput, and the
/// commit/termination protocol determines how much of it survives
/// failures.
fn e11() -> bool {
    println!("E11 — workload throughput: 40 transactions, 8 sites, 6 items × 4 copies");
    println!("(r=2, w=3, 2 items per transaction, one submission per 120 ticks)\n");

    for crash in [false, true] {
        println!(
            "--- {} ---",
            if crash {
                "with coordinator crash mid-stream (recovers +600 ticks)"
            } else {
                "failure-free"
            }
        );
        let mut t = Table::new(&[
            "protocol",
            "committed",
            "aborted",
            "undecided",
            "mean latency",
            "msgs/txn",
            "commits/kilotick",
        ]);
        for p in ProtocolKind::ALL {
            let cfg = WorkloadConfig {
                protocol: p,
                crash_mid_stream: crash,
                ..Default::default()
            };
            let r = run_workload(&cfg);
            assert!(r.consistent, "{} went inconsistent", p.name());
            t.row(&[
                &p.name(),
                &r.committed,
                &r.aborted,
                &r.undecided,
                &format!("{:.1}", r.mean_commit_latency),
                &format!("{:.1}", r.messages_per_txn),
                &format!("{:.2}", r.throughput),
            ]);
        }
        println!("{t}");
    }
    println!("expected shape: 2PC cheapest messages and latency; QC2 fastest of the");
    println!("nonblocking protocols; the crash dents in-flight transactions only.");
    true
}

/// Figs. 1, 2 and 9 regenerated as *executed* message sequence charts:
/// one failure-free transaction per protocol on four sites, every
/// delivered protocol message drawn in delivery order.
fn e12() -> bool {
    const PROTO_LABELS: [&str; 9] = [
        "VOTE-REQ",
        "VOTE-YES",
        "VOTE-NO",
        "PREPARE-TO-COMMIT",
        "PC-ACK",
        "PREPARE-TO-ABORT",
        "PA-ACK",
        "COMMIT",
        "ABORT",
    ];

    /// `variable_delays` staggers message arrivals (uniform `[2, T]`,
    /// fixed seed) so the quorum protocols' early commit point — "the
    /// coordinator can send out commit commands before all the PC-ACKs
    /// are received" (Fig. 9) — becomes visible in the chart: COMMIT
    /// rows appear before the final PC-ACK rows.
    fn chart_for(protocol: ProtocolKind, variable_delays: bool) -> String {
        let catalog = CatalogBuilder::new()
            .item(ItemId(0), "x")
            .copies_at(sites(4))
            .quorums(2, 3)
            .build()
            .unwrap();
        let mut s = Scenario::new(format!("fig/{}", protocol.name()), catalog, sites(4)).submit(
            Time(0),
            SiteId(0),
            1,
            WriteSet::new([(ItemId(0), 1)]),
            protocol,
        );
        if variable_delays {
            s.seed = 11;
        } else {
            s = s.constant_delays();
        }
        if protocol == ProtocolKind::SkeenQuorum {
            s.site_votes = Some(qbc_core::SiteVotes::uniform(sites(4), 3, 2));
        }
        s.run_until = Time(500);
        let out = s.run();
        render_filtered(out.sim.trace(), &sites(4), &PROTO_LABELS)
    }

    println!("E12 — the protocol diagrams (Figs. 1, 2, 9), regenerated from runs");
    println!("(four sites, one item with copies everywhere, r=2, w=3, constant T)\n");
    for (p, variable, fig) in [
        (ProtocolKind::TwoPhase, false, "Fig. 1 — two-phase commit"),
        (
            ProtocolKind::ThreePhase,
            false,
            "Fig. 2 — three-phase commit",
        ),
        (
            ProtocolKind::QuorumCommit1,
            true,
            "Fig. 9 — quorum commit protocol 1 (commit at w(x) acks; staggered delays)",
        ),
        (
            ProtocolKind::QuorumCommit2,
            true,
            "Fig. 9 — quorum commit protocol 2 (commit at r(x) acks; staggered delays)",
        ),
    ] {
        println!("--- {fig} ---");
        println!("{}", chart_for(p, variable));
    }
    println!("note: s0 coordinates; its self-addressed messages are handled locally");
    println!("and do not appear on the wire — exactly as the paper draws them.");
    true
}

/// Extension: cluster throughput under group commit.
///
/// Gray & Lamport ("Consensus on Transaction Commit") observe that
/// commit cost is dominated by log forces and message rounds. Many
/// concurrent client sessions drive the sharded cluster runtime over a
/// log device whose force costs real (virtual) time, under per-record
/// forcing and under group-commit batching.
///
/// Expected shape: at low concurrency the two are close (little to
/// batch); at high concurrency the serial log device saturates under
/// per-record forcing while group commit amortizes one force over many
/// records, keeping committed throughput up — the bar is ≥ 2× committed
/// transactions per kilotick at 64 clients.
fn e13() -> bool {
    fn row(t: &mut Table, name: &str, r: &ClusterLoadReport) {
        assert!(r.consistent, "{name}: cluster went inconsistent");
        t.row(&[
            &name,
            &r.submitted,
            &r.committed,
            &r.aborted,
            &r.undecided,
            &format!("{:.1}", r.mean_latency),
            &r.p50_latency,
            &r.p99_latency,
            &r.wal_forces,
            &format!("{:.2}", r.committed_per_kilotick),
        ]);
    }

    println!("E13 — sharded cluster throughput: per-record forcing vs group commit");
    println!(
        "(4 shards x 3 sites, 48 items/shard, QC2, force latency {E13_FORCE_LATENCY} ticks, \
         4 txns/client, 2 items/txn)\n"
    );

    let mut ratio_at_64 = 0.0;
    // Think time shrinks as concurrency grows: each row offers a harder
    // aggregate load, not just more clients submitting the same stream.
    for (clients, think_time) in [(8u32, 200u64), (64, 60), (96, 60)] {
        println!("--- {clients} concurrent clients (think {think_time}) ---");
        let mut t = Table::new(&[
            "force policy",
            "submitted",
            "committed",
            "aborted",
            "undecided",
            "mean lat",
            "p50",
            "p99",
            "forces",
            "commits/kilotick",
        ]);
        let plain = run_cluster_load(&ClusterLoadConfig::e13(clients, think_time, false));
        let batched = run_cluster_load(&ClusterLoadConfig::e13(clients, think_time, true));
        row(&mut t, "per-record", &plain);
        row(&mut t, "group-commit", &batched);
        println!("{t}");
        let ratio = if plain.committed_per_kilotick > 0.0 {
            batched.committed_per_kilotick / plain.committed_per_kilotick
        } else {
            f64::INFINITY
        };
        let batching = batched
            .metrics
            .shards
            .iter()
            .map(|s| s.records_per_force())
            .fold(0.0f64, f64::max);
        println!(
            "speedup x{ratio:.2}   (batched: up to {batching:.1} records/force, \
             forces {} -> {})\n",
            plain.wal_forces, batched.wal_forces
        );
        if clients == 64 {
            ratio_at_64 = ratio;
        }
    }

    let ok = ratio_at_64 >= 2.0;
    println!(
        "acceptance: group commit x{ratio_at_64:.2} >= x2.0 at 64 clients — {}",
        if ok { "OK" } else { "MISMATCH" }
    );
    ok
}

/// Extension: the [`protocol_metrics`] grid — the identical schedule
/// under each of the six engines, a fault-free and a coordinator-crash
/// cell each.
fn e16() -> bool {
    println!("E16 — protocol metrics: phase breakdown, blocking, messages, forces");
    println!(
        "(1 shard x 3 sites, r=w=2, {} clients x {} txns, \
         identical schedule per cell)\n",
        protocol_metrics::CLIENTS,
        protocol_metrics::TXNS_PER_CLIENT
    );
    println!(
        "{:<16} {:<6} {:>6} {:>6} {:>7} {:>7} {:>9} {:>9} {:>9} {:>10} {:>10}",
        "protocol",
        "cell",
        "commit",
        "abort",
        "msgs",
        "forces",
        "vote p99",
        "e2e p50",
        "e2e p99",
        "blocked",
        "pinned",
    );
    for protocol in protocol_metrics::PROTOCOLS {
        for crash in [false, true] {
            let cell = protocol_metrics::run_cell(protocol, crash);
            println!(
                "{:<16} {:<6} {:>6} {:>6} {:>7} {:>7} {:>9} {:>9} {:>9} {:>7}x{:<3} {:>6}x{:<3}",
                format!("{protocol:?}"),
                if crash { "crash" } else { "happy" },
                cell.committed,
                cell.aborted,
                cell.msgs_sent,
                cell.wal_forces,
                cell.vote.p99().0,
                cell.commit.p50().0,
                cell.commit.p99().0,
                cell.blocked.sum(),
                cell.blocked.count(),
                cell.pin.sum(),
                cell.pin.count(),
            );
        }
    }
    println!();
    true
}

/// Extension: the [`read_availability`] pair — quorum reads are
/// `Unavailable` for the whole pinned window, snapshot reads answer the
/// committed baseline throughout, and neither sees the undecided write.
fn e17() -> bool {
    println!("E17 — read availability under pinned copies: quorum vs snapshot reads");
    println!(
        "(1 shard x 3 sites, r=w=2, 2PC, coordinator in-doubt crash pinning the item \
         for {} ticks, probes every {} ticks)\n",
        read_availability::PIN_LEN,
        read_availability::PROBE_INTERVAL
    );
    println!(
        "{:<10} {:>7} {:>8} {:>12} {:>13} {:>6} {:>7} {:>6} {:>12} {:>9}",
        "read path",
        "probes",
        "success",
        "unavailable",
        "unavail ticks",
        "dirty",
        "commit",
        "abort",
        "pinned ticks",
        "blocked",
    );

    let cells = [
        read_availability::run_cell(false),
        read_availability::run_cell(true),
    ];
    for cell in &cells {
        println!(
            "{:<10} {:>7} {:>8} {:>12} {:>13} {:>6} {:>7} {:>6} {:>12} {:>9}",
            cell.read_path,
            cell.probes,
            cell.success,
            cell.unavailable,
            cell.unavailable * read_availability::PROBE_INTERVAL,
            cell.dirty,
            cell.committed,
            cell.aborted,
            cell.pinned_copy_ticks,
            cell.blocked_windows,
        );
    }
    println!();

    let [quorum, snap] = &cells;
    let ok = quorum.unavailable == quorum.probes
        && snap.success == snap.probes
        && quorum.dirty + snap.dirty == 0;
    println!(
        "acceptance: quorum path unavailable for {} of {} probes ({} ticks); \
         snapshot path {} of {} — {}",
        quorum.unavailable,
        quorum.probes,
        quorum.unavailable * read_availability::PROBE_INTERVAL,
        snap.unavailable,
        snap.probes,
        if ok { "OK" } else { "MISMATCH" }
    );
    ok
}

/// Runs the artifacts of `table` named in `names` (all of them, in
/// table order, when `names` is empty), each to completion whatever the
/// others did. `Err` carries the process exit code and what to say on
/// stderr: 2 for a name the table does not hold, 1 with the names of the
/// artifacts that returned `false` or panicked.
fn run(table: &[Artifact], names: &[String]) -> Result<(), (u8, String)> {
    let selected: Vec<Artifact> = if names.is_empty() {
        table.to_vec()
    } else {
        let find = |name: &String| {
            table
                .iter()
                .find(|(n, _)| n == name)
                .copied()
                .ok_or_else(|| {
                    let known: Vec<&str> = table.iter().map(|(n, _)| *n).collect();
                    let usage = format!("usage: paper_figures [{}]...", known.join("|"));
                    (2, format!("unknown artifact `{name}`\n{usage}"))
                })
        };
        names.iter().map(find).collect::<Result<_, _>>()?
    };
    let failed: Vec<&str> = selected
        .into_iter()
        .filter(|(_, artifact)| !std::panic::catch_unwind(artifact).unwrap_or(false))
        .map(|(name, _)| name)
        .collect();
    if failed.is_empty() {
        Ok(())
    } else {
        Err((1, format!("did not reproduce: {}", failed.join(", "))))
    }
}

fn main() -> ExitCode {
    let names: Vec<String> = std::env::args().skip(1).collect();
    match run(&ARTIFACTS, &names) {
        Ok(()) => ExitCode::SUCCESS,
        Err((code, message)) => {
            eprintln!("paper_figures: {message}");
            ExitCode::from(code)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU32, Ordering};

    #[test]
    fn the_table_is_exactly_the_fifteen_artifacts() {
        let names: Vec<&str> = ARTIFACTS.iter().map(|(n, _)| *n).collect();
        let expected: Vec<String> = (1..=13).chain([16, 17]).map(|i| format!("e{i}")).collect();
        assert_eq!(names, expected);
    }

    #[test]
    fn an_unknown_name_is_a_usage_error_and_runs_nothing() {
        static RAN: AtomicU32 = AtomicU32::new(0);
        fn counted() -> bool {
            RAN.fetch_add(1, Ordering::SeqCst);
            true
        }
        let table: [Artifact; 1] = [("e1", counted)];
        let (code, message) = run(&table, &["e1".into(), "e14".into()]).unwrap_err();
        assert_ne!(code, 0);
        assert!(message.contains("`e14`") && message.contains("usage: paper_figures"));
        assert_eq!(RAN.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn one_failure_is_named_and_the_others_still_run() {
        static RAN: AtomicU32 = AtomicU32::new(0);
        fn good() -> bool {
            RAN.fetch_add(1, Ordering::SeqCst);
            true
        }
        fn mismatch() -> bool {
            RAN.fetch_add(1, Ordering::SeqCst);
            false
        }
        fn asserts() -> bool {
            RAN.fetch_add(1, Ordering::SeqCst);
            panic!("an artifact's assertion failed (expected by this test)");
        }
        let table: [Artifact; 4] = [("a", good), ("b", mismatch), ("c", asserts), ("d", good)];
        assert_eq!(
            run(&table, &[]),
            Err((1, "did not reproduce: b, c".to_string()))
        );
        assert_eq!(RAN.load(Ordering::SeqCst), 4);

        assert_eq!(run(&table, &["d".into(), "a".into()]), Ok(()));
        assert_eq!(RAN.load(Ordering::SeqCst), 6);
    }
}
