//! # qbc-bench — experiment binaries
//!
//! One binary per paper artifact (see DESIGN.md §3 and EXPERIMENTS.md):
//!
//! | Binary | Artifact |
//! |---|---|
//! | `e1_example1` | Example 1 / Fig. 3 — Skeen `[16]` blocks all partitions |
//! | `e2_example2` | Example 2 — 3PC terminates inconsistently |
//! | `e3_example3` | Example 3 / Fig. 7 — the PC/PA wall under two coordinators |
//! | `e4_example4` | Example 4 — TP1 restores availability |
//! | `e5_concurrency_sets` | Fig. 4 — empirical concurrency sets |
//! | `e6_transitions` | Fig. 6 — state-transition conformance audit |
//! | `e7_latency` | Figs. 1/2/9 — commit latency & message counts |
//! | `e8_availability` | §1/§5 claim — Monte-Carlo availability |
//! | `e9_vulnerability` | §3.2/§5 claim — failure vulnerability window |
//! | `e10_ablation` | Example 3 generalized — mutual-ignore-rule ablation |
//!
//! `e11`–`e14`, `e16` and `e17` cover workloads, cluster throughput,
//! protocol metrics and read availability. Per-layer costs (engine
//! steps, lock manager, WAL, a full commit) are measured by qbench's
//! layer drives — see `benchmark/README.md`.

/// Shared output helper: prints a titled section.
pub fn section(title: &str) {
    println!("\n=== {title} ===");
}
