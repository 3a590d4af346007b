//! State-space probe: one bounded exhaustive exploration per run, with
//! the explored-state counts on stdout. Used ad hoc for tuning
//! `tests/model_check.rs` depths, and by the CI model-check smoke job
//! (which runs every config but `mutant` — `clean 20`, `crash 30`,
//! `xshard 40`, `xclient 40` and `paxos-crash 34` — and relies on the
//! nonzero exit + trace file below to surface a violation).
//!
//! Usage: `cargo run --release -p qbc-cluster --example mc_probe -- <config> <depth>`
//! where `<config>` is `clean`, `crash`, `mutant`, `xshard`, `xclient`
//! (QC1), or `paxos-crash` (Paxos Commit, the ballot-0 leader at site 0
//! crashing once). At the depths above they explore 81 / 388 / 180 /
//! 135 / 284 states. On a violation the counterexample trace is printed
//! and also written to the path in `$MC_TRACE` (default
//! `mc_counterexample.txt`), and the process exits 1.

use qbc_cluster::mc_harness::*;
use qbc_core::{ProtocolKind, TxnId};
use qbc_mc::{Checker, FirePolicy, HostConfig, McConfig};
use qbc_simnet::SiteId;

fn main() {
    let mut args = std::env::args().skip(1);
    let which = args.next().unwrap_or_else(|| "clean".into());
    let depth: usize = args.next().and_then(|d| d.parse().ok()).unwrap_or(20);

    let ordered = HostConfig {
        fire_policy: FirePolicy::Lazy,
        ..HostConfig::default()
    };
    let one_crash = HostConfig {
        crash_sites: vec![SiteId(0)],
        max_crashes: 1,
        ..ordered.clone()
    };

    let proto = ProtocolKind::QuorumCommit1;
    let host = match which.as_str() {
        "clean" => single_shard_host(proto, ordered, |c| c),
        "crash" => single_shard_host(proto, one_crash, |c| c),
        "mutant" => single_shard_host(
            proto,
            HostConfig {
                max_drops: std::env::var("MC_DROPS")
                    .ok()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or(4),
                ..one_crash.clone()
            },
            |c| c.with_weakened_qc1(),
        ),
        "xshard" => two_shard_host(proto, one_crash, |c| c),
        "xclient" => client_parent_host(proto, one_crash, |c| c),
        "paxos-crash" => paxos_host(one_crash, |c| c),
        other => panic!("unknown config {other}"),
    };

    let report = Checker::new(McConfig {
        max_depth: depth,
        ..McConfig::default()
    })
    .invariant("atomicity", atomicity(vec![TxnId(1)]))
    .invariant("decision-stability", decision_stability())
    .quiescent_invariant("bounded-termination", quiescent_termination(vec![TxnId(1)]))
    .run(host);
    println!("{which}@{depth}: {}", report.stats.summary());
    if let Some(cex) = report.violation {
        let trace = format!("{which}@{depth}\n{}", cex.render());
        println!("{trace}");
        let path = std::env::var("MC_TRACE").unwrap_or_else(|_| "mc_counterexample.txt".into());
        if let Err(e) = std::fs::write(&path, &trace) {
            eprintln!("failed to write counterexample trace to {path}: {e}");
        } else {
            eprintln!("counterexample trace written to {path}");
        }
        std::process::exit(1);
    }
}
