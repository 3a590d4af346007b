//! State-space probe: one bounded exhaustive exploration per run, with
//! the explored-state counts on stdout. Used ad hoc for tuning
//! `tests/model_check.rs` depths, and by the CI model-check smoke job
//! (which runs every config but `mutant` and relies on the nonzero
//! exit + trace file below to surface a violation).
//!
//! Usage: `cargo run --release -p qbc-cluster --example mc_probe -- <config> <depth>`
//! where `<config>` is one of (states explored at the depth shown):
//!
//! | config | space | depth | states |
//! |---|---|---|---|
//! | `clean` | QC1, no faults | 20 | 81 |
//! | `crash` | QC1, site 0 crashes once | 30 | 388 |
//! | `mutant` | `crash` with the weakened QC1 commit point | — | — |
//! | `xshard` | cross-shard QC1, the parent crashes | 40 | 180 (cut 3) |
//! | `xclient` | cross-shard QC1, a client-only parent crashes | 40 | 135 (cut 1) |
//! | `paxos-crash` | Paxos Commit, the ballot-0 leader crashes | 34 | 284 |
//! | `crash-recover` | `crash`, and site 0 recovers once | 40 | 83 186 |
//! | `paxos-recover` | `paxos-crash`, and the leader recovers once | 34 | 7 262 |
//! | `paxos-acceptor-recover` | Paxos, acceptor site 1 crashes and recovers | 30 | 779 |
//! | `xshard-recover` | `xshard`, and the parent recovers once | 40 | 1 022 (cut 23) |
//!
//! On a violation the counterexample trace is printed and also written
//! to the path in `$MC_TRACE` (default `mc_counterexample.txt`), and the
//! process exits 1.

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
    let crash_recover = HostConfig {
        max_recoveries: 1,
        ..one_crash.clone()
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
        "crash-recover" => single_shard_host(proto, crash_recover, |c| c),
        "paxos-recover" => paxos_host(crash_recover, |c| c),
        "paxos-acceptor-recover" => paxos_host(
            HostConfig {
                crash_sites: vec![SiteId(1)],
                ..crash_recover
            },
            |c| c,
        ),
        "xshard-recover" => two_shard_host(proto, crash_recover, |c| c),
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
