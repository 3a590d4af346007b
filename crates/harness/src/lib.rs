//! # qbc-harness — scenarios, failure injection, checkers, sweeps
//!
//! The experiment layer: everything needed to regenerate the paper's
//! examples, figures and comparative claims.
//!
//! * [`scenario`] — declarative cluster + workload + failure schedules,
//!   with per-transaction consistency verdicts, latency and availability
//!   reports.
//! * [`paper`] — the exact Fig. 3 (Examples 1/2/4) and Fig. 7
//!   (Example 3) choreographies.
//! * [`latency`] — failure-free commit latency and message counts per
//!   protocol (experiment E7).
//! * [`montecarlo`] — randomized crash/partition sweeps measuring
//!   blocking probability, availability and violation rates (E8–E10).
//! * [`concurrency`] — empirical re-derivation of Fig. 4's concurrency
//!   sets (E5).
//! * [`audit`] — Fig. 6 transition-conformance audits (E6).
//! * [`workload`] — multi-transaction streams: contention, throughput,
//!   mid-stream failures (E11).
//! * [`cluster_load`] — concurrent client sessions against the sharded
//!   cluster runtime of `qbc-cluster` (E13).
//! * [`protocol_metrics`] — phase breakdown, blocking windows, messages
//!   and forces for the six engines on one schedule (E16).
//! * [`read_availability`] — quorum vs snapshot reads under pinned
//!   copies (E17).
//! * [`table`] — plain-text table rendering.
//!
//! `src/bin/paper_figures.rs` prints every artifact above and exits
//! non-zero when one does not reproduce.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod audit;
pub mod cluster_load;
pub mod concurrency;
pub mod latency;
pub mod montecarlo;
pub mod msc;
pub mod paper;
pub mod protocol_metrics;
pub mod read_availability;
pub mod scenario;
pub mod table;
pub mod workload;

pub use scenario::{Scenario, ScenarioOutcome, TxnSubmission, TxnVerdict};
