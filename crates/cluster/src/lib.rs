//! # qbc-cluster — sharded cluster runtime
//!
//! The seed reproduces Huang & Li's commit/termination protocols one
//! choreographed scenario at a time. This crate turns those per-site
//! engines into a *runtime*: many shards, many concurrent client
//! transactions, group-commit batching underneath, and live metrics on
//! top.
//!
//! * [`ClusterConfig`]/[`ShardMap`] — partition a global item space into
//!   shards, each replicated over its own site group with Gifford
//!   quorums; coordinators are placed round-robin within a shard.
//! * [`SimCluster`] + [`Session`] — the client front-end on the
//!   deterministic simulator: `submit` returns a [`TxnHandle`] without
//!   waiting, any number of transactions run concurrently, and
//!   `await_decision`/`decision` resolve handles later. [`ReadHandle`]s
//!   do the same for quorum reads.
//! * [`ReactorCluster`] — the same cluster on the event-driven
//!   `qbc-reactor` transport: every site plus the client front door
//!   multiplexed onto a small fixed pool of event-loop workers, client
//!   sessions as [`Handle`]s over framed sockets, sites
//!   killable mid-run with automatic rerouting and client
//!   resubmission. See `docs/async-runtime.md`.
//! * [`ClusterMetrics`] — per-shard commit/abort/blocked counters,
//!   client-observed latency histograms, in-flight queue depths and WAL
//!   force counts, harvestable mid-run.
//! * [`AtomicityViolation`] — the cluster-level consistency check: no
//!   transaction may commit at one participant and abort at another.
//!
//! Writesets may span shards: a cross-shard submission is split into
//! per-shard *branches* driven by a top-level two-phase commit (the
//! `XTxnCoordinator` engine of `qbc-core`, hosted at the home shard's
//! coordinator site). Each branch runs the paper's quorum commit up to
//! its in-shard commit point, holds there, and votes upward; the
//! durably logged cross-shard decision is relayed to every branch and
//! rediscovered by orphaned sites, so the atomicity audit holds over
//! the whole shard set. Group commit
//! (`qbc_db::NodeConfig::group_commit`, `force_latency`) is configured
//! per cluster here and exercised by `paper_figures e13`; decided
//! transaction state can be retired after a re-announce window
//! ([`ClusterConfig::retire_after`]) to bound per-site tables.
//!
//! Observability (`qbc-obs`) is opt-in via [`ClusterConfig::obs`]: the
//! cluster then shares one [`Obs`] across its sites, tracing protocol
//! phases, measuring blocking windows and copy pin times, and keeping a
//! per-site flight recorder that dumps on atomicity violations. Export
//! via [`SimCluster::metrics_json`] (deterministic JSON) or
//! [`ReactorReport::prometheus_text`] (Prometheus text format). See
//! `docs/observability.md` for the event model and metric catalog.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod config;
mod harvest;
pub mod mc_harness;
mod metrics;
mod plan;
mod reactor_cluster;
mod shard;
mod sim_cluster;

pub use config::ClusterConfig;
pub use metrics::{AtomicityViolation, ClusterMetrics, LatencyHistogram, ShardMetrics};
pub use qbc_obs::{Obs, ObsConfig, Registry};
pub use qbc_reactor::{ClientStats, Handle, Outcome, ServerStats};
pub use reactor_cluster::{ReactorCluster, ReactorConfig, ReactorReport};
pub use shard::{ShardId, ShardMap};
pub use sim_cluster::{ReadHandle, Session, SimCluster, TxnHandle, TxnStatus};
