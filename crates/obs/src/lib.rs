//! # qbc-obs — protocol-aware observability
//!
//! The paper's claims are about *windows*: how long copies stay pinned
//! by undecided transactions, and how wide the blocking window is when
//! a coordinator fails. This crate measures exactly those quantities,
//! plus the columns of Gray & Lamport's protocol-comparison table
//! (message counts, forced writes), from a single stream of protocol
//! events:
//!
//! * [`TraceEvent`]/[`EventKind`]/[`TraceSink`] — the protocol-phase
//!   event model. The `qbc-db` site node emits one event per
//!   observable step (vote solicitation, commit point, decision force,
//!   termination rounds, cross-shard hold and outcome discovery, copy
//!   pins, crashes).
//! * [`Obs`] — the bundled consumer: per-site flight-recorder rings,
//!   per-transaction phase timers, blocking-window and pin-time
//!   accounting, message/force counters.
//! * [`Registry`] — a validated metric collection with two render
//!   targets: Prometheus text exposition and a deterministic JSON
//!   snapshot.
//! * [`LatencyHistogram`] — the shared power-of-two histogram (also
//!   re-exported by `qbc-cluster` for its per-shard metrics), with
//!   `p50`/`p99` quantile accessors.
//!
//! Everything is config-gated by [`ObsConfig`] and **off by default**:
//! when disabled, no observer exists, no event is constructed, and the
//! simulator's hot path is byte-identical to the uninstrumented build
//! (the golden-digest determinism tests pin this).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod block;
mod event;
mod flight;
mod hist;
mod obs;
mod registry;

pub use event::{EventKind, TraceEvent, TraceSink};
pub use hist::LatencyHistogram;
pub use obs::{Obs, ObsConfig, PhaseHists};
pub use registry::{Metric, MetricValue, Registry, RegistryError};
