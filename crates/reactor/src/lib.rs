//! qbc-reactor — an event-driven front door for the quorum-commit
//! cluster: 10k+ concurrent client sessions multiplexed onto a small
//! fixed pool of nonblocking event-loop workers.
//!
//! The deterministic simulator (`qbc-cluster`'s `SimCluster`) carries
//! the correctness evidence and is the conformance oracle; it serves
//! no sockets. This crate is the serving architecture:
//!
//! * [`Poller`] — readiness over Linux `epoll`, hand-rolled over raw
//!   syscalls (no external crates). Linux is the only supported target.
//! * [`WakeFd`] — the cross-thread doorbell (an `eventfd`) that
//!   interrupts a parked worker.
//! * [`FrameReader`]/[`FrameWriter`] — length-prefixed nonblocking
//!   framing with an explicit write-backpressure signal.
//! * [`Request`]/[`Reply`] — the client wire protocol (sessions are
//!   logical; one connection carries thousands).
//! * [`ReactorServer`] — every site of a cluster plus the client front
//!   door on a fixed worker pool; routing decisions delegated to a
//!   [`Planner`] implemented by the cluster layer.
//! * [`ReactorClient`] — sessions as [`Handle`]s with automatic
//!   resubmission and reconnect; no thread parks per transaction.
//!
//! See `docs/async-runtime.md` for the design discussion.

#![warn(missing_docs)]

#[cfg(not(target_os = "linux"))]
compile_error!("qbc-reactor runs on Linux only: it polls with epoll and wakes with eventfd");

mod sys;

pub mod client;
pub mod frame;
pub mod poller;
pub mod server;
pub mod wake;
pub mod wire;

pub use client::{ClientStats, Handle, Outcome, ReactorClient};
pub use frame::{FrameReader, FrameWriter, ReadState, MAX_FRAME};
pub use poller::{Event, Interest, Poller, PollerKind, Token};
pub use server::{Planner, ReactorConfig, ReactorServer, ServerStats};
pub use wake::WakeFd;
pub use wire::{Reply, Request};
