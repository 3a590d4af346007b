//! # qbc-db — the distributed database site node
//!
//! Ties every substrate together into a runnable database site
//! ([`SiteNode`]): the commit, election and termination engines of
//! `qbc-core`, strict no-wait 2PL from `qbc-locks`, the WAL and
//! versioned store of `qbc-storage`, and Gifford quorum reads over
//! `qbc-votes` — all driven by the deterministic simulator (or a
//! `NodeDriver` host) of `qbc-simnet`.
//!
//! ## Lifecycle of a transaction
//!
//! 1. A client submits a writeset at some site
//!    ([`SiteNode::begin_transaction`]); that site coordinates.
//! 2. `VOTE-REQ` distributes the spec; each participant X-locks its
//!    local copies (no-wait: conflict ⇒ vote no) and votes.
//! 3. The commit point depends on the protocol (2PC / 3PC / Skeen `[16]`
//!    / QC1 / QC2 — see `qbc-core`).
//! 4. On coordinator silence (`3T`), participants elect a termination
//!    coordinator per partition and run the configured termination
//!    protocol; rounds repeat (re-entrancy) until decided or blocked.
//! 5. The decision releases locks and (for commit) installs the new
//!    versioned values.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod config;
mod durable_log;
mod envelope;
mod escalation;
mod node;
mod outcome_ring;
mod reads;
mod recovery;
mod txn_table;
mod xrelay;

pub use config::{Mutation, NodeConfig, WalBackendConfig};
pub use envelope::{NetMsg, NodeTimer};
pub use node::{build_cluster, DecisionEvent, SiteNode, Violation};
pub use reads::{ReadEvent, ReadResult};
