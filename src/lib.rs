//! # quorum-commit — facade crate
//!
//! Re-exports the full public API of the quorum-based commit and
//! termination protocol reproduction (Huang & Li, ICDE 1988).
//!
//! See the individual crates for details:
//!
//! * [`simnet`] — deterministic discrete-event network simulator
//! * [`votes`] — Gifford weighted-voting replica control
//! * [`locks`] — per-site strict-2PL lock manager
//! * [`storage`] — write-ahead log and versioned item store
//! * [`election`] — coordinator election within a partition
//! * [`core`] — the commit & termination protocol state machines
//! * [`db`] — the distributed database node tying it all together
//! * [`cluster`] — sharded cluster runtime: client sessions,
//!   group-commit batching, live metrics
//! * [`harness`] — scenarios, failure injection, metrics, checkers

pub use qbc_cluster as cluster;
pub use qbc_core as core;
pub use qbc_core::election;
pub use qbc_db as db;
pub use qbc_harness as harness;
pub use qbc_locks as locks;
pub use qbc_simnet as simnet;
pub use qbc_storage as storage;
pub use qbc_votes as votes;
