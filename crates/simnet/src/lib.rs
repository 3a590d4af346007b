//! # qbc-simnet — deterministic discrete-event network simulator
//!
//! The substrate on which the quorum-based commit and termination
//! protocols of Huang & Li (ICDE 1988) are evaluated. The paper's failure
//! model — *arbitrary concurrent site failures, lost messages and network
//! partitioning* — is reproduced exactly:
//!
//! * **Virtual time** with a bounded message delay `T` ([`DelayModel`]),
//!   from which the protocol timeouts `2T` and `3T` are derived.
//! * **Partitions** into arbitrary disjoint components, dynamic
//!   re-partitioning and healing ([`Topology`]).
//! * **Message loss**, both random (probability per message) and
//!   adversarial (directed link blocks, needed for the paper's Example 3).
//! * **Site crashes and recoveries** with crash-epoch timer invalidation.
//!
//! Each of these is one [`Fault`], applied at a virtual instant by
//! [`Sim::schedule`] and recorded in the trace.
//!
//! Determinism: a run is a pure function of `(seed, node set, schedule)`.
//! All experiments in this repository are reproducible byte-for-byte.
//!
//! ## Example
//!
//! ```
//! use qbc_simnet::{Ctx, DelayModel, Duration, Label, Process, Sim, SimConfig, SiteId, Time, TimerId};
//!
//! #[derive(Clone, Debug)]
//! struct Ping;
//! impl Label for Ping {
//!     fn label(&self) -> &'static str { "PING" }
//! }
//!
//! #[derive(Default)]
//! struct Node { pings: u32 }
//!
//! impl Process for Node {
//!     type Msg = Ping;
//!     type Timer = ();
//!     fn on_start(&mut self, ctx: &mut Ctx<'_, Ping, ()>) {
//!         if ctx.id() == SiteId(0) { ctx.send(SiteId(1), Ping); }
//!     }
//!     fn on_message(&mut self, _ctx: &mut Ctx<'_, Ping, ()>, _from: SiteId, _msg: Ping) {
//!         self.pings += 1;
//!     }
//!     fn on_timer(&mut self, _ctx: &mut Ctx<'_, Ping, ()>, _id: TimerId, _t: ()) {}
//! }
//!
//! let mut sim = Sim::new(SimConfig::default(), [
//!     (SiteId(0), Node::default()),
//!     (SiteId(1), Node::default()),
//! ]);
//! sim.run_to_quiescence(1_000);
//! assert_eq!(sim.node(SiteId(1)).pings, 1);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod driver;
mod fasthash;
pub mod host;
mod ids;
mod process;
mod sim;
mod time;
mod topology;
mod trace;

pub use driver::NodeDriver;
pub use fasthash::{FastBuildHasher, FastHasher, FastMap};
pub use host::{Choice, ControlledHost, Fingerprint, FirePolicy, HostConfig};
pub use ids::{sites, SiteId, TimerId};
pub use process::{Ctx, Label, Process};
pub use sim::{DelayModel, Fault, Quiescence, Sim, SimConfig};
pub use time::{Duration, Time};
pub use topology::{DropReason, Topology};
pub use trace::{NetStats, TraceEvent};
