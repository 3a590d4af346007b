//! Single-step controlled host for exhaustive model checking.
//!
//! [`crate::Sim`] drives a node set along *one* schedule per seed: the
//! event heap picks the next event, time advances, the run is a sample.
//! A model checker needs the opposite contract — at every state it must
//! see **all** enabled events and branch on each. [`ControlledHost`] is
//! that substrate: it owns the same [`Process`] nodes, but instead of an
//! event heap it exposes the set of enabled [`Choice`]s (message
//! deliveries, timer firings, crashes, recoveries, and budget-gated
//! drops/duplications) and applies exactly the one it is told to.
//! Cloning the host clones the whole system state, which is how a
//! depth-first search branches; a recorded `Vec<Choice>` replays the
//! exact schedule deterministically.
//!
//! ## Abstract time
//!
//! Message delivery does not advance the clock. Firing a timer advances
//! the global clock to `max(now, deadline)` — time moves only when a
//! timeout is *chosen*, and every interleaving of timers across
//! different sites is explorable regardless of their numeric deadlines.
//! Within one site timers stay ordered: only the earliest `(deadline,
//! id)` timer of each live site is enabled. This abstraction preserves
//! soundness of per-state invariant checks (every explored state is a
//! reachable state of some timed execution) but trades away some
//! timing-dependent completeness: states merged by the fingerprint may
//! differ in absolute clock values, so schedules that depend on exact
//! elapsed-time arithmetic are explored for a representative clock
//! assignment, not all of them.
//!
//! ## Fingerprints
//!
//! [`ControlledHost::fingerprint`] canonically hashes the node states
//! (via the [`Fingerprint`] impl of the node type), the in-flight
//! message multiset, the pending timers (per-site order and payload,
//! with deadlines taken *relative* to the current clock so merged
//! states agree on future firing order), the up/down map, and the
//! remaining fault budgets. Two states with equal fingerprints have
//! equal enabled-choice futures up to the time abstraction above, so a
//! visited-set over fingerprints is what makes exhaustive search
//! tractable.

use crate::fasthash::FastHasher;
use crate::ids::{SiteId, TimerId};
use crate::process::{Ctx, Effect, Process};
use crate::time::Time;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::fmt;
use std::hash::Hasher;

/// Canonical state hashing for model-checked node types.
///
/// Implementations must fold every behaviour-relevant piece of state
/// into `h` in a deterministic order (sort map keys, skip absolute
/// times and timer ids), so that two nodes hashing equal are
/// behaviourally equivalent for the purposes of the search's
/// visited-set.
pub trait Fingerprint {
    /// Folds this value's canonical state into the hasher. `now` is the
    /// host's current clock: any internal absolute timestamps must be
    /// hashed *relative* to it (`now.since(t)`), so states that differ
    /// only by a clock translation merge.
    fn fingerprint(&self, now: Time, h: &mut FastHasher);
}

/// A message in flight between two sites, tagged with a host-unique
/// sequence number so a recorded schedule can name it stably.
#[derive(Clone, Debug)]
pub struct PendingMsg<M> {
    /// Host-unique sequence number (assigned in send order).
    pub seq: u64,
    /// Sender.
    pub from: SiteId,
    /// Destination.
    pub to: SiteId,
    /// Payload.
    pub msg: M,
}

/// A pending timer owned by one site.
#[derive(Clone, Debug)]
pub struct PendingTimer<T> {
    /// The site that set the timer (and will receive the firing).
    pub site: SiteId,
    /// The id handed back to the process by [`Ctx::set_timer`].
    pub id: TimerId,
    /// Absolute virtual deadline.
    pub deadline: Time,
    /// Payload.
    pub timer: T,
}

/// One enabled transition of the controlled host.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Choice {
    /// Deliver the in-flight message with this sequence number (to a
    /// down site this consumes the message without invoking a handler).
    Deliver {
        /// Sequence number of the message.
        seq: u64,
    },
    /// Drop the in-flight message with this sequence number (budgeted).
    Drop {
        /// Sequence number of the message.
        seq: u64,
    },
    /// Duplicate the in-flight message with this sequence number
    /// (budgeted); the copy gets a fresh sequence number.
    Duplicate {
        /// Sequence number of the message.
        seq: u64,
    },
    /// Fire the earliest pending timer of this site.
    Fire {
        /// The site whose earliest timer fires.
        site: SiteId,
    },
    /// Crash this site (budgeted; volatile state and timers are lost).
    Crash {
        /// The site to crash.
        site: SiteId,
    },
    /// Recover this crashed site (budgeted).
    Recover {
        /// The site to recover.
        site: SiteId,
    },
}

/// Fault budgets and eligibility for [`ControlledHost`] enumeration.
///
/// The exhaustive search multiplies states per enabled choice, so the
/// fault dimensions are budgeted: a config with `max_crashes: 1` and
/// one eligible site explores every *placement* of a single crash along
/// every schedule, which is already far beyond what sampled fault
/// injection covers.
#[derive(Clone, Debug)]
pub struct HostConfig {
    /// Sites allowed to crash (enumeration skips all others).
    pub crash_sites: Vec<SiteId>,
    /// Maximum number of crash transitions per execution.
    pub max_crashes: u32,
    /// Maximum number of recover transitions per execution.
    pub max_recoveries: u32,
    /// Maximum number of dropped messages per execution.
    pub max_drops: u32,
    /// Maximum number of duplicated messages per execution.
    pub max_duplicates: u32,
    /// Which timer firings are enabled as choices; see [`FirePolicy`].
    pub fire_policy: FirePolicy,
}

/// How aggressively timer firings are enumerated as choice points.
///
/// Timeouts are the biggest source of state explosion: a fire is
/// enabled in *every* state with a pending timer, and each one drags
/// the protocol into its termination path. The policies trade coverage
/// for tractability, from "model everything" to the classic
/// timeouts-mean-silence reduction used by message-passing checkers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FirePolicy {
    /// Any live site with a pending timer may fire next, regardless of
    /// how its deadline compares to other sites'. This models clock
    /// drift and process pauses — one site's "later" timeout lands
    /// before another's "earlier" one — and is the only policy that
    /// exposes bugs needing a stale site to time out first.
    Free,
    /// Only sites whose earliest deadline equals the global minimum
    /// across live sites may fire: a single well-synchronized clock.
    /// Ties remain a genuine choice.
    Ordered,
    /// [`FirePolicy::Ordered`], and additionally timers may only fire
    /// while **no message is in flight anywhere**: every timeout
    /// outlasts any burst of wire traffic (the partial-synchrony
    /// assumption the protocol's `T` already encodes). A timeout then
    /// means genuine silence — the message it was waiting for was
    /// dropped or its sender crashed — so pair `Lazy` with a drop
    /// budget when timeout-vs-loss races matter; the schedules this
    /// policy prunes are exactly "drop it, then fire".
    Lazy,
}

impl Default for HostConfig {
    fn default() -> Self {
        HostConfig {
            crash_sites: Vec::new(),
            max_crashes: 0,
            max_recoveries: 0,
            max_drops: 0,
            max_duplicates: 0,
            fire_policy: FirePolicy::Free,
        }
    }
}

#[derive(Clone, Debug)]
struct Slot<N> {
    node: N,
    up: bool,
}

/// The controlled system: nodes plus in-flight messages, pending
/// timers, the abstract clock, and the spent fault budgets.
///
/// See the module docs for the exploration contract.
pub struct ControlledHost<N: Process> {
    cfg: HostConfig,
    nodes: BTreeMap<SiteId, Slot<N>>,
    in_flight: Vec<PendingMsg<N::Msg>>,
    timers: Vec<PendingTimer<N::Timer>>,
    now: Time,
    next_seq: u64,
    next_timer_id: u64,
    rng: SmallRng,
    crashes_used: u32,
    recoveries_used: u32,
    drops_used: u32,
    duplicates_used: u32,
}

impl<N: Process + Clone> Clone for ControlledHost<N>
where
    N::Msg: Clone,
    N::Timer: Clone,
{
    fn clone(&self) -> Self {
        ControlledHost {
            cfg: self.cfg.clone(),
            nodes: self.nodes.clone(),
            in_flight: self.in_flight.clone(),
            timers: self.timers.clone(),
            now: self.now,
            next_seq: self.next_seq,
            next_timer_id: self.next_timer_id,
            rng: self.rng.clone(),
            crashes_used: self.crashes_used,
            recoveries_used: self.recoveries_used,
            drops_used: self.drops_used,
            duplicates_used: self.duplicates_used,
        }
    }
}

impl<N: Process> ControlledHost<N> {
    /// Builds the host and runs every node's [`Process::on_start`] (in
    /// site order), collecting their initial sends and timers.
    pub fn new(cfg: HostConfig, nodes: impl IntoIterator<Item = (SiteId, N)>) -> Self {
        let mut host = ControlledHost {
            cfg,
            nodes: nodes
                .into_iter()
                .map(|(s, n)| (s, Slot { node: n, up: true }))
                .collect(),
            in_flight: Vec::new(),
            timers: Vec::new(),
            now: Time::ZERO,
            next_seq: 0,
            next_timer_id: 0,
            // The protocol nodes never consult the rng; a fixed seed
            // keeps any future use deterministic per path.
            rng: SmallRng::seed_from_u64(0x9bc_0dec),
            crashes_used: 0,
            recoveries_used: 0,
            drops_used: 0,
            duplicates_used: 0,
        };
        let sites: Vec<SiteId> = host.nodes.keys().copied().collect();
        for site in sites {
            host.invoke(site, |node, ctx| node.on_start(ctx));
        }
        host
    }

    /// Current abstract virtual time.
    pub fn now(&self) -> Time {
        self.now
    }

    /// Whether `site` is currently up.
    pub fn is_up(&self, site: SiteId) -> bool {
        self.nodes.get(&site).is_some_and(|s| s.up)
    }

    /// All sites, in id order.
    pub fn sites(&self) -> impl Iterator<Item = SiteId> + '_ {
        self.nodes.keys().copied()
    }

    /// Shared access to a node's state (for invariant checks).
    ///
    /// # Panics
    /// If `site` is not part of the host.
    pub fn node(&self, site: SiteId) -> &N {
        &self.nodes.get(&site).expect("unknown site").node
    }

    /// The in-flight messages, in send order.
    pub fn in_flight(&self) -> &[PendingMsg<N::Msg>] {
        &self.in_flight
    }

    /// Enqueues a message from an external client (a site id outside the
    /// node set) as an in-flight delivery — how a harness submits work
    /// into the system under test. Replies the nodes send back to `from`
    /// are absorbed by the external sink (see [`ControlledHost::new`]).
    ///
    /// # Panics
    /// If `to` is not a member site.
    pub fn inject(&mut self, from: SiteId, to: SiteId, msg: N::Msg) {
        assert!(self.nodes.contains_key(&to), "inject to unknown site");
        self.in_flight.push(PendingMsg {
            seq: self.next_seq,
            from,
            to,
            msg,
        });
        self.next_seq += 1;
    }

    /// The pending timers (unordered; per-site firing order is by
    /// `(deadline, id)`).
    pub fn pending_timers(&self) -> &[PendingTimer<N::Timer>] {
        &self.timers
    }

    /// Enumerates every enabled choice in this state, in a fixed
    /// deterministic order: deliveries (send order), then drops and
    /// duplications if budget remains, then per-site timer firings,
    /// then crashes and recoveries if budget remains.
    pub fn enabled_choices(&self) -> Vec<Choice> {
        let mut out = Vec::new();
        for m in &self.in_flight {
            out.push(Choice::Deliver { seq: m.seq });
        }
        if self.drops_used < self.cfg.max_drops {
            for m in &self.in_flight {
                out.push(Choice::Drop { seq: m.seq });
            }
        }
        if self.duplicates_used < self.cfg.max_duplicates {
            for m in &self.in_flight {
                out.push(Choice::Duplicate { seq: m.seq });
            }
        }
        let fires_muted = self.cfg.fire_policy == FirePolicy::Lazy && !self.in_flight.is_empty();
        let fire_floor = match self.cfg.fire_policy {
            FirePolicy::Free => None,
            FirePolicy::Ordered | FirePolicy::Lazy => self
                .nodes
                .iter()
                .filter(|(_, slot)| slot.up)
                .filter_map(|(&site, _)| self.earliest_timer(site))
                .map(|i| self.timers[i].deadline)
                .min(),
        };
        for (&site, slot) in &self.nodes {
            if !slot.up || fires_muted {
                continue;
            }
            match (self.earliest_timer(site), self.cfg.fire_policy) {
                (Some(_), FirePolicy::Free) => out.push(Choice::Fire { site }),
                (Some(i), _) => {
                    // Ordered/Lazy: only the globally earliest deadline
                    // may fire; ties stay nondeterministic.
                    if Some(self.timers[i].deadline) == fire_floor {
                        out.push(Choice::Fire { site });
                    }
                }
                (None, _) => {}
            }
        }
        if self.crashes_used < self.cfg.max_crashes {
            for &site in &self.cfg.crash_sites {
                if self.is_up(site) {
                    out.push(Choice::Crash { site });
                }
            }
        }
        if self.recoveries_used < self.cfg.max_recoveries {
            for (&site, slot) in &self.nodes {
                if !slot.up {
                    out.push(Choice::Recover { site });
                }
            }
        }
        out
    }

    /// Applies one choice (must be enabled in the current state).
    ///
    /// # Panics
    /// If the choice is not applicable — the checker only applies
    /// choices it enumerated, and a replayed schedule follows a path
    /// that produced them.
    pub fn apply(&mut self, choice: Choice) {
        match choice {
            Choice::Deliver { seq } => {
                let m = self.take_msg(seq);
                if self.nodes.get(&m.to).expect("message to unknown site").up {
                    self.invoke(m.to, |node, ctx| node.on_message(ctx, m.from, m.msg));
                }
                // Down destination: the wire delivered it into a dead
                // site — indistinguishable from loss, no handler runs.
            }
            Choice::Drop { seq } => {
                assert!(
                    self.drops_used < self.cfg.max_drops,
                    "drop budget exhausted"
                );
                self.drops_used += 1;
                let _ = self.take_msg(seq);
            }
            Choice::Duplicate { seq } => {
                assert!(
                    self.duplicates_used < self.cfg.max_duplicates,
                    "duplicate budget exhausted"
                );
                self.duplicates_used += 1;
                let pos = self.msg_pos(seq);
                let mut copy = self.in_flight[pos].clone();
                copy.seq = self.next_seq;
                self.next_seq += 1;
                self.in_flight.push(copy);
            }
            Choice::Fire { site } => {
                let pos = self
                    .earliest_timer(site)
                    .expect("no pending timer at this site");
                let t = self.timers.swap_remove(pos);
                assert!(
                    self.nodes.get(&site).expect("unknown site").up,
                    "timer fire at a down site"
                );
                if t.deadline > self.now {
                    self.now = t.deadline;
                }
                self.invoke(site, |node, ctx| node.on_timer(ctx, t.id, t.timer));
            }
            Choice::Crash { site } => {
                assert!(
                    self.crashes_used < self.cfg.max_crashes,
                    "crash budget exhausted"
                );
                self.crashes_used += 1;
                let now = self.now;
                let slot = self.nodes.get_mut(&site).expect("unknown site");
                assert!(slot.up, "crash of a down site");
                slot.up = false;
                slot.node.on_crash(now);
                // Crash-epoch timer invalidation, as in the live sim.
                self.timers.retain(|t| t.site != site);
            }
            Choice::Recover { site } => {
                assert!(
                    self.recoveries_used < self.cfg.max_recoveries,
                    "recovery budget exhausted"
                );
                self.recoveries_used += 1;
                let slot = self.nodes.get_mut(&site).expect("unknown site");
                assert!(!slot.up, "recover of an up site");
                slot.up = true;
                self.invoke(site, |node, ctx| node.on_recover(ctx));
            }
        }
    }

    /// A one-line human description of a choice in this state, for
    /// counterexample traces. Uses message/timer `Debug` payloads.
    pub fn describe(&self, choice: Choice) -> String {
        match choice {
            Choice::Deliver { seq } => match self.find_msg(seq) {
                Some(m) => format!("deliver {} -> {}: {:?}", m.from, m.to, m.msg),
                None => format!("deliver #{seq}"),
            },
            Choice::Drop { seq } => match self.find_msg(seq) {
                Some(m) => format!("drop {} -> {}: {:?}", m.from, m.to, m.msg),
                None => format!("drop #{seq}"),
            },
            Choice::Duplicate { seq } => match self.find_msg(seq) {
                Some(m) => format!("duplicate {} -> {}: {:?}", m.from, m.to, m.msg),
                None => format!("duplicate #{seq}"),
            },
            Choice::Fire { site } => match self.earliest_timer(site) {
                Some(pos) => format!("fire {}: {:?}", site, self.timers[pos].timer),
                None => format!("fire {site}"),
            },
            Choice::Crash { site } => format!("crash {site}"),
            Choice::Recover { site } => format!("recover {site}"),
        }
    }

    /// Canonical hash of the full system state (see module docs).
    pub fn fingerprint(&self) -> u64
    where
        N: Fingerprint,
    {
        let mut h = FastHasher::default();
        for (&site, slot) in &self.nodes {
            h.write_u32(site.0);
            h.write_u8(slot.up as u8);
            slot.node.fingerprint(self.now, &mut h);
        }
        // The in-flight multiset, canonically ordered by rendered
        // content (sequence numbers are history, not state).
        let mut msgs: Vec<String> = self
            .in_flight
            .iter()
            .map(|m| format!("{}>{}:{:?}", m.from.0, m.to.0, m.msg))
            .collect();
        msgs.sort_unstable();
        for s in &msgs {
            h.write(s.as_bytes());
            h.write_u8(0xfe);
        }
        // Timers: per-site (deadline, id) order with deadlines relative
        // to the clock, so states merged across clock values agree on
        // what fires next and when new timers slot in.
        let mut order: Vec<usize> = (0..self.timers.len()).collect();
        order.sort_by_key(|&i| {
            let t = &self.timers[i];
            (t.site, t.deadline, t.id)
        });
        for i in order {
            let t = &self.timers[i];
            h.write_u32(t.site.0);
            h.write_u64(t.deadline.since(self.now).0);
            h.write(format!("{:?}", t.timer).as_bytes());
            h.write_u8(0xfd);
        }
        h.write_u32(self.crashes_used);
        h.write_u32(self.recoveries_used);
        h.write_u32(self.drops_used);
        h.write_u32(self.duplicates_used);
        h.finish()
    }

    fn find_msg(&self, seq: u64) -> Option<&PendingMsg<N::Msg>> {
        self.in_flight.iter().find(|m| m.seq == seq)
    }

    fn msg_pos(&self, seq: u64) -> usize {
        self.in_flight
            .iter()
            .position(|m| m.seq == seq)
            .expect("message is not in flight")
    }

    fn take_msg(&mut self, seq: u64) -> PendingMsg<N::Msg> {
        let pos = self.msg_pos(seq);
        self.in_flight.remove(pos)
    }

    /// Index of `site`'s earliest pending timer by `(deadline, id)`.
    fn earliest_timer(&self, site: SiteId) -> Option<usize> {
        self.timers
            .iter()
            .enumerate()
            .filter(|(_, t)| t.site == site)
            .min_by_key(|(_, t)| (t.deadline, t.id))
            .map(|(i, _)| i)
    }

    /// Runs one handler on `site`'s node and folds its effects into
    /// the host state.
    fn invoke(&mut self, site: SiteId, f: impl FnOnce(&mut N, &mut Ctx<'_, N::Msg, N::Timer>)) {
        let mut effects: Vec<Effect<N::Msg, N::Timer>> = Vec::new();
        {
            let slot = self.nodes.get_mut(&site).expect("unknown site");
            let mut ctx = Ctx {
                self_id: site,
                now: self.now,
                rng: &mut self.rng,
                effects: &mut effects,
                next_timer_id: &mut self.next_timer_id,
            };
            f(&mut slot.node, &mut ctx);
        }
        for e in effects {
            match e {
                Effect::Send { to, msg } => {
                    // Sends to non-member sites (client replies to an
                    // [`ControlledHost::inject`] source) fall into the
                    // external sink: they cannot influence the system
                    // under test, so keeping them in flight would only
                    // multiply states.
                    if !self.nodes.contains_key(&to) {
                        continue;
                    }
                    self.in_flight.push(PendingMsg {
                        seq: self.next_seq,
                        from: site,
                        to,
                        msg,
                    });
                    self.next_seq += 1;
                }
                Effect::SetTimer { id, delay, timer } => {
                    self.timers.push(PendingTimer {
                        site,
                        id,
                        deadline: self.now + delay,
                        timer,
                    });
                }
                Effect::CancelTimer(id) => {
                    self.timers.retain(|t| !(t.site == site && t.id == id));
                }
            }
        }
    }
}

impl<N: Process + fmt::Debug> fmt::Debug for ControlledHost<N> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ControlledHost")
            .field("now", &self.now)
            .field("in_flight", &self.in_flight.len())
            .field("timers", &self.timers.len())
            .field(
                "down",
                &self
                    .nodes
                    .iter()
                    .filter(|(_, s)| !s.up)
                    .map(|(&s, _)| s)
                    .collect::<Vec<_>>(),
            )
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::process::Label;
    use crate::time::Duration;

    #[derive(Clone, Debug)]
    enum M {
        Ping,
        Pong,
    }
    impl Label for M {
        fn label(&self) -> &'static str {
            "M"
        }
    }

    /// s0 pings everyone at start; receivers pong back; s0 counts pongs.
    /// Every node arms one timer at start.
    #[derive(Clone, Debug, Default)]
    struct Node {
        pongs: u32,
        fired: u32,
        crashes: u32,
    }

    impl Process for Node {
        type Msg = M;
        type Timer = u8;

        fn on_start(&mut self, ctx: &mut Ctx<'_, M, u8>) {
            if ctx.id() == SiteId(0) {
                ctx.send(SiteId(1), M::Ping);
                ctx.send(SiteId(2), M::Ping);
            }
            ctx.set_timer(Duration(10), 7);
        }

        fn on_message(&mut self, ctx: &mut Ctx<'_, M, u8>, from: SiteId, msg: M) {
            match msg {
                M::Ping => ctx.send(from, M::Pong),
                M::Pong => self.pongs += 1,
            }
        }

        fn on_timer(&mut self, _ctx: &mut Ctx<'_, M, u8>, _id: TimerId, _t: u8) {
            self.fired += 1;
        }

        fn on_crash(&mut self, _now: Time) {
            self.crashes += 1;
        }
    }

    impl Fingerprint for Node {
        fn fingerprint(&self, _now: Time, h: &mut FastHasher) {
            h.write_u32(self.pongs);
            h.write_u32(self.fired);
            h.write_u32(self.crashes);
        }
    }

    fn host(cfg: HostConfig) -> ControlledHost<Node> {
        ControlledHost::new(cfg, (0..3).map(|i| (SiteId(i), Node::default())))
    }

    #[test]
    fn start_effects_become_choices() {
        let h = host(HostConfig::default());
        let choices = h.enabled_choices();
        // Two pings in flight + three timers, no fault budget.
        assert_eq!(
            choices
                .iter()
                .filter(|c| matches!(c, Choice::Deliver { .. }))
                .count(),
            2
        );
        assert_eq!(
            choices
                .iter()
                .filter(|c| matches!(c, Choice::Fire { .. }))
                .count(),
            3
        );
        assert!(!choices.iter().any(|c| matches!(c, Choice::Crash { .. })));
    }

    #[test]
    fn deliver_runs_handler_and_queues_reply() {
        let mut h = host(HostConfig::default());
        let seq = h.in_flight()[0].seq;
        h.apply(Choice::Deliver { seq });
        // Ping consumed, pong queued.
        assert_eq!(h.in_flight().len(), 2);
        assert!(h.in_flight().iter().all(|m| m.seq != seq));
        let pong = h.in_flight().iter().find(|m| m.to == SiteId(0)).unwrap();
        h.apply(Choice::Deliver { seq: pong.seq });
        assert_eq!(h.node(SiteId(0)).pongs, 1);
    }

    #[test]
    fn fire_advances_clock_to_deadline_only_forward() {
        let mut h = host(HostConfig::default());
        h.apply(Choice::Fire { site: SiteId(1) });
        assert_eq!(h.now(), Time(10));
        assert_eq!(h.node(SiteId(1)).fired, 1);
        // A second fire with the same deadline does not move time back.
        h.apply(Choice::Fire { site: SiteId(2) });
        assert_eq!(h.now(), Time(10));
    }

    #[test]
    fn crash_consumes_budget_invalidates_timers_and_swallows_deliveries() {
        let mut h = host(HostConfig {
            crash_sites: vec![SiteId(1)],
            max_crashes: 1,
            ..HostConfig::default()
        });
        assert!(h
            .enabled_choices()
            .contains(&Choice::Crash { site: SiteId(1) }));
        h.apply(Choice::Crash { site: SiteId(1) });
        assert!(!h.is_up(SiteId(1)));
        assert_eq!(h.node(SiteId(1)).crashes, 1);
        // Budget spent: no further crash enabled; timer of s1 is gone.
        assert!(!h
            .enabled_choices()
            .iter()
            .any(|c| matches!(c, Choice::Crash { .. })));
        assert!(!h
            .enabled_choices()
            .contains(&Choice::Fire { site: SiteId(1) }));
        // Delivering the ping to the dead s1 consumes it silently.
        let seq = h
            .in_flight()
            .iter()
            .find(|m| m.to == SiteId(1))
            .unwrap()
            .seq;
        let before = h.in_flight().len();
        h.apply(Choice::Deliver { seq });
        assert_eq!(h.in_flight().len(), before - 1);
    }

    #[test]
    fn recover_needs_budget_and_a_down_site() {
        let mut h = host(HostConfig {
            crash_sites: vec![SiteId(2)],
            max_crashes: 1,
            max_recoveries: 1,
            ..HostConfig::default()
        });
        assert!(!h
            .enabled_choices()
            .iter()
            .any(|c| matches!(c, Choice::Recover { .. })));
        h.apply(Choice::Crash { site: SiteId(2) });
        assert!(h
            .enabled_choices()
            .contains(&Choice::Recover { site: SiteId(2) }));
        h.apply(Choice::Recover { site: SiteId(2) });
        assert!(h.is_up(SiteId(2)));
    }

    #[test]
    fn duplicate_clones_with_fresh_seq() {
        let mut h = host(HostConfig {
            max_duplicates: 1,
            ..HostConfig::default()
        });
        let seq = h.in_flight()[0].seq;
        h.apply(Choice::Duplicate { seq });
        assert_eq!(h.in_flight().len(), 3);
        let seqs: Vec<u64> = h.in_flight().iter().map(|m| m.seq).collect();
        let mut dedup = seqs.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), seqs.len(), "duplicate must get a fresh seq");
    }

    #[test]
    fn cloned_hosts_diverge_independently() {
        let h = host(HostConfig::default());
        let mut a = h.clone();
        let mut b = h.clone();
        let seq = h.in_flight()[0].seq;
        a.apply(Choice::Deliver { seq });
        b.apply(Choice::Fire { site: SiteId(0) });
        assert_ne!(a.fingerprint(), b.fingerprint());
        assert_eq!(h.in_flight().len(), 2, "original untouched");
    }

    #[test]
    fn commuted_independent_deliveries_merge_to_one_fingerprint() {
        let h = host(HostConfig::default());
        let s1 = h.in_flight()[0].seq; // to s1
        let s2 = h.in_flight()[1].seq; // to s2
        let mut ab = h.clone();
        ab.apply(Choice::Deliver { seq: s1 });
        ab.apply(Choice::Deliver { seq: s2 });
        let mut ba = h.clone();
        ba.apply(Choice::Deliver { seq: s2 });
        ba.apply(Choice::Deliver { seq: s1 });
        // Different histories (different seq assignment for the pongs),
        // same state: the canonical hash must agree.
        assert_eq!(ab.fingerprint(), ba.fingerprint());
    }

    #[test]
    fn drop_is_budgeted() {
        let mut h = host(HostConfig {
            max_drops: 1,
            ..HostConfig::default()
        });
        let seq = h.in_flight()[0].seq;
        h.apply(Choice::Drop { seq });
        assert_eq!(h.in_flight().len(), 1);
        assert!(!h
            .enabled_choices()
            .iter()
            .any(|c| matches!(c, Choice::Drop { .. })));
    }

    #[test]
    fn injected_message_delivers_and_reply_to_external_site_is_sunk() {
        let mut h = host(HostConfig::default());
        // Drain the start pings (and the pongs they trigger) first.
        while let Some(m) = h.in_flight().first() {
            let seq = m.seq;
            h.apply(Choice::Deliver { seq });
        }
        assert!(h.in_flight().is_empty());
        // A client outside the node set pings s1; the pong reply goes
        // back to the external id and must be absorbed, not queued.
        h.inject(SiteId(99), SiteId(1), M::Ping);
        let seq = h.in_flight()[0].seq;
        h.apply(Choice::Deliver { seq });
        assert!(
            h.in_flight().is_empty(),
            "reply to external site must be sunk"
        );
    }

    /// Each site arms one timer with a site-dependent deadline.
    #[derive(Clone, Debug, Default)]
    struct Skewed;

    impl Process for Skewed {
        type Msg = M;
        type Timer = u8;

        fn on_start(&mut self, ctx: &mut Ctx<'_, M, u8>) {
            ctx.set_timer(Duration(10 + u64::from(ctx.id().0)), 0);
        }

        fn on_message(&mut self, _ctx: &mut Ctx<'_, M, u8>, _from: SiteId, _msg: M) {}
        fn on_timer(&mut self, _ctx: &mut Ctx<'_, M, u8>, _id: TimerId, _t: u8) {}
    }

    impl Fingerprint for Skewed {
        fn fingerprint(&self, _now: Time, _h: &mut FastHasher) {}
    }

    #[test]
    fn ordered_fires_restricts_to_the_global_minimum_deadline() {
        let mk = |policy| {
            ControlledHost::new(
                HostConfig {
                    fire_policy: policy,
                    crash_sites: vec![SiteId(0)],
                    max_crashes: 1,
                    ..HostConfig::default()
                },
                (0..3).map(|i| (SiteId(i), Skewed)),
            )
        };
        let fires = |h: &ControlledHost<Skewed>| -> Vec<SiteId> {
            h.enabled_choices()
                .iter()
                .filter_map(|c| match c {
                    Choice::Fire { site } => Some(*site),
                    _ => None,
                })
                .collect()
        };

        // Free fires: any site may time out next (clock drift model).
        assert_eq!(
            fires(&mk(FirePolicy::Free)),
            vec![SiteId(0), SiteId(1), SiteId(2)]
        );

        // Ordered fires: only the globally earliest deadline is enabled,
        // and consuming it hands the floor to the next site.
        let mut h = mk(FirePolicy::Ordered);
        assert_eq!(fires(&h), vec![SiteId(0)]);
        h.apply(Choice::Fire { site: SiteId(0) });
        assert_eq!(fires(&h), vec![SiteId(1)]);

        // A crashed site's timers no longer hold the floor down.
        let mut h = mk(FirePolicy::Ordered);
        h.apply(Choice::Crash { site: SiteId(0) });
        assert_eq!(fires(&h), vec![SiteId(1)]);
    }

    #[test]
    fn ordered_fires_keeps_ties_nondeterministic() {
        // All three Nodes arm Duration(10): equal deadlines stay a
        // genuine choice even under ordered fires.
        let h = host(HostConfig {
            fire_policy: FirePolicy::Ordered,
            ..HostConfig::default()
        });
        let n = h
            .enabled_choices()
            .iter()
            .filter(|c| matches!(c, Choice::Fire { .. }))
            .count();
        assert_eq!(n, 3);
    }

    #[test]
    fn lazy_fires_wait_for_the_wire_to_drain() {
        // s0 pings s1 and s2 at start; every site arms a timer at 10.
        let mut h = host(HostConfig {
            fire_policy: FirePolicy::Lazy,
            ..HostConfig::default()
        });
        let fire_count = |h: &ControlledHost<Node>| {
            h.enabled_choices()
                .iter()
                .filter(|c| matches!(c, Choice::Fire { .. }))
                .count()
        };
        // Messages in flight: every timer is muted.
        assert_eq!(fire_count(&h), 0);
        // Drain the pings and the pongs they trigger.
        while let Some(m) = h.in_flight().first() {
            let seq = m.seq;
            h.apply(Choice::Deliver { seq });
        }
        // Silence: the (tied) timers become choices again.
        assert_eq!(fire_count(&h), 3);
    }

    #[test]
    fn describe_renders_payloads() {
        let h = host(HostConfig::default());
        let seq = h.in_flight()[0].seq;
        let d = h.describe(Choice::Deliver { seq });
        assert!(d.contains("Ping"), "{d}");
        let f = h.describe(Choice::Fire { site: SiteId(0) });
        assert!(f.contains("s0"), "{f}");
    }
}
