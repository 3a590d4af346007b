//! The deterministic discrete-event simulation driver.
//!
//! A [`Sim`] owns a set of [`Process`] nodes, a [`Topology`], a virtual
//! clock and a seeded RNG. Events (message deliveries, timers, scheduled
//! control actions) are totally ordered by `(time, sequence)` so every run
//! with the same seed and schedule is bit-for-bit reproducible.
//!
//! Message delays are drawn uniformly from `[min_delay, max_delay]`;
//! `max_delay` plays the role of the paper's `T`, the longest end-to-end
//! propagation delay, from which the protocol timeouts `2T` and `3T` are
//! derived.

use crate::fasthash::FastBuildHasher;
use crate::ids::{SiteId, TimerId};
use crate::process::{Ctx, Effect, Label, Process};
use crate::time::{Duration, Time};
use crate::topology::{DropReason, Topology};
use crate::trace::{NetStats, TraceEvent};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, BinaryHeap, HashSet};

/// Delay model for message transit.
#[derive(Clone, Copy, Debug)]
pub struct DelayModel {
    /// Minimum transit time of any message.
    pub min: Duration,
    /// Maximum transit time of any message; the paper's `T`.
    pub max: Duration,
}

impl DelayModel {
    /// Uniform delays in `[min, max]`.
    pub fn uniform(min: Duration, max: Duration) -> Self {
        assert!(min <= max, "min delay must not exceed max delay");
        assert!(max.0 > 0, "max delay must be positive");
        DelayModel { min, max }
    }

    /// A constant delay (`min == max`).
    pub fn constant(d: Duration) -> Self {
        Self::uniform(d, d)
    }

    fn sample(&self, rng: &mut SmallRng) -> Duration {
        if self.min == self.max {
            self.min
        } else {
            Duration(rng.gen_range(self.min.0..=self.max.0))
        }
    }
}

/// Simulator configuration.
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// RNG seed; equal seeds give identical runs.
    pub seed: u64,
    /// Message delay model. `delay.max` is the paper's `T`.
    pub delay: DelayModel,
    /// Record full trace events (disable for large Monte-Carlo runs).
    pub record_trace: bool,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            seed: 0,
            delay: DelayModel::uniform(Duration(1), Duration(10)),
            record_trace: true,
        }
    }
}

/// A fault applied at a point in virtual time by [`Sim::schedule`].
#[derive(Clone, Debug, PartialEq)]
pub enum Fault {
    /// Crash a site: volatile state is lost, messages in flight to it
    /// are dropped, and timers it set before the crash never fire.
    Crash(SiteId),
    /// Recover a crashed site (invokes `on_recover`).
    Recover(SiteId),
    /// Partition the network into components ([`Topology::partition`]).
    Partition(Vec<Vec<SiteId>>),
    /// Heal all partitions.
    Heal,
    /// Block the directed link `from -> to`.
    BlockLink(SiteId, SiteId),
    /// Set the random message-loss probability.
    SetLoss(f64),
}

enum EventKind<N: Process> {
    Start(SiteId),
    Deliver {
        from: SiteId,
        to: SiteId,
        msg: N::Msg,
    },
    Timer {
        site: SiteId,
        id: TimerId,
        timer: N::Timer,
        epoch: u64,
    },
    Fault(Fault),
    #[allow(clippy::type_complexity)]
    Call {
        site: SiteId,
        f: Box<dyn FnOnce(&mut N, &mut Ctx<'_, N::Msg, N::Timer>)>,
    },
}

impl<N: Process> EventKind<N> {
    /// Tie-break priority at equal virtual time. The load-bearing rule:
    /// **deliveries precede timers**, so a timeout window of `2T` is
    /// inclusive of messages that took exactly the maximum delay `T`
    /// each way (the paper's timeout arithmetic assumes this). Faults
    /// apply before message processing at the same instant, and `Start`
    /// runs first of all.
    fn priority(&self) -> u8 {
        match self {
            EventKind::Start(_) => 0,
            EventKind::Fault(_) => 1,
            EventKind::Call { .. } => 2,
            EventKind::Deliver { .. } => 3,
            EventKind::Timer { .. } => 4,
        }
    }
}

struct Scheduled<N: Process> {
    at: Time,
    seq: u64,
    /// `kind.priority()`, cached: the heap re-compares entries
    /// O(log n) times per push/pop, and matching on the kind each time
    /// is measurable at millions of events per second.
    prio: u8,
    kind: EventKind<N>,
}

impl<N: Process> Scheduled<N> {
    fn key(&self) -> (Time, u8, u64) {
        (self.at, self.prio, self.seq)
    }
}

impl<N: Process> PartialEq for Scheduled<N> {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}
impl<N: Process> Eq for Scheduled<N> {}
impl<N: Process> PartialOrd for Scheduled<N> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<N: Process> Ord for Scheduled<N> {
    // Reversed so the BinaryHeap pops the *earliest* event first.
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        other.key().cmp(&self.key())
    }
}

/// Result of running the simulation to quiescence.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[allow(missing_docs)] // variant fields are self-describing
pub enum Quiescence {
    /// The event queue drained completely.
    Drained { at: Time, events: u64 },
    /// The event budget was exhausted before the queue drained
    /// (usually a livelock or a periodic timer).
    BudgetExhausted { at: Time, events: u64 },
}

impl Quiescence {
    /// Virtual time when the run stopped.
    pub fn at(&self) -> Time {
        match self {
            Quiescence::Drained { at, .. } | Quiescence::BudgetExhausted { at, .. } => *at,
        }
    }

    /// Number of events processed.
    pub fn events(&self) -> u64 {
        match self {
            Quiescence::Drained { events, .. } | Quiescence::BudgetExhausted { events, .. } => {
                *events
            }
        }
    }

    /// True when the queue drained before the budget ran out.
    pub fn drained(&self) -> bool {
        matches!(self, Quiescence::Drained { .. })
    }
}

/// The deterministic discrete-event simulator.
pub struct Sim<N: Process> {
    now: Time,
    seq: u64,
    queue: BinaryHeap<Scheduled<N>>,
    nodes: BTreeMap<SiteId, N>,
    topology: Topology,
    rng: SmallRng,
    config: SimConfig,
    /// Per-site crash epoch; timers from an older epoch never fire.
    epochs: BTreeMap<SiteId, u64>,
    cancelled: HashSet<TimerId, FastBuildHasher>,
    next_timer_id: u64,
    stats: NetStats,
    trace: Vec<TraceEvent>,
    events_processed: u64,
    /// Reused effect buffer: one allocation for the life of the run
    /// instead of one per event (the loop never re-enters `invoke`
    /// while effects are being applied, so a single buffer suffices).
    effects_scratch: Vec<Effect<N::Msg, N::Timer>>,
}

impl<N: Process> Sim<N> {
    /// Builds a simulator over the given nodes with full connectivity.
    /// Each node's `on_start` runs at time zero (scheduled immediately).
    pub fn new(config: SimConfig, nodes: impl IntoIterator<Item = (SiteId, N)>) -> Self {
        let nodes: BTreeMap<SiteId, N> = nodes.into_iter().collect();
        let topology = Topology::fully_connected(nodes.keys().copied());
        let epochs = nodes.keys().map(|&s| (s, 0)).collect();
        let rng = SmallRng::seed_from_u64(config.seed);
        // Pre-size the hot containers: the queue always holds at least
        // the in-flight fan-out, and a recorded run produces several
        // trace events per simulated message.
        let trace = if config.record_trace {
            Vec::with_capacity(4096)
        } else {
            Vec::new()
        };
        let mut sim = Sim {
            now: Time::ZERO,
            seq: 0,
            queue: BinaryHeap::with_capacity(1024),
            nodes,
            topology,
            rng,
            config,
            epochs,
            cancelled: HashSet::default(),
            next_timer_id: 0,
            stats: NetStats::default(),
            trace,
            events_processed: 0,
            effects_scratch: Vec::with_capacity(64),
        };
        let sites: Vec<SiteId> = sim.nodes.keys().copied().collect();
        for s in sites {
            sim.push(Time::ZERO, EventKind::Start(s));
        }
        sim
    }

    /// Current virtual time.
    pub fn now(&self) -> Time {
        self.now
    }

    /// Immutable access to a node.
    pub fn node(&self, s: SiteId) -> &N {
        &self.nodes[&s]
    }

    /// Mutable access to a node (outside the event loop; for inspection
    /// and test setup only — effects issued here are not routed).
    pub fn node_mut(&mut self, s: SiteId) -> &mut N {
        self.nodes.get_mut(&s).expect("unknown site")
    }

    /// All site ids in the simulation.
    pub fn site_ids(&self) -> Vec<SiteId> {
        self.nodes.keys().copied().collect()
    }

    /// Iterates over `(site, node)` pairs.
    pub fn nodes(&self) -> impl Iterator<Item = (SiteId, &N)> {
        self.nodes.iter().map(|(&s, n)| (s, n))
    }

    /// Network statistics accumulated so far.
    pub fn stats(&self) -> &NetStats {
        &self.stats
    }

    /// Total events processed since construction (deliveries, timers,
    /// control events). The denominator of events-per-second figures.
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// The recorded trace (empty when `record_trace` is off).
    pub fn trace(&self) -> &[TraceEvent] {
        &self.trace
    }

    /// Current topology (read-only).
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    fn push(&mut self, at: Time, kind: EventKind<N>) {
        let seq = self.seq;
        self.seq += 1;
        let prio = kind.priority();
        self.queue.push(Scheduled {
            at,
            seq,
            prio,
            kind,
        });
    }

    // ---- schedule API -------------------------------------------------

    /// Applies `fault` at `at`, before any message or timer of that
    /// instant.
    pub fn schedule(&mut self, at: Time, fault: Fault) {
        self.push(at, EventKind::Fault(fault));
    }

    /// Invokes a closure on a node inside the event loop at `at`, with a
    /// full [`Ctx`] so it can send messages and set timers. This is how
    /// external clients (the harness) inject work.
    pub fn schedule_call(
        &mut self,
        at: Time,
        site: SiteId,
        f: impl FnOnce(&mut N, &mut Ctx<'_, N::Msg, N::Timer>) + 'static,
    ) {
        self.push(
            at,
            EventKind::Call {
                site,
                f: Box::new(f),
            },
        );
    }

    // ---- run loop -----------------------------------------------------

    /// Processes a single event. Returns `false` when the queue is empty.
    pub fn step(&mut self) -> bool {
        let Some(ev) = self.queue.pop() else {
            return false;
        };
        debug_assert!(ev.at >= self.now, "time went backwards");
        self.now = ev.at;
        self.events_processed += 1;
        match ev.kind {
            EventKind::Start(site) => {
                if !self.topology.is_down(site) {
                    self.invoke(site, |n, ctx| n.on_start(ctx));
                }
            }
            EventKind::Deliver { from, to, msg } => self.deliver(from, to, msg),
            EventKind::Timer {
                site,
                id,
                timer,
                epoch,
            } => {
                if self.cancelled.remove(&id) {
                    return true;
                }
                if self.topology.is_down(site) || self.epochs[&site] != epoch {
                    return true;
                }
                self.stats.timers_fired += 1;
                if self.config.record_trace {
                    self.trace
                        .push(TraceEvent::TimerFired { at: self.now, site });
                }
                self.invoke(site, |n, ctx| n.on_timer(ctx, id, timer));
            }
            EventKind::Fault(fault) => self.apply(fault),
            EventKind::Call { site, f } => {
                if !self.topology.is_down(site) {
                    self.invoke(site, f);
                }
            }
        }
        debug_assert!(
            self.config.record_trace || self.trace.is_empty(),
            "trace bytes produced while record_trace is off"
        );
        true
    }

    /// Runs until the virtual clock reaches `t` or the queue drains.
    pub fn run_until(&mut self, t: Time) {
        while let Some(ev) = self.queue.peek() {
            if ev.at > t {
                break;
            }
            self.step();
        }
        if self.now < t {
            self.now = t;
        }
    }

    /// Runs until the queue drains or `max_events` have been processed.
    pub fn run_to_quiescence(&mut self, max_events: u64) -> Quiescence {
        let start = self.events_processed;
        while self.events_processed - start < max_events {
            if !self.step() {
                return Quiescence::Drained {
                    at: self.now,
                    events: self.events_processed - start,
                };
            }
        }
        Quiescence::BudgetExhausted {
            at: self.now,
            events: self.events_processed - start,
        }
    }

    // ---- internals ----------------------------------------------------

    /// Applies a fault and records it. Crashing a down site or
    /// recovering an up one changes nothing and records nothing.
    fn apply(&mut self, fault: Fault) {
        let noop = match fault {
            Fault::Crash(site) => self.topology.is_down(site),
            Fault::Recover(site) => !self.topology.is_down(site),
            _ => false,
        };
        if noop {
            return;
        }
        if self.config.record_trace {
            self.trace.push(TraceEvent::Fault {
                at: self.now,
                fault: fault.clone(),
            });
        }
        match fault {
            Fault::Crash(site) => {
                self.topology.mark_down(site);
                *self.epochs.get_mut(&site).expect("unknown site") += 1;
                let now = self.now;
                if let Some(n) = self.nodes.get_mut(&site) {
                    n.on_crash(now);
                }
            }
            Fault::Recover(site) => {
                self.topology.mark_up(site);
                self.invoke(site, |n, ctx| n.on_recover(ctx));
            }
            Fault::Partition(components) => self.topology.partition(&components),
            Fault::Heal => self.topology.heal(),
            Fault::BlockLink(from, to) => self.topology.block_link(from, to),
            Fault::SetLoss(p) => self.topology.set_loss_probability(p),
        }
    }

    fn deliver(&mut self, from: SiteId, to: SiteId, msg: N::Msg) {
        // Re-check routability at delivery: partitions or crashes that
        // happened while the message was in flight destroy it. Random
        // loss was already decided at send time.
        let label = msg.label();
        let deliverable = if self.topology.is_down(to) {
            Err(DropReason::ReceiverDown)
        } else if self.topology.component_of(from) != self.topology.component_of(to) {
            Err(DropReason::Partitioned)
        } else {
            Ok(())
        };
        match deliverable {
            Err(reason) => {
                self.stats.record_dropped(reason);
                if self.config.record_trace {
                    self.trace.push(TraceEvent::Dropped {
                        at: self.now,
                        from,
                        to,
                        label,
                        reason,
                    });
                }
            }
            Ok(()) => {
                self.stats.record_delivered(label);
                if self.config.record_trace {
                    self.trace.push(TraceEvent::Delivered {
                        at: self.now,
                        from,
                        to,
                        label,
                    });
                }
                self.invoke(to, |n, ctx| n.on_message(ctx, from, msg));
            }
        }
    }

    /// Runs a node handler and applies its effects. Monomorphized per
    /// call site — no per-event boxing — and the effect buffer is the
    /// reused scratch vector, so a steady-state event allocates nothing
    /// in the loop itself.
    fn invoke(&mut self, site: SiteId, f: impl FnOnce(&mut N, &mut Ctx<'_, N::Msg, N::Timer>)) {
        let mut effects = std::mem::take(&mut self.effects_scratch);
        debug_assert!(effects.is_empty());
        {
            let node = self.nodes.get_mut(&site).expect("unknown site");
            let mut ctx = Ctx {
                self_id: site,
                now: self.now,
                rng: &mut self.rng,
                effects: &mut effects,
                next_timer_id: &mut self.next_timer_id,
            };
            f(node, &mut ctx);
        }
        self.apply_effects(site, &mut effects);
        effects.clear();
        self.effects_scratch = effects;
    }

    fn apply_effects(&mut self, site: SiteId, effects: &mut Vec<Effect<N::Msg, N::Timer>>) {
        for eff in effects.drain(..) {
            match eff {
                Effect::Send { to, msg } => {
                    let label = msg.label();
                    self.stats.record_sent(label);
                    if self.config.record_trace {
                        self.trace.push(TraceEvent::Sent {
                            at: self.now,
                            from: site,
                            to,
                            label,
                        });
                    }
                    // Loss, blocked links and partitions at *send* time are
                    // decided here; crashes/partitions during flight are
                    // re-checked at delivery.
                    match self.topology.route(site, to, &mut self.rng) {
                        Ok(()) => {
                            let delay = self.config.delay.sample(&mut self.rng);
                            let at = self.now + delay;
                            self.push(
                                at,
                                EventKind::Deliver {
                                    from: site,
                                    to,
                                    msg,
                                },
                            );
                        }
                        Err(reason) => {
                            self.stats.record_dropped(reason);
                            if self.config.record_trace {
                                self.trace.push(TraceEvent::Dropped {
                                    at: self.now,
                                    from: site,
                                    to,
                                    label,
                                    reason,
                                });
                            }
                        }
                    }
                }
                Effect::SetTimer { id, delay, timer } => {
                    let epoch = self.epochs[&site];
                    let at = self.now + delay;
                    self.push(
                        at,
                        EventKind::Timer {
                            site,
                            id,
                            timer,
                            epoch,
                        },
                    );
                }
                Effect::CancelTimer(id) => {
                    self.cancelled.insert(id);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::process::Label;

    /// A process that floods a token around the ring once.
    #[derive(Debug)]
    struct Ring {
        n: u32,
        received: Vec<u32>,
        timer_fired: bool,
    }

    #[derive(Clone, Debug)]
    enum RingMsg {
        Token(u32),
    }

    impl Label for RingMsg {
        fn label(&self) -> &'static str {
            "TOKEN"
        }
    }

    impl Process for Ring {
        type Msg = RingMsg;
        type Timer = &'static str;

        fn on_start(&mut self, ctx: &mut Ctx<'_, Self::Msg, Self::Timer>) {
            if ctx.id() == SiteId(0) {
                ctx.send(SiteId(1 % self.n), RingMsg::Token(0));
            }
        }

        fn on_message(
            &mut self,
            ctx: &mut Ctx<'_, Self::Msg, Self::Timer>,
            _from: SiteId,
            msg: Self::Msg,
        ) {
            let RingMsg::Token(hops) = msg;
            self.received.push(hops);
            if hops + 1 < self.n * 2 {
                let next = SiteId((ctx.id().0 + 1) % self.n);
                ctx.send(next, RingMsg::Token(hops + 1));
            }
        }

        fn on_timer(
            &mut self,
            _ctx: &mut Ctx<'_, Self::Msg, Self::Timer>,
            _id: TimerId,
            _t: Self::Timer,
        ) {
            self.timer_fired = true;
        }
    }

    fn ring_sim(seed: u64, n: u32) -> Sim<Ring> {
        let cfg = SimConfig {
            seed,
            delay: DelayModel::uniform(Duration(1), Duration(5)),
            record_trace: true,
        };
        Sim::new(
            cfg,
            (0..n).map(|i| {
                (
                    SiteId(i),
                    Ring {
                        n,
                        received: vec![],
                        timer_fired: false,
                    },
                )
            }),
        )
    }

    #[test]
    fn token_circulates_and_run_drains() {
        let mut sim = ring_sim(42, 4);
        let q = sim.run_to_quiescence(10_000);
        assert!(q.drained());
        // 8 hops total over 4 nodes: each node got 2 tokens.
        for (_, node) in sim.nodes() {
            assert_eq!(node.received.len(), 2);
        }
        assert_eq!(sim.stats().delivered, 8);
    }

    #[test]
    fn identical_seeds_are_bit_identical() {
        let mut a = ring_sim(7, 5);
        let mut b = ring_sim(7, 5);
        a.run_to_quiescence(10_000);
        b.run_to_quiescence(10_000);
        assert_eq!(a.trace().len(), b.trace().len());
        for (x, y) in a.trace().iter().zip(b.trace().iter()) {
            assert_eq!(x, y);
        }
        assert_eq!(a.now(), b.now());
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = ring_sim(1, 5);
        let mut b = ring_sim(2, 5);
        a.run_to_quiescence(10_000);
        b.run_to_quiescence(10_000);
        // Delivery times should differ under different delay draws.
        assert_ne!(
            a.trace().iter().map(|e| e.at()).collect::<Vec<_>>(),
            b.trace().iter().map(|e| e.at()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn crash_drops_inflight_and_suppresses_timers() {
        #[derive(Debug, Default)]
        struct P {
            got: u32,
            timer: u32,
        }
        #[derive(Clone, Debug)]
        struct M;
        impl Label for M {
            fn label(&self) -> &'static str {
                "M"
            }
        }
        impl Process for P {
            type Msg = M;
            type Timer = ();
            fn on_start(&mut self, ctx: &mut Ctx<'_, M, ()>) {
                if ctx.id() == SiteId(0) {
                    ctx.send(SiteId(1), M);
                }
                if ctx.id() == SiteId(1) {
                    ctx.set_timer(Duration(100), ());
                }
            }
            fn on_message(&mut self, _ctx: &mut Ctx<'_, M, ()>, _f: SiteId, _m: M) {
                self.got += 1;
            }
            fn on_timer(&mut self, _ctx: &mut Ctx<'_, M, ()>, _id: TimerId, _t: ()) {
                self.timer += 1;
            }
        }
        let cfg = SimConfig {
            seed: 3,
            delay: DelayModel::constant(Duration(10)),
            record_trace: true,
        };
        let mut sim = Sim::new(cfg, [(SiteId(0), P::default()), (SiteId(1), P::default())]);
        // Crash s1 at t=5, while the message (arriving t=10) is in flight
        // and before its own timer (t=100).
        sim.schedule(Time(5), Fault::Crash(SiteId(1)));
        sim.schedule(Time(50), Fault::Recover(SiteId(1)));
        let q = sim.run_to_quiescence(1000);
        assert!(q.drained());
        assert_eq!(sim.node(SiteId(1)).got, 0, "in-flight message must drop");
        assert_eq!(
            sim.node(SiteId(1)).timer,
            0,
            "pre-crash timer must not fire"
        );
        assert_eq!(sim.stats().dropped_receiver_down, 1);
    }

    #[test]
    fn cancelled_timer_never_fires() {
        #[derive(Debug, Default)]
        struct P {
            fired: bool,
        }
        #[derive(Clone, Debug)]
        struct M;
        impl Label for M {}
        impl Process for P {
            type Msg = M;
            type Timer = u8;
            fn on_start(&mut self, ctx: &mut Ctx<'_, M, u8>) {
                let id = ctx.set_timer(Duration(10), 1);
                ctx.cancel_timer(id);
                ctx.set_timer(Duration(20), 2);
            }
            fn on_message(&mut self, _ctx: &mut Ctx<'_, M, u8>, _f: SiteId, _m: M) {}
            fn on_timer(&mut self, _ctx: &mut Ctx<'_, M, u8>, _id: TimerId, t: u8) {
                assert_eq!(t, 2, "cancelled timer fired");
                self.fired = true;
            }
        }
        let mut sim = Sim::new(SimConfig::default(), [(SiteId(0), P::default())]);
        sim.run_to_quiescence(100);
        assert!(sim.node(SiteId(0)).fired);
    }

    #[test]
    fn partition_drops_at_send_and_in_flight() {
        #[derive(Debug, Default)]
        struct P {
            got: u32,
        }
        #[derive(Clone, Debug)]
        struct M;
        impl Label for M {}
        impl Process for P {
            type Msg = M;
            type Timer = ();
            fn on_start(&mut self, ctx: &mut Ctx<'_, M, ()>) {
                if ctx.id() == SiteId(0) {
                    ctx.send(SiteId(1), M);
                }
            }
            fn on_message(&mut self, _ctx: &mut Ctx<'_, M, ()>, _f: SiteId, _m: M) {
                self.got += 1;
            }
            fn on_timer(&mut self, _c: &mut Ctx<'_, M, ()>, _id: TimerId, _t: ()) {}
        }
        let cfg = SimConfig {
            seed: 9,
            delay: DelayModel::constant(Duration(10)),
            record_trace: false,
        };
        let mut sim = Sim::new(cfg, [(SiteId(0), P::default()), (SiteId(1), P::default())]);
        // Partition at t=5 separates them while the message is in flight.
        sim.schedule(
            Time(5),
            Fault::Partition(vec![vec![SiteId(0)], vec![SiteId(1)]]),
        );
        sim.run_to_quiescence(100);
        assert_eq!(sim.node(SiteId(1)).got, 0);
        assert_eq!(sim.stats().dropped_partitioned, 1);
    }

    #[test]
    fn schedule_call_injects_work() {
        #[derive(Debug, Default)]
        struct P {
            poked: bool,
        }
        #[derive(Clone, Debug)]
        struct M;
        impl Label for M {}
        impl Process for P {
            type Msg = M;
            type Timer = ();
            fn on_message(&mut self, _ctx: &mut Ctx<'_, M, ()>, _f: SiteId, _m: M) {
                self.poked = true;
            }
            fn on_timer(&mut self, _c: &mut Ctx<'_, M, ()>, _id: TimerId, _t: ()) {}
        }
        let mut sim = Sim::new(
            SimConfig::default(),
            [(SiteId(0), P::default()), (SiteId(1), P::default())],
        );
        sim.schedule_call(Time(5), SiteId(0), |_n, ctx| {
            ctx.send(SiteId(1), M);
        });
        sim.run_to_quiescence(100);
        assert!(sim.node(SiteId(1)).poked);
    }

    #[test]
    fn run_until_stops_at_time() {
        let mut sim = ring_sim(11, 3);
        sim.run_until(Time(2));
        assert_eq!(sim.now(), Time(2));
    }

    #[test]
    fn deliveries_precede_timers_at_equal_time() {
        // A message taking exactly the maximum delay T must beat a
        // timeout of exactly T set at the same send instant — the
        // inclusive-deadline semantics the paper's 2T windows assume.
        #[derive(Debug, Default)]
        struct P {
            got_msg_before_timer: Option<bool>,
            got_msg: bool,
        }
        #[derive(Clone, Debug)]
        struct M;
        impl Label for M {}
        impl Process for P {
            type Msg = M;
            type Timer = ();
            fn on_start(&mut self, ctx: &mut Ctx<'_, M, ()>) {
                if ctx.id() == SiteId(0) {
                    ctx.send(SiteId(1), M);
                }
                if ctx.id() == SiteId(1) {
                    ctx.set_timer(Duration(10), ());
                }
            }
            fn on_message(&mut self, _ctx: &mut Ctx<'_, M, ()>, _f: SiteId, _m: M) {
                self.got_msg = true;
            }
            fn on_timer(&mut self, _ctx: &mut Ctx<'_, M, ()>, _id: TimerId, _t: ()) {
                self.got_msg_before_timer = Some(self.got_msg);
            }
        }
        let cfg = SimConfig {
            seed: 5,
            delay: DelayModel::constant(Duration(10)),
            record_trace: false,
        };
        let mut sim = Sim::new(cfg, [(SiteId(0), P::default()), (SiteId(1), P::default())]);
        sim.run_to_quiescence(100);
        assert_eq!(
            sim.node(SiteId(1)).got_msg_before_timer,
            Some(true),
            "the t=10 delivery must be processed before the t=10 timer"
        );
    }

    #[test]
    fn control_events_precede_deliveries_at_equal_time() {
        // A fault scheduled at t applies before a delivery arriving at
        // t: every fault shares one priority, so each row loses it.
        #[derive(Debug, Default)]
        struct P {
            got: bool,
        }
        #[derive(Clone, Debug)]
        struct M;
        impl Label for M {}
        impl Process for P {
            type Msg = M;
            type Timer = ();
            fn on_start(&mut self, ctx: &mut Ctx<'_, M, ()>) {
                if ctx.id() == SiteId(0) {
                    ctx.send(SiteId(1), M);
                }
            }
            fn on_message(&mut self, _ctx: &mut Ctx<'_, M, ()>, _f: SiteId, _m: M) {
                self.got = true;
            }
            fn on_timer(&mut self, _c: &mut Ctx<'_, M, ()>, _id: TimerId, _t: ()) {}
        }
        let rows = [
            Fault::Crash(SiteId(1)),
            Fault::Partition(vec![vec![SiteId(0)], vec![SiteId(1)]]),
        ];
        for fault in rows {
            let cfg = SimConfig {
                seed: 5,
                delay: DelayModel::constant(Duration(10)),
                record_trace: false,
            };
            let mut sim = Sim::new(cfg, [(SiteId(0), P::default()), (SiteId(1), P::default())]);
            sim.schedule(Time(10), fault.clone());
            sim.run_to_quiescence(100);
            assert!(
                !sim.node(SiteId(1)).got,
                "{fault:?} at t beats delivery at t"
            );
        }
    }

    #[test]
    fn trace_records_each_fault_that_applies() {
        let mut sim = ring_sim(3, 3);
        let schedule = [
            (1, Fault::Crash(SiteId(2))),
            (2, Fault::Crash(SiteId(2))),
            (3, Fault::Recover(SiteId(2))),
            (4, Fault::Recover(SiteId(2))),
            (5, Fault::Partition(vec![vec![SiteId(0)]])),
            (6, Fault::Heal),
            (7, Fault::BlockLink(SiteId(0), SiteId(1))),
            (8, Fault::SetLoss(0.5)),
        ];
        for (at, fault) in &schedule {
            sim.schedule(Time(*at), fault.clone());
        }
        sim.run_to_quiescence(10_000);
        let recorded: Vec<(Time, Fault)> = sim
            .trace()
            .iter()
            .filter_map(|e| match e {
                TraceEvent::Fault { at, fault } => Some((*at, fault.clone())),
                _ => None,
            })
            .collect();
        // The second crash of the down s2 (t=2) and the recovery of the
        // up s2 (t=4) change nothing and record nothing.
        let applied: Vec<(Time, Fault)> = schedule
            .into_iter()
            .filter(|&(at, _)| at != 2 && at != 4)
            .map(|(at, fault)| (Time(at), fault))
            .collect();
        assert_eq!(recorded, applied);
    }

    #[test]
    fn recovery_invokes_on_recover() {
        #[derive(Debug, Default)]
        struct P {
            recovered: bool,
        }
        #[derive(Clone, Debug)]
        struct M;
        impl Label for M {}
        impl Process for P {
            type Msg = M;
            type Timer = ();
            fn on_message(&mut self, _ctx: &mut Ctx<'_, M, ()>, _f: SiteId, _m: M) {}
            fn on_timer(&mut self, _c: &mut Ctx<'_, M, ()>, _id: TimerId, _t: ()) {}
            fn on_recover(&mut self, _ctx: &mut Ctx<'_, M, ()>) {
                self.recovered = true;
            }
        }
        let mut sim = Sim::new(SimConfig::default(), [(SiteId(0), P::default())]);
        sim.schedule(Time(1), Fault::Crash(SiteId(0)));
        sim.schedule(Time(10), Fault::Recover(SiteId(0)));
        sim.run_to_quiescence(100);
        assert!(sim.node(SiteId(0)).recovered);
    }
}
