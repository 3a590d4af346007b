//! A single-process driver for embedding a [`Process`] in an external
//! event loop.
//!
//! The deterministic [`crate::Sim`] drives processes through the
//! crate-private [`Effect`] buffer. A [`NodeDriver`] packages that same
//! contract — build a [`Ctx`], invoke a handler, then apply the
//! buffered effects — behind a public API, so runtimes in *other*
//! crates (the nonblocking reactor front door) can host a process
//! without qbc-simnet having to expose its internals.
//!
//! The driver owns the process, its timer heap and its RNG. It never
//! blocks and never looks at a wall clock: the caller supplies `now` on
//! every entry point and polls [`NodeDriver::next_deadline`] to learn
//! how long it may sleep. Outbound messages are appended to a
//! caller-supplied `Vec<(SiteId, Msg)>` — routing them (in-memory
//! queues, sockets, whatever the host runtime uses) is the caller's
//! business.

use crate::ids::{SiteId, TimerId};
use crate::process::{Ctx, Effect, Process};
use crate::time::Time;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::collections::{BinaryHeap, HashSet};

/// A timer armed by the hosted process, ordered soonest-first.
struct Pending<T> {
    due: Time,
    id: TimerId,
    timer: T,
}

impl<T> PartialEq for Pending<T> {
    fn eq(&self, other: &Self) -> bool {
        self.due == other.due && self.id == other.id
    }
}
impl<T> Eq for Pending<T> {}
impl<T> PartialOrd for Pending<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for Pending<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // BinaryHeap is a max-heap: reverse so the earliest deadline
        // (ties broken by arming order) surfaces first.
        other
            .due
            .cmp(&self.due)
            .then_with(|| other.id.cmp(&self.id))
    }
}

/// Hosts one [`Process`] outside the simulator: delivers messages and
/// due timers, collects outbound sends.
pub struct NodeDriver<P: Process> {
    node: P,
    site: SiteId,
    rng: SmallRng,
    next_timer_id: u64,
    timers: BinaryHeap<Pending<P::Timer>>,
    cancelled: HashSet<TimerId>,
    effects: Vec<Effect<P::Msg, P::Timer>>,
}

impl<P: Process> NodeDriver<P> {
    /// Wraps `node` and runs its `on_start` at time `now`. The seed
    /// derives the driver's private RNG; distinct sites should use
    /// distinct seeds (the reactor mixes the site id into the cluster
    /// seed).
    pub fn new(
        site: SiteId,
        node: P,
        seed: u64,
        now: Time,
        out: &mut Vec<(SiteId, P::Msg)>,
    ) -> Self {
        let mut d = NodeDriver {
            node,
            site,
            rng: SmallRng::seed_from_u64(seed),
            // Namespacing by site keeps ids unique across a fleet of
            // drivers even though each allocates independently.
            next_timer_id: (site.0 as u64) << 32,
            timers: BinaryHeap::new(),
            cancelled: HashSet::new(),
            effects: Vec::new(),
        };
        let mut effects = std::mem::take(&mut d.effects);
        let mut ctx = Ctx {
            self_id: d.site,
            now,
            rng: &mut d.rng,
            effects: &mut effects,
            next_timer_id: &mut d.next_timer_id,
        };
        d.node.on_start(&mut ctx);
        d.apply(now, &mut effects, out);
        d.effects = effects;
        d
    }

    /// The hosted process's site id.
    pub fn site(&self) -> SiteId {
        self.site
    }

    /// Immutable access to the hosted process (harvest, inspection).
    pub fn node(&self) -> &P {
        &self.node
    }

    /// Mutable access to the hosted process (draining host-visible
    /// event queues the process exposes).
    pub fn node_mut(&mut self) -> &mut P {
        &mut self.node
    }

    /// Unwraps the hosted process.
    pub fn into_node(self) -> P {
        self.node
    }

    /// Delivers one message from `from` at time `now`; outbound sends
    /// are appended to `out`.
    pub fn deliver(
        &mut self,
        now: Time,
        from: SiteId,
        msg: P::Msg,
        out: &mut Vec<(SiteId, P::Msg)>,
    ) {
        let mut effects = std::mem::take(&mut self.effects);
        let mut ctx = Ctx {
            self_id: self.site,
            now,
            rng: &mut self.rng,
            effects: &mut effects,
            next_timer_id: &mut self.next_timer_id,
        };
        self.node.on_message(&mut ctx, from, msg);
        self.apply(now, &mut effects, out);
        self.effects = effects;
    }

    /// Fires every timer due at or before `now`, including timers armed
    /// *by* a firing handler that are already due (the loop re-checks
    /// the heap after each handler).
    pub fn tick(&mut self, now: Time, out: &mut Vec<(SiteId, P::Msg)>) {
        loop {
            match self.timers.peek() {
                Some(p) if p.due <= now => {}
                _ => break,
            }
            let p = self.timers.pop().expect("peeked");
            if self.cancelled.remove(&p.id) {
                continue;
            }
            let mut effects = std::mem::take(&mut self.effects);
            let mut ctx = Ctx {
                self_id: self.site,
                now,
                rng: &mut self.rng,
                effects: &mut effects,
                next_timer_id: &mut self.next_timer_id,
            };
            self.node.on_timer(&mut ctx, p.id, p.timer);
            self.apply(now, &mut effects, out);
            self.effects = effects;
        }
    }

    /// The earliest armed (uncancelled) timer deadline, or `None` when
    /// the process sleeps until the next message. The caller uses this
    /// to bound its poll timeout.
    pub fn next_deadline(&mut self) -> Option<Time> {
        // Purge cancelled heads so a dead timer never shortens a sleep.
        while let Some(p) = self.timers.peek() {
            if self.cancelled.contains(&p.id) {
                let p = self.timers.pop().expect("peeked");
                self.cancelled.remove(&p.id);
            } else {
                return Some(p.due);
            }
        }
        None
    }

    fn apply(
        &mut self,
        now: Time,
        effects: &mut Vec<Effect<P::Msg, P::Timer>>,
        out: &mut Vec<(SiteId, P::Msg)>,
    ) {
        for e in effects.drain(..) {
            match e {
                Effect::Send { to, msg } => out.push((to, msg)),
                Effect::SetTimer { id, delay, timer } => {
                    self.timers.push(Pending {
                        due: Time(now.0 + delay.0),
                        id,
                        timer,
                    });
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
    use crate::time::Duration;

    #[derive(Clone, Debug, PartialEq)]
    enum M {
        Ping,
        Pong,
    }
    impl Label for M {}

    /// Replies Pong to every Ping; arms a timer on start that sends
    /// Ping to site 9 when it fires; cancels a second timer.
    struct Echo {
        victim: Option<TimerId>,
    }
    impl Process for Echo {
        type Msg = M;
        type Timer = u8;

        fn on_start(&mut self, ctx: &mut Ctx<'_, M, u8>) {
            ctx.set_timer(Duration(10), 1);
            let v = ctx.set_timer(Duration(5), 2);
            self.victim = Some(v);
        }

        fn on_message(&mut self, ctx: &mut Ctx<'_, M, u8>, from: SiteId, msg: M) {
            if msg == M::Ping {
                ctx.send(from, M::Pong);
            }
            if let Some(v) = self.victim.take() {
                ctx.cancel_timer(v);
            }
        }

        fn on_timer(&mut self, ctx: &mut Ctx<'_, M, u8>, _id: TimerId, timer: u8) {
            ctx.send(SiteId(9), if timer == 1 { M::Ping } else { M::Pong });
        }
    }

    #[test]
    fn drives_messages_timers_and_cancellation() {
        let mut out = Vec::new();
        let mut d = NodeDriver::new(SiteId(3), Echo { victim: None }, 7, Time(0), &mut out);
        assert!(out.is_empty(), "start sends nothing");
        assert_eq!(d.next_deadline(), Some(Time(5)));

        // A message replies and cancels the 5-tick timer.
        d.deliver(Time(2), SiteId(1), M::Ping, &mut out);
        assert_eq!(out, vec![(SiteId(1), M::Pong)]);
        out.clear();
        assert_eq!(d.next_deadline(), Some(Time(10)), "cancelled head purged");

        // Nothing due yet; then the 10-tick timer fires exactly once.
        d.tick(Time(9), &mut out);
        assert!(out.is_empty());
        d.tick(Time(10), &mut out);
        assert_eq!(out, vec![(SiteId(9), M::Ping)]);
        out.clear();
        d.tick(Time(100), &mut out);
        assert!(out.is_empty(), "timer fired once");
        assert_eq!(d.next_deadline(), None);
        assert_eq!(d.site(), SiteId(3));
    }
}
