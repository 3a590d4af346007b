//! Coordinator election within a partition.
//!
//! The termination protocols begin: "a coordinator will first be elected
//! in each partition by an election protocol \[7\]" (Garcia-Molina 1982).
//! Crucially, the paper *does not require the elected coordinator to be
//! unique* — Example 3 exhibits two coordinators in one partition after a
//! heal, and TP1/TP2 stay safe regardless. This module therefore provides
//! a bully-style election that guarantees:
//!
//! * **Liveness**: in a stable partition, at least one site eventually
//!   declares itself coordinator.
//! * **No false silence**: a site that times out waiting for higher sites
//!   declares itself, so a partition never waits forever.
//!
//! and deliberately does *not* guarantee uniqueness under topology
//! changes, matching the paper's fault model.
//!
//! The [`Elector`] takes events the way every engine of this crate does
//! (see [`crate::CommitEngine`]): [`Elector::start`], one
//! [`Msg::Election`] at a time through [`Elector::on_msg`] and one timer
//! expiry through [`Elector::on_timer`], ignoring other roles' events and
//! pushing its effects into the caller's buffer. Its peers are the
//! transaction's participants; a win is [`Action::Elected`].

use crate::actions::{Action, TimerKind};
use crate::messages::Msg;
use crate::types::TxnSpec;
use qbc_simnet::{Label, SiteId};
use std::sync::Arc;

/// Messages of the election protocol, carried in [`Msg::Election`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ElectionMsg {
    /// "I am holding an election" — sent to higher-id peers.
    Election {
        /// Election round of the sender.
        round: u64,
    },
    /// "I am alive and will take over" — reply to a lower-id candidate.
    Alive {
        /// Round being answered.
        round: u64,
    },
    /// "I am the coordinator" — broadcast by the winner.
    Coordinator {
        /// Round in which the sender won.
        round: u64,
    },
}

impl Label for ElectionMsg {
    fn label(&self) -> &'static str {
        match self {
            ElectionMsg::Election { .. } => "ELECTION",
            ElectionMsg::Alive { .. } => "ELECTION-ALIVE",
            ElectionMsg::Coordinator { .. } => "ELECTION-COORD",
        }
    }
}

/// Election progress states.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    /// Not participating in an election.
    Idle,
    /// Sent `Election` to higher sites; waiting for `Alive`.
    AwaitingAlive,
    /// Received `Alive`; waiting for a `Coordinator` announcement.
    AwaitingCoordinator,
    /// Won an election and announced.
    Leader,
    /// Accepted another site as coordinator.
    Follower(SiteId),
}

/// A bully-election participant for one transaction.
#[derive(Clone, Debug)]
pub struct Elector {
    id: SiteId,
    /// The transaction: its participants (bar `id`) are the peers, and
    /// every message carries it, so sites that never saw the
    /// transaction can still take part.
    spec: Arc<TxnSpec>,
    phase: Phase,
    round: u64,
}

impl Elector {
    /// Creates the elector of site `id` for `spec`'s transaction.
    pub fn new(id: SiteId, spec: Arc<TxnSpec>) -> Self {
        Elector {
            id,
            spec,
            phase: Phase::Idle,
            round: 0,
        }
    }

    /// Current phase.
    pub fn phase(&self) -> Phase {
        self.phase
    }

    /// Current round number.
    pub fn round(&self) -> u64 {
        self.round
    }

    /// True when this site currently believes itself coordinator.
    pub fn is_leader(&self) -> bool {
        self.phase == Phase::Leader
    }

    /// The coordinator this site currently follows (itself when leader).
    pub fn coordinator(&self) -> Option<SiteId> {
        match self.phase {
            Phase::Leader => Some(self.id),
            Phase::Follower(c) => Some(c),
            _ => None,
        }
    }

    fn peers(&self) -> impl Iterator<Item = SiteId> + '_ {
        let me = self.id;
        self.spec
            .participants
            .iter()
            .copied()
            .filter(move |&p| p != me)
    }

    fn send(&self, to: SiteId, msg: ElectionMsg, out: &mut Vec<Action>) {
        let spec = Arc::clone(&self.spec);
        out.push(Action::Send(
            to,
            Msg::Election {
                txn: spec.id,
                spec,
                msg,
            },
        ));
    }

    fn declare_victory(&mut self, out: &mut Vec<Action>) {
        self.phase = Phase::Leader;
        let msg = ElectionMsg::Coordinator { round: self.round };
        for p in self.peers() {
            self.send(p, msg.clone(), out);
        }
        out.push(Action::Elected { txn: self.spec.id });
    }

    /// Begins (or restarts) an election: asks every higher peer, or wins
    /// at once when there is none.
    pub fn start(&mut self, out: &mut Vec<Action>) {
        self.round += 1;
        let me = self.id;
        if !self.peers().any(|p| p > me) {
            return self.declare_victory(out);
        }
        self.phase = Phase::AwaitingAlive;
        let msg = ElectionMsg::Election { round: self.round };
        for p in self.peers().filter(|&p| p > me) {
            self.send(p, msg.clone(), out);
        }
        let (txn, round) = (self.spec.id, self.round);
        out.push(Action::SetTimer(TimerKind::ElectionAlive { txn, round }));
    }

    /// Feeds one message; appends the effects to `out`. Messages other
    /// than [`Msg::Election`] are ignored.
    pub fn on_msg(&mut self, from: SiteId, msg: &Msg, out: &mut Vec<Action>) {
        let Msg::Election { msg, .. } = msg else {
            return;
        };
        match *msg {
            // A lower site is electing; bully it and (re)run our own
            // election unless already decided upward. An Election from a
            // *higher* site is unusual (we only send upward); ignore —
            // its victory announcement will arrive if it wins.
            ElectionMsg::Election { round } if from < self.id => {
                self.send(from, ElectionMsg::Alive { round }, out);
                match self.phase {
                    Phase::AwaitingAlive | Phase::AwaitingCoordinator => {}
                    // Re-announce to the (possibly recovered) lower site.
                    Phase::Leader => {
                        let round = self.round;
                        self.send(from, ElectionMsg::Coordinator { round }, out);
                    }
                    Phase::Idle | Phase::Follower(_) => self.start(out),
                }
            }
            ElectionMsg::Election { .. } => {}
            ElectionMsg::Alive { round } => {
                if self.phase == Phase::AwaitingAlive && round == self.round {
                    self.phase = Phase::AwaitingCoordinator;
                    let (txn, round) = (self.spec.id, self.round);
                    out.push(Action::SetTimer(TimerKind::ElectionCoordinator {
                        txn,
                        round,
                    }));
                }
            }
            // Adopt the announcer. If we were leader ourselves, higher id
            // wins (deterministic tie-break) and we re-announce to assert
            // it; the paper tolerates duplicates either way.
            ElectionMsg::Coordinator { .. } => {
                if self.phase == Phase::Leader && from < self.id {
                    let round = self.round;
                    self.send(from, ElectionMsg::Coordinator { round }, out);
                } else {
                    self.phase = Phase::Follower(from);
                }
            }
        }
    }

    /// Feeds one timer expiry; appends the effects to `out`. Other
    /// timers, and windows of an earlier round or another phase, are
    /// ignored.
    pub fn on_timer(&mut self, kind: TimerKind, out: &mut Vec<Action>) {
        match kind {
            // No higher site answered: we win.
            TimerKind::ElectionAlive { round, .. }
                if self.phase == Phase::AwaitingAlive && round == self.round =>
            {
                self.declare_victory(out)
            }
            // The higher site died mid-election; retry.
            TimerKind::ElectionCoordinator { round, .. }
                if self.phase == Phase::AwaitingCoordinator && round == self.round =>
            {
                self.start(out)
            }
            _ => {}
        }
    }
}

/// Canonical state hash for the model checker's visited-set: phase and
/// round fully determine the elector's future behaviour (id and peer
/// set are fixed per instance and hashed at the node level).
impl qbc_simnet::Fingerprint for Elector {
    fn fingerprint(&self, _now: qbc_simnet::Time, h: &mut qbc_simnet::FastHasher) {
        use std::hash::Hasher;
        h.write(format!("{:?}|{}", self.phase, self.round).as_bytes());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{ProtocolKind, TxnId, WriteSet};

    const TXN: TxnId = TxnId(1);

    fn elector(id: u32, peers: impl IntoIterator<Item = u32>) -> Elector {
        let spec = TxnSpec {
            id: TXN,
            coordinator: SiteId(0),
            writeset: WriteSet::default(),
            participants: peers.into_iter().map(SiteId).collect(),
            protocol: ProtocolKind::QuorumCommit2,
            parent: None,
        };
        Elector::new(SiteId(id), Arc::new(spec))
    }

    /// Vec-returning shims over the buffer contract.
    impl Elector {
        fn start_v(&mut self) -> Vec<Action> {
            let mut out = Vec::new();
            self.start(&mut out);
            out
        }
        fn on_msg_v(&mut self, from: u32, msg: ElectionMsg) -> Vec<Action> {
            let mut out = Vec::new();
            let spec = Arc::clone(&self.spec);
            self.on_msg(
                SiteId(from),
                &Msg::Election {
                    txn: TXN,
                    spec,
                    msg,
                },
                &mut out,
            );
            out
        }
        fn alive_timeout(&mut self, round: u64) -> Vec<Action> {
            let mut out = Vec::new();
            self.on_timer(TimerKind::ElectionAlive { txn: TXN, round }, &mut out);
            out
        }
        fn coordinator_timeout(&mut self, round: u64) -> Vec<Action> {
            let mut out = Vec::new();
            self.on_timer(TimerKind::ElectionCoordinator { txn: TXN, round }, &mut out);
            out
        }
    }

    fn sends(actions: &[Action]) -> Vec<(SiteId, &ElectionMsg)> {
        actions
            .iter()
            .filter_map(|a| match a {
                Action::Send(to, Msg::Election { msg, .. }) => Some((*to, msg)),
                _ => None,
            })
            .collect()
    }

    fn elected(actions: &[Action]) -> bool {
        actions.contains(&Action::Elected { txn: TXN })
    }

    #[test]
    fn singleton_wins_immediately() {
        let mut e = elector(3, [3]);
        assert!(elected(&e.start_v()));
        assert!(e.is_leader());
        assert_eq!(e.coordinator(), Some(SiteId(3)));
    }

    #[test]
    fn highest_site_wins_immediately_and_announces() {
        let mut e = elector(5, [2, 3, 5]);
        let out = e.start_v();
        assert!(elected(&out));
        let s = sends(&out);
        assert_eq!(s.len(), 2, "announces to both lower peers");
        assert!(s
            .iter()
            .all(|(_, m)| matches!(m, ElectionMsg::Coordinator { .. })));
    }

    #[test]
    fn lower_site_defers_to_alive_higher_site() {
        let mut low = elector(1, [1, 2]);
        let out = low.start_v();
        let s = sends(&out);
        assert_eq!(s.len(), 1);
        assert_eq!(s[0].0, SiteId(2));
        assert_eq!(low.phase(), Phase::AwaitingAlive);

        // Higher site answers Alive; low waits for Coordinator.
        let round = low.round();
        let out = low.on_msg_v(2, ElectionMsg::Alive { round });
        assert_eq!(low.phase(), Phase::AwaitingCoordinator);
        assert!(out
            .iter()
            .any(|a| matches!(a, Action::SetTimer(TimerKind::ElectionCoordinator { .. }))));

        // Coordinator announcement arrives: adopted, nothing to do.
        let out = low.on_msg_v(2, ElectionMsg::Coordinator { round: 1 });
        assert!(out.is_empty(), "{out:?}");
        assert_eq!(low.coordinator(), Some(SiteId(2)));
    }

    #[test]
    fn silent_higher_site_times_out_and_lower_wins() {
        let mut low = elector(1, [1, 9]);
        low.start_v();
        let round = low.round();
        assert!(elected(&low.alive_timeout(round)));
        assert!(low.is_leader());
    }

    #[test]
    fn stale_timers_are_ignored() {
        let mut e = elector(1, [1, 2]);
        e.start_v();
        let old_round = e.round();
        e.start_v(); // restart; round advances
        let out = e.alive_timeout(old_round);
        assert!(out.is_empty(), "stale timer must not elect");
    }

    #[test]
    fn other_roles_events_are_ignored() {
        let mut e = elector(1, [1, 2]);
        e.start_v();
        let mut out = Vec::new();
        e.on_msg(SiteId(2), &Msg::Abort { txn: TXN }, &mut out);
        let round = e.round();
        e.on_timer(TimerKind::StateCollection { txn: TXN, round }, &mut out);
        assert!(out.is_empty(), "{out:?}");
        assert_eq!(e.phase(), Phase::AwaitingAlive);
    }

    #[test]
    fn higher_site_bullies_lower_candidate() {
        let mut high = elector(7, [1, 7]);
        let out = high.on_msg_v(1, ElectionMsg::Election { round: 1 });
        let s = sends(&out);
        // Replies Alive and, having no higher peers, wins immediately.
        assert!(matches!(s[0].1, ElectionMsg::Alive { round: 1 }));
        assert!(elected(&out));
    }

    #[test]
    fn leader_reannounces_to_election_from_lower() {
        let mut high = elector(7, [1, 7]);
        high.start_v();
        assert!(high.is_leader());
        let out = high.on_msg_v(1, ElectionMsg::Election { round: 4 });
        let s = sends(&out);
        assert!(s
            .iter()
            .any(|(_, m)| matches!(m, ElectionMsg::Coordinator { .. })));
        assert!(high.is_leader(), "leadership retained");
    }

    #[test]
    fn dead_winner_triggers_retry() {
        let mut low = elector(1, [1, 5]);
        low.start_v();
        let round = low.round();
        low.on_msg_v(5, ElectionMsg::Alive { round });
        // The higher site crashes before announcing; timeout restarts.
        let out = low.coordinator_timeout(round);
        assert!(sends(&out)
            .iter()
            .any(|(to, m)| *to == SiteId(5) && matches!(m, ElectionMsg::Election { .. })));
        assert_eq!(low.phase(), Phase::AwaitingAlive);
        assert_eq!(low.round(), round + 1);
    }

    #[test]
    fn two_leaders_can_coexist_after_heal() {
        // Partition {1} | {2}: both elect themselves.
        let mut a = elector(1, [1, 2]);
        let mut b = elector(2, [1, 2]);
        a.start_v();
        a.alive_timeout(a.round());
        b.start_v();
        assert!(a.is_leader() && b.is_leader(), "both partitions elect");
        // On heal, b's announcement reaches a: a defers (higher id wins).
        a.on_msg_v(2, ElectionMsg::Coordinator { round: 1 });
        assert_eq!(a.coordinator(), Some(SiteId(2)));
        // a's stale announcement reaching b: b keeps leadership and
        // re-announces.
        let out = b.on_msg_v(1, ElectionMsg::Coordinator { round: 1 });
        assert!(b.is_leader());
        assert!(!elected(&out), "no duplicate Elected");
    }

    #[test]
    fn follower_restarts_election_when_bullied() {
        let mut mid = elector(3, [1, 3, 9]);
        mid.start_v();
        mid.on_msg_v(9, ElectionMsg::Coordinator { round: 1 });
        assert_eq!(mid.coordinator(), Some(SiteId(9)));
        // s1 holds a new election (s9 must have died): mid answers Alive
        // and re-runs its own.
        let out = mid.on_msg_v(1, ElectionMsg::Election { round: 2 });
        let s = sends(&out);
        assert!(matches!(s[0].1, ElectionMsg::Alive { .. }));
        assert!(s
            .iter()
            .any(|(to, m)| *to == SiteId(9) && matches!(m, ElectionMsg::Election { .. })));
    }
}
