//! # qbc-election — coordinator election within a partition
//!
//! The termination protocols begin: "a coordinator will first be elected
//! in each partition by an election protocol \[7\]" (Garcia-Molina 1982).
//! Crucially, the paper *does not require the elected coordinator to be
//! unique* — Example 3 exhibits two coordinators in one partition after a
//! heal, and TP1/TP2 stay safe regardless. This crate therefore provides
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
//! The [`Elector`] is a sans-IO state machine: feed it [`Input`]s, apply
//! the returned [`Action`]s (sends and timers) to your transport. The
//! suggested timer spans are multiples of the network bound `T`.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

use qbc_simnet::SiteId;
use std::collections::BTreeSet;

/// Messages of the election protocol.
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

impl qbc_simnet::Label for ElectionMsg {
    fn label(&self) -> &'static str {
        match self {
            ElectionMsg::Election { .. } => "ELECTION",
            ElectionMsg::Alive { .. } => "ELECTION-ALIVE",
            ElectionMsg::Coordinator { .. } => "ELECTION-COORD",
        }
    }
}

/// Timers the elector asks its driver to set.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ElectionTimer {
    /// Waiting for `Alive` from a higher site; fires after `2T`.
    AwaitAlive {
        /// Round the timer belongs to.
        round: u64,
    },
    /// Heard `Alive`, waiting for a `Coordinator` announcement; `2T` more.
    AwaitCoordinator {
        /// Round the timer belongs to.
        round: u64,
    },
}

/// Inputs to the election machine.
#[derive(Clone, Debug)]
pub enum Input {
    /// Begin (or restart) an election.
    Start,
    /// A peer's message arrived.
    Msg {
        /// Sender.
        from: SiteId,
        /// Payload.
        msg: ElectionMsg,
    },
    /// A previously requested timer fired.
    Timer(ElectionTimer),
}

/// Effects for the driver to apply.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Action {
    /// Send a message to a peer.
    Send {
        /// Destination.
        to: SiteId,
        /// Payload.
        msg: ElectionMsg,
    },
    /// Request a timer after roughly `2T` (driver chooses exact span).
    SetTimer(ElectionTimer),
    /// This site is now coordinator of its partition.
    Elected,
    /// Another site announced itself coordinator.
    CoordinatorIs(SiteId),
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

/// A bully-election participant.
#[derive(Clone, Debug)]
pub struct Elector {
    id: SiteId,
    peers: BTreeSet<SiteId>,
    phase: Phase,
    round: u64,
}

impl Elector {
    /// Creates an elector for `id` among `peers` (must include every site
    /// that may participate; `id` itself is ignored if present).
    pub fn new(id: SiteId, peers: impl IntoIterator<Item = SiteId>) -> Self {
        let mut peers: BTreeSet<SiteId> = peers.into_iter().collect();
        peers.remove(&id);
        Elector {
            id,
            peers,
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

    fn higher_peers(&self) -> impl Iterator<Item = SiteId> + '_ {
        let me = self.id;
        self.peers.iter().copied().filter(move |p| *p > me)
    }

    fn declare_victory(&mut self, out: &mut Vec<Action>) {
        self.phase = Phase::Leader;
        for p in self.peers.clone() {
            out.push(Action::Send {
                to: p,
                msg: ElectionMsg::Coordinator { round: self.round },
            });
        }
        out.push(Action::Elected);
    }

    fn start_election(&mut self, out: &mut Vec<Action>) {
        self.round += 1;
        let higher: Vec<SiteId> = self.higher_peers().collect();
        if higher.is_empty() {
            self.declare_victory(out);
            return;
        }
        self.phase = Phase::AwaitingAlive;
        for p in higher {
            out.push(Action::Send {
                to: p,
                msg: ElectionMsg::Election { round: self.round },
            });
        }
        out.push(Action::SetTimer(ElectionTimer::AwaitAlive {
            round: self.round,
        }));
    }

    /// Advances the machine. Returns the actions to apply.
    pub fn step(&mut self, input: Input) -> Vec<Action> {
        let mut out = Vec::new();
        match input {
            Input::Start => self.start_election(&mut out),
            Input::Msg { from, msg } => match msg {
                ElectionMsg::Election { round } => {
                    // A lower site is electing; bully it and (re)run our
                    // own election unless already decided upward.
                    if from < self.id {
                        out.push(Action::Send {
                            to: from,
                            msg: ElectionMsg::Alive { round },
                        });
                        match self.phase {
                            Phase::AwaitingAlive | Phase::AwaitingCoordinator => {}
                            Phase::Leader => {
                                // Re-announce to the (possibly recovered)
                                // lower site.
                                out.push(Action::Send {
                                    to: from,
                                    msg: ElectionMsg::Coordinator { round: self.round },
                                });
                            }
                            Phase::Idle | Phase::Follower(_) => self.start_election(&mut out),
                        }
                    }
                    // An Election from a *higher* site is unusual (we only
                    // send upward); ignore — its victory announcement will
                    // arrive if it wins.
                }
                ElectionMsg::Alive { round } => {
                    if self.phase == Phase::AwaitingAlive && round == self.round {
                        self.phase = Phase::AwaitingCoordinator;
                        out.push(Action::SetTimer(ElectionTimer::AwaitCoordinator {
                            round: self.round,
                        }));
                    }
                }
                ElectionMsg::Coordinator { .. } => {
                    // Adopt the announcer. If we were leader ourselves,
                    // higher id wins (deterministic tie-break); the paper
                    // tolerates duplicates either way.
                    if self.phase == Phase::Leader && from < self.id {
                        // Keep our own leadership; re-announce to assert it.
                        out.push(Action::Send {
                            to: from,
                            msg: ElectionMsg::Coordinator { round: self.round },
                        });
                    } else {
                        self.phase = Phase::Follower(from);
                        out.push(Action::CoordinatorIs(from));
                    }
                }
            },
            Input::Timer(t) => match t {
                ElectionTimer::AwaitAlive { round } => {
                    if self.phase == Phase::AwaitingAlive && round == self.round {
                        // No higher site answered: we win.
                        self.declare_victory(&mut out);
                    }
                }
                ElectionTimer::AwaitCoordinator { round } => {
                    if self.phase == Phase::AwaitingCoordinator && round == self.round {
                        // The higher site died mid-election; retry.
                        self.start_election(&mut out);
                    }
                }
            },
        }
        out
    }
}

/// The Paxos Commit recovery ballot for a candidate site's `round`-th
/// takeover attempt.
///
/// Paxos leader failover needs no election at all — any number of
/// candidates may run Phase 1 concurrently and safety holds — but every
/// candidate must use a ballot that is (a) strictly greater than 0 (the
/// original coordinator's ballot) and (b) distinct from every other
/// candidate's, or two candidates could split one ballot's acceptances.
/// Packing the per-site retry round into the high bits and the site id
/// (+1, so round 1 of site 0 stays above ballot 0) into the low 16 bits
/// gives both properties, and later rounds dominate earlier ones at
/// every site.
pub fn recovery_ballot(round: u64, site: SiteId) -> u64 {
    debug_assert!(round > 0, "recovery rounds start at 1");
    (round << 16) | (u64::from(site.0) + 1)
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

    fn sends(actions: &[Action]) -> Vec<(SiteId, &ElectionMsg)> {
        actions
            .iter()
            .filter_map(|a| match a {
                Action::Send { to, msg } => Some((*to, msg)),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn recovery_ballots_are_positive_and_unique() {
        let sites = [SiteId(0), SiteId(1), SiteId(7), SiteId(65000)];
        let mut seen = std::collections::BTreeSet::new();
        for round in 1..=3u64 {
            for s in sites {
                let b = recovery_ballot(round, s);
                assert!(b > 0, "every recovery ballot beats the leader's 0");
                assert!(seen.insert(b), "ballot {b} duplicated");
            }
        }
        // Later rounds dominate earlier ones at every site.
        assert!(recovery_ballot(2, SiteId(0)) > recovery_ballot(1, SiteId(65000)));
    }

    #[test]
    fn singleton_wins_immediately() {
        let mut e = Elector::new(SiteId(3), [SiteId(3)]);
        let out = e.step(Input::Start);
        assert!(out.contains(&Action::Elected));
        assert!(e.is_leader());
        assert_eq!(e.coordinator(), Some(SiteId(3)));
    }

    #[test]
    fn highest_site_wins_immediately_and_announces() {
        let mut e = Elector::new(SiteId(5), [SiteId(2), SiteId(3), SiteId(5)]);
        let out = e.step(Input::Start);
        assert!(out.contains(&Action::Elected));
        let s = sends(&out);
        assert_eq!(s.len(), 2, "announces to both lower peers");
        assert!(s
            .iter()
            .all(|(_, m)| matches!(m, ElectionMsg::Coordinator { .. })));
    }

    #[test]
    fn lower_site_defers_to_alive_higher_site() {
        let mut low = Elector::new(SiteId(1), [SiteId(1), SiteId(2)]);
        let out = low.step(Input::Start);
        let s = sends(&out);
        assert_eq!(s.len(), 1);
        assert_eq!(s[0].0, SiteId(2));
        assert_eq!(low.phase(), Phase::AwaitingAlive);

        // Higher site answers Alive; low waits for Coordinator.
        let out = low.step(Input::Msg {
            from: SiteId(2),
            msg: ElectionMsg::Alive { round: low.round() },
        });
        assert_eq!(low.phase(), Phase::AwaitingCoordinator);
        assert!(out
            .iter()
            .any(|a| matches!(a, Action::SetTimer(ElectionTimer::AwaitCoordinator { .. }))));

        // Coordinator announcement arrives.
        let out = low.step(Input::Msg {
            from: SiteId(2),
            msg: ElectionMsg::Coordinator { round: 1 },
        });
        assert_eq!(out, vec![Action::CoordinatorIs(SiteId(2))]);
        assert_eq!(low.coordinator(), Some(SiteId(2)));
    }

    #[test]
    fn silent_higher_site_times_out_and_lower_wins() {
        let mut low = Elector::new(SiteId(1), [SiteId(1), SiteId(9)]);
        low.step(Input::Start);
        let round = low.round();
        let out = low.step(Input::Timer(ElectionTimer::AwaitAlive { round }));
        assert!(out.contains(&Action::Elected));
        assert!(low.is_leader());
    }

    #[test]
    fn stale_timers_are_ignored() {
        let mut e = Elector::new(SiteId(1), [SiteId(1), SiteId(2)]);
        e.step(Input::Start);
        let old_round = e.round();
        e.step(Input::Start); // restart; round advances
        let out = e.step(Input::Timer(ElectionTimer::AwaitAlive { round: old_round }));
        assert!(out.is_empty(), "stale timer must not elect");
    }

    #[test]
    fn higher_site_bullies_lower_candidate() {
        let mut high = Elector::new(SiteId(7), [SiteId(1), SiteId(7)]);
        let out = high.step(Input::Msg {
            from: SiteId(1),
            msg: ElectionMsg::Election { round: 1 },
        });
        let s = sends(&out);
        // Replies Alive and, having no higher peers, wins immediately.
        assert!(matches!(s[0].1, ElectionMsg::Alive { round: 1 }));
        assert!(out.contains(&Action::Elected));
    }

    #[test]
    fn leader_reannounces_to_election_from_lower() {
        let mut high = Elector::new(SiteId(7), [SiteId(1), SiteId(7)]);
        high.step(Input::Start);
        assert!(high.is_leader());
        let out = high.step(Input::Msg {
            from: SiteId(1),
            msg: ElectionMsg::Election { round: 4 },
        });
        let s = sends(&out);
        assert!(s
            .iter()
            .any(|(_, m)| matches!(m, ElectionMsg::Coordinator { .. })));
        assert!(high.is_leader(), "leadership retained");
    }

    #[test]
    fn dead_winner_triggers_retry() {
        let mut low = Elector::new(SiteId(1), [SiteId(1), SiteId(5)]);
        low.step(Input::Start);
        let round = low.round();
        low.step(Input::Msg {
            from: SiteId(5),
            msg: ElectionMsg::Alive { round },
        });
        // The higher site crashes before announcing; timeout restarts.
        let out = low.step(Input::Timer(ElectionTimer::AwaitCoordinator { round }));
        assert!(out.iter().any(|a| matches!(
            a,
            Action::Send {
                to: SiteId(5),
                msg: ElectionMsg::Election { .. }
            }
        )));
        assert_eq!(low.phase(), Phase::AwaitingAlive);
        assert_eq!(low.round(), round + 1);
    }

    #[test]
    fn two_leaders_can_coexist_after_heal() {
        // Partition {1} | {2}: both elect themselves.
        let mut a = Elector::new(SiteId(1), [SiteId(1), SiteId(2)]);
        let mut b = Elector::new(SiteId(2), [SiteId(1), SiteId(2)]);
        a.step(Input::Start);
        a.step(Input::Timer(ElectionTimer::AwaitAlive { round: a.round() }));
        b.step(Input::Start);
        assert!(a.is_leader() && b.is_leader(), "both partitions elect");
        // On heal, b's announcement reaches a: a defers (higher id wins).
        let out = a.step(Input::Msg {
            from: SiteId(2),
            msg: ElectionMsg::Coordinator { round: 1 },
        });
        assert!(out.contains(&Action::CoordinatorIs(SiteId(2))));
        assert!(!a.is_leader());
        // a's stale announcement reaching b: b keeps leadership and
        // re-announces.
        let out = b.step(Input::Msg {
            from: SiteId(1),
            msg: ElectionMsg::Coordinator { round: 1 },
        });
        assert!(b.is_leader());
        assert!(!out.contains(&Action::Elected), "no duplicate Elected");
    }

    #[test]
    fn follower_restarts_election_when_bullied() {
        let mut mid = Elector::new(SiteId(3), [SiteId(1), SiteId(3), SiteId(9)]);
        mid.step(Input::Start);
        mid.step(Input::Msg {
            from: SiteId(9),
            msg: ElectionMsg::Coordinator { round: 1 },
        });
        assert_eq!(mid.coordinator(), Some(SiteId(9)));
        // s1 holds a new election (s9 must have died): mid answers Alive
        // and re-runs its own.
        let out = mid.step(Input::Msg {
            from: SiteId(1),
            msg: ElectionMsg::Election { round: 2 },
        });
        let s = sends(&out);
        assert!(matches!(s[0].1, ElectionMsg::Alive { .. }));
        assert!(s
            .iter()
            .any(|(to, m)| *to == SiteId(9) && matches!(m, ElectionMsg::Election { .. })));
    }
}
