//! Local transaction states and the Fig. 6 transition relation.
//!
//! The local states of a participant are the paper's `q` (initial), `W`
//! (wait — voted yes), `PC` (prepare-to-commit), `PA` (prepare-to-abort,
//! the state the paper introduces), `C` (commit) and `A` (abort).
//!
//! The central structural property (Fig. 6): **there is no transition
//! between PC and PA**. A participant in PC ignores PREPARE-TO-ABORT and
//! a participant in PA ignores PREPARE-TO-COMMIT; this is what keeps the
//! protocol safe when several coordinators race in one partition
//! (Example 3). Direct COMMIT/ABORT *commands* are obeyed in any
//! non-terminal state — they are only ever sent after a quorum has made
//! the opposite outcome impossible.

use std::fmt;

use crate::types::Decision;

/// A participant's local state for one transaction.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum LocalState {
    /// `q` — has not voted.
    Initial,
    /// `W` — voted yes, awaiting the coordinator.
    Wait,
    /// `PC` — received PREPARE-TO-COMMIT; committable.
    PreCommit,
    /// `PA` — received PREPARE-TO-ABORT; has relinquished its right to
    /// join a commit quorum.
    PreAbort,
    /// `C` — committed (terminal).
    Committed,
    /// `A` — aborted (terminal).
    Aborted,
}

impl LocalState {
    /// Terminal states are irrevocable.
    pub fn is_terminal(self) -> bool {
        matches!(self, LocalState::Committed | LocalState::Aborted)
    }

    /// Committable states: the site may occupy them only if every
    /// participant voted yes.
    pub fn is_committable(self) -> bool {
        matches!(self, LocalState::PreCommit | LocalState::Committed)
    }

    /// The decision a terminal state encodes.
    pub fn decision(self) -> Option<Decision> {
        match self {
            LocalState::Committed => Some(Decision::Commit),
            LocalState::Aborted => Some(Decision::Abort),
            _ => None,
        }
    }

    /// The paper's one-letter names.
    pub fn short(self) -> &'static str {
        match self {
            LocalState::Initial => "q",
            LocalState::Wait => "W",
            LocalState::PreCommit => "PC",
            LocalState::PreAbort => "PA",
            LocalState::Committed => "C",
            LocalState::Aborted => "A",
        }
    }

    /// The legal transition relation of Fig. 6 (extended with PA).
    ///
    /// Legal:
    /// * `q → W` (vote yes), `q → A` (vote no / abort command)
    /// * `W → PC`, `W → PA` (prepare messages)
    /// * `W → C`, `W → A` (direct commands — a commit/abort command may
    ///   reach a participant that never saw the prepare)
    /// * `PC → C`, `PC → A` (commands; PC→A occurs when an abort quorum
    ///   formed among non-PC participants)
    /// * `PA → A`, `PA → C` (symmetric)
    /// * self-loops (idempotent redelivery)
    ///
    /// Illegal — the load-bearing ones:
    /// * `PC → PA` and `PA → PC` (the Fig. 6 rule)
    /// * leaving a terminal state
    /// * `q → PC` / `q → PA` (prepare before vote)
    pub fn legal_transition(from: LocalState, to: LocalState) -> bool {
        use LocalState::*;
        if from == to {
            return true;
        }
        matches!(
            (from, to),
            (Initial, Wait)
                | (Initial, Aborted)
                | (Wait, PreCommit)
                | (Wait, PreAbort)
                | (Wait, Committed)
                | (Wait, Aborted)
                | (PreCommit, Committed)
                | (PreCommit, Aborted)
                | (PreAbort, Aborted)
                | (PreAbort, Committed)
        )
    }
}

impl fmt::Display for LocalState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.short())
    }
}

/// A witness of one state transition, recorded by participants so the
/// Fig. 6 conformance experiment (E6) can audit entire runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Transition {
    /// State before.
    pub from: LocalState,
    /// State after.
    pub to: LocalState,
}

impl Transition {
    /// True when the transition is legal per Fig. 6.
    pub fn is_legal(&self) -> bool {
        LocalState::legal_transition(self.from, self.to)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use LocalState::*;

    const ALL: [LocalState; 6] = [Initial, Wait, PreCommit, PreAbort, Committed, Aborted];

    #[test]
    fn no_transition_between_pc_and_pa() {
        assert!(!LocalState::legal_transition(PreCommit, PreAbort));
        assert!(!LocalState::legal_transition(PreAbort, PreCommit));
    }

    #[test]
    fn terminal_states_are_absorbing() {
        for s in ALL {
            if s != Committed {
                assert!(!LocalState::legal_transition(Committed, s));
            }
            if s != Aborted {
                assert!(!LocalState::legal_transition(Aborted, s));
            }
        }
        assert!(Committed.is_terminal());
        assert!(Aborted.is_terminal());
        assert!(!PreCommit.is_terminal());
    }

    #[test]
    fn prepare_requires_vote_first() {
        assert!(!LocalState::legal_transition(Initial, PreCommit));
        assert!(!LocalState::legal_transition(Initial, PreAbort));
        assert!(!LocalState::legal_transition(Initial, Committed));
    }

    #[test]
    fn commands_obeyed_from_either_prepared_state() {
        assert!(LocalState::legal_transition(PreCommit, Aborted));
        assert!(LocalState::legal_transition(PreAbort, Committed));
        assert!(LocalState::legal_transition(Wait, Committed));
        assert!(LocalState::legal_transition(Wait, Aborted));
    }

    #[test]
    fn self_loops_are_legal() {
        for s in ALL {
            assert!(LocalState::legal_transition(s, s));
        }
    }

    #[test]
    fn committable_states_match_paper_definition() {
        assert!(PreCommit.is_committable());
        assert!(Committed.is_committable());
        assert!(!Wait.is_committable());
        assert!(!PreAbort.is_committable());
        assert!(!Initial.is_committable());
    }

    #[test]
    fn decisions_of_terminal_states() {
        assert_eq!(Committed.decision(), Some(Decision::Commit));
        assert_eq!(Aborted.decision(), Some(Decision::Abort));
        assert_eq!(Wait.decision(), None);
    }

    #[test]
    fn short_names_match_paper() {
        let names: Vec<&str> = ALL.iter().map(|s| s.short()).collect();
        assert_eq!(names, vec!["q", "W", "PC", "PA", "C", "A"]);
    }

    #[test]
    fn transition_witness_checks() {
        assert!(Transition {
            from: Wait,
            to: PreCommit
        }
        .is_legal());
        assert!(!Transition {
            from: PreCommit,
            to: PreAbort
        }
        .is_legal());
    }
}
