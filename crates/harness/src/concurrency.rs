//! Empirical derivation of Fig. 4's concurrency sets (experiment E5).
//!
//! The paper's impossibility argument rests on which *partition states*
//! (PS1–PS6) can coexist when a 3PC commitment procedure is interrupted.
//! Instead of trusting the table, we re-derive it: enumerate interrupted
//! runs — every injection time × a family of partition shapes × vote
//! scripts × prepare-loss patterns — snapshot the local states in each
//! component at the instant of interruption, classify them per Fig. 4,
//! and record every pair of partition states observed side by side.
//!
//! The result is checked against [`qbc_core::partition_state::paper_concurrency_claims`].

use crate::scenario::Scenario;
use qbc_core::partition_state::{classify, Ps};
use qbc_core::{ProtocolKind, TxnId, WriteSet};
use qbc_simnet::{Fault, SiteId, Time};
use qbc_votes::{Catalog, CatalogBuilder, ItemId};
use std::collections::{BTreeMap, BTreeSet};

/// The observed relation: which `(Ps, Ps)` pairs coexisted, with one
/// witness description each.
#[derive(Clone, Debug, Default)]
pub struct ConcurrencyRelation {
    /// Observed coexisting pairs (symmetric closure stored explicitly).
    pub pairs: BTreeSet<(Ps, Ps)>,
    /// A witness (injection description) per pair.
    pub witnesses: BTreeMap<(Ps, Ps), String>,
}

impl ConcurrencyRelation {
    fn record(&mut self, a: Ps, b: Ps, witness: &str) {
        for (x, y) in [(a, b), (b, a)] {
            if self.pairs.insert((x, y)) {
                self.witnesses.insert((x, y), witness.to_string());
            }
        }
    }

    /// True when every one of the paper's claimed relations was observed.
    pub fn covers_paper_claims(&self) -> bool {
        self.missing_claims().is_empty()
    }

    /// Paper-claimed pairs not (yet) observed.
    pub fn missing_claims(&self) -> Vec<(Ps, Ps)> {
        qbc_core::partition_state::paper_concurrency_claims()
            .iter()
            .filter(|p| !self.pairs.contains(p))
            .copied()
            .collect()
    }
}

/// The enumeration configuration: a 6-site, single-item 3PC world.
fn catalog() -> Catalog {
    CatalogBuilder::new()
        .item(ItemId(0))
        .copies_at((1..=6).map(SiteId))
        .quorums(2, 5)
        .build()
        .expect("valid")
}

/// A family of 2-way partition shapes over s1..s6 (s1 coordinates).
fn partition_shapes() -> Vec<Vec<Vec<SiteId>>> {
    let s = |v: &[u32]| v.iter().map(|&i| SiteId(i)).collect::<Vec<_>>();
    vec![
        vec![s(&[1, 2, 3]), s(&[4, 5, 6])],
        vec![s(&[1]), s(&[2, 3, 4, 5, 6])],
        vec![s(&[1, 2]), s(&[3, 4]), s(&[5, 6])],
        vec![s(&[1, 4, 5]), s(&[2, 3, 6])],
        vec![s(&[1, 2, 3, 4, 5]), s(&[6])],
    ]
}

/// Enumerates interrupted 3PC runs and derives the concurrency relation.
///
/// Variants swept:
/// * interruption instant `t` ∈ {1, 2, …, 60} (constant delay 10 makes
///   each protocol phase land on exact ticks);
/// * every partition shape in a fixed 2/3-way family, with and without a
///   coordinator crash;
/// * a vote script where s6 votes no (producing abort states, PS3);
/// * a lost `VOTE-REQ` to s6 (producing lingering initial states, PS1);
/// * lost prepares to a suffix of sites (producing PS4 PC/W mixes).
pub fn enumerate() -> ConcurrencyRelation {
    let catalog = catalog();
    let mut rel = ConcurrencyRelation::default();

    #[derive(Clone, Copy, Debug)]
    enum Script {
        Clean,
        VoteNo,
        LostVoteReq,
        /// Lost VOTE-REQ to s6 *and* a no vote from s5: an initial-state
        /// site and an abort coexist (the PS1/PS3 witness).
        NoAndLost,
        LostPrepares(u32), // prepares dropped to sites > this id
    }
    let scripts = [
        Script::Clean,
        Script::VoteNo,
        Script::LostVoteReq,
        Script::NoAndLost,
        Script::LostPrepares(3),
        Script::LostPrepares(4),
    ];

    for t in 1..=60u64 {
        for (pi, shape) in partition_shapes().iter().enumerate() {
            for crash_coord in [false, true] {
                for script in scripts {
                    let mut s = Scenario::new("e5", catalog.clone(), (1..=6).map(SiteId).collect())
                        .constant_delays()
                        .submit(
                            Time(0),
                            SiteId(1),
                            1,
                            WriteSet::new([(ItemId(0), 1)]),
                            ProtocolKind::ThreePhase,
                        );
                    s.record_trace = false;
                    match script {
                        Script::Clean => {}
                        Script::VoteNo => {
                            s.vote_no.entry(SiteId(6)).or_default().insert(TxnId(1));
                        }
                        Script::LostVoteReq => {
                            s = s.fault(Time(0), Fault::BlockLink(SiteId(1), SiteId(6)));
                        }
                        Script::NoAndLost => {
                            s = s.fault(Time(0), Fault::BlockLink(SiteId(1), SiteId(6)));
                            s.vote_no.entry(SiteId(5)).or_default().insert(TxnId(1));
                        }
                        Script::LostPrepares(above) => {
                            // Block the prepare round (sent at t=20) to
                            // sites with id > `above`.
                            for k in (above + 1)..=6 {
                                s = s.fault(Time(15), Fault::BlockLink(SiteId(1), SiteId(k)));
                            }
                        }
                    }
                    s = s.fault(Time(t), Fault::Partition(shape.clone()));
                    if crash_coord {
                        s = s.fault(Time(t), Fault::Crash(SiteId(1)));
                    }
                    // Freeze the world right after the interruption,
                    // before any termination protocol runs (watchdogs
                    // need 3T = 30 ticks of silence).
                    s.run_until = Time(t + 1);
                    let out = s.run();
                    let states = out.local_states(TxnId(1));
                    let mut observed: Vec<Ps> = Vec::new();
                    for comp in out.live_components() {
                        // A participant that never heard of TR is in the
                        // initial state q (it has no engine yet).
                        let comp_states: Vec<_> = comp
                            .iter()
                            .map(|site| {
                                states
                                    .get(site)
                                    .copied()
                                    .unwrap_or(qbc_core::LocalState::Initial)
                            })
                            .collect();
                        if comp_states.is_empty() {
                            continue;
                        }
                        if let Some(ps) = classify(comp_states) {
                            observed.push(ps);
                        }
                    }
                    let witness = format!("t={t} shape#{pi} crash={crash_coord} script={script:?}");
                    for i in 0..observed.len() {
                        for j in (i + 1)..observed.len() {
                            rel.record(observed[i], observed[j], &witness);
                        }
                    }
                }
            }
        }
    }
    rel
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn enumeration_covers_every_paper_claim() {
        let rel = enumerate();
        assert!(
            rel.covers_paper_claims(),
            "missing: {:?}\nobserved: {:?}",
            rel.missing_claims(),
            rel.pairs
        );
    }

    #[test]
    fn fatal_pair_ps2_ps5_is_witnessed() {
        // The pair at the heart of the impossibility argument.
        let rel = enumerate();
        assert!(rel.pairs.contains(&(Ps::Ps2, Ps::Ps5)));
        assert!(rel.witnesses.contains_key(&(Ps::Ps2, Ps::Ps5)));
    }
}
