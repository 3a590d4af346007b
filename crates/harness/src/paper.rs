//! The paper's worked examples as executable scenarios.
//!
//! * [`example_catalog`] / [`fig3_scenario`] — the Fig. 3 setting used by
//!   Examples 1, 2 and 4: transaction TR issued at `s1` updating items
//!   `x` (copies at s1–s4) and `y` (copies at s5–s8), unit votes,
//!   `r = 2`, `w = 3`; the coordinator crashes during the prepare round
//!   leaving `s5` in PC and everyone else in W, and the network splits
//!   into G1 = {s1, s2, s3}, G2 = {s4, s5}, G3 = {s6, s7, s8}.
//! * [`fig7_scenario`] — the Example 3 setting: TR issued at `s1`
//!   updating `x` and `y`, each with copies at s2–s5, `w = 3`, `r = 2`;
//!   coordinator crash, a 2-way partition, a heal timed to produce two
//!   termination coordinators, and the adversarial message losses
//!   (s2 ↔ s3 and s2 → s5 blocked).
//!
//! The choreography uses constant delays equal to `T = 10` ticks so
//! message arrival times are exact; each builder's doc comment gives
//! its timeline.

use crate::scenario::{Fault, Scenario};
use qbc_core::{ProtocolKind, SiteVotes, WriteSet};
use qbc_simnet::{SiteId, Time};
use qbc_votes::{Catalog, CatalogBuilder, ItemId};

/// Item `x` of the Fig. 3 configuration.
pub const ITEM_X: ItemId = ItemId(0);
/// Item `y` of the Fig. 3 configuration.
pub const ITEM_Y: ItemId = ItemId(1);
/// The transaction id used for TR.
pub const TR: u64 = 1;

/// The Example 1/2/4 catalog: `x` at s1–s4, `y` at s5–s8, unit votes,
/// `r(x) = r(y) = 2`, `w(x) = w(y) = 3`.
pub fn example_catalog() -> Catalog {
    CatalogBuilder::new()
        .item(ITEM_X, "x")
        .copies_at((1..=4).map(SiteId))
        .quorums(2, 3)
        .item(ITEM_Y, "y")
        .copies_at((5..=8).map(SiteId))
        .quorums(2, 3)
        .build()
        .expect("paper catalog is valid")
}

/// The Example 1 site-vote parameters for Skeen `[16]`: one vote per
/// site, `Vc = 5`, `Va = 4`.
pub fn example_site_votes() -> SiteVotes {
    SiteVotes::uniform((1..=8).map(SiteId), 5, 4)
}

/// All sites of the Fig. 3 setting.
pub fn example_sites() -> Vec<SiteId> {
    (1..=8).map(SiteId).collect()
}

/// The Fig. 3 partition: G1 = {s1, s2, s3}, G2 = {s4, s5},
/// G3 = {s6, s7, s8}.
pub fn fig3_partition() -> Vec<Vec<SiteId>> {
    vec![
        vec![SiteId(1), SiteId(2), SiteId(3)],
        vec![SiteId(4), SiteId(5)],
        vec![SiteId(6), SiteId(7), SiteId(8)],
    ]
}

/// Builds the Fig. 3 scenario for a given protocol.
///
/// Timeline (constant delay `T` = 10):
/// * `t=0` — TR submitted at s1 (writes x := 11, y := 22).
/// * `t=10` — `VOTE-REQ` delivered; every participant votes yes.
/// * `t=15` — the links s1 → {s2,s3,s4,s6,s7,s8} are blocked, so the
///   prepare round will only reach s5.
/// * `t=20` — all votes are in; the coordinator broadcasts
///   `PREPARE-TO-COMMIT` (dropped on all blocked links).
/// * `t=30` — s5 enters PC (its ack will never arrive: see below).
/// * `t=31` — s1 crashes and the network partitions into Fig. 3's
///   G1/G2/G3. Every other participant is still in W.
///
/// This reproduces exactly the paper's premise: "leaving the local state
/// of site5 as PC and all the other active participants as W".
pub fn fig3_scenario(protocol: ProtocolKind, seed: u64) -> Scenario {
    let mut s = Scenario::new(
        format!("fig3/{}", protocol.name()),
        example_catalog(),
        example_sites(),
    )
    .constant_delays()
    .submit(
        Time(0),
        SiteId(1),
        TR,
        WriteSet::new([(ITEM_X, 11), (ITEM_Y, 22)]),
        protocol,
    );
    s.seed = seed;
    if protocol == ProtocolKind::SkeenQuorum {
        s.site_votes = Some(example_site_votes());
    }
    for other in [2u32, 3, 4, 6, 7, 8] {
        s = s.fault(Time(15), Fault::BlockLink(SiteId(1), SiteId(other)));
    }
    s = s
        .fault(Time(31), Fault::Crash(SiteId(1)))
        .fault(Time(31), Fault::Partition(fig3_partition()));
    s.run_until = Time(4_000);
    s
}

/// The Example 3 catalog: `x` and `y` each with unit-vote copies at
/// s2–s5, `w = 3`, `r = 2`.
pub fn fig7_catalog() -> Catalog {
    CatalogBuilder::new()
        .item(ITEM_X, "x")
        .copies_at((2..=5).map(SiteId))
        .quorums(2, 3)
        .item(ITEM_Y, "y")
        .copies_at((2..=5).map(SiteId))
        .quorums(2, 3)
        .build()
        .expect("fig7 catalog is valid")
}

/// Builds the Example 3 (Fig. 7) scenario.
///
/// Timeline (constant delay `T` = 10):
/// * `t=0` — TR submitted at s1 (not itself a copy holder) under QC1.
/// * `t=10` — votes solicited; `t=20` — all yes; prepare broadcast.
/// * `t=15` — links s1 → {s2,s3,s4} blocked: only s5 sees the prepare
///   (`t=30`), entering PC.
/// * From `t=0` the adversarial losses of the example are in place:
///   s2 ↔ s3 and s2 → s5 blocked.
/// * `t=31` — s1 crashes; partition into G1 = {s1, s2} and
///   G2 = {s3, s4, s5}.
/// * `t=59` — the network heals "just before site2 starts collecting
///   local state information", so two termination coordinators race in
///   one partition, separated only by the blocked links.
///
/// With [`qbc_core::FaultyMode::AnswerAcrossWall`] (participants answer
/// prepares across the PC/PA wall) the race produces an inconsistent
/// termination; with the correct rule it cannot.
pub fn fig7_scenario(faulty: qbc_core::FaultyMode, seed: u64) -> Scenario {
    let mut s = Scenario::new(
        format!("fig7/{faulty:?}"),
        fig7_catalog(),
        (1..=5).map(SiteId).collect(),
    )
    .constant_delays()
    .submit(
        Time(0),
        SiteId(1),
        TR,
        WriteSet::new([(ITEM_X, 11), (ITEM_Y, 22)]),
        ProtocolKind::QuorumCommit1,
    );
    s.seed = seed;
    s.faulty = faulty;
    // The example's adversarial message losses. The paper blocks
    // s2 ↔ s3 and s2 → s5 because *s3* coordinates G2 in its telling;
    // our bully election makes s5 the G2 coordinator, so the equivalent
    // isolation of the two coordinators also loses s5 → s2 traffic.
    s = s
        .fault(Time(0), Fault::BlockLink(SiteId(2), SiteId(3)))
        .fault(Time(0), Fault::BlockLink(SiteId(3), SiteId(2)))
        .fault(Time(0), Fault::BlockLink(SiteId(2), SiteId(5)))
        .fault(Time(0), Fault::BlockLink(SiteId(5), SiteId(2)));
    // Only s5 receives the prepare.
    for other in [2u32, 3, 4] {
        s = s.fault(Time(15), Fault::BlockLink(SiteId(1), SiteId(other)));
    }
    s = s
        .fault(Time(31), Fault::Crash(SiteId(1)))
        .fault(
            Time(31),
            Fault::Partition(vec![
                vec![SiteId(1), SiteId(2)],
                vec![SiteId(3), SiteId(4), SiteId(5)],
            ]),
        )
        .fault(Time(59), Fault::Heal);
    s.run_until = Time(6_000);
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use qbc_core::{Decision, LocalState, TxnId};

    /// The Fig. 3 premise must hold just after the failure hits: s5 in
    /// PC, all other live participants in W.
    #[test]
    fn fig3_produces_the_papers_premise() {
        let mut s = fig3_scenario(ProtocolKind::QuorumCommit1, 1);
        s.run_until = Time(32); // freeze right after the crash+partition
        let out = s.run();
        let states = out.local_states(TxnId(TR));
        assert_eq!(states[&SiteId(5)], LocalState::PreCommit, "s5 in PC");
        for site in [2u32, 3, 4, 6, 7, 8] {
            assert_eq!(
                states[&SiteId(site)],
                LocalState::Wait,
                "s{site} must be in W"
            );
        }
        assert_eq!(out.live_components().len(), 3);
    }

    /// Example 1: under Skeen's [16] protocol all three partitions block.
    #[test]
    fn example1_all_partitions_block_under_skeen() {
        let out = fig3_scenario(ProtocolKind::SkeenQuorum, 1).run();
        let v = out.verdict(TxnId(TR));
        assert!(v.consistent);
        assert!(v.committed.is_empty(), "nobody commits: {:?}", v.committed);
        assert!(v.aborted.is_empty(), "nobody aborts: {:?}", v.aborted);
        // x and y are inaccessible everywhere (locks held by TR).
        let report = out.availability(&example_catalog());
        assert_eq!(report.readable_pairs(), 0, "{report}");
        assert_eq!(report.writable_pairs(), 0);
    }

    /// Example 2: the 3PC termination protocol terminates G2 (commit)
    /// inconsistently with G1/G3 (abort).
    #[test]
    fn example2_three_pc_terminates_inconsistently() {
        let out = fig3_scenario(ProtocolKind::ThreePhase, 1).run();
        let v = out.verdict(TxnId(TR));
        assert!(!v.consistent, "3PC must violate consistency here: {v:?}");
        // G2 = {s4, s5} commit; G1/G3 survivors abort.
        assert!(v.committed.contains(&SiteId(4)));
        assert!(v.committed.contains(&SiteId(5)));
        for s in [2u32, 3, 6, 7, 8] {
            assert!(v.aborted.contains(&SiteId(s)), "s{s} should abort: {v:?}");
        }
    }

    /// Example 4: TP1 aborts TR in G1 and G3; x becomes readable in G1
    /// and y writable in G3, while G2 stays blocked.
    #[test]
    fn example4_tp1_restores_availability() {
        let out = fig3_scenario(ProtocolKind::QuorumCommit1, 1).run();
        let v = out.verdict(TxnId(TR));
        assert!(v.consistent, "{v:?}");
        for s in [2u32, 3, 6, 7, 8] {
            assert!(v.aborted.contains(&SiteId(s)), "s{s} should abort: {v:?}");
        }
        assert!(v.committed.is_empty());
        // G2 = {s4, s5} must stay blocked (undecided).
        assert!(v.undecided.contains(&SiteId(4)));
        assert!(v.undecided.contains(&SiteId(5)));
        let report = out.availability(&example_catalog());
        // G1 survivors {s2, s3}: x readable (2 ≥ r), not writable.
        let a = report.at_site(SiteId(2), ITEM_X).unwrap();
        assert!(a.readable && !a.writable, "{report}");
        // G3 {s6, s7, s8}: y writable (3 ≥ w).
        let a = report.at_site(SiteId(6), ITEM_Y).unwrap();
        assert!(a.writable, "{report}");
        // G2: nothing accessible (s4's x copy and s5's y copy pinned).
        let a = report.at_site(SiteId(4), ITEM_X).unwrap();
        assert!(!a.readable);
    }

    /// Example 3, correct rule: despite two coordinators and adversarial
    /// losses, termination stays consistent.
    #[test]
    fn example3_correct_rule_is_safe() {
        let out = fig7_scenario(qbc_core::FaultyMode::Correct, 1).run();
        assert!(out.all_consistent(), "{:?}", out.verdict(TxnId(TR)));
    }

    /// Example 3, faulty rule (answer prepares across the PC/PA wall):
    /// the race terminates TR inconsistently.
    #[test]
    fn example3_faulty_rule_violates_atomicity() {
        let out = fig7_scenario(qbc_core::FaultyMode::AnswerAcrossWall, 1).run();
        let v = out.verdict(TxnId(TR));
        assert!(
            !v.consistent,
            "the Example 3 bug must reproduce: {v:?} states={:?}",
            out.local_states(TxnId(TR))
        );
        assert!(!v.committed.is_empty());
        assert!(!v.aborted.is_empty());
    }

    /// The decisions in Example 4 release locks; Example 1 (Skeen) does
    /// not — the quantitative availability gap (E8's core contrast).
    #[test]
    fn availability_gap_between_skeen_and_tp1() {
        let skeen = fig3_scenario(ProtocolKind::SkeenQuorum, 1).run();
        let tp1 = fig3_scenario(ProtocolKind::QuorumCommit1, 1).run();
        let cat = example_catalog();
        let a_skeen = skeen.availability(&cat);
        let a_tp1 = tp1.availability(&cat);
        assert_eq!(a_skeen.readable_pairs() + a_skeen.writable_pairs(), 0);
        assert!(
            a_tp1.readable_pairs() + a_tp1.writable_pairs() >= 3,
            "TP1 restores availability: {a_tp1}"
        );
        let _ = Decision::Commit; // silence unused import in cfg(test)
    }
}
