//! Monte-Carlo failure sweeps (experiments E8, E9, E10).
//!
//! Randomized crash/partition schedules injected into a commit in
//! flight, measuring for each protocol:
//!
//! * how often some partition ends up blocked (the paper's availability
//!   concern);
//! * the fraction of `(component, item)` pairs that remain readable /
//!   writable after termination (Examples 1 vs 4, quantified);
//! * atomicity-violation rates (zero for the correct protocols; nonzero
//!   for 3PC-under-partition and for the Example 3 faulty variant).

use crate::scenario::Scenario;
use qbc_core::{FaultyMode, ProtocolKind, SiteVotes, TxnId, WriteSet};
use qbc_simnet::{sites, Duration, Fault, SiteId, Time};
use qbc_votes::{Catalog, CatalogBuilder, ItemId};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Configuration of one randomized failure experiment.
#[derive(Clone, Debug)]
pub struct MonteCarloConfig {
    /// Number of sites.
    pub n_sites: u32,
    /// Number of items (each written by the probe transaction).
    pub n_items: u32,
    /// Copies per item (placed round-robin over sites).
    pub copies_per_item: u32,
    /// Read quorum per item.
    pub read_q: u32,
    /// Write quorum per item.
    pub write_q: u32,
    /// Window (ticks) within which the failure strikes, uniformly.
    pub fail_window: u64,
    /// Number of partition components to split into (≥ 1; 1 = crash
    /// only).
    pub components: usize,
    /// Also crash the coordinator at the failure instant.
    pub crash_coordinator: bool,
    /// Recover the crashed coordinator at this time (None = stays down).
    pub recover_at: Option<u64>,
    /// Heal the partition at this time (None = never during the run).
    pub heal_at: Option<u64>,
    /// Fault injection mode for participants.
    pub faulty: FaultyMode,
    /// Virtual time to run until before measuring.
    pub run_until: u64,
}

impl Default for MonteCarloConfig {
    fn default() -> Self {
        MonteCarloConfig {
            n_sites: 8,
            n_items: 2,
            copies_per_item: 4,
            read_q: 2,
            write_q: 3,
            fail_window: 60,
            components: 3,
            crash_coordinator: true,
            recover_at: None,
            heal_at: None,
            faulty: FaultyMode::Correct,
            run_until: 4_000,
        }
    }
}

impl MonteCarloConfig {
    /// Builds the round-robin catalog for this configuration.
    pub fn catalog(&self) -> Catalog {
        let mut b = CatalogBuilder::new();
        for i in 0..self.n_items {
            b = b.item(ItemId(i));
            for k in 0..self.copies_per_item {
                let site = SiteId((i * self.copies_per_item + k) % self.n_sites);
                b = b.copy(site, 1);
            }
            b = b.quorums(self.read_q, self.write_q);
        }
        b.build().expect("monte-carlo catalog valid")
    }
}

/// Outcome of one randomized run.
#[derive(Clone, Copy, Debug, Default)]
pub struct RunStats {
    /// Every participant decided (uniformly).
    pub fully_decided: bool,
    /// Some participant is still undecided at measurement time.
    pub any_undecided: bool,
    /// Some site flagged the transaction blocked.
    pub any_blocked: bool,
    /// Atomicity violated (mixed commit/abort or engine violation).
    pub violated: bool,
    /// Fraction of `(live component, item)` pairs readable.
    pub readable_frac: f64,
    /// Fraction of `(live component, item)` pairs writable.
    pub writable_frac: f64,
}

/// Aggregated sweep results.
#[derive(Clone, Copy, Debug, Default)]
pub struct Aggregate {
    /// Runs aggregated.
    pub runs: u32,
    /// Fraction of runs with any undecided participant.
    pub blocked_rate: f64,
    /// Fraction of runs that terminated everywhere.
    pub decided_rate: f64,
    /// Fraction of runs with an atomicity violation.
    pub violation_rate: f64,
    /// Mean readable fraction.
    pub mean_readable: f64,
    /// Mean writable fraction.
    pub mean_writable: f64,
}

/// Splits `all` into `k` non-empty random components.
fn random_components(rng: &mut SmallRng, all: &[SiteId], k: usize) -> Vec<Vec<SiteId>> {
    let k = k.clamp(1, all.len());
    loop {
        let mut comps: Vec<Vec<SiteId>> = vec![Vec::new(); k];
        for &s in all {
            comps[rng.gen_range(0..k)].push(s);
        }
        if comps.iter().all(|c| !c.is_empty()) {
            return comps;
        }
    }
}

/// Builds one randomized failure scenario (exposed so experiments can
/// run it themselves and inspect node internals, e.g. transition audits).
pub fn random_failure_scenario(
    protocol: ProtocolKind,
    cfg: &MonteCarloConfig,
    seed: u64,
) -> Scenario {
    let catalog = cfg.catalog();
    let all = sites(cfg.n_sites);
    let mut rng = SmallRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let fail_at = Time(rng.gen_range(5..=cfg.fail_window));
    let comps = random_components(&mut rng, &all, cfg.components);

    let writeset = WriteSet::new((0..cfg.n_items).map(|i| (ItemId(i), 100 + i as i64)));
    let coordinator = SiteId(0);
    let mut s = Scenario::new(format!("mc/{}", protocol.name()), catalog, all.clone()).submit(
        Time(0),
        coordinator,
        1,
        writeset,
        protocol,
    );
    s.seed = seed;
    s.record_trace = false;
    s.min_delay = Duration(1);
    s.faulty = cfg.faulty;
    s.run_until = Time(cfg.run_until);
    if protocol == ProtocolKind::SkeenQuorum {
        // Majority-style site quorums: Vc = Va = ⌊n/2⌋ + 1.
        let q = cfg.n_sites / 2 + 1;
        s.site_votes = Some(SiteVotes::uniform(all.clone(), q, q));
    }
    if cfg.crash_coordinator {
        s = s.fault(fail_at, Fault::Crash(coordinator));
        if let Some(r) = cfg.recover_at {
            s = s.fault(Time(r), Fault::Recover(coordinator));
        }
    }
    if cfg.components > 1 {
        s = s.fault(fail_at, Fault::Partition(comps));
    }
    if let Some(h) = cfg.heal_at {
        s = s.fault(Time(h), Fault::Heal);
    }
    s
}

/// Runs one randomized failure scenario.
pub fn random_failure_run(protocol: ProtocolKind, cfg: &MonteCarloConfig, seed: u64) -> RunStats {
    let catalog = cfg.catalog();
    let out = random_failure_scenario(protocol, cfg, seed).run();

    let v = out.verdict(TxnId(1));
    let report = out.availability(&catalog);
    let pairs = (report.components.len() * catalog.len()) as f64;
    RunStats {
        fully_decided: v.undecided.is_empty(),
        any_undecided: !v.undecided.is_empty(),
        any_blocked: !v.blocked.is_empty() || !v.undecided.is_empty(),
        violated: !v.consistent || out.sim.nodes().any(|(_, n)| !n.violations().is_empty()),
        readable_frac: if pairs > 0.0 {
            report.readable_pairs() as f64 / pairs
        } else {
            0.0
        },
        writable_frac: if pairs > 0.0 {
            report.writable_pairs() as f64 / pairs
        } else {
            0.0
        },
    }
}

/// Sweeps `runs` seeds and aggregates.
pub fn sweep(protocol: ProtocolKind, cfg: &MonteCarloConfig, runs: u32) -> Aggregate {
    let mut agg = Aggregate {
        runs,
        ..Default::default()
    };
    for seed in 0..runs {
        let r = random_failure_run(protocol, cfg, seed as u64);
        agg.blocked_rate += if r.any_undecided { 1.0 } else { 0.0 };
        agg.decided_rate += if r.fully_decided { 1.0 } else { 0.0 };
        agg.violation_rate += if r.violated { 1.0 } else { 0.0 };
        agg.mean_readable += r.readable_frac;
        agg.mean_writable += r.writable_frac;
    }
    let n = runs as f64;
    agg.blocked_rate /= n;
    agg.decided_rate /= n;
    agg.violation_rate /= n;
    agg.mean_readable /= n;
    agg.mean_writable /= n;
    agg
}

/// The E9 vulnerability-window probe: inject a coordinator crash +
/// 2-way partition at instant `t`, return whether any participant ends
/// up undecided. Sweeping `t` over the commit run and comparing QC1 vs
/// QC2 quantifies "less susceptible to failures".
pub fn vulnerable_at(protocol: ProtocolKind, t: u64, seed: u64) -> bool {
    let cfg = MonteCarloConfig {
        fail_window: t.max(1),
        components: 2,
        ..Default::default()
    };
    // Pin the failure instant by giving a window of exactly [t, t].
    let catalog = cfg.catalog();
    let all = sites(cfg.n_sites);
    let mut rng = SmallRng::seed_from_u64(seed);
    let comps = random_components(&mut rng, &all, 2);
    let writeset = WriteSet::new((0..cfg.n_items).map(|i| (ItemId(i), 7)));
    let mut s = Scenario::new(format!("vuln/{}", protocol.name()), catalog, all)
        .submit(Time(0), SiteId(0), 1, writeset, protocol)
        .fault(Time(t), Fault::Crash(SiteId(0)))
        .fault(Time(t), Fault::Partition(comps));
    s.seed = seed;
    s.record_trace = false;
    s.min_delay = Duration(1);
    s.run_until = Time(2_500);
    // A blocked partition stays blocked while the failure persists; cap
    // the re-entrant retries so the run settles quickly.
    s.max_termination_rounds = 3;
    s.retry_blocked = false;
    if protocol == ProtocolKind::SkeenQuorum {
        let q = cfg.n_sites / 2 + 1;
        s.site_votes = Some(SiteVotes::uniform(sites(cfg.n_sites), q, q));
    }
    let out = s.run();
    let v = out.verdict(TxnId(1));
    assert!(v.consistent, "quorum protocols must stay consistent");
    !v.undecided.is_empty()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn correct_protocols_never_violate_atomicity() {
        let cfg = MonteCarloConfig::default();
        for p in [
            ProtocolKind::TwoPhase,
            ProtocolKind::SkeenQuorum,
            ProtocolKind::QuorumCommit1,
            ProtocolKind::QuorumCommit2,
        ] {
            let agg = sweep(p, &cfg, 25);
            assert_eq!(
                agg.violation_rate,
                0.0,
                "{} must never violate atomicity",
                p.name()
            );
        }
    }

    #[test]
    fn three_pc_violates_under_partitions() {
        // The Example 2 effect, Monte-Carlo style: across random 3-way
        // partitions, 3PC's termination protocol must produce at least
        // one inconsistent run.
        let cfg = MonteCarloConfig::default();
        let agg = sweep(ProtocolKind::ThreePhase, &cfg, 40);
        assert!(
            agg.violation_rate > 0.0,
            "3PC under partitions should violate sometimes (rate {})",
            agg.violation_rate
        );
    }

    #[test]
    fn tp1_dominates_skeen_on_availability() {
        let cfg = MonteCarloConfig::default();
        let skeen = sweep(ProtocolKind::SkeenQuorum, &cfg, 40);
        let tp1 = sweep(ProtocolKind::QuorumCommit1, &cfg, 40);
        assert!(
            tp1.mean_readable >= skeen.mean_readable,
            "TP1 readable {} vs Skeen {}",
            tp1.mean_readable,
            skeen.mean_readable
        );
        assert!(
            tp1.decided_rate >= skeen.decided_rate,
            "TP1 decided {} vs Skeen {}",
            tp1.decided_rate,
            skeen.decided_rate
        );
    }

    #[test]
    fn healing_eventually_terminates_everything() {
        let cfg = MonteCarloConfig {
            heal_at: Some(1_000),
            run_until: 8_000,
            ..Default::default()
        };
        let agg = sweep(ProtocolKind::QuorumCommit2, &cfg, 15);
        assert_eq!(agg.violation_rate, 0.0);
        assert!(
            agg.decided_rate > 0.9,
            "after healing nearly every run should terminate (rate {})",
            agg.decided_rate
        );
    }
}
