//! Failure-free commit latency and message complexity (experiment E7).
//!
//! Reproduces the comparative claims of Figs. 1/2/9 and §3.2/§5:
//! 2PC is the fastest (two rounds, blocking); 3PC pays a full third
//! round; QC1 commits at `w(x)` PC-ACK votes per item; QC2 at `r(x)`
//! votes of some item, so with random per-message delays its commit
//! point arrives earliest among the prepare-phase protocols.

use crate::scenario::Scenario;
use qbc_core::{ProtocolKind, SiteVotes, TxnId, WriteSet};
use qbc_simnet::{sites, Duration, SiteId, Time};
use qbc_votes::{Catalog, CatalogBuilder, ItemId};

/// One measured point.
#[derive(Clone, Debug)]
pub struct LatencyPoint {
    /// Protocol measured.
    pub protocol: ProtocolKind,
    /// Cluster size.
    pub n_sites: u32,
    /// Mean commit latency observed by the client (coordinator decides),
    /// in ticks.
    pub coordinator_latency: f64,
    /// Mean time until the last participant decides, in ticks.
    pub global_latency: f64,
    /// Mean messages delivered per transaction.
    pub messages: f64,
    /// Number of seeds aggregated.
    pub runs: u32,
}

/// A single-item catalog over `n` sites with the given quorums.
pub fn replicated_catalog(n: u32, read_q: u32, write_q: u32) -> Catalog {
    CatalogBuilder::new()
        .item(ItemId(0))
        .copies_at(sites(n))
        .quorums(read_q, write_q)
        .build()
        .expect("valid latency catalog")
}

/// Measures mean failure-free latency for `protocol` over `seeds` runs
/// on `n` sites with quorums `(read_q, write_q)`.
pub fn measure(
    protocol: ProtocolKind,
    n: u32,
    read_q: u32,
    write_q: u32,
    seeds: std::ops::Range<u64>,
) -> LatencyPoint {
    let catalog = replicated_catalog(n, read_q, write_q);
    let mut coord_sum = 0u64;
    let mut global_sum = 0u64;
    let mut msg_sum = 0u64;
    let mut runs = 0u32;
    for seed in seeds {
        let mut s = Scenario::new(
            format!("latency/{}", protocol.name()),
            catalog.clone(),
            sites(n).to_vec(),
        )
        .submit(
            Time(0),
            SiteId(0),
            1,
            WriteSet::new([(ItemId(0), 1)]),
            protocol,
        );
        s.seed = seed;
        s.record_trace = false;
        s.min_delay = Duration(1);
        s.run_until = Time(2_000);
        if protocol == ProtocolKind::SkeenQuorum {
            s.site_votes = Some(SiteVotes::uniform(sites(n), n / 2 + 1, n / 2 + 1));
        }
        let out = s.run();
        let v = out.verdict(TxnId(1));
        assert!(
            v.consistent && v.aborted.is_empty() && v.undecided.is_empty(),
            "failure-free run must commit everywhere ({v:?})"
        );
        coord_sum += out
            .coordinator_latency(TxnId(1))
            .expect("coordinator decided")
            .0;
        global_sum += out.latency(TxnId(1)).expect("all decided").0;
        msg_sum += out.sim.stats().delivered;
        runs += 1;
    }
    LatencyPoint {
        protocol,
        n_sites: n,
        coordinator_latency: coord_sum as f64 / runs as f64,
        global_latency: global_sum as f64 / runs as f64,
        messages: msg_sum as f64 / runs as f64,
        runs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's ordering claim: 2PC commits first; QC2's commit point
    /// precedes QC1's; QC1's precedes (or ties) 3PC's.
    #[test]
    fn latency_ordering_matches_the_paper() {
        let n = 7;
        // r = 2, w = 6: a strongly write-skewed assignment, the regime
        // where QC2's r-votes commit point pays off most.
        let p2 = measure(ProtocolKind::TwoPhase, n, 2, 6, 0..30);
        let p3 = measure(ProtocolKind::ThreePhase, n, 2, 6, 0..30);
        let q1 = measure(ProtocolKind::QuorumCommit1, n, 2, 6, 0..30);
        let q2 = measure(ProtocolKind::QuorumCommit2, n, 2, 6, 0..30);
        assert!(
            p2.coordinator_latency < q2.coordinator_latency,
            "2PC ({}) beats QC2 ({})",
            p2.coordinator_latency,
            q2.coordinator_latency
        );
        assert!(
            q2.coordinator_latency < q1.coordinator_latency,
            "QC2 ({}) beats QC1 ({})",
            q2.coordinator_latency,
            q1.coordinator_latency
        );
        assert!(
            q1.coordinator_latency <= p3.coordinator_latency + 1e-9,
            "QC1 ({}) no slower than 3PC ({})",
            q1.coordinator_latency,
            p3.coordinator_latency
        );
    }

    #[test]
    fn two_pc_uses_fewest_messages() {
        let n = 5;
        let p2 = measure(ProtocolKind::TwoPhase, n, 2, 4, 0..10);
        let p3 = measure(ProtocolKind::ThreePhase, n, 2, 4, 0..10);
        assert!(p2.messages < p3.messages);
    }
}
