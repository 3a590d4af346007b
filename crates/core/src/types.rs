//! Shared protocol vocabulary: transactions, decisions, protocol kinds.

use qbc_simnet::SiteId;
use qbc_votes::{Catalog, ItemId, Version};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// Globally unique transaction identifier.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TxnId(pub u64);

impl fmt::Debug for TxnId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "tx{}", self.0)
    }
}

impl fmt::Display for TxnId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "tx{}", self.0)
    }
}

/// The two irrevocable transaction outcomes.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Decision {
    /// All of the transaction's updates are performed.
    Commit,
    /// None of the transaction's updates are performed.
    Abort,
}

impl fmt::Display for Decision {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Decision::Commit => write!(f, "COMMIT"),
            Decision::Abort => write!(f, "ABORT"),
        }
    }
}

/// Which commit protocol a transaction runs under.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum ProtocolKind {
    /// Two-phase commit (Fig. 1): fast, blocking on coordinator failure.
    TwoPhase,
    /// Skeen's three-phase commit (Fig. 2) with the site-failure-only
    /// termination protocol (Example 2 shows it is unsafe under
    /// partitions).
    ThreePhase,
    /// Skeen's quorum-based commit protocol `[16]`: commit quorum `Vc`
    /// and abort quorum `Va` counted in *site* votes.
    SkeenQuorum,
    /// The paper's quorum commit protocol 1 (Fig. 9) with termination
    /// protocol 1 (Fig. 5): commit point at `w(x)` PC-ACK votes for
    /// *every* writeset item.
    QuorumCommit1,
    /// The paper's quorum commit protocol 2 with termination protocol 2
    /// (Fig. 8): commit point at `r(x)` PC-ACK votes for *some* writeset
    /// item. Faster than QC1.
    QuorumCommit2,
    /// Gray & Lamport's Paxos Commit (*Consensus on Transaction
    /// Commit*): one Paxos consensus instance per participant's vote,
    /// acceptors co-located on the participant sites, leader = the
    /// transaction coordinator. Commit exactly when every instance
    /// chooses *prepared*; a silent leader is replaced by Phase-1
    /// recovery from any participant (no separate termination
    /// protocol), with presumed abort for instances no acceptor
    /// quorum has accepted.
    PaxosCommit,
}

impl ProtocolKind {
    /// All protocol kinds, in presentation order.
    pub const ALL: [ProtocolKind; 6] = [
        ProtocolKind::TwoPhase,
        ProtocolKind::ThreePhase,
        ProtocolKind::SkeenQuorum,
        ProtocolKind::QuorumCommit1,
        ProtocolKind::QuorumCommit2,
        ProtocolKind::PaxosCommit,
    ];

    /// Short display name used in experiment tables.
    pub fn name(self) -> &'static str {
        match self {
            ProtocolKind::TwoPhase => "2PC",
            ProtocolKind::ThreePhase => "3PC",
            ProtocolKind::SkeenQuorum => "Skeen-QC",
            ProtocolKind::QuorumCommit1 => "QC1+TP1",
            ProtocolKind::QuorumCommit2 => "QC2+TP2",
            ProtocolKind::PaxosCommit => "PaxosCommit",
        }
    }

    /// True for the protocols that run a second round between the votes
    /// and the decision (the PC round, or Paxos Commit's 2a/2b round);
    /// 2PC alone decides straight off the votes.
    pub fn has_prepare_phase(self) -> bool {
        !matches!(self, ProtocolKind::TwoPhase)
    }
}

impl fmt::Display for ProtocolKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Site-vote parameters for Skeen's quorum protocol `[16]`.
///
/// Each *site* carries votes; a transaction commits during termination
/// only with `Vc` votes cast for committing and aborts only with `Va`
/// cast for aborting, where `Vc + Va > V` (total).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SiteVotes {
    /// Vote weight per site.
    pub weights: BTreeMap<SiteId, u32>,
    /// Commit quorum `Vc`.
    pub commit_quorum: u32,
    /// Abort quorum `Va`.
    pub abort_quorum: u32,
}

impl SiteVotes {
    /// Uniform weight-1 votes over `sites` with the given quorums.
    pub fn uniform(
        sites: impl IntoIterator<Item = SiteId>,
        commit_quorum: u32,
        abort_quorum: u32,
    ) -> Self {
        SiteVotes {
            weights: sites.into_iter().map(|s| (s, 1)).collect(),
            commit_quorum,
            abort_quorum,
        }
    }

    /// Total votes `V`.
    pub fn total(&self) -> u32 {
        self.weights.values().sum()
    }

    /// Checks `Vc + Va > V` and both quorums satisfiable.
    pub fn validate(&self) -> Result<(), String> {
        let v = self.total();
        if self.commit_quorum + self.abort_quorum <= v {
            return Err(format!(
                "Vc({}) + Va({}) must exceed V({v})",
                self.commit_quorum, self.abort_quorum
            ));
        }
        if self.commit_quorum > v || self.abort_quorum > v {
            return Err("quorum exceeds total votes".to_string());
        }
        Ok(())
    }

    /// Sum of site votes over a set.
    pub fn votes_among<'a>(&self, sites: impl IntoIterator<Item = &'a SiteId>) -> u32 {
        sites
            .into_iter()
            .map(|s| self.weights.get(s).copied().unwrap_or(0))
            .sum()
    }
}

/// The writeset of a transaction: new values for the items it updates.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct WriteSet {
    /// New value per updated item.
    pub updates: BTreeMap<ItemId, i64>,
}

impl WriteSet {
    /// A writeset over the given `(item, value)` pairs.
    pub fn new(updates: impl IntoIterator<Item = (ItemId, i64)>) -> Self {
        WriteSet {
            updates: updates.into_iter().collect(),
        }
    }

    /// The items written — the paper's `W(TR)`.
    pub fn items(&self) -> impl Iterator<Item = ItemId> + '_ {
        self.updates.keys().copied()
    }

    /// Number of items written.
    pub fn len(&self) -> usize {
        self.updates.len()
    }

    /// True when no items are written.
    pub fn is_empty(&self) -> bool {
        self.updates.is_empty()
    }
}

/// Everything a participant must know about a transaction, distributed
/// in the `VOTE-REQ` message and logged before voting.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TxnSpec {
    /// Transaction id.
    pub id: TxnId,
    /// The site coordinating the normal-case protocol.
    pub coordinator: SiteId,
    /// Items updated and their new values.
    pub writeset: WriteSet,
    /// All participating sites (every site holding a copy of a writeset
    /// item).
    pub participants: BTreeSet<SiteId>,
    /// Protocol the transaction runs under.
    pub protocol: ProtocolKind,
    /// When this spec is one *branch* of a cross-shard transaction: the
    /// site hosting the cross-shard (top-level 2PC) coordinator. A
    /// branch runs the in-shard protocol up to its commit point, then
    /// *holds* and votes to the parent instead of committing; the
    /// parent's decision is the only authority that can terminate it
    /// (in-shard termination is replaced by outcome discovery).
    pub parent: Option<SiteId>,
}

impl TxnSpec {
    /// Builds a spec, deriving the participant set from the catalog.
    pub fn from_catalog(
        id: TxnId,
        coordinator: SiteId,
        writeset: WriteSet,
        protocol: ProtocolKind,
        catalog: &Catalog,
    ) -> Self {
        let participants = catalog.participants(writeset.items());
        TxnSpec {
            id,
            coordinator,
            writeset,
            participants,
            protocol,
            parent: None,
        }
    }

    /// Marks this spec as a branch of a cross-shard transaction whose
    /// top-level coordinator runs at `parent` (builder style).
    pub fn with_parent(mut self, parent: SiteId) -> Self {
        self.parent = Some(parent);
        self
    }

    /// True when this spec is a branch of a cross-shard transaction.
    pub fn is_branch(&self) -> bool {
        self.parent.is_some()
    }

    /// True when a recovered coordinator presumes abort from its
    /// [`LogRecord::CoordinatorStart`](crate::LogRecord::CoordinatorStart)
    /// alone: plain 2PC, whose commit point is the coordinator's own
    /// `Decided` record, so a durable start without one proves no commit
    /// was sent. Only then must that record be durable before any
    /// `VOTE-REQ` leaves. Every other engine — and a 2PC branch, whose
    /// commit point lives at the parent — recovers without reading it.
    pub fn coordinator_presumes_abort(&self) -> bool {
        self.protocol == ProtocolKind::TwoPhase && self.parent.is_none()
    }

    /// True when a commit of this transaction is irrevocable before any
    /// site's [`LogRecord::Decided`](crate::LogRecord::Decided) of it is
    /// durable, so that record need not be forced before the commit is
    /// told or applied.
    ///
    /// QC1, QC2 and Skeen's protocol commit only on a commit quorum of
    /// durable PREPARE-TO-COMMIT states, at the normal coordinator and
    /// at every termination coordinator alike: "receiving these PC-ACKs
    /// ensures that an abort quorum can never be formed" (the QC1/QC2
    /// commit points, `coordinator.rs:13–19`). TP2's abort rule 4, for
    /// one, needs `w(x)` non-PC votes for every `x`, which `r(x)`
    /// durable PC votes for some `x` rule out. A branch of a cross-shard
    /// transaction commits only on the parent's `X-DECIDE`, which leaves
    /// after the parent's `XDecision` is durable.
    ///
    /// Plain 2PC is false: the coordinator's own `Decided` record is its
    /// commit point. So is 3PC, whose ack-timeout commit presumes the
    /// stragglers crashed, and Paxos Commit, whose leader and recovery
    /// candidates decide along paths of their own. Aborts are never
    /// covered: the caller asks only about a commit.
    pub fn commit_precedes_decided(&self) -> bool {
        self.parent.is_some()
            || matches!(
                self.protocol,
                ProtocolKind::QuorumCommit1
                    | ProtocolKind::QuorumCommit2
                    | ProtocolKind::SkeenQuorum
            )
    }
}

/// The version a committed transaction installs on every copy it writes:
/// one more than the highest version any voting participant reported.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CommitVersion(pub Version);

#[cfg(test)]
mod tests {
    use super::*;
    use qbc_votes::CatalogBuilder;

    #[test]
    fn protocol_names_are_stable() {
        assert_eq!(ProtocolKind::TwoPhase.name(), "2PC");
        assert_eq!(ProtocolKind::QuorumCommit2.name(), "QC2+TP2");
        assert_eq!(ProtocolKind::PaxosCommit.name(), "PaxosCommit");
        assert!(!ProtocolKind::TwoPhase.has_prepare_phase());
        assert!(ProtocolKind::QuorumCommit1.has_prepare_phase());
        assert!(ProtocolKind::PaxosCommit.has_prepare_phase());
        assert_eq!(ProtocolKind::ALL.len(), 6);
    }

    #[test]
    fn site_votes_example1_parameters_validate() {
        // Example 1: 8 sites, one vote each, Vc = 5, Va = 4.
        let sv = SiteVotes::uniform((1..=8).map(SiteId), 5, 4);
        assert_eq!(sv.total(), 8);
        assert!(sv.validate().is_ok());
        let g3: Vec<SiteId> = (6..=8).map(SiteId).collect();
        assert_eq!(sv.votes_among(&g3), 3);
    }

    #[test]
    fn site_votes_quorum_overlap_enforced() {
        let sv = SiteVotes::uniform((1..=8).map(SiteId), 4, 4);
        assert!(sv.validate().is_err(), "Vc+Va = V must be rejected");
    }

    #[test]
    fn spec_from_catalog_derives_participants() {
        let catalog = CatalogBuilder::new()
            .item(ItemId(0))
            .copies_at([SiteId(1), SiteId(2), SiteId(3)])
            .quorums(2, 2)
            .item(ItemId(1))
            .copies_at([SiteId(3), SiteId(4), SiteId(5)])
            .quorums(2, 2)
            .build()
            .unwrap();
        let ws = WriteSet::new([(ItemId(0), 7), (ItemId(1), 9)]);
        let spec = TxnSpec::from_catalog(
            TxnId(1),
            SiteId(1),
            ws,
            ProtocolKind::QuorumCommit1,
            &catalog,
        );
        assert_eq!(spec.participants.len(), 5);
    }

    #[test]
    fn only_quorum_commits_and_branches_are_irrevocable_before_decided() {
        let catalog = CatalogBuilder::new()
            .item(ItemId(0))
            .copies_at([SiteId(1), SiteId(2), SiteId(3)])
            .quorums(2, 2)
            .build()
            .unwrap();
        let spec = |protocol| {
            let ws = WriteSet::new([(ItemId(0), 1)]);
            TxnSpec::from_catalog(TxnId(1), SiteId(1), ws, protocol, &catalog)
        };
        for protocol in ProtocolKind::ALL {
            let quorum = matches!(
                protocol,
                ProtocolKind::QuorumCommit1
                    | ProtocolKind::QuorumCommit2
                    | ProtocolKind::SkeenQuorum
            );
            assert_eq!(
                spec(protocol).commit_precedes_decided(),
                quorum,
                "{protocol}"
            );
            let branch = spec(protocol).with_parent(SiteId(9));
            assert!(branch.commit_precedes_decided(), "{protocol} branch");
        }
    }

    #[test]
    fn writeset_accessors() {
        let ws = WriteSet::new([(ItemId(3), 1)]);
        assert_eq!(ws.len(), 1);
        assert!(!ws.is_empty());
        assert!(WriteSet::default().is_empty());
    }
}
