//! Site-node configuration.

use qbc_core::{FaultyMode, ProtocolKind, SiteVotes, TxnId};
use qbc_obs::{EventKind, Obs, TraceEvent, TraceSink};
use qbc_simnet::{Duration, SiteId, Time};
use qbc_storage::FileWalConfig;
use qbc_votes::Catalog;
use std::collections::BTreeSet;
use std::sync::Arc;

/// Which WAL implementation a site runs on.
///
/// The deterministic simulator keeps the in-memory model (same
/// durability contract, zero I/O, bit-reproducible schedules); durable
/// deployments — and the crash/restart tests — pick the file-backed
/// log, whose force is a real `fsync`. See `docs/wal-format.md` for
/// the on-disk format.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub enum WalBackendConfig {
    /// In-memory durability model (`qbc_storage::Wal`): the default,
    /// and the seed behaviour.
    #[default]
    Memory,
    /// File-backed log (`qbc_storage::FileWal`): the directory
    /// (created if absent; reopening a non-empty one recovers the
    /// existing log), segment size and `fsync` switch are
    /// [`FileWalConfig`]'s.
    File(FileWalConfig),
}

/// A seeded protocol fault: each one moves a commit point or the
/// replay of one, and the model-check suite names the spaces that must
/// catch it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mutation {
    /// Coordinators accept one PC-ACK less than the QC1 write quorum
    /// ([`qbc_core::Coordinator::with_weakened_qc1`]).
    WeakenQc1,
    /// Paxos leaders and candidates decide on F acceptances instead of
    /// the F+1 majority ([`qbc_core::PaxosLeader::with_weakened_quorum`]),
    /// so a decision can rest on a quorum a recovery candidate's
    /// Phase-1 quorum need not intersect.
    WeakenPaxos,
    /// Recovery hands a logged `Decided { Commit }` to its participant
    /// as an abort.
    RedoCommitAsAbort,
}

/// Static configuration of one database site.
#[derive(Clone, Debug)]
pub struct NodeConfig {
    /// This site's id.
    pub site: SiteId,
    /// The replication catalog (copy placement, `r`/`w` quorums),
    /// shared: a cluster builds each shard's catalog once and every
    /// site of the shard holds a handle to that one allocation, so
    /// cloning a config (or a site) never copies the catalog.
    pub catalog: Arc<Catalog>,
    /// Site-vote parameters, required when any transaction runs
    /// [`ProtocolKind::SkeenQuorum`].
    pub site_votes: Option<SiteVotes>,
    /// The longest end-to-end network delay `T`; all protocol timeouts
    /// are fixed multiples of it (`2T` collection windows, `3T`
    /// watchdog).
    pub t_bound: Duration,
    /// Transactions this site votes *no* on (models a site whose I/O
    /// subsystem cannot perform the update).
    pub vote_no_on: BTreeSet<TxnId>,
    /// Example 3 fault injection: answer prepares across the PC/PA wall.
    pub faulty: FaultyMode,
    /// Re-run the termination protocol after declaring a transaction
    /// blocked (re-entrancy; the retry fires after
    /// [`NodeConfig::blocked_retry`]).
    pub retry_blocked: bool,
    /// Maximum termination rounds this site will *initiate* per
    /// transaction. Unlimited by default (the paper's re-entrant loop);
    /// Monte-Carlo sweeps cap it so permanently blocked runs settle
    /// instead of churning elections forever.
    pub max_termination_rounds: u64,
    /// Group-commit batching: engine log records are staged and forced
    /// in one flush per batch instead of one flush each. Messages and
    /// decision applications are withheld until the records staged for
    /// their own transaction are forced, so nothing is told or applied
    /// before it is irrevocable. The one record nothing waits for is the
    /// `Decided` of a commit that was irrevocable before it — a quorum
    /// engine's commit point or a branch under the parent's durable
    /// decision ([`qbc_core::TxnSpec::commit_precedes_decided`]): it is
    /// staged and forced with the next batch, so such a commit is told
    /// and applied one window sooner.
    pub group_commit: bool,
    /// How long the first staged record of a batch waits for companions
    /// before the batch is forced.
    pub group_commit_window: Duration,
    /// Force the batch early once this many records are staged.
    pub group_commit_max_batch: usize,
    /// Simulated latency of one WAL force. The log device is serial:
    /// a force issued while another is in flight starts only after it
    /// completes — the contention that makes group commit pay at high
    /// concurrency. Zero (the default) keeps the seed's instant-force
    /// model and changes nothing.
    pub force_latency: Duration,
    /// Retire decided per-transaction state this long after the
    /// decision (the `DECIDED` re-announce window): the heavy
    /// engine/spec entry is replaced by a compact outcome record, so
    /// the transaction table stays bounded on long-running sites while
    /// stragglers still get their answer. `None` (the default) keeps
    /// every entry forever (the seed behaviour).
    pub retire_after: Option<Duration>,
    /// Age each *retired* outcome out entirely this long after its own
    /// retirement. Retired outcomes sit in one ring per kind, sorted by
    /// transaction id; from each sweep on, an outcome retired at least
    /// this long before it is absent to every reader (lookups, counts,
    /// checkpoints, fingerprints), whether or not its memory has been
    /// freed yet. So the rings — and the checkpoint records that
    /// serialize them — are O(live + horizon) instead of O(history).
    /// Must comfortably exceed every straggler window
    /// (watchdog, blocked-retry, re-announce): a straggler asking after
    /// the horizon finds no answer and escalates to termination, which
    /// then also finds nothing — so pick a horizon multiple times the
    /// widest retry period. Only meaningful with
    /// [`NodeConfig::retire_after`]; `None` (the default) keeps retired
    /// outcomes forever (the pre-aging behaviour).
    pub retire_horizon: Option<Duration>,
    /// Record every local decision transition in a host-drainable event
    /// queue ([`crate::SiteNode::drain_decision_events`]). Push-style
    /// front-ends (the reactor runtime) use it to answer client
    /// sessions the moment their transaction decides, instead of
    /// polling node state. Off by default: nothing is queued, no
    /// behaviour changes, and the golden digests are untouched.
    pub decision_events: bool,
    /// Which WAL backend this site's stable storage runs on.
    pub wal_backend: WalBackendConfig,
    /// Write a [`qbc_core::LogRecord::Checkpoint`] (and truncate the
    /// dead log prefix) roughly this often, measured from the first
    /// record after the previous checkpoint. Bounds stable storage the
    /// way [`NodeConfig::retire_after`] bounds the in-memory tables —
    /// and only pays off combined with it: every *live* (unretired)
    /// transaction pins the log from its first record onward. `None`
    /// (the default) never checkpoints (the seed behaviour: the log
    /// grows forever).
    pub checkpoint_interval: Option<Duration>,
    /// Enable MVCC snapshot reads: the site maintains a commit-stable
    /// watermark (piggybacked on outgoing protocol messages), retains
    /// [`NodeConfig::version_retention`] versions per item, and answers
    /// [`crate::SiteNode::start_snapshot_read`] from the newest version
    /// at or below the shard watermark — bypassing locks and pins, so
    /// pinned copies never make a read unavailable. Off by default:
    /// no watermark bookkeeping runs, no message is wrapped, and the
    /// store keeps single-slot semantics (the seed behaviour, byte-
    /// identical golden digests).
    pub snapshot_reads: bool,
    /// How many committed versions each item retains when
    /// [`NodeConfig::snapshot_reads`] is on (≥ 1; clamped). With 1 the
    /// snapshot path still works but always serves the newest committed
    /// version; more retention lets reads land exactly at the
    /// watermark while writers race ahead.
    pub version_retention: usize,
    /// The observability sink this site emits protocol trace events
    /// into (shared across the cluster). `None` (the default) emits
    /// nothing: no event is even constructed, so the simulator hot
    /// path — and the three golden digests — are byte-identical to the
    /// uninstrumented build.
    pub obs: Option<Arc<Obs>>,
    /// A seeded protocol fault for model-checker validation. Never set
    /// outside tests: the model-check suite proves its spaces catch
    /// each [`Mutation`].
    pub mutation: Option<Mutation>,
}

impl NodeConfig {
    /// A configuration with conventional defaults. Pass an
    /// `Arc<Catalog>` to share one catalog between sites; a plain
    /// [`Catalog`] is moved into a handle of its own.
    pub fn new(site: SiteId, catalog: impl Into<Arc<Catalog>>, t_bound: Duration) -> Self {
        NodeConfig {
            site,
            catalog: catalog.into(),
            site_votes: None,
            t_bound,
            vote_no_on: BTreeSet::new(),
            faulty: FaultyMode::Correct,
            retry_blocked: true,
            max_termination_rounds: u64::MAX,
            group_commit: false,
            group_commit_window: Duration((t_bound.0 / 2).max(1)),
            group_commit_max_batch: 64,
            force_latency: Duration::ZERO,
            retire_after: None,
            retire_horizon: None,
            decision_events: false,
            wal_backend: WalBackendConfig::Memory,
            checkpoint_interval: None,
            snapshot_reads: false,
            version_retention: 1,
            obs: None,
            mutation: None,
        }
    }

    /// Installs a seeded protocol fault (builder style; see
    /// [`NodeConfig::mutation`]).
    pub fn with_mutation(mut self, mutation: Mutation) -> Self {
        self.mutation = Some(mutation);
        self
    }

    /// Enables periodic checkpointing + log truncation (builder style).
    pub fn with_checkpoints(mut self, interval: Duration) -> Self {
        self.checkpoint_interval = Some(interval);
        self
    }

    /// Enables MVCC snapshot reads with the given per-item version
    /// retention (builder style; see [`NodeConfig::snapshot_reads`]).
    pub fn with_snapshot_reads(mut self, retention: usize) -> Self {
        self.snapshot_reads = true;
        self.version_retention = retention.max(1);
        self
    }

    /// Enables group-commit batching of WAL forces.
    pub fn with_group_commit(mut self) -> Self {
        self.group_commit = true;
        self
    }

    /// Wires this site to an observability sink (builder style).
    pub fn with_obs(mut self, obs: Arc<Obs>) -> Self {
        self.obs = Some(obs);
        self
    }

    /// Sets the simulated per-force latency of the log device.
    pub fn with_force_latency(mut self, latency: Duration) -> Self {
        self.force_latency = latency;
        self
    }

    /// Sets the Skeen site-vote parameters.
    pub fn with_site_votes(mut self, sv: SiteVotes) -> Self {
        self.site_votes = Some(sv);
        self
    }

    /// Scripts a no vote for a transaction.
    pub fn vote_no(mut self, txn: TxnId) -> Self {
        self.vote_no_on.insert(txn);
        self
    }

    /// Extra delay a message may suffer at its sender waiting for WAL
    /// durability: one batch window (if batching) plus one force. The
    /// paper's timeout arithmetic assumes `T` bounds end-to-end delay;
    /// with a modeled log device, collection windows must budget for
    /// the sender-side storage stall too.
    pub fn storage_slack(&self) -> Duration {
        let window = if self.group_commit {
            self.group_commit_window
        } else {
            Duration::ZERO
        };
        Duration(window.0 + self.force_latency.0)
    }

    /// Collection window `2T` (Figs. 5/8 phases 2–3), widened by the
    /// round-trip storage slack.
    pub fn window_2t(&self) -> Duration {
        Duration(self.t_bound.times(2).0 + self.storage_slack().times(2).0)
    }

    /// Watchdog `3T` (Fig. 5 participant event 6), widened by the
    /// storage slack.
    pub fn watchdog_3t(&self) -> Duration {
        Duration(self.t_bound.times(3).0 + self.storage_slack().times(3).0)
    }

    /// Delay `6T` before a blocked transaction's termination is
    /// retried.
    pub fn blocked_retry(&self) -> Duration {
        self.t_bound.times(6)
    }

    /// Cross-shard vote-collection window: long enough for the
    /// `X-BRANCH-REQ` hop plus a full in-shard vote + prepare round and
    /// the `X-VOTE` hop back (≈ 6 one-way delays), with storage slack —
    /// three `2T` windows.
    pub fn x_window(&self) -> Duration {
        self.window_2t().times(3)
    }

    /// Sets the decided-state retention window (builder style).
    pub fn with_retirement(mut self, after: Duration) -> Self {
        self.retire_after = Some(after);
        self
    }

    /// Sets the retired-outcome aging horizon (builder style; see
    /// [`NodeConfig::retire_horizon`]).
    pub fn with_retire_horizon(mut self, horizon: Duration) -> Self {
        self.retire_horizon = Some(horizon);
        self
    }

    /// Emits one protocol trace event into [`NodeConfig::obs`] when
    /// one is wired; free otherwise.
    #[inline]
    pub(crate) fn emit(&self, at: Time, txn: Option<TxnId>, kind: EventKind) {
        if let Some(obs) = &self.obs {
            let site = self.site;
            obs.record(TraceEvent {
                at,
                site,
                txn,
                kind,
            });
        }
    }

    /// Sanity-check the protocol parameters for a given kind.
    pub fn validate_for(&self, protocol: ProtocolKind) -> Result<(), String> {
        if protocol == ProtocolKind::SkeenQuorum {
            match &self.site_votes {
                None => return Err("SkeenQuorum requires site_votes".into()),
                Some(sv) => sv.validate()?,
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qbc_votes::CatalogBuilder;
    use qbc_votes::ItemId;

    fn catalog() -> Catalog {
        CatalogBuilder::new()
            .item(ItemId(0))
            .copies_at([SiteId(0), SiteId(1), SiteId(2)])
            .majority()
            .build()
            .unwrap()
    }

    #[test]
    fn timeouts_are_paper_multiples() {
        let cfg = NodeConfig::new(SiteId(0), catalog(), Duration(10));
        assert_eq!(cfg.window_2t(), Duration(20));
        assert_eq!(cfg.watchdog_3t(), Duration(30));
        assert_eq!(cfg.blocked_retry(), Duration(60));
    }

    #[test]
    fn skeen_requires_site_votes() {
        let cfg = NodeConfig::new(SiteId(0), catalog(), Duration(10));
        assert!(cfg.validate_for(ProtocolKind::SkeenQuorum).is_err());
        assert!(cfg.validate_for(ProtocolKind::QuorumCommit1).is_ok());
        let cfg = cfg.with_site_votes(SiteVotes::uniform([SiteId(0), SiteId(1), SiteId(2)], 2, 2));
        assert!(cfg.validate_for(ProtocolKind::SkeenQuorum).is_ok());
    }

    #[test]
    fn storage_slack_widens_windows() {
        let cfg = NodeConfig::new(SiteId(0), catalog(), Duration(10))
            .with_group_commit()
            .with_force_latency(Duration(4));
        // window 5 (t/2) + force 4 = 9 slack.
        assert_eq!(cfg.storage_slack(), Duration(9));
        assert_eq!(cfg.window_2t(), Duration(20 + 18));
        assert_eq!(cfg.watchdog_3t(), Duration(30 + 27));
    }

    #[test]
    fn builder_helpers() {
        let cfg = NodeConfig::new(SiteId(0), catalog(), Duration(10)).vote_no(TxnId(4));
        assert!(cfg.vote_no_on.contains(&TxnId(4)));
    }
}
