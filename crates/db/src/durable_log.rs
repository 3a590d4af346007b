//! The site's log and the one rule built on it: *logged before told*.
//!
//! Every step of the paper's commit and termination protocols is "write
//! the record to stable storage, then send". [`DurableLog`] owns what
//! that rule needs — the write-ahead log, the force policy, the model
//! of the serial log device, the durable-LSN watermark and the queue of
//! effects waiting for it — and is the only code that stages, forces or
//! truncates the log: [`SiteNode`](crate::SiteNode) sees the log through
//! [`DurableLog::wal`], a shared reference, and every `WalBackend`
//! mutator takes `&mut self`.
//!
//! The node's half of the contract is small. It remembers, per
//! transaction, the *gate* — the end LSN of the newest record
//! [`DurableLog::append`] reported as not yet durable — asks
//! [`DurableLog::closed`] before telling or applying anything of that
//! transaction, hands a withheld effect to [`DurableLog::defer`], and
//! runs what [`DurableLog::force_done`] gives back.
//!
//! ## Force policy
//!
//! Two arms. *Staged with a window* (group commit): records wait for
//! companions until the window timer fires or the batch fills, then
//! share one force. *Flush per record*: every record is forced as it is
//! appended. Either way the force then costs
//! [`NodeConfig::force_latency`] on a serial device — the next force
//! starts when the previous one completes — and at latency zero it
//! completes on the spot, which is the seed's instant-force model.

use crate::config::{NodeConfig, WalBackendConfig};
use crate::envelope::{NetMsg, NodeTimer};
use qbc_core::{Decision, LogRecord, TxnId};
use qbc_obs::{EventKind, Obs, TraceEvent, TraceSink};
use qbc_simnet::{Ctx, Duration, SiteId, Time, TimerId};
use qbc_storage::{EitherWal, FileWal, Lsn, Wal, WalBackend};
use qbc_votes::Version;
use std::collections::VecDeque;
use std::sync::Arc;

/// The WAL backend a site node runs on: in-memory for the simulator,
/// file-backed for durable runs (see [`WalBackendConfig`]).
pub(crate) type NodeWal = EitherWal<LogRecord>;

/// An effect withheld until the WAL records it depends on are forced:
/// the "logged before told" half of the durability contract. Protocol
/// messages and decision applications wait here while a log record of
/// *their own* transaction sits in the group-commit buffer or an
/// in-flight force.
#[derive(Clone, Debug)]
pub(crate) enum DeferredOp {
    Send {
        to: SiteId,
        msg: NetMsg,
    },
    Apply {
        txn: TxnId,
        decision: Decision,
        commit_version: Option<Version>,
    },
}

impl DeferredOp {
    /// The transaction whose records gate this effect.
    fn txn(&self) -> Option<TxnId> {
        match self {
            DeferredOp::Send { msg, .. } => msg.txn(),
            DeferredOp::Apply { txn, .. } => Some(*txn),
        }
    }
}

/// What waits in the gate queue: an effect of the node's, or the log's
/// own prefix truncation.
#[derive(Clone, Debug)]
enum Gated {
    Effect(DeferredOp),
    /// Truncate the log prefix below `cutoff` — queued behind the force
    /// that makes its justifying checkpoint record durable (truncating
    /// before the checkpoint survives a crash would lose history).
    Truncate {
        cutoff: Lsn,
    },
}

impl Gated {
    /// The transaction whose records gate this entry (truncation: none).
    fn txn(&self) -> Option<TxnId> {
        match self {
            Gated::Effect(op) => op.txn(),
            Gated::Truncate { .. } => None,
        }
    }
}

/// When staged records are forced.
#[derive(Clone, Copy, Debug)]
enum ForcePolicy {
    /// Group commit: the first staged record of a batch waits `window`
    /// for companions; the batch is forced early at `max_batch` records.
    Staged { window: Duration, max_batch: usize },
    /// One force per record.
    PerRecord,
}

/// The write-ahead log of one site together with its durability gate.
///
/// `Clone` duplicates the whole log (the model checker branches on
/// whole sites); only meaningful on the in-memory backend — cloning a
/// file-backed log panics (see [`EitherWal`]).
#[derive(Clone)]
pub(crate) struct DurableLog {
    wal: NodeWal,
    policy: ForcePolicy,
    /// Device time one force costs (see [`NodeConfig::force_latency`]).
    force_latency: Duration,
    site: SiteId,
    obs: Option<Arc<Obs>>,
    /// The durable-LSN watermark: every record below it has been forced
    /// (and, on the modelled device, its force has completed). Equal to
    /// the log's `next_lsn` whenever nothing is staged or in flight.
    durable_lsn: Lsn,
    /// Effects waiting for the watermark to reach their gate LSN, in
    /// arrival order (so one transaction's effects keep theirs: a
    /// transaction's gate only grows).
    gated: VecDeque<(Lsn, Gated)>,
    /// Pending batch-window timer, cancelled on early (batch-full) flush.
    flush_timer: Option<TimerId>,
    /// Virtual time at which the serial log device becomes idle.
    free_at: Time,
}

impl DurableLog {
    /// Opens the log `cfg` selects. A reopened file log arrives with its
    /// recovered records (only what was forced), so the watermark starts
    /// at the log end either way.
    ///
    /// # Panics
    /// When the file-backed log cannot be opened (I/O error or non-tail
    /// corruption): a site without its log has no safe way to run.
    pub(crate) fn open(cfg: &NodeConfig) -> Self {
        let wal = match &cfg.wal_backend {
            WalBackendConfig::Memory => EitherWal::Mem(Wal::new()),
            WalBackendConfig::File(file) => EitherWal::File(
                FileWal::open(file.clone())
                    .unwrap_or_else(|e| panic!("open WAL at {}: {e}", file.dir.display())),
            ),
        };
        let policy = if cfg.group_commit {
            ForcePolicy::Staged {
                window: cfg.group_commit_window,
                max_batch: cfg.group_commit_max_batch,
            }
        } else {
            ForcePolicy::PerRecord
        };
        DurableLog {
            durable_lsn: wal.next_lsn(),
            wal,
            policy,
            force_latency: cfg.force_latency,
            site: cfg.site,
            obs: cfg.obs.clone(),
            gated: VecDeque::new(),
            flush_timer: None,
            free_at: Time::ZERO,
        }
    }

    /// Read-only view of the log (recovery replay, inspection).
    pub(crate) fn wal(&self) -> &NodeWal {
        &self.wal
    }

    /// Outstanding work on the serial log device as of `now`: how long a
    /// force issued now would wait before even starting.
    pub(crate) fn backlog(&self, now: Time) -> Duration {
        self.free_at.since(now)
    }

    /// True when nothing is staged or in flight, so no gate can be
    /// closed — the whole cost of a gate test on a log that forces per
    /// record on an instant device.
    pub(crate) fn all_durable(&self) -> bool {
        self.durable_lsn >= self.wal.next_lsn()
    }

    /// True once the record at `lsn` is durable.
    pub(crate) fn is_durable(&self, lsn: Lsn) -> bool {
        lsn < self.durable_lsn
    }

    /// `Some(gate)` while the watermark is still below `gate`, the end
    /// LSN of the newest record staged for some transaction: its effects
    /// must wait.
    pub(crate) fn closed(&self, gate: Lsn) -> Option<Lsn> {
        (gate > self.durable_lsn).then_some(gate)
    }

    /// How far `gate` sits above the watermark (zero: open). The
    /// clock-free form fingerprints hash gates in.
    pub(crate) fn above_watermark(&self, gate: Lsn) -> u64 {
        gate.0.saturating_sub(self.durable_lsn.0)
    }

    /// Queues an effect until the watermark reaches `gate`.
    pub(crate) fn defer(&mut self, gate: Lsn, op: DeferredOp) {
        self.gated.push_back((gate, Gated::Effect(op)));
    }

    /// Logs one record under the force policy. Returns its LSN and, when
    /// a force completed on the spot with effects waiting, the end LSN
    /// to hand to [`DurableLog::force_done`] before anything else —
    /// until then the record does not count as durable
    /// ([`DurableLog::is_durable`]).
    #[must_use]
    pub(crate) fn append(
        &mut self,
        ctx: &mut Ctx<'_, NetMsg, NodeTimer>,
        rec: LogRecord,
    ) -> (Lsn, Option<Lsn>) {
        let lsn = self.wal.buffer(rec);
        let forced = match self.policy {
            ForcePolicy::Staged { max_batch, .. } if self.wal.pending_len() >= max_batch => {
                self.force(ctx)
            }
            ForcePolicy::Staged { window, .. } => {
                if self.flush_timer.is_none() {
                    self.flush_timer = Some(ctx.set_timer(window, NodeTimer::FlushWal));
                }
                None
            }
            ForcePolicy::PerRecord => self.force(ctx),
        };
        (lsn, forced)
    }

    /// The batch window closed ([`NodeTimer::FlushWal`] fired): forces
    /// whatever is staged. Returns as [`DurableLog::append`] does.
    #[must_use]
    pub(crate) fn flush(&mut self, ctx: &mut Ctx<'_, NetMsg, NodeTimer>) -> Option<Lsn> {
        // Fired, not pending: nothing to cancel.
        self.flush_timer = None;
        self.force(ctx)
    }

    /// Forces the staged batch (if any) and models the device time it
    /// costs. On an instant device the force is complete on return (it
    /// is still one flush, so batching still saves forces): the
    /// watermark moves here when nothing waits for it — every force of
    /// a log that forces per record — and else the end LSN is handed
    /// back for [`DurableLog::force_done`]. On a slow device
    /// [`NodeTimer::WalForceDone`] carries it when the force completes.
    fn force(&mut self, ctx: &mut Ctx<'_, NetMsg, NodeTimer>) -> Option<Lsn> {
        if let Some(id) = self.flush_timer.take() {
            ctx.cancel_timer(id);
        }
        let forced = self.wal.force();
        if forced == 0 {
            return None;
        }
        if let Some(obs) = &self.obs {
            obs.record(TraceEvent {
                at: ctx.now(),
                site: self.site,
                txn: None,
                kind: EventKind::WalForce {
                    records: forced as u64,
                },
            });
        }
        let upto = self.wal.next_lsn();
        if self.force_latency == Duration::ZERO {
            if self.gated.is_empty() {
                self.durable_lsn = upto;
                return None;
            }
            return Some(upto);
        }
        // Serial device: this force starts when the previous completes.
        let start = Time(ctx.now().0.max(self.free_at.0));
        let done = start + self.force_latency;
        self.free_at = done;
        ctx.set_timer(done.since(ctx.now()), NodeTimer::WalForceDone { upto });
        None
    }

    /// A force up to `upto` completed: raises the watermark and moves
    /// every withheld effect whose gate it reached into `out`, in
    /// arrival order. One rotation of the queue: the effects still
    /// waiting (behind a later, in-flight force) keep their relative
    /// order. `newest_gate` is the node's table lookup — the end LSN of
    /// the newest record staged for a transaction.
    pub(crate) fn force_done(
        &mut self,
        upto: Lsn,
        newest_gate: impl Fn(TxnId) -> Lsn,
        out: &mut Vec<DeferredOp>,
    ) {
        self.durable_lsn = self.durable_lsn.max(upto);
        for _ in 0..self.gated.len() {
            let (gate, op) = self.gated.pop_front().expect("counted");
            // Reached its own gate. On an instant device that is the
            // end of it: the watermark sits at the log end. On the
            // modelled device the transaction may have staged a later
            // record while this force was in flight (a `Vote` behind its
            // `Voted` record, then the abort or the cross-shard branch
            // of the same id logs behind the next force), and then the
            // effect waits for that one too. Its own gate would be
            // enough for safety; waiting for the newest keeps the
            // invariant the node's send and apply assertions check the
            // plain one — nothing is told or applied of a transaction
            // while any of its records is undurable (`xshard_props`
            // trips them with a `Vote` in its first cases if this
            // releases on the queued gate alone).
            let still_closed = self.closed(gate).or_else(|| {
                if self.all_durable() {
                    return None;
                }
                self.closed(newest_gate(op.txn()?))
            });
            if let Some(gate) = still_closed {
                self.gated.push_back((gate, op));
                continue;
            }
            match op {
                Gated::Effect(op) => out.push(op),
                Gated::Truncate { cutoff } => self.wal.truncate_before(cutoff),
            }
        }
    }

    /// Discards the log prefix below `cutoff` once the checkpoint record
    /// justifying it — the one ending at `checkpoint_end` — is durable:
    /// now, or behind the force that carries it.
    pub(crate) fn truncate_when_durable(&mut self, checkpoint_end: Lsn, cutoff: Lsn) {
        match self.closed(checkpoint_end) {
            Some(gate) => self.gated.push_back((gate, Gated::Truncate { cutoff })),
            None => self.wal.truncate_before(cutoff),
        }
    }

    /// The site crashed: staged records (the group-commit loss window)
    /// and every effect waiting on them die with it. What survives is
    /// exactly what was forced, so the watermark is the log end again.
    pub(crate) fn crash(&mut self) {
        self.wal.lose_volatile();
        self.durable_lsn = self.wal.next_lsn();
        self.gated.clear();
        self.flush_timer = None;
        self.free_at = Time::ZERO;
    }

    /// The durable half of the site fingerprint: the retained and the
    /// pending log. Log content is state (recovery replays it), and
    /// per-site record order is fixed by the site's own event order, so
    /// hashing it does not break cross-site delivery commutation.
    pub(crate) fn fingerprint_durable(&self, s: &mut String) {
        use std::fmt::Write as _;
        let _ = write!(s, "|wal@{:?}", self.wal.start_lsn());
        for r in self.wal.records() {
            let _ = write!(s, "{r:?};");
        }
        let _ = write!(s, "|pend{}", self.wal.pending_len());
    }

    /// The volatile half: device, watermark, queue, window timer. The
    /// device's idle point is hashed relative to `now`, the watermark as
    /// its distance below the log end and each queued gate as its
    /// distance above the watermark, so states that differ only by a
    /// clock or log-position translation merge.
    pub(crate) fn fingerprint_volatile(&self, now: Time, s: &mut String) {
        use std::fmt::Write as _;
        let _ = write!(s, "|dev{}", self.backlog(now).0);
        let undurable = self.above_watermark(self.wal.next_lsn());
        let _ = write!(s, "|undurable{undurable}");
        for (gate, queued) in &self.gated {
            let above = self.above_watermark(*gate);
            let _ = match queued {
                Gated::Effect(op) => write!(s, "|gated+{above}{op:?}"),
                truncate => write!(s, "|gated+{above}{truncate:?}"),
            };
        }
        let _ = write!(s, "|flush{}", self.flush_timer.is_some());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qbc_core::Msg;
    use qbc_simnet::{NodeDriver, Process};
    use qbc_votes::{CatalogBuilder, ItemId};
    use std::collections::BTreeMap;

    const PEER: SiteId = SiteId(1);
    const T1: TxnId = TxnId(1);
    const T2: TxnId = TxnId(2);

    /// Logs one record for every message's transaction, then echoes the
    /// message — at once, or when the log releases it. `told` is
    /// everything echoed so far, in order.
    struct Host {
        log: DurableLog,
        gates: BTreeMap<TxnId, Lsn>,
        told: Vec<DeferredOp>,
    }

    impl Host {
        fn done(&mut self, forced: Option<Lsn>) {
            if let Some(upto) = forced {
                let newest = |t| self.gates.get(&t).copied().unwrap_or(Lsn(0));
                self.log.force_done(upto, newest, &mut self.told);
            }
        }
    }

    impl Process for Host {
        type Msg = NetMsg;
        type Timer = NodeTimer;

        fn on_message(&mut self, ctx: &mut Ctx<'_, NetMsg, NodeTimer>, from: SiteId, msg: NetMsg) {
            let txn = msg.txn().expect("a protocol message");
            let (lsn, forced) = self.log.append(ctx, LogRecord::VotedNo { txn });
            self.done(forced);
            if !self.log.is_durable(lsn) {
                self.gates.insert(txn, Lsn(lsn.0 + 1));
            }
            let op = DeferredOp::Send { to: from, msg };
            match self.gates.get(&txn).and_then(|&g| self.log.closed(g)) {
                Some(gate) => self.log.defer(gate, op),
                None => self.told.push(op),
            }
        }

        fn on_timer(&mut self, ctx: &mut Ctx<'_, NetMsg, NodeTimer>, _: TimerId, t: NodeTimer) {
            let forced = match t {
                NodeTimer::FlushWal => self.log.flush(ctx),
                NodeTimer::WalForceDone { upto } => Some(upto),
                other => unreachable!("the log arms no {other:?}"),
            };
            self.done(forced);
        }
    }

    /// A host whose log runs group commit (window 5, batch of 3) or
    /// flush-per-record, on a device of the given latency.
    fn host(group_commit: bool, latency: u64) -> NodeDriver<Host> {
        let catalog = CatalogBuilder::new()
            .item(ItemId(0), "x")
            .copies_at([SiteId(0)])
            .quorums(1, 1)
            .build()
            .unwrap();
        let mut cfg =
            NodeConfig::new(SiteId(0), catalog, Duration(10)).with_force_latency(Duration(latency));
        cfg.group_commit = group_commit;
        cfg.group_commit_max_batch = 3;
        let host = Host {
            log: DurableLog::open(&cfg),
            gates: BTreeMap::new(),
            told: Vec::new(),
        };
        NodeDriver::new(SiteId(0), host, 7, Time(0), &mut Vec::new())
    }

    fn tell(d: &mut NodeDriver<Host>, now: u64, txn: TxnId) {
        let msg = NetMsg::Proto(Msg::Abort { txn });
        d.deliver(Time(now), PEER, msg, &mut Vec::new());
    }

    fn tick(d: &mut NodeDriver<Host>, now: u64) {
        d.tick(Time(now), &mut Vec::new());
    }

    /// The transactions whose echoes have been let out, in order.
    fn told(d: &NodeDriver<Host>) -> Vec<TxnId> {
        d.node().told.iter().filter_map(|op| op.txn()).collect()
    }

    #[test]
    fn flush_per_record_on_an_instant_device_is_durable_on_return() {
        let mut d = host(false, 0);
        tell(&mut d, 0, T1);
        assert_eq!(told(&d), [T1]);
        let log = &d.node().log;
        assert_eq!(log.wal().forces(), 1);
        assert_eq!(log.wal().len(), 1);
        assert!(log.all_durable() && log.gated.is_empty());
        assert_eq!(d.next_deadline(), None, "no timer armed");
    }

    #[test]
    fn on_a_slow_device_the_effect_comes_out_of_force_done() {
        let mut d = host(false, 2);
        tell(&mut d, 0, T1);
        assert_eq!(d.node().log.wal().forces(), 1, "forced as appended");
        assert_eq!(d.node().log.backlog(Time(0)), Duration(2));
        tick(&mut d, 1);
        assert_eq!(told(&d), [], "the force is still in flight");
        tick(&mut d, 2);
        assert_eq!(told(&d), [T1]);
        assert!(d.node().log.all_durable());
    }

    #[test]
    fn group_commit_forces_at_max_batch_else_at_the_window() {
        let mut d = host(true, 0);
        tell(&mut d, 0, T1);
        tell(&mut d, 0, T2);
        assert_eq!(d.node().log.wal().forces(), 0);
        assert_eq!(d.next_deadline(), Some(Time(5)), "window armed once");
        // The third record fills the batch: one force for all three,
        // and the window timer is cancelled, not left to fire empty.
        tell(&mut d, 1, T1);
        assert_eq!(d.node().log.wal().forces(), 1);
        assert_eq!(told(&d), [T1, T2, T1]);
        assert_eq!(d.next_deadline(), None);
        // A lone record waits out its window.
        tell(&mut d, 2, T2);
        tick(&mut d, 6);
        assert_eq!(told(&d), [T1, T2, T1]);
        tick(&mut d, 7);
        assert_eq!(told(&d), [T1, T2, T1, T2]);
        assert_eq!(d.node().log.wal().forces(), 2);
    }

    #[test]
    fn an_effect_waits_for_the_newest_record_of_its_transaction() {
        let mut d = host(false, 2);
        tell(&mut d, 0, T1); // record 0, force done at t2
        tell(&mut d, 1, T1); // record 1, force queued behind it: done at t4
        tell(&mut d, 1, T2); // record 2, done at t6
        tick(&mut d, 2);
        // Record 0 is durable and the first echo's own gate is open, but
        // T1 staged record 1 meanwhile: nothing of T1 is told yet.
        assert!(d.node().log.is_durable(Lsn(0)));
        assert_eq!(told(&d), []);
        tick(&mut d, 4);
        assert_eq!(told(&d), [T1, T1], "both, in arrival order");
        tick(&mut d, 6);
        assert_eq!(told(&d), [T1, T1, T2]);
    }

    #[test]
    fn a_crash_drops_staged_records_and_every_queued_effect() {
        let mut d = host(true, 2);
        tell(&mut d, 0, T1);
        tell(&mut d, 0, T2);
        assert_eq!(d.node().log.wal().pending_len(), 2);
        assert_eq!(d.node().log.gated.len(), 2);
        d.node_mut().log.crash();
        let log = &d.node().log;
        assert_eq!((log.wal().pending_len(), log.wal().len()), (0, 0));
        assert!(log.gated.is_empty() && log.all_durable());
        assert_eq!(log.backlog(Time(0)), Duration::ZERO);
        // The window timer armed before the crash finds nothing to force
        // and nothing to release.
        tick(&mut d, 9);
        assert_eq!(told(&d), []);
        assert_eq!(d.node().log.wal().forces(), 0);
    }
}
