//! The site's log and the one rule built on it: *irrevocable before
//! told*.
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
//! It owns truncation too: an id *pins* its first record while an engine
//! that logs for it is live (its entry, cross-shard coordination or Paxos
//! acceptor), and a checkpoint, once durable, cuts below itself and every
//! pin. The node only assembles what a checkpoint carries.
//!
//! The node's half of the contract is small. It remembers, per
//! transaction, the *gate* — the end LSN of the newest gating record
//! [`DurableLog::append`] reported as not yet durable (every record but
//! the `Decided` of a commit that was irrevocable before it, so the
//! rule the node keeps is *irrevocable before told*) — asks
//! [`DurableLog::closed`] before telling or applying anything of that
//! transaction, hands a withheld effect to [`DurableLog::defer`], and
//! runs what [`DurableLog::force_done`] gives back.
//!
//! ## Force policy
//!
//! Records are staged, and wait for companions until the window timer
//! fires or the batch fills; then they share one force. Without group
//! commit the batch is one record, so every record is forced as it is
//! appended and the window timer is never armed. Either way the force
//! then costs [`NodeConfig::force_latency`] on a serial device — the
//! next force starts when the previous one completes — and at latency
//! zero it completes on the spot, which is the seed's instant-force
//! model.

use crate::config::{NodeConfig, WalBackendConfig};
use crate::envelope::{NetMsg, NodeCtx, NodeTimer};
use qbc_core::{Decision, LogRecord, TxnId};
use qbc_obs::{EventKind, Obs, TraceEvent, TraceSink};
use qbc_simnet::{Duration, FastHasher, SiteId, Time, TimerId};
use qbc_storage::{EitherWal, FileWal, Lsn, Wal, WalBackend, WalCodec};
use qbc_votes::{FastMap, Version};
use std::collections::VecDeque;
use std::sync::Arc;

/// The WAL backend a site node runs on: in-memory for the simulator,
/// file-backed for durable runs (see [`WalBackendConfig`]).
pub(crate) type NodeWal = EitherWal<LogRecord>;

/// An effect withheld until the WAL records it depends on are forced:
/// the "logged before told" half of the durability contract. Protocol
/// messages and decision applications wait here while a gating log
/// record of *their own* transaction sits in the group-commit buffer or
/// an in-flight force.
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

/// The write-ahead log of one site together with its durability gate.
///
/// `Clone` duplicates the whole log (the model checker branches on
/// whole sites); only meaningful on the in-memory backend — cloning a
/// file-backed log panics (see [`EitherWal`]).
#[derive(Clone)]
pub(crate) struct DurableLog {
    wal: NodeWal,
    /// How long the first staged record of a batch waits for
    /// companions before the batch is forced.
    window: Duration,
    /// The batch is forced as soon as this many records are staged: 1
    /// without group commit.
    max_batch: usize,
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
    /// The checkpoint tick's period: `None` never checkpoints.
    checkpoint_interval: Option<Duration>,
    /// A [`NodeTimer::Checkpoint`] tick is outstanding (idle sites quiesce).
    checkpoint_armed: bool,
    /// Log end as of the last checkpoint, its own record included.
    last_checkpoint_end: Lsn,
    /// Each id's first record while an engine that logs for it is live.
    first_lsn: FastMap<TxnId, Lsn>,
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
        DurableLog {
            durable_lsn: wal.next_lsn(),
            wal,
            window: cfg.group_commit_window,
            max_batch: if cfg.group_commit {
                cfg.group_commit_max_batch
            } else {
                1
            },
            force_latency: cfg.force_latency,
            site: cfg.site,
            obs: cfg.obs.clone(),
            gated: VecDeque::new(),
            flush_timer: None,
            free_at: Time::ZERO,
            checkpoint_interval: cfg.checkpoint_interval,
            checkpoint_armed: false,
            last_checkpoint_end: Lsn(0),
            first_lsn: FastMap::default(),
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

    /// Stages one record and forces the batch once it is full. Returns
    /// its LSN and, when a force completed on the spot with effects
    /// waiting, the end LSN to hand to [`DurableLog::force_done`] before
    /// anything else — until then the record does not count as durable
    /// ([`DurableLog::is_durable`]).
    #[must_use]
    pub(crate) fn append(&mut self, ctx: &mut NodeCtx<'_>, rec: LogRecord) -> (Lsn, Option<Lsn>) {
        let lsn = self.wal.buffer(rec);
        if self.wal.pending_len() >= self.max_batch {
            return (lsn, self.force(ctx));
        }
        if self.flush_timer.is_none() {
            self.flush_timer = Some(ctx.set_timer(self.window, NodeTimer::FlushWal));
        }
        (lsn, None)
    }

    /// The batch window closed ([`NodeTimer::FlushWal`] fired): forces
    /// whatever is staged. Returns as [`DurableLog::append`] does.
    #[must_use]
    pub(crate) fn flush(&mut self, ctx: &mut NodeCtx<'_>) -> Option<Lsn> {
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
    fn force(&mut self, ctx: &mut NodeCtx<'_>) -> Option<Lsn> {
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
            // while any of its gating records is undurable (`xshard_props`
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

    /// The record at `lsn` of `txn` (none: a checkpoint) was appended and
    /// what its force released has run (the order the digests pin): pins
    /// `txn`'s first record or cuts behind the checkpoint, and arms the
    /// tick if it is not, so the site ticks while it logs.
    pub(crate) fn after_append(&mut self, ctx: &mut NodeCtx<'_>, txn: Option<TxnId>, lsn: Lsn) {
        let Some(interval) = self.checkpoint_interval else {
            return;
        };
        if let Some(txn) = txn {
            self.first_lsn.entry(txn).or_insert(lsn);
        } else {
            // Below the oldest pin and this checkpoint the log is dead,
            // once the checkpoint is durable: now, or behind its force.
            let cutoff = self.first_lsn.values().fold(lsn, |c, &f| c.min(f));
            self.last_checkpoint_end = Lsn(lsn.0 + 1);
            match self.closed(self.last_checkpoint_end) {
                Some(gate) => self.gated.push_back((gate, Gated::Truncate { cutoff })),
                None => self.wal.truncate_before(cutoff),
            }
        }
        if !std::mem::replace(&mut self.checkpoint_armed, true) {
            ctx.set_timer(interval, NodeTimer::Checkpoint);
        }
    }

    /// The checkpoint tick fired. True when the log grew since the last
    /// checkpoint: the caller logs a new [`LogRecord::Checkpoint`], which
    /// re-arms the tick; a quiet log stays quiet until its next record.
    pub(crate) fn checkpoint_due(&mut self) -> bool {
        self.checkpoint_armed = false;
        self.wal.next_lsn() > self.last_checkpoint_end
    }

    /// The last engine that logs for `txn` retired.
    pub(crate) fn unpin(&mut self, txn: TxnId) {
        self.first_lsn.remove(&txn);
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
        self.checkpoint_armed = false;
        self.last_checkpoint_end = Lsn(0);
        self.first_lsn.clear();
    }

    /// Recovery's one walk: hands every record to `each` in order, and
    /// pins each id's first record and notes the newest checkpoint's end.
    pub(crate) fn recover(&mut self, mut each: impl FnMut(LogRecord)) {
        for (lsn, rec) in self.wal.replay() {
            match rec.txn() {
                Some(txn) => _ = self.first_lsn.entry(txn).or_insert(lsn),
                None => self.last_checkpoint_end = Lsn(lsn.0 + 1),
            }
            each(rec);
        }
    }

    /// Unpins every id no engine logs for after recovery.
    pub(crate) fn retain_pins(&mut self, live: impl Fn(TxnId) -> bool) {
        self.first_lsn.retain(|&txn, _| live(txn));
    }

    /// The durable half of the site fingerprint: the retained and the
    /// pending log. Log content is state (recovery replays it), and
    /// per-site record order is fixed by the site's own event order, so
    /// hashing it does not break cross-site delivery commutation.
    ///
    /// The retained log is hashed as the payloads the in-memory backend
    /// stores, in place: the model checker fingerprints every state it
    /// explores, and the codec round-trips, so logs hash equal exactly
    /// when their records are equal. A file log (never explored) is
    /// replayed and each record encoded the same way.
    pub(crate) fn fingerprint_durable(&self, s: &mut String) {
        use std::fmt::Write as _;
        use std::hash::Hasher as _;
        let mut h = FastHasher::default();
        let mut hash = |payload: &[u8]| {
            h.write_usize(payload.len());
            h.write(payload);
        };
        match &self.wal {
            EitherWal::Mem(wal) => wal.payloads().for_each(hash),
            EitherWal::File(wal) => {
                let mut buf = Vec::new();
                for (_, rec) in wal.replay() {
                    buf.clear();
                    rec.encode_into(&mut buf);
                    hash(&buf);
                }
            }
        }
        let _ = write!(
            s,
            "|wal@{:?}#{:016x}|pend{}",
            self.wal.start_lsn(),
            h.finish(),
            self.wal.pending_len()
        );
    }

    /// The volatile half: device, watermark, queue, window timer,
    /// checkpoint tick and pins. The device's idle point is hashed
    /// relative to `now`, the watermark as its distance below the log end
    /// and each queued gate as its distance above the watermark, so states
    /// that differ only by a clock or log-position translation merge.
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
        let (armed, end) = (self.checkpoint_armed, self.last_checkpoint_end);
        let mut pins: Vec<_> = self.first_lsn.iter().collect();
        pins.sort_unstable();
        let _ = write!(s, "|ckpt{armed}@{end:?}|pins{pins:?}");
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
    /// everything echoed so far, in order. A due checkpoint tick logs
    /// an empty checkpoint.
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

        fn on_message(&mut self, ctx: &mut NodeCtx<'_>, from: SiteId, msg: NetMsg) {
            let txn = msg.txn().expect("a protocol message");
            let (lsn, forced) = self.log.append(ctx, LogRecord::VotedNo { txn });
            self.done(forced);
            self.log.after_append(ctx, Some(txn), lsn);
            if !self.log.is_durable(lsn) {
                self.gates.insert(txn, Lsn(lsn.0 + 1));
            }
            let op = DeferredOp::Send { to: from, msg };
            match self.gates.get(&txn).and_then(|&g| self.log.closed(g)) {
                Some(gate) => self.log.defer(gate, op),
                None => self.told.push(op),
            }
        }

        fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, _: TimerId, t: NodeTimer) {
            let forced = match t {
                NodeTimer::FlushWal => self.log.flush(ctx),
                NodeTimer::WalForceDone { upto } => Some(upto),
                NodeTimer::Checkpoint if self.log.checkpoint_due() => {
                    let (retired, xretired, items) = (Vec::new(), Vec::new(), Vec::new());
                    let rec = LogRecord::Checkpoint {
                        retired,
                        xretired,
                        items,
                    };
                    let (lsn, forced) = self.log.append(ctx, rec);
                    self.done(forced);
                    self.log.after_append(ctx, None, lsn);
                    None
                }
                NodeTimer::Checkpoint => None,
                other => unreachable!("the log arms no {other:?}"),
            };
            self.done(forced);
        }
    }

    /// A host whose log runs group commit (window 5, batch of 3) or
    /// flush-per-record, on a device of the given latency.
    fn host(group_commit: bool, latency: u64) -> NodeDriver<Host> {
        host_with(group_commit, latency, None)
    }

    /// [`host`], checkpointing every `checkpoints` ticks if given.
    fn host_with(group_commit: bool, latency: u64, checkpoints: Option<u64>) -> NodeDriver<Host> {
        let catalog = CatalogBuilder::new()
            .item(ItemId(0))
            .copies_at([SiteId(0)])
            .quorums(1, 1)
            .build()
            .unwrap();
        let mut cfg =
            NodeConfig::new(SiteId(0), catalog, Duration(10)).with_force_latency(Duration(latency));
        cfg.group_commit = group_commit;
        cfg.group_commit_max_batch = 3;
        cfg.checkpoint_interval = checkpoints.map(Duration);
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

    /// The LSN of the oldest retained record.
    fn start(d: &NodeDriver<Host>) -> u64 {
        d.node().log.wal().start_lsn().0
    }

    #[test]
    fn a_checkpoint_cuts_below_itself_and_below_every_pin() {
        const T3: TxnId = TxnId(3);
        let mut d = host_with(false, 0, Some(10));
        tell(&mut d, 0, T1); // record 0: T1's pin
        tell(&mut d, 0, T2); // record 1: T2's pin
        tell(&mut d, 1, T1); // record 2
        assert_eq!(
            d.next_deadline(),
            Some(Time(10)),
            "the first record armed the tick"
        );
        tick(&mut d, 10); // checkpoint at record 3
        assert_eq!(start(&d), 0, "T1 pins record 0");
        d.node_mut().log.unpin(T1);
        tell(&mut d, 11, T2); // record 4
        tick(&mut d, 20); // checkpoint at record 5
        assert_eq!(start(&d), 1, "T2 pins record 1");
        d.node_mut().log.unpin(T2);
        tick(&mut d, 30); // nothing logged since: no checkpoint
        assert_eq!(d.node().log.wal().next_lsn(), Lsn(6));
        assert_eq!(d.next_deadline(), None, "a quiet log stops ticking");
        tell(&mut d, 31, T3); // record 6
        tick(&mut d, 41); // checkpoint at record 7
        assert_eq!(start(&d), 6, "T3 pins record 6");
        d.node_mut().log.unpin(T3);
        tell(&mut d, 42, T3); // record 8: a fresh pin
        tick(&mut d, 52); // checkpoint at record 9
        assert_eq!(start(&d), 8);

        // Recovery's walk rebuilds T3's pin and the checkpoint end; an id
        // it leaves with no engine is unpinned.
        let log = &mut d.node_mut().log;
        log.crash();
        let mut walked = 0;
        log.recover(|_| walked += 1);
        assert_eq!(walked, 2, "record 8 and the checkpoint");
        tick(&mut d, 62); // the tick armed before the crash: nothing due
        assert_eq!(d.node().log.wal().next_lsn(), Lsn(10));
        tell(&mut d, 63, T1); // record 10
        tick(&mut d, 73); // checkpoint at record 11
        assert_eq!(start(&d), 8, "T3 still pins record 8");
        d.node_mut().log.retain_pins(|txn| txn == T1);
        tell(&mut d, 74, T1); // record 12
        tick(&mut d, 84); // checkpoint at record 13
        assert_eq!(start(&d), 10, "T1 pins record 10");
    }

    #[test]
    fn a_checkpoint_on_a_slow_device_truncates_once_it_is_durable() {
        let mut d = host_with(false, 4, Some(10));
        tell(&mut d, 0, T1); // record 0, durable at t4
        d.node_mut().log.unpin(T1);
        tick(&mut d, 10); // checkpoint at record 1, durable at t14
        assert_eq!(start(&d), 0, "the checkpoint is still in flight");
        tick(&mut d, 14);
        assert_eq!(start(&d), 1);
    }
}
