//! The reactor server: every site of a cluster plus the client front
//! door, multiplexed onto a small fixed pool of event-loop workers.
//!
//! ## Shape
//!
//! * **Sites as state machines.** Each [`SiteNode`] is hosted in a
//!   [`NodeDriver`] — the same sans-IO contract the simulator drives —
//!   and assigned round-robin to one worker. Inter-site messages move
//!   *in-process*: within a worker by queue push, across workers by a
//!   mutex-guarded mailbox plus an eventfd doorbell. No thread ever
//!   parks waiting on a peer site.
//! * **Worker 0 is the front door.** It owns the Unix listener, every
//!   client connection, the session table and the [`Planner`]. Client
//!   sessions are logical: one framed connection carries any number,
//!   so 30k concurrent sessions need a handful of descriptors.
//! * **Decisions are push, not poll.** Sites run with
//!   [`qbc_db::NodeConfig::decision_events`] on; after every delivery
//!   the hosting worker drains the events and forwards them to the
//!   front door, which answers the waiting session immediately.
//! * **Backpressure per connection.** Replies queue in a
//!   [`FrameWriter`]; once its backlog crosses the high-water mark the
//!   front door stops *reading* that connection (new requests wait in
//!   the kernel buffer and eventually push back on the client) until
//!   the backlog drains below half the mark. Other connections are
//!   untouched — a slow reader stalls only itself.
//! * **Kill = silence.** [`ReactorServer::kill_site`] freezes a site:
//!   its driver is retired, traffic to it is dropped, and requests the
//!   planner routes elsewhere keep flowing. In-flight transactions it
//!   coordinated are decided by the survivors' termination protocol,
//!   whose decision events still answer the client.

use crate::frame::{FrameReader, FrameWriter, ReadState};
use crate::poller::{Event, Interest, Poller, PollerKind, Token};
use crate::wake::WakeFd;
use crate::wire::{Reply, Request};
use qbc_core::{Decision, TxnId};
use qbc_db::{DecisionEvent, NetMsg, ReadResult, SiteNode};
use qbc_simnet::{NodeDriver, SiteId, Time};
use qbc_votes::{ItemId, Version};
use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};
use std::io;
use std::os::unix::io::{AsRawFd, RawFd};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Routing oracle the front door consults per request. Implemented by
/// the cluster layer (only it holds the shard map and catalogs); the
/// reactor itself stays topology-agnostic.
pub trait Planner: Send {
    /// Plans a write submission: picks a live coordinator (skipping
    /// `down`) and builds the fully-formed begin message
    /// ([`NetMsg::BeginTxn`] or, for a writeset spanning shards,
    /// [`NetMsg::BeginXTxn`]). `None` rejects the request (no live
    /// coordinator). Implementations record per-transaction handle
    /// metadata here.
    fn plan_submit(
        &mut self,
        now: Time,
        txn: TxnId,
        writes: &[(ItemId, i64)],
        down: &BTreeSet<SiteId>,
    ) -> Option<(SiteId, NetMsg)>;

    /// Picks a live site to coordinate a snapshot read of `item`.
    fn plan_read(&mut self, item: ItemId, down: &BTreeSet<SiteId>) -> Option<SiteId>;
}

/// Reactor server tuning.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Event-loop workers (≥ 1). Worker 0 runs the front door; sites
    /// spread round-robin over all workers.
    pub workers: usize,
    /// Per-connection queued-reply bytes above which the front door
    /// stops reading that connection.
    pub write_hwm: usize,
    /// Seed mixed into each driver's RNG.
    pub seed: u64,
    /// First transaction id the front door assigns.
    pub first_txn: u64,
    /// In-flight transaction age (ms) after which the front door gives
    /// up waiting and answers `Rejected` so the client resubmits.
    /// Covers the one silent case — a begin swallowed whole by a
    /// coordinator killed before it told any participant. A transaction
    /// that is merely slow (blocked on an unreachable quorum) can
    /// outlive this and still decide later; the resubmission makes the
    /// client contract at-least-once, which the generators account for.
    pub txn_timeout_ms: u64,
    /// When set, `SO_SNDBUF` for accepted connections — tests shrink it
    /// to hit the write high-water mark without megabytes of replies.
    pub sockbuf: Option<i32>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 2,
            write_hwm: 256 * 1024,
            seed: 0,
            first_txn: 1,
            txn_timeout_ms: 30_000,
            sockbuf: None,
        }
    }
}

/// Point-in-time reactor counters (see [`ReactorServer::stats`]).
#[derive(Clone, Copy, Debug, Default)]
pub struct ServerStats {
    /// Connections accepted over the server's lifetime.
    pub accepted_conns: u64,
    /// Times a connection crossed the write high-water mark and had its
    /// read side paused.
    pub backpressure_stalls: u64,
    /// Client sessions currently awaiting an answer.
    pub sessions_in_flight: u64,
    /// Peak of `sessions_in_flight`.
    pub peak_sessions_in_flight: u64,
    /// Largest single poller wait batch (ready-queue depth peak).
    pub ready_queue_peak: u64,
    /// Requests answered `Rejected` (client resubmits).
    pub rejected: u64,
    /// Transactions answered with a decision.
    pub decided: u64,
}

#[derive(Default)]
struct SharedStats {
    accepted_conns: AtomicU64,
    backpressure_stalls: AtomicU64,
    sessions_in_flight: AtomicU64,
    peak_sessions_in_flight: AtomicU64,
    ready_queue_peak: AtomicU64,
    rejected: AtomicU64,
    decided: AtomicU64,
}

impl SharedStats {
    fn snapshot(&self) -> ServerStats {
        ServerStats {
            accepted_conns: self.accepted_conns.load(Ordering::Relaxed),
            backpressure_stalls: self.backpressure_stalls.load(Ordering::Relaxed),
            sessions_in_flight: self.sessions_in_flight.load(Ordering::Relaxed),
            peak_sessions_in_flight: self.peak_sessions_in_flight.load(Ordering::Relaxed),
            ready_queue_peak: self.ready_queue_peak.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            decided: self.decided.load(Ordering::Relaxed),
        }
    }

    fn raise(cell: &AtomicU64, v: u64) {
        cell.fetch_max(v, Ordering::Relaxed);
    }
}

impl ServerStats {
    /// Renders the reactor gauges into a metrics registry
    /// (`qbc_reactor_*` namespace).
    pub fn registry(&self) -> qbc_obs::Registry {
        let mut r = qbc_obs::Registry::new();
        self.fill_registry(&mut r);
        r
    }

    /// Adds the reactor gauges to an existing registry (so front-ends
    /// can merge them with cluster metrics).
    pub fn fill_registry(&self, r: &mut qbc_obs::Registry) {
        r.counter(
            "qbc_reactor_conns_accepted_total",
            &[],
            "client connections accepted",
            self.accepted_conns,
        );
        r.counter(
            "qbc_reactor_backpressure_stalls_total",
            &[],
            "connections paused at the write high-water mark",
            self.backpressure_stalls,
        );
        r.gauge(
            "qbc_reactor_sessions_in_flight",
            &[],
            "client sessions awaiting an answer",
            self.sessions_in_flight as f64,
        );
        r.gauge(
            "qbc_reactor_sessions_in_flight_peak",
            &[],
            "peak concurrent sessions",
            self.peak_sessions_in_flight as f64,
        );
        r.gauge(
            "qbc_reactor_ready_queue_peak",
            &[],
            "largest single poller ready batch",
            self.ready_queue_peak as f64,
        );
        r.counter(
            "qbc_reactor_rejected_total",
            &[],
            "requests rejected for resubmission",
            self.rejected,
        );
        r.counter(
            "qbc_reactor_decided_total",
            &[],
            "transactions answered with a decision",
            self.decided,
        );
    }
}

enum Mail {
    /// An inter-site protocol message crossing a worker boundary.
    Deliver {
        from: SiteId,
        to: SiteId,
        msg: NetMsg,
    },
    /// The front door asks the worker hosting `site` to watch a
    /// snapshot read until it resolves.
    WatchRead { site: SiteId, req_id: u64 },
    /// An event for the front door (worker 0).
    Front(FrontEvent),
}

enum FrontEvent {
    /// A hosted site recorded a decision.
    Decision {
        txn: TxnId,
        decision: Decision,
        commit_version: Option<Version>,
    },
    /// A begin was addressed at a site that is gone; the client should
    /// resubmit.
    BeginLost { txn: TxnId },
    /// A watched snapshot read resolved (`None` = unavailable).
    ReadDone {
        req_id: u64,
        value: Option<(Version, i64)>,
    },
}

struct Mailbox {
    queue: Mutex<Vec<Mail>>,
    waker: WakeFd,
}

struct Shared {
    shutdown: AtomicBool,
    down: Mutex<BTreeSet<SiteId>>,
    mailboxes: Vec<Mailbox>,
    stats: SharedStats,
    start: Instant,
}

impl Shared {
    fn post(&self, worker: usize, mail: Mail) {
        self.mailboxes[worker]
            .queue
            .lock()
            .expect("mailbox")
            .push(mail);
        self.mailboxes[worker].waker.wake();
    }
}

/// Pseudo site id client-originated begins are stamped with (an id no
/// real site uses).
const CLIENT_SITE: SiteId = SiteId(u32::MAX);
const TOKEN_LISTENER: u64 = 0;
const TOKEN_WAKER: u64 = 1;
const FIRST_CONN_TOKEN: u64 = 16;

struct Conn {
    stream: UnixStream,
    fd: RawFd,
    reader: FrameReader,
    writer: FrameWriter,
    /// Read side paused at the write high-water mark.
    paused: bool,
    /// Interest currently registered with the poller.
    interest: Interest,
}

/// Front-door state, present on worker 0 only.
struct FrontDoor {
    listener: UnixListener,
    planner: Box<dyn Planner>,
    conns: HashMap<u64, Conn>,
    next_conn_token: u64,
    /// In-flight transaction → (conn token, client session, started).
    by_txn: HashMap<u64, (u64, u64, Time)>,
    txn_timeout_ms: u64,
    last_sweep: Time,
    /// In-flight snapshot read → (conn token, client session).
    pending_reads: HashMap<u64, (u64, u64)>,
    next_txn: u64,
    next_req: u64,
    write_hwm: usize,
    sockbuf: Option<i32>,
}

struct Worker {
    index: usize,
    shared: Arc<Shared>,
    poller: Poller,
    events: Vec<Event>,
    drivers: BTreeMap<SiteId, NodeDriver<SiteNode>>,
    /// Retired (killed) sites, kept for harvest.
    dead: Vec<(SiteId, SiteNode)>,
    /// (from, to, msg) queue of local deliveries.
    inbox: VecDeque<(SiteId, SiteId, NetMsg)>,
    /// Scratch for driver output.
    out: Vec<(SiteId, NetMsg)>,
    /// Scratch for decision events.
    decisions: Vec<DecisionEvent>,
    /// Snapshot reads this worker polls to completion.
    watched_reads: Vec<(SiteId, u64)>,
    /// Site → hosting worker, for routing.
    site_worker: Arc<BTreeMap<SiteId, usize>>,
    front: Option<FrontDoor>,
    /// Front events generated locally on worker 0 (skip the mailbox).
    local_front: Vec<FrontEvent>,
}

impl Worker {
    fn now(&self) -> Time {
        Time(self.shared.start.elapsed().as_millis() as u64)
    }

    fn run(mut self) -> Vec<(SiteId, SiteNode)> {
        loop {
            let now = self.now();
            self.retire_down_sites();
            self.pump(now);
            self.poll_watched_reads();
            self.serve_front(now);
            if self.shared.shutdown.load(Ordering::Acquire) {
                break;
            }
            let timeout = self.poll_timeout(now);
            let n = match self.poller.wait(&mut self.events, Some(timeout)) {
                Ok(n) => n,
                Err(e) => panic!("reactor worker {}: poller failed: {e}", self.index),
            };
            SharedStats::raise(&self.shared.stats.ready_queue_peak, n as u64);
            let events = std::mem::take(&mut self.events);
            for ev in &events {
                self.dispatch(*ev);
            }
            self.events = events;
            self.drain_mailbox();
        }
        // Shutdown: unwind the drivers into plain nodes for harvest.
        let mut nodes: Vec<(SiteId, SiteNode)> = self.dead;
        for (site, driver) in self.drivers {
            nodes.push((site, driver.into_node()));
        }
        nodes
    }

    /// Sleep no longer than the earliest site timer (clamped so
    /// control-plane changes are still noticed promptly even if a wake
    /// is lost).
    fn poll_timeout(&mut self, now: Time) -> i32 {
        let mut earliest: Option<Time> = None;
        for d in self.drivers.values_mut() {
            if let Some(t) = d.next_deadline() {
                earliest = Some(earliest.map_or(t, |e: Time| e.min(t)));
            }
        }
        match earliest {
            Some(t) => (t.0.saturating_sub(now.0)).min(50) as i32,
            None => 50,
        }
    }

    fn dispatch(&mut self, ev: Event) {
        match ev.token.0 {
            TOKEN_WAKER => self.shared.mailboxes[self.index].waker.drain(),
            TOKEN_LISTENER => self.accept_all(),
            t => self.conn_event(t, ev),
        }
    }

    fn drain_mailbox(&mut self) {
        let mut mail = {
            let mut q = self.shared.mailboxes[self.index]
                .queue
                .lock()
                .expect("mailbox");
            std::mem::take(&mut *q)
        };
        for m in mail.drain(..) {
            match m {
                Mail::Deliver { from, to, msg } => self.inbox.push_back((from, to, msg)),
                Mail::WatchRead { site, req_id } => self.watched_reads.push((site, req_id)),
                Mail::Front(ev) => self.local_front.push(ev),
            }
        }
    }

    /// Moves freshly-killed sites out of the active driver set.
    fn retire_down_sites(&mut self) {
        let down = self.shared.down.lock().expect("down set");
        if down.is_empty() {
            return;
        }
        let doomed: Vec<SiteId> = self
            .drivers
            .keys()
            .copied()
            .filter(|s| down.contains(s))
            .collect();
        drop(down);
        for site in doomed {
            let driver = self.drivers.remove(&site).expect("listed");
            self.dead.push((site, driver.into_node()));
        }
    }

    /// Drives hosted sites to local quiescence: due timers fire,
    /// queued messages deliver, decision events flow to the front door.
    fn pump(&mut self, now: Time) {
        let mut rounds = 0;
        loop {
            let mut progress = false;
            let sites: Vec<SiteId> = self.drivers.keys().copied().collect();
            for site in sites {
                let d = self.drivers.get_mut(&site).expect("listed");
                d.tick(now, &mut self.out);
                if !self.out.is_empty() {
                    progress = true;
                    self.route(site);
                }
                self.forward_decisions(site);
            }
            while let Some((from, to, msg)) = self.inbox.pop_front() {
                progress = true;
                match self.drivers.get_mut(&to) {
                    Some(d) => {
                        d.deliver(now, from, msg, &mut self.out);
                        self.route(to);
                        self.forward_decisions(to);
                    }
                    None => self.begin_lost(msg),
                }
            }
            rounds += 1;
            if !progress || rounds > 10_000 {
                break;
            }
        }
    }

    /// Routes everything a driver emitted: local sites by queue push,
    /// remote sites via their worker's mailbox, anything else dropped
    /// (the client pseudo-site gets answers via decision events and
    /// watched reads, not protocol messages).
    fn route(&mut self, from: SiteId) {
        for (to, msg) in self.out.drain(..) {
            match self.site_worker.get(&to) {
                Some(&w) if w == self.index => self.inbox.push_back((from, to, msg)),
                Some(&w) => self.shared.post(w, Mail::Deliver { from, to, msg }),
                None => {}
            }
        }
    }

    fn forward_decisions(&mut self, site: SiteId) {
        let d = self.drivers.get_mut(&site).expect("listed");
        d.node_mut().drain_decision_events(&mut self.decisions);
        if self.decisions.is_empty() {
            return;
        }
        for ev in self.decisions.drain(..) {
            let fe = FrontEvent::Decision {
                txn: ev.txn,
                decision: ev.decision,
                commit_version: ev.commit_version,
            };
            if self.front.is_some() {
                self.local_front.push(fe);
            } else {
                self.shared.post(0, Mail::Front(fe));
            }
        }
    }

    /// A message addressed at a site this worker no longer hosts. A
    /// begin must be bounced back to the client (resubmission); plain
    /// protocol traffic to a dead site is dropped, exactly like a
    /// crashed site ignoring its inbox.
    fn begin_lost(&mut self, msg: NetMsg) {
        let fe = match msg {
            NetMsg::BeginTxn { txn, .. } | NetMsg::BeginXTxn { txn, .. } => {
                FrontEvent::BeginLost { txn }
            }
            NetMsg::BeginSnapRead { req_id, .. } => FrontEvent::ReadDone {
                req_id,
                value: None,
            },
            _ => return,
        };
        if self.front.is_some() {
            self.local_front.push(fe);
        } else {
            self.shared.post(0, Mail::Front(fe));
        }
    }

    /// Checks watched snapshot reads for resolution (the read collector
    /// resolves node-side; nothing is pushed for it).
    fn poll_watched_reads(&mut self) {
        if self.watched_reads.is_empty() {
            return;
        }
        let mut done: Vec<FrontEvent> = Vec::new();
        self.watched_reads.retain(|&(site, req_id)| {
            let result = match self.drivers.get(&site) {
                Some(d) => d.node().snap_read_result(req_id),
                // Site killed mid-read: unavailable.
                None => Some(ReadResult::Unavailable),
            };
            match result {
                Some(ReadResult::Pending) | None => true,
                Some(ReadResult::Success { version, value }) => {
                    done.push(FrontEvent::ReadDone {
                        req_id,
                        value: Some((version, value)),
                    });
                    false
                }
                Some(ReadResult::Unavailable) => {
                    done.push(FrontEvent::ReadDone {
                        req_id,
                        value: None,
                    });
                    false
                }
            }
        });
        for fe in done {
            if self.front.is_some() {
                self.local_front.push(fe);
            } else {
                self.shared.post(0, Mail::Front(fe));
            }
        }
    }

    // ---- front door (worker 0 only) -----------------------------------

    fn serve_front(&mut self, now: Time) {
        if self.front.is_none() {
            return;
        }
        let events = std::mem::take(&mut self.local_front);
        for fe in events {
            self.handle_front_event(fe);
        }
        self.sweep_stale_txns(now);
        self.flush_conns();
        self.update_session_gauge();
    }

    /// Times out sessions whose transaction has been silent for
    /// `txn_timeout_ms` (see [`ServerConfig::txn_timeout_ms`]).
    fn sweep_stale_txns(&mut self, now: Time) {
        let front = self.front.as_mut().expect("front door");
        if front.txn_timeout_ms == 0 {
            return;
        }
        let sweep_every = (front.txn_timeout_ms / 4).clamp(50, 1000);
        if now.0.saturating_sub(front.last_sweep.0) < sweep_every {
            return;
        }
        front.last_sweep = now;
        let timeout = front.txn_timeout_ms;
        let stale: Vec<u64> = front
            .by_txn
            .iter()
            .filter(|(_, &(_, _, started))| now.0.saturating_sub(started.0) >= timeout)
            .map(|(&txn, _)| txn)
            .collect();
        for txn in stale {
            self.handle_front_event(FrontEvent::BeginLost { txn: TxnId(txn) });
        }
    }

    fn update_session_gauge(&mut self) {
        let Some(front) = &self.front else { return };
        let in_flight = (front.by_txn.len() + front.pending_reads.len()) as u64;
        self.shared
            .stats
            .sessions_in_flight
            .store(in_flight, Ordering::Relaxed);
        SharedStats::raise(&self.shared.stats.peak_sessions_in_flight, in_flight);
    }

    fn handle_front_event(&mut self, fe: FrontEvent) {
        let front = self.front.as_mut().expect("front door");
        match fe {
            FrontEvent::Decision {
                txn,
                decision,
                commit_version,
            } => {
                // First event wins; later sites' echoes find the
                // session already answered.
                if let Some((conn, session, _)) = front.by_txn.remove(&txn.0) {
                    self.shared.stats.decided.fetch_add(1, Ordering::Relaxed);
                    Self::queue_reply(
                        front,
                        &self.shared,
                        conn,
                        &Reply::Decided {
                            session,
                            txn,
                            decision,
                            commit_version,
                        },
                    );
                }
            }
            FrontEvent::BeginLost { txn } => {
                if let Some((conn, session, _)) = front.by_txn.remove(&txn.0) {
                    self.shared.stats.rejected.fetch_add(1, Ordering::Relaxed);
                    Self::queue_reply(front, &self.shared, conn, &Reply::Rejected { session });
                }
            }
            FrontEvent::ReadDone { req_id, value } => {
                if let Some((conn, session)) = front.pending_reads.remove(&req_id) {
                    Self::queue_reply(
                        front,
                        &self.shared,
                        conn,
                        &Reply::SnapRead { session, value },
                    );
                }
            }
        }
    }

    fn queue_reply(front: &mut FrontDoor, shared: &Shared, conn: u64, reply: &Reply) {
        // The connection may have died while the answer was in flight;
        // the reconnected client resubmits under a fresh session.
        if let Some(c) = front.conns.get_mut(&conn) {
            let mut buf = Vec::new();
            reply.encode_into(&mut buf);
            c.writer.push(&buf);
            if !c.paused && c.writer.queued() > front.write_hwm {
                c.paused = true;
                shared
                    .stats
                    .backpressure_stalls
                    .fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    fn accept_all(&mut self) {
        loop {
            let front = self.front.as_mut().expect("listener on front worker");
            match front.listener.accept() {
                Ok((stream, _)) => {
                    stream.set_nonblocking(true).expect("nonblocking conn");
                    if let Some(b) = front.sockbuf {
                        let _ = crate::sys::sys_setsockopt_int(
                            stream.as_raw_fd(),
                            crate::sys::SOL_SOCKET,
                            crate::sys::SO_SNDBUF,
                            b,
                        );
                    }
                    let token = front.next_conn_token;
                    front.next_conn_token += 1;
                    let fd = stream.as_raw_fd();
                    front.conns.insert(
                        token,
                        Conn {
                            stream,
                            fd,
                            reader: FrameReader::new(),
                            writer: FrameWriter::new(),
                            paused: false,
                            interest: Interest::READ,
                        },
                    );
                    self.shared
                        .stats
                        .accepted_conns
                        .fetch_add(1, Ordering::Relaxed);
                    self.poller
                        .register(fd, Token(token), Interest::READ)
                        .expect("register conn");
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => break,
            }
        }
    }

    fn conn_event(&mut self, token: u64, ev: Event) {
        let front = self.front.as_mut().expect("conns on front worker");
        let Some(conn) = front.conns.get_mut(&token) else {
            return;
        };
        let mut close = ev.hangup;
        if ev.readable && !close {
            match conn.reader.fill(&conn.stream) {
                Ok(ReadState::Open) => {}
                Ok(ReadState::Closed) => close = true,
                Err(_) => close = true,
            }
            if !close {
                close = self.handle_requests(token);
            }
        }
        if close {
            self.close_conn(token);
        }
        // Writability is handled by the flush pass below; nothing to do
        // here beyond having woken up.
    }

    /// Parses and serves every complete request buffered on `token`.
    /// Returns `true` when the connection must close (protocol error).
    fn handle_requests(&mut self, token: u64) -> bool {
        loop {
            let front = self.front.as_mut().expect("front door");
            let conn = match front.conns.get_mut(&token) {
                Some(c) => c,
                None => return false,
            };
            if conn.paused {
                // Leave remaining requests in the buffer: backpressure
                // means this connection's work is deferred, not dropped.
                return false;
            }
            let req = match conn.reader.next_frame() {
                Ok(Some(frame)) => match Request::decode(frame) {
                    Some(r) => r,
                    None => return true,
                },
                Ok(None) => return false,
                Err(_) => return true,
            };
            self.serve_request(token, req);
        }
    }

    fn serve_request(&mut self, token: u64, req: Request) {
        let now = self.now();
        let down = self.shared.down.lock().expect("down set").clone();
        let front = self.front.as_mut().expect("front door");
        match req {
            Request::Submit { session, writes } => {
                let txn = TxnId(front.next_txn);
                front.next_txn += 1;
                match front.planner.plan_submit(now, txn, &writes, &down) {
                    Some((coordinator, msg)) => {
                        front.by_txn.insert(txn.0, (token, session, now));
                        self.inject(CLIENT_SITE, coordinator, msg);
                    }
                    None => {
                        self.shared.stats.rejected.fetch_add(1, Ordering::Relaxed);
                        Self::queue_reply(front, &self.shared, token, &Reply::Rejected { session });
                    }
                }
            }
            Request::SnapRead { session, item } => match front.planner.plan_read(item, &down) {
                Some(site) => {
                    let req_id = front.next_req;
                    front.next_req += 1;
                    front.pending_reads.insert(req_id, (token, session));
                    let worker = self.site_worker.get(&site).copied();
                    match worker {
                        Some(w) if w == self.index => {
                            self.watched_reads.push((site, req_id));
                            self.inbox.push_back((
                                CLIENT_SITE,
                                site,
                                NetMsg::BeginSnapRead { req_id, item },
                            ));
                        }
                        Some(w) => {
                            self.shared.post(w, Mail::WatchRead { site, req_id });
                            self.shared.post(
                                w,
                                Mail::Deliver {
                                    from: CLIENT_SITE,
                                    to: site,
                                    msg: NetMsg::BeginSnapRead { req_id, item },
                                },
                            );
                        }
                        None => {
                            self.local_front.push(FrontEvent::ReadDone {
                                req_id,
                                value: None,
                            });
                        }
                    }
                }
                None => {
                    Self::queue_reply(
                        front,
                        &self.shared,
                        token,
                        &Reply::SnapRead {
                            session,
                            value: None,
                        },
                    );
                }
            },
        }
    }

    /// Queues a begin at its coordinator, local or remote.
    fn inject(&mut self, from: SiteId, to: SiteId, msg: NetMsg) {
        match self.site_worker.get(&to).copied() {
            Some(w) if w == self.index => self.inbox.push_back((from, to, msg)),
            Some(w) => self.shared.post(w, Mail::Deliver { from, to, msg }),
            None => self.begin_lost(msg),
        }
    }

    /// Flushes every connection with queued replies, maintaining
    /// poller interest and the backpressure pause state.
    fn flush_conns(&mut self) {
        let Some(front) = self.front.as_mut() else {
            return;
        };
        let hwm = front.write_hwm;
        let mut dead: Vec<u64> = Vec::new();
        let mut resumed: Vec<u64> = Vec::new();
        for (&token, conn) in front.conns.iter_mut() {
            if conn.writer.queued() > 0 {
                match conn.writer.flush(&conn.stream) {
                    Ok(_) => {}
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {}
                    Err(_) => {
                        dead.push(token);
                        continue;
                    }
                }
            }
            if conn.paused && conn.writer.queued() < hwm / 2 {
                conn.paused = false;
                resumed.push(token);
            }
            let want = Interest {
                readable: !conn.paused,
                writable: conn.writer.queued() > 0,
            };
            if want != conn.interest {
                conn.interest = want;
                self.poller
                    .modify(conn.fd, Token(token), want)
                    .expect("modify conn interest");
            }
        }
        for token in dead {
            self.close_conn(token);
        }
        // A resumed connection may have whole requests already
        // buffered; serve them now rather than waiting for new bytes.
        for token in resumed {
            if self.handle_requests(token) {
                self.close_conn(token);
            }
        }
    }

    fn close_conn(&mut self, token: u64) {
        let front = self.front.as_mut().expect("front door");
        if let Some(conn) = front.conns.remove(&token) {
            let _ = self.poller.deregister(conn.fd);
        }
        // Sessions bound to this connection stay in the tables; their
        // eventual answers find the connection gone and are dropped
        // (the reconnected client resubmitted under fresh sessions).
    }
}

/// Handle to a running reactor server.
pub struct ReactorServer {
    shared: Arc<Shared>,
    handles: Vec<std::thread::JoinHandle<Vec<(SiteId, SiteNode)>>>,
    path: PathBuf,
}

impl ReactorServer {
    /// Boots the server: binds `listen` (any stale socket file is
    /// replaced), partitions `nodes` round-robin over the workers and
    /// starts the event loops.
    pub fn spawn(
        cfg: ServerConfig,
        nodes: Vec<(SiteId, SiteNode)>,
        planner: Box<dyn Planner>,
        listen: &Path,
    ) -> io::Result<ReactorServer> {
        assert!(cfg.workers >= 1, "need at least one worker");
        let _ = std::fs::remove_file(listen);
        let listener = UnixListener::bind(listen)?;
        listener.set_nonblocking(true)?;

        let mut mailboxes = Vec::with_capacity(cfg.workers);
        for _ in 0..cfg.workers {
            mailboxes.push(Mailbox {
                queue: Mutex::new(Vec::new()),
                waker: WakeFd::new()?,
            });
        }
        let shared = Arc::new(Shared {
            shutdown: AtomicBool::new(false),
            down: Mutex::new(BTreeSet::new()),
            mailboxes,
            stats: SharedStats::default(),
            start: Instant::now(),
        });

        let mut site_worker = BTreeMap::new();
        for (i, (site, _)) in nodes.iter().enumerate() {
            site_worker.insert(*site, i % cfg.workers);
        }
        let site_worker = Arc::new(site_worker);

        let mut per_worker: Vec<Vec<(SiteId, SiteNode)>> =
            (0..cfg.workers).map(|_| Vec::new()).collect();
        for (i, pair) in nodes.into_iter().enumerate() {
            per_worker[i % cfg.workers].push(pair);
        }

        let mut handles = Vec::with_capacity(cfg.workers);
        let mut planner = Some(planner);
        let mut listener = Some(listener);
        for (index, assigned) in per_worker.into_iter().enumerate() {
            let shared_w = Arc::clone(&shared);
            let site_worker_w = Arc::clone(&site_worker);
            let mut poller = Poller::new(PollerKind::default())?;
            poller.register(
                shared_w.mailboxes[index].waker.fd(),
                Token(TOKEN_WAKER),
                Interest::READ,
            )?;
            let front = if index == 0 {
                let listener = listener.take().expect("one listener");
                poller.register(listener.as_raw_fd(), Token(TOKEN_LISTENER), Interest::READ)?;
                Some(FrontDoor {
                    listener,
                    planner: planner.take().expect("one planner"),
                    conns: HashMap::new(),
                    next_conn_token: FIRST_CONN_TOKEN,
                    by_txn: HashMap::new(),
                    txn_timeout_ms: cfg.txn_timeout_ms,
                    last_sweep: Time(0),
                    pending_reads: HashMap::new(),
                    next_txn: cfg.first_txn,
                    next_req: 1,
                    write_hwm: cfg.write_hwm,
                    sockbuf: cfg.sockbuf,
                })
            } else {
                None
            };
            // Boot the drivers inside the worker thread so on_start
            // effects (recovery, announcements) route like any others.
            let seed = cfg.seed;
            let handle = std::thread::Builder::new()
                .name(format!("qbc-reactor-{index}"))
                .spawn(move || {
                    let mut worker = Worker {
                        index,
                        shared: shared_w,
                        poller,
                        events: Vec::with_capacity(256),
                        drivers: BTreeMap::new(),
                        dead: Vec::new(),
                        inbox: VecDeque::new(),
                        out: Vec::new(),
                        decisions: Vec::new(),
                        watched_reads: Vec::new(),
                        site_worker: site_worker_w,
                        front,
                        local_front: Vec::new(),
                    };
                    let now = worker.now();
                    for (site, node) in assigned {
                        let mix = seed ^ (site.0 as u64).wrapping_mul(0x9E37_79B9);
                        let driver = NodeDriver::new(site, node, mix, now, &mut worker.out);
                        worker.drivers.insert(site, driver);
                        worker.route(site);
                    }
                    worker.run()
                })
                .expect("spawn reactor worker");
            handles.push(handle);
        }
        Ok(ReactorServer {
            shared,
            handles,
            path: listen.to_path_buf(),
        })
    }

    /// Freezes a site (see the module docs): its driver is retired and
    /// all its traffic dropped, modelling a crash that never recovers.
    pub fn kill_site(&self, site: SiteId) {
        self.shared.down.lock().expect("down set").insert(site);
        for mb in &self.shared.mailboxes {
            mb.waker.wake();
        }
    }

    /// Point-in-time counters.
    pub fn stats(&self) -> ServerStats {
        self.shared.stats.snapshot()
    }

    /// The Unix socket the front door listens on.
    pub fn socket_path(&self) -> &Path {
        &self.path
    }

    /// Stops the workers and returns every site node (killed sites
    /// included, frozen at their kill state) for harvesting.
    pub fn shutdown(self) -> (Vec<(SiteId, SiteNode)>, ServerStats) {
        self.shared.shutdown.store(true, Ordering::Release);
        for mb in &self.shared.mailboxes {
            mb.waker.wake();
        }
        let mut nodes = Vec::new();
        for h in self.handles {
            nodes.extend(h.join().expect("reactor worker panicked"));
        }
        nodes.sort_by_key(|(s, _)| *s);
        let _ = std::fs::remove_file(&self.path);
        (nodes, self.shared.stats.snapshot())
    }
}
