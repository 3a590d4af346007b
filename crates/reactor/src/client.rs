//! The reactor client: many logical sessions, a handful of
//! connections, zero parked threads per transaction.
//!
//! [`ReactorClient`] owns one background IO thread running its own
//! [`Poller`] over a small pool of connections to the server's front
//! door. Submitting work creates a *session slot* and returns a
//! [`Handle`] — blockingly awaitable or pollable — while the IO thread
//! multiplexes every outstanding session over the pool.
//! Ten thousand concurrent sessions cost ten thousand map entries, not
//! ten thousand threads or descriptors.
//!
//! Fault handling is built in:
//!
//! * **Rejection → resubmit.** A [`Reply::Rejected`] (no live
//!   coordinator yet, or the one picked died before starting the
//!   transaction) silently re-enqueues the session; the server's
//!   planner re-routes it to a survivor under a fresh transaction id.
//!   Attempts are capped at 64; exhaustion surfaces
//!   [`Outcome::Failed`].
//! * **Connection loss → reconnect + replay.** When a connection drops,
//!   the IO thread reconnects and re-enqueues every session that was
//!   riding on it. A transaction whose decision reply was lost is
//!   submitted again — at-least-once from the client's point of view,
//!   which the workload generators account for by using
//!   per-session-unique writes.

use crate::frame::{FrameReader, FrameWriter, ReadState};
use crate::poller::{Event, Interest, Poller, PollerKind, Token};
use crate::wake::WakeFd;
use crate::wire::{Reply, Request};
use qbc_core::{Decision, TxnId};
use qbc_obs::LatencyHistogram;
use qbc_simnet::Duration as VDuration;
use qbc_votes::{ItemId, Version};
use std::collections::HashMap;
use std::io;
use std::os::unix::io::{AsRawFd, RawFd};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

/// Resubmission attempts before a session fails.
const MAX_ATTEMPTS: u32 = 64;

/// Client tuning.
#[derive(Clone, Debug)]
pub struct ClientConfig {
    /// Connections in the pool (sessions spread round-robin).
    pub conns: usize,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig { conns: 4 }
    }
}

/// Terminal state of a session.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Outcome {
    /// The transaction committed.
    Committed {
        /// Transaction id of the successful attempt.
        txn: TxnId,
        /// Commit version when the answering site knew it.
        commit_version: Option<Version>,
    },
    /// The transaction aborted.
    Aborted {
        /// Transaction id of the deciding attempt.
        txn: TxnId,
    },
    /// A snapshot read succeeded.
    ReadOk {
        /// Version the read observed.
        version: Version,
        /// Value the read observed.
        value: i64,
    },
    /// Every copy site of the read item was unreachable.
    ReadUnavailable,
    /// Attempts exhausted or the client shut down first.
    Failed,
}

/// Aggregate client counters (see [`ReactorClient::stats`]).
#[derive(Clone, Copy, Debug, Default)]
pub struct ClientStats {
    /// Sessions started.
    pub submitted: u64,
    /// Sessions ending [`Outcome::Committed`].
    pub committed: u64,
    /// Sessions ending [`Outcome::Aborted`].
    pub aborted: u64,
    /// Sessions ending [`Outcome::ReadOk`].
    pub reads_ok: u64,
    /// Sessions ending [`Outcome::ReadUnavailable`].
    pub reads_unavailable: u64,
    /// Sessions ending [`Outcome::Failed`].
    pub failed: u64,
    /// Rejected attempts that were resubmitted.
    pub resubmits: u64,
    /// Connections re-established after a drop.
    pub reconnects: u64,
}

enum Kind {
    Submit(Vec<(ItemId, i64)>),
    Read(ItemId),
}

enum SlotState {
    Pending,
    Done(Outcome),
}

struct Slot {
    kind: Kind,
    state: SlotState,
    /// Pool index the last attempt rode on.
    conn: usize,
    attempts: u32,
    started: Instant,
}

struct Inner {
    slots: HashMap<u64, Slot>,
    /// Sessions awaiting (re)send by the IO thread.
    queue: Vec<u64>,
    next_session: u64,
    pending: usize,
    stats: ClientStats,
    /// End-to-end session latency, recorded in microseconds.
    latency: LatencyHistogram,
}

struct Shared {
    inner: Mutex<Inner>,
    cv: Condvar,
    waker: WakeFd,
    shutdown: AtomicBool,
}

impl Shared {
    /// Marks `session` finished and wakes its waiters.
    fn resolve(&self, inner: &mut Inner, session: u64, outcome: Outcome) {
        let Some(slot) = inner.slots.get_mut(&session) else {
            return;
        };
        if !matches!(slot.state, SlotState::Pending) {
            return;
        }
        slot.state = SlotState::Done(outcome);
        inner.pending -= 1;
        let micros = slot.started.elapsed().as_micros() as u64;
        inner.latency.record(VDuration(micros));
        match outcome {
            Outcome::Committed { .. } => inner.stats.committed += 1,
            Outcome::Aborted { .. } => inner.stats.aborted += 1,
            Outcome::ReadOk { .. } => inner.stats.reads_ok += 1,
            Outcome::ReadUnavailable => inner.stats.reads_unavailable += 1,
            Outcome::Failed => inner.stats.failed += 1,
        }
        self.cv.notify_all();
    }
}

/// A pooled connection on the IO thread.
struct Conn {
    stream: UnixStream,
    fd: RawFd,
    reader: FrameReader,
    writer: FrameWriter,
    interest: Interest,
}

const TOKEN_WAKER: u64 = u64::MAX;

struct IoThread {
    shared: Arc<Shared>,
    path: PathBuf,
    cfg: ClientConfig,
    poller: Poller,
    conns: Vec<Option<Conn>>,
    events: Vec<Event>,
    next_conn: usize,
}

impl IoThread {
    fn connect_one(&mut self, idx: usize) -> io::Result<()> {
        let stream = UnixStream::connect(&self.path)?;
        stream.set_nonblocking(true)?;
        let fd = stream.as_raw_fd();
        self.poller
            .register(fd, Token(idx as u64), Interest::READ)?;
        self.conns[idx] = Some(Conn {
            stream,
            fd,
            reader: FrameReader::new(),
            writer: FrameWriter::new(),
            interest: Interest::READ,
        });
        Ok(())
    }

    fn run(mut self) {
        loop {
            if self.shared.shutdown.load(Ordering::Acquire) {
                break;
            }
            self.heal_conns();
            self.send_queued();
            self.flush_all();
            let _ = self.poller.wait(&mut self.events, Some(50));
            let events = std::mem::take(&mut self.events);
            let mut drop_conns = Vec::new();
            for ev in &events {
                if ev.token.0 == TOKEN_WAKER {
                    self.shared.waker.drain();
                    continue;
                }
                let idx = ev.token.0 as usize;
                if ev.readable && self.read_conn(idx) {
                    drop_conns.push(idx);
                }
            }
            self.events = events;
            for idx in drop_conns {
                self.drop_conn(idx);
            }
        }
        // Fail whatever is still pending so waiters unblock.
        let mut inner = self.shared.inner.lock().expect("client state");
        let pending: Vec<u64> = inner
            .slots
            .iter()
            .filter(|(_, s)| matches!(s.state, SlotState::Pending))
            .map(|(&k, _)| k)
            .collect();
        for session in pending {
            self.shared.resolve(&mut inner, session, Outcome::Failed);
        }
    }

    /// (Re)connects any missing pool slot; on failure the slot stays
    /// empty and is retried next loop (sessions meanwhile queue).
    fn heal_conns(&mut self) {
        for idx in 0..self.conns.len() {
            if self.conns[idx].is_none() {
                let _ = self.connect_one(idx);
            }
        }
    }

    /// Encodes every queued session onto a live connection.
    fn send_queued(&mut self) {
        let mut inner = self.shared.inner.lock().expect("client state");
        if inner.queue.is_empty() {
            return;
        }
        let live: Vec<usize> = (0..self.conns.len())
            .filter(|&i| self.conns[i].is_some())
            .collect();
        if live.is_empty() {
            return; // keep the queue; heal_conns retries
        }
        let queue = std::mem::take(&mut inner.queue);
        let mut buf = Vec::new();
        for session in queue {
            let Some(slot) = inner.slots.get_mut(&session) else {
                continue;
            };
            if !matches!(slot.state, SlotState::Pending) {
                continue;
            }
            let idx = live[self.next_conn % live.len()];
            self.next_conn = self.next_conn.wrapping_add(1);
            slot.conn = idx;
            let req = match &slot.kind {
                Kind::Submit(writes) => Request::Submit {
                    session,
                    writes: writes.clone(),
                },
                Kind::Read(item) => Request::SnapRead {
                    session,
                    item: *item,
                },
            };
            buf.clear();
            req.encode_into(&mut buf);
            self.conns[idx].as_mut().expect("live").writer.push(&buf);
        }
    }

    fn flush_all(&mut self) {
        let mut dead = Vec::new();
        for (idx, slot) in self.conns.iter_mut().enumerate() {
            let Some(conn) = slot else { continue };
            if conn.writer.queued() > 0 {
                match conn.writer.flush(&conn.stream) {
                    Ok(_) => {}
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {}
                    Err(_) => {
                        dead.push(idx);
                        continue;
                    }
                }
            }
            let want = Interest {
                readable: true,
                writable: conn.writer.queued() > 0,
            };
            if want != conn.interest {
                conn.interest = want;
                let _ = self.poller.modify(conn.fd, Token(idx as u64), want);
            }
        }
        for idx in dead {
            self.drop_conn(idx);
        }
    }

    /// Slurps and serves replies on `idx`; `true` means the connection
    /// died.
    fn read_conn(&mut self, idx: usize) -> bool {
        let Some(conn) = self.conns[idx].as_mut() else {
            return false;
        };
        let closed = match conn.reader.fill(&conn.stream) {
            Ok(ReadState::Open) => false,
            Ok(ReadState::Closed) => true,
            Err(_) => true,
        };
        loop {
            let Some(conn) = self.conns[idx].as_mut() else {
                return false;
            };
            let reply = match conn.reader.next_frame() {
                Ok(Some(frame)) => match Reply::decode(frame) {
                    Some(r) => r,
                    None => return true,
                },
                Ok(None) => break,
                Err(_) => return true,
            };
            self.handle_reply(reply);
        }
        closed
    }

    fn handle_reply(&mut self, reply: Reply) {
        let shared = Arc::clone(&self.shared);
        let mut inner = shared.inner.lock().expect("client state");
        match reply {
            Reply::Decided {
                session,
                txn,
                decision,
                commit_version,
            } => {
                let outcome = match decision {
                    Decision::Commit => Outcome::Committed {
                        txn,
                        commit_version,
                    },
                    Decision::Abort => Outcome::Aborted { txn },
                };
                shared.resolve(&mut inner, session, outcome);
            }
            Reply::Rejected { session } => {
                let Some(slot) = inner.slots.get_mut(&session) else {
                    return;
                };
                if !matches!(slot.state, SlotState::Pending) {
                    return;
                }
                slot.attempts += 1;
                if slot.attempts >= MAX_ATTEMPTS {
                    shared.resolve(&mut inner, session, Outcome::Failed);
                } else {
                    inner.stats.resubmits += 1;
                    inner.queue.push(session);
                }
            }
            Reply::SnapRead { session, value } => {
                let outcome = match value {
                    Some((version, value)) => Outcome::ReadOk { version, value },
                    None => Outcome::ReadUnavailable,
                };
                shared.resolve(&mut inner, session, outcome);
            }
        }
    }

    /// Tears down a dead connection and re-enqueues its in-flight
    /// sessions for replay after reconnect.
    fn drop_conn(&mut self, idx: usize) {
        if let Some(conn) = self.conns[idx].take() {
            let _ = self.poller.deregister(conn.fd);
        }
        let mut inner = self.shared.inner.lock().expect("client state");
        inner.stats.reconnects += 1;
        let replay: Vec<u64> = inner
            .slots
            .iter()
            .filter(|(_, s)| s.conn == idx && matches!(s.state, SlotState::Pending))
            .map(|(&k, _)| k)
            .collect();
        inner.queue.extend(replay);
    }
}

/// A client of a [`crate::ReactorServer`] front door.
pub struct ReactorClient {
    shared: Arc<Shared>,
    io: Option<std::thread::JoinHandle<()>>,
}

impl ReactorClient {
    /// Connects the pool to the server socket at `path` and starts the
    /// IO thread.
    pub fn connect(path: &Path, cfg: ClientConfig) -> io::Result<ReactorClient> {
        assert!(cfg.conns >= 1, "need at least one connection");
        let shared = Arc::new(Shared {
            inner: Mutex::new(Inner {
                slots: HashMap::new(),
                queue: Vec::new(),
                next_session: 1,
                pending: 0,
                stats: ClientStats::default(),
                latency: LatencyHistogram::new(),
            }),
            cv: Condvar::new(),
            waker: WakeFd::new()?,
            shutdown: AtomicBool::new(false),
        });
        let mut poller = Poller::new(PollerKind::default())?;
        poller.register(shared.waker.fd(), Token(TOKEN_WAKER), Interest::READ)?;
        let mut io = IoThread {
            shared: Arc::clone(&shared),
            path: path.to_path_buf(),
            cfg,
            poller,
            conns: Vec::new(),
            events: Vec::with_capacity(64),
            next_conn: 0,
        };
        io.conns.resize_with(io.cfg.conns, || None);
        // Fail fast if the server is not there at all.
        io.connect_one(0)?;
        let handle = std::thread::Builder::new()
            .name("qbc-reactor-client".into())
            .spawn(move || io.run())
            .expect("spawn client io thread");
        Ok(ReactorClient {
            shared,
            io: Some(handle),
        })
    }

    fn start(&self, kind: Kind) -> Handle {
        let mut inner = self.shared.inner.lock().expect("client state");
        let session = inner.next_session;
        inner.next_session += 1;
        inner.slots.insert(
            session,
            Slot {
                kind,
                state: SlotState::Pending,
                conn: usize::MAX,
                attempts: 0,
                started: Instant::now(),
            },
        );
        inner.pending += 1;
        inner.stats.submitted += 1;
        inner.queue.push(session);
        drop(inner);
        self.shared.waker.wake();
        Handle {
            shared: Arc::clone(&self.shared),
            session,
        }
    }

    /// Starts a write transaction session.
    pub fn submit(&self, writes: Vec<(ItemId, i64)>) -> Handle {
        self.start(Kind::Submit(writes))
    }

    /// Starts a snapshot-read session.
    pub fn snap_read(&self, item: ItemId) -> Handle {
        self.start(Kind::Read(item))
    }

    /// Sessions not yet resolved.
    pub fn in_flight(&self) -> usize {
        self.shared.inner.lock().expect("client state").pending
    }

    /// Aggregate counters so far.
    pub fn stats(&self) -> ClientStats {
        self.shared.inner.lock().expect("client state").stats
    }

    /// Snapshot of the end-to-end session latency distribution
    /// (recorded in microseconds).
    pub fn latency(&self) -> LatencyHistogram {
        self.shared
            .inner
            .lock()
            .expect("client state")
            .latency
            .clone()
    }

    /// Stops the IO thread; unresolved sessions fail.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        self.shared.waker.wake();
        if let Some(h) = self.io.take() {
            let _ = h.join();
        }
    }
}

impl Drop for ReactorClient {
    fn drop(&mut self) {
        self.stop();
    }
}

/// One session's eventual outcome: [`Handle::wait`] for it on a thread
/// or poll [`Handle::try_outcome`]. Dropping it unwaited abandons the
/// session (its slot is reclaimed on resolution or drop).
pub struct Handle {
    shared: Arc<Shared>,
    session: u64,
}

impl Handle {
    /// Blocks until the session resolves.
    pub fn wait(self) -> Outcome {
        let mut inner = self.shared.inner.lock().expect("client state");
        loop {
            match inner.slots.get(&self.session).map(|s| &s.state) {
                Some(SlotState::Done(o)) => {
                    let o = *o;
                    // Reclaim the slot here; Drop's removal then finds
                    // nothing and the gauges stay honest.
                    inner.slots.remove(&self.session);
                    return o;
                }
                Some(SlotState::Pending) => {
                    inner = self.shared.cv.wait(inner).expect("client state");
                }
                None => return Outcome::Failed,
            }
        }
    }

    /// The outcome if the session already resolved (does not consume
    /// the slot).
    pub fn try_outcome(&self) -> Option<Outcome> {
        let inner = self.shared.inner.lock().expect("client state");
        match inner.slots.get(&self.session).map(|s| &s.state) {
            Some(SlotState::Done(o)) => Some(*o),
            _ => None,
        }
    }
}

impl Drop for Handle {
    fn drop(&mut self) {
        let mut inner = self.shared.inner.lock().expect("client state");
        if let Some(slot) = inner.slots.remove(&self.session) {
            if matches!(slot.state, SlotState::Pending) {
                // Abandoned in flight: the IO thread's eventual reply
                // finds no slot and is dropped; keep the gauge honest.
                inner.pending -= 1;
            }
        }
    }
}
