//! The load generator: one thread, one nonblocking `UnixStream`, the
//! public frame and wire codecs. It replays a [`Schedule`], stamps
//! every reply, and keeps exact per-session records.
//!
//! Not `ReactorClient`: its latency histogram is power-of-two bucketed
//! and `Handle::wait` cannot timestamp a reply.

use crate::procfs;
use crate::schedule::{Op, Schedule};
use crate::stats::{highest_supported, median_f64, percentile};
use crate::workload::{Load, Spec};
use qbc_core::Decision;
use qbc_reactor::{
    Event, FrameReader, FrameWriter, Interest, Poller, PollerKind, ReadState, Reply, Request, Token,
};
use qbc_votes::ItemId;
use std::io;
use std::os::unix::io::AsRawFd;
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::time::Instant;

/// Resubmissions of one session before it counts as rejected out.
pub const MAX_ATTEMPTS: u8 = 8;
/// A send more than this late counts against the generator.
const LATE_NS: u64 = 1_000_000;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Outcome {
    Pending,
    Commit,
    Abort,
    ReadHit {
        version: u64,
        value: i64,
    },
    ReadMiss,
    /// Rejected `MAX_ATTEMPTS` times.
    RejectedOut,
}

#[derive(Clone, Copy, Debug)]
pub struct Session {
    pub op: Op,
    /// When the request was due (ns after the generator's start). All
    /// latencies count from here, so a generator stall is charged to
    /// the requests it delayed.
    pub due_ns: u64,
    pub sent_ns: u64,
    pub done_ns: u64,
    pub outcome: Outcome,
    pub attempts: u8,
    /// Server-assigned id of the attempt that decided.
    pub txn: u64,
}

impl Session {
    /// The value session `index` writes: unique, so a read-back names
    /// the write it saw.
    pub fn value_of(index: usize) -> i64 {
        index as i64 + 1
    }
}

/// One framed connection to the front door.
pub struct Conn {
    stream: UnixStream,
    reader: FrameReader,
    writer: FrameWriter,
    scratch: Vec<u8>,
    poller: Poller,
    events: Vec<Event>,
}

impl Conn {
    pub fn connect(socket: &Path) -> io::Result<Conn> {
        let stream = UnixStream::connect(socket)?;
        stream.set_nonblocking(true)?;
        let mut poller = Poller::new(PollerKind::default())?;
        poller.register(stream.as_raw_fd(), Token(0), Interest::READ)?;
        Ok(Conn {
            stream,
            reader: FrameReader::new(),
            writer: FrameWriter::new(),
            scratch: Vec::with_capacity(64),
            poller,
            events: Vec::with_capacity(4),
        })
    }

    pub fn queue(&mut self, session: u64, op: Op, value: i64) {
        let req = match op {
            Op::Write1(a) => Request::Submit {
                session,
                writes: vec![(ItemId(a), value)],
            },
            Op::Write2(a, b) => Request::Submit {
                session,
                writes: vec![(ItemId(a), value), (ItemId(b), value)],
            },
            Op::Read(a) => Request::SnapRead {
                session,
                item: ItemId(a),
            },
        };
        self.scratch.clear();
        req.encode_into(&mut self.scratch);
        self.writer.push(&self.scratch);
    }

    pub fn flush(&mut self) -> io::Result<()> {
        if self.writer.queued() > 0 {
            self.writer.flush(&self.stream)?;
        }
        Ok(())
    }

    /// Sleeps until the socket is readable or `timeout_ms` passed.
    pub fn wait_readable(&mut self, timeout_ms: i32) -> io::Result<()> {
        self.poller
            .wait(&mut self.events, Some(timeout_ms))
            .map(drop)
    }

    /// Reads what the socket has and appends every complete reply to
    /// `out`. An undecodable frame or a closed socket is an error.
    pub fn poll(&mut self, out: &mut Vec<Reply>) -> io::Result<()> {
        if self.reader.fill(&self.stream)? == ReadState::Closed {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "front door closed",
            ));
        }
        while let Some(frame) = self.reader.next_frame()? {
            let reply = Reply::decode(frame)
                .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "undecodable reply"))?;
            out.push(reply);
        }
        Ok(())
    }

    /// Sends one request and spins until its reply (set-up, read-back).
    pub fn call(&mut self, session: u64, op: Op, value: i64) -> io::Result<Reply> {
        self.queue(session, op, value);
        let mut replies = Vec::new();
        let started = Instant::now();
        loop {
            self.flush()?;
            self.poll(&mut replies)?;
            if let Some(r) = replies.pop() {
                return Ok(r);
            }
            if started.elapsed().as_secs() >= 10 {
                return Err(io::Error::new(io::ErrorKind::TimedOut, "no reply in 10 s"));
            }
            std::hint::spin_loop();
        }
    }
}

/// The three stretches of one drive, in ns.
#[derive(Clone, Copy, Debug)]
pub struct Phases {
    pub warm_ns: u64,
    pub measure_ns: u64,
    pub drain_cap_ns: u64,
}

impl Phases {
    pub fn issue_end(&self) -> u64 {
        self.warm_ns + self.measure_ns
    }

    pub fn measured(&self, s: &Session) -> bool {
        s.due_ns >= self.warm_ns && s.due_ns < self.issue_end()
    }
}

pub struct RunLog {
    pub sessions: Vec<Session>,
    /// When `kill` was called, and which sessions were in flight then.
    pub kill: Option<(u64, Vec<usize>)>,
    /// Replies that did not echo a live session id.
    pub stray_replies: u64,
    /// Resident set (MiB), sampled once a second of the measured window.
    pub rss_mb: Vec<f64>,
}

/// Replays `schedule` against `conn`. `kill`, when given, runs once at
/// its instant from this thread; arrivals continue on schedule.
pub fn drive(
    conn: &mut Conn,
    spec: &Spec,
    schedule: &Schedule,
    phases: Phases,
    mut kill: Option<(u64, &dyn Fn())>,
) -> io::Result<RunLog> {
    let mut sessions: Vec<Session> = Vec::with_capacity(match spec.load {
        Load::Open { .. } => schedule.timed.len(),
        Load::Closed { .. } => 1 << 19,
    });
    let mut log_kill = None;
    let mut stray_replies = 0u64;
    let mut replies: Vec<Reply> = Vec::with_capacity(256);
    let mut outstanding = 0usize;
    let mut last_done = 0u64;
    let mut rss_mb = Vec::new();
    let mut next_rss_ns = phases.warm_ns + RSS_EVERY_NS / 2;
    let issue_end = phases.issue_end();
    let t0 = Instant::now();
    let now_ns = || t0.elapsed().as_nanos() as u64;

    loop {
        let now = now_ns();
        if let Some((at, f)) = kill {
            if now >= at {
                f();
                let in_flight = (0..sessions.len())
                    .filter(|&i| sessions[i].outcome == Outcome::Pending)
                    .collect();
                log_kill = Some((now_ns(), in_flight));
                kill = None;
            }
        }

        if now >= next_rss_ns && now < issue_end {
            rss_mb.extend(procfs::rss_mb());
            next_rss_ns += RSS_EVERY_NS;
        }

        // The next request, if one is due now: (due, op).
        let next = |issued: usize, outstanding: usize| match spec.load {
            Load::Open { .. } => schedule
                .timed
                .get(issued)
                .filter(|a| a.due_ns <= now && a.due_ns < issue_end)
                .map(|a| (a.due_ns, a.op)),
            Load::Closed { window } => (outstanding < window && now < issue_end)
                .then(|| (now, schedule.closed_op(issued as u64))),
        };
        while let Some((due_ns, op)) = next(sessions.len(), outstanding) {
            let id = sessions.len();
            conn.queue(id as u64, op, Session::value_of(id));
            sessions.push(Session {
                op,
                due_ns,
                sent_ns: now,
                done_ns: 0,
                outcome: Outcome::Pending,
                attempts: 1,
                txn: 0,
            });
            outstanding += 1;
        }
        conn.flush()?;

        if outstanding > 0 {
            // A closed loop with its window full has nothing to do until
            // a reply arrives: sleep for it. Spinning here would hold a
            // second CPU at 100 % next to the saturated worker, and the
            // capacity figure would follow whatever the host left over.
            if matches!(spec.load, Load::Closed { window } if outstanding >= window) {
                conn.wait_readable(10)?;
            }
            conn.poll(&mut replies)?;
            // Strictly increasing, so arrival order survives a batch.
            let mut at = now_ns().max(last_done + 1);
            for reply in replies.drain(..) {
                let id = match reply {
                    Reply::Decided { session, .. }
                    | Reply::Rejected { session }
                    | Reply::SnapRead { session, .. } => session as usize,
                };
                let Some(s) = sessions
                    .get_mut(id)
                    .filter(|s| s.outcome == Outcome::Pending)
                else {
                    stray_replies += 1;
                    continue;
                };
                s.outcome = match reply {
                    Reply::Decided { txn, decision, .. } => {
                        s.txn = txn.0;
                        match decision {
                            Decision::Commit => Outcome::Commit,
                            Decision::Abort => Outcome::Abort,
                        }
                    }
                    Reply::SnapRead { value, .. } => match value {
                        Some((v, x)) => Outcome::ReadHit {
                            version: v.0,
                            value: x,
                        },
                        None => Outcome::ReadMiss,
                    },
                    Reply::Rejected { .. } if s.attempts < MAX_ATTEMPTS => {
                        s.attempts += 1;
                        let op = s.op;
                        conn.queue(id as u64, op, Session::value_of(id));
                        continue;
                    }
                    Reply::Rejected { .. } => Outcome::RejectedOut,
                };
                s.done_ns = at;
                last_done = at;
                at += 1;
                outstanding -= 1;
            }
        }

        let issued_all = match spec.load {
            Load::Open { .. } => schedule
                .timed
                .get(sessions.len())
                .is_none_or(|a| a.due_ns >= issue_end),
            Load::Closed { .. } => now >= issue_end,
        };
        if issued_all && (outstanding == 0 || now >= issue_end + phases.drain_cap_ns) {
            break;
        }
        std::hint::spin_loop();
    }
    Ok(RunLog {
        sessions,
        kill: log_kill,
        stray_replies,
        rss_mb,
    })
}

/// What the measured window of one drive showed, from the client's
/// side. Latencies in µs, from due.
#[derive(Clone, Debug, Default)]
pub struct Summary {
    pub attempted: u64,
    pub committed: u64,
    pub aborted: u64,
    pub read_hits: u64,
    /// Aborted + rejected out + unresolved at the drain cap + read misses.
    pub failed: u64,
    pub unresolved: u64,
    pub slo_ok: u64,
    /// The headline figures: medians over the window's two-second
    /// slices, so a stall of the host inside one slice moves them little.
    pub sliced: Sliced,
    /// The whole window's commit latencies (the tails come from here).
    pub commit_us: Tail,
    pub read_us: Tail,
    pub abort_us: Tail,
    pub kill_resolve_ms: Option<f64>,
    pub late_us_p99: f64,
    pub late_us_max: f64,
    /// Share of sends more than 1 ms late; above 1 % the run is INVALID.
    pub late_share: f64,
    /// Commits over the whole drive (warm-up and drain included): the
    /// denominator of every per-commit count.
    pub drive_commits: u64,
}

/// Commit latency and rate per slice (by due time) of the measured
/// window, each reduced to its median over the slices.
#[derive(Clone, Debug, Default)]
pub struct Sliced {
    pub p50_us: f64,
    pub commits_per_s: f64,
    /// Each slice's own (commits/s, p50 µs, p90 µs), in due order: printed
    /// so that a stall of the host can be told from a slow program.
    pub slices: Vec<(f64, f64, f64)>,
}

/// One housekeeping period of the cluster under test (checkpoints every
/// 2000 ticks): on `mem-closed` the second with the checkpoint in it
/// commits a third less than the one without, and a median over
/// one-second slices sits between the two modes and jumps from one to
/// the other. Every slice of this length holds one of each.
const SLICE_NS: u64 = 2_000_000_000;
const RSS_EVERY_NS: u64 = 1_000_000_000;

impl Sliced {
    /// `commits`: (due, latency) in ns, due counted from the window's start.
    fn of(commits: &[(u64, u64)], window_ns: u64) -> Sliced {
        // Equal slices of at least `SLICE_NS` that fill the window.
        let slices = (window_ns / SLICE_NS).max(1) as usize;
        let slice_ns = (window_ns / slices as u64).max(1);
        let mut by_slice: Vec<Vec<u64>> = vec![Vec::new(); slices];
        for &(due, latency) in commits {
            by_slice[((due / slice_ns) as usize).min(slices - 1)].push(latency);
        }
        let (mut p50, mut rate, mut slices) = (vec![], vec![], vec![]);
        for slice in &mut by_slice {
            slice.sort_unstable();
            let per_s = slice.len() as f64 * 1e9 / slice_ns as f64;
            rate.push(per_s);
            let p = |q| percentile(slice, q).map_or(0.0, |ns| ns as f64 / 1e3);
            slices.push((per_s, p(0.5), p(0.9)));
            if !slice.is_empty() {
                p50.push(p(0.5));
            }
        }
        if p50.is_empty() {
            return Sliced::default();
        }
        Sliced {
            p50_us: median_f64(&p50),
            commits_per_s: median_f64(&rate),
            slices,
        }
    }
}

/// Percentiles of one latency population (µs).
#[derive(Clone, Debug, Default)]
pub struct Tail {
    pub n: usize,
    pub p50: f64,
    pub p90: f64,
    pub p99: f64,
    pub p999: f64,
    pub max: f64,
    /// The highest percentile with ≥ 10 samples beyond it, and its value.
    pub supported: Option<(f64, f64)>,
}

impl Tail {
    /// From latencies in ns; kept that fine so a median is never a
    /// whole number of µs that reads the same on every run.
    fn of(mut ns: Vec<u64>) -> Tail {
        ns.sort_unstable();
        let p = |q| percentile(&ns, q).unwrap_or(0) as f64 / 1e3;
        Tail {
            n: ns.len(),
            p50: p(0.5),
            p90: p(0.9),
            p99: p(0.99),
            p999: p(0.999),
            max: p(1.0),
            supported: highest_supported(ns.len()).map(|q| (q, p(q))),
        }
    }
}

pub fn summarize(spec: &Spec, log: &RunLog, phases: Phases) -> Summary {
    let mut s = Summary::default();
    let (mut commit, mut read, mut abort, mut late) = (vec![], vec![], vec![], vec![]);
    let mut commit_by_due = Vec::new();
    for sess in &log.sessions {
        if sess.outcome == Outcome::Commit {
            s.drive_commits += 1;
        }
        if !phases.measured(sess) {
            continue;
        }
        s.attempted += 1;
        late.push(sess.sent_ns - sess.due_ns);
        let ns = sess.done_ns.saturating_sub(sess.due_ns);
        let ok = match sess.outcome {
            Outcome::Commit => {
                s.committed += 1;
                commit.push(ns);
                commit_by_due.push((sess.due_ns - phases.warm_ns, ns));
                true
            }
            Outcome::ReadHit { .. } => {
                s.read_hits += 1;
                read.push(ns);
                true
            }
            Outcome::Abort => {
                s.aborted += 1;
                abort.push(ns);
                false
            }
            Outcome::Pending => {
                s.unresolved += 1;
                false
            }
            Outcome::ReadMiss | Outcome::RejectedOut => false,
        };
        if !ok {
            s.failed += 1;
        } else if ns <= spec.slo_us * 1_000 {
            s.slo_ok += 1;
        }
    }
    s.late_share =
        late.iter().filter(|&&ns| ns > LATE_NS).count() as f64 / late.len().max(1) as f64;
    let late = Tail::of(late);
    s.late_us_p99 = late.p99;
    s.late_us_max = late.max;
    s.sliced = Sliced::of(&commit_by_due, phases.measure_ns);
    s.commit_us = Tail::of(commit);
    s.read_us = Tail::of(read);
    s.abort_us = Tail::of(abort);
    s.kill_resolve_ms = log.kill.as_ref().map(|(at, in_flight)| {
        let last = in_flight
            .iter()
            .map(|&i| match log.sessions[i].outcome {
                // Never answered: charged the whole drain.
                Outcome::Pending => phases.issue_end() + phases.drain_cap_ns,
                _ => log.sessions[i].done_ns,
            })
            .max()
            .unwrap_or(*at);
        last.saturating_sub(*at) as f64 / 1e6
    });
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload;

    const MS: u64 = 1_000_000;
    const PHASES: Phases = Phases {
        warm_ns: 10 * MS,
        measure_ns: 100 * MS,
        drain_cap_ns: 50 * MS,
    };

    fn sess(due_ms: u64, sent_ms: u64, done_ms: u64, outcome: Outcome) -> Session {
        Session {
            op: Op::Write1(0),
            due_ns: due_ms * MS,
            sent_ns: sent_ms * MS,
            done_ns: done_ms * MS,
            outcome,
            attempts: 1,
            txn: 0,
        }
    }

    #[test]
    fn a_late_generator_is_charged_to_the_request_not_hidden() {
        let spec = workload::by_name("durable-open").unwrap();
        let log = RunLog {
            // Due at 20 ms, the generator stalled until 27 ms, the
            // server answered 1 ms later: the user waited 8 ms.
            sessions: vec![
                sess(20, 27, 28, Outcome::Commit),
                sess(30, 30, 31, Outcome::Commit),
                sess(40, 40, 41, Outcome::Commit),
            ],
            kill: None,
            stray_replies: 0,
            rss_mb: vec![],
        };
        let s = summarize(&spec, &log, PHASES);
        assert_eq!(s.commit_us.max, 8_000.0);
        assert_eq!(s.commit_us.p50, 1_000.0);
        assert_eq!(s.late_us_max, 7_000.0);
        assert!((s.late_share - 1.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn the_window_is_chosen_by_due_time_and_failures_miss_the_limit() {
        let spec = workload::by_name("mem-open").unwrap();
        let log = RunLog {
            sessions: vec![
                sess(5, 5, 6, Outcome::Commit),       // warm-up: not measured
                sess(109, 109, 140, Outcome::Commit), // due inside, done in drain: measured
                sess(50, 50, 50, Outcome::Abort),
                sess(60, 60, 0, Outcome::Pending),
                sess(70, 70, 70, Outcome::RejectedOut),
                sess(111, 111, 112, Outcome::Commit), // due after the window
            ],
            kill: Some((55 * MS, vec![3])),
            stray_replies: 0,
            rss_mb: vec![],
        };
        let s = summarize(&spec, &log, PHASES);
        assert_eq!((s.attempted, s.committed, s.aborted), (4, 1, 1));
        assert_eq!((s.failed, s.unresolved), (3, 1));
        // The one commit took 31 ms against a 1 ms limit.
        assert_eq!(s.slo_ok, 0);
        assert_eq!(s.drive_commits, 3);
        // Unanswered at the cap: charged to the end of the drain.
        assert_eq!(s.kill_resolve_ms, Some(105.0));
    }
}
