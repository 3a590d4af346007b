//! One pass of one workload: set the cluster up, drive it, shut it
//! down, and check that what it said is what it did.

use crate::load::{drive, summarize, Conn, Outcome, Phases, RunLog, Session, Summary};
use crate::procfs::{self, ThreadUsage};
use crate::schedule::{Op, Schedule};
use crate::stats::median_f64;
use crate::workload::{self, Spec, Switches, Wal, SITES_PER_SHARD};
use qbc_cluster::{ClusterConfig, ReactorCluster, ReactorReport, ShardId};
use qbc_core::Decision;
use qbc_reactor::Reply;
use qbc_storage::TempDir;
use std::collections::{HashMap, HashSet};
use std::io::{self, Write as _};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// Acknowledged commits read back per run.
const SAMPLE: usize = 512;
const MIN_SAMPLE: usize = 256;
/// Session ids the set-up and read-back calls use: far from the
/// generator's, which count from zero.
const CONTROL_SESSION: u64 = u64::MAX;

pub struct Live {
    pub cluster: ReactorCluster,
    pub conn: Conn,
}

/// Shard 0's last slot: what set-up commits to, and (with its shard-1
/// twin) what the read-back writes to push the watermark forward.
fn sentinels(spec: &Spec) -> [u32; 2] {
    [spec.items_per_shard - 1, 2 * spec.items_per_shard - 1]
}

fn other(e: impl std::fmt::Display) -> io::Error {
    io::Error::other(e.to_string())
}

/// Spawn, connect, first commit: everything a user waits for before
/// the first transaction is acknowledged. Returns the seconds it took.
pub fn setup(spec: &Spec, cfg: ClusterConfig) -> io::Result<(Live, f64)> {
    let started = Instant::now();
    let cluster = ReactorCluster::spawn(cfg, workload::reactor());
    pin_apart();
    let mut conn = Conn::connect(cluster.socket())?;
    match conn.call(CONTROL_SESSION, Op::Write1(sentinels(spec)[0]), 0)? {
        Reply::Decided {
            decision: Decision::Commit,
            ..
        } => Ok((Live { cluster, conn }, started.elapsed().as_secs_f64())),
        other_reply => Err(other(format!("set-up commit answered {other_reply:?}"))),
    }
}

/// Gives the reactor worker and the generator (the calling thread) a
/// CPU each. Left to itself the scheduler's wake-affinity keeps pulling
/// the worker onto the CPU whose generator just wrote to its socket,
/// and whole runs land in a mode where one of the two waits out the
/// other's time slice: p90 moves tenfold between identical runs.
/// The worker's CPU is also kept from halting ([`procfs::keep_awake`]):
/// interleaved runs with and without gave `commits_per_s` on
/// `mem-closed` a range of 3 % against 24 %, and the 90th percentile of
/// commit latency on `mem-open` 9 % against 62 %.
fn pin_apart() {
    // Counted once: `available_parallelism` reads the calling thread's
    // own affinity mask, which is one CPU after the first pinning.
    static CPUS: OnceLock<usize> = OnceLock::new();
    let cpus = *CPUS.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()));
    if cpus >= 2 {
        // The worker names itself once it runs; give it a moment.
        let started = Instant::now();
        let worker = loop {
            match procfs::thread_named("qbc-reactor-0") {
                None if started.elapsed() < Duration::from_millis(100) => std::thread::yield_now(),
                found => break found,
            }
        };
        let pinned =
            worker.is_some_and(|tid| procfs::pin_thread(tid, 0)) && procfs::pin_thread(0, cpus - 1);
        if !pinned {
            println!("note: could not pin the worker and the generator to a CPU each");
        } else if !procfs::keep_awake(0) {
            println!("note: could not keep the worker's CPU from halting");
        }
    }
}

/// The WAL root of a durable workload, inside the checkout (`TMPDIR`
/// points there).
pub fn wal_dir(spec: &Spec) -> Option<TempDir> {
    (spec.wal == Wal::Durable).then(|| TempDir::new("wal"))
}

/// 200 raw 4 KiB append + `sync_data` on the WAL's directory: the
/// device's own force time right now, to tell disk noise from a change.
pub fn fsync_calibration_us(dir: &std::path::Path) -> io::Result<f64> {
    let path = dir.join("fsync-calibration");
    let mut file = std::fs::File::create(&path)?;
    let block = [0xA5u8; 4096];
    let mut us = Vec::with_capacity(200);
    for _ in 0..200 {
        let t = Instant::now();
        file.write_all(&block)?;
        file.sync_data()?;
        us.push(t.elapsed().as_nanos() as u64);
    }
    drop(file);
    std::fs::remove_file(&path)?;
    us.sort_unstable();
    Ok(us[us.len() / 2] as f64 / 1e3)
}

pub struct Pass {
    pub summary: Summary,
    pub setup_s: f64,
    pub report: ReactorReport,
    /// The reactor worker's thread over the whole drive.
    pub worker: ThreadUsage,
    pub storage_bytes: u64,
    /// Median of the once-a-second resident-set samples, and the peak
    /// at the end of the drive (before the read-back and the reopened
    /// cluster, whose recovery is not the workload's memory), MiB.
    pub rss_mb: f64,
    pub rss_peak_mb: f64,
    pub fsync_us_p50: Option<f64>,
    /// Every way the run contradicted itself; empty means correct.
    pub gate_failures: Vec<String>,
    pub read_back: usize,
}

impl Pass {
    /// Commits the cluster's own counters cover: they run from spawn,
    /// so set-up's one commit is in them.
    pub fn counted_commits(&self) -> f64 {
        (self.summary.drive_commits + 1) as f64
    }

    pub fn forces_per_commit(&self) -> f64 {
        let forces: u64 = self
            .report
            .metrics
            .shards
            .iter()
            .map(|m| m.wal_forces)
            .sum();
        forces as f64 / self.counted_commits()
    }

    pub fn cpu_us_per_commit(&self) -> f64 {
        self.worker.cpu_ns as f64 / 1e3 / self.counted_commits()
    }
}

pub fn run(
    spec: &Spec,
    seed: u64,
    schedule: &Schedule,
    phases: Phases,
    on: Switches,
) -> io::Result<Pass> {
    let wal = wal_dir(spec);
    let fsync_us_p50 = wal
        .as_ref()
        .map(|d| fsync_calibration_us(d.path()))
        .transpose()?;
    let wal_path = wal.as_ref().map(|d| d.path());
    let (mut live, setup_s) = setup(spec, spec.cluster(seed, wal_path, on))?;

    let worker_tid =
        procfs::thread_named("qbc-reactor-0").ok_or_else(|| other("no worker thread"))?;
    let usage = || procfs::thread_usage(worker_tid).ok_or_else(|| other("thread usage unreadable"));
    let (usage0, io0) = (usage()?, procfs::storage_bytes_written().unwrap_or(0));

    let cluster = &live.cluster;
    let victim = cluster.map().coordinator(ShardId(0), 0);
    let kill_fn = move || cluster.kill_site(victim);
    let kill = spec.kill_at.map(|share| {
        let at = phases.warm_ns + (phases.measure_ns as f64 * share) as u64;
        (at, &kill_fn as &dyn Fn())
    });
    let log = drive(&mut live.conn, spec, schedule, phases, kill)?;

    let worker = usage()?.since(usage0);
    let storage_bytes = procfs::storage_bytes_written()
        .unwrap_or(0)
        .saturating_sub(io0);
    let rss_peak_mb = procfs::peak_rss_mb().unwrap_or(0.0);
    let rss_mb = if log.rss_mb.is_empty() {
        rss_peak_mb
    } else {
        median_f64(&log.rss_mb)
    };
    let summary = summarize(spec, &log, phases);

    let mut gate_failures = Vec::new();
    let mut read_back = 0;
    if log.stray_replies > 0 {
        gate_failures.push(format!(
            "{} replies echoed no live session",
            log.stray_replies
        ));
    }
    let expected = expected_values(spec, &log);
    if spec.snapshot_reads() {
        check_reads_saw_written_values(&log, &mut gate_failures);
        read_back = read_back_values(spec, &mut live.conn, &expected, &mut gate_failures)?;
    }

    let Live { cluster, conn } = live;
    drop(conn);
    let report = cluster.shutdown();
    if let Some(v) = report.atomicity_violations.first() {
        gate_failures.push(format!(
            "{} atomicity violations, first {v:?}",
            report.atomicity_violations.len()
        ));
    }
    check_decisions(&log, &report, &mut gate_failures);

    // Acknowledged ⇒ durable across restart. Not on coord-kill: its
    // victim is left dead, and a reopen would resurrect it.
    if spec.wal == Wal::Durable && spec.kill_at.is_none() {
        // Snapshot reads are the front door's only read request, so the
        // reopened cluster turns them on to be read from.
        let reopen = Switches {
            observed: false,
            ..on
        };
        let cfg = spec.cluster(seed, wal_path, reopen).with_snapshot_reads(4);
        let (mut reopened, _) = setup(spec, cfg)
            .map_err(|e| other(format!("reopen on the same wal_dir failed: {e}")))?;
        read_back = read_back_values(spec, &mut reopened.conn, &expected, &mut gate_failures)?;
        let again = reopened.cluster.shutdown();
        if !again.atomicity_violations.is_empty() {
            gate_failures.push("atomicity violations after reopen".into());
        }
    }

    Ok(Pass {
        summary,
        setup_s,
        report,
        worker,
        storage_bytes,
        rss_mb,
        rss_peak_mb,
        fsync_us_p50,
        gate_failures,
        read_back,
    })
}

/// Item → value of its last acknowledged committed write, over items
/// whose history is unambiguous. Replies are stamped in arrival order
/// and conflicting transactions serialize on the item's lock, so the
/// latest acknowledged commit is the last write. The sentinels are left
/// out: set-up and the read-back itself write to them.
fn expected_values(spec: &Spec, log: &RunLog) -> Vec<(u32, i64)> {
    let mut last: HashMap<u32, (u64, i64)> = HashMap::new();
    let mut tainted: HashSet<u32> = sentinels(spec).into_iter().collect();
    for (id, s) in log.sessions.iter().enumerate() {
        match s.outcome {
            Outcome::Commit => {
                for item in s.op.write_items() {
                    let e = last.entry(item).or_insert((0, 0));
                    if s.done_ns >= e.0 {
                        *e = (s.done_ns, Session::value_of(id));
                    }
                }
            }
            // Outcome unknown to the client: an unanswered attempt, or a
            // timed-out one that may still have decided after its retry.
            Outcome::Pending | Outcome::RejectedOut => tainted.extend(s.op.write_items()),
            Outcome::Abort if s.attempts > 1 => tainted.extend(s.op.write_items()),
            _ => {}
        }
    }
    let mut v: Vec<(u32, i64)> = last
        .into_iter()
        .filter(|(item, _)| !tainted.contains(item))
        .map(|(item, (_, value))| (item, value))
        .collect();
    v.sort_unstable();
    v
}

/// Reads an evenly spaced sample of `expected` back through `SnapRead`
/// and returns how many items it checked.
fn read_back_values(
    spec: &Spec,
    conn: &mut Conn,
    expected: &[(u32, i64)],
    failures: &mut Vec<String>,
) -> io::Result<usize> {
    if expected.len() < MIN_SAMPLE {
        failures.push(format!("only {} items to read back", expected.len()));
        return Ok(0);
    }
    let step = (expected.len() / SAMPLE).max(1);
    let sample: Vec<(u32, i64)> = expected
        .iter()
        .copied()
        .step_by(step)
        .take(SAMPLE)
        .collect();
    let mut wrong = Vec::new();
    // The commit-stable watermark rides on protocol messages, so after
    // the last write it trails until more traffic flows: push it with
    // sentinel writes and retry for up to five seconds. Three writes a
    // shard, because coordinators rotate over the shard's three sites
    // (reads advance the same rotation) and a site learns its peers'
    // watermarks only from a coordinator's messages: one write a round
    // can land on the same coordinator every round.
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        for _ in 0..SITES_PER_SHARD {
            for item in sentinels(spec) {
                conn.call(CONTROL_SESSION, Op::Write1(item), 0)?;
            }
        }
        wrong.clear();
        for &(item, want) in &sample {
            match conn.call(CONTROL_SESSION, Op::Read(item), 0)? {
                Reply::SnapRead {
                    value: Some((_, got)),
                    ..
                } if got == want => {}
                got => wrong.push(format!("item {item}: want {want}, got {got:?}")),
            }
        }
        if wrong.is_empty() || Instant::now() >= deadline {
            break;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    if let Some(first) = wrong.first() {
        failures.push(format!(
            "{} of {} read-backs wrong, first: {first}",
            wrong.len(),
            sample.len()
        ));
    }
    Ok(sample.len())
}

/// Every `SnapRead` hit during the drive returned the initial value or
/// a value some session had by then submitted for that item.
fn check_reads_saw_written_values(log: &RunLog, failures: &mut Vec<String>) {
    let mut bad = 0;
    for s in &log.sessions {
        let (Op::Read(item), Outcome::ReadHit { value, .. }) = (s.op, s.outcome) else {
            continue;
        };
        let writer = usize::try_from(value - 1)
            .ok()
            .and_then(|id| log.sessions.get(id));
        let plausible = value == 0
            || writer.is_some_and(|w| w.op == Op::Write1(item) && w.sent_ns <= s.done_ns);
        bad += !plausible as u64;
    }
    if bad > 0 {
        failures.push(format!(
            "{bad} snapshot reads returned a value nobody wrote there"
        ));
    }
}

/// Node state at shutdown agrees with what the client was told: every
/// acknowledged decision still known to the nodes (retirement ages the
/// oldest out) matches, on at least `MIN_SAMPLE` transactions.
fn check_decisions(log: &RunLog, report: &ReactorReport, failures: &mut Vec<String>) {
    let (mut checked, mut wrong) = (0usize, 0usize);
    for s in log.sessions.iter().rev() {
        let told = match s.outcome {
            Outcome::Commit => Decision::Commit,
            Outcome::Abort => Decision::Abort,
            _ => continue,
        };
        let Ok(at) = report
            .decisions
            .binary_search_by_key(&s.txn, |(h, _)| h.txn.0)
        else {
            wrong += 1;
            continue;
        };
        if let Some(node_says) = report.decisions[at].1 {
            checked += 1;
            wrong += (node_says != told) as usize;
        }
        if checked >= 4 * SAMPLE {
            break;
        }
    }
    if wrong > 0 {
        failures.push(format!(
            "{wrong} acknowledged decisions differ from node state"
        ));
    }
    if checked < MIN_SAMPLE {
        failures.push(format!(
            "only {checked} acknowledged decisions found in node state"
        ));
    }
}
