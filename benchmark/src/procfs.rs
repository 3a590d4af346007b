//! Process and thread accounting read from `/proc` (no libc in the
//! offline build, so no `getrusage`).

use std::fs;

/// Cumulative counters of one thread.
#[derive(Clone, Copy, Debug, Default)]
pub struct ThreadUsage {
    /// On-CPU time in ns (`schedstat`, exact).
    pub cpu_ns: u64,
    /// User / system time in clock ticks of 10 ms (`stat`).
    pub user_ticks: u64,
    pub sys_ticks: u64,
    pub ctx_switches: u64,
}

impl ThreadUsage {
    pub fn since(self, earlier: ThreadUsage) -> ThreadUsage {
        ThreadUsage {
            cpu_ns: self.cpu_ns - earlier.cpu_ns,
            user_ticks: self.user_ticks - earlier.user_ticks,
            sys_ticks: self.sys_ticks - earlier.sys_ticks,
            ctx_switches: self.ctx_switches - earlier.ctx_switches,
        }
    }

    /// `cpu_ns` split by the user:system tick ratio, in ns.
    pub fn user_sys_ns(self) -> (f64, f64) {
        let ticks = (self.user_ticks + self.sys_ticks).max(1) as f64;
        let cpu = self.cpu_ns as f64;
        (
            cpu * self.user_ticks as f64 / ticks,
            cpu * self.sys_ticks as f64 / ticks,
        )
    }
}

/// The live thread of this process named `name` (the reactor names its
/// workers `qbc-reactor-<n>`).
pub fn thread_named(name: &str) -> Option<u32> {
    fs::read_dir("/proc/self/task")
        .ok()?
        .flatten()
        .find_map(|e| {
            let comm = fs::read_to_string(e.path().join("comm")).ok()?;
            (comm.trim_end() == name).then(|| e.file_name().to_str()?.parse().ok())?
        })
}

pub fn thread_usage(tid: u32) -> Option<ThreadUsage> {
    let base = format!("/proc/self/task/{tid}");
    let sched = fs::read_to_string(format!("{base}/schedstat")).ok()?;
    let stat = fs::read_to_string(format!("{base}/stat")).ok()?;
    // Fields after the parenthesised command name; utime and stime are
    // the 14th and 15th of the whole line.
    let after = stat.rsplit_once(')')?.1;
    let mut fields = after.split_whitespace().skip(11);
    let status = fs::read_to_string(format!("{base}/status")).ok()?;
    let ctx = status
        .lines()
        .filter(|l| l.contains("ctxt_switches"))
        .filter_map(|l| l.split_whitespace().last()?.parse::<u64>().ok())
        .sum();
    Some(ThreadUsage {
        cpu_ns: sched.split_whitespace().next()?.parse().ok()?,
        user_ticks: fields.next()?.parse().ok()?,
        sys_ticks: fields.next()?.parse().ok()?,
        ctx_switches: ctx,
    })
}

extern "C" {
    /// `sched_setaffinity(2)` and `sched_setscheduler(2)` from the C
    /// library `std` already links (the offline build has no `libc`
    /// crate to declare them).
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    fn sched_setscheduler(pid: i32, policy: i32, param: *const i32) -> i32;
}

/// Pins thread `tid` (0 = the caller) to one CPU. Returns whether the
/// kernel accepted it.
pub fn pin_thread(tid: u32, cpu: usize) -> bool {
    let mut mask = [0u64; 16];
    mask[cpu / 64 % 16] = 1 << (cpu % 64);
    // SAFETY: the call reads `size_of_val(&mask)` bytes from `mask`,
    // which lives across it, and writes no memory of ours.
    unsafe { sched_setaffinity(tid as i32, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
}

/// Keeps `cpu` from halting for the rest of the process: a thread of
/// the idle scheduling class spins there, runs only when nothing else
/// wants the CPU and gives way at once. Returns whether it started
/// (once per process; later calls are no-ops).
///
/// A halted vCPU is woken by the host, in a few µs or in 60 depending
/// on how long the host's adaptive halt-polling window happens to be,
/// and whole runs land in one regime or the other.
pub fn keep_awake(cpu: usize) -> bool {
    const SCHED_IDLE: i32 = 5;
    static STARTED: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
    *STARTED.get_or_init(|| {
        let (tx, rx) = std::sync::mpsc::channel();
        let spawned = std::thread::Builder::new()
            .name("qbench-awake".into())
            .spawn(move || {
                let priority = 0i32;
                // SAFETY: the call reads one `sched_param` (a single int)
                // from `priority`, which lives across it.
                let idle = pin_thread(0, cpu)
                    && unsafe { sched_setscheduler(0, SCHED_IDLE, &priority) == 0 };
                let _ = tx.send(idle);
                // At normal priority it would compete with the worker.
                if idle {
                    loop {
                        std::hint::spin_loop();
                    }
                }
            });
        spawned.is_ok() && rx.recv().unwrap_or(false)
    })
}

/// Peak resident set of this process, MiB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Resident set of this process right now, MiB (`statm`, one short
/// line: cheap enough to read from the generator's loop once a second).
pub fn rss_mb() -> Option<f64> {
    let statm = fs::read_to_string("/proc/self/statm").ok()?;
    let pages: f64 = statm.split_whitespace().nth(1)?.parse().ok()?;
    Some(pages * 4096.0 / (1 << 20) as f64)
}

/// Bytes this process caused to be written to the storage layer
/// (`write_bytes`: file pages dirtied; sockets do not count).
pub fn storage_bytes_written() -> Option<u64> {
    fs::read_to_string("/proc/self/io")
        .ok()?
        .lines()
        .find(|l| l.starts_with("write_bytes:"))?
        .split_whitespace()
        .nth(1)?
        .parse()
        .ok()
}

/// `nproc`, kernel release and the filesystem type under `path`, for
/// the result file's machine description.
pub fn machine(path: &str) -> (usize, String, String) {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let kernel = fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_default();
    // Longest mount point that prefixes the canonical path.
    let canon = fs::canonicalize(path).unwrap_or_default();
    let fstype = fs::read_to_string("/proc/self/mounts")
        .unwrap_or_default()
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_, mount, fstype) = (f.next()?, f.next()?, f.next()?);
            canon
                .starts_with(mount)
                .then(|| (mount.len(), fstype.to_string()))
        })
        .max()
        .map(|(_, t)| t)
        .unwrap_or_default();
    (nproc, kernel, fstype)
}
