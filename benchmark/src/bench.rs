//! `qbench bench`: one workload, one process — the command the driver
//! runs. `--trace 0` measures the end-to-end metrics with nothing
//! switched on inside the program; `--trace 1` produces the per-layer
//! metrics. The last line of standard output is the result object.

use crate::json::Json;
use crate::layers;
use crate::load::Phases;
use crate::pass::{self, Pass};
use crate::schedule::Schedule;
use crate::spans::Recorder;
use crate::stats::median_f64;
use crate::workload::{self, Load, Spec, Switches};
use std::io;
use std::path::{Path, PathBuf};

/// Where everything the benchmark writes goes: inside the checkout.
pub const OUT_DIR: &str = "benchmark/out";
const WARM_NS: u64 = 2_000_000_000;
const DRAIN_CAP_NS: u64 = 5_000_000_000;
/// Extra set-ups timed before the real one; `setup_s` is the median.
const SETUP_PROBES: usize = 12;

/// A named value with its unit, in print order.
pub type Metric = (String, f64, &'static str);

pub fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    (name.to_string(), value, unit)
}

struct Args {
    spec: Spec,
    seed: u64,
    seconds: u64,
    trace: bool,
    /// Also write every metric this run computed (not just the
    /// contract's subset) here: what `qbench run`/`trace` collect.
    full_json: Option<PathBuf>,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut spec = None;
    let (mut seed, mut seconds, mut trace, mut full_json) = (11, 8, false, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: bad number {value:?}"))
        };
        match flag.as_str() {
            "--workload" => {
                spec = Some(workload::by_name(value).ok_or_else(|| {
                    let names: Vec<_> = workload::all().iter().map(|s| s.name).collect();
                    format!("unknown workload {value:?}; one of {names:?}")
                })?)
            }
            "--seed" => seed = num()?,
            "--seconds" => seconds = num()?.clamp(1, 60),
            "--trace" => trace = num()? != 0,
            "--full-json" => full_json = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        spec: spec.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        full_json,
    })
}

/// Points `TMPDIR` into the checkout: the cluster puts its socket and
/// the WAL directories under `std::env::temp_dir()`. Relative on
/// purpose — a Unix socket path holds at most 108 bytes.
pub fn enter_out_dir() -> io::Result<()> {
    if !Path::new("benchmark/Cargo.toml").is_file() {
        return Err(io::Error::other("run qbench from the repository root"));
    }
    let tmp = Path::new(OUT_DIR).join("tmp");
    std::fs::create_dir_all(&tmp)?;
    std::env::set_var("TMPDIR", &tmp);
    Ok(())
}

pub fn main(args: &[String]) -> i32 {
    let args = match parse(args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("qbench bench: {e}");
            return 2;
        }
    };
    match run(&args) {
        Ok(correct) => !correct as i32,
        Err(e) => {
            eprintln!("qbench bench: {e}");
            1
        }
    }
}

fn run(args: &Args) -> io::Result<bool> {
    enter_out_dir()?;
    let listed = listed_metrics(if args.trace {
        "per_layer"
    } else {
        "end_to_end"
    })?;
    let spec = &args.spec;
    let phases = Phases {
        warm_ns: WARM_NS,
        measure_ns: args.seconds * 1_000_000_000,
        drain_cap_ns: DRAIN_CAP_NS,
    };
    let schedule = Schedule::generate(spec, args.seed, phases.issue_end());
    println!(
        "workload {} seed {} seconds {} trace {} schedule_hash {:016x}",
        spec.name,
        args.seed,
        args.seconds,
        args.trace as u8,
        schedule.hash()
    );

    let (metrics, passes) = if args.trace {
        traced(args, &schedule, phases)?
    } else {
        untraced(args, &schedule, phases)?
    };

    let mut correct = true;
    for pass in &passes {
        for failure in &pass.gate_failures {
            correct = false;
            println!("GATE FAILED: {failure}");
        }
    }
    let first = &passes[0].summary;
    let valid = first.late_share <= 0.01;
    if !valid {
        println!(
            "INVALID: {:.2} % of sends were more than 1 ms late",
            first.late_share * 100.0
        );
    }
    println!(
        "attempted {} committed {} aborted {} read_hits {} unresolved {} read_back {} (commit samples {})",
        first.attempted,
        first.committed,
        first.aborted,
        first.read_hits,
        first.unresolved,
        passes.iter().map(|p| p.read_back).max().unwrap_or(0),
        first.commit_us.n,
    );
    for (i, (commits, p50, p90)) in first.sliced.slices.iter().enumerate() {
        println!("slice {i}: {commits} commits/s, p50 {p50:.1} us, p90 {p90:.1} us");
    }
    for (name, value, unit) in &metrics {
        println!("{name:<40} {value:>16.4} {unit}");
    }

    let contract: Vec<Metric> = listed
        .iter()
        .map(|name| {
            metrics
                .iter()
                .find(|(n, ..)| n == name)
                .cloned()
                .ok_or_else(|| {
                    io::Error::other(format!("BENCHMARK.json lists {name}, not measured"))
                })
        })
        .collect::<io::Result<_>>()?;

    // Aborts are answers (the database refused a conflicting or
    // unavailable write) and are priced by `ok_ratio`; `failed` counts
    // requests that never got a definitive answer.
    let unanswered = first.failed - first.aborted;
    let result = |metrics: &[Metric]| {
        Json::obj([
            ("correct", Json::Bool(correct)),
            ("attempted", Json::Num(first.attempted.max(1) as f64)),
            ("failed", Json::Num(unanswered as f64)),
            ("metrics", metrics_json(metrics)),
        ])
    };
    if let Some(path) = &args.full_json {
        let full = Json::obj([
            (
                "schedule_hash",
                Json::str(format!("{:016x}", schedule.hash())),
            ),
            ("valid", Json::Bool(valid)),
            // Everything measured, not just the contract's subset.
            ("result", result(&metrics)),
        ]);
        std::fs::write(path, full.to_pretty())?;
    }
    println!("{}", result(&contract).to_line());
    Ok(correct)
}

/// The metric names `BENCHMARK.json` promises for one mode: the result
/// line carries exactly these, so the two cannot drift apart.
fn listed_metrics(key: &str) -> io::Result<Vec<String>> {
    let doc = Json::parse(&std::fs::read_to_string("BENCHMARK.json")?).map_err(io::Error::other)?;
    let names = doc
        .get(key)
        .and_then(Json::as_arr)
        .ok_or_else(|| io::Error::other(format!("BENCHMARK.json has no {key} list")))?
        .iter()
        .filter_map(|m| m.get("name").and_then(Json::as_str).map(str::to_string))
        .collect();
    Ok(names)
}

pub fn metrics_json(metrics: &[Metric]) -> Json {
    Json::obj(metrics.iter().map(|(name, value, unit)| {
        (
            name.clone(),
            Json::obj([("value", Json::Num(*value)), ("unit", Json::str(*unit))]),
        )
    }))
}

/// The `--trace 0` run: set-up timed several times, then one full pass
/// with nothing switched on inside the program.
fn untraced(
    args: &Args,
    schedule: &Schedule,
    phases: Phases,
) -> io::Result<(Vec<Metric>, Vec<Pass>)> {
    let spec = &args.spec;
    let mut setups = Vec::with_capacity(SETUP_PROBES + 1);
    for _ in 0..SETUP_PROBES {
        let wal = pass::wal_dir(spec);
        let cfg = spec.cluster(
            args.seed,
            wal.as_ref().map(|d| d.path()),
            Switches::default(),
        );
        let (live, secs) = pass::setup(spec, cfg)?;
        setups.push(secs);
        drop(live.conn);
        live.cluster.shutdown();
    }
    let pass = pass::run(spec, args.seed, schedule, phases, Switches::default())?;
    setups.push(pass.setup_s);
    let ms: Vec<String> = setups.iter().map(|s| format!("{:.1}", s * 1e3)).collect();
    println!("set-ups, ms: {}", ms.join(" "));

    let s = &pass.summary;
    let attempted = s.attempted.max(1) as f64;
    let mut m = vec![
        metric("setup_s", median_f64(&setups), "s"),
        metric("commit_p50_us", s.sliced.p50_us, "us"),
        metric("commits_per_s", s.sliced.commits_per_s, "1/s"),
        metric("forces_per_commit", pass.forces_per_commit(), "count"),
        metric("ok_ratio", 1.0 - s.failed as f64 / attempted, "ratio"),
        metric("slo_ok_ratio", s.slo_ok as f64 / attempted, "ratio"),
        metric("rss_mb", pass.rss_mb, "MiB"),
    ];
    if args.full_json.is_some() {
        // The suite's result files carry the outside counts too.
        m.extend(outside_counts(&pass));
    }
    Ok((m, vec![pass]))
}

/// The `--trace 1` run: the window is split in two halves, the first
/// with the observer off (the reference, and everything countable from
/// outside), the second with it on (what only the observer sees); then
/// the layer drives.
fn traced(
    args: &Args,
    schedule: &Schedule,
    phases: Phases,
) -> io::Result<(Vec<Metric>, Vec<Pass>)> {
    let spec = &args.spec;
    let half = Phases {
        measure_ns: phases.measure_ns / 2,
        ..phases
    };
    // Both halves run the durable workloads as specified, `fdatasync`
    // on: every per-layer number has the real device in it.
    let mut on = Switches {
        fdatasync: true,
        observed: false,
    };
    let mut rec = Recorder::new();
    let base = rec.span("pass.untraced", |_| {
        pass::run(spec, args.seed, schedule, half, on)
    })?;
    on.observed = true;
    let obs = rec.span("pass.traced", |_| {
        pass::run(spec, args.seed, schedule, half, on)
    })?;

    let mut m = outside_counts(&base);
    m.extend(observer_counts(&obs));
    let (b, o) = (&base.summary, &obs.summary);
    // > 1 means tracing made it worse: slower medians on open loops,
    // fewer commits per second on closed ones.
    let overhead = match spec.load {
        Load::Open { .. } => o.sliced.p50_us / b.sliced.p50_us.max(1e-9),
        Load::Closed { .. } => b.sliced.commits_per_s / o.sliced.commits_per_s.max(1e-9),
    };
    m.push(metric("obs.overhead_ratio", overhead, "ratio"));

    m.extend(rec.span("layer_drives", |rec| {
        layers::drive_all(
            rec,
            args.seed,
            base.cpu_us_per_commit(),
            base.forces_per_commit(),
        )
    })?);

    std::fs::write(
        Path::new(OUT_DIR).join("trace.json"),
        Json::obj([
            ("workload", Json::str(spec.name)),
            ("seed", Json::Num(args.seed as f64)),
            ("spans", rec.to_json()),
        ])
        .to_pretty(),
    )?;
    Ok((m, vec![base, obs]))
}

/// Per-layer numbers that need nothing switched on inside the program:
/// the client's own records, the report's counters, `/proc`.
fn outside_counts(pass: &Pass) -> Vec<Metric> {
    let s = &pass.summary;
    let attempted = s.attempted.max(1) as f64;
    let commits = pass.counted_commits();
    let forces = pass.forces_per_commit();
    let records: u64 = pass
        .report
        .metrics
        .shards
        .iter()
        .map(|m| m.wal_records)
        .sum();
    let server = &pass.report.server;
    let (user_ns, sys_ns) = pass.worker.user_sys_ns();
    let (tail_pct, tail_us) = s.commit_us.supported.unwrap_or((0.0, 0.0));
    vec![
        metric("client.commit_whole_p50_us", s.commit_us.p50, "us"),
        metric("client.commit_whole_p90_us", s.commit_us.p90, "us"),
        metric("client.commit_p99_us", s.commit_us.p99, "us"),
        metric("client.commit_p999_us", s.commit_us.p999, "us"),
        metric("client.commit_max_us", s.commit_us.max, "us"),
        metric("client.commit_tail_pct", tail_pct * 100.0, "%"),
        metric("client.commit_tail_us", tail_us, "us"),
        metric("client.commit_samples", s.commit_us.n as f64, "count"),
        metric("client.commits_per_s", s.sliced.commits_per_s, "1/s"),
        metric("client.read_p50_us", s.read_us.p50, "us"),
        metric("client.read_p90_us", s.read_us.p90, "us"),
        metric(
            "client.abort_p50_us",
            if s.abort_us.n >= 100 {
                s.abort_us.p50
            } else {
                0.0
            },
            "us",
        ),
        metric(
            "client.kill_resolve_ms",
            s.kill_resolve_ms.unwrap_or(0.0),
            "ms",
        ),
        metric("client.fail_ratio", s.failed as f64 / attempted, "ratio"),
        metric(
            "client.slo_miss_ratio",
            1.0 - s.slo_ok as f64 / attempted,
            "ratio",
        ),
        metric("client.gen_late_us_p99", s.late_us_p99, "us"),
        metric("client.gen_late_us_max", s.late_us_max, "us"),
        metric(
            "db.aborts_per_1k",
            s.aborted as f64 * 1000.0 / attempted,
            "count",
        ),
        metric("storage.forces_per_commit", forces, "count"),
        metric(
            "storage.records_per_force",
            records as f64 / (forces * commits).max(1.0),
            "count",
        ),
        metric(
            "storage.wal_bytes_per_commit",
            pass.storage_bytes as f64 / commits,
            "B",
        ),
        metric(
            "storage.fsync_us_p50",
            pass.fsync_us_p50.unwrap_or(0.0),
            "us",
        ),
        metric(
            "reactor.peak_sessions_in_flight",
            server.peak_sessions_in_flight as f64,
            "count",
        ),
        metric(
            "reactor.ready_queue_peak",
            server.ready_queue_peak as f64,
            "count",
        ),
        metric(
            "reactor.backpressure_stalls",
            server.backpressure_stalls as f64,
            "count",
        ),
        metric("reactor.rejected", server.rejected as f64, "count"),
        metric("proc.rss_peak_mb", pass.rss_peak_mb, "MiB"),
        metric("proc.cpu_us_per_commit", pass.cpu_us_per_commit(), "us"),
        metric("proc.user_us_per_commit", user_ns / 1e3 / commits, "us"),
        metric("proc.sys_us_per_commit", sys_ns / 1e3 / commits, "us"),
        metric(
            "proc.ctx_switches_per_commit",
            pass.worker.ctx_switches as f64 / commits,
            "count",
        ),
    ]
}

/// What only the in-program observer can count (traced half).
fn observer_counts(pass: &Pass) -> Vec<Metric> {
    let commits = pass.counted_commits();
    let Some(obs) = &pass.report.obs else {
        return Vec::new();
    };
    let phases = obs.phase_hists();
    vec![
        metric(
            "core.msgs_per_commit",
            obs.msgs_sent() as f64 / commits,
            "count",
        ),
        // The observer's histograms are power-of-two bucketed in ms
        // ticks; the mean is the one exact figure they hold.
        metric("core.phase_vote_ms_mean", phases.vote.mean(), "ms"),
        metric("core.phase_prepare_ms_mean", phases.prepare.mean(), "ms"),
        metric("core.phase_decide_ms_mean", phases.decide.mean(), "ms"),
        metric("db.pin_ms_mean", obs.pin_time().mean(), "ms"),
    ]
}
