//! `qbench run` and `qbench trace`: every workload in turn, each in a
//! process of its own (so peak RSS is per workload and a run is exactly
//! what the driver would start), collected into one result file.

use crate::bench::OUT_DIR;
use crate::json::Json;
use crate::procfs;
use crate::workload::{self, Wal};
use std::io;
use std::path::{Path, PathBuf};
use std::process::Command;

fn tool_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

pub fn main(args: &[String], trace: bool) -> i32 {
    match run(args, trace) {
        Ok(all_correct) => !all_correct as i32,
        Err(e) => {
            eprintln!("qbench: {e}");
            2
        }
    }
}

fn run(args: &[String], trace: bool) -> io::Result<bool> {
    let (mut seed, mut seconds, mut out) = (11u64, 8u64, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| io::Error::other(format!("{flag} needs a value")))?;
        let num = || value.parse::<u64>().map_err(io::Error::other);
        match flag.as_str() {
            "--seed" => seed = num()?,
            "--seconds" => seconds = num()?,
            "--out" => out = Some(PathBuf::from(value)),
            _ => return Err(io::Error::other(format!("unknown flag {flag}"))),
        }
    }
    std::fs::create_dir_all(OUT_DIR)?;
    let mode = if trace { "trace" } else { "run" };
    let out = out.unwrap_or_else(|| Path::new(OUT_DIR).join(format!("{mode}-seed{seed}.json")));
    let exe = std::env::current_exe()?;
    let full = Path::new(OUT_DIR).join("full.json");

    let mut workloads = Vec::new();
    let mut all_correct = true;
    for spec in workload::all() {
        eprintln!("== {}", spec.name);
        let status = Command::new(&exe)
            .args(["bench", "--workload", spec.name])
            .args([
                "--seed",
                &seed.to_string(),
                "--seconds",
                &seconds.to_string(),
            ])
            .args(["--trace", if trace { "1" } else { "0" }])
            .arg("--full-json")
            .arg(&full)
            .status()?;
        all_correct &= status.success();
        let Ok(text) = std::fs::read_to_string(&full) else {
            workloads.push((
                spec.name.to_string(),
                Json::obj([("crashed", Json::Bool(true))]),
            ));
            continue;
        };
        std::fs::remove_file(&full)?;
        let run = Json::parse(&text).map_err(io::Error::other)?;
        let field = |k: &str| run.get(k).cloned().unwrap_or(Json::Null);
        let result = field("result");
        let of_result = |k: &str| result.get(k).cloned().unwrap_or(Json::Null);
        workloads.push((
            spec.name.to_string(),
            Json::obj([
                (
                    "wal",
                    Json::str(if spec.wal == Wal::Mem { "mem" } else { "file" }),
                ),
                // `run` gates what it measures, so its file WALs skip the
                // flush; `trace` runs them as specified (README).
                ("fdatasync", Json::Bool(trace && spec.wal == Wal::Durable)),
                ("schedule_hash", field("schedule_hash")),
                ("valid", field("valid")),
                ("correct", of_result("correct")),
                ("attempted", of_result("attempted")),
                ("failed", of_result("failed")),
                ("metrics", of_result("metrics")),
            ]),
        ));
    }

    let (nproc, kernel, filesystem) = procfs::machine(OUT_DIR);
    let file = Json::obj([
        (
            "meta",
            Json::obj([
                ("mode", Json::str(mode)),
                (
                    "git_rev",
                    Json::str(tool_line("git", &["rev-parse", "HEAD"])),
                ),
                ("rustc", Json::str(tool_line("rustc", &["--version"]))),
                ("nproc", Json::Num(nproc as f64)),
                ("kernel", Json::str(kernel)),
                ("filesystem", Json::str(filesystem)),
                ("seed", Json::Num(seed as f64)),
                ("seconds", Json::Num(seconds as f64)),
            ]),
        ),
        ("workloads", Json::Obj(workloads)),
    ]);
    std::fs::write(&out, file.to_pretty())?;
    eprintln!("wrote {}", out.display());
    Ok(all_correct)
}
