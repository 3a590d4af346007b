//! `qbench compare A B`: applies the benchmark's bounds to every
//! (metric, workload) row of two sets of result files and prints `ok`,
//! `regressed` or `unresolved` (run-to-run spread wider than the bound,
//! so the row can show neither).
//!
//! `BENCHMARK.json` holds one relative bound per end-to-end metric (its
//! format allows no more); `benchmark/gates.json` refines it per row:
//! tighter bounds where the committed runs support them, the issue's
//! absolute bounds, the `client.*` twins of metrics that exist on some
//! workloads only, and the rows demoted because their spread cannot
//! meet the 25 % cap.

use crate::json::Json;
use crate::stats::{median_f64, quartiles};
use std::collections::BTreeMap;
use std::io;
use std::path::Path;

pub const GATES_FILE: &str = "benchmark/gates.json";

#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Verdict {
    Ok,
    Regressed,
    Unresolved,
    /// Not gated: the row's own spread on the unchanged tree is wider
    /// than any bound the benchmark may set. Printed, never failed.
    Demoted,
}

/// How much worse a row may get before it counts as a regression.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Bound {
    /// A share of the base median.
    Share(f64),
    /// In the metric's own unit (ratios that are zero on a healthy run).
    Abs(f64),
}

#[derive(Clone, Debug)]
pub struct Gate {
    pub metric: String,
    /// `None` gates the metric on every workload that reports it.
    pub workload: Option<String>,
    pub higher_is_better: bool,
    pub bound: Bound,
    pub demoted: bool,
}

/// The gates in order of precedence: the rows of `gates.json` as
/// listed, then one per end-to-end metric of `BENCHMARK.json`.
pub fn gates_from(benchmark_json: &str, gates_json: &str) -> Result<Vec<Gate>, String> {
    let mut gates = Vec::new();
    let rows = Json::parse(gates_json)?;
    for row in rows
        .get("rows")
        .and_then(Json::as_arr)
        .ok_or("gates.json: no rows list")?
    {
        let text = |k: &str| row.get(k).and_then(Json::as_str);
        let num = |k: &str| row.get(k).and_then(Json::as_f64);
        let metric = text("metric").ok_or("gates.json: row without metric")?;
        let bound = match (num("share"), num("abs")) {
            (Some(x), None) => Bound::Share(x),
            (None, Some(x)) => Bound::Abs(x),
            _ => return Err(format!("gates.json: {metric} needs one of share, abs")),
        };
        gates.push(Gate {
            metric: metric.to_string(),
            workload: text("workload").map(str::to_string),
            higher_is_better: text("better") == Some("higher"),
            bound,
            demoted: text("demoted").is_some(),
        });
    }
    let doc = Json::parse(benchmark_json)?;
    for m in doc
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json: no end_to_end list")?
    {
        let field = |k: &str| m.get(k).ok_or(format!("end_to_end entry lacks {k}"));
        gates.push(Gate {
            metric: field("name")?
                .as_str()
                .ok_or("name not a string")?
                .to_string(),
            workload: None,
            higher_is_better: field("better")?.as_str() == Some("higher"),
            bound: Bound::Share(field("bound")?.as_f64().ok_or("bound not a number")?),
            demoted: false,
        });
    }
    Ok(gates)
}

/// (workload, metric) → the values one side's files hold for it.
pub type Rows = BTreeMap<(String, String), Vec<f64>>;

pub fn rows_of(files: &[Json]) -> Rows {
    let mut rows = Rows::new();
    for file in files {
        let Some(workloads) = file.get("workloads").and_then(Json::as_obj) else {
            continue;
        };
        for (workload, body) in workloads {
            let Some(metrics) = body.get("metrics").and_then(Json::as_obj) else {
                continue;
            };
            for (metric, v) in metrics {
                if let Some(x) = v.get("value").and_then(Json::as_f64) {
                    rows.entry((workload.clone(), metric.clone()))
                        .or_default()
                        .push(x);
                }
            }
        }
    }
    rows
}

/// Run-to-run spread of one side in the metric's own unit: the
/// quartile distance with four or more runs, the full range with two
/// or three, unknown (zero) with one.
fn spread(values: &[f64]) -> f64 {
    match values.len() {
        0 | 1 => 0.0,
        2 | 3 => {
            let lo = values.iter().copied().fold(f64::INFINITY, f64::min);
            let hi = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            hi - lo
        }
        _ => {
            let (q1, q3) = quartiles(values);
            q3 - q1
        }
    }
}

#[derive(Clone, Debug)]
pub struct Row {
    pub workload: String,
    pub metric: String,
    pub base: f64,
    pub new: f64,
    /// Positive = worse; with `spread` and `bound` in the bound's own
    /// terms (shares of the base median, or the metric's unit).
    pub worse_by: f64,
    pub spread: f64,
    pub bound: Bound,
    pub verdict: Verdict,
}

pub fn judge(gates: &[Gate], base: &Rows, new: &Rows) -> Vec<Row> {
    let mut out = Vec::new();
    for ((workload, metric), base_values) in base {
        let Some(gate) = gates
            .iter()
            .find(|g| g.metric == *metric && g.workload.as_ref().is_none_or(|w| w == workload))
        else {
            continue;
        };
        let Some(new_values) = new.get(&(workload.clone(), metric.clone())) else {
            continue;
        };
        let (b, n) = (median_f64(base_values), median_f64(new_values));
        let scale = match gate.bound {
            // A share of nothing: a twin reads zero where it is not
            // defined (too few aborts).
            Bound::Share(_) if b == 0.0 => continue,
            Bound::Share(_) => b.abs(),
            Bound::Abs(_) => 1.0,
        };
        let (Bound::Share(limit) | Bound::Abs(limit)) = gate.bound;
        let change = (n - b) / scale;
        let worse_by = if gate.higher_is_better {
            -change
        } else {
            change
        };
        let spread = spread(base_values).max(spread(new_values)) / scale;
        let verdict = if gate.demoted {
            Verdict::Demoted
        } else if spread > limit {
            Verdict::Unresolved
        } else if worse_by > limit {
            Verdict::Regressed
        } else {
            Verdict::Ok
        };
        out.push(Row {
            workload: workload.clone(),
            metric: metric.clone(),
            base: b,
            new: n,
            worse_by,
            spread,
            bound: gate.bound,
            verdict,
        });
    }
    out
}

/// A path names one result file or a directory of them.
fn load(path: &str) -> io::Result<Vec<Json>> {
    let p = Path::new(path);
    let mut paths = if p.is_dir() {
        std::fs::read_dir(p)?
            .flatten()
            .map(|e| e.path())
            .filter(|f| f.extension().is_some_and(|x| x == "json"))
            .collect()
    } else {
        vec![p.to_path_buf()]
    };
    paths.sort();
    paths
        .iter()
        .map(|f| {
            Json::parse(&std::fs::read_to_string(f)?)
                .map_err(|e| io::Error::other(format!("{}: {e}", f.display())))
        })
        .collect()
}

pub fn main(args: &[String]) -> i32 {
    let [a, b] = args else {
        eprintln!("usage: qbench compare <base file|dir> <new file|dir>");
        return 2;
    };
    let run = || -> io::Result<bool> {
        let gates = gates_from(
            &std::fs::read_to_string("BENCHMARK.json")?,
            &std::fs::read_to_string(GATES_FILE)?,
        )
        .map_err(io::Error::other)?;
        let (base, new) = (load(a)?, load(b)?);
        println!("base: {} file(s), new: {} file(s)", base.len(), new.len());
        let rows = judge(&gates, &rows_of(&base), &rows_of(&new));
        println!(
            "{:<16} {:<26} {:>14} {:>14} {:>10} {:>10} {:>10}  verdict",
            "workload", "metric", "base", "new", "worse by", "spread", "bound"
        );
        // Shares print as percentages, absolute bounds in the unit.
        let show = |x: f64, bound: Bound| match bound {
            Bound::Share(_) => format!("{:.1}%", x * 100.0),
            Bound::Abs(_) => format!("{x:.4}"),
        };
        for r in &rows {
            let (Bound::Share(limit) | Bound::Abs(limit)) = r.bound;
            println!(
                "{:<16} {:<26} {:>14.4} {:>14.4} {:>10} {:>10} {:>10}  {}",
                r.workload,
                r.metric,
                r.base,
                r.new,
                show(r.worse_by, r.bound),
                show(r.spread, r.bound),
                show(limit, r.bound),
                match r.verdict {
                    Verdict::Ok => "ok",
                    Verdict::Regressed => "regressed",
                    Verdict::Unresolved => "unresolved",
                    Verdict::Demoted => "demoted",
                }
            );
        }
        let count = |v| rows.iter().filter(|r| r.verdict == v).count();
        let (regressed, unresolved) = (count(Verdict::Regressed), count(Verdict::Unresolved));
        println!(
            "{} rows: {} ok, {regressed} regressed, {unresolved} unresolved, {} demoted (not gated)",
            rows.len(),
            count(Verdict::Ok),
            count(Verdict::Demoted)
        );
        Ok(regressed + unresolved == 0 && !rows.is_empty())
    };
    match run() {
        Ok(all_ok) => !all_ok as i32,
        Err(e) => {
            eprintln!("qbench compare: {e}");
            2
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file(workload: &str, metric: &str, value: f64) -> Json {
        Json::obj([(
            "workloads",
            Json::obj([(
                workload,
                Json::obj([(
                    "metrics",
                    Json::obj([(
                        metric,
                        Json::obj([("value", Json::Num(value)), ("unit", Json::str("us"))]),
                    )]),
                )]),
            )]),
        )])
    }

    fn gates() -> Vec<Gate> {
        gates_from(
            r#"{"end_to_end": [
                {"name": "commit_p50_us", "unit": "us", "better": "lower", "bound": 0.1},
                {"name": "commits_per_s", "unit": "1/s", "better": "higher", "bound": 0.1}]}"#,
            r#"{"rows": [
                {"metric": "commit_p50_us", "workload": "durable-open", "share": 0.2},
                {"metric": "commits_per_s", "workload": "read-mix", "better": "higher", "share": 0.25, "demoted": "host"},
                {"metric": "client.fail_ratio", "abs": 0.02},
                {"metric": "client.kill_resolve_ms", "workload": "coord-kill", "share": 0.25}]}"#,
        )
        .unwrap()
    }

    fn verdict_of(metric: &str, workload: &str, base: &[f64], new: &[f64]) -> Verdict {
        let side = |vs: &[f64]| {
            rows_of(
                &vs.iter()
                    .map(|&v| file(workload, metric, v))
                    .collect::<Vec<_>>(),
            )
        };
        let rows = judge(&gates(), &side(base), &side(new));
        assert_eq!(rows.len(), 1, "{rows:?}");
        rows[0].verdict
    }

    #[test]
    fn lower_is_better_rows() {
        let m = "commit_p50_us";
        assert_eq!(verdict_of(m, "mem-open", &[100.0], &[109.0]), Verdict::Ok);
        assert_eq!(
            verdict_of(m, "mem-open", &[100.0], &[112.0]),
            Verdict::Regressed
        );
        assert_eq!(verdict_of(m, "mem-open", &[100.0], &[50.0]), Verdict::Ok);
    }

    #[test]
    fn higher_is_better_rows() {
        let m = "commits_per_s";
        assert_eq!(
            verdict_of(m, "mem-closed", &[1000.0], &[950.0]),
            Verdict::Ok
        );
        assert_eq!(
            verdict_of(m, "mem-closed", &[1000.0], &[880.0]),
            Verdict::Regressed
        );
        assert_eq!(
            verdict_of(m, "mem-closed", &[1000.0], &[2000.0]),
            Verdict::Ok
        );
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_not_ok() {
        let m = "commit_p50_us";
        // Three runs ranging over 30 % of their median, bound 10 %.
        let noisy = [90.0, 100.0, 120.0];
        assert_eq!(
            verdict_of(m, "mem-open", &noisy, &[100.0]),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict_of(m, "mem-open", &[100.0], &noisy),
            Verdict::Unresolved
        );
        // Five tight runs resolve, and the medians decide.
        let tight = [99.0, 100.0, 100.5, 101.0, 102.0];
        assert_eq!(verdict_of(m, "mem-open", &tight, &tight), Verdict::Ok);
        let slower: Vec<f64> = tight.iter().map(|v| v * 1.2).collect();
        assert_eq!(
            verdict_of(m, "mem-open", &tight, &slower),
            Verdict::Regressed
        );
    }

    #[test]
    fn twins_are_gated_only_where_defined_and_ungated_metrics_are_skipped() {
        let m = "client.kill_resolve_ms";
        assert_eq!(
            verdict_of(m, "coord-kill", &[600.0], &[800.0]),
            Verdict::Regressed
        );
        let side = |w: &str, metric: &str, v: f64| rows_of(&[file(w, metric, v)]);
        // Same metric on a workload without a kill: no row.
        assert!(judge(
            &gates(),
            &side("mem-open", m, 0.0),
            &side("mem-open", m, 0.0)
        )
        .is_empty());
        // Same metric where too few events defined it: no row either.
        assert!(judge(
            &gates(),
            &side("coord-kill", m, 0.0),
            &side("coord-kill", m, 0.0)
        )
        .is_empty());
        let p99 = "client.commit_p99_us";
        assert!(judge(
            &gates(),
            &side("mem-open", p99, 1.0),
            &side("mem-open", p99, 9.0)
        )
        .is_empty());
    }

    #[test]
    fn a_row_of_its_own_beats_the_metric_wide_bound() {
        let m = "commit_p50_us";
        // 15 % worse: past the 10 % every workload gets, inside the
        // 20 % this row was given.
        assert_eq!(
            verdict_of(m, "mem-open", &[100.0], &[115.0]),
            Verdict::Regressed
        );
        assert_eq!(
            verdict_of(m, "durable-open", &[100.0], &[115.0]),
            Verdict::Ok
        );
        // A demoted row is shown and never fails.
        assert_eq!(
            verdict_of("commits_per_s", "read-mix", &[1000.0], &[100.0]),
            Verdict::Demoted
        );
    }

    #[test]
    fn absolute_bounds_hold_from_a_base_of_zero() {
        let m = "client.fail_ratio";
        assert_eq!(verdict_of(m, "mem-open", &[0.0], &[0.019]), Verdict::Ok);
        assert_eq!(
            verdict_of(m, "mem-open", &[0.0], &[0.04]),
            Verdict::Regressed
        );
        assert_eq!(
            verdict_of(m, "coord-kill", &[0.208], &[0.2085]),
            Verdict::Ok
        );
        assert_eq!(
            verdict_of(m, "xshard-hot", &[0.20, 0.23, 0.26], &[0.23]),
            Verdict::Unresolved
        );
    }

    /// The committed files: `gates.json` parses into gates, and names
    /// what every per-layer metric of `BENCHMARK.json` should move.
    #[test]
    fn committed_gates_cover_every_per_layer_metric() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"));
        let benchmark = std::fs::read_to_string(dir.join("../BENCHMARK.json")).unwrap();
        let gates = std::fs::read_to_string(dir.join("gates.json")).unwrap();
        assert!(gates_from(&benchmark, &gates).unwrap().len() > 8);

        let (benchmark, gates) = (
            Json::parse(&benchmark).unwrap(),
            Json::parse(&gates).unwrap(),
        );
        let names = |key: &str| -> Vec<String> {
            let list = benchmark.get(key).and_then(Json::as_arr).unwrap();
            list.iter()
                .map(|m| m.get("name").and_then(Json::as_str).unwrap().to_string())
                .collect()
        };
        let (per_layer, workloads) = (names("per_layer"), names("workloads"));
        let metrics = [names("end_to_end"), per_layer.clone()].concat();
        let moves = gates.get("moves").and_then(Json::as_obj).unwrap();
        assert_eq!(moves.len(), per_layer.len());
        for name in &per_layer {
            let targets = gates.get("moves").and_then(|m| m.get(name));
            let targets = targets
                .and_then(Json::as_arr)
                .unwrap_or_else(|| panic!("{name} has no moves entry"));
            for target in targets {
                let (metric, workload) = target.as_str().unwrap().split_once('@').unwrap();
                assert!(metrics.iter().any(|m| m == metric), "{name}: {metric}?");
                assert!(
                    workload == "*" || workloads.iter().any(|w| w == workload),
                    "{name}: {workload}?"
                );
            }
        }
    }
}
