//! Sets of runs: every workload, several passes each, every pass a child
//! process of its own, round-robin across workloads so a noisy spell on the
//! host hits at most one pass per workload. Writes the result file, and
//! compares two of them.

use std::process::{Command, ExitCode};

use crate::json::{self, Json};
use crate::metrics::END_TO_END;
use crate::workloads::WORKLOADS;
use crate::{host, stats, RunArgs, OUT_DIR};

/// Passes per workload unless `--passes` says otherwise.
const DEFAULT_PASSES: usize = 5;

/// One child run: `benchmark run --workload … --trace 0|1`, its two stdout
/// lines parsed.
fn child_run(args: &RunArgs, workload: &str, traced: bool) -> Result<(Json, Json), String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["run", "--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }]);
    if args.quick {
        cmd.arg("--quick");
    }
    // stderr (the child's table) passes through.
    let out = cmd
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start {workload}: {e}"))?;
    if !out.status.success() {
        return Err(format!("{workload} exited with {}", out.status));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    let mut lines = text.lines().rev();
    let result = lines
        .next()
        .ok_or("no result line")
        .and_then(|l| json::parse(l).map_err(|_| "bad result line"))?;
    let info = lines
        .next()
        .ok_or("no info line")
        .and_then(|l| json::parse(l).map_err(|_| "bad info line"))?;
    Ok((info, result))
}

fn metric_value(result: &Json, name: &str) -> Option<f64> {
    result.get("metrics")?.get(name)?.get("value")?.as_f64()
}

/// Runs one set and returns its result document.
fn run_set(args: &RunArgs, names: &[&str], passes: usize) -> Result<Json, String> {
    // Per workload: every pass's (info, result).
    let mut runs: Vec<Vec<(Json, Json)>> = vec![Vec::new(); names.len()];
    for pass in 0..passes {
        for (w, name) in names.iter().enumerate() {
            eprintln!("— pass {}/{passes} · {name}", pass + 1);
            runs[w].push(child_run(args, name, false)?);
        }
    }
    let mut workloads = Vec::new();
    for (name, runs) in names.iter().zip(&runs) {
        let field = |doc: fn(&(Json, Json)) -> &Json, key: &str| -> Vec<f64> {
            runs.iter()
                .filter_map(|run| doc(run).get(key).and_then(Json::as_f64))
                .collect()
        };
        let numbers = |v: Vec<f64>| Json::Arr(v.into_iter().map(Json::Num).collect());
        let ops = field(|r| &r.0, "ops").first().copied().unwrap_or(0.0);
        let failed: f64 = field(|r| &r.1, "failed").iter().sum();
        let mut fields = vec![
            ("name", Json::Str((*name).into())),
            // The percentiles are over this many operations; p95 has a
            // twentieth of them beyond it.
            ("ops", Json::Num(ops)),
            ("ops_beyond_p95", Json::Num((ops * 0.05).floor())),
            ("replays", numbers(field(|r| &r.0, "replays"))),
            // Per pass, every replay's summed operation seconds: the raw
            // totals the per-operation minima were taken from.
            (
                "replay_s",
                Json::Arr(
                    runs.iter()
                        .filter_map(|(info, _)| info.get("replay_s").cloned())
                        .collect(),
                ),
            ),
            (
                "attempted",
                Json::Num(field(|r| &r.1, "attempted").iter().sum()),
            ),
            ("failed", Json::Num(failed)),
            ("correct", Json::Bool(failed == 0.0)),
            (
                "failures",
                Json::Arr(
                    runs.iter()
                        .flat_map(|(info, _)| info.get("failures").map_or(&[][..], Json::as_arr))
                        .cloned()
                        .collect(),
                ),
            ),
            (
                "end_to_end",
                Json::obj(END_TO_END.iter().map(|m| {
                    let values: Vec<f64> = runs
                        .iter()
                        .filter_map(|(_, result)| metric_value(result, m.name))
                        .collect();
                    (
                        m.name,
                        Json::obj([
                            ("median", Json::Num(stats::median(&values))),
                            ("unit", Json::Str(m.unit.into())),
                            // Every pass's raw value, so the spread can be audited.
                            ("passes", numbers(values)),
                        ]),
                    )
                })),
            ),
        ];
        if args.traced {
            eprintln!("— traced pass · {name}");
            let (_, result) = child_run(args, name, true)?;
            fields.push((
                "per_layer",
                result.get("metrics").cloned().unwrap_or(Json::Null),
            ));
        }
        workloads.push(Json::obj(fields));
    }
    Ok(Json::obj([
        (
            "host",
            Json::obj([
                ("nproc", Json::Num(host::nproc() as f64)),
                ("cpu_model", Json::Str(host::cpu_model())),
            ]),
        ),
        ("seed", Json::Num(args.seed as f64)),
        ("seconds", Json::Num(args.seconds as f64)),
        ("passes", Json::Num(passes as f64)),
        ("quick", Json::Bool(args.quick)),
        (
            "sizes",
            Json::obj(args.sizes().fields().map(|(k, v)| (k, Json::Num(v)))),
        ),
        ("workloads", Json::Arr(workloads)),
    ]))
}

fn print_set(doc: &Json) {
    for w in doc.get("workloads").map_or(&[][..], Json::as_arr) {
        let text = |key: &str| w.get(key).and_then(Json::as_str).unwrap_or("");
        let num = |key: &str| w.get(key).and_then(Json::as_f64).unwrap_or(0.0);
        println!(
            "{} — {} ops ({} beyond p95), {} attempted, {} failed",
            text("name"),
            num("ops"),
            num("ops_beyond_p95"),
            num("attempted"),
            num("failed")
        );
        for (name, m) in w.get("end_to_end").map_or(&[][..], Json::as_obj) {
            let passes: Vec<String> = m
                .get("passes")
                .map_or(&[][..], Json::as_arr)
                .iter()
                .filter_map(Json::as_f64)
                .map(|v| format!("{v:.4}"))
                .collect();
            println!(
                "  {name:<14} {:>14.4} {:<4} passes [{}]",
                m.get("median").and_then(Json::as_f64).unwrap_or(0.0),
                m.get("unit").and_then(Json::as_str).unwrap_or(""),
                passes.join(", ")
            );
        }
        for (name, m) in w.get("per_layer").map_or(&[][..], Json::as_obj) {
            let value = m.get("value").and_then(Json::as_f64).unwrap_or(0.0);
            if value != 0.0 {
                println!(
                    "  {name:<40} {value:>16.6} {}",
                    m.get("unit").and_then(Json::as_str).unwrap_or("")
                );
            }
        }
        for why in w.get("failures").map_or(&[][..], Json::as_arr) {
            println!("  FAILED: {}", why.as_str().unwrap_or(""));
        }
    }
}

fn write_set(doc: &Json, file: &str) -> Result<(), String> {
    let path = format!("{OUT_DIR}/{file}");
    std::fs::create_dir_all(OUT_DIR)
        .and_then(|()| std::fs::write(&path, doc.pretty()))
        .map_err(|e| format!("cannot write {path}: {e}"))?;
    eprintln!("wrote {path}");
    Ok(())
}

/// `run` without a single `--workload`: one set, or two under `--selfcheck`.
pub fn run_sets(args: &RunArgs) -> ExitCode {
    let names: Vec<&str> = WORKLOADS
        .iter()
        .map(|w| w.name)
        .filter(|n| args.workloads.is_empty() || args.workloads.iter().any(|w| w == n))
        .collect();
    let passes = args
        .passes
        .unwrap_or(if args.quick { 1 } else { DEFAULT_PASSES });
    let run = || -> Result<bool, String> {
        let first = run_set(args, &names, passes)?;
        print_set(&first);
        write_set(&first, "result.json")?;
        let correct = |doc: &Json| {
            doc.get("workloads")
                .map_or(&[][..], Json::as_arr)
                .iter()
                .all(|w| w.get("correct") == Some(&Json::Bool(true)))
        };
        if !args.selfcheck {
            return Ok(correct(&first));
        }
        let second = run_set(args, &names, passes)?;
        print_set(&second);
        write_set(&second, "result_second.json")?;
        Ok(compare(&first, &second) && correct(&first) && correct(&second))
    };
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Spread of one set's passes as a share of their median: the distance
/// between the quartiles, or the whole range when there are too few.
fn spread(values: &[f64]) -> f64 {
    let (lo, hi) = if values.len() >= 4 {
        (
            stats::percentile(values, 0.25),
            stats::percentile(values, 0.75),
        )
    } else {
        (
            stats::percentile(values, 0.0),
            stats::percentile(values, 1.0),
        )
    };
    (hi - lo) / stats::median(values).abs().max(f64::MIN_POSITIVE)
}

/// Prints one row per (workload, end-to-end metric) and returns whether
/// every row is `ok`.
///
/// `worse`: B's median is worse than A's by more than the bound.
/// `unresolved`: the passes spread wider than the bound, so neither
/// "unchanged" nor "worse" can be said, unless every pass of one side
/// beats every pass of the other.
pub fn compare(a: &Json, b: &Json) -> bool {
    println!(
        "{:<20} {:<12} {:>12} {:>12} {:>20} {:>6}  verdict",
        "workload", "metric", "A", "B", "B ÷ A (base A)", "bound"
    );
    let mut all_ok = true;
    fn find<'a>(doc: &'a Json, name: &str) -> Option<&'a Json> {
        doc.get("workloads")?
            .as_arr()
            .iter()
            .find(|w| w.get("name").and_then(Json::as_str) == Some(name))
    }
    for w in WORKLOADS.iter() {
        let (Some(wa), Some(wb)) = (find(a, w.name), find(b, w.name)) else {
            continue;
        };
        for m in &END_TO_END {
            let side = |w: &Json| -> Option<(f64, Vec<f64>)> {
                let metric = w.get("end_to_end")?.get(m.name)?;
                let passes = metric.get("passes")?.as_arr();
                Some((
                    metric.get("median")?.as_f64()?,
                    passes.iter().filter_map(Json::as_f64).collect(),
                ))
            };
            let (Some((ma, pa)), Some((mb, pb))) = (side(wa), side(wb)) else {
                continue;
            };
            // Signed so that positive means B is worse.
            let sign = if m.better == "lower" { 1.0 } else { -1.0 };
            let worse_by = sign * (mb - ma) / ma.abs().max(f64::MIN_POSITIVE);
            let beats =
                |x: &[f64], y: &[f64]| x.iter().all(|x| y.iter().all(|y| sign * (x - y) < 0.0));
            let noisy = spread(&pa).max(spread(&pb)) > m.bound;
            let verdict = if noisy && beats(&pb, &pa) {
                "ok"
            } else if noisy && !(beats(&pa, &pb) && worse_by > m.bound) {
                "unresolved"
            } else if worse_by > m.bound {
                "worse"
            } else {
                "ok"
            };
            all_ok &= verdict == "ok";
            println!(
                "{:<20} {:<12} {ma:>12.4} {mb:>12.4} {:>11.4} of {ma:<7.4} {:>6.2}  {verdict}",
                w.name,
                m.name,
                mb / ma,
                m.bound
            );
        }
    }
    all_ok
}

pub fn compare_files(a: &str, b: &str) -> Result<ExitCode, String> {
    let load = |path: &str| {
        std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {path}: {e}"))
            .and_then(|text| json::parse(&text).map_err(|e| format!("{path}: {e}")))
    };
    Ok(if compare(&load(a)?, &load(b)?) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}
