//! One harness for online-step latency, the layer ledger and serving,
//! measured from outside: it calls the crates' public functions and times
//! the calls. See `benchmark/README.md`.
//!
//! ```text
//! benchmark run --workload W --seed N --seconds S --trace 0|1   one run, result line last
//! benchmark run [--seed N] [--passes P] [--trace] [--quick]     every workload, P runs each
//! benchmark run --selfcheck                                     two sets; non-zero if they disagree
//! benchmark compare A.json B.json
//! benchmark manifest                                            prints BENCHMARK.json
//! ```

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::time::{Duration, Instant};

mod host;
mod inputs;
mod json;
mod layers;
mod metrics;
mod report;
mod rng;
mod spans;
mod stats;
mod workloads;

use json::Json;
use metrics::{END_TO_END, PER_LAYER, RUN_SECONDS};
use spans::Tracer;
use workloads::{Acc, Sizes, Workload, WORKLOADS};

/// Where result and trace files go, relative to the checkout root the
/// command is run from.
pub const OUT_DIR: &str = "benchmark/out";

/// Replays a run makes at least, whatever `--seconds` says.
const MIN_REPLAYS: usize = 3;
/// Times a run sets up at least; `setup_s` is the median. A set-up of a
/// few milliseconds is repeated until `SETUP_BUDGET` is spent, so that its
/// median is as steady as a slow one's.
const MIN_SETUPS: usize = 5;
const MAX_SETUPS: usize = 400;
const SETUP_BUDGET: Duration = Duration::from_secs(2);

#[derive(Clone, Debug)]
pub struct RunArgs {
    pub workloads: Vec<String>,
    pub seed: u64,
    pub seconds: u64,
    pub traced: bool,
    pub passes: Option<usize>,
    pub quick: bool,
    pub selfcheck: bool,
}

impl RunArgs {
    fn parse(args: &[String]) -> Result<RunArgs, String> {
        let mut out = RunArgs {
            workloads: Vec::new(),
            seed: 0,
            seconds: RUN_SECONDS,
            traced: false,
            passes: None,
            quick: false,
            selfcheck: false,
        };
        let mut it = args.iter().peekable();
        while let Some(arg) = it.next() {
            let mut value = |what: &str| {
                it.next()
                    .ok_or_else(|| format!("{arg} needs {what}"))
                    .cloned()
            };
            let number = |text: String| {
                text.parse::<u64>()
                    .map_err(|_| format!("{arg}: '{text}' is not a whole number"))
            };
            match arg.as_str() {
                "--workload" => {
                    let name = value("a workload name")?;
                    if !WORKLOADS.iter().any(|w| w.name == name) {
                        return Err(format!("unknown workload '{name}'"));
                    }
                    out.workloads.push(name);
                }
                "--seed" => out.seed = number(value("a seed")?)?,
                "--seconds" => out.seconds = number(value("seconds")?)?,
                "--passes" => out.passes = Some(number(value("a count")?)?.max(1) as usize),
                // `--trace` alone, or `--trace 0|1` as the driver passes it.
                "--trace" => {
                    out.traced = match it.peek().map(|s| s.as_str()) {
                        Some("0") => {
                            it.next();
                            false
                        }
                        Some("1") => {
                            it.next();
                            true
                        }
                        _ => true,
                    }
                }
                "--quick" => out.quick = true,
                "--selfcheck" => out.selfcheck = true,
                other => return Err(format!("unknown argument '{other}'")),
            }
        }
        if out.quick {
            out.seconds = out.seconds.min(1);
        }
        Ok(out)
    }

    pub fn sizes(&self) -> Sizes {
        if self.quick {
            Sizes::QUICK
        } else {
            Sizes::REFERENCE
        }
    }
}

/// One run of one workload: set up, replay for `seconds`, check, report.
fn run_one(workload: &Workload, args: &RunArgs) -> ExitCode {
    let sizes = args.sizes();
    let begin = Instant::now();
    let mut setup_s = Vec::new();
    let mut prepared = (workload.prepare)(args.seed, &sizes);
    setup_s.push(begin.elapsed().as_secs_f64());
    while !args.traced
        && setup_s.len() < MAX_SETUPS
        && (setup_s.len() < MIN_SETUPS || begin.elapsed() < SETUP_BUDGET)
    {
        drop(prepared);
        let t0 = Instant::now();
        prepared = (workload.prepare)(args.seed, &sizes);
        setup_s.push(t0.elapsed().as_secs_f64());
    }

    let mut acc = Acc::default();
    let budget = Duration::from_secs(args.seconds);
    let begin = Instant::now();
    let mut sound = true;
    while sound && (acc.replays < MIN_REPLAYS || begin.elapsed() < budget) {
        let tracer = Tracer::new(args.traced);
        sound = catch_unwind(AssertUnwindSafe(|| prepared.replay(&mut acc, tracer))).is_ok();
        acc.replays += 1;
    }
    sound =
        sound && catch_unwind(AssertUnwindSafe(|| prepared.finish(&mut acc, args.traced))).is_ok();
    if !sound {
        // A panic takes the replay's operations with it.
        let ops = acc.ops.len().max(1) as u64;
        acc.attempted += ops;
        acc.fail(ops, "a replay panicked".into());
    }
    drop(prepared);

    let values: Vec<(&str, &str, f64)> = if args.traced {
        acc.layer.insert("trace.replays", acc.replays as f64);
        PER_LAYER
            .iter()
            .map(|(name, unit, _)| (*name, *unit, acc.layer.get(name).copied().unwrap_or(0.0)))
            .collect()
    } else {
        let measured = [
            stats::p50(&acc.ops) * 1e3,
            stats::p95(&acc.ops) * 1e3,
            acc.ops.len() as f64 / acc.stream_s().max(f64::MIN_POSITIVE),
            host::peak_rss_mb(),
            stats::median(&setup_s),
        ];
        END_TO_END
            .iter()
            .zip(measured)
            .map(|(m, v)| (m.name, m.unit, v))
            .collect()
    };

    if args.traced {
        let path = format!("{OUT_DIR}/trace_{}.json", workload.name);
        let doc = spans::chrome_trace(workload.name, &acc.spans);
        if let Err(e) =
            std::fs::create_dir_all(OUT_DIR).and_then(|()| std::fs::write(&path, doc.to_string()))
        {
            eprintln!("benchmark: cannot write {path}: {e}");
        }
    }
    eprintln!(
        "{}: seed {} · {} replays of {} ops in {:.1} s",
        workload.name,
        args.seed,
        acc.replays,
        acc.ops.len(),
        begin.elapsed().as_secs_f64()
    );
    for (name, unit, value) in &values {
        eprintln!("  {name:<40} {value:>16.6} {unit}");
    }
    for why in &acc.failures {
        eprintln!("  FAILED: {why}");
    }

    // Two lines on stdout: what the run was, then the result.
    let info = Json::obj([
        ("workload", Json::Str(workload.name.into())),
        ("seed", Json::Num(args.seed as f64)),
        ("seconds", Json::Num(args.seconds as f64)),
        ("replays", Json::Num(acc.replays as f64)),
        ("ops", Json::Num(acc.ops.len() as f64)),
        (
            "setup_s",
            Json::Arr(setup_s.iter().copied().map(Json::Num).collect()),
        ),
        (
            "replay_s",
            Json::Arr(acc.replay_s.iter().copied().map(Json::Num).collect()),
        ),
        (
            "failures",
            Json::Arr(acc.failures.iter().cloned().map(Json::Str).collect()),
        ),
    ]);
    let result = Json::obj([
        ("correct", Json::Bool(acc.failed == 0)),
        ("attempted", Json::Num(acc.attempted.max(1) as f64)),
        ("failed", Json::Num(acc.failed as f64)),
        (
            "metrics",
            Json::obj(values.iter().map(|(name, unit, value)| {
                (
                    *name,
                    Json::obj([
                        ("value", Json::Num(*value)),
                        ("unit", Json::Str((*unit).into())),
                    ]),
                )
            })),
        ),
    ]);
    println!("{info}");
    println!("{result}");
    ExitCode::SUCCESS
}

/// `BENCHMARK.json`, from the tables the runs report against.
fn manifest() -> Json {
    let text = |s: &str| Json::Str(s.into());
    let command = [
        "cargo",
        "run",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        "benchmark/Cargo.toml",
        "--",
        "run",
    ];
    Json::obj([
        (
            "command",
            Json::Arr(command.into_iter().map(text).collect()),
        ),
        ("paths", Json::Arr(vec![text("benchmark")])),
        ("run_seconds", Json::Num(RUN_SECONDS as f64)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| Json::obj([("name", text(w.name)), ("why", text(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", text(m.name)),
                            ("unit", text(m.unit)),
                            ("better", text(m.better)),
                            ("bound", Json::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|(name, unit, better)| {
                        Json::obj([
                            ("name", text(name)),
                            ("unit", text(unit)),
                            ("better", text(better)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.split_first() {
        Some((cmd, rest)) if cmd == "run" => RunArgs::parse(rest).map(|run| {
            let single = run.workloads.len() == 1 && run.passes.is_none() && !run.selfcheck;
            match WORKLOADS
                .iter()
                .find(|w| single && w.name == run.workloads[0])
            {
                Some(workload) => run_one(workload, &run),
                None => report::run_sets(&run),
            }
        }),
        Some((cmd, rest)) if cmd == "compare" => match rest {
            [a, b] => report::compare_files(a, b),
            _ => Err("compare needs two result files".into()),
        },
        Some((cmd, [])) if cmd == "manifest" => {
            print!("{}", manifest().pretty());
            Ok(ExitCode::SUCCESS)
        }
        _ => Err("usage: benchmark run [options] | compare A.json B.json | manifest".into()),
    };
    outcome.unwrap_or_else(|e| {
        eprintln!("benchmark: {e}");
        ExitCode::from(2)
    })
}
