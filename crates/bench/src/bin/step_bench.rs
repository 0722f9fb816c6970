//! `step_bench` — the plan-driven numeric pipeline serial vs. parallel:
//! the refactor speedup on this host, plus the virtual-time cost of the
//! same traces on the SuperNoVA SoC.
//!
//! ```text
//! cargo run --release -p supernova-bench --bin step_bench
//! ```
//!
//! Replays each dataset online through iSAM2 with the f64 host executor
//! pinned to 1, 2 and 4 threads, and writes
//! `results/BENCH_step_latency.json` with, per dataset and thread count:
//!
//! - the speedup of the final full refactor over the 1-thread run's, both
//!   timed on this host;
//! - the simulated SuperNoVA-2S numeric latency and SoC cycles (identical
//!   across thread counts — the numeric results are bit-identical, so the
//!   priced trace is too);
//! - the plan's modeled subtree-parallel speedup
//!   (`total_cost / critical_path_cost`, whole tasks on the critical
//!   path), which is what the measured speedup converges to given enough
//!   host cores, and each run's `level_occupancy` at that thread count;
//! - the dispatch mode of the final full-refactor host schedule (serial /
//!   level-batched — level-batched proves the interference certificate
//!   gate engaged).
//!
//! `host_cpus` is recorded so a reader can tell whether the measured
//! speedup was core-limited (e.g. a 1-CPU CI container cannot show any
//! wall-time win regardless of the plan's parallelism). Wall-clock time
//! of a step is measured by `benchmark/`, not here.
//!
//! With `--trace <path>` the first dataset is additionally replayed once
//! through a span-traced engine (2 host threads, simulator attached) and
//! the resulting Chrome trace-event document is written to `<path>` —
//! load it in `chrome://tracing` or Perfetto to see, per step, the
//! solver phases, the host executor's per-worker task rows and the
//! modeled accelerator-unit occupancy.

use std::sync::Arc;
use std::time::Instant;

use supernova_datasets::Dataset;
use supernova_factors::Key;
use supernova_hw::Platform;
use supernova_runtime::{simulate_step, CostModel, SchedulerConfig};
use supernova_solvers::{Isam2, Isam2Config, OnlineSolver, RaIsam2Config, SolverEngine};
use supernova_sparse::ParallelExecutor;
use supernova_trace::json::Json;
use supernova_trace::{chrome_document_wall, StepKey, Trace, TraceConfig};

/// Replays `dataset` through a span-traced engine and writes the
/// wall-clock Chrome trace-event document to `path`.
fn dump_trace(dataset: &Dataset, path: &str) {
    let platform = Platform::supernova(2);
    let cost = Arc::new(CostModel::new(platform.clone()));
    let mut engine = SolverEngine::new(RaIsam2Config::default(), cost);
    engine.set_executor(ParallelExecutor::new(2));
    engine.set_trace(TraceConfig::on());
    engine.set_trace_hw(platform, SchedulerConfig::default());
    let mut traces = Vec::new();
    for (i, step) in dataset.online_steps().into_iter().enumerate() {
        engine.step(step.truth, step.factors);
        if let Some(root) = engine.take_step_span() {
            traces.push(Trace {
                key: StepKey {
                    session: 0,
                    seq: i as u64,
                    step: i as u64 + 1,
                },
                root,
            });
        }
    }
    std::fs::write(path, chrome_document_wall(&traces))
        .unwrap_or_else(|e| panic!("write {path}: {e}"));
    eprintln!(
        "wrote {} step trace(s) for {} to {path} (open in chrome://tracing)",
        traces.len(),
        dataset.name()
    );
}

/// One measured replay.
struct Run {
    threads: usize,
    /// Wall seconds for one full (all-nodes-dirty) refactor at the end.
    refactor_wall_s: f64,
    /// Simulated SuperNoVA-2S numeric seconds summed over steps.
    sim_numeric_s: f64,
    /// The same, in SoC cycles.
    sim_cycles: f64,
    /// Plan-modeled subtree parallelism of the final tree.
    modeled_speedup: f64,
    /// Work-weighted mean barrier-to-barrier occupancy of the final plan
    /// at this run's thread count.
    level_occupancy: f64,
    /// Dispatch strategy of the final full-refactor host schedule
    /// (0 serial, 2 level-batched; 1 is retired).
    dispatch_mode: u64,
}

fn replay(dataset: &Dataset, threads: usize) -> Run {
    let platform = Platform::supernova(2);
    let sched = SchedulerConfig::default();
    let mut solver = Isam2::new(Isam2Config::default());
    solver
        .core_mut()
        .set_executor(ParallelExecutor::new(threads));

    let steps = dataset.online_steps();
    let mut sim_numeric_s = 0.0;
    for step in &steps {
        let trace = solver.step(step.truth.clone(), step.factors.clone());
        sim_numeric_s += simulate_step(&platform, &trace, &sched).numeric;
    }

    // One all-variables-dirty step on the final system: the heaviest
    // single plan execution the replay can produce.
    let keys: Vec<Key> = (0..solver.core().num_vars()).map(Key).collect();
    solver.core_mut().relinearize_vars(&keys);
    let t0 = Instant::now();
    let _ = solver.core_mut().factorize_and_solve();
    let refactor_wall_s = t0.elapsed().as_secs_f64();

    // The refactor above is the freshest plan execution, so its host
    // schedule witnesses which dispatch strategy the certificate gate
    // selected.
    let dispatch_mode = solver
        .core()
        .last_host_schedule()
        .map(|s| s.mode.as_u64())
        .unwrap_or(0);

    let plan = solver.core().plan();
    let modeled_speedup = plan
        .map(|p| p.total_cost() as f64 / p.critical_path_cost().max(1) as f64)
        .unwrap_or(1.0);
    let level_occupancy = plan.map(|p| p.level_occupancy(threads)).unwrap_or(0.0);
    Run {
        threads,
        refactor_wall_s,
        sim_numeric_s,
        sim_cycles: sim_numeric_s * platform.soc().freq_hz,
        modeled_speedup,
        level_occupancy,
        dispatch_mode,
    }
}

fn main() {
    let mut trace_path: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--trace" {
            trace_path = Some(args.next().unwrap_or_else(|| {
                eprintln!("step_bench: --trace needs a file path");
                std::process::exit(2);
            }));
        } else {
            eprintln!("step_bench: unknown argument {arg}");
            std::process::exit(2);
        }
    }
    let datasets = [
        Dataset::m3500_scaled(0.12),
        Dataset::sphere_scaled(0.2),
        Dataset::cab1_scaled(0.3),
    ];
    let thread_counts = [1usize, 2, 4];
    let host_cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    let mut dataset_rows = Vec::new();
    for dataset in &datasets {
        eprintln!("{}: {} steps", dataset.name(), dataset.num_steps());
        let runs: Vec<Run> = thread_counts.iter().map(|&t| replay(dataset, t)).collect();
        let serial_refactor = runs[0].refactor_wall_s;

        let run_rows: Vec<Json> = runs
            .iter()
            .map(|r| {
                Json::obj([
                    ("threads", r.threads.into()),
                    (
                        "refactor_speedup_vs_serial",
                        Json::fixed(serial_refactor / r.refactor_wall_s, 4),
                    ),
                    ("dispatch_mode", r.dispatch_mode.into()),
                    ("level_occupancy", Json::fixed(r.level_occupancy, 6)),
                    ("sim_numeric_s", Json::fixed(r.sim_numeric_s, 9)),
                    ("sim_cycles", Json::fixed(r.sim_cycles, 0)),
                ])
            })
            .collect();
        dataset_rows.push(Json::obj([
            ("name", dataset.name().into()),
            ("steps", dataset.num_steps().into()),
            (
                "modeled_critical_path_speedup",
                Json::fixed(runs.last().map(|r| r.modeled_speedup).unwrap_or(1.0), 4),
            ),
            ("runs", Json::Arr(run_rows)),
        ]));

        for r in &runs {
            eprintln!(
                "  {} threads: refactor {:.2}x, sim numeric {:.4}s, \
                 modeled {:.2}x (occ {:.3}), dispatch mode {}",
                r.threads,
                serial_refactor / r.refactor_wall_s,
                r.sim_numeric_s,
                r.modeled_speedup,
                r.level_occupancy,
                r.dispatch_mode
            );
        }
    }
    let out = Json::obj([
        ("bench", "step_latency".into()),
        ("sim_platform", "supernova-2s".into()),
        ("host_cpus", host_cpus.into()),
        ("datasets", Json::Arr(dataset_rows)),
    ])
    .write();

    std::fs::create_dir_all("results").expect("create results/");
    std::fs::write("results/BENCH_step_latency.json", &out)
        .expect("write results/BENCH_step_latency.json");
    eprintln!("wrote results/BENCH_step_latency.json");

    if let Some(path) = trace_path {
        dump_trace(&datasets[0], &path);
    }
}
