//! `step_bench` — host wall-time of the plan-driven numeric pipeline,
//! serial vs. parallel, plus the virtual-time cost of the same traces on
//! the SuperNoVA SoC.
//!
//! Gated behind the `bench-harness` feature:
//!
//! ```text
//! cargo run --release -p supernova-bench --features bench-harness --bin step_bench
//! ```
//!
//! Replays each dataset online through iSAM2 with the host executor pinned
//! to 1, 2 and 4 threads, and writes `results/BENCH_step_latency.json`
//! with, per dataset and thread count:
//!
//! - measured host wall-time of the replay (whole backend, dominated by
//!   plan execution) and of the final full refactor alone;
//! - the simulated SuperNoVA-2S numeric latency and SoC cycles (identical
//!   across thread counts — the numeric results are bit-identical, so the
//!   priced trace is too);
//! - the plan's modeled subtree-parallel speedup
//!   (`total_cost / critical_path_cost`, unit-aware when the split pass
//!   produced a sub-unit overlay), which is what the measured speedup
//!   converges to given enough host cores, alongside the same ratio with
//!   the overlay ignored (`modeled_critical_path_speedup_unsplit`) so the
//!   split pass's critical-path win is a first-class gated number;
//! - the final plan's `largest_task_fraction` (share of total work in its
//!   single heaviest dispatchable item — the one-giant-task ceiling the
//!   split pass exists to break) and each run's `level_occupancy` at that
//!   thread count, plus the executed schedule's `split_units` count
//!   (sub-units dispatched: 0 at one thread, where fronts run whole);
//! - the dispatch mode of the final full-refactor host schedule (serial /
//!   level-batched — level-batched proves the interference certificate
//!   gate engaged) and that schedule's dispatch overhead per
//!   task, the number `bench_check` gates so the batched dispatcher's
//!   per-task bookkeeping cost cannot silently regress.
//!
//! `host_cpus` is recorded so a reader can tell whether the measured
//! speedup was core-limited (e.g. a 1-CPU CI container cannot show any
//! wall-time win regardless of the plan's parallelism).
//!
//! With `--trace <path>` the first dataset is additionally replayed once
//! through a span-traced engine (2 host threads, simulator attached) and
//! the resulting Chrome trace-event document is written to `<path>` —
//! load it in `chrome://tracing` or Perfetto to see, per step, the
//! solver phases, the host executor's per-worker task rows and the
//! modeled accelerator-unit occupancy.

use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

use supernova_datasets::Dataset;
use supernova_factors::Key;
use supernova_hw::Platform;
use supernova_linalg::NumericMode;
use supernova_runtime::{simulate_step, CostModel, SchedulerConfig};
use supernova_solvers::{Isam2, Isam2Config, OnlineSolver, RaIsam2Config, SolverEngine};
use supernova_sparse::ParallelExecutor;
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
                numeric_mode: engine.numeric_mode(),
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
    /// Wall seconds for the full online replay.
    wall_s: f64,
    /// Wall seconds for one full (all-nodes-dirty) refactor at the end.
    refactor_wall_s: f64,
    /// Simulated SuperNoVA-2S numeric seconds summed over steps.
    sim_numeric_s: f64,
    /// The same, in SoC cycles.
    sim_cycles: f64,
    /// Plan-modeled subtree parallelism of the final tree (unit-aware).
    modeled_speedup: f64,
    /// The same ratio with the split overlay ignored: whole tasks on the
    /// critical path. `modeled_speedup / modeled_speedup_unsplit` is the
    /// split pass's modeled critical-path win.
    modeled_speedup_unsplit: f64,
    /// Share of the final plan's total work concentrated in its heaviest
    /// dispatchable item (sub-unit when split, whole task otherwise).
    largest_task_fraction: f64,
    /// Work-weighted mean barrier-to-barrier occupancy of the final plan
    /// at this run's thread count.
    level_occupancy: f64,
    /// Sub-units the final full-refactor schedule dispatched (0 = the
    /// plan executed at whole-task granularity).
    split_units: u64,
    /// Dispatch strategy of the final full-refactor host schedule
    /// (0 serial, 2 level-batched; 1 is retired).
    dispatch_mode: u64,
    /// Numeric precision the run's kernels executed under
    /// (0 f64, 1 f32, 2 f32f64), from `SUPERNOVA_NUMERIC` — `bench_check`
    /// gates it exactly so a baseline comparison can't silently mix
    /// precisions.
    numeric_mode: u64,
    /// Dispatch overhead of that schedule, per task: the gap between
    /// `makespan * workers` and summed busy time, divided by task count.
    /// On a core-starved host this includes worker idle time, so it is
    /// gated with a tolerance, not exactly.
    dispatch_overhead_per_task_s: f64,
}

fn replay(dataset: &Dataset, threads: usize) -> Run {
    let platform = Platform::supernova(2);
    let sched = SchedulerConfig::default();
    let numeric = NumericMode::from_env();
    let mut solver = Isam2::new(Isam2Config::default());
    solver
        .core_mut()
        .set_executor(ParallelExecutor::new(threads).with_numeric(numeric));

    let steps = dataset.online_steps();
    let mut sim_numeric_s = 0.0;
    let t0 = Instant::now();
    for step in &steps {
        let trace = solver.step(step.truth.clone(), step.factors.clone());
        sim_numeric_s += simulate_step(&platform, &trace, &sched).numeric;
    }
    let wall_s = t0.elapsed().as_secs_f64();

    // One all-variables-dirty step on the final system: the heaviest
    // single plan execution the replay can produce.
    let keys: Vec<Key> = (0..solver.core().num_vars()).map(Key).collect();
    solver.core_mut().relinearize_vars(&keys);
    let t1 = Instant::now();
    let _ = solver.core_mut().factorize_and_solve();
    let refactor_wall_s = t1.elapsed().as_secs_f64();

    // The refactor above is the freshest plan execution, so its host
    // schedule witnesses which dispatch strategy the certificate gate
    // selected and what the dispatch machinery cost per task.
    let sched = solver.core().last_host_schedule();
    let dispatch_mode = sched.map(|s| s.mode.as_u64()).unwrap_or(0);
    let dispatch_overhead_per_task_s = sched
        .map(|s| s.dispatch_overhead_per_task_s())
        .unwrap_or(0.0);
    let split_units = sched.map(|s| s.split_units as u64).unwrap_or(0);

    let plan = solver.core().plan();
    let modeled_speedup = plan
        .map(|p| p.total_cost() as f64 / p.critical_path_cost().max(1) as f64)
        .unwrap_or(1.0);
    let modeled_speedup_unsplit = plan
        .map(|p| p.total_cost() as f64 / p.critical_path_cost_unsplit().max(1) as f64)
        .unwrap_or(1.0);
    let largest_task_fraction = plan.map(|p| p.largest_task_fraction()).unwrap_or(1.0);
    let level_occupancy = plan.map(|p| p.level_occupancy(threads)).unwrap_or(0.0);
    Run {
        threads,
        wall_s,
        refactor_wall_s,
        sim_numeric_s,
        sim_cycles: sim_numeric_s * platform.soc().freq_hz,
        modeled_speedup,
        modeled_speedup_unsplit,
        largest_task_fraction,
        level_occupancy,
        split_units,
        dispatch_mode,
        numeric_mode: numeric.as_u64(),
        dispatch_overhead_per_task_s,
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

    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"bench\": \"step_latency\",");
    let _ = writeln!(out, "  \"sim_platform\": \"supernova-2s\",");
    let _ = writeln!(out, "  \"host_cpus\": {host_cpus},");
    out.push_str("  \"datasets\": [\n");

    for (d, dataset) in datasets.iter().enumerate() {
        eprintln!("{}: {} steps", dataset.name(), dataset.num_steps());
        let runs: Vec<Run> = thread_counts.iter().map(|&t| replay(dataset, t)).collect();
        let serial = runs[0].wall_s;
        let serial_refactor = runs[0].refactor_wall_s;

        let _ = writeln!(out, "    {{");
        let _ = writeln!(out, "      \"name\": \"{}\",", dataset.name());
        let _ = writeln!(out, "      \"steps\": {},", dataset.num_steps());
        let _ = writeln!(
            out,
            "      \"modeled_critical_path_speedup\": {:.4},",
            runs.last().map(|r| r.modeled_speedup).unwrap_or(1.0)
        );
        let _ = writeln!(
            out,
            "      \"modeled_critical_path_speedup_unsplit\": {:.4},",
            runs.last()
                .map(|r| r.modeled_speedup_unsplit)
                .unwrap_or(1.0)
        );
        let _ = writeln!(
            out,
            "      \"largest_task_fraction\": {:.6},",
            runs.last().map(|r| r.largest_task_fraction).unwrap_or(1.0)
        );
        out.push_str("      \"runs\": [\n");
        for (i, r) in runs.iter().enumerate() {
            let _ = writeln!(out, "        {{");
            let _ = writeln!(out, "          \"threads\": {},", r.threads);
            let _ = writeln!(out, "          \"host_wall_s\": {:.6},", r.wall_s);
            let _ = writeln!(
                out,
                "          \"host_refactor_wall_s\": {:.6},",
                r.refactor_wall_s
            );
            let _ = writeln!(
                out,
                "          \"speedup_vs_serial\": {:.4},",
                serial / r.wall_s
            );
            let _ = writeln!(
                out,
                "          \"refactor_speedup_vs_serial\": {:.4},",
                serial_refactor / r.refactor_wall_s
            );
            let _ = writeln!(out, "          \"dispatch_mode\": {},", r.dispatch_mode);
            let _ = writeln!(out, "          \"numeric_mode\": {},", r.numeric_mode);
            let _ = writeln!(out, "          \"split_units\": {},", r.split_units);
            let _ = writeln!(
                out,
                "          \"level_occupancy\": {:.6},",
                r.level_occupancy
            );
            let _ = writeln!(
                out,
                "          \"dispatch_overhead_per_task_s\": {:.9},",
                r.dispatch_overhead_per_task_s
            );
            let _ = writeln!(out, "          \"sim_numeric_s\": {:.9},", r.sim_numeric_s);
            let _ = writeln!(out, "          \"sim_cycles\": {:.0}", r.sim_cycles);
            let comma = if i + 1 < runs.len() { "," } else { "" };
            let _ = writeln!(out, "        }}{comma}");
        }
        out.push_str("      ]\n");
        let comma = if d + 1 < datasets.len() { "," } else { "" };
        let _ = writeln!(out, "    }}{comma}");

        for r in &runs {
            eprintln!(
                "  {} threads: wall {:.3}s (refactor {:.4}s, {:.2}x), sim numeric {:.4}s, \
                 modeled {:.2}x (unsplit {:.2}x, ltf {:.3}, occ {:.3}), {} split units, \
                 dispatch mode {} ({:.1}us/task overhead), numeric {}",
                r.threads,
                r.wall_s,
                r.refactor_wall_s,
                serial_refactor / r.refactor_wall_s,
                r.sim_numeric_s,
                r.modeled_speedup,
                r.modeled_speedup_unsplit,
                r.largest_task_fraction,
                r.level_occupancy,
                r.split_units,
                r.dispatch_mode,
                r.dispatch_overhead_per_task_s * 1e6,
                r.numeric_mode
            );
        }
    }
    out.push_str("  ]\n}\n");

    std::fs::create_dir_all("results").expect("create results/");
    std::fs::write("results/BENCH_step_latency.json", &out)
        .expect("write results/BENCH_step_latency.json");
    eprintln!("wrote results/BENCH_step_latency.json");

    if let Some(path) = trace_path {
        dump_trace(&datasets[0], &path);
    }
}
