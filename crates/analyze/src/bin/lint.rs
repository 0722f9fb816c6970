//! Dynamic invariant driver: `cargo run -p supernova-analyze --bin lint`.
//!
//! Runs a schedule/ledger invariant sweep of the virtual-time scheduler
//! across every ablation configuration on a synthetic elimination forest,
//! then a host-schedule sweep on the real plan executor, then a
//! unified-trace sweep: each seeded dataset is replayed through a traced
//! `SolverEngine` and every step's span tree is run through
//! `validate_trace`. Exits nonzero if anything is flagged, so
//! `scripts/ci.sh` can gate on it. The source lint pass is not run here:
//! the `analyze` bin runs it once per CI run (stage `static-analysis`).

use std::process::ExitCode;
use std::sync::Arc;

use supernova_analyze::{validate_host_schedule, validate_step, validate_trace};
use supernova_datasets::Dataset;
use supernova_hw::Platform;
use supernova_linalg::ops::Op;
use supernova_linalg::Mat;
use supernova_runtime::{CostModel, NodeWork, SchedulerConfig, StepTrace};
use supernova_solvers::{RaIsam2Config, SolverEngine};
use supernova_sparse::{
    BlockMat, BlockPattern, ExecutionPlan, NumericFactor, ParallelExecutor, SymbolicFactor,
};
use supernova_trace::{StepKey, Trace, TraceConfig};

/// A synthetic step: a binary elimination tree of 15 supernodes with
/// realistic op mixes, plus hessian and solve streams.
fn synthetic_trace() -> StepTrace {
    let mut nodes = Vec::new();
    for i in 0..15usize {
        let parent = if i < 14 { Some(8 + i / 2) } else { None };
        let (m, n) = if i < 8 {
            (16, 16)
        } else if i < 14 {
            (24, 12)
        } else {
            (48, 0)
        };
        let t = m + n;
        let mut w = NodeWork {
            node: i,
            parent,
            pivot_dim: m,
            rem_dim: n,
            ..NodeWork::default()
        };
        w.factor_bytes = m * m * 4;
        w.ops.push(Op::Memset { bytes: t * t * 4 });
        w.ops.push(Op::Memcpy { bytes: m * t * 4 });
        w.ops.push(Op::ScatterAdd {
            blocks: 4,
            elems: m * m,
        });
        w.ops.push(Op::Chol { n: m });
        if n > 0 {
            w.ops.push(Op::Trsm { m: n, n: m });
            w.ops.push(Op::Syrk { n, k: m });
        }
        nodes.push(w);
    }
    let mut trace = StepTrace {
        nodes,
        ..StepTrace::default()
    };
    trace.hessian_ops.push(Op::Gemm {
        m: 12,
        n: 12,
        k: 12,
    });
    trace.hessian_ops.push(Op::Memcpy { bytes: 8192 });
    trace.solve_ops.push(Op::Gemv { m: 48, n: 48 });
    trace
}

/// Factorize a banded-plus-loop SPD system on the real plan executor (full
/// refactor, then an incremental dirty subset) and validate each resulting
/// [`supernova_sparse::HostSchedule`] for coverage, happens-before, and
/// exclusivity.
fn check_host_schedules() -> Result<usize, String> {
    let blocks = 24usize;
    let mut pattern = BlockPattern::new((0..blocks).map(|i| 2 + i % 3).collect());
    for i in 0..blocks - 1 {
        pattern.add_block_edge(i, i + 1);
    }
    pattern.add_block_edge(0, 9);
    pattern.add_block_edge(5, 17);
    pattern.add_block_edge(11, blocks - 1);

    let dims = pattern.block_dims().to_vec();
    let mut h = BlockMat::new(dims.clone());
    for j in 0..blocks {
        for &i in pattern.col(j) {
            let m = Mat::from_fn(dims[i], dims[j], |r, c| 0.03 * ((r + 3 * c + i + j) as f64));
            h.add_to_block(i, j, &m);
        }
        h.add_to_block(j, j, &Mat::from_diag(&vec![8.0; dims[j]]));
    }

    let sym = SymbolicFactor::analyze(&pattern, 8);
    let plan = ExecutionPlan::from_symbolic(&sym);
    let all: Vec<usize> = (0..blocks).collect();
    let dirty = vec![3usize, 15];

    let mut checked = 0usize;
    let exec = ParallelExecutor::default();
    let mut num = NumericFactor::empty(&plan);
    for (label, seeds) in [("full", &all), ("incremental", &dirty)] {
        let (stats, sched) = num
            .execute_plan(&plan, &h, seeds, &exec)
            .map_err(|e| format!("{label}: factorization failed: {e}"))?;
        let violations = validate_host_schedule(&plan, &sched, &stats.recomputed_nodes());
        if !violations.is_empty() {
            let msgs: Vec<String> = violations.iter().map(|v| format!("{label}: {v}")).collect();
            return Err(msgs.join("\n  "));
        }
        checked += 1;
    }
    Ok(checked)
}

/// Replays each seeded dataset through a traced engine (SuperNoVA-2S
/// hardware pricing) and validates every step's span tree. Returns
/// (traces checked, total spans) on success.
fn check_traces() -> Result<(usize, usize), String> {
    let datasets = [
        Dataset::m3500_scaled(0.06),
        Dataset::sphere_scaled(0.12),
        Dataset::cab1_scaled(0.2),
    ];
    let mut traces = 0usize;
    let mut spans = 0usize;
    for ds in &datasets {
        let platform = Platform::supernova(2);
        let cost = Arc::new(CostModel::new(platform.clone()));
        let mut engine = SolverEngine::new(RaIsam2Config::default(), cost);
        engine.set_trace(TraceConfig::on());
        engine.set_trace_hw(platform, SchedulerConfig::default());
        for (i, step) in ds.online_steps().into_iter().enumerate() {
            engine.step(step.truth, step.factors);
            let root = engine
                .take_step_span()
                .ok_or_else(|| format!("{}: step {i} emitted no span tree", ds.name()))?;
            let trace = Trace {
                key: StepKey {
                    session: 0,
                    seq: i as u64,
                    step: i as u64 + 1,
                },
                root,
            };
            let violations = validate_trace(&trace);
            if !violations.is_empty() {
                let msgs: Vec<String> = violations
                    .iter()
                    .map(|v| format!("{} step {i}: {v}", ds.name()))
                    .collect();
                return Err(msgs.join("\n  "));
            }
            traces += 1;
            spans += trace.span_count();
        }
    }
    Ok((traces, spans))
}

fn main() -> ExitCode {
    let mut failed = false;

    println!("invariants: checking scheduler ablations");
    let trace = synthetic_trace();
    let platforms = [
        Platform::supernova(1),
        Platform::supernova(2),
        Platform::supernova(4),
        Platform::spatula(2),
        Platform::boom(),
        Platform::server_cpu(),
        Platform::embedded_gpu(),
    ];
    let mut checked = 0usize;
    for platform in &platforms {
        for cfg in SchedulerConfig::ablations() {
            checked += 1;
            if let Err(violations) = validate_step(platform, &trace, &cfg) {
                failed = true;
                for v in violations {
                    println!("  {} {cfg:?}: {v}", platform.name());
                }
            }
        }
    }
    if !failed {
        println!("invariants: {checked} schedule(s) clean");
    }

    println!("host-exec: checking plan-executor schedules");
    match check_host_schedules() {
        Ok(n) => println!("host-exec: {n} schedule(s) clean"),
        Err(msg) => {
            println!("  {msg}");
            failed = true;
        }
    }

    println!("traces: validating span trees over seeded datasets");
    match check_traces() {
        Ok((n, spans)) => println!("traces: {n} step trace(s) clean ({spans} spans)"),
        Err(msg) => {
            println!("  {msg}");
            failed = true;
        }
    }

    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
