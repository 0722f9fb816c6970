//! The metric names, units and bounds: the one table `BENCHMARK.json` is
//! printed from (`benchmark manifest`) and every run reports against.

/// Seconds one run measures (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 15;

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
}

/// What a user of the system sees, on every workload. An operation is the
/// workload's own: an online step, a `factorize_and_solve()`, a served
/// update, a routed submit.
pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "op_p50_ms",
        unit: "ms",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "op_p95_ms",
        unit: "ms",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        better: "higher",
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: "lower",
        bound: 0.20,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
];

/// `(name, unit, better)` of every per-layer metric; the layer is the
/// crate name before the dot. A workload reports 0 where a metric does
/// not apply to it.
pub const PER_LAYER: [(&str, &str, &str); 94] = [
    // solvers: the phases of a step (phase driver) or the step as one span.
    ("solvers.add_ms_p50", "ms", "lower"),
    ("solvers.add_share", "fraction", "lower"),
    ("solvers.reorder_share", "fraction", "lower"),
    ("solvers.select_ms_p50", "ms", "lower"),
    ("solvers.select_share", "fraction", "lower"),
    ("solvers.relin_ms_p50", "ms", "lower"),
    ("solvers.relin_share", "fraction", "lower"),
    ("solvers.analyze_ms_p50", "ms", "lower"),
    ("solvers.analyze_share", "fraction", "lower"),
    ("solvers.factor_solve_ms_p50", "ms", "lower"),
    ("solvers.factor_solve_share", "fraction", "lower"),
    ("solvers.step_ms_p50", "ms", "lower"),
    ("solvers.exec_share", "fraction", "higher"),
    ("solvers.grad_solve_ms_p50", "ms", "lower"),
    ("solvers.grad_solve_share", "fraction", "lower"),
    ("solvers.relin_all_ms_p50", "ms", "lower"),
    ("solvers.unattributed_frac", "fraction", "lower"),
    ("solvers.relin_vars", "count", "lower"),
    ("solvers.relin_factors", "count", "lower"),
    ("solvers.dirty_blocks", "count", "lower"),
    ("solvers.plan_rebuilds", "count", "lower"),
    ("solvers.reorders", "count", "lower"),
    ("solvers.damping_events", "count", "lower"),
    ("solvers.ra_selected", "count", "higher"),
    ("solvers.ra_deferred", "count", "lower"),
    ("solvers.selection_nodes_visited", "count", "lower"),
    ("solvers.batch_ms", "ms", "lower"),
    ("solvers.batch_iterations", "count", "lower"),
    // sparse: analyze's three functions replayed, and plan execution.
    ("sparse.plan_ms_p50", "ms", "lower"),
    ("sparse.certify_ms_p50", "ms", "lower"),
    ("sparse.symbolic_ms_p50", "ms", "lower"),
    ("sparse.exec_makespan_ms_p50", "ms", "lower"),
    ("sparse.exec_busy_ms_p50", "ms", "lower"),
    ("sparse.dispatch_overhead_us_per_task", "us", "lower"),
    ("sparse.kernel_flops", "count", "lower"),
    ("sparse.exec_gflops", "GFLOP/s", "higher"),
    ("sparse.workers", "count", "higher"),
    ("sparse.tasks_total", "count", "lower"),
    ("sparse.tasks_recomputed", "count", "lower"),
    ("sparse.recompute_frac", "fraction", "lower"),
    ("sparse.level_occupancy", "fraction", "higher"),
    ("sparse.critical_path_speedup", "ratio", "higher"),
    ("sparse.l_nnz", "count", "lower"),
    ("sparse.pool_grow_events", "count", "lower"),
    ("sparse.refactor_t2_ms_p50", "ms", "lower"),
    ("sparse.scaling_t2", "ratio", "higher"),
    ("sparse.min_degree_ms", "ms", "lower"),
    // linalg: the dense kernels at the plan's front shapes, flop-weighted.
    ("linalg.peak_gflops", "GFLOP/s", "higher"),
    ("linalg.gemm_gflops", "GFLOP/s", "higher"),
    ("linalg.syrk_gflops", "GFLOP/s", "higher"),
    ("linalg.trsm_gflops", "GFLOP/s", "higher"),
    ("linalg.potrf_gflops", "GFLOP/s", "higher"),
    ("linalg.front_gflops", "GFLOP/s", "higher"),
    ("linalg.roofline_frac", "fraction", "higher"),
    ("linalg.flops_per_byte", "flop/B", "higher"),
    ("linalg.front_dim_p50", "count", "lower"),
    ("linalg.front_dim_max", "count", "lower"),
    ("factors.linearize_ns_per_factor", "ns", "lower"),
    ("factors.count", "count", "lower"),
    ("factors.jacobian_elems", "count", "lower"),
    // runtime / hw / metrics: the simulated SoC's view (repeats exactly).
    ("runtime.simulate_us_p50", "us", "lower"),
    ("runtime.sim_numeric_ms_sum", "ms", "lower"),
    ("runtime.sim_relin_ms_sum", "ms", "lower"),
    ("runtime.sim_symbolic_ms_sum", "ms", "lower"),
    ("runtime.sim_overhead_ms_sum", "ms", "lower"),
    ("runtime.sim_step_p95_ms", "ms", "lower"),
    ("runtime.sim_deadline_miss_frac", "fraction", "lower"),
    ("runtime.budget_fill_frac", "fraction", "lower"),
    ("hw.sim_cycles", "count", "lower"),
    ("metrics.ape_rmse_m", "m", "lower"),
    ("serve.submit_call_us_p50", "us", "lower"),
    ("serve.drain_call_ms_p50", "ms", "lower"),
    ("serve.queue_wait_ms_p50", "ms", "lower"),
    ("serve.queue_wait_ms_p95", "ms", "lower"),
    ("serve.run_ms_p50", "ms", "lower"),
    ("serve.run_ms_p95", "ms", "lower"),
    ("serve.worker_busy_frac", "fraction", "higher"),
    ("serve.max_queue_depth", "count", "lower"),
    ("serve.shed", "count", "lower"),
    ("serve.degraded_steps", "count", "lower"),
    ("fleet.create_ms_p50", "ms", "lower"),
    ("fleet.submit_ms_p50", "ms", "lower"),
    ("fleet.checkpoint_submit_ms_p50", "ms", "lower"),
    ("fleet.estimate_ms_p50", "ms", "lower"),
    ("fleet.close_ms_p50", "ms", "lower"),
    ("fleet.shard_run_ms_p50", "ms", "lower"),
    ("fleet.journal_records", "count", "lower"),
    ("fleet.journal_bytes", "count", "lower"),
    ("fleet.checkpoints", "count", "lower"),
    ("fleet.compactions", "count", "lower"),
    ("datasets.generate_ms", "ms", "lower"),
    ("trace.bench_overhead_frac", "fraction", "lower"),
    ("trace.spans", "count", "lower"),
    ("trace.replays", "count", "higher"),
];
