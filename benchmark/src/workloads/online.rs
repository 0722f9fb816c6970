//! The online workloads: one pose per step through `SolverEngine::step`
//! (RA-ISAM2), initial guesses composed from the previous estimate and the
//! odometry as `core::run_online` does, executor pinned to one thread (the
//! `ServeConfig::executor_threads` default). `simulate_step` runs outside
//! the timed interval.

use std::sync::Arc;
use std::time::Instant;

use supernova_datasets::OnlineStep;
use supernova_factors::{Key, Values};
use supernova_hw::Platform;
use supernova_metrics::ape;
use supernova_runtime::{simulate_step, CostModel, SchedulerConfig, StepLatency};
use supernova_solvers::{
    BatchConfig, BatchSolver, IncrementalCore, Isam2, Isam2Config, OnlineSolver, RaIsam2Config,
    SolverEngine,
};
use supernova_sparse::ParallelExecutor;
use supernova_trace::epoch_seconds;

use super::{Acc, ExecSeries, Layer, Prepared};
use crate::inputs::{self, initial_guess, Family};
use crate::layers::{self, RELAX, REORDER_FILL_RATIO};
use crate::spans::{self, PhaseTable, Tracer};
use crate::stats;

/// Gauss–Newton iterations of the batch reference, and the last step's
/// `‖Δ‖∞` below which it counts as converged.
const BATCH_ITERATIONS: usize = 16;
const BATCH_CONVERGED: f64 = 1e-3;

pub struct Online {
    pub family: Family,
    pub poses: usize,
    /// Accelerator sets of the `Platform::supernova` the budget is priced on.
    pub accel_sets: usize,
    pub target_seconds: f64,
    /// Final APE (RMSE, metres) against the batch reference above which the
    /// run's outputs are wrong.
    pub ape_ceiling_m: f64,
    /// Whether the traced run adds the phase driver. It issues the calls
    /// `Isam2::step` makes; where RA-ISAM2 defers nothing it relinearizes
    /// the same set, so the phase shares carry over to the engine's step.
    pub phase_driver: bool,
}

struct OnlineRun {
    cfg: Online,
    steps: Vec<OnlineStep>,
    reference: Values,
    /// `‖Δ‖∞` of the reference's last Gauss–Newton iteration.
    reference_step: f64,
    /// First timed step: the first that carries a loop closure. Before it
    /// the graph is a chain and a step costs microseconds; at these
    /// truncated sizes those steps would be a third of the operations.
    warm: usize,
    platform: Platform,
    cost: Arc<CostModel>,
    setup: Layer,
    /// The first replay's final estimate; every later one must equal it.
    first_estimate: Option<Values>,
    last_engine: Option<SolverEngine>,
}

pub fn prepare(cfg: Online, seed: u64) -> Box<dyn Prepared> {
    let t0 = Instant::now();
    let dataset = inputs::dataset(cfg.family, cfg.poses, seed);
    let steps = dataset.online_steps();
    let generate_s = t0.elapsed().as_secs_f64();

    // The reference the accuracy check compares against: the whole graph
    // solved from the ground truth (evaluation only; the online solvers
    // never see it). A fixed number of Gauss–Newton iterations, so that
    // `setup_s` does not move with how many a seed's noise happens to need
    // (5 – 13 to a 1e-5 step); the run fails if they did not converge.
    let t1 = Instant::now();
    let (graph, _) = dataset.full_graph();
    let mut truth = Values::new();
    for pose in dataset.ground_truth() {
        truth.insert(pose.clone());
    }
    let (reference, batch) = BatchSolver::new(BatchConfig {
        max_iterations: BATCH_ITERATIONS,
        tolerance: 0.0,
        use_min_degree: true,
        relax: RELAX,
    })
    .solve(&graph, &truth);
    let batch_s = t1.elapsed().as_secs_f64();

    let warm = steps
        .iter()
        .position(|s| s.factors.len() > 1 && s.odometry.is_some())
        .unwrap_or(0);
    let platform = Platform::supernova(cfg.accel_sets);
    Box::new(OnlineRun {
        cost: Arc::new(CostModel::new(platform.clone())),
        platform,
        cfg,
        steps,
        reference,
        reference_step: batch.final_step_norm,
        warm,
        setup: Layer::from([
            ("datasets.generate_ms", generate_s * 1e3),
            ("solvers.batch_ms", batch_s * 1e3),
            ("solvers.batch_iterations", batch.iterations as f64),
        ]),
        first_estimate: None,
        last_engine: None,
    })
}

impl OnlineRun {
    /// The plain `Isam2::step` replay: per-step seconds and the solver.
    fn isam2_replay(&self) -> (Vec<f64>, Isam2) {
        let mut solver = Isam2::new(Isam2Config::default());
        solver.core_mut().set_executor(ParallelExecutor::new(1));
        let mut step_s = Vec::with_capacity(self.steps.len());
        for (i, step) in self.steps.iter().enumerate() {
            let init = initial_guess(step, i, |k| solver.pose_estimate(k));
            let factors = step.factors.clone();
            let t0 = Instant::now();
            solver.step(init, factors);
            step_s.push(t0.elapsed().as_secs_f64());
        }
        (step_s, solver)
    }

    /// The phase driver: the public `IncrementalCore` calls `Isam2::step`
    /// makes under `Isam2Config::default()`, one span per call.
    fn phase_replay(&self, tracer: &mut Tracer, series: &mut PhaseTable) -> IncrementalCore {
        // `Isam2Config::default().beta` and the crate-private reorder
        // trigger of `solvers::isam2`; the byte-identity check against
        // `Isam2::step` fails if they drift.
        const BETA: f64 = 0.02;
        const REORDER_MIN_PERIOD: usize = 40;

        let mut core = IncrementalCore::new(RELAX);
        core.set_executor(ParallelExecutor::new(1));
        let mut since_reorder = 0usize;
        let mut dirty = Vec::with_capacity(self.steps.len());
        for (i, step) in self.steps.iter().enumerate() {
            let init = initial_guess(step, i, |k| core.pose_estimate(k));
            let factors = step.factors.clone();
            let epoch0 = epoch_seconds();
            tracer.begin("isam2.step", "solvers", i);

            tracer.begin("add", "solvers", i);
            core.add_variable(init);
            for f in factors {
                core.add_factor(f);
            }
            tracer.end();

            tracer.begin("reorder", "solvers", i);
            since_reorder += 1;
            if core.fill_ratio() > REORDER_FILL_RATIO && since_reorder >= REORDER_MIN_PERIOD {
                if let Some(plan) = core.reorder_candidate() {
                    core.apply_reorder(plan);
                    since_reorder = 0;
                }
            }
            tracer.end();

            tracer.begin("select", "solvers", i);
            let candidates: Vec<Key> = (0..core.num_vars())
                .map(Key)
                .filter(|&k| core.relevance(k) > BETA)
                .collect();
            tracer.end();

            tracer.span("relin", "solvers", i, || core.relinearize_vars(&candidates));
            tracer.span("analyze", "solvers", i, || {
                core.analyze();
            });
            dirty.push(core.dirty_blocks().len() as f64);
            let solve = tracer.begin("factor_solve", "solvers", i);
            core.factorize_and_solve();
            tracer.end();
            tracer.end();

            if let Some(s) = core.last_host_schedule().filter(|s| s.origin >= epoch0) {
                tracer.child_of(solve, "isam2.exec", "sparse", 0.0, s.makespan());
            }
        }
        series.insert("dirty_blocks", dirty);
        core
    }

    /// The traced extra of the two ISAM2-equivalent workloads: plain
    /// replay, phase-driver replay, and their identity.
    fn phase_driver(&self, acc: &mut Acc, tracer: &mut Tracer, series: &mut PhaseTable) {
        let (plain_s, plain) = self.isam2_replay();
        let core = self.phase_replay(tracer, series);
        let n = self.steps.len() as u64;
        acc.check(
            plain.core().numeric_bytes() == core.numeric_bytes(),
            n,
            || "phase driver's numeric factor differs from Isam2::step's".into(),
        );
        acc.check(plain.estimate() == core.estimate(), n, || {
            "phase driver's estimate differs from Isam2::step's".into()
        });
        series.insert("isam2.plain", plain_s);
    }
}

impl Prepared for OnlineRun {
    fn replay(&mut self, acc: &mut Acc, mut tracer: Tracer) {
        let n = self.steps.len();
        let mut engine = SolverEngine::new(
            RaIsam2Config {
                target_seconds: self.cfg.target_seconds,
                relax: RELAX,
                ..RaIsam2Config::default()
            },
            Arc::clone(&self.cost) as _,
        );
        engine.set_executor(ParallelExecutor::new(1));
        let sched = SchedulerConfig::default();

        let mut step_s = Vec::with_capacity(n);
        let mut sim: Vec<StepLatency> = Vec::with_capacity(n);
        let mut sim_host_s = Vec::with_capacity(n);
        let mut series = PhaseTable::new();
        let mut exec = ExecSeries::new(n);
        let (mut selected, mut deferred, mut visited) = (0usize, 0usize, 0usize);
        let (mut relin_factors, mut recomputed, mut tasks) = (0usize, 0usize, 0usize);
        let mut not_finite = 0u64;
        for (i, step) in self.steps.iter().enumerate() {
            let init = initial_guess(step, i, |k| engine.pose_estimate(k));
            let factors = step.factors.clone();
            let epoch0 = epoch_seconds();
            let span = tracer.begin("engine.step", "solvers", i);
            let t0 = Instant::now();
            let trace = engine.step(init, factors);
            step_s.push(t0.elapsed().as_secs_f64());
            tracer.end();

            let t1 = Instant::now();
            sim.push(simulate_step(&self.platform, &trace, &sched));
            sim_host_s.push(t1.elapsed().as_secs_f64());

            let (s, d) = engine.last_selected_deferred();
            selected += s;
            deferred += d;
            visited += trace.selection_nodes_visited;
            relin_factors += trace.relin_factors;
            recomputed += trace.nodes.len();
            let core = engine.solver().core();
            tasks += core.plan().map_or(0, |p| p.num_tasks());
            let moved = engine
                .pose_estimate(Key(i))
                .translation_distance(&step.truth);
            not_finite += u64::from(!moved.is_finite());
            exec.record(&mut tracer, span, i, epoch0, core);
            if tracer.on() {
                layers::replay_analyze(core, &mut tracer, i);
            }
        }
        acc.warm = self.warm;
        acc.take_ops(&step_s[self.warm..]);
        let timed = (n - self.warm) as u64;

        // Outputs: finite, on budget, repeatable, and close to the batch
        // solution.
        acc.check(not_finite == 0, not_finite, || {
            format!("{not_finite} step(s) left a non-finite pose estimate")
        });
        let target = self.cfg.target_seconds;
        let missed = sim.iter().filter(|l| l.total() > target).count() as u64;
        acc.check(missed == 0, missed, || {
            format!("{missed} step(s) over the {target} s simulated budget")
        });
        let estimate = engine.estimate();
        let same = *self.first_estimate.get_or_insert_with(|| estimate.clone()) == estimate;
        acc.check(same, timed, || "estimate differs between replays".into());
        let last_step = self.reference_step;
        acc.check(last_step < BATCH_CONVERGED, timed, || {
            format!(
                "batch reference still moving by {last_step} after {BATCH_ITERATIONS} iterations"
            )
        });
        let ape_rmse = ape(&estimate, &self.reference).rmse;
        acc.check(ape_rmse <= self.cfg.ape_ceiling_m, timed, || {
            format!(
                "final APE {ape_rmse} m over the {} m ceiling",
                self.cfg.ape_ceiling_m
            )
        });

        // Counts and simulated times repeat exactly; the latest replay's
        // stand.
        let totals: Vec<f64> = sim.iter().map(StepLatency::total).collect();
        let sum = |part: fn(&StepLatency) -> f64| sim.iter().map(part).sum::<f64>() * 1e3;
        let core = engine.solver().core();
        let layer = &mut acc.layer;
        layer.insert("metrics.ape_rmse_m", ape_rmse);
        layer.insert("runtime.sim_step_p95_ms", stats::p95(&totals) * 1e3);
        layer.insert("runtime.sim_deadline_miss_frac", missed as f64 / n as f64);
        layer.insert("runtime.sim_numeric_ms_sum", sum(|l| l.numeric));
        layer.insert("runtime.sim_relin_ms_sum", sum(|l| l.relin));
        layer.insert("runtime.sim_symbolic_ms_sum", sum(|l| l.symbolic));
        layer.insert("runtime.sim_overhead_ms_sum", sum(|l| l.overhead));
        layer.insert(
            "runtime.budget_fill_frac",
            totals.iter().sum::<f64>() / (n as f64 * target),
        );
        layer.insert("runtime.simulate_us_p50", stats::p50(&sim_host_s) * 1e6);
        layer.insert(
            "hw.sim_cycles",
            sum(|l| l.numeric) * 1e-3 * self.platform.soc().freq_hz,
        );
        layer.insert("solvers.ra_selected", selected as f64);
        layer.insert("solvers.ra_deferred", deferred as f64);
        layer.insert("solvers.selection_nodes_visited", visited as f64);
        layer.insert("solvers.relin_vars", selected as f64);
        layer.insert("solvers.relin_factors", relin_factors as f64);
        layer.insert("solvers.plan_rebuilds", engine.plan_generation() as f64);
        layer.insert("solvers.reorders", core.reorders() as f64);
        layer.insert("solvers.damping_events", core.damping_events() as f64);
        layer.insert("sparse.tasks_total", tasks as f64);
        layer.insert("sparse.tasks_recomputed", recomputed as f64);
        layer.insert(
            "sparse.recompute_frac",
            recomputed as f64 / tasks.max(1) as f64,
        );

        series.extend(exec.into_series());
        if tracer.on() && self.cfg.phase_driver {
            self.phase_driver(acc, &mut tracer, &mut series);
        }
        acc.take_spans(tracer, series);
        self.last_engine = Some(engine);
    }

    fn finish(&mut self, acc: &mut Acc, traced: bool) {
        let Some(engine) = self.last_engine.as_ref().filter(|_| traced) else {
            return;
        };
        acc.layer.extend(self.setup.clone());
        let core = engine.solver().core();
        layers::linearize_sweep(core, &mut acc.layer);
        if let Some(plan) = core.plan() {
            layers::kernel_section(plan, &mut acc.layer);
        }
        super::plan_metrics(core, &mut acc.layer);
        acc.set_p50("solvers.step_ms_p50", "engine.step", 1e3);
        acc.set_p50("sparse.symbolic_ms_p50", "symbolic", 1e3);
        acc.set_p50("sparse.plan_ms_p50", "plan", 1e3);
        acc.set_p50("sparse.certify_ms_p50", "certify", 1e3);
        acc.exec_metrics("engine.step", core.executor().threads());
        acc.layer.insert("trace.spans", acc.spans.len() as f64);
        if !self.cfg.phase_driver {
            return;
        }

        for (p50, share, phase) in [
            ("solvers.add_ms_p50", "solvers.add_share", "add"),
            ("solvers.select_ms_p50", "solvers.select_share", "select"),
            ("solvers.relin_ms_p50", "solvers.relin_share", "relin"),
            ("solvers.analyze_ms_p50", "solvers.analyze_share", "analyze"),
            (
                "solvers.factor_solve_ms_p50",
                "solvers.factor_solve_share",
                "factor_solve",
            ),
        ] {
            acc.set_p50(p50, phase, 1e3);
            acc.set_share(share, phase, "isam2.step");
        }
        acc.set_share("solvers.reorder_share", "reorder", "isam2.step");
        acc.grad_solve_metrics("factor_solve", "isam2.exec", "isam2.step");
        let step_sum = acc.phase_sum("isam2.step");
        acc.layer.insert(
            "solvers.dirty_blocks",
            acc.phase("dirty_blocks").iter().sum(),
        );
        // Within the latest traced replay: the step span's self time.
        let own = spans::self_times(&acc.spans);
        let whole: f64 = acc
            .spans
            .iter()
            .filter(|s| s.name == "isam2.step")
            .map(|s| s.seconds())
            .sum();
        acc.layer
            .insert("solvers.unattributed_frac", own["isam2.step"] / whole);
        acc.layer.insert(
            "trace.bench_overhead_frac",
            step_sum / acc.phase_sum("isam2.plain") - 1.0,
        );
    }
}
