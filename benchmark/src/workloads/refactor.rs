//! `sphere_refactor`: the all-dirty use of the layer the online workloads
//! use incrementally. A sphere graph is bulk-built through
//! `IncrementalCore::{add_variable, add_factor}` and reordered once; each
//! rep relinearizes every variable (untimed) and times one
//! `factorize_and_solve()` on one executor thread.
//!
//! The same reps on two threads run once after the last replay: their
//! factor bytes must equal the one-thread bytes, and the traced run
//! reports their time (`sparse.refactor_t2_ms_p50`, `sparse.scaling_t2`).
//! Two threads are not a workload of their own: on the shared 2-vCPU
//! reference host their p50 sat at 7.8 – 9.5 ms for minutes and then at
//! 15 – 16 ms for minutes (one thread: 8.7 – 10.2 ms throughout), which no
//! bound up to 0.25 holds.

use std::time::Instant;

use supernova_datasets::OnlineStep;
use supernova_factors::{Key, Variable};
use supernova_solvers::IncrementalCore;
use supernova_sparse::{ordering, ParallelExecutor};
use supernova_trace::epoch_seconds;

use super::{Acc, ExecSeries, Layer, Prepared};
use crate::inputs::{self, Family};
use crate::layers::{self, RELAX, REORDER_FILL_RATIO};
use crate::spans::{PhaseTable, Tracer};
use crate::stats;

struct RefactorRun {
    steps: Vec<OnlineStep>,
    /// Dead-reckoned initial values, one per pose.
    initial: Vec<Variable>,
    reps: usize,
    setup: Layer,
    /// Factor bytes after the first replay's last rep.
    bytes: Option<Vec<u8>>,
    last_core: Option<IncrementalCore>,
}

pub fn prepare(poses: usize, reps: usize, seed: u64) -> Box<dyn Prepared> {
    let t0 = Instant::now();
    let dataset = inputs::dataset(Family::Sphere, poses, seed);
    let steps = dataset.online_steps();
    let (_, values) = dataset.full_graph();
    let initial = values.iter().map(|(_, v)| v.clone()).collect();
    let generate_s = t0.elapsed().as_secs_f64();

    let mut run = RefactorRun {
        steps,
        initial,
        reps,
        setup: Layer::new(),
        bytes: None,
        last_core: None,
    };
    // Building once belongs to set-up; every replay builds its own.
    let core = run.build(1);
    let pattern = layers::pattern_of(&core);
    let t1 = Instant::now();
    std::hint::black_box(ordering::min_degree(&pattern));
    run.setup = Layer::from([
        ("datasets.generate_ms", generate_s * 1e3),
        ("sparse.min_degree_ms", t1.elapsed().as_secs_f64() * 1e3),
    ]);
    Box::new(run)
}

impl RefactorRun {
    fn build(&self, threads: usize) -> IncrementalCore {
        let mut core = IncrementalCore::new(RELAX);
        core.set_executor(ParallelExecutor::new(threads));
        for (guess, step) in self.initial.iter().zip(&self.steps) {
            core.add_variable(guess.clone());
            for f in &step.factors {
                core.add_factor(f.clone());
            }
        }
        core.analyze();
        if core.fill_ratio() > REORDER_FILL_RATIO {
            if let Some(plan) = core.reorder_candidate() {
                core.apply_reorder(plan);
            }
            core.analyze();
        }
        core
    }

    /// Builds a core on `threads` and runs the reps: per-rep seconds of
    /// `factorize_and_solve()`, and the core as the last rep left it.
    fn run_reps(
        &self,
        threads: usize,
        tracer: &mut Tracer,
        series: &mut PhaseTable,
    ) -> (Vec<f64>, IncrementalCore) {
        let mut core = self.build(threads);
        let all: Vec<Key> = (0..core.num_vars()).map(Key).collect();
        let mut rep_s = Vec::with_capacity(self.reps);
        let mut exec = ExecSeries::new(self.reps);
        for rep in 0..self.reps {
            tracer.span("relin_all", "solvers", rep, || core.relinearize_vars(&all));
            let epoch0 = epoch_seconds();
            let span = tracer.begin("factor_solve", "solvers", rep);
            let t0 = Instant::now();
            core.factorize_and_solve();
            rep_s.push(t0.elapsed().as_secs_f64());
            tracer.end();
            exec.record(tracer, span, rep, epoch0, &core);
        }
        series.extend(exec.into_series());
        (rep_s, core)
    }
}

impl Prepared for RefactorRun {
    fn replay(&mut self, acc: &mut Acc, mut tracer: Tracer) {
        let mut series = PhaseTable::new();
        let (rep_s, core) = self.run_reps(1, &mut tracer, &mut series);
        acc.take_ops(&rep_s);
        let bytes = core.numeric_bytes();
        let same = *self
            .bytes
            .get_or_insert_with(|| bytes.clone().unwrap_or_default())
            == bytes.unwrap_or_default();
        acc.check(same, rep_s.len() as u64, || {
            "factor bytes differ between replays".into()
        });
        acc.take_spans(tracer, series);
        self.last_core = Some(core);
    }

    fn finish(&mut self, acc: &mut Acc, traced: bool) {
        // Two threads must produce the same factor, bit for bit.
        let (t2_s, t2_core) = self.run_reps(2, &mut Tracer::new(false), &mut PhaseTable::new());
        let same = t2_core.numeric_bytes() == self.bytes;
        acc.check(same, self.reps as u64, || {
            "factor bytes differ between 1 and 2 executor threads".into()
        });
        let Some(core) = self.last_core.as_ref().filter(|_| traced) else {
            return;
        };

        acc.layer.extend(self.setup.clone());
        let (t1, t2) = (stats::p50(&acc.ops), stats::p50(&t2_s));
        acc.layer.insert("sparse.refactor_t2_ms_p50", t2 * 1e3);
        acc.layer.insert("sparse.scaling_t2", t1 / t2);
        if let Some(plan) = core.plan() {
            layers::kernel_section(plan, &mut acc.layer);
            let tasks = (plan.num_tasks() * self.reps) as f64;
            acc.layer.insert("sparse.tasks_total", tasks);
            acc.layer.insert("sparse.tasks_recomputed", tasks);
            acc.layer.insert("sparse.recompute_frac", 1.0);
        }
        super::plan_metrics(core, &mut acc.layer);
        layers::linearize_sweep(core, &mut acc.layer);
        acc.layer.insert("solvers.reorders", core.reorders() as f64);
        acc.layer
            .insert("solvers.damping_events", core.damping_events() as f64);
        acc.set_p50("solvers.relin_all_ms_p50", "relin_all", 1e3);
        acc.set_p50("solvers.factor_solve_ms_p50", "factor_solve", 1e3);
        acc.exec_metrics("factor_solve", core.executor().threads());
        acc.grad_solve_metrics("factor_solve", "exec", "factor_solve");
        acc.layer.insert("trace.spans", acc.spans.len() as f64);
    }
}
