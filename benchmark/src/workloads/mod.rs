//! The workloads, and what a run accumulates over their replays.
//!
//! A workload prepares its inputs from the seed (`setup_s`), then replays
//! one deterministic stream of operations as often as the run's seconds
//! allow. Each operation keeps the smallest duration any replay saw.

use std::collections::BTreeMap;

use crate::inputs::Family;
use crate::spans::{PhaseTable, Span, Tracer};
use crate::stats;

mod fleet;
mod online;
mod refactor;
mod serve;

/// Per-layer metric values by name.
pub type Layer = BTreeMap<&'static str, f64>;

/// Input sizes. `REFERENCE` is tuned so one replay takes 1 – 2 s on the
/// 2-vCPU reference host and a 15 s run fits eight or more.
#[derive(Clone, Copy, Debug)]
pub struct Sizes {
    pub manhattan_poses: usize,
    pub sphere_poses: usize,
    pub cab_poses: usize,
    pub refactor_poses: usize,
    pub refactor_reps: usize,
    pub serve_manhattan_poses: usize,
    pub serve_sphere_poses: usize,
    pub fleet_sessions: usize,
    pub fleet_steps: u32,
}

impl Sizes {
    pub const REFERENCE: Sizes = Sizes {
        manhattan_poses: 560,
        sphere_poses: 272,
        cab_poses: 260,
        refactor_poses: 576,
        refactor_reps: 20,
        serve_manhattan_poses: 300,
        serve_sphere_poses: 150,
        fleet_sessions: 192,
        fleet_steps: 12,
    };

    /// Smoke sizes: every code path and check, in a second or two each.
    pub const QUICK: Sizes = Sizes {
        manhattan_poses: 120,
        sphere_poses: 64,
        cab_poses: 80,
        refactor_poses: 100,
        refactor_reps: 12,
        serve_manhattan_poses: 60,
        serve_sphere_poses: 36,
        fleet_sessions: 8,
        fleet_steps: 6,
    };

    pub fn fields(&self) -> [(&'static str, f64); 9] {
        [
            ("manhattan_poses", self.manhattan_poses as f64),
            ("sphere_poses", self.sphere_poses as f64),
            ("cab_poses", self.cab_poses as f64),
            ("refactor_poses", self.refactor_poses as f64),
            ("refactor_reps", self.refactor_reps as f64),
            ("serve_manhattan_poses", self.serve_manhattan_poses as f64),
            ("serve_sphere_poses", self.serve_sphere_poses as f64),
            ("fleet_sessions", self.fleet_sessions as f64),
            ("fleet_steps", f64::from(self.fleet_steps)),
        ]
    }
}

/// What one run accumulates.
#[derive(Default)]
pub struct Acc {
    /// Per operation index, the minimum seconds over replays.
    pub ops: Vec<f64>,
    /// Where operations overlap (several workers) or share the client with
    /// other calls, the replay's wall time cut into the segments the client
    /// runs one after another (a wave, a call), each the minimum over
    /// replays. Empty where the operations are the whole stream and run one
    /// after another: there `ops` serves.
    pub stream: Vec<f64>,
    /// Every replay's summed operation seconds, in replay order: the raw
    /// totals the minima were taken from, so the spread can be audited.
    pub replay_s: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    /// The first few failure messages.
    pub failures: Vec<String>,
    pub replays: usize,
    /// Traced runs: span durations per name and op, minimum over replays.
    pub phases: PhaseTable,
    /// Operations before this index are warm-up: replayed, but left out of
    /// every percentile, sum and share.
    pub warm: usize,
    /// Per-layer values a workload sets directly.
    pub layer: Layer,
    /// The spans of the latest traced replay.
    pub spans: Vec<Span>,
}

impl Acc {
    /// Takes one replay's operation times (`attempted` counts them).
    pub fn take_ops(&mut self, replay: &[f64]) {
        stats::merge_min(&mut self.ops, replay);
        self.replay_s.push(replay.iter().sum());
        self.attempted += replay.len() as u64;
    }

    /// Takes one replay's stream segments.
    pub fn take_stream(&mut self, segments: &[f64]) {
        stats::merge_min(&mut self.stream, segments);
    }

    /// Seconds the operation stream takes: the sum of the per-segment (or
    /// per-operation) minima.
    pub fn stream_s(&self) -> f64 {
        let segments = if self.stream.is_empty() {
            &self.ops
        } else {
            &self.stream
        };
        segments.iter().sum()
    }

    /// Takes a traced replay's spans, plus series measured without a span.
    pub fn take_spans(&mut self, tracer: Tracer, extra: PhaseTable) {
        if !tracer.on() {
            return;
        }
        self.spans = tracer.into_spans();
        let mut table = crate::spans::phase_table(&self.spans);
        table.extend(extra);
        for (name, ops) in table {
            stats::merge_min(self.phases.entry(name).or_default(), &ops);
        }
    }

    /// Counts `n` operations failed.
    pub fn fail(&mut self, n: u64, why: String) {
        self.failed += n;
        if self.failures.len() < 8 {
            self.failures.push(why);
        }
    }

    /// `check` failed → the whole replay's `n` operations count as failed.
    pub fn check(&mut self, ok: bool, n: u64, why: impl FnOnce() -> String) {
        if !ok {
            self.fail(n, why());
        }
    }

    /// Span `name`'s per-op seconds, past the warm-up.
    fn phase(&self, name: &str) -> &[f64] {
        let ops = self.phases.get(name).map_or(&[][..], Vec::as_slice);
        &ops[self.warm.min(ops.len())..]
    }

    fn phase_sum(&self, name: &str) -> f64 {
        self.phase(name).iter().sum()
    }

    /// `metric` = p50 over ops of span `phase`, scaled (1e3 → ms).
    fn set_p50(&mut self, metric: &'static str, phase: &str, scale: f64) {
        let v = stats::p50(self.phase(phase)) * scale;
        self.layer.insert(metric, v);
    }

    fn set_p95(&mut self, metric: &'static str, phase: &str, scale: f64) {
        let v = stats::p95(self.phase(phase)) * scale;
        self.layer.insert(metric, v);
    }

    /// `metric` = Σ span `phase` ÷ Σ span `whole`.
    fn set_share(&mut self, metric: &'static str, phase: &str, whole: &str) {
        let v = self.phase_sum(phase) / self.phase_sum(whole).max(f64::MIN_POSITIVE);
        self.layer.insert(metric, v);
    }

    /// The plan-execution ledger from the host schedules: span `exec` is
    /// each op's makespan and the series `exec_busy`, `exec_flops` and
    /// `exec_tasks` its summed task time, kernel flops and task count;
    /// span `whole` is the call that ran it, on `workers` executor threads.
    fn exec_metrics(&mut self, whole: &str, workers: usize) {
        self.set_p50("sparse.exec_makespan_ms_p50", "exec", 1e3);
        self.set_p50("sparse.exec_busy_ms_p50", "exec_busy", 1e3);
        self.set_share("solvers.exec_share", "exec", whole);
        let exec_s = self.phase_sum("exec").max(f64::MIN_POSITIVE);
        let idle_s = (exec_s * workers as f64 - self.phase_sum("exec_busy")).max(0.0);
        let flops = self.phase_sum("exec_flops");
        self.layer.insert("sparse.kernel_flops", flops);
        self.layer
            .insert("sparse.exec_gflops", flops / exec_s / 1e9);
        self.layer.insert(
            "sparse.dispatch_overhead_us_per_task",
            idle_s * 1e6 / self.phase_sum("exec_tasks").max(1.0),
        );
    }

    /// Gradient assembly and back-substitution: what `factorize_and_solve`
    /// (span `call`) does outside the plan execution (span `exec`), as a
    /// p50 and as a share of span `whole`.
    fn grad_solve_metrics(&mut self, call: &str, exec: &str, whole: &str) {
        let grad: Vec<f64> = self
            .phase(call)
            .iter()
            .zip(self.phase(exec))
            .map(|(call, exec)| (call - exec).max(0.0))
            .collect();
        let share = grad.iter().sum::<f64>() / self.phase_sum(whole).max(f64::MIN_POSITIVE);
        self.layer
            .insert("solvers.grad_solve_ms_p50", stats::p50(&grad) * 1e3);
        self.layer.insert("solvers.grad_solve_share", share);
    }
}

/// Per operation, what the host schedule of its plan execution recorded:
/// the `exec_*` series `Acc::exec_metrics` reads.
pub struct ExecSeries {
    busy_s: Vec<f64>,
    flops: Vec<f64>,
    tasks: Vec<f64>,
}

impl ExecSeries {
    pub fn new(ops: usize) -> Self {
        ExecSeries {
            busy_s: vec![0.0; ops],
            flops: vec![0.0; ops],
            tasks: vec![0.0; ops],
        }
    }

    /// If `core` executed a plan since `epoch0` (when span `parent`
    /// began), adds the execution under `parent` as the span `exec` and
    /// keeps its summed task time, kernel flops and task count for `op`.
    pub fn record(
        &mut self,
        tracer: &mut Tracer,
        parent: u32,
        op: usize,
        epoch0: f64,
        core: &supernova_solvers::IncrementalCore,
    ) {
        if !tracer.on() {
            return;
        }
        if let Some(s) = core.last_host_schedule().filter(|s| s.origin >= epoch0) {
            tracer.child_of(parent, "exec", "sparse", s.origin - epoch0, s.makespan());
            self.busy_s[op] = s.busy_time();
            self.flops[op] = s.kernel_flops() as f64;
            self.tasks[op] = s.spans.len() as f64;
        }
    }

    pub fn into_series(self) -> [(&'static str, Vec<f64>); 3] {
        [
            ("exec_busy", self.busy_s),
            ("exec_flops", self.flops),
            ("exec_tasks", self.tasks),
        ]
    }
}

/// What the core's cached plan says about itself.
fn plan_metrics(core: &supernova_solvers::IncrementalCore, layer: &mut Layer) {
    let workers = core.executor().threads();
    layer.insert("sparse.workers", workers as f64);
    layer.insert(
        "sparse.pool_grow_events",
        core.executor().pool_stats().grow_events as f64,
    );
    if let (Some(plan), Some(sym)) = (core.plan(), core.symbolic()) {
        layer.insert("sparse.level_occupancy", plan.level_occupancy(workers));
        layer.insert(
            "sparse.critical_path_speedup",
            plan.total_cost() as f64 / plan.critical_path_cost().max(1) as f64,
        );
        layer.insert("sparse.l_nnz", sym.l_nnz_scalars() as f64);
    }
}

/// A workload with its inputs made.
pub trait Prepared {
    /// Replays the operation stream once. With the tracer on, records
    /// spans around the calls and runs the per-layer replays as well.
    fn replay(&mut self, acc: &mut Acc, tracer: Tracer);

    /// After the last replay: cross-checks that need a pass of their own,
    /// and (traced) the per-layer values computed once.
    fn finish(&mut self, acc: &mut Acc, traced: bool);
}

pub struct Workload {
    pub name: &'static str,
    /// Why the workload is in the set: the layer it loads.
    pub why: &'static str,
    pub prepare: fn(seed: u64, sizes: &Sizes) -> Box<dyn Prepared>,
}

pub const WORKLOADS: [Workload; 6] = [
    Workload {
        name: "manhattan_online",
        why: "small 2-D fronts: symbolic + plan + certify, rebuilt every step, are half of a step; kernels do little",
        prepare: |seed, s| {
            online::prepare(
                online::Online {
                    family: Family::Manhattan,
                    poses: s.manhattan_poses,
                    accel_sets: 2,
                    target_seconds: 1.0 / 30.0,
                    ape_ceiling_m: 0.05,
                    phase_driver: true,
                },
                seed,
            )
        },
    },
    Workload {
        name: "sphere_online",
        why: "wide 6-DoF fronts: relinearization and plan execution are most of a step; symbolic work is small",
        prepare: |seed, s| {
            online::prepare(
                online::Online {
                    family: Family::Sphere,
                    poses: s.sphere_poses,
                    accel_sets: 2,
                    target_seconds: 1.0 / 30.0,
                    ape_ceiling_m: 0.15,
                    phase_driver: true,
                },
                seed,
            )
        },
    },
    Workload {
        name: "cab_budgeted",
        why: "4 ms budget on one accelerator set: RA-ISAM2 defers most candidates, so selection and the budget are exercised",
        prepare: |seed, s| {
            online::prepare(
                online::Online {
                    family: Family::Cab1,
                    poses: s.cab_poses,
                    accel_sets: 1,
                    target_seconds: 0.004,
                    ape_ceiling_m: 0.15,
                    phase_driver: false,
                },
                seed,
            )
        },
    },
    Workload {
        name: "sphere_refactor",
        why: "all-dirty factorize_and_solve on a bulk-built graph: plan execution and kernels undiluted (three quarters of the call)",
        prepare: |seed, s| refactor::prepare(s.refactor_poses, s.refactor_reps, seed),
    },
    Workload {
        name: "serve_waves",
        why: "four sessions on a two-worker in-process server, closed loop: admission, EDF dispatch, engine checkout",
        prepare: |seed, s| serve::prepare(s.serve_manhattan_poses, s.serve_sphere_poses, seed),
    },
    Workload {
        name: "fleet_route",
        why: "short sessions through a router and two TCP shards: wire codec, journal append, state persist, checkpoints",
        prepare: |seed, s| fleet::prepare(s.fleet_sessions, s.fleet_steps, seed),
    },
];
