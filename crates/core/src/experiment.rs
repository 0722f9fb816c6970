//! The online experiment runner: replay, multi-platform pricing, accuracy.

use supernova_datasets::Dataset;
use supernova_factors::Values;
use supernova_hw::Platform;
use supernova_metrics::{ape, ApeStats, IrmseAccumulator};
use supernova_runtime::{simulate_step, SchedulerConfig, StepLatency};
use supernova_solvers::{BatchConfig, BatchSolver, OnlineSolver};

/// One platform × scheduler configuration to price a run's step traces on.
#[derive(Clone, Debug)]
pub struct PricingTarget {
    /// Label for reports.
    pub label: String,
    /// The hardware model.
    pub platform: Platform,
    /// Runtime parallelism toggles.
    pub sched: SchedulerConfig,
}

impl PricingTarget {
    /// A target with the default scheduler configuration.
    pub fn new(label: impl Into<String>, platform: Platform) -> Self {
        PricingTarget {
            label: label.into(),
            platform,
            sched: SchedulerConfig::default(),
        }
    }
}

/// Runner options.
#[derive(Clone, Debug)]
pub struct ExperimentConfig {
    /// Platforms to price each step on (the same execution trace is priced
    /// on all of them — one numeric run, many latency series).
    pub pricings: Vec<PricingTarget>,
    /// Evaluate accuracy every `eval_stride` steps (0 disables; the final
    /// step is always evaluated when a reference is supplied).
    pub eval_stride: usize,
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        ExperimentConfig {
            pricings: vec![PricingTarget::new("SuperNoVA-2S", Platform::supernova(2))],
            eval_stride: 25,
        }
    }
}

/// Accuracy sample at one evaluated step.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ErrorSample {
    /// Step index.
    pub step: usize,
    /// Maximum translation error over poses `0..=step`.
    pub max: f64,
    /// RMSE over poses `0..=step`.
    pub rmse: f64,
}

/// The outcome of one online run.
#[derive(Clone, Debug, Default)]
pub struct RunRecord {
    /// Dataset name.
    pub dataset: String,
    /// Solver name.
    pub solver: String,
    /// Pricing labels, aligned with `latencies`.
    pub pricing_labels: Vec<String>,
    /// Per-pricing, per-step latency breakdowns.
    pub latencies: Vec<Vec<StepLatency>>,
    /// Per-evaluated-step accuracy samples.
    pub errors: Vec<ErrorSample>,
    /// Worst per-step MAX across evaluated steps.
    pub max_error: f64,
    /// Incremental RMSE (Equation (3)) across evaluated steps.
    pub irmse: f64,
}

impl RunRecord {
    /// Total latencies (seconds) of pricing `p`.
    pub fn totals(&self, p: usize) -> Vec<f64> {
        self.latencies[p].iter().map(StepLatency::total).collect()
    }

    /// Numeric-only latencies (seconds) of pricing `p`.
    pub fn numerics(&self, p: usize) -> Vec<f64> {
        self.latencies[p].iter().map(|l| l.numeric).collect()
    }

    /// Index of a pricing label.
    pub fn pricing(&self, label: &str) -> Option<usize> {
        self.pricing_labels.iter().position(|l| l == label)
    }
}

/// Fully optimized reference trajectories at a stride of steps (§5.3): the
/// graph up to step `k` solved to convergence, warm-started from the
/// previous reference.
#[derive(Clone, Debug)]
pub struct Reference {
    steps: Vec<usize>,
    trajectories: Vec<Values>,
}

impl Reference {
    /// Computes references every `stride` steps (plus the final step).
    ///
    /// # Panics
    ///
    /// Panics if `stride == 0`.
    pub fn compute(dataset: &Dataset, stride: usize) -> Reference {
        assert!(stride > 0, "stride must be positive");
        let online = dataset.online_steps();
        let n = online.len();
        let eval_steps: Vec<usize> = (0..n)
            .filter(|&i| i % stride == stride - 1 || i == n - 1)
            .collect();

        let mut graph = supernova_factors::FactorGraph::new();
        let mut warm = Values::new();
        let solver = BatchSolver::new(BatchConfig {
            max_iterations: 20,
            tolerance: 1e-5,
            use_min_degree: true,
            relax: 1,
        });
        let mut trajectories = Vec::with_capacity(eval_steps.len());
        let mut next_eval = 0usize;
        for (i, step) in online.iter().enumerate() {
            let init = step.initial_guess(i, |key| warm.get(key).clone());
            warm.insert(init);
            for f in &step.factors {
                graph.add(f.clone());
            }
            if next_eval < eval_steps.len() && eval_steps[next_eval] == i {
                let (solved, _) = solver.solve(&graph, &warm);
                warm = solved.clone();
                trajectories.push(solved);
                next_eval += 1;
            }
        }
        Reference {
            steps: eval_steps,
            trajectories,
        }
    }

    /// The evaluated step indices.
    pub fn eval_steps(&self) -> &[usize] {
        &self.steps
    }

    /// The reference trajectory at step `step`, if evaluated there.
    pub fn at(&self, step: usize) -> Option<&Values> {
        self.steps
            .iter()
            .position(|&s| s == step)
            .map(|i| &self.trajectories[i])
    }

    /// The final reference trajectory.
    pub fn last(&self) -> Option<&Values> {
        self.trajectories.last()
    }
}

/// Replays `dataset` through `solver` online: one pose per step, pricing
/// each step's trace on every target in `cfg.pricings`, and evaluating
/// accuracy against `reference` at the configured stride.
pub fn run_online(
    dataset: &Dataset,
    solver: &mut dyn OnlineSolver,
    cfg: &ExperimentConfig,
    reference: Option<&Reference>,
) -> RunRecord {
    let online = dataset.online_steps();
    let n = online.len();
    let mut record = RunRecord {
        dataset: dataset.name().to_string(),
        solver: solver.name().to_string(),
        pricing_labels: cfg.pricings.iter().map(|p| p.label.clone()).collect(),
        latencies: vec![Vec::with_capacity(n); cfg.pricings.len()],
        ..RunRecord::default()
    };
    let mut acc = IrmseAccumulator::new();
    for (i, step) in online.iter().enumerate() {
        let init = step.initial_guess(i, |key| solver.pose_estimate(key));
        let trace = solver.step(init, step.factors.clone());
        for (p, target) in cfg.pricings.iter().enumerate() {
            record.latencies[p].push(simulate_step(&target.platform, &trace, &target.sched));
        }
        if let Some(r) = reference {
            if let Some(reference_traj) = r.at(i) {
                let stats: ApeStats = ape(&solver.estimate(), reference_traj);
                acc.push(stats);
                record.errors.push(ErrorSample {
                    step: i,
                    max: stats.max,
                    rmse: stats.rmse,
                });
            }
        }
    }
    record.max_error = acc.max();
    record.irmse = acc.irmse();
    record
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SolverKind;

    fn small_dataset() -> Dataset {
        Dataset::m3500_scaled(0.03) // 105 steps
    }

    #[test]
    fn reference_is_consistent_and_strided() {
        let ds = small_dataset();
        let r = Reference::compute(&ds, 20);
        assert!(!r.eval_steps().is_empty());
        assert_eq!(*r.eval_steps().last().unwrap(), ds.num_steps() - 1);
        let last = r.last().unwrap();
        assert_eq!(last.len(), ds.num_steps());
        // Reference should be close to ground truth (small noise).
        let gt = {
            let mut v = Values::new();
            for p in ds.ground_truth() {
                v.insert(p.clone());
            }
            v
        };
        // The optimum legitimately deviates from ground truth by the
        // injected measurement noise; it must stay in the same ballpark.
        let stats = ape(last, &gt);
        assert!(stats.rmse < 3.0, "reference far from truth: {}", stats.rmse);
    }

    #[test]
    fn run_online_prices_on_all_targets() {
        let ds = small_dataset();
        let r = Reference::compute(&ds, 50);
        let mut solver = SolverKind::Incremental.build(1.0 / 30.0, 0.05);
        let cfg = ExperimentConfig {
            pricings: vec![
                PricingTarget::new("sn2", Platform::supernova(2)),
                PricingTarget::new("boom", Platform::boom()),
            ],
            eval_stride: 50,
        };
        let rec = run_online(&ds, solver.as_mut(), &cfg, Some(&r));
        assert_eq!(rec.latencies.len(), 2);
        assert_eq!(rec.latencies[0].len(), ds.num_steps());
        assert!(!rec.errors.is_empty());
        assert!(rec.pricing("boom").is_some());
        assert!(rec.pricing("nope").is_none());
        // The incremental solver should track the reference closely.
        assert!(rec.irmse < 0.5, "irmse {}", rec.irmse);
        // BOOM prices slower than SuperNoVA overall.
        let sn: f64 = rec.totals(0).iter().sum();
        let boom: f64 = rec.totals(1).iter().sum();
        assert!(sn < boom, "supernova {sn} !< boom {boom}");
    }

    #[test]
    fn local_solver_runs_and_drifts_more_than_incremental() {
        let ds = small_dataset();
        let r = Reference::compute(&ds, 50);
        let cfg = ExperimentConfig {
            pricings: vec![],
            eval_stride: 50,
        };
        let mut local = SolverKind::Local.build(1.0 / 30.0, 0.05);
        let rec_local = run_online(&ds, local.as_mut(), &cfg, Some(&r));
        let mut inc = SolverKind::Incremental.build(1.0 / 30.0, 0.05);
        let rec_inc = run_online(&ds, inc.as_mut(), &cfg, Some(&r));
        assert!(
            rec_local.irmse >= rec_inc.irmse,
            "local {} should not beat incremental {}",
            rec_local.irmse,
            rec_inc.irmse
        );
    }
}
