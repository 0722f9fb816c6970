//! Incremental smoothing and mapping (ISAM2, §3.4) — the paper's
//! "Incremental" baseline.

use supernova_factors::{Factor, Key, Values, Variable};
use supernova_runtime::StepTrace;

use crate::{IncrementalCore, OnlineSolver};

/// ISAM2 options.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Isam2Config {
    /// Fluid-relinearization threshold β: a variable's linearization point
    /// is advanced when `‖Δ_j‖∞ > β`.
    pub beta: f64,
    /// Supernode amalgamation slack.
    pub relax: usize,
    /// Enable periodic fill-reducing reordering (the iSAM batch step);
    /// disable for the ablation of `repro ablate-reorder`.
    pub reorder: bool,
}

impl Default for Isam2Config {
    fn default() -> Self {
        Isam2Config {
            beta: 0.02,
            relax: 1,
            reorder: true,
        }
    }
}

/// Fill ratio beyond which the engine performs an iSAM-style batch
/// reordering, and the minimum steps between reorders.
pub(crate) const REORDER_FILL_RATIO: f64 = 5.0;
pub(crate) const REORDER_MIN_PERIOD: usize = 40;

/// The ISAM2 incremental solver: fluid relinearization with a fixed
/// threshold, one Gauss–Newton step per backend iteration (the RISE-style
/// optimization the paper's baseline uses, its reference 44), affected-subtree
/// re-factorization, and periodic fill-reducing reordering.
///
/// High accuracy at low cost on ordinary steps; unbounded latency spikes on
/// loop closures — the behaviour RA-ISAM2 fixes.
#[derive(Debug)]
pub struct Isam2 {
    core: IncrementalCore,
    config: Isam2Config,
    steps_since_reorder: usize,
}

impl Isam2 {
    /// Creates an empty solver.
    pub fn new(config: Isam2Config) -> Self {
        Isam2 {
            core: IncrementalCore::new(config.relax),
            config,
            steps_since_reorder: 0,
        }
    }

    /// The underlying incremental engine.
    pub fn core(&self) -> &IncrementalCore {
        &self.core
    }

    /// Mutable access to the engine, e.g. to install a host executor with
    /// [`IncrementalCore::set_executor`] before replaying a dataset.
    pub fn core_mut(&mut self) -> &mut IncrementalCore {
        &mut self.core
    }
}

impl OnlineSolver for Isam2 {
    fn step(&mut self, new_variable: Variable, factors: Vec<Factor>) -> StepTrace {
        self.core.add_variable(new_variable);
        for f in factors {
            self.core.add_factor(f);
        }
        // Periodic batch reordering when fill has grown too far (the
        // standard iSAM mitigation; it appears as a latency spike).
        self.steps_since_reorder += 1;
        if self.config.reorder
            && self.core.fill_ratio() > REORDER_FILL_RATIO
            && self.steps_since_reorder >= REORDER_MIN_PERIOD
        {
            if let Some(plan) = self.core.reorder_candidate() {
                self.core.apply_reorder(plan);
                self.steps_since_reorder = 0;
            }
        }
        // Fluid relinearization: every variable past the threshold.
        let candidates: Vec<Key> = (0..self.core.num_vars())
            .map(Key)
            .filter(|&k| self.core.relevance(k) > self.config.beta)
            .collect();
        self.core.relinearize_vars(&candidates);
        self.core.analyze();
        self.core.factorize_and_solve()
    }

    fn pose_estimate(&self, key: Key) -> Variable {
        self.core.pose_estimate(key)
    }

    fn estimate(&self) -> Values {
        self.core.estimate()
    }

    fn num_poses(&self) -> usize {
        self.core.num_vars()
    }

    fn name(&self) -> &'static str {
        "Incremental (ISAM2)"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use supernova_factors::{BetweenFactor, NoiseModel, PriorFactor, Se2};

    fn run_circle(n: usize, close_loop: bool) -> (Isam2, Vec<Se2>) {
        // Poses around a circle with noisy odometry initial guesses.
        let truth: Vec<Se2> = (0..n)
            .map(|i| {
                let a = 2.0 * std::f64::consts::PI * i as f64 / n as f64;
                Se2::new(
                    a.cos() * 5.0,
                    a.sin() * 5.0,
                    a + std::f64::consts::FRAC_PI_2,
                )
            })
            .collect();
        let mut solver = Isam2::new(Isam2Config::default());
        for i in 0..n {
            let mut factors: Vec<Factor> = Vec::new();
            let initial = if i == 0 {
                factors.push(
                    PriorFactor::se2(Key(0), truth[0], NoiseModel::isotropic(3, 0.01)).into(),
                );
                truth[0]
            } else {
                let z = truth[i - 1].inverse().compose(truth[i]);
                factors.push(
                    BetweenFactor::se2(Key(i - 1), Key(i), z, NoiseModel::isotropic(3, 0.05))
                        .into(),
                );
                // Initial guess from the previous *estimate* plus odometry,
                // perturbed to exercise relinearization.
                let prev = solver.pose_estimate(Key(i - 1)).as_se2().copied().unwrap();
                prev.compose(z).compose(Se2::new(0.01, -0.01, 0.005))
            };
            if close_loop && i == n - 1 {
                let z = truth[i].inverse().compose(truth[0]);
                factors.push(
                    BetweenFactor::se2(Key(i), Key(0), z, NoiseModel::isotropic(3, 0.05)).into(),
                );
            }
            solver.step(
                Variable::Se2(truth[i].compose(Se2::new(0.0, 0.0, 0.0))),
                factors,
            );
            let _ = initial;
        }
        (solver, truth)
    }

    #[test]
    fn tracks_circle_accurately() {
        let (solver, truth) = run_circle(24, true);
        let est = solver.estimate();
        for (i, t) in truth.iter().enumerate() {
            let p = est.get(Key(i)).as_se2().copied().unwrap();
            assert!(
                p.translation_distance(t) < 0.1,
                "pose {i} off by {}",
                p.translation_distance(t)
            );
        }
        assert_eq!(solver.num_poses(), 24);
        assert!(!solver.name().is_empty());
    }

    #[test]
    fn loop_closure_step_is_heavier() {
        // Compare recomputed-node counts: the LC step must touch more of the
        // tree than a mid-trajectory odometry step.
        let n = 30;
        let truth: Vec<Se2> = (0..n).map(|i| Se2::new(i as f64, 0.0, 0.0)).collect();
        let mut solver = Isam2::new(Isam2Config::default());
        let mut odometry_nodes = 0usize;
        for i in 0..n {
            let mut factors: Vec<Factor> = Vec::new();
            if i == 0 {
                factors.push(
                    PriorFactor::se2(Key(0), truth[0], NoiseModel::isotropic(3, 0.01)).into(),
                );
            } else {
                let z = truth[i - 1].inverse().compose(truth[i]);
                factors.push(
                    BetweenFactor::se2(Key(i - 1), Key(i), z, NoiseModel::isotropic(3, 0.05))
                        .into(),
                );
            }
            let trace = solver.step(Variable::Se2(truth[i]), factors);
            if i == n - 1 {
                odometry_nodes = trace.nodes.len();
            }
        }
        // Now a loop closure back to pose 2 (with a consistent measurement).
        let z = truth[2].inverse().compose(truth[n - 1]);
        let lc: Factor =
            BetweenFactor::se2(Key(2), Key(n - 1), z, NoiseModel::isotropic(3, 0.05)).into();
        let zlast = Se2::new(1.0, 0.0, 0.0);
        let odo: Factor =
            BetweenFactor::se2(Key(n - 1), Key(n), zlast, NoiseModel::isotropic(3, 0.05)).into();
        let trace = solver.step(Variable::Se2(Se2::new(n as f64, 0.0, 0.0)), vec![odo, lc]);
        assert!(
            trace.nodes.len() > odometry_nodes,
            "LC step nodes {} vs odometry {}",
            trace.nodes.len(),
            odometry_nodes
        );
    }
}
