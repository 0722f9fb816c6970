//! Fixed-lag smoother — the paper's "Local" baseline (§5.5, baseline 1).

use supernova_factors::{Factor, Key, NoiseModel, PriorFactor, Values, Variable};
use supernova_runtime::StepTrace;

use crate::{BatchConfig, BatchSolver, OnlineSolver};

/// Fixed-lag smoother options.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FixedLagConfig {
    /// Sliding-window size in poses (the paper uses 20).
    pub window: usize,
    /// Gauss–Newton iterations per step over the window.
    pub iterations: usize,
}

impl Default for FixedLagConfig {
    fn default() -> Self {
        FixedLagConfig {
            window: 20,
            iterations: 3,
        }
    }
}

/// A VIO-style fixed-lag smoother: optimizes only the most recent `window`
/// poses; factors that reference older poses are *discarded* (so loop
/// closures are ignored) and the oldest in-window pose is anchored at its
/// frozen estimate — the standard prior surrogate for marginalization.
///
/// Bounded latency, but unbounded drift: the Figure 12 "Local" curves.
#[derive(Debug)]
pub struct FixedLagSmoother {
    config: FixedLagConfig,
    /// Best estimate of every pose so far (frozen outside the window).
    estimates: Vec<Variable>,
    /// Factors whose keys are all inside the current window.
    active: Vec<Factor>,
}

impl FixedLagSmoother {
    /// Creates an empty smoother.
    pub fn new(config: FixedLagConfig) -> Self {
        assert!(config.window >= 2, "window must hold at least two poses");
        FixedLagSmoother {
            config,
            estimates: Vec::new(),
            active: Vec::new(),
        }
    }

    /// First pose index inside the window.
    fn window_start(&self) -> usize {
        self.estimates.len().saturating_sub(self.config.window)
    }

    /// Number of factors discarded so far is implicit; count active ones.
    pub fn active_factors(&self) -> usize {
        self.active.len()
    }
}

impl OnlineSolver for FixedLagSmoother {
    fn step(&mut self, new_variable: Variable, factors: Vec<Factor>) -> StepTrace {
        self.estimates.push(new_variable);
        let start = self.window_start();
        // Keep only factors fully inside the window; discard the rest (the
        // sliding-window semantics of the Local baseline).
        let mut relin_elems = 0usize;
        let mut relin_factors = 0usize;
        for f in factors {
            if f.keys().iter().all(|k| k.0 >= start) {
                relin_elems += f.noise().dim() * f.keys().len() * 4;
                relin_factors += 1;
                self.active.push(f);
            }
        }
        self.active
            .retain(|f| f.keys().iter().all(|k| k.0 >= start));

        // Window-local problem: anchor the oldest pose at its frozen value.
        let mut values = Values::new();
        for i in start..self.estimates.len() {
            values.insert(self.estimates[i].clone());
        }
        let mut graph = supernova_factors::FactorGraph::new();
        let anchor = self.estimates[start].clone();
        let dim = anchor.dim();
        graph.add(PriorFactor::new(
            Key(0),
            anchor,
            NoiseModel::isotropic(dim, 1e-3),
        ));
        for f in &self.active {
            // Window-local keys: the residual is the same, bit for bit.
            graph.add(f.clone().map_keys(|k| Key(k.0 - start)));
        }
        let solver = BatchSolver::new(BatchConfig {
            max_iterations: self.config.iterations,
            tolerance: 1e-8,
            use_min_degree: false,
            relax: 1,
        });
        let (solution, _) = solver.solve(&graph, &values);
        for (local, var) in solution.iter() {
            self.estimates[start + local.0] = var.clone();
        }
        StepTrace {
            relin_jacobian_elems: relin_elems * self.config.iterations,
            relin_factors,
            ..StepTrace::default()
        }
    }

    fn pose_estimate(&self, key: Key) -> Variable {
        self.estimates[key.0].clone()
    }

    fn estimate(&self) -> Values {
        let mut v = Values::new();
        for e in &self.estimates {
            v.insert(e.clone());
        }
        v
    }

    fn num_poses(&self) -> usize {
        self.estimates.len()
    }

    fn name(&self) -> &'static str {
        "Local (fixed-lag)"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use supernova_factors::{BetweenFactor, Se2};

    fn odo(a: usize, b: usize, z: Se2) -> Factor {
        BetweenFactor::se2(Key(a), Key(b), z, NoiseModel::isotropic(3, 0.05)).into()
    }

    #[test]
    fn follows_odometry_within_window() {
        let mut s = FixedLagSmoother::new(FixedLagConfig {
            window: 5,
            iterations: 3,
        });
        s.step(Variable::Se2(Se2::identity()), vec![]);
        for i in 1..12 {
            let init = Se2::new(i as f64 + 0.05, 0.02, 0.0);
            s.step(
                Variable::Se2(init),
                vec![odo(i - 1, i, Se2::new(1.0, 0.0, 0.0))],
            );
        }
        assert_eq!(s.num_poses(), 12);
        let last = s.pose_estimate(Key(11)).as_se2().copied().unwrap();
        // Anchored to frozen (slightly offset) history, but consistent odometry.
        assert!((last.x() - 11.0).abs() < 0.5, "x = {}", last.x());
    }

    #[test]
    fn loop_closures_are_discarded() {
        let mut s = FixedLagSmoother::new(FixedLagConfig {
            window: 4,
            iterations: 2,
        });
        s.step(Variable::Se2(Se2::identity()), vec![]);
        for i in 1..10 {
            s.step(
                Variable::Se2(Se2::new(i as f64, 0.0, 0.0)),
                vec![odo(i - 1, i, Se2::new(1.0, 0.0, 0.0))],
            );
        }
        let before = s.active_factors();
        // A loop closure to pose 0 is outside the window: dropped.
        s.step(
            Variable::Se2(Se2::new(10.0, 0.0, 0.0)),
            vec![
                odo(9, 10, Se2::new(1.0, 0.0, 0.0)),
                odo(0, 10, Se2::new(10.0, 0.0, 0.0)),
            ],
        );
        assert!(
            s.active_factors() <= before + 1,
            "LC factor should be discarded"
        );
    }

    #[test]
    fn drift_accumulates_with_biased_odometry() {
        // Biased odometry: local has no way to correct, so error grows.
        let mut s = FixedLagSmoother::new(FixedLagConfig::default());
        s.step(Variable::Se2(Se2::identity()), vec![]);
        for i in 1..60 {
            // True motion 1.0 forward, measured 1.01: 1 % bias.
            let init = s
                .pose_estimate(Key(i - 1))
                .as_se2()
                .copied()
                .unwrap()
                .compose(Se2::new(1.01, 0.0, 0.0));
            s.step(
                Variable::Se2(init),
                vec![odo(i - 1, i, Se2::new(1.01, 0.0, 0.0))],
            );
        }
        let last = s.pose_estimate(Key(59)).as_se2().copied().unwrap();
        let drift = (last.x() - 59.0).abs();
        assert!(drift > 0.3, "expected accumulated drift, got {drift}");
    }
}
