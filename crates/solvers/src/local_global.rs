//! Local + Global — the multi-level baseline (§5.5, baseline 2): a fixed-lag
//! local solver at sensor rate plus a background loop-closure solver whose
//! correction arrives only after its (modeled) solve latency.

use supernova_factors::{Factor, FactorGraph, Key, Values, Variable};
use supernova_runtime::StepTrace;

use crate::{BatchConfig, BatchSolver, FixedLagConfig, FixedLagSmoother, OnlineSolver};

/// Local+Global options.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LocalGlobalConfig {
    /// The local fixed-lag smoother configuration.
    pub local: FixedLagConfig,
    /// Frame period in seconds (correction delay is quantized to frames).
    pub frame_period: f64,
    /// Effective numeric throughput of the background solver's host
    /// (flops/s) — used to convert the batch solve's flop count into a
    /// correction delay. Defaults to the server-CPU model's sustained rate.
    pub solver_flops_per_sec: f64,
    /// Cap on the modeled correction delay, in steps.
    pub max_delay_steps: usize,
}

impl Default for LocalGlobalConfig {
    fn default() -> Self {
        LocalGlobalConfig {
            local: FixedLagConfig::default(),
            frame_period: 1.0 / 30.0,
            solver_flops_per_sec: 1.0e10,
            max_delay_steps: 400,
        }
    }
}

/// A pending background loop-closure solve.
#[derive(Debug)]
struct PendingGlobal {
    /// Step index at which the correction becomes available.
    ready_at: usize,
    /// The optimized trajectory over poses `0..len`.
    result: Values,
    /// Number of poses in the snapshot.
    len: usize,
}

/// The Local+Global baseline.
///
/// The local estimate is always available at fixed latency, but when a loop
/// closure arrives the globally consistent correction only lands after the
/// background solver finishes — during which the error spike of Figure 12's
/// "Local+Global" curves persists.
#[derive(Debug)]
pub struct LocalGlobal {
    config: LocalGlobalConfig,
    local: FixedLagSmoother,
    /// All factors ever received (the background solver's problem).
    full_graph: FactorGraph,
    /// Current best full-trajectory estimate.
    estimates: Vec<Variable>,
    pending: Option<PendingGlobal>,
    step_index: usize,
    corrections_applied: usize,
}

impl LocalGlobal {
    /// Creates an empty solver.
    pub fn new(config: LocalGlobalConfig) -> Self {
        LocalGlobal {
            config,
            local: FixedLagSmoother::new(config.local),
            full_graph: FactorGraph::new(),
            estimates: Vec::new(),
            pending: None,
            step_index: 0,
            corrections_applied: 0,
        }
    }

    /// Number of global corrections applied so far.
    pub fn corrections_applied(&self) -> usize {
        self.corrections_applied
    }

    /// Is a background solve currently in flight?
    pub fn global_in_flight(&self) -> bool {
        self.pending.is_some()
    }
}

impl OnlineSolver for LocalGlobal {
    fn step(&mut self, new_variable: Variable, factors: Vec<Factor>) -> StepTrace {
        let window_start = self
            .estimates
            .len()
            .saturating_sub(self.config.local.window);
        let mut saw_loop_closure = false;
        for f in &factors {
            if f.keys().iter().any(|k| k.0 < window_start) {
                saw_loop_closure = true;
            }
            self.full_graph.add(f.clone());
        }
        let trace = self.local.step(new_variable, factors);
        self.estimates
            .push(self.local.pose_estimate(Key(self.estimates.len())));
        // Refresh the in-window estimates from the local solver.
        for i in window_start..self.estimates.len() {
            self.estimates[i] = self.local.pose_estimate(Key(i));
        }

        // Launch the background loop-closure solver (one job at a time).
        if saw_loop_closure && self.pending.is_none() {
            let initial = {
                let mut v = Values::new();
                for e in &self.estimates {
                    v.insert(e.clone());
                }
                v
            };
            let (result, stats) =
                BatchSolver::new(BatchConfig::default()).solve(&self.full_graph, &initial);
            let seconds = stats.flops as f64 / self.config.solver_flops_per_sec;
            let delay = ((seconds / self.config.frame_period).ceil() as usize)
                .clamp(1, self.config.max_delay_steps);
            self.pending = Some(PendingGlobal {
                ready_at: self.step_index + delay,
                len: self.estimates.len(),
                result,
            });
        }

        // Apply a finished correction: global history + re-chained local tail.
        if let Some(p) = self.pending.take() {
            if p.ready_at <= self.step_index {
                let old_anchor = self.estimates[p.len - 1].clone();
                let new_anchor = p.result.get(Key(p.len - 1)).clone();
                for i in 0..p.len {
                    self.estimates[i] = p.result.get(Key(i)).clone();
                }
                for i in p.len..self.estimates.len() {
                    // new = new_anchor ∘ (old_anchor⁻¹ ∘ old_i), per variant.
                    let rel = old_anchor.local(&self.estimates[i]);
                    self.estimates[i] = new_anchor.retract(&rel);
                }
                self.corrections_applied += 1;
            } else {
                self.pending = Some(p);
            }
        }
        self.step_index += 1;
        trace
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
        "Local+Global"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use supernova_factors::{BetweenFactor, NoiseModel, PriorFactor, Se2};

    fn odo(a: usize, b: usize, z: Se2) -> Factor {
        BetweenFactor::se2(Key(a), Key(b), z, NoiseModel::isotropic(3, 0.05)).into()
    }

    #[test]
    fn correction_arrives_after_delay_and_fixes_drift() {
        let mut s = LocalGlobal::new(LocalGlobalConfig {
            local: FixedLagConfig {
                window: 5,
                iterations: 2,
            },
            ..LocalGlobalConfig::default()
        });
        let prior: Factor =
            PriorFactor::se2(Key(0), Se2::identity(), NoiseModel::isotropic(3, 0.01)).into();
        s.step(Variable::Se2(Se2::identity()), vec![prior]);
        // Drift: biased odometry along a line.
        for i in 1..30 {
            let init = s
                .pose_estimate(Key(i - 1))
                .as_se2()
                .copied()
                .unwrap()
                .compose(Se2::new(1.02, 0.0, 0.0));
            s.step(
                Variable::Se2(init),
                vec![odo(i - 1, i, Se2::new(1.02, 0.0, 0.0))],
            );
        }
        let drifted = s.pose_estimate(Key(29)).as_se2().copied().unwrap();
        assert!((drifted.x() - 29.0).abs() > 0.2, "expected drift before LC");

        // Loop closure telling the truth: pose 29 is really at 29 m.
        let lc = odo(0, 29, Se2::new(29.0, 0.0, 0.0));
        let init = drifted.compose(Se2::new(1.0, 0.0, 0.0));
        s.step(
            Variable::Se2(init),
            vec![odo(29, 30, Se2::new(1.0, 0.0, 0.0)), lc],
        );
        assert!(s.global_in_flight() || s.corrections_applied() > 0);

        // Keep stepping until the correction lands.
        let mut i = 30;
        while s.corrections_applied() == 0 && i < 200 {
            i += 1;
            let init = s
                .pose_estimate(Key(i - 1))
                .as_se2()
                .copied()
                .unwrap()
                .compose(Se2::new(1.0, 0.0, 0.0));
            s.step(
                Variable::Se2(init),
                vec![odo(i - 1, i, Se2::new(1.0, 0.0, 0.0))],
            );
        }
        assert!(s.corrections_applied() > 0, "correction never landed");
        let fixed = s.pose_estimate(Key(29)).as_se2().copied().unwrap();
        assert!(
            (fixed.x() - 29.0).abs() < (drifted.x() - 29.0).abs(),
            "correction should reduce the drift: {} vs {}",
            fixed.x(),
            drifted.x()
        );
    }

    #[test]
    fn no_loop_closure_means_no_background_job() {
        let mut s = LocalGlobal::new(LocalGlobalConfig::default());
        s.step(Variable::Se2(Se2::identity()), vec![]);
        for i in 1..10 {
            s.step(
                Variable::Se2(Se2::new(i as f64, 0.0, 0.0)),
                vec![odo(i - 1, i, Se2::new(1.0, 0.0, 0.0))],
            );
        }
        assert!(!s.global_in_flight());
        assert_eq!(s.corrections_applied(), 0);
    }
}
