//! The common interface of the online SLAM backends.

use supernova_factors::{Factor, Key, Values, Variable};
use supernova_runtime::StepTrace;

/// An online SLAM backend: one new pose arrives per step together with its
/// associated factors (odometry, loop closures), exactly as the evaluation
/// workloads are replayed in §5.2.
pub trait OnlineSolver {
    /// Processes one step: the new pose's initial guess plus its factors
    /// (which may reference any earlier pose). Returns the step's work
    /// trace for hardware pricing.
    fn step(&mut self, new_variable: Variable, factors: Vec<Factor>) -> StepTrace;

    /// Current estimate of a single pose.
    fn pose_estimate(&self, key: Key) -> Variable;

    /// Current full trajectory estimate (materialized; prefer
    /// [`pose_estimate`](Self::pose_estimate) in per-step loops).
    fn estimate(&self) -> Values;

    /// Number of poses incorporated so far.
    fn num_poses(&self) -> usize;

    /// Display name for reports.
    fn name(&self) -> &'static str;
}
