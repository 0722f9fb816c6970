//! Static interference analysis over the
//! [`ExecutionPlan`](supernova_sparse::ExecutionPlan) IR, surfaced for
//! the analysis driver.
//!
//! The checker itself lives next to the IR in
//! [`supernova_sparse::interference`] (re-exported here): it extracts
//! per-task read/write sets from the plan's front layouts and extend-add
//! scatter programs, closes them under the dependency edges'
//! happens-before order, and proves every same-level task pair disjoint.
//! A successful proof is a [`PlanCertificate`], which the parallel
//! executor requires before it lets more than one worker touch the plan:
//! with it, whole levels are dispatched from one atomic cursor.
//!
//! This module adds the workspace-level driver: [`certify_datasets`] runs
//! every seeded dataset through the real incremental engine and certifies
//! the plan the engine actually executes, so CI can assert that batched
//! dispatch is proven safe on all shipped workloads — not just on unit
//! fixtures.

use std::sync::Arc;

use supernova_datasets::Dataset;
use supernova_hw::Platform;
use supernova_runtime::CostModel;
use supernova_solvers::{RaIsam2Config, SolverEngine};

use supernova_sparse::interference::InterferenceViolation as Violation;
pub use supernova_sparse::interference::{
    certify, check_accesses, check_unit_schedule, extract_accesses, plan_fingerprint, Access,
    AccessKind, InterferenceKind, InterferenceViolation, PlanCertificate, Region, Resource,
};

/// The outcome of certifying one dataset's final execution plan.
#[derive(Clone, Debug)]
pub struct DatasetCertification {
    /// Dataset name (e.g. `M3500[210]`).
    pub dataset: String,
    /// Online steps replayed through the incremental engine.
    pub steps: usize,
    /// Tasks in the final plan.
    pub num_tasks: usize,
    /// Topological levels in the final plan.
    pub num_levels: usize,
    /// Structural fingerprint of the final plan.
    pub fingerprint: u64,
    /// Whether the checker proved the plan interference-free.
    pub certified: bool,
    /// Violations found when certification failed (empty when certified).
    pub violations: Vec<Violation>,
}

/// The seeded datasets the certification sweep covers, scaled to keep the
/// sweep fast while still producing plans with real fan-in (tens of
/// supernodes, multi-task levels).
fn sweep_datasets() -> Vec<Dataset> {
    vec![
        Dataset::m3500_scaled(0.06),
        Dataset::sphere_scaled(0.12),
        Dataset::cab1_scaled(0.2),
    ]
}

/// Replays each seeded dataset through the incremental engine and runs the
/// interference checker on the final plan — the exact plan object the
/// engine's executor would batch-dispatch. Also asserts the engine's own
/// cached certificate agrees (the engine certifies on every re-analyze).
pub fn certify_datasets() -> Vec<DatasetCertification> {
    let mut out = Vec::new();
    for ds in sweep_datasets() {
        let cost = Arc::new(CostModel::new(Platform::supernova(2)));
        let mut engine = SolverEngine::new(RaIsam2Config::default(), cost);
        let steps = ds.online_steps();
        let nsteps = steps.len();
        for step in steps {
            engine.step(step.truth, step.factors);
        }
        let core = engine.solver().core();
        let report = match core.plan() {
            Some(plan) => {
                let fingerprint = plan_fingerprint(plan);
                match certify(plan) {
                    Ok(cert) => DatasetCertification {
                        dataset: ds.name().to_string(),
                        steps: nsteps,
                        num_tasks: cert.num_tasks(),
                        num_levels: cert.num_levels(),
                        fingerprint,
                        // The engine's cached certificate must cover the
                        // same plan — otherwise batched dispatch silently
                        // degrades to inline execution.
                        certified: core.plan_certificate().is_some_and(|c| c.covers(plan)),
                        violations: Vec::new(),
                    },
                    Err(violations) => DatasetCertification {
                        dataset: ds.name().to_string(),
                        steps: nsteps,
                        num_tasks: plan.num_tasks(),
                        num_levels: 0,
                        fingerprint,
                        certified: false,
                        violations,
                    },
                }
            }
            None => DatasetCertification {
                dataset: ds.name().to_string(),
                steps: nsteps,
                num_tasks: 0,
                num_levels: 0,
                fingerprint: 0,
                certified: false,
                violations: Vec::new(),
            },
        };
        out.push(report);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_seeded_dataset_plans_certify() {
        for report in certify_datasets() {
            assert!(
                report.certified,
                "{}: plan failed certification: {:?}",
                report.dataset, report.violations
            );
            assert!(report.num_tasks > 0, "{}: empty plan", report.dataset);
            assert!(report.num_levels > 0, "{}: no levels", report.dataset);
            assert_ne!(
                report.fingerprint, 0,
                "{}: zero fingerprint",
                report.dataset
            );
        }
    }
}
