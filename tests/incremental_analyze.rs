//! `IncrementalCore::analyze` updates the symbolic factorization and the
//! execution plan from the lowest changed column. On real online streams —
//! odometry chains, loop closures, budget-gated and periodic reorders — a
//! solver doing that must be indistinguishable, step by step, from one that
//! derives both from nothing every time: same symbolic factor, same plan
//! (structurally and by fingerprint), same factor bytes, same estimate.

use std::sync::Arc;

use supernova::datasets::Dataset;
use supernova::hw::Platform;
use supernova::runtime::CostModel;
use supernova::solvers::{
    IncrementalCore, Isam2, Isam2Config, OnlineSolver, RaIsam2, RaIsam2Config,
};
use supernova::sparse::interference::plan_fingerprint;
use supernova::sparse::ParallelExecutor;

fn sweep_datasets() -> Vec<Dataset> {
    vec![
        Dataset::m3500_scaled(0.06),
        Dataset::sphere_scaled(0.12),
        Dataset::cab1_scaled(0.3),
    ]
}

/// Replays `ds` through an incremental solver and a from-scratch twin,
/// comparing their cores after every step. Returns how many reorders the
/// replay applied.
fn replay_against_from_scratch<S: OnlineSolver>(
    ds: &Dataset,
    make: impl Fn() -> S,
    core_mut: impl Fn(&mut S) -> &mut IncrementalCore,
) -> usize {
    let mut incremental = make();
    let mut scratch = make();
    for solver in [&mut incremental, &mut scratch] {
        core_mut(solver).set_executor(ParallelExecutor::new(1));
    }
    core_mut(&mut scratch).set_analyze_from_scratch(true);

    for (i, step) in ds.online_steps().into_iter().enumerate() {
        let what = format!("{} / {} step {i}", ds.name(), incremental.name());
        let a = incremental.step(step.truth.clone(), step.factors.clone());
        let b = scratch.step(step.truth, step.factors);
        assert_eq!(
            a.selection_nodes_visited, b.selection_nodes_visited,
            "{what}: selection"
        );
        let (inc, full) = (&*core_mut(&mut incremental), &*core_mut(&mut scratch));
        assert_eq!(inc.symbolic(), full.symbolic(), "{what}: symbolic factor");
        assert_eq!(inc.plan(), full.plan(), "{what}: plan");
        assert_eq!(
            inc.plan().map(plan_fingerprint),
            full.plan().map(plan_fingerprint),
            "{what}: plan fingerprint"
        );
        assert_eq!(inc.plan_generation(), full.plan_generation(), "{what}");
        assert!(
            inc.numeric_bytes() == full.numeric_bytes(),
            "{what}: factor bytes"
        );
    }
    assert_eq!(incremental.estimate(), scratch.estimate(), "{}", ds.name());
    let core = core_mut(&mut incremental);
    // One executor thread: nobody ever read a certificate, so none was made.
    assert_eq!(core.plan_certifications(), 0, "{}", ds.name());
    core.reorders()
}

#[test]
fn ra_isam2_replays_match_a_from_scratch_core_on_every_step() {
    for ds in sweep_datasets() {
        replay_against_from_scratch(
            &ds,
            || {
                let cost = Arc::new(CostModel::new(Platform::supernova(2)));
                RaIsam2::new(RaIsam2Config::default(), cost)
            },
            RaIsam2::core_mut,
        );
    }
}

#[test]
fn isam2_replays_with_reorders_match_a_from_scratch_core_on_every_step() {
    let mut reorders = 0usize;
    for ds in sweep_datasets() {
        reorders += replay_against_from_scratch(
            &ds,
            || Isam2::new(Isam2Config::default()),
            Isam2::core_mut,
        );
    }
    // After a reorder the newest pose's neighbour sits anywhere in the
    // order, so the lowest changed column stops hugging the end.
    assert!(reorders > 0, "the sweep never reordered");
}
