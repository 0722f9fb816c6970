//! Integration tests: determinism of the whole pipeline and the g2o
//! round-trip path into the solvers.

use std::sync::Arc;

use supernova::core::{run_online, ExperimentConfig, PricingTarget, SolverKind};
use supernova::datasets::Dataset;
use supernova::hw::Platform;
use supernova::runtime::{CostModel, StepTrace};
use supernova::solvers::{RaIsam2Config, SolverEngine};
use supernova_trace::wire::{fnv1a, FNV_OFFSET};

#[test]
fn identical_runs_produce_identical_latencies_and_errors() {
    let ds = Dataset::cab2_scaled(0.03);
    let make = || {
        let mut solver = SolverKind::ResourceAware { sets: 2 }.build(1.0 / 30.0, 0.05);
        let cfg = ExperimentConfig {
            pricings: vec![PricingTarget::new("sn2", Platform::supernova(2))],
            eval_stride: 0,
        };
        run_online(&ds, solver.as_mut(), &cfg, None)
    };
    let a = make();
    let b = make();
    assert_eq!(
        a.totals(0),
        b.totals(0),
        "virtual-time scheduler must be deterministic"
    );
}

#[test]
fn dataset_generators_are_reproducible() {
    let a = Dataset::sphere_scaled(0.05);
    let b = Dataset::sphere_scaled(0.05);
    assert_eq!(a.num_edges(), b.num_edges());
    for (ea, eb) in a.edges().iter().zip(b.edges()) {
        assert_eq!(ea.from, eb.from);
        assert_eq!(ea.to, eb.to);
    }
}

#[test]
fn g2o_roundtrip_preserves_solver_behaviour() {
    let original = Dataset::m3500_scaled(0.03);
    let text = original.to_g2o();
    let parsed = Dataset::from_g2o("roundtrip", &text).expect("parse back");

    let run = |ds: &Dataset| {
        let mut solver = SolverKind::Incremental.build(1.0 / 30.0, 0.05);
        let cfg = ExperimentConfig {
            pricings: vec![],
            eval_stride: 0,
        };
        run_online(ds, solver.as_mut(), &cfg, None);
        solver.estimate()
    };
    let est_a = run(&original);
    let est_b = run(&parsed);
    assert_eq!(est_a.len(), est_b.len());
    for (k, va) in est_a.iter() {
        let d = va.translation_distance(est_b.get(k));
        assert!(d < 1e-6, "estimates diverged at {k}: {d}");
    }
}

/// Replays `ds` through `engine` online, each new pose guessed as the
/// previous estimate composed with the odometry (as `core::run_online`
/// does), handing every step's trace to `each`.
fn replay_se3(
    engine: &mut SolverEngine,
    ds: &Dataset,
    mut each: impl FnMut(&SolverEngine, StepTrace),
) {
    for (i, step) in ds.online_steps().into_iter().enumerate() {
        let init = step.initial_guess(i, |key| engine.pose_estimate(key));
        let trace = engine.step(init, step.factors);
        each(engine, trace);
    }
}

/// Continues FNV-1a hash `h` over the final factor bytes plus every pose
/// estimate's f64 bits.
fn fingerprint_state(mut h: u64, engine: &SolverEngine) -> u64 {
    h = fnv1a(h, &engine.numeric_bytes().expect("solved"));
    for (_, var) in engine.estimate().iter() {
        let pose = var.as_se3().expect("SE(3) stream");
        let rot = pose.rotation().matrix();
        for x in rot.as_slice().iter().chain(&pose.translation()) {
            h = fnv1a(h, &x.to_bits().to_le_bytes());
        }
    }
    h
}

/// Runs RA-ISAM2 online over `ds` at the default budget and fingerprints
/// the final factor bytes and estimates.
fn se3_online_fingerprint(ds: &Dataset) -> u64 {
    let cost = Arc::new(CostModel::new(Platform::supernova(2)));
    let mut engine = SolverEngine::new(RaIsam2Config::default(), cost);
    replay_se3(&mut engine, ds, |_, _| {});
    fingerprint_state(FNV_OFFSET, &engine)
}

/// The cross-version golden for SE(3) numerics: factor bytes and estimates
/// of two online RA-ISAM2 sessions, pinned to committed constants. A change
/// to the SO(3)/SE(3) group operations, linearization or the Hessian update
/// that moves a single bit fails here; regenerate the constants only with a
/// change that moves bits on purpose.
#[test]
fn se3_online_numerics_match_committed_golden() {
    let got = [
        se3_online_fingerprint(&Dataset::sphere_scaled(0.12)),
        se3_online_fingerprint(&Dataset::cab1_scaled(0.2)),
    ];
    assert_eq!(
        got,
        [0xb145_1e31_fb44_5e57, 0x17e4_407e_d92d_d20e],
        "[sphere x0.12, cab1 x0.2] fingerprints: {got:#018x?}"
    );
}

/// Fingerprints a budget-bound RA-ISAM2 session: every step's selection
/// outcome `(selected, deferred, nodes visited)`, then the final factor
/// bytes and estimate bits. Also returns the total deferrals.
fn budgeted_selection_fingerprint(ds: &Dataset, target_seconds: f64) -> (u64, usize) {
    let cost = Arc::new(CostModel::new(Platform::supernova(1)));
    let mut engine = SolverEngine::new(
        RaIsam2Config {
            target_seconds,
            ..RaIsam2Config::default()
        },
        cost,
    );
    let mut h = FNV_OFFSET;
    let mut deferred_total = 0;
    replay_se3(&mut engine, ds, |engine, trace| {
        let (selected, deferred) = engine.last_selected_deferred();
        deferred_total += deferred;
        for n in [selected, deferred, trace.selection_nodes_visited] {
            h = fnv1a(h, &(n as u64).to_le_bytes());
        }
    });
    (fingerprint_state(h, &engine), deferred_total)
}

/// The cross-version golden for RA-ISAM2's selection when the budget binds:
/// CAB1 on one accelerator set at a 4 ms target (the benchmark's
/// `cab_budgeted` setting), where Algorithm 1 defers candidates. The SE(3)
/// golden above runs at 33 ms, where nothing is deferred, so only this test
/// pins which variables a budget-bound step relinearizes.
#[test]
fn budgeted_selection_matches_committed_golden() {
    let (got, deferred) = budgeted_selection_fingerprint(&Dataset::cab1_scaled(0.3), 0.004);
    assert!(deferred > 0, "the 4 ms budget must defer candidates");
    assert_eq!(
        got, 0xb81e_ee31_66ab_fd74,
        "cab1 x0.3 @ 4 ms fingerprint: {got:#018x} ({deferred} deferrals)"
    );
}

#[test]
fn full_stack_smoke_via_meta_crate() {
    use supernova::core::{SuperNova, SuperNovaConfig};
    let mut system = SuperNova::new(SuperNovaConfig::default());
    let outcome = system.run_online(&Dataset::cab1_scaled(0.1));
    assert!(outcome.steps() > 0);
    assert!(outcome.latency_stats().max.is_finite());
}
