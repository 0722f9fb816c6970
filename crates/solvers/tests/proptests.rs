//! Solver-level randomized tests on random pose graphs: the incremental
//! solvers must land on (nearly) the batch optimum, and the resource-aware
//! solver with an unconstrained budget must behave like ISAM2. Seeded
//! loops over the in-tree PRNG keep every case reproducible offline.

use std::sync::Arc;

use supernova_factors::{BetweenFactor, Factor, Key, NoiseModel, PriorFactor, Se2, Variable};
use supernova_hw::Platform;
use supernova_linalg::rng::XorShift64;
use supernova_runtime::CostModel;
use supernova_solvers::{BatchSolver, Isam2, Isam2Config, OnlineSolver, RaIsam2, RaIsam2Config};

const CASES: u64 = 32;

/// A random planar trajectory: headings and step lengths, plus loop-closure
/// offsets.
#[derive(Clone, Debug)]
struct Scenario {
    truth: Vec<Se2>,
    /// (from, to) loop closures.
    closures: Vec<(usize, usize)>,
    noise_seed: u64,
}

fn scenario(rng: &mut XorShift64) -> Scenario {
    let n = 6 + rng.gen_index(13);
    let mut truth = vec![Se2::identity()];
    for _ in 0..n - 1 {
        let prev = *truth.last().expect("nonempty");
        truth.push(prev.compose(Se2::new(1.0, 0.0, rng.gen_range(-0.6, 0.6))));
    }
    let mut closures = Vec::new();
    for _ in 0..rng.gen_index(3) {
        let to = n - 1;
        let from = rng.gen_index(n);
        if to > from + 2 {
            closures.push((from, to));
        }
    }
    Scenario {
        truth,
        closures,
        noise_seed: rng.next_u64(),
    }
}

fn drive(solver: &mut dyn OnlineSolver, sc: &Scenario) {
    let mut noise_rng = XorShift64::seed_from_u64(sc.noise_seed);
    let mut noise = move |s: f64| noise_rng.gen_range(-s, s);
    let n = sc.truth.len();
    for i in 0..n {
        let mut factors: Vec<Factor> = Vec::new();
        if i == 0 {
            factors
                .push(PriorFactor::se2(Key(0), sc.truth[0], NoiseModel::isotropic(3, 0.01)).into());
        } else {
            let z = sc.truth[i - 1].inverse().compose(sc.truth[i]);
            factors.push(
                BetweenFactor::se2(Key(i - 1), Key(i), z, NoiseModel::isotropic(3, 0.05)).into(),
            );
        }
        for &(from, to) in &sc.closures {
            if to == i {
                let z = sc.truth[from].inverse().compose(sc.truth[to]);
                factors.push(
                    BetweenFactor::se2(Key(from), Key(to), z, NoiseModel::isotropic(3, 0.05))
                        .into(),
                );
            }
        }
        let init = if i == 0 {
            sc.truth[0]
        } else {
            let prev = solver
                .pose_estimate(Key(i - 1))
                .as_se2()
                .copied()
                .expect("se2");
            let odom = sc.truth[i - 1].inverse().compose(sc.truth[i]);
            prev.compose(odom)
                .compose(Se2::new(noise(0.05), noise(0.05), noise(0.02)))
        };
        solver.step(Variable::Se2(init), factors);
    }
}

#[test]
fn isam2_lands_near_the_batch_optimum() {
    for case in 0..CASES {
        let mut rng = XorShift64::seed_from_u64(0x501e_0000 + case);
        let sc = scenario(&mut rng);
        let mut solver = Isam2::new(Isam2Config::default());
        drive(&mut solver, &sc);
        let incremental = solver.estimate();
        let (batch, stats) = BatchSolver::default().solve(solver.core().graph(), &incremental);
        assert!(stats.converged, "case {case}");
        for (k, v) in incremental.iter() {
            let d = v.translation_distance(batch.get(k));
            assert!(d < 0.05, "case {case}: pose {k} deviates {d} from batch");
        }
    }
}

#[test]
fn unconstrained_ra_matches_isam2() {
    for case in 0..CASES {
        let mut rng = XorShift64::seed_from_u64(0x501f_0000 + case);
        let sc = scenario(&mut rng);
        let mut inc = Isam2::new(Isam2Config::default());
        drive(&mut inc, &sc);
        let cost = Arc::new(CostModel::new(Platform::supernova(2)));
        let mut ra = RaIsam2::new(
            RaIsam2Config {
                target_seconds: 100.0,
                ..RaIsam2Config::default()
            },
            cost,
        );
        drive(&mut ra, &sc);
        assert_eq!(ra.last_deferred(), 0, "case {case}");
        let a = inc.estimate();
        let b = ra.estimate();
        for (k, v) in a.iter() {
            let d = v.translation_distance(b.get(k));
            assert!(d < 1e-6, "case {case}: pose {k} differs by {d}");
        }
    }
}

#[test]
fn isam2_error_is_near_optimal() {
    for case in 0..CASES {
        let mut rng = XorShift64::seed_from_u64(0x5020_0000 + case);
        let sc = scenario(&mut rng);
        // The incremental solution's weighted graph error must be close to
        // the batch optimum's (single-GN-step-per-frame cannot do better
        // than the optimum, and should not be far worse).
        let mut solver = Isam2::new(Isam2Config::default());
        drive(&mut solver, &sc);
        let inc_err = solver.core().current_error2();
        let (batch, _) = BatchSolver::default().solve(solver.core().graph(), &solver.estimate());
        let batch_err = solver.core().graph().total_error2(&batch);
        assert!(
            inc_err <= batch_err * 1.5 + 1e-3,
            "case {case}: incremental error {inc_err} far above optimum {batch_err}"
        );
    }
}
