//! Inputs made from `--seed`: the product receives only what is generated
//! here.
//!
//! Seed 0 is the published stream of each generator (`M3500_SEED`,
//! `SPHERE_SEED`, CAB1). Any other seed keeps that trajectory and its
//! edge set and re-draws every measurement's noise with the benchmark's
//! own generator. The walk itself is not re-drawn: on `manhattan_seeded`
//! a different walk moved `op_p50_ms` by up to 50 % between seeds
//! (0.94 – 1.44 ms at 560 poses), which no bound below 0.25 could hold.

use supernova_datasets::{Dataset, Edge, OnlineStep};
use supernova_factors::{Key, Se2, Se3, Variable};

use crate::rng::Rng;

/// Which published generator a dataset comes from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Family {
    Manhattan,
    Sphere,
    Cab1,
}

impl Family {
    fn published(self, steps: usize) -> Dataset {
        match self {
            Family::Manhattan => Dataset::manhattan_seeded(steps, Dataset::M3500_SEED),
            Family::Sphere => Dataset::sphere_seeded(steps, Dataset::SPHERE_SEED),
            Family::Cab1 => Dataset::cab1_scaled((steps as f64 / 464.0).min(1.0)),
        }
    }
}

/// The dataset of `family` with about `steps` poses for `seed`.
pub fn dataset(family: Family, steps: usize, seed: u64) -> Dataset {
    let ds = family.published(steps);
    if seed == 0 {
        return ds;
    }
    let mut rng = Rng::new(seed ^ ((family as u64 + 1) << 56));
    let truth = ds.ground_truth();
    let edges = ds
        .edges()
        .iter()
        .map(|e| Edge {
            measurement: noisy_relative(&mut rng, &truth[e.from], &truth[e.to], &e.sigmas),
            ..e.clone()
        })
        .collect();
    Dataset::from_parts(
        format!("{}#{seed}", ds.name()),
        ds.kind(),
        truth.to_vec(),
        edges,
        ds.prior_sigma(),
    )
}

/// `from⁻¹ · to` perturbed on the right by `exp(N(0, sigmas))`, as the
/// generators draw it.
fn noisy_relative(rng: &mut Rng, from: &Variable, to: &Variable, sigmas: &[f64]) -> Variable {
    let xi: Vec<f64> = sigmas.iter().map(|s| rng.normal() * s).collect();
    match (from, to) {
        (Variable::Se2(a), Variable::Se2(b)) => {
            Variable::Se2(a.inverse().compose(*b).compose(Se2::exp(&xi)))
        }
        (Variable::Se3(a), Variable::Se3(b)) => {
            Variable::Se3(a.inverse().compose(b).compose(&Se3::exp(&xi)))
        }
        _ => panic!("pose graph mixes variable kinds"),
    }
}

/// The initial guess for the pose step `i` adds: the previous pose's
/// current estimate composed with the odometry, as `core::run_online`
/// forms it.
pub fn initial_guess(
    step: &OnlineStep,
    i: usize,
    previous: impl FnOnce(Key) -> Variable,
) -> Variable {
    let Some(odometry) = step.odometry.as_ref().filter(|_| i > 0) else {
        return step.truth.clone();
    };
    match (previous(Key(i - 1)), odometry) {
        (Variable::Se2(a), Variable::Se2(b)) => Variable::Se2(a.compose(*b)),
        (Variable::Se3(a), Variable::Se3(b)) => Variable::Se3(a.compose(b)),
        _ => panic!("pose graph mixes variable kinds"),
    }
}
