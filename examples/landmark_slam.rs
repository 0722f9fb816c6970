//! Landmark SLAM: poses *and* landmarks in one incremental problem, driven
//! directly through the `IncrementalCore` engine API (§3.1 of the paper:
//! "each component X_j represents a variable to be estimated, such as a
//! pose or a landmark").
//!
//! A robot circles a field of point landmarks, observing them with noisy
//! range-bearing measurements (robustified with a Huber kernel); the
//! incremental solution is compared against a batch solve of the same graph.
//!
//! ```sh
//! cargo run --release --example landmark_slam
//! ```

use supernova::factors::{
    BetweenFactor, Key, NoiseModel, PriorFactor, RangeBearingFactor, Se2, Variable,
};
use supernova::solvers::{BatchSolver, IncrementalCore};

const SENSE_RADIUS: f64 = 4.5;

fn main() {
    // Ground truth: 40 poses around a circle, 12 landmarks scattered inside.
    let n_poses = 40;
    let truth_poses: Vec<Se2> = (0..n_poses)
        .map(|i| {
            let a = 2.0 * std::f64::consts::PI * i as f64 / n_poses as f64;
            Se2::new(
                6.0 * a.cos(),
                6.0 * a.sin(),
                a + std::f64::consts::FRAC_PI_2,
            )
        })
        .collect();
    let truth_landmarks: Vec<[f64; 2]> = (0..12)
        .map(|i| {
            let a = 2.0 * std::f64::consts::PI * i as f64 / 12.0 + 0.3;
            [3.4 * a.cos(), 3.4 * a.sin()]
        })
        .collect();

    // Deterministic pseudo-noise.
    let mut state = 0x5eedu64;
    let mut noise = move |s: f64| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        ((state as f64 / u64::MAX as f64) - 0.5) * 2.0 * s
    };

    let mut core = IncrementalCore::new(1);
    let mut pose_keys: Vec<Key> = Vec::new();
    let mut lm_keys: Vec<Option<Key>> = vec![None; truth_landmarks.len()];

    for (i, pose) in truth_poses.iter().enumerate() {
        // New pose with a dead-reckoned initial guess.
        let initial = if i == 0 {
            *pose
        } else {
            let prev = core
                .pose_estimate(pose_keys[i - 1])
                .as_se2()
                .copied()
                .unwrap();
            let odom = truth_poses[i - 1].inverse().compose(*pose);
            prev.compose(odom)
                .compose(Se2::new(noise(0.05), noise(0.05), noise(0.02)))
        };
        let pose_key = core.add_variable(Variable::Se2(initial));
        pose_keys.push(pose_key);
        if i == 0 {
            core.add_factor(PriorFactor::se2(
                pose_key,
                *pose,
                NoiseModel::isotropic(3, 0.01),
            ));
        } else {
            let z = truth_poses[i - 1].inverse().compose(*pose);
            let zn = z.compose(Se2::new(noise(0.03), noise(0.03), noise(0.01)));
            core.add_factor(BetweenFactor::se2(
                pose_keys[i - 1],
                pose_key,
                zn,
                NoiseModel::isotropic(3, 0.05),
            ));
        }
        // Observe every landmark in range (robust kernel on the observation).
        for (li, lm) in truth_landmarks.iter().enumerate() {
            let world = [lm[0] - pose.x(), lm[1] - pose.y()];
            let dist = (world[0] * world[0] + world[1] * world[1]).sqrt();
            if dist > SENSE_RADIUS {
                continue;
            }
            let local = pose.rotation().inverse().rotate(world);
            let bearing = local[1].atan2(local[0]);
            let key = match lm_keys[li] {
                Some(k) => k,
                None => {
                    // First sighting: initialize near the (noisy) truth.
                    let guess = vec![lm[0] + noise(0.3), lm[1] + noise(0.3)];
                    let k = core.add_variable(Variable::Vector(guess));
                    lm_keys[li] = Some(k);
                    k
                }
            };
            core.add_factor(RangeBearingFactor::new(
                pose_key,
                key,
                (dist + noise(0.05)).max(0.1),
                bearing + noise(0.01),
                NoiseModel::from_sigmas(&[0.08, 0.02]).with_huber(2.5),
            ));
        }
        core.analyze();
        core.factorize_and_solve();
    }

    // Accuracy of the incremental estimate vs the batch optimum.
    let (batch, stats) = BatchSolver::default().solve(core.graph(), &core.estimate());
    println!(
        "incremental landmark SLAM over {} variables:",
        core.num_vars()
    );
    println!(
        "  batch solver converged in {} iterations",
        stats.iterations
    );
    let mut worst = 0.0f64;
    for (k, v) in core.estimate().iter() {
        worst = worst.max(v.translation_distance(batch.get(k)));
    }
    println!("  worst incremental-vs-batch deviation: {worst:.4} m");
    let mut lm_err = 0.0f64;
    for (li, truth) in truth_landmarks.iter().enumerate() {
        if let Some(k) = lm_keys[li] {
            if let Variable::Vector(est) = batch.get(k) {
                let d = ((est[0] - truth[0]).powi(2) + (est[1] - truth[1]).powi(2)).sqrt();
                lm_err = lm_err.max(d);
            }
        }
    }
    println!("  worst landmark error vs ground truth: {lm_err:.3} m");
    assert!(worst < 0.1, "incremental should track the batch optimum");
    println!(
        "\nposes and landmarks estimated jointly — the factor-graph backend is type-agnostic."
    );
}
