//! Randomized tests: manifold axioms and Jacobian first-order accuracy,
//! seeded through the in-tree PRNG so every case replays offline.

use supernova_factors::{
    BetweenFactor, Factor, NoiseModel, PriorFactor, Rot3, Se2, Se3, Values, Variable,
};
use supernova_linalg::rng::XorShift64;

const CASES: u64 = 128;

/// The raw residual of `f` at `vars` as a fresh `Vec`.
fn error_vec(f: &Factor, vars: &[&Variable]) -> Vec<f64> {
    let mut out = vec![0.0; f.noise().dim()];
    f.error_into(vars, &mut out);
    out
}

fn se2(rng: &mut XorShift64) -> Se2 {
    Se2::new(
        rng.gen_range(-5.0, 5.0),
        rng.gen_range(-5.0, 5.0),
        rng.gen_range(-3.0, 3.0),
    )
}

fn se3(rng: &mut XorShift64) -> Se3 {
    let t = [
        rng.gen_range(-5.0, 5.0),
        rng.gen_range(-5.0, 5.0),
        rng.gen_range(-5.0, 5.0),
    ];
    let w = [
        rng.gen_range(-1.5, 1.5),
        rng.gen_range(-1.5, 1.5),
        rng.gen_range(-1.5, 1.5),
    ];
    Se3::from_parts(t, Rot3::exp(&w))
}

fn tangent3(rng: &mut XorShift64) -> [f64; 3] {
    [
        rng.gen_range(-2.0, 2.0),
        rng.gen_range(-2.0, 2.0),
        rng.gen_range(-2.0, 2.0),
    ]
}

fn tangent6(rng: &mut XorShift64) -> [f64; 6] {
    let mut xi = [0.0; 6];
    for x in &mut xi {
        *x = rng.gen_range(-1.0, 1.0);
    }
    xi
}

fn small_delta3(rng: &mut XorShift64) -> [f64; 3] {
    [
        rng.gen_range(-1e-4, 1e-4),
        rng.gen_range(-1e-4, 1e-4),
        rng.gen_range(-1e-4, 1e-4),
    ]
}

fn small_delta6(rng: &mut XorShift64) -> [f64; 6] {
    let mut d = [0.0; 6];
    for x in &mut d {
        *x = rng.gen_range(-1e-4, 1e-4);
    }
    d
}

#[test]
fn se2_retract_local_inverse() {
    for case in 0..CASES {
        let mut rng = XorShift64::seed_from_u64(0xfac0_0000 + case);
        let a = se2(&mut rng);
        let b = se2(&mut rng);
        let d = a.local(b);
        let b2 = a.retract(&d);
        assert!(b2.translation_distance(&b) < 1e-9, "case {case}");
        assert!(
            (b2.theta() - b.theta()).abs() < 1e-9
                || (b2.theta() - b.theta()).abs() > 2.0 * std::f64::consts::PI - 1e-9,
            "case {case}"
        );
    }
}

#[test]
fn se2_exp_log_roundtrip() {
    for case in 0..CASES {
        let mut rng = XorShift64::seed_from_u64(0xfac1_0000 + case);
        let xi = tangent3(&mut rng);
        // log returns the principal angle; restrict to |ω| < π.
        if xi[2].abs() >= std::f64::consts::PI - 1e-3 {
            continue;
        }
        let p = Se2::exp(&xi);
        let back = p.log();
        for k in 0..3 {
            assert!((back[k] - xi[k]).abs() < 1e-8, "case {case} component {k}");
        }
    }
}

#[test]
fn se2_compose_associative() {
    for case in 0..CASES {
        let mut rng = XorShift64::seed_from_u64(0xfac2_0000 + case);
        let a = se2(&mut rng);
        let b = se2(&mut rng);
        let c = se2(&mut rng);
        let left = a.compose(b).compose(c);
        let right = a.compose(b.compose(c));
        assert!(left.translation_distance(&right) < 1e-9, "case {case}");
    }
}

#[test]
fn se3_retract_local_inverse() {
    for case in 0..CASES {
        let mut rng = XorShift64::seed_from_u64(0xfac3_0000 + case);
        let a = se3(&mut rng);
        let b = se3(&mut rng);
        let d = a.local(&b);
        let b2 = a.retract(&d);
        assert!(b2.translation_distance(&b) < 1e-8, "case {case}");
        let dd = b.local(&b2);
        assert!(dd.iter().all(|x| x.abs() < 1e-7), "case {case}: {dd:?}");
    }
}

#[test]
fn se3_exp_log_roundtrip() {
    for case in 0..CASES {
        let mut rng = XorShift64::seed_from_u64(0xfac4_0000 + case);
        let xi = tangent6(&mut rng);
        let wnorm = (xi[3] * xi[3] + xi[4] * xi[4] + xi[5] * xi[5]).sqrt();
        if wnorm >= std::f64::consts::PI - 1e-3 {
            continue;
        }
        let p = Se3::exp(&xi);
        let back = p.log();
        for k in 0..6 {
            assert!(
                (back[k] - xi[k]).abs() < 1e-7,
                "case {case}: {xi:?} vs {back:?}"
            );
        }
    }
}

#[test]
fn se3_inverse_composes_to_identity() {
    for case in 0..CASES {
        let mut rng = XorShift64::seed_from_u64(0xfac5_0000 + case);
        let a = se3(&mut rng);
        let e = a.compose(&a.inverse());
        assert!(
            e.translation_distance(&Se3::identity()) < 1e-9,
            "case {case}"
        );
        assert!(
            e.rotation().log().iter().all(|x| x.abs() < 1e-7),
            "case {case}"
        );
    }
}

#[test]
fn between_se2_jacobian_first_order() {
    for case in 0..CASES {
        let mut rng = XorShift64::seed_from_u64(0xfac6_0000 + case);
        let a = se2(&mut rng);
        let b = se2(&mut rng);
        let z = se2(&mut rng);
        let delta = small_delta3(&mut rng);
        let mut vals = Values::new();
        let ka = vals.insert_se2(a);
        let kb = vals.insert_se2(b);
        let f = Factor::from(BetweenFactor::se2(ka, kb, z, NoiseModel::isotropic(3, 1.0)));
        let lin = f.linearize(&vals);

        // Perturb b and compare against the linear prediction.
        let mut v2 = vals.clone();
        v2.retract_at(kb, &delta);
        let vars: Vec<&Variable> = f.keys().iter().map(|&k| v2.get(k)).collect();
        let actual = f.noise().whiten(&error_vec(&f, &vars));
        let jd = lin.jacobians[1].matvec(&delta);
        for k in 0..3 {
            let predicted = lin.residual[k] + jd[k];
            assert!(
                (actual[k] - predicted).abs() < 1e-6,
                "case {case} component {k}: {} vs {}",
                actual[k],
                predicted
            );
        }
    }
}

#[test]
fn between_se3_jacobian_first_order() {
    for case in 0..CASES {
        let mut rng = XorShift64::seed_from_u64(0xfac7_0000 + case);
        let a = se3(&mut rng);
        let b = se3(&mut rng);
        let delta = small_delta6(&mut rng);
        let mut vals = Values::new();
        let ka = vals.insert_se3(a.clone());
        let kb = vals.insert_se3(b.clone());
        let z = a.inverse().compose(&b); // zero-residual measurement
        let f = Factor::from(BetweenFactor::se3(ka, kb, z, NoiseModel::isotropic(6, 1.0)));
        let lin = f.linearize(&vals);

        let mut v2 = vals.clone();
        v2.retract_at(ka, &delta);
        let vars: Vec<&Variable> = f.keys().iter().map(|&k| v2.get(k)).collect();
        let actual = f.noise().whiten(&error_vec(&f, &vars));
        let jd = lin.jacobians[0].matvec(&delta);
        for k in 0..6 {
            let predicted = lin.residual[k] + jd[k];
            assert!(
                (actual[k] - predicted).abs() < 1e-6,
                "case {case} component {k}"
            );
        }
    }
}

#[test]
fn prior_jacobian_first_order() {
    for case in 0..CASES {
        let mut rng = XorShift64::seed_from_u64(0xfac8_0000 + case);
        let a = se3(&mut rng);
        let delta = small_delta6(&mut rng);
        let mut vals = Values::new();
        let k = vals.insert_se3(a.clone());
        let f = Factor::from(PriorFactor::se3(k, a, NoiseModel::isotropic(6, 0.5)));
        let lin = f.linearize(&vals);
        let mut v2 = vals.clone();
        v2.retract_at(k, &delta);
        let vars: Vec<&Variable> = f.keys().iter().map(|&kk| v2.get(kk)).collect();
        let actual = f.noise().whiten(&error_vec(&f, &vars));
        let jd = lin.jacobians[0].matvec(&delta);
        for c in 0..6 {
            assert!(
                (actual[c] - (lin.residual[c] + jd[c])).abs() < 1e-6,
                "case {case} component {c}"
            );
        }
    }
}
