//! Randomized tests for the dense kernels, driven by the in-tree seeded
//! PRNG so every case is reproducible offline.
//!
//! The `blocked_*` tests are the blocked-kernel acceptance suite: every
//! public level-3 entry point is checked against the unblocked
//! [`reference`] kernels over randomized shapes chosen to exercise
//! microkernel tails (dims not divisible by the 4×4 tile), the packed and
//! direct dispatch paths, all transpose combinations, alpha/beta edge
//! cases (0, 1, negative) and empty dimensions.

use supernova_linalg::rng::XorShift64;
use supernova_linalg::{
    cholesky_in_place, gemm, partial_cholesky_in_place, reference, solve_lower_leading,
    solve_lower_transpose_leading, syrk_lower, trsm_right_lower_transpose, Mat, Transpose,
};

const CASES: u64 = 128;

/// A random well-conditioned SPD matrix of size 1..=8.
fn spd_matrix(rng: &mut XorShift64) -> Mat {
    let n = 1 + rng.gen_index(8);
    let g = Mat::from_fn(n, n, |_, _| rng.gen_range(-1.0, 1.0));
    let mut a = Mat::from_diag(&vec![n as f64 + 1.0; n]);
    syrk_lower(1.0, &g, 1.0, &mut a);
    Mat::from_fn(n, n, |r, c| if r >= c { a[(r, c)] } else { a[(c, r)] })
}

#[test]
fn cholesky_reconstructs_input() {
    for case in 0..CASES {
        let mut rng = XorShift64::seed_from_u64(0x11a0_0000 + case);
        let a = spd_matrix(&mut rng);
        let n = a.rows();
        let mut l = a.clone();
        cholesky_in_place(&mut l).unwrap();
        let mut r = Mat::zeros(n, n);
        gemm(1.0, &l, Transpose::No, &l, Transpose::Yes, 0.0, &mut r);
        for i in 0..n {
            for j in 0..n {
                assert!(
                    (r[(i, j)] - a[(i, j)]).abs() < 1e-7 * (n as f64 + 1.0),
                    "case {case} at ({i},{j})"
                );
            }
        }
    }
}

#[test]
fn solve_inverts_spd_system() {
    for case in 0..CASES {
        let mut rng = XorShift64::seed_from_u64(0x11a1_0000 + case);
        let a = spd_matrix(&mut rng);
        let n = a.rows();
        let seed = rng.gen_index(1000) as u64;
        let x_true: Vec<f64> = (0..n)
            .map(|i| ((seed + i as u64) % 7) as f64 - 3.0)
            .collect();
        let b = a.matvec(&x_true);
        let mut l = a.clone();
        cholesky_in_place(&mut l).unwrap();
        let mut x = b;
        solve_lower_leading(&l, &mut x);
        solve_lower_transpose_leading(&l, &mut x);
        for i in 0..n {
            assert!((x[i] - x_true[i]).abs() < 1e-6, "case {case} component {i}");
        }
    }
}

#[test]
fn partial_factorization_prefix_of_full() {
    for case in 0..CASES {
        let mut rng = XorShift64::seed_from_u64(0x11a2_0000 + case);
        let a = spd_matrix(&mut rng);
        let n = a.rows();
        let pivots = rng.gen_index(9).min(n);
        let mut full = a.clone();
        cholesky_in_place(&mut full).unwrap();
        let mut front = a.clone();
        partial_cholesky_in_place(&mut front, pivots).unwrap();
        for j in 0..pivots {
            for i in j..n {
                assert!(
                    (front[(i, j)] - full[(i, j)]).abs() < 1e-7,
                    "case {case} at ({i},{j})"
                );
            }
        }
    }
}

#[test]
fn gemm_is_linear_in_alpha() {
    for case in 0..CASES {
        let mut rng = XorShift64::seed_from_u64(0x11a3_0000 + case);
        let a = Mat::from_fn(3, 3, |_, _| rng.gen_range(-2.0, 2.0));
        let b = Mat::from_fn(3, 3, |_, _| rng.gen_range(-2.0, 2.0));
        let alpha = rng.gen_range(-3.0, 3.0);
        let mut c1 = Mat::zeros(3, 3);
        gemm(alpha, &a, Transpose::No, &b, Transpose::No, 0.0, &mut c1);
        let mut c2 = Mat::zeros(3, 3);
        gemm(1.0, &a, Transpose::No, &b, Transpose::No, 0.0, &mut c2);
        c2.scale(alpha);
        for i in 0..3 {
            for j in 0..3 {
                assert!(
                    (c1[(i, j)] - c2[(i, j)]).abs() < 1e-10,
                    "case {case} at ({i},{j})"
                );
            }
        }
    }
}

/// Shape distribution biased toward interesting sizes: empty dims, the
/// SLAM-typical 3/6 fast-path dims, tile-tail dims (not ≡ 0 mod 4), and
/// packed-path dims (> 24).
fn gen_dim(rng: &mut XorShift64) -> usize {
    const POOL: [usize; 12] = [0, 1, 2, 3, 5, 6, 7, 12, 17, 30, 33, 61];
    POOL[rng.gen_index(POOL.len())]
}

fn gen_mat(rng: &mut XorShift64, rows: usize, cols: usize) -> Mat {
    Mat::from_fn(rows, cols, |_, _| rng.gen_range(-2.0, 2.0))
}

fn gen_alpha_beta(rng: &mut XorShift64) -> (f64, f64) {
    const EDGES: [f64; 5] = [0.0, 1.0, -1.0, 0.5, -2.25];
    (
        EDGES[rng.gen_index(EDGES.len())],
        EDGES[rng.gen_index(EDGES.len())],
    )
}

fn assert_close(case: u64, label: &str, got: &Mat, want: &Mat, tol: f64) {
    assert_eq!(got.rows(), want.rows());
    assert_eq!(got.cols(), want.cols());
    for j in 0..want.cols() {
        for i in 0..want.rows() {
            assert!(
                (got[(i, j)] - want[(i, j)]).abs() < tol,
                "{label} case {case} at ({i},{j}): got {} want {}",
                got[(i, j)],
                want[(i, j)]
            );
        }
    }
}

#[test]
fn blocked_gemm_agrees_with_reference_all_transposes_and_edges() {
    for case in 0..CASES {
        let mut rng = XorShift64::seed_from_u64(0x11a5_0000 + case);
        let m = gen_dim(&mut rng);
        let n = gen_dim(&mut rng);
        let k = gen_dim(&mut rng);
        let (alpha, beta) = gen_alpha_beta(&mut rng);
        let op_a = if rng.gen_bool(0.5) {
            Transpose::Yes
        } else {
            Transpose::No
        };
        let op_b = if rng.gen_bool(0.5) {
            Transpose::Yes
        } else {
            Transpose::No
        };
        let a = match op_a {
            Transpose::No => gen_mat(&mut rng, m, k),
            Transpose::Yes => gen_mat(&mut rng, k, m),
        };
        let b = match op_b {
            Transpose::No => gen_mat(&mut rng, k, n),
            Transpose::Yes => gen_mat(&mut rng, n, k),
        };
        let c0 = gen_mat(&mut rng, m, n);
        let mut blocked = c0.clone();
        let mut naive = c0;
        gemm(alpha, &a, op_a, &b, op_b, beta, &mut blocked);
        reference::gemm(alpha, &a, op_a, &b, op_b, beta, &mut naive);
        let tol = 1e-10 * (k as f64 + 1.0);
        assert_close(case, "gemm", &blocked, &naive, tol);
    }
}

#[test]
fn blocked_syrk_agrees_with_reference_and_preserves_upper() {
    for case in 0..CASES {
        let mut rng = XorShift64::seed_from_u64(0x11a6_0000 + case);
        let n = gen_dim(&mut rng);
        let k = gen_dim(&mut rng);
        let (alpha, beta) = gen_alpha_beta(&mut rng);
        let a = gen_mat(&mut rng, n, k);
        let c0 = gen_mat(&mut rng, n, n);
        let mut blocked = c0.clone();
        let mut naive = c0.clone();
        syrk_lower(alpha, &a, beta, &mut blocked);
        reference::syrk_lower(alpha, &a, beta, &mut naive);
        let tol = 1e-10 * (k as f64 + 1.0);
        assert_close(case, "syrk", &blocked, &naive, tol);
        // Strict upper triangle must be bit-untouched by both.
        for j in 0..n {
            for i in 0..j {
                assert_eq!(
                    blocked[(i, j)].to_bits(),
                    c0[(i, j)].to_bits(),
                    "syrk case {case} touched upper ({i},{j})"
                );
            }
        }
    }
}

#[test]
fn blocked_trsm_agrees_with_reference() {
    for case in 0..CASES {
        let mut rng = XorShift64::seed_from_u64(0x11a7_0000 + case);
        let n = gen_dim(&mut rng);
        let m = gen_dim(&mut rng);
        // Well-conditioned lower-triangular L: unit-ish diagonal, small
        // off-diagonal entries.
        let l = Mat::from_fn(n, n, |r, c| {
            if r == c {
                1.5 + 0.1 * (r % 7) as f64
            } else if r > c {
                0.3 * ((r * 5 + c * 3) % 7) as f64 / 7.0 - 0.15
            } else {
                0.0
            }
        });
        let b0 = gen_mat(&mut rng, m, n);
        let mut blocked = b0.clone();
        let mut naive = b0;
        trsm_right_lower_transpose(&l, &mut blocked);
        reference::trsm_right_lower_transpose(&l, &mut naive);
        let tol = 1e-9 * (n as f64 + 1.0);
        assert_close(case, "trsm", &blocked, &naive, tol);
    }
}

#[test]
fn blocked_gemm_is_deterministic_per_call() {
    // Same inputs → byte-identical outputs, repeatedly (dispatch and
    // accumulation order depend only on shape).
    for case in 0..16 {
        let mut rng = XorShift64::seed_from_u64(0x11a8_0000 + case);
        let m = gen_dim(&mut rng).max(1);
        let n = gen_dim(&mut rng).max(1);
        let k = gen_dim(&mut rng).max(1);
        let a = gen_mat(&mut rng, m, k);
        let b = gen_mat(&mut rng, k, n);
        let mut first = Mat::zeros(m, n);
        gemm(1.0, &a, Transpose::No, &b, Transpose::No, 0.0, &mut first);
        for _ in 0..3 {
            let mut again = Mat::zeros(m, n);
            gemm(1.0, &a, Transpose::No, &b, Transpose::No, 0.0, &mut again);
            assert!(first
                .as_slice()
                .iter()
                .zip(again.as_slice())
                .all(|(x, y)| x.to_bits() == y.to_bits()));
        }
    }
}

#[test]
fn transpose_product_identity() {
    for case in 0..CASES {
        let mut rng = XorShift64::seed_from_u64(0x11a4_0000 + case);
        // (Aᵀ A) must be symmetric.
        let a = Mat::from_fn(4, 3, |_, _| rng.gen_range(-2.0, 2.0));
        let mut c = Mat::zeros(3, 3);
        gemm(1.0, &a, Transpose::Yes, &a, Transpose::No, 0.0, &mut c);
        for i in 0..3 {
            for j in 0..3 {
                assert!(
                    (c[(i, j)] - c[(j, i)]).abs() < 1e-10,
                    "case {case} at ({i},{j})"
                );
            }
        }
    }
}
