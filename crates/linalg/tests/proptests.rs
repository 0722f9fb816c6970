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
    cholesky_in_place, gemm, gemm_f32, partial_cholesky_in_place, partial_cholesky_scratch_mode,
    reference, solve_lower_leading, solve_lower_transpose_leading, syrk_lower, syrk_lower_f32,
    trsm_right_lower_transpose, trsm_right_lower_transpose_f32, KernelScratch, Mat, NumericMode,
    Transpose,
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

// ---------------------------------------------------------------------------
// Narrow-mode acceptance suite: the f32-storage entry points (`gemm_f32`,
// `syrk_lower_f32`, `trsm_right_lower_transpose_f32`) and the mode-selected
// partial factorization are checked, per narrow [`NumericMode`], against the
// unblocked f64 [`reference`] oracle on f32-representable inputs. Shapes
// reuse [`gen_dim`], so the 3/6 SLAM fast paths, per-width microkernel
// tails (dims not ≡ 0 mod 16 for the f32 engine's 16×4 tile) and the packed
// dispatch path are all exercised. Tolerances are width-appropriate:
// proportional to f32's ~1.2e-7 unit roundoff times the reduction depth.

const NARROW: [NumericMode; 2] = [NumericMode::F32, NumericMode::F32F64];

/// A random matrix whose entries are exactly representable in f32,
/// returned both as the raw column-major f32 storage the narrow entry
/// points consume and as the bit-equal f64 [`Mat`] the oracle consumes.
fn gen_mat32(rng: &mut XorShift64, rows: usize, cols: usize) -> (Vec<f32>, Mat) {
    let storage: Vec<f32> = (0..rows * cols)
        .map(|_| rng.gen_range(-2.0, 2.0) as f32)
        .collect();
    let promoted = Mat::from_cols(rows, cols, storage.iter().map(|&x| x as f64).collect());
    (storage, promoted)
}

/// Worst-case absolute error of a depth-`k` f32 reduction over entries of
/// magnitude ≤ 2: one f32 rounding per product plus (for pure-f32
/// accumulation) one per partial sum, with a wide safety margin. A
/// wrong-engine or wrong-tile bug produces O(1) errors, far above this.
fn narrow_tol(k: usize) -> f64 {
    1e-5 * (k as f64 + 1.0)
}

#[test]
fn narrow_gemm_agrees_with_f64_oracle() {
    let mut scratch = KernelScratch::new();
    for case in 0..CASES {
        let mut rng = XorShift64::seed_from_u64(0x11b0_0000 + case);
        let m = gen_dim(&mut rng);
        let n = gen_dim(&mut rng);
        let k = gen_dim(&mut rng);
        let (alpha, beta) = gen_alpha_beta(&mut rng); // edge pool is f32-exact
        let a_trans = rng.gen_bool(0.5);
        let b_trans = rng.gen_bool(0.5);
        let (a32, a64) = if a_trans {
            gen_mat32(&mut rng, k, m)
        } else {
            gen_mat32(&mut rng, m, k)
        };
        let (b32, b64) = if b_trans {
            gen_mat32(&mut rng, n, k)
        } else {
            gen_mat32(&mut rng, k, n)
        };
        let (c32, c64) = gen_mat32(&mut rng, m, n);
        let op = |t| if t { Transpose::Yes } else { Transpose::No };
        let mut want = c64;
        reference::gemm(alpha, &a64, op(a_trans), &b64, op(b_trans), beta, &mut want);
        for mode in NARROW {
            let mut c = c32.clone();
            gemm_f32(
                mode,
                m,
                n,
                k,
                alpha as f32,
                &a32,
                a_trans,
                &b32,
                b_trans,
                beta as f32,
                &mut c,
                &mut scratch,
            );
            let tol = narrow_tol(k);
            for j in 0..n {
                for i in 0..m {
                    let got = c[j * m + i] as f64;
                    let w = want[(i, j)];
                    assert!(
                        (got - w).abs() < tol,
                        "gemm {mode} case {case} ({m}x{n}x{k}) at ({i},{j}): got {got} want {w}"
                    );
                }
            }
        }
    }
}

#[test]
fn narrow_syrk_agrees_with_f64_oracle_and_preserves_upper() {
    let mut scratch = KernelScratch::new();
    for case in 0..CASES {
        let mut rng = XorShift64::seed_from_u64(0x11b1_0000 + case);
        let n = gen_dim(&mut rng);
        let k = gen_dim(&mut rng);
        let (alpha, beta) = gen_alpha_beta(&mut rng);
        let (a32, a64) = gen_mat32(&mut rng, n, k);
        let (c32, c64) = gen_mat32(&mut rng, n, n);
        let mut want = c64;
        reference::syrk_lower(alpha, &a64, beta, &mut want);
        for mode in NARROW {
            let mut c = c32.clone();
            syrk_lower_f32(
                mode,
                n,
                k,
                alpha as f32,
                &a32,
                beta as f32,
                &mut c,
                &mut scratch,
            );
            let tol = narrow_tol(k);
            for j in 0..n {
                for i in j..n {
                    let got = c[j * n + i] as f64;
                    let w = want[(i, j)];
                    assert!(
                        (got - w).abs() < tol,
                        "syrk {mode} case {case} ({n}x{k}) at ({i},{j}): got {got} want {w}"
                    );
                }
                // Strict upper triangle must be bit-untouched.
                for i in 0..j {
                    assert_eq!(
                        c[j * n + i].to_bits(),
                        c32[j * n + i].to_bits(),
                        "syrk {mode} case {case} touched upper ({i},{j})"
                    );
                }
            }
        }
    }
}

#[test]
fn narrow_trsm_agrees_with_f64_oracle() {
    let mut scratch = KernelScratch::new();
    for case in 0..CASES {
        let mut rng = XorShift64::seed_from_u64(0x11b2_0000 + case);
        let n = gen_dim(&mut rng);
        let m = gen_dim(&mut rng);
        // Well-conditioned lower-triangular L with f32-exact entries
        // (quarters), covering single-tile, tail and blocked panel shapes.
        let l64 = Mat::from_fn(n, n, |r, c| {
            if r == c {
                1.5 + 0.25 * (r % 3) as f64
            } else if r > c {
                0.25 * ((r * 5 + c * 3) % 3) as f64 - 0.25
            } else {
                0.0
            }
        });
        let l32: Vec<f32> = l64.as_slice().iter().map(|&x| x as f32).collect();
        let (b32, b64) = gen_mat32(&mut rng, m, n);
        let mut want = b64;
        reference::trsm_right_lower_transpose(&l64, &mut want);
        for mode in NARROW {
            let mut b = b32.clone();
            trsm_right_lower_transpose_f32(mode, m, n, &l32, &mut b, &mut scratch);
            // Forward error amplifies with the solve's reduction depth n.
            let tol = narrow_tol(n) * 10.0;
            for j in 0..n {
                for i in 0..m {
                    let got = b[j * m + i] as f64;
                    let w = want[(i, j)];
                    assert!(
                        (got - w).abs() < tol,
                        "trsm {mode} case {case} ({m}x{n}) at ({i},{j}): got {got} want {w}"
                    );
                }
            }
        }
    }
}

#[test]
fn narrow_partial_cholesky_matches_f64_oracle() {
    let mut scratch = KernelScratch::new();
    // Front sizes spanning the 3/6 SLAM fast paths, both engines' tile
    // tails, and the blocked/packed path.
    const FRONTS: [usize; 8] = [1, 2, 3, 6, 7, 12, 30, 33];
    for case in 0..CASES {
        let mut rng = XorShift64::seed_from_u64(0x11b3_0000 + case);
        let n = FRONTS[rng.gen_index(FRONTS.len())];
        let pivots = rng.gen_index(n + 1);
        // Strongly diagonally dominant SPD front with f32-exact entries:
        // G·Gᵀ + (n+1)·I, symmetrized, rounded to f32 (an eps-level
        // symmetric perturbation that cannot break definiteness).
        let g = gen_mat(&mut rng, n, n);
        let mut a = Mat::from_diag(&vec![n as f64 + 1.0; n]);
        syrk_lower(1.0, &g, 1.0, &mut a);
        let sym = Mat::from_fn(n, n, |r, c| if r >= c { a[(r, c)] } else { a[(c, r)] });
        let front0 = Mat::from_cols(
            n,
            n,
            sym.as_slice().iter().map(|&x| (x as f32) as f64).collect(),
        );
        let mut want = front0.clone();
        partial_cholesky_in_place(&mut want, pivots).unwrap();
        for mode in NARROW {
            let mut front = front0.clone();
            partial_cholesky_scratch_mode(&mut front, pivots, &mut scratch, mode)
                .unwrap_or_else(|e| panic!("{mode} case {case} n={n} p={pivots}: {e}"));
            // Pivot-column factor entries and the trailing Schur update
            // both live below the diagonal; entries scale like n, the
            // reduction depth is ≤ n and the factor divides by pivots
            // ≥ 1, so give the GEMM-depth bound an extra margin.
            let tol = narrow_tol(n) * (n as f64 + 1.0);
            for j in 0..n {
                for i in j..n {
                    let got = front[(i, j)];
                    let w = want[(i, j)];
                    assert!(
                        (got - w).abs() < tol,
                        "chol {mode} case {case} n={n} p={pivots} at ({i},{j}): got {got} want {w}"
                    );
                }
            }
        }
    }
}
