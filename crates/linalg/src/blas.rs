//! BLAS-style kernels over [`Mat`] and slices.
//!
//! These are the exact operation classes the paper's COMP accelerator
//! executes (Figure 3 / §4.2.1): GEMM with optional operand transposition
//! (the hardware transposer), symmetric rank-k updates (the dominant cost in
//! Cholesky), and the triangular solve used on supernode subdiagonal blocks.
//!
//! Every level-3 entry point is a thin shape-checking wrapper over the
//! blocked, packed kernel core in [`crate::kernels`]; the `_scratch`
//! variants take a caller-owned [`KernelScratch`] arena so hot loops (the
//! multifrontal executor) reuse pack buffers across calls and allocate
//! nothing in steady state. The plain variants allocate a transient arena —
//! convenient for cold paths and tests, identical numerics either way.

use crate::kernels::{self, syrk_core, trsm_core, KernelScratch, MutView, View};
use crate::Mat;

/// Whether a GEMM operand is used as-is or transposed.
///
/// Mirrors the COMP tile's transposer, which lets either operand of a matrix
/// product be transposed on load (§4.2.1). Transposition is free in the
/// blocked kernels: it only changes the order pack buffers are filled in.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum Transpose {
    /// Use the operand as stored.
    #[default]
    No,
    /// Use the transpose of the operand.
    Yes,
}

impl Transpose {
    fn dims(self, m: &Mat) -> (usize, usize) {
        match self {
            Transpose::No => (m.rows(), m.cols()),
            Transpose::Yes => (m.cols(), m.rows()),
        }
    }

    fn flip(self) -> bool {
        self == Transpose::Yes
    }
}

/// General matrix–matrix multiply: `c = alpha * op_a(a) * op_b(b) + beta * c`.
///
/// Allocating wrapper over [`gemm_scratch`] (a transient pack arena is
/// created per call); hot paths should hold a [`KernelScratch`] and call
/// the `_scratch` variant.
///
/// # Panics
///
/// Panics if the operand shapes are incompatible with `c`.
///
/// # Example
///
/// ```
/// use supernova_linalg::{gemm, Mat, Transpose};
///
/// let a = Mat::from_rows(2, 2, &[1.0, 2.0, 3.0, 4.0]);
/// let b = Mat::identity(2);
/// let mut c = Mat::zeros(2, 2);
/// gemm(1.0, &a, Transpose::No, &b, Transpose::No, 0.0, &mut c);
/// assert_eq!(c, a);
/// ```
pub fn gemm(
    alpha: f64,
    a: &Mat,
    op_a: Transpose,
    b: &Mat,
    op_b: Transpose,
    beta: f64,
    c: &mut Mat,
) {
    let mut scratch = KernelScratch::new();
    gemm_scratch(alpha, a, op_a, b, op_b, beta, c, &mut scratch);
}

/// [`gemm`] with a caller-owned pack-buffer arena (zero-alloc when warm).
///
/// # Panics
///
/// Panics if the operand shapes are incompatible with `c`.
#[allow(clippy::too_many_arguments)]
pub fn gemm_scratch(
    alpha: f64,
    a: &Mat,
    op_a: Transpose,
    b: &Mat,
    op_b: Transpose,
    beta: f64,
    c: &mut Mat,
    scratch: &mut KernelScratch,
) {
    let (m, k) = op_a.dims(a);
    let (kb, n) = op_b.dims(b);
    assert_eq!(k, kb, "gemm inner dimension mismatch: {k} vs {kb}");
    assert_eq!(c.rows(), m, "gemm output row mismatch");
    assert_eq!(c.cols(), n, "gemm output column mismatch");
    kernels::gemm_mats(
        alpha,
        &View::of(a, op_a.flip()),
        &View::of(b, op_b.flip()),
        beta,
        c,
        scratch,
    );
}

/// Symmetric rank-k update on the lower triangle:
/// `c_lower = beta * c_lower - a * aᵀ` scaled by `alpha` on the update term,
/// i.e. `c = beta * c + alpha * a * aᵀ`, touching only `i >= j`.
///
/// This is the third step of the supernode partial factorization,
/// `L_C = C − L_B L_Bᵀ` (§3.2), and the paper's most power-intensive
/// operation (§6.5). Allocating wrapper over [`syrk_lower_scratch`].
///
/// # Panics
///
/// Panics if `c` is not square with `c.rows() == a.rows()`.
pub fn syrk_lower(alpha: f64, a: &Mat, beta: f64, c: &mut Mat) {
    let mut scratch = KernelScratch::new();
    syrk_lower_scratch(alpha, a, beta, c, &mut scratch);
}

/// [`syrk_lower`] with a caller-owned pack-buffer arena (zero-alloc when
/// warm).
///
/// # Panics
///
/// Panics if `c` is not square with `c.rows() == a.rows()`.
pub fn syrk_lower_scratch(
    alpha: f64,
    a: &Mat,
    beta: f64,
    c: &mut Mat,
    scratch: &mut KernelScratch,
) {
    assert_eq!(c.rows(), c.cols(), "syrk output must be square");
    assert_eq!(c.rows(), a.rows(), "syrk dimension mismatch");
    let mut cv = MutView::of(c);
    cv.scale_lower(beta);
    syrk_core(alpha, &View::of(a, false), &mut cv, scratch);
}

/// Triangular solve `x * opᵀ(l) = b` for `x`, overwriting `b`:
/// computes `b := b * l⁻ᵀ` where `l` is lower triangular.
///
/// This is the supernode subdiagonal step `L_B L_Aᵀ = B` solved for `L_B`
/// (§3.2, step 2). Allocating wrapper over
/// [`trsm_right_lower_transpose_scratch`].
///
/// # Panics
///
/// Panics if `l` is not square or `b.cols() != l.rows()`.
pub fn trsm_right_lower_transpose(l: &Mat, b: &mut Mat) {
    let mut scratch = KernelScratch::new();
    trsm_right_lower_transpose_scratch(l, b, &mut scratch);
}

/// [`trsm_right_lower_transpose`] with a caller-owned pack-buffer arena
/// (zero-alloc when warm).
///
/// # Panics
///
/// Panics if `l` is not square or `b.cols() != l.rows()`.
pub fn trsm_right_lower_transpose_scratch(l: &Mat, b: &mut Mat, scratch: &mut KernelScratch) {
    assert_eq!(l.rows(), l.cols(), "trsm triangle must be square");
    assert_eq!(b.cols(), l.rows(), "trsm dimension mismatch");
    let n = l.rows();
    let m = b.rows();
    if n == 0 || m == 0 {
        return;
    }
    let ld = m;
    trsm_core(
        &View::of(l, false),
        b.as_mut_slice(),
        ld,
        0,
        0,
        m,
        n,
        scratch,
    );
}

/// Dot product of two equal-length slices.
///
/// # Panics
///
/// Panics if the lengths differ.
pub fn dot(x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len(), "dot length mismatch");
    x.iter().zip(y).map(|(a, b)| a * b).sum()
}

/// Infinity norm (maximum absolute entry) of a slice; zero when empty.
pub fn norm_inf(x: &[f64]) -> f64 {
    x.iter().fold(0.0_f64, |m, &v| m.max(v.abs()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;

    fn naive_mul(a: &Mat, b: &Mat) -> Mat {
        let mut c = Mat::zeros(a.rows(), b.cols());
        for i in 0..a.rows() {
            for j in 0..b.cols() {
                for p in 0..a.cols() {
                    c[(i, j)] += a[(i, p)] * b[(p, j)];
                }
            }
        }
        c
    }

    #[test]
    fn gemm_matches_naive() {
        let a = Mat::from_fn(3, 4, |r, c| (r + 2 * c) as f64 - 1.5);
        let b = Mat::from_fn(4, 2, |r, c| (2 * r + c) as f64 * 0.5);
        let mut c = Mat::zeros(3, 2);
        gemm(1.0, &a, Transpose::No, &b, Transpose::No, 0.0, &mut c);
        let want = naive_mul(&a, &b);
        assert!((0..3).all(|i| (0..2).all(|j| (c[(i, j)] - want[(i, j)]).abs() < 1e-12)));
    }

    #[test]
    fn gemm_transposed_operands() {
        let a = Mat::from_fn(4, 3, |r, c| (r * 3 + c) as f64);
        let b = Mat::from_fn(2, 4, |r, c| (r + c) as f64);
        let mut c = Mat::zeros(3, 2);
        gemm(1.0, &a, Transpose::Yes, &b, Transpose::Yes, 0.0, &mut c);
        let want = naive_mul(&a.transposed(), &b.transposed());
        for i in 0..3 {
            for j in 0..2 {
                assert!((c[(i, j)] - want[(i, j)]).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn gemm_transposed_operands_large_packed() {
        // Big enough to take the packed path in every transpose combo.
        let a = Mat::from_fn(48, 52, |r, c| ((r * 13 + c * 5) % 17) as f64 * 0.5 - 2.0);
        let b = Mat::from_fn(45, 52, |r, c| ((r * 3 + c * 11) % 13) as f64 * 0.25 - 1.0);
        for (op_a, op_b) in [
            (Transpose::No, Transpose::Yes),
            (Transpose::Yes, Transpose::No),
            (Transpose::Yes, Transpose::Yes),
        ] {
            let (m, k) = op_a.dims(&a);
            let (kb, n) = op_b.dims(&b);
            if k != kb {
                continue;
            }
            let la = match op_a {
                Transpose::No => a.clone(),
                Transpose::Yes => a.transposed(),
            };
            let lb = match op_b {
                Transpose::No => b.clone(),
                Transpose::Yes => b.transposed(),
            };
            let want = naive_mul(&la, &lb);
            let mut c = Mat::zeros(m, n);
            gemm(1.0, &a, op_a, &b, op_b, 0.0, &mut c);
            for i in 0..m {
                for j in 0..n {
                    assert!(
                        (c[(i, j)] - want[(i, j)]).abs() < 1e-9,
                        "{op_a:?}/{op_b:?} at ({i},{j})"
                    );
                }
            }
        }
    }

    #[test]
    fn gemm_alpha_beta() {
        let a = Mat::identity(2);
        let b = Mat::from_rows(2, 2, &[1.0, 2.0, 3.0, 4.0]);
        let mut c = Mat::from_rows(2, 2, &[10.0, 0.0, 0.0, 10.0]);
        gemm(2.0, &a, Transpose::No, &b, Transpose::No, 0.5, &mut c);
        assert_eq!(c[(0, 0)], 2.0 + 5.0);
        assert_eq!(c[(0, 1)], 4.0);
        assert_eq!(c[(1, 1)], 8.0 + 5.0);
    }

    #[test]
    fn scratch_variant_is_bit_identical_to_allocating_variant() {
        let a = Mat::from_fn(40, 36, |r, c| ((r * 7 + c) % 9) as f64 - 4.0);
        let b = Mat::from_fn(36, 44, |r, c| ((r + c * 3) % 7) as f64 * 0.5);
        let mut c1 = Mat::from_fn(40, 44, |r, c| (r + c) as f64 * 0.1);
        let mut c2 = c1.clone();
        gemm(1.5, &a, Transpose::No, &b, Transpose::No, 0.5, &mut c1);
        let mut scratch = KernelScratch::with_capacity(64);
        gemm_scratch(
            1.5,
            &a,
            Transpose::No,
            &b,
            Transpose::No,
            0.5,
            &mut c2,
            &mut scratch,
        );
        // Same kernels, same order — the arena must not change values.
        assert!(c1
            .as_slice()
            .iter()
            .zip(c2.as_slice())
            .all(|(x, y)| x.to_bits() == y.to_bits()));
    }

    #[test]
    fn syrk_matches_gemm() {
        let a = Mat::from_fn(4, 3, |r, c| ((r + 1) * (c + 2)) as f64 * 0.25 - 1.0);
        let mut c = Mat::zeros(4, 4);
        syrk_lower(1.0, &a, 0.0, &mut c);
        let full = naive_mul(&a, &a.transposed());
        for j in 0..4 {
            for i in j..4 {
                assert!((c[(i, j)] - full[(i, j)]).abs() < 1e-12);
            }
        }
        // Upper strict triangle untouched (remains zero).
        assert_eq!(c[(0, 3)], 0.0);
    }

    #[test]
    fn syrk_blocked_matches_reference_on_large_front() {
        let a = Mat::from_fn(61, 43, |r, c| ((r * 5 + c * 7) % 19) as f64 * 0.1 - 0.9);
        let mut blocked = Mat::from_fn(61, 61, |r, c| (r + c) as f64 * 0.01);
        let mut naive = blocked.clone();
        syrk_lower(-1.0, &a, 1.0, &mut blocked);
        reference::syrk_lower(-1.0, &a, 1.0, &mut naive);
        for j in 0..61 {
            for i in j..61 {
                assert!(
                    (blocked[(i, j)] - naive[(i, j)]).abs() < 1e-9,
                    "({i},{j}) blocked {} naive {}",
                    blocked[(i, j)],
                    naive[(i, j)]
                );
            }
            // Strict upper untouched by either.
            for i in 0..j {
                assert_eq!(blocked[(i, j)].to_bits(), naive[(i, j)].to_bits());
            }
        }
    }

    #[test]
    fn trsm_inverts_multiplication() {
        let l = Mat::from_rows(3, 3, &[2.0, 0.0, 0.0, 1.0, 3.0, 0.0, -1.0, 0.5, 1.5]);
        let x_true = Mat::from_fn(2, 3, |r, c| (r * 3 + c) as f64 + 1.0);
        // b = x_true * lᵀ
        let mut b = Mat::zeros(2, 3);
        gemm(1.0, &x_true, Transpose::No, &l, Transpose::Yes, 0.0, &mut b);
        trsm_right_lower_transpose(&l, &mut b);
        for i in 0..2 {
            for j in 0..3 {
                assert!((b[(i, j)] - x_true[(i, j)]).abs() < 1e-10);
            }
        }
    }

    #[test]
    fn trsm_blocked_matches_reference_past_block_boundary() {
        // n > TRSM block width so the packed GEMM update path runs.
        let n = 75;
        let m = 23;
        let l = Mat::from_fn(n, n, |r, c| {
            if r == c {
                2.0 + (r % 5) as f64 * 0.25
            } else if r > c {
                ((r * 3 + c * 7) % 11) as f64 * 0.05 - 0.25
            } else {
                0.0
            }
        });
        let b0 = Mat::from_fn(m, n, |r, c| ((r * 7 + c) % 13) as f64 * 0.5 - 3.0);
        let mut blocked = b0.clone();
        let mut naive = b0;
        trsm_right_lower_transpose(&l, &mut blocked);
        reference::trsm_right_lower_transpose(&l, &mut naive);
        for i in 0..m {
            for j in 0..n {
                assert!(
                    (blocked[(i, j)] - naive[(i, j)]).abs() < 1e-8,
                    "({i},{j}) blocked {} naive {}",
                    blocked[(i, j)],
                    naive[(i, j)]
                );
            }
        }
    }

    #[test]
    fn empty_dims_are_noops() {
        let a = Mat::zeros(0, 3);
        let b = Mat::zeros(3, 0);
        let mut c = Mat::zeros(0, 0);
        gemm(1.0, &a, Transpose::No, &b, Transpose::No, 0.0, &mut c);
        let ak = Mat::zeros(4, 0);
        let bk = Mat::zeros(0, 5);
        let mut ck = Mat::from_fn(4, 5, |r, c| (r + c) as f64);
        let before = ck.clone();
        gemm(3.0, &ak, Transpose::No, &bk, Transpose::No, 1.0, &mut ck);
        assert_eq!(ck, before, "k = 0 with beta = 1 must leave c untouched");
        let mut e = Mat::zeros(0, 0);
        syrk_lower(1.0, &Mat::zeros(0, 2), 1.0, &mut e);
        trsm_right_lower_transpose(&Mat::zeros(0, 0), &mut Mat::zeros(3, 0));
    }

    #[test]
    fn vector_helpers() {
        assert_eq!(dot(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
        assert_eq!(norm_inf(&[-7.0, 2.0]), 7.0);
        assert_eq!(norm_inf(&[]), 0.0);
    }
}
