//! Dense and partial (frontal) Cholesky factorization.
//!
//! Both entry points share one blocked right-looking driver that factors
//! the leading `pivots` columns of a front **in place**: per `NB`-wide
//! panel it runs an unblocked Cholesky on the diagonal block, a blocked
//! TRSM on everything below it (against a packed copy of the diagonal
//! block, so no aliasing), and a blocked SYRK on the trailing lower
//! triangle. When `pivots == n` that is full Cholesky; when `pivots < n`
//! the trailing block ends up holding exactly the Schur complement
//! `C − L_B L_Bᵀ` — the multifrontal update matrix (§3.2) — because the
//! right-looking trailing updates accumulate it panel by panel. Unlike the
//! earlier implementation there are no `block()`/`set_block()` round
//! trips, so a warm [`KernelScratch`] makes the whole factorization
//! allocation-free.

use std::error::Error;
use std::fmt;

use crate::kernels::{
    syrk_core_g, trsm_core_g, KernelScratch, MutView, Scalar, View, MR, MR_F32, NR, NR_F32,
};
use crate::{Mat, NumericMode};

/// The matrix handed to a Cholesky factorization was not (numerically)
/// symmetric positive definite.
///
/// Carries the column at which a non-positive pivot was encountered, which in
/// the SLAM backend identifies the offending variable block.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NotPositiveDefiniteError {
    col: usize,
}

impl NotPositiveDefiniteError {
    /// Column index of the failing pivot.
    pub fn col(&self) -> usize {
        self.col
    }
}

impl fmt::Display for NotPositiveDefiniteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "matrix is not positive definite at column {}", self.col)
    }
}

impl Error for NotPositiveDefiniteError {}

/// Panel width of the blocked factorization: panels stay in cache and the
/// below-panel / trailing updates run through the packed BLAS-3 kernels.
/// Defined next to the kernels so [`KernelScratch::reserve`] can pre-size
/// the triangular-panel buffer to `NB²`.
const NB: usize = crate::kernels::CHOL_NB;

/// Factors the leading `pivots` columns of the `total × total` column-major
/// matrix in `data` (leading dimension `ld`), right-looking: after the last
/// panel, columns `0..pivots` hold `L_A` over `L_B` and the trailing
/// `(total − pivots)²` lower triangle holds `C − L_B L_Bᵀ`.
///
/// Generic over the scalar `S` with the mode's microkernel tile
/// constants, so the same driver serves every [`NumericMode`]; the f64
/// instantiation is the historic driver operation for operation.
pub(crate) fn factor_columns_g<S: Scalar, const MR_: usize, const NR_: usize>(
    data: &mut [S],
    ld: usize,
    total: usize,
    pivots: usize,
    scratch: &mut KernelScratch,
) -> Result<(), NotPositiveDefiniteError> {
    let mut k = 0usize;
    while k < pivots {
        let b = NB.min(pivots - k);
        cholesky_unblocked_raw_g::<S>(data, ld, k, b)?;
        let below = total - k - b;
        if below > 0 {
            // Solve the full subcolumn against a packed copy of the diagonal
            // block (separate storage, so the blocked TRSM can read L while
            // writing the same columns of the front).
            let mut lbuf = S::take_panel(scratch, b * b);
            for j in 0..b {
                let src = &data[(k + j) * ld + k..(k + j) * ld + k + b];
                lbuf[j * b..(j + 1) * b].copy_from_slice(src);
            }
            let lview = View::raw(&lbuf, b, 0, 0, b, b, false);
            trsm_core_g::<S, MR_, NR_>(&lview, data, ld, k + b, k, below, b, scratch);
            S::put_panel(scratch, lbuf);

            // Trailing update: the panel's columns and the trailing block
            // are disjoint column ranges, so a column split gives aliasing-
            // free views into the same front.
            let (left, right) = data.split_at_mut((k + b) * ld);
            let aview = View::raw(left, ld, k + b, k, below, b, false);
            let mut cview = MutView::raw(right, ld, k + b, 0, below, below);
            syrk_core_g::<S, MR_, NR_>(-S::ONE, &aview, &mut cview, scratch);
        }
        k += b;
    }
    Ok(())
}

/// f64 instantiation of [`factor_columns_g`].
fn factor_columns(
    data: &mut [f64],
    ld: usize,
    total: usize,
    pivots: usize,
    scratch: &mut KernelScratch,
) -> Result<(), NotPositiveDefiniteError> {
    factor_columns_g::<f64, MR, NR>(data, ld, total, pivots, scratch)
}

/// Unblocked left-looking Cholesky of the `b × b` diagonal block at
/// `(k, k)`; zeroes the block's strict upper triangle and reports pivot
/// failures in global column coordinates.
fn cholesky_unblocked_raw_g<S: Scalar>(
    data: &mut [S],
    ld: usize,
    k: usize,
    b: usize,
) -> Result<(), NotPositiveDefiniteError> {
    for j in 0..b {
        let cj = (k + j) * ld + k;
        // d = a[j,j] - Σ_{p<j} L[j,p]²
        let mut d = data[cj + j];
        for p in 0..j {
            let ljp = data[(k + p) * ld + k + j];
            d -= ljp * ljp;
        }
        if !(d > S::ZERO) || !d.is_finite() {
            return Err(NotPositiveDefiniteError { col: k + j });
        }
        let djj = d.sqrt();
        data[cj + j] = djj;
        for i in (j + 1)..b {
            let mut s = data[cj + i];
            for p in 0..j {
                s -= data[(k + p) * ld + k + i] * data[(k + p) * ld + k + j];
            }
            data[cj + i] = s / djj;
        }
        for i in 0..j {
            data[cj + i] = S::ZERO;
        }
    }
    Ok(())
}

/// Zeroes the strict upper triangle of the leading `n × n` block.
fn zero_strict_upper<S: Scalar>(data: &mut [S], ld: usize, n: usize) {
    for j in 1..n {
        for x in &mut data[j * ld..j * ld + j.min(ld)] {
            *x = S::ZERO;
        }
    }
}

/// Factors a symmetric positive-definite matrix in place: on success the
/// lower triangle of `a` holds `L` with `a = L Lᵀ`.
///
/// Only the lower triangle of the input is read; the strict upper triangle is
/// zeroed on success so the result can be used directly as `L`. Allocating
/// wrapper over [`cholesky_in_place_scratch`].
///
/// # Errors
///
/// Returns [`NotPositiveDefiniteError`] when a pivot is not strictly
/// positive; the matrix is left partially factored in that case.
///
/// # Panics
///
/// Panics if `a` is not square.
///
/// # Example
///
/// ```
/// use supernova_linalg::{cholesky_in_place, Mat};
///
/// let mut a = Mat::from_rows(2, 2, &[4.0, 2.0, 2.0, 5.0]);
/// cholesky_in_place(&mut a)?;
/// assert_eq!(a[(0, 0)], 2.0);
/// # Ok::<(), supernova_linalg::NotPositiveDefiniteError>(())
/// ```
pub fn cholesky_in_place(a: &mut Mat) -> Result<(), NotPositiveDefiniteError> {
    cholesky_in_place_scratch(a, &mut KernelScratch::new())
}

/// [`cholesky_in_place`] with a caller-owned pack-buffer arena (zero-alloc
/// when warm).
///
/// # Errors
///
/// Returns [`NotPositiveDefiniteError`] when a pivot is not strictly
/// positive.
///
/// # Panics
///
/// Panics if `a` is not square.
pub fn cholesky_in_place_scratch(
    a: &mut Mat,
    scratch: &mut KernelScratch,
) -> Result<(), NotPositiveDefiniteError> {
    assert_eq!(a.rows(), a.cols(), "cholesky requires a square matrix");
    let n = a.rows();
    factor_columns(a.as_mut_slice(), n, n, n, scratch)?;
    // Zero the strict upper triangle so the result is usable as L directly.
    zero_strict_upper(a.as_mut_slice(), n, n);
    Ok(())
}

/// Partial factorization of a frontal matrix (§3.2 of the paper).
///
/// `front` is the `(m + n) × (m + n)` symmetric frontal matrix
/// `[[A, ·], [B, C]]` with only the lower triangle stored; `m = pivots` is
/// the number of columns that belong to the supernode. On success:
///
/// 1. `A = L_A L_Aᵀ` — the leading `m × m` block holds `L_A`;
/// 2. `L_B L_Aᵀ = B` — the `n × m` subdiagonal block holds `L_B`;
/// 3. `L_C = C − L_B L_Bᵀ` — the trailing `n × n` lower triangle holds the
///    update matrix that is scatter-added into the parent (the *merge* step).
///
/// Allocating wrapper over [`partial_cholesky_scratch`].
///
/// # Errors
///
/// Returns [`NotPositiveDefiniteError`] (with a column index relative to the
/// front) if the pivot block is not positive definite.
///
/// # Panics
///
/// Panics if `front` is not square or `pivots > front.rows()`.
pub fn partial_cholesky_in_place(
    front: &mut Mat,
    pivots: usize,
) -> Result<(), NotPositiveDefiniteError> {
    partial_cholesky_scratch(front, pivots, &mut KernelScratch::new())
}

/// [`partial_cholesky_in_place`] with a caller-owned pack-buffer arena —
/// the multifrontal executor's hot path (zero-alloc when warm).
///
/// # Errors
///
/// Returns [`NotPositiveDefiniteError`] (with a column index relative to the
/// front) if the pivot block is not positive definite.
///
/// # Panics
///
/// Panics if `front` is not square or `pivots > front.rows()`.
pub fn partial_cholesky_scratch(
    front: &mut Mat,
    pivots: usize,
    scratch: &mut KernelScratch,
) -> Result<(), NotPositiveDefiniteError> {
    assert_eq!(front.rows(), front.cols(), "frontal matrix must be square");
    let total = front.rows();
    assert!(pivots <= total, "pivot count exceeds front size");
    factor_columns(front.as_mut_slice(), total, total, pivots, scratch)?;
    // The pivot block's strict upper triangle is zeroed (so the leading
    // columns are usable as L directly); everything right of the pivot
    // columns is left untouched, as before.
    zero_strict_upper(front.as_mut_slice(), total, pivots);
    Ok(())
}

/// [`partial_cholesky_scratch`] under a runtime [`NumericMode`] — the
/// executor's hot path.
///
/// `F64` runs the historic f64 driver directly on the front. `F32`
/// demotes the front into the arena's f32 shadow, factors it with the f32
/// engine (16×4 tiles) and promotes the result back —
/// exactly, since every f32 is representable in f64 — so downstream
/// merge/solve/serialization stay f64 and per-mode bit-identity follows
/// from the kernels' shape-pure dispatch. This
/// models the paper's FP32 COMP systolic array: narrow datapath in the
/// factorization, full-width bookkeeping around it.
///
/// # Errors
///
/// Returns [`NotPositiveDefiniteError`] (with a column index relative to
/// the front) if the pivot block is not positive definite *in the chosen
/// precision* — a front can be SPD in f64 yet fail in f32, which is
/// precisely the signal the mode exists to measure.
///
/// # Panics
///
/// Panics if `front` is not square or `pivots > front.rows()`.
pub fn partial_cholesky_scratch_mode(
    front: &mut Mat,
    pivots: usize,
    scratch: &mut KernelScratch,
    mode: NumericMode,
) -> Result<(), NotPositiveDefiniteError> {
    if mode == NumericMode::F64 {
        return partial_cholesky_scratch(front, pivots, scratch);
    }
    assert_eq!(front.rows(), front.cols(), "frontal matrix must be square");
    let total = front.rows();
    assert!(pivots <= total, "pivot count exceeds front size");
    let elems = total * total;
    let mut shadow = scratch.take_front32(elems);
    for (d, &s) in shadow.iter_mut().zip(front.as_slice()) {
        *d = s as f32;
    }
    let result =
        factor_columns_g::<f32, MR_F32, NR_F32>(&mut shadow, total, total, pivots, scratch);
    // Promote back even on error so the front reflects the partial state,
    // mirroring the f64 path's contract.
    for (d, &s) in front.as_mut_slice().iter_mut().zip(shadow.iter()) {
        *d = s as f64;
    }
    scratch.put_front32(shadow);
    result?;
    zero_strict_upper(front.as_mut_slice(), total, pivots);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{gemm, syrk_lower, Transpose};

    fn spd(n: usize, seed: u64) -> Mat {
        // Deterministic pseudo-random well-conditioned SPD matrix.
        let mut s = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s as f64 / u64::MAX as f64) - 0.5
        };
        let g = Mat::from_fn(n, n, |_, _| next());
        let mut a = Mat::from_diag(&vec![n as f64; n]);
        syrk_lower(1.0, &g, 1.0, &mut a);
        // Mirror lower to upper for reconstruction checks.
        Mat::from_fn(n, n, |r, c| if r >= c { a[(r, c)] } else { a[(c, r)] })
    }

    fn reconstruct(l: &Mat) -> Mat {
        let mut out = Mat::zeros(l.rows(), l.rows());
        gemm(1.0, l, Transpose::No, l, Transpose::Yes, 0.0, &mut out);
        out
    }

    #[test]
    fn cholesky_reconstructs() {
        for n in [1, 2, 5, 12, 47, 48, 49, 100, 150] {
            let a = spd(n, n as u64);
            let mut l = a.clone();
            cholesky_in_place(&mut l).unwrap();
            let r = reconstruct(&l);
            for i in 0..n {
                for j in 0..n {
                    assert!(
                        (r[(i, j)] - a[(i, j)]).abs() < 1e-8 * (n as f64),
                        "mismatch at ({i},{j}) for n={n}"
                    );
                }
            }
        }
    }

    #[test]
    fn cholesky_rejects_indefinite() {
        let mut a = Mat::from_rows(2, 2, &[1.0, 2.0, 2.0, 1.0]);
        let err = cholesky_in_place(&mut a).unwrap_err();
        assert_eq!(err.col(), 1);
        assert!(!format!("{err}").is_empty());
    }

    #[test]
    fn blocked_path_reports_global_pivot_column() {
        // SPD except one late diagonal entry poisoned: the failure column
        // must be reported in global coordinates even on the blocked path.
        let n = 96;
        let mut a = spd(n, 5);
        a[(70, 70)] = -1e6;
        let err = cholesky_in_place(&mut a).unwrap_err();
        assert_eq!(err.col(), 70);
    }

    #[test]
    fn cholesky_rejects_nan() {
        let mut a = Mat::from_rows(1, 1, &[f64::NAN]);
        assert!(cholesky_in_place(&mut a).is_err());
    }

    #[test]
    fn scratch_variant_is_bit_identical() {
        // Same code path with or without a warm arena: scratch contents
        // must never leak into values.
        let a = spd(120, 9);
        let mut plain = a.clone();
        cholesky_in_place(&mut plain).unwrap();
        let mut scratch = KernelScratch::with_capacity(crate::kernels::pack_elems_bound(120));
        let mut warm = a.clone();
        cholesky_in_place_scratch(&mut warm, &mut scratch).unwrap();
        // Run again warm to ensure reuse doesn't perturb anything.
        let mut warm2 = a.clone();
        cholesky_in_place_scratch(&mut warm2, &mut scratch).unwrap();
        for (x, y) in plain.as_slice().iter().zip(warm.as_slice()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
        for (x, y) in warm.as_slice().iter().zip(warm2.as_slice()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn partial_factorization_matches_full() {
        // Factor the full SPD matrix, then verify the partial factorization
        // of the front reproduces the leading columns and the Schur
        // complement C − L_B L_Bᵀ.
        let n_total = 7;
        let pivots = 3;
        let a = spd(n_total, 42);
        let mut full = a.clone();
        cholesky_in_place(&mut full).unwrap();

        let mut front = a.clone();
        partial_cholesky_in_place(&mut front, pivots).unwrap();

        // Leading `pivots` columns of L agree.
        for j in 0..pivots {
            for i in j..n_total {
                assert!(
                    (front[(i, j)] - full[(i, j)]).abs() < 1e-9,
                    "column {j} row {i} differs"
                );
            }
        }
        // Trailing block equals the Schur complement, i.e. what full
        // factorization would factor next: L_C = L_22 L_22ᵀ of the remainder.
        let rest = n_total - pivots;
        let l22 = full.block(pivots, pivots, rest, rest);
        let mut schur = Mat::zeros(rest, rest);
        gemm(
            1.0,
            &l22,
            Transpose::No,
            &l22,
            Transpose::Yes,
            0.0,
            &mut schur,
        );
        for j in 0..rest {
            for i in j..rest {
                assert!(
                    (front[(pivots + i, pivots + j)] - schur[(i, j)]).abs() < 1e-8,
                    "schur ({i},{j}) differs"
                );
            }
        }
    }

    #[test]
    fn partial_factorization_matches_full_multi_panel() {
        // Pivot count spanning several NB panels, remainder forcing the
        // right-looking Schur accumulation across panels.
        let n_total = 140;
        let pivots = 110;
        let a = spd(n_total, 17);
        let mut full = a.clone();
        cholesky_in_place(&mut full).unwrap();
        let mut front = a.clone();
        partial_cholesky_in_place(&mut front, pivots).unwrap();
        for j in 0..pivots {
            for i in j..n_total {
                assert!(
                    (front[(i, j)] - full[(i, j)]).abs() < 1e-6,
                    "column {j} row {i} differs"
                );
            }
        }
        let rest = n_total - pivots;
        let l22 = full.block(pivots, pivots, rest, rest);
        let mut schur = Mat::zeros(rest, rest);
        gemm(
            1.0,
            &l22,
            Transpose::No,
            &l22,
            Transpose::Yes,
            0.0,
            &mut schur,
        );
        for j in 0..rest {
            for i in j..rest {
                assert!(
                    (front[(pivots + i, pivots + j)] - schur[(i, j)]).abs() < 1e-5,
                    "schur ({i},{j}) differs"
                );
            }
        }
    }

    #[test]
    fn partial_with_zero_remainder_is_plain_cholesky() {
        let a = spd(4, 7);
        let mut f = a.clone();
        partial_cholesky_in_place(&mut f, 4).unwrap();
        let mut l = a.clone();
        cholesky_in_place(&mut l).unwrap();
        for j in 0..4 {
            for i in j..4 {
                assert!((f[(i, j)] - l[(i, j)]).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn partial_with_zero_pivots_leaves_front_untouched_values() {
        let a = spd(5, 3);
        let mut f = a.clone();
        partial_cholesky_in_place(&mut f, 0).unwrap();
        for (x, y) in f.as_slice().iter().zip(a.as_slice()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }
}
