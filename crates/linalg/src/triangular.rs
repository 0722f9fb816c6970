//! Dense triangular solves with a lower-triangular factor.

use crate::Mat;

/// Solves `L y = b` in place (forward substitution), overwriting `b` with
/// `y`, for `L` the leading `b.len() × b.len()` lower triangle of `l` — a
/// whole square factor, or the pivot triangle `L_A` of a supernode's
/// stacked columns `[L_A; L_B]` read in place.
///
/// Only that lower triangle is read.
///
/// # Panics
///
/// Panics if `l` has fewer than `b.len()` rows or columns.
///
/// # Example
///
/// ```
/// use supernova_linalg::{solve_lower_leading, Mat};
///
/// let l = Mat::from_rows(2, 2, &[2.0, 0.0, 1.0, 3.0]);
/// let mut b = vec![4.0, 8.0];
/// solve_lower_leading(&l, &mut b);
/// assert_eq!(b, vec![2.0, 2.0]);
/// ```
pub fn solve_lower_leading(l: &Mat, b: &mut [f64]) {
    let n = b.len();
    assert!(l.rows() >= n && l.cols() >= n, "triangle exceeds matrix");
    for j in 0..n {
        let col = l.col(j);
        let yj = b[j] / col[j];
        b[j] = yj;
        // lint: allow(float-eq) — structural-zero skip: exact zeros from sparsity
        if yj != 0.0 {
            for i in (j + 1)..n {
                b[i] -= col[i] * yj;
            }
        }
    }
}

/// Solves `Lᵀ x = b` in place (backward substitution), overwriting `b`
/// with `x`, for `L` the leading `b.len() × b.len()` lower triangle of `l`
/// (see [`solve_lower_leading`]).
///
/// # Panics
///
/// Panics if `l` has fewer than `b.len()` rows or columns.
pub fn solve_lower_transpose_leading(l: &Mat, b: &mut [f64]) {
    let n = b.len();
    assert!(l.rows() >= n && l.cols() >= n, "triangle exceeds matrix");
    for j in (0..n).rev() {
        let col = l.col(j);
        let mut s = b[j];
        for i in (j + 1)..n {
            s -= col[i] * b[i];
        }
        b[j] = s / col[j];
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cholesky_in_place;

    #[test]
    fn forward_backward_solve_spd_system() {
        let a = Mat::from_rows(3, 3, &[10.0, 2.0, 1.0, 2.0, 8.0, 0.5, 1.0, 0.5, 6.0]);
        let x_true = vec![1.0, -2.0, 0.5];
        let b = a.matvec(&x_true);
        let mut l = a.clone();
        cholesky_in_place(&mut l).unwrap();
        let mut x = b;
        solve_lower_leading(&l, &mut x);
        solve_lower_transpose_leading(&l, &mut x);
        for (got, want) in x.iter().zip(&x_true) {
            assert!((got - want).abs() < 1e-10);
        }
    }

    #[test]
    fn solve_identity_is_noop() {
        let l = Mat::identity(4);
        let mut b = vec![1.0, 2.0, 3.0, 4.0];
        solve_lower_leading(&l, &mut b);
        assert_eq!(b, vec![1.0, 2.0, 3.0, 4.0]);
        solve_lower_transpose_leading(&l, &mut b);
        assert_eq!(b, vec![1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn solve_ignores_upper_triangle_garbage() {
        let mut l = Mat::from_rows(2, 2, &[2.0, 99.0, 1.0, 3.0]);
        l[(0, 1)] = 99.0;
        let mut b = vec![4.0, 8.0];
        solve_lower_leading(&l, &mut b);
        assert_eq!(b, vec![2.0, 2.0]);
    }

    #[test]
    fn leading_solves_match_the_copied_block_bitwise() {
        // A 5×3 stacked `[L_A; L_B]`: the leading solves must read only the
        // 3×3 triangle and agree bit for bit with solving its copy.
        let l = Mat::from_fn(5, 3, |r, c| {
            if r < c {
                f64::NAN // strict upper: never read
            } else {
                1.5 + r as f64 * 0.37 - c as f64 * 0.11
            }
        });
        let la = Mat::from_fn(3, 3, |r, c| if r < c { 0.0 } else { l[(r, c)] });
        let b = [0.3, -1.7, 2.9];

        let (mut lead, mut copy) = (b, b);
        solve_lower_leading(&l, &mut lead);
        solve_lower_leading(&la, &mut copy);
        assert_eq!(lead.map(f64::to_bits), copy.map(f64::to_bits));

        let (mut lead, mut copy) = (b, b);
        solve_lower_transpose_leading(&l, &mut lead);
        solve_lower_transpose_leading(&la, &mut copy);
        assert_eq!(lead.map(f64::to_bits), copy.map(f64::to_bits));
    }
}
