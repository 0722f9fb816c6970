//! Column-major dense matrix type.

use std::fmt;
use std::ops::{Index, IndexMut};

/// A dense, column-major, row-count × column-count matrix of `f64`.
///
/// Column-major storage matches the layout the multifrontal factorization
/// works in (each supernode is a set of contiguous columns, §3.2) and the
/// layout the COMP accelerator's scratchpad assumes.
///
/// # Example
///
/// ```
/// use supernova_linalg::Mat;
///
/// let mut m = Mat::zeros(2, 2);
/// m[(0, 1)] = 3.0;
/// assert_eq!(m[(0, 1)], 3.0);
/// assert_eq!(m.transposed()[(1, 0)], 3.0);
/// ```
#[derive(Clone, PartialEq, Default)]
pub struct Mat {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Mat {
    /// Creates a `rows × cols` matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Mat {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Mat::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Creates a matrix from a function of `(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut m = Mat::zeros(rows, cols);
        for c in 0..cols {
            for r in 0..rows {
                m[(r, c)] = f(r, c);
            }
        }
        m
    }

    /// Creates a matrix from row-major data (convenient for literals).
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_rows(rows: usize, cols: usize, data: &[f64]) -> Self {
        assert_eq!(data.len(), rows * cols, "row-major data length mismatch");
        Mat::from_fn(rows, cols, |r, c| data[r * cols + c])
    }

    /// Creates a matrix from column-major data (the native layout).
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_cols(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols, "column-major data length mismatch");
        Mat { rows, cols, data }
    }

    /// Creates an `n × n` diagonal matrix from `diag`.
    pub fn from_diag(diag: &[f64]) -> Self {
        let mut m = Mat::zeros(diag.len(), diag.len());
        for (i, &d) in diag.iter().enumerate() {
            m[(i, i)] = d;
        }
        m
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `true` when the matrix has zero entries.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Borrows the raw column-major storage.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutably borrows the raw column-major storage.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Borrows column `c` as a contiguous slice.
    ///
    /// # Panics
    ///
    /// Panics if `c >= self.cols()`.
    pub fn col(&self, c: usize) -> &[f64] {
        assert!(c < self.cols, "column {c} out of bounds ({})", self.cols);
        &self.data[c * self.rows..(c + 1) * self.rows]
    }

    /// Mutably borrows column `c` as a contiguous slice.
    ///
    /// # Panics
    ///
    /// Panics if `c >= self.cols()`.
    pub fn col_mut(&mut self, c: usize) -> &mut [f64] {
        assert!(c < self.cols, "column {c} out of bounds ({})", self.cols);
        &mut self.data[c * self.rows..(c + 1) * self.rows]
    }

    /// Sets every entry to zero, keeping the allocation.
    pub fn fill_zero(&mut self) {
        self.data.iter_mut().for_each(|x| *x = 0.0);
    }

    /// Reshapes to `rows × cols` with every entry zeroed, reusing the
    /// existing allocation when capacity allows — the workspace primitive
    /// of the plan executor's per-worker frontal buffers.
    pub fn reset(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.clear();
        self.data.resize(rows * cols, 0.0);
    }

    /// Returns a newly allocated transpose.
    pub fn transposed(&self) -> Mat {
        Mat::from_fn(self.cols, self.rows, |r, c| self[(c, r)])
    }

    /// Extracts the rectangular block starting at `(row, col)` of size
    /// `(block_rows, block_cols)`.
    ///
    /// # Panics
    ///
    /// Panics if the block extends past the matrix bounds.
    pub fn block(&self, row: usize, col: usize, block_rows: usize, block_cols: usize) -> Mat {
        assert!(row + block_rows <= self.rows && col + block_cols <= self.cols);
        Mat::from_fn(block_rows, block_cols, |r, c| self[(row + r, col + c)])
    }

    /// Copies `src` into the block starting at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if the block extends past the matrix bounds.
    pub fn set_block(&mut self, row: usize, col: usize, src: &Mat) {
        assert!(row + src.rows <= self.rows && col + src.cols <= self.cols);
        for c in 0..src.cols {
            for r in 0..src.rows {
                self[(row + r, col + c)] = src[(r, c)];
            }
        }
    }

    /// Adds `src` into the block starting at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if the block extends past the matrix bounds.
    pub fn add_block(&mut self, row: usize, col: usize, src: &Mat) {
        assert!(row + src.rows <= self.rows && col + src.cols <= self.cols);
        for c in 0..src.cols {
            for r in 0..src.rows {
                self[(row + r, col + c)] += src[(r, c)];
            }
        }
    }

    /// Adds the `rows × cols` sub-block of `src` at `(src_row, src_col)`
    /// into this matrix at `(dst_row, dst_col)`, without materializing the
    /// sub-block — the allocation-free extend-add kernel.
    ///
    /// # Panics
    ///
    /// Panics if either block extends past its matrix bounds.
    pub fn add_block_from(
        &mut self,
        dst_row: usize,
        dst_col: usize,
        src: &Mat,
        src_row: usize,
        src_col: usize,
        rows: usize,
        cols: usize,
    ) {
        assert!(dst_row + rows <= self.rows && dst_col + cols <= self.cols);
        assert!(src_row + rows <= src.rows && src_col + cols <= src.cols);
        for c in 0..cols {
            let sc = &src.col(src_col + c)[src_row..src_row + rows];
            let dc = &mut self.col_mut(dst_col + c)[dst_row..dst_row + rows];
            for (d, &v) in dc.iter_mut().zip(sc) {
                *d += v;
            }
        }
    }

    /// Matrix–vector product `self * x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.cols()`.
    pub fn matvec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.cols, "matvec dimension mismatch");
        let mut y = vec![0.0; self.rows];
        for c in 0..self.cols {
            let xc = x[c];
            // lint: allow(float-eq) — structural-zero skip: exact zeros from sparsity
            if xc == 0.0 {
                continue;
            }
            let col = self.col(c);
            for r in 0..self.rows {
                y[r] += col[r] * xc;
            }
        }
        y
    }

    /// Matrix–vector product with the transpose, `selfᵀ * x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.rows()`.
    pub fn matvec_transpose(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.rows, "matvec_transpose dimension mismatch");
        let mut y = vec![0.0; self.cols];
        for c in 0..self.cols {
            let col = self.col(c);
            let mut acc = 0.0;
            for r in 0..self.rows {
                acc += col[r] * x[r];
            }
            y[c] = acc;
        }
        y
    }

    /// Scales every entry by `s`.
    pub fn scale(&mut self, s: f64) {
        self.data.iter_mut().for_each(|x| *x *= s);
    }

    /// Maximum absolute entry (zero for an empty matrix).
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0_f64, |m, &x| m.max(x.abs()))
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|x| x * x).sum::<f64>().sqrt()
    }
}

impl Index<(usize, usize)> for Mat {
    type Output = f64;

    #[inline]
    fn index(&self, (r, c): (usize, usize)) -> &f64 {
        debug_assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of bounds"
        );
        &self.data[c * self.rows + r]
    }
}

impl IndexMut<(usize, usize)> for Mat {
    #[inline]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f64 {
        debug_assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of bounds"
        );
        &mut self.data[c * self.rows + r]
    }
}

impl fmt::Debug for Mat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Mat {}x{} [", self.rows, self.cols)?;
        for r in 0..self.rows.min(8) {
            write!(f, "  ")?;
            for c in 0..self.cols.min(8) {
                write!(f, "{:>10.4} ", self[(r, c)])?;
            }
            if self.cols > 8 {
                write!(f, "…")?;
            }
            writeln!(f)?;
        }
        if self.rows > 8 {
            writeln!(f, "  …")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_identity() {
        let z = Mat::zeros(3, 2);
        assert_eq!(z.rows(), 3);
        assert_eq!(z.cols(), 2);
        assert!(z.as_slice().iter().all(|&x| x == 0.0));
        let i = Mat::identity(3);
        assert_eq!(i[(1, 1)], 1.0);
        assert_eq!(i[(0, 1)], 0.0);
    }

    #[test]
    fn from_rows_matches_indexing() {
        let m = Mat::from_rows(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(m[(0, 0)], 1.0);
        assert_eq!(m[(0, 2)], 3.0);
        assert_eq!(m[(1, 1)], 5.0);
    }

    #[test]
    fn col_slices_are_contiguous() {
        let m = Mat::from_rows(2, 2, &[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(m.col(0), &[1.0, 3.0]);
        assert_eq!(m.col(1), &[2.0, 4.0]);
    }

    #[test]
    fn transpose_roundtrip() {
        let m = Mat::from_fn(3, 4, |r, c| (r * 10 + c) as f64);
        assert_eq!(m.transposed().transposed(), m);
    }

    #[test]
    fn block_get_set_add() {
        let mut m = Mat::zeros(4, 4);
        let b = Mat::from_rows(2, 2, &[1.0, 2.0, 3.0, 4.0]);
        m.set_block(1, 2, &b);
        assert_eq!(m[(1, 2)], 1.0);
        assert_eq!(m[(2, 3)], 4.0);
        m.add_block(1, 2, &b);
        assert_eq!(m[(2, 3)], 8.0);
        assert_eq!(m.block(1, 2, 2, 2)[(0, 1)], 4.0);
    }

    #[test]
    fn reset_reuses_allocation_and_zeroes() {
        let mut m = Mat::from_rows(3, 3, &[1.0; 9]);
        let ptr = m.as_slice().as_ptr();
        m.reset(2, 4);
        assert_eq!(m.rows(), 2);
        assert_eq!(m.cols(), 4);
        assert!(m.as_slice().iter().all(|&x| x == 0.0));
        assert_eq!(
            m.as_slice().as_ptr(),
            ptr,
            "reset within capacity must not reallocate"
        );
    }

    #[test]
    fn add_block_from_matches_block_then_add() {
        let src = Mat::from_fn(4, 4, |r, c| (r * 4 + c) as f64);
        let mut a = Mat::zeros(5, 5);
        let mut b = Mat::zeros(5, 5);
        a.add_block(1, 2, &src.block(1, 0, 2, 3));
        b.add_block_from(1, 2, &src, 1, 0, 2, 3);
        assert_eq!(a, b);
    }

    #[test]
    fn matvec_and_transpose() {
        let m = Mat::from_rows(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(m.matvec(&[1.0, 1.0, 1.0]), vec![6.0, 15.0]);
        assert_eq!(m.matvec_transpose(&[1.0, 1.0]), vec![5.0, 7.0, 9.0]);
    }

    #[test]
    fn norms() {
        let m = Mat::from_rows(2, 2, &[3.0, 0.0, 0.0, -4.0]);
        assert_eq!(m.max_abs(), 4.0);
        assert!((m.frobenius_norm() - 5.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn col_out_of_bounds_panics() {
        let m = Mat::zeros(2, 2);
        let _ = m.col(2);
    }

    #[test]
    fn debug_is_nonempty() {
        let s = format!("{:?}", Mat::zeros(1, 1));
        assert!(!s.is_empty());
    }
}
