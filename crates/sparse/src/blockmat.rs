//! Numeric block-sparse symmetric storage for the Hessian.

use std::collections::BTreeMap;

use supernova_linalg::Mat;

/// The lower triangle of a symmetric block-sparse matrix (the Hessian
/// `H = JᵀJ` of the SLAM backend), stored per block column.
///
/// Off-diagonal blocks are stored at `(max, min)` so the structure mirrors
/// [`BlockPattern`](crate::BlockPattern). Diagonal blocks hold their full
/// square block; only the lower triangle of a diagonal block is read by the
/// factorization.
///
/// # Example
///
/// ```
/// use supernova_sparse::BlockMat;
/// use supernova_linalg::Mat;
///
/// let mut h = BlockMat::new(vec![2, 3]);
/// h.add_to_block(0, 0, &Mat::identity(2));
/// h.add_to_block(1, 0, &Mat::zeros(3, 2));
/// assert_eq!(h.block(1, 0).unwrap().rows(), 3);
/// assert!(h.block(0, 1).is_none()); // upper triangle is not stored
/// ```
#[derive(Clone, Debug, Default)]
pub struct BlockMat {
    block_dims: Vec<usize>,
    cols: Vec<BTreeMap<usize, Mat>>,
}

impl BlockMat {
    /// Creates an all-zero matrix with the given block dimensions.
    pub fn new(block_dims: Vec<usize>) -> Self {
        let cols = vec![BTreeMap::new(); block_dims.len()];
        BlockMat { block_dims, cols }
    }

    /// Per-block scalar dimensions.
    pub fn block_dims(&self) -> &[usize] {
        &self.block_dims
    }

    /// Number of block columns.
    pub fn num_blocks(&self) -> usize {
        self.block_dims.len()
    }

    /// Appends a new block of dimension `dim`, returning its index.
    pub fn push_block(&mut self, dim: usize) -> usize {
        self.block_dims.push(dim);
        self.cols.push(BTreeMap::new());
        self.block_dims.len() - 1
    }

    /// The stored block at `(brow, bcol)`; `None` when structurally zero or
    /// in the strict upper triangle.
    pub fn block(&self, brow: usize, bcol: usize) -> Option<&Mat> {
        if brow < bcol {
            return None;
        }
        self.cols[bcol].get(&brow)
    }

    /// Adds `m` into block `(brow, bcol)`, materializing it when absent.
    ///
    /// # Panics
    ///
    /// Panics if `brow < bcol` (upper triangle) or if `m`'s shape does not
    /// match the block dimensions.
    pub fn add_to_block(&mut self, brow: usize, bcol: usize, m: &Mat) {
        assert_eq!(m.rows(), self.block_dims[brow], "block row dim mismatch");
        assert_eq!(m.cols(), self.block_dims[bcol], "block col dim mismatch");
        self.block_entry(brow, bcol).add_block(0, 0, m);
    }

    /// The block at `(brow, bcol)` for accumulating in place, materialized
    /// as zeros when absent: a caller can add a product straight into it
    /// instead of building the term first.
    ///
    /// # Panics
    ///
    /// Panics if `brow < bcol` (upper triangle).
    pub fn block_entry(&mut self, brow: usize, bcol: usize) -> &mut Mat {
        assert!(brow >= bcol, "upper-triangle write ({brow},{bcol})");
        let (rows, cols) = (self.block_dims[brow], self.block_dims[bcol]);
        self.cols[bcol]
            .entry(brow)
            .or_insert_with(|| Mat::zeros(rows, cols))
    }

    /// Zeroes every block in block column `bcol` and block row `bcol`
    /// (used when a variable's Hessian contributions are re-assembled after
    /// relinearization).
    pub fn clear_involving(&mut self, b: usize) {
        self.cols[b].clear();
        for col in self.cols[..b].iter_mut() {
            col.remove(&b);
        }
    }

    /// Iterates over the stored blocks of column `bcol` as `(brow, block)`.
    pub fn col_blocks(&self, bcol: usize) -> impl Iterator<Item = (usize, &Mat)> {
        self.cols[bcol].iter().map(|(&r, m)| (r, m))
    }

    /// Densifies into a full symmetric matrix (test/debug helper).
    pub fn to_dense(&self) -> Mat {
        let offsets: Vec<usize> = self
            .block_dims
            .iter()
            .scan(0usize, |acc, &d| {
                let o = *acc;
                *acc += d;
                Some(o)
            })
            .collect();
        let n: usize = self.block_dims.iter().sum();
        let mut out = Mat::zeros(n, n);
        for bcol in 0..self.num_blocks() {
            for (brow, m) in self.col_blocks(bcol) {
                for c in 0..m.cols() {
                    for r in 0..m.rows() {
                        let (gr, gc) = (offsets[brow] + r, offsets[bcol] + c);
                        if brow == bcol && r < c {
                            continue; // only the lower triangle of diagonal blocks is meaningful
                        }
                        out[(gr, gc)] = m[(r, c)];
                        out[(gc, gr)] = m[(r, c)];
                    }
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_accumulates() {
        let mut h = BlockMat::new(vec![2, 2]);
        h.add_to_block(1, 0, &Mat::identity(2));
        h.add_to_block(1, 0, &Mat::identity(2));
        assert_eq!(h.block(1, 0).unwrap()[(0, 0)], 2.0);
    }

    #[test]
    #[should_panic(expected = "upper-triangle")]
    fn upper_triangle_write_panics() {
        let mut h = BlockMat::new(vec![1, 1]);
        h.add_to_block(0, 1, &Mat::zeros(1, 1));
    }

    #[test]
    fn clear_involving_removes_row_and_col() {
        let mut h = BlockMat::new(vec![1, 1, 1]);
        h.add_to_block(1, 0, &Mat::identity(1));
        h.add_to_block(2, 1, &Mat::identity(1));
        h.add_to_block(1, 1, &Mat::identity(1));
        h.clear_involving(1);
        assert!(h.block(1, 0).is_none());
        assert!(h.block(2, 1).is_none());
        assert!(h.block(1, 1).is_none());
    }

    #[test]
    fn to_dense_is_symmetric() {
        let mut h = BlockMat::new(vec![2, 1]);
        h.add_to_block(0, 0, &Mat::from_rows(2, 2, &[2.0, 0.0, 0.5, 2.0]));
        h.add_to_block(1, 0, &Mat::from_rows(1, 2, &[3.0, 4.0]));
        h.add_to_block(1, 1, &Mat::from_rows(1, 1, &[5.0]));
        let d = h.to_dense();
        assert_eq!(d[(2, 0)], 3.0);
        assert_eq!(d[(0, 2)], 3.0);
        assert_eq!(d[(1, 0)], d[(0, 1)]);
    }

    #[test]
    fn block_entry_materializes_once() {
        let mut h = BlockMat::new(vec![2, 1]);
        h.block_entry(1, 0)[(0, 1)] = 3.0;
        h.block_entry(1, 0)[(0, 0)] += 1.0;
        assert_eq!(h.block(1, 0).unwrap().as_slice(), &[1.0, 3.0]);
        assert_eq!(h.col_blocks(0).count(), 1);
    }

    #[test]
    fn push_block_grows() {
        let mut h = BlockMat::new(vec![1]);
        assert_eq!(h.push_block(2), 1);
        assert_eq!(h.num_blocks(), 2);
        h.add_to_block(1, 0, &Mat::zeros(2, 1));
        assert!(h.block(1, 0).is_some());
    }
}
