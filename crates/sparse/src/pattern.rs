//! Symmetric block-sparsity patterns.

/// The block-sparsity structure of a symmetric matrix, stored as the lower
/// triangle: for each block column `j`, the sorted block rows `i >= j` with a
/// structural nonzero.
///
/// In the SLAM backend each block corresponds to one variable (a pose or
/// landmark); an off-diagonal block `(i, j)` exists when some factor
/// constrains variables `i` and `j` jointly.
///
/// # Example
///
/// ```
/// use supernova_sparse::BlockPattern;
///
/// let mut p = BlockPattern::new(vec![3, 3, 3]);
/// p.add_block_edge(0, 2);
/// assert_eq!(p.col(0), &[0, 2]);
/// assert_eq!(p.col(2), &[2]);
/// ```
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct BlockPattern {
    block_dims: Vec<usize>,
    cols: Vec<Vec<usize>>,
    /// Running count of stored entries (`Σ cols[j].len()`).
    nnz: usize,
}

impl BlockPattern {
    /// Creates a pattern with the given per-block dimensions and only
    /// diagonal blocks present.
    pub fn new(block_dims: Vec<usize>) -> Self {
        let cols = (0..block_dims.len()).map(|j| vec![j]).collect();
        let nnz = block_dims.len();
        BlockPattern {
            block_dims,
            cols,
            nnz,
        }
    }

    /// Number of block columns.
    pub fn num_blocks(&self) -> usize {
        self.block_dims.len()
    }

    /// Per-block scalar dimensions.
    pub fn block_dims(&self) -> &[usize] {
        &self.block_dims
    }

    /// Total scalar dimension (sum of block dimensions).
    pub fn total_dim(&self) -> usize {
        self.block_dims.iter().sum()
    }

    /// Sorted block rows (≥ `j`) of block column `j`.
    ///
    /// # Panics
    ///
    /// Panics if `j` is out of bounds.
    pub fn col(&self, j: usize) -> &[usize] {
        &self.cols[j]
    }

    /// Appends a new block column of scalar dimension `dim` (diagonal block
    /// only) and returns its index.
    pub fn push_block(&mut self, dim: usize) -> usize {
        let j = self.block_dims.len();
        self.block_dims.push(dim);
        self.cols.push(vec![j]);
        self.nnz += 1;
        j
    }

    /// Records a structural nonzero between blocks `a` and `b` (order
    /// irrelevant; the entry is stored in the lower triangle). Idempotent:
    /// returns whether the entry was new.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of bounds.
    pub fn add_block_edge(&mut self, a: usize, b: usize) -> bool {
        assert!(
            a < self.num_blocks() && b < self.num_blocks(),
            "block index out of bounds"
        );
        if a == b {
            return false;
        }
        let (lo, hi) = if a < b { (a, b) } else { (b, a) };
        let col = &mut self.cols[lo];
        match col.binary_search(&hi) {
            Ok(_) => false,
            Err(pos) => {
                col.insert(pos, hi);
                self.nnz += 1;
                true
            }
        }
    }

    /// Adds every pairwise edge among `blocks` (a clique, as produced by one
    /// factor touching several variables). Returns the lowest block column
    /// that gained an entry, `None` if every edge was already present.
    pub fn add_clique(&mut self, blocks: &[usize]) -> Option<usize> {
        let mut lowest: Option<usize> = None;
        for (i, &a) in blocks.iter().enumerate() {
            for &b in &blocks[i + 1..] {
                if self.add_block_edge(a, b) {
                    let lo = a.min(b);
                    lowest = Some(lowest.map_or(lo, |l| l.min(lo)));
                }
            }
        }
        lowest
    }

    /// Number of structural lower-triangle block entries (including
    /// diagonal).
    pub fn nnz_blocks(&self) -> usize {
        self.nnz
    }

    /// Applies a permutation: `perm.new_of_old(j)` gives the new position of
    /// old block `j`. Returns the permuted pattern.
    pub fn permuted(&self, perm: &crate::Permutation) -> BlockPattern {
        assert_eq!(perm.len(), self.num_blocks(), "permutation length mismatch");
        let mut dims = vec![0usize; self.num_blocks()];
        for old in 0..self.num_blocks() {
            dims[perm.new_of_old(old)] = self.block_dims[old];
        }
        let mut out = BlockPattern::new(dims);
        for j in 0..self.num_blocks() {
            for &i in &self.cols[j] {
                if i != j {
                    out.add_block_edge(perm.new_of_old(i), perm.new_of_old(j));
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Permutation;

    #[test]
    fn new_has_diagonal_only() {
        let p = BlockPattern::new(vec![2, 3]);
        assert_eq!(p.num_blocks(), 2);
        assert_eq!(p.total_dim(), 5);
        assert_eq!(p.col(0), &[0]);
        assert_eq!(p.col(1), &[1]);
        assert_eq!(p.nnz_blocks(), 2);
    }

    #[test]
    fn add_edge_is_idempotent_and_sorted() {
        let mut p = BlockPattern::new(vec![1; 4]);
        p.add_block_edge(3, 1);
        p.add_block_edge(1, 3);
        p.add_block_edge(1, 2);
        assert_eq!(p.col(1), &[1, 2, 3]);
        assert_eq!(p.nnz_blocks(), 6);
    }

    #[test]
    fn self_edge_is_noop() {
        let mut p = BlockPattern::new(vec![1; 2]);
        p.add_block_edge(1, 1);
        assert_eq!(p.col(1), &[1]);
    }

    #[test]
    fn clique_adds_all_pairs_and_reports_the_lowest_changed_column() {
        let mut p = BlockPattern::new(vec![1; 4]);
        assert_eq!(p.add_clique(&[3, 0, 2]), Some(0));
        assert_eq!(p.col(0), &[0, 2, 3]);
        assert_eq!(p.col(2), &[2, 3]);
        assert_eq!(p.nnz_blocks(), 4 + 3);
        assert_eq!(p.add_clique(&[0, 3]), None, "already present");
        assert_eq!(p.add_clique(&[3, 1]), Some(1));
        // New edges (1, 2) and (0, 1): the lowest column wins.
        assert_eq!(p.add_clique(&[3, 2, 1, 0]), Some(0));
        assert_eq!(p.nnz_blocks(), 4 + 6);
    }

    #[test]
    fn push_block_extends() {
        let mut p = BlockPattern::new(vec![2]);
        let j = p.push_block(3);
        assert_eq!(j, 1);
        p.add_block_edge(0, 1);
        assert_eq!(p.col(0), &[0, 1]);
        assert_eq!(p.total_dim(), 5);
    }

    #[test]
    fn permuted_reverses() {
        let mut p = BlockPattern::new(vec![1, 2, 3]);
        p.add_block_edge(0, 2);
        let perm = Permutation::from_new_of_old(vec![2, 1, 0]);
        let q = p.permuted(&perm);
        assert_eq!(q.block_dims(), &[3, 2, 1]);
        // Old edge (0,2) becomes (2,0) -> stored at column 0.
        assert_eq!(q.col(0), &[0, 2]);
    }
}
