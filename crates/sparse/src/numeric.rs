//! Numeric multifrontal factorization with incremental re-factorization.
//!
//! Since the plan/exec split, every (re)factorization is the execution of
//! an [`ExecutionPlan`], each supernode factored in its own persistent front:
//! the sym-based [`NumericFactor::factorize`]/[`NumericFactor::refactor`]
//! entry points derive a throwaway plan and run it serially, while the
//! incremental engine caches one plan per symbolic structure and drives
//! [`NumericFactor::execute_plan`] directly.

use std::error::Error;
use std::fmt;

use supernova_linalg::ops::{Op, OpTrace};
use supernova_linalg::{
    partial_cholesky_scratch_mode, solve_lower_leading, solve_lower_transpose_leading,
    KernelScratch, Mat, NumericMode,
};

use crate::executor::{HostSchedule, ParallelExecutor};
use crate::{BlockMat, ExecutionPlan, SymbolicFactor};

/// A supernode's Cholesky pivot was not positive definite.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FactorizeError {
    node: usize,
    front_col: usize,
}

impl FactorizeError {
    /// Index of the failing supernode.
    pub fn node(&self) -> usize {
        self.node
    }

    /// Scalar column within the node's front at which the pivot failed.
    pub fn front_col(&self) -> usize {
        self.front_col
    }
}

impl fmt::Display for FactorizeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "front of supernode {} is not positive definite at column {}",
            self.node, self.front_col
        )
    }
}

impl Error for FactorizeError {}

/// The operations performed to (re)compute one supernode.
#[derive(Clone, Debug, Default)]
pub struct NodeTrace {
    /// Supernode index (into [`SymbolicFactor::nodes`]).
    pub node: usize,
    /// Primitive operations in execution order.
    pub ops: OpTrace,
}

/// Outcome of an incremental re-factorization.
#[derive(Clone, Debug, Default)]
pub struct RefactorStats {
    /// Supernodes that were recomputed this pass, with their op traces,
    /// in children-before-parents execution order.
    pub recomputed: Vec<NodeTrace>,
    /// Number of supernodes reused from the previous factorization.
    pub reused: usize,
}

impl RefactorStats {
    /// Indices of the recomputed supernodes.
    pub fn recomputed_nodes(&self) -> Vec<usize> {
        self.recomputed.iter().map(|t| t.node).collect()
    }

    /// Total flops across recomputed nodes.
    pub fn flops(&self) -> u64 {
        self.recomputed.iter().map(|t| t.ops.flops()).sum()
    }
}

/// The numeric factor of one supernode: the `t × t` front (`t = m + n`)
/// it was factored in. Its leading `m` columns are the stored columns
/// `[L_A; L_B]`; its trailing `n × n` block is the cached update matrix
/// `L_C` used by the parent's extend-add. The `m × n` block above `L_C`
/// is held but never read.
///
/// The paper discards `L_C` after the merge (Figure 4); the incremental
/// engine instead *caches* it so that re-factorizing an affected node needs
/// only its children's cached updates, never a revisit of the whole subtree
/// (DESIGN.md decision 2).
#[derive(Clone, Debug)]
struct NodeFactor {
    /// The factored `t × t` front.
    front: Mat,
    /// Pivot width `m`.
    m: usize,
    /// Structural signature for cache matching across re-analyses.
    sig: (usize, usize, u64),
}

/// A supernodal multifrontal Cholesky factorization `H = L Lᵀ`.
///
/// Produced by [`factorize`](Self::factorize) and updated in place by
/// [`refactor`](Self::refactor); solves run via
/// [`solve_in_place`](Self::solve_in_place).
#[derive(Clone, Debug)]
pub struct NumericFactor {
    nodes: Vec<Option<NodeFactor>>,
}

impl NumericFactor {
    /// Factorizes `h` (structure given by `sym`) from scratch.
    ///
    /// # Errors
    ///
    /// Returns [`FactorizeError`] if a pivot block is not positive definite.
    pub fn factorize(sym: &SymbolicFactor, h: &BlockMat) -> Result<Self, FactorizeError> {
        Self::factorize_traced(sym, h).map(|(f, _)| f)
    }

    /// Factorizes from scratch, also returning per-node op traces.
    ///
    /// # Errors
    ///
    /// Returns [`FactorizeError`] if a pivot block is not positive definite.
    pub fn factorize_traced(
        sym: &SymbolicFactor,
        h: &BlockMat,
    ) -> Result<(Self, RefactorStats), FactorizeError> {
        let mut factor = NumericFactor {
            nodes: vec![None; sym.nodes().len()],
        };
        let all: Vec<usize> = (0..sym.num_blocks()).collect();
        let stats = factor.refactor(sym, h, &all)?;
        Ok((factor, stats))
    }

    /// Incrementally re-factorizes after the Hessian columns of
    /// `dirty_blocks` changed (and/or after `sym` was re-analyzed).
    ///
    /// Nodes whose structure is unchanged, whose Hessian contributions are
    /// clean and whose descendants are all reused keep their stored columns
    /// and cached update matrices; everything else — the dirty nodes, the
    /// structurally changed nodes and the ancestor closure of both — is
    /// recomputed, which is exactly the affected-path cost structure that
    /// ISAM2 exhibits and RA-ISAM2's Algorithm 1 predicts.
    ///
    /// # Errors
    ///
    /// Returns [`FactorizeError`] if a pivot block is not positive definite.
    pub fn refactor(
        &mut self,
        sym: &SymbolicFactor,
        h: &BlockMat,
        dirty_blocks: &[usize],
    ) -> Result<RefactorStats, FactorizeError> {
        let plan = ExecutionPlan::from_symbolic(sym);
        self.execute_plan(&plan, h, dirty_blocks, &ParallelExecutor::default())
            .map(|(stats, _)| stats)
    }

    /// An empty factor sized for `plan` — the starting point for a from-
    /// scratch [`execute_plan`](Self::execute_plan) (every node is seeded).
    pub fn empty(plan: &ExecutionPlan) -> Self {
        NumericFactor {
            nodes: vec![None; plan.num_tasks()],
        }
    }

    /// Incrementally (re)factorizes by executing `plan` on `exec`.
    ///
    /// This is the primitive behind [`refactor`](Self::refactor): the
    /// recompute set is the ancestor closure of the dirty nodes plus every
    /// node whose structural signature no longer matches the cached factor.
    /// A recomputed task factors in its cached same-signature node's front
    /// if there is one, else in a fresh `t × t` buffer; buffers never move
    /// between nodes. Tasks run in plan postorder, each merging its
    /// children's cached update matrices in the plan's fixed child order.
    ///
    /// Returns the refactor stats (traces in children-before-parents plan
    /// postorder) and the wall-clock [`HostSchedule`] of the execution.
    ///
    /// # Errors
    ///
    /// Returns [`FactorizeError`] if a pivot block is not positive
    /// definite; the factor's numeric cache is invalid afterwards (callers
    /// re-seed via [`empty`](Self::empty) or damping, as the engine does).
    pub fn execute_plan(
        &mut self,
        plan: &ExecutionPlan,
        h: &BlockMat,
        dirty_blocks: &[usize],
        exec: &ParallelExecutor,
    ) -> Result<(RefactorStats, HostSchedule), FactorizeError> {
        let num_nodes = plan.num_tasks();
        // Pair every task with the previous factorization's node of the
        // same signature, if any. Old nodes and plan tasks are both in
        // first-pivot-column order, so one merge pass finds the pairs; a
        // task without one seeds the recompute set, as do the dirty nodes.
        let mut old = std::mem::take(&mut self.nodes)
            .into_iter()
            .flatten()
            .peekable();
        let mut nodes: Vec<Option<NodeFactor>> = Vec::with_capacity(num_nodes);
        let mut seeds: Vec<usize> = Vec::new();
        for (s, task) in plan.tasks().iter().enumerate() {
            while old.next_if(|nf| nf.sig.0 < task.sig.0).is_some() {}
            let hit = old.next_if(|nf| nf.sig == task.sig);
            if hit.is_none() {
                seeds.push(s);
            }
            nodes.push(hit);
        }
        for &b in dirty_blocks {
            seeds.push(plan.node_of_block(b));
        }
        let recompute = plan.ancestor_closure(seeds);
        let mut is_recompute = vec![false; num_nodes];
        for &s in &recompute {
            is_recompute[s] = true;
        }

        // A reused node keeps its cached factor (every task without one is
        // a seed). A recomputed task takes its cached node's front to
        // factor in again and leaves its own node in the slot for its
        // parent to read; the executor runs tasks in plan postorder, so
        // the traces come out in that order.
        let reused = num_nodes - recompute.len();
        let mut recomputed = Vec::with_capacity(recompute.len());
        let numeric = exec.numeric();
        let (res, sched) = exec.run(plan, &is_recompute, |s, scratch| {
            let spare = nodes[s].take().map(|nf| nf.front);
            let (nf, ops) = compute_task(plan, h, s, &nodes, spare, scratch, numeric)?;
            nodes[s] = Some(nf);
            recomputed.push(NodeTrace { node: s, ops });
            Ok(())
        });
        res?;
        self.nodes = nodes;
        Ok((RefactorStats { recomputed, reused }, sched))
    }

    /// Serializes the factor into a canonical little-endian byte string
    /// (per-node signature, dimensions, and f64 payloads). The CI
    /// determinism gate pins a hash of these bytes.
    pub fn serialize_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        for nf in &self.nodes {
            let Some(nf) = nf else {
                out.push(0u8);
                continue;
            };
            out.push(1u8);
            out.extend_from_slice(&(nf.sig.0 as u64).to_le_bytes());
            out.extend_from_slice(&(nf.sig.1 as u64).to_le_bytes());
            out.extend_from_slice(&nf.sig.2.to_le_bytes());
            // `L` as a `t × m` matrix, then the update as `n × n`: the
            // front's column block at offset 0, then its trailing block.
            let (t, m) = (nf.front.rows(), nf.m);
            for (off, rows, cols) in [(0, t, m), (m, t - m, t - m)] {
                out.extend_from_slice(&(rows as u64).to_le_bytes());
                out.extend_from_slice(&(cols as u64).to_le_bytes());
                for c in off..off + cols {
                    for v in &nf.front.col(c)[off..] {
                        out.extend_from_slice(&v.to_le_bytes());
                    }
                }
            }
        }
        out
    }

    /// Solves `H x = b` in place (`x` enters as `b`), using the supernodal
    /// forward and backward triangular solves.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != sym.total_dim()` or if the factor and `sym`
    /// disagree (e.g. `refactor` was never run for this structure).
    pub fn solve_in_place(&self, sym: &SymbolicFactor, x: &mut [f64]) -> OpTrace {
        assert_eq!(x.len(), sym.total_dim(), "solve rhs length mismatch");
        let mut trace = OpTrace::new();
        // The pivot segment of `x` is solved in place and `L` is read where
        // it is stored; the one buffer a node needs — its remainder-sized
        // update (forward) or gathered right-hand side (backward) — is
        // shared by every node of the solve.
        let max_rem = sym.nodes().iter().map(|n| n.rem_dim).max().unwrap_or(0);
        let mut rem = vec![0.0; max_rem]; // lint: allow(hot-alloc) — once per solve, not per node
        let node = |s: usize| {
            let info = &sym.nodes()[s];
            // lint: allow(unwrap) — a factor executed for `sym` holds every node
            let nf = self.nodes[s].as_ref().expect("missing node factor");
            (info, &nf.front, sym.block_offset(info.first_col))
        };
        // Forward: L y = b, children before parents.
        for &s in sym.postorder() {
            let (info, l, pivot_off) = node(s);
            let (m, n) = (info.pivot_dim, info.rem_dim);
            solve_lower_leading(l, &mut x[pivot_off..pivot_off + m]);
            trace.push(Op::Trsm { m: 1, n: m });
            if n > 0 {
                // upd = L_B · y, accumulated column by column (the order
                // `Mat::matvec` uses).
                let upd = &mut rem[..n];
                upd.fill(0.0);
                for (c, &yc) in x[pivot_off..pivot_off + m].iter().enumerate() {
                    // lint: allow(float-eq) — structural-zero skip: exact zeros from sparsity
                    if yc == 0.0 {
                        continue;
                    }
                    for (u, &v) in upd.iter_mut().zip(&l.col(c)[m..]) {
                        *u += v * yc;
                    }
                }
                trace.push(Op::Gemv { m: n, n: m });
                scatter_sub(sym, info.remainder_rows(), upd, x);
            }
        }
        // Backward: Lᵀ x = y, parents before children.
        for &s in sym.postorder().iter().rev() {
            let (info, l, pivot_off) = node(s);
            let (m, n) = (info.pivot_dim, info.rem_dim);
            if n > 0 {
                let xr = &mut rem[..n];
                gather(sym, info.remainder_rows(), x, xr);
                for (c, rhs) in x[pivot_off..pivot_off + m].iter_mut().enumerate() {
                    let mut acc = 0.0;
                    for (&v, &xv) in l.col(c)[m..].iter().zip(xr.iter()) {
                        acc += v * xv;
                    }
                    // rhs -= L_Bᵀ · xr. The product used to pass through
                    // `1.0 · acc + 0.0 · 0.0`, which turns a −0.0 into +0.0;
                    // the `+ 0.0` keeps Δ bit-identical to that.
                    *rhs -= acc + 0.0;
                }
                trace.push(Op::Gemv { m: n, n: m });
            }
            solve_lower_transpose_leading(l, &mut x[pivot_off..pivot_off + m]);
            trace.push(Op::Trsm { m: 1, n: m });
        }
        trace
    }

    /// The marginal covariance of one variable block: the `(b, b)` diagonal
    /// block of `H⁻¹`, recovered by back-substituting unit vectors through
    /// the factor (the standard SLAM covariance-recovery query).
    ///
    /// # Panics
    ///
    /// Panics if `b` is out of range or the factor does not match `sym`.
    pub fn marginal_covariance(&self, sym: &SymbolicFactor, b: usize) -> Mat {
        let dim = sym.block_dims()[b];
        let off = sym.block_offset(b);
        let n = sym.total_dim();
        let mut cov = Mat::zeros(dim, dim);
        for c in 0..dim {
            let mut rhs = vec![0.0; n];
            rhs[off + c] = 1.0;
            self.solve_in_place(sym, &mut rhs);
            for r in 0..dim {
                cov[(r, c)] = rhs[off + r];
            }
        }
        cov
    }

    /// Densifies `L` into a full lower-triangular matrix (test helper).
    pub fn to_dense_l(&self, sym: &SymbolicFactor) -> Mat {
        let n = sym.total_dim();
        let mut l = Mat::zeros(n, n);
        for (s, info) in sym.nodes().iter().enumerate() {
            // lint: allow(unwrap) — postorder guarantees children factored first
            let nf = self.nodes[s].as_ref().expect("missing node factor");
            let pivot_off = sym.block_offset(info.first_col);
            // Scalar row offsets of the front rows.
            let mut row_offs = Vec::new();
            for &br in &info.rows {
                let off = sym.block_offset(br);
                for k in 0..sym.block_dims()[br] {
                    row_offs.push(off + k);
                }
            }
            for c in 0..info.pivot_dim {
                for (r_local, &r_global) in row_offs.iter().enumerate() {
                    if r_global >= pivot_off + c {
                        l[(r_global, pivot_off + c)] = nf.front[(r_local, c)];
                    }
                }
            }
        }
        l
    }
}

/// Executes one plan task in its own `t × t` front — `spare`, the cached
/// node's buffer, when there is one: reset, Hessian assembly via the
/// precomputed scatter offsets, extend-add of the children's cached
/// updates via the precomputed scatter runs, then the three-step partial
/// factorization. The factored front is the published node, so nothing is
/// copied out.
fn compute_task(
    plan: &ExecutionPlan,
    h: &BlockMat,
    s: usize,
    nodes: &[Option<NodeFactor>],
    spare: Option<Mat>,
    scratch: &mut KernelScratch,
    numeric: NumericMode,
) -> Result<(NodeFactor, OpTrace), FactorizeError> {
    let task = &plan.tasks()[s];
    let m = task.pivot_dim;
    let n = task.rem_dim;
    let t = m + n;
    let mut trace = OpTrace::new();
    let mut front = match spare {
        Some(mut front) => {
            front.reset(t, t);
            front
        }
        // lint: allow(hot-alloc) — a node with a new signature gets its own front, once
        None => Mat::zeros(t, t),
    };
    trace.push(Op::Memset { bytes: t * t * 4 });

    // Assemble the original Hessian columns owned by this node.
    let mut asm_blocks = 0usize;
    let mut asm_elems = 0usize;
    for (jj, j) in task.cols().enumerate() {
        let cj = task.col_offsets[jj];
        for (i, blk) in h.col_blocks(j) {
            let ri = task
                .local_offset(i)
                .unwrap_or_else(|| panic!("H block ({i},{j}) outside front of node {s}"));
            front.add_block(ri, cj, blk);
            asm_blocks += 1;
            asm_elems += blk.rows() * blk.cols();
        }
    }
    if asm_blocks > 0 {
        trace.push(Op::Memcpy {
            bytes: asm_elems * 4,
        });
        trace.push(Op::ScatterAdd {
            blocks: asm_blocks,
            elems: asm_elems,
        });
    }

    // Extend-add each child's cached update matrix (the merge step), in
    // the plan's fixed child order. The update is the trailing block of
    // the child's front.
    for mg in &task.merges {
        // lint: allow(unwrap) — postorder completes children before parents
        let child = nodes[mg.child]
            .as_ref()
            .expect("child factored after parent");
        for b in &mg.blocks {
            front.add_block_from(
                b.dst_row,
                b.dst_col,
                &child.front,
                child.m + b.src_row,
                child.m + b.src_col,
                b.rows,
                b.cols,
            );
        }
        if !mg.blocks.is_empty() {
            trace.push(Op::Memcpy {
                bytes: mg.elems * 4,
            });
            trace.push(Op::ScatterAdd {
                blocks: mg.scatter_blocks,
                elems: mg.elems,
            });
        }
    }

    // Three-step partial factorization (Figure 5, bottom), run through
    // the executor's pooled pack arena: zero allocation once warm, and the
    // arena's flop meter feeds the span's `kernel_flops`. The executor's
    // numeric mode picks the kernel engine (f64 / f32).
    partial_cholesky_scratch_mode(&mut front, m, scratch, numeric).map_err(|e| FactorizeError {
        node: s,
        front_col: e.col(),
    })?;
    trace.push(Op::Chol { n: m });
    if n > 0 {
        trace.push(Op::Trsm { m: n, n: m });
        trace.push(Op::Syrk { n, k: m });
    }

    // The modeled accelerator writes `L` back to memory; the host's
    // columns already sit in the node's front.
    trace.push(Op::Memcpy { bytes: t * m * 4 });
    Ok((
        NodeFactor {
            front,
            m,
            sig: task.sig,
        },
        trace,
    ))
}

/// `x[rows] -= v`, scattering block-contiguous `v` into the global vector.
fn scatter_sub(sym: &SymbolicFactor, rows: &[usize], v: &[f64], x: &mut [f64]) {
    let mut k = 0usize;
    for &br in rows {
        let off = sym.block_offset(br);
        let d = sym.block_dims()[br];
        for i in 0..d {
            x[off + i] -= v[k + i];
        }
        k += d;
    }
}

/// Gathers `x[rows]` into the block-contiguous `out`.
fn gather(sym: &SymbolicFactor, rows: &[usize], x: &[f64], out: &mut [f64]) {
    let mut k = 0usize;
    for &br in rows {
        let off = sym.block_offset(br);
        let d = sym.block_dims()[br];
        out[k..k + d].copy_from_slice(&x[off..off + d]);
        k += d;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BlockPattern;
    use supernova_linalg::cholesky_in_place;

    /// Builds a block SPD system from a pattern with deterministic values.
    fn build_h(pattern: &BlockPattern, seed: u64) -> BlockMat {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state as f64 / u64::MAX as f64) - 0.5
        };
        let dims = pattern.block_dims().to_vec();
        let mut h = BlockMat::new(dims.clone());
        for j in 0..pattern.num_blocks() {
            for &i in pattern.col(j) {
                let m = Mat::from_fn(dims[i], dims[j], |_, _| next() * 0.3);
                h.add_to_block(i, j, &m);
            }
            // Strong diagonal for positive definiteness.
            let d = dims[j];
            let row_degree = pattern.col(j).len() as f64;
            h.add_to_block(j, j, &Mat::from_diag(&vec![4.0 + 2.0 * row_degree; d]));
        }
        h
    }

    fn assert_matches_dense(
        pattern: &BlockPattern,
        h: &BlockMat,
        num: &NumericFactor,
        sym: &SymbolicFactor,
    ) {
        let dense = h.to_dense();
        let mut l_ref = dense.clone();
        cholesky_in_place(&mut l_ref).unwrap();
        let l = num.to_dense_l(sym);
        let n = sym.total_dim();
        for i in 0..n {
            for j in 0..=i {
                assert!(
                    (l[(i, j)] - l_ref[(i, j)]).abs() < 1e-8,
                    "L({i},{j}) = {} vs dense {} (pattern nnz {})",
                    l[(i, j)],
                    l_ref[(i, j)],
                    pattern.nnz_blocks(),
                );
            }
        }
    }

    fn loopy_pattern() -> BlockPattern {
        let mut p = BlockPattern::new(vec![2, 3, 1, 2, 2, 3, 1, 2]);
        for i in 0..7 {
            p.add_block_edge(i, i + 1);
        }
        p.add_block_edge(0, 5);
        p.add_block_edge(2, 7);
        p.add_block_edge(3, 6);
        p
    }

    #[test]
    fn factorize_matches_dense_cholesky() {
        let p = loopy_pattern();
        let sym = SymbolicFactor::analyze(&p, 0);
        let h = build_h(&p, 3);
        let num = NumericFactor::factorize(&sym, &h).unwrap();
        assert_matches_dense(&p, &h, &num, &sym);
    }

    #[test]
    fn factorize_with_relaxed_supernodes_matches_dense() {
        let p = loopy_pattern();
        let sym = SymbolicFactor::analyze(&p, 2);
        let h = build_h(&p, 3);
        let num = NumericFactor::factorize(&sym, &h).unwrap();
        assert_matches_dense(&p, &h, &num, &sym);
    }

    #[test]
    fn solve_inverts_system() {
        let p = loopy_pattern();
        let sym = SymbolicFactor::analyze(&p, 0);
        let h = build_h(&p, 9);
        let num = NumericFactor::factorize(&sym, &h).unwrap();
        let dense = h.to_dense();
        let x_true: Vec<f64> = (0..sym.total_dim()).map(|i| (i % 5) as f64 - 2.0).collect();
        let mut x = dense.matvec(&x_true);
        let trace = num.solve_in_place(&sym, &mut x);
        assert!(!trace.is_empty());
        for (got, want) in x.iter().zip(&x_true) {
            assert!((got - want).abs() < 1e-8, "{got} vs {want}");
        }
    }

    #[test]
    fn refactor_with_no_dirt_reuses_everything() {
        let p = loopy_pattern();
        let sym = SymbolicFactor::analyze(&p, 0);
        let h = build_h(&p, 8);
        let mut num = NumericFactor::factorize(&sym, &h).unwrap();
        let stats = num.refactor(&sym, &h, &[]).unwrap();
        assert_eq!(stats.recomputed.len(), 0);
        assert_eq!(stats.reused, sym.nodes().len());
    }

    #[test]
    fn traces_cover_recomputed_nodes_in_postorder() {
        let p = loopy_pattern();
        let sym = SymbolicFactor::analyze(&p, 0);
        let h = build_h(&p, 2);
        let (_, stats) = NumericFactor::factorize_traced(&sym, &h).unwrap();
        let got: Vec<usize> = stats.recomputed_nodes();
        assert_eq!(got, sym.postorder().to_vec());
        assert!(stats.flops() > 0);
        for t in &stats.recomputed {
            assert!(t.ops.ops().iter().any(|o| matches!(o, Op::Chol { .. })));
        }
    }

    #[test]
    fn marginal_covariance_matches_dense_inverse() {
        let p = loopy_pattern();
        let sym = SymbolicFactor::analyze(&p, 1);
        let h = build_h(&p, 11);
        let num = NumericFactor::factorize(&sym, &h).unwrap();
        // Dense inverse via solves against the identity.
        let dense = h.to_dense();
        let mut l = dense.clone();
        cholesky_in_place(&mut l).unwrap();
        for b in [0usize, 3, 7] {
            let cov = num.marginal_covariance(&sym, b);
            let dim = sym.block_dims()[b];
            let off = sym.block_offset(b);
            for c in 0..dim {
                let mut e = vec![0.0; sym.total_dim()];
                e[off + c] = 1.0;
                solve_lower_leading(&l, &mut e);
                solve_lower_transpose_leading(&l, &mut e);
                for r in 0..dim {
                    assert!(
                        (cov[(r, c)] - e[off + r]).abs() < 1e-9,
                        "cov({r},{c}) of block {b} differs"
                    );
                }
            }
            // A covariance diagonal must be positive.
            for d in 0..dim {
                assert!(cov[(d, d)] > 0.0);
            }
        }
    }

    #[test]
    fn indefinite_matrix_reports_node() {
        let mut p = BlockPattern::new(vec![1, 1]);
        p.add_block_edge(0, 1);
        let sym = SymbolicFactor::analyze(&p, 0);
        let mut h = BlockMat::new(vec![1, 1]);
        h.add_to_block(0, 0, &Mat::from_rows(1, 1, &[1.0]));
        h.add_to_block(1, 0, &Mat::from_rows(1, 1, &[2.0]));
        h.add_to_block(1, 1, &Mat::from_rows(1, 1, &[1.0]));
        let err = NumericFactor::factorize(&sym, &h).unwrap_err();
        assert!(!format!("{err}").is_empty());

        // Wide fronts: supernodes {0} and {1} are 128-wide leaves under
        // the root {2, 3}. A pivot poisoned past node 0's first kernel
        // panel is reported at its node and front column.
        let mut p = BlockPattern::new(vec![64; 4]);
        p.add_block_edge(0, 3);
        p.add_block_edge(1, 2);
        p.add_block_edge(2, 3);
        let sym = SymbolicFactor::analyze(&p, 0);
        let plan = ExecutionPlan::from_symbolic(&sym);
        assert_eq!(plan.levels()[0], [0, 1]);
        let mut h = build_h(&p, 9);
        for j in 0..4 {
            h.add_to_block(j, j, &Mat::from_diag(&[64.0; 64]));
        }
        let mut bad = Mat::zeros(64, 64);
        bad[(50, 50)] = -1e9;
        h.add_to_block(0, 0, &bad);
        let mut num = NumericFactor::empty(&plan);
        let err = num
            .execute_plan(&plan, &h, &[0, 1, 2, 3], &ParallelExecutor::default())
            .unwrap_err();
        assert_eq!((err.node(), err.front_col()), (0, 50));
    }

    #[test]
    fn narrow_mode_reaches_the_kernels() {
        let p = loopy_pattern();
        let sym = SymbolicFactor::analyze(&p, 0);
        let plan = ExecutionPlan::from_symbolic(&sym);
        let h = build_h(&p, 17);
        let all: Vec<usize> = (0..p.num_blocks()).collect();
        let mode = NumericMode::F32;
        let mut narrow = NumericFactor::empty(&plan);
        let exec = ParallelExecutor::default().with_numeric(mode);
        let (_, sched) = narrow.execute_plan(&plan, &h, &all, &exec).unwrap();
        assert_eq!(sched.numeric, mode);
        // The narrow engine genuinely rounds: a same-input f64 factor
        // must differ, or the mode never reached the kernels.
        let mut wide = NumericFactor::empty(&plan);
        wide.execute_plan(&plan, &h, &all, &ParallelExecutor::default())
            .unwrap();
        assert_ne!(
            narrow.serialize_bytes(),
            wide.serialize_bytes(),
            "{mode} produced bitwise-f64 results; mode plumbing is dead"
        );
    }

    #[test]
    fn execute_plan_reuses_like_refactor() {
        let p = loopy_pattern();
        let sym = SymbolicFactor::analyze(&p, 0);
        let plan = ExecutionPlan::from_symbolic(&sym);
        let h0 = build_h(&p, 1);
        let all: Vec<usize> = (0..p.num_blocks()).collect();

        let mut via_plan = NumericFactor::empty(&plan);
        via_plan
            .execute_plan(&plan, &h0, &all, &ParallelExecutor::default())
            .unwrap();

        let mut h1 = h0.clone();
        h1.add_to_block(2, 2, &Mat::from_diag(&vec![1.5; p.block_dims()[2]]));
        let (stats, _) = via_plan
            .execute_plan(&plan, &h1, &[2], &ParallelExecutor::default())
            .unwrap();

        // Mirror the serial refactor path on a fresh factor.
        let mut via_refactor = NumericFactor::factorize(&sym, &h0).unwrap();
        let ref_stats = via_refactor.refactor(&sym, &h1, &[2]).unwrap();

        assert_eq!(stats.reused, ref_stats.reused);
        assert_eq!(stats.recomputed_nodes(), ref_stats.recomputed_nodes());
        assert_eq!(via_plan.serialize_bytes(), via_refactor.serialize_bytes());
    }

    #[test]
    fn serialize_bytes_distinguishes_values() {
        let p = loopy_pattern();
        let sym = SymbolicFactor::analyze(&p, 0);
        let h0 = build_h(&p, 1);
        let num0 = NumericFactor::factorize(&sym, &h0).unwrap();
        let mut h1 = h0.clone();
        h1.add_to_block(0, 0, &Mat::from_diag(&vec![0.25; p.block_dims()[0]]));
        let num1 = NumericFactor::factorize(&sym, &h1).unwrap();
        assert_ne!(num0.serialize_bytes(), num1.serialize_bytes());
        assert_eq!(num0.serialize_bytes(), num0.serialize_bytes());
    }

    /// Every node's front buffer address, with its signature.
    fn fronts(num: &NumericFactor) -> Vec<((usize, usize, u64), usize)> {
        let nodes = num.nodes.iter().flatten();
        nodes
            .map(|nf| (nf.sig, nf.front.as_slice().as_ptr() as usize))
            .collect()
    }

    #[test]
    fn recycled_fronts_match_a_fresh_execution_after_every_step() {
        let exec = ParallelExecutor::default();
        let mut p = loopy_pattern();
        let all: Vec<usize> = (0..p.num_blocks()).collect();
        let mut plan = ExecutionPlan::from_symbolic(&SymbolicFactor::analyze(&p, 0));
        let mut h = build_h(&p, 1);
        let mut num = NumericFactor::empty(&plan);
        // One incremental step, checked byte for byte against a fresh
        // factor of the same system.
        let step =
            |num: &mut NumericFactor, plan: &ExecutionPlan, h: &BlockMat, dirty: &[usize]| {
                let (stats, _) = num.execute_plan(plan, h, dirty, &exec).unwrap();
                let mut fresh = NumericFactor::empty(plan);
                fresh.execute_plan(plan, h, &all, &exec).unwrap();
                assert_eq!(num.serialize_bytes(), fresh.serialize_bytes());
                stats.reused
            };
        step(&mut num, &plan, &h, &all);

        // Values only, every node dirty: every task refactors in the
        // front it had.
        let seeded = fronts(&num);
        for b in 0..p.num_blocks() {
            h.add_to_block(b, b, &Mat::from_diag(&vec![0.5; p.block_dims()[b]]));
        }
        assert_eq!(step(&mut num, &plan, &h, &all), 0);
        assert_eq!(fronts(&num), seeded, "a front was reallocated");
        h.add_to_block(2, 2, &Mat::from_diag(&vec![1.5; p.block_dims()[2]]));
        assert!(step(&mut num, &plan, &h, &[2]) > 0);
        assert_eq!(fronts(&num), seeded);

        // A loop closure: a node that keeps its signature keeps its
        // front, a new signature gets a fresh one.
        p.add_block_edge(1, 6);
        plan = ExecutionPlan::from_symbolic(&SymbolicFactor::analyze(&p, 0));
        h.add_to_block(6, 1, &Mat::from_fn(1, 3, |_, c| 0.1 * c as f64));
        step(&mut num, &plan, &h, &[1, 6]);
        let after = fronts(&num);
        let kept = after
            .iter()
            .filter(|(sig, _)| seeded.iter().any(|(s, _)| s == sig));
        assert!(kept.clone().all(|front| seeded.contains(front)));
        assert!((1..after.len()).contains(&kept.count()));

        // A failed factorization leaves nothing to recycle; the re-seed
        // runs every task in a fresh front.
        let mut bad = h.clone();
        bad.add_to_block(0, 0, &Mat::from_diag(&[-1e9, -1e9]));
        assert!(num.execute_plan(&plan, &bad, &all, &exec).is_err());
        assert_eq!(step(&mut num, &plan, &h, &all), 0);
    }
}
