//! Numeric multifrontal factorization with incremental re-factorization.
//!
//! Since the plan/exec split, every (re)factorization is the execution of
//! an [`ExecutionPlan`] against reusable per-worker [`Workspace`] buffers:
//! the sym-based [`NumericFactor::factorize`]/[`NumericFactor::refactor`]
//! entry points derive a throwaway plan and run it serially, while the
//! incremental engine caches one plan per symbolic structure and drives
//! [`NumericFactor::execute_plan`] directly (optionally on the
//! [`ParallelExecutor`] worker pool — results are bit-identical).

use std::error::Error;
use std::fmt;
use std::sync::{OnceLock, RwLock};

use supernova_linalg::ops::{Op, OpTrace};
use supernova_linalg::split::{split_panel_f32, split_panel_f64, split_tile_f32, split_tile_f64};
use supernova_linalg::{
    partial_cholesky_scratch_mode, solve_lower_leading, solve_lower_transpose_leading, Mat,
    NumericMode,
};

use crate::executor::{HostSchedule, ParallelExecutor, Workspace};
use crate::plan::{SplitShape, UnitKind};
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

/// The numeric factor of one supernode: the stored columns `[L_A; L_B]` and
/// the cached update matrix `L_C` used by the parent's extend-add.
///
/// The paper discards `L_C` after the merge (Figure 4); the incremental
/// engine instead *caches* it so that re-factorizing an affected node needs
/// only its children's cached updates, never a revisit of the whole subtree
/// (DESIGN.md decision 2).
#[derive(Clone, Debug)]
struct NodeFactor {
    /// `(m + n) × m` — `L_A` stacked over `L_B`.
    l: Mat,
    /// `n × n` lower triangle — the update matrix `L_C`.
    update: Mat,
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
        self.execute_plan(&plan, h, dirty_blocks, &ParallelExecutor::serial())
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
    /// node whose structural signature no longer matches the cached factor,
    /// and each recomputed task runs against a preallocated per-worker
    /// workspace. Running on the worker pool is **bit-identical** to serial
    /// execution: every task merges its children's cached update matrices
    /// in the plan's fixed child order, so f64 sums never depend on
    /// completion order.
    ///
    /// Returns the refactor stats (traces in children-before-parents plan
    /// postorder, exactly as the serial path reports them) and the wall-
    /// clock [`HostSchedule`] of the execution.
    ///
    /// A multi-worker `exec` dispatches across workers only with the
    /// plan's level-safety proof in hand, so this derives it
    /// ([`interference::certify`](crate::interference::certify)) on every
    /// call with `exec.threads() > 1`; a caller that executes one plan
    /// many times memoizes the proof and calls
    /// [`execute_plan_certified`](Self::execute_plan_certified) instead.
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
        let cert = if exec.threads() > 1 {
            crate::interference::certify(plan).ok()
        } else {
            None
        };
        self.execute_plan_certified(plan, h, dirty_blocks, exec, cert.as_ref())
    }

    /// [`execute_plan`](Self::execute_plan) with the level-safety proof
    /// supplied by the caller (the solver engine memoizes it per plan)
    /// instead of derived per call. A covering certificate lets a
    /// multi-worker executor dispatch proven-safe waves in lock-free
    /// batches ([`DispatchMode::LevelBatched`](crate::DispatchMode));
    /// without one the plan runs inline on the calling thread, whatever
    /// the thread count. Bit-identical either way.
    ///
    /// The plan's intra-front split overlay is executed only by waves:
    /// this asks the executor's own wave-or-inline rule (the one
    /// [`ParallelExecutor::run`] dispatches by) and builds the overlay's
    /// shared strip buffers only when waves will run. An inline execution
    /// — one worker, one flagged task, or no covering certificate — runs
    /// every task as the whole front an unsplit plan would run, allocates
    /// no strip state and reports
    /// [`split_units`](HostSchedule::split_units)` == 0`.
    ///
    /// # Errors
    ///
    /// As [`execute_plan`](Self::execute_plan).
    pub fn execute_plan_certified(
        &mut self,
        plan: &ExecutionPlan,
        h: &BlockMat,
        dirty_blocks: &[usize],
        exec: &ParallelExecutor,
        cert: Option<&crate::PlanCertificate>,
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
        let mut cached: Vec<Option<NodeFactor>> = Vec::with_capacity(num_nodes);
        let mut seeds: Vec<usize> = Vec::new();
        for (s, task) in plan.tasks().iter().enumerate() {
            while old.next_if(|nf| nf.sig.0 < task.sig.0).is_some() {}
            let hit = old.next_if(|nf| nf.sig == task.sig);
            if hit.is_none() {
                seeds.push(s);
            }
            cached.push(hit);
        }
        for &b in dirty_blocks {
            seeds.push(plan.node_of_block(b));
        }
        let recompute = plan.ancestor_closure(seeds);
        let mut is_recompute = vec![false; num_nodes];
        for &s in &recompute {
            is_recompute[s] = true;
        }

        // One write-once slot per node: reused factors are published up
        // front, recomputed ones by whichever worker runs the task.
        let slots: Vec<OnceLock<(NodeFactor, OpTrace)>> =
            (0..num_nodes).map(|_| OnceLock::new()).collect();
        let mut reused = 0usize;
        for (s, nf) in cached.into_iter().enumerate() {
            if !is_recompute[s] {
                // lint: allow(unwrap) — a task without a cached pair is a seed
                let nf = nf.expect("reused node missing from cache");
                let _ = slots[s].set((nf, OpTrace::new()));
                reused += 1;
            }
        }

        let numeric = exec.numeric();
        // Shared strip state for every recomputed split task, allocated up
        // front on the calling thread so sub-unit execution itself stays
        // allocation-free — and only when `run` is going to take waves:
        // inline runs every task whole and never looks at the overlay.
        let split_state: Vec<Option<TaskSplit>> =
            if plan.has_units() && exec.takes_waves(plan, &is_recompute, cert) {
                plan.tasks()
                    .iter()
                    .enumerate()
                    .map(|(s, task)| {
                        plan.split_shape(s)
                            .filter(|_| is_recompute[s])
                            .map(|shape| TaskSplit::new(&shape, task.front_dim(), numeric))
                    })
                    .collect()
            } else {
                Vec::new()
            };
        let (res, sched) = exec.run(plan, &is_recompute, cert, |unit, ws| {
            let s = unit.task;
            let split = || {
                split_state
                    .get(s)
                    .and_then(Option::as_ref)
                    // lint: allow(unwrap) — sub-units only reach waves, for split tasks
                    .expect("sub-unit without its strip state")
            };
            match unit.kind {
                UnitKind::Whole => {
                    let out = compute_task(plan, h, s, &slots, ws, numeric)?;
                    let published = slots[s].set(out).is_ok();
                    debug_assert!(published, "task {s} executed twice");
                }
                UnitKind::Assemble { strip } => {
                    assemble_strip(plan, h, s, strip, &slots, split(), numeric);
                }
                UnitKind::Panel { panel } => panel_step(plan, s, panel, split(), ws, numeric)?,
                UnitKind::Tile { panel, strip } => {
                    tile_step(plan, s, panel, strip, split(), ws, numeric);
                }
                UnitKind::Finish => {
                    let out = finish_task(plan, h, s, split(), numeric);
                    let published = slots[s].set(out).is_ok();
                    debug_assert!(published, "task {s} finished twice");
                }
            }
            Ok(())
        });
        res?;

        let mut nodes: Vec<Option<NodeFactor>> = Vec::with_capacity(num_nodes);
        let mut traces: Vec<Option<OpTrace>> = vec![None; num_nodes];
        for (s, slot) in slots.into_iter().enumerate() {
            match slot.into_inner() {
                Some((nf, trace)) => {
                    if is_recompute[s] {
                        traces[s] = Some(trace);
                    }
                    nodes.push(Some(nf));
                }
                None => nodes.push(None),
            }
        }
        self.nodes = nodes;

        // Report traces in plan postorder so stats are executor-independent.
        let mut stats = RefactorStats {
            recomputed: Vec::new(),
            reused,
        };
        for &s in plan.postorder() {
            if let Some(ops) = traces[s].take() {
                stats.recomputed.push(NodeTrace { node: s, ops });
            }
        }
        Ok((stats, sched))
    }

    /// Serializes the factor into a canonical little-endian byte string
    /// (per-node signature, dimensions, and f64 payloads). The CI
    /// determinism gate diffs these bytes across thread counts.
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
            for m in [&nf.l, &nf.update] {
                out.extend_from_slice(&(m.rows() as u64).to_le_bytes());
                out.extend_from_slice(&(m.cols() as u64).to_le_bytes());
                for c in 0..m.cols() {
                    for v in m.col(c) {
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
            (info, &nf.l, sym.block_offset(info.first_col))
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

    /// The stored factor columns `[L_A; L_B]` of supernode `s` (rows are the
    /// node's block rows, in `rows` order).
    pub fn node_columns(&self, s: usize) -> &Mat {
        // lint: allow(unwrap) — node factored before its L block is read
        &self.nodes[s].as_ref().expect("missing node factor").l
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
                        l[(r_global, pivot_off + c)] = nf.l[(r_local, c)];
                    }
                }
            }
        }
        l
    }
}

/// Executes one plan task: workspace reset, Hessian assembly via the
/// precomputed scatter offsets, extend-add of the children's cached
/// updates via the precomputed scatter blocks, then the three-step
/// partial factorization. Allocation-free apart from the result copies.
fn compute_task(
    plan: &ExecutionPlan,
    h: &BlockMat,
    s: usize,
    slots: &[OnceLock<(NodeFactor, OpTrace)>],
    ws: &mut Workspace,
    numeric: NumericMode,
) -> Result<(NodeFactor, OpTrace), FactorizeError> {
    let task = &plan.tasks()[s];
    let m = task.pivot_dim;
    let n = task.rem_dim;
    let t = m + n;
    let mut trace = OpTrace::new();
    let (front, scratch) = ws.parts();
    front.reset(t, t);
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
    // the plan's fixed child order — the determinism anchor that makes
    // parallel execution bit-identical to serial.
    for mg in &task.merges {
        // lint: allow(unwrap) — the executor completes children before parents
        let (child, _) = slots[mg.child].get().expect("child factored after parent");
        for b in &mg.blocks {
            front.add_block_from(
                b.dst_row,
                b.dst_col,
                &child.update,
                b.src_row,
                b.src_col,
                b.rows,
                b.cols,
            );
        }
        if !mg.blocks.is_empty() {
            trace.push(Op::Memcpy {
                bytes: mg.elems * 4,
            });
            trace.push(Op::ScatterAdd {
                blocks: mg.blocks.len(),
                elems: mg.elems,
            });
        }
    }

    // Three-step partial factorization (Figure 5, bottom), run through
    // the worker's pooled pack arena: zero allocation once warm, and the
    // arena's flop meter feeds the span's `kernel_flops`. The executor's
    // numeric mode picks the kernel engine (f64 / f32 / mixed).
    partial_cholesky_scratch_mode(front, m, scratch, numeric).map_err(|e| FactorizeError {
        node: s,
        front_col: e.col(),
    })?;
    trace.push(Op::Chol { n: m });
    if n > 0 {
        trace.push(Op::Trsm { m: n, n: m });
        trace.push(Op::Syrk { n, k: m });
    }

    // Copy the supernode columns out of the frontal workspace. These are
    // the published results, so they genuinely own their storage — the
    // one permitted allocation per task — streamed a column at a time.
    let (mut l, mut update) = (Mat::default(), Mat::default());
    front.block_into(0, 0, t, m, &mut l);
    front.block_into(m, m, n, n, &mut update);
    trace.push(Op::Memcpy { bytes: t * m * 4 });
    Ok((
        NodeFactor {
            l,
            update,
            sig: task.sig,
        },
        trace,
    ))
}

/// Shared frontal state of one *split* task while its sub-units execute
/// as waves (an inline execution runs the task whole in the worker's own
/// workspace and never builds one): one lock-guarded column strip per
/// [`SplitShape`] strip. Strip `q` stores front columns `[q·tile, …)` at
/// leading dimension `front_dim`, so its memory is byte-identical to
/// those columns of the whole-front workspace; under a narrow mode each
/// strip also carries the f32 shadow the mode's engine factors (demoted
/// by the strip's Assemble unit, promoted back by Finish — exactly as
/// `partial_cholesky_scratch_mode` round-trips the whole front).
///
/// The write locks never block: the plan's sub-levels already order every
/// writer-after-writer and writer-after-reader pair (the interference
/// certificate proves the rectangles disjoint within a sub-level), so
/// each acquisition succeeds immediately — the locks make the sharing
/// safe under `forbid(unsafe_code)`, they do not schedule it. Tiles of
/// one panel share the panel strip through concurrent read locks.
struct TaskSplit {
    /// Strip width in scalar columns (= the plan's `SplitConfig::tile`).
    tile: usize,
    strips: Vec<RwLock<StripBuf>>,
}

/// One column strip of a split task's frontal workspace.
struct StripBuf {
    /// f64 columns, leading dimension = the front dimension.
    data: Vec<f64>,
    /// f32 shadow factored by the narrow engines (empty in `F64` mode).
    data32: Vec<f32>,
}

#[cfg(test)]
thread_local! {
    /// [`TaskSplit`]s built on this thread — they are built on the thread
    /// that calls `execute_plan_certified`, so a test reads its own count.
    static TASK_SPLITS_BUILT: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

impl TaskSplit {
    fn new(shape: &SplitShape, front_dim: usize, numeric: NumericMode) -> Self {
        #[cfg(test)]
        TASK_SPLITS_BUILT.with(|n| n.set(n.get() + 1));
        let strips = (0..shape.strips)
            .map(|q| {
                let elems = front_dim * shape.strip_width(q, front_dim);
                RwLock::new(StripBuf {
                    data: vec![0.0f64; elems],
                    data32: if numeric == NumericMode::F64 {
                        Vec::new()
                    } else {
                        vec![0.0f32; elems]
                    },
                })
            })
            .collect();
        TaskSplit {
            tile: shape.tile,
            strips,
        }
    }
}

/// Executes one `Assemble` unit: scatters the Hessian columns and the
/// children's cached update matrices into one column strip of the front,
/// clipped to the strip's columns, in exactly the order `compute_task`
/// assembles the whole front — each front element receives the same
/// additions in the same order, so the strip contents are bit-identical
/// to the corresponding whole-front columns. Under a narrow mode the
/// strip is then demoted into its f32 shadow, element for element as the
/// whole-front demote does.
fn assemble_strip(
    plan: &ExecutionPlan,
    h: &BlockMat,
    s: usize,
    strip: usize,
    slots: &[OnceLock<(NodeFactor, OpTrace)>],
    split: &TaskSplit,
    numeric: NumericMode,
) {
    let task = &plan.tasks()[s];
    let dim = task.front_dim();
    let col0 = strip * split.tile;
    let w = split.tile.min(dim - col0);
    // lint: allow(unwrap) — the certificate orders all strip writers
    let mut guard = split.strips[strip].write().expect("strip lock poisoned");
    let StripBuf { data, data32 } = &mut *guard;

    // Hessian columns owned by this node, clipped to [col0, col0 + w).
    for (jj, j) in task.cols().enumerate() {
        let cj = task.col_offsets[jj];
        for (i, blk) in h.col_blocks(j) {
            let ri = task
                .local_offset(i)
                .unwrap_or_else(|| panic!("H block ({i},{j}) outside front of node {s}"));
            let lo = col0.max(cj);
            let hi = (col0 + w).min(cj + blk.cols());
            for c in lo..hi {
                let dst = (c - col0) * dim + ri;
                for r in 0..blk.rows() {
                    data[dst + r] += blk[(r, c - cj)];
                }
            }
        }
    }

    // Extend-add of the children's cached updates, in the plan's fixed
    // child order (the determinism anchor), clipped to the strip.
    for mg in &task.merges {
        // lint: allow(unwrap) — the sub-levels order child Finish before parent Assemble
        let (child, _) = slots[mg.child].get().expect("child factored after parent");
        for b in &mg.blocks {
            let lo = col0.max(b.dst_col);
            let hi = (col0 + w).min(b.dst_col + b.cols);
            for c in lo..hi {
                let sc = b.src_col + (c - b.dst_col);
                let dst = (c - col0) * dim + b.dst_row;
                for r in 0..b.rows {
                    data[dst + r] += child.update[(b.src_row + r, sc)];
                }
            }
        }
    }

    if numeric != NumericMode::F64 {
        for (d, &v) in data32.iter_mut().zip(data.iter()) {
            *d = v as f32;
        }
    }
}

/// Executes one `Panel` unit: the serial panel step (diagonal Cholesky,
/// below-panel TRSM, intra-strip trailing slice) on the strip that stores
/// the panel, in the mode's kernel engine.
fn panel_step(
    plan: &ExecutionPlan,
    s: usize,
    panel: usize,
    split: &TaskSplit,
    ws: &mut Workspace,
    numeric: NumericMode,
) -> Result<(), FactorizeError> {
    let task = &plan.tasks()[s];
    // lint: allow(unwrap) — Panel units only exist on split tasks
    let shape = plan.split_shape(s).expect("panel on unsplit task");
    let dim = task.front_dim();
    let (k, b) = shape.panel_cols(panel, task.pivot_dim);
    let sp = shape.strip_of_panel(panel);
    let col0 = sp * shape.tile;
    let tail_end = col0 + shape.strip_width(sp, dim);
    let (_, scratch) = ws.parts();
    // lint: allow(unwrap) — the certificate orders all strip writers
    let mut guard = split.strips[sp].write().expect("strip lock poisoned");
    let r = if numeric == NumericMode::F64 {
        split_panel_f64(&mut guard.data, dim, dim, col0, k, b, tail_end, scratch)
    } else {
        split_panel_f32(
            numeric,
            &mut guard.data32,
            dim,
            dim,
            col0,
            k,
            b,
            tail_end,
            scratch,
        )
    };
    r.map_err(|e| FactorizeError {
        node: s,
        front_col: e.col(),
    })
}

/// Executes one `Tile` unit: the trailing-update slice owned by strip
/// `strip` after `panel`, reading the panel's strip and writing its own.
fn tile_step(
    plan: &ExecutionPlan,
    s: usize,
    panel: usize,
    strip: usize,
    split: &TaskSplit,
    ws: &mut Workspace,
    numeric: NumericMode,
) {
    let task = &plan.tasks()[s];
    // lint: allow(unwrap) — Tile units only exist on split tasks
    let shape = plan.split_shape(s).expect("tile on unsplit task");
    let dim = task.front_dim();
    let (k, b) = shape.panel_cols(panel, task.pivot_dim);
    let sp = shape.strip_of_panel(panel);
    let pcol0 = sp * shape.tile;
    let qcol0 = strip * shape.tile;
    let qcols = shape.strip_width(strip, dim);
    let (_, scratch) = ws.parts();
    // lint: allow(unwrap) — tiles of one panel share the panel strip read-only
    let pguard = split.strips[sp].read().expect("strip lock poisoned");
    // lint: allow(unwrap) — the certificate proves tile write rectangles disjoint
    let mut dguard = split.strips[strip].write().expect("strip lock poisoned");
    if numeric == NumericMode::F64 {
        split_tile_f64(
            &pguard.data,
            &mut dguard.data,
            dim,
            dim,
            pcol0,
            k,
            b,
            qcol0,
            qcols,
            scratch,
        );
    } else {
        split_tile_f32(
            numeric,
            &pguard.data32,
            &mut dguard.data32,
            dim,
            dim,
            pcol0,
            k,
            b,
            qcol0,
            qcols,
            scratch,
        );
    }
}

/// Executes the `Finish` unit: gathers the published `NodeFactor` out of
/// the strips (promoting the f32 shadow exactly under a narrow mode, and
/// zeroing the strict upper triangle of the pivot columns exactly as
/// `zero_strict_upper` does for the whole-front path) and emits the
/// task's canonical op trace — the *same* trace `compute_task` records,
/// so estimates and simulated cycles are split-invariant.
fn finish_task(
    plan: &ExecutionPlan,
    h: &BlockMat,
    s: usize,
    split: &TaskSplit,
    numeric: NumericMode,
) -> (NodeFactor, OpTrace) {
    let task = &plan.tasks()[s];
    let m = task.pivot_dim;
    let n = task.rem_dim;
    let t = m + n;

    // Canonical per-task trace, mirroring compute_task op for op.
    let mut trace = OpTrace::new();
    trace.push(Op::Memset { bytes: t * t * 4 });
    let mut asm_blocks = 0usize;
    let mut asm_elems = 0usize;
    for j in task.cols() {
        for (_, blk) in h.col_blocks(j) {
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
    for mg in &task.merges {
        if !mg.blocks.is_empty() {
            trace.push(Op::Memcpy {
                bytes: mg.elems * 4,
            });
            trace.push(Op::ScatterAdd {
                blocks: mg.blocks.len(),
                elems: mg.elems,
            });
        }
    }
    trace.push(Op::Chol { n: m });
    if n > 0 {
        trace.push(Op::Trsm { m: n, n: m });
        trace.push(Op::Syrk { n, k: m });
    }

    // lint: allow(unwrap) — the sub-levels order every writer before Finish
    let guards: Vec<_> = split
        .strips
        .iter()
        .map(|l| l.read().expect("strip lock poisoned"))
        .collect();
    let tile = split.tile;
    // Rows `r0..` of front column `c`, streamed out of the strip that
    // stores the column.
    let col_into = |c: usize, r0: usize, dst: &mut [f64]| {
        let q = c / tile;
        let lo = (c - q * tile) * t + r0;
        let hi = lo + dst.len();
        if numeric == NumericMode::F64 {
            dst.copy_from_slice(&guards[q].data[lo..hi]);
        } else {
            for (d, &v) in dst.iter_mut().zip(&guards[q].data32[lo..hi]) {
                *d = v as f64;
            }
        }
    };
    // The published results genuinely own their storage — the one
    // permitted allocation per task, as in compute_task.
    let mut l = Mat::zeros(t, m); // lint: allow(hot-alloc)
    for c in 0..m {
        col_into(c, c, &mut l.col_mut(c)[c..]);
    }
    let mut update = Mat::zeros(n, n); // lint: allow(hot-alloc)
    for c in 0..n {
        col_into(m + c, m, update.col_mut(c));
    }
    trace.push(Op::Memcpy { bytes: t * m * 4 });
    (
        NodeFactor {
            l,
            update,
            sig: task.sig,
        },
        trace,
    )
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
    fn refactor_after_value_change_matches_fresh() {
        let p = loopy_pattern();
        let sym = SymbolicFactor::analyze(&p, 0);
        let h0 = build_h(&p, 1);
        let (mut num, full) = NumericFactor::factorize_traced(&sym, &h0).unwrap();
        assert_eq!(full.reused, 0);

        // Change the values in block column 2 (and its row partners).
        let mut h1 = h0.clone();
        h1.add_to_block(2, 2, &Mat::from_diag(&vec![1.5; p.block_dims()[2]]));
        let stats = num.refactor(&sym, &h1, &[2]).unwrap();
        assert!(stats.reused > 0, "expected some reuse on a local change");

        let fresh = NumericFactor::factorize(&sym, &h1).unwrap();
        let a = num.to_dense_l(&sym);
        let b = fresh.to_dense_l(&sym);
        for i in 0..sym.total_dim() {
            for j in 0..=i {
                assert!((a[(i, j)] - b[(i, j)]).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn refactor_after_structure_change_matches_fresh() {
        // Start with a chain, then add a loop-closure edge.
        let mut p = BlockPattern::new(vec![2; 6]);
        for i in 0..5 {
            p.add_block_edge(i, i + 1);
        }
        let sym0 = SymbolicFactor::analyze(&p, 0);
        let h0 = build_h(&p, 5);
        let mut num = NumericFactor::factorize(&sym0, &h0).unwrap();

        p.add_block_edge(1, 4);
        let sym1 = SymbolicFactor::analyze(&p, 0);
        // Values consistent with h0 plus the new loop-closure block.
        let h1 = {
            let mut h = h0.clone();
            h.add_to_block(4, 1, &Mat::from_fn(2, 2, |r, c| 0.1 * (r + c) as f64));
            h
        };
        let stats = num.refactor(&sym1, &h1, &[1, 4]).unwrap();
        assert!(!stats.recomputed.is_empty());
        let fresh = NumericFactor::factorize(&sym1, &h1).unwrap();
        let a = num.to_dense_l(&sym1);
        let b = fresh.to_dense_l(&sym1);
        for i in 0..sym1.total_dim() {
            for j in 0..=i {
                assert!((a[(i, j)] - b[(i, j)]).abs() < 1e-9);
            }
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
                supernova_linalg::solve_lower(&l, &mut e);
                supernova_linalg::solve_lower_transpose(&l, &mut e);
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
    }

    #[test]
    fn parallel_execution_is_bit_identical_to_serial() {
        let p = loopy_pattern();
        let sym = SymbolicFactor::analyze(&p, 0);
        let plan = ExecutionPlan::from_symbolic(&sym);
        let h = build_h(&p, 17);
        let all: Vec<usize> = (0..p.num_blocks()).collect();

        let mut serial = NumericFactor::empty(&plan);
        let (stats_s, sched_s) = serial
            .execute_plan(&plan, &h, &all, &ParallelExecutor::serial())
            .unwrap();
        let bytes_s = serial.serialize_bytes();
        assert_eq!(sched_s.workers, 1);

        for threads in [2usize, 4, 8] {
            let mut par = NumericFactor::empty(&plan);
            let (stats_p, sched_p) = par
                .execute_plan(&plan, &h, &all, &ParallelExecutor::new(threads))
                .unwrap();
            assert_eq!(bytes_s, par.serialize_bytes(), "{threads} threads diverged");
            assert_eq!(stats_s.recomputed_nodes(), stats_p.recomputed_nodes());
            assert_eq!(stats_s.flops(), stats_p.flops());
            assert_eq!(sched_p.spans.len(), plan.num_tasks());
            // `execute_plan` derives the certificate itself, so this really
            // is a multi-worker schedule, not an inline fallback.
            assert!(sched_p.workers > 1, "{threads} threads ran inline");
        }
    }

    #[test]
    fn narrow_modes_are_bit_identical_across_thread_counts() {
        let p = loopy_pattern();
        let sym = SymbolicFactor::analyze(&p, 0);
        let plan = ExecutionPlan::from_symbolic(&sym);
        let h = build_h(&p, 17);
        let all: Vec<usize> = (0..p.num_blocks()).collect();
        for mode in [NumericMode::F32, NumericMode::F32F64] {
            let mut serial = NumericFactor::empty(&plan);
            let exec = ParallelExecutor::serial().with_numeric(mode);
            let (_, sched_s) = serial.execute_plan(&plan, &h, &all, &exec).unwrap();
            assert_eq!(sched_s.numeric, mode);
            let bytes_s = serial.serialize_bytes();
            for threads in [2usize, 4, 8] {
                let mut par = NumericFactor::empty(&plan);
                let exec = ParallelExecutor::new(threads).with_numeric(mode);
                let (_, sched_p) = par.execute_plan(&plan, &h, &all, &exec).unwrap();
                assert_eq!(sched_p.numeric, mode);
                assert_eq!(
                    bytes_s,
                    par.serialize_bytes(),
                    "{mode} at {threads} threads diverged from {mode} serial"
                );
            }
            // The narrow engines genuinely round: a same-input f64 factor
            // must differ, or the mode never reached the kernels.
            let mut wide = NumericFactor::empty(&plan);
            wide.execute_plan(&plan, &h, &all, &ParallelExecutor::serial())
                .unwrap();
            assert_ne!(
                bytes_s,
                wide.serialize_bytes(),
                "{mode} produced bitwise-f64 results; mode plumbing is dead"
            );
        }
    }

    #[test]
    fn certified_batched_execution_is_bit_identical_to_serial() {
        let p = loopy_pattern();
        let sym = SymbolicFactor::analyze(&p, 0);
        let plan = ExecutionPlan::from_symbolic(&sym);
        let cert = crate::interference::certify(&plan).expect("loopy plan certifies");
        let h = build_h(&p, 17);
        let all: Vec<usize> = (0..p.num_blocks()).collect();

        let mut serial = NumericFactor::empty(&plan);
        let (stats_s, _) = serial
            .execute_plan(&plan, &h, &all, &ParallelExecutor::serial())
            .unwrap();
        let bytes_s = serial.serialize_bytes();

        for threads in [2usize, 4, 8] {
            let mut par = NumericFactor::empty(&plan);
            let (stats_p, sched_p) = par
                .execute_plan_certified(
                    &plan,
                    &h,
                    &all,
                    &ParallelExecutor::new(threads),
                    Some(&cert),
                )
                .unwrap();
            assert_eq!(
                sched_p.mode,
                crate::DispatchMode::LevelBatched,
                "{threads} threads should batch"
            );
            assert_eq!(
                bytes_s,
                par.serialize_bytes(),
                "{threads}-thread batched dispatch diverged"
            );
            assert_eq!(stats_s.recomputed_nodes(), stats_p.recomputed_nodes());
            assert_eq!(stats_s.flops(), stats_p.flops());
        }

        // Incremental (partial-recompute) batched execution also matches.
        let mut h1 = h.clone();
        h1.add_to_block(3, 3, &Mat::from_diag(&vec![0.75; p.block_dims()[3]]));
        let mut inc_serial = serial;
        inc_serial
            .execute_plan(&plan, &h1, &[3], &ParallelExecutor::serial())
            .unwrap();
        let inc_bytes = inc_serial.serialize_bytes();
        let mut inc_par = NumericFactor::empty(&plan);
        inc_par
            .execute_plan_certified(&plan, &h, &all, &ParallelExecutor::new(4), Some(&cert))
            .unwrap();
        let (_, sched_inc) = inc_par
            .execute_plan_certified(&plan, &h1, &[3], &ParallelExecutor::new(4), Some(&cert))
            .unwrap();
        assert_eq!(inc_bytes, inc_par.serialize_bytes());
        // Partial recompute may collapse to ≤1 task (serial inline) or
        // batch — either way the bytes above already matched.
        assert!(sched_inc.spans.len() >= 1);
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
            .execute_plan(&plan, &h0, &all, &ParallelExecutor::new(4))
            .unwrap();

        let mut h1 = h0.clone();
        h1.add_to_block(2, 2, &Mat::from_diag(&vec![1.5; p.block_dims()[2]]));
        let (stats, _) = via_plan
            .execute_plan(&plan, &h1, &[2], &ParallelExecutor::new(4))
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

    /// Three 64-wide variable blocks: two 128-wide fronts (64 pivot + 64
    /// remainder) feeding a 64-wide root — the smallest pattern on which
    /// the default split pass produces panel/tile sub-units.
    fn big_pattern() -> BlockPattern {
        let mut p = BlockPattern::new(vec![64, 64, 64]);
        p.add_block_edge(0, 2);
        p.add_block_edge(1, 2);
        p
    }

    /// [`build_h`] with a diagonal strong enough for 64-wide blocks (the
    /// default boost is tuned for the tiny loopy patterns).
    fn build_big_h(p: &BlockPattern, seed: u64) -> BlockMat {
        let mut h = build_h(p, seed);
        for j in 0..p.num_blocks() {
            let d = p.block_dims()[j];
            h.add_to_block(j, j, &Mat::from_diag(&vec![d as f64; d]));
        }
        h
    }

    #[test]
    fn split_execution_is_bit_identical_to_unsplit_serial() {
        use crate::SplitConfig;
        let p = big_pattern();
        let sym = SymbolicFactor::analyze(&p, 0);
        let h = build_big_h(&p, 23);
        let all: Vec<usize> = (0..p.num_blocks()).collect();
        let unsplit = ExecutionPlan::from_symbolic_with_split(&sym, SplitConfig::off());
        let split = ExecutionPlan::from_symbolic_with_split(&sym, SplitConfig::on());
        assert!(split.has_units(), "128-wide fronts must split");
        let cert = crate::interference::certify(&split).expect("split plan certifies");
        for mode in [NumericMode::F64, NumericMode::F32, NumericMode::F32F64] {
            let mut oracle = NumericFactor::empty(&unsplit);
            let exec = ParallelExecutor::serial().with_numeric(mode);
            let (ostats, _) = oracle.execute_plan(&unsplit, &h, &all, &exec).unwrap();
            let bytes = oracle.serialize_bytes();
            for threads in [1usize, 2, 4, 8] {
                let mut fac = NumericFactor::empty(&split);
                let exec = ParallelExecutor::new(threads).with_numeric(mode);
                let (stats, sched) = fac
                    .execute_plan_certified(&split, &h, &all, &exec, Some(&cert))
                    .unwrap();
                assert_eq!(
                    bytes,
                    fac.serialize_bytes(),
                    "{mode:?} at {threads} threads diverged from unsplit serial"
                );
                assert_eq!(stats.recomputed_nodes(), ostats.recomputed_nodes());
                assert_eq!(
                    stats.flops(),
                    ostats.flops(),
                    "{mode:?} at {threads} threads: split op traces must match unsplit"
                );
                // The overlay is executed by waves only: one worker runs
                // whole fronts out of its own workspace.
                let built = TASK_SPLITS_BUILT.with(|n| n.replace(0));
                if threads == 1 {
                    assert_eq!(
                        sched.spans.len(),
                        split.num_tasks(),
                        "{mode:?}: span per task"
                    );
                    assert_eq!(
                        sched.split_units, 0,
                        "{mode:?}: inline dispatched sub-units"
                    );
                    assert_eq!(built, 0, "{mode:?}: inline built strip state");
                } else {
                    assert_eq!(
                        sched.spans.len(),
                        split.num_units(),
                        "{mode:?} at {threads} threads: one span per unit"
                    );
                    assert!(
                        sched.split_units > 0 && built > 0,
                        "{mode:?} at {threads} threads: split units must dispatch"
                    );
                }
            }
        }
    }

    #[test]
    fn multiworker_split_plan_without_covering_certificate_builds_no_strip_state() {
        use crate::SplitConfig;
        let p = big_pattern();
        let sym = SymbolicFactor::analyze(&p, 0);
        let h = build_big_h(&p, 23);
        let all: Vec<usize> = (0..p.num_blocks()).collect();
        let unsplit = ExecutionPlan::from_symbolic_with_split(&sym, SplitConfig::off());
        let split = ExecutionPlan::from_symbolic_with_split(&sym, SplitConfig::on());
        assert!(split.has_units());
        // A proof of some other plan is no proof of this one.
        let foreign = crate::interference::certify(&unsplit).expect("unsplit plan certifies");
        assert!(!foreign.covers(&split));
        let mut oracle = NumericFactor::empty(&unsplit);
        oracle
            .execute_plan(&unsplit, &h, &all, &ParallelExecutor::serial())
            .unwrap();
        for cert in [None, Some(&foreign)] {
            TASK_SPLITS_BUILT.with(|n| n.set(0));
            let mut fac = NumericFactor::empty(&split);
            let (_, sched) = fac
                .execute_plan_certified(&split, &h, &all, &ParallelExecutor::new(4), cert)
                .unwrap();
            assert_eq!(TASK_SPLITS_BUILT.with(|n| n.get()), 0);
            assert_eq!(sched.mode, crate::DispatchMode::Serial);
            assert_eq!(
                (sched.spans.len(), sched.split_units),
                (split.num_tasks(), 0)
            );
            assert_eq!(oracle.serialize_bytes(), fac.serialize_bytes());
        }
    }

    #[test]
    fn split_incremental_refactor_matches_unsplit() {
        use crate::SplitConfig;
        let p = big_pattern();
        let sym = SymbolicFactor::analyze(&p, 0);
        let h0 = build_big_h(&p, 5);
        let all: Vec<usize> = (0..p.num_blocks()).collect();
        let unsplit = ExecutionPlan::from_symbolic_with_split(&sym, SplitConfig::off());
        let split = ExecutionPlan::from_symbolic_with_split(&sym, SplitConfig::on());
        let cert = crate::interference::certify(&split).expect("split plan certifies");
        let mut h1 = h0.clone();
        h1.add_to_block(1, 1, &Mat::from_diag(&vec![1.25; 64]));

        let mut oracle = NumericFactor::empty(&unsplit);
        oracle
            .execute_plan(&unsplit, &h0, &all, &ParallelExecutor::serial())
            .unwrap();
        let (ostats, _) = oracle
            .execute_plan(&unsplit, &h1, &[1], &ParallelExecutor::serial())
            .unwrap();
        assert!(ostats.reused > 0, "a local change must reuse node 0");

        for threads in [1usize, 4] {
            let exec = ParallelExecutor::new(threads);
            let mut fac = NumericFactor::empty(&split);
            fac.execute_plan_certified(&split, &h0, &all, &exec, Some(&cert))
                .unwrap();
            let (stats, _) = fac
                .execute_plan_certified(&split, &h1, &[1], &exec, Some(&cert))
                .unwrap();
            assert_eq!(stats.reused, ostats.reused);
            assert_eq!(stats.recomputed_nodes(), ostats.recomputed_nodes());
            assert_eq!(
                oracle.serialize_bytes(),
                fac.serialize_bytes(),
                "incremental split refactor diverged at {threads} threads"
            );
        }
    }

    #[test]
    fn split_threshold_boundary_fronts_stay_identical() {
        use crate::SplitConfig;
        let p = big_pattern();
        let sym = SymbolicFactor::analyze(&p, 0);
        let h = build_big_h(&p, 7);
        let all: Vec<usize> = (0..p.num_blocks()).collect();
        let off = ExecutionPlan::from_symbolic_with_split(&sym, SplitConfig::off());
        let mut oracle = NumericFactor::empty(&off);
        oracle
            .execute_plan(&off, &h, &all, &ParallelExecutor::serial())
            .unwrap();
        let bytes = oracle.serialize_bytes();
        // Exactly at the largest front dimension the fronts still split;
        // one above, the plan must carry no units at all.
        let at = ExecutionPlan::from_symbolic_with_split(&sym, SplitConfig::on().with_min_dim(128));
        assert!(at.has_units(), "threshold == front dim must split");
        let above =
            ExecutionPlan::from_symbolic_with_split(&sym, SplitConfig::on().with_min_dim(129));
        assert!(!above.has_units(), "threshold above front dim must not");
        for plan in [&at, &above] {
            let cert = crate::interference::certify(plan).expect("plan certifies");
            let mut fac = NumericFactor::empty(plan);
            fac.execute_plan_certified(plan, &h, &all, &ParallelExecutor::new(4), Some(&cert))
                .unwrap();
            assert_eq!(bytes, fac.serialize_bytes());
        }
    }

    #[test]
    fn split_error_matches_unsplit_node_and_column() {
        use crate::SplitConfig;
        let p = big_pattern();
        let sym = SymbolicFactor::analyze(&p, 0);
        let mut h = build_big_h(&p, 9);
        // Poison a pivot in node 0's second factorization panel so the
        // failure surfaces mid-split (front column 50 ≥ SPLIT_NB).
        let mut bad = Mat::zeros(64, 64);
        bad[(50, 50)] = -1e9;
        h.add_to_block(0, 0, &bad);
        let all: Vec<usize> = (0..p.num_blocks()).collect();
        let unsplit = ExecutionPlan::from_symbolic_with_split(&sym, SplitConfig::off());
        let split = ExecutionPlan::from_symbolic_with_split(&sym, SplitConfig::on());
        let cert = crate::interference::certify(&split).expect("split plan certifies");
        let mut wfac = NumericFactor::empty(&unsplit);
        let werr = wfac
            .execute_plan(&unsplit, &h, &all, &ParallelExecutor::serial())
            .unwrap_err();
        assert!(werr.front_col() >= 48, "poison must land past panel 0");
        for threads in [1usize, 4] {
            let mut sfac = NumericFactor::empty(&split);
            let serr = sfac
                .execute_plan_certified(
                    &split,
                    &h,
                    &all,
                    &ParallelExecutor::new(threads),
                    Some(&cert),
                )
                .unwrap_err();
            assert_eq!(serr, werr, "split error at {threads} threads");
        }
    }

    #[test]
    fn factorize_error_leaves_factor_reseedable() {
        let mut p = BlockPattern::new(vec![1, 1]);
        p.add_block_edge(0, 1);
        let sym = SymbolicFactor::analyze(&p, 0);
        let plan = ExecutionPlan::from_symbolic(&sym);
        let mut bad = BlockMat::new(vec![1, 1]);
        bad.add_to_block(0, 0, &Mat::from_rows(1, 1, &[1.0]));
        bad.add_to_block(1, 0, &Mat::from_rows(1, 1, &[2.0]));
        bad.add_to_block(1, 1, &Mat::from_rows(1, 1, &[1.0]));
        let all = [0usize, 1];
        let mut num = NumericFactor::empty(&plan);
        assert!(num
            .execute_plan(&plan, &bad, &all, &ParallelExecutor::new(2))
            .is_err());
        // A good system factorizes fine afterwards.
        let good = build_h(&p, 3);
        let (stats, _) = num
            .execute_plan(&plan, &good, &all, &ParallelExecutor::serial())
            .unwrap();
        assert_eq!(stats.recomputed.len(), plan.num_tasks());
    }
}
