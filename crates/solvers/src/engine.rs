//! Shared machinery of the incremental solvers (ISAM2 and RA-ISAM2).

use std::collections::BTreeSet;

use supernova_factors::{
    linearize, linearize_into, Factor, FactorGraph, Key, LinearizedFactor, Values, Variable,
};
use supernova_linalg::ops::{Op, OpTrace};
use supernova_linalg::{
    gemm_path, gemm_scratch, norm_inf, GemmPath, KernelScratch, Mat, Transpose,
};
use supernova_runtime::{node_work_from_plan, StepTrace};
use supernova_sparse::{
    ordering, BlockMat, BlockPattern, ExecutionPlan, HostSchedule, NumericFactor, ParallelExecutor,
    SupernodeInfo, SymbolicFactor,
};

/// A prepared fill-reducing reordering (see
/// [`IncrementalCore::reorder_candidate`]): the new elimination order and
/// its symbolic analysis, so the caller can decide whether the one-time
/// re-factorization fits its budget before committing.
#[derive(Debug)]
pub struct ReorderPlan {
    /// New elimination position per key.
    order_of_key: Vec<usize>,
    /// Pattern in the new order.
    pattern: BlockPattern,
    /// Symbolic analysis of the new order.
    sym: SymbolicFactor,
}

impl ReorderPlan {
    /// The symbolic factorization the system would have after applying the
    /// plan (for cost prediction).
    pub fn symbolic(&self) -> &SymbolicFactor {
        &self.sym
    }
}

/// The incremental smoothing engine: linearization-point management, eager
/// block-Hessian maintenance, incremental symbolic analysis, the cached
/// multifrontal re-factorization, and periodic fill-reducing reordering
/// (the iSAM-style batch-reorder step that keeps incremental fill bounded).
///
/// Both [`Isam2`](crate::Isam2) and [`RaIsam2`](crate::RaIsam2) drive this
/// core; they differ only in *which variables they choose to relinearize*
/// each step (§4.1 of the paper) and in when they allow a reordering.
///
/// All sparse-layer state (pattern, Hessian, Δ, offsets) lives in the
/// *elimination order* space; `order_of_key` maps application keys to it.
/// Fresh variables append at the root side of the order — the natural
/// incremental ordering between reorders.
#[derive(Debug, Default)]
pub struct IncrementalCore {
    graph: FactorGraph,
    /// Linearization points Θ (fluid relinearization, §3.4).
    theta: Values,
    /// Cached linearization per factor, evaluated at each factor's LP.
    lin: Vec<LinearizedFactor>,
    /// Elimination position per key.
    order_of_key: Vec<usize>,
    /// Key at each elimination position.
    key_of_order: Vec<usize>,
    pattern: BlockPattern,
    h: BlockMat,
    sym: Option<SymbolicFactor>,
    /// Execution plan derived from `sym`, cached across steps and brought
    /// up to date only when the pattern's structure (or the elimination
    /// order) actually changes — see [`analyze`](Self::analyze).
    plan: Option<ExecutionPlan>,
    /// Lowest elimination position whose pattern column gained an entry
    /// since `sym` was derived; `None` while `sym` matches the pattern.
    /// Everything `sym` and the plan hold below this column is still valid.
    lowest_changed: Option<usize>,
    /// Test hook: re-derive `sym` and the plan from nothing on every
    /// structural change (see
    /// [`set_analyze_from_scratch`](Self::set_analyze_from_scratch)).
    analyze_from_scratch: bool,
    /// Bumped every time the plan cache is rebuilt (testability hook for
    /// the invalidation rules).
    plan_generation: usize,
    /// Host executor the numeric plans run on.
    executor: ParallelExecutor,
    /// Wall-clock schedule of the latest numeric plan execution.
    last_host_schedule: Option<HostSchedule>,
    num: Option<NumericFactor>,
    /// Current solution of the linearized system (order space).
    delta: Vec<f64>,
    /// Scalar offsets per elimination position.
    offsets: Vec<usize>,
    relax: usize,
    // Per-step accumulators, drained by `factorize_and_solve`.
    dirty: BTreeSet<usize>,
    pending_hessian_ops: OpTrace,
    pending_relin_elems: usize,
    pending_relin_factors: usize,
    pending_symbolic_extra: usize,
    /// Diagonal damping events (non-PD recoveries), for diagnostics.
    damping_events: usize,
    reorders: usize,
    /// Reused by [`relinearize_vars`](Self::relinearize_vars): the factor
    /// indices to relinearize, and the linearization being built (swapped
    /// with the cached one it replaces).
    relin_factors: Vec<usize>,
    relin_scratch: LinearizedFactor,
}

impl IncrementalCore {
    /// Creates an empty core with the given supernode amalgamation slack.
    pub fn new(relax: usize) -> Self {
        IncrementalCore {
            relax,
            ..Self::default()
        }
    }

    /// Overrides the host executor the numeric plans run on. The cached
    /// plan and numeric factor stay: executors differ only in their arena
    /// pools, which never affect results.
    pub fn set_executor(&mut self, exec: ParallelExecutor) {
        self.executor = exec;
    }

    /// The installed host executor (pool-stats access: its persistent
    /// workspace pool witnesses the zero-alloc hot path).
    pub fn executor(&self) -> &ParallelExecutor {
        &self.executor
    }

    /// Test hook: when `on`, every [`analyze`](Self::analyze) that sees a
    /// structural change discards the previous symbolic factorization and
    /// plan and derives both from nothing — the reference the incremental
    /// update is compared against, step by step, on real streams.
    #[doc(hidden)]
    pub fn set_analyze_from_scratch(&mut self, on: bool) {
        self.analyze_from_scratch = on;
    }

    /// Carries nothing: exists only so the frozen `benchmark/` package's
    /// `ExecutionPlan::from_symbolic_with_split(&sym, core.split_config())`
    /// still builds. The next benchmark change deletes it.
    #[doc(hidden)]
    pub fn split_config(&self) {}

    /// The cached execution plan (after the first [`analyze`](Self::analyze)).
    pub fn plan(&self) -> Option<&ExecutionPlan> {
        self.plan.as_ref()
    }

    /// How many times the plan cache has been (re)built. Stays flat across
    /// steps that only change values; bumps exactly when the structure
    /// grows or a reorder is applied.
    pub fn plan_generation(&self) -> usize {
        self.plan_generation
    }

    /// Wall-clock host schedule of the latest numeric plan execution.
    pub fn last_host_schedule(&self) -> Option<&HostSchedule> {
        self.last_host_schedule.as_ref()
    }

    /// The factor graph accumulated so far.
    pub fn graph(&self) -> &FactorGraph {
        &self.graph
    }

    /// The linearization points Θ.
    pub fn theta(&self) -> &Values {
        &self.theta
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.theta.len()
    }

    /// The current symbolic factorization (after the first `analyze`).
    pub fn symbolic(&self) -> Option<&SymbolicFactor> {
        self.sym.as_ref()
    }

    /// Elimination position of a key's block.
    pub fn block_of_key(&self, key: Key) -> usize {
        self.order_of_key[key.0]
    }

    /// How many non-positive-definite recoveries occurred (each adds
    /// diagonal damping and retries).
    pub fn damping_events(&self) -> usize {
        self.damping_events
    }

    /// How many fill-reducing reorders have been applied.
    pub fn reorders(&self) -> usize {
        self.reorders
    }

    /// `false` right after a reorder (or before the first solve): the next
    /// `factorize_and_solve` performs a full factorization rather than an
    /// incremental one.
    pub fn has_numeric_cache(&self) -> bool {
        self.num.is_some()
    }

    /// Canonical byte serialization of the cached numeric factor, for
    /// bit-exactness comparisons (the determinism gate in `scripts/ci.sh`
    /// pins a hash of it). `None` before the first solve.
    pub fn numeric_bytes(&self) -> Option<Vec<u8>> {
        self.num.as_ref().map(NumericFactor::serialize_bytes)
    }

    /// The update step Δ for `key` from the latest solve.
    pub fn delta_of(&self, key: Key) -> &[f64] {
        let off = self.offsets[self.order_of_key[key.0]];
        let dim = self.theta.get(key).dim();
        &self.delta[off..off + dim]
    }

    /// Relevance score of a variable: `‖Δ_j‖∞`, the distance of the optimal
    /// update from its linearization point (§4.1).
    pub fn relevance(&self, key: Key) -> f64 {
        norm_inf(self.delta_of(key))
    }

    /// Current estimate of one variable: `Θ_j ⊕ Δ_j`.
    pub fn pose_estimate(&self, key: Key) -> Variable {
        self.theta.get(key).retract(self.delta_of(key))
    }

    /// Current full estimate `X = Θ ⊕ Δ`.
    pub fn estimate(&self) -> Values {
        let mut out = self.theta.clone();
        for (key, _) in self.theta.iter() {
            out.retract_at(key, self.delta_of(key));
        }
        out
    }

    /// Adds a new variable with its initial guess, growing the Hessian
    /// structure at the root side of the elimination order. Returns the key
    /// (sequential time order).
    pub fn add_variable(&mut self, initial: Variable) -> Key {
        let dim = initial.dim();
        let key = self.theta.insert(initial);
        let pos = self.pattern.push_block(dim);
        self.note_changed_column(pos);
        self.order_of_key.push(pos);
        self.key_of_order.push(key.0);
        debug_assert_eq!(self.order_of_key.len(), pos + 1);
        self.h.push_block(dim);
        self.offsets.push(self.delta.len());
        self.delta.extend(std::iter::repeat(0.0).take(dim));
        key
    }

    /// Adds a factor: linearizes it at Θ, merges its `JᵀJ` contribution into
    /// the block Hessian, and extends the sparsity pattern.
    ///
    /// # Panics
    ///
    /// Panics if the factor references an unknown variable.
    pub fn add_factor(&mut self, factor: impl Into<Factor>) {
        let factor = factor.into();
        for k in factor.keys() {
            assert!(
                k.0 < self.num_vars(),
                "factor references unknown variable {k}"
            );
        }
        let blocks: Vec<usize> = factor
            .keys()
            .iter()
            .map(|k| self.order_of_key[k.0])
            .collect();
        if let Some(col) = self.pattern.add_clique(&blocks) {
            self.note_changed_column(col);
        }
        let lf = linearize(&factor, &self.theta);
        self.pending_relin_elems += lf.jacobian_elems();
        self.pending_relin_factors += 1;
        self.dirty.extend(blocks.iter().copied());
        apply_contribution(
            &mut self.h,
            &lf,
            &self.order_of_key,
            Some(&mut self.pending_hessian_ops),
        );
        let idx = self.graph.add(factor);
        debug_assert_eq!(idx, self.lin.len());
        self.lin.push(lf);
    }

    /// Relinearizes the given variables: advances their LPs by the current
    /// Δ and recomputes every factor that touches them (§3.4). Returns the
    /// number of factors relinearized.
    pub fn relinearize_vars(&mut self, vars: &[Key]) -> usize {
        if vars.is_empty() {
            return 0;
        }
        let mut factors = std::mem::take(&mut self.relin_factors);
        factors.clear();
        for &v in vars {
            let off = self.offsets[self.order_of_key[v.0]];
            let step = &mut self.delta[off..off + self.theta.get(v).dim()];
            self.theta.retract_at(v, step);
            step.fill(0.0);
            factors.extend_from_slice(self.graph.factors_of(v));
        }
        factors.sort_unstable();
        factors.dedup();
        for &fi in &factors {
            let lf = &mut self.relin_scratch;
            linearize_into(self.graph.factor(fi), &self.theta, lf);
            self.pending_relin_elems += lf.jacobian_elems();
            self.pending_relin_factors += 1;
            self.dirty
                .extend(lf.keys.iter().map(|k| self.order_of_key[k.0]));
            replace_contribution(
                &mut self.h,
                &self.lin[fi],
                lf,
                &self.order_of_key,
                &mut self.pending_hessian_ops,
            );
            std::mem::swap(&mut self.lin[fi], lf);
        }
        let relinearized = factors.len();
        self.relin_factors = factors;
        relinearized
    }

    /// Records that pattern column `col` gained an entry since the last
    /// [`analyze`](Self::analyze).
    fn note_changed_column(&mut self, col: usize) {
        self.lowest_changed = Some(self.lowest_changed.map_or(col, |c| c.min(col)));
    }

    /// Brings the symbolic factorization and the execution plan up to date
    /// with the current pattern. Must be called after `add_factor` and
    /// before cost estimation or factorization; free when nothing
    /// structural changed since the last call.
    ///
    /// The cost follows the change, not the graph: the core tracks the
    /// lowest elimination position whose pattern column gained an entry
    /// (`add_variable` → the new block, `add_factor` → the lowest column a
    /// new edge landed in), and the previous symbolic factorization and
    /// plan are consumed and updated in place — column patterns, etree
    /// parents, every supernode closed before that column and their plan
    /// tasks (front offsets, extend-add scatter programs) are kept; only
    /// the suffix is re-derived
    /// ([`SymbolicFactor::reanalyze`], [`ExecutionPlan::update`]). The
    /// result is structurally equal to a from-scratch
    /// [`SymbolicFactor::analyze`] + [`ExecutionPlan::from_symbolic`]
    /// (debug builds assert it).
    /// [`apply_reorder`](Self::apply_reorder) installs a fresh pair, since
    /// a permutation leaves no column in place.
    pub fn analyze(&mut self) -> &SymbolicFactor {
        let changed = self.lowest_changed.take();
        let stale = changed.is_some() || self.sym.is_none();
        let first_changed = changed.unwrap_or(0);
        if stale {
            if self.analyze_from_scratch {
                self.sym = None;
                self.plan = None;
            }
            let sym = self.sym.take().unwrap_or_default().reanalyze(
                &self.pattern,
                self.relax,
                first_changed,
            );
            debug_assert_eq!(sym, SymbolicFactor::analyze(&self.pattern, self.relax));
            self.sym = Some(sym);
        }
        // lint: allow(unwrap) — assigned above or on a previous call
        let sym = self.sym.as_ref().expect("just set");
        if stale {
            let plan = match self.plan.take() {
                Some(plan) => plan.update(sym, first_changed),
                None => ExecutionPlan::from_symbolic(sym),
            };
            debug_assert_eq!(plan, ExecutionPlan::from_symbolic(sym));
            self.plan = Some(plan);
            self.plan_generation += 1;
        }
        sym
    }

    /// Ratio of factor (with fill) block entries to Hessian block entries —
    /// the trigger for periodic fill-reducing reordering. Meaningful after
    /// [`analyze`](Self::analyze).
    pub fn fill_ratio(&self) -> f64 {
        match &self.sym {
            None => 1.0,
            Some(sym) => {
                let l: usize = (0..sym.num_blocks())
                    .map(|j| sym.col_pattern(j).len())
                    .sum();
                l as f64 / self.pattern.nnz_blocks().max(1) as f64
            }
        }
    }

    /// Prepares a fill-reducing (minimum-degree) reordering without applying
    /// it, so the caller can price the resulting full re-factorization
    /// first. Returns `None` when the problem is empty.
    pub fn reorder_candidate(&self) -> Option<ReorderPlan> {
        if self.num_vars() == 0 {
            return None;
        }
        // Pattern in key space, then the new elimination order on it.
        let inv = ordering::Permutation::from_new_of_old(self.key_of_order.clone());
        let key_pattern = self.pattern.permuted(&inv);
        let perm = ordering::min_degree(&key_pattern);
        let pattern = key_pattern.permuted(&perm);
        let sym = SymbolicFactor::analyze(&pattern, self.relax);
        let order_of_key = (0..self.num_vars()).map(|k| perm.new_of_old(k)).collect();
        Some(ReorderPlan {
            order_of_key,
            pattern,
            sym,
        })
    }

    /// Applies a prepared reordering: remaps Δ, rebuilds the block Hessian
    /// from the cached factor linearizations, and drops the numeric cache
    /// (the next solve performs one full — but low-fill — factorization).
    /// The analysis cost is metered as symbolic work.
    pub fn apply_reorder(&mut self, plan: ReorderPlan) {
        let old_delta: Vec<Vec<f64>> = (0..self.num_vars())
            .map(|k| self.delta_of(Key(k)).to_vec())
            .collect();
        self.order_of_key = plan.order_of_key;
        self.key_of_order = {
            let mut v = vec![0usize; self.num_vars()];
            for (k, &o) in self.order_of_key.iter().enumerate() {
                v[o] = k;
            }
            v
        };
        self.pattern = plan.pattern;
        // Scalar offsets in the new order.
        self.offsets = vec![0; self.num_vars()];
        let mut acc = 0usize;
        for o in 0..self.num_vars() {
            self.offsets[o] = acc;
            acc += self.pattern.block_dims()[o];
        }
        let mut delta = vec![0.0; acc];
        for (k, d) in old_delta.iter().enumerate() {
            let off = self.offsets[self.order_of_key[k]];
            delta[off..off + d.len()].copy_from_slice(d);
        }
        self.delta = delta;
        // Rebuild H from the cached linearizations.
        self.h = BlockMat::new(self.pattern.block_dims().to_vec());
        for lf in &self.lin {
            apply_contribution(&mut self.h, lf, &self.order_of_key, None);
        }
        // Meter: one min-degree pass plus a fresh symbolic analysis.
        self.pending_symbolic_extra += 4 * self.pattern.nnz_blocks()
            + 2 * plan
                .sym
                .pattern_size_of_nodes(&(0..plan.sym.nodes().len()).collect::<Vec<_>>());
        // A permutation leaves no column in place, so nothing of the old
        // symbolic factorization or plan is reusable: install the pair the
        // candidate was priced with.
        self.plan = Some(ExecutionPlan::from_symbolic(&plan.sym));
        self.plan_generation += 1;
        self.sym = Some(plan.sym);
        self.lowest_changed = None;
        self.num = None;
        self.dirty.clear();
        self.reorders += 1;
    }

    /// Bytes of assembled Hessian data feeding one supernode (the `H` term
    /// of Algorithm 2's workspace accounting).
    pub(crate) fn node_factor_bytes(&self, info: &SupernodeInfo) -> usize {
        let mut elems = 0usize;
        for j in info.cols() {
            for (i, blk) in self.h.col_blocks(j) {
                debug_assert!(i >= j);
                elems += blk.rows() * blk.cols();
            }
        }
        elems * 4
    }

    /// Block columns (elimination positions) whose Hessian contributions
    /// changed since the last solve.
    pub fn dirty_blocks(&self) -> Vec<usize> {
        self.dirty_block_iter().collect()
    }

    /// [`dirty_blocks`](Self::dirty_blocks) in ascending order, without
    /// collecting them.
    pub(crate) fn dirty_block_iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.dirty.iter().copied()
    }

    /// Jacobian elements of the cached linearization of factor `idx` (the
    /// relinearization cost unit for that factor).
    pub fn factor_jacobian_elems(&self, idx: usize) -> usize {
        self.lin[idx].jacobian_elems()
    }

    /// Relinearization work already incurred this step (new/changed
    /// factors): `(jacobian_elems, factors)`. RA-ISAM2 charges this against
    /// its budget before selecting more.
    pub fn pending_relin(&self) -> (usize, usize) {
        (self.pending_relin_elems, self.pending_relin_factors)
    }

    /// Factorizes the dirty part of the system, solves for Δ, and returns
    /// the step's work trace. Call [`analyze`](Self::analyze) first.
    ///
    /// # Panics
    ///
    /// Panics if `analyze` has not been called for the current structure.
    pub fn factorize_and_solve(&mut self) -> StepTrace {
        // lint: allow(unwrap) — documented panic: analyze() must precede this call
        let sym = self
            .sym
            .as_ref()
            .expect("analyze() before factorize_and_solve()"); // lint: allow(unwrap)

        // analyze() populates the plan alongside sym
        let plan = self
            .plan
            .as_ref()
            .expect("analyze() before factorize_and_solve()"); // lint: allow(unwrap)
        let dirty: Vec<usize> = self.dirty.iter().copied().collect();

        // Incremental plan execution with non-PD damping recovery.
        let mut attempts = 0usize;
        let stats = loop {
            let result = match self.num.as_mut() {
                Some(num) => num.execute_plan(plan, &self.h, &dirty, &self.executor),
                None => {
                    let all: Vec<usize> = (0..plan.num_blocks()).collect();
                    let mut num = NumericFactor::empty(plan);
                    num.execute_plan(plan, &self.h, &all, &self.executor)
                        .map(|out| {
                            self.num = Some(num);
                            out
                        })
                }
            };
            match result {
                Ok((stats, sched)) => {
                    self.last_host_schedule = Some(sched);
                    break stats;
                }
                Err(err) => {
                    attempts += 1;
                    self.damping_events += 1;
                    assert!(
                        attempts <= 8,
                        "factorization kept failing after damping: {err}"
                    );
                    // Dampen every diagonal block and retry from scratch.
                    let lambda = 1e-6 * 10f64.powi(attempts as i32);
                    for b in 0..self.pattern.num_blocks() {
                        let dim = self.pattern.block_dims()[b];
                        let mut eye = Mat::identity(dim);
                        eye.scale(lambda);
                        self.h.add_to_block(b, b, &eye);
                    }
                    self.num = None;
                }
            }
        };

        // Gradient g = −Σ Jᵀ r at the current LPs, then solve H Δ = g.
        let mut g = vec![0.0; self.delta.len()];
        gradient_into(&mut g, &self.lin, &self.order_of_key, &self.offsets);
        // lint: allow(unwrap) — documented panic: factorize before solve
        let num = self.num.as_ref().expect("factorized");
        let solve_ops = num.solve_in_place(sym, &mut g);
        self.delta = g;

        // Assemble the runtime trace from the plan — one source of truth
        // for the host executor and the simulator.
        let mut factor_bytes = vec![0usize; sym.nodes().len()];
        for nt in &stats.recomputed {
            factor_bytes[nt.node] = self.node_factor_bytes(&sym.nodes()[nt.node]);
        }
        let nodes = node_work_from_plan(plan, &stats, &factor_bytes);
        let mut recomputed_list: Vec<usize> = stats.recomputed_nodes();
        recomputed_list.sort_unstable();
        let symbolic_pattern_elems = sym.pattern_size_of_nodes(&recomputed_list)
            + std::mem::take(&mut self.pending_symbolic_extra);

        self.dirty.clear();
        StepTrace {
            nodes,
            hessian_ops: std::mem::take(&mut self.pending_hessian_ops),
            solve_ops,
            relin_jacobian_elems: std::mem::take(&mut self.pending_relin_elems),
            relin_factors: std::mem::take(&mut self.pending_relin_factors),
            symbolic_pattern_elems,
            selection_nodes_visited: 0,
        }
    }

    /// Total weighted squared error of the graph at the current estimate.
    pub fn current_error2(&self) -> f64 {
        self.graph.total_error2(&self.estimate())
    }
}

/// Subtracts `Jᵀ r` of every factor of `lin` from `g` (zeroed by the
/// caller, so `g = −Σ Jᵀ r`), factors in `lin` order and each factor's keys
/// in order. Each entry is one Jacobian column's dot product with the
/// residual, summed from `0.0` over ascending rows (the order
/// `Mat::matvec_transpose` uses), written straight into `g`.
fn gradient_into(
    g: &mut [f64],
    lin: &[LinearizedFactor],
    order_of_key: &[usize],
    offsets: &[usize],
) {
    for lf in lin {
        for (k, j) in lf.keys.iter().zip(&lf.jacobians) {
            debug_assert_eq!(j.rows(), lf.residual.len());
            let off = offsets[order_of_key[k.0]];
            for (c, gc) in g[off..off + j.cols()].iter_mut().enumerate() {
                let mut acc = 0.0;
                for (&v, &r) in j.col(c).iter().zip(&lf.residual) {
                    acc += v * r;
                }
                *gc -= acc;
            }
        }
    }
}

/// The key pairs `(a, b)`, `b ≤ a`, of a factor with `n` keys, in the order
/// the Hessian update visits them.
fn key_pairs(n: usize) -> impl Iterator<Item = (usize, usize)> {
    (0..n).flat_map(|a| (0..=a).map(move |b| (a, b)))
}

/// Where key pair `(a, b)` of a factor lands in the block Hessian: the
/// block `(row, col)`, `row ≥ col` (the later elimination position is the
/// row), and the key indices whose Jacobians are the row and column
/// operands of its `J_rowᵀ J_col`.
fn pair_block(keys: &[Key], order_of_key: &[usize], a: usize, b: usize) -> [usize; 4] {
    let (oa, ob) = (order_of_key[keys[a].0], order_of_key[keys[b].0]);
    if oa >= ob {
        [oa, ob, a, b]
    } else {
        [ob, oa, b, a]
    }
}

/// Meters one factor's Hessian construction: the factor prefetch, then one
/// GEMM + scatter per block pair (Figure 5 top).
fn meter_contribution(ops: &mut OpTrace, lf: &LinearizedFactor, order_of_key: &[usize]) {
    ops.push(Op::Memcpy {
        bytes: lf.jacobian_elems() * 4,
    });
    for (a, b) in key_pairs(lf.keys.len()) {
        let [_, _, r, c] = pair_block(&lf.keys, order_of_key, a, b);
        let (m, n) = (lf.jacobians[r].cols(), lf.jacobians[c].cols());
        ops.push(Op::Gemm { m, n, k: lf.dim() });
        ops.push(Op::ScatterAdd {
            blocks: 1,
            elems: m * n,
        });
    }
}

/// Adds `J_aᵀ J_b` of every key pair of one linearized factor into the
/// block Hessian (blocks addressed through the elimination order),
/// optionally metering the Hessian-construction ops.
fn apply_contribution(
    h: &mut BlockMat,
    lf: &LinearizedFactor,
    order_of_key: &[usize],
    ops: Option<&mut OpTrace>,
) {
    if let Some(ops) = ops {
        meter_contribution(ops, lf, order_of_key);
    }
    add_grams(
        h,
        lf,
        order_of_key,
        1.0,
        &mut Mat::default(),
        &mut KernelScratch::new(),
    );
}

/// Replaces one factor's contribution to the block Hessian: subtracts
/// `old`'s `J_aᵀ J_b` over every key pair, then adds `new`'s, metering
/// `new` as [`apply_contribution`] does.
fn replace_contribution(
    h: &mut BlockMat,
    old: &LinearizedFactor,
    new: &LinearizedFactor,
    order_of_key: &[usize],
    ops: &mut OpTrace,
) {
    debug_assert_eq!(old.keys, new.keys, "replacing a different factor");
    meter_contribution(ops, new, order_of_key);
    let mut blk = Mat::default();
    let mut scratch = KernelScratch::new();
    for (lf, alpha) in [(old, -1.0), (new, 1.0)] {
        add_grams(h, lf, order_of_key, alpha, &mut blk, &mut scratch);
    }
}

/// Adds `alpha · J_aᵀ J_b` of every key pair of `lf` into its block.
fn add_grams(
    h: &mut BlockMat,
    lf: &LinearizedFactor,
    order_of_key: &[usize],
    alpha: f64,
    blk: &mut Mat,
    scratch: &mut KernelScratch,
) {
    for (a, b) in key_pairs(lf.keys.len()) {
        let [brow, bcol, r, c] = pair_block(&lf.keys, order_of_key, a, b);
        let (jr, jc) = (&lf.jacobians[r], &lf.jacobians[c]);
        add_gram(h.block_entry(brow, bcol), jr, jc, alpha, blk, scratch);
    }
}

/// `h += alpha · jrowᵀ · jcol`, leaving exactly the bits of
/// `gemm_scratch(alpha, jrow, Yes, jcol, No, 0.0, blk)` followed by
/// `h.add_block(0, 0, blk)`. Shapes `gemm` runs on its `DirectK3` /
/// `DirectK6` path go straight into `h` with `beta = 1`: that path adds a
/// dot started from `+0.0`, which is never `-0.0`, so `h + dot` has the
/// bits of `h + (0.0 + dot)`. Any other shape goes through `blk`.
fn add_gram(
    h: &mut Mat,
    jrow: &Mat,
    jcol: &Mat,
    alpha: f64,
    blk: &mut Mat,
    scratch: &mut KernelScratch,
) {
    let (m, n, k) = (jrow.cols(), jcol.cols(), jrow.rows());
    let (yes, no) = (Transpose::Yes, Transpose::No);
    if matches!(gemm_path(m, n, k), GemmPath::DirectK3 | GemmPath::DirectK6) {
        gemm_scratch(alpha, jrow, yes, jcol, no, 1.0, h, scratch);
    } else {
        blk.reset(m, n);
        gemm_scratch(alpha, jrow, yes, jcol, no, 0.0, blk, scratch);
        h.add_block(0, 0, blk);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use supernova_factors::{BetweenFactor, NoiseModel, PriorFactor, Se2};
    use supernova_linalg::rng::XorShift64;
    use supernova_sparse::interference;

    /// The signed Hessian update the replacement is checked against:
    /// `sign · J_aᵀ J_b` per key pair through `gemm_scratch` into a zeroed
    /// block, then `add_to_block`.
    fn oracle_apply(
        h: &mut BlockMat,
        lf: &LinearizedFactor,
        order_of_key: &[usize],
        sign: f64,
        mut ops: Option<&mut OpTrace>,
    ) {
        if let Some(ops) = ops.as_deref_mut() {
            ops.push(Op::Memcpy {
                bytes: lf.jacobian_elems() * 4,
            });
        }
        let fdim = lf.dim();
        for (ai, (ka, ja)) in lf.keys.iter().zip(&lf.jacobians).enumerate() {
            for (kb, jb) in lf.keys.iter().zip(&lf.jacobians).take(ai + 1) {
                let (oa, ob) = (order_of_key[ka.0], order_of_key[kb.0]);
                let (brow, bcol, jrow, jcol) = if oa >= ob {
                    (oa, ob, ja, jb)
                } else {
                    (ob, oa, jb, ja)
                };
                let mut blk = Mat::zeros(jrow.cols(), jcol.cols());
                let mut scratch = KernelScratch::new();
                gemm_scratch(
                    sign,
                    jrow,
                    Transpose::Yes,
                    jcol,
                    Transpose::No,
                    0.0,
                    &mut blk,
                    &mut scratch,
                );
                h.add_to_block(brow, bcol, &blk);
                if let Some(ops) = ops.as_deref_mut() {
                    ops.push(Op::Gemm {
                        m: jrow.cols(),
                        n: jcol.cols(),
                        k: fdim,
                    });
                    ops.push(Op::ScatterAdd {
                        blocks: 1,
                        elems: jrow.cols() * jcol.cols(),
                    });
                }
            }
        }
    }

    /// An entry that is often an exact `0.0` or `-0.0`.
    fn entry(rng: &mut XorShift64) -> f64 {
        match rng.gen_index(5) {
            0 => 0.0,
            1 => -0.0,
            _ => rng.gen_range(-3.0, 3.0),
        }
    }

    /// A random linearized factor over 1–3 distinct keys (dims `dims`), with
    /// residual dimension 2, 3 or 6 — the direct `k = 3` / `k = 6` GEMM
    /// paths and a fallback shape.
    fn random_lf(rng: &mut XorShift64, dims: &[usize]) -> LinearizedFactor {
        let fdim = [2, 3, 6][rng.gen_index(3)];
        let arity = 1 + rng.gen_index(3);
        let mut keys: Vec<Key> = Vec::new();
        while keys.len() < arity {
            let k = Key(rng.gen_index(dims.len()));
            if !keys.contains(&k) {
                keys.push(k);
            }
        }
        let jacobians = keys
            .iter()
            .map(|k| Mat::from_fn(fdim, dims[k.0], |_, _| entry(rng)))
            .collect();
        LinearizedFactor {
            keys,
            jacobians,
            residual: vec![0.0; fdim],
        }
    }

    fn block_bits(h: &BlockMat) -> Vec<(usize, usize, Vec<u64>)> {
        (0..h.num_blocks())
            .flat_map(|c| {
                h.col_blocks(c)
                    .map(move |(r, m)| (r, c, m.as_slice().iter().map(|x| x.to_bits()).collect()))
            })
            .collect()
    }

    #[test]
    fn replace_contribution_matches_subtract_then_add_bit_for_bit() {
        let mut rng = XorShift64::seed_from_u64(0x4e55_1a75);
        let mut shared_diagonals = 0usize;
        for case in 0..400 {
            let dims: Vec<usize> = (0..5).map(|_| [2, 3, 6][rng.gen_index(3)]).collect();
            // A random elimination order, so pairs land in both orientations.
            let mut order_of_key: Vec<usize> = (0..dims.len()).collect();
            for i in (1..order_of_key.len()).rev() {
                order_of_key.swap(i, rng.gen_index(i + 1));
            }
            let mut block_dims = vec![0; dims.len()];
            for (k, &o) in order_of_key.iter().enumerate() {
                block_dims[o] = dims[k];
            }
            let lins: Vec<LinearizedFactor> = (0..4).map(|_| random_lf(&mut rng, &dims)).collect();
            let (mut want, mut got) = (
                BlockMat::new(block_dims.clone()),
                BlockMat::new(block_dims.clone()),
            );
            for lf in &lins {
                oracle_apply(&mut want, lf, &order_of_key, 1.0, None);
                apply_contribution(&mut got, lf, &order_of_key, None);
            }
            assert_eq!(block_bits(&got), block_bits(&want), "case {case}: apply");

            // Relinearize factor 0: same keys, new Jacobians.
            let old = &lins[0];
            let mut new = random_lf(&mut rng, &dims);
            new.keys.clone_from(&old.keys);
            new.jacobians = old
                .keys
                .iter()
                .zip(&old.jacobians)
                .map(|(k, j)| Mat::from_fn(j.rows(), dims[k.0], |_, _| entry(&mut rng)))
                .collect();
            new.residual = vec![0.0; old.dim()];
            if old
                .keys
                .iter()
                .any(|k| lins[1..].iter().any(|lf| lf.keys.contains(k)))
            {
                shared_diagonals += 1;
            }
            let (mut want_ops, mut got_ops) = (OpTrace::new(), OpTrace::new());
            oracle_apply(&mut want, old, &order_of_key, -1.0, None);
            oracle_apply(&mut want, &new, &order_of_key, 1.0, Some(&mut want_ops));
            replace_contribution(&mut got, old, &new, &order_of_key, &mut got_ops);
            assert_eq!(block_bits(&got), block_bits(&want), "case {case}: replace");
            assert_eq!(got_ops, want_ops, "case {case}: metering");
        }
        assert!(shared_diagonals > 100, "{shared_diagonals}");
    }

    fn prior(k: usize, pose: Se2) -> Factor {
        PriorFactor::se2(Key(k), pose, NoiseModel::isotropic(3, 0.1)).into()
    }

    fn between(a: usize, b: usize, z: Se2) -> Factor {
        BetweenFactor::se2(Key(a), Key(b), z, NoiseModel::isotropic(3, 0.05)).into()
    }

    /// Builds a 4-pose chain with slightly wrong initial guesses.
    fn chain_core() -> IncrementalCore {
        let mut core = IncrementalCore::new(0);
        core.add_variable(Variable::Se2(Se2::identity()));
        core.add_factor(prior(0, Se2::identity()));
        for i in 1..4 {
            core.add_variable(Variable::Se2(Se2::new(i as f64 + 0.1, 0.05, 0.01)));
            core.add_factor(between(i - 1, i, Se2::new(1.0, 0.0, 0.0)));
        }
        core
    }

    #[test]
    fn solve_pulls_estimate_to_measurements() {
        let mut core = chain_core();
        core.analyze();
        let trace = core.factorize_and_solve();
        assert!(!trace.nodes.is_empty());
        assert!(trace.relin_factors == 4);
        let est = core.estimate();
        for i in 0..4 {
            let p = est.get(Key(i)).as_se2().copied().unwrap();
            assert!((p.x() - i as f64).abs() < 2e-2, "pose {i} at {}", p.x());
            assert!(p.y().abs() < 2e-2);
        }
    }

    #[test]
    fn second_step_reuses_unaffected_nodes() {
        let mut core = chain_core();
        core.analyze();
        let t1 = core.factorize_and_solve();
        // Add one more pose at the end — only root-side nodes recompute.
        core.add_variable(Variable::Se2(Se2::new(4.2, 0.0, 0.0)));
        core.add_factor(between(3, 4, Se2::new(1.0, 0.0, 0.0)));
        core.analyze();
        let t2 = core.factorize_and_solve();
        assert!(
            t2.nodes.len() <= t1.nodes.len(),
            "incremental step touched {} nodes vs {} initially",
            t2.nodes.len(),
            t1.nodes.len()
        );
    }

    #[test]
    fn relinearization_moves_lp_and_zeroes_delta() {
        let mut core = chain_core();
        core.analyze();
        core.factorize_and_solve();
        let k = Key(3);
        let before = core.relevance(k);
        if before > 0.0 {
            core.relinearize_vars(&[k]);
            assert_eq!(norm_inf(core.delta_of(k)), 0.0);
            // After re-solving, the step for k should be (near) zero.
            core.analyze();
            core.factorize_and_solve();
            assert!(core.relevance(k) < before + 1e-12);
        }
    }

    #[test]
    fn estimate_matches_batch_on_linear_problem() {
        // With exact initial guesses the solution stays put.
        let mut core = IncrementalCore::new(0);
        core.add_variable(Variable::Se2(Se2::identity()));
        core.add_factor(prior(0, Se2::identity()));
        core.add_variable(Variable::Se2(Se2::new(1.0, 0.0, 0.0)));
        core.add_factor(between(0, 1, Se2::new(1.0, 0.0, 0.0)));
        core.analyze();
        core.factorize_and_solve();
        assert!(core.current_error2() < 1e-16);
        assert!(core.relevance(Key(1)) < 1e-12);
    }

    #[test]
    fn loop_closure_dirties_path_to_root() {
        let mut core = IncrementalCore::new(0);
        core.add_variable(Variable::Se2(Se2::identity()));
        core.add_factor(prior(0, Se2::identity()));
        for i in 1..10 {
            core.add_variable(Variable::Se2(Se2::new(i as f64, 0.0, 0.0)));
            core.add_factor(between(i - 1, i, Se2::new(1.0, 0.0, 0.0)));
            core.analyze();
            core.factorize_and_solve();
        }
        // A loop closure from 1 to 9 must recompute a long path.
        core.add_factor(between(1, 9, Se2::new(8.0, 0.0, 0.0)));
        core.analyze();
        let t = core.factorize_and_solve();
        assert!(
            t.nodes.len() >= 4,
            "loop closure should touch many nodes, got {}",
            t.nodes.len()
        );
    }

    #[test]
    fn trace_reports_hessian_and_solve_ops() {
        let mut core = chain_core();
        core.analyze();
        let t = core.factorize_and_solve();
        assert!(!t.hessian_ops.is_empty());
        assert!(!t.solve_ops.is_empty());
        assert!(t.relin_jacobian_elems > 0);
        assert!(t.symbolic_pattern_elems > 0);
    }

    /// A core driven through a loopy stream producing real fill under the
    /// natural order, solving after every pose.
    fn loopy_core(n: usize) -> IncrementalCore {
        let mut core = IncrementalCore::new(0);
        core.add_variable(Variable::Se2(Se2::identity()));
        core.add_factor(prior(0, Se2::identity()));
        for i in 1..n {
            core.add_variable(Variable::Se2(Se2::new(i as f64 + 0.05, 0.02, 0.0)));
            core.add_factor(between(i - 1, i, Se2::new(1.0, 0.0, 0.0)));
            if i >= 6 && i % 2 == 0 {
                core.add_factor(between(i - 6, i, Se2::new(6.0, 0.0, 0.0)));
            }
            core.analyze();
            core.factorize_and_solve();
        }
        core
    }

    #[test]
    fn reorder_preserves_solution_and_reduces_fill() {
        let mut core = loopy_core(24);
        let est_before = core.estimate();
        let fill_before = core.fill_ratio();
        let plan = core.reorder_candidate().expect("nonempty");
        core.apply_reorder(plan);
        core.analyze();
        let fill_after = core.fill_ratio();
        assert!(
            fill_after <= fill_before + 1e-9,
            "{fill_after} > {fill_before}"
        );
        assert_eq!(core.reorders(), 1);

        // Solving in the new order gives the same estimates.
        core.factorize_and_solve();
        let est_after = core.estimate();
        for (k, v) in est_before.iter() {
            let d = v.translation_distance(est_after.get(k));
            assert!(d < 1e-8, "estimate moved at {k}: {d}");
        }
    }

    #[test]
    fn plan_cache_invalidated_exactly_on_structure_change() {
        let mut core = chain_core();
        core.analyze();
        let gen = core.plan_generation();
        assert_eq!(gen, 1, "first analyze builds the plan");
        core.factorize_and_solve();
        assert!(core.last_host_schedule().is_some());

        // Value-only work (relinearization) leaves the plan cache alone.
        core.relinearize_vars(&[Key(2)]);
        core.analyze();
        assert_eq!(core.plan_generation(), gen);
        core.factorize_and_solve();
        assert_eq!(core.plan_generation(), gen);

        // Structural growth rebuilds it exactly once.
        core.add_variable(Variable::Se2(Se2::new(4.1, 0.0, 0.0)));
        core.add_factor(between(3, 4, Se2::new(1.0, 0.0, 0.0)));
        core.analyze();
        assert_eq!(core.plan_generation(), gen + 1);
        // Repeated analyze over unchanged structure: still cached.
        core.analyze();
        assert_eq!(core.plan_generation(), gen + 1);
        let plan = core.plan().expect("plan cached");
        assert_eq!(
            plan.num_tasks(),
            core.symbolic().expect("sym").nodes().len()
        );
    }

    #[test]
    fn incremental_analysis_matches_a_core_that_always_starts_over() {
        let drive = |from_scratch: bool| {
            let mut core = IncrementalCore::new(1);
            core.set_analyze_from_scratch(from_scratch);
            let mut prints = Vec::new();
            core.add_variable(Variable::Se2(Se2::identity()));
            core.add_factor(prior(0, Se2::identity()));
            for i in 1..30 {
                core.add_variable(Variable::Se2(Se2::new(i as f64 + 0.05, 0.02, 0.0)));
                core.add_factor(between(i - 1, i, Se2::new(1.0, 0.0, 0.0)));
                if i >= 6 && i % 3 == 0 {
                    core.add_factor(between(i - 6, i, Se2::new(6.0, 0.0, 0.0)));
                }
                if i == 20 {
                    let reorder = core.reorder_candidate().expect("nonempty");
                    core.apply_reorder(reorder);
                }
                core.analyze();
                prints.push(interference::plan_fingerprint(
                    core.plan().expect("analyzed"),
                ));
                core.factorize_and_solve();
            }
            (core, prints)
        };
        let (inc, inc_prints) = drive(false);
        let (full, full_prints) = drive(true);
        assert_eq!(inc_prints, full_prints);
        assert_eq!(inc.symbolic(), full.symbolic());
        assert_eq!(inc.plan(), full.plan());
        assert_eq!(inc.plan_generation(), full.plan_generation());
        assert_eq!(inc.numeric_bytes(), full.numeric_bytes());
        assert_eq!(inc.estimate(), full.estimate());
    }

    #[test]
    fn rejected_reorder_candidate_changes_nothing() {
        let mut core = loopy_core(20);
        let gen = core.plan_generation();
        let est_before = core.estimate();
        // Price a reorder, then reject it by dropping the plan.
        let candidate = core.reorder_candidate().expect("nonempty");
        assert!(candidate.symbolic().nodes().len() > 0);
        drop(candidate);
        assert_eq!(
            core.plan_generation(),
            gen,
            "rejecting must not touch the cache"
        );
        assert_eq!(core.reorders(), 0);
        assert!(
            core.has_numeric_cache(),
            "rejecting must keep the numeric cache"
        );
        core.analyze();
        core.factorize_and_solve();
        let est_after = core.estimate();
        for (k, v) in est_before.iter() {
            let d = v.translation_distance(est_after.get(k));
            assert!(
                d < 1e-9,
                "estimate moved at {k} after rejected reorder: {d}"
            );
        }
    }

    #[test]
    fn applied_reorder_invalidates_plan_and_matches_never_reorder_baseline() {
        let mut baseline = loopy_core(22);
        let mut reordered = loopy_core(22);

        let gen = reordered.plan_generation();
        let plan = reordered.reorder_candidate().expect("nonempty");
        reordered.apply_reorder(plan);
        assert_eq!(
            reordered.plan_generation(),
            gen + 1,
            "apply must rebuild the plan"
        );
        assert!(
            !reordered.has_numeric_cache(),
            "apply must drop the numeric cache"
        );
        reordered.analyze();
        assert_eq!(
            reordered.plan_generation(),
            gen + 1,
            "analyze after apply must reuse the rebuilt plan"
        );
        reordered.factorize_and_solve();

        // Keep growing both cores identically; solutions must agree.
        for core in [&mut baseline, &mut reordered] {
            for i in 22..27 {
                core.add_variable(Variable::Se2(Se2::new(i as f64 + 0.05, 0.02, 0.0)));
                core.add_factor(between(i - 1, i, Se2::new(1.0, 0.0, 0.0)));
                core.analyze();
                core.factorize_and_solve();
            }
        }
        let est_a = baseline.estimate();
        let est_b = reordered.estimate();
        for (k, v) in est_a.iter() {
            let d = v.translation_distance(est_b.get(k));
            assert!(d < 1e-6, "reordered solution diverged at {k}: {d}");
        }
    }

    #[test]
    fn incremental_updates_keep_working_after_reorder() {
        let mut core = loopy_core(20);
        let plan = core.reorder_candidate().expect("nonempty");
        core.apply_reorder(plan);
        core.analyze();
        core.factorize_and_solve();
        // Grow the problem further and check consistency with its own graph.
        for i in 20..26 {
            core.add_variable(Variable::Se2(Se2::new(i as f64, 0.0, 0.0)));
            core.add_factor(between(i - 1, i, Se2::new(1.0, 0.0, 0.0)));
            core.analyze();
            core.factorize_and_solve();
        }
        assert!(
            core.current_error2() < 1.0,
            "error {}",
            core.current_error2()
        );
    }
}
