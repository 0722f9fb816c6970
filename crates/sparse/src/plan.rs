//! The reusable execution-plan IR: the numeric factorization's *plan* half.
//!
//! [`ExecutionPlan::from_symbolic`] lowers a [`SymbolicFactor`] into a flat
//! task list with everything the numeric *execute* half needs precomputed:
//! topological levels, per-task dependency structure, front-local scatter
//! offsets for Hessian assembly, per-child extend-add scatter runs, and
//! per-task front sizes. The plan is reused across every
//! re-factorization until the structure (or the elimination order)
//! changes, and then [`ExecutionPlan::update`] re-derives only the tasks
//! above the lowest changed column — see `solvers::engine`'s plan cache.
//!
//! Because every scatter target is fixed at plan time and children are
//! merged in the plan's fixed child order, each task is a pure function of
//! `H` and its children's cached update matrices; the
//! [`crate::ParallelExecutor`] runs the tasks in plan postorder.

use crate::SymbolicFactor;

/// One rectangular run added from a child's update matrix into the
/// parent's front during extend-add: one or more scatter blocks of one
/// child block column whose rows continue each other in both the child's
/// update and the parent's front.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ScatterBlock {
    /// Row offset in the child's update matrix.
    pub src_row: usize,
    /// Column offset in the child's update matrix.
    pub src_col: usize,
    /// Row offset in the parent's front.
    pub dst_row: usize,
    /// Column offset in the parent's front.
    pub dst_col: usize,
    /// Block height (scalar rows).
    pub rows: usize,
    /// Block width (scalar columns).
    pub cols: usize,
}

/// The extend-add of one child into its parent's front: the child task id
/// and every scatter-block target, fixed at plan time.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ChildMerge {
    /// Task (= supernode) index of the child whose update matrix is merged.
    pub child: usize,
    /// Scatter runs, child block column by child block column, rows
    /// ascending within a column — a fixed deterministic order.
    pub blocks: Vec<ScatterBlock>,
    /// Scatter blocks before coalescing into runs: one per (row block,
    /// column block) pair of the child's remainder lower triangle. What
    /// the op trace reports, so traces and simulated cycles do not depend
    /// on how the host groups its adds.
    pub scatter_blocks: usize,
    /// Total scalar elements scattered (for op tracing).
    pub elems: usize,
}

/// One supernode task of the plan.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PlanTask {
    /// Supernode id — equals the task's index in [`ExecutionPlan::tasks`].
    pub node: usize,
    /// Parent task, `None` for elimination-forest roots.
    pub parent: Option<usize>,
    /// Number of child tasks (the task's initial dependency count).
    pub num_children: usize,
    /// Topological level: 0 for leaves, `1 + max(children)` otherwise.
    pub level: usize,
    /// First owned block column.
    pub first_col: usize,
    /// Number of owned block columns.
    pub ncols: usize,
    /// Scalar pivot dimension `m`.
    pub pivot_dim: usize,
    /// Scalar remainder dimension `n`.
    pub rem_dim: usize,
    /// `(block_row, front-local scalar offset)` for every front block row,
    /// sorted by block row — the precomputed scatter-target table that
    /// replaces the per-node map the executor used to allocate.
    pub row_offsets: Vec<(usize, usize)>,
    /// Front-local scalar offset of each owned pivot column.
    pub col_offsets: Vec<usize>,
    /// Extend-add scatter programs, one per child, in the symbolic
    /// factor's fixed child order (the determinism anchor).
    pub merges: Vec<ChildMerge>,
    /// Structural signature (for numeric-cache reuse across re-analyses).
    pub sig: (usize, usize, u64),
    /// Scalar elements of the task's `(m + n) × (m + n)` front.
    pub workspace_elems: usize,
}

impl PlanTask {
    /// Scalar dimension of the square front (`m + n`).
    pub fn front_dim(&self) -> usize {
        self.pivot_dim + self.rem_dim
    }

    /// Block columns owned by this task.
    pub fn cols(&self) -> std::ops::Range<usize> {
        self.first_col..self.first_col + self.ncols
    }

    /// Front-local scalar offset of block row `b`, if `b` is in the front.
    pub fn local_offset(&self, b: usize) -> Option<usize> {
        self.row_offsets
            .binary_search_by_key(&b, |&(row, _)| row)
            .ok()
            .map(|i| self.row_offsets[i].1)
    }

    /// Approximate factorization flops of the task (Cholesky + TRSM +
    /// SYRK), the cost weight used for critical-path analysis.
    pub fn cost(&self) -> u64 {
        let m = self.pivot_dim as u64;
        let n = self.rem_dim as u64;
        m * m * m / 3 + n * m * m + n * n * m
    }
}

/// A topologically-leveled, scatter-resolved execution plan for the
/// supernodal numeric factorization, derived from a [`SymbolicFactor`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ExecutionPlan {
    tasks: Vec<PlanTask>,
    postorder: Vec<usize>,
    levels: Vec<Vec<usize>>,
    node_of_block: Vec<usize>,
    total_dim: usize,
}

impl ExecutionPlan {
    /// Lowers a symbolic factorization into an execution plan.
    pub fn from_symbolic(sym: &SymbolicFactor) -> Self {
        Self::default().update(sym, 0)
    }

    /// [`from_symbolic`](Self::from_symbolic) under the signature the
    /// frozen `benchmark/` package still calls; the second argument carries
    /// nothing. Exists only for that package — the next benchmark change
    /// deletes it.
    #[doc(hidden)]
    pub fn from_symbolic_with_split(sym: &SymbolicFactor, _: ()) -> Self {
        Self::from_symbolic(sym)
    }

    /// Re-lowers the plan after its symbolic factorization was
    /// [re-analyzed](SymbolicFactor::reanalyze) with the same
    /// `first_changed` column. The result equals
    /// [`from_symbolic`](Self::from_symbolic) of `sym`.
    ///
    /// Every task of a supernode the re-analysis kept is reused in place —
    /// front offsets, extend-add scatter programs and level all depend only
    /// on the node and its (also kept) descendants; only its parent link is
    /// re-stamped. Tasks are rebuilt from the first re-derived node on, and
    /// the level lists, postorder and block map are brought up to date in
    /// one sweep.
    pub fn update(mut self, sym: &SymbolicFactor, first_changed: usize) -> Self {
        let nodes = sym.nodes();
        let dims = sym.block_dims();
        let kept = crate::symbolic::kept_nodes(&self.node_of_block, first_changed);
        self.tasks.truncate(kept);
        for (task, info) in self.tasks.iter_mut().zip(nodes) {
            debug_assert_eq!((task.first_col, task.ncols), (info.first_col, info.ncols));
            task.parent = info.parent;
        }

        for (s, info) in nodes.iter().enumerate().skip(kept) {
            // Front-local scalar offsets, in `rows` order (sorted already).
            let mut row_offsets = Vec::with_capacity(info.rows.len());
            let mut off = 0usize;
            for &br in &info.rows {
                row_offsets.push((br, off));
                off += dims[br];
            }
            debug_assert!(row_offsets.windows(2).all(|w| w[0].0 < w[1].0));
            let col_offsets: Vec<usize> =
                row_offsets[..info.ncols].iter().map(|&(_, o)| o).collect();
            let local = |b: usize| {
                row_offsets
                    .binary_search_by_key(&b, |&(row, _)| row)
                    .map(|i| row_offsets[i].1)
                    // lint: allow(unwrap) — multifrontal containment, see below
                    .expect("child remainder row missing from parent front")
            };

            // Extend-add scatter programs, fixed child order.
            let mut merges = Vec::with_capacity(info.children.len());
            for &c in &info.children {
                let rem = nodes[c].remainder_rows();
                let mut coff = Vec::with_capacity(rem.len());
                let mut o = 0usize;
                for &br in rem {
                    coff.push(o);
                    o += dims[br];
                }
                let mut blocks: Vec<ScatterBlock> = Vec::with_capacity(rem.len());
                let (mut scatter_blocks, mut elems) = (0usize, 0usize);
                for (bj, &rj) in rem.iter().enumerate() {
                    let w = dims[rj];
                    // Multifrontal containment: a child's remainder rows
                    // are a subset of its parent's front.
                    let dst_col = local(rj);
                    for (bi, &ri) in rem.iter().enumerate().skip(bj) {
                        let h = dims[ri];
                        let (src_row, dst_row) = (coff[bi], local(ri));
                        scatter_blocks += 1;
                        elems += h * w;
                        // A block that continues this column's last run in
                        // both the child's update and the parent's front
                        // extends it: the same adds, one call.
                        match blocks.last_mut() {
                            Some(run)
                                if bi > bj
                                    && run.src_row + run.rows == src_row
                                    && run.dst_row + run.rows == dst_row =>
                            {
                                run.rows += h;
                            }
                            _ => blocks.push(ScatterBlock {
                                src_row,
                                src_col: coff[bj],
                                dst_row,
                                dst_col,
                                rows: h,
                                cols: w,
                            }),
                        }
                    }
                }
                merges.push(ChildMerge {
                    child: c,
                    blocks,
                    scatter_blocks,
                    elems,
                });
            }

            // Children precede their parent in node order, so their levels
            // are final by now.
            let level = info
                .children
                .iter()
                .map(|&c| self.tasks[c].level + 1)
                .max()
                .unwrap_or(0);
            let front = info.front_dim();
            self.tasks.push(PlanTask {
                node: s,
                parent: info.parent,
                num_children: info.children.len(),
                level,
                first_col: info.first_col,
                ncols: info.ncols,
                pivot_dim: info.pivot_dim,
                rem_dim: info.rem_dim,
                row_offsets,
                col_offsets,
                merges,
                sig: info.signature(),
                workspace_elems: front * front,
            });
        }

        // Level lists hold task ids in increasing order: cut each at the
        // first rebuilt task, then file the rebuilt ones.
        let depth = self
            .tasks
            .iter()
            .map(|t| t.level)
            .max()
            .map_or(0, |l| l + 1);
        self.levels.resize(depth, Vec::new());
        for level in &mut self.levels {
            level.truncate(level.partition_point(|&s| s < kept));
        }
        for t in &self.tasks[kept..] {
            self.levels[t.level].push(t.node);
        }

        self.postorder.clear();
        self.postorder.extend_from_slice(sym.postorder());
        self.node_of_block.clear();
        self.node_of_block
            .extend((0..sym.num_blocks()).map(|b| sym.node_of_block(b)));
        self.total_dim = sym.total_dim();

        self
    }

    /// The tasks, indexed by supernode id.
    pub fn tasks(&self) -> &[PlanTask] {
        &self.tasks
    }

    /// Number of tasks (= supernodes).
    pub fn num_tasks(&self) -> usize {
        self.tasks.len()
    }

    /// Task ids in children-before-parents order.
    pub fn postorder(&self) -> &[usize] {
        &self.postorder
    }

    /// Task ids grouped by topological level, leaves first. Tasks within a
    /// level are mutually independent.
    pub fn levels(&self) -> &[Vec<usize>] {
        &self.levels
    }

    /// Mutable task table, exposed for mutation testing of the
    /// interference checker. Any structural edit changes the plan
    /// fingerprint and so invalidates previously issued certificates —
    /// which is exactly what the mutation suite asserts.
    #[doc(hidden)]
    pub fn tasks_mut(&mut self) -> &mut [PlanTask] {
        &mut self.tasks
    }

    /// Mutable level table, exposed for mutation testing of the
    /// interference checker (see [`Self::tasks_mut`]).
    #[doc(hidden)]
    pub fn levels_mut(&mut self) -> &mut Vec<Vec<usize>> {
        &mut self.levels
    }

    /// The task owning block column `b`.
    pub fn node_of_block(&self, b: usize) -> usize {
        self.node_of_block[b]
    }

    /// Number of block columns the plan covers.
    pub fn num_blocks(&self) -> usize {
        self.node_of_block.len()
    }

    /// Total scalar dimension of the system.
    pub fn total_dim(&self) -> usize {
        self.total_dim
    }

    /// Scalars each kernel pack buffer needs for the plan's largest front
    /// ([`supernova_linalg::pack_elems_bound`] over all tasks) — the size
    /// the executor's [`supernova_linalg::KernelScratch`] is pre-grown to,
    /// so the blocked kernels never allocate mid-execution.
    pub fn max_pack_elems(&self) -> usize {
        self.tasks
            .iter()
            .map(|t| supernova_linalg::pack_elems_bound(t.front_dim()))
            .max()
            .unwrap_or(0)
    }

    /// Every listed task plus all its ancestors, deduplicated and sorted —
    /// the affected set of an incremental re-factorization.
    pub fn ancestor_closure(&self, seeds: impl IntoIterator<Item = usize>) -> Vec<usize> {
        let mut marked = vec![false; self.tasks.len()];
        for s in seeds {
            let mut cur = Some(s);
            while let Some(c) = cur {
                if marked[c] {
                    break;
                }
                marked[c] = true;
                cur = self.tasks[c].parent;
            }
        }
        (0..self.tasks.len()).filter(|&s| marked[s]).collect()
    }

    /// Sum of per-task costs — the serial work of a full execution.
    pub fn total_cost(&self) -> u64 {
        self.tasks.iter().map(PlanTask::cost).sum()
    }

    /// Cost of the heaviest root-to-leaf dependency chain — the lower
    /// bound on any parallel execution of this plan, whole tasks on the
    /// chain. `total_cost / critical_path_cost` is the plan's available
    /// speedup.
    pub fn critical_path_cost(&self) -> u64 {
        let mut path = vec![0u64; self.tasks.len()];
        let mut best = 0u64;
        for &s in &self.postorder {
            let sub = self.tasks[s]
                .merges
                .iter()
                .map(|m| path[m.child])
                .max()
                .unwrap_or(0);
            path[s] = sub + self.tasks[s].cost();
            best = best.max(path[s]);
        }
        best
    }

    /// Modeled occupancy of a `workers`-wide level-batched execution: per
    /// topological level, the level's total work divided by `workers ×` its
    /// heaviest task (capped at 1 — the level can't finish before its
    /// heaviest task), averaged over levels weighted by level work. 1.0
    /// means every barrier-to-barrier interval keeps all workers busy; a
    /// single-task level scores `1 / workers`.
    ///
    /// A model only: the executor runs plans inline, and nothing in the
    /// workspace reads this; the `benchmark/` package still reports it.
    pub fn level_occupancy(&self, workers: usize) -> f64 {
        let workers = workers.max(1) as f64;
        let mut weighted = 0.0f64;
        let mut weight = 0.0f64;
        for level in &self.levels {
            let costs = level.iter().map(|&s| self.tasks[s].cost());
            let sum: u64 = costs.clone().sum();
            let max = costs.max().unwrap_or(0);
            if max == 0 {
                continue;
            }
            let occ = (sum as f64 / (workers * max as f64)).min(1.0);
            weighted += occ * sum as f64;
            weight += sum as f64;
        }
        // lint: allow(float-eq) — structural-zero test: no level contributed work
        if weight == 0.0 {
            0.0
        } else {
            weighted / weight
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BlockPattern;

    fn loopy() -> SymbolicFactor {
        let mut p = BlockPattern::new(vec![2, 3, 1, 2, 2, 3, 1, 2]);
        for i in 0..7 {
            p.add_block_edge(i, i + 1);
        }
        p.add_block_edge(0, 5);
        p.add_block_edge(2, 7);
        p.add_block_edge(3, 6);
        SymbolicFactor::analyze(&p, 0)
    }

    #[test]
    fn plan_mirrors_symbolic_structure() {
        let sym = loopy();
        let plan = ExecutionPlan::from_symbolic(&sym);
        assert_eq!(plan.num_tasks(), sym.nodes().len());
        assert_eq!(plan.postorder(), sym.postorder());
        for (task, info) in plan.tasks().iter().zip(sym.nodes()) {
            assert_eq!(task.parent, info.parent);
            assert_eq!(task.num_children, info.children.len());
            assert_eq!(task.pivot_dim, info.pivot_dim);
            assert_eq!(task.rem_dim, info.rem_dim);
            assert_eq!(task.sig, info.signature());
            assert_eq!(task.workspace_elems, info.front_dim() * info.front_dim());
            // Child order is exactly the symbolic child order.
            let merge_children: Vec<usize> = task.merges.iter().map(|m| m.child).collect();
            assert_eq!(merge_children, info.children);
        }
    }

    #[test]
    fn row_offsets_are_partial_sums_of_dims() {
        let sym = loopy();
        let plan = ExecutionPlan::from_symbolic(&sym);
        for (task, info) in plan.tasks().iter().zip(sym.nodes()) {
            let mut off = 0usize;
            for (&br, &(row, o)) in info.rows.iter().zip(&task.row_offsets) {
                assert_eq!(br, row);
                assert_eq!(o, off);
                assert_eq!(task.local_offset(br), Some(off));
                off += sym.block_dims()[br];
            }
            assert_eq!(off, task.front_dim());
            assert_eq!(task.local_offset(usize::MAX), None);
        }
    }

    #[test]
    fn levels_respect_dependencies() {
        let sym = loopy();
        let plan = ExecutionPlan::from_symbolic(&sym);
        let covered: usize = plan.levels().iter().map(Vec::len).sum();
        assert_eq!(covered, plan.num_tasks());
        for task in plan.tasks() {
            if let Some(p) = task.parent {
                assert!(
                    plan.tasks()[p].level > task.level,
                    "parent {p} not above child {}",
                    task.node
                );
            }
        }
    }

    #[test]
    fn scatter_blocks_stay_inside_parent_front() {
        let sym = loopy();
        let plan = ExecutionPlan::from_symbolic(&sym);
        for task in plan.tasks() {
            let dim = task.front_dim();
            for mg in &task.merges {
                let child = &plan.tasks()[mg.child];
                let cdim = child.rem_dim;
                let mut elems = 0usize;
                for b in &mg.blocks {
                    assert!(b.dst_row + b.rows <= dim && b.dst_col + b.cols <= dim);
                    assert!(b.src_row + b.rows <= cdim && b.src_col + b.cols <= cdim);
                    // Lower triangle only.
                    assert!(b.dst_row >= b.dst_col);
                    elems += b.rows * b.cols;
                }
                assert_eq!(elems, mg.elems);
            }
        }
    }

    /// A Sphere-shaped pattern: rings of 6-DoF poses, each pose tied to
    /// its successor and, at random, to its neighbour on the previous
    /// ring, eliminated in min-degree order with relaxed supernodes.
    fn sphere_like(seed: u64) -> SymbolicFactor {
        let (ring, poses) = (8usize, 64usize);
        let mut rng = supernova_linalg::rng::XorShift64::seed_from_u64(seed);
        let mut p = BlockPattern::new(vec![6; poses]);
        for i in 1..poses {
            p.add_block_edge(i - 1, i);
            if i >= ring && rng.gen_index(3) > 0 {
                p.add_block_edge(i - ring, i);
            }
        }
        let p = p.permuted(&crate::ordering::min_degree(&p));
        SymbolicFactor::analyze(&p, 1)
    }

    /// Every `(src, dst)` element pair a program adds, as
    /// `((src_row, src_col), (dst_row, dst_col))`: each block or run
    /// column-major, then stably grouped by destination column — the adds
    /// each front column receives, in the order it receives them.
    fn element_pairs(blocks: &[ScatterBlock]) -> Vec<((usize, usize), (usize, usize))> {
        let mut pairs = Vec::new();
        for b in blocks {
            for c in 0..b.cols {
                for r in 0..b.rows {
                    pairs.push((
                        (b.src_row + r, b.src_col + c),
                        (b.dst_row + r, b.dst_col + c),
                    ));
                }
            }
        }
        pairs.sort_by_key(|&(_, (_, dst_col))| dst_col);
        pairs
    }

    #[test]
    fn coalesced_runs_add_what_the_per_block_program_adds() {
        let mut runs_total = 0usize;
        let mut blocks_total = 0usize;
        for sym in [loopy(), sphere_like(7), sphere_like(8)] {
            let dims = sym.block_dims();
            let plan = ExecutionPlan::from_symbolic(&sym);
            for (task, info) in plan.tasks().iter().zip(sym.nodes()) {
                for mg in &task.merges {
                    // The per-block program: one block per (row block,
                    // column block) pair of the child's lower triangle.
                    let rem = sym.nodes()[mg.child].remainder_rows();
                    let off = |k: usize| rem[..k].iter().map(|&b| dims[b]).sum::<usize>();
                    let front = |b: usize| {
                        let i = info.rows.iter().position(|&r| r == b).expect("contained");
                        info.rows[..i].iter().map(|&r| dims[r]).sum::<usize>()
                    };
                    let mut per_block = Vec::new();
                    for (bj, &rj) in rem.iter().enumerate() {
                        for (bi, &ri) in rem.iter().enumerate().skip(bj) {
                            per_block.push(ScatterBlock {
                                src_row: off(bi),
                                src_col: off(bj),
                                dst_row: front(ri),
                                dst_col: front(rj),
                                rows: dims[ri],
                                cols: dims[rj],
                            });
                        }
                    }
                    assert_eq!(mg.scatter_blocks, per_block.len());
                    assert_eq!(element_pairs(&mg.blocks), element_pairs(&per_block));
                    runs_total += mg.blocks.len();
                    blocks_total += per_block.len();
                }
            }
        }
        assert!(runs_total < blocks_total, "no run ever coalesced");
    }

    #[test]
    fn ancestor_closure_matches_symbolic() {
        let sym = loopy();
        let plan = ExecutionPlan::from_symbolic(&sym);
        for seed in 0..plan.num_tasks() {
            assert_eq!(plan.ancestor_closure([seed]), sym.ancestor_closure([seed]));
        }
    }

    #[test]
    fn critical_path_bounded_by_total() {
        let plan = ExecutionPlan::from_symbolic(&loopy());
        assert!(plan.total_cost() > 0);
        assert!(plan.critical_path_cost() <= plan.total_cost());
        assert!(plan.critical_path_cost() > 0);
    }

    #[test]
    fn level_occupancy_is_a_fraction_and_one_worker_is_always_busy() {
        let plan = ExecutionPlan::from_symbolic(&loopy());
        for workers in [2usize, 4] {
            let occ = plan.level_occupancy(workers);
            assert!(occ > 0.0 && occ <= 1.0, "{workers} workers: {occ}");
        }
        assert_eq!(plan.level_occupancy(1), 1.0);
        assert_eq!(ExecutionPlan::default().level_occupancy(4), 0.0);
    }
}
