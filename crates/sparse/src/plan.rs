//! The reusable execution-plan IR: the numeric factorization's *plan* half.
//!
//! [`ExecutionPlan::from_symbolic`] lowers a [`SymbolicFactor`] into a flat
//! task list with everything the numeric *execute* half needs precomputed:
//! topological levels, per-task dependency structure, front-local scatter
//! offsets for Hessian assembly, per-child extend-add scatter blocks, and
//! per-task workspace sizes. The plan is reused across every
//! re-factorization until the structure (or the elimination order)
//! changes, and then [`ExecutionPlan::update`] re-derives only the tasks
//! above the lowest changed column — see `solvers::engine`'s plan cache.
//!
//! Because every scatter target is fixed at plan time and children are
//! merged in the plan's fixed child order, executing the plan serially or
//! on the worker pool ([`crate::ParallelExecutor`]) produces bit-identical
//! factors: each task is a pure function of `H` and its children's cached
//! update matrices, independent of completion order.

use crate::SymbolicFactor;
use supernova_linalg::split::SPLIT_NB;

/// Environment variable overriding the intra-front split configuration:
/// `off` (or `0`) disables splitting, `on` (or `1`) selects the defaults,
/// `<min_dim>` sets the split threshold, `<min_dim>:<tile>` also sets the
/// strip width (rounded up to a multiple of the kernel panel width).
pub const SPLIT_ENV: &str = "SUPERNOVA_SPLIT";

/// Configuration of the intra-front split pass: which fronts are
/// decomposed into panel/tile sub-units and how wide the column strips
/// are. Part of the plan-cache key and the plan fingerprint — two plans
/// built under different split configurations are different plans.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct SplitConfig {
    /// Whether the split pass runs at all.
    pub enabled: bool,
    /// Fronts with scalar dimension `>= min_dim` are split (subject to the
    /// strip count actually exceeding 1).
    pub min_dim: usize,
    /// Column-strip width in scalars; always a multiple of the kernel
    /// panel width [`SPLIT_NB`] so every panel lies in exactly one strip.
    pub tile: usize,
}

impl SplitConfig {
    /// Default split threshold: a front two panels wide is the smallest
    /// one with any inter-strip update work to parallelize.
    pub const DEFAULT_MIN_DIM: usize = 2 * SPLIT_NB;

    /// Splitting enabled with default threshold and strip width.
    pub fn on() -> Self {
        SplitConfig {
            enabled: true,
            min_dim: Self::DEFAULT_MIN_DIM,
            tile: SPLIT_NB,
        }
    }

    /// Splitting disabled; plans carry only whole-task units.
    pub fn off() -> Self {
        SplitConfig {
            enabled: false,
            ..Self::on()
        }
    }

    /// This configuration with the split threshold replaced.
    pub fn with_min_dim(self, min_dim: usize) -> Self {
        SplitConfig { min_dim, ..self }
    }

    /// This configuration with the strip width replaced (rounded up to a
    /// positive multiple of [`SPLIT_NB`]).
    pub fn with_tile(self, tile: usize) -> Self {
        SplitConfig {
            tile: tile.div_ceil(SPLIT_NB).max(1) * SPLIT_NB,
            ..self
        }
    }

    /// Reads [`SPLIT_ENV`]; unset or unparsable values fall back to the
    /// default (`on`), matching the numeric-mode env convention.
    pub fn from_env() -> Self {
        match std::env::var(SPLIT_ENV) {
            Ok(v) => Self::parse(&v).unwrap_or_else(Self::on),
            Err(_) => Self::on(),
        }
    }

    /// Parses the [`SPLIT_ENV`] syntax; `None` on malformed input.
    pub fn parse(v: &str) -> Option<Self> {
        let v = v.trim();
        match v {
            "off" | "0" => return Some(Self::off()),
            "on" | "1" | "" => return Some(Self::on()),
            _ => {}
        }
        let (min_s, tile_s) = match v.split_once(':') {
            Some((m, t)) => (m, Some(t)),
            None => (v, None),
        };
        let min_dim: usize = min_s.trim().parse().ok()?;
        let cfg = Self::on().with_min_dim(min_dim);
        match tile_s {
            Some(t) => {
                let tile: usize = t.trim().parse().ok()?;
                if tile == 0 {
                    return None;
                }
                Some(cfg.with_tile(tile))
            }
            None => Some(cfg),
        }
    }
}

impl Default for SplitConfig {
    fn default() -> Self {
        Self::on()
    }
}

/// Strip/panel geometry of one split task.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SplitShape {
    /// Column-strip width in scalars (= the plan's `SplitConfig::tile`).
    pub tile: usize,
    /// Number of column strips over the front (`ceil(front_dim / tile)`).
    pub strips: usize,
    /// Number of `SPLIT_NB`-wide factorization panels over the pivot
    /// columns (`ceil(pivot_dim / SPLIT_NB)`).
    pub panels: usize,
}

impl SplitShape {
    /// Width of strip `s` of a `front_dim`-wide front.
    pub fn strip_width(&self, s: usize, front_dim: usize) -> usize {
        self.tile.min(front_dim - s * self.tile)
    }

    /// The strip containing factorization panel `p`.
    pub fn strip_of_panel(&self, p: usize) -> usize {
        p * SPLIT_NB / self.tile
    }

    /// `(k, b)` of factorization panel `p`: first pivot column and width.
    pub fn panel_cols(&self, p: usize, pivot_dim: usize) -> (usize, usize) {
        let k = p * SPLIT_NB;
        (k, SPLIT_NB.min(pivot_dim - k))
    }
}

/// The work a single dispatchable sub-unit of a task performs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum UnitKind {
    /// The entire task, undecomposed (every unit of an unsplit task).
    Whole,
    /// Zero + assemble (Hessian scatter, child extend-adds) one column
    /// strip of the front, demoting it under a narrow numeric mode.
    Assemble {
        /// Strip index.
        strip: usize,
    },
    /// One serial panel step: diagonal Cholesky, below-panel TRSM and the
    /// trailing update restricted to the panel's own strip.
    Panel {
        /// Panel index.
        panel: usize,
    },
    /// The trailing update of one panel restricted to one later strip's
    /// columns (reads the panel strip, writes the destination strip).
    Tile {
        /// Panel index whose update this tile belongs to.
        panel: usize,
        /// Destination strip index.
        strip: usize,
    },
    /// Gather the factor and update matrix out of the strips (promoting
    /// under a narrow mode) and publish the task's result + trace.
    Finish,
}

/// One dispatchable sub-unit of the plan, addressed by index into
/// [`ExecutionPlan::units`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PlanUnit {
    /// The task this unit belongs to.
    pub task: usize,
    /// What the unit does.
    pub kind: UnitKind,
    /// Global sub-level index (the unit-granular analogue of a task's
    /// topological level): all units of sub-level `i` are mutually
    /// independent, and depend only on sub-levels `< i`.
    pub sublevel: usize,
}

/// One rectangular block copied (added) from a child's update matrix into
/// the parent's frontal workspace during extend-add.
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
    /// Scatter targets, in a fixed deterministic order.
    pub blocks: Vec<ScatterBlock>,
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
    /// Scalar elements of frontal workspace this task needs.
    pub workspace_elems: usize,
}

impl PlanTask {
    /// Scalar dimension of the square frontal workspace (`m + n`).
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
    max_workspace_elems: usize,
    total_dim: usize,
    /// The split configuration the plan was built under (part of the
    /// plan-cache key and the fingerprint even when nothing split).
    split: SplitConfig,
    /// Per-task strip/panel geometry; `None` for unsplit tasks.
    split_shapes: Vec<Option<SplitShape>>,
    /// Sub-unit overlay over `tasks` — empty when no task split, in which
    /// case execution dispatches whole tasks exactly as before.
    units: Vec<PlanUnit>,
    /// Per-task contiguous range into `units`.
    task_units: Vec<(usize, usize)>,
    /// Unit ids grouped by sub-level (the unit-granular `levels`).
    unit_levels: Vec<Vec<usize>>,
}

impl ExecutionPlan {
    /// Lowers a symbolic factorization into an execution plan under the
    /// default [`SplitConfig`].
    pub fn from_symbolic(sym: &SymbolicFactor) -> Self {
        Self::from_symbolic_with_split(sym, SplitConfig::default())
    }

    /// Lowers a symbolic factorization into an execution plan, splitting
    /// large fronts into panel/tile sub-units per `split`.
    pub fn from_symbolic_with_split(sym: &SymbolicFactor, split: SplitConfig) -> Self {
        ExecutionPlan {
            split,
            ..Self::default()
        }
        .update(sym, 0)
    }

    /// Re-lowers the plan after its symbolic factorization was
    /// [re-analyzed](SymbolicFactor::reanalyze) with the same
    /// `first_changed` column, under the plan's own split configuration.
    /// The result equals
    /// [`from_symbolic_with_split`](Self::from_symbolic_with_split) of `sym`.
    ///
    /// Every task of a supernode the re-analysis kept is reused in place —
    /// front offsets, extend-add scatter programs, level and split shape
    /// all depend only on the node and its (also kept) descendants; only
    /// its parent link is re-stamped. Tasks are rebuilt from the first
    /// re-derived node on, and the level lists, postorder, block map and
    /// split overlay are brought up to date in one sweep.
    pub fn update(mut self, sym: &SymbolicFactor, first_changed: usize) -> Self {
        let nodes = sym.nodes();
        let dims = sym.block_dims();
        let kept = crate::symbolic::kept_nodes(&self.node_of_block, first_changed);
        self.tasks.truncate(kept);
        self.split_shapes.truncate(kept);
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
                let mut blocks = Vec::with_capacity(rem.len() * (rem.len() + 1) / 2);
                let mut elems = 0usize;
                for (bj, &rj) in rem.iter().enumerate() {
                    let w = dims[rj];
                    // Multifrontal containment: a child's remainder rows
                    // are a subset of its parent's front.
                    let dst_col = local(rj);
                    for (bi, &ri) in rem.iter().enumerate().skip(bj) {
                        let h = dims[ri];
                        blocks.push(ScatterBlock {
                            src_row: coff[bi],
                            src_col: coff[bj],
                            dst_row: local(ri),
                            dst_col,
                            rows: h,
                            cols: w,
                        });
                        elems += h * w;
                    }
                }
                merges.push(ChildMerge {
                    child: c,
                    blocks,
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
        self.max_workspace_elems = self
            .tasks
            .iter()
            .map(|t| t.workspace_elems)
            .max()
            .unwrap_or(0);
        self.total_dim = sym.total_dim();

        // ---- Split pass: sub-unit overlay -------------------------------
        // A task splits when its front meets the threshold AND actually
        // spans more than one strip (a single-strip "split" would serialize
        // into pure overhead).
        let split = self.split;
        self.split_shapes.extend(self.tasks[kept..].iter().map(|t| {
            let dim = t.front_dim();
            let strips = dim.div_ceil(split.tile);
            (split.enabled && dim >= split.min_dim && t.pivot_dim > 0 && strips >= 2).then(|| {
                SplitShape {
                    tile: split.tile,
                    strips,
                    panels: t.pivot_dim.div_ceil(SPLIT_NB),
                }
            })
        }));

        (self.units, self.task_units, self.unit_levels) =
            if self.split_shapes.iter().any(Option::is_some) {
                Self::build_units(&self.tasks, &self.levels, &self.split_shapes)
            } else {
                (Vec::new(), Vec::new(), Vec::new())
            };
        self
    }

    /// Builds the sub-unit overlay: every unsplit task becomes one `Whole`
    /// unit, every split task a canonical
    /// `Assemble* → (Panel → Tile*)* → Finish` chain. Each original level
    /// expands into consecutive sub-levels; within a level, a unit's local
    /// sub-level is a pure function of its kind (`Assemble`/`Whole` at 0,
    /// `Panel p` at `1 + 2p`, its tiles at `2 + 2p`, `Finish` after the
    /// last panel), so units of different tasks share sub-levels and stay
    /// mutually independent. Empty local sub-levels are compacted away.
    #[allow(clippy::type_complexity)]
    fn build_units(
        tasks: &[PlanTask],
        levels: &[Vec<usize>],
        split_shapes: &[Option<SplitShape>],
    ) -> (Vec<PlanUnit>, Vec<(usize, usize)>, Vec<Vec<usize>>) {
        // Local (within-level) sub-level of a unit kind.
        let local_of = |kind: &UnitKind, shape: Option<&SplitShape>| -> usize {
            match kind {
                UnitKind::Whole | UnitKind::Assemble { .. } => 0,
                UnitKind::Panel { panel } => 1 + 2 * panel,
                UnitKind::Tile { panel, .. } => 2 + 2 * panel,
                // lint: allow(unwrap) — Finish only exists on split tasks
                UnitKind::Finish => 1 + 2 * shape.expect("finish on unsplit task").panels,
            }
        };

        // Emit units grouped by task (contiguous ranges), intra-task
        // canonical order.
        let mut units: Vec<PlanUnit> = Vec::new();
        let mut task_units: Vec<(usize, usize)> = Vec::with_capacity(tasks.len());
        for t in tasks {
            let start = units.len();
            match &split_shapes[t.node] {
                None => units.push(PlanUnit {
                    task: t.node,
                    kind: UnitKind::Whole,
                    sublevel: 0,
                }),
                Some(shape) => {
                    for strip in 0..shape.strips {
                        units.push(PlanUnit {
                            task: t.node,
                            kind: UnitKind::Assemble { strip },
                            sublevel: 0,
                        });
                    }
                    for panel in 0..shape.panels {
                        units.push(PlanUnit {
                            task: t.node,
                            kind: UnitKind::Panel { panel },
                            sublevel: 0,
                        });
                        for strip in shape.strip_of_panel(panel) + 1..shape.strips {
                            units.push(PlanUnit {
                                task: t.node,
                                kind: UnitKind::Tile { panel, strip },
                                sublevel: 0,
                            });
                        }
                    }
                    units.push(PlanUnit {
                        task: t.node,
                        kind: UnitKind::Finish,
                        sublevel: 0,
                    });
                }
            }
            task_units.push((start, units.len()));
        }

        // Assign global sub-levels level by level, compacting local
        // sub-levels nobody occupies.
        let mut unit_levels: Vec<Vec<usize>> = Vec::new();
        for level in levels {
            let height = level
                .iter()
                .map(|&s| match &split_shapes[s] {
                    None => 1,
                    Some(shape) => 2 + 2 * shape.panels,
                })
                .max()
                .unwrap_or(1);
            let mut occupied = vec![false; height];
            for &s in level {
                let (lo, hi) = task_units[s];
                for u in &units[lo..hi] {
                    occupied[local_of(&u.kind, split_shapes[s].as_ref())] = true;
                }
            }
            let base = unit_levels.len();
            let mut compact = vec![usize::MAX; height];
            for (local, &occ) in occupied.iter().enumerate() {
                if occ {
                    compact[local] = unit_levels.len();
                    unit_levels.push(Vec::new());
                }
            }
            debug_assert!(unit_levels.len() > base, "level with no units");
            for &s in level {
                let (lo, hi) = task_units[s];
                for uid in lo..hi {
                    let local = local_of(&units[uid].kind, split_shapes[s].as_ref());
                    let sub = compact[local];
                    units[uid].sublevel = sub;
                    unit_levels[sub].push(uid);
                }
            }
        }
        (units, task_units, unit_levels)
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

    /// Largest frontal workspace (scalar elements) any task needs — the
    /// size each worker's reusable buffer is grown to once.
    pub fn max_workspace_elems(&self) -> usize {
        self.max_workspace_elems
    }

    /// Scalars each kernel pack buffer needs for the plan's largest front
    /// ([`supernova_linalg::pack_elems_bound`] over all tasks) — the size
    /// each worker's [`supernova_linalg::KernelScratch`] is pre-grown to,
    /// so the blocked kernels never allocate mid-execution.
    pub fn max_pack_elems(&self) -> usize {
        self.tasks
            .iter()
            .map(|t| supernova_linalg::pack_elems_bound(t.front_dim()))
            .max()
            .unwrap_or(0)
    }

    /// Mode-aware variant of [`Self::max_pack_elems`]: the narrow modes
    /// pack into f32 arenas whose row-panel rounding differs (the f32
    /// engine uses wider microkernel tiles), so workers executing under a
    /// narrow [`supernova_linalg::NumericMode`] pre-grow their scratch
    /// with this bound instead.
    pub fn max_pack_elems_mode(&self, mode: supernova_linalg::NumericMode) -> usize {
        self.tasks
            .iter()
            .map(|t| supernova_linalg::pack_elems_bound_mode(t.front_dim(), mode))
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
    /// bound on any parallel execution of this plan as built. When the
    /// split pass produced sub-units, a split task contributes its *chain*
    /// cost (serial panels plus, per panel, only the heaviest tile — its
    /// siblings run in parallel) instead of its whole-task cost, which is
    /// exactly the modeled win intra-front parallelism buys.
    /// `total_cost / critical_path_cost` is the plan's available speedup.
    pub fn critical_path_cost(&self) -> u64 {
        if !self.has_units() {
            return self.critical_path_cost_unsplit();
        }
        let mut path = vec![0u64; self.tasks.len()];
        let mut best = 0u64;
        for &s in &self.postorder {
            let sub = self.tasks[s]
                .merges
                .iter()
                .map(|m| path[m.child])
                .max()
                .unwrap_or(0);
            path[s] = sub + self.task_chain_cost(s);
            best = best.max(path[s]);
        }
        best
    }

    /// [`Self::critical_path_cost`] of the same plan with the split pass
    /// ignored (whole-task chain costs) — the baseline the split's modeled
    /// improvement is gated against.
    pub fn critical_path_cost_unsplit(&self) -> u64 {
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

    /// The split configuration the plan was built under.
    pub fn split_config(&self) -> SplitConfig {
        self.split
    }

    /// Strip/panel geometry of task `s`, `None` when it did not split.
    pub fn split_shape(&self, s: usize) -> Option<SplitShape> {
        self.split_shapes[s]
    }

    /// Whether the split pass produced a sub-unit overlay. When `false`,
    /// execution dispatches whole tasks exactly as before the split pass
    /// existed.
    pub fn has_units(&self) -> bool {
        !self.units.is_empty()
    }

    /// The sub-unit overlay (empty when no task split).
    pub fn units(&self) -> &[PlanUnit] {
        &self.units
    }

    /// Number of sub-units (0 when no task split).
    pub fn num_units(&self) -> usize {
        self.units.len()
    }

    /// Unit ids grouped by sub-level — the unit-granular dispatch
    /// structure: units within a sub-level are mutually independent and
    /// depend only on earlier sub-levels.
    pub fn unit_levels(&self) -> &[Vec<usize>] {
        &self.unit_levels
    }

    /// The units of task `s`, in canonical intra-task order
    /// (`Assemble* → (Panel → Tile*)* → Finish`, or a single `Whole`).
    pub fn task_units(&self, s: usize) -> &[PlanUnit] {
        let (lo, hi) = self.task_units[s];
        &self.units[lo..hi]
    }

    /// The half-open unit-id range of task `s` (empty when the plan has no
    /// units) — [`task_units`](Self::task_units) as indices into
    /// [`units`](Self::units).
    pub fn task_units_range(&self, s: usize) -> (usize, usize) {
        if self.task_units.is_empty() {
            (0, 0)
        } else {
            self.task_units[s]
        }
    }

    /// Modeled cost of one sub-unit, in the same flop-shaped weight as
    /// [`PlanTask::cost`]: factorization units count their stored-element
    /// MAC work, assemble/finish units their scalar traffic.
    pub fn unit_cost(&self, unit_id: usize) -> u64 {
        let u = &self.units[unit_id];
        let t = &self.tasks[u.task];
        let dim = t.front_dim();
        let (m, n) = (t.pivot_dim, t.rem_dim);
        let shape = match u.kind {
            UnitKind::Whole => return t.cost(),
            // lint: allow(unwrap) — non-Whole units only exist on split tasks
            _ => self.split_shapes[u.task].expect("split unit on unsplit task"),
        };
        match u.kind {
            UnitKind::Whole => t.cost(),
            UnitKind::Assemble { strip } => (dim * shape.strip_width(strip, dim)) as u64,
            UnitKind::Panel { panel } => {
                let (k, b) = shape.panel_cols(panel, m);
                let below = dim - k - b;
                let strip_end = ((shape.strip_of_panel(panel) + 1) * shape.tile).min(dim);
                let tw = strip_end.saturating_sub(k + b);
                let tail = tw * below - tw * tw.saturating_sub(1) / 2;
                (b * b * b / 3 + below * b * b + tail * b) as u64
            }
            UnitKind::Tile { panel, strip } => {
                let (_, b) = shape.panel_cols(panel, m);
                let qcol0 = strip * shape.tile;
                let w = shape.strip_width(strip, dim);
                let stored = w * (dim - qcol0) - w * w.saturating_sub(1) / 2;
                (stored * b) as u64
            }
            UnitKind::Finish => (dim * m + n * n) as u64,
        }
    }

    /// Modeled serial chain cost of task `s` under the split: the heaviest
    /// assemble, then per panel the serial panel step plus only its
    /// heaviest tile (siblings are parallel), then the finish. Capped at
    /// the whole-task cost — a split execution never models worse than
    /// running the task whole, since that schedule remains available.
    fn task_chain_cost(&self, s: usize) -> u64 {
        if self.split_shapes[s].is_none() {
            return self.tasks[s].cost();
        }
        let (lo, hi) = self.task_units[s];
        let mut chain = 0u64;
        let mut assemble_max = 0u64;
        let mut tile_max = 0u64;
        for uid in lo..hi {
            let cost = self.unit_cost(uid);
            match self.units[uid].kind {
                UnitKind::Whole => return self.tasks[s].cost(),
                UnitKind::Assemble { .. } => assemble_max = assemble_max.max(cost),
                UnitKind::Panel { .. } => {
                    chain += std::mem::take(&mut tile_max) + cost;
                }
                UnitKind::Tile { .. } => tile_max = tile_max.max(cost),
                UnitKind::Finish => {
                    chain += std::mem::take(&mut tile_max) + cost;
                }
            }
        }
        (chain + assemble_max).min(self.tasks[s].cost())
    }

    /// Fraction of the plan's total modeled work concentrated in its single
    /// heaviest dispatchable item (unit when split, task otherwise) — the
    /// "one giant task" metric the split pass exists to lower.
    pub fn largest_task_fraction(&self) -> f64 {
        let (max, sum) = if self.has_units() {
            (0..self.units.len()).fold((0u64, 0u64), |(mx, sm), uid| {
                let c = self.unit_cost(uid);
                (mx.max(c), sm + c)
            })
        } else {
            self.tasks.iter().fold((0u64, 0u64), |(mx, sm), t| {
                (mx.max(t.cost()), sm + t.cost())
            })
        };
        if sum == 0 {
            0.0
        } else {
            max as f64 / sum as f64
        }
    }

    /// Modeled occupancy of a `workers`-wide level-batched execution: per
    /// dispatch level (sub-level when split), the level's total work
    /// divided by `workers ×` its heaviest item (capped at 1 — the level
    /// can't finish before its heaviest item), averaged over levels
    /// weighted by level work. 1.0 means every barrier-to-barrier interval
    /// keeps all workers busy; a single-item level scores `1 / workers`.
    pub fn level_occupancy(&self, workers: usize) -> f64 {
        let workers = workers.max(1) as f64;
        let level_costs: Vec<Vec<u64>> = if self.has_units() {
            self.unit_levels
                .iter()
                .map(|l| l.iter().map(|&u| self.unit_cost(u)).collect())
                .collect()
        } else {
            self.levels
                .iter()
                .map(|l| l.iter().map(|&s| self.tasks[s].cost()).collect())
                .collect()
        };
        let mut weighted = 0.0f64;
        let mut weight = 0.0f64;
        for costs in &level_costs {
            let sum: u64 = costs.iter().sum();
            let max = costs.iter().copied().max().unwrap_or(0);
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

    /// Pattern with scalar block dims large enough that fronts cross the
    /// default split threshold.
    fn big(dims: Vec<usize>, edges: &[(usize, usize)]) -> SymbolicFactor {
        let mut p = BlockPattern::new(dims);
        for &(i, j) in edges {
            p.add_block_edge(i, j);
        }
        SymbolicFactor::analyze(&p, 0)
    }

    #[test]
    fn tiny_fronts_produce_no_units() {
        let plan = ExecutionPlan::from_symbolic(&loopy());
        assert!(!plan.has_units());
        assert_eq!(plan.num_units(), 0);
        assert!(plan.unit_levels().is_empty());
        for s in 0..plan.num_tasks() {
            assert_eq!(plan.split_shape(s), None);
        }
    }

    #[test]
    fn split_pass_emits_canonical_units() {
        let sym = big(vec![64, 64, 64], &[(0, 2), (1, 2)]);
        let plan = ExecutionPlan::from_symbolic_with_split(&sym, SplitConfig::on());
        assert!(plan.has_units());
        assert!(plan
            .tasks()
            .iter()
            .any(|t| plan.split_shape(t.node).is_some()));

        // Every unit appears in exactly one sub-level.
        let mut seen = vec![0usize; plan.num_units()];
        for (sub, level) in plan.unit_levels().iter().enumerate() {
            assert!(!level.is_empty());
            for &uid in level {
                seen[uid] += 1;
                assert_eq!(plan.units()[uid].sublevel, sub);
            }
        }
        assert!(seen.iter().all(|&c| c == 1));

        for s in 0..plan.num_tasks() {
            let units = plan.task_units(s);
            assert!(units.iter().all(|u| u.task == s));
            match plan.split_shape(s) {
                None => {
                    assert_eq!(units.len(), 1);
                    assert_eq!(units[0].kind, UnitKind::Whole);
                }
                Some(shape) => {
                    assert!(shape.strips >= 2 && shape.panels >= 1);
                    // Canonical intra-task order and kinds.
                    let mut expect = Vec::new();
                    for strip in 0..shape.strips {
                        expect.push(UnitKind::Assemble { strip });
                    }
                    for panel in 0..shape.panels {
                        expect.push(UnitKind::Panel { panel });
                        for strip in shape.strip_of_panel(panel) + 1..shape.strips {
                            expect.push(UnitKind::Tile { panel, strip });
                        }
                    }
                    expect.push(UnitKind::Finish);
                    let kinds: Vec<UnitKind> = units.iter().map(|u| u.kind).collect();
                    assert_eq!(kinds, expect);

                    // Intra-task happens-before via sub-levels.
                    let sub_of =
                        |k: &UnitKind| units.iter().find(|u| u.kind == *k).map(|u| u.sublevel);
                    let finish = sub_of(&UnitKind::Finish).unwrap();
                    for panel in 0..shape.panels {
                        let psub = sub_of(&UnitKind::Panel { panel }).unwrap();
                        for u in units {
                            match u.kind {
                                UnitKind::Assemble { .. } => assert!(u.sublevel < psub),
                                UnitKind::Tile { panel: tp, .. } if tp == panel => {
                                    assert!(psub < u.sublevel && u.sublevel < finish);
                                    if panel + 1 < shape.panels {
                                        let next =
                                            sub_of(&UnitKind::Panel { panel: panel + 1 }).unwrap();
                                        assert!(u.sublevel < next);
                                    }
                                }
                                _ => {}
                            }
                        }
                    }
                }
            }
        }

        // Cross-task happens-before: every unit of a child finishes before
        // any unit of its parent starts.
        for t in plan.tasks() {
            let first = plan.task_units(t.node).iter().map(|u| u.sublevel).min();
            for mg in &t.merges {
                let last = plan.task_units(mg.child).iter().map(|u| u.sublevel).max();
                assert!(
                    last < first,
                    "child {} overlaps parent {}",
                    mg.child,
                    t.node
                );
            }
        }
    }

    #[test]
    fn split_respects_threshold_and_toggle() {
        let sym = big(vec![64, 64], &[(0, 1)]);
        let max_front = ExecutionPlan::from_symbolic(&sym)
            .tasks()
            .iter()
            .map(PlanTask::front_dim)
            .max()
            .unwrap();
        assert!(max_front >= SplitConfig::DEFAULT_MIN_DIM);

        let off = ExecutionPlan::from_symbolic_with_split(&sym, SplitConfig::off());
        assert!(!off.has_units());
        assert_eq!(off.critical_path_cost(), off.critical_path_cost_unsplit());

        let above = SplitConfig::on().with_min_dim(max_front + 1);
        assert!(!ExecutionPlan::from_symbolic_with_split(&sym, above).has_units());

        let exact = SplitConfig::on().with_min_dim(max_front);
        assert!(ExecutionPlan::from_symbolic_with_split(&sym, exact).has_units());
    }

    #[test]
    fn split_reduces_modeled_critical_path() {
        let sym = big(vec![64, 64], &[(0, 1)]);
        let split = ExecutionPlan::from_symbolic_with_split(&sym, SplitConfig::on());
        let whole = ExecutionPlan::from_symbolic_with_split(&sym, SplitConfig::off());
        assert!(split.has_units());
        assert_eq!(
            split.critical_path_cost_unsplit(),
            whole.critical_path_cost()
        );
        assert!(
            split.critical_path_cost() < whole.critical_path_cost(),
            "split chain {} not below whole {}",
            split.critical_path_cost(),
            whole.critical_path_cost()
        );
        assert!(split.largest_task_fraction() < whole.largest_task_fraction());
        let occ = split.level_occupancy(4);
        assert!(occ > 0.0 && occ <= 1.0);
        assert_eq!(split.level_occupancy(1), 1.0);
    }

    #[test]
    fn split_config_parses_env_syntax() {
        assert_eq!(SplitConfig::parse("off"), Some(SplitConfig::off()));
        assert_eq!(SplitConfig::parse("0"), Some(SplitConfig::off()));
        assert_eq!(SplitConfig::parse("on"), Some(SplitConfig::on()));
        assert_eq!(SplitConfig::parse("1"), Some(SplitConfig::on()));
        assert_eq!(SplitConfig::parse(""), Some(SplitConfig::on()));
        assert_eq!(
            SplitConfig::parse("144"),
            Some(SplitConfig::on().with_min_dim(144))
        );
        assert_eq!(
            SplitConfig::parse("144:96"),
            Some(SplitConfig::on().with_min_dim(144).with_tile(96))
        );
        // Tile rounds up to a multiple of the kernel panel width.
        assert_eq!(SplitConfig::parse("144:50").unwrap().tile, 2 * SPLIT_NB);
        assert_eq!(SplitConfig::parse("bogus"), None);
        assert_eq!(SplitConfig::parse("144:0"), None);
        assert_eq!(SplitConfig::parse("144:x"), None);
    }
}
