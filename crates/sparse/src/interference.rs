//! Static interference analysis over the [`ExecutionPlan`] IR.
//!
//! The plan's `levels()` doc promises that tasks within a topological
//! level are mutually independent. The executor's batched dispatch mode
//! ([`crate::ParallelExecutor`]) *relies* on that promise: its only
//! ordering is one atomic cursor per level and a barrier between levels,
//! so two tasks in the same level run with no ordering at all. This
//! module turns the promise into a proof:
//!
//! 1. [`extract_accesses`] derives every task's read/write set straight
//!    from the plan — the Hessian block columns it assembles (reads), the
//!    child update-matrix rectangles its [`ChildMerge`](crate::ChildMerge)
//!    scatter programs
//!    copy (reads), and the factor columns plus own update matrix it
//!    publishes (writes). This mirrors `numeric::compute_task` exactly;
//!    the frontal workspace is worker-private and therefore not a shared
//!    resource.
//! 2. The happens-before relation available to batched dispatch is just
//!    `level(a) < level(b)` — the level barrier. [`check_accesses`] proves
//!    that every conflicting pair (write–write, or read–write on
//!    overlapping rectangles of the same resource) is ordered by it, i.e.
//!    the writer sits at a strictly lower level than every reader and no
//!    two writers overlap at all.
//! 3. [`certify`] additionally checks structural sanity (the level table
//!    partitions the tasks, parents sit above children, scatter blocks
//!    stay inside their source and destination bounds) and, when every
//!    check passes, emits a [`PlanCertificate`] carrying a structural
//!    fingerprint of the plan. The executor re-derives the fingerprint
//!    before trusting a certificate, so a certificate can never be applied
//!    to a plan it was not computed from.
//!
//! `supernova-analyze` re-exports this pass and runs it over the committed
//! dataset plans in CI; `solvers::engine` certifies each plan once at
//! plan-cache build time.

use std::fmt;

use crate::plan::{ExecutionPlan, PlanTask, PlanUnit, UnitKind};

/// A scalar rectangle within one resource (update matrix or factor
/// columns). `rows`/`cols` use saturating arithmetic so a whole-resource
/// region can be expressed as `Region::all()`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Region {
    /// First scalar row.
    pub row: usize,
    /// First scalar column.
    pub col: usize,
    /// Height in scalar rows.
    pub rows: usize,
    /// Width in scalar columns.
    pub cols: usize,
}

impl Region {
    /// A region covering the entire resource.
    pub fn all() -> Self {
        Region {
            row: 0,
            col: 0,
            rows: usize::MAX,
            cols: usize::MAX,
        }
    }

    /// Whether two rectangles share at least one scalar entry.
    pub fn overlaps(&self, other: &Region) -> bool {
        self.rows > 0
            && self.cols > 0
            && other.rows > 0
            && other.cols > 0
            && self.row < other.row.saturating_add(other.rows)
            && other.row < self.row.saturating_add(self.rows)
            && self.col < other.col.saturating_add(other.cols)
            && other.col < self.col.saturating_add(self.cols)
    }
}

/// A shared resource a plan task can touch. The per-worker frontal
/// workspace is private and deliberately absent.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Resource {
    /// Block column `b` of the assembled Hessian (read-only input).
    HessianCol(usize),
    /// The cached update matrix `L_C` of task `s` (written by `s`, read by
    /// the parent's extend-add).
    Update(usize),
    /// The published factor columns `[L_A; L_B]` of task `s`.
    FactorNode(usize),
}

impl fmt::Display for Resource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Resource::HessianCol(b) => write!(f, "H[:, block {b}]"),
            Resource::Update(s) => write!(f, "update({s})"),
            Resource::FactorNode(s) => write!(f, "factor({s})"),
        }
    }
}

/// Read or write.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AccessKind {
    /// The task reads the region.
    Read,
    /// The task writes (publishes) the region.
    Write,
}

/// One element of a task's read/write set.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Access {
    /// The accessing task.
    pub task: usize,
    /// What is accessed.
    pub resource: Resource,
    /// Read or write.
    pub kind: AccessKind,
    /// The scalar rectangle touched within the resource.
    pub region: Region,
}

/// Why a plan failed certification. `id()` strings are stable and appear
/// in machine-readable diagnostics.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum InterferenceKind {
    /// Two distinct tasks write overlapping regions of one resource.
    WriteWrite,
    /// A read and a write of overlapping regions sit in the same level —
    /// the level barrier cannot order them.
    SameLevelConflict,
    /// A reader sits at a *lower* level than the writer it depends on
    /// (it would observe unpublished data).
    ReadBeforeWrite,
    /// A scatter block escapes its source or destination bounds.
    Bounds,
    /// The level table does not partition the tasks, or a parent does not
    /// sit strictly above a child.
    LevelPartition,
    /// Two tile sub-units scheduled in the same sub-level write overlapping
    /// rectangles of one split front — the sub-level barrier cannot order
    /// them.
    OverlappingTiles,
    /// A trailing-update sub-unit is scheduled at or before the panel step
    /// it depends on (either the panel that produces its operand, or — for
    /// a later panel — the update tile that feeds its strip).
    UpdateBeforePanel,
}

impl InterferenceKind {
    /// Stable diagnostic id.
    pub fn id(&self) -> &'static str {
        match self {
            InterferenceKind::WriteWrite => "write-write",
            InterferenceKind::SameLevelConflict => "same-level-conflict",
            InterferenceKind::ReadBeforeWrite => "read-before-write",
            InterferenceKind::Bounds => "bounds",
            InterferenceKind::LevelPartition => "level-partition",
            InterferenceKind::OverlappingTiles => "overlapping-tiles",
            InterferenceKind::UpdateBeforePanel => "update-before-panel",
        }
    }
}

impl fmt::Display for InterferenceKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.id())
    }
}

/// One disproof of level-safety.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct InterferenceViolation {
    /// Which check failed.
    pub kind: InterferenceKind,
    /// The first involved task.
    pub task_a: usize,
    /// The second involved task (equal to `task_a` for unary checks).
    pub task_b: usize,
    /// Human-readable detail.
    pub message: String,
}

impl fmt::Display for InterferenceViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}] tasks {}/{}: {}",
            self.kind, self.task_a, self.task_b, self.message
        )
    }
}

/// The proof token that a plan is level-safe: every intra-level task pair
/// is access-disjoint, so batched (level-barrier) dispatch is observably
/// identical to inline postorder execution.
///
/// The certificate is bound to the plan it was computed from by a
/// structural fingerprint; [`covers`](Self::covers) re-derives the
/// fingerprint, so certificates cannot be replayed against other plans.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PlanCertificate {
    fingerprint: u64,
    num_tasks: usize,
    num_levels: usize,
    accesses: usize,
}

impl PlanCertificate {
    /// The structural fingerprint of the certified plan.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Tasks in the certified plan.
    pub fn num_tasks(&self) -> usize {
        self.num_tasks
    }

    /// Topological levels in the certified plan.
    pub fn num_levels(&self) -> usize {
        self.num_levels
    }

    /// Size of the read/write set the proof covered.
    pub fn accesses(&self) -> usize {
        self.accesses
    }

    /// Whether this certificate was computed from `plan` — the executor's
    /// gate before switching to batched dispatch.
    pub fn covers(&self, plan: &ExecutionPlan) -> bool {
        self.num_tasks == plan.num_tasks()
            && self.num_levels == plan.levels().len()
            && self.fingerprint == plan_fingerprint(plan)
    }
}

/// FNV-1a over the plan's complete task/level/scatter structure. Any
/// change to dependencies, level assignment, front layout or a scatter
/// target changes the fingerprint.
pub fn plan_fingerprint(plan: &ExecutionPlan) -> u64 {
    let mut h = Fnv::new();
    h.push(plan.num_tasks());
    h.push(plan.levels().len());
    for t in plan.tasks() {
        h.push(t.node);
        h.push(t.parent.map_or(usize::MAX, |p| p));
        h.push(t.level);
        h.push(t.first_col);
        h.push(t.ncols);
        h.push(t.pivot_dim);
        h.push(t.rem_dim);
        h.push(t.merges.len());
        for mg in &t.merges {
            h.push(mg.child);
            h.push(mg.blocks.len());
            for b in &mg.blocks {
                h.push(b.src_row);
                h.push(b.src_col);
                h.push(b.dst_row);
                h.push(b.dst_col);
                h.push(b.rows);
                h.push(b.cols);
            }
        }
    }
    // Split overlay: hashed only when present, so plans without sub-units
    // keep their historical fingerprint. The split configuration itself is
    // part of the hash — the same structure built under a different split
    // config is a different plan.
    if plan.has_units() {
        h.push(usize::MAX); // domain separator
        let sc = plan.split_config();
        h.push(usize::from(sc.enabled));
        h.push(sc.min_dim);
        h.push(sc.tile);
        h.push(plan.num_units());
        h.push(plan.unit_levels().len());
        for u in plan.units() {
            h.push(u.task);
            h.push(u.sublevel);
            match u.kind {
                UnitKind::Whole => h.push(0),
                UnitKind::Assemble { strip } => {
                    h.push(1);
                    h.push(strip);
                }
                UnitKind::Panel { panel } => {
                    h.push(2);
                    h.push(panel);
                }
                UnitKind::Tile { panel, strip } => {
                    h.push(3);
                    h.push(panel);
                    h.push(strip);
                }
                UnitKind::Finish => h.push(4),
            }
        }
    }
    h.finish()
}

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn push(&mut self, v: usize) {
        for b in (v as u64).to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn finish(self) -> u64 {
        self.0
    }
}

/// Derives the per-task read/write sets from the plan, mirroring what
/// `numeric::compute_task` actually touches:
///
/// - **reads**: every owned Hessian block column (assembly), and one
///   rectangle of each merge child's update matrix per scatter block
///   (extend-add);
/// - **writes**: the task's published factor columns and its own cached
///   update matrix.
pub fn extract_accesses(plan: &ExecutionPlan) -> Vec<Access> {
    let mut out = Vec::new();
    for task in plan.tasks() {
        let s = task.node;
        for j in task.cols() {
            out.push(Access {
                task: s,
                resource: Resource::HessianCol(j),
                kind: AccessKind::Read,
                region: Region::all(),
            });
        }
        for mg in &task.merges {
            for b in &mg.blocks {
                out.push(Access {
                    task: s,
                    resource: Resource::Update(mg.child),
                    kind: AccessKind::Read,
                    region: Region {
                        row: b.src_row,
                        col: b.src_col,
                        rows: b.rows,
                        cols: b.cols,
                    },
                });
            }
        }
        out.push(Access {
            task: s,
            resource: Resource::FactorNode(s),
            kind: AccessKind::Write,
            region: Region::all(),
        });
        if task.rem_dim > 0 {
            out.push(Access {
                task: s,
                resource: Resource::Update(s),
                kind: AccessKind::Write,
                region: Region {
                    row: 0,
                    col: 0,
                    rows: task.rem_dim,
                    cols: task.rem_dim,
                },
            });
        }
    }
    out
}

/// Proves pairwise disjointness of the access set under level-barrier
/// ordering: `level_of[t]` is the topological level of task `t`, and the
/// only happens-before edge batched dispatch provides is
/// `level(a) < level(b)`.
///
/// Returns every disproof found (empty = proven safe). Exposed separately
/// from [`certify`] so mutation tests can corrupt an extracted access set
/// and watch the right check fire.
pub fn check_accesses(accesses: &[Access], level_of: &[usize]) -> Vec<InterferenceViolation> {
    let mut out = Vec::new();
    // Group by resource: accesses sorted by resource, then split.
    let mut order: Vec<usize> = (0..accesses.len()).collect();
    order.sort_by(|&a, &b| {
        accesses[a]
            .resource
            .cmp(&accesses[b].resource)
            .then(accesses[a].task.cmp(&accesses[b].task))
    });
    let mut i = 0usize;
    while i < order.len() {
        let res = accesses[order[i]].resource;
        let mut j = i;
        while j < order.len() && accesses[order[j]].resource == res {
            j += 1;
        }
        let group = &order[i..j];
        let writers: Vec<&Access> = group
            .iter()
            .map(|&k| &accesses[k])
            .filter(|a| a.kind == AccessKind::Write)
            .collect();
        let readers: Vec<&Access> = group
            .iter()
            .map(|&k| &accesses[k])
            .filter(|a| a.kind == AccessKind::Read)
            .collect();
        for (wi, w) in writers.iter().enumerate() {
            for w2 in &writers[wi + 1..] {
                if w.task != w2.task && w.region.overlaps(&w2.region) {
                    out.push(InterferenceViolation {
                        kind: InterferenceKind::WriteWrite,
                        task_a: w.task.min(w2.task),
                        task_b: w.task.max(w2.task),
                        message: format!("both write overlapping regions of {res}"),
                    });
                }
            }
            for r in &readers {
                if r.task == w.task || !r.region.overlaps(&w.region) {
                    continue;
                }
                let (lw, lr) = (level_of[w.task], level_of[r.task]);
                if lw == lr {
                    out.push(InterferenceViolation {
                        kind: InterferenceKind::SameLevelConflict,
                        task_a: w.task,
                        task_b: r.task,
                        message: format!(
                            "task {} writes and task {} reads {res} in the same level {lw} — \
                             the level barrier cannot order them",
                            w.task, r.task
                        ),
                    });
                } else if lr < lw {
                    out.push(InterferenceViolation {
                        kind: InterferenceKind::ReadBeforeWrite,
                        task_a: w.task,
                        task_b: r.task,
                        message: format!(
                            "task {} (level {lr}) reads {res} before task {} (level {lw}) \
                             writes it",
                            r.task, w.task
                        ),
                    });
                }
            }
        }
        i = j;
    }
    dedup_violations(&mut out);
    out
}

/// Sorts and deduplicates (many scatter blocks of one merge produce the
/// same logical pair conflict).
fn dedup_violations(out: &mut Vec<InterferenceViolation>) {
    out.sort_by(|a, b| {
        (a.task_a, a.task_b, a.kind.id())
            .cmp(&(b.task_a, b.task_b, b.kind.id()))
            .then_with(|| a.message.cmp(&b.message))
    });
    out.dedup_by(|a, b| a.kind == b.kind && a.task_a == b.task_a && a.task_b == b.task_b);
}

/// Structural checks that don't need the access sets: the level table
/// partitions the tasks, every merge child sits strictly below its parent,
/// and every scatter block stays inside its source and destination.
fn check_structure(plan: &ExecutionPlan) -> Vec<InterferenceViolation> {
    let mut out = Vec::new();
    let tasks = plan.tasks();
    let mut seen = vec![0usize; tasks.len()];
    for (lvl, members) in plan.levels().iter().enumerate() {
        for &s in members {
            if s >= tasks.len() || tasks[s].level != lvl {
                out.push(InterferenceViolation {
                    kind: InterferenceKind::LevelPartition,
                    task_a: s,
                    task_b: s,
                    message: format!("level table lists task {s} at level {lvl}"),
                });
            } else {
                seen[s] += 1;
            }
        }
    }
    for (s, &n) in seen.iter().enumerate() {
        if n != 1 {
            out.push(InterferenceViolation {
                kind: InterferenceKind::LevelPartition,
                task_a: s,
                task_b: s,
                message: format!("task {s} appears {n} times in the level table"),
            });
        }
    }
    for task in tasks {
        let front = task.front_dim();
        for mg in &task.merges {
            if mg.child >= tasks.len() {
                out.push(InterferenceViolation {
                    kind: InterferenceKind::LevelPartition,
                    task_a: task.node,
                    task_b: mg.child,
                    message: format!("merge child {} out of range", mg.child),
                });
                continue;
            }
            let child: &PlanTask = &tasks[mg.child];
            if child.level >= task.level {
                out.push(InterferenceViolation {
                    kind: InterferenceKind::LevelPartition,
                    task_a: mg.child,
                    task_b: task.node,
                    message: format!(
                        "merge child {} (level {}) not strictly below parent {} (level {})",
                        mg.child, child.level, task.node, task.level
                    ),
                });
            }
            for b in &mg.blocks {
                let src_ok =
                    b.src_row + b.rows <= child.rem_dim && b.src_col + b.cols <= child.rem_dim;
                let dst_ok = b.dst_row + b.rows <= front
                    && b.dst_col + b.cols <= front
                    && b.dst_row >= b.dst_col;
                if !src_ok || !dst_ok {
                    out.push(InterferenceViolation {
                        kind: InterferenceKind::Bounds,
                        task_a: mg.child,
                        task_b: task.node,
                        message: format!(
                            "scatter block {b:?} escapes child update ({}×{}) or parent \
                             front ({front}×{front})",
                            child.rem_dim, child.rem_dim
                        ),
                    });
                }
            }
        }
    }
    dedup_violations(&mut out);
    out
}

/// The front rectangle a sub-unit touches, in scalar front coordinates.
/// `write` is what the unit mutates, `read` what it additionally consumes
/// from earlier sub-levels (`None` when the read set is inside the write
/// set).
fn unit_regions(
    kind: &UnitKind,
    shape: &crate::plan::SplitShape,
    front_dim: usize,
    pivot_dim: usize,
) -> (Region, Option<Region>) {
    let rect = |row: usize, col: usize, rows: usize, cols: usize| Region {
        row,
        col,
        rows,
        cols,
    };
    match *kind {
        UnitKind::Whole | UnitKind::Finish => (rect(0, 0, 0, 0), Some(Region::all())),
        UnitKind::Assemble { strip } => {
            let col0 = strip * shape.tile;
            (
                rect(0, col0, front_dim, shape.strip_width(strip, front_dim)),
                None,
            )
        }
        UnitKind::Panel { panel } => {
            let (k, _) = shape.panel_cols(panel, pivot_dim);
            let strip_end = ((shape.strip_of_panel(panel) + 1) * shape.tile).min(front_dim);
            (rect(k, k, front_dim - k, strip_end - k), None)
        }
        UnitKind::Tile { panel, strip } => {
            let (k, b) = shape.panel_cols(panel, pivot_dim);
            let col0 = strip * shape.tile;
            (
                rect(
                    col0,
                    col0,
                    front_dim - col0,
                    shape.strip_width(strip, front_dim),
                ),
                Some(rect(col0, k, front_dim - col0, b)),
            )
        }
    }
}

/// Proves the *sub-unit* schedule of a split plan safe, against the only
/// happens-before edge unit-granular batched dispatch provides: the
/// sub-level barrier (`sublevel(a) < sublevel(b)`). Checks, per split
/// task:
///
/// - unit indices stay inside the task's strip/panel grid (`Bounds`);
/// - assembles run strictly before, and the finish strictly after, every
///   other unit of the task (`LevelPartition`);
/// - every tile runs strictly after its producing panel, and every later
///   panel strictly after the update tiles feeding its strip
///   (`UpdateBeforePanel`);
/// - units sharing a sub-level touch pairwise-disjoint front rectangles
///   (`OverlappingTiles` for tile/tile writes, `SameLevelConflict`
///   otherwise);
///
/// and, across tasks, that every unit of a merge child sits strictly below
/// every unit of its parent (`ReadBeforeWrite`).
///
/// Exposed with an explicit `units` slice (normally
/// [`ExecutionPlan::units`]) so mutation tests can corrupt a copied unit
/// table and watch the matching check fire.
pub fn check_unit_schedule(plan: &ExecutionPlan, units: &[PlanUnit]) -> Vec<InterferenceViolation> {
    let mut out = Vec::new();
    let tasks = plan.tasks();
    let mut by_task: Vec<Vec<&PlanUnit>> = vec![Vec::new(); tasks.len()];
    for u in units {
        if u.task >= tasks.len() {
            out.push(InterferenceViolation {
                kind: InterferenceKind::LevelPartition,
                task_a: u.task,
                task_b: u.task,
                message: format!("unit references task {} out of range", u.task),
            });
        } else {
            by_task[u.task].push(u);
        }
    }
    for (s, tus) in by_task.iter().enumerate() {
        let task = &tasks[s];
        let Some(shape) = plan.split_shape(s) else {
            for u in tus {
                if u.kind != UnitKind::Whole {
                    out.push(InterferenceViolation {
                        kind: InterferenceKind::LevelPartition,
                        task_a: s,
                        task_b: s,
                        message: format!("unsplit task {s} carries sub-unit {:?}", u.kind),
                    });
                }
            }
            continue;
        };
        if tus.is_empty() {
            out.push(InterferenceViolation {
                kind: InterferenceKind::LevelPartition,
                task_a: s,
                task_b: s,
                message: format!("split task {s} has no units"),
            });
            continue;
        }
        let (dim, m) = (task.front_dim(), task.pivot_dim);

        // Grid bounds; out-of-grid units are excluded from region checks.
        let in_grid = |u: &PlanUnit| match u.kind {
            UnitKind::Whole => false,
            UnitKind::Assemble { strip } => strip < shape.strips,
            UnitKind::Panel { panel } => panel < shape.panels,
            UnitKind::Tile { panel, strip } => panel < shape.panels && strip < shape.strips,
            UnitKind::Finish => true,
        };
        for u in tus {
            if !in_grid(u) {
                out.push(InterferenceViolation {
                    kind: InterferenceKind::Bounds,
                    task_a: s,
                    task_b: s,
                    message: format!(
                        "unit {:?} escapes task {s}'s {}×{} strip/panel grid",
                        u.kind, shape.strips, shape.panels
                    ),
                });
            }
        }
        let tus: Vec<&&PlanUnit> = tus.iter().filter(|u| in_grid(u)).collect();

        // Locate the serial spine.
        let mut panel_sub = vec![None; shape.panels];
        let mut finish_sub = None;
        let mut assemble_max = None;
        for u in &tus {
            match u.kind {
                UnitKind::Panel { panel } => panel_sub[panel] = Some(u.sublevel),
                UnitKind::Finish => finish_sub = Some(u.sublevel),
                UnitKind::Assemble { .. } => {
                    assemble_max =
                        Some(assemble_max.map_or(u.sublevel, |a: usize| a.max(u.sublevel)));
                }
                _ => {}
            }
        }

        // Panel → its tiles.
        for u in &tus {
            if let UnitKind::Tile { panel, strip } = u.kind {
                match panel_sub[panel] {
                    Some(ps) if ps < u.sublevel => {}
                    Some(ps) => out.push(InterferenceViolation {
                        kind: InterferenceKind::UpdateBeforePanel,
                        task_a: s,
                        task_b: s,
                        message: format!(
                            "tile ({panel}, {strip}) at sub-level {} not strictly after \
                             panel {panel} at sub-level {ps}",
                            u.sublevel
                        ),
                    }),
                    None => out.push(InterferenceViolation {
                        kind: InterferenceKind::LevelPartition,
                        task_a: s,
                        task_b: s,
                        message: format!("tile ({panel}, {strip}) references missing panel"),
                    }),
                }
            }
        }
        // Feed edges: panel p needs every earlier panel's tile into its own
        // strip completed first.
        for p in 0..shape.panels {
            let Some(ps) = panel_sub[p] else {
                out.push(InterferenceViolation {
                    kind: InterferenceKind::LevelPartition,
                    task_a: s,
                    task_b: s,
                    message: format!("split task {s} missing panel {p}"),
                });
                continue;
            };
            let sp = shape.strip_of_panel(p);
            for u in &tus {
                if let UnitKind::Tile { panel: tp, strip } = u.kind {
                    if tp < p && strip == sp && u.sublevel >= ps {
                        out.push(InterferenceViolation {
                            kind: InterferenceKind::UpdateBeforePanel,
                            task_a: s,
                            task_b: s,
                            message: format!(
                                "panel {p} at sub-level {ps} runs at or before tile \
                                 ({tp}, {strip}) feeding its strip (sub-level {})",
                                u.sublevel
                            ),
                        });
                    }
                }
            }
        }
        // Assembles first, finish last.
        if let Some(amax) = assemble_max {
            for u in &tus {
                if !matches!(u.kind, UnitKind::Assemble { .. }) && u.sublevel <= amax {
                    out.push(InterferenceViolation {
                        kind: InterferenceKind::LevelPartition,
                        task_a: s,
                        task_b: s,
                        message: format!(
                            "unit {:?} at sub-level {} not strictly after assembly \
                             (sub-level {amax})",
                            u.kind, u.sublevel
                        ),
                    });
                }
            }
        }
        match finish_sub {
            Some(fs) => {
                for u in &tus {
                    if !matches!(u.kind, UnitKind::Finish) && u.sublevel >= fs {
                        out.push(InterferenceViolation {
                            kind: InterferenceKind::LevelPartition,
                            task_a: s,
                            task_b: s,
                            message: format!(
                                "unit {:?} at sub-level {} not strictly before the finish \
                                 (sub-level {fs})",
                                u.kind, u.sublevel
                            ),
                        });
                    }
                }
            }
            None => out.push(InterferenceViolation {
                kind: InterferenceKind::LevelPartition,
                task_a: s,
                task_b: s,
                message: format!("split task {s} has no finish unit"),
            }),
        }
        // Same-sub-level rectangle disjointness on the shared front.
        for (i, a) in tus.iter().enumerate() {
            let (aw, ar) = unit_regions(&a.kind, &shape, dim, m);
            for b in &tus[i + 1..] {
                if a.sublevel != b.sublevel {
                    continue;
                }
                let (bw, br) = unit_regions(&b.kind, &shape, dim, m);
                let conflict = aw.overlaps(&bw)
                    || ar.as_ref().is_some_and(|r| r.overlaps(&bw))
                    || br.as_ref().is_some_and(|r| r.overlaps(&aw));
                if !conflict {
                    continue;
                }
                let tiles = matches!(a.kind, UnitKind::Tile { .. })
                    && matches!(b.kind, UnitKind::Tile { .. });
                out.push(InterferenceViolation {
                    kind: if tiles {
                        InterferenceKind::OverlappingTiles
                    } else {
                        InterferenceKind::SameLevelConflict
                    },
                    task_a: s,
                    task_b: s,
                    message: format!(
                        "units {:?} and {:?} of task {s} share sub-level {} but touch \
                         overlapping front rectangles",
                        a.kind, b.kind, a.sublevel
                    ),
                });
            }
        }
    }
    // Cross-task: a child's units all complete before any parent unit runs.
    for task in tasks {
        let first = by_task[task.node].iter().map(|u| u.sublevel).min();
        for mg in &task.merges {
            if mg.child >= tasks.len() {
                continue;
            }
            let last = by_task[mg.child].iter().map(|u| u.sublevel).max();
            if let (Some(first), Some(last)) = (first, last) {
                if last >= first {
                    out.push(InterferenceViolation {
                        kind: InterferenceKind::ReadBeforeWrite,
                        task_a: mg.child,
                        task_b: task.node,
                        message: format!(
                            "parent {} starts at sub-level {first} while child {} still \
                             runs at sub-level {last}",
                            task.node, mg.child
                        ),
                    });
                }
            }
        }
    }
    dedup_violations(&mut out);
    out
}

/// Runs the full interference proof over `plan` and, if it holds, emits
/// the [`PlanCertificate`] the executor's batched dispatch mode requires.
///
/// # Errors
///
/// Returns every [`InterferenceViolation`] found when the plan cannot be
/// proven level-safe.
pub fn certify(plan: &ExecutionPlan) -> Result<PlanCertificate, Vec<InterferenceViolation>> {
    let mut violations = check_structure(plan);
    let accesses = extract_accesses(plan);
    let level_of: Vec<usize> = plan.tasks().iter().map(|t| t.level).collect();
    violations.extend(check_accesses(&accesses, &level_of));
    if plan.has_units() {
        violations.extend(check_unit_schedule(plan, plan.units()));
    }
    if !violations.is_empty() {
        dedup_violations(&mut violations);
        return Err(violations);
    }
    Ok(PlanCertificate {
        fingerprint: plan_fingerprint(plan),
        num_tasks: plan.num_tasks(),
        num_levels: plan.levels().len(),
        accesses: accesses.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BlockPattern, SymbolicFactor};

    fn plan() -> ExecutionPlan {
        let mut p = BlockPattern::new(vec![2, 3, 1, 2, 2, 3, 1, 2]);
        for i in 0..7 {
            p.add_block_edge(i, i + 1);
        }
        p.add_block_edge(0, 5);
        p.add_block_edge(2, 7);
        p.add_block_edge(3, 6);
        ExecutionPlan::from_symbolic(&SymbolicFactor::analyze(&p, 0))
    }

    #[test]
    fn real_plans_certify() {
        let plan = plan();
        let cert = certify(&plan).expect("loopy plan must certify");
        assert!(cert.covers(&plan));
        assert_eq!(cert.num_tasks(), plan.num_tasks());
        assert!(cert.accesses() > 0);
        // A different plan is not covered.
        let mut p2 = BlockPattern::new(vec![2; 5]);
        for i in 0..4 {
            p2.add_block_edge(i, i + 1);
        }
        let other = ExecutionPlan::from_symbolic(&SymbolicFactor::analyze(&p2, 0));
        assert!(!cert.covers(&other));
    }

    #[test]
    fn fingerprint_is_structure_sensitive() {
        let a = plan_fingerprint(&plan());
        let mut p = BlockPattern::new(vec![2, 3, 1, 2, 2, 3, 1, 2]);
        for i in 0..7 {
            p.add_block_edge(i, i + 1);
        }
        p.add_block_edge(0, 5);
        p.add_block_edge(2, 7);
        // One edge fewer than `plan()`.
        let b = plan_fingerprint(&ExecutionPlan::from_symbolic(&SymbolicFactor::analyze(
            &p, 0,
        )));
        assert_ne!(a, b);
        assert_eq!(a, plan_fingerprint(&plan()));
    }

    #[test]
    fn regions_overlap_correctly() {
        let a = Region {
            row: 0,
            col: 0,
            rows: 4,
            cols: 4,
        };
        let b = Region {
            row: 3,
            col: 3,
            rows: 2,
            cols: 2,
        };
        let c = Region {
            row: 4,
            col: 0,
            rows: 2,
            cols: 4,
        };
        assert!(a.overlaps(&b));
        assert!(b.overlaps(&a));
        assert!(!a.overlaps(&c));
        assert!(Region::all().overlaps(&a));
        let empty = Region {
            row: 0,
            col: 0,
            rows: 0,
            cols: 0,
        };
        assert!(!empty.overlaps(&a));
    }

    #[test]
    fn same_level_write_read_is_rejected() {
        // Two level-0 tasks; task 1 reads task 0's update.
        let accesses = [
            Access {
                task: 0,
                resource: Resource::Update(0),
                kind: AccessKind::Write,
                region: Region {
                    row: 0,
                    col: 0,
                    rows: 4,
                    cols: 4,
                },
            },
            Access {
                task: 1,
                resource: Resource::Update(0),
                kind: AccessKind::Read,
                region: Region {
                    row: 1,
                    col: 1,
                    rows: 2,
                    cols: 2,
                },
            },
        ];
        let v = check_accesses(&accesses, &[0, 0]);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].kind, InterferenceKind::SameLevelConflict);
    }

    #[test]
    fn overlapping_writes_are_rejected_regardless_of_level() {
        let w = |task: usize| Access {
            task,
            resource: Resource::FactorNode(7),
            kind: AccessKind::Write,
            region: Region::all(),
        };
        let v = check_accesses(&[w(0), w(1)], &[0, 1]);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].kind, InterferenceKind::WriteWrite);
        assert_eq!(v[0].kind.id(), "write-write");
    }

    #[test]
    fn disjoint_writes_to_one_resource_are_fine() {
        let mk = |task: usize, row: usize| Access {
            task,
            resource: Resource::Update(9),
            kind: AccessKind::Write,
            region: Region {
                row,
                col: 0,
                rows: 2,
                cols: 2,
            },
        };
        assert!(check_accesses(&[mk(0, 0), mk(1, 4)], &[0, 0]).is_empty());
    }

    #[test]
    fn read_below_writer_level_is_rejected() {
        let accesses = [
            Access {
                task: 3,
                resource: Resource::Update(3),
                kind: AccessKind::Write,
                region: Region::all(),
            },
            Access {
                task: 1,
                resource: Resource::Update(3),
                kind: AccessKind::Read,
                region: Region::all(),
            },
        ];
        let v = check_accesses(&accesses, &[0, 0, 0, 2]);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].kind, InterferenceKind::ReadBeforeWrite);
    }

    fn split_plan() -> ExecutionPlan {
        let mut p = BlockPattern::new(vec![64, 64, 64]);
        p.add_block_edge(0, 2);
        p.add_block_edge(1, 2);
        ExecutionPlan::from_symbolic_with_split(
            &SymbolicFactor::analyze(&p, 0),
            crate::plan::SplitConfig::on(),
        )
    }

    #[test]
    fn split_plans_certify_and_fingerprint_covers_split_config() {
        let plan = split_plan();
        assert!(plan.has_units());
        let cert = certify(&plan).expect("split plan must certify");
        assert!(cert.covers(&plan));

        // The same structure built unsplit, or under a different strip
        // width, is a different plan.
        let mut p = BlockPattern::new(vec![64, 64, 64]);
        p.add_block_edge(0, 2);
        p.add_block_edge(1, 2);
        let sym = SymbolicFactor::analyze(&p, 0);
        let unsplit =
            ExecutionPlan::from_symbolic_with_split(&sym, crate::plan::SplitConfig::off());
        let wide = ExecutionPlan::from_symbolic_with_split(
            &sym,
            crate::plan::SplitConfig::on().with_tile(96),
        );
        assert!(!cert.covers(&unsplit));
        assert!(!cert.covers(&wide));
        certify(&unsplit).expect("unsplit plan must certify");
        certify(&wide).expect("wide-tile plan must certify");
    }

    #[test]
    fn clean_unit_schedule_passes() {
        let plan = split_plan();
        assert!(check_unit_schedule(&plan, plan.units()).is_empty());
    }

    #[test]
    fn duplicated_tile_strip_is_overlapping_tiles() {
        let plan = split_plan();
        let mut units: Vec<PlanUnit> = plan.units().to_vec();
        // Retarget some tile onto its sibling's strip: two same-sub-level
        // writers of one strip.
        let (donor, victim) = {
            let mut pair = None;
            for (i, u) in units.iter().enumerate() {
                if let UnitKind::Tile { panel, strip } = u.kind {
                    for (j, v) in units.iter().enumerate() {
                        if i != j
                            && v.task == u.task
                            && v.sublevel == u.sublevel
                            && matches!(v.kind, UnitKind::Tile { panel: p2, strip: s2 }
                                if p2 == panel && s2 != strip)
                        {
                            pair = Some((i, j));
                        }
                    }
                }
            }
            pair.expect("split plan must have a panel with two tiles")
        };
        let UnitKind::Tile { strip, .. } = units[donor].kind else {
            unreachable!()
        };
        let UnitKind::Tile { panel, .. } = units[victim].kind else {
            unreachable!()
        };
        units[victim].kind = UnitKind::Tile { panel, strip };
        let v = check_unit_schedule(&plan, &units);
        assert!(
            v.iter()
                .any(|x| x.kind == InterferenceKind::OverlappingTiles),
            "expected overlapping-tiles, got {v:?}"
        );
        assert_eq!(InterferenceKind::OverlappingTiles.id(), "overlapping-tiles");
    }

    #[test]
    fn tile_scheduled_before_its_panel_is_rejected() {
        let plan = split_plan();
        let mut units: Vec<PlanUnit> = plan.units().to_vec();
        let idx = units
            .iter()
            .position(|u| matches!(u.kind, UnitKind::Tile { .. }))
            .expect("split plan must have a tile");
        // Drag the tile down to the assembly sub-level, before its panel.
        let base = plan.task_units(units[idx].task)[0].sublevel;
        units[idx].sublevel = base;
        let v = check_unit_schedule(&plan, &units);
        assert!(
            v.iter()
                .any(|x| x.kind == InterferenceKind::UpdateBeforePanel),
            "expected update-before-panel, got {v:?}"
        );
        assert_eq!(
            InterferenceKind::UpdateBeforePanel.id(),
            "update-before-panel"
        );
    }

    #[test]
    fn child_unit_overlapping_parent_is_rejected() {
        let plan = split_plan();
        let parent = plan
            .tasks()
            .iter()
            .find(|t| !t.merges.is_empty())
            .expect("plan must have a parent task");
        let child = parent.merges[0].child;
        let parent_first = plan
            .task_units(parent.node)
            .iter()
            .map(|u| u.sublevel)
            .min()
            .unwrap();
        let mut units: Vec<PlanUnit> = plan.units().to_vec();
        // Push the child's last unit up into the parent's first sub-level.
        let idx = units
            .iter()
            .enumerate()
            .filter(|(_, u)| u.task == child)
            .map(|(i, _)| i)
            .next_back()
            .unwrap();
        units[idx].sublevel = parent_first;
        let v = check_unit_schedule(&plan, &units);
        assert!(
            v.iter()
                .any(|x| x.kind == InterferenceKind::ReadBeforeWrite),
            "expected read-before-write, got {v:?}"
        );
    }

    #[test]
    fn extracted_sets_mirror_compute_task() {
        let plan = plan();
        let accesses = extract_accesses(&plan);
        for task in plan.tasks() {
            let mine: Vec<&Access> = accesses.iter().filter(|a| a.task == task.node).collect();
            // One factor write, one update write iff rem_dim > 0.
            assert_eq!(
                mine.iter()
                    .filter(|a| a.kind == AccessKind::Write
                        && a.resource == Resource::FactorNode(task.node))
                    .count(),
                1
            );
            assert_eq!(
                mine.iter()
                    .filter(|a| a.kind == AccessKind::Write
                        && a.resource == Resource::Update(task.node))
                    .count(),
                usize::from(task.rem_dim > 0)
            );
            // One Hessian read per owned block column.
            assert_eq!(
                mine.iter()
                    .filter(|a| matches!(a.resource, Resource::HessianCol(_)))
                    .count(),
                task.ncols
            );
            // One read per scatter block of each merge.
            let scatter: usize = task.merges.iter().map(|m| m.blocks.len()).sum();
            assert_eq!(
                mine.iter()
                    .filter(
                        |a| a.kind == AccessKind::Read && matches!(a.resource, Resource::Update(_))
                    )
                    .count(),
                scatter
            );
        }
    }
}
