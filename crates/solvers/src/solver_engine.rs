//! The solver handle the serving layer schedules.
//!
//! A [`SolverEngine`] owns one RA-ISAM2 instance plus the bookkeeping a
//! multi-tenant server needs: a step counter, the applied-update log a
//! checkpoint carries, and a degradation knob that maps straight onto the
//! solver's [`StepBudget`](supernova_runtime::StepBudget). The server
//! builds one engine when a session opens and drops it when the session
//! closes. The kernel arenas, the one state worth keeping warm across
//! sessions, live in the [`ParallelExecutor`] every engine of a server
//! shares.

use std::panic::{self, AssertUnwindSafe};
use std::sync::Arc;

use supernova_factors::{Factor, Key, Values, Variable};
use supernova_hw::Platform;
use supernova_runtime::{
    exec_span, hw_span, simulate_step_traced, RelinCostModel, SchedulerConfig, StepBudget,
    StepTrace,
};
use supernova_sparse::ParallelExecutor;
use supernova_trace::{Category, Span, SpanGuard, TraceConfig};

use crate::{OnlineSolver, RaIsam2, RaIsam2Config};

/// One applied online update, as a snapshot carries it: everything a
/// replay needs to reproduce the step bit-for-bit, including
/// the budget degradation level the step actually ran under (degradation
/// changes relinearization selection, so replaying at a different level
/// would diverge).
#[derive(Clone, Debug, PartialEq)]
pub struct UpdateRecord {
    /// Budget degradation level the step ran under.
    pub level: u8,
    /// The new pose's initial guess.
    pub initial: Variable,
    /// The step's factors.
    pub factors: Vec<Factor>,
}

/// What the engine's always-on log keeps per applied update. The step's
/// factors are the next `factors` entries of the solver's factor graph,
/// which only ever appends them, in step order; the log does not hold a
/// second copy.
struct LogEntry {
    level: u8,
    initial: Variable,
    factors: usize,
}

/// A verified-replay checkpoint of a live engine: the full applied-update
/// log plus a witness estimate. [`SolverEngine::restore`] replays the log
/// into a fresh engine — which the determinism machinery proves
/// bit-identical to the original run — then checks the rebuilt estimate
/// against the witness, so a corrupt or mismatched checkpoint is a typed
/// error, never a silently wrong map.
#[derive(Clone, Debug, PartialEq)]
pub struct EngineSnapshot {
    /// Plan-cache generation at snapshot time (informational; replay
    /// rebuilds the plan cache deterministically).
    pub plan_generation: usize,
    /// Every update the engine has applied, in order.
    pub updates: Vec<UpdateRecord>,
    /// Witness: the pose estimates at snapshot time, one per pose.
    pub estimate: Vec<Variable>,
}

/// Why a checkpoint could not be restored.
#[derive(Clone, Debug, PartialEq)]
pub enum RestoreError {
    /// Replay produced a different number of poses than the witness.
    PoseCount {
        /// Poses in the checkpoint witness.
        expected: usize,
        /// Poses after replaying the update log.
        got: usize,
    },
    /// A replayed pose estimate differs from the checkpoint witness.
    EstimateMismatch {
        /// Index of the first diverging pose.
        pose: usize,
    },
    /// An update's factor names a variable no earlier update added, or
    /// one whose kind its residual does not evaluate (see
    /// [`Factor::fits`]); replaying it would panic.
    UnfitVariable {
        /// Index of the update carrying the factor.
        update: usize,
        /// The variable's key.
        key: usize,
    },
    /// Replaying an update panicked (its factorization kept failing after
    /// damping, say): the log describes a system the solver cannot step.
    Unsolvable {
        /// Index of the update whose step panicked.
        update: usize,
    },
}

impl std::fmt::Display for RestoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RestoreError::PoseCount { expected, got } => {
                write!(f, "replay produced {got} poses, checkpoint has {expected}")
            }
            RestoreError::EstimateMismatch { pose } => {
                write!(f, "replayed estimate diverges from witness at pose {pose}")
            }
            RestoreError::UnfitVariable { update, key } => {
                write!(
                    f,
                    "update {update} has a factor that cannot evaluate x{key}"
                )
            }
            RestoreError::Unsolvable { update } => {
                write!(
                    f,
                    "replaying update {update} failed: the solver cannot step it"
                )
            }
        }
    }
}

impl std::error::Error for RestoreError {}

/// One session's RA-ISAM2 instance, as the serving layer schedules it.
pub struct SolverEngine {
    solver: RaIsam2,
    steps: usize,
    trace_cfg: TraceConfig,
    trace_hw: Option<(Platform, SchedulerConfig)>,
    last_span: Option<Span>,
    log: Vec<LogEntry>,
}

impl std::fmt::Debug for SolverEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SolverEngine")
            .field("steps", &self.steps)
            .field("solver", &self.solver)
            .finish()
    }
}

impl SolverEngine {
    /// A fresh engine over the given RA-ISAM2 configuration and cost model.
    pub fn new(config: RaIsam2Config, cost: Arc<dyn RelinCostModel>) -> Self {
        SolverEngine {
            solver: RaIsam2::new(config, cost),
            steps: 0,
            trace_cfg: TraceConfig::default(),
            trace_hw: None,
            last_span: None,
            log: Vec::new(),
        }
    }

    /// Enables or disables span emission for subsequent steps. Disabled
    /// (the default) costs one branch per step and nothing else.
    pub fn set_trace(&mut self, cfg: TraceConfig) {
        self.trace_cfg = cfg;
    }

    /// Additionally prices every traced step on `platform` with the
    /// virtual-time scheduler and attaches the resulting `hw` span
    /// (per-unit busy intervals in modeled cycles) to the step's tree.
    /// Only consulted when tracing is enabled.
    pub fn set_trace_hw(&mut self, platform: Platform, cfg: SchedulerConfig) {
        self.trace_hw = Some((platform, cfg));
    }

    /// Takes the span tree built by the most recent traced step (`None`
    /// when tracing is disabled or the span was already taken). The
    /// caller — serving dispatcher or bench harness — wraps it in its own
    /// root span and records it with a `Tracer`.
    pub fn take_step_span(&mut self) -> Option<Span> {
        self.last_span.take()
    }

    /// Installs the host executor numeric plans run on (a server's engines
    /// share one, so its warm kernel arenas outlive every session).
    pub fn set_executor(&mut self, exec: ParallelExecutor) {
        self.solver.core_mut().set_executor(exec);
    }

    /// The installed host executor; its [`pool_stats`] snapshot witnesses
    /// the zero-alloc steady state of the factorization hot path.
    ///
    /// [`pool_stats`]: ParallelExecutor::pool_stats
    pub fn executor(&self) -> &ParallelExecutor {
        self.solver.core().executor()
    }

    /// Processes one online step (the new pose's initial guess plus its
    /// factors), under the engine's current budget degradation.
    pub fn step(&mut self, initial: Variable, factors: Vec<Factor>) -> StepTrace {
        self.steps += 1;
        self.log.push(LogEntry {
            level: self.solver.budget().degradation(),
            initial: initial.clone(),
            factors: factors.len(),
        });
        if !self.trace_cfg.enabled {
            return self.solver.step(initial, factors);
        }
        let guard = SpanGuard::begin("solver.step", Category::Solver);
        let trace = self.solver.step(initial, factors);
        self.last_span = Some(self.build_step_span(guard, &trace));
        trace
    }

    /// Assembles the step's span tree from the records the step left
    /// behind: zero-width solver markers (ticks = deterministic element
    /// counts), the host executor's wall-clock `exec` span, and — when
    /// [`set_trace_hw`](Self::set_trace_hw) configured a platform — the
    /// simulator's virtual-time `hw` span.
    fn build_step_span(&self, mut guard: SpanGuard, trace: &StepTrace) -> Span {
        let select = Span::marker(
            "solver.select",
            Category::Solver,
            trace.selection_nodes_visited as u64,
        );
        guard.child(select);
        let mut relin = Span::marker(
            "solver.relin",
            Category::Solver,
            trace.relin_jacobian_elems as u64,
        );
        relin.counters.set("factors", trace.relin_factors as u64);
        guard.child(relin);
        guard.child(Span::marker(
            "solver.symbolic",
            Category::Solver,
            trace.symbolic_pattern_elems as u64,
        ));
        if let Some(sched) = self.solver.core().last_host_schedule() {
            // A schedule that predates this span belongs to an earlier
            // step (this step did no numeric refactor); don't attach it.
            if sched.origin >= guard.start() {
                guard.child(exec_span(sched, trace));
            }
        }
        if let Some((platform, cfg)) = &self.trace_hw {
            let (_, exec) = simulate_step_traced(platform, trace, cfg);
            guard.child(hw_span(&exec, platform.soc().freq_hz));
        }
        guard.counter("step", self.steps as u64);
        guard.counter("poses", self.solver.num_poses() as u64);
        guard.counter("degradation", u64::from(self.solver.budget().degradation()));
        guard.finish()
    }

    /// Steps processed, replayed ones included.
    pub fn steps(&self) -> usize {
        self.steps
    }

    /// The current budget (target, safety, degradation level).
    pub fn budget(&self) -> StepBudget {
        self.solver.budget()
    }

    /// Sets the budget degradation level for subsequent steps (clamped to
    /// the budget's ceiling). Level 0 is the full per-step budget; each
    /// level halves it.
    pub fn set_degradation(&mut self, level: u8) {
        self.solver.budget_mut().set_degradation(level);
    }

    /// Variables the last step relinearized / deferred (degradation
    /// observability).
    pub fn last_selected_deferred(&self) -> (usize, usize) {
        (self.solver.last_selected(), self.solver.last_deferred())
    }

    /// Current estimate of one pose.
    pub fn pose_estimate(&self, key: Key) -> Variable {
        self.solver.pose_estimate(key)
    }

    /// Current full trajectory estimate.
    pub fn estimate(&self) -> Values {
        self.solver.estimate()
    }

    /// Number of poses incorporated.
    pub fn num_poses(&self) -> usize {
        self.solver.num_poses()
    }

    /// Canonical bytes of the cached numeric factor (`None` before the
    /// first solve) — the serving layer's bit-exactness probe.
    pub fn numeric_bytes(&self) -> Option<Vec<u8>> {
        self.solver.core().numeric_bytes()
    }

    /// The underlying solver (read-only diagnostics).
    pub fn solver(&self) -> &RaIsam2 {
        &self.solver
    }

    /// How many times the solver's plan cache has been (re)built.
    pub fn plan_generation(&self) -> usize {
        self.solver.core().plan_generation()
    }

    /// Captures the session as a verified-replay checkpoint: the full
    /// applied-update log (with per-step degradation levels) plus the
    /// current pose estimates as a witness.
    pub fn snapshot(&self) -> EngineSnapshot {
        let mut graph = self.solver.core().graph().iter().map(|(_, f)| f.clone());
        EngineSnapshot {
            plan_generation: self.plan_generation(),
            updates: self
                .log
                .iter()
                .map(|e| UpdateRecord {
                    level: e.level,
                    initial: e.initial.clone(),
                    factors: graph.by_ref().take(e.factors).collect(),
                })
                .collect(),
            estimate: (0..self.num_poses())
                .map(|i| self.pose_estimate(Key(i)))
                .collect(),
        }
    }

    /// Rebuilds a session from a checkpoint: replays the update log into
    /// this fresh engine under the checkpoint's per-step degradation
    /// levels, then verifies the rebuilt estimate against the checkpoint
    /// witness (an engine that already held poses fails its pose count).
    /// Update `i` adds variable `i`, so every factor is first checked
    /// against the initial guesses of the keys it names
    /// ([`RestoreError::UnfitVariable`]). A replayed step that panics is
    /// caught here and refused as [`RestoreError::Unsolvable`]; the
    /// half-replayed engine is dropped with the error, never reused. On
    /// success the update log, step counter and estimates match the
    /// snapshotted engine exactly, so subsequent steps are bit-identical
    /// to the uninterrupted run.
    pub fn restore(mut self, snapshot: &EngineSnapshot) -> Result<Self, RestoreError> {
        for (update, rec) in snapshot.updates.iter().enumerate() {
            for f in &rec.factors {
                for (slot, &Key(key)) in f.keys().iter().enumerate() {
                    let added = snapshot.updates.get(key).filter(|_| key <= update);
                    if !added.is_some_and(|r| f.fits(slot, &r.initial)) {
                        return Err(RestoreError::UnfitVariable { update, key });
                    }
                }
            }
        }
        // Replay without span emission: restore is one logical operation,
        // not N traced steps (the caller wraps it in a fleet.restore span).
        let trace_cfg = std::mem::replace(&mut self.trace_cfg, TraceConfig::off());
        let mut replayed = 0;
        let replay = panic::catch_unwind(AssertUnwindSafe(|| {
            for rec in &snapshot.updates {
                self.set_degradation(rec.level);
                self.step(rec.initial.clone(), rec.factors.clone());
                replayed += 1;
            }
        }));
        if replay.is_err() {
            return Err(RestoreError::Unsolvable { update: replayed });
        }
        self.trace_cfg = trace_cfg;
        if self.num_poses() != snapshot.estimate.len() {
            return Err(RestoreError::PoseCount {
                expected: snapshot.estimate.len(),
                got: self.num_poses(),
            });
        }
        for (i, want) in snapshot.estimate.iter().enumerate() {
            if self.pose_estimate(Key(i)) != *want {
                return Err(RestoreError::EstimateMismatch { pose: i });
            }
        }
        Ok(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use supernova_datasets::Dataset;
    use supernova_hw::Platform;
    use supernova_runtime::CostModel;

    fn engine() -> SolverEngine {
        let cost = Arc::new(CostModel::new(Platform::supernova(2)));
        SolverEngine::new(RaIsam2Config::default(), cost)
    }

    #[test]
    fn snapshot_restore_replay_is_bit_identical() {
        // Run a session to step k, snapshot, keep running to the end; a
        // second engine restored from the checkpoint and fed the same
        // remaining steps must agree bit-for-bit, including under
        // mid-run degradation changes (the log records per-step levels).
        let ds = Dataset::manhattan_seeded(30, 9);
        let steps = ds.online_steps();

        let mut solo = engine();
        for (i, step) in steps.iter().enumerate() {
            solo.set_degradation(u8::from(i % 3 == 0));
            solo.step(step.truth.clone(), step.factors.clone());
        }

        let mut interrupted = engine();
        for (i, step) in steps.iter().take(18).enumerate() {
            interrupted.set_degradation(u8::from(i % 3 == 0));
            interrupted.step(step.truth.clone(), step.factors.clone());
        }
        let snap = interrupted.snapshot();
        assert_eq!(snap.updates.len(), 18);
        assert_eq!(snap.estimate.len(), interrupted.num_poses());

        let mut restored = engine().restore(&snap).expect("restore");
        assert_eq!(restored.steps(), 18);
        for (i, step) in steps.iter().enumerate().skip(18) {
            restored.set_degradation(u8::from(i % 3 == 0));
            restored.step(step.truth.clone(), step.factors.clone());
        }

        let est_solo: Vec<Variable> = (0..solo.num_poses())
            .map(|i| solo.pose_estimate(Key(i)))
            .collect();
        let est_restored: Vec<Variable> = (0..restored.num_poses())
            .map(|i| restored.pose_estimate(Key(i)))
            .collect();
        assert_eq!(est_solo, est_restored, "restored run diverged");
        assert_eq!(solo.numeric_bytes(), restored.numeric_bytes());
    }

    #[test]
    fn restore_rejects_corrupt_witness() {
        let ds = Dataset::manhattan_seeded(12, 4);
        let mut e = engine();
        for step in &ds.online_steps() {
            e.step(step.truth.clone(), step.factors.clone());
        }
        let mut snap = e.snapshot();
        // Tamper with the witness: restore must fail typed.
        let n = snap.estimate.len();
        snap.estimate[n - 1] = Variable::Se2(supernova_factors::Se2::new(1e9, 0.0, 0.0));
        let err = engine()
            .restore(&snap)
            .expect_err("tampered witness accepted");
        assert!(matches!(err, RestoreError::EstimateMismatch { .. }));

        snap.estimate.pop();
        let err = engine().restore(&snap).expect_err("short witness accepted");
        assert!(matches!(err, RestoreError::PoseCount { .. }));

        // An engine that already holds poses is not fresh: replaying on
        // top of it cannot match the witness.
        let full = e.snapshot();
        let err = e
            .restore(&full)
            .expect_err("replay onto a used engine accepted");
        assert!(matches!(err, RestoreError::PoseCount { .. }));
    }

    #[test]
    fn restore_refuses_factors_it_cannot_evaluate() {
        let ds = Dataset::manhattan_seeded(12, 4);
        let mut e = engine();
        for step in &ds.online_steps() {
            e.step(step.truth.clone(), step.factors.clone());
        }
        let snap = e.snapshot();
        let odom = snap.updates[5].factors[0].clone();
        assert_eq!(odom.keys(), [Key(4), Key(5)]);
        let refused = |f: Factor| {
            let mut bad = snap.clone();
            bad.updates[5].factors[0] = f;
            engine().restore(&bad).expect_err("unfit factor accepted")
        };
        // A key no earlier update added.
        assert_eq!(
            refused(odom.clone().map_keys(|k| Key(k.0 * 2))),
            RestoreError::UnfitVariable { update: 5, key: 8 }
        );
        // A 3-D between over planar poses.
        let se3 = supernova_factors::BetweenFactor::se3(
            Key(4),
            Key(5),
            supernova_factors::Se3::identity(),
            supernova_factors::NoiseModel::isotropic(6, 0.1),
        );
        assert_eq!(
            refused(se3.into()),
            RestoreError::UnfitVariable { update: 5, key: 4 }
        );
    }

    #[test]
    fn degradation_defers_more_relinearization() {
        let ds = Dataset::manhattan_seeded(80, 5);
        let mut full = engine();
        let mut degraded = engine();
        degraded.set_degradation(StepBudget::MAX_DEGRADATION);
        let mut full_selected = 0usize;
        let mut degraded_selected = 0usize;
        for step in &ds.online_steps() {
            full.step(step.truth.clone(), step.factors.clone());
            degraded.step(step.truth.clone(), step.factors.clone());
            full_selected += full.last_selected_deferred().0;
            degraded_selected += degraded.last_selected_deferred().0;
        }
        assert!(
            degraded_selected <= full_selected,
            "degraded engine selected more ({degraded_selected}) than full ({full_selected})"
        );
    }
}
