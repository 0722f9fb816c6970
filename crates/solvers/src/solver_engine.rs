//! The pooled solver handle the serving layer schedules.
//!
//! A [`SolverEngine`] owns one RA-ISAM2 instance plus the bookkeeping a
//! multi-tenant server needs: a step counter, a recycle generation, and a
//! degradation knob that maps straight onto the solver's
//! [`StepBudget`](supernova_runtime::StepBudget). Engines are expensive to
//! warm up (plan cache, workspace growth), so the server keeps a fixed pool
//! and recycles engines across sessions via [`SolverEngine::reset`] — which
//! must (and does) restore the exact fresh-engine state, or pooled sessions
//! would not be bit-identical to solo runs.

use std::sync::Arc;

use supernova_factors::{Factor, Key, Values, Variable};
use supernova_hw::Platform;
use supernova_linalg::NumericMode;
use supernova_runtime::{
    exec_span, hw_span, simulate_step_traced, RelinCostModel, SchedulerConfig, StepBudget,
    StepTrace,
};
use supernova_sparse::ParallelExecutor;
use supernova_trace::{Category, Span, SpanGuard, TraceConfig};

use crate::{OnlineSolver, RaIsam2, RaIsam2Config};

/// One applied online update, as recorded by the engine's always-on log:
/// everything a replay needs to reproduce the step bit-for-bit, including
/// the budget degradation level the step actually ran under (degradation
/// changes relinearization selection, so replaying at a different level
/// would diverge).
#[derive(Clone, Debug)]
pub struct UpdateRecord {
    /// Budget degradation level the step ran under.
    pub level: u8,
    /// The new pose's initial guess.
    pub initial: Variable,
    /// The step's factors (shared, not deep-copied).
    pub factors: Vec<Arc<dyn Factor>>,
}

/// A verified-replay checkpoint of a live engine: the full applied-update
/// log plus a witness estimate. [`SolverEngine::restore`] replays the log
/// on a reset engine — which PR 2's determinism machinery proves
/// bit-identical to the original run — then checks the rebuilt estimate
/// against the witness, so a corrupt or mismatched checkpoint is a typed
/// error, never a silently wrong map.
#[derive(Clone, Debug)]
pub struct EngineSnapshot {
    /// Numeric precision the session's kernels ran under.
    pub numeric_mode: NumericMode,
    /// Plan-cache generation at snapshot time (informational; replay
    /// rebuilds the plan cache deterministically).
    pub plan_generation: usize,
    /// Every update applied since the engine was (re)set, in order.
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
        }
    }
}

impl std::error::Error for RestoreError {}

/// A recyclable RA-ISAM2 instance for the serving layer's engine pool.
pub struct SolverEngine {
    solver: RaIsam2,
    steps: usize,
    generation: usize,
    trace_cfg: TraceConfig,
    trace_hw: Option<(Platform, SchedulerConfig)>,
    last_span: Option<Span>,
    log: Vec<UpdateRecord>,
}

impl std::fmt::Debug for SolverEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SolverEngine")
            .field("steps", &self.steps)
            .field("generation", &self.generation)
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
            generation: 0,
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

    /// Installs the host executor numeric plans run on (engines in a pool
    /// share one executor width so per-session results are
    /// interleaving-independent).
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

    /// Selects the numeric precision mode the dense kernels run under
    /// (`SUPERNOVA_NUMERIC`; see [`NumericMode`]). Changing the mode drops
    /// the cached numeric factor so the next step refactors under the new
    /// kernel engine.
    pub fn set_numeric_mode(&mut self, mode: NumericMode) {
        self.solver.core_mut().set_numeric_mode(mode);
    }

    /// The numeric precision mode this engine's kernels run under.
    pub fn numeric_mode(&self) -> NumericMode {
        self.solver.core().numeric_mode()
    }

    /// Processes one online step (the new pose's initial guess plus its
    /// factors), under the engine's current budget degradation.
    pub fn step(&mut self, initial: Variable, factors: Vec<Arc<dyn Factor>>) -> StepTrace {
        self.steps += 1;
        self.log.push(UpdateRecord {
            level: self.solver.budget().degradation(),
            initial: initial.clone(),
            factors: factors.clone(),
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

    /// Steps processed since the last [`reset`](Self::reset).
    pub fn steps(&self) -> usize {
        self.steps
    }

    /// How many times this engine has been recycled through the pool.
    pub fn generation(&self) -> usize {
        self.generation
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

    /// Number of poses incorporated since the last reset.
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

    /// Recycles the engine for a new session: clears the factor graph, the
    /// plan and numeric caches, the host schedule and all per-step trace
    /// state, returns the budget to degradation level 0, and bumps the
    /// recycle generation. After `reset`, replaying any step sequence is
    /// bit-identical to running it on a brand-new engine with the same
    /// configuration.
    pub fn reset(&mut self) {
        self.solver.reset();
        self.steps = 0;
        self.generation += 1;
        self.last_span = None;
        self.log.clear();
    }

    /// How many times the solver's plan cache has been (re)built.
    pub fn plan_generation(&self) -> usize {
        self.solver.core().plan_generation()
    }

    /// Captures the session as a verified-replay checkpoint: the full
    /// applied-update log (with per-step degradation levels) plus the
    /// current pose estimates as a witness.
    pub fn snapshot(&self) -> EngineSnapshot {
        EngineSnapshot {
            numeric_mode: self.numeric_mode(),
            plan_generation: self.plan_generation(),
            updates: self.log.clone(),
            estimate: (0..self.num_poses())
                .map(|i| self.pose_estimate(Key(i)))
                .collect(),
        }
    }

    /// Rebuilds a session from a checkpoint by resetting the engine and
    /// replaying the update log under the checkpoint's numeric mode and
    /// per-step degradation levels, then verifies the rebuilt estimate
    /// against the checkpoint witness. On error the engine is left reset
    /// (safe to return to the pool); on success the update log, step
    /// counter and estimates match the snapshotted engine exactly, so
    /// subsequent steps are bit-identical to the uninterrupted run.
    pub fn restore(&mut self, snapshot: &EngineSnapshot) -> Result<(), RestoreError> {
        self.reset();
        self.set_numeric_mode(snapshot.numeric_mode);
        // Replay without span emission: restore is one logical operation,
        // not N traced steps (the caller wraps it in a fleet.restore span).
        let trace_cfg = self.trace_cfg;
        self.trace_cfg = TraceConfig::off();
        for rec in &snapshot.updates {
            self.set_degradation(rec.level);
            self.step(rec.initial.clone(), rec.factors.clone());
        }
        self.trace_cfg = trace_cfg;
        self.last_span = None;
        if self.num_poses() != snapshot.estimate.len() {
            let got = self.num_poses();
            self.reset();
            return Err(RestoreError::PoseCount {
                expected: snapshot.estimate.len(),
                got,
            });
        }
        for (i, want) in snapshot.estimate.iter().enumerate() {
            if self.pose_estimate(Key(i)) != *want {
                self.reset();
                return Err(RestoreError::EstimateMismatch { pose: i });
            }
        }
        Ok(())
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

    fn replay(e: &mut SolverEngine, ds: &Dataset) -> (Vec<Variable>, Vec<u8>) {
        for step in &ds.online_steps() {
            e.step(step.truth.clone(), step.factors.clone());
        }
        let est = (0..e.num_poses())
            .map(|i| e.pose_estimate(Key(i)))
            .collect();
        (est, e.numeric_bytes().unwrap_or_default())
    }

    #[test]
    fn recycled_engine_matches_fresh_engine_bit_for_bit() {
        // Warm an engine on one dataset, recycle it, replay another; a
        // brand-new engine replaying the second dataset must agree exactly
        // (estimates by f64 equality, factor by canonical bytes).
        let warmup = Dataset::manhattan_seeded(60, 7);
        let target = Dataset::sphere_seeded(40, 11);

        let mut recycled = engine();
        let _ = replay(&mut recycled, &warmup);
        assert!(recycled.steps() > 0);
        recycled.reset();
        assert_eq!(recycled.steps(), 0);
        assert_eq!(recycled.num_poses(), 0);
        assert_eq!(recycled.generation(), 1);
        assert!(
            recycled.numeric_bytes().is_none(),
            "numeric cache must clear"
        );
        let (est_recycled, bytes_recycled) = replay(&mut recycled, &target);

        let mut fresh = engine();
        let (est_fresh, bytes_fresh) = replay(&mut fresh, &target);

        assert_eq!(est_recycled, est_fresh, "recycled estimates diverged");
        assert_eq!(
            bytes_recycled, bytes_fresh,
            "recycled factor bytes diverged"
        );
    }

    #[test]
    fn reset_restores_budget_and_counters() {
        let mut e = engine();
        e.set_degradation(3);
        assert_eq!(e.budget().degradation(), 3);
        let ds = Dataset::manhattan_seeded(10, 3);
        let _ = replay(&mut e, &ds);
        e.reset();
        assert_eq!(e.budget().degradation(), 0);
        assert_eq!(e.last_selected_deferred(), (0, 0));
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

        let mut restored = engine();
        restored.restore(&snap).expect("restore");
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
        // Tamper with the witness: restore must fail typed, and leave the
        // engine reset (safe to recycle).
        let n = snap.estimate.len();
        snap.estimate[n - 1] = Variable::Se2(supernova_factors::Se2::new(1e9, 0.0, 0.0));
        let mut r = engine();
        let err = r.restore(&snap).expect_err("tampered witness accepted");
        assert!(matches!(err, RestoreError::EstimateMismatch { .. }));
        assert_eq!(r.num_poses(), 0);

        snap.estimate.pop();
        let err = r.restore(&snap).expect_err("short witness accepted");
        assert!(matches!(err, RestoreError::PoseCount { .. }));
    }

    #[test]
    fn degradation_defers_more_relinearization() {
        let ds = Dataset::manhattan_seeded(80, 5);
        let mut full = engine();
        let mut degraded = engine();
        degraded.set_degradation(StepBudget::new(1.0, 1.0).max_degradation());
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
