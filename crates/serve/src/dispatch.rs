//! The deadline-aware dispatcher: a fixed worker pool over the engine pool.
//!
//! Scheduling discipline:
//!
//! - **Earliest deadline first.** A worker picks the *ready* session (not
//!   busy, non-empty queue) whose head-of-queue request has the smallest
//!   deadline; ties go to the lowest session id. Within one session, updates
//!   apply strictly in submission order.
//! - **Per-session exclusivity.** While a worker applies an update it holds
//!   the session's engine outside the registry lock and the session is
//!   marked busy, so no second worker can touch it. A session therefore
//!   sees a serial, submission-ordered step sequence no matter how many
//!   workers run or how sessions interleave — which is what makes served
//!   estimates bit-identical to solo runs.
//! - **Graceful degradation.** The dispatcher derives a degradation level
//!   from the total queued depth (a deterministic step function) and stamps
//!   it onto the engine's [`StepBudget`](supernova_runtime::StepBudget)
//!   before each step. Overload shrinks per-step relinearization budgets
//!   instead of dropping admitted updates; queues stay bounded by admission
//!   control, not by shedding admitted work.
//!
//! Every dispatched step is recorded as a [`DispatchSpan`] (up to a
//! configured cap) so `supernova-analyze` can check the worker-exclusivity
//! and per-session happens-before invariants on real executions.

use std::sync::{Arc, Condvar, Mutex};
use std::thread;

use supernova_factors::{Key, Values, Variable};
use supernova_hw::Platform;
use supernova_linalg::NumericMode;
use supernova_runtime::{CostModel, SchedulerConfig};
use supernova_solvers::{EngineSnapshot, RaIsam2Config, RestoreError, SolverEngine};
use supernova_sparse::ParallelExecutor;
use supernova_trace::{epoch_seconds, Category, StepKey, Trace, TraceConfig, Tracer};

use crate::admission::{AdmissionController, AdmissionError};
use crate::session::{SessionCloseReport, SessionId, SessionRegistry, UpdateRequest};
use crate::stats::{latency_histogram, ServerStats, SessionSnapshot};

/// Serving-layer configuration.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Dispatcher worker threads. One worker serializes everything (the
    /// deterministic reference); more workers overlap distinct sessions.
    pub workers: usize,
    /// Engine-pool size = maximum concurrent sessions.
    pub max_sessions: usize,
    /// Per-session bounded queue capacity; a full queue sheds updates with
    /// [`AdmissionError::QueueFull`].
    pub queue_capacity: usize,
    /// RA-ISAM2 configuration shared by every pooled engine.
    pub ra: RaIsam2Config,
    /// Platform whose cost model drives relinearization selection.
    pub platform: Platform,
    /// Inert: no product code reads it, since every engine runs its plans
    /// inline. Kept only because the `benchmark/` package names it.
    #[doc(hidden)]
    pub executor_threads: usize,
    /// Numeric precision every pooled engine's dense kernels run under
    /// (shared so per-session results do not depend on which engine a
    /// session lands on; see [`NumericMode`]).
    pub numeric: NumericMode,
    /// Total queued depth up to which the server runs undegraded.
    pub degrade_start: usize,
    /// Additional total depth per extra degradation level beyond the first.
    pub degrade_stride: usize,
    /// Degradation ceiling (each level halves the per-step budget).
    pub max_degradation: u8,
    /// Cap on recorded [`DispatchSpan`]s (0 disables recording).
    pub record_spans: usize,
    /// Unified span-tree tracing (`supernova-trace`). When enabled, every
    /// dispatched step records a full `serve.dispatch` → `solver.step` →
    /// `exec`/`hw` tree retrievable via [`Server::take_traces`]; engines
    /// additionally price each step on [`ServeConfig::platform`] so the
    /// tree reaches down to modeled hardware units. Disabled by default
    /// (zero cost beyond one branch per step).
    pub trace: TraceConfig,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 2,
            max_sessions: 8,
            queue_capacity: 64,
            ra: RaIsam2Config::default(),
            platform: Platform::supernova(2),
            executor_threads: 1,
            numeric: NumericMode::default(),
            degrade_start: 16,
            degrade_stride: 8,
            max_degradation: 4,
            record_spans: 65_536,
            trace: TraceConfig::default(),
        }
    }
}

impl ServeConfig {
    /// The degradation level for a total queued depth — a pure step
    /// function, so identical load histories produce identical budgets.
    pub fn level_for_depth(&self, depth: usize) -> u8 {
        if depth <= self.degrade_start {
            return 0;
        }
        let over = depth - self.degrade_start - 1;
        let extra = over / self.degrade_stride.max(1);
        let level = 1 + extra.min(usize::from(u8::MAX) - 1);
        (level as u8).min(self.max_degradation)
    }
}

/// One dispatched step, as executed: which worker applied which session's
/// `seq`-th update over which wall-clock interval (seconds on the
/// process-global trace epoch, the same timeline `supernova-trace` spans
/// use). The analyze crate checks worker exclusivity and per-session
/// ordering over these, and cross-checks them against the unified span
/// trees when tracing is enabled.
#[derive(Clone, Copy, Debug)]
pub struct DispatchSpan {
    /// The worker that applied the update.
    pub worker: usize,
    /// The session the update belonged to.
    pub session: SessionId,
    /// The update's per-session sequence number (0-based submission order).
    pub seq: u64,
    /// Wall-clock start, seconds since server start.
    pub start: f64,
    /// Wall-clock end, seconds since server start.
    pub end: f64,
    /// The degradation level the step ran at.
    pub level: u8,
}

impl DispatchSpan {
    /// The analyze-crate mirror, for
    /// [`validate_dispatch`](supernova_analyze::validate_dispatch).
    pub fn record(&self) -> supernova_analyze::DispatchRecord {
        supernova_analyze::DispatchRecord {
            worker: self.worker,
            session: self.session.0,
            seq: self.seq,
            start: self.start,
            end: self.end,
        }
    }
}

/// Why a checkpoint could not be admitted as a new session.
#[derive(Debug, PartialEq)]
pub enum SessionRestoreError {
    /// Admission refused the session (pool exhausted, shutting down).
    Admission(AdmissionError),
    /// Replay verification rejected the checkpoint.
    Engine(RestoreError),
    /// The checkpoint's numeric mode differs from the server's; restoring
    /// it here could not be bit-identical to the original run.
    NumericMode {
        /// The mode this server's engines run under.
        server: NumericMode,
        /// The mode the checkpoint was taken under.
        checkpoint: NumericMode,
    },
}

impl std::fmt::Display for SessionRestoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SessionRestoreError::Admission(e) => write!(f, "restore refused: {e}"),
            SessionRestoreError::Engine(e) => write!(f, "restore rejected: {e}"),
            SessionRestoreError::NumericMode { server, checkpoint } => write!(
                f,
                "numeric-mode mismatch: server runs {server:?}, checkpoint is {checkpoint:?}"
            ),
        }
    }
}

impl std::error::Error for SessionRestoreError {}

impl From<AdmissionError> for SessionRestoreError {
    fn from(e: AdmissionError) -> Self {
        SessionRestoreError::Admission(e)
    }
}

/// Everything the registry lock protects.
struct State {
    registry: SessionRegistry,
    /// Idle engines (recycled on close).
    pool: Vec<SolverEngine>,
    admission: AdmissionController,
    /// Current degradation level (a function of total queued depth).
    level: u8,
    /// Steps applied at each level, across all sessions ever served.
    level_histogram: Vec<u64>,
    /// Completed updates of closed sessions (live ones count on their
    /// session).
    closed_completed: u64,
    spans: Vec<DispatchSpan>,
    shutdown: bool,
}

struct Inner {
    cfg: ServeConfig,
    state: Mutex<State>,
    /// Signalled when a session may have become ready (or on shutdown).
    work_cv: Condvar,
    /// Signalled when a session may have drained (queue empty, not busy).
    idle_cv: Condvar,
    /// Unified span-tree sink (inert when `cfg.trace` is disabled).
    tracer: Tracer,
}

/// The multi-session server: owns the engine pool and the worker threads.
///
/// See the [crate docs](crate) for the full contract; construct with
/// [`Server::start`], drive with [`Server::create_session`] /
/// [`Server::submit`], observe with [`Server::stats`] and
/// [`Server::spans`]. Dropping the server drains every admitted update,
/// then joins the workers.
pub struct Server {
    inner: Arc<Inner>,
    workers: Vec<thread::JoinHandle<()>>,
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("workers", &self.workers.len())
            .finish()
    }
}

// The registry lock only guards in-memory bookkeeping; a poisoned lock
// means a worker panicked mid-step, and propagating the panic to every
// caller is exactly right — hence the `.unwrap()`s below.
impl Server {
    /// Starts the server: warms `max_sessions` engines and spawns
    /// `workers` dispatcher threads.
    pub fn start(cfg: ServeConfig) -> Self {
        let cost = Arc::new(CostModel::new(cfg.platform.clone()));
        let exec = ParallelExecutor::default().with_numeric(cfg.numeric);
        let pool = (0..cfg.max_sessions.max(1))
            .map(|_| {
                let mut e = SolverEngine::new(cfg.ra, Arc::clone(&cost) as _);
                e.set_executor(exec.clone());
                if cfg.trace.enabled {
                    e.set_trace(cfg.trace);
                    e.set_trace_hw(cfg.platform.clone(), SchedulerConfig::default());
                }
                e
            })
            .collect::<Vec<_>>();
        let admission = AdmissionController::new(pool.len(), cfg.queue_capacity.max(1));
        let levels = usize::from(cfg.max_degradation) + 1;
        let inner = Arc::new(Inner {
            state: Mutex::new(State {
                registry: SessionRegistry::new(),
                pool,
                admission,
                level: 0,
                level_histogram: vec![0; levels],
                closed_completed: 0,
                spans: Vec::new(),
                shutdown: false,
            }),
            work_cv: Condvar::new(),
            idle_cv: Condvar::new(),
            tracer: Tracer::new(cfg.trace),
            cfg,
        });
        let workers = (0..inner.cfg.workers.max(1))
            .map(|w| {
                let inner = Arc::clone(&inner);
                // lint: allow(thread-spawn) — the dispatcher worker pool
                thread::spawn(move || worker_loop(w, &inner))
            })
            .collect();
        Server { inner, workers }
    }

    /// The server's configuration.
    pub fn config(&self) -> &ServeConfig {
        &self.inner.cfg
    }

    /// Opens a new session, taking one engine from the pool.
    ///
    /// # Errors
    ///
    /// [`AdmissionError::SessionLimit`] when the pool is exhausted,
    /// [`AdmissionError::ShuttingDown`] after shutdown began.
    pub fn create_session(&self) -> Result<SessionId, AdmissionError> {
        let mut st = self.inner.state.lock().unwrap(); // lint: allow(unwrap)
        if st.shutdown {
            return Err(AdmissionError::ShuttingDown);
        }
        let state = &mut *st;
        state.admission.admit_create(&state.registry)?;
        // Admission caps live sessions at the pool size, so an engine is
        // guaranteed free here. lint: allow(unwrap)
        let engine = state.pool.pop().expect("engine pool underflow");
        let levels = self.inner.cfg.max_degradation;
        Ok(state.registry.insert(engine, levels))
    }

    /// Enqueues one update on `session`'s bounded queue.
    ///
    /// # Errors
    ///
    /// Typed refusals per [`AdmissionError`]; on
    /// [`AdmissionError::QueueFull`] the update is counted as shed on both
    /// the server and the session. An update whose factors name a key
    /// after the pose it adds is refused with
    /// [`AdmissionError::UnknownVariable`] (not counted as shed): once a
    /// step is shed, the steps after it name a pose that never arrived.
    pub fn submit(&self, session: SessionId, req: UpdateRequest) -> Result<(), AdmissionError> {
        let mut st = self.inner.state.lock().unwrap(); // lint: allow(unwrap)
        if st.shutdown {
            return Err(AdmissionError::ShuttingDown);
        }
        let state = &mut *st;
        if let Err(e) = state.admission.admit_update(&state.registry, session) {
            if matches!(e, AdmissionError::QueueFull { .. }) {
                if let Some(s) = state.registry.get_mut(session) {
                    s.stats.record_shed();
                }
            }
            return Err(e);
        }
        // lint: allow(unwrap) — admit_update just proved the session is live
        let s = state
            .registry
            .get_mut(session)
            .expect("admitted session exists"); // lint: allow(unwrap)
        let new_key = s.variables;
        let unknown = req
            .factors
            .iter()
            .flat_map(|f| f.keys())
            .find(|k| k.0 > new_key);
        if let Some(&key) = unknown {
            return Err(AdmissionError::UnknownVariable { session, key });
        }
        s.variables += 1;
        s.queue.push_back(req);
        let depth = s.depth();
        s.stats.record_depth(depth);
        state.level = self.inner.cfg.level_for_depth(state.registry.total_depth());
        drop(st);
        self.inner.work_cv.notify_one();
        Ok(())
    }

    /// Updates currently queued on `session` (`None` if it is not live).
    pub fn queue_depth(&self, session: SessionId) -> Option<usize> {
        let st = self.inner.state.lock().unwrap(); // lint: allow(unwrap)
        st.registry.get(session).map(|s| s.depth())
    }

    /// Blocks until every admitted update of `session` has been applied.
    ///
    /// # Errors
    ///
    /// [`AdmissionError::UnknownSession`] if the session is not live.
    pub fn drain(&self, session: SessionId) -> Result<(), AdmissionError> {
        let mut st = self.inner.state.lock().unwrap(); // lint: allow(unwrap)
        loop {
            match st.registry.get(session) {
                None => return Err(AdmissionError::UnknownSession(session)),
                Some(s) if s.drained() => return Ok(()),
                Some(_) => st = self.inner.idle_cv.wait(st).unwrap(), // lint: allow(unwrap)
            }
        }
    }

    /// Blocks until every admitted update of every session has been applied.
    pub fn drain_all(&self) {
        let mut st = self.inner.state.lock().unwrap(); // lint: allow(unwrap)
        while !st.registry.iter().all(|s| s.drained()) {
            st = self.inner.idle_cv.wait(st).unwrap(); // lint: allow(unwrap)
        }
    }

    /// Drains `session`, then returns its full trajectory estimate.
    ///
    /// # Errors
    ///
    /// [`AdmissionError::UnknownSession`] if the session is not live.
    pub fn estimate(&self, session: SessionId) -> Result<Values, AdmissionError> {
        self.with_drained_engine(session, SolverEngine::estimate)
    }

    /// Drains `session`, then returns its estimate of one pose.
    ///
    /// # Errors
    ///
    /// [`AdmissionError::UnknownSession`] if the session is not live.
    pub fn pose_estimate(&self, session: SessionId, key: Key) -> Result<Variable, AdmissionError> {
        self.with_drained_engine(session, |e| e.pose_estimate(key))
    }

    /// Closes `session`: refuses further updates, drains what was admitted,
    /// recycles the engine back into the pool, and reports the session's
    /// lifetime statistics.
    ///
    /// # Errors
    ///
    /// [`AdmissionError::UnknownSession`] if the session is not live.
    pub fn close(&self, session: SessionId) -> Result<SessionCloseReport, AdmissionError> {
        let mut st = self.inner.state.lock().unwrap(); // lint: allow(unwrap)
        match st.registry.get_mut(session) {
            None => return Err(AdmissionError::UnknownSession(session)),
            Some(s) => s.closing = true,
        }
        loop {
            // The session cannot disappear underneath us: removal happens
            // only here, and double-close is rejected above. lint: allow(unwrap)
            let drained = st
                .registry
                .get(session)
                .expect("closing session stays live") // lint: allow(unwrap)
                .drained();
            if drained {
                break;
            }
            st = self.inner.idle_cv.wait(st).unwrap(); // lint: allow(unwrap)
        }
        // lint: allow(unwrap) — same argument as the loop above
        let s = st
            .registry
            .remove(session)
            .expect("closing session stays live"); // lint: allow(unwrap)

        // drained ⇒ not busy ⇒ the engine is home
        let mut engine = s.engine.expect("drained session holds its engine"); // lint: allow(unwrap)
        engine.reset();
        st.pool.push(engine);
        st.closed_completed += s.completed;
        st.level = self.inner.cfg.level_for_depth(st.registry.total_depth());
        Ok(SessionCloseReport {
            session,
            completed: s.completed,
            shed: s.stats.shed(),
            stats: s.stats,
        })
    }

    /// Drains `session`, then captures its engine as a verified-replay
    /// checkpoint (the migration/failover source side). The session stays
    /// live and serviceable afterwards.
    ///
    /// # Errors
    ///
    /// [`AdmissionError::UnknownSession`] if the session is not live.
    pub fn snapshot_session(&self, session: SessionId) -> Result<EngineSnapshot, AdmissionError> {
        self.with_drained_engine(session, SolverEngine::snapshot)
    }

    /// Drains `session`, then runs `read` on its engine under the
    /// registry lock.
    fn with_drained_engine<T>(
        &self,
        session: SessionId,
        read: impl FnOnce(&SolverEngine) -> T,
    ) -> Result<T, AdmissionError> {
        self.drain(session)?;
        let st = self.inner.state.lock().unwrap(); // lint: allow(unwrap)
        let s = st
            .registry
            .get(session)
            .ok_or(AdmissionError::UnknownSession(session))?;
        // A drained session is not busy, so it holds its engine.
        let engine = s.engine.as_ref().expect("drained session holds its engine"); // lint: allow(unwrap)
        Ok(read(engine))
    }

    /// Opens a new session from a checkpoint (the migration/failover
    /// target side): takes an engine from the pool, replays the
    /// checkpoint's update log and verifies it against its witness. The
    /// new session's sequence counter continues from the checkpoint's
    /// update count, so journal seq numbers stay aligned across the move.
    ///
    /// # Errors
    ///
    /// Typed refusals per [`SessionRestoreError`]; on engine-replay
    /// rejection the engine is reset and returned to the pool, and no
    /// session is left behind.
    pub fn restore_session(
        &self,
        snapshot: &EngineSnapshot,
    ) -> Result<SessionId, SessionRestoreError> {
        if snapshot.numeric_mode != self.inner.cfg.numeric {
            return Err(SessionRestoreError::NumericMode {
                server: self.inner.cfg.numeric,
                checkpoint: snapshot.numeric_mode,
            });
        }
        // Admit and register the session first, then replay outside the
        // lock with the session marked busy — the same engine-out
        // protocol the workers use, so concurrent create_session calls
        // see a consistent pool and can never underflow it.
        let (session, mut engine) = {
            let mut st = self.inner.state.lock().unwrap(); // lint: allow(unwrap)
            if st.shutdown {
                return Err(AdmissionError::ShuttingDown.into());
            }
            let state = &mut *st;
            state.admission.admit_create(&state.registry)?;
            // lint: allow(unwrap) — admission caps live sessions at pool size
            let engine = state.pool.pop().expect("engine pool underflow");
            let session = state
                .registry
                .insert(engine, self.inner.cfg.max_degradation);
            // lint: allow(unwrap) — inserted one line above
            let s = state
                .registry
                .get_mut(session)
                .expect("restoring session exists");
            s.busy = true;
            s.variables = snapshot.updates.len();
            let engine = s.engine.take().expect("fresh session holds its engine"); // lint: allow(unwrap)
            (session, engine)
        };
        let outcome = engine.restore(snapshot);
        let mut st = self.inner.state.lock().unwrap(); // lint: allow(unwrap)
        match outcome {
            Ok(()) => {
                // lint: allow(unwrap) — busy sessions cannot be removed
                let s = st
                    .registry
                    .get_mut(session)
                    .expect("busy session stays live");
                s.engine = Some(engine);
                s.busy = false;
                let applied = snapshot.updates.len() as u64;
                s.next_seq = applied;
                s.completed = applied;
                drop(st);
                self.inner.idle_cv.notify_all();
                Ok(session)
            }
            Err(e) => {
                // Roll back: the session never served a request, so it can
                // vanish without anyone observing it.
                st.registry.remove(session);
                engine.reset();
                st.pool.push(engine);
                drop(st);
                self.inner.idle_cv.notify_all();
                Err(SessionRestoreError::Engine(e))
            }
        }
    }

    /// The current degradation level.
    pub fn degradation(&self) -> u8 {
        self.inner.state.lock().unwrap().level // lint: allow(unwrap)
    }

    /// The recorded dispatch spans (up to the configured cap).
    pub fn spans(&self) -> Vec<DispatchSpan> {
        self.inner.state.lock().unwrap().spans.clone() // lint: allow(unwrap)
    }

    /// Drains the unified span trees recorded so far (empty unless
    /// [`ServeConfig::trace`] is enabled), sorted by `(session, seq)`.
    pub fn take_traces(&self) -> Vec<Trace> {
        self.inner.tracer.take()
    }

    /// A point-in-time statistics snapshot.
    pub fn stats(&self) -> ServerStats {
        let st = self.inner.state.lock().unwrap(); // lint: allow(unwrap)
        let mut sessions = Vec::new();
        let mut agg = latency_histogram();
        let mut total_completed = st.closed_completed;
        for s in st.registry.iter() {
            let h = s.stats.latency();
            assert!(agg.merge(h), "all latency histograms share one shape");
            total_completed += s.completed;
            sessions.push(SessionSnapshot {
                session: s.id,
                completed: s.completed,
                shed: s.stats.shed(),
                queue_depth: s.depth(),
                max_queue_depth: s.stats.max_queue_depth(),
                p50_seconds: h.percentile(0.50),
                p95_seconds: h.percentile(0.95),
                p99_seconds: h.percentile(0.99),
                max_seconds: h.max(),
                degraded_steps: s.stats.degraded_steps().to_vec(),
            });
        }
        ServerStats {
            sessions,
            degradation_level: st.level,
            degradation_histogram: st.level_histogram.clone(),
            total_completed,
            total_shed: st.admission.shed_updates(),
            rejected_creates: st.admission.rejected_creates(),
            total_queue_depth: st.registry.total_depth(),
            aggregate_latency: (
                agg.percentile(0.50),
                agg.percentile(0.95),
                agg.percentile(0.99),
            ),
        }
    }

    /// Initiates shutdown and joins the workers. Admitted updates are
    /// drained first; new submissions are refused. Called by `Drop`;
    /// explicit calls are idempotent.
    pub fn shutdown(&mut self) {
        {
            let mut st = self.inner.state.lock().unwrap(); // lint: allow(unwrap)
            st.shutdown = true;
        }
        self.inner.work_cv.notify_all();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// One dispatcher worker: pick the EDF session, take its engine, step
/// outside the lock, return the engine and account the step.
fn worker_loop(worker: usize, inner: &Inner) {
    loop {
        let (session, req, seq, level, mut engine) = {
            let mut st = inner.state.lock().unwrap(); // lint: allow(unwrap)
            let session = loop {
                if let Some(id) = st.registry.pick_earliest_deadline() {
                    break id;
                }
                // Exit only once no work can ever arrive: shutdown is set
                // and nothing is queued (a busy session's queue may still
                // hold updates; its worker will notify when it finishes).
                if st.shutdown && st.registry.total_depth() == 0 {
                    return;
                }
                st = inner.work_cv.wait(st).unwrap(); // lint: allow(unwrap)
            };
            // lint: allow(unwrap) — picked under the same lock, so still live
            let s = st.registry.get_mut(session).expect("picked session exists");
            s.busy = true;
            // lint: allow(unwrap) — `ready()` requires a non-empty queue
            let req = s
                .queue
                .pop_front()
                .expect("ready session has a head request"); // lint: allow(unwrap)
            let seq = s.next_seq;
            s.next_seq += 1;
            // lint: allow(unwrap) — `ready()` requires not-busy, which pins the engine
            let engine = s.engine.take().expect("non-busy session holds its engine");
            (session, req, seq, st.level, engine)
        };

        engine.set_degradation(level);
        let key = StepKey {
            session: session.0,
            seq,
            step: engine.steps() as u64 + 1,
        };
        let mut builder = inner.tracer.step(key, "serve.dispatch", Category::Serve);
        let t0 = epoch_seconds();
        let _trace = engine.step(req.initial, req.factors);
        let t1 = epoch_seconds();
        if let Some(mut b) = builder.take() {
            let root = b.root_mut();
            root.set_track(worker as u32);
            root.counter("level", u64::from(level));
            if let Some(span) = engine.take_step_span() {
                root.child(span);
            }
            inner.tracer.finish(b);
        }

        let mut st = inner.state.lock().unwrap(); // lint: allow(unwrap)
                                                  // lint: allow(unwrap) — close() cannot remove a busy session
        let s = st
            .registry
            .get_mut(session)
            .expect("busy session stays live"); // lint: allow(unwrap)
        s.engine = Some(engine);
        s.busy = false;
        s.completed += 1;
        s.stats.record_step(t1 - t0, level);
        let idx = usize::from(level).min(st.level_histogram.len() - 1);
        st.level_histogram[idx] += 1;
        if st.spans.len() < inner.cfg.record_spans {
            st.spans.push(DispatchSpan {
                worker,
                session,
                seq,
                start: t0,
                end: t1,
                level,
            });
        }
        st.level = inner.cfg.level_for_depth(st.registry.total_depth());
        drop(st);
        // The session just freed may be ready again, and drain()/close()
        // waiters may have been unblocked.
        inner.work_cv.notify_all();
        inner.idle_cv.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::solo_replay;
    use supernova_datasets::Dataset;
    use supernova_trace::chrome_document_wall;
    use supernova_trace::json::{parse, Json};

    fn submit_all(server: &Server, sid: SessionId, ds: &Dataset) {
        for (i, step) in ds.online_steps().into_iter().enumerate() {
            server
                .submit(sid, UpdateRequest::new(i as u64, step.truth, step.factors))
                .expect("bounded queue large enough for the fixture");
        }
    }

    #[test]
    fn served_sessions_match_solo_bit_for_bit() {
        // Two sessions interleaving across two workers must each produce
        // exactly the solo estimate for their dataset.
        let a = Dataset::manhattan_seeded(40, 9);
        let b = Dataset::sphere_seeded(30, 21);
        let server = Server::start(ServeConfig {
            workers: 2,
            max_sessions: 2,
            queue_capacity: 64,
            ..ServeConfig::default()
        });
        let sa = server.create_session().expect("slot a");
        let sb = server.create_session().expect("slot b");
        submit_all(&server, sa, &a);
        submit_all(&server, sb, &b);
        for (sid, ds) in [(sa, &a), (sb, &b)] {
            let solo = solo_replay(server.config(), &ds.online_steps());
            assert_eq!(server.estimate(sid).expect("live"), solo.estimate());
        }
        let ra = server.close(sa).expect("close a");
        assert_eq!(ra.completed, 40);
        assert_eq!(ra.shed, 0);
    }

    #[test]
    fn served_f32_sessions_match_solo_f32_bit_for_bit() {
        // The configured numeric mode must reach every pooled engine's
        // kernels: a served f32 session reproduces a solo f32 run exactly.
        let ds = Dataset::manhattan_seeded(30, 5);
        let server = Server::start(ServeConfig {
            workers: 2,
            max_sessions: 2,
            numeric: NumericMode::F32,
            ..ServeConfig::default()
        });
        let sid = server.create_session().expect("slot");
        submit_all(&server, sid, &ds);
        let solo = solo_replay(server.config(), &ds.online_steps());
        assert_eq!(solo.numeric_mode(), NumericMode::F32);
        assert_eq!(server.estimate(sid).expect("live"), solo.estimate());
        let report = server.close(sid).expect("close");
        assert_eq!(report.completed, 30);
    }

    #[test]
    fn session_limit_then_close_frees_a_slot() {
        let server = Server::start(ServeConfig {
            workers: 1,
            max_sessions: 1,
            ..ServeConfig::default()
        });
        let s0 = server.create_session().expect("first slot");
        assert_eq!(
            server.create_session(),
            Err(AdmissionError::SessionLimit { max_sessions: 1 })
        );
        server.close(s0).expect("close");
        let s1 = server.create_session().expect("recycled slot");
        assert_eq!(s1.0, 1, "session ids are never reused");
    }

    #[test]
    fn full_queue_sheds_and_counts() {
        // One worker on a capacity-2 queue cannot keep up with a burst of
        // 12. Once a step is shed, later steps name the pose it would have
        // added, so admission refuses them as unknown-variable updates
        // instead of queueing work that would abort the worker.
        let server = Server::start(ServeConfig {
            workers: 1,
            max_sessions: 1,
            queue_capacity: 2,
            ..ServeConfig::default()
        });
        let sid = server.create_session().expect("slot");
        let ds = Dataset::manhattan_seeded(12, 3);
        let (mut queue_full, mut refused) = (0u64, 0u64);
        for (i, step) in ds.online_steps().into_iter().enumerate() {
            match server.submit(sid, UpdateRequest::new(i as u64, step.truth, step.factors)) {
                Ok(()) => {}
                Err(AdmissionError::QueueFull { capacity, .. }) => {
                    assert_eq!(capacity, 2);
                    queue_full += 1;
                }
                Err(AdmissionError::UnknownVariable { .. }) => refused += 1,
                Err(e) => panic!("unexpected admission error {e}"),
            }
        }
        server.drain(sid).expect("live");
        let stats = server.stats();
        assert_eq!(stats.total_shed, queue_full);
        assert_eq!(stats.sessions[0].completed + queue_full + refused, 12);
        assert!(
            stats.sessions[0].max_queue_depth <= 2,
            "queue stayed bounded"
        );
    }

    #[test]
    fn an_update_after_a_missing_pose_is_refused_not_applied() {
        let server = Server::start(ServeConfig {
            workers: 1,
            max_sessions: 1,
            ..ServeConfig::default()
        });
        let sid = server.create_session().expect("slot");
        let steps = Dataset::manhattan_seeded(3, 8).online_steps();
        let submit = |i: usize| {
            let step = &steps[i];
            let req = UpdateRequest::new(i as u64, step.truth.clone(), step.factors.clone());
            server.submit(sid, req)
        };
        submit(0).expect("step 0 admitted");
        // Step 2 without step 1: its odometry names x2, but the pose it
        // would add is x1.
        assert_eq!(
            submit(2),
            Err(AdmissionError::UnknownVariable {
                session: sid,
                key: Key(2)
            })
        );
        server.drain(sid).expect("drain returns: no worker died");
        let stats = server.stats();
        assert_eq!(stats.sessions[0].completed, 1);
        assert_eq!(stats.total_shed, 0, "a refusal is not a shed");
        // The gap can still be filled in order.
        submit(1).expect("step 1 admitted");
        submit(2).expect("step 2 admitted after step 1");
        assert_eq!(server.estimate(sid).expect("live").len(), 3);
    }

    #[test]
    fn degradation_level_follows_queue_depth() {
        let cfg = ServeConfig {
            degrade_start: 4,
            degrade_stride: 2,
            max_degradation: 3,
            ..ServeConfig::default()
        };
        assert_eq!(cfg.level_for_depth(0), 0);
        assert_eq!(cfg.level_for_depth(4), 0);
        assert_eq!(cfg.level_for_depth(5), 1);
        assert_eq!(cfg.level_for_depth(6), 1);
        assert_eq!(cfg.level_for_depth(7), 2);
        assert_eq!(cfg.level_for_depth(9), 3);
        assert_eq!(cfg.level_for_depth(1000), 3, "clamped at the ceiling");
    }

    #[test]
    fn overload_degrades_instead_of_dropping() {
        // A backlog beyond degrade_start must push the server's level up,
        // and every admitted update must still be applied. With
        // degrade_start 0 the first submit stamps level 1 and the first
        // dispatch reads it before any completion recomputes it, so the
        // level engages whatever the worker's pace.
        let server = Server::start(ServeConfig {
            workers: 1,
            max_sessions: 1,
            queue_capacity: 64,
            degrade_start: 0,
            degrade_stride: 2,
            ..ServeConfig::default()
        });
        let sid = server.create_session().expect("slot");
        let ds = Dataset::manhattan_seeded(30, 17);
        submit_all(&server, sid, &ds);
        server.drain(sid).expect("live");
        let stats = server.stats();
        assert_eq!(
            stats.sessions[0].completed, 30,
            "nothing admitted was dropped"
        );
        assert_eq!(stats.total_shed, 0);
        assert!(
            stats.any_degraded(),
            "a backlog over degrade_start=0 must degrade: {stats}"
        );
        assert_eq!(server.degradation(), 0, "level recovers once drained");
    }

    #[test]
    fn traced_dispatch_exports_no_repeated_args_member() {
        let ds = Dataset::manhattan_seeded(20, 3);
        let server = Server::start(ServeConfig {
            workers: 2,
            max_sessions: 1,
            trace: TraceConfig::on(),
            ..ServeConfig::default()
        });
        let sid = server.create_session().expect("slot");
        submit_all(&server, sid, &ds);
        server.drain(sid).expect("live");
        let traces = server.take_traces();
        assert_eq!(traces.len(), 20);
        let mut docs: Vec<String> = traces.iter().map(Trace::to_chrome_json).collect();
        docs.push(chrome_document_wall(&traces));
        for doc in &docs {
            let doc = parse(doc).expect("the export is valid JSON");
            let events = doc.get("traceEvents").and_then(Json::as_arr);
            for event in events.expect("a traceEvents array") {
                let Some(Json::Obj(args)) = event.get("args") else {
                    panic!("event without an args object: {event:?}");
                };
                let mut names: Vec<&str> = args.iter().map(|(name, _)| name.as_str()).collect();
                names.sort_unstable();
                let before = names.len();
                names.dedup();
                assert_eq!(names.len(), before, "repeated args member in {event:?}");
            }
        }
    }

    #[test]
    fn spans_cover_completed_steps_in_session_order() {
        let server = Server::start(ServeConfig {
            workers: 2,
            max_sessions: 2,
            ..ServeConfig::default()
        });
        let sa = server.create_session().expect("slot a");
        let sb = server.create_session().expect("slot b");
        submit_all(&server, sa, &Dataset::manhattan_seeded(10, 1));
        submit_all(&server, sb, &Dataset::manhattan_seeded(10, 2));
        server.drain_all();
        let spans = server.spans();
        assert_eq!(spans.len(), 20);
        for sid in [sa, sb] {
            let seqs: Vec<u64> = spans
                .iter()
                .filter(|s| s.session == sid)
                .map(|s| s.seq)
                .collect();
            let mut sorted = seqs.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, (0..10).collect::<Vec<u64>>());
        }
    }

    #[test]
    fn shutdown_drains_admitted_work() {
        let mut server = Server::start(ServeConfig {
            workers: 2,
            max_sessions: 1,
            ..ServeConfig::default()
        });
        let sid = server.create_session().expect("slot");
        submit_all(&server, sid, &Dataset::manhattan_seeded(15, 5));
        server.shutdown();
        assert_eq!(
            server.submit(
                sid,
                UpdateRequest::new(
                    0,
                    Variable::Se2(supernova_factors::Se2::identity()),
                    Vec::new()
                )
            ),
            Err(AdmissionError::ShuttingDown)
        );
        let stats = server.stats();
        assert_eq!(stats.total_completed, 15, "shutdown drained the backlog");
    }
}
