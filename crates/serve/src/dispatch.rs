//! The deadline-aware dispatcher: a fixed worker pool over the sessions'
//! engines.
//!
//! Scheduling discipline:
//!
//! - **Earliest deadline first.** A worker picks the *ready* session (not
//!   busy, non-empty queue) whose head-of-queue request has the smallest
//!   deadline; ties go to the lowest session id. Within one session, updates
//!   apply strictly in submission order.
//! - **Per-session exclusivity.** While a worker applies an update it holds
//!   the session's engine outside the registry lock, and a session without
//!   its engine is busy, so no second worker can touch it. A session therefore
//!   sees a serial, submission-ordered step sequence no matter how many
//!   workers run or how sessions interleave — which is what makes served
//!   estimates bit-identical to solo runs.
//! - **Graceful degradation.** The dispatcher derives a degradation level
//!   from the total queued depth (a deterministic step function) and stamps
//!   it onto the engine's [`StepBudget`](supernova_runtime::StepBudget)
//!   before each step. Overload shrinks per-step relinearization budgets
//!   instead of dropping admitted updates; queues stay bounded by admission
//!   control, not by shedding admitted work.
//! - **A panicking step fails its session, not the worker.** A step the
//!   solver cannot finish (its factorization still failing after every
//!   damping retry) panics; the worker catches it, drops the session's
//!   engine and queued updates, and marks the session failed. Waits on it
//!   return, later calls are refused with
//!   [`AdmissionError::SessionFailed`], `close` frees its slot, and the
//!   worker goes on serving the other sessions.
//!
//! Every dispatched step is recorded as a [`DispatchSpan`] (the first
//! [`RECORDED_SPANS`]) so `supernova-analyze` can check the
//! worker-exclusivity and per-session happens-before invariants on real
//! executions.

use std::panic::{self, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread;

use supernova_factors::{Key, Values, Variable};
use supernova_hw::Platform;
use supernova_runtime::{CostModel, SchedulerConfig, StepBudget};
use supernova_solvers::{EngineSnapshot, RaIsam2Config, RestoreError, SolverEngine};
use supernova_sparse::ParallelExecutor;
use supernova_trace::{epoch_seconds, Category, StepKey, Trace, TraceConfig, Tracer};

use crate::admission::{AdmissionController, AdmissionError};
use crate::session::{SessionCloseReport, SessionId, SessionRegistry, UpdateRequest};
use crate::stats::{latency_histogram, ServerStats, SessionSnapshot};

/// How many [`DispatchSpan`]s a server records; later steps go unrecorded.
const RECORDED_SPANS: usize = 65_536;

/// Serving-layer configuration.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Dispatcher worker threads. One worker serializes everything (the
    /// deterministic reference); more workers overlap distinct sessions.
    pub workers: usize,
    /// Maximum concurrent sessions; each owns one engine while it is open.
    pub max_sessions: usize,
    /// Per-session bounded queue capacity; a full queue sheds updates with
    /// [`AdmissionError::QueueFull`].
    pub queue_capacity: usize,
    /// RA-ISAM2 configuration of every session's engine.
    pub ra: RaIsam2Config,
    /// Platform whose cost model drives relinearization selection.
    pub platform: Platform,
    /// Inert: no product code reads it, since every engine runs its plans
    /// inline. Kept only because the `benchmark/` package names it.
    #[doc(hidden)]
    pub executor_threads: usize,
    /// Total queued depth up to which the server runs undegraded.
    pub degrade_start: usize,
    /// Additional total depth per extra degradation level beyond the first
    /// (each level halves the per-step budget, up to
    /// [`StepBudget::MAX_DEGRADATION`]).
    pub degrade_stride: usize,
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
            degrade_start: 16,
            degrade_stride: 8,
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
        (level as u8).min(StepBudget::MAX_DEGRADATION)
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
    /// Admission refused the session (session limit, shutting down).
    Admission(AdmissionError),
    /// Replay verification rejected the checkpoint.
    Engine(RestoreError),
}

impl std::fmt::Display for SessionRestoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SessionRestoreError::Admission(e) => write!(f, "restore refused: {e}"),
            SessionRestoreError::Engine(e) => write!(f, "restore rejected: {e}"),
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
    /// The cost model every engine prices relinearization with.
    cost: Arc<CostModel>,
    /// The executor every engine runs its plans on: its kernel arenas
    /// stay warm across sessions.
    exec: ParallelExecutor,
    state: Mutex<State>,
    /// Signalled when a session may have become ready (or on shutdown).
    work_cv: Condvar,
    /// Signalled when a session may have drained (queue empty, not busy).
    idle_cv: Condvar,
    /// Unified span-tree sink (inert when `cfg.trace` is disabled).
    tracer: Tracer,
}

/// The multi-session server: owns every open session's engine and the
/// worker threads.
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
    /// Starts the server and spawns `workers` dispatcher threads.
    pub fn start(cfg: ServeConfig) -> Self {
        let admission =
            AdmissionController::new(cfg.max_sessions.max(1), cfg.queue_capacity.max(1));
        let inner = Arc::new(Inner {
            cost: Arc::new(CostModel::new(cfg.platform.clone())),
            exec: ParallelExecutor::default(),
            state: Mutex::new(State {
                registry: SessionRegistry::new(),
                admission,
                level: 0,
                level_histogram: vec![0; usize::from(StepBudget::MAX_DEGRADATION) + 1],
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

    /// Opens a new session with an engine of its own.
    ///
    /// # Errors
    ///
    /// [`AdmissionError::SessionLimit`] when `max_sessions` are open,
    /// [`AdmissionError::ShuttingDown`] after shutdown began.
    pub fn create_session(&self) -> Result<SessionId, AdmissionError> {
        self.admit(self.inner.new_engine())
    }

    /// Admits `engine` as a new session under one lock. The session's
    /// counters continue from the updates the engine has already applied
    /// (none for a fresh engine, the checkpoint's for a restored one), so
    /// journal seq numbers stay aligned across a move.
    fn admit(&self, engine: SolverEngine) -> Result<SessionId, AdmissionError> {
        let mut st = self.inner.state.lock().unwrap(); // lint: allow(unwrap)
        if st.shutdown {
            return Err(AdmissionError::ShuttingDown);
        }
        let state = &mut *st;
        state.admission.admit_create(&state.registry)?;
        Ok(state.registry.insert(engine))
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
    /// [`AdmissionError::UnknownSession`] if the session is not live,
    /// [`AdmissionError::SessionFailed`] if a step of it panicked.
    pub fn drain(&self, session: SessionId) -> Result<(), AdmissionError> {
        self.wait_drained(session).map(drop)
    }

    /// [`drain`](Self::drain), returning the registry lock it ends under.
    fn wait_drained(&self, session: SessionId) -> Result<MutexGuard<'_, State>, AdmissionError> {
        let mut st = self.inner.state.lock().unwrap(); // lint: allow(unwrap)
        loop {
            match st.registry.get(session) {
                None => return Err(AdmissionError::UnknownSession(session)),
                Some(s) if s.failed => return Err(AdmissionError::SessionFailed(session)),
                Some(s) if s.drained() => return Ok(st),
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
    /// drops the session's engine, and reports its lifetime statistics. A
    /// failed session closes at once, with
    /// [`failed`](SessionCloseReport::failed) set.
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
        st.closed_completed += s.completed;
        st.level = self.inner.cfg.level_for_depth(st.registry.total_depth());
        // The session's engine is freed with `s`, after the lock.
        drop(st);
        Ok(SessionCloseReport {
            session,
            completed: s.completed,
            shed: s.stats.shed(),
            stats: s.stats,
            failed: s.failed,
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

    /// Drains `session`, then runs `read` on its engine under the same
    /// registry lock, so no worker can take the engine in between.
    fn with_drained_engine<T>(
        &self,
        session: SessionId,
        read: impl FnOnce(&SolverEngine) -> T,
    ) -> Result<T, AdmissionError> {
        let st = self.wait_drained(session)?;
        // A drained session that has not failed holds its engine.
        let engine = st
            .registry
            .get(session)
            .and_then(|s| s.engine.as_ref())
            .ok_or(AdmissionError::UnknownSession(session))?;
        Ok(read(engine))
    }

    /// Opens a new session from a checkpoint (the migration/failover
    /// target side): replays the checkpoint's update log into a fresh
    /// engine and verifies it against its witness, then admits the
    /// session. The new session's sequence counter continues from the
    /// checkpoint's update count, so journal seq numbers stay aligned
    /// across the move.
    ///
    /// # Errors
    ///
    /// Typed refusals per [`SessionRestoreError`]. A refused or failed
    /// restore leaves no session behind and holds no slot.
    pub fn restore_session(
        &self,
        snapshot: &EngineSnapshot,
    ) -> Result<SessionId, SessionRestoreError> {
        let engine = self
            .inner
            .new_engine()
            .restore(snapshot)
            .map_err(SessionRestoreError::Engine)?;
        Ok(self.admit(engine)?)
    }

    /// The current degradation level.
    pub fn degradation(&self) -> u8 {
        self.inner.state.lock().unwrap().level // lint: allow(unwrap)
    }

    /// The recorded dispatch spans (the first 65 536).
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

impl Inner {
    /// A fresh engine for one session, on the server's shared cost model
    /// and executor.
    fn new_engine(&self) -> SolverEngine {
        let mut e = SolverEngine::new(self.cfg.ra, Arc::clone(&self.cost) as _);
        e.set_executor(self.exec.clone());
        if self.cfg.trace.enabled {
            e.set_trace(self.cfg.trace);
            e.set_trace_hw(self.cfg.platform.clone(), SchedulerConfig::default());
        }
        e
    }
}

/// One dispatcher worker: pick the EDF session, take its engine, step
/// outside the lock, return the engine and account the step — or, if the
/// step panicked, fail the session and drop its engine.
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
        // The engine a panic leaves half-stepped is dropped below, never
        // stepped again, so observing it across the unwind is sound.
        let stepped =
            panic::catch_unwind(AssertUnwindSafe(|| engine.step(req.initial, req.factors)));
        let t1 = epoch_seconds();
        if let (Ok(_), Some(mut b)) = (&stepped, builder.take()) {
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
        if stepped.is_err() {
            s.failed = true;
            s.queue.clear();
        } else {
            s.engine = Some(engine);
            s.completed += 1;
            s.stats.record_step(t1 - t0, level);
            let idx = usize::from(level).min(st.level_histogram.len() - 1);
            st.level_histogram[idx] += 1;
            if st.spans.len() < RECORDED_SPANS {
                st.spans.push(DispatchSpan {
                    worker,
                    session,
                    seq,
                    start: t0,
                    end: t1,
                    level,
                });
            }
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
    fn session_limit_then_close_frees_a_slot() {
        let server = Server::start(ServeConfig {
            workers: 1,
            max_sessions: 1,
            // Undegraded, as the solo replay runs.
            degrade_start: usize::MAX,
            ..ServeConfig::default()
        });
        let s0 = server.create_session().expect("first slot");
        assert_eq!(
            server.create_session(),
            Err(AdmissionError::SessionLimit { max_sessions: 1 })
        );
        // Warm the shared executor's kernel arenas, the one piece of state
        // that outlives a session.
        submit_all(&server, s0, &Dataset::manhattan_seeded(60, 7));
        server.close(s0).expect("close");
        let s1 = server.create_session().expect("freed slot");
        assert_eq!(s1.0, 1, "session ids are never reused");
        let ds = Dataset::sphere_seeded(40, 11);
        submit_all(&server, s1, &ds);
        let solo = solo_replay(server.config(), &ds.online_steps());
        assert_eq!(
            server.estimate(s1).expect("live"),
            solo.estimate(),
            "a session in a freed slot diverged from the solo replay"
        );
    }

    /// Finite and well keyed, so admission takes it, yet no damping makes
    /// its system factorizable: the solver panics stepping it.
    fn unsolvable_step() -> UpdateRequest {
        use supernova_factors::{Key, NoiseModel, PriorFactor, Rot2, Se2};
        let at = |x| Se2::from_parts([x, 0.0], Rot2::from_cos_sin(1.0, 0.0));
        let noise = NoiseModel::from_sqrt_info(vec![10.0; 3], None).expect("positive weights");
        let prior = PriorFactor::se2(Key(0), at(0.0), noise);
        UpdateRequest::new(0, Variable::Se2(at(1e300)), vec![prior.into()])
    }

    #[test]
    fn a_panicking_step_fails_its_session_not_the_worker() {
        let server = Server::start(ServeConfig {
            workers: 1,
            max_sessions: 2,
            // Undegraded, as the solo replay runs.
            degrade_start: usize::MAX,
            ..ServeConfig::default()
        });
        let good = server.create_session().expect("slot");
        let bad = server.create_session().expect("slot");
        server.submit(bad, unsolvable_step()).expect("admitted");
        let ds = Dataset::manhattan_seeded(30, 5);
        submit_all(&server, good, &ds);

        // Waits on the failed session return; every later call is refused.
        let failed = Err(AdmissionError::SessionFailed(bad));
        assert_eq!(server.drain(bad), failed);
        assert_eq!(server.submit(bad, unsolvable_step()), failed);
        assert_eq!(server.estimate(bad).map(drop), failed);
        assert_eq!(server.snapshot_session(bad).map(drop), failed);
        server.drain_all();
        let report = server.close(bad).expect("a failed session closes");
        assert!(report.failed);
        assert_eq!(report.completed, 0);

        // The one worker kept serving, and the failed session's slot is
        // free again.
        let solo = solo_replay(server.config(), &ds.online_steps());
        assert_eq!(server.estimate(good).expect("live"), solo.estimate());
        assert!(!server.close(good).expect("close").failed);
        let fresh = server.create_session().expect("freed slot");
        let ds = Dataset::sphere_seeded(12, 3);
        submit_all(&server, fresh, &ds);
        let solo = solo_replay(server.config(), &ds.online_steps());
        assert_eq!(server.estimate(fresh).expect("live"), solo.estimate());
    }

    #[test]
    fn a_restored_session_continues_bit_for_bit() {
        let server = Server::start(ServeConfig {
            workers: 1,
            max_sessions: 2,
            // Undegraded, as the solo replay runs.
            degrade_start: usize::MAX,
            ..ServeConfig::default()
        });
        let steps = Dataset::manhattan_seeded(30, 4).online_steps();
        let submit = |sid, range: std::ops::Range<usize>| {
            for i in range {
                let step = &steps[i];
                let req = UpdateRequest::new(i as u64, step.truth.clone(), step.factors.clone());
                server.submit(sid, req).expect("admitted");
            }
        };
        let a = server.create_session().expect("slot a");
        submit(a, 0..18);
        let snapshot = server.snapshot_session(a).expect("live");
        let b = server.restore_session(&snapshot).expect("restored");
        server.close(a).expect("close a");
        submit(b, 18..steps.len());
        let solo = solo_replay(server.config(), &steps);
        assert_eq!(server.estimate(b).expect("live"), solo.estimate());
        let report = server.close(b).expect("close b");
        assert_eq!(report.completed, steps.len() as u64);
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
            ..ServeConfig::default()
        };
        assert_eq!(cfg.level_for_depth(0), 0);
        assert_eq!(cfg.level_for_depth(4), 0);
        assert_eq!(cfg.level_for_depth(5), 1);
        assert_eq!(cfg.level_for_depth(6), 1);
        assert_eq!(cfg.level_for_depth(7), 2);
        assert_eq!(cfg.level_for_depth(9), 3);
        assert_eq!(cfg.level_for_depth(11), 4);
        assert_eq!(
            cfg.level_for_depth(1000),
            StepBudget::MAX_DEGRADATION,
            "clamped at the ceiling"
        );
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
