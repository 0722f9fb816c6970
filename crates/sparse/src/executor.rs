//! The execute half of the plan/exec split: reusable per-worker kernel
//! pack arenas, a scoped-thread worker pool, and the host schedule record.
//!
//! This module is one of the few places in the workspace allowed to spawn
//! OS threads (`supernova-analyze`'s `thread-spawn` lint keeps a declared
//! allowlist; the serve dispatcher's worker pool is the other notable
//! entry). An [`ExecutionPlan`](crate::ExecutionPlan)'s recomputed tasks
//! run one of two ways: **inline** on the calling thread in plan
//! postorder, or — given at least two workers and a [`PlanCertificate`]
//! covering the plan — as **waves**: the plan's topological levels of
//! mutually independent tasks, one atomic claim cursor per wave and a
//! barrier between waves. Either way one work item is one whole task.
//! Because every task is a pure function of
//! the Hessian and its children's cached update matrices — merged in the
//! plan's fixed child order — results are bit-identical to inline
//! execution at any thread count.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

use supernova_linalg::{KernelScratch, NumericMode};

use crate::interference::PlanCertificate;
use crate::ExecutionPlan;

/// How a plan execution sequenced its work. Recorded on every
/// [`HostSchedule`] (and exported as the `dispatch_mode` counter on exec
/// trace spans) so benchmarks and CI can see which dispatch path ran.
///
/// The numeric encoding is part of the committed benchmark baselines and
/// the trace format. `1` named a dependency-counted ready-queue mode that
/// no longer exists; it is retired, never reused.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum DispatchMode {
    /// Inline postorder on the calling thread (one worker).
    #[default]
    Serial = 0,
    /// Worker pool with one atomic claim cursor per wave (a topological
    /// level of tasks) and a barrier between waves — no locks on the task
    /// path. Requires a [`PlanCertificate`] proving same-level tasks
    /// access-disjoint.
    LevelBatched = 2,
}

impl DispatchMode {
    /// Stable numeric encoding for trace counters.
    pub fn as_u64(self) -> u64 {
        self as u64
    }
}

/// One executed task span in a host schedule: which worker ran which
/// supernode over which wall-clock interval.
#[derive(Clone, Debug)]
pub struct TaskSpan {
    /// Supernode / task id.
    pub node: usize,
    /// Worker index (0-based).
    pub worker: usize,
    /// Start time in seconds since the execution began.
    pub start: f64,
    /// End time in seconds since the execution began.
    pub end: f64,
    /// f64 multiply-add flops the dense kernels executed for this task, as
    /// metered by the worker's [`KernelScratch`]. Deterministic — a pure
    /// function of the task's front shape — unlike the wall-clock fields.
    pub kernel_flops: u64,
}

/// The wall-clock record of one plan execution on the host pool.
///
/// Spans are totally ordered by a single monotonic clock shared by every
/// worker: a parent's `start` is sampled only after each child's `end` has
/// been sampled, so the record itself witnesses the plan's happens-before
/// relation (checked by `supernova-analyze`'s host-schedule invariant).
#[derive(Clone, Debug, Default)]
pub struct HostSchedule {
    /// Executed spans, sorted by start time.
    pub spans: Vec<TaskSpan>,
    /// Number of workers the pool ran with.
    pub workers: usize,
    /// When this execution began, in seconds on the process-global trace
    /// epoch ([`supernova_trace::epoch_seconds`]) — span `start`/`end`
    /// values are relative to this origin, so `origin + start` places a
    /// task on the same timeline as every other traced subsystem.
    pub origin: f64,
    /// Which dispatch strategy sequenced this execution.
    pub mode: DispatchMode,
    /// Numeric precision the executing workers' kernels ran under.
    pub numeric: NumericMode,
}

impl HostSchedule {
    /// Wall-clock duration from first start to last end, in seconds.
    pub fn makespan(&self) -> f64 {
        let end = self.spans.iter().map(|s| s.end).fold(0.0, f64::max);
        let start = self
            .spans
            .iter()
            .map(|s| s.start)
            .fold(f64::INFINITY, f64::min);
        if self.spans.is_empty() {
            0.0
        } else {
            end - start
        }
    }

    /// Sum of span durations across all workers, in seconds.
    pub fn busy_time(&self) -> f64 {
        self.spans.iter().map(|s| s.end - s.start).sum()
    }

    /// Total dense-kernel flops across all executed tasks (deterministic,
    /// unlike the wall-clock fields).
    pub fn kernel_flops(&self) -> u64 {
        self.spans.iter().map(|s| s.kernel_flops).sum()
    }

    /// Total dispatch overhead in worker-seconds: wall-clock capacity the
    /// pool held (`makespan × workers`) minus the time workers actually
    /// spent inside tasks. Covers claim-cursor traffic, barrier waits and
    /// wave-tail idling.
    pub fn dispatch_overhead_s(&self) -> f64 {
        (self.makespan() * self.workers as f64 - self.busy_time()).max(0.0)
    }

    /// Dispatch overhead per executed span, in seconds — the metric the
    /// benchmark ledger tracks for the inline and the wave path alike.
    pub fn dispatch_overhead_per_task_s(&self) -> f64 {
        if self.spans.is_empty() {
            0.0
        } else {
            self.dispatch_overhead_s() / self.spans.len() as f64
        }
    }
}

/// Aggregate statistics over an executor's persistent pack-arena pool —
/// the zero-alloc hot-path witness: on a steady workload `grow_events`
/// and `high_water_elems` go flat after warm-up.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Arenas currently parked in the pool (checked-out ones are not
    /// counted; between plan executions this equals the peak worker count
    /// seen so far).
    pub workspaces: usize,
    /// Sum of [`KernelScratch::grow_events`] over pooled arenas.
    pub grow_events: u64,
    /// Max of [`KernelScratch::high_water_elems`] over pooled arenas.
    pub high_water_elems: usize,
}

/// Host-side executor configuration: how many workers to run plans on.
///
/// `threads == 1` executes inline on the calling thread (no pool, no
/// barrier); `threads > 1` spins up a scoped `std::thread` pool per
/// certified execution. Results are bit-identical either way.
///
/// The executor owns a persistent pool of blocked-kernel pack arenas
/// ([`KernelScratch`]) that survives across `run` calls (and is shared by
/// clones): an execution checks one warm arena per worker out at its start
/// and returns them at its end. Fronts are not pooled — each supernode
/// factors in its own persistent buffer (`NumericFactor`). Arena contents
/// are fully overwritten per kernel call, so pooling never affects
/// results.
#[derive(Clone, Debug)]
pub struct ParallelExecutor {
    threads: usize,
    numeric: NumericMode,
    /// CPUs available to this process, queried once at construction (the
    /// query reads affinity masks and cgroup files): decides whether wave
    /// barriers may spin. A serial executor never builds a barrier and
    /// skips the query.
    host_cpus: usize,
    pool: Arc<Mutex<Vec<KernelScratch>>>,
}

impl PartialEq for ParallelExecutor {
    /// Configuration equality only — the arena pool is a cache and never
    /// affects behavior.
    fn eq(&self, other: &Self) -> bool {
        self.threads == other.threads && self.numeric == other.numeric
    }
}

impl Eq for ParallelExecutor {}

impl ParallelExecutor {
    /// An executor with exactly `threads` workers (clamped to ≥ 1).
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let host_cpus = if threads > 1 { host_cpus() } else { 1 };
        // Pre-populate one (empty, allocation-free) arena per worker, so
        // the pool's arena count is fixed at construction instead of
        // depending on how checkouts happened to overlap — a prerequisite
        // for deterministic pool statistics.
        // lint: allow(hot-alloc) — one-time constructor, not the task path
        let pool = (0..threads).map(|_| KernelScratch::new()).collect();
        ParallelExecutor {
            threads,
            numeric: NumericMode::default(),
            host_cpus,
            pool: Arc::new(Mutex::new(pool)),
        }
    }

    /// Same executor with the given numeric mode for its workers' kernels.
    pub fn with_numeric(mut self, numeric: NumericMode) -> Self {
        self.numeric = numeric;
        self
    }

    /// Overrides the numeric mode in place. Takes effect on the next plan
    /// execution; callers holding cached factors produced under another
    /// mode must invalidate them (the solver engine does).
    pub fn set_numeric_mode(&mut self, numeric: NumericMode) {
        self.numeric = numeric;
    }

    /// The numeric precision this executor's workers factor under.
    pub fn numeric(&self) -> NumericMode {
        self.numeric
    }

    /// A single-threaded (inline) executor.
    pub fn serial() -> Self {
        ParallelExecutor::new(1)
    }

    /// Reads the worker count from the `SUPERNOVA_THREADS` environment
    /// variable and the numeric mode from
    /// [`supernova_linalg::NUMERIC_ENV`] (`f64`/`f32`; unset or
    /// unrecognized means f64). Unset (or unparsable, or 0) means **one
    /// worker**: wave dispatch spawns its workers per plan execution and
    /// measures slower than inline on the reference host, so multi-worker
    /// execution is opt-in — set the variable, or install an executor
    /// built with [`new`](Self::new) — until a measurement earns a wider
    /// default.
    pub fn from_env() -> Self {
        let threads = std::env::var("SUPERNOVA_THREADS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|&n| n > 0)
            .unwrap_or(1);
        ParallelExecutor::new(threads).with_numeric(NumericMode::from_env())
    }

    /// The configured worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Snapshot of the persistent arena pool (call between plan
    /// executions; checked-out arenas are not visible).
    pub fn pool_stats(&self) -> PoolStats {
        // Poisoning requires a panic while the pool is locked, and nothing
        // that runs under the lock can panic.
        let pool = self.pool.lock().unwrap(); // lint: allow(unwrap)
        PoolStats {
            workspaces: pool.len(),
            grow_events: pool.iter().map(KernelScratch::grow_events).sum(),
            high_water_elems: pool
                .iter()
                .map(KernelScratch::high_water_elems)
                .max()
                .unwrap_or(0),
        }
    }

    /// Checks `n` arenas out of the pool, largest first (cold ones if the
    /// pool runs short — clones share it), each with its flop meter
    /// drained so per-task deltas start from zero and grown to the plan's
    /// `(front, pack)` bounds: every pack buffer to `pack` scalars (use
    /// [`ExecutionPlan::max_pack_elems_mode`]) and, under a narrow
    /// [`NumericMode`], the f32 pack panels too and the f32 front shadow
    /// to the largest front, `front` scalars (use
    /// [`ExecutionPlan::max_workspace_elems`]). So no kernel allocates
    /// mid-execution in any mode.
    ///
    /// Called only on the thread that called [`run`](Self::run), before
    /// any worker spawns, and the arenas come back the same way
    /// ([`checkin`](Self::checkin)): workers never touch the pool. So
    /// which arenas an execution gets, and whether any of them grows, is a
    /// pure function of the plan sequence — which worker happens to claim
    /// which task (timing-dependent) cannot decide it. Taking the
    /// *largest* is what makes the pool go quiet: once warm, the k-th
    /// largest arena dominates every plan that ran at width ≥ k, and
    /// replays stop allocating entirely.
    fn checkout(&self, n: usize, (front, pack): (usize, usize)) -> Vec<KernelScratch> {
        // lint: allow(unwrap) — poisoning as above
        let mut pool = self.pool.lock().unwrap();
        pool.sort_by_key(|s| std::cmp::Reverse(s.high_water_elems()));
        let warm = n.min(pool.len());
        let mut out: Vec<KernelScratch> = pool.drain(..warm).collect();
        drop(pool);
        out.resize_with(n, KernelScratch::new);
        for scratch in &mut out {
            scratch.reserve(pack);
            if self.numeric.is_narrow() {
                scratch.reserve_mode(self.numeric, pack, front);
            }
            scratch.take_flops();
        }
        out
    }

    /// Returns an execution's arenas to the pool for the next one.
    fn checkin(&self, arenas: Vec<KernelScratch>) {
        // lint: allow(unwrap) — poisoning as above
        self.pool.lock().unwrap().extend(arenas);
    }
}

/// CPUs available to this process (1 when the host will not say).
fn host_cpus() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

impl Default for ParallelExecutor {
    /// Serial execution — the conservative default.
    fn default() -> Self {
        ParallelExecutor::serial()
    }
}

impl ParallelExecutor {
    /// Executes the plan's tasks flagged in `recompute`, calling `work_fn`
    /// exactly once per flagged task id, with the running worker's pack
    /// arena, after every flagged child of the task has completed.
    /// `work_fn` publishes each task's result itself
    /// (the numeric layer uses a `OnceLock` slot per node), so the executor
    /// only sequences work and records the [`HostSchedule`], one
    /// [`TaskSpan`] per task.
    ///
    /// There are two ways to sequence the tasks:
    ///
    /// - **inline** ([`DispatchMode::Serial`]): the calling thread walks
    ///   the plan postorder;
    /// - **waves** ([`DispatchMode::LevelBatched`]): workers claim the
    ///   tasks of one [level](ExecutionPlan::levels) at a time and meet at
    ///   a barrier before the next.
    ///
    /// Which of the two runs is decided by one rule, `takes_waves`: at
    /// least two workers, at least two flagged tasks and a `cert` that
    /// [covers](PlanCertificate::covers) `plan` — the proof that same-level
    /// tasks are access-disjoint and that every dependency crosses a level
    /// boundary. Without it — no certificate, or one computed from another
    /// plan — a multi-worker executor runs inline, the conservative
    /// direction: there is no multi-worker dispatch without the proof.
    ///
    /// Results and the recorded span set are the same on both paths — the
    /// certificate only changes *when* independent tasks run, never their
    /// inputs.
    ///
    /// On error, in-flight tasks finish, no new tasks start, and the error
    /// from the lowest-numbered failing task is returned.
    pub fn run<E, F>(
        &self,
        plan: &ExecutionPlan,
        recompute: &[bool],
        cert: Option<&PlanCertificate>,
        work_fn: F,
    ) -> (Result<(), E>, HostSchedule)
    where
        E: Send,
        F: Fn(usize, &mut KernelScratch) -> Result<(), E> + Sync,
    {
        assert_eq!(recompute.len(), plan.num_tasks());
        // One sweep over the tasks per execution, shared by every arena
        // the execution checks out.
        let bounds = (
            plan.max_workspace_elems(),
            plan.max_pack_elems_mode(self.numeric),
        );
        if self.takes_waves(plan, recompute, cert) {
            run_waves(self, plan, recompute, bounds, &work_fn)
        } else {
            run_inline(self, plan, recompute, bounds, &work_fn)
        }
    }

    /// The wave-or-inline rule of [`run`](Self::run), written once.
    fn takes_waves(
        &self,
        plan: &ExecutionPlan,
        recompute: &[bool],
        cert: Option<&PlanCertificate>,
    ) -> bool {
        let several_flagged = || recompute.iter().filter(|&&r| r).nth(1).is_some();
        self.threads > 1 && several_flagged() && cert.is_some_and(|c| c.covers(plan))
    }
}

/// Runs task `s` with `scratch`, timed on the execution's shared clock,
/// and records its span in `spans`.
///
/// Forced inline: what runs between one task's `end` stamp and the next
/// one's `start` stamp is the inline path's entire dispatch cost (~0.08 µs
/// per task, `sparse.dispatch_overhead_us_per_task` in the benchmark
/// ledger), and an out-of-line call here adds 10–25 ns to it.
#[inline(always)]
fn run_timed<E>(
    spans: &mut Vec<TaskSpan>,
    s: usize,
    worker: usize,
    origin: Instant,
    scratch: &mut KernelScratch,
    work_fn: &impl Fn(usize, &mut KernelScratch) -> Result<(), E>,
) -> Result<(), E> {
    let start = origin.elapsed().as_secs_f64();
    let res = work_fn(s, scratch);
    let end = origin.elapsed().as_secs_f64();
    spans.push(TaskSpan {
        node: s,
        worker,
        start,
        end,
        kernel_flops: scratch.take_flops(),
    });
    res
}

/// Inline execution on the calling thread: plan postorder, every flagged
/// task in turn.
fn run_inline<E, F>(
    exec: &ParallelExecutor,
    plan: &ExecutionPlan,
    recompute: &[bool],
    bounds: (usize, usize),
    work_fn: &F,
) -> (Result<(), E>, HostSchedule)
where
    F: Fn(usize, &mut KernelScratch) -> Result<(), E>,
{
    let epoch = supernova_trace::epoch_seconds();
    let origin = Instant::now();
    let mut arenas = exec.checkout(1, bounds);
    // lint: allow(hot-alloc) — per-execution span record, not the task path
    let mut spans = Vec::new();
    let mut res = Ok(());
    for &s in plan.postorder() {
        if !recompute[s] {
            continue;
        }
        res = run_timed(&mut spans, s, 0, origin, &mut arenas[0], work_fn);
        if res.is_err() {
            break;
        }
    }
    exec.checkin(arenas);
    let sched = HostSchedule {
        spans,
        workers: 1,
        origin: epoch,
        mode: DispatchMode::Serial,
        numeric: exec.numeric,
    };
    (res, sched)
}

/// A sense-reversing barrier that spins briefly before parking on a
/// condvar. `std::sync::Barrier` always takes its mutex; wave dispatch
/// crosses one barrier per topological level — a few dozen per plan
/// execution on the seeded datasets, most of them levels of a few small
/// tasks — so the microseconds each crossing costs sit directly on the
/// critical path. Workers spin for a short budget (the common case:
/// the level's last task finishes within it) and only then fall back to
/// blocking — so an idle machine still sleeps instead of burning a core.
/// When the pool oversubscribes the host (more parties than CPUs),
/// spinning would steal cycles from the very worker everyone is waiting
/// on, so the caller passes a zero budget and waiters park immediately.
struct SpinBarrier {
    parties: usize,
    spin_budget_micros: u128,
    arrived: AtomicUsize,
    generation: AtomicUsize,
    lock: Mutex<()>,
    cv: Condvar,
}

/// How long a worker spins at a barrier before parking. Roughly two
/// orders of magnitude above a barrier crossing itself (well under a
/// microsecond), and small next to the wide fronts that make a level run
/// long (a 300-wide front's whole task is milliseconds) — so a waiter
/// parks, and pays a wake-up, only where the wait was long anyway.
const BARRIER_SPIN_BUDGET_MICROS: u128 = 50;

impl SpinBarrier {
    fn new(parties: usize, spin_budget_micros: u128) -> Self {
        SpinBarrier {
            parties,
            spin_budget_micros,
            arrived: AtomicUsize::new(0),
            generation: AtomicUsize::new(0),
            lock: Mutex::new(()),
            cv: Condvar::new(),
        }
    }

    /// Blocks until all `parties` workers have called `wait` for the
    /// current generation.
    fn wait(&self) {
        let generation = self.generation.load(Ordering::Acquire);
        if self.arrived.fetch_add(1, Ordering::AcqRel) + 1 == self.parties {
            // Last arriver: reset the count *before* publishing the new
            // generation, so a worker racing into the next barrier cannot
            // observe the stale count.
            self.arrived.store(0, Ordering::Release);
            self.generation
                .store(generation.wrapping_add(1), Ordering::Release);
            // Taking the lock orders this wake-up after any parker's
            // generation re-check, closing the missed-notify window.
            // lint: allow(unwrap) — poisoning requires a prior worker panic
            drop(self.lock.lock().unwrap());
            self.cv.notify_all();
            return;
        }
        if self.spin_budget_micros > 0 {
            // lint: allow(wall-clock) — spin budget, already in the
            // executor's wall-clock allowlist
            let spin_start = Instant::now();
            loop {
                if self.generation.load(Ordering::Acquire) != generation {
                    return;
                }
                if spin_start.elapsed().as_micros() > self.spin_budget_micros {
                    break;
                }
                std::hint::spin_loop();
            }
        }
        // lint: allow(unwrap) — poisoning as above
        let mut guard = self.lock.lock().unwrap();
        while self.generation.load(Ordering::Acquire) == generation {
            // lint: allow(unwrap) — poisoning as above
            guard = self.cv.wait(guard).unwrap();
        }
    }
}

/// Wave execution on a scoped worker pool, for certified plans: one atomic
/// claim cursor per topological level and a [`SpinBarrier`] between
/// levels.
///
/// Inside a wave there is no ordering at all — the [`PlanCertificate`]
/// proves the tasks of one level access-disjoint, so any interleaving
/// computes identical bits. *Between* waves the barrier provides the
/// happens-before edge every cross-level read needs (a parent consuming a
/// child's published update matrix): a worker passes the level-`k` barrier
/// only after every level-`k` task has completed and published.
///
/// The task path holds no locks: claiming a task is one `fetch_add` on
/// the wave cursor. On error the abort flag stops further claims, but
/// every worker still reaches every barrier so nobody deadlocks.
fn run_waves<E, F>(
    exec: &ParallelExecutor,
    plan: &ExecutionPlan,
    recompute: &[bool],
    bounds: (usize, usize),
    work_fn: &F,
) -> (Result<(), E>, HostSchedule)
where
    E: Send,
    F: Fn(usize, &mut KernelScratch) -> Result<(), E> + Sync,
{
    // Per-level worklists of the recomputed tasks, ascending so claim
    // order is deterministic given claim timing.
    // lint: allow(hot-alloc) — per-execution dispatch tables, not the task path
    let waves: Vec<Vec<usize>> = plan
        .levels()
        .iter()
        .map(|members| {
            let mut v: Vec<usize> = members.iter().copied().filter(|&s| recompute[s]).collect();
            v.sort_unstable();
            v
        })
        .collect();
    let tasks: usize = waves.iter().map(Vec::len).sum();
    let cursors: Vec<AtomicUsize> = waves.iter().map(|_| AtomicUsize::new(0)).collect();
    let abort = AtomicBool::new(false);
    // lint: allow(hot-alloc) — per-execution error collector, not the task path
    let errors: Mutex<Vec<(usize, E)>> = Mutex::new(Vec::new());
    let epoch = supernova_trace::epoch_seconds();
    let origin = Instant::now();
    let nworkers = exec.threads.min(tasks);
    let spin_budget_micros = if nworkers > exec.host_cpus {
        0
    } else {
        BARRIER_SPIN_BUDGET_MICROS
    };
    let barrier = SpinBarrier::new(nworkers, spin_budget_micros);

    // lint: allow(hot-alloc) — per-execution span record, not the task path
    let mut spans = Vec::with_capacity(tasks);
    // lint: allow(hot-alloc) — per-execution arena handback, not the task path
    let mut returned = Vec::with_capacity(nworkers);
    std::thread::scope(|scope| {
        let (waves, cursors, abort, errors, barrier) =
            (&waves, &cursors, &abort, &errors, &barrier);
        let handles: Vec<_> = exec
            .checkout(nworkers, bounds)
            .into_iter()
            .enumerate()
            .map(|(worker, mut scratch)| {
                scope.spawn(move || {
                    // lint: allow(hot-alloc) — per-worker span record, not the task path
                    let mut mine = Vec::new();
                    for (members, cursor) in waves.iter().zip(cursors) {
                        while !abort.load(Ordering::Acquire) {
                            let idx = cursor.fetch_add(1, Ordering::AcqRel);
                            let Some(&s) = members.get(idx) else {
                                break;
                            };
                            if let Err(e) =
                                run_timed(&mut mine, s, worker, origin, &mut scratch, work_fn)
                            {
                                // lint: allow(unwrap) — poisoning needs a prior worker panic
                                errors.lock().unwrap().push((s, e));
                                abort.store(true, Ordering::Release);
                            }
                        }
                        // Every worker reaches every barrier — including
                        // after an abort — so no one is left waiting.
                        barrier.wait();
                    }
                    (mine, scratch)
                })
            })
            .collect();
        for h in handles {
            if let Ok((theirs, scratch)) = h.join() {
                spans.extend(theirs);
                returned.push(scratch);
            }
        }
    });
    exec.checkin(returned);

    spans.sort_by(|a, b| a.start.total_cmp(&b.start).then(a.node.cmp(&b.node)));
    let sched = HostSchedule {
        spans,
        workers: nworkers,
        origin: epoch,
        mode: DispatchMode::LevelBatched,
        numeric: exec.numeric,
    };
    let first = errors
        .into_inner()
        .unwrap_or_default()
        .into_iter()
        .min_by_key(|&(task, _)| task);
    (first.map_or(Ok(()), |(_, e)| Err(e)), sched)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interference::certify;
    use crate::{BlockPattern, SymbolicFactor};
    use std::sync::atomic::AtomicU64;

    fn plan_of(n: usize) -> ExecutionPlan {
        let mut p = BlockPattern::new(vec![2; n]);
        for i in 0..n - 1 {
            p.add_block_edge(i, i + 1);
        }
        ExecutionPlan::from_symbolic(&SymbolicFactor::analyze(&p, 0))
    }

    /// Supernodes {0}, {1} and {2, 3}: two independent leaves under one
    /// root, so waves run a level of two tasks side by side.
    fn fork_plan() -> ExecutionPlan {
        let mut p = BlockPattern::new(vec![2; 4]);
        p.add_block_edge(0, 3);
        p.add_block_edge(1, 2);
        p.add_block_edge(2, 3);
        ExecutionPlan::from_symbolic(&SymbolicFactor::analyze(&p, 0))
    }

    /// The plans every dispatch case runs over: a chain and a fork (a
    /// level of two independent tasks).
    fn plans() -> [(&'static str, ExecutionPlan); 2] {
        let (chain, fork) = (plan_of(24), fork_plan());
        assert_eq!(fork.levels()[0].len(), 2);
        [("chain", chain), ("fork", fork)]
    }

    /// The certificates a case can be handed, with whether each covers
    /// `plan`: its own proof, none at all, and one computed from another
    /// plan.
    fn certificates(plan: &ExecutionPlan) -> [(&'static str, Option<PlanCertificate>, bool); 3] {
        let own = certify(plan).expect("test plan certifies");
        let foreign = certify(&plan_of(5)).expect("chain plan certifies");
        assert!(own.covers(plan) && !foreign.covers(plan));
        [
            ("covering", Some(own), true),
            ("none", None, false),
            ("foreign", Some(foreign), false),
        ]
    }

    /// Whether the executor must take waves for this case — the rule
    /// `takes_waves` implements, restated independently.
    fn expect_waves(covers: bool, threads: usize, flagged: usize) -> bool {
        covers && threads > 1 && flagged > 1
    }

    /// What one execution did, per task: how often it ran and its
    /// `(start, end)` ticks on a logical clock shared by all workers.
    struct Observed {
        sched: HostSchedule,
        runs: Vec<usize>,
        ticks: Vec<(u64, u64)>,
    }

    fn observe(
        plan: &ExecutionPlan,
        recompute: &[bool],
        threads: usize,
        cert: Option<&PlanCertificate>,
    ) -> Observed {
        let n = plan.num_tasks();
        let clock = AtomicU64::new(0);
        let tick = || clock.fetch_add(1, Ordering::SeqCst) + 1;
        let runs: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        let ticks: Vec<(AtomicU64, AtomicU64)> = (0..n)
            .map(|_| (AtomicU64::new(0), AtomicU64::new(0)))
            .collect();
        let (res, sched) =
            ParallelExecutor::new(threads).run::<(), _>(plan, recompute, cert, |s, _ws| {
                ticks[s].0.store(tick(), Ordering::SeqCst);
                runs[s].fetch_add(1, Ordering::SeqCst);
                ticks[s].1.store(tick(), Ordering::SeqCst);
                Ok(())
            });
        assert!(res.is_ok());
        Observed {
            sched,
            runs: runs.into_iter().map(AtomicUsize::into_inner).collect(),
            ticks: ticks
                .into_iter()
                .map(|(s, e)| (s.into_inner(), e.into_inner()))
                .collect(),
        }
    }

    #[test]
    fn every_dispatch_case_runs_each_item_once_in_dependency_order() {
        for (name, plan) in plans() {
            let n = plan.num_tasks();
            let root = *plan.postorder().last().expect("nonempty plan");
            // Everything; an upper slice of the tree, so some waves are
            // partially or entirely empty; the root alone.
            let recompute_sets: [Vec<bool>; 3] = [
                vec![true; n],
                (0..n).map(|s| s >= n / 2).collect(),
                (0..n).map(|s| s == root).collect(),
            ];
            for recompute in recompute_sets {
                let flagged: Vec<usize> = (0..n).filter(|&s| recompute[s]).collect();
                for threads in [1usize, 2, 4] {
                    for (cert_name, cert, covers) in certificates(&plan) {
                        let case = format!(
                            "{name}, {} flagged, {threads} threads, {cert_name}",
                            flagged.len()
                        );
                        let seen = observe(&plan, &recompute, threads, cert.as_ref());
                        let sched = &seen.sched;

                        // Every flagged task ran exactly once, and nothing
                        // else ran at all.
                        for (s, &runs) in seen.runs.iter().enumerate() {
                            assert_eq!(runs, usize::from(recompute[s]), "{case}: task {s}");
                        }
                        // Every flagged child completed before its parent
                        // started.
                        for task in plan.tasks().iter().filter(|t| recompute[t.node]) {
                            for mg in task.merges.iter().filter(|mg| recompute[mg.child]) {
                                assert!(
                                    seen.ticks[mg.child].1 < seen.ticks[task.node].0,
                                    "{case}: task {} started before child {} finished",
                                    task.node,
                                    mg.child
                                );
                            }
                        }

                        // No multi-worker dispatch without the proof (or
                        // for a single flagged task).
                        if expect_waves(covers, threads, flagged.len()) {
                            assert_eq!(sched.mode, DispatchMode::LevelBatched, "{case}");
                            assert_eq!(sched.workers, threads.min(flagged.len()), "{case}");
                            assert!(sched.workers > 1, "{case}");
                        } else {
                            assert_eq!(sched.mode, DispatchMode::Serial, "{case}");
                            assert_eq!(sched.workers, 1, "{case}");
                        }

                        // One span per flagged task, on either path.
                        let mut nodes: Vec<usize> = sched.spans.iter().map(|s| s.node).collect();
                        nodes.sort_unstable();
                        assert_eq!(nodes, flagged, "{case}");
                    }
                }
            }
        }
    }

    #[test]
    fn error_from_the_lowest_failing_task_is_returned_without_deadlock() {
        for (name, plan) in plans() {
            let recompute = vec![true; plan.num_tasks()];
            // Tasks 0 and 1 fail: the fork's two leaves share a level, so
            // waves may see both errors and must report the lower one.
            let fails = |s: usize| s < 2;
            for threads in [1usize, 2, 4] {
                for (cert_name, cert, _) in certificates(&plan) {
                    let (res, _) = ParallelExecutor::new(threads).run::<usize, _>(
                        &plan,
                        &recompute,
                        cert.as_ref(),
                        |s, _ws| if fails(s) { Err(s) } else { Ok(()) },
                    );
                    assert_eq!(res, Err(0), "{name}, {threads} threads, {cert_name}");
                }
            }
        }
    }

    #[test]
    fn env_override_parses() {
        assert_eq!(ParallelExecutor::new(0).threads(), 1);
        let from_env = ParallelExecutor::from_env().threads();
        assert!(from_env >= 1);
        if std::env::var_os("SUPERNOVA_THREADS").is_none() {
            assert_eq!(from_env, 1, "multi-worker execution is opt-in");
        }
    }

    #[test]
    fn workspace_pool_persists_and_stops_growing() {
        let plan = plan_of(20);
        let cert = certify(&plan).expect("chain plan certifies");
        let recompute = vec![true; plan.num_tasks()];
        let pack = plan.max_pack_elems();
        for threads in [1usize, 3] {
            let exec = ParallelExecutor::new(threads);
            // One pre-created (empty) arena per worker, nothing grown.
            assert_eq!(
                exec.pool_stats(),
                PoolStats {
                    workspaces: threads,
                    ..PoolStats::default()
                }
            );
            // A task's demand stays within the plan's bounds — that is
            // the contract — so every buffer it touches was grown at
            // checkout, before any worker ran, and no arena growth can
            // depend on which worker claimed which task.
            let task = |_s: usize, scratch: &mut KernelScratch| -> Result<(), ()> {
                scratch.reserve(pack);
                Ok(())
            };
            let (res, sched) = exec.run(&plan, &recompute, Some(&cert), task);
            assert!(res.is_ok());
            assert_eq!(sched.workers, threads);
            let warm = exec.pool_stats();
            assert_eq!(warm.workspaces, threads);
            assert!(warm.high_water_elems >= pack);
            // Clones share the same pool; re-running never grows it.
            let alias = exec.clone();
            for rerun in 0..50 {
                let (res, _) = alias.run(&plan, &recompute, Some(&cert), task);
                assert!(res.is_ok());
                assert_eq!(exec.pool_stats(), warm, "{threads} threads, rerun {rerun}");
            }
        }
    }

    #[test]
    fn kernel_flops_are_recorded_per_span() {
        let plan = plan_of(6);
        let cert = certify(&plan).expect("certifies");
        let recompute = vec![true; plan.num_tasks()];
        let exec = ParallelExecutor::new(2);
        let (res, sched) = exec.run::<(), _>(&plan, &recompute, Some(&cert), |_s, _ws| Ok(()));
        assert!(res.is_ok());
        // No kernels ran, so every span meters zero — but the field is
        // present and the schedule total agrees.
        assert!(sched.spans.iter().all(|s| s.kernel_flops == 0));
        assert_eq!(sched.kernel_flops(), 0);
    }

    #[test]
    fn dispatch_overhead_metrics_are_finite() {
        let plan = plan_of(10);
        let cert = certify(&plan).expect("certifies");
        let recompute = vec![true; plan.num_tasks()];
        let (res, sched) =
            ParallelExecutor::new(2).run::<(), _>(&plan, &recompute, Some(&cert), |_s, _ws| Ok(()));
        assert!(res.is_ok());
        assert!(sched.dispatch_overhead_s() >= 0.0);
        assert!(sched.dispatch_overhead_per_task_s() >= 0.0);
        assert!(sched.dispatch_overhead_per_task_s().is_finite());
        assert_eq!(HostSchedule::default().dispatch_overhead_per_task_s(), 0.0);
    }

    #[test]
    fn spin_barrier_synchronizes_rounds() {
        let parties = 4usize;
        let rounds = 200usize;
        // Spinning first, and parking at once (the oversubscribed case).
        for budget in [BARRIER_SPIN_BUDGET_MICROS, 0] {
            let barrier = SpinBarrier::new(parties, budget);
            let counter = AtomicUsize::new(0);
            std::thread::scope(|scope| {
                for _ in 0..parties {
                    scope.spawn(|| {
                        for round in 0..rounds {
                            counter.fetch_add(1, Ordering::SeqCst);
                            barrier.wait();
                            // After the barrier every increment of this
                            // round must be visible.
                            assert!(counter.load(Ordering::SeqCst) >= (round + 1) * parties);
                            barrier.wait();
                        }
                    });
                }
            });
            assert_eq!(counter.load(Ordering::SeqCst), parties * rounds);
        }
    }

    #[test]
    fn makespan_and_busy_time_are_consistent() {
        let plan = plan_of(10);
        let cert = certify(&plan).expect("certifies");
        let recompute = vec![true; plan.num_tasks()];
        let (res, sched) =
            ParallelExecutor::new(2).run::<(), _>(&plan, &recompute, Some(&cert), |_s, _| Ok(()));
        assert!(res.is_ok());
        assert!(sched.makespan() >= 0.0);
        assert!(sched.busy_time() >= 0.0);
        for w in sched.spans.windows(2) {
            assert!(w[0].start <= w[1].start, "spans sorted by start");
        }
    }
}
