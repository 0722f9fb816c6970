//! The execute half of the plan/exec split: the host executor, its
//! persistent kernel pack arenas, and the host schedule record.
//!
//! An [`ExecutionPlan`](crate::ExecutionPlan)'s recomputed tasks run
//! inline on the calling thread, in plan postorder, one whole task at a
//! time: a task reads its children's finished fronts and then writes its
//! own. The paper's parallelism — subtrees on separate accelerator sets —
//! is priced by `supernova-runtime`, not run on host threads; the host
//! runs sessions in parallel instead (the serve dispatcher's workers).

use std::sync::{Arc, Mutex};
use std::time::Instant;

use supernova_linalg::KernelScratch;

use crate::ExecutionPlan;

/// One executed task span in a host schedule: which supernode ran over
/// which wall-clock interval.
#[derive(Clone, Debug)]
pub struct TaskSpan {
    /// Supernode / task id.
    pub node: usize,
    /// Start time in seconds since the execution began.
    pub start: f64,
    /// End time in seconds since the execution began.
    pub end: f64,
    /// f64 multiply-add flops the dense kernels executed for this task, as
    /// metered by the execution's [`KernelScratch`]. Deterministic — a pure
    /// function of the task's front shape — unlike the wall-clock fields.
    pub kernel_flops: u64,
}

/// The wall-clock record of one plan execution.
///
/// Spans are in execution order on one monotonic clock: a parent's
/// `start` is sampled only after each child's `end` has been sampled, so
/// the record itself witnesses the plan's happens-before relation
/// (checked by `supernova-analyze`'s host-schedule invariant).
#[derive(Clone, Debug, Default)]
pub struct HostSchedule {
    /// Executed spans, in execution (plan post-)order.
    pub spans: Vec<TaskSpan>,
    /// When this execution began, in seconds on the process-global trace
    /// epoch ([`supernova_trace::epoch_seconds`]) — span `start`/`end`
    /// values are relative to this origin, so `origin + start` places a
    /// task on the same timeline as every other traced subsystem.
    pub origin: f64,
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

    /// Sum of span durations, in seconds.
    pub fn busy_time(&self) -> f64 {
        self.spans.iter().map(|s| s.end - s.start).sum()
    }

    /// Total dense-kernel flops across all executed tasks (deterministic,
    /// unlike the wall-clock fields).
    pub fn kernel_flops(&self) -> u64 {
        self.spans.iter().map(|s| s.kernel_flops).sum()
    }
}

/// Aggregate statistics over an executor's persistent pack-arena pool —
/// the zero-alloc hot-path witness: on a steady workload `grow_events`
/// and `high_water_elems` go flat after warm-up.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Arenas currently parked in the pool (checked-out ones are not
    /// counted; between plan executions this is the most executions the
    /// executor and its clones ever ran at once).
    pub workspaces: usize,
    /// Sum of [`KernelScratch::grow_events`] over pooled arenas.
    pub grow_events: u64,
    /// Max of [`KernelScratch::high_water_elems`] over pooled arenas.
    pub high_water_elems: usize,
}

/// The host executor: runs plans inline on the calling thread.
///
/// The executor owns a persistent pool of blocked-kernel pack arenas
/// ([`KernelScratch`]) that survives across `run` calls and is shared by
/// clones: an execution checks one warm arena out at its start and returns
/// it at its end. Clones may run on different threads at once (the serve
/// dispatcher's engines share one executor), so the pool holds as many
/// arenas as executions ever overlapped. Fronts are not pooled — each
/// supernode factors in its own persistent buffer (`NumericFactor`).
/// Arena contents are fully overwritten per kernel call, so pooling never
/// affects results.
///
/// The name predates the removal of multi-worker dispatch; it stays
/// because the `benchmark/` package names it.
#[derive(Clone, Debug)]
pub struct ParallelExecutor {
    pool: Arc<Mutex<Vec<KernelScratch>>>,
}

impl Default for ParallelExecutor {
    /// An executor with one (empty, allocation-free) arena parked in its
    /// pool.
    fn default() -> Self {
        ParallelExecutor {
            // lint: allow(hot-alloc) — one-time constructor, not the task path
            pool: Arc::new(Mutex::new(vec![KernelScratch::new()])),
        }
    }
}

impl ParallelExecutor {
    /// Inert: `threads` is ignored and the result equals
    /// [`default`](Self::default). Plans always run inline; this survives
    /// only because the `benchmark/` package calls it.
    #[doc(hidden)]
    pub fn new(_threads: usize) -> Self {
        ParallelExecutor::default()
    }

    /// Always 1: plans run inline. Survives only because the `benchmark/`
    /// package reads it.
    #[doc(hidden)]
    pub fn threads(&self) -> usize {
        1
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

    /// Checks the pool's largest arena out (a cold one if a clone holds
    /// them all), with its flop meter drained so per-task deltas start from
    /// zero and grown to `plan`'s bound: every pack buffer to
    /// [`ExecutionPlan::max_pack_elems`] scalars, so no kernel allocates
    /// mid-execution. Taking the *largest*
    /// is what makes the pool go quiet: once warm, it dominates every
    /// plan, and replays stop allocating entirely.
    fn checkout(&self, plan: &ExecutionPlan) -> KernelScratch {
        // lint: allow(unwrap) — poisoning as above
        let mut pool = self.pool.lock().unwrap();
        pool.sort_by_key(|s| std::cmp::Reverse(s.high_water_elems()));
        let mut scratch = if pool.is_empty() {
            KernelScratch::new()
        } else {
            pool.remove(0)
        };
        drop(pool);
        scratch.reserve(plan.max_pack_elems());
        scratch.take_flops();
        scratch
    }

    /// Returns an execution's arena to the pool for the next one.
    fn checkin(&self, scratch: KernelScratch) {
        // lint: allow(unwrap) — poisoning as above
        self.pool.lock().unwrap().push(scratch);
    }

    /// Executes the plan's tasks flagged in `recompute` on the calling
    /// thread, in plan postorder, calling `work_fn` exactly once per
    /// flagged task id with the execution's pack arena — so every flagged
    /// child of a task has completed before the task starts. `work_fn`
    /// stores each task's result itself, so the executor only sequences
    /// work and records the [`HostSchedule`], one [`TaskSpan`] per task.
    ///
    /// On error no further task starts, and the failing task's error is
    /// returned.
    pub fn run<E, F>(
        &self,
        plan: &ExecutionPlan,
        recompute: &[bool],
        mut work_fn: F,
    ) -> (Result<(), E>, HostSchedule)
    where
        F: FnMut(usize, &mut KernelScratch) -> Result<(), E>,
    {
        assert_eq!(recompute.len(), plan.num_tasks());
        let epoch = supernova_trace::epoch_seconds();
        let origin = Instant::now();
        let mut scratch = self.checkout(plan);
        // lint: allow(hot-alloc) — per-execution span record, not the task path
        let mut spans = Vec::new();
        let mut res = Ok(());
        for &s in plan.postorder() {
            if !recompute[s] {
                continue;
            }
            // What runs between one task's `end` stamp and the next one's
            // `start` stamp is the whole dispatch cost
            // (`sparse.dispatch_overhead_us_per_task` in the benchmark
            // ledger).
            let start = origin.elapsed().as_secs_f64();
            res = work_fn(s, &mut scratch);
            let end = origin.elapsed().as_secs_f64();
            spans.push(TaskSpan {
                node: s,
                start,
                end,
                kernel_flops: scratch.take_flops(),
            });
            if res.is_err() {
                break;
            }
        }
        self.checkin(scratch);
        let sched = HostSchedule {
            spans,
            origin: epoch,
        };
        (res, sched)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BlockPattern, SymbolicFactor};

    fn plan_of(n: usize) -> ExecutionPlan {
        let mut p = BlockPattern::new(vec![2; n]);
        for i in 0..n - 1 {
            p.add_block_edge(i, i + 1);
        }
        ExecutionPlan::from_symbolic(&SymbolicFactor::analyze(&p, 0))
    }

    /// Supernodes {0}, {1} and {2, 3}: two independent leaves under one
    /// root.
    fn fork_plan() -> ExecutionPlan {
        let mut p = BlockPattern::new(vec![2; 4]);
        p.add_block_edge(0, 3);
        p.add_block_edge(1, 2);
        p.add_block_edge(2, 3);
        ExecutionPlan::from_symbolic(&SymbolicFactor::analyze(&p, 0))
    }

    /// The plans every case runs over: a chain and a fork.
    fn plans() -> [(&'static str, ExecutionPlan); 2] {
        let (chain, fork) = (plan_of(24), fork_plan());
        assert_eq!(fork.levels()[0].len(), 2);
        [("chain", chain), ("fork", fork)]
    }

    #[test]
    fn every_flagged_task_runs_once_in_postorder() {
        for (name, plan) in plans() {
            let n = plan.num_tasks();
            let root = *plan.postorder().last().expect("nonempty plan");
            // Everything; an upper slice of the tree; the root alone.
            let recompute_sets: [Vec<bool>; 3] = [
                vec![true; n],
                (0..n).map(|s| s >= n / 2).collect(),
                (0..n).map(|s| s == root).collect(),
            ];
            for recompute in recompute_sets {
                let flagged: Vec<usize> = plan
                    .postorder()
                    .iter()
                    .copied()
                    .filter(|&s| recompute[s])
                    .collect();
                let mut ran = Vec::new();
                let (res, sched) =
                    ParallelExecutor::default().run::<(), _>(&plan, &recompute, |s, _ws| {
                        ran.push(s);
                        Ok(())
                    });
                assert!(res.is_ok());
                let case = format!("{name}, {} flagged", flagged.len());
                assert_eq!(ran, flagged, "{case}");
                let spans: Vec<usize> = sched.spans.iter().map(|s| s.node).collect();
                assert_eq!(spans, flagged, "{case}");
                for w in sched.spans.windows(2) {
                    assert!(w[0].end <= w[1].start, "{case}: spans overlap");
                }
            }
        }
    }

    #[test]
    fn the_first_error_stops_execution() {
        for (name, plan) in plans() {
            let recompute = vec![true; plan.num_tasks()];
            let first = plan.postorder()[0];
            let (res, sched) =
                ParallelExecutor::default().run::<usize, _>(&plan, &recompute, |s, _ws| {
                    if s < 2 {
                        Err(s)
                    } else {
                        Ok(())
                    }
                });
            assert_eq!(res, Err(first), "{name}");
            assert_eq!(sched.spans.len(), 1, "{name}");
        }
    }

    #[test]
    fn new_ignores_its_width() {
        let exec = ParallelExecutor::new(4);
        assert_eq!(exec.threads(), 1);
        assert_eq!(exec.pool_stats().workspaces, 1);
    }

    #[test]
    fn workspace_pool_persists_and_stops_growing() {
        let plan = plan_of(20);
        let recompute = vec![true; plan.num_tasks()];
        let pack = plan.max_pack_elems();
        let exec = ParallelExecutor::default();
        // One pre-created (empty) arena, nothing grown.
        assert_eq!(
            exec.pool_stats(),
            PoolStats {
                workspaces: 1,
                ..PoolStats::default()
            }
        );
        // A task's demand stays within the plan's bounds — that is the
        // contract — so every buffer it touches was grown at checkout.
        let task = |_s: usize, scratch: &mut KernelScratch| -> Result<(), ()> {
            scratch.reserve(pack);
            Ok(())
        };
        let (res, _) = exec.run(&plan, &recompute, task);
        assert!(res.is_ok());
        let warm = exec.pool_stats();
        assert_eq!(warm.workspaces, 1);
        assert!(warm.high_water_elems >= pack);
        // Clones share the same pool; re-running never grows it.
        let alias = exec.clone();
        for rerun in 0..50 {
            let (res, _) = alias.run(&plan, &recompute, task);
            assert!(res.is_ok());
            assert_eq!(exec.pool_stats(), warm, "rerun {rerun}");
        }
    }

    #[test]
    fn kernel_flops_makespan_and_busy_time_are_consistent() {
        let plan = plan_of(10);
        let recompute = vec![true; plan.num_tasks()];
        let (res, sched) =
            ParallelExecutor::default().run::<(), _>(&plan, &recompute, |_s, _| Ok(()));
        assert!(res.is_ok());
        // No kernels ran, so every span meters zero — but the field is
        // present and the schedule total agrees.
        assert!(sched.spans.iter().all(|s| s.kernel_flops == 0));
        assert_eq!(sched.kernel_flops(), 0);
        assert!(sched.makespan() >= 0.0);
        assert!(sched.busy_time() <= sched.makespan() + 1e-9);
    }
}
