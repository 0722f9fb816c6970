//! Builders that lift the runtime's execution records into
//! `supernova-trace` spans.
//!
//! The records themselves ([`supernova_sparse::HostSchedule`],
//! [`crate::ExecTrace`], [`crate::StepTrace`]) stay
//! the source of truth; these functions are a pure post-hoc projection run
//! once per step by whoever owns the step's
//! [`StepBuilder`](supernova_trace::StepBuilder) — nothing here executes
//! on the hot path, and nothing runs at all when tracing is disabled.

use std::collections::BTreeMap;

use supernova_sparse::HostSchedule;
use supernova_trace::{Category, Span};

use crate::{ExecTrace, StepTrace};

/// Builds the `exec` span for one host plan execution: a wall-clock span
/// over the schedule's makespan with one `exec.task` child **per
/// recomputed node** (ticks = the task's deterministic flop count from
/// the step trace).
///
/// A node's child is the same whether the executor ran the task whole
/// (inline: one schedule span) or as the sub-units of the plan's split
/// overlay (waves: several schedule spans sharing the node id): unit
/// spans fold into one child whose interval is their envelope (start =
/// min, end = max), whose `kernel_flops` is their sum, and whose track is
/// the worker that started the task. So the canonical export does not
/// depend on the thread count; `workers`, `dispatch_mode` and
/// `split_mode` — which record what was actually dispatched — are the
/// three counters that intentionally do.
pub fn exec_span(sched: &HostSchedule, trace: &StepTrace) -> Span {
    let flops: BTreeMap<usize, u64> = trace
        .nodes
        .iter()
        .map(|n| (n.node, n.ops.flops().max(1)))
        .collect();
    let start = sched
        .spans
        .iter()
        .map(|s| s.start)
        .fold(f64::INFINITY, f64::min);
    let end = sched.spans.iter().map(|s| s.end).fold(0.0f64, f64::max);
    let mut span = if sched.spans.is_empty() {
        Span::marker("exec", Category::Exec, 0)
    } else {
        Span::wall(
            "exec",
            Category::Exec,
            sched.origin + start,
            sched.origin + end,
        )
    };
    // Child index per node, in order of first start (schedule order).
    let mut child_of: BTreeMap<usize, usize> = BTreeMap::new();
    let mut total = 0u64;
    for t in &sched.spans {
        let (t_start, t_end) = (sched.origin + t.start, sched.origin + t.end);
        let i = *child_of.entry(t.node).or_insert_with(|| {
            let ticks = flops.get(&t.node).copied().unwrap_or(1);
            total += ticks;
            let mut child = Span::wall("exec.task", Category::Exec, t_start, t_end);
            child.ticks = ticks;
            child.track = t.worker as u32;
            child.counters.set("node", t.node as u64);
            span.children.push(child);
            span.children.len() - 1
        });
        let child = &mut span.children[i];
        child.start = child.start.min(t_start);
        child.end = child.end.max(t_end);
        // Measured (not modeled) flops from the worker's kernel arena —
        // deterministic, a pure function of the task's front shape.
        child.counters.add("kernel_flops", t.kernel_flops);
    }
    span.ticks = total;
    span.counters.set("workers", sched.workers as u64);
    span.counters.set("tasks", span.children.len() as u64);
    span.counters.set("kernel_flops", sched.kernel_flops());
    // Which dispatch strategy sequenced the execution (serial /
    // level-batched) — lets bench_check gate the
    // dispatch-overhead-per-task metric against the mode that produced it.
    span.counters.set("dispatch_mode", sched.mode.as_u64());
    // Numeric precision the workers' kernels ran under (f64 / f32 /
    // mixed) — step artifacts and bench_check gate against the mode that
    // produced the numbers.
    span.counters.set("numeric_mode", sched.numeric.as_u64());
    // How many intra-front sub-units were dispatched: 0 on any inline
    // execution and for plans without a split overlay, positive when
    // waves ran a split plan — so, like `workers`, thread-dependent.
    span.counters.set("split_mode", sched.split_units as u64);
    span
}

/// Builds the `hw` span for one simulated step: a virtual-time span over
/// the numeric makespan (ticks = modeled cycles at `freq_hz`), with one
/// `hw.unit <UNIT>` child per occupied unit (ticks = busy cycles, so the
/// per-unit busy-bound invariant becomes a child-ticks ≤ parent-ticks
/// check) and one `hw.node` child per scheduled supernode.
pub fn hw_span(exec: &ExecTrace, freq_hz: f64) -> Span {
    let cycles = |seconds: f64| (seconds * freq_hz).round().max(0.0) as u64;
    let mut span = Span::virtual_time(
        "hw",
        Category::Hw,
        0.0,
        exec.makespan,
        cycles(exec.makespan),
    );
    span.counters.set("sets", exec.sets as u64);
    span.counters.set("cpu_tiles", exec.cpu_tiles as u64);
    span.counters.set("llc_bytes", exec.llc_bytes as u64);
    span.counters.set("ops", exec.ops.len() as u64);
    for (ordinal, unit) in exec.units().into_iter().enumerate() {
        let ops: Vec<_> = exec.ops.iter().filter(|o| o.unit == unit).collect();
        let start = ops.iter().map(|o| o.start).fold(f64::INFINITY, f64::min);
        let end = ops.iter().map(|o| o.end).fold(0.0f64, f64::max);
        let mut child = Span::virtual_time(
            &format!("hw.unit {unit}"),
            Category::Hw,
            start,
            end,
            cycles(exec.busy_seconds(unit)),
        );
        child.track = ordinal as u32;
        child.counters.set("ops", ops.len() as u64);
        span.children.push(child);
    }
    for node in &exec.nodes {
        let mut child = Span::virtual_time(
            "hw.node",
            Category::Hw,
            node.start,
            node.end,
            cycles(node.end - node.start),
        );
        child.track = node.node as u32;
        child.counters.set("node", node.node as u64);
        child.counters.set("cpu_tile", node.cpu_tile as u64);
        child.counters.set("sets", node.sets.len() as u64);
        child.counters.set("fits", u64::from(node.fits));
        child.counters.set("space", node.space as u64);
        span.children.push(child);
    }
    span
}
