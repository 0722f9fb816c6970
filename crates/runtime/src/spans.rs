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
/// over the schedule's makespan with one `exec.task` child per executed
/// task (ticks = the task's deterministic flop count from the step
/// trace).
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
    let mut total = 0u64;
    for t in &sched.spans {
        let ticks = flops.get(&t.node).copied().unwrap_or(1);
        total += ticks;
        let mut child = Span::wall(
            "exec.task",
            Category::Exec,
            sched.origin + t.start,
            sched.origin + t.end,
        );
        child.ticks = ticks;
        child.counters.set("node", t.node as u64);
        // Measured (not modeled) flops from the executor's kernel arena —
        // deterministic, a pure function of the task's front shape.
        child.counters.set("kernel_flops", t.kernel_flops);
        span.children.push(child);
    }
    span.ticks = total;
    span.counters.set("tasks", sched.spans.len() as u64);
    span.counters.set("kernel_flops", sched.kernel_flops());
    // Numeric precision the kernels ran under (f64 / f32), so a
    // traced step records the arithmetic its numbers came from.
    span.counters.set("numeric_mode", sched.numeric.as_u64());
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
