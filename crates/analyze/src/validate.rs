//! The schedule and ledger invariant checker.
//!
//! Consumes the runtime's executed-schedule trace
//! ([`supernova_runtime::ExecTrace`]) and verifies the
//! properties the virtual-time scheduler is supposed to guarantee, instead
//! of trusting it:
//!
//! - **happens-before**: no supernode starts before every recomputed child
//!   has finished, and every op lies inside its node's interval;
//! - **unit exclusivity**: no two ops overlap on the same COMP/MEM/CPU
//!   unit;
//! - **capacity**: replaying the LLC reservations (each node's
//!   `calc_space` — its double-buffered front plus the parent front slice)
//!   never exceeds the LLC, and each reservation matches a recomputation
//!   from the step trace;
//! - **busy bound**: per-unit busy time never exceeds the makespan;
//! - **energy conservation**: the per-class energy ledger totals exactly
//!   the sum of per-op joules under the platform's energy model.

use supernova_hw::{EnergyModel, Platform};
use supernova_runtime::{
    calc_space, simulate_step_traced, step_energy_ledger, ExecTrace, SchedulerConfig, StepEnergy,
    StepLatency, StepTrace, Unit,
};
use supernova_sparse::{ExecutionPlan, HostSchedule, TaskSpan};

/// The invariant classes the checker enforces.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Invariant {
    /// A node started before a child finished, or an op escaped its node.
    HappensBefore,
    /// Two ops overlap on one unit.
    UnitExclusive,
    /// LLC reservations exceed capacity or mismatch `calc_space`.
    Capacity,
    /// A unit is busy for longer than the makespan.
    BusyBound,
    /// Ledger totals disagree with the per-op energy sum.
    EnergyConservation,
    /// The executed node set does not match the step trace.
    Coverage,
    /// A unified span tree's structure is malformed (wrong root, missing
    /// or duplicated sections).
    TraceShape,
}

impl std::fmt::Display for Invariant {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Invariant::HappensBefore => "happens-before",
            Invariant::UnitExclusive => "unit-exclusive",
            Invariant::Capacity => "capacity",
            Invariant::BusyBound => "busy-bound",
            Invariant::EnergyConservation => "energy-conservation",
            Invariant::Coverage => "coverage",
            Invariant::TraceShape => "trace-shape",
        };
        f.write_str(s)
    }
}

/// One invariant violation found in a schedule or ledger.
#[derive(Clone, Debug, PartialEq)]
pub struct ScheduleViolation {
    /// The violated invariant.
    pub invariant: Invariant,
    /// What exactly went wrong, with the offending values.
    pub detail: String,
}

impl std::fmt::Display for ScheduleViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] {}", self.invariant, self.detail)
    }
}

/// Absolute slack allowed on timestamp comparisons: the scheduler's event
/// heap quantizes to a femtosecond grid, and interval arithmetic
/// accumulates last-ulp error on top.
fn time_tol(makespan: f64) -> f64 {
    1e-12 + 1e-9 * makespan.abs()
}

/// Checks the executed schedule `exec` of `trace` against the scheduling
/// invariants. Returns every violation found (empty = legal schedule).
pub fn validate_exec(trace: &StepTrace, exec: &ExecTrace) -> Vec<ScheduleViolation> {
    let mut out = Vec::new();
    let tol = time_tol(exec.makespan);

    // --- Coverage: every step-trace node executed exactly once.
    let mut want: Vec<usize> = trace.nodes.iter().map(|w| w.node).collect();
    let mut got: Vec<usize> = exec.nodes.iter().map(|n| n.node).collect();
    want.sort_unstable();
    got.sort_unstable();
    if want != got {
        out.push(ScheduleViolation {
            invariant: Invariant::Coverage,
            detail: format!("executed nodes {got:?} != step-trace nodes {want:?}"),
        });
        return out; // downstream checks assume coverage
    }

    let exec_of = |id: usize| exec.nodes.iter().find(|n| n.node == id);

    // --- Happens-before over the elimination tree: a parent may not start
    // before any of its recomputed children ends.
    for work in &trace.nodes {
        if let Some(parent) = work.parent {
            let (Some(child), Some(par)) = (exec_of(work.node), exec_of(parent)) else {
                continue; // parent outside the recomputed set
            };
            if par.start < child.end - tol {
                out.push(ScheduleViolation {
                    invariant: Invariant::HappensBefore,
                    detail: format!(
                        "node {} starts at {:.3e}s before child {} ends at {:.3e}s",
                        parent, par.start, work.node, child.end
                    ),
                });
            }
        }
    }

    // --- Ops stay inside their node's interval.
    for op in &exec.ops {
        if let Some(id) = op.node {
            if let Some(n) = exec_of(id) {
                if op.start < n.start - tol || op.end > n.end + tol {
                    out.push(ScheduleViolation {
                        invariant: Invariant::HappensBefore,
                        detail: format!(
                            "op {:?} on {} spans [{:.3e}, {:.3e}]s outside node {} \
                             [{:.3e}, {:.3e}]s",
                            op.op, op.unit, op.start, op.end, id, n.start, n.end
                        ),
                    });
                }
            }
        }
        if op.end < op.start - tol {
            out.push(ScheduleViolation {
                invariant: Invariant::HappensBefore,
                detail: format!("op {:?} on {} ends before it starts", op.op, op.unit),
            });
        }
    }

    // --- Per-unit exclusivity: sort each unit's ops by start and check
    // adjacent overlap.
    for unit in exec.units() {
        let mut intervals: Vec<(f64, f64, usize)> = exec
            .ops
            .iter()
            .enumerate()
            .filter(|(_, o)| o.unit == unit)
            .map(|(i, o)| (o.start, o.end, i))
            .collect();
        intervals.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.total_cmp(&b.1)));
        for w in intervals.windows(2) {
            let (_s0, e0, i0) = w[0];
            let (s1, _, i1) = w[1];
            if s1 < e0 - tol {
                out.push(ScheduleViolation {
                    invariant: Invariant::UnitExclusive,
                    detail: format!(
                        "{} runs {:?} until {:.3e}s but {:?} starts at {:.3e}s",
                        unit, exec.ops[i0].op, e0, exec.ops[i1].op, s1
                    ),
                });
            }
        }
    }

    // --- LLC capacity replay with calc_space cross-check (accelerated
    // schedules only: serial engines reserve nothing).
    if exec.sets > 0 && exec.llc_bytes > 0 {
        let front_dim = |id: usize| {
            trace
                .nodes
                .iter()
                .find(|w| w.node == id)
                .map(|w| w.front_dim())
        };
        for n in &exec.nodes {
            if !n.fits {
                continue; // oversized admission is priced at DRAM rate, reserves nothing
            }
            if let Some(work) = trace.nodes.iter().find(|w| w.node == n.node) {
                let expect = calc_space(work, work.parent.and_then(front_dim));
                if n.space != expect {
                    out.push(ScheduleViolation {
                        invariant: Invariant::Capacity,
                        detail: format!(
                            "node {} reserved {} B but calc_space gives {} B",
                            n.node, n.space, expect
                        ),
                    });
                }
            }
        }
        // Event replay: releases apply before acquisitions at equal times.
        let mut events: Vec<(f64, i8, usize, usize)> = Vec::new();
        for n in &exec.nodes {
            if n.space > 0 {
                events.push((n.start, 1, n.space, n.node));
                events.push((n.end, 0, n.space, n.node));
            }
        }
        events.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        let mut used = 0usize;
        for (t, kind, space, node) in events {
            if kind == 1 {
                used += space;
                if used > exec.llc_bytes {
                    out.push(ScheduleViolation {
                        invariant: Invariant::Capacity,
                        detail: format!(
                            "LLC over capacity at {:.3e}s admitting node {}: {} B reserved \
                             of {} B",
                            t, node, used, exec.llc_bytes
                        ),
                    });
                }
            } else {
                used = used.saturating_sub(space);
            }
        }
    }

    // --- Busy bound: no unit is busy longer than the makespan.
    for unit in exec.units() {
        let busy = exec.busy_seconds(unit);
        if busy > exec.makespan + tol {
            out.push(ScheduleViolation {
                invariant: Invariant::BusyBound,
                detail: format!(
                    "{} busy for {:.3e}s exceeds makespan {:.3e}s",
                    unit, busy, exec.makespan
                ),
            });
        }
    }
    // Ops must also not run past the makespan.
    if let Some(last) = exec.ops.iter().map(|o| o.end).max_by(f64::total_cmp) {
        if last > exec.makespan + tol {
            out.push(ScheduleViolation {
                invariant: Invariant::BusyBound,
                detail: format!(
                    "an op ends at {:.3e}s, after the makespan {:.3e}s",
                    last, exec.makespan
                ),
            });
        }
    }

    // --- Accelerated schedules must keep unit ids within the platform.
    if exec.sets > 0 {
        for op in &exec.ops {
            let bad = match op.unit {
                Unit::Comp(i) | Unit::Mem(i) => i >= exec.sets,
                Unit::Cpu(i) => i >= exec.cpu_tiles,
            };
            if bad {
                out.push(ScheduleViolation {
                    invariant: Invariant::UnitExclusive,
                    detail: format!(
                        "op {:?} placed on {} beyond the platform's {} sets / {} tiles",
                        op.op, op.unit, exec.sets, exec.cpu_tiles
                    ),
                });
            }
        }
    }

    out
}

/// Checks a **host** execution record against its plan: the same
/// happens-before, exclusivity and coverage invariants the simulator's
/// schedules are held to, applied to wall-clock spans actually executed by
/// the host executor.
///
/// `recomputed` is the step's recomputed task set (e.g.
/// `RefactorStats::recomputed_nodes()`); the schedule must cover it
/// exactly — one span per recomputed task — every parent span must start
/// after each recomputed child's span ends, and no two spans may overlap
/// (the executor runs one task at a time).
pub fn validate_host_schedule(
    plan: &ExecutionPlan,
    sched: &HostSchedule,
    recomputed: &[usize],
) -> Vec<ScheduleViolation> {
    use std::collections::BTreeMap;
    let mut out = Vec::new();
    let tol = time_tol(sched.makespan());

    // --- Coverage: exactly the recomputed tasks, one span each.
    let mut want: Vec<usize> = recomputed.to_vec();
    want.sort_unstable();
    want.dedup();
    let mut got: Vec<usize> = sched.spans.iter().map(|s| s.node).collect();
    got.sort_unstable();
    if want != got {
        out.push(ScheduleViolation {
            invariant: Invariant::Coverage,
            detail: format!(
                "host schedule ran nodes {got:?} but the step recomputed each of {want:?} once"
            ),
        });
        return out; // downstream checks assume coverage
    }
    let span_of: BTreeMap<usize, &TaskSpan> = sched.spans.iter().map(|s| (s.node, s)).collect();

    // --- Sane spans.
    for s in &sched.spans {
        if s.end < s.start - tol {
            out.push(ScheduleViolation {
                invariant: Invariant::HappensBefore,
                detail: format!(
                    "node {} span ends at {:.3e}s before its start {:.3e}s",
                    s.node, s.end, s.start
                ),
            });
        }
    }

    // --- Happens-before over the plan's elimination forest: a parent may
    // not start before any recomputed child ends.
    for s in &sched.spans {
        for mg in &plan.tasks()[s.node].merges {
            let Some(child) = span_of.get(&mg.child) else {
                continue; // reused child: its cached update predates the step
            };
            if s.start < child.end - tol {
                out.push(ScheduleViolation {
                    invariant: Invariant::HappensBefore,
                    detail: format!(
                        "node {} starts at {:.3e}s before child {} ends at {:.3e}s",
                        s.node, s.start, mg.child, child.end
                    ),
                });
            }
        }
    }

    // --- Exclusivity: one task at a time.
    let mut intervals: Vec<(f64, f64, usize)> = sched
        .spans
        .iter()
        .map(|s| (s.start, s.end, s.node))
        .collect();
    intervals.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.total_cmp(&b.1)));
    for w in intervals.windows(2) {
        let (_, e0, n0) = w[0];
        let (s1, _, n1) = w[1];
        if s1 < e0 - tol {
            out.push(ScheduleViolation {
                invariant: Invariant::UnitExclusive,
                detail: format!("node {n0} runs until {e0:.3e}s but node {n1} starts at {s1:.3e}s"),
            });
        }
    }

    out
}

/// One dispatched serving-layer step, as the serve crate's dispatcher
/// records it: which worker applied which session's `seq`-th update over
/// which wall-clock interval. A plain mirror of `supernova-serve`'s
/// `DispatchSpan` (this crate sits below serve in the dependency order, so
/// serve converts and calls [`validate_dispatch`]).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DispatchRecord {
    /// The worker that applied the update.
    pub worker: usize,
    /// The session the update belonged to.
    pub session: u64,
    /// The update's per-session sequence number (submission order).
    pub seq: u64,
    /// Wall-clock start (seconds since server start).
    pub start: f64,
    /// Wall-clock end (seconds since server start).
    pub end: f64,
}

/// Checks a serving-layer dispatch record against the dispatcher's
/// contract, using the same invariant vocabulary as the schedule checkers:
///
/// - **unit exclusivity** — no worker runs two steps at once, and no span
///   names a worker outside the `workers`-wide pool;
/// - **happens-before** — within a session, the `seq`-order is the time
///   order: update `k + 1` starts only after update `k` ends (per-session
///   serial execution, the property bit-identical serving rests on);
/// - **coverage** — each session's recorded sequence numbers are distinct
///   and contiguous from 0 (the record is a faithful prefix, not a
///   sample).
///
/// Returns every violation found (empty = legal dispatch).
pub fn validate_dispatch(workers: usize, spans: &[DispatchRecord]) -> Vec<ScheduleViolation> {
    let mut out = Vec::new();
    let makespan = spans.iter().map(|s| s.end).fold(0.0f64, f64::max);
    let tol = time_tol(makespan);

    // --- Sane spans on valid workers.
    for s in spans {
        if s.end < s.start - tol {
            out.push(ScheduleViolation {
                invariant: Invariant::HappensBefore,
                detail: format!(
                    "session {} seq {} ends at {:.3e}s before its start {:.3e}s",
                    s.session, s.seq, s.end, s.start
                ),
            });
        }
        if s.worker >= workers {
            out.push(ScheduleViolation {
                invariant: Invariant::UnitExclusive,
                detail: format!(
                    "session {} seq {} ran on worker {} of a {}-worker pool",
                    s.session, s.seq, s.worker, workers
                ),
            });
        }
    }

    // --- Per-worker exclusivity.
    for worker in 0..workers {
        let mut intervals: Vec<&DispatchRecord> =
            spans.iter().filter(|s| s.worker == worker).collect();
        intervals.sort_by(|a, b| a.start.total_cmp(&b.start).then(a.end.total_cmp(&b.end)));
        for w in intervals.windows(2) {
            if w[1].start < w[0].end - tol {
                out.push(ScheduleViolation {
                    invariant: Invariant::UnitExclusive,
                    detail: format!(
                        "worker {worker} runs session {} seq {} until {:.3e}s but session {} \
                         seq {} starts at {:.3e}s",
                        w[0].session, w[0].seq, w[0].end, w[1].session, w[1].seq, w[1].start
                    ),
                });
            }
        }
    }

    // --- Per-session ordering and coverage.
    let mut sessions: Vec<u64> = spans.iter().map(|s| s.session).collect();
    sessions.sort_unstable();
    sessions.dedup();
    for sid in sessions {
        let mut own: Vec<&DispatchRecord> = spans.iter().filter(|s| s.session == sid).collect();
        own.sort_by_key(|s| s.seq);
        for (i, s) in own.iter().enumerate() {
            if s.seq != i as u64 {
                out.push(ScheduleViolation {
                    invariant: Invariant::Coverage,
                    detail: format!(
                        "session {sid} records seq {} where {} was expected (missing or \
                         duplicated update)",
                        s.seq, i
                    ),
                });
                break; // one gap cascades; report it once
            }
        }
        for w in own.windows(2) {
            if w[1].start < w[0].end - tol {
                out.push(ScheduleViolation {
                    invariant: Invariant::HappensBefore,
                    detail: format!(
                        "session {sid} seq {} starts at {:.3e}s before seq {} ends at {:.3e}s",
                        w[1].seq, w[1].start, w[0].seq, w[0].end
                    ),
                });
            }
        }
    }

    out
}

/// Checks an energy ledger for conservation against a per-op recomputation
/// under `platform`'s energy model: the ledger's total must equal the sum
/// of per-op joules, and its op count must match the trace.
pub fn validate_energy(
    platform: &Platform,
    trace: &StepTrace,
    latency: &StepLatency,
    energy: &StepEnergy,
) -> Vec<ScheduleViolation> {
    let mut out = Vec::new();
    let model = EnergyModel::of(platform);
    let mut expected = 0.0f64;
    let mut ops = 0usize;
    for op in trace.hessian_ops.ops() {
        expected += model.op_joules(op);
        ops += 1;
    }
    for node in &trace.nodes {
        for op in node.ops.ops() {
            expected += model.op_joules(op);
            ops += 1;
        }
    }
    for op in trace.solve_ops.ops() {
        expected += model.op_joules(op);
        ops += 1;
    }
    let is_empty = trace.is_numeric_empty() && latency.total() == 0.0;
    let got = energy.ledger.total();
    let tol = 1e-9 * expected.abs() + 1e-18;
    if (got - expected).abs() > tol {
        out.push(ScheduleViolation {
            invariant: Invariant::EnergyConservation,
            detail: format!("ledger total {got:.6e} J != sum of per-op energies {expected:.6e} J"),
        });
    }
    if !is_empty && energy.ledger.num_ops() != ops {
        out.push(ScheduleViolation {
            invariant: Invariant::EnergyConservation,
            detail: format!(
                "ledger charged {} ops but the step trace holds {}",
                energy.ledger.num_ops(),
                ops
            ),
        });
    }
    let want_static = model.static_watts * latency.total();
    if !is_empty && (energy.static_joules - want_static).abs() > 1e-9 * want_static.abs() + 1e-18 {
        out.push(ScheduleViolation {
            invariant: Invariant::EnergyConservation,
            detail: format!(
                "static energy {:.6e} J != static watts x latency {:.6e} J",
                energy.static_joules, want_static
            ),
        });
    }
    out
}

/// Runs one step of `trace` on `platform` under `cfg` through the traced
/// scheduler and checks every invariant: the executed schedule and the
/// energy ledger.
///
/// # Errors
///
/// Returns the violation list if any invariant fails.
pub fn validate_step(
    platform: &Platform,
    trace: &StepTrace,
    cfg: &SchedulerConfig,
) -> Result<(), Vec<ScheduleViolation>> {
    let (lat, exec) = simulate_step_traced(platform, trace, cfg);
    let mut v = validate_exec(trace, &exec);
    let energy = step_energy_ledger(platform, trace, &lat);
    v.extend(validate_energy(platform, trace, &lat, &energy));
    if v.is_empty() {
        Ok(())
    } else {
        Err(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use supernova_linalg::ops::Op;
    use supernova_runtime::NodeWork;

    fn forest() -> StepTrace {
        let mut nodes = Vec::new();
        for i in 0..6 {
            let parent = Some(6 + i / 3);
            let mut w = NodeWork {
                node: i,
                parent,
                pivot_dim: 16,
                rem_dim: 16,
                ..NodeWork::default()
            };
            w.factor_bytes = 16 * 16 * 4;
            w.ops.push(Op::Memset { bytes: 32 * 32 * 4 });
            w.ops.push(Op::Chol { n: 16 });
            w.ops.push(Op::Trsm { m: 16, n: 16 });
            w.ops.push(Op::Syrk { n: 16, k: 16 });
            nodes.push(w);
        }
        for i in [6usize, 7] {
            let mut w = NodeWork {
                node: i,
                parent: Some(8),
                pivot_dim: 24,
                rem_dim: 8,
                ..NodeWork::default()
            };
            w.factor_bytes = 24 * 24 * 4;
            w.ops.push(Op::Memset { bytes: 32 * 32 * 4 });
            w.ops.push(Op::Chol { n: 24 });
            nodes.push(w);
        }
        let mut root = NodeWork {
            node: 8,
            parent: None,
            pivot_dim: 32,
            rem_dim: 0,
            ..NodeWork::default()
        };
        root.factor_bytes = 32 * 32 * 4;
        root.ops.push(Op::Chol { n: 32 });
        nodes.push(root);
        let mut t = StepTrace {
            nodes,
            ..StepTrace::default()
        };
        t.hessian_ops.push(Op::Gemm { m: 8, n: 8, k: 8 });
        t.hessian_ops.push(Op::Memcpy { bytes: 4096 });
        t.solve_ops.push(Op::Gemv { m: 32, n: 32 });
        t
    }

    #[test]
    fn legal_schedules_validate_on_all_ablations() {
        let trace = forest();
        for p in [
            Platform::supernova(2),
            Platform::supernova(4),
            Platform::spatula(2),
        ] {
            for cfg in SchedulerConfig::ablations() {
                let r = validate_step(&p, &trace, &cfg);
                assert!(r.is_ok(), "{} {cfg:?}: {:?}", p.name(), r.err());
            }
        }
    }

    #[test]
    fn serial_platforms_validate_too() {
        let trace = forest();
        for p in [
            Platform::boom(),
            Platform::server_cpu(),
            Platform::embedded_gpu(),
        ] {
            let r = validate_step(&p, &trace, &SchedulerConfig::default());
            assert!(r.is_ok(), "{}: {:?}", p.name(), r.err());
        }
    }

    #[test]
    fn overlapping_ops_on_one_unit_are_rejected() {
        let trace = forest();
        let (_, mut exec) =
            simulate_step_traced(&Platform::supernova(2), &trace, &SchedulerConfig::default());
        assert!(validate_exec(&trace, &exec).is_empty());
        // Corrupt: drag one op backwards so it overlaps its predecessor on
        // the same unit.
        let unit = exec.ops[0].unit;
        let later = exec
            .ops
            .iter()
            .position(|o| o.unit == unit && o.start >= exec.ops[0].end)
            .expect("second op on the unit");
        let shift = exec.ops[later].start - exec.ops[0].start;
        exec.ops[later].start -= shift;
        exec.ops[later].end -= shift;
        let v = validate_exec(&trace, &exec);
        assert!(
            v.iter().any(|v| v.invariant == Invariant::UnitExclusive),
            "expected unit-exclusive violation, got {v:?}"
        );
    }

    #[test]
    fn broken_happens_before_is_rejected() {
        let trace = forest();
        let (_, mut exec) =
            simulate_step_traced(&Platform::supernova(2), &trace, &SchedulerConfig::default());
        // Corrupt: move the root node to start at time zero, before its
        // children finish.
        let root = exec
            .nodes
            .iter()
            .position(|n| n.node == 8)
            .expect("root executed");
        let w = exec.nodes[root].end - exec.nodes[root].start;
        exec.nodes[root].start = 0.0;
        exec.nodes[root].end = w;
        let v = validate_exec(&trace, &exec);
        assert!(
            v.iter().any(|v| v.invariant == Invariant::HappensBefore),
            "expected happens-before violation, got {v:?}"
        );
    }

    #[test]
    fn llc_overcommit_is_rejected() {
        let trace = forest();
        let (_, mut exec) =
            simulate_step_traced(&Platform::supernova(2), &trace, &SchedulerConfig::default());
        // Corrupt: shrink the modeled LLC below one recorded reservation.
        let max_space = exec.nodes.iter().map(|n| n.space).max().unwrap_or(0);
        assert!(max_space > 0, "fixture must reserve LLC space");
        exec.llc_bytes = max_space - 1;
        let v = validate_exec(&trace, &exec);
        assert!(
            v.iter().any(|v| v.invariant == Invariant::Capacity),
            "expected capacity violation, got {v:?}"
        );
    }

    #[test]
    fn tampered_ledger_is_rejected() {
        let trace = forest();
        let p = Platform::supernova(2);
        let cfg = SchedulerConfig::default();
        let (lat, _) = simulate_step_traced(&p, &trace, &cfg);
        let mut energy = step_energy_ledger(&p, &trace, &lat);
        assert!(validate_energy(&p, &trace, &lat, &energy).is_empty());
        // Corrupt: drop energy from the ledger (a miscounted op).
        energy.ledger = supernova_hw::EnergyLedger::new();
        energy.ledger.add(&Op::Chol { n: 4 }, 1e-12);
        let v = validate_energy(&p, &trace, &lat, &energy);
        assert!(
            v.iter()
                .any(|v| v.invariant == Invariant::EnergyConservation),
            "expected energy-conservation violation, got {v:?}"
        );
    }

    mod host {
        use super::super::*;
        use supernova_linalg::Mat;
        use supernova_sparse::{
            BlockMat, BlockPattern, NumericFactor, ParallelExecutor, SymbolicFactor,
        };

        /// A loopy SPD system plus its plan, factor inputs and executor run.
        fn run() -> (ExecutionPlan, HostSchedule, Vec<usize>) {
            let mut p = BlockPattern::new(vec![2, 3, 1, 2, 2, 3, 1, 2]);
            for i in 0..7 {
                p.add_block_edge(i, i + 1);
            }
            p.add_block_edge(0, 5);
            p.add_block_edge(2, 7);
            let sym = SymbolicFactor::analyze(&p, 0);
            let plan = ExecutionPlan::from_symbolic(&sym);
            let dims = p.block_dims().to_vec();
            let mut h = BlockMat::new(dims.clone());
            for j in 0..p.num_blocks() {
                for &i in p.col(j) {
                    let m = Mat::from_fn(dims[i], dims[j], |r, c| 0.05 * ((r + 2 * c) as f64));
                    h.add_to_block(i, j, &m);
                }
                h.add_to_block(j, j, &Mat::from_diag(&vec![6.0; dims[j]]));
            }
            let all: Vec<usize> = (0..p.num_blocks()).collect();
            let mut num = NumericFactor::empty(&plan);
            let (stats, sched) = num
                .execute_plan(&plan, &h, &all, &ParallelExecutor::default())
                .expect("SPD fixture");
            (plan, sched, stats.recomputed_nodes())
        }

        #[test]
        fn host_schedules_validate() {
            let (plan, sched, recomputed) = run();
            let v = validate_host_schedule(&plan, &sched, &recomputed);
            assert!(v.is_empty(), "{v:?}");
        }

        #[test]
        fn parent_starting_early_is_rejected() {
            let (plan, mut sched, recomputed) = run();
            // Corrupt: drag the last-started span (a root-side parent whose
            // children all ran) back to before time zero.
            let last = sched
                .spans
                .iter()
                .enumerate()
                .max_by(|(_, a), (_, b)| a.start.total_cmp(&b.start))
                .map(|(i, _)| i)
                .expect("nonempty");
            let w = sched.spans[last].end - sched.spans[last].start;
            sched.spans[last].start = -1.0;
            sched.spans[last].end = -1.0 + w;
            let v = validate_host_schedule(&plan, &sched, &recomputed);
            assert!(
                v.iter().any(|v| v.invariant == Invariant::HappensBefore),
                "expected happens-before violation, got {v:?}"
            );
        }

        #[test]
        fn overlapping_spans_are_rejected() {
            let (plan, mut sched, recomputed) = run();
            // Corrupt: put every span at the same interval.
            for s in &mut sched.spans {
                s.start = 0.0;
                s.end = 1.0;
            }
            let v = validate_host_schedule(&plan, &sched, &recomputed);
            assert!(
                v.iter().any(|v| v.invariant == Invariant::UnitExclusive)
                    || v.iter().any(|v| v.invariant == Invariant::HappensBefore),
                "expected a violation, got {v:?}"
            );
        }

        #[test]
        fn missing_or_foreign_span_is_rejected() {
            let (plan, mut sched, recomputed) = run();
            sched.spans.pop();
            let v = validate_host_schedule(&plan, &sched, &recomputed);
            assert!(
                v.iter().any(|v| v.invariant == Invariant::Coverage),
                "got {v:?}"
            );
        }
    }

    mod dispatch {
        use super::super::*;

        fn span(worker: usize, session: u64, seq: u64, start: f64, end: f64) -> DispatchRecord {
            DispatchRecord {
                worker,
                session,
                seq,
                start,
                end,
            }
        }

        /// Two sessions interleaving legally across two workers.
        fn legal() -> Vec<DispatchRecord> {
            vec![
                span(0, 0, 0, 0.0, 1.0),
                span(1, 1, 0, 0.0, 0.6),
                span(1, 1, 1, 0.7, 1.4),
                span(0, 0, 1, 1.1, 1.9),
                span(1, 0, 2, 2.0, 2.5),
                span(0, 1, 2, 1.9, 2.2),
            ]
        }

        #[test]
        fn legal_dispatch_validates() {
            let v = validate_dispatch(2, &legal());
            assert!(v.is_empty(), "{v:?}");
        }

        #[test]
        fn worker_overlap_is_rejected() {
            let mut spans = legal();
            spans[3].start = 0.5; // worker 0 still running seq 0 of session 0
            let v = validate_dispatch(2, &spans);
            assert!(
                v.iter().any(|v| v.invariant == Invariant::UnitExclusive),
                "got {v:?}"
            );
        }

        #[test]
        fn session_reordering_is_rejected() {
            let mut spans = legal();
            // Session 1's seq 1 now starts before its seq 0 ends.
            spans[2].start = 0.3;
            spans[2].worker = 0; // keep worker 1's own timeline legal
            spans[2].end = 0.9;
            spans[3].start = 1.1; // worker 0's next span stays after it
            let v = validate_dispatch(2, &spans);
            assert!(
                v.iter().any(|v| v.invariant == Invariant::HappensBefore),
                "got {v:?}"
            );
        }

        #[test]
        fn sequence_gaps_and_foreign_workers_are_rejected() {
            let mut spans = legal();
            spans[4].seq = 7; // session 0 loses its seq 2
            let v = validate_dispatch(2, &spans);
            assert!(
                v.iter().any(|v| v.invariant == Invariant::Coverage),
                "got {v:?}"
            );

            let spans = vec![span(5, 0, 0, 0.0, 1.0)];
            let v = validate_dispatch(2, &spans);
            assert!(
                v.iter().any(|v| v.invariant == Invariant::UnitExclusive),
                "got {v:?}"
            );
        }
    }

    #[test]
    fn missing_node_is_rejected() {
        let trace = forest();
        let (_, mut exec) =
            simulate_step_traced(&Platform::supernova(2), &trace, &SchedulerConfig::default());
        exec.nodes.pop();
        let v = validate_exec(&trace, &exec);
        assert!(
            v.iter().any(|v| v.invariant == Invariant::Coverage),
            "got {v:?}"
        );
    }
}
