//! Invariant checking over unified span trees (`supernova-trace`).
//!
//! A [`Trace`] claims a hierarchy — this serve dispatch contained that
//! solver step, which contained these executor tasks and those modeled
//! hardware busy intervals. [`validate_trace`] replays the claims:
//!
//! - **shape** — the root is `serve.dispatch` (wrapping exactly one
//!   `solver.step`) or a bare `solver.step`; a step has at most one `exec`
//!   and one `hw` section;
//! - **happens-before** — a child span with a measured interval lies
//!   inside its parent's interval (compared only within one
//!   [`Timebase`]: wall spans against wall parents, the simulator's
//!   virtual spans against the virtual `hw` root);
//! - **unit exclusivity** — sibling spans sharing an execution lane
//!   (`exec.task` on one host worker, `hw.unit` rows) never overlap;
//! - **busy bound** — deterministic tick accounting: every child's ticks
//!   fit inside a ticked parent (unit busy cycles ≤ makespan cycles), and
//!   the `exec` section's ticks equal the sum of its tasks' ticks.
//!
//! [`validate_trace_dispatch`] then cross-checks the span trees against
//! the dispatcher's own [`DispatchRecord`]s — same key set, same worker,
//! and the recorded step interval boxed inside the `serve.dispatch` span —
//! so the two observability layers cannot silently drift apart.

use supernova_trace::{Span, Timebase, Trace};

use crate::validate::{DispatchRecord, Invariant, ScheduleViolation};

/// Absolute slack on interval comparisons, matching the schedule
/// checkers' tolerance discipline.
fn tol(scale: f64) -> f64 {
    1e-12 + 1e-9 * scale.abs()
}

fn check_shape(root: &Span, out: &mut Vec<ScheduleViolation>) {
    let step = match root.name.as_str() {
        "solver.step" => Some(root),
        // Fleet-layer roots (`supernova-fleet` router): a migration must
        // show both halves of the move, a failover at least the restore.
        "fleet.migrate" => {
            for required in ["fleet.snapshot", "fleet.restore"] {
                if !root.children.iter().any(|c| c.name == required) {
                    out.push(ScheduleViolation {
                        invariant: Invariant::TraceShape,
                        detail: format!("fleet.migrate lacks a {required:?} child"),
                    });
                }
            }
            None
        }
        "fleet.failover" => {
            if !root.children.iter().any(|c| c.name == "fleet.restore") {
                out.push(ScheduleViolation {
                    invariant: Invariant::TraceShape,
                    detail: "fleet.failover lacks a \"fleet.restore\" child".to_string(),
                });
            }
            None
        }
        "serve.dispatch" => {
            let steps: Vec<&Span> = root
                .children
                .iter()
                .filter(|c| c.name == "solver.step")
                .collect();
            if steps.len() != 1 || root.children.len() != 1 {
                out.push(ScheduleViolation {
                    invariant: Invariant::TraceShape,
                    detail: format!(
                        "serve.dispatch must wrap exactly one solver.step, found {} children \
                         ({} solver.step)",
                        root.children.len(),
                        steps.len()
                    ),
                });
            }
            steps.first().copied()
        }
        other => {
            out.push(ScheduleViolation {
                invariant: Invariant::TraceShape,
                detail: format!("unexpected root span {other:?}"),
            });
            None
        }
    };
    if let Some(step) = step {
        for section in ["exec", "hw"] {
            let n = step.children.iter().filter(|c| c.name == section).count();
            if n > 1 {
                out.push(ScheduleViolation {
                    invariant: Invariant::TraceShape,
                    detail: format!(
                        "solver.step holds {n} {section:?} sections, at most 1 allowed"
                    ),
                });
            }
        }
    }
}

fn check_intervals(span: &Span, scale: f64, out: &mut Vec<ScheduleViolation>) {
    let t = tol(scale);
    if span.has_interval() && span.end < span.start - t {
        out.push(ScheduleViolation {
            invariant: Invariant::HappensBefore,
            detail: format!(
                "span {:?} ends at {:.3e}s before its start {:.3e}s",
                span.name, span.end, span.start
            ),
        });
    }
    for child in &span.children {
        // Containment is only meaningful on a shared clock: the virtual
        // `hw` subtree starts its own timebase inside a wall parent.
        if span.has_interval()
            && child.has_interval()
            && span.timebase == child.timebase
            && (child.start < span.start - t || child.end > span.end + t)
        {
            out.push(ScheduleViolation {
                invariant: Invariant::HappensBefore,
                detail: format!(
                    "child {:?} [{:.6}, {:.6}]s escapes parent {:?} [{:.6}, {:.6}]s",
                    child.name, child.start, child.end, span.name, span.start, span.end
                ),
            });
        }
        check_intervals(child, scale, out);
    }
}

fn check_exclusivity(span: &Span, scale: f64, out: &mut Vec<ScheduleViolation>) {
    let t = tol(scale);
    // Group siblings by (name, timebase, track); `hw.node` lanes carry the
    // node id (not an execution unit), so they are exempt.
    let mut lanes: Vec<(&str, Timebase, u32, f64, f64)> = span
        .children
        .iter()
        .filter(|c| c.has_interval() && c.name != "hw.node")
        .map(|c| (c.name.as_str(), c.timebase, c.track, c.start, c.end))
        .collect();
    lanes.sort_by(|a, b| {
        (a.0, a.1, a.2)
            .cmp(&(b.0, b.1, b.2))
            .then(a.3.total_cmp(&b.3))
    });
    for w in lanes.windows(2) {
        let (an, atb, atr, _, aend) = w[0];
        let (bn, btb, btr, bstart, _) = w[1];
        if an == bn && atb == btb && atr == btr && bstart < aend - t {
            out.push(ScheduleViolation {
                invariant: Invariant::UnitExclusive,
                detail: format!(
                    "two {an:?} spans overlap on track {atr}: one ends at {aend:.6}s, the \
                     next starts at {bstart:.6}s"
                ),
            });
        }
    }
    for child in &span.children {
        check_exclusivity(child, scale, out);
    }
}

fn check_ticks(span: &Span, out: &mut Vec<ScheduleViolation>) {
    if span.ticks > 0 {
        for child in &span.children {
            if child.ticks > span.ticks {
                out.push(ScheduleViolation {
                    invariant: Invariant::BusyBound,
                    detail: format!(
                        "child {:?} carries {} ticks inside parent {:?} with only {}",
                        child.name, child.ticks, span.name, span.ticks
                    ),
                });
            }
        }
    }
    if span.name == "exec" && !span.children.is_empty() {
        let sum: u64 = span.children.iter().map(|c| c.ticks).sum();
        if sum != span.ticks {
            out.push(ScheduleViolation {
                invariant: Invariant::BusyBound,
                detail: format!(
                    "exec section claims {} ticks but its tasks sum to {sum}",
                    span.ticks
                ),
            });
        }
    }
    for child in &span.children {
        check_ticks(child, out);
    }
}

/// Checks one step's span tree: shape, interval containment per timebase,
/// per-lane exclusivity and tick accounting. Returns every violation
/// found (empty = the tree is consistent).
pub fn validate_trace(trace: &Trace) -> Vec<ScheduleViolation> {
    let mut out = Vec::new();
    let scale = if trace.root.has_interval() {
        trace.root.end
    } else {
        1.0
    };
    check_shape(&trace.root, &mut out);
    check_intervals(&trace.root, scale, &mut out);
    check_exclusivity(&trace.root, scale, &mut out);
    check_ticks(&trace.root, &mut out);
    out
}

/// Cross-checks serving-layer span trees against the dispatcher's own
/// [`DispatchRecord`]s: every record must have exactly one trace with the
/// same `(session, seq)` key, on the same worker, whose `serve.dispatch`
/// span brackets the recorded step interval (both are sampled from the
/// process-global trace epoch). Pass the records from the same run the
/// traces were drained from.
pub fn validate_trace_dispatch(
    traces: &[Trace],
    records: &[DispatchRecord],
) -> Vec<ScheduleViolation> {
    let mut out = Vec::new();
    let scale = records.iter().map(|r| r.end).fold(0.0f64, f64::max);
    let t = tol(scale);
    for r in records {
        let matching: Vec<&Trace> = traces
            .iter()
            .filter(|tr| tr.key.session == r.session && tr.key.seq == r.seq)
            .collect();
        if matching.len() != 1 {
            out.push(ScheduleViolation {
                invariant: Invariant::Coverage,
                detail: format!(
                    "dispatch record session {} seq {} has {} span trees, expected 1",
                    r.session,
                    r.seq,
                    matching.len()
                ),
            });
            continue;
        }
        let root = &matching[0].root;
        if root.track != r.worker as u32 {
            out.push(ScheduleViolation {
                invariant: Invariant::UnitExclusive,
                detail: format!(
                    "session {} seq {}: span tree ran on worker {} but the dispatch record \
                     says {}",
                    r.session, r.seq, root.track, r.worker
                ),
            });
        }
        if root.has_interval() && (r.start < root.start - t || r.end > root.end + t) {
            out.push(ScheduleViolation {
                invariant: Invariant::HappensBefore,
                detail: format!(
                    "session {} seq {}: dispatch interval [{:.6}, {:.6}]s escapes its \
                     serve.dispatch span [{:.6}, {:.6}]s",
                    r.session, r.seq, r.start, r.end, root.start, root.end
                ),
            });
        }
    }
    if traces.len() != records.len() {
        out.push(ScheduleViolation {
            invariant: Invariant::Coverage,
            detail: format!(
                "{} span trees but {} dispatch records",
                traces.len(),
                records.len()
            ),
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use supernova_trace::{Category, CounterSet, StepKey};

    fn task(node: u64, worker: u32, start: f64, end: f64, ticks: u64) -> Span {
        let mut s = Span::wall("exec.task", Category::Exec, start, end);
        s.track = worker;
        s.ticks = ticks;
        s.counters.set("node", node);
        s
    }

    fn legal() -> Trace {
        let mut step = Span::wall("solver.step", Category::Solver, 1.0, 2.0);
        step.children
            .push(Span::marker("solver.relin", Category::Solver, 100));
        let mut exec = Span::wall("exec", Category::Exec, 1.1, 1.8);
        exec.ticks = 30;
        exec.children.push(task(0, 0, 1.1, 1.4, 10));
        exec.children.push(task(1, 1, 1.2, 1.5, 12));
        exec.children.push(task(2, 0, 1.5, 1.8, 8));
        step.children.push(exec);
        let mut hw = Span::virtual_time("hw", Category::Hw, 0.0, 1e-3, 1_000_000);
        let mut unit = Span::virtual_time("hw.unit COMP0", Category::Hw, 0.0, 9e-4, 900_000);
        unit.counters = CounterSet::new();
        hw.children.push(unit);
        step.children.push(hw);
        let mut root = Span::wall("serve.dispatch", Category::Serve, 0.9, 2.1);
        root.track = 1;
        root.children.push(step);
        Trace {
            key: StepKey {
                session: 4,
                seq: 2,
                step: 3,
            },
            root,
        }
    }

    #[test]
    fn legal_trace_passes() {
        assert_eq!(validate_trace(&legal()), Vec::new());
    }

    #[test]
    fn escaping_child_and_overlapping_lane_are_caught() {
        let mut t = legal();
        // Task escapes its exec parent.
        t.root.children[0].children[1].children[0].start = 0.5;
        let v = validate_trace(&t);
        assert!(v.iter().any(|v| v.invariant == Invariant::HappensBefore));

        let mut t = legal();
        // Two tasks on worker 0 overlap.
        t.root.children[0].children[1].children[2].start = 1.2;
        let v = validate_trace(&t);
        assert!(v.iter().any(|v| v.invariant == Invariant::UnitExclusive));
    }

    #[test]
    fn tick_accounting_is_enforced() {
        let mut t = legal();
        // Unit busy cycles exceed the hw makespan cycles.
        t.root.children[0].children[2].children[0].ticks = 2_000_000;
        let v = validate_trace(&t);
        assert!(v.iter().any(|v| v.invariant == Invariant::BusyBound));

        let mut t = legal();
        // exec ticks stop matching the task sum.
        t.root.children[0].children[1].ticks = 31;
        let v = validate_trace(&t);
        assert!(v.iter().any(|v| v.invariant == Invariant::BusyBound));
    }

    #[test]
    fn bad_shape_is_caught() {
        let mut t = legal();
        t.root
            .children
            .push(Span::marker("solver.step", Category::Solver, 0));
        assert!(validate_trace(&t)
            .iter()
            .any(|v| v.invariant == Invariant::TraceShape));
        let bare = Trace {
            key: StepKey::default(),
            root: Span::marker("mystery", Category::Serve, 0),
        };
        assert!(validate_trace(&bare)
            .iter()
            .any(|v| v.invariant == Invariant::TraceShape));
    }

    #[test]
    fn fleet_roots_require_their_children() {
        let fleet = |name: &str, children: &[&str]| {
            let mut root = Span::wall(name, Category::Serve, 1.0, 2.0);
            for c in children {
                root.children.push(Span::marker(c, Category::Serve, 0));
            }
            Trace {
                key: StepKey::default(),
                root,
            }
        };
        let ok = fleet("fleet.migrate", &["fleet.snapshot", "fleet.restore"]);
        assert_eq!(validate_trace(&ok), Vec::new());
        let ok = fleet("fleet.failover", &["fleet.restore", "fleet.replay"]);
        assert_eq!(validate_trace(&ok), Vec::new());
        for bad in [
            fleet("fleet.migrate", &["fleet.restore"]),
            fleet("fleet.migrate", &["fleet.snapshot"]),
            fleet("fleet.failover", &["fleet.replay"]),
        ] {
            assert!(
                validate_trace(&bad)
                    .iter()
                    .any(|v| v.invariant == Invariant::TraceShape),
                "{:?} accepted",
                bad.root.name
            );
        }
    }

    #[test]
    fn dispatch_cross_check_matches_keys_workers_and_intervals() {
        let t = legal();
        let rec = DispatchRecord {
            worker: 1,
            session: 4,
            seq: 2,
            start: 0.95,
            end: 2.05,
        };
        assert_eq!(validate_trace_dispatch(&[t.clone()], &[rec]), Vec::new());
        // Wrong worker.
        let bad = DispatchRecord { worker: 0, ..rec };
        assert!(validate_trace_dispatch(&[t.clone()], &[bad])
            .iter()
            .any(|v| v.invariant == Invariant::UnitExclusive));
        // Interval outside the span.
        let bad = DispatchRecord { end: 2.5, ..rec };
        assert!(validate_trace_dispatch(&[t.clone()], &[bad])
            .iter()
            .any(|v| v.invariant == Invariant::HappensBefore));
        // Missing trace for a record, plus a count mismatch.
        let other = DispatchRecord { session: 9, ..rec };
        let v = validate_trace_dispatch(&[t], &[rec, other]);
        assert!(v.iter().any(|v| v.invariant == Invariant::Coverage));
    }
}
