//! `bench_check` — the CI benchmark-regression gate.
//!
//! ```text
//! cargo run --release -p supernova-bench --bin bench_check
//! ```
//!
//! Compares freshly generated benchmark artifacts against the committed
//! baselines:
//!
//! - `results/BENCH_step_latency.json`    vs `results/baselines/BENCH_step_latency.json`
//! - `results/BENCH_serve_throughput.json` vs `results/baselines/BENCH_serve_throughput.json`
//! - `results/BENCH_kernels.json`          vs `results/baselines/BENCH_kernels.json`
//! - `results/BENCH_fleet.json`            vs `results/baselines/BENCH_fleet.json`
//!
//! Two kinds of sub-check, named per dataset/scenario:
//!
//! - **Wall-time regression**: measured wall seconds may not exceed
//!   `baseline * (1 + tolerance) + slack`. Tolerance defaults to 0.15
//!   (the >15% gate) and slack to 25 ms — the absolute term keeps
//!   micro-benchmarks whose baseline is a few milliseconds from failing
//!   on scheduler noise. Override with `BENCH_CHECK_TOLERANCE` /
//!   `BENCH_CHECK_SLACK_S` (e.g. when CI hardware differs from the
//!   machine that produced the baselines). Wall times *below* baseline
//!   never fail: refresh baselines to bank an improvement.
//! - **Determinism drift**: fields the design guarantees are
//!   machine-independent must match the baseline *exactly* — step
//!   counts, simulated SoC cycles, shed counts, the nominal scenario's
//!   bit-identity verdict, dispatch-span violation counts, the
//!   dispatch mode of each step-latency run (a certified plan must
//!   level-batch; running inline on several threads means certification
//!   regressed) and its numeric mode (two sides of a wall-time
//!   comparison must have run the same kernel precision). Any change
//!   here is a correctness regression, not
//!   noise, so no tolerance applies. Scenarios flagged `deterministic_counts: false` (overload
//!   bursts, whose admitted/shed split races the workers) are instead
//!   gated on their conserved invariants: the whole burst is accounted
//!   for and every admitted update completed.
//!
//! Each step-latency run's per-task dispatch overhead gets its own
//! wall-style gate with a microsecond-scale absolute slack
//! (`BENCH_CHECK_DISPATCH_SLACK_S`, default 200 us): the level-batched
//! dispatcher exists to shrink per-task bookkeeping, so its cost is
//! tracked as a first-class regression surface rather than buried in
//! whole-replay wall time.
//!
//! The modeled step-latency numbers (`modeled_critical_path_speedup` and
//! per-run `level_occupancy`) are pure functions of the final plan and
//! gated exactly. When the fresh run reports `host_cpus > 1`, the
//! 4-thread refactor speedup must land within 25% of the plan's modeled
//! whole-task speedup capped at the host's core budget; a 1-CPU host logs
//! a named skip instead, because measured wall time cannot improve there
//! no matter what the schedule does.
//!
//! The kernel check is ratio-based rather than wall-based: each case's
//! blocked-vs-reference speedup is measured within one process run, so
//! host frequency scaling cancels out of the gated number. Fresh speedups
//! must meet the `min_speedup` floors recorded in the committed baseline
//! (scaled by `BENCH_CHECK_KERNEL_SPEEDUP_SCALE`, default 1.0, for
//! foreign hardware); per-call flop counts are shape-derived and gated
//! exactly, as is each case's numeric width.
//!
//! `results/README.md` documents the baseline-refresh workflow. Exits
//! with the shared `Report` summary line naming any failed checks.

use std::process::ExitCode;

use supernova_bench::check::Report;
use supernova_bench::json::{parse, Json};

const FRESH_STEP: &str = "results/BENCH_step_latency.json";
const BASE_STEP: &str = "results/baselines/BENCH_step_latency.json";
const FRESH_SERVE: &str = "results/BENCH_serve_throughput.json";
const BASE_SERVE: &str = "results/baselines/BENCH_serve_throughput.json";
const FRESH_KERNELS: &str = "results/BENCH_kernels.json";
const BASE_KERNELS: &str = "results/baselines/BENCH_kernels.json";
const FRESH_FLEET: &str = "results/BENCH_fleet.json";
const BASE_FLEET: &str = "results/baselines/BENCH_fleet.json";

/// Loads and parses one artifact, turning both I/O and parse failures
/// into a named FAIL so a missing file reads like any other red check.
fn load(report: &mut Report, label: &str, path: &str) -> Option<Json> {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            report.check(label, false, &format!("cannot read {path}: {e}"));
            return None;
        }
    };
    match parse(&text) {
        Ok(v) => Some(v),
        Err(e) => {
            report.check(label, false, &format!("cannot parse {path}: {e}"));
            None
        }
    }
}

/// The regression thresholds, env-overridable for foreign CI hardware.
struct Gate {
    tolerance: f64,
    slack_s: f64,
    dispatch_slack_s: f64,
}

impl Gate {
    fn from_env() -> Self {
        let parse_env = |key: &str, default: f64| {
            std::env::var(key)
                .ok()
                .and_then(|v| v.parse::<f64>().ok())
                .unwrap_or(default)
        };
        Gate {
            tolerance: parse_env("BENCH_CHECK_TOLERANCE", 0.15),
            slack_s: parse_env("BENCH_CHECK_SLACK_S", 0.025),
            dispatch_slack_s: parse_env("BENCH_CHECK_DISPATCH_SLACK_S", 0.0002),
        }
    }

    /// One wall-time sub-check: fresh must not exceed the gated baseline.
    fn wall(&self, report: &mut Report, name: &str, fresh: Option<f64>, base: Option<f64>) {
        let (Some(fresh), Some(base)) = (fresh, base) else {
            report.check(name, false, "wall-time field missing on one side");
            return;
        };
        let limit = base * (1.0 + self.tolerance) + self.slack_s;
        report.check(
            name,
            fresh <= limit,
            &format!("{fresh:.4}s vs baseline {base:.4}s (limit {limit:.4}s)"),
        );
    }

    /// The per-task dispatch-overhead sub-check: same shape as `wall`,
    /// but with a microsecond-scale absolute slack — the 25 ms wall
    /// slack would swallow any plausible per-task regression.
    fn dispatch_overhead(
        &self,
        report: &mut Report,
        name: &str,
        fresh: Option<f64>,
        base: Option<f64>,
    ) {
        let (Some(fresh), Some(base)) = (fresh, base) else {
            report.check(name, false, "dispatch-overhead field missing on one side");
            return;
        };
        let limit = base * (1.0 + self.tolerance) + self.dispatch_slack_s;
        report.check(
            name,
            fresh <= limit,
            &format!(
                "{:.1}us/task vs baseline {:.1}us/task (limit {:.1}us/task)",
                fresh * 1e6,
                base * 1e6,
                limit * 1e6
            ),
        );
    }
}

/// One exact sub-check over a numeric field (counts, cycles). Compared
/// by bit pattern: both sides were printed by the same writer, so any
/// difference is real drift, not formatting.
fn exact(report: &mut Report, name: &str, fresh: Option<f64>, base: Option<f64>) {
    let (Some(fresh), Some(base)) = (fresh, base) else {
        report.check(name, false, "field missing on one side");
        return;
    };
    report.check(
        name,
        fresh.to_bits() == base.to_bits(),
        &format!("{fresh} vs baseline {base}"),
    );
}

/// Finds the array element whose `"name"` member equals `name`.
fn by_name<'a>(doc: &'a Json, list: &str, name: &str) -> Option<&'a Json> {
    doc.get(list)?
        .as_arr()?
        .iter()
        .find(|d| d.get("name").and_then(Json::as_str) == Some(name))
}

/// Names of every element of `doc[list]`, in file order.
fn names(doc: &Json, list: &str) -> Vec<String> {
    doc.get(list)
        .and_then(Json::as_arr)
        .map(|a| {
            a.iter()
                .filter_map(|d| d.get("name").and_then(Json::as_str))
                .map(str::to_string)
                .collect()
        })
        .unwrap_or_default()
}

fn check_step_latency(report: &mut Report, gate: &Gate) {
    let (Some(fresh), Some(base)) = (
        load(report, "step-latency/load-fresh", FRESH_STEP),
        load(report, "step-latency/load-baseline", BASE_STEP),
    ) else {
        return;
    };
    let host_cpus = fresh.get("host_cpus").and_then(Json::as_f64).unwrap_or(1.0);
    let base_names = names(&base, "datasets");
    report.check(
        "step-latency/coverage",
        names(&fresh, "datasets") == base_names && !base_names.is_empty(),
        &format!("baseline datasets {base_names:?}"),
    );
    for ds in &base_names {
        let (Some(f), Some(b)) = (
            by_name(&fresh, "datasets", ds),
            by_name(&base, "datasets", ds),
        ) else {
            continue;
        };
        exact(
            report,
            &format!("step-latency/{ds}/steps"),
            f.get("steps").and_then(Json::as_f64),
            b.get("steps").and_then(Json::as_f64),
        );
        // The modeled ratio is a pure function of the final plan's
        // structure, so it is gated exactly: drift means the symbolic layer
        // changed what it schedules.
        let modeled = f
            .get("modeled_critical_path_speedup")
            .and_then(Json::as_f64);
        exact(
            report,
            &format!("step-latency/{ds}/modeled_critical_path_speedup"),
            modeled,
            b.get("modeled_critical_path_speedup")
                .and_then(Json::as_f64),
        );
        // Measured-vs-modeled: with real cores, the 4-thread refactor
        // speedup must land within 25% of what the plan models at this
        // host's core budget. A 1-CPU host cannot show any wall-time win
        // regardless of the schedule, so the check logs a named skip
        // instead of gating noise.
        let measured = f
            .get("runs")
            .and_then(Json::as_arr)
            .and_then(|rs| {
                rs.iter()
                    .find(|r| r.get("threads").and_then(Json::as_f64) == Some(4.0))
            })
            .and_then(|r| r.get("refactor_speedup_vs_serial").and_then(Json::as_f64));
        if host_cpus > 1.0 {
            let budget = host_cpus.min(4.0);
            let target = modeled.map(|s| s.min(budget) * 0.75);
            report.check(
                &format!("step-latency/{ds}/measured-vs-modeled"),
                matches!((measured, target), (Some(m), Some(t)) if m >= t),
                &format!("4t refactor speedup {measured:?} vs 75% of modeled-at-{budget:.0}-cores {target:?}"),
            );
        } else {
            report.check(
                &format!("step-latency/{ds}/measured-vs-modeled"),
                true,
                "skipped: host_cpus=1, measured speedup is core-limited",
            );
        }
        let runs = |d: &'_ Json, threads: f64| -> Option<Json> {
            d.get("runs")?
                .as_arr()?
                .iter()
                .find(|r| r.get("threads").and_then(Json::as_f64) == Some(threads))
                .cloned()
        };
        for threads in [1.0, 2.0, 4.0] {
            let t = threads as u32;
            let (Some(fr), Some(br)) = (runs(f, threads), runs(b, threads)) else {
                report.check(
                    &format!("step-latency/{ds}/{t}t/present"),
                    false,
                    "run missing on one side",
                );
                continue;
            };
            gate.wall(
                report,
                &format!("step-latency/{ds}/{t}t/wall"),
                fr.get("host_wall_s").and_then(Json::as_f64),
                br.get("host_wall_s").and_then(Json::as_f64),
            );
            gate.wall(
                report,
                &format!("step-latency/{ds}/{t}t/refactor-wall"),
                fr.get("host_refactor_wall_s").and_then(Json::as_f64),
                br.get("host_refactor_wall_s").and_then(Json::as_f64),
            );
            exact(
                report,
                &format!("step-latency/{ds}/{t}t/sim-cycles"),
                fr.get("sim_cycles").and_then(Json::as_f64),
                br.get("sim_cycles").and_then(Json::as_f64),
            );
            // The dispatch mode is a pure function of thread count and
            // plan certification (1 thread runs serial, more threads
            // level-batch every certified plan), so it is gated exactly:
            // a serial run at several threads means a dataset plan
            // stopped certifying, which is a correctness regression.
            exact(
                report,
                &format!("step-latency/{ds}/{t}t/dispatch-mode"),
                fr.get("dispatch_mode").and_then(Json::as_f64),
                br.get("dispatch_mode").and_then(Json::as_f64),
            );
            // The numeric mode is configuration, not measurement: a
            // wall-time comparison whose two sides ran different kernel
            // precisions is meaningless, so it must match exactly (0 f64,
            // 1 f32).
            exact(
                report,
                &format!("step-latency/{ds}/{t}t/numeric-mode"),
                fr.get("numeric_mode").and_then(Json::as_f64),
                br.get("numeric_mode").and_then(Json::as_f64),
            );
            // The plan's modeled occupancy at this thread count is a
            // deterministic function of (plan, threads).
            exact(
                report,
                &format!("step-latency/{ds}/{t}t/level-occupancy"),
                fr.get("level_occupancy").and_then(Json::as_f64),
                br.get("level_occupancy").and_then(Json::as_f64),
            );
            gate.dispatch_overhead(
                report,
                &format!("step-latency/{ds}/{t}t/dispatch-overhead"),
                fr.get("dispatch_overhead_per_task_s")
                    .and_then(Json::as_f64),
                br.get("dispatch_overhead_per_task_s")
                    .and_then(Json::as_f64),
            );
        }
    }
}

fn check_serve_throughput(report: &mut Report, gate: &Gate) {
    let (Some(fresh), Some(base)) = (
        load(report, "serve-throughput/load-fresh", FRESH_SERVE),
        load(report, "serve-throughput/load-baseline", BASE_SERVE),
    ) else {
        return;
    };
    let base_names = names(&base, "scenarios");
    report.check(
        "serve-throughput/coverage",
        names(&fresh, "scenarios") == base_names && !base_names.is_empty(),
        &format!("baseline scenarios {base_names:?}"),
    );
    for sc in &base_names {
        let (Some(f), Some(b)) = (
            by_name(&fresh, "scenarios", sc),
            by_name(&base, "scenarios", sc),
        ) else {
            continue;
        };
        gate.wall(
            report,
            &format!("serve-throughput/{sc}/wall"),
            f.get("wall_s").and_then(Json::as_f64),
            b.get("wall_s").and_then(Json::as_f64),
        );
        // Scenarios whose queues never fill have timing-independent
        // admission counts — any change there is real drift. Overload
        // scenarios race the workers' drain rate, so their split between
        // admitted and shed varies run to run; for those, gate on what
        // *is* invariant: nothing vanishes (submitted + shed at submit
        // covers the whole burst) and every admitted update completes.
        if f.get("deterministic_counts").and_then(Json::as_bool) == Some(true) {
            for field in [
                "updates_submitted",
                "updates_completed",
                "updates_shed",
                "updates_shed_at_submit",
            ] {
                exact(
                    report,
                    &format!("serve-throughput/{sc}/{field}"),
                    f.get(field).and_then(Json::as_f64),
                    b.get(field).and_then(Json::as_f64),
                );
            }
        } else {
            let total = |d: &Json| {
                Some(
                    d.get("updates_submitted")?.as_f64()?
                        + d.get("updates_shed_at_submit")?.as_f64()?,
                )
            };
            exact(
                report,
                &format!("serve-throughput/{sc}/burst-conservation"),
                total(f),
                total(b),
            );
            let completed = f.get("updates_completed").and_then(Json::as_f64);
            let admitted = f.get("updates_submitted").and_then(Json::as_f64);
            report.check(
                &format!("serve-throughput/{sc}/admitted-completes"),
                completed.is_some() && completed.map(f64::to_bits) == admitted.map(f64::to_bits),
                &format!("{completed:?} completed of {admitted:?} admitted"),
            );
        }
        exact(
            report,
            &format!("serve-throughput/{sc}/dispatch_span_violations"),
            f.get("dispatch_span_violations").and_then(Json::as_f64),
            b.get("dispatch_span_violations").and_then(Json::as_f64),
        );
        // bit_identical_to_solo is a tri-state (true / false / null for
        // scenarios where shedding makes solo comparison meaningless);
        // it must match the baseline variant-for-variant.
        let fb = f.get("bit_identical_to_solo");
        let bb = b.get("bit_identical_to_solo");
        report.check(
            &format!("serve-throughput/{sc}/bit_identical_to_solo"),
            matches!((fb, bb), (Some(x), Some(y)) if x == y),
            &format!("{fb:?} vs baseline {bb:?}"),
        );
    }
}

fn check_kernels(report: &mut Report) {
    let (Some(fresh), Some(base)) = (
        load(report, "kernels/load-fresh", FRESH_KERNELS),
        load(report, "kernels/load-baseline", BASE_KERNELS),
    ) else {
        return;
    };
    let scale = std::env::var("BENCH_CHECK_KERNEL_SPEEDUP_SCALE")
        .ok()
        .and_then(|v| v.parse::<f64>().ok())
        .unwrap_or(1.0);
    let base_names = names(&base, "cases");
    report.check(
        "kernels/coverage",
        names(&fresh, "cases") == base_names && !base_names.is_empty(),
        &format!("baseline cases {base_names:?}"),
    );
    for case in &base_names {
        let (Some(f), Some(b)) = (
            by_name(&fresh, "cases", case),
            by_name(&base, "cases", case),
        ) else {
            continue;
        };
        // Per-call flops are a pure function of the case's shape.
        exact(
            report,
            &format!("kernels/{case}/flops"),
            f.get("flops_per_call").and_then(Json::as_f64),
            b.get("flops_per_call").and_then(Json::as_f64),
        );
        // The numeric width is part of the case's identity — a fresh run
        // that re-measured a case at a different precision proves the
        // harness drifted, so it is gated exactly.
        let fw = f.get("width").and_then(Json::as_str);
        let bw = b.get("width").and_then(Json::as_str);
        report.check(
            &format!("kernels/{case}/width"),
            fw.is_some() && fw == bw,
            &format!("{fw:?} vs baseline {bw:?}"),
        );
        // The ratio gate: measured same-run speedup vs the baseline floor,
        // scaled by the relaxation knob.
        let speedup = f.get("speedup_vs_reference").and_then(Json::as_f64);
        let floor = b.get("min_speedup").and_then(Json::as_f64);
        match (speedup, floor) {
            (Some(s), Some(fl)) => {
                let limit = fl * scale;
                report.check(
                    &format!("kernels/{case}/speedup"),
                    s >= limit,
                    &format!("{s:.2}x vs floor {limit:.2}x"),
                );
            }
            _ => report.check(
                &format!("kernels/{case}/speedup"),
                false,
                "speedup or floor missing",
            ),
        }
    }
}

fn check_fleet(report: &mut Report, gate: &Gate) {
    let (Some(fresh), Some(base)) = (
        load(report, "fleet/load-fresh", FRESH_FLEET),
        load(report, "fleet/load-baseline", BASE_FLEET),
    ) else {
        return;
    };
    // The fleet drill is deterministic end to end: the kill wave, the shard
    // it hits, the victims' ring placement, their checkpoint floors and
    // journal suffixes are all pure functions of the scenario seeds. Every
    // count is gated exactly — drift in `failover_sessions` means the ring
    // moved, drift in `replayed_updates` or `journal_records` means the
    // admission/journal protocol changed, and the loss/violation fields are
    // the zero-loss acceptance criteria themselves.
    for field in [
        "sessions_total",
        "shards",
        "shards_killed",
        "steps_per_session",
        "checkpoint_interval",
        "updates_admitted",
        "migrations",
        "failover_sessions",
        "replayed_updates",
        "max_replay_suffix",
        "suffix_bound_violations",
        "checkpoints",
        "compactions",
        "compacted_records",
        "journal_records",
        "journal_truncated_bytes",
        "lost_updates",
        "coverage_violations",
        "trace_violations",
        "bit_identity_checked",
    ] {
        exact(
            report,
            &format!("fleet/{field}"),
            fresh.get(field).and_then(Json::as_f64),
            base.get(field).and_then(Json::as_f64),
        );
    }
    // Byte identity is pass/fail, not drift-gated: it must hold outright.
    report.check(
        "fleet/bit_identical_to_solo",
        fresh.get("bit_identical_to_solo").and_then(Json::as_bool) == Some(true),
        "survivor estimates vs solo replays",
    );
    // The checkpoint policy's contract, gated from the fresh run alone:
    // no failover replay suffix may exceed the configured interval K.
    let suffix = fresh.get("max_replay_suffix").and_then(Json::as_f64);
    let k = fresh.get("checkpoint_interval").and_then(Json::as_f64);
    report.check(
        "fleet/replay_suffix_bounded_by_k",
        matches!((suffix, k), (Some(s), Some(k)) if k > 0.0 && s <= k),
        "max failover replay suffix vs checkpoint interval",
    );
    gate.wall(
        report,
        "fleet/wall",
        fresh.get("wall_s").and_then(Json::as_f64),
        base.get("wall_s").and_then(Json::as_f64),
    );
    // Failover recovery latency is the headline fleet metric: the time from
    // shard death to every victim re-homed and replayed. The generic slack
    // term dominates its few-millisecond baseline, which is intended — the
    // gate catches order-of-magnitude regressions (e.g. re-replaying whole
    // trajectories instead of journal suffixes), not scheduler noise.
    gate.wall(
        report,
        "fleet/recovery",
        fresh.get("recovery_wall_s").and_then(Json::as_f64),
        base.get("recovery_wall_s").and_then(Json::as_f64),
    );
}

fn main() -> ExitCode {
    let gate = Gate::from_env();
    eprintln!(
        "bench_check: tolerance {:.0}% + {:.0}ms slack (BENCH_CHECK_TOLERANCE / BENCH_CHECK_SLACK_S)",
        gate.tolerance * 100.0,
        gate.slack_s * 1000.0
    );
    let mut report = Report::new();
    check_step_latency(&mut report, &gate);
    check_serve_throughput(&mut report, &gate);
    check_kernels(&mut report);
    check_fleet(&mut report, &gate);
    report.finish("bench_check")
}
