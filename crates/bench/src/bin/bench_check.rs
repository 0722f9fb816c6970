//! `bench_check` — the CI benchmark-drift gate.
//!
//! ```text
//! cargo run --release -p supernova-bench --bin bench_check
//! ```
//!
//! Compares freshly generated benchmark artifacts against the committed
//! baselines:
//!
//! - `results/BENCH_kernels.json` vs `results/baselines/BENCH_kernels.json`
//! - `results/BENCH_fleet.json`   vs `results/baselines/BENCH_fleet.json`
//!
//! It compares only fields that do not depend on the host: per-call kernel
//! flops and every count of the fleet drill. They must
//! match the baseline *exactly*: any change is a correctness regression,
//! not noise. No wall time is compared with a baseline recorded on another
//! machine; `benchmark/` is where wall-clock time is measured. Simulator
//! output is gated elsewhere, byte for byte: CI stage `repro` diffs every
//! paper table at a small scale against a committed fixture.
//!
//! Two checks read the fresh fleet run alone, so a baseline refresh cannot
//! bank them away: the drill must be bit-identical to solo replays and
//! keep every failover replay suffix within its checkpoint interval.
//!
//! The kernel check is ratio-based: each case's blocked-vs-reference
//! speedup is measured within one process run, so host frequency scaling
//! cancels out of the gated number. Fresh speedups must meet the
//! `min_speedup` floors recorded in the committed baseline (scaled by
//! `BENCH_CHECK_KERNEL_SPEEDUP_SCALE`, default 1.0, for foreign
//! hardware); per-call flop counts are shape-derived and gated exactly.
//!
//! `results/README.md` documents the baseline-refresh workflow. Exits
//! with the shared `Report` summary line naming any failed checks.

use std::process::ExitCode;

use supernova_analyze::Report;
use supernova_trace::json::{parse, Json};

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

/// One exact sub-check over a numeric field (counts, flops). Compared
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

fn check_fleet(report: &mut Report) {
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
}

fn main() -> ExitCode {
    let mut report = Report::new();
    check_kernels(&mut report);
    check_fleet(&mut report);
    report.finish("bench_check")
}
