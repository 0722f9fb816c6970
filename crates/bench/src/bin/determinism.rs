//! `determinism` — the CI gate proving parallel host factorization is
//! bit-identical to serial execution, in every numeric mode.
//!
//! ```text
//! cargo run --release -p supernova-bench --bin determinism
//! ```
//!
//! Replays three datasets online through iSAM2 once per (numeric mode,
//! executor thread count) pair — `f64`, `f32` and `f32f64` at 1, 2 and 4
//! threads. After every step the cached `NumericFactor` is serialized to
//! canonical bytes and hashed; at the end of the replay the full byte
//! strings and the estimated trajectories are kept. For each (dataset,
//! mode, thread count) triple three named sub-checks must hold against
//! the same-mode serial run:
//!
//! - `step-hashes`: every per-step hash matches the serial run (the
//!   factor never diverges, even transiently),
//! - `final-bytes`: the final serialized factor is byte-for-byte
//!   identical, and
//! - `estimate`: the final trajectory estimate is bit-identical
//!   (`f64::to_bits`).
//!
//! Equality is exact *within* a mode only — the narrow modes round where
//! f64 does not, so cross-mode bytes differ by design (`numeric_ape`
//! gates how much that costs in trajectory accuracy). Sub-checks report
//! `PASS`/`FAIL` in a fixed order and the run ends with one summary line
//! naming any failed checks. See DESIGN.md "Plan/exec split & host
//! parallelism" for why equality is exact rather than within-tolerance.
//!
//! The sweep also crosses the intra-front split pass: per (dataset,
//! mode), a split-disabled serial replay and a split-disabled 4-thread
//! replay are compared against the same split-enabled serial reference
//! (`split-off-serial` / `split-off-4t`). This is the strongest claim the
//! design makes — the sub-unit overlay changes *scheduling only*, so its
//! bytes must match the unsplit plan's bytes exactly, not merely be
//! internally consistent across thread counts.
//!
//! Finally, per dataset, `analyze-incremental` replays at 1 and 4 threads
//! beside a twin whose core re-derives the symbolic factorization and the
//! plan from nothing on every structural change: the plan fingerprints
//! must agree on every step and the final factor bytes must be identical —
//! `IncrementalCore::analyze`'s prefix reuse changes what a step costs,
//! never what it computes.

use std::process::ExitCode;

use supernova_bench::check::Report;
use supernova_datasets::Dataset;
use supernova_factors::{Key, Variable};
use supernova_linalg::NumericMode;
use supernova_solvers::{Isam2, Isam2Config, OnlineSolver};
use supernova_sparse::interference::plan_fingerprint;
use supernova_sparse::{ParallelExecutor, SplitConfig};

/// FNV-1a over a byte string.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// One replay: per-step factor hashes and plan fingerprints, final factor
/// bytes, final estimate. `Variable` derives `PartialEq` over exact `f64`
/// values, so comparing estimates across runs is an exact-equality check,
/// not a tolerance.
struct Replay {
    step_hashes: Vec<u64>,
    plan_prints: Vec<u64>,
    final_bytes: Vec<u8>,
    estimate: Vec<Variable>,
}

/// Replays `dataset` online; with `analyze_from_scratch` the core re-derives
/// its symbolic factorization and plan from nothing on every structural
/// change instead of updating them.
fn replay(
    dataset: &Dataset,
    mode: NumericMode,
    threads: usize,
    split: SplitConfig,
    analyze_from_scratch: bool,
) -> Replay {
    let mut solver = Isam2::new(Isam2Config::default());
    solver
        .core_mut()
        .set_executor(ParallelExecutor::new(threads).with_numeric(mode));
    solver.core_mut().set_split_config(split);
    solver
        .core_mut()
        .set_analyze_from_scratch(analyze_from_scratch);
    let mut step_hashes = Vec::new();
    let mut plan_prints = Vec::new();
    for step in &dataset.online_steps() {
        solver.step(step.truth.clone(), step.factors.clone());
        let bytes = solver.core().numeric_bytes().unwrap_or_default();
        step_hashes.push(fnv1a(&bytes));
        plan_prints.push(solver.core().plan().map_or(0, plan_fingerprint));
    }
    let final_bytes = solver.core().numeric_bytes().unwrap_or_default();
    let estimate = (0..solver.core().num_vars())
        .map(|i| solver.core().pose_estimate(Key(i)))
        .collect();
    Replay {
        step_hashes,
        plan_prints,
        final_bytes,
        estimate,
    }
}

fn check(report: &mut Report, dataset: &Dataset, mode: NumericMode) {
    let name = dataset.name();
    eprintln!("{name} [{mode}]: {} steps", dataset.num_steps());
    let serial = replay(dataset, mode, 1, SplitConfig::on(), false);
    for threads in [2usize, 4] {
        let run = replay(dataset, mode, threads, SplitConfig::on(), false);
        let diverged = serial
            .step_hashes
            .iter()
            .zip(&run.step_hashes)
            .position(|(a, b)| a != b);
        report.check(
            &format!("{name}/{mode}/{threads}t/step-hashes"),
            diverged.is_none(),
            &match diverged {
                None => format!("{} per-step hashes match serial", run.step_hashes.len()),
                Some(step) => format!("factor diverges from serial at step {step}"),
            },
        );
        report.check(
            &format!("{name}/{mode}/{threads}t/final-bytes"),
            run.final_bytes == serial.final_bytes,
            &format!(
                "{} vs {} bytes",
                run.final_bytes.len(),
                serial.final_bytes.len()
            ),
        );
        report.check(
            &format!("{name}/{mode}/{threads}t/estimate"),
            run.estimate == serial.estimate,
            &format!(
                "{} poses compared by exact f64 equality",
                run.estimate.len()
            ),
        );
    }
    // Split-off cross-checks against the split-on serial reference: the
    // overlay must be invisible in the bytes, at any thread count.
    for (label, threads) in [("split-off-serial", 1usize), ("split-off-4t", 4)] {
        let run = replay(dataset, mode, threads, SplitConfig::off(), false);
        report.check(
            &format!("{name}/{mode}/{label}/final-bytes"),
            run.final_bytes == serial.final_bytes,
            &format!(
                "{} vs {} bytes (split-on serial reference)",
                run.final_bytes.len(),
                serial.final_bytes.len()
            ),
        );
        report.check(
            &format!("{name}/{mode}/{label}/estimate"),
            run.estimate == serial.estimate,
            &format!(
                "{} poses compared by exact f64 equality",
                run.estimate.len()
            ),
        );
    }
}

/// Incremental analysis vs a from-scratch twin, at 1 and 4 threads (the
/// structure is mode-independent, so one numeric mode suffices).
fn check_analyze_incremental(report: &mut Report, dataset: &Dataset) {
    let name = dataset.name();
    for threads in [1usize, 4] {
        let mode = NumericMode::F64;
        let incremental = replay(dataset, mode, threads, SplitConfig::on(), false);
        let scratch = replay(dataset, mode, threads, SplitConfig::on(), true);
        let diverged = incremental
            .plan_prints
            .iter()
            .zip(&scratch.plan_prints)
            .position(|(a, b)| a != b);
        report.check(
            &format!("{name}/analyze-incremental/{threads}t/plan-fingerprints"),
            diverged.is_none(),
            &match diverged {
                None => format!(
                    "{} per-step fingerprints match from-scratch analysis",
                    incremental.plan_prints.len()
                ),
                Some(step) => format!("plan diverges from from-scratch analysis at step {step}"),
            },
        );
        report.check(
            &format!("{name}/analyze-incremental/{threads}t/final-bytes"),
            incremental.final_bytes == scratch.final_bytes,
            &format!(
                "{} vs {} bytes",
                incremental.final_bytes.len(),
                scratch.final_bytes.len()
            ),
        );
    }
}

fn main() -> ExitCode {
    let datasets = [
        Dataset::m3500_scaled(0.06),
        Dataset::sphere_scaled(0.12),
        Dataset::cab1_scaled(0.2),
    ];
    let mut report = Report::new();
    for dataset in &datasets {
        for mode in NumericMode::ALL {
            check(&mut report, dataset, mode);
        }
        check_analyze_incremental(&mut report, dataset);
    }
    report.finish("determinism")
}
