//! `determinism` — the CI gate pinning the factor bytes and estimates of
//! three online replays, in every numeric mode, to committed constants.
//!
//! ```text
//! cargo run --release -p supernova-bench --bin determinism
//! ```
//!
//! Replays three datasets online through iSAM2 once per numeric mode
//! (`f64` and `f32`). For each (dataset, mode) pair two named sub-checks
//! compare the run with the [`ORACLE`] row recorded for it:
//!
//! - `final-bytes`: an FNV-1a hash of the final serialized
//!   `NumericFactor`, and
//! - `estimate`: an FNV-1a hash of every final pose estimate's `f64` bits.
//!
//! The constants were recorded when plans could still run on several
//! host threads, from the one-thread run every multi-thread run was
//! proven bit-identical to. They are the only pin on the f32 factor bytes
//! of these three replays, so they move only with a change that moves
//! bits on purpose, and that change says so. Bytes differ *across* modes
//! by design (`numeric_ape` gates what that costs in accuracy).
//!
//! Then, per (dataset, mode), `analyze-incremental` replays beside a twin
//! whose core re-derives the symbolic factorization and the plan from
//! nothing on every structural change: the plan fingerprints must agree
//! on every step and the final factor bytes must be identical —
//! `IncrementalCore::analyze`'s prefix reuse changes what a step costs,
//! never what it computes.
//!
//! Sub-checks report `PASS`/`FAIL` in a fixed order and the run ends with
//! one summary line naming any failed checks.

use std::process::ExitCode;

use supernova_analyze::Report;
use supernova_datasets::Dataset;
use supernova_factors::{Key, Variable};
use supernova_linalg::NumericMode;
use supernova_solvers::{Isam2, Isam2Config, OnlineSolver};
use supernova_sparse::interference::plan_fingerprint;
use supernova_sparse::ParallelExecutor;
use supernova_trace::wire::{fnv1a, FNV_OFFSET};

/// `(dataset, mode, final factor-bytes hash, estimate hash)` of every
/// replay this gate runs.
const ORACLE: [(&str, NumericMode, u64, u64); 6] = [
    (
        "M210",
        NumericMode::F64,
        0x248a_a9f9_d305_a72b,
        0x0406_e7fd_f007_97e8,
    ),
    (
        "M210",
        NumericMode::F32,
        0x71df_663c_f7c2_29a7,
        0xd9ac_a2d5_fc04_4c11,
    ),
    (
        "Sphere306",
        NumericMode::F64,
        0x8dc6_beb5_3797_202d,
        0xa32c_4125_dec1_328d,
    ),
    (
        "Sphere306",
        NumericMode::F32,
        0xca9c_bfb0_3d54_e80b,
        0xebdc_f635_397e_08b8,
    ),
    (
        "CAB1",
        NumericMode::F64,
        0x7759_4c6b_f42c_a849,
        0x8bad_e12b_b5c9_35a0,
    ),
    (
        "CAB1",
        NumericMode::F32,
        0xba91_9a9d_bef9_c2ff,
        0x5a2e_cb2d_91da_54b8,
    ),
];

/// One replay: per-step plan fingerprints, final factor bytes, final
/// estimate hash.
struct Replay {
    plan_prints: Vec<u64>,
    final_bytes: Vec<u8>,
    estimate_hash: u64,
}

/// FNV-1a over every pose's coordinates, as `f64` bits.
fn estimate_hash(estimate: &[Variable]) -> u64 {
    let mut h = FNV_OFFSET;
    let mut eat = |xs: &[f64]| {
        for x in xs {
            h = fnv1a(h, &x.to_bits().to_le_bytes());
        }
    };
    for var in estimate {
        match var {
            Variable::Se2(p) => {
                let (c, s) = p.rotation().cos_sin();
                eat(&[p.x(), p.y(), c, s]);
            }
            Variable::Se3(p) => {
                eat(p.rotation().matrix().as_slice());
                eat(&p.translation());
            }
            Variable::Vector(v) => eat(v),
        }
    }
    h
}

/// Replays `dataset` online; with `analyze_from_scratch` the core re-derives
/// its symbolic factorization and plan from nothing on every structural
/// change instead of updating them.
fn replay(dataset: &Dataset, mode: NumericMode, analyze_from_scratch: bool) -> Replay {
    let mut solver = Isam2::new(Isam2Config::default());
    solver
        .core_mut()
        .set_executor(ParallelExecutor::default().with_numeric(mode));
    solver
        .core_mut()
        .set_analyze_from_scratch(analyze_from_scratch);
    let mut plan_prints = Vec::new();
    for step in &dataset.online_steps() {
        solver.step(step.truth.clone(), step.factors.clone());
        plan_prints.push(solver.core().plan().map_or(0, plan_fingerprint));
    }
    let final_bytes = solver.core().numeric_bytes().unwrap_or_default();
    let estimate: Vec<Variable> = (0..solver.core().num_vars())
        .map(|i| solver.core().pose_estimate(Key(i)))
        .collect();
    Replay {
        plan_prints,
        final_bytes,
        estimate_hash: estimate_hash(&estimate),
    }
}

fn check(report: &mut Report, dataset: &Dataset, mode: NumericMode) {
    let name = dataset.name();
    eprintln!("{name} [{mode}]: {} steps", dataset.num_steps());
    let run = replay(dataset, mode, false);
    let bytes_hash = fnv1a(FNV_OFFSET, &run.final_bytes);
    let oracle = ORACLE
        .iter()
        .find(|&&(ds, m, ..)| ds == name && m == mode)
        .map(|&(.., bytes, estimate)| (bytes, estimate));
    let pinned = |got: u64, want: Option<u64>| match want {
        Some(want) => (got == want, format!("{got:#018x}, oracle {want:#018x}")),
        None => (false, format!("{got:#018x}, no oracle row")),
    };
    let (ok, detail) = pinned(bytes_hash, oracle.map(|o| o.0));
    report.check(&format!("{name}/{mode}/final-bytes"), ok, &detail);
    let (ok, detail) = pinned(run.estimate_hash, oracle.map(|o| o.1));
    report.check(&format!("{name}/{mode}/estimate"), ok, &detail);

    let scratch = replay(dataset, mode, true);
    let diverged = run
        .plan_prints
        .iter()
        .zip(&scratch.plan_prints)
        .position(|(a, b)| a != b);
    report.check(
        &format!("{name}/{mode}/analyze-incremental/plan-fingerprints"),
        diverged.is_none(),
        &match diverged {
            None => format!(
                "{} per-step fingerprints match from-scratch analysis",
                run.plan_prints.len()
            ),
            Some(step) => format!("plan diverges from from-scratch analysis at step {step}"),
        },
    );
    report.check(
        &format!("{name}/{mode}/analyze-incremental/final-bytes"),
        run.final_bytes == scratch.final_bytes,
        &format!(
            "{} vs {} bytes",
            run.final_bytes.len(),
            scratch.final_bytes.len()
        ),
    );
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
    }
    report.finish("determinism")
}
