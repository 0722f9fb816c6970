//! `numeric_ape` — the CI gate bounding what narrow-precision kernels
//! cost in trajectory accuracy.
//!
//! ```text
//! cargo run --release -p supernova-bench --bin numeric_ape
//! ```
//!
//! Replays M3500 and Sphere online through iSAM2 once per numeric mode
//! (`f64`, `f32`; 2-thread host executor — within a mode, results are
//! thread-count independent) and evaluates the final trajectory's
//! absolute pose error against ground truth. Writes every mode's APE to
//! `results/numeric_ape.json`, then gates the f32 mode against the f64
//! run:
//!
//! - `ape-sane`: the f64 run produced a finite, non-degenerate APE;
//! - `rmse-ratio` / `max-ratio`: the narrow mode's final RMSE and MAX may
//!   not exceed `f64's × RATIO_LIMIT` (plus an absolute meter-scale
//!   epsilon so a near-zero f64 APE cannot make the ratio explode).
//!
//! `RATIO_LIMIT` is 1.5: trajectory error is dominated by measurement
//! noise and linearization, not arithmetic — f32's ~1e-7 relative
//! rounding perturbs the Gauss-Newton iterates but must not change the
//! basin, so the narrow APE lands within tens of percent of f64's, not
//! multiples. A ratio beyond 1.5 means narrow kernels are steering the
//! optimizer somewhere else, which is a correctness regression of the
//! f32 stack, not noise (see DESIGN.md §13).

use std::fmt::Write as _;
use std::process::ExitCode;

use supernova_bench::check::Report;
use supernova_datasets::Dataset;
use supernova_factors::Values;
use supernova_linalg::NumericMode;
use supernova_metrics::{ape, ApeStats};
use supernova_solvers::{Isam2, Isam2Config, OnlineSolver};
use supernova_sparse::ParallelExecutor;

/// Narrow-mode APE may not exceed this multiple of the f64-mode APE.
const RATIO_LIMIT: f64 = 1.5;
/// Absolute slack, in meters, added to the ratio bound so a near-zero
/// f64 APE cannot turn harmless rounding into an unbounded ratio.
const ABS_EPS_M: f64 = 1e-3;

fn replay_ape(dataset: &Dataset, mode: NumericMode) -> ApeStats {
    let mut solver = Isam2::new(Isam2Config::default());
    solver
        .core_mut()
        .set_executor(ParallelExecutor::new(2).with_numeric(mode));
    for step in &dataset.online_steps() {
        solver.step(step.truth.clone(), step.factors.clone());
    }
    let mut truth = Values::new();
    for v in dataset.ground_truth() {
        truth.insert(v.clone());
    }
    ape(&solver.core().estimate(), &truth)
}

fn main() -> ExitCode {
    let datasets = [Dataset::m3500_scaled(0.06), Dataset::sphere_scaled(0.12)];
    let mut report = Report::new();

    let mut out = String::new();
    out.push_str("{\n  \"bench\": \"numeric_ape\",\n");
    let _ = writeln!(out, "  \"ratio_limit\": {RATIO_LIMIT},");
    out.push_str("  \"datasets\": [\n");

    for (d, dataset) in datasets.iter().enumerate() {
        let name = dataset.name();
        eprintln!("{name}: {} steps", dataset.num_steps());
        let wide = replay_ape(dataset, NumericMode::F64);
        report.check(
            &format!("{name}/f64/ape-sane"),
            wide.rmse.is_finite() && wide.max.is_finite() && wide.count == dataset.num_steps(),
            &format!(
                "rmse {:.4}m, max {:.4}m over {} poses",
                wide.rmse, wide.max, wide.count
            ),
        );

        let _ = writeln!(out, "    {{");
        let _ = writeln!(out, "      \"name\": \"{name}\",");
        let _ = writeln!(out, "      \"poses\": {},", wide.count);
        out.push_str("      \"modes\": [\n");
        let mut stats = Vec::new();
        for (m, mode) in NumericMode::ALL.into_iter().enumerate() {
            let s = if mode == NumericMode::F64 {
                wide
            } else {
                replay_ape(dataset, mode)
            };
            let _ = writeln!(out, "        {{");
            let _ = writeln!(out, "          \"mode\": \"{mode}\",");
            let _ = writeln!(out, "          \"rmse_m\": {:.9},", s.rmse);
            let _ = writeln!(out, "          \"max_m\": {:.9},", s.max);
            let _ = writeln!(
                out,
                "          \"rmse_ratio_vs_f64\": {:.6}",
                s.rmse / wide.rmse.max(f64::MIN_POSITIVE)
            );
            let comma = if m + 1 < NumericMode::ALL.len() {
                ","
            } else {
                ""
            };
            let _ = writeln!(out, "        }}{comma}");
            stats.push((mode, s));
        }
        out.push_str("      ]\n");
        let comma = if d + 1 < datasets.len() { "," } else { "" };
        let _ = writeln!(out, "    }}{comma}");

        for (mode, s) in &stats {
            if *mode == NumericMode::F64 {
                continue;
            }
            report.check(
                &format!("{name}/{mode}/rmse-ratio"),
                s.rmse <= wide.rmse * RATIO_LIMIT + ABS_EPS_M,
                &format!(
                    "{:.4}m vs f64 {:.4}m (limit {RATIO_LIMIT}x + {ABS_EPS_M}m)",
                    s.rmse, wide.rmse
                ),
            );
            report.check(
                &format!("{name}/{mode}/max-ratio"),
                s.max <= wide.max * RATIO_LIMIT + ABS_EPS_M,
                &format!(
                    "{:.4}m vs f64 {:.4}m (limit {RATIO_LIMIT}x + {ABS_EPS_M}m)",
                    s.max, wide.max
                ),
            );
        }
    }
    out.push_str("  ]\n}\n");

    std::fs::create_dir_all("results").expect("create results/");
    std::fs::write("results/numeric_ape.json", &out).expect("write results/numeric_ape.json");
    eprintln!("wrote results/numeric_ape.json");
    report.finish("numeric_ape")
}
