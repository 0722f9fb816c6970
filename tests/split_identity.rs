//! Integration tests for the intra-front split pass: on every seeded
//! dataset, a split plan must produce byte-identical numeric factors to
//! the *unsplit serial* oracle, in every numeric mode, at every thread
//! count — the sub-unit overlay changes scheduling only, never bytes.
//! The overlay is executed by the wave path alone: a one-thread replay
//! must run every recomputed front whole (no sub-unit dispatched, one
//! span per node), and a multi-thread replay must really dispatch
//! sub-units somewhere, or the sweep compares nothing.
//!
//! The sweep also pins the threshold boundary (a `min_dim` equal to the
//! widest front splits it, one more leaves the plan whole) and
//! non-default tile widths, so tile-geometry edge cases (ragged last
//! strip, tile == front, panel crossing a strip boundary) stay covered
//! at the full-engine level rather than only in the linalg unit tests.

use std::sync::Arc;

use supernova::datasets::Dataset;
use supernova::hw::Platform;
use supernova::linalg::NumericMode;
use supernova::runtime::CostModel;
use supernova::solvers::{RaIsam2Config, SolverEngine};
use supernova::sparse::{ParallelExecutor, SplitConfig};
use supernova_analyze::validate_host_schedule;

/// Datasets chosen so every one carries fronts past the default split
/// threshold by the end of its replay (CAB1 needs the 0.3 scale; at 0.2
/// its widest front is 78 < 96 and the plan stays whole).
fn sweep_datasets() -> Vec<Dataset> {
    vec![
        Dataset::m3500_scaled(0.06),
        Dataset::sphere_scaled(0.12),
        Dataset::cab1_scaled(0.3),
    ]
}

/// Replays `ds` under the given (mode, threads, split) configuration,
/// validating every step's host schedule against its plan. Returns the
/// final factor bytes, the final plan's sub-unit count, and the most
/// sub-units any one step's schedule dispatched.
fn run(
    ds: &Dataset,
    mode: NumericMode,
    threads: usize,
    split: SplitConfig,
) -> (Vec<u8>, usize, usize) {
    let cost = Arc::new(CostModel::new(Platform::supernova(2)));
    let mut engine = SolverEngine::new(RaIsam2Config::default(), cost);
    engine.set_executor(ParallelExecutor::new(threads).with_numeric(mode));
    engine.set_split_config(split);
    let mut sched_units = 0;
    for step in ds.online_steps() {
        let trace = engine.step(step.truth, step.factors);
        let core = engine.solver().core();
        if let (Some(plan), Some(sched)) = (core.plan(), core.last_host_schedule()) {
            let recomputed: Vec<usize> = trace.nodes.iter().map(|n| n.node).collect();
            let violations = validate_host_schedule(plan, sched, &recomputed);
            assert!(
                violations.is_empty(),
                "{} ({mode}, {threads} threads, split {split:?}): invalid schedule: {violations:?}",
                ds.name()
            );
            if threads == 1 {
                assert_eq!(
                    (sched.split_units, sched.spans.len()),
                    (0, recomputed.len()),
                    "{} ({mode}, split {split:?}): one worker must run whole fronts",
                    ds.name()
                );
            }
            sched_units = sched_units.max(sched.split_units);
        }
    }
    let plan_units = engine
        .solver()
        .core()
        .plan()
        .map(|p| p.num_units())
        .unwrap_or(0);
    let bytes = engine
        .numeric_bytes()
        .unwrap_or_else(|| panic!("{}: no numeric cache after replay", ds.name()));
    (bytes, plan_units, sched_units)
}

#[test]
fn split_factors_match_unsplit_serial_oracle_in_every_mode() {
    for ds in sweep_datasets() {
        for mode in NumericMode::ALL {
            let (oracle, oracle_units, _) = run(&ds, mode, 1, SplitConfig::off());
            assert_eq!(
                oracle_units,
                0,
                "{}: split-off plan must carry no unit overlay",
                ds.name()
            );
            for threads in [1usize, 2, 4, 8] {
                let (bytes, plan_units, sched_units) = run(&ds, mode, threads, SplitConfig::on());
                assert!(
                    plan_units > 0,
                    "{}: final plan must split under the default config",
                    ds.name()
                );
                assert_eq!(
                    bytes,
                    oracle,
                    "{} [{mode}] at {threads} threads: split bytes differ from unsplit serial",
                    ds.name()
                );
                // With a second worker the overlay must have engaged
                // somewhere in the replay (a step that only touched
                // narrow fronts, or one front, legitimately reports 0).
                assert_eq!(
                    sched_units > 0,
                    threads > 1,
                    "{} [{mode}] at {threads} threads: sub-units dispatched",
                    ds.name()
                );
            }
        }
    }
}

#[test]
fn split_threshold_boundary_is_exact_at_the_engine_level() {
    // M3500 at 0.06 ends with a widest front of 117 columns: a split
    // threshold of exactly 117 must split it, 118 must not, and both
    // configurations must reproduce the oracle bytes.
    let ds = Dataset::m3500_scaled(0.06);
    let mode = NumericMode::F64;
    let (oracle, _, _) = run(&ds, mode, 1, SplitConfig::off());

    let widest = {
        let cost = Arc::new(CostModel::new(Platform::supernova(2)));
        let mut engine = SolverEngine::new(RaIsam2Config::default(), cost);
        for step in ds.online_steps() {
            engine.step(step.truth, step.factors);
        }
        engine
            .solver()
            .core()
            .plan()
            .expect("plan after replay")
            .tasks()
            .iter()
            .map(|t| t.front_dim())
            .max()
            .expect("non-empty plan")
    };

    let (at, at_units, _) = run(&ds, mode, 4, SplitConfig::on().with_min_dim(widest));
    assert!(at_units > 0, "threshold == widest front must split it");
    assert_eq!(at, oracle, "split at threshold boundary changed bytes");

    let (above, above_units, _) = run(&ds, mode, 4, SplitConfig::on().with_min_dim(widest + 1));
    assert_eq!(
        above_units, 0,
        "threshold above widest front must not split"
    );
    assert_eq!(above, oracle, "unsplit-by-threshold plan changed bytes");
}

#[test]
fn nondefault_tile_widths_stay_byte_identical() {
    // Wider tiles change strip geometry (ragged last strip, panels per
    // strip) but may never change bytes. 96 = two panels per strip;
    // 144 = three, usually leaving a ragged tail strip.
    let ds = Dataset::sphere_scaled(0.12);
    for mode in [NumericMode::F64, NumericMode::F32F64] {
        let (oracle, _, _) = run(&ds, mode, 1, SplitConfig::off());
        for tile in [96usize, 144] {
            let (bytes, units, _) = run(&ds, mode, 4, SplitConfig::on().with_tile(tile));
            assert!(units > 0, "tile {tile}: sphere plan must still split");
            assert_eq!(
                bytes, oracle,
                "[{mode}] tile {tile}: split bytes differ from unsplit serial"
            );
        }
    }
}
