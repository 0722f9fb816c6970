//! End-to-end checks of the runtime-selectable numeric modes: a narrow
//! mode must genuinely change the arithmetic (bit-level divergence from
//! f64), stay deterministic within itself, and cost almost nothing in
//! trajectory accuracy (the gate `numeric_ape` applies at CI scale).

use supernova::datasets::Dataset;
use supernova::factors::{Key, Values};
use supernova::linalg::NumericMode;
use supernova::metrics::{ape, ApeStats};
use supernova::solvers::{IncrementalCore, Isam2, Isam2Config, OnlineSolver};
use supernova::sparse::ParallelExecutor;
use supernova_trace::wire::{fnv1a, FNV_OFFSET};

fn replay(dataset: &Dataset, mode: NumericMode, threads: usize) -> (Values, Vec<u8>) {
    let mut solver = Isam2::new(Isam2Config::default());
    solver
        .core_mut()
        .set_executor(ParallelExecutor::new(threads).with_numeric(mode));
    for step in &dataset.online_steps() {
        solver.step(step.truth.clone(), step.factors.clone());
    }
    let bytes = solver.core().numeric_bytes().unwrap_or_default();
    (solver.core().estimate(), bytes)
}

fn truth_values(dataset: &Dataset) -> Values {
    let mut truth = Values::new();
    for v in dataset.ground_truth() {
        truth.insert(v.clone());
    }
    truth
}

#[test]
fn narrow_mode_ape_stays_close_to_f64() {
    let ds = Dataset::manhattan_seeded(60, 9);
    let truth = truth_values(&ds);
    let (est64, bytes64) = replay(&ds, NumericMode::F64, 2);
    let wide: ApeStats = ape(&est64, &truth);
    assert!(wide.rmse.is_finite() && wide.count == 60);
    let mode = NumericMode::F32;
    let (est, bytes) = replay(&ds, mode, 2);
    // The mode must actually reach the kernels: narrow factors round
    // where f64 does not.
    assert_ne!(bytes, bytes64, "{mode} factor is bitwise f64");
    // ...but the rounding must not steer the optimizer anywhere else.
    // Same documented bound as the `numeric_ape` CI gate.
    let narrow = ape(&est, &truth);
    assert!(
        narrow.rmse <= wide.rmse * 1.5 + 1e-3,
        "{mode} RMSE {} vs f64 {}",
        narrow.rmse,
        wide.rmse
    );
    assert!(
        narrow.max <= wide.max * 1.5 + 1e-3,
        "{mode} MAX {} vs f64 {}",
        narrow.max,
        wide.max
    );
}

#[test]
fn narrow_modes_deterministic_across_thread_counts() {
    let ds = Dataset::manhattan_seeded(40, 21);
    let mode = NumericMode::F32;
    let (est1, bytes1) = replay(&ds, mode, 1);
    for threads in [2usize, 4, 8] {
        let (est, bytes) = replay(&ds, mode, threads);
        assert_eq!(bytes, bytes1, "{mode} at {threads} threads diverged");
        assert_eq!(est, est1, "{mode} estimate at {threads} threads diverged");
    }
}

#[test]
fn mode_change_invalidates_numeric_cache() {
    let ds = Dataset::manhattan_seeded(20, 3);
    let mut solver = Isam2::new(Isam2Config::default());
    for step in &ds.online_steps() {
        solver.step(step.truth.clone(), step.factors.clone());
    }
    assert!(solver.core().has_numeric_cache());
    solver.core_mut().set_numeric_mode(NumericMode::F32);
    assert_eq!(solver.core().numeric_mode(), NumericMode::F32);
    assert!(
        !solver.core().has_numeric_cache(),
        "switching precision must drop the cached factor"
    );
    // Setting the already-active mode keeps whatever cache exists.
    solver.core_mut().set_numeric_mode(NumericMode::F32);
    assert_eq!(solver.core().numeric_mode(), NumericMode::F32);
}

/// Bulk-builds a Sphere graph from dead-reckoned guesses, reorders it once
/// (minimum degree), relinearizes every variable and runs one all-dirty
/// `factorize_and_solve` under `mode` — the `sphere_refactor` benchmark's
/// path. Returns an FNV-1a hash of the factor bytes followed by every
/// update step's f64 bits, and the widest front and pivot block of the
/// plan.
fn refactor_fingerprint(mode: NumericMode) -> (u64, usize, usize) {
    let ds = Dataset::sphere_seeded(120, 7);
    let (_, values) = ds.full_graph();
    let mut core = IncrementalCore::new(1);
    core.set_executor(ParallelExecutor::new(1).with_numeric(mode));
    for ((_, guess), step) in values.iter().zip(ds.online_steps()) {
        core.add_variable(guess.clone());
        for f in step.factors {
            core.add_factor(f);
        }
    }
    core.analyze();
    let plan = core.reorder_candidate().expect("non-empty graph");
    core.apply_reorder(plan);
    core.analyze();
    let all: Vec<Key> = (0..core.num_vars()).map(Key).collect();
    core.relinearize_vars(&all);
    core.factorize_and_solve();
    let mut h = fnv1a(FNV_OFFSET, &core.numeric_bytes().expect("solved"));
    for &k in &all {
        for x in core.delta_of(k) {
            h = fnv1a(h, &x.to_bits().to_le_bytes());
        }
    }
    let tasks = core.plan().expect("analyzed").tasks();
    let front = tasks.iter().map(|t| t.front_dim()).max().unwrap_or(0);
    let pivots = tasks.iter().map(|t| t.pivot_dim).max().unwrap_or(0);
    (h, front, pivots)
}

/// The cross-version golden for the dense kernels' absolute bits in every
/// numeric mode, on the path that reaches the packed GEMM / SYRK / TRSM
/// and the blocked Cholesky: an all-dirty factorization whose fronts are
/// wider than the 48-column Cholesky panel. Kernel tile shapes and the
/// instruction set the workspace is compiled for must not move a bit
/// here; regenerate the constants only with a change that moves bits on
/// purpose.
#[test]
fn refactor_numerics_match_committed_golden() {
    let got = NumericMode::ALL.map(|mode| {
        let (h, front, pivots) = refactor_fingerprint(mode);
        assert!(
            front > 48 && pivots > 48,
            "{mode}: widest front {front}, widest pivot block {pivots} must exceed one panel"
        );
        h
    });
    assert_eq!(
        got,
        [0xbdcf_c9dc_ad0a_e06b, 0xc38b_4a19_4a42_a9ff],
        "[f64, f32] refactor fingerprints: {got:#018x?}"
    );
}
