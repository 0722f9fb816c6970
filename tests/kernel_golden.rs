//! The cross-version golden for the dense kernels' absolute bits.

use supernova::datasets::Dataset;
use supernova::factors::Key;
use supernova::solvers::IncrementalCore;
use supernova_trace::wire::{fnv1a, FNV_OFFSET};

/// Bulk-builds a Sphere graph from dead-reckoned guesses, reorders it once
/// (minimum degree), relinearizes every variable and runs one all-dirty
/// `factorize_and_solve` — the `sphere_refactor` benchmark's path. Returns
/// an FNV-1a hash of the factor bytes followed by every update step's f64
/// bits, and the widest front and pivot block of the plan.
fn refactor_fingerprint() -> (u64, usize, usize) {
    let ds = Dataset::sphere_seeded(120, 7);
    let (_, values) = ds.full_graph();
    let mut core = IncrementalCore::new(1);
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

/// The golden runs the path that reaches the packed GEMM / SYRK / TRSM
/// and the blocked Cholesky: an all-dirty factorization whose fronts are
/// wider than the 48-column Cholesky panel. Kernel tile shapes and the
/// instruction set the workspace is compiled for must not move a bit
/// here; regenerate the constant only with a change that moves bits on
/// purpose.
#[test]
fn refactor_numerics_match_committed_golden() {
    let (h, front, pivots) = refactor_fingerprint();
    assert!(
        front > 48 && pivots > 48,
        "widest front {front}, widest pivot block {pivots} must exceed one panel"
    );
    assert_eq!(h, 0xbdcf_c9dc_ad0a_e06b, "refactor fingerprint: {h:#018x}");
}
