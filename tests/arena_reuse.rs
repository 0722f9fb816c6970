//! Integration tests for the pooled factorization workspaces: once the
//! executor's scratch arenas have seen the workload, replaying it must
//! perform zero further arena growth (the zero-alloc steady state of the
//! multifrontal hot path), and pre-sized arenas must be a pure
//! optimization — bit-for-bit invisible in the results.
//!
//! Both properties are checked on a real 200-step seeded Manhattan
//! replay through the full solver engine, not on synthetic plans. The
//! graph (and with it the largest front) grows throughout an online SLAM
//! run, so the arenas legitimately grow during the first, cold pass;
//! "after warm-up" means a second pass over the same sequence on the
//! now-warm pool, which must be allocation-free at every step.

use std::sync::Arc;

use supernova_datasets::Dataset;
use supernova_factors::{Values, Variable};
use supernova_hw::Platform;
use supernova_runtime::CostModel;
use supernova_solvers::{RaIsam2Config, SolverEngine};
use supernova_sparse::{ParallelExecutor, PoolStats};

const REPLAY_STEPS: usize = 200;
const SEED: u64 = 0x0a2e_a5ee;

/// Replays `REPLAY_STEPS` Manhattan steps through an engine using
/// `exec`, returning the final estimate and the executor pool statistics
/// snapshot taken after every step.
fn replay(exec: ParallelExecutor) -> (Values, Vec<PoolStats>) {
    let cost = Arc::new(CostModel::new(Platform::supernova(2)));
    let mut engine = SolverEngine::new(RaIsam2Config::default(), cost);
    engine.set_executor(exec);
    let ds = Dataset::manhattan_seeded(REPLAY_STEPS + 2, SEED);
    let mut stats = Vec::with_capacity(REPLAY_STEPS);
    for step in ds.online_steps().into_iter().take(REPLAY_STEPS) {
        engine.step(step.truth, step.factors);
        stats.push(engine.executor().pool_stats());
    }
    (engine.estimate(), stats)
}

/// Exact (bitwise) equality of two estimates. `Variable` derives
/// `PartialEq`, which on `f64` fields is exact comparison, so
/// `assert_eq!` on the variables is already bit-identity for non-NaN
/// states; the explicit `to_bits` pass on planar poses makes the intent
/// unmissable and catches negative-zero asymmetries too.
fn assert_bit_identical(a: &Values, b: &Values) {
    assert_eq!(a.len(), b.len(), "estimate sizes differ");
    for (k, va) in a.iter() {
        let vb = b.get(k);
        assert_eq!(va, vb, "estimates differ at {k}");
        if let (Variable::Se2(pa), Variable::Se2(pb)) = (va, vb) {
            assert_eq!(pa.x().to_bits(), pb.x().to_bits(), "x bits at {k}");
            assert_eq!(pa.y().to_bits(), pb.y().to_bits(), "y bits at {k}");
            assert_eq!(
                pa.theta().to_bits(),
                pb.theta().to_bits(),
                "theta bits at {k}"
            );
        }
    }
}

/// Cold pass then warm pass. The cold pass may grow the arena
/// (monotonically — the high-water mark never regresses); the warm pass
/// must show the exact end-of-cold-pass pool statistics after every single
/// step: no reallocation, no new workspaces, no high-water movement. And
/// the warm pass — running on a pre-sized arena instead of a lazily-grown
/// one — must produce a bit-identical estimate.
#[test]
fn warm_replay_is_allocation_free_and_bit_identical() {
    let exec = ParallelExecutor::default();
    assert_eq!(
        exec.pool_stats(),
        PoolStats {
            workspaces: 1,
            ..PoolStats::default()
        },
        "fresh pool: one empty workspace, nothing grown"
    );

    // Clones share the workspace pool: the warm pass starts with the
    // arena the cold pass grew.
    let (cold_estimate, cold_stats) = replay(exec.clone());
    let end = *cold_stats.last().expect("cold pass produced steps");
    assert!(
        end.high_water_elems > 0,
        "replay never exercised the packed kernels"
    );
    for w in cold_stats.windows(2) {
        assert!(
            w[1].high_water_elems >= w[0].high_water_elems
                && w[1].grow_events >= w[0].grow_events
                && w[1].workspaces >= w[0].workspaces,
            "pool statistics regressed mid-replay"
        );
    }

    let (warm_estimate, warm_stats) = replay(exec);
    for (i, s) in warm_stats.iter().enumerate() {
        assert_eq!(
            *s,
            end,
            "warm replay grew an arena at step {} (cold end {end:?})",
            i + 1
        );
    }

    assert_bit_identical(&cold_estimate, &warm_estimate);
}
