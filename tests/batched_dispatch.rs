//! Integration tests for certificate-gated batched dispatch: on every
//! seeded dataset, the level-batched executor path must produce
//! bit-identical numeric factors to the serial path at every thread
//! count, every batched schedule must pass the host-schedule validator,
//! and the certificate gate must select the expected mode — waves with a
//! covering proof, inline on the calling thread without one.

use std::sync::Arc;

use supernova::datasets::Dataset;
use supernova::hw::Platform;
use supernova::linalg::Mat;
use supernova::runtime::CostModel;
use supernova::solvers::{RaIsam2Config, SolverEngine};
use supernova::sparse::{
    interference, BlockMat, DispatchMode, ExecutionPlan, NumericFactor, ParallelExecutor,
};
use supernova_analyze::validate_host_schedule;

fn sweep_datasets() -> Vec<Dataset> {
    vec![
        Dataset::m3500_scaled(0.06),
        Dataset::sphere_scaled(0.12),
        Dataset::cab1_scaled(0.2),
    ]
}

/// What one replay of a dataset left behind.
struct Replay {
    /// Final numeric factor bytes.
    bytes: Vec<u8>,
    /// Dispatch mode of every step's host schedule.
    modes: Vec<DispatchMode>,
    /// The plan of the final step, with the block dimensions it covers.
    plan: ExecutionPlan,
    block_dims: Vec<usize>,
}

/// Replays `ds` through the incremental engine on `threads` executor
/// workers, validating each step's schedule against its plan along the
/// way.
fn run(ds: &Dataset, threads: usize) -> Replay {
    let cost = Arc::new(CostModel::new(Platform::supernova(2)));
    let mut engine = SolverEngine::new(RaIsam2Config::default(), cost);
    engine.set_executor(ParallelExecutor::new(threads));
    let mut modes = Vec::new();
    for step in ds.online_steps() {
        let trace = engine.step(step.truth, step.factors);
        let core = engine.solver().core();
        if let (Some(plan), Some(sched)) = (core.plan(), core.last_host_schedule()) {
            let recomputed: Vec<usize> = trace.nodes.iter().map(|n| n.node).collect();
            let violations = validate_host_schedule(plan, sched, &recomputed);
            assert!(
                violations.is_empty(),
                "{} ({threads} threads): invalid schedule: {violations:?}",
                ds.name()
            );
            // Several workers run a step inline only when it recomputes at
            // most one task; anything else means the step's plan escaped
            // certification — a correctness regression, not noise.
            assert!(
                threads == 1 || sched.mode == DispatchMode::LevelBatched || recomputed.len() <= 1,
                "{} ({threads} threads): a {}-task step ran inline",
                ds.name(),
                recomputed.len()
            );
            modes.push(sched.mode);
        }
    }
    let core = engine.solver().core();
    Replay {
        bytes: engine
            .numeric_bytes()
            .unwrap_or_else(|| panic!("{}: no numeric cache after replay", ds.name())),
        modes,
        plan: core.plan().expect("replay analyzed a plan").clone(),
        block_dims: core
            .symbolic()
            .expect("replay analyzed a plan")
            .block_dims()
            .to_vec(),
    }
}

#[test]
fn batched_dispatch_is_bit_identical_across_thread_counts() {
    for ds in sweep_datasets() {
        let serial = run(&ds, 1);
        assert!(
            serial.modes.iter().all(|&m| m == DispatchMode::Serial),
            "{}: single-thread executor must stay serial",
            ds.name()
        );
        for threads in [2usize, 4, 8] {
            let batched = run(&ds, threads);
            assert_eq!(
                batched.bytes,
                serial.bytes,
                "{} at {threads} threads: batched factor bytes diverge from serial",
                ds.name()
            );
            assert!(
                batched.modes.contains(&DispatchMode::LevelBatched),
                "{} at {threads} threads: no step used batched dispatch (modes: {:?})",
                ds.name(),
                batched.modes
            );
        }
    }
}

/// A diagonally dominant SPD system over `plan`'s own fill pattern: one
/// block per front row of every owned column, so every block lands inside
/// its task's front.
fn spd_over(plan: &ExecutionPlan, block_dims: &[usize]) -> BlockMat {
    let mut h = BlockMat::new(block_dims.to_vec());
    for task in plan.tasks() {
        for j in task.cols() {
            for &(i, _) in task.row_offsets.iter().filter(|&&(i, _)| i > j) {
                let m = Mat::from_fn(block_dims[i], block_dims[j], |r, c| {
                    1e-4 * ((r + 2 * c + i + j) % 7) as f64
                });
                h.add_to_block(i, j, &m);
            }
            h.add_to_block(j, j, &Mat::from_diag(&vec![4.0; block_dims[j]]));
        }
    }
    h
}

/// The executor dispatches across workers only with the proof in hand: a
/// multi-worker executor handed no certificate, or one computed from
/// another plan, runs each dataset's final plan inline — stamped serial,
/// one worker — and its factor bytes match both the serial executor's and
/// the certified wave run's.
#[test]
fn uncertified_multiworker_execution_runs_inline_and_stays_bit_identical() {
    let replays: Vec<(Dataset, Replay)> = sweep_datasets()
        .into_iter()
        .map(|ds| {
            let replay = run(&ds, 1);
            (ds, replay)
        })
        .collect();
    for (k, (ds, replay)) in replays.iter().enumerate() {
        let plan = &replay.plan;
        let h = spd_over(plan, &replay.block_dims);
        let all: Vec<usize> = (0..plan.num_blocks()).collect();
        let factor = |exec: ParallelExecutor, cert| {
            let mut num = NumericFactor::empty(plan);
            let (_, sched) = num
                .execute_plan_certified(plan, &h, &all, &exec, cert)
                .unwrap_or_else(|e| panic!("{}: SPD fixture failed: {e}", ds.name()));
            (num.serialize_bytes(), sched)
        };
        let (serial_bytes, _) = factor(ParallelExecutor::serial(), None);

        let own = interference::certify(plan).expect("dataset plan certifies");
        let (bytes, sched) = factor(ParallelExecutor::new(4), Some(&own));
        assert_eq!(sched.mode, DispatchMode::LevelBatched, "{}", ds.name());
        assert!(sched.workers > 1, "{}", ds.name());
        assert_eq!(bytes, serial_bytes, "{}: certified run diverged", ds.name());

        // The next dataset's proof is a valid certificate — of another plan.
        let other = &replays[(k + 1) % replays.len()].1.plan;
        let foreign = interference::certify(other).expect("dataset plan certifies");
        assert!(!foreign.covers(plan));
        for (label, cert) in [("no", None), ("a foreign", Some(&foreign))] {
            let (bytes, sched) = factor(ParallelExecutor::new(4), cert);
            assert_eq!(
                (sched.mode, sched.workers),
                (DispatchMode::Serial, 1),
                "{}: {label} certificate must mean inline execution",
                ds.name()
            );
            assert_eq!(
                bytes,
                serial_bytes,
                "{}: factor bytes with {label} certificate diverge from serial",
                ds.name()
            );
        }
    }
}
