//! Replays of the layers' pure public functions on the state a solver
//! leaves behind: the symbolic / plan / certify chain `analyze` runs, one
//! linearization sweep, and the dense kernels at the plan's front shapes.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use supernova_factors::linearize;
use supernova_linalg::{
    cholesky_in_place_scratch, gemm_scratch, partial_cholesky_scratch, syrk_lower_scratch,
    trsm_right_lower_transpose_scratch, KernelScratch, Mat, Transpose,
};
use supernova_solvers::IncrementalCore;
use supernova_sparse::{interference, BlockPattern, ExecutionPlan, SymbolicFactor};

use crate::spans::Tracer;
use crate::stats;
use crate::workloads::Layer;

/// Supernode amalgamation slack of `Isam2Config` / `RaIsam2Config`.
pub const RELAX: usize = 1;

/// Fill ratio above which `Isam2` reorders (crate-private there). The
/// phase driver's byte-identity check against `Isam2::step` fails if it
/// drifts.
pub const REORDER_FILL_RATIO: f64 = 5.0;

/// The core's Hessian block pattern in elimination order, rebuilt from its
/// factor graph (the core's own copy is private).
pub fn pattern_of(core: &IncrementalCore) -> BlockPattern {
    let mut dims = vec![0usize; core.num_vars()];
    for (key, var) in core.theta().iter() {
        dims[core.block_of_key(key)] = var.dim();
    }
    let mut pattern = BlockPattern::new(dims);
    for (_, factor) in core.graph().iter() {
        let blocks: Vec<usize> = factor
            .keys()
            .iter()
            .map(|&k| core.block_of_key(k))
            .collect();
        pattern.add_clique(&blocks);
    }
    pattern
}

/// Replays what `IncrementalCore::analyze` rebuilds every online step, one
/// span per function.
pub fn replay_analyze(core: &IncrementalCore, tracer: &mut Tracer, op: usize) {
    let pattern = pattern_of(core);
    let sym = tracer.span("symbolic", "sparse", op, || {
        SymbolicFactor::analyze(&pattern, RELAX)
    });
    let plan = tracer.span("plan", "sparse", op, || {
        ExecutionPlan::from_symbolic_with_split(&sym, core.split_config())
    });
    let cert = tracer.span("certify", "sparse", op, || interference::certify(&plan));
    black_box(cert.is_ok());
}

/// One `linearize` sweep over the core's graph at its current estimate.
pub fn linearize_sweep(core: &IncrementalCore, layer: &mut Layer) {
    let estimate = core.estimate();
    let t0 = Instant::now();
    let elems: usize = core
        .graph()
        .iter()
        .map(|(_, f)| black_box(linearize(f, &estimate)).jacobian_elems())
        .sum();
    let ns = t0.elapsed().as_nanos() as f64;
    let count = core.graph().len();
    layer.insert("factors.linearize_ns_per_factor", ns / count.max(1) as f64);
    layer.insert("factors.count", count as f64);
    layer.insert("factors.jacobian_elems", elems as f64);
}

/// A symmetric positive-definite `n × n` matrix.
fn spd(n: usize) -> Mat {
    Mat::from_fn(n, n, |i, j| {
        let off = 1.0 / (1.0 + i.abs_diff(j) as f64);
        if i == j {
            n as f64 + 1.0
        } else {
            off
        }
    })
}

fn dense(rows: usize, cols: usize) -> Mat {
    Mat::from_fn(rows, cols, |i, j| {
        0.5 + ((i * 31 + j * 17) % 13) as f64 / 13.0
    })
}

/// Times one call of `kernel` on a fresh copy of `input` — best of three
/// batches, each large enough to dwarf the clock reads — and adds `weight`
/// such calls' flops and seconds to `total`.
fn time_kernel<T: Clone>(
    total: &mut (f64, f64),
    weight: f64,
    input: &T,
    flops: f64,
    mut kernel: impl FnMut(&mut T),
) {
    let batch = ((200_000.0 / flops.max(1.0)) as usize).clamp(1, 256);
    let seconds = (0..3)
        .map(|_| {
            let mut copies = vec![input.clone(); batch];
            let t0 = Instant::now();
            for c in &mut copies {
                kernel(c);
            }
            let dt = t0.elapsed().as_secs_f64();
            black_box(&copies);
            dt / batch as f64
        })
        .fold(f64::INFINITY, f64::min);
    total.0 += weight * flops;
    total.1 += weight * seconds;
}

/// GFLOP/s of a multiply-add loop over sixteen independent accumulators
/// that stay in registers: what this build, on this host, in this run, can
/// retire when nothing waits for memory.
fn peak_gflops() -> f64 {
    const ITERS: u64 = 4_000_000;
    (0..3)
        .map(|_| {
            let mut acc = [1.0f64; 16];
            let mul = black_box([1.000_000_1f64; 16]);
            let add = black_box([1e-9f64; 16]);
            let t0 = Instant::now();
            for _ in 0..ITERS {
                for k in 0..16 {
                    acc[k] = acc[k] * mul[k] + add[k];
                }
            }
            let dt = t0.elapsed().as_secs_f64();
            black_box(acc);
            (2 * 16 * ITERS) as f64 / dt / 1e9
        })
        .fold(0.0, f64::max)
}

/// The kernel section: every distinct front shape `(pivot_dim, rem_dim)`
/// of `plan`, weighted by how many tasks have it. A rate is total flops
/// over total seconds, so big fronts weigh by the work they are.
pub fn kernel_section(plan: &ExecutionPlan, layer: &mut Layer) {
    let mut shapes: BTreeMap<(usize, usize), usize> = BTreeMap::new();
    for t in plan.tasks() {
        *shapes.entry((t.pivot_dim, t.rem_dim)).or_default() += 1;
    }
    let mut scratch = KernelScratch::new();
    // Per kernel: (flops, seconds), summed over shapes.
    let mut totals = [(0.0f64, 0.0f64); 5];
    let mut bytes = 0.0f64;
    for (&(p, r), &count) in &shapes {
        let weight = count as f64;
        let n = p + r;
        let front = spd(n);

        // Σ_{k<p} (n−k)² multiply-adds at two flops each, halved for the
        // triangle: n²p − np² + p³/3.
        let (nf, pf) = (n as f64, p as f64);
        let front_flops = nf * nf * pf - nf * pf * pf + pf * pf * pf / 3.0;
        time_kernel(&mut totals[0], weight, &front, front_flops, |f| {
            partial_cholesky_scratch(f, p, &mut scratch).expect("spd front");
        });
        // The front is read and written once.
        bytes += weight * 2.0 * (n * n * 8) as f64;

        let pivot = spd(p);
        let potrf_flops = (p * p * p) as f64 / 3.0;
        time_kernel(&mut totals[1], weight, &pivot, potrf_flops, |a| {
            cholesky_in_place_scratch(a, &mut scratch).expect("spd pivot");
        });
        if r == 0 {
            continue;
        }

        let mut l = pivot.clone();
        cholesky_in_place_scratch(&mut l, &mut scratch).expect("spd pivot");
        let below = dense(r, p);
        let trsm_flops = (r * p * p) as f64;
        time_kernel(&mut totals[2], weight, &below, trsm_flops, |b| {
            trsm_right_lower_transpose_scratch(&l, b, &mut scratch);
        });

        let update = spd(r);
        let syrk_flops = (r * (r + 1) * p) as f64;
        time_kernel(&mut totals[3], weight, &update, syrk_flops, |c| {
            syrk_lower_scratch(-1.0, &below, 1.0, c, &mut scratch);
        });

        let gemm_flops = (2 * r * r * p) as f64;
        time_kernel(&mut totals[4], weight, &update, gemm_flops, |c| {
            gemm_scratch(
                -1.0,
                &below,
                Transpose::No,
                &below,
                Transpose::Yes,
                1.0,
                c,
                &mut scratch,
            );
        });
    }
    let gflops = |(flops, seconds): (f64, f64)| {
        if seconds > 0.0 {
            flops / seconds / 1e9
        } else {
            0.0
        }
    };
    let peak = peak_gflops();
    layer.insert("linalg.peak_gflops", peak);
    layer.insert("linalg.front_gflops", gflops(totals[0]));
    layer.insert("linalg.potrf_gflops", gflops(totals[1]));
    layer.insert("linalg.trsm_gflops", gflops(totals[2]));
    layer.insert("linalg.syrk_gflops", gflops(totals[3]));
    layer.insert("linalg.gemm_gflops", gflops(totals[4]));
    layer.insert("linalg.roofline_frac", gflops(totals[0]) / peak);
    // Computed from the shapes, not measured.
    layer.insert("linalg.flops_per_byte", totals[0].0 / bytes.max(1.0));
    let dims: Vec<f64> = plan.tasks().iter().map(|t| t.front_dim() as f64).collect();
    layer.insert("linalg.front_dim_p50", stats::p50(&dims));
    layer.insert("linalg.front_dim_max", stats::percentile(&dims, 1.0));
}
