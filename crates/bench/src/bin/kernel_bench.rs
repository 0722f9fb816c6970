//! `kernel_bench` — throughput of the blocked dense kernels vs. the
//! unblocked reference implementations they replaced.
//!
//! ```text
//! cargo run --release -p supernova-bench --bin kernel_bench
//! ```
//!
//! Times GEMM, SYRK and TRSM at the SLAM-typical square sizes 3, 6, 12,
//! 30 and 60 plus the mixed panel shapes the multifrontal factorization
//! actually issues, and writes `results/BENCH_kernels.json` with, per
//! case:
//!
//! - GFLOP/s of the blocked `_scratch` kernel (warm [`KernelScratch`],
//!   the hot-path configuration) and of the seed-era reference kernel;
//! - `speedup_vs_reference`, measured in the same process run so host
//!   noise cancels — this ratio is what `bench_check` gates on, against
//!   the `min_speedup` floor recorded in the committed baseline;
//! - the per-call flop count (a pure function of the shape; gated
//!   exactly) and the worst absolute element difference between the two
//!   kernels' outputs (a cheap cross-check, not a substitute for the
//!   property tests in `crates/linalg/tests/proptests.rs`).
//!
//! The header records `host_cpus` and `target_features` — whether the
//! binary was compiled with SSE4.2, AVX, AVX2 and FMA enabled — so a
//! baseline-ISA build (a `RUSTFLAGS` override of `.cargo/config.toml`)
//! cannot pass for the x86-64-v3 one.
//!
//! Timing interleaves blocked and reference trials of a calibrated
//! repetition loop and gates on the median of the per-trial ratios, so
//! host frequency drift cancels within each adjacent pair and a
//! preempted trial is discarded outright; the reported GFLOP/s are the
//! per-side bests across trials. TRSM solves in
//! place, so its timed loop restores the right-hand side before every
//! call — both sides pay the identical copy, leaving the gated ratio
//! fair (absolute TRSM GFLOP/s at tiny sizes is understated).

use std::time::Instant;

use supernova_linalg::rng::XorShift64;
use supernova_linalg::{
    gemm_f32, gemm_scratch, pack_elems_bound, pack_elems_bound_mode, reference, syrk_lower_f32,
    syrk_lower_scratch, trsm_right_lower_transpose_f32, trsm_right_lower_transpose_scratch,
    KernelScratch, Mat, NumericMode, Transpose,
};
use supernova_trace::json::Json;

/// Which kernel a case exercises.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Kernel {
    Gemm,
    Syrk,
    Trsm,
}

impl Kernel {
    fn id(self) -> &'static str {
        match self {
            Kernel::Gemm => "gemm",
            Kernel::Syrk => "syrk",
            Kernel::Trsm => "trsm",
        }
    }
}

/// One benchmark case: a kernel at one operand shape and numeric width,
/// with the speedup floor `bench_check` holds the committed baseline to.
///
/// `F64`-width cases time the blocked kernel against the seed-era naive
/// reference; `F32`-width cases time the f32 engine against the **blocked
/// f64 kernel** at the same shape — so their `speedup_vs_reference` is the
/// per-width throughput ratio the paper's FP32-datapath claim rests on.
struct Case {
    name: String,
    kernel: Kernel,
    width: NumericMode,
    m: usize,
    n: usize,
    k: usize,
    min_speedup: f64,
}

/// Multiply-add flops per call (MAC = 2 flops), matching the
/// `KernelScratch` meter's convention.
fn flops_per_call(c: &Case) -> u64 {
    match c.kernel {
        Kernel::Gemm => 2 * (c.m * c.n * c.k) as u64,
        Kernel::Syrk => (c.n * (c.n + 1) * c.k) as u64,
        Kernel::Trsm => (c.m * c.n * c.n) as u64,
    }
}

/// A well-conditioned lower-triangular matrix (unit-ish diagonal, small
/// off-diagonal entries) so repeated TRSM solves stay in normal range.
fn lower_triangular(n: usize) -> Mat {
    Mat::from_fn(n, n, |r, c| {
        if r == c {
            1.5 + 0.1 * (r % 7) as f64
        } else if r > c {
            0.3 * ((r * 5 + c * 3) % 7) as f64 / 7.0 - 0.15
        } else {
            0.0
        }
    })
}

/// Times `reps` calls of each body over seven *interleaved* trials
/// (blocked, reference, blocked, …) and returns the best wall seconds
/// per side plus the gated speedup. The speedup is the **median of the
/// per-trial ratios**: each ratio pairs two adjacent-in-time segments,
/// so slow host-frequency drift cancels within the pair, and the median
/// discards the trials where a preemption hit one side — per-side
/// minima cannot do either, because they un-pair the measurements.
fn time_pair(reps: u64, mut blocked: impl FnMut(), mut reference: impl FnMut()) -> (f64, f64, f64) {
    const TRIALS: usize = 7;
    let mut best_blocked = f64::INFINITY;
    let mut best_reference = f64::INFINITY;
    let mut ratios = [0.0f64; TRIALS];
    for r in ratios.iter_mut() {
        let t0 = Instant::now();
        for _ in 0..reps {
            blocked();
        }
        let t_blocked = t0.elapsed().as_secs_f64();
        let t0 = Instant::now();
        for _ in 0..reps {
            reference();
        }
        let t_reference = t0.elapsed().as_secs_f64();
        best_blocked = best_blocked.min(t_blocked);
        best_reference = best_reference.min(t_reference);
        *r = t_reference / t_blocked.max(1e-12);
    }
    ratios.sort_by(|a, b| a.total_cmp(b));
    (best_blocked, best_reference, ratios[TRIALS / 2])
}

/// One measured case.
struct Measured {
    flops: u64,
    reps: u64,
    blocked_gflops: f64,
    reference_gflops: f64,
    speedup: f64,
    max_abs_diff: f64,
}

fn measure(case: &Case) -> Measured {
    let mut rng = XorShift64::seed_from_u64(
        0xbe_c000 + (case.m * 1_000_000 + case.n * 1_000 + case.k) as u64,
    );
    let flops = flops_per_call(case);
    // Calibrate repetitions to ~5e7 flops per trial so tiny kernels are
    // timed over many microseconds, not nanoseconds.
    let reps = (50_000_000 / flops.max(1)).clamp(4, 200_000);

    let envelope = case.m.max(case.n).max(case.k).max(case.m + case.k);
    let mut scratch = KernelScratch::with_capacity(pack_elems_bound(envelope));
    if case.width.is_narrow() {
        scratch.reserve_mode(case.width, pack_elems_bound_mode(envelope, case.width), 0);
        return measure_narrow(case, &mut rng, flops, reps, &mut scratch);
    }
    match case.kernel {
        Kernel::Gemm => {
            let a = Mat::from_fn(case.m, case.k, |_, _| rng.gen_range(-1.0, 1.0));
            let b = Mat::from_fn(case.k, case.n, |_, _| rng.gen_range(-1.0, 1.0));
            let mut c_blocked = Mat::zeros(case.m, case.n);
            let mut c_ref = Mat::zeros(case.m, case.n);
            let (t_blocked, t_ref, speedup) = time_pair(
                reps,
                || {
                    gemm_scratch(
                        1.0,
                        &a,
                        Transpose::No,
                        &b,
                        Transpose::No,
                        0.0,
                        &mut c_blocked,
                        &mut scratch,
                    );
                },
                || {
                    reference::gemm(1.0, &a, Transpose::No, &b, Transpose::No, 0.0, &mut c_ref);
                },
            );
            finish(flops, reps, t_blocked, t_ref, speedup, &c_blocked, &c_ref)
        }
        Kernel::Syrk => {
            let a = Mat::from_fn(case.n, case.k, |_, _| rng.gen_range(-1.0, 1.0));
            let mut c_blocked = Mat::zeros(case.n, case.n);
            let mut c_ref = Mat::zeros(case.n, case.n);
            let (t_blocked, t_ref, speedup) = time_pair(
                reps,
                || {
                    syrk_lower_scratch(1.0, &a, 0.0, &mut c_blocked, &mut scratch);
                },
                || {
                    reference::syrk_lower(1.0, &a, 0.0, &mut c_ref);
                },
            );
            finish(flops, reps, t_blocked, t_ref, speedup, &c_blocked, &c_ref)
        }
        Kernel::Trsm => {
            let l = lower_triangular(case.n);
            let b0 = Mat::from_fn(case.m, case.n, |_, _| rng.gen_range(-1.0, 1.0));
            let mut b_blocked = b0.clone();
            let mut b_ref = b0.clone();
            let (t_blocked, t_ref, speedup) = time_pair(
                reps,
                || {
                    b_blocked.as_mut_slice().copy_from_slice(b0.as_slice());
                    trsm_right_lower_transpose_scratch(&l, &mut b_blocked, &mut scratch);
                },
                || {
                    b_ref.as_mut_slice().copy_from_slice(b0.as_slice());
                    reference::trsm_right_lower_transpose(&l, &mut b_ref);
                },
            );
            finish(flops, reps, t_blocked, t_ref, speedup, &b_blocked, &b_ref)
        }
    }
}

fn finish(
    flops: u64,
    reps: u64,
    t_blocked: f64,
    t_ref: f64,
    speedup: f64,
    got: &Mat,
    want: &Mat,
) -> Measured {
    let max_abs_diff = got
        .as_slice()
        .iter()
        .zip(want.as_slice())
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, f64::max);
    let gflops = |t: f64| (flops * reps) as f64 / t.max(1e-12) / 1e9;
    Measured {
        flops,
        reps,
        blocked_gflops: gflops(t_blocked),
        reference_gflops: gflops(t_ref),
        speedup,
        max_abs_diff,
    }
}

/// Measures an `F32`-width case: the f32 engine (the "blocked" side)
/// against the blocked **f64** kernel at the same shape (the "reference"
/// side), both warm-arena. The ratio is per-width throughput, the diff
/// the narrow path's rounding cost at this shape.
fn measure_narrow(
    case: &Case,
    rng: &mut XorShift64,
    flops: u64,
    reps: u64,
    scratch: &mut KernelScratch,
) -> Measured {
    let mut scratch64 = KernelScratch::with_capacity(pack_elems_bound(
        case.m.max(case.n).max(case.k).max(case.m + case.k),
    ));
    let (t_narrow, t_f64, speedup, max_abs_diff) = match case.kernel {
        Kernel::Gemm => {
            let a = Mat::from_fn(case.m, case.k, |_, _| rng.gen_range(-1.0, 1.0));
            let b = Mat::from_fn(case.k, case.n, |_, _| rng.gen_range(-1.0, 1.0));
            let a32: Vec<f32> = a.as_slice().iter().map(|&v| v as f32).collect();
            let b32: Vec<f32> = b.as_slice().iter().map(|&v| v as f32).collect();
            let mut c32 = vec![0.0f32; case.m * case.n];
            let mut c64 = Mat::zeros(case.m, case.n);
            let (m, n, k) = (case.m, case.n, case.k);
            let (t_n, t_f, speedup) = time_pair(
                reps,
                || {
                    gemm_f32(
                        m, n, k, 1.0, &a32, false, &b32, false, 0.0, &mut c32, scratch,
                    );
                },
                || {
                    gemm_scratch(
                        1.0,
                        &a,
                        Transpose::No,
                        &b,
                        Transpose::No,
                        0.0,
                        &mut c64,
                        &mut scratch64,
                    );
                },
            );
            let diff = diff32(&c32, c64.as_slice());
            (t_n, t_f, speedup, diff)
        }
        Kernel::Syrk => {
            let a = Mat::from_fn(case.n, case.k, |_, _| rng.gen_range(-1.0, 1.0));
            let a32: Vec<f32> = a.as_slice().iter().map(|&v| v as f32).collect();
            let mut c32 = vec![0.0f32; case.n * case.n];
            let mut c64 = Mat::zeros(case.n, case.n);
            let (n, k) = (case.n, case.k);
            let (t_n, t_f, speedup) = time_pair(
                reps,
                || {
                    syrk_lower_f32(n, k, 1.0, &a32, 0.0, &mut c32, scratch);
                },
                || {
                    syrk_lower_scratch(1.0, &a, 0.0, &mut c64, &mut scratch64);
                },
            );
            let diff = diff32(&c32, c64.as_slice());
            (t_n, t_f, speedup, diff)
        }
        Kernel::Trsm => {
            let l = lower_triangular(case.n);
            let b0 = Mat::from_fn(case.m, case.n, |_, _| rng.gen_range(-1.0, 1.0));
            let l32: Vec<f32> = l.as_slice().iter().map(|&v| v as f32).collect();
            let b0_32: Vec<f32> = b0.as_slice().iter().map(|&v| v as f32).collect();
            let mut b32 = b0_32.clone();
            let mut b64 = b0.clone();
            let (m, n) = (case.m, case.n);
            let (t_n, t_f, speedup) = time_pair(
                reps,
                || {
                    b32.copy_from_slice(&b0_32);
                    trsm_right_lower_transpose_f32(m, n, &l32, &mut b32, scratch);
                },
                || {
                    b64.as_mut_slice().copy_from_slice(b0.as_slice());
                    trsm_right_lower_transpose_scratch(&l, &mut b64, &mut scratch64);
                },
            );
            let diff = diff32(&b32, b64.as_slice());
            (t_n, t_f, speedup, diff)
        }
    };
    let gflops = |t: f64| (flops * reps) as f64 / t.max(1e-12) / 1e9;
    Measured {
        flops,
        reps,
        blocked_gflops: gflops(t_narrow),
        reference_gflops: gflops(t_f64),
        speedup,
        max_abs_diff,
    }
}

/// Worst absolute element difference between an f32 result and its f64
/// counterpart (the narrow path's rounding cost witness).
fn diff32(got: &[f32], want: &[f64]) -> f64 {
    got.iter()
        .zip(want)
        .map(|(&x, &y)| (x as f64 - y).abs())
        .fold(0.0, f64::max)
}

fn cases() -> Vec<Case> {
    let mut out = Vec::new();
    for kernel in [Kernel::Gemm, Kernel::Syrk, Kernel::Trsm] {
        for d in [3usize, 6, 12, 30, 60] {
            // Regression floors, set with margin below the worst ratio
            // observed across repeated runs on the baseline host (the
            // recorded `speedup_vs_reference` is the headline number —
            // ≥1.5× for GEMM/SYRK at sizes ≥ 30; the floor only has to
            // catch a real kernel regression without flaking on
            // measurement noise). GEMM-60 streams the most data of the
            // square cases, so the naive kernel is closest behind it;
            // TRSM is gated not to regress; tiny sizes are gated loosely
            // (they time the dispatch overhead as much as the
            // arithmetic).
            let min_speedup = match kernel {
                Kernel::Gemm if d == 60 => 1.35,
                Kernel::Gemm | Kernel::Syrk if d >= 30 => 1.5,
                Kernel::Trsm if d >= 30 => 0.8,
                _ => 0.5,
            };
            out.push(Case {
                name: format!("{}-{d}", kernel.id()),
                kernel,
                width: NumericMode::F64,
                m: d,
                n: d,
                k: d,
                min_speedup,
            });
        }
    }
    // Mixed panel shapes from the multifrontal hot path: a tall TRSM/GEMM
    // panel update and a trailing SYRK with a size-30 pivot block. The
    // shallow, wide GEMM panel is where the naive kernel is most
    // cache-friendly (short k, long unit-stride columns), so its floor is
    // the loosest of the GEMM gates.
    out.push(Case {
        name: "gemm-panel-96x48x30".into(),
        kernel: Kernel::Gemm,
        width: NumericMode::F64,
        m: 96,
        n: 48,
        k: 30,
        min_speedup: 1.2,
    });
    out.push(Case {
        name: "syrk-panel-90x30".into(),
        kernel: Kernel::Syrk,
        width: NumericMode::F64,
        m: 90,
        n: 90,
        k: 30,
        min_speedup: 1.4,
    });
    out.push(Case {
        name: "trsm-panel-90x30".into(),
        kernel: Kernel::Trsm,
        width: NumericMode::F64,
        m: 90,
        n: 30,
        k: 30,
        min_speedup: 0.8,
    });
    // Per-width cases: the f32 engine vs the blocked f64 kernel at the
    // same shape. The f32 GEMM floor at n ≥ 30 is the paper-alignment gate
    // (the FP32 datapath must actually be faster than the f64 one for the
    // precision trade to buy anything).
    for d in [30usize, 60, 96] {
        out.push(Case {
            name: format!("gemm-f32-{d}"),
            kernel: Kernel::Gemm,
            width: NumericMode::F32,
            m: d,
            n: d,
            k: d,
            min_speedup: 1.5,
        });
    }
    out.push(Case {
        name: "syrk-f32-60".into(),
        kernel: Kernel::Syrk,
        width: NumericMode::F32,
        m: 60,
        n: 60,
        k: 60,
        min_speedup: 1.2,
    });
    out.push(Case {
        name: "trsm-f32-60".into(),
        kernel: Kernel::Trsm,
        width: NumericMode::F32,
        m: 60,
        n: 60,
        k: 60,
        min_speedup: 0.9,
    });
    out
}

fn main() {
    let host_cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let cases = cases();

    // The instruction set the kernels were compiled for: `.cargo/config.toml`
    // builds for x86-64-v3, and a `RUSTFLAGS` override replaces that
    // silently, so every artifact says which build produced it.
    let features = Json::obj([
        ("sse4.2", cfg!(target_feature = "sse4.2").into()),
        ("avx", cfg!(target_feature = "avx").into()),
        ("avx2", cfg!(target_feature = "avx2").into()),
        ("fma", cfg!(target_feature = "fma").into()),
    ]);
    let mut rows = Vec::new();
    for case in &cases {
        let r = measure(case);
        rows.push(Json::obj([
            ("name", case.name.as_str().into()),
            ("kernel", case.kernel.id().into()),
            ("width", case.width.to_string().into()),
            ("m", case.m.into()),
            ("n", case.n.into()),
            ("k", case.k.into()),
            ("flops_per_call", r.flops.into()),
            ("reps", r.reps.into()),
            ("blocked_gflops", Json::fixed(r.blocked_gflops, 4)),
            ("reference_gflops", Json::fixed(r.reference_gflops, 4)),
            ("speedup_vs_reference", Json::fixed(r.speedup, 4)),
            ("min_speedup", Json::fixed(case.min_speedup, 2)),
            ("max_abs_diff", Json::Num(format!("{:.3e}", r.max_abs_diff))),
        ]));
        eprintln!(
            "{:>22}: blocked {:7.3} GF/s, reference {:7.3} GF/s, {:5.2}x (floor {:.2}x)",
            case.name, r.blocked_gflops, r.reference_gflops, r.speedup, case.min_speedup
        );
    }
    let out = Json::obj([
        ("bench", "kernels".into()),
        ("host_cpus", host_cpus.into()),
        ("target_features", features),
        ("cases", Json::Arr(rows)),
    ])
    .write();

    std::fs::create_dir_all("results").expect("create results/");
    std::fs::write("results/BENCH_kernels.json", &out).expect("write results/BENCH_kernels.json");
    eprintln!("wrote results/BENCH_kernels.json");
}
