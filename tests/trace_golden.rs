//! Golden and determinism tests for the unified trace layer.
//!
//! Three properties of the export pipeline, checked on *real* traces (a
//! traced M3500 replay with the hardware simulator attached), not
//! hand-built span trees:
//!
//! - the canonical Chrome export and canonical binary encoding are
//!   byte-identical across 1/2/4 host executor threads, once the three
//!   intentionally thread-dependent counters (`workers`, `dispatch_mode`
//!   and `split_mode` — what was dispatched, not what was computed) are
//!   stripped — on M3500 and on a Sphere replay whose plan carries the
//!   intra-front split overlay, so one thread's whole-task spans are
//!   compared against the folded sub-unit spans of two and four;
//! - the SNVT binary encoding round-trips every trace exactly;
//! - step 50 of the M3500 replay matches a committed golden fixture
//!   byte-for-byte (`tests/fixtures/m3500_step50.snvt`). Regenerate with
//!   `TRACE_GOLDEN_UPDATE=1 cargo test --test trace_golden` after an
//!   intentional change to the span taxonomy or the encoding, and commit
//!   the diff alongside the change that motivated it.

use std::sync::Arc;

use supernova_datasets::Dataset;
use supernova_hw::Platform;
use supernova_runtime::{CostModel, SchedulerConfig};
use supernova_solvers::{RaIsam2Config, SolverEngine};
use supernova_sparse::ParallelExecutor;
use supernova_trace::{CounterSet, Span, StepKey, Trace, TraceConfig};

const GOLDEN_PATH: &str = "tests/fixtures/m3500_step50.snvt";
const GOLDEN_STEP: usize = 50;

/// [`traced_replay_of`] the M3500 dataset the golden fixture is cut from.
fn traced_replay(threads: usize, steps: usize) -> Vec<Trace> {
    traced_replay_of(&Dataset::m3500_scaled(0.06), threads, steps)
}

/// Replays the first `steps` steps of `ds` through a traced engine with
/// the simulator attached, returning one `Trace` per step.
fn traced_replay_of(ds: &Dataset, threads: usize, steps: usize) -> Vec<Trace> {
    let platform = Platform::supernova(2);
    let cost = Arc::new(CostModel::new(platform.clone()));
    let mut engine = SolverEngine::new(RaIsam2Config::default(), cost);
    engine.set_executor(ParallelExecutor::new(threads));
    engine.set_trace(TraceConfig::on());
    engine.set_trace_hw(platform, SchedulerConfig::default());
    let mut out = Vec::new();
    for (i, step) in ds.online_steps().into_iter().take(steps).enumerate() {
        engine.step(step.truth, step.factors);
        let root = engine
            .take_step_span()
            .expect("tracing is enabled, every step emits a span tree");
        out.push(Trace {
            key: StepKey {
                session: 0,
                seq: i as u64,
                step: i as u64 + 1,
            },
            numeric_mode: engine.numeric_mode(),
            root,
        });
    }
    out
}

/// Drops the `workers`, `dispatch_mode` and `split_mode` counters
/// everywhere in the tree: they record the host executor width, the
/// dispatch path it took (inline / waves) and how many split sub-units it
/// dispatched (0 inline), the only fields that legitimately differ
/// between otherwise-identical replays at different thread counts.
fn strip_worker_counters(span: &mut Span) {
    let mut counters = CounterSet::new();
    for (name, value) in span.counters.iter() {
        if !["workers", "dispatch_mode", "split_mode"].contains(&name) {
            counters.set(name, value);
        }
    }
    span.counters = counters;
    for child in &mut span.children {
        strip_worker_counters(child);
    }
}

fn thread_invariant(trace: &Trace) -> Trace {
    let mut canonical = trace.canonical();
    strip_worker_counters(&mut canonical.root);
    canonical
}

/// Sub-units the replay's executions dispatched, summed over its steps
/// (the `split_mode` counter of each step's `exec` span).
fn split_units_dispatched(traces: &[Trace]) -> u64 {
    let mut total = 0;
    for trace in traces {
        trace.root.visit(&mut |span, _| {
            if span.name == "exec" {
                total += span.counters.get("split_mode").unwrap_or(0);
            }
        });
    }
    total
}

#[test]
fn canonical_export_identical_across_thread_counts() {
    // M3500 × 0.06 stays under the 96-column split threshold for its
    // first 40 steps (whole tasks at every width); Sphere × 0.12 crosses
    // it, so there the wider replays run split fronts as sub-unit waves.
    let cases = [
        (Dataset::m3500_scaled(0.06), 40usize, false),
        (Dataset::sphere_scaled(0.12), usize::MAX, true),
    ];
    for (ds, steps, splits) in cases {
        let serial = traced_replay_of(&ds, 1, steps);
        assert_eq!(split_units_dispatched(&serial), 0, "{}: inline", ds.name());
        for threads in [2usize, 4] {
            let run = traced_replay_of(&ds, threads, steps);
            assert_eq!(run.len(), serial.len());
            assert_eq!(
                split_units_dispatched(&run) > 0,
                splits,
                "{} at {threads} threads: sub-unit waves",
                ds.name()
            );
            for (step, (a, b)) in serial.iter().zip(&run).enumerate() {
                let (a, b) = (thread_invariant(a), thread_invariant(b));
                assert_eq!(
                    a.to_chrome_json(),
                    b.to_chrome_json(),
                    "{} step {step}: canonical Chrome JSON differs between 1 and {threads} threads",
                    ds.name()
                );
                assert_eq!(
                    a.to_bytes(),
                    b.to_bytes(),
                    "{} step {step}: canonical SNVT bytes differ between 1 and {threads} threads",
                    ds.name()
                );
            }
        }
    }
}

#[test]
fn binary_encoding_round_trips_real_traces() {
    for trace in traced_replay(2, 30) {
        let decoded = Trace::from_bytes(&trace.to_bytes()).expect("decode own encoding");
        assert_eq!(decoded, trace, "as-recorded trace did not round-trip");
        let canonical = trace.canonical();
        let decoded = Trace::from_bytes(&canonical.to_bytes()).expect("decode canonical");
        assert_eq!(decoded, canonical, "canonical trace did not round-trip");
    }
}

#[test]
fn m3500_step50_matches_golden_fixture() {
    let traces = traced_replay(2, GOLDEN_STEP);
    let bytes = traces
        .last()
        .expect("replay produced traces")
        .canonical()
        .to_bytes();

    if std::env::var_os("TRACE_GOLDEN_UPDATE").is_some() {
        std::fs::create_dir_all("tests/fixtures").expect("create tests/fixtures");
        std::fs::write(GOLDEN_PATH, &bytes).expect("write golden fixture");
        eprintln!("updated {GOLDEN_PATH} ({} bytes)", bytes.len());
        return;
    }

    let golden = std::fs::read(GOLDEN_PATH).unwrap_or_else(|e| {
        panic!("cannot read {GOLDEN_PATH}: {e}; regenerate with TRACE_GOLDEN_UPDATE=1")
    });
    // Compare decoded trees first so a mismatch names the divergent span
    // instead of a byte offset, then require exact bytes.
    let ours = Trace::from_bytes(&bytes).expect("decode fresh canonical trace");
    let theirs = Trace::from_bytes(&golden).expect("decode committed golden fixture");
    assert_eq!(
        ours, theirs,
        "M3500 step {GOLDEN_STEP} canonical trace diverged from the golden fixture"
    );
    assert_eq!(
        bytes, golden,
        "equal trees but different bytes — the SNVT encoder changed; \
         regenerate the fixture if this was intentional"
    );
}
