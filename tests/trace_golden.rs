//! Golden and determinism tests for the unified trace layer.
//!
//! Three properties of the export pipeline, checked on *real* traces (a
//! traced M3500 replay with the hardware simulator attached), not
//! hand-built span trees:
//!
//! - the canonical traces are equal (`==`), and so are their canonical
//!   Chrome exports, across 1/2/4 host executor threads, once the two
//!   intentionally thread-dependent counters (`workers` and
//!   `dispatch_mode` — how the tasks were dispatched, not what was
//!   computed) are stripped — on M3500 and on a Sphere replay with wide
//!   fronts, one whole-task span per recomputed node at every width;
//! - no event of a traced replay carries one `args` member twice;
//! - step 50 of the M3500 replay matches a committed golden fixture
//!   byte-for-byte (`tests/fixtures/m3500_step50.json`, its canonical
//!   Chrome export). Regenerate with
//!   `TRACE_GOLDEN_UPDATE=1 cargo test --test trace_golden` after an
//!   intentional change to the span taxonomy or the export, and commit
//!   the diff alongside the change that motivated it.

use std::sync::Arc;

use supernova_datasets::Dataset;
use supernova_hw::Platform;
use supernova_runtime::{CostModel, SchedulerConfig};
use supernova_solvers::{RaIsam2Config, SolverEngine};
use supernova_sparse::ParallelExecutor;
use supernova_trace::json::{parse, Json};
use supernova_trace::{chrome_document_wall, CounterSet, Span, StepKey, Trace, TraceConfig};

const GOLDEN_PATH: &str = "tests/fixtures/m3500_step50.json";
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
            root,
        });
    }
    out
}

/// Drops the `workers` and `dispatch_mode` counters everywhere in the
/// tree: they record the host executor width and the dispatch path it
/// took (inline / waves), the only fields that legitimately differ between
/// otherwise-identical replays at different thread counts.
fn strip_worker_counters(span: &mut Span) {
    let mut counters = CounterSet::new();
    for (name, value) in span.counters.iter() {
        if !["workers", "dispatch_mode"].contains(&name) {
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

/// The `traceEvents` of a Chrome document.
fn events(doc: &str) -> Vec<Json> {
    parse(doc)
        .expect("the export is valid JSON")
        .get("traceEvents")
        .and_then(Json::as_arr)
        .expect("a traceEvents array")
        .to_vec()
}

#[test]
fn canonical_export_identical_across_thread_counts() {
    // The first 40 steps of M3500 × 0.06 (narrow fronts), and the whole
    // of Sphere × 0.12, whose widest fronts reach 96 columns and more.
    let cases = [
        (Dataset::m3500_scaled(0.06), 40usize),
        (Dataset::sphere_scaled(0.12), usize::MAX),
    ];
    for (ds, steps) in cases {
        let serial = traced_replay_of(&ds, 1, steps);
        for threads in [2usize, 4] {
            let run = traced_replay_of(&ds, threads, steps);
            assert_eq!(run.len(), serial.len());
            for (step, (a, b)) in serial.iter().zip(&run).enumerate() {
                let (a, b) = (thread_invariant(a), thread_invariant(b));
                assert_eq!(
                    a,
                    b,
                    "{} step {step}: canonical trace differs between 1 and {threads} threads",
                    ds.name()
                );
                assert_eq!(
                    a.to_chrome_json(),
                    b.to_chrome_json(),
                    "{} step {step}: canonical Chrome JSON differs between 1 and {threads} threads",
                    ds.name()
                );
            }
        }
    }
}

#[test]
fn no_event_repeats_an_args_member() {
    let traces = traced_replay(2, 30);
    let mut docs: Vec<String> = traces.iter().map(Trace::to_chrome_json).collect();
    docs.push(chrome_document_wall(&traces));
    for doc in &docs {
        for event in events(doc) {
            let Some(Json::Obj(args)) = event.get("args") else {
                panic!("event without an args object: {event:?}");
            };
            let mut names: Vec<&str> = args.iter().map(|(name, _)| name.as_str()).collect();
            names.sort_unstable();
            let before = names.len();
            names.dedup();
            assert_eq!(names.len(), before, "repeated args member in {event:?}");
        }
    }
}

#[test]
fn m3500_step50_matches_golden_fixture() {
    let traces = traced_replay(2, GOLDEN_STEP);
    let json = traces
        .last()
        .expect("replay produced traces")
        .to_chrome_json();

    if std::env::var_os("TRACE_GOLDEN_UPDATE").is_some() {
        std::fs::create_dir_all("tests/fixtures").expect("create tests/fixtures");
        std::fs::write(GOLDEN_PATH, &json).expect("write golden fixture");
        eprintln!("updated {GOLDEN_PATH} ({} bytes)", json.len());
        return;
    }

    let golden = std::fs::read_to_string(GOLDEN_PATH).unwrap_or_else(|e| {
        panic!("cannot read {GOLDEN_PATH}: {e}; regenerate with TRACE_GOLDEN_UPDATE=1")
    });
    // Compare events first so a mismatch names the divergent span instead
    // of a byte offset, then require exact bytes.
    let (ours, theirs) = (events(&json), events(&golden));
    if let Some(i) = (0..ours.len().max(theirs.len())).find(|&i| ours.get(i) != theirs.get(i)) {
        panic!(
            "M3500 step {GOLDEN_STEP} diverged from the golden fixture at event {i}:\n  \
             now:    {:?}\n  golden: {:?}",
            ours.get(i).map(Json::write),
            theirs.get(i).map(Json::write)
        );
    }
    assert_eq!(
        json, golden,
        "equal events but different bytes — the JSON writer changed; \
         regenerate the fixture if this was intentional"
    );
}
