//! Golden and determinism tests for the unified trace layer.
//!
//! Three properties of the export pipeline, checked on *real* traces (a
//! traced M3500 replay with the hardware simulator attached), not
//! hand-built span trees:
//!
//! - the canonical traces of two identical replays are equal (`==`), and
//!   so are their canonical Chrome exports — on M3500 and on a Sphere
//!   replay with wide fronts: canonicalization leaves nothing of the wall
//!   clock behind;
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
use supernova_trace::json::{parse, Json};
use supernova_trace::{chrome_document_wall, StepKey, Trace, TraceConfig};

const GOLDEN_PATH: &str = "tests/fixtures/m3500_step50.json";
const GOLDEN_STEP: usize = 50;

/// [`traced_replay_of`] the M3500 dataset the golden fixture is cut from.
fn traced_replay(steps: usize) -> Vec<Trace> {
    traced_replay_of(&Dataset::m3500_scaled(0.06), steps)
}

/// Replays the first `steps` steps of `ds` through a traced engine with
/// the simulator attached, returning one `Trace` per step.
fn traced_replay_of(ds: &Dataset, steps: usize) -> Vec<Trace> {
    let platform = Platform::supernova(2);
    let cost = Arc::new(CostModel::new(platform.clone()));
    let mut engine = SolverEngine::new(RaIsam2Config::default(), cost);
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
fn canonical_export_identical_across_replays() {
    // The first 40 steps of M3500 × 0.06 (narrow fronts), and the whole
    // of Sphere × 0.12, whose widest fronts reach 96 columns and more.
    let cases = [
        (Dataset::m3500_scaled(0.06), 40usize),
        (Dataset::sphere_scaled(0.12), usize::MAX),
    ];
    for (ds, steps) in cases {
        let first = traced_replay_of(&ds, steps);
        let second = traced_replay_of(&ds, steps);
        assert_eq!(first.len(), second.len());
        for (step, (a, b)) in first.iter().zip(&second).enumerate() {
            let (a, b) = (a.canonical(), b.canonical());
            assert_eq!(
                a,
                b,
                "{} step {step}: canonical trace differs between replays",
                ds.name()
            );
            assert_eq!(
                a.to_chrome_json(),
                b.to_chrome_json(),
                "{} step {step}: canonical Chrome JSON differs between replays",
                ds.name()
            );
        }
    }
}

#[test]
fn no_event_repeats_an_args_member() {
    let traces = traced_replay(30);
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
    let traces = traced_replay(GOLDEN_STEP);
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
