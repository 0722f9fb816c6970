//! `serve_smoke` — the CI gate for the multi-session serving layer.
//!
//! ```text
//! cargo run --release -p supernova-serve --bin serve_smoke
//! ```
//!
//! Four phases, all in-process (no sockets, no timing dependence in the
//! *checked* properties):
//!
//! 1. **Bit-identity at low rate.** Four sessions (two Manhattan, two
//!    sphere seeds) share two workers with queues large enough that
//!    nothing sheds and degradation never engages. Each session's drained
//!    estimate must equal — by exact `f64` bits — a solo replay of the
//!    same seed on a fresh engine (`service::solo_replay`, the one
//!    oracle every serve and fleet gate shares), no matter how the
//!    sessions interleaved across the workers. Zero sheds is asserted.
//! 2. **Graceful degradation under overload.** One worker, a capacity-8
//!    queue and a burst of 50 updates: admitted work must all complete
//!    (shed + completed = submitted), the queue high-water mark must
//!    respect the bound, degradation must engage (with `degrade_start` 0
//!    the first queued update already degrades, whatever the worker's
//!    pace) and then recover to level 0 once drained. "Shed" counts both
//!    refusals at submit: a full queue, and an update naming the pose of
//!    an earlier shed step (`AdmissionError::UnknownVariable`).
//! 3. **Overload across sessions.** Eight seeded sessions (alternating
//!    Manhattan and sphere) on two workers, capacity-8 queues and
//!    degradation from depth 4 in strides of 4, submitted round-robin
//!    with a global deadline tick. How many updates shed races the
//!    workers, so only what holds either way is checked: every admitted
//!    update completes, and the dispatch spans of two workers serving
//!    shedding sessions satisfy every dispatch invariant.
//! 4. **Trace emission.** Two sessions on two workers with
//!    `TraceConfig::on()`: every dispatched step must emit a span tree
//!    that passes `validate_trace`, and the collected trees must
//!    cross-check against the dispatch ledger
//!    (`validate_trace_dispatch`: one tree per record, matching worker
//!    tracks, record interval inside the root span).
//!
//! Phases 1 to 3 also run the recorded dispatch spans through
//! `supernova_analyze::validate_dispatch` (worker exclusivity,
//! per-session happens-before, sequence coverage).
//!
//! Every sub-check has a stable name and reports `PASS`/`FAIL` in a fixed
//! order; the run ends with one summary line naming any failed checks.

use std::process::ExitCode;

use supernova_analyze::{validate_dispatch, validate_trace, validate_trace_dispatch, Report};
use supernova_datasets::Dataset;
use supernova_serve::service::solo_replay;
use supernova_serve::{AdmissionError, ServeConfig, Server, UpdateRequest};
use supernova_trace::TraceConfig;

fn check_spans(report: &mut Report, server: &Server, phase: &str) {
    let records: Vec<_> = server.spans().iter().map(|s| s.record()).collect();
    let violations = validate_dispatch(server.config().workers, &records);
    let detail = if violations.is_empty() {
        format!("{} dispatch spans satisfy all invariants", records.len())
    } else {
        violations
            .iter()
            .map(|v| v.to_string())
            .collect::<Vec<_>>()
            .join("; ")
    };
    report.check(
        &format!("{phase}/dispatch-invariants"),
        violations.is_empty(),
        &detail,
    );
}

fn phase_bit_identity(report: &mut Report) {
    let datasets = [
        Dataset::manhattan_seeded(40, 31),
        Dataset::sphere_seeded(30, 32),
        Dataset::manhattan_seeded(35, 33),
        Dataset::sphere_seeded(25, 34),
    ];
    let server = Server::start(ServeConfig {
        workers: 2,
        max_sessions: 4,
        queue_capacity: 128,
        // Low rate by construction: degradation never engages, so the
        // budget history matches a solo run exactly.
        degrade_start: 1 << 20,
        ..ServeConfig::default()
    });

    let ids: Vec<_> = datasets
        .iter()
        .map(|_| server.create_session().expect("4 slots configured"))
        .collect();
    // Interleave submissions round-robin with a global deadline tick, the
    // worst case for cross-session ordering.
    let step_lists: Vec<_> = datasets.iter().map(Dataset::online_steps).collect();
    let mut tick = 0u64;
    let mut cursors = vec![0usize; datasets.len()];
    loop {
        let mut any = false;
        for (i, steps) in step_lists.iter().enumerate() {
            if cursors[i] < steps.len() {
                let s = &steps[cursors[i]];
                server
                    .submit(
                        ids[i],
                        UpdateRequest::new(tick, s.truth.clone(), s.factors.clone()),
                    )
                    .expect("capacity 128 cannot shed these bursts");
                cursors[i] += 1;
                tick += 1;
                any = true;
            }
        }
        if !any {
            break;
        }
    }

    for (i, ds) in datasets.iter().enumerate() {
        let served = server.estimate(ids[i]).expect("session is live");
        let solo = solo_replay(server.config(), &step_lists[i]).estimate();
        report.check(
            &format!("bit-identity/served-eq-solo[{}#{i}]", ds.name()),
            served == solo,
            &format!("{} poses", served.len()),
        );
    }

    let stats = server.stats();
    report.check(
        "bit-identity/zero-sheds",
        stats.total_shed == 0,
        &format!(
            "{} shed across {} completed updates",
            stats.total_shed, stats.total_completed
        ),
    );
    report.check(
        "bit-identity/no-degradation",
        !stats.any_degraded(),
        &format!("histogram {:?}", stats.degradation_histogram),
    );
    check_spans(report, &server, "bit-identity");
    for id in ids {
        server.close(id).expect("close");
    }
}

fn phase_overload(report: &mut Report) {
    // `degradation-engages` cannot race the worker: `Server::submit`
    // stamps the level from the queued depth, and with `degrade_start: 0`
    // one queued update already means level 1. The first dispatch reads
    // that level under the same lock that popped its update, and only a
    // completion recomputes the level downward, so the first step runs
    // degraded however fast the worker drains.
    let server = Server::start(ServeConfig {
        workers: 1,
        max_sessions: 1,
        queue_capacity: 8,
        degrade_start: 0,
        degrade_stride: 2,
        ..ServeConfig::default()
    });
    let sid = server.create_session().expect("slot");
    let ds = Dataset::manhattan_seeded(50, 35);
    let mut shed = 0u64;
    let mut admitted = 0u64;
    for (i, step) in ds.online_steps().into_iter().enumerate() {
        match server.submit(sid, UpdateRequest::new(i as u64, step.truth, step.factors)) {
            Ok(()) => admitted += 1,
            // Once a step is shed, the steps after it name its missing
            // pose and are refused at admission: both count as shed here.
            Err(AdmissionError::QueueFull { .. } | AdmissionError::UnknownVariable { .. }) => {
                shed += 1
            }
            Err(e) => {
                report.check(
                    "overload/admission",
                    false,
                    &format!("unexpected admission error {e}"),
                );
                return;
            }
        }
    }
    server.drain(sid).expect("session is live");
    let stats = server.stats();

    report.check(
        "overload/admitted-completes",
        stats.sessions[0].completed == admitted,
        &format!(
            "{admitted} admitted, {} completed ({shed} shed at admission)",
            stats.sessions[0].completed
        ),
    );
    report.check(
        "overload/queue-bounded",
        stats.sessions[0].max_queue_depth <= 8,
        &format!(
            "queue depth peaked at {} (bound 8)",
            stats.sessions[0].max_queue_depth
        ),
    );
    report.check(
        "overload/degradation-engages",
        stats.any_degraded(),
        &format!("histogram {:?}", stats.degradation_histogram),
    );
    report.check(
        "overload/degradation-recovers",
        server.degradation() == 0,
        &format!("level {} after drain", server.degradation()),
    );
    check_spans(report, &server, "overload");
}

fn phase_multi_overload(report: &mut Report) {
    let sessions = 8;
    let server = Server::start(ServeConfig {
        workers: 2,
        max_sessions: sessions,
        queue_capacity: 8,
        degrade_start: 4,
        degrade_stride: 4,
        ..ServeConfig::default()
    });
    let ids: Vec<_> = (0..sessions)
        .map(|_| server.create_session().expect("8 slots configured"))
        .collect();
    let step_lists: Vec<_> = (0..sessions)
        .map(|i| {
            if i % 2 == 0 {
                Dataset::manhattan_seeded(40, 101 + i as u64)
            } else {
                Dataset::sphere_seeded(30, 201 + i as u64)
            }
            .online_steps()
        })
        .collect();
    let mut tick = 0u64;
    let mut admitted = 0u64;
    let mut shed = 0u64;
    for round in 0..step_lists.iter().map(Vec::len).max().unwrap_or(0) {
        for (i, steps) in step_lists.iter().enumerate() {
            let Some(s) = steps.get(round) else {
                continue;
            };
            match server.submit(
                ids[i],
                UpdateRequest::new(tick, s.truth.clone(), s.factors.clone()),
            ) {
                Ok(()) => admitted += 1,
                Err(AdmissionError::QueueFull { .. } | AdmissionError::UnknownVariable { .. }) => {
                    shed += 1
                }
                Err(e) => {
                    report.check(
                        "multi-overload/admission",
                        false,
                        &format!("unexpected admission error {e}"),
                    );
                    return;
                }
            }
            tick += 1;
        }
    }
    server.drain_all();
    let stats = server.stats();
    report.check(
        "multi-overload/admitted-completes",
        stats.total_completed == admitted,
        &format!(
            "{admitted} admitted, {} completed ({shed} shed at admission)",
            stats.total_completed
        ),
    );
    check_spans(report, &server, "multi-overload");
}

fn phase_traces(report: &mut Report) {
    let datasets = [
        Dataset::manhattan_seeded(30, 41),
        Dataset::sphere_seeded(25, 42),
    ];
    let server = Server::start(ServeConfig {
        workers: 2,
        max_sessions: 2,
        queue_capacity: 128,
        degrade_start: 1 << 20,
        trace: TraceConfig::on(),
        ..ServeConfig::default()
    });
    let ids: Vec<_> = datasets
        .iter()
        .map(|_| server.create_session().expect("2 slots configured"))
        .collect();
    let step_lists: Vec<_> = datasets.iter().map(Dataset::online_steps).collect();
    let mut tick = 0u64;
    let mut cursors = vec![0usize; datasets.len()];
    loop {
        let mut any = false;
        for (i, steps) in step_lists.iter().enumerate() {
            if cursors[i] < steps.len() {
                let s = &steps[cursors[i]];
                server
                    .submit(
                        ids[i],
                        UpdateRequest::new(tick, s.truth.clone(), s.factors.clone()),
                    )
                    .expect("capacity 128 cannot shed these bursts");
                cursors[i] += 1;
                tick += 1;
                any = true;
            }
        }
        if !any {
            break;
        }
    }
    for &id in &ids {
        server.drain(id).expect("session is live");
    }

    let traces = server.take_traces();
    let records: Vec<_> = server.spans().iter().map(|s| s.record()).collect();
    let submitted: usize = step_lists.iter().map(Vec::len).sum();
    report.check(
        "traces/one-per-step",
        traces.len() == submitted,
        &format!("{} trace(s) for {submitted} submitted steps", traces.len()),
    );

    let mut tree_violations: Vec<String> = Vec::new();
    let mut spans = 0usize;
    for t in &traces {
        spans += t.span_count();
        for v in validate_trace(t) {
            tree_violations.push(format!("session {} seq {}: {v}", t.key.session, t.key.seq));
        }
    }
    let detail = if tree_violations.is_empty() {
        format!("{} span tree(s), {spans} spans clean", traces.len())
    } else {
        tree_violations.join("; ")
    };
    report.check("traces/span-trees", tree_violations.is_empty(), &detail);

    let cross = validate_trace_dispatch(&traces, &records);
    let detail = if cross.is_empty() {
        format!(
            "{} trace(s) consistent with {} dispatch record(s)",
            traces.len(),
            records.len()
        )
    } else {
        cross
            .iter()
            .map(|v| v.to_string())
            .collect::<Vec<_>>()
            .join("; ")
    };
    report.check("traces/dispatch-crosscheck", cross.is_empty(), &detail);
    for id in ids {
        server.close(id).expect("close");
    }
}

fn main() -> ExitCode {
    let mut report = Report::new();
    phase_bit_identity(&mut report);
    phase_overload(&mut report);
    phase_multi_overload(&mut report);
    phase_traces(&mut report);
    report.finish("serve_smoke")
}
