//! `serve_waves`: one in-process `serve::Server`, two workers, four
//! sessions (two Manhattan, two Sphere), degradation off. Closed loop, one
//! client: each wave submits one update per live session, then drains.
//! An operation is one update `(session, seq)`; its latency runs from the
//! `submit` call to the end of the `DispatchSpan` that applied it, both on
//! `supernova_trace::epoch_seconds()`.
//!
//! An open loop paced at 30 Hz was tried and dropped: three identical
//! runs gave p95 = 9.5 / 15.1 / 16.7 ms with the generator up to 20 ms
//! late. On a shared 2-vCPU host it measures the hypervisor.

use std::sync::Arc;
use std::time::Instant;

use supernova_datasets::OnlineStep;
use supernova_factors::Values;
use supernova_runtime::CostModel;
use supernova_serve::{ServeConfig, Server, SessionId, UpdateRequest};
use supernova_solvers::SolverEngine;
use supernova_sparse::ParallelExecutor;
use supernova_trace::epoch_seconds;

use super::{Acc, Layer, Prepared};
use crate::inputs::{self, initial_guess, Family};
use crate::spans::{PhaseTable, Tracer};

struct Session {
    steps: Vec<OnlineStep>,
    /// What a lone `SolverEngine` fed the same updates ends at: the
    /// reference every replay's served estimate must equal.
    solo: Values,
}

struct ServeRun {
    cfg: ServeConfig,
    sessions: Vec<Session>,
    setup: Layer,
}

pub fn prepare(manhattan_poses: usize, sphere_poses: usize, seed: u64) -> Box<dyn Prepared> {
    let cfg = ServeConfig {
        workers: 2,
        max_sessions: 4,
        // Degradation off: served estimates must equal the solo replay's.
        degrade_start: usize::MAX,
        ..ServeConfig::default()
    };
    let t0 = Instant::now();
    let datasets: Vec<_> = [
        (Family::Manhattan, manhattan_poses),
        (Family::Manhattan, manhattan_poses),
        (Family::Sphere, sphere_poses),
        (Family::Sphere, sphere_poses),
    ]
    .into_iter()
    .zip(0u64..)
    .map(|((family, poses), k)| inputs::dataset(family, poses, seed.wrapping_mul(4) + k))
    .collect();
    let generate_s = t0.elapsed().as_secs_f64();

    // The reference the served estimates are checked against: each
    // session's updates through a lone engine.
    let cost = Arc::new(CostModel::new(cfg.platform.clone()));
    let sessions = datasets
        .iter()
        .map(|dataset| {
            let steps = dataset.online_steps();
            let mut engine = SolverEngine::new(cfg.ra, Arc::clone(&cost) as _);
            engine.set_executor(ParallelExecutor::new(cfg.executor_threads));
            for (i, step) in steps.iter().enumerate() {
                let init = initial_guess(step, i, |key| engine.pose_estimate(key));
                engine.step(init, step.factors.clone());
            }
            Session {
                solo: engine.estimate(),
                steps,
            }
        })
        .collect();
    // Starting (and stopping) the server is set-up cost too.
    drop(Server::start(cfg.clone()));
    Box::new(ServeRun {
        cfg,
        sessions,
        setup: Layer::from([("datasets.generate_ms", generate_s * 1e3)]),
    })
}

impl Prepared for ServeRun {
    fn replay(&mut self, acc: &mut Acc, mut tracer: Tracer) {
        let server = Server::start(self.cfg.clone());
        let ids: Vec<SessionId> = self
            .sessions
            .iter()
            .map(|_| {
                server
                    .create_session()
                    .expect("engine pool covers the sessions")
            })
            .collect();
        let waves = self
            .sessions
            .iter()
            .map(|s| s.steps.len())
            .max()
            .unwrap_or(0);
        // Per session, the epoch second each update's `submit` was called.
        let mut submitted: Vec<Vec<f64>> = vec![Vec::new(); ids.len()];
        let (mut submit_call_s, mut drain_call_s) = (Vec::new(), Vec::new());
        let mut refused = 0u64;
        let mut wave_s = Vec::with_capacity(waves);
        for wave in 0..waves {
            let wave_began = Instant::now();
            tracer.begin("wave", "serve", wave);
            for (k, session) in self.sessions.iter().enumerate() {
                let Some(step) = session.steps.get(wave) else {
                    continue;
                };
                let init = initial_guess(step, wave, |key| {
                    server.pose_estimate(ids[k], key).expect("session is live")
                });
                let request = UpdateRequest::new(wave as u64, init, step.factors.clone());
                tracer.begin("submit", "serve", wave);
                let at = epoch_seconds();
                let admitted = server.submit(ids[k], request);
                submit_call_s.push(epoch_seconds() - at);
                tracer.end();
                submitted[k].push(at);
                refused += u64::from(admitted.is_err());
            }
            tracer.begin("drain", "serve", wave);
            let t0 = Instant::now();
            server.drain_all();
            drain_call_s.push(t0.elapsed().as_secs_f64());
            tracer.end();
            tracer.end();
            wave_s.push(wave_began.elapsed().as_secs_f64());
        }
        acc.take_stream(&wave_s);
        let stream_s: f64 = wave_s.iter().sum();

        // One latency per update, in submission order within each session.
        let spans = server.spans();
        let updates: usize = submitted.iter().map(Vec::len).sum();
        let mut latency = vec![Vec::new(); ids.len()];
        let (mut wait_s, mut run_s) = (Vec::new(), Vec::new());
        for span in &spans {
            let k = ids.iter().position(|id| *id == span.session);
            let at = k.and_then(|k| submitted[k].get(span.seq as usize));
            if let (Some(k), Some(at)) = (k, at) {
                latency[k].push((span.seq, span.end - at));
                wait_s.push((span.start - at).max(0.0));
                run_s.push(span.end - span.start);
            }
        }
        let mut op_s = Vec::with_capacity(updates);
        for per_session in &mut latency {
            per_session.sort_by_key(|(seq, _)| *seq);
            op_s.extend(per_session.iter().map(|(_, s)| *s));
        }
        let missing = (updates - op_s.len().min(updates)) as u64;
        acc.take_ops(&op_s);
        acc.attempted += missing;
        acc.check(missing == 0, missing, || {
            format!("{missing} update(s) have no dispatch span")
        });

        let stats = server.stats();
        let shed = stats.total_shed + refused;
        acc.check(shed == 0, shed, || {
            format!("{shed} update(s) shed or refused")
        });
        for (k, session) in self.sessions.iter().enumerate() {
            let same = server.estimate(ids[k]).is_ok_and(|e| e == session.solo);
            acc.check(same, session.steps.len() as u64, || {
                format!("session {k}: served estimate differs from the solo replay")
            });
        }

        let layer = &mut acc.layer;
        layer.insert(
            "serve.worker_busy_frac",
            run_s.iter().sum::<f64>() / (self.cfg.workers as f64 * stream_s),
        );
        layer.insert(
            "serve.max_queue_depth",
            stats
                .sessions
                .iter()
                .map(|s| s.max_queue_depth)
                .max()
                .unwrap_or(0) as f64,
        );
        layer.insert("serve.shed", shed as f64);
        layer.insert(
            "serve.degraded_steps",
            stats.degradation_histogram.iter().skip(1).sum::<u64>() as f64,
        );
        // Dispatch order is the workers' business; sorted, each series
        // keeps its shape from replay to replay.
        wait_s.sort_by(f64::total_cmp);
        run_s.sort_by(f64::total_cmp);
        acc.take_spans(
            tracer,
            PhaseTable::from([
                ("submit_call", submit_call_s),
                ("drain_call", drain_call_s),
                ("queue_wait", wait_s),
                ("run", run_s),
            ]),
        );
    }

    fn finish(&mut self, acc: &mut Acc, traced: bool) {
        if !traced {
            return;
        }
        acc.layer.extend(self.setup.clone());
        acc.set_p50("serve.submit_call_us_p50", "submit_call", 1e6);
        acc.set_p50("serve.drain_call_ms_p50", "drain_call", 1e3);
        acc.set_p50("serve.queue_wait_ms_p50", "queue_wait", 1e3);
        acc.set_p95("serve.queue_wait_ms_p95", "queue_wait", 1e3);
        acc.set_p50("serve.run_ms_p50", "run", 1e3);
        acc.set_p95("serve.run_ms_p95", "run", 1e3);
        acc.layer.insert("trace.spans", acc.spans.len() as f64);
    }
}
