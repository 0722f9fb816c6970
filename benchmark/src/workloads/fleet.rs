//! `fleet_route`: a `ShardRouter` over two in-process TCP `Shard`s (one
//! worker each), journals in a directory of the benchmark's own,
//! `checkpoint_interval = 4`, compaction on. Short replay sessions come in
//! waves of create / `submit(count = 1)` per step / estimate / close. An
//! operation is one `ShardRouter::submit` round trip. No kills and no
//! migrations: those are correctness drills, not load.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use supernova_factors::Variable;
use supernova_fleet::{RouterConfig, Shard, ShardId, ShardRouter};
use supernova_linalg::NumericMode;
use supernova_runtime::CostModel;
use supernova_serve::protocol::DatasetKind;
use supernova_serve::{service, ServeConfig};
use supernova_solvers::SolverEngine;
use supernova_sparse::ParallelExecutor;

use super::{Acc, Prepared};
use crate::spans::{PhaseTable, Tracer};

/// Sessions open at once.
const WAVE: usize = 8;
/// Distinct replay descriptors the sessions cycle through.
const DESCRIPTORS: usize = 8;
const CHECKPOINT_INTERVAL: u64 = 4;
const COMPACT_INTERVAL: u64 = 64;

struct FleetRun {
    sessions: usize,
    steps: u32,
    /// `(kind, seed)` a session replays, and what a lone `SolverEngine` fed
    /// what the shard feeds — each generated step with its ground truth as
    /// the guess — ends at: the estimate every such session must return.
    descriptors: Vec<(DatasetKind, u64, Vec<Variable>)>,
    shard_cfg: ServeConfig,
    /// Journal directories: `<dir>/<serial>`, removed after each use.
    dir: PathBuf,
    serial: usize,
}

struct Fleet {
    router: ShardRouter,
    shards: Vec<Shard>,
    dir: PathBuf,
}

pub fn prepare(sessions: usize, steps: u32, seed: u64) -> Box<dyn Prepared> {
    let shard_cfg = ServeConfig {
        workers: 1,
        max_sessions: WAVE,
        degrade_start: usize::MAX,
        ..ServeConfig::default()
    };
    // The shards generate the steps themselves from `(kind, steps, seed)`.
    let cost = Arc::new(CostModel::new(shard_cfg.platform.clone()));
    let descriptors = (0..DESCRIPTORS as u64)
        .map(|j| {
            let kind = if j % 2 == 0 {
                DatasetKind::Manhattan
            } else {
                DatasetKind::Sphere
            };
            let seed = seed.wrapping_mul(DESCRIPTORS as u64) + j;
            let mut engine = SolverEngine::new(shard_cfg.ra, Arc::clone(&cost) as _);
            engine.set_executor(ParallelExecutor::new(shard_cfg.executor_threads));
            for step in service::generate(kind, steps, seed).online_steps() {
                engine.step(step.truth, step.factors);
            }
            let solo = engine.estimate().iter().map(|(_, v)| v.clone()).collect();
            (kind, seed, solo)
        })
        .collect();

    let mut run = FleetRun {
        sessions,
        steps,
        descriptors,
        shard_cfg,
        dir: PathBuf::from(format!("benchmark/out/journals-{}", std::process::id())),
        serial: 0,
    };
    // Shard and router start (and stop) is set-up cost too.
    run.start().stop();
    Box::new(run)
}

impl FleetRun {
    fn start(&mut self) -> Fleet {
        self.serial += 1;
        let dir = self.dir.join(self.serial.to_string());
        let shards: Vec<Shard> = (0..2)
            .map(|i| Shard::spawn(ShardId(i), self.shard_cfg.clone()).expect("bind shard listener"))
            .collect();
        let endpoints: Vec<_> = shards.iter().map(|s| (s.id(), s.addr())).collect();
        let router = ShardRouter::connect(
            RouterConfig {
                seed: 0xF1EE7,
                numeric: NumericMode::default(),
                journal_dir: dir.clone(),
                checkpoint_interval: CHECKPOINT_INTERVAL,
                compact_interval: COMPACT_INTERVAL,
            },
            &endpoints,
        )
        .expect("connect router");
        Fleet {
            router,
            shards,
            dir,
        }
    }
}

impl Fleet {
    fn stop(mut self) {
        self.router.shutdown();
        drop(self.router);
        drop(self.shards);
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

impl Drop for FleetRun {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir(&self.dir);
    }
}

impl Prepared for FleetRun {
    fn replay(&mut self, acc: &mut Acc, mut tracer: Tracer) {
        let mut fleet = self.start();
        let router = &mut fleet.router;
        // Every router call in the order the client made them: one client,
        // closed loop, so their sum is the replay's wall time.
        let mut call_s = Vec::new();
        // One router call as a span; its seconds go to `call_s` and `into`.
        let mut timed =
            |name: &'static str, op: usize, into: &mut Vec<f64>, call: &mut dyn FnMut()| {
                tracer.begin(name, "fleet", op);
                let t0 = Instant::now();
                call();
                let dt = t0.elapsed().as_secs_f64();
                tracer.end();
                call_s.push(dt);
                into.push(dt);
            };
        let mut submit_s = Vec::with_capacity(self.sessions * self.steps as usize);
        let (mut plain_s, mut checkpoint_s) = (Vec::new(), Vec::new());
        let (mut create_s, mut estimate_s, mut close_s) = (Vec::new(), Vec::new(), Vec::new());
        let mut errors = 0u64;
        let mut wrong = 0u64;
        let all: Vec<usize> = (0..self.sessions).collect();
        for (w, wave) in all.chunks(WAVE).enumerate() {
            let mut globals = Vec::with_capacity(wave.len());
            for &s in wave {
                let (kind, seed, _) = &self.descriptors[s % DESCRIPTORS];
                timed("create", w, &mut create_s, &mut || match router
                    .create_session(*kind, self.steps, *seed)
                {
                    Ok(global) => globals.push((s, global)),
                    Err(_) => errors += u64::from(self.steps),
                });
            }
            for step in 0..u64::from(self.steps) {
                for &(_, global) in &globals {
                    let before = router.stats().checkpoints;
                    timed("submit", w, &mut submit_s, &mut || {
                        errors += u64::from(!matches!(router.submit(global, step, 1), Ok(1)));
                    });
                    let dt = submit_s[submit_s.len() - 1];
                    if router.stats().checkpoints > before {
                        checkpoint_s.push(dt);
                    } else {
                        plain_s.push(dt);
                    }
                }
            }
            for &(s, global) in &globals {
                let mut estimate = None;
                timed("estimate", w, &mut estimate_s, &mut || {
                    estimate = router.estimate(global).ok();
                });
                if estimate.as_ref() != Some(&self.descriptors[s % DESCRIPTORS].2) {
                    wrong += u64::from(self.steps);
                }
            }
            for &(_, global) in &globals {
                timed("close", w, &mut close_s, &mut || {
                    let all_done = router
                        .close(global)
                        .is_ok_and(|(done, shed)| done == u64::from(self.steps) && shed == 0);
                    errors += u64::from(!all_done);
                });
            }
        }
        acc.take_stream(&call_s);
        acc.take_ops(&submit_s);
        acc.check(errors == 0, errors, || {
            format!("{errors} update(s) refused, shed or lost on the way")
        });
        acc.check(wrong == 0, wrong, || {
            format!("{wrong} update(s) in sessions whose estimate differs from the solo replay's")
        });

        let stats = router.stats();
        let journal_bytes: u64 = router
            .journal_paths()
            .iter()
            .filter_map(|(_, path)| std::fs::metadata(path).ok())
            .map(|m| m.len())
            .sum();
        let mut shard_run_s: Vec<f64> = fleet
            .shards
            .iter()
            .flat_map(|shard| shard.server().spans())
            .map(|span| span.end - span.start)
            .collect();
        shard_run_s.sort_by(f64::total_cmp);
        let layer = &mut acc.layer;
        layer.insert("fleet.journal_records", stats.journal_records as f64);
        layer.insert("fleet.journal_bytes", journal_bytes as f64);
        layer.insert("fleet.checkpoints", stats.checkpoints as f64);
        layer.insert("fleet.compactions", stats.compactions as f64);
        fleet.stop();

        acc.take_spans(
            tracer,
            PhaseTable::from([
                ("create_call", create_s),
                ("submit_plain", plain_s),
                ("submit_checkpoint", checkpoint_s),
                ("estimate_call", estimate_s),
                ("close_call", close_s),
                ("shard_run", shard_run_s),
            ]),
        );
    }

    fn finish(&mut self, acc: &mut Acc, traced: bool) {
        if !traced {
            return;
        }
        acc.set_p50("fleet.create_ms_p50", "create_call", 1e3);
        acc.set_p50("fleet.submit_ms_p50", "submit_plain", 1e3);
        acc.set_p50("fleet.checkpoint_submit_ms_p50", "submit_checkpoint", 1e3);
        acc.set_p50("fleet.estimate_ms_p50", "estimate_call", 1e3);
        acc.set_p50("fleet.close_ms_p50", "close_call", 1e3);
        acc.set_p50("fleet.shard_run_ms_p50", "shard_run", 1e3);
        acc.layer.insert("trace.spans", acc.spans.len() as f64);
    }
}
