//! `load_gen` — drives the fleet layer: a seeded failover drill and a set
//! of chaos drills, each gated on zero loss and bit-identity.
//!
//! ```text
//! cargo run --release -p supernova-fleet --bin load_gen -- --fleet
//! cargo run --release -p supernova-fleet --bin load_gen -- --chaos
//! ```
//!
//! With neither flag it prints its usage and exits 2. Single-server
//! correctness is `serve_smoke`'s; serve wall time is measured by
//! `benchmark/`'s `serve_waves` workload.
//!
//! **Fleet mode** (`--fleet`: 2000 sessions on 3 shards) drives
//! a [`ShardRouter`] over real TCP shards in waves of concurrent
//! sessions, migrates a session every few waves, and *kills a shard
//! mid-run* with queued work — then records what the fleet layer
//! promises: failover and migration counts, a zero-loss
//! journal-vs-dispatch coverage witness, and byte-identity of served
//! estimates against solo replays (all kill-wave sessions plus a sample
//! of every wave). The router runs the every-K-updates checkpoint policy
//! and automatic journal compaction, so the run also gates the headline
//! recovery bound: no failover replay suffix exceeds K. Results land in
//! `results/BENCH_fleet.json`.
//!
//! **Chaos mode** (`--chaos`) runs three crash/reconfiguration drills,
//! each in both numeric modes, each gated on zero loss and
//! bit-identical estimates:
//!
//! 1. *router restart mid-migration* — a crash is injected at both
//!    migration crash points (intent durable / target restored); the
//!    router is dropped without shutdown and brought back with
//!    [`ShardRouter::restore`], which must roll the interrupted
//!    migration back (or forward) and re-verify every journal cursor;
//! 2. *double shard kill* — two of four shards die mid-trajectory with
//!    queued work, back to back, and every victim re-homes with its
//!    replay suffix bounded by the checkpoint interval;
//! 3. *add shard under load* — a fourth shard joins mid-trajectory;
//!    exactly the ring-minimal remap set live-migrates onto it and
//!    placement matches a freshly seeded ring.
//!
//! Every mode exits nonzero if an identity, coverage, bound or span
//! check fails.

use std::process::ExitCode;

use supernova_analyze::{validate_checkpoint_bounds, validate_trace};
use supernova_fleet::{
    CrashPoint, FleetError, HashRing, RouterConfig, Shard, ShardId, ShardRouter,
};
use supernova_linalg::NumericMode;
use supernova_serve::protocol::DatasetKind;
use supernova_serve::service::solo_estimate;
use supernova_serve::ServeConfig;
use supernova_trace::json::Json;

// ---------------------------------------------------------------------------
// Fleet scenario
// ---------------------------------------------------------------------------

/// Sessions the fleet drill runs. The exact `fleet/*` rows of
/// `bench_check` hold at this size only.
const FLEET_SESSIONS: usize = 2000;
/// Shards the fleet drill starts with; one of them is killed mid-run.
const FLEET_SHARDS: u32 = 3;
/// Concurrent sessions per wave (each wave creates, runs and closes its
/// sessions before the next starts, so "thousands of sessions" needs only
/// a wave-sized engine pool per shard).
const WAVE: usize = 20;
/// Replay steps per fleet session.
const FLEET_STEPS: u32 = 6;
/// A session is migrated once every this many waves.
const MIGRATE_EVERY: usize = 10;
/// The periodic checkpoint policy's K: with half-trajectory submits of
/// `FLEET_STEPS / 2 = 3`, a kill leaves at-rest suffixes of 3 < K, so
/// the suffix bound gated into `BENCH_fleet.json` is exercised for real.
const FLEET_CHECKPOINT_K: u64 = 4;
/// Compact a shard's journal after this many appended records.
const FLEET_COMPACT_INTERVAL: u64 = 512;

fn fleet_shard_cfg() -> ServeConfig {
    ServeConfig {
        workers: 2,
        // Worst case a whole wave (plus failed-over victims) lands on one
        // shard; size the pool so admission never refuses.
        max_sessions: 2 * WAVE,
        queue_capacity: 256,
        degrade_start: 1 << 20, // degradation off: replay must be exact
        ..ServeConfig::default()
    }
}

/// The i-th fleet session's replay descriptor.
fn fleet_descriptor(i: usize) -> (DatasetKind, u32, u64) {
    if i % 2 == 0 {
        (DatasetKind::Manhattan, FLEET_STEPS, 1_000 + i as u64)
    } else {
        (DatasetKind::Sphere, FLEET_STEPS, 5_000 + i as u64)
    }
}

struct FleetResult {
    sessions_total: usize,
    shards: u32,
    shards_killed: u32,
    steps_per_session: u32,
    checkpoint_interval: u64,
    updates_admitted: u64,
    migrations: u64,
    failover_sessions: u64,
    replayed_updates: u64,
    max_replay_suffix: u64,
    suffix_bound_violations: usize,
    checkpoints: u64,
    compactions: u64,
    compacted_records: u64,
    journal_records: u64,
    journal_truncated_bytes: usize,
    lost_updates: usize,
    coverage_violations: usize,
    trace_violations: usize,
    bit_identity_checked: usize,
    bit_identical: bool,
}

fn run_fleet() -> FleetResult {
    let journal_dir = std::env::temp_dir().join(format!("fleet-loadgen-{}", std::process::id()));
    let mut shards: Vec<Shard> = (0..FLEET_SHARDS)
        .map(|i| Shard::spawn(ShardId(i), fleet_shard_cfg()).expect("bind shard listener"))
        .collect();
    let endpoints: Vec<_> = shards.iter().map(|s| (s.id(), s.addr())).collect();
    let mut router = ShardRouter::connect(
        RouterConfig {
            seed: 0xF1EE7,
            numeric: fleet_shard_cfg().numeric,
            journal_dir: journal_dir.clone(),
            checkpoint_interval: FLEET_CHECKPOINT_K,
            compact_interval: FLEET_COMPACT_INTERVAL,
        },
        &endpoints,
    )
    .expect("connect router");

    let waves = FLEET_SESSIONS.div_ceil(WAVE);
    let kill_wave = waves / 2;
    let mut tick = 0u64;
    let mut updates_admitted = 0u64;
    let mut killed: Option<ShardId> = None;
    let mut suffix_bound_violations = 0usize;
    let mut bit_identity_checked = 0usize;
    let mut bit_identical = true;
    let mut next_session = 0usize;

    for wave in 0..waves {
        let wave_n = WAVE.min(FLEET_SESSIONS - next_session);
        let indices: Vec<usize> = (next_session..next_session + wave_n).collect();
        next_session += wave_n;
        let globals: Vec<u64> = indices
            .iter()
            .map(|i| {
                let (kind, steps, seed) = fleet_descriptor(*i);
                router
                    .create_session(kind, steps, seed)
                    .expect("create session")
            })
            .collect();

        // First half of each trajectory.
        let half = FLEET_STEPS / 2;
        for g in &globals {
            updates_admitted += u64::from(router.submit(*g, tick, half).expect("submit"));
            tick += u64::from(half);
        }

        // Periodic live migration keeps the snapshot/restore path hot.
        if wave % MIGRATE_EVERY == 0 && router.live_shards().len() > 1 {
            let mover = globals[0];
            let home = router.shard_of(mover).expect("routed");
            if let Some(target) = router.live_shards().iter().find(|s| **s != home).copied() {
                router.migrate(mover, target).expect("migrate");
            }
        }

        // Mid-run crash: kill the shard hosting this wave's first
        // session, with its queued work undrained.
        if wave == kill_wave && killed.is_none() {
            let dead = router.shard_of(globals[0]).expect("routed");
            for shard in shards.iter_mut().filter(|s| s.id() == dead) {
                shard.kill();
            }
            let report = router.kill_shard(dead).expect("failover");
            killed = Some(dead);
            // The periodic checkpoint policy's headline bound: no replay
            // suffix may exceed K.
            let bounds = validate_checkpoint_bounds(&report.suffix_lens, FLEET_CHECKPOINT_K);
            for v in &bounds {
                eprintln!("load_gen: checkpoint bound: {v}");
            }
            suffix_bound_violations += bounds.len();
            eprintln!(
                "load_gen: killed {dead}: {} session(s) re-homed, {} update(s) replayed \
                 (max suffix {})",
                report.sessions, report.replayed_updates, report.max_replay_suffix
            );
        }

        // Second half, then verify and close.
        for g in &globals {
            updates_admitted +=
                u64::from(router.submit(*g, tick, FLEET_STEPS).expect("submit rest"));
            tick += u64::from(FLEET_STEPS);
        }
        let check_all = wave == kill_wave;
        let shard_cfg = fleet_shard_cfg();
        for (slot, g) in globals.iter().enumerate() {
            if check_all || slot == 0 {
                let i = indices[slot];
                let (kind, steps, seed) = fleet_descriptor(i);
                let served = router.estimate(*g).expect("estimate");
                bit_identity_checked += 1;
                if served != solo_estimate(&shard_cfg, kind, steps, seed) {
                    eprintln!("load_gen: fleet session {g} diverged from solo replay");
                    bit_identical = false;
                }
            }
            router.close(*g).expect("close");
        }
    }

    // Trace shapes.
    let traces = router.take_traces();
    let trace_violations: usize = traces.iter().map(|t| validate_trace(t).len()).sum();

    // Journal-vs-dispatch coverage. Compaction drops records below
    // durable floors, so the witness is floors-aware: checkpoint records
    // and close tombstones from the same journals account for the
    // compacted prefixes.
    let ledger = router.ledger().expect("journals read back");
    let stats = router.stats();
    router.shutdown();
    drop(router);
    let coverage = ledger.coverage(&shards);
    let lost_updates = coverage
        .iter()
        .filter(|v| v.detail.contains("lost"))
        .count();
    for v in coverage.iter().take(10) {
        eprintln!("load_gen: fleet coverage: {v}");
    }
    drop(shards);
    let _ = std::fs::remove_dir_all(&journal_dir);

    FleetResult {
        sessions_total: FLEET_SESSIONS,
        shards: FLEET_SHARDS,
        shards_killed: u32::from(killed.is_some()),
        steps_per_session: FLEET_STEPS,
        checkpoint_interval: FLEET_CHECKPOINT_K,
        updates_admitted,
        migrations: stats.migrations,
        failover_sessions: stats.failover_sessions,
        replayed_updates: stats.replayed_updates,
        max_replay_suffix: stats.max_replay_suffix,
        suffix_bound_violations,
        checkpoints: stats.checkpoints,
        compactions: stats.compactions,
        compacted_records: stats.compacted_records,
        journal_records: stats.journal_records,
        journal_truncated_bytes: ledger.truncated_bytes,
        lost_updates,
        coverage_violations: coverage.len(),
        trace_violations,
        bit_identity_checked,
        bit_identical,
    }
}

fn emit_fleet_json(r: &FleetResult) -> String {
    let host_cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    Json::obj([
        ("bench", "fleet".into()),
        ("host_cpus", host_cpus.into()),
        ("sessions_total", r.sessions_total.into()),
        ("shards", r.shards.into()),
        ("shards_killed", r.shards_killed.into()),
        ("steps_per_session", r.steps_per_session.into()),
        ("checkpoint_interval", r.checkpoint_interval.into()),
        ("updates_admitted", r.updates_admitted.into()),
        ("migrations", r.migrations.into()),
        ("failover_sessions", r.failover_sessions.into()),
        ("replayed_updates", r.replayed_updates.into()),
        ("max_replay_suffix", r.max_replay_suffix.into()),
        ("suffix_bound_violations", r.suffix_bound_violations.into()),
        ("checkpoints", r.checkpoints.into()),
        ("compactions", r.compactions.into()),
        ("compacted_records", r.compacted_records.into()),
        ("journal_records", r.journal_records.into()),
        ("journal_truncated_bytes", r.journal_truncated_bytes.into()),
        ("lost_updates", r.lost_updates.into()),
        ("coverage_violations", r.coverage_violations.into()),
        ("trace_violations", r.trace_violations.into()),
        ("bit_identity_checked", r.bit_identity_checked.into()),
        ("bit_identical_to_solo", r.bit_identical.into()),
    ])
    .write()
}

// ---------------------------------------------------------------------------
// Chaos drills
// ---------------------------------------------------------------------------

/// Checkpoint interval for the chaos drills (small, so the bound bites).
const CHAOS_K: u64 = 4;
/// Aggressive compaction so every drill also crosses compacted journals.
const CHAOS_COMPACT: u64 = 8;

fn chaos_shard_cfg(mode: NumericMode) -> ServeConfig {
    ServeConfig {
        numeric: mode,
        ..fleet_shard_cfg()
    }
}

fn chaos_router_cfg(mode: NumericMode, journal_dir: std::path::PathBuf) -> RouterConfig {
    RouterConfig {
        seed: 0xC4A0_5000 + mode.as_u64(),
        numeric: mode,
        journal_dir,
        checkpoint_interval: CHAOS_K,
        compact_interval: CHAOS_COMPACT,
    }
}

/// Spawns `n` shards and creates `sessions` drill sessions with the first
/// half of each trajectory submitted (so every crash lands mid-stream
/// with live state on the shards).
fn chaos_setup(
    mode: NumericMode,
    label: &str,
    n: u32,
    sessions: usize,
) -> (std::path::PathBuf, Vec<Shard>, ShardRouter, Vec<u64>, u64) {
    let journal_dir = std::env::temp_dir().join(format!(
        "fleet-chaos-{label}-{}-{}",
        mode.as_str(),
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&journal_dir);
    let shards: Vec<Shard> = (0..n)
        .map(|i| Shard::spawn(ShardId(i), chaos_shard_cfg(mode)).expect("bind shard"))
        .collect();
    let endpoints: Vec<_> = shards.iter().map(|s| (s.id(), s.addr())).collect();
    let mut router = ShardRouter::connect(chaos_router_cfg(mode, journal_dir.clone()), &endpoints)
        .expect("connect router");
    let globals: Vec<u64> = (0..sessions)
        .map(|i| {
            let (kind, steps, seed) = fleet_descriptor(i);
            router.create_session(kind, steps, seed).expect("create")
        })
        .collect();
    let mut tick = 0u64;
    let half = FLEET_STEPS / 2;
    for g in &globals {
        router.submit(*g, tick, half).expect("submit half");
        tick += u64::from(half);
    }
    (journal_dir, shards, router, globals, tick)
}

/// Finishes every trajectory, checks bit-identity against per-mode solo
/// replays, closes the sessions, and runs the floors-aware zero-loss
/// coverage witness over journals and shard dispatch ledgers.
fn chaos_finish(
    mode: NumericMode,
    drill: &str,
    journal_dir: &std::path::Path,
    shards: Vec<Shard>,
    mut router: ShardRouter,
    globals: &[u64],
    mut tick: u64,
) -> Result<(), String> {
    for g in globals {
        router
            .submit(*g, tick, FLEET_STEPS)
            .map_err(|e| format!("{drill}: submit rest of session {g}: {e}"))?;
        tick += u64::from(FLEET_STEPS);
    }
    let shard_cfg = chaos_shard_cfg(mode);
    for (i, g) in globals.iter().enumerate() {
        let (kind, steps, seed) = fleet_descriptor(i);
        let served = router
            .estimate(*g)
            .map_err(|e| format!("{drill}: estimate session {g}: {e}"))?;
        if served != solo_estimate(&shard_cfg, kind, steps, seed) {
            return Err(format!(
                "{drill}: session {g} estimate diverged from solo replay"
            ));
        }
    }
    for g in globals {
        router
            .close(*g)
            .map_err(|e| format!("{drill}: close session {g}: {e}"))?;
    }

    let ledger = router
        .ledger()
        .map_err(|e| format!("{drill}: journal read-back: {e}"))?;
    if ledger.truncated_bytes != 0 {
        return Err(format!(
            "{drill}: {} torn journal byte(s) after clean drill",
            ledger.truncated_bytes
        ));
    }
    router.shutdown();
    drop(router);
    let coverage = ledger.coverage(&shards);
    drop(shards);
    let _ = std::fs::remove_dir_all(journal_dir);
    if let Some(v) = coverage.first() {
        return Err(format!(
            "{drill}: {} coverage violation(s), first: {v}",
            coverage.len()
        ));
    }
    Ok(())
}

/// Drill 1: a router crash at each migration crash point, then a restart
/// over the durable books. `restore` must resolve the interrupted
/// migration the right way and re-verify every cursor before traffic.
fn drill_router_restart_mid_migration(mode: NumericMode) -> Result<(), String> {
    for (point, expected) in [
        (CrashPoint::MigrateAfterIntent, "rolled-back"),
        (CrashPoint::MigrateAfterRestore, "rolled-forward"),
    ] {
        let drill = format!("restart-mid-migration[{expected}]");
        let (journal_dir, shards, mut router, globals, tick) = chaos_setup(mode, "restart", 3, 6);
        let endpoints: Vec<_> = shards.iter().map(|s| (s.id(), s.addr())).collect();

        let mover = globals[0];
        let home = router.shard_of(mover).ok_or("mover unrouted")?;
        let target = router
            .live_shards()
            .iter()
            .find(|s| **s != home)
            .copied()
            .ok_or("no migration target")?;
        router.inject_crash(point);
        match router.migrate(mover, target) {
            Err(FleetError::CrashInjected(_)) => {}
            Ok(()) => return Err(format!("{drill}: injected crash did not fire")),
            Err(e) => return Err(format!("{drill}: unexpected migrate error: {e}")),
        }
        // The crash: drop the router with no shutdown. Shards stay up
        // (their processes are independent of the router's).
        drop(router);

        let (router, report) =
            ShardRouter::restore(chaos_router_cfg(mode, journal_dir.clone()), &endpoints)
                .map_err(|e| format!("{drill}: restore failed: {e}"))?;
        if report.pending_resolution != Some(expected) {
            return Err(format!(
                "{drill}: pending migration resolved as {:?}, expected {expected:?}",
                report.pending_resolution
            ));
        }
        if report.sessions_verified != globals.len() as u64 {
            return Err(format!(
                "{drill}: restart verified {} session(s), expected {}",
                report.sessions_verified,
                globals.len()
            ));
        }
        let landed = router.shard_of(mover).ok_or("mover lost across restart")?;
        let want = match point {
            CrashPoint::MigrateAfterIntent => home,
            CrashPoint::MigrateAfterRestore => target,
        };
        if landed != want {
            return Err(format!(
                "{drill}: mover on {landed} after restart, expected {want}"
            ));
        }
        chaos_finish(mode, &drill, &journal_dir, shards, router, &globals, tick)?;
    }
    Ok(())
}

/// Drill 2: two of four shards die back to back with queued work; every
/// victim re-homes twice if need be, with replay suffixes bounded by K.
fn drill_double_shard_kill(mode: NumericMode) -> Result<(), String> {
    let drill = "double-shard-kill";
    let (journal_dir, mut shards, mut router, globals, tick) = chaos_setup(mode, "double", 4, 8);
    for victim_slot in [0usize, 1] {
        let dead = router
            .shard_of(globals[victim_slot])
            .ok_or("victim unrouted")?;
        for shard in shards.iter_mut().filter(|s| s.id() == dead) {
            shard.kill();
        }
        let report = router
            .kill_shard(dead)
            .map_err(|e| format!("{drill}: failover of {dead}: {e}"))?;
        let bounds = validate_checkpoint_bounds(&report.suffix_lens, CHAOS_K);
        if let Some(v) = bounds.first() {
            return Err(format!("{drill}: {v}"));
        }
        if report.sessions == 0 {
            return Err(format!(
                "{drill}: {dead} hosted no sessions (drill is vacuous)"
            ));
        }
    }
    if router.live_shards().len() != 2 {
        return Err(format!(
            "{drill}: expected 2 survivors, have {}",
            router.live_shards().len()
        ));
    }
    chaos_finish(mode, drill, &journal_dir, shards, router, &globals, tick)
}

/// Drill 3: a fourth shard joins mid-trajectory. Exactly the ring-minimal
/// remap set live-migrates onto it and every session's placement matches
/// a freshly seeded four-member ring.
fn drill_add_shard_under_load(mode: NumericMode) -> Result<(), String> {
    let drill = "add-shard-under-load";
    let (journal_dir, mut shards, mut router, globals, tick) = chaos_setup(mode, "add", 3, 12);

    // Expected remap set from ring arithmetic alone.
    let seed = 0xC4A0_5000 + mode.as_u64();
    let mut grown = HashRing::new(seed);
    for i in 0..4 {
        grown.add(ShardId(i));
    }
    let expect_remapped = globals
        .iter()
        .filter(|g| {
            grown.route(**g) == Some(ShardId(3)) && router.shard_of(**g) != Some(ShardId(3))
        })
        .count() as u64;

    // Into `shards` before `add_shard`: if it fails, the router (declared
    // after `shards`) drops first and closes the joiner's connection.
    let joiner = Shard::spawn(ShardId(3), chaos_shard_cfg(mode)).expect("bind joining shard");
    let joiner_addr = joiner.addr();
    shards.push(joiner);
    let report = router
        .add_shard(ShardId(3), joiner_addr)
        .map_err(|e| format!("{drill}: add_shard: {e}"))?;
    if report.sessions_remapped != expect_remapped {
        return Err(format!(
            "{drill}: remapped {} session(s), ring names {expect_remapped}",
            report.sessions_remapped
        ));
    }
    // Every open session now sits exactly where the grown ring says.
    for g in &globals {
        if router.shard_of(*g) != grown.route(*g) {
            return Err(format!(
                "{drill}: session {g} off-ring after rebalance (minimal remap violated)"
            ));
        }
    }
    chaos_finish(mode, drill, &journal_dir, shards, router, &globals, tick)
}

/// Runs all three drills in both numeric modes; returns the failure
/// descriptions (empty = chaos clean).
fn run_chaos() -> Vec<String> {
    let mut failures = Vec::new();
    for mode in NumericMode::ALL {
        for (name, run) in [
            (
                "router-restart-mid-migration",
                drill_router_restart_mid_migration as fn(NumericMode) -> Result<(), String>,
            ),
            ("double-shard-kill", drill_double_shard_kill),
            ("add-shard-under-load", drill_add_shard_under_load),
        ] {
            match run(mode) {
                Ok(()) => eprintln!("load_gen: chaos {name} [{}] OK", mode.as_str()),
                Err(why) => {
                    eprintln!("load_gen: chaos {name} [{}] FAILED: {why}", mode.as_str());
                    failures.push(format!("{name}[{}]: {why}", mode.as_str()));
                }
            }
        }
    }
    failures
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    match (args.next().as_deref(), args.next()) {
        (Some("--chaos"), None) => chaos_main(),
        (Some("--fleet"), None) => fleet_main(),
        _ => {
            eprintln!("usage: load_gen --fleet | --chaos");
            ExitCode::from(2)
        }
    }
}

fn chaos_main() -> ExitCode {
    eprintln!("load_gen: chaos drills, 3 scenarios x 2 numeric modes");
    let failures = run_chaos();
    if failures.is_empty() {
        eprintln!("load_gen: chaos OK");
        return ExitCode::SUCCESS;
    }
    eprintln!("load_gen: chaos FAILED ({} drill(s)):", failures.len());
    for f in &failures {
        eprintln!("load_gen:   {f}");
    }
    ExitCode::FAILURE
}

fn fleet_main() -> ExitCode {
    eprintln!("load_gen: fleet scenario, {FLEET_SESSIONS} sessions on {FLEET_SHARDS} shards");
    let result = run_fleet();
    let json = emit_fleet_json(&result);
    std::fs::create_dir_all("results").expect("create results/");
    std::fs::write("results/BENCH_fleet.json", &json).expect("write results/BENCH_fleet.json");
    print!("{json}");
    let ok = result.coverage_violations == 0
        && result.trace_violations == 0
        && result.lost_updates == 0
        && result.journal_truncated_bytes == 0
        && result.bit_identical
        && result.suffix_bound_violations == 0
        && result.shards_killed == 1;
    if ok {
        eprintln!("load_gen: fleet OK");
        ExitCode::SUCCESS
    } else {
        eprintln!("load_gen: fleet FAILED");
        ExitCode::FAILURE
    }
}
