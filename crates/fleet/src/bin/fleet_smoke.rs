//! `fleet_smoke` — the fleet-layer CI gate.
//!
//! ```text
//! cargo run --release -p supernova-fleet --bin fleet_smoke
//! ```
//!
//! Runs the whole failure drill in one process: three TCP shards behind a
//! [`ShardRouter`], a dozen sessions replaying seeded trajectories, one
//! live migration mid-stream, then a shard killed with queued work — and
//! asserts the properties the fleet layer exists for:
//!
//! - **byte identity**: after migration and failover, every session's
//!   drained estimate equals a solo replay of the same seed exactly
//!   (`supernova_serve::service::solo_estimate`);
//! - **zero loss**: every journaled admitted update was dispatched by
//!   some shard (journal-vs-dispatch-ledger coverage, survivor replay
//!   included), no shard dispatched unjournaled work, and every dispatch
//!   maps to a placed session (`ShardRouter::ledger` +
//!   `Ledger::coverage`);
//! - **trace shape**: the router's `fleet.migrate` / `fleet.failover`
//!   span trees pass `validate_trace`;
//! - **clean journals**: every journal reads back typed and untruncated,
//!   with coverage judged against checkpoint/tombstone floors (the smoke
//!   runs with periodic checkpointing and aggressive compaction on);
//! - **bounded failover**: every replay suffix at the kill is at most the
//!   checkpoint interval K, and both the periodic checkpointer and the
//!   journal compactor demonstrably ran.
//!
//! Exits nonzero on any violation. Wall time is a few seconds.

use std::process::ExitCode;

use supernova_analyze::{validate_checkpoint_bounds, validate_trace, Report};
use supernova_fleet::{RouterConfig, Shard, ShardId, ShardRouter, UNPLACED_DISPATCH};
use supernova_linalg::NumericMode;
use supernova_serve::protocol::DatasetKind;
use supernova_serve::service::solo_estimate;
use supernova_serve::ServeConfig;

const SHARDS: u32 = 3;
const SESSIONS: usize = 12;
/// Periodic checkpoint interval: bounds every failover replay suffix.
const CHECKPOINT_K: u64 = 8;
/// Compact a shard's journal after this many appended records — low
/// enough that the smoke exercises compaction with open sessions.
const COMPACT_INTERVAL: u64 = 32;

fn shard_cfg() -> ServeConfig {
    ServeConfig {
        workers: 2,
        max_sessions: SESSIONS + 4,
        queue_capacity: 256,
        degrade_start: 1 << 20, // nominal: degradation off, replay exact
        ..ServeConfig::default()
    }
}

/// The i-th smoke session's replay descriptor.
fn descriptor(i: usize) -> (DatasetKind, u32, u64) {
    if i % 2 == 0 {
        (DatasetKind::Manhattan, 24, 300 + i as u64)
    } else {
        (DatasetKind::Sphere, 18, 400 + i as u64)
    }
}

fn main() -> ExitCode {
    let numeric = NumericMode::default();
    let journal_dir = std::env::temp_dir().join(format!("fleet-smoke-{}", std::process::id()));
    let mut report = Report::new();

    // --- Bring up the fleet.
    let mut shards: Vec<Shard> = (0..SHARDS)
        .map(|i| Shard::spawn(ShardId(i), shard_cfg()).expect("bind shard listener"))
        .collect();
    let endpoints: Vec<_> = shards.iter().map(|s| (s.id(), s.addr())).collect();
    let mut router = ShardRouter::connect(
        RouterConfig {
            seed: 0xF1EE7,
            numeric,
            journal_dir: journal_dir.clone(),
            checkpoint_interval: CHECKPOINT_K,
            compact_interval: COMPACT_INTERVAL,
        },
        &endpoints,
    )
    .expect("connect router");

    // --- Sessions, first half of each trajectory.
    let globals: Vec<u64> = (0..SESSIONS)
        .map(|i| {
            let (kind, steps, seed) = descriptor(i);
            router
                .create_session(kind, steps, seed)
                .expect("create session")
        })
        .collect();
    let mut tick = 0u64;
    for (i, g) in globals.iter().enumerate() {
        let (_, steps, _) = descriptor(i);
        let half = steps / 2;
        router.submit(*g, tick, half).expect("submit first half");
        tick += u64::from(half);
    }

    // --- Live migration: move one session off its home shard.
    let mover = globals[0];
    let home = router.shard_of(mover).expect("routed");
    let target = *router
        .live_shards()
        .iter()
        .find(|s| **s != home)
        .expect("another shard");
    router.migrate(mover, target).expect("migrate");
    let moved = router.shard_of(mover) == Some(target);
    report.check(
        "migration repoints the route",
        moved,
        &format!("{home} -> {target}"),
    );

    // A few more steps everywhere so post-migration state advances.
    for (i, g) in globals.iter().enumerate() {
        let (_, steps, _) = descriptor(i);
        let some = steps / 4;
        router.submit(*g, tick, some).expect("submit after migrate");
        tick += u64::from(some);
    }

    // --- Kill a shard that hosts sessions, with queued work (no drain).
    let dead = router.shard_of(globals[1]).expect("routed");
    let victims = globals
        .iter()
        .filter(|g| router.shard_of(**g) == Some(dead))
        .count();
    report.check(
        "dead shard hosts sessions",
        victims > 0,
        &format!("{victims} on {dead}"),
    );
    for shard in shards.iter_mut().filter(|s| s.id() == dead) {
        shard.kill();
    }
    let failover = router.kill_shard(dead).expect("failover");
    let rehomed = failover.sessions;
    report.check(
        "failover re-homed every victim",
        rehomed == victims as u64,
        &format!("{rehomed} of {victims}"),
    );
    let replayed = failover.replayed_updates;
    let detail = format!("{replayed} replayed");
    report.check("failover replayed journal updates", replayed > 0, &detail);
    let off_dead = globals.iter().all(|g| router.shard_of(*g) != Some(dead));
    let detail = format!("{SESSIONS} checked");
    report.check(
        "no session still routed to the dead shard",
        off_dead,
        &detail,
    );
    let bounds = validate_checkpoint_bounds(&failover.suffix_lens, CHECKPOINT_K);
    for v in &bounds {
        eprintln!("fleet_smoke: suffix bound: {v}");
    }
    report.check(
        "failover replay suffixes bounded by checkpoint interval K",
        bounds.is_empty(),
        &format!("{} violation(s)", bounds.len()),
    );

    // --- Finish every trajectory on the survivors.
    for (i, g) in globals.iter().enumerate() {
        let (_, steps, _) = descriptor(i);
        router.submit(*g, tick, steps).expect("submit rest");
        tick += u64::from(steps);
    }

    // --- Byte identity: served estimates equal solo replays exactly.
    let mut diverged = 0;
    for (i, g) in globals.iter().enumerate() {
        let (kind, steps, seed) = descriptor(i);
        let served = router.estimate(*g).expect("estimate");
        if served != solo_estimate(&shard_cfg(), kind, steps, seed) {
            eprintln!("fleet_smoke: session {g} diverged from solo replay");
            diverged += 1;
        }
    }
    let detail = format!("{diverged} of {SESSIONS} diverged");
    report.check(
        "served estimates byte-identical to solo",
        diverged == 0,
        &detail,
    );

    // --- Fleet trace shapes.
    let traces = router.take_traces();
    let roots = |name: &str| traces.iter().filter(|t| t.root.name == name).count();
    let (migrate_roots, failover_roots) = (roots("fleet.migrate"), roots("fleet.failover"));
    let detail = format!("{migrate_roots} root(s)");
    report.check("fleet.migrate trace recorded", migrate_roots >= 1, &detail);
    let detail = format!("{failover_roots} root(s)");
    report.check(
        "fleet.failover traces recorded",
        failover_roots >= 1,
        &detail,
    );
    let trace_violations: usize = traces.iter().map(|t| validate_trace(t).len()).sum();
    let detail = format!("{trace_violations} violation(s)");
    report.check(
        "fleet traces pass validate_trace",
        trace_violations == 0,
        &detail,
    );

    // --- Close everything, then journal-vs-dispatch coverage.
    for g in &globals {
        router.close(*g).expect("close");
    }
    let ledger = router.ledger().expect("journals read back");
    let torn = ledger.truncated_bytes;
    let detail = format!("{torn} torn byte(s)");
    report.check("journals read back untruncated", torn == 0, &detail);
    let stats = router.stats();
    let detail = format!("{} checkpoint(s)", stats.checkpoints);
    report.check("periodic checkpoints ran", stats.checkpoints > 0, &detail);
    report.check(
        "journal compaction ran and dropped records",
        stats.compactions > 0 && stats.compacted_records > 0,
        &format!(
            "{} run(s), {} record(s)",
            stats.compactions, stats.compacted_records
        ),
    );

    // Coverage runs after shutdown, over every shard's dispatch spans.
    router.shutdown();
    drop(router);
    let coverage = ledger.coverage(&shards);
    for v in &coverage {
        eprintln!("fleet_smoke: coverage: {v}");
    }
    let unplaced = coverage
        .iter()
        .filter(|v| v.detail.starts_with(UNPLACED_DISPATCH))
        .count();
    let detail = format!("{unplaced} unplaced dispatch(es)");
    report.check(
        "every dispatch maps to a fleet session",
        unplaced == 0,
        &detail,
    );
    let detail = format!("{} violation(s)", coverage.len());
    report.check(
        "zero lost admitted updates (coverage)",
        coverage.is_empty(),
        &detail,
    );

    drop(shards);
    let _ = std::fs::remove_dir_all(&journal_dir);
    report.finish("fleet_smoke")
}
