//! Tier-1 coverage for the deployment-grade router: durable state
//! round-trips a router drop/restore with every cursor re-verified,
//! `add_shard` rebalances exactly the ring-minimal session set, periodic
//! checkpoints and journal compaction run under load — and none of it
//! perturbs a single estimate bit relative to solo replays or loses an
//! admitted update (the `Ledger` witness), while a dispatch the router
//! never placed is caught. A restart also rebuilds a cursor that only a
//! replay floor accounts for — one held by a journal `Checkpoint` record,
//! or by the state file alone — and periodic checkpoints leave the state
//! file unwritten.

use supernova_fleet::{
    read_journal, HashRing, JournalEntry, RouterConfig, Shard, ShardId, ShardRouter,
    UNPLACED_DISPATCH,
};
use supernova_serve::protocol::DatasetKind;
use supernova_serve::service::{generate, solo_estimate};
use supernova_serve::{ServeConfig, UpdateRequest};

const SHARDS: u32 = 3;
const SESSIONS: usize = 6;
const STEPS: u32 = 6;
const SEED: u64 = 0xD0_0B1E;
const CHECKPOINT_K: u64 = 4;
const COMPACT_INTERVAL: u64 = 8;

fn shard_cfg() -> ServeConfig {
    ServeConfig {
        workers: 2,
        max_sessions: SESSIONS + 2,
        queue_capacity: 256,
        degrade_start: 1 << 20, // degradation off: replay must be exact
        ..ServeConfig::default()
    }
}

fn router_cfg(journal_dir: std::path::PathBuf) -> RouterConfig {
    RouterConfig {
        checkpoint_interval: CHECKPOINT_K,
        compact_interval: COMPACT_INTERVAL,
        ..RouterConfig::new(SEED, journal_dir)
    }
}

fn descriptor(i: usize) -> (DatasetKind, u32, u64) {
    if i % 2 == 0 {
        (DatasetKind::Manhattan, STEPS, 2_000 + i as u64)
    } else {
        (DatasetKind::Sphere, STEPS, 3_000 + i as u64)
    }
}

#[test]
fn router_restart_and_rebalance_round_trip_bit_identically() {
    let journal_dir =
        std::env::temp_dir().join(format!("fleet-durable-router-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&journal_dir);
    let mut shards: Vec<Shard> = (0..SHARDS)
        .map(|i| Shard::spawn(ShardId(i), shard_cfg()).expect("bind shard"))
        .collect();
    let endpoints: Vec<_> = shards.iter().map(|s| (s.id(), s.addr())).collect();
    let mut router =
        ShardRouter::connect(router_cfg(journal_dir.clone()), &endpoints).expect("connect");
    assert!(
        router.state_path().exists(),
        "durable state written on connect"
    );

    let globals: Vec<u64> = (0..SESSIONS)
        .map(|i| {
            let (kind, steps, seed) = descriptor(i);
            router.create_session(kind, steps, seed).expect("create")
        })
        .collect();
    let mut tick = 0u64;
    let half = STEPS / 2;
    for g in &globals {
        router.submit(*g, tick, half).expect("submit half");
        tick += u64::from(half);
    }
    let placements_before: Vec<_> = globals.iter().map(|g| router.shard_of(*g)).collect();
    let epoch_before = router.ring_epoch();

    // --- Crash: drop the router without shutdown; the shards (and the
    // books on disk) survive it.
    drop(router);
    let (mut router, report) =
        ShardRouter::restore(router_cfg(journal_dir.clone()), &endpoints).expect("restore");
    assert_eq!(
        report.sessions_verified,
        globals.len() as u64,
        "every open session cursor re-verified before traffic"
    );
    assert_eq!(
        report.pending_resolution, None,
        "no migration was in flight"
    );
    assert_eq!(
        router.ring_epoch(),
        epoch_before,
        "ring epoch survives restart"
    );
    let placements_after: Vec<_> = globals.iter().map(|g| router.shard_of(*g)).collect();
    assert_eq!(
        placements_before, placements_after,
        "placements survive restart"
    );

    // --- Elastic growth: a fourth shard joins mid-trajectory and claims
    // exactly the sessions the grown ring names.
    let mut grown = HashRing::new(SEED);
    for i in 0..=SHARDS {
        grown.add(ShardId(i));
    }
    let expected_movers = globals
        .iter()
        .filter(|g| {
            grown.route(**g) == Some(ShardId(SHARDS))
                && router.shard_of(**g) != Some(ShardId(SHARDS))
        })
        .count() as u64;
    // Into `shards` before `add_shard`, so a failure drops the router
    // first instead of hanging on the joiner's open connection.
    let joiner = Shard::spawn(ShardId(SHARDS), shard_cfg()).expect("bind joiner");
    let joiner_addr = joiner.addr();
    shards.push(joiner);
    let rebalance = router
        .add_shard(ShardId(SHARDS), joiner_addr)
        .expect("add shard");
    assert_eq!(rebalance.added, ShardId(SHARDS));
    assert_eq!(
        rebalance.sessions_remapped, expected_movers,
        "rebalance moved a non-minimal session set"
    );
    assert_eq!(
        rebalance.epoch,
        epoch_before + 1,
        "growth bumps the ring epoch"
    );
    for g in &globals {
        assert_eq!(
            router.shard_of(*g),
            grown.route(*g),
            "session {g} placement disagrees with the grown ring"
        );
    }

    // --- Finish every trajectory; estimates must match solo replays.
    for g in &globals {
        router.submit(*g, tick, STEPS).expect("submit rest");
        tick += u64::from(STEPS);
    }
    for (i, g) in globals.iter().enumerate() {
        let (kind, steps, seed) = descriptor(i);
        assert_eq!(
            router.estimate(*g).expect("estimate"),
            solo_estimate(&shard_cfg(), kind, steps, seed),
            "session {g} diverged after restart + rebalance"
        );
    }
    let stats = router.stats();
    assert!(stats.checkpoints > 0, "periodic checkpointer never ran");
    assert!(
        stats.compactions > 0 && stats.compacted_records > 0,
        "journal compactor never ran (compactions={}, dropped={})",
        stats.compactions,
        stats.compacted_records
    );
    for g in &globals {
        router.close(*g).expect("close");
    }

    // --- Zero loss across the restart and the rebalance. Then a dispatch
    // the router never placed — a session created straight on a shard's
    // server — is a violation naming that shard and local session.
    let ledger = router.ledger().expect("journals read back");
    assert_eq!(ledger.truncated_bytes, 0, "torn journal bytes");
    router.shutdown();
    drop(router);
    assert_eq!(ledger.coverage(&shards), Vec::new(), "routed run is clean");
    let rogue = shards[0].server();
    let local = rogue.create_session().expect("free slot");
    let step = generate(DatasetKind::Manhattan, 2, 1)
        .online_steps()
        .remove(0);
    let update = UpdateRequest::new(0, step.truth, step.factors);
    rogue.submit(local, update).expect("admitted");
    rogue.drain(local).expect("live");
    let coverage = ledger.coverage(&shards);
    let named = format!(
        "{UNPLACED_DISPATCH}: {} ran local session {} seq 0",
        shards[0].id(),
        local.0
    );
    assert!(
        coverage.len() == 1 && coverage[0].detail.starts_with(&named),
        "expected one violation starting {named:?}, got {coverage:?}"
    );
    drop(shards);
    let _ = std::fs::remove_dir_all(&journal_dir);
}

/// Every journal record of `session` on `shard`, in file order.
fn records_of(router: &ShardRouter, shard: ShardId, session: u64) -> Vec<JournalEntry> {
    let (_, path) = router
        .journal_paths()
        .into_iter()
        .find(|(id, _)| *id == shard)
        .expect("shard has a journal");
    read_journal(&path)
        .expect("journal reads back")
        .entries
        .into_iter()
        .filter(|e| {
            let owner = match *e {
                JournalEntry::Create { session, .. }
                | JournalEntry::Update { session, .. }
                | JournalEntry::Checkpoint { session, .. }
                | JournalEntry::Tombstone { session, .. } => session,
            };
            owner == session
        })
        .collect()
}

#[test]
fn restarts_rebuild_cursors_from_floors_alone_and_failover_stays_exact() {
    let journal_dir =
        std::env::temp_dir().join(format!("fleet-durable-floors-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&journal_dir);
    let mut shards: Vec<Shard> = (0..SHARDS)
        .map(|i| Shard::spawn(ShardId(i), shard_cfg()).expect("bind shard"))
        .collect();
    let endpoints: Vec<_> = shards.iter().map(|s| (s.id(), s.addr())).collect();
    let mut router =
        ShardRouter::connect(router_cfg(journal_dir.clone()), &endpoints).expect("connect");
    let (kind, steps, seed) = (DatasetKind::Manhattan, 16, 0xF100);
    let g = router.create_session(kind, steps, seed).expect("create");
    let home = router.shard_of(g).expect("routed");
    let mut tick = 0u64;

    // A window of submits whose only side effect beyond the journal is one
    // periodic checkpoint: 1 create + 4 updates + 1 floor record stay
    // under the compaction trigger, and the state file is not rewritten.
    let before = router.stats();
    for _ in 0..CHECKPOINT_K {
        assert_eq!(router.submit(g, tick, 1).expect("submit"), 1);
        tick += 1;
    }
    let after = router.stats();
    assert_eq!(
        after.checkpoints,
        before.checkpoints + 1,
        "one periodic checkpoint"
    );
    assert_eq!(
        after.compactions, before.compactions,
        "no compaction in the window"
    );
    assert_eq!(
        after.state_writes, before.state_writes,
        "a periodic checkpoint rewrote the state file"
    );

    // The next K updates end in a checkpoint at cursor 8 and then a
    // compaction (11 appends >= 8), which drops every update below the
    // floor: the journal holds the floor and nothing past it.
    router.submit(g, tick, CHECKPOINT_K as u32).expect("submit");
    tick += CHECKPOINT_K;
    let floor = 2 * CHECKPOINT_K;
    let stats = router.stats();
    assert_eq!(
        stats.compactions, 1,
        "the second checkpoint's submit compacts"
    );
    assert_eq!(
        stats.state_writes,
        after.state_writes + 1,
        "compaction is a state write"
    );
    let kept = records_of(&router, home, g);
    assert!(
        matches!(kept[..], [JournalEntry::Create { .. }, JournalEntry::Checkpoint { floor: f, .. }] if f == floor),
        "compaction kept {kept:?}"
    );

    // Crash right after the compaction. The restart's re-verification
    // passes only if the cursor is rebuilt as the floor, and journals it.
    drop(router);
    let (mut router, report) =
        ShardRouter::restore(router_cfg(journal_dir.clone()), &endpoints).expect("restore");
    assert_eq!(report.sessions_verified, 1);
    assert!(
        matches!(records_of(&router, home, g).last(), Some(JournalEntry::Checkpoint { floor: f, .. }) if *f == floor),
        "restart re-verified at a cursor other than the floor {floor}"
    );

    // Two updates past the floor, then a migration: its checkpoint (floor
    // 10) is journaled nowhere. Compacting the source drops the session's
    // records there, so the floor lives only in the state file until the
    // target compacts.
    router.submit(g, tick, 2).expect("submit");
    tick += 2;
    let floor = floor + 2;
    let target = *router
        .live_shards()
        .iter()
        .find(|s| **s != home)
        .expect("another shard");
    router.migrate(g, target).expect("migrate");
    router.compact_shard(home).expect("compact the source");
    assert_eq!(
        records_of(&router, home, g),
        Vec::new(),
        "source still holds the session"
    );
    assert!(
        matches!(
            records_of(&router, target, g)[..],
            [JournalEntry::Create { .. }]
        ),
        "the target journal holds only the arrival"
    );

    // Crash right after the migration.
    drop(router);
    let (mut router, report) =
        ShardRouter::restore(router_cfg(journal_dir.clone()), &endpoints).expect("restore");
    assert_eq!(report.sessions_verified, 1);
    assert_eq!(
        router.shard_of(g),
        Some(target),
        "migration survives restart"
    );
    assert!(
        matches!(records_of(&router, target, g).last(), Some(JournalEntry::Checkpoint { floor: f, .. }) if *f == floor),
        "restart re-verified at a cursor other than the floor {floor}"
    );

    // Three updates past the restart's floor, then the session's shard
    // dies with them queued: failover replays exactly that suffix.
    router.submit(g, tick, 3).expect("submit");
    tick += 3;
    for shard in shards.iter_mut().filter(|s| s.id() == target) {
        shard.kill();
    }
    let failover = router.kill_shard(target).expect("failover");
    assert_eq!(failover.sessions, 1);
    assert_eq!(failover.max_replay_suffix, 3);
    assert!(failover.max_replay_suffix <= CHECKPOINT_K);
    router.submit(g, tick, steps).expect("submit rest");
    assert_eq!(
        router.estimate(g).expect("estimate"),
        solo_estimate(&shard_cfg(), kind, steps, seed),
        "session diverged from its solo replay across two restarts and a failover"
    );
    router.close(g).expect("close");

    let ledger = router.ledger().expect("journals read back");
    router.shutdown();
    drop(router);
    assert_eq!(
        ledger.coverage(&shards),
        Vec::new(),
        "zero admitted updates lost"
    );
    drop(shards);
    let _ = std::fs::remove_dir_all(&journal_dir);
}
