//! Tier-1 coverage for the deployment-grade router: durable state
//! round-trips a router drop/restore with every cursor re-verified,
//! `add_shard` rebalances exactly the ring-minimal session set, periodic
//! checkpoints and journal compaction run under load — and none of it
//! perturbs a single estimate bit relative to solo replays or loses an
//! admitted update (the `Ledger` witness), while a dispatch the router
//! never placed is caught.

use supernova_fleet::{HashRing, RouterConfig, Shard, ShardId, ShardRouter, UNPLACED_DISPATCH};
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
