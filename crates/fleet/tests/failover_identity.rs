//! The fleet's headline failover drill: bring up three TCP shards, stream
//! mixed Manhattan/Sphere sessions through the router, kill a shard that
//! hosts sessions mid-stream, and require the survivors' final estimates
//! to be byte-identical to solo replays — i.e. checkpoint-plus-journal
//! failover loses nothing and perturbs nothing.

use supernova_fleet::{RouterConfig, Shard, ShardId, ShardRouter};
use supernova_serve::protocol::DatasetKind;
use supernova_serve::service::solo_estimate;
use supernova_serve::ServeConfig;

const SHARDS: u32 = 3;
const SESSIONS: usize = 6;

fn shard_cfg() -> ServeConfig {
    ServeConfig {
        workers: 2,
        max_sessions: SESSIONS + 2,
        queue_capacity: 256,
        degrade_start: 1 << 20, // degradation off: replay must be exact
        ..ServeConfig::default()
    }
}

fn descriptor(i: usize) -> (DatasetKind, u32, u64) {
    if i % 2 == 0 {
        (DatasetKind::Manhattan, 12, 700 + i as u64)
    } else {
        (DatasetKind::Sphere, 10, 800 + i as u64)
    }
}

#[test]
fn shard_kill_failover_is_bit_identical() {
    let journal_dir = std::env::temp_dir().join(format!("fleet-failover-{}", std::process::id()));
    let mut shards: Vec<Shard> = (0..SHARDS)
        .map(|i| Shard::spawn(ShardId(i), shard_cfg()).expect("bind shard"))
        .collect();
    let endpoints: Vec<_> = shards.iter().map(|s| (s.id(), s.addr())).collect();
    let mut router = ShardRouter::connect(
        RouterConfig::new(0xFA11_0000, journal_dir.clone()),
        &endpoints,
    )
    .expect("connect router");

    let globals: Vec<u64> = (0..SESSIONS)
        .map(|i| {
            let (kind, steps, seed) = descriptor(i);
            router.create_session(kind, steps, seed).expect("create")
        })
        .collect();

    // First half of every trajectory, then kill a hosting shard with the
    // second half still to come.
    let mut tick = 0u64;
    for (i, g) in globals.iter().enumerate() {
        let (_, steps, _) = descriptor(i);
        router.submit(*g, tick, steps / 2).expect("submit half");
        tick += u64::from(steps / 2);
    }
    let dead = router.shard_of(globals[1]).expect("routed");
    let victims = globals
        .iter()
        .filter(|g| router.shard_of(**g) == Some(dead))
        .count() as u64;
    assert!(victims > 0, "dead shard hosts no sessions");
    for shard in shards.iter_mut().filter(|s| s.id() == dead) {
        shard.kill();
    }
    let report = router.kill_shard(dead).expect("failover");
    assert_eq!(report.sessions, victims, "victims re-homed");
    for (i, g) in globals.iter().enumerate() {
        let (_, steps, _) = descriptor(i);
        router.submit(*g, tick, steps).expect("submit rest");
        tick += u64::from(steps);
    }

    for (i, g) in globals.iter().enumerate() {
        let (kind, steps, seed) = descriptor(i);
        let served = router.estimate(*g).expect("estimate");
        let solo = solo_estimate(&shard_cfg(), kind, steps, seed);
        assert_eq!(served, solo, "session {g} diverged from solo");
    }

    for g in &globals {
        router.close(*g).expect("close");
    }
    router.shutdown();
    drop(router);
    drop(shards);
    let _ = std::fs::remove_dir_all(&journal_dir);
}
