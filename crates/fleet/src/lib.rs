//! Fleet-scale serving for the SuperNoVA stack: shard routing, session
//! snapshot/restore migration, and crash-failover journal replay.
//!
//! The serve crate turns one solver stack into a server; this crate turns
//! N such servers into a *fleet* that a single front door coordinates:
//!
//! - [`ring`] — a seeded, dependency-free consistent-hash ring places
//!   every fleet-global session id on a shard. Placement is a pure
//!   function of the seed and the member set, and removing a shard
//!   remaps only that shard's sessions.
//! - [`journal`] — one durable append-only `SNVJ` journal per shard,
//!   written at admission and flushed per record: session descriptors,
//!   seq-stamped updates, close tombstones. Reads are panic-free and
//!   tolerate the half-written tail a crash leaves.
//! - [`shard`] — a serve backend behind its own TCP listener (the
//!   `serve_tcp` loop as a library), with a [`kill`](shard::Shard::kill)
//!   that models a crash: no drain, no goodbye.
//! - [`state`] — the router's own durable books: an atomic-rename `SNVR`
//!   state file beside the journals (routing table with replay floors,
//!   write-ahead migration intent with its checkpoint, ring epoch,
//!   lifetime counters), rewritten on structural transitions only, that
//!   makes the router itself crash-survivable.
//! - [`router`] — the coordinator: persistent hello-gated protocol-v2
//!   connections, journaled admission, live migration (drain → snapshot
//!   → restore → atomically repoint) behind a durable write-ahead
//!   intent, elastic [`add_shard`] rebalancing that moves only the
//!   minimal remap set, an every-K-updates checkpoint policy that bounds
//!   failover replay suffixes, read-back-verified journal compaction,
//!   and [`kill_shard`] failover that restores each victim session's
//!   latest checkpoint on a survivor and replays its journal suffix.
//!   Engine replay is bit-deterministic, so survivors end byte-identical
//!   to an uninterrupted run — zero admitted updates lost. A crashed
//!   router comes back via [`restore`], which replays its own state file
//!   and re-verifies every shard's journal cursor before accepting
//!   traffic. The zero-loss witness lives here too, once: [`ledger`]
//!   reads every journal a single time into a [`Ledger`], and
//!   [`Ledger::coverage`] checks it against the shards' dispatch spans
//!   (an unplaced dispatch is a violation).
//!
//! Binaries: `fleet_router` (a concurrent TCP front door speaking the
//! same wire protocol as `serve_tcp`, so clients need not know the fleet
//! exists; `--resume` restarts it over a previous instance's books),
//! `fleet_smoke` (the CI gate: 3 shards, a migration, a kill, byte-
//! identity and zero-loss asserts), and `load_gen` (the `--fleet` drill
//! behind `results/BENCH_fleet.json` and the `--chaos` drills: router restart
//! at both migration crash points, double-shard-kill, and
//! add-shard-under-load, each gated on bit-identity and zero loss). The
//! bins and tests judge bit-identity with `supernova_serve::service`'s
//! solo-replay oracle and zero loss with the [`Ledger`].
//!
//! [`kill_shard`]: router::ShardRouter::kill_shard
//! [`add_shard`]: router::ShardRouter::add_shard
//! [`restore`]: router::ShardRouter::restore
//! [`ledger`]: router::ShardRouter::ledger

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod journal;
pub mod ring;
pub mod router;
pub mod shard;
pub mod state;

pub use journal::{
    read_journal, read_journal_bytes, JournalContents, JournalEntry, JournalError, JournalWriter,
};
pub use ring::{HashRing, ShardId, VNODES_PER_SHARD};
pub use router::{
    CrashPoint, FailoverReport, FleetError, FleetStats, Ledger, Placement, RebalanceReport,
    RestartReport, RouterConfig, ShardRouter, UNPLACED_DISPATCH,
};
pub use shard::Shard;
pub use state::{
    decode_state, encode_state, load_state, save_state, CheckpointRecord, PendingMigration,
    PlacementRecord, RouteRecord, RouterState, StateError,
};
