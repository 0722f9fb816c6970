//! The durable router state codec (`SNVR`).
//!
//! PR 8's router kept its books — the routing table, per-session
//! migration checkpoints, ring membership — only in memory, making the
//! router itself the fleet's single point of failure. This module gives
//! those books a durable home beside the shard journals: one `SNVR` file,
//! rewritten atomically (temp file + rename) after every *structural*
//! transition — connect, create, close, migration intent and completion,
//! failover, growth, compaction and restart.
//!
//! What is persisted and what is deliberately not:
//!
//! - **Persisted**: the ring seed and *epoch* (bumped on every membership
//!   change), the live and retired member sets, every open route's
//!   descriptor and replay floor (the update count of its latest
//!   checkpoint, as of the last write), the placement history (what maps
//!   shard-local dispatch ledgers back to fleet-global ids), lifetime
//!   stats, and at most one *pending migration* intent — the write-ahead
//!   record that makes migration crash-recoverable (see
//!   [`PendingMigration`]). The intent is the one record that carries
//!   checkpoint bytes: a roll-forward restores them.
//! - **Not persisted**: route checkpoint bytes and per-session admission
//!   cursors. A periodic checkpoint writes only its `Checkpoint` journal
//!   record, so the journals hold floors newer than this file's; the
//!   restart path takes each floor as the max of this file's and the
//!   journals', recomputes each cursor from the journal union (one record
//!   per admitted update), and then *re-verifies it against the live
//!   shard* with a fresh drain + snapshot, whose bytes become the route's
//!   checkpoint. Route bytes stored here would never be read.
//! - **Lifetime stats** are saved with each structural write, so a crash
//!   loses the counter increments (periodic checkpoints, above all) made
//!   since the last one.
//!
//! # On-disk format (version 2)
//!
//! ```text
//! header: "SNVR" | version u16 LE
//! body (all LE):
//!   seed u64 | epoch u64 | next_global u64
//!   members:  count u32 | shard u32 ...
//!   retired:  count u32 | shard u32 ...
//!   stats:    11 × u64 (see FleetStats field order in decode)
//!   routes:   count u32 | RouteRecord ...
//!   pending:  present u8 | PendingMigration
//!   placements: count u32 | (global u64 | shard u32 | local u64) ...
//! RouteRecord:
//!   global u64 | shard u32 | local u64 | kind u8 | steps u32 | seed u64
//!   | applied u64
//! PendingMigration:
//!   global u64 | source u32 | source_local u64 | target u32
//!   | target_local present u8 | target_local u64
//!   | applied u64 | len u32 | bytes
//! ```
//!
//! Version 1 also carried each route's SNVC bytes; this build refuses it
//! with [`StateError::BadVersion`].
//!
//! Decoding is panic-free: truncation, lying lengths and unknown
//! versions all surface as a typed [`StateError`], never a panic — the
//! same discipline as the `SNVJ` journal and `SNVC` checkpoint codecs.

use std::fs::File;
use std::io::{Read, Write};
use std::path::Path;

use supernova_trace::wire::{put_bytes, put_header, put_u32, put_u64, ReadError, Reader};

use crate::router::FleetStats;

/// Router state file magic.
pub const STATE_MAGIC: [u8; 4] = *b"SNVR";
/// State format version this build writes and reads.
pub const STATE_VERSION: u16 = 2;
/// Cap on any list's element count, so a lying count cannot drive a huge
/// allocation.
pub const MAX_STATE_LIST_LEN: usize = 1 << 22;

/// A typed state-file I/O or format failure. Decode paths never panic.
#[derive(Debug)]
pub enum StateError {
    /// Underlying file I/O failed.
    Io(std::io::Error),
    /// The file does not open with [`STATE_MAGIC`].
    BadMagic,
    /// The file's version is not [`STATE_VERSION`].
    BadVersion(u16),
    /// A length field exceeds its cap.
    TooLarge(u64),
    /// The body failed to parse (truncated or inconsistent).
    Malformed(&'static str),
}

impl std::fmt::Display for StateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StateError::Io(e) => write!(f, "router state I/O: {e}"),
            StateError::BadMagic => write!(f, "not a SNVR router state file (bad magic)"),
            StateError::BadVersion(v) => write!(
                f,
                "unsupported router state version {v} (this build reads {STATE_VERSION})"
            ),
            StateError::TooLarge(n) => {
                write!(f, "router state length field {n} exceeds its cap")
            }
            StateError::Malformed(why) => write!(f, "malformed router state: {why}"),
        }
    }
}

impl std::error::Error for StateError {}

impl From<std::io::Error> for StateError {
    fn from(e: std::io::Error) -> Self {
        StateError::Io(e)
    }
}

impl From<ReadError> for StateError {
    fn from(e: ReadError) -> Self {
        match e {
            ReadError::BadMagic => StateError::BadMagic,
            ReadError::BadVersion(v) => StateError::BadVersion(v),
            ReadError::TooLarge(n) => StateError::TooLarge(n),
            ReadError::Truncated => StateError::Malformed("truncated"),
            ReadError::TrailingBytes(_) => StateError::Malformed("trailing bytes"),
        }
    }
}

/// An engine checkpoint: SNVC bytes plus the update count they have
/// applied (the replay floor). The router keeps one per open route in
/// memory; the state file stores one only inside a [`PendingMigration`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CheckpointRecord {
    /// Updates the checkpoint has applied.
    pub applied: u64,
    /// Encoded SNVC bytes.
    pub bytes: Vec<u8>,
}

/// One open route as persisted: the session's replay descriptor, its
/// current home, and its replay floor. Closed sessions are not persisted —
/// their journal tombstones are the durable record.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RouteRecord {
    /// Fleet-global session id.
    pub global: u64,
    /// The shard currently hosting the session.
    pub shard: u32,
    /// Shard-local session id.
    pub local: u64,
    /// Dataset family code.
    pub kind: u8,
    /// Online steps in the replayed trajectory.
    pub steps: u32,
    /// Generator seed.
    pub seed: u64,
    /// Updates applied by the latest checkpoint as of this write
    /// (migration, periodic policy, or restart re-verification; 0 if none
    /// was taken). A later periodic checkpoint's floor is in the journals.
    pub applied: u64,
}

/// The write-ahead migration intent. Persisted *before* the restore on
/// the target shard, updated once the target acknowledges, cleared when
/// the route is repointed — so a router crash at any point inside
/// `migrate` leaves an unambiguous instruction:
///
/// - `target_local == None`: the target never acknowledged a restore —
///   roll *back* (the source still owns the session untouched);
/// - `target_local == Some(_)`: the target holds a restored copy — roll
///   *forward* (close the source, repoint, install the checkpoint floor).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PendingMigration {
    /// Fleet-global session id being migrated.
    pub global: u64,
    /// The source shard.
    pub source: u32,
    /// The session's local id on the source.
    pub source_local: u64,
    /// The target shard.
    pub target: u32,
    /// The session's local id on the target, once restore acknowledged.
    pub target_local: Option<u64>,
    /// The drained checkpoint being moved.
    pub checkpoint: CheckpointRecord,
}

/// One persisted placement event (see `router::Placement`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PlacementRecord {
    /// Fleet-global session id.
    pub global: u64,
    /// The shard the session landed on.
    pub shard: u32,
    /// The shard-local session id it got there.
    pub local: u64,
}

/// Everything a restarted router needs (minus journal-derived cursors).
#[derive(Clone, Debug, Default)]
pub struct RouterState {
    /// Ring seed.
    pub seed: u64,
    /// Ring epoch: bumped on every membership change (add or kill).
    pub epoch: u64,
    /// Next fleet-global session id.
    pub next_global: u64,
    /// Live member shard ids, ascending.
    pub members: Vec<u32>,
    /// Retired (dead) shard ids — their journals are read-only history
    /// and their ids must never be reused.
    pub retired: Vec<u32>,
    /// Lifetime counters.
    pub stats: FleetStats,
    /// Every open route.
    pub routes: Vec<RouteRecord>,
    /// At most one in-flight migration intent.
    pub pending: Option<PendingMigration>,
    /// Full placement history.
    pub placements: Vec<PlacementRecord>,
}

/// Serializes the state to SNVR bytes.
pub fn encode_state(state: &RouterState) -> Vec<u8> {
    let mut out = Vec::with_capacity(256);
    put_header(&mut out, &STATE_MAGIC, STATE_VERSION);
    put_u64(&mut out, state.seed);
    put_u64(&mut out, state.epoch);
    put_u64(&mut out, state.next_global);
    put_u32(&mut out, state.members.len() as u32);
    for m in &state.members {
        put_u32(&mut out, *m);
    }
    put_u32(&mut out, state.retired.len() as u32);
    for r in &state.retired {
        put_u32(&mut out, *r);
    }
    let s = &state.stats;
    for v in [
        s.sessions_created,
        s.migrations,
        s.failovers,
        s.failover_sessions,
        s.replayed_updates,
        s.journal_records,
        s.checkpoints,
        s.compactions,
        s.compacted_records,
        s.max_replay_suffix,
        s.state_writes,
    ] {
        put_u64(&mut out, v);
    }
    put_u32(&mut out, state.routes.len() as u32);
    for r in &state.routes {
        put_u64(&mut out, r.global);
        put_u32(&mut out, r.shard);
        put_u64(&mut out, r.local);
        out.push(r.kind);
        put_u32(&mut out, r.steps);
        put_u64(&mut out, r.seed);
        put_u64(&mut out, r.applied);
    }
    match &state.pending {
        Some(p) => {
            out.push(1);
            put_u64(&mut out, p.global);
            put_u32(&mut out, p.source);
            put_u64(&mut out, p.source_local);
            put_u32(&mut out, p.target);
            match p.target_local {
                Some(l) => {
                    out.push(1);
                    put_u64(&mut out, l);
                }
                None => {
                    out.push(0);
                    put_u64(&mut out, 0);
                }
            }
            put_u64(&mut out, p.checkpoint.applied);
            put_bytes(&mut out, &p.checkpoint.bytes);
        }
        None => out.push(0),
    }
    put_u32(&mut out, state.placements.len() as u32);
    for p in &state.placements {
        put_u64(&mut out, p.global);
        put_u32(&mut out, p.shard);
        put_u64(&mut out, p.local);
    }
    out
}

/// A list count, refused when the bytes left cannot hold that many
/// `elem_bytes`-byte elements or when it exceeds [`MAX_STATE_LIST_LEN`].
fn take_list_len(r: &mut Reader<'_>, elem_bytes: usize) -> Result<usize, StateError> {
    let n = r.count(elem_bytes)?;
    if n > MAX_STATE_LIST_LEN {
        return Err(StateError::TooLarge(n as u64));
    }
    Ok(n)
}

fn take_flag(r: &mut Reader<'_>, bad: &'static str) -> Result<bool, StateError> {
    match r.u8()? {
        0 => Ok(false),
        1 => Ok(true),
        _ => Err(StateError::Malformed(bad)),
    }
}

/// Parses SNVR bytes back into a [`RouterState`]. Never panics on
/// hostile input.
pub fn decode_state(bytes: &[u8]) -> Result<RouterState, StateError> {
    let mut r = Reader::new(bytes);
    r.header(&STATE_MAGIC, STATE_VERSION)?;
    let seed = r.u64()?;
    let epoch = r.u64()?;
    let next_global = r.u64()?;
    let n = take_list_len(&mut r, 4)?;
    let members = (0..n).map(|_| r.u32()).collect::<Result<_, _>>()?;
    let n = take_list_len(&mut r, 4)?;
    let retired = (0..n).map(|_| r.u32()).collect::<Result<_, _>>()?;
    let mut stat = || r.u64();
    let stats = FleetStats {
        sessions_created: stat()?,
        migrations: stat()?,
        failovers: stat()?,
        failover_sessions: stat()?,
        replayed_updates: stat()?,
        journal_records: stat()?,
        checkpoints: stat()?,
        compactions: stat()?,
        compacted_records: stat()?,
        max_replay_suffix: stat()?,
        state_writes: stat()?,
    };
    // global u64 | shard u32 | local u64 | kind u8 | steps u32 | seed u64
    // | applied u64
    let n = take_list_len(&mut r, 8 + 4 + 8 + 1 + 4 + 8 + 8)?;
    let mut routes = Vec::with_capacity(n);
    for _ in 0..n {
        routes.push(RouteRecord {
            global: r.u64()?,
            shard: r.u32()?,
            local: r.u64()?,
            kind: r.u8()?,
            steps: r.u32()?,
            seed: r.u64()?,
            applied: r.u64()?,
        });
    }
    let pending = match take_flag(&mut r, "pending: bad flag")? {
        false => None,
        // The target-local slot is written (as 0) even when absent.
        true => Some(PendingMigration {
            global: r.u64()?,
            source: r.u32()?,
            source_local: r.u64()?,
            target: r.u32()?,
            target_local: take_flag(&mut r, "pending: bad local flag")?.then_some(r.u64()?),
            // The byte length is bounded by the input: `bytes` borrows.
            checkpoint: CheckpointRecord {
                applied: r.u64()?,
                bytes: r.bytes()?.to_vec(),
            },
        }),
    };
    // global u64 | shard u32 | local u64
    let n = take_list_len(&mut r, 8 + 4 + 8)?;
    let mut placements = Vec::with_capacity(n);
    for _ in 0..n {
        placements.push(PlacementRecord {
            global: r.u64()?,
            shard: r.u32()?,
            local: r.u64()?,
        });
    }
    r.finish()?;
    Ok(RouterState {
        seed,
        epoch,
        next_global,
        members,
        retired,
        stats,
        routes,
        pending,
        placements,
    })
}

/// Atomically persists the state at `path`: written to `path` + `.tmp`
/// first, flushed, then renamed over — a crash mid-write leaves either
/// the old complete file or the new complete file, never a torn one.
pub fn save_state(path: &Path, state: &RouterState) -> Result<(), StateError> {
    let bytes = encode_state(state);
    let tmp = path.with_extension("snvr.tmp");
    {
        let mut f = File::create(&tmp)?;
        f.write_all(&bytes)?;
        f.flush()?;
    }
    std::fs::rename(&tmp, path)?;
    Ok(())
}

/// Loads and decodes the state file at `path`.
pub fn load_state(path: &Path) -> Result<RouterState, StateError> {
    let mut bytes = Vec::new();
    File::open(path)?.read_to_end(&mut bytes)?;
    decode_state(&bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RouterState {
        RouterState {
            seed: 0xF1EE7,
            epoch: 4,
            next_global: 17,
            members: vec![0, 2, 3],
            retired: vec![1],
            stats: FleetStats {
                sessions_created: 17,
                migrations: 3,
                failovers: 1,
                failover_sessions: 4,
                replayed_updates: 9,
                journal_records: 120,
                checkpoints: 6,
                compactions: 2,
                compacted_records: 33,
                max_replay_suffix: 3,
                state_writes: 41,
            },
            routes: vec![
                RouteRecord {
                    global: 11,
                    shard: 0,
                    local: 2,
                    kind: 0,
                    steps: 24,
                    seed: 311,
                    applied: 0,
                },
                RouteRecord {
                    global: 12,
                    shard: 2,
                    local: 0,
                    kind: 1,
                    steps: 18,
                    seed: 412,
                    applied: 9,
                },
            ],
            pending: Some(PendingMigration {
                global: 12,
                source: 2,
                source_local: 0,
                target: 3,
                target_local: Some(5),
                checkpoint: CheckpointRecord {
                    applied: 9,
                    bytes: vec![9, 9],
                },
            }),
            placements: vec![
                PlacementRecord {
                    global: 11,
                    shard: 0,
                    local: 2,
                },
                PlacementRecord {
                    global: 12,
                    shard: 2,
                    local: 0,
                },
            ],
        }
    }

    fn assert_state_eq(a: &RouterState, b: &RouterState) {
        assert_eq!(a.seed, b.seed);
        assert_eq!(a.epoch, b.epoch);
        assert_eq!(a.next_global, b.next_global);
        assert_eq!(a.members, b.members);
        assert_eq!(a.retired, b.retired);
        assert_eq!(format!("{:?}", a.stats), format!("{:?}", b.stats));
        assert_eq!(a.routes, b.routes);
        assert_eq!(a.pending, b.pending);
        assert_eq!(a.placements, b.placements);
    }

    #[test]
    fn round_trips() {
        let state = sample();
        let bytes = encode_state(&state);
        let decoded = decode_state(&bytes).expect("decode");
        assert_state_eq(&state, &decoded);

        let mut none_pending = sample();
        none_pending.pending = None;
        let decoded = decode_state(&encode_state(&none_pending)).expect("decode without pending");
        assert_state_eq(&none_pending, &decoded);
    }

    #[test]
    fn save_load_round_trips_atomically() {
        let dir = std::env::temp_dir().join(format!("snvr-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("router.snvr");
        let state = sample();
        save_state(&path, &state).expect("save");
        // A second save overwrites via rename; the tmp file must be gone.
        save_state(&path, &state).expect("re-save");
        assert!(!path.with_extension("snvr.tmp").exists());
        let loaded = load_state(&path).expect("load");
        assert_state_eq(&state, &loaded);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn header_corruption_is_typed() {
        let bytes = encode_state(&sample());
        let mut bad = bytes.clone();
        bad[0] ^= 0xFF;
        assert!(matches!(decode_state(&bad), Err(StateError::BadMagic)));
        let mut bad = bytes.clone();
        bad[4] = 0xEE;
        assert!(matches!(decode_state(&bad), Err(StateError::BadVersion(_))));
    }
}
