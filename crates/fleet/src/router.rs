//! The shard router: consistent-hash placement, live migration, elastic
//! resharding, and crash failover over a fleet of
//! [`Shard`]-style backends.
//!
//! The router is the fleet's only stateful coordinator. It owns:
//!
//! - the seeded [`HashRing`] that places every fleet-global session id on
//!   a shard (deterministic: same seed + same member set = same
//!   placement), plus a *ring epoch* bumped on every membership change;
//! - one persistent hello-gated protocol-v2 connection per shard;
//! - one durable [`journal`](crate::journal) per shard, appended at
//!   admission time (create descriptors, seq-stamped updates, checkpoint
//!   floors, close tombstones) and flushed record-by-record;
//! - the latest checkpoint taken for each session — from migrations, the
//!   periodic every-K-updates policy, or restart re-verification — which
//!   is the floor failover replays from;
//! - its own durable books: an [`SNVR` state file](crate::state) beside
//!   the journals, rewritten atomically after every mutation, so a router
//!   crash is survivable ([`ShardRouter::restore`]).
//!
//! **Migration** drains the in-flight step via `Snapshot` (the shard
//! drains the session before checkpointing), writes a *pending-migration
//! intent* to the state file, restores the checkpoint on the target,
//! updates the intent, then closes the source session and atomically
//! repoints the route. A crash anywhere inside leaves an unambiguous
//! instruction for restart: roll back if the target never acknowledged,
//! roll forward if it did. **Failover** ([`ShardRouter::kill_shard`])
//! removes the dead shard from the ring, reads its journal back from
//! disk, and for every live session it hosted: restores the latest
//! checkpoint on the survivor the ring now names, replays the journal
//! suffix (every admitted update at or past the checkpoint floor, with
//! its original deadline), and re-journals that suffix into the
//! survivor's journal. The periodic checkpoint policy bounds that suffix
//! below [`RouterConfig::checkpoint_interval`]. **Resharding**
//! ([`ShardRouter::add_shard`]) connects a new member, bumps the epoch,
//! and live-migrates exactly the minimal remap set — the open sessions
//! whose ring placement lands on the new shard's vnodes. **Compaction**
//! ([`ShardRouter::compact_shard`]) rewrites a journal dropping
//! tombstoned sessions' records and updates below each open session's
//! checkpoint floor, read-back-verified before the rename.
//!
//! Because engine replay is bit-deterministic, every recovery path ends
//! with estimates byte-identical to an uninterrupted run — zero admitted
//! updates lost. Both migration and failover emit `fleet.migrate` /
//! `fleet.failover` span trees (`supernova-trace`) that
//! `supernova_analyze::validate_trace` checks structurally.

use std::collections::BTreeMap;
use std::io::{BufWriter, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;

use supernova_analyze::{
    validate_fleet_coverage_with_floors, FleetJournalEntry, FleetSessionFloor, Invariant,
    ScheduleViolation,
};
use supernova_linalg::NumericMode;
use supernova_serve::checkpoint::{encode_snapshot, CheckpointError};
use supernova_serve::protocol::{
    recv_response, send_request, DatasetKind, Request, Response, WireError, PROTOCOL_VERSION,
};
use supernova_solvers::EngineSnapshot;
use supernova_trace::{epoch_seconds, Category, Span, StepKey, Trace};

use crate::journal::{read_journal, JournalEntry, JournalError, JournalWriter};
use crate::ring::{HashRing, ShardId};
use crate::shard::Shard;
use crate::state::{
    load_state, save_state, CheckpointRecord, PendingMigration, PlacementRecord, RouteRecord,
    RouterState, StateError,
};

/// A typed fleet-layer failure. The router never panics on shard or
/// journal misbehaviour.
#[derive(Debug)]
pub enum FleetError {
    /// Transport or framing failure on a shard connection.
    Wire(WireError),
    /// Local file I/O failed.
    Io(std::io::Error),
    /// The durable journal could not be written or read back.
    Journal(JournalError),
    /// The durable router state (SNVR) could not be written or read back.
    State(StateError),
    /// Checkpoint encode/decode failed router-side.
    Checkpoint(CheckpointError),
    /// A shard answered with a protocol error response.
    Remote(String),
    /// A shard answered with the wrong response variant, or its state
    /// disagrees with the router's books.
    Desync(&'static str),
    /// The shard refused the version handshake (`None` = no hello frame
    /// came back at all).
    ProtocolMismatch(Option<u8>),
    /// No such fleet-global session.
    UnknownSession(u64),
    /// The session is closed.
    SessionClosed(u64),
    /// No such shard in the fleet.
    UnknownShard(ShardId),
    /// The shard id is already a live member or a retired (dead) one —
    /// ids are never reused, so their journals stay unambiguous.
    DuplicateShard(ShardId),
    /// Every shard is gone; nothing can be placed.
    NoShards,
    /// A shard shed admitted work. Fleet queues are sized so this never
    /// happens; seeing it is a configuration error, not load shedding.
    Shed {
        /// The session whose updates were shed.
        session: u64,
        /// How many updates the shard's queue refused.
        shed: u32,
    },
    /// A chaos-drill crash point fired (see
    /// [`ShardRouter::inject_crash`]): the router must now be treated as
    /// crashed — dropped without shutdown and brought back via
    /// [`ShardRouter::restore`].
    CrashInjected(&'static str),
}

impl std::fmt::Display for FleetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FleetError::Wire(e) => write!(f, "shard connection: {e}"),
            FleetError::Io(e) => write!(f, "fleet I/O: {e}"),
            FleetError::Journal(e) => write!(f, "fleet journal: {e}"),
            FleetError::State(e) => write!(f, "fleet router state: {e}"),
            FleetError::Checkpoint(e) => write!(f, "fleet checkpoint: {e}"),
            FleetError::Remote(msg) => write!(f, "shard error: {msg}"),
            FleetError::Desync(why) => write!(f, "router/shard desync: {why}"),
            FleetError::ProtocolMismatch(v) => match v {
                Some(v) => write!(
                    f,
                    "shard speaks protocol version {v}, not {PROTOCOL_VERSION}"
                ),
                None => write!(f, "shard did not answer the version hello"),
            },
            FleetError::UnknownSession(s) => write!(f, "unknown fleet session {s}"),
            FleetError::SessionClosed(s) => write!(f, "fleet session {s} is closed"),
            FleetError::UnknownShard(s) => write!(f, "unknown shard {s}"),
            FleetError::DuplicateShard(s) => {
                write!(f, "{s} is already a fleet member (or a retired id)")
            }
            FleetError::NoShards => write!(f, "no live shards remain"),
            FleetError::Shed { session, shed } => write!(
                f,
                "shard shed {shed} update(s) of session {session}; fleet queues must be \
                 sized so admission never sheds"
            ),
            FleetError::CrashInjected(point) => {
                write!(f, "injected router crash at {point}")
            }
        }
    }
}

impl std::error::Error for FleetError {}

impl From<WireError> for FleetError {
    fn from(e: WireError) -> Self {
        FleetError::Wire(e)
    }
}

impl From<std::io::Error> for FleetError {
    fn from(e: std::io::Error) -> Self {
        FleetError::Io(e)
    }
}

impl From<JournalError> for FleetError {
    fn from(e: JournalError) -> Self {
        FleetError::Journal(e)
    }
}

impl From<StateError> for FleetError {
    fn from(e: StateError) -> Self {
        FleetError::State(e)
    }
}

impl From<CheckpointError> for FleetError {
    fn from(e: CheckpointError) -> Self {
        FleetError::Checkpoint(e)
    }
}

/// Router configuration.
#[derive(Clone, Debug)]
pub struct RouterConfig {
    /// Ring seed: placement is a pure function of this and the member
    /// set, so a restarted router re-derives identical routes.
    pub seed: u64,
    /// The numeric mode every shard runs (checkpoints carry theirs and
    /// shards refuse a mismatch; the router needs it to synthesize the
    /// empty checkpoint for never-checkpointed sessions on failover).
    pub numeric: NumericMode,
    /// Directory the per-shard journals and the `router.snvr` state file
    /// live in (created if absent).
    pub journal_dir: PathBuf,
    /// The periodic checkpoint policy's K: once a session has admitted
    /// `K` or more updates past its checkpoint floor, the end of that
    /// `submit` call snapshots it — so a failover replay suffix is never
    /// longer than `K`. `0` disables periodic checkpoints (migration and
    /// restart checkpoints still advance floors).
    pub checkpoint_interval: u64,
    /// Journal compaction trigger: once a shard's journal has grown by
    /// this many appended records, the next `submit`/`close` touching it
    /// compacts the file (drop tombstoned sessions and records below
    /// checkpoint floors, keep tombstones and floor records as
    /// witnesses). `0` disables automatic compaction;
    /// [`ShardRouter::compact_shard`] stays available manually.
    pub compact_interval: u64,
}

/// One (session → shard) placement event, in order: the initial route,
/// then one entry per migration or failover. `local` is the shard-side
/// session id, which is what the shard's dispatch ledger records.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Placement {
    /// Fleet-global session id.
    pub global: u64,
    /// The shard the session landed on.
    pub shard: ShardId,
    /// The shard-local session id it got there.
    pub local: u64,
}

/// Fleet lifetime counters.
#[derive(Clone, Copy, Debug, Default)]
pub struct FleetStats {
    /// Sessions ever created.
    pub sessions_created: u64,
    /// Completed live migrations (including rebalancing migrations and
    /// crash-recovered roll-forwards).
    pub migrations: u64,
    /// `kill_shard` failovers performed.
    pub failovers: u64,
    /// Sessions re-homed by failovers.
    pub failover_sessions: u64,
    /// Journal updates replayed into survivors by failovers.
    pub replayed_updates: u64,
    /// Journal records appended across all shards (including failover
    /// re-journaling). After a router restart this restarts from the
    /// records actually on disk, which a compaction may have shrunk.
    pub journal_records: u64,
    /// Checkpoints taken (migration + periodic policy + restart
    /// re-verification).
    pub checkpoints: u64,
    /// Journal compactions performed.
    pub compactions: u64,
    /// Journal records dropped by compactions.
    pub compacted_records: u64,
    /// The longest journal suffix any single failover replayed for one
    /// session — the periodic checkpoint policy bounds this at
    /// [`RouterConfig::checkpoint_interval`].
    pub max_replay_suffix: u64,
}

/// What one `kill_shard` recovery did.
#[derive(Clone, Debug)]
pub struct FailoverReport {
    /// The shard that died.
    pub dead: ShardId,
    /// Live sessions it hosted, all re-homed.
    pub sessions: u64,
    /// Journal updates replayed into survivors.
    pub replayed_updates: u64,
    /// Per-session replayed suffix lengths, `(session, length)` — the
    /// input `supernova_analyze::validate_checkpoint_bounds` gates.
    pub suffix_lens: Vec<(u64, u64)>,
    /// The longest single-session suffix replayed.
    pub max_replay_suffix: u64,
}

/// What one `add_shard` rebalance did.
#[derive(Clone, Copy, Debug)]
pub struct RebalanceReport {
    /// The shard that joined.
    pub added: ShardId,
    /// Open sessions live-migrated onto it (exactly the sessions whose
    /// ring placement lands on the new shard's vnodes — the minimal
    /// remap set).
    pub sessions_remapped: u64,
    /// The ring epoch after the join.
    pub epoch: u64,
}

/// What a [`ShardRouter::restore`] restart did before accepting traffic.
#[derive(Clone, Copy, Debug)]
pub struct RestartReport {
    /// Open sessions whose journal-derived cursor was re-verified
    /// against the live shard (and re-checkpointed).
    pub sessions_verified: u64,
    /// How an interrupted migration intent was resolved, if one was
    /// pending: `"rolled-back"` or `"rolled-forward"`.
    pub pending_resolution: Option<&'static str>,
}

/// A chaos-drill crash point inside [`ShardRouter::migrate`] (see
/// [`ShardRouter::inject_crash`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CrashPoint {
    /// After the pending-migration intent is durable, before the restore
    /// is sent to the target: restart must roll the migration *back*.
    MigrateAfterIntent,
    /// After the target acknowledged the restore, before the source is
    /// closed and the route repointed: restart must roll *forward*.
    MigrateAfterRestore,
}

impl CrashPoint {
    fn name(self) -> &'static str {
        match self {
            CrashPoint::MigrateAfterIntent => "migrate:after-intent",
            CrashPoint::MigrateAfterRestore => "migrate:after-restore",
        }
    }
}

struct Checkpoint {
    /// Updates the checkpoint has applied (the failover replay floor).
    applied: u64,
    /// Encoded SNVC bytes.
    bytes: Vec<u8>,
}

struct Route {
    shard: ShardId,
    local: u64,
    kind: DatasetKind,
    steps: u32,
    seed: u64,
    /// Updates admitted so far (the session's global seq cursor; equals
    /// the shard's replay cursor at all times).
    cursor: u64,
    closed: bool,
    checkpoint: Option<Checkpoint>,
}

impl Route {
    fn floor(&self) -> u64 {
        self.checkpoint.as_ref().map_or(0, |c| c.applied)
    }
}

struct ShardConn {
    reader: TcpStream,
    writer: BufWriter<TcpStream>,
    journal: JournalWriter,
}

impl ShardConn {
    fn call(&mut self, req: &Request) -> Result<Response, FleetError> {
        send_request(&mut self.writer, req)?;
        self.writer.flush()?;
        match recv_response(&mut self.reader)? {
            Response::Error(msg) => Err(FleetError::Remote(msg)),
            rsp => Ok(rsp),
        }
    }
}

/// Dials a shard and performs the version hello.
fn dial(addr: &SocketAddr) -> Result<(TcpStream, BufWriter<TcpStream>), FleetError> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    let mut reader = stream.try_clone()?;
    let mut writer = BufWriter::new(stream);
    send_request(
        &mut writer,
        &Request::Hello {
            version: PROTOCOL_VERSION,
        },
    )?;
    writer.flush()?;
    match recv_response(&mut reader)? {
        Response::Hello { version } if version == PROTOCOL_VERSION => Ok((reader, writer)),
        Response::Hello { version } => Err(FleetError::ProtocolMismatch(Some(version))),
        Response::Error(msg) => Err(FleetError::Remote(msg)),
        _ => Err(FleetError::ProtocolMismatch(None)),
    }
}

/// The fleet coordinator. Logically single-threaded by design — the
/// concurrent front door serializes requests through one lock — so
/// placement, journal order and failover are all deterministic given the
/// request sequence.
pub struct ShardRouter {
    cfg: RouterConfig,
    ring: HashRing,
    /// Ring epoch: bumped on every membership change (add or kill).
    epoch: u64,
    conns: BTreeMap<ShardId, ShardConn>,
    /// Journals of shards that have died, kept for post-mortem reads.
    retired_journals: Vec<(ShardId, PathBuf)>,
    routes: BTreeMap<u64, Route>,
    placements: Vec<Placement>,
    next_global: u64,
    traces: Vec<Trace>,
    stats: FleetStats,
    /// At most one in-flight migration intent (write-ahead, durable).
    pending: Option<PendingMigration>,
    /// Per-shard records appended since the last compaction.
    appends_since_compact: BTreeMap<ShardId, u64>,
    /// Armed chaos-drill crash point (see [`ShardRouter::inject_crash`]).
    crash_point: Option<CrashPoint>,
}

impl ShardRouter {
    /// Connects to every shard (version hello on each), creates the
    /// per-shard journals, builds the placement ring, and persists the
    /// initial state file. A *fresh* start: existing journals and state
    /// at `journal_dir` are truncated — restarting over a previous run's
    /// books is [`ShardRouter::restore`]'s job.
    pub fn connect(
        cfg: RouterConfig,
        shards: &[(ShardId, SocketAddr)],
    ) -> Result<Self, FleetError> {
        if shards.is_empty() {
            return Err(FleetError::NoShards);
        }
        std::fs::create_dir_all(&cfg.journal_dir)?;
        let mut ring = HashRing::new(cfg.seed);
        let mut conns = BTreeMap::new();
        for (id, addr) in shards {
            let (reader, writer) = dial(addr)?;
            let journal_path = cfg.journal_dir.join(format!("shard-{}.snvj", id.0));
            let journal = JournalWriter::create(&journal_path, u64::from(id.0))?;
            ring.add(*id);
            conns.insert(
                *id,
                ShardConn {
                    reader,
                    writer,
                    journal,
                },
            );
        }
        let router = ShardRouter {
            cfg,
            ring,
            epoch: 0,
            conns,
            retired_journals: Vec::new(),
            routes: BTreeMap::new(),
            placements: Vec::new(),
            next_global: 0,
            traces: Vec::new(),
            stats: FleetStats::default(),
            pending: None,
            appends_since_compact: BTreeMap::new(),
            crash_point: None,
        };
        router.persist()?;
        Ok(router)
    }

    /// Restarts a router over the durable books a previous instance left
    /// at `cfg.journal_dir`: loads the SNVR state file, re-dials every
    /// member shard, reopens the journals in append mode (truncating any
    /// torn tail), recomputes every open session's admission cursor from
    /// the journal union, resolves an interrupted migration (roll back
    /// or roll forward per the pending intent), and then *re-verifies
    /// every open session against its live shard* — a drain + snapshot
    /// whose applied count must equal the journal-derived cursor — before
    /// returning. Each verification checkpoint becomes the session's new
    /// replay floor, so a restart also re-bounds every failover suffix.
    pub fn restore(
        cfg: RouterConfig,
        shards: &[(ShardId, SocketAddr)],
    ) -> Result<(Self, RestartReport), FleetError> {
        let state_path = cfg.journal_dir.join("router.snvr");
        let st = load_state(&state_path)?;
        if st.seed != cfg.seed {
            return Err(FleetError::Desync(
                "restore: ring seed disagrees with the state file",
            ));
        }
        let offered: BTreeMap<ShardId, SocketAddr> =
            shards.iter().map(|(id, addr)| (*id, *addr)).collect();
        let mut ring = HashRing::new(st.seed);
        let mut conns = BTreeMap::new();
        for m in &st.members {
            let id = ShardId(*m);
            let addr = offered.get(&id).ok_or(FleetError::UnknownShard(id))?;
            let (reader, writer) = dial(addr)?;
            let journal_path = cfg.journal_dir.join(format!("shard-{}.snvj", id.0));
            let journal = JournalWriter::open_append(&journal_path, u64::from(id.0))?;
            ring.add(id);
            conns.insert(
                id,
                ShardConn {
                    reader,
                    writer,
                    journal,
                },
            );
        }
        if offered.len() != st.members.len() {
            return Err(FleetError::Desync(
                "restore: offered endpoints do not match the persisted member set",
            ));
        }
        let retired_journals: Vec<(ShardId, PathBuf)> = st
            .retired
            .iter()
            .map(|r| (ShardId(*r), cfg.journal_dir.join(format!("shard-{r}.snvj"))))
            .collect();

        // Cursors are journal-derived, not state-derived: one admitted
        // update = one durable record, so `max seq + 1` over the journal
        // union (live and retired shards alike) is the admission cursor.
        let mut next_seq: BTreeMap<u64, u64> = BTreeMap::new();
        let mut records_on_disk = 0u64;
        for (_, path) in conns
            .iter()
            .map(|(id, c)| (*id, c.journal.path().to_path_buf()))
            .chain(retired_journals.iter().cloned())
        {
            let contents = read_journal(&path)?;
            records_on_disk += contents.entries.len() as u64;
            for entry in &contents.entries {
                if let JournalEntry::Update { session, seq, .. } = entry {
                    let slot = next_seq.entry(*session).or_insert(0);
                    *slot = (*slot).max(seq + 1);
                }
            }
        }

        let mut routes = BTreeMap::new();
        for r in &st.routes {
            let kind = DatasetKind::from_code(r.kind)
                .map_err(|_| FleetError::Desync("restore: unknown dataset kind in state"))?;
            let floor = r.checkpoint.as_ref().map_or(0, |c| c.applied);
            let cursor = floor.max(next_seq.get(&r.global).copied().unwrap_or(0));
            routes.insert(
                r.global,
                Route {
                    shard: ShardId(r.shard),
                    local: r.local,
                    kind,
                    steps: r.steps,
                    seed: r.seed,
                    cursor,
                    closed: false,
                    checkpoint: r.checkpoint.as_ref().map(|c| Checkpoint {
                        applied: c.applied,
                        bytes: c.bytes.clone(),
                    }),
                },
            );
        }
        let mut stats = st.stats;
        stats.journal_records = records_on_disk;

        let mut router = ShardRouter {
            cfg,
            ring,
            epoch: st.epoch,
            conns,
            retired_journals,
            routes,
            placements: st
                .placements
                .iter()
                .map(|p| Placement {
                    global: p.global,
                    shard: ShardId(p.shard),
                    local: p.local,
                })
                .collect(),
            next_global: st.next_global,
            traces: Vec::new(),
            stats,
            pending: st.pending.clone(),
            appends_since_compact: BTreeMap::new(),
            crash_point: None,
        };
        let pending_resolution = router.resolve_pending()?;

        // Re-verify every open session before accepting traffic: drain +
        // snapshot on its shard must agree with the journal-derived
        // cursor. The fresh checkpoint becomes the new replay floor.
        let opens: Vec<u64> = router.routes.keys().copied().collect();
        for global in &opens {
            router.verify_and_checkpoint(*global)?;
        }
        router.persist()?;
        Ok((
            router,
            RestartReport {
                sessions_verified: opens.len() as u64,
                pending_resolution,
            },
        ))
    }

    /// Resolves a pending migration intent found at restart (see
    /// [`PendingMigration`]): roll back if the target never acknowledged
    /// the restore, roll forward (close source, journal the target
    /// create, repoint, install the checkpoint floor) if it did.
    fn resolve_pending(&mut self) -> Result<Option<&'static str>, FleetError> {
        let Some(p) = self.pending.take() else {
            return Ok(None);
        };
        let Some(new_local) = p.target_local else {
            // The target never acknowledged a restore: the source still
            // owns the session untouched. Nothing to undo.
            return Ok(Some("rolled-back"));
        };
        let global = p.global;
        let target = ShardId(p.target);
        let source = ShardId(p.source);
        // The source copy is now stale (the target holds the drained
        // checkpoint); close it if the source is still reachable. A
        // failure here only means the source already lost it.
        if let Ok(conn) = self.conn(source) {
            let _ = conn.call(&Request::Close {
                session: p.source_local,
            });
        }
        let route = self
            .routes
            .get(&global)
            .ok_or(FleetError::UnknownSession(global))?;
        let (kind, steps, seed) = (route.kind, route.steps, route.seed);
        self.journal_append(
            target,
            &JournalEntry::Create {
                session: global,
                kind: kind.code(),
                steps,
                seed,
            },
        )?;
        if let Some(route) = self.routes.get_mut(&global) {
            route.shard = target;
            route.local = new_local;
            route.checkpoint = Some(Checkpoint {
                applied: p.checkpoint.applied,
                bytes: p.checkpoint.bytes,
            });
        }
        self.placements.push(Placement {
            global,
            shard: target,
            local: new_local,
        });
        self.stats.migrations += 1;
        Ok(Some("rolled-forward"))
    }

    /// Drain + snapshot one open session and require the shard's applied
    /// count to equal the router's cursor; the checkpoint becomes the new
    /// replay floor (journaled as a floor record).
    fn verify_and_checkpoint(&mut self, global: u64) -> Result<u64, FleetError> {
        let route = self.open_route(global)?;
        let (shard, local, cursor) = (route.shard, route.local, route.cursor);
        let (snap_cursor, applied, bytes) = match self
            .conn(shard)?
            .call(&Request::Snapshot { session: local })?
        {
            Response::Snapshot {
                cursor,
                applied,
                checkpoint,
                ..
            } => (cursor, applied, checkpoint),
            _ => return Err(FleetError::Desync("checkpoint: expected Snapshot")),
        };
        if snap_cursor != cursor || applied != cursor {
            return Err(FleetError::Desync(
                "checkpoint: drained shard cursor disagrees with the router's books",
            ));
        }
        self.journal_append(
            shard,
            &JournalEntry::Checkpoint {
                session: global,
                floor: applied,
            },
        )?;
        if let Some(route) = self.routes.get_mut(&global) {
            route.checkpoint = Some(Checkpoint { applied, bytes });
        }
        self.stats.checkpoints += 1;
        Ok(applied)
    }

    /// Live shards, ascending.
    pub fn live_shards(&self) -> &[ShardId] {
        self.ring.shards()
    }

    /// The ring epoch: bumped on every membership change.
    pub fn ring_epoch(&self) -> u64 {
        self.epoch
    }

    /// The shard a session currently lives on.
    pub fn shard_of(&self, global: u64) -> Option<ShardId> {
        self.routes.get(&global).map(|r| r.shard)
    }

    /// Full placement history (initial routes, migrations, failovers).
    pub fn placements(&self) -> &[Placement] {
        &self.placements
    }

    /// Lifetime counters.
    pub fn stats(&self) -> FleetStats {
        self.stats
    }

    /// Drains the `fleet.migrate` / `fleet.failover` span trees recorded
    /// so far.
    pub fn take_traces(&mut self) -> Vec<Trace> {
        std::mem::take(&mut self.traces)
    }

    /// The durable state file's path.
    pub fn state_path(&self) -> PathBuf {
        self.cfg.journal_dir.join("router.snvr")
    }

    /// Every journal file the fleet has written: live shards first, then
    /// retired (dead) shards.
    pub fn journal_paths(&self) -> Vec<(ShardId, PathBuf)> {
        let mut out: Vec<(ShardId, PathBuf)> = self
            .conns
            .iter()
            .map(|(id, c)| (*id, c.journal.path().to_path_buf()))
            .collect();
        out.extend(self.retired_journals.iter().cloned());
        out
    }

    /// Reads every journal in [`journal_paths`](Self::journal_paths) once
    /// and returns the zero-loss witness's [`Ledger`].
    ///
    /// # Errors
    ///
    /// A journal that cannot be read back.
    pub fn ledger(&self) -> Result<Ledger, FleetError> {
        let mut ledger = Ledger {
            placements: self
                .placements
                .iter()
                .map(|p| ((p.shard, p.local), p.global))
                .collect(),
            ..Ledger::default()
        };
        for (_, path) in self.journal_paths() {
            let contents = read_journal(&path)?;
            ledger.truncated_bytes += contents.truncated_tail;
            for entry in contents.entries {
                match entry {
                    JournalEntry::Update { session, seq, .. } => {
                        ledger.journaled.push(FleetJournalEntry { session, seq });
                    }
                    JournalEntry::Checkpoint { session, floor }
                    | JournalEntry::Tombstone {
                        session,
                        seq: floor,
                    } => ledger.floors.push(FleetSessionFloor { session, floor }),
                    JournalEntry::Create { .. } => {}
                }
            }
        }
        Ok(ledger)
    }

    fn conn(&mut self, shard: ShardId) -> Result<&mut ShardConn, FleetError> {
        self.conns
            .get_mut(&shard)
            .ok_or(FleetError::UnknownShard(shard))
    }

    fn open_route(&self, global: u64) -> Result<&Route, FleetError> {
        let route = self
            .routes
            .get(&global)
            .ok_or(FleetError::UnknownSession(global))?;
        if route.closed {
            return Err(FleetError::SessionClosed(global));
        }
        Ok(route)
    }

    /// Appends one journal record on `shard`, maintaining the lifetime
    /// and since-compaction counters.
    fn journal_append(&mut self, shard: ShardId, entry: &JournalEntry) -> Result<(), FleetError> {
        self.conn(shard)?.journal.append(entry)?;
        self.stats.journal_records += 1;
        *self.appends_since_compact.entry(shard).or_insert(0) += 1;
        Ok(())
    }

    /// Atomically rewrites the durable state file from the in-memory
    /// books. Called after every mutation a restarted router must see.
    fn persist(&self) -> Result<(), FleetError> {
        let state = RouterState {
            seed: self.cfg.seed,
            epoch: self.epoch,
            next_global: self.next_global,
            members: self.ring.shards().iter().map(|s| s.0).collect(),
            retired: self.retired_journals.iter().map(|(s, _)| s.0).collect(),
            stats: self.stats,
            routes: self
                .routes
                .iter()
                .filter(|(_, r)| !r.closed)
                .map(|(g, r)| RouteRecord {
                    global: *g,
                    shard: r.shard.0,
                    local: r.local,
                    kind: r.kind.code(),
                    steps: r.steps,
                    seed: r.seed,
                    checkpoint: r.checkpoint.as_ref().map(|c| CheckpointRecord {
                        applied: c.applied,
                        bytes: c.bytes.clone(),
                    }),
                })
                .collect(),
            pending: self.pending.clone(),
            placements: self
                .placements
                .iter()
                .map(|p| PlacementRecord {
                    global: p.global,
                    shard: p.shard.0,
                    local: p.local,
                })
                .collect(),
        };
        save_state(&self.state_path(), &state)?;
        Ok(())
    }

    /// Arms a chaos-drill crash point: the next time [`migrate`] reaches
    /// it, the call returns [`FleetError::CrashInjected`] with the
    /// router's durable state exactly as a crash at that instant would
    /// leave it. The caller must then *drop* the router (no shutdown)
    /// and bring it back with [`ShardRouter::restore`].
    ///
    /// [`migrate`]: ShardRouter::migrate
    pub fn inject_crash(&mut self, point: CrashPoint) {
        self.crash_point = Some(point);
    }

    fn crash_if(&mut self, point: CrashPoint) -> Result<(), FleetError> {
        if self.crash_point == Some(point) {
            self.crash_point = None;
            return Err(FleetError::CrashInjected(point.name()));
        }
        Ok(())
    }

    /// Creates a session replaying `(kind, steps, seed)` on the shard the
    /// ring names for its fleet-global id. Returns that id.
    pub fn create_session(
        &mut self,
        kind: DatasetKind,
        steps: u32,
        seed: u64,
    ) -> Result<u64, FleetError> {
        let global = self.next_global;
        let shard = self.ring.route(global).ok_or(FleetError::NoShards)?;
        let conn = self.conn(shard)?;
        let local = match conn.call(&Request::CreateSession { kind, steps, seed })? {
            Response::Created { session } => session,
            _ => return Err(FleetError::Desync("create: expected Created")),
        };
        self.journal_append(
            shard,
            &JournalEntry::Create {
                session: global,
                kind: kind.code(),
                steps,
                seed,
            },
        )?;
        self.next_global += 1;
        self.stats.sessions_created += 1;
        self.routes.insert(
            global,
            Route {
                shard,
                local,
                kind,
                steps,
                seed,
                cursor: 0,
                closed: false,
                checkpoint: None,
            },
        );
        self.placements.push(Placement {
            global,
            shard,
            local,
        });
        self.persist()?;
        Ok(global)
    }

    /// Feeds the session's next `count` replay steps (deadlines
    /// `deadline, deadline + 1, …`), journaling each admitted update.
    /// Returns how many were admitted (the count clamped to the steps
    /// remaining in the trajectory). If the session's journal suffix has
    /// reached [`RouterConfig::checkpoint_interval`], the call ends by
    /// checkpointing it, re-bounding the failover replay.
    pub fn submit(&mut self, global: u64, deadline: u64, count: u32) -> Result<u32, FleetError> {
        let route = self.open_route(global)?;
        let remaining = u64::from(route.steps).saturating_sub(route.cursor);
        let want = u64::from(count).min(remaining) as u32;
        if want == 0 {
            return Ok(0);
        }
        let (shard, local, cursor) = (route.shard, route.local, route.cursor);
        let conn = self.conn(shard)?;
        let (accepted, shed) = match conn.call(&Request::Submit {
            session: local,
            deadline,
            count: want,
        })? {
            Response::Submitted { accepted, shed } => (accepted, shed),
            _ => return Err(FleetError::Desync("submit: expected Submitted")),
        };
        if shed > 0 {
            return Err(FleetError::Shed {
                session: global,
                shed,
            });
        }
        if accepted != want {
            return Err(FleetError::Desync(
                "submit: shard accepted fewer than asked",
            ));
        }
        for i in 0..u64::from(accepted) {
            self.journal_append(
                shard,
                &JournalEntry::Update {
                    session: global,
                    seq: cursor + i,
                    deadline: deadline + i,
                },
            )?;
        }
        if let Some(route) = self.routes.get_mut(&global) {
            route.cursor += u64::from(accepted);
        }
        let k = self.cfg.checkpoint_interval;
        if k > 0 {
            let due = self
                .routes
                .get(&global)
                .is_some_and(|r| !r.closed && r.cursor - r.floor() >= k);
            if due {
                self.verify_and_checkpoint(global)?;
                self.persist()?;
            }
        }
        self.maybe_compact(shard)?;
        Ok(accepted)
    }

    /// Drains the session and returns its full trajectory estimate.
    pub fn estimate(
        &mut self,
        global: u64,
    ) -> Result<Vec<supernova_factors::Variable>, FleetError> {
        let route = self.open_route(global)?;
        let (shard, local) = (route.shard, route.local);
        match self
            .conn(shard)?
            .call(&Request::QueryEstimate { session: local })?
        {
            Response::Estimate(vars) => Ok(vars),
            _ => Err(FleetError::Desync("estimate: expected Estimate")),
        }
    }

    /// Closes the session (tombstoning its journal history) and returns
    /// its lifetime `(completed, shed)` counters.
    pub fn close(&mut self, global: u64) -> Result<(u64, u64), FleetError> {
        let route = self.open_route(global)?;
        let (shard, local, cursor) = (route.shard, route.local, route.cursor);
        let conn = self.conn(shard)?;
        let report = match conn.call(&Request::Close { session: local })? {
            Response::Closed { completed, shed } => (completed, shed),
            _ => return Err(FleetError::Desync("close: expected Closed")),
        };
        self.journal_append(
            shard,
            &JournalEntry::Tombstone {
                session: global,
                seq: cursor,
            },
        )?;
        if let Some(route) = self.routes.get_mut(&global) {
            route.closed = true;
        }
        self.persist()?;
        self.maybe_compact(shard)?;
        Ok(report)
    }

    /// Live-migrates a session: drain + snapshot on the source shard,
    /// durable write-ahead intent, restore on `to`, close the source
    /// session and atomically repoint the route. The checkpoint taken
    /// here becomes the session's failover replay floor. A router crash
    /// anywhere inside is recoverable: [`ShardRouter::restore`] rolls the
    /// intent back or forward.
    pub fn migrate(&mut self, global: u64, to: ShardId) -> Result<(), FleetError> {
        if !self.ring.shards().contains(&to) {
            return Err(FleetError::UnknownShard(to));
        }
        let route = self.open_route(global)?;
        if route.shard == to {
            return Ok(());
        }
        let (source, local, kind, steps, seed, cursor) = (
            route.shard,
            route.local,
            route.kind,
            route.steps,
            route.seed,
            route.cursor,
        );
        let t0 = epoch_seconds();

        let (snap_cursor, applied, checkpoint) = match self
            .conn(source)?
            .call(&Request::Snapshot { session: local })?
        {
            Response::Snapshot {
                cursor,
                applied,
                checkpoint,
                ..
            } => (cursor, applied, checkpoint),
            _ => return Err(FleetError::Desync("migrate: expected Snapshot")),
        };
        if snap_cursor != cursor || applied != cursor {
            return Err(FleetError::Desync(
                "migrate: drained shard cursor disagrees with the router's books",
            ));
        }
        let checkpoint_len = checkpoint.len() as u64;

        // Write-ahead intent: durable before anything irreversible. A
        // crash from here to the target's ack rolls back.
        self.pending = Some(PendingMigration {
            global,
            source: source.0,
            source_local: local,
            target: to.0,
            target_local: None,
            checkpoint: CheckpointRecord {
                applied,
                bytes: checkpoint.clone(),
            },
        });
        self.persist()?;
        self.crash_if(CrashPoint::MigrateAfterIntent)?;

        let target = self.conn(to)?;
        let new_local = match target.call(&Request::Restore {
            kind,
            steps,
            seed,
            cursor,
            checkpoint: checkpoint.clone(),
        })? {
            Response::Created { session } => session,
            _ => return Err(FleetError::Desync("migrate: expected Created")),
        };

        // The target holds a restored copy: from here a crash rolls
        // forward instead.
        if let Some(p) = self.pending.as_mut() {
            p.target_local = Some(new_local);
        }
        self.persist()?;
        self.crash_if(CrashPoint::MigrateAfterRestore)?;

        self.journal_append(
            to,
            &JournalEntry::Create {
                session: global,
                kind: kind.code(),
                steps,
                seed,
            },
        )?;

        match self
            .conn(source)?
            .call(&Request::Close { session: local })?
        {
            Response::Closed { .. } => {}
            _ => return Err(FleetError::Desync("migrate: expected Closed")),
        }

        if let Some(route) = self.routes.get_mut(&global) {
            route.shard = to;
            route.local = new_local;
            route.checkpoint = Some(Checkpoint {
                applied,
                bytes: checkpoint,
            });
        }
        self.placements.push(Placement {
            global,
            shard: to,
            local: new_local,
        });
        self.stats.migrations += 1;
        self.stats.checkpoints += 1;
        self.pending = None;
        self.persist()?;

        let t1 = epoch_seconds();
        let mut root = Span::wall("fleet.migrate", Category::Serve, t0, t1);
        root.children.push(Span::marker(
            "fleet.snapshot",
            Category::Serve,
            checkpoint_len,
        ));
        root.children
            .push(Span::marker("fleet.restore", Category::Serve, applied));
        self.traces.push(Trace {
            key: StepKey {
                session: global,
                seq: applied,
                step: applied,
            },
            root,
        });
        Ok(())
    }

    /// Adds a shard to the live fleet and rebalances onto it: connect +
    /// hello, fresh journal, ring join (epoch bump), then live-migrate
    /// exactly the minimal remap set — the open sessions whose seeded
    /// ring placement now lands on the new shard's vnodes. Everything
    /// else stays put (the consistent-hashing property), and each move
    /// rides the migration machinery's zero-loss journal witness.
    pub fn add_shard(
        &mut self,
        id: ShardId,
        addr: SocketAddr,
    ) -> Result<RebalanceReport, FleetError> {
        if self.conns.contains_key(&id) || self.retired_journals.iter().any(|(s, _)| *s == id) {
            return Err(FleetError::DuplicateShard(id));
        }
        let (reader, writer) = dial(&addr)?;
        let journal_path = self.cfg.journal_dir.join(format!("shard-{}.snvj", id.0));
        let journal = JournalWriter::create(&journal_path, u64::from(id.0))?;
        self.conns.insert(
            id,
            ShardConn {
                reader,
                writer,
                journal,
            },
        );
        self.ring.add(id);
        self.epoch += 1;
        // Minimal remap set: open sessions the grown ring now places on
        // the new shard but that live elsewhere.
        let movers: Vec<u64> = self
            .routes
            .iter()
            .filter(|(g, r)| !r.closed && r.shard != id && self.ring.route(**g) == Some(id))
            .map(|(g, _)| *g)
            .collect();
        self.persist()?;
        for global in &movers {
            self.migrate(*global, id)?;
        }
        Ok(RebalanceReport {
            added: id,
            sessions_remapped: movers.len() as u64,
            epoch: self.epoch,
        })
    }

    /// The empty checkpoint: what failover restores for a session that
    /// was never snapshotted (its whole history replays from the journal).
    fn empty_checkpoint(&self) -> Result<Vec<u8>, FleetError> {
        let snap = EngineSnapshot {
            numeric_mode: self.cfg.numeric,
            plan_generation: 0,
            updates: Vec::new(),
            estimate: Vec::new(),
        };
        Ok(encode_snapshot(&snap)?)
    }

    /// Handles a crashed shard: drops its connection, removes it from
    /// the ring (epoch bump), reads its journal back from disk, and
    /// re-homes every live session it hosted onto the survivor the ring
    /// now names — restore the latest checkpoint, replay the journal
    /// suffix with original deadlines, re-journal the suffix into the
    /// survivor's journal. The periodic checkpoint policy bounds each
    /// suffix at [`RouterConfig::checkpoint_interval`]. Call *after* the
    /// shard is actually dead (the router's connection drop is what lets
    /// an in-process shard's accept thread exit).
    pub fn kill_shard(&mut self, dead: ShardId) -> Result<FailoverReport, FleetError> {
        let conn = self
            .conns
            .remove(&dead)
            .ok_or(FleetError::UnknownShard(dead))?;
        let journal_path = conn.journal.path().to_path_buf();
        drop(conn); // closes the TCP connection and the journal file
        self.retired_journals.push((dead, journal_path.clone()));
        self.appends_since_compact.remove(&dead);
        self.ring.remove(dead);
        self.epoch += 1;
        if self.ring.shards().is_empty() {
            return Err(FleetError::NoShards);
        }
        let t0 = epoch_seconds();

        // The durable record is the source of truth for what was
        // admitted: replay is journal-driven, not memory-driven.
        let contents = read_journal(&journal_path)?;
        let mut journaled: BTreeMap<u64, BTreeMap<u64, u64>> = BTreeMap::new();
        for entry in &contents.entries {
            if let JournalEntry::Update {
                session,
                seq,
                deadline,
            } = entry
            {
                journaled
                    .entry(*session)
                    .or_default()
                    .insert(*seq, *deadline);
            }
        }

        let victims: Vec<u64> = self
            .routes
            .iter()
            .filter(|(_, r)| r.shard == dead && !r.closed)
            .map(|(g, _)| *g)
            .collect();
        let mut replayed_total = 0u64;
        let mut suffix_lens: Vec<(u64, u64)> = Vec::with_capacity(victims.len());
        for global in victims.iter().copied() {
            let route = self
                .routes
                .get(&global)
                .ok_or(FleetError::UnknownSession(global))?;
            let (kind, steps, seed, cursor) = (route.kind, route.steps, route.seed, route.cursor);
            let (floor, checkpoint) = match &route.checkpoint {
                Some(c) => (c.applied, c.bytes.clone()),
                None => (0, self.empty_checkpoint()?),
            };
            let suffix: Vec<(u64, u64)> = journaled
                .get(&global)
                .map(|m| m.range(floor..).map(|(s, d)| (*s, *d)).collect())
                .unwrap_or_default();
            if floor + suffix.len() as u64 != cursor {
                return Err(FleetError::Desync(
                    "failover: journal suffix does not cover the admitted cursor",
                ));
            }
            let target = self.ring.route(global).ok_or(FleetError::NoShards)?;

            let conn = self.conn(target)?;
            let new_local = match conn.call(&Request::Restore {
                kind,
                steps,
                seed,
                cursor: floor,
                checkpoint,
            })? {
                Response::Created { session } => session,
                _ => return Err(FleetError::Desync("failover: expected Created")),
            };
            self.journal_append(
                target,
                &JournalEntry::Create {
                    session: global,
                    kind: kind.code(),
                    steps,
                    seed,
                },
            )?;
            for (seq, deadline) in suffix.iter().copied() {
                let (accepted, shed) = match self.conn(target)?.call(&Request::Submit {
                    session: new_local,
                    deadline,
                    count: 1,
                })? {
                    Response::Submitted { accepted, shed } => (accepted, shed),
                    _ => return Err(FleetError::Desync("failover: expected Submitted")),
                };
                if shed > 0 {
                    return Err(FleetError::Shed {
                        session: global,
                        shed,
                    });
                }
                if accepted != 1 {
                    return Err(FleetError::Desync("failover: replay submit not accepted"));
                }
                self.journal_append(
                    target,
                    &JournalEntry::Update {
                        session: global,
                        seq,
                        deadline,
                    },
                )?;
            }
            replayed_total += suffix.len() as u64;
            suffix_lens.push((global, suffix.len() as u64));
            self.stats.max_replay_suffix = self.stats.max_replay_suffix.max(suffix.len() as u64);

            if let Some(route) = self.routes.get_mut(&global) {
                route.shard = target;
                route.local = new_local;
            }
            self.placements.push(Placement {
                global,
                shard: target,
                local: new_local,
            });

            let t_done = epoch_seconds();
            let mut root = Span::wall("fleet.failover", Category::Serve, t0, t_done);
            root.children
                .push(Span::marker("fleet.restore", Category::Serve, floor));
            root.children.push(Span::marker(
                "fleet.replay",
                Category::Serve,
                suffix.len() as u64,
            ));
            self.traces.push(Trace {
                key: StepKey {
                    session: global,
                    seq: cursor,
                    step: cursor,
                },
                root,
            });
        }

        self.stats.failovers += 1;
        self.stats.failover_sessions += victims.len() as u64;
        self.stats.replayed_updates += replayed_total;
        self.persist()?;
        let max_replay_suffix = suffix_lens.iter().map(|(_, n)| *n).max().unwrap_or(0);
        Ok(FailoverReport {
            dead,
            sessions: victims.len() as u64,
            replayed_updates: replayed_total,
            suffix_lens,
            max_replay_suffix,
        })
    }

    /// Runs the automatic compaction policy for one shard.
    fn maybe_compact(&mut self, shard: ShardId) -> Result<(), FleetError> {
        let interval = self.cfg.compact_interval;
        if interval == 0 {
            return Ok(());
        }
        let due = self
            .appends_since_compact
            .get(&shard)
            .is_some_and(|n| *n >= interval);
        if due {
            self.compact_shard(shard)?;
        }
        Ok(())
    }

    /// Compacts one shard's journal: rewrites it keeping, per open
    /// session currently homed on the shard, a fresh create descriptor,
    /// its checkpoint-floor record, and its update records at or past the
    /// floor — and keeping every close tombstone as the durable witness
    /// that a dropped session completed cleanly. Everything else
    /// (tombstoned sessions' creates and updates, updates below floors,
    /// superseded floor records, foreign stale records) is dropped. The
    /// rewrite is *verified before the swap*: the temp file is read back
    /// and must parse to exactly the retained records, byte-clean, or the
    /// original journal is left untouched. Returns records dropped.
    pub fn compact_shard(&mut self, shard: ShardId) -> Result<u64, FleetError> {
        let path = self.conn(shard)?.journal.path().to_path_buf();
        let contents = read_journal(&path)?;

        // Tombstones survive compaction: they are what lets the coverage
        // witness account for a closed session whose records are gone.
        let mut tombstones: Vec<JournalEntry> = Vec::new();
        for e in &contents.entries {
            if matches!(e, JournalEntry::Tombstone { .. }) {
                tombstones.push(*e);
            }
        }
        // Per open session homed here: create, floor record, suffix.
        let mut retained: Vec<JournalEntry> = tombstones;
        for (global, route) in self.routes.iter().filter(|(_, r)| !r.closed) {
            if route.shard != shard {
                continue;
            }
            let floor = route.floor();
            retained.push(JournalEntry::Create {
                session: *global,
                kind: route.kind.code(),
                steps: route.steps,
                seed: route.seed,
            });
            if floor > 0 {
                retained.push(JournalEntry::Checkpoint {
                    session: *global,
                    floor,
                });
            }
            let mut seen = std::collections::BTreeSet::new();
            for e in &contents.entries {
                if let JournalEntry::Update { session, seq, .. } = e {
                    if session == global && *seq >= floor && seen.insert(*seq) {
                        retained.push(*e);
                    }
                }
            }
        }

        let dropped = (contents.entries.len() as u64).saturating_sub(retained.len() as u64);
        let tmp = path.with_extension("snvj.compact");
        {
            let mut w = JournalWriter::create(&tmp, u64::from(shard.0))?;
            for e in &retained {
                w.append(e)?;
            }
        }
        // Read-back verification before the swap: the rewrite must parse
        // to exactly what we meant to retain.
        let reread = read_journal(&tmp)?;
        if reread.entries != retained || reread.truncated_tail != 0 {
            let _ = std::fs::remove_file(&tmp);
            return Err(FleetError::Desync(
                "compaction: rewritten journal does not read back to the retained records",
            ));
        }
        std::fs::rename(&tmp, &path)?;
        self.conn(shard)?.journal = JournalWriter::open_append(&path, u64::from(shard.0))?;
        self.appends_since_compact.insert(shard, 0);
        self.stats.compactions += 1;
        self.stats.compacted_records += dropped;
        self.persist()?;
        Ok(dropped)
    }

    /// Asks every live shard to shut down once its in-flight work drains.
    pub fn shutdown(&mut self) {
        for conn in self.conns.values_mut() {
            let _ = conn.call(&Request::Shutdown);
        }
    }
}

/// The detail prefix of the violation [`Ledger::coverage`] reports for a
/// dispatch whose `(shard, local session)` no placement names.
pub const UNPLACED_DISPATCH: &str = "unplaced dispatch";

/// The fleet's durable books as the zero-loss witness reads them: every
/// live and retired journal read once ([`ShardRouter::ledger`]), plus the
/// placement history that maps shard-local dispatches back to fleet-global
/// sessions.
#[derive(Clone, Debug, Default)]
pub struct Ledger {
    /// Every journaled admitted update.
    journaled: Vec<FleetJournalEntry>,
    /// Durable floors: checkpoint records, and close tombstones (a clean
    /// close accounts for the session's whole admitted prefix).
    floors: Vec<FleetSessionFloor>,
    /// Torn-tail bytes summed over every journal (0 after a clean run).
    pub truncated_bytes: usize,
    /// `(shard, local session) → global session`, over every placement the
    /// router ever made (initial routes, migrations, failovers).
    placements: BTreeMap<(ShardId, u64), u64>,
}

impl Ledger {
    /// Cross-checks the ledger against what `shards` dispatched, in
    /// fleet-global numbering, with
    /// [`validate_fleet_coverage_with_floors`]. A span's local session maps
    /// to its global one through the placements; its seq needs no mapping,
    /// because a restored session continues the checkpoint's seq
    /// numbering. A dispatch no placement
    /// names is a violation too (detail prefix [`UNPLACED_DISPATCH`]): the
    /// router never admitted it. Call after [`ShardRouter::shutdown`], so
    /// every admitted update has run. Empty = zero admitted updates lost.
    pub fn coverage(&self, shards: &[Shard]) -> Vec<ScheduleViolation> {
        let mut violations = Vec::new();
        let mut dispatched = Vec::new();
        for shard in shards {
            for span in shard.server().spans() {
                let (local, seq) = (span.session.0, span.seq);
                match self.placements.get(&(shard.id(), local)) {
                    Some(&session) => dispatched.push(FleetJournalEntry { session, seq }),
                    None => violations.push(ScheduleViolation {
                        invariant: Invariant::Coverage,
                        detail: format!(
                            "{UNPLACED_DISPATCH}: {} ran local session {local} seq {seq}, \
                             which no placement names",
                            shard.id()
                        ),
                    }),
                }
            }
        }
        violations.extend(validate_fleet_coverage_with_floors(
            &self.journaled,
            &self.floors,
            &dispatched,
        ));
        violations
    }
}
