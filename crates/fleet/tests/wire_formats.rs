//! Byte pins and a robustness suite for the workspace's four binary
//! formats: `serve` request/response frames, `SNVC` checkpoints, `SNVJ`
//! journals and `SNVR` router state.
//!
//! **Pins.** Every fixture under `tests/fixtures/` but three is the encoding
//! of a literal value built below — no solver run, no transcendental
//! function — so the bytes move only when an encoder does. One exception,
//! `snvc_landmarks.bin`, is a snapshot of two landmark sessions run
//! through `SolverEngine`: its witness estimate also moves if a solver
//! bit does. Each of these fixtures must be
//! reproduced byte for byte by today's encoder and decode back to a value
//! that re-encodes to the same bytes. The other exception, `snvc_f32.bin`,
//! is `snvc_f64.bin` with its reserved byte set to 1, as written when the
//! kernels had an f32 mode: no encoder writes it, and the decoder must
//! refuse it. The third, `snvr_v1.bin`, is a router state file in the
//! retired version 1 layout (it carried each route's SNVC bytes); the
//! decoder must refuse it by version. After an intentional format change
//! (which also bumps that format's version), regenerate with
//! `cargo test -p supernova-fleet --test wire_formats -- --ignored
//! regenerate_fixtures` and commit the diff with the change.
//!
//! **Robustness.** One table drives every decoder over every strict
//! prefix of its input and over single-byte flips chosen by the in-tree
//! `XorShift64` with a fixed seed. No input may panic. Every strict
//! prefix is an error, except in the journal, whose reader is
//! torn-tail tolerant by contract: a prefix that cuts into a record
//! returns the records before it and reports the cut-off bytes.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::Arc;

use supernova_factors::{BetweenFactor, Factor, Key, NoiseModel, PriorFactor, Rot2, Rot3};
use supernova_factors::{PointObservationFactor, RangeBearingFactor, Se2, Se3, Variable};
use supernova_fleet::{
    decode_state, encode_state, read_journal_bytes, CheckpointRecord, FleetStats, JournalEntry,
    JournalWriter, PendingMigration, PlacementRecord, RouteRecord, RouterState, StateError,
};
use supernova_hw::Platform;
use supernova_linalg::rng::XorShift64;
use supernova_linalg::Mat;
use supernova_runtime::CostModel;
use supernova_serve::protocol::{
    encode_variable, read_frame, write_frame, DatasetKind, Request, Response, PROTOCOL_VERSION,
};
use supernova_serve::service::handle;
use supernova_serve::{
    decode_snapshot, encode_snapshot, CheckpointError, ServeConfig, Server, SessionId,
};
use supernova_solvers::{EngineSnapshot, RaIsam2Config, RestoreError, SolverEngine, UpdateRecord};

// --- literal values -----------------------------------------------------

fn se2(x: f64, y: f64, c: f64, s: f64) -> Se2 {
    Se2::from_parts([x, y], Rot2::from_cos_sin(c, s))
}

fn se3(t: [f64; 3]) -> Se3 {
    // A quarter turn about z, written out: no trigonometry, exact bits.
    let m = [0.0, -1.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 1.0];
    Se3::from_parts(t, Rot3::from_matrix(Mat::from_rows(3, 3, &m)))
}

fn noise(sqrt_info: &[f64], huber: Option<f64>) -> NoiseModel {
    NoiseModel::from_sqrt_info(sqrt_info.to_vec(), huber).expect("finite positive weights")
}

/// SE(2), SE(3) and vector poses; prior and between factors; Huber on
/// and off.
fn snapshot() -> EngineSnapshot {
    EngineSnapshot {
        plan_generation: 7,
        updates: vec![
            UpdateRecord {
                level: 0,
                initial: Variable::Se2(se2(0.0, 0.0, 1.0, 0.0)),
                factors: vec![PriorFactor::se2(
                    Key(0),
                    se2(0.0, 0.0, 1.0, 0.0),
                    noise(&[10.0, 10.0, 50.0], None),
                )
                .into()],
            },
            UpdateRecord {
                level: 2,
                initial: Variable::Se2(se2(1.25, -0.5, 0.6, 0.8)),
                factors: vec![BetweenFactor::se2(
                    Key(0),
                    Key(1),
                    se2(1.25, -0.5, 0.6, 0.8),
                    noise(&[20.0, 20.0, 40.0], Some(1.5)),
                )
                .into()],
            },
            UpdateRecord {
                level: 1,
                initial: Variable::Se3(se3([0.5, 0.25, -2.0])),
                factors: vec![
                    PriorFactor::se3(
                        Key(2),
                        se3([0.5, 0.25, -2.0]),
                        noise(&[4.0, 4.0, 4.0, 8.0, 8.0, 8.0], Some(0.75)),
                    )
                    .into(),
                    BetweenFactor::se3(
                        Key(1),
                        Key(2),
                        se3([-1.0, 3.5, 0.125]),
                        noise(&[2.0, 2.0, 2.0, 16.0, 16.0, 16.0], None),
                    )
                    .into(),
                ],
            },
            UpdateRecord {
                level: 0,
                initial: Variable::Vector(vec![3.0, -4.5]),
                factors: vec![PriorFactor::new(
                    Key(3),
                    Variable::Vector(vec![3.0, -4.5]),
                    noise(&[1.0, 0.5], None),
                )
                .into()],
            },
            UpdateRecord {
                level: 3,
                initial: Variable::Vector(Vec::new()),
                factors: Vec::new(),
            },
        ],
        estimate: vec![
            Variable::Se2(se2(0.0, 0.0, 1.0, 0.0)),
            Variable::Se2(se2(1.0 / 3.0, -7.2e-9, 0.6, -0.8)),
            Variable::Se3(se3([1e30, -0.0, 5e-324])),
            Variable::Vector(vec![3.0, -4.5]),
            Variable::Vector(Vec::new()),
        ],
    }
}

/// One update per step: the new variable's initial guess and its factors.
type Session = Vec<(Variable, Vec<Factor>)>;

/// Two landmark sessions in one engine, each anchored by its own prior: a
/// planar one (poses x0, x2, x4; landmarks l1, l3; range-bearing
/// sightings) and a 3-D one (poses x5, x7; landmarks l6, l8; body-frame
/// point observations). Measurements are literals, not noise draws.
fn landmark_session() -> Session {
    let rb = |pose, lm, range, bearing| -> Factor {
        RangeBearingFactor::new(
            Key(pose),
            Key(lm),
            range,
            bearing,
            noise(&[10.0, 20.0], None),
        )
        .into()
    };
    let obs = |pose, lm, z| -> Factor {
        PointObservationFactor::new(Key(pose), Key(lm), z, noise(&[8.0, 8.0, 8.0], Some(2.0)))
            .into()
    };
    let odometry = noise(&[20.0, 20.0, 40.0], None);
    let odometry3 = noise(&[10.0, 10.0, 10.0, 20.0, 20.0, 20.0], None);
    let vector = |v: &[f64]| Variable::Vector(v.to_vec());
    vec![
        (
            Variable::Se2(se2(0.0, 0.0, 1.0, 0.0)),
            vec![
                PriorFactor::se2(Key(0), se2(0.0, 0.0, 1.0, 0.0), noise(&[100.0; 3], None)).into(),
            ],
        ),
        (vector(&[2.0, 1.0]), vec![rb(0, 1, 2.25, 0.5)]),
        (
            Variable::Se2(se2(1.0, 0.0, 0.8, 0.6)),
            vec![
                BetweenFactor::se2(Key(0), Key(2), se2(1.1, 0.05, 0.8, 0.6), odometry.clone())
                    .into(),
                rb(2, 1, 1.5, 0.125),
            ],
        ),
        (
            vector(&[3.0, -1.0]),
            vec![rb(2, 3, 2.0, -1.25), rb(0, 3, 3.25, -0.375)],
        ),
        (
            Variable::Se2(se2(2.0, 0.5, 0.6, 0.8)),
            vec![
                BetweenFactor::se2(Key(2), Key(4), se2(0.9, 0.75, 0.8, 0.6), odometry).into(),
                rb(4, 1, 0.75, -0.25),
                rb(4, 3, 1.5, -2.5),
            ],
        ),
        (
            Variable::Se3(se3([0.0, 0.0, 1.0])),
            vec![PriorFactor::se3(Key(5), se3([0.0, 0.0, 1.0]), noise(&[100.0; 6], None)).into()],
        ),
        (vector(&[1.0, 2.0, 0.5]), vec![obs(5, 6, [2.0, -1.0, -0.5])]),
        (
            Variable::Se3(se3([0.5, 1.0, 1.0])),
            vec![
                BetweenFactor::se3(Key(5), Key(7), se3([1.0, -0.5, 0.125]), odometry3).into(),
                obs(7, 6, [1.0, -0.5, -0.375]),
            ],
        ),
        (
            vector(&[-1.0, 3.0, 1.5]),
            vec![obs(7, 8, [2.0, 1.5, 0.5]), obs(5, 8, [3.0, 1.0, 0.5])],
        ),
    ]
}

fn landmark_engine() -> SolverEngine {
    let cost = Arc::new(CostModel::new(Platform::supernova(2)));
    SolverEngine::new(RaIsam2Config::default(), cost)
}

/// The engine snapshot after every step of [`landmark_session`].
fn landmark_snapshot() -> EngineSnapshot {
    let mut engine = landmark_engine();
    for (initial, factors) in landmark_session() {
        engine.step(initial, factors);
    }
    engine.snapshot()
}

/// All four record tags.
fn journal_entries() -> Vec<JournalEntry> {
    vec![
        JournalEntry::Create {
            session: 7,
            kind: DatasetKind::Sphere.code(),
            steps: 40,
            seed: 0xDEAD_BEEF_0123,
        },
        JournalEntry::Update {
            session: 7,
            seq: 0,
            deadline: 10,
        },
        JournalEntry::Update {
            session: 7,
            seq: 1,
            deadline: u64::MAX,
        },
        JournalEntry::Checkpoint {
            session: 7,
            floor: 2,
        },
        JournalEntry::Tombstone { session: 7, seq: 2 },
    ]
}

/// A fresh directory for one test call (tests run as parallel threads of
/// one process, so the pid alone is not unique).
fn unique_dir(prefix: &str) -> PathBuf {
    use std::sync::atomic::{AtomicUsize, Ordering};
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("{prefix}-{}-{n}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

fn journal_image() -> Vec<u8> {
    let dir = unique_dir("wire-formats-snvj");
    let path = dir.join("j.snvj");
    let mut w = JournalWriter::create(&path, 0x0102_0304_0506_0708).expect("create journal");
    for e in journal_entries() {
        w.append(&e).expect("append");
    }
    drop(w);
    let bytes = std::fs::read(&path).expect("read journal back");
    let _ = std::fs::remove_dir_all(&dir);
    bytes
}

/// Routes with and without a replay floor, and a pending migration whose
/// target has (`Some`) or has not (`None`) acknowledged the restore.
fn router_state(target_local: Option<u64>) -> RouterState {
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
            target_local,
            checkpoint: CheckpointRecord {
                applied: 9,
                bytes: vec![9, 9, 0xFF],
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

/// Every request variant.
fn requests() -> Vec<Request> {
    vec![
        Request::Hello {
            version: PROTOCOL_VERSION,
        },
        Request::CreateSession {
            kind: DatasetKind::Sphere,
            steps: 40,
            seed: 11,
        },
        Request::Submit {
            session: 3,
            deadline: 100,
            count: 5,
        },
        Request::QueryEstimate { session: 3 },
        Request::Close { session: 3 },
        Request::Shutdown,
        Request::Snapshot { session: 7 },
        Request::Restore {
            kind: DatasetKind::Manhattan,
            steps: 40,
            seed: 101,
            cursor: 12,
            checkpoint: vec![0x53, 0x4E, 0x56, 0x43, 9, 9],
        },
    ]
}

/// Every response variant.
fn responses() -> Vec<Response> {
    vec![
        Response::Hello {
            version: PROTOCOL_VERSION,
        },
        Response::Created { session: 5 },
        Response::Submitted {
            accepted: 4,
            shed: 1,
        },
        Response::Estimate(vec![
            Variable::Se2(se2(1.0 / 3.0, -7.2e-9, 0.6, 0.8)),
            Variable::Se3(se3([0.1, -0.2, 1e30])),
            Variable::Vector(vec![f64::MIN_POSITIVE, -1.0]),
        ]),
        Response::Closed {
            completed: 40,
            shed: 2,
        },
        Response::ShuttingDown,
        Response::Snapshot {
            kind: DatasetKind::Sphere,
            steps: 30,
            seed: 201,
            cursor: 9,
            applied: 9,
            checkpoint: vec![1, 2, 3],
        },
        Response::Error("session-9 does not exist".to_string()),
    ]
}

/// Payloads as a stream of length-prefixed frames.
fn frames(payloads: impl IntoIterator<Item = Vec<u8>>) -> Vec<u8> {
    let mut out = Vec::new();
    for p in payloads {
        write_frame(&mut out, &p).expect("frame fits the cap");
    }
    out
}

/// Every pinned fixture: file name and today's encoding of its value.
fn fixtures() -> Vec<(&'static str, Vec<u8>)> {
    vec![
        (
            "snvc_f64.bin",
            encode_snapshot(&snapshot()).expect("encode"),
        ),
        (
            "snvc_landmarks.bin",
            encode_snapshot(&landmark_snapshot()).expect("encode"),
        ),
        ("snvj.bin", journal_image()),
        (
            "snvr_roll_forward.bin",
            encode_state(&router_state(Some(5))),
        ),
        ("snvr_roll_back.bin", encode_state(&router_state(None))),
        (
            "requests.bin",
            frames(requests().iter().map(Request::encode)),
        ),
        (
            "responses.bin",
            frames(responses().iter().map(Response::encode)),
        ),
    ]
}

fn fixture_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn read_fixture(name: &str) -> Vec<u8> {
    std::fs::read(fixture_path(name)).unwrap_or_else(|e| panic!("cannot read fixture {name}: {e}"))
}

/// The payloads of a frame stream, in order.
fn payloads(mut stream: &[u8]) -> Vec<Vec<u8>> {
    let mut out = Vec::new();
    while !stream.is_empty() {
        out.push(read_frame(&mut stream).expect("complete frame"));
    }
    out
}

// --- pins ---------------------------------------------------------------

#[test]
#[ignore = "rewrites the committed fixtures; run only after an intentional format change"]
fn regenerate_fixtures() {
    std::fs::create_dir_all(fixture_path("")).expect("fixture dir");
    for (name, bytes) in fixtures() {
        std::fs::write(fixture_path(name), &bytes).expect("write fixture");
        eprintln!("wrote {name} ({} bytes)", bytes.len());
    }
}

#[test]
fn encoders_reproduce_the_committed_fixtures() {
    for (name, bytes) in fixtures() {
        assert_eq!(bytes, read_fixture(name), "{name}: encoder output moved");
    }
}

#[test]
fn committed_fixtures_decode_to_their_values() {
    for (name, want) in [
        ("snvc_f64.bin", snapshot()),
        ("snvc_landmarks.bin", landmark_snapshot()),
    ] {
        let bytes = read_fixture(name);
        let back = decode_snapshot(&bytes).expect("decode SNVC fixture");
        assert_eq!(back, want, "{name}");
        assert_eq!(encode_snapshot(&back).expect("re-encode"), bytes, "{name}");
    }

    let journal = read_journal_bytes(&read_fixture("snvj.bin")).expect("decode SNVJ fixture");
    assert_eq!(journal.shard, 0x0102_0304_0506_0708);
    assert_eq!(journal.entries, journal_entries());
    assert_eq!(journal.truncated_tail, 0);

    for (name, target_local) in [
        ("snvr_roll_forward.bin", Some(5)),
        ("snvr_roll_back.bin", None),
    ] {
        let bytes = read_fixture(name);
        let back = decode_state(&bytes).expect("decode SNVR fixture");
        let want = router_state(target_local);
        assert_eq!(back.routes, want.routes, "{name}");
        assert_eq!(back.pending, want.pending, "{name}");
        assert_eq!(back.placements, want.placements, "{name}");
        assert_eq!(encode_state(&back), bytes, "{name}");
    }

    let reqs: Vec<Request> = payloads(&read_fixture("requests.bin"))
        .iter()
        .map(|p| Request::decode(p).expect("decode request fixture"))
        .collect();
    assert_eq!(reqs, requests());
    let rsps: Vec<Response> = payloads(&read_fixture("responses.bin"))
        .iter()
        .map(|p| Response::decode(p).expect("decode response fixture"))
        .collect();
    assert_eq!(rsps, responses());
}

// --- landmark sessions --------------------------------------------------

/// The estimate's bits, in wire encoding.
fn estimate_bytes(engine: &SolverEngine) -> Vec<u8> {
    let mut out = Vec::new();
    for (_, v) in engine.estimate().iter() {
        encode_variable(&mut out, v);
    }
    out
}

#[test]
fn landmark_sessions_round_trip_through_snvc_bit_for_bit() {
    let session = landmark_session();
    let mut reference = landmark_engine();
    for (initial, factors) in session.clone() {
        reference.step(initial, factors);
    }
    for cut in 1..session.len() {
        let mut live = landmark_engine();
        for (initial, factors) in session[..cut].iter().cloned() {
            live.step(initial, factors);
        }
        let bytes = encode_snapshot(&live.snapshot()).expect("landmark factors encode");
        let back = decode_snapshot(&bytes).expect("decode");
        let mut restored = landmark_engine()
            .restore(&back)
            .expect("replay matches the witness");
        for (initial, factors) in session[cut..].iter().cloned() {
            restored.step(initial, factors);
        }
        assert_eq!(
            estimate_bytes(&restored),
            estimate_bytes(&reference),
            "cut after {cut} steps"
        );
    }
}

// --- hostile checkpoints -------------------------------------------------

/// A two-update planar session whose second update carries `factor`.
fn hostile_blob(factor: Factor) -> Vec<u8> {
    let pose = |x| Variable::Se2(se2(x, 0.0, 1.0, 0.0));
    let prior = PriorFactor::se2(Key(0), se2(0.0, 0.0, 1.0, 0.0), noise(&[10.0; 3], None));
    encode_snapshot(&EngineSnapshot {
        plan_generation: 0,
        updates: vec![
            UpdateRecord {
                level: 0,
                initial: pose(0.0),
                factors: vec![prior.into()],
            },
            UpdateRecord {
                level: 0,
                initial: pose(1.0),
                factors: vec![factor],
            },
        ],
        estimate: vec![pose(0.0), pose(1.0)],
    })
    .expect("encode")
}

/// `blob` decodes to `want`; a `Restore` carrying it is refused, and the
/// one-session server then still creates and serves a session.
fn assert_refused(blob: Vec<u8>, want: CheckpointError) {
    assert_eq!(decode_snapshot(&blob).expect_err("decoded"), want);
    assert_restore_answered(blob, &format!("checkpoint rejected: {want}"));
}

/// `blob` decodes, but an engine refuses to replay it with `want`; a
/// `Restore` carrying it is refused, and the one-session server then
/// still creates and serves a session.
fn assert_unreplayable(blob: Vec<u8>, want: RestoreError) {
    let snapshot = decode_snapshot(&blob).expect("decodes");
    let refused = landmark_engine().restore(&snapshot).err();
    assert_eq!(refused, Some(want.clone()));
    assert_restore_answered(blob, &format!("restore rejected: {want}"));
}

/// A `Restore` carrying `blob` is answered `Error(want)`, and the
/// one-session server then still creates and serves a session.
fn assert_restore_answered(blob: Vec<u8>, want: &str) {
    let server = Server::start(ServeConfig {
        workers: 1,
        max_sessions: 1,
        ..ServeConfig::default()
    });
    let mut replays = BTreeMap::new();
    let restore = Request::Restore {
        kind: DatasetKind::Manhattan,
        steps: 8,
        seed: 1,
        cursor: 2,
        checkpoint: blob,
    };
    match handle(&server, &mut replays, restore) {
        (Response::Error(msg), false) => assert_eq!(msg, want),
        other => panic!("restore answered {other:?}"),
    }
    let create = Request::CreateSession {
        kind: DatasetKind::Manhattan,
        steps: 8,
        seed: 1,
    };
    let session = match handle(&server, &mut replays, create) {
        (Response::Created { session }, false) => session,
        other => panic!("create answered {other:?}"),
    };
    let submit = Request::Submit {
        session,
        deadline: 1_000,
        count: 8,
    };
    assert!(matches!(
        handle(&server, &mut replays, submit),
        (
            Response::Submitted {
                accepted: 8,
                shed: 0
            },
            false
        )
    ));
    server.drain(SessionId(session)).expect("drain");
    assert_eq!(
        server.estimate(SessionId(session)).expect("estimate").len(),
        8
    );
}

#[test]
fn snvc_naming_a_later_pose_is_refused() {
    let ahead = BetweenFactor::se2(
        Key(0),
        Key(5),
        se2(1.0, 0.0, 1.0, 0.0),
        noise(&[10.0; 3], None),
    );
    assert_refused(
        hostile_blob(ahead.into()),
        CheckpointError::UnknownKey { update: 1, key: 5 },
    );
}

#[test]
fn snvc_with_a_nan_measurement_is_refused() {
    let nan = BetweenFactor::se2(
        Key(0),
        Key(1),
        se2(f64::NAN, 0.0, 1.0, 0.0),
        noise(&[10.0; 3], None),
    );
    assert_refused(hostile_blob(nan.into()), CheckpointError::NonFinite);
}

/// A checkpoint written under the retired f32 mode carries 1 in the
/// reserved byte: it is refused, not replayed in f64.
#[test]
fn snvc_from_the_retired_f32_mode_is_refused() {
    let blob = read_fixture("snvc_f32.bin");
    let mut f64_blob = read_fixture("snvc_f64.bin");
    f64_blob[6] = 1;
    assert_eq!(
        blob, f64_blob,
        "snvc_f32.bin is snvc_f64.bin with byte 6 = 1"
    );
    assert_refused(blob, CheckpointError::BadNumericMode(1));
}

/// A version-1 router state file, which also stored every route's SNVC
/// bytes, is refused by its version, not misread as version 2.
#[test]
fn snvr_from_version_1_is_refused() {
    let bytes = read_fixture("snvr_v1.bin");
    assert_eq!(
        &bytes[..6],
        b"SNVR\x01\x00",
        "snvr_v1.bin is a version-1 file"
    );
    assert!(
        matches!(decode_state(&bytes), Err(StateError::BadVersion(1))),
        "got {:?}",
        decode_state(&bytes).map(|_| ())
    );
}

/// Each kind over a variable its residual does not evaluate. The bytes
/// are well formed; replaying them unchecked would panic in the solver.
#[test]
fn snvc_factors_over_the_wrong_variable_kind_are_refused() {
    let unfit = |key| RestoreError::UnfitVariable { update: 1, key };
    // A range-bearing sighting whose landmark x1 is a planar pose.
    let sighting = RangeBearingFactor::new(Key(0), Key(1), 2.0, 0.5, noise(&[5.0; 2], None));
    assert_unreplayable(hostile_blob(sighting.into()), unfit(1));
    // A point observation from the planar pose x0.
    let point = PointObservationFactor::new(Key(0), Key(1), [1.0; 3], noise(&[5.0; 3], None));
    assert_unreplayable(hostile_blob(point.into()), unfit(0));
    // A 3-D between over two planar poses.
    let odom = BetweenFactor::se3(Key(0), Key(1), se3([1.0; 3]), noise(&[10.0; 6], None));
    assert_unreplayable(hostile_blob(odom.into()), unfit(0));
}

/// Finite, well kinded and keyed in order, so it passes every input
/// check, yet no damping makes its system factorizable: replay panics in
/// the solver, and the restore boundary refuses it instead of letting the
/// panic reach the server.
#[test]
fn snvc_whose_replay_cannot_factorize_is_refused() {
    let origin = se2(0.0, 0.0, 1.0, 0.0);
    let prior = PriorFactor::se2(Key(0), origin, noise(&[10.0; 3], None));
    let blob = encode_snapshot(&EngineSnapshot {
        plan_generation: 0,
        updates: vec![UpdateRecord {
            level: 0,
            initial: Variable::Se2(se2(1e300, 0.0, 1.0, 0.0)),
            factors: vec![prior.into()],
        }],
        estimate: vec![Variable::Se2(origin)],
    })
    .expect("encode");
    assert_unreplayable(blob, RestoreError::Unsolvable { update: 0 });
}

// --- robustness ---------------------------------------------------------

/// What a decoder promises about strict prefixes of a valid input.
#[derive(Clone, Copy)]
enum PrefixContract {
    /// Every strict prefix is an error.
    Rejected,
    /// A prefix past the header returns the complete records before the
    /// cut and reports the rest as a torn tail (`SNVJ`).
    TornTail,
}

struct Case {
    name: String,
    bytes: Vec<u8>,
    decode: fn(&[u8]) -> Result<(), String>,
    prefixes: PrefixContract,
}

fn case(
    name: impl Into<String>,
    bytes: Vec<u8>,
    decode: fn(&[u8]) -> Result<(), String>,
    prefixes: PrefixContract,
) -> Case {
    Case {
        name: name.into(),
        bytes,
        decode,
        prefixes,
    }
}

/// A decode result with its value dropped and its error rendered.
fn verdict<T, E: std::fmt::Debug>(r: Result<T, E>) -> Result<(), String> {
    r.map(drop).map_err(|e| format!("{e:?}"))
}

fn cases() -> Vec<Case> {
    use PrefixContract::{Rejected, TornTail};
    let mut out = vec![case(
        "SNVJ",
        read_fixture("snvj.bin"),
        |b| verdict(read_journal_bytes(b)),
        TornTail,
    )];
    for name in ["snvc_f64.bin", "snvc_landmarks.bin"] {
        out.push(case(
            name,
            read_fixture(name),
            |b| verdict(decode_snapshot(b)),
            Rejected,
        ));
    }
    for name in ["snvr_roll_forward.bin", "snvr_roll_back.bin"] {
        out.push(case(
            name,
            read_fixture(name),
            |b| verdict(decode_state(b)),
            Rejected,
        ));
    }
    for (i, p) in payloads(&read_fixture("requests.bin"))
        .into_iter()
        .enumerate()
    {
        out.push(case(
            format!("request {i}"),
            p,
            |b| verdict(Request::decode(b)),
            Rejected,
        ));
    }
    for (i, p) in payloads(&read_fixture("responses.bin"))
        .into_iter()
        .enumerate()
    {
        out.push(case(
            format!("response {i}"),
            p,
            |b| verdict(Response::decode(b)),
            Rejected,
        ));
    }
    out
}

/// Runs one decode, turning a panic into a test failure that names the
/// input.
fn run(case: &Case, input: &[u8], what: &str) -> Result<(), String> {
    catch_unwind(AssertUnwindSafe(|| (case.decode)(input)))
        .unwrap_or_else(|_| panic!("{}: decoder panicked on {what}", case.name))
}

/// Byte offsets at which the journal's records start, plus its length.
fn journal_record_starts(bytes: &[u8]) -> Vec<usize> {
    let mut starts = Vec::new();
    let mut at = 14; // magic 4 | version 2 | shard 8
    while at < bytes.len() {
        starts.push(at);
        let len = u32::from_le_bytes(bytes[at..at + 4].try_into().expect("4 bytes"));
        at += 4 + len as usize;
    }
    assert_eq!(at, bytes.len(), "journal image ends on a record boundary");
    starts.push(at);
    starts
}

#[test]
fn every_strict_prefix_meets_its_format_contract() {
    for case in cases() {
        let full = &case.bytes;
        assert_eq!(run(&case, full, "the full input"), Ok(()), "{}", case.name);
        for cut in 0..full.len() {
            let prefix = &full[..cut];
            let got = run(&case, prefix, &format!("a {cut}-byte prefix"));
            match case.prefixes {
                PrefixContract::Rejected => {
                    assert!(got.is_err(), "{}: {cut}-byte prefix decoded", case.name);
                }
                PrefixContract::TornTail => {
                    let starts = journal_record_starts(full);
                    if cut < starts[0] {
                        assert!(got.is_err(), "{}: {cut}-byte header decoded", case.name);
                        continue;
                    }
                    let contents = read_journal_bytes(prefix).expect("torn tail is tolerated");
                    let complete = starts.iter().skip(1).filter(|&&s| s <= cut).count();
                    let record_start = starts[complete];
                    assert_eq!(contents.entries, journal_entries()[..complete], "cut {cut}");
                    assert_eq!(contents.truncated_tail, cut - record_start, "cut {cut}");
                }
            }
        }
    }
}

#[test]
fn seeded_byte_flips_never_panic() {
    let mut rng = XorShift64::seed_from_u64(0x5EED_F11B);
    for case in cases() {
        for _ in 0..4 * case.bytes.len() {
            let mut bad = case.bytes.clone();
            let at = rng.gen_index(bad.len());
            // A nonzero mask: every trial really changes the byte.
            let mask = (rng.next_u64() as u8) | 1;
            bad[at] ^= mask;
            let _ = run(&case, &bad, &format!("byte {at} ^ {mask:#04x}"));
        }
    }
}
