//! The replay-serving session service: the request handler shared by the
//! `serve_tcp` binary and the fleet shard harness, the one connection
//! loop every TCP front door runs (those two and `fleet_router`), and the
//! solo-replay oracle ([`solo_replay`], [`solo_estimate`]) every serve and
//! fleet gate judges a served session against.
//!
//! Every connection must open with a [`Request::Hello`] naming the
//! protocol version; any other first frame — or an unsupported version —
//! is refused with a typed [`AdmissionError::ProtocolMismatch`] rendered
//! as an error response, and the connection closes. Decode failures never
//! panic the server.

use std::collections::BTreeMap;
use std::io::BufWriter;
use std::net::TcpStream;
use std::sync::Arc;

use supernova_datasets::{Dataset, OnlineStep};
use supernova_factors::{Key, Values, Variable};
use supernova_runtime::CostModel;
use supernova_solvers::SolverEngine;

use crate::checkpoint::{decode_snapshot, encode_snapshot};
use crate::protocol::{
    recv_request, send_response, DatasetKind, Request, Response, WireError, PROTOCOL_VERSION,
};
use crate::{AdmissionError, ServeConfig, Server, SessionId, UpdateRequest};

/// Server-side replay state of one session: its generator descriptor, the
/// regenerated step stream, and how far the client has pushed it.
pub struct Replay {
    /// The generator family.
    pub kind: DatasetKind,
    /// Online steps in the full replayed trajectory.
    pub total_steps: u32,
    /// Generator seed.
    pub seed: u64,
    /// The regenerated step stream.
    pub steps: Vec<OnlineStep>,
    /// Steps already submitted into the session's queue.
    pub cursor: usize,
}

/// Regenerates the dataset a session replays.
pub fn generate(kind: DatasetKind, steps: u32, seed: u64) -> Dataset {
    match kind {
        DatasetKind::Manhattan => Dataset::manhattan_seeded(steps as usize, seed),
        DatasetKind::Sphere => Dataset::sphere_seeded(steps as usize, seed),
    }
}

/// Replays `steps` in order on a fresh engine built from `cfg`'s `ra` and
/// `platform` — the reference a served session must match bit for bit. It
/// builds its engine here rather than through the server's own engine
/// construction on purpose: a server that configured its engines wrongly
/// must still disagree with this oracle.
pub fn solo_replay(cfg: &ServeConfig, steps: &[OnlineStep]) -> SolverEngine {
    let cost = Arc::new(CostModel::new(cfg.platform.clone()));
    let mut engine = SolverEngine::new(cfg.ra, cost);
    for step in steps {
        engine.step(step.truth.clone(), step.factors.clone());
    }
    engine
}

/// The pose list a session replaying `(kind, steps, seed)` under `cfg`
/// must answer [`Request::QueryEstimate`] with once every step it was
/// given has run: [`solo_replay`] over the served prefix. A replay admits
/// at most `steps` updates, while some generators emit a few more online
/// steps (sphere closures), so the stream is cut at `steps`.
pub fn solo_estimate(cfg: &ServeConfig, kind: DatasetKind, steps: u32, seed: u64) -> Vec<Variable> {
    let mut served = generate(kind, steps, seed).online_steps();
    served.truncate(steps as usize);
    poses(&solo_replay(cfg, &served).estimate())
}

/// Every pose of `values` in key order, as [`Response::Estimate`] carries
/// them.
fn poses(values: &Values) -> Vec<Variable> {
    (0..values.len())
        .map(|i| values.get(Key(i)).clone())
        .collect()
}

/// Applies one request. Returns the response and whether the server
/// should shut down after sending it.
pub fn handle(
    server: &Server,
    replays: &mut BTreeMap<u64, Replay>,
    req: Request,
) -> (Response, bool) {
    match req {
        Request::Hello { .. } => (
            // `serve_connection` answers every hello itself; this arm only
            // keeps the handler total.
            Response::Hello {
                version: PROTOCOL_VERSION,
            },
            false,
        ),
        Request::CreateSession { kind, steps, seed } => match server.create_session() {
            Ok(sid) => {
                let ds = generate(kind, steps, seed);
                replays.insert(
                    sid.0,
                    Replay {
                        kind,
                        total_steps: steps,
                        seed,
                        steps: ds.online_steps(),
                        cursor: 0,
                    },
                );
                (Response::Created { session: sid.0 }, false)
            }
            Err(e) => (Response::Error(e.to_string()), false),
        },
        Request::Submit {
            session,
            deadline,
            count,
        } => {
            let Some(replay) = replays.get_mut(&session) else {
                return (
                    Response::Error(AdmissionError::UnknownSession(SessionId(session)).to_string()),
                    false,
                );
            };
            // Submission stops at the first full queue without consuming
            // that step, so the replay never skips a pose: the refused step
            // is the next one a later submit sends.
            let mut accepted = 0u32;
            let mut shed = 0u32;
            for i in 0..count {
                let Some(step) = replay.steps.get(replay.cursor) else {
                    break; // the replayed trajectory is exhausted
                };
                let req = UpdateRequest::new(
                    deadline + u64::from(i),
                    step.truth.clone(),
                    step.factors.clone(),
                );
                match server.submit(SessionId(session), req) {
                    Ok(()) => {
                        replay.cursor += 1;
                        accepted += 1;
                    }
                    Err(AdmissionError::QueueFull { .. }) => {
                        shed = 1;
                        break;
                    }
                    Err(e) => return (Response::Error(e.to_string()), false),
                }
            }
            (Response::Submitted { accepted, shed }, false)
        }
        Request::QueryEstimate { session } => match server.estimate(SessionId(session)) {
            Ok(values) => (Response::Estimate(poses(&values)), false),
            Err(e) => (Response::Error(e.to_string()), false),
        },
        Request::Close { session } => match server.close(SessionId(session)) {
            Ok(report) => {
                replays.remove(&session);
                (
                    Response::Closed {
                        completed: report.completed,
                        shed: report.shed,
                    },
                    false,
                )
            }
            Err(e) => (Response::Error(e.to_string()), false),
        },
        Request::Shutdown => (Response::ShuttingDown, true),
        Request::Snapshot { session } => {
            let Some(replay) = replays.get(&session) else {
                return (
                    Response::Error(AdmissionError::UnknownSession(SessionId(session)).to_string()),
                    false,
                );
            };
            match server.snapshot_session(SessionId(session)) {
                Ok(snap) => match encode_snapshot(&snap) {
                    Ok(bytes) => (
                        Response::Snapshot {
                            kind: replay.kind,
                            steps: replay.total_steps,
                            seed: replay.seed,
                            cursor: replay.cursor as u64,
                            applied: snap.updates.len() as u64,
                            checkpoint: bytes,
                        },
                        false,
                    ),
                    Err(e) => (Response::Error(format!("checkpoint encode: {e}")), false),
                },
                Err(e) => (Response::Error(e.to_string()), false),
            }
        }
        Request::Restore {
            kind,
            steps,
            seed,
            cursor,
            checkpoint,
        } => {
            let snap = match decode_snapshot(&checkpoint) {
                Ok(snap) => snap,
                Err(e) => return (Response::Error(format!("checkpoint rejected: {e}")), false),
            };
            let ds = generate(kind, steps, seed);
            let all = ds.online_steps();
            if cursor as usize > all.len() || (snap.updates.len() as u64) > cursor {
                return (
                    Response::Error(format!(
                        "checkpoint rejected: cursor {cursor} inconsistent with {} applied \
                         updates over a {}-step trajectory",
                        snap.updates.len(),
                        all.len()
                    )),
                    false,
                );
            }
            match server.restore_session(&snap) {
                Ok(sid) => {
                    replays.insert(
                        sid.0,
                        Replay {
                            kind,
                            total_steps: steps,
                            seed,
                            steps: all,
                            cursor: cursor as usize,
                        },
                    );
                    (Response::Created { session: sid.0 }, false)
                }
                Err(e) => (Response::Error(e.to_string()), false),
            }
        }
    }
}

/// Serves one connection until the peer hangs up or `handle` asks to
/// stop; returns whether the whole server should stop. The loop owns the
/// handshake (see the module docs) and answers every hello itself; any
/// other request goes to `handle`, which returns the response and a stop
/// flag.
///
/// # Errors
///
/// Transport errors only; protocol violations (bad hello, malformed
/// frames) are answered with an error response and a clean `Ok(false)`.
pub fn serve_connection(
    stream: TcpStream,
    mut handle: impl FnMut(Request) -> (Response, bool),
) -> Result<bool, WireError> {
    let mut reader = stream.try_clone()?;
    let mut writer = BufWriter::new(stream);
    let mut hello_done = false;
    loop {
        let req = match recv_request(&mut reader) {
            Ok(req) => req,
            Err(WireError::Closed) => return Ok(false),
            Err(WireError::Malformed(why)) => {
                // Framing survives a bad payload; tell the peer and drop
                // the connection (resync is not worth the complexity).
                let _ = send_response(&mut writer, &Response::Error(format!("malformed: {why}")));
                return Ok(false);
            }
            Err(e) => return Err(e),
        };
        if !hello_done {
            let client = match req {
                Request::Hello { version } => Some(version),
                _ => None,
            };
            if client != Some(PROTOCOL_VERSION) {
                let refusal = AdmissionError::ProtocolMismatch {
                    client,
                    supported: PROTOCOL_VERSION,
                };
                let _ = send_response(&mut writer, &Response::Error(refusal.to_string()));
                return Ok(false);
            }
            hello_done = true;
        }
        let (rsp, stop) = match req {
            // A repeated hello is an idempotent no-op.
            Request::Hello { .. } => (
                Response::Hello {
                    version: PROTOCOL_VERSION,
                },
                false,
            ),
            req => handle(req),
        };
        send_response(&mut writer, &rsp)?;
        if stop {
            return Ok(true);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    use crate::protocol::{recv_response, send_request, write_frame};

    /// Runs `serve_connection` on one loopback connection whose client
    /// side is `script`. The handler records every request it is given,
    /// stops on `Shutdown` and answers anything else `Created`.
    fn serve_one(script: impl FnOnce(&mut TcpStream)) -> (Result<bool, WireError>, Vec<Request>) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let addr = listener.local_addr().expect("local addr");
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().expect("accept");
            let mut seen = Vec::new();
            let outcome = serve_connection(stream, |req| {
                let stop = req == Request::Shutdown;
                seen.push(req);
                match stop {
                    true => (Response::ShuttingDown, true),
                    false => (Response::Created { session: 9 }, false),
                }
            });
            (outcome, seen)
        });
        let mut client = TcpStream::connect(addr).expect("connect");
        script(&mut client);
        drop(client);
        server.join().expect("server thread")
    }

    fn call(c: &mut TcpStream, req: &Request) -> Response {
        send_request(c, req).expect("send");
        recv_response(c).expect("response")
    }

    fn hello(version: u8) -> Request {
        Request::Hello { version }
    }

    fn refusal(client: Option<u8>) -> Response {
        let e = AdmissionError::ProtocolMismatch {
            client,
            supported: PROTOCOL_VERSION,
        };
        Response::Error(e.to_string())
    }

    fn assert_closed(c: &mut TcpStream) {
        assert!(matches!(recv_response(c), Err(WireError::Closed)));
    }

    #[test]
    fn a_first_frame_that_is_not_hello_is_refused_and_closes() {
        let (outcome, seen) = serve_one(|c| {
            assert_eq!(call(c, &Request::Close { session: 1 }), refusal(None));
            assert_closed(c);
        });
        assert!(matches!(outcome, Ok(false)));
        assert!(seen.is_empty(), "handler never called");
    }

    #[test]
    fn an_unsupported_version_is_refused_and_closes() {
        let (outcome, seen) = serve_one(|c| {
            assert_eq!(call(c, &hello(1)), refusal(Some(1)));
            assert_closed(c);
        });
        assert!(matches!(outcome, Ok(false)));
        assert!(seen.is_empty(), "handler never called");
    }

    #[test]
    fn a_malformed_payload_after_hello_is_answered_then_closes() {
        let (outcome, seen) = serve_one(|c| {
            let v = PROTOCOL_VERSION;
            assert_eq!(call(c, &hello(v)), Response::Hello { version: v });
            write_frame(c, &[0x7E]).expect("send");
            match recv_response(c).expect("response") {
                Response::Error(msg) => assert!(msg.starts_with("malformed: "), "{msg}"),
                other => panic!("expected a malformed-frame error, got {other:?}"),
            }
            assert_closed(c);
        });
        assert!(matches!(outcome, Ok(false)));
        assert!(seen.is_empty(), "handler never called");
    }

    #[test]
    fn hellos_are_answered_by_the_loop_and_stop_ends_it() {
        let (outcome, seen) = serve_one(|c| {
            let v = PROTOCOL_VERSION;
            assert_eq!(call(c, &hello(v)), Response::Hello { version: v });
            let query = Request::QueryEstimate { session: 4 };
            assert_eq!(call(c, &query), Response::Created { session: 9 });
            assert_eq!(call(c, &hello(v)), Response::Hello { version: v });
            assert_eq!(call(c, &Request::Shutdown), Response::ShuttingDown);
            assert_closed(c);
        });
        assert!(
            matches!(outcome, Ok(true)),
            "stop ends the loop with Ok(true)"
        );
        assert_eq!(
            seen,
            vec![Request::QueryEstimate { session: 4 }, Request::Shutdown]
        );
    }
}
