//! The length-prefixed wire protocol `serve_tcp` speaks.
//!
//! Every message is one frame: a little-endian `u32` payload length
//! followed by the payload, whose first byte is a message tag. The protocol
//! is *replay-serving*: a client opens a session by naming a seeded dataset
//! (kind, steps, seed) and the server regenerates the identical step stream
//! on its side — only indices and poses cross the wire, never factors. That
//! keeps the protocol std-only and the served estimates bit-comparable to
//! solo runs of the same seed.
//!
//! Poses are encoded losslessly: an SE(2) as its stored `(cos θ, sin θ)`
//! pair plus translation, an SE(3) as its stored 3×3 rotation matrix
//! (row-major) plus translation. Decoding reconstructs the exact bits, so
//! a round trip through the wire never perturbs an estimate.

use std::io::{Read, Write};

use supernova_factors::{Rot2, Rot3, Se2, Se3, Variable};
use supernova_linalg::Mat;
use supernova_trace::wire::{put_bytes, put_f64, put_u32, put_u64, ReadError, Reader};

/// Hard cap on accepted frame payloads (16 MiB): a corrupt or hostile
/// length prefix must not convince the server to allocate unboundedly.
pub const MAX_FRAME_BYTES: usize = 16 << 20;

/// The protocol version this build speaks. Version 2 added the
/// [`Request::Hello`] handshake (the first frame every connection must
/// send) and the [`Request::Snapshot`]/[`Request::Restore`] pair the fleet
/// router uses for migration and failover. Servers refuse other versions
/// with a typed admission error, never a decode panic.
pub const PROTOCOL_VERSION: u8 = 2;

/// Which seeded dataset a session replays.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DatasetKind {
    /// [`Dataset::manhattan_seeded`](supernova_datasets::Dataset::manhattan_seeded).
    Manhattan,
    /// [`Dataset::sphere_seeded`](supernova_datasets::Dataset::sphere_seeded).
    Sphere,
}

impl DatasetKind {
    /// The kind's wire byte (also used by the fleet journal).
    pub fn code(self) -> u8 {
        match self {
            DatasetKind::Manhattan => 0,
            DatasetKind::Sphere => 1,
        }
    }

    /// Decodes a wire byte back to a kind.
    ///
    /// # Errors
    ///
    /// [`WireError::Malformed`] on an unknown byte.
    pub fn from_code(b: u8) -> Result<Self, WireError> {
        match b {
            0 => Ok(DatasetKind::Manhattan),
            1 => Ok(DatasetKind::Sphere),
            _ => Err(WireError::Malformed("unknown dataset kind")),
        }
    }
}

/// A client request.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Version handshake; must be the first frame on every connection.
    Hello {
        /// The protocol version the client speaks.
        version: u8,
    },
    /// Open a session replaying a seeded dataset.
    CreateSession {
        /// The generator family.
        kind: DatasetKind,
        /// Online steps in the replayed trajectory.
        steps: u32,
        /// Generator seed.
        seed: u64,
    },
    /// Feed the session's next `count` replay steps into its queue, with
    /// logical deadlines `deadline, deadline + 1, …`.
    Submit {
        /// The target session.
        session: u64,
        /// Logical deadline of the first submitted step.
        deadline: u64,
        /// How many replay steps to submit.
        count: u32,
    },
    /// Drain the session and return its full trajectory estimate.
    QueryEstimate {
        /// The target session.
        session: u64,
    },
    /// Close the session and return its lifetime counters.
    Close {
        /// The target session.
        session: u64,
    },
    /// Stop the server once in-flight work drains.
    Shutdown,
    /// Drain the session and return a checkpoint of its engine state plus
    /// its replay descriptor (migration source side).
    Snapshot {
        /// The target session.
        session: u64,
    },
    /// Recreate a session from a checkpoint (migration/failover target
    /// side): the replay descriptor plus the serialized engine state.
    Restore {
        /// The generator family.
        kind: DatasetKind,
        /// Online steps in the replayed trajectory.
        steps: u32,
        /// Generator seed.
        seed: u64,
        /// Replay cursor: how many steps have already been submitted.
        cursor: u64,
        /// The serialized engine checkpoint (`SNVC` bytes).
        checkpoint: Vec<u8>,
    },
}

/// A server response.
#[derive(Clone, Debug, PartialEq)]
pub enum Response {
    /// The server accepted the handshake and states its own version.
    Hello {
        /// The protocol version the server speaks.
        version: u8,
    },
    /// The session was created.
    Created {
        /// Its id.
        session: u64,
    },
    /// A `Submit` outcome: how many steps were enqueued and whether the
    /// bounded queue refused one.
    Submitted {
        /// Steps admitted to the queue.
        accepted: u32,
        /// Steps shed (queue full): 0 or 1, because submission stops at
        /// the first refusal and leaves that step next in the replay.
        shed: u32,
    },
    /// The drained trajectory estimate, pose per incorporated variable.
    Estimate(
        /// The poses, in key order.
        Vec<Variable>,
    ),
    /// The session closed.
    Closed {
        /// Updates applied over its lifetime.
        completed: u64,
        /// Updates shed over its lifetime.
        shed: u64,
    },
    /// The server acknowledged `Shutdown` and will exit.
    ShuttingDown,
    /// The drained session's checkpoint and replay descriptor.
    Snapshot {
        /// The generator family.
        kind: DatasetKind,
        /// Online steps in the replayed trajectory.
        steps: u32,
        /// Generator seed.
        seed: u64,
        /// Replay cursor: steps already submitted to the session.
        cursor: u64,
        /// Updates the engine has applied (equals the checkpoint's update
        /// count; the journal-suffix floor for failover replay).
        applied: u64,
        /// The serialized engine checkpoint (`SNVC` bytes).
        checkpoint: Vec<u8>,
    },
    /// The request was refused or malformed.
    Error(
        /// Human-readable reason.
        String,
    ),
}

/// What can go wrong reading or decoding a frame.
#[derive(Debug)]
pub enum WireError {
    /// The underlying transport failed.
    Io(std::io::Error),
    /// The peer closed the connection between frames (a clean EOF).
    Closed,
    /// The frame violates the protocol.
    Malformed(&'static str),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "transport error: {e}"),
            WireError::Closed => f.write_str("peer closed the connection"),
            WireError::Malformed(why) => write!(f, "malformed frame: {why}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> Self {
        WireError::Io(e)
    }
}

impl From<ReadError> for WireError {
    fn from(e: ReadError) -> Self {
        WireError::Malformed(match e {
            ReadError::Truncated => "truncated frame",
            ReadError::TooLarge(_) => "count exceeds the bytes left",
            ReadError::TrailingBytes(_) => "trailing bytes",
            // Frames carry no magic/version header; the arms keep the
            // conversion total.
            ReadError::BadMagic | ReadError::BadVersion(_) => "bad header",
        })
    }
}

// --- pose encoding ----------------------------------------------------

const VAR_SE2: u8 = 0;
const VAR_SE3: u8 = 1;
const VAR_VEC: u8 = 2;

/// Appends one pose to `out` (tag + components, bit-exact).
pub fn encode_variable(out: &mut Vec<u8>, var: &Variable) {
    match var {
        Variable::Se2(p) => {
            out.push(VAR_SE2);
            let (c, s) = p.rotation().cos_sin();
            put_f64(out, c);
            put_f64(out, s);
            let [tx, ty] = p.translation();
            put_f64(out, tx);
            put_f64(out, ty);
        }
        Variable::Se3(p) => {
            out.push(VAR_SE3);
            let m = p.rotation().matrix();
            for r in 0..3 {
                for c in 0..3 {
                    // Encode side over internal state: indices are bounded
                    // by the literal 0..3 loops against a 3x3 rotation.
                    put_f64(out, m[(r, c)]); // lint: allow(panic-path)
                }
            }
            let t = p.translation();
            for v in t {
                put_f64(out, v);
            }
        }
        Variable::Vector(v) => {
            out.push(VAR_VEC);
            put_u32(out, v.len() as u32);
            for x in v {
                put_f64(out, *x);
            }
        }
    }
}

/// The smallest encoded pose: a zero-length vector (tag + length).
pub(crate) const MIN_VARIABLE_BYTES: usize = 5;

pub(crate) fn decode_variable(cur: &mut Reader<'_>) -> Result<Variable, WireError> {
    match cur.u8()? {
        VAR_SE2 => {
            let c = cur.f64()?;
            let s = cur.f64()?;
            let x = cur.f64()?;
            let y = cur.f64()?;
            Ok(Variable::Se2(Se2::from_parts(
                [x, y],
                Rot2::from_cos_sin(c, s),
            )))
        }
        VAR_SE3 => {
            let mut m = [0.0f64; 9];
            for v in &mut m {
                *v = cur.f64()?;
            }
            let mut t = [0.0f64; 3];
            for v in &mut t {
                *v = cur.f64()?;
            }
            Ok(Variable::Se3(Se3::from_parts(
                t,
                Rot3::from_matrix(Mat::from_rows(3, 3, &m)),
            )))
        }
        VAR_VEC => {
            let n = cur.count(8)?;
            let mut v = Vec::with_capacity(n);
            for _ in 0..n {
                v.push(cur.f64()?);
            }
            Ok(Variable::Vector(v))
        }
        _ => Err(WireError::Malformed("unknown variable tag")),
    }
}

// --- message encoding -------------------------------------------------

const REQ_CREATE: u8 = 0x01;
const REQ_SUBMIT: u8 = 0x02;
const REQ_ESTIMATE: u8 = 0x03;
const REQ_CLOSE: u8 = 0x04;
const REQ_SHUTDOWN: u8 = 0x05;
const REQ_HELLO: u8 = 0x06;
const REQ_SNAPSHOT: u8 = 0x07;
const REQ_RESTORE: u8 = 0x08;

const RSP_CREATED: u8 = 0x81;
const RSP_SUBMITTED: u8 = 0x82;
const RSP_ESTIMATE: u8 = 0x83;
const RSP_CLOSED: u8 = 0x84;
const RSP_SHUTTING_DOWN: u8 = 0x85;
const RSP_HELLO: u8 = 0x86;
const RSP_SNAPSHOT: u8 = 0x87;
const RSP_ERROR: u8 = 0xFF;

impl Request {
    /// Serializes the request to a frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            Request::CreateSession { kind, steps, seed } => {
                out.push(REQ_CREATE);
                out.push(kind.code());
                put_u32(&mut out, *steps);
                put_u64(&mut out, *seed);
            }
            Request::Submit {
                session,
                deadline,
                count,
            } => {
                out.push(REQ_SUBMIT);
                put_u64(&mut out, *session);
                put_u64(&mut out, *deadline);
                put_u32(&mut out, *count);
            }
            Request::QueryEstimate { session } => {
                out.push(REQ_ESTIMATE);
                put_u64(&mut out, *session);
            }
            Request::Close { session } => {
                out.push(REQ_CLOSE);
                put_u64(&mut out, *session);
            }
            Request::Shutdown => out.push(REQ_SHUTDOWN),
            Request::Hello { version } => {
                out.push(REQ_HELLO);
                out.push(*version);
            }
            Request::Snapshot { session } => {
                out.push(REQ_SNAPSHOT);
                put_u64(&mut out, *session);
            }
            Request::Restore {
                kind,
                steps,
                seed,
                cursor,
                checkpoint,
            } => {
                out.push(REQ_RESTORE);
                out.push(kind.code());
                put_u32(&mut out, *steps);
                put_u64(&mut out, *seed);
                put_u64(&mut out, *cursor);
                put_bytes(&mut out, checkpoint);
            }
        }
        out
    }

    /// Parses a frame payload as a request.
    ///
    /// # Errors
    ///
    /// [`WireError::Malformed`] on an unknown tag, truncation, or trailing
    /// bytes.
    pub fn decode(payload: &[u8]) -> Result<Self, WireError> {
        let mut cur = Reader::new(payload);
        let req = match cur.u8()? {
            REQ_CREATE => Request::CreateSession {
                kind: DatasetKind::from_code(cur.u8()?)?,
                steps: cur.u32()?,
                seed: cur.u64()?,
            },
            REQ_SUBMIT => Request::Submit {
                session: cur.u64()?,
                deadline: cur.u64()?,
                count: cur.u32()?,
            },
            REQ_ESTIMATE => Request::QueryEstimate {
                session: cur.u64()?,
            },
            REQ_CLOSE => Request::Close {
                session: cur.u64()?,
            },
            REQ_SHUTDOWN => Request::Shutdown,
            REQ_HELLO => Request::Hello { version: cur.u8()? },
            REQ_SNAPSHOT => Request::Snapshot {
                session: cur.u64()?,
            },
            REQ_RESTORE => Request::Restore {
                kind: DatasetKind::from_code(cur.u8()?)?,
                steps: cur.u32()?,
                seed: cur.u64()?,
                cursor: cur.u64()?,
                checkpoint: cur.bytes()?.to_vec(),
            },
            _ => return Err(WireError::Malformed("unknown request tag")),
        };
        cur.finish()?;
        Ok(req)
    }
}

impl Response {
    /// Serializes the response to a frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            Response::Created { session } => {
                out.push(RSP_CREATED);
                put_u64(&mut out, *session);
            }
            Response::Submitted { accepted, shed } => {
                out.push(RSP_SUBMITTED);
                put_u32(&mut out, *accepted);
                put_u32(&mut out, *shed);
            }
            Response::Estimate(vars) => {
                out.push(RSP_ESTIMATE);
                put_u32(&mut out, vars.len() as u32);
                for v in vars {
                    encode_variable(&mut out, v);
                }
            }
            Response::Closed { completed, shed } => {
                out.push(RSP_CLOSED);
                put_u64(&mut out, *completed);
                put_u64(&mut out, *shed);
            }
            Response::ShuttingDown => out.push(RSP_SHUTTING_DOWN),
            Response::Hello { version } => {
                out.push(RSP_HELLO);
                out.push(*version);
            }
            Response::Snapshot {
                kind,
                steps,
                seed,
                cursor,
                applied,
                checkpoint,
            } => {
                out.push(RSP_SNAPSHOT);
                out.push(kind.code());
                put_u32(&mut out, *steps);
                put_u64(&mut out, *seed);
                put_u64(&mut out, *cursor);
                put_u64(&mut out, *applied);
                put_bytes(&mut out, checkpoint);
            }
            Response::Error(msg) => {
                out.push(RSP_ERROR);
                put_bytes(&mut out, msg.as_bytes());
            }
        }
        out
    }

    /// Parses a frame payload as a response.
    ///
    /// # Errors
    ///
    /// [`WireError::Malformed`] on an unknown tag, truncation, or trailing
    /// bytes.
    pub fn decode(payload: &[u8]) -> Result<Self, WireError> {
        let mut cur = Reader::new(payload);
        let rsp = match cur.u8()? {
            RSP_CREATED => Response::Created {
                session: cur.u64()?,
            },
            RSP_SUBMITTED => Response::Submitted {
                accepted: cur.u32()?,
                shed: cur.u32()?,
            },
            RSP_ESTIMATE => {
                let n = cur.count(MIN_VARIABLE_BYTES)?;
                let mut vars = Vec::with_capacity(n);
                for _ in 0..n {
                    vars.push(decode_variable(&mut cur)?);
                }
                Response::Estimate(vars)
            }
            RSP_CLOSED => Response::Closed {
                completed: cur.u64()?,
                shed: cur.u64()?,
            },
            RSP_SHUTTING_DOWN => Response::ShuttingDown,
            RSP_HELLO => Response::Hello { version: cur.u8()? },
            RSP_SNAPSHOT => Response::Snapshot {
                kind: DatasetKind::from_code(cur.u8()?)?,
                steps: cur.u32()?,
                seed: cur.u64()?,
                cursor: cur.u64()?,
                applied: cur.u64()?,
                checkpoint: cur.bytes()?.to_vec(),
            },
            RSP_ERROR => {
                let msg = std::str::from_utf8(cur.bytes()?)
                    .map_err(|_| WireError::Malformed("error message is not UTF-8"))?;
                Response::Error(msg.to_string())
            }
            _ => return Err(WireError::Malformed("unknown response tag")),
        };
        cur.finish()?;
        Ok(rsp)
    }
}

// --- framing ----------------------------------------------------------

/// Writes one frame (length prefix + payload) to `w`.
///
/// # Errors
///
/// Propagates transport errors; refuses payloads above
/// [`MAX_FRAME_BYTES`].
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> Result<(), WireError> {
    if payload.len() > MAX_FRAME_BYTES {
        return Err(WireError::Malformed("frame exceeds the size cap"));
    }
    w.write_all(&(payload.len() as u32).to_le_bytes())?;
    w.write_all(payload)?;
    w.flush()?;
    Ok(())
}

/// Reads one frame from `r` and returns its payload.
///
/// # Errors
///
/// [`WireError::Closed`] on a clean EOF before the length prefix,
/// [`WireError::Malformed`] on an oversized length, transport errors
/// otherwise.
pub fn read_frame(r: &mut impl Read) -> Result<Vec<u8>, WireError> {
    let mut len = [0u8; 4];
    match r.read_exact(&mut len) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => return Err(WireError::Closed),
        Err(e) => return Err(e.into()),
    }
    let n = u32::from_le_bytes(len) as usize;
    if n > MAX_FRAME_BYTES {
        return Err(WireError::Malformed("frame exceeds the size cap"));
    }
    let mut payload = vec![0u8; n];
    r.read_exact(&mut payload)?;
    Ok(payload)
}

/// Writes a request as one frame.
///
/// # Errors
///
/// See [`write_frame`].
pub fn send_request(w: &mut impl Write, req: &Request) -> Result<(), WireError> {
    write_frame(w, &req.encode())
}

/// Reads and decodes one request frame.
///
/// # Errors
///
/// See [`read_frame`] and [`Request::decode`].
pub fn recv_request(r: &mut impl Read) -> Result<Request, WireError> {
    Request::decode(&read_frame(r)?)
}

/// Writes a response as one frame.
///
/// # Errors
///
/// See [`write_frame`].
pub fn send_response(w: &mut impl Write, rsp: &Response) -> Result<(), WireError> {
    write_frame(w, &rsp.encode())
}

/// Reads and decodes one response frame.
///
/// # Errors
///
/// See [`read_frame`] and [`Response::decode`].
pub fn recv_response(r: &mut impl Read) -> Result<Response, WireError> {
    Response::decode(&read_frame(r)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_round_trip() {
        let reqs = [
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
            Request::Hello {
                version: PROTOCOL_VERSION,
            },
            Request::Snapshot { session: 7 },
            Request::Restore {
                kind: DatasetKind::Manhattan,
                steps: 40,
                seed: 101,
                cursor: 12,
                checkpoint: vec![0x53, 0x4E, 0x56, 0x43, 9, 9],
            },
        ];
        for req in reqs {
            assert_eq!(Request::decode(&req.encode()).expect("round trip"), req);
        }
    }

    #[test]
    fn v2_responses_round_trip() {
        let rsps = [
            Response::Hello {
                version: PROTOCOL_VERSION,
            },
            Response::Snapshot {
                kind: DatasetKind::Sphere,
                steps: 30,
                seed: 201,
                cursor: 9,
                applied: 9,
                checkpoint: vec![1, 2, 3],
            },
        ];
        for rsp in rsps {
            assert_eq!(Response::decode(&rsp.encode()).expect("round trip"), rsp);
        }
        // Truncated checkpoint payloads are rejected, not panicked.
        let mut enc = Response::Snapshot {
            kind: DatasetKind::Sphere,
            steps: 30,
            seed: 201,
            cursor: 9,
            applied: 9,
            checkpoint: vec![1, 2, 3],
        }
        .encode();
        enc.pop();
        assert!(matches!(
            Response::decode(&enc),
            Err(WireError::Malformed(_))
        ));
    }

    #[test]
    fn poses_round_trip_bit_exactly() {
        // Non-representable angles: the (cos, sin) pair carries the exact
        // bits even when no angle reproduces them.
        let se2 = Variable::Se2(Se2::new(1.0 / 3.0, -7.2e-9, 2.5));
        let se3 = Variable::Se3(Se3::from_parts(
            [0.1, -0.2, 1e30],
            Rot3::exp(&[0.3, -0.1, 0.72]),
        ));
        let rsp = Response::Estimate(vec![se2.clone(), se3.clone()]);
        let back = Response::decode(&rsp.encode()).expect("round trip");
        let Response::Estimate(vars) = back else {
            panic!("wrong tag")
        };
        // Variable's PartialEq compares exact f64 bits componentwise.
        assert_eq!(vars, vec![se2, se3]);
    }

    #[test]
    fn framing_round_trips_over_a_buffer() {
        let mut buf = Vec::new();
        send_request(&mut buf, &Request::Shutdown).expect("write");
        send_response(
            &mut buf,
            &Response::Submitted {
                accepted: 4,
                shed: 1,
            },
        )
        .expect("write");
        let mut r = buf.as_slice();
        assert_eq!(recv_request(&mut r).expect("read"), Request::Shutdown);
        assert_eq!(
            recv_response(&mut r).expect("read"),
            Response::Submitted {
                accepted: 4,
                shed: 1
            }
        );
        assert!(
            matches!(recv_request(&mut r), Err(WireError::Closed)),
            "clean EOF"
        );
    }

    #[test]
    fn counts_are_bounded_by_the_bytes_left_not_the_frame_cap() {
        // An estimate claiming MAX_FRAME_BYTES / 9 poses in a 5-byte
        // payload, and one vector pose claiming MAX_FRAME_BYTES / 8
        // components in a 10-byte payload: both must fail at the count,
        // before anything is reserved (the frame-cap bound reserved
        // 184 MiB and 16 MiB for these).
        let mut many_poses = vec![RSP_ESTIMATE];
        put_u32(&mut many_poses, (MAX_FRAME_BYTES / 9) as u32);
        let mut long_vector = vec![RSP_ESTIMATE];
        put_u32(&mut long_vector, 1);
        long_vector.push(VAR_VEC);
        put_u32(&mut long_vector, (MAX_FRAME_BYTES / 8) as u32);
        assert_eq!((many_poses.len(), long_vector.len()), (5, 10));
        for payload in [many_poses, long_vector] {
            assert!(matches!(
                Response::decode(&payload),
                Err(WireError::Malformed("count exceeds the bytes left"))
            ));
        }
    }

    #[test]
    fn malformed_frames_are_rejected_not_panicked() {
        assert!(matches!(Request::decode(&[]), Err(WireError::Malformed(_))));
        assert!(matches!(
            Request::decode(&[0x7E]),
            Err(WireError::Malformed(_))
        ));
        // Truncated Submit.
        let mut good = Request::Submit {
            session: 1,
            deadline: 2,
            count: 3,
        }
        .encode();
        good.pop();
        assert!(matches!(
            Request::decode(&good),
            Err(WireError::Malformed(_))
        ));
        // Trailing garbage.
        let mut padded = Request::Shutdown.encode();
        padded.push(0);
        assert!(matches!(
            Request::decode(&padded),
            Err(WireError::Malformed(_))
        ));
        // Oversized length prefix.
        let mut framed = Vec::new();
        framed.extend_from_slice(&(u32::MAX).to_le_bytes());
        assert!(matches!(
            read_frame(&mut framed.as_slice()),
            Err(WireError::Malformed(_))
        ));
    }
}
