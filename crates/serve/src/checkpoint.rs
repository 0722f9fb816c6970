//! The `SNVC` session-checkpoint codec.
//!
//! A checkpoint serializes an [`EngineSnapshot`] — the engine's
//! applied-update log plus a witness estimate — in the same style as the
//! wire protocol: little-endian primitives, bit-exact pose encoding, and a
//! decode path that returns typed errors on any malformed input instead of
//! panicking. The update log is the ground truth;
//! [`SolverEngine::restore`](supernova_solvers::SolverEngine::restore)
//! replays it and verifies the rebuilt estimate against the witness, so a
//! checkpoint that decodes but lies is still rejected.
//!
//! Every [`Factor`] kind has a tag: prior 0, between 1, range-bearing 2,
//! point observation 3. A decoded snapshot is checked as state before any
//! engine sees it: every value finite, and no update naming a variable
//! added after it (the rule `Server::submit` applies). Whether each
//! factor's variables have the kinds its residual evaluates is a property
//! of the session, not of the bytes: `SolverEngine::restore` checks it
//! before replaying anything.

use supernova_factors::{
    BetweenFactor, Factor, Key, NoiseModel, PointObservationFactor, PriorFactor,
    RangeBearingFactor, Variable,
};
use supernova_solvers::{EngineSnapshot, UpdateRecord};

use supernova_trace::wire::{put_f64, put_header, put_u32, put_u64, ReadError, Reader};

use crate::protocol::{decode_variable, encode_variable, MIN_VARIABLE_BYTES};

/// Checkpoint magic: `SNVC`.
pub const CHECKPOINT_MAGIC: [u8; 4] = *b"SNVC";

/// Checkpoint format version.
pub const CHECKPOINT_VERSION: u16 = 1;

/// The byte after the header, reserved: it named a numeric mode when the
/// kernels had an f32 one. Written as 0; any other value is refused.
const RESERVED_BYTE: u8 = 0;

/// Hard cap on serialized checkpoints (matches the wire frame cap: a
/// checkpoint must fit in one `Restore`/`Snapshot` frame).
pub const MAX_CHECKPOINT_BYTES: usize = crate::protocol::MAX_FRAME_BYTES;

const FACTOR_PRIOR: u8 = 0;
const FACTOR_BETWEEN: u8 = 1;
const FACTOR_RANGE_BEARING: u8 = 2;
const FACTOR_POINT_OBSERVATION: u8 = 3;

/// The smallest encoded update: level, an empty vector pose, a factor
/// count.
const MIN_UPDATE_BYTES: usize = 1 + MIN_VARIABLE_BYTES + 4;
/// The smallest encoded factor: tag, one key, an empty vector
/// measurement, an empty noise model (dimension + Huber flag).
const MIN_FACTOR_BYTES: usize = 1 + 8 + MIN_VARIABLE_BYTES + 4 + 1;

/// Why checkpoint bytes could not be produced or understood.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CheckpointError {
    /// The first four bytes are not `SNVC`.
    BadMagic,
    /// The format version is not one this build reads.
    BadVersion(
        /// The version found in the header.
        u16,
    ),
    /// The reserved byte after the header (offset 6, once the numeric
    /// mode) is not 0.
    BadNumericMode(
        /// The offending byte.
        u8,
    ),
    /// A factor tag names no serializable factor kind.
    BadFactorTag(
        /// The offending byte.
        u8,
    ),
    /// A noise model carried non-positive or non-finite weights.
    BadNoise,
    /// A factor's noise dimension disagrees with its measurement.
    DimensionMismatch,
    /// A measurement, initial guess or estimate holds a NaN or infinity.
    NonFinite,
    /// A range-bearing measurement's range is not positive.
    NonPositiveRange,
    /// An update's factor names a variable no earlier update added.
    UnknownKey {
        /// Index of the offending update (it adds variable `update`).
        update: usize,
        /// The key it names.
        key: usize,
    },
    /// An element count implies more data than the buffer holds.
    TooLarge,
    /// The buffer is truncated or carries trailing/invalid bytes.
    Malformed(
        /// What the decoder tripped on.
        &'static str,
    ),
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::BadMagic => f.write_str("not an SNVC checkpoint"),
            CheckpointError::BadVersion(v) => write!(f, "unsupported checkpoint version {v}"),
            CheckpointError::BadNumericMode(b) => write!(f, "reserved byte is {b}, not 0"),
            CheckpointError::BadFactorTag(b) => write!(f, "unknown factor tag {b}"),
            CheckpointError::BadNoise => f.write_str("noise weights must be finite and positive"),
            CheckpointError::DimensionMismatch => {
                f.write_str("noise/measurement dimension mismatch")
            }
            CheckpointError::NonFinite => f.write_str("value is not finite"),
            CheckpointError::NonPositiveRange => f.write_str("range must be positive"),
            CheckpointError::UnknownKey { update, key } => {
                write!(f, "update {update} names unknown variable x{key}")
            }
            CheckpointError::TooLarge => f.write_str("element count exceeds the buffer"),
            CheckpointError::Malformed(why) => write!(f, "malformed checkpoint: {why}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<ReadError> for CheckpointError {
    fn from(e: ReadError) -> Self {
        match e {
            ReadError::BadMagic => CheckpointError::BadMagic,
            ReadError::BadVersion(v) => CheckpointError::BadVersion(v),
            ReadError::TooLarge(_) => CheckpointError::TooLarge,
            ReadError::Truncated => CheckpointError::Malformed("truncated frame"),
            ReadError::TrailingBytes(_) => CheckpointError::Malformed("trailing bytes"),
        }
    }
}

impl From<crate::protocol::WireError> for CheckpointError {
    fn from(e: crate::protocol::WireError) -> Self {
        match e {
            crate::protocol::WireError::Malformed(why) => CheckpointError::Malformed(why),
            // A checkpoint decodes from an in-memory buffer; transport
            // errors cannot occur, but the conversion must stay total.
            _ => CheckpointError::Malformed("transport error in buffer decode"),
        }
    }
}

fn encode_noise(out: &mut Vec<u8>, noise: &NoiseModel) {
    put_u32(out, noise.dim() as u32);
    for w in noise.sqrt_info() {
        put_f64(out, *w);
    }
    match noise.huber_k() {
        None => out.push(0),
        Some(k) => {
            out.push(1);
            put_f64(out, k);
        }
    }
}

fn decode_noise(cur: &mut Reader<'_>) -> Result<NoiseModel, CheckpointError> {
    let dim = cur.count(8)?;
    let mut sqrt_info = Vec::with_capacity(dim);
    for _ in 0..dim {
        sqrt_info.push(cur.f64()?);
    }
    let huber = match cur.u8()? {
        0 => None,
        1 => Some(cur.f64()?),
        _ => return Err(CheckpointError::Malformed("bad huber flag")),
    };
    NoiseModel::from_sqrt_info(sqrt_info, huber).ok_or(CheckpointError::BadNoise)
}

fn encode_factor(out: &mut Vec<u8>, factor: &Factor) {
    out.push(match factor {
        Factor::Prior(_) => FACTOR_PRIOR,
        Factor::Between(_) => FACTOR_BETWEEN,
        Factor::RangeBearing(_) => FACTOR_RANGE_BEARING,
        Factor::PointObservation(_) => FACTOR_POINT_OBSERVATION,
    });
    for k in factor.keys() {
        put_u64(out, k.0 as u64);
    }
    match factor {
        Factor::Prior(f) => encode_variable(out, f.prior()),
        Factor::Between(f) => encode_variable(out, f.measured()),
        Factor::RangeBearing(f) => {
            put_f64(out, f.range());
            put_f64(out, f.bearing());
        }
        Factor::PointObservation(f) => {
            for x in f.measured() {
                put_f64(out, x);
            }
        }
    }
    encode_noise(out, factor.noise());
}

fn decode_key(cur: &mut Reader<'_>) -> Result<Key, CheckpointError> {
    Ok(Key(cur.u64()? as usize))
}

fn decode_f64(cur: &mut Reader<'_>) -> Result<f64, CheckpointError> {
    let x = cur.f64()?;
    if x.is_finite() {
        Ok(x)
    } else {
        Err(CheckpointError::NonFinite)
    }
}

fn decode_finite_variable(cur: &mut Reader<'_>) -> Result<Variable, CheckpointError> {
    let v = decode_variable(cur)?;
    if v.is_finite() {
        Ok(v)
    } else {
        Err(CheckpointError::NonFinite)
    }
}

/// Decodes one factor. Each constructor asserts its preconditions; they
/// are checked first, so hostile bytes are a typed error, not a panic.
fn decode_factor(cur: &mut Reader<'_>) -> Result<Factor, CheckpointError> {
    match cur.u8()? {
        FACTOR_PRIOR => {
            let key = decode_key(cur)?;
            let prior = decode_finite_variable(cur)?;
            let noise = decode_noise(cur)?;
            if noise.dim() != prior.dim() {
                return Err(CheckpointError::DimensionMismatch);
            }
            Ok(PriorFactor::new(key, prior, noise).into())
        }
        FACTOR_BETWEEN => {
            let (a, b) = (decode_key(cur)?, decode_key(cur)?);
            let measured = decode_finite_variable(cur)?;
            let noise = decode_noise(cur)?;
            if noise.dim() != measured.dim() {
                return Err(CheckpointError::DimensionMismatch);
            }
            Ok(BetweenFactor::new(a, b, measured, noise).into())
        }
        FACTOR_RANGE_BEARING => {
            let (pose, lm) = (decode_key(cur)?, decode_key(cur)?);
            let (range, bearing) = (decode_f64(cur)?, decode_f64(cur)?);
            let noise = decode_noise(cur)?;
            if noise.dim() != 2 {
                return Err(CheckpointError::DimensionMismatch);
            }
            if range <= 0.0 {
                return Err(CheckpointError::NonPositiveRange);
            }
            Ok(RangeBearingFactor::new(pose, lm, range, bearing, noise).into())
        }
        FACTOR_POINT_OBSERVATION => {
            let (pose, lm) = (decode_key(cur)?, decode_key(cur)?);
            let measured = [decode_f64(cur)?, decode_f64(cur)?, decode_f64(cur)?];
            let noise = decode_noise(cur)?;
            if noise.dim() != 3 {
                return Err(CheckpointError::DimensionMismatch);
            }
            Ok(PointObservationFactor::new(pose, lm, measured, noise).into())
        }
        other => Err(CheckpointError::BadFactorTag(other)),
    }
}

/// Serializes a snapshot to `SNVC` bytes.
///
/// # Errors
///
/// [`CheckpointError::TooLarge`] when the result would exceed
/// [`MAX_CHECKPOINT_BYTES`].
pub fn encode_snapshot(snapshot: &EngineSnapshot) -> Result<Vec<u8>, CheckpointError> {
    let mut out = Vec::new();
    put_header(&mut out, &CHECKPOINT_MAGIC, CHECKPOINT_VERSION);
    out.push(RESERVED_BYTE);
    put_u64(&mut out, snapshot.plan_generation as u64);
    put_u32(&mut out, snapshot.updates.len() as u32);
    for rec in &snapshot.updates {
        out.push(rec.level);
        encode_variable(&mut out, &rec.initial);
        put_u32(&mut out, rec.factors.len() as u32);
        for f in &rec.factors {
            encode_factor(&mut out, f);
        }
    }
    put_u32(&mut out, snapshot.estimate.len() as u32);
    for v in &snapshot.estimate {
        encode_variable(&mut out, v);
    }
    if out.len() > MAX_CHECKPOINT_BYTES {
        return Err(CheckpointError::TooLarge);
    }
    Ok(out)
}

/// Parses `SNVC` bytes back into a snapshot.
///
/// # Errors
///
/// Any [`CheckpointError`]; the decode path never panics, whatever the
/// bytes. Update `i` adds variable `i`, so a factor in it naming a key
/// above `i` is [`CheckpointError::UnknownKey`]; a NaN or infinity
/// anywhere is [`CheckpointError::NonFinite`]. A decoded snapshot still
/// faces replay verification in
/// [`SolverEngine::restore`](supernova_solvers::SolverEngine::restore).
pub fn decode_snapshot(bytes: &[u8]) -> Result<EngineSnapshot, CheckpointError> {
    if bytes.len() > MAX_CHECKPOINT_BYTES {
        return Err(CheckpointError::TooLarge);
    }
    let mut cur = Reader::new(bytes);
    cur.header(&CHECKPOINT_MAGIC, CHECKPOINT_VERSION)?;
    match cur.u8()? {
        RESERVED_BYTE => {}
        other => return Err(CheckpointError::BadNumericMode(other)),
    }
    let plan_generation = cur.u64()? as usize;
    let update_count = cur.count(MIN_UPDATE_BYTES)?;
    let mut updates = Vec::with_capacity(update_count);
    for update in 0..update_count {
        let level = cur.u8()?;
        let initial = decode_finite_variable(&mut cur)?;
        let factor_count = cur.count(MIN_FACTOR_BYTES)?;
        let mut factors = Vec::with_capacity(factor_count);
        for _ in 0..factor_count {
            let factor = decode_factor(&mut cur)?;
            if let Some(key) = factor.keys().iter().find(|k| k.0 > update) {
                return Err(CheckpointError::UnknownKey { update, key: key.0 });
            }
            factors.push(factor);
        }
        updates.push(UpdateRecord {
            level,
            initial,
            factors,
        });
    }
    let estimate_count = cur.count(MIN_VARIABLE_BYTES)?;
    let mut estimate = Vec::with_capacity(estimate_count);
    for _ in 0..estimate_count {
        estimate.push(decode_finite_variable(&mut cur)?);
    }
    cur.finish()?;
    Ok(EngineSnapshot {
        plan_generation,
        updates,
        estimate,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use supernova_factors::Se2;

    /// Every factor kind, Huber on and off.
    fn sample_snapshot() -> EngineSnapshot {
        let prior = PriorFactor::se2(
            Key(0),
            Se2::new(0.0, 0.0, 0.0),
            NoiseModel::isotropic(3, 0.1),
        );
        let odom = BetweenFactor::se2(
            Key(0),
            Key(1),
            Se2::new(1.0, 0.0, 0.1),
            NoiseModel::from_sigmas(&[0.05, 0.05, 0.02]).with_huber(1.5),
        );
        let sighting =
            RangeBearingFactor::new(Key(1), Key(2), 2.5, -0.75, NoiseModel::isotropic(2, 0.2));
        let point = PointObservationFactor::new(
            Key(0),
            Key(3),
            [1.0, -2.0, 0.5],
            NoiseModel::isotropic(3, 0.1).with_huber(2.0),
        );
        let update = |level, initial, factors| UpdateRecord {
            level,
            initial,
            factors,
        };
        EngineSnapshot {
            plan_generation: 3,
            updates: vec![
                update(
                    0,
                    Variable::Se2(Se2::new(0.0, 0.0, 0.0)),
                    vec![prior.into()],
                ),
                update(2, Variable::Se2(Se2::new(1.0, 0.0, 0.1)), vec![odom.into()]),
                update(1, Variable::Vector(vec![3.0, 1.0]), vec![sighting.into()]),
                update(
                    0,
                    Variable::Vector(vec![1.0, -2.0, 0.5]),
                    vec![point.into()],
                ),
            ],
            estimate: vec![
                Variable::Se2(Se2::new(0.0, 0.0, 0.0)),
                Variable::Se2(Se2::new(1.0 / 3.0, -7.2e-9, 2.5)),
            ],
        }
    }

    #[test]
    fn snapshot_round_trips_bit_exactly() {
        let snap = sample_snapshot();
        let bytes = encode_snapshot(&snap).expect("encode");
        assert_eq!(&bytes[..4], b"SNVC");
        let back = decode_snapshot(&bytes).expect("decode");
        assert_eq!(back, snap);
        // Idempotent: re-encoding the decoded snapshot is byte-identical.
        assert_eq!(encode_snapshot(&back).expect("re-encode"), bytes);
    }

    #[test]
    fn header_violations_are_typed() {
        let bytes = encode_snapshot(&sample_snapshot()).expect("encode");
        let mut wrong_magic = bytes.clone();
        wrong_magic[0] = b'X';
        assert!(matches!(
            decode_snapshot(&wrong_magic),
            Err(CheckpointError::BadMagic)
        ));
        let mut wrong_version = bytes.clone();
        wrong_version[4] = 0xEE;
        assert!(matches!(
            decode_snapshot(&wrong_version),
            Err(CheckpointError::BadVersion(_))
        ));
        // Byte 1 (the retired f32 mode) is as refused as 2 or 0x7F.
        for b in [1, 2, 0x7F] {
            let mut wrong_mode = bytes.clone();
            wrong_mode[6] = b;
            assert!(matches!(
                decode_snapshot(&wrong_mode),
                Err(CheckpointError::BadNumericMode(got)) if got == b
            ));
        }
        let mut trailing = bytes;
        trailing.push(0);
        assert!(matches!(
            decode_snapshot(&trailing),
            Err(CheckpointError::Malformed("trailing bytes"))
        ));
    }

    #[test]
    fn hostile_noise_and_dims_are_typed_errors() {
        // A negative sqrt-info weight: flip the sign bit of the first
        // noise weight. Locate it by decoding structure: simpler to build
        // a snapshot whose noise weight sign we flip via raw bytes of a
        // known constant is brittle; instead check from_sqrt_info's gate
        // feeds through the decoder by constructing bytes directly.
        let mut out = Vec::new();
        put_header(&mut out, &CHECKPOINT_MAGIC, CHECKPOINT_VERSION);
        out.push(RESERVED_BYTE);
        put_u64(&mut out, 0);
        put_u32(&mut out, 1); // one update
        out.push(0); // level
        encode_variable(&mut out, &Variable::Vector(vec![1.0]));
        put_u32(&mut out, 1); // one factor
        out.push(FACTOR_PRIOR);
        put_u64(&mut out, 0);
        encode_variable(&mut out, &Variable::Vector(vec![1.0]));
        // Noise: dim 1, weight -1.0 (invalid), no huber.
        let mut bad_noise = out.clone();
        put_u32(&mut bad_noise, 1);
        put_f64(&mut bad_noise, -1.0);
        bad_noise.push(0);
        put_u32(&mut bad_noise, 0); // estimate count
        assert!(matches!(
            decode_snapshot(&bad_noise),
            Err(CheckpointError::BadNoise)
        ));
        // Noise: dim 2 against a 1-D measurement.
        let mut bad_dim = out;
        put_u32(&mut bad_dim, 2);
        put_f64(&mut bad_dim, 1.0);
        put_f64(&mut bad_dim, 1.0);
        bad_dim.push(0);
        put_u32(&mut bad_dim, 0);
        assert!(matches!(
            decode_snapshot(&bad_dim),
            Err(CheckpointError::DimensionMismatch)
        ));
    }

    #[test]
    fn decoded_state_is_checked_before_replay() {
        let reject = |snap: &EngineSnapshot| {
            decode_snapshot(&encode_snapshot(snap).expect("encode")).expect_err("rejected")
        };
        let mut ahead = sample_snapshot();
        ahead.updates[1].factors[0] = ahead.updates[1].factors[0]
            .clone()
            .map_keys(|k| Key(k.0 * 5));
        assert_eq!(
            reject(&ahead),
            CheckpointError::UnknownKey { update: 1, key: 5 }
        );
        let mut nan = sample_snapshot();
        nan.estimate[1] = Variable::Vector(vec![0.0, f64::NAN]);
        assert_eq!(reject(&nan), CheckpointError::NonFinite);
        let mut infinite = sample_snapshot();
        infinite.updates[3].factors[0] = PointObservationFactor::new(
            Key(0),
            Key(3),
            [1.0, f64::INFINITY, 0.5],
            NoiseModel::isotropic(3, 0.1),
        )
        .into();
        assert_eq!(reject(&infinite), CheckpointError::NonFinite);
        // A range the constructor would refuse: flip the sign bit of the
        // encoded range (2.5 → -2.5).
        let mut bytes = encode_snapshot(&sample_snapshot()).expect("encode");
        let range = 2.5f64.to_le_bytes();
        let at = bytes
            .windows(8)
            .position(|w| w == range)
            .expect("range bytes present");
        bytes[at + 7] ^= 0x80;
        assert_eq!(
            decode_snapshot(&bytes).expect_err("rejected"),
            CheckpointError::NonPositiveRange
        );
    }
}
