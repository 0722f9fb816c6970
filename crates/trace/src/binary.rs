//! Compact binary trace encoding (`SNVT`), for golden-file tests.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! magic "SNVT" | version u16 | numeric_mode u8
//! key: session u64, seq u64, step u64
//! string table: count u32, then per string: len u32, utf-8 bytes
//! span tree (pre-order recursive):
//!   name_idx u32 | cat u8 | timebase u8 | track u32
//!   start f64-bits u64 | end f64-bits u64 | ticks u64
//!   n_counters u32, per counter: name_idx u32, value u64
//!   n_children u32, children...
//! ```
//!
//! The string table is sorted, so encoding a canonical trace (see
//! [`Trace::canonical`]) yields byte-identical output across runs —
//! exactly what the committed golden fixtures rely on.

use std::collections::BTreeMap;

use supernova_linalg::NumericMode;

use crate::span::{Category, CounterSet, Span, StepKey, Timebase};
use crate::tracer::Trace;
use crate::wire::{put_bytes, put_f64, put_header, put_u32, put_u64, ReadError, Reader};

const MAGIC: &[u8; 4] = b"SNVT";
// v2 added the numeric_mode header byte (precision the step's kernels ran
// under); v1 buffers are rejected with `BadVersion`.
const VERSION: u16 = 2;
const MAX_DEPTH: usize = 512;

/// Why a byte buffer failed to decode as a trace.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CodecError {
    /// Buffer ended before the structure was complete.
    Truncated,
    /// The magic prefix was not `SNVT`.
    BadMagic,
    /// Unsupported format version.
    BadVersion(u16),
    /// The numeric-mode header byte named no known [`NumericMode`].
    BadNumericMode(u8),
    /// A string-table index was out of range.
    BadStringIndex(u32),
    /// An enum discriminant byte was out of range.
    BadDiscriminant(u8),
    /// A string-table entry was not valid UTF-8.
    BadUtf8,
    /// The span tree nested deeper than the decoder allows.
    TooDeep,
    /// Trailing bytes after a complete trace.
    TrailingBytes(usize),
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "buffer truncated"),
            CodecError::BadMagic => write!(f, "bad magic (want SNVT)"),
            CodecError::BadVersion(v) => write!(f, "unsupported version {v}"),
            CodecError::BadNumericMode(b) => write!(f, "unknown numeric mode byte {b}"),
            CodecError::BadStringIndex(i) => write!(f, "string index {i} out of range"),
            CodecError::BadDiscriminant(d) => write!(f, "bad enum discriminant {d}"),
            CodecError::BadUtf8 => write!(f, "string table entry is not UTF-8"),
            CodecError::TooDeep => write!(f, "span tree nested deeper than {MAX_DEPTH}"),
            CodecError::TrailingBytes(n) => write!(f, "{n} trailing bytes after trace"),
        }
    }
}

impl std::error::Error for CodecError {}

fn gather_strings<'a>(span: &'a Span, table: &mut BTreeMap<&'a str, u32>) {
    table.entry(span.name.as_str()).or_insert(0);
    for (name, _) in span.counters.iter() {
        table.entry(name).or_insert(0);
    }
    for c in &span.children {
        gather_strings(c, table);
    }
}

fn encode_span(span: &Span, table: &BTreeMap<&str, u32>, out: &mut Vec<u8>) {
    // Encode side: the table was gathered from these exact spans, so every
    // name is present by construction.
    put_u32(out, table[span.name.as_str()]); // lint: allow(panic-path)
    out.push(match span.cat {
        Category::Serve => 0,
        Category::Solver => 1,
        Category::Exec => 2,
        Category::Hw => 3,
    });
    out.push(match span.timebase {
        Timebase::Wall => 0,
        Timebase::Virtual => 1,
    });
    put_u32(out, span.track);
    put_f64(out, span.start);
    put_f64(out, span.end);
    put_u64(out, span.ticks);
    put_u32(out, span.counters.len() as u32);
    for (name, value) in span.counters.iter() {
        // Present by construction — same gather as the span name above.
        put_u32(out, table[name]); // lint: allow(panic-path)
        put_u64(out, value);
    }
    put_u32(out, span.children.len() as u32);
    for c in &span.children {
        encode_span(c, table, out);
    }
}

impl From<ReadError> for CodecError {
    fn from(e: ReadError) -> Self {
        match e {
            ReadError::BadMagic => CodecError::BadMagic,
            ReadError::BadVersion(v) => CodecError::BadVersion(v),
            ReadError::TrailingBytes(n) => CodecError::TrailingBytes(n),
            ReadError::Truncated | ReadError::TooLarge(_) => CodecError::Truncated,
        }
    }
}

fn decode_span(r: &mut Reader<'_>, strings: &[String], depth: usize) -> Result<Span, CodecError> {
    if depth > MAX_DEPTH {
        return Err(CodecError::TooDeep);
    }
    let lookup = |i: u32, strings: &[String]| -> Result<String, CodecError> {
        strings
            .get(i as usize)
            .cloned()
            .ok_or(CodecError::BadStringIndex(i))
    };
    let name = lookup(r.u32()?, strings)?;
    let cat = match r.u8()? {
        0 => Category::Serve,
        1 => Category::Solver,
        2 => Category::Exec,
        3 => Category::Hw,
        d => return Err(CodecError::BadDiscriminant(d)),
    };
    let timebase = match r.u8()? {
        0 => Timebase::Wall,
        1 => Timebase::Virtual,
        d => return Err(CodecError::BadDiscriminant(d)),
    };
    let (track, start, end, ticks) = (r.u32()?, r.f64()?, r.f64()?, r.u64()?);
    let n_counters = r.u32()?;
    let mut counters = CounterSet::new();
    for _ in 0..n_counters {
        let cname = lookup(r.u32()?, strings)?;
        let value = r.u64()?;
        counters.set(&cname, value);
    }
    let n_children = r.u32()?;
    let mut children = Vec::new();
    for _ in 0..n_children {
        children.push(decode_span(r, strings, depth + 1)?);
    }
    Ok(Span {
        name,
        cat,
        timebase,
        track,
        start,
        end,
        ticks,
        counters,
        children,
    })
}

impl Trace {
    /// Encodes the trace as `SNVT` bytes. Encoding a
    /// [`canonical`](Trace::canonical) trace is deterministic.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut table: BTreeMap<&str, u32> = BTreeMap::new();
        gather_strings(&self.root, &mut table);
        for (i, (_, idx)) in table.iter_mut().enumerate() {
            *idx = i as u32;
        }
        let mut out = Vec::with_capacity(64 + self.span_count() * 48);
        put_header(&mut out, MAGIC, VERSION);
        out.push(self.numeric_mode.as_byte());
        put_u64(&mut out, self.key.session);
        put_u64(&mut out, self.key.seq);
        put_u64(&mut out, self.key.step);
        put_u32(&mut out, table.len() as u32);
        for s in table.keys() {
            put_bytes(&mut out, s.as_bytes());
        }
        encode_span(&self.root, &table, &mut out);
        out
    }

    /// Decodes `SNVT` bytes produced by [`to_bytes`](Trace::to_bytes).
    pub fn from_bytes(buf: &[u8]) -> Result<Trace, CodecError> {
        let mut r = Reader::new(buf);
        r.header(MAGIC, VERSION)?;
        let numeric_mode = NumericMode::from_byte(r.u8()?).map_err(CodecError::BadNumericMode)?;
        let key = StepKey {
            session: r.u64()?,
            seq: r.u64()?,
            step: r.u64()?,
        };
        let n_strings = r.u32()?;
        let mut strings = Vec::new();
        for _ in 0..n_strings {
            let bytes = r.bytes()?;
            strings.push(String::from_utf8(bytes.to_vec()).map_err(|_| CodecError::BadUtf8)?);
        }
        let root = decode_span(&mut r, &strings, 0)?;
        r.finish()?;
        Ok(Trace {
            key,
            numeric_mode,
            root,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Trace {
        let mut root = Span::wall("serve.dispatch", Category::Serve, 4.25, 4.5);
        root.track = 1;
        root.counters.set("level", 2);
        let mut solver = Span::wall("solver.step", Category::Solver, 4.26, 4.49);
        solver.counters.set("poses", 17);
        let mut hw = Span::virtual_time("hw", Category::Hw, 0.0, 1.5e-3, 123456);
        hw.children.push(Span::virtual_time(
            "hw.unit COMP0",
            Category::Hw,
            0.0,
            1.0e-3,
            99999,
        ));
        solver.children.push(hw);
        solver
            .children
            .push(Span::marker("solver.relin", Category::Solver, 4200));
        root.children.push(solver);
        Trace {
            key: StepKey {
                session: 9,
                seq: 3,
                step: 4,
            },
            numeric_mode: NumericMode::F32,
            root,
        }
    }

    #[test]
    fn round_trip_preserves_everything() {
        let t = sample();
        let bytes = t.to_bytes();
        let back = Trace::from_bytes(&bytes).expect("decode");
        assert_eq!(back, t);
        // Canonical bytes are deterministic: two encodes agree.
        assert_eq!(t.canonical().to_bytes(), t.canonical().to_bytes());
    }

    #[test]
    fn decode_rejects_corruption() {
        let t = sample();
        let bytes = t.to_bytes();
        assert_eq!(Trace::from_bytes(&bytes[..3]), Err(CodecError::Truncated));
        let mut bad_magic = bytes.clone();
        bad_magic[0] = b'X';
        assert_eq!(Trace::from_bytes(&bad_magic), Err(CodecError::BadMagic));
        let mut bad_version = bytes.clone();
        bad_version[4] = 0xEE;
        assert!(matches!(
            Trace::from_bytes(&bad_version),
            Err(CodecError::BadVersion(_))
        ));
        // Byte 6 is the numeric-mode header byte; an unknown mode must
        // surface as a typed error, never a panic or a silent default —
        // byte 2 (the retired mixed mode) included.
        for b in [2, 0x7F] {
            let mut bad_mode = bytes.clone();
            bad_mode[6] = b;
            assert_eq!(
                Trace::from_bytes(&bad_mode),
                Err(CodecError::BadNumericMode(b))
            );
        }
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert_eq!(
            Trace::from_bytes(&trailing),
            Err(CodecError::TrailingBytes(1))
        );
    }
}
