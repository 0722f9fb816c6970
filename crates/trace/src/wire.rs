//! The little-endian byte layer under every binary format in the
//! workspace: `serve` frames, `SNVC` checkpoints, `SNVJ` journals and
//! `SNVR` router state.
//!
//! Encoders append with the `put_*` helpers; decoders read through one
//! [`Reader`], which never indexes a slice and never panics, whatever the
//! bytes. Three rules every format gets for free:
//!
//! - a header is a 4-byte magic then a `u16` version ([`Reader::header`]);
//! - an element count is refused when the bytes left could not hold that
//!   many elements of the smallest legal encoding ([`Reader::count`]), so
//!   a lying count can never size an allocation;
//! - a complete structure must end the buffer ([`Reader::finish`]).
//!
//! Each format maps [`ReadError`] into its own public error type with one
//! `From` impl, so its decoder reads with plain `?`. [`fnv1a`] hashes byte
//! images for the determinism fingerprints.

/// Why bytes failed to decode at the wire layer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReadError {
    /// The buffer ended before the value was complete.
    Truncated,
    /// The 4-byte magic prefix named another format.
    BadMagic,
    /// The header's version is not the one this build reads.
    BadVersion(u16),
    /// An element count the remaining bytes cannot back.
    TooLarge(u64),
    /// Bytes left over after a complete structure.
    TrailingBytes(usize),
}

impl std::fmt::Display for ReadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReadError::Truncated => f.write_str("buffer truncated"),
            ReadError::BadMagic => f.write_str("bad magic"),
            ReadError::BadVersion(v) => write!(f, "unsupported version {v}"),
            ReadError::TooLarge(n) => write!(f, "count {n} exceeds the bytes left"),
            ReadError::TrailingBytes(n) => write!(f, "{n} trailing bytes"),
        }
    }
}

impl std::error::Error for ReadError {}

/// A panic-free cursor over a byte buffer.
#[derive(Clone, Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

// The per-field reads and the `put_*` helpers are `#[inline]`: codecs in
// other crates call them once per field, and the workspace builds without
// LTO, so without the hint each field would be a cross-crate call.
impl<'a> Reader<'a> {
    /// A reader at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// The next `n` bytes.
    #[inline]
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], ReadError> {
        let end = self.pos.checked_add(n).ok_or(ReadError::Truncated)?;
        let s = self.buf.get(self.pos..end).ok_or(ReadError::Truncated)?;
        self.pos = end;
        Ok(s)
    }

    #[inline]
    fn array<const N: usize>(&mut self) -> Result<[u8; N], ReadError> {
        self.take(N)?.try_into().map_err(|_| ReadError::Truncated)
    }

    /// One byte.
    #[inline]
    pub fn u8(&mut self) -> Result<u8, ReadError> {
        let [b] = self.array()?;
        Ok(b)
    }

    /// A little-endian `u16`.
    #[inline]
    pub fn u16(&mut self) -> Result<u16, ReadError> {
        self.array().map(u16::from_le_bytes)
    }

    /// A little-endian `u32`.
    #[inline]
    pub fn u32(&mut self) -> Result<u32, ReadError> {
        self.array().map(u32::from_le_bytes)
    }

    /// A little-endian `u64`.
    #[inline]
    pub fn u64(&mut self) -> Result<u64, ReadError> {
        self.array().map(u64::from_le_bytes)
    }

    /// An `f64` stored as its little-endian bits (bit-exact).
    #[inline]
    pub fn f64(&mut self) -> Result<f64, ReadError> {
        self.u64().map(f64::from_bits)
    }

    /// A `u32` length prefix, then that many bytes (see [`put_bytes`]).
    pub fn bytes(&mut self) -> Result<&'a [u8], ReadError> {
        let n = self.u32()? as usize;
        self.take(n)
    }

    /// Checks a `magic | version u16` header (see [`put_header`]).
    pub fn header(&mut self, magic: &[u8; 4], version: u16) -> Result<(), ReadError> {
        if self.take(4)? != magic {
            return Err(ReadError::BadMagic);
        }
        match self.u16()? {
            v if v == version => Ok(()),
            v => Err(ReadError::BadVersion(v)),
        }
    }

    /// A `u32` element count, refused unless the bytes left could hold
    /// that many elements of at least `min_elem_bytes` each — so the count
    /// is safe to pre-allocate with.
    pub fn count(&mut self, min_elem_bytes: usize) -> Result<usize, ReadError> {
        let n = self.u32()?;
        let need = u64::from(n).saturating_mul(min_elem_bytes as u64);
        if need > self.remaining() as u64 {
            return Err(ReadError::TooLarge(u64::from(n)));
        }
        Ok(n as usize)
    }

    /// Bytes consumed so far.
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len().saturating_sub(self.pos)
    }

    /// Succeeds only if every byte was consumed.
    pub fn finish(&self) -> Result<(), ReadError> {
        match self.remaining() {
            0 => Ok(()),
            n => Err(ReadError::TrailingBytes(n)),
        }
    }
}

/// Appends a little-endian `u16`.
#[inline]
pub fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a little-endian `u32`.
#[inline]
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a little-endian `u64`.
#[inline]
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends an `f64` as its little-endian bits (bit-exact).
#[inline]
pub fn put_f64(out: &mut Vec<u8>, v: f64) {
    put_u64(out, v.to_bits());
}

/// Appends a `magic | version u16` header.
pub fn put_header(out: &mut Vec<u8>, magic: &[u8; 4], version: u16) {
    out.extend_from_slice(magic);
    put_u16(out, version);
}

/// Appends a `u32` length prefix, then `bytes`.
pub fn put_bytes(out: &mut Vec<u8>, bytes: &[u8]) {
    put_u32(out, bytes.len() as u32);
    out.extend_from_slice(bytes);
}

/// The 64-bit FNV-1a offset basis: the hash [`fnv1a`] starts from.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Continues the 64-bit FNV-1a hash `h` over `bytes`, one byte at a time
/// — the workspace's one fingerprint of byte images (plan structure,
/// factor bytes, estimate bits).
#[inline]
pub fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_put_reads_back() {
        let mut out = Vec::new();
        put_header(&mut out, b"SNVX", 3);
        out.push(7);
        put_u16(&mut out, 0xBEEF);
        put_u32(&mut out, 0xDEAD_BEEF);
        put_u64(&mut out, u64::MAX - 1);
        put_f64(&mut out, -0.0);
        put_bytes(&mut out, b"abc");
        let mut r = Reader::new(&out);
        assert_eq!(r.header(b"SNVX", 3), Ok(()));
        assert_eq!(r.u8(), Ok(7));
        assert_eq!(r.u16(), Ok(0xBEEF));
        assert_eq!(r.u32(), Ok(0xDEAD_BEEF));
        assert_eq!(r.u64(), Ok(u64::MAX - 1));
        assert_eq!(r.f64().map(f64::to_bits), Ok((-0.0f64).to_bits()));
        assert_eq!(r.bytes(), Ok(&b"abc"[..]));
        assert_eq!((r.pos(), r.remaining()), (out.len(), 0));
        assert_eq!(r.finish(), Ok(()));
        assert_eq!(r.u8(), Err(ReadError::Truncated));
    }

    #[test]
    fn headers_counts_and_tails_are_typed() {
        let mut out = Vec::new();
        put_header(&mut out, b"SNVX", 3);
        assert_eq!(
            Reader::new(&out).header(b"SNVY", 3),
            Err(ReadError::BadMagic)
        );
        assert_eq!(
            Reader::new(&out).header(b"SNVX", 4),
            Err(ReadError::BadVersion(3))
        );
        assert_eq!(
            Reader::new(&out[..5]).header(b"SNVX", 3),
            Err(ReadError::Truncated)
        );
        // Three 8-byte elements fit in 24 bytes; three 9-byte ones do not.
        let mut counted = Vec::new();
        put_u32(&mut counted, 3);
        counted.extend_from_slice(&[0; 24]);
        assert_eq!(Reader::new(&counted).count(8), Ok(3));
        assert_eq!(Reader::new(&counted).count(9), Err(ReadError::TooLarge(3)));
        put_u32(&mut counted, u32::MAX);
        let mut r = Reader::new(&counted);
        r.take(28).expect("skip to the second count");
        assert_eq!(r.count(1), Err(ReadError::TooLarge(u64::from(u32::MAX))));
        assert_eq!(
            Reader::new(&counted).finish(),
            Err(ReadError::TrailingBytes(32))
        );
    }
}
