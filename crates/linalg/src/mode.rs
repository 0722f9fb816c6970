//! Runtime-selectable numeric precision for the dense kernel stack.
//!
//! The paper's COMP accelerator is an FP32 4×4 systolic array (§4.2.1),
//! while a host CPU naturally computes in f64 — so the precision trade at
//! the heart of the co-design is a *runtime mode*, not a compile-time
//! fork (the CICC'22 reconfigurable-localization accelerator makes the
//! same choice). A [`NumericMode`] selects which monomorphized kernel
//! stack the factorization runs on:
//!
//! - [`F64`](NumericMode::F64): full double precision, 4×4 microkernel
//!   tiles — the reference behavior, bit-identical to the pre-mode stack;
//! - [`F32`](NumericMode::F32): f32 storage, multiplies *and*
//!   accumulation, 16×4 tiles — models the systolic array's narrow
//!   datapath and doubles the scalars per vector register.
//!
//! Whatever the mode, determinism guarantees hold *within* it: the same
//! mode produces bit-identical results run to run, because kernel
//! dispatch stays a pure function of shape.

use std::fmt;

/// Environment variable selecting the numeric mode (`f64` or `f32`);
/// unset or unrecognized values mean [`NumericMode::F64`].
pub const NUMERIC_ENV: &str = "SUPERNOVA_NUMERIC";

/// Runtime-selectable precision of the dense numeric stack.
///
/// Threaded from `ServeConfig` / `SolverEngine` through the executor's
/// scratch arena down to the packed microkernels; recorded in
/// step/trace artifacts so replays can't silently mix precisions.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum NumericMode {
    /// Full f64 storage and arithmetic (4×4 microkernel tiles).
    #[default]
    F64,
    /// f32 storage, multiplies and accumulation (16×4 microkernel tiles).
    F32,
}

impl NumericMode {
    /// Every mode, in wire-byte order.
    pub const ALL: [NumericMode; 2] = [NumericMode::F64, NumericMode::F32];

    /// Canonical lowercase name (`"f64"`, `"f32"`), the same
    /// spelling [`NUMERIC_ENV`] accepts.
    pub fn as_str(self) -> &'static str {
        match self {
            NumericMode::F64 => "f64",
            NumericMode::F32 => "f32",
        }
    }

    /// Stable numeric identity for counters and benchmark artifacts
    /// (`F64 = 0`, `F32 = 1`).
    pub fn as_u64(self) -> u64 {
        self.as_byte() as u64
    }

    /// Stable wire byte for checkpoint/trace headers.
    pub fn as_byte(self) -> u8 {
        match self {
            NumericMode::F64 => 0,
            NumericMode::F32 => 1,
        }
    }

    /// Decodes a wire byte; unknown bytes are returned as the error so
    /// codecs can surface a typed unknown-mode failure instead of
    /// panicking or guessing.
    ///
    /// # Errors
    ///
    /// Returns the unrecognized byte itself.
    pub fn from_byte(b: u8) -> Result<Self, u8> {
        match b {
            0 => Ok(NumericMode::F64),
            1 => Ok(NumericMode::F32),
            other => Err(other),
        }
    }

    /// Parses a mode name as spelled by [`as_str`](Self::as_str).
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "f64" => Some(NumericMode::F64),
            "f32" => Some(NumericMode::F32),
            _ => None,
        }
    }

    /// Reads [`NUMERIC_ENV`]; unset or unrecognized values default to
    /// [`NumericMode::F64`] so existing workflows are unaffected.
    pub fn from_env() -> Self {
        std::env::var(NUMERIC_ENV)
            .ok()
            .and_then(|s| Self::parse(&s))
            .unwrap_or_default()
    }

    /// Whether the mode stores fronts and pack panels in f32 (and thus
    /// needs the f32 scratch arenas).
    pub fn is_narrow(self) -> bool {
        !matches!(self, NumericMode::F64)
    }
}

impl fmt::Display for NumericMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn byte_round_trip_and_unknown() {
        for m in NumericMode::ALL {
            assert_eq!(NumericMode::from_byte(m.as_byte()), Ok(m));
            assert_eq!(m.as_u64(), m.as_byte() as u64);
            assert_eq!(NumericMode::parse(m.as_str()), Some(m));
        }
        // Byte 2 was the retired mixed f32/f64 mode: an unknown byte now.
        assert_eq!(NumericMode::from_byte(2), Err(2));
        assert_eq!(NumericMode::from_byte(3), Err(3));
        assert_eq!(NumericMode::from_byte(255), Err(255));
    }

    #[test]
    fn parse_rejects_unknown_spellings() {
        assert_eq!(NumericMode::parse("F32"), None);
        assert_eq!(NumericMode::parse("mixed"), None);
        assert_eq!(NumericMode::parse(""), None);
    }

    #[test]
    fn default_is_f64() {
        assert_eq!(NumericMode::default(), NumericMode::F64);
        assert!(!NumericMode::F64.is_narrow());
        assert!(NumericMode::F32.is_narrow());
    }
}
