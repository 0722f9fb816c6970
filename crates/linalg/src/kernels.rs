//! The blocked, packed dense-kernel core behind [`crate::gemm`],
//! [`crate::syrk_lower`] and [`crate::trsm_right_lower_transpose`].
//!
//! The paper's latency story rests on three supernode operations — GEMM,
//! SYRK (`L_C = C − L_B L_Bᵀ`, §3.2, the dominant cost per §6.5) and TRSM
//! — so the host implementations here mirror what a BLIS-style kernel
//! stack does, in safe Rust:
//!
//! - operands are **packed** once per `KC`-deep block into contiguous
//!   micro-panels (`MR`-row panels of `A`, `NR`-column panels of `B`),
//!   which turns every strided or transposed access pattern into linear
//!   streams and pads the tails so the microkernel never branches;
//! - an `MR×NR` **register-tiled microkernel** accumulates a full tile of
//!   `C` in locals across the packed depth, cutting `C` traffic by `NR×`
//!   versus the column-AXPY loop it replaces;
//! - SYRK walks only the tiles that intersect the lower triangle and TRSM
//!   factors into (packed GEMM update) + (small in-block solve), so both
//!   ride the same microkernel;
//! - a deterministic, size-keyed [`dispatch table`](GemmPath) routes
//!   SLAM-typical small blocks (SE(2)'s 3-wide and SE(3)'s 6-wide fronts)
//!   to fully unrolled direct kernels where packing overhead would
//!   dominate.
//!
//! The whole stack is generic over one sealed [`Scalar`] type — storage,
//! multiplies and accumulation share it — monomorphized per
//! [`NumericMode`]:
//!
//! | mode  | scalar | MR×NR |
//! |-------|--------|-------|
//! | `f64` | f64    | 4×4   |
//! | `f32` | f32    | 16×4  |
//!
//! The f64 instantiation reproduces the pre-generic kernels operation for
//! operation, so `NumericMode::F64` remains bit-identical to the historic
//! stack. A tile's shape decides only which outputs share registers, never
//! the operations any one output sees (every output accumulates its `KC`
//! slab in depth order and is added into `C` once per slab), so tile
//! constants are chosen by measurement alone; `tile_shape_never_moves_a_bit`
//! checks that. The f32 tile is two 8-lane AVX2 registers tall, which is
//! what makes the narrow mode's throughput win (gated in `kernel_bench`)
//! reliable under autovectorization.
//!
//! Pack buffers come from a caller-provided [`KernelScratch`] arena that
//! grows monotonically and is reused across calls — the sparse executor
//! threads one per worker so the steady-state refactor loop performs zero
//! heap allocation in every mode (machine-checked by `supernova-analyze`'s
//! `hot-alloc` lint; the allowed escapes in this file are the cold-path
//! constructors).
//!
//! Every path is a pure function of the operand values, shapes and mode:
//! the same call always performs the same operations in the same order, so
//! serial and pooled plan executions (which call identical kernels) stay
//! bit-identical *within a mode* — blocking changes *which* deterministic
//! summation order is used, never makes it data- or thread-dependent.

use crate::{Mat, NumericMode};

/// f64 microkernel tile height (rows of `C` held in registers).
pub const MR: usize = 4;
/// f64 microkernel tile width (columns of `C` held in registers).
pub const NR: usize = 4;
/// f32 microkernel tile height: two 8-lane registers per tile column
/// (16×4 beat 8×4 on every f32 `kernel_bench` row).
pub const MR_F32: usize = 16;
/// f32 microkernel tile width.
pub const NR_F32: usize = 4;
/// Depth of one packed block: panels of at most `KC` columns of `A` (rows
/// of `B`) are packed and consumed before the next block is packed.
pub const KC: usize = 256;
/// Problems with `m·n·k` at or below this run the direct (non-packing)
/// path; above it, packing pays for itself.
pub const DIRECT_FLOP_CUTOFF: usize = 24 * 24 * 24;
/// Panel width of the blocked Cholesky driver (`cholesky.rs`), restated
/// here so [`KernelScratch::reserve`] can bound the triangular-panel
/// buffer [`take_panel`](Scalar::take_panel) hands out.
pub(crate) const CHOL_NB: usize = 48;

/// Rounds `x` up to a multiple of `to` (`to > 0`).
#[inline]
fn round_up(x: usize, to: usize) -> usize {
    x.div_ceil(to) * to
}

mod sealed {
    /// Seals [`super::Scalar`]: the storage widths are a closed set (the
    /// scratch arena owns one typed buffer family per width).
    pub trait Sealed {}
    impl Sealed for f64 {}
    impl Sealed for f32 {}
}

/// A storage scalar of the dense kernel stack (sealed: `f64` or `f32`).
///
/// Operands, outputs and pack panels are stored as `Self`, and every
/// product and sum is computed in `Self`. The
/// `#[doc(hidden)]` methods route each width to its typed buffers inside
/// [`KernelScratch`] — they are an internal contract between the trait
/// impls and the arena, not API.
pub trait Scalar:
    sealed::Sealed
    + Copy
    + Default
    + PartialEq
    + PartialOrd
    + std::fmt::Debug
    + Send
    + Sync
    + 'static
    + std::ops::Add<Output = Self>
    + std::ops::Sub<Output = Self>
    + std::ops::Mul<Output = Self>
    + std::ops::Div<Output = Self>
    + std::ops::Neg<Output = Self>
    + std::ops::AddAssign
    + std::ops::SubAssign
    + std::ops::MulAssign
    + std::ops::DivAssign
{
    /// Additive identity.
    const ZERO: Self;
    /// Multiplicative identity.
    const ONE: Self;

    /// Rounds an f64 into this storage width.
    fn from_f64(v: f64) -> Self;
    /// Widens into f64 (exact for both storage widths).
    fn to_f64(self) -> f64;
    /// Square root (the Cholesky pivot).
    fn sqrt(self) -> Self;
    /// Whether the value is neither infinite nor NaN.
    fn is_finite(self) -> bool;

    /// Returns this width's pack buffers grown to at least the requested
    /// lengths.
    #[doc(hidden)]
    fn packs(
        scratch: &mut KernelScratch,
        a_elems: usize,
        b_elems: usize,
    ) -> (&mut [Self], &mut [Self]);

    /// Detaches this width's triangular-panel buffer (see
    /// `KernelScratch::take_lpack`).
    #[doc(hidden)]
    fn take_panel(scratch: &mut KernelScratch, elems: usize) -> Vec<Self>;

    /// Returns a detached triangular-panel buffer for reuse.
    #[doc(hidden)]
    fn put_panel(scratch: &mut KernelScratch, v: Vec<Self>);
}

impl Scalar for f64 {
    const ZERO: Self = 0.0;
    const ONE: Self = 1.0;

    #[inline(always)]
    fn from_f64(v: f64) -> Self {
        v
    }

    #[inline(always)]
    fn to_f64(self) -> f64 {
        self
    }

    #[inline(always)]
    fn sqrt(self) -> Self {
        f64::sqrt(self)
    }

    #[inline(always)]
    fn is_finite(self) -> bool {
        f64::is_finite(self)
    }

    fn packs(
        scratch: &mut KernelScratch,
        a_elems: usize,
        b_elems: usize,
    ) -> (&mut [Self], &mut [Self]) {
        scratch.packs64(a_elems, b_elems)
    }

    fn take_panel(scratch: &mut KernelScratch, elems: usize) -> Vec<Self> {
        scratch.take_lpack(elems)
    }

    fn put_panel(scratch: &mut KernelScratch, v: Vec<Self>) {
        scratch.put_lpack(v);
    }
}

impl Scalar for f32 {
    const ZERO: Self = 0.0;
    const ONE: Self = 1.0;

    #[inline(always)]
    fn from_f64(v: f64) -> Self {
        v as f32
    }

    #[inline(always)]
    fn to_f64(self) -> f64 {
        self as f64
    }

    #[inline(always)]
    fn sqrt(self) -> Self {
        f32::sqrt(self)
    }

    #[inline(always)]
    fn is_finite(self) -> bool {
        f32::is_finite(self)
    }

    fn packs(
        scratch: &mut KernelScratch,
        a_elems: usize,
        b_elems: usize,
    ) -> (&mut [Self], &mut [Self]) {
        scratch.packs32(a_elems, b_elems)
    }

    fn take_panel(scratch: &mut KernelScratch, elems: usize) -> Vec<Self> {
        scratch.take_lpack32(elems)
    }

    fn put_panel(scratch: &mut KernelScratch, v: Vec<Self>) {
        scratch.put_lpack32(v);
    }
}

/// Reusable pack-buffer arena for the blocked kernels.
///
/// Buffers grow monotonically (never shrink) and are fully overwritten on
/// every use, so scratch contents can never leak between calls and a
/// warm arena performs zero allocation. One typed buffer family exists per
/// storage width (f64 for [`NumericMode::F64`], f32 for [`NumericMode::F32`],
/// plus an f32 front shadow for the demote → factor → promote narrow
/// factorization path), so a mode switch warms up once and then both modes
/// stay allocation-free. The arena also meters the multiply-add work the
/// kernels actually execute ([`flops`](Self::flops)) so callers can tick
/// real kernel work into trace spans; flop counts depend only on shapes,
/// never on the mode.
#[derive(Clone, Debug, Default)]
pub struct KernelScratch {
    apack: Vec<f64>,
    bpack: Vec<f64>,
    /// Packed copy of a triangular diagonal block, taken/returned by the
    /// in-place blocked Cholesky so its TRSM reads `L` without aliasing
    /// the front it is updating.
    lpack: Vec<f64>,
    apack32: Vec<f32>,
    bpack32: Vec<f32>,
    lpack32: Vec<f32>,
    /// f32 shadow of a front being factored in the f32 mode (taken and
    /// returned like `lpack`, so the arena stays usable for packs while
    /// the shadow is live).
    front32: Vec<f32>,
    flops: u64,
    grow_events: u64,
}

impl KernelScratch {
    /// An empty arena; buffers grow on first use and are then reused.
    pub fn new() -> Self {
        Self::default()
    }

    /// An arena whose f64 pack buffers are pre-grown to `pack_elems`
    /// scalars each (use [`pack_elems_bound`] /
    /// `ExecutionPlan::max_pack_elems`-style precomputation), so even the
    /// first call allocates nothing. For the f32 mode, follow with
    /// [`reserve_mode`](Self::reserve_mode).
    pub fn with_capacity(pack_elems: usize) -> Self {
        let mut s = Self::new();
        if pack_elems > 0 {
            s.grow_events = 1;
            // lint: allow(hot-alloc) — cold-path constructor, the one-time sizing
            s.apack = vec![0.0; pack_elems];
            // lint: allow(hot-alloc) — cold-path constructor, the one-time sizing
            s.bpack = vec![0.0; pack_elems];
        }
        s
    }

    /// Pre-grows (never shrinks) every f64 buffer for kernels within a
    /// `pack_elems` envelope, so later calls allocate nothing: both pack
    /// buffers to `pack_elems` scalars, and the triangular-panel buffer to
    /// its need under that envelope — `min(pack_elems, NB²)`, since
    /// `take_lpack` panels are at most `NB × NB` and
    /// never exceed a front whose pack bound is `pack_elems`. Growth is
    /// counted in [`grow_events`](Self::grow_events); a no-op when
    /// already large enough.
    pub fn reserve(&mut self, pack_elems: usize) {
        let a = self.apack.len().max(pack_elems);
        let b = self.bpack.len().max(pack_elems);
        let _ = self.packs64(a, b);
        let l = pack_elems.min(CHOL_NB * CHOL_NB);
        if self.lpack.capacity() < l {
            self.grow_events += 1;
            let need = l - self.lpack.len();
            self.lpack.reserve(need);
        }
    }

    /// Mode-aware [`reserve`](Self::reserve): pre-grows the buffers the
    /// given [`NumericMode`] will touch. `pack_elems` is the mode's pack
    /// envelope ([`pack_elems_bound_mode`]); `front_elems` bounds the f32
    /// front shadow the narrow factorization path takes (ignored for
    /// `F64`, whose fronts live in the caller's `Mat`).
    pub fn reserve_mode(&mut self, mode: NumericMode, pack_elems: usize, front_elems: usize) {
        match mode {
            NumericMode::F64 => self.reserve(pack_elems),
            NumericMode::F32 => {
                let a = self.apack32.len().max(pack_elems);
                let b = self.bpack32.len().max(pack_elems);
                let _ = self.packs32(a, b);
                let l = pack_elems.min(CHOL_NB * CHOL_NB);
                if self.lpack32.capacity() < l {
                    self.grow_events += 1;
                    let need = l - self.lpack32.len();
                    self.lpack32.reserve(need);
                }
                if self.front32.capacity() < front_elems {
                    self.grow_events += 1;
                    let need = front_elems - self.front32.len();
                    self.front32.reserve(need);
                }
            }
        }
    }

    /// Grows (never shrinks) the f64 pack buffers to at least `a_elems` /
    /// `b_elems` and returns them. Growth is counted in
    /// [`grow_events`](Self::grow_events).
    fn packs64(&mut self, a_elems: usize, b_elems: usize) -> (&mut [f64], &mut [f64]) {
        if self.apack.len() < a_elems {
            self.grow_events += 1;
            self.apack.resize(a_elems, 0.0);
        }
        if self.bpack.len() < b_elems {
            self.grow_events += 1;
            self.bpack.resize(b_elems, 0.0);
        }
        (&mut self.apack[..a_elems], &mut self.bpack[..b_elems])
    }

    /// f32 counterpart of [`packs64`](Self::packs64).
    fn packs32(&mut self, a_elems: usize, b_elems: usize) -> (&mut [f32], &mut [f32]) {
        if self.apack32.len() < a_elems {
            self.grow_events += 1;
            self.apack32.resize(a_elems, 0.0);
        }
        if self.bpack32.len() < b_elems {
            self.grow_events += 1;
            self.bpack32.resize(b_elems, 0.0);
        }
        (&mut self.apack32[..a_elems], &mut self.bpack32[..b_elems])
    }

    /// Detaches the f64 triangular-panel buffer, grown to exactly `elems`
    /// zero-initialized scalars. Detaching (rather than borrowing) lets the
    /// caller keep using the arena for pack buffers while the panel copy is
    /// live; pair with [`put_lpack`](Self::put_lpack) to preserve reuse.
    pub(crate) fn take_lpack(&mut self, elems: usize) -> Vec<f64> {
        let mut v = std::mem::take(&mut self.lpack);
        if v.capacity() < elems {
            self.grow_events += 1;
        }
        v.clear();
        v.resize(elems, 0.0);
        v
    }

    /// Returns a buffer obtained from [`take_lpack`](Self::take_lpack) to
    /// the arena for reuse.
    pub(crate) fn put_lpack(&mut self, v: Vec<f64>) {
        if v.capacity() > self.lpack.capacity() {
            self.lpack = v;
        }
    }

    /// f32 counterpart of [`take_lpack`](Self::take_lpack).
    pub(crate) fn take_lpack32(&mut self, elems: usize) -> Vec<f32> {
        let mut v = std::mem::take(&mut self.lpack32);
        if v.capacity() < elems {
            self.grow_events += 1;
        }
        v.clear();
        v.resize(elems, 0.0);
        v
    }

    /// f32 counterpart of [`put_lpack`](Self::put_lpack).
    pub(crate) fn put_lpack32(&mut self, v: Vec<f32>) {
        if v.capacity() > self.lpack32.capacity() {
            self.lpack32 = v;
        }
    }

    /// Detaches the f32 front shadow, grown to exactly `elems`
    /// zero-initialized scalars (the narrow factorization's demote
    /// target). Pair with [`put_front32`](Self::put_front32).
    pub(crate) fn take_front32(&mut self, elems: usize) -> Vec<f32> {
        let mut v = std::mem::take(&mut self.front32);
        if v.capacity() < elems {
            self.grow_events += 1;
        }
        v.clear();
        v.resize(elems, 0.0);
        v
    }

    /// Returns a buffer obtained from [`take_front32`](Self::take_front32)
    /// to the arena for reuse.
    pub(crate) fn put_front32(&mut self, v: Vec<f32>) {
        if v.capacity() > self.front32.capacity() {
            self.front32 = v;
        }
    }

    /// Total multiply-add flops (MAC = 2 flops) executed through this
    /// arena since construction or the last [`take_flops`](Self::take_flops).
    /// Counts depend only on operand shapes, not the numeric mode.
    pub fn flops(&self) -> u64 {
        self.flops
    }

    /// Returns and resets the flop counter (per-task metering).
    pub fn take_flops(&mut self) -> u64 {
        std::mem::take(&mut self.flops)
    }

    /// Number of times a buffer actually grew (including the constructor's
    /// pre-sizing). Flat after warm-up on a steady workload — the
    /// zero-alloc hot-path invariant tests assert exactly this, in every
    /// mode.
    pub fn grow_events(&self) -> u64 {
        self.grow_events
    }

    /// Largest buffer footprint reached so far, in f64-equivalent scalars
    /// (f32 buffers count half per element, rounding up — the arena
    /// high-water mark used to pick the warmest pooled workspace).
    pub fn high_water_elems(&self) -> usize {
        let f64_side = self.apack.len().max(self.bpack.len()).max(self.lpack.len());
        let f32_side = self
            .apack32
            .len()
            .max(self.bpack32.len())
            .max(self.lpack32.len())
            .max(self.front32.len())
            .div_ceil(2);
        f64_side.max(f32_side)
    }

    #[inline]
    fn tick(&mut self, flops: u64) {
        self.flops += flops;
    }
}

/// Scalars each f64 pack buffer of a [`KernelScratch`] needs for any
/// blocked kernel whose operands fit in an `n × n` envelope — the
/// per-front bound the execution plan uses to pre-size per-worker arenas.
pub fn pack_elems_bound(n: usize) -> usize {
    round_up(n, MR.max(NR)) * n.min(KC)
}

/// Mode-aware [`pack_elems_bound`]: the f32 mode packs f32 panels whose
/// row tiles round up to the taller [`MR_F32`] microkernel.
pub fn pack_elems_bound_mode(n: usize, mode: NumericMode) -> usize {
    match mode {
        NumericMode::F64 => pack_elems_bound(n),
        NumericMode::F32 => round_up(n, MR_F32.max(NR_F32)) * n.min(KC),
    }
}

/// A read-only view of a column-major sub-block, optionally transposed.
///
/// `at(i, j)` addresses the *logical* operand (after transposition); the
/// pack routines turn these strided reads into contiguous panel writes
/// exactly once per `KC` block.
#[derive(Clone, Copy)]
pub(crate) struct View<'a, S = f64> {
    data: &'a [S],
    /// Leading dimension: rows of the backing matrix.
    ld: usize,
    /// Top-left corner of the viewed block in the backing matrix.
    row: usize,
    col: usize,
    /// Logical dimensions (after transposition).
    rows: usize,
    cols: usize,
    trans: bool,
}

impl<'a> View<'a, f64> {
    /// Views an entire matrix, transposed when `trans`.
    pub(crate) fn of(m: &'a Mat, trans: bool) -> Self {
        let (rows, cols) = if trans {
            (m.cols(), m.rows())
        } else {
            (m.rows(), m.cols())
        };
        View {
            data: m.as_slice(),
            ld: m.rows().max(1),
            row: 0,
            col: 0,
            rows,
            cols,
            trans,
        }
    }
}

impl<'a, S: Scalar> View<'a, S> {
    /// Views a raw column-major slice block.
    pub(crate) fn raw(
        data: &'a [S],
        ld: usize,
        row: usize,
        col: usize,
        rows: usize,
        cols: usize,
        trans: bool,
    ) -> Self {
        View {
            data,
            ld: ld.max(1),
            row,
            col,
            rows,
            cols,
            trans,
        }
    }

    #[inline]
    fn at(&self, i: usize, j: usize) -> S {
        let (r, c) = if self.trans { (j, i) } else { (i, j) };
        self.data[(self.col + c) * self.ld + self.row + r]
    }

    /// The first `K` rows of logical column `j`: one contiguous slice copy
    /// when untransposed, a strided gather otherwise.
    #[inline(always)]
    fn column_head<const K: usize>(&self, j: usize) -> [S; K] {
        if self.trans {
            std::array::from_fn(|p| self.at(p, j))
        } else {
            let mut out = [S::ZERO; K];
            out.copy_from_slice(self.storage_col(j, K));
            out
        }
    }

    /// Contiguous storage column `c` (storage coordinates, not logical),
    /// restricted to the viewed rows.
    #[inline]
    fn storage_col(&self, c: usize, len: usize) -> &[S] {
        let base = (self.col + c) * self.ld + self.row;
        &self.data[base..base + len]
    }
}

/// A mutable view of a column-major sub-block (never transposed — only
/// `C` operands are mutable).
pub(crate) struct MutView<'a, S = f64> {
    data: &'a mut [S],
    ld: usize,
    row: usize,
    col: usize,
    rows: usize,
    cols: usize,
}

impl<'a> MutView<'a, f64> {
    /// Views an entire matrix mutably.
    pub(crate) fn of(m: &'a mut Mat) -> Self {
        let ld = m.rows().max(1);
        let (rows, cols) = (m.rows(), m.cols());
        MutView {
            data: m.as_mut_slice(),
            ld,
            row: 0,
            col: 0,
            rows,
            cols,
        }
    }
}

impl<'a, S: Scalar> MutView<'a, S> {
    /// Views a raw column-major slice block.
    pub(crate) fn raw(
        data: &'a mut [S],
        ld: usize,
        row: usize,
        col: usize,
        rows: usize,
        cols: usize,
    ) -> Self {
        MutView {
            data,
            ld: ld.max(1),
            row,
            col,
            rows,
            cols,
        }
    }

    /// Column `j` of the viewed block as a contiguous mutable slice.
    #[inline]
    fn col_mut(&mut self, j: usize) -> &mut [S] {
        let base = (self.col + j) * self.ld + self.row;
        &mut self.data[base..base + self.rows]
    }

    /// Rows `r0..` of column `j` as a contiguous mutable slice of `len`.
    #[inline]
    fn col_tail_mut(&mut self, j: usize, r0: usize, len: usize) -> &mut [S] {
        let base = (self.col + j) * self.ld + self.row + r0;
        &mut self.data[base..base + len]
    }

    /// Scales the whole viewed block by `beta` (with the exact-zero and
    /// exact-one fast paths BLAS semantics require).
    pub(crate) fn scale(&mut self, beta: S) {
        // lint: allow(float-eq) — exact beta-scaling fast path, matches BLAS semantics
        if beta == S::ONE || self.rows == 0 {
            return;
        }
        for j in 0..self.cols {
            let col = self.col_mut(j);
            // lint: allow(float-eq) — exact beta-scaling fast path, matches BLAS semantics
            if beta == S::ZERO {
                col.iter_mut().for_each(|x| *x = S::ZERO);
            } else {
                col.iter_mut().for_each(|x| *x *= beta);
            }
        }
    }

    /// Scales rows `j..rows` of every column `j` (the lower triangle) by
    /// `beta`.
    pub(crate) fn scale_lower(&mut self, beta: S) {
        // lint: allow(float-eq) — exact beta-scaling fast path, matches BLAS semantics
        if beta == S::ONE || self.rows == 0 {
            return;
        }
        let rows = self.rows;
        for j in 0..self.cols {
            let col = self.col_tail_mut(j, j, rows - j);
            // lint: allow(float-eq) — exact beta-scaling fast path, matches BLAS semantics
            if beta == S::ZERO {
                col.iter_mut().for_each(|x| *x = S::ZERO);
            } else {
                col.iter_mut().for_each(|x| *x *= beta);
            }
        }
    }
}

/// The kernel paths the size-keyed dispatch table selects between.
///
/// Selection depends only on the operand shapes — never on values, thread
/// counts or runtime feature detection — so the same call sites take the
/// same path in serial and pooled executions (the determinism anchor).
/// The table is shared by every [`NumericMode`]; modes differ only in
/// scalar width and tile constants, never in which path a shape takes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GemmPath {
    /// `k == 0` or an empty output: nothing to do.
    Noop,
    /// Fully unrolled `k = 3` direct kernel (SE(2) pose blocks).
    DirectK3,
    /// Fully unrolled `k = 6` direct kernel (SE(3) pose blocks).
    DirectK6,
    /// Generic direct kernel for small products (no packing).
    Direct,
    /// Packed panels + register-tiled microkernel.
    Packed,
}

/// The deterministic size-keyed dispatch table: which kernel path a GEMM
/// of logical shape `m × n × k` takes.
pub fn gemm_path(m: usize, n: usize, k: usize) -> GemmPath {
    match (m, n, k) {
        (0, _, _) | (_, 0, _) | (_, _, 0) => GemmPath::Noop,
        // SLAM-typical SE(2)/SE(3) block products: unrolled contraction.
        (_, _, 3) if m * n <= 24 * 24 => GemmPath::DirectK3,
        (_, _, 6) if m * n <= 24 * 24 => GemmPath::DirectK6,
        _ if m * n * k <= DIRECT_FLOP_CUTOFF => GemmPath::Direct,
        _ => GemmPath::Packed,
    }
}

/// `C += A · B` on views, `beta` already applied to `C` by the caller.
/// `alpha` is folded into the packed/gathered `B` operand, mirroring the
/// classic column-AXPY operand order `a[i,p] · (alpha · b[p,j])`.
pub(crate) fn gemm_core_g<S: Scalar, const MR_: usize, const NR_: usize>(
    alpha: S,
    a: &View<'_, S>,
    b: &View<'_, S>,
    c: &mut MutView<'_, S>,
    scratch: &mut KernelScratch,
) {
    let (m, n, k) = (c.rows, c.cols, a.cols);
    debug_assert_eq!(a.rows, m, "gemm_core A row mismatch");
    debug_assert_eq!(b.rows, k, "gemm_core B row mismatch");
    debug_assert_eq!(b.cols, n, "gemm_core B column mismatch");
    match gemm_path(m, n, k) {
        GemmPath::Noop => {}
        GemmPath::DirectK3 => gemm_direct_k_g::<S, 3>(alpha, a, b, c, scratch),
        GemmPath::DirectK6 => gemm_direct_k_g::<S, 6>(alpha, a, b, c, scratch),
        GemmPath::Direct => gemm_direct_g::<S>(alpha, a, b, c, scratch),
        GemmPath::Packed => gemm_packed_g::<S, MR_, NR_>(alpha, a, b, c, scratch),
    }
}

/// Row tiles `(i0, w)` covering `0..m`: four rows while four remain,
/// then two, then one. [`gemm_direct_k_g`] sweeps each tile's rows side by
/// side in one vector register; every output still sees exactly the
/// operations, in the order, of the row-at-a-time loop. (SYRK and TRSM
/// spell the same ladder out inline: through this iterator, `syrk-3` /
/// `trsm-3` measured 10–40 % slower, while `gemm-3` / `gemm-6` measured
/// 10–25 % slower without it.)
fn row_tiles(m: usize) -> impl Iterator<Item = (usize, usize)> {
    let mut i0 = 0;
    std::iter::from_fn(move || {
        let w = match m - i0 {
            0 => return None,
            1 => 1,
            2 | 3 => 2,
            _ => 4,
        };
        i0 += w;
        Some((i0 - w, w))
    })
}

/// Direct kernel with the contraction depth `K` a compile-time constant.
/// Every output is `out + dot`, the dot started from zero and adding
/// `a[i,p] · (alpha · b[p,j])` for `p = 0..K` in order.
///
/// The transposition of `A` is resolved here, once, so no inner loop
/// branches on it: a transposed `A` (the `Jᵀ J` Hessian blocks) has
/// contiguous rows, and each output is one unrolled dot of two contiguous
/// `K`-vectors; an untransposed `A` has contiguous columns, so its rows
/// are taken in [`row_tiles`] and each tile's dots run side by side
/// ([`direct_k_rows`]).
fn gemm_direct_k_g<S: Scalar, const K: usize>(
    alpha: S,
    a: &View<'_, S>,
    b: &View<'_, S>,
    c: &mut MutView<'_, S>,
    scratch: &mut KernelScratch,
) {
    let (m, n) = (c.rows, c.cols);
    debug_assert_eq!(a.cols, K);
    if a.trans {
        for j in 0..n {
            let bj = b.column_head::<K>(j);
            let bcol: [S; K] = std::array::from_fn(|p| alpha * bj[p]);
            for (i, out) in c.col_mut(j).iter_mut().enumerate() {
                let ai = a.storage_col(i, K);
                let mut acc = S::ZERO;
                for (&ap, &bp) in ai.iter().zip(&bcol) {
                    acc += ap * bp;
                }
                *out += acc;
            }
        }
    } else {
        let acols: [&[S]; K] = std::array::from_fn(|p| a.storage_col(p, m));
        for (i0, w) in row_tiles(m) {
            match w {
                4 => direct_k_rows::<S, K, 4>(alpha, &acols, b, c, i0),
                2 => direct_k_rows::<S, K, 2>(alpha, &acols, b, c, i0),
                _ => direct_k_rows::<S, K, 1>(alpha, &acols, b, c, i0),
            }
        }
    }
    scratch.tick(2 * (m * n * K) as u64);
}

/// Rows `i0..i0 + W` of [`gemm_direct_k_g`] for an untransposed `A`
/// (`acols` are its `K` columns): the `W × K` tile is loaded once and
/// swept across every output column, one `W`-wide multiply-add per depth
/// step against a broadcast `alpha · b[p,j]`.
#[inline(always)]
fn direct_k_rows<S: Scalar, const K: usize, const W: usize>(
    alpha: S,
    acols: &[&[S]; K],
    b: &View<'_, S>,
    c: &mut MutView<'_, S>,
    i0: usize,
) {
    let at: [[S; W]; K] = std::array::from_fn(|p| {
        let mut t = [S::ZERO; W];
        t.copy_from_slice(&acols[p][i0..i0 + W]);
        t
    });
    for j in 0..c.cols {
        let bj = b.column_head::<K>(j);
        let mut acc = [S::ZERO; W];
        for (tile, &bp) in at.iter().zip(&bj) {
            let bp = alpha * bp;
            for (x, &ar) in acc.iter_mut().zip(tile) {
                *x += ar * bp;
            }
        }
        let out = c.col_tail_mut(j, i0, W);
        for (o, &x) in out.iter_mut().zip(&acc) {
            *o += x;
        }
    }
}

/// Generic direct kernel for small shapes: per-column AXPY when `A` is
/// untransposed (contiguous columns), gathered dot products otherwise.
fn gemm_direct_g<S: Scalar>(
    alpha: S,
    a: &View<'_, S>,
    b: &View<'_, S>,
    c: &mut MutView<'_, S>,
    scratch: &mut KernelScratch,
) {
    let (m, n, k) = (c.rows, c.cols, a.cols);
    if !a.trans {
        for j in 0..n {
            for p in 0..k {
                let bpj = alpha * b.at(p, j);
                let acol = a.storage_col(p, m);
                let ccol = c.col_mut(j);
                for (ci, &ai) in ccol.iter_mut().zip(acol) {
                    *ci += ai * bpj;
                }
            }
        }
    } else {
        for j in 0..n {
            let ccol = c.col_mut(j);
            for (i, out) in ccol.iter_mut().enumerate() {
                let mut acc = S::ZERO;
                for p in 0..k {
                    acc += a.at(i, p) * b.at(p, j);
                }
                *out += alpha * acc;
            }
        }
    }
    scratch.tick(2 * (m * n * k) as u64);
}

/// Packs the `m × kc` slab of `A` starting at depth `p0` into `MR_`-row
/// micro-panels: panel `ib` holds rows `ib·MR_..` for all `kc` depths,
/// contiguously, zero-padded past row `m`.
fn pack_a_g<S: Scalar, const MR_: usize>(
    a: &View<'_, S>,
    p0: usize,
    kc: usize,
    m: usize,
    apack: &mut [S],
) {
    let panels = m.div_ceil(MR_);
    debug_assert!(apack.len() >= panels * kc * MR_);
    if !a.trans {
        // Storage columns are logical columns: walk each depth's column
        // slice once, scattering into the panels.
        for (ib, panel) in apack.chunks_exact_mut(kc * MR_).take(panels).enumerate() {
            let i0 = ib * MR_;
            let rows = MR_.min(m - i0);
            for (p, dst) in panel.chunks_exact_mut(MR_).enumerate() {
                let src = a.storage_col(p0 + p, a.rows);
                for r in 0..MR_ {
                    dst[r] = if r < rows { src[i0 + r] } else { S::ZERO };
                }
            }
        }
    } else {
        // Logical rows are storage columns: each packed row streams one
        // contiguous storage column segment.
        for (ib, panel) in apack.chunks_exact_mut(kc * MR_).take(panels).enumerate() {
            let i0 = ib * MR_;
            let rows = MR_.min(m - i0);
            for dst in panel.chunks_exact_mut(MR_) {
                dst.iter_mut().for_each(|x| *x = S::ZERO);
            }
            for r in 0..rows {
                let src = a.storage_col(i0 + r, a.cols);
                for (p, dst) in panel.chunks_exact_mut(MR_).enumerate() {
                    dst[r] = src[p0 + p];
                }
            }
        }
    }
}

/// Packs the `kc × n` slab of `B` starting at depth `p0` into `NR_`-column
/// micro-panels scaled by `alpha`, zero-padded past column `n`.
fn pack_b_g<S: Scalar, const NR_: usize>(
    alpha: S,
    b: &View<'_, S>,
    p0: usize,
    kc: usize,
    n: usize,
    bpack: &mut [S],
) {
    let panels = n.div_ceil(NR_);
    debug_assert!(bpack.len() >= panels * kc * NR_);
    if !b.trans {
        for (jb, panel) in bpack.chunks_exact_mut(kc * NR_).take(panels).enumerate() {
            let j0 = jb * NR_;
            let cols = NR_.min(n - j0);
            for dst in panel.chunks_exact_mut(NR_) {
                dst.iter_mut().for_each(|x| *x = S::ZERO);
            }
            for j in 0..cols {
                let src = b.storage_col(j0 + j, b.rows);
                for (p, dst) in panel.chunks_exact_mut(NR_).enumerate() {
                    dst[j] = alpha * src[p0 + p];
                }
            }
        }
    } else {
        // Transposed B: logical row p is storage column p.
        for (jb, panel) in bpack.chunks_exact_mut(kc * NR_).take(panels).enumerate() {
            let j0 = jb * NR_;
            let cols = NR_.min(n - j0);
            for (p, dst) in panel.chunks_exact_mut(NR_).enumerate() {
                let src = b.storage_col(p0 + p, b.cols);
                for j in 0..NR_ {
                    dst[j] = if j < cols {
                        alpha * src[j0 + j]
                    } else {
                        S::ZERO
                    };
                }
            }
        }
    }
}

/// The register-tiled microkernel: accumulates the full `MR_ × NR_` tile
/// product of one packed `A` panel and one packed `B` panel across `kc`
/// depths. `acc` is column-major (`acc[j][i]`); the f64 instantiation is
/// the historic f64 kernel operation for operation.
#[inline(always)]
fn microkernel_g<S: Scalar, const MR_: usize, const NR_: usize>(
    kc: usize,
    apanel: &[S],
    bpanel: &[S],
) -> [[S; MR_]; NR_] {
    // The tile is a local returned by value: behind a `&mut`, the
    // accumulators get written back to memory on every depth step.
    let mut acc = [[S::ZERO; MR_]; NR_];
    // Two depth steps per iteration: halves the loop-control overhead and
    // gives the scheduler two independent rank-1 updates to interleave.
    //
    // Each rank-1 row is staged through a fixed-width product array before
    // the accumulate pass. The staging changes no arithmetic (same
    // multiplies, same addition order, so f64 stays bit-identical to the
    // historic kernel) but splits the body into short independent loops
    // the SLP vectorizer handles at every width — the fused form
    // autovectorizes at 4×f64 yet collapses to spilled scalar code at
    // 8×f32.
    let pairs = kc / 2;
    for (ap, bp) in apanel
        .chunks_exact(2 * MR_)
        .zip(bpanel.chunks_exact(2 * NR_))
        .take(pairs)
    {
        let (a0, a1) = ap.split_at(MR_);
        let (b0, b1) = bp.split_at(NR_);
        for j in 0..NR_ {
            let bj0 = b0[j];
            let bj1 = b1[j];
            let mut p0 = [S::ZERO; MR_];
            let mut p1 = [S::ZERO; MR_];
            for i in 0..MR_ {
                p0[i] = a0[i] * bj0;
            }
            for i in 0..MR_ {
                p1[i] = a1[i] * bj1;
            }
            let accj = &mut acc[j];
            for i in 0..MR_ {
                accj[i] += p0[i] + p1[i];
            }
        }
    }
    if kc % 2 == 1 {
        let p = kc - 1;
        let a = &apanel[p * MR_..(p + 1) * MR_];
        let b = &bpanel[p * NR_..(p + 1) * NR_];
        for j in 0..NR_ {
            let bj = b[j];
            let mut prod = [S::ZERO; MR_];
            for i in 0..MR_ {
                prod[i] = a[i] * bj;
            }
            let accj = &mut acc[j];
            for i in 0..MR_ {
                accj[i] += prod[i];
            }
        }
    }
    acc
}

/// Packed GEMM: `C += (alpha·A)·B`, blocked over the contraction depth in
/// `KC` slabs, each slab packed once and swept by the microkernel.
fn gemm_packed_g<S: Scalar, const MR_: usize, const NR_: usize>(
    alpha: S,
    a: &View<'_, S>,
    b: &View<'_, S>,
    c: &mut MutView<'_, S>,
    scratch: &mut KernelScratch,
) {
    let (m, n, k) = (c.rows, c.cols, a.cols);
    let a_elems = round_up(m, MR_) * KC.min(k);
    let b_elems = round_up(n, NR_) * KC.min(k);
    let (apack, bpack) = S::packs(scratch, a_elems, b_elems);

    let mut p0 = 0usize;
    while p0 < k {
        let kc = KC.min(k - p0);
        pack_a_g::<S, MR_>(a, p0, kc, m, apack);
        pack_b_g::<S, NR_>(alpha, b, p0, kc, n, bpack);
        for jb in 0..n.div_ceil(NR_) {
            let j0 = jb * NR_;
            let jw = NR_.min(n - j0);
            let bpanel = &bpack[jb * kc * NR_..(jb + 1) * kc * NR_];
            for ib in 0..m.div_ceil(MR_) {
                let i0 = ib * MR_;
                let ih = MR_.min(m - i0);
                let apanel = &apack[ib * kc * MR_..(ib + 1) * kc * MR_];
                let acc = microkernel_g::<S, MR_, NR_>(kc, apanel, bpanel);
                for (j, accj) in acc.iter().enumerate().take(jw) {
                    let col = c.col_tail_mut(j0 + j, i0, ih);
                    for (ci, &v) in col.iter_mut().zip(accj) {
                        *ci += v;
                    }
                }
            }
        }
        p0 += kc;
    }
    scratch.tick(2 * (m * n * k) as u64);
}

/// Blocked SYRK on the lower triangle: `C_lower += (alpha·A)·Aᵀ` with
/// `beta` already applied. Packs `A` twice (row panels and, transposed and
/// alpha-scaled, column panels) and sweeps only the tiles that intersect
/// the lower triangle; diagonal tiles compute the full tile and store the
/// `i ≥ j` half.
pub(crate) fn syrk_core_g<S: Scalar, const MR_: usize, const NR_: usize>(
    alpha: S,
    a: &View<'_, S>,
    c: &mut MutView<'_, S>,
    scratch: &mut KernelScratch,
) {
    let (n, k) = (a.rows, a.cols);
    debug_assert_eq!(c.rows, n);
    debug_assert_eq!(c.cols, n);
    if n == 0 || k == 0 {
        return;
    }
    if n * n * k <= DIRECT_FLOP_CUTOFF {
        syrk_direct_g::<S>(alpha, a, c, scratch);
        return;
    }
    let at = View {
        trans: !a.trans,
        rows: a.cols,
        cols: a.rows,
        ..*a
    };
    let a_elems = round_up(n, MR_) * KC.min(k);
    let b_elems = round_up(n, NR_) * KC.min(k);
    let (apack, bpack) = S::packs(scratch, a_elems, b_elems);

    let mut p0 = 0usize;
    while p0 < k {
        let kc = KC.min(k - p0);
        pack_a_g::<S, MR_>(a, p0, kc, n, apack);
        pack_b_g::<S, NR_>(alpha, &at, p0, kc, n, bpack);
        for jb in 0..n.div_ceil(NR_) {
            let j0 = jb * NR_;
            let jw = NR_.min(n - j0);
            let bpanel = &bpack[jb * kc * NR_..(jb + 1) * kc * NR_];
            // First row tile that reaches the diagonal: rows i0 + MR_ - 1 ≥ j0.
            for ib in (j0 / MR_)..n.div_ceil(MR_) {
                let i0 = ib * MR_;
                let ih = MR_.min(n - i0);
                let apanel = &apack[ib * kc * MR_..(ib + 1) * kc * MR_];
                let acc = microkernel_g::<S, MR_, NR_>(kc, apanel, bpanel);
                for (j, accj) in acc.iter().enumerate().take(jw) {
                    let gj = j0 + j;
                    // Store only the i ≥ j half (global coordinates).
                    let r0 = gj.saturating_sub(i0).min(ih);
                    let col = c.col_tail_mut(gj, i0 + r0, ih - r0);
                    for (ci, &v) in col.iter_mut().zip(&accj[r0..]) {
                        *ci += v;
                    }
                }
            }
        }
        p0 += kc;
    }
    // Lower triangle only: n(n+1)/2 length-k MACs.
    scratch.tick((n * (n + 1)) as u64 * k as u64);
}

/// Direct small-size SYRK: column-AXPY over the lower triangle. An
/// untransposed `A` of depth 3 or 6 (the SE(2) / SE(3) pivot blocks of a
/// small front) takes the fixed-depth form [`syrk_direct_k`].
fn syrk_direct_g<S: Scalar>(
    alpha: S,
    a: &View<'_, S>,
    c: &mut MutView<'_, S>,
    scratch: &mut KernelScratch,
) {
    let (n, k) = (a.rows, a.cols);
    match (a.trans, k) {
        (false, 3) => syrk_direct_k::<S, 3>(alpha, a, c),
        (false, 6) => syrk_direct_k::<S, 6>(alpha, a, c),
        _ => {
            for j in 0..n {
                for p in 0..k {
                    let ajp = alpha * a.at(j, p);
                    // lint: allow(float-eq) — structural-zero skip: exact zeros from sparsity
                    if ajp == S::ZERO {
                        continue;
                    }
                    if !a.trans {
                        let base = (a.col + p) * a.ld + a.row;
                        let acol = &a.data[base..base + n];
                        let ccol = c.col_tail_mut(j, j, n - j);
                        for (ci, &ai) in ccol.iter_mut().zip(&acol[j..]) {
                            *ci += ai * ajp;
                        }
                    } else {
                        let ccol = c.col_tail_mut(j, j, n - j);
                        for (r, ci) in ccol.iter_mut().enumerate() {
                            *ci += a.at(j + r, p) * ajp;
                        }
                    }
                }
            }
        }
    }
    scratch.tick((n * (n + 1)) as u64 * k as u64);
}

/// [`syrk_direct_g`]'s column-AXPY with the depth `K` a compile-time
/// constant and `A` untransposed: column `j` of `C` is taken in row tiles
/// of 4 / 2 / 1 from the diagonal down, and each tile stays in registers
/// while every depth step whose `alpha · a[j,p]` is not an exact zero adds
/// `a[i,p] · (alpha · a[j,p])`, `p` ascending — per element, the loop
/// above.
fn syrk_direct_k<S: Scalar, const K: usize>(alpha: S, a: &View<'_, S>, c: &mut MutView<'_, S>) {
    let n = a.rows;
    let acols: [&[S]; K] = std::array::from_fn(|p| a.storage_col(p, n));
    for j in 0..n {
        let aj: [S; K] = std::array::from_fn(|p| alpha * acols[p][j]);
        let mut i0 = j;
        while n - i0 >= 4 {
            syrk_k_rows::<S, K, 4>(&aj, &acols, c, j, i0);
            i0 += 4;
        }
        if n - i0 >= 2 {
            syrk_k_rows::<S, K, 2>(&aj, &acols, c, j, i0);
            i0 += 2;
        }
        if n > i0 {
            syrk_k_rows::<S, K, 1>(&aj, &acols, c, j, i0);
        }
    }
}

/// Rows `i0..i0 + W` of column `j` in [`syrk_direct_k`].
#[inline(always)]
fn syrk_k_rows<S: Scalar, const K: usize, const W: usize>(
    aj: &[S; K],
    acols: &[&[S]; K],
    c: &mut MutView<'_, S>,
    j: usize,
    i0: usize,
) {
    let out = c.col_tail_mut(j, i0, W);
    let mut acc = [S::ZERO; W];
    acc.copy_from_slice(out);
    for (&ajp, acol) in aj.iter().zip(acols) {
        // lint: allow(float-eq) — structural-zero skip: exact zeros from sparsity
        if ajp == S::ZERO {
            continue;
        }
        for (x, &ar) in acc.iter_mut().zip(&acol[i0..i0 + W]) {
            *x += ar * ajp;
        }
    }
    out.copy_from_slice(&acc);
}

/// In-block column width of the blocked TRSM (the GEMM update handles
/// everything left of the current block).
const TRSM_NB: usize = 32;

/// Blocked in-place TRSM: solves `X · Lᵀ = B` for `X`, overwriting the
/// viewed `b` block. `l` views the `n × n` lower triangle (`ld`-strided).
///
/// Column blocks of width [`TRSM_NB`] are updated against all previously
/// solved columns with one packed GEMM (`B[:,J] −= X[:,0..j0] · L[J,0..j0]ᵀ`)
/// and then finished with the small in-block forward substitution.
#[allow(clippy::too_many_arguments)]
pub(crate) fn trsm_core_g<S: Scalar, const MR_: usize, const NR_: usize>(
    l: &View<'_, S>,
    bdata: &mut [S],
    bld: usize,
    brow: usize,
    bcol: usize,
    m: usize,
    n: usize,
    scratch: &mut KernelScratch,
) {
    debug_assert_eq!(l.rows, n);
    debug_assert_eq!(l.cols, n);
    // Row `j`'s solved `l[j,p]`, rewritten for each column before use.
    let mut lbuf = [S::ZERO; TRSM_NB];
    let mut j0 = 0usize;
    while j0 < n {
        let nb = TRSM_NB.min(n - j0);
        if j0 > 0 {
            // Split the viewed columns at j0: left of the split is solved
            // (read-only), the current block is written.
            let (done, cur) = bdata.split_at_mut((bcol + j0) * bld);
            let x = View::raw(done, bld, brow, bcol, m, j0, false);
            let lt = View::raw(l.data, l.ld, l.row + j0, l.col, j0, nb, true);
            let mut cview = MutView::raw(cur, bld, brow, 0, m, nb);
            gemm_core_g::<S, MR_, NR_>(-S::ONE, &x, &lt, &mut cview, scratch);
        }
        // In-block forward substitution (columns j0..j0+nb): column `j` is
        // taken eight rows at a time, each tile held in registers while it
        // subtracts `x[i,p] · l[j,p]` for every solved `p` whose `l[j,p]`
        // is not an exact zero, `p` ascending, and is then divided by
        // `l[j,j]` — per element, the operations of a column-AXPY sweep.
        for j in j0..j0 + nb {
            let lrow = &mut lbuf[..j - j0];
            for (x, p) in lrow.iter_mut().zip(j0..j) {
                *x = l.at(j, p);
            }
            let lrow = &*lrow;
            let d = l.at(j, j);
            let (done, cur) = bdata.split_at_mut((bcol + j) * bld);
            let solved = &done[(bcol + j0) * bld..];
            let col = &mut cur[brow..brow + m];
            let mut i0 = 0;
            while m - i0 >= 8 {
                solve_rows::<S, 8>(&mut col[i0..i0 + 8], solved, bld, brow + i0, lrow, d);
                i0 += 8;
            }
            if m - i0 >= 4 {
                solve_rows::<S, 4>(&mut col[i0..i0 + 4], solved, bld, brow + i0, lrow, d);
                i0 += 4;
            }
            if m - i0 >= 2 {
                solve_rows::<S, 2>(&mut col[i0..i0 + 2], solved, bld, brow + i0, lrow, d);
                i0 += 2;
            }
            if m > i0 {
                solve_rows::<S, 1>(&mut col[i0..m], solved, bld, brow + i0, lrow, d);
            }
        }
        // The GEMM update metered itself; this covers the in-block solve.
        scratch.tick((m * nb * nb) as u64);
        j0 += nb;
    }
}

/// `W` rows of one column of [`trsm_core_g`]'s in-block substitution:
/// `solved` holds the block's already-solved columns `ld` apart, starting
/// at the block's first column, and `lrow` the matching `l[j,p]`.
#[inline(always)]
fn solve_rows<S: Scalar, const W: usize>(
    out: &mut [S],
    solved: &[S],
    ld: usize,
    row: usize,
    lrow: &[S],
    d: S,
) {
    let mut acc = [S::ZERO; W];
    acc.copy_from_slice(out);
    for (q, &ljp) in lrow.iter().enumerate() {
        // lint: allow(float-eq) — structural-zero skip: exact zeros from sparsity
        if ljp == S::ZERO {
            continue;
        }
        let src = &solved[q * ld + row..q * ld + row + W];
        for (x, &s) in acc.iter_mut().zip(src) {
            *x -= s * ljp;
        }
    }
    for x in &mut acc {
        *x /= d;
    }
    out.copy_from_slice(&acc);
}

/// f64 instantiation of [`gemm_core_g`] (the historic kernel stack).
pub(crate) fn gemm_core(
    alpha: f64,
    a: &View<'_>,
    b: &View<'_>,
    c: &mut MutView<'_>,
    scratch: &mut KernelScratch,
) {
    gemm_core_g::<f64, MR, NR>(alpha, a, b, c, scratch);
}

/// f64 instantiation of [`syrk_core_g`].
pub(crate) fn syrk_core(
    alpha: f64,
    a: &View<'_>,
    c: &mut MutView<'_>,
    scratch: &mut KernelScratch,
) {
    syrk_core_g::<f64, MR, NR>(alpha, a, c, scratch);
}

/// f64 instantiation of [`trsm_core_g`].
#[allow(clippy::too_many_arguments)]
pub(crate) fn trsm_core(
    l: &View<'_>,
    bdata: &mut [f64],
    bld: usize,
    brow: usize,
    bcol: usize,
    m: usize,
    n: usize,
    scratch: &mut KernelScratch,
) {
    trsm_core_g::<f64, MR, NR>(l, bdata, bld, brow, bcol, m, n, scratch);
}

/// Public-surface helper: `c = alpha·opa(a)·opb(b) + beta·c` entirely on
/// whole matrices (the [`crate::gemm`] body).
pub(crate) fn gemm_mats(
    alpha: f64,
    a: &View<'_>,
    b: &View<'_>,
    beta: f64,
    c: &mut Mat,
    scratch: &mut KernelScratch,
) {
    let mut cv = MutView::of(c);
    cv.scale(beta);
    gemm_core(alpha, a, b, &mut cv, scratch);
}

/// f32-storage GEMM on raw column-major slices:
/// `c = alpha·op(a)·op(b) + beta·c`, where `a` is stored `m × k`
/// (`k × m` when `a_trans`) and `b` is stored `k × n` (`n × k` when
/// `b_trans`), each with leading dimension equal to its storage rows.
///
/// This is the [`NumericMode::F32`] engine: it computes and accumulates in
/// f32 with 16×4 tiles.
///
/// # Panics
///
/// Panics if the slice lengths don't cover the stated shapes.
#[allow(clippy::too_many_arguments)]
pub fn gemm_f32(
    m: usize,
    n: usize,
    k: usize,
    alpha: f32,
    a: &[f32],
    a_trans: bool,
    b: &[f32],
    b_trans: bool,
    beta: f32,
    c: &mut [f32],
    scratch: &mut KernelScratch,
) {
    let a_ld = if a_trans { k } else { m };
    let b_ld = if b_trans { n } else { k };
    assert!(
        a.len() >= a_ld * if a_trans { m } else { k },
        "gemm_f32 a too short"
    );
    assert!(
        b.len() >= b_ld * if b_trans { k } else { n },
        "gemm_f32 b too short"
    );
    assert!(c.len() >= m * n, "gemm_f32 c too short");
    let av = View::raw(a, a_ld, 0, 0, m, k, a_trans);
    let bv = View::raw(b, b_ld, 0, 0, k, n, b_trans);
    let mut cv = MutView::raw(c, m, 0, 0, m, n);
    cv.scale(beta);
    gemm_core_g::<f32, MR_F32, NR_F32>(alpha, &av, &bv, &mut cv, scratch);
}

/// f32-storage SYRK on raw column-major slices:
/// `c_lower = beta·c_lower + alpha·a·aᵀ` with `a` stored `n × k` and `c`
/// `n × n`, touching only `i ≥ j`, on the engine of [`gemm_f32`].
///
/// # Panics
///
/// Panics if the slice lengths don't cover the stated shapes.
pub fn syrk_lower_f32(
    n: usize,
    k: usize,
    alpha: f32,
    a: &[f32],
    beta: f32,
    c: &mut [f32],
    scratch: &mut KernelScratch,
) {
    assert!(a.len() >= n * k, "syrk_lower_f32 a too short");
    assert!(c.len() >= n * n, "syrk_lower_f32 c too short");
    let av = View::raw(a, n, 0, 0, n, k, false);
    let mut cv = MutView::raw(c, n, 0, 0, n, n);
    cv.scale_lower(beta);
    syrk_core_g::<f32, MR_F32, NR_F32>(alpha, &av, &mut cv, scratch);
}

/// f32-storage TRSM on raw column-major slices: solves `x·lᵀ = b` in
/// place, with `l` a stored `n × n` lower triangle and `b` stored `m × n`.
/// Runs on the engine of [`gemm_f32`].
///
/// # Panics
///
/// Panics if the slice lengths don't cover the stated shapes.
pub fn trsm_right_lower_transpose_f32(
    m: usize,
    n: usize,
    l: &[f32],
    b: &mut [f32],
    scratch: &mut KernelScratch,
) {
    if n == 0 || m == 0 {
        return;
    }
    assert!(l.len() >= n * n, "trsm_f32 l too short");
    assert!(b.len() >= m * n, "trsm_f32 b too short");
    let lv = View::raw(l, n, 0, 0, n, n, false);
    trsm_core_g::<f32, MR_F32, NR_F32>(&lv, b, m, 0, 0, m, n, scratch);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cholesky::factor_columns_g;
    use crate::rng::XorShift64;

    fn filled(rows: usize, cols: usize, seed: f64) -> Mat {
        Mat::from_fn(rows, cols, |r, c| {
            ((r * 7 + c * 3) % 11) as f64 * 0.25 - seed
        })
    }

    fn naive(a: &Mat, b: &Mat) -> Mat {
        let mut c = Mat::zeros(a.rows(), b.cols());
        for i in 0..a.rows() {
            for j in 0..b.cols() {
                for p in 0..a.cols() {
                    c[(i, j)] += a[(i, p)] * b[(p, j)];
                }
            }
        }
        c
    }

    #[test]
    fn packed_gemm_matches_naive_with_tails() {
        let mut scratch = KernelScratch::new();
        for (m, n, k) in [(33, 29, 37), (64, 64, 64), (5, 70, 100), (70, 5, 300)] {
            let a = filled(m, k, 0.5);
            let b = filled(k, n, 1.5);
            let want = naive(&a, &b);
            let mut c = Mat::zeros(m, n);
            gemm_mats(
                1.0,
                &View::of(&a, false),
                &View::of(&b, false),
                0.0,
                &mut c,
                &mut scratch,
            );
            for i in 0..m {
                for j in 0..n {
                    assert!(
                        (c[(i, j)] - want[(i, j)]).abs() < 1e-9,
                        "({m},{n},{k}) at ({i},{j})"
                    );
                }
            }
        }
        assert!(scratch.flops() > 0);
        assert!(scratch.high_water_elems() > 0);
    }

    #[test]
    fn transposed_views_match_explicit_transposes() {
        let mut scratch = KernelScratch::new();
        let a = filled(40, 33, 0.25);
        let b = filled(27, 40, 2.0);
        let want = naive(&a.transposed(), &b.transposed());
        let mut c = Mat::zeros(33, 27);
        gemm_mats(
            1.0,
            &View::of(&a, true),
            &View::of(&b, true),
            0.0,
            &mut c,
            &mut scratch,
        );
        for i in 0..33 {
            for j in 0..27 {
                assert!((c[(i, j)] - want[(i, j)]).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn dispatch_is_size_keyed_and_deterministic() {
        assert_eq!(gemm_path(10, 10, 0), GemmPath::Noop);
        assert_eq!(gemm_path(0, 4, 4), GemmPath::Noop);
        assert_eq!(gemm_path(3, 3, 3), GemmPath::DirectK3);
        assert_eq!(gemm_path(6, 6, 6), GemmPath::DirectK6);
        assert_eq!(gemm_path(12, 12, 12), GemmPath::Direct);
        assert_eq!(gemm_path(64, 64, 64), GemmPath::Packed);
        // The table is a pure function of shape.
        for _ in 0..3 {
            assert_eq!(gemm_path(48, 48, 48), gemm_path(48, 48, 48));
        }
    }

    #[test]
    fn scratch_growth_is_monotonic_and_reused() {
        let mut scratch = KernelScratch::new();
        let a = filled(64, 64, 0.0);
        let b = filled(64, 64, 1.0);
        let mut c = Mat::zeros(64, 64);
        gemm_mats(
            1.0,
            &View::of(&a, false),
            &View::of(&b, false),
            0.0,
            &mut c,
            &mut scratch,
        );
        let grows = scratch.grow_events();
        let high = scratch.high_water_elems();
        assert!(grows > 0);
        for _ in 0..4 {
            gemm_mats(
                1.0,
                &View::of(&a, false),
                &View::of(&b, false),
                0.0,
                &mut c,
                &mut scratch,
            );
        }
        assert_eq!(scratch.grow_events(), grows, "warm arena must not grow");
        assert_eq!(scratch.high_water_elems(), high);
    }

    #[test]
    fn presized_scratch_never_grows() {
        let n = 96;
        let mut scratch = KernelScratch::with_capacity(pack_elems_bound(n));
        let base = scratch.grow_events();
        let a = filled(n, n, 0.0);
        let b = filled(n, n, 1.0);
        let mut c = Mat::zeros(n, n);
        gemm_mats(
            1.0,
            &View::of(&a, false),
            &View::of(&b, false),
            0.0,
            &mut c,
            &mut scratch,
        );
        assert_eq!(scratch.grow_events(), base);
    }

    #[test]
    fn presized_scratch_never_grows_in_f32_mode() {
        let n = 96;
        let mode = NumericMode::F32;
        let mut scratch = KernelScratch::new();
        scratch.reserve_mode(mode, pack_elems_bound_mode(n, mode), n * n);
        let base = scratch.grow_events();
        let a: Vec<f32> = (0..n * n)
            .map(|i| ((i * 7) % 11) as f32 * 0.25 - 0.5)
            .collect();
        let b: Vec<f32> = (0..n * n)
            .map(|i| ((i * 3) % 13) as f32 * 0.25 - 1.0)
            .collect();
        let mut c = vec![0.0f32; n * n];
        gemm_f32(
            n,
            n,
            n,
            1.0,
            &a,
            false,
            &b,
            false,
            0.0,
            &mut c,
            &mut scratch,
        );
        assert_eq!(scratch.grow_events(), base, "pre-sized f32 arena grew");
    }

    #[test]
    fn flop_meter_matches_shape() {
        let mut scratch = KernelScratch::new();
        let a = filled(8, 4, 0.0);
        let b = filled(4, 8, 1.0);
        let mut c = Mat::zeros(8, 8);
        gemm_mats(
            1.0,
            &View::of(&a, false),
            &View::of(&b, false),
            0.0,
            &mut c,
            &mut scratch,
        );
        assert_eq!(scratch.take_flops(), 2 * 8 * 8 * 4);
        assert_eq!(scratch.flops(), 0);
    }

    #[test]
    fn flop_meter_is_mode_independent() {
        let n = 40;
        let a: Vec<f32> = (0..n * n)
            .map(|i| ((i * 5) % 9) as f32 * 0.5 - 1.0)
            .collect();
        let b: Vec<f32> = (0..n * n)
            .map(|i| ((i * 11) % 7) as f32 * 0.5 - 1.5)
            .collect();
        let mut s32 = KernelScratch::new();
        let mut c = vec![0.0f32; n * n];
        gemm_f32(n, n, n, 1.0, &a, false, &b, false, 0.0, &mut c, &mut s32);
        let mut s64 = KernelScratch::new();
        let (a64, b64) = (filled(n, n, 0.0), filled(n, n, 1.0));
        gemm_mats(
            1.0,
            &View::of(&a64, false),
            &View::of(&b64, false),
            0.0,
            &mut Mat::zeros(n, n),
            &mut s64,
        );
        assert_eq!(s32.flops(), s64.flops());
        assert_eq!(s32.flops(), 2 * (n * n * n) as u64);
    }

    #[test]
    fn f32_gemm_matches_f64_within_width_tolerance() {
        let mut scratch = KernelScratch::new();
        for (m, n, k) in [(33, 29, 37), (64, 64, 64), (8, 40, 300)] {
            let a = filled(m, k, 0.5);
            let b = filled(k, n, 1.5);
            let want = naive(&a, &b);
            let a32: Vec<f32> = a.as_slice().iter().map(|&v| v as f32).collect();
            let b32: Vec<f32> = b.as_slice().iter().map(|&v| v as f32).collect();
            let mut c = vec![0.0f32; m * n];
            gemm_f32(
                m,
                n,
                k,
                1.0,
                &a32,
                false,
                &b32,
                false,
                0.0,
                &mut c,
                &mut scratch,
            );
            let scale = (k as f64).sqrt() * 8.0;
            for j in 0..n {
                for i in 0..m {
                    let got = c[j * m + i] as f64;
                    let err = (got - want[(i, j)]).abs();
                    assert!(
                        err <= scale * f32::EPSILON as f64 * want[(i, j)].abs().max(8.0),
                        "({m},{n},{k}) at ({i},{j}): got {got}, want {}",
                        want[(i, j)]
                    );
                }
            }
        }
    }

    #[test]
    fn f32_engine_is_deterministic_across_arenas() {
        let (m, n, k) = (48, 36, 52);
        let a: Vec<f32> = (0..m * k)
            .map(|i| ((i * 13) % 17) as f32 * 0.125 - 1.0)
            .collect();
        let b: Vec<f32> = (0..k * n)
            .map(|i| ((i * 7) % 19) as f32 * 0.125 - 1.0)
            .collect();
        let mut c1 = vec![0.0f32; m * n];
        let mut c2 = vec![0.0f32; m * n];
        let mut s1 = KernelScratch::new();
        let mut s2 = KernelScratch::with_capacity(pack_elems_bound(64));
        s2.reserve_mode(
            NumericMode::F32,
            pack_elems_bound_mode(64, NumericMode::F32),
            0,
        );
        gemm_f32(m, n, k, 1.0, &a, false, &b, false, 0.0, &mut c1, &mut s1);
        gemm_f32(m, n, k, 1.0, &a, false, &b, false, 0.0, &mut c2, &mut s2);
        assert!(
            c1.iter().zip(&c2).all(|(x, y)| x.to_bits() == y.to_bits()),
            "cold vs warm arena diverged"
        );
    }

    #[test]
    fn pack_bounds_cover_both_widths() {
        for n in [1, 3, 7, 8, 9, 31, 48, 200, 500] {
            assert_eq!(
                pack_elems_bound_mode(n, NumericMode::F64),
                pack_elems_bound(n)
            );
            let narrow = pack_elems_bound_mode(n, NumericMode::F32);
            // The 16-tall tiles never need less than the 4-tall ones.
            assert!(narrow >= pack_elems_bound(n));
        }
    }

    /// `n` values in `[-2, 2)`, about `2 / spread` of them exact zeros of
    /// either sign, so the structural-zero skips and signed-zero sums are
    /// exercised.
    fn rand_vals<S: Scalar>(rng: &mut XorShift64, n: usize, spread: usize) -> Vec<S> {
        (0..n)
            .map(|_| match rng.gen_index(spread) {
                0 => S::ZERO,
                1 => -S::ZERO,
                _ => S::from_f64(rng.gen_range(-2.0, 2.0)),
            })
            .collect()
    }

    fn bits<S: Scalar>(v: &[S]) -> Vec<u64> {
        v.iter().map(|x| x.to_f64().to_bits()).collect()
    }

    /// Shapes of one tile-shape case: GEMM `m × n × k`, SYRK `n × k`,
    /// TRSM `m × n`, and a `chol × chol` front with `pivots` pivots.
    struct Shapes {
        m: usize,
        n: usize,
        k: usize,
        chol: usize,
        pivots: usize,
        seed: u64,
    }

    /// Every output bit of GEMM, SYRK, TRSM and the partial Cholesky on
    /// `sh`'s inputs, run through the `MR_ × NR_` instantiation of engine
    /// `S`.
    fn kernel_bits<S: Scalar, const MR_: usize, const NR_: usize>(sh: &Shapes) -> Vec<u64> {
        let mut rng = XorShift64::seed_from_u64(sh.seed);
        let mut scratch = KernelScratch::new();
        let (m, n, k) = (sh.m, sh.n, sh.k);
        let mut out = Vec::new();

        let ta = sh.seed % 2 == 1;
        let a = rand_vals::<S>(&mut rng, m * k, 16);
        let b = rand_vals::<S>(&mut rng, k * n, 16);
        let mut c = rand_vals::<S>(&mut rng, m * n, 16);
        let av = View::raw(&a, if ta { k } else { m }, 0, 0, m, k, ta);
        let bv = View::raw(&b, k, 0, 0, k, n, false);
        let mut cv = MutView::raw(&mut c, m, 0, 0, m, n);
        gemm_core_g::<S, MR_, NR_>(S::from_f64(-0.75), &av, &bv, &mut cv, &mut scratch);
        out.extend(bits(&c));

        let a = rand_vals::<S>(&mut rng, n * k, 16);
        let mut c = rand_vals::<S>(&mut rng, n * n, 16);
        let av = View::raw(&a, n, 0, 0, n, k, false);
        let mut cv = MutView::raw(&mut c, n, 0, 0, n, n);
        syrk_core_g::<S, MR_, NR_>(-S::ONE, &av, &mut cv, &mut scratch);
        out.extend(bits(&c));

        let l: Vec<S> = (0..n * n)
            .map(|e| match (e % n, e / n) {
                (i, j) if i == j => S::from_f64(2.0 + rng.gen_f64()),
                (i, j) if i > j => S::from_f64(rng.gen_range(-0.5, 0.5)),
                _ => S::ZERO,
            })
            .collect();
        let mut x = rand_vals::<S>(&mut rng, m * n, 16);
        let lv = View::raw(&l, n, 0, 0, n, n, false);
        trsm_core_g::<S, MR_, NR_>(&lv, &mut x, m, 0, 0, m, n, &mut scratch);
        out.extend(bits(&x));

        // An SPD front G·Gᵀ + t·I, formed in f64 and rounded into S.
        let t = sh.chol;
        let g: Vec<f64> = (0..t * t).map(|_| rng.gen_range(-1.0, 1.0)).collect();
        let mut front: Vec<S> = (0..t * t)
            .map(|e| {
                let (i, j) = (e % t, e / t);
                let dot: f64 = (0..t).map(|p| g[i + p * t] * g[j + p * t]).sum();
                S::from_f64(if i == j { dot + t as f64 } else { dot })
            })
            .collect();
        factor_columns_g::<S, MR_, NR_>(&mut front, t, t, sh.pivots, &mut scratch)
            .expect("SPD front");
        out.extend(bits(&front));
        out
    }

    /// A tile's shape decides which outputs share registers, never the
    /// operations one output sees, so two tile instantiations of the same
    /// engine must agree bit for bit — on tails in every dimension and on
    /// depths past one `KC` slab.
    #[test]
    fn tile_shape_never_moves_a_bit() {
        let mut rng = XorShift64::seed_from_u64(0x711e_5a9e);
        for seed in 0..24 {
            let mut dim = || 1 + rng.gen_index(130);
            let (m, n, chol) = (dim(), dim(), dim());
            let k = if seed % 4 == 3 {
                KC + 1 + rng.gen_index(40)
            } else {
                1 + rng.gen_index(130)
            };
            let sh = Shapes {
                m,
                n,
                k,
                chol,
                pivots: 1 + rng.gen_index(chol),
                seed,
            };
            let what = format!("seed {seed}: {m}x{n}x{k}, front {chol}");
            assert!(
                kernel_bits::<f64, MR, NR>(&sh) == kernel_bits::<f64, 8, 2>(&sh),
                "f64 {what}"
            );
            assert!(
                kernel_bits::<f32, MR_F32, NR_F32>(&sh) == kernel_bits::<f32, 8, 4>(&sh),
                "f32 {what}"
            );
        }
    }

    /// The row-at-a-time loop [`gemm_direct_k_g`] replaced.
    fn oracle_direct_k<S: Scalar, const K: usize>(
        alpha: S,
        a: &View<'_, S>,
        b: &View<'_, S>,
        c: &mut MutView<'_, S>,
    ) {
        for j in 0..c.cols {
            let bcol: [S; K] = std::array::from_fn(|p| alpha * b.at(p, j));
            for (i, out) in c.col_mut(j).iter_mut().enumerate() {
                let mut acc = S::ZERO;
                for (p, &bp) in bcol.iter().enumerate() {
                    acc += a.at(i, p) * bp;
                }
                *out += acc;
            }
        }
    }

    /// The column-AXPY loop [`syrk_direct_k`] replaced for depths 3 and 6.
    fn oracle_syrk_axpy<S: Scalar>(alpha: S, a: &View<'_, S>, c: &mut MutView<'_, S>) {
        let n = a.rows;
        for j in 0..n {
            for p in 0..a.cols {
                let ajp = alpha * a.at(j, p);
                // lint: allow(float-eq) — structural-zero skip: exact zeros from sparsity
                if ajp == S::ZERO {
                    continue;
                }
                for (r, ci) in c.col_tail_mut(j, j, n - j).iter_mut().enumerate() {
                    *ci += a.at(j + r, p) * ajp;
                }
            }
        }
    }

    fn direct_k_case<S: Scalar, const K: usize>(
        rng: &mut XorShift64,
        m: usize,
        n: usize,
        ta: bool,
        tb: bool,
    ) {
        let a = rand_vals::<S>(rng, m * K, 4);
        let b = rand_vals::<S>(rng, K * n, 4);
        let c0 = rand_vals::<S>(rng, m * n, 4);
        let av = View::raw(&a, if ta { K } else { m }, 0, 0, m, K, ta);
        let bv = View::raw(&b, if tb { n } else { K }, 0, 0, K, n, tb);
        let alpha = S::from_f64(-1.25);
        let (mut got, mut want) = (c0.clone(), c0);
        let mut scratch = KernelScratch::new();
        gemm_direct_k_g::<S, K>(
            alpha,
            &av,
            &bv,
            &mut MutView::raw(&mut got, m, 0, 0, m, n),
            &mut scratch,
        );
        oracle_direct_k::<S, K>(alpha, &av, &bv, &mut MutView::raw(&mut want, m, 0, 0, m, n));
        assert_eq!(bits(&got), bits(&want), "{m}x{n}x{K} ta {ta} tb {tb}");
    }

    fn syrk_k_case<S: Scalar>(rng: &mut XorShift64, n: usize, k: usize) {
        let a = rand_vals::<S>(rng, n * k, 4);
        let c0 = rand_vals::<S>(rng, n * n, 4);
        let av = View::raw(&a, n, 0, 0, n, k, false);
        let alpha = S::from_f64(-1.0);
        let (mut got, mut want) = (c0.clone(), c0);
        let mut scratch = KernelScratch::new();
        syrk_direct_g::<S>(
            alpha,
            &av,
            &mut MutView::raw(&mut got, n, 0, 0, n, n),
            &mut scratch,
        );
        oracle_syrk_axpy(alpha, &av, &mut MutView::raw(&mut want, n, 0, 0, n, n));
        assert_eq!(bits(&got), bits(&want), "syrk {n}x{k}");
    }

    /// The fixed-depth direct kernels sweep row tiles side by side; every
    /// output must still carry the row-at-a-time loop's bits, in every
    /// engine, for every transposition, and through exact (signed) zeros.
    #[test]
    fn direct_kernels_match_row_at_a_time_loops_bit_for_bit() {
        let mut rng = XorShift64::seed_from_u64(0xd1_4ec7);
        for m in 1..=24 {
            for n in (1..=24).filter(|n| m * n <= 24 * 24) {
                for (ta, tb) in [(false, false), (true, false), (false, true), (true, true)] {
                    direct_k_case::<f64, 3>(&mut rng, m, n, ta, tb);
                    direct_k_case::<f64, 6>(&mut rng, m, n, ta, tb);
                    direct_k_case::<f32, 6>(&mut rng, m, n, ta, tb);
                    direct_k_case::<f32, 3>(&mut rng, m, n, ta, tb);
                }
            }
        }
        for n in 1..=24 {
            for k in [3, 6] {
                syrk_k_case::<f64>(&mut rng, n, k);
                syrk_k_case::<f32>(&mut rng, n, k);
            }
        }
    }

    /// The column-AXPY in-block substitution [`trsm_core_g`] replaced,
    /// with the same packed GEMM update between blocks.
    fn oracle_trsm<S: Scalar>(l: &View<'_, S>, b: &mut [S], m: usize, n: usize) {
        let mut scratch = KernelScratch::new();
        let mut j0 = 0;
        while j0 < n {
            let nb = TRSM_NB.min(n - j0);
            if j0 > 0 {
                let (done, cur) = b.split_at_mut(j0 * m);
                let x = View::raw(done, m, 0, 0, m, j0, false);
                let lt = View::raw(l.data, l.ld, l.row + j0, l.col, j0, nb, true);
                let mut cview = MutView::raw(cur, m, 0, 0, m, nb);
                gemm_core_g::<S, MR, NR>(-S::ONE, &x, &lt, &mut cview, &mut scratch);
            }
            for j in j0..j0 + nb {
                for p in j0..j {
                    let ljp = l.at(j, p);
                    // lint: allow(float-eq) — structural-zero skip: exact zeros from sparsity
                    if ljp == S::ZERO {
                        continue;
                    }
                    let (done, cur) = b.split_at_mut(j * m);
                    for (d, &s) in cur[..m].iter_mut().zip(&done[p * m..p * m + m]) {
                        *d -= s * ljp;
                    }
                }
                let d = l.at(j, j);
                b[j * m..j * m + m].iter_mut().for_each(|x| *x /= d);
            }
            j0 += nb;
        }
    }

    fn trsm_case<S: Scalar>(rng: &mut XorShift64, m: usize, n: usize) {
        let l: Vec<S> = (0..n * n)
            .map(|e| match (e % n, e / n) {
                (i, j) if i == j => S::from_f64(1.5 + rng.gen_f64()),
                (i, j) if i > j && rng.gen_index(3) > 0 => S::from_f64(rng.gen_range(-0.5, 0.5)),
                _ => S::ZERO,
            })
            .collect();
        let b0 = rand_vals::<S>(rng, m * n, 4);
        let lv = View::raw(&l, n, 0, 0, n, n, false);
        let (mut got, mut want) = (b0.clone(), b0);
        trsm_core_g::<S, MR, NR>(&lv, &mut got, m, 0, 0, m, n, &mut KernelScratch::new());
        oracle_trsm::<S>(&lv, &mut want, m, n);
        assert_eq!(bits(&got), bits(&want), "trsm {m}x{n}");
    }

    /// The register-tiled in-block substitution must leave the bits of the
    /// column sweep, including through exact zeros in `L` and `B`.
    #[test]
    fn trsm_matches_column_sweep_bit_for_bit() {
        let mut rng = XorShift64::seed_from_u64(0x7b5_0de);
        for _ in 0..40 {
            let (m, n) = (1 + rng.gen_index(70), 1 + rng.gen_index(70));
            trsm_case::<f64>(&mut rng, m, n);
            trsm_case::<f32>(&mut rng, m, n);
        }
    }
}
