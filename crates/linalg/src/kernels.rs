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
//! Storage, multiplies and accumulation are all f64, on `MR×NR = 4×4`
//! tiles. A tile's shape decides only which outputs share registers, never
//! the operations any one output sees (every output accumulates its `KC`
//! slab in depth order and is added into `C` once per slab), so the tile
//! constants are chosen by measurement alone; `tile_shape_never_moves_a_bit`
//! checks that.
//!
//! Pack buffers come from a caller-provided [`KernelScratch`] arena that
//! grows monotonically and is reused across calls — the sparse executor
//! pools them across plan executions so the steady-state refactor loop
//! performs zero heap allocation (machine-checked by
//! `supernova-analyze`'s `hot-alloc` lint; the allowed escapes in this
//! file are the cold-path constructors).
//!
//! Every path is a pure function of the operand values and shapes: the
//! same call always performs the same operations in the same order, so
//! serial and pooled plan executions (which call identical kernels) stay
//! bit-identical — blocking changes *which* deterministic summation order
//! is used, never makes it data- or thread-dependent.

use crate::Mat;

/// Microkernel tile height (rows of `C` held in registers).
pub const MR: usize = 4;
/// Microkernel tile width (columns of `C` held in registers).
pub const NR: usize = 4;
/// Depth of one packed block: panels of at most `KC` columns of `A` (rows
/// of `B`) are packed and consumed before the next block is packed.
pub const KC: usize = 256;
/// Problems with `m·n·k` at or below this run the direct (non-packing)
/// path; above it, packing pays for itself.
pub const DIRECT_FLOP_CUTOFF: usize = 24 * 24 * 24;
/// Panel width of the blocked Cholesky driver (`cholesky.rs`), restated
/// here so [`KernelScratch::reserve`] can bound the triangular-panel
/// buffer [`take_lpack`](KernelScratch::take_lpack) hands out.
pub(crate) const CHOL_NB: usize = 48;

/// Rounds `x` up to a multiple of `to` (`to > 0`).
#[inline]
fn round_up(x: usize, to: usize) -> usize {
    x.div_ceil(to) * to
}

/// Reusable pack-buffer arena for the blocked kernels.
///
/// Buffers grow monotonically (never shrink) and are fully overwritten on
/// every use, so scratch contents can never leak between calls and a
/// warm arena performs zero allocation. The arena also meters the
/// multiply-add work the kernels actually execute ([`flops`](Self::flops))
/// so callers can tick real kernel work into trace spans; flop counts
/// depend only on shapes.
#[derive(Clone, Debug, Default)]
pub struct KernelScratch {
    apack: Vec<f64>,
    bpack: Vec<f64>,
    /// Packed copy of a triangular diagonal block, taken/returned by the
    /// in-place blocked Cholesky so its TRSM reads `L` without aliasing
    /// the front it is updating.
    lpack: Vec<f64>,
    flops: u64,
    grow_events: u64,
}

impl KernelScratch {
    /// An empty arena; buffers grow on first use and are then reused.
    pub fn new() -> Self {
        Self::default()
    }

    /// An arena whose pack buffers are pre-grown to `pack_elems` scalars
    /// each (use [`pack_elems_bound`] / `ExecutionPlan::max_pack_elems`-style
    /// precomputation), so even the first call allocates nothing.
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

    /// Pre-grows (never shrinks) every buffer for kernels within a
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
        let _ = self.packs(a, b);
        let l = pack_elems.min(CHOL_NB * CHOL_NB);
        if self.lpack.capacity() < l {
            self.grow_events += 1;
            let need = l - self.lpack.len();
            self.lpack.reserve(need);
        }
    }

    /// Grows (never shrinks) the pack buffers to at least `a_elems` /
    /// `b_elems` and returns them. Growth is counted in
    /// [`grow_events`](Self::grow_events).
    fn packs(&mut self, a_elems: usize, b_elems: usize) -> (&mut [f64], &mut [f64]) {
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

    /// Detaches the triangular-panel buffer, grown to exactly `elems`
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

    /// Total multiply-add flops (MAC = 2 flops) executed through this
    /// arena since construction or the last [`take_flops`](Self::take_flops).
    /// Counts depend only on operand shapes.
    pub fn flops(&self) -> u64 {
        self.flops
    }

    /// Returns and resets the flop counter (per-task metering).
    pub fn take_flops(&mut self) -> u64 {
        std::mem::take(&mut self.flops)
    }

    /// Number of times a buffer actually grew (including the constructor's
    /// pre-sizing). Flat after warm-up on a steady workload — the
    /// zero-alloc hot-path invariant tests assert exactly this.
    pub fn grow_events(&self) -> u64 {
        self.grow_events
    }

    /// Largest buffer footprint reached so far, in scalars (the arena
    /// high-water mark used to pick the warmest pooled workspace).
    pub fn high_water_elems(&self) -> usize {
        self.apack.len().max(self.bpack.len()).max(self.lpack.len())
    }

    #[inline]
    fn tick(&mut self, flops: u64) {
        self.flops += flops;
    }
}

/// Scalars each pack buffer of a [`KernelScratch`] needs for any blocked
/// kernel whose operands fit in an `n × n` envelope — the per-front bound
/// the execution plan uses to pre-size the executor's arena.
pub fn pack_elems_bound(n: usize) -> usize {
    round_up(n, MR.max(NR)) * n.min(KC)
}

/// A read-only view of a column-major sub-block, optionally transposed.
///
/// `at(i, j)` addresses the *logical* operand (after transposition); the
/// pack routines turn these strided reads into contiguous panel writes
/// exactly once per `KC` block.
#[derive(Clone, Copy)]
pub(crate) struct View<'a> {
    data: &'a [f64],
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

impl<'a> View<'a> {
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

    /// Views a raw column-major slice block.
    pub(crate) fn raw(
        data: &'a [f64],
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
    fn at(&self, i: usize, j: usize) -> f64 {
        let (r, c) = if self.trans { (j, i) } else { (i, j) };
        self.data[(self.col + c) * self.ld + self.row + r]
    }

    /// The first `K` rows of logical column `j`: one contiguous slice copy
    /// when untransposed, a strided gather otherwise.
    #[inline(always)]
    fn column_head<const K: usize>(&self, j: usize) -> [f64; K] {
        if self.trans {
            std::array::from_fn(|p| self.at(p, j))
        } else {
            let mut out = [0.0; K];
            out.copy_from_slice(self.storage_col(j, K));
            out
        }
    }

    /// Contiguous storage column `c` (storage coordinates, not logical),
    /// restricted to the viewed rows.
    #[inline]
    fn storage_col(&self, c: usize, len: usize) -> &[f64] {
        let base = (self.col + c) * self.ld + self.row;
        &self.data[base..base + len]
    }
}

/// A mutable view of a column-major sub-block (never transposed — only
/// `C` operands are mutable).
pub(crate) struct MutView<'a> {
    data: &'a mut [f64],
    ld: usize,
    row: usize,
    col: usize,
    rows: usize,
    cols: usize,
}

impl<'a> MutView<'a> {
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

    /// Views a raw column-major slice block.
    pub(crate) fn raw(
        data: &'a mut [f64],
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
    fn col_mut(&mut self, j: usize) -> &mut [f64] {
        let base = (self.col + j) * self.ld + self.row;
        &mut self.data[base..base + self.rows]
    }

    /// Rows `r0..` of column `j` as a contiguous mutable slice of `len`.
    #[inline]
    fn col_tail_mut(&mut self, j: usize, r0: usize, len: usize) -> &mut [f64] {
        let base = (self.col + j) * self.ld + self.row + r0;
        &mut self.data[base..base + len]
    }

    /// Scales the whole viewed block by `beta` (with the exact-zero and
    /// exact-one fast paths BLAS semantics require).
    pub(crate) fn scale(&mut self, beta: f64) {
        // lint: allow(float-eq) — exact beta-scaling fast path, matches BLAS semantics
        if beta == 1.0 || self.rows == 0 {
            return;
        }
        for j in 0..self.cols {
            let col = self.col_mut(j);
            // lint: allow(float-eq) — exact beta-scaling fast path, matches BLAS semantics
            if beta == 0.0 {
                col.iter_mut().for_each(|x| *x = 0.0);
            } else {
                col.iter_mut().for_each(|x| *x *= beta);
            }
        }
    }

    /// Scales rows `j..rows` of every column `j` (the lower triangle) by
    /// `beta`.
    pub(crate) fn scale_lower(&mut self, beta: f64) {
        // lint: allow(float-eq) — exact beta-scaling fast path, matches BLAS semantics
        if beta == 1.0 || self.rows == 0 {
            return;
        }
        let rows = self.rows;
        for j in 0..self.cols {
            let col = self.col_tail_mut(j, j, rows - j);
            // lint: allow(float-eq) — exact beta-scaling fast path, matches BLAS semantics
            if beta == 0.0 {
                col.iter_mut().for_each(|x| *x = 0.0);
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
pub(crate) fn gemm_core_g<const MR_: usize, const NR_: usize>(
    alpha: f64,
    a: &View<'_>,
    b: &View<'_>,
    c: &mut MutView<'_>,
    scratch: &mut KernelScratch,
) {
    let (m, n, k) = (c.rows, c.cols, a.cols);
    debug_assert_eq!(a.rows, m, "gemm_core A row mismatch");
    debug_assert_eq!(b.rows, k, "gemm_core B row mismatch");
    debug_assert_eq!(b.cols, n, "gemm_core B column mismatch");
    match gemm_path(m, n, k) {
        GemmPath::Noop => {}
        GemmPath::DirectK3 => gemm_direct_k_g::<3>(alpha, a, b, c, scratch),
        GemmPath::DirectK6 => gemm_direct_k_g::<6>(alpha, a, b, c, scratch),
        GemmPath::Direct => gemm_direct(alpha, a, b, c, scratch),
        GemmPath::Packed => gemm_packed_g::<MR_, NR_>(alpha, a, b, c, scratch),
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
fn gemm_direct_k_g<const K: usize>(
    alpha: f64,
    a: &View<'_>,
    b: &View<'_>,
    c: &mut MutView<'_>,
    scratch: &mut KernelScratch,
) {
    let (m, n) = (c.rows, c.cols);
    debug_assert_eq!(a.cols, K);
    if a.trans {
        for j in 0..n {
            let bj = b.column_head::<K>(j);
            let bcol: [f64; K] = std::array::from_fn(|p| alpha * bj[p]);
            for (i, out) in c.col_mut(j).iter_mut().enumerate() {
                let ai = a.storage_col(i, K);
                let mut acc = 0.0;
                for (&ap, &bp) in ai.iter().zip(&bcol) {
                    acc += ap * bp;
                }
                *out += acc;
            }
        }
    } else {
        let acols: [&[f64]; K] = std::array::from_fn(|p| a.storage_col(p, m));
        for (i0, w) in row_tiles(m) {
            match w {
                4 => direct_k_rows::<K, 4>(alpha, &acols, b, c, i0),
                2 => direct_k_rows::<K, 2>(alpha, &acols, b, c, i0),
                _ => direct_k_rows::<K, 1>(alpha, &acols, b, c, i0),
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
fn direct_k_rows<const K: usize, const W: usize>(
    alpha: f64,
    acols: &[&[f64]; K],
    b: &View<'_>,
    c: &mut MutView<'_>,
    i0: usize,
) {
    let at: [[f64; W]; K] = std::array::from_fn(|p| {
        let mut t = [0.0; W];
        t.copy_from_slice(&acols[p][i0..i0 + W]);
        t
    });
    for j in 0..c.cols {
        let bj = b.column_head::<K>(j);
        let mut acc = [0.0; W];
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
fn gemm_direct(
    alpha: f64,
    a: &View<'_>,
    b: &View<'_>,
    c: &mut MutView<'_>,
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
                let mut acc = 0.0;
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
fn pack_a_g<const MR_: usize>(a: &View<'_>, p0: usize, kc: usize, m: usize, apack: &mut [f64]) {
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
                    dst[r] = if r < rows { src[i0 + r] } else { 0.0 };
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
                dst.iter_mut().for_each(|x| *x = 0.0);
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
fn pack_b_g<const NR_: usize>(
    alpha: f64,
    b: &View<'_>,
    p0: usize,
    kc: usize,
    n: usize,
    bpack: &mut [f64],
) {
    let panels = n.div_ceil(NR_);
    debug_assert!(bpack.len() >= panels * kc * NR_);
    if !b.trans {
        for (jb, panel) in bpack.chunks_exact_mut(kc * NR_).take(panels).enumerate() {
            let j0 = jb * NR_;
            let cols = NR_.min(n - j0);
            for dst in panel.chunks_exact_mut(NR_) {
                dst.iter_mut().for_each(|x| *x = 0.0);
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
                    dst[j] = if j < cols { alpha * src[j0 + j] } else { 0.0 };
                }
            }
        }
    }
}

/// The register-tiled microkernel: accumulates the full `MR_ × NR_` tile
/// product of one packed `A` panel and one packed `B` panel across `kc`
/// depths. `acc` is column-major (`acc[j][i]`).
#[inline(always)]
fn microkernel_g<const MR_: usize, const NR_: usize>(
    kc: usize,
    apanel: &[f64],
    bpanel: &[f64],
) -> [[f64; MR_]; NR_] {
    // The tile is a local returned by value: behind a `&mut`, the
    // accumulators get written back to memory on every depth step.
    let mut acc = [[0.0; MR_]; NR_];
    // Two depth steps per iteration: halves the loop-control overhead and
    // gives the scheduler two independent rank-1 updates to interleave.
    //
    // Each rank-1 row is staged through a fixed-width product array before
    // the accumulate pass. The staging changes no arithmetic (same
    // multiplies, same addition order) but splits the body into short
    // independent loops the SLP vectorizer handles at every tile shape.
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
            let mut p0 = [0.0; MR_];
            let mut p1 = [0.0; MR_];
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
            let mut prod = [0.0; MR_];
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
fn gemm_packed_g<const MR_: usize, const NR_: usize>(
    alpha: f64,
    a: &View<'_>,
    b: &View<'_>,
    c: &mut MutView<'_>,
    scratch: &mut KernelScratch,
) {
    let (m, n, k) = (c.rows, c.cols, a.cols);
    let a_elems = round_up(m, MR_) * KC.min(k);
    let b_elems = round_up(n, NR_) * KC.min(k);
    let (apack, bpack) = scratch.packs(a_elems, b_elems);

    let mut p0 = 0usize;
    while p0 < k {
        let kc = KC.min(k - p0);
        pack_a_g::<MR_>(a, p0, kc, m, apack);
        pack_b_g::<NR_>(alpha, b, p0, kc, n, bpack);
        for jb in 0..n.div_ceil(NR_) {
            let j0 = jb * NR_;
            let jw = NR_.min(n - j0);
            let bpanel = &bpack[jb * kc * NR_..(jb + 1) * kc * NR_];
            for ib in 0..m.div_ceil(MR_) {
                let i0 = ib * MR_;
                let ih = MR_.min(m - i0);
                let apanel = &apack[ib * kc * MR_..(ib + 1) * kc * MR_];
                let acc = microkernel_g::<MR_, NR_>(kc, apanel, bpanel);
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
pub(crate) fn syrk_core_g<const MR_: usize, const NR_: usize>(
    alpha: f64,
    a: &View<'_>,
    c: &mut MutView<'_>,
    scratch: &mut KernelScratch,
) {
    let (n, k) = (a.rows, a.cols);
    debug_assert_eq!(c.rows, n);
    debug_assert_eq!(c.cols, n);
    if n == 0 || k == 0 {
        return;
    }
    if n * n * k <= DIRECT_FLOP_CUTOFF {
        syrk_direct(alpha, a, c, scratch);
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
    let (apack, bpack) = scratch.packs(a_elems, b_elems);

    let mut p0 = 0usize;
    while p0 < k {
        let kc = KC.min(k - p0);
        pack_a_g::<MR_>(a, p0, kc, n, apack);
        pack_b_g::<NR_>(alpha, &at, p0, kc, n, bpack);
        for jb in 0..n.div_ceil(NR_) {
            let j0 = jb * NR_;
            let jw = NR_.min(n - j0);
            let bpanel = &bpack[jb * kc * NR_..(jb + 1) * kc * NR_];
            // First row tile that reaches the diagonal: rows i0 + MR_ - 1 ≥ j0.
            for ib in (j0 / MR_)..n.div_ceil(MR_) {
                let i0 = ib * MR_;
                let ih = MR_.min(n - i0);
                let apanel = &apack[ib * kc * MR_..(ib + 1) * kc * MR_];
                let acc = microkernel_g::<MR_, NR_>(kc, apanel, bpanel);
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
fn syrk_direct(alpha: f64, a: &View<'_>, c: &mut MutView<'_>, scratch: &mut KernelScratch) {
    let (n, k) = (a.rows, a.cols);
    match (a.trans, k) {
        (false, 3) => syrk_direct_k::<3>(alpha, a, c),
        (false, 6) => syrk_direct_k::<6>(alpha, a, c),
        _ => {
            for j in 0..n {
                for p in 0..k {
                    let ajp = alpha * a.at(j, p);
                    // lint: allow(float-eq) — structural-zero skip: exact zeros from sparsity
                    if ajp == 0.0 {
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

/// [`syrk_direct`]'s column-AXPY with the depth `K` a compile-time
/// constant and `A` untransposed: column `j` of `C` is taken in row tiles
/// of 4 / 2 / 1 from the diagonal down, and each tile stays in registers
/// while every depth step whose `alpha · a[j,p]` is not an exact zero adds
/// `a[i,p] · (alpha · a[j,p])`, `p` ascending — per element, the loop
/// above.
fn syrk_direct_k<const K: usize>(alpha: f64, a: &View<'_>, c: &mut MutView<'_>) {
    let n = a.rows;
    let acols: [&[f64]; K] = std::array::from_fn(|p| a.storage_col(p, n));
    for j in 0..n {
        let aj: [f64; K] = std::array::from_fn(|p| alpha * acols[p][j]);
        let mut i0 = j;
        while n - i0 >= 4 {
            syrk_k_rows::<K, 4>(&aj, &acols, c, j, i0);
            i0 += 4;
        }
        if n - i0 >= 2 {
            syrk_k_rows::<K, 2>(&aj, &acols, c, j, i0);
            i0 += 2;
        }
        if n > i0 {
            syrk_k_rows::<K, 1>(&aj, &acols, c, j, i0);
        }
    }
}

/// Rows `i0..i0 + W` of column `j` in [`syrk_direct_k`].
#[inline(always)]
fn syrk_k_rows<const K: usize, const W: usize>(
    aj: &[f64; K],
    acols: &[&[f64]; K],
    c: &mut MutView<'_>,
    j: usize,
    i0: usize,
) {
    let out = c.col_tail_mut(j, i0, W);
    let mut acc = [0.0; W];
    acc.copy_from_slice(out);
    for (&ajp, acol) in aj.iter().zip(acols) {
        // lint: allow(float-eq) — structural-zero skip: exact zeros from sparsity
        if ajp == 0.0 {
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
pub(crate) fn trsm_core_g<const MR_: usize, const NR_: usize>(
    l: &View<'_>,
    bdata: &mut [f64],
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
    let mut lbuf = [0.0; TRSM_NB];
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
            gemm_core_g::<MR_, NR_>(-1.0, &x, &lt, &mut cview, scratch);
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
                solve_rows::<8>(&mut col[i0..i0 + 8], solved, bld, brow + i0, lrow, d);
                i0 += 8;
            }
            if m - i0 >= 4 {
                solve_rows::<4>(&mut col[i0..i0 + 4], solved, bld, brow + i0, lrow, d);
                i0 += 4;
            }
            if m - i0 >= 2 {
                solve_rows::<2>(&mut col[i0..i0 + 2], solved, bld, brow + i0, lrow, d);
                i0 += 2;
            }
            if m > i0 {
                solve_rows::<1>(&mut col[i0..m], solved, bld, brow + i0, lrow, d);
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
fn solve_rows<const W: usize>(
    out: &mut [f64],
    solved: &[f64],
    ld: usize,
    row: usize,
    lrow: &[f64],
    d: f64,
) {
    let mut acc = [0.0; W];
    acc.copy_from_slice(out);
    for (q, &ljp) in lrow.iter().enumerate() {
        // lint: allow(float-eq) — structural-zero skip: exact zeros from sparsity
        if ljp == 0.0 {
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

/// The `MR × NR` instantiation of [`gemm_core_g`].
pub(crate) fn gemm_core(
    alpha: f64,
    a: &View<'_>,
    b: &View<'_>,
    c: &mut MutView<'_>,
    scratch: &mut KernelScratch,
) {
    gemm_core_g::<MR, NR>(alpha, a, b, c, scratch);
}

/// The `MR × NR` instantiation of [`syrk_core_g`].
pub(crate) fn syrk_core(
    alpha: f64,
    a: &View<'_>,
    c: &mut MutView<'_>,
    scratch: &mut KernelScratch,
) {
    syrk_core_g::<MR, NR>(alpha, a, c, scratch);
}

/// The `MR × NR` instantiation of [`trsm_core_g`].
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
    trsm_core_g::<MR, NR>(l, bdata, bld, brow, bcol, m, n, scratch);
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

    /// `n` values in `[-2, 2)`, about `2 / spread` of them exact zeros of
    /// either sign, so the structural-zero skips and signed-zero sums are
    /// exercised.
    fn rand_vals(rng: &mut XorShift64, n: usize, spread: usize) -> Vec<f64> {
        (0..n)
            .map(|_| match rng.gen_index(spread) {
                0 => 0.0,
                1 => -0.0,
                _ => rng.gen_range(-2.0, 2.0),
            })
            .collect()
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
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
    /// `sh`'s inputs, run through the `MR_ × NR_` kernel instantiation.
    fn kernel_bits<const MR_: usize, const NR_: usize>(sh: &Shapes) -> Vec<u64> {
        let mut rng = XorShift64::seed_from_u64(sh.seed);
        let mut scratch = KernelScratch::new();
        let (m, n, k) = (sh.m, sh.n, sh.k);
        let mut out = Vec::new();

        let ta = sh.seed % 2 == 1;
        let a = rand_vals(&mut rng, m * k, 16);
        let b = rand_vals(&mut rng, k * n, 16);
        let mut c = rand_vals(&mut rng, m * n, 16);
        let av = View::raw(&a, if ta { k } else { m }, 0, 0, m, k, ta);
        let bv = View::raw(&b, k, 0, 0, k, n, false);
        let mut cv = MutView::raw(&mut c, m, 0, 0, m, n);
        gemm_core_g::<MR_, NR_>(-0.75, &av, &bv, &mut cv, &mut scratch);
        out.extend(bits(&c));

        let a = rand_vals(&mut rng, n * k, 16);
        let mut c = rand_vals(&mut rng, n * n, 16);
        let av = View::raw(&a, n, 0, 0, n, k, false);
        let mut cv = MutView::raw(&mut c, n, 0, 0, n, n);
        syrk_core_g::<MR_, NR_>(-1.0, &av, &mut cv, &mut scratch);
        out.extend(bits(&c));

        let l: Vec<f64> = (0..n * n)
            .map(|e| match (e % n, e / n) {
                (i, j) if i == j => 2.0 + rng.gen_f64(),
                (i, j) if i > j => rng.gen_range(-0.5, 0.5),
                _ => 0.0,
            })
            .collect();
        let mut x = rand_vals(&mut rng, m * n, 16);
        let lv = View::raw(&l, n, 0, 0, n, n, false);
        trsm_core_g::<MR_, NR_>(&lv, &mut x, m, 0, 0, m, n, &mut scratch);
        out.extend(bits(&x));

        // An SPD front G·Gᵀ + t·I.
        let t = sh.chol;
        let g: Vec<f64> = (0..t * t).map(|_| rng.gen_range(-1.0, 1.0)).collect();
        let mut front: Vec<f64> = (0..t * t)
            .map(|e| {
                let (i, j) = (e % t, e / t);
                let dot: f64 = (0..t).map(|p| g[i + p * t] * g[j + p * t]).sum();
                if i == j {
                    dot + t as f64
                } else {
                    dot
                }
            })
            .collect();
        factor_columns_g::<MR_, NR_>(&mut front, t, t, sh.pivots, &mut scratch).expect("SPD front");
        out.extend(bits(&front));
        out
    }

    /// A tile's shape decides which outputs share registers, never the
    /// operations one output sees, so two tile instantiations must agree
    /// bit for bit — on tails in every dimension and on
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
                kernel_bits::<MR, NR>(&sh) == kernel_bits::<8, 2>(&sh),
                "{what}"
            );
        }
    }

    /// The row-at-a-time loop [`gemm_direct_k_g`] replaced.
    fn oracle_direct_k<const K: usize>(
        alpha: f64,
        a: &View<'_>,
        b: &View<'_>,
        c: &mut MutView<'_>,
    ) {
        for j in 0..c.cols {
            let bcol: [f64; K] = std::array::from_fn(|p| alpha * b.at(p, j));
            for (i, out) in c.col_mut(j).iter_mut().enumerate() {
                let mut acc = 0.0;
                for (p, &bp) in bcol.iter().enumerate() {
                    acc += a.at(i, p) * bp;
                }
                *out += acc;
            }
        }
    }

    /// The column-AXPY loop [`syrk_direct_k`] replaced for depths 3 and 6.
    fn oracle_syrk_axpy(alpha: f64, a: &View<'_>, c: &mut MutView<'_>) {
        let n = a.rows;
        for j in 0..n {
            for p in 0..a.cols {
                let ajp = alpha * a.at(j, p);
                // lint: allow(float-eq) — structural-zero skip: exact zeros from sparsity
                if ajp == 0.0 {
                    continue;
                }
                for (r, ci) in c.col_tail_mut(j, j, n - j).iter_mut().enumerate() {
                    *ci += a.at(j + r, p) * ajp;
                }
            }
        }
    }

    fn direct_k_case<const K: usize>(rng: &mut XorShift64, m: usize, n: usize, ta: bool, tb: bool) {
        let a = rand_vals(rng, m * K, 4);
        let b = rand_vals(rng, K * n, 4);
        let c0 = rand_vals(rng, m * n, 4);
        let av = View::raw(&a, if ta { K } else { m }, 0, 0, m, K, ta);
        let bv = View::raw(&b, if tb { n } else { K }, 0, 0, K, n, tb);
        let alpha = -1.25;
        let (mut got, mut want) = (c0.clone(), c0);
        let mut scratch = KernelScratch::new();
        gemm_direct_k_g::<K>(
            alpha,
            &av,
            &bv,
            &mut MutView::raw(&mut got, m, 0, 0, m, n),
            &mut scratch,
        );
        oracle_direct_k::<K>(alpha, &av, &bv, &mut MutView::raw(&mut want, m, 0, 0, m, n));
        assert_eq!(bits(&got), bits(&want), "{m}x{n}x{K} ta {ta} tb {tb}");
    }

    fn syrk_k_case(rng: &mut XorShift64, n: usize, k: usize) {
        let a = rand_vals(rng, n * k, 4);
        let c0 = rand_vals(rng, n * n, 4);
        let av = View::raw(&a, n, 0, 0, n, k, false);
        let alpha = -1.0;
        let (mut got, mut want) = (c0.clone(), c0);
        let mut scratch = KernelScratch::new();
        syrk_direct(
            alpha,
            &av,
            &mut MutView::raw(&mut got, n, 0, 0, n, n),
            &mut scratch,
        );
        oracle_syrk_axpy(alpha, &av, &mut MutView::raw(&mut want, n, 0, 0, n, n));
        assert_eq!(bits(&got), bits(&want), "syrk {n}x{k}");
    }

    /// The fixed-depth direct kernels sweep row tiles side by side; every
    /// output must still carry the row-at-a-time loop's bits, for every
    /// transposition, and through exact (signed) zeros.
    #[test]
    fn direct_kernels_match_row_at_a_time_loops_bit_for_bit() {
        let mut rng = XorShift64::seed_from_u64(0xd1_4ec7);
        for m in 1..=24 {
            for n in (1..=24).filter(|n| m * n <= 24 * 24) {
                for (ta, tb) in [(false, false), (true, false), (false, true), (true, true)] {
                    direct_k_case::<3>(&mut rng, m, n, ta, tb);
                    direct_k_case::<6>(&mut rng, m, n, ta, tb);
                }
            }
        }
        for n in 1..=24 {
            for k in [3, 6] {
                syrk_k_case(&mut rng, n, k);
            }
        }
    }

    /// The column-AXPY in-block substitution [`trsm_core_g`] replaced,
    /// with the same packed GEMM update between blocks.
    fn oracle_trsm(l: &View<'_>, b: &mut [f64], m: usize, n: usize) {
        let mut scratch = KernelScratch::new();
        let mut j0 = 0;
        while j0 < n {
            let nb = TRSM_NB.min(n - j0);
            if j0 > 0 {
                let (done, cur) = b.split_at_mut(j0 * m);
                let x = View::raw(done, m, 0, 0, m, j0, false);
                let lt = View::raw(l.data, l.ld, l.row + j0, l.col, j0, nb, true);
                let mut cview = MutView::raw(cur, m, 0, 0, m, nb);
                gemm_core_g::<MR, NR>(-1.0, &x, &lt, &mut cview, &mut scratch);
            }
            for j in j0..j0 + nb {
                for p in j0..j {
                    let ljp = l.at(j, p);
                    // lint: allow(float-eq) — structural-zero skip: exact zeros from sparsity
                    if ljp == 0.0 {
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

    fn trsm_case(rng: &mut XorShift64, m: usize, n: usize) {
        let l: Vec<f64> = (0..n * n)
            .map(|e| match (e % n, e / n) {
                (i, j) if i == j => 1.5 + rng.gen_f64(),
                (i, j) if i > j && rng.gen_index(3) > 0 => rng.gen_range(-0.5, 0.5),
                _ => 0.0,
            })
            .collect();
        let b0 = rand_vals(rng, m * n, 4);
        let lv = View::raw(&l, n, 0, 0, n, n, false);
        let (mut got, mut want) = (b0.clone(), b0);
        trsm_core_g::<MR, NR>(&lv, &mut got, m, 0, 0, m, n, &mut KernelScratch::new());
        oracle_trsm(&lv, &mut want, m, n);
        assert_eq!(bits(&got), bits(&want), "trsm {m}x{n}");
    }

    /// The register-tiled in-block substitution must leave the bits of the
    /// column sweep, including through exact zeros in `L` and `B`.
    #[test]
    fn trsm_matches_column_sweep_bit_for_bit() {
        let mut rng = XorShift64::seed_from_u64(0x7b5_0de);
        for _ in 0..40 {
            let (m, n) = (1 + rng.gen_index(70), 1 + rng.gen_index(70));
            trsm_case(&mut rng, m, n);
        }
    }
}
