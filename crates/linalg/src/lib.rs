//! Dense linear-algebra kernels for the SuperNoVA SLAM backend.
//!
//! This crate is the numeric substrate of the reproduction: a small,
//! dependency-free set of column-major dense kernels that the sparse
//! multifrontal factorization (`supernova-sparse`), the factor-graph
//! linearization and the hardware timing model are all built on.
//!
//! The kernel set mirrors what the paper's COMP accelerator executes
//! (Figure 3): GEMM, symmetric rank-k updates, triangular solves and dense
//! Cholesky factorization, plus the partial (frontal) factorization used by
//! supernodal multifrontal methods (§3.2 of the paper).
//!
//! # Example
//!
//! ```
//! use supernova_linalg::{Mat, cholesky_in_place, solve_lower, solve_lower_transpose};
//!
//! // Solve H x = b for a small SPD system via H = L Lᵀ.
//! let h = Mat::from_rows(3, 3, &[4.0, 2.0, 2.0, 2.0, 5.0, 1.0, 2.0, 1.0, 6.0]);
//! let mut l = h.clone();
//! cholesky_in_place(&mut l).unwrap();
//! let mut x = vec![2.0, -1.0, 3.0];
//! solve_lower(&l, &mut x);
//! solve_lower_transpose(&l, &mut x);
//! let r = h.matvec(&x);
//! assert!((r[0] - 2.0).abs() < 1e-12);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod blas;
mod cholesky;
pub mod kernels;
mod matrix;
pub mod mode;
pub mod ops;
pub mod reference;
pub mod rng;
pub mod split;
mod triangular;

pub use blas::{
    axpy, dot, gemm, gemm_scratch, gemv, norm2, norm_inf, syrk_lower, syrk_lower_scratch,
    trsm_right_lower_transpose, trsm_right_lower_transpose_scratch, Transpose,
};
pub use cholesky::{
    cholesky_in_place, cholesky_in_place_scratch, partial_cholesky_in_place,
    partial_cholesky_scratch, partial_cholesky_scratch_mode, NotPositiveDefiniteError,
};
pub use kernels::{
    gemm_f32, gemm_path, pack_elems_bound, pack_elems_bound_mode, syrk_lower_f32,
    trsm_right_lower_transpose_f32, Accum, GemmPath, KernelScratch, Scalar,
};
pub use matrix::Mat;
pub use mode::{NumericMode, NUMERIC_ENV};
pub use triangular::{
    solve_lower, solve_lower_leading, solve_lower_transpose, solve_lower_transpose_leading,
};

/// Convenience result alias for fallible factorizations in this crate.
pub type Result<T> = std::result::Result<T, NotPositiveDefiniteError>;
