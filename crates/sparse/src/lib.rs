//! Supernodal multifrontal sparse Cholesky for the SuperNoVA SLAM backend.
//!
//! The SLAM backend's Hessian `H = JᵀJ` is an unstructured block-sparse
//! matrix whose Cholesky factor `L` is organized as an *elimination tree* of
//! *supernodes* (§3.2 of the paper). This crate implements the whole sparse
//! layer at the block level:
//!
//! - [`BlockPattern`] — the symmetric block-sparsity structure of `H`;
//! - [`SymbolicFactor`] — fill pattern, elimination tree and supernode
//!   partition ([`SymbolicFactor::analyze`]);
//! - [`BlockMat`] — numeric block storage for the lower triangle of `H`;
//! - [`NumericFactor`] — multifrontal numeric factorization in per-node
//!   persistent fronts, extend-add merge, cached update matrices for
//!   incremental re-factorization, and per-node
//!   [`OpTrace`](supernova_linalg::ops::OpTrace)s for the hardware model;
//! - supernodal forward/backward solves ([`NumericFactor::solve_in_place`]);
//! - fill-reducing [`ordering`]s;
//! - the plan/exec split: [`ExecutionPlan`] (topologically-leveled task IR
//!   with precomputed scatter targets, derived once per symbolic structure)
//!   executed serially or on the [`ParallelExecutor`] worker pool with
//!   bit-identical results, recorded as a [`HostSchedule`].
//!
//! # Example
//!
//! ```
//! use supernova_sparse::{BlockMat, BlockPattern, NumericFactor, SymbolicFactor};
//! use supernova_linalg::Mat;
//!
//! // A 3-variable chain: H is block tridiagonal with 2x2 blocks.
//! let mut pattern = BlockPattern::new(vec![2, 2, 2]);
//! pattern.add_block_edge(0, 1);
//! pattern.add_block_edge(1, 2);
//! let sym = SymbolicFactor::analyze(&pattern, 0);
//!
//! let mut h = BlockMat::new(sym.block_dims().to_vec());
//! for i in 0..3 {
//!     h.add_to_block(i, i, &Mat::from_diag(&[4.0, 4.0]));
//! }
//! h.add_to_block(1, 0, &Mat::from_diag(&[1.0, 1.0]));
//! h.add_to_block(2, 1, &Mat::from_diag(&[1.0, 1.0]));
//!
//! let num = NumericFactor::factorize(&sym, &h)?;
//! let mut x = vec![1.0; 6];
//! num.solve_in_place(&sym, &mut x);
//! # Ok::<(), supernova_sparse::FactorizeError>(())
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod blockmat;
mod executor;
pub mod interference;
mod numeric;
pub mod ordering;
mod pattern;
mod plan;
mod symbolic;

pub use blockmat::BlockMat;
pub use executor::{DispatchMode, HostSchedule, ParallelExecutor, PoolStats, TaskSpan};
pub use interference::PlanCertificate;
pub use numeric::{FactorizeError, NodeTrace, NumericFactor, RefactorStats};
pub use ordering::Permutation;
pub use pattern::BlockPattern;
pub use plan::{ChildMerge, ExecutionPlan, PlanTask, ScatterBlock};
pub use symbolic::{SupernodeInfo, SymbolicFactor};
