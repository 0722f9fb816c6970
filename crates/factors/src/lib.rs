//! Factor graphs and Lie-group manifolds for SLAM state estimation.
//!
//! The SLAM backend is the nonlinear least-squares problem of Equation (1)
//! of the paper: `argmin_X Σ_i ‖φ_i(X)‖²`, where each factor `φ_i`
//! constrains a small set of variables (poses). This crate provides:
//!
//! - [`Rot2`]/[`Se2`] and [`Rot3`]/[`Se3`] Lie groups with `exp`/`log` and
//!   the retraction `X ⊕ δ = X · Exp(δ)`;
//! - [`Variable`] / [`Values`] — heterogeneous state containers keyed by
//!   [`Key`];
//! - Gaussian [`NoiseModel`]s that whiten residuals and Jacobians;
//! - the closed [`Factor`] enum over its four kinds — [`PriorFactor`],
//!   [`BetweenFactor`], [`RangeBearingFactor`] and
//!   [`PointObservationFactor`] — with Jacobians by central differences,
//!   validated against first-order Taylor expansion in the property tests;
//! - [`FactorGraph`] with variable↔factor adjacency, the structure the
//!   relinearization logic of ISAM2/RA-ISAM2 walks.
//!
//! # Example
//!
//! ```
//! use supernova_factors::{BetweenFactor, FactorGraph, Key, NoiseModel, PriorFactor, Se2, Values};
//!
//! let mut values = Values::new();
//! let x0 = values.insert_se2(Se2::identity());
//! let x1 = values.insert_se2(Se2::new(0.9, 0.1, 0.05));
//!
//! let mut graph = FactorGraph::new();
//! graph.add(PriorFactor::se2(x0, Se2::identity(), NoiseModel::isotropic(3, 0.01)));
//! graph.add(BetweenFactor::se2(x0, x1, Se2::new(1.0, 0.0, 0.0), NoiseModel::isotropic(3, 0.1)));
//! assert_eq!(graph.len(), 2);
//! assert_eq!(graph.factors_of(x1).len(), 1);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod factor;
mod graph;
mod key;
mod landmark;
mod noise;
mod se2;
mod se3;
mod values;

pub use factor::{linearize, linearize_into, BetweenFactor, Factor, LinearizedFactor, PriorFactor};
pub use graph::FactorGraph;
pub use key::Key;
pub use landmark::{PointObservationFactor, RangeBearingFactor};
pub use noise::NoiseModel;
pub use se2::{Rot2, Se2};
pub use se3::{Rot3, Se3};
pub use values::{Values, Variable};
