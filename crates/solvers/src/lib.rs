//! SLAM backend solvers: batch Gauss–Newton, ISAM2, and the paper's
//! resource-aware RA-ISAM2, plus the Local and Local+Global baselines.
//!
//! The solver taxonomy mirrors Table 2 of the paper:
//!
//! | Solver | Global consistency | Bounded latency | Loop closure | Resource-aware |
//! |---|---|---|---|---|
//! | [`FixedLagSmoother`] (Local) | ✗ | ✓ | ✗ | ✗ |
//! | [`LocalGlobal`] | ✓ (delayed) | ✓ (local) | ✓ | ✗ |
//! | [`Isam2`] (Incremental) | ✓ | ✗ | ✓ | ✗ |
//! | [`RaIsam2`] (ours) | ✓ | ✓ | ✓ | ✓ |
//!
//! All online solvers implement [`OnlineSolver`]: one new pose per step with
//! its associated factors (§5.2), returning a
//! [`StepTrace`](supernova_runtime::StepTrace) that the runtime prices on a
//! hardware platform.
//!
//! # Example
//!
//! ```
//! use supernova_factors::{BetweenFactor, NoiseModel, PriorFactor, Se2, Variable};
//! use supernova_solvers::{Isam2, Isam2Config, OnlineSolver};
//!
//! let mut solver = Isam2::new(Isam2Config::default());
//! let prior = PriorFactor::se2(0.into(), Se2::identity(), NoiseModel::isotropic(3, 0.1));
//! solver.step(Variable::Se2(Se2::identity()), vec![prior.into()]);
//! let odom = BetweenFactor::se2(
//!     0.into(), 1.into(), Se2::new(1.0, 0.0, 0.0), NoiseModel::isotropic(3, 0.05));
//! solver.step(Variable::Se2(Se2::new(1.0, 0.0, 0.0)), vec![odom.into()]);
//! assert_eq!(solver.estimate().len(), 2);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod batch;
mod engine;
mod fixed_lag;
mod isam2;
mod local_global;
mod ra_isam2;
mod solver_engine;
mod traits;

pub use batch::{BatchConfig, BatchSolver, BatchStats};
pub use engine::{IncrementalCore, ReorderPlan};
pub use fixed_lag::{FixedLagConfig, FixedLagSmoother};
pub use isam2::{Isam2, Isam2Config};
pub use local_global::{LocalGlobal, LocalGlobalConfig};
pub use ra_isam2::{RaIsam2, RaIsam2Config};
pub use solver_engine::{EngineSnapshot, RestoreError, SolverEngine, UpdateRecord};
pub use traits::OnlineSolver;
