//! The benchmark harness regenerating every table and figure of the paper's
//! evaluation (see DESIGN.md §4 for the experiment index).
//!
//! The `repro` binary drives [`Suite`]; each experiment prints the paper's
//! rows/series to stdout and writes CSVs under the output directory.
//! Dataset sizes default to a fraction of the paper scale so the whole
//! suite completes in minutes; `--scale 1.0` runs the full sizes
//! (EXPERIMENTS.md records which scale produced the committed numbers).

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod experiments;
mod suite;

pub use experiments::{run_experiment, EXPERIMENTS};
pub use suite::{DatasetId, Suite, SuiteConfig};
