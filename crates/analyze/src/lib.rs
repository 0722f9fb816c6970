//! Static analysis and dynamic invariant checking for the SuperNoVA
//! workspace.
//!
//! Two halves, one goal — keeping the reproduction *deterministic and
//! auditable*:
//!
//! - [`lint`]: a dependency-free source lint pass (token-stream lexer,
//!   engine v2) over every crate's `src/` tree. It enforces the
//!   workspace's determinism and robustness conventions (no hash-container
//!   iteration in order-sensitive paths, no `unwrap`/`expect` in library
//!   code, no panics or slice indexing on request-handling/decode paths,
//!   no ambient wall-clock reads, ranked lock ordering, no float `==` in
//!   kernels, strict crate attributes), with a `// lint: allow(<rule>)`
//!   escape hatch that doubles as documentation of every deliberate
//!   exception. Run it with `cargo run -p supernova-analyze --bin analyze`
//!   (`-- --json <path>` writes the machine-readable report); the `lint`
//!   bin runs the dynamic invariant sweeps below, not this pass.
//! - [`interference`]: the static interference checker over the
//!   [`ExecutionPlan`](supernova_sparse::ExecutionPlan) IR — proves every
//!   same-level task pair access-disjoint and issues the
//!   [`PlanCertificate`](supernova_sparse::interference::PlanCertificate)
//!   that unlocks the executor's batched level dispatch — plus the
//!   seeded-dataset certification sweep.
//! - [`validate`]: a schedule and ledger invariant checker over the
//!   runtime's executed-schedule traces
//!   ([`ExecTrace`](supernova_runtime::ExecTrace)): happens-before
//!   legality over the elimination tree, per-unit exclusivity, LLC
//!   capacity replay, busy-time bounds and energy-ledger conservation.
//! - [`Report`]: the ordered pass/fail ledger every CI gate binary
//!   prints its verdicts through.
//!
//! See DESIGN.md ("Analysis & invariants") for the rule and invariant
//! inventory and the reasoning behind each.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod check;
pub mod interference;
pub mod lint;
pub mod report;
pub mod validate;
pub mod validate_fleet;
pub mod validate_trace;

pub use check::Report;
pub use interference::{certify_datasets, DatasetCertification};
pub use lint::{
    lint_file, lint_file_diag, lint_workspace_diag, AllowedViolation, Diagnostics, Rule, Violation,
};
pub use report::render_json;
pub use validate::{
    validate_dispatch, validate_energy, validate_exec, validate_host_schedule, validate_step,
    DispatchRecord, Invariant, ScheduleViolation,
};
pub use validate_fleet::{
    validate_checkpoint_bounds, validate_fleet_coverage, validate_fleet_coverage_with_floors,
    FleetJournalEntry, FleetSessionFloor,
};
pub use validate_trace::{validate_trace, validate_trace_dispatch};
