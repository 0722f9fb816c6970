//! Unified hierarchical tracing for the SuperNoVA workspace.
//!
//! The serving, solver, host-executor and hardware-simulator layers each
//! keep their own execution record (`serve::DispatchSpan`,
//! `sparse::HostSchedule`, `runtime::StepTrace`, `runtime::ExecTrace`).
//! This crate unifies them into **one span tree per step**, keyed by
//! `(session, seq, step)`, so a single artifact answers "where did this
//! update's time go" from the moment a request was dispatched down to the
//! busy interval of one systolic-array tile.
//!
//! Three properties drive the design:
//!
//! 1. **Zero cost when disabled.** Emission sites check one
//!    [`TraceConfig::enabled`] bool; nothing is allocated or sampled when
//!    tracing is off.
//! 2. **Deterministic export.** Every span carries a wall/virtual-time
//!    interval *and* a deterministic `ticks` weight (flops, simulated
//!    cycles, element counts). [`Trace::canonical`] drops the
//!    nondeterministic parts (wall timestamps, worker assignment) and
//!    sorts children into a canonical order, so
//!    [`Trace::to_chrome_json`] — the one deterministic, lossless encoding
//!    of a canonical trace — is byte-identical across runs and across
//!    host thread counts.
//! 3. **Checkable.** `supernova-analyze::validate_trace` replays the
//!    invariants (parent/child containment, per-track exclusivity, child
//!    ticks ≤ parent ticks) against real traces in CI.
//!
//! Thread safety follows the `metrics::stats` pattern: spans are built
//! per-thread without locks and finished traces merge into the shared
//! [`Tracer`] under one short-lived mutex.
//!
//! Modules: [`span`] (the span tree and its counters), [`tracer`] (the
//! per-step builder and the shared sink), [`clock`] (the process-global
//! epoch), [`chrome`] (Chrome trace-event export), [`wire`] (the
//! panic-free little-endian reader and `put_*` helpers every binary
//! format in the workspace is built on) and [`json`] (the one JSON reader
//! and writer every artifact and Chrome export goes through). The crate
//! depends on `std` only.
//!
//! See DESIGN.md §10 for the span taxonomy and the emission-point map.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod chrome;
pub mod clock;
pub mod json;
pub mod span;
pub mod tracer;
pub mod wire;

pub use chrome::chrome_document_wall;
pub use clock::epoch_seconds;
pub use span::{Category, CounterSet, Span, SpanGuard, StepKey, Timebase};
pub use tracer::{StepBuilder, Trace, TraceConfig, Tracer};
