//! The multi-session SLAM serving layer.
//!
//! The rest of the workspace reproduces SuperNoVA's single-robot stack: one
//! RA-ISAM2 instance, one elimination tree, one budget. This crate turns
//! that stack into a *server*: many concurrent SLAM sessions, each owning a
//! [`SolverEngine`](supernova_solvers::SolverEngine) from open to close,
//! with the three properties a production backend needs and the paper's
//! resource-awareness makes possible:
//!
//! - **Admission control** ([`AdmissionController`]) — every session owns a
//!   *bounded* request queue; when it fills, updates are shed with a typed
//!   error instead of growing memory without bound, and session creation
//!   beyond `max_sessions` is rejected outright.
//! - **Deadline scheduling** ([`Server`]) — a fixed worker pool picks the
//!   next session by earliest request deadline (ties to the lowest session
//!   id), holding *per-session exclusivity*: a session's updates are always
//!   applied in submission order by at most one worker at a time, so each
//!   session's estimates are bit-identical no matter how sessions
//!   interleave across workers.
//! - **Graceful degradation** — under overload the server does what
//!   RA-ISAM2 was built for: instead of dropping updates it tightens every
//!   session's [`StepBudget`](supernova_runtime::StepBudget) (fewer
//!   relinearized/reordered nodes per step), quantized into levels derived
//!   deterministically from the total queued depth, and relaxes again as
//!   queues drain.
//!
//! [`ServerStats`] snapshots per-session latency percentiles (from
//! [`Histogram`](supernova_metrics::Histogram)), queue depths, shed counts
//! and the degradation histogram. The `serve_tcp` binary exposes the layer
//! over a length-prefixed TCP protocol ([`protocol`]); `serve_smoke` is the
//! CI gate (solo-vs-served bit-identity, zero sheds at low rate, overload
//! on one and on eight sessions, dispatcher span invariants). Every
//! served-vs-solo check in this crate and in `supernova-fleet` compares
//! against one oracle, [`service::solo_replay`] /
//! [`service::solo_estimate`], which builds its engine apart from the
//! server's construction code. Serve wall time is measured by `benchmark/`'s
//! `serve_waves` workload; `supernova-fleet` layers shard routing and
//! crash failover on top of this crate.
//!
//! # Example
//!
//! ```
//! use supernova_serve::{Server, ServeConfig, UpdateRequest};
//! use supernova_datasets::Dataset;
//!
//! let server = Server::start(ServeConfig { workers: 1, ..ServeConfig::default() });
//! let sid = server.create_session().unwrap();
//! for (i, step) in Dataset::manhattan_seeded(8, 42).online_steps().iter().enumerate() {
//!     server
//!         .submit(sid, UpdateRequest::new(i as u64, step.truth.clone(), step.factors.clone()))
//!         .unwrap();
//! }
//! let estimate = server.estimate(sid).unwrap();
//! assert_eq!(estimate.len(), 8);
//! server.close(sid).unwrap();
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod admission;
pub mod checkpoint;
mod dispatch;
pub mod protocol;
pub mod service;
mod session;
mod stats;

pub use admission::{AdmissionController, AdmissionError};
pub use checkpoint::{decode_snapshot, encode_snapshot, CheckpointError};
pub use dispatch::{DispatchSpan, ServeConfig, Server, SessionRestoreError};
pub use session::{SessionCloseReport, SessionId, SessionRegistry, UpdateRequest};
pub use stats::{ServerStats, SessionStats};
