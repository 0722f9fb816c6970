//! The trace collector: configuration, per-step builders and the shared
//! sink finished traces merge into.

use std::sync::Mutex;

use crate::span::{Category, Span, SpanGuard, StepKey};

/// Whether (and how) emission sites build spans.
///
/// Cheap to copy and to check: every emission point is guarded by one
/// `enabled` test, so a disabled configuration costs a predicted branch
/// and nothing else.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TraceConfig {
    /// Master switch; `false` (the default) disables all span building.
    pub enabled: bool,
}

impl TraceConfig {
    /// A configuration with tracing on.
    pub fn on() -> Self {
        TraceConfig { enabled: true }
    }

    /// A configuration with tracing off (same as `Default`).
    pub fn off() -> Self {
        TraceConfig { enabled: false }
    }
}

/// One step's finished span tree plus its identity.
#[derive(Clone, Debug, PartialEq)]
pub struct Trace {
    /// Which session/update/step produced this tree.
    pub key: StepKey,
    /// The root span (`serve.dispatch` under the serving layer,
    /// `solver.step` for solo runs).
    pub root: Span,
}

impl Trace {
    /// The deterministic form: wall timestamps and worker tracks zeroed,
    /// siblings canonically ordered. Equal across runs and across host
    /// thread counts for the same workload.
    pub fn canonical(&self) -> Trace {
        Trace {
            key: self.key,
            root: self.root.canonicalized(),
        }
    }

    /// Total spans in the tree.
    pub fn span_count(&self) -> usize {
        self.root.count()
    }
}

/// Builder for one step's span tree, handed out by [`Tracer::step`].
///
/// Wraps the root [`SpanGuard`]; emission sites attach finished child
/// spans and counters, then return it to [`Tracer::finish`].
#[derive(Debug)]
pub struct StepBuilder {
    key: StepKey,
    root: SpanGuard,
}

impl StepBuilder {
    /// The step identity this builder records under.
    pub fn key(&self) -> StepKey {
        self.key
    }

    /// The root span guard (set track/ticks/counters, attach children).
    pub fn root_mut(&mut self) -> &mut SpanGuard {
        &mut self.root
    }

    /// Closes the root span and produces the finished trace.
    pub fn into_trace(self) -> Trace {
        Trace {
            key: self.key,
            root: self.root.finish(),
        }
    }
}

/// The shared trace sink.
///
/// Builders are created and filled per-thread without synchronization;
/// only [`finish`](Tracer::finish)/[`record`](Tracer::record) touch the
/// mutex, once per step — the same record-locally-merge-centrally shape as
/// `metrics::stats`.
#[derive(Debug, Default)]
pub struct Tracer {
    cfg: TraceConfig,
    done: Mutex<Vec<Trace>>,
}

impl Tracer {
    /// A tracer with the given configuration.
    pub fn new(cfg: TraceConfig) -> Self {
        Tracer {
            cfg,
            done: Mutex::new(Vec::new()),
        }
    }

    /// Whether emission sites should build spans.
    pub fn enabled(&self) -> bool {
        self.cfg.enabled
    }

    /// Opens a step builder rooted at a wall span named `root_name`, or
    /// `None` when tracing is disabled (the zero-cost path).
    pub fn step(&self, key: StepKey, root_name: &str, cat: Category) -> Option<StepBuilder> {
        if !self.cfg.enabled {
            return None;
        }
        Some(StepBuilder {
            key,
            root: SpanGuard::begin(root_name, cat),
        })
    }

    /// Closes a builder and records its trace.
    pub fn finish(&self, builder: StepBuilder) {
        self.record(builder.into_trace());
    }

    /// Records an externally built trace.
    pub fn record(&self, trace: Trace) {
        if let Ok(mut done) = self.done.lock() {
            done.push(trace);
        }
    }

    /// Number of recorded traces.
    pub fn len(&self) -> usize {
        self.done.lock().map(|d| d.len()).unwrap_or(0)
    }

    /// Whether no traces have been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drains all recorded traces, sorted by step key (so the drain order
    /// does not depend on worker interleaving).
    pub fn take(&self) -> Vec<Trace> {
        let mut out = match self.done.lock() {
            Ok(mut d) => std::mem::take(&mut *d),
            Err(_) => Vec::new(),
        };
        out.sort_by_key(|t| t.key);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_hands_out_nothing() {
        let t = Tracer::new(TraceConfig::off());
        assert!(t
            .step(StepKey::default(), "solver.step", Category::Solver)
            .is_none());
        assert!(t.is_empty());
    }

    #[test]
    fn enabled_tracer_collects_sorted_by_key() {
        let t = Tracer::new(TraceConfig::on());
        for (session, seq) in [(2u64, 0u64), (1, 1), (1, 0)] {
            let key = StepKey {
                session,
                seq,
                step: seq + 1,
            };
            let b = t.step(key, "serve.dispatch", Category::Serve).expect("on");
            t.finish(b);
        }
        assert_eq!(t.len(), 3);
        let traces = t.take();
        let keys: Vec<(u64, u64)> = traces.iter().map(|t| (t.key.session, t.key.seq)).collect();
        assert_eq!(keys, [(1, 0), (1, 1), (2, 0)]);
        assert!(t.is_empty());
        assert!(traces.iter().all(|t| t.root.has_interval()));
    }
}
