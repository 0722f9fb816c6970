//! The benchmark's own spans, recorded around the calls into each layer.
//!
//! Kept in memory; the last traced replay is written at exit as a Chrome
//! trace-event file. A layer's self time is its span's duration minus the
//! part its child spans cover.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::json::Json;

pub const NO_PARENT: u32 = u32::MAX;

#[derive(Clone, Debug)]
pub struct Span {
    pub id: u32,
    pub parent: u32,
    pub name: &'static str,
    pub layer: &'static str,
    /// Operation index within the workload (step, rep, wave…).
    pub op: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// Records the spans of one replay. Switched off (an untraced run) every
/// method returns at once, so the workloads call it unconditionally.
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one and returns its id.
    pub fn begin(&mut self, name: &'static str, layer: &'static str, op: usize) -> u32 {
        if !self.on {
            return NO_PARENT;
        }
        let id = self.spans.len() as u32;
        let now = self.now_ns();
        self.spans.push(Span {
            id,
            parent: self.open.last().copied().unwrap_or(NO_PARENT),
            name,
            layer,
            op: op as u32,
            start_ns: now,
            end_ns: now,
        });
        self.open.push(id);
        id
    }

    /// Closes the innermost open span.
    pub fn end(&mut self) {
        if let Some(id) = self.open.pop() {
            self.spans[id as usize].end_ns = self.now_ns();
        }
    }

    /// Times `f` as one span.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        layer: &'static str,
        op: usize,
        f: impl FnOnce() -> T,
    ) -> T {
        self.begin(name, layer, op);
        let out = f();
        self.end();
        out
    }

    /// Adds under `parent` a span the product measured itself (a host
    /// schedule's makespan), starting `offset_s` after the parent started.
    pub fn child_of(
        &mut self,
        parent: u32,
        name: &'static str,
        layer: &'static str,
        offset_s: f64,
        seconds: f64,
    ) {
        let Some((op, base)) = self.spans.get(parent as usize).map(|p| (p.op, p.start_ns)) else {
            return;
        };
        let start_ns = base + (offset_s.max(0.0) * 1e9) as u64;
        self.spans.push(Span {
            id: self.spans.len() as u32,
            parent,
            name,
            layer,
            op,
            start_ns,
            end_ns: start_ns + (seconds.max(0.0) * 1e9) as u64,
        });
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Per span name, the duration of each operation's span (seconds, indexed
/// by `op`; several spans of one name in one op add up).
pub type PhaseTable = BTreeMap<&'static str, Vec<f64>>;

pub fn phase_table(spans: &[Span]) -> PhaseTable {
    let mut table = PhaseTable::new();
    for s in spans {
        let ops = table.entry(s.name).or_default();
        if ops.len() <= s.op as usize {
            ops.resize(s.op as usize + 1, 0.0);
        }
        ops[s.op as usize] += s.seconds();
    }
    table
}

/// Per span name, total self time in seconds: duration minus children.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut own: Vec<f64> = spans.iter().map(Span::seconds).collect();
    for s in spans {
        if let Some(parent) = own.get_mut(s.parent as usize) {
            *parent -= s.seconds();
        }
    }
    let mut out = BTreeMap::new();
    for (s, t) in spans.iter().zip(own) {
        *out.entry(s.name).or_insert(0.0) += t.max(0.0);
    }
    out
}

/// The spans as a Chrome trace-event document (one row per layer).
pub fn chrome_trace(workload: &str, spans: &[Span]) -> Json {
    let events = spans
        .iter()
        .map(|s| {
            Json::obj([
                ("name", Json::Str(s.name.into())),
                ("cat", Json::Str(s.layer.into())),
                ("ph", Json::Str("X".into())),
                ("pid", Json::Num(1.0)),
                ("tid", Json::Str(s.layer.into())),
                ("ts", Json::Num(s.start_ns as f64 / 1e3)),
                ("dur", Json::Num((s.end_ns - s.start_ns) as f64 / 1e3)),
                (
                    "args",
                    Json::obj([
                        ("id", Json::Num(f64::from(s.id))),
                        (
                            "parent",
                            if s.parent == NO_PARENT {
                                Json::Null
                            } else {
                                Json::Num(f64::from(s.parent))
                            },
                        ),
                        ("workload", Json::Str(workload.into())),
                        ("op", Json::Num(f64::from(s.op))),
                    ]),
                ),
            ])
        })
        .collect();
    Json::obj([
        ("displayTimeUnit", Json::Str("ms".into())),
        ("traceEvents", Json::Arr(events)),
    ])
}
