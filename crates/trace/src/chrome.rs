//! Chrome trace-event (`chrome://tracing` / Perfetto) JSON export.
//!
//! Two exports with different contracts:
//!
//! - [`Trace::to_chrome_json`] — the **canonical** export. Timestamps are
//!   derived from each span's deterministic `ticks` (1 tick = 1 µs in the
//!   viewer), children are laid out sequentially inside their parent in
//!   canonical order, and worker tracks are normalized away. The output is
//!   byte-identical across runs and across host thread counts; golden
//!   tests and CI diff it directly.
//! - [`Trace::to_chrome_json_wall`] — the **profile** export. Real wall
//!   (and simulator virtual) intervals in microseconds, one viewer row per
//!   worker track. Not deterministic; meant for humans.

use crate::json::Json;
use crate::span::{Span, Timebase};
use crate::tracer::Trace;

/// The canonical-layout duration of a span: at least its own ticks, at
/// least the sum of its children, never zero (so every span is visible).
fn canonical_dur(span: &Span) -> u64 {
    let child_sum: u64 = span.children.iter().map(canonical_dur).sum();
    span.ticks.max(child_sum).max(1)
}

/// One complete (`"ph": "X"`) trace event. `args` carries the step key
/// (on a trace's root span only), the span's ticks when nonzero, and its
/// counters.
fn event(span: &Span, ts: Json, dur: Json, tid: u32, trace: Option<&Trace>) -> Json {
    let mut args = Vec::new();
    if let Some(t) = trace {
        args.push(("session".to_string(), t.key.session.into()));
        args.push(("seq".to_string(), t.key.seq.into()));
        args.push(("step".to_string(), t.key.step.into()));
    }
    if span.ticks > 0 {
        args.push(("ticks".to_string(), span.ticks.into()));
    }
    for (name, value) in span.counters.iter() {
        args.push((name.to_string(), value.into()));
    }
    Json::obj([
        ("name", span.name.as_str().into()),
        ("cat", span.cat.as_str().into()),
        ("ph", "X".into()),
        ("ts", ts),
        ("dur", dur),
        ("pid", 1u64.into()),
        ("tid", tid.into()),
        ("args", Json::Obj(args)),
    ])
}

fn emit_canonical(span: &Span, ts: u64, trace: Option<&Trace>, events: &mut Vec<Json>) {
    let dur = canonical_dur(span);
    events.push(event(span, ts.into(), dur.into(), 0, trace));
    let mut child_ts = ts;
    for c in &span.children {
        emit_canonical(c, child_ts, None, events);
        child_ts += canonical_dur(c);
    }
}

fn emit_wall(span: &Span, base: f64, trace: Option<&Trace>, events: &mut Vec<Json>) {
    // Markers have no interval of their own; they surface via their
    // parent's args in the profile view.
    if span.has_interval() {
        let (ts, tid) = match span.timebase {
            Timebase::Wall => ((span.start - base) * 1e6, span.track),
            // Virtual spans render on their own lane block so the two
            // timebases do not visually interleave.
            Timebase::Virtual => (span.start * 1e6, 100 + span.track),
        };
        let dur = Json::fixed(span.duration() * 1e6, 3);
        events.push(event(span, Json::fixed(ts, 3), dur, tid, trace));
    }
    for c in &span.children {
        emit_wall(c, base, None, events);
    }
}

/// The trace-event document around `events`.
fn document(events: Vec<Json>) -> String {
    Json::obj([
        ("displayTimeUnit", "ms".into()),
        ("traceEvents", Json::Arr(events)),
    ])
    .write()
}

impl Trace {
    /// The canonical Chrome trace-event JSON document for this step.
    ///
    /// Deterministic: byte-identical across runs at any host thread count
    /// for the same workload. Timestamps are tick-derived (1 tick = 1 µs),
    /// children are packed sequentially inside their parent.
    pub fn to_chrome_json(&self) -> String {
        let canon = self.canonical();
        let mut events = Vec::with_capacity(canon.span_count());
        emit_canonical(&canon.root, 0, Some(&canon), &mut events);
        document(events)
    }

    /// The wall-clock (profile) Chrome trace-event JSON document:
    /// real intervals in microseconds, one `tid` per worker track,
    /// virtual-time hardware spans on `tid >= 100`. Not deterministic.
    pub fn to_chrome_json_wall(&self) -> String {
        chrome_document_wall(std::slice::from_ref(self))
    }
}

/// One wall-clock Chrome document spanning many traces (e.g. everything a
/// serving run recorded), on a shared timeline anchored at the earliest
/// root start. This is what `serve_tcp --trace` and the step bench dump.
pub fn chrome_document_wall(traces: &[Trace]) -> String {
    let base = traces
        .iter()
        .map(|t| t.root.start)
        .fold(f64::INFINITY, f64::min);
    let base = if base.is_finite() { base } else { 0.0 };
    let mut events = Vec::new();
    for t in traces {
        emit_wall(&t.root, base, Some(t), &mut events);
    }
    document(events)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;
    use crate::span::{Category, CounterSet, StepKey};

    fn sample() -> Trace {
        let mut root = Span::wall("solver.step", Category::Solver, 10.0, 10.5);
        root.counters.set("poses", 42);
        let mut task_b = Span::wall("exec.task", Category::Exec, 10.1, 10.2);
        task_b.ticks = 30;
        task_b.counters.set("node", 5);
        task_b.track = 1;
        let mut task_a = Span::wall("exec.task", Category::Exec, 10.2, 10.3);
        task_a.ticks = 20;
        task_a.counters.set("node", 2);
        let mut exec = Span::wall("exec", Category::Exec, 10.05, 10.4);
        exec.ticks = 50;
        exec.children = vec![task_b, task_a];
        root.children.push(exec);
        root.children
            .push(Span::virtual_time("hw", Category::Hw, 0.0, 2.0e-3, 9000));
        Trace {
            key: StepKey {
                session: 3,
                seq: 7,
                step: 8,
            },
            numeric_mode: Default::default(),
            root,
        }
    }

    /// The parsed `traceEvents` of a document.
    fn parse_events(doc: &str) -> Vec<Json> {
        let doc = parse(doc).expect("valid JSON");
        assert_eq!(
            doc.get("displayTimeUnit").and_then(Json::as_str),
            Some("ms")
        );
        doc.get("traceEvents")
            .and_then(Json::as_arr)
            .expect("traceEvents array")
            .to_vec()
    }

    fn field<'a>(event: &'a Json, key: &str) -> &'a Json {
        event
            .get(key)
            .unwrap_or_else(|| panic!("{key} in {event:?}"))
    }

    fn arg(event: &Json, key: &str) -> Option<f64> {
        field(event, "args").get(key).and_then(Json::as_f64)
    }

    #[test]
    fn canonical_json_is_stable_and_orders_children() {
        let t = sample();
        let json = t.to_chrome_json();
        // Same content with children emitted in a different order and
        // different wall times / tracks must export identically.
        let mut shuffled = t.clone();
        shuffled.root.children.reverse();
        shuffled.root.children[1].children.reverse();
        shuffled.root.start = 99.0;
        shuffled.root.end = 99.9;
        shuffled.root.children[1].children[0].track = 3;
        assert_eq!(shuffled.to_chrome_json(), json);
        let events = parse_events(&json);
        assert_eq!(events.len(), 5);
        // tick-derived layout: exec dur = max(50, 30+20, 1) = 50 at ts 0,
        // root dur = max(0, 50 + 9000, 1).
        let exec = events
            .iter()
            .find(|e| field(e, "name").as_str() == Some("exec"))
            .expect("exec event");
        assert_eq!(field(exec, "cat").as_str(), Some("exec"));
        assert_eq!(field(exec, "ph").as_str(), Some("X"));
        assert_eq!(field(exec, "ts"), &Json::Num("0".into()));
        assert_eq!(field(exec, "dur"), &Json::Num("50".into()));
        let root = &events[0];
        assert_eq!(field(root, "name").as_str(), Some("solver.step"));
        assert_eq!(field(root, "dur"), &Json::Num("9050".into()));
        // The step key rides on the root event only; every track is 0.
        assert_eq!(
            ["session", "seq", "step"].map(|k| arg(root, k)),
            [Some(3.0), Some(7.0), Some(8.0)]
        );
        assert!(events[1..].iter().all(|e| arg(e, "session").is_none()));
        assert!(events.iter().all(|e| field(e, "tid").as_f64() == Some(0.0)));
        // node 2 sorts before node 5 in canonical order.
        let nodes: Vec<f64> = events.iter().filter_map(|e| arg(e, "node")).collect();
        assert_eq!(nodes, [2.0, 5.0]);
    }

    #[test]
    fn wall_json_uses_real_intervals() {
        let t = sample();
        let events = parse_events(&t.to_chrome_json_wall());
        // Root starts at ts 0 (anchored at its own start), 0.5 s long.
        let root = &events[0];
        assert_eq!(field(root, "ts"), &Json::Num("0.000".into()));
        assert_eq!(field(root, "dur"), &Json::Num("500000.000".into()));
        let tid_of = |name: &str, node: Option<f64>| {
            events
                .iter()
                .find(|e| field(e, "name").as_str() == Some(name) && arg(e, "node") == node)
                .and_then(|e| field(e, "tid").as_f64())
        };
        // Virtual hw span lands on the tid >= 100 block, at its own start.
        assert_eq!(tid_of("hw", None), Some(100.0));
        // Worker track of task_b survives.
        assert_eq!(tid_of("exec.task", Some(5.0)), Some(1.0));
        assert_eq!(tid_of("exec.task", Some(2.0)), Some(0.0));
        let doc = parse_events(&chrome_document_wall(&[t.clone(), t]));
        assert_eq!(doc.len(), 2 * events.len());
    }

    #[test]
    fn escapes_hostile_names() {
        let mut c = CounterSet::new();
        c.set("a\"b", 1);
        let mut root = Span::marker("we\\ird\n", Category::Serve, 1);
        root.counters = c;
        let t = Trace {
            key: StepKey::default(),
            numeric_mode: Default::default(),
            root,
        };
        let events = parse_events(&t.to_chrome_json());
        assert_eq!(field(&events[0], "name").as_str(), Some("we\\ird\n"));
        assert_eq!(arg(&events[0], "a\"b"), Some(1.0));
    }
}
