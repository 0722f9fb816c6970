//! Span tree primitives: categories, counters, spans and RAII guards.

use crate::clock::epoch_seconds;

/// Which layer of the stack emitted a span.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Category {
    /// Serving layer (dispatcher, admission).
    Serve,
    /// Solver layer (RA-ISAM2 selection, relinearization, symbolic).
    Solver,
    /// Host plan executor (thread-pool task spans).
    Exec,
    /// Modeled hardware (virtual-time simulator units and nodes).
    Hw,
}

impl Category {
    /// Stable lowercase label used by both exporters.
    pub fn as_str(&self) -> &'static str {
        match self {
            Category::Serve => "serve",
            Category::Solver => "solver",
            Category::Exec => "exec",
            Category::Hw => "hw",
        }
    }
}

/// Which clock a span's `[start, end]` interval was sampled from.
///
/// Wall spans share the process-global epoch of
/// [`crate::clock::epoch_seconds`]; virtual spans live in
/// the hardware simulator's virtual seconds (zero at the start of the
/// step's numeric phase). Containment is only meaningful between spans of
/// the same timebase.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Timebase {
    /// Host wall-clock seconds since the global trace epoch.
    Wall,
    /// Simulator virtual seconds since the start of the step.
    Virtual,
}

/// The identity of one traced step: which session's update produced it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct StepKey {
    /// Serving-layer session id (0 for solo/bench runs).
    pub session: u64,
    /// Submission sequence number within the session.
    pub seq: u64,
    /// Engine step counter after the step (1-based).
    pub step: u64,
}

/// An ordered, mergeable set of named integer counters.
///
/// Kept sorted by name so iteration, export and comparison are
/// deterministic regardless of insertion order (the `metrics::stats`
/// merge discipline applied to counters).
#[derive(Clone, Debug, Default, PartialEq, Eq, PartialOrd, Ord)]
pub struct CounterSet {
    entries: Vec<(String, u64)>,
}

impl CounterSet {
    /// An empty counter set.
    pub fn new() -> Self {
        CounterSet {
            entries: Vec::new(),
        }
    }

    /// Sets `name` to `value`, replacing any previous value.
    pub fn set(&mut self, name: &str, value: u64) {
        match self.entries.binary_search_by(|(n, _)| n.as_str().cmp(name)) {
            Ok(i) => self.entries[i].1 = value,
            Err(i) => self.entries.insert(i, (name.to_string(), value)),
        }
    }

    /// Adds `delta` to `name` (starting from zero if absent).
    pub fn add(&mut self, name: &str, delta: u64) {
        match self.entries.binary_search_by(|(n, _)| n.as_str().cmp(name)) {
            Ok(i) => self.entries[i].1 = self.entries[i].1.saturating_add(delta),
            Err(i) => self.entries.insert(i, (name.to_string(), delta)),
        }
    }

    /// The value of `name`, if set.
    pub fn get(&self, name: &str) -> Option<u64> {
        self.entries
            .binary_search_by(|(n, _)| n.as_str().cmp(name))
            .ok()
            .map(|i| self.entries[i].1)
    }

    /// Merges another set into this one, summing shared names.
    pub fn merge(&mut self, other: &CounterSet) {
        for (n, v) in &other.entries {
            self.add(n, *v);
        }
    }

    /// Iterates `(name, value)` pairs in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, u64)> {
        self.entries.iter().map(|(n, v)| (n.as_str(), *v))
    }

    /// Number of counters.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no counters are set.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// One node of a step's span tree.
///
/// A span either has a measured interval (`start < end` on its timebase)
/// or is a zero-width *marker* carrying only `ticks` and counters (work
/// that happened inside the parent but was not separately clocked, e.g.
/// relinearization inside `solver.step`). [`Span::has_interval`]
/// distinguishes the two; validators skip interval checks on markers.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Span name, e.g. `"serve.dispatch"`, `"exec.task"`, `"hw.unit COMP0"`.
    pub name: String,
    /// Emitting layer.
    pub cat: Category,
    /// Clock the interval was sampled from.
    pub timebase: Timebase,
    /// Execution lane within the parent: host worker index for
    /// `exec.task`, serve worker for `serve.dispatch`, unit ordinal for
    /// `hw.unit`. Normalized to 0 by [`Trace::canonical`](crate::Trace::canonical).
    pub track: u32,
    /// Interval start in timebase seconds (0.0 together with `end` marks
    /// a zero-width marker span).
    pub start: f64,
    /// Interval end in timebase seconds.
    pub end: f64,
    /// Deterministic work weight: flops for exec tasks, simulated cycles
    /// for hw spans, element counts for solver markers. This — not the
    /// wall interval — drives the canonical export layout.
    pub ticks: u64,
    /// Named counters (node ids, byte counts, levels...).
    pub counters: CounterSet,
    /// Child spans, in emission order (canonicalization sorts them).
    pub children: Vec<Span>,
}

impl Span {
    /// A zero-width marker span carrying only `ticks` (and counters added
    /// afterwards).
    pub fn marker(name: &str, cat: Category, ticks: u64) -> Self {
        Span {
            name: name.to_string(),
            cat,
            timebase: Timebase::Wall,
            track: 0,
            start: 0.0,
            end: 0.0,
            ticks,
            counters: CounterSet::new(),
            children: Vec::new(),
        }
    }

    /// A wall-clock span over `[start, end]` epoch seconds.
    pub fn wall(name: &str, cat: Category, start: f64, end: f64) -> Self {
        let mut s = Span::marker(name, cat, 0);
        s.start = start;
        s.end = end;
        s
    }

    /// A virtual-time span over `[start, end]` simulator seconds.
    pub fn virtual_time(name: &str, cat: Category, start: f64, end: f64, ticks: u64) -> Self {
        let mut s = Span::marker(name, cat, ticks);
        s.timebase = Timebase::Virtual;
        s.start = start;
        s.end = end;
        s
    }

    /// Whether the span has a measured interval (false for markers).
    pub fn has_interval(&self) -> bool {
        !(self.start.to_bits() == 0 && self.end.to_bits() == 0)
    }

    /// Interval duration in timebase seconds (0.0 for markers).
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }

    /// Total spans in this subtree, including self.
    pub fn count(&self) -> usize {
        1 + self.children.iter().map(Span::count).sum::<usize>()
    }

    /// Depth-first pre-order visit of the subtree.
    pub fn visit<'a>(&'a self, f: &mut impl FnMut(&'a Span, usize)) {
        self.visit_depth(f, 0);
    }

    fn visit_depth<'a>(&'a self, f: &mut impl FnMut(&'a Span, usize), depth: usize) {
        f(self, depth);
        for c in &self.children {
            c.visit_depth(f, depth + 1);
        }
    }

    /// The deterministic ordering key canonicalization sorts siblings by:
    /// name, then the `node` counter (so per-node spans order by node id),
    /// then ticks, then the full counter set.
    fn sort_key(&self) -> (&str, u64, u64, &CounterSet) {
        (
            self.name.as_str(),
            self.counters.get("node").unwrap_or(u64::MAX),
            self.ticks,
            &self.counters,
        )
    }

    /// A canonical copy: wall/virtual timestamps zeroed, tracks zeroed,
    /// children sorted by a deterministic key, recursively. Two
    /// runs of the same workload produce equal canonical spans regardless
    /// of host thread count or worker assignment.
    pub fn canonicalized(&self) -> Span {
        let mut children: Vec<Span> = self.children.iter().map(Span::canonicalized).collect();
        children.sort_by(|a, b| a.sort_key().cmp(&b.sort_key()));
        Span {
            name: self.name.clone(),
            cat: self.cat,
            timebase: self.timebase,
            track: 0,
            start: 0.0,
            end: 0.0,
            ticks: self.ticks,
            counters: self.counters.clone(),
            children,
        }
    }
}

/// RAII-style builder for a wall-clock span: samples the global clock at
/// [`begin`](SpanGuard::begin), accumulates children and counters while
/// the traced region runs, and samples the end time at
/// [`finish`](SpanGuard::finish).
///
/// Deliberately not `Drop`-based: emission sites hand the finished
/// [`Span`] to a parent (or to [`Tracer::finish`](crate::Tracer::finish)),
/// and an explicit `finish(self) -> Span` keeps that hand-off visible.
#[derive(Debug)]
pub struct SpanGuard {
    span: Span,
}

impl SpanGuard {
    /// Opens a wall-clock span starting now.
    pub fn begin(name: &str, cat: Category) -> Self {
        let t0 = epoch_seconds();
        let mut span = Span::marker(name, cat, 0);
        span.start = t0;
        SpanGuard { span }
    }

    /// Sets the execution lane (worker index).
    pub fn set_track(&mut self, track: u32) {
        self.span.track = track;
    }

    /// The wall start of the open span, in epoch seconds (lets emission
    /// sites reject attaching stale records that predate this span).
    pub fn start(&self) -> f64 {
        self.span.start
    }

    /// Sets a counter on the span.
    pub fn counter(&mut self, name: &str, value: u64) {
        self.span.counters.set(name, value);
    }

    /// Appends a finished child span.
    pub fn child(&mut self, child: Span) {
        self.span.children.push(child);
    }

    /// Closes the span at the current clock and returns it. The end is
    /// nudged past the start if the clock did not visibly advance, so a
    /// finished wall span is never mistaken for a zero-width marker.
    pub fn finish(mut self) -> Span {
        let t1 = epoch_seconds();
        self.span.end = if t1 > self.span.start {
            t1
        } else {
            self.span.start + 1e-9
        };
        self.span
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_sort_merge_and_replace() {
        let mut c = CounterSet::new();
        c.set("zeta", 5);
        c.set("alpha", 1);
        c.add("zeta", 2);
        c.set("mid", 3);
        let names: Vec<&str> = c.iter().map(|(n, _)| n).collect();
        assert_eq!(names, ["alpha", "mid", "zeta"]);
        assert_eq!(c.get("zeta"), Some(7));
        let mut d = CounterSet::new();
        d.set("alpha", 10);
        d.set("new", 4);
        c.merge(&d);
        assert_eq!(c.get("alpha"), Some(11));
        assert_eq!(c.get("new"), Some(4));
        assert_eq!(c.len(), 4);
    }

    #[test]
    fn guard_produces_measured_interval() {
        let g = SpanGuard::begin("x", Category::Solver);
        let s = g.finish();
        assert!(s.has_interval());
        assert!(s.duration() > 0.0);
        assert!(!Span::marker("m", Category::Solver, 3).has_interval());
    }

    #[test]
    fn canonical_sorts_children_and_zeroes_nondeterminism() {
        let mut root = Span::wall("root", Category::Serve, 1.0, 2.0);
        root.track = 7;
        let mut a = Span::wall("exec.task", Category::Exec, 1.1, 1.2);
        a.counters.set("node", 9);
        let mut b = Span::wall("exec.task", Category::Exec, 1.3, 1.4);
        b.counters.set("node", 2);
        b.track = 3;
        root.children.push(a);
        root.children.push(b);
        let c = root.canonicalized();
        assert_eq!(c.track, 0);
        assert!(!c.has_interval());
        assert_eq!(c.children[0].counters.get("node"), Some(2));
        assert_eq!(c.children[1].counters.get("node"), Some(9));
        assert_eq!(c.children[0].track, 0);
        // Order of emission does not matter.
        let mut flipped = Span::wall("root", Category::Serve, 5.0, 6.0);
        flipped.children = vec![c.children[1].clone(), c.children[0].clone()];
        assert_eq!(flipped.canonicalized(), c);
    }

    #[test]
    fn span_count_and_visit_cover_subtree() {
        let mut root = Span::marker("r", Category::Solver, 0);
        let mut mid = Span::marker("m", Category::Exec, 0);
        mid.children.push(Span::marker("leaf", Category::Hw, 1));
        root.children.push(mid);
        assert_eq!(root.count(), 3);
        let mut depths = Vec::new();
        root.visit(&mut |s, d| depths.push((s.name.clone(), d)));
        assert_eq!(
            depths,
            vec![
                ("r".to_string(), 0),
                ("m".to_string(), 1),
                ("leaf".to_string(), 2)
            ]
        );
    }
}
