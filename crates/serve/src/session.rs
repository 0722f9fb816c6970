//! Session identity, lifecycle state, and the registry.

use std::collections::{BTreeMap, VecDeque};

use supernova_factors::{Factor, Variable};
use supernova_solvers::SolverEngine;

use crate::stats::SessionStats;

/// Opaque handle of one SLAM session.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SessionId(pub u64);

impl std::fmt::Display for SessionId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "session-{}", self.0)
    }
}

/// One queued odometry / loop-closure update: the new pose's initial guess
/// plus every factor arriving with it (exactly one
/// [`OnlineStep`](supernova_datasets::OnlineStep) worth of work).
#[derive(Clone, Debug)]
pub struct UpdateRequest {
    /// Client-assigned logical deadline: the dispatcher serves the session
    /// whose head-of-queue request has the smallest deadline (earliest
    /// deadline first; ties go to the lowest session id). Any monotonic
    /// per-client counter works — load generators use the submission tick.
    pub deadline: u64,
    /// Initial guess for the new pose.
    pub initial: Variable,
    /// Factors arriving with the new pose.
    pub factors: Vec<Factor>,
}

impl UpdateRequest {
    /// Convenience constructor.
    pub fn new(deadline: u64, initial: Variable, factors: Vec<Factor>) -> Self {
        UpdateRequest {
            deadline,
            initial,
            factors,
        }
    }
}

/// What a closed session leaves behind.
#[derive(Clone, Debug)]
pub struct SessionCloseReport {
    /// The closed session.
    pub session: SessionId,
    /// Updates fully processed over the session's lifetime.
    pub completed: u64,
    /// Updates shed at admission (queue-full rejections).
    pub shed: u64,
    /// Final per-session statistics.
    pub stats: SessionStats,
    /// A step panicked in the solver: the session ended early, its
    /// engine and the updates queued behind that step dropped.
    pub failed: bool,
}

/// One live session: its engine, bounded queue, and statistics.
#[derive(Debug)]
pub(crate) struct Session {
    pub(crate) id: SessionId,
    /// The session's own engine, built when it opened. `None` exactly
    /// while a worker is stepping the session: the worker holds the engine
    /// outside the registry lock.
    pub(crate) engine: Option<SolverEngine>,
    pub(crate) queue: VecDeque<UpdateRequest>,
    /// `close()` has begun: no further updates are admitted.
    pub(crate) closing: bool,
    /// A worker's step of this session panicked: its engine was dropped
    /// with the queued updates, and it serves nothing until closed.
    pub(crate) failed: bool,
    /// Updates fully processed.
    pub(crate) completed: u64,
    /// Variables the session has once everything admitted is applied —
    /// also the key the next admitted update's new pose receives.
    pub(crate) variables: usize,
    /// Monotonic sequence of the next update to be dispatched (for span
    /// ordering checks).
    pub(crate) next_seq: u64,
    pub(crate) stats: SessionStats,
}

impl Session {
    /// A session over `engine`. A restored engine has already applied
    /// its checkpoint's updates, so the counters continue from there.
    pub(crate) fn new(id: SessionId, engine: SolverEngine) -> Self {
        let applied = engine.steps();
        Session {
            id,
            engine: Some(engine),
            queue: VecDeque::new(),
            closing: false,
            failed: false,
            completed: applied as u64,
            variables: applied,
            next_seq: applied as u64,
            stats: SessionStats::default(),
        }
    }

    /// Outstanding (queued, not yet applied) updates.
    pub(crate) fn depth(&self) -> usize {
        self.queue.len()
    }

    /// Whether a worker could pick this session right now: no worker
    /// holds its engine, and an update is queued.
    pub(crate) fn ready(&self) -> bool {
        self.engine.is_some() && !self.queue.is_empty()
    }

    /// Whether no admitted work is outstanding: all of it applied, or
    /// dropped when the session failed.
    pub(crate) fn drained(&self) -> bool {
        self.queue.is_empty() && (self.engine.is_some() || self.failed)
    }
}

/// The table of live sessions, keyed by id (deterministic iteration order —
/// the EDF tie-break depends on it).
#[derive(Debug, Default)]
pub struct SessionRegistry {
    sessions: BTreeMap<u64, Session>,
    next_id: u64,
}

impl SessionRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of live sessions (including closing ones).
    pub fn len(&self) -> usize {
        self.sessions.len()
    }

    /// Whether no session is live.
    pub fn is_empty(&self) -> bool {
        self.sessions.is_empty()
    }

    /// Total queued updates across all sessions — the dispatcher's load
    /// signal for the degradation policy.
    pub fn total_depth(&self) -> usize {
        self.sessions.values().map(Session::depth).sum()
    }

    pub(crate) fn insert(&mut self, engine: SolverEngine) -> SessionId {
        let id = SessionId(self.next_id);
        self.next_id += 1;
        self.sessions.insert(id.0, Session::new(id, engine));
        id
    }

    pub(crate) fn get(&self, id: SessionId) -> Option<&Session> {
        self.sessions.get(&id.0)
    }

    pub(crate) fn get_mut(&mut self, id: SessionId) -> Option<&mut Session> {
        self.sessions.get_mut(&id.0)
    }

    pub(crate) fn remove(&mut self, id: SessionId) -> Option<Session> {
        self.sessions.remove(&id.0)
    }

    pub(crate) fn iter(&self) -> impl Iterator<Item = &Session> {
        self.sessions.values()
    }

    /// The EDF pick: among ready sessions, the one whose head request has
    /// the earliest deadline; ties go to the lowest session id (ascending
    /// map order makes `<` do exactly that).
    pub(crate) fn pick_earliest_deadline(&self) -> Option<SessionId> {
        let mut best: Option<(u64, SessionId)> = None;
        for s in self.sessions.values().filter(|s| s.ready()) {
            // `ready()` guarantees a head request exists.
            if let Some(head) = s.queue.front() {
                if best.map_or(true, |(d, _)| head.deadline < d) {
                    best = Some((head.deadline, s.id));
                }
            }
        }
        best.map(|(_, id)| id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use supernova_hw::Platform;
    use supernova_runtime::CostModel;
    use supernova_solvers::RaIsam2Config;

    fn engine() -> SolverEngine {
        SolverEngine::new(
            RaIsam2Config::default(),
            Arc::new(CostModel::new(Platform::supernova(2))),
        )
    }

    fn request(deadline: u64) -> UpdateRequest {
        UpdateRequest::new(
            deadline,
            Variable::Se2(supernova_factors::Se2::identity()),
            Vec::new(),
        )
    }

    #[test]
    fn ids_are_sequential_and_stable_across_removal() {
        let mut reg = SessionRegistry::new();
        let a = reg.insert(engine());
        let b = reg.insert(engine());
        assert_eq!((a.0, b.0), (0, 1));
        let removed = reg.remove(a).expect("a exists");
        assert_eq!(removed.id, a);
        let c = reg.insert(removed.engine.expect("engine present"));
        assert_eq!(c.0, 2, "ids are never reused");
        assert_eq!(reg.len(), 2);
    }

    #[test]
    fn edf_picks_earliest_deadline_then_lowest_id() {
        let mut reg = SessionRegistry::new();
        let a = reg.insert(engine());
        let b = reg.insert(engine());
        let c = reg.insert(engine());
        reg.get_mut(a).expect("a").queue.push_back(request(9));
        reg.get_mut(b).expect("b").queue.push_back(request(5));
        reg.get_mut(c).expect("c").queue.push_back(request(5));
        assert_eq!(
            reg.pick_earliest_deadline(),
            Some(b),
            "earliest deadline, lowest id"
        );
        // A busy session (a worker holds its engine) is skipped even with
        // the earliest deadline.
        reg.get_mut(b).expect("b").engine = None;
        assert_eq!(reg.pick_earliest_deadline(), Some(c));
        reg.get_mut(c).expect("c").queue.clear();
        assert_eq!(reg.pick_earliest_deadline(), Some(a));
        assert_eq!(reg.total_depth(), 2);
    }
}
