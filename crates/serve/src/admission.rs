//! Admission control: bounded queues, typed rejections, shed accounting.

use supernova_factors::Key;

use crate::session::{SessionId, SessionRegistry};

/// Why the server refused a request. Every refusal is cheap, typed, and
/// deterministic — the client can tell "back off" (`QueueFull`,
/// `SessionLimit`) apart from "you are wrong" (`UnknownSession`,
/// `SessionClosing`, `UnknownVariable`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AdmissionError {
    /// The server already holds its maximum number of concurrent sessions.
    SessionLimit {
        /// The configured maximum number of concurrent sessions.
        max_sessions: usize,
    },
    /// The session's bounded queue is full; the update was shed.
    QueueFull {
        /// The session whose queue is full.
        session: SessionId,
        /// The configured per-session queue capacity.
        capacity: usize,
    },
    /// No live session has this id.
    UnknownSession(SessionId),
    /// The session is closing; it accepts no further updates.
    SessionClosing(SessionId),
    /// A step of the session panicked in the solver: its engine is gone,
    /// so it accepts no updates and answers no reads. Closing it frees
    /// its slot.
    SessionFailed(SessionId),
    /// The update's factors name a variable the session does not have and
    /// this update would not add: a pose after the session's newest, as
    /// when an earlier step was shed. Applying it would abort the worker,
    /// so it is refused here and never queued.
    UnknownVariable {
        /// The session the update was for.
        session: SessionId,
        /// The first key beyond the pose this update would add.
        key: Key,
    },
    /// The server is shutting down.
    ShuttingDown,
    /// The connection spoke an unsupported protocol version (or skipped
    /// the hello handshake entirely).
    ProtocolMismatch {
        /// The version the client announced (`None`: no hello frame).
        client: Option<u8>,
        /// The version this server speaks.
        supported: u8,
    },
}

impl std::fmt::Display for AdmissionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AdmissionError::SessionLimit { max_sessions } => {
                write!(
                    f,
                    "session limit reached ({max_sessions} concurrent sessions)"
                )
            }
            AdmissionError::QueueFull { session, capacity } => {
                write!(f, "{session} queue full (capacity {capacity}); update shed")
            }
            AdmissionError::UnknownSession(id) => write!(f, "{id} does not exist"),
            AdmissionError::SessionClosing(id) => write!(f, "{id} is closing"),
            AdmissionError::SessionFailed(id) => {
                write!(f, "{id} failed: the solver could not step it")
            }
            AdmissionError::UnknownVariable { session, key } => write!(
                f,
                "{session} update names unknown variable {key} (a pose after the one it adds); \
                 update refused"
            ),
            AdmissionError::ShuttingDown => write!(f, "server is shutting down"),
            AdmissionError::ProtocolMismatch { client, supported } => match client {
                Some(v) => write!(
                    f,
                    "unsupported protocol version {v} (this server speaks {supported})"
                ),
                None => write!(
                    f,
                    "connection must open with a hello frame (protocol version {supported})"
                ),
            },
        }
    }
}

impl std::error::Error for AdmissionError {}

/// The admission policy plus its shed/rejection counters.
///
/// The controller never blocks: it answers "admit or refuse" from the
/// registry state it is shown, and counts every refusal by class so
/// [`ServerStats`](crate::ServerStats) can report shed rates without
/// scanning sessions.
#[derive(Debug)]
pub struct AdmissionController {
    max_sessions: usize,
    queue_capacity: usize,
    rejected_creates: u64,
    shed_updates: u64,
}

impl AdmissionController {
    /// A controller for the given limits.
    ///
    /// # Panics
    ///
    /// Panics unless both limits are at least 1.
    pub fn new(max_sessions: usize, queue_capacity: usize) -> Self {
        assert!(max_sessions >= 1, "need at least one session slot");
        assert!(queue_capacity >= 1, "need at least one queue slot");
        AdmissionController {
            max_sessions,
            queue_capacity,
            rejected_creates: 0,
            shed_updates: 0,
        }
    }

    /// The configured per-session queue capacity.
    pub fn queue_capacity(&self) -> usize {
        self.queue_capacity
    }

    /// The configured concurrent-session ceiling.
    pub fn max_sessions(&self) -> usize {
        self.max_sessions
    }

    /// Session creations refused at the session limit.
    pub fn rejected_creates(&self) -> u64 {
        self.rejected_creates
    }

    /// Updates shed because a session queue was full.
    pub fn shed_updates(&self) -> u64 {
        self.shed_updates
    }

    /// Decides whether another session fits.
    pub fn admit_create(&mut self, registry: &SessionRegistry) -> Result<(), AdmissionError> {
        if registry.len() >= self.max_sessions {
            self.rejected_creates += 1;
            return Err(AdmissionError::SessionLimit {
                max_sessions: self.max_sessions,
            });
        }
        Ok(())
    }

    /// Decides whether `session` may enqueue one more update. On success
    /// the caller pushes the request; on `QueueFull` the update counts as
    /// shed (both here and on the session's stats, which the caller owns).
    pub fn admit_update(
        &mut self,
        registry: &SessionRegistry,
        session: SessionId,
    ) -> Result<(), AdmissionError> {
        let s = registry
            .get(session)
            .ok_or(AdmissionError::UnknownSession(session))?;
        if s.failed {
            return Err(AdmissionError::SessionFailed(session));
        }
        if s.closing {
            return Err(AdmissionError::SessionClosing(session));
        }
        if s.depth() >= self.queue_capacity {
            self.shed_updates += 1;
            return Err(AdmissionError::QueueFull {
                session,
                capacity: self.queue_capacity,
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use supernova_factors::{Se2, Variable};
    use supernova_hw::Platform;
    use supernova_runtime::CostModel;
    use supernova_solvers::{RaIsam2Config, SolverEngine};

    fn engine() -> SolverEngine {
        SolverEngine::new(
            RaIsam2Config::default(),
            Arc::new(CostModel::new(Platform::supernova(2))),
        )
    }

    fn push(reg: &mut SessionRegistry, id: SessionId) {
        reg.get_mut(id)
            .expect("session")
            .queue
            .push_back(crate::UpdateRequest::new(
                0,
                Variable::Se2(Se2::identity()),
                Vec::new(),
            ));
    }

    #[test]
    fn session_limit_is_enforced_and_counted() {
        let mut reg = SessionRegistry::new();
        let mut adm = AdmissionController::new(2, 4);
        assert!(adm.admit_create(&reg).is_ok());
        reg.insert(engine());
        assert!(adm.admit_create(&reg).is_ok());
        reg.insert(engine());
        assert_eq!(
            adm.admit_create(&reg),
            Err(AdmissionError::SessionLimit { max_sessions: 2 })
        );
        assert_eq!(adm.rejected_creates(), 1);
    }

    #[test]
    fn queue_full_sheds_with_typed_error() {
        let mut reg = SessionRegistry::new();
        let mut adm = AdmissionController::new(4, 2);
        let id = reg.insert(engine());
        assert!(adm.admit_update(&reg, id).is_ok());
        push(&mut reg, id);
        assert!(adm.admit_update(&reg, id).is_ok());
        push(&mut reg, id);
        assert_eq!(
            adm.admit_update(&reg, id),
            Err(AdmissionError::QueueFull {
                session: id,
                capacity: 2
            })
        );
        assert_eq!(adm.shed_updates(), 1);
    }

    #[test]
    fn unknown_and_closing_sessions_are_distinct_errors() {
        let mut reg = SessionRegistry::new();
        let mut adm = AdmissionController::new(4, 2);
        let ghost = SessionId(99);
        assert_eq!(
            adm.admit_update(&reg, ghost),
            Err(AdmissionError::UnknownSession(ghost))
        );
        let id = reg.insert(engine());
        reg.get_mut(id).expect("session").closing = true;
        assert_eq!(
            adm.admit_update(&reg, id),
            Err(AdmissionError::SessionClosing(id))
        );
        // Neither counts as a shed (the client misused the API; nothing
        // was load-shed).
        assert_eq!(adm.shed_updates(), 0);
    }
}
