//! Server and per-session statistics snapshots.

use supernova_metrics::Histogram;
use supernova_runtime::StepBudget;

use crate::session::SessionId;

/// Latency histogram shape used for step latencies: 0.25 ms buckets up to
/// 250 ms, saturating above (the saturated bucket reports the recorded
/// maximum, so long-tail steps are still visible).
const LATENCY_BUCKET_SECONDS: f64 = 0.000_25;
const LATENCY_BUCKETS: usize = 1000;

/// Running statistics of one session.
#[derive(Clone, Debug)]
pub struct SessionStats {
    latency: Histogram,
    /// Steps applied at each degradation level (index = level).
    degraded_steps: Vec<u64>,
    max_queue_depth: usize,
    shed: u64,
}

impl Default for SessionStats {
    /// Empty statistics, one degradation counter per budget level.
    fn default() -> Self {
        SessionStats {
            latency: Histogram::new(LATENCY_BUCKET_SECONDS, LATENCY_BUCKETS),
            degraded_steps: vec![0; usize::from(StepBudget::MAX_DEGRADATION) + 1],
            max_queue_depth: 0,
            shed: 0,
        }
    }
}

impl SessionStats {
    /// Records one applied update: its processing wall time and the
    /// degradation level it ran at.
    pub fn record_step(&mut self, seconds: f64, level: u8) {
        self.latency.record(seconds);
        let idx = usize::from(level).min(self.degraded_steps.len() - 1);
        self.degraded_steps[idx] += 1;
    }

    /// Records an observed queue depth (tracks the high-water mark).
    pub fn record_depth(&mut self, depth: usize) {
        self.max_queue_depth = self.max_queue_depth.max(depth);
    }

    /// Records one shed (queue-full) update.
    pub fn record_shed(&mut self) {
        self.shed += 1;
    }

    /// The step-latency histogram.
    pub fn latency(&self) -> &Histogram {
        &self.latency
    }

    /// Steps applied at each degradation level (index = level).
    pub fn degraded_steps(&self) -> &[u64] {
        &self.degraded_steps
    }

    /// Highest queue depth ever observed.
    pub fn max_queue_depth(&self) -> usize {
        self.max_queue_depth
    }

    /// Updates shed at this session's queue.
    pub fn shed(&self) -> u64 {
        self.shed
    }
}

/// One session's row in a [`ServerStats`] snapshot.
#[derive(Clone, Debug)]
pub struct SessionSnapshot {
    /// The session.
    pub session: SessionId,
    /// Updates fully applied so far.
    pub completed: u64,
    /// Updates shed at admission.
    pub shed: u64,
    /// Updates queued right now.
    pub queue_depth: usize,
    /// Highest queue depth ever observed.
    pub max_queue_depth: usize,
    /// Median step latency in seconds.
    pub p50_seconds: f64,
    /// 95th-percentile step latency in seconds.
    pub p95_seconds: f64,
    /// 99th-percentile step latency in seconds.
    pub p99_seconds: f64,
    /// Largest recorded step latency in seconds.
    pub max_seconds: f64,
    /// Steps applied at each degradation level (index = level).
    pub degraded_steps: Vec<u64>,
}

/// A point-in-time snapshot of the whole server.
#[derive(Clone, Debug)]
pub struct ServerStats {
    /// Per-session rows, ascending session id.
    pub sessions: Vec<SessionSnapshot>,
    /// The server's current degradation level.
    pub degradation_level: u8,
    /// Steps applied at each degradation level across all sessions, dead
    /// and alive (index = level).
    pub degradation_histogram: Vec<u64>,
    /// Total updates applied (live sessions only).
    pub total_completed: u64,
    /// Total updates shed at full queues (including closed sessions).
    pub total_shed: u64,
    /// Session creations refused at the session limit.
    pub rejected_creates: u64,
    /// Total updates queued right now.
    pub total_queue_depth: usize,
    /// Aggregate latency percentiles across live sessions (p50, p95, p99),
    /// in seconds.
    pub aggregate_latency: (f64, f64, f64),
}

impl ServerStats {
    /// Whether any step anywhere ran degraded.
    pub fn any_degraded(&self) -> bool {
        self.degradation_histogram.iter().skip(1).any(|&c| c > 0)
    }
}

impl std::fmt::Display for ServerStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "server: level {} | completed {} | shed {} | queued {} | agg p50/p95/p99 \
             {:.2}/{:.2}/{:.2} ms",
            self.degradation_level,
            self.total_completed,
            self.total_shed,
            self.total_queue_depth,
            self.aggregate_latency.0 * 1e3,
            self.aggregate_latency.1 * 1e3,
            self.aggregate_latency.2 * 1e3,
        )?;
        for s in &self.sessions {
            writeln!(
                f,
                "  {}: {} done, {} shed, depth {}/{} max, p50 {:.2} ms, p95 {:.2} ms, p99 \
                 {:.2} ms",
                s.session,
                s.completed,
                s.shed,
                s.queue_depth,
                s.max_queue_depth,
                s.p50_seconds * 1e3,
                s.p95_seconds * 1e3,
                s.p99_seconds * 1e3,
            )?;
        }
        Ok(())
    }
}

/// Builds the latency histogram shape shared by all sessions (exposed so
/// aggregations outside the crate can merge into a matching shape).
pub(crate) fn latency_histogram() -> Histogram {
    Histogram::new(LATENCY_BUCKET_SECONDS, LATENCY_BUCKETS)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn session_stats_track_levels_and_depth() {
        let mut s = SessionStats::default();
        s.record_step(0.001, 0);
        s.record_step(0.002, 2);
        s.record_step(0.002, 7); // clamped into the top level
        s.record_depth(3);
        s.record_depth(1);
        s.record_shed();
        assert_eq!(s.degraded_steps(), &[1, 0, 1, 0, 1]);
        assert_eq!(s.max_queue_depth(), 3);
        assert_eq!(s.shed(), 1);
        assert_eq!(s.latency().count(), 3);
    }
}
