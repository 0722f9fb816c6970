//! The dynamically adjustable per-step resource budget.
//!
//! RA-ISAM2's whole contribution is that per-step work is a *knob*: the
//! selection of §4.1 fills exactly the time budget it is handed and defers
//! the rest. This module makes that knob first-class so layers above the
//! solver — most importantly the multi-session serving layer — can turn it
//! at runtime: under overload a server tightens every session's budget
//! (fewer relinearized/reordered nodes per step) instead of shedding
//! updates, and widens it again when the queues drain.
//!
//! Degradation is quantized into integer *levels* so policy decisions are
//! reproducible: level `d` scales the effective budget by `2⁻ᵈ`. The level
//! is clamped to [`StepBudget::MAX_DEGRADATION`], below which the budget
//! still covers the mandatory work of a step (the new pose's dirty path),
//! so a degraded session loses relinearization freshness, never updates.

/// A per-step time budget with a quantized degradation knob.
///
/// The *effective* budget handed to the solver is
/// `target_seconds · safety · 2^-degradation`.
///
/// # Example
///
/// ```
/// use supernova_runtime::StepBudget;
///
/// let mut b = StepBudget::new(1.0 / 30.0, 0.8);
/// let full = b.effective_seconds();
/// b.degrade();
/// assert_eq!(b.effective_seconds(), full / 2.0);
/// b.recover();
/// assert_eq!(b.effective_seconds(), full);
/// ```
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct StepBudget {
    target_seconds: f64,
    safety: f64,
    degradation: u8,
}

impl StepBudget {
    /// The ceiling on degradation levels (a 16× budget cut).
    pub const MAX_DEGRADATION: u8 = 4;

    /// A budget at degradation level 0.
    ///
    /// # Panics
    ///
    /// Panics unless `target_seconds > 0` and `0 < safety <= 1`.
    pub fn new(target_seconds: f64, safety: f64) -> Self {
        assert!(target_seconds > 0.0, "target must be positive");
        assert!(safety > 0.0 && safety <= 1.0, "safety must be in (0, 1]");
        StepBudget {
            target_seconds,
            safety,
            degradation: 0,
        }
    }

    /// The undegraded per-step target in seconds.
    pub fn target_seconds(&self) -> f64 {
        self.target_seconds
    }

    /// The safety fraction absorbing cost-model error.
    pub fn safety(&self) -> f64 {
        self.safety
    }

    /// The current degradation level (0 = full budget).
    pub fn degradation(&self) -> u8 {
        self.degradation
    }

    /// The budget the solver should fill this step:
    /// `target · safety · 2^-degradation`.
    pub fn effective_seconds(&self) -> f64 {
        self.target_seconds * self.safety / f64::from(1u32 << u32::from(self.degradation))
    }

    /// Tightens the budget one level. Returns `false` (and changes
    /// nothing) when already at the ceiling.
    pub fn degrade(&mut self) -> bool {
        if self.degradation >= Self::MAX_DEGRADATION {
            return false;
        }
        self.degradation += 1;
        true
    }

    /// Relaxes the budget one level. Returns `false` (and changes nothing)
    /// when already at level 0.
    pub fn recover(&mut self) -> bool {
        if self.degradation == 0 {
            return false;
        }
        self.degradation -= 1;
        true
    }

    /// Jumps straight to `level` (clamped to the ceiling).
    pub fn set_degradation(&mut self, level: u8) {
        self.degradation = level.min(Self::MAX_DEGRADATION);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn effective_budget_halves_per_level() {
        let mut b = StepBudget::new(0.04, 0.5);
        assert_eq!(b.effective_seconds(), 0.02);
        assert!(b.degrade());
        assert_eq!(b.effective_seconds(), 0.01);
        assert!(b.degrade());
        assert_eq!(b.effective_seconds(), 0.005);
        assert_eq!(b.degradation(), 2);
    }

    #[test]
    fn degrade_and_recover_clamp_at_the_ends() {
        let mut b = StepBudget::new(1.0, 1.0);
        assert!(!b.recover(), "already at level 0");
        for _ in 0..StepBudget::MAX_DEGRADATION {
            assert!(b.degrade());
        }
        assert!(!b.degrade(), "ceiling is 4");
        assert_eq!(b.degradation(), 4);
        for _ in 0..StepBudget::MAX_DEGRADATION {
            assert!(b.recover());
        }
        assert!(!b.recover());
        assert_eq!(b.effective_seconds(), 1.0);
    }

    #[test]
    fn set_degradation_clamps() {
        let mut b = StepBudget::new(1.0, 1.0);
        b.set_degradation(200);
        assert_eq!(b.degradation(), StepBudget::MAX_DEGRADATION);
        b.set_degradation(1);
        assert_eq!(b.effective_seconds(), 0.5);
    }

    #[test]
    #[should_panic(expected = "safety")]
    fn zero_safety_rejected() {
        let _ = StepBudget::new(1.0, 0.0);
    }
}
