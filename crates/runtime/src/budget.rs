//! Solve budgets.
//!
//! A [`Budget`] bounds one solve *session* (every ladder attempt
//! included) along two axes — wall clock and outer iterations. The
//! solvers never see the budget directly: [`BudgetGuard::arm`] turns it
//! into a [`SolveControl`] that the Krylov loops poll once per
//! iteration.

use std::time::{Duration, Instant};

use fp16mg_krylov::{SolveControl, SolveError};

/// Declarative resource bounds for one solve session. `None` means
/// unlimited along that axis; [`Budget::default`] is fully unlimited.
#[derive(Clone, Debug, Default)]
pub struct Budget {
    /// Wall-clock allowance measured from [`BudgetGuard::arm`].
    pub deadline: Option<Duration>,
    /// Total outer (Krylov) iterations across all ladder attempts.
    pub max_iters: Option<usize>,
}

impl Budget {
    /// A wall-clock-only budget.
    pub fn with_deadline(deadline: Duration) -> Self {
        Budget { deadline: Some(deadline), ..Self::default() }
    }
}

/// A [`Budget`] armed with a start instant and an iteration count — the
/// session-scoped enforcement object. One guard spans every attempt of
/// a retry ladder, so the deadline and iteration budget are *session*
/// totals, not per-attempt allowances.
#[derive(Clone, Debug)]
pub struct BudgetGuard {
    budget: Budget,
    started: Instant,
    /// Outer iterations already consumed by *finished* attempts.
    iters_done: usize,
}

impl BudgetGuard {
    /// Starts the session clock.
    pub fn arm(budget: Budget) -> Self {
        BudgetGuard { budget, started: Instant::now(), iters_done: 0 }
    }

    /// Charges a finished attempt's outer-iteration count against the
    /// session iteration budget.
    pub fn charge_iters(&mut self, iters: usize) {
        self.iters_done = self.iters_done.saturating_add(iters);
    }

    /// Outer iterations consumed by finished attempts.
    pub fn iters_done(&self) -> usize {
        self.iters_done
    }

    /// The per-attempt iteration cap: the smaller of the caller's
    /// `max_iters` and what is left of the session budget. `None` when
    /// the session iteration budget is already exhausted.
    pub fn clamp_iters(&self, per_attempt: usize) -> Option<usize> {
        match self.budget.max_iters {
            None => Some(per_attempt),
            Some(total) => {
                let left = total.saturating_sub(self.iters_done);
                if left == 0 {
                    None
                } else {
                    Some(per_attempt.min(left))
                }
            }
        }
    }
}

impl SolveControl for BudgetGuard {
    fn check(&mut self, iter: usize) -> Result<(), SolveError> {
        if let Some(deadline) = self.budget.deadline {
            let elapsed = self.started.elapsed();
            if elapsed > deadline {
                return Err(SolveError::DeadlineExceeded { iter, elapsed, deadline });
            }
        }
        Ok(())
    }
}
