//! Solve budgets and cooperative cancellation.
//!
//! A [`Budget`] bounds one solve *session* (every ladder attempt
//! included) along three axes — wall clock, outer iterations, and
//! V-cycle applications — and carries a [`CancelToken`] its owner can
//! trip from another thread. The solvers never see the budget directly:
//! [`BudgetGuard::arm`] turns it into a [`SolveControl`] that the
//! Krylov loops poll once per iteration, and the V-cycle count flows in
//! through the shared counter `fp16mg_core::Mg::cycle_counter` exposes.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use fp16mg_krylov::{SolveControl, SolveError};

/// Cooperative cancellation flag, cheaply cloneable; all clones observe
/// the same state. Cancellation is one-way: there is no reset, a
/// cancelled session stays cancelled.
#[derive(Clone, Debug, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Trips the flag. Every solve polling a guard built from this token
    /// stops at its next iteration boundary with
    /// [`SolveError::Cancelled`].
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Release);
    }

    /// True once [`CancelToken::cancel`] has been called.
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Acquire)
    }
}

/// Declarative resource bounds for one solve session. `None` means
/// unlimited along that axis; [`Budget::default`] is fully unlimited
/// except for the cancel token (always present, initially clear).
#[derive(Clone, Debug, Default)]
pub struct Budget {
    /// Wall-clock allowance measured from [`BudgetGuard::arm`].
    pub deadline: Option<Duration>,
    /// Total outer (Krylov) iterations across all ladder attempts.
    pub max_iters: Option<usize>,
    /// Total V-cycle applications across all ladder attempts, counting
    /// the re-runs the self-healing preconditioner performs internally.
    pub max_vcycles: Option<usize>,
    /// Cooperative cancellation flag.
    pub cancel: CancelToken,
}

impl Budget {
    /// An unlimited budget (cancellable only).
    pub fn unlimited() -> Self {
        Self::default()
    }

    /// A wall-clock-only budget.
    pub fn with_deadline(deadline: Duration) -> Self {
        Budget { deadline: Some(deadline), ..Self::default() }
    }
}

/// A [`Budget`] armed with a start instant and live counters — the
/// session-scoped enforcement object. One guard spans every attempt of
/// a retry ladder, so the deadline and cycle budget are *session*
/// totals, not per-attempt allowances.
#[derive(Clone, Debug)]
pub struct BudgetGuard {
    budget: Budget,
    started: Instant,
    /// Shared V-cycle counter; hierarchies built during the session link
    /// their own counters here via [`BudgetGuard::adopt_cycles`].
    vcycles: Arc<AtomicUsize>,
    /// Outer iterations already consumed by *finished* attempts.
    iters_done: usize,
}

impl BudgetGuard {
    /// Starts the session clock.
    pub fn arm(budget: Budget) -> Self {
        BudgetGuard {
            budget,
            started: Instant::now(),
            vcycles: Arc::new(AtomicUsize::new(0)),
            iters_done: 0,
        }
    }

    /// The underlying budget.
    pub fn budget(&self) -> &Budget {
        &self.budget
    }

    /// Time elapsed since the guard was armed.
    pub fn elapsed(&self) -> Duration {
        self.started.elapsed()
    }

    /// V-cycles consumed so far.
    pub fn vcycles(&self) -> usize {
        self.vcycles.load(Ordering::Relaxed)
    }

    /// Adopts a freshly built hierarchy's cycle counter: the hierarchy's
    /// applications accumulate into this guard's session total. Call
    /// once per built hierarchy, passing `mg.cycle_counter()`.
    ///
    /// (The guard keeps its own counter and *pre-charges* the new
    /// hierarchy's counter with the cycles already spent, so a rebuilt
    /// hierarchy starting from zero cannot reset the session total.)
    pub fn adopt_cycles(&mut self, counter: Arc<AtomicUsize>) {
        counter.store(self.vcycles.load(Ordering::Relaxed), Ordering::Relaxed);
        self.vcycles = counter;
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
        if self.budget.cancel.is_cancelled() {
            return Err(SolveError::Cancelled { iter });
        }
        if let Some(deadline) = self.budget.deadline {
            let elapsed = self.started.elapsed();
            if elapsed > deadline {
                return Err(SolveError::DeadlineExceeded { iter, elapsed, deadline });
            }
        }
        if let Some(budget) = self.budget.max_vcycles {
            let used = self.vcycles.load(Ordering::Relaxed);
            if used >= budget {
                return Err(SolveError::VcycleBudgetExceeded { iter, used, budget });
            }
        }
        Ok(())
    }
}
