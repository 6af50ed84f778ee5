//! Solver options and results.

use crate::health::{Breakdown, HealthPolicy, IterHealth, SolveError, Stagnation};

/// Stopping configuration shared by all solvers.
#[derive(Clone, Debug)]
pub struct SolveOptions {
    /// Relative residual tolerance `‖r‖₂ / ‖b‖₂` (the paper's convergence
    /// threshold; Fig. 6 uses 1e-10, most runs 1e-9).
    pub tol: f64,
    /// Maximum iterations (for GMRES: total inner iterations).
    pub max_iters: usize,
    /// GMRES restart length `m` (ignored by CG/Richardson).
    pub restart: usize,
    /// Record the residual history (Fig. 6 curves) and the per-iteration
    /// health records.
    pub record_history: bool,
    /// Stagnation/rebound detection policy.
    pub health: HealthPolicy,
}

impl Default for SolveOptions {
    fn default() -> Self {
        SolveOptions {
            tol: 1e-9,
            max_iters: 500,
            restart: 30,
            record_history: true,
            health: HealthPolicy::default(),
        }
    }
}

/// Why a solve stopped.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StopReason {
    /// Relative residual dropped below `tol`.
    Converged,
    /// Iteration budget exhausted.
    MaxIters,
    /// The recurrence broke down (see [`SolveResult::breakdown`] for the
    /// typed cause — e.g. unscaled FP16 overflow, §3.4).
    Breakdown,
    /// The residual plateaued or rebounded without converging (see
    /// [`SolveResult::stagnation`]).
    Stagnated,
    /// A [`crate::SolveControl`] hook stopped the solve mid-iteration —
    /// e.g. a passed deadline (see [`SolveResult::interrupt`] for the
    /// typed cause). The iterate holds the last completed state.
    Interrupted,
}

/// Outcome of a solve.
#[derive(Clone, Debug)]
pub struct SolveResult {
    /// Stop reason.
    pub reason: StopReason,
    /// Iterations performed (preconditioner applications for CG/Richardson;
    /// inner iterations for GMRES).
    pub iters: usize,
    /// Final relative residual `‖r‖₂ / ‖b‖₂` (NaN on breakdown).
    pub final_rel_residual: f64,
    /// Relative residual after each iteration, starting with the initial
    /// value at index 0 (empty unless `record_history`).
    pub history: Vec<f64>,
    /// Typed breakdown cause when `reason == Breakdown`.
    pub breakdown: Option<Breakdown>,
    /// Stagnation diagnosis when `reason == Stagnated`.
    pub stagnation: Option<Stagnation>,
    /// Typed interruption when `reason == Interrupted` (e.g. a passed
    /// deadline, raised by the solve control).
    pub interrupt: Option<SolveError>,
    /// Per-iteration health records (empty unless `record_history`).
    pub health: Vec<IterHealth>,
}

impl SolveResult {
    /// A result with no failure diagnosis attached.
    pub(crate) fn new(
        reason: StopReason,
        iters: usize,
        final_rel_residual: f64,
        history: Vec<f64>,
    ) -> Self {
        SolveResult {
            reason,
            iters,
            final_rel_residual,
            history,
            breakdown: None,
            stagnation: None,
            interrupt: None,
            health: Vec::new(),
        }
    }

    /// Attaches a breakdown diagnosis (reason becomes `Breakdown`).
    pub(crate) fn with_breakdown(mut self, b: Breakdown) -> Self {
        self.reason = StopReason::Breakdown;
        self.breakdown = Some(b);
        self
    }

    /// Attaches a stagnation diagnosis (reason becomes `Stagnated`).
    pub(crate) fn with_stagnation(mut self, s: Stagnation) -> Self {
        self.reason = StopReason::Stagnated;
        self.stagnation = Some(s);
        self
    }

    /// Attaches a control interruption (reason becomes `Interrupted`).
    pub(crate) fn with_interrupt(mut self, e: SolveError) -> Self {
        self.reason = StopReason::Interrupted;
        self.interrupt = Some(e);
        self
    }

    /// Attaches the per-iteration health records.
    pub(crate) fn with_health(mut self, health: Vec<IterHealth>) -> Self {
        self.health = health;
        self
    }

    /// True when the solve converged.
    pub fn converged(&self) -> bool {
        self.reason == StopReason::Converged
    }

    /// The typed failure, if the solve broke down or stagnated. `MaxIters`
    /// is not reported here: exhausting the budget while making progress
    /// is a tuning matter, not a numerical failure.
    pub fn failure(&self) -> Option<SolveError> {
        match self.reason {
            StopReason::Breakdown => Some(SolveError::Breakdown(self.breakdown.unwrap_or(
                Breakdown::NonFiniteResidual { iter: self.iters, value: self.final_rel_residual },
            ))),
            StopReason::Stagnated => self.stagnation.map(SolveError::Stagnated),
            StopReason::Interrupted => self.interrupt.clone(),
            _ => None,
        }
    }
}
