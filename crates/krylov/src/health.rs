//! Runtime solve-health monitoring.
//!
//! Reduced-precision preconditioning fails in recognizable ways: the
//! residual plateaus at the storage format's noise floor instead of
//! converging, rebounds after an overflow poisons a level, or the Krylov
//! recurrence itself breaks down (CG's `pᵀAp ≤ 0`, a NaN in GMRES's
//! Hessenberg). The seed code either panicked or spun to
//! `max_iters` silently; this module turns those outcomes into typed
//! diagnoses the recovery layer in `fp16mg-core` can act on — stagnation
//! *above the FP16 unit-roundoff floor* is the signal that promoting a
//! stored level to FP32 (rather than more iterations) is the fix.

/// Typed cause of a solver breakdown.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Breakdown {
    /// CG: the curvature `pᵀAp` was ≤ 0 or non-finite — the operator or
    /// preconditioner is not positive definite *in the working precision*
    /// (a truncated FP16 level can lose definiteness the exact operator
    /// has).
    Indefinite {
        /// Iteration at which the breakdown was detected.
        iter: usize,
        /// The offending curvature value.
        pap: f64,
    },
    /// GMRES: a non-finite entry appeared in the Hessenberg factorization
    /// (NaN/∞ propagated through the Arnoldi process) or its triangular
    /// solve was singular.
    HessenbergNonFinite {
        /// Inner iteration at which the breakdown was detected.
        iter: usize,
        /// The offending Hessenberg entry or pivot.
        entry: f64,
    },
    /// The residual norm itself became NaN or ±∞.
    NonFiniteResidual {
        /// Iteration at which the breakdown was detected.
        iter: usize,
        /// The non-finite relative residual.
        value: f64,
    },
}

impl Breakdown {
    /// Iteration at which the breakdown was detected.
    pub fn iter(&self) -> usize {
        match *self {
            Breakdown::Indefinite { iter, .. }
            | Breakdown::HessenbergNonFinite { iter, .. }
            | Breakdown::NonFiniteResidual { iter, .. } => iter,
        }
    }
}

impl core::fmt::Display for Breakdown {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match *self {
            Breakdown::Indefinite { iter, pap } => {
                write!(
                    f,
                    "CG breakdown at iteration {iter}: pᵀAp = {pap} (not SPD in working precision)"
                )
            }
            Breakdown::HessenbergNonFinite { iter, entry } => {
                write!(f, "GMRES breakdown at inner iteration {iter}: Hessenberg entry {entry}")
            }
            Breakdown::NonFiniteResidual { iter, value } => {
                write!(f, "non-finite residual norm {value} at iteration {iter}")
            }
        }
    }
}

/// Diagnosis of a residual plateau or rebound.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Stagnation {
    /// Iteration at which stagnation was declared.
    pub iter: usize,
    /// Best relative residual reached before stalling.
    pub best_rel: f64,
    /// Relative residual at declaration time.
    pub rel: f64,
    /// True when the plateau sits *above* the FP16 unit roundoff `2⁻¹¹`:
    /// the stall is then attributable to reduced-precision storage (a
    /// correctly scaled FP16 preconditioner bottoms out near its unit
    /// roundoff, not above it) and precision promotion is the indicated
    /// recovery.
    pub above_fp16_floor: bool,
}

impl core::fmt::Display for Stagnation {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "stagnated at iteration {}: best rel {:.3e}, current {:.3e}{}",
            self.iter,
            self.best_rel,
            self.rel,
            if self.above_fp16_floor { " (above FP16 roundoff floor)" } else { "" }
        )
    }
}

/// A failed solve, as a proper error type for callers that want `Result`.
///
/// Beyond the numerical failures ([`SolveError::Breakdown`],
/// [`SolveError::Stagnated`]) this is also the typed vocabulary of the
/// resilient runtime layer (`fp16mg-runtime`): deadline interruptions
/// raised through the [`crate::SolveControl`] hook, the serve pool's
/// wedge bound, retry-ladder exhaustion, and a panic contained by the
/// pool all surface here, so one error type describes every way a solve
/// session can end short of convergence.
#[derive(Clone, Debug, PartialEq)]
pub enum SolveError {
    /// The recurrence broke down.
    Breakdown(Breakdown),
    /// The residual stalled or rebounded without converging.
    Stagnated(Stagnation),
    /// The wall-clock deadline passed mid-solve (raised by a
    /// [`crate::SolveControl`] hook, never by the bare solvers).
    DeadlineExceeded {
        /// Iteration at which the deadline check fired.
        iter: usize,
        /// Time elapsed since the session started.
        elapsed: std::time::Duration,
        /// The configured deadline.
        deadline: std::time::Duration,
    },
    /// The solve was stopped by the pool's wedge bound: the session
    /// outran the deadline cap the serve pool puts on every request.
    Cancelled {
        /// Iteration at which the bound fired.
        iter: usize,
    },
    /// Every rung of the retry ladder ran out of attempts without a
    /// typed numerical failure — the solver kept hitting its iteration
    /// cap while making (insufficient) progress.
    Unconverged {
        /// Iterations performed by the last attempt.
        iters: usize,
        /// Final relative residual of the last attempt.
        rel: f64,
    },
    /// Hierarchy setup failed, so the solve never started (carries the
    /// rendered `SetupError`/`ConfigError` message from `fp16mg-core`,
    /// which this crate does not depend on).
    SetupFailed {
        /// The rendered setup error.
        message: String,
    },
    /// The session panicked; the panic was caught at the pool boundary
    /// and the pool goes on serving the next request.
    WorkerPanicked {
        /// The panic payload, rendered.
        message: String,
    },
}

impl SolveError {
    /// True when a retry (possibly at a higher-precision rung) could
    /// plausibly succeed. Interruptions (deadline, the pool's wedge bound)
    /// and panics are final: the session's budget is spent.
    pub fn retryable(&self) -> bool {
        matches!(
            self,
            SolveError::Breakdown(_)
                | SolveError::Stagnated(_)
                | SolveError::Unconverged { .. }
                | SolveError::SetupFailed { .. }
        )
    }
}

impl core::fmt::Display for SolveError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            SolveError::Breakdown(b) => write!(f, "{b}"),
            SolveError::Stagnated(s) => write!(f, "{s}"),
            SolveError::DeadlineExceeded { iter, elapsed, deadline } => write!(
                f,
                "deadline exceeded at iteration {iter}: {:.1} ms elapsed of {:.1} ms allowed",
                elapsed.as_secs_f64() * 1e3,
                deadline.as_secs_f64() * 1e3
            ),
            SolveError::Cancelled { iter } => write!(f, "cancelled at iteration {iter}"),
            SolveError::Unconverged { iters, rel } => {
                write!(f, "unconverged after ladder exhaustion: {iters} iters, rel {rel:.3e}")
            }
            SolveError::SetupFailed { message } => write!(f, "setup failed: {message}"),
            SolveError::WorkerPanicked { message } => write!(f, "worker panicked: {message}"),
        }
    }
}

impl std::error::Error for SolveError {}

/// Stagnation-detection configuration.
#[derive(Clone, Copy, Debug)]
pub struct HealthPolicy {
    /// Master switch; `false` restores the seed behavior (run to
    /// `max_iters` no matter what the residual does).
    pub enabled: bool,
}

impl Default for HealthPolicy {
    fn default() -> Self {
        HealthPolicy { enabled: true }
    }
}

impl HealthPolicy {
    /// A policy with stagnation detection off (seed behavior).
    pub fn disabled() -> Self {
        HealthPolicy { enabled: false }
    }
}

/// Consecutive stall-equivalents tolerated before declaring stagnation.
const PATIENCE: usize = 40;
/// An iteration counts as progress when it improves the best relative
/// residual by at least this factor (`rel < MIN_PROGRESS * best`).
const MIN_PROGRESS: f64 = 0.999;
/// A single iteration whose residual exceeds `REBOUND * best` counts as
/// [`REBOUND_WEIGHT`] stalled iterations — catches post-overflow
/// divergence long before [`PATIENCE`] quiet iterations elapse.
const REBOUND: f64 = 1.0e4;
/// Stall-equivalents charged per rebound iteration.
const REBOUND_WEIGHT: usize = 8;
/// FP16 unit roundoff `2⁻¹¹`: plateaus above this are attributed to
/// reduced-precision storage (see [`Stagnation::above_fp16_floor`]).
const FP16_FLOOR: f64 = 1.0 / 2048.0;

/// Per-iteration health record kept alongside the residual history.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct IterHealth {
    /// Iteration number.
    pub iter: usize,
    /// Relative residual at this iteration.
    pub rel: f64,
    /// Best relative residual so far.
    pub best_rel: f64,
    /// Stall-equivalents accumulated since the last progress.
    pub stalled_for: usize,
}

/// Incremental stagnation monitor driven by the per-iteration relative
/// residual. One instance per solve; solvers call [`SolveHealth::observe`]
/// after each residual evaluation.
#[derive(Clone, Debug)]
pub struct SolveHealth {
    policy: HealthPolicy,
    record: bool,
    best_rel: f64,
    stalled: usize,
    records: Vec<IterHealth>,
}

impl SolveHealth {
    /// Creates a monitor. `record` keeps the per-iteration records (the
    /// health counterpart of `record_history`).
    pub fn new(policy: HealthPolicy, record: bool) -> Self {
        SolveHealth { policy, record, best_rel: f64::INFINITY, stalled: 0, records: Vec::new() }
    }

    /// Feeds one relative residual; returns a diagnosis once the stall
    /// budget is exhausted (never before `PATIENCE` is consumed, and never
    /// when the policy is disabled). Non-finite residuals are the
    /// breakdown paths' business, not stagnation — they return `None`.
    pub fn observe(&mut self, iter: usize, rel: f64) -> Option<Stagnation> {
        if rel.is_finite() {
            if rel < MIN_PROGRESS * self.best_rel {
                self.best_rel = rel;
                self.stalled = 0;
            } else if self.best_rel.is_finite() && rel > REBOUND * self.best_rel {
                self.stalled += REBOUND_WEIGHT;
            } else {
                self.stalled += 1;
            }
        }
        if self.record {
            self.records.push(IterHealth {
                iter,
                rel,
                best_rel: self.best_rel,
                stalled_for: self.stalled,
            });
        }
        if self.policy.enabled && rel.is_finite() && self.stalled >= PATIENCE {
            Some(Stagnation {
                iter,
                best_rel: self.best_rel,
                rel,
                above_fp16_floor: self.best_rel > FP16_FLOOR,
            })
        } else {
            None
        }
    }

    /// Best relative residual observed so far.
    pub fn best_rel(&self) -> f64 {
        self.best_rel
    }

    /// Consumes the monitor, returning the per-iteration records.
    pub fn into_records(self) -> Vec<IterHealth> {
        self.records
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steady_progress_never_stagnates() {
        let mut h = SolveHealth::new(HealthPolicy::default(), true);
        let mut rel = 1.0;
        for it in 0..500 {
            assert_eq!(h.observe(it, rel), None);
            rel *= 0.9;
        }
        assert_eq!(h.into_records().len(), 500);
    }

    #[test]
    fn plateau_stagnates_after_patience() {
        let mut h = SolveHealth::new(HealthPolicy::default(), false);
        let mut out = None;
        for it in 0..1000 {
            out = h.observe(it, 1e-2);
            if out.is_some() {
                break;
            }
        }
        let s = out.expect("plateau must be flagged");
        // The first observation sets best; PATIENCE more exhaust it.
        assert_eq!(s.iter, PATIENCE);
        assert!(s.above_fp16_floor);
    }

    #[test]
    fn plateau_below_floor_not_precision_attributable() {
        let mut h = SolveHealth::new(HealthPolicy::default(), false);
        let mut out = None;
        for it in 0..1000 {
            out = h.observe(it, 1e-12);
            if out.is_some() {
                break;
            }
        }
        assert!(!out.expect("plateau must be flagged").above_fp16_floor);
    }

    #[test]
    fn rebound_accelerates_detection() {
        let mut h = SolveHealth::new(HealthPolicy::default(), true);
        assert_eq!(h.observe(0, 1e-6), None);
        // A huge rebound burns REBOUND_WEIGHT stall-equivalents at once.
        assert_eq!(h.observe(1, 1e3), None);
        assert_eq!(h.into_records()[1].stalled_for, REBOUND_WEIGHT);
        // Enough rebounds to cover PATIENCE are flagged on the last one.
        let mut h = SolveHealth::new(HealthPolicy::default(), false);
        assert_eq!(h.observe(0, 1e-6), None);
        let rebounds = PATIENCE.div_ceil(REBOUND_WEIGHT);
        for it in 1..rebounds {
            assert_eq!(h.observe(it, 1e3), None);
        }
        assert!(h.observe(rebounds, 1e3).is_some());
    }

    #[test]
    fn disabled_policy_never_fires() {
        let mut h = SolveHealth::new(HealthPolicy::disabled(), false);
        for it in 0..10_000 {
            assert_eq!(h.observe(it, 0.5), None);
        }
    }

    #[test]
    fn non_finite_residuals_ignored() {
        let mut h = SolveHealth::new(HealthPolicy::default(), false);
        for it in 0..10 * PATIENCE {
            assert_eq!(h.observe(it, f64::NAN), None);
        }
    }

    #[test]
    fn breakdown_accessors() {
        let b = Breakdown::Indefinite { iter: 7, pap: -1.0 };
        assert_eq!(b.iter(), 7);
        let b = Breakdown::NonFiniteResidual { iter: 3, value: f64::INFINITY };
        assert_eq!(b.iter(), 3);
        let e = SolveError::Breakdown(b);
        assert!(format!("{e}").contains("non-finite residual"));
    }
}
