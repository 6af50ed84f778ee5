//! The declarative retry ladder.
//!
//! One solve *session* walks a fixed escalation sequence, reacting to
//! the typed failures of the self-healing layer (PR 1) with
//! progressively more conservative — and more expensive — precision
//! configurations, in the spirit of three-precision AMG fallback
//! hierarchies (Tsai/Beams/Anzt) and dynamically adaptive-precision
//! Krylov methods (Guo/de Sturler):
//!
//! 1. [`Rung::Retry`] — run the caller's mixed-precision configuration
//!    on the retained hierarchy. Mending needs no rung of its own: the
//!    in-solve anomaly hook localizes a corrupted coefficient plane and
//!    widens that level to FP32 from its promotion material (level 0's
//!    is the request's operator, lent) the moment the solver reports a
//!    breakdown or stall, as a non-finite cycle does at once. When the
//!    failed attempt widened a level, a second attempt re-solves the
//!    mended hierarchy — no rebuild; when it did not, a second attempt
//!    would reproduce it bit for bit, so the ladder escalates at once;
//! 2. [`Rung::PromoteNarrow`] — rebuild and *eagerly* promote every
//!    16-bit level to FP32 before solving (the dynamic analog of
//!    `shift_levid = 0`);
//! 3. [`Rung::RebuildF32`] — rebuild the whole hierarchy with uniform
//!    FP32 storage;
//! 4. [`Rung::RebuildF64`] — FP64 computation *and* storage, the
//!    last-resort everything-double configuration.
//!
//! Every other rung runs once; attempts run back to back, and every one
//! is recorded in a [`RetryReport`]. The deadline and the iteration
//! budget cut across the whole ladder through one [`BudgetGuard`]: a
//! request that may climb less far says so in its [`Budget`].

use std::time::Instant;

use fp16mg_core::{
    MatOp, Mg, MgConfig, PromotionEvent, PromotionReason, RecoveryPolicy, StoragePolicy,
};
use fp16mg_fp::{Precision, Scalar};
use fp16mg_krylov::{cg_ctl, gmres_ctl, richardson_ctl, SolveError, SolveOptions, SolveResult};
use fp16mg_problems::{Problem, SolverKind};
use fp16mg_sgdia::kernels::Par;

use crate::admission::Priority;
use crate::budget::{Budget, BudgetGuard};
use crate::mem::{MemCharge, MemGovernor};
use crate::ring::Ring;

use fp16mg_sgdia::fault::FaultSpec;

/// One rung of the escalation ladder, in climb order.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rung {
    /// Re-run the caller's configuration on the retained hierarchy
    /// (mended in place by the anomaly hook, if it found corruption).
    Retry,
    /// Rebuild, then eagerly promote every 16-bit level to FP32.
    PromoteNarrow,
    /// Rebuild the hierarchy with uniform FP32 storage.
    RebuildF32,
    /// Rebuild with FP64 computation and storage (last resort).
    RebuildF64,
}

impl Rung {
    /// All rungs in climb order.
    pub const ALL: [Rung; 4] =
        [Rung::Retry, Rung::PromoteNarrow, Rung::RebuildF32, Rung::RebuildF64];

    /// Position in the climb order (the declaration order).
    pub fn index(self) -> usize {
        self as usize
    }

    /// Short display label.
    pub fn label(self) -> &'static str {
        match self {
            Rung::Retry => "retry",
            Rung::PromoteNarrow => "promote16→32",
            Rung::RebuildF32 => "rebuild-f32",
            Rung::RebuildF64 => "rebuild-f64",
        }
    }
}

impl core::fmt::Display for Rung {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.label())
    }
}

/// Which Krylov method the session runs.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum SolverChoice {
    /// The problem's designated solver (Table 3).
    #[default]
    Auto,
    /// Stationary Richardson iteration.
    Richardson,
}

/// A targeted single-event upset: one bit of one stored coefficient
/// plane of one hierarchy level. The flip lands on the first nonzero
/// entry of the plane, so it always corrupts a real coupling the
/// integrity sentinels must localize.
#[derive(Clone, Copy, Debug)]
pub struct LevelBitFlip {
    /// Hierarchy level whose stored matrix is hit.
    pub level: usize,
    /// Coefficient plane (stencil tap) within the level.
    pub tap: usize,
    /// Bit position, taken modulo the storage width.
    pub bit: u32,
}

/// Deterministic fault injection applied to hierarchies built during a
/// session: the harness behind the ladder tests and the serve-pool
/// scenarios of `fp16mg-bench`.
#[derive(Clone, Copy, Debug)]
pub struct FaultPlan {
    /// What to inject (rate-based corruption).
    pub spec: FaultSpec,
    /// Optional targeted upset, applied after `spec`: one bit of the
    /// first nonzero entry of plane `(level, tap)` is flipped — the
    /// silent-data-corruption scenario the ABFT sentinels exist for.
    pub flip: Option<LevelBitFlip>,
    /// The fault is applied to every hierarchy built at rungs *below*
    /// this one, so exactly this rung is the first clean configuration:
    /// `sticky_until = PromoteNarrow` corrupts only the initial mixed
    /// hierarchy, `RebuildF64` keeps corrupting every FP32-computation
    /// build and only the final FP64 rebuild escapes. Each build is hit
    /// exactly once — the second [`Rung::Retry`] re-solves the retained
    /// hierarchy (mended by the anomaly hook) without re-exposing it,
    /// which is precisely the transient-upset model.
    pub sticky_until: Rung,
}

/// One resilient solve request: the unit of work the pool schedules.
pub struct SolveRequest {
    /// Display name (scenario label in reports).
    pub name: String,
    /// The problem (owns the assembled matrix).
    pub problem: Problem,
    /// Rung-0 multigrid configuration (normally mixed FP16).
    pub base: MgConfig,
    /// Right-hand side override. `None` (the default) solves against
    /// the problem's canonical [`Problem::rhs`]; a time-stepping driver
    /// sets it to the implicit-step right-hand side, which couples the
    /// previous step's solution. Every ladder rung solves the same
    /// right-hand side.
    pub rhs: Option<Vec<f64>>,
    /// Per-attempt solver options; `max_iters` is additionally clamped
    /// by the session budget's `max_iters`.
    pub opts: SolveOptions,
    /// Session resource bounds; they also bound the ladder's climb (an
    /// iteration budget spent by the first attempt ends the session).
    pub budget: Budget,
    /// Krylov method override.
    pub solver: SolverChoice,
    /// Kernel parallelism for the outer operator.
    pub par: Par,
    /// Priority class, carried on the wire and in the daemon trail
    /// (defaults to [`Priority::Batch`]).
    pub priority: Priority,
    /// Problem class for the per-class circuit breaker (defaults to the
    /// problem's name, so one poisoned problem shape trips its own
    /// breaker without touching the others).
    pub class: String,
    /// Memory governor every hierarchy the session builds is charged
    /// against (`"setup"` for the stored levels, `"workspace"` for the
    /// V-cycle arena). Defaults to an unlimited governor; the serve pool
    /// replaces it with its shared budgeted one. A refused charge is a
    /// typed [`SolveError::SetupFailed`] that escalates the ladder like
    /// any other setup failure — never an abort.
    pub governor: MemGovernor,
    /// Fault injection plan (`None` outside tests and harnesses).
    pub fault: Option<FaultPlan>,
    /// Panic before doing any work, to exercise the pool's panic
    /// isolation.
    pub panic_in_worker: bool,
}

impl SolveRequest {
    /// A request with default options and an unlimited budget.
    pub fn new(name: impl Into<String>, problem: Problem, base: MgConfig) -> Self {
        let class = problem.name.to_string();
        SolveRequest {
            name: name.into(),
            problem,
            base,
            rhs: None,
            opts: SolveOptions::default(),
            budget: Budget::default(),
            solver: SolverChoice::Auto,
            par: Par::Seq,
            priority: Priority::default(),
            class,
            governor: MemGovernor::unlimited(),
            fault: None,
            panic_in_worker: false,
        }
    }
}

/// One recorded ladder attempt.
#[derive(Clone, Debug)]
pub struct Attempt {
    /// The rung this attempt ran on.
    pub rung: Rung,
    /// Attempt number within the rung (0-based).
    pub try_no: usize,
    /// True when this attempt converged (it is then the last).
    pub converged: bool,
    /// Outer iterations performed.
    pub iters: usize,
    /// Final relative residual.
    pub rel: f64,
    /// Storage promotions the hierarchy performed during the attempt
    /// (eager rung promotions and mended levels both count).
    pub promotions: usize,
    /// Typed failure, when the attempt did not converge.
    pub error: Option<SolveError>,
    /// Wall time of the attempt (setup + solve).
    pub seconds: f64,
}

/// Every rung taken by a session, in order. Both trails are
/// ring-bounded (capacity [`Ring::DEFAULT_CAPACITY`]) — the bound that
/// keeps session evidence from growing without limit in a long-running
/// process: the most recent evidence survives, older entries are counted
/// and evicted.
#[derive(Clone, Debug, Default)]
pub struct RetryReport {
    /// The most recent attempts, in execution order.
    pub attempts: Ring<Attempt>,
    /// The most recent storage promotions, in execution order: the levels
    /// the in-solve hooks mended and the promotion rung's eager ones.
    pub promotions: Ring<PromotionEvent>,
}

impl RetryReport {
    /// The rung of each attempt, in order (e.g. `[Retry, Retry,
    /// PromoteNarrow]`).
    pub fn rung_sequence(&self) -> Vec<Rung> {
        self.attempts.iter().map(|a| a.rung).collect()
    }

    /// The highest rung reached, if any attempt ran.
    pub fn final_rung(&self) -> Option<Rung> {
        self.attempts.last().map(|a| a.rung)
    }

    /// Compact `retry→retry→promote16→32` display string.
    pub fn summary(&self) -> String {
        self.attempts.iter().map(|a| a.rung.label()).collect::<Vec<_>>().join("→")
    }
}

/// Outcome of one resilient solve session.
#[derive(Clone, Debug)]
pub struct SessionOutcome {
    /// `Ok` with the converged attempt's solver result, or the last
    /// typed error once the ladder (or the budget) is exhausted.
    pub result: Result<SolveResult, SolveError>,
    /// The solution vector of the converged attempt.
    pub solution: Option<Vec<f64>>,
    /// Every attempt taken.
    pub report: RetryReport,
    /// Outer iterations summed over all attempts.
    pub iters: usize,
    /// Session wall time, every attempt included.
    pub seconds: f64,
}

impl SessionOutcome {
    /// True when the session converged.
    pub fn converged(&self) -> bool {
        self.result.is_ok()
    }
}

/// The rung-0 hierarchy, kept alive across [`Rung::Retry`] attempts so
/// the second re-solves it as the anomaly hook left it (mended in place)
/// instead of rebuilding. Escalation to [`Rung::PromoteNarrow`] or
/// beyond drops it.
struct Retained {
    mg: Option<Mg<f32>>,
    /// Charge receipts for `mg`'s stored levels and workspace arena;
    /// dropped (credited back) together with the hierarchy. `None` while
    /// `mg` is uncharged — a prebuilt hierarchy is charged on first use
    /// by the rung-0 attempt.
    charges: Option<HierarchyCharges>,
    /// True once the fault plan has been applied to `mg`: each build is
    /// corrupted exactly once (re-flipping the same bit would undo it).
    injected: bool,
}

/// Receipts tying a live hierarchy's bytes to the session governor.
struct HierarchyCharges {
    _setup: MemCharge,
    _workspace: MemCharge,
}

/// Charges a freshly built (or adopted) hierarchy against the request's
/// governor: stored matrix bytes and the insurance kept beside them as
/// `"setup"`, the preallocated V-cycle arena as `"workspace"`. A refused
/// charge surfaces as a typed [`SolveError::SetupFailed`], which the
/// ladder treats exactly like a failed build — skip the rung and escalate.
fn charge_hierarchy<Pr: Scalar>(
    req: &SolveRequest,
    mg: &Mg<Pr>,
) -> Result<HierarchyCharges, SolveError> {
    let mem_err = |e: crate::mem::MemError| SolveError::SetupFailed { message: e.to_string() };
    let kept = mg.info().matrix_bytes + mg.info().insurance_bytes;
    let setup = req.governor.try_charge("setup", kept as u64).map_err(mem_err)?;
    let workspace =
        req.governor.try_charge("workspace", mg.workspace_bytes() as u64).map_err(mem_err)?;
    Ok(HierarchyCharges { _setup: setup, _workspace: workspace })
}

/// What one solver attempt produced.
struct AttemptOutput {
    result: SolveResult,
    /// Promotions performed during this attempt (delta, not cumulative).
    promotions: Vec<PromotionEvent>,
    x: Vec<f64>,
}

/// Runs one solve request through the retry ladder under its budget.
///
/// The session is synchronous and cooperative: it returns a typed
/// [`SessionOutcome`] for every way a solve can end — convergence,
/// ladder exhaustion ([`SolveError::Unconverged`] or the last numerical
/// failure) or deadline ([`SolveError::DeadlineExceeded`]) — and never
/// panics on solver failures. (Panics from bugs are contained by
/// [`crate::ServePool`], not here.)
pub fn run_session(req: &SolveRequest) -> SessionOutcome {
    run_session_with(req, None)
}

/// [`run_session`] with an optionally prebuilt rung-0 hierarchy, the
/// entry point behind the serve pool's hierarchy cache: a `prebuilt`
/// hierarchy seeds the retained rung-0 state in place of the first
/// attempt's own setup.
pub fn run_session_with(req: &SolveRequest, prebuilt: Option<Mg<f32>>) -> SessionOutcome {
    if req.panic_in_worker {
        panic!("injected worker panic: request '{}'", req.name);
    }

    let t0 = Instant::now();
    let mut guard = BudgetGuard::arm(req.budget.clone());
    let mut report = RetryReport::default();
    let mut last_err: Option<SolveError> = None;
    let mut last_rel = f64::NAN;
    let mut retained = Retained { mg: prebuilt, charges: None, injected: false };

    'ladder: for rung in Rung::ALL {
        // At most two attempts: only a retry that mended its hierarchy
        // runs a second time.
        for try_no in 0..2 {
            // Session-level pre-checks: a deadline that passed since the
            // last attempt ends the ladder before any setup work is spent.
            let done = guard.iters_done();
            if let Err(e) = fp16mg_krylov::SolveControl::check(&mut guard, done) {
                last_err = Some(e);
                break 'ladder;
            }
            let Some(iter_cap) = guard.clamp_iters(req.opts.max_iters) else {
                last_err =
                    Some(SolveError::Unconverged { iters: guard.iters_done(), rel: last_rel });
                break 'ladder;
            };
            let mut opts = req.opts.clone();
            opts.max_iters = iter_cap;

            let at0 = Instant::now();
            let attempt = run_rung_attempt(req, rung, &opts, &mut guard, &mut retained);
            let seconds = at0.elapsed().as_secs_f64();

            match attempt {
                Err(setup_err) => {
                    // Same config ⇒ same setup failure: escalate.
                    report.attempts.push(Attempt {
                        rung,
                        try_no,
                        converged: false,
                        iters: 0,
                        rel: last_rel,
                        promotions: 0,
                        error: Some(setup_err.clone()),
                        seconds,
                    });
                    last_err = Some(setup_err);
                    continue 'ladder;
                }
                Ok(out) => {
                    let AttemptOutput { result, promotions, x } = out;
                    guard.charge_iters(result.iters);
                    if result.final_rel_residual.is_finite() {
                        last_rel = result.final_rel_residual;
                    }
                    let converged = result.converged();
                    let error = if converged {
                        None
                    } else {
                        Some(result.failure().unwrap_or(SolveError::Unconverged {
                            iters: result.iters,
                            rel: result.final_rel_residual,
                        }))
                    };
                    let mended = !promotions.is_empty();
                    report.attempts.push(Attempt {
                        rung,
                        try_no,
                        converged,
                        iters: result.iters,
                        rel: result.final_rel_residual,
                        promotions: promotions.len(),
                        error: error.clone(),
                        seconds,
                    });
                    report.promotions.extend(promotions);
                    if converged {
                        return SessionOutcome {
                            result: Ok(result),
                            solution: Some(x),
                            report,
                            iters: guard.iters_done(),
                            seconds: t0.elapsed().as_secs_f64(),
                        };
                    }
                    let e = error.expect("non-converged attempt always carries an error");
                    let final_err = !e.retryable();
                    last_err = Some(e);
                    if final_err {
                        break 'ladder;
                    }
                    // Only a retry the hierarchy changed under runs again:
                    // an unchanged one would reproduce this attempt.
                    if rung != Rung::Retry || !mended {
                        continue 'ladder;
                    }
                }
            }
        }
    }

    SessionOutcome {
        result: Err(last_err
            .unwrap_or(SolveError::Unconverged { iters: guard.iters_done(), rel: last_rel })),
        solution: None,
        report,
        iters: guard.iters_done(),
        seconds: t0.elapsed().as_secs_f64(),
    }
}

/// Obtains the hierarchy for `rung` (retained or freshly built) and runs
/// one solver attempt under the guard. `Err` is a typed setup failure.
fn run_rung_attempt(
    req: &SolveRequest,
    rung: Rung,
    opts: &SolveOptions,
    guard: &mut BudgetGuard,
    retained: &mut Retained,
) -> Result<AttemptOutput, SolveError> {
    let setup_err = |e: fp16mg_core::SetupError| SolveError::SetupFailed { message: e.to_string() };
    match rung {
        Rung::Retry => {
            // The retained hierarchy survives a failed attempt, so a
            // second re-solves it as the anomaly hook mended it.
            if retained.mg.is_none() {
                retained.mg =
                    Some(Mg::<f32>::setup(&req.problem.matrix, &req.base).map_err(setup_err)?);
            }
            // Invariant: a retained hierarchy is always charged. A
            // prebuilt (cached) or freshly built hierarchy is charged here
            // on first use; a refused charge drops it and escalates —
            // the rebuild rungs charge their own builds at later op
            // indices, so an injected one-shot fault resolves there.
            if retained.charges.is_none() {
                let mg = retained.mg.as_ref().expect("retained hierarchy was just ensured");
                match charge_hierarchy(req, mg) {
                    Ok(c) => retained.charges = Some(c),
                    Err(e) => {
                        retained.mg = None;
                        return Err(e);
                    }
                }
            }
            let mg = retained.mg.as_mut().expect("retained hierarchy was just ensured");
            if !retained.injected {
                retained.injected = true;
                inject_if_armed(req, rung, mg);
            }
            let base = mg.info().promotions.len();
            Ok(attempt_with(req, mg, opts, guard, base))
        }
        Rung::PromoteNarrow => {
            // A rebuild abandons the mendable hierarchy for good
            // (and credits its bytes back before building the next one).
            retained.mg = None;
            retained.charges = None;
            // Promotion needs recovery bookkeeping (retained coarse-level
            // sources), whatever the caller's policy says; the request's
            // operator is level 0's.
            let mut cfg = req.base.clone();
            cfg.recovery = RecoveryPolicy::default();
            let mut mg = Mg::<f32>::setup(&req.problem.matrix, &cfg).map_err(setup_err)?;
            let narrow: Vec<usize> = mg
                .info()
                .levels
                .iter()
                .enumerate()
                .filter(|(_, l)| matches!(l.precision, Precision::F16 | Precision::BF16))
                .map(|(i, _)| i)
                .collect();
            let mut insured = mg.insured(&req.problem.matrix);
            for lev in narrow {
                insured.promote_level(lev, PromotionReason::Manual);
            }
            let _charges = charge_hierarchy(req, &mg)?;
            inject_if_armed(req, rung, &mut mg);
            Ok(attempt_with(req, &mut mg, opts, guard, 0))
        }
        Rung::RebuildF32 => {
            retained.mg = None;
            retained.charges = None;
            let mut cfg = req.base.clone();
            cfg.storage = StoragePolicy::Uniform(Precision::F32);
            let mut mg = Mg::<f32>::setup(&req.problem.matrix, &cfg).map_err(setup_err)?;
            let _charges = charge_hierarchy(req, &mg)?;
            inject_if_armed(req, rung, &mut mg);
            Ok(attempt_with(req, &mut mg, opts, guard, 0))
        }
        Rung::RebuildF64 => {
            retained.mg = None;
            retained.charges = None;
            let mut cfg = req.base.clone();
            cfg.storage = StoragePolicy::Uniform(Precision::F64);
            let mut mg = Mg::<f64>::setup(&req.problem.matrix, &cfg).map_err(setup_err)?;
            let _charges = charge_hierarchy(req, &mg)?;
            inject_if_armed(req, rung, &mut mg);
            Ok(attempt_with(req, &mut mg, opts, guard, 0))
        }
    }
}

/// Runs the chosen solver once on `mg`.
/// `base` is the hierarchy's promotion count at attempt start, so a
/// retained hierarchy reports per-attempt deltas.
fn attempt_with<Pr: Scalar>(
    req: &SolveRequest,
    mg: &mut Mg<Pr>,
    opts: &SolveOptions,
    guard: &mut BudgetGuard,
    base: usize,
) -> AttemptOutput {
    let op = MatOp::new(&req.problem.matrix, req.par);
    let b = match &req.rhs {
        Some(b) => b.clone(),
        None => req.problem.rhs(),
    };
    let mut x = vec![0.0f64; req.problem.matrix.rows()];
    // The request's operator insures level 0 for the solve.
    let m = &mut mg.insured(&req.problem.matrix);
    let result = match (req.solver, req.problem.solver) {
        (SolverChoice::Auto, SolverKind::Cg) => cg_ctl(&op, m, &b, &mut x, opts, guard),
        (SolverChoice::Auto, SolverKind::Gmres) => gmres_ctl(&op, m, &b, &mut x, opts, guard),
        (SolverChoice::Richardson, _) => richardson_ctl(&op, m, &b, &mut x, opts, guard),
    };
    AttemptOutput { result, promotions: mg.info().promotions[base..].to_vec(), x }
}

/// Applies the request's fault plan to a freshly built hierarchy when
/// the plan is armed for this rung (`rung < sticky_until`).
fn inject_if_armed<Pr: Scalar>(req: &SolveRequest, rung: Rung, mg: &mut Mg<Pr>) {
    if let Some(plan) = &req.fault {
        if rung.index() < plan.sticky_until.index() {
            inject(mg, plan);
        }
    }
}

/// Corrupts the finest 16-bit level (or level 0 when every level is
/// already wide) per the plan's rate spec, then applies the targeted
/// bit flip if one is planned. Guarantees at least one non-finite entry
/// for `inf`-flavored specs, so tiny test matrices still trip detection.
fn inject<Pr: Scalar>(mg: &mut Mg<Pr>, plan: &FaultPlan) {
    let lev = mg
        .info()
        .levels
        .iter()
        .position(|l| matches!(l.precision, Precision::F16 | Precision::BF16))
        .unwrap_or(0);
    if let Some(stored) = mg.stored_mut(lev) {
        let rep = stored.inject_faults(&plan.spec);
        if plan.spec.inf_rate > 0.0 && rep.infs == 0 {
            stored.inject_inf_at(0, 0);
        }
    }
    if let Some(flip) = plan.flip {
        if let Some(stored) = mg.stored_mut(flip.level) {
            stored.inject_bit_flip_tap(flip.tap, flip.bit);
        }
    }
}
