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
//!    again (transient faults, or faults the in-hierarchy promotion
//!    logic heals on its own);
//! 2. [`Rung::RepairLevel`] — mend the *same* hierarchy in place: an
//!    integrity-sentinel sweep localizes corrupted coefficient planes
//!    and re-truncates just those levels from their retained
//!    high-precision parents (PR 4's ABFT repair), then re-solves —
//!    no rebuild, no promotion;
//! 3. [`Rung::PromoteNarrow`] — rebuild and *eagerly* promote every
//!    16-bit level to FP32 before solving (the dynamic analog of
//!    `shift_levid = 0`);
//! 4. [`Rung::RebuildF32`] — rebuild the whole hierarchy with uniform
//!    FP32 storage;
//! 5. [`Rung::RebuildF64`] — FP64 computation *and* storage, the
//!    last-resort everything-double configuration.
//!
//! Each rung gets a bounded number of attempts with jittered exponential
//! backoff between them; every attempt is recorded in a [`RetryReport`].
//! Deadlines, V-cycle budgets, and cancellation cut across the whole
//! ladder through one [`BudgetGuard`].

use std::time::{Duration, Instant};

use fp16mg_core::{
    audit_rejects, MatOp, Mg, MgConfig, PromotionReason, RangeAudit, RecoveryPolicy, RepairEvent,
    RepairTrigger, StoragePolicy,
};
use fp16mg_fp::{Precision, Scalar};
use fp16mg_krylov::{
    bicgstab_ctl, cg_ctl, gmres_ctl, richardson_ctl, SolveError, SolveOptions, SolveResult,
};
use fp16mg_problems::{Problem, SolverKind};
use fp16mg_sgdia::kernels::Par;

use crate::admission::Priority;
use crate::budget::{Budget, BudgetGuard};
use crate::jitter;
use crate::mem::{MemCharge, MemGovernor};
use crate::ring::Ring;
use crate::shed::{DegradeEvent, DegradeProfile, ShedPolicy};

#[cfg(feature = "fault-inject")]
use fp16mg_sgdia::fault::FaultSpec;

/// One rung of the escalation ladder, in climb order.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rung {
    /// Re-run the caller's configuration unchanged.
    Retry,
    /// Repair corrupted levels of the retained hierarchy in place from
    /// their high-precision parents, then re-solve. Silently skipped —
    /// no attempt is recorded — when there is no retained hierarchy or
    /// nothing was repaired (clean sentinels, or no retained parents).
    RepairLevel,
    /// Rebuild, then eagerly promote every 16-bit level to FP32.
    PromoteNarrow,
    /// Rebuild the hierarchy with uniform FP32 storage.
    RebuildF32,
    /// Rebuild with FP64 computation and storage (last resort).
    RebuildF64,
}

impl Rung {
    /// All rungs in climb order.
    pub const ALL: [Rung; 5] =
        [Rung::Retry, Rung::RepairLevel, Rung::PromoteNarrow, Rung::RebuildF32, Rung::RebuildF64];

    /// Position in the climb order.
    pub fn index(self) -> usize {
        match self {
            Rung::Retry => 0,
            Rung::RepairLevel => 1,
            Rung::PromoteNarrow => 2,
            Rung::RebuildF32 => 3,
            Rung::RebuildF64 => 4,
        }
    }

    /// Short display label.
    pub fn label(self) -> &'static str {
        match self {
            Rung::Retry => "retry",
            Rung::RepairLevel => "repair-level",
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

/// Per-rung attempt caps and backoff shape.
#[derive(Clone, Debug)]
pub struct RetryPolicy {
    /// Attempts allowed per rung, indexed by [`Rung::index`]. A zero
    /// skips the rung entirely.
    pub attempts: [usize; 5],
    /// Base backoff slept after a failed attempt.
    pub backoff: Duration,
    /// Exponential growth factor applied per completed attempt.
    pub backoff_factor: f64,
    /// Hard cap on a single backoff sleep.
    pub max_backoff: Duration,
    /// Jitter fraction in `[0, 1]`: each sleep is scaled by a
    /// deterministic pseudo-random factor in `[1 − jitter, 1 + jitter]`
    /// so concurrent retries don't stampede in lockstep.
    pub jitter: f64,
    /// Seed for the jitter stream (equal seeds reproduce equal jitter).
    pub seed: u64,
    /// Consult the precision audit before the first attempt: when the
    /// rung-0 hierarchy's own setup audit already shows a 16-bit level
    /// saturating or losing more than [`RetryPolicy::audit_max_underflow`]
    /// of its couplings, the mixed-precision attempt is *known* doomed —
    /// the ladder starts directly at [`Rung::PromoteNarrow`] instead of
    /// burning rung-0 retries on it (repair cannot help either: the loss
    /// is inherent to the format, not a corruption). The evidence lands
    /// in [`RetryReport::audit`].
    pub audit_gate: bool,
    /// Underflow-loss fraction above which the audit gate declares a
    /// 16-bit level doomed. Deliberately looser than a typical `AutoShift`
    /// threshold: the gate only skips work that the audit says cannot
    /// succeed, it does not tune precision.
    pub audit_max_underflow: f64,
    /// Ring capacity of the [`RetryReport`] attempt and repair trails —
    /// the bound that keeps session evidence from growing without limit
    /// in a long-running process.
    pub report_cap: usize,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            attempts: [2, 1, 1, 1, 1],
            backoff: Duration::from_millis(2),
            backoff_factor: 2.0,
            max_backoff: Duration::from_millis(50),
            jitter: 0.5,
            seed: 0x5eed_f16a_11ad_de21,
            audit_gate: true,
            audit_max_underflow: 0.25,
            report_cap: Ring::<()>::DEFAULT_CAPACITY,
        }
    }
}

impl RetryPolicy {
    /// A policy that never retries anywhere (one attempt on rung 0 only).
    pub fn fail_fast() -> Self {
        RetryPolicy { attempts: [1, 0, 0, 0, 0], ..Self::default() }
    }

    /// The jittered backoff for global attempt number `k` (0-based).
    pub fn backoff_for(&self, k: usize) -> Duration {
        let base = self.backoff.as_secs_f64() * self.backoff_factor.max(1.0).powi(k as i32);
        let unit = jitter::unit(self.seed.wrapping_add(k as u64 + 1)); // [0, 1)
        let scaled = base * (1.0 + self.jitter.clamp(0.0, 1.0) * (2.0 * unit - 1.0));
        Duration::from_secs_f64(scaled.clamp(0.0, self.max_backoff.as_secs_f64()))
    }
}

/// Which Krylov method the session runs.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum SolverChoice {
    /// The problem's designated solver (Table 3).
    #[default]
    Auto,
    /// Preconditioned flexible CG.
    Cg,
    /// Preconditioned BiCGStab.
    BiCgStab,
    /// Restarted flexible GMRES.
    Gmres,
    /// Stationary Richardson iteration.
    Richardson,
}

/// A targeted single-event upset: one bit of one stored coefficient
/// plane of one hierarchy level (feature `fault-inject`). The flip lands
/// on the first nonzero entry of the plane, so it always corrupts a real
/// coupling the integrity sentinels must localize.
#[cfg(feature = "fault-inject")]
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
/// session (feature `fault-inject`): the harness behind the ladder tests
/// and the `repro serve` demo.
#[cfg(feature = "fault-inject")]
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
    /// exactly once — [`Rung::RepairLevel`] mends the retained
    /// hierarchy without re-exposing it, which is precisely the
    /// transient-upset model.
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
    /// Session resource bounds.
    pub budget: Budget,
    /// Escalation policy.
    pub policy: RetryPolicy,
    /// Krylov method override.
    pub solver: SolverChoice,
    /// Kernel parallelism for the outer operator (keep `Par::Seq` when
    /// the pool already parallelizes across requests).
    pub par: Par,
    /// Priority class for admission and shedding (defaults to
    /// [`Priority::Batch`]).
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
    /// Fault injection plan (`fault-inject` builds only).
    #[cfg(feature = "fault-inject")]
    pub fault: Option<FaultPlan>,
    /// Panic before doing any work, to exercise the pool's panic
    /// isolation (`fault-inject` builds only).
    #[cfg(feature = "fault-inject")]
    pub panic_in_worker: bool,
}

impl SolveRequest {
    /// A request with default options, unlimited budget, and the default
    /// retry policy.
    pub fn new(name: impl Into<String>, problem: Problem, base: MgConfig) -> Self {
        let class = problem.name.to_string();
        SolveRequest {
            name: name.into(),
            problem,
            base,
            rhs: None,
            opts: SolveOptions::default(),
            budget: Budget::unlimited(),
            policy: RetryPolicy::default(),
            solver: SolverChoice::Auto,
            par: Par::Seq,
            priority: Priority::default(),
            class,
            governor: MemGovernor::unlimited(),
            #[cfg(feature = "fault-inject")]
            fault: None,
            #[cfg(feature = "fault-inject")]
            panic_in_worker: false,
        }
    }

    /// Applies a degraded-mode profile in place and returns the typed
    /// trail of every downgrade actually performed (an event is only
    /// recorded when the knob really moved — a request already looser
    /// than the policy's ceiling yields no `TolRelaxed`, an already-tiny
    /// iteration cap no `ItersCapped`).
    ///
    /// [`DegradeProfile::Reduced`] loosens the tolerance and caps outer
    /// iterations. [`DegradeProfile::Economy`] additionally switches
    /// storage to FP16-until-`shift_levid`, imposes a hard V-cycle
    /// budget, and disables the FP64-rebuild ladder rung — the most
    /// expensive recovery has no place in shed-window work. A storage
    /// downgrade that fails validation (e.g. `shift_levid` beyond
    /// `max_levels`) is skipped rather than propagated: degradation is
    /// best-effort, never a new failure mode.
    pub fn apply_profile(
        &mut self,
        profile: DegradeProfile,
        policy: &ShedPolicy,
    ) -> Vec<DegradeEvent> {
        let mut events = Vec::new();
        if profile == DegradeProfile::Full {
            return events;
        }
        let iter_cap = match profile {
            DegradeProfile::Reduced => policy.reduced_max_iters,
            DegradeProfile::Economy => policy.economy_max_iters,
            DegradeProfile::Full => unreachable!("handled above"),
        };
        let degraded = self.opts.degrade(policy.tol_relax, policy.tol_ceiling, iter_cap);
        if degraded.tol > self.opts.tol {
            events.push(DegradeEvent::TolRelaxed { from: self.opts.tol, to: degraded.tol });
        }
        if degraded.max_iters < self.opts.max_iters {
            events.push(DegradeEvent::ItersCapped {
                from: self.opts.max_iters,
                to: degraded.max_iters,
            });
        }
        self.opts = degraded;
        if profile == DegradeProfile::Economy {
            if let Ok(cfg) = self.base.economize(policy.economy_shift_levid) {
                if cfg.storage != self.base.storage {
                    events.push(DegradeEvent::StorageEconomized {
                        shift_levid: policy.economy_shift_levid,
                    });
                }
                self.base = cfg;
            }
            let cap = policy.economy_max_vcycles;
            let capped = self.budget.max_vcycles.map_or(cap, |b| b.min(cap));
            if self.budget.max_vcycles != Some(capped) {
                self.budget.max_vcycles = Some(capped);
                events.push(DegradeEvent::VcyclesCapped { cap: capped });
            }
            let f64_rung = Rung::RebuildF64.index();
            if self.policy.attempts[f64_rung] > 0 {
                self.policy.attempts[f64_rung] = 0;
                events.push(DegradeEvent::LadderTrimmed { rung: Rung::RebuildF64.label() });
            }
        }
        events
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
    /// (eager rung promotions and internal self-healing both count).
    pub promotions: usize,
    /// Localized level repairs performed during the attempt — by the
    /// in-solve integrity hooks, or by the [`Rung::RepairLevel`] sweep
    /// that preceded the re-solve.
    pub repairs: usize,
    /// Typed failure, when the attempt did not converge.
    pub error: Option<SolveError>,
    /// Backoff slept *after* this attempt.
    pub backoff: Duration,
    /// Wall time of the attempt (setup + solve).
    pub seconds: f64,
}

/// The precision-audit evidence a session's gate decision was based on.
#[derive(Clone, Debug, Default)]
pub struct AuditSnapshot {
    /// `(level, audit)` for every 16-bit-stored level of the rung-0
    /// hierarchy, finest first.
    pub levels: Vec<(usize, RangeAudit)>,
    /// True when the gate skipped [`Rung::Retry`] and started the ladder
    /// at [`Rung::PromoteNarrow`].
    pub skipped_retry: bool,
    /// Human-readable justification when `skipped_retry` is set.
    pub reason: Option<String>,
}

/// Every rung taken by a session, in order. Both trails are
/// ring-bounded (capacity [`RetryPolicy::report_cap`]): the most recent
/// evidence survives, older entries are counted and evicted.
#[derive(Clone, Debug, Default)]
pub struct RetryReport {
    /// The most recent attempts, in execution order.
    pub attempts: Ring<Attempt>,
    /// The pre-solve precision audit, when the gate ran (see
    /// [`RetryPolicy::audit_gate`]).
    pub audit: Option<AuditSnapshot>,
    /// The most recent localized level repairs, in execution order
    /// (in-solve integrity hooks and the [`Rung::RepairLevel`] sweeps
    /// both land here).
    pub repairs: Ring<RepairEvent>,
}

impl RetryReport {
    /// An empty report whose trails keep at most `cap` entries each.
    pub fn with_capacity(cap: usize) -> Self {
        RetryReport { attempts: Ring::new(cap), audit: None, repairs: Ring::new(cap) }
    }

    /// The rung of each attempt, in order (e.g. `[Retry, Retry,
    /// PromoteNarrow]`).
    pub fn rung_sequence(&self) -> Vec<Rung> {
        self.attempts.iter().map(|a| a.rung).collect()
    }

    /// The highest rung reached, if any attempt ran.
    pub fn final_rung(&self) -> Option<Rung> {
        self.attempts.last().map(|a| a.rung)
    }

    /// Compact `retry→repair-level→promote16→32` display string.
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
    /// V-cycle applications summed over all attempts (integrity
    /// verification sweeps charge this counter too).
    pub vcycles: usize,
    /// Session wall time, backoffs included.
    pub seconds: f64,
}

impl SessionOutcome {
    /// True when the session converged.
    pub fn converged(&self) -> bool {
        self.result.is_ok()
    }
}

/// The rung-0 hierarchy, kept alive across [`Rung::Retry`] attempts so
/// [`Rung::RepairLevel`] can mend it in place instead of rebuilding.
/// Escalation to [`Rung::PromoteNarrow`] or beyond drops it.
struct Retained {
    mg: Option<Mg<f32>>,
    /// Charge receipts for `mg`'s stored levels and workspace arena;
    /// dropped (credited back) together with the hierarchy. `None` while
    /// `mg` is uncharged — a prebuilt hierarchy is charged on first use
    /// by the rung-0 attempt.
    charges: Option<HierarchyCharges>,
    /// True once the fault plan has been applied to `mg`: each build is
    /// corrupted exactly once (re-flipping the same bit would undo it).
    #[cfg(feature = "fault-inject")]
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
    promotions: usize,
    /// Level repairs performed during this attempt.
    repairs: Vec<RepairEvent>,
    x: Vec<f64>,
}

/// Runs one solve request through the retry ladder under its budget.
///
/// The session is synchronous and cooperative: it returns a typed
/// [`SessionOutcome`] for every way a solve can end — convergence,
/// ladder exhaustion ([`SolveError::Unconverged`] or the last numerical
/// failure), deadline ([`SolveError::DeadlineExceeded`]), cancellation
/// ([`SolveError::Cancelled`]), or V-cycle budget exhaustion — and never
/// panics on solver failures. (Panics from bugs are contained by
/// [`crate::ServePool`], not here.)
pub fn run_session(req: &SolveRequest) -> SessionOutcome {
    run_session_with(req, None)
}

/// [`run_session`] with an optionally prebuilt rung-0 hierarchy, the
/// entry point behind the serve pool's hierarchy cache: a `prebuilt`
/// hierarchy seeds the retained rung-0 state (skipping the gate's own
/// setup) but still passes the audit gate's doomed-level check — a
/// cached hierarchy whose audit shows inherent format loss escalates
/// exactly like a freshly built one.
pub fn run_session_with(req: &SolveRequest, prebuilt: Option<Mg<f32>>) -> SessionOutcome {
    #[cfg(feature = "fault-inject")]
    if req.panic_in_worker {
        panic!("injected worker panic (fault-inject): request '{}'", req.name);
    }

    let t0 = Instant::now();
    let mut guard = BudgetGuard::arm(req.budget.clone());
    let mut report = RetryReport::with_capacity(req.policy.report_cap);
    let mut last_err: Option<SolveError> = None;
    let mut last_rel = f64::NAN;
    let mut global_attempt = 0usize;
    let mut retained = Retained {
        mg: prebuilt,
        charges: None,
        #[cfg(feature = "fault-inject")]
        injected: false,
    };

    // --- Pre-solve audit gate: don't burn retries on a hierarchy whose
    // own setup audit already shows a doomed 16-bit level. The gate's
    // build is not wasted — a healthy hierarchy is handed to the first
    // rung-0 attempt as-is (and a prebuilt one is audited in place, no
    // build at all).
    let mut start_rung = 0usize;
    if req.policy.audit_gate && req.policy.attempts[Rung::Retry.index()] > 0 {
        if retained.mg.is_none() {
            // A setup failure here is not terminal: the first rung-0
            // attempt repeats the setup and reports the typed error
            // through the normal attempt bookkeeping.
            retained.mg = Mg::<f32>::setup(&req.problem.matrix, &req.base).ok();
        }
        if let Some(mg) = retained.mg.as_ref() {
            let levels: Vec<(usize, RangeAudit)> = mg
                .info()
                .levels
                .iter()
                .enumerate()
                .filter(|(_, l)| matches!(l.precision, Precision::F16 | Precision::BF16))
                .filter_map(|(i, l)| l.audit.clone().map(|a| (i, a)))
                .collect();
            let threshold = req.policy.audit_max_underflow;
            let doomed = levels.iter().find(|(_, a)| audit_rejects(a, threshold));
            let reason = doomed.map(|(i, a)| {
                if !a.overflow_free() {
                    format!(
                        "level {i} audit: {} saturating / {} non-finite entries in 16-bit storage",
                        a.saturate, a.source_non_finite
                    )
                } else {
                    format!(
                        "level {i} audit: underflow loss {:.1}% exceeds gate threshold {:.1}%",
                        a.underflow_loss_fraction() * 100.0,
                        threshold * 100.0
                    )
                }
            });
            let skipped_retry = reason.is_some();
            if skipped_retry {
                // Inherent format loss, not corruption — repair cannot
                // help, so the ladder starts past RepairLevel too.
                start_rung = Rung::PromoteNarrow.index();
                retained.mg = None;
                retained.charges = None;
            }
            report.audit = Some(AuditSnapshot { levels, skipped_retry, reason });
        }
    }

    'ladder: for rung in Rung::ALL.into_iter().skip(start_rung) {
        let mut rung_try = 0usize;
        while rung_try < req.policy.attempts[rung.index()] {
            // Session-level pre-checks: a deadline or cancellation that
            // fired between attempts (e.g. during backoff) ends the
            // ladder before any setup work is spent.
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
                // The rung has nothing to do (RepairLevel with no
                // retained hierarchy or nothing repaired): move on
                // without recording an attempt.
                Ok(None) => continue 'ladder,
                Err(setup_err) => {
                    global_attempt += 1;
                    rung_try += 1;
                    // Same config ⇒ same setup failure: skip the rest of
                    // this rung and escalate.
                    report.attempts.push(Attempt {
                        rung,
                        try_no: rung_try - 1,
                        converged: false,
                        iters: 0,
                        rel: last_rel,
                        promotions: 0,
                        repairs: 0,
                        error: Some(setup_err.clone()),
                        backoff: Duration::ZERO,
                        seconds,
                    });
                    last_err = Some(setup_err);
                    continue 'ladder;
                }
                Ok(Some(out)) => {
                    global_attempt += 1;
                    rung_try += 1;
                    let AttemptOutput { result, promotions, repairs, x } = out;
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
                    let more_attempts_possible =
                        !converged && error.as_ref().map(|e| e.retryable()).unwrap_or(false);
                    let backoff = if more_attempts_possible {
                        let b = req.policy.backoff_for(global_attempt - 1);
                        match guard.remaining() {
                            Some(left) => b.min(left),
                            None => b,
                        }
                    } else {
                        Duration::ZERO
                    };
                    report.attempts.push(Attempt {
                        rung,
                        try_no: rung_try - 1,
                        converged,
                        iters: result.iters,
                        rel: result.final_rel_residual,
                        promotions,
                        repairs: repairs.len(),
                        error: error.clone(),
                        backoff,
                        seconds,
                    });
                    report.repairs.extend(repairs);
                    if converged {
                        let iters = guard.iters_done();
                        let vcycles = guard.vcycles();
                        return SessionOutcome {
                            result: Ok(result),
                            solution: Some(x),
                            report,
                            iters,
                            vcycles,
                            seconds: t0.elapsed().as_secs_f64(),
                        };
                    }
                    let e = error.expect("non-converged attempt always carries an error");
                    let final_err = !e.retryable();
                    last_err = Some(e);
                    if final_err {
                        break 'ladder;
                    }
                    if !backoff.is_zero() {
                        std::thread::sleep(backoff);
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
        vcycles: guard.vcycles(),
        seconds: t0.elapsed().as_secs_f64(),
    }
}

/// Obtains the hierarchy for `rung` (retained, repaired, or freshly
/// built) and runs one solver attempt under the guard. `Ok(None)` means
/// the rung does not apply and no attempt was made; `Err` is a typed
/// setup failure.
fn run_rung_attempt(
    req: &SolveRequest,
    rung: Rung,
    opts: &SolveOptions,
    guard: &mut BudgetGuard,
    retained: &mut Retained,
) -> Result<Option<AttemptOutput>, SolveError> {
    let setup_err = |e: fp16mg_core::SetupError| SolveError::SetupFailed { message: e.to_string() };
    match rung {
        Rung::Retry => {
            // The audit gate's healthy build seeds the retained
            // hierarchy; it survives failed attempts so RepairLevel can
            // mend it in place later.
            if retained.mg.is_none() {
                retained.mg =
                    Some(Mg::<f32>::setup(&req.problem.matrix, &req.base).map_err(setup_err)?);
                #[cfg(feature = "fault-inject")]
                {
                    retained.injected = false;
                }
            }
            // Invariant: a retained hierarchy is always charged. A
            // prebuilt (cached) or gate-built hierarchy is charged here
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
            #[cfg(feature = "fault-inject")]
            if !retained.injected {
                retained.injected = true;
                inject_if_armed(req, rung, mg);
            }
            let bases = (mg.promotions().len(), mg.repairs().len());
            Ok(Some(attempt_with(req, mg, opts, guard, bases)))
        }
        Rung::RepairLevel => {
            // Cheapest escalation: a sentinel sweep over the *retained*
            // rung-0 hierarchy localizes corrupted coefficient planes
            // and re-truncates just those levels from their retained
            // high-precision parents — no rebuild. The re-solve runs
            // when the sweep repaired something now, or when the
            // in-solve integrity hooks repaired during the failed retry
            // (the mended hierarchy deserves one clean shot before the
            // ladder escalates to a rebuild).
            let Some(mg) = retained.mg.as_mut() else { return Ok(None) };
            let bases = (mg.promotions().len(), mg.repairs().len());
            let repaired_in_solve = !mg.repairs().is_empty();
            let swept = mg.verify_and_repair(RepairTrigger::Requested);
            if swept.is_empty() && !repaired_in_solve {
                return Ok(None);
            }
            Ok(Some(attempt_with(req, mg, opts, guard, bases)))
        }
        Rung::PromoteNarrow => {
            // A rebuild abandons the repairable hierarchy for good
            // (and credits its bytes back before building the next one).
            retained.mg = None;
            retained.charges = None;
            // Promotion needs recovery bookkeeping (retained coarse-level
            // sources), whatever the caller's policy says; the request's
            // operator is level 0's.
            let mut cfg = req.base.clone();
            cfg.recovery =
                RecoveryPolicy { enabled: true, max_promotions: usize::MAX, ..cfg.recovery };
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
            #[cfg(feature = "fault-inject")]
            inject_if_armed(req, rung, &mut mg);
            Ok(Some(attempt_with(req, &mut mg, opts, guard, (0, 0))))
        }
        Rung::RebuildF32 => {
            retained.mg = None;
            retained.charges = None;
            let mut cfg = req.base.clone();
            cfg.storage = StoragePolicy::Uniform(Precision::F32);
            let mut mg = Mg::<f32>::setup(&req.problem.matrix, &cfg).map_err(setup_err)?;
            let _charges = charge_hierarchy(req, &mg)?;
            #[cfg(feature = "fault-inject")]
            inject_if_armed(req, rung, &mut mg);
            Ok(Some(attempt_with(req, &mut mg, opts, guard, (0, 0))))
        }
        Rung::RebuildF64 => {
            retained.mg = None;
            retained.charges = None;
            let mut cfg = req.base.clone();
            cfg.storage = StoragePolicy::Uniform(Precision::F64);
            let mut mg = Mg::<f64>::setup(&req.problem.matrix, &cfg).map_err(setup_err)?;
            let _charges = charge_hierarchy(req, &mg)?;
            #[cfg(feature = "fault-inject")]
            inject_if_armed(req, rung, &mut mg);
            Ok(Some(attempt_with(req, &mut mg, opts, guard, (0, 0))))
        }
    }
}

/// Adopts the hierarchy's cycle counter and runs the chosen solver once.
/// `bases` are the hierarchy's promotion/repair counts at attempt start,
/// so a retained hierarchy reports per-attempt deltas.
fn attempt_with<Pr: Scalar>(
    req: &SolveRequest,
    mg: &mut Mg<Pr>,
    opts: &SolveOptions,
    guard: &mut BudgetGuard,
    (promotions_base, repairs_base): (usize, usize),
) -> AttemptOutput {
    guard.adopt_cycles(mg.cycle_counter());
    let op = MatOp::new(&req.problem.matrix, req.par);
    let b = match &req.rhs {
        Some(b) => b.clone(),
        None => req.problem.rhs(),
    };
    let mut x = vec![0.0f64; req.problem.matrix.rows()];
    let solver = match (req.solver, req.problem.solver) {
        (SolverChoice::Cg, _) | (SolverChoice::Auto, SolverKind::Cg) => SolverChoice::Cg,
        (SolverChoice::Gmres, _) | (SolverChoice::Auto, SolverKind::Gmres) => SolverChoice::Gmres,
        (choice, _) => choice,
    };
    // The request's operator insures level 0 for the solve.
    let m = &mut mg.insured(&req.problem.matrix);
    let result = match solver {
        SolverChoice::Cg => cg_ctl(&op, m, &b, &mut x, opts, guard),
        SolverChoice::Gmres => gmres_ctl(&op, m, &b, &mut x, opts, guard),
        SolverChoice::BiCgStab => bicgstab_ctl(&op, m, &b, &mut x, opts, guard),
        SolverChoice::Richardson => richardson_ctl(&op, m, &b, &mut x, opts, guard),
        SolverChoice::Auto => unreachable!("Auto resolved above"),
    };
    AttemptOutput {
        result,
        promotions: mg.promotions().len().saturating_sub(promotions_base),
        repairs: mg.repairs()[repairs_base.min(mg.repairs().len())..].to_vec(),
        x,
    }
}

/// Applies the request's fault plan to a freshly built hierarchy when
/// the plan is armed for this rung (`rung < sticky_until`).
#[cfg(feature = "fault-inject")]
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
#[cfg(feature = "fault-inject")]
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
