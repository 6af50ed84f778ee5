//! The `repro serve` demo: a batch of concurrent resilient solve
//! sessions through `fp16mg_runtime`.
//!
//! Builds a mixed batch — clean problems, fault-injected hierarchies
//! that must climb the retry ladder, a request with a deliberately
//! impossible tolerance, one bounded by a wall-clock deadline, and one
//! that panics its worker — runs them all on the concurrent pool, and
//! prints a per-request outcome table. The point of the demo: every
//! request ends in a *typed* outcome, the panic is isolated to its own
//! request, and the fault-injected requests converge anyway with their
//! rung sequence on record.
//!
//! Two more `ServePool` demos live here: `serve --overload` (admission,
//! shedding, circuit breaking over four waves) and `serve --daemon
//! --chaos` (wedge detection and quarantine on the daemon's pool shape).

use std::time::Duration;

use fp16mg_core::{IntegrityPolicy, MgConfig, RecoveryPolicy};
use fp16mg_krylov::{HealthPolicy, SolveError, SolveOptions};
use fp16mg_problems::{ProblemKind, SolverKind};
use fp16mg_runtime::serve::pool_cfg;
use fp16mg_runtime::{
    AdmissionConfig, AdmissionError, BreakerConfig, BreakerState, BreakerTransition, Budget,
    FaultPlan, LevelBitFlip, PoolConfig, Priority, RequestOutcome, RetryPolicy, Rung, ServeError,
    ServePool, ShedPolicy, SolveRequest, SolverChoice, SuperviseConfig,
};
use fp16mg_sgdia::fault::FaultSpec;

use crate::table::Table;

/// Knobs of the serve demo, filled from the `repro` command line.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Number of requests in the batch.
    pub requests: usize,
    /// Worker threads in the pool.
    pub workers: usize,
    /// Problem base extent.
    pub size: usize,
    /// Convergence tolerance for the well-posed requests.
    pub tol: f64,
    /// Deadline for the deadline-limited scenario, in milliseconds.
    pub deadline_ms: f64,
    /// Chaos mode: mix seeded bit-flip memory corruption into the batch
    /// so the integrity sentinels and the `repair-level` rung must keep
    /// the pool healthy.
    pub chaos: bool,
}

/// One short scenario tag per request, cycled over the batch.
const SCENARIOS: [&str; 8] = [
    "clean",
    "fault→promote",
    "clean",
    "fault→f32",
    "panic",
    "deadline",
    "fault→f64",
    "no-converge",
];

/// The `--chaos` batch: single-event bit-flip upsets in mid-hierarchy
/// FP16 coefficient planes, alongside clean solves, a rate-based fault
/// climber, and a worker panic — request isolation must hold under
/// memory faults too.
const CHAOS_SCENARIOS: [&str; 8] = [
    "flip→repair",
    "clean",
    "flip→repair",
    "flip→anomaly",
    "panic",
    "flip→repair",
    "fault→promote",
    "flip→anomaly",
];

/// Off-diagonal taps of the 27-point pattern whose level-1 couplings are
/// small enough that an exponent-MSB upset is catastrophic (verified by
/// the runtime integrity tests): each chaos flip lands on one of these.
const FLIP_TAPS: [usize; 6] = [0, 2, 5, 9, 17, 26];

fn build_requests(cfg: &ServeConfig) -> Vec<SolveRequest> {
    let kinds = [ProblemKind::Laplace27, ProblemKind::Rhd, ProblemKind::Oil, ProblemKind::Weather];
    let scenarios: &[&'static str] = if cfg.chaos { &CHAOS_SCENARIOS } else { &SCENARIOS };
    let n = cfg.size;
    (0..cfg.requests)
        .map(|i| {
            let scenario = scenarios[i % scenarios.len()];
            let kind = kinds[i % kinds.len()];
            let name = format!("{scenario}#{i:02}");
            match scenario {
                "fault→promote" | "fault→f32" | "fault→f64" => {
                    let sticky = match scenario {
                        "fault→promote" => Rung::PromoteNarrow,
                        "fault→f32" => Rung::RebuildF32,
                        _ => Rung::RebuildF64,
                    };
                    // In-hierarchy self-healing off: the *ladder* must fix it.
                    let mut base = MgConfig::d16();
                    base.recovery = RecoveryPolicy::disabled();
                    let mut req = SolveRequest::new(name, ProblemKind::Laplace27.build(n), base);
                    req.opts.tol = cfg.tol;
                    req.policy = RetryPolicy {
                        attempts: [1, 1, 1, 1, 1],
                        backoff: Duration::from_micros(200),
                        seed: 0xfeed ^ i as u64,
                        ..RetryPolicy::default()
                    };
                    req.fault = Some(FaultPlan {
                        spec: FaultSpec::inf(0.02, 0xfeed ^ i as u64),
                        flip: None,
                        sticky_until: sticky,
                    });
                    req
                }
                "flip→repair" | "flip→anomaly" => {
                    // A single-event upset in a mid-hierarchy FP16 plane.
                    // Self-healing promotion off, full ABFT on: the
                    // sentinels must detect, localize, and repair. The
                    // problem extent is pinned to 12 so the d16 hierarchy
                    // always has a 16-bit mid level (level 1) to corrupt,
                    // and Richardson is chosen because multigrid-as-solver
                    // feels a poisoned level immediately.
                    let mut base = MgConfig::d16();
                    base.recovery = RecoveryPolicy::disabled();
                    base.integrity = IntegrityPolicy::armed(0);
                    base.integrity.verify_on_anomaly = scenario == "flip→anomaly";
                    let mut req = SolveRequest::new(name, ProblemKind::Laplace27.build(12), base);
                    req.solver = SolverChoice::Richardson;
                    req.opts.tol = cfg.tol.max(1e-6);
                    req.opts.max_iters = 40;
                    req.policy = RetryPolicy {
                        attempts: [1, 1, 1, 1, 1],
                        backoff: Duration::from_micros(200),
                        seed: 0xab15 ^ i as u64,
                        ..RetryPolicy::default()
                    };
                    req.fault = Some(FaultPlan {
                        spec: FaultSpec::none(0xab15 ^ i as u64),
                        flip: Some(LevelBitFlip {
                            level: 1,
                            tap: FLIP_TAPS[i % FLIP_TAPS.len()],
                            bit: 14,
                        }),
                        sticky_until: Rung::PromoteNarrow,
                    });
                    req
                }
                "panic" => {
                    let mut req =
                        SolveRequest::new(name, ProblemKind::Laplace27.build(n), MgConfig::d16());
                    req.panic_in_worker = true;
                    req
                }
                "deadline" => {
                    // An endless solve (tolerance zero, stagnation detection
                    // off) that only the wall-clock budget can stop.
                    let mut req =
                        SolveRequest::new(name, ProblemKind::Laplace27.build(n), MgConfig::d16());
                    req.opts = SolveOptions {
                        tol: 0.0,
                        health: HealthPolicy::disabled(),
                        record_history: false,
                        ..Default::default()
                    };
                    req.budget = Budget::with_deadline(Duration::from_secs_f64(
                        (cfg.deadline_ms * 1e-3).max(1e-3),
                    ));
                    req
                }
                "no-converge" => {
                    let mut req =
                        SolveRequest::new(name, ProblemKind::Laplace27.build(n), MgConfig::d16());
                    req.opts = SolveOptions {
                        tol: 0.0,
                        max_iters: 25,
                        health: HealthPolicy::disabled(),
                        record_history: false,
                        ..Default::default()
                    };
                    req.budget.max_iters = Some(50);
                    req
                }
                _ => {
                    let mut req = SolveRequest::new(name, kind.build(n), MgConfig::d16());
                    req.opts.tol = cfg.tol;
                    req
                }
            }
        })
        .collect()
}

fn outcome_label(outcome: &RequestOutcome) -> &'static str {
    match &outcome.result {
        Ok(_) => "converged",
        Err(ServeError::Rejected(e)) => e.label(),
        Err(ServeError::Session(SolveError::Breakdown(_))) => "breakdown",
        Err(ServeError::Session(SolveError::Stagnated(_))) => "stagnated",
        Err(ServeError::Session(SolveError::DeadlineExceeded { .. })) => "deadline",
        Err(ServeError::Session(SolveError::Cancelled { .. })) => "cancelled",
        Err(ServeError::Session(SolveError::VcycleBudgetExceeded { .. })) => "vcycle-budget",
        Err(ServeError::Session(SolveError::Unconverged { .. })) => "unconverged",
        Err(ServeError::Session(SolveError::SetupFailed { .. })) => "setup-failed",
        Err(ServeError::Session(SolveError::WorkerPanicked { .. })) => "panicked(isolated)",
    }
}

/// Runs the batch and prints the outcome table. Returns the outcomes so
/// integration tests can assert on them.
pub fn serve(cfg: &ServeConfig) -> Vec<RequestOutcome> {
    let requests = build_requests(cfg);
    let meta: Vec<(&'static str, SolverKind, SolverChoice)> =
        requests.iter().map(|r| (r.problem.name, r.problem.solver, r.solver)).collect();
    println!(
        "dispatching {} requests on {} workers (size {}, tol {:.0e}, deadline {:.0} ms{})",
        requests.len(),
        cfg.workers,
        cfg.size,
        cfg.tol,
        cfg.deadline_ms,
        if cfg.chaos { ", chaos: seeded bit flips armed" } else { "" }
    );

    // Injected worker panics are expected and contained; keep their
    // default stderr traces out of the report.
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let outcomes = ServePool::new(PoolConfig::unbounded(cfg.workers)).run(requests);
    std::panic::set_hook(hook);

    let mut t = Table::new(&[
        "req",
        "problem",
        "solver",
        "outcome",
        "rungs",
        "repairs",
        "iters",
        "vcycles",
        "rel.resid",
        "time",
    ]);
    for out in &outcomes {
        let rel = match &out.result {
            Ok(res) => Some(res.final_rel_residual),
            Err(_) => out.report.attempts.last().map(|a| a.rel),
        };
        let (problem, solver_kind, choice) = meta[out.index];
        let solver = match choice {
            SolverChoice::Cg => "cg",
            SolverChoice::Gmres => "gmres",
            SolverChoice::BiCgStab => "bicgstab",
            SolverChoice::Richardson => "richardson",
            SolverChoice::Auto => match solver_kind {
                SolverKind::Cg => "cg",
                SolverKind::Gmres => "gmres",
            },
        };
        let repairs = out
            .report
            .repairs
            .iter()
            .map(|e| {
                let taps: Vec<String> = e.taps.iter().map(|t| format!("t{t}")).collect();
                format!("L{}:{}", e.level, taps.join("+"))
            })
            .collect::<Vec<_>>()
            .join(";");
        t.row(vec![
            out.name.clone(),
            problem.to_string(),
            solver.to_string(),
            outcome_label(out).to_string(),
            if out.report.attempts.is_empty() { "-".into() } else { out.report.summary() },
            if repairs.is_empty() { "-".into() } else { repairs },
            out.iters.to_string(),
            out.vcycles.to_string(),
            rel.map(|r| format!("{r:9.2e}")).unwrap_or_else(|| "-".into()),
            format!("{:7.1} ms", out.seconds * 1e3),
        ]);
    }
    print!("{t}");

    let converged = outcomes.iter().filter(|o| o.converged()).count();
    let panicked = outcomes
        .iter()
        .filter(|o| matches!(o.result, Err(ServeError::Session(SolveError::WorkerPanicked { .. }))))
        .count();
    let healed = outcomes.iter().filter(|o| o.converged() && o.report.attempts.len() > 1).count();
    let repaired: usize = outcomes.iter().map(|o| o.report.repairs.len()).sum();
    println!(
        "\n{converged}/{} converged ({healed} via retry-ladder escalation, \
         {repaired} localized level repair(s)), \
         {panicked} worker panic(s) isolated, every outcome typed, process intact",
        outcomes.len()
    );
    outcomes
}

// ------------------------------------------------------------ overload --

/// Knobs of the `repro serve --overload` demo.
#[derive(Clone, Debug)]
pub struct OverloadConfig {
    /// Problem base extent (kept small: this demo is about admission, not
    /// numerics).
    pub size: usize,
    /// Convergence tolerance for the healthy requests.
    pub tol: f64,
    /// Worker threads executing admitted requests.
    pub workers: usize,
}

/// What the overload demo produced, for the acceptance checks and the
/// integration test.
#[derive(Debug)]
pub struct OverloadReport {
    /// `(wave name, outcomes)` in execution order.
    pub waves: Vec<(&'static str, Vec<RequestOutcome>)>,
    /// Every breaker state change observed, in order.
    pub transitions: Vec<BreakerTransition>,
    /// Acceptance-criteria violations (empty on a healthy run).
    pub violations: Vec<String>,
}

impl OverloadReport {
    /// All outcomes across all waves.
    pub fn outcomes(&self) -> impl Iterator<Item = &RequestOutcome> {
        self.waves.iter().flat_map(|(_, o)| o.iter())
    }
}

/// A healthy, quickly converging request of the given class/priority.
fn healthy_request(
    name: String,
    class: &str,
    priority: Priority,
    size: usize,
    tol: f64,
) -> SolveRequest {
    let mut req = SolveRequest::new(name, ProblemKind::Laplace27.build(size), MgConfig::d16());
    req.class = class.to_string();
    req.priority = priority;
    req.opts.tol = tol;
    req.opts.record_history = false;
    if priority == Priority::Interactive {
        // Generous deadline: exercises the slack component of the
        // pressure signal without ever being the thing that fails.
        req.budget = Budget::with_deadline(Duration::from_secs(30));
    }
    req
}

/// A deterministically failing request: tolerance zero, health checks
/// off, four iterations, no retries — terminal `Unconverged`, fast.
fn poisoned_request(name: String, size: usize) -> SolveRequest {
    let mut req = SolveRequest::new(name, ProblemKind::Laplace27.build(size), MgConfig::d16());
    req.class = "poison".to_string();
    req.opts = SolveOptions {
        tol: 0.0,
        health: HealthPolicy::disabled(),
        record_history: false,
        ..Default::default()
    };
    req.budget.max_iters = Some(4);
    req.policy = RetryPolicy::fail_fast();
    req
}

fn overload_pool(cfg: &OverloadConfig) -> ServePool {
    ServePool::new(PoolConfig {
        workers: cfg.workers,
        admission: AdmissionConfig {
            capacity: 8,
            per_priority: [6, 6, 4],
            est_service: Duration::from_millis(50),
        },
        shed: ShedPolicy {
            reduce_at: 0.4,
            economy_at: 0.7,
            shed_at: [f64::INFINITY, 0.95, 0.6],
            ..ShedPolicy::default()
        },
        breaker: BreakerConfig {
            window: 6,
            min_samples: 4,
            failure_threshold: 0.5,
            cooldown: 3,
            cooldown_jitter: 0,
            probes: 1,
            probe_successes: 1,
            ..BreakerConfig::default()
        },
        ..PoolConfig::default()
    })
}

fn print_wave(title: &str, outcomes: &[RequestOutcome]) {
    println!("\n--- wave: {title} ---");
    let mut t = Table::new(&[
        "req",
        "prio",
        "class",
        "admission",
        "profile",
        "outcome",
        "degrades",
        "iters",
        "rel.resid",
        "time",
    ]);
    for out in outcomes {
        let admission = match (&out.result, out.probe) {
            (Err(ServeError::Rejected(e)), _) => e.label().to_string(),
            (_, true) => "probe".to_string(),
            _ => "admitted".to_string(),
        };
        let degrades = out.degrades.iter().map(|e| e.to_string()).collect::<Vec<_>>().join("; ");
        let rel = match &out.result {
            Ok(res) => Some(res.final_rel_residual),
            Err(_) => out.report.attempts.last().map(|a| a.rel),
        };
        t.row(vec![
            out.name.clone(),
            out.priority.label().to_string(),
            out.class.clone(),
            admission,
            out.profile.label().to_string(),
            outcome_label(out).to_string(),
            if degrades.is_empty() { "-".into() } else { degrades },
            out.iters.to_string(),
            rel.map(|r| format!("{r:9.2e}")).unwrap_or_else(|| "-".into()),
            format!("{:7.1} ms", out.seconds * 1e3),
        ]);
    }
    print!("{t}");
}

/// Runs the overload-protection acceptance demo: four deterministic
/// waves through one [`ServePool`] (breaker state persists across
/// waves).
///
/// 1. **overload** — 18 healthy mixed-priority requests against a
///    capacity-8 queue: BestEffort is shed first under rising pressure,
///    admitted work degrades (Reduced, then Economy) and still
///    converges, the rest is refused `queue-full`. Interactive is never
///    shed.
/// 2. **poison** — five deterministically failing requests of one
///    problem class trip that class's breaker (Closed → Open).
/// 3. **recovery** — healthy requests of the poisoned class: the first
///    are refused `breaker-open` while the cooldown counts down, then
///    one is admitted as the half-open probe, converges, and closes the
///    breaker.
/// 4. **recovered** — the class serves normally again.
///
/// Every request across all waves ends typed: converged (possibly with
/// a [`fp16mg_runtime::DegradeEvent`] trail) or rejected with a typed
/// `AdmissionError`. Violations of these invariants are collected in
/// the report — and there should be none.
pub fn serve_overload(cfg: &OverloadConfig) -> OverloadReport {
    let size = cfg.size.clamp(6, 12);
    let mut pool = overload_pool(cfg);
    println!(
        "overload demo: queue capacity 8 (per-priority 6/6/4), {} workers, \
         shed at pressure 0.6 (best-effort) / 0.95 (batch) / never (interactive), \
         degrade at 0.4 (reduced) / 0.7 (economy), breaker window 6 @ 50% over ≥4 samples",
        cfg.workers
    );

    // Wave 1: oversubscription. 18 requests, priorities cycling
    // interactive → batch → best-effort, all of one healthy class.
    let wave1: Vec<SolveRequest> = (0..18)
        .map(|i| {
            let priority = Priority::ALL[i % 3];
            healthy_request(format!("{}#{i:02}", priority.label()), "mix", priority, size, cfg.tol)
        })
        .collect();
    let out1 = pool.run(wave1);
    print_wave("overload (18 mixed-priority requests, capacity 8)", &out1);

    // Wave 2: a poisoned class trips its breaker.
    let wave2: Vec<SolveRequest> =
        (0..5).map(|i| poisoned_request(format!("poison#{i:02}"), size)).collect();
    let out2 = pool.run(wave2);
    print_wave("poison (5 terminal failures in class 'poison')", &out2);

    // Wave 3: cooldown, then the half-open probe heals the class.
    let wave3: Vec<SolveRequest> = (0..3)
        .map(|i| {
            healthy_request(format!("recover#{i:02}"), "poison", Priority::Batch, size, cfg.tol)
        })
        .collect();
    let out3 = pool.run(wave3);
    print_wave("recovery (healthy 'poison'-class requests vs the open breaker)", &out3);

    // Wave 4: the class is healthy again.
    let wave4: Vec<SolveRequest> = (0..4)
        .map(|i| {
            healthy_request(format!("healed#{i:02}"), "poison", Priority::Batch, size, cfg.tol)
        })
        .collect();
    let out4 = pool.run(wave4);
    print_wave("recovered (breaker closed again)", &out4);

    let transitions = pool.breakers().transitions().to_vec();
    println!("\nbreaker transitions:");
    for tr in &transitions {
        println!("  {tr}");
    }

    let waves: Vec<(&'static str, Vec<RequestOutcome>)> =
        vec![("overload", out1), ("poison", out2), ("recovery", out3), ("recovered", out4)];
    let violations = check_overload(&waves, &transitions);
    if violations.is_empty() {
        let total: usize = waves.iter().map(|(_, o)| o.len()).sum();
        println!(
            "\nall {total} requests ended typed (admitted+converged, admitted+degraded \
             with event trail, or rejected with a typed AdmissionError); \
             best-effort shed first, interactive never shed; breaker opened on the \
             poisoned class and recovered via its half-open probe"
        );
    } else {
        println!("\nACCEPTANCE VIOLATIONS:");
        for v in &violations {
            println!("  - {v}");
        }
    }
    OverloadReport { waves, transitions, violations }
}

/// The acceptance checks of the overload demo, as data.
fn check_overload(
    waves: &[(&'static str, Vec<RequestOutcome>)],
    transitions: &[BreakerTransition],
) -> Vec<String> {
    let mut v = Vec::new();
    let wave = |name: &str| {
        waves.iter().find(|(n, _)| *n == name).map(|(_, o)| o.as_slice()).unwrap_or(&[])
    };

    // Universal: nothing untyped, nothing panicked, solutions for every Ok.
    for (name, outcomes) in waves {
        for out in outcomes.iter() {
            if let Err(ServeError::Session(SolveError::WorkerPanicked { .. })) = out.result {
                v.push(format!("{name}/{}: worker panic in an overload wave", out.name));
            }
            if out.converged() && out.solution.is_none() {
                v.push(format!("{name}/{}: converged without a solution", out.name));
            }
        }
    }

    // Wave 1: bounded queueing, shed order, degraded convergence.
    let o1 = wave("overload");
    let admitted = o1.iter().filter(|o| o.rejection().is_none()).count();
    if admitted > 8 {
        v.push(format!("overload: {admitted} admitted past the capacity-8 queue"));
    }
    let shed: Vec<_> =
        o1.iter().filter(|o| matches!(o.rejection(), Some(AdmissionError::Shed { .. }))).collect();
    if shed.is_empty() {
        v.push("overload: nothing was shed".into());
    }
    if let Some(first) = shed.first() {
        if first.priority != Priority::BestEffort {
            v.push(format!("overload: first shed was {}, not best-effort", first.priority));
        }
    }
    if shed.iter().any(|o| o.priority == Priority::Interactive) {
        v.push("overload: an interactive request was shed".into());
    }
    if !o1.iter().any(|o| matches!(o.rejection(), Some(AdmissionError::QueueFull { .. }))) {
        v.push("overload: the queue bound never engaged".into());
    }
    let degraded_ok = o1.iter().filter(|o| o.degraded() && o.converged()).count();
    if degraded_ok == 0 {
        v.push("overload: no degraded request converged".into());
    }
    if o1.iter().any(|o| o.degraded() && o.degrades.is_empty()) {
        v.push("overload: a degraded request has no DegradeEvent trail".into());
    }
    for out in o1.iter().filter(|o| o.rejection().is_none()) {
        if !out.converged() {
            v.push(format!("overload/{}: admitted healthy request failed", out.name));
        }
    }

    // Waves 2–4: the breaker story.
    let seq: Vec<(BreakerState, BreakerState)> =
        transitions.iter().filter(|t| t.class == "poison").map(|t| (t.from, t.to)).collect();
    let expect = [
        (BreakerState::Closed, BreakerState::Open),
        (BreakerState::Open, BreakerState::HalfOpen),
        (BreakerState::HalfOpen, BreakerState::Closed),
    ];
    if seq != expect {
        v.push(format!("breaker: transition sequence {seq:?}, expected {expect:?}"));
    }
    let o3 = wave("recovery");
    let open_rejects = o3
        .iter()
        .filter(|o| matches!(o.rejection(), Some(AdmissionError::BreakerOpen { .. })))
        .count();
    if open_rejects == 0 {
        v.push("recovery: the open breaker never rejected anything".into());
    }
    match o3.iter().find(|o| o.probe) {
        Some(probe) if !probe.converged() => v.push("recovery: the half-open probe failed".into()),
        None => v.push("recovery: no half-open probe was admitted".into()),
        _ => {}
    }
    let o4 = wave("recovered");
    if o4.is_empty() || !o4.iter().all(|o| o.converged()) {
        v.push("recovered: the healed class did not serve cleanly".into());
    }
    v
}

// --------------------------------------------------- supervision chaos --

/// The wall-clock supervision demo (`repro serve --daemon --chaos`): on
/// the daemon's pool shape, a deliberately endless request is
/// wedge-detected and cancelled by the monitor, and a panicking request
/// is contained and struck twice into quarantine. Returns the process
/// exit code (nonzero when a supervision invariant is violated).
pub fn serve_supervision_chaos(size: usize, workers: usize, mem_budget: Option<u64>) -> i32 {
    let mut cfg = pool_cfg(workers, mem_budget);
    // The demo is about supervision, not circuit breaking: a wedge
    // failure plus a panic in the same class would trip the tight
    // daemon breaker and mask the quarantine refusal it demonstrates.
    cfg.breaker = BreakerConfig::disabled();
    cfg.supervise = SuperviseConfig {
        enabled: true,
        wedge_after: Duration::from_millis(250),
        poll: Duration::from_millis(10),
        max_strikes: 2,
        event_log_cap: 64,
    };
    let mut pool = ServePool::new(cfg);
    let mut violations: Vec<String> = Vec::new();

    // An endless request: stationary Richardson at zero tolerance with
    // health checks off never converges, never stagnates, and has no
    // breakdown divisions — it can only end when the wedge monitor
    // cancels it. (A Krylov method would break down at machine
    // precision long before the 250 ms deadline.)
    let mut endless =
        SolveRequest::new("wedge-me", ProblemKind::Laplace27.build(size), MgConfig::d16());
    endless.solver = SolverChoice::Richardson;
    endless.opts = SolveOptions {
        tol: 0.0,
        max_iters: usize::MAX / 2,
        health: HealthPolicy::disabled(),
        record_history: false,
        ..Default::default()
    };
    endless.policy = RetryPolicy::fail_fast();
    println!("--- wedge detection: an endless request against a 250 ms deadline ---");
    let out = pool.run(vec![endless]);
    println!(
        "wedge-me -> {} (worker events: {})",
        outcome_label(&out[0]),
        pool.worker_events().len()
    );
    if !matches!(&out[0].result, Err(ServeError::Session(SolveError::Cancelled { .. }))) {
        violations.push("endless request was not wedge-cancelled".into());
    }

    println!("--- panic containment + quarantine: two strikes, then refusal ---");
    for round in 0..3 {
        let mut req =
            SolveRequest::new("panic-me", ProblemKind::Laplace27.build(size), MgConfig::d16());
        req.panic_in_worker = true;
        let out = pool.run(vec![req]);
        println!("round {round}: panic-me -> {}", outcome_label(&out[0]));
        let expect_quarantined = round >= 2;
        let got_quarantined =
            matches!(out[0].rejection(), Some(AdmissionError::Quarantined { .. }));
        if expect_quarantined != got_quarantined {
            violations.push(format!(
                "round {round}: expected quarantined={expect_quarantined}, got {got_quarantined}"
            ));
        }
    }

    println!("worker-event trail:");
    for ev in pool.worker_events() {
        println!(
            "  worker={} request={} event={}",
            ev.worker.map(|w| w.to_string()).unwrap_or_else(|| "-".into()),
            ev.request,
            ev.kind.label()
        );
    }
    if violations.is_empty() {
        println!("chaos demo: all supervision invariants held");
        0
    } else {
        for v in &violations {
            eprintln!("chaos violation: {v}");
        }
        1
    }
}
