//! Two `ServePool` scenarios the integration tests (`tests/serve.rs`)
//! assert on.
//!
//! [`serve`] runs a mixed batch — clean problems, fault-injected
//! hierarchies that must climb the retry ladder, a request with a
//! deliberately impossible tolerance, one bounded by a wall-clock
//! deadline, and one that panics its worker — on the concurrent pool: every
//! request must end in a *typed* outcome, the panic isolated to its own
//! request, and the fault-injected requests converge anyway with their
//! rung sequence on record. [`serve_overload`] drives admission, shedding
//! and circuit breaking over four waves.

use std::time::Duration;

use fp16mg_core::{IntegrityPolicy, MgConfig, RecoveryPolicy};
use fp16mg_krylov::{HealthPolicy, SolveError, SolveOptions};
use fp16mg_problems::ProblemKind;
use fp16mg_runtime::{
    AdmissionConfig, AdmissionError, BreakerConfig, BreakerState, BreakerTransition, Budget,
    FaultPlan, LevelBitFlip, PoolConfig, Priority, RequestOutcome, RetryPolicy, Rung, ServeError,
    ServePool, ShedPolicy, SolveRequest, SolverChoice,
};
use fp16mg_sgdia::fault::FaultSpec;

/// Requests in a [`serve`] batch.
const REQUESTS: usize = 16;
/// Pool workers of a [`serve`] batch.
const WORKERS: usize = 4;
/// Tolerance of the well-posed requests of both scenarios.
const TOL: f64 = 1e-9;
/// The deadline that stops [`serve`]'s endless request.
const DEADLINE: Duration = Duration::from_millis(10);

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

fn build_requests(n: usize, chaos: bool) -> Vec<SolveRequest> {
    let kinds = [ProblemKind::Laplace27, ProblemKind::Rhd, ProblemKind::Oil, ProblemKind::Weather];
    let scenarios: &[&'static str] = if chaos { &CHAOS_SCENARIOS } else { &SCENARIOS };
    (0..REQUESTS)
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
                    req.opts.tol = TOL;
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
                    req.opts.tol = 1e-6;
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
                    req.budget = Budget::with_deadline(DEADLINE);
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
                    req.opts.tol = TOL;
                    req
                }
            }
        })
        .collect()
}

/// Runs the 16-request batch on four workers: problem extent `size`
/// (the flip scenarios pin theirs to 12), and seeded bit flips in
/// mid-hierarchy FP16 planes when `chaos` is set, so the integrity
/// sentinels and the `repair-level` rung must keep the pool healthy.
/// Returns one outcome per request.
pub fn serve(size: usize, chaos: bool) -> Vec<RequestOutcome> {
    ServePool::new(PoolConfig::unbounded(WORKERS)).run(build_requests(size, chaos))
}

// ------------------------------------------------------------ overload --

/// Problem extent of the overload scenario: small, because it is about
/// admission, not numerics.
const OVERLOAD_SIZE: usize = 6;

/// What the overload scenario produced, for its acceptance checks and
/// the integration test.
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
fn healthy_request(name: String, class: &str, priority: Priority) -> SolveRequest {
    let problem = ProblemKind::Laplace27.build(OVERLOAD_SIZE);
    let mut req = SolveRequest::new(name, problem, MgConfig::d16());
    req.class = class.to_string();
    req.priority = priority;
    req.opts.tol = TOL;
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
fn poisoned_request(name: String) -> SolveRequest {
    let problem = ProblemKind::Laplace27.build(OVERLOAD_SIZE);
    let mut req = SolveRequest::new(name, problem, MgConfig::d16());
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

fn overload_pool() -> ServePool {
    ServePool::new(PoolConfig {
        workers: 2,
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

/// Runs the overload-protection scenario: four deterministic waves
/// through one two-worker [`ServePool`] (breaker state persists across
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
pub fn serve_overload() -> OverloadReport {
    let mut pool = overload_pool();

    // Wave 1: oversubscription. 18 requests, priorities cycling
    // interactive → batch → best-effort, all of one healthy class.
    let wave1: Vec<SolveRequest> = (0..18)
        .map(|i| {
            let priority = Priority::ALL[i % 3];
            healthy_request(format!("{}#{i:02}", priority.label()), "mix", priority)
        })
        .collect();
    let out1 = pool.run(wave1);

    // Wave 2: a poisoned class trips its breaker.
    let wave2: Vec<SolveRequest> =
        (0..5).map(|i| poisoned_request(format!("poison#{i:02}"))).collect();
    let out2 = pool.run(wave2);

    // Wave 3: cooldown, then the half-open probe heals the class.
    let wave3: Vec<SolveRequest> = (0..3)
        .map(|i| healthy_request(format!("recover#{i:02}"), "poison", Priority::Batch))
        .collect();
    let out3 = pool.run(wave3);

    // Wave 4: the class is healthy again.
    let wave4: Vec<SolveRequest> = (0..4)
        .map(|i| healthy_request(format!("healed#{i:02}"), "poison", Priority::Batch))
        .collect();
    let out4 = pool.run(wave4);

    let transitions = pool.breakers().transitions().to_vec();

    let waves: Vec<(&'static str, Vec<RequestOutcome>)> =
        vec![("overload", out1), ("poison", out2), ("recovery", out3), ("recovered", out4)];
    let violations = check_overload(&waves, &transitions);
    OverloadReport { waves, transitions, violations }
}

/// The acceptance checks of the overload scenario, as data.
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
