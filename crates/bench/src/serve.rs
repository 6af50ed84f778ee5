//! The `ServePool` scenario the integration tests (`tests/serve.rs`)
//! assert on.
//!
//! [`serve`] serves a mixed stream — clean problems, fault-injected
//! hierarchies that must climb the retry ladder, a request with a
//! deliberately impossible tolerance, one bounded by a wall-clock
//! deadline, and one that panics its session — one request at a time:
//! every request must end in a *typed* outcome, the panic isolated to
//! its own request, and the fault-injected requests converge anyway
//! with their rung sequence on record.

use std::time::Duration;

use fp16mg_core::{MgConfig, RecoveryPolicy};
use fp16mg_krylov::{HealthPolicy, SolveOptions};
use fp16mg_problems::ProblemKind;
use fp16mg_runtime::{
    Budget, FaultPlan, LevelBitFlip, PoolConfig, RequestOutcome, Rung, ServePool, SolveRequest,
    SolverChoice,
};
use fp16mg_sgdia::fault::FaultSpec;

/// Requests in a [`serve`] stream.
const REQUESTS: usize = 16;
/// Tolerance of the well-posed requests.
const TOL: f64 = 1e-9;
/// The deadline that stops [`serve`]'s endless request.
const DEADLINE: Duration = Duration::from_millis(10);

/// One short scenario tag per request, cycled over the stream.
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

/// The chaos stream: single-event bit-flip upsets in mid-hierarchy
/// FP16 coefficient planes, alongside clean solves, a rate-based fault
/// climber, and a session panic — request isolation must hold under
/// memory faults too.
const CHAOS_SCENARIOS: [&str; 8] = [
    "flip→mend",
    "clean",
    "flip→mend",
    "flip→mend",
    "panic",
    "flip→mend",
    "fault→promote",
    "flip→mend",
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
                    req.fault = Some(FaultPlan {
                        spec: FaultSpec::inf(0.02, 0xfeed ^ i as u64),
                        flip: None,
                        sticky_until: sticky,
                    });
                    req
                }
                "flip→mend" => {
                    // A single-event upset in a mid-hierarchy FP16 plane.
                    // Recovery on: the sentinels must detect and localize
                    // it, and the level is widened from its FP32 source.
                    // The problem extent is pinned to 12 so the d16
                    // hierarchy always has a 16-bit mid level (level 1) to
                    // corrupt, and Richardson is chosen because
                    // multigrid-as-solver feels a poisoned level
                    // immediately.
                    let mut req =
                        SolveRequest::new(name, ProblemKind::Laplace27.build(12), MgConfig::d16());
                    req.solver = SolverChoice::Richardson;
                    req.opts.tol = 1e-6;
                    req.opts.max_iters = 40;
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
                    req.class = req.name.clone();
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
                    req.class = req.name.clone();
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
                    req.class = req.name.clone();
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

/// Serves the 16-request stream one request at a time: problem extent
/// `size` (the flip scenarios pin theirs to 12), and seeded bit flips in
/// mid-hierarchy FP16 planes when `chaos` is set, so the integrity
/// sentinels and the mend they trigger must keep the pool healthy.
/// Each failing request (panic, deadline, no-converge) is its own
/// problem class, so no breaker trips and every scenario runs its
/// session. Returns one outcome per request.
pub fn serve(size: usize, chaos: bool) -> Vec<RequestOutcome> {
    let mut pool = ServePool::new(PoolConfig::default());
    build_requests(size, chaos).into_iter().map(|req| pool.serve(req)).collect()
}
