//! Serve-pool acceptance: a mixed stream of clean, fault-injected,
//! deadline-limited, non-converging, and panicking requests must complete
//! with one typed outcome each — the acceptance scenario of the resilient
//! runtime layer — and so must the chaos stream; on the daemon's pool
//! shape the wedge bound cancels an endless request and every panic of a
//! request that keeps panicking its session is contained.

use std::time::Duration;

use fp16mg_bench::serve;
use fp16mg_core::MgConfig;
use fp16mg_krylov::{HealthPolicy, SolveError, SolveOptions};
use fp16mg_problems::ProblemKind;
use fp16mg_runtime::{PoolConfig, Rung, ServeError, ServePool, SolveRequest, SolverChoice};

#[test]
fn mixed_batch_completes_with_typed_outcomes() {
    let outcomes = serve(8, false);
    assert_eq!(outcomes.len(), 16, "every request must produce an outcome");

    let count = |pred: &dyn Fn(&SolveError) -> bool| {
        outcomes
            .iter()
            .filter(|o| match &o.result {
                Err(ServeError::Session(e)) => pred(e),
                _ => false,
            })
            .count()
    };
    assert!(
        count(&|e| matches!(e, SolveError::WorkerPanicked { .. })) >= 1,
        "at least one injected panic, isolated to its request"
    );
    assert!(
        count(&|e| matches!(e, SolveError::DeadlineExceeded { .. })) >= 1,
        "at least one deadline-limited request"
    );
    assert!(
        count(&|e| matches!(e, SolveError::Unconverged { .. })) >= 1,
        "at least one non-converging request"
    );

    for out in &outcomes {
        if out.name.starts_with("clean") {
            assert!(out.converged(), "clean request {} failed: {:?}", out.name, out.result);
            assert_eq!(out.report.attempts.len(), 1, "clean requests converge on rung 0");
        }
        if out.name.starts_with("fault") {
            assert!(
                out.converged(),
                "fault-injected request {} must converge via the ladder: {:?}",
                out.name,
                out.result
            );
            assert!(
                out.report.attempts.len() > 1,
                "fault-injected request {} must record its rung climb",
                out.name
            );
            assert!(!out.report.attempts[0].converged, "rung 0 saw the fault");
            assert!(out.report.attempts.last().unwrap().converged);
        }
    }
}

#[test]
fn chaos_batch_repairs_bit_flips_without_process_failures() {
    // The chaos scenario: 16 requests, seeded single-bit flips
    // in mid-hierarchy FP16 planes, plus injected session panics. Zero
    // process-level failures: every request yields a typed outcome, every
    // flip row is mended during its first retry (level 1 widened to FP32,
    // the flipped tap alone flagged), and no flip row ever leaves the
    // retry rung.
    let outcomes = serve(12, true);
    assert_eq!(outcomes.len(), 16, "every request must produce an outcome");

    let mut flips = 0;
    for out in &outcomes {
        if out.name.starts_with("panic") {
            assert!(
                matches!(out.result, Err(ServeError::Session(SolveError::WorkerPanicked { .. }))),
                "panic rows stay isolated: {:?}",
                out.result
            );
            continue;
        }
        if out.name.starts_with("flip") {
            flips += 1;
            assert!(
                out.converged(),
                "{}: the mend must rescue the solve: {:?}",
                out.name,
                out.result
            );
            assert!(!out.report.promotions.is_empty(), "{}: no mend recorded", out.name);
            for ev in &out.report.promotions {
                assert_eq!(ev.level, 1, "{}: mend localized to the flipped level", out.name);
                assert_eq!(ev.taps.len(), 1, "{}: exactly one plane flagged", out.name);
            }
            assert_eq!(
                out.report.final_rung(),
                Some(Rung::Retry),
                "{}: a bit flip must never cost a rebuild: {}",
                out.name,
                out.report.summary()
            );
        }
    }
    assert!(flips >= 8, "the chaos cycle must be dominated by flip scenarios, got {flips}");
}

#[test]
fn the_daemons_pool_cancels_a_wedged_request_and_contains_every_panic() {
    // The daemon's pool shape with a short wedge bound.
    let mut pool = ServePool::new(PoolConfig {
        wedge_after: Duration::from_millis(100),
        ..PoolConfig::default()
    });
    let laplace = || ProblemKind::Laplace27.build(8);

    // Stationary Richardson at zero tolerance with health checks off never
    // converges, never stagnates and has no breakdown division (a Krylov
    // method would break down at machine precision first): only the
    // pool's wedge bound can end it.
    let mut endless = SolveRequest::new("wedge-me", laplace(), MgConfig::d16());
    endless.solver = SolverChoice::Richardson;
    endless.opts = SolveOptions {
        tol: 0.0,
        max_iters: usize::MAX / 2,
        health: HealthPolicy::disabled(),
        record_history: false,
        ..Default::default()
    };
    let out = pool.serve(endless);
    assert!(
        matches!(out.result, Err(ServeError::Session(SolveError::Cancelled { .. }))),
        "the wedge bound must cancel the endless request: {:?}",
        out.result
    );

    // The same name panicking round after round is contained every time.
    // Each round is its own problem class: two contained panics in one
    // class would open its breaker and refuse the third round before its
    // session.
    for round in 0..3 {
        let mut req = SolveRequest::new("panic-me", laplace(), MgConfig::d16());
        req.class = format!("panic-{round}");
        req.panic_in_worker = true;
        let out = pool.serve(req);
        assert!(
            matches!(out.result, Err(ServeError::Session(SolveError::WorkerPanicked { .. }))),
            "round {round}: the panic must be contained: {:?}",
            out.result
        );
    }
    assert_eq!(pool.counters().completed_err, 4);
}
