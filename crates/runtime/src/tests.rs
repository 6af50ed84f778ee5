use std::time::Duration;

use fp16mg_core::MgConfig;
use fp16mg_krylov::{HealthPolicy, SolveError, SolveOptions};
use fp16mg_problems::{Problem, ProblemKind};

use crate::budget::{Budget, BudgetGuard, CancelToken};
use crate::ladder::{run_session, RetryPolicy, Rung, SolveRequest, SolverChoice};
use crate::pool::{PoolConfig, RequestOutcome, ServePool};

fn laplace(n: usize) -> Problem {
    ProblemKind::Laplace27.build(n)
}

/// Options that can never converge or stagnate: the solve runs until an
/// external bound (budget, deadline, cancellation) stops it.
fn endless_opts() -> SolveOptions {
    SolveOptions { tol: 0.0, health: HealthPolicy::disabled(), ..Default::default() }
}

mod budget {
    use super::*;
    use fp16mg_krylov::SolveControl;

    #[test]
    fn cancel_token_is_shared_and_sticky() {
        let t = CancelToken::new();
        let t2 = t.clone();
        assert!(!t.is_cancelled());
        t2.cancel();
        assert!(t.is_cancelled() && t2.is_cancelled());
    }

    #[test]
    fn guard_reports_cancellation_first() {
        let budget = Budget { deadline: Some(Duration::ZERO), ..Budget::unlimited() };
        budget.cancel.cancel();
        let mut guard = BudgetGuard::arm(budget);
        assert!(matches!(guard.check(7), Err(SolveError::Cancelled { iter: 7 })));
    }

    #[test]
    fn guard_enforces_deadline() {
        let mut guard = BudgetGuard::arm(Budget::with_deadline(Duration::ZERO));
        std::thread::sleep(Duration::from_millis(1));
        assert!(matches!(guard.check(3), Err(SolveError::DeadlineExceeded { iter: 3, .. })));
    }

    #[test]
    fn clamp_iters_tracks_session_consumption() {
        let budget = Budget { max_iters: Some(10), ..Budget::unlimited() };
        let mut guard = BudgetGuard::arm(budget);
        assert_eq!(guard.clamp_iters(500), Some(10));
        guard.charge_iters(7);
        assert_eq!(guard.clamp_iters(500), Some(3));
        assert_eq!(guard.clamp_iters(2), Some(2));
        guard.charge_iters(3);
        assert_eq!(guard.clamp_iters(500), None);
        assert_eq!(guard.iters_done(), 10);
    }

    #[test]
    fn adopt_cycles_precharges_rebuilt_counters() {
        let budget = Budget { max_vcycles: Some(100), ..Budget::unlimited() };
        let mut guard = BudgetGuard::arm(budget);
        let c1 = std::sync::Arc::new(std::sync::atomic::AtomicUsize::new(0));
        guard.adopt_cycles(std::sync::Arc::clone(&c1));
        c1.fetch_add(42, std::sync::atomic::Ordering::Relaxed);
        assert_eq!(guard.vcycles(), 42);
        // A fresh hierarchy (counter at zero) must not reset the total.
        let c2 = std::sync::Arc::new(std::sync::atomic::AtomicUsize::new(0));
        guard.adopt_cycles(c2);
        assert_eq!(guard.vcycles(), 42);
    }

    #[test]
    fn backoff_is_deterministic_jittered_and_capped() {
        let p = RetryPolicy::default();
        for k in 0..12 {
            let b = p.backoff_for(k);
            assert_eq!(b, p.backoff_for(k), "same attempt number, same backoff");
            assert!(b <= p.max_backoff);
        }
        // Jitter must actually vary the early sleeps.
        assert_ne!(p.backoff_for(0), p.backoff_for(1));
    }
}

mod session {
    use super::*;

    #[test]
    fn clean_problem_converges_on_first_rung() {
        let req = SolveRequest::new("clean", laplace(8), MgConfig::d16());
        let out = run_session(&req);
        let result = out.result.expect("clean laplace27 must converge");
        assert!(result.converged());
        assert_eq!(out.report.rung_sequence(), vec![Rung::Retry]);
        assert!(out.report.attempts[0].converged);
        assert!(out.vcycles > 0, "V-cycle accounting must see the preconditioner");
        let x = out.solution.expect("converged session returns its solution");
        assert_eq!(x.len(), req.problem.matrix.rows());
        assert!(x.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn auto_solver_follows_problem_designation() {
        // oil is a GMRES problem (Table 3); Auto must route accordingly
        // and still converge through the runtime.
        let mut req = SolveRequest::new("oil", ProblemKind::Oil.build(6), MgConfig::d16());
        req.opts.tol = 1e-8;
        let out = run_session(&req);
        assert!(out.converged(), "oil via auto-GMRES: {:?}", out.result.err());
    }

    #[test]
    fn explicit_solver_choices_run() {
        for (choice, tol) in [(SolverChoice::BiCgStab, 1e-8), (SolverChoice::Richardson, 1e-6)] {
            let mut req = SolveRequest::new("choice", laplace(8), MgConfig::d16());
            req.solver = choice;
            req.opts.tol = tol;
            let out = run_session(&req);
            assert!(out.converged(), "{choice:?} failed: {:?}", out.result.err());
        }
    }

    #[test]
    fn pre_cancelled_session_ends_before_any_attempt() {
        let req = SolveRequest::new("cancelled", laplace(8), MgConfig::d16());
        req.budget.cancel.cancel();
        let out = run_session(&req);
        assert!(matches!(out.result, Err(SolveError::Cancelled { .. })));
        assert!(out.report.attempts.is_empty());
        assert!(out.solution.is_none());
    }

    #[test]
    fn deadline_interrupts_endless_solve() {
        let mut req = SolveRequest::new("deadline", laplace(8), MgConfig::d16());
        req.opts = endless_opts();
        req.budget = Budget::with_deadline(Duration::from_millis(15));
        let out = run_session(&req);
        assert!(
            matches!(out.result, Err(SolveError::DeadlineExceeded { .. })),
            "expected deadline, got {:?}",
            out.result
        );
        // An interrupt is final: fast early attempts may complete before
        // the deadline fires (the retained hierarchy makes retries cheap),
        // but the attempt the deadline cuts off must be the last — the
        // ladder never escalates past an interrupt.
        if let Some(pos) = out
            .report
            .attempts
            .iter()
            .position(|a| matches!(a.error, Some(SolveError::DeadlineExceeded { .. })))
        {
            assert_eq!(pos, out.report.attempts.len() - 1, "no attempts after the interrupt");
        }
    }

    #[test]
    fn iteration_budget_exhaustion_returns_unconverged() {
        let mut req = SolveRequest::new("iters", laplace(8), MgConfig::d16());
        req.opts = endless_opts();
        req.budget.max_iters = Some(3);
        let out = run_session(&req);
        assert!(
            matches!(out.result, Err(SolveError::Unconverged { iters: 3, .. })),
            "expected unconverged at 3 iters, got {:?}",
            out.result
        );
        assert_eq!(out.report.attempts.len(), 1, "no budget left for a second attempt");
        assert_eq!(out.iters, 3);
    }

    #[test]
    fn vcycle_budget_interrupts_mid_solve() {
        let mut req = SolveRequest::new("vcycles", laplace(8), MgConfig::d16());
        req.opts = endless_opts();
        req.budget.max_vcycles = Some(3);
        let out = run_session(&req);
        assert!(
            matches!(out.result, Err(SolveError::VcycleBudgetExceeded { budget: 3, .. })),
            "expected V-cycle budget, got {:?}",
            out.result
        );
        assert!(out.vcycles >= 3);
    }
}

/// Every protection off: the pool as a plain concurrent batch runner.
fn run_batch(requests: Vec<SolveRequest>, workers: usize) -> Vec<RequestOutcome> {
    ServePool::new(PoolConfig::unbounded(workers)).run(requests)
}

mod pool {
    use super::*;

    #[test]
    fn batch_outcomes_keep_submission_order() {
        let requests: Vec<_> = (0..5)
            .map(|i| SolveRequest::new(format!("req-{i}"), laplace(6), MgConfig::d16()))
            .collect();
        let outcomes = run_batch(requests, 3);
        assert_eq!(outcomes.len(), 5);
        for (i, out) in outcomes.iter().enumerate() {
            assert_eq!(out.index, i);
            assert_eq!(out.name, format!("req-{i}"));
            assert!(out.converged(), "request {i} failed: {:?}", out.result);
        }
    }

    #[test]
    fn empty_batch_and_oversized_worker_count_are_fine() {
        assert!(run_batch(Vec::new(), 8).is_empty());
        let outcomes = run_batch(vec![SolveRequest::new("solo", laplace(6), MgConfig::d16())], 64);
        assert_eq!(outcomes.len(), 1);
        assert!(outcomes[0].converged());
    }

    #[test]
    fn zero_workers_still_serves_on_one_worker() {
        // Regression: `workers == 0` must clamp to one worker, not hang
        // or panic, and an empty batch with zero workers is just empty.
        assert!(run_batch(Vec::new(), 0).is_empty());
        let outcomes = run_batch(vec![SolveRequest::new("zero", laplace(6), MgConfig::d16())], 0);
        assert_eq!(outcomes.len(), 1);
        assert!(outcomes[0].converged(), "{:?}", outcomes[0].result);
    }

    #[test]
    fn unbounded_pool_admits_everything_at_full_quality() {
        let requests: Vec<_> = (0..6)
            .map(|i| SolveRequest::new(format!("compat-{i}"), laplace(6), MgConfig::d16()))
            .collect();
        for out in run_batch(requests, 2) {
            assert!(out.rejection().is_none(), "the unbounded pool must never reject");
            assert!(!out.degraded(), "the unbounded pool must never degrade");
            assert!(out.degrades.is_empty());
            assert!(!out.probe);
        }
    }
}

#[cfg(feature = "fault-inject")]
mod fault {
    use super::*;
    use crate::ladder::FaultPlan;
    use fp16mg_core::RecoveryPolicy;
    use fp16mg_sgdia::fault::FaultSpec;

    fn faulted_request(name: &str, sticky_until: Rung) -> SolveRequest {
        let mut base = MgConfig::d16();
        // Rung climbing is the subject here, so the in-hierarchy
        // self-healing (which would fix the F16 faults at rung 0) is off.
        base.recovery = RecoveryPolicy::disabled();
        let mut req = SolveRequest::new(name, laplace(8), base);
        req.policy = RetryPolicy {
            attempts: [1, 1, 1, 1, 1],
            backoff: Duration::from_micros(100),
            ..RetryPolicy::default()
        };
        req.fault =
            Some(FaultPlan { spec: FaultSpec::inf(0.02, 0xfeed), flip: None, sticky_until });
        req
    }

    #[test]
    fn every_rung_is_reachable_and_fixes_its_fault_class() {
        for sticky in [Rung::PromoteNarrow, Rung::RebuildF32, Rung::RebuildF64] {
            let req = faulted_request("sticky", sticky);
            let out = run_session(&req);
            assert!(
                out.converged(),
                "rung {sticky:?} should have fixed the fault: {:?}",
                out.result.err()
            );
            let rungs = out.report.rung_sequence();
            // RepairLevel records no attempt here: without retained
            // parents (default policy) there is nothing it can repair,
            // so it is silently skipped on the way up.
            let expected: Vec<Rung> = Rung::ALL[..=sticky.index()]
                .iter()
                .copied()
                .filter(|r| *r != Rung::RepairLevel)
                .collect();
            assert_eq!(rungs, expected, "session must climb exactly to the first clean rung");
            assert_eq!(out.report.final_rung(), Some(sticky));
            for attempt in &out.report.attempts[..out.report.attempts.len() - 1] {
                assert!(!attempt.converged);
                assert!(attempt.error.as_ref().is_some_and(|e| e.retryable()));
            }
            assert!(out.report.attempts.last().unwrap().converged);
        }
    }

    #[test]
    fn promote_rung_records_eager_promotions() {
        let req = faulted_request("promote", Rung::PromoteNarrow);
        let out = run_session(&req);
        assert!(out.converged());
        let last = out.report.attempts.last().unwrap();
        assert_eq!(last.rung, Rung::PromoteNarrow);
        assert!(last.promotions > 0, "eager promotion must be visible in the attempt record");
    }

    #[test]
    fn ladder_exhaustion_returns_last_typed_error() {
        let mut req = faulted_request("exhausted", Rung::RebuildF64);
        // The only rung that would escape the fault is disabled, so the
        // ladder must exhaust and hand back the last rung's failure.
        req.policy.attempts = [1, 1, 1, 1, 0];
        let out = run_session(&req);
        let err = out.result.expect_err("every enabled rung is corrupted");
        assert!(
            matches!(err, SolveError::Breakdown(_) | SolveError::Stagnated(_)),
            "expected the last numerical failure, got {err:?}"
        );
        assert_eq!(
            out.report.rung_sequence(),
            vec![Rung::Retry, Rung::PromoteNarrow, Rung::RebuildF32]
        );
        assert!(out.solution.is_none());
    }

    #[test]
    fn retry_rung_retries_before_escalating() {
        let mut req = faulted_request("retry-twice", Rung::PromoteNarrow);
        req.policy.attempts = [2, 1, 1, 1, 1];
        let out = run_session(&req);
        assert!(out.converged());
        assert_eq!(out.report.rung_sequence(), vec![Rung::Retry, Rung::Retry, Rung::PromoteNarrow]);
    }

    #[test]
    fn pool_isolates_panicking_request() {
        let mut requests: Vec<_> = (0..4)
            .map(|i| SolveRequest::new(format!("clean-{i}"), laplace(6), MgConfig::d16()))
            .collect();
        requests[1].panic_in_worker = true;
        requests[1].name = "poisoned".into();
        let outcomes = run_batch(requests, 2);
        assert_eq!(outcomes.len(), 4);
        for (i, out) in outcomes.iter().enumerate() {
            if i == 1 {
                let err = out.result.as_ref().expect_err("injected panic must surface");
                match err {
                    crate::pool::ServeError::Session(SolveError::WorkerPanicked { message }) => {
                        assert!(message.contains("injected worker panic"), "message: {message}");
                    }
                    other => panic!("expected WorkerPanicked, got {other:?}"),
                }
            } else {
                assert!(out.converged(), "request {i} must survive its neighbor's panic");
            }
        }
    }
}

#[cfg(feature = "fault-inject")]
mod integrity {
    use super::*;
    use crate::ladder::{FaultPlan, LevelBitFlip};
    use fp16mg_core::{IntegrityPolicy, RecoveryPolicy, RepairTrigger};
    use fp16mg_sgdia::fault::FaultSpec;

    /// A request carrying a single targeted bit flip into a mid-hierarchy
    /// FP16 level, with full ABFT armed and self-healing promotion off so
    /// the sentinels — not the promotion logic — must save the solve.
    fn flipped_request(flip: LevelBitFlip, verify_on_anomaly: bool) -> SolveRequest {
        let mut base = MgConfig::d16();
        base.recovery = RecoveryPolicy::disabled();
        base.integrity = IntegrityPolicy::armed(0);
        base.integrity.verify_on_anomaly = verify_on_anomaly;
        let mut req = SolveRequest::new("flip", laplace(12), base);
        req.policy = RetryPolicy {
            attempts: [1, 1, 1, 1, 1],
            backoff: Duration::from_micros(100),
            ..RetryPolicy::default()
        };
        // Richardson (multigrid as the solver) is maximally sensitive to
        // a corrupted level — a Krylov method would partially absorb the
        // perturbation. The modest cap makes the corrupted attempt fail
        // retryably (Unconverged) even when the flip only slows
        // convergence instead of breaking the iteration outright.
        req.solver = SolverChoice::Richardson;
        req.opts.tol = 1e-6;
        req.opts.max_iters = 40;
        req.fault = Some(FaultPlan {
            spec: FaultSpec::none(0x0b17_f11b),
            flip: Some(flip),
            sticky_until: Rung::PromoteNarrow,
        });
        req
    }

    #[test]
    fn bit_flip_is_localized_and_repaired_without_rebuild() {
        // Exponent-MSB upset in an off-diagonal tap of mid-hierarchy
        // level 1 (laplace(12) has three levels; level 1 is F16). The
        // corrupted retry fails; the repair-level rung's sentinel sweep
        // localizes the flip to (level 1, tap 0), re-truncates that one
        // level from its retained f64 parent, and the re-solve converges
        // — no promotion, no rebuild.
        let flip = LevelBitFlip { level: 1, tap: 0, bit: 14 };
        let req = flipped_request(flip, false);
        let out = run_session(&req);
        assert!(out.converged(), "repair must rescue the solve: {:?}", out.result.err());
        assert_eq!(
            out.report.rung_sequence(),
            vec![Rung::Retry, Rung::RepairLevel],
            "repair-level must fix the flip without reaching a rebuild rung"
        );
        assert_eq!(out.report.repairs.len(), 1, "exactly one level repaired");
        let ev = &out.report.repairs[0];
        assert_eq!(ev.level, 1, "repair localized to the corrupted level");
        assert_eq!(ev.taps, vec![0], "repair localized to the corrupted plane");
        assert_eq!(ev.trigger, RepairTrigger::Requested);
        let last = out.report.attempts.last().unwrap();
        assert_eq!(last.rung, Rung::RepairLevel);
        assert_eq!(last.repairs, 1);
        assert!(last.converged);
    }

    #[test]
    fn anomaly_hook_repairs_during_the_solve() {
        // With verify_on_anomaly armed, the in-solve hook mends the
        // hierarchy the moment the solver reports a breakdown or stall;
        // the repair-level rung then gives the mended hierarchy its
        // clean re-solve. Either way, no rebuild rung is reached.
        let flip = LevelBitFlip { level: 1, tap: 0, bit: 14 };
        let req = flipped_request(flip, true);
        let out = run_session(&req);
        assert!(out.converged(), "{:?}", out.result.err());
        assert!(!out.report.repairs.is_empty(), "the flip must be repaired somewhere");
        assert!(
            out.report.repairs.iter().all(|e| e.level == 1 && e.taps == vec![0]),
            "every repair must localize to the flipped plane: {:?}",
            out.report.repairs
        );
        assert!(
            out.report.final_rung() <= Some(Rung::RepairLevel),
            "no rebuild may be needed: {}",
            out.report.summary()
        );
    }

    #[test]
    fn integrity_sweeps_charge_the_session_vcycle_budget() {
        // Same clean problem with and without a per-cycle verification
        // sweep: the sweeps must be visible in the session's V-cycle
        // accounting (regression guard — uncharged sweeps would run
        // outside deadline and max_vcycles control).
        let mut plain = SolveRequest::new("plain", laplace(8), MgConfig::d16());
        plain.opts.tol = 1e-8;
        let base_cycles = run_session(&plain).vcycles;

        let mut cfg = MgConfig::d16();
        cfg.integrity = IntegrityPolicy::armed(1); // verify after every cycle
        let mut checked = SolveRequest::new("checked", laplace(8), cfg);
        checked.opts.tol = 1e-8;
        let out = run_session(&checked);
        assert!(out.converged());
        assert!(
            out.vcycles > base_cycles,
            "verification sweeps must charge the cycle counter: {} vs {}",
            out.vcycles,
            base_cycles
        );
    }
}

mod audit_gate {
    use super::*;
    use crate::ladder::AuditSnapshot;

    /// A Laplace problem rescaled so every coefficient sits below the
    /// FP16 normal range: in-range for the overflow check (so setup never
    /// scales it) but a guaranteed ~100% underflow loss in F16 storage.
    fn underflowing_problem(n: usize) -> fp16mg_problems::Problem {
        let mut p = laplace(n);
        for v in p.matrix.data_mut() {
            *v *= 1.0e-8;
        }
        p
    }

    #[test]
    fn healthy_problem_passes_the_gate_and_stays_on_rung_zero() {
        let req = SolveRequest::new("gated-clean", laplace(8), MgConfig::d16());
        let out = run_session(&req);
        assert!(out.converged());
        let audit: &AuditSnapshot = out.report.audit.as_ref().expect("gate must record evidence");
        assert!(!audit.skipped_retry);
        assert!(audit.reason.is_none());
        assert!(!audit.levels.is_empty(), "d16 has 16-bit levels to audit");
        for (_, a) in &audit.levels {
            assert!(a.overflow_free());
        }
        // The gate's build is handed to the first attempt, not discarded:
        // the session still converges on the first rung with one attempt.
        assert_eq!(out.report.rung_sequence(), vec![Rung::Retry]);
    }

    #[test]
    fn doomed_underflow_starts_ladder_at_promote() {
        let req = SolveRequest::new("gated-doomed", underflowing_problem(8), MgConfig::d16());
        let out = run_session(&req);
        assert!(out.converged(), "promotion must rescue the solve: {:?}", out.result.err());
        let audit = out.report.audit.as_ref().unwrap();
        assert!(audit.skipped_retry, "gate must skip the doomed mixed-precision rung");
        let reason = audit.reason.as_deref().unwrap();
        assert!(reason.contains("underflow"), "reason: {reason}");
        assert!(
            audit.levels.iter().any(|(_, a)| a.underflow_loss_fraction() > 0.9),
            "evidence must show the underflow that justified the skip"
        );
        // No rung-0 attempt was burned.
        let rungs = out.report.rung_sequence();
        assert!(!rungs.contains(&Rung::Retry), "rungs: {rungs:?}");
        assert_eq!(rungs.first(), Some(&Rung::PromoteNarrow));
    }

    #[test]
    fn gate_can_be_disabled() {
        let mut req = SolveRequest::new("ungated", laplace(8), MgConfig::d16());
        req.policy.audit_gate = false;
        let out = run_session(&req);
        assert!(out.converged());
        assert!(out.report.audit.is_none());
    }

    #[test]
    fn gate_respects_a_looser_threshold() {
        // With the threshold at 1.0 nothing short of saturation is
        // "doomed": the gate must record the (terrible) audit but still
        // let rung 0 try.
        let mut req = SolveRequest::new("loose", underflowing_problem(8), MgConfig::d16());
        req.policy.audit_max_underflow = 1.0;
        req.policy.attempts = [1, 1, 1, 1, 1];
        let out = run_session(&req);
        let audit = out.report.audit.as_ref().unwrap();
        assert!(!audit.skipped_retry);
        let rungs = out.report.rung_sequence();
        assert_eq!(rungs.first(), Some(&Rung::Retry), "rungs: {rungs:?}");
    }
}

mod admission {
    use crate::admission::{AdmissionConfig, AdmissionError, AdmissionQueue, Priority};
    use std::time::Duration;

    fn small() -> AdmissionConfig {
        AdmissionConfig {
            capacity: 4,
            per_priority: [3, 3, 1],
            est_service: Duration::from_millis(10),
        }
    }

    #[test]
    fn total_capacity_bounds_the_queue() {
        let mut q = AdmissionQueue::new(small());
        for _ in 0..3 {
            q.try_reserve(Priority::Interactive).unwrap();
        }
        q.try_reserve(Priority::Batch).unwrap();
        assert_eq!(q.depth(), 4);
        let err = q.try_reserve(Priority::Batch).unwrap_err();
        assert!(
            matches!(err, AdmissionError::QueueFull { capacity: 4, depth: 4, .. }),
            "expected the total bound, got {err:?}"
        );
    }

    #[test]
    fn per_priority_cap_binds_before_total() {
        let mut q = AdmissionQueue::new(small());
        q.try_reserve(Priority::BestEffort).unwrap();
        let err = q.try_reserve(Priority::BestEffort).unwrap_err();
        assert!(
            matches!(
                err,
                AdmissionError::QueueFull { priority: Priority::BestEffort, capacity: 1, depth: 1 }
            ),
            "expected the best-effort reservation bound, got {err:?}"
        );
        // Other classes still have room.
        q.try_reserve(Priority::Interactive).unwrap();
    }

    #[test]
    fn release_frees_the_slot() {
        let mut q = AdmissionQueue::new(small());
        q.try_reserve(Priority::BestEffort).unwrap();
        assert_eq!(q.depth_of(Priority::BestEffort), 1);
        q.release(Priority::BestEffort);
        assert_eq!(q.depth(), 0);
        q.try_reserve(Priority::BestEffort).unwrap();
        // Releasing an empty class saturates at zero.
        q.release(Priority::Interactive);
        assert_eq!(q.depth_of(Priority::Interactive), 0);
    }

    #[test]
    fn fill_fraction_tracks_depth() {
        let mut q = AdmissionQueue::new(small());
        assert_eq!(q.fill(), 0.0);
        q.try_reserve(Priority::Interactive).unwrap();
        q.try_reserve(Priority::Batch).unwrap();
        assert!((q.fill() - 0.5).abs() < 1e-12);
        let degenerate = AdmissionQueue::new(AdmissionConfig { capacity: 0, ..small() });
        assert_eq!(degenerate.fill(), 1.0, "a zero-capacity queue is always full");
    }

    #[test]
    fn priority_order_is_most_to_least_protected() {
        assert_eq!(
            Priority::ALL.map(Priority::index),
            [0, 1, 2],
            "shed order and per-priority arrays key off this"
        );
        assert_eq!(Priority::default(), Priority::Batch);
    }
}

mod breaker {
    use crate::breaker::{
        BreakerConfig, BreakerDecision, BreakerRegistry, BreakerState, CircuitBreaker,
    };

    fn cfg() -> BreakerConfig {
        BreakerConfig {
            window: 4,
            min_samples: 3,
            failure_threshold: 0.5,
            cooldown: 2,
            cooldown_jitter: 0,
            probes: 1,
            probe_successes: 1,
            ..BreakerConfig::default()
        }
    }

    /// Feeds failures until the breaker opens.
    fn tripped() -> CircuitBreaker {
        let mut b = CircuitBreaker::new(cfg());
        for _ in 0..3 {
            b.record(false, false);
        }
        assert_eq!(b.state(), BreakerState::Open);
        b
    }

    #[test]
    fn closed_trips_only_past_min_samples_and_threshold() {
        let mut b = CircuitBreaker::new(cfg());
        b.record(false, false);
        b.record(false, false);
        assert_eq!(b.state(), BreakerState::Closed, "two samples are below min_samples");
        b.record(true, false);
        assert_eq!(b.state(), BreakerState::Open, "2/3 failures crosses the 0.5 threshold");
        assert_eq!(b.trips(), 1);
    }

    #[test]
    fn healthy_window_never_trips() {
        let mut b = CircuitBreaker::new(cfg());
        for i in 0..20 {
            // One failure in four stays below the threshold.
            b.record(i % 4 != 0, false);
        }
        assert_eq!(b.state(), BreakerState::Closed);
        assert_eq!(b.trips(), 0);
    }

    #[test]
    fn open_rejects_then_counts_down_to_a_half_open_probe() {
        let mut b = tripped();
        match b.on_admission_attempt() {
            BreakerDecision::Reject { failure_rate, cooldown_remaining } => {
                assert_eq!(cooldown_remaining, 1);
                assert!(failure_rate >= 0.5);
            }
            other => panic!("open breaker must reject, got {other:?}"),
        }
        // The attempt completing the cooldown *is* the probe.
        assert_eq!(b.on_admission_attempt(), BreakerDecision::Admit { probe: true });
        assert_eq!(b.state(), BreakerState::HalfOpen);
    }

    #[test]
    fn half_open_grants_only_the_probe_quota() {
        let mut b = tripped();
        b.on_admission_attempt();
        assert_eq!(b.on_admission_attempt(), BreakerDecision::Admit { probe: true });
        assert_eq!(
            b.on_admission_attempt(),
            BreakerDecision::Reject { failure_rate: 1.0, cooldown_remaining: 0 },
            "the probe quota is spent; everything else waits for its verdict"
        );
    }

    #[test]
    fn probe_success_closes_and_clears_the_window() {
        let mut b = tripped();
        b.on_admission_attempt();
        b.on_admission_attempt();
        b.record(true, true);
        assert_eq!(b.state(), BreakerState::Closed);
        assert_eq!(b.failure_rate(), 0.0, "the poisoned window must not linger after recovery");
        assert_eq!(b.on_admission_attempt(), BreakerDecision::Admit { probe: false });
    }

    #[test]
    fn probe_failure_reopens_for_another_cooldown() {
        let mut b = tripped();
        b.on_admission_attempt();
        b.on_admission_attempt();
        b.record(false, true);
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(b.trips(), 2);
        assert!(
            matches!(b.on_admission_attempt(), BreakerDecision::Reject { .. }),
            "a failed probe must not leave the class admitting traffic"
        );
    }

    #[test]
    fn stragglers_are_ignored_while_not_closed() {
        // A non-probe session that was in flight when the breaker tripped
        // must not perturb the cooldown or the half-open bookkeeping.
        let mut b = tripped();
        b.record(false, false);
        b.record(true, false);
        assert_eq!(b.state(), BreakerState::Open);
        b.on_admission_attempt();
        b.on_admission_attempt();
        assert_eq!(b.state(), BreakerState::HalfOpen);
        b.record(true, false); // straggler during half-open
        assert_eq!(b.state(), BreakerState::HalfOpen, "only the probe verdict decides");
        b.record(true, true);
        assert_eq!(b.state(), BreakerState::Closed);
    }

    #[test]
    fn cooldown_jitter_is_deterministic() {
        let jittered = BreakerConfig { cooldown_jitter: 3, ..cfg() };
        let run = || {
            let mut b = CircuitBreaker::new(jittered.clone());
            for _ in 0..3 {
                b.record(false, false);
            }
            let mut rejects = 0;
            while matches!(b.on_admission_attempt(), BreakerDecision::Reject { .. }) {
                rejects += 1;
                assert!(rejects < 100, "cooldown must terminate");
            }
            rejects
        };
        assert_eq!(run(), run(), "same seed, same trip count, same cooldown");
    }

    #[test]
    fn disabled_breaker_admits_everything_and_records_nothing() {
        let mut b = CircuitBreaker::new(BreakerConfig::disabled());
        for _ in 0..10 {
            b.record(false, false);
        }
        assert_eq!(b.state(), BreakerState::Closed);
        assert_eq!(b.on_admission_attempt(), BreakerDecision::Admit { probe: false });
    }

    #[test]
    fn registry_isolates_classes_and_logs_transitions() {
        let mut reg = BreakerRegistry::new(cfg());
        for _ in 0..3 {
            assert!(matches!(
                reg.on_admission_attempt("bad"),
                BreakerDecision::Admit { probe: false }
            ));
            reg.record("bad", false, false);
            assert!(matches!(
                reg.on_admission_attempt("good"),
                BreakerDecision::Admit { probe: false }
            ));
            reg.record("good", true, false);
        }
        assert_eq!(reg.state("bad"), Some(BreakerState::Open));
        assert_eq!(reg.state("good"), Some(BreakerState::Closed));
        assert_eq!(reg.state("never-seen"), None);
        let bad_moves: Vec<_> =
            reg.transitions().iter().filter(|t| t.class == "bad").map(|t| (t.from, t.to)).collect();
        assert_eq!(bad_moves, vec![(BreakerState::Closed, BreakerState::Open)]);
        assert!(!reg.transitions().iter().any(|t| t.class == "good"));
    }
}

mod shed {
    use super::*;
    use crate::admission::Priority;
    use crate::ladder::Rung;
    use crate::shed::{estimate_pressure, DegradeEvent, DegradeProfile, ShedPolicy};

    #[test]
    fn profile_bands_follow_the_thresholds() {
        let p = ShedPolicy::default();
        assert_eq!(p.profile_for(0.0), DegradeProfile::Full);
        assert_eq!(p.profile_for(0.49), DegradeProfile::Full);
        assert_eq!(p.profile_for(0.5), DegradeProfile::Reduced);
        assert_eq!(p.profile_for(0.74), DegradeProfile::Reduced);
        assert_eq!(p.profile_for(0.75), DegradeProfile::Economy);
        assert_eq!(p.profile_for(1.0), DegradeProfile::Economy);
    }

    #[test]
    fn shed_order_is_best_effort_then_batch_never_interactive() {
        let p = ShedPolicy::default();
        assert!(p.should_shed(Priority::BestEffort, 0.7));
        assert!(!p.should_shed(Priority::Batch, 0.7));
        assert!(!p.should_shed(Priority::Interactive, 0.7));
        assert!(p.should_shed(Priority::Batch, 0.95));
        assert!(!p.should_shed(Priority::Interactive, 1.0), "interactive is never shed");
        let off = ShedPolicy::disabled();
        for pr in Priority::ALL {
            assert!(!off.should_shed(pr, 1.0));
        }
        assert_eq!(off.profile_for(1.0), DegradeProfile::Full);
    }

    #[test]
    fn pressure_tracks_queue_fill() {
        let est = Duration::from_millis(100);
        let s = estimate_pressure(3, 4, 2, est, &[]);
        assert!((s.queue_fill - 0.75).abs() < 1e-12);
        assert_eq!(s.slack_deficit, 0.0);
        assert!((s.value() - 0.75).abs() < 1e-12);
        assert_eq!(estimate_pressure(5, 0, 2, est, &[]).value(), 1.0);
    }

    #[test]
    fn pressure_tracks_queued_deadline_slack() {
        // One worker, 100 ms per request: request i waits i*100 ms and
        // needs 100 ms more. Deadlines of 50 ms (position 0) and 150 ms
        // (position 3) miss; 10 s (position 1) does not; `None` (position
        // 2) does not vote.
        let est = Duration::from_millis(100);
        let deadlines = [
            Some(Duration::from_millis(50)),
            Some(Duration::from_secs(10)),
            None,
            Some(Duration::from_millis(150)),
        ];
        let s = estimate_pressure(4, 100, 1, est, &deadlines);
        assert!((s.slack_deficit - 2.0 / 3.0).abs() < 1e-12, "got {}", s.slack_deficit);
        assert!(s.queue_fill < s.slack_deficit, "slack must dominate via max()");
        assert!((s.value() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn full_profile_is_a_no_op() {
        let mut req = SolveRequest::new("full", laplace(6), MgConfig::d16());
        let before = req.opts.clone();
        let events = req.apply_profile(DegradeProfile::Full, &ShedPolicy::default());
        assert!(events.is_empty());
        assert_eq!(req.opts.tol, before.tol);
        assert_eq!(req.opts.max_iters, before.max_iters);
    }

    #[test]
    fn reduced_profile_relaxes_tol_and_caps_iters_with_events() {
        let policy = ShedPolicy::default();
        let mut req = SolveRequest::new("reduced", laplace(6), MgConfig::d16());
        let (tol0, iters0) = (req.opts.tol, req.opts.max_iters);
        let events = req.apply_profile(DegradeProfile::Reduced, &policy);
        assert!((req.opts.tol - tol0 * policy.tol_relax).abs() < 1e-18);
        assert_eq!(req.opts.max_iters, policy.reduced_max_iters);
        assert_eq!(
            events,
            vec![
                DegradeEvent::TolRelaxed { from: tol0, to: req.opts.tol },
                DegradeEvent::ItersCapped { from: iters0, to: policy.reduced_max_iters },
            ]
        );
    }

    #[test]
    fn economy_profile_economizes_storage_caps_vcycles_and_trims_the_ladder() {
        let policy = ShedPolicy::default();
        let mut req = SolveRequest::new("economy", laplace(6), MgConfig::d16());
        let events = req.apply_profile(DegradeProfile::Economy, &policy);
        assert!(events
            .iter()
            .any(|e| matches!(e, DegradeEvent::StorageEconomized { shift_levid: 2 })));
        assert!(events.iter().any(|e| matches!(e, DegradeEvent::VcyclesCapped { cap: 400 })));
        assert!(events.iter().any(|e| matches!(e, DegradeEvent::LadderTrimmed { .. })));
        assert_eq!(req.budget.max_vcycles, Some(policy.economy_max_vcycles));
        assert_eq!(
            req.policy.attempts[Rung::RebuildF64.index()],
            0,
            "economy must not spend the FP64 rebuild on shed-window work"
        );
        // The degraded request still converges (to its looser target).
        let out = run_session(&req);
        assert!(out.converged(), "economy profile must stay solvable: {:?}", out.result.err());
    }

    #[test]
    fn degradation_never_tightens_the_requested_tolerance() {
        let policy = ShedPolicy::default();
        let mut req = SolveRequest::new("loose-already", laplace(6), MgConfig::d16());
        // Caller asked for something looser than the degradation ceiling.
        req.opts.tol = 1e-3;
        let events = req.apply_profile(DegradeProfile::Reduced, &policy);
        assert_eq!(req.opts.tol, 1e-3, "a degraded tolerance is never tighter than requested");
        assert!(!events.iter().any(|e| matches!(e, DegradeEvent::TolRelaxed { .. })));
    }
}

mod serve_pool {
    use super::*;
    use crate::admission::{AdmissionConfig, AdmissionError, Priority};
    use crate::breaker::{BreakerConfig, BreakerState};
    use crate::pool::{PoolConfig, ServeError, ServePool};
    use crate::shed::ShedPolicy;

    fn prioritized(name: &str, priority: Priority) -> SolveRequest {
        let mut req = SolveRequest::new(name, laplace(6), MgConfig::d16());
        req.priority = priority;
        req
    }

    /// A request whose session always ends in a fast typed terminal
    /// failure (unreachable tolerance, two-iteration budget, no retries).
    fn poisoned(name: &str) -> SolveRequest {
        let mut req = SolveRequest::new(name, laplace(6), MgConfig::d16());
        req.class = "poison".into();
        req.opts = endless_opts();
        req.budget.max_iters = Some(2);
        req.policy.attempts = [1, 0, 0, 0, 0];
        req
    }

    fn healthy_of_class(name: &str, class: &str) -> SolveRequest {
        let mut req = SolveRequest::new(name, laplace(6), MgConfig::d16());
        req.class = class.into();
        req
    }

    fn breaker_cfg() -> BreakerConfig {
        BreakerConfig {
            window: 4,
            min_samples: 2,
            failure_threshold: 0.5,
            cooldown: 2,
            cooldown_jitter: 0,
            probes: 1,
            probe_successes: 1,
            ..BreakerConfig::default()
        }
    }

    #[test]
    fn full_queue_sheds_best_effort_first_and_every_refusal_is_typed() {
        let mut pool = ServePool::new(PoolConfig {
            workers: 2,
            admission: AdmissionConfig {
                capacity: 4,
                per_priority: [4, 4, 4],
                est_service: Duration::from_millis(10),
            },
            // Shedding starts for best-effort at half fill; batch only at
            // near-saturation; interactive never.
            shed: ShedPolicy {
                reduce_at: 0.5,
                economy_at: 0.8,
                shed_at: [f64::INFINITY, 0.95, 0.5],
                ..ShedPolicy::default()
            },
            breaker: breaker_cfg(),
            ..PoolConfig::default()
        });
        let requests: Vec<_> = (0..9)
            .map(|i| {
                let pr = Priority::ALL[i % 3];
                prioritized(&format!("{}-{i}", pr.label()), pr)
            })
            .collect();
        let outcomes = pool.run(requests);
        assert_eq!(outcomes.len(), 9);

        let shed: Vec<_> = outcomes
            .iter()
            .filter(|o| matches!(o.rejection(), Some(AdmissionError::Shed { .. })))
            .collect();
        let queue_full = outcomes
            .iter()
            .filter(|o| matches!(o.rejection(), Some(AdmissionError::QueueFull { .. })))
            .count();
        let admitted: Vec<_> = outcomes.iter().filter(|o| o.rejection().is_none()).collect();

        assert!(!shed.is_empty(), "an oversubscribed batch must shed something");
        assert_eq!(
            shed[0].priority,
            Priority::BestEffort,
            "the first request shed must be best-effort"
        );
        assert!(
            shed.iter().all(|o| o.priority != Priority::Interactive),
            "interactive work is never shed"
        );
        assert!(queue_full > 0, "past capacity the hard bound must refuse");
        assert!(admitted.len() <= 4, "no more than capacity may be admitted");
        for o in &admitted {
            assert!(o.converged(), "{}: {:?}", o.name, o.result);
            if o.degraded() {
                assert!(!o.degrades.is_empty(), "degraded outcomes carry their event trail");
            }
        }
        assert!(
            admitted.iter().any(|o| o.degraded()),
            "half-full onward the pool serves degraded profiles"
        );
    }

    #[test]
    fn poisoned_class_trips_the_breaker_and_recovers_via_probe() {
        let mut pool = ServePool::new(PoolConfig {
            workers: 2,
            admission: AdmissionConfig::default(),
            shed: ShedPolicy::disabled(),
            breaker: breaker_cfg(),
            ..PoolConfig::default()
        });

        // Batch 1: the poisoned class fails terminally and trips its
        // breaker (min_samples 2, threshold 0.5); a healthy class in the
        // same batch is untouched.
        let mut batch = vec![poisoned("bad-0"), poisoned("bad-1"), poisoned("bad-2")];
        batch.push(healthy_of_class("ok-0", "healthy"));
        let out1 = pool.run(batch);
        for o in &out1[..3] {
            assert!(
                matches!(o.result, Err(ServeError::Session(_))),
                "{}: poisoned sessions fail typed, not at admission: {:?}",
                o.name,
                o.result
            );
        }
        assert!(out1[3].converged());
        assert_eq!(pool.breakers().state("poison"), Some(BreakerState::Open));
        assert_eq!(pool.breakers().state("healthy"), Some(BreakerState::Closed));

        // Batch 2: cooldown of 2 admission attempts — the first is
        // refused typed, the second is admitted as the half-open probe
        // (now healthy, it converges and closes the breaker), the third
        // arrives half-open with the probe quota spent.
        let out2 = pool.run(vec![
            healthy_of_class("recover-0", "poison"),
            healthy_of_class("recover-1", "poison"),
            healthy_of_class("recover-2", "poison"),
        ]);
        assert!(
            matches!(
                out2[0].rejection(),
                Some(AdmissionError::BreakerOpen { cooldown_remaining: 1, .. })
            ),
            "got {:?}",
            out2[0].result
        );
        assert!(out2[1].probe, "the attempt completing the cooldown is the probe");
        assert!(out2[1].converged());
        assert!(!out2[1].degraded(), "probes run at full quality");
        assert!(
            matches!(out2[2].rejection(), Some(AdmissionError::BreakerOpen { .. })),
            "got {:?}",
            out2[2].result
        );
        assert_eq!(pool.breakers().state("poison"), Some(BreakerState::Closed));

        // Batch 3: the recovered class serves normally again.
        let out3 = pool.run(vec![healthy_of_class("healed", "poison")]);
        assert!(out3[0].converged() && !out3[0].probe);

        let moves: Vec<_> = pool
            .breakers()
            .transitions()
            .iter()
            .filter(|t| t.class == "poison")
            .map(|t| (t.from, t.to))
            .collect();
        assert_eq!(
            moves,
            vec![
                (BreakerState::Closed, BreakerState::Open),
                (BreakerState::Open, BreakerState::HalfOpen),
                (BreakerState::HalfOpen, BreakerState::Closed),
            ],
            "the full recovery arc must be visible in the transition log"
        );
    }

    #[test]
    fn degraded_profiles_are_deterministic_for_a_replayed_batch() {
        let make = || {
            let mut pool = ServePool::new(PoolConfig {
                workers: 2,
                admission: AdmissionConfig {
                    capacity: 4,
                    per_priority: [4, 4, 4],
                    est_service: Duration::from_millis(10),
                },
                shed: ShedPolicy::default(),
                breaker: breaker_cfg(),
                ..PoolConfig::default()
            });
            let requests: Vec<_> =
                (0..6).map(|i| prioritized(&format!("r{i}"), Priority::Batch)).collect();
            pool.run(requests)
                .into_iter()
                .map(|o| (o.profile, o.pressure, o.result.err().map(|e| e.to_string())))
                .collect::<Vec<_>>()
        };
        assert_eq!(make(), make(), "admission decisions depend on declared quantities only");
    }
}

mod jitter {
    use crate::jitter::{fold_seed, splitmix64, unit};

    /// The jitter stream is part of the replay contract: these outputs
    /// are pinned so a drive-by constant change cannot silently
    /// desynchronize breakers and ladders restored from a snapshot.
    #[test]
    fn splitmix64_sequence_is_pinned() {
        assert_eq!(splitmix64(0), 0xe220_a839_7b1d_cdaf);
        assert_eq!(splitmix64(1), 0x910a_2dec_8902_5cc1);
        assert_eq!(splitmix64(2), 0x9758_35de_1c97_56ce);
        assert_eq!(splitmix64(0xdead_beef), 0x4adf_b90f_68c9_eb9b);
    }

    #[test]
    fn unit_is_pinned_and_in_range() {
        assert_eq!(unit(0).to_bits(), 0.883_310_808_213_642_6_f64.to_bits());
        for x in 0..1000 {
            let u = unit(x);
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn fold_seed_is_pinned_and_decorrelates_names() {
        assert_eq!(fold_seed(0, "poison"), 0x82b0_b584_35f6_cc91);
        assert_eq!(fold_seed(5, ""), 0xcbf2_9ce4_8422_2320);
        assert_ne!(fold_seed(1, "a"), fold_seed(1, "b"));
        assert_eq!(fold_seed(1, "a"), fold_seed(1, "a"));
    }
}

mod ring {
    use crate::ring::Ring;

    #[test]
    fn bounded_push_evicts_oldest_and_counts() {
        let mut r: Ring<usize> = Ring::new(3);
        for i in 0..5 {
            r.push(i);
        }
        assert_eq!(&r[..], &[2, 3, 4]);
        assert_eq!(r.evicted(), 2);
        assert_eq!(r.total(), 5);
        assert_eq!(r.capacity(), 3);
    }

    #[test]
    fn extend_and_clear_preserve_the_lifetime_total() {
        let mut r: Ring<&str> = Ring::new(2);
        r.extend(["a", "b", "c"]);
        assert_eq!(&r[..], &["b", "c"]);
        r.clear();
        assert!(r.is_empty());
        assert_eq!(r.total(), 3, "clear drops items, not history");
    }

    #[test]
    fn zero_capacity_is_clamped_to_one() {
        // A zero-capacity trail would silently drop everything, so the
        // constructor refuses to build one.
        let mut r: Ring<u8> = Ring::new(0);
        assert_eq!(r.capacity(), 1);
        r.push(1);
        r.push(2);
        assert_eq!(&r[..], &[2]);
        assert_eq!(r.evicted(), 1);
    }
}

mod cache {
    use super::*;
    use crate::cache::{CacheConfig, CacheEventKind, HierarchyCache};
    use fp16mg_core::ScaleStrategy;

    fn cfg() -> CacheConfig {
        CacheConfig { capacity: 2, ..CacheConfig::default() }
    }

    fn scaled(n: usize, factor: f64) -> fp16mg_sgdia::SgDia<f64> {
        let mut a = laplace(n).matrix;
        for v in a.data_mut() {
            *v *= factor;
        }
        a
    }

    #[test]
    fn fingerprint_is_layout_independent_and_sees_any_one_entry() {
        use crate::cache::fingerprint;
        use fp16mg_sgdia::Layout;
        // 5³ × 27 entries: whole lane groups and a tail.
        let soa = scaled(5, 1.0).to_layout(Layout::Soa);
        let aos = soa.to_layout(Layout::Aos);
        // The entry-by-entry walk (tap-major, cells in order) is the
        // definition; the SOA slice read must agree with it.
        let mut h = fp16mg_fp::LaneHash::new::<f64>();
        for tap in 0..soa.pattern().len() {
            (0..soa.grid().cells()).for_each(|cell| h.write_value(soa.get(cell, tap)));
        }
        assert_eq!(fingerprint(&soa), h.finish());
        assert_eq!(fingerprint(&aos), h.finish());
        // One flipped bit anywhere — low or high, a value or a stored
        // zero, any lane, the tail — is a different operator.
        let n = soa.data().len();
        for (at, bit) in
            [(0, 0), (1, 63), (7, 52), (8, 1), (n / 2 + 3, 31), (n - 1, 0), (n - 2, 62)]
        {
            let mut flipped = soa.clone();
            let v = flipped.data()[at];
            flipped.data_mut()[at] = f64::from_bits(v.to_bits() ^ (1 << bit));
            assert_ne!(fingerprint(&flipped), fingerprint(&soa), "entry {at} bit {bit}");
        }
    }

    #[test]
    fn event_ladder_hit_rescale_invalidate() {
        let mut cache = HierarchyCache::new(cfg());
        let config = MgConfig::d16();
        let events = [
            (1.0, CacheEventKind::Rebuilt),           // cold build
            (1.0, CacheEventKind::Hit),               // fingerprint-equal
            (1.1, CacheEventKind::Hit),               // |log2 1.1| < keep_max
            (4.0, CacheEventKind::RescaledHit),       // ≤ rescale_max: swap in place
            (96.0, CacheEventKind::DriftInvalidated), // past the bound: rebuild
            (96.0, CacheEventKind::Hit),              // the rebuilt entry serves again
        ];
        for (factor, expect) in events {
            let (_, kind) = cache.acquire("c", &scaled(6, factor), &config).unwrap();
            assert_eq!(kind, expect, "factor {factor}");
        }
        let s = cache.stats();
        // The drift-invalidated rebuild is counted under its own
        // column; `rebuilds` counts cold builds only.
        assert_eq!(
            (s.hits, s.rescaled_hits, s.drift_invalidations, s.rebuilds),
            (3, 1, 1, 1),
            "{s:?}"
        );
        assert_eq!(cache.events().len(), 6, "every decision is a typed event");
    }

    #[test]
    fn capacity_overflow_evicts_lru() {
        let mut cache = HierarchyCache::new(CacheConfig { capacity: 1, ..cfg() });
        let config = MgConfig::d16();
        let a = laplace(6).matrix;
        cache.acquire("one", &a, &config).unwrap();
        cache.acquire("two", &a, &config).unwrap();
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.stats().evictions, 1);
        assert!(
            cache.events().iter().any(|e| e.kind == CacheEventKind::Evicted),
            "evictions are typed events too"
        );
        // The evicted class cold-builds again.
        let (_, kind) = cache.acquire("one", &a, &config).unwrap();
        assert_eq!(kind, CacheEventKind::Rebuilt);
    }

    #[test]
    fn restored_metadata_is_cold_but_keeps_identity() {
        let mut warm = HierarchyCache::new(cfg());
        let config = MgConfig::d16();
        let a = laplace(6).matrix;
        warm.acquire("c", &a, &config).unwrap();
        warm.acquire("c", &a, &config).unwrap(); // one hit on record

        let mut restored = HierarchyCache::new(cfg());
        restored.restore_metadata(&warm.metadata());
        restored.restore_stats(warm.stats());
        assert_eq!(restored.len(), 1);
        // Cold: the chain was not persisted, so the first touch rebuilds …
        let (_, kind) = restored.acquire("c", &a, &config).unwrap();
        assert_eq!(kind, CacheEventKind::Rebuilt);
        // … but the entry's history survived the restart.
        let meta = &restored.metadata()[0];
        assert_eq!(meta.hits, 1);
        assert_eq!(meta.builds, 2);
        // … and the next touch is warm again.
        let (_, kind) = restored.acquire("c", &a, &config).unwrap();
        assert_eq!(kind, CacheEventKind::Hit);
    }

    #[test]
    fn disabled_cache_and_prescaled_configs_always_rebuild() {
        let mut off = HierarchyCache::new(CacheConfig::disabled());
        let a = laplace(6).matrix;
        for _ in 0..2 {
            let (_, kind) = off.acquire("c", &a, &MgConfig::d16()).unwrap();
            assert_eq!(kind, CacheEventKind::Rebuilt);
        }
        // ScaleThenSetup coarsens a prescaled operator: its chain is
        // single-use and must never be retained.
        let mut on = HierarchyCache::new(cfg());
        let config = MgConfig { scale: ScaleStrategy::ScaleThenSetup, ..MgConfig::d16() };
        for _ in 0..2 {
            let (_, kind) = on.acquire("c", &a, &config).unwrap();
            assert_eq!(kind, CacheEventKind::Rebuilt);
        }
        assert!(on.is_empty());
    }
}

mod snapshot {
    use super::*;
    use crate::pool::{PoolConfig, PoolState, ServePool};
    use crate::snapshot::{DaemonSnapshot, SnapshotError, SnapshotStore, SNAPSHOT_VERSION};
    use crate::storage::RealStorage;
    use fp16mg_fp::Fnv1a;

    /// A state with every record type populated: counters, a tripped
    /// breaker with a jittered cooldown, quarantine strikes, cache
    /// stats and entries with escapable names.
    fn populated_state() -> PoolState {
        let mut pool = ServePool::new(PoolConfig::daemon(2));
        let bad = |name: &str| {
            let mut req = SolveRequest::new(name, laplace(6), MgConfig::d16());
            req.class = "poison class".into(); // space exercises escaping
            req.opts = endless_opts();
            req.budget.max_iters = Some(2);
            req.policy = RetryPolicy::fail_fast();
            req
        };
        let ok = SolveRequest::new("ok", laplace(6), MgConfig::d16());
        pool.run(vec![bad("bad-0"), bad("bad-1"), ok]);
        let mut state = pool.export_state();
        state.quarantine = vec![("wedger".into(), 2), ("%weird name%".into(), 1)];
        state
    }

    fn recompute_checksum(text: &str) -> String {
        let body_end = text.rfind("checksum ").unwrap();
        let body = &text[..body_end];
        let mut h = Fnv1a::new();
        for b in body.bytes() {
            h.write_u8(b);
        }
        format!("{body}checksum {:016x}\n", h.finish())
    }

    #[test]
    fn round_trip_is_exact() {
        let snap = DaemonSnapshot { seq: 12, state: populated_state() };
        let back = DaemonSnapshot::decode(&snap.encode()).unwrap();
        assert_eq!(back.seq, 12);
        assert_eq!(back.state, snap.state);
    }

    #[test]
    fn file_round_trip_via_temp_and_rename() {
        let dir = std::env::temp_dir().join(format!("fp16mg-snap-{}", std::process::id()));
        let store = SnapshotStore::new(dir.join("nested").join("daemon.snapshot"));
        let snap = DaemonSnapshot { seq: 7, state: populated_state() };
        let slot = store.publish(&RealStorage, 0, &snap.encode()).unwrap();
        assert!(
            !slot.with_extension("a.tmp").exists(),
            "the temp file must not survive the rename"
        );
        let mut rec = store.recover(&RealStorage, &DaemonSnapshot::decode).unwrap();
        assert!(rec.quarantined.is_empty());
        let (from, back) = rec.candidates.pop().expect("the published slot");
        assert_eq!(from, slot);
        assert_eq!(back.seq, 7);
        assert_eq!(back.state, snap.state);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corruption_is_rejected_typed() {
        let text = DaemonSnapshot { seq: 3, state: populated_state() }.encode();

        // One flipped byte in the body: checksum mismatch.
        let corrupt = text.replacen("seq 3", "seq 4", 1);
        assert!(matches!(
            DaemonSnapshot::decode(&corrupt),
            Err(SnapshotError::ChecksumMismatch { .. })
        ));

        // Torn write: the trailer never made it to disk.
        let torn = &text[..text.rfind("checksum").unwrap()];
        assert!(matches!(DaemonSnapshot::decode(torn), Err(SnapshotError::Truncated)));

        // Not a snapshot at all.
        assert!(matches!(
            DaemonSnapshot::decode("#!/bin/sh\necho hi\n"),
            Err(SnapshotError::BadMagic { .. })
        ));

        // A future version with a valid checksum is refused, not guessed.
        let future = recompute_checksum(&text.replacen(
            &format!("v{SNAPSHOT_VERSION}"),
            &format!("v{}", SNAPSHOT_VERSION + 1),
            1,
        ));
        assert!(matches!(
            DaemonSnapshot::decode(&future),
            Err(SnapshotError::UnsupportedVersion { found }) if found == SNAPSHOT_VERSION + 1
        ));

        // An unknown record tag (with a valid checksum) is a parse error.
        let alien = recompute_checksum(&text.replacen("cache-stats", "gremlin", 1));
        assert!(matches!(DaemonSnapshot::decode(&alien), Err(SnapshotError::Parse { .. })));
    }
}

mod sim_snapshot {
    use crate::snapshot::{
        SimCounters, SimSnapshot, SnapshotError, SnapshotStore, SNAPSHOT_VERSION,
    };
    use crate::storage::RealStorage;

    /// A snapshot exercising every record: escapable problem name,
    /// non-trivial cursor, NaN residual, negative/subnormal solution
    /// entries.
    fn populated() -> SimSnapshot {
        SimSnapshot {
            problem: "oil 4C".into(), // space exercises escaping
            size: 12,
            steps: 24,
            tol: 1e-8,
            seed: 0xdead_beef_cafe_f00d,
            step: 9,
            chain_step: 6,
            finest_step: 8,
            last_resid: f64::NAN,
            counters: SimCounters { keep: 4, rescale: 3, rebuild: 2, repairs: 1, rollbacks: 1 },
            x: vec![1.5, -0.0, f64::MIN_POSITIVE / 4.0, -3.25e101, 0.0],
            fields: 1,
        }
    }

    /// Bit-level equality: `PartialEq` would call NaN != NaN and
    /// -0.0 == 0.0, neither of which is the resume guarantee.
    fn assert_bits_eq(a: &SimSnapshot, b: &SimSnapshot) {
        assert_eq!(a.problem, b.problem);
        assert_eq!((a.size, a.steps, a.seed), (b.size, b.steps, b.seed));
        assert_eq!(a.tol.to_bits(), b.tol.to_bits());
        assert_eq!((a.step, a.chain_step, a.finest_step), (b.step, b.chain_step, b.finest_step));
        assert_eq!(a.last_resid.to_bits(), b.last_resid.to_bits());
        assert_eq!(a.counters, b.counters);
        assert_eq!((a.x.len(), a.fields), (b.x.len(), b.fields));
        for (av, bv) in a.x.iter().zip(&b.x) {
            assert_eq!(av.to_bits(), bv.to_bits());
        }
    }

    #[test]
    fn round_trip_is_bit_exact() {
        let snap = populated();
        let back = SimSnapshot::decode(&snap.encode()).unwrap();
        assert_bits_eq(&snap, &back);
        // A vector-PDE snapshot says how its x is numbered; a scalar one
        // is the record it always was.
        assert!(snap.encode().contains("\nx 5 ") && !snap.encode().contains("x-fields"));
        let vector = SimSnapshot { fields: 5, ..snap };
        assert!(vector.encode().contains("\nx-fields 5 5 "));
        assert_bits_eq(&vector, &SimSnapshot::decode(&vector.encode()).unwrap());
    }

    #[test]
    fn file_round_trip_via_temp_and_rename() {
        let dir = std::env::temp_dir().join(format!("fp16mg-sim-snap-{}", std::process::id()));
        let store = SnapshotStore::new(dir.join("nested").join("sim.snapshot"));
        let snap = populated();
        let slot = store.publish(&RealStorage, 1, &snap.encode()).unwrap();
        assert!(
            !slot.with_extension("b.tmp").exists(),
            "the temp file must not survive the rename"
        );
        let rec = store.recover(&RealStorage, &SimSnapshot::decode).unwrap();
        assert!(rec.quarantined.is_empty());
        assert_eq!(rec.candidates.len(), 1);
        assert_eq!(rec.candidates[0].0, slot);
        assert_bits_eq(&snap, &rec.candidates[0].1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corruption_is_rejected_typed() {
        let text = populated().encode();

        // One flipped byte in the body: checksum mismatch.
        let corrupt = text.replacen("cursor 9", "cursor 8", 1);
        assert!(matches!(
            SimSnapshot::decode(&corrupt),
            Err(SnapshotError::ChecksumMismatch { .. })
        ));

        // Torn write: the trailer never made it to disk.
        let torn = &text[..text.rfind("checksum").unwrap()];
        assert!(matches!(SimSnapshot::decode(torn), Err(SnapshotError::Truncated)));

        // Not a snapshot at all — and a *daemon* snapshot is equally
        // foreign (the magics are distinct on purpose).
        assert!(matches!(
            SimSnapshot::decode("#!/bin/sh\necho hi\n"),
            Err(SnapshotError::BadMagic { .. })
        ));
        assert!(matches!(
            SimSnapshot::decode(&format!("fp16mg-snapshot v{SNAPSHOT_VERSION}\nseq 1\n")),
            Err(SnapshotError::BadMagic { .. })
        ));

        // A future version with a valid checksum is refused.
        let body_end = text.rfind("checksum ").unwrap();
        let future_body = text[..body_end].replacen(
            &format!("v{SNAPSHOT_VERSION}"),
            &format!("v{}", SNAPSHOT_VERSION + 1),
            1,
        );
        let mut h = fp16mg_fp::Fnv1a::new();
        for b in future_body.bytes() {
            h.write_u8(b);
        }
        let future = format!("{future_body}checksum {:016x}\n", h.finish());
        assert!(matches!(
            SimSnapshot::decode(&future),
            Err(SnapshotError::UnsupportedVersion { found }) if found == SNAPSHOT_VERSION + 1
        ));
    }

    #[test]
    fn x_record_length_must_match() {
        let snap = populated();
        let text = snap.encode();
        // Declare one fewer element than the record carries.
        let n = snap.x.len();
        let body_end = text.rfind("checksum ").unwrap();
        let bad_body = text[..body_end].replacen(&format!("x {n} "), &format!("x {} ", n - 1), 1);
        let mut h = fp16mg_fp::Fnv1a::new();
        for b in bad_body.bytes() {
            h.write_u8(b);
        }
        let bad = format!("{bad_body}checksum {:016x}\n", h.finish());
        assert!(matches!(SimSnapshot::decode(&bad), Err(SnapshotError::Parse { .. })));
    }
}

mod golden_bytes {
    //! The bytes on disk are the compatibility contract: one fixed snapshot
    //! of each kind, compared byte for byte. Regenerated for
    //! `SNAPSHOT_VERSION` 2 — the header line and, with it, the checksum
    //! trailer; every record is as version 1 wrote it (captured at the commit
    //! before the codecs shared a record cursor and a body writer). The
    //! version moved because a cache entry's `fingerprint` is now the lane
    //! hash: the field's bytes did not change, what they mean did, and the
    //! version-1 bytes below must be refused.
    use crate::breaker::{BreakerExport, BreakerState};
    use crate::cache::{CacheEntryMeta, CacheKey, CacheStats};
    use crate::pool::{PoolState, ServeCounters};
    use crate::snapshot::{DaemonSnapshot, SimCounters, SimSnapshot, SnapshotError};

    fn daemon() -> DaemonSnapshot {
        let breaker = |state, window: &[bool], trips, rate: f64, open: [usize; 4]| BreakerExport {
            state,
            window: window.to_vec(),
            trips,
            last_failure_rate: rate,
            attempts_while_open: open[0],
            cooldown_target: open[1],
            probes_outstanding: open[2],
            probe_successes_seen: open[3],
        };
        DaemonSnapshot {
            seq: 41,
            state: PoolState {
                counters: ServeCounters {
                    submitted: 41,
                    admitted: 37,
                    rejected_queue_full: 1,
                    rejected_shed: 2,
                    rejected_breaker: 1,
                    rejected_quarantined: 0,
                    degraded: 5,
                    completed_ok: 30,
                    completed_err: 7,
                },
                breakers: vec![
                    (
                        "poison class".into(),
                        breaker(
                            BreakerState::Open,
                            &[true, true, false, true],
                            2,
                            0.75,
                            [3, 9, 0, 0],
                        ),
                    ),
                    ("steady".into(), breaker(BreakerState::Closed, &[], 0, 0.0, [0, 0, 0, 0])),
                ],
                quarantine: vec![("%weird name%".into(), 2)],
                cache_stats: CacheStats {
                    hits: 11,
                    rescaled_hits: 4,
                    drift_invalidations: 2,
                    rebuilds: 3,
                    evictions: 1,
                },
                cache_entries: vec![CacheEntryMeta {
                    key: CacheKey {
                        class: "drift/a b".into(),
                        dims: (8, 9, 10),
                        components: 3,
                        taps: 19,
                    },
                    fingerprint: 0x0123_4567_89ab_cdef,
                    hits: 6,
                    rescaled_hits: 2,
                    builds: 2,
                }],
            },
        }
    }

    fn sim() -> SimSnapshot {
        SimSnapshot {
            problem: "rhd-3T".into(),
            size: 6,
            steps: 12,
            tol: 1e-9,
            seed: 0xfeed_5eed,
            step: 7,
            chain_step: 4,
            finest_step: 6,
            last_resid: 3.5e-10,
            counters: SimCounters { keep: 3, rescale: 2, rebuild: 2, repairs: 1, rollbacks: 0 },
            x: vec![1.0, -0.0, 2.5e-300, f64::NAN, -7.25, 0.1],
            fields: 3,
        }
    }

    const DAEMON_BYTES: &str = "\
         fp16mg-snapshot v2\n\
         seq 41\n\
         counters 41 37 1 2 1 0 5 30 7\n\
         breaker poison%20class open 1101 2 3fe8000000000000 3 9 0 0\n\
         breaker steady closed - 0 0000000000000000 0 0 0 0\n\
         quarantine %25weird%20name%25 2\n\
         cache-stats 11 4 2 3 1\n\
         cache-entry drift%2Fa%20b 8 9 10 3 19 0123456789abcdef 6 2 2\n\
         checksum a3dda4c87a594880\n\
         ";

    const SIM_BYTES: &str = "\
         fp16mg-sim-snapshot v2\n\
         problem rhd-3T\n\
         config 6 12 3e112e0be826d695 00000000feed5eed\n\
         cursor 7 4 6\n\
         resid 3df80d43de9cc603\n\
         counters 3 2 2 1 0\n\
         x-fields 3 6 3ff0000000000000 8000000000000000 01bac9a7b3b7302f 7ff8000000000000 c01d000000000000 3fb999999999999a\n\
         checksum f9ddce8426035456\n\
         ";

    #[test]
    fn daemon_snapshot_encodes_to_the_committed_bytes() {
        assert_eq!(daemon().encode(), DAEMON_BYTES);
        assert_eq!(DaemonSnapshot::decode(DAEMON_BYTES).unwrap(), daemon());
    }

    #[test]
    fn sim_snapshot_encodes_to_the_committed_bytes() {
        assert_eq!(sim().encode(), SIM_BYTES);
        assert_eq!(SimSnapshot::decode(SIM_BYTES).unwrap().encode(), SIM_BYTES);
    }

    #[test]
    fn version_1_snapshots_are_refused_typed() {
        // The files version 1 wrote for the same two snapshots, checksums
        // valid: refused by version, not misread.
        let v1 = |bytes: &str, v2_sum: &str, v1_sum: &str| {
            bytes.replacen(" v2\n", " v1\n", 1).replacen(v2_sum, v1_sum, 1)
        };
        let daemon_v1 = v1(DAEMON_BYTES, "a3dda4c87a594880", "9e5a9951524f234f");
        assert_eq!(
            DaemonSnapshot::decode(&daemon_v1),
            Err(SnapshotError::UnsupportedVersion { found: 1 })
        );
        let sim_v1 = v1(SIM_BYTES, "f9ddce8426035456", "c471e003781eae13");
        assert_eq!(
            SimSnapshot::decode(&sim_v1).map(|s| s.step),
            Err(SnapshotError::UnsupportedVersion { found: 1 })
        );
    }

    #[test]
    fn field_errors_name_the_line_and_the_field() {
        // The shared record cursor produces the messages both decoders
        // used to spell by hand.
        let reseal = |body: &str| {
            let mut h = fp16mg_fp::Fnv1a::new();
            body.bytes().for_each(|b| h.write_u8(b));
            format!("{body}checksum {:016x}\n", h.finish())
        };
        let message = |err| match err {
            SnapshotError::Parse { line, message } => (line, message),
            other => panic!("expected a parse error, got {other:?}"),
        };
        let body = &DAEMON_BYTES[..DAEMON_BYTES.rfind("checksum ").unwrap()];
        let short = reseal(&body.replacen("cache-stats 11 4 2 3 1", "cache-stats 11 4 2 3", 1));
        assert_eq!(
            message(DaemonSnapshot::decode(&short).unwrap_err()),
            (7, "missing field: evictions".to_string())
        );
        let bad = reseal(&body.replacen("seq 41", "seq forty-one", 1));
        assert_eq!(
            message(DaemonSnapshot::decode(&bad).unwrap_err()),
            (2, "bad seq: \"forty-one\"".to_string())
        );
        let body = &SIM_BYTES[..SIM_BYTES.rfind("checksum ").unwrap()];
        let bits = reseal(&body.replacen("resid 3df80d43de9cc603", "resid 0.35", 1));
        assert_eq!(
            message(SimSnapshot::decode(&bits).unwrap_err()),
            (5, "bad resid bit pattern: \"0.35\"".to_string())
        );
    }
}

mod daemon {
    use super::*;
    use crate::admission::AdmissionError;
    use crate::pool::{PoolConfig, ServePool};
    use crate::supervise::{Daemon, DaemonConfig, Quarantine};

    fn temp_snapshot(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir()
            .join(format!("fp16mg-daemon-{}-{tag}", std::process::id()))
            .join("daemon.snapshot")
    }

    /// A deterministic mixed batch: two requests of a class that fails
    /// terminally and one healthy request.
    fn batch() -> Vec<SolveRequest> {
        let bad = |name: &str| {
            let mut req = SolveRequest::new(name, laplace(6), MgConfig::d16());
            req.class = "poison".into();
            req.opts = endless_opts();
            req.budget.max_iters = Some(2);
            req.policy = RetryPolicy::fail_fast();
            req
        };
        vec![bad("bad-0"), bad("bad-1"), SolveRequest::new("ok", laplace(6), MgConfig::d16())]
    }

    fn decisions(outcomes: &[crate::pool::RequestOutcome]) -> Vec<(String, String, String)> {
        outcomes
            .iter()
            .map(|o| {
                (
                    o.name.clone(),
                    o.profile.label().to_string(),
                    o.result.as_ref().map(|_| "ok".into()).unwrap_or_else(|e| e.to_string()),
                )
            })
            .collect()
    }

    #[test]
    fn checkpoint_restore_replays_identical_decisions() {
        let path = temp_snapshot("replay");
        let _ = std::fs::remove_file(&path);
        let cfg = || DaemonConfig {
            pool: PoolConfig::daemon(2),
            snapshot_path: Some(path.clone()),
            ..DaemonConfig::default()
        };

        // Run one batch (trips the poison breaker), checkpoint, "crash".
        let mut first = Daemon::start(cfg()).unwrap();
        assert!(!first.restored());
        first.submit(batch());
        first.checkpoint().unwrap();
        let exported = first.pool().export_state();
        drop(first); // no drain: the explicit checkpoint is the survivor

        // The restarted daemon resumes the cursor and the breaker state …
        let mut restored = Daemon::start(cfg()).unwrap();
        assert!(restored.restored());
        assert_eq!(restored.seq(), 3);
        assert_eq!(restored.pool().export_state().breakers, exported.breakers);
        assert_eq!(restored.pool().counters(), exported.counters);

        // … and an untouched reference pool that replays history from
        // scratch reaches the exact same decisions on the next batch.
        let mut reference = ServePool::new(PoolConfig::daemon(2));
        reference.run(batch());
        let live = restored.submit(batch());
        let replayed = reference.run(batch());
        assert_eq!(decisions(&live), decisions(&replayed));

        // Graceful drain writes the final checkpoint and reports it.
        let report = restored.drain().unwrap();
        assert_eq!(report.seq, 6);
        assert!(report.checkpointed);
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
    }

    #[test]
    fn quarantined_names_are_refused_at_the_gate() {
        let mut q = Quarantine::new(2);
        assert_eq!(q.strike("flaky"), 1);
        assert!(!q.is_quarantined("flaky"));
        assert_eq!(q.strike("flaky"), 2);
        assert!(q.is_quarantined("flaky"));

        // Restore merges by max: a replayed older snapshot cannot
        // un-quarantine a name.
        let mut merged = Quarantine::new(2);
        merged.restore(&[("flaky".into(), 1)]);
        merged.restore(&q.export());
        merged.restore(&[("flaky".into(), 1)]);
        assert_eq!(merged.strikes_of("flaky"), 2);

        // The pool's admission gate refuses the name with a typed error.
        let mut pool = ServePool::new(PoolConfig::daemon(1));
        let mut state = pool.export_state();
        state.quarantine = vec![("flaky".into(), 2)];
        pool.restore_state(&state);
        let out = pool.run(vec![SolveRequest::new("flaky", laplace(6), MgConfig::d16())]);
        assert!(
            matches!(out[0].rejection(), Some(AdmissionError::Quarantined { strikes: 2, .. })),
            "got {:?}",
            out[0].result
        );
        assert_eq!(pool.counters().rejected_quarantined, 1);
    }
}

mod storage_faults {
    use std::path::{Path, PathBuf};

    use crate::snapshot::{SimCounters, SimSnapshot, SnapshotStore};
    use crate::storage::{append_durable, Fault, FaultStorage, Storage};
    use fp16mg_testkit::check_n;

    fn write_file(s: &FaultStorage, path: &Path, bytes: &[u8], fsync: bool) {
        let mut f = s.create(path).unwrap();
        f.write_all(bytes).unwrap();
        if fsync {
            f.fsync().unwrap();
        }
    }

    fn p(name: &str) -> PathBuf {
        PathBuf::from("/t").join(name)
    }

    #[test]
    fn power_loss_drops_dirty_pages_and_unsynced_entries() {
        // Written + fsynced, but the directory entry was never synced:
        // the *entry* is volatile, so the file vanishes entirely.
        let s = FaultStorage::new();
        write_file(&s, &p("entry-unsynced"), b"hello", true);
        s.power_loss();
        assert!(s.peek(&p("entry-unsynced")).is_none(), "unsynced entry must not survive");

        // Written + fsynced + entry synced: fully durable. Bytes
        // appended after the sync are dirty pages only.
        let s = FaultStorage::new();
        write_file(&s, &p("durable"), b"hello", true);
        s.sync_dir(Path::new("/t")).unwrap();
        let mut f = s.append(&p("durable")).unwrap();
        f.write_all(b" world").unwrap();
        drop(f);
        assert_eq!(s.peek(&p("durable")).unwrap(), b"hello world");
        s.power_loss();
        assert_eq!(s.peek(&p("durable")).unwrap(), b"hello", "dirty pages must be dropped");
    }

    #[test]
    fn rename_reverts_without_a_directory_sync() {
        let s = FaultStorage::new();
        write_file(&s, &p("x.tmp"), b"v1", true);
        s.sync_dir(Path::new("/t")).unwrap();
        s.rename(&p("x.tmp"), &p("x")).unwrap();
        assert!(s.exists(&p("x")) && !s.exists(&p("x.tmp")));

        // No sync_dir after the rename: the crash rolls it back.
        s.power_loss();
        assert!(s.exists(&p("x.tmp")) && !s.exists(&p("x")), "rename must revert");

        // With the directory sync the rename survives.
        s.rename(&p("x.tmp"), &p("x")).unwrap();
        s.sync_dir(Path::new("/t")).unwrap();
        s.power_loss();
        assert!(s.exists(&p("x")) && !s.exists(&p("x.tmp")));
        assert_eq!(s.peek(&p("x")).unwrap(), b"v1");
    }

    #[test]
    fn torn_write_lands_half_and_takes_the_storage_down() {
        let s = FaultStorage::new();
        write_file(&s, &p("log"), b"", true);
        s.sync_dir(Path::new("/t")).unwrap();
        let mut f = s.append(&p("log")).unwrap();
        s.schedule(s.op_count(), Fault::TornWrite);
        assert!(f.write_all(b"abcdefgh").is_err(), "torn write must error");
        assert!(s.crashed(), "torn write must take the storage down");
        // Every subsequent counting op fails until power_loss.
        assert!(s.read(&p("log")).is_err());
        s.power_loss();
        assert_eq!(s.peek(&p("log")).unwrap(), b"abcd", "half the buffer must be durable");
        assert_eq!(s.fired()["torn-write"], 1);
    }

    #[test]
    fn failed_fsync_poisons_the_dirty_pages() {
        let s = FaultStorage::new();
        write_file(&s, &p("f"), b"base", true);
        s.sync_dir(Path::new("/t")).unwrap();
        let mut f = s.append(&p("f")).unwrap();
        f.write_all(b"+dirty").unwrap();
        s.schedule(s.op_count(), Fault::FsyncFail);
        assert!(f.fsync().is_err());
        // Post-failure the cache cannot be trusted: the dirty pages are
        // gone even from the *live* view (no retry-fsync-to-success).
        assert_eq!(s.peek(&p("f")).unwrap(), b"base");
        assert!(!s.crashed(), "a failed fsync is an error, not a crash");
    }

    #[test]
    fn silent_fsync_loss_reports_success_and_persists_nothing() {
        let s = FaultStorage::new();
        write_file(&s, &p("f"), b"base", true);
        s.sync_dir(Path::new("/t")).unwrap();
        let mut f = s.append(&p("f")).unwrap();
        f.write_all(b"+more").unwrap();
        s.schedule(s.op_count(), Fault::SilentFsyncLoss);
        f.fsync().unwrap(); // lies
        assert_eq!(s.peek(&p("f")).unwrap(), b"base+more", "live view keeps the bytes");
        s.power_loss();
        assert_eq!(s.peek(&p("f")).unwrap(), b"base", "the lying fsync persisted nothing");
        assert_eq!(s.fired()["silent-fsync-loss"], 1);
    }

    #[test]
    fn corrupt_read_is_transient_media_stays_intact() {
        let s = FaultStorage::new();
        write_file(&s, &p("f"), b"payload", true);
        s.schedule(s.op_count(), Fault::CorruptRead { bit: 1 });
        let corrupt = s.read(&p("f")).unwrap();
        assert_ne!(corrupt, b"payload", "the faulted read must be corrupted");
        assert_eq!(s.read(&p("f")).unwrap(), b"payload", "the next read is clean");
        assert_eq!(s.fired()["read-corruption"], 1);
    }

    #[test]
    fn append_durable_survives_a_bounded_enospc_burst_and_reports_a_long_one() {
        // A burst of 2 failures is absorbed by the bounded retry and
        // leaves exactly one copy of the record.
        let s = FaultStorage::new();
        append_durable(&s, &p("log"), b"one\n").unwrap();
        s.schedule(s.op_count() + 1, Fault::NoSpace { count: 2 });
        append_durable(&s, &p("log"), b"two\n").unwrap();
        assert_eq!(s.peek(&p("log")).unwrap(), b"one\ntwo\n");
        assert_eq!(s.fired()["enospc"], 2);
        s.power_loss();
        assert_eq!(s.peek(&p("log")).unwrap(), b"one\ntwo\n", "the retried append is durable");

        // A burst longer than the retry budget surfaces as a typed
        // NoSpace error and leaves the log exactly as it was.
        let s = FaultStorage::new();
        append_durable(&s, &p("log"), b"one\n").unwrap();
        s.schedule(s.op_count() + 1, Fault::NoSpace { count: 10 });
        let err = append_durable(&s, &p("log"), b"two\n").unwrap_err();
        assert!(err.is_no_space(), "got {err}");
        assert_eq!(s.peek(&p("log")).unwrap(), b"one\n", "failed append must roll back");
    }

    #[test]
    fn append_durable_syncs_the_parent_entry_on_creation() {
        let s = FaultStorage::new();
        append_durable(&s, &p("fresh.log"), b"line\n").unwrap();
        s.power_loss();
        assert_eq!(
            s.peek(&p("fresh.log")).unwrap(),
            b"line\n",
            "a freshly created append target must survive power loss"
        );
    }

    fn snap(step: u64) -> SimSnapshot {
        SimSnapshot {
            problem: "oil".into(),
            size: 6,
            steps: 8,
            tol: 1e-7,
            seed: 0,
            step,
            chain_step: step,
            finest_step: step,
            last_resid: 1e-9,
            counters: SimCounters::default(),
            x: vec![0.5, -1.25, 3.0],
            fields: 1,
        }
    }

    #[test]
    fn snapshot_store_rotates_generations_across_slots() {
        let s = FaultStorage::new();
        let store = SnapshotStore::new("/t/sim.snapshot");
        let p0 = store.publish(&s, 0, &snap(0).encode()).unwrap();
        let p1 = store.publish(&s, 1, &snap(1).encode()).unwrap();
        let p2 = store.publish(&s, 2, &snap(2).encode()).unwrap();
        assert_eq!(p0, PathBuf::from("/t/sim.snapshot.a"));
        assert_eq!(p1, PathBuf::from("/t/sim.snapshot.b"));
        assert_eq!(p2, p0, "even generations overwrite slot A");

        // Power loss: publishes are atomic (write + rename + dir
        // fsync), so both slots survive with generations 1 and 2.
        s.power_loss();
        let rec = store.recover(&s, &SimSnapshot::decode).unwrap();
        assert!(rec.quarantined.is_empty());
        let mut steps: Vec<u64> = rec.candidates.iter().map(|(_, v)| v.step).collect();
        steps.sort_unstable();
        assert_eq!(steps, vec![1, 2]);
    }

    #[test]
    fn corrupt_slot_is_quarantined_with_fallback_to_the_other_generation() {
        let s = FaultStorage::new();
        let store = SnapshotStore::new("/t/sim.snapshot");
        store.publish(&s, 6, &snap(6).encode()).unwrap();
        store.publish(&s, 7, &snap(7).encode()).unwrap();
        // Corrupt the newer slot (B) in place.
        let slot_b = store.slot_for(7);
        let mut bytes = s.peek(&slot_b).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x10;
        write_file(&s, &slot_b, &bytes, true);

        let rec = store.recover(&s, &SimSnapshot::decode).unwrap();
        assert_eq!(rec.quarantined.len(), 1, "the corrupt slot must be quarantined");
        assert_eq!(rec.quarantined[0].0, slot_b);
        assert_eq!(rec.candidates.len(), 1, "the older generation must survive as fallback");
        assert_eq!(rec.candidates[0].1.step, 6);
        // The corrupt file was moved aside, not deleted, and the slot
        // path no longer exists.
        assert!(!s.exists(&slot_b));
        assert!(s.exists(&PathBuf::from("/t/sim.snapshot.b.quarantine")));
        // A rescan after quarantine is clean: nothing left to refuse.
        let again = store.recover(&s, &SimSnapshot::decode).unwrap();
        assert!(again.quarantined.is_empty());
        assert_eq!(again.candidates.len(), 1);
    }

    #[test]
    fn all_slots_corrupt_leaves_no_candidates_but_both_postmortems() {
        let s = FaultStorage::new();
        let store = SnapshotStore::new("/t/sim.snapshot");
        store.publish(&s, 0, &snap(0).encode()).unwrap();
        store.publish(&s, 1, &snap(1).encode()).unwrap();
        for g in [0u64, 1] {
            let slot = store.slot_for(g);
            let mut bytes = s.peek(&slot).unwrap();
            bytes[0] ^= 0x01;
            write_file(&s, &slot, &bytes, true);
        }
        let rec = store.recover(&s, &SimSnapshot::decode).unwrap();
        assert!(rec.candidates.is_empty());
        assert_eq!(rec.quarantined.len(), 2);
    }

    /// Satellite: single-bit-flip fuzz over the serialized snapshot.
    /// Every flip must either fail to decode (typed error) or decode to
    /// a value whose re-encoding is bit-identical to the original text
    /// (a flip that lands in redundant encoding space, e.g. turning the
    /// final newline into a vertical tab that the tokenizer ignores,
    /// may decode — but never to *different* state).
    #[test]
    fn prop_bit_flip_never_decodes_to_different_state() {
        let text = snap(5).encode();
        let bits = text.len() as u64 * 8;
        check_n("snapshot-bit-flip", 256, |rng| {
            let bit = rng.next_u64() % bits;
            let mut bytes = text.clone().into_bytes();
            bytes[(bit / 8) as usize] ^= 1 << (bit % 8);
            let corrupt = String::from_utf8_lossy(&bytes).into_owned();
            if let Ok(back) = SimSnapshot::decode(&corrupt) {
                assert_eq!(
                    back.encode(),
                    text,
                    "bit {bit} decoded to different state instead of being rejected"
                );
            }
        });
    }

    /// Satellite: under a random single-bit flip of a random slot, the
    /// store must quarantine the corrupt slot and fall back to the
    /// other generation — recovery never ends with zero candidates and
    /// never restores flipped state.
    #[test]
    fn prop_bit_flip_quarantine_falls_back_to_the_good_generation() {
        check_n("snapshot-bit-flip-fallback", 64, |rng| {
            let s = FaultStorage::new();
            let store = SnapshotStore::new("/t/sim.snapshot");
            store.publish(&s, 2, &snap(2).encode()).unwrap();
            store.publish(&s, 3, &snap(3).encode()).unwrap();
            let victim_gen = 2 + (rng.next_u64() % 2);
            let slot = store.slot_for(victim_gen);
            let original = s.peek(&slot).unwrap();
            let bit = rng.next_u64() % (original.len() as u64 * 8);
            let mut bytes = original.clone();
            bytes[(bit / 8) as usize] ^= 1 << (bit % 8);
            write_file(&s, &slot, &bytes, true);

            let rec = store.recover(&s, &SimSnapshot::decode).unwrap();
            match rec.candidates.len() {
                // Benign flip (decoded identical): both survive.
                2 => assert!(rec.quarantined.is_empty()),
                // Corrupting flip: the victim is quarantined, the other
                // generation survives as the fallback.
                1 => {
                    assert_eq!(rec.quarantined.len(), 1);
                    assert_eq!(rec.quarantined[0].0, slot);
                    assert_eq!(rec.candidates[0].1.step, if victim_gen == 2 { 3 } else { 2 });
                }
                n => panic!("{n} candidates from a single-slot flip"),
            }
            for (_, got) in &rec.candidates {
                assert_eq!(
                    got.encode(),
                    snap(got.step).encode(),
                    "a restored candidate must be bit-identical to what was published"
                );
            }
        });
    }

    #[test]
    fn storage_error_reports_the_failing_op() {
        let s = FaultStorage::new();
        let err = s.read(&p("missing")).unwrap_err();
        assert_eq!(err.op(), "read");
        assert!(!err.is_no_space());
    }
}

mod mem_governor {
    use crate::mem::{AllocFault, MemError, MemGovernor};

    #[test]
    fn charges_credit_back_on_drop() {
        let g = MemGovernor::with_budget(1000);
        let a = g.try_charge("setup", 400).unwrap();
        let b = g.try_charge("workspace", 500).unwrap();
        assert_eq!(g.used(), 900);
        assert_eq!(g.peak(), 900);
        drop(a);
        assert_eq!(g.used(), 500);
        drop(b);
        assert_eq!(g.used(), 0, "all receipts dropped: accounting returns to zero");
        assert_eq!(g.peak(), 900, "peak survives the credits");
    }

    #[test]
    fn budget_refusal_is_typed_and_charges_nothing() {
        let g = MemGovernor::with_budget(100);
        let _a = g.try_charge("setup", 80).unwrap();
        let err = g.try_charge("cache-insert", 30).unwrap_err();
        assert_eq!(
            err,
            MemError::BudgetExceeded {
                class: "cache-insert",
                requested: 30,
                used: 80,
                budget: 100,
            }
        );
        assert_eq!(g.used(), 80, "a refused charge must not leak bytes");
        assert_eq!(g.fired().get("budget-exceeded"), Some(&1));
    }

    #[test]
    fn unlimited_tracks_but_never_refuses() {
        let g = MemGovernor::unlimited();
        let c = g.try_charge("setup", u64::MAX / 2).unwrap();
        assert_eq!(g.fill(), 0.0);
        drop(c);
        assert_eq!(g.used(), 0);
    }

    #[test]
    fn scheduled_fail_fires_once_at_its_index() {
        let g = MemGovernor::with_budget(1_000_000);
        g.schedule(1, AllocFault::Fail);
        let _a = g.try_charge("setup", 10).unwrap();
        let err = g.try_charge("workspace", 10).unwrap_err();
        assert_eq!(err, MemError::Injected { class: "workspace", index: 1 });
        let _b = g.try_charge("workspace", 10).expect("retry at the next index succeeds");
        assert_eq!(g.fired().get("alloc-fail"), Some(&1));
        assert_eq!(g.used(), 20);
    }

    #[test]
    fn burst_fails_a_bounded_run_of_charges() {
        let g = MemGovernor::unlimited();
        g.schedule(0, AllocFault::Burst { count: 3 });
        for i in 0..3 {
            let err = g.try_charge("setup", 1).unwrap_err();
            assert_eq!(err, MemError::Injected { class: "setup", index: i });
        }
        assert!(g.try_charge("setup", 1).is_ok(), "burst is bounded");
        assert_eq!(g.fired().get("alloc-burst"), Some(&3));
    }

    #[test]
    fn op_log_records_every_attempt_for_replay() {
        let g = MemGovernor::with_budget(50);
        g.record_ops();
        let _c = g.try_charge("setup", 40).unwrap();
        let _ = g.try_charge("cache-insert", 40);
        let log = g.op_log();
        assert_eq!(log.len(), 2);
        assert_eq!((log[0].index, log[0].class, log[0].bytes), (0, "setup", 40));
        assert_eq!((log[1].index, log[1].class), (1, "cache-insert"));
        assert_eq!(g.op_count(), 2);
    }

    #[test]
    fn production_governor_keeps_counters_not_history() {
        // The daemon's governor lives as long as the process: a charge
        // must not leave a record (or a heap string) behind.
        let g = MemGovernor::unlimited();
        for _ in 0..100_000 {
            drop(g.try_charge("workspace", 64).unwrap());
        }
        assert!(g.op_log().is_empty(), "an unasked-for op log grew by one record per charge");
        assert_eq!((g.op_count(), g.used(), g.peak()), (100_000, 0, 64));
    }

    #[test]
    fn fill_reflects_budget_fraction() {
        let g = MemGovernor::with_budget(200);
        let _c = g.try_charge("setup", 150).unwrap();
        assert!((g.fill() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn clones_share_state_across_threads() {
        let g = MemGovernor::with_budget(1000);
        let g2 = g.clone();
        let h = std::thread::spawn(move || {
            let c = g2.try_charge("setup", 600).unwrap();
            assert_eq!(g2.used(), 600);
            drop(c);
        });
        h.join().unwrap();
        assert_eq!(g.used(), 0);
        assert_eq!(g.peak(), 600);
    }
}

mod mem_pressure {
    use super::*;
    use std::collections::BTreeMap;

    use crate::cache::CacheConfig;
    use crate::mem::MemGovernor;
    use crate::pool::{PoolConfig, RequestOutcome, ServePool};
    use crate::shed::ShedPolicy;

    /// Six requests in six distinct problem classes: every class is its
    /// own cache entry and every hierarchy is built from its own matrix,
    /// so solves are independent of cache interleaving and eviction —
    /// only the *memory* behavior may differ between runs.
    fn batch() -> Vec<SolveRequest> {
        (0..6)
            .map(|i| {
                let mut problem = laplace(6);
                for v in problem.matrix.data_mut() {
                    *v *= 1.0 + i as f64;
                }
                let mut req = SolveRequest::new(format!("mem-{i}"), problem, MgConfig::d16());
                req.class = format!("class-{i}");
                req.opts = SolveOptions { tol: 1e-8, record_history: false, ..Default::default() };
                req
            })
            .collect()
    }

    fn pool_cfg(budget: Option<u64>) -> PoolConfig {
        PoolConfig {
            workers: 3,
            mem_budget: budget,
            shed: ShedPolicy::disabled(),
            cache: CacheConfig::default(),
            ..PoolConfig::default()
        }
    }

    /// Unlimited governor, but the cache itself holds at most
    /// `byte_budget` of retained chains (evicting LRU to make room).
    fn cache_budget_cfg(byte_budget: u64) -> PoolConfig {
        PoolConfig {
            workers: 3,
            mem_budget: None,
            shed: ShedPolicy::disabled(),
            cache: CacheConfig { byte_budget: Some(byte_budget), ..CacheConfig::default() },
            ..PoolConfig::default()
        }
    }

    /// Solutions of the converged outcomes, keyed by request name.
    fn solutions(outcomes: &[RequestOutcome]) -> BTreeMap<String, Vec<f64>> {
        outcomes
            .iter()
            .filter(|o| o.converged())
            .map(|o| {
                let x = o.solution.clone().unwrap_or_else(|| panic!("{} no solution", o.name));
                (o.name.clone(), x)
            })
            .collect()
    }

    /// Accounting invariant shared by both runs: after the batch, the
    /// only live charges are the cache's retained chains, and dropping
    /// the pool credits everything back to zero (no double-charge, no
    /// leak).
    fn assert_accounting(pool: ServePool, governor: &MemGovernor) {
        assert_eq!(
            governor.used(),
            pool.cache().cache_bytes(),
            "live bytes after the run must equal the cache's retained chains"
        );
        drop(pool);
        assert_eq!(governor.used(), 0, "all receipts credited back on drop");
    }

    #[test]
    fn concurrent_eviction_under_byte_pressure_keeps_solves_exact() {
        // Reference: unbudgeted concurrent run.
        let mut free = ServePool::new(pool_cfg(None));
        let free_gov = free.governor().clone();
        let free_out = free.run(batch());
        assert!(free_out.iter().all(RequestOutcome::converged), "unbudgeted batch converges");
        assert!(free_gov.peak() > 0, "governor tracked the working set");
        assert_eq!(free.cache().mem_evictions(), 0, "no byte pressure without a budget");
        let retained = free.cache().cache_bytes();
        assert!(retained > 0, "unbudgeted run retains all six chains");
        let want = solutions(&free_out);
        assert_accounting(free, &free_gov);

        // Pressured: the same batch with the cache capped at ~2/5 of the
        // bytes it retained when unbudgeted, still on 3 workers. The
        // governor stays unlimited, so no solve is ever refused — the
        // pressure is absorbed entirely by LRU eviction, concurrently
        // with inserts from the other workers.
        let budget = (retained * 2) / 5;
        let mut tight = ServePool::new(cache_budget_cfg(budget));
        let tight_gov = tight.governor().clone();
        let tight_out = tight.run(batch());
        assert!(
            tight_out.iter().all(RequestOutcome::converged),
            "cache-byte pressure must never fail a solve"
        );
        assert!(tight.cache().mem_evictions() > 0, "six chains into 2/5 the bytes must evict");
        assert!(
            tight.cache().cache_bytes() <= budget,
            "retained {} exceeds the cache byte budget {budget}",
            tight.cache().cache_bytes()
        );

        // Each request's hierarchy is always built from its own matrix,
        // so eviction and rebuild churn must not change a single bit of
        // any solution.
        let got = solutions(&tight_out);
        for (name, y) in &got {
            let x = &want[name];
            assert_eq!(x.len(), y.len(), "{name}: solution length");
            for (i, (a, b)) in x.iter().zip(y).enumerate() {
                assert!(
                    a.to_bits() == b.to_bits(),
                    "{name}[{i}]: {a:e} != {b:e} — eviction changed the solve"
                );
            }
        }
        assert_accounting(tight, &tight_gov);
    }

    #[test]
    fn budget_smaller_than_any_chain_degrades_to_uncached_serves() {
        // A budget too small to retain even one hierarchy: every setup
        // still succeeds (the session builds outside the cache), every
        // serve is typed as uncached or evicted, nothing panics.
        let mut pool = ServePool::new(pool_cfg(Some(4096)));
        let governor = pool.governor().clone();
        let outcomes = pool.run(batch());
        for o in &outcomes {
            let worker_panicked = matches!(
                o.result.as_ref().err().and_then(|e| e.session()),
                Some(SolveError::WorkerPanicked { .. })
            );
            assert!(!worker_panicked, "{}: memory pressure must never panic a worker", o.name);
        }
        assert!(
            pool.cache().uncached_serves() > 0,
            "a starved cache serves uncached instead of aborting"
        );
        assert_eq!(pool.cache().cache_bytes(), 0, "nothing retained under a starved budget");
        assert_accounting(pool, &governor);
    }
}

mod wire_props {
    //! Satellite: frame-decoder property tests. The decoder is total —
    //! on arbitrary bytes it returns a typed error or a valid frame,
    //! never panics, and never allocates more than the declared limits.

    use crate::net::{decode_frame, limits, Frame, SubmitRequest, WireError, WIRE_MAGIC};
    use fp16mg_testkit::{check_n, Rng};

    /// A random *valid* frame, exercising every kind and the label
    /// length edges.
    fn arb_frame(rng: &mut Rng) -> Frame {
        fn label(rng: &mut Rng) -> String {
            let len = rng.usize_range(0, limits::MAX_LABEL);
            "x".repeat(len)
        }
        match rng.usize_range(0, 7) {
            0 => Frame::Submit(SubmitRequest {
                key: rng.next_u64(),
                size: rng.usize_range(2, limits::MAX_PAYLOAD as usize) as u32,
                tol: rng.f64_range(1e-12, 1.0),
                priority: rng.usize_range(0, 2) as u8,
            }),
            1 => Frame::Done(crate::net::DoneReply {
                key: rng.next_u64(),
                duplicate: rng.chance(0.5),
                outcome: label(rng),
                profile: label(rng),
                breaker: label(rng),
            }),
            2 => Frame::Busy { retry_ms: rng.next_u64() as u32, reason: label(rng) },
            3 => Frame::Error { code: rng.usize_range(1, 10) as u8, detail: label(rng) },
            4 => Frame::Ping,
            5 => Frame::Shutdown,
            6 => Frame::ShutdownOk { seq: rng.next_u64() },
            _ => Frame::Pong,
        }
    }

    #[test]
    fn prop_wire_roundtrip() {
        check_n("wire-roundtrip", 512, |rng| {
            let frame = arb_frame(rng);
            let bytes = frame.encode();
            let (decoded, consumed) = decode_frame(&bytes).expect("encoded frame must decode");
            assert_eq!(decoded, frame, "round trip must be identity");
            assert_eq!(consumed, bytes.len(), "decode must consume the whole encoding");
        });
    }

    #[test]
    fn prop_wire_decoder_total_on_garbage() {
        check_n("wire-garbage", 512, |rng| {
            let len = rng.usize_range(0, 256);
            let bytes: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
            // Total: a typed error or a valid frame, never a panic. On
            // success the cursor stays inside the buffer.
            match decode_frame(&bytes) {
                Ok((_, consumed)) => assert!(consumed <= bytes.len()),
                Err(e) => {
                    assert!(e.code() >= 1, "every decode error carries a typed code");
                }
            }
        });
    }

    #[test]
    fn prop_wire_flip_one_bit_typed_or_valid() {
        check_n("wire-bit-flip", 512, |rng| {
            let frame = arb_frame(rng);
            let mut bytes = frame.encode();
            let bit = rng.usize_range(0, bytes.len() * 8 - 1);
            bytes[bit / 8] ^= 1 << (bit % 8);
            match decode_frame(&bytes) {
                Ok((_, consumed)) => assert!(consumed <= bytes.len()),
                Err(e) => assert!(e.code() >= 1),
            }
            // Any truncation of a valid frame is typed too.
            let bytes = frame.encode();
            let cut = rng.usize_range(0, bytes.len() - 1);
            match decode_frame(&bytes[..cut]) {
                Ok((_, consumed)) => assert!(consumed <= cut),
                Err(e) => assert!(e.code() >= 1),
            }
        });
    }

    #[test]
    fn prop_wire_oversized_header_rejected_before_allocation() {
        check_n("wire-oversized", 512, |rng| {
            // A header declaring more than MAX_PAYLOAD must be rejected
            // from the 9 header bytes alone — before any payload buffer
            // is allocated, no matter how large the declared length.
            let declared = limits::MAX_PAYLOAD
                + 1
                + (rng.next_u64() as u32 % (u32::MAX - limits::MAX_PAYLOAD));
            let mut bytes = Vec::new();
            bytes.extend_from_slice(&WIRE_MAGIC.to_le_bytes());
            bytes.push(rng.usize_range(1, 8) as u8);
            bytes.extend_from_slice(&declared.to_le_bytes());
            match decode_frame(&bytes) {
                Err(WireError::Oversized { got, limit }) => {
                    assert_eq!(got, declared);
                    assert_eq!(limit, limits::MAX_PAYLOAD);
                }
                other => panic!("declared {declared}: expected Oversized, got {other:?}"),
            }
        });
    }
}

mod event_driven {
    //! The serving path waits on events, not timers: a wave ends when its
    //! last request does (not at the monitor's next poll), the monitor
    //! still cancels a wedged request, and an idle acceptor stops at once.

    use super::*;
    use crate::net::{Acceptor, Conn, Endpoint, Listener};
    use crate::pool::{PoolConfig, ServeError, ServePool};
    use crate::supervise::SuperviseConfig;
    use std::time::Instant;

    fn supervised(poll: Duration, wedge_after: Duration) -> ServePool {
        ServePool::new(PoolConfig {
            workers: 1,
            supervise: SuperviseConfig { poll, wedge_after, ..SuperviseConfig::default() },
            ..PoolConfig::default()
        })
    }

    #[test]
    fn wave_returns_when_its_request_does_not_at_the_next_poll() {
        let mut pool = supervised(Duration::from_millis(500), Duration::from_secs(30));
        let t0 = Instant::now();
        let out = pool.run(vec![SolveRequest::new("quick", laplace(4), MgConfig::d16())]);
        let took = t0.elapsed();
        assert!(out[0].converged(), "{:?}", out[0].result);
        assert!(took < Duration::from_millis(100), "wave held for {took:?} by a 500 ms poll");
    }

    #[test]
    fn endless_request_is_still_cancelled_as_wedged() {
        let mut pool = supervised(Duration::from_millis(5), Duration::from_millis(50));
        let mut req = SolveRequest::new("wedge-me", laplace(6), MgConfig::d16());
        req.solver = SolverChoice::Richardson;
        req.opts = SolveOptions { max_iters: usize::MAX / 2, ..endless_opts() };
        req.policy = RetryPolicy::fail_fast();
        let out = pool.run(vec![req]);
        assert!(
            matches!(&out[0].result, Err(ServeError::Session(SolveError::Cancelled { .. }))),
            "{:?}",
            out[0].result
        );
        let wedged = pool
            .worker_events()
            .iter()
            .filter(|e| matches!(e.kind, crate::supervise::WorkerEventKind::Wedged { .. }))
            .count();
        assert_eq!(wedged, 1);
    }

    #[test]
    fn idle_acceptor_stops_at_once_and_does_not_count_the_wake_up() {
        let path =
            std::env::temp_dir().join(format!("fp16mg-acceptor-{}.sock", std::process::id()));
        let endpoint = Endpoint::Unix(path.clone());
        let listener = Listener::bind(&endpoint).expect("bind");
        let mut acceptor = Acceptor::spawn(listener, 4, Duration::from_secs(1)).expect("spawn");
        // One real connection is picked up without waiting out a timer.
        let t0 = Instant::now();
        let _client = Conn::connect(&endpoint).expect("connect");
        assert!(acceptor.next(Duration::from_secs(1)).is_some());
        assert!(t0.elapsed() < Duration::from_millis(100));
        assert_eq!(acceptor.accepted(), 1);
        let t0 = Instant::now();
        acceptor.stop();
        assert!(t0.elapsed() < Duration::from_millis(100), "stop took {:?}", t0.elapsed());
        assert!(acceptor.finished());
        assert_eq!(acceptor.accepted(), 1, "the wake-up dial was counted");
        assert!(!path.exists());
    }
}

mod trail {
    use std::path::Path;

    use crate::storage::{append_durable, FaultStorage};
    use crate::trail::{complete_lines, key_of, recover};

    #[test]
    fn complete_lines_exclude_a_torn_tail() {
        assert_eq!(complete_lines(b"seq=0 a\nseq=1 b\nseq=2 to"), ["seq=0 a", "seq=1 b"]);
        assert_eq!(complete_lines(b"seq=0 a\n"), ["seq=0 a"]);
        assert!(complete_lines(b"seq=0 never finished").is_empty());
        assert!(complete_lines(b"").is_empty());
    }

    #[test]
    fn key_must_open_the_line() {
        assert_eq!(key_of("seq=17 req=req-00017", "seq"), Some(17));
        assert_eq!(key_of("step=3", "step"), Some(3));
        assert_eq!(key_of("step=3 x", "seq"), None);
        assert_eq!(key_of("x seq=3", "seq"), None, "a key in the middle is not the record key");
        assert_eq!(key_of("seq=", "seq"), None);
        assert_eq!(key_of("seq=-1", "seq"), None);
        assert_eq!(key_of("sequel=1", "seq"), None);
    }

    #[test]
    fn recover_truncates_the_torn_record_durably_and_reports_its_size() {
        let s = FaultStorage::new();
        let path = Path::new("/t/trail.log");
        assert_eq!(recover(&s, path).unwrap(), (Vec::new(), 0), "an absent trail is empty");
        append_durable(&s, path, b"seq=0 a\nseq=1 b\n").unwrap();
        assert_eq!(recover(&s, path).unwrap().1, 0, "a clean trail is left alone");
        append_durable(&s, path, b"seq=2 to").unwrap();
        let (lines, torn) = recover(&s, path).unwrap();
        assert_eq!(lines, ["seq=0 a", "seq=1 b"]);
        assert_eq!(torn, 8);
        assert_eq!(s.peek(path).unwrap(), b"seq=0 a\nseq=1 b\n");
        s.power_loss();
        assert_eq!(s.peek(path).unwrap(), b"seq=0 a\nseq=1 b\n", "the cut survives power loss");
    }
}

mod serve {
    //! The daemon's restart reconciliation, in-process: server, client
    //! and the fault backend are one crate, so the window between the
    //! trail fsync and the checkpoint is hit by construction instead of
    //! by a lucky SIGKILL.

    use std::path::{Path, PathBuf};
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;
    use std::time::Duration;

    use crate::net::{Client, ClientConfig, DoneReply, Endpoint, SubmitRequest};
    use crate::serve::{
        decision_field, priority_for, serve_net, NetServeConfig, NetServeReport, SNAPSHOT_FILE,
        TRAIL_FILE,
    };
    use crate::snapshot::{DaemonSnapshot, SnapshotStore};
    use crate::storage::{Fault, FaultStorage, OpKind, Storage};
    use crate::trail;

    const SIZE: usize = 6;
    const TOL: f64 = 1e-6;

    fn trail_path() -> PathBuf {
        Path::new("state").join(TRAIL_FILE)
    }

    fn cfg() -> NetServeConfig {
        static CALLS: AtomicU64 = AtomicU64::new(0);
        let n = CALLS.fetch_add(1, Ordering::Relaxed);
        let sock =
            std::env::temp_dir().join(format!("fp16mg-reconcile-{}-{n}.sock", std::process::id()));
        let mut cfg = NetServeConfig::new(Endpoint::Unix(sock), PathBuf::from("state"));
        cfg.size = SIZE;
        cfg.tol = TOL;
        cfg.quiet = true;
        cfg
    }

    /// One daemon life on `storage`: submits `keys` in order until one
    /// fails, then asks for a drain. Returns the acks and the server's
    /// report.
    fn life(
        storage: &FaultStorage,
        keys: std::ops::Range<u64>,
    ) -> (Vec<DoneReply>, NetServeReport) {
        let cfg = cfg();
        let mut client = Client::new(ClientConfig {
            endpoint: cfg.endpoint.clone(),
            max_attempts: 3,
            backoff: Duration::from_millis(2),
            deadlines: [Duration::from_secs(20); 3],
            ..ClientConfig::default()
        });
        let backend: Arc<dyn Storage> = Arc::new(storage.clone());
        let server = std::thread::spawn(move || serve_net(&cfg, backend));
        let mut acks = Vec::new();
        for key in keys {
            let req =
                SubmitRequest { key, size: SIZE as u32, tol: TOL, priority: priority_for(key) };
            match client.submit(req) {
                Ok(done) => acks.push(done),
                Err(_) => break,
            }
        }
        let _ = client.shutdown();
        (acks, server.join().expect("server thread"))
    }

    fn durable_trail(storage: &FaultStorage) -> Vec<String> {
        trail::complete_lines(&storage.peek_durable(&trail_path()).unwrap_or_default())
    }

    fn rewrite_trail(storage: &FaultStorage, lines: &[String]) {
        let mut f = storage.create(&trail_path()).unwrap();
        for line in lines {
            f.write_all(format!("{line}\n").as_bytes()).unwrap();
        }
        f.fsync().unwrap();
        storage.sync_dir(Path::new("state")).unwrap();
    }

    /// A storage image left by a power loss on the first checkpoint
    /// operation after the trail append of seq `k`: the trail holds
    /// `0..=k`, the newest snapshot says `seq = k`.
    fn killed_between_append_and_checkpoint(k: u64) -> FaultStorage {
        let clean = FaultStorage::new();
        let (acks, report) = life(&clean, 0..k + 1);
        assert_eq!((acks.len() as u64, report.violations.as_slice()), (k + 1, &[][..]));
        let log = clean.op_log();
        let appended = log
            .iter()
            .filter(|op| op.kind == OpKind::Fsync && op.path == trail_path())
            .nth(k as usize)
            .expect("one trail fsync per seq");
        let checkpoint = log
            .iter()
            .find(|op| op.index > appended.index && op.kind == OpKind::Create)
            .expect("a checkpoint follows every trail append");

        let storage = FaultStorage::new();
        storage.schedule(checkpoint.index, Fault::Crash);
        let (acks, report) = life(&storage, 0..k + 1);
        assert_eq!(acks.len() as u64, k, "seq {k} must not be acked: its checkpoint never landed");
        assert!(
            report.violations.iter().any(|v| v.starts_with(&format!("checkpoint seq={k}"))),
            "{:?}",
            report.violations
        );
        assert!(storage.crashed());
        storage.power_loss();
        assert_eq!(durable_trail(&storage).len() as u64, k + 1, "the append was fsynced");
        storage
    }

    #[test]
    fn trail_ahead_of_snapshot_is_replayed_without_a_second_line() {
        // k = 2 was a warm cache hit in its first life and is a cold
        // rebuild when replayed: only the decision field may be compared.
        let storage = killed_between_append_and_checkpoint(2);
        assert!(durable_trail(&storage)[2].ends_with("cache=hit"));
        let before = durable_trail(&storage);

        let (acks, report) = life(&storage, 2..5);
        assert_eq!(report.violations, Vec::<String>::new());
        assert!(report.restored && report.drained);
        assert_eq!(report.counters.reconciled, 1);
        assert_eq!(report.counters.duplicate_acks, 1);
        assert_eq!(report.seq, 5);
        let flags: Vec<(u64, bool)> = acks.iter().map(|a| (a.key, a.duplicate)).collect();
        assert_eq!(flags, [(2, true), (3, false), (4, false)]);
        // The duplicate is answered from the durable line, not re-derived.
        assert!(before[2].contains(&format!(" outcome={} ", acks[0].outcome)));

        let after = durable_trail(&storage);
        assert_eq!(after[..3], before[..], "reconciliation never rewrites or re-appends");
        let keys: Vec<u64> = after.iter().filter_map(|l| trail::key_of(l, "seq")).collect();
        assert_eq!(keys, [0, 1, 2, 3, 4], "exactly one durable line per seq");
    }

    #[test]
    fn altered_durable_decision_is_a_divergence_and_refuses_to_serve() {
        let storage = killed_between_append_and_checkpoint(2);
        let mut lines = durable_trail(&storage);
        assert!(lines[2].contains(" outcome=ok "));
        lines[2] = lines[2].replace(" outcome=ok ", " outcome=unconverged ");
        rewrite_trail(&storage, &lines);

        let (acks, report) = life(&storage, 2..3);
        assert!(acks.is_empty(), "a refusing daemon acks nothing");
        assert!(!report.drained);
        assert!(
            report.violations.iter().any(|v| v.contains("reconciliation divergence at seq=2")),
            "{:?}",
            report.violations
        );
        assert_eq!(durable_trail(&storage), lines, "refusal leaves the evidence untouched");
    }

    /// A drained three-request state to tamper with.
    fn drained() -> (FaultStorage, Vec<String>) {
        let storage = FaultStorage::new();
        let (acks, report) = life(&storage, 0..3);
        assert_eq!((acks.len(), report.drained, report.seq), (3, true, 3));
        let lines = durable_trail(&storage);
        assert_eq!(lines.len(), 3);
        (storage, lines)
    }

    fn refusal(storage: &FaultStorage) -> String {
        let (acks, report) = life(storage, 3..4);
        assert!(acks.is_empty() && !report.drained, "{report:?}");
        assert_eq!(report.violations.len(), 1, "{:?}", report.violations);
        report.violations[0].clone()
    }

    #[test]
    fn snapshot_ahead_of_the_durable_trail_refuses_to_serve() {
        let (storage, lines) = drained();
        rewrite_trail(&storage, &lines[..2]);
        let why = refusal(&storage);
        assert!(why.contains("snapshot seq=3 ahead of durable trail coverage 2"), "{why}");
    }

    #[test]
    fn gapped_or_duplicated_trail_refuses_to_serve() {
        for tampered in [&[0usize, 2][..], &[0, 1, 1], &[1, 2]] {
            let (storage, lines) = drained();
            let picked: Vec<String> = tampered.iter().map(|&i| lines[i].clone()).collect();
            rewrite_trail(&storage, &picked);
            let why = refusal(&storage);
            assert!(why.contains("gaps or duplicate seqs"), "{tampered:?}: {why}");
        }
    }

    #[test]
    fn unparseable_trail_line_refuses_to_serve() {
        let (storage, mut lines) = drained();
        lines[1] = lines[1].replace(" breaker=", " fuse=");
        rewrite_trail(&storage, &lines);
        assert!(refusal(&storage).contains("unparseable trail line"));
    }

    #[test]
    fn torn_final_record_is_truncated_counted_and_service_continues() {
        let (storage, lines) = drained();
        let mut f = storage.append(&trail_path()).unwrap();
        f.write_all(b"seq=3 req=req-000").unwrap();
        f.fsync().unwrap();
        drop(f);

        let (acks, report) = life(&storage, 3..5);
        assert_eq!(report.violations, Vec::<String>::new());
        assert_eq!(report.counters.wire_errors.get("torn-trail-truncated"), Some(&1));
        assert_eq!(report.counters.reconciled, 0);
        assert!(acks.iter().all(|a| !a.duplicate) && acks.len() == 2);
        let after = durable_trail(&storage);
        assert_eq!(after[..3], lines[..]);
        let keys: Vec<u64> = after.iter().filter_map(|l| trail::key_of(l, "seq")).collect();
        assert_eq!(keys, [0, 1, 2, 3, 4]);
    }

    #[test]
    fn submit_never_checkpoints_so_a_snapshot_cannot_lead_the_trail() {
        // Every snapshot generation a run publishes carries a seq its
        // trail already covered at publish time: in the op log, the
        // k-th snapshot rename comes after the k-th trail fsync.
        let storage = FaultStorage::new();
        life(&storage, 0..4);
        let (mut appended, mut published) = (0u64, 0u64);
        for op in storage.op_log() {
            match op.kind {
                OpKind::Fsync if op.path == trail_path() => appended += 1,
                OpKind::Rename => {
                    published += 1;
                    assert!(published <= appended + 1, "checkpoint {published} led the trail");
                }
                _ => {}
            }
        }
        // Four per-request checkpoints plus the drain's.
        assert_eq!((appended, published), (4, 5));
        let store = SnapshotStore::new(Path::new("state").join(SNAPSHOT_FILE));
        let newest = store
            .recover(&storage, &DaemonSnapshot::decode)
            .unwrap()
            .candidates
            .into_iter()
            .map(|(_, s)| s.seq)
            .max();
        assert_eq!(newest, Some(4));
    }

    #[test]
    fn trail_line_parser_round_trips_and_cuts_the_decision_field() {
        let line = "seq=4 req=req-00004 class=default prio=batch profile=full \
                    outcome=ok breaker=closed cache=hit";
        assert_eq!(trail::key_of(line, "seq"), Some(4));
        assert_eq!(
            decision_field(line),
            "seq=4 req=req-00004 class=default prio=batch profile=full outcome=ok breaker=closed"
        );
        assert_eq!(decision_field("step=1 no cache field"), "step=1 no cache field");
    }

    #[test]
    fn wire_priority_follows_the_stream_function() {
        use crate::admission::Priority;
        use crate::serve::request_for;
        use fp16mg_sgdia::kernels::Par;
        for seq in 0..16 {
            let interactive = request_for(seq, 4, 1e-6, Par::Seq).priority == Priority::Interactive;
            assert_eq!(priority_for(seq) == 0, interactive, "seq {seq}");
        }
    }
}
