//! Allocation-fault torture matrix over the memory-resilience layer.
//!
//! The harness mirrors the storage torture matrix (`torture.rs`), but
//! the injected resource is *memory*: every hierarchy setup, workspace
//! arena, cache insert, and rescale commit is charged against the serve
//! pool's [`MemGovernor`](fp16mg_runtime::MemGovernor), and the governor
//! doubles as a deterministic allocation-fault injector with a
//! monotonically increasing charge op index.
//!
//! - **Probe** — a clean run of a deterministic request stream, served
//!   one request at a time in the daemon's charge order (each request's
//!   cache acquire, then its session), records the charge log. The
//!   stream is shaped so every charge class appears: `setup` and
//!   `workspace` from sessions, `cache-insert` from cache builds,
//!   `rescale` from a drifted revisit.
//! - **Phase A** — a one-shot allocation failure at *every* charged op
//!   index of the clean run. Each failure must resolve through an
//!   existing degrade rung (ladder escalation, uncached serve, stale
//!   hit) and the stream must still converge end to end.
//! - **Phase B** — a bounded burst of failures (several consecutive
//!   charges refused) at the start, middle, and end of the log; the
//!   ladder's deeper rungs must absorb it.
//! - **Phase C** — organic byte budgets (half of each the cache's, as
//!   every pool splits it): a generous budget that must never refuse,
//!   and a tight budget (a fraction of the clean run's peak) that must
//!   trigger cache eviction or uncached degrade while every outcome
//!   stays typed, tracked usage never exceeds the budget, and at least
//!   one request is still served.
//!
//! After **every** case the harness asserts the byte accounting
//! returned to zero once the pool is dropped — a leaked
//! [`MemCharge`](fp16mg_runtime::MemCharge) anywhere in the stack fails
//! the matrix. The matrix passes only if every case held *and* every
//! fault class (`alloc-fail`, `alloc-burst`, `budget-exceeded`)
//! actually fired — an empty matrix cannot pass by default.

use std::collections::{BTreeMap, BTreeSet};

use fp16mg_core::MgConfig;
use fp16mg_krylov::{SolveError, SolveOptions};
use fp16mg_problems::ProblemKind;
use fp16mg_runtime::{AllocFault, PoolConfig, RequestOutcome, ServeError, ServePool, SolveRequest};

use crate::matrix::MatrixReport;

/// Fault classes that must have fired for the matrix to count as
/// exercised.
const REQUIRED_FIRED: &[&str] = &["alloc-fail", "alloc-burst", "budget-exceeded"];

/// Charge classes the probe stream must exercise; a missing class means
/// the stream no longer reaches that allocation site and the matrix is
/// blind to it.
const REQUIRED_CLASSES: &[&str] = &["setup", "workspace", "cache-insert", "rescale"];

/// Grid extent of the stream's problems: small, the matrix serves the
/// stream once per case.
const SIZE: usize = 6;

/// Convergence tolerance: tight enough that a silently broken
/// preconditioner cannot sneak through.
const TOL: f64 = 1e-8;

/// Everything the matrix observed, for the tests.
#[derive(Clone, Debug)]
pub struct MemTortureReport {
    /// The shared verdict: cases, violations, fired classes.
    pub matrix: MatrixReport,
    /// Charged allocation attempts in the clean run.
    pub probe_ops: u64,
    /// Peak tracked bytes of the clean run.
    pub probe_peak: u64,
    /// Charge classes observed in the clean run.
    pub classes: BTreeSet<&'static str>,
    /// Cache evictions forced by the tight-budget phase.
    pub mem_evictions: u64,
    /// Uncached (cache-insert refused) serves over all cases.
    pub uncached: u64,
}

/// The deterministic request stream: a pure function of the index, one
/// entry per allocation-relevant behavior. Two problem classes keep two
/// cache entries live; the drifted revisits walk the rescale and
/// invalidate paths.
fn stream() -> Vec<SolveRequest> {
    let mk = |i: usize, kind: ProblemKind, factor: f64, class: &str| {
        let mut problem = kind.build(SIZE);
        if factor != 1.0 {
            for v in problem.matrix.data_mut() {
                *v *= factor;
            }
        }
        let mut req = SolveRequest::new(format!("mem-{i:02}"), problem, MgConfig::d16());
        req.class = class.to_string();
        req.opts = SolveOptions { tol: TOL, record_history: false, ..Default::default() };
        req
    };
    vec![
        mk(0, ProblemKind::Laplace27, 1.0, "steady"), // cold build: setup+workspace+cache-insert
        mk(1, ProblemKind::Laplace27, 1.0, "steady"), // warm hit
        mk(2, ProblemKind::Laplace27, 4.0, "steady"), // drift within rescale bound: "rescale"
        mk(3, ProblemKind::Laplace27, 96.0, "steady"), // drift past bound: invalidate + rebuild
        mk(4, ProblemKind::Oil, 1.0, "oil"),          // second cache entry
        mk(5, ProblemKind::Laplace27, 96.0, "steady"), // hit on the rebuilt entry
    ]
}

/// Serves the stream on `pool`, one request at a time.
fn serve_stream(pool: &mut ServePool) -> Vec<RequestOutcome> {
    stream().into_iter().map(|req| pool.serve(req)).collect()
}

/// Short label for an outcome's terminal state.
fn outcome_label(o: &RequestOutcome) -> String {
    match &o.result {
        Ok(_) => "ok".to_string(),
        Err(ServeError::Rejected(a)) => format!("rejected:{a}"),
        Err(ServeError::Session(s)) => format!("session:{s}"),
    }
}

/// Case-level invariants shared by every phase: the stream completes
/// with typed outcomes only (a contained panic is a harness failure),
/// tracked bytes equal live cache bytes once the stream is served, and
/// the accounting reaches zero when the pool drops. Adds the case's
/// uncached serves to `uncached`.
fn check_case(
    label: &str,
    pool: ServePool,
    outcomes: &[RequestOutcome],
    require_converged: bool,
    violations: &mut Vec<String>,
    uncached: &mut u64,
) -> BTreeMap<String, u64> {
    for o in outcomes {
        if matches!(&o.result, Err(ServeError::Session(SolveError::WorkerPanicked { .. }))) {
            violations.push(format!(
                "{label}: request {} PANICKED — an allocation failure must never panic",
                o.name
            ));
        }
        if require_converged && o.result.is_err() {
            violations.push(format!(
                "{label}: request {} did not resolve through a degrade rung: {}",
                o.name,
                outcome_label(o)
            ));
        }
    }
    *uncached += pool.cache().uncached_serves();
    let governor = pool.governor().clone();
    let live = pool.cache().cache_bytes();
    if governor.used() != live {
        violations.push(format!(
            "{label}: accounting leak while pool is live: {} B tracked, {} B of cache entries",
            governor.used(),
            live
        ));
    }
    let fired = governor.fired();
    drop(pool);
    if governor.used() != 0 {
        violations.push(format!(
            "{label}: {} B still tracked after the pool dropped (leaked charge receipts)",
            governor.used()
        ));
    }
    fired
}

/// Executes the full matrix and aggregates the verdict.
pub fn run_matrix() -> MemTortureReport {
    let mut report = MemTortureReport {
        matrix: MatrixReport::new(REQUIRED_FIRED, None),
        probe_ops: 0,
        probe_peak: 0,
        classes: BTreeSet::new(),
        mem_evictions: 0,
        uncached: 0,
    };

    // --- Probe: the clean run's charge log is the case schedule.
    let mut pool = ServePool::new(PoolConfig::default());
    pool.governor().record_ops();
    let outcomes = serve_stream(&mut pool);
    if let Some(o) = outcomes.iter().find(|o| o.result.is_err()) {
        report.matrix.violations.push(format!(
            "probe: clean run failed on {}: {}",
            o.name,
            outcome_label(o)
        ));
        return report;
    }
    let governor = pool.governor().clone();
    let log = governor.op_log();
    report.probe_ops = governor.op_count();
    report.probe_peak = governor.peak();
    report.classes = log.iter().map(|r| r.class).collect();
    for &class in REQUIRED_CLASSES {
        if !report.classes.contains(class) {
            report.matrix.violations.push(format!(
                "probe: charge class '{class}' never appeared — the stream no longer reaches \
                 that allocation site"
            ));
        }
    }
    drop(pool);
    if governor.used() != 0 {
        report.matrix.violations.push("probe: bytes still tracked after the clean run".to_string());
    }
    if !report.matrix.violations.is_empty() {
        return report;
    }

    // One fault case: a fresh pool with `fault` planted at charge `i`
    // serves the stream, every injected failure must resolve through a
    // degrade rung, and the fault's class must have fired.
    let mut injected = |label: String, i: u64, fault: AllocFault, class: &str| {
        let mut pool = ServePool::new(PoolConfig::default());
        pool.governor().schedule(i, fault);
        let outcomes = serve_stream(&mut pool);
        let mut v = Vec::new();
        let fired = check_case(&label, pool, &outcomes, true, &mut v, &mut report.uncached);
        if fired.get(class).copied().unwrap_or(0) == 0 {
            v.push(format!("{label}: the scheduled {class} never fired"));
        }
        (fired, v)
    };

    // --- Phase A: one-shot allocation failure at every charged index.
    for i in 0..report.probe_ops {
        let label = format!("A:alloc-fail@{i}[{}]", log[i as usize].class);
        let (fired, v) = injected(label, i, AllocFault::Fail, "alloc-fail");
        report.matrix.case(fired, v);
    }

    // --- Phase B: bounded bursts (three consecutive refusals) at the
    // start, middle, and end of the log. The ladder has enough rungs to
    // climb past three consecutive failed builds.
    let last = report.probe_ops.saturating_sub(1);
    let mut burst_at: Vec<u64> = vec![0, report.probe_ops / 2, last];
    burst_at.dedup();
    for i in burst_at {
        let label = format!("B:alloc-burst@{i}");
        let (fired, v) = injected(label, i, AllocFault::Burst { count: 3 }, "alloc-burst");
        report.matrix.case(fired, v);
    }

    // --- Phase C1: a budget at the clean-run peak must never refuse (the
    // cache's half of it evicts instead).
    {
        let label = "C:budget=peak";
        let mut pool = ServePool::new(PoolConfig {
            mem_budget: Some(report.probe_peak),
            ..PoolConfig::default()
        });
        let outcomes = serve_stream(&mut pool);
        let mut v = Vec::new();
        let fired = check_case(label, pool, &outcomes, true, &mut v, &mut report.uncached);
        if fired.get("budget-exceeded").copied().unwrap_or(0) > 0 {
            v.push(format!(
                "{label}: a budget equal to the clean-run peak refused a charge — the \
                 accounting drifted between runs"
            ));
        }
        report.matrix.case(fired, v);
    }

    // --- Phase C2: a tight budget (60% of peak) must degrade — evict
    // cache entries or serve uncached — while staying within budget and
    // keeping at least part of the stream served.
    {
        let label = "C:budget=tight";
        let budget = (report.probe_peak * 3) / 5;
        let mut pool =
            ServePool::new(PoolConfig { mem_budget: Some(budget), ..PoolConfig::default() });
        let outcomes = serve_stream(&mut pool);
        let mut v = Vec::new();
        let governor = pool.governor().clone();
        if governor.peak() > budget {
            v.push(format!(
                "{label}: tracked peak {} B exceeded the {} B budget",
                governor.peak(),
                budget
            ));
        }
        report.mem_evictions = pool.cache().mem_evictions();
        if report.mem_evictions + pool.cache().uncached_serves() == 0 {
            v.push(format!(
                "{label}: the tight budget forced no eviction and no uncached serve — the \
                 degrade machinery went unexercised"
            ));
        }
        if !outcomes.iter().any(|o| o.result.is_ok()) {
            v.push(format!(
                "{label}: nothing was served under the tight budget — memory pressure must \
                 degrade, not blackout"
            ));
        }
        let fired = check_case(label, pool, &outcomes, false, &mut v, &mut report.uncached);
        report.matrix.case(fired, v);
    }

    report.matrix.seal();
    report
}
