//! Fault-injection tests for the self-healing layer: a corrupted FP16
//! level must be detected within one V-cycle application, promoted to
//! FP32, and the outer solve must still converge to the clean run's
//! tolerance. The solves run through the runtime's retry ladder
//! (`run_session`), which is what `repro guard` drives.

use fp16mg_bench::Combo;
use fp16mg_core::{MatOp, Mg, PromotionReason};
use fp16mg_fp::Precision;
use fp16mg_krylov::{cg, Preconditioner, SolveOptions};
use fp16mg_problems::ProblemKind;
use fp16mg_runtime::{run_session, FaultPlan, Rung, SessionOutcome, SolveRequest};
use fp16mg_sgdia::fault::FaultSpec;
use fp16mg_sgdia::kernels::Par;

fn mix16(kind: ProblemKind, n: usize) -> (fp16mg_problems::Problem, Mg<f32>) {
    let p = kind.build(n);
    let mg = Mg::<f32>::setup(&p.matrix, &Combo::D16SetupScale.mg_config()).unwrap();
    (p, mg)
}

/// One Mix16 session, `spec` injected into the finest 16-bit level of its
/// first build (and of no later one) when given.
fn session(kind: ProblemKind, n: usize, spec: Option<FaultSpec>) -> SessionOutcome {
    let mut req = SolveRequest::new(kind.name(), kind.build(n), Combo::D16SetupScale.mg_config());
    req.opts = SolveOptions { tol: 1e-9, max_iters: 300, ..Default::default() };
    req.fault = spec.map(|spec| FaultPlan { spec, flip: None, sticky_until: Rung::PromoteNarrow });
    run_session(&req)
}

fn promotions(out: &SessionOutcome) -> usize {
    out.report.attempts.iter().map(|a| a.promotions).sum()
}

/// The injected session converges on its first attempt, promoting, at
/// most a handful of iterations behind the clean one.
fn assert_heals(kind: ProblemKind, n: usize, spec: FaultSpec) {
    let clean = session(kind, n, None);
    let clean_iters = clean.result.as_ref().expect("clean run converges").iters;
    assert_eq!(clean.report.rung_sequence(), [Rung::Retry], "{}", kind.name());
    assert_eq!(promotions(&clean), 0, "clean run must not promote");

    let healed = session(kind, n, Some(spec));
    let r = healed.result.as_ref().expect("healed run converges");
    assert_eq!(healed.report.rung_sequence(), [Rung::Retry], "{}", kind.name());
    assert!(promotions(&healed) >= 1, "{}: the corrupt level must be promoted", kind.name());
    assert!(r.final_rel_residual <= 1e-9, "same tolerance as clean");
    assert!(
        r.iters <= clean_iters + 5,
        "{}: healed {} vs clean {clean_iters}",
        kind.name(),
        r.iters
    );
}

#[test]
fn injected_inf_is_detected_within_one_vcycle() {
    let (p, mut mg) = mix16(ProblemKind::Laplace27, 12);
    let lev = 0;
    assert_eq!(mg.info().levels[lev].precision, Precision::F16, "Mix16 stores level 0 in FP16");
    assert!(mg.scan_level(lev).unwrap().all_finite());

    // Corrupt an interior cell: boundary cells carry taps that point
    // outside the grid and are skipped by the kernels, so an Inf there
    // would be stored but never read.
    let g = *p.matrix.grid();
    let cell = ((g.nz / 2 * g.ny) + g.ny / 2) * g.nx + g.nx / 2;
    assert!(mg.stored_mut(lev).unwrap().inject_inf_at(cell, 0));
    let scan = mg.scan_level(lev).unwrap();
    assert_eq!(scan.total.non_finite(), 1, "exactly the injected entry");

    // One guarded V-cycle application: the Inf propagates into the
    // output, the hierarchy notices, promotes the level from the operator
    // lent to it, and re-applies.
    let rn = p.matrix.rows();
    let r: Vec<f32> = (0..rn).map(|i| ((i % 7) as f32) * 0.1 + 0.1).collect();
    let mut e = vec![0.0f32; rn];
    Preconditioner::<f32>::apply(&mut mg.insured(&p.matrix), &r, &mut e);

    assert!(e.iter().all(|v| v.is_finite()), "guarded output must be finite");
    assert_eq!(mg.info().promotions.len(), 1);
    let ev = &mg.info().promotions[0];
    assert_eq!(ev.level, lev);
    assert_eq!(ev.from, Precision::F16);
    assert_eq!(ev.to, Precision::F32);
    assert_eq!(ev.reason, PromotionReason::NonFiniteOutput);
    assert_eq!(ev.corrupt_entries, 1);
    assert!(mg.scan_level(lev).unwrap().all_finite(), "rebuilt level is clean");
}

#[test]
fn promotion_restores_convergence_on_laplace27() {
    assert_heals(ProblemKind::Laplace27, 14, FaultSpec::inf(1e-3, 7));
}

/// The injected rows of `repro guard --size 12`.
#[test]
fn the_guard_rows_converge_on_retry_with_a_promotion() {
    for kind in [ProblemKind::Laplace27, ProblemKind::Rhd, ProblemKind::Weather] {
        assert_heals(kind, 12, FaultSpec::inf(2e-4, 0xfeed));
    }
}

#[test]
fn full64_baseline_never_promotes() {
    let p = ProblemKind::Laplace27.build(12);
    let mut mg = Mg::<f64>::setup(&p.matrix, &Combo::Full64.mg_config()).unwrap();
    assert!(!mg.insured(&p.matrix).can_promote(), "no 16-bit level to promote");
    let op = MatOp::new(&p.matrix, Par::Seq);
    let mut x = vec![0.0f64; p.matrix.rows()];
    let opts = SolveOptions::default();
    let res = cg(&op, &mut mg.insured(&p.matrix), &p.rhs(), &mut x, &opts);
    assert!(res.converged(), "{res:?}");
    assert!(mg.info().promotions.is_empty());
}

#[test]
fn exp_flip_faults_do_not_defeat_the_guarded_solve() {
    // Exponent flips in level 0 keep most values finite (just wildly
    // wrong). On laplace27 the first cycle still goes non-finite and the
    // flagged level 0 is widened inside it. On rhd and weather the solve
    // stalls instead; the anomaly hook then widens level 0 from the lent
    // operator, and the second retry converges on the mended hierarchy,
    // with no rebuild.
    use PromotionReason::{Anomaly, NonFiniteOutput};
    let spec = FaultSpec::exp_flip(5e-3, 11);
    let expect = [
        (ProblemKind::Laplace27, &[8][..], NonFiniteOutput),
        (ProblemKind::Rhd, &[40, 16][..], Anomaly),
        (ProblemKind::Weather, &[123, 19][..], Anomaly),
    ];
    for (kind, iters, reason) in expect {
        // The session's first build takes the same flips as this one.
        let (_, mut mg) = mix16(kind, 12);
        assert!(mg.stored_mut(0).unwrap().inject_faults(&spec).exp_flips > 0, "{}", kind.name());

        let out = session(kind, 12, Some(spec));
        let name = format!("{}: {}", kind.name(), out.report.summary());
        assert!(out.converged(), "{name}: {:?}", out.result);
        assert_eq!(out.report.rung_sequence(), vec![Rung::Retry; iters.len()], "{name}");
        let got: Vec<usize> = out.report.attempts.iter().map(|a| a.iters).collect();
        assert_eq!(got, iters, "{name}");
        assert_eq!(out.report.promotions.len(), 1, "{name}");
        let ev = &out.report.promotions[0];
        assert_eq!((ev.level, ev.reason), (0, reason), "{name}");
        assert!(!ev.taps.is_empty(), "{name}: the sentinels flagged level 0");
    }
}
