//! Fault-injection tests for the self-healing layer: a corrupted FP16
//! level must be detected within one V-cycle application, promoted to
//! FP32, and the outer solve must still converge to the clean run's
//! tolerance. The bench crate hosts these because it holds the guard
//! harness (`solve_guarded`).

use fp16mg_bench::{finest_narrow_level, solve_guarded, Combo};
use fp16mg_core::{Mg, PromotionReason};
use fp16mg_fp::Precision;
use fp16mg_krylov::{Preconditioner, SolveOptions};
use fp16mg_problems::ProblemKind;
use fp16mg_sgdia::fault::FaultSpec;
use fp16mg_sgdia::kernels::Par;

fn mix16(kind: ProblemKind, n: usize) -> (fp16mg_problems::Problem, Mg<f32>) {
    let p = kind.build(n);
    let mg = Mg::<f32>::setup(&p.matrix, &Combo::D16SetupScale.mg_config()).unwrap();
    (p, mg)
}

#[test]
fn injected_inf_is_detected_within_one_vcycle() {
    let (p, mut mg) = mix16(ProblemKind::Laplace27, 12);
    let lev = finest_narrow_level(&mg).expect("Mix16 stores the finest level in FP16");
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
    assert_eq!(mg.promotions().len(), 1);
    let ev = &mg.promotions()[0];
    assert_eq!(ev.level, lev);
    assert_eq!(ev.from, Precision::F16);
    assert_eq!(ev.to, Precision::F32);
    assert_eq!(ev.reason, PromotionReason::NonFiniteOutput);
    assert_eq!(ev.corrupt_entries, 1);
    assert!(mg.scan_level(lev).unwrap().all_finite(), "rebuilt level is clean");
}

#[test]
fn promotion_restores_convergence_on_laplace27() {
    let opts = SolveOptions { tol: 1e-9, max_iters: 300, ..Default::default() };

    let (p, mut clean_mg) = mix16(ProblemKind::Laplace27, 14);
    let clean = solve_guarded(&p, &mut clean_mg, &opts, Par::Seq);
    assert!(clean.converged(), "{:?}", clean.result);
    assert!(clean.promotions.is_empty(), "clean run must not promote");

    let (p, mut mg) = mix16(ProblemKind::Laplace27, 14);
    let lev = finest_narrow_level(&mg).unwrap();
    let report = mg.stored_mut(lev).unwrap().inject_faults(&FaultSpec::inf(1e-3, 7));
    assert!(report.infs > 0, "injection rate too low for this matrix");

    let healed = solve_guarded(&p, &mut mg, &opts, Par::Seq);
    assert!(healed.converged(), "{:?}", healed.result);
    assert!(!healed.promotions.is_empty(), "the corrupt level must be promoted");
    assert!(healed.result.final_rel_residual <= opts.tol, "same tolerance as clean");
    // Healing costs at most a handful of extra iterations.
    assert!(
        healed.result.iters <= clean.result.iters + 5,
        "healed {} vs clean {}",
        healed.result.iters,
        clean.result.iters
    );
}

#[test]
fn full64_baseline_never_promotes() {
    let p = ProblemKind::Laplace27.build(12);
    let mut mg = Mg::<f64>::setup(&p.matrix, &Combo::Full64.mg_config()).unwrap();
    let out = solve_guarded(&p, &mut mg, &SolveOptions::default(), Par::Seq);
    assert!(out.converged());
    assert!(out.promotions.is_empty());
    assert_eq!(out.restarts, 0);
}

#[test]
fn exp_flip_faults_do_not_defeat_the_guarded_solve() {
    // Exponent flips keep values finite (just wildly wrong), so they
    // surface as stagnation/breakdown rather than NaN output. The guarded
    // driver must still terminate — ideally converged after promotion.
    let opts = SolveOptions { tol: 1e-9, max_iters: 300, ..Default::default() };
    let (p, mut mg) = mix16(ProblemKind::Laplace27, 12);
    let lev = finest_narrow_level(&mg).unwrap();
    let report = mg.stored_mut(lev).unwrap().inject_faults(&FaultSpec::exp_flip(5e-3, 11));
    assert!(report.exp_flips > 0);

    let out = solve_guarded(&p, &mut mg, &opts, Par::Seq);
    assert!(
        out.converged() || !out.result.precision_suspect() || !mg.insured(&p.matrix).can_promote(),
        "driver stopped while a promotion was still available: {:?}",
        out.result
    );
}
