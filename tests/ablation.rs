//! Cross-crate integration tests reproducing the paper's ablation claims
//! end-to-end (the Fig. 6 structure) at laptop scale.

use fp16mg::krylov::{SolveOptions, StopReason};
use fp16mg::problems::ProblemKind;
use fp16mg::sgdia::kernels::Par;
use fp16mg_bench::{solve_e2e, Combo};

fn run(kind: ProblemKind, n: usize, combo: Combo) -> (StopReason, usize) {
    let opts =
        SolveOptions { tol: 1e-9, max_iters: 400, record_history: false, ..Default::default() };
    let r = solve_e2e(kind, n, combo, combo.mg_config(), &opts).expect("setup");
    (r.result.reason, r.result.iters)
}

#[test]
fn fig6a_all_combos_coincide_on_laplace27() {
    // In-range, isotropic: every combination converges in the same number
    // of iterations (Fig. 6a's completely overlapping curves).
    let iters: Vec<usize> = Combo::fig6()
        .into_iter()
        .map(|c| {
            let (reason, it) = run(ProblemKind::Laplace27, 16, c);
            assert_eq!(reason, StopReason::Converged, "{c:?}");
            it
        })
        .collect();
    let base = iters[0];
    for (c, &it) in Combo::fig6().iter().zip(&iters) {
        assert!(it.abs_diff(base) <= 1, "{}: {} iters vs Full64 {}", c.label(), it, base);
    }
}

#[test]
fn fig6b_none_breaks_down_out_of_range() {
    // laplace27*1e8: the no-scaling variant overflows to NaN immediately;
    // the other four coincide (Fig. 6b).
    let (reason, _) = run(ProblemKind::Laplace27E8, 16, Combo::D16None);
    assert_eq!(reason, StopReason::Breakdown);
    let (_, full) = run(ProblemKind::Laplace27E8, 16, Combo::Full64);
    for combo in [Combo::D32, Combo::D16ScaleSetup, Combo::D16SetupScale] {
        let (reason, it) = run(ProblemKind::Laplace27E8, 16, combo);
        assert_eq!(reason, StopReason::Converged, "{combo:?}");
        assert!(it.abs_diff(full) <= 1, "{combo:?}: {it} vs {full}");
    }
}

#[test]
fn fig6c_weather_setup_scale_beats_scale_setup() {
    let (r_ss, it_ss) = run(ProblemKind::Weather, 16, Combo::D16SetupScale);
    let (r_sts, it_sts) = run(ProblemKind::Weather, 16, Combo::D16ScaleSetup);
    assert_eq!(r_ss, StopReason::Converged);
    assert_eq!(r_sts, StopReason::Converged);
    // The paper's Fig. 6c: 11 vs 15 iterations — setup-then-scale strictly
    // faster.
    assert!(it_ss < it_sts, "setup-then-scale {it_ss} should beat scale-then-setup {it_sts}");
}

#[test]
fn fig6de_scale_setup_loses_on_rhd_problems() {
    // Far-out-of-range with wide value spans: scale-then-setup either
    // diverges outright (the paper's Fig. 6d/e at production scale) or
    // needs substantially more iterations; setup-then-scale always
    // converges.
    for kind in [ProblemKind::Rhd, ProblemKind::Rhd3T] {
        let (r_ss, it_ss) = run(kind, 16, Combo::D16SetupScale);
        assert_eq!(r_ss, StopReason::Converged, "{}", kind.name());
        let (r_sts, it_sts) = run(kind, 16, Combo::D16ScaleSetup);
        assert!(
            r_sts != StopReason::Converged || it_sts > it_ss + it_ss / 4,
            "{}: scale-then-setup ({r_sts:?}, {it_sts}) should lose to \
             setup-then-scale ({it_ss})",
            kind.name()
        );
    }
}

#[test]
fn storage_effect_is_small_with_p64() {
    // Isolating the paper's storage-precision claim: with the computation
    // precision held at FP64, switching storage FP64 -> FP16 costs only a
    // few extra iterations even on the hard rhd analog (paper: +18%).
    let opts =
        SolveOptions { tol: 1e-9, max_iters: 400, record_history: false, ..Default::default() };
    use fp16mg::krylov::cg;
    use fp16mg::mg::{MatOp, Mg, MgConfig};
    let p = ProblemKind::Rhd.build(16);
    let op = MatOp::new(&p.matrix, Par::Seq);
    let b = p.rhs();
    let mut it = Vec::new();
    for cfg in [MgConfig::d64(), MgConfig::d16()] {
        let mut mg = Mg::<f64>::setup(&p.matrix, &cfg).unwrap();
        let mut x = vec![0.0f64; p.matrix.rows()];
        let r = cg(&op, &mut mg, &b, &mut x, &opts);
        assert!(r.converged());
        it.push(r.iters);
    }
    assert!(it[1] as f64 <= it[0] as f64 * 1.35 + 2.0, "P64-D16 {} vs Full64 {}", it[1], it[0]);
}

#[test]
fn mix16_memory_is_half_and_quarter() {
    let opts =
        SolveOptions { tol: 1e-9, max_iters: 400, record_history: false, ..Default::default() };
    let full =
        solve_e2e(ProblemKind::Laplace27, 16, Combo::Full64, Combo::Full64.mg_config(), &opts)
            .unwrap();
    let d32 =
        solve_e2e(ProblemKind::Laplace27, 16, Combo::D32, Combo::D32.mg_config(), &opts).unwrap();
    let mix = solve_e2e(
        ProblemKind::Laplace27,
        16,
        Combo::D16SetupScale,
        Combo::D16SetupScale.mg_config(),
        &opts,
    )
    .unwrap();
    assert_eq!(full.matrix_bytes, 2 * d32.matrix_bytes);
    assert_eq!(full.matrix_bytes, 4 * mix.matrix_bytes);
}

#[test]
fn complexities_low_across_problem_suite() {
    // Guideline 3's premise (Fig. 3): every hierarchy in the suite has
    // C_G ≤ 1.2 (full coarsening bound 8/7) and modest C_O.
    let opts =
        SolveOptions { tol: 1e-9, max_iters: 1, record_history: false, ..Default::default() };
    for kind in ProblemKind::all() {
        let r = solve_e2e(kind, 12, Combo::D16SetupScale, Combo::D16SetupScale.mg_config(), &opts)
            .unwrap();
        let (cg_c, co_c) = r.complexities;
        assert!(cg_c < 1.2, "{}: C_G = {cg_c}", kind.name());
        assert!(co_c < 6.0, "{}: C_O = {co_c}", kind.name());
    }
}
