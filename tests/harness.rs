//! Smoke tests for the benchmark harness itself: the kernel suite and the
//! end-to-end runner must produce structurally sane measurements, since
//! EXPERIMENTS.md is generated from them.

use fp16mg::krylov::SolveOptions;
use fp16mg::problems::ProblemKind;
use fp16mg::sgdia::kernels::Par;
use fp16mg::stencil::Pattern;
use fp16mg_bench::kernelbench::{lower_matrix, max_speedup, test_matrix};
use fp16mg_bench::table::Table;
use fp16mg_bench::{kernel_suite, solve_e2e, Combo, KernelKind, Variant};

#[test]
fn kernel_suite_covers_fig7_matrix() {
    // Tiny sizes and budget: structure only, not timing quality.
    let rows = kernel_suite(&[8, 10], Par::Seq, 0.5);
    // 3 patterns × 2 kernels × 4 variants.
    assert_eq!(rows.len(), 24);
    for kernel in [KernelKind::Spmv, KernelKind::Sptrsv] {
        let expect = if kernel == KernelKind::Spmv {
            ["3d7", "3d19", "3d27"]
        } else {
            ["3d4", "3d10", "3d14"]
        };
        for pat in expect {
            let sub: Vec<_> =
                rows.iter().filter(|r| r.kernel == kernel && r.pattern == pat).collect();
            assert_eq!(sub.len(), 4, "{kernel:?}/{pat}");
            for r in &sub {
                assert!(r.seconds > 0.0 && r.seconds.is_finite());
                assert!(r.speedup > 0.0 && r.speedup.is_finite());
            }
            // The baseline's speedup is 1 by construction.
            let base = sub.iter().find(|r| r.variant == Variant::Fp32Baseline).unwrap();
            assert!((base.speedup - 1.0).abs() < 1e-12);
        }
    }
}

#[test]
fn max_speedup_model_between_one_and_two() {
    for pat in [Pattern::p7(), Pattern::p19(), Pattern::p27()] {
        for kernel in [KernelKind::Spmv, KernelKind::Sptrsv] {
            let s = max_speedup(&pat, 32, kernel);
            assert!(s > 1.0 && s < 2.0, "{s}");
        }
    }
    // Denser patterns have higher ceilings.
    let s7 = max_speedup(&Pattern::p7(), 32, KernelKind::Spmv);
    let s27 = max_speedup(&Pattern::p27(), 32, KernelKind::Spmv);
    assert!(s27 > s7);
}

#[test]
fn test_matrices_are_diagonally_dominant() {
    let a = test_matrix(&Pattern::p27(), 6, 42);
    let diag = a.extract_diagonal();
    assert!(diag.iter().all(|&d| d > 0.0));
    let l = lower_matrix(&a);
    assert_eq!(l.pattern().name(), "3d14");
    // Lower matrix agrees with the full one on shared taps.
    for cell in 0..a.grid().cells() {
        for (t, tap) in l.pattern().taps().iter().enumerate() {
            let ft = a.pattern().tap_index(*tap).unwrap();
            assert_eq!(l.get(cell, t), a.get(cell, ft));
        }
    }
}

#[test]
fn e2e_runner_reports_consistent_breakdown() {
    let opts =
        SolveOptions { tol: 1e-8, max_iters: 200, record_history: true, ..Default::default() };
    let r = solve_e2e(
        ProblemKind::Laplace27,
        12,
        Combo::D16SetupScale,
        Combo::D16SetupScale.mg_config(),
        &opts,
    )
    .unwrap();
    assert!(r.result.converged());
    assert_eq!(r.problem, "laplace27");
    assert!(r.solve >= r.precond);
    assert_eq!(r.solve, r.precond + r.other);
    assert_eq!(r.total(), r.setup + r.solve);
    assert!(r.matrix_bytes > 0);
    assert!(!r.result.history.is_empty());
    // History starts at 1 (zero initial guess) and ends below tol.
    assert_eq!(r.result.history[0], 1.0);
    assert!(*r.result.history.last().unwrap() < 1e-8);
}

#[test]
fn combo_labels_match_paper_legend() {
    assert_eq!(Combo::Full64.label(), "Full64");
    assert_eq!(Combo::D32.label(), "K64P32D32");
    assert_eq!(Combo::D16None.label(), "K64P32D16-none");
    assert_eq!(Combo::D16ScaleSetup.label(), "K64P32D16-scale-setup");
    assert_eq!(Combo::D16SetupScale.label(), "K64P32D16-setup-scale");
    assert_eq!(Combo::fig6().len(), 5);
}

#[test]
fn table_renderer_aligns_columns() {
    let mut t = Table::new(&["name", "value"]);
    t.row(vec!["laplace27".into(), "3.70x".into()]);
    t.row(vec!["x".into(), "1.0x".into()]);
    let s = t.render();
    let lines: Vec<&str> = s.lines().collect();
    assert_eq!(lines.len(), 4);
    assert!(lines[0].starts_with("name"));
    assert!(lines[1].chars().all(|c| c == '-'));
    // All rows have equal rendered width.
    assert_eq!(lines[2].len(), lines[3].len());
}
