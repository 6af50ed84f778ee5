//! Cross-crate precision-boundary tests: the K/P/D transitions of
//! Algorithms 1–3, exercised through the public API.

use fp16mg::fp::{Precision, F16};
use fp16mg::grid::Grid3;
use fp16mg::krylov::{cg, Preconditioner, SolveOptions};
use fp16mg::mg::{MatOp, Mg, MgConfig};
use fp16mg::problems::ProblemKind;
use fp16mg::sgdia::kernels::Par;
use fp16mg::sgdia::{Layout, SgDia};
use fp16mg::stencil::Pattern;

fn poisson(n: usize, scale: f64) -> SgDia<f64> {
    let grid = Grid3::cube(n);
    let pattern = Pattern::p7();
    let taps: Vec<_> = pattern.taps().to_vec();
    SgDia::from_fn(grid, pattern, Layout::Soa, |_, _, _, _, t| {
        if taps[t].is_diagonal() {
            6.05 * scale
        } else {
            -scale
        }
    })
}

#[test]
fn k32_iterative_precision_works() {
    // The paper's K is configurable; run the whole stack in f32 outer
    // precision (K32 P32 D16).
    let a = poisson(12, 1.0);
    let mut mg = Mg::<f32>::setup(&a, &MgConfig::d16()).unwrap();
    let op = MatOp::new(&a, Par::Seq);
    let b = vec![1.0f32; a.rows()];
    let mut x = vec![0.0f32; a.rows()];
    let opts = SolveOptions { tol: 1e-5, max_iters: 100, ..Default::default() };
    let r = cg(&op, &mut mg, &b, &mut x, &opts);
    assert!(r.converged(), "{r:?}");
}

#[test]
fn same_mg_serves_f32_and_f64_solvers() {
    // One hierarchy, two iterative precisions — the Preconditioner trait
    // is generic over K, so no rebuild is needed.
    let a = poisson(10, 1.0);
    let mut mg = Mg::<f32>::setup(&a, &MgConfig::d16()).unwrap();
    let r64 = vec![1.0f64; a.rows()];
    let mut z64 = vec![0.0f64; a.rows()];
    Preconditioner::<f64>::apply(&mut mg, &r64, &mut z64);
    let r32 = vec![1.0f32; a.rows()];
    let mut z32 = vec![0.0f32; a.rows()];
    Preconditioner::<f32>::apply(&mut mg, &r32, &mut z32);
    for (a64, a32) in z64.iter().zip(&z32) {
        assert!((a64 - *a32 as f64).abs() < 1e-5 * (1.0 + a64.abs()));
    }
}

#[test]
fn theorem41_no_overflow_for_any_problem() {
    // The Theorem 4.1 guarantee, checked on every generated problem: after
    // setup-then-scale, no stored FP16 value is infinite.
    for kind in ProblemKind::all() {
        let p = kind.build(10);
        let mg = Mg::<f32>::setup(&p.matrix, &MgConfig::d16()).expect(p.name);
        for (l, info) in mg.info().levels.iter().enumerate() {
            assert!(info.finite, "{}: level {l} has non-finite storage", p.name);
        }
    }
}

#[test]
fn scaled_preconditioner_equals_unscaled_in_exact_precision() {
    // With D64 storage (lossless truncation), forcing the scaling
    // machinery must not change the preconditioner's action: scaling is
    // algebraically transparent.
    let a = poisson(10, 1.0e8); // triggers need-to-scale for FP16, not F64
    let mut plain = Mg::<f64>::setup(&a, &MgConfig::d64()).unwrap();
    // FP16 storage with scaling; same problem, still converges identically
    // in iteration counts when solved loosely.
    let mut scaled = Mg::<f64>::setup(&a, &MgConfig::d16()).unwrap();
    let op = MatOp::new(&a, Par::Seq);
    let b = vec![1.0e8f64; a.rows()];
    let opts = SolveOptions { tol: 1e-8, max_iters: 60, ..Default::default() };
    let mut x1 = vec![0.0f64; a.rows()];
    let r1 = cg(&op, &mut plain, &b, &mut x1, &opts);
    let mut x2 = vec![0.0f64; a.rows()];
    let r2 = cg(&op, &mut scaled, &b, &mut x2, &opts);
    assert!(r1.converged() && r2.converged());
    assert!(r2.iters <= r1.iters + 2, "{} vs {}", r2.iters, r1.iters);
}

#[test]
fn fp16_constants_are_paper_values() {
    assert_eq!(F16::MAX_F64, 65504.0);
    assert_eq!(Precision::F16.finite_max(), 65504.0);
    // The overflow probe of the guidelines: 1e8 >> FP16_MAX.
    assert!(!F16::from_f64(1.0e8).is_finite());
}
