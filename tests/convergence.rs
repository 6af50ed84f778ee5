//! The three upwind-skewed generators — oil, weather and oil-4C — whose
//! Galerkin levels lose their positive diagonal a few levels down converge
//! in Full64 and in Mix16, Mix16 within two iterations of Full64: no level
//! with a diagonal entry ≤ 0 is smoothed (the chain ends there and the
//! dense LU solves it), so Gauss–Seidel never pivots on one.
//!
//! Every build runs n ∈ {17, 24, 33} (oil-4C only 17: its 24 and 33 take
//! about one and two minutes unoptimised); optimised builds add oil-4C at 24
//! and 33, oil at 48 and 96 and weather at 80 and 96, where the first such
//! level used to be smoothed.

use fp16mg::krylov::SolveOptions;
use fp16mg::problems::ProblemKind;
use fp16mg_bench::{solve_e2e, Combo};

/// `repro fig8`'s solve (relative tolerance 1e-9, at most 500 iterations)
/// of `kind` at `sizes` in every build, and at `optimised` in optimised ones.
fn assert_converges(kind: ProblemKind, sizes: &[usize], optimised: &[usize]) {
    let opts =
        SolveOptions { tol: 1e-9, max_iters: 500, record_history: false, ..Default::default() };
    let optimised = if cfg!(debug_assertions) { &[][..] } else { optimised };
    for &n in sizes.iter().chain(optimised) {
        let iters = |combo: Combo| {
            let what = format!("{} n={n} {}", kind.name(), combo.label());
            let r = solve_e2e(kind, n, combo, combo.mg_config(), &opts)
                .unwrap_or_else(|e| panic!("{what}: set-up failed: {e}"));
            assert!(r.result.converged(), "{what}: {:?} after {}", r.result.reason, r.result.iters);
            r.result.iters
        };
        let (full, mix) = (iters(Combo::Full64), iters(Combo::D16SetupScale));
        assert!(mix <= full + 2, "{} n={n}: Mix16 {mix} iterations, Full64 {full}", kind.name());
    }
}

#[test]
fn oil_converges_in_full64_and_mix16() {
    assert_converges(ProblemKind::Oil, &[17, 24, 33], &[48, 96]);
}

#[test]
fn weather_converges_in_full64_and_mix16() {
    assert_converges(ProblemKind::Weather, &[17, 24, 33], &[80, 96]);
}

#[test]
fn oil_4c_converges_in_full64_and_mix16() {
    assert_converges(ProblemKind::Oil4C, &[17], &[24, 33]);
}
