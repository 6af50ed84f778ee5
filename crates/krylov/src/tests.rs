//! Solver tests on small dense-stored operators with known solutions.

use crate::{
    cg, gmres, richardson, IdentityPrecond, LinOp, Preconditioner, SolveOptions, StopReason,
    TimedPrecond,
};
use fp16mg_fp::Scalar;

/// Dense row-major test operator.
struct Dense {
    n: usize,
    a: Vec<f64>,
}

impl Dense {
    /// 1-D Laplacian (tridiagonal 2,-1), SPD.
    fn laplace1d(n: usize) -> Self {
        let mut a = vec![0.0; n * n];
        for i in 0..n {
            a[i * n + i] = 2.0;
            if i > 0 {
                a[i * n + i - 1] = -1.0;
            }
            if i + 1 < n {
                a[i * n + i + 1] = -1.0;
            }
        }
        Dense { n, a }
    }

    /// Nonsymmetric advection-diffusion-like tridiagonal.
    fn advection1d(n: usize) -> Self {
        let mut a = vec![0.0; n * n];
        for i in 0..n {
            a[i * n + i] = 3.0;
            if i > 0 {
                a[i * n + i - 1] = -1.8;
            }
            if i + 1 < n {
                a[i * n + i + 1] = -0.7;
            }
        }
        Dense { n, a }
    }
}

impl<K: Scalar> LinOp<K> for Dense {
    fn rows(&self) -> usize {
        self.n
    }
    fn apply(&self, x: &[K], y: &mut [K]) {
        for (i, out) in y.iter_mut().enumerate().take(self.n) {
            let row = &self.a[i * self.n..(i + 1) * self.n];
            let acc: f64 = row.iter().zip(x).map(|(&a, xv)| a * xv.to_f64()).sum();
            *out = K::from_f64(acc);
        }
    }
}

/// Jacobi preconditioner for the dense operators above.
struct Jacobi {
    dinv: Vec<f64>,
}

impl Jacobi {
    fn of(d: &Dense) -> Self {
        Jacobi { dinv: (0..d.n).map(|i| 1.0 / d.a[i * d.n + i]).collect() }
    }
}

impl<K: Scalar> Preconditioner<K> for Jacobi {
    fn apply(&mut self, r: &[K], z: &mut [K]) {
        for ((zi, &ri), &di) in z.iter_mut().zip(r).zip(&self.dinv) {
            *zi = K::from_f64(ri.to_f64() * di);
        }
    }
}

fn residual_norm(a: &Dense, b: &[f64], x: &[f64]) -> f64 {
    let mut ax = vec![0.0f64; b.len()];
    LinOp::<f64>::apply(a, x, &mut ax);
    b.iter().zip(&ax).map(|(&bi, &ai)| (bi - ai) * (bi - ai)).sum::<f64>().sqrt()
}

#[test]
fn cg_solves_spd_system() {
    let a = Dense::laplace1d(64);
    let b = vec![1.0f64; 64];
    let mut x = vec![0.0f64; 64];
    let res = cg(&a, &mut IdentityPrecond, &b, &mut x, &SolveOptions::default());
    assert_eq!(res.reason, StopReason::Converged);
    assert!(residual_norm(&a, &b, &x) < 1e-7);
    assert!(res.final_rel_residual < 1e-9);
}

#[test]
fn cg_with_jacobi_preconditioner() {
    let a = Dense::laplace1d(64);
    let mut m = Jacobi::of(&a);
    let b: Vec<f64> = (0..64).map(|i| (i as f64 * 0.37).sin()).collect();
    let mut x = vec![0.0f64; 64];
    let res = cg(&a, &mut m, &b, &mut x, &SolveOptions::default());
    assert!(res.converged());
    assert!(residual_norm(&a, &b, &x) < 1e-7);
}

#[test]
fn cg_history_is_recorded_and_decreasing_overall() {
    let a = Dense::laplace1d(32);
    let b = vec![1.0f64; 32];
    let mut x = vec![0.0f64; 32];
    let res = cg(&a, &mut IdentityPrecond, &b, &mut x, &SolveOptions::default());
    assert_eq!(res.history.len(), res.iters + 1);
    assert_eq!(res.history[0], 1.0); // x0 = 0 => r0 = b
    assert!(res.history.last().unwrap() < &1e-9);
}

/// A preconditioner that is itself a few CG iterations on the operator.
struct InnerCg<'a>(&'a Dense);

impl Preconditioner<f64> for InnerCg<'_> {
    fn apply(&mut self, r: &[f64], z: &mut [f64]) {
        z.fill(0.0);
        let opts = SolveOptions { tol: 1e-3, max_iters: 8, ..SolveOptions::default() };
        cg(self.0, &mut Jacobi::of(self.0), r, z, &opts);
    }
}

/// A solve nested inside a preconditioner finds the thread's pool rented
/// out by the outer solve and works on vectors of its own.
#[test]
fn a_solve_inside_a_preconditioner_converges() {
    let a = Dense::laplace1d(64);
    let b: Vec<f64> = (0..64).map(|i| (i as f64 * 0.37).sin()).collect();
    let opts = SolveOptions::default();
    for outer in ["cg", "gmres"] {
        let mut x = vec![0.0f64; 64];
        let res = match outer {
            "cg" => cg(&a, &mut InnerCg(&a), &b, &mut x, &opts),
            _ => gmres(&a, &mut InnerCg(&a), &b, &mut x, &opts),
        };
        assert!(res.converged(), "{outer}: {res:?}");
        assert!(residual_norm(&a, &b, &x) < 1e-7, "{outer}");
    }
}

#[test]
fn gmres_solves_nonsymmetric_system() {
    let a = Dense::advection1d(80);
    let b: Vec<f64> = (0..80).map(|i| 1.0 + (i % 5) as f64).collect();
    let mut x = vec![0.0f64; 80];
    let res = gmres(&a, &mut IdentityPrecond, &b, &mut x, &SolveOptions::default());
    assert!(res.converged(), "{res:?}");
    assert!(residual_norm(&a, &b, &x) < 1e-6);
}

#[test]
fn gmres_restarts() {
    let a = Dense::advection1d(100);
    let b = vec![1.0f64; 100];
    let mut x = vec![0.0f64; 100];
    let opts = SolveOptions { restart: 5, max_iters: 2000, ..Default::default() };
    let res = gmres(&a, &mut IdentityPrecond, &b, &mut x, &opts);
    assert!(res.converged(), "{res:?}");
    assert!(residual_norm(&a, &b, &x) < 1e-6);
    assert!(res.iters > 5, "must have crossed a restart boundary");
}

#[test]
fn gmres_with_preconditioner_converges_faster() {
    let a = Dense::advection1d(100);
    let b = vec![1.0f64; 100];
    let opts = SolveOptions { restart: 10, max_iters: 2000, ..Default::default() };
    let mut x1 = vec![0.0f64; 100];
    let r1 = gmres(&a, &mut IdentityPrecond, &b, &mut x1, &opts);
    let mut x2 = vec![0.0f64; 100];
    let mut m = Jacobi::of(&a);
    let r2 = gmres(&a, &mut m, &b, &mut x2, &opts);
    assert!(r1.converged() && r2.converged());
    assert!(r2.iters <= r1.iters);
}

#[test]
fn richardson_with_good_preconditioner() {
    // Jacobi Richardson on a strongly diagonally dominant system.
    let mut a = Dense::laplace1d(32);
    for i in 0..32 {
        a.a[i * 32 + i] = 5.0;
    }
    let mut m = Jacobi::of(&a);
    let b = vec![1.0f64; 32];
    let mut x = vec![0.0f64; 32];
    let opts = SolveOptions { max_iters: 200, ..Default::default() };
    let res = richardson(&a, &mut m, &b, &mut x, &opts);
    assert!(res.converged(), "{res:?}");
    assert!(residual_norm(&a, &b, &x) < 1e-7);
}

#[test]
fn richardson_detects_divergence_as_maxiters() {
    // Identity preconditioner on the 1-D Laplacian: ρ(I - A) ≈ 3 > 1.
    let a = Dense::laplace1d(16);
    let b = vec![1.0f64; 16];
    let mut x = vec![0.0f64; 16];
    let opts = SolveOptions { max_iters: 30, record_history: true, ..Default::default() };
    let res = richardson(&a, &mut IdentityPrecond, &b, &mut x, &opts);
    assert!(!res.converged());
}

#[test]
fn breakdown_on_nan_preconditioner() {
    // A preconditioner that injects NaN (mimicking unscaled FP16 overflow,
    // §3.4) must surface as Breakdown, not run forever.
    struct NanPrecond;
    impl Preconditioner<f64> for NanPrecond {
        fn apply(&mut self, _r: &[f64], z: &mut [f64]) {
            z.fill(f64::NAN);
        }
    }
    let a = Dense::laplace1d(16);
    let b = vec![1.0f64; 16];
    let mut x = vec![0.0f64; 16];
    let res = cg(&a, &mut NanPrecond, &b, &mut x, &SolveOptions::default());
    assert_eq!(res.reason, StopReason::Breakdown);
    let mut x2 = vec![0.0f64; 16];
    let res2 = richardson(&a, &mut NanPrecond, &b, &mut x2, &SolveOptions::default());
    assert_eq!(res2.reason, StopReason::Breakdown);
    let mut x3 = vec![0.0f64; 16];
    let res3 = gmres(&a, &mut NanPrecond, &b, &mut x3, &SolveOptions::default());
    assert_eq!(res3.reason, StopReason::Breakdown);
}

#[test]
fn zero_rhs_returns_zero() {
    let a = Dense::laplace1d(8);
    let b = vec![0.0f64; 8];
    let mut x = vec![1.0f64; 8];
    let res = cg(&a, &mut IdentityPrecond, &b, &mut x, &SolveOptions::default());
    assert!(res.converged());
    assert!(x.iter().all(|&v| v == 0.0));
}

#[test]
fn timed_precond_counts_calls() {
    let a = Dense::laplace1d(32);
    let mut m = TimedPrecond::new(Jacobi::of(&a));
    let b = vec![1.0f64; 32];
    let mut x = vec![0.0f64; 32];
    let res = cg(&a, &mut m, &b, &mut x, &SolveOptions::default());
    assert!(res.converged());
    // CG applies M once before the loop and once per iteration (the last
    // iteration skips it only on convergence exit).
    assert!(m.calls() >= res.iters);
    assert!(m.elapsed().as_nanos() > 0);
}

#[test]
fn cg_f32_iterative_precision() {
    // The solvers are generic over K: run one in f32 (the paper's K32
    // configurations).
    let a = Dense::laplace1d(32);
    let b = vec![1.0f32; 32];
    let mut x = vec![0.0f32; 32];
    let opts = SolveOptions { tol: 1e-5, ..Default::default() };
    let res = cg(&a, &mut IdentityPrecond, &b, &mut x, &opts);
    assert!(res.converged());
}

// ------------------------------------------------------- solve control --

mod control {
    use super::*;
    use crate::health::SolveError;
    use crate::{cg_ctl, gmres_ctl, richardson_ctl, SolveControl};

    /// A control that cancels after `allow` checks.
    struct CancelAfter {
        allow: usize,
        seen: usize,
    }

    impl SolveControl for CancelAfter {
        fn check(&mut self, iter: usize) -> Result<(), SolveError> {
            self.seen += 1;
            if self.seen > self.allow {
                Err(SolveError::Cancelled { iter })
            } else {
                Ok(())
            }
        }
    }

    /// Runs each solver on a problem it would not finish in 3 iterations
    /// and asserts the cancellation fires mid-iteration, typed.
    fn assert_interrupted(res: crate::SolveResult, solver: &str) {
        assert_eq!(res.reason, StopReason::Interrupted, "{solver}: {res:?}");
        assert!(
            matches!(res.interrupt, Some(SolveError::Cancelled { .. })),
            "{solver}: {:?}",
            res.interrupt
        );
        assert!(
            matches!(res.failure(), Some(SolveError::Cancelled { .. })),
            "{solver}: failure() must surface the interrupt"
        );
        assert!(res.iters <= 3, "{solver}: stopped late ({} iters)", res.iters);
    }

    #[test]
    fn cancellation_fires_mid_iteration_in_all_solvers() {
        let spd = Dense::laplace1d(64);
        let nonsym = Dense::advection1d(64);
        let b = vec![1.0f64; 64];
        let opts = SolveOptions::default();

        let mut x = vec![0.0f64; 64];
        let mut ctl = CancelAfter { allow: 3, seen: 0 };
        assert_interrupted(cg_ctl(&spd, &mut IdentityPrecond, &b, &mut x, &opts, &mut ctl), "cg");

        let mut x = vec![0.0f64; 64];
        let mut ctl = CancelAfter { allow: 3, seen: 0 };
        assert_interrupted(
            gmres_ctl(&nonsym, &mut IdentityPrecond, &b, &mut x, &opts, &mut ctl),
            "gmres",
        );

        let mut x = vec![0.0f64; 64];
        let mut ctl = CancelAfter { allow: 3, seen: 0 };
        assert_interrupted(
            richardson_ctl(&spd, &mut Jacobi::of(&spd), &b, &mut x, &opts, &mut ctl),
            "richardson",
        );
    }

    #[test]
    fn deadline_error_via_closure_control() {
        use std::time::{Duration, Instant};
        let a = Dense::laplace1d(64);
        let b = vec![1.0f64; 64];
        let mut x = vec![0.0f64; 64];
        // A zero-length deadline: the first check already fails.
        let started = Instant::now();
        let deadline = Duration::ZERO;
        let mut ctl = |iter: usize| {
            let elapsed = started.elapsed();
            if elapsed > deadline {
                Err(SolveError::DeadlineExceeded { iter, elapsed, deadline })
            } else {
                Ok(())
            }
        };
        let res = cg_ctl(&a, &mut IdentityPrecond, &b, &mut x, &SolveOptions::default(), &mut ctl);
        assert_eq!(res.reason, StopReason::Interrupted);
        assert_eq!(res.iters, 0);
        match res.interrupt {
            Some(SolveError::DeadlineExceeded { iter: 1, .. }) => {}
            other => panic!("expected DeadlineExceeded at iter 1, got {other:?}"),
        }
    }

    #[test]
    fn no_control_changes_nothing() {
        // The plain entry points and the _ctl variants with NoControl
        // must agree bit-for-bit.
        let a = Dense::laplace1d(48);
        let b = vec![1.0f64; 48];
        let opts = SolveOptions::default();
        let mut x1 = vec![0.0f64; 48];
        let r1 = cg(&a, &mut IdentityPrecond, &b, &mut x1, &opts);
        let mut x2 = vec![0.0f64; 48];
        let r2 = cg_ctl(&a, &mut IdentityPrecond, &b, &mut x2, &opts, &mut crate::NoControl);
        assert_eq!(r1.iters, r2.iters);
        assert_eq!(r1.final_rel_residual, r2.final_rel_residual);
        assert_eq!(x1, x2);
    }

    #[test]
    fn gmres_interrupt_keeps_partial_progress() {
        // Cancel mid-restart-cycle: the partial x += Z y update must have
        // been applied, improving on the zero initial guess.
        let a = Dense::advection1d(100);
        let b = vec![1.0f64; 100];
        let mut x = vec![0.0f64; 100];
        let opts = SolveOptions { restart: 30, ..Default::default() };
        let mut ctl = CancelAfter { allow: 5, seen: 0 };
        let res = gmres_ctl(&a, &mut IdentityPrecond, &b, &mut x, &opts, &mut ctl);
        assert_eq!(res.reason, StopReason::Interrupted);
        assert!(x.iter().any(|&v| v != 0.0), "partial update must be applied");
        let bnorm = b.iter().map(|v| v * v).sum::<f64>().sqrt();
        assert!(residual_norm(&a, &b, &x) < bnorm, "iterate must improve on x0 = 0");
    }

    #[test]
    fn retryable_classification() {
        assert!(SolveError::Unconverged { iters: 10, rel: 0.5 }.retryable());
        assert!(SolveError::SetupFailed { message: "g".into() }.retryable());
        assert!(!SolveError::Cancelled { iter: 1 }.retryable());
        assert!(!SolveError::WorkerPanicked { message: "p".into() }.retryable());
        assert!(!SolveError::DeadlineExceeded {
            iter: 1,
            elapsed: std::time::Duration::from_millis(2),
            deadline: std::time::Duration::from_millis(1),
        }
        .retryable());
    }
}

/// The single-pass vector helpers CG runs on, against the passes they
/// replace.
mod fused {
    use crate::{axpy, axpy_norm2, dot, dot_pair, norm2};
    use fp16mg_fp::Scalar;

    fn vector<K: Scalar>(n: usize, seed: u64) -> Vec<K> {
        let mut rng = fp16mg_testkit::Rng::new(seed);
        (0..n).map(|_| K::from_f64(rng.f64_range(-3.0, 3.0))).collect()
    }

    /// Every length around the eight lanes, and long ones off a multiple.
    fn lengths() -> impl Iterator<Item = usize> {
        (0..=41).chain([1000, 1003, 4099])
    }

    fn check<K: Scalar>() {
        for n in lengths() {
            let (a, b, c) = (vector::<K>(n, 1), vector::<K>(n, 2), vector::<K>(n, 3));
            let (ab, bc) = dot_pair(&a, &b, &c);
            assert_eq!(ab.to_bits(), dot(&a, &b).to_bits(), "a.b, n = {n}, K = {}", K::NAME);
            assert_eq!(bc.to_bits(), dot(&b, &c).to_bits(), "b.c, n = {n}, K = {}", K::NAME);

            let (mut fused, mut plain) = (c.clone(), c);
            let norm = axpy_norm2(-0.37, &a, &mut fused);
            axpy(-0.37, &a, &mut plain);
            let same =
                fused.iter().zip(&plain).all(|(u, v)| u.to_f64().to_bits() == v.to_f64().to_bits());
            assert!(same, "axpy, n = {n}, K = {}", K::NAME);
            assert_eq!(norm.to_bits(), norm2(&plain).to_bits(), "norm2, n = {n}, K = {}", K::NAME);
        }
    }

    #[test]
    fn fused_helpers_match_the_unfused_pairs_bit_for_bit() {
        check::<f32>();
        check::<f64>();
    }
}

/// A solve from an all-zero guess takes `r₀ = b` without a product.
mod zero_guess {
    use std::cell::Cell;

    use super::{Dense, Jacobi};
    use crate::traits::residual;
    use crate::{cg, gmres, richardson, Breakdown, LinOp, SolveOptions, SolveResult, StopReason};

    /// Counts products; a product of zeros comes out `−0.0`, as the line
    /// kernel's `−(0 − Σ)` does.
    struct Counted<'a> {
        inner: &'a Dense,
        products: Cell<usize>,
    }

    impl<'a> Counted<'a> {
        fn new(inner: &'a Dense) -> Self {
            Counted { inner, products: Cell::new(0) }
        }
    }

    impl LinOp<f64> for Counted<'_> {
        fn rows(&self) -> usize {
            self.inner.n
        }
        fn apply(&self, x: &[f64], y: &mut [f64]) {
            self.products.set(self.products.get() + 1);
            self.inner.apply(x, y);
            y.iter_mut().filter(|v| **v == 0.0).for_each(|v| *v = -0.0);
        }
    }

    type Solver = fn(&Counted<'_>, &mut Jacobi, &[f64], &mut [f64], &SolveOptions) -> SolveResult;
    const SOLVERS: [(&str, Solver); 3] = [
        ("cg", |a, m, b, x, o| cg(a, m, b, x, o)),
        ("gmres", |a, m, b, x, o| gmres(a, m, b, x, o)),
        ("richardson", |a, m, b, x, o| richardson(a, m, b, x, o)),
    ];

    /// `r = b − A·0` with and without the product, to the bit, over a `b`
    /// that holds both zeros, a subnormal, an infinity and a NaN.
    #[test]
    fn residual_of_zeros_is_what_the_product_made_it() {
        let dense = Dense::laplace1d(12);
        let a = Counted::new(&dense);
        let mut b: Vec<f64> = (0..12).map(|i| (i as f64 - 5.5) * 0.25).collect();
        (b[2], b[3], b[7], b[9], b[10]) = (-0.0, 0.0, 5e-324, f64::INFINITY, f64::NAN);
        for zero in [0.0, -0.0] {
            let x = vec![zero; 12];
            let (mut got, mut want) = (vec![1.0; 12], vec![1.0; 12]);
            residual(&a, &b, &x, &mut got);
            assert_eq!(a.products.get(), 0, "a product was taken of {zero:?}");
            Counted::new(&dense).apply(&x, &mut want);
            want.iter_mut().zip(&b).for_each(|(r, &bi)| *r = bi - *r);
            let bits = |v: &[f64]| v.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&got), bits(&want));
            assert_eq!(got[2].to_bits(), 0, "-0.0 in b");
        }
        // One nonzero, and it is the product again.
        let mut x = vec![0.0; 12];
        x[11] = 1e-300;
        residual(&a, &b, &x, &mut [0.0; 12]);
        assert_eq!(a.products.get(), 1);
    }

    /// Cold, every solver takes one product less than from a guess that
    /// is not zero — GMRES on its first cycle only — and ends where it did
    /// when the guess costs nothing to tell apart from zero.
    #[test]
    fn zero_guess_saves_exactly_the_first_product() {
        let dense = Dense::advection1d(40);
        let b = vec![1.0f64; 40];
        let opts = SolveOptions { restart: 5, tol: 1e-10, ..Default::default() };
        for (name, solve) in SOLVERS {
            let runs = [0.0, 1e-300].map(|guess| {
                let a = Counted::new(&dense);
                let mut x = vec![guess; 40];
                let res = solve(&a, &mut Jacobi::of(&dense), &b, &mut x, &opts);
                assert_eq!(res.reason, StopReason::Converged, "{name}");
                (a.products.get(), res.iters, res.history, x)
            });
            let [cold, warm] = runs;
            assert_eq!(cold.0 + 1, warm.0, "{name}: products");
            assert_eq!(cold.1, warm.1, "{name}: iterations");
            assert_eq!(cold.2, warm.2, "{name}: residual history");
            assert_eq!(cold.3, warm.3, "{name}: solution");
        }
    }

    /// An operator holding ±∞ or NaN still ends a cold solve in a typed
    /// breakdown, after one product.
    #[test]
    fn zero_guess_still_meets_a_non_finite_operator() {
        for bad in [f64::INFINITY, f64::NEG_INFINITY, f64::NAN] {
            let mut dense = Dense::laplace1d(16);
            dense.a[5 * 16 + 6] = bad;
            let b = vec![1.0f64; 16];
            for (name, solve) in SOLVERS {
                let a = Counted::new(&dense);
                let mut x = vec![0.0f64; 16];
                let mut m = Jacobi::of(&dense);
                let res = solve(&a, &mut m, &b, &mut x, &SolveOptions::default());
                assert_eq!(res.reason, StopReason::Breakdown, "{name}, {bad}");
                assert_eq!(a.products.get(), 1, "{name}, {bad}: products before the breakdown");
                let typed = match res.breakdown.expect("a breakdown carries its kind") {
                    Breakdown::Indefinite { iter, .. } => ("cg", iter),
                    Breakdown::HessenbergNonFinite { iter, .. } => ("gmres", iter),
                    Breakdown::NonFiniteResidual { iter, .. } => ("richardson", iter),
                };
                assert_eq!(typed, (name, 1), "{name}, {bad}");
            }
        }
    }
}
