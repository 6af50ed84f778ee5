//! Stationary (Richardson) iteration — the paper's Algorithm 2.

use fp16mg_fp::Scalar;

use crate::control::{NoControl, SolveControl};
use crate::health::{Breakdown, SolveHealth};
use crate::scratch;
use crate::traits::{norm2, residual, LinOp, Preconditioner};
use crate::types::{SolveOptions, SolveResult, StopReason};

/// Solves `A x = b` by the preconditioned stationary iteration
/// `x ← x + M⁻¹ (b − A x)` (Algorithm 2). Converges iff
/// `ρ(I − M⁻¹A) < 1`; with a multigrid preconditioner this is "multigrid
/// as a solver". `x` holds the initial guess on entry and the solution on
/// exit.
///
/// # Panics
/// Panics on dimension mismatch.
pub fn richardson<K: Scalar>(
    a: &impl LinOp<K>,
    m: &mut impl Preconditioner<K>,
    b: &[K],
    x: &mut [K],
    opts: &SolveOptions,
) -> SolveResult {
    richardson_ctl(a, m, b, x, opts, &mut NoControl)
}

/// [`richardson`] with a per-iteration [`SolveControl`] hook (see
/// [`crate::cg_ctl`] for the contract).
///
/// # Panics
/// Panics on dimension mismatch.
pub fn richardson_ctl<K: Scalar>(
    a: &impl LinOp<K>,
    m: &mut impl Preconditioner<K>,
    b: &[K],
    x: &mut [K],
    opts: &SolveOptions,
    ctl: &mut impl SolveControl,
) -> SolveResult {
    let n = a.rows();
    assert_eq!(b.len(), n, "b length");
    assert_eq!(x.len(), n, "x length");

    let bnorm = norm2(b);
    if bnorm == 0.0 {
        x.fill(K::ZERO);
        return SolveResult::new(StopReason::Converged, 0, 0.0, vec![0.0]);
    }

    scratch::with_vectors(n, 2, |work| {
        // The residual r and the correction e, rented.
        let (r, e) = work.split_at_mut(n);
        let mut health = SolveHealth::new(opts.health, opts.record_history);
        let mut history = Vec::new();
        let mut rel = f64::NAN;

        for it in 0..=opts.max_iters {
            if let Err(e) = ctl.check(it) {
                return SolveResult::new(
                    StopReason::Interrupted,
                    it.saturating_sub(1),
                    rel,
                    history,
                )
                .with_interrupt(e)
                .with_health(health.into_records());
            }
            // r = b - A x  (iterative precision, Algorithm 2 line 3)
            residual(a, b, x, r);
            rel = norm2(r) / bnorm;
            if opts.record_history {
                history.push(rel);
            }
            if !rel.is_finite() {
                m.on_health_anomaly();
                return SolveResult::new(StopReason::Breakdown, it, rel, history)
                    .with_breakdown(Breakdown::NonFiniteResidual { iter: it, value: rel })
                    .with_health(health.into_records());
            }
            if rel < opts.tol {
                return SolveResult::new(StopReason::Converged, it, rel, history)
                    .with_health(health.into_records());
            }
            if let Some(stag) = health.observe(it, rel) {
                m.on_health_anomaly();
                return SolveResult::new(StopReason::Stagnated, it, rel, history)
                    .with_stagnation(stag)
                    .with_health(health.into_records());
            }
            if it == opts.max_iters {
                break;
            }
            // e = M⁻¹ r (lines 4–6: truncation/recovery inside the
            // preconditioner), then x += e.
            m.apply(r, e);
            for (xi, &ei) in x.iter_mut().zip(e.iter()) {
                *xi += ei;
            }
        }

        SolveResult::new(StopReason::MaxIters, opts.max_iters, rel, history)
            .with_health(health.into_records())
    })
}
