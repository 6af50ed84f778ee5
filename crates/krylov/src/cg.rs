//! Preconditioned conjugate gradients (flexible variant).

use fp16mg_fp::Scalar;

use crate::control::{NoControl, SolveControl};
use crate::health::{Breakdown, SolveHealth};
use crate::scratch;
use crate::traits::{
    axpy, axpy_norm2, dot, dot_pair, norm2, residual, xpby, LinOp, Preconditioner,
};
use crate::types::{SolveOptions, SolveResult, StopReason};

/// Solves `A x = b` for SPD `A` with preconditioner `M⁻¹` (also SPD —
/// the V-cycle with forward/backward Gauss–Seidel pre/post smoothing and
/// `R = Pᵀ` qualifies). `x` holds the initial guess on entry and the
/// solution on exit.
///
/// Uses the *flexible* (Polak–Ribière) beta
/// `β = zₖ₊₁ᵀ(rₖ₊₁ − rₖ) / zₖᵀrₖ` instead of the Fletcher–Reeves form
/// `β = zₖ₊₁ᵀrₖ₊₁ / zₖᵀrₖ`. For an exact fixed preconditioner the two
/// coincide; for a reduced-precision multigrid whose application carries
/// `O(ε_P)` rounding noise, the flexible form restores local
/// orthogonality and avoids the late-stage stagnation classic PCG
/// exhibits once the residual approaches the preconditioner's noise
/// floor — the CG analog of choosing FGMRES, and standard practice for
/// variable preconditioners (Notay's flexible CG; hypre's `flex`
/// option). Cost: one extra dot product per iteration.
///
/// Fails typed rather than silently: a curvature `pᵀAp ≤ 0`
/// ([`Breakdown::Indefinite`] — loss of definiteness in the working
/// precision), a non-finite residual, or a plateau flagged by the
/// [`crate::HealthPolicy`] monitor each stop the solve with a diagnosis
/// in the result.
///
/// # Panics
/// Panics on dimension mismatch.
pub fn cg<K: Scalar>(
    a: &impl LinOp<K>,
    m: &mut impl Preconditioner<K>,
    b: &[K],
    x: &mut [K],
    opts: &SolveOptions,
) -> SolveResult {
    cg_ctl(a, m, b, x, opts, &mut NoControl)
}

/// [`cg`] with a per-iteration [`SolveControl`] hook: the control is
/// polled at the top of every iteration and can abort the solve with a
/// typed interruption (deadline, cancellation, budget) — see
/// [`crate::StopReason::Interrupted`]. The four work vectors are rented
/// from the calling thread's pool, so a warm solve allocates none.
///
/// # Panics
/// Panics on dimension mismatch.
pub fn cg_ctl<K: Scalar>(
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

    scratch::with_vectors(n, 4, |work| {
        let (r, rest) = work.split_at_mut(n);
        let (z, rest) = rest.split_at_mut(n);
        let (p, ap) = rest.split_at_mut(n);

        // r = b - A x
        residual(a, b, x, r);

        let mut health = SolveHealth::new(opts.health, opts.record_history);
        let mut history = Vec::new();
        let mut rel = norm2(r) / bnorm;
        if opts.record_history {
            history.push(rel);
        }
        health.observe(0, rel);
        if rel < opts.tol {
            return SolveResult::new(StopReason::Converged, 0, rel, history)
                .with_health(health.into_records());
        }

        m.apply(r, z);
        p.copy_from_slice(z);
        let mut rz = dot(r, z);

        for it in 1..=opts.max_iters {
            if let Err(e) = ctl.check(it) {
                return SolveResult::new(StopReason::Interrupted, it - 1, rel, history)
                    .with_interrupt(e)
                    .with_health(health.into_records());
            }
            a.apply(p, ap);
            let pap = dot(p, ap);
            if !pap.is_finite() || pap <= 0.0 {
                m.on_health_anomaly();
                return SolveResult::new(StopReason::Breakdown, it, f64::NAN, history)
                    .with_breakdown(Breakdown::Indefinite { iter: it, pap })
                    .with_health(health.into_records());
            }
            let alpha = rz / pap;
            axpy(alpha, p, x);
            rel = axpy_norm2(-alpha, ap, r) / bnorm;
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

            m.apply(r, z);
            let (rz_new, z_ap) = dot_pair(r, z, ap);
            // Polak–Ribière numerator zᵀ(r_new − r_old): with
            // r_old = r_new + α·Ap this is rz_new − (rz_new + α·zᵀAp)
            //       = −α·zᵀAp, so β = (rz_new − zᵀr_old)/rz = −α·zᵀAp / rz.
            let beta_pr = -alpha * z_ap / rz;
            // Guard against loss of positivity from preconditioner noise.
            let beta = if beta_pr.is_finite() { beta_pr.max(0.0) } else { 0.0 };
            rz = rz_new;
            // p = z + beta p
            xpby(z, beta, p);
        }

        SolveResult::new(StopReason::MaxIters, opts.max_iters, rel, history)
            .with_health(health.into_records())
    })
}
