//! Preconditioned BiCGStab.

use fp16mg_fp::Scalar;

use crate::control::{NoControl, SolveControl};
use crate::health::{Breakdown, SolveHealth};
use crate::scratch;
use crate::traits::{dot, norm2, residual, LinOp, Preconditioner};
use crate::types::{SolveOptions, SolveResult, StopReason};

/// Solves `A x = b` for general `A` with right preconditioning via the
/// stabilized bi-conjugate gradient method — the workhorse of reservoir
/// simulators (the paper's oil problems ship from OpenCAEPoro, whose
/// default solver family includes BiCGStab) and a short-recurrence
/// alternative to restarted GMRES: two matrix–vector products and two
/// preconditioner applications per iteration, O(1) memory.
///
/// `x` holds the initial guess on entry and the solution on exit.
///
/// The classic BiCGStab breakdown conditions are reported typed: a
/// vanished shadow correlation as [`Breakdown::RhoBreakdown`], a
/// degenerate stabilization step as [`Breakdown::OmegaBreakdown`], plus
/// non-finite residuals and monitor-detected stagnation.
///
/// # Panics
/// Panics on dimension mismatch.
pub fn bicgstab<K: Scalar>(
    a: &impl LinOp<K>,
    m: &mut impl Preconditioner<K>,
    b: &[K],
    x: &mut [K],
    opts: &SolveOptions,
) -> SolveResult {
    bicgstab_ctl(a, m, b, x, opts, &mut NoControl)
}

/// [`bicgstab`] with a per-iteration [`SolveControl`] hook (see
/// [`crate::cg_ctl`] for the contract).
///
/// # Panics
/// Panics on dimension mismatch.
pub fn bicgstab_ctl<K: Scalar>(
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

    scratch::with_vectors(n, 8, |work| {
        // r, the shadow residual r0, p, p̂, v, s, ŝ and t, rented.
        let [r, r0, p, phat, v, s, shat, t] = work_vectors(work, n);
        residual(a, b, x, r);
        r0.copy_from_slice(r);
        p.copy_from_slice(r);
        let mut rho = dot(r0, r);

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

        for it in 1..=opts.max_iters {
            if let Err(e) = ctl.check(it) {
                return SolveResult::new(StopReason::Interrupted, it - 1, rel, history)
                    .with_interrupt(e)
                    .with_health(health.into_records());
            }
            // p̂ = M⁻¹p; v = A p̂.
            m.apply(p, phat);
            a.apply(phat, v);
            let r0v = dot(r0, v);
            if r0v == 0.0 || !r0v.is_finite() {
                m.on_health_anomaly();
                return SolveResult::new(StopReason::Breakdown, it, rel, history)
                    .with_breakdown(Breakdown::RhoBreakdown { iter: it, rho: r0v })
                    .with_health(health.into_records());
            }
            let alpha = rho / r0v;
            let ka = K::from_f64(alpha);
            for ((si, &ri), &vi) in s.iter_mut().zip(r.iter()).zip(v.iter()) {
                *si = ri - ka * vi;
            }
            // Early exit on half-step convergence.
            let snorm = norm2(s) / bnorm;
            if snorm < opts.tol {
                for (xi, &ph) in x.iter_mut().zip(phat.iter()) {
                    *xi += ka * ph;
                }
                if opts.record_history {
                    history.push(snorm);
                }
                return SolveResult::new(StopReason::Converged, it, snorm, history)
                    .with_health(health.into_records());
            }
            // ŝ = M⁻¹s; t = A ŝ.
            m.apply(s, shat);
            a.apply(shat, t);
            let tt = dot(t, t);
            if tt == 0.0 || !tt.is_finite() {
                m.on_health_anomaly();
                return SolveResult::new(StopReason::Breakdown, it, rel, history)
                    .with_breakdown(Breakdown::OmegaBreakdown { iter: it, omega: tt })
                    .with_health(health.into_records());
            }
            let omega = dot(t, s) / tt;
            let kw = K::from_f64(omega);
            for ((xi, &ph), &sh) in x.iter_mut().zip(phat.iter()).zip(shat.iter()) {
                *xi += ka * ph + kw * sh;
            }
            for ((ri, &si), &ti) in r.iter_mut().zip(s.iter()).zip(t.iter()) {
                *ri = si - kw * ti;
            }

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

            let rho_new = dot(r0, r);
            if rho_new == 0.0 || omega == 0.0 {
                m.on_health_anomaly();
                let b = if rho_new == 0.0 {
                    Breakdown::RhoBreakdown { iter: it, rho: rho_new }
                } else {
                    Breakdown::OmegaBreakdown { iter: it, omega }
                };
                return SolveResult::new(StopReason::Breakdown, it, rel, history)
                    .with_breakdown(b)
                    .with_health(health.into_records());
            }
            let beta = (rho_new / rho) * (alpha / omega);
            rho = rho_new;
            let kb = K::from_f64(beta);
            for ((pi, &ri), &vi) in p.iter_mut().zip(r.iter()).zip(v.iter()) {
                *pi = ri + kb * (*pi - kw * vi);
            }
        }

        SolveResult::new(StopReason::MaxIters, opts.max_iters, rel, history)
            .with_health(health.into_records())
    })
}

/// `work`, `8 · n` long, as eight `n`-long vectors.
fn work_vectors<K>(work: &mut [K], n: usize) -> [&mut [K]; 8] {
    let mut parts = work.chunks_exact_mut(n);
    core::array::from_fn(|_| parts.next().expect("eight vectors"))
}
