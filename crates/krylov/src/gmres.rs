//! Restarted flexible GMRES (FGMRES) with right preconditioning.

use fp16mg_fp::Scalar;

use crate::control::{NoControl, SolveControl};
use crate::health::{Breakdown, SolveHealth};
use crate::scratch;
use crate::traits::{axpy, dot, norm2, residual, LinOp, Preconditioner};
use crate::types::{SolveOptions, SolveResult, StopReason};

/// Solves `A x = b` for general (nonsymmetric) `A` via flexible
/// GMRES(m) with right preconditioning. `x` holds the initial guess on
/// entry and the solution on exit.
///
/// The *flexible* variant stores the preconditioned basis
/// `z_j = M⁻¹ v_j` and forms the solution update from those exact
/// vectors (`x += Z y`). This matters for reduced-precision
/// preconditioners: plain right-preconditioned GMRES re-applies `M⁻¹` to
/// the assembled combination `V y` at the end of each cycle, and the
/// preconditioner's rounding error — `O(ε_P · κ)` for an FP32 multigrid
/// on an ill-conditioned system — then lands directly in the solution
/// update, creating a residual floor far above the FP64 target. FGMRES
/// sidesteps that by construction, which is why multigrid-preconditioned
/// production solvers (hypre's FlexGMRES, PETSc's fgmres) default to it.
///
/// # Panics
/// Panics on dimension mismatch.
pub fn gmres<K: Scalar>(
    a: &impl LinOp<K>,
    m: &mut impl Preconditioner<K>,
    b: &[K],
    x: &mut [K],
    opts: &SolveOptions,
) -> SolveResult {
    gmres_ctl(a, m, b, x, opts, &mut NoControl)
}

/// [`gmres`] with a per-iteration [`SolveControl`] hook, polled once per
/// *inner* (Arnoldi) iteration. On interruption the partial flexible
/// update `x += Z y` for the completed inner iterations is still
/// applied, so the iterate reflects all work done so far.
///
/// The residual, the work vector and both bases (`restart` Krylov
/// vectors, `restart` flexible ones) are rented from the calling thread's
/// pool once per solve and reused across restarts, so inner iterations
/// never touch the heap and a warm solve allocates no vector.
///
/// # Panics
/// Panics on dimension mismatch.
pub fn gmres_ctl<K: Scalar>(
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
    // A cycle never runs past `max_iters`, so neither do the bases.
    let restart = opts.restart.clamp(1, opts.max_iters.max(1));

    let bnorm = norm2(b);
    if bnorm == 0.0 {
        x.fill(K::ZERO);
        return SolveResult::new(StopReason::Converged, 0, 0.0, vec![0.0]);
    }

    scratch::with_vectors(n, 2 * restart + 2, |work| {
        let mut health = SolveHealth::new(opts.health, opts.record_history);
        let mut history = Vec::new();
        let mut total_iters = 0usize;
        let mut last_breakdown: Option<Breakdown> = None;

        // Residual r, work vector w, Krylov basis V and flexible basis Z
        // (restart vectors each: v_restart is never formed, the cycle ends
        // on its norm) from the one rented buffer; Hessenberg in f64.
        let (r, rest) = work.split_at_mut(n);
        let (w, rest) = rest.split_at_mut(n);
        let (basis, zbasis) = rest.split_at_mut(restart * n);
        let mut h = vec![0.0f64; (restart + 1) * restart];
        let mut cs = vec![0.0f64; restart];
        let mut sn = vec![0.0f64; restart];
        let mut g = vec![0.0f64; restart + 1];
        let mut y = vec![0.0f64; restart];

        let mut rel;
        loop {
            // r0 = b - A x
            residual(a, b, x, r);
            let beta = norm2(r);
            rel = beta / bnorm;
            if opts.record_history && history.is_empty() {
                history.push(rel);
            }
            if !rel.is_finite() {
                m.on_health_anomaly();
                return SolveResult::new(StopReason::Breakdown, total_iters, rel, history)
                    .with_breakdown(Breakdown::NonFiniteResidual { iter: total_iters, value: rel })
                    .with_health(health.into_records());
            }
            if rel < opts.tol {
                return SolveResult::new(StopReason::Converged, total_iters, rel, history)
                    .with_health(health.into_records());
            }
            if total_iters >= opts.max_iters {
                return SolveResult::new(StopReason::MaxIters, total_iters, rel, history)
                    .with_health(health.into_records());
            }

            // Arnoldi from v0 = r/beta.
            let inv_beta = K::from_f64(1.0 / beta);
            for (v0, &ri) in basis[..n].iter_mut().zip(r.iter()) {
                *v0 = ri * inv_beta;
            }
            g.iter_mut().for_each(|v| *v = 0.0);
            g[0] = beta;
            h.iter_mut().for_each(|v| *v = 0.0);

            let mut k_used = 0usize;
            let mut broke_down = false;
            let mut stagnated = None;
            let mut interrupted = None;
            for k in 0..restart {
                if total_iters >= opts.max_iters {
                    break;
                }
                if let Err(e) = ctl.check(total_iters + 1) {
                    interrupted = Some(e);
                    break;
                }
                // z_k = M⁻¹ v_k (kept); w = A z_k.
                let zk = &mut zbasis[k * n..(k + 1) * n];
                m.apply(&basis[k * n..(k + 1) * n], zk);
                a.apply(zk, w);
                // Modified Gram–Schmidt against v_0..v_k.
                for (i, vi) in basis[..(k + 1) * n].chunks_exact(n).enumerate() {
                    let hik = dot(w, vi);
                    h[i * restart + k] = hik;
                    axpy(-hik, vi, w);
                }
                let hkk = norm2(w);
                h[(k + 1) * restart + k] = hkk;
                if !hkk.is_finite() {
                    broke_down = true;
                    last_breakdown =
                        Some(Breakdown::HessenbergNonFinite { iter: total_iters + 1, entry: hkk });
                    k_used = k + 1;
                    total_iters += 1;
                    break;
                }

                // Apply accumulated Givens rotations to column k.
                for i in 0..k {
                    let t = cs[i] * h[i * restart + k] + sn[i] * h[(i + 1) * restart + k];
                    h[(i + 1) * restart + k] =
                        -sn[i] * h[i * restart + k] + cs[i] * h[(i + 1) * restart + k];
                    h[i * restart + k] = t;
                }
                // New rotation to annihilate h[k+1][k].
                let denom = (h[k * restart + k].powi(2) + hkk * hkk).sqrt();
                if denom == 0.0 {
                    // Exact breakdown: solution lies in the current space.
                    k_used = k + 1;
                    total_iters += 1;
                    break;
                }
                cs[k] = h[k * restart + k] / denom;
                sn[k] = hkk / denom;
                h[k * restart + k] = denom;
                h[(k + 1) * restart + k] = 0.0;
                g[k + 1] = -sn[k] * g[k];
                g[k] *= cs[k];

                total_iters += 1;
                k_used = k + 1;
                rel = g[k + 1].abs() / bnorm;
                if opts.record_history {
                    history.push(rel);
                }
                if rel < opts.tol || hkk == 0.0 {
                    break;
                }
                // Observe *after* the convergence check so a converged final
                // iteration is never misread as a stall.
                stagnated = health.observe(total_iters, rel);
                if stagnated.is_some() {
                    break;
                }
                if k + 1 < restart {
                    let inv = K::from_f64(1.0 / hkk);
                    for (vn, &wi) in basis[(k + 1) * n..(k + 2) * n].iter_mut().zip(w.iter()) {
                        *vn = wi * inv;
                    }
                }
            }

            if k_used > 0 {
                // Solve the triangular system h y = g.
                for i in (0..k_used).rev() {
                    let mut v = g[i];
                    for j in i + 1..k_used {
                        v -= h[i * restart + j] * y[j];
                    }
                    let d = h[i * restart + i];
                    if d == 0.0 || !v.is_finite() {
                        broke_down = true;
                        last_breakdown = Some(Breakdown::HessenbergNonFinite {
                            iter: total_iters,
                            entry: if d == 0.0 { d } else { v },
                        });
                        break;
                    }
                    y[i] = v / d;
                }
                if !broke_down {
                    // x += Z y — the flexible update.
                    for (zj, &yj) in zbasis.chunks_exact(n).zip(&y[..k_used]) {
                        axpy(yj, zj, x);
                    }
                }
            }
            if broke_down {
                m.on_health_anomaly();
                let b = last_breakdown.unwrap_or(Breakdown::HessenbergNonFinite {
                    iter: total_iters,
                    entry: f64::NAN,
                });
                return SolveResult::new(StopReason::Breakdown, total_iters, f64::NAN, history)
                    .with_breakdown(b)
                    .with_health(health.into_records());
            }
            if let Some(e) = interrupted {
                return SolveResult::new(StopReason::Interrupted, total_iters, rel, history)
                    .with_interrupt(e)
                    .with_health(health.into_records());
            }
            if let Some(stag) = stagnated {
                m.on_health_anomaly();
                return SolveResult::new(StopReason::Stagnated, total_iters, rel, history)
                    .with_stagnation(stag)
                    .with_health(health.into_records());
            }
        }
    })
}
