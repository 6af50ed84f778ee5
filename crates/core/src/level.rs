//! One multigrid level: stored matrix, scaling vectors, smoother data,
//! and the per-level vector operations of Algorithm 3.

use fp16mg_fp::Scalar;
use fp16mg_grid::Grid3;
use fp16mg_sgdia::kernels::{BlockDiagInv, Par};
use fp16mg_sgdia::scaling::{rescale_into, ScaleVectors};

use crate::config::SmootherKind;
use crate::stored::StoredMatrix;
use crate::workspace::LevelBufs;

/// A level of the hierarchy (everything except the coarsest, which is a
/// dense direct solve). Levels hold only operator data; the solve
/// vectors (`u`, `f`, `r`, scratch) live in the hierarchy's
/// [`Workspace`](crate::workspace::Workspace) arena and are passed in
/// per call, so a level rebuild (promotion, repair) never reallocates
/// the hot-loop buffers.
pub(crate) struct Level<Pr: Scalar> {
    /// This level's grid.
    pub grid: Grid3,
    /// The (possibly scaled) matrix in storage precision.
    pub stored: StoredMatrix,
    /// Rescale vectors when setup-then-scale fired on this level.
    pub scale: Option<ScaleVectors<Pr>>,
    /// Inverse diagonal blocks of the *stored* (scaled) operator, in the
    /// computation precision (never FP16 — guideline 4).
    pub dinv: BlockDiagInv<Pr>,
    /// ILU(0) factors in storage precision when the ILU smoother is
    /// configured (unit-lower L, upper U).
    pub ilu: Option<(StoredMatrix, StoredMatrix)>,
    /// Estimated `λmax(D⁻¹A)` of the stored (scaled) operator when the
    /// Chebyshev smoother is configured.
    pub cheb_lambda: Option<f64>,
    par: Par,
}

impl<Pr: Scalar> Level<Pr> {
    pub fn new(
        grid: Grid3,
        stored: StoredMatrix,
        scale: Option<ScaleVectors<Pr>>,
        dinv: BlockDiagInv<Pr>,
        ilu: Option<(StoredMatrix, StoredMatrix)>,
        cheb_lambda: Option<f64>,
        par: Par,
    ) -> Self {
        Level { grid, stored, scale, dinv, ilu, cheb_lambda, par }
    }

    /// `ν` smoothing sweeps on `A u = f`, updating `b.u` in place.
    /// `post` selects the transposed sweep direction (Algorithm 3
    /// line 17). For a scaled level, the sweep runs in the scaled space
    /// `Ã (S u) = S⁻¹ f` — algebraically identical to sweeping the true
    /// operator, at the cost of three vector transforms (the
    /// recover-and-rescale overhead the paper calls cost-efficient).
    pub fn smooth(&self, kind: SmootherKind, nu: usize, post: bool, b: &mut LevelBufs<'_, Pr>) {
        if nu == 0 {
            return;
        }
        if let Some(sv) = &self.scale {
            // t1 = S u (iterate), t2 = S⁻¹ f (rhs in scaled space).
            rescale_into(b.u, &sv.s, b.t1);
            rescale_into(b.f, &sv.s_inv, b.t2);
            for _ in 0..nu {
                sweep(
                    &self.stored,
                    &self.dinv,
                    self.ilu.as_ref(),
                    self.cheb_lambda,
                    b.t2,
                    b.t1,
                    b.t3,
                    b.t4,
                    b.t5,
                    kind,
                    post,
                    self.par,
                );
            }
            let s_inv = &sv.s_inv;
            rescale_into(b.t1, s_inv, b.u);
        } else {
            for _ in 0..nu {
                sweep(
                    &self.stored,
                    &self.dinv,
                    self.ilu.as_ref(),
                    self.cheb_lambda,
                    b.f,
                    b.u,
                    b.t3,
                    b.t4,
                    b.t5,
                    kind,
                    post,
                    self.par,
                );
            }
        }
    }

    /// `r = f − A u` with the true operator recovered on the fly
    /// (Algorithm 3 lines 6–10): for a scaled level,
    /// `r = S (S⁻¹ f − Ã (S u))`.
    pub fn compute_residual(&self, b: &mut LevelBufs<'_, Pr>) {
        if let Some(sv) = &self.scale {
            rescale_into(b.u, &sv.s, b.t1);
            rescale_into(b.f, &sv.s_inv, b.t2);
            self.stored.residual(b.t2, b.t1, b.r, self.par);
            let s = &sv.s;
            for (ri, &si) in b.r.iter_mut().zip(s) {
                *ri *= si;
            }
        } else {
            self.stored.residual(b.f, b.u, b.r, self.par);
        }
    }
}

/// One smoothing sweep on the stored operator (already in scaled space if
/// applicable).
#[allow(clippy::too_many_arguments)]
fn sweep<Pr: Scalar>(
    stored: &StoredMatrix,
    dinv: &BlockDiagInv<Pr>,
    ilu: Option<&(StoredMatrix, StoredMatrix)>,
    cheb_lambda: Option<f64>,
    b: &[Pr],
    x: &mut [Pr],
    scratch: &mut [Pr],
    scratch2: &mut [Pr],
    scratch3: &mut [Pr],
    kind: SmootherKind,
    post: bool,
    par: Par,
) {
    if let SmootherKind::Chebyshev { degree } = kind {
        // Setup computes λmax whenever the Chebyshev smoother is
        // configured; a missing estimate means the level was built for a
        // different smoother. Degrade to a Gauss–Seidel sweep rather than
        // aborting the whole solve.
        let Some(lmax) = cheb_lambda else {
            debug_assert!(false, "Chebyshev sweep without a λmax estimate");
            if post {
                stored.gs_backward(dinv, b, x);
            } else {
                stored.gs_forward(dinv, b, x);
            }
            return;
        };
        chebyshev_sweep(stored, dinv, lmax, degree.max(1), b, x, scratch, scratch2, scratch3, par);
        return;
    }
    if kind == SmootherKind::Ilu0 {
        if let Some((l, u)) = ilu {
            // x += U⁻¹ L⁻¹ (b − A x): residual, two triangular solves
            // with the truncated factors (mixed-precision SpTRSV), update.
            stored.residual(b, x, scratch, par);
            l.sptrsv_forward(scratch, scratch2);
            u.sptrsv_backward(scratch2, scratch);
            for (xi, &e) in x.iter_mut().zip(scratch.iter()) {
                *xi += e;
            }
            return;
        }
        // Vector PDE fallback: symmetric Gauss–Seidel directions.
        if post {
            stored.gs_backward(dinv, b, x);
        } else {
            stored.gs_forward(dinv, b, x);
        }
        return;
    }
    match kind {
        SmootherKind::Jacobi { weight } => {
            // scratch = b - A x; x += ω D⁻¹ scratch.
            stored.residual(b, x, scratch, par);
            let w = Pr::from_f64(weight);
            if let Some(di) = dinv.as_scalar() {
                // Scalar PDE: one slice, so the loop vectorises.
                for ((xi, &d), &ri) in x.iter_mut().zip(di).zip(scratch.iter()) {
                    *xi += w * (d * ri);
                }
                return;
            }
            let r = dinv.components();
            const MAX_BLOCK: usize = 8;
            let mut blk = [Pr::ZERO; MAX_BLOCK];
            for cell in 0..dinv.cells() {
                dinv.solve(cell, &scratch[cell * r..cell * r + r], &mut blk[..r]);
                for c in 0..r {
                    x[cell * r + c] += w * blk[c];
                }
            }
        }
        SmootherKind::GsSymmetric => {
            if post {
                stored.gs_backward(dinv, b, x);
            } else {
                stored.gs_forward(dinv, b, x);
            }
        }
        SmootherKind::SymGs => {
            stored.gs_forward(dinv, b, x);
            stored.gs_backward(dinv, b, x);
        }
        SmootherKind::Ilu0 | SmootherKind::Chebyshev { .. } => unreachable!("handled above"),
    }
}

/// Chebyshev(degree) smoothing on the Jacobi-preconditioned operator
/// `D⁻¹A`, interval `[λmax/30, 1.1·λmax]` (hypre's defaults): each degree
/// is one residual SpMV plus vector updates — bandwidth-bound, so the
/// FP16 matrix compression converts directly into time.
#[allow(clippy::too_many_arguments)]
fn chebyshev_sweep<Pr: Scalar>(
    stored: &StoredMatrix,
    dinv: &BlockDiagInv<Pr>,
    lmax: f64,
    degree: usize,
    b: &[Pr],
    x: &mut [Pr],
    r: &mut [Pr],
    z: &mut [Pr],
    d: &mut [Pr],
    par: Par,
) {
    let upper = 1.1 * lmax;
    let lower = upper / 30.0;
    let theta = 0.5 * (upper + lower);
    let delta = 0.5 * (upper - lower);
    let sigma = theta / delta;
    let mut rho = 1.0 / sigma;

    let rc = dinv.components();
    let apply_dinv = |src: &[Pr], dst: &mut [Pr]| {
        if let Some(di) = dinv.as_scalar() {
            // Scalar PDE: one slice, so the loop vectorises.
            for ((o, &d), &v) in dst.iter_mut().zip(di).zip(src) {
                *o = d * v;
            }
            return;
        }
        for cell in 0..dinv.cells() {
            dinv.solve(
                cell,
                &src[cell * rc..(cell + 1) * rc],
                &mut dst[cell * rc..(cell + 1) * rc],
            );
        }
    };

    // d0 = z/θ; x += d0.
    stored.residual(b, x, r, par);
    apply_dinv(r, z);
    let inv_theta = Pr::from_f64(1.0 / theta);
    for (di, &zi) in d.iter_mut().zip(z.iter()) {
        *di = zi * inv_theta;
    }
    for (xi, &di) in x.iter_mut().zip(d.iter()) {
        *xi += di;
    }
    for _ in 1..degree {
        let rho_new = 1.0 / (2.0 * sigma - rho);
        stored.residual(b, x, r, par);
        apply_dinv(r, z);
        let c1 = Pr::from_f64(rho_new * rho);
        let c2 = Pr::from_f64(2.0 * rho_new / delta);
        for (di, &zi) in d.iter_mut().zip(z.iter()) {
            *di = c1 * *di + c2 * zi;
        }
        for (xi, &di) in x.iter_mut().zip(d.iter()) {
            *xi += di;
        }
        rho = rho_new;
    }
}
