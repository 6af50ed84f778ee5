//! One multigrid level: stored matrix, scaling vectors, smoother data,
//! and the per-level vector operations of Algorithm 3.

use fp16mg_fp::Scalar;
use fp16mg_grid::Grid3;
use fp16mg_sgdia::kernels::{BlockDiagInv, Par};
use fp16mg_sgdia::scaling::{rescale_into, ScaleVectors};
use fp16mg_sgdia::SgDia;

use crate::config::SmootherKind;
use crate::stored::StoredMatrix;
use crate::workspace::LevelBufs;

/// A level of the hierarchy (everything except the coarsest, which is a
/// dense direct solve). Levels hold only operator data and its insurance;
/// the solve vectors (`u`, `f`, `r`, scratch) live in the hierarchy's
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
    /// Kernel parallelism of the level's products.
    pub par: Par,
    /// Promotion material of a 16-bit level under an enabled recovery
    /// policy: the *unscaled* high-precision operator in FP32, exact
    /// enough to rebuild the level at FP32. A promoted level has none, and
    /// neither has a level 0 stored from the caller's own operator: its
    /// material is that operator, lent through [`crate::Mg::insured`].
    pub source: Option<SgDia<f32>>,
    /// Repair material of a 16-bit level under
    /// `IntegrityPolicy::retain_parents`: the exact f64 operator the level
    /// was truncated from (post-scaling). Re-truncating it through the
    /// same deterministic store path reproduces the level bit-identically,
    /// which is what makes localized repair exact.
    pub parent: Option<SgDia<f64>>,
}

impl<Pr: Scalar> Level<Pr> {
    /// Bytes of the level's promotion source and repair parent.
    pub fn insurance_bytes(&self) -> usize {
        self.source.as_ref().map_or(0, SgDia::value_bytes)
            + self.parent.as_ref().map_or(0, SgDia::value_bytes)
    }

    /// Forms the right-hand side of the scaled space, `t2 = S⁻¹ f`, which
    /// [`smooth`](Self::smooth) and
    /// [`compute_residual`](Self::compute_residual) sweep against: once
    /// per visit of the level, before either. Nothing to do on an
    /// unscaled level.
    pub fn scale_rhs(&self, b: &mut LevelBufs<'_, Pr>) {
        if let Some(sv) = &self.scale {
            rescale_into(b.f, &sv.s_inv, b.t2);
        }
    }

    /// `ν` smoothing sweeps on `A u = f`, updating `b.u` in place.
    /// `post` selects the transposed sweep direction (Algorithm 3
    /// line 17). For a scaled level, the sweep runs in the scaled space
    /// `Ã (S u) = S⁻¹ f` — algebraically identical to sweeping the true
    /// operator, at the cost of two vector transforms around the sweeps
    /// (the recover-and-rescale overhead the paper calls cost-efficient);
    /// pre-smoothing leaves `t1 = S u` behind for the residual.
    ///
    /// `zero_guess` says the iterate is zero on entry — a level's first
    /// visit in a cycle. `b.u` is then not read and need not hold zeros,
    /// and the first sweep skips the pass it would spend multiplying by
    /// them. Returns whether `u` now solves `(L + D) u = f` (exactly one
    /// forward Gauss–Seidel sweep from zero ran), which makes the
    /// residual `−U u`.
    pub fn smooth(
        &self,
        kind: SmootherKind,
        nu: usize,
        post: bool,
        zero_guess: bool,
        b: &mut LevelBufs<'_, Pr>,
    ) -> bool {
        debug_assert!(!(post && zero_guess), "post-smoothing follows a coarse-grid correction");
        if post && nu == 0 {
            return false;
        }
        let LevelBufs { u, f, t1, t2, t3, t4, t5, .. } = b;
        let mut sweeps = |rhs: &[Pr], x: &mut [Pr]| {
            if zero_guess && nu == 0 {
                x.fill(Pr::ZERO);
            }
            let mut lower_solved = false;
            for k in 0..nu {
                let zero = zero_guess && k == 0;
                lower_solved =
                    self.sweep(kind, post, zero, rhs, x, [&mut **t3, &mut **t4, &mut **t5]);
            }
            lower_solved
        };
        let Some(sv) = &self.scale else {
            return sweeps(f, u);
        };
        // A scaled level iterates on t1 = S u against t2 = S⁻¹ f.
        if !zero_guess {
            rescale_into(u, &sv.s, t1);
        }
        let lower_solved = sweeps(t2, t1);
        if nu > 0 || zero_guess {
            rescale_into(t1, &sv.s_inv, u);
        }
        lower_solved
    }

    /// `r = f − A u` with the true operator recovered on the fly
    /// (Algorithm 3 lines 6–10): for a scaled level,
    /// `r = S (S⁻¹ f − Ã (S u))` from the `t2` and `t1` that
    /// [`scale_rhs`](Self::scale_rhs) and pre-smoothing left. With
    /// `lower_solved` (see [`smooth`](Self::smooth)) that is `−U u`, half
    /// the matrix and no right-hand side.
    pub fn compute_residual(&self, lower_solved: bool, b: &mut LevelBufs<'_, Pr>) {
        let (rhs, x): (&[Pr], &[Pr]) = match &self.scale {
            Some(_) => (b.t2, b.t1),
            None => (b.f, b.u),
        };
        if lower_solved {
            self.stored.residual_upper(x, b.r, self.par);
        } else {
            self.stored.residual(rhs, x, b.r, self.par);
        }
        if let Some(sv) = &self.scale {
            for (ri, &si) in b.r.iter_mut().zip(&sv.s) {
                *ri *= si;
            }
        }
    }

    /// One smoothing sweep on the stored operator (already in scaled space
    /// if applicable), `zero` meaning `x` is zero on entry and not to be
    /// read. Returns whether it was a forward Gauss–Seidel sweep from
    /// zero.
    fn sweep(
        &self,
        kind: SmootherKind,
        post: bool,
        zero: bool,
        b: &[Pr],
        x: &mut [Pr],
        [s1, s2, s3]: [&mut [Pr]; 3],
    ) -> bool {
        let (stored, dinv, par) = (&self.stored, &self.dinv, self.par);
        let forward = |x: &mut [Pr]| {
            if zero {
                stored.gs_forward_from_zero(dinv, b, x);
            } else {
                stored.gs_forward(dinv, b, x);
            }
        };
        // The symmetric Gauss–Seidel directions: a smoother of their own
        // and what the others degrade to.
        let gs = |x: &mut [Pr]| {
            if post {
                stored.gs_backward(dinv, b, x);
            } else {
                forward(x);
            }
            zero && !post
        };
        match kind {
            SmootherKind::GsSymmetric => return gs(x),
            SmootherKind::SymGs => {
                forward(x);
                stored.gs_backward(dinv, b, x);
            }
            SmootherKind::Chebyshev { degree } => {
                // Setup computes λmax whenever the Chebyshev smoother is
                // configured; a missing estimate means the level was built
                // for a different smoother. Degrade to a Gauss–Seidel
                // sweep rather than aborting the whole solve.
                let Some(lmax) = self.cheb_lambda else {
                    debug_assert!(false, "Chebyshev sweep without a λmax estimate");
                    return gs(x);
                };
                chebyshev_sweep(stored, dinv, lmax, degree.max(1), zero, b, x, s1, s2, s3, par);
            }
            SmootherKind::Ilu0 => {
                // Vector PDE fallback: symmetric Gauss–Seidel directions.
                let Some((l, u)) = &self.ilu else {
                    return gs(x);
                };
                // x += U⁻¹ L⁻¹ (b − A x): residual, two triangular solves
                // with the truncated factors (mixed-precision SpTRSV),
                // update. From zero the residual is b and the update is
                // the solve itself (into a cleared x: the line solve's
                // wrapped reads multiply what it finds by stored zeros).
                if zero {
                    l.sptrsv_forward(b, s2);
                    x.fill(Pr::ZERO);
                    u.sptrsv_backward(s2, x);
                    return false;
                }
                stored.residual(b, x, s1, par);
                l.sptrsv_forward(s1, s2);
                u.sptrsv_backward(s2, s1);
                for (xi, &e) in x.iter_mut().zip(s1.iter()) {
                    *xi += e;
                }
            }
            SmootherKind::Jacobi { weight } => {
                // r = b − A x (b itself from zero); x += ω D⁻¹ r.
                let r: &[Pr] = if zero {
                    x.fill(Pr::ZERO);
                    b
                } else {
                    stored.residual(b, x, s1, par);
                    s1
                };
                dinv.apply(r, s2);
                let w = Pr::from_f64(weight);
                for (xi, &zi) in x.iter_mut().zip(s2.iter()) {
                    *xi += w * zi;
                }
            }
        }
        false
    }
}

/// Chebyshev(degree) smoothing on the Jacobi-preconditioned operator
/// `D⁻¹A`, interval `[λmax/30, 1.1·λmax]` (hypre's defaults): each degree
/// is one residual SpMV plus vector updates — bandwidth-bound, so the
/// FP16 matrix compression converts directly into time. From a zero
/// iterate (`zero`: `x` is not read) the first residual is `b`.
#[allow(clippy::too_many_arguments)]
fn chebyshev_sweep<Pr: Scalar>(
    stored: &StoredMatrix,
    dinv: &BlockDiagInv<Pr>,
    lmax: f64,
    degree: usize,
    zero: bool,
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

    // d0 = z/θ; x += d0.
    if zero {
        x.fill(Pr::ZERO);
        dinv.apply(b, z);
    } else {
        stored.residual(b, x, r, par);
        dinv.apply(r, z);
    }
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
        dinv.apply(r, z);
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
