//! One multigrid level: stored matrix, scaling vectors, smoother data,
//! and the per-level vector operations of Algorithm 3.

use fp16mg_fp::Scalar;
use fp16mg_grid::Grid3;
use fp16mg_sgdia::kernels::{BlockDiagInv, Par};
use fp16mg_sgdia::scaling::{rescale_into, ScaleVectors};
use fp16mg_sgdia::SgDia;

use crate::stored::StoredMatrix;
use crate::workspace::LevelBufs;

/// A level of the hierarchy (everything except the coarsest, which is a
/// dense direct solve). Levels hold only operator data and its insurance;
/// the solve vectors (`u`, `f`, `r`, scratch) live in the hierarchy's
/// [`Workspace`](crate::workspace::Workspace) arena and are passed in
/// per call, so a level rebuild (a promotion) never reallocates the
/// hot-loop buffers.
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
    /// Kernel parallelism of the level's products.
    pub par: Par,
    /// Promotion material of a 16-bit level under an enabled recovery
    /// policy: the *unscaled* high-precision operator in FP32, exact
    /// enough to rebuild the level at FP32 — the one way a corrupted level
    /// is mended. A promoted level has none, and neither has a level 0
    /// stored from the caller's own operator: its material is that
    /// operator, lent through [`crate::Mg::insured`].
    pub source: Option<SgDia<f32>>,
}

impl<Pr: Scalar> Level<Pr> {
    /// Bytes of the level's promotion source.
    pub fn insurance_bytes(&self) -> usize {
        self.source.as_ref().map_or(0, SgDia::value_bytes)
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
        nu: usize,
        post: bool,
        zero_guess: bool,
        b: &mut LevelBufs<'_, Pr>,
    ) -> bool {
        debug_assert!(!(post && zero_guess), "post-smoothing follows a coarse-grid correction");
        if post && nu == 0 {
            return false;
        }
        let LevelBufs { u, f, t1, t2, .. } = b;
        let sweeps = |rhs: &[Pr], x: &mut [Pr]| {
            if zero_guess && nu == 0 {
                x.fill(Pr::ZERO);
            }
            let mut lower_solved = false;
            for k in 0..nu {
                let zero = zero_guess && k == 0;
                lower_solved = self.sweep(post, zero, rhs, x);
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

    /// One symmetric Gauss–Seidel sweep on the stored operator (already
    /// in scaled space if applicable): forward before the coarse-grid
    /// correction, backward after it (`post`). `zero` means `x` is zero
    /// on entry and not to be read. Returns whether it was a forward
    /// sweep from zero.
    fn sweep(&self, post: bool, zero: bool, b: &[Pr], x: &mut [Pr]) -> bool {
        let (stored, dinv) = (&self.stored, &self.dinv);
        if post {
            stored.gs_backward(dinv, b, x);
        } else if zero {
            stored.gs_forward_from_zero(dinv, b, x);
        } else {
            stored.gs_forward(dinv, b, x);
        }
        zero && !post
    }
}
