//! Symmetric diagonal scaling (§4.1, Theorem 4.1).
//!
//! To truncate a matrix whose entries exceed `FP16_MAX = 65504` safely,
//! the paper scales it as `Ã = Q^{-1/2} A Q^{-1/2}` with
//! `Q = diag(A) / G`. The scaled entry is `G · a_ij / √(a_ii a_jj)`, so
//! any `G < G_max = S · min_ij |√(a_ii a_jj) / a_ij|` guarantees every
//! entry stays below `S = FP16_MAX` — Theorem 4.1. The scaled diagonal is
//! the constant `G`.
//!
//! At solve time the true operator is recovered on the fly:
//! `A x = S_q (Ã (S_q x))` with `S_q = diag(√q)`, which costs two
//! pointwise vector multiplies per matrix application — the
//! recover-and-rescale of §4.2. `Q` (equivalently `√q` and its
//! reciprocal) is stored in the preconditioner computation precision,
//! never FP16 (Algorithm 1 line 9).

use std::ops::Range;

use fp16mg_fp::{Scalar, Storage};
use fp16mg_grid::Grid3;
use fp16mg_stencil::Tap;

use crate::{Layout, SgDia};

/// Why the symmetric scaling of Theorem 4.1 cannot be applied: the
/// theorem's M-matrix prerequisite (a strictly positive, finite diagonal)
/// does not hold. Carries the offending unknown *and* its value, so the
/// caller can report (and the operator can grep logs for) exactly which
/// coefficient broke the precondition.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ScalingError {
    /// A diagonal entry is zero or negative.
    NonPositiveDiagonal {
        /// Flat unknown index ([`Grid3::unknown_of`]).
        unknown: usize,
        /// The offending diagonal value.
        value: f64,
    },
    /// A diagonal entry is ±∞ or NaN.
    NonFiniteDiagonal {
        /// Flat unknown index.
        unknown: usize,
        /// The offending diagonal value.
        value: f64,
    },
}

impl ScalingError {
    /// Flat index of the offending unknown, whichever the failure.
    pub fn unknown(self) -> usize {
        match self {
            ScalingError::NonPositiveDiagonal { unknown, .. }
            | ScalingError::NonFiniteDiagonal { unknown, .. } => unknown,
        }
    }

    /// The offending diagonal value.
    pub fn value(self) -> f64 {
        match self {
            ScalingError::NonPositiveDiagonal { value, .. }
            | ScalingError::NonFiniteDiagonal { value, .. } => value,
        }
    }
}

impl core::fmt::Display for ScalingError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ScalingError::NonPositiveDiagonal { unknown, value } => write!(
                f,
                "diagonal entry of unknown {unknown} is non-positive ({value:e}); \
                 Theorem 4.1 requires a positive diagonal"
            ),
            ScalingError::NonFiniteDiagonal { unknown, value } => write!(
                f,
                "diagonal entry of unknown {unknown} is non-finite ({value}); \
                 Theorem 4.1 requires a finite diagonal"
            ),
        }
    }
}

impl std::error::Error for ScalingError {}

/// The per-level scaling data produced by `setup-then-scale`.
#[derive(Clone, Debug)]
pub struct ScaleVectors<P: Scalar> {
    /// The chosen scaling constant `G` (the scaled matrix's diagonal).
    pub g: f64,
    /// When a user-fixed `G` had to be clamped to `G_max/2` for safety,
    /// the originally requested value (`None` when the request was honored
    /// or `G` was chosen automatically). Surfaced in `MgInfo` so the clamp
    /// is never silent.
    pub g_clamped_from: Option<f64>,
    /// `√q` per unknown (`q_i = a_ii / G`), the `Q^{1/2}` rescale factors.
    pub s: Vec<P>,
    /// `1/√q` per unknown, the `Q^{-1/2}` factors.
    pub s_inv: Vec<P>,
}

/// How `G` is picked.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum GChoice {
    /// `G = min(1, G_max/2)`: for diagonally dominant matrices the scaled
    /// entries land in `[0, 1]`, the sweet spot of FP16 accuracy, while
    /// staying provably below `FP16_MAX`.
    Auto,
    /// A fixed user value (clamped to `G_max/2` for safety).
    Fixed(f64),
}

/// `diag`, if it is the positive, finite diagonal Theorem 4.1 presupposes.
pub fn positive(diag: Vec<f64>) -> Result<Vec<f64>, ScalingError> {
    for (u, &d) in diag.iter().enumerate() {
        if !d.is_finite() {
            return Err(ScalingError::NonFiniteDiagonal { unknown: u, value: d });
        }
        if d <= 0.0 {
            return Err(ScalingError::NonPositiveDiagonal { unknown: u, value: d });
        }
    }
    Ok(diag)
}

/// Calls `f(tap index, row factors, column factors, cells, neighbour
/// cells)` for every x-row run of in-grid entries, tap by tap — storage
/// order for SOA matrices. `per_unknown` is a vector over the unknowns
/// (the diagonal's roots, `1/√q`, or a [`congruence`]'s `w`): the factors
/// are its fields of the tap's row and column component.
fn for_each_in_grid_run<'v>(
    grid: &Grid3,
    taps: &[Tap],
    per_unknown: &'v [f64],
    mut f: impl FnMut(usize, &'v [f64], &'v [f64], Range<usize>, Range<usize>),
) {
    for (t, tap) in taps.iter().enumerate() {
        let rows = &per_unknown[grid.field(tap.cout as usize)];
        let cols = &per_unknown[grid.field(tap.cin as usize)];
        let stride = grid.stride(tap.dx, tap.dy, tap.dz);
        for run in grid.neighbour_runs(0..grid.cells(), tap.dx, tap.dy, tap.dz) {
            let nb = (run.start as i64 + stride) as usize;
            f(t, rows, cols, run.clone(), nb..nb + run.len());
        }
    }
}

/// Computes `G_max` of Theorem 4.1 for a matrix with positive diagonal.
///
/// # Errors
/// [`ScalingError`] identifying the offending unknown and its value if a
/// diagonal entry is non-positive or non-finite (the M-matrix
/// prerequisite of the theorem).
pub fn g_max<S: Storage>(a: &SgDia<S>, fp16_max: f64) -> Result<f64, ScalingError> {
    Ok(g_max_given(a, &positive(a.extract_diagonal())?, fp16_max))
}

/// [`g_max`] given the (checked) diagonal: one read of the matrix. The
/// minimum does not depend on the order it is taken in — NaN ratios (a
/// NaN entry, or `0 / 0`) lose every comparison, as they do under
/// `f64::min` — so SOA planes are walked as slices in four lanes.
fn g_max_given<S: Storage>(a: &SgDia<S>, diag: &[f64], fp16_max: f64) -> f64 {
    const LANES: usize = 4;
    let root: Vec<f64> = diag.iter().map(|d| d.sqrt()).collect();
    let soa = a.layout() == Layout::Soa;
    let mut min = [f64::INFINITY; LANES];
    // A zero entry's ratio is +∞ or NaN: no branch needed to skip it.
    let fold = |min: &mut f64, v: S, row: f64, col: f64| {
        let ratio = (row * col) / v.load_f64().abs();
        *min = if ratio < *min { ratio } else { *min };
    };
    for_each_in_grid_run(a.grid(), a.pattern().taps(), &root, |t, rows, cols, cells, nb| {
        if !soa {
            for (cell, nb) in cells.zip(nb) {
                fold(&mut min[0], a.get(cell, t), rows[cell], cols[nb]);
            }
            return;
        }
        let (values, rows, cols) = (&a.tap_slice(t)[cells.clone()], &rows[cells], &cols[nb]);
        let whole = values.len() - values.len() % LANES;
        for at in (0..whole).step_by(LANES) {
            let (v, r, c) = (&values[at..][..LANES], &rows[at..][..LANES], &cols[at..][..LANES]);
            for l in 0..LANES {
                fold(&mut min[l], v[l], r[l], c[l]);
            }
        }
        for at in whole..values.len() {
            fold(&mut min[0], values[at], rows[at], cols[at]);
        }
    });
    fp16_max * min.into_iter().fold(f64::INFINITY, f64::min)
}

/// The symmetric scaling of one matrix, decided and not yet applied: `G`
/// and the `1/√q` vector in `f64`. [`scale_symmetric`] applies it to a
/// matrix in place; the fused store pass
/// ([`crate::audit::store_level`]) applies it entry by entry on the way to
/// the storage format, so no scaled copy of the level ever exists.
#[derive(Clone, Debug)]
pub struct ScalePlan {
    /// The chosen scaling constant `G`.
    pub g: f64,
    /// See [`ScaleVectors::g_clamped_from`].
    pub g_clamped_from: Option<f64>,
    s_inv: Vec<f64>,
}

impl ScalePlan {
    /// Decides the scaling of `a` for a storage range of `fp16_max`: one
    /// read of the matrix (`G_max`).
    ///
    /// # Errors
    /// As [`g_max`]: non-positive diagonals.
    ///
    /// # Panics
    /// Panics if the resolved `G` is non-positive.
    pub fn decide(a: &SgDia<f64>, choice: GChoice, fp16_max: f64) -> Result<Self, ScalingError> {
        Self::with_diagonal(a, a.extract_diagonal(), choice, fp16_max)
    }

    /// [`ScalePlan::decide`] given `a`'s diagonal as
    /// [`SgDia::extract_diagonal`] reads it, for a caller that has read it
    /// already.
    ///
    /// # Errors
    /// As [`ScalePlan::decide`].
    ///
    /// # Panics
    /// As [`ScalePlan::decide`], and if `diag` is not one value per unknown.
    pub fn with_diagonal(
        a: &SgDia<f64>,
        diag: Vec<f64>,
        choice: GChoice,
        fp16_max: f64,
    ) -> Result<Self, ScalingError> {
        assert_eq!(diag.len(), a.rows(), "one diagonal entry per unknown");
        let diag = positive(diag)?;
        let gmax = g_max_given(a, &diag, fp16_max);
        let (g, g_clamped_from) = match choice {
            GChoice::Auto => ((gmax / 2.0).min(1.0), None),
            GChoice::Fixed(v) if v > gmax / 2.0 => (gmax / 2.0, Some(v)),
            GChoice::Fixed(v) => (v, None),
        };
        assert!(g > 0.0, "non-positive scaling constant G = {g}");
        // 1/√(q_u) = √(G / a_uu)
        let s_inv = diag.iter().map(|&d| (g / d).sqrt()).collect();
        Ok(ScalePlan { g, g_clamped_from, s_inv })
    }

    /// `1/√q` per unknown, in `f64` — what scales the matrix entries.
    pub fn s_inv(&self) -> &[f64] {
        &self.s_inv
    }

    /// The rescale vectors in the computation precision `P`.
    pub fn vectors<P: Scalar>(&self) -> ScaleVectors<P> {
        ScaleVectors {
            g: self.g,
            g_clamped_from: self.g_clamped_from,
            s: self.s_inv.iter().map(|&si| P::from_f64(1.0 / si)).collect(),
            s_inv: self.s_inv.iter().map(|&si| P::from_f64(si)).collect(),
        }
    }

    /// Applies `Ã = Q^{-1/2} A Q^{-1/2}` in place ([`congruence`] by
    /// `1/√q`).
    pub fn apply(&self, a: &mut SgDia<f64>) {
        congruence(a, &self.s_inv);
    }
}

/// `A ← W A W` in place for the diagonal `W = diag(w)`, one value per
/// unknown: SOA planes as x-row slices, AOS entry by entry. Entries whose
/// neighbour is outside the grid pass through as stored.
///
/// # Panics
/// Panics if `w` does not hold one value per unknown of `a`.
pub fn congruence(a: &mut SgDia<f64>, w: &[f64]) {
    assert_eq!(w.len(), a.rows(), "congruence vector length");
    let (grid, soa) = (*a.grid(), a.layout() == Layout::Soa);
    let taps: Vec<Tap> = a.pattern().taps().to_vec();
    for_each_in_grid_run(&grid, &taps, w, |t, rows, cols, cells, nb| {
        if soa {
            scale_run(&mut a.tap_slice_mut(t)[cells.clone()], &rows[cells], &cols[nb]);
        } else {
            for (cell, nb) in cells.zip(nb) {
                a.set(cell, t, a.get(cell, t) * rows[cell] * cols[nb]);
            }
        }
    });
}

/// `v ← v · s_row · s_col`, in that order, over one run of entries.
#[inline]
fn scale_run(values: &mut [f64], rows: &[f64], cols: &[f64]) {
    for ((v, &r), &c) in values.iter_mut().zip(rows).zip(cols) {
        *v = *v * r * c;
    }
}

/// What [`ScalePlan::apply`] would leave in cells `at..at + out.len()` of
/// plane `tap` of the SOA matrix `a`, written to `out`: entries whose
/// neighbour is outside the grid pass through as stored.
pub(crate) fn scaled_plane_block(
    a: &SgDia<f64>,
    s_inv: &[f64],
    tap: usize,
    at: usize,
    out: &mut [f64],
) {
    let (grid, offset) = (a.grid(), a.pattern().taps()[tap]);
    let rows = &s_inv[grid.field(offset.cout as usize)];
    let cols = &s_inv[grid.field(offset.cin as usize)];
    let stride = grid.stride(offset.dx, offset.dy, offset.dz);
    out.copy_from_slice(&a.tap_slice(tap)[at..at + out.len()]);
    for run in grid.neighbour_runs(at..at + out.len(), offset.dx, offset.dy, offset.dz) {
        let nb = (run.start as i64 + stride) as usize;
        scale_run(&mut out[run.start - at..run.end - at], &rows[run.clone()], &cols[nb..]);
    }
}

/// What [`ScalePlan::apply`] would leave at `(cell, tap)` of `a` — the
/// per-entry form: the AOS fallback of the fused store pass, and the
/// oracle the streamed forms are tested against.
pub(crate) fn scaled_entry(a: &SgDia<f64>, s_inv: &[f64], cell: usize, tap: usize) -> f64 {
    let (grid, offset) = (a.grid(), a.pattern().taps()[tap]);
    let (i, j, k) = grid.coords(cell);
    let v = a.get(cell, tap);
    if !grid.contains_offset(i, j, k, offset.dx, offset.dy, offset.dz) {
        return v;
    }
    let nb = (cell as i64 + grid.stride(offset.dx, offset.dy, offset.dz)) as usize;
    v * s_inv[grid.unknown_of(cell, offset.cout as usize)]
        * s_inv[grid.unknown_of(nb, offset.cin as usize)]
}

/// Applies `Ã = Q^{-1/2} A Q^{-1/2}` in place (in `f64`: scaling happens
/// after the high-precision setup and before truncation), returning the
/// rescale vectors in the computation precision `P` — two reads of the
/// matrix: `G_max` ([`ScalePlan::decide`]), then the scaling
/// ([`ScalePlan::apply`]).
///
/// # Errors
/// As [`g_max`]: non-positive diagonals.
///
/// ```
/// use fp16mg_grid::Grid3;
/// use fp16mg_sgdia::{scaling, Layout, SgDia};
/// use fp16mg_sgdia::scaling::GChoice;
/// use fp16mg_stencil::Pattern;
/// use fp16mg_fp::F16;
///
/// // Coefficients ~1e8: direct FP16 truncation would overflow.
/// let pattern = Pattern::p7();
/// let taps: Vec<_> = pattern.taps().to_vec();
/// let mut a = SgDia::<f64>::from_fn(Grid3::cube(4), pattern, Layout::Soa,
///     |_, _, _, _, t| if taps[t].is_diagonal() { 6.0e8 } else { -1.0e8 });
/// assert!(!a.convert::<F16>().all_finite());
/// let sv = scaling::scale_symmetric::<f32>(&mut a, GChoice::Auto, F16::MAX_F64).unwrap();
/// assert!(a.convert::<F16>().all_finite()); // Theorem 4.1
/// assert!(sv.g > 0.0);
/// ```
///
/// # Panics
/// Panics if the resolved `G` is non-positive.
pub fn scale_symmetric<P: Scalar>(
    a: &mut SgDia<f64>,
    choice: GChoice,
    fp16_max: f64,
) -> Result<ScaleVectors<P>, ScalingError> {
    let plan = ScalePlan::decide(a, choice, fp16_max)?;
    plan.apply(a);
    Ok(plan.vectors())
}

/// `dst[u] = src[u] * s[u]`.
#[inline]
pub fn rescale_into<P: Scalar>(src: &[P], s: &[P], dst: &mut [P]) {
    assert_eq!(src.len(), s.len(), "rescale length mismatch");
    assert_eq!(dst.len(), s.len(), "rescale length mismatch");
    for ((d, &x), &f) in dst.iter_mut().zip(src).zip(s) {
        *d = x * f;
    }
}
