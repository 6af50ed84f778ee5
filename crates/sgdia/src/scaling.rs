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

use crate::SgDia;

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

/// Calls `f(tap index, tap, cells, neighbour cells)` for every x-row of
/// in-grid entries, tap by tap — storage order for SOA matrices.
fn for_each_in_grid_row(
    grid: &Grid3,
    taps: &[Tap],
    mut f: impl FnMut(usize, Tap, Range<usize>, Range<usize>),
) {
    // The cells along an extent-`n` axis whose neighbour at offset `d` exists.
    let span = |n: usize, d: i32| (-d).max(0) as usize..n.saturating_sub(d.max(0) as usize);
    for (t, &tap) in taps.iter().enumerate() {
        let xs = span(grid.nx, tap.dx);
        if xs.is_empty() {
            continue;
        }
        for k in span(grid.nz, tap.dz) {
            for j in span(grid.ny, tap.dy) {
                let first = grid.cell(xs.start, j, k);
                let nb = (first as i64 + grid.stride(tap.dx, tap.dy, tap.dz)) as usize;
                f(t, tap, first..first + xs.len(), nb..nb + xs.len());
            }
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
    let grid = a.grid();
    let diag = a.extract_diagonal();
    for (u, &d) in diag.iter().enumerate() {
        if !d.is_finite() {
            return Err(ScalingError::NonFiniteDiagonal { unknown: u, value: d });
        }
        if d <= 0.0 {
            return Err(ScalingError::NonPositiveDiagonal { unknown: u, value: d });
        }
    }
    let root: Vec<f64> = diag.iter().map(|d| d.sqrt()).collect();
    let mut min_ratio = f64::INFINITY;
    for_each_in_grid_row(grid, a.pattern().taps(), |t, tap, cells, nb| {
        let (rows, cols) =
            (&root[grid.field(tap.cout as usize)], &root[grid.field(tap.cin as usize)]);
        for (cell, nb) in cells.zip(nb) {
            let v = a.get(cell, t).load_f64();
            if v != 0.0 {
                min_ratio = min_ratio.min((rows[cell] * cols[nb]) / v.abs());
            }
        }
    });
    Ok(fp16_max * min_ratio)
}

/// Applies `Ã = Q^{-1/2} A Q^{-1/2}` in place (in `f64`: scaling happens
/// after the high-precision setup and before truncation), returning the
/// rescale vectors in the computation precision `P`.
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
    let gmax = g_max(a, fp16_max)?;
    let (g, g_clamped_from) = match choice {
        GChoice::Auto => ((gmax / 2.0).min(1.0), None),
        GChoice::Fixed(v) if v > gmax / 2.0 => (gmax / 2.0, Some(v)),
        GChoice::Fixed(v) => (v, None),
    };
    assert!(g > 0.0, "non-positive scaling constant G = {g}");
    let diag = a.extract_diagonal();
    let grid = *a.grid();
    // sinv_f64[u] = 1/√(q_u) = √(G / a_uu)
    let sinv: Vec<f64> = diag.iter().map(|&d| (g / d).sqrt()).collect();
    let taps: Vec<_> = a.pattern().taps().to_vec();
    for_each_in_grid_row(&grid, &taps, |t, tap, cells, nb| {
        let (rows, cols) =
            (&sinv[grid.field(tap.cout as usize)], &sinv[grid.field(tap.cin as usize)]);
        for (cell, nb) in cells.zip(nb) {
            let v = a.get(cell, t) * rows[cell] * cols[nb];
            a.set(cell, t, v);
        }
    });
    Ok(ScaleVectors {
        g,
        g_clamped_from,
        s: sinv.iter().map(|&si| P::from_f64(1.0 / si)).collect(),
        s_inv: sinv.iter().map(|&si| P::from_f64(si)).collect(),
    })
}

/// `dst[u] *= s[u]` — the pointwise rescale pass of recover-and-rescale.
#[inline]
pub fn rescale_in_place<P: Scalar>(dst: &mut [P], s: &[P]) {
    assert_eq!(dst.len(), s.len(), "rescale length mismatch");
    for (d, &f) in dst.iter_mut().zip(s) {
        *d *= f;
    }
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
