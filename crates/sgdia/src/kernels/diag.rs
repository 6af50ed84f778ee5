//! Inverted (block-)diagonal, the smoother's per-cell solve data.
//!
//! For scalar PDEs this is just `1 / a_ii`. For vector PDEs the zero-offset
//! `r × r` block is inverted per cell (block Jacobi / block Gauss–Seidel
//! convention, matching how SysPFMG-style system multigrids smooth) and
//! stored plane by plane, like the matrix.
//! Inverses are computed in `f64` during setup and truncated to the
//! computation precision `P` — per guideline 4 they are vector-like data
//! and never stored in FP16.

use fp16mg_fp::{Scalar, Storage};
use fp16mg_stencil::Tap;

use super::MAX_COMPONENTS;
use crate::{Layout, SgDia};

/// Per-cell inverse of the diagonal block as `r²` planes of one value per
/// cell, `data[(cout · r + cin) · cells + cell]` — the layout of the matrix
/// planes and of the component-major vectors it multiplies, so applying it
/// is `r²` vectorised plane products (a single reciprocal plane when
/// `r == 1`).
#[derive(Clone, Debug)]
pub struct BlockDiagInv<P: Scalar> {
    r: usize,
    cells: usize,
    data: Vec<P>,
}

impl<P: Scalar> BlockDiagInv<P> {
    /// Extracts and inverts the diagonal blocks of `a` (read in `f64`).
    ///
    /// # Errors
    /// Returns the offending cell index if a diagonal block is singular
    /// or non-finite.
    pub fn from_matrix<S: Storage>(a: &SgDia<S>) -> Result<Self, usize> {
        Self::from_scaled(a, None)
    }

    /// [`from_matrix`](Self::from_matrix) of `a` as symmetric scaling by
    /// `scale` (`1/√q` per unknown) would leave it: block entry
    /// `(cout, cin)` of a cell is read as `a · s_cout · s_cin`, in that
    /// order, from the zero-offset planes — the scaled matrix itself is
    /// not needed.
    ///
    /// # Errors
    /// As [`from_matrix`](Self::from_matrix).
    ///
    /// # Panics
    /// Panics if `scale` is not one factor per unknown of `a`.
    pub fn from_scaled<S: Storage>(a: &SgDia<S>, scale: Option<&[f64]>) -> Result<Self, usize> {
        let grid = a.grid();
        let r = grid.components;
        assert!(r <= MAX_COMPONENTS, "too many components per cell");
        let cells = grid.cells();
        if let Some(scale) = scale {
            assert_eq!(scale.len(), cells * r, "one scale factor per unknown");
        }
        // Entry `(cout, cin)` of `cell`'s block as the (scaled) matrix holds it.
        let scaled = |v: f64, cout: usize, cin: usize, cell: usize| match scale {
            Some(s) => v * s[grid.unknown_of(cell, cout)] * s[grid.unknown_of(cell, cin)],
            None => v,
        };
        // The taps of the zero-offset block, row-major over (cout, cin), and
        // for SOA data the plane behind each.
        let pairs = (0..r as u8).flat_map(|co| (0..r as u8).map(move |ci| (co, ci)));
        let block_taps: Vec<Option<usize>> =
            pairs.map(|(co, ci)| a.pattern().tap_index(Tap::at_comp(0, 0, 0, co, ci))).collect();
        let soa = a.layout() == Layout::Soa;
        let planes: Vec<Option<&[S]>> =
            block_taps.iter().map(|bt| bt.filter(|_| soa).map(|t| a.tap_slice(t))).collect();
        let mut data = vec![P::ZERO; cells * r * r];
        if let [Some(plane)] = planes[..] {
            // Scalar PDE: the reciprocal of one contiguous plane — what
            // `invert_small` computes for a 1 × 1 block.
            for (cell, (d, v)) in data.iter_mut().zip(plane).enumerate() {
                let p = scaled(v.load_f64(), 0, 0, cell);
                let inv = 1.0 / p;
                if p == 0.0 || !p.is_finite() || !inv.is_finite() {
                    return Err(cell);
                }
                *d = P::from_f64(inv);
            }
            return Ok(BlockDiagInv { r, cells, data });
        }
        let mut block = [0.0f64; MAX_COMPONENTS * MAX_COMPONENTS];
        for cell in 0..cells {
            for (slot, (plane, bt)) in planes.iter().zip(&block_taps).enumerate() {
                let stored = match (plane, bt) {
                    (Some(plane), _) => Some(plane[cell]),
                    (None, Some(t)) => Some(a.get(cell, *t)),
                    (None, None) => None,
                };
                block[slot] =
                    stored.map_or(0.0, |v| scaled(v.load_f64(), slot / r, slot % r, cell));
            }
            let inv = invert_small(&mut block[..r * r], r).ok_or(cell)?;
            for (slot, v) in inv.iter().enumerate().take(r * r) {
                data[slot * cells + cell] = P::from_f64(*v);
            }
        }
        Ok(BlockDiagInv { r, cells, data })
    }

    /// Components per cell.
    #[inline]
    pub fn components(&self) -> usize {
        self.r
    }

    /// Number of cells.
    #[inline]
    pub fn cells(&self) -> usize {
        self.cells
    }

    /// `dst = D⁻¹ src` over whole component-major vectors: field `cout` of
    /// `dst` is the sum over `cin` of plane `(cout, cin)` times field
    /// `cin` of `src`, each a contiguous loop.
    ///
    /// # Panics
    /// Panics on length mismatch.
    pub fn apply(&self, src: &[P], dst: &mut [P]) {
        let (r, n) = (self.r, self.cells);
        assert_eq!(src.len(), n * r, "src length");
        assert_eq!(dst.len(), n * r, "dst length");
        for (co, out) in dst.chunks_exact_mut(n).enumerate() {
            for (j, field) in src.chunks_exact(n).enumerate() {
                let plane = &self.data[(co * r + j) * n..][..n];
                if j == 0 {
                    for ((o, &d), &v) in out.iter_mut().zip(plane).zip(field) {
                        *o = d * v;
                    }
                } else {
                    for ((o, &d), &v) in out.iter_mut().zip(plane).zip(field) {
                        *o += d * v;
                    }
                }
            }
        }
    }

    /// Applies the inverse of one cell's diagonal block: `out = D⁻¹ rhs`
    /// (the per-entry sweeps; whole vectors go through
    /// [`apply`](Self::apply)).
    #[inline(always)]
    pub fn solve(&self, cell: usize, rhs: &[P], out: &mut [P]) {
        let r = self.r;
        for (i, o) in out.iter_mut().enumerate().take(r) {
            let mut acc = P::ZERO;
            for (j, &v) in rhs.iter().enumerate().take(r) {
                acc += self.data[(i * r + j) * self.cells + cell] * v;
            }
            *o = acc;
        }
    }

    /// The inverse blocks, plane by plane (see the type).
    pub fn data(&self) -> &[P] {
        &self.data
    }
}

/// Inverts an `r × r` matrix in place via Gauss–Jordan with partial
/// pivoting; returns `None` if singular or non-finite. `r ≤ 8`.
fn invert_small(m: &mut [f64], r: usize) -> Option<[f64; MAX_COMPONENTS * MAX_COMPONENTS]> {
    let mut inv = [0.0f64; MAX_COMPONENTS * MAX_COMPONENTS];
    for i in 0..r {
        inv[i * r + i] = 1.0;
    }
    for col in 0..r {
        // Pivot.
        let mut piv = col;
        for row in col + 1..r {
            if m[row * r + col].abs() > m[piv * r + col].abs() {
                piv = row;
            }
        }
        let p = m[piv * r + col];
        if p == 0.0 || !p.is_finite() {
            return None;
        }
        if piv != col {
            for j in 0..r {
                m.swap(col * r + j, piv * r + j);
                inv.swap(col * r + j, piv * r + j);
            }
        }
        let d = 1.0 / m[col * r + col];
        for j in 0..r {
            m[col * r + j] *= d;
            inv[col * r + j] *= d;
        }
        for row in 0..r {
            if row == col {
                continue;
            }
            let f = m[row * r + col];
            if f == 0.0 {
                continue;
            }
            for j in 0..r {
                m[row * r + j] -= f * m[col * r + j];
                inv[row * r + j] -= f * inv[col * r + j];
            }
        }
    }
    if inv[..r * r].iter().all(|v| v.is_finite()) {
        Some(inv)
    } else {
        None
    }
}
