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
        let r = a.grid().components;
        let cells = a.grid().cells();
        if let Some(scale) = scale {
            assert_eq!(scale.len(), cells * r, "one scale factor per unknown");
        }
        let mut data = vec![P::ZERO; cells * r * r];
        let diagonal = a.pattern().tap_index(Tap::at_comp(0, 0, 0, 0, 0));
        match r {
            // Scalar PDE: the reciprocals of one contiguous plane (the
            // chunked gather cost laplace27 72³'s 1.7× as much).
            1 => match diagonal.filter(|_| a.layout() == Layout::Soa) {
                Some(t) => reciprocals(a.tap_slice(t), scale, &mut data),
                None => invert_blocks::<1, S, P>(a, scale, &mut data),
            },
            2 => invert_blocks::<2, S, P>(a, scale, &mut data),
            3 => invert_blocks::<3, S, P>(a, scale, &mut data),
            4 => invert_blocks::<4, S, P>(a, scale, &mut data),
            5 => invert_blocks::<5, S, P>(a, scale, &mut data),
            6 => invert_blocks::<6, S, P>(a, scale, &mut data),
            7 => invert_blocks::<7, S, P>(a, scale, &mut data),
            8 => invert_blocks::<8, S, P>(a, scale, &mut data),
            _ => panic!("too many components per cell (at most {MAX_COMPONENTS})"),
        }?;
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

    /// Applies the inverse of one cell's diagonal block: `out = D⁻¹ rhs`
    /// (the per-entry sweeps).
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

/// What [`invert`] computes for the 1 × 1 blocks of `plane` (scaled by
/// `scale`), into `data`.
fn reciprocals<S: Storage, P: Scalar>(
    plane: &[S],
    scale: Option<&[f64]>,
    data: &mut [P],
) -> Result<(), usize> {
    for (cell, (d, v)) in data.iter_mut().zip(plane).enumerate() {
        let p = scale.map_or(v.load_f64(), |s| v.load_f64() * s[cell] * s[cell]);
        let inv = 1.0 / p;
        if p == 0.0 || !p.is_finite() || !inv.is_finite() {
            return Err(cell);
        }
        *d = P::from_f64(inv);
    }
    Ok(())
}

/// Cells whose blocks are gathered at a time.
const CHUNK: usize = 64;

/// The inverse of every `R × R` diagonal block of `a` (scaled by `scale`)
/// into `data`, plane by plane: block entry `(cout, cin)` of a chunk of
/// cells gathered as a slice — a zero-offset plane's run of cells (AOS:
/// entry by entry), times `s_cout`, times `s_cin` — then each block
/// inverted by [`invert`]. `Err` names the first cell whose block is
/// singular or non-finite.
fn invert_blocks<const R: usize, S: Storage, P: Scalar>(
    a: &SgDia<S>,
    scale: Option<&[f64]>,
    data: &mut [P],
) -> Result<(), usize> {
    let grid = a.grid();
    let cells = grid.cells();
    let soa = a.layout() == Layout::Soa;
    let taps: [[Option<usize>; R]; R] = core::array::from_fn(|co| {
        core::array::from_fn(|ci| a.pattern().tap_index(Tap::at_comp(0, 0, 0, co as u8, ci as u8)))
    });
    let mut gathered = [[[0.0f64; CHUNK]; R]; R];
    for start in (0..cells).step_by(CHUNK) {
        let run = start..cells.min(start + CHUNK);
        for (co, row) in gathered.iter_mut().enumerate() {
            for (ci, out) in row.iter_mut().enumerate() {
                let out = &mut out[..run.len()];
                let Some(t) = taps[co][ci] else {
                    out.fill(0.0);
                    continue;
                };
                if soa {
                    for (o, v) in out.iter_mut().zip(&a.tap_slice(t)[run.clone()]) {
                        *o = v.load_f64();
                    }
                } else {
                    for (o, cell) in out.iter_mut().zip(run.clone()) {
                        *o = a.get(cell, t).load_f64();
                    }
                }
                if let Some(s) = scale {
                    let (rows, cols) =
                        (&s[grid.field(co)][run.clone()], &s[grid.field(ci)][run.clone()]);
                    for ((o, &sr), &sc) in out.iter_mut().zip(rows).zip(cols) {
                        *o = *o * sr * sc;
                    }
                }
            }
        }
        for (i, cell) in run.enumerate() {
            let block = core::array::from_fn(|co| core::array::from_fn(|ci| gathered[co][ci][i]));
            let inv = invert::<R>(block).ok_or(cell)?;
            for (slot, &v) in inv.iter().flatten().enumerate() {
                data[slot * cells + cell] = P::from_f64(v);
            }
        }
    }
    Ok(())
}

/// Inverts an `R × R` matrix via Gauss–Jordan with partial pivoting;
/// `None` if singular or non-finite.
#[inline(always)]
fn invert<const R: usize>(mut m: [[f64; R]; R]) -> Option<[[f64; R]; R]> {
    let mut inv = [[0.0f64; R]; R];
    for (i, row) in inv.iter_mut().enumerate() {
        row[i] = 1.0;
    }
    for col in 0..R {
        // Pivot.
        let mut piv = col;
        for row in col + 1..R {
            piv = if m[row][col].abs() > m[piv][col].abs() { row } else { piv };
        }
        let p = m[piv][col];
        if p == 0.0 || !p.is_finite() {
            return None;
        }
        m.swap(col, piv);
        inv.swap(col, piv);
        let d = 1.0 / m[col][col];
        for j in 0..R {
            m[col][j] *= d;
            inv[col][j] *= d;
        }
        for row in (0..R).filter(|&row| row != col) {
            // A zero factor leaves the row as it is (`x − 0·y` could flip
            // a zero's sign or make a NaN of an infinity): a select, not a
            // branch, so the blocks' pattern of zeros costs no mispredicts.
            let f = m[row][col];
            let skip = f == 0.0;
            for j in 0..R {
                let (mj, ij) = (m[row][j] - f * m[col][j], inv[row][j] - f * inv[col][j]);
                m[row][j] = if skip { m[row][j] } else { mj };
                inv[row][j] = if skip { inv[row][j] } else { ij };
            }
        }
    }
    inv.iter().flatten().all(|v| v.is_finite()).then_some(inv)
}
