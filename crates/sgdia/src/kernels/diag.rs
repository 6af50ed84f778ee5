//! Inverted (block-)diagonal, the smoother's per-cell solve data.
//!
//! For scalar PDEs this is just `1 / a_ii`. For vector PDEs the zero-offset
//! `r × r` block is inverted per cell (block Jacobi / block Gauss–Seidel
//! convention, matching how SysPFMG-style system multigrids smooth).
//! Inverses are computed in `f64` during setup and truncated to the
//! computation precision `P` — per guideline 4 they are vector-like data
//! and never stored in FP16.

use fp16mg_fp::{Scalar, Storage};

use super::MAX_COMPONENTS;
use crate::{Layout, SgDia};

/// Per-cell inverse of the diagonal block, stored row-major `r × r` per
/// cell (a single value per cell when `r == 1`).
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
        let grid = a.grid();
        let r = grid.components;
        assert!(r <= MAX_COMPONENTS, "too many components per cell");
        let cells = grid.cells();
        let pattern = a.pattern();
        // Map (cout, cin) -> tap index for the zero-offset block.
        let mut block_taps = vec![None; r * r];
        for (t, tap) in pattern.taps().iter().enumerate() {
            if tap.is_center() {
                block_taps[tap.cout as usize * r + tap.cin as usize] = Some(t);
            }
        }
        let mut data = vec![P::ZERO; cells * r * r];
        if let ([Some(t)], Layout::Soa) = (&block_taps[..], a.layout()) {
            // Scalar PDE: the reciprocal of one contiguous plane — what
            // `invert_small` computes for a 1 × 1 block.
            for (cell, (d, v)) in data.iter_mut().zip(a.tap_slice(*t)).enumerate() {
                let p = v.load_f64();
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
            for (slot, bt) in block_taps.iter().enumerate() {
                block[slot] = match bt {
                    Some(t) => a.get(cell, *t).load_f64(),
                    None => 0.0,
                };
            }
            let inv = invert_small(&mut block[..r * r], r).ok_or(cell)?;
            for (slot, v) in inv.iter().enumerate().take(r * r) {
                data[cell * r * r + slot] = P::from_f64(*v);
            }
        }
        Ok(BlockDiagInv { r, cells, data })
    }

    /// Builds from explicit `f64` inverse blocks (row-major per cell).
    ///
    /// # Panics
    /// Panics on length mismatch.
    pub fn from_inverse_blocks(r: usize, cells: usize, blocks: &[f64]) -> Self {
        assert_eq!(blocks.len(), cells * r * r, "block data length");
        BlockDiagInv { r, cells, data: blocks.iter().map(|&v| P::from_f64(v)).collect() }
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

    /// Applies the inverse of cell's diagonal block: `out = D⁻¹ rhs`.
    #[inline(always)]
    pub fn solve(&self, cell: usize, rhs: &[P], out: &mut [P]) {
        let r = self.r;
        let blk = &self.data[cell * r * r..(cell + 1) * r * r];
        if r == 1 {
            out[0] = blk[0] * rhs[0];
            return;
        }
        for i in 0..r {
            let mut acc = P::ZERO;
            for j in 0..r {
                acc += blk[i * r + j] * rhs[j];
            }
            out[i] = acc;
        }
    }

    /// Scalar view (`r == 1`): the per-cell reciprocal diagonal.
    pub fn as_scalar(&self) -> Option<&[P]> {
        (self.r == 1).then_some(self.data.as_slice())
    }

    /// Raw inverse-block data.
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
