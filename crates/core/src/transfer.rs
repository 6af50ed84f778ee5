//! Grid-transfer operators: trilinear prolongation and its transpose.
//!
//! Full coarsening keeps the even-coordinate fine cells (`2c ↔ c`). A fine
//! cell with odd coordinates along some axes is interpolated from its
//! `2^(#odd axes)` coarse parents with weight `(1/2)^(#odd axes)`; the
//! weight of a parent falling outside the coarse grid folds into the
//! surviving one (see [`parents`]). Restriction is exactly the transpose,
//! `R = Pᵀ`, which keeps the Galerkin-coarsened V-cycle symmetric — a
//! requirement for use inside CG. Components of vector PDEs transfer
//! independently (unknown-based system multigrid): unknowns are numbered
//! component-major, so a vector is `components` scalar fields and each is
//! transferred by the scalar kernels in turn.
//!
//! Both operators are *gather-form row kernels*: the weights factor per
//! axis, so the `y`/`z` part is a weighted sum of whole contiguous x-rows
//! (plain `w·x + acc` loops the compiler vectorises) and only the `x`
//! part is a stencil — `[½ 1 ½]` with stride 2 for restriction, `even +=
//! c[i]`, `odd += ½(c[i] + c[i+1])` for prolongation. Every weight,
//! including the boundary fold and the identity of a semicoarsened axis,
//! is read from [`parents_axis`], the definition the Galerkin product
//! ([`crate::coarsen`]) uses too; the two x-stencils are the only
//! place its interior values are written out, and only for cells whose
//! neighbours exist (everything else goes through the lookup). Each call
//! streams the fine vector once (restriction reads `n_f`, writes `n_c`;
//! prolongation reads `n_c` and `n_f`, writes `n_f`) and allocates
//! nothing: the combined row lives in a [`TILE`]-element stack buffer and
//! long rows are processed in x-chunks.

use fp16mg_fp::Scalar;
use fp16mg_grid::Grid3;

/// Enumerates the coarse parents of a fine coordinate along one axis:
/// `(coarse index, weight)`, at most two entries.
///
/// When the upper parent of an odd boundary coordinate falls outside the
/// coarse grid, its weight folds into the surviving parent so the row sum
/// stays 1. This preserves constants in the range of `P` — essential for
/// Neumann-dominated operators, whose near-kernel is the constant vector
/// (dropping the weight instead degrades the two-grid rate from ~0.2 to
/// ~0.65 on such problems), and still near-optimal for Dirichlet ones.
#[inline]
fn parents(x: usize, coarse_n: usize) -> ([(usize, f32); 2], usize) {
    if x.is_multiple_of(2) {
        ([(x / 2, 1.0), (0, 0.0)], 1)
    } else {
        let lo = (x - 1) / 2;
        let hi = x.div_ceil(2);
        if hi < coarse_n {
            ([(lo, 0.5), (hi, 0.5)], 2)
        } else {
            ([(lo, 1.0), (0, 0.0)], 1)
        }
    }
}

/// Per-axis parent lookup: identity when the axis was not coarsened
/// (semicoarsening), the two-parent trilinear rule otherwise.
#[inline]
pub(crate) fn parents_axis(x: usize, fine_n: usize, coarse_n: usize) -> ([(usize, f32); 2], usize) {
    if coarse_n == fine_n {
        ([(x, 1.0), (0, 0.0)], 1)
    } else {
        parents(x, coarse_n)
    }
}

/// Transpose of [`parents_axis`]: the fine coordinates that have coarse
/// `c` among their parents, ascending, each with the weight
/// `parents_axis` gives it — at most three entries. Only the candidate
/// range is spelled out here; membership and weight are looked up.
#[inline]
pub(crate) fn children_axis(
    c: usize,
    fine_n: usize,
    coarse_n: usize,
) -> ([(usize, f32); 3], usize) {
    let candidates = if coarse_n == fine_n {
        c..c + 1
    } else {
        (2 * c).saturating_sub(1)..(2 * c + 2).min(fine_n)
    };
    let mut out = [(0, 0.0); 3];
    let mut n = 0;
    for x in candidates {
        let (p, np) = parents_axis(x, fine_n, coarse_n);
        if let Some(&(_, w)) = p[..np].iter().find(|&&(pc, _)| pc == c) {
            out[n] = (x, w);
            n += 1;
        }
    }
    (out, n)
}

/// Checks that `coarse` is a valid (semi)coarsening of `fine` and that
/// component counts agree.
fn assert_coarsening_pair(fine: &Grid3, coarse: &Grid3) {
    assert_eq!(fine.components, coarse.components, "component mismatch");
    for (f, c) in [(fine.nx, coarse.nx), (fine.ny, coarse.ny), (fine.nz, coarse.nz)] {
        assert!(c == f || c == f.div_ceil(2), "not a coarsening pair: {f} -> {c}");
    }
}

/// Elements of the stack buffer holding one combined x-row (or x-chunk
/// of it): 4–8 KiB, so the rows being combined stay in L1 next to it.
const TILE: usize = 1024;

/// Coarse cells per x-chunk such that the chunk's fine cells (`2n + 1`
/// of them under coarsening, `n` on an identity axis) fit in [`TILE`].
fn x_chunk_cells(fine_nx: usize, coarse_nx: usize) -> usize {
    if coarse_nx == fine_nx {
        TILE
    } else {
        (TILE - 1) / 2
    }
}

/// `acc += w·row`. The weights are powers of two, so the product is
/// exact and the plain form rounds exactly like a fused multiply-add.
#[inline(always)]
fn row_axpy<P: Scalar>(w: P, row: &[P], acc: &mut [P]) {
    for (a, &x) in acc.iter_mut().zip(row) {
        *a += w * x;
    }
}

/// Collapses the combined fine cells `t` (cells `lo..`) onto coarse cells
/// `c0..c0 + out.len()` along x.
#[inline(always)]
fn collapse_x<P: Scalar>(
    t: &[P],
    lo: usize,
    out: &mut [P],
    c0: usize,
    (fine_nx, coarse_nx): (usize, usize),
) {
    if coarse_nx == fine_nx {
        out.copy_from_slice(t);
        return;
    }
    // Coarse cells whose three children `2c-1, 2c, 2c+1` are followed by
    // a further fine cell `2c+2`: both odd children then have two
    // in-grid parents, i.e. the weights are the interior [½ 1 ½].
    let a = c0.max(1);
    let half = P::from_f32(0.5);
    let tt = &t[2 * a - 1 - lo..];
    let pairs = tt.chunks_exact(2).zip(tt[2.min(tt.len())..].chunks_exact(2));
    let mut stencilled = 0;
    for (o, (p, q)) in out[a - c0..].iter_mut().zip(pairs) {
        *o = p[1] + half * (p[0] + q[0]);
        stencilled += 1;
    }
    // The rest — coarse cell 0, the last cell of the chunk, the folded
    // upper boundary — takes its children and weights from the lookup.
    let c1 = c0 + out.len();
    for ci in (c0..a).chain(a + stencilled..c1) {
        let (kids, nk) = children_axis(ci, fine_nx, coarse_nx);
        out[ci - c0] = kids[..nk].iter().fold(P::ZERO, |o, &(x, w)| o + P::from_f32(w) * t[x - lo]);
    }
}

/// Adds the combined coarse cells `t` (cells `c0..`) to the fine cells
/// `f0..f0 + uf.len()` along x.
#[inline(always)]
fn expand_x_add<P: Scalar>(
    t: &[P],
    c0: usize,
    uf: &mut [P],
    f0: usize,
    (fine_nx, coarse_nx): (usize, usize),
) {
    if coarse_nx == fine_nx {
        row_axpy(P::ONE, t, uf);
        return;
    }
    // Fine pairs `(2m, 2m+1)` whose upper parent `m+1` is in the chunk
    // (hence in the grid): the interior rule `even += c[m]`,
    // `odd += ½(c[m] + c[m+1])`.
    let half = P::from_f32(0.5);
    let mut paired = 0;
    for (f, ab) in uf.chunks_exact_mut(2).zip(t.windows(2)) {
        f[0] += ab[0];
        f[1] += half * (ab[0] + ab[1]);
        paired += 1;
    }
    // The tail of the chunk — including a folded odd boundary cell —
    // takes its parents and weights from the lookup.
    for (n, f) in uf.iter_mut().enumerate().skip(2 * paired) {
        let (ps, np) = parents_axis(f0 + n, fine_nx, coarse_nx);
        for &(ci, w) in &ps[..np] {
            *f += P::from_f32(w) * t[ci - c0];
        }
    }
}

/// `uf += P uc`: interpolates the coarse correction onto the fine grid and
/// accumulates (Algorithm 3 line 20).
///
/// # Panics
/// Panics on dimension mismatch or when `coarse` is not a
/// (semi)coarsening of `fine`.
pub fn prolong_add<P: Scalar>(fine: &Grid3, coarse: &Grid3, uc: &[P], uf: &mut [P]) {
    assert_coarsening_pair(fine, coarse);
    assert_eq!(uc.len(), coarse.unknowns(), "uc length");
    assert_eq!(uf.len(), fine.unknowns(), "uf length");
    for (uc, uf) in uc.chunks_exact(coarse.cells()).zip(uf.chunks_exact_mut(fine.cells())) {
        prolong_add_field(fine, coarse, uc, uf);
    }
}

/// [`prolong_add`] for one scalar field.
fn prolong_add_field<P: Scalar>(fine: &Grid3, coarse: &Grid3, uc: &[P], uf: &mut [P]) {
    let nx = (fine.nx, coarse.nx);
    let step = x_chunk_cells(fine.nx, coarse.nx);
    let fine_per_coarse = if coarse.nx == fine.nx { 1 } else { 2 };
    let mut tile = [P::ZERO; TILE];
    for k in 0..fine.nz {
        let (pk, nk) = parents_axis(k, fine.nz, coarse.nz);
        for j in 0..fine.ny {
            let (pj, nj) = parents_axis(j, fine.ny, coarse.ny);
            let fine_row = &mut uf[fine.cell(0, j, k)..][..fine.nx];
            for c0 in (0..coarse.nx).step_by(step) {
                // Coarse cells c0..c1 own fine cells f0..f1; the odd one
                // at the top also reads coarse cell c1 when it exists.
                let c1 = (c0 + step).min(coarse.nx);
                let (f0, f1) = (c0 * fine_per_coarse, (c1 * fine_per_coarse).min(fine.nx));
                let halo = (c1 + fine_per_coarse - 1).min(coarse.nx);
                let t = &mut tile[..halo - c0];
                t.fill(P::ZERO);
                for &(ck, wk) in &pk[..nk] {
                    for &(cj, wj) in &pj[..nj] {
                        let row = &uc[coarse.cell(c0, cj, ck)..][..t.len()];
                        row_axpy(P::from_f32(wj * wk), row, t);
                    }
                }
                expand_x_add(t, c0, &mut fine_row[f0..f1], f0, nx);
            }
        }
    }
}

/// `fc = Pᵀ rf`: restricts the fine residual to the coarse grid
/// (Algorithm 3 line 12). Overwrites `fc`.
///
/// # Panics
/// Panics on dimension mismatch or when `coarse` is not a
/// (semi)coarsening of `fine`.
pub fn restrict<P: Scalar>(fine: &Grid3, coarse: &Grid3, rf: &[P], fc: &mut [P]) {
    assert_coarsening_pair(fine, coarse);
    assert_eq!(rf.len(), fine.unknowns(), "rf length");
    assert_eq!(fc.len(), coarse.unknowns(), "fc length");
    for (rf, fc) in rf.chunks_exact(fine.cells()).zip(fc.chunks_exact_mut(coarse.cells())) {
        restrict_field(fine, coarse, rf, fc);
    }
}

/// [`restrict`] for one scalar field.
fn restrict_field<P: Scalar>(fine: &Grid3, coarse: &Grid3, rf: &[P], fc: &mut [P]) {
    let nx = (fine.nx, coarse.nx);
    let step = x_chunk_cells(fine.nx, coarse.nx);
    let mut tile = [P::ZERO; TILE];
    for ck in 0..coarse.nz {
        let (kids_k, nk) = children_axis(ck, fine.nz, coarse.nz);
        for cj in 0..coarse.ny {
            let (kids_j, nj) = children_axis(cj, fine.ny, coarse.ny);
            let coarse_row = &mut fc[coarse.cell(0, cj, ck)..][..coarse.nx];
            for c0 in (0..coarse.nx).step_by(step) {
                // Coarse cells c0..c1 gather from fine cells lo..hi.
                let c1 = (c0 + step).min(coarse.nx);
                let lo = children_axis(c0, fine.nx, coarse.nx).0[0].0;
                let (last, nlast) = children_axis(c1 - 1, fine.nx, coarse.nx);
                let hi = last[nlast - 1].0 + 1;
                let t = &mut tile[..hi - lo];
                t.fill(P::ZERO);
                for &(k, wk) in &kids_k[..nk] {
                    for &(j, wj) in &kids_j[..nj] {
                        let row = &rf[fine.cell(lo, j, k)..][..t.len()];
                        row_axpy(P::from_f32(wj * wk), row, t);
                    }
                }
                collapse_x(t, lo, &mut coarse_row[c0..c1], c0, nx);
            }
        }
    }
}

#[cfg(test)]
mod tests;
