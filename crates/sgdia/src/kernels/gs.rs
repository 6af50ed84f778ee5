//! Gauss–Seidel sweeps over a full structured matrix.
//!
//! One forward sweep followed by one backward sweep is the SymGS smoother
//! the paper uses on every level (its specialized SpTRSV form is the HPCG
//! hotspot §5 cites: 78% of runtime). Sweeps update the solution in place:
//!
//! `x_i ← D_i⁻¹ (b_i − Σ_{j≠i} a_ij x_j)`
//!
//! with already-visited cells contributing fresh values. Matrix entries
//! are recovered from the storage precision on the fly; the diagonal block
//! inverse comes precomputed in the computation precision (see
//! [`BlockDiagInv`]).
//!
//! Within an x-line only taps pointing *against* the sweep direction read
//! values the line is still producing; every other coupling reads either
//! an earlier line (already updated) or a not-yet-touched value, so it
//! can be accumulated for the whole line at once. Scalar SOA matrices
//! hand that split to the register-accumulating line kernel
//! ([`super::line`]); vector PDEs take the *staged* path, which
//! bulk-widens each x-line of coefficients into scratch first and solves
//! the diagonal block per cell; AOS data is swept cell by cell.
//!
//! A multigrid level starts from a zero iterate, and ahead of a sweep from
//! zero everything is still zero: [`gs_forward_from_zero`] reads only the
//! taps behind the sweep ([`TapSet::Lower`]) and leaves
//! `(L + D) x = b`, so the residual after it is
//! [`super::residual_upper`]'s `−U x`.

use fp16mg_fp::{Scalar, Storage};
use fp16mg_grid::Grid3;

use super::line::{Diag, LineSweep};
use super::{
    widen_line, with_bufs, with_idx2, with_tap_metas, BlockDiagInv, TapMeta, TapSet, Tier,
    MAX_COMPONENTS,
};
use crate::{Layout, SgDia};

/// One forward Gauss–Seidel sweep: cells in increasing row-major order.
///
/// # Panics
/// Panics on dimension mismatch.
pub fn gs_forward<S: Storage, P: Scalar>(
    a: &SgDia<S>,
    dinv: &BlockDiagInv<P>,
    b: &[P],
    x: &mut [P],
) {
    sweep(a, dinv, b, x, false, false, Tier::Simd);
}

/// One forward sweep from a zero initial guess: `(L + D) x = b`, what
/// [`gs_forward`] leaves in a zero-filled `x`. Only the strictly lower
/// taps are read — half the matrix — and `x` need not be initialised:
/// every cell is written and none is read before it is.
///
/// # Panics
/// Panics on dimension mismatch.
pub fn gs_forward_from_zero<S: Storage, P: Scalar>(
    a: &SgDia<S>,
    dinv: &BlockDiagInv<P>,
    b: &[P],
    x: &mut [P],
) {
    sweep(a, dinv, b, x, false, true, Tier::Simd);
}

/// One backward Gauss–Seidel sweep: cells in decreasing row-major order
/// (the `Sᵀ` smoother application of Algorithm 3 line 17).
///
/// # Panics
/// Panics on dimension mismatch.
pub fn gs_backward<S: Storage, P: Scalar>(
    a: &SgDia<S>,
    dinv: &BlockDiagInv<P>,
    b: &[P],
    x: &mut [P],
) {
    sweep(a, dinv, b, x, true, false, Tier::Simd);
}

/// One sweep in either direction; `from_zero` treats `x` as zero on entry
/// and reads only the taps behind the sweep. `tier` is [`Tier::Simd`]
/// everywhere but in the differential tests.
pub(crate) fn sweep<S: Storage, P: Scalar>(
    a: &SgDia<S>,
    dinv: &BlockDiagInv<P>,
    b: &[P],
    x: &mut [P],
    backward: bool,
    from_zero: bool,
    tier: Tier,
) {
    let grid = a.grid();
    let cells = grid.cells();
    let r = grid.components;
    assert!(r <= MAX_COMPONENTS, "too many components per cell");
    assert_eq!(b.len(), cells * r, "b length");
    assert_eq!(x.len(), cells * r, "x length");
    assert_eq!(dinv.components(), r, "dinv components");
    assert_eq!(dinv.cells(), cells, "dinv cells");
    // Ahead of a sweep from zero everything is still zero.
    let set = match (from_zero, backward) {
        (false, _) => TapSet::All,
        (true, false) => TapSet::Lower,
        (true, true) => TapSet::Upper,
    };
    with_tap_metas(grid, a.pattern(), |metas| {
        if a.layout() != Layout::Soa {
            sweep_aos(a, metas, set, dinv, b, x, backward);
            return;
        }
        with_idx2(|bulk, rec| {
            // The center block is applied through its precomputed inverse.
            for (t, m) in set.select(metas).filter(|(_, m)| !m.center) {
                if m.in_line && (m.cell_stride > 0) == backward {
                    rec.push((t, m.cell_stride));
                } else {
                    bulk.push((t, m.cell_stride));
                }
            }
            if let (Some(di), true) = (dinv.as_scalar(), tier != Tier::Staged) {
                let diag = Diag::Inv(di);
                if let Some(k) = LineSweep::new(grid.nx, a.data(), bulk, rec, diag, b, backward) {
                    let k = if from_zero { k.starting_from_zero() } else { k };
                    k.run_with(x, tier == Tier::Simd);
                    return;
                }
            }
            sweep_staged(grid, metas, a.data(), bulk, rec, dinv, b, x, backward, from_zero);
        });
    });
}

/// Per-cell AOS sweep (the naive path: one convert per entry).
fn sweep_aos<S: Storage, P: Scalar>(
    a: &SgDia<S>,
    metas: &[TapMeta],
    set: TapSet,
    dinv: &BlockDiagInv<P>,
    b: &[P],
    x: &mut [P],
    backward: bool,
) {
    let cells = a.grid().cells();
    let r = a.grid().components;
    let mut acc = [P::ZERO; MAX_COMPONENTS];
    let mut xb = [P::ZERO; MAX_COMPONENTS];
    for step in 0..cells {
        let cell = if backward { cells - 1 - step } else { step };
        for c in 0..r {
            acc[c] = b[cell * r + c];
        }
        for (t, m) in set.select(metas) {
            if m.center {
                continue; // the diagonal block is applied via its inverse
            }
            let nb = cell as i64 + m.cell_stride;
            if nb < 0 || nb >= cells as i64 {
                continue;
            }
            let av = P::from_f64(a.get(cell, t).load_f64());
            acc[m.cout] -= av * x[nb as usize * r + m.cin];
        }
        dinv.solve(cell, &acc[..r], &mut xb[..r]);
        x[cell * r..cell * r + r].copy_from_slice(&xb[..r]);
    }
}

/// Staged SOA sweep (any component count): per x-line bulk conversion
/// into scratch, vectorizable accumulation of the `bulk` couplings from
/// the pre-sweep state of the line, then a scalar pass over the `rec`
/// couplings plus the diagonal-block solve per cell. Only the planes of
/// `bulk` and `rec` are widened (the centre block is `dinv`'s);
/// `clear_lines` is the sweep from zero, see [`LineSweep::starting_from_zero`].
#[allow(clippy::too_many_arguments)] // internal dispatch: full kernel context
fn sweep_staged<S: Storage, P: Scalar>(
    grid: &Grid3,
    metas: &[TapMeta],
    data: &[S],
    bulk: &[(usize, i64)],
    rec: &[(usize, i64)],
    dinv: &BlockDiagInv<P>,
    b: &[P],
    x: &mut [P],
    backward: bool,
    clear_lines: bool,
) {
    let cells = grid.cells();
    let nx = grid.nx;
    let r = grid.components;
    let nlines = cells / nx;
    let taps = metas.len();
    with_bufs::<P, _>(|bufs| {
        let (scratch, acc) = bufs.zeroed2(taps * nx, nx * r);
        let mut blk_in = [P::ZERO; MAX_COMPONENTS];
        let mut blk_out = [P::ZERO; MAX_COMPONENTS];
        for lstep in 0..nlines {
            let line = if backward { nlines - 1 - lstep } else { lstep };
            let lbase = line * nx;
            for &(t, _) in bulk.iter().chain(rec) {
                widen_line(
                    &data[t * cells + lbase..t * cells + lbase + nx],
                    &mut scratch[t * nx..(t + 1) * nx],
                );
            }
            if clear_lines {
                x[lbase * r..(lbase + nx) * r].fill(P::ZERO);
            }
            acc[..nx * r].copy_from_slice(&b[lbase * r..(lbase + nx) * r]);
            for &(t, cstride) in bulk {
                let (cout, cin) = (metas[t].cout, metas[t].cin);
                let xoff = lbase as i64 + cstride;
                let lo = (-xoff).clamp(0, nx as i64) as usize;
                let hi = (cells as i64 - xoff).clamp(lo as i64, nx as i64) as usize;
                for i in lo..hi {
                    let xv = x[(xoff + i as i64) as usize * r + cin];
                    acc[i * r + cout] -= scratch[t * nx + i] * xv;
                }
            }
            for istep in 0..nx {
                let i = if backward { nx - 1 - istep } else { istep };
                let cell = lbase + i;
                for c in 0..r {
                    blk_in[c] = acc[i * r + c];
                }
                for &(t, cstride) in rec {
                    let nb = cell as i64 + cstride;
                    if nb >= 0 && nb < cells as i64 {
                        let xv = x[nb as usize * r + metas[t].cin];
                        blk_in[metas[t].cout] -= scratch[t * nx + i] * xv;
                    }
                }
                dinv.solve(cell, &blk_in[..r], &mut blk_out[..r]);
                x[cell * r..(cell + 1) * r].copy_from_slice(&blk_out[..r]);
            }
        }
    });
}
