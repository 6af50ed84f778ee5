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
//! can be accumulated for the whole line at once. SOA matrices of any
//! component count hand that split to the register-accumulating line
//! kernel ([`super::line`]); AOS data, and patterns with more than one
//! x-neighbour behind the sweep, are swept entry by entry.
//!
//! A multigrid level starts from a zero iterate, and ahead of a sweep from
//! zero everything is still zero: [`gs_forward_from_zero`] reads only the
//! taps behind the sweep ([`TapSet::Lower`]) and leaves
//! `(L + D) x = b`, so the residual after it is
//! [`super::residual_upper`]'s `−U x`.

use fp16mg_fp::{Scalar, Storage};

use super::line::{Diag, LineSweep};
use super::{with_tap_metas, with_taps2, BlockDiagInv, TapMeta, TapSet, MAX_COMPONENTS};
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
    sweep(a, dinv, b, x, false, false, true);
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
    sweep(a, dinv, b, x, false, true, true);
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
    sweep(a, dinv, b, x, true, false, true);
}

/// One sweep in either direction; `from_zero` treats `x` as zero on entry
/// and reads only the taps behind the sweep. `simd` is true everywhere but
/// in the differential tests (see [`LineSweep::run_with`]).
pub(crate) fn sweep<S: Storage, P: Scalar>(
    a: &SgDia<S>,
    dinv: &BlockDiagInv<P>,
    b: &[P],
    x: &mut [P],
    backward: bool,
    from_zero: bool,
    simd: bool,
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
        let lines = a.layout() == Layout::Soa
            && with_taps2(|bulk, rec| {
                // The center block is applied through its precomputed inverse.
                for m in set.select(metas).filter(|m| !m.center) {
                    if m.in_line && (m.cell_stride > 0) == backward {
                        rec.push(*m);
                    } else {
                        bulk.push(*m);
                    }
                }
                let diag = Diag::Inv(dinv.data());
                let Some(k) = LineSweep::new(grid, a.data(), bulk, rec, diag, b, backward) else {
                    return false;
                };
                let k = if from_zero { k.starting_from_zero() } else { k };
                k.run_with(x, simd);
                true
            });
        if !lines {
            sweep_per_entry(a, metas, set, dinv, b, x, backward);
        }
    });
}

/// Cell-by-cell sweep with one convert per entry: the naive path on AOS
/// data, and the fallback for patterns the line kernel declines. Reads
/// only cells the sweep has already written when `set` is the half behind
/// it, so it too accepts an uninitialised `x` from zero.
fn sweep_per_entry<S: Storage, P: Scalar>(
    a: &SgDia<S>,
    metas: &[TapMeta],
    set: TapSet,
    dinv: &BlockDiagInv<P>,
    b: &[P],
    x: &mut [P],
    backward: bool,
) {
    let grid = a.grid();
    let cells = grid.cells();
    let r = grid.components;
    let mut acc = [P::ZERO; MAX_COMPONENTS];
    let mut xb = [P::ZERO; MAX_COMPONENTS];
    for step in 0..cells {
        let cell = if backward { cells - 1 - step } else { step };
        for (c, acc) in acc.iter_mut().enumerate().take(r) {
            *acc = b[grid.unknown_of(cell, c)];
        }
        for m in set.select(metas) {
            if m.center {
                continue; // the diagonal block is applied via its inverse
            }
            let nb = cell as i64 + m.cell_stride;
            if nb < 0 || nb >= cells as i64 {
                continue;
            }
            let av = P::from_f64(a.get(cell, m.tap).load_f64());
            acc[m.cout] -= av * x[(cell as i64 + m.x_offset) as usize];
        }
        dinv.solve(cell, &acc[..r], &mut xb[..r]);
        for (c, &v) in xb.iter().enumerate().take(r) {
            x[grid.unknown_of(cell, c)] = v;
        }
    }
}
