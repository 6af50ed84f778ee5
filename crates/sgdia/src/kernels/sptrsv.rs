//! Sparse triangular solves on triangular SG-DIA matrices.
//!
//! The matrix must carry a triangular pattern *including* the diagonal
//! block — e.g. the paper's 3d4/3d10/3d14 lower patterns
//! ([`fp16mg_stencil::Pattern::lower_with_diag`]) for the forward solve,
//! or their transposes for the backward solve.
//!
//! Implementations mirror Fig. 7:
//! * the **line** solve on scalar SOA data ([`super::line`]): off-line
//!   couplings accumulated in registers a SIMD vector at a time (one
//!   F16C convert per vector for FP16 — the optimized kernel; a plain
//!   load keeps the FP32 baseline on the same code quality), then the
//!   first-order recurrence along the line;
//! * the **naive** AOS FP16 solve with one scalar hardware convert per
//!   entry (the variant whose conversion overhead degrades throughput);
//! * the **generic** per-entry solve for vector PDEs and odd layouts.
//!
//! There is no parallel solve here: a parallel sweep would schedule the
//! line kernel's x-lines along the `i+j+k` hyperplanes of §5.1 rather than
//! walk cells one `get` at a time.

use fp16mg_fp::{Scalar, Storage, F16};

use super::line::{Diag, LineSweep};
use super::{cast_slice, cast_slice_mut, with_tap_metas, with_taps2, TapMeta, MAX_COMPONENTS};
use crate::{Layout, SgDia};

/// Solves `L x = b` with `L` lower triangular (taps with row-major sign
/// ≤ 0). Cells are visited in increasing order.
///
/// # Panics
/// Panics on dimension mismatch, an upper tap in the pattern, or a
/// singular diagonal.
pub fn sptrsv_forward<S: Storage, P: Scalar>(l: &SgDia<S>, b: &[P], x: &mut [P]) {
    assert!(
        l.pattern().taps().iter().all(|t| t.spatial_sign() <= 0),
        "sptrsv_forward requires a lower-triangular pattern"
    );
    solve(l, b, x, false, true);
}

/// Solves `U x = b` with `U` upper triangular (taps with row-major sign
/// ≥ 0). Cells are visited in decreasing order.
///
/// # Panics
/// Panics on dimension mismatch, a lower tap in the pattern, or a
/// singular diagonal.
pub fn sptrsv_backward<S: Storage, P: Scalar>(u: &SgDia<S>, b: &[P], x: &mut [P]) {
    assert!(
        u.pattern().taps().iter().all(|t| t.spatial_sign() >= 0),
        "sptrsv_backward requires an upper-triangular pattern"
    );
    solve(u, b, x, true, true);
}

/// One solve in either direction, without the triangularity check.
/// `simd` is true everywhere but in the differential tests (see
/// [`LineSweep::run_with`]).
pub(crate) fn solve<S: Storage, P: Scalar>(
    a: &SgDia<S>,
    b: &[P],
    x: &mut [P],
    backward: bool,
    simd: bool,
) {
    let grid = a.grid();
    let cells = grid.cells();
    let r = grid.components;
    assert!(r <= MAX_COMPONENTS, "too many components per cell");
    assert_eq!(b.len(), cells * r, "b length");
    assert_eq!(x.len(), cells * r, "x length");
    with_tap_metas(grid, a.pattern(), |metas| {
        if r == 1 {
            if a.layout() == Layout::Soa && solve_lines(a, metas, b, x, backward, simd) {
                return;
            }
            // Naive AOS FP16: scalar hardware convert per entry.
            #[cfg(target_arch = "x86_64")]
            if a.layout() == Layout::Aos && super::simd_available() {
                if let (Some(d16), Some(b32), Some(x32)) = (
                    cast_slice::<S, F16>(a.data()),
                    cast_slice::<P, f32>(b),
                    cast_slice_mut::<P, f32>(x),
                ) {
                    // SAFETY: CPU support checked by simd_available().
                    unsafe { solve_naive_f16_aos(cells, metas, d16, b32, x32, backward) };
                    return;
                }
            }
        }
        solve_generic(a, metas, b, x, backward);
    });
}

/// Generic per-entry triangular solve; block cells solved with a small
/// dense solve over the component couplings of the diagonal block.
fn solve_generic<S: Storage, P: Scalar>(
    a: &SgDia<S>,
    metas: &[TapMeta],
    b: &[P],
    x: &mut [P],
    backward: bool,
) {
    let grid = a.grid();
    let cells = grid.cells();
    let r = grid.components;
    let mut acc = [P::ZERO; MAX_COMPONENTS];
    let mut diag = [[P::ZERO; MAX_COMPONENTS]; MAX_COMPONENTS];
    for step in 0..cells {
        let cell = if backward { cells - 1 - step } else { step };
        for (c, acc) in acc.iter_mut().enumerate().take(r) {
            *acc = b[grid.unknown_of(cell, c)];
        }
        for row in diag.iter_mut().take(r) {
            row[..r].fill(P::ZERO);
        }
        for (t, m) in metas.iter().enumerate() {
            let av = P::from_f64(a.get(cell, t).load_f64());
            if m.center {
                diag[m.cout][m.cin] = av;
                continue;
            }
            let nb = cell as i64 + m.cell_stride;
            if nb < 0 || nb >= cells as i64 {
                continue;
            }
            acc[m.cout] -= av * x[(cell as i64 + m.x_offset) as usize];
        }
        solve_block(&diag, &mut acc, r);
        for (c, &v) in acc.iter().enumerate().take(r) {
            x[grid.unknown_of(cell, c)] = v;
        }
    }
}

/// Solves the cell's dense `r × r` diagonal block in place by Gaussian
/// elimination without pivoting (diagonally dominant blocks in practice;
/// scalar case is a single divide). Zero pivots are debug-asserted only:
/// release builds produce non-finite output for the solve-level guard.
#[allow(clippy::needless_range_loop)] // index form mirrors the elimination
fn solve_block<P: Scalar>(
    diag: &[[P; MAX_COMPONENTS]; MAX_COMPONENTS],
    rhs: &mut [P; MAX_COMPONENTS],
    r: usize,
) {
    if r == 1 {
        // Zero diagonals are rejected with typed errors at setup
        // (BlockDiagInv); in release the division yields ±∞/NaN,
        // which the hierarchy's finiteness guard detects and recovers
        // from — cheaper and more survivable than a hot-loop panic.
        debug_assert!(diag[0][0] != P::ZERO, "singular diagonal");
        rhs[0] = rhs[0] / diag[0][0];
        return;
    }
    let mut m = *diag;
    for col in 0..r {
        let p = m[col][col];
        debug_assert!(p != P::ZERO, "singular diagonal block");
        for row in col + 1..r {
            let f = m[row][col] / p;
            if f == P::ZERO {
                continue;
            }
            for j in col..r {
                let v = m[col][j];
                m[row][j] -= f * v;
            }
            let v = rhs[col];
            rhs[row] -= f * v;
        }
    }
    for col in (0..r).rev() {
        let mut v = rhs[col];
        for j in col + 1..r {
            v -= m[col][j] * rhs[j];
        }
        rhs[col] = v / m[col][col];
    }
}

/// Scalar SOA solve through the line kernel: off-line couplings (whose
/// sources are fully solved lines) in the vector phase, the diagonal
/// plane reciprocated in the register, the within-line tap in the
/// recurrence. `false` when the pattern has more than one within-line
/// coupling and the caller must take the generic solve.
fn solve_lines<S: Storage, P: Scalar>(
    a: &SgDia<S>,
    metas: &[TapMeta],
    b: &[P],
    x: &mut [P],
    backward: bool,
    simd: bool,
) -> bool {
    with_taps2(|bulk, rec| {
        let mut dtap = None;
        for m in metas {
            if m.diagonal {
                dtap = Some(m.tap);
            } else if m.in_line {
                rec.push(*m);
            } else {
                bulk.push(*m);
            }
        }
        let diag = Diag::Tap(dtap.expect("triangular pattern lacks a diagonal tap"));
        let Some(k) = LineSweep::new(a.grid(), a.data(), bulk, rec, diag, b, backward) else {
            return false;
        };
        k.run_with(x, simd);
        true
    })
}

/// Naive AOS FP16 solve: one scalar `vcvtph2ps` per entry (Fig. 4 left).
///
/// # Safety
/// Caller must guarantee F16C support.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "f16c,fma")]
unsafe fn solve_naive_f16_aos(
    cells: usize,
    metas: &[TapMeta],
    data: &[F16],
    b: &[f32],
    x: &mut [f32],
    backward: bool,
) {
    use core::arch::x86_64::*;
    #[inline(always)]
    unsafe fn cvt1(h: u16) -> f32 {
        _mm_cvtss_f32(_mm_cvtph_ps(_mm_cvtsi32_si128(h as i32)))
    }
    let ntaps = metas.len();
    for step in 0..cells {
        let cell = if backward { cells - 1 - step } else { step };
        let row = &data[cell * ntaps..(cell + 1) * ntaps];
        let mut acc = b[cell];
        let mut diag = 0.0f32;
        for (t, m) in metas.iter().enumerate() {
            let av = cvt1(row[t].to_bits());
            if m.diagonal {
                diag = av;
                continue;
            }
            let nb = cell as i64 + m.cell_stride;
            if nb < 0 || nb >= cells as i64 {
                continue;
            }
            acc = (-av).mul_add(x[nb as usize], acc);
        }
        // Non-finite on zero diagonal; caught by the solve-level guard.
        debug_assert!(diag != 0.0, "singular diagonal at cell {cell}");
        x[cell] = acc / diag;
    }
}
