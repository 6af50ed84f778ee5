//! Sparse matrix–vector product and residual kernels.
//!
//! One driver computes `y = A x`, `r = b − A x` and `r = −U x` over a
//! [`TapSet`] of the pattern. SOA matrices run the vector phase of the
//! x-line kernel ([`super::line`]) once per output field — a vector PDE is
//! `r` scalar fields — in every storage/compute pair; AOS data is the
//! paper's naive per-entry kernel.
//!
//! A matrix that is symmetric *as stored* — every plane above the diagonal
//! bit for bit the shifted plane below it — is multiplied from its lower
//! and centre planes alone ([`spmv_symmetric`]): the same driver over a
//! mirrored tap table ([`mirror_upper`]). The first full product decides
//! whether it is ([`spmv_probing_symmetry`]).

use core::ops::Range;
use core::sync::atomic::{AtomicBool, Ordering};

use fp16mg_fp::{Scalar, Storage, F16};

use super::line::LineSweep;
use super::{
    cast_slice, cast_slice_mut, mirror_upper, with_tap_metas, with_taps2, Par, TapMeta, TapSet,
    MAX_COMPONENTS,
};
use crate::{Layout, SgDia};

/// `y = A x`.
///
/// # Panics
/// Panics on dimension mismatch or more than 8 components.
pub fn spmv<S: Storage, P: Scalar>(a: &SgDia<S>, x: &[P], y: &mut [P], par: Par) {
    apply(a, None, x, y, par, Product { residual: false, set: TapSet::All, coefs: Coefs::Own });
}

/// `r = b - A x` (the residual of Algorithm 3 lines 7/9, unscaled form).
///
/// # Panics
/// Panics on dimension mismatch or more than 8 components.
pub fn residual<S: Storage, P: Scalar>(a: &SgDia<S>, b: &[P], x: &[P], r: &mut [P], par: Par) {
    apply(a, Some(b), x, r, par, Product { residual: true, set: TapSet::All, coefs: Coefs::Own });
}

/// `r = −U x` with `U` the strictly upper taps: the residual `b − A x` of
/// an `x` that satisfies `(L + D) x = b`, which is what one forward
/// Gauss–Seidel sweep from zero ([`super::gs_forward_from_zero`]) leaves.
/// Reads the upper half of the matrix and no right-hand side.
///
/// # Panics
/// Panics on dimension mismatch or more than 8 components.
pub fn residual_upper<S: Storage, P: Scalar>(a: &SgDia<S>, x: &[P], r: &mut [P], par: Par) {
    apply(a, None, x, r, par, Product { residual: true, set: TapSet::Upper, coefs: Coefs::Own });
}

/// A matrix [`spmv_probing_symmetry`] found symmetric as stored, which
/// [`spmv_symmetric`] multiplies by from half its planes. The borrow keeps
/// the matrix as it was judged.
#[derive(Clone, Copy, Debug)]
pub struct SymmetricAsStored<'a, S: Storage>(&'a SgDia<S>);

/// `y = A x` reading every plane, as [`spmv()`] does and to the same bits,
/// and on the way whether `A` is symmetric as stored: SOA, its pattern
/// closed under transpose, every plane above the diagonal
/// ([`mirror_upper`]) bit for bit its transposed tap's plane shifted by
/// the tap's stride, with exact `+0.0` in the head and tail the shift
/// leaves unmatched. The comparison follows the product a few lines at a
/// time, on planes the product has just brought into cache, and stops at
/// the first difference.
///
/// # Panics
/// Panics on dimension mismatch or more than 8 components.
pub fn spmv_probing_symmetry<'a, S: Storage, P: Scalar>(
    a: &'a SgDia<S>,
    x: &[P],
    y: &mut [P],
    par: Par,
) -> Option<SymmetricAsStored<'a, S>> {
    let symmetric = AtomicBool::new(a.layout() == Layout::Soa && a.pattern().is_symmetric());
    let coefs = Coefs::Probing(&symmetric);
    apply(a, None, x, y, par, Product { residual: false, set: TapSet::All, coefs });
    symmetric.into_inner().then_some(SymmetricAsStored(a))
}

/// `y = A x` for a matrix symmetric as stored, to the same bits as
/// [`spmv()`] from the planes on and below the diagonal: each coefficient
/// above it is read from its transposed tap's plane, the products and
/// their order unchanged.
///
/// # Panics
/// Panics on dimension mismatch or more than 8 components.
pub fn spmv_symmetric<S: Storage, P: Scalar>(
    a: SymmetricAsStored<'_, S>,
    x: &[P],
    y: &mut [P],
    par: Par,
) {
    let what = Product { residual: false, set: TapSet::All, coefs: Coefs::Mirrored };
    apply(a.0, None, x, y, par, what);
}

/// Where a product takes its coefficients from.
#[derive(Clone, Copy)]
enum Coefs<'v> {
    /// Every tap from its own plane.
    Own,
    /// From their own planes, clearing the flag unless the planes above
    /// the diagonal mirror those below it.
    Probing(&'v AtomicBool),
    /// The taps above the diagonal from their mirror images below it.
    Mirrored,
}

/// What one run of the driver computes.
#[derive(Clone, Copy)]
struct Product<'v> {
    /// `b − Σ` (`−Σ` without `b`) rather than `Σ`.
    residual: bool,
    /// The taps summed.
    set: TapSet,
    /// Where their coefficients are read.
    coefs: Coefs<'v>,
}

/// x-lines a probing product computes between two comparisons: few enough
/// that the planes above the diagonal are still in the nearest cache when
/// compared, enough to amortise setting the sweep up.
const PROBE_LINES: usize = 16;

fn apply<S: Storage, P: Scalar>(
    a: &SgDia<S>,
    b: Option<&[P]>,
    x: &[P],
    y: &mut [P],
    par: Par,
    what: Product<'_>,
) {
    let cells = a.grid().cells();
    let nx = a.grid().nx;
    let r = a.grid().components;
    assert!(r <= MAX_COMPONENTS, "too many components per cell");
    assert_eq!(x.len(), cells * r, "x length");
    assert_eq!(y.len(), cells * r, "y length");
    if let Some(b) = b {
        assert_eq!(b.len(), cells * r, "b length");
    }
    let nthreads = par.threads();
    let lines = cells / nx;
    let chunk_lines = if nthreads == 1 || cells < crate::par::MIN_CELLS {
        lines
    } else {
        lines.div_ceil(nthreads)
    };

    // Each chunk owns the same `chunk_lines` whole x-lines of every output
    // field, disjoint &mut windows of y; x and b stay shared. The meta
    // table is rented from the calling thread's pool; the team's workers
    // only read it.
    with_tap_metas(a.grid(), a.pattern(), |metas| {
        crate::par::for_each_field_chunk_mut(y, cells, chunk_lines * nx, |p, cout, ychunk| {
            let first_line = p * chunk_lines;
            run_lines(a, b, x, ychunk, metas, cout, first_line, what);
        });
    });
}

/// Executes the whole x-lines `ychunk` covers of output field `cout`,
/// `first_line` onwards, over the taps of `what.set` that write it,
/// dispatching on layout.
#[allow(clippy::too_many_arguments)] // internal dispatch: full kernel context
fn run_lines<S: Storage, P: Scalar>(
    a: &SgDia<S>,
    b: Option<&[P]>,
    x: &[P],
    ychunk: &mut [P],
    metas: &[TapMeta],
    cout: usize,
    first_line: usize,
    what: Product<'_>,
) {
    let Product { residual, set, coefs } = what;
    let grid = a.grid();
    let (nx, cells) = (grid.nx, grid.cells());
    let b = b.map(|b| &b[grid.field(cout)]);
    let base = first_line * nx;
    let range = base..base + ychunk.len();
    with_taps2(|taps, twins| {
        taps.extend(set.select(metas).filter(|m| m.cout == cout));
        if a.layout() == Layout::Soa {
            match coefs {
                Coefs::Own => {}
                Coefs::Mirrored => mirror_upper(grid, a.pattern(), taps),
                Coefs::Probing(symmetric) => {
                    if symmetric.load(Ordering::Relaxed) {
                        twins.extend_from_slice(taps);
                        mirror_upper(grid, a.pattern(), twins);
                        twins.retain(|m| m.coef != m.tap * cells);
                    }
                }
            }
            // A product is accumulated as `0 − Σ` and negated on the way out.
            let sweep = LineSweep::apply(grid, a.data(), taps, b, !residual);
            let mut done = 0;
            if let Coefs::Probing(symmetric) = coefs {
                while done < ychunk.len() && symmetric.load(Ordering::Relaxed) {
                    let block = done..ychunk.len().min(done + PROBE_LINES * nx);
                    sweep.apply_with(x, &mut ychunk[block.clone()], first_line + done / nx, true);
                    if !mirrors(a.data(), cells, twins, base + block.start..base + block.end) {
                        symmetric.store(false, Ordering::Relaxed);
                    }
                    done = block.end;
                }
            }
            sweep.apply_with(x, &mut ychunk[done..], first_line + done / nx, true);
            return;
        }
        // The paper's *naive* mixed-precision kernel: AOS FP16 with one
        // scalar hardware convert per entry (Fig. 4 left). Without this
        // path the soft-float fallback would exaggerate the conversion
        // overhead.
        #[cfg(target_arch = "x86_64")]
        if let (1, true, Some(d16), Some(x32), Some(y32)) = (
            grid.components,
            super::simd_available(),
            cast_slice::<S, F16>(a.data()),
            cast_slice::<P, f32>(x),
            cast_slice_mut::<P, f32>(ychunk),
        ) {
            let b32 = b.and_then(cast_slice::<P, f32>);
            // SAFETY: CPU support checked by simd_available().
            unsafe { naive_f16_aos_range(metas.len(), taps, d16, b32, x32, y32, range, residual) };
            return;
        }
        generic_range(a, taps, b, x, ychunk, range, residual);
    });
}

/// Whether, on the cells `on`, every tap of `twins` — taps above the
/// diagonal, their `coef` already mirrored — stores bit for bit what its
/// mirror image does: the plane equal to the transposed tap's plane `coef`
/// points into, `+0.0` where the shift runs that plane out (the tail), and
/// `+0.0` in the head of the transposed plane that no cell mirrors.
fn mirrors<S: Storage>(data: &[S], cells: usize, twins: &[TapMeta], on: Range<usize>) -> bool {
    let bits = |u: &[S]| u.iter().fold(0, |d, u| d | u.store_bits());
    twins.iter().all(|m| {
        let shift = m.cell_stride as usize;
        let (own, twin) = (&data[m.tap * cells..][..cells], &data[m.coef - shift..][..cells]);
        // The cells of `on` whose mirror image is inside the plane end here.
        let end = on.end.min(cells.saturating_sub(shift)).max(on.start);
        let images = &twin[(on.start + shift).min(cells)..];
        let differ = own[on.start..end].iter().zip(images);
        let differ = differ.fold(0, |d, (u, v)| d | (u.store_bits() ^ v.store_bits()));
        let head = on.start.min(shift)..on.end.min(shift);
        differ | bits(&own[end..on.end]) | bits(&twin[head]) == 0
    })
}

/// Naive AOS FP16 kernel: one `vcvtph2ps` scalar conversion per entry —
/// the "Scalar instruction for AOS" column of the paper's Fig. 4, whose
/// per-entry convert overhead is what the SOA transformation amortizes.
///
/// # Safety
/// Caller must guarantee F16C support; `ychunk` covers the cells of
/// `range`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "f16c,fma")]
#[allow(clippy::too_many_arguments)]
unsafe fn naive_f16_aos_range(
    ntaps: usize,
    taps: &[TapMeta],
    data: &[F16],
    b: Option<&[f32]>,
    x: &[f32],
    ychunk: &mut [f32],
    range: Range<usize>,
    residual: bool,
) {
    use core::arch::x86_64::*;
    #[inline(always)]
    unsafe fn cvt1(h: u16) -> f32 {
        // ldr + fcvt: one scalar hardware conversion.
        _mm_cvtss_f32(_mm_cvtph_ps(_mm_cvtsi32_si128(h as i32)))
    }
    for (y, cell) in ychunk.iter_mut().zip(range) {
        let row = &data[cell * ntaps..(cell + 1) * ntaps];
        let mut acc = 0.0f32;
        for m in taps {
            let nb = cell as i64 + m.cell_stride;
            if nb < 0 || nb >= x.len() as i64 {
                continue;
            }
            let av = cvt1(row[m.tap].to_bits());
            acc = av.mul_add(x[nb as usize], acc);
        }
        // A product is the sum itself, a residual `b − Σ` (no `b` is `b = 0`).
        *y = if residual { b.map_or(-acc, |b| b[cell] - acc) } else { acc };
    }
}

/// Scalar reference kernel for one output field: any layout, any
/// component count, per-entry conversion and bounds checks. On AOS FP16
/// data this is the paper's "naive" mixed-precision kernel.
fn generic_range<S: Storage, P: Scalar>(
    a: &SgDia<S>,
    taps: &[TapMeta],
    b: Option<&[P]>,
    x: &[P],
    ychunk: &mut [P],
    range: Range<usize>,
    residual: bool,
) {
    let cells = a.grid().cells();
    for (y, cell) in ychunk.iter_mut().zip(range) {
        let mut acc = P::ZERO;
        for m in taps {
            let nb = cell as i64 + m.cell_stride;
            if nb < 0 || nb >= cells as i64 {
                continue;
            }
            let av = P::from_f64(a.get(cell, m.tap).load_f64());
            acc += av * x[(cell as i64 + m.x_offset) as usize];
        }
        // A product is the sum itself, a residual `b − Σ` (no `b` is `b = 0`).
        *y = if residual { b.map_or(-acc, |b| b[cell] - acc) } else { acc };
    }
}
