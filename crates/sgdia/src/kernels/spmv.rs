//! Sparse matrix–vector product and residual kernels.
//!
//! One driver computes `y = A x`, `r = b − A x` and `r = −U x` over a
//! [`TapSet`] of the pattern. SOA matrices run the vector phase of the
//! x-line kernel ([`super::line`]) once per output field — a vector PDE is
//! `r` scalar fields — in every storage/compute pair; AOS data is the
//! paper's naive per-entry kernel.

use fp16mg_fp::{Scalar, Storage, F16};

use super::line::LineSweep;
use super::{
    cast_slice, cast_slice_mut, with_tap_metas, with_taps2, Par, TapMeta, TapSet, MAX_COMPONENTS,
};
use crate::{Layout, SgDia};

/// `y = A x`.
///
/// # Panics
/// Panics on dimension mismatch or more than 8 components.
pub fn spmv<S: Storage, P: Scalar>(a: &SgDia<S>, x: &[P], y: &mut [P], par: Par) {
    apply(a, None, x, y, par, false, TapSet::All);
}

/// `r = b - A x` (the residual of Algorithm 3 lines 7/9, unscaled form).
///
/// # Panics
/// Panics on dimension mismatch or more than 8 components.
pub fn residual<S: Storage, P: Scalar>(a: &SgDia<S>, b: &[P], x: &[P], r: &mut [P], par: Par) {
    apply(a, Some(b), x, r, par, true, TapSet::All);
}

/// `r = −U x` with `U` the strictly upper taps: the residual `b − A x` of
/// an `x` that satisfies `(L + D) x = b`, which is what one forward
/// Gauss–Seidel sweep from zero ([`super::gs_forward_from_zero`]) leaves.
/// Reads the upper half of the matrix and no right-hand side.
///
/// # Panics
/// Panics on dimension mismatch or more than 8 components.
pub fn residual_upper<S: Storage, P: Scalar>(a: &SgDia<S>, x: &[P], r: &mut [P], par: Par) {
    apply(a, None, x, r, par, true, TapSet::Upper);
}

fn apply<S: Storage, P: Scalar>(
    a: &SgDia<S>,
    b: Option<&[P]>,
    x: &[P],
    y: &mut [P],
    par: Par,
    residual: bool,
    set: TapSet,
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
    let chunk_lines = if nthreads == 1 || cells < 4096 { lines } else { lines.div_ceil(nthreads) };

    // Each parallel task owns the same `chunk_lines` whole x-lines of every
    // output field, disjoint &mut windows of y; x and b stay shared. The
    // meta table is rented from the calling thread's pool; worker closures
    // only read it.
    with_tap_metas(a.grid(), a.pattern(), |metas| {
        crate::par::for_each_field_chunk_mut(y, cells, chunk_lines * nx, |p, cout, ychunk| {
            let first_line = p * chunk_lines;
            run_lines(a, b, x, ychunk, metas, cout, first_line, residual, set);
        });
    });
}

/// Executes the whole x-lines `ychunk` covers of output field `cout`,
/// `first_line` onwards, over the taps of `set` that write it, dispatching
/// on layout.
#[allow(clippy::too_many_arguments)] // internal dispatch: full kernel context
fn run_lines<S: Storage, P: Scalar>(
    a: &SgDia<S>,
    b: Option<&[P]>,
    x: &[P],
    ychunk: &mut [P],
    metas: &[TapMeta],
    cout: usize,
    first_line: usize,
    residual: bool,
    set: TapSet,
) {
    let grid = a.grid();
    let b = b.map(|b| &b[grid.field(cout)]);
    let base = first_line * grid.nx;
    let range = base..base + ychunk.len();
    with_taps2(|taps, _| {
        taps.extend(set.select(metas).filter(|m| m.cout == cout));
        if a.layout() == Layout::Soa {
            // A product is accumulated as `0 − Σ` and negated on the way out.
            LineSweep::apply(grid, a.data(), taps, b, !residual)
                .apply_with(x, ychunk, first_line, true);
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
    range: core::ops::Range<usize>,
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
    range: core::ops::Range<usize>,
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
