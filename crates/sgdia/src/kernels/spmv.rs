//! Sparse matrix–vector product and residual kernels.
//!
//! One driver computes `y = A x`, `r = b − A x`, `r = −U x` and
//! `y += A x` over a [`TapSet`] of the pattern. Scalar SOA matrices run
//! the vector phase of the x-line kernel ([`super::line`]) in every
//! storage/compute pair; vector PDEs and `y += A x` take the *staged*
//! path (each x-line of coefficients widened into scratch first); AOS
//! data is the paper's naive per-entry kernel.

use fp16mg_fp::{Scalar, Storage, F16};

use super::line::LineSweep;
use super::{
    cast_slice, cast_slice_mut, widen_line, with_bufs, with_idx2, with_tap_metas, Par, TapMeta,
    TapSet, MAX_COMPONENTS,
};
use crate::{Layout, SgDia};

/// `y = A x`.
///
/// # Panics
/// Panics on dimension mismatch or more than 8 components.
pub fn spmv<S: Storage, P: Scalar>(a: &SgDia<S>, x: &[P], y: &mut [P], par: Par) {
    apply(a, None, x, y, par, Mode::Overwrite, TapSet::All);
}

/// `r = b - A x` (the residual of Algorithm 3 lines 7/9, unscaled form).
///
/// # Panics
/// Panics on dimension mismatch or more than 8 components.
pub fn residual<S: Storage, P: Scalar>(a: &SgDia<S>, b: &[P], x: &[P], r: &mut [P], par: Par) {
    apply(a, Some(b), x, r, par, Mode::ResidualFrom, TapSet::All);
}

/// `r = −U x` with `U` the strictly upper taps: the residual `b − A x` of
/// an `x` that satisfies `(L + D) x = b`, which is what one forward
/// Gauss–Seidel sweep from zero ([`super::gs_forward_from_zero`]) leaves.
/// Reads the upper half of the matrix and no right-hand side.
///
/// # Panics
/// Panics on dimension mismatch or more than 8 components.
pub fn residual_upper<S: Storage, P: Scalar>(a: &SgDia<S>, x: &[P], r: &mut [P], par: Par) {
    apply(a, None, x, r, par, Mode::ResidualFrom, TapSet::Upper);
}

/// `y += A x`.
///
/// # Panics
/// Panics on dimension mismatch or more than 8 components.
pub fn spmv_axpy<S: Storage, P: Scalar>(a: &SgDia<S>, x: &[P], y: &mut [P], par: Par) {
    apply(a, None, x, y, par, Mode::Accumulate, TapSet::All);
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// `y = A x` (overwrite).
    Overwrite,
    /// `y = b - A x` (overwrite with the residual; no `b` is `b = 0`).
    ResidualFrom,
    /// `y += A x` (accumulate).
    Accumulate,
}

impl Mode {
    /// Writes one output value from the accumulated `Σ a·x` and the
    /// right-hand side entry, if there is one.
    #[inline(always)]
    fn emit<P: Scalar>(self, y: &mut P, acc: P, b: Option<P>) {
        match self {
            Mode::Overwrite => *y = acc,
            Mode::Accumulate => *y += acc,
            Mode::ResidualFrom => *y = b.map_or(-acc, |b| b - acc),
        }
    }
}

fn apply<S: Storage, P: Scalar>(
    a: &SgDia<S>,
    b: Option<&[P]>,
    x: &[P],
    y: &mut [P],
    par: Par,
    mode: Mode,
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

    // Each parallel task owns a disjoint &mut window of y covering
    // `chunk_lines` whole x-lines; x and b stay shared. The meta table is
    // rented from the calling thread's pool; worker closures only read it.
    with_tap_metas(a.grid(), a.pattern(), |metas| {
        crate::par::for_each_chunk_mut(y, chunk_lines * nx * r, |p, ychunk| {
            let first_line = p * chunk_lines;
            run_lines(a, b, x, ychunk, metas, first_line, mode, set);
        });
    });
}

/// Executes the whole x-lines `ychunk` covers, `first_line` onwards,
/// dispatching on layout and component count.
#[allow(clippy::too_many_arguments)] // internal dispatch: full kernel context
fn run_lines<S: Storage, P: Scalar>(
    a: &SgDia<S>,
    b: Option<&[P]>,
    x: &[P],
    ychunk: &mut [P],
    metas: &[TapMeta],
    first_line: usize,
    mode: Mode,
    set: TapSet,
) {
    let grid = a.grid();
    let base = first_line * grid.nx;
    let range = base..base + ychunk.len() / grid.components;
    if a.layout() == Layout::Soa {
        if grid.components == 1 && mode != Mode::Accumulate {
            with_idx2(|taps, _| {
                taps.extend(set.select(metas).map(|(t, m)| (t, m.cell_stride)));
                // A product is accumulated as `0 − Σ` and negated on the way out.
                LineSweep::apply(grid.nx, a.data(), taps, b, mode == Mode::Overwrite)
                    .apply_with(x, ychunk, first_line, true);
            });
            return;
        }
        // Vector PDEs and `y += A x`: per-line bulk widening (§5.1
        // amortization) plus branch-free tap loops.
        staged_lines(a, b, x, ychunk, metas, first_line, mode, set);
        return;
    }
    // The paper's *naive* mixed-precision kernel: AOS FP16 with one scalar
    // hardware convert per entry (Fig. 4 left). Without this path the
    // soft-float fallback would exaggerate the conversion overhead.
    #[cfg(target_arch = "x86_64")]
    if grid.components == 1 && mode != Mode::Accumulate && super::simd_available() {
        if let (Some(x32), Some(y32)) = (cast_slice::<P, f32>(x), cast_slice_mut::<P, f32>(ychunk))
        {
            let b32 = b.and_then(cast_slice::<P, f32>);
            if let Some(d16) = cast_slice::<S, F16>(a.data()) {
                // SAFETY: CPU support checked by simd_available().
                unsafe {
                    naive_f16_aos_range(grid.cells(), metas, set, d16, b32, x32, y32, range, mode)
                };
                return;
            }
        }
    }
    generic_range(a, b, x, ychunk, metas, range, mode, set);
}

/// Staged SOA kernel: bulk-widens the coefficient lines of the taps in
/// `set` into a scratch buffer, then accumulates tap by tap over
/// index-valid sub-spans.
#[allow(clippy::too_many_arguments)]
fn staged_lines<S: Storage, P: Scalar>(
    a: &SgDia<S>,
    b: Option<&[P]>,
    x: &[P],
    ychunk: &mut [P],
    metas: &[TapMeta],
    first_line: usize,
    mode: Mode,
    set: TapSet,
) {
    let grid = a.grid();
    let cells = grid.cells();
    let nx = grid.nx;
    let r = grid.components;
    let data = a.data();
    with_bufs::<P, _>(|bufs| {
        let (scratch, acc) = bufs.zeroed2(nx, nx * r);
        for (l, yline) in ychunk.chunks_exact_mut(nx * r).enumerate() {
            let lbase = (first_line + l) * nx;
            acc.fill(P::ZERO);
            for (t, m) in set.select(metas) {
                widen_line(&data[t * cells + lbase..t * cells + lbase + nx], scratch);
                // Valid i within the line: 0 <= lbase + i + cstride < cells.
                let xoff = lbase as i64 + m.cell_stride;
                let lo = (-xoff).clamp(0, nx as i64) as usize;
                let hi = (cells as i64 - xoff).clamp(lo as i64, nx as i64) as usize;
                let (cout, cin) = (m.cout, m.cin);
                for i in lo..hi {
                    let xv = x[(xoff + i as i64) as usize * r + cin];
                    acc[i * r + cout] += scratch[i] * xv;
                }
            }
            for (k, (y, &v)) in yline.iter_mut().zip(acc.iter()).enumerate() {
                mode.emit(y, v, b.map(|b| b[lbase * r + k]));
            }
        }
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
    cells: usize,
    metas: &[TapMeta],
    set: TapSet,
    data: &[F16],
    b: Option<&[f32]>,
    x: &[f32],
    ychunk: &mut [f32],
    range: core::ops::Range<usize>,
    mode: Mode,
) {
    use core::arch::x86_64::*;
    let ntaps = metas.len();
    #[inline(always)]
    unsafe fn cvt1(h: u16) -> f32 {
        // ldr + fcvt: one scalar hardware conversion.
        _mm_cvtss_f32(_mm_cvtph_ps(_mm_cvtsi32_si128(h as i32)))
    }
    for (y, cell) in ychunk.iter_mut().zip(range) {
        let row = &data[cell * ntaps..(cell + 1) * ntaps];
        let mut acc = 0.0f32;
        for (t, m) in set.select(metas) {
            let nb = cell as i64 + m.cell_stride;
            if nb < 0 || nb >= cells as i64 {
                continue;
            }
            let av = cvt1(row[t].to_bits());
            acc = av.mul_add(x[nb as usize], acc);
        }
        mode.emit(y, acc, b.map(|b| b[cell]));
    }
}

/// Scalar reference kernel: any layout, any component count, per-entry
/// conversion and bounds checks. On AOS FP16 data this is the paper's
/// "naive" mixed-precision kernel.
#[allow(clippy::too_many_arguments)]
fn generic_range<S: Storage, P: Scalar>(
    a: &SgDia<S>,
    b: Option<&[P]>,
    x: &[P],
    ychunk: &mut [P],
    metas: &[TapMeta],
    range: core::ops::Range<usize>,
    mode: Mode,
    set: TapSet,
) {
    let cells = a.grid().cells();
    let r = a.grid().components;
    let mut acc = [P::ZERO; MAX_COMPONENTS];
    for (yblk, cell) in ychunk.chunks_exact_mut(r).zip(range) {
        acc[..r].fill(P::ZERO);
        for (t, m) in set.select(metas) {
            let nb = cell as i64 + m.cell_stride;
            if nb < 0 || nb >= cells as i64 {
                continue;
            }
            let av = P::from_f64(a.get(cell, t).load_f64());
            acc[m.cout] += av * x[nb as usize * r + m.cin];
        }
        for (c, y) in yblk.iter_mut().enumerate() {
            mode.emit(y, acc[c], b.map(|b| b[cell * r + c]));
        }
    }
}
