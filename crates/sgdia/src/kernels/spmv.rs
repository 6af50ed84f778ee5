//! Sparse matrix–vector product and residual kernels.

use fp16mg_fp::{Scalar, Storage, F16};

use super::{
    cast_slice, cast_slice_mut, interior_range, widen_line, with_bufs, with_tap_metas, Par,
    TapMeta, MAX_COMPONENTS,
};
use crate::{Layout, SgDia};

/// `y = A x`.
///
/// Dispatches to the SIMD SOA kernel when the matrix is scalar, SOA, and
/// the storage/compute pair is `(F16, f32)` or `(f32, f32)` on a capable
/// CPU; otherwise runs the generic scalar kernel (the "naive" variant).
///
/// # Panics
/// Panics on dimension mismatch or more than 8 components.
pub fn spmv<S: Storage, P: Scalar>(a: &SgDia<S>, x: &[P], y: &mut [P], par: Par) {
    apply(a, None, x, y, par, Mode::Overwrite);
}

/// `r = b - A x` (the residual of Algorithm 3 lines 7/9, unscaled form).
///
/// # Panics
/// Panics on dimension mismatch or more than 8 components.
pub fn residual<S: Storage, P: Scalar>(a: &SgDia<S>, b: &[P], x: &[P], r: &mut [P], par: Par) {
    apply(a, Some(b), x, r, par, Mode::ResidualFrom);
}

/// `y += A x`.
///
/// # Panics
/// Panics on dimension mismatch or more than 8 components.
pub fn spmv_axpy<S: Storage, P: Scalar>(a: &SgDia<S>, x: &[P], y: &mut [P], par: Par) {
    apply(a, None, x, y, par, Mode::Accumulate);
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// `y = A x` (overwrite).
    Overwrite,
    /// `y = b - A x` (overwrite with residual).
    ResidualFrom,
    /// `y += A x` (accumulate).
    Accumulate,
}

fn apply<S: Storage, P: Scalar>(
    a: &SgDia<S>,
    b: Option<&[P]>,
    x: &[P],
    y: &mut [P],
    par: Par,
    mode: Mode,
) {
    let cells = a.grid().cells();
    let r = a.grid().components;
    assert!(r <= MAX_COMPONENTS, "too many components per cell");
    assert_eq!(x.len(), cells * r, "x length");
    assert_eq!(y.len(), cells * r, "y length");
    if let Some(b) = b {
        assert_eq!(b.len(), cells * r, "b length");
    }
    let nthreads = par.threads();
    let chunk_cells = if nthreads == 1 || cells < 4096 { cells } else { cells.div_ceil(nthreads) };

    // Each parallel task owns a disjoint &mut window of y covering
    // `chunk_cells` cells; x and b stay shared. The meta table is rented
    // from the calling thread's pool; worker closures only read it.
    with_tap_metas(a.grid(), a.pattern(), |metas| {
        crate::par::for_each_chunk_mut(y, chunk_cells * r, |p, ychunk| {
            let base = p * chunk_cells;
            let range = base..(base + ychunk.len() / r);
            run_range(a, b, x, ychunk, metas, range, base, mode);
        });
    });
}

/// Executes one cell range, dispatching to the SIMD path when possible.
/// `ychunk` covers exactly the cells of `range`; `base == range.start`.
#[allow(clippy::too_many_arguments)] // internal dispatch: full kernel context
fn run_range<S: Storage, P: Scalar>(
    a: &SgDia<S>,
    b: Option<&[P]>,
    x: &[P],
    ychunk: &mut [P],
    metas: &[TapMeta],
    range: core::ops::Range<usize>,
    base: usize,
    mode: Mode,
) {
    #[cfg(target_arch = "x86_64")]
    if a.grid().components == 1
        && a.layout() == Layout::Soa
        && mode != Mode::Accumulate
        && super::simd_available()
    {
        if let (Some(x32), Some(y32)) = (cast_slice::<P, f32>(x), cast_slice_mut::<P, f32>(ychunk))
        {
            let b32 = b.and_then(cast_slice::<P, f32>);
            if let Some(d16) = cast_slice::<S, F16>(a.data()) {
                // SAFETY: CPU support checked by simd_available().
                unsafe { simd_f16_range(a.grid().cells(), metas, d16, b32, x32, y32, range, base) };
                return;
            }
            if let Some(d32) = cast_slice::<S, f32>(a.data()) {
                // SAFETY: CPU support checked by simd_available().
                unsafe { simd_f32_range(a.grid().cells(), metas, d32, b32, x32, y32, range, base) };
                return;
            }
        }
        // f64 computation on f64 storage (the Full64 baseline): same SIMD
        // structure, 4 lanes.
        if let (Some(x64), Some(y64)) = (cast_slice::<P, f64>(x), cast_slice_mut::<P, f64>(ychunk))
        {
            let b64 = b.and_then(cast_slice::<P, f64>);
            if let Some(d64) = cast_slice::<S, f64>(a.data()) {
                // SAFETY: CPU support checked by simd_available().
                unsafe { simd_f64_range(a.grid().cells(), metas, d64, b64, x64, y64, range, base) };
                return;
            }
        }
    }
    // The paper's *naive* mixed-precision kernel: AOS FP16 with one scalar
    // hardware convert per entry (Fig. 4 left). Without this path the
    // soft-float fallback would exaggerate the conversion overhead.
    #[cfg(target_arch = "x86_64")]
    if a.grid().components == 1
        && a.layout() == Layout::Aos
        && mode != Mode::Accumulate
        && super::simd_available()
    {
        if let (Some(x32), Some(y32)) = (cast_slice::<P, f32>(x), cast_slice_mut::<P, f32>(ychunk))
        {
            let b32 = b.and_then(cast_slice::<P, f32>);
            if let Some(d16) = cast_slice::<S, F16>(a.data()) {
                // SAFETY: CPU support checked by simd_available().
                unsafe {
                    naive_f16_aos_range(a.grid().cells(), metas, d16, b32, x32, y32, range, base)
                };
                return;
            }
        }
    }
    // Staged SOA fallback for every remaining storage/compute/component
    // combination: per-line bulk widening (§5.1 amortization) plus
    // branch-free tap loops. Covers BF16, mixed f32-storage/f64-compute,
    // and vector PDEs, whose per-entry soft-float conversion would
    // otherwise dominate.
    if a.layout() == Layout::Soa {
        staged_range(a, b, x, ychunk, metas, range, base, mode);
        return;
    }
    generic_range(a, b, x, ychunk, metas, range, base, mode);
}

/// Staged SOA kernel: processes each x-line intersecting the range by
/// bulk-widening the needed coefficient segments into a scratch buffer,
/// then accumulating tap by tap over index-valid sub-spans.
#[allow(clippy::too_many_arguments)]
fn staged_range<S: Storage, P: Scalar>(
    a: &SgDia<S>,
    b: Option<&[P]>,
    x: &[P],
    ychunk: &mut [P],
    metas: &[TapMeta],
    range: core::ops::Range<usize>,
    base: usize,
    mode: Mode,
) {
    let grid = a.grid();
    let cells = grid.cells();
    let nx = grid.nx;
    let r = grid.components;
    let taps = metas.len();
    let data = a.data();
    with_bufs::<P, _>(|bufs| {
        let (scratch, acc) = bufs.zeroed2(taps * nx, nx * r);

        let mut c = range.start;
        while c < range.end {
            let line = c / nx;
            let i0 = c - line * nx;
            let i1 = (range.end - line * nx).min(nx);
            let lbase = line * nx;
            let span = i1 - i0;
            for t in 0..taps {
                widen_line(
                    &data[t * cells + lbase + i0..t * cells + lbase + i1],
                    &mut scratch[t * nx..t * nx + span],
                );
            }
            acc[..span * r].fill(P::ZERO);
            for (t, m) in metas.iter().enumerate() {
                // Valid i within [i0, i1): 0 <= lbase + i + cstride < cells.
                let xoff = lbase as i64 + m.cell_stride;
                let lo = ((-xoff).max(i0 as i64) as usize).max(i0);
                let hi = (((cells as i64 - xoff).min(i1 as i64)).max(lo as i64)) as usize;
                let (cout, cin) = (m.cout, m.cin);
                for i in lo..hi {
                    let xv = x[(xoff + i as i64) as usize * r + cin];
                    acc[(i - i0) * r + cout] += scratch[t * nx + (i - i0)] * xv;
                }
            }
            let out0 = (lbase + i0 - base) * r;
            match mode {
                Mode::Overwrite => {
                    ychunk[out0..out0 + span * r].copy_from_slice(&acc[..span * r]);
                }
                Mode::Accumulate => {
                    for (y, &v) in ychunk[out0..out0 + span * r].iter_mut().zip(&acc[..span * r]) {
                        *y += v;
                    }
                }
                Mode::ResidualFrom => {
                    // Callers pass Some(b) whenever mode == Residual (internal API).
                    let bb = b.expect("residual mode requires b");
                    let b0 = (lbase + i0) * r;
                    for (k, y) in ychunk[out0..out0 + span * r].iter_mut().enumerate() {
                        *y = bb[b0 + k] - acc[k];
                    }
                }
            }
            c = lbase + i1;
        }
    });
}

/// Naive AOS FP16 kernel: one `vcvtph2ps` scalar conversion per entry —
/// the "Scalar instruction for AOS" column of the paper's Fig. 4, whose
/// per-entry convert overhead is what the SOA transformation amortizes.
///
/// # Safety
/// Caller must guarantee F16C support; `ychunk` covers the cells of
/// `range` starting at `base`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "f16c,fma")]
#[allow(clippy::too_many_arguments)]
unsafe fn naive_f16_aos_range(
    cells: usize,
    metas: &[TapMeta],
    data: &[F16],
    b: Option<&[f32]>,
    x: &[f32],
    ychunk: &mut [f32],
    range: core::ops::Range<usize>,
    base: usize,
) {
    use core::arch::x86_64::*;
    let ntaps = metas.len();
    #[inline(always)]
    unsafe fn cvt1(h: u16) -> f32 {
        // ldr + fcvt: one scalar hardware conversion.
        _mm_cvtss_f32(_mm_cvtph_ps(_mm_cvtsi32_si128(h as i32)))
    }
    for cell in range {
        let row = &data[cell * ntaps..(cell + 1) * ntaps];
        let mut acc = 0.0f32;
        for (t, m) in metas.iter().enumerate() {
            let nb = cell as i64 + m.cell_stride;
            if nb < 0 || nb >= cells as i64 {
                continue;
            }
            let av = cvt1(row[t].to_bits());
            acc = av.mul_add(x[nb as usize], acc);
        }
        ychunk[cell - base] = match b {
            Some(bb) => bb[cell] - acc,
            None => acc,
        };
    }
}

/// SIMD kernel over FP64 SOA data (4 lanes): keeps the Full64 baseline on
/// the same code quality as the mixed-precision kernels.
///
/// # Safety
/// Caller must guarantee AVX2+FMA support; `ychunk` covers the cells of
/// `range` starting at `base == range.start`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
#[allow(clippy::too_many_arguments)]
unsafe fn simd_f64_range(
    cells: usize,
    metas: &[TapMeta],
    data: &[f64],
    b: Option<&[f64]>,
    x: &[f64],
    ychunk: &mut [f64],
    range: core::ops::Range<usize>,
    base: usize,
) {
    use core::arch::x86_64::*;
    let (ilo, ihi) = interior_range(cells, metas);
    let lo = range.start.max(ilo).min(range.end);
    let hi = range.end.min(ihi).max(lo);

    scalar_f64_edge(cells, metas, data, b, x, ychunk, range.start..lo, base);
    let dp = data.as_ptr();
    let xp = x.as_ptr();
    let yp = ychunk.as_mut_ptr();
    let mut c = lo;
    match b {
        Some(bb) => {
            let bp = bb.as_ptr();
            while c + 4 <= hi {
                let mut acc = _mm256_loadu_pd(bp.add(c));
                for (t, m) in metas.iter().enumerate() {
                    let av = _mm256_loadu_pd(dp.add(t * cells + c));
                    let xv = _mm256_loadu_pd(xp.offset(c as isize + m.cell_stride as isize));
                    acc = _mm256_fnmadd_pd(av, xv, acc);
                }
                _mm256_storeu_pd(yp.add(c - base), acc);
                c += 4;
            }
        }
        None => {
            while c + 4 <= hi {
                let mut acc = _mm256_setzero_pd();
                for (t, m) in metas.iter().enumerate() {
                    let av = _mm256_loadu_pd(dp.add(t * cells + c));
                    let xv = _mm256_loadu_pd(xp.offset(c as isize + m.cell_stride as isize));
                    acc = _mm256_fmadd_pd(av, xv, acc);
                }
                _mm256_storeu_pd(yp.add(c - base), acc);
                c += 4;
            }
        }
    }
    scalar_f64_edge(cells, metas, data, b, x, ychunk, c..range.end, base);
}

/// Scalar edge handler shared by the SIMD FP64 kernel.
#[cfg(target_arch = "x86_64")]
#[allow(clippy::too_many_arguments)]
fn scalar_f64_edge(
    cells: usize,
    metas: &[TapMeta],
    data: &[f64],
    b: Option<&[f64]>,
    x: &[f64],
    ychunk: &mut [f64],
    range: core::ops::Range<usize>,
    base: usize,
) {
    for cell in range {
        let mut acc = 0.0f64;
        for (t, m) in metas.iter().enumerate() {
            let nb = cell as i64 + m.cell_stride;
            if nb < 0 || nb >= cells as i64 {
                continue;
            }
            acc += data[t * cells + cell] * x[nb as usize];
        }
        ychunk[cell - base] = match b {
            Some(bb) => bb[cell] - acc,
            None => acc,
        };
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
    base: usize,
    mode: Mode,
) {
    let cells = a.grid().cells();
    let r = a.grid().components;
    let mut acc = [P::ZERO; MAX_COMPONENTS];
    for cell in range {
        acc[..r].fill(P::ZERO);
        for (t, m) in metas.iter().enumerate() {
            let nb = cell as i64 + m.cell_stride;
            if nb < 0 || nb >= cells as i64 {
                continue;
            }
            let av = P::from_f64(a.get(cell, t).load_f64());
            acc[m.cout] += av * x[nb as usize * r + m.cin];
        }
        let out = (cell - base) * r;
        match mode {
            Mode::Overwrite => ychunk[out..out + r].copy_from_slice(&acc[..r]),
            Mode::Accumulate => {
                for c in 0..r {
                    ychunk[out + c] += acc[c];
                }
            }
            Mode::ResidualFrom => {
                // Callers pass Some(b) whenever mode == Residual (internal API).
                let b = b.expect("residual mode requires b");
                for c in 0..r {
                    ychunk[out + c] = b[cell * r + c] - acc[c];
                }
            }
        }
    }
}

/// SIMD kernel over FP16 SOA data: 8 cells per iteration, one `vcvtph2ps`
/// per tap per 8 cells (§5.1). `b = Some` computes the residual.
///
/// # Safety
/// Caller must guarantee AVX2+FMA+F16C support; `ychunk` must cover the
/// cells of `range` starting at `base == range.start`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma,f16c")]
#[allow(clippy::too_many_arguments)]
unsafe fn simd_f16_range(
    cells: usize,
    metas: &[TapMeta],
    data: &[F16],
    b: Option<&[f32]>,
    x: &[f32],
    ychunk: &mut [f32],
    range: core::ops::Range<usize>,
    base: usize,
) {
    use core::arch::x86_64::*;
    let (ilo, ihi) = interior_range(cells, metas);
    let lo = range.start.max(ilo).min(range.end);
    let hi = range.end.min(ihi).max(lo);

    scalar_f16_edge(cells, metas, data, b, x, ychunk, range.start..lo, base);
    let dp = data.as_ptr() as *const u16;
    let xp = x.as_ptr();
    let yp = ychunk.as_mut_ptr();
    let mut c = lo;
    match b {
        Some(bb) => {
            let bp = bb.as_ptr();
            while c + 8 <= hi {
                let mut acc = _mm256_loadu_ps(bp.add(c));
                for (t, m) in metas.iter().enumerate() {
                    let h = _mm_loadu_si128(dp.add(t * cells + c) as *const __m128i);
                    let av = _mm256_cvtph_ps(h);
                    let xv = _mm256_loadu_ps(xp.offset(c as isize + m.cell_stride as isize));
                    acc = _mm256_fnmadd_ps(av, xv, acc);
                }
                _mm256_storeu_ps(yp.add(c - base), acc);
                c += 8;
            }
        }
        None => {
            while c + 8 <= hi {
                let mut acc = _mm256_setzero_ps();
                for (t, m) in metas.iter().enumerate() {
                    let h = _mm_loadu_si128(dp.add(t * cells + c) as *const __m128i);
                    let av = _mm256_cvtph_ps(h);
                    let xv = _mm256_loadu_ps(xp.offset(c as isize + m.cell_stride as isize));
                    acc = _mm256_fmadd_ps(av, xv, acc);
                }
                _mm256_storeu_ps(yp.add(c - base), acc);
                c += 8;
            }
        }
    }
    scalar_f16_edge(cells, metas, data, b, x, ychunk, c..range.end, base);
}

/// Scalar edge handler shared by the SIMD FP16 kernel.
#[cfg(target_arch = "x86_64")]
#[allow(clippy::too_many_arguments)]
fn scalar_f16_edge(
    cells: usize,
    metas: &[TapMeta],
    data: &[F16],
    b: Option<&[f32]>,
    x: &[f32],
    ychunk: &mut [f32],
    range: core::ops::Range<usize>,
    base: usize,
) {
    for cell in range {
        let mut acc = 0.0f32;
        for (t, m) in metas.iter().enumerate() {
            let nb = cell as i64 + m.cell_stride;
            if nb < 0 || nb >= cells as i64 {
                continue;
            }
            acc += data[t * cells + cell].to_f32() * x[nb as usize];
        }
        ychunk[cell - base] = match b {
            Some(bb) => bb[cell] - acc,
            None => acc,
        };
    }
}

/// SIMD kernel over FP32 SOA data (the full-FP32 baseline of Fig. 7,
/// sharing structure with the FP16 kernel so only the conversion differs).
///
/// # Safety
/// Caller must guarantee AVX2+FMA support; `ychunk` must cover the cells
/// of `range` starting at `base == range.start`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
#[allow(clippy::too_many_arguments)]
unsafe fn simd_f32_range(
    cells: usize,
    metas: &[TapMeta],
    data: &[f32],
    b: Option<&[f32]>,
    x: &[f32],
    ychunk: &mut [f32],
    range: core::ops::Range<usize>,
    base: usize,
) {
    use core::arch::x86_64::*;
    let (ilo, ihi) = interior_range(cells, metas);
    let lo = range.start.max(ilo).min(range.end);
    let hi = range.end.min(ihi).max(lo);

    scalar_f32_edge(cells, metas, data, b, x, ychunk, range.start..lo, base);
    let dp = data.as_ptr();
    let xp = x.as_ptr();
    let yp = ychunk.as_mut_ptr();
    let mut c = lo;
    match b {
        Some(bb) => {
            let bp = bb.as_ptr();
            while c + 8 <= hi {
                let mut acc = _mm256_loadu_ps(bp.add(c));
                for (t, m) in metas.iter().enumerate() {
                    let av = _mm256_loadu_ps(dp.add(t * cells + c));
                    let xv = _mm256_loadu_ps(xp.offset(c as isize + m.cell_stride as isize));
                    acc = _mm256_fnmadd_ps(av, xv, acc);
                }
                _mm256_storeu_ps(yp.add(c - base), acc);
                c += 8;
            }
        }
        None => {
            while c + 8 <= hi {
                let mut acc = _mm256_setzero_ps();
                for (t, m) in metas.iter().enumerate() {
                    let av = _mm256_loadu_ps(dp.add(t * cells + c));
                    let xv = _mm256_loadu_ps(xp.offset(c as isize + m.cell_stride as isize));
                    acc = _mm256_fmadd_ps(av, xv, acc);
                }
                _mm256_storeu_ps(yp.add(c - base), acc);
                c += 8;
            }
        }
    }
    scalar_f32_edge(cells, metas, data, b, x, ychunk, c..range.end, base);
}

/// Scalar edge handler shared by the SIMD FP32 kernel.
#[cfg(target_arch = "x86_64")]
#[allow(clippy::too_many_arguments)]
fn scalar_f32_edge(
    cells: usize,
    metas: &[TapMeta],
    data: &[f32],
    b: Option<&[f32]>,
    x: &[f32],
    ychunk: &mut [f32],
    range: core::ops::Range<usize>,
    base: usize,
) {
    for cell in range {
        let mut acc = 0.0f32;
        for (t, m) in metas.iter().enumerate() {
            let nb = cell as i64 + m.cell_stride;
            if nb < 0 || nb >= cells as i64 {
                continue;
            }
            acc += data[t * cells + cell] * x[nb as usize];
        }
        ychunk[cell - base] = match b {
            Some(bb) => bb[cell] - acc,
            None => acc,
        };
    }
}
