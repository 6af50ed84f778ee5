//! The x-line kernel behind the scalar Gauss–Seidel sweeps and the
//! triangular solves (§5.1: SOA planes, one convert per SIMD vector,
//! coefficients recovered in registers).
//!
//! Both sweeps visit the x-lines of the grid in order and, on each line,
//! solve `D x = b − Σ a_t · x[· + stride_t]`. For a radius-1 pattern only
//! one tap — the x-neighbour the sweep has just left — reads a value this
//! line is still producing, so a line splits into
//!
//! 1. a **vector phase** over every other off-diagonal tap (the *bulk*
//!    taps: other lines, and the not-yet-updated x-neighbour). It walks
//!    the line in SIMD-width chunks with the accumulator in a register:
//!    start from `b`, `acc = fnmadd(widen(a_t), x[cell + stride_t], acc)`
//!    per tap, then emit `c = D⁻¹·acc` and `d = −D⁻¹·a_w` into two
//!    `nx`-long rows. No widened coefficient is ever stored, and the
//!    accumulator is loaded and stored once per chunk, not once per tap;
//! 2. the **recurrence** `x_i = fma(d_i, x_{i∓1}, c_i)` — all that is
//!    truly serial: one hardware FMA of latency per cell, with `x_{i∓1}`
//!    carried in a register.
//!
//! The body is written once over a [`Lanes`] loader and instantiated for
//! `(F16, f32)`, `(f32, f32)` and `(f64, f64)` on AVX2+FMA+F16C, plus a
//! portable instantiation (fixed-size arrays the compiler vectorises) for
//! BF16, mixed `f32`/`f64` and other CPUs — the Full64 baseline runs the
//! same kernel as the FP16 path, so their ratio compares bytes, not code.
//!
//! SpMV, the residual and `−U x` are the vector phase alone
//! ([`LineSweep::apply`]): no diagonal, no recurrence, the accumulated
//! row is the result and goes straight to the output vector.
//!
//! # Edges and the zero-coefficient contract
//!
//! A bulk tap takes the vector phase on a line when its whole shifted
//! line `[lbase + stride, lbase + stride + nx)` lies inside the vector;
//! every load is then in bounds. Inside that span a neighbour index can
//! still *wrap* across an x or y face: those reads hit a valid but
//! unrelated cell, and the result relies on [`crate::SgDia`] storing
//! exact zeros for taps that leave the grid: `0 · finite` is inert. Taps
//! whose shifted line is only partly inside the vector (the first and
//! last line of the grid) are folded into the accumulator's starting row
//! by a bounds-checked scalar loop; taps wholly outside are skipped. A line
//! remainder shorter than one vector is covered by re-running the last
//! full chunk flush with the line end (the phase only reads `x`, so
//! recomputing a cell is idempotent), or cell by cell when the line is
//! shorter than a vector.

use core::marker::PhantomData;

use fp16mg_fp::{Scalar, Storage};

#[cfg(target_arch = "x86_64")]
use super::cast_slice_mut;
use super::{cast_slice, with_bufs};

/// Where the kernel takes `D⁻¹` from.
#[derive(Clone, Copy)]
pub(super) enum Diag<'a, P> {
    /// Precomputed per-cell reciprocals (Gauss–Seidel:
    /// [`super::BlockDiagInv::as_scalar`]).
    Inv(&'a [P]),
    /// The stored diagonal plane of this tap, reciprocated in the register
    /// (triangular solves).
    Tap(usize),
    /// Nowhere: the accumulated row `b − Σ a_t x[· + stride_t]` is the
    /// result ([`LineSweep::apply`]), negated for `y = A x`.
    Absent {
        /// Emit `−row` (a product accumulated as `0 − Σ`).
        negate: bool,
    },
}

/// One sweep over a scalar SOA matrix, described by its tap split. The
/// unchecked accesses of the body rely on what [`LineSweep::new`]
/// establishes, so the fields stay private to this module.
pub(super) struct LineSweep<'a, S, P> {
    /// Cells per x-line.
    nx: usize,
    /// SOA value planes, `data[tap * cells + cell]`.
    data: &'a [S],
    /// `(tap, cell stride)` of every tap outside the dependency chain,
    /// sorted by stride.
    bulk: &'a [(usize, i64)],
    /// The x-neighbour the sweep has just left (stride −1 forward, +1
    /// backward), if the pattern has one.
    rec: Option<(usize, i64)>,
    /// Source of `D⁻¹`.
    diag: Diag<'a, P>,
    /// Right-hand side, one value per cell; `None` is all zeros.
    b: Option<&'a [P]>,
    /// Visit lines (and cells) in decreasing order.
    backward: bool,
    /// Zero each line of `x` before its vector phase reads the vector.
    clear_lines: bool,
}

impl<'a, S: Storage, P: Scalar> LineSweep<'a, S, P> {
    /// Describes a sweep whose off-diagonal taps split into `bulk` (sorted
    /// here) and `rec`, the taps that read values their own line is still
    /// producing. `None` when `rec` is more than the one x-neighbour the
    /// sweep has just left (patterns wider than radius 1 along x): the
    /// recurrence is first-order or it is not this kernel's.
    pub(super) fn new(
        nx: usize,
        data: &'a [S],
        bulk: &'a mut [(usize, i64)],
        rec: &[(usize, i64)],
        diag: Diag<'a, P>,
        b: &'a [P],
        backward: bool,
    ) -> Option<Self> {
        let against = if backward { 1 } else { -1 };
        let rec = match *rec {
            [] => None,
            [(t, s)] if s == against => Some((t, s)),
            _ => return None,
        };
        bulk.sort_unstable_by_key(|&(_, s)| s);
        Some(LineSweep { nx, data, bulk, rec, diag, b: Some(b), backward, clear_lines: false })
    }

    /// The vector phase alone over `taps` (sorted here): `b − Σ` per cell,
    /// or `−Σ` without `b`, negated on request — residual, `−U x`, SpMV.
    pub(super) fn apply(
        nx: usize,
        data: &'a [S],
        taps: &'a mut [(usize, i64)],
        b: Option<&'a [P]>,
        negate: bool,
    ) -> Self {
        taps.sort_unstable_by_key(|&(_, s)| s);
        let diag = Diag::Absent { negate };
        LineSweep { nx, data, bulk: taps, rec: None, diag, b, backward: false, clear_lines: false }
    }

    /// A sweep from a zero initial guess whose taps (the caller's filter)
    /// all point behind it: `x` need not be initialised. A tap behind the
    /// sweep reads only cells already written, except where its shifted
    /// line wraps into the line being computed — a stored-zero
    /// coefficient times whatever `x` held, so each line is zeroed before
    /// its vector phase (it is about to be overwritten anyway).
    pub(super) fn starting_from_zero(mut self) -> Self {
        self.clear_lines = true;
        self
    }

    /// Runs the sweep over `x` in place; `simd` is true everywhere but in
    /// the differential tests, which hold the AVX instantiations against
    /// the portable one.
    ///
    /// # Panics
    /// Panics when the slices do not describe one grid or a tap index has
    /// no plane.
    pub(super) fn run_with(&self, x: &mut [P], simd: bool) {
        assert!(!matches!(self.diag, Diag::Absent { .. }), "an apply descriptor has no sweep");
        assert!(self.nx > 0, "empty x-lines");
        let xp = x.as_mut_ptr();
        let v = Vecs { cells: x.len(), read: xp.cast_const(), write: xp, first: 0 };
        self.dispatch(v, x.len() / self.nx, simd);
    }

    /// Runs the vector phase of an [`apply`](Self::apply) descriptor over
    /// the whole x-lines `out` covers, line `first_line` onwards, reading
    /// `x`.
    ///
    /// # Panics
    /// As [`run_with`](Self::run_with), and when `out` is not whole lines
    /// inside the grid.
    pub(super) fn apply_with(&self, x: &[P], out: &mut [P], first_line: usize, simd: bool) {
        assert!(matches!(self.diag, Diag::Absent { .. }), "a sweep descriptor updates x in place");
        assert!(self.nx > 0 && out.len().is_multiple_of(self.nx), "out is not whole x-lines");
        let first = first_line.checked_mul(self.nx).expect("first line inside the grid");
        let end = first.checked_add(out.len());
        assert!(end.is_some_and(|end| end <= x.len()), "out reaches past the grid");
        let v = Vecs { cells: x.len(), read: x.as_ptr(), write: out.as_mut_ptr(), first };
        self.dispatch(v, out.len() / self.nx, simd);
    }

    /// Checks the descriptor against the vectors and runs the body over
    /// `nlines` lines from cell `v.first`.
    fn dispatch(&self, v: Vecs<P>, nlines: usize, simd: bool) {
        // Every unchecked access of the body is derived from these and
        // from the two callers' checks of `v`.
        let cells = v.cells;
        assert!(self.nx > 0 && cells.is_multiple_of(self.nx), "x is not whole x-lines");
        if cells == 0 {
            return;
        }
        assert!(self.b.is_none_or(|b| b.len() == cells), "b length");
        assert!(self.data.len().is_multiple_of(cells), "data is not whole planes");
        let planes = self.data.len() / cells;
        let dtap = match self.diag {
            Diag::Inv(di) => {
                assert_eq!(di.len(), cells, "dinv length");
                None
            }
            Diag::Tap(t) => Some(t),
            Diag::Absent { .. } => None,
        };
        let taps = self.bulk.iter().chain(&self.rec).map(|&(t, _)| t).chain(dtap);
        assert!(taps.into_iter().all(|t| t < planes), "tap without a plane");

        with_bufs::<P, _>(|bufs| {
            let (c, d) = bufs.zeroed2(self.nx, self.nx);
            #[cfg(target_arch = "x86_64")]
            if simd
                && super::simd_available()
                && (self.try_avx::<x86::F16Lanes>(v, nlines, c, d)
                    || self.try_avx::<x86::F32Lanes>(v, nlines, c, d)
                    || self.try_avx::<x86::F64Lanes>(v, nlines, c, d))
            {
                return;
            }
            // (`simd` is unused off x86.)
            let _ = simd;
            // SAFETY: the asserts above and in the callers; c and d are nx
            // long.
            unsafe { sweep_lines::<Portable<S, P, 8>>(self, v, nlines, c, d) };
        });
    }

    /// Runs the AVX instantiation `L` when `(S, P)` is its type pair.
    #[cfg(target_arch = "x86_64")]
    fn try_avx<L: Lanes>(&self, v: Vecs<P>, nlines: usize, c: &mut [P], d: &mut [P]) -> bool {
        let (Some(data), Some(c), Some(d)) = (
            cast_slice::<S, L::S>(self.data),
            cast_slice_mut::<P, L::P>(c),
            cast_slice_mut::<P, L::P>(d),
        ) else {
            return false;
        };
        let same = |s: &'a [P]| cast_slice::<P, L::P>(s).expect("P matched above");
        let diag = match self.diag {
            Diag::Inv(di) => Diag::Inv(same(di)),
            Diag::Tap(t) => Diag::Tap(t),
            Diag::Absent { negate } => Diag::Absent { negate },
        };
        let k = LineSweep {
            nx: self.nx,
            data,
            bulk: self.bulk,
            rec: self.rec,
            diag,
            b: self.b.map(same),
            backward: self.backward,
            clear_lines: self.clear_lines,
        };
        // P is L::P (matched above), so the pointer casts change nothing.
        let v = Vecs { cells: v.cells, read: v.read.cast(), write: v.write.cast(), first: v.first };
        // SAFETY: dispatch checked simd_available() (AVX2 + FMA + F16C) and
        // its asserts; c and d are nx long.
        unsafe { x86::sweep_lines_avx::<L>(&k, v, nlines, c, d) };
        true
    }
}

/// The vector the body reads and the one it writes: one and the same for
/// the in-place sweeps, `x` and an output window for
/// [`LineSweep::apply_with`].
#[derive(Clone, Copy)]
struct Vecs<P> {
    /// Cells of the grid.
    cells: usize,
    /// `cells` values.
    read: *const P,
    /// Holds cell `c` at `c − first`, from cell `first` to the last line
    /// the call covers.
    write: *mut P,
    /// First cell of the call's lines.
    first: usize,
}

/// How one storage/compute pair moves through the kernel: `W` cells at a
/// time in a `V`, with coefficients widened from `S` on load.
pub(super) trait Lanes {
    /// Storage precision of the matrix planes.
    type S: Storage;
    /// Computation precision of the vectors.
    type P: Scalar;
    /// `W` values of `P`.
    type V: Copy;
    /// Cells per vector.
    const W: usize;

    /// Loads `W` values. Every method here has the safety contract of the
    /// raw-pointer read or write it wraps (`W` elements valid at `p`) and,
    /// for the AVX instantiations, needs AVX2 + FMA + F16C enabled in the
    /// calling function.
    unsafe fn load(p: *const Self::P) -> Self::V;
    /// Stores `W` values.
    unsafe fn store(p: *mut Self::P, v: Self::V);
    /// Loads `W` stored coefficients and widens them.
    unsafe fn widen(p: *const Self::S) -> Self::V;
    /// `acc − a·x`.
    unsafe fn fnmadd(a: Self::V, x: Self::V, acc: Self::V) -> Self::V;
    /// `a·b`.
    unsafe fn mul(a: Self::V, b: Self::V) -> Self::V;
    /// `−a`.
    unsafe fn neg(a: Self::V) -> Self::V;
    /// `1 / a`.
    unsafe fn recip(a: Self::V) -> Self::V;
    /// Scalar `a·b + c` for the recurrence: the hardware FMA where the
    /// instantiation has one, the plain form elsewhere (see
    /// [`Scalar::mul_add`]).
    unsafe fn fma1(a: Self::P, b: Self::P, c: Self::P) -> Self::P;
}

/// Portable lanes: `W`-element arrays and plain arithmetic, which the
/// compiler vectorises with whatever the build target has.
struct Portable<S, P, const W: usize>(PhantomData<(S, P)>);

impl<S: Storage, P: Scalar, const W: usize> Lanes for Portable<S, P, W> {
    type S = S;
    type P = P;
    type V = [P; W];
    const W: usize = W;

    #[inline(always)]
    unsafe fn load(p: *const P) -> [P; W] {
        p.cast::<[P; W]>().read_unaligned()
    }
    #[inline(always)]
    unsafe fn store(p: *mut P, v: [P; W]) {
        p.cast::<[P; W]>().write_unaligned(v);
    }
    #[inline(always)]
    unsafe fn widen(p: *const S) -> [P; W] {
        if let Some(same) = cast_slice::<S, P>(core::slice::from_raw_parts(p, W)) {
            return Self::load(same.as_ptr());
        }
        core::array::from_fn(|l| P::from_f64((*p.add(l)).load_f64()))
    }
    #[inline(always)]
    unsafe fn fnmadd(a: [P; W], x: [P; W], acc: [P; W]) -> [P; W] {
        core::array::from_fn(|l| acc[l] - a[l] * x[l])
    }
    #[inline(always)]
    unsafe fn mul(a: [P; W], b: [P; W]) -> [P; W] {
        core::array::from_fn(|l| a[l] * b[l])
    }
    #[inline(always)]
    unsafe fn neg(a: [P; W]) -> [P; W] {
        core::array::from_fn(|l| -a[l])
    }
    #[inline(always)]
    unsafe fn recip(a: [P; W]) -> [P; W] {
        core::array::from_fn(|l| P::ONE / a[l])
    }
    #[inline(always)]
    unsafe fn fma1(a: P, b: P, c: P) -> P {
        a * b + c
    }
}

/// One cell at a time in `L`'s own arithmetic (its scalar FMA where it has
/// one): the tail of a line computes what a lane of a full vector would,
/// so a cell's value does not depend on which of the two reached it.
struct Tail<L>(PhantomData<L>);

impl<L: Lanes> Lanes for Tail<L> {
    type S = L::S;
    type P = L::P;
    type V = L::P;
    const W: usize = 1;

    #[inline(always)]
    unsafe fn load(p: *const L::P) -> L::P {
        *p
    }
    #[inline(always)]
    unsafe fn store(p: *mut L::P, v: L::P) {
        *p = v;
    }
    #[inline(always)]
    unsafe fn widen(p: *const L::S) -> L::P {
        L::P::from_f64((*p).load_f64())
    }
    #[inline(always)]
    unsafe fn fnmadd(a: L::P, x: L::P, acc: L::P) -> L::P {
        L::fma1(-a, x, acc)
    }
    #[inline(always)]
    unsafe fn mul(a: L::P, b: L::P) -> L::P {
        a * b
    }
    #[inline(always)]
    unsafe fn neg(a: L::P) -> L::P {
        -a
    }
    #[inline(always)]
    unsafe fn recip(a: L::P) -> L::P {
        L::P::ONE / a
    }
    #[inline(always)]
    unsafe fn fma1(a: L::P, b: L::P, c: L::P) -> L::P {
        L::fma1(a, b, c)
    }
}

/// Phase 1 for the `L::W` cells starting at cell `i` of the line at
/// `lbase`: accumulate `taps` onto `start[i..]`, then emit `c` and `d` —
/// or, without a diagonal, the accumulated row itself into `c`.
///
/// # Safety
/// `i + L::W <= nx`; every tap of `taps` has its whole shifted line inside
/// `x`; `start`, `c`, `d` are valid for `nx` elements; plus the
/// descriptor invariants [`LineSweep::new`] and [`LineSweep::dispatch`]
/// establish.
#[inline(always)]
#[allow(clippy::too_many_arguments)] // one line's worth of kernel context
unsafe fn chunk<L: Lanes>(
    k: &LineSweep<'_, L::S, L::P>,
    taps: &[(usize, i64)],
    cells: usize,
    lbase: usize,
    i: usize,
    start: *const L::P,
    x: *const L::P,
    c: *mut L::P,
    d: *mut L::P,
) {
    let plane = |t: usize| k.data.as_ptr().add(t * cells + lbase + i);
    let mut acc = L::load(start.add(i));
    for &(t, s) in taps {
        let xv = L::load(x.offset((lbase + i) as isize + s as isize));
        acc = L::fnmadd(L::widen(plane(t)), xv, acc);
    }
    let dinv = match k.diag {
        Diag::Inv(di) => L::load(di.as_ptr().add(lbase + i)),
        Diag::Tap(t) => L::recip(L::widen(plane(t))),
        Diag::Absent { negate } => {
            L::store(c.add(i), if negate { L::neg(acc) } else { acc });
            return;
        }
    };
    L::store(c.add(i), L::mul(acc, dinv));
    if let Some((t, _)) = k.rec {
        L::store(d.add(i), L::neg(L::mul(dinv, L::widen(plane(t)))));
    }
}

/// The sweep: `nlines` x-lines in order from cell `v.first`, phase 1 then
/// the recurrence (phase 1 straight into the output for a descriptor
/// without a diagonal).
///
/// # Safety
/// The descriptor invariants [`LineSweep::new`] and [`LineSweep::dispatch`]
/// establish hold for `v.cells`; `v.read` is valid for `v.cells` reads and
/// `v.write` for `nlines · nx` writes, the two being equal for a
/// descriptor with a diagonal; `v.first` is a line start with `nlines`
/// lines after it in the grid; `c` and `d` are `nx` long; and the CPU
/// features `L` needs are enabled in the function this is inlined into.
#[inline(always)]
unsafe fn sweep_lines<L: Lanes>(
    k: &LineSweep<'_, L::S, L::P>,
    v: Vecs<L::P>,
    nlines: usize,
    c: &mut [L::P],
    d: &mut [L::P],
) {
    let (nx, cells, x) = (k.nx, v.cells, v.read);
    let in_place = !matches!(k.diag, Diag::Absent { .. });
    // Sorted strides: the extremes bound every bulk tap's reach.
    let reach_back = k.bulk.first().map_or(0, |&(_, s)| (-s).max(0));
    let reach_fwd = k.bulk.last().map_or(0, |&(_, s)| s.max(0));
    for lstep in 0..nlines {
        let lbase = v.first + if k.backward { nlines - 1 - lstep } else { lstep } * nx;
        let (lo, hi) = (lbase as i64, (lbase + nx) as i64);
        let out = v.write.add(lbase - v.first);
        if k.clear_lines {
            core::slice::from_raw_parts_mut(out, nx).fill(L::P::ZERO);
        }

        // Taps whose whole shifted line is in bounds are contiguous in the
        // sorted list: everywhere but near the first and last z-plane,
        // that is all of them.
        let mut taps = k.bulk;
        let mut seeded = false;
        if lo < reach_back || hi + reach_fwd > cells as i64 {
            let f0 = k.bulk.partition_point(|&(_, s)| lo + s < 0);
            let f1 = k.bulk.partition_point(|&(_, s)| hi + s <= cells as i64).max(f0);
            taps = &k.bulk[f0..f1];
            // The rest reach the vector on part of the line at most (the
            // grid's first and last line): bounds-checked, folded into the
            // row phase 1 starts from.
            for &(t, s) in k.bulk[..f0].iter().chain(&k.bulk[f1..]) {
                let i0 = (-(lo + s)).clamp(0, nx as i64) as usize;
                let i1 = (cells as i64 - (lo + s)).clamp(i0 as i64, nx as i64) as usize;
                if i0 < i1 && !seeded {
                    match k.b {
                        Some(b) => c.copy_from_slice(&b[lbase..lbase + nx]),
                        None => c.fill(L::P::ZERO),
                    }
                    seeded = true;
                }
                for (i, ci) in c.iter_mut().enumerate().take(i1).skip(i0) {
                    let a = L::P::from_f64(k.data[t * cells + lbase + i].load_f64());
                    *ci -= a * *x.add((lo + s + i as i64) as usize);
                }
            }
        }

        let (cp, dp) = (c.as_mut_ptr(), d.as_mut_ptr());
        // Without a right-hand side the row starts from zeros: `d`, which
        // only a recurrence tap would write and such a descriptor has none.
        let start = match k.b {
            _ if seeded => cp.cast_const(),
            Some(b) => b.as_ptr().add(lbase),
            None => dp.cast_const(),
        };
        // Where phase 1 leaves its row: `c` for the recurrence to consume,
        // the output line itself when there is none to run.
        let row = if in_place { cp } else { out };
        // Chunks in sweep order, so the next line's first chunk needs the
        // cells this line's recurrence writes first and the two overlap in
        // the pipeline.
        let whole = nx / L::W;
        for n in 0..whole {
            let i = if k.backward { nx - (n + 1) * L::W } else { n * L::W };
            chunk::<L>(k, taps, cells, lbase, i, start, x, row, dp);
        }
        let rem = nx - whole * L::W;
        if rem > 0 && whole > 0 && !(seeded && in_place) {
            // Remainder: redo the W cells flush with the far end. Not on a
            // seeded line whose start row the chunks overwrite in place.
            let i = if k.backward { 0 } else { nx - L::W };
            chunk::<L>(k, taps, cells, lbase, i, start, x, row, dp);
        } else {
            let first = if k.backward { 0 } else { nx - rem };
            for i in first..first + rem {
                chunk::<Tail<L>>(k, taps, cells, lbase, i, start, x, row, dp);
            }
        }
        if !in_place {
            continue;
        }

        let Some(_) = k.rec else {
            core::slice::from_raw_parts_mut(out, nx).copy_from_slice(c);
            continue;
        };
        // The cell before the line in sweep order wraps to the neighbouring
        // line (its d is a stored zero) or falls off the vector.
        let before = if k.backward { lbase + nx } else { lbase.wrapping_sub(1) };
        let mut prev = if before < cells { *x.add(before) } else { L::P::ZERO };
        if k.backward {
            for i in (0..nx).rev() {
                prev = L::fma1(*dp.add(i), prev, *cp.add(i));
                *out.add(i) = prev;
            }
        } else {
            for i in 0..nx {
                prev = L::fma1(*dp.add(i), prev, *cp.add(i));
                *out.add(i) = prev;
            }
        }
    }
}

/// The AVX2 + FMA + F16C instantiations.
#[cfg(target_arch = "x86_64")]
mod x86 {
    use core::arch::x86_64::*;

    use fp16mg_fp::F16;

    use super::{sweep_lines, Lanes, LineSweep, Vecs};

    /// [`sweep_lines`] compiled with the features the AVX lanes need.
    ///
    /// # Safety
    /// As [`sweep_lines`], and the CPU has AVX2, FMA and F16C.
    #[target_feature(enable = "avx2,fma,f16c")]
    pub(super) unsafe fn sweep_lines_avx<L: Lanes>(
        k: &LineSweep<'_, L::S, L::P>,
        v: Vecs<L::P>,
        nlines: usize,
        c: &mut [L::P],
        d: &mut [L::P],
    ) {
        sweep_lines::<L>(k, v, nlines, c, d);
    }

    /// Eight `f32` lanes over a storage type `$s` widened by `$widen`.
    macro_rules! ps_lanes {
        ($(#[$doc:meta])* $name:ident, $s:ty, |$p:ident| $widen:expr) => {
            $(#[$doc])*
            pub(super) struct $name;

            impl Lanes for $name {
                type S = $s;
                type P = f32;
                type V = __m256;
                const W: usize = 8;

                #[inline(always)]
                unsafe fn load(p: *const f32) -> __m256 {
                    _mm256_loadu_ps(p)
                }
                #[inline(always)]
                unsafe fn store(p: *mut f32, v: __m256) {
                    _mm256_storeu_ps(p, v);
                }
                #[inline(always)]
                unsafe fn widen($p: *const $s) -> __m256 {
                    $widen
                }
                #[inline(always)]
                unsafe fn fnmadd(a: __m256, x: __m256, acc: __m256) -> __m256 {
                    _mm256_fnmadd_ps(a, x, acc)
                }
                #[inline(always)]
                unsafe fn mul(a: __m256, b: __m256) -> __m256 {
                    _mm256_mul_ps(a, b)
                }
                #[inline(always)]
                unsafe fn neg(a: __m256) -> __m256 {
                    _mm256_xor_ps(a, _mm256_set1_ps(-0.0))
                }
                #[inline(always)]
                unsafe fn recip(a: __m256) -> __m256 {
                    _mm256_div_ps(_mm256_set1_ps(1.0), a)
                }
                #[inline(always)]
                unsafe fn fma1(a: f32, b: f32, c: f32) -> f32 {
                    _mm_cvtss_f32(_mm_fmadd_ss(_mm_set_ss(a), _mm_set_ss(b), _mm_set_ss(c)))
                }
            }
        };
    }

    ps_lanes!(
        /// FP16 planes, `f32` vectors: one `vcvtph2ps` per tap per 8 cells.
        F16Lanes,
        F16,
        |p| _mm256_cvtph_ps(_mm_loadu_si128(p.cast()))
    );
    ps_lanes!(
        /// `f32` planes and vectors (the full-FP32 baseline of Fig. 7).
        F32Lanes,
        f32,
        |p| _mm256_loadu_ps(p)
    );

    /// `f64` planes and vectors, four lanes (the Full64 baseline).
    pub(super) struct F64Lanes;

    impl Lanes for F64Lanes {
        type S = f64;
        type P = f64;
        type V = __m256d;
        const W: usize = 4;

        #[inline(always)]
        unsafe fn load(p: *const f64) -> __m256d {
            _mm256_loadu_pd(p)
        }
        #[inline(always)]
        unsafe fn store(p: *mut f64, v: __m256d) {
            _mm256_storeu_pd(p, v);
        }
        #[inline(always)]
        unsafe fn widen(p: *const f64) -> __m256d {
            _mm256_loadu_pd(p)
        }
        #[inline(always)]
        unsafe fn fnmadd(a: __m256d, x: __m256d, acc: __m256d) -> __m256d {
            _mm256_fnmadd_pd(a, x, acc)
        }
        #[inline(always)]
        unsafe fn mul(a: __m256d, b: __m256d) -> __m256d {
            _mm256_mul_pd(a, b)
        }
        #[inline(always)]
        unsafe fn neg(a: __m256d) -> __m256d {
            _mm256_xor_pd(a, _mm256_set1_pd(-0.0))
        }
        #[inline(always)]
        unsafe fn recip(a: __m256d) -> __m256d {
            _mm256_div_pd(_mm256_set1_pd(1.0), a)
        }
        #[inline(always)]
        unsafe fn fma1(a: f64, b: f64, c: f64) -> f64 {
            _mm_cvtsd_f64(_mm_fmadd_sd(_mm_set_sd(a), _mm_set_sd(b), _mm_set_sd(c)))
        }
    }
}
