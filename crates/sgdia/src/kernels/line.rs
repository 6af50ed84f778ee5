//! The x-line kernel behind every SOA kernel: SpMV, the residuals, the
//! Gauss–Seidel sweeps and the scalar triangular solves, for any number of
//! components (§5.1: SOA planes, one convert per SIMD vector, coefficients
//! recovered in registers).
//!
//! Unknowns are numbered component-major ([`fp16mg_grid::Grid3::unknown`]),
//! so a vector of an `r`-component PDE is `r` contiguous scalar fields and
//! a block-stencil coupling `(offset, cout, cin)` is a scalar stencil tap
//! from field `cin` to field `cout`: a [`TapMeta`] keeps the spatial
//! stride, by which the edge rule below is judged against the field's own
//! plane, reads `x` at `cin · cells + stride` and its coefficient at
//! `coef` — its own plane, or for a symmetric matrix read by half
//! ([`super::mirror_upper`]) the transposed tap's plane `stride` further
//! on, which the same edge rule keeps in bounds.
//!
//! Both sweeps visit the x-lines of the grid in order and, on each line,
//! solve `D x = b − Σ a_t · x[· + stride_t]` with `D` the `r × r` centre
//! block of each cell. For a radius-1 pattern only the `r²` taps of one
//! x-neighbour — the one the sweep has just left — read values this line
//! is still producing, so a line splits into
//!
//! 1. a **vector phase** over every other off-diagonal tap (the *bulk*
//!    taps: other lines, and the not-yet-updated x-neighbour). It walks
//!    the line in SIMD-width chunks with the accumulators in registers:
//!    per output field start from `b`,
//!    `acc = fnmadd(widen(a_t), x[cin · cells + cell + stride_t], acc)` per
//!    tap, then emit `c = D⁻¹·acc` and `E = −D⁻¹·A_w` into `r + r²`
//!    `nx`-long rows. No widened coefficient is ever stored, and an
//!    accumulator is loaded and stored once per chunk, not once per tap;
//! 2. the **recurrence** `x_i = c_i + E_i x_{i∓1}` — all that is truly
//!    serial: `r²` hardware FMAs per cell, with `x_{i∓1}` carried in
//!    registers.
//!
//! The body is written once over a [`Lanes`] loader and a component count
//! — a const generic for `r ∈ {1, 2, 3, 4}`, a runtime bound up to 8 —
//! and instantiated for `(F16, f32)`, `(f32, f32)` and `(f64, f64)` on
//! AVX2+FMA+F16C, plus a portable instantiation (fixed-size arrays the
//! compiler vectorises) for BF16, mixed `f32`/`f64` and other CPUs — the
//! Full64 baseline runs the same kernel as the FP16 path, so their ratio
//! compares bytes, not code. For `r = 1` the block epilogue is the scalar
//! `c = acc·d⁻¹`, `d = −d⁻¹·a_w` and the recurrence one FMA.
//!
//! SpMV, the residual and `−U x` are the vector phase alone
//! ([`LineSweep::apply`]), run once per output field over the taps that
//! write it: no diagonal, no recurrence, the accumulated row is the result
//! and goes straight to the output vector. Each coefficient plane is still
//! read exactly once.
//!
//! # Edges and the zero-coefficient contract
//!
//! A bulk tap takes the vector phase on a line when its whole shifted
//! line `[lbase + stride, lbase + stride + nx)` lies inside its field;
//! every load is then in bounds. Inside that span a neighbour index can
//! still *wrap* across an x or y face: those reads hit a valid but
//! unrelated cell, and the result relies on [`crate::SgDia`] storing
//! exact zeros for taps that leave the grid: `0 · finite` is inert (and a
//! mirrored coefficient there is the transposed tap leaving the grid from
//! the other side, a stored zero too). Taps
//! whose shifted line is only partly inside the field (the first and
//! last line of the grid) are folded into the accumulator's starting row
//! by a bounds-checked scalar loop; taps wholly outside are skipped. A line
//! remainder shorter than one vector is covered by re-running the last
//! full chunk flush with the line end (the phase only reads `x`, so
//! recomputing a cell is idempotent), or cell by cell when the line is
//! shorter than a vector.

use core::marker::PhantomData;

use fp16mg_fp::{Scalar, Storage};
use fp16mg_grid::Grid3;

#[cfg(target_arch = "x86_64")]
use super::cast_slice_mut;
use super::{cast_slice, with_bufs, TapMeta, MAX_COMPONENTS};

/// Where the kernel takes `D⁻¹` from.
#[derive(Clone, Copy)]
pub(super) enum Diag<'a, P> {
    /// Precomputed inverse blocks, `r²` planes of one value per cell
    /// (Gauss–Seidel: [`super::BlockDiagInv::data`]).
    Inv(&'a [P]),
    /// The stored diagonal plane of this tap, reciprocated in the register
    /// (scalar triangular solves).
    Tap(usize),
    /// Nowhere: the accumulated row `b − Σ a_t x[· + stride_t]` is the
    /// result ([`LineSweep::apply`]), negated for `y = A x`.
    Absent {
        /// Emit `−row` (a product accumulated as `0 − Σ`).
        negate: bool,
    },
}

/// Marks a recurrence block no tap fills.
const NO_TAP: usize = usize::MAX;

/// The part of a sweep's description that does not depend on the
/// storage/compute pair.
#[derive(Clone, Copy)]
struct Shape<'a> {
    /// Cells per x-line.
    nx: usize,
    /// Cells per field.
    cells: usize,
    /// Output fields computed together: the component count for a sweep,
    /// one for [`LineSweep::apply`].
    fields: usize,
    /// Per output field, every tap outside the dependency chain that
    /// writes it, sorted by stride.
    bulk: [&'a [TapMeta]; MAX_COMPONENTS],
    /// `rec[cout][cin]` is the plane of the tap from field `cin` to field
    /// `cout` of the x-neighbour the sweep has just left (stride −1
    /// forward, +1 backward) — all `fields²` of them, or [`NO_TAP`]
    /// throughout when the pattern has no such neighbour.
    rec: [[usize; MAX_COMPONENTS]; MAX_COMPONENTS],
    /// Visit lines (and cells) in decreasing order.
    backward: bool,
    /// Zero each line of `x`, in every field, before its vector phase
    /// reads the vector.
    clear_lines: bool,
}

/// One sweep over an SOA matrix, described by its tap split. The
/// unchecked accesses of the body rely on what [`LineSweep::new`] and
/// [`LineSweep::dispatch`] establish, so the fields stay private to this
/// module.
pub(super) struct LineSweep<'a, S, P> {
    shape: Shape<'a>,
    /// SOA value planes, `data[tap * cells + cell]`.
    data: &'a [S],
    /// Source of `D⁻¹`.
    diag: Diag<'a, P>,
    /// Right-hand side, one value per cell of every output field; `None`
    /// is all zeros.
    b: Option<&'a [P]>,
}

impl<'a, S: Storage, P: Scalar> LineSweep<'a, S, P> {
    /// Describes a sweep over every field of `grid` whose off-diagonal
    /// taps split into `bulk` (sorted here) and `rec`, the taps that read
    /// values their own line is still producing. `None` when `rec` is
    /// anything but the full block of the one x-neighbour the sweep has
    /// just left (patterns wider than radius 1 along x, or coupling only
    /// some component pairs across it): the recurrence is first-order and
    /// dense or it is not this kernel's.
    pub(super) fn new(
        grid: &Grid3,
        data: &'a [S],
        bulk: &'a mut [TapMeta],
        rec: &[TapMeta],
        diag: Diag<'a, P>,
        b: &'a [P],
        backward: bool,
    ) -> Option<Self> {
        let fields = grid.components;
        let against = if backward { 1 } else { -1 };
        let mut table = [[NO_TAP; MAX_COMPONENTS]; MAX_COMPONENTS];
        for t in rec {
            table[t.cout][t.cin] = t.tap;
        }
        let mut block = table.iter().take(fields).flat_map(|row| &row[..fields]);
        let dense = rec.len() == fields * fields && block.all(|&t| t != NO_TAP);
        if !(rec.is_empty() || dense && rec.iter().all(|t| t.cell_stride == against)) {
            return None;
        }
        let mut k = Self::over(grid, fields, data, bulk, diag, Some(b));
        k.shape = Shape { rec: table, backward, ..k.shape };
        Some(k)
    }

    /// The vector phase alone over `taps` (sorted here), which all write
    /// the one field `b` and the output are: `b − Σ` per cell, or `−Σ`
    /// without `b`, negated on request — residual, `−U x`, SpMV.
    pub(super) fn apply(
        grid: &Grid3,
        data: &'a [S],
        taps: &'a mut [TapMeta],
        b: Option<&'a [P]>,
        negate: bool,
    ) -> Self {
        taps.iter_mut().for_each(|t| t.cout = 0);
        Self::over(grid, 1, data, taps, Diag::Absent { negate }, b)
    }

    /// A forward descriptor without recurrence taps over `bulk`, which
    /// write `fields` output fields.
    fn over(
        grid: &Grid3,
        fields: usize,
        data: &'a [S],
        bulk: &'a mut [TapMeta],
        diag: Diag<'a, P>,
        b: Option<&'a [P]>,
    ) -> Self {
        assert!(fields <= MAX_COMPONENTS, "too many components per cell");
        assert!(bulk.iter().all(|t| t.cout < fields), "tap writes a field the sweep lacks");
        // (Taps break ties, so a tap subset is summed in the same order.)
        bulk.sort_unstable_by_key(|t| (t.cout, t.cell_stride, t.tap));
        let mut rest: &'a [TapMeta] = bulk;
        let per_field = core::array::from_fn(|c| {
            let (mine, others) = rest.split_at(rest.partition_point(|t| t.cout == c));
            rest = others;
            mine
        });
        let shape = Shape {
            nx: grid.nx,
            cells: grid.cells(),
            fields,
            bulk: per_field,
            rec: [[NO_TAP; MAX_COMPONENTS]; MAX_COMPONENTS],
            backward: false,
            clear_lines: false,
        };
        LineSweep { shape, data, diag, b }
    }

    /// A sweep from a zero initial guess whose taps (the caller's filter)
    /// all point behind it: `x` need not be initialised. A tap behind the
    /// sweep reads only cells already written, except where its shifted
    /// line wraps into the line being computed, of whichever field it
    /// reads — a stored-zero coefficient times whatever `x` held, so each
    /// line is zeroed in every field before its vector phase (it is about
    /// to be overwritten anyway).
    pub(super) fn starting_from_zero(mut self) -> Self {
        self.shape.clear_lines = true;
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
        let Shape { nx, cells, fields, .. } = self.shape;
        assert!(!matches!(self.diag, Diag::Absent { .. }), "an apply descriptor has no sweep");
        assert_eq!(x.len(), fields * cells, "x length");
        let xp = x.as_mut_ptr();
        let v = Vecs { len: x.len(), read: xp.cast_const(), write: xp, first: 0 };
        self.dispatch(v, cells.checked_div(nx).unwrap_or(0), simd);
    }

    /// Runs the vector phase of an [`apply`](Self::apply) descriptor over
    /// the whole x-lines `out` covers of its field, line `first_line`
    /// onwards, reading `x`.
    ///
    /// # Panics
    /// As [`run_with`](Self::run_with), and when `out` is not whole lines
    /// inside the grid.
    pub(super) fn apply_with(&self, x: &[P], out: &mut [P], first_line: usize, simd: bool) {
        let Shape { nx, cells, .. } = self.shape;
        assert!(matches!(self.diag, Diag::Absent { .. }), "a sweep descriptor updates x in place");
        assert!(nx > 0 && out.len().is_multiple_of(nx), "out is not whole x-lines");
        let first = first_line.checked_mul(nx).expect("first line inside the grid");
        let end = first.checked_add(out.len());
        assert!(end.is_some_and(|end| end <= cells), "out reaches past the grid");
        let v = Vecs { len: x.len(), read: x.as_ptr(), write: out.as_mut_ptr(), first };
        self.dispatch(v, out.len() / nx, simd);
    }

    /// Checks the descriptor against the vectors and runs the body over
    /// `nlines` lines from cell `v.first`.
    fn dispatch(&self, v: Vecs<P>, nlines: usize, simd: bool) {
        // Every unchecked access of the body is derived from these and
        // from the two callers' checks of `v`.
        let Shape { nx, cells, fields, ref bulk, ref rec, .. } = self.shape;
        assert!(nx > 0 && cells > 0 && cells.is_multiple_of(nx), "a field is not whole x-lines");
        assert!(v.len.is_multiple_of(cells), "x is not whole fields");
        assert!(self.b.is_none_or(|b| b.len() == fields * cells), "b length");
        assert!(self.data.len().is_multiple_of(cells), "data is not whole planes");
        if let Diag::Inv(di) = self.diag {
            assert_eq!(di.len(), fields * fields * cells, "dinv length");
        }
        let dtap = if let Diag::Tap(t) = self.diag { Some(t) } else { None };
        assert!(dtap.is_none() || fields == 1, "a diagonal plane is a scalar diagonal");
        // A tap reads `x` where its field and stride say, and every plane exists.
        let reads = |t: &TapMeta| (t.cin * cells) as i64 + t.cell_stride;
        let bulk = bulk.iter().flat_map(|taps| taps.iter());
        assert!(bulk.clone().all(|t| t.x_offset == reads(t)), "tap offset");
        assert!(bulk.clone().all(|t| t.cin < v.len / cells), "tap reads a field x lacks");
        // A bulk tap is read on the cells whose shifted line is inside the
        // field, `first..end`: its coefficient offset keeps them in the data.
        let past = |t: &TapMeta| {
            let (first, end) = ((-t.cell_stride).max(0), cells as i64 - t.cell_stride.max(0));
            if first < end {
                t.coef + end as usize
            } else {
                0
            }
        };
        assert!(bulk.clone().all(|t| past(t) <= self.data.len()), "tap coefficient out of data");
        let rec = rec.iter().flatten().filter(|&&t| t != NO_TAP);
        let planes = rec.copied().chain(dtap);
        assert!(planes.into_iter().all(|t| t < self.data.len() / cells), "tap without a plane");

        with_bufs::<P, _>(|bufs| {
            let (c, e) = bufs.zeroed2(fields * nx, fields * fields * nx);
            #[cfg(target_arch = "x86_64")]
            if simd
                && super::simd_available()
                && (self.try_avx::<x86::F16Lanes>(v, nlines, c, e)
                    || self.try_avx::<x86::F32Lanes>(v, nlines, c, e)
                    || self.try_avx::<x86::F64Lanes>(v, nlines, c, e))
            {
                return;
            }
            // (`simd` is unused off x86.)
            let _ = simd;
            // SAFETY: the asserts above and in the callers; c is fields·nx
            // long and e fields²·nx.
            unsafe { sweep_by_fields::<Portable<S, P, 8>>(self, v, nlines, c, e) };
        });
    }

    /// Runs the AVX instantiation `L` when `(S, P)` is its type pair.
    #[cfg(target_arch = "x86_64")]
    fn try_avx<L: Lanes>(&self, v: Vecs<P>, nlines: usize, c: &mut [P], e: &mut [P]) -> bool {
        let (Some(data), Some(c), Some(e)) = (
            cast_slice::<S, L::S>(self.data),
            cast_slice_mut::<P, L::P>(c),
            cast_slice_mut::<P, L::P>(e),
        ) else {
            return false;
        };
        let same = |s: &'a [P]| cast_slice::<P, L::P>(s).expect("P matched above");
        let diag = match self.diag {
            Diag::Inv(di) => Diag::Inv(same(di)),
            Diag::Tap(t) => Diag::Tap(t),
            Diag::Absent { negate } => Diag::Absent { negate },
        };
        let k = LineSweep { shape: self.shape, data, diag, b: self.b.map(same) };
        // P is L::P (matched above), so the pointer casts change nothing.
        let v = Vecs { len: v.len, read: v.read.cast(), write: v.write.cast(), first: v.first };
        // SAFETY: dispatch checked simd_available() (AVX2 + FMA + F16C) and
        // its asserts; c is fields·nx long and e fields²·nx.
        unsafe { x86::sweep_lines_avx::<L>(&k, v, nlines, c, e) };
        true
    }
}

/// The vector the body reads and the one it writes: one and the same for
/// the in-place sweeps, `x` and an output window of one field for
/// [`LineSweep::apply_with`].
#[derive(Clone, Copy)]
struct Vecs<P> {
    /// Values behind `read`: whole fields.
    len: usize,
    /// The vector the taps read.
    read: *const P,
    /// Holds cell `c` of output field `f` at `f · cells + c − first`, from
    /// cell `first` to the last line the call covers.
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
    /// `a·b + acc`.
    unsafe fn fmadd(a: Self::V, b: Self::V, acc: Self::V) -> Self::V;
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
    unsafe fn fmadd(a: [P; W], b: [P; W], acc: [P; W]) -> [P; W] {
        core::array::from_fn(|l| a[l] * b[l] + acc[l])
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
    unsafe fn fmadd(a: L::P, b: L::P, acc: L::P) -> L::P {
        L::fma1(a, b, acc)
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

/// What phase 1 needs of the line it is on.
struct Line<'t, P> {
    /// First cell of the line.
    lbase: usize,
    /// Per output field, the taps whose whole shifted line is inside the
    /// field they read.
    taps: [&'t [TapMeta]; MAX_COMPONENTS],
    /// The row (`nx` values) field `f`'s accumulator starts from is at
    /// `start.0 + f · start.1`.
    start: (*const P, usize),
    /// Where phase 1 leaves field `f`'s row, at `row.0 + f · row.1`: `c`
    /// for the recurrence to consume, the output line itself when there is
    /// none to run.
    row: (*mut P, usize),
}

/// Phase 1 for the `L::W` cells starting at cell `i` of `line`: accumulate
/// each field's taps onto its start row, then emit `c = D⁻¹·acc` and
/// `E = −D⁻¹·A_w` — or, without a diagonal, the accumulated rows
/// themselves. `R` is the field count, 0 for the descriptor's.
///
/// # Safety
/// `i + L::W <= nx`; the rows of `line` are valid for `nx` elements and
/// `e` for `fields² · nx`; plus the descriptor invariants
/// [`LineSweep::new`] and [`LineSweep::dispatch`] establish.
#[inline(always)]
#[allow(clippy::needless_range_loop)] // index form mirrors the block algebra
unsafe fn chunk<L: Lanes, const R: usize>(
    k: &LineSweep<'_, L::S, L::P>,
    line: &Line<'_, L::P>,
    i: usize,
    x: *const L::P,
    e: *mut L::P,
) {
    let Shape { nx, cells, fields, ref rec, .. } = k.shape;
    let r = if R == 0 { fields } else { R };
    let at = line.lbase + i;
    let here = k.data.as_ptr().add(at);
    let plane = |t: usize| here.add(t * cells);
    let mut acc = [L::load(line.start.0.add(i)); MAX_COMPONENTS];
    for co in 0..r {
        let mut a = L::load(line.start.0.add(co * line.start.1 + i));
        for t in line.taps[co] {
            let xv = L::load(x.offset(at as isize + t.x_offset as isize));
            a = L::fnmadd(L::widen(here.add(t.coef)), xv, a);
        }
        acc[co] = a;
    }
    // D⁻¹, row-major, before the first store below can alias it.
    let mut dinv = [acc[0]; MAX_COMPONENTS * MAX_COMPONENTS];
    match k.diag {
        Diag::Inv(di) => {
            for (q, d) in dinv.iter_mut().enumerate().take(r * r) {
                *d = L::load(di.as_ptr().add(q * cells + at));
            }
        }
        Diag::Tap(t) => dinv[0] = L::recip(L::widen(plane(t))),
        Diag::Absent { negate } => {
            for co in 0..r {
                let row = if negate { L::neg(acc[co]) } else { acc[co] };
                L::store(line.row.0.add(co * line.row.1 + i), row);
            }
            return;
        }
    }
    // c = D⁻¹·acc and, column by column, E = −D⁻¹·A_w.
    for co in 0..r {
        L::store(line.row.0.add(co * line.row.1 + i), times::<L>(&dinv[co * r..], &acc, r));
    }
    if rec[0][0] == NO_TAP {
        return;
    }
    for ci in 0..r {
        let mut col = [acc[0]; MAX_COMPONENTS];
        for j in 0..r {
            col[j] = L::widen(plane(rec[j][ci]));
        }
        for co in 0..r {
            let s = times::<L>(&dinv[co * r..], &col, r);
            L::store(e.add((co * r + ci) * nx + i), L::neg(s));
        }
    }
}

/// `Σ_j row[j] · v[j]` over the first `r` entries.
///
/// # Safety
/// `r ≥ 1` entries in both, and the CPU features `L` needs.
#[inline(always)]
unsafe fn times<L: Lanes>(row: &[L::V], v: &[L::V], r: usize) -> L::V {
    let mut s = L::mul(v[0], row[0]);
    for j in 1..r {
        s = L::fmadd(row[j], v[j], s);
    }
    s
}

/// The sweep: `nlines` x-lines in order from cell `v.first`, phase 1 then
/// the recurrence (phase 1 straight into the output for a descriptor
/// without a diagonal). `R` is the field count, 0 for the descriptor's.
///
/// # Safety
/// The descriptor invariants [`LineSweep::new`] and [`LineSweep::dispatch`]
/// establish hold for `v`; `v.read` is valid for `v.len` reads and
/// `v.write` for `nlines · nx` writes in each output field, the two being
/// equal for a descriptor with a diagonal; `v.first` is a line start with
/// `nlines` lines after it in the grid; `c` is `fields · nx` long and `e`
/// `fields² · nx`; `R` is 0 or the field count; and the CPU features `L`
/// needs are enabled in the function this is inlined into.
#[inline(always)]
#[allow(clippy::needless_range_loop)] // index form mirrors the block algebra
unsafe fn sweep_lines<L: Lanes, const R: usize>(
    k: &LineSweep<'_, L::S, L::P>,
    v: Vecs<L::P>,
    nlines: usize,
    c: &mut [L::P],
    e: &mut [L::P],
) {
    let Shape { nx, cells, fields, ref bulk, ref rec, backward, clear_lines } = k.shape;
    let r = if R == 0 { fields } else { R };
    let (x, has_rec) = (v.read, rec[0][0] != NO_TAP);
    let in_place = !matches!(k.diag, Diag::Absent { .. });
    // Sorted strides: the extremes of each field's taps bound their reach.
    let reach = |end: fn(&[TapMeta]) -> Option<&TapMeta>, sign: i64| {
        bulk[..r].iter().filter_map(|g| end(g)).map(|t| (sign * t.cell_stride).max(0)).max()
    };
    let reach_back = reach(<[TapMeta]>::first, -1).unwrap_or(0);
    let reach_fwd = reach(<[TapMeta]>::last, 1).unwrap_or(0);
    for lstep in 0..nlines {
        let lbase = v.first + if backward { nlines - 1 - lstep } else { lstep } * nx;
        let (lo, hi) = (lbase as i64, (lbase + nx) as i64);
        // Field `f` of the line is at `out + f · cells`.
        let out = v.write.add(lbase - v.first);
        if clear_lines {
            for co in 0..r {
                core::slice::from_raw_parts_mut(out.add(co * cells), nx).fill(L::P::ZERO);
            }
        }

        // Taps whose whole shifted line is in bounds are contiguous in
        // each field's sorted list: everywhere but near the first and last
        // z-plane, that is all of them.
        let mut taps = *bulk;
        let mut seeded = false;
        if lo < reach_back || hi + reach_fwd > cells as i64 {
            for co in 0..r {
                let g = bulk[co];
                let f0 = g.partition_point(|t| lo + t.cell_stride < 0);
                let f1 = g.partition_point(|t| hi + t.cell_stride <= cells as i64).max(f0);
                taps[co] = &g[f0..f1];
                // The rest reach their field on part of the line at most
                // (the grid's first and last line): bounds-checked, folded
                // into the rows phase 1 starts from.
                for t in g[..f0].iter().chain(&g[f1..]) {
                    let first = lo + t.cell_stride;
                    let i0 = (-first).clamp(0, nx as i64) as usize;
                    let i1 = (cells as i64 - first).clamp(i0 as i64, nx as i64) as usize;
                    if i0 < i1 && !seeded {
                        match k.b {
                            Some(b) => {
                                for (f, row) in c.chunks_exact_mut(nx).enumerate() {
                                    row.copy_from_slice(&b[f * cells + lbase..][..nx]);
                                }
                            }
                            None => c.fill(L::P::ZERO),
                        }
                        seeded = true;
                    }
                    for i in i0..i1 {
                        let a = L::P::from_f64(k.data[t.coef + lbase + i].load_f64());
                        c[co * nx + i] -= a * *x.offset((lbase + i) as isize + t.x_offset as isize);
                    }
                }
            }
        }

        let (cp, ep) = (c.as_mut_ptr(), e.as_mut_ptr());
        // Without a right-hand side the rows start from zeros: `e`, which
        // only a recurrence tap would write and such a descriptor has none.
        let start = match k.b {
            _ if seeded => (cp.cast_const(), nx),
            Some(b) => (b.as_ptr().add(lbase), cells),
            None => (ep.cast_const(), 0),
        };
        let row = if in_place { (cp, nx) } else { (out, cells) };
        let line = Line { lbase, taps, start, row };
        // Chunks in sweep order, so the next line's first chunk needs the
        // cells this line's recurrence writes first and the two overlap in
        // the pipeline.
        let whole = nx / L::W;
        for n in 0..whole {
            let i = if backward { nx - (n + 1) * L::W } else { n * L::W };
            chunk::<L, R>(k, &line, i, x, ep);
        }
        let rem = nx - whole * L::W;
        if rem > 0 && whole > 0 && !(seeded && in_place) {
            // Remainder: redo the W cells flush with the far end. Not on a
            // seeded line whose start rows the chunks overwrite in place.
            let i = if backward { 0 } else { nx - L::W };
            chunk::<L, R>(k, &line, i, x, ep);
        } else {
            let first = if backward { 0 } else { nx - rem };
            for i in first..first + rem {
                chunk::<Tail<L>, R>(k, &line, i, x, ep);
            }
        }
        if !in_place {
            continue;
        }

        if !has_rec {
            for co in 0..r {
                let row = core::slice::from_raw_parts_mut(out.add(co * cells), nx);
                row.copy_from_slice(&c[co * nx..][..nx]);
            }
            continue;
        }
        // The recurrence. The cell before the line in sweep order wraps to
        // the neighbouring line (its E is a stored zero) or falls off the
        // field.
        let before = if backward { lbase + nx } else { lbase.wrapping_sub(1) };
        let mut prev = [L::P::ZERO; MAX_COMPONENTS];
        if before < cells {
            for ci in 0..r {
                prev[ci] = *x.add(ci * cells + before);
            }
        }
        for istep in 0..nx {
            let i = if backward { nx - 1 - istep } else { istep };
            let mut next = [L::P::ZERO; MAX_COMPONENTS];
            for co in 0..r {
                let mut s = *cp.add(co * nx + i);
                for ci in 0..r {
                    s = L::fma1(*ep.add((co * r + ci) * nx + i), prev[ci], s);
                }
                next[co] = s;
            }
            for co in 0..r {
                *out.add(co * cells + i) = next[co];
            }
            prev = next;
        }
    }
}

/// [`sweep_lines`] instantiated for the descriptor's field count.
///
/// # Safety
/// As [`sweep_lines`].
#[inline(always)]
unsafe fn sweep_by_fields<L: Lanes>(
    k: &LineSweep<'_, L::S, L::P>,
    v: Vecs<L::P>,
    nlines: usize,
    c: &mut [L::P],
    e: &mut [L::P],
) {
    match k.shape.fields {
        1 => sweep_lines::<L, 1>(k, v, nlines, c, e),
        2 => sweep_lines::<L, 2>(k, v, nlines, c, e),
        3 => sweep_lines::<L, 3>(k, v, nlines, c, e),
        4 => sweep_lines::<L, 4>(k, v, nlines, c, e),
        _ => sweep_lines::<L, 0>(k, v, nlines, c, e),
    }
}

/// The AVX2 + FMA + F16C instantiations.
#[cfg(target_arch = "x86_64")]
mod x86 {
    use core::arch::x86_64::*;

    use fp16mg_fp::F16;

    use super::{sweep_by_fields, Lanes, LineSweep, Vecs};

    /// [`sweep_by_fields`] compiled with the features the AVX lanes need.
    ///
    /// # Safety
    /// As [`super::sweep_lines`], and the CPU has AVX2, FMA and F16C.
    #[target_feature(enable = "avx2,fma,f16c")]
    pub(super) unsafe fn sweep_lines_avx<L: Lanes>(
        k: &LineSweep<'_, L::S, L::P>,
        v: Vecs<L::P>,
        nlines: usize,
        c: &mut [L::P],
        e: &mut [L::P],
    ) {
        sweep_by_fields::<L>(k, v, nlines, c, e);
    }

    /// 256-bit lanes of `$p` over a storage type `$s` widened by `$widen`,
    /// on the `ps` or `pd` intrinsics named.
    macro_rules! avx_lanes {
        ($(#[$doc:meta])* $name:ident: $s:ty => $p:ty, $v:ty, $w:literal,
         $load:ident $store:ident $fnmadd:ident $fmadd:ident $mul:ident $xor:ident $set1:ident
         $div:ident, |$ptr:ident| $widen:expr, |$a:ident, $b:ident, $c:ident| $fma1:expr) => {
            $(#[$doc])*
            pub(super) struct $name;

            impl Lanes for $name {
                type S = $s;
                type P = $p;
                type V = $v;
                const W: usize = $w;

                #[inline(always)]
                unsafe fn load(p: *const $p) -> $v {
                    $load(p)
                }
                #[inline(always)]
                unsafe fn store(p: *mut $p, v: $v) {
                    $store(p, v);
                }
                #[inline(always)]
                unsafe fn widen($ptr: *const $s) -> $v {
                    $widen
                }
                #[inline(always)]
                unsafe fn fnmadd(a: $v, x: $v, acc: $v) -> $v {
                    $fnmadd(a, x, acc)
                }
                #[inline(always)]
                unsafe fn fmadd(a: $v, b: $v, acc: $v) -> $v {
                    $fmadd(a, b, acc)
                }
                #[inline(always)]
                unsafe fn mul(a: $v, b: $v) -> $v {
                    $mul(a, b)
                }
                #[inline(always)]
                unsafe fn neg(a: $v) -> $v {
                    $xor(a, $set1(-0.0))
                }
                #[inline(always)]
                unsafe fn recip(a: $v) -> $v {
                    $div($set1(1.0), a)
                }
                #[inline(always)]
                unsafe fn fma1($a: $p, $b: $p, $c: $p) -> $p {
                    $fma1
                }
            }
        };
    }

    avx_lanes!(
        /// FP16 planes, `f32` vectors: one `vcvtph2ps` per tap per 8 cells.
        F16Lanes: F16 => f32, __m256, 8,
        _mm256_loadu_ps _mm256_storeu_ps _mm256_fnmadd_ps _mm256_fmadd_ps _mm256_mul_ps
        _mm256_xor_ps _mm256_set1_ps _mm256_div_ps,
        |p| _mm256_cvtph_ps(_mm_loadu_si128(p.cast())),
        |a, b, c| _mm_cvtss_f32(_mm_fmadd_ss(_mm_set_ss(a), _mm_set_ss(b), _mm_set_ss(c)))
    );
    avx_lanes!(
        /// `f32` planes and vectors (the full-FP32 baseline of Fig. 7).
        F32Lanes: f32 => f32, __m256, 8,
        _mm256_loadu_ps _mm256_storeu_ps _mm256_fnmadd_ps _mm256_fmadd_ps _mm256_mul_ps
        _mm256_xor_ps _mm256_set1_ps _mm256_div_ps,
        |p| _mm256_loadu_ps(p),
        |a, b, c| _mm_cvtss_f32(_mm_fmadd_ss(_mm_set_ss(a), _mm_set_ss(b), _mm_set_ss(c)))
    );
    avx_lanes!(
        /// `f64` planes and vectors, four lanes (the Full64 baseline).
        F64Lanes: f64 => f64, __m256d, 4,
        _mm256_loadu_pd _mm256_storeu_pd _mm256_fnmadd_pd _mm256_fmadd_pd _mm256_mul_pd
        _mm256_xor_pd _mm256_set1_pd _mm256_div_pd,
        |p| _mm256_loadu_pd(p),
        |a, b, c| _mm_cvtsd_f64(_mm_fmadd_sd(_mm_set_sd(a), _mm_set_sd(b), _mm_set_sd(c)))
    );
}
