//! Mixed-precision structured kernels.
//!
//! Every kernel reads matrix entries in the storage precision `S` and
//! widens them to the computation precision `P` *in registers* — the
//! "recover on the fly" of §4.2: no FP32 copy of the matrix is ever
//! materialized, so the memory volume stays at `S::BYTES` per entry.
//!
//! Two implementations reproduce the Fig. 7 ablation:
//!
//! * **generic** — scalar loop, one convert per entry. On AOS data this is
//!   the paper's *naive* mixed-precision kernel whose convert overhead
//!   eats the bandwidth win; it also takes the sweeps over patterns wider
//!   than radius 1 along x and, with [`crate::csr`], is the oracle the
//!   tests hold the line kernel against.
//! * **line** — every kernel on SOA data, for any component count, runs
//!   one x-line at a time through `line`, a SIMD vector of cells at a
//!   time with the accumulator in a register and one convert per vector
//!   (8-wide F16C for FP16; a plain load keeps the FP32 / FP64 baselines
//!   on the same code). Unknowns are numbered component-major
//!   ([`fp16mg_grid::Grid3::unknown`]), so a vector PDE is `r` scalar
//!   fields and a block coupling is a scalar tap between two of them.
//!   [`spmv()`], [`residual`] and [`residual_upper`] are that vector phase
//!   alone, once per output field. For the inherently sequential sweeps
//!   ([`gs_forward`], [`sptrsv_forward`] and their backward twins) it
//!   covers every coupling outside the line's dependency chain (the
//!   paper's SpTRSV treatment), which leaves a first-order `r × r`
//!   recurrence of hardware FMAs per cell. One body, instantiated for
//!   `(F16, f32)`, `(f32, f32)` and `(f64, f64)` on AVX2 and portably for
//!   every other pair, so a sweep costs about what an SpMV over the same
//!   bytes does in every precision.
//!
//! A multigrid level is entered with a zero iterate, so its first forward
//! sweep multiplies the upper half of the matrix by zeros and, after it,
//! `(L + D) x = b` makes the residual `−U x`: [`gs_forward_from_zero`] and
//! [`residual_upper`] each read one half (`TapSet`) instead.

mod diag;
mod gs;
mod line;
mod scratch;
mod spmv;
mod sptrsv;

pub use diag::BlockDiagInv;
#[cfg(test)]
pub(crate) use gs::sweep as gs_sweep;
pub use gs::{gs_backward, gs_forward, gs_forward_from_zero};
pub(crate) use scratch::{with_bufs, with_tap_metas, with_taps2};
pub use spmv::{
    residual, residual_upper, spmv, spmv_probing_symmetry, spmv_symmetric, SymmetricAsStored,
};
#[cfg(test)]
pub(crate) use sptrsv::solve as sptrsv_solve;
pub use sptrsv::{sptrsv_backward, sptrsv_forward};

pub use crate::par::Par;
use fp16mg_grid::Grid3;
use fp16mg_stencil::Pattern;

/// Which couplings a kernel reads, by the sign of the tap's cell stride —
/// the row-major splitting `A = L + D + U`. The centre block has stride 0
/// and belongs to neither half: the sweeps apply it through
/// [`BlockDiagInv`], and only [`TapSet::All`] multiplies by it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum TapSet {
    /// Every tap.
    All,
    /// Strictly lower: the cells a forward sweep has already visited.
    Lower,
    /// Strictly upper: the cells a forward sweep has yet to visit.
    Upper,
}

impl TapSet {
    /// Whether a tap with this cell stride is in the set.
    #[inline]
    pub(crate) fn has(self, cell_stride: i64) -> bool {
        match self {
            TapSet::All => true,
            TapSet::Lower => cell_stride < 0,
            TapSet::Upper => cell_stride > 0,
        }
    }

    /// The taps of `metas` in the set.
    #[inline]
    pub(crate) fn select(self, metas: &[TapMeta]) -> impl Iterator<Item = &TapMeta> {
        metas.iter().filter(move |m| self.has(m.cell_stride))
    }
}

/// Per-tap metadata resolved once per kernel invocation.
#[derive(Clone, Copy, Debug)]
pub(crate) struct TapMeta {
    /// Index of the tap in the pattern: its own coefficient plane.
    pub tap: usize,
    /// Where the tap's coefficient for a cell sits in SOA data, relative
    /// to the cell: `tap · cells` in its own plane, or — [`mirror_upper`]
    /// — the transposed tap's plane read `cell_stride` further on.
    pub coef: usize,
    /// Signed cell-index delta of the tap's spatial offset.
    pub cell_stride: i64,
    /// Where the tap reads a component-major vector, relative to the cell
    /// it writes: `cin · cells + cell_stride`.
    pub x_offset: i64,
    /// Output (row) component.
    pub cout: usize,
    /// Input (column) component.
    pub cin: usize,
    /// True for taps in the zero-offset (diagonal) block.
    pub center: bool,
    /// True for the exact scalar diagonal (center && cin == cout).
    pub diagonal: bool,
    /// True when the tap stays within an x-line (`dy == dz == 0`): these
    /// taps form the sequential dependency chain of line-based sweeps;
    /// all other taps can be bulk-accumulated.
    pub in_line: bool,
}

/// Resolves the pattern's taps into `out` (cleared first). Kernels call
/// this through [`scratch::with_tap_metas`], which supplies a pooled
/// per-thread vector so steady-state invocations allocate nothing.
pub(crate) fn fill_tap_metas(grid: &Grid3, pattern: &Pattern, out: &mut Vec<TapMeta>) {
    out.clear();
    out.extend(pattern.taps().iter().enumerate().map(|(tap, t)| TapMeta {
        tap,
        coef: tap * grid.cells(),
        cell_stride: grid.stride(t.dx, t.dy, t.dz),
        x_offset: grid.field(t.cin as usize).start as i64 + grid.stride(t.dx, t.dy, t.dz),
        cout: t.cout as usize,
        cin: t.cin as usize,
        center: t.is_center(),
        diagonal: t.is_diagonal(),
        in_line: t.dy == 0 && t.dz == 0,
    }));
}

/// Points every tap of `taps` above the diagonal at the coefficient its
/// transpose stores. Above the diagonal is a positive cell stride, or at
/// stride zero the tap that comes before its transpose: `cin > cout` in
/// the centre block (and, on a grid one cell thick, one of two offsets
/// that cancel). For `A = Aᵀ`, `a(i, i + d) = a(i + d, i)`: tap `(off, cout,
/// cin)` at cell `i` is tap `(−off, cin, cout)` at cell `i + d`, in a plane
/// the product reads anyway. Index, stride and order of the taps stay, so
/// the same products are summed in the same order from half the planes.
///
/// # Panics
/// Panics when the pattern lacks a transposed tap
/// ([`Pattern::is_symmetric`]).
pub(crate) fn mirror_upper(grid: &Grid3, pattern: &Pattern, taps: &mut [TapMeta]) {
    for m in taps.iter_mut().filter(|m| m.cell_stride >= 0) {
        let twin = pattern.tap_index(pattern.taps()[m.tap].transpose());
        let twin = twin.expect("a symmetric pattern holds every tap's transpose");
        if m.cell_stride > 0 || m.tap < twin {
            m.coef = twin * grid.cells() + m.cell_stride as usize;
        }
    }
}

/// Casts a slice to a concrete element type when the generic parameter is
/// exactly that type (poor man's specialization for kernel dispatch).
#[inline]
pub(crate) fn cast_slice<A: 'static, B: 'static>(s: &[A]) -> Option<&[B]> {
    if core::any::TypeId::of::<A>() == core::any::TypeId::of::<B>() {
        // SAFETY: A and B are the same type, so layout and validity match.
        Some(unsafe { core::slice::from_raw_parts(s.as_ptr() as *const B, s.len()) })
    } else {
        None
    }
}

/// Mutable variant of [`cast_slice`].
#[inline]
pub(crate) fn cast_slice_mut<A: 'static, B: 'static>(s: &mut [A]) -> Option<&mut [B]> {
    if core::any::TypeId::of::<A>() == core::any::TypeId::of::<B>() {
        // SAFETY: A and B are the same type, so layout and validity match.
        Some(unsafe { core::slice::from_raw_parts_mut(s.as_mut_ptr() as *mut B, s.len()) })
    } else {
        None
    }
}

/// Maximum supported components per cell in the fixed-size accumulators.
pub(crate) const MAX_COMPONENTS: usize = 8;

/// True when the AVX2+FMA+F16C SIMD paths are usable on this CPU.
#[inline]
pub fn simd_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        use std::sync::OnceLock;
        static AVAILABLE: OnceLock<bool> = OnceLock::new();
        *AVAILABLE.get_or_init(|| {
            std::arch::is_x86_feature_detected!("avx2")
                && std::arch::is_x86_feature_detected!("fma")
                && std::arch::is_x86_feature_detected!("f16c")
        })
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}
