//! The Table 2 memory-volume model.
//!
//! Sparse solvers are bandwidth-bound, so the speedup of lowering the
//! storage precision is bounded by the reduction in bytes moved per
//! nonzero. SG-DIA stores only the value (8/4/2 bytes); CSR additionally
//! moves one column index per nonzero plus an amortized share
//! `δ = (m+1)/nnz` of the row pointer, which lower precision cannot
//! compress.

use fp16mg_fp::Precision;
use fp16mg_stencil::Pattern;

/// Average row-pointer amortization the paper measured over 2216 square
/// SuiteSparse matrices.
pub const SUITESPARSE_DELTA: f64 = 0.15;

/// Matrix storage format for the byte model.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Format {
    /// Structured-grid diagonal: values only.
    SgDia,
    /// CSR with 32-bit indices.
    CsrInt32,
    /// CSR with 64-bit indices (required once unknowns exceed ~2^31).
    CsrInt64,
}

impl Format {
    /// Bytes moved per nonzero at the given value precision, with row
    /// pointer amortization `delta` for the CSR formats.
    pub fn bytes_per_nnz(self, value: Precision, delta: f64) -> f64 {
        let v = value.bytes() as f64;
        match self {
            Format::SgDia => v,
            Format::CsrInt32 => v + 4.0 + 4.0 * delta,
            Format::CsrInt64 => v + 8.0 + 8.0 * delta,
        }
    }

    /// Upper bound of the preconditioner speedup when moving the value
    /// precision `from → to` (Table 2).
    pub fn speedup_bound(self, from: Precision, to: Precision, delta: f64) -> f64 {
        self.bytes_per_nnz(from, delta) / self.bytes_per_nnz(to, delta)
    }

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Format::SgDia => "SG-DIA",
            Format::CsrInt32 => "CSR int32",
            Format::CsrInt64 => "CSR int64",
        }
    }
}

/// Planes a product of a matrix symmetric as stored reads
/// ([`crate::kernels::spmv_symmetric`]): those below the diagonal, and of
/// the centre block those on it and below (`cin ≤ cout`).
pub fn half_read_planes(pattern: &Pattern) -> usize {
    let taps = pattern.taps().iter();
    taps.filter(|t| t.spatial_sign() < 0 || t.is_center() && t.cin <= t.cout).count()
}

/// Bytes that product moves per nonzero of the pattern: the SG-DIA value
/// bytes times the share of the planes it reads — 14 of 27 for `3d27`,
/// just over half.
pub fn half_read_bytes_per_nnz(pattern: &Pattern, value: Precision) -> f64 {
    Format::SgDia.bytes_per_nnz(value, 0.0) * half_read_planes(pattern) as f64
        / pattern.len() as f64
}

/// One row of Table 2.
#[derive(Clone, Debug)]
pub struct Table2Row {
    /// The format.
    pub format: Format,
    /// Bytes per nonzero at FP64/FP32/FP16.
    pub bytes: [f64; 3],
    /// Speedup bounds FP64/FP32, FP32/FP16, FP64/FP16.
    pub bounds: [f64; 3],
}

/// Computes Table 2 for a given row-pointer amortization.
pub fn table2(delta: f64) -> Vec<Table2Row> {
    use Precision::{F16, F32, F64};
    [Format::SgDia, Format::CsrInt32, Format::CsrInt64]
        .into_iter()
        .map(|f| Table2Row {
            format: f,
            bytes: [
                f.bytes_per_nnz(F64, delta),
                f.bytes_per_nnz(F32, delta),
                f.bytes_per_nnz(F16, delta),
            ],
            bounds: [
                f.speedup_bound(F64, F32, delta),
                f.speedup_bound(F32, F16, delta),
                f.speedup_bound(F64, F16, delta),
            ],
        })
        .collect()
}

/// Fraction of a linear system's memory footprint occupied by the matrix
/// (paper Eq. 2): `nnz / (nnz + 2m)` — the higher it is, the closer the
/// end-to-end gain gets to the matrix-only bound.
pub fn matrix_percent(nnz: usize, m: usize) -> f64 {
    nnz as f64 / (nnz as f64 + 2.0 * m as f64)
}

/// Maximum reachable SpMV speedup from storing the matrix at `to` instead
/// of `from` (the Fig. 7 "Max" series): ratio of total memory volumes,
/// counting the matrix values plus the `x` and `y` vectors at the
/// computation precision.
pub fn spmv_max_speedup(
    stored_entries: usize,
    unknowns: usize,
    from: Precision,
    to: Precision,
    compute: Precision,
) -> f64 {
    let vec_bytes = (2 * unknowns * compute.bytes()) as f64;
    let vol_from = (stored_entries * from.bytes()) as f64 + vec_bytes;
    let vol_to = (stored_entries * to.bytes()) as f64 + vec_bytes;
    vol_from / vol_to
}
