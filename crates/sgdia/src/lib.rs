//! SG-DIA structured sparse matrices and their mixed-precision kernels.
//!
//! The structured-grid-diagonal (SG-DIA) format (paper §3.2) stores one
//! value per (grid cell, stencil tap) pair and **no integer index arrays**:
//! the nonzero pattern is implied by the stencil. That is the property that
//! makes FP16 compression pay off — compressing the floating-point data
//! compresses the whole matrix, giving the 2×/4× memory-volume reductions
//! of Table 2, whereas CSR's index arrays put a <1.3–2× ceiling on
//! unstructured formats.
//!
//! Contents:
//!
//! * [`SgDia`] — the matrix container, generic over the storage scalar
//!   ([`fp16mg_fp::Storage`]: `f64`, `f32`, `F16`, `Bf16`) and over the
//!   in-memory [`Layout`] (AOS, one cell's taps contiguous, vs SOA, one
//!   tap's cells contiguous — the §5.1 transformation).
//! * [`kernels`] — SpMV, residual, Gauss–Seidel and SpTRSV in the flavors
//!   of the Fig. 7 ablation: per-entry scalar (the *naive* mixed-precision
//!   kernel, one convert per entry) and the SOA x-line kernel (the
//!   *optimized* one: an F16C convert amortized over 8 entries, the
//!   accumulator in a register), which also runs the full-FP32 / FP64
//!   baselines (same code path, no conversion) and vector PDEs of any
//!   component count.
//! * [`csr`] — a CSR reference implementation used to validate the
//!   structured kernels and to stand in for the "vendor library"
//!   (ARMPL/MKL) comparison point.
//! * [`model`] — the Table 2 bytes-per-nonzero model and speedup upper
//!   bounds.
//! * [`io`] — binary matrix/vector serialization (storage precision
//!   preserved bit-for-bit) and Matrix Market interchange.
//! * [`scaling`] — the symmetric diagonal scaling of Theorem 4.1:
//!   `G_max` computation, `Q^{-1/2} A Q^{-1/2}` application, and the
//!   recover-and-rescale vector helpers.

//!
//! # Vector PDEs
//!
//! A matrix over an `r`-component grid stores `r²` scalar planes per
//! spatial tap, one per `(cout, cin)` pair, and its vectors are numbered
//! component-major ([`fp16mg_grid::Grid3::unknown`]): `r` contiguous
//! scalar fields. That is the SOA decision of §5.1 applied to the vectors
//! as well as the planes — a block coupling is then a scalar stencil tap
//! from one field to another, every inner loop runs along contiguous
//! x-lines of one plane and one field, and one convert and one FMA serve
//! a whole SIMD vector. The cell-major alternative (a cell's `r`
//! unknowns adjacent, its `r × r` block contiguous) makes those loops
//! stride-`r` and was measured 10× slower per nonzero in FP16
//! (DESIGN.md §8.5).

#![warn(missing_docs)]
pub mod audit;
pub mod csr;
pub mod fault;
pub mod io;
pub mod kernels;
pub mod matrix;
pub mod model;
pub mod par;
pub mod scaling;
pub mod scan;
pub mod sentinel;

pub use audit::{drift, OperatorDrift, RangeAudit, TruncationError, TruncationPolicy};
pub use csr::Csr;
pub use matrix::{Layout, SgDia};
pub use par::Par;
pub use sentinel::{MatrixSentinels, TapMismatch, TapSentinel};

#[cfg(test)]
mod tests;
