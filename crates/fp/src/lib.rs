//! Half-precision scalar types for the FP16 multigrid preconditioner.
//!
//! This crate implements the two 16-bit floating-point formats discussed in
//! the paper from scratch:
//!
//! * [`F16`] — IEEE 754-2008 `binary16` (1 sign, 5 exponent, 10 mantissa
//!   bits). This is the storage precision the paper advocates: higher
//!   accuracy than bfloat16 but a narrow range (`F16::MAX` = 65504), so
//!   out-of-range matrices must be scaled before truncation.
//! * [`Bf16`] — bfloat16 (1 sign, 8 exponent, 7 mantissa bits). Same range
//!   as `f32`, so no scaling is needed, but with only 7 mantissa bits its
//!   accuracy is worse; the paper's §8 reports it costs more solver
//!   iterations. We implement it to reproduce that comparison.
//!
//! All conversions round to nearest, ties to even, and overflow saturates to
//! ±∞ exactly as hardware `vcvtps2ph` does — the paper's "no-scaling"
//! ablation (`K64P32D16-none`) relies on genuine overflow producing `inf`
//! which then propagates to `NaN` through the solve.
//!
//! The [`simd`] module provides bulk slice conversion that uses the x86
//! F16C instructions (`vcvtph2ps` / `vcvtps2ph`) when available at runtime,
//! which is the instruction-level optimization of §5 of the paper: one
//! convert instruction per SIMD vector instead of one per scalar.

#![warn(missing_docs)]
pub mod bf16;
pub mod checksum;
pub mod classify;
pub mod f16;
pub mod simd;
pub mod traits;

pub use bf16::Bf16;
pub use checksum::{checksum_slice, Fnv1a, LaneHash, LaneSums};
pub use classify::{ClassCounts, NumClass};
pub use f16::F16;
pub use traits::{Precision, Scalar, Storage};

#[cfg(test)]
mod tests;
