//! FP16-accelerated structured algebraic multigrid preconditioner.
//!
//! This crate is the paper's primary contribution: a StructMG-style
//! structured AMG whose matrices can be stored in FP16 (or BF16/FP32/FP64,
//! per level) while its vectors stay in the computation precision,
//! following the four guidelines of §3:
//!
//! 1. matrices are compressed eagerly (they dominate memory traffic);
//! 2. the SG-DIA format keeps the whole footprint compressible;
//! 3. FP16 is applied from the *finest* level down, with an optional
//!    switch back to FP32 from level `shift_levid` to dodge coarse-level
//!    underflow (§4.3);
//! 4. vectors are never stored in FP16.
//!
//! The setup phase implements Algorithm 1 (*setup-then-scale*): Galerkin
//! coarsening runs entirely in `f64`, then each level is symmetrically
//! scaled per Theorem 4.1 — only if its values exceed the storage format's
//! range — and truncated. The solve phase implements Algorithm 3: a
//! V-cycle whose kernels *recover and rescale on the fly*, never
//! materializing a high-precision matrix copy. The deliberately inferior
//! *scale-then-setup* strategy and the no-scaling variant are also
//! implemented for the Fig. 6 ablation.
//!
//! [`Mg`] implements [`fp16mg_krylov::Preconditioner`], so it drops into
//! the CG/GMRES solvers unchanged (Algorithm 2).

#![warn(missing_docs)]
mod coarsen;
mod config;
mod hierarchy;
mod level;
mod ops;
pub mod reuse;
mod smoother;
mod stored;
mod transfer;
mod workspace;

pub use coarsen::{directional_strength, galerkin_rap, galerkin_rap_axes};
pub use config::{
    Coarsening, ConfigError, MgConfig, RecoveryPolicy, ScaleStrategy, SmootherKind, StoragePolicy,
};
pub use fp16mg_sgdia::audit::{RangeAudit, TruncationError, TruncationPolicy};
pub use fp16mg_sgdia::sentinel::{MatrixSentinels, TapMismatch, TapSentinel};
pub use hierarchy::{
    GalerkinChain, Insured, LevelInfo, Mg, MgInfo, PromotionEvent, PromotionReason, SetupError,
};
pub use ops::MatOp;
pub use reuse::{Retained, Reuse};
pub use smoother::{DenseLu, FactorError};
pub use stored::StoredMatrix;
pub use transfer::{prolong_add, restrict};
pub use workspace::MAX_ARENA_BYTES;

#[cfg(test)]
mod tests;
