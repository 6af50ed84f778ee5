//! Structured 3-D grids: indexing, coarsening, and parallel schedules.
//!
//! The paper's target problems are PDEs discretized on logically rectangular
//! grids (§3.2), where a grid cell is addressed by `(i, j, k)` and unknowns
//! are `components` values per cell. This crate provides:
//!
//! * [`Grid3`] — dimensions, row-major linear cell indexing, the
//!   component-major numbering of unknowns (a vector PDE is `components`
//!   contiguous scalar fields), and the ×2 full coarsening used by the
//!   multigrid hierarchy;
//! * [`Wavefronts`] — hyperplane scheduling (`i + j + k = const`) for
//!   parallel sparse triangular solves, the "sophisticated parallel
//!   strategy" §5.1 alludes to for SpTRSV;
//! * [`Decomposition`] — the MPI-style box partition of §6.3 with
//!   halo-exchange volume accounting (the Fig. 10 communication model);
//! * slab partitioning helpers used by the rayon-parallel kernels.

#![warn(missing_docs)]
pub mod decomp;
mod grid3;
mod wavefront;

pub use decomp::{BoxRange, Decomposition};
pub use grid3::Grid3;
pub use wavefront::Wavefronts;

#[cfg(test)]
mod tests;
