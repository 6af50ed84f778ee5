//! Structured 3-D grids: indexing, coarsening and box decomposition.
//!
//! The paper's target problems are PDEs discretized on logically rectangular
//! grids (§3.2), where a grid cell is addressed by `(i, j, k)` and unknowns
//! are `components` values per cell. This crate provides:
//!
//! * [`Grid3`] — dimensions, row-major linear cell indexing, the
//!   component-major numbering of unknowns (a vector PDE is `components`
//!   contiguous scalar fields), and the ×2 full coarsening used by the
//!   multigrid hierarchy;
//! * [`Decomposition`] — the MPI-style box partition of §6.3 with
//!   halo-exchange volume accounting (the Fig. 10 communication model).

#![warn(missing_docs)]
pub mod decomp;
mod grid3;

pub use decomp::{BoxRange, Decomposition};
pub use grid3::Grid3;

#[cfg(test)]
mod tests;
