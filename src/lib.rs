//! # fp16mg — FP16-accelerated structured multigrid preconditioner
//!
//! A from-scratch Rust reproduction of *"FP16 Acceleration in Structured
//! Multigrid Preconditioner for Real-World Applications"* (Zong, Yu,
//! Huang, Xue — ICPP 2024, DOI 10.1145/3673038.3673040).
//!
//! The headline idea: store a structured algebraic multigrid
//! preconditioner's matrices in IEEE-754 binary16 — halving the dominant
//! memory traffic of the bandwidth-bound solve — while keeping vectors in
//! FP32 and the outer Krylov iteration in FP64. Out-of-range matrices are
//! made safe by *setup-then-scale* symmetric diagonal scaling
//! (Theorem 4.1), and the FP16→FP32 conversion cost is hidden by an
//! AOS→SOA storage transform with SIMD bulk conversion.
//!
//! ## Crate map
//!
//! | module | crate | contents |
//! |--------|-------|----------|
//! | [`fp`] | `fp16mg-fp` | binary16/bfloat16 soft-float + F16C SIMD conversion |
//! | [`stencil`] | `fp16mg-stencil` | 3d7/3d15/3d19/3d27 patterns, triangular splits |
//! | [`grid`] | `fp16mg-grid` | structured grids, coarsening, box decomposition |
//! | [`sgdia`] | `fp16mg-sgdia` | SG-DIA matrices, mixed-precision kernels, scaling, CSR reference |
//! | [`mg`] | `fp16mg-core` | Galerkin setup, V-cycle, precision policies — the paper's contribution |
//! | [`krylov`] | `fp16mg-krylov` | CG / FGMRES / Richardson in the iterative precision |
//! | [`problems`] | `fp16mg-problems` | the eight evaluation problems + numerical metrics |
//!
//! ## Quickstart
//!
//! ```
//! use fp16mg::grid::Grid3;
//! use fp16mg::krylov::{cg, SolveOptions};
//! use fp16mg::mg::{MatOp, Mg, MgConfig};
//! use fp16mg::sgdia::{kernels::Par, Layout, SgDia};
//! use fp16mg::stencil::Pattern;
//!
//! // A 7-point Poisson matrix on a 16^3 grid.
//! let grid = Grid3::cube(16);
//! let pattern = Pattern::p7();
//! let taps: Vec<_> = pattern.taps().to_vec();
//! let a = SgDia::<f64>::from_fn(grid, pattern, Layout::Soa, |_, _, _, _, t| {
//!     if taps[t].is_diagonal() { 6.0 } else { -1.0 }
//! });
//!
//! // FP16-storage multigrid, FP64 CG around it.
//! let mut mg = Mg::<f32>::setup(&a, &MgConfig::d16()).unwrap();
//! let b = vec![1.0f64; a.rows()];
//! let mut x = vec![0.0f64; a.rows()];
//! let op = MatOp::new(&a, Par::Seq);
//! let result = cg(&op, &mut mg, &b, &mut x, &SolveOptions::default());
//! assert!(result.converged());
//! ```

#![warn(missing_docs)]
pub use fp16mg_core as mg;
pub use fp16mg_fp as fp;
pub use fp16mg_grid as grid;
pub use fp16mg_krylov as krylov;
pub use fp16mg_problems as problems;
pub use fp16mg_sgdia as sgdia;
pub use fp16mg_stencil as stencil;
