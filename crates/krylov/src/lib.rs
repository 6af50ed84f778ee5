//! Krylov iterative solvers in the paper's *iterative precision* `K`.
//!
//! Nothing in this crate knows about multigrid or FP16: the solvers are
//! generic over a [`LinOp`] (the system matrix) and a [`Preconditioner`].
//! That is exactly the paper's separation (§4.2): "all the optimizations
//! focus on preconditioners, so nothing special is applied to iterative
//! solvers". The preconditioner boundary is where precision changes: the
//! solver hands over a `K`-precision residual and receives a `K`-precision
//! error estimate; any internal truncation (Algorithm 2 lines 4/6) is the
//! preconditioner's business.
//!
//! Solvers: preconditioned flexible [`cg`] (SPD systems; the paper's rhd,
//! rhd-3T, solid-3D, laplace27), restarted flexible [`gmres`]
//! (nonsymmetric; oil, oil-4C, weather), and the stationary
//! [`richardson`] iteration of Algorithm 2.
//! All record the per-iteration relative residual history that Fig. 6
//! plots.

#![warn(missing_docs)]
mod cg;
pub mod control;
mod gmres;
pub mod health;
mod richardson;
mod scratch;
mod traits;
mod types;

pub use cg::{cg, cg_ctl};
pub use control::{NoControl, SolveControl};
pub use gmres::{gmres, gmres_ctl};
pub use health::{Breakdown, HealthPolicy, IterHealth, SolveError, SolveHealth, Stagnation};
pub use richardson::{richardson, richardson_ctl};
pub use traits::{
    axpy, axpy_norm2, dot, dot_pair, norm2, xpby, IdentityPrecond, LinOp, Preconditioner,
    TimedPrecond,
};
pub use types::{SolveOptions, SolveResult, StopReason};

#[cfg(test)]
mod tests;
