//! Cooperative per-iteration solve control.
//!
//! A long-running Krylov solve is a unit of work that an outer runtime
//! may need to bound (a wall-clock deadline). The solvers poll a
//! [`SolveControl`] once per iteration — before any matrix or
//! preconditioner work for that iteration — and stop with
//! [`crate::StopReason::Interrupted`] and the returned typed
//! [`SolveError`] the moment the hook objects. The
//! iterate `x` is left at its last completed state, so a caller that
//! raised a *soft* limit can resume from it.
//!
//! The hook deliberately lives on a trait rather than inside
//! [`crate::SolveOptions`]: options stay `Clone + Debug` plain data,
//! while controls may carry clocks and counters.

use crate::health::SolveError;

/// Per-iteration control hook polled by every solver loop.
pub trait SolveControl {
    /// Called at the top of each iteration (for GMRES: each *inner*
    /// iteration) with the iteration number about to run. Returning an
    /// error aborts the solve immediately with
    /// [`crate::StopReason::Interrupted`] and the error recorded in
    /// [`crate::SolveResult::interrupt`].
    ///
    /// # Errors
    /// The typed reason the solve must stop (e.g. a passed deadline).
    fn check(&mut self, iter: usize) -> Result<(), SolveError>;
}

/// The do-nothing control: never interrupts. Used by the plain solver
/// entry points ([`crate::cg`], [`crate::gmres`], …).
#[derive(Clone, Copy, Debug, Default)]
pub struct NoControl;

impl SolveControl for NoControl {
    fn check(&mut self, _iter: usize) -> Result<(), SolveError> {
        Ok(())
    }
}

/// Closures are controls: `|iter| if done { Err(...) } else { Ok(()) }`.
/// The solvers take `&mut impl SolveControl`, so one control instance
/// (e.g. a budget guard) can be polled through several attempts.
impl<F: FnMut(usize) -> Result<(), SolveError>> SolveControl for F {
    fn check(&mut self, iter: usize) -> Result<(), SolveError> {
        self(iter)
    }
}
