//! Reusable solver scratch: the per-solve work vectors, preallocated
//! once and handed back to every solve.
//!
//! A single [`crate::cg_ctl`] call already allocates its four work
//! vectors only once, before the iteration loop — but a driver that
//! solves repeatedly at the same size (a time stepper, a serve daemon)
//! pays that allocation per solve. [`SolveScratch`] hoists it: carve the
//! vectors once, pass `&mut scratch` to [`crate::cg_ctl_in`] or
//! [`crate::gmres_ctl_in`], and every warm solve runs without touching
//! the heap at all.

use fp16mg_fp::Scalar;

/// Work vectors CG needs (`r`, `z`, `p`, `Ap`) — what [`SolveScratch::new`]
/// sizes for.
const CG_VECTORS: usize = 4;

/// One flat buffer the solvers carve their work vectors from, reusable
/// across solves of the same size: CG takes four vectors, GMRES(m) its
/// residual, a work vector and the `m` + `m` vectors of the Krylov and
/// flexible bases.
pub struct SolveScratch<K: Scalar> {
    buf: Vec<K>,
}

impl<K: Scalar> SolveScratch<K> {
    /// Allocates scratch for systems of `n` unknowns (CG-sized; a GMRES
    /// solve grows it on first use).
    pub fn new(n: usize) -> Self {
        SolveScratch { buf: vec![K::ZERO; CG_VECTORS * n] }
    }

    /// Number of unknowns a CG solve can use without growing the scratch.
    pub fn len(&self) -> usize {
        self.buf.len() / CG_VECTORS
    }

    /// True when sized for zero unknowns.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Grows the scratch to `n` unknowns if it is smaller (no-op, and no
    /// allocation, when already large enough).
    pub fn ensure(&mut self, n: usize) {
        self.vectors(n, CG_VECTORS);
    }

    /// Bytes held by the scratch vectors.
    pub fn bytes(&self) -> usize {
        self.buf.capacity() * core::mem::size_of::<K>()
    }

    /// `count` contiguous vectors of `n` unknowns each, growing the
    /// buffer only when it is too small. Contents are unspecified.
    pub(crate) fn vectors(&mut self, n: usize, count: usize) -> &mut [K] {
        if self.buf.len() < count * n {
            // A fresh zeroed allocation, not `resize`: nothing in the old
            // buffer is worth copying, and untouched zero pages stay
            // unmapped until a solve actually reaches them.
            self.buf = vec![K::ZERO; count * n];
        }
        &mut self.buf[..count * n]
    }
}
