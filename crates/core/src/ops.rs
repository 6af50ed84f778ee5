//! Outer-solver operator wrapper.

use std::sync::OnceLock;

use fp16mg_fp::{Scalar, Storage};
use fp16mg_krylov::LinOp;
use fp16mg_sgdia::kernels::{self, Par, SymmetricAsStored};
use fp16mg_sgdia::SgDia;

/// Adapts a structured matrix to the Krylov [`LinOp`] interface in the
/// iterative precision `K` (the outer solver's `A x` of Algorithm 2
/// line 3, always performed on the original high-precision matrix).
///
/// The first product reads the whole matrix and, on the way, finds out
/// whether it is symmetric as stored
/// ([`kernels::spmv_probing_symmetry`]); every later product of a matrix
/// that is reads only the planes on and below the diagonal, to the same
/// bits ([`kernels::spmv_symmetric`]). The verdict is exact — bitwise, not
/// to a tolerance — because callers compare this product with
/// [`kernels::spmv`] to the bit, and it is kept here, per instance: the
/// matrix is borrowed for as long as the verdict is used.
pub struct MatOp<'a, S: Storage> {
    a: &'a SgDia<S>,
    par: Par,
    /// Unset until the first product has judged the matrix.
    symmetric: OnceLock<Option<SymmetricAsStored<'a, S>>>,
}

impl<'a, S: Storage> MatOp<'a, S> {
    /// Wraps a matrix with the given kernel parallelism.
    pub fn new(a: &'a SgDia<S>, par: Par) -> Self {
        MatOp { a, par, symmetric: OnceLock::new() }
    }

    /// The wrapped matrix.
    pub fn matrix(&self) -> &SgDia<S> {
        self.a
    }

    /// Whether products read half the matrix: `None` before the first one
    /// has judged it.
    pub fn reads_half(&self) -> Option<bool> {
        self.symmetric.get().map(Option::is_some)
    }
}

impl<S: Storage, K: Scalar> LinOp<K> for MatOp<'_, S> {
    fn rows(&self) -> usize {
        self.a.rows()
    }
    fn apply(&self, x: &[K], y: &mut [K]) {
        match self.symmetric.get() {
            Some(Some(half)) => kernels::spmv_symmetric(*half, x, y, self.par),
            Some(None) => kernels::spmv(self.a, x, y, self.par),
            None => {
                let verdict = kernels::spmv_probing_symmetry(self.a, x, y, self.par);
                // A concurrent first product reached the same verdict.
                let _ = self.symmetric.set(verdict);
            }
        }
    }
}
