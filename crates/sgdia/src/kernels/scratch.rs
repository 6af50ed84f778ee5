//! Thread-local kernel scratch pool.
//!
//! The kernels need a handful of per-invocation buffers: the tap
//! metadata table, the line kernel's `r + r²` `nx`-long rows, and small
//! tap-classification lists. Allocating them
//! on every sweep breaks the memory-resilience contract's steady-state
//! clause (a V-cycle must be allocation-free after setup), so each worker
//! thread keeps one reusable copy of each buffer here and kernels *rent*
//! them for the duration of a call.
//!
//! Renting uses take-out/put-back (`mem::take` the buffer out of its
//! `RefCell` slot, run the kernel body with no borrow held, put it back
//! after): a re-entrant kernel call on the same thread simply finds an
//! empty slot and falls back to a fresh allocation instead of panicking
//! on a double borrow. The pools grow to the largest working set a thread
//! has seen (`(r + r²) · nx` for the longest line of an `r`-component
//! sweep) and are reclaimed when the thread exits. Under
//! [`crate::par::Par::Seq`] everything runs on the calling thread; under
//! `Par::Threads` each of `crate::par`'s parked workers keeps its own
//! pool, so both are warm after the first application (the
//! zero-allocation gate measures both).
//!
//! The element-typed buffers are dispatched on `TypeId` exactly like
//! [`super::cast_slice`]: [`fp16mg_fp::Scalar`] is implemented for `f32`
//! and `f64` only, so two concrete pools cover every instantiation, with
//! a fresh-allocation fallback should another scalar ever appear.

use core::any::TypeId;
use core::cell::RefCell;
use core::mem;

use fp16mg_fp::Scalar;
use fp16mg_grid::Grid3;
use fp16mg_stencil::Pattern;

use super::{fill_tap_metas, TapMeta};

/// The computation-precision buffers a kernel may rent: the line kernel's
/// `c` rows (`s1`) and `E` rows (`s2`).
pub(crate) struct KernelBufs<P> {
    s1: Vec<P>,
    s2: Vec<P>,
}

impl<P> KernelBufs<P> {
    const fn new() -> Self {
        KernelBufs { s1: Vec::new(), s2: Vec::new() }
    }
}

impl<P> Default for KernelBufs<P> {
    fn default() -> Self {
        Self::new()
    }
}

/// Clears and zero-fills a pooled vector to `n` elements; reallocates
/// only when `n` exceeds the largest length this slot has ever served.
fn zeroed<P: Scalar>(v: &mut Vec<P>, n: usize) -> &mut [P] {
    v.clear();
    v.resize(n, P::ZERO);
    v.as_mut_slice()
}

impl<P: Scalar> KernelBufs<P> {
    /// Rents two zeroed buffers.
    pub(crate) fn zeroed2(&mut self, n1: usize, n2: usize) -> (&mut [P], &mut [P]) {
        (zeroed(&mut self.s1, n1), zeroed(&mut self.s2, n2))
    }
}

/// Casts the pooled concrete-type buffers to the generic parameter when
/// they are the same type (same soundness argument as
/// [`super::cast_slice_mut`]: `TypeId` equality of `'static` types).
#[inline]
fn cast_bufs_mut<A: 'static, B: 'static>(b: &mut KernelBufs<A>) -> Option<&mut KernelBufs<B>> {
    if TypeId::of::<A>() == TypeId::of::<B>() {
        // SAFETY: A and B are the same type, so layout and validity match.
        Some(unsafe { &mut *(b as *mut KernelBufs<A> as *mut KernelBufs<B>) })
    } else {
        None
    }
}

thread_local! {
    static BUFS_F32: RefCell<KernelBufs<f32>> = const { RefCell::new(KernelBufs::new()) };
    static BUFS_F64: RefCell<KernelBufs<f64>> = const { RefCell::new(KernelBufs::new()) };
    static METAS: RefCell<Vec<TapMeta>> = const { RefCell::new(Vec::new()) };
    static TAPS2: RefCell<(Vec<TapMeta>, Vec<TapMeta>)> =
        const { RefCell::new((Vec::new(), Vec::new())) };
}

/// Runs `f` with this thread's pooled buffers for computation precision
/// `P` (fresh buffers for scalar types without a dedicated pool).
pub(crate) fn with_bufs<P: Scalar, R>(f: impl FnOnce(&mut KernelBufs<P>) -> R) -> R {
    let id = TypeId::of::<P>();
    if id == TypeId::of::<f32>() {
        BUFS_F32.with(|slot| {
            let mut b = mem::take(&mut *slot.borrow_mut());
            let r = f(cast_bufs_mut::<f32, P>(&mut b).expect("TypeId matched f32"));
            *slot.borrow_mut() = b;
            r
        })
    } else if id == TypeId::of::<f64>() {
        BUFS_F64.with(|slot| {
            let mut b = mem::take(&mut *slot.borrow_mut());
            let r = f(cast_bufs_mut::<f64, P>(&mut b).expect("TypeId matched f64"));
            *slot.borrow_mut() = b;
            r
        })
    } else {
        f(&mut KernelBufs::new())
    }
}

/// Resolves the tap metadata table into this thread's pooled vector and
/// runs `f` with it. The slice stays valid across nested [`with_bufs`] /
/// [`with_taps2`] rentals (separate slots) and across the worker team's
/// parallel regions (the workers only read it, and rent their own buffers
/// from their own threads' pools).
pub(crate) fn with_tap_metas<R>(
    grid: &Grid3,
    pattern: &Pattern,
    f: impl FnOnce(&[TapMeta]) -> R,
) -> R {
    METAS.with(|slot| {
        let mut v = mem::take(&mut *slot.borrow_mut());
        fill_tap_metas(grid, pattern, &mut v);
        let r = f(&v);
        *slot.borrow_mut() = v;
        r
    })
}

/// Runs `f` with this thread's pooled pair of tap lists (cleared), used by
/// the Gauss–Seidel sweeps' and triangular solves' bulk/recurrence split
/// and the SpMV's per-field tap selection.
pub(crate) fn with_taps2<R>(f: impl FnOnce(&mut Vec<TapMeta>, &mut Vec<TapMeta>) -> R) -> R {
    TAPS2.with(|slot| {
        let (mut a, mut b) = mem::take(&mut *slot.borrow_mut());
        a.clear();
        b.clear();
        let r = f(&mut a, &mut b);
        *slot.borrow_mut() = (a, b);
        r
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bufs_grow_once_and_reuse() {
        with_bufs::<f32, _>(|b| {
            let (s1, s2) = b.zeroed2(8, 4);
            s1.fill(1.0);
            s2.fill(2.0);
        });
        with_bufs::<f32, _>(|b| {
            let (s1, s2) = b.zeroed2(8, 4);
            assert!(s1.iter().all(|&v| v == 0.0), "rented buffers are zeroed");
            assert!(s2.iter().all(|&v| v == 0.0), "rented buffers are zeroed");
        });
    }

    #[test]
    fn nested_rentals_do_not_panic() {
        with_bufs::<f64, _>(|outer| {
            let (s1, _) = outer.zeroed2(4, 4);
            // A re-entrant rental on the same thread sees the empty taken
            // slot and allocates fresh instead of panicking.
            with_bufs::<f64, _>(|inner| {
                let (t1, _) = inner.zeroed2(2, 2);
                t1.fill(9.0);
            });
            assert!(s1.iter().all(|&v| v == 0.0));
        });
    }

    #[test]
    fn idx_pools_are_cleared() {
        with_tap_metas(&Grid3::cube(3), &Pattern::p7(), |metas| {
            with_taps2(|a, b| {
                a.push(metas[0]);
                b.push(metas[1]);
            });
        });
        with_taps2(|a, b| {
            assert!(a.is_empty() && b.is_empty());
        });
    }
}
