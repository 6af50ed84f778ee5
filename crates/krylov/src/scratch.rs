//! Krylov work vectors rented from the calling thread's pool.
//!
//! A solve needs a handful of `n`-long work vectors — CG four,
//! Richardson two, GMRES(m) its residual, a work vector and the `m`
//! Krylov + `m` flexible basis vectors (62 at m = 30: 62 MiB for the
//! 131 072 unknowns of weather 64³). Allocated per solve, they make every
//! solve page-fault in memory the previous one just returned, so each
//! thread keeps one flat buffer per scalar type and a solve *rents* it,
//! the take-out / put-back pattern
//! of `sgdia::kernels::scratch`: the buffer leaves its slot for the
//! duration of the solve (no borrow is held while the solver runs) and
//! comes back after. A re-entrant solve on the same thread — a
//! preconditioner that solves inside `apply` — finds the slot empty and
//! allocates its own; of the two buffers that come back the larger is
//! kept. The pool thus holds the largest Krylov working set the thread has
//! seen, until the thread exits. Contents are unspecified: every solver
//! writes a work vector before it reads it.

use core::any::TypeId;
use core::cell::RefCell;
use core::mem;
use std::thread::LocalKey;

use fp16mg_fp::Scalar;

thread_local! {
    static F32: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
    static F64: RefCell<Vec<f64>> = const { RefCell::new(Vec::new()) };
}

/// Runs `f` with `count` contiguous work vectors of `n` unknowns each from
/// this thread's pool for `K` (fresh ones for a scalar type without a
/// pool, or while the pool is rented out).
pub(crate) fn with_vectors<K: Scalar, R>(
    n: usize,
    count: usize,
    f: impl FnOnce(&mut [K]) -> R,
) -> R {
    let id = TypeId::of::<K>();
    if id == TypeId::of::<f64>() {
        rent(&F64, n * count, f)
    } else if id == TypeId::of::<f32>() {
        rent(&F32, n * count, f)
    } else {
        f(&mut vec![K::ZERO; n * count])
    }
}

fn rent<E: Scalar, K: Scalar, R>(
    slot: &'static LocalKey<RefCell<Vec<E>>>,
    len: usize,
    f: impl FnOnce(&mut [K]) -> R,
) -> R {
    let mut buf = slot.with(|s| mem::take(&mut *s.borrow_mut()));
    if buf.len() < len {
        // Freed before the fresh allocation, and zeroed rather than grown:
        // nothing in the old buffer is worth copying, and pages a solve never
        // reaches stay unmapped.
        drop(mem::take(&mut buf));
        buf = vec![E::ZERO; len];
    }
    assert_eq!(TypeId::of::<E>(), TypeId::of::<K>(), "a pool serves its own scalar type");
    let work = &mut buf[..len];
    // SAFETY: `E` and `K` are the same type (`TypeId` equality of `'static`
    // types, asserted above), so layout and validity match.
    let work = unsafe { core::slice::from_raw_parts_mut(work.as_mut_ptr().cast::<K>(), len) };
    let out = f(work);
    slot.with(|s| {
        let mut s = s.borrow_mut();
        if buf.len() > s.len() {
            *s = buf;
        }
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_rented_buffer_is_reused_and_a_nested_rental_gets_its_own() {
        let outer = with_vectors::<f64, _>(8, 2, |w| {
            w.fill(1.0);
            let inner = with_vectors::<f64, _>(4, 2, |v| {
                v.fill(2.0);
                v.as_ptr()
            });
            assert!(w.iter().all(|&v| v == 1.0), "a nested rental does not alias");
            assert_ne!(inner, w.as_ptr());
            w.as_ptr()
        });
        // The larger buffer came back last and is the one kept.
        let again = with_vectors::<f64, _>(8, 2, |w| w.as_ptr());
        assert_eq!(again, outer);
    }
}
