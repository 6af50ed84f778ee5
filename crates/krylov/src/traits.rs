//! Operator and preconditioner abstractions.

use fp16mg_fp::Scalar;
use std::time::{Duration, Instant};

/// A square linear operator in the iterative precision `K`.
pub trait LinOp<K: Scalar> {
    /// Number of rows (= columns = vector length).
    fn rows(&self) -> usize;
    /// `y = A x`.
    fn apply(&self, x: &[K], y: &mut [K]);
}

/// A preconditioner `M⁻¹` applied in the iterative precision `K`.
///
/// Implementations are free to drop to lower precisions internally — the
/// FP16 multigrid truncates the incoming residual to its computation
/// precision and widens the returned error (paper Algorithm 2, lines 4–6).
/// `&mut self` allows internal scratch reuse.
pub trait Preconditioner<K: Scalar> {
    /// `z ≈ M⁻¹ r`.
    fn apply(&mut self, r: &[K], z: &mut [K]);

    /// Called by the solver when its health monitor reports an anomaly —
    /// a numerical breakdown or a precision-attributable stagnation —
    /// *before* the solver gives up on the iteration. A stateful
    /// preconditioner can audit itself (e.g. verify integrity sentinels
    /// and widen each corrupted level from its promotion material) and
    /// return how many corrective actions it took (levels mended); the
    /// solver records nothing and still exits with
    /// its typed error, but a retry can now succeed against the mended
    /// state. The default does nothing.
    fn on_health_anomaly(&mut self) -> usize {
        0
    }
}

/// The identity preconditioner (unpreconditioned solves).
#[derive(Clone, Copy, Debug, Default)]
pub struct IdentityPrecond;

impl<K: Scalar> Preconditioner<K> for IdentityPrecond {
    fn apply(&mut self, r: &[K], z: &mut [K]) {
        z.copy_from_slice(r);
    }
}

/// Wraps a preconditioner and accumulates wall time and call count — the
/// instrumentation behind the Fig. 8/9 time breakdown (setup / MG
/// preconditioner / other).
pub struct TimedPrecond<M> {
    inner: M,
    elapsed: Duration,
    calls: usize,
}

impl<M> TimedPrecond<M> {
    /// Wraps `inner` with zeroed counters.
    pub fn new(inner: M) -> Self {
        TimedPrecond { inner, elapsed: Duration::ZERO, calls: 0 }
    }

    /// Total time spent inside `apply`.
    pub fn elapsed(&self) -> Duration {
        self.elapsed
    }

    /// Number of `apply` calls.
    pub fn calls(&self) -> usize {
        self.calls
    }

    /// Returns the wrapped preconditioner.
    pub fn into_inner(self) -> M {
        self.inner
    }

    /// Borrows the wrapped preconditioner.
    pub fn inner(&self) -> &M {
        &self.inner
    }
}

impl<K: Scalar, M: Preconditioner<K>> Preconditioner<K> for TimedPrecond<M> {
    fn apply(&mut self, r: &[K], z: &mut [K]) {
        let t0 = Instant::now();
        self.inner.apply(r, z);
        self.elapsed += t0.elapsed();
        self.calls += 1;
    }

    fn on_health_anomaly(&mut self) -> usize {
        // Integrity work is preconditioner work: bill it the same way.
        let t0 = Instant::now();
        let actions = self.inner.on_health_anomaly();
        self.elapsed += t0.elapsed();
        actions
    }
}

/// Independent partial sums in [`dot`]: enough to hide the add latency
/// and let the compiler keep them in vector registers.
const DOT_LANES: usize = 8;

/// Euclidean norm with `f64` accumulation regardless of `K`.
pub fn norm2<K: Scalar>(v: &[K]) -> f64 {
    dot(v, v).sqrt()
}

/// Dot product with `f64` accumulation, summed in [`DOT_LANES`]
/// interleaved partial sums (a fixed order, so results repeat exactly).
///
/// # Panics
/// Panics when the lengths differ.
pub fn dot<K: Scalar>(a: &[K], b: &[K]) -> f64 {
    assert_eq!(a.len(), b.len(), "dot length");
    let (ca, cb) = (a.chunks_exact(DOT_LANES), b.chunks_exact(DOT_LANES));
    let tail = dot_tail(ca.remainder(), cb.remainder());
    let mut acc = [0.0f64; DOT_LANES];
    for (xa, xb) in ca.zip(cb) {
        for l in 0..DOT_LANES {
            acc[l] += xa[l].to_f64() * xb[l].to_f64();
        }
    }
    fold_lanes(acc, tail)
}

/// [`dot`] of the elements past the last whole group of lanes, in order.
fn dot_tail<K: Scalar>(a: &[K], b: &[K]) -> f64 {
    a.iter().zip(b).map(|(&x, &y)| x.to_f64() * y.to_f64()).sum()
}

/// [`dot`]'s lanes and tail folded in its order.
fn fold_lanes(acc: [f64; DOT_LANES], tail: f64) -> f64 {
    acc.iter().sum::<f64>() + tail
}

/// `(a·b, b·c)` in one pass over the three vectors: each to the bits of
/// its own [`dot`].
///
/// # Panics
/// Panics when the lengths differ.
pub fn dot_pair<K: Scalar>(a: &[K], b: &[K], c: &[K]) -> (f64, f64) {
    assert!(a.len() == b.len() && b.len() == c.len(), "dot_pair length");
    let (ca, cb, cc) =
        (a.chunks_exact(DOT_LANES), b.chunks_exact(DOT_LANES), c.chunks_exact(DOT_LANES));
    let tails =
        (dot_tail(ca.remainder(), cb.remainder()), dot_tail(cb.remainder(), cc.remainder()));
    let (mut ab, mut bc) = ([0.0f64; DOT_LANES], [0.0f64; DOT_LANES]);
    for ((xa, xb), xc) in ca.zip(cb).zip(cc) {
        for l in 0..DOT_LANES {
            let b = xb[l].to_f64();
            ab[l] += xa[l].to_f64() * b;
            bc[l] += b * xc[l].to_f64();
        }
    }
    (fold_lanes(ab, tails.0), fold_lanes(bc, tails.1))
}

/// `y += alpha * x`, as a plain multiply and add: see
/// [`Scalar::mul_add`] for why not the fused form.
pub fn axpy<K: Scalar>(alpha: f64, x: &[K], y: &mut [K]) {
    let a = K::from_f64(alpha);
    for (yi, &xi) in y.iter_mut().zip(x) {
        *yi += a * xi;
    }
}

/// [`axpy`] and the [`norm2`] of the updated `y` in one pass over it, each
/// to the bits of its own.
///
/// # Panics
/// Panics when the lengths differ.
pub fn axpy_norm2<K: Scalar>(alpha: f64, x: &[K], y: &mut [K]) -> f64 {
    assert_eq!(x.len(), y.len(), "axpy_norm2 length");
    let a = K::from_f64(alpha);
    let cx = x.chunks_exact(DOT_LANES);
    let mut cy = y.chunks_exact_mut(DOT_LANES);
    let mut acc = [0.0f64; DOT_LANES];
    for (ya, xa) in cy.by_ref().zip(cx.clone()) {
        for l in 0..DOT_LANES {
            ya[l] += a * xa[l];
            acc[l] += ya[l].to_f64() * ya[l].to_f64();
        }
    }
    let rest = cy.into_remainder();
    axpy(alpha, cx.remainder(), rest);
    fold_lanes(acc, dot_tail(rest, rest)).sqrt()
}

/// `y = x + beta * y`.
pub fn xpby<K: Scalar>(x: &[K], beta: f64, y: &mut [K]) {
    let b = K::from_f64(beta);
    for (yi, &xi) in y.iter_mut().zip(x) {
        *yi = xi + b * *yi;
    }
}

/// `r = b − A x`. An `x` of all zeros — the guess of a cold solve — is
/// found by reading it, a few percent of the operator's bytes, and costs
/// no product: `r = b`, with `−0.0` turned `+0.0` as subtracting a product
/// of zeros turns it. What such a solve does not see here is an operator
/// holding ±∞ or NaN; its first product with a nonzero vector, one step
/// later, does.
pub(crate) fn residual<K: Scalar>(a: &impl LinOp<K>, b: &[K], x: &[K], r: &mut [K]) {
    if x.iter().all(|&v| v == K::ZERO) {
        for (ri, &bi) in r.iter_mut().zip(b) {
            *ri = bi + K::ZERO;
        }
        return;
    }
    a.apply(x, r);
    for (ri, &bi) in r.iter_mut().zip(b) {
        *ri = bi - *ri;
    }
}
