//! Runtime-dispatched matrix storage.
//!
//! The storage precision varies *per level* (`shift_levid`), so a generic
//! parameter cannot express a hierarchy; instead each level owns a
//! [`StoredMatrix`] that dispatches the mixed-precision kernels over the
//! four storage formats at runtime. Dispatch cost is one match per kernel
//! call — negligible against a grid sweep.

use fp16mg_fp::{Bf16, Precision, Scalar, F16};
use fp16mg_grid::Grid3;
use fp16mg_sgdia::audit::{store_level, store_level_in_range, StoredLevel};
use fp16mg_sgdia::audit::{TruncationError, TruncationPolicy};
use fp16mg_sgdia::kernels::{self, BlockDiagInv, Par};
use fp16mg_sgdia::{Layout, SgDia};
use fp16mg_stencil::Pattern;

/// A structured matrix stored in one of the supported precisions.
#[derive(Clone, Debug)]
pub enum StoredMatrix {
    /// IEEE 754 binary64 values.
    F64(SgDia<f64>),
    /// IEEE 754 binary32 values.
    F32(SgDia<f32>),
    /// IEEE 754 binary16 values (the paper's headline configuration).
    F16(SgDia<F16>),
    /// bfloat16 values (§8 comparison).
    BF16(SgDia<Bf16>),
}

macro_rules! dispatch {
    ($self:expr, $a:ident => $body:expr) => {
        match $self {
            StoredMatrix::F64($a) => $body,
            StoredMatrix::F32($a) => $body,
            StoredMatrix::F16($a) => $body,
            StoredMatrix::BF16($a) => $body,
        }
    };
}

impl StoredMatrix {
    /// Stores `a` — scaled by `scale` (`1/√q` per unknown) on the way,
    /// when given — at `precision` in `layout` through the one fused pass
    /// ([`store_level`]); `policy: None` is the plain IEEE conversion.
    /// The matrix is borrowed, not copied, when its layout already matches.
    pub(crate) fn store_level(
        a: &SgDia<f64>,
        scale: Option<&[f64]>,
        precision: Precision,
        layout: Layout,
        policy: Option<TruncationPolicy>,
        sentinels: bool,
        keep_source: bool,
    ) -> Result<StoredLevel<Self>, TruncationError> {
        let a = &*a.in_layout(layout);
        Ok(match precision {
            Precision::F64 => store_level(a, scale, policy, sentinels, keep_source)?.map(Self::F64),
            Precision::F32 => store_level(a, scale, policy, sentinels, keep_source)?.map(Self::F32),
            Precision::F16 => store_level(a, scale, policy, sentinels, keep_source)?.map(Self::F16),
            Precision::BF16 => {
                store_level(a, scale, policy, sentinels, keep_source)?.map(Self::BF16)
            }
        })
    }

    /// [`StoredMatrix::store_level`] unscaled, or `Ok(None)` when `precision`
    /// cannot take `a` as it is ([`store_level_in_range`]).
    pub(crate) fn store_in_range(
        a: &SgDia<f64>,
        precision: Precision,
        layout: Layout,
        policy: Option<TruncationPolicy>,
        sentinels: bool,
        keep_source: bool,
    ) -> Result<Option<StoredLevel<Self>>, TruncationError> {
        let (a, s, k) = (&*a.in_layout(layout), sentinels, keep_source);
        Ok(match precision {
            Precision::F64 => store_level_in_range(a, policy, s, k)?.map(|l| l.map(Self::F64)),
            Precision::F32 => store_level_in_range(a, policy, s, k)?.map(|l| l.map(Self::F32)),
            Precision::F16 => store_level_in_range(a, policy, s, k)?.map(|l| l.map(Self::F16)),
            Precision::BF16 => store_level_in_range(a, policy, s, k)?.map(|l| l.map(Self::BF16)),
        })
    }

    /// Truncates a high-precision matrix into the requested storage
    /// precision and layout (Algorithm 1 lines 8/11) with plain IEEE
    /// semantics: overflow to ±∞.
    pub fn truncate(a: &SgDia<f64>, precision: Precision, layout: Layout) -> Self {
        match Self::store_level(a, None, precision, layout, None, false, false) {
            Ok(level) => level.matrix,
            Err(_) => unreachable!("the plain IEEE conversion refuses nothing"),
        }
    }

    /// Truncates under a [`TruncationPolicy`]: the production store path.
    /// Unlike [`StoredMatrix::truncate`] (retained for the
    /// `ScaleStrategy::None` ablation, which *studies* that failure),
    /// out-of-range entries are rejected with a typed error, clamped to
    /// the largest finite value, or flushed, per the policy.
    ///
    /// # Errors
    /// [`TruncationError`] under [`TruncationPolicy::Reject`] when an
    /// entry cannot be stored finitely.
    pub fn truncate_policy(
        a: &SgDia<f64>,
        precision: Precision,
        layout: Layout,
        policy: TruncationPolicy,
    ) -> Result<Self, TruncationError> {
        Ok(Self::store_level(a, None, precision, layout, Some(policy), false, false)?.matrix)
    }

    /// The storage precision tag.
    pub fn precision(&self) -> Precision {
        match self {
            StoredMatrix::F64(_) => Precision::F64,
            StoredMatrix::F32(_) => Precision::F32,
            StoredMatrix::F16(_) => Precision::F16,
            StoredMatrix::BF16(_) => Precision::BF16,
        }
    }

    /// The grid the matrix lives on.
    pub fn grid(&self) -> &Grid3 {
        dispatch!(self, a => a.grid())
    }

    /// The stencil pattern.
    pub fn pattern(&self) -> &Pattern {
        dispatch!(self, a => a.pattern())
    }

    /// Logical nonzero count (paper's `#nnz`).
    pub fn nnz(&self) -> usize {
        dispatch!(self, a => a.nnz())
    }

    /// Bytes of floating-point data stored.
    pub fn value_bytes(&self) -> usize {
        dispatch!(self, a => a.value_bytes())
    }

    /// Classifies every stored value in one pass (zero / subnormal /
    /// normal / ±∞ / NaN, counted per stencil tap) — the diagnostic the
    /// recovery path uses to attribute a non-finite V-cycle output to a
    /// specific level.
    pub fn scan(&self) -> fp16mg_sgdia::scan::MatrixScan {
        dispatch!(self, a => fp16mg_sgdia::scan::scan(a))
    }

    /// Injects random bit-level faults into the stored values per `spec`,
    /// in whatever format the matrix is stored — the 16-bit formats the
    /// recovery path insures, and the wide rebuilds the retry ladder must
    /// be able to corrupt in tests.
    #[cfg(feature = "fault-inject")]
    pub fn inject_faults(
        &mut self,
        spec: &fp16mg_sgdia::fault::FaultSpec,
    ) -> fp16mg_sgdia::fault::FaultReport {
        dispatch!(self, a => fp16mg_sgdia::fault::inject(a, spec))
    }

    /// Forces the stored value at `(cell, tap)` to ±∞ (sign preserved).
    /// Returns whether a value was actually corrupted.
    #[cfg(feature = "fault-inject")]
    pub fn inject_inf_at(&mut self, cell: usize, tap: usize) -> bool {
        dispatch!(self, a => fp16mg_sgdia::fault::inject_inf_at(a, cell, tap))
    }

    /// Flips one bit of the stored value at `(cell, tap)` (`bit` modulo
    /// the storage width) — the single-event upset the integrity
    /// sentinels detect.
    #[cfg(feature = "fault-inject")]
    pub fn inject_bit_flip_at(&mut self, cell: usize, tap: usize, bit: u32) -> bool {
        dispatch!(self, a => fp16mg_sgdia::fault::inject_bit_flip_at(a, cell, tap, bit))
    }

    /// Flips one bit of the first nonzero entry of coefficient plane
    /// `tap`, guaranteeing the upset lands on a real coupling. Returns
    /// the corrupted cell.
    #[cfg(feature = "fault-inject")]
    pub fn inject_bit_flip_tap(&mut self, tap: usize, bit: u32) -> Option<usize> {
        dispatch!(self, a => fp16mg_sgdia::fault::inject_bit_flip_tap(a, tap, bit))
    }

    /// Computes the per-plane integrity sentinels of the stored values
    /// (lane-hash bit-pattern checksum + FP64 sum invariants per tap).
    pub fn sentinels(&self) -> fp16mg_sgdia::sentinel::MatrixSentinels {
        dispatch!(self, a => fp16mg_sgdia::sentinel::compute(a))
    }

    /// Recomputes the sentinels and returns every coefficient plane that
    /// no longer matches `reference` (empty = intact).
    pub fn verify_sentinels(
        &self,
        reference: &fp16mg_sgdia::sentinel::MatrixSentinels,
    ) -> Vec<fp16mg_sgdia::sentinel::TapMismatch> {
        dispatch!(self, a => fp16mg_sgdia::sentinel::verify(a, reference))
    }

    /// `y = A x` with on-the-fly recovery to `P`.
    pub fn spmv<P: Scalar>(&self, x: &[P], y: &mut [P], par: Par) {
        dispatch!(self, a => kernels::spmv(a, x, y, par))
    }

    /// `r = b - A x`.
    pub fn residual<P: Scalar>(&self, b: &[P], x: &[P], r: &mut [P], par: Par) {
        dispatch!(self, a => kernels::residual(a, b, x, r, par))
    }

    /// `r = −U x`, the residual after a forward sweep from zero (see
    /// [`kernels::residual_upper`]).
    pub fn residual_upper<P: Scalar>(&self, x: &[P], r: &mut [P], par: Par) {
        dispatch!(self, a => kernels::residual_upper(a, x, r, par))
    }

    /// One forward Gauss–Seidel sweep.
    pub fn gs_forward<P: Scalar>(&self, dinv: &BlockDiagInv<P>, b: &[P], x: &mut [P]) {
        dispatch!(self, a => kernels::gs_forward(a, dinv, b, x))
    }

    /// One forward Gauss–Seidel sweep from a zero initial guess; `x` need
    /// not be initialised (see [`kernels::gs_forward_from_zero`]).
    pub fn gs_forward_from_zero<P: Scalar>(&self, dinv: &BlockDiagInv<P>, b: &[P], x: &mut [P]) {
        dispatch!(self, a => kernels::gs_forward_from_zero(a, dinv, b, x))
    }

    /// One backward Gauss–Seidel sweep.
    pub fn gs_backward<P: Scalar>(&self, dinv: &BlockDiagInv<P>, b: &[P], x: &mut [P]) {
        dispatch!(self, a => kernels::gs_backward(a, dinv, b, x))
    }

    /// Forward triangular solve (the matrix must be lower triangular).
    pub fn sptrsv_forward<P: Scalar>(&self, b: &[P], x: &mut [P]) {
        dispatch!(self, a => kernels::sptrsv_forward(a, b, x))
    }

    /// Backward triangular solve (the matrix must be upper triangular).
    pub fn sptrsv_backward<P: Scalar>(&self, b: &[P], x: &mut [P]) {
        dispatch!(self, a => kernels::sptrsv_backward(a, b, x))
    }
}
