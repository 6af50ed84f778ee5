//! Precision abstraction used across the workspace.
//!
//! The paper distinguishes three precisions (§4):
//!
//! * the *iterative precision* `K` of the outer Krylov solver,
//! * the *computation precision* `P` of the preconditioner's vectors, and
//! * the *storage precision* `D` of the preconditioner's matrices.
//!
//! `K` and `P` are computation formats, modeled by [`Scalar`] (implemented
//! for `f32` and `f64`). `D` is a storage-only format, modeled by
//! [`Storage`] (implemented for `f64`, `f32`, [`F16`](crate::F16) and
//! [`Bf16`](crate::Bf16)); values are widened to `P` on the fly before any
//! arithmetic.

use crate::{Bf16, F16};

/// A floating-point computation format (the paper's `K` and `P`).
pub trait Scalar:
    Copy
    + Clone
    + Default
    + PartialOrd
    + core::fmt::Debug
    + core::fmt::Display
    + core::ops::Add<Output = Self>
    + core::ops::Sub<Output = Self>
    + core::ops::Mul<Output = Self>
    + core::ops::Div<Output = Self>
    + core::ops::Neg<Output = Self>
    + core::ops::AddAssign
    + core::ops::SubAssign
    + core::ops::MulAssign
    + Send
    + Sync
    + 'static
{
    /// Additive identity.
    const ZERO: Self;
    /// Multiplicative identity.
    const ONE: Self;
    /// Machine epsilon of the format.
    const EPSILON: Self;
    /// Size of the format in bytes.
    const BYTES: usize;
    /// Short name used in reports ("64" or "32").
    const NAME: &'static str;

    /// Lossy conversion from `f64`.
    fn from_f64(x: f64) -> Self;
    /// Widening (or identity) conversion to `f64`.
    fn to_f64(self) -> f64;
    /// Lossy (or identity) conversion to `f32`.
    fn to_f32(self) -> f32;
    /// Conversion from `f32`.
    fn from_f32(x: f32) -> Self;
    /// Absolute value.
    fn abs(self) -> Self;
    /// Square root.
    fn sqrt(self) -> Self;
    /// Fused multiply-add `self * a + b`, rounded once.
    ///
    /// Only for code inside a `#[target_feature(enable = "fma")]`
    /// function, where it is one instruction. Anywhere else the build has
    /// no FMA to lower it to and every call goes to libm's `fma`/`fmaf`
    /// through the PLT — several times the cost of `self * a + b` and a
    /// barrier to vectorising the loop around it. Vector kernels write the
    /// plain form.
    ///
    /// The rule is enforced: the test `mul_add_only_under_target_feature_fma`
    /// scans the non-test sources of `sgdia`, `core` and `krylov` and fails
    /// on a `.mul_add(` whose enclosing function does not carry that
    /// attribute (`sgdia::csr`, the reference the kernels are tested
    /// against, is the one allowlisted file).
    fn mul_add(self, a: Self, b: Self) -> Self;
    /// True if the value is finite (not ±∞, not NaN).
    fn is_finite(self) -> bool;
    /// True if the value is NaN.
    fn is_nan(self) -> bool;
    /// Larger of two values (NaN-propagating is not required).
    fn max(self, other: Self) -> Self;
    /// Smaller of two values.
    fn min(self, other: Self) -> Self;
}

macro_rules! impl_scalar {
    ($t:ty, $bytes:expr, $name:expr) => {
        impl Scalar for $t {
            const ZERO: Self = 0.0;
            const ONE: Self = 1.0;
            const EPSILON: Self = <$t>::EPSILON;
            const BYTES: usize = $bytes;
            const NAME: &'static str = $name;

            #[inline(always)]
            fn from_f64(x: f64) -> Self {
                x as $t
            }
            #[inline(always)]
            fn to_f64(self) -> f64 {
                self as f64
            }
            #[inline(always)]
            fn to_f32(self) -> f32 {
                self as f32
            }
            #[inline(always)]
            fn from_f32(x: f32) -> Self {
                x as $t
            }
            #[inline(always)]
            fn abs(self) -> Self {
                <$t>::abs(self)
            }
            #[inline(always)]
            fn sqrt(self) -> Self {
                <$t>::sqrt(self)
            }
            #[inline(always)]
            fn mul_add(self, a: Self, b: Self) -> Self {
                <$t>::mul_add(self, a, b)
            }
            #[inline(always)]
            fn is_finite(self) -> bool {
                <$t>::is_finite(self)
            }
            #[inline(always)]
            fn is_nan(self) -> bool {
                <$t>::is_nan(self)
            }
            #[inline(always)]
            fn max(self, other: Self) -> Self {
                <$t>::max(self, other)
            }
            #[inline(always)]
            fn min(self, other: Self) -> Self {
                <$t>::min(self, other)
            }
        }
    };
}

impl_scalar!(f64, 8, "64");
impl_scalar!(f32, 4, "32");

/// A matrix storage format (the paper's `D`).
pub trait Storage: Copy + Clone + Default + core::fmt::Debug + Send + Sync + 'static {
    /// Size of the format in bytes per entry.
    const BYTES: usize;
    /// Short name used in reports ("64", "32", "16", "b16").
    const NAME: &'static str;
    /// Largest finite magnitude representable, or `None` if the range is
    /// that of `f32`/`f64` and overflow is not a practical concern.
    const FINITE_MAX: Option<f64>;
    /// Largest finite magnitude, as an `f64` (always the actual bound —
    /// unlike [`Storage::FINITE_MAX`], which is `None` for the wide
    /// formats). Used by the precision audit and the saturating
    /// truncation policies, where the exact range matters for every
    /// format.
    const MAX_FINITE: f64;
    /// Smallest positive *normal* magnitude: the underflow edge below
    /// which stored values lose mantissa bits (subnormal) or vanish.
    const MIN_POSITIVE_NORMAL: f64;

    /// The runtime tag of this format.
    const PRECISION: Precision;

    /// Truncates from `f64` (round-to-nearest-even, overflow to ±∞).
    fn store_f64(x: f64) -> Self;
    /// [`Storage::store_f64`] over a slice. Formats with a hardware
    /// convert override this; the results must equal the scalar
    /// conversion for every non-NaN input.
    ///
    /// # Panics
    /// Panics if `src` and `dst` lengths differ.
    fn store_f64_slice(src: &[f64], dst: &mut [Self]) {
        assert_eq!(src.len(), dst.len(), "store_f64_slice: length mismatch");
        for (d, &x) in dst.iter_mut().zip(src) {
            *d = Self::store_f64(x);
        }
    }
    /// Truncates from `f32`.
    fn store_f32(x: f32) -> Self;
    /// Recovers to `f32` (exact for the 16-bit formats).
    fn load_f32(self) -> f32;
    /// Recovers to `f64`.
    fn load_f64(self) -> f64;
    /// [`Storage::load_f64`] over a slice, with the same contract as
    /// [`Storage::store_f64_slice`].
    ///
    /// # Panics
    /// Panics if `src` and `dst` lengths differ.
    fn load_f64_slice(src: &[Self], dst: &mut [f64]) {
        assert_eq!(src.len(), dst.len(), "load_f64_slice: length mismatch");
        for (d, &x) in dst.iter_mut().zip(src) {
            *d = x.load_f64();
        }
    }
    /// True if the value is finite.
    fn is_finite(self) -> bool;
    /// IEEE category of the value (integer bit tests for the 16-bit
    /// formats — no float hardware on the scan path).
    fn class(self) -> crate::NumClass;
    /// Raw bit pattern, zero-extended to 64 bits. Two values hash equal
    /// under the integrity checksum iff their stored bit patterns are
    /// equal — `-0.0` and `+0.0` differ, NaN payloads differ.
    fn store_bits(self) -> u64;
}

impl Storage for f64 {
    const PRECISION: Precision = Precision::F64;
    const BYTES: usize = 8;
    const NAME: &'static str = "64";
    const FINITE_MAX: Option<f64> = None;
    const MAX_FINITE: f64 = f64::MAX;
    const MIN_POSITIVE_NORMAL: f64 = f64::MIN_POSITIVE;

    #[inline(always)]
    fn store_f64(x: f64) -> Self {
        x
    }
    #[inline(always)]
    fn store_f32(x: f32) -> Self {
        x as f64
    }
    #[inline(always)]
    fn load_f32(self) -> f32 {
        self as f32
    }
    #[inline(always)]
    fn load_f64(self) -> f64 {
        self
    }
    #[inline(always)]
    fn is_finite(self) -> bool {
        f64::is_finite(self)
    }
    #[inline(always)]
    fn class(self) -> crate::NumClass {
        crate::classify::class_f64(self)
    }
    #[inline(always)]
    fn store_bits(self) -> u64 {
        self.to_bits()
    }
}

impl Storage for f32 {
    const PRECISION: Precision = Precision::F32;
    const BYTES: usize = 4;
    const NAME: &'static str = "32";
    const FINITE_MAX: Option<f64> = None;
    const MAX_FINITE: f64 = f32::MAX as f64;
    const MIN_POSITIVE_NORMAL: f64 = f32::MIN_POSITIVE as f64;

    #[inline(always)]
    fn store_f64(x: f64) -> Self {
        x as f32
    }
    #[inline(always)]
    fn store_f32(x: f32) -> Self {
        x
    }
    #[inline(always)]
    fn load_f32(self) -> f32 {
        self
    }
    #[inline(always)]
    fn load_f64(self) -> f64 {
        self as f64
    }
    #[inline(always)]
    fn is_finite(self) -> bool {
        f32::is_finite(self)
    }
    #[inline(always)]
    fn class(self) -> crate::NumClass {
        crate::classify::class_f32(self)
    }
    #[inline(always)]
    fn store_bits(self) -> u64 {
        self.to_bits() as u64
    }
}

impl Storage for F16 {
    const PRECISION: Precision = Precision::F16;
    const BYTES: usize = 2;
    const NAME: &'static str = "16";
    const FINITE_MAX: Option<f64> = Some(F16::MAX_F64);
    const MAX_FINITE: f64 = F16::MAX_F64;
    const MIN_POSITIVE_NORMAL: f64 = F16::MIN_POSITIVE_F64;

    #[inline(always)]
    fn store_f64(x: f64) -> Self {
        F16::from_f64(x)
    }
    /// The same two roundings as [`F16::from_f64`] (`f64 → f32 → f16`,
    /// each to nearest-even), the second through F16C when the CPU has it.
    fn store_f64_slice(src: &[f64], dst: &mut [Self]) {
        crate::simd::narrow_f64(src, dst);
    }
    #[inline(always)]
    fn store_f32(x: f32) -> Self {
        F16::from_f32(x)
    }
    #[inline(always)]
    fn load_f32(self) -> f32 {
        self.to_f32()
    }
    #[inline(always)]
    fn load_f64(self) -> f64 {
        self.to_f64()
    }
    fn load_f64_slice(src: &[Self], dst: &mut [f64]) {
        crate::simd::widen_f16_f64(src, dst);
    }
    #[inline(always)]
    fn is_finite(self) -> bool {
        F16::is_finite(self)
    }
    #[inline(always)]
    fn class(self) -> crate::NumClass {
        crate::classify::class_f16(self)
    }
    #[inline(always)]
    fn store_bits(self) -> u64 {
        self.to_bits() as u64
    }
}

impl Storage for Bf16 {
    const PRECISION: Precision = Precision::BF16;
    const BYTES: usize = 2;
    const NAME: &'static str = "b16";
    const FINITE_MAX: Option<f64> = Some(3.3895313892515355e38);
    const MAX_FINITE: f64 = 3.3895313892515355e38;
    const MIN_POSITIVE_NORMAL: f64 = 1.1754943508222875e-38;

    #[inline(always)]
    fn store_f64(x: f64) -> Self {
        Bf16::from_f64(x)
    }
    #[inline(always)]
    fn store_f32(x: f32) -> Self {
        Bf16::from_f32(x)
    }
    #[inline(always)]
    fn load_f32(self) -> f32 {
        self.to_f32()
    }
    #[inline(always)]
    fn load_f64(self) -> f64 {
        self.to_f64()
    }
    #[inline(always)]
    fn is_finite(self) -> bool {
        Bf16::is_finite(self)
    }
    #[inline(always)]
    fn class(self) -> crate::NumClass {
        crate::classify::class_bf16(self)
    }
    #[inline(always)]
    fn store_bits(self) -> u64 {
        self.to_bits() as u64
    }
}

/// Runtime tag for a storage precision; used where the precision is chosen
/// per multigrid level (`shift_levid`, §4.3) and a generic parameter would
/// not work.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Precision {
    /// IEEE 754 binary64.
    F64,
    /// IEEE 754 binary32.
    F32,
    /// IEEE 754 binary16.
    F16,
    /// bfloat16.
    BF16,
}

impl Precision {
    /// Bytes per stored entry.
    pub const fn bytes(self) -> usize {
        match self {
            Precision::F64 => 8,
            Precision::F32 => 4,
            Precision::F16 | Precision::BF16 => 2,
        }
    }

    /// Largest finite magnitude, used by the overflow check in Algorithm 1.
    pub const fn finite_max(self) -> f64 {
        match self {
            Precision::F64 => f64::MAX,
            Precision::F32 => f32::MAX as f64,
            Precision::F16 => F16::MAX_F64,
            Precision::BF16 => 3.3895313892515355e38,
        }
    }

    /// Smallest positive normal magnitude — the underflow edge of the
    /// format, below which entries degrade to subnormals or flush to
    /// zero (§4.3's coarse-level failure mode).
    pub const fn min_positive_normal(self) -> f64 {
        match self {
            Precision::F64 => f64::MIN_POSITIVE,
            Precision::F32 => f32::MIN_POSITIVE as f64,
            Precision::F16 => F16::MIN_POSITIVE_F64,
            Precision::BF16 => 1.1754943508222875e-38,
        }
    }

    /// Unit roundoff `u = 2^-(p)` (half an ulp at 1.0): the expected
    /// relative truncation error for in-range values. Used to convert the
    /// audit's relative-error figures into ulp counts.
    pub const fn unit_roundoff(self) -> f64 {
        match self {
            Precision::F64 => 1.1102230246251565e-16, // 2^-53
            Precision::F32 => 5.960464477539063e-8,   // 2^-24
            Precision::F16 => 4.8828125e-4,           // 2^-11
            Precision::BF16 => 3.90625e-3,            // 2^-8
        }
    }

    /// Short name used in reports.
    pub const fn name(self) -> &'static str {
        match self {
            Precision::F64 => "fp64",
            Precision::F32 => "fp32",
            Precision::F16 => "fp16",
            Precision::BF16 => "bf16",
        }
    }
}

impl core::fmt::Display for Precision {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.name())
    }
}
