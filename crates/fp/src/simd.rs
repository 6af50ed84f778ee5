//! SIMD bulk precision conversion (§5 of the paper).
//!
//! A scalar mixed-precision kernel pays one `fcvt` per 2-byte entry; the
//! paper's fix is to lay matrix data out so that one SIMD convert
//! instruction widens a whole vector of entries. On x86 that instruction is
//! F16C's `vcvtph2ps` (8 × f16 → 8 × f32) with `vcvtps2ph` for the reverse.
//! This module provides slice-granularity converters with runtime feature
//! detection and a portable scalar fallback, so the rest of the workspace
//! never touches `core::arch` directly.

use crate::{Bf16, F16};

/// True when the F16C hardware convert path is compiled in and available at
/// runtime on this CPU.
#[inline]
pub fn f16c_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        use std::sync::OnceLock;
        static AVAILABLE: OnceLock<bool> = OnceLock::new();
        *AVAILABLE.get_or_init(|| std::arch::is_x86_feature_detected!("f16c"))
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Widens a slice of binary16 values to `f32`.
///
/// # Panics
/// Panics if `src` and `dst` lengths differ.
#[inline]
pub fn widen_f16(src: &[F16], dst: &mut [f32]) {
    assert_eq!(src.len(), dst.len(), "widen_f16: length mismatch");
    #[cfg(target_arch = "x86_64")]
    if f16c_available() {
        // SAFETY: F16C availability was just checked.
        unsafe { widen_f16_f16c(src, dst) };
        return;
    }
    widen_f16_scalar(src, dst);
}

/// Narrows a slice of `f32` values to binary16 (RNE, overflow → ±∞).
///
/// # Panics
/// Panics if `src` and `dst` lengths differ.
#[inline]
pub fn narrow_f32(src: &[f32], dst: &mut [F16]) {
    assert_eq!(src.len(), dst.len(), "narrow_f32: length mismatch");
    #[cfg(target_arch = "x86_64")]
    if f16c_available() {
        // SAFETY: F16C availability was just checked.
        unsafe { narrow_f32_f16c(src, dst) };
        return;
    }
    narrow_f32_scalar(src, dst);
}

/// Entries staged in `f32` per step of the `f64` conversions.
const STAGE: usize = 256;

/// Narrows a slice of `f64` values to binary16 through `f32`: the two
/// roundings of [`F16::from_f64`], each to nearest-even, overflow → ±∞.
///
/// # Panics
/// Panics if `src` and `dst` lengths differ.
#[inline]
pub fn narrow_f64(src: &[f64], dst: &mut [F16]) {
    assert_eq!(src.len(), dst.len(), "narrow_f64: length mismatch");
    #[cfg(target_arch = "x86_64")]
    if f16c_available() {
        // SAFETY: F16C availability was just checked.
        unsafe { narrow_f64_f16c(src, dst) };
        return;
    }
    narrow_f64_staged(src, dst, narrow_f32_scalar);
}

/// Widens a slice of binary16 values to `f64` (exact).
///
/// # Panics
/// Panics if `src` and `dst` lengths differ.
#[inline]
pub fn widen_f16_f64(src: &[F16], dst: &mut [f64]) {
    assert_eq!(src.len(), dst.len(), "widen_f16_f64: length mismatch");
    #[cfg(target_arch = "x86_64")]
    if f16c_available() {
        // SAFETY: F16C availability was just checked.
        unsafe { widen_f16_f64_f16c(src, dst) };
        return;
    }
    widen_f16_f64_staged(src, dst, widen_f16_scalar);
}

/// `f64 → f32` in this function's instruction set, `f32 → f16` by
/// `narrow`, a stage at a time.
#[inline(always)]
fn narrow_f64_staged(src: &[f64], dst: &mut [F16], narrow: impl Fn(&[f32], &mut [F16])) {
    let mut single = [0.0f32; STAGE];
    for (s, d) in src.chunks(STAGE).zip(dst.chunks_mut(STAGE)) {
        let single = &mut single[..s.len()];
        for (t, &x) in single.iter_mut().zip(s) {
            *t = x as f32;
        }
        narrow(single, d);
    }
}

/// `f16 → f32` by `widen`, `f32 → f64` in this function's instruction
/// set, a stage at a time.
#[inline(always)]
fn widen_f16_f64_staged(src: &[F16], dst: &mut [f64], widen: impl Fn(&[F16], &mut [f32])) {
    let mut single = [0.0f32; STAGE];
    for (s, d) in src.chunks(STAGE).zip(dst.chunks_mut(STAGE)) {
        let single = &mut single[..s.len()];
        widen(s, single);
        for (d, &x) in d.iter_mut().zip(single.iter()) {
            *d = x as f64;
        }
    }
}

/// Widens a slice of bfloat16 values to `f32` (a 16-bit shift; always
/// vectorizes well without dedicated instructions).
#[inline]
pub fn widen_bf16(src: &[Bf16], dst: &mut [f32]) {
    assert_eq!(src.len(), dst.len(), "widen_bf16: length mismatch");
    for (d, s) in dst.iter_mut().zip(src) {
        *d = s.to_f32();
    }
}

/// Portable scalar widening path (also the tail handler of the SIMD path).
#[inline]
pub fn widen_f16_scalar(src: &[F16], dst: &mut [f32]) {
    for (d, s) in dst.iter_mut().zip(src) {
        *d = s.to_f32();
    }
}

/// Portable scalar narrowing path.
#[inline]
pub fn narrow_f32_scalar(src: &[f32], dst: &mut [F16]) {
    for (d, s) in dst.iter_mut().zip(src) {
        *d = F16::from_f32(*s);
    }
}

/// Hardware widening using `vcvtph2ps`, 8 entries per instruction.
///
/// # Safety
/// The caller must ensure the CPU supports F16C.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "f16c")]
pub unsafe fn widen_f16_f16c(src: &[F16], dst: &mut [f32]) {
    use core::arch::x86_64::*;
    debug_assert_eq!(src.len(), dst.len());
    let n = src.len();
    let chunks = n / 8;
    let sp = src.as_ptr() as *const u16;
    let dp = dst.as_mut_ptr();
    for c in 0..chunks {
        // SAFETY: c*8+8 <= n by construction; loads/stores are unaligned.
        let h = _mm_loadu_si128(sp.add(c * 8) as *const __m128i);
        let f = _mm256_cvtph_ps(h);
        _mm256_storeu_ps(dp.add(c * 8), f);
    }
    widen_f16_scalar(&src[chunks * 8..], &mut dst[chunks * 8..]);
}

/// Hardware narrowing using `vcvtps2ph` with round-to-nearest-even.
///
/// # Safety
/// The caller must ensure the CPU supports F16C.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "f16c")]
pub unsafe fn narrow_f32_f16c(src: &[f32], dst: &mut [F16]) {
    use core::arch::x86_64::*;
    debug_assert_eq!(src.len(), dst.len());
    let n = src.len();
    let chunks = n / 8;
    let sp = src.as_ptr();
    let dp = dst.as_mut_ptr() as *mut u16;
    for c in 0..chunks {
        // SAFETY: c*8+8 <= n by construction; loads/stores are unaligned.
        let f = _mm256_loadu_ps(sp.add(c * 8));
        let h = _mm256_cvtps_ph::<_MM_FROUND_TO_NEAREST_INT>(f);
        _mm_storeu_si128(dp.add(c * 8) as *mut __m128i, h);
    }
    narrow_f32_scalar(&src[chunks * 8..], &mut dst[chunks * 8..]);
}

/// [`narrow_f64`] with both steps in the 256-bit instruction set F16C
/// implies.
///
/// # Safety
/// The caller must ensure the CPU supports F16C.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "f16c")]
unsafe fn narrow_f64_f16c(src: &[f64], dst: &mut [F16]) {
    // SAFETY: the caller vouches for F16C.
    narrow_f64_staged(src, dst, |s, d| unsafe { narrow_f32_f16c(s, d) });
}

/// [`widen_f16_f64`] with both steps in the 256-bit instruction set F16C
/// implies.
///
/// # Safety
/// The caller must ensure the CPU supports F16C.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "f16c")]
unsafe fn widen_f16_f64_f16c(src: &[F16], dst: &mut [f64]) {
    // SAFETY: the caller vouches for F16C.
    widen_f16_f64_staged(src, dst, |s, d| unsafe { widen_f16_f16c(s, d) });
}
