//! Fault injection into stored matrix coefficients.
//!
//! The robustness harness needs to produce, on demand, exactly the
//! corruptions the FP16 storage path can suffer in the wild: overflow to
//! ±∞ during truncation, exponent-bit upsets, and underflow flushing to
//! the subnormal range. This module applies them to a stored matrix at
//! configurable rates, deterministically (seeded), and reports what it
//! did so tests can assert detection. The wide formats (f32/f64) are
//! supported too, so retry-ladder tests can corrupt an FP32-rebuilt
//! hierarchy and prove the FP64 last resort is reachable.

use fp16mg_fp::{Bf16, Storage, F16};

use crate::SgDia;

/// What to corrupt and how often. Rates are per stored entry and applied
/// independently (an entry hit by multiple faults takes the last one in
/// field order: exponent flip, then ±∞, then subnormal flush, then random
/// bit flip).
#[derive(Clone, Copy, Debug)]
pub struct FaultSpec {
    /// Probability of flipping one random exponent bit of an entry.
    pub exp_flip_rate: f64,
    /// Probability of forcing an entry to ±∞ (sign preserved).
    pub inf_rate: f64,
    /// Probability of flushing an entry to a subnormal of its sign.
    pub subnormal_flush_rate: f64,
    /// Probability of flipping one *uniformly random* bit of an entry —
    /// the silent-data-corruption model of the integrity sentinels. Unlike
    /// `exp_flip_rate` this can land anywhere: sign, exponent, mantissa.
    pub bit_flip_rate: f64,
    /// PRNG seed; equal seeds reproduce the same fault pattern.
    pub seed: u64,
}

impl FaultSpec {
    /// A spec that forces ±∞ at the given rate and nothing else.
    pub fn inf(rate: f64, seed: u64) -> Self {
        FaultSpec {
            exp_flip_rate: 0.0,
            inf_rate: rate,
            subnormal_flush_rate: 0.0,
            bit_flip_rate: 0.0,
            seed,
        }
    }

    /// A spec that flips exponent bits at the given rate and nothing else.
    pub fn exp_flip(rate: f64, seed: u64) -> Self {
        FaultSpec {
            exp_flip_rate: rate,
            inf_rate: 0.0,
            subnormal_flush_rate: 0.0,
            bit_flip_rate: 0.0,
            seed,
        }
    }

    /// A spec that injects nothing: the carrier for plans that corrupt
    /// only through targeted upsets such as [`inject_bit_flip_tap`].
    pub fn none(seed: u64) -> Self {
        FaultSpec {
            exp_flip_rate: 0.0,
            inf_rate: 0.0,
            subnormal_flush_rate: 0.0,
            bit_flip_rate: 0.0,
            seed,
        }
    }
}

/// Tally of the corruptions actually applied.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultReport {
    /// Entries whose exponent had one bit flipped.
    pub exp_flips: u64,
    /// Entries forced to ±∞.
    pub infs: u64,
    /// Entries flushed to a subnormal.
    pub subnormal_flushes: u64,
    /// Entries with one uniformly random bit flipped.
    pub bit_flips: u64,
}

impl FaultReport {
    /// Total corrupted entries.
    pub fn total(&self) -> u64 {
        self.exp_flips + self.infs + self.subnormal_flushes + self.bit_flips
    }
}

// SplitMix64, embedded so the fault path adds no dependency edges.
#[inline]
fn next_u64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e3779b97f4a7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

#[inline]
fn chance(state: &mut u64, p: f64) -> bool {
    p > 0.0 && ((next_u64(state) >> 11) as f64 * (1.0 / (1u64 << 53) as f64)) < p
}

/// Bit-level corruption of one 16-bit value. `exp_mask` selects the
/// format's exponent field; `sub_bits` is a representative subnormal.
#[inline]
fn corrupt_bits16(
    bits: u16,
    exp_mask: u16,
    sub_bits: u16,
    spec: &FaultSpec,
    state: &mut u64,
    report: &mut FaultReport,
) -> u16 {
    let mut out = bits;
    if chance(state, spec.exp_flip_rate) {
        let exp_bits: u32 = exp_mask.count_ones();
        let shift = exp_mask.trailing_zeros() + (next_u64(state) % exp_bits as u64) as u32;
        out ^= 1 << shift;
        report.exp_flips += 1;
    }
    if chance(state, spec.inf_rate) {
        out = (out & 0x8000) | exp_mask; // ±∞: sign kept, exponent all ones, mantissa 0
        report.infs += 1;
    }
    if chance(state, spec.subnormal_flush_rate) {
        out = (out & 0x8000) | sub_bits;
        report.subnormal_flushes += 1;
    }
    if chance(state, spec.bit_flip_rate) {
        out ^= 1 << (next_u64(state) % 16);
        report.bit_flips += 1;
    }
    out
}

/// Bit-level corruption of one wide (f32/f64) value, mirroring
/// [`corrupt_bits16`]; parameterized by the format's sign/exponent
/// geometry. The subnormal flush lands on the smallest positive
/// subnormal of the format (sign preserved).
macro_rules! corrupt_bits_wide {
    ($name:ident, $ty:ty, $sign:expr, $exp_mask:expr, $exp_shift:expr, $exp_bits:expr) => {
        #[inline]
        fn $name(bits: $ty, spec: &FaultSpec, state: &mut u64, report: &mut FaultReport) -> $ty {
            let mut out = bits;
            if chance(state, spec.exp_flip_rate) {
                let shift = $exp_shift + (next_u64(state) % $exp_bits) as u32;
                out ^= 1 << shift;
                report.exp_flips += 1;
            }
            if chance(state, spec.inf_rate) {
                out = (out & $sign) | $exp_mask;
                report.infs += 1;
            }
            if chance(state, spec.subnormal_flush_rate) {
                out = (out & $sign) | 1;
                report.subnormal_flushes += 1;
            }
            if chance(state, spec.bit_flip_rate) {
                let width = <$ty>::BITS as u64;
                out ^= 1 << (next_u64(state) % width);
                report.bit_flips += 1;
            }
            out
        }
    };
}

corrupt_bits_wide!(corrupt_bits32, u32, 0x8000_0000, 0x7f80_0000, 23, 8);
corrupt_bits_wide!(corrupt_bits64, u64, 1 << 63, 0x7ff0_0000_0000_0000, 52, 11);

/// Injects faults into every stored entry of `a` per `spec`. All four
/// storage formats are supported; unrecognized storage types are left
/// untouched and report zero.
pub fn inject<S: Storage + 'static>(a: &mut SgDia<S>, spec: &FaultSpec) -> FaultReport {
    let mut report = FaultReport::default();
    let mut state = spec.seed;
    let data = a.data_mut();
    if let Some(d16) = crate::kernels::cast_slice_mut::<S, F16>(data) {
        for v in d16 {
            // Skip structural zeros so corruption lands on real coefficients.
            if v.to_bits() & 0x7fff == 0 {
                continue;
            }
            *v = F16::from_bits(corrupt_bits16(
                v.to_bits(),
                0x7c00,
                F16::MIN_POSITIVE_SUBNORMAL.to_bits(),
                spec,
                &mut state,
                &mut report,
            ));
        }
        return report;
    }
    if let Some(db16) = crate::kernels::cast_slice_mut::<S, Bf16>(data) {
        for v in db16 {
            if v.to_bits() & 0x7fff == 0 {
                continue;
            }
            *v = Bf16::from_bits(corrupt_bits16(
                v.to_bits(),
                0x7f80,
                0x0001,
                spec,
                &mut state,
                &mut report,
            ));
        }
        return report;
    }
    if let Some(d32) = crate::kernels::cast_slice_mut::<S, f32>(data) {
        for v in d32 {
            if v.to_bits() & 0x7fff_ffff == 0 {
                continue;
            }
            *v = f32::from_bits(corrupt_bits32(v.to_bits(), spec, &mut state, &mut report));
        }
        return report;
    }
    if let Some(d64) = crate::kernels::cast_slice_mut::<S, f64>(data) {
        for v in d64 {
            if v.to_bits() & !(1u64 << 63) == 0 {
                continue;
            }
            *v = f64::from_bits(corrupt_bits64(v.to_bits(), spec, &mut state, &mut report));
        }
        return report;
    }
    report
}

/// Forces exactly one entry — `(cell, tap)` — to ±∞ (sign preserved;
/// zero entries become +∞). Returns `false` for unrecognized storage.
pub fn inject_inf_at<S: Storage + 'static>(a: &mut SgDia<S>, cell: usize, tap: usize) -> bool {
    let idx = a.entry_index(cell, tap);
    let data = a.data_mut();
    if let Some(d16) = crate::kernels::cast_slice_mut::<S, F16>(data) {
        d16[idx] = F16::from_bits((d16[idx].to_bits() & 0x8000) | 0x7c00);
        return true;
    }
    if let Some(db16) = crate::kernels::cast_slice_mut::<S, Bf16>(data) {
        db16[idx] = Bf16::from_bits((db16[idx].to_bits() & 0x8000) | 0x7f80);
        return true;
    }
    if let Some(d32) = crate::kernels::cast_slice_mut::<S, f32>(data) {
        d32[idx] = f32::from_bits((d32[idx].to_bits() & 0x8000_0000) | 0x7f80_0000);
        return true;
    }
    if let Some(d64) = crate::kernels::cast_slice_mut::<S, f64>(data) {
        d64[idx] = f64::from_bits((d64[idx].to_bits() & (1 << 63)) | 0x7ff0_0000_0000_0000);
        return true;
    }
    false
}

/// Flips exactly one bit of the entry at `(cell, tap)` — the single-event
/// upset the integrity sentinels exist to catch. `bit` is taken modulo the
/// storage width, so a test can sweep `0..64` against any format. Returns
/// `false` for unrecognized storage.
pub fn inject_bit_flip_at<S: Storage + 'static>(
    a: &mut SgDia<S>,
    cell: usize,
    tap: usize,
    bit: u32,
) -> bool {
    let idx = a.entry_index(cell, tap);
    let data = a.data_mut();
    if let Some(d16) = crate::kernels::cast_slice_mut::<S, F16>(data) {
        d16[idx] = F16::from_bits(d16[idx].to_bits() ^ (1 << (bit % 16)));
        return true;
    }
    if let Some(db16) = crate::kernels::cast_slice_mut::<S, Bf16>(data) {
        db16[idx] = Bf16::from_bits(db16[idx].to_bits() ^ (1 << (bit % 16)));
        return true;
    }
    if let Some(d32) = crate::kernels::cast_slice_mut::<S, f32>(data) {
        d32[idx] = f32::from_bits(d32[idx].to_bits() ^ (1 << (bit % 32)));
        return true;
    }
    if let Some(d64) = crate::kernels::cast_slice_mut::<S, f64>(data) {
        d64[idx] = f64::from_bits(d64[idx].to_bits() ^ (1 << (bit % 64)));
        return true;
    }
    false
}

/// Flips one bit of the first *nonzero* entry of coefficient plane `tap`
/// (cell-major order), so a targeted upset is guaranteed to land on a
/// real coupling rather than an out-of-grid explicit zero. Returns the
/// corrupted cell, or `None` when the tap is out of range, the plane is
/// all zeros, or the storage type is unrecognized.
pub fn inject_bit_flip_tap<S: Storage + 'static>(
    a: &mut SgDia<S>,
    tap: usize,
    bit: u32,
) -> Option<usize> {
    if tap >= a.pattern().len() {
        return None;
    }
    let cells = a.grid().cells();
    let cell = (0..cells).find(|&c| a.get(c, tap).load_f64() != 0.0)?;
    inject_bit_flip_at(a, cell, tap, bit).then_some(cell)
}
