//! Bit-pattern checksums over storage formats.
//!
//! Integrity sentinels and the cache fingerprint need a digest that is (a)
//! cheap enough to recompute on a V-cycle cadence, (b) deterministic across
//! runs and platforms, and (c) sensitive to *every* single-bit change in a
//! stored coefficient plane.
//!
//! [`LaneHash`] is that digest: eight interleaved 64-bit multiply-xor
//! lanes, value `i` of the sequence going to lane `i mod 8` as one whole
//! word, folded once at the end. A byte-wise FNV-1a chain pays one
//! *dependent* multiply per byte; eight independent chains of one multiply
//! per value run at memory speed. [`LaneSums`] keeps the sentinels' two
//! FP64 witnesses (sum and absolute sum) in the same eight lanes, so they
//! vectorise and stay a pure function of the value sequence. [`Fnv1a`]
//! stays for byte streams (snapshot bodies).
//!
//! **What the lane hash guarantees.** A step `h ← (h ⊕ bits) · PRIME` is a
//! bijection of the lane state for fixed `bits` and of `bits` for a fixed
//! state (xor is one; an odd multiplier is invertible mod 2⁶⁴), and so is
//! every step of the final fold. Two sequences of the same length and
//! format that differ in exactly one value — in particular by any single
//! flipped bit, in any lane or in the tail — therefore *always* digest
//! differently. The digest also depends on the order of the values, their
//! count and the format's width. **What it does not:** changes to two or
//! more values can cancel (with probability about 2⁻⁶⁴ when unrelated, and
//! by construction when meant to); it is neither keyed nor cryptographic.
//!
//! Hashing bit patterns rather than loaded values matters: `-0.0` vs
//! `+0.0` and distinct NaN payloads are different storage states even
//! though they compare equal (or unordered) as floats, and a flip that
//! lands in such a value must still be detected.

use crate::Storage;

/// FNV-1a offset basis (64-bit).
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a prime (64-bit).
pub const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Incremental FNV-1a hasher over bytes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Fnv1a {
    state: u64,
}

impl Default for Fnv1a {
    fn default() -> Self {
        Self::new()
    }
}

impl Fnv1a {
    /// Fresh hasher at the FNV offset basis.
    #[inline]
    pub const fn new() -> Self {
        Fnv1a { state: FNV_OFFSET }
    }

    /// Mixes one byte into the state.
    #[inline(always)]
    pub fn write_u8(&mut self, b: u8) {
        self.state ^= b as u64;
        self.state = self.state.wrapping_mul(FNV_PRIME);
    }

    /// Current digest.
    #[inline]
    pub const fn finish(&self) -> u64 {
        self.state
    }
}

/// Interleaved lanes of [`LaneHash`] and [`LaneSums`].
pub const LANES: usize = 8;

/// Odd multiplier of the lane step and of the fold (2⁶⁴ / φ: any odd
/// constant keeps the bijection, this one carries low bits upward fast).
const LANE_PRIME: u64 = 0x9e37_79b9_7f4a_7c15;

#[inline(always)]
const fn lane_step(h: u64, bits: u64) -> u64 {
    (h ^ bits).wrapping_mul(LANE_PRIME)
}

/// Splits the continuation of a sequence already `done` values long into
/// the values up to the next lane-0 boundary, whole groups of [`LANES`]
/// starting at lane 0, and the rest.
#[inline(always)]
fn split_lanes<V>(done: u64, values: &[V]) -> (&[V], &[V], &[V]) {
    let head = ((LANES - (done % LANES as u64) as usize) % LANES).min(values.len());
    let (head, rest) = values.split_at(head);
    let (groups, tail) = rest.split_at(rest.len() - rest.len() % LANES);
    (head, groups, tail)
}

/// The eight-lane digest of a sequence of stored values (see the module
/// text for what it promises). Values may arrive one at a time or in
/// slices of any length; only their order counts.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LaneHash {
    lanes: [u64; LANES],
    len: u64,
}

impl LaneHash {
    /// Fresh digest of values of format `S`: the width seeds the lanes, so
    /// the same numbers stored as F16 and as F32 digest differently.
    pub fn new<S: Storage>() -> Self {
        let mut lanes = [0u64; LANES];
        for (lane, h) in lanes.iter_mut().enumerate() {
            *h = lane_step(FNV_OFFSET ^ S::BYTES as u64, lane as u64);
        }
        LaneHash { lanes, len: 0 }
    }

    /// Mixes the next value's bit pattern in.
    #[inline(always)]
    pub fn write_value<S: Storage>(&mut self, v: S) {
        let lane = (self.len % LANES as u64) as usize;
        self.lanes[lane] = lane_step(self.lanes[lane], v.store_bits());
        self.len += 1;
    }

    /// Mixes the next values in, in order — equal to
    /// [`write_value`](Self::write_value) on each, at one multiply per
    /// value with eight in flight.
    #[inline]
    pub fn write_slice<S: Storage>(&mut self, values: &[S]) {
        let (head, groups, tail) = split_lanes(self.len, values);
        head.iter().for_each(|&v| self.write_value(v));
        // A local copy, so the eight chains live in registers.
        let mut lanes = self.lanes;
        for group in groups.chunks_exact(LANES) {
            for (h, v) in lanes.iter_mut().zip(group) {
                *h = lane_step(*h, v.store_bits());
            }
        }
        self.lanes = lanes;
        self.len += groups.len() as u64;
        tail.iter().for_each(|&v| self.write_value(v));
    }

    /// The digest: the lanes and the length folded by the same bijective
    /// step, then the high half xored down (low digest bits would
    /// otherwise never see a value's high bits).
    pub fn finish(&self) -> u64 {
        let acc = self.lanes.iter().fold(lane_step(FNV_OFFSET, self.len), |a, &h| lane_step(a, h));
        acc ^ (acc >> 32)
    }
}

/// Sum and absolute sum of a sequence of FP64 values in eight interleaved
/// lanes (value `i` in lane `i mod 8`), the lanes added in lane order at
/// the end: a fixed association, so recomputing on the same sequence
/// reproduces both bit for bit, however the sequence was sliced.
#[derive(Clone, Copy, Debug, Default)]
pub struct LaneSums {
    sum: [f64; LANES],
    abs_sum: [f64; LANES],
    len: u64,
}

impl LaneSums {
    /// Adds the next value.
    #[inline(always)]
    pub fn add(&mut self, x: f64) {
        let lane = (self.len % LANES as u64) as usize;
        self.sum[lane] += x;
        self.abs_sum[lane] += x.abs();
        self.len += 1;
    }

    /// Adds the next values, in order — equal to [`add`](Self::add) on
    /// each.
    #[inline]
    pub fn add_slice(&mut self, values: &[f64]) {
        let (head, groups, tail) = split_lanes(self.len, values);
        head.iter().for_each(|&x| self.add(x));
        let (mut sum, mut abs_sum) = (self.sum, self.abs_sum);
        for group in groups.chunks_exact(LANES) {
            for ((s, a), &x) in sum.iter_mut().zip(&mut abs_sum).zip(group) {
                *s += x;
                *a += x.abs();
            }
        }
        (self.sum, self.abs_sum) = (sum, abs_sum);
        self.len += groups.len() as u64;
        tail.iter().for_each(|&x| self.add(x));
    }

    /// `(sum, absolute sum)`.
    pub fn finish(&self) -> (f64, f64) {
        (self.sum.iter().sum(), self.abs_sum.iter().sum())
    }
}

/// One-shot digest of a slice of stored values.
pub fn checksum_slice<S: Storage>(values: &[S]) -> u64 {
    let mut h = LaneHash::new::<S>();
    h.write_slice(values);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Bf16, F16};

    #[test]
    fn matches_reference_fnv1a_bytes() {
        // FNV-1a of the empty input is the offset basis.
        assert_eq!(Fnv1a::new().finish(), FNV_OFFSET);
        // Known vector: FNV-1a("a") = 0xaf63dc4c8601ec8c.
        let mut h = Fnv1a::new();
        h.write_u8(b'a');
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn digest_is_format_and_order_sensitive() {
        let f = [1.0f32, -2.5, 3.25];
        let d = [1.0f64, -2.5, 3.25];
        assert_ne!(checksum_slice(&f), checksum_slice(&d));
        let swapped = [(-2.5f32), 1.0, 3.25];
        assert_ne!(checksum_slice(&f), checksum_slice(&swapped));
        // Zeros carry no bits of their own: width and count still tell.
        assert_ne!(checksum_slice(&[0.0f32; 4]), checksum_slice(&[F16::from_f32(0.0); 4]));
        assert_ne!(checksum_slice(&[0.0f32; 8]), checksum_slice(&[0.0f32; 9]));
        // Two values of one lane (0 and 8) in the other order.
        let mut a = [0.5f64; 17];
        (a[0], a[8]) = (2.0, 3.0);
        let mut b = a;
        b.swap(0, 8);
        assert_ne!(checksum_slice(&a), checksum_slice(&b));
    }

    #[test]
    fn every_bit_flip_changes_the_digest() {
        // Every bit of every position of a sequence with two full groups
        // and a tail: each lane, and the values past the last group.
        fn sweep<S: Storage>(from_bits: impl Fn(u64) -> S, width: u32) {
            let base: Vec<S> = (0..2 * LANES as u64 + 5)
                .map(|i| from_bits(0x3c00_4def_9abc_1234u64.rotate_left(i as u32 * 7)))
                .collect();
            let h0 = checksum_slice(&base);
            for at in 0..base.len() {
                for bit in 0..width {
                    let mut flipped = base.clone();
                    flipped[at] = from_bits(base[at].store_bits() ^ (1 << bit));
                    assert_ne!(checksum_slice(&flipped), h0, "{} value {at} bit {bit}", S::NAME);
                }
            }
        }
        sweep(|b| F16::from_bits(b as u16), 16);
        sweep(|b| Bf16::from_bits(b as u16), 16);
        sweep(|b| f32::from_bits(b as u32), 32);
        sweep(f64::from_bits, 64);
    }

    #[test]
    fn slicing_does_not_change_digest_or_sums() {
        let values: Vec<f64> = (0..61).map(|i| (i as f64 - 20.5) * 1.0e-3f64.powi(i % 5)).collect();
        let mut one = LaneHash::new::<f64>();
        let mut one_sums = LaneSums::default();
        for &v in &values {
            one.write_value(v);
            one_sums.add(v);
        }
        for cut in [0, 1, 7, 8, 9, 30, 61] {
            for cut2 in [cut, (cut + 3).min(61), 61] {
                let mut h = LaneHash::new::<f64>();
                let mut sums = LaneSums::default();
                for part in [&values[..cut], &values[cut..cut2], &values[cut2..]] {
                    h.write_slice(part);
                    sums.add_slice(part);
                }
                assert_eq!(h, one, "cuts {cut}, {cut2}");
                assert_eq!(h.finish(), one.finish());
                let (s, a) = sums.finish();
                let (s1, a1) = one_sums.finish();
                assert_eq!((s.to_bits(), a.to_bits()), (s1.to_bits(), a1.to_bits()));
            }
        }
    }

    #[test]
    fn signed_zero_and_nan_payloads_are_distinct_states() {
        assert_ne!(checksum_slice(&[0.0f32]), checksum_slice(&[-0.0f32]));
        let quiet = f64::from_bits(0x7ff8_0000_0000_0000);
        let payload = f64::from_bits(0x7ff8_0000_0000_0001);
        assert_ne!(checksum_slice(&[quiet]), checksum_slice(&[payload]));
    }
}
