//! Integrity sentinels for SG-DIA coefficient planes (ABFT).
//!
//! The FP16 coefficient planes are the largest data structure the solve
//! keeps live (§3.2, Table 2) and therefore the largest exposure surface to
//! silent memory corruption. A single flipped bit in a stored tap poisons
//! every subsequent V-cycle, and by the time the SolveHealth monitor sees
//! the symptom (stagnation or breakdown) the cause is indistinguishable
//! from a genuine numerical failure.
//!
//! Algorithm-based fault tolerance makes the state checkable instead: at
//! setup every coefficient plane gets a [`TapSentinel`] — an FNV-1a
//! checksum of its raw bit patterns plus two FP64 analytical invariants
//! (sum and absolute sum of the stored values). Verification recomputes
//! the sentinels and compares:
//!
//! * the **checksum** catches *every* single-bit change, including flips
//!   inside NaN payloads or between ±0 that no float comparison can see;
//! * the **sums** are redundant witnesses that survive a corrupted
//!   checksum word itself and give a quick magnitude estimate of the
//!   damage.
//!
//! Both are computed in a deterministic sequential order, so recomputing
//! on an uncorrupted plane reproduces them *exactly* — verification is
//! bit-exact equality, with no tolerance to tune and no false positives.
//! A mismatch localizes corruption to a (tap, plane) pair; the hierarchy
//! layer above maps that to a level and repairs it in place.

use crate::matrix::SgDia;
use fp16mg_fp::{Fnv1a, Storage};

/// Integrity sentinel of one coefficient plane (all cells of one tap).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TapSentinel {
    /// FNV-1a digest of the plane's raw bit patterns, in cell order.
    pub checksum: u64,
    /// Sequential FP64 sum of the stored values (loaded exactly).
    pub sum: f64,
    /// Sequential FP64 sum of absolute values.
    pub abs_sum: f64,
}

/// Sentinels for every coefficient plane of one matrix.
#[derive(Clone, Debug, PartialEq)]
pub struct MatrixSentinels {
    /// One sentinel per stencil tap, indexed by tap number.
    pub taps: Vec<TapSentinel>,
    /// Number of cells per plane when the sentinels were taken.
    pub cells: usize,
}

/// One detected plane mismatch: which tap, and which witnesses disagree.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TapMismatch {
    /// Tap (plane) index within the stencil pattern.
    pub tap: usize,
    /// The bit-pattern checksum disagrees.
    pub checksum_differs: bool,
    /// The FP64 value-sum invariant disagrees.
    pub sum_differs: bool,
    /// The FP64 absolute-sum invariant disagrees.
    pub abs_sum_differs: bool,
}

impl MatrixSentinels {
    /// Bytes of sentinel metadata (reporting; negligible next to the
    /// matrix itself — 24 bytes per plane).
    pub fn metadata_bytes(&self) -> usize {
        self.taps.len() * core::mem::size_of::<TapSentinel>()
    }
}

/// Running state of one plane's [`TapSentinel`]: values are pushed in
/// cell order.
#[derive(Clone, Copy, Debug, Default)]
pub struct SentinelAcc {
    hash: Fnv1a,
    sum: f64,
    abs_sum: f64,
}

impl SentinelAcc {
    /// Folds the next stored value of the plane in.
    #[inline(always)]
    pub fn push<S: Storage>(&mut self, v: S) {
        self.hash.write_value(v);
        let w = v.load_f64();
        self.sum += w;
        self.abs_sum += w.abs();
    }

    /// The finished sentinel. A NaN sum is stored as the canonical NaN:
    /// which operand's sign and payload an addition propagates is up to
    /// the code generator, and verification compares bits.
    pub fn finish(self) -> TapSentinel {
        let canonical = |x: f64| if x.is_nan() { f64::NAN } else { x };
        TapSentinel {
            checksum: self.hash.finish(),
            sum: canonical(self.sum),
            abs_sum: canonical(self.abs_sum),
        }
    }
}

/// Computes the per-plane sentinels of a matrix.
///
/// Iterates cell-major within each tap via [`SgDia::get`], so the result
/// is independent of the in-memory [`Layout`](crate::Layout): an AOS and
/// an SOA store of the same values have identical sentinels.
pub fn compute<S: Storage>(a: &SgDia<S>) -> MatrixSentinels {
    let cells = a.grid().cells();
    let taps = (0..a.pattern().len())
        .map(|tap| {
            let mut acc = SentinelAcc::default();
            (0..cells).for_each(|cell| acc.push(a.get(cell, tap)));
            acc.finish()
        })
        .collect();
    MatrixSentinels { taps, cells }
}

/// Recomputes the sentinels and returns every plane that disagrees.
///
/// Exact comparison throughout: the reference was produced by the same
/// deterministic sweep, so any difference is real. NaN sums (a flip that
/// manufactured a NaN) are treated as differing from everything,
/// including another NaN.
pub fn verify<S: Storage>(a: &SgDia<S>, reference: &MatrixSentinels) -> Vec<TapMismatch> {
    let current = compute(a);
    let mut mismatches = Vec::new();
    for (tap, (now, want)) in current.taps.iter().zip(reference.taps.iter()).enumerate() {
        let checksum_differs = now.checksum != want.checksum;
        let sum_differs = now.sum.to_bits() != want.sum.to_bits();
        let abs_sum_differs = now.abs_sum.to_bits() != want.abs_sum.to_bits();
        if checksum_differs || sum_differs || abs_sum_differs {
            mismatches.push(TapMismatch { tap, checksum_differs, sum_differs, abs_sum_differs });
        }
    }
    if current.taps.len() != reference.taps.len() {
        // A structural disagreement (should not happen for an in-place
        // store) marks every extra plane as corrupt.
        for tap in reference.taps.len().min(current.taps.len())
            ..current.taps.len().max(reference.taps.len())
        {
            mismatches.push(TapMismatch {
                tap,
                checksum_differs: true,
                sum_differs: true,
                abs_sum_differs: true,
            });
        }
    }
    mismatches
}
