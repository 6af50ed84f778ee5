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
//! setup every coefficient plane gets a [`TapSentinel`] — the eight-lane
//! checksum of its raw bit patterns ([`fp16mg_fp::LaneHash`]) plus two
//! FP64 analytical invariants (sum and absolute sum of the stored values,
//! [`fp16mg_fp::LaneSums`]). Verification recomputes the sentinels and
//! compares:
//!
//! * the **checksum** catches *every* single-bit change, including flips
//!   inside NaN payloads or between ±0 that no float comparison can see;
//! * the **sums** are redundant witnesses that survive a corrupted
//!   checksum word itself and give a quick magnitude estimate of the
//!   damage.
//!
//! Both are computed in a fixed order (value `i` of a plane in lane
//! `i mod 8`, the lanes folded at the end), so recomputing
//! on an uncorrupted plane reproduces them *exactly* — verification is
//! bit-exact equality, with no tolerance to tune and no false positives.
//! A mismatch localizes corruption to a (tap, plane) pair; the hierarchy
//! layer above maps that to a level and repairs it in place.

use crate::matrix::SgDia;
use fp16mg_fp::{LaneHash, LaneSums, Storage};

use crate::Layout;

/// Integrity sentinel of one coefficient plane (all cells of one tap).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TapSentinel {
    /// Lane-hash digest of the plane's raw bit patterns, in cell order.
    pub checksum: u64,
    /// Eight-lane FP64 sum of the stored values (loaded exactly).
    pub sum: f64,
    /// Eight-lane FP64 sum of absolute values.
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

/// Stored values widened per bulk conversion in [`SentinelAcc::push_slice`].
const BLOCK: usize = 256;

/// Running state of one plane's [`TapSentinel`]: values are pushed in
/// cell order, one at a time or in slices.
#[derive(Clone, Copy, Debug)]
pub struct SentinelAcc {
    hash: LaneHash,
    sums: LaneSums,
}

impl SentinelAcc {
    /// The sentinel of an empty plane stored as `S`.
    pub fn new<S: Storage>() -> Self {
        SentinelAcc { hash: LaneHash::new::<S>(), sums: LaneSums::default() }
    }

    /// Folds the next stored value of the plane in.
    #[inline(always)]
    pub fn push<S: Storage>(&mut self, v: S) {
        self.hash.write_value(v);
        self.sums.add(v.load_f64());
    }

    /// Folds the next stored values in, given what they load to
    /// (`wide[i] == stored[i].load_f64()`): the store pass has both.
    #[inline]
    pub fn push_widened<S: Storage>(&mut self, stored: &[S], wide: &[f64]) {
        debug_assert_eq!(stored.len(), wide.len());
        self.hash.write_slice(stored);
        self.sums.add_slice(wide);
    }

    /// Folds the next stored values in, widening them in bulk.
    pub fn push_slice<S: Storage>(&mut self, stored: &[S]) {
        let mut wide = [0.0f64; BLOCK];
        for block in stored.chunks(BLOCK) {
            let wide = &mut wide[..block.len()];
            S::load_f64_slice(block, wide);
            self.push_widened(block, wide);
        }
    }

    /// The finished sentinel. A NaN sum is stored as the canonical NaN:
    /// which operand's sign and payload an addition propagates is up to
    /// the code generator, and verification compares bits.
    pub fn finish(self) -> TapSentinel {
        let canonical = |x: f64| if x.is_nan() { f64::NAN } else { x };
        let (sum, abs_sum) = self.sums.finish();
        TapSentinel {
            checksum: self.hash.finish(),
            sum: canonical(sum),
            abs_sum: canonical(abs_sum),
        }
    }
}

/// Computes the per-plane sentinels of a matrix.
///
/// A plane is digested in cell order whatever the in-memory
/// [`Layout`]: an SOA plane as the slice it is, an AOS one entry by
/// entry — an AOS and an SOA store of the same values have identical
/// sentinels.
pub fn compute<S: Storage>(a: &SgDia<S>) -> MatrixSentinels {
    let cells = a.grid().cells();
    let taps = (0..a.pattern().len())
        .map(|tap| {
            let mut acc = SentinelAcc::new::<S>();
            match a.layout() {
                Layout::Soa => acc.push_slice(a.tap_slice(tap)),
                Layout::Aos => (0..cells).for_each(|cell| acc.push(a.get(cell, tap))),
            }
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
