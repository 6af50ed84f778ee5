//! Pre-solve precision audit of the FP16/BF16 truncation pipeline.
//!
//! `scale_symmetric` (Theorem 4.1) guarantees that no scaled entry
//! *overflows* the storage range, but says nothing about the other end:
//! small off-diagonal couplings can land below the format's normal range
//! and silently flush to subnormals or to zero — the failure mode the
//! paper's `shift_levid` guard (§4.3) exists to dodge, and the one the
//! GPU half-precision GMG literature blames for most FP16 breakdowns.
//! Until now the first symptom was a downstream Krylov stall.
//!
//! This module makes every truncation observable and policy-governed:
//!
//! * [`RangeAudit`] — a one-pass report over a high-precision level
//!   matrix describing exactly what truncation to a target precision
//!   would do: overflow headroom, underflow-to-zero / subnormal-flush /
//!   saturation counts, and the relative truncation loss (max and mean,
//!   convertible to ulps of the target format).
//! * [`TruncationPolicy`] — what the store path does with entries that
//!   leave the representable range: refuse ([`TruncationPolicy::Reject`],
//!   with a typed [`TruncationError`]), clamp to the largest finite value
//!   ([`TruncationPolicy::Saturate`]), or additionally flush subnormal
//!   results to exact zeros ([`TruncationPolicy::FlushToZero`] — trading
//!   a little coupling information for kernels that never touch the slow
//!   subnormal path).
//! * [`truncate_with_policy`] — the policy-aware `f64 → D` matrix store,
//!   replacing the silent IEEE conversion on the production paths.
//!
//! The audit runs on the *high-precision source* (before any bits are
//! lost), so its counts are exact predictions, not post-hoc forensics;
//! `core` runs it on every scaled level during Galerkin setup and the
//! runtime's retry ladder consumes it to skip doomed retries.

use fp16mg_fp::{Bf16, NumClass, Precision, Storage, F16};

use crate::scaling::{scaled_entry, scaled_plane_block};
use crate::sentinel::{MatrixSentinels, SentinelAcc};
use crate::{Layout, SgDia};

/// Out-of-range treatment on the storage truncation path.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum TruncationPolicy {
    /// Refuse to store a matrix containing any entry that cannot be
    /// represented finitely: saturating (or non-finite) entries are a
    /// typed [`TruncationError`] instead of a silent ±∞. The strictest
    /// policy — Theorem 4.1 promises it never fires after scaling, and
    /// the property harness holds it to that.
    Reject,
    /// Clamp saturating entries to the format's largest finite magnitude
    /// (sign preserved), like `vcvtps2ph` with the saturation bit. The
    /// default: a clamped coupling is an approximation error, a stored
    /// ±∞ is a guaranteed NaN three kernels later.
    #[default]
    Saturate,
    /// [`TruncationPolicy::Saturate`], plus flush entries whose stored
    /// value would be subnormal to exact ±0. Subnormal coefficients
    /// carry ≤ 10 significant bits and can run through slow hardware
    /// paths; dropping them entirely is the honest version of what the
    /// arithmetic would do to them anyway.
    FlushToZero,
}

impl TruncationPolicy {
    /// Short display label.
    pub fn label(self) -> &'static str {
        match self {
            TruncationPolicy::Reject => "reject",
            TruncationPolicy::Saturate => "saturate",
            TruncationPolicy::FlushToZero => "flush-to-zero",
        }
    }
}

impl core::fmt::Display for TruncationPolicy {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.label())
    }
}

/// A truncation the active [`TruncationPolicy`] refused to perform.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum TruncationError {
    /// An entry's magnitude exceeds the target format's finite range, so
    /// storing it would saturate (or overflow to ±∞).
    Saturation {
        /// Grid cell of the offending entry.
        cell: usize,
        /// Stencil tap of the offending entry.
        tap: usize,
        /// The high-precision source value.
        value: f64,
        /// The target format's largest finite magnitude.
        limit: f64,
    },
    /// The high-precision source itself contains ±∞/NaN — nothing any
    /// storage format can round faithfully.
    NonFiniteSource {
        /// Grid cell of the offending entry.
        cell: usize,
        /// Stencil tap of the offending entry.
        tap: usize,
        /// The non-finite source value.
        value: f64,
    },
}

impl core::fmt::Display for TruncationError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            TruncationError::Saturation { cell, tap, value, limit } => write!(
                f,
                "entry (cell {cell}, tap {tap}) = {value:e} exceeds the storage range ±{limit:e}"
            ),
            TruncationError::NonFiniteSource { cell, tap, value } => {
                write!(f, "source entry (cell {cell}, tap {tap}) is non-finite ({value})")
            }
        }
    }
}

impl std::error::Error for TruncationError {}

/// What truncating one high-precision level to a target precision would
/// do to its entries — the per-level row of the precision audit.
#[derive(Clone, Debug, PartialEq)]
pub struct RangeAudit {
    /// The storage precision audited against.
    pub precision: Precision,
    /// Stored entries examined (structural zeros included).
    pub entries: u64,
    /// Entries that are exactly zero in the source (structural padding
    /// and genuine zeros; they truncate losslessly).
    pub source_zeros: u64,
    /// Non-finite entries already present in the source.
    pub source_non_finite: u64,
    /// Largest source magnitude.
    pub abs_max: f64,
    /// Smallest nonzero source magnitude.
    pub abs_min_nonzero: f64,
    /// Overflow headroom `abs_max / MAX_FINITE` of the target format:
    /// above 1.0 the level saturates; Theorem 4.1 keeps scaled levels
    /// strictly below 1.0.
    pub headroom: f64,
    /// Nonzero source entries that would flush to exactly ±0.
    pub underflow_zero: u64,
    /// Nonzero source entries that would land in the subnormal range.
    pub subnormal: u64,
    /// Entries whose magnitude saturates the format (rounds to ±∞ under
    /// plain IEEE truncation).
    pub saturate: u64,
    /// Largest relative truncation error over in-range nonzero entries
    /// (underflowed-to-zero and saturating entries are *counted* above,
    /// not folded into this figure, so it stays a rounding-loss gauge).
    pub max_rel_err: f64,
    /// Mean relative truncation error over the same entries.
    pub mean_rel_err: f64,
}

impl RangeAudit {
    /// Nonzero source entries (the denominator of the loss fractions).
    pub fn nonzero(&self) -> u64 {
        self.entries - self.source_zeros
    }

    /// Fraction of nonzero entries that underflow (to zero *or* to the
    /// subnormal range) — the gauge behind the `Auto` `shift_levid`
    /// heuristic: once it crosses the configured threshold, the level is
    /// better stored in the coarse precision.
    pub fn underflow_loss_fraction(&self) -> f64 {
        let nz = self.nonzero();
        if nz == 0 {
            0.0
        } else {
            (self.underflow_zero + self.subnormal) as f64 / nz as f64
        }
    }

    /// True when every entry stores finitely (no saturation, no
    /// non-finite sources) — the Theorem 4.1 no-overflow invariant.
    pub fn overflow_free(&self) -> bool {
        self.saturate == 0 && self.source_non_finite == 0
    }

    /// Max truncation error expressed in ulps of the target format
    /// (relative error divided by the format's unit roundoff; ≈ 0.5 ulp
    /// is the round-to-nearest expectation).
    pub fn max_ulp(&self) -> f64 {
        self.max_rel_err / self.precision.unit_roundoff()
    }

    /// Mean truncation error in ulps of the target format.
    pub fn mean_ulp(&self) -> f64 {
        self.mean_rel_err / self.precision.unit_roundoff()
    }
}

impl core::fmt::Display for RangeAudit {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "{}: headroom {:.2e}, uflow->0 {}, subnormal {}, saturate {}, \
             rel err max {:.2e} mean {:.2e}",
            self.precision.name(),
            self.headroom,
            self.underflow_zero,
            self.subnormal,
            self.saturate,
            self.max_rel_err,
            self.mean_rel_err
        )
    }
}

/// Audits what truncating `a` to `precision` would do, in one pass over
/// the high-precision data and without materializing the truncation.
pub fn audit(a: &SgDia<f64>, precision: Precision) -> RangeAudit {
    audit_scaled(a, None, precision)
}

/// [`audit`] of `a` as symmetric scaling by `scale` (`1/√q` per unknown,
/// [`crate::scaling::ScalePlan::s_inv`]) would leave it — of `a` itself
/// for `None` — without materializing the scaled matrix either.
pub fn audit_scaled(a: &SgDia<f64>, scale: Option<&[f64]>, precision: Precision) -> RangeAudit {
    fn sweep<T: Storage>(a: &SgDia<f64>, scale: Option<&[f64]>) -> RangeAudit {
        let mut acc = AuditAcc::new::<T>();
        // Plain IEEE never refuses an entry.
        let _ = store_sweep::<T>(a, scale, false, None, &mut acc, |_, _| {});
        acc.finish::<T>()
    }
    match precision {
        Precision::F64 => sweep::<f64>(a, scale),
        Precision::F32 => sweep::<f32>(a, scale),
        Precision::F16 => sweep::<F16>(a, scale),
        Precision::BF16 => sweep::<Bf16>(a, scale),
    }
}

/// A [`RangeAudit`] in the making: while entries are swept,
/// `abs_min_nonzero` starts at +∞ and `mean_rel_err` holds the error
/// *sum* over `summed` entries; [`AuditAcc::finish`] settles both.
struct AuditAcc {
    audit: RangeAudit,
    summed: u64,
}

impl AuditAcc {
    fn new<T: Storage>() -> Self {
        let audit = RangeAudit {
            precision: T::PRECISION,
            entries: 0,
            source_zeros: 0,
            source_non_finite: 0,
            abs_max: 0.0,
            abs_min_nonzero: f64::INFINITY,
            headroom: 0.0,
            underflow_zero: 0,
            subnormal: 0,
            saturate: 0,
            max_rel_err: 0.0,
            mean_rel_err: 0.0,
        };
        AuditAcc { audit, summed: 0 }
    }

    fn finish<T: Storage>(self) -> RangeAudit {
        let mut audit = self.audit;
        if audit.abs_min_nonzero.is_infinite() {
            // No nonzero entry at all: an empty range.
            audit.abs_min_nonzero = 0.0;
        }
        audit.headroom = audit.abs_max / T::MAX_FINITE;
        if self.summed > 0 {
            audit.mean_rel_err /= self.summed as f64;
        }
        audit
    }
}

/// What a block of *plain* entries — every truncation normal, or the exact
/// zero of a zero source — adds to an audit.
struct PlainTally {
    abs_max: f64,
    abs_min_nonzero: f64,
    max_rel_err: f64,
    zeros: u64,
    /// The audit's error sum after the block.
    err_sum: f64,
}

/// The relative truncation error of every entry of a block (`values`
/// truncated, loaded back as `wide`) into `rel`, and, when every entry is
/// plain, what the block adds to an audit whose error sum stands at
/// `err_sum` — equal to [`store_entry`] on each entry in turn. The extrema
/// and counts do not depend on the order they are taken in and go eight
/// lanes at a time; the error *sum* does, so its chain runs in entry
/// order (adding `+0.0` for a zero source, which leaves a non-negative sum
/// as it is, to the bit) — inside the same loop, where its latency hides
/// behind the divisions.
///
/// Not inlined: inside the sweep's other loops the compiler runs out of
/// registers for the eight lanes (it cost a third of the whole pass).
#[inline(never)]
fn tally_block<T: Storage>(
    values: &[f64],
    wide: &[f64],
    rel: &mut [f64],
    err_sum: f64,
) -> Option<PlainTally> {
    #[cfg(target_arch = "x86_64")]
    if crate::kernels::simd_available() {
        // SAFETY: AVX2 availability was just checked.
        return unsafe { tally_block_avx2::<T>(values, wide, rel, err_sum) };
    }
    tally_block_in::<T>(values, wide, rel, err_sum)
}

/// [`tally_block`] in 256-bit vectors: the same IEEE operations in the
/// same order (Rust never contracts a multiply and an add), so the same
/// bits.
///
/// # Safety
/// The caller must ensure the CPU supports AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn tally_block_avx2<T: Storage>(
    values: &[f64],
    wide: &[f64],
    rel: &mut [f64],
    err_sum: f64,
) -> Option<PlainTally> {
    tally_block_in::<T>(values, wide, rel, err_sum)
}

/// [`tally_block`] in the instruction set of the function it is inlined
/// into.
#[inline(always)]
fn tally_block_in<T: Storage>(
    values: &[f64],
    wide: &[f64],
    rel: &mut [f64],
    mut err_sum: f64,
) -> Option<PlainTally> {
    const LANES: usize = 8;
    let (mut max, mut min, mut err) = ([0.0f64; LANES], [f64::INFINITY; LANES], [0.0f64; LANES]);
    let (mut zeros, mut plain) = (0u64, true);
    let mut entry = |l: usize, v: f64, w: f64| {
        let (mag, stored) = (v.abs(), w.abs());
        let rel = (w - v).abs() / mag;
        // NaN fails both comparisons.
        let normal = (stored >= T::MIN_POSITIVE_NORMAL) & (stored <= T::MAX_FINITE);
        plain &= normal | ((stored == 0.0) & (mag == 0.0));
        zeros += u64::from(mag == 0.0);
        max[l] = if mag > max[l] { mag } else { max[l] };
        let floor = if mag == 0.0 { f64::INFINITY } else { mag };
        min[l] = if floor < min[l] { floor } else { min[l] };
        // False for the NaN of a zero source.
        err[l] = if rel > err[l] { rel } else { err[l] };
        rel
    };
    let whole = values.len() - values.len() % LANES;
    for at in (0..whole).step_by(LANES) {
        let (v, w, e) = (&values[at..][..LANES], &wide[at..][..LANES], &mut rel[at..][..LANES]);
        for l in 0..LANES {
            e[l] = entry(l, v[l], w[l]);
        }
        for l in 0..LANES {
            err_sum += if v[l] != 0.0 { e[l] } else { 0.0 };
        }
    }
    for at in whole..values.len() {
        rel[at] = entry(0, values[at], wide[at]);
        err_sum += if values[at] != 0.0 { rel[at] } else { 0.0 };
    }
    let fold = |lanes: [f64; LANES], pick: fn(f64, f64) -> f64| lanes.into_iter().reduce(pick);
    plain.then(|| PlainTally {
        abs_max: fold(max, f64::max).expect("eight lanes"),
        abs_min_nonzero: fold(min, f64::min).expect("eight lanes"),
        max_rel_err: fold(err, f64::max).expect("eight lanes"),
        zeros,
        err_sum,
    })
}

impl AuditAcc {
    /// Adds a block of `entries` plain entries.
    #[inline(always)]
    fn count_plain(&mut self, entries: usize, tally: PlainTally) {
        let acc = &mut self.audit;
        // No NaN on either side.
        acc.abs_max = acc.abs_max.max(tally.abs_max);
        acc.abs_min_nonzero = acc.abs_min_nonzero.min(tally.abs_min_nonzero);
        acc.max_rel_err = acc.max_rel_err.max(tally.max_rel_err);
        acc.mean_rel_err = tally.err_sum;
        acc.entries += entries as u64;
        acc.source_zeros += tally.zeros;
        self.summed += entries as u64 - tally.zeros;
    }
}

enum StoreFail {
    Saturation,
    NonFinite,
    /// The range test of [`store_level_in_range`] met an entry the format
    /// cannot take as it is.
    OutOfRange,
}

impl StoreFail {
    fn at<T: Storage>(self, cell: usize, tap: usize, value: f64) -> TruncationError {
        match self {
            StoreFail::Saturation => {
                TruncationError::Saturation { cell, tap, value, limit: T::MAX_FINITE }
            }
            StoreFail::NonFinite => TruncationError::NonFiniteSource { cell, tap, value },
            StoreFail::OutOfRange => unreachable!("the range test is no policy's refusal"),
        }
    }
}

/// Relative truncation error of an in-range entry.
#[inline(always)]
fn rel_err(v: f64, stored: f64) -> f64 {
    (stored - v).abs() / v.abs()
}

/// The one per-entry store step: given `v`, its plain IEEE truncation
/// `raw` and their [`rel_err`], counts what the truncation did to `v` and
/// resolves entries that leave the representable range per `policy`
/// (`None` is plain IEEE: overflow to ±∞). `Err` only under `Reject`.
#[inline(always)]
fn store_entry<T: Storage>(
    (v, raw, rel): (f64, T, f64),
    policy: Option<TruncationPolicy>,
    acc: &mut AuditAcc,
) -> Result<T, StoreFail> {
    let AuditAcc { audit: acc, summed } = acc;
    acc.entries += 1;
    let class = raw.class();
    // `raw` classifies `v` too: normal and subnormal results come from
    // finite nonzero sources, zeros from zero or underflow, ±∞/NaN from
    // a corrupt source or saturation.
    match class {
        NumClass::Zero if v == 0.0 => {
            acc.source_zeros += 1;
            return Ok(raw);
        }
        NumClass::Inf | NumClass::Nan if !v.is_finite() => {
            // The source itself is corrupt: clamping would invent a
            // value, so Reject refuses with a typed error and the others
            // pass the bits through for the downstream finite-scan.
            acc.source_non_finite += 1;
            return match policy {
                Some(TruncationPolicy::Reject) => Err(StoreFail::NonFinite),
                _ => Ok(raw),
            };
        }
        _ => {}
    }
    // Neither operand is NaN from here on, so plain comparisons fold
    // exactly like `f64::max` / `f64::min`.
    let mag = v.abs();
    if mag > acc.abs_max {
        acc.abs_max = mag;
    }
    if mag < acc.abs_min_nonzero {
        acc.abs_min_nonzero = mag;
    }
    match class {
        NumClass::Zero => {
            acc.underflow_zero += 1;
            return Ok(raw);
        }
        NumClass::Inf | NumClass::Nan => {
            acc.saturate += 1;
            return match policy {
                None => Ok(raw),
                Some(TruncationPolicy::Reject) => Err(StoreFail::Saturation),
                Some(_) => Ok(T::store_f64(T::MAX_FINITE.copysign(v))),
            };
        }
        NumClass::Subnormal => acc.subnormal += 1,
        NumClass::Normal => {}
    }
    // Underflowed-to-zero and saturating entries are counted above, not
    // folded into the rounding-loss figures.
    if rel > acc.max_rel_err {
        acc.max_rel_err = rel;
    }
    acc.mean_rel_err += rel;
    *summed += 1;
    if class == NumClass::Subnormal && policy == Some(TruncationPolicy::FlushToZero) {
        return Ok(T::store_f64(0.0));
    }
    Ok(raw)
}

/// Entries truncated per bulk conversion.
const BLOCK: usize = 256;

/// One block of a level as the store kernel hands it on.
struct StoredBlock<'a, T> {
    /// The level's own (unscaled) values.
    source: &'a [f64],
    /// What was stored for them.
    stored: &'a [T],
    /// `stored`, loaded back to `f64`.
    wide: &'a [f64],
    /// Whether every stored value is finite.
    finite: bool,
}

/// Truncates one block of (scaled) `values` into `raw` under `policy`,
/// audited into `acc`; `wide` receives what `raw` loads back to and `rel`
/// is scratch. Returns whether every stored value is finite; stops at the
/// first entry the policy refuses — and, with `in_range`, before counting
/// or refusing anything, at a block holding an entry that is non-finite
/// or reaches `T::MAX_FINITE` in magnitude.
///
/// The truncation, the recovery and the error of the block are bulk (SIMD
/// where the format has it) — the divisions vectorise here and would
/// bound the pass one by one. A block of plain entries (see
/// [`tally_block`]: nearly every block of a level in range) is
/// counted in bulk and stored as truncated; any other block goes
/// entry by entry through [`store_entry`], specials through the scalar
/// conversion.
///
/// Not inlined, like [`tally_block`]: `store_level` is instantiated in
/// every crate that calls it, and folded into the sweep there this code
/// ran at half speed in one of them (the `vcycle` bench: 16 ms against
/// 8.4 ms for weather 64³, fastest of each).
#[inline(never)]
fn store_block<T: Storage>(
    values: &[f64],
    in_range: bool,
    policy: Option<TruncationPolicy>,
    acc: &mut AuditAcc,
    raw: &mut [T],
    wide: &mut [f64],
    rel: &mut [f64],
) -> Result<bool, StoreFail> {
    T::store_f64_slice(values, raw);
    T::load_f64_slice(raw, wide);
    let tally = tally_block::<T>(values, wide, rel, acc.audit.mean_rel_err);
    // A plain block's largest magnitude is the range test; any other block
    // (a NaN fails `<`) is asked entry by entry.
    let fits = |v: f64| v < T::MAX_FINITE;
    if in_range
        && !tally.as_ref().map_or_else(|| values.iter().all(|v| fits(v.abs())), |t| fits(t.abs_max))
    {
        return Err(StoreFail::OutOfRange);
    }
    if let Some(tally) = tally {
        acc.count_plain(values.len(), tally);
        return Ok(true);
    }
    let mut finite = true;
    for ((&v, raw), &rel) in values.iter().zip(raw.iter_mut()).zip(rel.iter()) {
        let entry = if raw.class() == NumClass::Normal {
            (v, *raw, rel)
        } else {
            let scalar = T::store_f64(v);
            (v, scalar, rel_err(v, scalar.load_f64()))
        };
        *raw = store_entry(entry, policy, acc)?;
        finite &= raw.is_finite();
    }
    // The policy may have replaced what was truncated.
    T::load_f64_slice(raw, wide);
    Ok(finite)
}

/// The one store kernel: reads `a` once, in storage order, block by
/// block — each block scaled on the fly when `scale` (`1/√q` per unknown)
/// is given, then truncated and audited by [`store_block`] — handing `sink`
/// each block with its offset in `a.data()`. Stops at the first entry the
/// policy refuses (which one is for the caller to find: see
/// [`first_refusal`]), and with `in_range` at the first block the format
/// cannot take as it is.
#[inline(always)]
fn store_sweep<T: Storage>(
    a: &SgDia<f64>,
    scale: Option<&[f64]>,
    in_range: bool,
    policy: Option<TruncationPolicy>,
    acc: &mut AuditAcc,
    mut sink: impl FnMut(usize, StoredBlock<'_, T>),
) -> Result<(), StoreFail> {
    let (cells, taps) = (a.grid().cells(), a.pattern().len());
    let soa = a.layout() == Layout::Soa;
    if let Some(scale) = scale {
        assert_eq!(scale.len(), a.rows(), "one scale factor per unknown");
    }
    let mut raw = [T::default(); BLOCK];
    let (mut scaled, mut wide, mut rel) = ([0.0f64; BLOCK], [0.0f64; BLOCK], [0.0f64; BLOCK]);
    // A run is one tap plane (SOA) or the whole cell-major array (AOS).
    let run = if soa { cells } else { cells * taps }.max(1);
    for (plane, run_values) in a.data().chunks(run).enumerate() {
        for (b, source) in run_values.chunks(BLOCK).enumerate() {
            let (at, n) = (b * BLOCK, source.len());
            let values = match scale {
                None => source,
                Some(scale) => {
                    let out = &mut scaled[..n];
                    if soa {
                        scaled_plane_block(a, scale, plane, at, out);
                    } else {
                        // Cell-major data (the ablation layout) interleaves
                        // the planes: entry by entry.
                        for (e, v) in (at..).zip(out.iter_mut()) {
                            *v = scaled_entry(a, scale, e / taps, e % taps);
                        }
                    }
                    out
                }
            };
            let (raw, wide) = (&mut raw[..n], &mut wide[..n]);
            let finite = store_block::<T>(values, in_range, policy, acc, raw, wide, &mut rel[..n])?;
            sink(plane * run + at, StoredBlock { source, stored: raw, wide, finite });
        }
    }
    Ok(())
}

/// What one sweep over a high-precision level produces.
#[derive(Clone, Debug)]
pub struct StoredLevel<M> {
    /// The truncated matrix, in the source's layout.
    pub matrix: M,
    /// Audit of the truncation against the storage format.
    pub audit: RangeAudit,
    /// Sentinels of the stored planes (when asked for).
    pub sentinels: Option<MatrixSentinels>,
    /// Whether every stored value is finite.
    pub finite: bool,
    /// The source in FP32 (when asked for): recovery's promotion material.
    pub source: Option<SgDia<f32>>,
}

impl<M> StoredLevel<M> {
    /// Rewraps the matrix (e.g. into a precision-erased enum).
    pub fn map<N>(self, f: impl FnOnce(M) -> N) -> StoredLevel<N> {
        let StoredLevel { matrix, audit, sentinels, finite, source } = self;
        StoredLevel { matrix: f(matrix), audit, sentinels, finite, source }
    }
}

/// The fused store pass: reads `a` once, in storage order, producing the
/// policy-checked truncation, its [`RangeAudit`], per-plane sentinels,
/// the finite flag and the FP32 copy of the source — bit-identical to
/// [`audit`], [`truncate_with_policy`], [`crate::sentinel::compute`],
/// `all_finite` and `convert::<f32>` run one after another. A `None`
/// policy is the plain IEEE conversion (overflow to ±∞).
///
/// With `scale` (`1/√q` per unknown, from
/// [`crate::scaling::ScalePlan::s_inv`]) the level is stored *scaled* —
/// truncation, audit, sentinels and finite flag are those of the matrix
/// [`crate::scaling::ScalePlan::apply`] would make, which is never made —
/// while the FP32 source stays the unscaled `a`: a scaled level costs
/// this read and the plan's.
///
/// # Errors
/// As [`truncate_with_policy`].
///
/// # Panics
/// Panics if `scale` is not one factor per unknown of `a`.
pub fn store_level<T: Storage>(
    a: &SgDia<f64>,
    scale: Option<&[f64]>,
    policy: Option<TruncationPolicy>,
    sentinels: bool,
    keep_source: bool,
) -> Result<StoredLevel<SgDia<T>>, TruncationError> {
    let stored = store_pass(a, scale, false, policy, sentinels, keep_source)?;
    Ok(stored.expect("only the range test abandons a sweep"))
}

/// [`store_level`] of `a` as it is, in the same one read, if the format
/// can take it so: Algorithm 1's "need to scale" is taken block by block
/// inside the sweep, and at the first 256-entry block holding an entry that
/// is non-finite or at least `T::MAX_FINITE` in magnitude the sweep is
/// abandoned with `Ok(None)` — before the policy has seen that block, so a
/// level that is to be scaled is never refused for its unscaled values.
///
/// # Errors
/// As [`truncate_with_policy`].
pub fn store_level_in_range<T: Storage>(
    a: &SgDia<f64>,
    policy: Option<TruncationPolicy>,
    sentinels: bool,
    keep_source: bool,
) -> Result<Option<StoredLevel<SgDia<T>>>, TruncationError> {
    store_pass(a, None, true, policy, sentinels, keep_source)
}

/// [`store_level`] and [`store_level_in_range`]: `None` when the range
/// test abandoned the sweep.
fn store_pass<T: Storage>(
    a: &SgDia<f64>,
    scale: Option<&[f64]>,
    in_range: bool,
    policy: Option<TruncationPolicy>,
    sentinels: bool,
    keep_source: bool,
) -> Result<Option<StoredLevel<SgDia<T>>>, TruncationError> {
    let (cells, taps) = (a.grid().cells(), a.pattern().len());
    let soa = a.layout() == Layout::Soa;
    let mut matrix = SgDia::<T>::zeros(*a.grid(), a.pattern().clone(), a.layout());
    let mut source =
        keep_source.then(|| SgDia::<f32>::zeros(*a.grid(), a.pattern().clone(), a.layout()));
    let mut sent = vec![SentinelAcc::new::<T>(); if sentinels { taps } else { 0 }];
    let mut acc = AuditAcc::new::<T>();
    let mut finite = true;
    let (out, mut narrow) = (matrix.data_mut(), source.as_mut().map(SgDia::data_mut));
    let swept = store_sweep::<T>(a, scale, in_range, policy, &mut acc, |at, block| {
        out[at..][..block.stored.len()].copy_from_slice(block.stored);
        finite &= block.finite;
        if let Some(narrow) = narrow.as_deref_mut() {
            for (w, &v) in narrow[at..].iter_mut().zip(block.source) {
                *w = v as f32;
            }
        }
        if soa {
            // A block lies inside one plane.
            if let Some(plane) = sent.get_mut(at / cells.max(1)) {
                plane.push_widened(block.stored, block.wide);
            }
        } else if !sent.is_empty() {
            block.stored.iter().enumerate().for_each(|(i, &s)| sent[(at + i) % taps].push(s));
        }
    });
    match swept {
        Err(StoreFail::OutOfRange) => return Ok(None),
        // Name the first offender in cell-major order.
        Err(_) => return Err(first_refusal::<T>(a, scale, policy)),
        Ok(()) => {}
    }
    Ok(Some(StoredLevel {
        matrix,
        audit: acc.finish::<T>(),
        sentinels: sentinels.then(|| MatrixSentinels {
            taps: sent.into_iter().map(SentinelAcc::finish).collect(),
            cells,
        }),
        finite,
        source,
    }))
}

/// The first entry, in cell-major order, that `policy` refuses.
fn first_refusal<T: Storage>(
    a: &SgDia<f64>,
    scale: Option<&[f64]>,
    policy: Option<TruncationPolicy>,
) -> TruncationError {
    let mut acc = AuditAcc::new::<T>();
    for cell in 0..a.grid().cells() {
        for tap in 0..a.pattern().len() {
            let v = scale.map_or(a.get(cell, tap), |s| scaled_entry(a, s, cell, tap));
            let raw = T::store_f64(v);
            if let Err(e) = store_entry((v, raw, rel_err(v, raw.load_f64())), policy, &mut acc) {
                return e.at::<T>(cell, tap, v);
            }
        }
    }
    unreachable!("the storage-order sweep found a refused entry")
}

/// Truncates a high-precision matrix into storage format `T` under the
/// given [`TruncationPolicy`] — the policy-aware replacement for the
/// silent `SgDia::convert`.
///
/// # Errors
/// [`TruncationError`] under [`TruncationPolicy::Reject`] for the first
/// saturating or non-finite entry (in cell-major order); the clamping
/// policies never fail.
pub fn truncate_with_policy<T: Storage>(
    a: &SgDia<f64>,
    policy: TruncationPolicy,
) -> Result<SgDia<T>, TruncationError> {
    store_level(a, None, Some(policy), false, false).map(|level| level.matrix)
}

/// How far an operator's value range has moved relative to a baseline
/// audit of the *same geometry* — the invalidation predicate of a
/// hierarchy cache. Derived purely from two [`RangeAudit`]s, so
/// computing it costs one audit pass over the current operator and no
/// access to the cached one.
///
/// The shifts are in log2 units: a `range_shift` of 1.0 means the
/// largest magnitude doubled or halved. That is the natural unit for a
/// scale-and-truncate pipeline — per-level diagonal scaling absorbs a
/// bounded amount of range motion exactly (Theorem 4.1 re-derives the
/// scaling from the drifted operator), while a large shift means the
/// coarse Galerkin operators built from the old values no longer
/// approximate the new fine operator and the chain must be rebuilt.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct OperatorDrift {
    /// `|log2(abs_max_now / abs_max_then)|` — motion of the top of the
    /// value range (0 when both are zero).
    pub range_shift: f64,
    /// `|log2(abs_min_nonzero_now / abs_min_nonzero_then)|` — motion of
    /// the bottom of the range, the underflow-exposure gauge.
    pub floor_shift: f64,
    /// The current operator saturates (or carries non-finite entries)
    /// where the baseline did not — structurally unsafe to reuse
    /// regardless of shift magnitude.
    pub new_overflow: bool,
    /// The nonzero-entry count changed: a structural change (coupling
    /// appeared or vanished), not a rescaling.
    pub structure_changed: bool,
}

impl OperatorDrift {
    /// Largest of the two range shifts — the scalar the cache compares
    /// against its keep/rescale bounds.
    pub fn magnitude(&self) -> f64 {
        self.range_shift.max(self.floor_shift)
    }

    /// True when no rescaling can make reuse safe: new overflow or a
    /// structural change.
    pub fn structural(&self) -> bool {
        self.new_overflow || self.structure_changed
    }
}

impl core::fmt::Display for OperatorDrift {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "range shift {:.3} log2, floor shift {:.3} log2{}{}",
            self.range_shift,
            self.floor_shift,
            if self.new_overflow { ", NEW OVERFLOW" } else { "" },
            if self.structure_changed { ", STRUCTURE CHANGED" } else { "" },
        )
    }
}

/// Measures how far `current` has drifted from `baseline`. Both audits
/// must describe operators of the same geometry and target precision
/// for the comparison to mean anything; a mismatched `entries` count is
/// reported as `structure_changed` rather than guessed around.
pub fn drift(baseline: &RangeAudit, current: &RangeAudit) -> OperatorDrift {
    let shift = |then: f64, now: f64| -> f64 {
        if then == now {
            // Covers the both-zero and both-infinite degenerate cases.
            0.0
        } else if then <= 0.0 || now <= 0.0 || !then.is_finite() || !now.is_finite() {
            f64::INFINITY
        } else {
            (now / then).log2().abs()
        }
    };
    OperatorDrift {
        range_shift: shift(baseline.abs_max, current.abs_max),
        floor_shift: shift(baseline.abs_min_nonzero, current.abs_min_nonzero),
        new_overflow: !current.overflow_free() && baseline.overflow_free(),
        structure_changed: baseline.entries != current.entries
            || baseline.nonzero() != current.nonzero(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::BlockDiagInv;
    use fp16mg_grid::Grid3;
    use fp16mg_stencil::Pattern;

    fn probe(values: [f64; 7]) -> SgDia<f64> {
        let p = Pattern::p7();
        let taps: Vec<_> = p.taps().to_vec();
        let center = taps.iter().position(|t| t.is_diagonal()).unwrap();
        SgDia::from_fn(Grid3::cube(2), p, Layout::Soa, |_, _, _, _, t| {
            if t == center {
                values[0]
            } else {
                values[1 + (t + if t >= center { 0 } else { 1 }) % 6]
            }
        })
    }

    #[test]
    fn audit_counts_and_headroom() {
        // Center 1.0, off-diagonals pick a spread of f16 fates.
        let a = probe([1.0, 1.0e5, 1.0e-5, 1.0e-9, 0.5, -2.0, -1.0e6]);
        let audit = audit(&a, Precision::F16);
        assert!(audit.saturate > 0, "1e5/1e6 saturate f16");
        assert!(audit.subnormal > 0, "1e-5 is f16-subnormal");
        assert!(audit.underflow_zero > 0, "1e-9 flushes to zero in f16");
        assert!(audit.headroom > 1.0);
        assert!(!audit.overflow_free());
        assert!(audit.underflow_loss_fraction() > 0.0);
        // The same matrix audits clean in f32.
        let audit32 = super::audit(&a, Precision::F32);
        assert!(audit32.overflow_free());
        assert_eq!(audit32.underflow_zero + audit32.subnormal, 0);
        assert!(audit32.headroom < 1.0);
        assert!(audit32.max_rel_err <= Precision::F32.unit_roundoff());
    }

    #[test]
    fn policy_matrix_outcomes() {
        let a = probe([1.0, 1.0e5, 1.0e-5, 1.0e-9, 0.5, -2.0, -1.0e6]);
        // Reject refuses the saturating entry with a typed error.
        let err = truncate_with_policy::<F16>(&a, TruncationPolicy::Reject).unwrap_err();
        assert!(matches!(err, TruncationError::Saturation { .. }), "{err}");
        // Saturate clamps to ±MAX: finite everywhere.
        let sat = truncate_with_policy::<F16>(&a, TruncationPolicy::Saturate).unwrap();
        assert!(sat.all_finite());
        let (mx, nonfinite) = sat.abs_max();
        assert!(!nonfinite);
        assert!((mx - F16::MAX_F64).abs() < 1.0);
        // FlushToZero additionally leaves no subnormals behind.
        let ftz = truncate_with_policy::<F16>(&a, TruncationPolicy::FlushToZero).unwrap();
        assert!(ftz.all_finite());
        let scan = crate::scan::scan(&ftz);
        assert_eq!(scan.total.subnormal, 0);
        // The plain IEEE conversion (the old behavior) overflows.
        assert!(!a.convert::<F16>().all_finite());
    }

    #[test]
    fn reject_passes_clean_matrices_bit_for_bit() {
        let a = probe([6.0, -1.0, -1.0, -0.5, -1.5, -2.0, -0.25]);
        let ok = truncate_with_policy::<F16>(&a, TruncationPolicy::Reject).unwrap();
        let plain = a.convert::<F16>();
        assert_eq!(ok.data().len(), plain.data().len());
        for (x, y) in ok.data().iter().zip(plain.data()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn reject_flags_non_finite_source() {
        let mut a = probe([6.0, -1.0, -1.0, -0.5, -1.5, -2.0, -0.25]);
        a.set(0, 0, f64::NAN);
        let err = truncate_with_policy::<F16>(&a, TruncationPolicy::Reject).unwrap_err();
        assert!(matches!(err, TruncationError::NonFiniteSource { cell: 0, tap: 0, .. }));
    }

    #[test]
    fn drift_measures_log2_shifts() {
        let base = audit(&probe([6.0, -1.0, -1.0, -0.5, -1.5, -2.0, -0.25]), Precision::F16);
        // Identical operator: zero drift, nothing structural.
        let d = drift(&base, &base);
        assert_eq!(d.magnitude(), 0.0);
        assert!(!d.structural());
        // A uniform 4x rescale moves both ends of the range by 2 log2.
        let scaled = audit(&probe([24.0, -4.0, -4.0, -2.0, -6.0, -8.0, -1.0]), Precision::F16);
        let d = drift(&base, &scaled);
        assert!((d.range_shift - 2.0).abs() < 1e-12, "{d}");
        assert!((d.floor_shift - 2.0).abs() < 1e-12, "{d}");
        assert_eq!(d.magnitude(), d.range_shift.max(d.floor_shift));
        assert!(!d.structural());
        // Drift is symmetric: shrinking is as far as growing.
        let back = drift(&scaled, &base);
        assert!((back.magnitude() - d.magnitude()).abs() < 1e-12);
    }

    #[test]
    fn drift_flags_structural_changes() {
        let base = audit(&probe([6.0, -1.0, -1.0, -0.5, -1.5, -2.0, -0.25]), Precision::F16);
        // New saturation where the baseline was overflow-free.
        let hot = audit(&probe([6.0e5, -1.0, -1.0, -0.5, -1.5, -2.0, -0.25]), Precision::F16);
        let d = drift(&base, &hot);
        assert!(d.new_overflow, "{d}");
        assert!(d.structural());
        // A vanished coupling changes the nonzero count.
        let sparse = audit(&probe([6.0, 0.0, -1.0, -0.5, -1.5, -2.0, -0.25]), Precision::F16);
        let d = drift(&base, &sparse);
        assert!(d.structure_changed, "{d}");
        assert!(d.structural());
        // A zeroed range end is unbounded drift, not a panic.
        let d = drift(&sparse, &base);
        assert!(d.magnitude().is_infinite() || d.structure_changed);
    }

    #[test]
    fn drift_degenerate_ranges() {
        // An all-zero operator audits to an empty value range (the
        // abs_min_nonzero sentinel collapses to 0, not +inf)...
        let zero = audit(&probe([0.0; 7]), Precision::F16);
        assert_eq!(zero.nonzero(), 0);
        assert_eq!(zero.abs_max, 0.0);
        assert_eq!(zero.abs_min_nonzero, 0.0);
        assert!(zero.overflow_free());
        assert_eq!(zero.underflow_loss_fraction(), 0.0);
        // ...and self-drift of the degenerate range is exactly zero,
        // never NaN from a 0/0 ratio.
        let d = drift(&zero, &zero);
        assert_eq!(d.magnitude(), 0.0);
        assert!(!d.structural());
        // Zero → live is unbounded drift AND a structural change, in
        // both directions.
        let live = audit(&probe([6.0, -1.0, -1.0, -0.5, -1.5, -2.0, -0.25]), Precision::F16);
        for (a, b) in [(&zero, &live), (&live, &zero)] {
            let d = drift(a, b);
            assert!(d.range_shift.is_infinite(), "{d}");
            assert!(d.floor_shift.is_infinite(), "{d}");
            assert!(d.structure_changed, "{d}");
        }
    }

    #[test]
    fn drift_empty_audit() {
        // A zero-tap matrix audits to zero entries without panicking;
        // self-drift is clean, drift against a real operator is
        // structural (the entry counts disagree).
        let e = SgDia::<f64>::zeros(Grid3::cube(2), Pattern::new(vec![]), Layout::Soa);
        let empty = audit(&e, Precision::F16);
        assert_eq!(empty.entries, 0);
        assert_eq!(empty.abs_max, 0.0);
        assert_eq!(empty.abs_min_nonzero, 0.0);
        assert_eq!(empty.headroom, 0.0);
        let d = drift(&empty, &empty);
        assert_eq!(d.magnitude(), 0.0);
        assert!(!d.structural());
        let live = audit(&probe([6.0, -1.0, -1.0, -0.5, -1.5, -2.0, -0.25]), Precision::F16);
        assert!(drift(&empty, &live).structure_changed);
        assert!(drift(&live, &empty).structure_changed);
    }

    #[test]
    fn drift_nan_current_is_structural_not_a_range_event() {
        let values = [6.0, -1.0, -1.0, -0.5, -1.5, -2.0, -0.25];
        let base = audit(&probe(values), Precision::F16);
        let mut sick = probe(values);
        // Poison the diagonal: always in-grid, so a nonzero entry goes
        // non-finite rather than a structural zero changing count.
        let center = sick.pattern().taps().iter().position(|t| t.is_diagonal()).unwrap();
        sick.set(0, center, f64::NAN);
        let cur = audit(&sick, Precision::F16);
        assert_eq!(cur.source_non_finite, 1);
        assert!(!cur.overflow_free());
        // The NaN is skipped before the min/max fold: the other cells
        // still carry the full value set, so the range ends are
        // untouched — only the overflow flag reports the corruption.
        let d = drift(&base, &cur);
        assert_eq!(d.range_shift, 0.0, "{d}");
        assert_eq!(d.floor_shift, 0.0, "{d}");
        assert!(d.new_overflow, "{d}");
        assert!(!d.structure_changed, "{d}");
        assert!(d.structural());
        // An already-sick baseline reports no NEW overflow when the
        // current operator is clean (recovery is not an invalidation).
        let back = drift(&cur, &base);
        assert!(!back.new_overflow, "{back}");
        assert!(!back.structural());
    }

    // ---- The fused store pass against the unfused passes it replaced,
    // kept here as the oracles. ----

    /// The stand-alone audit sweep.
    fn audit_oracle<T: Storage>(a: &SgDia<f64>) -> RangeAudit {
        let mut out = RangeAudit {
            precision: T::PRECISION,
            entries: 0,
            source_zeros: 0,
            source_non_finite: 0,
            abs_max: 0.0,
            abs_min_nonzero: f64::INFINITY,
            headroom: 0.0,
            underflow_zero: 0,
            subnormal: 0,
            saturate: 0,
            max_rel_err: 0.0,
            mean_rel_err: 0.0,
        };
        let (mut err_sum, mut err_n) = (0.0f64, 0u64);
        for &v in a.data() {
            out.entries += 1;
            if v == 0.0 {
                out.source_zeros += 1;
                continue;
            }
            if !v.is_finite() {
                out.source_non_finite += 1;
                continue;
            }
            let mag = v.abs();
            out.abs_max = out.abs_max.max(mag);
            out.abs_min_nonzero = out.abs_min_nonzero.min(mag);
            let stored = T::store_f64(v);
            match stored.class() {
                NumClass::Zero => {
                    out.underflow_zero += 1;
                    continue;
                }
                NumClass::Subnormal => out.subnormal += 1,
                NumClass::Inf | NumClass::Nan => {
                    out.saturate += 1;
                    continue;
                }
                NumClass::Normal => {}
            }
            let rel = (stored.load_f64() - v).abs() / mag;
            out.max_rel_err = out.max_rel_err.max(rel);
            err_sum += rel;
            err_n += 1;
        }
        if out.abs_min_nonzero.is_infinite() {
            out.abs_min_nonzero = 0.0;
        }
        out.headroom = out.abs_max / T::MAX_FINITE;
        out.mean_rel_err = if err_n == 0 { 0.0 } else { err_sum / err_n as f64 };
        out
    }

    /// The stand-alone per-entry policy store.
    fn store_policy_oracle<T: Storage>(v: f64, policy: TruncationPolicy) -> Result<T, StoreFail> {
        let stored = T::store_f64(v);
        match stored.class() {
            NumClass::Normal | NumClass::Zero if v == 0.0 || v.is_finite() => Ok(stored),
            NumClass::Inf | NumClass::Nan => {
                if !v.is_finite() {
                    return match policy {
                        TruncationPolicy::Reject => Err(StoreFail::NonFinite),
                        _ => Ok(stored),
                    };
                }
                match policy {
                    TruncationPolicy::Reject => Err(StoreFail::Saturation),
                    _ => Ok(T::store_f64(T::MAX_FINITE.copysign(v))),
                }
            }
            NumClass::Subnormal if policy == TruncationPolicy::FlushToZero => Ok(T::store_f64(0.0)),
            _ => Ok(stored),
        }
    }

    /// The stand-alone cell-major truncation.
    fn truncate_oracle<T: Storage>(
        a: &SgDia<f64>,
        policy: TruncationPolicy,
    ) -> Result<SgDia<T>, TruncationError> {
        let mut out = SgDia::<T>::zeros(*a.grid(), a.pattern().clone(), a.layout());
        for cell in 0..a.grid().cells() {
            for tap in 0..a.pattern().len() {
                let v = a.get(cell, tap);
                let stored =
                    store_policy_oracle::<T>(v, policy).map_err(|e| e.at::<T>(cell, tap, v))?;
                out.set(cell, tap, stored);
            }
        }
        Ok(out)
    }

    /// The stand-alone sentinel sweep, one value at a time in cell order,
    /// as `(checksum, sum bits, abs-sum bits)` per tap so NaN sums compare
    /// too (they are kept canonical).
    fn sentinel_oracle<S: Storage>(a: &SgDia<S>) -> Vec<(u64, u64, u64)> {
        (0..a.pattern().len())
            .map(|tap| {
                let mut acc = SentinelAcc::new::<S>();
                (0..a.grid().cells()).for_each(|cell| acc.push(a.get(cell, tap)));
                let sentinel = acc.finish();
                (sentinel.checksum, sentinel.sum.to_bits(), sentinel.abs_sum.to_bits())
            })
            .collect()
    }

    fn sentinel_bits(s: &MatrixSentinels) -> Vec<(u64, u64, u64)> {
        s.taps.iter().map(|t| (t.checksum, t.sum.to_bits(), t.abs_sum.to_bits())).collect()
    }

    /// `assert_eq!` on long sequences, naming only the first difference.
    fn assert_same<E: PartialEq + core::fmt::Debug>(got: &[E], want: &[E], what: &str) {
        assert_eq!(got.len(), want.len(), "{what}: length");
        if let Some(i) = (0..got.len()).find(|&i| got[i] != want[i]) {
            panic!("{what}: entry {i}: {:?} vs {:?}", got[i], want[i]);
        }
    }

    fn bits<S: Storage>(a: &SgDia<S>) -> Vec<u64> {
        a.data().iter().map(|v| v.store_bits()).collect()
    }

    /// A matrix whose entries cover every fate: in range, exact ±0,
    /// subnormal and underflowing in the narrow formats, saturating in
    /// each format, and (when `corrupt`) ±∞ / NaN.
    fn wild_matrix(rng: &mut fp16mg_testkit::Rng, corrupt: bool) -> SgDia<f64> {
        let extent = |rng: &mut fp16mg_testkit::Rng| rng.usize_range(1, 7);
        let r = rng.usize_range(1, 3);
        let grid = Grid3::with_components(extent(rng), extent(rng), extent(rng), r);
        let name = Pattern::NAMES[rng.usize_range(0, Pattern::NAMES.len())];
        let scalar = Pattern::by_name(name).unwrap();
        let pattern = if r == 1 { scalar } else { scalar.with_components(r) };
        let layout = if rng.chance(0.5) { Layout::Soa } else { Layout::Aos };
        // In this case, in range only, or anything goes.
        let tame = rng.chance(0.3);
        SgDia::from_fn(grid, pattern, layout, |_, _, _, _, _| {
            let sign = if rng.chance(0.5) { -1.0 } else { 1.0 };
            let pick = if tame { rng.usize_range(0, 2) } else { rng.usize_range(0, 9) };
            sign * match pick {
                0 => rng.f64_range(0.01, 100.0),
                1 => 0.0,
                2 => rng.f64_range(1.0e-7, 6.0e-5), // f16 subnormal
                3 => rng.f64_range(1.0e-12, 1.0e-9), // f16 underflow
                4 => rng.f64_range(6.6e4, 1.0e9),   // f16 saturation
                5 => rng.f64_range(1.0e-45, 1.0e-38), // f32 / bf16 subnormal
                6 => rng.f64_range(3.5e38, 1.0e60), // f32 / bf16 saturation
                7 if corrupt => [f64::INFINITY, f64::NAN][rng.usize_range(0, 2)],
                _ => rng.f64_range(65503.0, 65521.0), // the f16 rounding edge
            }
        })
    }

    fn fused_matches_unfused<T: Storage>(a: &SgDia<f64>) {
        let what = format!("{:?} {} {:?} -> {}", a.grid(), a.pattern().name(), a.layout(), T::NAME);
        assert_eq!(audit(a, T::PRECISION), audit_oracle::<T>(a), "{what}: audit");
        // Plain IEEE: the silent conversion.
        let plain =
            store_level::<T>(a, None, None, true, true).expect("plain IEEE refuses nothing");
        assert_same(&bits(&plain.matrix), &bits(&a.convert::<T>()), &format!("{what}: plain bits"));
        for policy in
            [TruncationPolicy::Reject, TruncationPolicy::Saturate, TruncationPolicy::FlushToZero]
        {
            let what = format!("{what} under {policy}");
            let fused = store_level::<T>(a, None, Some(policy), true, true);
            // The range test abandons exactly the levels holding an entry
            // the format cannot take as it is, before the policy refuses it.
            let in_range = store_level_in_range::<T>(a, Some(policy), true, true)
                .unwrap_or_else(|e| panic!("{what}: the range test let {e} through"));
            let fits = a.data().iter().all(|v| v.abs() < T::MAX_FINITE);
            assert_eq!(in_range.is_some(), fits, "{what}: range test");
            let want = match truncate_oracle::<T>(a, policy) {
                Ok(m) => m,
                Err(e) => {
                    // Same first offender, in cell-major order (as text:
                    // the payload may be NaN).
                    let got = fused.expect_err(&what);
                    assert_eq!(format!("{got:?}"), format!("{e:?}"), "{what}");
                    let alone = truncate_with_policy::<T>(a, policy).expect_err(&what);
                    assert_eq!(format!("{alone:?}"), format!("{e:?}"), "{what}");
                    continue;
                }
            };
            let fused = fused.unwrap_or_else(|e| panic!("{what}: fused refused {e}"));
            assert_same(&bits(&fused.matrix), &bits(&want), &format!("{what}: stored bits"));
            assert_eq!(fused.audit, audit_oracle::<T>(a), "{what}: audit");
            if let Some(kept) = in_range {
                // A level in range is stored by the one sweep as it is.
                assert_same(&bits(&kept.matrix), &bits(&want), &format!("{what}: in range"));
                assert_eq!((&kept.audit, kept.finite), (&fused.audit, fused.finite), "{what}");
                let (got, want) = (kept.sentinels.as_ref(), fused.sentinels.as_ref());
                assert_eq!(got.map(sentinel_bits), want.map(sentinel_bits), "{what}");
                let source = |s: Option<&SgDia<f32>>| s.map(bits);
                assert_eq!(source(kept.source.as_ref()), source(fused.source.as_ref()), "{what}");
            }
            let sentinels = fused.sentinels.expect("asked for");
            assert_eq!(sentinels.cells, a.grid().cells());
            assert_same(
                &sentinel_bits(&sentinels),
                &sentinel_oracle(&want),
                &format!("{what}: sentinels"),
            );
            let alone = sentinel_bits(&crate::sentinel::compute(&want));
            assert_same(&alone, &sentinel_oracle(&want), &format!("{what}: sentinel::compute"));
            assert_eq!(fused.finite, want.all_finite(), "{what}: finite");
            let source = fused.source.expect("asked for");
            assert_same(&bits(&source), &bits(&a.convert::<f32>()), &format!("{what}: f32 source"));
            let alone = truncate_with_policy::<T>(a, policy).expect("oracle stored it");
            assert_same(&bits(&alone), &bits(&want), &format!("{what}: truncate_with_policy"));
            // Nothing asked for, nothing made.
            let bare = store_level::<T>(a, None, Some(policy), false, false).unwrap();
            assert!(bare.sentinels.is_none() && bare.source.is_none());
        }
    }

    #[test]
    fn fused_store_pass_is_bit_identical_to_the_unfused_passes() {
        fp16mg_testkit::check_n("fused store pass == unfused passes", 48, |rng| {
            let corrupt = rng.chance(0.5);
            let a = wild_matrix(rng, corrupt);
            fused_matches_unfused::<F16>(&a);
            fused_matches_unfused::<Bf16>(&a);
            fused_matches_unfused::<f32>(&a);
            fused_matches_unfused::<f64>(&a);
        });
    }

    #[test]
    fn fused_store_pass_crosses_block_seams() {
        // Longer than the kernel's conversion block, with specials on
        // both sides of a seam.
        let grid = Grid3::new(BLOCK + 3, 2, 1);
        let p = Pattern::p7();
        for layout in [Layout::Soa, Layout::Aos] {
            let mut a = SgDia::<f64>::from_fn(grid, p.clone(), layout, |c, _, _, _, t| {
                (c as f64 + 1.0) * 0.37 - t as f64
            });
            for (i, v) in [1.0e6, 0.0, 3.0e-6, -1.0e-10, 65520.0, -0.0].into_iter().enumerate() {
                a.data_mut()[BLOCK - 3 + i] = v;
            }
            fused_matches_unfused::<F16>(&a);
            fused_matches_unfused::<f32>(&a);
        }
    }

    // ---- The scaled store: the fused pass over the *unscaled* level
    // against clone + scale + store + convert, the four steps it replaced.

    /// An operator Theorem 4.1 can scale (positive diagonal) whose
    /// couplings span the decades, with exact zeros and — `wild` — NaN
    /// couplings: odd, even and non-cubic extents down to one cell
    /// (`nx < 8`: x-rows shorter than a SIMD vector), 1–4 components, both
    /// layouts.
    fn scalable_matrix(rng: &mut fp16mg_testkit::Rng, wild: bool) -> SgDia<f64> {
        let r = rng.usize_range(1, 5);
        let grid = Grid3::with_components(
            rng.usize_range(1, 12),
            rng.usize_range(1, 6),
            rng.usize_range(1, 5),
            r,
        );
        let scalar = Pattern::by_name(Pattern::NAMES[rng.usize_range(0, 4)]).unwrap();
        let pattern = if r == 1 { scalar } else { scalar.with_components(r) };
        let taps: Vec<_> = pattern.taps().to_vec();
        let layout = if rng.chance(0.5) { Layout::Soa } else { Layout::Aos };
        // Decades of the diagonal and of the couplings: narrow enough that
        // the scaled level is all normal in FP16 (whole blocks counted in
        // bulk), or wide enough that it is not.
        let (diag, off) =
            if rng.chance(0.4) { ((2.0, 3.0), (0.0, 2.0)) } else { ((-3.0, 9.0), (-12.0, 8.0)) };
        SgDia::from_fn(grid, pattern, layout, |_, _, _, _, t| {
            if taps[t].is_diagonal() {
                return 10f64.powf(rng.f64_range(diag.0, diag.1));
            }
            let sign = if rng.chance(0.5) { -1.0 } else { 1.0 };
            match rng.usize_range(0, 8) {
                0 => 0.0,
                1 if wild => f64::NAN,
                _ => sign * 10f64.powf(rng.f64_range(off.0, off.1)),
            }
        })
    }

    /// The fused store of `a` scaled by `scale` against the plain store of
    /// `scaled` (which `fused_matches_unfused` holds to the per-entry
    /// oracles) and `a.convert::<f32>()`.
    fn scaled_store_matches<T: Storage>(a: &SgDia<f64>, scale: &[f64], scaled: &SgDia<f64>) {
        let what = format!("{:?} {} {:?} -> {}", a.grid(), a.pattern().name(), a.layout(), T::NAME);
        assert_eq!(
            audit_scaled(a, Some(scale), T::PRECISION),
            audit(scaled, T::PRECISION),
            "{what}: audit_scaled"
        );
        let policies = [
            None,
            Some(TruncationPolicy::Reject),
            Some(TruncationPolicy::Saturate),
            Some(TruncationPolicy::FlushToZero),
        ];
        for policy in policies {
            let what = format!("{what} under {policy:?}");
            let fused = store_level::<T>(a, Some(scale), policy, true, true);
            let want = match store_level::<T>(scaled, None, policy, true, false) {
                Ok(want) => want,
                Err(e) => {
                    // The same first offender — cell, tap and scaled value
                    // (as text: the value may be NaN).
                    let got = fused.expect_err(&what);
                    assert_eq!(format!("{got:?}"), format!("{e:?}"), "{what}");
                    continue;
                }
            };
            let fused = fused.unwrap_or_else(|e| panic!("{what}: fused refused {e}"));
            assert_same(&bits(&fused.matrix), &bits(&want.matrix), &format!("{what}: planes"));
            // Every field, `mean_rel_err` included.
            assert_eq!(fused.audit, want.audit, "{what}: audit");
            assert_eq!(fused.finite, want.finite, "{what}: finite");
            assert_eq!(
                sentinel_bits(&fused.sentinels.expect("asked for")),
                sentinel_bits(&want.sentinels.expect("asked for")),
                "{what}: sentinels"
            );
            // The promotion source is the level as it was, not as stored.
            let source = fused.source.expect("asked for");
            assert_same(&bits(&source), &bits(&a.convert::<f32>()), &format!("{what}: source"));
        }
    }

    fn scaled_store_matches_all_formats(a: &SgDia<f64>, scale: &[f64], scaled: &SgDia<f64>) {
        scaled_store_matches::<F16>(a, scale, scaled);
        scaled_store_matches::<Bf16>(a, scale, scaled);
        scaled_store_matches::<f32>(a, scale, scaled);
        scaled_store_matches::<f64>(a, scale, scaled);
    }

    #[test]
    fn fused_store_pass_scaled_is_bit_identical_to_clone_scale_store_convert() {
        use crate::scaling::{scale_symmetric, GChoice, ScalePlan};
        fp16mg_testkit::check_n(
            "fused scaled store == clone + scale + store + convert",
            48,
            |rng| {
                let wild = rng.chance(0.5);
                let a = scalable_matrix(rng, wild);
                // The storage range the scaling aims at: FP16's, or one that
                // leaves the scaled entries saturating (1e12), subnormal and
                // underflowing (1e-3, 1e-9) in the narrow formats — the blocks
                // the kernel cannot count in bulk.
                let limit = [F16::MAX_F64, 1.0e12, 1.0e-3, 1.0e-9][rng.usize_range(0, 4)];
                let choice = if rng.chance(0.5) { GChoice::Auto } else { GChoice::Fixed(1.0e30) };
                let plan = ScalePlan::decide(&a, choice, limit).expect("positive diagonal");
                let mut scaled = a.clone();
                let sv =
                    scale_symmetric::<f32>(&mut scaled, choice, limit).expect("positive diagonal");
                let planned = plan.vectors::<f32>();
                assert_eq!(
                    (planned.g.to_bits(), planned.g_clamped_from),
                    (sv.g.to_bits(), sv.g_clamped_from)
                );
                let f32_bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(f32_bits(&planned.s), f32_bits(&sv.s));
                assert_eq!(f32_bits(&planned.s_inv), f32_bits(&sv.s_inv));
                scaled_store_matches_all_formats(&a, plan.s_inv(), &scaled);
                // The diagonal inverse of the scaled level, from the unscaled one.
                let inverse = |d: Result<BlockDiagInv<f32>, usize>| d.map(|d| f32_bits(d.data()));
                assert_eq!(
                    inverse(BlockDiagInv::from_scaled(&a, Some(plan.s_inv()))),
                    inverse(BlockDiagInv::from_matrix(&scaled))
                );
            },
        );
    }

    #[test]
    fn fused_store_pass_scales_by_any_vector_like_the_per_entry_form() {
        // Not a Theorem 4.1 scaling: any factors, ±∞ and NaN entries too,
        // against the level scaled one entry at a time.
        fp16mg_testkit::check_n("fused scaled store == per-entry scaling + store", 32, |rng| {
            let a = wild_matrix(rng, true);
            let scale: Vec<f64> =
                (0..a.rows()).map(|_| 10f64.powf(rng.f64_range(-4.0, 4.0))).collect();
            let mut scaled = a.clone();
            for cell in 0..a.grid().cells() {
                for tap in 0..a.pattern().len() {
                    scaled.set(cell, tap, scaled_entry(&a, &scale, cell, tap));
                }
            }
            scaled_store_matches_all_formats(&a, &scale, &scaled);
        });
    }

    #[test]
    fn fused_store_pass_portable_tally_equals_the_dispatched_one() {
        // On a host with AVX2 the dispatched tally is the 256-bit build;
        // the portable one must agree with it to the bit, plain or not.
        fp16mg_testkit::check_n("portable tally == dispatched tally", 64, |rng| {
            let n = rng.usize_range(1, BLOCK + 1);
            let plain = rng.chance(0.7);
            let values: Vec<f64> = (0..n)
                .map(|_| match rng.usize_range(0, if plain { 8 } else { 11 }) {
                    0 => 0.0,
                    8 => 1.0e-6,
                    9 => 1.0e9,
                    10 => f64::NAN,
                    _ => rng.f64_range(-100.0, 100.0),
                })
                .collect();
            let mut raw = vec![F16::default(); n];
            let mut wide = vec![0.0f64; n];
            F16::store_f64_slice(&values, &mut raw);
            F16::load_f64_slice(&raw, &mut wide);
            let (mut rel_a, mut rel_b) = (vec![0.0f64; n], vec![0.0f64; n]);
            let start = rng.f64_range(0.0, 1.0);
            let got = tally_block::<F16>(&values, &wide, &mut rel_a, start);
            let want = tally_block_in::<F16>(&values, &wide, &mut rel_b, start);
            let fields = |t: PlainTally| {
                let floats = [t.abs_max, t.abs_min_nonzero, t.max_rel_err, t.err_sum];
                (floats.map(f64::to_bits), t.zeros)
            };
            assert_eq!(got.map(fields), want.map(fields));
            let nan_as_one = |v: &[f64]| -> Vec<u64> {
                v.iter().map(|x| if x.is_nan() { 1 } else { x.to_bits() }).collect()
            };
            assert_eq!(nan_as_one(&rel_a), nan_as_one(&rel_b));
        });
    }
}
