//! Order statistics and the seeded generator behind the manufactured
//! solutions.

/// SplitMix64 (Steele, Lea & Flood): the whole input stream of a run is a
/// pure function of `--seed`.
pub struct SplitMix64(pub u64);

impl SplitMix64 {
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[-1, 1)`.
    pub fn next_signed_unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (2.0 / (1u64 << 53) as f64) - 1.0
    }
}

/// Median of the samples (mean of the middle pair for an even count).
///
/// # Panics
/// Panics on an empty slice: every caller times at least one repetition.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        0.5 * (v[mid - 1] + v[mid])
    }
}

/// Nearest-rank percentile `p` in `(0, 100]`.
///
/// # Panics
/// Panics on an empty slice.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The highest of p99 / p95 / p90 that still has at least ten samples
/// beyond it, as `(percentile, value)`; `None` below 100 samples.
pub fn tail(samples: &[f64]) -> Option<(f64, f64)> {
    [99.0, 95.0, 90.0]
        .into_iter()
        .find(|p| samples.len() as f64 * (100.0 - p) / 100.0 >= 10.0)
        .map(|p| (p, percentile(samples, p)))
}

/// Euclidean norm.
pub fn norm2(v: &[f64]) -> f64 {
    v.iter().map(|x| x * x).sum::<f64>().sqrt()
}

/// `‖a − b‖₂ / ‖b‖₂`.
pub fn rel_diff(a: &[f64], b: &[f64]) -> f64 {
    let d = a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum::<f64>().sqrt();
    d / norm2(b)
}
