//! The one seeded jitter stream of the runtime.
//!
//! The network client's backoff jitter and the circuit breaker's
//! cooldown jitter draw on the same SplitMix64 mixer. Two
//! copies of a bit-exact algorithm are a determinism hazard — a drive-by
//! constant change in one desynchronizes replay — so the mixer lives
//! here once, together with the FNV-1a seed fold the breaker registry
//! uses to give each problem class its own stream.

/// SplitMix64: tiny, stateless, deterministic. `x` is the stream
/// position (seed plus counter); equal inputs produce equal outputs on
/// every platform, which is what makes replayed streams take identical
/// jittered decisions.
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Maps a stream position to a uniform value in `[0, 1)` using the top
/// 53 bits (exactly representable in an `f64`).
pub fn unit(x: u64) -> f64 {
    (splitmix64(x) >> 11) as f64 / (1u64 << 53) as f64
}

/// Folds a name into a shared seed via FNV-1a, giving each named entity
/// (problem class, worker, …) its own decorrelated stream while staying
/// a pure function of `(seed, name)` — reconstructible after a restart
/// without persisting any derived seed.
pub fn fold_seed(seed: u64, name: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.bytes() {
        h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
    }
    seed ^ h
}
