//! Multigrid configuration: precision policy, scaling strategy, smoother.

use fp16mg_fp::Precision;
use fp16mg_sgdia::audit::TruncationPolicy;
use fp16mg_sgdia::kernels::Par;
use fp16mg_sgdia::scaling::GChoice;
use fp16mg_sgdia::Layout;

/// Which storage precision each level's matrix is truncated to
/// (the paper's `D`).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum StoragePolicy {
    /// Every level uses the same precision.
    Uniform(Precision),
    /// FP16 on levels `0..shift_levid`, FP32 (the preconditioner
    /// computation precision) from `shift_levid` to the coarsest — the
    /// underflow guard of §4.3. `shift_levid = usize::MAX` stores
    /// everything in FP16.
    Fp16Until {
        /// First level stored in FP32.
        shift_levid: usize,
    },
}

impl StoragePolicy {
    /// The precision `level` is stored in.
    pub fn precision_for(&self, level: usize) -> Precision {
        match *self {
            StoragePolicy::Uniform(p) => p,
            StoragePolicy::Fp16Until { shift_levid } if level < shift_levid => Precision::F16,
            StoragePolicy::Fp16Until { .. } => Precision::F32,
        }
    }
}

/// Out-of-range treatment (§4.1, §4.3, Fig. 6 ablation).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ScaleStrategy {
    /// Direct truncation, no scaling: overflows to ±∞ and crashes the
    /// solve with NaN on out-of-range problems (`K64P32D16-none`).
    None,
    /// The paper's strategy (Algorithm 1): complete the high-precision
    /// setup first, then scale each level per Theorem 4.1 — but only
    /// levels whose values actually exceed the storage range.
    SetupThenScale,
    /// The inferior alternative of §4.3: scale the finest matrix once,
    /// run the Galerkin chain on the scaled operator, truncate all levels
    /// directly. Coarse levels may still leave the FP16 range (overflow or
    /// underflow) because a single global scaling cannot adapt per level.
    ScaleThenSetup,
}

/// The V-cycle smoother. One variant: every workload smooths with the
/// paper's symmetric Gauss–Seidel, and the kind stays a named value so
/// callers that check which smoother a configuration runs keep compiling.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum SmootherKind {
    /// Forward Gauss–Seidel pre-smoothing, backward post-smoothing
    /// (`Sᵀ` on the upward pass, Algorithm 3 line 17); the resulting
    /// V-cycle is symmetric, as CG requires.
    GsSymmetric,
}

/// Coarsening policy.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Coarsening {
    /// ×2 in every direction (the default; StructMG's high-dimensional
    /// coarsening keeps C_G ≤ 8/7).
    Full,
    /// PFMG-style semicoarsening: per level, coarsen only the axes whose
    /// mean face-coupling strength is at least `threshold` times the
    /// strongest axis's. Collapses anisotropy level by level, restoring
    /// point-smoother efficiency on strongly anisotropic operators at the
    /// cost of higher grid complexity.
    Semi {
        /// Relative strength cutoff in (0, 1]; hypre's PFMG default idea
        /// is "coarsen the strong direction", ~0.5 works well.
        threshold: f64,
    },
}

/// Runtime precision-recovery policy: what the hierarchy does when a
/// reduced-precision level is caught corrupted — by its integrity
/// sentinels or by a non-finite cycle (the self-healing companion to the
/// static `shift_levid` guard of §4.3). Either way the level is widened
/// 16-bit → FP32 from its promotion material, which it then no longer
/// has, so the promotions of one hierarchy are bounded by its 16-bit
/// levels: the FP32 baseline at worst.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RecoveryPolicy {
    /// Master switch. When off, `Mg` never scans its own output, keeps no
    /// promotion material and never widens a level — the paper's original
    /// fail-fast behavior.
    pub enabled: bool,
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        RecoveryPolicy { enabled: true }
    }
}

impl RecoveryPolicy {
    /// Recovery switched off: detect nothing, promote nothing.
    pub fn disabled() -> Self {
        RecoveryPolicy { enabled: false }
    }
}

/// A configuration rejected by [`MgConfig::validate`].
#[derive(Clone, Debug, PartialEq)]
pub enum ConfigError {
    /// `max_levels` is zero — a hierarchy needs at least the finest level.
    NoLevels,
    /// `Fp16Until::shift_levid` exceeds `max_levels`, so the switch to
    /// FP32 could never fire (use `usize::MAX` to mean
    /// "all FP16" explicitly).
    ShiftBeyondLevels {
        /// The configured shift level.
        shift_levid: usize,
        /// The configured maximum level count.
        max_levels: usize,
    },
    /// Both `nu1` and `nu2` are zero: the cycle would do no smoothing at
    /// all and cannot reduce high-frequency error.
    NoSmoothing,
    /// A fixed scaling constant `G` that is not positive and finite.
    /// (Theorem 4.1 additionally requires `G < G_max`, which depends on
    /// the matrix; `scale_symmetric` clamps to `G_max / 2` at setup.)
    InvalidG {
        /// The offending value.
        g: f64,
    },
    /// A semicoarsening threshold outside `(0, 1]`.
    InvalidSemiThreshold {
        /// The offending value.
        threshold: f64,
    },
}

impl core::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ConfigError::NoLevels => write!(f, "max_levels must be at least 1"),
            ConfigError::ShiftBeyondLevels { shift_levid, max_levels } => write!(
                f,
                "shift_levid {shift_levid} exceeds max_levels {max_levels} \
                 (use usize::MAX for all-FP16)"
            ),
            ConfigError::NoSmoothing => {
                write!(f, "nu1 and nu2 are both zero: the cycle would never smooth")
            }
            ConfigError::InvalidG { g } => {
                write!(f, "fixed scaling constant G = {g} must be positive and finite")
            }
            ConfigError::InvalidSemiThreshold { threshold } => {
                write!(f, "semicoarsening threshold {threshold} must lie in (0, 1]")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// Complete multigrid configuration.
#[derive(Clone, Debug, PartialEq)]
pub struct MgConfig {
    /// Maximum number of levels (including the finest).
    pub max_levels: usize,
    /// Stop coarsening when a grid has at most this many cells; that level
    /// is solved directly by dense LU.
    pub min_coarse_cells: usize,
    /// Smoother kind.
    pub smoother: SmootherKind,
    /// Pre-smoothing sweeps ν₁ (the paper uses 1 throughout, §8).
    pub nu1: usize,
    /// Post-smoothing sweeps ν₂.
    pub nu2: usize,
    /// Storage precision policy (`D`).
    pub storage: StoragePolicy,
    /// Out-of-range strategy.
    pub scale: ScaleStrategy,
    /// Scaling constant policy.
    pub g_choice: GChoice,
    /// Matrix memory layout (SOA enables the SIMD kernels, §5.1).
    pub layout: Layout,
    /// Kernel parallelism.
    pub par: Par,
    /// Coarsening policy.
    pub coarsening: Coarsening,
    /// Runtime precision-recovery policy.
    pub recovery: RecoveryPolicy,
    /// Out-of-range treatment on the truncation store path. The default
    /// ([`TruncationPolicy::Saturate`]) clamps instead of storing ±∞;
    /// [`TruncationPolicy::Reject`] turns any saturating entry into a
    /// typed setup error. Ignored under [`ScaleStrategy::None`], whose
    /// entire point is to exhibit the unguarded IEEE overflow.
    pub truncation: TruncationPolicy,
}

impl Default for MgConfig {
    fn default() -> Self {
        MgConfig {
            max_levels: 10,
            min_coarse_cells: 64,
            smoother: SmootherKind::GsSymmetric,
            nu1: 1,
            nu2: 1,
            storage: StoragePolicy::Uniform(Precision::F32),
            scale: ScaleStrategy::SetupThenScale,
            g_choice: GChoice::Auto,
            layout: Layout::Soa,
            par: Par::Seq,
            coarsening: Coarsening::Full,
            recovery: RecoveryPolicy::default(),
            truncation: TruncationPolicy::default(),
        }
    }
}

impl MgConfig {
    /// The paper's headline configuration: FP16 storage on every level,
    /// setup-then-scale, SOA layout.
    pub fn d16() -> Self {
        MgConfig { storage: StoragePolicy::Uniform(Precision::F16), ..Default::default() }
    }

    /// Full-FP32 preconditioner (the `K64P32D32` baseline).
    pub fn d32() -> Self {
        MgConfig { storage: StoragePolicy::Uniform(Precision::F32), ..Default::default() }
    }

    /// Full-FP64 preconditioner storage (for `Full64` baselines, paired
    /// with `Pr = f64`).
    pub fn d64() -> Self {
        MgConfig { storage: StoragePolicy::Uniform(Precision::F64), ..Default::default() }
    }

    /// BF16 storage (§8 comparison).
    pub fn dbf16() -> Self {
        MgConfig { storage: StoragePolicy::Uniform(Precision::BF16), ..Default::default() }
    }

    /// Checks the configuration for contradictions before any setup work
    /// runs. [`crate::Mg::setup`] calls this first, so a bad configuration
    /// fails with a [`ConfigError`] instead of a panic (or a silently
    /// useless hierarchy) deep inside the Galerkin chain.
    ///
    /// # Errors
    /// The first [`ConfigError`] found.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.max_levels == 0 {
            return Err(ConfigError::NoLevels);
        }
        if let StoragePolicy::Fp16Until { shift_levid, .. } = self.storage {
            if shift_levid != usize::MAX && shift_levid > self.max_levels {
                return Err(ConfigError::ShiftBeyondLevels {
                    shift_levid,
                    max_levels: self.max_levels,
                });
            }
        }
        if self.nu1 == 0 && self.nu2 == 0 {
            return Err(ConfigError::NoSmoothing);
        }
        if let GChoice::Fixed(g) = self.g_choice {
            // `!is_finite()` first so NaN is caught before any ordering test.
            if !g.is_finite() || g <= 0.0 {
                return Err(ConfigError::InvalidG { g });
            }
        }
        if let Coarsening::Semi { threshold } = self.coarsening {
            if threshold.is_nan() || threshold <= 0.0 || threshold > 1.0 {
                return Err(ConfigError::InvalidSemiThreshold { threshold });
            }
        }
        Ok(())
    }
}
