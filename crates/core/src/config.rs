//! Multigrid configuration: precision policy, scaling strategy, smoother.

use fp16mg_fp::Precision;
use fp16mg_sgdia::audit::TruncationPolicy;
use fp16mg_sgdia::kernels::Par;
use fp16mg_sgdia::scaling::GChoice;
use fp16mg_sgdia::Layout;

/// Which storage precision each level's matrix is truncated to
/// (the paper's `D`).
#[derive(Clone, Debug, PartialEq)]
pub enum StoragePolicy {
    /// Every level uses the same precision.
    Uniform(Precision),
    /// FP16 on levels `0..shift_levid`, the given higher precision from
    /// `shift_levid` to the coarsest — the underflow guard of §4.3.
    /// `shift_levid = usize::MAX` stores everything in FP16.
    Fp16Until {
        /// First level stored in `coarse` precision.
        shift_levid: usize,
        /// Precision for levels `>= shift_levid` (usually FP32, the
        /// preconditioner computation precision).
        coarse: Precision,
    },
    /// Explicit precision per level (the last entry repeats for deeper
    /// levels).
    PerLevel(Vec<Precision>),
    /// Adaptive `shift_levid`: during setup the hierarchy audits each
    /// level's FP16 truncation (see [`fp16mg_sgdia::audit`]) and switches
    /// to `coarse` at the first level whose underflow-loss fraction —
    /// nonzero entries that would flush to zero or to the subnormal range
    /// — exceeds `max_underflow` (or whose truncation would saturate).
    /// The measured, data-driven version of the static §4.3 knob; the
    /// decision lands in `MgInfo::shift_decision`.
    AutoShift {
        /// Precision for the levels past the chosen switch point.
        coarse: Precision,
        /// Underflow-loss fraction in `[0, 1]` above which a level is
        /// switched to `coarse` (0.05 is a reasonable default: a level
        /// losing more than 5% of its couplings has stopped resembling
        /// its operator).
        max_underflow: f64,
    },
}

impl StoragePolicy {
    /// Resolves the precision of `level`. An empty `PerLevel` list (which
    /// [`MgConfig::validate`] rejects before setup) resolves to FP32.
    ///
    /// For [`StoragePolicy::AutoShift`] this returns the *pre-resolution*
    /// answer (FP16 everywhere): the switch point does not exist until
    /// setup has audited the actual hierarchy, after which the resolved
    /// policy is a [`StoragePolicy::Fp16Until`] recorded in the
    /// hierarchy's config.
    pub fn precision_for(&self, level: usize) -> Precision {
        match self {
            StoragePolicy::Uniform(p) => *p,
            StoragePolicy::AutoShift { .. } => Precision::F16,
            StoragePolicy::Fp16Until { shift_levid, coarse } => {
                if level < *shift_levid {
                    Precision::F16
                } else {
                    *coarse
                }
            }
            StoragePolicy::PerLevel(v) => {
                // Non-emptiness is enforced by MgConfig::validate; fall
                // back to the computation precision rather than panicking
                // if an unvalidated policy slips through.
                debug_assert!(!v.is_empty(), "empty PerLevel policy");
                v.get(level).or_else(|| v.last()).copied().unwrap_or(Precision::F32)
            }
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

/// Smoother selection (§4.2: SymGS and ILU are typical; Gauss–Seidel
/// variants are what StructMG/PFMG use in practice).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum SmootherKind {
    /// Weighted (block-)Jacobi: `x += ω D⁻¹ (b − A x)`.
    Jacobi {
        /// Damping weight `ω` (2/3–0.9 typical).
        weight: f64,
    },
    /// Forward Gauss–Seidel pre-smoothing, backward post-smoothing
    /// (`Sᵀ` on the upward pass, Algorithm 3 line 17); the resulting
    /// V-cycle is symmetric, as CG requires.
    GsSymmetric,
    /// Full SymGS (forward + backward sweep) for both pre- and
    /// post-smoothing — heavier per sweep, the HPCG-style configuration.
    SymGs,
    /// ILU(0): factors computed in high precision during setup, truncated
    /// to the storage precision, applied with the mixed-precision
    /// triangular kernels (§4.1: "data in smoothers, such as the
    /// factorized L̃, Ũ in ILU, are calculated in iterative precision
    /// followed by truncation to storage precision"). Scalar problems
    /// only; vector PDEs fall back to [`SmootherKind::GsSymmetric`]. The
    /// same factors smooth both passes, so the V-cycle is mildly
    /// nonsymmetric — pair with GMRES or Richardson.
    Ilu0,
    /// Chebyshev-accelerated Jacobi of the given polynomial degree
    /// (hypre-style interval `[λmax/30, 1.1·λmax]`, λmax estimated by
    /// power iteration during setup). Each degree costs one SpMV plus
    /// vector updates — a *bandwidth-bound* smoother, so FP16 storage
    /// pays off even on a single latency-rich core where Gauss–Seidel's
    /// sequential recurrence hides the traffic reduction. Symmetric and
    /// SPD-preserving (CG-safe).
    Chebyshev {
        /// Polynomial degree (2–4 typical).
        degree: usize,
    },
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

/// Multigrid cycle shape. The paper evaluates V-cycles exclusively; W/F
/// are provided as extensions — they spend more time on coarse levels,
/// which *raises* the fraction of FP16-compressible work (the effect the
/// related Ginkgo work exploits) at higher cost per application.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Cycle {
    /// V-cycle (γ = 1) — the paper's configuration.
    V,
    /// W-cycle (γ = 2).
    W,
    /// F-cycle: one F-visit then one V-visit per level.
    F,
}

/// Runtime precision-recovery policy: what the hierarchy does when a
/// reduced-precision level is caught producing non-finite output or a
/// precision-attributable stall (the self-healing companion to the static
/// `shift_levid` guard of §4.3).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RecoveryPolicy {
    /// Master switch. When off, `Mg` never scans its own output and never
    /// promotes — the paper's original fail-fast behavior.
    pub enabled: bool,
    /// Total promotion budget across the hierarchy's lifetime. Each
    /// promotion widens one level 16-bit → FP32, so a budget the size of
    /// the hierarchy degenerates to the FP32 baseline at worst.
    pub max_promotions: usize,
    /// If a promoted level *still* needs scaling (values beyond the FP32
    /// range), retry with `G` multiplied by this factor in `(0, 1]` —
    /// a tighter margin below `G_max` than the first attempt used.
    pub g_tighten: f64,
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        RecoveryPolicy { enabled: true, max_promotions: 4, g_tighten: 0.5 }
    }
}

impl RecoveryPolicy {
    /// Recovery switched off: detect nothing, promote nothing.
    pub fn disabled() -> Self {
        RecoveryPolicy { enabled: false, ..Default::default() }
    }
}

/// Integrity-sentinel (ABFT) policy: per-level checksums and sum
/// invariants over the stored coefficient planes, verified on demand or on
/// a V-cycle cadence, with localized in-place repair of a corrupted level
/// from its retained high-precision parent.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct IntegrityPolicy {
    /// Compute sentinels at setup. Costs one pass over each stored level
    /// (24 bytes of metadata per coefficient plane); without them neither
    /// verification nor repair is possible.
    pub sentinels: bool,
    /// Verify every `check_every` V-cycles during `apply` (0 = never
    /// periodically; verification still runs on demand and on solver
    /// anomalies when `verify_on_anomaly` is set). Each sweep charges one
    /// V-cycle to the cycle counter so session budgets see the work.
    pub check_every: usize,
    /// Run a verify-and-repair sweep when the Krylov solver reports a
    /// health anomaly (breakdown or precision-attributable stagnation)
    /// through the preconditioner hook.
    pub verify_on_anomaly: bool,
    /// Retain each narrow (16-bit) level's high-precision scaled parent
    /// operator so a corrupted plane can be *repaired* — re-truncated
    /// bit-identically — instead of promoted or rebuilt. Costs the f64
    /// parent copy per narrow level; off by default.
    pub retain_parents: bool,
    /// Total repair budget across the hierarchy's lifetime (a flapping
    /// memory fault must eventually escalate to the retry ladder rather
    /// than repair forever).
    pub max_repairs: usize,
}

impl Default for IntegrityPolicy {
    fn default() -> Self {
        IntegrityPolicy {
            sentinels: true,
            check_every: 0,
            verify_on_anomaly: true,
            retain_parents: false,
            max_repairs: 8,
        }
    }
}

impl IntegrityPolicy {
    /// Sentinels off entirely: no setup pass, no metadata, no repair.
    pub fn disabled() -> Self {
        IntegrityPolicy {
            sentinels: false,
            check_every: 0,
            verify_on_anomaly: false,
            retain_parents: false,
            max_repairs: 0,
        }
    }

    /// Full ABFT: sentinels, periodic verification every `check_every`
    /// V-cycles, anomaly-triggered verification, and parent retention for
    /// localized repair.
    pub fn armed(check_every: usize) -> Self {
        IntegrityPolicy {
            sentinels: true,
            check_every,
            verify_on_anomaly: true,
            retain_parents: true,
            max_repairs: 8,
        }
    }
}

/// A configuration rejected by [`MgConfig::validate`].
#[derive(Clone, Debug, PartialEq)]
pub enum ConfigError {
    /// `max_levels` is zero — a hierarchy needs at least the finest level.
    NoLevels,
    /// `Fp16Until::shift_levid` exceeds `max_levels`, so the switch to the
    /// coarse precision could never fire (use `usize::MAX` to mean
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
    /// A `PerLevel` storage policy with an empty precision list.
    EmptyPerLevel,
    /// A fixed scaling constant `G` that is not positive and finite.
    /// (Theorem 4.1 additionally requires `G < G_max`, which depends on
    /// the matrix; `scale_symmetric` clamps to `G_max / 2` at setup.)
    InvalidG {
        /// The offending value.
        g: f64,
    },
    /// A Jacobi damping weight that is not positive and finite.
    InvalidSmootherWeight {
        /// The offending value.
        weight: f64,
    },
    /// A Chebyshev smoother of degree zero.
    InvalidChebyshevDegree,
    /// A semicoarsening threshold outside `(0, 1]`.
    InvalidSemiThreshold {
        /// The offending value.
        threshold: f64,
    },
    /// A recovery `g_tighten` factor outside `(0, 1]`.
    InvalidGTighten {
        /// The offending value.
        g_tighten: f64,
    },
    /// An `AutoShift` underflow threshold outside `[0, 1]`.
    InvalidUnderflowThreshold {
        /// The offending value.
        threshold: f64,
    },
    /// An integrity policy that retains repair parents (or schedules
    /// periodic/anomaly verification) without computing sentinels — there
    /// would be nothing to verify against, so the retained memory and the
    /// verification cadence could never be used.
    IntegrityWithoutSentinels,
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
            ConfigError::EmptyPerLevel => write!(f, "PerLevel storage policy is empty"),
            ConfigError::InvalidG { g } => {
                write!(f, "fixed scaling constant G = {g} must be positive and finite")
            }
            ConfigError::InvalidSmootherWeight { weight } => {
                write!(f, "Jacobi weight {weight} must be positive and finite")
            }
            ConfigError::InvalidChebyshevDegree => {
                write!(f, "Chebyshev smoother degree must be at least 1")
            }
            ConfigError::InvalidSemiThreshold { threshold } => {
                write!(f, "semicoarsening threshold {threshold} must lie in (0, 1]")
            }
            ConfigError::InvalidGTighten { g_tighten } => {
                write!(f, "recovery g_tighten {g_tighten} must lie in (0, 1]")
            }
            ConfigError::InvalidUnderflowThreshold { threshold } => {
                write!(f, "AutoShift underflow threshold {threshold} must lie in [0, 1]")
            }
            ConfigError::IntegrityWithoutSentinels => write!(
                f,
                "integrity policy retains parents or schedules verification \
                 but computes no sentinels to verify against"
            ),
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
    /// Cycle shape.
    pub cycle: Cycle,
    /// Coarsening policy.
    pub coarsening: Coarsening,
    /// Runtime precision-recovery policy.
    pub recovery: RecoveryPolicy,
    /// Integrity-sentinel (ABFT) policy.
    pub integrity: IntegrityPolicy,
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
            cycle: Cycle::V,
            coarsening: Coarsening::Full,
            recovery: RecoveryPolicy::default(),
            integrity: IntegrityPolicy::default(),
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

    /// FP16 storage with the audit-driven adaptive `shift_levid`: levels
    /// stay FP16 until the measured underflow loss crosses 5%, then
    /// switch to FP32.
    pub fn d16_auto() -> Self {
        MgConfig {
            storage: StoragePolicy::AutoShift { coarse: Precision::F32, max_underflow: 0.05 },
            ..Default::default()
        }
    }

    /// The economy-tier variant of this configuration, used by the serve
    /// pool's load shedder: storage becomes FP16 below `shift_levid`
    /// (F32 coarse), and the integrity layer stops retaining
    /// high-precision parents — under overload, the memory for repair
    /// sources is better spent on throughput. Everything else (smoother,
    /// cycle shape, scaling) is preserved, and the result is validated so
    /// a shed-time downgrade can never smuggle in a contradiction.
    ///
    /// # Errors
    /// The first [`ConfigError`] the degraded configuration fails on
    /// (e.g. [`ConfigError::ShiftBeyondLevels`]).
    pub fn economize(&self, shift_levid: usize) -> Result<MgConfig, ConfigError> {
        let mut cfg = self.clone();
        cfg.storage = StoragePolicy::Fp16Until { shift_levid, coarse: Precision::F32 };
        cfg.integrity.retain_parents = false;
        cfg.validate()?;
        Ok(cfg)
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
        if let StoragePolicy::PerLevel(v) = &self.storage {
            if v.is_empty() {
                return Err(ConfigError::EmptyPerLevel);
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
        match self.smoother {
            SmootherKind::Jacobi { weight } if !weight.is_finite() || weight <= 0.0 => {
                return Err(ConfigError::InvalidSmootherWeight { weight });
            }
            SmootherKind::Chebyshev { degree: 0 } => {
                return Err(ConfigError::InvalidChebyshevDegree);
            }
            _ => {}
        }
        if let Coarsening::Semi { threshold } = self.coarsening {
            if threshold.is_nan() || threshold <= 0.0 || threshold > 1.0 {
                return Err(ConfigError::InvalidSemiThreshold { threshold });
            }
        }
        let gt = self.recovery.g_tighten;
        if gt.is_nan() || gt <= 0.0 || gt > 1.0 {
            return Err(ConfigError::InvalidGTighten { g_tighten: gt });
        }
        if let StoragePolicy::AutoShift { max_underflow, .. } = self.storage {
            if max_underflow.is_nan() || !(0.0..=1.0).contains(&max_underflow) {
                return Err(ConfigError::InvalidUnderflowThreshold { threshold: max_underflow });
            }
        }
        let integ = &self.integrity;
        if !integ.sentinels
            && (integ.retain_parents || integ.check_every > 0 || integ.verify_on_anomaly)
        {
            return Err(ConfigError::IntegrityWithoutSentinels);
        }
        Ok(())
    }
}
