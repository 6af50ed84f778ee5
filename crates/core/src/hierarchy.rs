//! The multigrid hierarchy: Algorithm 1 setup, Algorithm 3 V-cycle, and
//! the Algorithm 2 preconditioner interface.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use fp16mg_fp::{Precision, Scalar};
use fp16mg_grid::Grid3;
use fp16mg_krylov::Preconditioner;
use fp16mg_sgdia::audit::{self, RangeAudit, StoredLevel, TruncationError, TruncationPolicy};
use fp16mg_sgdia::kernels::BlockDiagInv;
use fp16mg_sgdia::scaling::{self, ScalePlan, ScaleVectors};
use fp16mg_sgdia::sentinel::{MatrixSentinels, TapMismatch};
use fp16mg_sgdia::{Layout, SgDia};

use fp16mg_sgdia::scaling::GChoice;
use fp16mg_sgdia::scan::MatrixScan;

use crate::coarsen::{directional_strength, galerkin_rap_axes};
use crate::config::{Coarsening, ConfigError, Cycle, MgConfig, ScaleStrategy, StoragePolicy};
use crate::level::Level;
use crate::smoother::DenseLu;
use crate::stored::StoredMatrix;
use crate::transfer::{prolong_add, restrict};
use crate::workspace::{checked_unknowns, Workspace};

/// Setup failure.
#[derive(Clone, Debug, PartialEq)]
pub enum SetupError {
    /// The configuration failed [`MgConfig::validate`].
    InvalidConfig(ConfigError),
    /// Theorem 4.1 requires positive, finite diagonals; this unknown's is
    /// not (the core-boundary form of
    /// [`fp16mg_sgdia::scaling::ScalingError`]).
    NonPositiveDiagonal {
        /// Level index.
        level: usize,
        /// Offending unknown.
        unknown: usize,
        /// The offending diagonal value.
        value: f64,
    },
    /// The configured [`fp16mg_sgdia::audit::TruncationPolicy`] refused a
    /// truncation (an entry would saturate the storage range, or the
    /// source itself is non-finite).
    Truncation {
        /// Level index.
        level: usize,
        /// The refused truncation.
        error: TruncationError,
    },
    /// A diagonal block could not be inverted for the smoother.
    SingularDiagonalBlock {
        /// Level index.
        level: usize,
        /// Offending cell.
        cell: usize,
    },
    /// The coarsest-level dense factorization failed.
    SingularCoarseMatrix {
        /// Column whose pivot vanished (or was non-finite).
        pivot: usize,
    },
    /// More components per cell than the kernels support (8).
    TooManyComponents,
    /// A retained [`GalerkinChain`] cannot serve this request: the
    /// scaling strategy pre-bakes a finest-level scaling into the chain
    /// (`ScaleThenSetup`), or the supplied finest operator's geometry
    /// disagrees with the chain's.
    ChainIncompatible {
        /// What made the chain unusable.
        reason: String,
    },
    /// A setup allocation was refused: the checked size computation
    /// overflowed (hostile dimensions) or exceeded the arena ceiling.
    /// The setup path never aborts on an oversized request — it returns
    /// this typed error instead (the hierarchy-side analog of the
    /// `sgdia::io` decode limits).
    AllocTooLarge {
        /// Which allocation was refused.
        what: &'static str,
        /// Requested bytes (`u64::MAX` when the size computation itself
        /// overflowed).
        bytes: u64,
        /// The ceiling that refused it.
        limit: u64,
    },
}

impl core::fmt::Display for SetupError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            SetupError::InvalidConfig(e) => write!(f, "invalid configuration: {e}"),
            SetupError::NonPositiveDiagonal { level, unknown, value } => {
                write!(f, "non-positive diagonal at level {level}, unknown {unknown} ({value:e})")
            }
            SetupError::Truncation { level, error } => {
                write!(f, "truncation rejected at level {level}: {error}")
            }
            SetupError::SingularDiagonalBlock { level, cell } => {
                write!(f, "singular diagonal block at level {level}, cell {cell}")
            }
            SetupError::SingularCoarseMatrix { pivot } => {
                write!(f, "singular coarsest-level matrix (pivot column {pivot})")
            }
            SetupError::TooManyComponents => write!(f, "more than 8 components per cell"),
            SetupError::ChainIncompatible { reason } => {
                write!(f, "retained Galerkin chain unusable: {reason}")
            }
            SetupError::AllocTooLarge { what, bytes, limit } => {
                if *bytes == u64::MAX {
                    write!(f, "allocation refused: {what} size computation overflowed")
                } else {
                    write!(f, "allocation refused: {what} needs {bytes} bytes (limit {limit})")
                }
            }
        }
    }
}

impl std::error::Error for SetupError {}

impl From<ConfigError> for SetupError {
    fn from(e: ConfigError) -> Self {
        SetupError::InvalidConfig(e)
    }
}

/// Why a level was promoted to a wider storage precision.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PromotionReason {
    /// The V-cycle output contained ±∞/NaN and this level was implicated
    /// (corrupt stored values, or the coarsest reduced-precision level as
    /// the §4.3-style suspect when no corruption was visible).
    NonFiniteOutput,
    /// The outer solve stagnated above the FP16 unit-roundoff floor and
    /// asked the hierarchy to shed precision-attributable error.
    Stagnation,
    /// Explicit caller request.
    Manual,
}

impl core::fmt::Display for PromotionReason {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            PromotionReason::NonFiniteOutput => write!(f, "non-finite V-cycle output"),
            PromotionReason::Stagnation => write!(f, "stagnation above the FP16 floor"),
            PromotionReason::Manual => write!(f, "manual request"),
        }
    }
}

/// One runtime storage-precision promotion, logged in [`MgInfo`].
#[derive(Clone, Debug)]
pub struct PromotionEvent {
    /// Promoted level.
    pub level: usize,
    /// Storage precision before promotion.
    pub from: Precision,
    /// Storage precision after promotion.
    pub to: Precision,
    /// What triggered it.
    pub reason: PromotionReason,
    /// Non-finite stored values found in the level at promotion time
    /// (zero when the promotion was precautionary).
    pub corrupt_entries: u64,
}

impl core::fmt::Display for PromotionEvent {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "level {} promoted {:?} -> {:?} ({}; {} corrupt entries)",
            self.level, self.from, self.to, self.reason, self.corrupt_entries
        )
    }
}

/// What triggered an integrity verification-and-repair sweep.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RepairTrigger {
    /// The periodic `check_every` V-cycle cadence.
    Periodic,
    /// The self-healing `apply_pr` loop saw non-finite output.
    NonFiniteOutput,
    /// The Krylov solver reported a health anomaly through the
    /// preconditioner hook.
    Anomaly,
    /// Explicit caller request (e.g. the runtime's `repair-level` rung).
    Requested,
}

impl core::fmt::Display for RepairTrigger {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            RepairTrigger::Periodic => write!(f, "periodic check"),
            RepairTrigger::NonFiniteOutput => write!(f, "non-finite V-cycle output"),
            RepairTrigger::Anomaly => write!(f, "solver health anomaly"),
            RepairTrigger::Requested => write!(f, "explicit request"),
        }
    }
}

/// One localized in-place repair of a corrupted level, logged in
/// [`MgInfo`]: the level's stored matrix was re-truncated from its
/// retained high-precision parent — bit-identically, without touching any
/// other level and without a hierarchy rebuild.
#[derive(Clone, Debug)]
pub struct RepairEvent {
    /// Repaired level.
    pub level: usize,
    /// The coefficient planes (taps) the sentinels flagged as corrupted.
    pub taps: Vec<usize>,
    /// Storage precision of the repaired level.
    pub precision: Precision,
    /// What triggered the sweep that found the corruption.
    pub trigger: RepairTrigger,
}

impl core::fmt::Display for RepairEvent {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "level {} ({}) repaired in place, corrupt taps {:?} ({})",
            self.level,
            self.precision.name(),
            self.taps,
            self.trigger
        )
    }
}

/// What one level's store measured (Table 3, Fig. 3): taken in the fused
/// store pass and replaced only when a promotion rebuilds the level.
#[derive(Clone, Debug)]
pub struct LevelInfo {
    /// Grid extents.
    pub dims: (usize, usize, usize),
    /// Unknowns `n_l`.
    pub unknowns: usize,
    /// Nonzeros `Z_l`.
    pub nnz: usize,
    /// Storage precision of the level's matrix.
    pub precision: Precision,
    /// Whether setup-then-scale fired on this level.
    pub scaled: bool,
    /// The scaling constant `G` when scaled.
    pub g: Option<f64>,
    /// Whether all stored values are finite after truncation.
    pub finite: bool,
    /// Bytes of matrix value data stored.
    pub value_bytes: usize,
    /// Precision audit of the level's truncation: what storing the
    /// (scaled) high-precision operator at `precision` did to its range
    /// (`None` for the coarsest/direct level, which is never truncated).
    pub audit: Option<RangeAudit>,
    /// When a user-fixed `G` was clamped to `G_max/2` on this level, the
    /// originally requested value — the clamp is recorded, never silent.
    pub g_clamped_from: Option<f64>,
    /// Integrity sentinels of the stored matrix, taken over `precision`
    /// (`None` for the coarsest/direct level, or when the integrity policy
    /// has sentinels off).
    pub sentinels: Option<MatrixSentinels>,
}

/// Hierarchy summary.
#[derive(Clone, Debug)]
pub struct MgInfo {
    /// One entry per level, finest first (the coarsest/direct level
    /// included, tagged with the computation precision).
    pub levels: Vec<LevelInfo>,
    /// Grid complexity `C_G = Σ n_l / n_0` (Eq. 3).
    pub grid_complexity: f64,
    /// Operator complexity `C_O = Σ Z_l / Z_0` (Eq. 3).
    pub operator_complexity: f64,
    /// Total bytes of matrix data across smoothed levels.
    pub matrix_bytes: usize,
    /// Bytes of FP32 promotion sources and FP64 repair parents kept beside.
    pub insurance_bytes: usize,
    /// Runtime storage-precision promotions, in the order they fired
    /// (empty for a healthy solve).
    pub promotions: Vec<PromotionEvent>,
    /// Localized integrity repairs, in the order they fired (empty while
    /// the stored planes match their sentinels).
    pub repairs: Vec<RepairEvent>,
    /// How `StoragePolicy::AutoShift` resolved the FP16→coarse switch
    /// point (`None` for the static storage policies).
    pub shift_decision: Option<ShiftDecision>,
}

/// The record of one `AutoShift` resolution: which level the audit chose
/// as the FP16→coarse switch point, and the evidence.
#[derive(Clone, Debug)]
pub struct ShiftDecision {
    /// The resolved `shift_levid`: first level stored in the coarse
    /// precision (`usize::MAX` when every audited level stayed within
    /// the threshold — all-FP16).
    pub chosen: usize,
    /// The underflow-loss threshold the decision used.
    pub threshold: f64,
    /// FP16 audit of each candidate level, finest first, up to and
    /// including the chosen one: the audit of the level's own FP16 store
    /// (post-scaling), or of its unscaled operator when Theorem 4.1
    /// cannot scale it.
    pub per_level: Vec<RangeAudit>,
}

impl core::fmt::Display for ShiftDecision {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        if self.chosen == usize::MAX {
            write!(
                f,
                "auto shift_levid: all {} audited levels within underflow threshold {:.1}% — \
                 FP16 throughout",
                self.per_level.len(),
                self.threshold * 100.0
            )
        } else {
            write!(
                f,
                "auto shift_levid = {}: level {} underflow loss {:.2}% exceeds threshold {:.1}%",
                self.chosen,
                self.chosen,
                self.per_level
                    .get(self.chosen)
                    .map(|a| a.underflow_loss_fraction() * 100.0)
                    .unwrap_or(f64::NAN),
                self.threshold * 100.0
            )
        }
    }
}

/// The one verdict on a level's 16-bit [`RangeAudit`]: storing the level
/// saturates, meets a non-finite source, or loses more than
/// `max_underflow` of its nonzeros to underflow. `AutoShift` switches to
/// the coarse precision at the first level it holds for; the runtime's
/// audit gate skips retries that it says are doomed.
pub fn audit_rejects(audit: &RangeAudit, max_underflow: f64) -> bool {
    !audit.overflow_free() || audit.underflow_loss_fraction() > max_underflow
}

/// The FP16-capable structured multigrid preconditioner.
///
/// Generic over the preconditioner computation precision `Pr` (the
/// paper's `P`, normally `f32`); the storage precision is per-level
/// runtime state. Implements [`Preconditioner`] for any iterative
/// precision `K` — the `K`→`Pr` truncation and `Pr`→`K` recovery of
/// Algorithm 2 happen at the boundary.
pub struct Mg<Pr: Scalar = f32> {
    /// The smoothed levels, finest first; `info.levels[i]` is what level
    /// `i`'s store measured.
    levels: Vec<Level<Pr>>,
    coarse_grid: Grid3,
    coarse_lu: DenseLu,
    coarse_f: Vec<Pr>,
    coarse_x64: Vec<f64>,
    coarse_s64: Vec<f64>,
    /// Finest-level rescale wrap for the scale-then-setup strategy.
    finest_scale: Option<ScaleVectors<Pr>>,
    /// The preallocated solve arena: every per-level V-cycle buffer,
    /// carved once at setup so the steady-state hot loop is
    /// allocation-free.
    ws: Workspace<Pr>,
    config: MgConfig,
    info: MgInfo,
    /// Cycle applications performed, counting re-runs inside the
    /// self-healing `apply_pr` loop. Shared (`Arc`) so an outer runtime
    /// budget can watch V-cycle consumption while a solve is in flight.
    cycles: Arc<AtomicUsize>,
}

impl<Pr: Scalar> Mg<Pr> {
    /// Builds the hierarchy from the finest-level matrix (Algorithm 1).
    ///
    /// ```
    /// use fp16mg_core::{Mg, MgConfig};
    /// use fp16mg_grid::Grid3;
    /// use fp16mg_sgdia::{Layout, SgDia};
    /// use fp16mg_stencil::Pattern;
    ///
    /// // 7-point Poisson on a 8³ grid, FP16 storage with setup-then-scale.
    /// let pattern = Pattern::p7();
    /// let taps: Vec<_> = pattern.taps().to_vec();
    /// let a = SgDia::<f64>::from_fn(Grid3::cube(8), pattern, Layout::Soa,
    ///     |_, _, _, _, t| if taps[t].is_diagonal() { 6.0 } else { -1.0 });
    /// let mg = Mg::<f32>::setup(&a, &MgConfig::d16()).unwrap();
    /// assert!(mg.info().grid_complexity < 1.2);
    /// ```
    ///
    /// # Errors
    /// See [`SetupError`].
    pub fn setup(a: &SgDia<f64>, config: &MgConfig) -> Result<Self, SetupError> {
        config.validate()?;
        if a.grid().components > 8 {
            return Err(SetupError::TooManyComponents);
        }
        let config = config.clone();

        // --- Galerkin chain in f64 (lines 1–3). The caller's matrix is
        // borrowed unless it must be re-laid-out or pre-scaled. ---
        let mut finest = a.in_layout(config.layout);
        let mut finest_scale = None;
        if config.scale == ScaleStrategy::ScaleThenSetup {
            // The inferior §4.3 alternative: scale the problem matrix once,
            // before the triple-product chain sees it.
            let fp16_max = fp16mg_fp::F16::MAX_F64;
            let sv = scaling::scale_symmetric::<Pr>(finest.to_mut(), config.g_choice, fp16_max)
                .map_err(|e| SetupError::NonPositiveDiagonal {
                    level: 0,
                    unknown: e.unknown(),
                    value: e.value(),
                })?;
            finest_scale = Some(sv);
        }
        let coarse = coarse_chain(&finest, &config);
        let mats: Vec<&SgDia<f64>> = std::iter::once(&*finest).chain(&coarse).collect();
        Self::assemble(&mats, finest_scale, config)
    }

    /// Builds the hierarchy from a retained FP64 [`GalerkinChain`] —
    /// the cheap path behind a hierarchy cache. Only the per-level
    /// scale-and-truncate, smoother setup, and coarsest factorization
    /// run (Algorithm 1 lines 4–14); the Galerkin triple products
    /// (lines 1–3, the dominant setup cost) are reused as-is.
    ///
    /// Rebuilding from the same chain and config is deterministic: the
    /// stored levels are bit-identical to a full [`Mg::setup`] with the
    /// same inputs.
    ///
    /// # Errors
    /// [`SetupError::ChainIncompatible`] for `ScaleThenSetup` configs
    /// (the chain would embed a finest scaling, making it single-use);
    /// otherwise see [`SetupError`].
    pub fn setup_from_chain(chain: &GalerkinChain, config: &MgConfig) -> Result<Self, SetupError> {
        config.validate()?;
        reject_prescaled(config)?;
        let mats: Vec<&SgDia<f64>> = chain.mats.iter().collect();
        Self::assemble(&mats, None, config.clone())
    }

    /// Algorithm 1 lines 4–14 over an already-built Galerkin chain:
    /// per-level scale-and-truncate (resolving AutoShift on the way),
    /// smoother data, coarsest dense LU.
    fn assemble(
        chain: &[&SgDia<f64>],
        finest_scale: Option<ScaleVectors<Pr>>,
        mut config: MgConfig,
    ) -> Result<Self, SetupError> {
        // --- Workspace arena, sized first with checked arithmetic so
        // hostile dimensions fail typed before any level is built. ---
        let nlev = chain.len();
        let mut level_unknowns = Vec::with_capacity(nlev.saturating_sub(1));
        for ai in chain.iter().take(nlev - 1) {
            level_unknowns.push(checked_unknowns(ai.grid())?);
        }
        let ws = Workspace::for_levels(&level_unknowns)?;

        // --- Per-level scale-and-truncate (lines 4–14). Under AutoShift
        // every level is an FP16 candidate until one fails the audit of
        // its own store; from that level on, the coarse precision. ---
        let mut shift = match config.storage {
            StoragePolicy::AutoShift { coarse, max_underflow: threshold } => {
                Some((ShiftDecision { chosen: usize::MAX, threshold, per_level: vec![] }, coarse))
            }
            _ => None,
        };
        let mut levels = Vec::with_capacity(nlev - 1);
        let mut infos = Vec::with_capacity(nlev);
        for (i, ai) in chain.iter().enumerate().take(nlev - 1) {
            let (level, info) = match &mut shift {
                Some((d, coarse)) if d.chosen == usize::MAX => {
                    build_level(ai, Precision::F16, &config, i, Some((d, *coarse)))?
                }
                Some((_, coarse)) => build_level(ai, *coarse, &config, i, None)?,
                None => build_level(ai, config.storage.precision_for(i), &config, i, None)?,
            };
            levels.push(level);
            infos.push(info);
        }
        let shift_decision = shift.map(|(decision, coarse)| {
            config.storage = StoragePolicy::Fp16Until { shift_levid: decision.chosen, coarse };
            decision
        });

        // --- Coarsest level: dense LU of the exact f64 operator. ---
        let coarsest = chain.last().expect("chain holds at least the finest matrix");
        let coarse_lu = DenseLu::factor(coarsest)
            .map_err(|e| SetupError::SingularCoarseMatrix { pivot: e.column() })?;
        let cn = coarsest.rows();
        infos.push(LevelInfo {
            dims: (coarsest.grid().nx, coarsest.grid().ny, coarsest.grid().nz),
            unknowns: cn,
            nnz: coarsest.nnz(),
            precision: Precision::F64,
            scaled: false,
            g: None,
            finite: true,
            value_bytes: coarsest.value_bytes(),
            audit: None,
            g_clamped_from: None,
            sentinels: None,
        });

        // ScaleThenSetup applies its single scaling before `build_level`
        // ever runs, so its G clamp must be surfaced here instead.
        if let (Some(sv), Some(info0)) = (&finest_scale, infos.first_mut()) {
            info0.g_clamped_from = sv.g_clamped_from;
        }

        let n0 = infos[0].unknowns as f64;
        let z0 = infos[0].nnz as f64;
        let info = MgInfo {
            grid_complexity: infos.iter().map(|l| l.unknowns as f64).sum::<f64>() / n0,
            operator_complexity: infos.iter().map(|l| l.nnz as f64).sum::<f64>() / z0,
            matrix_bytes: infos.iter().take(nlev - 1).map(|l| l.value_bytes).sum(),
            insurance_bytes: levels.iter().map(Level::insurance_bytes).sum(),
            levels: infos,
            promotions: Vec::new(),
            repairs: Vec::new(),
            shift_decision,
        };

        Ok(Mg {
            levels,
            coarse_grid: *coarsest.grid(),
            coarse_lu,
            coarse_f: vec![Pr::ZERO; cn],
            coarse_x64: vec![0.0; cn],
            coarse_s64: vec![0.0; cn],
            finest_scale,
            ws,
            config,
            info,
            cycles: Arc::new(AtomicUsize::new(0)),
        })
    }

    /// Hierarchy summary (complexities, per-level precisions).
    pub fn info(&self) -> &MgInfo {
        &self.info
    }

    /// The configuration the hierarchy was built with.
    pub fn config(&self) -> &MgConfig {
        &self.config
    }

    /// Number of levels including the coarsest direct-solve level.
    pub fn num_levels(&self) -> usize {
        self.levels.len() + 1
    }

    /// Runs one multigrid cycle with the right-hand side already loaded
    /// into the finest level's `f`, leaving the result in the finest `u`
    /// (Algorithm 3 for the V-cycle; W/F recurse per [`Cycle`]).
    fn vcycle(&mut self) {
        if self.levels.is_empty() {
            // Degenerate single-level hierarchy: direct solve.
            self.coarse_solve_from_own_f();
            return;
        }
        // A preconditioner application starts from a zero iterate.
        self.cycle_at(0, self.config.cycle, true);
    }

    /// Recursive γ-cycle at level `i`. `zero_guess` is a fact the
    /// recursion knows, not an option: `u_i` is zero on a level's first
    /// visit in a cycle (every V visit, the first of a W or F pair) and
    /// carries the first visit's result on the second (that is what makes
    /// γ = 2 a W-cycle). On a first visit `u_i` is never read, so nothing
    /// zero-fills it, the pre-smoother skips the half of its first pass
    /// that would multiply by zeros, and after a single forward
    /// Gauss–Seidel sweep the residual is `−U u` (DESIGN.md §8.4). All
    /// vectors come from the preallocated workspace arena — this path
    /// performs no allocation.
    fn cycle_at(&mut self, i: usize, cycle: Cycle, zero_guess: bool) {
        let nl = self.levels.len();
        let (smoother, nu1, nu2) = (self.config.smoother, self.config.nu1, self.config.nu2);
        {
            let mut b = self.ws.level(i);
            let level = &self.levels[i];
            level.scale_rhs(&mut b);
            let lower_solved = level.smooth(smoother, nu1, false, zero_guess, &mut b);
            level.compute_residual(lower_solved, &mut b);
        }
        if i + 1 < nl {
            let gf = self.levels[i].grid;
            let gc = self.levels[i + 1].grid;
            {
                let (fine, coarse) = self.ws.level_pair(i, i + 1);
                restrict(&gf, &gc, fine.r, coarse.f);
            }
            match cycle {
                Cycle::V => self.cycle_at(i + 1, Cycle::V, true),
                Cycle::W => {
                    self.cycle_at(i + 1, Cycle::W, true);
                    self.cycle_at(i + 1, Cycle::W, false);
                }
                Cycle::F => {
                    // F-cycle: one F-visit followed by one V-visit.
                    self.cycle_at(i + 1, Cycle::F, true);
                    self.cycle_at(i + 1, Cycle::V, false);
                }
            }
            let (fine, coarse) = self.ws.level_pair(i, i + 1);
            prolong_add(&gf, &gc, coarse.u, fine.u);
        } else {
            // Coarsest: restrict into the direct-solve buffers and solve
            // exactly (repeating it would be a no-op, so γ is irrelevant
            // here).
            let gf = self.levels[i].grid;
            {
                let b = self.ws.level(i);
                restrict(&gf, &self.coarse_grid, b.r, &mut self.coarse_f);
            }
            self.coarse_solve_from_own_f();
            for (cf, &x) in self.coarse_f.iter_mut().zip(&self.coarse_x64) {
                *cf = Pr::from_f64(x);
            }
            let b = self.ws.level(i);
            prolong_add(&gf, &self.coarse_grid, &self.coarse_f, b.u);
        }
        let mut b = self.ws.level(i);
        self.levels[i].smooth(smoother, nu2, true, false, &mut b);
    }

    fn coarse_solve_from_own_f(&mut self) {
        for (x, &f) in self.coarse_x64.iter_mut().zip(&self.coarse_f) {
            *x = f.to_f64();
        }
        self.coarse_lu.solve(&mut self.coarse_x64, &mut self.coarse_s64);
    }

    /// Preconditioner application in the computation precision:
    /// `e ≈ A⁻¹ r` via one V-cycle.
    ///
    /// When the [`crate::RecoveryPolicy`] is enabled, a non-finite (±∞/NaN)
    /// result triggers a storage promotion of the implicated level (see
    /// [`Insured::promote_level`]; never level 0 of a bare `Mg`) and the
    /// cycle re-runs, bounded by the promotion budget. The scan rides on
    /// the pass that writes `e`, so healthy levels pay nothing for it.
    ///
    /// # Panics
    /// Panics on dimension mismatch.
    pub fn apply_pr(&mut self, r: &[Pr], e: &mut [Pr]) {
        Insured { mg: self, lent: None }.apply(r, e);
    }

    /// Truncates `r` into the finest right-hand side — through `S⁻¹` under
    /// scale-then-setup, where the hierarchy approximates `Ã⁻¹` with
    /// `Ã = S⁻¹AS⁻¹` and `A⁻¹ r = S⁻¹ Ã⁻¹ (S⁻¹ r)`.
    fn load_rhs<K: Scalar>(&mut self, r: &[K]) {
        let f: &mut [Pr] =
            if self.levels.is_empty() { &mut self.coarse_f } else { self.ws.level(0).f };
        match &self.finest_scale {
            Some(sv) => {
                for ((fi, &ri), &si) in f.iter_mut().zip(r).zip(&sv.s_inv) {
                    *fi = Pr::from_f64(ri.to_f64()) * si;
                }
            }
            None => {
                for (fi, &ri) in f.iter_mut().zip(r) {
                    *fi = Pr::from_f64(ri.to_f64());
                }
            }
        }
    }

    /// One unguarded cycle on the loaded right-hand side; widens the
    /// result into `z` and reports whether every entry was finite.
    fn cycle_into<K: Scalar>(&mut self, z: &mut [K]) -> bool {
        self.cycles.fetch_add(1, Ordering::Relaxed);
        self.vcycle();
        let s_inv = self.finest_scale.as_ref().map(|sv| sv.s_inv.as_slice());
        if self.levels.is_empty() {
            // Single-level: the direct solve left its answer in f64.
            widen_result(self.coarse_x64.iter().map(|&x| Pr::from_f64(x)), s_inv, z)
        } else {
            widen_result(self.ws.level(0).u.iter().copied(), s_inv, z)
        }
    }

    /// Bytes held by the preallocated solve workspace (the per-level
    /// V-cycle buffers), carved once at setup. With
    /// [`MgInfo::matrix_bytes`] and [`MgInfo::insurance_bytes`] it is the
    /// hierarchy's footprint but for the smoother data and the coarse LU.
    pub fn workspace_bytes(&self) -> usize {
        self.ws.bytes()
    }

    /// Number of finest-level unknowns.
    pub fn rows(&self) -> usize {
        match self.levels.first() {
            Some(l) => l.grid.unknowns(),
            None => self.coarse_grid.unknowns(),
        }
    }

    /// The promotions that have fired so far (same data as
    /// `info().promotions`).
    pub fn promotions(&self) -> &[PromotionEvent] {
        &self.info.promotions
    }

    /// Total cycle applications so far, including re-runs the
    /// self-healing `apply_pr` loop performed after a promotion.
    pub fn vcycles(&self) -> usize {
        self.cycles.load(Ordering::Relaxed)
    }

    /// The live V-cycle counter behind [`Mg::vcycles`]. An outer runtime
    /// can clone the `Arc` into its budget guard and enforce a per-solve
    /// V-cycle cap from the solver's per-iteration control hook, without
    /// the hierarchy knowing anything about budgets.
    pub fn cycle_counter(&self) -> Arc<AtomicUsize> {
        Arc::clone(&self.cycles)
    }

    /// One-pass classification of level `level`'s stored values
    /// (`None` for the coarsest/direct level and out-of-range indices).
    pub fn scan_level(&self, level: usize) -> Option<MatrixScan> {
        self.levels.get(level).map(|l| l.stored.scan())
    }

    /// This hierarchy insured by `a`, the FP64 operator it was set up from
    /// (panics if `a` is not the finest level's size): level 0 keeps no FP32
    /// copy of what whoever solves holds, so only this view can promote it.
    pub fn insured<'a>(&'a mut self, a: &'a SgDia<f64>) -> Insured<'a, Pr> {
        assert_eq!(a.rows(), self.rows(), "the lent operator is the finest level's");
        Insured { mg: self, lent: Some(a) }
    }

    /// Mutable access to a level's stored matrix, for fault-injection
    /// harnesses only.
    #[cfg(feature = "fault-inject")]
    pub fn stored_mut(&mut self, level: usize) -> Option<&mut StoredMatrix> {
        self.levels.get_mut(level).map(|l| &mut l.stored)
    }

    /// The localized repairs that have fired so far (same data as
    /// `info().repairs`).
    pub fn repairs(&self) -> &[RepairEvent] {
        &self.info.repairs
    }

    /// Verifies every sentineled level against its setup-time sentinels
    /// and returns the corrupted ones as `(level, plane mismatches)`.
    ///
    /// The sweep reads every stored coefficient once — comparable memory
    /// traffic to a V-cycle's matrix pass — so it charges one V-cycle to
    /// the shared counter; an outer session budget therefore accounts for
    /// integrity work exactly like solve work, and a deadline can
    /// interrupt a chaos run that repairs too enthusiastically.
    pub fn verify_integrity(&self) -> Vec<(usize, Vec<TapMismatch>)> {
        self.cycles.fetch_add(1, Ordering::Relaxed);
        let mut corrupted = Vec::new();
        for (i, (l, info)) in self.levels.iter().zip(&self.info.levels).enumerate() {
            let Some(sentinels) = info.sentinels.as_ref() else { continue };
            let mismatches = l.stored.verify_sentinels(sentinels);
            if !mismatches.is_empty() {
                corrupted.push((i, mismatches));
            }
        }
        corrupted
    }

    /// One full ABFT round: verify all sentinels, then repair every
    /// corrupted level that retains its high-precision parent. Returns the
    /// repairs performed (empty when everything matched, nothing was
    /// repairable, or sentinels are off).
    pub fn verify_and_repair(&mut self, trigger: RepairTrigger) -> Vec<RepairEvent> {
        if !self.config.integrity.sentinels {
            return Vec::new();
        }
        let corrupted = self.verify_integrity();
        let mut events = Vec::new();
        for (level, mismatches) in corrupted {
            let taps: Vec<usize> = mismatches.iter().map(|m| m.tap).collect();
            if let Some(event) = self.repair_level(level, taps, trigger) {
                events.push(event);
            }
        }
        events
    }

    /// Localized repair of one corrupted level: re-truncates its stored
    /// matrix from the retained high-precision parent through the same
    /// deterministic store path setup used, which reproduces the
    /// uncorrupted planes *bit-identically* — no other level is touched
    /// and nothing is rebuilt. `taps` records which planes the sentinel
    /// sweep flagged (for the event log). Returns `None` when the level
    /// has no retained parent, the repair budget is spent, or the
    /// re-truncation fails.
    pub fn repair_level(
        &mut self,
        level: usize,
        taps: Vec<usize>,
        trigger: RepairTrigger,
    ) -> Option<RepairEvent> {
        if self.info.repairs.len() >= self.config.integrity.max_repairs {
            return None;
        }
        let (layout, policy) = (self.config.layout, store_policy(&self.config));
        let lvl = self.levels.get_mut(level)?;
        let precision = lvl.stored.precision();
        let parent = lvl.parent.as_ref()?;
        let store =
            StoredMatrix::store_level(parent, None, precision, layout, policy, false, false);
        lvl.stored = store.ok()?.matrix;
        let event = RepairEvent { level, taps, precision, trigger };
        self.info.repairs.push(event.clone());
        Some(event)
    }
}

/// Writes the cycle's result `e` (times `S⁻¹` under scale-then-setup)
/// to `z` in the caller's precision; true when every entry was finite.
fn widen_result<Pr: Scalar, K: Scalar>(
    e: impl Iterator<Item = Pr>,
    s_inv: Option<&[Pr]>,
    z: &mut [K],
) -> bool {
    let mut finite = true;
    let mut put = |zi: &mut K, e: Pr| {
        finite &= e.is_finite();
        *zi = K::from_f64(e.to_f64());
    };
    match s_inv {
        Some(s_inv) => z.iter_mut().zip(e).zip(s_inv).for_each(|((zi, e), &si)| put(zi, e * si)),
        None => z.iter_mut().zip(e).for_each(|(zi, e)| put(zi, e)),
    }
    finite
}

/// The retained FP64 Galerkin chain (Algorithm 1 lines 1–3): the finest
/// operator plus every coarse triple-product operator, *before* any
/// scaling or truncation. This is the expensive, reusable part of setup
/// — [`Retained`](crate::reuse::Retained) keeps it and re-runs only the
/// cheap per-level scale-and-truncate ([`Mg::setup_from_chain`]), after
/// swapping in a drifted finest operator over the kept coarse tail when
/// the drift asks for that.
///
/// Only value-preserving configurations are chain-compatible: under
/// `ScaleStrategy::ScaleThenSetup` the finest matrix is rescaled before
/// the triple products run, baking one request's scaling into every
/// coarse operator, so [`GalerkinChain::build`] refuses that strategy
/// with a typed error instead of caching a single-use artifact.
#[derive(Clone, Debug)]
pub struct GalerkinChain {
    mats: Vec<SgDia<f64>>,
}

impl GalerkinChain {
    /// Builds the FP64 chain for `a` under `config` (coarsening policy,
    /// level bounds, and layout are honored; storage/scaling knobs do
    /// not affect the chain).
    ///
    /// # Errors
    /// [`SetupError::ChainIncompatible`] for `ScaleThenSetup` configs;
    /// [`SetupError::InvalidConfig`]/[`SetupError::TooManyComponents`]
    /// as in [`Mg::setup`].
    pub fn build(a: &SgDia<f64>, config: &MgConfig) -> Result<Self, SetupError> {
        config.validate()?;
        if a.grid().components > 8 {
            return Err(SetupError::TooManyComponents);
        }
        reject_prescaled(config)?;
        let finest = a.to_layout(config.layout);
        let mut mats = coarse_chain(&finest, config);
        mats.insert(0, finest);
        Ok(GalerkinChain { mats })
    }

    /// Number of levels in the chain (≥ 1).
    pub fn len(&self) -> usize {
        self.mats.len()
    }

    /// Always false — the chain holds at least the finest operator.
    pub fn is_empty(&self) -> bool {
        self.mats.is_empty()
    }

    /// The finest-level operator.
    pub fn finest(&self) -> &SgDia<f64> {
        &self.mats[0]
    }

    /// Every level's operator, finest first.
    pub fn matrices(&self) -> &[SgDia<f64>] {
        &self.mats
    }

    /// Total bytes of FP64 value data the chain keeps resident — what a
    /// hierarchy cache entry pays to retain it.
    pub fn value_bytes(&self) -> usize {
        self.mats.iter().map(|m| m.value_bytes()).sum()
    }

    /// Replaces the finest operator in place (same geometry required),
    /// keeping the coarse tail: after this, [`Mg::setup_from_chain`]
    /// serves the drifted operator over the lagged Galerkin levels.
    ///
    /// # Errors
    /// [`SetupError::ChainIncompatible`] on a geometry mismatch.
    pub(crate) fn swap_finest(
        &mut self,
        finest: &SgDia<f64>,
        config: &MgConfig,
    ) -> Result<(), SetupError> {
        self.check_finest_geometry(finest)?;
        let (own, new) = (&mut self.mats[0], finest.in_layout(config.layout));
        if (own.layout(), own.pattern()) == (new.layout(), new.pattern()) {
            // Same shape: overwrite in place rather than fault in a
            // second full-size buffer.
            own.data_mut().copy_from_slice(new.data());
        } else {
            *own = new.into_owned();
        }
        Ok(())
    }

    /// Checks that `finest` matches the chain's finest-level geometry.
    fn check_finest_geometry(&self, finest: &SgDia<f64>) -> Result<(), SetupError> {
        let own = self.finest();
        if finest.grid() != own.grid() || finest.pattern().len() != own.pattern().len() {
            return Err(SetupError::ChainIncompatible {
                reason: format!(
                    "finest operator geometry {}×{}×{} ({} taps) does not match the chain's \
                     {}×{}×{} ({} taps)",
                    finest.grid().nx,
                    finest.grid().ny,
                    finest.grid().nz,
                    finest.pattern().len(),
                    own.grid().nx,
                    own.grid().ny,
                    own.grid().nz,
                    own.pattern().len(),
                ),
            });
        }
        Ok(())
    }
}

/// Refuses configs whose chain would embed a finest-level scaling.
fn reject_prescaled(config: &MgConfig) -> Result<(), SetupError> {
    if config.scale == ScaleStrategy::ScaleThenSetup {
        return Err(SetupError::ChainIncompatible {
            reason: "ScaleThenSetup bakes a finest-level scaling into the Galerkin chain, \
                     making it single-use; use SetupThenScale for chain reuse"
                .to_string(),
        });
    }
    Ok(())
}

/// The Galerkin coarsening loop (Algorithm 1 lines 1–3): the RAP triple
/// products below `finest`, down to the configured coarsest size.
fn coarse_chain(finest: &SgDia<f64>, config: &MgConfig) -> Vec<SgDia<f64>> {
    let mut chain: Vec<SgDia<f64>> = Vec::new();
    while chain.len() + 1 < config.max_levels.max(1) {
        let last = chain.last().unwrap_or(finest);
        if last.grid().is_coarsest(config.min_coarse_cells) {
            break;
        }
        let axes = select_axes(last, config.coarsening);
        if last.grid().coarsen_axes(axes) == *last.grid() {
            break; // nothing left to coarsen
        }
        chain.push(galerkin_rap_axes(last, axes));
    }
    chain
}

/// Chooses the coarsening axes for one level: all of them for full
/// coarsening; under semicoarsening, those whose face-coupling strength
/// is within `threshold` of the strongest (always at least the strongest
/// coarsenable axis, so the hierarchy makes progress).
fn select_axes(a: &SgDia<f64>, policy: Coarsening) -> (bool, bool, bool) {
    let grid = a.grid();
    let can = [grid.nx > 1, grid.ny > 1, grid.nz > 1];
    match policy {
        Coarsening::Full => (can[0], can[1], can[2]),
        Coarsening::Semi { threshold } => {
            let s = directional_strength(a);
            let smax = (0..3).filter(|&ax| can[ax]).map(|ax| s[ax]).fold(0.0f64, f64::max);
            if smax == 0.0 {
                return (can[0], can[1], can[2]);
            }
            let mut axes = [false; 3];
            for ax in 0..3 {
                axes[ax] = can[ax] && s[ax] >= threshold * smax;
            }
            if !axes.iter().any(|&b| b) {
                return (can[0], can[1], can[2]);
            }
            (axes[0], axes[1], axes[2])
        }
    }
}

/// The truncation policy of the store path — none for the
/// `ScaleStrategy::None` ablation, which deliberately keeps the unguarded
/// IEEE conversion (overflow to ±∞) so the `K64P32D16-none` failure mode
/// of Fig. 6 stays reproducible.
fn store_policy(config: &MgConfig) -> Option<TruncationPolicy> {
    (config.scale != ScaleStrategy::None).then_some(config.truncation)
}

/// Builds level `level` from `ai` at storage precision `prec` (Algorithm 1
/// lines 5–13): the level the cycle runs on, with its insurance, and what
/// its store measured.
///
/// `auto` makes the level an `AutoShift` candidate (`prec` is FP16): the
/// verdict ([`audit_rejects`], or a level Theorem 4.1 cannot scale) is read
/// off this store's own audit and recorded in the decision; a rejected
/// level is built again at the coarse precision and becomes the switch.
fn build_level<Pr: Scalar>(
    ai: &SgDia<f64>,
    mut prec: Precision,
    config: &MgConfig,
    level: usize,
    auto: Option<(&mut ShiftDecision, Precision)>,
) -> Result<(Level<Pr>, LevelInfo), SetupError> {
    // Promotion material of a narrow level: the *unscaled* operator in FP32
    // — but for a level 0 stored from the caller's own operator, which
    // whoever solves holds and lends ([`Mg::insured`]).
    let lent = level == 0 && config.scale != ScaleStrategy::ScaleThenSetup;
    let keep_source = |p: Precision| config.recovery.enabled && p.bytes() == 2 && !lent;
    let (layout, sentinels, policy) =
        (config.layout, config.integrity.sentinels, store_policy(config));
    let store = |s_inv: Option<&[f64]>, p: Precision| {
        StoredMatrix::store_level(ai, s_inv, p, layout, policy, sentinels, keep_source(p))
    };
    // Direct truncation (line 11) in one read — also the path for `None`
    // and for all levels of scale-then-setup — unless setup-then-scale's
    // sweep meets an entry out of range ("need to scale"): only then is the
    // level planned (`G_max`) and stored scaled (lines 6–9).
    let unscaled = if config.scale == ScaleStrategy::SetupThenScale {
        let k = keep_source(prec);
        StoredMatrix::store_in_range(ai, prec, layout, policy, sentinels, k).transpose()
    } else {
        Some(store(None, prec))
    };
    let decide = || ScalePlan::decide(ai, config.g_choice, prec.finite_max());
    let plan = unscaled.is_none().then(decide).transpose();
    let unscalable = plan.is_err();
    let plan = plan.unwrap_or_else(|_| {
        // Theorem 4.1 requires positive diagonals; deep Galerkin
        // levels of nonsymmetric operators can violate that. Fall
        // back to a storage precision wide enough to hold the level
        // unscaled — the coarse-level analog of `shift_levid` (§4.3),
        // costing almost nothing because coarse levels are small
        // (guideline 3).
        let (max, _) = ai.abs_max();
        prec = if max < Precision::F32.finite_max() { Precision::F32 } else { Precision::F64 };
        None
    });
    let s_inv = plan.as_ref().map(ScalePlan::s_inv);
    // A scaled level's second read: scaled, truncated, audited, sentineled.
    let store = unscaled.unwrap_or_else(|| store(s_inv, prec));
    // Smoother data comes from the high-precision matrix (line 13),
    // scaled as it is read.
    let dinv = BlockDiagInv::from_scaled(ai, s_inv);
    if let Some((decision, coarse)) = auto {
        // Where the level cannot be scaled, or the policy refused the
        // store, the FP16 audit the store did not take is taken here. A
        // rejected candidate is built again at the coarse precision, so
        // its FP16 errors (a singular block, a refused store) are not its
        // to report: both are held until the verdict is in.
        let audit = match &store {
            Ok(store) if !unscalable => store.audit.clone(),
            _ => audit::audit_scaled(ai, s_inv, Precision::F16),
        };
        let rejected = unscalable || audit_rejects(&audit, decision.threshold);
        decision.per_level.push(audit);
        if rejected {
            decision.chosen = level;
            return build_level(ai, coarse, config, level, None);
        }
    }
    let dinv = dinv.map_err(|c| SetupError::SingularDiagonalBlock { level, cell: c })?;
    let store = store.map_err(|error| SetupError::Truncation { level, error })?;
    // The scaled f64 operator exists only for who reads it whole: ILU(0),
    // the Chebyshev bound, a retained repair parent (a wide fallback
    // precision has nothing to repair).
    let retain_parent = config.integrity.retain_parents && prec.bytes() == 2;
    let reads_whole = matches!(
        config.smoother,
        crate::SmootherKind::Ilu0 | crate::SmootherKind::Chebyshev { .. }
    );
    let scaled = plan.as_ref().filter(|_| retain_parent || reads_whole).map(|p| p.scaled(ai));
    let src = scaled.as_ref().unwrap_or(ai);
    let ilu = build_ilu(src, prec, config, level)?;
    let cheb_lambda = estimate_lambda_if_cheb(src, config);
    let scale = plan.as_ref().map(ScalePlan::vectors::<Pr>);
    let StoredLevel { matrix: stored, audit, sentinels, finite, source } = store;
    let grid = *ai.grid();
    let info = LevelInfo {
        dims: (grid.nx, grid.ny, grid.nz),
        unknowns: ai.rows(),
        nnz: ai.nnz(),
        precision: prec,
        scaled: scale.is_some(),
        g: scale.as_ref().map(|s| s.g),
        finite,
        value_bytes: stored.value_bytes(),
        audit: Some(audit),
        g_clamped_from: plan.and_then(|plan| plan.g_clamped_from),
        sentinels,
    };
    let parent = retain_parent.then(|| scaled.unwrap_or_else(|| ai.clone()));
    let par = config.par;
    Ok((Level { grid, stored, scale, dinv, ilu, cheb_lambda, par, source, parent }, info))
}

/// Upper bound on `λmax(D⁻¹A)` for the Chebyshev smoother: the
/// Gershgorin row-sum bound `max_u Σ_j |a_uj| / a_uu`, computed on the
/// high-precision level matrix during setup. A *rigorous* upper bound is
/// required — Chebyshev polynomials grow exponentially outside their
/// interval, so an underestimated λmax (the failure mode of a few power
/// iterations) makes the smoother amplify the top modes.
fn estimate_lambda_if_cheb(ai: &SgDia<f64>, config: &MgConfig) -> Option<f64> {
    if !matches!(config.smoother, crate::SmootherKind::Chebyshev { .. }) {
        return None;
    }
    let grid = ai.grid();
    let diag = ai.extract_diagonal();
    // Row sums plane by plane: out-of-grid entries are stored zeros.
    let soa = ai.in_layout(Layout::Soa);
    let mut rowsum = vec![0.0f64; ai.rows()];
    for (t, tap) in ai.pattern().taps().iter().enumerate() {
        for (s, v) in rowsum[grid.field(tap.cout as usize)].iter_mut().zip(soa.tap_slice(t)) {
            *s += v.abs();
        }
    }
    let mut lmax: f64 = 0.0;
    for (u, &s) in rowsum.iter().enumerate() {
        let d = diag[u].abs().max(1e-300);
        lmax = lmax.max(s / d);
    }
    Some(lmax.max(1e-300))
}

/// Factors ILU(0) from the (possibly scaled) high-precision level matrix
/// and truncates L̃/Ũ to the level's storage precision (Algorithm 1 line
/// 13's smoother setup). `None` when the ILU smoother is not configured
/// or the level is a vector PDE (Gauss–Seidel fallback).
fn build_ilu(
    ai: &SgDia<f64>,
    prec: Precision,
    config: &MgConfig,
    level: usize,
) -> Result<Option<(StoredMatrix, StoredMatrix)>, SetupError> {
    if config.smoother != crate::SmootherKind::Ilu0 || ai.grid().components != 1 {
        return Ok(None);
    }
    let f = fp16mg_sgdia::ilu::ilu0(ai)
        .map_err(|c| SetupError::SingularDiagonalBlock { level, cell: c })?;
    let l = StoredMatrix::truncate(&f.l, prec, config.layout);
    let u = StoredMatrix::truncate(&f.u, prec, config.layout);
    Ok(Some((l, u)))
}

/// A hierarchy lent the FP64 operator it was set up from ([`Mg::insured`]),
/// its level 0's promotion material; a bare `Mg` runs as one lent none.
pub struct Insured<'a, Pr: Scalar = f32> {
    mg: &'a mut Mg<Pr>,
    lent: Option<&'a SgDia<f64>>,
}

impl<K: Scalar, Pr: Scalar> Preconditioner<K> for Insured<'_, Pr> {
    /// [`Mg::apply_pr`] with the boundary in any scalar `K` (Algorithm 2
    /// lines 4 and 6): `r` is truncated straight into the finest level's
    /// right-hand side and `z` is widened straight from its iterate, so
    /// the `K` ↔ `Pr` conversion costs no vector of its own.
    fn apply(&mut self, r: &[K], z: &mut [K]) {
        let n = self.mg.rows();
        assert_eq!(r.len(), n, "r length");
        assert_eq!(z.len(), n, "z length");
        self.mg.load_rhs(r);
        let mut finite = self.mg.cycle_into(z);
        let every = self.mg.config.integrity.check_every;
        if every > 0 && self.mg.vcycles().is_multiple_of(every) {
            // Periodic ABFT cadence: verify the sentinels and repair in
            // place. The sweep charges the cycle counter itself, so
            // session budgets account for the integrity work.
            self.mg.verify_and_repair(RepairTrigger::Periodic);
        }
        if !self.mg.config.recovery.enabled {
            return;
        }
        // The cycle leaves the loaded right-hand side intact, so a re-run
        // needs no reload.
        while !finite {
            // Localized repair first: if the non-finite output traces to a
            // corrupted plane with a retained parent, re-truncation is
            // cheaper than promotion and keeps the level at its storage
            // precision.
            if self.mg.verify_and_repair(RepairTrigger::NonFiniteOutput).is_empty()
                && self.promote_suspect(PromotionReason::NonFiniteOutput).is_none()
            {
                // Budget exhausted or nothing left to promote: surface the
                // non-finite output to the caller (the solver's own
                // NonFiniteResidual breakdown will catch it).
                return;
            }
            finite = self.mg.cycle_into(z);
        }
    }

    fn on_health_anomaly(&mut self) -> usize {
        Preconditioner::<K>::on_health_anomaly(self.mg)
    }
}

impl<Pr: Scalar> Insured<'_, Pr> {
    /// Whether level `i` is 16-bit with promotion material: its own FP32
    /// source, or — level 0 stored unscaled — the lent operator.
    fn insures(&self, i: usize) -> bool {
        let lendable = i == 0 && self.mg.finest_scale.is_none() && self.lent.is_some();
        let narrow = |l: &Level<Pr>| l.stored.precision().bytes() == 2;
        self.mg.levels.get(i).is_some_and(|l| narrow(l) && (l.source.is_some() || lendable))
    }

    /// True while recovery is on, the promotion budget has headroom, and
    /// some 16-bit level has promotion material (a promotion leaves none).
    pub fn can_promote(&self) -> bool {
        let recovery = &self.mg.config.recovery;
        recovery.enabled
            && self.mg.info.promotions.len() < recovery.max_promotions
            && (0..self.mg.levels.len()).any(|i| self.insures(i))
    }

    /// Promotes one level after the outer solve stagnated above the FP16
    /// unit-roundoff floor: raising `shift_levid` (§4.3) at run time, as
    /// coarse-level underflow is the canonical precision-attributable stall.
    pub fn promote_for_stagnation(&mut self) -> Option<PromotionEvent> {
        self.promote_suspect(PromotionReason::Stagnation)
    }

    /// Promotes the first level holding a non-finite stored value — none,
    /// if it has no material: widening a healthy one cannot clear it — or
    /// else the *coarsest* 16-bit level with material.
    fn promote_suspect(&mut self, reason: PromotionReason) -> Option<PromotionEvent> {
        let corrupt = self.mg.levels.iter().position(|l| !l.stored.scan().all_finite());
        let coarsest = || (0..self.mg.levels.len()).rev().find(|&i| self.insures(i));
        self.promote_level(corrupt.or_else(coarsest)?, reason)
    }

    /// Rebuilds 16-bit level `level` at FP32 from the FP32 values it was
    /// stored from (re-scaled, should FP32 not hold it, with `G` tightened
    /// by `g_tighten`), logged in [`MgInfo::promotions`]. `None` when it is
    /// not promotable (wide, no material, budget spent) or the rebuild fails.
    pub fn promote_level(
        &mut self,
        level: usize,
        reason: PromotionReason,
    ) -> Option<PromotionEvent> {
        if !self.can_promote() || !self.insures(level) {
            return None;
        }
        let mg = &mut *self.mg;
        let lvl = &mg.levels[level];
        // The FP32 values the level was stored from, widened: its source, or
        // the lent operator narrowed as the store pass narrows a source.
        let a64 = match &lvl.source {
            Some(source) => source.convert(),
            None => {
                let mut a64 = self.lent?.to_layout(mg.config.layout);
                a64.data_mut().iter_mut().for_each(|v| *v = f64::from(*v as f32));
                a64
            }
        };
        let (from, corrupt_entries) =
            (lvl.stored.precision(), lvl.stored.scan().total.non_finite());
        let mut cfg = mg.config.clone();
        if let GChoice::Fixed(g) = cfg.g_choice {
            cfg.g_choice = GChoice::Fixed(g * cfg.recovery.g_tighten);
        }
        // The widened level replaces the old one wholesale: new stored
        // bits, sentinels retaken over the new format, and neither source
        // nor repair parent (an FP32 level keeps no insurance).
        let (widened, info) = build_level::<Pr>(&a64, Precision::F32, &cfg, level, None).ok()?;
        let event = PromotionEvent { level, from, to: info.precision, reason, corrupt_entries };
        let old = std::mem::replace(&mut mg.levels[level], widened);
        mg.info.insurance_bytes -= old.insurance_bytes();
        mg.info.matrix_bytes += info.value_bytes;
        mg.info.matrix_bytes -= std::mem::replace(&mut mg.info.levels[level], info).value_bytes;
        mg.info.promotions.push(event.clone());
        Some(event)
    }
}

impl<K: Scalar, Pr: Scalar> Preconditioner<K> for Mg<Pr> {
    fn apply(&mut self, r: &[K], z: &mut [K]) {
        Insured { mg: self, lent: None }.apply(r, z);
    }

    /// A solver breakdown or stagnation may be silent storage corruption
    /// wearing a numerical costume: verify the sentinels and repair what
    /// has a retained parent, so the runtime's cheap retry/repair rungs
    /// can succeed instead of escalating to a full rebuild.
    fn on_health_anomaly(&mut self) -> usize {
        if !self.config.integrity.verify_on_anomaly {
            return 0;
        }
        self.verify_and_repair(RepairTrigger::Anomaly).len()
    }
}

#[cfg(test)]
pub(crate) mod tests;
