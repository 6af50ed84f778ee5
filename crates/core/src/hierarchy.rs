//! The multigrid hierarchy: Algorithm 1 setup, Algorithm 3 V-cycle, and
//! the Algorithm 2 preconditioner interface.

use std::borrow::Cow;

use fp16mg_fp::{Precision, Scalar};
use fp16mg_grid::Grid3;
use fp16mg_krylov::Preconditioner;
use fp16mg_sgdia::audit::{RangeAudit, StoredLevel, TruncationError, TruncationPolicy};
use fp16mg_sgdia::kernels::BlockDiagInv;
use fp16mg_sgdia::scaling::{self, ScalePlan, ScaleVectors};
use fp16mg_sgdia::sentinel::{MatrixSentinels, TapMismatch};
use fp16mg_sgdia::SgDia;

use fp16mg_sgdia::scaling::GChoice;
use fp16mg_sgdia::scan::MatrixScan;

use crate::coarsen::{directional_strength, galerkin_rap_axes};
use crate::config::{Coarsening, ConfigError, MgConfig, ScaleStrategy};
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
    /// A smoothed level's diagonal must be positive and finite; this unknown's
    /// is not (level 0, or the chain's last level, too large for the dense LU).
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
    /// overflowed (hostile dimensions) or exceeded the arena ceiling, or
    /// the coarsest level has more than [`DenseLu::MAX_UNKNOWNS`] unknowns
    /// (a `max_levels` too small for the grid).
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

/// Why a level was promoted to a wider storage precision: what caught it
/// corrupted, or a caller's request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PromotionReason {
    /// A scheduled sentinel check flagged the level (the time-stepping
    /// simulator's check before every solve).
    Periodic,
    /// The Krylov solver reported a health anomaly through the
    /// preconditioner hook, and the sentinel check it ran flagged the level.
    Anomaly,
    /// The V-cycle output contained ±∞/NaN and this level was implicated:
    /// its sentinels flagged it, or — none did — it held a non-finite stored
    /// value or was the coarsest 16-bit level (the §4.3-style suspect).
    NonFiniteOutput,
    /// Explicit caller request.
    Manual,
}

impl core::fmt::Display for PromotionReason {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            PromotionReason::Periodic => write!(f, "periodic check"),
            PromotionReason::Anomaly => write!(f, "solver health anomaly"),
            PromotionReason::NonFiniteOutput => write!(f, "non-finite V-cycle output"),
            PromotionReason::Manual => write!(f, "manual request"),
        }
    }
}

/// One runtime storage-precision promotion, logged in
/// [`MgInfo::promotions`]: the one record of a widened level, whether it
/// was mended or asked for.
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
    /// The coefficient planes (taps) the sentinels flagged, empty when no
    /// sentinel check implicated the level.
    pub taps: Vec<usize>,
}

impl core::fmt::Display for PromotionEvent {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "level {} promoted {:?} -> {:?} ({}; {} corrupt entries; corrupt taps {:?})",
            self.level, self.from, self.to, self.reason, self.corrupt_entries, self.taps
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
    /// (`None` for the coarsest/direct level).
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
    /// Bytes of FP32 promotion sources kept beside.
    pub insurance_bytes: usize,
    /// Runtime storage-precision promotions, in the order they fired, one
    /// per widened level (empty for a healthy solve).
    pub promotions: Vec<PromotionEvent>,
    /// Always empty: a corrupted level is mended by widening it, logged in
    /// `promotions`. Kept for readers of the per-hierarchy repair count.
    pub repairs: Vec<PromotionEvent>,
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
                .map_err(|e| non_positive_at(0, e))?;
            finest_scale = Some(sv);
        }
        let coarse = coarse_chain(&finest, &config)?;
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
    /// stored levels of a chain whose finest operator was never swapped
    /// are bit-identical to a full [`Mg::setup`] with the same inputs.
    /// After a swap the coarse levels are stored, and the coarsest
    /// factored, from the carried `W_l A_l W_l` ([`GalerkinChain`]).
    ///
    /// # Errors
    /// [`SetupError::ChainIncompatible`] for `ScaleThenSetup` configs
    /// (the chain would embed a finest scaling, making it single-use);
    /// otherwise see [`SetupError`].
    pub fn setup_from_chain(chain: &GalerkinChain, config: &MgConfig) -> Result<Self, SetupError> {
        config.validate()?;
        reject_prescaled(config)?;
        let operators = chain.operators();
        let mats: Vec<&SgDia<f64>> = operators.iter().map(|a| &**a).collect();
        Self::assemble(&mats, None, config.clone())
    }

    /// Algorithm 1 lines 4–14 over an already-built Galerkin chain:
    /// per-level scale-and-truncate at `config.storage.precision_for(l)`,
    /// smoother data, coarsest dense LU.
    fn assemble(
        chain: &[&SgDia<f64>],
        finest_scale: Option<ScaleVectors<Pr>>,
        config: MgConfig,
    ) -> Result<Self, SetupError> {
        // --- Workspace arena and the coarsest dense LU, sized first with
        // checked arithmetic so hostile dimensions fail typed before any
        // level is built. ---
        let nlev = chain.len();
        let coarsest = chain.last().expect("chain holds at least the finest matrix");
        let cn = coarsest.rows();
        if cn > DenseLu::MAX_UNKNOWNS {
            let lu_bytes = |n: usize| (n as u64).saturating_mul(n as u64).saturating_mul(8);
            let (bytes, limit) = (lu_bytes(cn), lu_bytes(DenseLu::MAX_UNKNOWNS));
            return Err(SetupError::AllocTooLarge { what: "coarsest dense LU", bytes, limit });
        }
        let mut level_unknowns = Vec::with_capacity(nlev.saturating_sub(1));
        for ai in chain.iter().take(nlev - 1) {
            level_unknowns.push(checked_unknowns(ai.grid())?);
        }
        let ws = Workspace::for_levels(&level_unknowns)?;

        // --- Per-level scale-and-truncate (lines 4–14). ---
        let mut levels = Vec::with_capacity(nlev - 1);
        let mut infos = Vec::with_capacity(nlev);
        for (i, ai) in chain.iter().enumerate().take(nlev - 1) {
            let (level, info) = build_level(ai, config.storage.precision_for(i), &config, i)?;
            levels.push(level);
            infos.push(info);
        }

        // --- Coarsest level: dense LU of the exact f64 operator. ---
        let coarse_lu = DenseLu::factor(coarsest)
            .map_err(|e| SetupError::SingularCoarseMatrix { pivot: e.column() })?;
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

    /// Runs one V-cycle (Algorithm 3) with the right-hand side already
    /// loaded into the finest level's `f`, leaving the result in the
    /// finest `u`.
    fn vcycle(&mut self) {
        if self.levels.is_empty() {
            // Degenerate single-level hierarchy: direct solve.
            self.coarse_solve_from_own_f();
            return;
        }
        self.cycle_at(0);
    }

    /// The V-cycle from level `i` down. Every visit starts from a zero
    /// iterate — a preconditioner application at the finest level, a
    /// coarse-grid correction below it — so `u_i` is never read: nothing
    /// zero-fills it, the pre-smoother skips the half of its first pass
    /// that would multiply by zeros, and after a single forward
    /// Gauss–Seidel sweep the residual is `−U u` (DESIGN.md §8.4). All
    /// vectors come from the preallocated workspace arena — this path
    /// performs no allocation.
    fn cycle_at(&mut self, i: usize) {
        let nl = self.levels.len();
        let (nu1, nu2) = (self.config.nu1, self.config.nu2);
        {
            let mut b = self.ws.level(i);
            let level = &self.levels[i];
            level.scale_rhs(&mut b);
            let lower_solved = level.smooth(nu1, false, true, &mut b);
            level.compute_residual(lower_solved, &mut b);
        }
        if i + 1 < nl {
            let gf = self.levels[i].grid;
            let gc = self.levels[i + 1].grid;
            {
                let (fine, coarse) = self.ws.level_pair(i, i + 1);
                restrict(&gf, &gc, fine.r, coarse.f);
            }
            self.cycle_at(i + 1);
            let (fine, coarse) = self.ws.level_pair(i, i + 1);
            prolong_add(&gf, &gc, coarse.u, fine.u);
        } else {
            // Coarsest: restrict into the direct-solve buffers and solve
            // exactly.
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
        self.levels[i].smooth(nu2, true, false, &mut b);
    }

    fn coarse_solve_from_own_f(&mut self) {
        for (x, &f) in self.coarse_x64.iter_mut().zip(&self.coarse_f) {
            *x = f.to_f64();
        }
        self.coarse_lu.solve(&mut self.coarse_x64, &mut self.coarse_s64);
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

    /// One-pass classification of level `level`'s stored values
    /// (`None` for the coarsest/direct level and out-of-range indices).
    pub fn scan_level(&self, level: usize) -> Option<MatrixScan> {
        self.levels.get(level).map(|l| l.stored.scan())
    }

    /// This hierarchy insured by `a`, the FP64 operator it preconditions
    /// (panics if `a` is not the finest level's size): level 0 keeps no FP32
    /// copy of what whoever solves holds, so only this view can promote or
    /// mend it.
    pub fn insured<'a>(&'a mut self, a: &'a SgDia<f64>) -> Insured<'a, Pr> {
        assert_eq!(a.rows(), self.rows(), "the lent operator is the finest level's");
        Insured { mg: self, lent: Some(a) }
    }

    /// Mutable access to a level's stored matrix, for fault-injection
    /// harnesses only.
    pub fn stored_mut(&mut self, level: usize) -> Option<&mut StoredMatrix> {
        self.levels.get_mut(level).map(|l| &mut l.stored)
    }

    /// Verifies every sentineled level against its setup-time sentinels
    /// and returns the corrupted ones as `(level, plane mismatches)`.
    ///
    /// The sweep reads every stored coefficient once — comparable memory
    /// traffic to a V-cycle's matrix pass.
    pub fn verify_integrity(&self) -> Vec<(usize, Vec<TapMismatch>)> {
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
/// A swapped-in finest operator carries its diagonal drift into the
/// coarse tail. At build the chain records each coarse level's restricted
/// log-diagonal `L_l = R_l log diag(A₀) / R_l 1` (`R_l` the composite
/// restriction to level `l`); a swap computes `L'_l` from the new finest
/// operator and keeps `w_l = exp(½(L'_l − L_l))`, and the hierarchy is
/// assembled from `W_l A_l W_l` on every coarse level. The weights are a
/// geometric mean of the diagonal ratio over the cells a coarse unknown
/// restricts from, so a uniform drift `m·A₀` gives `m·A_l` — the Galerkin
/// operators of `m·A₀` — and they depend only on the build operator and
/// the current finest one (each with a positive, finite diagonal: the swap
/// refuses any other), never on the swaps in between.
///
/// Only value-preserving configurations are chain-compatible: under
/// `ScaleStrategy::ScaleThenSetup` the finest matrix is rescaled before
/// the triple products run, baking one request's scaling into every
/// coarse operator, so [`GalerkinChain::build`] refuses that strategy
/// with a typed error instead of caching a single-use artifact.
#[derive(Clone, Debug)]
pub struct GalerkinChain {
    mats: Vec<SgDia<f64>>,
    /// `None` without a coarse level: there is no tail to carry.
    carry: Option<Carry>,
}

/// The diagonal carry of a [`GalerkinChain`], one vector per coarse level.
/// Both are allocated at build, so the chain's bytes do not move when a
/// swap fills `w`.
#[derive(Clone, Debug)]
struct Carry {
    /// `L_l` of the build operator.
    log_diag: Vec<Vec<f64>>,
    /// `w_l` of the current finest operator.
    w: Vec<Vec<f64>>,
    /// Whether `w` applies: the finest operator was swapped and every
    /// weight is finite.
    live: bool,
}

impl Carry {
    fn of(mats: &[SgDia<f64>]) -> Option<Self> {
        let log_diag = (mats.len() > 1).then(|| restricted_log_diagonal(mats))?;
        let w = log_diag.iter().map(|l| vec![1.0; l.len()]).collect();
        Some(Carry { log_diag, w, live: false })
    }

    /// Re-derives `w` for `mats[0]`, the new finest operator. Every `L_l` is
    /// a mean of logs of positive finite diagonals, in [−745, 710], so `w` is
    /// never zero; a ratio past `e^1419` overflows it: the tail stays as built.
    fn update(&mut self, mats: &[SgDia<f64>]) {
        let now = restricted_log_diagonal(mats);
        for ((w, was), now) in self.w.iter_mut().zip(&self.log_diag).zip(&now) {
            for ((w, &was), &now) in w.iter_mut().zip(was).zip(now) {
                *w = (0.5 * (now - was)).exp();
            }
        }
        self.live = self.w.iter().flatten().all(|w| w.is_finite());
    }

    fn value_bytes(&self) -> usize {
        let len: usize = self.log_diag.iter().chain(&self.w).map(Vec::len).sum();
        len * std::mem::size_of::<f64>()
    }
}

/// `R_l log diag(A₀) / R_l 1` for every coarse level `l` of `mats`, finest
/// first (`mats[0]`'s diagonal is positive and finite: [`check_diagonal`]).
fn restricted_log_diagonal(mats: &[SgDia<f64>]) -> Vec<Vec<f64>> {
    let mut log = mats[0].extract_diagonal();
    log.iter_mut().for_each(|d| *d = d.ln());
    let mut ones = vec![1.0; log.len()];
    let mut out = Vec::with_capacity(mats.len() - 1);
    for pair in mats.windows(2) {
        let (fine, coarse) = (pair[0].grid(), pair[1].grid());
        let (mut log_c, mut ones_c) = (vec![0.0; coarse.unknowns()], vec![0.0; coarse.unknowns()]);
        restrict(fine, coarse, &log, &mut log_c);
        restrict(fine, coarse, &ones, &mut ones_c);
        out.push(log_c.iter().zip(&ones_c).map(|(l, o)| l / o).collect());
        (log, ones) = (log_c, ones_c);
    }
    out
}

impl GalerkinChain {
    /// Builds the FP64 chain for `a` under `config` (coarsening policy,
    /// level bounds, and layout are honored; storage/scaling knobs do
    /// not affect the chain).
    ///
    /// # Errors
    /// [`SetupError::ChainIncompatible`] for `ScaleThenSetup` configs;
    /// [`SetupError::InvalidConfig`]/[`SetupError::TooManyComponents`]/
    /// [`SetupError::NonPositiveDiagonal`] as in [`Mg::setup`].
    pub fn build(a: &SgDia<f64>, config: &MgConfig) -> Result<Self, SetupError> {
        config.validate()?;
        reject_prescaled(config)?;
        let finest = a.to_layout(config.layout);
        let mut mats = coarse_chain(&finest, config)?;
        mats.insert(0, finest);
        let carry = Carry::of(&mats);
        Ok(GalerkinChain { mats, carry })
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

    /// Every level's operator as built, finest first (the finest one as
    /// last swapped in).
    pub fn matrices(&self) -> &[SgDia<f64>] {
        &self.mats
    }

    /// The operators [`Mg::setup_from_chain`] assembles, finest first:
    /// [`matrices`](Self::matrices), with every coarse level carried to
    /// `W_l A_l W_l` after a swap (a transient copy of the coarse tail).
    pub(crate) fn operators(&self) -> Vec<Cow<'_, SgDia<f64>>> {
        let Some(carry) = self.carry.as_ref().filter(|c| c.live) else {
            return self.mats.iter().map(Cow::Borrowed).collect();
        };
        let tail = self.mats[1..].iter().zip(&carry.w).map(|(a, w)| {
            let mut carried = a.clone();
            scaling::congruence(&mut carried, w);
            Cow::Owned(carried)
        });
        std::iter::once(Cow::Borrowed(&self.mats[0])).chain(tail).collect()
    }

    /// Total bytes of FP64 value data the chain keeps resident — what a
    /// hierarchy cache entry pays to retain it: the operators and the
    /// carry's two vectors per coarse level.
    pub fn value_bytes(&self) -> usize {
        let carry = self.carry.as_ref().map_or(0, Carry::value_bytes);
        self.mats.iter().map(|m| m.value_bytes()).sum::<usize>() + carry
    }

    /// Replaces the finest operator in place (same geometry required),
    /// keeping the coarse tail and carrying the new operator's diagonal
    /// drift into it: after this, [`Mg::setup_from_chain`] serves the
    /// drifted operator over `W_l A_l W_l`.
    ///
    /// # Errors
    /// [`SetupError::ChainIncompatible`] on a geometry mismatch, or a
    /// smoothed `finest` breaking [`check_diagonal`]; nothing was changed.
    pub(crate) fn swap_finest(
        &mut self,
        finest: &SgDia<f64>,
        config: &MgConfig,
    ) -> Result<(), SetupError> {
        self.check_finest_geometry(finest)?;
        if self.mats.len() > 1 {
            check_diagonal(finest, 0)?;
        }
        let (own, new) = (&mut self.mats[0], finest.in_layout(config.layout));
        if (own.layout(), own.pattern()) == (new.layout(), new.pattern()) {
            // Same shape: overwrite in place rather than fault in a
            // second full-size buffer.
            own.data_mut().copy_from_slice(new.data());
        } else {
            *own = new.into_owned();
        }
        if let Some(carry) = &mut self.carry {
            carry.update(&self.mats);
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

/// The rule every smoothed level keeps: its diagonal is positive and
/// finite, as Theorem 4.1 scales by it and Gauss–Seidel pivots on it.
fn check_diagonal(a: &SgDia<f64>, level: usize) -> Result<(), SetupError> {
    scaling::positive(a.extract_diagonal()).map(drop).map_err(|e| non_positive_at(level, e))
}

/// A diagonal Theorem 4.1 refuses on level `level`, at the core boundary.
fn non_positive_at(level: usize, e: scaling::ScalingError) -> SetupError {
    SetupError::NonPositiveDiagonal { level, unknown: e.unknown(), value: e.value() }
}

/// The Galerkin coarsening loop (Algorithm 1 lines 1–3): the RAP triple
/// products below `finest`, down to the configured coarsest size or to the
/// first level that would be smoothed but breaks the rule of
/// [`check_diagonal`]: the dense LU solves that one, unless it is level 0
/// or has more than [`DenseLu::MAX_UNKNOWNS`] rows, which is refused.
fn coarse_chain(finest: &SgDia<f64>, config: &MgConfig) -> Result<Vec<SgDia<f64>>, SetupError> {
    if finest.grid().components > 8 {
        return Err(SetupError::TooManyComponents);
    }
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
        if let Err(e) = check_diagonal(last, chain.len()) {
            if chain.is_empty() || last.rows() > DenseLu::MAX_UNKNOWNS {
                return Err(e);
            }
            break;
        }
        chain.push(galerkin_rap_axes(last, axes));
    }
    Ok(chain)
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
fn build_level<Pr: Scalar>(
    ai: &SgDia<f64>,
    prec: Precision,
    config: &MgConfig,
    level: usize,
) -> Result<(Level<Pr>, LevelInfo), SetupError> {
    // Promotion material of a narrow level: the *unscaled* operator in FP32
    // — but for a level 0 stored from the caller's own operator, which
    // whoever solves holds and lends ([`Mg::insured`]).
    let lent = level == 0 && config.scale != ScaleStrategy::ScaleThenSetup;
    let keep_source = |p: Precision| config.recovery.enabled && p.bytes() == 2 && !lent;
    let (layout, policy) = (config.layout, store_policy(config));
    let store = |s_inv: Option<&[f64]>, p: Precision| {
        StoredMatrix::store_level(ai, s_inv, p, layout, policy, true, keep_source(p))
    };
    // Direct truncation (line 11) in one read — also the path for `None`
    // and for all levels of scale-then-setup — unless setup-then-scale's
    // sweep meets an entry out of range ("need to scale"): only then is the
    // level planned (`G_max`) and stored scaled (lines 6–9). The diagonal
    // is read first: an entry of it out of range is one that sweep would
    // meet, so such a level skips the sweep, and the plan takes the
    // diagonal as read.
    let limit = prec.finite_max();
    let diagonal = (config.scale == ScaleStrategy::SetupThenScale).then(|| ai.extract_diagonal());
    let unscaled = match &diagonal {
        Some(diag) if diag.iter().any(|d| !d.is_finite() || d.abs() >= limit) => None,
        Some(_) => {
            let k = keep_source(prec);
            StoredMatrix::store_in_range(ai, prec, layout, policy, true, k).transpose()
        }
        None => Some(store(None, prec)),
    };
    let plan = match (&unscaled, diagonal) {
        (None, Some(diag)) => Some(
            ScalePlan::with_diagonal(ai, diag, config.g_choice, limit)
                .map_err(|e| non_positive_at(level, e))?,
        ),
        _ => None,
    };
    let s_inv = plan.as_ref().map(ScalePlan::s_inv);
    // A scaled level's second read: scaled, truncated, audited, sentineled.
    let store = unscaled.unwrap_or_else(|| store(s_inv, prec));
    // Smoother data comes from the high-precision matrix (line 13),
    // scaled as it is read.
    let dinv = BlockDiagInv::from_scaled(ai, s_inv)
        .map_err(|c| SetupError::SingularDiagonalBlock { level, cell: c })?;
    let store = store.map_err(|error| SetupError::Truncation { level, error })?;
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
    let par = config.par;
    Ok((Level { grid, stored, scale, dinv, par, source }, info))
}

/// A hierarchy lent the FP64 operator it preconditions ([`Mg::insured`]),
/// its level 0's promotion material; a bare `Mg` runs as one lent none.
pub struct Insured<'a, Pr: Scalar = f32> {
    mg: &'a mut Mg<Pr>,
    lent: Option<&'a SgDia<f64>>,
}

impl<K: Scalar, Pr: Scalar> Preconditioner<K> for Insured<'_, Pr> {
    /// `z ≈ A⁻¹ r` via one V-cycle, with the boundary in any scalar `K`
    /// (Algorithm 2 lines 4 and 6): `r` is truncated straight into the
    /// finest level's right-hand side and `z` is widened straight from its
    /// iterate, so the `K` ↔ `Pr` conversion costs no vector of its own.
    ///
    /// When the [`crate::RecoveryPolicy`] is enabled, a non-finite (±∞/NaN)
    /// result widens the implicated level — one its sentinels flag
    /// ([`Insured::mend`]), or else the suspect ([`Insured::promote_level`];
    /// never level 0 of a bare `Mg`) — and the cycle re-runs, until no
    /// level is left to widen. The scan rides on the pass that writes `z`,
    /// so healthy levels pay nothing for it.
    ///
    /// # Panics
    /// Panics on dimension mismatch.
    fn apply(&mut self, r: &[K], z: &mut [K]) {
        let n = self.mg.rows();
        assert_eq!(r.len(), n, "r length");
        assert_eq!(z.len(), n, "z length");
        self.mg.load_rhs(r);
        let mut finite = self.mg.cycle_into(z);
        if !self.mg.config.recovery.enabled {
            return;
        }
        // The cycle leaves the loaded right-hand side intact, so a re-run
        // needs no reload.
        while !finite {
            if self.mend(PromotionReason::NonFiniteOutput) == 0 && self.promote_suspect().is_none()
            {
                // Nothing left to widen: surface the non-finite output to
                // the caller (the solver's own NonFiniteResidual breakdown
                // will catch it).
                return;
            }
            finite = self.mg.cycle_into(z);
        }
    }

    /// A solver breakdown or stagnation may be silent storage corruption
    /// wearing a numerical costume: [`Insured::mend`] what the sentinels
    /// flag, so the runtime's second retry re-solves the mended hierarchy
    /// instead of escalating to a rebuild.
    fn on_health_anomaly(&mut self) -> usize {
        self.mend(PromotionReason::Anomaly)
    }
}

/// When a promoted level *still* needs scaling (values beyond the FP32
/// range), its rebuild retries with a fixed `G` multiplied by this factor:
/// a tighter margin below `G_max` than the first attempt used.
const G_TIGHTEN: f64 = 0.5;

impl<Pr: Scalar> Insured<'_, Pr> {
    /// Whether level `i` is 16-bit with promotion material: its own FP32
    /// source, or — level 0 stored unscaled — the lent operator.
    fn insures(&self, i: usize) -> bool {
        let lendable = i == 0 && self.mg.finest_scale.is_none() && self.lent.is_some();
        let narrow = |l: &Level<Pr>| l.stored.precision().bytes() == 2;
        self.mg.levels.get(i).is_some_and(|l| narrow(l) && (l.source.is_some() || lendable))
    }

    /// True while recovery is on and some 16-bit level has promotion
    /// material. A promotion leaves none, so a hierarchy promotes at most
    /// once per 16-bit level.
    pub fn can_promote(&self) -> bool {
        self.mg.config.recovery.enabled && (0..self.mg.levels.len()).any(|i| self.insures(i))
    }

    /// The one way a corrupted level is mended: verifies every sentinel
    /// ([`Mg::verify_integrity`]) and widens each flagged level that has
    /// promotion material to FP32 ([`Insured::promote_level`]), logging the
    /// flagged taps. No other level is touched. Returns how many levels
    /// were widened; a flagged level without material (a wide one, or level
    /// 0 of a bare `Mg`) stays as it is.
    pub fn mend(&mut self, reason: PromotionReason) -> usize {
        let mut mended = 0;
        for (level, mismatches) in self.mg.verify_integrity() {
            let taps = mismatches.iter().map(|m| m.tap).collect();
            mended += usize::from(self.widen(level, reason, taps).is_some());
        }
        mended
    }

    /// Promotes the first level holding a non-finite stored value — none,
    /// if it has no material: widening a healthy one cannot clear it — or
    /// else the *coarsest* 16-bit level with material.
    fn promote_suspect(&mut self) -> Option<PromotionEvent> {
        let corrupt = self.mg.levels.iter().position(|l| !l.stored.scan().all_finite());
        let coarsest = || (0..self.mg.levels.len()).rev().find(|&i| self.insures(i));
        self.promote_level(corrupt.or_else(coarsest)?, PromotionReason::NonFiniteOutput)
    }

    /// Rebuilds 16-bit level `level` at FP32 from the FP32 values it was
    /// stored from (re-scaled, should FP32 not hold it, with `G` tightened
    /// by `G_TIGHTEN`), logged in [`MgInfo::promotions`]. `None` when it is
    /// not promotable (recovery off, wide, no material) or the rebuild fails.
    pub fn promote_level(
        &mut self,
        level: usize,
        reason: PromotionReason,
    ) -> Option<PromotionEvent> {
        self.widen(level, reason, Vec::new())
    }

    /// [`Insured::promote_level`], logging the planes the sentinels flagged.
    fn widen(
        &mut self,
        level: usize,
        reason: PromotionReason,
        taps: Vec<usize>,
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
            cfg.g_choice = GChoice::Fixed(g * G_TIGHTEN);
        }
        // The widened level replaces the old one wholesale: new stored
        // bits, sentinels retaken over the new format, and no source (an
        // FP32 level keeps no insurance).
        let (widened, info) = build_level::<Pr>(&a64, Precision::F32, &cfg, level).ok()?;
        let to = info.precision;
        let event = PromotionEvent { level, from, to, reason, corrupt_entries, taps };
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

    /// As [`Insured`]'s hook, lent nothing: only levels with a source of
    /// their own are mended.
    fn on_health_anomaly(&mut self) -> usize {
        Preconditioner::<K>::on_health_anomaly(&mut Insured { mg: self, lent: None })
    }
}

#[cfg(test)]
pub(crate) mod tests;
