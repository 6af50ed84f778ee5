//! Operator drift models for time-stepping simulation.
//!
//! The paper's real-world sources are implicit time-stepping codes: the
//! operator at step `t+1` is the operator at step `t` with coefficients
//! that moved — permeability around an advancing waterflood front,
//! opacity behind a radiation front, stability profiles across a weather
//! system. This module turns each one-shot [`Problem`] generator into a
//! *trajectory* of operators, so the reuse machinery (range audits,
//! hierarchy cache, rescale-in-place) can be exercised under sustained
//! drift instead of synthetic one-off rescales.
//!
//! Every drift is a **congruence scaling**: a per-cell positive
//! multiplier field `m(cell, t)` applied as `A_t = D_t^{1/2} A_0
//! D_t^{1/2}` (entry `(cell, nb)` scaled by `sqrt(m_cell · m_nb)`).
//! That preserves symmetry and positive definiteness exactly, never
//! creates or destroys a coupling (no structural drift), and moves the
//! value range the way real coefficient evolution does. Three model
//! components compose multiplicatively, each a pure function of the
//! step index — essential for crash-safe resume, where a restarted run
//! must reconstruct the step-`t` operator bit-identically:
//!
//! * **smooth drift** — a global `2^(amp · sin(freq · t))` factor, the
//!   slow background evolution that a cached hierarchy should survive
//!   (and that periodically accumulates past the keep bound, forcing a
//!   rescale-in-place);
//! * **front propagation** — cells behind a front sweeping the `i` axis
//!   carry an extra contrast factor (waterflood / ionization front);
//! * **sudden contrast jumps** — alternating windows multiply the whole
//!   field by a large factor (injection-phase switch, storm onset),
//!   the drift that must invalidate and rebuild.

use fp16mg_sgdia::{Layout, SgDia};
use fp16mg_stencil::Tap;

use crate::{Problem, ProblemKind};

/// The drift-model constants of one simulated scenario. All three
/// components are optional: a zero `front_period` or `jump_every`
/// disables that component, `smooth_amp = 0` freezes the background.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DriftPreset {
    /// Amplitude of the global smooth drift, in log2 units (the whole
    /// field breathes by up to `±smooth_amp` doublings).
    pub smooth_amp: f64,
    /// Angular frequency of the smooth drift, radians per step.
    pub smooth_freq: f64,
    /// Extra multiplier carried by cells behind the front (1.0 = off).
    pub front_contrast: f64,
    /// Steps for the front to sweep the `i` axis once (0 = no front).
    /// The front resets at each period boundary — a new injection cycle.
    pub front_period: u64,
    /// Field multiplier inside a jump window.
    pub jump_factor: f64,
    /// Jump window length in steps (0 = no jumps): windows alternate
    /// off/on, so both edges of every window are large sudden drifts.
    pub jump_every: u64,
}

impl DriftPreset {
    /// The scenario preset for a problem kind: the reservoir problems
    /// are front-dominated (waterflood), the radiation problems combine
    /// a strong front with smooth opacity evolution, the weather
    /// problem is smooth background drift punctuated by storm-onset
    /// jumps. Kinds without a physical scenario get the oil preset.
    pub fn for_kind(kind: ProblemKind) -> Self {
        match kind {
            ProblemKind::Oil | ProblemKind::Oil4C => DriftPreset {
                smooth_amp: 0.9,
                smooth_freq: 0.5,
                front_contrast: 2.5,
                front_period: 10,
                jump_factor: 24.0,
                jump_every: 6,
            },
            ProblemKind::Rhd | ProblemKind::Rhd3T => DriftPreset {
                smooth_amp: 0.8,
                smooth_freq: 0.45,
                front_contrast: 6.0,
                front_period: 9,
                jump_factor: 20.0,
                jump_every: 7,
            },
            ProblemKind::Weather => DriftPreset {
                smooth_amp: 1.0,
                smooth_freq: 0.4,
                front_contrast: 1.0,
                front_period: 0,
                jump_factor: 24.0,
                jump_every: 5,
            },
            _ => DriftPreset {
                smooth_amp: 0.9,
                smooth_freq: 0.5,
                front_contrast: 2.5,
                front_period: 10,
                jump_factor: 24.0,
                jump_every: 6,
            },
        }
    }

    /// The per-cell multiplier at step `step` for a cell at `i` on a
    /// grid with `nx` cells along the front axis. Pure in its inputs;
    /// `multiplier(_, _, 0) == 1` exactly, so step 0 is the base
    /// operator bit-for-bit.
    pub fn multiplier(&self, i: usize, nx: usize, step: u64) -> f64 {
        let t = step as f64;
        let mut m = (self.smooth_amp * (self.smooth_freq * t).sin()).exp2();
        if self.front_period > 0 && self.front_contrast != 1.0 {
            let phase = (step % self.front_period) as f64 / self.front_period as f64;
            if (i as f64) < phase * nx as f64 {
                m *= self.front_contrast;
            }
        }
        if self.jump_every > 0 && (step / self.jump_every) % 2 == 1 {
            m *= self.jump_factor;
        }
        m
    }
}

/// A problem kind turned into an operator trajectory: `matrix_at(t)` is
/// a pure, deterministic function of `(kind, n, preset, t)`, so any two
/// calls — in the same process or after a crash-resume — produce
/// bit-identical matrices.
pub struct Evolution {
    kind: ProblemKind,
    n: usize,
    preset: DriftPreset,
    base: SgDia<f64>,
}

impl Evolution {
    /// An evolution over `kind.build(n)` with the kind's scenario
    /// preset.
    ///
    /// # Panics
    /// Panics for `n < 4` (the generator's own bound).
    pub fn new(kind: ProblemKind, n: usize) -> Self {
        Self::with_preset(kind, n, DriftPreset::for_kind(kind))
    }

    /// An evolution with an explicit drift preset.
    ///
    /// # Panics
    /// Panics for `n < 4`.
    pub fn with_preset(kind: ProblemKind, n: usize, preset: DriftPreset) -> Self {
        Evolution { kind, n, preset, base: kind.build(n).matrix }
    }

    /// The evolved problem kind.
    pub fn kind(&self) -> ProblemKind {
        self.kind
    }

    /// The base extent the trajectory was built at.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The active drift preset.
    pub fn preset(&self) -> &DriftPreset {
        &self.preset
    }

    /// The step-0 operator (the unmodified generator output).
    pub fn base(&self) -> &SgDia<f64> {
        &self.base
    }

    /// The operator at step `step`: the base matrix under the preset's
    /// congruence scaling. Structure (pattern, geometry, zero/nonzero
    /// placement) never changes; only magnitudes drift.
    pub fn matrix_at(&self, step: u64) -> SgDia<f64> {
        let mut m = self.base.clone();
        if step > 0 {
            drift_in_place(&mut m, &self.preset, step);
        }
        m
    }

    /// The full [`Problem`] at step `step` (same name/solver as the base
    /// kind, drifted matrix).
    pub fn problem_at(&self, step: u64) -> Problem {
        Problem {
            name: self.kind.name(),
            kind: self.kind,
            matrix: self.matrix_at(step),
            solver: self.kind.solver(),
        }
    }
}

/// Applies `preset`'s congruence scaling at `step` to `m`: SOA planes as
/// x-row slices, AOS entry by entry.
pub(crate) fn drift_in_place(m: &mut SgDia<f64>, preset: &DriftPreset, step: u64) {
    let grid = *m.grid();
    // The multiplier varies along `i` only, and so does a tap's factor
    // `sqrt(m_cell · m_nb)`: one table per tap, applied x-row by x-row
    // to the entries whose neighbour is in the grid (a structural zero
    // stays zero).
    let mult: Vec<f64> = (0..grid.nx).map(|i| preset.multiplier(i, grid.nx, step)).collect();
    let taps: Vec<Tap> = m.pattern().taps().to_vec();
    let soa = m.layout() == Layout::Soa;
    let mut factor = vec![1.0f64; grid.nx];
    for (t, tap) in taps.iter().enumerate() {
        let at_cell = (tap.dx, tap.dy, tap.dz) == (0, 0, 0);
        for (i, f) in factor.iter_mut().enumerate() {
            // Without a neighbour along `i` the entry is never scaled.
            let nb = mult.get((i as i64 + tap.dx as i64) as usize);
            *f = if at_cell { mult[i] } else { nb.map_or(1.0, |nb| (mult[i] * nb).sqrt()) };
        }
        for run in grid.neighbour_runs(0..grid.cells(), tap.dx, tap.dy, tap.dz) {
            let factor = &factor[run.start % grid.nx..][..run.len()];
            if soa {
                for (v, f) in m.tap_slice_mut(t)[run].iter_mut().zip(factor) {
                    *v *= f;
                }
            } else {
                for (cell, f) in run.zip(factor) {
                    m.set(cell, t, m.get(cell, t) * f);
                }
            }
        }
    }
}

/// How many times the source's magnitude [`step_rhs`] scales the carried
/// state to: the previous step, not the stationary source, drives each
/// step, while the state stays bounded.
const CARRY: f64 = 1024.0;

/// The implicit-step right-hand side: the problem's stationary source
/// plus a mass-like coupling to the previous step's solution,
/// `b_t = r0 + α·x_{t-1}` (the shape of a backward-Euler step).
/// Deterministic and bit-reproducible, so a resumed trajectory recomputes
/// the same right-hand sides from the checkpointed solution.
///
/// The operators carry no mass term to match `α`, so `α` is bounded
/// against the source, `α = 1024·max|r0| / max|x_{t-1}|`: the carried term
/// never outweighs `r0` by more than that. A weight tied to the operator's
/// magnitude instead would grow the state by about `max|A| / λ_min` per
/// step, until `pᵀAp` overflows.
pub fn step_rhs(problem: &Problem, prev: Option<&[f64]>) -> Vec<f64> {
    let mut b = problem.rhs();
    if let Some(x) = prev {
        let max_abs = |v: &[f64]| v.iter().fold(0.0f64, |m, e| m.max(e.abs()));
        let x_max = max_abs(x);
        if x_max > 0.0 {
            let alpha = CARRY * max_abs(&b) / x_max;
            for (bi, xi) in b.iter_mut().zip(x) {
                *bi += alpha * xi;
            }
        }
    }
    b
}
