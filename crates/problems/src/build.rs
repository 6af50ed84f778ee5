//! The eight problem generators.

use fp16mg_grid::Grid3;
use fp16mg_sgdia::{Layout, SgDia};
use fp16mg_stencil::{Pattern, Tap};

use crate::field::Field;

/// Which Krylov method the problem is solved with (Table 3 "Solver").
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SolverKind {
    /// Conjugate gradients (SPD problems).
    Cg,
    /// Restarted GMRES (nonsymmetric problems).
    Gmres,
}

/// The paper's test problems.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ProblemKind {
    /// Idealized 27-point Laplacian, constant coefficients.
    Laplace27,
    /// laplace27 with all coefficients multiplied by 1e8 (out-of-range
    /// probe).
    Laplace27E8,
    /// Radiation-hydrodynamics single-temperature diffusion: smooth but
    /// enormous opacity range.
    Rhd,
    /// Petroleum reservoir pressure system: layered log-normal
    /// permeability, strong vertical anisotropy, mildly nonsymmetric.
    Oil,
    /// Atmospheric dynamic-core Helmholtz problem: 3d19, vertically
    /// stretched grid, values near the FP16 boundary, nonsymmetric.
    Weather,
    /// Three-temperature radiation hydrodynamics: 3 coupled components
    /// with ~12 decades between the physics scales.
    Rhd3T,
    /// Four-component reservoir system near the FP16 boundary.
    Oil4C,
    /// Linear elasticity (3 displacements, 3d15), Lamé coefficients ~1e7.
    Solid3D,
}

/// A generated problem instance.
pub struct Problem {
    /// Paper name (e.g. `"rhd-3T"`).
    pub name: &'static str,
    /// Which generator produced it.
    pub kind: ProblemKind,
    /// The assembled matrix in `f64`.
    pub matrix: SgDia<f64>,
    /// Solver selection.
    pub solver: SolverKind,
}

impl ProblemKind {
    /// All eight problems in the paper's order.
    pub fn all() -> [ProblemKind; 8] {
        [
            ProblemKind::Laplace27,
            ProblemKind::Laplace27E8,
            ProblemKind::Rhd,
            ProblemKind::Oil,
            ProblemKind::Weather,
            ProblemKind::Rhd3T,
            ProblemKind::Oil4C,
            ProblemKind::Solid3D,
        ]
    }

    /// The six real-world-analog problems plotted in Fig. 1/Fig. 5.
    pub fn real_world() -> [ProblemKind; 6] {
        [
            ProblemKind::Rhd,
            ProblemKind::Oil,
            ProblemKind::Weather,
            ProblemKind::Rhd3T,
            ProblemKind::Oil4C,
            ProblemKind::Solid3D,
        ]
    }

    /// Paper display name.
    pub fn name(self) -> &'static str {
        match self {
            ProblemKind::Laplace27 => "laplace27",
            ProblemKind::Laplace27E8 => "laplace27*1e8",
            ProblemKind::Rhd => "rhd",
            ProblemKind::Oil => "oil",
            ProblemKind::Weather => "weather",
            ProblemKind::Rhd3T => "rhd-3T",
            ProblemKind::Oil4C => "oil-4C",
            ProblemKind::Solid3D => "solid-3D",
        }
    }

    /// Components per grid cell (Table 3 scalar vs vector PDE).
    pub fn components(self) -> usize {
        match self {
            ProblemKind::Rhd3T | ProblemKind::Solid3D => 3,
            ProblemKind::Oil4C => 4,
            _ => 1,
        }
    }

    /// Solver per Table 3.
    pub fn solver(self) -> SolverKind {
        match self {
            ProblemKind::Oil | ProblemKind::Weather | ProblemKind::Oil4C => SolverKind::Gmres,
            _ => SolverKind::Cg,
        }
    }

    /// Stencil name per Table 3.
    pub fn pattern_name(self) -> &'static str {
        match self {
            ProblemKind::Laplace27 | ProblemKind::Laplace27E8 => "3d27",
            ProblemKind::Weather => "3d19",
            ProblemKind::Solid3D => "3d15",
            _ => "3d7",
        }
    }

    /// Builds an instance with base extent `n` (each kind picks its own
    /// aspect ratio; total cells stay O(n³)).
    ///
    /// # Panics
    /// Panics for `n < 4`.
    pub fn build(self, n: usize) -> Problem {
        assert!(n >= 4, "problem size too small");
        let matrix = match self {
            ProblemKind::Laplace27 => laplace27(n, 1.0),
            ProblemKind::Laplace27E8 => laplace27(n, 1.0e8),
            ProblemKind::Rhd => rhd(n),
            ProblemKind::Oil => oil(n),
            ProblemKind::Weather => weather(n),
            ProblemKind::Rhd3T => rhd3t(n),
            ProblemKind::Oil4C => oil4c(n),
            ProblemKind::Solid3D => solid3d(n),
        };
        Problem { name: self.name(), kind: self, matrix, solver: self.solver() }
    }
}

impl Problem {
    /// Deterministic right-hand side (smooth plus positive bias, like the
    /// source terms of the originating applications; scaled to the
    /// matrix's magnitude so relative tolerances are meaningful).
    pub fn rhs(&self) -> Vec<f64> {
        let scale = self.matrix.abs_max().0.max(1.0);
        let n = self.matrix.rows();
        (0..n).map(|i| scale * (((i as f64) * 0.61).sin() * 0.5 + 1.0)).collect()
    }
}

/// Transmissibility between two cells: harmonic mean of the cell
/// coefficients (the standard two-point flux approximation).
#[inline]
fn harmonic(a: f64, b: f64) -> f64 {
    2.0 * a * b / (a + b)
}

/// 27-point Laplacian: off-diagonals −scale, diagonal 26·scale (interior
/// value everywhere — eliminated Dirichlet boundary, strictly dominant at
/// faces).
fn laplace27(n: usize, scale: f64) -> SgDia<f64> {
    let grid = Grid3::cube(n);
    let pat = Pattern::p27();
    let taps: Vec<Tap> = pat.taps().to_vec();
    SgDia::from_fn(grid, pat, Layout::Soa, |_, _, _, _, t| {
        if taps[t].is_diagonal() {
            26.0 * scale
        } else {
            -scale
        }
    })
}

/// Scalar heterogeneous diffusion on 3d7 from a per-cell coefficient
/// field, with optional directional weights and skew (upwind) factor.
/// `sigma` adds a per-cell absorption to the diagonal.
fn diffusion7(
    grid: Grid3,
    kappa: impl Fn(usize) -> f64,
    dir_weight: impl Fn(i32, i32, i32, usize, usize, usize) -> f64,
    skew: f64,
    sigma: impl Fn(usize) -> f64,
) -> SgDia<f64> {
    let pat = Pattern::p7();
    let taps: Vec<Tap> = pat.taps().to_vec();
    // Precompute transmissibilities per (cell, tap) to keep the matrix
    // symmetric up to the skew term.
    SgDia::from_fn(grid, pat, Layout::Soa, |cell, i, j, k, t| {
        let tap = taps[t];
        if tap.is_diagonal() {
            let mut acc = sigma(cell);
            for tp in &taps {
                if tp.is_diagonal() || !grid.contains_offset(i, j, k, tp.dx, tp.dy, tp.dz) {
                    continue;
                }
                let nb = (cell as i64 + grid.stride(tp.dx, tp.dy, tp.dz)) as usize;
                let w = dir_weight(tp.dx, tp.dy, tp.dz, i, j, k);
                let tvl = harmonic(kappa(cell), kappa(nb)) * w;
                // Upwind skew strengthens the diagonal symmetrically with
                // the off-diagonal weakening below.
                acc += tvl * (1.0 + skew * downwind(tp.dx, tp.dy, tp.dz));
            }
            acc
        } else {
            let nb = (cell as i64 + grid.stride(tap.dx, tap.dy, tap.dz)) as usize;
            let w = dir_weight(tap.dx, tap.dy, tap.dz, i, j, k);
            let tvl = harmonic(kappa(cell), kappa(nb)) * w;
            -tvl * (1.0 - skew * downwind(tap.dx, tap.dy, tap.dz))
        }
    })
}

/// +1 on "downstream" faces, −1 upstream: the sign pattern of a first-order
/// upwind convection term.
#[inline]
fn downwind(dx: i32, dy: i32, dz: i32) -> f64 {
    (dx + dy + dz).signum() as f64
}

/// rhd: smooth opacity field spanning ~15 decades (Fig. 1 shows 1e-18…1e9
/// for the real matrix); low anisotropy; absorption keeps it SPD. CG.
fn rhd(n: usize) -> SgDia<f64> {
    let grid = Grid3::cube(n);
    // Heavily smoothed field: opacities vary over many decades globally
    // but slowly in space (low anisotropy), as after decoupling from the
    // 3T system.
    // Coarse-lattice fields: the 14-decade opacity span is resolved over
    // a handful of physical features regardless of grid size, so the
    // per-cell contrast stays low ("relatively isotropic after
    // decoupling", Table 3) at every resolution.
    let field = Field::interpolated(grid, 0x7d01, 2);
    let kappa = move |c: usize| field.log_coefficient(c, 1.0e-5, 1.0e9);
    let sfield = Field::interpolated(grid, 0x7d02, 2);
    let sigma = move |c: usize| sfield.log_coefficient(c, 1.0e-9, 1.0e3);
    diffusion7(grid, kappa, |_, _, _, _, _, _| 1.0, 0.0, sigma)
}

/// oil: layered log-normal permeability over ~4 decades (in FP16 range),
/// strong vertical anisotropy (thin cells: 1/dz² ≫ 1/dx²), mild upwind
/// skew → GMRES.
fn oil(n: usize) -> SgDia<f64> {
    let grid = Grid3::cube(n);
    let field = Field::layered(grid, 0x011, 0.4);
    let kappa = move |c: usize| field.log_coefficient(c, 1.0e-3, 10.0);
    let dir = |dx: i32, dy: i32, dz: i32, _: usize, _: usize, _: usize| {
        if dz != 0 {
            30.0 // thin layers: vertical coupling dominates
        } else if dy != 0 {
            1.0
        } else {
            let _ = (dx, dy);
            1.0
        }
    };
    diffusion7(grid, kappa, dir, 0.15, |_| 1.0e-2)
}

/// weather: 3d19 Helmholtz-like operator on a vertically stretched grid;
/// coefficients scaled so the maxima slightly exceed FP16_MAX ("near");
/// nonsymmetric advection → GMRES.
fn weather(n: usize) -> SgDia<f64> {
    let nz = (n / 2).max(4);
    let grid = Grid3::new(n, n, nz);
    let pat = Pattern::p19();
    let taps: Vec<Tap> = pat.taps().to_vec();
    let topo = Field::smooth_gaussian(grid, 0xa7a0, 3);
    // Stretched vertical spacing: thin near the "surface" k = 0.
    let dz = |k: usize| 0.05 + 0.10 * (k as f64) / (nz as f64);
    // Latitude-dependent horizontal spacing (narrower toward j-poles).
    let dxy = |j: usize| {
        let lat = (j as f64 / (grid.ny - 1).max(1) as f64 - 0.5) * std::f64::consts::PI * 0.9;
        1.0 * lat.cos().max(0.2)
    };
    const SCALE: f64 = 250.0; // puts the max coupling just past FP16_MAX (~1e5)
    let skew = 0.1;
    SgDia::from_fn(grid, pat, Layout::Soa, |cell, i, j, k, t| {
        let tap = taps[t];
        let coupling = |dx: i32, dy: i32, dzo: i32| -> f64 {
            let mut c = 1.0;
            if dzo != 0 {
                let kk = if dzo < 0 { k - 1 } else { k };
                c *= 1.0 / (dz(kk) * dz(kk));
            }
            if dx != 0 || dy != 0 {
                let h = dxy(j);
                c *= 1.0 / (h * h);
            }
            let axes = (dx != 0) as u8 + (dy != 0) as u8 + (dzo != 0) as u8;
            if axes >= 2 {
                c *= 0.25; // edge neighbors couple weaker than faces
            }
            let m = 1.0 + 0.3 * topo.at(cell).clamp(-2.5, 2.5);
            c * m * SCALE
        };
        if tap.is_diagonal() {
            let mut acc = 0.0;
            for tp in &taps {
                if tp.is_diagonal() || !grid.contains_offset(i, j, k, tp.dx, tp.dy, tp.dz) {
                    continue;
                }
                acc += coupling(tp.dx, tp.dy, tp.dz) * (1.0 + skew * downwind(tp.dx, tp.dy, tp.dz));
            }
            // Helmholtz term keeps the operator definite.
            acc + 0.05 * SCALE
        } else {
            -coupling(tap.dx, tap.dy, tap.dz) * (1.0 - skew * downwind(tap.dx, tap.dy, tap.dz))
        }
    })
}

/// Generic coupled multi-component diffusion on 3d7: component `c`
/// diffuses with its own coefficient field; the diagonal block adds a
/// symmetric positive exchange matrix between adjacent components.
fn coupled_diffusion(
    grid: Grid3,
    comp_kappa: Vec<Box<dyn Fn(usize) -> f64>>,
    exchange: impl Fn(usize, usize, usize) -> f64, // (cell, c_lo, c_hi) -> ω ≥ 0
    dirz_weight: f64,
    skew: f64,
    sigma: impl Fn(usize, usize) -> f64,
) -> SgDia<f64> {
    let r = comp_kappa.len();
    let pat = Pattern::p7().with_components(r);
    let taps: Vec<Tap> = pat.taps().to_vec();
    SgDia::from_fn(grid, pat, Layout::Soa, |cell, i, j, k, t| {
        let tap = taps[t];
        let (co, ci) = (tap.cout as usize, tap.cin as usize);
        if !tap.is_center() {
            // Spatial coupling is component-diagonal.
            if co != ci {
                return 0.0;
            }
            let nb = (cell as i64 + grid.stride(tap.dx, tap.dy, tap.dz)) as usize;
            let w = if tap.dz != 0 { dirz_weight } else { 1.0 };
            let tvl = harmonic(comp_kappa[co](cell), comp_kappa[co](nb)) * w;
            return -tvl * (1.0 - skew * downwind(tap.dx, tap.dy, tap.dz));
        }
        if co == ci {
            // Diagonal: spatial row sum + absorption + exchange sums.
            let mut acc = sigma(cell, co);
            for (dx, dy, dz) in
                [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)]
            {
                if !grid.contains_offset(i, j, k, dx, dy, dz) {
                    continue;
                }
                let nb = (cell as i64 + grid.stride(dx, dy, dz)) as usize;
                let w = if dz != 0 { dirz_weight } else { 1.0 };
                acc += harmonic(comp_kappa[co](cell), comp_kappa[co](nb))
                    * w
                    * (1.0 + skew * downwind(dx, dy, dz));
            }
            for other in 0..r {
                if other != co {
                    acc += exchange(cell, co.min(other), co.max(other));
                }
            }
            acc
        } else {
            -exchange(cell, co.min(ci), co.max(ci))
        }
    })
}

/// rhd-3T: radiation/electron/ion temperatures with ~12 decades between
/// the diffusion scales and rough (barely smoothed) coefficient fields —
/// the "highly anisotropic, multi-scale" hard case. CG.
fn rhd3t(n: usize) -> SgDia<f64> {
    let grid = Grid3::with_components(n, n, n, 3);
    let sg = Grid3::cube(n);
    // Unsmoothed fields: the 3T coupling is non-smooth (multi-physics
    // interfaces), the source of its "highly anisotropic" label.
    let f0 = Field::smooth_gaussian(sg, 0x371, 0);
    let f1 = Field::smooth_gaussian(sg, 0x372, 0);
    let f2 = Field::smooth_gaussian(sg, 0x373, 0);
    let kap: Vec<Box<dyn Fn(usize) -> f64>> = vec![
        Box::new(move |c| f0.log_coefficient(c, 1.0e2, 1.0e9)), // radiation
        Box::new(move |c| f1.log_coefficient(c, 1.0e-4, 1.0e2)), // electron
        Box::new(move |c| f2.log_coefficient(c, 1.0e-10, 1.0e-3)), // ion
    ];
    let xf = Field::smooth_gaussian(sg, 0x374, 1);
    let exchange = move |cell: usize, lo: usize, hi: usize| {
        if lo + 1 != hi {
            return 0.0; // radiation couples e⁻, e⁻ couples ions
        }
        let base = if lo == 0 { 1.0e3 } else { 1.0e-2 };
        base * xf.log_coefficient(cell, 1.0e-2, 1.0e2)
    };
    coupled_diffusion(grid, kap, exchange, 1.0, 0.0, |_, c| [1.0e1, 1.0e-3, 1.0e-7][c])
}

/// oil-4C: four-component reservoir system; magnitudes pushed near the
/// FP16 boundary; mildly nonsymmetric → GMRES.
fn oil4c(n: usize) -> SgDia<f64> {
    let grid = Grid3::with_components(n, n, n, 4);
    let sg = Grid3::cube(n);
    let base = Field::layered(sg, 0x4c0, 0.5);
    let mut kap: Vec<Box<dyn Fn(usize) -> f64>> = Vec::new();
    for c in 0..4 {
        let f = base.clone();
        // Component mobility factors spread the magnitudes; the largest
        // couplings land just past FP16_MAX ("near" distance).
        let mobility = [5.0e3, 1.2e3, 2.0e2, 8.0][c];
        kap.push(Box::new(move |cell| mobility * f.log_coefficient(cell, 1.0e-2, 3.0)));
    }
    let xf = Field::smooth_gaussian(sg, 0x4c1, 2);
    let exchange =
        move |cell: usize, _lo: usize, _hi: usize| 5.0 * xf.log_coefficient(cell, 0.1, 10.0);
    coupled_diffusion(grid, kap, exchange, 20.0, 0.12, |_, _| 1.0)
}

/// solid-3D: linear elasticity on 3d15 — for each neighbor offset with
/// unit direction `d̂`, the coupling block is `w (μ I + (λ+μ) d̂ d̂ᵀ)`;
/// the diagonal block accumulates all couplings (block-dominant SPD).
/// Lamé parameters ~1e7 put every value far outside FP16. CG.
fn solid3d(n: usize) -> SgDia<f64> {
    let grid = Grid3::with_components(n, n, n, 3);
    let pat = Pattern::p15().with_components(3);
    let taps: Vec<Tap> = pat.taps().to_vec();
    let mu = 8.0e6;
    let lam = 1.2e7;
    let sg = Grid3::cube(n);
    let stiff = Field::smooth_gaussian(sg, 0x5011, 4);
    let block = move |dx: i32, dy: i32, dz: i32, co: usize, ci: usize| -> f64 {
        let len2 = (dx * dx + dy * dy + dz * dz) as f64;
        let w = if len2 <= 1.0 { 1.0 } else { 1.0 / 3.0 }; // corners weaker
        let d = [dx as f64, dy as f64, dz as f64];
        let dd = d[co] * d[ci] / len2;
        w * (if co == ci { mu } else { 0.0 } + (lam + mu) * dd)
    };
    let sgrid = sg;
    let modulation = move |cell: usize| 1.0 + 0.2 * stiff.at(cell).clamp(-2.5, 2.5) * 0.4;
    SgDia::from_fn(grid, pat, Layout::Soa, |cell, i, j, k, t| {
        let tap = taps[t];
        let (co, ci) = (tap.cout as usize, tap.cin as usize);
        if !tap.is_center() {
            // Symmetric edge stiffness: geometric mean of the two cells.
            let nb = (cell as i64 + sgrid.stride(tap.dx, tap.dy, tap.dz)) as usize;
            let m = (modulation(cell) * modulation(nb)).sqrt();
            return -block(tap.dx, tap.dy, tap.dz, co, ci) * m;
        }
        // Diagonal block: sum of all neighbor blocks with matching edge
        // factors (missing neighbors contribute eliminated-Dirichlet style
        // with the cell's own factor) plus a small stabilizing shift.
        let mut acc = 0.0;
        for tp in &taps {
            if tp.is_center() || tp.cout as usize != co || tp.cin as usize != ci {
                continue;
            }
            let m = if sgrid.contains_offset(i, j, k, tp.dx, tp.dy, tp.dz) {
                let nb = (cell as i64 + sgrid.stride(tp.dx, tp.dy, tp.dz)) as usize;
                (modulation(cell) * modulation(nb)).sqrt()
            } else {
                modulation(cell)
            };
            acc += block(tp.dx, tp.dy, tp.dz, co, ci) * m;
        }
        acc + if co == ci { 0.05 * mu * modulation(cell) } else { 0.0 }
    })
}
