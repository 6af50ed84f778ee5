//! Multigrid tests: Galerkin coarsening validated against an explicit
//! dense triple product, transfer-operator adjointness, and end-to-end
//! convergence of every precision/scaling configuration.

use fp16mg_fp::Precision;
use fp16mg_grid::Grid3;
use fp16mg_krylov::{cg, richardson, Preconditioner, SolveOptions, StopReason};
use fp16mg_sgdia::kernels::Par;
use fp16mg_sgdia::{Csr, Layout, SgDia};
use fp16mg_stencil::Pattern;

use crate::{
    galerkin_rap, prolong_add, restrict, DenseLu, MatOp, Mg, MgConfig, ScaleStrategy, StoragePolicy,
};

/// 7-point (or 27-point) Laplacian with Dirichlet boundary: off-diagonals
/// -1, diagonal = #neighbors + shift (strict dominance keeps it SPD and
/// the coarse LU nonsingular).
pub(crate) fn laplacian(grid: Grid3, pattern: Pattern, scale: f64) -> SgDia<f64> {
    let taps: Vec<_> = pattern.taps().to_vec();
    SgDia::from_fn(grid, pattern.clone(), Layout::Soa, |_, i, j, k, t| {
        if taps[t].is_diagonal() {
            let mut nb = 0.0;
            for tap in &taps {
                if !tap.is_diagonal() && grid.contains_offset(i, j, k, tap.dx, tap.dy, tap.dz) {
                    nb += 1.0;
                }
            }
            (nb + 0.05) * scale
        } else {
            -scale
        }
    })
}

/// Two weakly coupled diffusion components (at `s = 4e3`, the operator of
/// `repro audit`'s two-component demo): intra-component 7-point
/// Laplacians of magnitude `s`, plus a tiny same-cell inter-component
/// coupling. Prolongation acts componentwise, so Galerkin coarsening can
/// never smear the weak channel into the strong one — and RAP growth (~4x
/// per level) pushes the hierarchy across FP16_MAX at an interior level,
/// where scaling kicks in and the weak channel drops below the FP16 normal
/// range.
fn weakly_coupled_components(n: usize, s: f64) -> SgDia<f64> {
    let grid = Grid3::with_components(n, n, n, 2);
    let pat = Pattern::p7().with_components(2);
    let taps: Vec<_> = pat.taps().to_vec();
    SgDia::from_fn(grid, pat, Layout::Soa, |_, _, _, _, t| {
        let tap = taps[t];
        if tap.is_diagonal() {
            6.05 * s
        } else if tap.dx == 0 && tap.dy == 0 && tap.dz == 0 {
            -1.0e-5 * s
        } else if tap.cin == tap.cout {
            -s
        } else {
            0.0
        }
    })
}

fn rhs(n: usize) -> Vec<f64> {
    (0..n).map(|i| ((i as f64 * 0.7).sin() + 1.5) / 2.0).collect()
}

#[test]
fn rap_matches_explicit_triple_product() {
    let fine = Grid3::new(5, 4, 3);
    let coarse = fine.coarsen();
    let a = laplacian(fine, Pattern::p7(), 1.0);
    let ac = galerkin_rap(&a);
    assert_eq!(*ac.grid(), coarse);
    assert_eq!(ac.pattern().name(), "3d27");

    // Build P explicitly by prolongating coarse unit vectors.
    let nf = fine.unknowns();
    let nc = coarse.unknowns();
    let mut p = vec![0.0f64; nf * nc];
    for c in 0..nc {
        let mut uc = vec![0.0f64; nc];
        uc[c] = 1.0;
        let mut uf = vec![0.0f64; nf];
        prolong_add(&fine, &coarse, &uc, &mut uf);
        for f in 0..nf {
            p[f * nc + c] = uf[f];
        }
    }
    // Dense Pᵀ A P.
    let csr = Csr::<f64>::from_sgdia(&a);
    let mut arow = vec![0.0f64; nf];
    let mut ap = vec![0.0f64; nf * nc]; // A * P
    for f in 0..nf {
        csr.dense_row(f, &mut arow);
        for g in 0..nf {
            let v = arow[g];
            if v == 0.0 {
                continue;
            }
            for c in 0..nc {
                ap[f * nc + c] += v * p[g * nc + c];
            }
        }
    }
    let mut rap = vec![0.0f64; nc * nc];
    for f in 0..nf {
        for rr in 0..nc {
            let w = p[f * nc + rr];
            if w == 0.0 {
                continue;
            }
            for c in 0..nc {
                rap[rr * nc + c] += w * ap[f * nc + c];
            }
        }
    }
    // Compare against the structured RAP via its CSR.
    let ac_csr = Csr::<f64>::from_sgdia(&ac);
    let mut acrow = vec![0.0f64; nc];
    for rr in 0..nc {
        ac_csr.dense_row(rr, &mut acrow);
        for c in 0..nc {
            let diff = (acrow[c] - rap[rr * nc + c]).abs();
            assert!(
                diff < 1e-12,
                "RAP mismatch at ({rr},{c}): {} vs {}",
                acrow[c],
                rap[rr * nc + c]
            );
        }
    }
}

#[test]
fn rap_preserves_symmetry() {
    let a = laplacian(Grid3::new(6, 5, 4), Pattern::p7(), 3.0);
    let ac = galerkin_rap(&a);
    let csr = Csr::<f64>::from_sgdia(&ac);
    let n = csr.rows();
    let mut row_i = vec![0.0f64; n];
    let mut row_j = vec![0.0f64; n];
    for i in 0..n {
        csr.dense_row(i, &mut row_i);
        for (j, &v) in row_i.iter().enumerate().skip(i + 1) {
            if v != 0.0 {
                csr.dense_row(j, &mut row_j);
                assert!((v - row_j[i]).abs() < 1e-13, "asymmetric at ({i},{j})");
            }
        }
    }
}

#[test]
fn transfer_operators_are_adjoint() {
    let fine = Grid3::new(7, 6, 5);
    let coarse = fine.coarsen();
    let uc: Vec<f64> = (0..coarse.unknowns()).map(|i| (i as f64 * 0.31).cos()).collect();
    let vf: Vec<f64> = (0..fine.unknowns()).map(|i| (i as f64 * 0.17).sin()).collect();
    // <P uc, vf>
    let mut puc = vec![0.0f64; fine.unknowns()];
    prolong_add(&fine, &coarse, &uc, &mut puc);
    let lhs: f64 = puc.iter().zip(&vf).map(|(&a, &b)| a * b).sum();
    // <uc, Pᵀ vf>
    let mut rv = vec![0.0f64; coarse.unknowns()];
    restrict(&fine, &coarse, &vf, &mut rv);
    let rhs_: f64 = uc.iter().zip(&rv).map(|(&a, &b)| a * b).sum();
    assert!((lhs - rhs_).abs() < 1e-10 * lhs.abs().max(1.0));
}

#[test]
fn prolongation_partition_of_unity_interior() {
    // A constant coarse vector prolongates to the constant on fine cells
    // whose parents all exist (interior; odd-coordinate boundary cells may
    // lose a parent).
    // Weight folding at odd boundary coordinates keeps the row sums at
    // exactly 1 on every cell, so constants prolongate to constants.
    for fine in [Grid3::new(8, 8, 8), Grid3::new(9, 7, 5)] {
        let coarse = fine.coarsen();
        let uc = vec![1.0f64; coarse.unknowns()];
        let mut uf = vec![0.0f64; fine.unknowns()];
        prolong_add(&fine, &coarse, &uc, &mut uf);
        for (cell, i, j, k) in fine.iter_cells() {
            assert!((uf[cell] - 1.0).abs() < 1e-12, "cell ({i},{j},{k}) = {}", uf[cell]);
        }
    }
}

#[test]
fn vector_transfers_act_componentwise() {
    let fine = Grid3::with_components(6, 4, 4, 3);
    let coarse = fine.coarsen();
    // Component c of the coarse vector = c everywhere; prolongation must
    // keep components separated.
    let mut uc = vec![0.0f64; coarse.unknowns()];
    for c in 0..3 {
        uc[coarse.field(c)].fill(c as f64);
    }
    let mut uf = vec![0.0f64; fine.unknowns()];
    prolong_add(&fine, &coarse, &uc, &mut uf);
    for cell in 0..fine.cells() {
        // Weights sum to at most 1; whatever the sum w, component c gets
        // w * c, so uf[1]/1 == uf[2]/2 wherever nonzero.
        let u1 = uf[fine.unknown_of(cell, 1)];
        let u2 = uf[fine.unknown_of(cell, 2)];
        assert!((u2 - 2.0 * u1).abs() < 1e-12);
        assert_eq!(uf[fine.unknown_of(cell, 0)], 0.0);
    }
}

#[test]
fn dense_lu_solves() {
    let a = laplacian(Grid3::new(4, 3, 3), Pattern::p7(), 2.0);
    let lu = DenseLu::factor(&a).unwrap();
    let n = a.rows();
    let b = rhs(n);
    let mut x = b.clone();
    let mut s = vec![0.0f64; n];
    lu.solve(&mut x, &mut s);
    // Check A x = b.
    let mut ax = vec![0.0f64; n];
    fp16mg_sgdia::kernels::spmv(&a, &x, &mut ax, Par::Seq);
    for (u, v) in ax.iter().zip(&b) {
        assert!((u - v).abs() < 1e-10);
    }
}

/// Runs MG-preconditioned Richardson as a plain solver on a Laplacian.
fn mg_solver_iters(config: &MgConfig, pattern: Pattern, scale: f64) -> (StopReason, usize) {
    let grid = Grid3::cube(16);
    let a = laplacian(grid, pattern, scale);
    let mut mg = Mg::<f32>::setup(&a, config).expect("setup");
    let op = MatOp::new(&a, Par::Seq);
    let b = rhs(a.rows());
    let mut x = vec![0.0f64; a.rows()];
    let opts = SolveOptions { tol: 1e-8, max_iters: 100, ..Default::default() };
    let res = richardson(&op, &mut mg, &b, &mut x, &opts);
    (res.reason, res.iters)
}

#[test]
fn mg_richardson_converges_fast_d32() {
    let (reason, iters) = mg_solver_iters(&MgConfig::d32(), Pattern::p7(), 1.0);
    assert_eq!(reason, StopReason::Converged);
    assert!(iters <= 15, "V(1,1) on Poisson should converge in ~10 iters, got {iters}");
}

#[test]
fn mg_richardson_converges_d16_in_range() {
    let (reason, iters) = mg_solver_iters(&MgConfig::d16(), Pattern::p7(), 1.0);
    assert_eq!(reason, StopReason::Converged);
    let (_, iters32) = mg_solver_iters(&MgConfig::d32(), Pattern::p7(), 1.0);
    assert!(
        iters <= iters32 + 4,
        "FP16 storage should barely affect convergence in range: {iters} vs {iters32}"
    );
}

#[test]
fn mg_d16_none_breaks_down_out_of_range() {
    // laplace27*1e8 analog: coefficients far beyond FP16_MAX. Without
    // scaling the truncation overflows and the solve must break down with
    // NaN (§3.4), not silently "converge". Runtime recovery is disabled
    // here to observe the paper's original fail-fast behavior; the
    // self-healing counterpart is the test below.
    let cfg = MgConfig {
        scale: ScaleStrategy::None,
        recovery: crate::RecoveryPolicy::disabled(),
        ..MgConfig::d16()
    };
    let (reason, _) = mg_solver_iters(&cfg, Pattern::p7(), 1.0e8);
    assert_eq!(reason, StopReason::Breakdown);
}

#[test]
fn mg_d16_none_out_of_range_self_heals_with_recovery_on() {
    // Same overflowed configuration, recovery left on (the default): the
    // hierarchy, insured by the operator, detects the non-finite V-cycle
    // output, promotes the overflowed FP16 levels to FP32, and the solve
    // converges anyway.
    let cfg = MgConfig { scale: ScaleStrategy::None, ..MgConfig::d16() };
    let grid = Grid3::cube(16);
    let a = laplacian(grid, Pattern::p7(), 1.0e8);
    let mut mg = Mg::<f32>::setup(&a, &cfg).unwrap();
    let op = MatOp::new(&a, Par::Seq);
    let b = rhs(a.rows());
    let mut x = vec![0.0f64; a.rows()];
    let res = richardson(&op, &mut mg.insured(&a), &b, &mut x, &SolveOptions::default());
    assert!(res.converged(), "{res:?}");
    assert!(!mg.info().promotions.is_empty(), "healing must have promoted a level");
    assert!(mg
        .info()
        .promotions
        .iter()
        .all(|e| e.reason == crate::PromotionReason::NonFiniteOutput));
}

#[test]
fn mg_d16_setup_then_scale_rescues_out_of_range() {
    let cfg = MgConfig { scale: ScaleStrategy::SetupThenScale, ..MgConfig::d16() };
    let (reason, iters) = mg_solver_iters(&cfg, Pattern::p7(), 1.0e8);
    assert_eq!(reason, StopReason::Converged);
    // And convergence should match the in-range FP16 run (scaling is
    // exact up to rounding).
    let (_, iters_in) = mg_solver_iters(&MgConfig::d16(), Pattern::p7(), 1.0);
    assert!(iters <= iters_in + 3, "{iters} vs {iters_in}");
}

#[test]
fn mg_d16_scale_then_setup_also_converges_on_benign_problem() {
    // On the isotropic constant-coefficient Laplacian both strategies
    // work (Fig. 6b: curves coincide); the difference appears on
    // real-world numerics, exercised in the problems crate.
    let cfg = MgConfig { scale: ScaleStrategy::ScaleThenSetup, ..MgConfig::d16() };
    let (reason, _) = mg_solver_iters(&cfg, Pattern::p7(), 1.0e8);
    assert_eq!(reason, StopReason::Converged);
}

#[test]
fn mg_cg_beats_unpreconditioned() {
    let grid = Grid3::cube(16);
    let a = laplacian(grid, Pattern::p7(), 1.0);
    let op = MatOp::new(&a, Par::Seq);
    let b = rhs(a.rows());
    let opts = SolveOptions { tol: 1e-9, max_iters: 400, ..Default::default() };

    let mut x0 = vec![0.0f64; a.rows()];
    let plain = cg(&op, &mut fp16mg_krylov::IdentityPrecond, &b, &mut x0, &opts);

    let mut mg = Mg::<f32>::setup(&a, &MgConfig::d16()).unwrap();
    let mut x1 = vec![0.0f64; a.rows()];
    let pre = cg(&op, &mut mg, &b, &mut x1, &opts);

    assert!(plain.converged() && pre.converged());
    assert!(pre.iters * 3 < plain.iters, "MG-CG {} vs plain CG {}", pre.iters, plain.iters);
}

#[test]
fn mg_p27_pattern_converges() {
    let (reason, iters) = mg_solver_iters(&MgConfig::d16(), Pattern::p27(), 1.0);
    assert_eq!(reason, StopReason::Converged);
    assert!(iters <= 20);
}

#[test]
fn mg_vector_pde_converges() {
    // 2-component coupled Laplacian: weak inter-component coupling at the
    // diagonal block.
    let grid = Grid3::with_components(12, 12, 12, 2);
    let pat = Pattern::p7().with_components(2);
    let taps: Vec<_> = pat.taps().to_vec();
    let a = SgDia::from_fn(grid, pat, Layout::Aos, |_, i, j, k, t| {
        let tap = taps[t];
        if tap.is_diagonal() {
            let mut nb = 0.0;
            for tp in &taps {
                if tp.cout == tap.cout
                    && !tp.is_center()
                    && grid.contains_offset(i, j, k, tp.dx, tp.dy, tp.dz)
                {
                    nb += 1.0;
                }
            }
            nb + 0.4
        } else if tap.is_center() {
            0.15 // inter-component coupling
        } else if tap.cin == tap.cout {
            -1.0
        } else {
            0.0
        }
    });
    let mut mg = Mg::<f32>::setup(&a, &MgConfig::d16()).unwrap();
    let op = MatOp::new(&a, Par::Seq);
    let b = rhs(a.rows());
    let mut x = vec![0.0f64; a.rows()];
    let opts = SolveOptions { tol: 1e-8, max_iters: 60, ..Default::default() };
    let res = cg(&op, &mut mg, &b, &mut x, &opts);
    assert!(res.converged(), "{res:?}");
}

#[test]
fn shift_levid_policy_sets_level_precisions() {
    let grid = Grid3::cube(32);
    let a = laplacian(grid, Pattern::p7(), 1.0);
    let cfg = MgConfig { storage: StoragePolicy::Fp16Until { shift_levid: 2 }, ..MgConfig::d16() };
    let mg = Mg::<f32>::setup(&a, &cfg).unwrap();
    let info = mg.info();
    assert!(info.levels.len() >= 4, "expected ≥4 levels, got {}", info.levels.len());
    assert_eq!(info.levels[0].precision, Precision::F16);
    assert_eq!(info.levels[1].precision, Precision::F16);
    for l in &info.levels[2..info.levels.len() - 1] {
        assert_eq!(l.precision, Precision::F32);
    }
    // shift_levid still converges.
    let op = MatOp::new(&a, Par::Seq);
    let b = rhs(a.rows());
    let mut x = vec![0.0f64; a.rows()];
    let mut mg = mg;
    let res = richardson(&op, &mut mg, &b, &mut x, &SolveOptions::default());
    assert!(res.converged());
}

#[test]
fn complexities_are_low_for_full_coarsening() {
    // Guideline 3's premise: C_G ≲ 8/7, C_O modest.
    let a = laplacian(Grid3::cube(32), Pattern::p7(), 1.0);
    let mg = Mg::<f32>::setup(&a, &MgConfig::d32()).unwrap();
    let info = mg.info();
    assert!(info.grid_complexity < 1.25, "C_G = {}", info.grid_complexity);
    assert!(info.operator_complexity < 6.0, "C_O = {}", info.operator_complexity);
    assert!(info.grid_complexity > 1.0);
}

#[test]
fn fp16_halves_matrix_bytes_vs_fp32() {
    let a = laplacian(Grid3::cube(16), Pattern::p7(), 1.0);
    let m16 = Mg::<f32>::setup(&a, &MgConfig::d16()).unwrap();
    let m32 = Mg::<f32>::setup(&a, &MgConfig::d32()).unwrap();
    assert_eq!(m32.info().matrix_bytes, 2 * m16.info().matrix_bytes);
}

#[test]
fn workspace_holds_five_vectors_per_smoothed_level() {
    // u, f, r and the scaled pair t1, t2 on every level but the coarsest,
    // which the dense LU solves from its own buffers.
    fn check<Pr: fp16mg_fp::Scalar>(a: &SgDia<f64>) {
        let mg = Mg::<Pr>::setup(a, &MgConfig::d16()).unwrap();
        let levels = &mg.info().levels;
        assert!(levels.len() >= 3, "{} levels", levels.len());
        let smoothed: usize = levels[..levels.len() - 1].iter().map(|l| l.unknowns).sum();
        assert_eq!(mg.workspace_bytes(), 5 * smoothed * core::mem::size_of::<Pr>());
    }
    check::<f32>(&laplacian(Grid3::cube(16), Pattern::p27(), 1.0));
    check::<f64>(&laplacian(Grid3::new(17, 12, 9), Pattern::p7(), 1.0e8));
}

#[test]
fn setup_reports_scaling_metadata() {
    let a = laplacian(Grid3::cube(12), Pattern::p7(), 1.0e8);
    let mg = Mg::<f32>::setup(&a, &MgConfig::d16()).unwrap();
    let info = mg.info();
    // Finest level must be scaled (values ≫ FP16_MAX) and finite after
    // truncation (Theorem 4.1).
    assert!(info.levels[0].scaled);
    assert!(info.levels[0].finite);
    assert!(info.levels[0].g.unwrap() > 0.0);
    // Same matrix without scaling: truncation overflows.
    let cfg = MgConfig { scale: ScaleStrategy::None, ..MgConfig::d16() };
    let mg_none = Mg::<f32>::setup(&a, &cfg).unwrap();
    assert!(!mg_none.info().levels[0].finite);
}

#[test]
fn preconditioner_trait_round_trips_precision() {
    // Apply through the K=f64 trait; the result must equal the K=Pr=f32
    // application modulo the f64→f32→f64 boundary conversions.
    let a = laplacian(Grid3::cube(8), Pattern::p7(), 1.0);
    let mut mg = Mg::<f32>::setup(&a, &MgConfig::d32()).unwrap();
    let r: Vec<f64> = rhs(a.rows());
    let mut z = vec![0.0f64; a.rows()];
    Preconditioner::<f64>::apply(&mut mg, &r, &mut z);
    let rp: Vec<f32> = r.iter().map(|&v| v as f32).collect();
    let mut zp = vec![0.0f32; a.rows()];
    Preconditioner::<f32>::apply(&mut mg, &rp, &mut zp);
    for (a, b) in z.iter().zip(&zp) {
        assert!((*a - *b as f64).abs() < 1e-6 * (1.0 + a.abs()));
    }
}

#[test]
fn single_level_hierarchy_is_direct_solve() {
    let a = laplacian(Grid3::new(4, 3, 2), Pattern::p7(), 1.0);
    let cfg = MgConfig { max_levels: 1, ..MgConfig::d32() };
    let mut mg = Mg::<f32>::setup(&a, &cfg).unwrap();
    assert_eq!(mg.num_levels(), 1);
    let b = rhs(a.rows());
    let op = MatOp::new(&a, Par::Seq);
    let mut x = vec![0.0f64; a.rows()];
    let res = richardson(&op, &mut mg, &b, &mut x, &SolveOptions::default());
    // A direct solve converges in ~1 iteration (f32 truncation limits it).
    assert!(res.converged());
    assert!(res.iters <= 3, "direct solve took {} iters", res.iters);
}

/// An 8³ 7-point operator whose diagonal is -1e8: negative, and out of
/// FP16 range, so a level built from it would need scaling.
fn negative_diagonal_cube() -> SgDia<f64> {
    SgDia::<f64>::from_fn(Grid3::cube(8), Pattern::p7(), Layout::Soa, |_, _, _, _, t| {
        if Pattern::p7().taps()[t].is_diagonal() {
            -1.0e8
        } else {
            1.0
        }
    })
}

#[test]
fn a_nonpositive_finest_diagonal_is_refused_under_every_strategy() {
    // Theorem 4.1 scales by the diagonal and Gauss–Seidel pivots on it, so
    // a level 0 that would be smoothed with a negative one is refused,
    // whatever the scaling strategy; one not smoothed goes to the dense LU.
    let a = negative_diagonal_cube();
    let want = crate::SetupError::NonPositiveDiagonal { level: 0, unknown: 0, value: -1.0e8 };
    for scale in [ScaleStrategy::SetupThenScale, ScaleStrategy::ScaleThenSetup, ScaleStrategy::None]
    {
        let cfg = MgConfig { scale, ..MgConfig::d16() };
        assert_eq!(Mg::<f32>::setup(&a, &cfg).map(|_| ()).unwrap_err(), want, "{scale:?}");
        if scale != ScaleStrategy::ScaleThenSetup {
            assert_eq!(crate::GalerkinChain::build(&a, &cfg).unwrap_err(), want, "{scale:?}");
            let one = Mg::<f32>::setup(&a, &MgConfig { max_levels: 1, ..cfg }).unwrap();
            assert_eq!(one.num_levels(), 1, "{scale:?}");
        }
    }
}

#[test]
fn scale_then_setup_rejects_nonpositive_diagonal() {
    // The strategy that scales the finest matrix up front checks its
    // diagonal before anything else: the M-matrix prerequisite is a hard
    // error there, naming the first offending unknown.
    let cfg = MgConfig { scale: ScaleStrategy::ScaleThenSetup, ..MgConfig::d16() };
    let err = match Mg::<f32>::setup(&negative_diagonal_cube(), &cfg) {
        Err(e) => e,
        Ok(_) => panic!("expected setup to fail"),
    };
    assert_eq!(err, crate::SetupError::NonPositiveDiagonal { level: 0, unknown: 0, value: -1.0e8 });
}

#[test]
fn semicoarsened_rap_matches_explicit_triple_product() {
    // Same consistency check as the full-coarsening test, but coarsening
    // only z (strong-direction semicoarsening).
    let fine = Grid3::new(4, 3, 6);
    let a = laplacian(fine, Pattern::p7(), 1.0);
    let ac = crate::galerkin_rap_axes(&a, (false, false, true));
    let coarse = *ac.grid();
    assert_eq!((coarse.nx, coarse.ny, coarse.nz), (4, 3, 3));

    let nf = fine.unknowns();
    let nc = coarse.unknowns();
    let mut p = vec![0.0f64; nf * nc];
    for c in 0..nc {
        let mut uc = vec![0.0f64; nc];
        uc[c] = 1.0;
        let mut uf = vec![0.0f64; nf];
        prolong_add(&fine, &coarse, &uc, &mut uf);
        for f in 0..nf {
            p[f * nc + c] = uf[f];
        }
    }
    let csr = Csr::<f64>::from_sgdia(&a);
    let mut arow = vec![0.0f64; nf];
    let mut ap = vec![0.0f64; nf * nc];
    for f in 0..nf {
        csr.dense_row(f, &mut arow);
        for g in 0..nf {
            let v = arow[g];
            if v == 0.0 {
                continue;
            }
            for c in 0..nc {
                ap[f * nc + c] += v * p[g * nc + c];
            }
        }
    }
    let mut rap = vec![0.0f64; nc * nc];
    for f in 0..nf {
        for rr in 0..nc {
            let w = p[f * nc + rr];
            if w == 0.0 {
                continue;
            }
            for c in 0..nc {
                rap[rr * nc + c] += w * ap[f * nc + c];
            }
        }
    }
    let ac_csr = Csr::<f64>::from_sgdia(&ac);
    let mut acrow = vec![0.0f64; nc];
    for rr in 0..nc {
        ac_csr.dense_row(rr, &mut acrow);
        for c in 0..nc {
            assert!((acrow[c] - rap[rr * nc + c]).abs() < 1e-12, "({rr},{c})");
        }
    }
}

#[test]
fn directional_strength_detects_anisotropy() {
    // z-coupling 50x stronger than x/y.
    let grid = Grid3::cube(8);
    let pat = Pattern::p7();
    let taps: Vec<_> = pat.taps().to_vec();
    let a = SgDia::<f64>::from_fn(grid, pat, Layout::Soa, |_, _, _, _, t| {
        let tap = taps[t];
        if tap.is_diagonal() {
            104.0
        } else if tap.dz != 0 {
            -50.0
        } else {
            -1.0
        }
    });
    let s = crate::directional_strength(&a);
    assert!(s[2] > 40.0 * s[0] && s[2] > 40.0 * s[1], "{s:?}");
}

#[test]
fn semicoarsening_beats_full_coarsening_on_anisotropic_problem() {
    use crate::Coarsening;
    // Strong z-coupling: point GS + full coarsening struggles;
    // semicoarsening in z restores fast convergence.
    let grid = Grid3::cube(16);
    let pat = Pattern::p7();
    let taps: Vec<_> = pat.taps().to_vec();
    let a = SgDia::<f64>::from_fn(grid, pat, Layout::Soa, |_, i, j, k, t| {
        let tap = taps[t];
        if tap.is_diagonal() {
            let mut acc = 0.05;
            for tp in &taps {
                if !tp.is_diagonal() && grid.contains_offset(i, j, k, tp.dx, tp.dy, tp.dz) {
                    acc += if tp.dz != 0 { 100.0 } else { 1.0 };
                }
            }
            acc
        } else if tap.dz != 0 {
            -100.0
        } else {
            -1.0
        }
    });
    let b = rhs(a.rows());
    let op = MatOp::new(&a, Par::Seq);
    let opts = SolveOptions { tol: 1e-8, max_iters: 200, ..Default::default() };
    let mut iters = Vec::new();
    for coarsening in [Coarsening::Full, Coarsening::Semi { threshold: 0.5 }] {
        let cfg = MgConfig { coarsening, ..MgConfig::d16() };
        let mut mg = Mg::<f32>::setup(&a, &cfg).unwrap();
        let mut x = vec![0.0f64; a.rows()];
        let res = cg(&op, &mut mg, &b, &mut x, &opts);
        assert!(res.converged(), "{coarsening:?}: {res:?}");
        iters.push(res.iters);
    }
    assert!(
        iters[1] * 2 <= iters[0],
        "semicoarsening {} should at least halve full coarsening's {}",
        iters[1],
        iters[0]
    );
}

#[test]
fn semicoarsening_on_isotropic_problem_acts_like_full() {
    use crate::Coarsening;
    let cfg = MgConfig { coarsening: Coarsening::Semi { threshold: 0.5 }, ..MgConfig::d16() };
    let (reason, iters) = mg_solver_iters(&cfg, Pattern::p7(), 1.0);
    assert_eq!(reason, StopReason::Converged);
    let (_, full_iters) = mg_solver_iters(&MgConfig::d16(), Pattern::p7(), 1.0);
    assert_eq!(iters, full_iters, "isotropic: semicoarsening must pick all axes");
}

// ------------------------------------------------- config validation --

mod validation {
    use super::*;
    use crate::{Coarsening, ConfigError, SetupError};
    use fp16mg_sgdia::scaling::GChoice;

    fn setup_err(cfg: MgConfig) -> SetupError {
        let a = laplacian(Grid3::cube(8), Pattern::p7(), 1.0);
        match Mg::<f32>::setup(&a, &cfg) {
            Ok(_) => panic!("config must be rejected"),
            Err(e) => e,
        }
    }

    #[test]
    fn rejects_zero_levels() {
        let cfg = MgConfig { max_levels: 0, ..MgConfig::d16() };
        assert_eq!(setup_err(cfg), SetupError::InvalidConfig(ConfigError::NoLevels));
    }

    #[test]
    fn rejects_shift_beyond_levels() {
        let cfg = MgConfig {
            storage: StoragePolicy::Fp16Until { shift_levid: 11 },
            max_levels: 10,
            ..MgConfig::default()
        };
        assert_eq!(
            setup_err(cfg),
            SetupError::InvalidConfig(ConfigError::ShiftBeyondLevels {
                shift_levid: 11,
                max_levels: 10
            })
        );
        // usize::MAX is the documented "all FP16" sentinel, not an error.
        let cfg = MgConfig {
            storage: StoragePolicy::Fp16Until { shift_levid: usize::MAX },
            ..MgConfig::default()
        };
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn rejects_no_smoothing() {
        let cfg = MgConfig { nu1: 0, nu2: 0, ..MgConfig::d16() };
        assert_eq!(setup_err(cfg), SetupError::InvalidConfig(ConfigError::NoSmoothing));
    }

    #[test]
    fn rejects_bad_fixed_g() {
        for g in [0.0, -2.0, f64::NAN, f64::INFINITY] {
            let cfg = MgConfig { g_choice: GChoice::Fixed(g), ..MgConfig::d16() };
            match setup_err(cfg) {
                SetupError::InvalidConfig(ConfigError::InvalidG { .. }) => {}
                other => panic!("G = {g}: unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn rejects_bad_semi_threshold() {
        for threshold in [0.0, -1.0, 1.5, f64::NAN] {
            let cfg = MgConfig { coarsening: Coarsening::Semi { threshold }, ..MgConfig::d16() };
            match setup_err(cfg) {
                SetupError::InvalidConfig(ConfigError::InvalidSemiThreshold { .. }) => {}
                other => panic!("threshold = {threshold}: unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn singular_coarse_matrix_is_a_typed_error() {
        // Zero out one row: the (single-level) coarse LU must hit a zero
        // pivot and report it as SetupError::SingularCoarseMatrix instead
        // of panicking.
        let grid = Grid3::cube(4);
        let pat = Pattern::p7();
        let taps: Vec<_> = pat.taps().to_vec();
        let a = SgDia::<f64>::from_fn(grid, pat, Layout::Soa, |_, i, j, k, t| {
            if (i, j, k) == (0, 0, 0) {
                0.0
            } else if taps[t].is_diagonal() {
                6.05
            } else {
                -1.0
            }
        });
        let cfg = MgConfig { max_levels: 1, ..MgConfig::default() };
        match Mg::<f32>::setup(&a, &cfg).map(|_| ()) {
            Err(SetupError::SingularCoarseMatrix { .. }) => {}
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn a_coarsest_level_too_large_for_dense_lu_is_a_typed_error() {
        // A valid config whose one level (laplace27 at 21³ = 9 261
        // unknowns) exceeds DenseLu::MAX_UNKNOWNS: both setup paths refuse
        // it before the n² factorization is allocated.
        let a = laplacian(Grid3::cube(21), Pattern::p27(), 1.0);
        let cfg = MgConfig { max_levels: 1, ..MgConfig::d16() };
        assert!(cfg.validate().is_ok());
        let lu_bytes = |n: u64| n * n * 8;
        let want = SetupError::AllocTooLarge {
            what: "coarsest dense LU",
            bytes: lu_bytes(9261),
            limit: lu_bytes(crate::DenseLu::MAX_UNKNOWNS as u64),
        };
        assert_eq!(Mg::<f32>::setup(&a, &cfg).map(|_| ()).unwrap_err(), want);
        let chain = crate::GalerkinChain::build(&a, &cfg).unwrap();
        assert_eq!(Mg::<f32>::setup_from_chain(&chain, &cfg).map(|_| ()).unwrap_err(), want);
    }

    #[test]
    fn a_level_the_rule_ends_the_chain_at_but_too_large_for_dense_lu_is_refused_by_name() {
        // Diagonal 1 against six couplings of −1: level 0 keeps the rule,
        // but its Galerkin level 1 (24×24×16 = 9 216 rows, more than the
        // dense LU takes) has a diagonal entry ≤ 0. Set-up names that
        // entry rather than reporting an oversized LU.
        let a = SgDia::<f64>::from_fn(
            Grid3::new(48, 48, 32),
            Pattern::p7(),
            Layout::Soa,
            |_, _, _, _, t| {
                if Pattern::p7().taps()[t].is_diagonal() {
                    1.0
                } else {
                    -1.0
                }
            },
        );
        let l1 = galerkin_rap(&a);
        assert!(l1.rows() == 9216 && l1.rows() > DenseLu::MAX_UNKNOWNS);
        let diagonal = l1.extract_diagonal();
        let unknown = diagonal.iter().position(|&d| d <= 0.0).expect("an entry ≤ 0 on level 1");
        let want = SetupError::NonPositiveDiagonal { level: 1, unknown, value: diagonal[unknown] };
        for cfg in [MgConfig::d16(), MgConfig::d64()] {
            assert_eq!(Mg::<f32>::setup(&a, &cfg).map(|_| ()).unwrap_err(), want);
            assert_eq!(crate::GalerkinChain::build(&a, &cfg).unwrap_err(), want);
        }
    }
}

// --------------------------------------------------- runtime recovery --

mod recovery {
    use super::*;
    use crate::PromotionReason;
    use fp16mg_testkit::check;

    #[test]
    fn fp16_levels_scan_finite_after_setup_then_scale() {
        // Guard-layer property: whatever (possibly far out-of-range)
        // magnitude the fine operator has, every stored level of a
        // setup-then-scale FP16 hierarchy must classify as all-finite.
        check("fp16_levels_scan_finite_after_setup_then_scale", |rng| {
            let scale = 10.0f64.powf(rng.f64_range(-6.0, 9.0));
            let a = laplacian(Grid3::cube(8), Pattern::p7(), scale);
            let mg = Mg::<f32>::setup(&a, &MgConfig::d16()).unwrap();
            // num_levels counts the coarsest direct-solve level, which has
            // no stored truncation to scan.
            for lev in 0..mg.num_levels() - 1 {
                let scan = mg.scan_level(lev).unwrap();
                assert!(
                    scan.all_finite(),
                    "scale {scale:e}: level {lev} has {} non-finite entries",
                    scan.total.non_finite()
                );
            }
        });
    }

    #[test]
    fn manual_promotion_widens_level_and_keeps_convergence() {
        let a = laplacian(Grid3::cube(12), Pattern::p7(), 1.0);
        let mut mg = Mg::<f32>::setup(&a, &MgConfig::d16()).unwrap();
        assert_eq!(mg.info().levels[0].precision, Precision::F16);
        assert!(mg.insured(&a).can_promote());

        let ev = mg.insured(&a).promote_level(0, PromotionReason::Manual).expect("promotable");
        assert_eq!(ev.level, 0);
        assert_eq!(ev.from, Precision::F16);
        assert_eq!(ev.to, Precision::F32);
        assert_eq!(ev.corrupt_entries, 0, "clean hierarchy has nothing corrupt");
        assert_eq!(mg.info().levels[0].precision, Precision::F32);
        assert_eq!(mg.info().promotions.len(), 1);

        // The promoted hierarchy still preconditions correctly.
        let op = MatOp::new(&a, Par::Seq);
        let b = rhs(a.rows());
        let mut x = vec![0.0f64; a.rows()];
        let res = cg(&op, &mut mg, &b, &mut x, &SolveOptions::default());
        assert!(res.converged(), "{res:?}");
    }

    #[test]
    fn a_promoted_level_keeps_no_material_to_promote_again() {
        let a = laplacian(Grid3::cube(12), Pattern::p7(), 1.0);
        let mut mg = Mg::<f32>::setup(&a, &MgConfig::d16()).unwrap();
        let narrow: Vec<usize> = (0..mg.num_levels() - 1)
            .filter(|&i| mg.info().levels[i].precision == Precision::F16)
            .collect();
        assert!(narrow.len() > 1, "d16 stores more than one level in FP16: {narrow:?}");
        let mut insured = mg.insured(&a);
        for &level in &narrow {
            assert!(insured.can_promote());
            assert!(insured.promote_level(level, PromotionReason::Manual).is_some());
            // Same level again: already wide.
            assert!(insured.promote_level(level, PromotionReason::Manual).is_none());
        }
        // Every 16-bit level promoted once, and nothing is left to promote.
        assert!(!insured.can_promote());
        assert_eq!(mg.info().promotions.len(), narrow.len());
    }

    #[test]
    fn disabled_recovery_never_promotes() {
        let a = laplacian(Grid3::cube(12), Pattern::p7(), 1.0);
        let cfg = MgConfig { recovery: crate::RecoveryPolicy::disabled(), ..MgConfig::d16() };
        let mut mg = Mg::<f32>::setup(&a, &cfg).unwrap();
        let mut insured = mg.insured(&a);
        assert!(!insured.can_promote());
        assert!(insured.promote_level(0, PromotionReason::Manual).is_none());
    }

    #[test]
    fn full64_hierarchy_has_no_promotable_levels() {
        let a = laplacian(Grid3::cube(12), Pattern::p7(), 1.0);
        let mut mg = Mg::<f64>::setup(&a, &MgConfig::d64()).unwrap();
        let mut insured = mg.insured(&a);
        assert!(!insured.can_promote(), "no 16-bit level to promote");
        assert!(insured.promote_level(0, PromotionReason::Manual).is_none());
        assert!(mg.info().promotions.is_empty());
    }

    #[test]
    fn a_corrupt_level_without_material_promotes_nothing_in_its_place() {
        // A bare hierarchy with a non-finite level 0 and no lent operator
        // to mend it from: no promotion of a healthy coarse
        // level can clear the output, so none is spent and the non-finite
        // output reaches the solver.
        let a = laplacian(Grid3::cube(12), Pattern::p7(), 1.0);
        let mut mg = Mg::<f32>::setup(&a, &MgConfig::d16()).unwrap();
        let cell = (6 * 12 + 6) * 12 + 6;
        assert!(mg.stored_mut(0).unwrap().inject_inf_at(cell, 0));
        let r: Vec<f32> = (0..a.rows()).map(|i| ((i % 7) as f32) * 0.1 + 0.1).collect();
        let mut e = vec![0.0f32; a.rows()];
        Preconditioner::<f32>::apply(&mut mg, &r, &mut e);
        assert!(e.iter().any(|v| !v.is_finite()), "the non-finite output is the solver's");
        let op = MatOp::new(&a, Par::Seq);
        let mut x = vec![0.0f64; a.rows()];
        let res = cg(&op, &mut mg, &rhs(a.rows()), &mut x, &SolveOptions::default());
        assert!(!res.converged(), "{res:?}");
        assert!(mg.info().promotions.is_empty(), "{:?}", mg.info().promotions);
        // Lent the operator, level 0 is promoted.
        Preconditioner::<f32>::apply(&mut mg.insured(&a), &r, &mut e);
        assert!(e.iter().all(|v| v.is_finite()));
        assert_eq!(mg.info().promotions.len(), 1);
        assert_eq!(mg.info().promotions[0].level, 0);
    }
}

mod audit_and_autoshift {
    use super::*;
    use crate::{RangeAudit, SetupError, TruncationError, TruncationPolicy};
    use fp16mg_sgdia::scaling::GChoice;

    #[test]
    fn precision_for_edge_cases() {
        // shift_levid = 0: no level qualifies for FP16.
        let p = StoragePolicy::Fp16Until { shift_levid: 0 };
        assert_eq!(p.precision_for(0), Precision::F32);
        assert_eq!(p.precision_for(7), Precision::F32);
        // usize::MAX: the documented all-FP16 sentinel.
        let p = StoragePolicy::Fp16Until { shift_levid: usize::MAX };
        assert_eq!(p.precision_for(0), Precision::F16);
        assert_eq!(p.precision_for(usize::MAX - 1), Precision::F16);
        // shift_levid == max_levels is valid (every smoothed level is FP16).
        let cfg = MgConfig {
            storage: StoragePolicy::Fp16Until { shift_levid: 10 },
            max_levels: 10,
            ..MgConfig::default()
        };
        assert!(cfg.validate().is_ok());
    }

    /// The FP16 underflow loss `Mg::setup(a, d16)` audited on each smoothed
    /// level: what a caller picks `shift_levid` from.
    fn d16_losses(a: &SgDia<f64>) -> Vec<f64> {
        let mg = Mg::<f32>::setup(a, &MgConfig::d16()).unwrap();
        let levels = &mg.info().levels;
        let audits = levels[..levels.len() - 1].iter().map(|l| l.audit.as_ref().unwrap());
        audits.map(RangeAudit::underflow_loss_fraction).collect()
    }

    /// `Mg::setup(a)` under `Fp16Until { shift_levid }`, and the storage
    /// precision of each smoothed level.
    fn fp16_until(a: &SgDia<f64>, shift_levid: usize) -> (Mg<f32>, Vec<Precision>) {
        let storage = StoragePolicy::Fp16Until { shift_levid };
        let mg = Mg::<f32>::setup(a, &MgConfig { storage, ..MgConfig::d16() }).unwrap();
        let levels = &mg.info().levels;
        let precisions = levels[..levels.len() - 1].iter().map(|l| l.precision).collect();
        (mg, precisions)
    }

    #[test]
    fn d16_audit_of_a_benign_problem_loses_nothing() {
        let a = laplacian(Grid3::cube(16), Pattern::p7(), 1.0);
        let losses = d16_losses(&a);
        assert!(losses.iter().all(|&l| l == 0.0), "{losses:?}");
    }

    #[test]
    fn fp16_until_0_stores_an_underflowing_finest_level_in_fp32() {
        // Every coupling sits below the FP16 normal range: the d16 audit of
        // level 0 shows it, and the switch at 0 stores every level in FP32.
        let a = laplacian(Grid3::cube(16), Pattern::p7(), 1.0e-8);
        let losses = d16_losses(&a);
        assert!(losses[0] > 0.99, "{losses:?}");
        let (_, precisions) = fp16_until(&a, 0);
        assert!(precisions.iter().all(|&p| p == Precision::F32), "{precisions:?}");
    }

    #[test]
    fn fp16_until_1_stores_the_weakly_coupled_interior_level_in_fp32() {
        // Finest level: in FP16 range unscaled, weak channel well above
        // the subnormal cutoff - clean audit. Level 1: RAP growth crosses
        // FP16_MAX, scaling normalizes the diagonal to G and the weak
        // inter-component entries land deep in the subnormal range (~50%
        // of the nonzeros). The switch belongs exactly there.
        let a = weakly_coupled_components(32, 4.0e3);
        let losses = d16_losses(&a);
        assert!(losses[0] <= 0.05 && losses[1] > 0.05, "{losses:?}");
        let (mut mg, precisions) = fp16_until(&a, 1);
        assert_eq!(precisions[0], Precision::F16);
        assert!(precisions[1..].iter().all(|&p| p == Precision::F32), "{precisions:?}");
        // The hierarchy with the switch converges.
        let op = MatOp::new(&a, Par::Seq);
        let b = rhs(a.rows());
        let mut x = vec![0.0f64; a.rows()];
        let res = richardson(&op, &mut mg, &b, &mut x, &SolveOptions::default());
        assert!(res.converged(), "{res:?}");
    }

    #[test]
    fn setup_records_g_clamp_in_info() {
        // The diagonal's own ratio pins G_max at S = FP16_MAX, so the
        // oversized Fixed request is clamped to S/2 — recorded, and
        // provably unable to saturate anything.
        let grid = Grid3::cube(8);
        let pat = Pattern::p7();
        let taps: Vec<_> = pat.taps().to_vec();
        let a = SgDia::<f64>::from_fn(grid, pat, Layout::Soa, |_, _, _, _, t| {
            if taps[t].is_diagonal() {
                2.0e8
            } else {
                -1.0e8
            }
        });
        let cfg = MgConfig { g_choice: GChoice::Fixed(1.0e6), ..MgConfig::d16() };
        let mg = Mg::<f32>::setup(&a, &cfg).unwrap();
        let l0 = &mg.info().levels[0];
        assert!(l0.scaled);
        assert_eq!(l0.g_clamped_from, Some(1.0e6), "clamp must be recorded");
        assert!(l0.g.unwrap() < 1.0e6);
        let audit = l0.audit.as_ref().unwrap();
        assert!(audit.overflow_free(), "{audit}");
        // Auto never clamps.
        let mg = Mg::<f32>::setup(&a, &MgConfig::d16()).unwrap();
        assert_eq!(mg.info().levels[0].g_clamped_from, None);
    }

    /// Scale-then-setup with G pushed near its clamp: the finest level is
    /// in range by construction, but Galerkin coarsening regrows the
    /// entries (the Fig. 6 failure mode) until a coarse level saturates.
    fn scale_then_setup_drift_cfg() -> (SgDia<f64>, MgConfig) {
        let a = laplacian(Grid3::cube(32), Pattern::p7(), 1.0);
        let cfg = MgConfig {
            scale: ScaleStrategy::ScaleThenSetup,
            g_choice: GChoice::Fixed(3.2e4),
            ..MgConfig::d16()
        };
        (a, cfg)
    }

    #[test]
    fn reject_policy_turns_saturation_into_typed_error() {
        let (a, cfg) = scale_then_setup_drift_cfg();
        let cfg = MgConfig { truncation: TruncationPolicy::Reject, ..cfg };
        match Mg::<f32>::setup(&a, &cfg) {
            Err(SetupError::Truncation { level, error: TruncationError::Saturation { .. } }) => {
                assert!(level >= 1, "drift saturates a coarse level, got level {level}");
            }
            Err(other) => panic!("expected a coarse-level saturation rejection, got {other:?}"),
            Ok(_) => panic!("expected a coarse-level saturation rejection, got Ok"),
        }
    }

    #[test]
    fn saturate_policy_clamps_and_audits_the_same_overflow() {
        // The same drifting setup under the default Saturate policy: setup
        // succeeds, every stored level stays finite (clamped, not inf),
        // and the audit records the saturation instead of hiding it.
        let (a, cfg) = scale_then_setup_drift_cfg();
        let mg = Mg::<f32>::setup(&a, &cfg).unwrap();
        let info = mg.info();
        let mut saturated = 0u64;
        for l in &info.levels[..info.levels.len() - 1] {
            assert!(l.finite, "Saturate must clamp, not overflow");
            let audit: &RangeAudit = l.audit.as_ref().unwrap();
            saturated += audit.saturate;
        }
        assert!(saturated > 0, "drift must be visible in some level's audit");
    }

    #[test]
    fn reject_policy_accepts_theorem_scaled_out_of_range_problem() {
        // The flip side of Theorem 4.1: with setup-then-scale, even a
        // problem 1e8x out of FP16 range truncates without a single
        // saturating entry, so Reject lets it through.
        let a = laplacian(Grid3::cube(12), Pattern::p7(), 1.0e8);
        let cfg = MgConfig { truncation: TruncationPolicy::Reject, ..MgConfig::d16() };
        let mg = Mg::<f32>::setup(&a, &cfg).unwrap();
        let info = mg.info();
        assert!(info.levels[0].scaled);
        for l in &info.levels[..info.levels.len() - 1] {
            let audit = l.audit.as_ref().unwrap();
            assert!(audit.overflow_free(), "{audit}");
            assert!(audit.headroom < 1.0);
        }
    }

    #[test]
    fn setup_error_display_names_the_failing_level() {
        let err = SetupError::Truncation {
            level: 2,
            error: TruncationError::Saturation { cell: 5, tap: 1, value: 1.0e9, limit: 65504.0 },
        };
        let msg = err.to_string();
        assert!(msg.contains("level 2"), "{msg}");
        assert!(msg.contains("cell 5"), "{msg}");
        assert!(msg.contains("6.5504e4"), "{msg}");
    }
}

// ----------------------------------------------------- hierarchy cache --

mod chain_reuse {
    use super::*;
    use crate::{GalerkinChain, Retained, SetupError};

    fn solve_history(mg: &mut Mg<f32>, a: &SgDia<f64>) -> Vec<u64> {
        let op = MatOp::new(a, Par::Seq);
        let b = rhs(a.rows());
        let mut x = vec![0.0f64; a.rows()];
        let opts =
            SolveOptions { tol: 1e-8, max_iters: 60, record_history: true, ..Default::default() };
        let res = richardson(&op, mg, &b, &mut x, &opts);
        assert_eq!(res.reason, StopReason::Converged);
        res.history.iter().map(|r| r.to_bits()).collect()
    }

    /// CG iterations to 1e-8 — the outer Krylov solve the cache's
    /// rescale-in-place path actually runs under.
    fn cg_iters(mg: &mut Mg<f32>, a: &SgDia<f64>) -> usize {
        let op = MatOp::new(a, Par::Seq);
        let b = rhs(a.rows());
        let mut x = vec![0.0f64; a.rows()];
        let opts = SolveOptions { tol: 1e-8, max_iters: 100, ..Default::default() };
        let res = cg(&op, mg, &b, &mut x, &opts);
        assert_eq!(res.reason, StopReason::Converged);
        res.iters
    }

    #[test]
    fn setup_from_chain_is_bit_identical_to_setup() {
        let a = laplacian(Grid3::cube(12), Pattern::p7(), 1.0);
        let config = MgConfig::d16();
        let chain = GalerkinChain::build(&a, &config).unwrap();
        assert!(chain.len() > 1 && !chain.is_empty());

        let mut direct = Mg::<f32>::setup(&a, &config).unwrap();
        let mut reused = Mg::<f32>::setup_from_chain(&chain, &config).unwrap();
        assert_eq!(
            format!("{:?}", direct.info()),
            format!("{:?}", reused.info()),
            "level structure, precisions, and scaling decisions must match"
        );
        // The warm path must produce the same hierarchy bit for bit:
        // identical residual trajectories, not merely similar ones.
        assert_eq!(solve_history(&mut direct, &a), solve_history(&mut reused, &a));
    }

    #[test]
    fn rescaled_setup_serves_a_drifted_operator() {
        let a = laplacian(Grid3::cube(12), Pattern::p7(), 1.0);
        let config = MgConfig::d16();
        let mut retained = Retained::build(&a, Retained::audit(&a), &config).unwrap();

        // A 4x-rescaled operator reuses the coarse tail, carried by the
        // drift of its diagonal…
        let drifted = laplacian(Grid3::cube(12), Pattern::p7(), 4.0);
        retained.adopt_finest(&drifted, Retained::audit(&drifted), &config).unwrap();
        let mut mg = retained.hierarchy::<f32>(&config).unwrap();
        let warm = cg_iters(&mut mg, &drifted);
        // …which for a uniform drift is the rebuilt tail to rounding, so
        // the warm hierarchy converges as a cold rebuild does.
        let mut cold = Mg::<f32>::setup(&drifted, &config).unwrap();
        let rebuilt = cg_iters(&mut cold, &drifted);
        assert!(warm <= rebuilt + 1, "the carried tail converges as rebuilt: {warm} vs {rebuilt}");

        // The drifted operator is now the chain's finest and the baseline
        // a drift is measured against: it drifts by nothing from itself.
        assert_eq!(retained.chain().finest().data(), drifted.data());
        let d = retained.drift(&Retained::audit(&drifted));
        assert_eq!((d.magnitude(), d.structural()), (0.0, false));
    }

    #[test]
    fn incompatible_chains_are_refused_typed() {
        let a = laplacian(Grid3::cube(12), Pattern::p7(), 1.0);
        let prescaled = MgConfig { scale: ScaleStrategy::ScaleThenSetup, ..MgConfig::d16() };

        // ScaleThenSetup bakes the finest scaling into the chain: both
        // building and reusing refuse it.
        assert!(matches!(
            GalerkinChain::build(&a, &prescaled),
            Err(SetupError::ChainIncompatible { .. })
        ));
        let chain = GalerkinChain::build(&a, &MgConfig::d16()).unwrap();
        assert!(matches!(
            Mg::<f32>::setup_from_chain(&chain, &prescaled),
            Err(SetupError::ChainIncompatible { .. })
        ));

        // Geometry mismatches are refused, not coerced, and leave the
        // retained chain and its baseline as they were.
        let smaller = laplacian(Grid3::cube(8), Pattern::p7(), 1.0);
        let mut retained = Retained::build(&a, Retained::audit(&a), &MgConfig::d16()).unwrap();
        assert!(matches!(
            retained.adopt_finest(&smaller, Retained::audit(&smaller), &MgConfig::d16()),
            Err(SetupError::ChainIncompatible { .. })
        ));
        assert_eq!(retained.chain().finest().data(), a.data());
        assert_eq!(retained.drift(&Retained::audit(&a)).magnitude(), 0.0);
    }
}

// ------------------------------------------------------- the operator --

/// [`MatOp`] reads a symmetric operator by half and every other one
/// whole, to the bits of `kernels::spmv` either way.
mod matop {
    use fp16mg_fp::{Bf16, Scalar, Storage, F16};
    use fp16mg_krylov::LinOp;
    use fp16mg_sgdia::kernels;
    use fp16mg_testkit::{check_n, Rng};

    use super::*;

    /// A random operator, and `(A + Aᵀ)/2` of it: symmetric to the bit,
    /// the two sums having the same terms.
    fn random_pair(rng: &mut Rng, layout: Layout) -> (SgDia<f64>, SgDia<f64>) {
        let patterns = [Pattern::p7(), Pattern::p15(), Pattern::p19(), Pattern::p27()];
        let r = rng.usize_range(1, 5);
        let pattern = patterns[rng.usize_range(0, 4)].clone();
        let pattern = if r == 1 { pattern } else { pattern.with_components(r) };
        let nx = [1, 2, 3, 7, 8, 9, 17][rng.usize_range(0, 7)];
        let grid = Grid3::with_components(nx, rng.usize_range(1, 6), rng.usize_range(1, 6), r);
        let taps = pattern.taps().to_vec();
        let any = SgDia::from_fn(grid, pattern, layout, |_, _, _, _, t| {
            let v = rng.f64_range(0.1, 1.0);
            if taps[t].is_diagonal() {
                30.0 * v
            } else {
                -v
            }
        });
        let at = any.transpose();
        let mut sym = any.clone();
        for cell in 0..grid.cells() {
            for t in 0..taps.len() {
                sym.set(cell, t, (any.get(cell, t) + at.get(cell, t)) * 0.5);
            }
        }
        (any, sym)
    }

    fn vector<K: Scalar>(rng: &mut Rng, n: usize) -> Vec<K> {
        (0..n).map(|_| K::from_f64(rng.f64_range(-1.0, 1.0))).collect()
    }

    /// Three products through one `MatOp` — the judging one and two after
    /// it — against `kernels::spmv`, and the verdict.
    fn check<S: Storage, K: Scalar>(rng: &mut Rng, full: &SgDia<f64>, par: Par, symmetric: bool) {
        let a = full.convert::<S>();
        let what = format!(
            "{:?} {} {:?} S={} K={}",
            a.grid(),
            a.pattern().name(),
            a.layout(),
            S::NAME,
            K::NAME
        );
        let op = MatOp::new(&a, par);
        assert_eq!(op.reads_half(), None, "judged before a product, {what}");
        for call in 0..3 {
            let x = vector::<K>(rng, a.rows());
            let (mut got, mut want) =
                (vec![K::from_f64(f64::NAN); a.rows()], vec![K::ZERO; a.rows()]);
            op.apply(&x, &mut got);
            kernels::spmv(&a, &x, &mut want, Par::Seq);
            let same =
                got.iter().zip(&want).all(|(u, v)| u.to_f64().to_bits() == v.to_f64().to_bits());
            assert!(same, "product {call}, {what}");
            assert_eq!(op.reads_half(), Some(symmetric), "verdict after product {call}, {what}");
        }
    }

    fn check_storages(rng: &mut Rng, full: &SgDia<f64>, par: Par, symmetric: bool) {
        check::<F16, f32>(rng, full, par, symmetric);
        check::<Bf16, f64>(rng, full, par, symmetric);
        check::<f32, f32>(rng, full, par, symmetric);
        check::<f32, f64>(rng, full, par, symmetric);
        check::<f64, f32>(rng, full, par, symmetric);
        check::<f64, f64>(rng, full, par, symmetric);
    }

    #[test]
    fn matop_matches_spmv_whichever_way_the_verdict_goes() {
        check_n("matop_matches_spmv_whichever_way_the_verdict_goes", 48, |rng| {
            let (any, sym) = random_pair(rng, Layout::Soa);
            check_storages(rng, &sym, Par::Seq, true);
            // (Nothing off the diagonal on a grid of one cell.)
            check_storages(rng, &any, Par::Seq, any.data() == sym.data());
            check_storages(rng, &sym.to_layout(Layout::Aos), Par::Seq, false);
            // One stored bit off, anywhere above or below the diagonal.
            let mut off = sym.clone();
            let tap = (0..sym.pattern().len())
                .cycle()
                .skip(rng.usize_range(0, sym.pattern().len()))
                .find(|&t| !sym.pattern().taps()[t].is_diagonal());
            if let Some(t) = tap {
                let cell = rng.usize_range(0, sym.grid().cells());
                off.set(cell, t, f64::from_bits(sym.get(cell, t).to_bits() ^ 1));
                check::<f64, f64>(rng, &off, Par::Seq, false);
            }
            // A pattern that lacks its transposes.
            let lower = sym.pattern().lower_with_diag();
            let part =
                SgDia::from_fn(*sym.grid(), lower.clone(), Layout::Soa, |cell, _, _, _, t| {
                    sym.get(cell, sym.pattern().tap_index(lower.taps()[t]).unwrap())
                });
            check::<f64, f64>(rng, &part, Par::Seq, false);
        });
    }

    /// Threads judge their own lines and multiply them: one verdict, the
    /// sequential bits.
    #[test]
    fn matop_parallel_matches_seq() {
        let mut rng = Rng::new(20);
        for (r, pattern) in [(1, Pattern::p27()), (3, Pattern::p7().with_components(3))] {
            let sym = laplacian(Grid3::with_components(40, 16, 16, r), pattern, 1.0);
            for threads in 2..=4 {
                check::<f64, f64>(&mut rng, &sym, Par::Threads(threads), true);
                check::<F16, f32>(&mut rng, &sym, Par::Threads(threads), true);
                let mut off = sym.clone();
                let (cell, t) = (sym.grid().cells() - 1500, sym.pattern().len() - 1);
                off.set(cell, t, f64::from_bits(sym.get(cell, t).to_bits() ^ 1));
                check::<f64, f64>(&mut rng, &off, Par::Threads(threads), false);
            }
        }
    }

    /// A product of zeros is `−0.0` in every entry, read whole or by half:
    /// what `krylov`'s cold-start residual `b + 0.0` stands in for.
    #[test]
    fn matop_of_zeros_is_negative_zero() {
        let a = laplacian(Grid3::new(9, 4, 3), Pattern::p27(), 1.0);
        let op = MatOp::new(&a, Par::Seq);
        for zero in [0.0, -0.0, 0.0] {
            let mut y = vec![1.0f64; a.rows()];
            op.apply(&vec![zero; a.rows()], &mut y);
            assert!(y.iter().all(|v| v.to_bits() == (-0.0f64).to_bits()), "A * {zero:?}");
        }
        assert_eq!(op.reads_half(), Some(true));
    }
}
