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
    galerkin_rap, prolong_add, restrict, DenseLu, MatOp, Mg, MgConfig, ScaleStrategy, SmootherKind,
    StoragePolicy,
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
/// `repro audit`'s interior-switch demo): intra-component 7-point
/// Laplacians of magnitude `s`, plus a tiny same-cell inter-component
/// coupling. Prolongation acts componentwise, so Galerkin coarsening can
/// never smear the weak channel into the strong one — and RAP growth (~4x
/// per level) pushes the hierarchy across FP16_MAX at an interior level,
/// where scaling kicks in and the weak channel drops below the FP16 normal
/// range.
pub(crate) fn weakly_coupled_components(n: usize, s: f64) -> SgDia<f64> {
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
    assert!(!mg.promotions().is_empty(), "healing must have promoted a level");
    assert!(mg.promotions().iter().all(|e| e.reason == crate::PromotionReason::NonFiniteOutput));
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
fn mg_jacobi_smoother_converges() {
    let cfg = MgConfig { smoother: SmootherKind::Jacobi { weight: 0.85 }, ..MgConfig::d16() };
    let (reason, iters) = mg_solver_iters(&cfg, Pattern::p7(), 1.0);
    assert_eq!(reason, StopReason::Converged);
    assert!(iters <= 40);
}

#[test]
fn mg_symgs_smoother_converges() {
    let cfg = MgConfig { smoother: SmootherKind::SymGs, ..MgConfig::d16() };
    let (reason, iters) = mg_solver_iters(&cfg, Pattern::p7(), 1.0);
    assert_eq!(reason, StopReason::Converged);
    assert!(iters <= 12);
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
    let cfg = MgConfig {
        storage: StoragePolicy::Fp16Until { shift_levid: 2, coarse: Precision::F32 },
        ..MgConfig::d16()
    };
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
    // Apply through the K=f64 trait; the result must equal apply_pr
    // modulo the f64→f32→f64 boundary conversions.
    let a = laplacian(Grid3::cube(8), Pattern::p7(), 1.0);
    let mut mg = Mg::<f32>::setup(&a, &MgConfig::d32()).unwrap();
    let r: Vec<f64> = rhs(a.rows());
    let mut z = vec![0.0f64; a.rows()];
    Preconditioner::<f64>::apply(&mut mg, &r, &mut z);
    let rp: Vec<f32> = r.iter().map(|&v| v as f32).collect();
    let mut zp = vec![0.0f32; a.rows()];
    mg.apply_pr(&rp, &mut zp);
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

#[test]
fn nonpositive_diagonal_falls_back_to_fp32_storage() {
    // Theorem 4.1 needs positive diagonals; when a level violates that,
    // setup-then-scale falls back to unscaled FP32 storage for that level
    // instead of failing (the coarse-level analog of shift_levid).
    let grid = Grid3::cube(8);
    let a = SgDia::<f64>::from_fn(grid, Pattern::p7(), Layout::Soa, |_, _, _, _, t| {
        if Pattern::p7().taps()[t].is_diagonal() {
            -1.0e8 // negative diagonal, out of FP16 range -> scaling needed
        } else {
            1.0
        }
    });
    let mg = Mg::<f32>::setup(&a, &MgConfig::d16()).expect("fallback setup");
    let l0 = &mg.info().levels[0];
    assert_eq!(l0.precision, Precision::F32);
    assert!(!l0.scaled);
    assert!(l0.finite);
}

#[test]
fn scale_then_setup_rejects_nonpositive_diagonal() {
    // The inferior strategy scales the finest matrix up front and has no
    // fallback: the M-matrix prerequisite is a hard error there.
    let grid = Grid3::cube(8);
    let a = SgDia::<f64>::from_fn(grid, Pattern::p7(), Layout::Soa, |_, _, _, _, t| {
        if Pattern::p7().taps()[t].is_diagonal() {
            -1.0e8
        } else {
            1.0
        }
    });
    let cfg = MgConfig { scale: ScaleStrategy::ScaleThenSetup, ..MgConfig::d16() };
    let err = match Mg::<f32>::setup(&a, &cfg) {
        Err(e) => e,
        Ok(_) => panic!("expected setup to fail"),
    };
    assert!(matches!(err, crate::SetupError::NonPositiveDiagonal { .. }));
}

#[test]
fn mg_ilu0_smoother_converges() {
    // ILU(0)-smoothed V-cycle: nonsymmetric preconditioner, so test with
    // Richardson (the paper's Algorithm 2) rather than CG.
    let cfg = MgConfig { smoother: SmootherKind::Ilu0, ..MgConfig::d16() };
    let (reason, iters) = mg_solver_iters(&cfg, Pattern::p7(), 1.0);
    assert_eq!(reason, StopReason::Converged);
    assert!(iters <= 15, "ILU(0) V-cycle took {iters} iters");
    // Scaled out-of-range problem with ILU factors truncated to FP16.
    let (reason, _) = mg_solver_iters(&cfg, Pattern::p7(), 1.0e8);
    assert_eq!(reason, StopReason::Converged);
}

#[test]
fn mg_ilu0_falls_back_to_gs_on_vector_pde() {
    let grid = Grid3::with_components(10, 10, 10, 2);
    let pat = Pattern::p7().with_components(2);
    let taps: Vec<_> = pat.taps().to_vec();
    let a = SgDia::from_fn(grid, pat, Layout::Soa, |_, i, j, k, t| {
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
            0.1
        } else if tap.cin == tap.cout {
            -1.0
        } else {
            0.0
        }
    });
    let cfg = MgConfig { smoother: SmootherKind::Ilu0, ..MgConfig::d16() };
    let mut mg = Mg::<f32>::setup(&a, &cfg).unwrap();
    let op = MatOp::new(&a, Par::Seq);
    let b = rhs(a.rows());
    let mut x = vec![0.0f64; a.rows()];
    let res = richardson(&op, &mut mg, &b, &mut x, &SolveOptions::default());
    assert!(res.converged(), "{res:?}");
}

#[test]
fn w_and_f_cycles_converge_at_least_as_fast_as_v() {
    use crate::Cycle;
    let mut iters = Vec::new();
    for cycle in [Cycle::V, Cycle::W, Cycle::F] {
        let cfg = MgConfig { cycle, max_levels: 4, min_coarse_cells: 8, ..MgConfig::d16() };
        let (reason, it) = mg_solver_iters(&cfg, Pattern::p7(), 1.0);
        assert_eq!(reason, StopReason::Converged, "{cycle:?}");
        iters.push(it);
    }
    // More coarse work can only help the per-cycle contraction.
    assert!(iters[1] <= iters[0], "W {} vs V {}", iters[1], iters[0]);
    assert!(iters[2] <= iters[0], "F {} vs V {}", iters[2], iters[0]);
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

#[test]
fn mg_chebyshev_smoother_converges() {
    let cfg = MgConfig { smoother: SmootherKind::Chebyshev { degree: 3 }, ..MgConfig::d16() };
    let (reason, iters) = mg_solver_iters(&cfg, Pattern::p7(), 1.0);
    assert_eq!(reason, StopReason::Converged);
    assert!(iters <= 35, "Chebyshev(3) V-cycle took {iters}");
    // Out-of-range + scaling path.
    let (reason, _) = mg_solver_iters(&cfg, Pattern::p7(), 1.0e8);
    assert_eq!(reason, StopReason::Converged);
}

#[test]
fn mg_chebyshev_is_cg_safe() {
    // Chebyshev-Jacobi smoothing keeps the V-cycle SPD: CG must converge
    // cleanly.
    let grid = Grid3::cube(16);
    let a = laplacian(grid, Pattern::p27(), 1.0);
    let cfg = MgConfig { smoother: SmootherKind::Chebyshev { degree: 2 }, ..MgConfig::d16() };
    let mut mg = Mg::<f32>::setup(&a, &cfg).unwrap();
    let op = MatOp::new(&a, Par::Seq);
    let b = rhs(a.rows());
    let mut x = vec![0.0f64; a.rows()];
    let res = cg(&op, &mut mg, &b, &mut x, &SolveOptions::default());
    assert!(res.converged(), "{res:?}");
    assert!(res.iters <= 25);
}

// ------------------------------------------------- config validation --

mod validation {
    use super::*;
    use crate::{Coarsening, ConfigError, RecoveryPolicy, SetupError};
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
            storage: StoragePolicy::Fp16Until { shift_levid: 11, coarse: Precision::F32 },
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
            storage: StoragePolicy::Fp16Until { shift_levid: usize::MAX, coarse: Precision::F32 },
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
    fn rejects_empty_per_level() {
        let cfg = MgConfig { storage: StoragePolicy::PerLevel(vec![]), ..MgConfig::default() };
        assert_eq!(setup_err(cfg), SetupError::InvalidConfig(ConfigError::EmptyPerLevel));
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
    fn rejects_bad_jacobi_weight() {
        let cfg = MgConfig { smoother: SmootherKind::Jacobi { weight: -0.5 }, ..MgConfig::d16() };
        match setup_err(cfg) {
            SetupError::InvalidConfig(ConfigError::InvalidSmootherWeight { .. }) => {}
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn rejects_zero_degree_chebyshev() {
        let cfg = MgConfig { smoother: SmootherKind::Chebyshev { degree: 0 }, ..MgConfig::d16() };
        assert_eq!(setup_err(cfg), SetupError::InvalidConfig(ConfigError::InvalidChebyshevDegree));
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
    fn rejects_bad_g_tighten() {
        let cfg = MgConfig {
            recovery: RecoveryPolicy { g_tighten: 0.0, ..Default::default() },
            ..MgConfig::d16()
        };
        match setup_err(cfg) {
            SetupError::InvalidConfig(ConfigError::InvalidGTighten { .. }) => {}
            other => panic!("unexpected {other:?}"),
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
        assert_eq!(mg.promotions().len(), 1);

        // The promoted hierarchy still preconditions correctly.
        let op = MatOp::new(&a, Par::Seq);
        let b = rhs(a.rows());
        let mut x = vec![0.0f64; a.rows()];
        let res = cg(&op, &mut mg, &b, &mut x, &SolveOptions::default());
        assert!(res.converged(), "{res:?}");
    }

    #[test]
    fn promotion_respects_budget_and_source_consumption() {
        let a = laplacian(Grid3::cube(12), Pattern::p7(), 1.0);
        let cfg = MgConfig {
            recovery: crate::RecoveryPolicy { max_promotions: 1, ..Default::default() },
            ..MgConfig::d16()
        };
        let mut mg = Mg::<f32>::setup(&a, &cfg).unwrap();
        let mut insured = mg.insured(&a);
        assert!(insured.promote_level(0, PromotionReason::Manual).is_some());
        // Same level again: already wide, and the budget is spent.
        assert!(insured.promote_level(0, PromotionReason::Manual).is_none());
        assert!(insured.promote_level(1, PromotionReason::Manual).is_none(), "budget spent");
        assert!(!insured.can_promote());
    }

    #[test]
    fn disabled_recovery_never_promotes() {
        let a = laplacian(Grid3::cube(12), Pattern::p7(), 1.0);
        let cfg = MgConfig { recovery: crate::RecoveryPolicy::disabled(), ..MgConfig::d16() };
        let mut mg = Mg::<f32>::setup(&a, &cfg).unwrap();
        let mut insured = mg.insured(&a);
        assert!(!insured.can_promote());
        assert!(insured.promote_level(0, PromotionReason::Manual).is_none());
        assert!(insured.promote_for_stagnation().is_none());
    }

    #[test]
    fn full64_hierarchy_has_no_promotable_levels() {
        let a = laplacian(Grid3::cube(12), Pattern::p7(), 1.0);
        let mut mg = Mg::<f64>::setup(&a, &MgConfig::d64()).unwrap();
        let mut insured = mg.insured(&a);
        assert!(!insured.can_promote(), "no 16-bit level to promote");
        assert!(insured.promote_for_stagnation().is_none());
        assert!(mg.promotions().is_empty());
    }

    #[cfg(feature = "fault-inject")]
    #[test]
    fn a_corrupt_level_without_material_promotes_nothing_in_its_place() {
        // A bare hierarchy with a non-finite level 0 and neither a lent
        // operator nor a repair parent: no promotion of a healthy coarse
        // level can clear the output, so none is spent and the non-finite
        // output reaches the solver.
        let a = laplacian(Grid3::cube(12), Pattern::p7(), 1.0);
        let mut mg = Mg::<f32>::setup(&a, &MgConfig::d16()).unwrap();
        let cell = (6 * 12 + 6) * 12 + 6;
        assert!(mg.stored_mut(0).unwrap().inject_inf_at(cell, 0));
        let r: Vec<f32> = (0..a.rows()).map(|i| ((i % 7) as f32) * 0.1 + 0.1).collect();
        let mut e = vec![0.0f32; a.rows()];
        mg.apply_pr(&r, &mut e);
        assert!(e.iter().any(|v| !v.is_finite()), "the non-finite output is the solver's");
        let op = MatOp::new(&a, Par::Seq);
        let mut x = vec![0.0f64; a.rows()];
        let res = cg(&op, &mut mg, &rhs(a.rows()), &mut x, &SolveOptions::default());
        assert!(!res.converged(), "{res:?}");
        assert!(mg.promotions().is_empty(), "{:?}", mg.promotions());
        // The budget is intact: lent the operator, level 0 is promoted.
        Preconditioner::<f32>::apply(&mut mg.insured(&a), &r, &mut e);
        assert!(e.iter().all(|v| v.is_finite()));
        assert_eq!(mg.promotions().len(), 1);
        assert_eq!(mg.promotions()[0].level, 0);
    }
}

mod audit_and_autoshift {
    use super::*;
    use crate::{
        ConfigError, RangeAudit, SetupError, ShiftDecision, TruncationError, TruncationPolicy,
    };
    use fp16mg_sgdia::scaling::GChoice;

    #[test]
    fn precision_for_edge_cases() {
        // shift_levid = 0: no level qualifies for FP16.
        let p = StoragePolicy::Fp16Until { shift_levid: 0, coarse: Precision::F32 };
        assert_eq!(p.precision_for(0), Precision::F32);
        assert_eq!(p.precision_for(7), Precision::F32);
        // usize::MAX: the documented all-FP16 sentinel.
        let p = StoragePolicy::Fp16Until { shift_levid: usize::MAX, coarse: Precision::F32 };
        assert_eq!(p.precision_for(0), Precision::F16);
        assert_eq!(p.precision_for(usize::MAX - 1), Precision::F16);
        // shift_levid == max_levels is valid (every smoothed level is FP16).
        let cfg = MgConfig {
            storage: StoragePolicy::Fp16Until { shift_levid: 10, coarse: Precision::F32 },
            max_levels: 10,
            ..MgConfig::default()
        };
        assert!(cfg.validate().is_ok());
        // AutoShift resolves during setup; before that it reads as FP16.
        let p = StoragePolicy::AutoShift { coarse: Precision::F32, max_underflow: 0.05 };
        assert_eq!(p.precision_for(0), Precision::F16);
        assert_eq!(p.precision_for(9), Precision::F16);
    }

    #[test]
    fn d16_auto_validates_and_rejects_bad_thresholds() {
        assert!(MgConfig::d16_auto().validate().is_ok());
        for t in [-0.1, 1.5, f64::NAN] {
            let cfg = MgConfig {
                storage: StoragePolicy::AutoShift { coarse: Precision::F32, max_underflow: t },
                ..MgConfig::default()
            };
            match cfg.validate() {
                Err(ConfigError::InvalidUnderflowThreshold { .. }) => {}
                other => panic!("threshold {t}: unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn auto_shift_keeps_benign_problem_all_fp16() {
        let a = laplacian(Grid3::cube(16), Pattern::p7(), 1.0);
        let mg = Mg::<f32>::setup(&a, &MgConfig::d16_auto()).unwrap();
        let info = mg.info();
        let ShiftDecision { chosen, threshold, ref per_level } =
            *info.shift_decision.as_ref().expect("AutoShift must record its decision");
        assert_eq!(chosen, usize::MAX, "benign problem must stay all-FP16");
        assert_eq!(threshold, 0.05);
        assert_eq!(per_level.len(), info.levels.len() - 1, "every smoothed level audited");
        for l in &info.levels[..info.levels.len() - 1] {
            assert_eq!(l.precision, Precision::F16);
        }
    }

    #[test]
    fn auto_shift_switches_at_level_zero_when_finest_underflows() {
        // Every coupling sits below the FP16 normal range: the audit must
        // move the entire hierarchy to the coarse precision.
        let a = laplacian(Grid3::cube(16), Pattern::p7(), 1.0e-8);
        let mg = Mg::<f32>::setup(&a, &MgConfig::d16_auto()).unwrap();
        let info = mg.info();
        let d = info.shift_decision.as_ref().unwrap();
        assert_eq!(d.chosen, 0);
        assert!(d.per_level[0].underflow_loss_fraction() > 0.99);
        for l in &info.levels[..info.levels.len() - 1] {
            assert_eq!(l.precision, Precision::F32);
        }
    }

    #[test]
    fn auto_shift_picks_interior_level_on_weakly_coupled_components() {
        // Finest level: in FP16 range unscaled, weak channel well above
        // the subnormal cutoff - clean audit. Level 1: RAP growth crosses
        // FP16_MAX, scaling normalizes the diagonal to G and the weak
        // inter-component entries land deep in the subnormal range (~50%
        // of the nonzeros). AutoShift must switch exactly there.
        let a = weakly_coupled_components(32, 4.0e3);
        let mg = Mg::<f32>::setup(&a, &MgConfig::d16_auto()).unwrap();
        let info = mg.info();
        let d = info.shift_decision.as_ref().unwrap();
        assert_eq!(d.chosen, 1, "expected the switch at the first scaled level");
        assert!(d.per_level[0].underflow_loss_fraction() <= 0.05);
        assert!(d.per_level[1].underflow_loss_fraction() > 0.05, "{}", d.per_level[1]);
        assert_eq!(d.per_level.len(), 2, "audit stops at the switch level");
        for (i, l) in info.levels[..info.levels.len() - 1].iter().enumerate() {
            let want = if i < 1 { Precision::F16 } else { Precision::F32 };
            assert_eq!(l.precision, want, "level {i}");
        }
        // The decision is explainable to a log reader.
        let msg = d.to_string();
        assert!(msg.contains("shift_levid = 1"), "{msg}");
        // The resolved hierarchy still converges.
        let op = MatOp::new(&a, Par::Seq);
        let b = rhs(a.rows());
        let mut x = vec![0.0f64; a.rows()];
        let mut mg = mg;
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

#[cfg(feature = "fault-inject")]
mod integrity {
    use super::*;
    use crate::{IntegrityPolicy, RepairTrigger};
    use fp16mg_testkit::check_n;

    #[test]
    fn prop_repair_restores_bit_identical_planes() {
        // For any operator magnitude, any narrow level, any plane, and any
        // bit position: a single-event upset is detected by the sentinel
        // sweep, localized to exactly the flipped (level, tap), and the
        // localized repair re-truncates the level from its retained parent
        // so the recomputed sentinels match the setup-time ones bit for
        // bit (the lane hash over every stored bit pattern + exact FP64 sums).
        check_n("prop_repair_restores_bit_identical_planes", 64, |rng| {
            let scale = 10.0f64.powf(rng.f64_range(-3.0, 6.0));
            let a = laplacian(Grid3::cube(8), Pattern::p7(), scale);
            let mut cfg = MgConfig::d16();
            cfg.integrity = IntegrityPolicy::armed(0);
            let mut mg = Mg::<f32>::setup(&a, &cfg).unwrap();
            let narrow: Vec<usize> = (0..mg.num_levels() - 1)
                .filter(|&l| {
                    matches!(mg.info().levels[l].precision, Precision::F16 | Precision::BF16)
                })
                .collect();
            assert!(!narrow.is_empty(), "d16 must store narrow levels");
            let level = narrow[rng.usize_range(0, narrow.len())];
            let bit = rng.usize_range(0, 16) as u32;
            let stored = mg.stored_mut(level).unwrap();
            let tap = rng.usize_range(0, stored.pattern().len());
            if stored.inject_bit_flip_tap(tap, bit).is_none() {
                return; // all-zero plane on a coarse stencil: nothing to upset
            }

            let corrupted = mg.verify_integrity();
            assert_eq!(corrupted.len(), 1, "exactly one level corrupted: {corrupted:?}");
            assert_eq!(corrupted[0].0, level, "localized to the flipped level");
            let flagged: Vec<usize> = corrupted[0].1.iter().map(|m| m.tap).collect();
            assert_eq!(flagged, vec![tap], "localized to the flipped plane");

            let events = mg.verify_and_repair(RepairTrigger::Requested);
            assert_eq!(events.len(), 1, "one localized repair: {events:?}");
            assert_eq!((events[0].level, events[0].taps.as_slice()), (level, &[tap][..]));
            assert!(
                mg.verify_integrity().is_empty(),
                "repair must restore every plane bit-identically (scale {scale:e}, \
                 level {level}, tap {tap}, bit {bit})"
            );
        });
    }
}

mod economize {
    use super::*;
    use crate::ConfigError;

    #[test]
    fn economize_switches_storage_and_drops_retained_parents() {
        let cfg = MgConfig::d16().economize(2).unwrap();
        assert_eq!(
            cfg.storage,
            StoragePolicy::Fp16Until { shift_levid: 2, coarse: Precision::F32 }
        );
        assert!(
            !cfg.integrity.retain_parents,
            "under overload the parent copies are traded for throughput"
        );
    }

    #[test]
    fn economize_validates_the_degraded_configuration() {
        let base = MgConfig { max_levels: 3, ..MgConfig::d16() };
        assert_eq!(
            base.economize(7).unwrap_err(),
            ConfigError::ShiftBeyondLevels { shift_levid: 7, max_levels: 3 },
            "a shed-time downgrade must not smuggle in a contradiction"
        );
        // usize::MAX is the documented "all FP16" sentinel, not an error.
        assert!(base.economize(usize::MAX).is_ok());
    }

    #[test]
    fn economize_preserves_the_numerical_shape() {
        let base = MgConfig::d16();
        let cfg = base.economize(2).unwrap();
        assert_eq!(cfg.max_levels, base.max_levels);
        assert_eq!(cfg.smoother, base.smoother);
        assert_eq!(cfg.nu1, base.nu1);
        assert_eq!(cfg.nu2, base.nu2);
        assert_eq!(cfg.layout, base.layout);
        // The economized hierarchy still builds and solves.
        let a = laplacian(Grid3::cube(8), Pattern::p7(), 1.0);
        let op = MatOp::new(&a, Par::Seq);
        let mut mg = Mg::<f32>::setup(&a, &cfg).expect("economized config must set up");
        let b = vec![1.0f64; a.rows()];
        let mut x = vec![0.0f64; b.len()];
        let res = cg(&op, &mut mg, &b, &mut x, &SolveOptions::default());
        assert!(res.converged(), "{:?}", res.reason);
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
    /// rescale-in-place path actually runs under (a stationary
    /// iteration cannot absorb a mis-scaled coarse correction; Krylov
    /// can, which is exactly why Galerkin lag is sound there).
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

        // A 4x-rescaled operator reuses the coarse tail (Galerkin lag)…
        let drifted = laplacian(Grid3::cube(12), Pattern::p7(), 4.0);
        retained.adopt_finest(&drifted, Retained::audit(&drifted), &config).unwrap();
        let mut mg = retained.hierarchy::<f32>(&config).unwrap();
        let warm = cg_iters(&mut mg, &drifted);
        // …and still converges like a cold rebuild (the lagged coarse
        // correction is only a preconditioner).
        let mut cold = Mg::<f32>::setup(&drifted, &config).unwrap();
        let rebuilt = cg_iters(&mut cold, &drifted);
        // The lagged tail mis-scales the coarse correction by the drift
        // factor, which CG absorbs at ~sqrt(drift) extra iterations —
        // the price of skipping the Galerkin setup, bounded but not
        // free. Past `reuse::RESCALE_MAX` the engine rebuilds instead.
        assert!(
            warm <= rebuilt * 3,
            "Galerkin lag must not derail convergence: {warm} vs {rebuilt} iters"
        );

        // The drifted operator is now the chain's finest and the baseline
        // a drift is measured against: serving it again is a keep.
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
