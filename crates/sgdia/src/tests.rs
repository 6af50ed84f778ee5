//! Unit and property tests: every structured kernel is validated against
//! the CSR reference on the same operator, across layouts and storage
//! precisions.

use fp16mg_fp::{Bf16, Precision, F16};
use fp16mg_grid::Grid3;
use fp16mg_stencil::Pattern;
use fp16mg_testkit::{check, check_n};

use crate::kernels::{self, BlockDiagInv, Par};
use crate::model::{self, Format};
use crate::scaling::{self, GChoice};
use crate::{Csr, Layout, SgDia};

/// Deterministic pseudo-random stream in [lo, hi).
fn rng_stream(seed: u64, lo: f64, hi: f64) -> impl FnMut() -> f64 {
    let mut state = seed.wrapping_mul(0x9e3779b97f4a7c15).wrapping_add(1);
    move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        lo + (hi - lo) * ((state >> 11) as f64 / (1u64 << 53) as f64)
    }
}

/// Random diagonally-dominant matrix: off-diagonal entries in [-1, 0),
/// diagonal = Σ|off-diag| + margin. An M-matrix, so scaling applies.
fn random_matrix(grid: Grid3, pattern: Pattern, layout: Layout, seed: u64) -> SgDia<f64> {
    let mut rng = rng_stream(seed, 0.1, 1.0);
    let taps: Vec<_> = pattern.taps().to_vec();
    // First pass: off-diagonals.
    let mut m = SgDia::<f64>::from_fn(grid, pattern, layout, |_, _, _, _, t| {
        if taps[t].is_diagonal() {
            0.0
        } else {
            -rng()
        }
    });
    // Second pass: diagonals dominate their row.
    let diag_idx: Vec<usize> = m.pattern().diagonal_indices();
    let mut rowsum = vec![0.0f64; grid.unknowns()];
    for cell in 0..grid.cells() {
        for (t, tap) in taps.iter().enumerate() {
            rowsum[grid.unknown_of(cell, tap.cout as usize)] += m.get(cell, t).abs();
        }
    }
    for cell in 0..grid.cells() {
        for (c, &t) in diag_idx.iter().enumerate() {
            m.set(cell, t, rowsum[grid.unknown_of(cell, c)] + 0.5);
        }
    }
    m
}

fn random_vec(n: usize, seed: u64) -> Vec<f64> {
    let mut rng = rng_stream(seed, -1.0, 1.0);
    (0..n).map(|_| rng()).collect()
}

fn max_rel_err(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(&x, &y)| (x - y).abs() / (1.0 + x.abs().max(y.abs()))).fold(0.0, f64::max)
}

#[test]
fn nnz_counts_interior_and_boundary() {
    let a = SgDia::<f64>::zeros(Grid3::cube(4), Pattern::p7(), Layout::Aos);
    // 7-point on 4^3: 64*7 - 6 faces * 16 cells missing one tap each.
    assert_eq!(a.nnz(), 64 * 7 - 6 * 16);
    assert_eq!(a.stored_entries(), 64 * 7);
    // Vector problem multiplies by r^2.
    let av = SgDia::<f64>::zeros(
        Grid3::with_components(4, 4, 4, 2),
        Pattern::p7().with_components(2),
        Layout::Aos,
    );
    assert_eq!(av.nnz(), (64 * 7 - 6 * 16) * 4);
}

#[test]
fn layout_round_trip() {
    let g = Grid3::new(5, 4, 3);
    let a = random_matrix(g, Pattern::p19(), Layout::Aos, 7);
    let soa = a.to_layout(Layout::Soa);
    assert_eq!(soa.layout(), Layout::Soa);
    for cell in 0..g.cells() {
        for t in 0..a.pattern().len() {
            assert_eq!(a.get(cell, t), soa.get(cell, t));
        }
    }
    let back = soa.to_layout(Layout::Aos);
    assert_eq!(back.data(), a.data());
}

#[test]
fn spmv_matches_csr_f64() {
    for pat in [Pattern::p7(), Pattern::p15(), Pattern::p19(), Pattern::p27()] {
        let g = Grid3::new(6, 5, 4);
        let a = random_matrix(g, pat, Layout::Aos, 42);
        let csr = Csr::from_sgdia(&a);
        let x = random_vec(g.unknowns(), 1);
        let mut y1 = vec![0.0f64; g.unknowns()];
        let mut y2 = vec![0.0f64; g.unknowns()];
        kernels::spmv(&a, &x, &mut y1, Par::Seq);
        csr.spmv(&x, &mut y2);
        assert!(max_rel_err(&y1, &y2) < 1e-12, "pattern {}", a.pattern().name());
    }
}

#[test]
fn spmv_block_matches_csr() {
    let g = Grid3::with_components(4, 4, 3, 3);
    let a = random_matrix(g, Pattern::p7().with_components(3), Layout::Aos, 9);
    let csr = Csr::from_sgdia(&a);
    let x = random_vec(g.unknowns(), 2);
    let mut y1 = vec![0.0f64; g.unknowns()];
    let mut y2 = vec![0.0f64; g.unknowns()];
    kernels::spmv(&a, &x, &mut y1, Par::Seq);
    csr.spmv(&x, &mut y2);
    assert!(max_rel_err(&y1, &y2) < 1e-12);
}

#[test]
fn simd_spmv_matches_generic_f16() {
    // The SOA/f32 SIMD path and the AOS generic path must agree exactly on
    // the same F16 data (fma vs mul_add are both single-rounded).
    let g = Grid3::new(17, 9, 5); // odd sizes exercise edge handling
    let a64 = random_matrix(g, Pattern::p27(), Layout::Aos, 3);
    let a16_aos = a64.convert::<F16>();
    let a16_soa = a16_aos.to_layout(Layout::Soa);
    let x: Vec<f32> = random_vec(g.unknowns(), 4).iter().map(|&v| v as f32).collect();
    let mut y1 = vec![0.0f32; g.unknowns()];
    let mut y2 = vec![0.0f32; g.unknowns()];
    kernels::spmv(&a16_aos, &x, &mut y1, Par::Seq);
    kernels::spmv(&a16_soa, &x, &mut y2, Par::Seq);
    for (i, (&u, &v)) in y1.iter().zip(&y2).enumerate() {
        assert!((u - v).abs() <= 1e-6 * (1.0 + u.abs()), "cell {i}: {u} vs {v}");
    }
}

#[test]
fn simd_residual_matches_generic() {
    let g = Grid3::new(13, 7, 6);
    let a64 = random_matrix(g, Pattern::p19(), Layout::Aos, 8);
    let a16_aos = a64.convert::<F16>();
    let a16_soa = a16_aos.to_layout(Layout::Soa);
    let x: Vec<f32> = random_vec(g.unknowns(), 5).iter().map(|&v| v as f32).collect();
    let b: Vec<f32> = random_vec(g.unknowns(), 6).iter().map(|&v| v as f32).collect();
    let mut r1 = vec![0.0f32; g.unknowns()];
    let mut r2 = vec![0.0f32; g.unknowns()];
    kernels::residual(&a16_aos, &b, &x, &mut r1, Par::Seq);
    kernels::residual(&a16_soa, &b, &x, &mut r2, Par::Seq);
    for (&u, &v) in r1.iter().zip(&r2) {
        assert!((u - v).abs() <= 1e-5 * (1.0 + u.abs()));
    }
}

#[test]
fn spmv_f32_soa_simd_matches_aos() {
    let g = Grid3::new(11, 8, 3);
    let a64 = random_matrix(g, Pattern::p27(), Layout::Aos, 12);
    let a32_aos = a64.convert::<f32>();
    let a32_soa = a32_aos.to_layout(Layout::Soa);
    let x: Vec<f32> = random_vec(g.unknowns(), 7).iter().map(|&v| v as f32).collect();
    let mut y1 = vec![0.0f32; g.unknowns()];
    let mut y2 = vec![0.0f32; g.unknowns()];
    kernels::spmv(&a32_aos, &x, &mut y1, Par::Seq);
    kernels::spmv(&a32_soa, &x, &mut y2, Par::Seq);
    for (&u, &v) in y1.iter().zip(&y2) {
        assert!((u - v).abs() <= 1e-6 * (1.0 + u.abs()));
    }
}

#[test]
fn spmv_parallel_matches_seq() {
    let g = Grid3::cube(24);
    let a = random_matrix(g, Pattern::p7(), Layout::Soa, 21).convert::<F16>();
    let x: Vec<f32> = random_vec(g.unknowns(), 3).iter().map(|&v| v as f32).collect();
    let mut y1 = vec![0.0f32; g.unknowns()];
    let mut y2 = vec![0.0f32; g.unknowns()];
    kernels::spmv(&a, &x, &mut y1, Par::Seq);
    kernels::spmv(&a, &x, &mut y2, Par::Threads(0));
    assert_eq!(y1, y2);
}

#[test]
fn sptrsv_forward_solves_lower_system() {
    for pat in [Pattern::p7(), Pattern::p19(), Pattern::p27()] {
        let g = Grid3::new(7, 6, 5);
        let full = random_matrix(g, pat, Layout::Aos, 50);
        // Build L explicitly with the lower pattern.
        let lp = full.pattern().lower_with_diag();
        let mut l = SgDia::<f64>::zeros(g, lp.clone(), Layout::Aos);
        for cell in 0..g.cells() {
            for (t, tap) in lp.taps().iter().enumerate() {
                let ft = full.pattern().tap_index(*tap).unwrap();
                l.set(cell, t, full.get(cell, ft));
            }
        }
        let b = random_vec(g.unknowns(), 51);
        let mut x = vec![0.0f64; g.unknowns()];
        kernels::sptrsv_forward(&l, &b, &mut x);
        // Check L x = b by CSR lower solve comparison.
        let csr = Csr::from_sgdia(&l);
        let mut xref = vec![0.0f64; g.unknowns()];
        csr.solve_lower(&b, &mut xref);
        assert!(max_rel_err(&x, &xref) < 1e-12, "{}", lp.name());
        // And by multiplying back.
        let mut bx = vec![0.0f64; g.unknowns()];
        kernels::spmv(&l, &x, &mut bx, Par::Seq);
        assert!(max_rel_err(&bx, &b) < 1e-10);
    }
}

#[test]
fn sptrsv_backward_solves_upper_system() {
    let g = Grid3::new(6, 5, 4);
    let full = random_matrix(g, Pattern::p27(), Layout::Aos, 60);
    let up = full.pattern().lower_with_diag().transpose();
    let mut u = SgDia::<f64>::zeros(g, up.clone(), Layout::Aos);
    for cell in 0..g.cells() {
        for (t, tap) in up.taps().iter().enumerate() {
            let ft = full.pattern().tap_index(*tap).unwrap();
            u.set(cell, t, full.get(cell, ft));
        }
    }
    let b = random_vec(g.unknowns(), 61);
    let mut x = vec![0.0f64; g.unknowns()];
    kernels::sptrsv_backward(&u, &b, &mut x);
    let csr = Csr::from_sgdia(&u);
    let mut xref = vec![0.0f64; g.unknowns()];
    csr.solve_upper(&b, &mut xref);
    assert!(max_rel_err(&x, &xref) < 1e-12);
}

#[test]
fn sptrsv_staged_f16_matches_generic() {
    let g = Grid3::new(19, 6, 4);
    let full = random_matrix(g, Pattern::p27(), Layout::Aos, 70);
    let lp = full.pattern().lower_with_diag();
    let mut l = SgDia::<f64>::zeros(g, lp.clone(), Layout::Aos);
    for cell in 0..g.cells() {
        for (t, tap) in lp.taps().iter().enumerate() {
            let ft = full.pattern().tap_index(*tap).unwrap();
            l.set(cell, t, full.get(cell, ft));
        }
    }
    let l16_aos = l.convert::<F16>();
    let l16_soa = l16_aos.to_layout(Layout::Soa);
    let b: Vec<f32> = random_vec(g.unknowns(), 71).iter().map(|&v| v as f32).collect();
    let mut x1 = vec![0.0f32; g.unknowns()];
    let mut x2 = vec![0.0f32; g.unknowns()];
    kernels::sptrsv_forward(&l16_aos, &b, &mut x1); // generic path
    kernels::sptrsv_forward(&l16_soa, &b, &mut x2); // line kernel
    for (&u, &v) in x1.iter().zip(&x2) {
        assert!((u - v).abs() <= 1e-5 * (1.0 + u.abs()), "{u} vs {v}");
    }
}

#[test]
fn block_diag_inv_inverts() {
    let g = Grid3::with_components(3, 3, 3, 3);
    let a = random_matrix(g, Pattern::p7().with_components(3), Layout::Aos, 90);
    let dinv = BlockDiagInv::<f64>::from_matrix(&a).unwrap();
    // D * D^-1 rhs == rhs for every cell.
    let rhs = [0.3f64, -0.7, 1.1];
    for cell in 0..g.cells() {
        let mut out = [0.0f64; 3];
        dinv.solve(cell, &rhs, &mut out);
        // Multiply by the diagonal block again.
        let mut back = [0.0f64; 3];
        for tap in a.pattern().taps() {
            if tap.is_center() {
                let t = a.pattern().tap_index(*tap).unwrap();
                back[tap.cout as usize] += a.get(cell, t) * out[tap.cin as usize];
            }
        }
        for c in 0..3 {
            assert!((back[c] - rhs[c]).abs() < 1e-10, "cell {cell} comp {c}");
        }
    }
}

#[test]
fn gs_sweeps_reduce_spd_error() {
    let g = Grid3::cube(8);
    let a = random_matrix(g, Pattern::p7(), Layout::Aos, 100);
    let dinv = BlockDiagInv::<f64>::from_matrix(&a).unwrap();
    let xtrue = random_vec(g.unknowns(), 101);
    let mut b = vec![0.0f64; g.unknowns()];
    kernels::spmv(&a, &xtrue, &mut b, Par::Seq);
    let mut x = vec![0.0f64; g.unknowns()];
    let mut prev = f64::INFINITY;
    for _ in 0..60 {
        kernels::gs_forward(&a, &dinv, &b, &mut x);
        kernels::gs_backward(&a, &dinv, &b, &mut x);
        let err: f64 = x.iter().zip(&xtrue).map(|(&u, &v)| (u - v) * (u - v)).sum();
        assert!(err < prev || err < 1e-20, "SymGS must be monotone on this SPD system");
        prev = err;
    }
    assert!(prev < 1e-6);
}

#[test]
fn gs_staged_f16_matches_generic() {
    let g = Grid3::new(15, 6, 4);
    let a64 = random_matrix(g, Pattern::p19(), Layout::Aos, 110);
    let a16_aos = a64.convert::<F16>();
    let a16_soa = a16_aos.to_layout(Layout::Soa);
    let dinv_aos = BlockDiagInv::<f32>::from_matrix(&a16_aos).unwrap();
    let dinv_soa = BlockDiagInv::<f32>::from_matrix(&a16_soa).unwrap();
    let b: Vec<f32> = random_vec(g.unknowns(), 111).iter().map(|&v| v as f32).collect();
    let mut x1 = vec![0.0f32; g.unknowns()];
    let mut x2 = vec![0.0f32; g.unknowns()];
    kernels::gs_forward(&a16_aos, &dinv_aos, &b, &mut x1);
    kernels::gs_forward(&a16_soa, &dinv_soa, &b, &mut x2);
    for (&u, &v) in x1.iter().zip(&x2) {
        assert!((u - v).abs() <= 1e-4 * (1.0 + u.abs()), "{u} vs {v}");
    }
    kernels::gs_backward(&a16_aos, &dinv_aos, &b, &mut x1);
    kernels::gs_backward(&a16_soa, &dinv_soa, &b, &mut x2);
    for (&u, &v) in x1.iter().zip(&x2) {
        assert!((u - v).abs() <= 1e-4 * (1.0 + u.abs()), "{u} vs {v}");
    }
}

#[test]
fn gs_block_solves_exactly_on_block_diagonal_matrix() {
    // With only center taps, one GS sweep is a direct solve.
    let g = Grid3::with_components(3, 3, 2, 2);
    let center = Pattern::new(
        (0..2u8)
            .flat_map(|o| (0..2u8).map(move |i| fp16mg_stencil::Tap::at_comp(0, 0, 0, o, i)))
            .collect(),
    );
    let a = random_matrix(g, center, Layout::Aos, 120);
    let dinv = BlockDiagInv::<f64>::from_matrix(&a).unwrap();
    let xtrue = random_vec(g.unknowns(), 121);
    let mut b = vec![0.0f64; g.unknowns()];
    kernels::spmv(&a, &xtrue, &mut b, Par::Seq);
    let mut x = vec![0.0f64; g.unknowns()];
    kernels::gs_forward(&a, &dinv, &b, &mut x);
    assert!(max_rel_err(&x, &xtrue) < 1e-12);
}

#[test]
fn transpose_matches_csr_transpose() {
    let g = Grid3::new(4, 5, 3);
    let a = random_matrix(g, Pattern::p19(), Layout::Aos, 130);
    let at = a.transpose();
    let x = random_vec(g.unknowns(), 131);
    // y1 = Aᵀ x via structured transpose.
    let mut y1 = vec![0.0f64; g.unknowns()];
    kernels::spmv(&at, &x, &mut y1, Par::Seq);
    // y2 = Aᵀ x via xᵀA on the CSR (column accumulation).
    let csr = Csr::from_sgdia(&a);
    let mut y2 = vec![0.0f64; g.unknowns()];
    for (row, &xr) in x.iter().enumerate().take(csr.rows()) {
        let lo = csr.row_ptr()[row] as usize;
        let hi = csr.row_ptr()[row + 1] as usize;
        for e in lo..hi {
            y2[csr.col_idx()[e] as usize] += csr.values()[e] * xr;
        }
    }
    assert!(max_rel_err(&y1, &y2) < 1e-12);
}

#[test]
fn convert_truncates_and_detects_overflow() {
    let g = Grid3::cube(3);
    let mut a = SgDia::<f64>::zeros(g, Pattern::p7(), Layout::Aos);
    let dt = a.pattern().diagonal_indices()[0];
    for cell in 0..g.cells() {
        a.set(cell, dt, 1.0e8);
    }
    let a16 = a.convert::<F16>();
    assert!(!a16.all_finite(), "1e8 must overflow FP16");
    let ab16 = a.convert::<Bf16>();
    assert!(ab16.all_finite(), "1e8 fits in BF16");
    let (mx, nonfinite) = a16.abs_max();
    assert!(nonfinite);
    assert_eq!(mx, 0.0);
}

#[test]
fn g_max_prevents_overflow() {
    // Matrix with huge entries: diagonal 1e8, off-diagonal -1e7.
    let g = Grid3::cube(4);
    let p = Pattern::p7();
    let taps: Vec<_> = p.taps().to_vec();
    let mut a = SgDia::<f64>::from_fn(g, p, Layout::Aos, |_, _, _, _, t| {
        if taps[t].is_diagonal() {
            1.0e8
        } else {
            -1.0e7
        }
    });
    assert!(!a.convert::<F16>().all_finite(), "unscaled must overflow");
    let gmax = scaling::g_max(&a, F16::MAX_F64).unwrap();
    // The minimum ratio over all entries includes the diagonal itself
    // (a_ii / a_ii = 1), so G_max = FP16_MAX exactly; off-diagonals scale
    // to G/10 and stay far from overflow.
    assert!((gmax - F16::MAX_F64).abs() / gmax < 1e-12);
    let sv = scaling::scale_symmetric::<f32>(&mut a, GChoice::Auto, F16::MAX_F64).unwrap();
    let a16 = a.convert::<F16>();
    assert!(a16.all_finite(), "Theorem 4.1: scaled truncation is overflow-free");
    // Scaled diagonal equals G.
    let dt = a16.pattern().diagonal_indices()[0];
    for cell in 0..g.cells() {
        assert!((a16.get(cell, dt).to_f64() - sv.g).abs() / sv.g < 1e-3);
    }
}

#[test]
fn scaling_recovers_original_operator() {
    let g = Grid3::cube(5);
    let a = random_matrix(g, Pattern::p27(), Layout::Aos, 140);
    let mut scaled = a.clone();
    let sv = scaling::scale_symmetric::<f64>(&mut scaled, GChoice::Auto, F16::MAX_F64).unwrap();
    // A x == S (Ã (S x)) with S = diag(s).
    let x = random_vec(g.unknowns(), 141);
    let mut sx = vec![0.0f64; g.unknowns()];
    scaling::rescale_into(&x, &sv.s, &mut sx);
    let mut y = vec![0.0f64; g.unknowns()];
    kernels::spmv(&scaled, &sx, &mut y, Par::Seq);
    scaling::rescale_in_place(&mut y, &sv.s);
    let mut yref = vec![0.0f64; g.unknowns()];
    kernels::spmv(&a, &x, &mut yref, Par::Seq);
    assert!(max_rel_err(&y, &yref) < 1e-10);
    // s and s_inv are reciprocal.
    for (&si, &ii) in sv.s.iter().zip(&sv.s_inv) {
        assert!((si * ii - 1.0).abs() < 1e-12);
    }
}

#[test]
fn g_max_rejects_nonpositive_diagonal() {
    let g = Grid3::cube(2);
    let a = SgDia::<f64>::zeros(g, Pattern::p7(), Layout::Aos);
    assert!(scaling::g_max(&a, F16::MAX_F64).is_err());
}

#[test]
fn table2_matches_paper() {
    let rows = model::table2(model::SUITESPARSE_DELTA);
    // SG-DIA: 8/4/2 bytes, bounds 2/2/4.
    assert_eq!(rows[0].bytes, [8.0, 4.0, 2.0]);
    assert_eq!(rows[0].bounds, [2.0, 2.0, 4.0]);
    // CSR int32: bounds < 1.5 / < 1.3 / < 2.
    assert!(rows[1].bounds[0] < 1.5 && rows[1].bounds[0] > 1.3);
    assert!(rows[1].bounds[1] < 1.31); // (8+4δ)/(6+4δ) = 1.303 at δ=0.15
    assert!(rows[1].bounds[2] < 2.0 && rows[1].bounds[2] > 1.7);
    // CSR int64: bounds < 1.3 / < 1.2 / < 1.6.
    assert!(rows[2].bounds[0] < 1.31); // (16+8δ)/(12+8δ) = 1.303 at δ=0.15
    assert!(rows[2].bounds[1] < 1.2);
    assert!(rows[2].bounds[2] < 1.6);
}

#[test]
fn matrix_percent_eq2() {
    // 3d27 stencil on a large grid: percent ≈ 27/(27+2) ≈ 0.93; the paper
    // quotes 0.90 for 3d27, 0.88 for 3d19, 0.78 for 3d7 counting boundary
    // effects at specific sizes — check the asymptotic ordering.
    let p27 = model::matrix_percent(27, 1);
    let p19 = model::matrix_percent(19, 1);
    let p7 = model::matrix_percent(7, 1);
    assert!(p27 > p19 && p19 > p7);
    assert!(p7 > 0.7 && p27 > 0.9);
}

#[test]
fn spmv_max_speedup_bounds() {
    // Large 3d27 matrix: matrix dominates, ratio approaches 2.
    let s = model::spmv_max_speedup(
        27_000_000,
        1_000_000,
        Precision::F32,
        Precision::F16,
        Precision::F32,
    );
    assert!(s > 1.8 && s < 2.0, "got {s}");
    // 3d7: more vector-bound, lower ceiling.
    let s7 = model::spmv_max_speedup(
        7_000_000,
        1_000_000,
        Precision::F32,
        Precision::F16,
        Precision::F32,
    );
    assert!(s7 < s && s7 > 1.4, "got {s7}");
}

#[test]
fn format_bytes_per_nnz() {
    assert_eq!(Format::SgDia.bytes_per_nnz(Precision::F16, 0.15), 2.0);
    assert_eq!(Format::CsrInt32.bytes_per_nnz(Precision::F64, 0.0), 12.0);
    assert_eq!(Format::CsrInt64.bytes_per_nnz(Precision::F16, 0.0), 10.0);
}

#[test]
fn prop_spmv_matches_csr() {
    check("prop_spmv_matches_csr", |rng| {
        let seed = rng.next_u64() % 1000;
        let g = Grid3::new(rng.usize_range(2, 7), rng.usize_range(2, 6), rng.usize_range(2, 5));
        let a = random_matrix(g, Pattern::p19(), Layout::Aos, seed);
        let csr = Csr::from_sgdia(&a);
        let x = random_vec(g.unknowns(), seed ^ 0xabc);
        let mut y1 = vec![0.0f64; g.unknowns()];
        let mut y2 = vec![0.0f64; g.unknowns()];
        kernels::spmv(&a, &x, &mut y1, Par::Seq);
        csr.spmv(&x, &mut y2);
        assert!(max_rel_err(&y1, &y2) < 1e-12);
    });
}

#[test]
fn prop_scaling_theorem() {
    // Any diagonally dominant M-matrix scaled per Theorem 4.1 truncates
    // to finite FP16, regardless of the original magnitude.
    check("prop_scaling_theorem", |rng| {
        let seed = rng.next_u64() % 1000;
        let scale_pow = rng.usize_range(0, 12) as i32;
        let g = Grid3::cube(4);
        let factor = 10f64.powi(scale_pow);
        let mut a = random_matrix(g, Pattern::p7(), Layout::Aos, seed);
        for v in a.data_mut() {
            *v *= factor;
        }
        let mut scaled = a.clone();
        let _ = scaling::scale_symmetric::<f32>(&mut scaled, GChoice::Auto, F16::MAX_F64).unwrap();
        assert!(scaled.convert::<F16>().all_finite());
    });
}

#[test]
fn prop_sptrsv_residual_small() {
    check("prop_sptrsv_residual_small", |rng| {
        let seed = rng.next_u64() % 1000;
        let g = Grid3::new(5, 4, 3);
        let full = random_matrix(g, Pattern::p7(), Layout::Aos, seed);
        let lp = full.pattern().lower_with_diag();
        let mut l = SgDia::<f64>::zeros(g, lp.clone(), Layout::Aos);
        for cell in 0..g.cells() {
            for (t, tap) in lp.taps().iter().enumerate() {
                let ft = full.pattern().tap_index(*tap).unwrap();
                l.set(cell, t, full.get(cell, ft));
            }
        }
        let b = random_vec(g.unknowns(), seed ^ 0x123);
        let mut x = vec![0.0f64; g.unknowns()];
        kernels::sptrsv_forward(&l, &b, &mut x);
        let mut r = vec![0.0f64; g.unknowns()];
        kernels::residual(&l, &b, &x, &mut r, Par::Seq);
        assert!(r.iter().all(|&v| v.abs() < 1e-9));
    });
}

#[test]
fn prop_layout_conversion_identity() {
    check("prop_layout_conversion_identity", |rng| {
        let seed = rng.next_u64() % 1000;
        let g = Grid3::new(4, 3, 5);
        let a = random_matrix(g, Pattern::p15(), Layout::Aos, seed);
        let b = a.to_layout(Layout::Soa).to_layout(Layout::Aos);
        assert_eq!(a.data(), b.data());
    });
}

#[test]
fn staged_soa_spmv_matches_csr_for_all_storage() {
    // The line kernel's portable instantiation (BF16, mixed-precision
    // pairs) must agree with the CSR reference.
    let g = Grid3::new(9, 5, 4);
    let a64 = random_matrix(g, Pattern::p19(), Layout::Soa, 200);
    let x = random_vec(g.unknowns(), 201);
    let csr = Csr::from_sgdia(&a64);
    let mut yref = vec![0.0f64; g.unknowns()];
    csr.spmv(&x, &mut yref);

    // f64 storage, f32 compute (the portable lanes, not the f64 SIMD ones).
    let x32: Vec<f32> = x.iter().map(|&v| v as f32).collect();
    let mut y32 = vec![0.0f32; g.unknowns()];
    kernels::spmv(&a64, &x32, &mut y32, Par::Seq);
    for (&u, &v) in y32.iter().zip(&yref) {
        assert!((u as f64 - v).abs() < 1e-4 * (1.0 + v.abs()));
    }

    // BF16 storage.
    let ab = a64.convert::<Bf16>();
    let mut yb = vec![0.0f32; g.unknowns()];
    kernels::spmv(&ab, &x32, &mut yb, Par::Seq);
    let mut yb_ref = vec![0.0f32; g.unknowns()];
    let ab_aos = ab.to_layout(Layout::Aos);
    kernels::spmv(&ab_aos, &x32, &mut yb_ref, Par::Seq);
    for (&u, &v) in yb.iter().zip(&yb_ref) {
        assert!((u - v).abs() < 1e-4 * (1.0 + v.abs()), "{u} vs {v}");
    }
}

#[test]
fn staged_soa_spmv_matches_generic_for_vector_pde() {
    let g = Grid3::with_components(7, 5, 4, 3);
    let a64 = random_matrix(g, Pattern::p7().with_components(3), Layout::Soa, 210);
    let a16_soa = a64.convert::<F16>();
    let a16_aos = a16_soa.to_layout(Layout::Aos); // generic path
    let x: Vec<f32> = random_vec(g.unknowns(), 211).iter().map(|&v| v as f32).collect();
    let b: Vec<f32> = random_vec(g.unknowns(), 212).iter().map(|&v| v as f32).collect();
    let mut y1 = vec![0.0f32; g.unknowns()];
    let mut y2 = vec![0.0f32; g.unknowns()];
    kernels::spmv(&a16_soa, &x, &mut y1, Par::Seq);
    kernels::spmv(&a16_aos, &x, &mut y2, Par::Seq);
    for (&u, &v) in y1.iter().zip(&y2) {
        assert!((u - v).abs() < 1e-4 * (1.0 + v.abs()), "{u} vs {v}");
    }
    let mut r1 = vec![0.0f32; g.unknowns()];
    let mut r2 = vec![0.0f32; g.unknowns()];
    kernels::residual(&a16_soa, &b, &x, &mut r1, Par::Seq);
    kernels::residual(&a16_aos, &b, &x, &mut r2, Par::Seq);
    for (&u, &v) in r1.iter().zip(&r2) {
        assert!((u - v).abs() < 1e-4 * (1.0 + v.abs()));
    }
}

#[test]
fn staged_gs_matches_generic_for_vector_pde() {
    let g = Grid3::with_components(6, 5, 3, 2);
    let a64 = random_matrix(g, Pattern::p7().with_components(2), Layout::Soa, 220);
    let a16_soa = a64.convert::<F16>();
    let a16_aos = a16_soa.to_layout(Layout::Aos);
    let dinv_soa = BlockDiagInv::<f32>::from_matrix(&a16_soa).unwrap();
    let dinv_aos = BlockDiagInv::<f32>::from_matrix(&a16_aos).unwrap();
    let b: Vec<f32> = random_vec(g.unknowns(), 221).iter().map(|&v| v as f32).collect();
    let mut x1 = vec![0.0f32; g.unknowns()];
    let mut x2 = vec![0.0f32; g.unknowns()];
    kernels::gs_forward(&a16_soa, &dinv_soa, &b, &mut x1);
    kernels::gs_forward(&a16_aos, &dinv_aos, &b, &mut x2);
    for (&u, &v) in x1.iter().zip(&x2) {
        assert!((u - v).abs() < 1e-3 * (1.0 + v.abs()), "{u} vs {v}");
    }
    kernels::gs_backward(&a16_soa, &dinv_soa, &b, &mut x1);
    kernels::gs_backward(&a16_aos, &dinv_aos, &b, &mut x2);
    for (&u, &v) in x1.iter().zip(&x2) {
        assert!((u - v).abs() < 1e-3 * (1.0 + v.abs()), "{u} vs {v}");
    }
}

#[test]
fn staged_spmv_parallel_chunks_split_lines_correctly() {
    // The portable lanes (f64 storage, f32 compute) under thread chunking,
    // scalar and with three components: every thread owns the same whole
    // lines of every output field.
    for r in [1, 3] {
        let g = Grid3::with_components(40, 16, 16, r); // 10240 cells > par::MIN_CELLS
        let pattern = if r == 1 { Pattern::p7() } else { Pattern::p7().with_components(r) };
        let a = random_matrix(g, pattern, Layout::Soa, 230);
        let x: Vec<f32> = random_vec(g.unknowns(), 231).iter().map(|&v| v as f32).collect();
        let mut y1 = vec![0.0f32; g.unknowns()];
        let mut y2 = vec![0.0f32; g.unknowns()];
        kernels::spmv(&a, &x, &mut y1, Par::Seq);
        kernels::spmv(&a, &x, &mut y2, Par::Threads(0));
        assert_eq!(y1, y2);
        kernels::spmv(&a, &x, &mut y2, Par::Threads(3));
        assert_eq!(y1, y2);
    }
}

#[test]
fn naive_aos_f16_spmv_matches_soa() {
    // The naive AOS hardware-convert path (Fig. 4 left) must agree with
    // the SIMD SOA path bit-for-bit up to reduction order.
    let g = Grid3::new(21, 7, 5);
    let a64 = random_matrix(g, Pattern::p27(), Layout::Soa, 240);
    let a16_soa = a64.convert::<F16>();
    let a16_aos = a16_soa.to_layout(Layout::Aos);
    let x: Vec<f32> = random_vec(g.unknowns(), 241).iter().map(|&v| v as f32).collect();
    let mut y1 = vec![0.0f32; g.unknowns()];
    let mut y2 = vec![0.0f32; g.unknowns()];
    kernels::spmv(&a16_soa, &x, &mut y1, Par::Seq);
    kernels::spmv(&a16_aos, &x, &mut y2, Par::Seq);
    for (&u, &v) in y1.iter().zip(&y2) {
        assert!((u - v).abs() < 1e-5 * (1.0 + v.abs()));
    }
}

#[test]
fn ilu0_factors_reproduce_matrix_on_pattern() {
    // For ILU(0), (L·U)_ij == a_ij exactly on the stencil pattern (the
    // dropped fill lives outside it).
    let g = Grid3::new(5, 4, 3);
    let a = random_matrix(g, Pattern::p7(), Layout::Soa, 300);
    let f = crate::ilu::ilu0(&a).unwrap();
    let lcsr = Csr::<f64>::from_sgdia(&f.l);
    let ucsr = Csr::<f64>::from_sgdia(&f.u);
    let n = a.rows();
    let mut lrow = vec![0.0f64; n];
    let mut ucol_cache: Vec<Vec<f64>> = Vec::new();
    // Dense U rows.
    for r in 0..n {
        let mut row = vec![0.0f64; n];
        ucsr.dense_row(r, &mut row);
        ucol_cache.push(row);
    }
    let acsr = Csr::<f64>::from_sgdia(&a);
    let mut arow = vec![0.0f64; n];
    for i in 0..n {
        lcsr.dense_row(i, &mut lrow);
        acsr.dense_row(i, &mut arow);
        for j in 0..n {
            if arow[j] == 0.0 && i != j {
                continue; // only check the pattern
            }
            let mut lu = 0.0;
            for (k, &lv) in lrow.iter().enumerate() {
                if lv != 0.0 {
                    lu += lv * ucol_cache[k][j];
                }
            }
            // Structural positions of A (even if the value is zero at the
            // boundary) must match; allow roundoff.
            let scale = arow[j].abs().max(1.0);
            assert!((lu - arow[j]).abs() < 1e-10 * scale, "({i},{j}): {lu} vs {}", arow[j]);
        }
    }
}

#[test]
fn ilu0_preconditioner_beats_jacobi_quality() {
    // One ILU(0) application reduces the error more than one Jacobi
    // application on a diffusion operator.
    let g = Grid3::cube(8);
    let a = random_matrix(g, Pattern::p7(), Layout::Soa, 310);
    let f = crate::ilu::ilu0(&a).unwrap();
    let xtrue = random_vec(g.unknowns(), 311);
    let mut b = vec![0.0f64; g.unknowns()];
    kernels::spmv(&a, &xtrue, &mut b, Par::Seq);
    // ILU apply: x = U^{-1} L^{-1} b.
    let mut y = vec![0.0f64; g.unknowns()];
    kernels::sptrsv_forward(&f.l, &b, &mut y);
    let mut x_ilu = vec![0.0f64; g.unknowns()];
    kernels::sptrsv_backward(&f.u, &y, &mut x_ilu);
    // Jacobi apply: x = D^{-1} b.
    let dinv = BlockDiagInv::<f64>::from_matrix(&a).unwrap();
    let mut x_jac = vec![0.0f64; g.unknowns()];
    for c in 0..g.unknowns() {
        dinv.solve(c, &b[c..c + 1], &mut x_jac[c..c + 1]);
    }
    let err = |x: &[f64]| -> f64 {
        x.iter().zip(&xtrue).map(|(&u, &v)| (u - v) * (u - v)).sum::<f64>().sqrt()
    };
    assert!(err(&x_ilu) < 0.5 * err(&x_jac), "ILU {} vs Jacobi {}", err(&x_ilu), err(&x_jac));
}

#[test]
fn ilu0_truncated_factors_still_solve() {
    // The paper's flow: factor in high precision, truncate L/U to FP16,
    // solve with the mixed-precision kernels.
    let g = Grid3::cube(6);
    let a = random_matrix(g, Pattern::p19(), Layout::Soa, 320);
    let f = crate::ilu::ilu0(&a).unwrap();
    let l16 = f.l.convert::<F16>();
    let u16 = f.u.convert::<F16>();
    let b: Vec<f32> = random_vec(g.unknowns(), 321).iter().map(|&v| v as f32).collect();
    let mut y = vec![0.0f32; g.unknowns()];
    kernels::sptrsv_forward(&l16, &b, &mut y);
    let mut x = vec![0.0f32; g.unknowns()];
    kernels::sptrsv_backward(&u16, &y, &mut x);
    // Compare against the f64 factors: FP16 truncation error only.
    let b64: Vec<f64> = b.iter().map(|&v| v as f64).collect();
    let mut y64 = vec![0.0f64; g.unknowns()];
    kernels::sptrsv_forward(&f.l, &b64, &mut y64);
    let mut x64 = vec![0.0f64; g.unknowns()];
    kernels::sptrsv_backward(&f.u, &y64, &mut x64);
    for (&u, &v) in x.iter().zip(&x64) {
        assert!((u as f64 - v).abs() < 2e-2 * (1.0 + v.abs()), "{u} vs {v}");
    }
}

#[test]
fn ilu0_rejects_vector_matrices() {
    let g = Grid3::with_components(3, 3, 3, 2);
    let a = random_matrix(g, Pattern::p7().with_components(2), Layout::Soa, 330);
    let res = std::panic::catch_unwind(|| crate::ilu::ilu0(&a));
    assert!(res.is_err(), "ilu0 must panic on vector matrices");
}

#[test]
fn io_matrix_round_trip_all_precisions() {
    let g = Grid3::new(5, 4, 3);
    let a64 = random_matrix(g, Pattern::p19(), Layout::Soa, 400);
    // f64 exact round trip.
    let mut buf = Vec::new();
    crate::io::write_matrix(&a64, &mut buf).unwrap();
    let back = crate::io::read_matrix::<f64>(&mut buf.as_slice()).unwrap();
    assert_eq!(back.data(), a64.data());
    assert_eq!(back.pattern(), a64.pattern());
    assert_eq!(back.grid(), a64.grid());
    assert_eq!(back.layout(), a64.layout());
    // FP16: bit-exact round trip of the truncated values.
    let a16 = a64.convert::<F16>().to_layout(Layout::Aos);
    let mut buf = Vec::new();
    crate::io::write_matrix(&a16, &mut buf).unwrap();
    let back = crate::io::read_matrix::<F16>(&mut buf.as_slice()).unwrap();
    for (x, y) in back.data().iter().zip(a16.data()) {
        assert_eq!(x.to_bits(), y.to_bits());
    }
    assert_eq!(back.layout(), Layout::Aos);
    // BF16.
    let ab = a64.convert::<Bf16>();
    let mut buf = Vec::new();
    crate::io::write_matrix(&ab, &mut buf).unwrap();
    let back = crate::io::read_matrix::<Bf16>(&mut buf.as_slice()).unwrap();
    for (x, y) in back.data().iter().zip(ab.data()) {
        assert_eq!(x.to_bits(), y.to_bits());
    }
}

#[test]
fn io_rejects_wrong_precision_and_magic() {
    let g = Grid3::cube(3);
    let a = random_matrix(g, Pattern::p7(), Layout::Soa, 410);
    let mut buf = Vec::new();
    crate::io::write_matrix(&a, &mut buf).unwrap();
    assert!(crate::io::read_matrix::<f32>(&mut buf.as_slice()).is_err());
    let garbage = b"NOTMAGIC-and-more-bytes".to_vec();
    assert!(crate::io::read_matrix::<f64>(&mut garbage.as_slice()).is_err());
}

#[test]
fn io_vector_round_trip() {
    let v = random_vec(137, 420);
    let mut buf = Vec::new();
    crate::io::write_vector(&v, &mut buf).unwrap();
    let back = crate::io::read_vector(&mut buf.as_slice()).unwrap();
    assert_eq!(v, back);
}

#[test]
fn io_matrix_market_round_trip() {
    let g = Grid3::new(4, 3, 3);
    let a = random_matrix(g, Pattern::p7(), Layout::Soa, 430);
    let csr = Csr::<f64>::from_sgdia(&a);
    let mut buf = Vec::new();
    crate::io::write_matrix_market(&csr, &mut buf).unwrap();
    let back = crate::io::read_matrix_market(&mut buf.as_slice()).unwrap();
    assert_eq!(back.rows(), csr.rows());
    assert_eq!(back.nnz(), csr.nnz());
    // SpMV agreement (entry order may differ within rows after sort).
    let x = random_vec(csr.rows(), 431);
    let mut y1 = vec![0.0f64; csr.rows()];
    let mut y2 = vec![0.0f64; csr.rows()];
    csr.spmv(&x, &mut y1);
    back.spmv(&x, &mut y2);
    for (u, v) in y1.iter().zip(&y2) {
        assert!((u - v).abs() < 1e-10 * (1.0 + u.abs()));
    }
}

#[test]
fn io_matrix_market_symmetric_expansion() {
    let text = "%%MatrixMarket matrix coordinate real symmetric\n3 3 4\n1 1 2.0\n2 1 -1.0\n2 2 2.0\n3 3 1.5\n";
    let m = crate::io::read_matrix_market(&mut text.as_bytes()).unwrap();
    assert_eq!(m.nnz(), 5); // off-diagonal mirrored
    let x = vec![1.0f64, 2.0, 3.0];
    let mut y = vec![0.0f64; 3];
    m.spmv(&x, &mut y);
    assert_eq!(y, vec![2.0 - 2.0, -1.0 + 4.0, 4.5]);
}

/// Extracts the typed decode cause from a reader's `io::Error`.
fn decode_cause(err: std::io::Error) -> crate::io::DecodeError {
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    err.get_ref()
        .and_then(|e| e.downcast_ref::<crate::io::DecodeError>())
        .expect("inner error must be a DecodeError")
        .clone()
}

/// A binary matrix header with arbitrary counts: magic, five u64 counts,
/// precision tag (f64) and layout flag.
fn matrix_header(nx: u64, ny: u64, nz: u64, components: u64, ntaps: u64) -> Vec<u8> {
    let mut buf = b"FP16MGA1".to_vec();
    for v in [nx, ny, nz, components, ntaps] {
        buf.extend_from_slice(&v.to_le_bytes());
    }
    buf.extend_from_slice(&[0u8, 1u8]);
    buf
}

#[test]
fn io_corrupt_tap_count_is_refused_before_allocation() {
    use crate::io::{limits, DecodeError};
    // A header declaring u64::MAX taps must yield a typed refusal, not
    // an attempted huge allocation.
    let hdr = matrix_header(4, 4, 4, 1, u64::MAX);
    let err = crate::io::read_matrix::<f64>(&mut hdr.as_slice()).unwrap_err();
    assert_eq!(
        decode_cause(err),
        DecodeError::LimitExceeded { what: "taps", got: u64::MAX, limit: limits::MAX_TAPS as u64 }
    );
}

#[test]
fn io_corrupt_extent_and_component_counts_are_refused() {
    use crate::io::{limits, DecodeError};
    let hdr = matrix_header(1 << 60, 4, 4, 1, 7);
    let err = crate::io::read_matrix::<f64>(&mut hdr.as_slice()).unwrap_err();
    assert_eq!(
        decode_cause(err),
        DecodeError::LimitExceeded {
            what: "extent",
            got: 1 << 60,
            limit: limits::MAX_EXTENT as u64
        }
    );
    let hdr = matrix_header(4, 4, 4, 1 << 20, 7);
    let err = crate::io::read_matrix::<f64>(&mut hdr.as_slice()).unwrap_err();
    assert!(matches!(decode_cause(err), DecodeError::LimitExceeded { what: "components", .. }));
}

#[test]
fn io_total_entry_product_is_bounded_even_when_each_count_is_legal() {
    use crate::io::{limits, DecodeError};
    // Every count individually at or under its limit, but the product
    // (2^62 entries) is far past MAX_ENTRIES: the multiplied size must
    // be checked before any payload allocation.
    let hdr = matrix_header(
        limits::MAX_EXTENT as u64,
        limits::MAX_EXTENT as u64,
        limits::MAX_EXTENT as u64,
        limits::MAX_COMPONENTS as u64,
        limits::MAX_TAPS as u64,
    );
    let err = crate::io::read_matrix::<f64>(&mut hdr.as_slice()).unwrap_err();
    assert_eq!(decode_cause(err), DecodeError::EntriesOverflow);
}

#[test]
fn io_vector_length_is_bounded() {
    use crate::io::{limits, DecodeError};
    let mut buf = b"FP16MGV1".to_vec();
    buf.extend_from_slice(&u64::MAX.to_le_bytes());
    let err = crate::io::read_vector(&mut buf.as_slice()).unwrap_err();
    assert_eq!(
        decode_cause(err),
        DecodeError::LimitExceeded {
            what: "vector entries",
            got: u64::MAX,
            limit: limits::MAX_VECTOR_LEN as u64
        }
    );
}

#[test]
fn io_matrix_market_entry_count_is_bounded() {
    use crate::io::{limits, DecodeError};
    // A tiny text file declaring 2^30 + 1 stored entries: refused from
    // the size line alone.
    let text = format!(
        "%%MatrixMarket matrix coordinate real general\n10 10 {}\n",
        limits::MAX_NNZ as u64 + 1
    );
    let err = crate::io::read_matrix_market(&mut text.as_bytes()).unwrap_err();
    assert!(matches!(
        decode_cause(err),
        DecodeError::LimitExceeded { what: "MatrixMarket entries", .. }
    ));
}

#[test]
fn degenerate_grid_shapes() {
    // Quasi-1D and quasi-2D grids must work through every kernel path.
    for g in [Grid3::new(32, 1, 1), Grid3::new(16, 16, 1), Grid3::new(1, 8, 8), Grid3::new(2, 2, 2)]
    {
        let a = random_matrix(g, Pattern::p7(), Layout::Soa, 500 + g.nx as u64);
        let csr = Csr::from_sgdia(&a);
        let x = random_vec(g.unknowns(), 501);
        let mut y1 = vec![0.0f64; g.unknowns()];
        let mut y2 = vec![0.0f64; g.unknowns()];
        kernels::spmv(&a, &x, &mut y1, Par::Seq);
        csr.spmv(&x, &mut y2);
        assert!(max_rel_err(&y1, &y2) < 1e-12, "{g:?}");

        // GS sweep consistency SOA (staged) vs AOS (generic).
        let a16 = a.convert::<F16>();
        let a16_aos = a16.to_layout(Layout::Aos);
        let dinv1 = BlockDiagInv::<f32>::from_matrix(&a16).unwrap();
        let dinv2 = BlockDiagInv::<f32>::from_matrix(&a16_aos).unwrap();
        let b: Vec<f32> = random_vec(g.unknowns(), 502).iter().map(|&v| v as f32).collect();
        let mut x1 = vec![0.0f32; g.unknowns()];
        let mut x2 = vec![0.0f32; g.unknowns()];
        kernels::gs_forward(&a16, &dinv1, &b, &mut x1);
        kernels::gs_forward(&a16_aos, &dinv2, &b, &mut x2);
        for (&u, &v) in x1.iter().zip(&x2) {
            assert!((u - v).abs() < 1e-4 * (1.0 + v.abs()), "{g:?}: {u} vs {v}");
        }
    }
}

#[test]
fn sptrsv_on_degenerate_shapes() {
    for g in [Grid3::new(24, 1, 1), Grid3::new(8, 8, 1), Grid3::new(1, 1, 16)] {
        let full = random_matrix(g, Pattern::p7(), Layout::Soa, 510 + g.nz as u64);
        let l = crate::tests::lower_of(&full);
        let b = random_vec(g.unknowns(), 511);
        let mut x = vec![0.0f64; g.unknowns()];
        kernels::sptrsv_forward(&l, &b, &mut x);
        let mut r = vec![0.0f64; g.unknowns()];
        kernels::residual(&l, &b, &x, &mut r, Par::Seq);
        assert!(r.iter().all(|&v| v.abs() < 1e-9), "{g:?}");
    }
}

/// Extracts the lower-with-diag triangular matrix (test helper).
pub(crate) fn lower_of(full: &SgDia<f64>) -> SgDia<f64> {
    part_of(full, &full.pattern().lower_with_diag())
}

/// The entries of `full` on a sub-pattern, as a matrix of its own.
fn part_of(full: &SgDia<f64>, part: &Pattern) -> SgDia<f64> {
    let mut m = SgDia::<f64>::zeros(*full.grid(), part.clone(), full.layout());
    for cell in 0..full.grid().cells() {
        for (t, tap) in part.taps().iter().enumerate() {
            let ft = full.pattern().tap_index(*tap).unwrap();
            m.set(cell, t, full.get(cell, ft));
        }
    }
    m
}

#[test]
fn ilu0_on_degenerate_shapes() {
    for g in [Grid3::new(16, 1, 1), Grid3::new(6, 6, 1)] {
        let a = random_matrix(g, Pattern::p7(), Layout::Soa, 520);
        let f = crate::ilu::ilu0(&a).unwrap();
        // (LU)⁻¹ b must be a decent approximation: residual smaller than b.
        let b = random_vec(g.unknowns(), 521);
        let mut y = vec![0.0f64; g.unknowns()];
        kernels::sptrsv_forward(&f.l, &b, &mut y);
        let mut x = vec![0.0f64; g.unknowns()];
        kernels::sptrsv_backward(&f.u, &y, &mut x);
        let mut r = vec![0.0f64; g.unknowns()];
        kernels::residual(&a, &b, &x, &mut r, Par::Seq);
        let rn: f64 = r.iter().map(|&v| v * v).sum::<f64>().sqrt();
        let bn: f64 = b.iter().map(|&v| v * v).sum::<f64>().sqrt();
        assert!(rn < 0.6 * bn, "{g:?}: {rn} vs {bn}");
    }
}

// --- Precision-audit property harness -----------------------------------
//
// The proptest-style fuzz suite over the FP16 scaling pipeline: 256 cases
// per property by default (override with PROPTEST_CASES), randomized
// SPD-ish stencil matrices spanning many decades of magnitude. These are
// the executable forms of Theorem 4.1 and of the audit/policy contracts.

#[test]
fn prop_theorem41_invariant_any_g() {
    use crate::audit::{self, TruncationPolicy};
    use fp16mg_fp::Precision;
    // For ANY admissible G (Fixed draws across the admissible range; the
    // safety clamp to G_max/2 caps larger requests and must RECORD the
    // clamp), the scaled matrix stores in FP16 with zero saturating
    // entries — the Theorem 4.1 no-overflow invariant, checked through
    // the audit, through the Reject policy, and through the plain
    // conversion.
    check_n("prop_theorem41_invariant_any_g", 256, |rng| {
        let seed = rng.next_u64() % 100_000;
        let pow = rng.usize_range(0, 14) as i32 - 2; // 10^-2 .. 10^11
        let g3 = Grid3::cube(4);
        let mut a = random_matrix(g3, Pattern::p7(), Layout::Aos, seed);
        let factor = 10f64.powi(pow);
        for v in a.data_mut() {
            *v *= factor;
        }
        let gmax = scaling::g_max(&a, F16::MAX_F64).unwrap();
        let requested = gmax * rng.f64_range(0.01, 0.6);
        let mut scaled = a.clone();
        let sv =
            scaling::scale_symmetric::<f64>(&mut scaled, GChoice::Fixed(requested), F16::MAX_F64)
                .unwrap();
        if requested > gmax / 2.0 {
            assert_eq!(sv.g_clamped_from, Some(requested), "clamp must be recorded");
            assert!((sv.g - gmax / 2.0).abs() <= gmax * 1e-12);
        } else {
            assert_eq!(sv.g_clamped_from, None);
            assert_eq!(sv.g, requested);
        }
        let lv = audit::audit(&scaled, Precision::F16);
        assert!(lv.overflow_free(), "Theorem 4.1 violated: {lv}");
        assert!(lv.headroom < 1.0, "headroom {} must stay below 1", lv.headroom);
        // Reject must pass a theorem-compliant matrix...
        assert!(audit::truncate_with_policy::<F16>(&scaled, TruncationPolicy::Reject).is_ok());
        // ...and the silent conversion agrees.
        assert!(scaled.convert::<F16>().all_finite());
    });
}

#[test]
fn prop_scale_truncate_recover_roundtrip() {
    use fp16mg_fp::Storage;
    // scale → truncate to FP16 → recover (s_row · ã · s_col) loses at
    // most ~one FP16 ulp relative to the FP64 source, for every entry
    // whose scaled value stays in the normal range.
    check_n("prop_scale_truncate_recover_roundtrip", 256, |rng| {
        let seed = rng.next_u64() % 100_000;
        let pow = rng.usize_range(0, 10) as i32;
        let g3 = Grid3::cube(4);
        let mut a = random_matrix(g3, Pattern::p7(), Layout::Aos, seed);
        let factor = 10f64.powi(pow);
        for v in a.data_mut() {
            *v *= factor;
        }
        let mut scaled = a.clone();
        let sv = scaling::scale_symmetric::<f64>(&mut scaled, GChoice::Auto, F16::MAX_F64).unwrap();
        let r = g3.components;
        let taps: Vec<_> = a.pattern().taps().to_vec();
        for (cell, i, j, k) in g3.iter_cells() {
            for (t, tap) in taps.iter().enumerate() {
                if !g3.contains_offset(i, j, k, tap.dx, tap.dy, tap.dz) {
                    continue;
                }
                let orig = a.get(cell, t);
                if orig == 0.0 {
                    continue;
                }
                let stored = F16::from_f64(scaled.get(cell, t)).to_f64();
                if stored.abs() < <F16 as Storage>::MIN_POSITIVE_NORMAL {
                    continue; // subnormal/underflowed: counted by the audit, not bounded here
                }
                let nb = (cell as i64 + g3.stride(tap.dx, tap.dy, tap.dz)) as usize;
                let row = cell * r + tap.cout as usize;
                let col = nb * r + tap.cin as usize;
                let recovered = sv.s[row] * stored * sv.s[col];
                let rel = (recovered - orig).abs() / orig.abs();
                assert!(
                    rel <= 1.0e-3,
                    "round-trip rel err {rel:e} at cell {cell} tap {t} (orig {orig:e})"
                );
            }
        }
    });
}

#[test]
fn prop_reject_never_passes_saturation() {
    use crate::audit::{self, TruncationError, TruncationPolicy};
    use fp16mg_fp::{Precision, Storage};
    // Plant one out-of-range entry at a random position: Reject MUST
    // refuse the matrix (if it ever lets a saturating entry through,
    // this property fails), Saturate must clamp it finitely, FlushToZero
    // must additionally leave no subnormals, and the audit must have
    // predicted the saturation.
    check_n("prop_reject_never_passes_saturation", 256, |rng| {
        let seed = rng.next_u64() % 100_000;
        let g3 = Grid3::cube(3);
        let mut a = random_matrix(g3, Pattern::p7(), Layout::Aos, seed);
        let cell = rng.usize_range(0, g3.cells());
        let tap = rng.usize_range(0, a.pattern().len());
        let magnitude = rng.f64_range(1.1, 1.0e4) * F16::MAX_F64;
        let sign = if rng.chance(0.5) { 1.0 } else { -1.0 };
        a.set(cell, tap, sign * magnitude);
        let lv = audit::audit(&a, Precision::F16);
        assert!(lv.saturate >= 1, "audit must predict the planted saturation");
        assert!(!lv.overflow_free());
        match audit::truncate_with_policy::<F16>(&a, TruncationPolicy::Reject) {
            Err(TruncationError::Saturation { value, limit, .. }) => {
                assert!(value.abs() > limit);
            }
            other => panic!("Reject let a saturating entry through: {other:?}"),
        }
        let sat = audit::truncate_with_policy::<F16>(&a, TruncationPolicy::Saturate).unwrap();
        assert!(sat.all_finite());
        assert!(
            (sat.get(cell, tap).to_f64() - sign * <F16 as Storage>::MAX_FINITE).abs() < 1.0,
            "saturating entry must clamp to ±MAX"
        );
        let ftz = audit::truncate_with_policy::<F16>(&a, TruncationPolicy::FlushToZero).unwrap();
        assert!(ftz.all_finite());
        assert_eq!(crate::scan::scan(&ftz).total.subnormal, 0);
    });
}

#[test]
fn prop_audit_counts_are_exact() {
    use crate::audit;
    use fp16mg_fp::{NumClass, Precision, Storage};
    // The audit's underflow/subnormal/saturate counts must equal what the
    // plain IEEE conversion actually produces, entry for entry — the
    // audit is a prediction, not an estimate.
    check_n("prop_audit_counts_are_exact", 256, |rng| {
        let g3 = Grid3::cube(3);
        let p = Pattern::p7();
        let n_entries = g3.cells() * p.len();
        let mut a = SgDia::<f64>::zeros(g3, p, Layout::Soa);
        let values: Vec<f64> = (0..n_entries)
            .map(|_| {
                if rng.chance(0.1) {
                    return 0.0;
                }
                let pow = rng.usize_range(0, 22) as i32 - 12; // 10^-12 .. 10^9
                let sign = if rng.chance(0.5) { 1.0 } else { -1.0 };
                sign * rng.f64_range(1.0, 10.0) * 10f64.powi(pow)
            })
            .collect();
        for cell in 0..g3.cells() {
            for tap in 0..a.pattern().len() {
                a.set(cell, tap, values[cell * 7 + tap]);
            }
        }
        let lv = audit::audit(&a, Precision::F16);
        let (mut zeros, mut sub, mut sat, mut src_zero) = (0u64, 0u64, 0u64, 0u64);
        for &v in a.data() {
            if v == 0.0 {
                src_zero += 1;
                continue;
            }
            match F16::from_f64(v).class() {
                NumClass::Zero => zeros += 1,
                NumClass::Subnormal => sub += 1,
                NumClass::Inf | NumClass::Nan => sat += 1,
                NumClass::Normal => {}
            }
        }
        assert_eq!(lv.entries, n_entries as u64);
        assert_eq!(lv.source_zeros, src_zero);
        assert_eq!(lv.underflow_zero, zeros);
        assert_eq!(lv.subnormal, sub);
        assert_eq!(lv.saturate, sat);
        assert_eq!(lv.headroom, lv.abs_max / <F16 as Storage>::MAX_FINITE);
        assert!(lv.mean_rel_err <= lv.max_rel_err);
        if lv.subnormal == 0 {
            // With every surviving entry normal, truncation loss is bounded
            // by one unit roundoff (Sterbenz-style rounding bound).
            assert!(lv.max_rel_err <= Precision::F16.unit_roundoff() * 1.0001);
            assert!(lv.max_ulp() <= 1.0001);
        } else {
            // Subnormal survivors suffer gradual-underflow loss: a source
            // just above half the smallest subnormal rounds up with
            // relative error approaching (but never reaching) 100%.
            assert!(lv.max_rel_err < 1.0, "rel err {} >= 1", lv.max_rel_err);
        }
    });
}

#[test]
fn prop_drift_symmetry_and_monotonicity() {
    use crate::audit;
    use fp16mg_fp::Precision;
    // drift() is a metric-like comparison of two audits: a uniform
    // 2^p rescale must read as exactly |p| log2 on both range ends,
    // the measure must be symmetric in its arguments, and scaling
    // further must never measure closer.
    check_n("prop_drift_symmetry_and_monotonicity", 256, |rng| {
        let seed = rng.next_u64() % 100_000;
        let g3 = Grid3::cube(3);
        let a = random_matrix(g3, Pattern::p7(), Layout::Aos, seed);
        let base = audit::audit(&a, Precision::F16);
        let p = rng.usize_range(0, 13) as i32 - 6; // 2^-6 .. 2^6
        let mut b = a.clone();
        for v in b.data_mut() {
            *v *= (p as f64).exp2(); // power-of-two multiply: exact in f64
        }
        let cur = audit::audit(&b, Precision::F16);
        let d = audit::drift(&base, &cur);
        assert!((d.range_shift - p.abs() as f64).abs() < 1e-9, "{d}");
        assert!((d.floor_shift - p.abs() as f64).abs() < 1e-9, "{d}");
        assert!(!d.structure_changed, "a pure rescale is never structural: {d}");
        // Symmetry: growing reads as far as shrinking.
        let back = audit::drift(&cur, &base);
        assert!((back.range_shift - d.range_shift).abs() < 1e-12);
        assert!((back.floor_shift - d.floor_shift).abs() < 1e-12);
        // Monotonicity: one more doubling never drifts less.
        let mut c = a.clone();
        for v in c.data_mut() {
            *v *= ((p.abs() + 1) as f64).exp2();
        }
        let further = audit::drift(&base, &audit::audit(&c, Precision::F16));
        assert!(
            further.magnitude() >= d.magnitude() - 1e-12,
            "{} < {}",
            further.magnitude(),
            d.magnitude()
        );
    });
}

// --- Rescale length-check satellites ------------------------------------

#[test]
#[should_panic(expected = "rescale length mismatch")]
fn rescale_in_place_rejects_short_scale_vector() {
    let mut dst = vec![1.0f64; 8];
    let s = vec![2.0f64; 7];
    scaling::rescale_in_place(&mut dst, &s);
}

#[test]
#[should_panic(expected = "rescale length mismatch")]
fn rescale_into_rejects_mismatched_lengths() {
    let src = vec![1.0f64; 8];
    let s = vec![2.0f64; 8];
    let mut dst = vec![0.0f64; 6];
    scaling::rescale_into(&src, &s, &mut dst);
}

#[test]
fn scaling_error_carries_index_and_value() {
    let g3 = Grid3::cube(2);
    let p = Pattern::p7();
    let taps: Vec<_> = p.taps().to_vec();
    let mut a =
        SgDia::<f64>::from_fn(
            g3,
            p,
            Layout::Aos,
            |_, _, _, _, t| {
                if taps[t].is_diagonal() {
                    4.0
                } else {
                    -0.5
                }
            },
        );
    let dt = a.pattern().diagonal_indices()[0];
    a.set(3, dt, -7.0);
    let err = scaling::g_max(&a, F16::MAX_F64).unwrap_err();
    assert_eq!(err, scaling::ScalingError::NonPositiveDiagonal { unknown: 3, value: -7.0 });
    assert_eq!(err.unknown(), 3);
    assert_eq!(err.value(), -7.0);
    a.set(3, dt, f64::INFINITY);
    let err = scaling::g_max(&a, F16::MAX_F64).unwrap_err();
    assert!(matches!(err, scaling::ScalingError::NonFiniteDiagonal { unknown: 3, .. }));
    // Display names the unknown so logs are actionable.
    assert!(err.to_string().contains("unknown 3"), "{err}");
}

// --- Integrity sentinels (ABFT) ------------------------------------------

mod sentinels {
    use super::*;
    use crate::sentinel;
    use fp16mg_fp::{Bf16, Storage, F16};

    fn source() -> SgDia<f64> {
        random_matrix(Grid3::cube(5), Pattern::p27(), Layout::Aos, 0x5e47)
    }

    fn stable_for<S: Storage>() {
        let a64 = source();
        let aos: SgDia<S> = a64.convert();
        let soa: SgDia<S> = a64.to_layout(Layout::Soa).convert();
        let s1 = sentinel::compute(&aos);
        let s2 = sentinel::compute(&aos);
        assert_eq!(s1, s2, "recomputation must be bit-exact");
        assert_eq!(
            s1,
            sentinel::compute(&soa),
            "sentinels are layout-independent: AOS and SOA stores agree"
        );
        assert!(sentinel::verify(&aos, &s1).is_empty(), "an intact plane never mismatches");
        assert_eq!(s1.taps.len(), aos.pattern().len());
        assert_eq!(s1.cells, aos.grid().cells());
    }

    #[test]
    fn sentinels_are_stable_across_all_storage_formats() {
        stable_for::<F16>();
        stable_for::<Bf16>();
        stable_for::<f32>();
        stable_for::<f64>();
    }

    /// Every lane of the hash and the values past the last whole group: a
    /// random bit of one value in each, on a random plane of a random
    /// operator, must be caught on exactly that plane — by the checksum,
    /// whatever the sums say — and flipping it back must verify clean.
    fn any_flip_is_caught<S: Storage>(rng: &mut fp16mg_testkit::Rng, from_bits: fn(u64) -> S) {
        let a0: SgDia<S> = super::setup_operator(rng).convert();
        let reference = sentinel::compute(&a0);
        // The other layout digests the same planes the same way.
        let other = if a0.layout() == Layout::Soa { Layout::Aos } else { Layout::Soa };
        // (As bits: a plane with ±∞ in it sums to NaN, kept canonical.)
        let bits = |s: &sentinel::MatrixSentinels| -> Vec<[u64; 3]> {
            s.taps.iter().map(|t| [t.checksum, t.sum.to_bits(), t.abs_sum.to_bits()]).collect()
        };
        assert!(bits(&sentinel::compute(&a0.to_layout(other))) == bits(&reference), "AOS == SOA");
        let (cells, taps) = (a0.grid().cells(), a0.pattern().len());
        let tap = rng.usize_range(0, taps);
        let tail = cells - cells % 8;
        // Some cell of each lane, then some cell past the last whole group.
        let mut targets: Vec<usize> = (0..8.min(cells))
            .map(|lane| lane + 8 * rng.usize_range(0, (cells - lane).div_ceil(8)))
            .collect();
        if tail < cells {
            targets.push(rng.usize_range(tail, cells));
        }
        for cell in targets {
            let bit = rng.usize_range(0, 8 * S::BYTES);
            let mut a = a0.clone();
            let flipped = from_bits(a.get(cell, tap).store_bits() ^ (1 << bit));
            a.set(cell, tap, flipped);
            let mismatches = sentinel::verify(&a, &reference);
            assert_eq!(mismatches.len(), 1, "{} cell {cell} bit {bit}: {mismatches:?}", S::NAME);
            assert_eq!(mismatches[0].tap, tap);
            assert!(mismatches[0].checksum_differs, "{} cell {cell} bit {bit}", S::NAME);
            a.set(cell, tap, a0.get(cell, tap));
            assert!(sentinel::verify(&a, &reference).is_empty(), "flip-back clean");
        }
    }

    #[test]
    fn prop_sentinel_catches_a_flipped_bit_in_every_lane_and_the_tail() {
        check_n("lane-hash sentinels catch any single flipped bit", 48, |rng| {
            any_flip_is_caught::<F16>(rng, |b| F16::from_bits(b as u16));
            any_flip_is_caught::<Bf16>(rng, |b| Bf16::from_bits(b as u16));
            any_flip_is_caught::<f32>(rng, |b| f32::from_bits(b as u32));
            any_flip_is_caught::<f64>(rng, f64::from_bits);
        });
    }

    #[cfg(feature = "fault-inject")]
    fn flip_sweep<S: Storage + 'static>(width: u32) {
        let a0: SgDia<S> = source().convert();
        let reference = sentinel::compute(&a0);
        let cells = a0.grid().cells();
        for bit in 0..width {
            let mut a = a0.clone();
            // Spread the upsets over planes and cells so the sweep also
            // exercises boundary (explicit-zero) entries and the sign bit
            // of zeros, which only the checksum witness can see.
            let tap = bit as usize % a.pattern().len();
            let cell = (bit as usize * 7919) % cells;
            assert!(crate::fault::inject_bit_flip_at(&mut a, cell, tap, bit));
            let mismatches = sentinel::verify(&a, &reference);
            assert_eq!(
                mismatches.len(),
                1,
                "bit {bit}: exactly the flipped plane must mismatch, got {mismatches:?}"
            );
            assert_eq!(mismatches[0].tap, tap, "bit {bit}: localized to the flipped plane");
            assert!(
                mismatches[0].checksum_differs,
                "bit {bit}: the bit-pattern checksum catches every flip"
            );
            // Flipping the same bit back restores bit-identity.
            assert!(crate::fault::inject_bit_flip_at(&mut a, cell, tap, bit));
            assert!(sentinel::verify(&a, &reference).is_empty(), "bit {bit}: flip-back clean");
        }
    }

    #[test]
    #[cfg(feature = "fault-inject")]
    fn every_single_bit_flip_position_is_detected() {
        flip_sweep::<F16>(16);
        flip_sweep::<Bf16>(16);
        flip_sweep::<f32>(32);
        flip_sweep::<f64>(64);
    }

    #[test]
    #[cfg(feature = "fault-inject")]
    fn targeted_tap_flip_lands_on_a_nonzero_coupling() {
        let mut a: SgDia<F16> = source().convert();
        let reference = sentinel::compute(&a);
        let cell = crate::fault::inject_bit_flip_tap(&mut a, 0, 14).expect("plane 0 has couplings");
        assert_ne!(a.get(cell, 0).load_f64(), source().get(cell, 0), "the coupling changed");
        let mismatches = sentinel::verify(&a, &reference);
        assert_eq!(mismatches.len(), 1);
        assert_eq!(mismatches[0].tap, 0);
        // Out-of-range tap: refused, nothing corrupted.
        assert_eq!(crate::fault::inject_bit_flip_tap(&mut a, 99, 0), None);
    }
}

// ---- Set-up kernels that were re-ordered to stream: each against the
// cell-major loop it replaced. ----

/// A small random operator over every named pattern, 1–4 components,
/// both layouts, with a positive diagonal and some exact zeros; x-rows
/// from one cell to longer than the streamed kernels' lanes.
fn setup_operator(rng: &mut fp16mg_testkit::Rng) -> SgDia<f64> {
    let r = rng.usize_range(1, 5);
    let n = |rng: &mut fp16mg_testkit::Rng| rng.usize_range(1, 6);
    let grid = Grid3::with_components(rng.usize_range(1, 12), n(rng), n(rng), r);
    let scalar = Pattern::by_name(Pattern::NAMES[rng.usize_range(0, 4)]).unwrap();
    let pattern = if r == 1 { scalar } else { scalar.with_components(r) };
    let taps: Vec<_> = pattern.taps().to_vec();
    let layout = if rng.chance(0.5) { Layout::Soa } else { Layout::Aos };
    SgDia::from_fn(grid, pattern, layout, |_, _, _, _, t| {
        if taps[t].is_diagonal() {
            rng.f64_range(1.0, 1.0e9)
        } else if rng.chance(0.2) {
            0.0
        } else {
            rng.f64_range(-1.0e6, 1.0e6)
        }
    })
}

#[test]
fn scaling_by_plane_matches_the_cell_major_loops() {
    check_n("tap-major scaling == cell-major scaling", 64, |rng| {
        let a = setup_operator(rng);
        let grid = *a.grid();
        let taps: Vec<_> = a.pattern().taps().to_vec();
        let diag = a.extract_diagonal();
        // G_max, one entry at a time in cell order.
        let mut min_ratio = f64::INFINITY;
        let mut scaled = a.clone();
        let g = (scaling::g_max(&a, 65504.0).unwrap() / 2.0).min(1.0);
        let sinv: Vec<f64> = diag.iter().map(|&d| (g / d).sqrt()).collect();
        for (cell, i, j, k) in grid.iter_cells() {
            for (t, tap) in taps.iter().enumerate() {
                if !grid.contains_offset(i, j, k, tap.dx, tap.dy, tap.dz) {
                    continue;
                }
                let nb = (cell as i64 + grid.stride(tap.dx, tap.dy, tap.dz)) as usize;
                let row = grid.unknown_of(cell, tap.cout as usize);
                let col = grid.unknown_of(nb, tap.cin as usize);
                let v = a.get(cell, t);
                if v != 0.0 {
                    min_ratio = min_ratio.min((diag[row].sqrt() * diag[col].sqrt()) / v.abs());
                }
                scaled.set(cell, t, v * sinv[row] * sinv[col]);
            }
        }
        assert_eq!(scaling::g_max(&a, 65504.0).unwrap().to_bits(), (65504.0 * min_ratio).to_bits());
        // `abs_max`, eight lanes, against the one serial chain it replaced —
        // with a few non-finite couplings, which it must only flag.
        let mut sick = a.clone();
        for _ in 0..rng.usize_range(0, 4) {
            let at = rng.usize_range(0, sick.data().len());
            sick.data_mut()[at] =
                [f64::NAN, f64::INFINITY, f64::NEG_INFINITY][rng.usize_range(0, 3)];
        }
        let (mut max, mut nonfinite) = (0.0f64, false);
        for &v in sick.data() {
            if v.is_finite() {
                max = max.max(v.abs());
            } else {
                nonfinite = true;
            }
        }
        let got = sick.abs_max();
        assert_eq!((got.0.to_bits(), got.1), (max.to_bits(), nonfinite));
        let mut got = a.clone();
        let sv = scaling::scale_symmetric::<f64>(&mut got, GChoice::Auto, 65504.0).unwrap();
        assert_eq!(sv.g.to_bits(), g.to_bits());
        for (x, y) in got.data().iter().zip(scaled.data()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    });
}

#[test]
fn scalar_diag_inverse_and_nnz_match_the_per_cell_forms() {
    check_n("plane reciprocal == 1x1 Gauss-Jordan; nnz closed form", 64, |rng| {
        let mut a = setup_operator(rng);
        // Closed-form nnz against counting.
        let grid = *a.grid();
        let mut counted = 0;
        for (_, i, j, k) in grid.iter_cells() {
            for tap in a.pattern().taps() {
                counted += usize::from(grid.contains_offset(i, j, k, tap.dx, tap.dy, tap.dz));
            }
        }
        assert_eq!(a.nnz(), counted);
        // The SOA scalar fast path against the generic block inversion
        // (which the AOS layout still takes), singular cells included.
        if rng.chance(0.3) {
            let centre = a.pattern().diagonal_indices()[0];
            let bad = [0.0, f64::INFINITY, f64::NAN, 1.0e-320][rng.usize_range(0, 4)];
            a.set(rng.usize_range(0, grid.cells()), centre, bad);
        }
        let soa = BlockDiagInv::<f32>::from_matrix(&a.to_layout(Layout::Soa));
        let aos = BlockDiagInv::<f32>::from_matrix(&a.to_layout(Layout::Aos));
        match (soa, aos) {
            (Ok(s), Ok(g)) => {
                let bits = |d: &BlockDiagInv<f32>| -> Vec<u32> {
                    d.data().iter().map(|v| v.to_bits()).collect()
                };
                assert_eq!(bits(&s), bits(&g));
            }
            (Err(s), Err(g)) => assert_eq!(s, g),
            (s, g) => panic!("disagree: {:?} vs {:?}", s.map(|_| ()), g.map(|_| ())),
        }
    });
}

/// The line kernel (`kernels/line.rs`) for every component count against
/// the CSR reference and the per-entry loop, and its SIMD instantiations
/// against the portable one.
mod line_kernel {
    use fp16mg_fp::{Scalar, Storage};

    use super::*;
    use crate::kernels::{gs_sweep, sptrsv_solve};

    /// Line lengths on both sides of the 4- and 8-lane vector widths:
    /// shorter than a vector, exactly one, one plus a remainder, several.
    pub(super) const NX: [usize; 7] = [1, 2, 3, 7, 8, 9, 17];

    /// Every implementation agrees with the reference, and with every
    /// other, to this many units of `P::EPSILON · ‖reference‖∞`. A sweep
    /// row is a sum of up to 27·r terms whose rounding the row's diagonal
    /// dominance carries along the sweep; fused and unfused accumulation,
    /// `· D⁻¹` against an elimination, and the recurrence's `E·x + c`
    /// against `D⁻¹·(acc − A_w x)` differ by a unit or so each. Measured
    /// worst case over 1024 release cases: between 8 and 16 units.
    const ULPS: f64 = 32.0;

    pub(super) fn inf_norm<P: Scalar>(v: &[P]) -> f64 {
        v.iter().map(|v| v.to_f64().abs()).fold(f64::MIN_POSITIVE, f64::max)
    }

    /// `‖got − want‖∞` in units of `P::EPSILON · scale`.
    pub(super) fn units<P: Scalar>(got: &[P], want: &[P], scale: f64) -> f64 {
        let err = got.iter().zip(want).map(|(u, v)| (u.to_f64() - v.to_f64()).abs());
        err.fold(0.0, f64::max) / (P::EPSILON.to_f64() * scale)
    }

    /// `‖x − x_ref‖∞` in units of `P::EPSILON · ‖x_ref‖∞`.
    fn ulps<P: Scalar>(x: &[P], xref: &[P]) -> f64 {
        units(x, xref, inf_norm(xref))
    }

    /// One block Gauss–Seidel sweep on the CSR form, in `P` arithmetic on
    /// the stored values: cell by cell, the couplings to other cells moved
    /// to the right-hand side and the cell's own `r × r` block solved by
    /// elimination. Unknown `u` belongs to cell `u % cells`.
    #[allow(clippy::needless_range_loop)] // index form mirrors the elimination
    fn csr_gs<S: Storage, P: Scalar>(
        a: &Csr<S>,
        grid: &Grid3,
        b: &[P],
        x: &mut [P],
        backward: bool,
    ) {
        let (cells, r) = (grid.cells(), grid.components);
        for step in 0..cells {
            let cell = if backward { cells - 1 - step } else { step };
            let mut block = vec![vec![P::ZERO; r]; r];
            let mut rhs: Vec<P> = (0..r).map(|c| b[grid.unknown_of(cell, c)]).collect();
            for co in 0..r {
                let row = grid.unknown_of(cell, co);
                for e in a.row_ptr()[row] as usize..a.row_ptr()[row + 1] as usize {
                    let (col, v) = (a.col_idx()[e] as usize, P::from_f64(a.values()[e].load_f64()));
                    if col % cells == cell {
                        block[co][col / cells] = v;
                    } else {
                        rhs[co] -= v * x[col];
                    }
                }
            }
            for col in 0..r {
                for row in col + 1..r {
                    let f = block[row][col] / block[col][col];
                    for j in col..r {
                        let v = block[col][j];
                        block[row][j] -= f * v;
                    }
                    let v = rhs[col];
                    rhs[row] -= f * v;
                }
            }
            for col in (0..r).rev() {
                let mut v = rhs[col];
                for j in col + 1..r {
                    v -= block[col][j] * rhs[j];
                }
                rhs[col] = v / block[col][col];
            }
            for (c, &v) in rhs.iter().enumerate() {
                x[grid.unknown_of(cell, c)] = v;
            }
        }
    }

    pub(super) fn vec_of<P: Scalar>(n: usize, seed: u64) -> Vec<P> {
        random_vec(n, seed).iter().map(|&v| P::from_f64(v)).collect()
    }

    /// `b − Σ a·x` over the CSR entries `keep(row, col)` selects, without
    /// `b` when there is none.
    pub(super) fn csr_residual<S: Storage, P: Scalar>(
        a: &Csr<S>,
        b: Option<&[P]>,
        x: &[P],
        keep: impl Fn(usize, usize) -> bool,
    ) -> Vec<P> {
        (0..a.rows())
            .map(|row| {
                let mut acc = b.map_or(P::ZERO, |b| b[row]);
                for e in a.row_ptr()[row] as usize..a.row_ptr()[row + 1] as usize {
                    let col = a.col_idx()[e] as usize;
                    if keep(row, col) {
                        acc -= P::from_f64(a.values()[e].load_f64()) * x[col];
                    }
                }
                acc
            })
            .collect()
    }

    /// One SOA operator, one storage/compute pair: the three products and
    /// both Gauss–Seidel directions against CSR and against the per-entry
    /// loop (the AOS copy), the sweeps in both instantiations; for scalar
    /// operators also the two triangular solves on its halves.
    fn check_pair<S: Storage, P: Scalar>(full: &SgDia<f64>, seed: u64) {
        let grid = full.grid();
        let what = format!("{grid:?} {} S={} P={}", full.pattern().name(), S::NAME, P::NAME);
        let (n, cells) = (full.rows(), grid.cells());
        let b = vec_of::<P>(n, seed);
        let x0 = vec_of::<P>(n, seed + 1);

        let a = full.convert::<S>();
        let per_entry = a.to_layout(Layout::Aos);
        let csr = Csr::from_sgdia(&a);
        let dinv = BlockDiagInv::<P>::from_matrix(&a).unwrap();

        // y = A x, r = b − A x, r = −U x: the vector phase per output field.
        let neg: Vec<P> = csr_residual(&csr, None, &x0, |_, _| true);
        type Product<'f, S, P> = (&'f str, Vec<P>, &'f dyn Fn(&SgDia<S>, &mut [P]));
        let products: [Product<'_, S, P>; 3] = [
            ("spmv", neg.iter().map(|&v| -v).collect(), &|a, y| kernels::spmv(a, &x0, y, Par::Seq)),
            ("residual", csr_residual(&csr, Some(&b), &x0, |_, _| true), &|a, y| {
                kernels::residual(a, &b, &x0, y, Par::Seq)
            }),
            (
                "residual_upper",
                csr_residual(&csr, None, &x0, |r, c| c % cells > r % cells),
                &|a, y| kernels::residual_upper(a, &x0, y, Par::Seq),
            ),
        ];
        // Rounding is relative to the terms summed, as large as `A x`.
        let scale = inf_norm(&products[0].1);
        for (name, want, run) in &products {
            let mut got = vec![P::from_f64(f64::NAN); n];
            run(&a, &mut got);
            let mut entry = vec![P::from_f64(f64::NAN); n];
            run(&per_entry, &mut entry);
            assert!(units(&got, want, scale) <= ULPS, "{name} vs csr, {what}");
            assert!(units(&got, &entry, scale) <= ULPS, "{name} vs per-entry, {what}");
        }

        for backward in [false, true] {
            let mut xref = x0.clone();
            csr_gs(&csr, grid, &b, &mut xref, backward);
            let mut entry = x0.clone();
            gs_sweep(&per_entry, &dinv, &b, &mut entry, backward, false, true);
            assert!(ulps(&entry, &xref) <= ULPS, "gs per-entry vs csr, {what}, {backward}");
            let xs = [true, false].map(|simd| {
                let mut x = x0.clone();
                gs_sweep(&a, &dinv, &b, &mut x, backward, false, simd);
                assert!(ulps(&x, &xref) <= ULPS, "gs simd={simd} vs csr, {what}, {backward}");
                assert!(
                    ulps(&x, &entry) <= ULPS,
                    "gs simd={simd} vs per-entry, {what}, {backward}"
                );
                x
            });
            assert!(ulps(&xs[1], &xs[0]) <= ULPS, "gs portable vs simd, {what}, {backward}");
        }

        if grid.components > 1 {
            return;
        }
        let lower = full.pattern().lower_with_diag();
        for (part, backward) in [(lower.clone(), false), (lower.transpose(), true)] {
            let t = part_of(full, &part).convert::<S>();
            let csr = Csr::from_sgdia(&t);
            let mut xref = vec![P::ZERO; n];
            if backward {
                csr.solve_upper(&b, &mut xref);
            } else {
                csr.solve_lower(&b, &mut xref);
            }
            let mut entry = x0.clone();
            sptrsv_solve(&t.to_layout(Layout::Aos), &b, &mut entry, backward, true);
            assert!(
                ulps(&entry, &xref) <= ULPS,
                "sptrsv per-entry vs csr, {what}, {}",
                part.name()
            );
            let xs = [true, false].map(|simd| {
                let mut x = x0.clone();
                sptrsv_solve(&t, &b, &mut x, backward, simd);
                assert!(
                    ulps(&x, &xref) <= ULPS,
                    "sptrsv simd={simd} vs csr, {what}, {}",
                    part.name()
                );
                x
            });
            assert!(
                ulps(&xs[1], &xs[0]) <= ULPS,
                "sptrsv portable vs simd, {what}, {}",
                part.name()
            );
        }
    }

    /// One random non-cubic operator shape per case — pattern, component
    /// count 1–5, `ny`, `nz` — at every line length of [`NX`].
    pub(super) fn for_each_operator(
        rng: &mut fp16mg_testkit::Rng,
        mut f: impl FnMut(&SgDia<f64>, u64),
    ) {
        let (ny, nz) = (rng.usize_range(1, 6), rng.usize_range(1, 6));
        let seed = rng.next_u64() >> 8;
        let scalar = [Pattern::p7(), Pattern::p19(), Pattern::p27()][seed as usize % 3].clone();
        let r = 1 + (seed / 3) as usize % 5;
        let pattern = if r == 1 { scalar } else { scalar.with_components(r) };
        for nx in NX {
            let grid = Grid3::with_components(nx, ny, nz, r);
            f(&random_matrix(grid, pattern.clone(), Layout::Soa, seed), seed);
        }
    }

    #[test]
    fn line_kernel_matches_csr_and_the_staged_loop() {
        check_n("line_kernel_matches_csr_and_the_staged_loop", 8, |rng| {
            for_each_operator(rng, |full, seed| {
                check_pair::<F16, f32>(full, seed);
                check_pair::<F16, f64>(full, seed);
                check_pair::<Bf16, f32>(full, seed);
                check_pair::<Bf16, f64>(full, seed);
                check_pair::<f32, f32>(full, seed);
                check_pair::<f32, f64>(full, seed);
                check_pair::<f64, f32>(full, seed);
                check_pair::<f64, f64>(full, seed);
            });
        });
    }

    /// Patterns the first-order dense recurrence does not cover fall back to
    /// the per-entry sweep / the generic solve instead of a wrong answer:
    /// two taps behind the sweep along x, scalar and with two components.
    #[test]
    fn wider_x_stencils_take_the_fallback() {
        use fp16mg_stencil::Tap;
        let taps = [-2, -1, 0, 1, 2].map(|dx| Tap::at(dx, 0, 0)).into_iter().chain([
            Tap::at(0, -1, 0),
            Tap::at(0, 1, 0),
            Tap::at(0, 0, -1),
            Tap::at(0, 0, 1),
        ]);
        let wide = Pattern::new(taps.collect());
        let full = random_matrix(Grid3::new(11, 4, 3), wide.clone(), Layout::Soa, 7);
        check_pair::<F16, f32>(&full, 8);
        check_pair::<f64, f64>(&full, 9);
        let grid = Grid3::with_components(11, 4, 3, 2);
        let full = random_matrix(grid, wide.with_components(2), Layout::Soa, 10);
        check_pair::<F16, f32>(&full, 11);
        // So does an x-neighbour block that couples only some component
        // pairs: each field to itself across space, all pairs in the cell.
        let sparse = Pattern::p7().with_components(2);
        let sparse = sparse.taps().iter().filter(|t| t.is_center() || t.cin == t.cout);
        let full = random_matrix(grid, Pattern::new(sparse.copied().collect()), Layout::Soa, 12);
        check_pair::<F16, f32>(&full, 13);
    }
}

/// The two half-matrix kernels a multigrid level runs on its first visit
/// (`kernels/mod.rs`, [`crate::kernels::TapSet`]): the forward sweep from
/// a zero guess and the residual `−U x` that follows it.
mod zero_guess {
    use fp16mg_fp::{Scalar, Storage};

    use super::line_kernel::{csr_residual, for_each_operator, inf_norm, units, vec_of};
    use super::*;
    use crate::kernels::gs_sweep;

    /// `−U x` against `b − A x` and against the CSR sum, in units of
    /// `P::EPSILON · ‖b‖∞`: `b − (L + D) x` is pure rounding of terms as
    /// large as `b`, and the two `U x` sums differ in order and fusing.
    /// Measured worst case over 1024 release cases: between 8 and 16 units
    /// (4.7 for scalar operators alone).
    const ULPS: f64 = 32.0;

    /// One operator in one layout, one storage/compute pair.
    fn check_pair<S: Storage, P: Scalar>(full: &SgDia<f64>, seed: u64) {
        let what = format!(
            "{:?} {} {:?} S={} P={}",
            full.grid(),
            full.pattern().name(),
            full.layout(),
            S::NAME,
            P::NAME
        );
        let (n, cells) = (full.rows(), full.grid().cells());
        let b = vec_of::<P>(n, seed);
        let a = full.convert::<S>();
        // D from the stored matrix, so `(L + D) x = b` holds for the very
        // entries `residual` multiplies by.
        let dinv = BlockDiagInv::<P>::from_matrix(&a).unwrap();
        let poison = vec![P::from_f64(f64::NAN); n];

        // From zero == the full sweep over zeros, to the bit (`==`: a NaN
        // read out of the poison would fail it too), in both
        // instantiations of the line kernel (one and the same per-entry
        // loop on AOS data).
        let mut x = poison.clone();
        for simd in [true, false] {
            let mut want = vec![P::ZERO; n];
            gs_sweep(&a, &dinv, &b, &mut want, false, false, simd);
            x.copy_from_slice(&poison);
            gs_sweep(&a, &dinv, &b, &mut x, false, true, simd);
            let bad = x.iter().zip(&want).position(|(u, v)| u != v);
            assert!(bad.is_none(), "from zero vs zero-filled at {bad:?}, simd={simd}, {what}");
        }

        // −U x: the residual of that x, and the CSR sum over the columns
        // of later cells.
        let mut upper = poison.clone();
        kernels::residual_upper(&a, &x, &mut upper, Par::Seq);
        let mut full_res = vec![P::ZERO; n];
        kernels::residual(&a, &b, &x, &mut full_res, Par::Seq);
        let csr = Csr::from_sgdia(&a);
        let from_csr: Vec<P> = csr_residual(&csr, None, &x, |row, col| col % cells > row % cells);
        let b_norm = inf_norm(&b);
        assert!(units(&upper, &from_csr, b_norm) <= ULPS, "-U x vs csr, {what}");
        assert!(units(&upper, &full_res, b_norm) <= ULPS, "-U x vs b - A x, {what}");
    }

    #[test]
    fn from_zero_sweep_and_upper_residual_match_the_full_kernels() {
        check_n("from_zero_sweep_and_upper_residual_match_the_full_kernels", 8, |rng| {
            for_each_operator(rng, |soa, seed| {
                for full in [soa.clone(), soa.to_layout(Layout::Aos)] {
                    check_pair::<F16, f32>(&full, seed);
                    check_pair::<Bf16, f32>(&full, seed);
                    check_pair::<f32, f32>(&full, seed);
                    check_pair::<f64, f64>(&full, seed);
                }
            });
        });
    }

    /// Threads split `−U x` by whole x-lines of every field: same bits as
    /// one thread, scalar and with three components.
    #[test]
    fn upper_residual_parallel_matches_seq() {
        for r in [1, 3] {
            let g = Grid3::with_components(40, 16, 16, r); // above par::MIN_CELLS
            let pattern = if r == 1 { Pattern::p27() } else { Pattern::p7().with_components(r) };
            let a = random_matrix(g, pattern, Layout::Soa, 250).convert::<F16>();
            let x: Vec<f32> = random_vec(g.unknowns(), 251).iter().map(|&v| v as f32).collect();
            let mut r1 = vec![0.0f32; g.unknowns()];
            let mut r2 = vec![0.0f32; g.unknowns()];
            kernels::residual_upper(&a, &x, &mut r1, Par::Seq);
            kernels::residual_upper(&a, &x, &mut r2, Par::Threads(3));
            assert_eq!(r1, r2);
        }
    }
}

/// The symmetric half-read (`kernels/spmv.rs`): a matrix symmetric as
/// stored multiplied from the planes on and below its diagonal, and the
/// verdict that allows it.
mod half_read {
    use fp16mg_fp::{Scalar, Storage};
    use fp16mg_stencil::Tap;

    use super::line_kernel::{csr_residual, inf_norm, units, vec_of, NX};
    use super::*;

    /// `m` with every in-grid entry above the diagonal — strictly upper, or
    /// centre with `cin > cout` — replaced by the entry its transpose holds.
    pub(crate) fn symmetrized(m: &SgDia<f64>) -> SgDia<f64> {
        let (grid, mut out) = (*m.grid(), m.clone());
        for (t, tap) in m.pattern().taps().iter().enumerate() {
            let stride = grid.stride(tap.dx, tap.dy, tap.dz);
            if stride < 0 || stride == 0 && !(tap.is_center() && tap.cin > tap.cout) {
                continue;
            }
            let twin = m.pattern().tap_index(tap.transpose()).expect("symmetric pattern");
            for (cell, i, j, k) in grid.iter_cells() {
                if grid.contains_offset(i, j, k, tap.dx, tap.dy, tap.dz) {
                    out.set(cell, t, m.get(cell + stride as usize, twin));
                }
            }
        }
        out
    }

    fn bits<P: Scalar>(v: &[P]) -> Vec<u64> {
        v.iter().map(|v| v.to_f64().to_bits()).collect()
    }

    /// The verdict on `a`, its first product checked against `spmv` on the
    /// way.
    fn verdict<S: Storage>(a: &SgDia<S>) -> bool {
        let x = vec_of::<f64>(a.rows(), 17);
        let (mut want, mut got) = (vec![f64::NAN; a.rows()], vec![f64::NAN; a.rows()]);
        kernels::spmv(a, &x, &mut want, Par::Seq);
        let verdict = kernels::spmv_probing_symmetry(a, &x, &mut got, Par::Seq).is_some();
        assert_eq!(bits(&got), bits(&want), "probing product vs spmv");
        verdict
    }

    /// One symmetric operator, one storage/compute pair: the probing
    /// product and the half-read against `spmv` bit for bit, and against
    /// CSR.
    fn check_pair<S: Storage, P: Scalar>(sym: &SgDia<f64>, seed: u64, par: Par) {
        let what = format!("{:?} {} S={} P={}", sym.grid(), sym.pattern().name(), S::NAME, P::NAME);
        let n = sym.rows();
        let a = sym.convert::<S>();
        let x = vec_of::<P>(n, seed);
        let mut want = vec![P::from_f64(f64::NAN); n];
        kernels::spmv(&a, &x, &mut want, Par::Seq);

        let mut probed = vec![P::from_f64(f64::NAN); n];
        let judged = kernels::spmv_probing_symmetry(&a, &x, &mut probed, par);
        assert_eq!(bits(&probed), bits(&want), "probing product vs spmv, {what}");
        let half = judged.unwrap_or_else(|| panic!("symmetric operator judged otherwise, {what}"));
        let mut got = vec![P::from_f64(f64::NAN); n];
        kernels::spmv_symmetric(half, &x, &mut got, par);
        assert_eq!(bits(&got), bits(&want), "half-read vs spmv, {what}");

        let neg: Vec<P> = csr_residual(&Csr::from_sgdia(&a), None, &x, |_, _| true);
        let csr: Vec<P> = neg.iter().map(|&v| -v).collect();
        assert!(units(&got, &csr, inf_norm(&csr)) <= 32.0, "half-read vs csr, {what}");
    }

    /// Every storage/compute pair: the three AVX instantiations and the
    /// portable one (BF16, and the mixed vector precisions).
    fn check_all_pairs(sym: &SgDia<f64>, seed: u64, par: Par) {
        check_pair::<F16, f32>(sym, seed, par);
        check_pair::<F16, f64>(sym, seed, par);
        check_pair::<Bf16, f32>(sym, seed, par);
        check_pair::<Bf16, f64>(sym, seed, par);
        check_pair::<f32, f32>(sym, seed, par);
        check_pair::<f32, f64>(sym, seed, par);
        check_pair::<f64, f32>(sym, seed, par);
        check_pair::<f64, f64>(sym, seed, par);
    }

    /// One random symmetric operator shape per case — pattern, component
    /// count 1–4, non-cubic `ny`, `nz` — at every line length of [`NX`].
    fn for_each_symmetric(rng: &mut fp16mg_testkit::Rng, mut f: impl FnMut(&SgDia<f64>, u64)) {
        let (ny, nz) = (rng.usize_range(1, 6), rng.usize_range(1, 6));
        let seed = rng.next_u64() >> 8;
        let scalar = [Pattern::p7(), Pattern::p15(), Pattern::p19(), Pattern::p27()];
        let scalar = scalar[seed as usize % 4].clone();
        let r = 1 + (seed / 4) as usize % 4;
        let pattern = if r == 1 { scalar } else { scalar.with_components(r) };
        for nx in NX {
            let grid = Grid3::with_components(nx, ny, nz, r);
            f(&symmetrized(&random_matrix(grid, pattern.clone(), Layout::Soa, seed)), seed);
        }
    }

    #[test]
    fn half_read_matches_spmv_bit_for_bit() {
        check_n("half_read_matches_spmv_bit_for_bit", 16, |rng| {
            for_each_symmetric(rng, |sym, seed| check_all_pairs(sym, seed, Par::Seq));
        });
    }

    /// Threads split the probing product, its comparison and the half-read
    /// by whole x-lines of every field: same bits and same verdict as one
    /// thread, scalar and with three components, and a difference in any
    /// one thread's lines turns the verdict.
    #[test]
    fn half_read_parallel_matches_seq() {
        for r in [1, 3] {
            let g = Grid3::with_components(40, 16, 16, r); // above par::MIN_CELLS
            let pattern = if r == 1 { Pattern::p27() } else { Pattern::p7().with_components(r) };
            let sym = symmetrized(&random_matrix(g, pattern, Layout::Soa, 260));
            for threads in 2..=4 {
                check_all_pairs(&sym, 261, Par::Threads(threads));
            }
            let (upper, x) = (sym.pattern().len() - 1, vec_of::<f64>(sym.rows(), 262));
            for cell in [5, g.cells() / 2, g.cells() - 40 * 16 - 45] {
                let mut off = sym.clone();
                off.set(cell, upper, f64::from_bits(sym.get(cell, upper).to_bits() + 1));
                let mut y = vec![0.0; sym.rows()];
                let judged = kernels::spmv_probing_symmetry(&off, &x, &mut y, Par::Threads(3));
                assert!(judged.is_none(), "one ulp at cell {cell} of {r} components went unseen");
            }
        }
    }

    /// One stored bit away from symmetric is not symmetric: in the
    /// interior, on a wrapped x or y face (a stored zero whose mirror image
    /// is another stored zero), in the tail of an upper plane and the head
    /// of a lower one that no cell mirrors, and between two components of
    /// one cell.
    #[test]
    fn half_read_verdict_turns_on_one_ulp() {
        let g = Grid3::with_components(9, 4, 3, 2);
        let sym = symmetrized(&random_matrix(g, Pattern::p27().with_components(2), Layout::Soa, 3));
        assert!(verdict(&sym));
        let tap = |dx, dy, dz, cout, cin| {
            sym.pattern().tap_index(Tap::at_comp(dx, dy, dz, cout, cin)).unwrap()
        };
        let last = g.cells() - 1;
        let ulp = |v: f64| f64::from_bits(v.to_bits() + 1);
        let cases = [
            ("interior, upper", g.cell(4, 1, 1), tap(1, 1, 0, 0, 1), None),
            ("interior, lower", g.cell(4, 2, 1), tap(-1, 0, -1, 1, 1), None),
            ("x face, upper", g.cell(8, 1, 1), tap(1, 0, 0, 0, 0), Some(f64::MIN_POSITIVE)),
            ("y face, lower", g.cell(3, 0, 1), tap(0, -1, 0, 1, 0), Some(f64::MIN_POSITIVE)),
            ("tail of an upper plane", last, tap(1, 1, 1, 0, 0), Some(1.0)),
            ("head of a lower plane", 0, tap(0, 0, -1, 1, 1), Some(1.0)),
            ("centre block, upper", g.cell(2, 2, 2), tap(0, 0, 0, 0, 1), None),
            ("centre block, lower", g.cell(2, 2, 2), tap(0, 0, 0, 1, 0), None),
        ];
        for (what, cell, t, value) in cases {
            let mut off = sym.clone();
            off.set(cell, t, value.unwrap_or_else(|| ulp(sym.get(cell, t))));
            assert!(!verdict(&off), "{what}: one entry off and still judged symmetric");
        }
        // The diagonal is its own transpose.
        let mut other = sym.clone();
        other.set(7, tap(0, 0, 0, 1, 1), 3.0);
        assert!(verdict(&other));
    }

    /// `+0.0` is not `−0.0`: the product of either with a negative `x` has
    /// the other's sign.
    #[test]
    fn half_read_verdict_tells_the_zeros_apart() {
        let g = Grid3::new(8, 3, 3);
        let mut sym = symmetrized(&random_matrix(g, Pattern::p19(), Layout::Soa, 5));
        let (up, down) = (
            sym.pattern().tap_index(Tap::at(0, 1, 0)).unwrap(),
            sym.pattern().tap_index(Tap::at(0, -1, 0)).unwrap(),
        );
        let (cell, above) = (g.cell(3, 1, 1), g.cell(3, 2, 1));
        sym.set(cell, up, 0.0);
        sym.set(above, down, 0.0);
        assert!(verdict(&sym));
        sym.set(above, down, -0.0);
        assert!(!verdict(&sym), "+0.0 above the diagonal, -0.0 below it");
        sym.set(cell, up, -0.0);
        assert!(verdict(&sym), "-0.0 on both sides");
        // And outside the grid, where only +0.0 is a stored zero.
        sym.set(g.cell(0, 1, 1), sym.pattern().tap_index(Tap::at(-1, 0, 0)).unwrap(), -0.0);
        assert!(!verdict(&sym), "-0.0 on a wrapped face");
    }

    /// The byte model counts the planes the mirrored tap table leaves in
    /// place.
    #[test]
    fn half_read_model_counts_the_planes_read() {
        use crate::kernels::{mirror_upper, with_tap_metas};
        let scalar = [Pattern::p7(), Pattern::p15(), Pattern::p19(), Pattern::p27()];
        for (pattern, r) in scalar.iter().flat_map(|p| (1..=4).map(move |r| (p, r))) {
            let pattern = if r == 1 { pattern.clone() } else { pattern.with_components(r) };
            let grid = Grid3::with_components(5, 4, 3, r);
            let own = with_tap_metas(&grid, &pattern, |metas| {
                let mut taps = metas.to_vec();
                mirror_upper(&grid, &pattern, &mut taps);
                taps.iter().filter(|m| m.coef == m.tap * grid.cells()).count()
            });
            assert_eq!(model::half_read_planes(&pattern), own, "{} x{r}", pattern.name());
        }
        let bytes = model::half_read_bytes_per_nnz(&Pattern::p27(), Precision::F64);
        assert_eq!(bytes, 8.0 * 14.0 / 27.0);
    }

    /// What is not symmetric as stored by its shape: a random operator, the
    /// AOS layout of a symmetric one, a pattern without its transpose.
    #[test]
    fn half_read_verdict_is_false_for_other_shapes() {
        let g = Grid3::new(9, 5, 4);
        let random = random_matrix(g, Pattern::p27(), Layout::Soa, 11);
        assert!(!verdict(&random));
        let sym = symmetrized(&random);
        assert!(verdict(&sym));
        assert!(!verdict(&sym.to_layout(Layout::Aos)), "AOS");
        let lower = lower_of(&sym);
        assert!(!verdict(&lower), "lower-only pattern");
        assert!(!verdict(&lower.transpose()), "upper-only pattern");
    }
}

/// The kernels on `sgdia::par`'s worker team: every chunk of a product
/// computes the same whole x-lines whoever runs it, so the bits are
/// `Par::Seq`'s however many chunks there are and whoever else is calling.
mod team {
    use super::*;
    use crate::par::{on_one_worker_team, MIN_CELLS};

    /// A scalar 19-point and a three-component operator above
    /// `MIN_CELLS`, in FP16, with an f32 vector.
    fn operators() -> Vec<(SgDia<F16>, Vec<f32>)> {
        [(1, Pattern::p19()), (3, Pattern::p7().with_components(3))]
            .into_iter()
            .map(|(r, pattern)| {
                let g = Grid3::with_components(40, 16, 16, r);
                assert!(g.cells() >= MIN_CELLS);
                let a = random_matrix(g, pattern, Layout::Soa, 270 + r as u64).convert::<F16>();
                let x = random_vec(g.unknowns(), 271).iter().map(|&v| v as f32).collect();
                (a, x)
            })
            .collect()
    }

    /// `spmv` and `residual_upper` of `a` at `x` under `par`.
    fn products(a: &SgDia<F16>, x: &[f32], par: Par) -> [Vec<f32>; 2] {
        let mut y = [vec![0.0f32; x.len()], vec![0.0f32; x.len()]];
        kernels::spmv(a, x, &mut y[0], par);
        kernels::residual_upper(a, x, &mut y[1], par);
        y
    }

    #[test]
    fn more_chunks_than_a_one_worker_team_has_threads_give_seq_bits() {
        on_one_worker_team(|| {
            for (a, x) in operators() {
                let seq = products(&a, &x, Par::Seq);
                for n in [3, 4, 7] {
                    assert_eq!(products(&a, &x, Par::Threads(n)), seq, "Threads({n})");
                }
            }
        });
    }

    /// Two callers at once: one gets the team, the other finds it busy and
    /// runs its products alone, and either may be either on any call.
    #[test]
    fn concurrent_threaded_callers_get_seq_bits() {
        for (a, x) in operators() {
            let seq = products(&a, &x, Par::Seq);
            std::thread::scope(|s| {
                for _ in 0..2 {
                    s.spawn(|| {
                        for _ in 0..20 {
                            assert_eq!(products(&a, &x, Par::Threads(2)), seq);
                        }
                    });
                }
            });
        }
    }
}
