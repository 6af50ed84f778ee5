//! Differential property suite for the per-axis Galerkin product: the
//! per-fine-cell scatter it replaced is kept here as the oracle and
//! compared over generated operators — every axis extent in {1, 2, 3,
//! odd, even}, every non-empty subset of coarsened axes, the four named
//! patterns, 1–4 components, SOA and AOS, values with exact zeros — plus
//! the operator identity `A_c x = R (A (P x))` through the production
//! transfers and SpMV.

use fp16mg_grid::Grid3;
use fp16mg_sgdia::kernels::{self, Par};
use fp16mg_sgdia::{Layout, SgDia};
use fp16mg_stencil::{Pattern, Tap};
use fp16mg_testkit::{check_n, Rng};

use super::galerkin_rap_axes;
use crate::transfer::{parents_axis, prolong_add, restrict};

/// A fine cell's coarse parent: cell index, coarse coordinates, weight.
type Parent = (usize, (u32, u32, u32), f64);

/// Collects the coarse parents of a fine cell (at most 8).
fn cell_parents_into(
    fine: &Grid3,
    coarse: &Grid3,
    (i, j, k): (usize, usize, usize),
    out: &mut [Parent; 8],
) -> usize {
    let (pi, ni) = parents_axis(i, fine.nx, coarse.nx);
    let (pj, nj) = parents_axis(j, fine.ny, coarse.ny);
    let (pk, nk) = parents_axis(k, fine.nz, coarse.nz);
    let mut n = 0;
    for (ck, wk) in &pk[..nk] {
        for (cj, wj) in &pj[..nj] {
            for (ci, wi) in &pi[..ni] {
                out[n] = (
                    coarse.cell(*ci, *cj, *ck),
                    (*ci as u32, *cj as u32, *ck as u32),
                    (*wi * *wj * *wk) as f64,
                );
                n += 1;
            }
        }
    }
    n
}

/// The scatter form of the Galerkin product: `A_c(i_c → j_c)` accumulates
/// `w_R · a · w_P` over fine cells `f_i` interpolated by `i_c` and fine
/// neighbors `f_j` interpolated by `j_c`.
fn galerkin_rap_oracle(a: &SgDia<f64>, axes: (bool, bool, bool)) -> SgDia<f64> {
    let fine = *a.grid();
    let coarse = fine.coarsen_axes(axes);
    let r = fine.components;
    let cpattern = if r == 1 { Pattern::p27() } else { Pattern::p27().with_components(r) };
    let mut ac = SgDia::<f64>::zeros(coarse, cpattern, a.layout());
    let mut tap_of = vec![usize::MAX; 27 * r * r];
    for (t, tap) in ac.pattern().taps().iter().enumerate() {
        let o = ((tap.dz + 1) * 9 + (tap.dy + 1) * 3 + (tap.dx + 1)) as usize;
        tap_of[o * r * r + tap.cout as usize * r + tap.cin as usize] = t;
    }
    let ataps: Vec<Tap> = a.pattern().taps().to_vec();
    let mut rows: [Parent; 8] = [(0, (0, 0, 0), 0.0); 8];
    let mut cols: [Parent; 8] = [(0, (0, 0, 0), 0.0); 8];
    for (fcell, i, j, k) in fine.iter_cells() {
        let nrows = cell_parents_into(&fine, &coarse, (i, j, k), &mut rows);
        for (t, tap) in ataps.iter().enumerate() {
            if !fine.contains_offset(i, j, k, tap.dx, tap.dy, tap.dz) {
                continue;
            }
            let v = a.get(fcell, t);
            if v == 0.0 {
                continue;
            }
            let nb = (
                (i as i64 + tap.dx as i64) as usize,
                (j as i64 + tap.dy as i64) as usize,
                (k as i64 + tap.dz as i64) as usize,
            );
            let ncols = cell_parents_into(&fine, &coarse, nb, &mut cols);
            let comp = tap.cout as usize * r + tap.cin as usize;
            for &(_ccol, (ci, cj, ck), wp) in &cols[..ncols] {
                for &(crow, (ri, rj, rk), wr) in &rows[..nrows] {
                    let dx = ci as i64 - ri as i64;
                    let dy = cj as i64 - rj as i64;
                    let dz = ck as i64 - rk as i64;
                    let o = ((dz + 1) * 9 + (dy + 1) * 3 + (dx + 1)) as usize;
                    let ct = tap_of[o * r * r + comp];
                    let old = ac.get(crow, ct);
                    ac.set(crow, ct, old + wr * v * wp);
                }
            }
        }
    }
    ac
}

/// One extent from {1, 2, 3, odd, even}.
fn extent(rng: &mut Rng) -> usize {
    match rng.usize_range(0, 5) {
        0 => 1,
        1 => 2,
        2 => 3,
        3 => 2 * rng.usize_range(2, 6) + 1,
        _ => 2 * rng.usize_range(2, 6),
    }
}

/// A random operator and a non-empty set of axes that actually coarsen
/// its grid. A fifth of the in-grid entries are exact zeros.
fn operator(rng: &mut Rng) -> (SgDia<f64>, (bool, bool, bool)) {
    let components = rng.usize_range(1, 5);
    let (grid, axes) = loop {
        let g = Grid3::with_components(extent(rng), extent(rng), extent(rng), components);
        let axes = (rng.chance(0.5), rng.chance(0.5), rng.chance(0.5));
        if g.coarsen_axes(axes) != g {
            break (g, axes);
        }
    };
    let name = Pattern::NAMES[rng.usize_range(0, Pattern::NAMES.len())];
    let scalar = Pattern::by_name(name).expect("named pattern");
    let pattern = if components == 1 { scalar } else { scalar.with_components(components) };
    let layout = if rng.chance(0.5) { Layout::Soa } else { Layout::Aos };
    let a = SgDia::from_fn(grid, pattern, layout, |_, _, _, _, _| {
        if rng.chance(0.2) {
            0.0
        } else {
            rng.f64_range(-4.0, 4.0)
        }
    });
    (a, axes)
}

#[test]
fn collapse_matches_scatter_oracle() {
    check_n("rap per-axis collapse == scatter oracle", 96, |rng| {
        let (a, axes) = operator(rng);
        let got = galerkin_rap_axes(&a, axes);
        let want = galerkin_rap_oracle(&a, axes);
        let what = format!("{:?} {} axes {axes:?} {:?}", a.grid(), a.pattern().name(), a.layout());
        assert_eq!(got.grid(), want.grid(), "{what}");
        assert_eq!(got.pattern(), want.pattern(), "{what}");
        assert_eq!(got.layout(), want.layout(), "{what}");
        let coarse = *got.grid();
        let r = coarse.components;
        // Largest magnitude per matrix row (cell, cout) — of the product
        // of the entrywise |A|, so that rows whose random-sign terms
        // cancel are still measured against what was summed.
        let mut abs_a = a.clone();
        abs_a.data_mut().iter_mut().for_each(|v| *v = v.abs());
        let want_abs = galerkin_rap_oracle(&abs_a, axes);
        let mut row_max = vec![0.0f64; coarse.unknowns()];
        for cell in 0..coarse.cells() {
            for (t, tap) in want.pattern().taps().iter().enumerate() {
                let m = &mut row_max[cell * r + tap.cout as usize];
                *m = m.max(want_abs.get(cell, t));
            }
        }
        for (cell, i, j, k) in coarse.iter_cells() {
            for (t, tap) in want.pattern().taps().iter().enumerate() {
                let (g, w) = (got.get(cell, t), want.get(cell, t));
                if !coarse.contains_offset(i, j, k, tap.dx, tap.dy, tap.dz) {
                    assert!(g == 0.0 && w == 0.0, "{what}: out-of-grid ({cell},{t}) = {g}");
                    continue;
                }
                let tol = 8.0 * f64::EPSILON * row_max[cell * r + tap.cout as usize];
                assert!((g - w).abs() <= tol, "{what}: ({cell},{t}) {g} vs oracle {w}");
            }
        }
    });
}

#[test]
fn coarse_operator_is_restrict_a_prolong() {
    check_n("rap == R A P through production transfers", 64, |rng| {
        let (a, axes) = operator(rng);
        let ac = galerkin_rap_axes(&a, axes);
        let (fine, coarse) = (*a.grid(), *ac.grid());
        let xc: Vec<f64> = (0..coarse.unknowns()).map(|_| rng.f64_range(-1.0, 1.0)).collect();
        let mut got = vec![0.0f64; coarse.unknowns()];
        kernels::spmv(&ac, &xc, &mut got, Par::Seq);
        let mut px = vec![0.0f64; fine.unknowns()];
        prolong_add(&fine, &coarse, &xc, &mut px);
        let mut apx = vec![0.0f64; fine.unknowns()];
        kernels::spmv(&a, &px, &mut apx, Par::Seq);
        let mut want = vec![0.0f64; coarse.unknowns()];
        restrict(&fine, &coarse, &apx, &mut want);
        // 27 r taps of magnitude ≤ 4·(row weight ≤ 8) each.
        let tol = 1e-12 * 27.0 * fine.components as f64 * 32.0;
        for (u, (g, w)) in got.iter().zip(&want).enumerate() {
            assert!((g - w).abs() <= tol, "{:?} axes {axes:?}: unknown {u}: {g} vs {w}", a.grid());
        }
    });
}

#[test]
fn laplace27_collapse_is_bit_identical_to_scatter() {
    // Power-of-two weights and equal-magnitude couplings: every partial
    // sum is exact, so the two summation orders agree to the last bit.
    let grid = Grid3::cube(9);
    let pattern = Pattern::p27();
    let taps: Vec<_> = pattern.taps().to_vec();
    let a = SgDia::<f64>::from_fn(grid, pattern, Layout::Soa, |_, _, _, _, t| {
        if taps[t].is_diagonal() {
            26.0
        } else {
            -1.0
        }
    });
    let got = galerkin_rap_axes(&a, (true, true, true));
    let want = galerkin_rap_oracle(&a, (true, true, true));
    for (g, w) in got.data().iter().zip(want.data()) {
        assert_eq!(g.to_bits(), w.to_bits());
    }
}
