//! Differential property suite for the per-axis Galerkin product: the
//! per-fine-cell scatter it replaced is kept here as the oracle and
//! compared over generated operators — every axis extent in {1, 2, 3,
//! odd, even}, every non-empty subset of coarsened axes, the four named
//! patterns, 1–4 components, SOA and AOS, values with exact zeros — plus
//! the operator identity `A_c x = R (A (P x))` through the production
//! transfers and SpMV. The term-by-term collapse that the register-summed
//! one replaced is kept too, and must agree with it to the bit on the same
//! operators and on every level of every `ProblemKind`'s chain.

use std::collections::HashMap;
use std::ops::Range;

use fp16mg_grid::Grid3;
use fp16mg_sgdia::kernels::{self, Par};
use fp16mg_sgdia::{Layout, SgDia};
use fp16mg_stencil::{Pattern, Tap};
use fp16mg_testkit::{check_n, Rng};

use super::{axis_offset, collapsed_taps, galerkin_rap_axes, with_axis_offset, Planes};
use crate::transfer::{children_axis, parents_axis, prolong_add, restrict};
use crate::{GalerkinChain, MgConfig};

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

/// A term of the term-by-term collapse: `out[D][C] += w · in[d][c]`, the
/// offsets shifted to `0..3`.
struct ReferenceTerm {
    c: usize,
    d: usize,
    big_d: usize,
    w: f64,
}

/// The one-dimensional product as the register-summed collapse replaced
/// it: the terms of a coarse index in one list, each added to its output
/// row in turn.
struct ReferencePlan {
    ax: usize,
    n: usize,
    nc: usize,
    terms: Vec<ReferenceTerm>,
    ranges: Vec<Range<usize>>,
    groups: Vec<([Option<usize>; 3], [usize; 3])>,
    out_taps: Vec<Tap>,
}

impl ReferencePlan {
    fn new(ax: usize, n: usize, nc: usize, in_taps: &[Tap], out_taps: Vec<Tap>) -> Self {
        let mut terms = Vec::new();
        let mut ranges = Vec::with_capacity(nc);
        for big_c in 0..nc {
            let start = terms.len();
            let (kids, nk) = children_axis(big_c, n, nc);
            for &(c, wr) in &kids[..nk] {
                for d in 0..3 {
                    let Some(x) = (c + d).checked_sub(1).filter(|&x| x < n) else { continue };
                    let (ps, np) = parents_axis(x, n, nc);
                    for &(pc, wp) in &ps[..np] {
                        let w = (wr * wp) as f64;
                        terms.push(ReferenceTerm { c, d, big_d: pc + 1 - big_c, w });
                    }
                }
            }
            ranges.push(start..terms.len());
        }
        let out_index: HashMap<Tap, usize> =
            out_taps.iter().enumerate().map(|(i, &t)| (t, i)).collect();
        let mut groups: Vec<([Option<usize>; 3], [usize; 3])> = Vec::new();
        let mut group_of: HashMap<Tap, usize> = HashMap::new();
        for (t, &tap) in in_taps.iter().enumerate() {
            let key = with_axis_offset(tap, ax, 0);
            let g = *group_of.entry(key).or_insert_with(|| {
                let outs = [-1, 0, 1].map(|d| out_index[&with_axis_offset(key, ax, d)]);
                groups.push(([None; 3], outs));
                groups.len() - 1
            });
            groups[g].0[(axis_offset(tap, ax) + 1) as usize] = Some(t);
        }
        ReferencePlan { ax, n, nc, terms, ranges, groups, out_taps }
    }

    fn collapse(
        &self,
        input: &Planes,
        dims: [usize; 3],
        cs: Range<usize>,
        out: &mut [f64],
        out_stride: usize,
        out_offset: usize,
    ) {
        let inner: usize = dims[..self.ax].iter().product();
        let outer: usize = dims[self.ax + 1..].iter().product();
        for (ins, outs) in &self.groups {
            for o in 0..outer {
                for big_c in cs.clone() {
                    let dst = out_offset + (o * cs.len() + big_c - cs.start) * inner;
                    for term in &self.terms[self.ranges[big_c].clone()] {
                        let Some(t) = ins[term.d] else { continue };
                        let src = t * input.stride + input.offset + (o * self.n + term.c) * inner;
                        let acc = outs[term.big_d] * out_stride + dst;
                        if inner == 1 {
                            out[acc] += term.w * input.data[src];
                            continue;
                        }
                        let row = &input.data[src..][..inner];
                        for (a, &x) in out[acc..][..inner].iter_mut().zip(row) {
                            *a += term.w * x;
                        }
                    }
                }
            }
        }
    }
}

/// [`galerkin_rap_axes`] through [`ReferencePlan`]: the same slab loop,
/// the term-by-term collapse.
fn galerkin_rap_reference(a: &SgDia<f64>, axes: (bool, bool, bool)) -> SgDia<f64> {
    let fine = *a.grid();
    let coarse = fine.coarsen_axes(axes);
    let r = fine.components;
    let cpattern = if r == 1 { Pattern::p27() } else { Pattern::p27().with_components(r) };
    let mut ac = SgDia::<f64>::zeros(coarse, cpattern, Layout::Soa);
    let soa = a.in_layout(Layout::Soa);
    let fine_dims = [fine.nx, fine.ny, fine.nz];
    let target = [coarse.nx, coarse.ny, coarse.nz];
    let axes: Vec<usize> =
        [2, 1, 0].into_iter().filter(|&ax| target[ax] != fine_dims[ax]).collect();
    let mut plans: Vec<ReferencePlan> = Vec::with_capacity(axes.len());
    for (n, &ax) in axes.iter().enumerate() {
        let in_taps = plans.last().map_or(soa.pattern().taps(), |p| &p.out_taps);
        let out_taps = if n + 1 == axes.len() {
            ac.pattern().taps().to_vec()
        } else {
            collapsed_taps(in_taps, ax)
        };
        plans.push(ReferencePlan::new(ax, fine_dims[ax], target[ax], in_taps, out_taps));
    }
    let slab_out = coarse.nx * coarse.ny;
    let mut scratch: Vec<Vec<f64>> = vec![Vec::new(); plans.len() - 1];
    for slab in 0..coarse.nz {
        let mut dims = fine_dims;
        let mut fine_offset = 0;
        if target[2] == fine_dims[2] {
            fine_offset = slab * fine.nx * fine.ny;
            dims[2] = 1;
        }
        for (n, plan) in plans.iter().enumerate() {
            let cs = if plan.ax == 2 { slab..slab + 1 } else { 0..plan.nc };
            let (done, rest) = scratch.split_at_mut(n);
            let input = match done.last() {
                Some(buf) => Planes { data: buf, stride: dims.iter().product(), offset: 0 },
                None => Planes { data: soa.data(), stride: fine.cells(), offset: fine_offset },
            };
            let mut out_dims = dims;
            out_dims[plan.ax] = cs.len();
            match rest.first_mut() {
                Some(buf) => {
                    let cells: usize = out_dims.iter().product();
                    buf.clear();
                    buf.resize(plan.out_taps.len() * cells, 0.0);
                    plan.collapse(&input, dims, cs, buf, cells, 0);
                }
                None => {
                    plan.collapse(&input, dims, cs, ac.data_mut(), coarse.cells(), slab * slab_out)
                }
            }
            dims = out_dims;
        }
    }
    ac.in_layout(a.layout()).into_owned()
}

/// Grid, pattern, layout and every stored value to the bit.
fn assert_same_bits(got: &SgDia<f64>, want: &SgDia<f64>, what: &str) {
    assert_eq!(got.grid(), want.grid(), "{what}");
    assert_eq!(got.pattern(), want.pattern(), "{what}");
    assert_eq!(got.layout(), want.layout(), "{what}");
    for (i, (g, w)) in got.data().iter().zip(want.data()).enumerate() {
        assert_eq!(g.to_bits(), w.to_bits(), "{what}: entry {i}: {g:e} vs {w:e}");
    }
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

#[test]
fn collapse_is_the_term_by_term_collapse_to_the_bit() {
    check_n("rap collapse == term-by-term collapse, bitwise", 128, |rng| {
        let (a, axes) = operator(rng);
        let what = format!("{:?} {} axes {axes:?} {:?}", a.grid(), a.pattern().name(), a.layout());
        assert_same_bits(&galerkin_rap_axes(&a, axes), &galerkin_rap_reference(&a, axes), &what);
    });
}

#[test]
fn every_problem_kind_chain_is_the_term_by_term_chain() {
    use fp16mg_problems::ProblemKind;
    for kind in ProblemKind::all() {
        // An even and an odd extent (the odd one coarsens unevenly).
        for n in [12, 17] {
            let a = kind.build(n).matrix;
            let chain = GalerkinChain::build(&a, &MgConfig::d16()).expect("chain");
            for (l, pair) in chain.matrices().windows(2).enumerate() {
                let (fine, coarse) = (pair[0].grid(), pair[1].grid());
                let axes = (coarse.nx != fine.nx, coarse.ny != fine.ny, coarse.nz != fine.nz);
                let what = format!("{} n={n} level {}", kind.name(), l + 1);
                assert_same_bits(&pair[1], &galerkin_rap_reference(&pair[0], axes), &what);
            }
        }
    }
}
