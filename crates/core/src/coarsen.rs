//! Galerkin coarsening: the structured triple-matrix product `R A P`.
//!
//! This is the essential setup-phase computation (Algorithm 1 line 2) and
//! the reason *setup-then-scale* exists: the chain of triple products is
//! numerically delicate, so the paper insists it run in high precision,
//! untouched by any scaling (§4.3). The whole function therefore operates
//! in `f64`.
//!
//! With trilinear `P` and `R = Pᵀ`, a radius-1 fine stencil produces a
//! radius-1 (≤ 27-point) coarse stencil, which reproduces the footnote-5
//! behavior: 3d7/3d15/3d19 patterns expand to 3d27 on coarser grids.
//!
//! The transfer weights factor per axis (`P = Px ⊗ Py ⊗ Pz`, the fact
//! [`crate::transfer`] relies on), so `Pᵀ A P` is computed as three
//! successive *one-dimensional* Galerkin products, each halving the
//! data. Along a coarsened axis, coarse index `C` with child `c` (weight
//! `wr`), a fine tap with axis offset `d`, and parent `(Pc, wp)` of
//! `c + d` give
//! `out[tap(rest, Pc − C)][C, ·] += (wr·wp) · in[tap(rest, d)][c, ·]`,
//! where `·` is everything contiguous below the axis in an SOA tap plane:
//! a whole xy-plane for z, an x-row for y — plain row AXPYs. Only the x
//! pass has a one-element row, so it runs last, on a quarter of the
//! data. Children, parents, boundary fold and the identity of an
//! uncoarsened axis all come from [`parents_axis`], the definition the
//! transfers use, so `R = Pᵀ` holds by construction.

use std::collections::HashMap;
use std::ops::Range;

use fp16mg_sgdia::{Layout, SgDia};
use fp16mg_stencil::{Pattern, Tap};

use crate::transfer::{children_axis, parents_axis};

/// Computes the Galerkin coarse operator `A_c = Pᵀ A P` in `f64`.
///
/// The result lives on `a.grid().coarsen()` with the full 27-point
/// pattern (replicated over component pairs for vector PDEs); taps whose
/// accumulated value is exactly zero remain stored (SG-DIA keeps the
/// pattern uniform).
///
/// # Panics
/// Panics if the fine pattern's radius exceeds 1 (standard structured
/// stencils; RAP output itself stays radius 1, so chains are closed).
pub fn galerkin_rap(a: &SgDia<f64>) -> SgDia<f64> {
    galerkin_rap_axes(a, (true, true, true))
}

/// [`galerkin_rap`] with per-axis coarsening selection (PFMG-style
/// semicoarsening): uncoarsened axes use identity transfer, so the coarse
/// operator keeps the fine resolution along them.
///
/// # Panics
/// As [`galerkin_rap`]; additionally if no axis is coarsenable.
pub fn galerkin_rap_axes(a: &SgDia<f64>, axes: (bool, bool, bool)) -> SgDia<f64> {
    assert!(a.pattern().radius() <= 1, "galerkin_rap supports radius-1 stencils");
    let fine = *a.grid();
    let coarse = fine.coarsen_axes(axes);
    assert_ne!(coarse, fine, "no axis was coarsened");
    let r = fine.components;
    let cpattern = if r == 1 { Pattern::p27() } else { Pattern::p27().with_components(r) };
    let mut ac = SgDia::<f64>::zeros(coarse, cpattern, Layout::Soa);

    // The collapse works on SOA tap planes; AOS (the Fig. 7 ablation
    // layout) converts on the way in and out.
    let soa = a.in_layout(Layout::Soa);
    let fine_dims = [fine.nx, fine.ny, fine.nz];
    let target = [coarse.nx, coarse.ny, coarse.nz];
    let axes: Vec<usize> =
        [2, 1, 0].into_iter().filter(|&ax| target[ax] != fine_dims[ax]).collect();
    let mut plans: Vec<AxisPlan> = Vec::with_capacity(axes.len());
    for (n, &ax) in axes.iter().enumerate() {
        let in_taps = plans.last().map_or(soa.pattern().taps(), |p| &p.out_taps);
        // The last pass lands in the 27-point output; planes the fine
        // pattern cannot reach stay zero.
        let out_taps = if n + 1 == axes.len() {
            ac.pattern().taps().to_vec()
        } else {
            collapsed_taps(in_taps, ax)
        };
        plans.push(AxisPlan::new(ax, fine_dims[ax], target[ax], in_taps, out_taps));
    }

    // One output z-slab at a time, through all passes: the intermediates
    // are slab-sized scratch that stays in cache, so the level is read
    // once and only the coarse operator is written.
    let slab_out = coarse.nx * coarse.ny;
    let mut scratch: Vec<Vec<f64>> = vec![Vec::new(); plans.len() - 1];
    for slab in 0..coarse.nz {
        // The first pass reads the fine planes: whole when z collapses,
        // else the window of this slab.
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

/// A tap's offset along `ax` (0 = x, 1 = y, 2 = z).
fn axis_offset(tap: Tap, ax: usize) -> i32 {
    [tap.dx, tap.dy, tap.dz][ax]
}

/// `tap` with its offset along `ax` replaced by `d`.
fn with_axis_offset(mut tap: Tap, ax: usize, d: i32) -> Tap {
    *[&mut tap.dx, &mut tap.dy, &mut tap.dz][ax] = d;
    tap
}

/// The taps a collapse along `ax` produces: every (rest-offset, component
/// pair) of the input with all three coarse offsets along `ax`.
fn collapsed_taps(taps: &[Tap], ax: usize) -> Vec<Tap> {
    let mut out: Vec<Tap> =
        taps.iter().flat_map(|&t| (-1..=1).map(move |d| with_axis_offset(t, ax, d))).collect();
    out.sort_by_key(|t| t.key());
    out.dedup();
    out
}

/// A window of SOA tap planes: plane `t` starts at `t * stride + offset`.
struct Planes<'a> {
    data: &'a [f64],
    stride: usize,
    offset: usize,
}

/// One term of the one-dimensional Galerkin product at a coarse index:
/// `out[D][C] += w · in[d][c]` with `w = wr·wp`; the offsets `d`, `D` are
/// stored shifted to `0..3`.
struct Term {
    c: usize,
    d: usize,
    big_d: usize,
    w: f64,
}

/// The one-dimensional Galerkin product along one axis, `n → nc` cells.
struct AxisPlan {
    ax: usize,
    n: usize,
    nc: usize,
    /// Every (child, fine offset, parent) combination, by coarse index.
    terms: Vec<Term>,
    ranges: Vec<Range<usize>>,
    /// Input taps that differ only in their offset along `ax` collapse
    /// together: the ≤ 3 input and the 3 output tap indices.
    groups: Vec<([Option<usize>; 3], [usize; 3])>,
    out_taps: Vec<Tap>,
}

impl AxisPlan {
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
                        terms.push(Term { c, d, big_d: pc + 1 - big_c, w: (wr * wp) as f64 });
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
        AxisPlan { ax, n, nc, terms, ranges, groups, out_taps }
    }

    /// Collapses the window `input` (`dims` cells per plane) onto coarse
    /// indices `cs`, accumulating into zeroed planes of `out` that start
    /// at `t * out_stride + out_offset`.
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
                            // The x pass: one element per row.
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

/// Mean absolute face-coupling strength per axis (x, y, z): the semi-
/// coarsening direction detector. Only pure-axis (face) taps count; all
/// component pairs contribute.
pub fn directional_strength(a: &SgDia<f64>) -> [f64; 3] {
    let grid = a.grid();
    let mut sum = [0.0f64; 3];
    let mut cnt = [0usize; 3];
    for (t, tap) in a.pattern().taps().iter().enumerate() {
        let axis = match (tap.dx != 0, tap.dy != 0, tap.dz != 0) {
            (true, false, false) => 0,
            (false, true, false) => 1,
            (false, false, true) => 2,
            _ => continue,
        };
        for cell in 0..grid.cells() {
            sum[axis] += a.get(cell, t).abs();
        }
        cnt[axis] += grid.cells();
    }
    let mut out = [0.0f64; 3];
    for ax in 0..3 {
        out[ax] = if cnt[ax] > 0 { sum[ax] / cnt[ax] as f64 } else { 0.0 };
    }
    out
}

#[cfg(test)]
mod tests;
