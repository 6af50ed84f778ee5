//! Differential property suite for the row-kernel transfers: the
//! per-fine-cell scatter loops they replaced are kept here as the oracle
//! and compared over generated grids — every axis extent in {1, 2, 3,
//! odd, even} (plus rows long enough to be x-chunked), each axis
//! coarsened or not, 1–4 components, `f32` and `f64`.

use fp16mg_fp::Scalar;
use fp16mg_grid::Grid3;
use fp16mg_testkit::{check_n, Rng};

use super::{assert_coarsening_pair, parents_axis, prolong_add, restrict, TILE};

/// The scatter form of `prolong_add`: one pass over fine cells, one
/// update per (cell, parent).
fn prolong_add_oracle<P: Scalar>(fine: &Grid3, coarse: &Grid3, uc: &[P], uf: &mut [P]) {
    assert_coarsening_pair(fine, coarse);
    assert_eq!(uc.len(), coarse.unknowns(), "uc length");
    assert_eq!(uf.len(), fine.unknowns(), "uf length");
    for_each_parent(fine, coarse, |fu, cu, w| uf[fu] += P::from_f32(w) * uc[cu]);
}

/// The scatter form of `restrict`.
fn restrict_oracle<P: Scalar>(fine: &Grid3, coarse: &Grid3, rf: &[P], fc: &mut [P]) {
    assert_coarsening_pair(fine, coarse);
    assert_eq!(rf.len(), fine.unknowns(), "rf length");
    assert_eq!(fc.len(), coarse.unknowns(), "fc length");
    fc.fill(P::ZERO);
    for_each_parent(fine, coarse, |fu, cu, w| fc[cu] += P::from_f32(w) * rf[fu]);
}

/// Calls `f(fine unknown, coarse unknown, weight)` for every nonzero of `P`.
fn for_each_parent(fine: &Grid3, coarse: &Grid3, mut f: impl FnMut(usize, usize, f32)) {
    let r = fine.components;
    for (cell, i, j, k) in fine.iter_cells() {
        let (pi, ni) = parents_axis(i, fine.nx, coarse.nx);
        let (pj, nj) = parents_axis(j, fine.ny, coarse.ny);
        let (pk, nk) = parents_axis(k, fine.nz, coarse.nz);
        for (ck, wk) in &pk[..nk] {
            for (cj, wj) in &pj[..nj] {
                for (ci, wi) in &pi[..ni] {
                    let ccell = coarse.cell(*ci, *cj, *ck);
                    for c in 0..r {
                        f(fine.unknown_of(cell, c), coarse.unknown_of(ccell, c), wi * wj * wk);
                    }
                }
            }
        }
    }
}

/// One extent from {1, 2, 3, odd, even}.
fn extent(rng: &mut Rng) -> usize {
    match rng.usize_range(0, 5) {
        0 => 1,
        1 => 2,
        2 => 3,
        3 => 2 * rng.usize_range(2, 9) + 1,
        _ => 2 * rng.usize_range(2, 9),
    }
}

/// A fine grid and one of its (semi)coarsenings. One case in eight has an
/// x-row longer than the stack tile, so the x-chunk seams are exercised.
fn grid_pair(rng: &mut Rng) -> (Grid3, Grid3) {
    let components = rng.usize_range(1, 5);
    let fine = if rng.chance(0.125) {
        let nx = rng.usize_range(TILE / 2, 2 * TILE + 2);
        Grid3::with_components(nx, rng.usize_range(1, 4), rng.usize_range(1, 4), components)
    } else {
        Grid3::with_components(extent(rng), extent(rng), extent(rng), components)
    };
    let axes = (rng.chance(0.5), rng.chance(0.5), rng.chance(0.5));
    (fine, fine.coarsen_axes(axes))
}

fn vector<P: Scalar>(rng: &mut Rng, n: usize) -> Vec<P> {
    (0..n).map(|_| P::from_f64(rng.f64_range(-1.0, 1.0))).collect()
}

fn max_abs<P: Scalar>(v: &[P]) -> f64 {
    v.iter().map(|x| x.to_f64().abs()).fold(0.0, f64::max)
}

fn dot64<P: Scalar>(a: &[P], b: &[P]) -> f64 {
    a.iter().zip(b).map(|(&x, &y)| x.to_f64() * y.to_f64()).sum()
}

/// Entrywise agreement within 4 ulp of the result's ∞-norm.
fn assert_close<P: Scalar>(what: &str, pair: (&Grid3, &Grid3), got: &[P], want: &[P]) {
    let tol = 4.0 * P::EPSILON.to_f64() * max_abs(want);
    for (u, (g, w)) in got.iter().zip(want).enumerate() {
        let diff = (g.to_f64() - w.to_f64()).abs();
        assert!(diff <= tol, "{what} {pair:?}: unknown {u}: {g} vs oracle {w} (tol {tol:e})");
    }
}

fn differential<P: Scalar>(rng: &mut Rng) {
    let (fine, coarse) = grid_pair(rng);
    let pair = (&fine, &coarse);
    let (nf, nc) = (fine.unknowns(), coarse.unknowns());
    let uc: Vec<P> = vector(rng, nc);
    let vf: Vec<P> = vector(rng, nf);

    // restrict: agrees with the oracle and overwrites whatever was there.
    let mut want_c = vec![P::ZERO; nc];
    restrict_oracle(&fine, &coarse, &vf, &mut want_c);
    let mut rv = vec![P::from_f64(f64::NAN); nc];
    restrict(&fine, &coarse, &vf, &mut rv);
    assert_close("restrict", pair, &rv, &want_c);

    // prolong_add: agrees with the oracle and accumulates onto the input.
    let start: Vec<P> = vector(rng, nf);
    let mut want_f = start.clone();
    prolong_add_oracle(&fine, &coarse, &uc, &mut want_f);
    let mut got_f = start;
    prolong_add(&fine, &coarse, &uc, &mut got_f);
    assert_close("prolong_add", pair, &got_f, &want_f);

    // R = Pᵀ: ⟨P uc, vf⟩ = ⟨uc, R vf⟩.
    let mut puc = vec![P::ZERO; nf];
    prolong_add(&fine, &coarse, &uc, &mut puc);
    let (lhs, rhs) = (dot64(&puc, &vf), dot64(&uc, &rv));
    let scale = P::EPSILON.to_f64() * nf as f64;
    assert!((lhs - rhs).abs() <= 8.0 * scale, "adjointness {pair:?}: {lhs} vs {rhs}");

    // Row sums of P are exactly 1 (boundary fold): constants stay constants.
    let constant = P::from_f64(rng.f64_range(0.5, 2.0));
    let mut uf = vec![P::ZERO; nf];
    prolong_add(&fine, &coarse, &vec![constant; nc], &mut uf);
    assert!(uf.iter().all(|&v| v == constant), "constant {constant} not reproduced on {pair:?}");
}

#[test]
fn prop_transfer_matches_scatter_oracle_f32() {
    check_n("prop_transfer_matches_scatter_oracle_f32", 96, differential::<f32>);
}

#[test]
fn prop_transfer_matches_scatter_oracle_f64() {
    check_n("prop_transfer_matches_scatter_oracle_f64", 96, differential::<f64>);
}

fn panics(f: impl FnOnce()) -> bool {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).is_err()
}

/// Both operators, new and oracle, either all accept or all reject.
fn rejected(fine: &Grid3, coarse: &Grid3, nc: usize, nf: usize) -> bool {
    let (c, f) = (vec![0.5f32; nc], vec![0.25f32; nf]);
    let outcomes = [
        panics(|| prolong_add(fine, coarse, &c, &mut f.clone())),
        panics(|| prolong_add_oracle(fine, coarse, &c, &mut f.clone())),
        panics(|| restrict(fine, coarse, &f, &mut c.clone())),
        panics(|| restrict_oracle(fine, coarse, &f, &mut c.clone())),
    ];
    assert!(
        outcomes.iter().all(|&o| o == outcomes[0]),
        "{fine:?} -> {coarse:?}, lengths ({nc}, {nf}): panics differ {outcomes:?}"
    );
    outcomes[0]
}

#[test]
fn prop_transfer_rejects_what_the_oracle_rejects() {
    check_n("prop_transfer_rejects_what_the_oracle_rejects", 64, |rng| {
        let (fine, coarse) = grid_pair(rng);
        let (nf, nc) = (fine.unknowns(), coarse.unknowns());
        assert!(!rejected(&fine, &coarse, nc, nf), "valid pair rejected");
        assert!(rejected(&fine, &coarse, nc + 1, nf), "long coarse vector accepted");
        assert!(rejected(&fine, &coarse, nc, nf - 1), "short fine vector accepted");
        let mut more = coarse;
        more.components += 1;
        assert!(rejected(&fine, &more, more.unknowns(), nf), "component mismatch accepted");
        // An extent that is neither n nor ⌈n/2⌉ on one axis.
        let mut skewed = coarse;
        match rng.usize_range(0, 3) {
            0 => skewed.nx = fine.nx + 1,
            1 => skewed.ny = fine.ny.div_ceil(2) + fine.ny,
            _ => skewed.nz = fine.nz + 2,
        }
        assert!(rejected(&fine, &skewed, skewed.unknowns(), nf), "non-coarsening pair accepted");
    });
}
