//! The zero-guess cycle (DESIGN.md §8.4) against the cycle it replaced:
//! every level zero-filled before its first visit, every sweep a full
//! sweep, every residual `f − A u`. That cycle is rebuilt here from
//! `Level::smooth` / `compute_residual` with the zero-guess facts switched
//! off, and the production recursion must reproduce it — to rounding
//! where the identity `r = −U u` is exact (wide storage), within the
//! `(D₁₆ − D_hp) u` bound where the stored diagonal is FP16.
//!
//! Below that: the level store (`build_level`) against the pre-scan →
//! clone → scale → store → convert sequence it replaced, level by level;
//! a level 0 promoted from the lent operator against the one its FP32 copy
//! made; and a flagged level mended by widening it, with no other level
//! moved.

use fp16mg_grid::Grid3;
use fp16mg_sgdia::Layout;
use fp16mg_stencil::Pattern;
use fp16mg_testkit::{check_n, Rng};

use super::*;
use crate::tests::laplacian;
use crate::StoragePolicy;

/// The V-cycle before the recursion knew its iterate was zero.
fn reference_cycle<Pr: Scalar>(mg: &mut Mg<Pr>, i: usize) {
    let (nu1, nu2) = (mg.config.nu1, mg.config.nu2);
    let (gf, last) = (mg.levels[i].grid, i + 1 == mg.levels.len());
    {
        let mut b = mg.ws.level(i);
        mg.levels[i].scale_rhs(&mut b);
        mg.levels[i].smooth(nu1, false, false, &mut b);
        mg.levels[i].compute_residual(false, &mut b);
    }
    if last {
        restrict(&gf, &mg.coarse_grid, mg.ws.level(i).r, &mut mg.coarse_f);
        mg.coarse_solve_from_own_f();
        for (cf, &x) in mg.coarse_f.iter_mut().zip(&mg.coarse_x64) {
            *cf = Pr::from_f64(x);
        }
        prolong_add(&gf, &mg.coarse_grid, &mg.coarse_f, mg.ws.level(i).u);
    } else {
        let gc = mg.levels[i + 1].grid;
        {
            let (fine, coarse) = mg.ws.level_pair(i, i + 1);
            restrict(&gf, &gc, fine.r, coarse.f);
            coarse.u.fill(Pr::ZERO);
        }
        reference_cycle(mg, i + 1);
        let (fine, coarse) = mg.ws.level_pair(i, i + 1);
        prolong_add(&gf, &gc, coarse.u, fine.u);
    }
    let mut b = mg.ws.level(i);
    mg.levels[i].smooth(nu2, true, false, &mut b);
}

fn random_rhs<Pr: Scalar>(rng: &mut Rng, n: usize) -> Vec<Pr> {
    (0..n).map(|_| Pr::from_f64(rng.f64_range(-1.0, 1.0))).collect()
}

/// `‖a − b‖₂ / ‖b‖₂`.
fn rel_diff<Pr: Scalar>(a: &[Pr], b: &[Pr]) -> f64 {
    let sq = |it: &mut dyn Iterator<Item = f64>| it.map(|v| v * v).sum::<f64>().sqrt();
    let diff = sq(&mut a.iter().zip(b).map(|(x, y)| x.to_f64() - y.to_f64()));
    diff / sq(&mut b.iter().map(|y| y.to_f64())).max(f64::MIN_POSITIVE)
}

/// One production cycle and one reference cycle on the same right-hand
/// side; every level's `u` is poisoned first, so a first visit that read
/// its iterate would show. Returns the two finest iterates.
fn both_cycles<Pr: Scalar>(mg: &mut Mg<Pr>, r: &[Pr]) -> (Vec<Pr>, Vec<Pr>) {
    mg.load_rhs(r);
    for i in 0..mg.levels.len() {
        mg.ws.level(i).u.fill(Pr::from_f64(f64::NAN));
    }
    mg.vcycle();
    let got = mg.ws.level(0).u.to_vec();
    mg.ws.level(0).u.fill(Pr::ZERO);
    reference_cycle(mg, 0);
    (got, mg.ws.level(0).u.to_vec())
}

/// An operator in or far out of FP16 range (the latter puts scale vectors
/// on every level), odd / even / non-cubic extents, 7- or 27-point.
fn operator(rng: &mut Rng) -> SgDia<f64> {
    let ext = |rng: &mut Rng| rng.usize_range(9, 15);
    let grid = Grid3::new(ext(rng), ext(rng), ext(rng));
    let pattern = if rng.chance(0.5) { Pattern::p7() } else { Pattern::p27() };
    laplacian(grid, pattern, if rng.chance(0.5) { 1.0 } else { 1e8 })
}

/// A three-component operator — per-field 7-point diffusion, fields
/// coupled through the centre block — in or far out of FP16 range.
fn block_operator(rng: &mut Rng) -> SgDia<f64> {
    let ext = |rng: &mut Rng| rng.usize_range(9, 15);
    let grid = Grid3::with_components(ext(rng), ext(rng), ext(rng), 3);
    let pattern = Pattern::p7().with_components(3);
    let taps = pattern.taps().to_vec();
    let scale = if rng.chance(0.5) { 1.0 } else { 1e6 };
    SgDia::from_fn(grid, pattern, Layout::Soa, |_, _, _, _, t| match taps[t] {
        tap if tap.is_diagonal() => 7.0 * scale,
        tap if tap.is_center() => 0.2 * scale,
        tap if tap.cin == tap.cout => -scale,
        _ => 0.0,
    })
}

#[test]
fn cycles_match_the_full_sweep_reference_exactly_in_wide_storage() {
    // Full64: D₁₆ = D_hp, so `−U u` *is* `f − A u` and the two cycles may
    // differ by rounding only.
    let mut blocks = false;
    check_n("cycles_match_the_full_sweep_reference_exactly_in_wide_storage", 6, |rng| {
        // Scalar and three-component operators in turn.
        blocks = !blocks;
        let a = if blocks { block_operator(rng) } else { operator(rng) };
        let r: Vec<f64> = random_rhs(rng, a.rows());
        for (nu1, nu2) in [(1, 1), (2, 1), (0, 2)] {
            let cfg = MgConfig { nu1, nu2, min_coarse_cells: 8, ..MgConfig::d64() };
            let mut mg = Mg::<f64>::setup(&a, &cfg).unwrap();
            assert!(mg.levels.len() >= 2, "the cycle must recurse");
            let (got, want) = both_cycles(&mut mg, &r);
            let d = rel_diff(&got, &want);
            assert!(d <= 1e-12, "V({nu1},{nu2}): {d:e}");
        }
    });
}

#[test]
fn fp16_cycles_stay_within_the_stored_diagonal_bound() {
    // Mix16: the smoother's D⁻¹ is from the high-precision matrix, the
    // residual the reference subtracts uses the FP16 diagonal, so the
    // cycles differ by (D₁₆ − D_hp) u ≤ 2⁻¹¹ |D u| per level — and by
    // nothing beyond rounding when no level takes the `−U u` residual.
    let mut blocks = false;
    check_n("fp16_cycles_stay_within_the_stored_diagonal_bound", 6, |rng| {
        blocks = !blocks;
        let a = if blocks { block_operator(rng) } else { operator(rng) };
        let r: Vec<f32> = random_rhs(rng, a.rows());
        for (nu1, bound) in [(1, 2e-3), (2, 2e-5)] {
            let cfg = MgConfig { nu1, min_coarse_cells: 8, ..MgConfig::d16() };
            let mut mg = Mg::<f32>::setup(&a, &cfg).unwrap();
            let (got, want) = both_cycles(&mut mg, &r);
            let d = rel_diff(&got, &want);
            assert!(d <= bound, "nu1={nu1}: {d:e} > {bound:e}");
        }
    });
}

#[test]
fn every_smoother_takes_the_same_first_step_from_zero() {
    // The first pre-smoothing step with the zero-guess fact, on a poisoned
    // iterate, against the same step on a zero-filled one: the forward
    // Gauss–Seidel sweep reads the lower half only, on unscaled and scaled
    // levels, scalar and vector PDEs.
    check_n("every_smoother_takes_the_same_first_step_from_zero", 4, |rng| {
        let (scalar, blocks) = (operator(rng), block_operator(rng));
        for a in [&scalar, &blocks] {
            let f: Vec<f32> = random_rhs(rng, a.rows());
            for nu in [1, 2] {
                let cfg = MgConfig { min_coarse_cells: 8, ..MgConfig::d16() };
                let mut mg = Mg::<f32>::setup(a, &cfg).unwrap();
                let level = &mg.levels[0];
                let mut b = mg.ws.level(0);
                b.f.copy_from_slice(&f);
                level.scale_rhs(&mut b);

                b.u.fill(0.0);
                assert!(!level.smooth(nu, false, false, &mut b));
                level.compute_residual(false, &mut b);
                let (want_u, want_r) = (b.u.to_vec(), b.r.to_vec());

                b.u.fill(f32::NAN);
                b.t1.fill(f32::NAN);
                let lower_solved = level.smooth(nu, false, true, &mut b);
                level.compute_residual(lower_solved, &mut b);
                assert_eq!(lower_solved, nu == 1, "nu={nu}");

                let what = format!("nu={nu} scaled={}", level.scale.is_some());
                let d = rel_diff(b.u, &want_u);
                assert!(d <= 1e-6, "u, {what}: {d:e}");
                // −U u against f − A₁₆ u: the stored-diagonal bound.
                let d = rel_diff(b.r, &want_r);
                let bound = if lower_solved { 2e-3 } else { 1e-5 };
                assert!(d <= bound, "r, {what}: {d:e}");
            }
        }
    });
}

/// An ±∞ in a plane only the backward sweep and `−U u` read, and one in a
/// plane only the forward sweep from zero reads, each still poison the
/// cycle's output, and recovery still answers with a promotion.
#[test]
fn an_infinity_in_either_half_of_the_matrix_still_ends_in_a_promotion() {
    use crate::{PromotionReason, RecoveryPolicy};

    let a = laplacian(Grid3::new(12, 11, 10), Pattern::p27(), 1.0);
    let r: Vec<f32> = (0..a.rows()).map(|i| ((i % 7) as f32) * 0.1 + 0.1).collect();
    // An interior cell: every tap's neighbour exists, so the kernels read it.
    let cell = (5 * 11 + 5) * 12 + 6;
    let ntaps = a.pattern().len();
    for (tap, half) in [(0, "lower"), (ntaps - 1, "upper")] {
        let blind = MgConfig { recovery: RecoveryPolicy::disabled(), ..MgConfig::d16() };
        for (cfg, heals) in [(blind, false), (MgConfig::d16(), true)] {
            let mut mg = Mg::<f32>::setup(&a, &cfg).unwrap();
            assert!(mg.stored_mut(0).unwrap().inject_inf_at(cell, tap));
            let mut e = vec![0.0f32; a.rows()];
            Preconditioner::<f32>::apply(&mut mg.insured(&a), &r, &mut e);
            let finite = e.iter().all(|v| v.is_finite());
            assert_eq!(finite, heals, "{half} plane, recovery {heals}");
            if heals {
                let events = &mg.info().promotions;
                assert_eq!(events.len(), 1, "{half} plane: {events:?}");
                assert_eq!(
                    (events[0].level, events[0].reason),
                    (0, PromotionReason::NonFiniteOutput)
                );
            }
        }
    }
}

// ---- The level store: one read of an in-range FP64 operator, two of one
// that must be scaled, and no scaled copy — against the pre-scan and the
// four steps that made one. ----

/// The `need to scale` test of Algorithm 1 as a scan of its own before the
/// store: some entry is non-finite or reaches `limit`.
fn out_of_range(a: &SgDia<f64>, limit: f64) -> bool {
    a.data().iter().any(|&v| !v.is_finite() || v.abs() >= limit)
}

/// The stored values of a level, as bit patterns.
fn stored_bits(m: &StoredMatrix) -> Vec<u64> {
    use fp16mg_fp::Storage;
    fn bits<S: Storage>(a: &SgDia<S>) -> Vec<u64> {
        a.data().iter().map(|v| v.store_bits()).collect()
    }
    match m {
        StoredMatrix::F64(a) => bits(a),
        StoredMatrix::F32(a) => bits(a),
        StoredMatrix::F16(a) => bits(a),
        StoredMatrix::BF16(a) => bits(a),
    }
}

fn f32_bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn f64_bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// `got` is the hierarchy `want` is: stored planes, scale vectors,
/// smoother diagonals and promotion sources to the bit,
/// every level's audit, and the rest of `MgInfo` and the coarse factors
/// as they print.
pub(crate) fn assert_same_hierarchy(got: &Mg<f32>, want: &Mg<f32>, what: &str) {
    assert_eq!(got.levels.len(), want.levels.len(), "{what}: smoothed levels");
    for (i, (g, w)) in got.levels.iter().zip(&want.levels).enumerate() {
        let what = format!("{what} level {i}");
        assert!(stored_bits(&g.stored) == stored_bits(&w.stored), "{what}: planes");
        let scales = |l: &Level<f32>| {
            l.scale.as_ref().map(|sv| (sv.g.to_bits(), f32_bits(&sv.s), f32_bits(&sv.s_inv)))
        };
        assert!(scales(g) == scales(w), "{what}: scale vectors");
        assert!(f32_bits(g.dinv.data()) == f32_bits(w.dinv.data()), "{what}: BlockDiagInv");
        let source = |l: &Level<f32>| l.source.as_ref().map(|s| f32_bits(s.data()));
        assert!(source(g) == source(w), "{what}: FP32 source");
        assert_eq!(got.info.levels[i].audit, want.info.levels[i].audit, "{what}: audit");
    }
    assert_eq!(format!("{:?}", got.info), format!("{:?}", want.info), "{what}: MgInfo");
    assert_eq!(format!("{:?}", got.coarse_lu), format!("{:?}", want.coarse_lu), "{what}: LU");
}

/// Every smoothed level of `Mg::setup(a, cfg)` against the level rebuilt
/// the way `build_level` used to: clone the operator, `scale_symmetric`
/// the clone in place, store the clone, `convert::<f32>` the original.
fn assert_levels_match_the_clone_and_scale_oracle(a: &SgDia<f64>, cfg: &MgConfig, what: &str) {
    let mg = Mg::<f32>::setup(a, cfg).unwrap_or_else(|e| panic!("{what}: {e}"));
    let chain = GalerkinChain::build(a, cfg).unwrap();
    let mut scaled_levels = 0;
    for (i, ai) in chain.matrices().iter().enumerate().take(mg.levels.len()) {
        let what = format!("{what} level {i}");
        let (level, info) = (&mg.levels[i], &mg.info.levels[i]);
        // The precision the level ended at (a level Theorem 4.1 cannot
        // scale falls back to a wide one and is stored as it is).
        let prec = level.stored.precision();
        let mut scaled = (*ai).clone();
        let sv = (cfg.scale == ScaleStrategy::SetupThenScale
            && out_of_range(ai, prec.finite_max()))
        .then(|| {
            scaling::scale_symmetric::<f32>(&mut scaled, cfg.g_choice, prec.finite_max())
                .expect("a level stored scaled has a positive diagonal")
        });
        scaled_levels += usize::from(sv.is_some());
        let want = StoredMatrix::store_level(
            &scaled,
            None,
            prec,
            cfg.layout,
            store_policy(cfg),
            true,
            false,
        )
        .unwrap();
        assert!(stored_bits(&level.stored) == stored_bits(&want.matrix), "{what}: planes");
        assert_eq!(info.audit.as_ref(), Some(&want.audit), "{what}: audit");
        assert_eq!(info.finite, want.finite, "{what}: finite");
        assert_eq!(info.sentinels, want.sentinels, "{what}: sentinels");
        assert_eq!((info.scaled, info.g), (sv.is_some(), sv.as_ref().map(|sv| sv.g)), "{what}");
        match (&level.scale, &sv) {
            (Some(got), Some(want)) => {
                assert_eq!(got.g_clamped_from, want.g_clamped_from, "{what}");
                assert!(f32_bits(&got.s) == f32_bits(&want.s), "{what}: s");
                assert!(f32_bits(&got.s_inv) == f32_bits(&want.s_inv), "{what}: s_inv");
            }
            (None, None) => {}
            _ => panic!("{what}: scaled {} vs {}", level.scale.is_some(), sv.is_some()),
        }
        let dinv = BlockDiagInv::<f32>::from_matrix(&scaled).expect("regular diagonal blocks");
        assert!(f32_bits(level.dinv.data()) == f32_bits(dinv.data()), "{what}: BlockDiagInv");
        // The promotion source is the level before scaling, in FP32 — but
        // for a level 0 stored from the caller's operator, which is lent.
        let lent = i == 0 && cfg.scale != ScaleStrategy::ScaleThenSetup;
        let source =
            (cfg.recovery.enabled && prec.bytes() == 2 && !lent).then(|| ai.convert::<f32>());
        assert_eq!(level.source.is_some(), source.is_some(), "{what}: source kept");
        if let (Some(got), Some(want)) = (&level.source, &source) {
            assert!(f32_bits(got.data()) == f32_bits(want.data()), "{what}: FP32 source");
        }
    }
    // `what` says whether the kind is out of FP16 range.
    assert_eq!(scaled_levels > 0, what.contains("scaled"), "{what}: {scaled_levels} scaled");
}

#[test]
fn every_problem_kind_is_stored_as_the_clone_and_scale_oracle_stores_it() {
    use fp16mg_problems::ProblemKind;
    for kind in ProblemKind::all() {
        // An even and an odd extent (the odd one coarsens unevenly).
        for n in [8, 11] {
            let a = kind.build(n).matrix;
            let range =
                if a.abs_max().0 >= fp16mg_fp::F16::MAX_F64 { "scaled" } else { "in range" };
            let what = format!("{} n={n} ({range})", kind.name());
            assert_levels_match_the_clone_and_scale_oracle(&a, &MgConfig::d16(), &what);
        }
    }
    // The ablation layout, BF16 storage (never scaled: it has f32's range)
    // and a fixed G that gets clamped take the same path.
    let a = ProblemKind::Weather.build(8).matrix;
    let aos = MgConfig { layout: Layout::Aos, ..MgConfig::d16() };
    assert_levels_match_the_clone_and_scale_oracle(&a, &aos, "weather AOS (scaled)");
    let clamped = MgConfig { g_choice: GChoice::Fixed(1.0e9), ..MgConfig::d16() };
    assert_levels_match_the_clone_and_scale_oracle(&a, &clamped, "weather fixed G (scaled)");
    let bf16 = MgConfig::dbf16();
    assert_levels_match_the_clone_and_scale_oracle(&a, &bf16, "weather bf16 (in range)");
    // FP16's largest finite value, in the last block of the last plane, is
    // already out of range: the sweep runs to the end, then the level is
    // stored again, scaled.
    let mut edge = laplacian(Grid3::new(9, 8, 7), Pattern::p27(), 1.0);
    let last_tap = edge.pattern().len() - 1;
    edge.set(403, last_tap, fp16mg_fp::F16::MAX_F64);
    assert_levels_match_the_clone_and_scale_oracle(&edge, &MgConfig::d16(), "65504 (scaled)");
}

/// `StoredMatrix::store_in_range` against the pre-scan and the store it
/// stands for: abandoned exactly when the scan finds an entry out of range,
/// otherwise `store_level` of the level as it is, to the bit.
fn assert_range_test_matches_the_pre_scan(
    a: &SgDia<f64>,
    prec: Precision,
    policy: TruncationPolicy,
    what: &str,
) {
    let (layout, policy) = (a.layout(), Some(policy));
    let fused = StoredMatrix::store_in_range(a, prec, layout, policy, true, true)
        .unwrap_or_else(|e| panic!("{what}: the range test let {e} through"));
    assert_eq!(fused.is_none(), out_of_range(a, prec.finite_max()), "{what}: abandoned");
    let Some(got) = fused else { return };
    let want = StoredMatrix::store_level(a, None, prec, layout, policy, true, true).unwrap();
    assert!(stored_bits(&got.matrix) == stored_bits(&want.matrix), "{what}: planes");
    assert_eq!((&got.audit, &got.sentinels), (&want.audit, &want.sentinels), "{what}");
    assert_eq!(got.finite, want.finite, "{what}: finite");
    let source = |s: Option<SgDia<f32>>| s.map(|s| f32_bits(s.data()));
    assert!(source(got.source) == source(want.source), "{what}: FP32 source");
}

#[test]
fn the_range_test_in_the_store_pass_decides_as_the_pre_scan_did() {
    use fp16mg_problems::ProblemKind;

    for kind in ProblemKind::all() {
        for n in [8, 11] {
            let chain = GalerkinChain::build(&kind.build(n).matrix, &MgConfig::d16()).unwrap();
            for (i, ai) in chain.matrices().iter().enumerate() {
                for prec in [Precision::F16, Precision::BF16, Precision::F32] {
                    let what = format!("{} n={n} level {i} {}", kind.name(), prec.name());
                    assert_range_test_matches_the_pre_scan(
                        ai,
                        prec,
                        TruncationPolicy::Saturate,
                        &what,
                    );
                }
            }
        }
    }
    // Levels made to fail the test in their last block (cell 403 of 504 is
    // in the second of a plane's two blocks, and interior) or their first.
    let level = || laplacian(Grid3::new(9, 8, 7), Pattern::p27(), 1.0);
    let last_tap = level().pattern().len() - 1;
    let (mut edge, mut nan, mut first) = (level(), level(), level());
    edge.set(403, last_tap, fp16mg_fp::F16::MAX_F64);
    nan.set(403, last_tap, f64::NAN);
    first.set(0, 0, -1.0e6);
    let cases = [
        (edge, TruncationPolicy::Saturate, "65504 in the last block"),
        (nan, TruncationPolicy::Saturate, "NaN in the last block"),
        // Reject must not refuse a level that is to be scaled.
        (first, TruncationPolicy::Reject, "first block out of range under Reject"),
    ];
    for (a, policy, what) in cases {
        assert!(out_of_range(&a, Precision::F16.finite_max()), "{what}");
        assert_range_test_matches_the_pre_scan(&a, Precision::F16, policy, what);
    }
    // The largest value below the limit is in range (and rounds to it).
    let mut inside = level();
    inside.set(403, last_tap, 65503.9);
    assert_range_test_matches_the_pre_scan(
        &inside,
        Precision::F16,
        TruncationPolicy::Reject,
        "inside",
    );
}

#[test]
fn level_0_keeps_no_source_and_is_insured_by_the_lent_operator() {
    use crate::PromotionReason::Manual;

    // Level 0 of a setup-then-scale hierarchy keeps no FP32 copy of the
    // caller's operator; the coarse levels keep theirs, and `MgInfo`
    // counts what they hold: for a 27-point stencil, a quarter of the
    // FP16 bytes, where level 0's copy alone would be twice them.
    let a = laplacian(Grid3::cube(16), Pattern::p27(), 1.0);
    let mut mg = Mg::<f32>::setup(&a, &MgConfig::d16()).unwrap();
    assert!(mg.levels[0].source.is_none());
    assert!(mg.levels[1..].iter().all(|l| l.source.is_some()));
    let held: usize = mg.levels.iter().map(Level::insurance_bytes).sum();
    assert_eq!(mg.info.insurance_bytes, held);
    assert!(10 * held < 3 * mg.info.matrix_bytes, "{held} B of coarse sources");
    // Bare, level 0 cannot be promoted; insured, it can, and the promotion
    // of a level with a source of its own gives that source's bytes back.
    assert!(Insured { mg: &mut mg, lent: None }.promote_level(0, Manual).is_none());
    mg.insured(&a).promote_level(0, Manual).expect("insured by the lent operator");
    assert_eq!(mg.info.insurance_bytes, held);
    let source = mg.levels[1].insurance_bytes();
    mg.insured(&a).promote_level(1, Manual).expect("insured by its own source");
    assert_eq!(mg.info.insurance_bytes, held - source);
    // Scale-then-setup stores level 0 from a scaled copy only the
    // hierarchy ever holds: that level keeps its source.
    let prescaled = MgConfig { scale: ScaleStrategy::ScaleThenSetup, ..MgConfig::d16() };
    assert!(Mg::<f32>::setup(&a, &prescaled).unwrap().levels[0].source.is_some());
}

/// `mg` as set up when level 0 kept its own promotion material: an FP32
/// copy of the operator it was stored from, counted in `MgInfo`.
fn with_level0_source(mg: &mut Mg<f32>, a: &SgDia<f64>) {
    let source: SgDia<f32> = a.to_layout(mg.config.layout).convert();
    mg.info.insurance_bytes += source.value_bytes();
    mg.levels[0].source = Some(source);
}

#[test]
fn a_level_0_promoted_from_the_lent_operator_is_the_one_its_fp32_copy_made() {
    use crate::PromotionReason;
    use fp16mg_problems::ProblemKind;

    let cfg = MgConfig::d16();
    for kind in ProblemKind::all() {
        for n in [8, 11] {
            let a = kind.build(n).matrix;
            let setup = || Mg::<f32>::setup(&a, &cfg).unwrap();
            let levels = setup().info.levels;
            let narrow: Vec<usize> =
                (0..levels.len()).filter(|&i| levels[i].precision.bytes() == 2).collect();
            assert_eq!(narrow.first(), Some(&0), "{} n={n}", kind.name());
            // Level 0 alone, and every narrow level (the ladder's
            // promote16→32 rung).
            for promoted in [&narrow[..1], &narrow[..]] {
                let what = format!("{} n={n} promoting {promoted:?}", kind.name());
                let (mut got, mut want) = (setup(), setup());
                with_level0_source(&mut want, &a);
                for &level in promoted {
                    got.insured(&a).promote_level(level, PromotionReason::Manual).expect(&what);
                    let mut bare = Insured { mg: &mut want, lent: None };
                    bare.promote_level(level, PromotionReason::Manual).expect(&what);
                }
                assert_same_hierarchy(&got, &want, &what);
            }
        }
    }
}

/// A flipped bit anywhere in a 16-bit level — every level, tap and bit
/// position, over operators in FP16 range and far out of it (scaled): the
/// sentinels flag exactly the flipped (level, tap), the mend widens that
/// level alone to FP32 (level 0 from the lent operator), every other level
/// keeps its stored bits and sentinels, and the widened level's retaken
/// sentinels verify clean. The mend runs as a scheduled check or as the
/// anomaly hook, in turn.
#[test]
fn prop_mend_widens_exactly_the_flagged_level() {
    use crate::PromotionReason;

    check_n("prop_mend_widens_exactly_the_flagged_level", 64, |rng| {
        let pattern = if rng.chance(0.5) { Pattern::p7() } else { Pattern::p27() };
        let a = laplacian(Grid3::new(9, 8, 7), pattern, 10f64.powf(rng.f64_range(-3.0, 9.0)));
        let mut mg = Mg::<f32>::setup(&a, &MgConfig::d16()).unwrap();
        let narrow: Vec<usize> = (0..mg.levels.len())
            .filter(|&l| mg.info.levels[l].precision == Precision::F16)
            .collect();
        let level = narrow[rng.usize_range(0, narrow.len())];
        let tap = rng.usize_range(0, a.pattern().len());
        let bit = rng.usize_range(0, 16) as u32;
        let before: Vec<(Vec<u64>, String)> = (0..mg.levels.len())
            .map(|i| {
                (stored_bits(&mg.levels[i].stored), format!("{:?}", mg.info.levels[i].sentinels))
            })
            .collect();
        if mg.stored_mut(level).unwrap().inject_bit_flip_tap(tap, bit).is_none() {
            return; // an all-zero plane of a coarse stencil
        }
        let what = format!("level {level} tap {tap} bit {bit}");
        let flagged: Vec<(usize, Vec<usize>)> = mg
            .verify_integrity()
            .into_iter()
            .map(|(l, mismatches)| (l, mismatches.iter().map(|m| m.tap).collect()))
            .collect();
        assert_eq!(flagged, [(level, vec![tap])], "{what}: flagged");

        let reason =
            if rng.chance(0.5) { PromotionReason::Periodic } else { PromotionReason::Anomaly };
        let mended = match reason {
            PromotionReason::Periodic => mg.insured(&a).mend(reason),
            _ => Preconditioner::<f32>::on_health_anomaly(&mut mg.insured(&a)),
        };
        assert_eq!(mended, 1, "{what}");
        let ev = &mg.info.promotions;
        assert_eq!(ev.len(), 1, "{what}: {ev:?}");
        assert_eq!((ev[0].level, ev[0].reason, &ev[0].taps[..]), (level, reason, &[tap][..]));
        assert_eq!((ev[0].from, ev[0].to), (Precision::F16, Precision::F32), "{what}");
        for (i, was) in before.iter().enumerate() {
            let now =
                (stored_bits(&mg.levels[i].stored), format!("{:?}", mg.info.levels[i].sentinels));
            if i == level {
                assert_eq!(mg.info.levels[i].precision, Precision::F32, "{what}: widened");
            } else {
                assert!(now == *was, "{what}: level {i} moved");
            }
        }
        assert!(mg.verify_integrity().is_empty(), "{what}: retaken sentinels");
    });
}

/// Level 0 keeps no source: a bare `Mg`'s anomaly hook flags it and mends
/// nothing; the hook of its insured view widens it from the lent operator.
#[test]
fn a_bare_mg_mends_no_level_0_but_its_insured_view_does() {
    use crate::PromotionReason;

    let a = laplacian(Grid3::cube(12), Pattern::p7(), 1.0);
    let mut mg = Mg::<f32>::setup(&a, &MgConfig::d16()).unwrap();
    assert!(mg.stored_mut(0).unwrap().inject_bit_flip_tap(0, 14).is_some());
    assert_eq!(Preconditioner::<f32>::on_health_anomaly(&mut mg), 0, "bare");
    assert_eq!(mg.info.levels[0].precision, Precision::F16);
    assert!(mg.info.promotions.is_empty(), "{:?}", mg.info.promotions);
    assert_eq!(mg.verify_integrity().len(), 1, "level 0 stays flagged");

    assert_eq!(Preconditioner::<f32>::on_health_anomaly(&mut mg.insured(&a)), 1, "insured");
    assert_eq!(mg.info.levels[0].precision, Precision::F32);
    let ev = &mg.info.promotions;
    assert_eq!((ev.len(), ev[0].level, ev[0].reason), (1, 0, PromotionReason::Anomaly));
    assert_eq!(ev[0].taps, [0]);
    assert!(mg.verify_integrity().is_empty());
}

// ---- The diagonal read first: a level whose diagonal is out of range
// skips the in-range sweep it would abandon — against `build_level` as it
// was, every level trying the sweep. ----

/// `build_level` before the diagonal was read first: a setup-then-scale
/// level always tries the in-range sweep, and only a level it abandons is
/// planned, by `ScalePlan::decide` reading the diagonal itself.
fn build_level_sweep_first<Pr: Scalar>(
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
    // level planned (`G_max`) and stored scaled (lines 6–9).
    let unscaled = if config.scale == ScaleStrategy::SetupThenScale {
        let k = keep_source(prec);
        StoredMatrix::store_in_range(ai, prec, layout, policy, true, k).transpose()
    } else {
        Some(store(None, prec))
    };
    let decide = || ScalePlan::decide(ai, config.g_choice, prec.finite_max());
    let plan =
        unscaled.is_none().then(decide).transpose().map_err(|e| non_positive_at(level, e))?;
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

/// The bits of everything one level holds.
type LevelBits = (Vec<u64>, Option<(u64, Vec<u32>, Vec<u32>)>, Vec<u32>, Option<Vec<u32>>);

fn level_bits(level: &Level<f32>) -> LevelBits {
    let scale =
        level.scale.as_ref().map(|sv| (sv.g.to_bits(), f32_bits(&sv.s), f32_bits(&sv.s_inv)));
    let source = level.source.as_ref().map(|s| f32_bits(s.data()));
    (stored_bits(&level.stored), scale, f32_bits(level.dinv.data()), source)
}

/// Every smoothed level of `a`'s chain under `cfg`, built by `build_level`
/// and by [`build_level_sweep_first`] in turn as `Mg::setup` builds them:
/// the same planes, scale vectors, `dinv`, FP32 source and `LevelInfo`, or
/// the same error. Returns the levels the diagonal sent straight to the plan.
fn assert_diagonal_first_matches_sweep_first(
    a: &SgDia<f64>,
    cfg: &MgConfig,
    what: &str,
) -> Vec<usize> {
    let chain = GalerkinChain::build(a, cfg).unwrap_or_else(|e| panic!("{what}: {e}"));
    let levels = chain.matrices();
    let mut skipped = vec![];
    for (i, ai) in levels.iter().enumerate().take(levels.len() - 1) {
        let what = format!("{what} level {i}");
        let p = cfg.storage.precision_for(i);
        let limit = p.finite_max();
        if cfg.scale == ScaleStrategy::SetupThenScale
            && ai.extract_diagonal().iter().any(|d| !d.is_finite() || d.abs() >= limit)
        {
            skipped.push(i);
        }
        let got = build_level::<f32>(ai, p, cfg, i);
        let want = build_level_sweep_first::<f32>(ai, p, cfg, i);
        match (got, want) {
            (Ok((gl, gi)), Ok((wl, wi))) => {
                assert!(level_bits(&gl) == level_bits(&wl), "{what}: level bits");
                assert_eq!(format!("{gi:?}"), format!("{wi:?}"), "{what}: LevelInfo");
            }
            (Err(g), Err(w)) => {
                assert_eq!(format!("{g:?}"), format!("{w:?}"), "{what}: error");
                return skipped;
            }
            (g, w) => panic!("{what}: {:?} vs {:?}", g.map(|_| ()), w.map(|_| ())),
        }
    }
    skipped
}

/// FP16 on level 0 and FP32 below: the static §4.3 switch at an interior
/// level, beside the all-FP16 `d16`.
fn d16_until_1() -> MgConfig {
    MgConfig { storage: StoragePolicy::Fp16Until { shift_levid: 1 }, ..MgConfig::d16() }
}

#[test]
fn the_diagonal_read_first_builds_every_level_as_the_sweep_first_order_did() {
    use fp16mg_problems::ProblemKind;

    // Multi-component kinds also at a size where their finest levels are
    // the ones the skipped sweeps cost most on: the item-11 table's 48³ in
    // an optimised build (CI's release job), the benchmark's 24³ in a debug
    // one, where 48³ costs a minute and a half.
    let large = if cfg!(debug_assertions) { 24 } else { 48 };
    for kind in ProblemKind::all() {
        let multi = kind.build(4).matrix.grid().components > 1;
        for n in if multi { [11, large] } else { [8, 11] } {
            let a = kind.build(n).matrix;
            let range =
                if a.abs_max().0 >= fp16mg_fp::F16::MAX_F64 { "scaled" } else { "in range" };
            for cfg in [MgConfig::d16(), d16_until_1()] {
                let what = format!("{} n={n} {:?} ({range})", kind.name(), cfg.storage);
                let skipped = assert_diagonal_first_matches_sweep_first(&a, &cfg, &what);
                // An operator out of FP16 range is so on its diagonal (Theorem
                // 4.1's `a_ij² ≤ a_ii a_jj` puts the largest entry there).
                assert_eq!(!skipped.is_empty(), range == "scaled", "{what}: skipped {skipped:?}");
            }
        }
    }

    // The diagonal in range, one off-diagonal entry not: the sweep is still
    // tried, abandoned, and the level ends scaled.
    let mut a = laplacian(Grid3::new(9, 8, 7), Pattern::p27(), 1.0);
    let last_tap = a.pattern().len() - 1;
    a.set(403, last_tap, -1.0e6);
    let skipped = assert_diagonal_first_matches_sweep_first(&a, &MgConfig::d16(), "off-diagonal");
    assert!(!skipped.contains(&0), "{skipped:?}");
    let mg = Mg::<f32>::setup(&a, &MgConfig::d16()).unwrap();
    assert!(mg.info.levels[0].scaled, "off-diagonal out of range: level 0 scaled");

    // A diagonal entry Theorem 4.1 cannot scale, out of range: straight to
    // the plan, which refuses it in either order — and the chain refuses
    // such a level 0 before either runs.
    let level = || laplacian(Grid3::new(9, 8, 7), Pattern::p27(), 1.0);
    let diagonal = level().pattern().taps().iter().position(|t| t.is_diagonal()).unwrap();
    for bad in [f64::NAN, -1.0e6] {
        let mut a = level();
        a.set(403, diagonal, bad);
        let want =
            format!("{:?}", SetupError::NonPositiveDiagonal { level: 0, unknown: 403, value: bad });
        for cfg in [MgConfig::d16(), d16_until_1()] {
            let what = format!("diagonal {bad} {:?}", cfg.storage);
            let got = build_level::<f32>(&a, Precision::F16, &cfg, 0);
            assert_eq!(format!("{:?}", got.map(|_| ())), format!("Err({want})"), "{what}");
            let was = build_level_sweep_first::<f32>(&a, Precision::F16, &cfg, 0);
            assert_eq!(format!("{:?}", was.map(|_| ())), format!("Err({want})"), "{what}");
            let refused = GalerkinChain::build(&a, &cfg).map(|_| ()).unwrap_err();
            assert_eq!(format!("{refused:?}"), want, "{what}");
        }
    }
}

// ---- The rule: no smoothed level has a diagonal that is not positive and
// finite. The chain ends at the first level that would, and is otherwise
// the chain the Galerkin loop built without the rule. ----

/// `coarse_chain` before the rule: the Galerkin loop down to the
/// configured coarsest size.
fn coarse_chain_without_the_rule(finest: &SgDia<f64>, config: &MgConfig) -> Vec<SgDia<f64>> {
    let mut chain: Vec<SgDia<f64>> = Vec::new();
    while chain.len() + 1 < config.max_levels.max(1) {
        let last = chain.last().unwrap_or(finest);
        if last.grid().is_coarsest(config.min_coarse_cells) {
            break;
        }
        let axes = select_axes(last, config.coarsening);
        if last.grid().coarsen_axes(axes) == *last.grid() {
            break;
        }
        chain.push(galerkin_rap_axes(last, axes));
    }
    chain
}

/// The entries of `a`'s diagonal that are ≤ 0 or not finite.
fn bad_diagonal_entries(a: &SgDia<f64>) -> usize {
    a.extract_diagonal().iter().filter(|&&d| !(d > 0.0 && d.is_finite())).count()
}

/// Where the rule acts on the chain of `a` under `cfg`: the levels the
/// loop builds without it, and its first level with a diagonal entry ≤ 0
/// or non-finite — `(level, such entries, rows)`. The rule changes the
/// chain only when that level is not the coarsest.
fn diagnose(a: &SgDia<f64>, cfg: &MgConfig) -> (usize, Option<(usize, usize, usize)>) {
    let chain = coarse_chain_without_the_rule(a, cfg);
    let first = std::iter::once(a).chain(&chain).enumerate().find_map(|(l, al)| {
        let bad = bad_diagonal_entries(al);
        (bad > 0).then(|| (l, bad, al.rows()))
    });
    (chain.len() + 1, first)
}

/// Every bit of an operator: its grid, its pattern and its values.
fn operator_bits(a: &SgDia<f64>) -> (Grid3, usize, Vec<u64>) {
    (*a.grid(), a.pattern().len(), f64_bits(a.data()))
}

/// `Mg::setup` of `a` under `cfg` smooths no level whose diagonal breaks
/// the rule, and its chain is the one built without the rule, cut after
/// the first level that breaks it. `repro` names the case.
fn assert_the_rule_only_truncates(a: &SgDia<f64>, cfg: &MgConfig, repro: &str) {
    let mg = Mg::<f32>::setup(a, cfg).unwrap_or_else(|e| panic!("{repro}: {e}"));
    let finest = a.to_layout(cfg.layout);
    let coarse = coarse_chain(&finest, cfg).unwrap();
    let chain: Vec<&SgDia<f64>> = std::iter::once(&finest).chain(&coarse).collect();
    assert_eq!(mg.num_levels(), chain.len(), "{repro}: levels");
    for (l, (info, al)) in mg.info.levels.iter().zip(&chain).enumerate() {
        let dims = (al.grid().nx, al.grid().ny, al.grid().nz);
        assert_eq!(info.dims, dims, "{repro}: level {l} dims");
    }
    for (l, al) in chain.iter().enumerate().take(chain.len() - 1) {
        assert_eq!(bad_diagonal_entries(al), 0, "{repro}: smoothed level {l}");
    }

    let without = coarse_chain_without_the_rule(&finest, cfg);
    assert!(coarse.len() <= without.len(), "{repro}: the rule grew the chain");
    for (l, (got, want)) in coarse.iter().zip(&without).enumerate() {
        assert!(operator_bits(got) == operator_bits(want), "{repro}: level {} bits", l + 1);
    }
    if coarse.len() < without.len() {
        let coarsest = chain.last().unwrap();
        assert!(bad_diagonal_entries(coarsest) > 0, "{repro}: the chain ended early");
    }
}

#[test]
fn the_rule_leaves_no_smoothed_diagonal_that_is_not_positive_and_only_truncates_the_chain() {
    use crate::config::Coarsening;
    use fp16mg_problems::ProblemKind;

    // Two cases where the rule acts (see `the_diagnosis_table_holds`),
    // then generated ones: kind × extents 9–40 × coarsening × storage.
    let semi = Coarsening::Semi { threshold: 0.5 };
    let oil = ProblemKind::Oil.build(33).matrix;
    assert_the_rule_only_truncates(&oil, &MgConfig::d16(), "oil n=33 Full d16");
    let oil4c = ProblemKind::Oil4C.build(20).matrix;
    let cfg = MgConfig { coarsening: semi, ..MgConfig::d64() };
    assert_the_rule_only_truncates(&oil4c, &cfg, "oil-4C n=20 Semi d64");

    check_n("the_rule_only_truncates_the_chain", 6, |rng| {
        let kind = ProblemKind::all()[rng.usize_range(0, 8)];
        let n = rng.usize_range(9, 41);
        let coarsening = if rng.chance(0.5) { Coarsening::Full } else { semi };
        let base = if rng.chance(0.5) { MgConfig::d16() } else { MgConfig::d64() };
        let cfg = MgConfig { coarsening, ..base };
        let repro = format!("replay: {} n={n} {coarsening:?} {:?}", kind.name(), cfg.storage);
        assert_the_rule_only_truncates(&kind.build(n).matrix, &cfg, &repro);
    });
}

/// The diagnosis table of EXPERIMENTS.md ("One rule for a diagonal that is
/// not positive"): per kind, size and coarsening, the levels the Galerkin
/// loop builds without the rule and its first level with a diagonal entry
/// ≤ 0 — the dense LU's already when it is the coarsest, made so by the
/// rule when it is smoothed. Debug builds check the sizes that build in
/// seconds there, optimised ones all (`cargo test --release -p fp16mg-core
/// the_diagnosis_table -- --nocapture` prints the table).
#[test]
fn the_diagnosis_table_holds() {
    use crate::config::Coarsening::{self, Full};
    use fp16mg_problems::ProblemKind::{self, *};

    const SEMI: Coarsening = Coarsening::Semi { threshold: 0.5 };
    type Row = (ProblemKind, usize, Coarsening, usize, Option<(usize, usize, usize)>);
    let fast: &[Row] = &[
        (Oil, 17, Full, 4, Some((3, 9, 27))),
        (Oil, 24, Full, 4, Some((3, 8, 27))),
        (Oil, 32, Full, 4, Some((3, 4, 64))),
        (Oil, 33, Full, 5, Some((3, 18, 125))),
        (Weather, 17, Full, 3, None),
        (Weather, 24, Full, 4, None),
        (Weather, 33, Full, 4, None),
        (Oil4C, 17, Full, 4, None),
        (Oil4C, 24, Full, 4, None),
        (Oil4C, 33, Full, 5, Some((4, 18, 108))),
        (Oil, 24, SEMI, 6, Some((4, 1, 72))),
        (Oil, 32, SEMI, 6, Some((4, 1, 128))),
        (Oil4C, 20, SEMI, 6, Some((4, 1, 800))),
        (Oil4C, 24, SEMI, 6, Some((4, 1, 288))),
    ];
    let slow: &[Row] = &[
        (Oil, 48, Full, 5, Some((3, 3, 216))),
        (Oil, 96, Full, 6, Some((3, 144, 1728))),
        (Weather, 48, Full, 5, Some((4, 2, 18))),
        (Weather, 64, Full, 5, Some((4, 2, 32))),
        (Weather, 80, Full, 6, Some((4, 1, 75))),
        (Weather, 96, Full, 6, Some((4, 1, 108))),
        (Oil4C, 32, Full, 4, Some((3, 1, 256))),
        (Oil4C, 48, Full, 5, Some((3, 1, 864))),
        (Oil4C, 64, Full, 5, Some((4, 16, 256))),
    ];
    let rows = if cfg!(debug_assertions) { fast.to_vec() } else { [fast, slow].concat() };
    println!("| problem | n | coarsening | levels without the rule | first level with a diagonal entry ≤ 0 (entries / rows) | its role |");
    println!("|---|---|---|---|---|---|");
    let mut got = vec![];
    for &(kind, n, coarsening, _, _) in &rows {
        let cfg = MgConfig { coarsening, ..MgConfig::d16() };
        let (levels, first) = diagnose(&kind.build(n).matrix, &cfg);
        let (at, role) = match first {
            Some((l, bad, rows)) if l + 1 < levels => {
                (format!("L{l} ({bad} / {rows})"), "smoothed")
            }
            Some((l, bad, rows)) => (format!("L{l} ({bad} / {rows})"), "LU"),
            None => ("none".into(), ""),
        };
        println!("| {} | {n} | {coarsening:?} | {levels} | {at} | {role} |", kind.name());
        got.push((kind, n, coarsening, levels, first));
    }
    assert_eq!(got, rows);
}
