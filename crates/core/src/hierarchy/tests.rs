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
//! made; and `AutoShift` read off each level's store against the two-pass
//! resolution it replaced.

use fp16mg_grid::Grid3;
use fp16mg_sgdia::Layout;
use fp16mg_stencil::Pattern;
use fp16mg_testkit::{check_n, Rng};

use super::*;
use crate::config::SmootherKind;
use crate::tests::laplacian;

/// The cycle before the recursion knew its iterate was zero.
fn reference_cycle<Pr: Scalar>(mg: &mut Mg<Pr>, i: usize, cycle: Cycle) {
    let (smoother, nu1, nu2) = (mg.config.smoother, mg.config.nu1, mg.config.nu2);
    let (gf, last) = (mg.levels[i].grid, i + 1 == mg.levels.len());
    {
        let mut b = mg.ws.level(i);
        mg.levels[i].scale_rhs(&mut b);
        mg.levels[i].smooth(smoother, nu1, false, false, &mut b);
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
        let second = match cycle {
            Cycle::V => None,
            Cycle::W => Some(Cycle::W),
            Cycle::F => Some(Cycle::V),
        };
        reference_cycle(mg, i + 1, cycle);
        if let Some(second) = second {
            reference_cycle(mg, i + 1, second);
        }
        let (fine, coarse) = mg.ws.level_pair(i, i + 1);
        prolong_add(&gf, &gc, coarse.u, fine.u);
    }
    let mut b = mg.ws.level(i);
    mg.levels[i].smooth(smoother, nu2, true, false, &mut b);
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
    reference_cycle(mg, 0, mg.config.cycle);
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

const CYCLES: [Cycle; 3] = [Cycle::V, Cycle::W, Cycle::F];

#[test]
fn cycles_match_the_full_sweep_reference_exactly_in_wide_storage() {
    // Full64: D₁₆ = D_hp, so `−U u` *is* `f − A u` and the two cycles may
    // differ by rounding only — in particular the second W / F visit of a
    // level must have kept the first visit's iterate.
    let mut blocks = false;
    check_n("cycles_match_the_full_sweep_reference_exactly_in_wide_storage", 6, |rng| {
        // Scalar and three-component operators in turn.
        blocks = !blocks;
        let a = if blocks { block_operator(rng) } else { operator(rng) };
        let r: Vec<f64> = random_rhs(rng, a.rows());
        let mut v_out = Vec::new();
        for cycle in CYCLES {
            for (nu1, nu2) in [(1, 1), (2, 1), (0, 2)] {
                let cfg = MgConfig { cycle, nu1, nu2, min_coarse_cells: 8, ..MgConfig::d64() };
                let mut mg = Mg::<f64>::setup(&a, &cfg).unwrap();
                assert!(mg.levels.len() >= 2, "W and F need a level to revisit");
                let (got, want) = both_cycles(&mut mg, &r);
                let d = rel_diff(&got, &want);
                assert!(d <= 1e-12, "{cycle:?} V({nu1},{nu2}): {d:e}");
                if (nu1, nu2) == (1, 1) {
                    if cycle == Cycle::V {
                        v_out = got;
                    } else {
                        // The test can tell: a W or F cycle that restarted
                        // its second visit from zero would be a V-cycle.
                        let d = rel_diff(&got, &v_out);
                        assert!(d > 1e-6, "{cycle:?} is indistinguishable from V: {d:e}");
                    }
                }
            }
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
        for cycle in CYCLES {
            for (nu1, bound) in [(1, 2e-3), (2, 2e-5)] {
                let cfg = MgConfig { cycle, nu1, min_coarse_cells: 8, ..MgConfig::d16() };
                let mut mg = Mg::<f32>::setup(&a, &cfg).unwrap();
                let (got, want) = both_cycles(&mut mg, &r);
                let d = rel_diff(&got, &want);
                assert!(d <= bound, "{cycle:?} nu1={nu1}: {d:e} > {bound:e}");
            }
        }
    });
}

#[test]
fn every_smoother_takes_the_same_first_step_from_zero() {
    // The first pre-smoothing step with the zero-guess fact, on a poisoned
    // iterate, against the same step on a zero-filled one — Jacobi,
    // Chebyshev and ILU(0) start from r₀ = f, the Gauss–Seidel kinds sweep
    // the lower half only — on unscaled and scaled levels, scalar and
    // vector PDEs (where ILU(0) degrades to Gauss–Seidel).
    let kinds = [
        SmootherKind::Jacobi { weight: 0.8 },
        SmootherKind::GsSymmetric,
        SmootherKind::SymGs,
        SmootherKind::Ilu0,
        SmootherKind::Chebyshev { degree: 2 },
    ];
    check_n("every_smoother_takes_the_same_first_step_from_zero", 4, |rng| {
        let (scalar, blocks) = (operator(rng), block_operator(rng));
        for a in [&scalar, &blocks] {
            let f: Vec<f32> = random_rhs(rng, a.rows());
            for kind in kinds {
                for nu in [1, 2] {
                    let cfg = MgConfig { smoother: kind, min_coarse_cells: 8, ..MgConfig::d16() };
                    let mut mg = Mg::<f32>::setup(a, &cfg).unwrap();
                    let level = &mg.levels[0];
                    let mut b = mg.ws.level(0);
                    b.f.copy_from_slice(&f);
                    level.scale_rhs(&mut b);

                    b.u.fill(0.0);
                    assert!(!level.smooth(kind, nu, false, false, &mut b));
                    level.compute_residual(false, &mut b);
                    let (want_u, want_r) = (b.u.to_vec(), b.r.to_vec());

                    b.u.fill(f32::NAN);
                    b.t1.fill(f32::NAN);
                    let lower_solved = level.smooth(kind, nu, false, true, &mut b);
                    level.compute_residual(lower_solved, &mut b);
                    let gs = matches!(kind, SmootherKind::GsSymmetric)
                        || (kind == SmootherKind::Ilu0 && level.ilu.is_none());
                    assert_eq!(lower_solved, gs && nu == 1, "{kind:?} nu={nu}");

                    let what = format!("{kind:?} nu={nu} scaled={}", level.scale.is_some());
                    let d = rel_diff(b.u, &want_u);
                    assert!(d <= 1e-6, "u, {what}: {d:e}");
                    // −U u against f − A₁₆ u: the stored-diagonal bound.
                    let d = rel_diff(b.r, &want_r);
                    let bound = if lower_solved { 2e-3 } else { 1e-5 };
                    assert!(d <= bound, "r, {what}: {d:e}");
                }
            }
        }
    });
}

/// An ±∞ in a plane only the backward sweep and `−U u` read, and one in a
/// plane only the forward sweep from zero reads, each still poison the
/// cycle's output, and recovery still answers with a promotion.
#[cfg(feature = "fault-inject")]
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
                let events = mg.promotions();
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

/// How setup-then-scale scaled `ai` for storage at `prec` when the range
/// test was that pre-scan: `None` for a level stored as is.
fn scale_plan(
    ai: &SgDia<f64>,
    prec: Precision,
    config: &MgConfig,
) -> Result<Option<ScalePlan>, scaling::ScalingError> {
    let limit = prec.finite_max();
    if config.scale != ScaleStrategy::SetupThenScale || !out_of_range(ai, limit) {
        return Ok(None);
    }
    ScalePlan::decide(ai, config.g_choice, limit).map(Some)
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
/// smoother diagonals, promotion sources and repair parents to the bit,
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
        let parent = |l: &Level<f32>| l.parent.as_ref().map(|p| f64_bits(p.data()));
        assert!(parent(g) == parent(w), "{what}: FP64 repair parent");
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
            cfg.integrity.sentinels,
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
    use crate::{PromotionReason, RecoveryPolicy};
    use fp16mg_problems::ProblemKind;

    let recovery = RecoveryPolicy { max_promotions: usize::MAX, ..RecoveryPolicy::default() };
    let cfg = MgConfig { recovery, ..MgConfig::d16() };
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

/// A flipped bit in a *scaled* level: its retained parent is the scaled
/// FP64 operator, materialised for that purpose only, and re-truncating it
/// must give back the planes the fused scaled store wrote at set-up.
#[cfg(feature = "fault-inject")]
#[test]
fn a_scaled_level_is_repaired_bit_identically_from_its_retained_parent() {
    use crate::{IntegrityPolicy, RepairTrigger};

    check_n("a_scaled_level_is_repaired_bit_identically", 16, |rng| {
        let pattern = if rng.chance(0.5) { Pattern::p7() } else { Pattern::p27() };
        let a = laplacian(Grid3::new(9, 8, 7), pattern, 10f64.powf(rng.f64_range(5.0, 9.0)));
        let cfg = MgConfig { integrity: IntegrityPolicy::armed(0), ..MgConfig::d16() };
        let mut mg = Mg::<f32>::setup(&a, &cfg).unwrap();
        let level = rng.usize_range(0, mg.levels.len());
        assert!(mg.info.levels[level].scaled, "1e5 and beyond is out of FP16 range");
        let before = stored_bits(&mg.levels[level].stored);
        let tap = rng.usize_range(0, a.pattern().len());
        let bit = rng.usize_range(0, 16) as u32;
        if mg.stored_mut(level).unwrap().inject_bit_flip_tap(tap, bit).is_none() {
            return; // an all-zero plane of a coarse stencil
        }
        assert!(stored_bits(&mg.levels[level].stored) != before, "the flip landed");
        let events = mg.verify_and_repair(RepairTrigger::Requested);
        assert_eq!(events.len(), 1, "{events:?}");
        assert_eq!((events[0].level, events[0].taps.as_slice()), (level, &[tap][..]));
        assert!(
            stored_bits(&mg.levels[level].stored) == before,
            "level {level} tap {tap} bit {bit}"
        );
        assert!(mg.verify_integrity().is_empty());
    });
}

// ---- AutoShift: the switch read off each level's own store, against the
// resolution that audited the whole chain once more before storing it. ----

/// `StoragePolicy::AutoShift` as it was resolved before the store pass gave
/// its audit: every smoothed level planned and audited at FP16 (post-scaling)
/// up to the first whose audit saturates, meets a non-finite source or
/// underflows past `max_underflow` — or whose scaling is impossible, when
/// the audit is of the unscaled matrix. `usize::MAX` when none does.
fn resolve_auto_shift(
    chain: &[&SgDia<f64>],
    config: &MgConfig,
    max_underflow: f64,
) -> ShiftDecision {
    let mut per_level = Vec::new();
    let mut chosen = usize::MAX;
    for (i, ai) in chain.iter().enumerate().take(chain.len().saturating_sub(1)) {
        let prec = Precision::F16;
        let plan = scale_plan(ai, prec, config);
        let unscalable = plan.is_err();
        let s_inv = plan.as_ref().ok().and_then(Option::as_ref).map(ScalePlan::s_inv);
        let lv = audit::audit_scaled(ai, s_inv, prec);
        let bad = unscalable
            || lv.saturate > 0
            || lv.source_non_finite > 0
            || lv.underflow_loss_fraction() > max_underflow;
        per_level.push(lv);
        if bad {
            chosen = i;
            break;
        }
    }
    ShiftDecision { chosen, threshold: max_underflow, per_level }
}

/// `Mg::setup(a, cfg)` under AutoShift against the oracle: the two-pass
/// decision over the chain `Mg::setup` builds, then the hierarchy set up
/// with the switch it chose as a static `Fp16Until`. Returns the decision.
fn assert_auto_shift_matches_the_two_pass_oracle(
    a: &SgDia<f64>,
    cfg: &MgConfig,
    what: &str,
) -> ShiftDecision {
    let StoragePolicy::AutoShift { coarse, max_underflow } = cfg.storage else {
        panic!("{what}: not an AutoShift config");
    };
    let mut finest = a.to_layout(cfg.layout);
    if cfg.scale == ScaleStrategy::ScaleThenSetup {
        let fp16_max = fp16mg_fp::F16::MAX_F64;
        scaling::scale_symmetric::<f32>(&mut finest, cfg.g_choice, fp16_max).unwrap();
    }
    let coarse_mats = coarse_chain(&finest, cfg);
    let chain: Vec<&SgDia<f64>> = std::iter::once(&finest).chain(&coarse_mats).collect();
    let oracle = resolve_auto_shift(&chain, cfg, max_underflow);

    let fixed = StoragePolicy::Fp16Until { shift_levid: oracle.chosen, coarse };
    let mut want = Mg::<f32>::setup(a, &MgConfig { storage: fixed.clone(), ..cfg.clone() })
        .unwrap_or_else(|e| panic!("{what}: oracle set-up: {e}"));
    let got = Mg::<f32>::setup(a, cfg).unwrap_or_else(|e| panic!("{what}: {e}"));
    let decision = got.info.shift_decision.clone().expect("AutoShift records its decision");
    assert_eq!(decision.chosen, oracle.chosen, "{what}: chosen");
    assert_eq!(decision.threshold.to_bits(), oracle.threshold.to_bits(), "{what}: threshold");
    assert_eq!(decision.per_level, oracle.per_level, "{what}: per-level audits");
    assert_eq!(got.config.storage, fixed, "{what}: resolved policy");
    want.info.shift_decision = Some(oracle);
    assert_same_hierarchy(&got, &want, what);
    decision
}

#[test]
fn auto_shift_reads_the_store_pass_as_the_two_pass_resolution_did() {
    use fp16mg_problems::ProblemKind;
    use fp16mg_sgdia::audit::TruncationPolicy;

    for kind in ProblemKind::all() {
        for n in [8, 11] {
            let a = kind.build(n).matrix;
            let what = format!("{} n={n}", kind.name());
            assert_auto_shift_matches_the_two_pass_oracle(&a, &MgConfig::d16_auto(), &what);
        }
    }

    // Scale-then-setup with G near its clamp: Galerkin growth saturates a
    // coarse level, which Reject refuses at the store, Saturate clamps and
    // FlushToZero clamps and flushes. The switch lands there either way.
    let a = crate::tests::laplacian(Grid3::cube(32), Pattern::p7(), 1.0);
    for truncation in
        [TruncationPolicy::Reject, TruncationPolicy::Saturate, TruncationPolicy::FlushToZero]
    {
        let cfg = MgConfig {
            scale: ScaleStrategy::ScaleThenSetup,
            g_choice: GChoice::Fixed(3.2e4),
            truncation,
            ..MgConfig::d16_auto()
        };
        let d = assert_auto_shift_matches_the_two_pass_oracle(&a, &cfg, &format!("{truncation}"));
        assert!(d.chosen >= 1 && d.per_level[d.chosen].saturate > 0, "{truncation}: {d}");
    }

    // Two weakly coupled components (the `repro audit` demo): the switch is
    // at the interior level where scaling pushes the weak channel under.
    let a = crate::tests::weakly_coupled_components(32, 4.0e3);
    let d = assert_auto_shift_matches_the_two_pass_oracle(&a, &MgConfig::d16_auto(), "weak");
    assert_eq!((d.chosen, d.per_level.len()), (1, 2), "{d}");

    // A level that asks for scaling (an entry reaches FP16_MAX) but has a
    // negative diagonal entry cannot be scaled: the switch is there, and
    // its record is the FP16 audit of the unscaled operator — which alone
    // would have passed it (the entry rounds to FP16_MAX, nothing saturates).
    let mut a = crate::tests::laplacian(Grid3::cube(8), Pattern::p7(), 1.0);
    let diagonal = a.pattern().taps().iter().position(|t| t.is_diagonal()).unwrap();
    let cell = a.grid().cells() / 2;
    a.set(cell, diagonal, -6.05);
    a.set(cell, (diagonal + 1) % a.pattern().len(), -65510.0);
    let d = assert_auto_shift_matches_the_two_pass_oracle(&a, &MgConfig::d16_auto(), "unscalable");
    assert_eq!(d.chosen, 0, "{d}");
    assert_eq!(d.per_level, [audit::audit(&a, Precision::F16)]);
    assert!(!audit_rejects(&d.per_level[0], d.threshold), "{}", d.per_level[0]);
}
