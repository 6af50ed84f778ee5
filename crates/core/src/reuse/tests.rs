//! The engine against the sequence it replaced — the block that stood
//! in the hierarchy cache, the time-stepper and three examples, spelled
//! out once here as the oracle — its one failure rule, and the diagonal
//! carry a rescale takes into the coarse tail.

use std::borrow::Cow;

use fp16mg_grid::Grid3;
use fp16mg_problems::{Evolution, ProblemKind};
use fp16mg_sgdia::Layout;
use fp16mg_stencil::Pattern;

use super::*;
use crate::config::Coarsening;
use crate::hierarchy::tests::assert_same_hierarchy;
use crate::tests::laplacian;

/// What every caller kept before `Retained`: a chain and, beside it, the
/// audit of its finest operator.
type Kept = Option<(GalerkinChain, RangeAudit)>;

/// The two shifts of a drift as bit patterns (zeros when nothing was
/// retained to drift from).
fn shift_bits(d: Option<OperatorDrift>) -> [u64; 2] {
    d.map_or([0; 2], |d| [d.range_shift.to_bits(), d.floor_shift.to_bits()])
}

/// audit → drift → rescale (`swap_finest`, new baseline,
/// `setup_from_chain`) / rebuild (`GalerkinChain::build`).
fn oracle(kept: &mut Kept, a: &SgDia<f64>, cfg: &MgConfig) -> (Mg<f32>, &'static str, [u64; 2]) {
    let now = audit::audit(a, Precision::F16);
    let d = kept.as_ref().map(|(_, baseline)| audit::drift(baseline, &now));
    let magnitude = match d {
        Some(d) if !d.structural() => d.magnitude(),
        _ => f64::INFINITY,
    };
    let label = match kept {
        Some((chain, baseline)) if magnitude <= RESCALE_MAX => {
            chain.swap_finest(a, cfg).unwrap();
            *baseline = now;
            "rescale"
        }
        _ => {
            *kept = Some((GalerkinChain::build(a, cfg).unwrap(), now));
            "rebuild"
        }
    };
    let chain = &kept.as_ref().expect("every branch leaves a chain").0;
    (Mg::setup_from_chain(chain, cfg).unwrap(), label, shift_bits(d))
}

#[test]
fn serve_is_the_sequence_it_replaces() {
    let cfg = MgConfig::d16();
    for kind in [ProblemKind::Oil, ProblemKind::Rhd, ProblemKind::Weather] {
        let evo = Evolution::new(kind, 6);
        let (mut slot, mut kept) = (None, None);
        let mut seen = Vec::new();
        for step in 0..16 {
            let what = format!("{} step {step}", kind.name());
            let a = evo.matrix_at(step);
            let (mg, reuse, d) = serve::<f32>(&mut slot, &a, &cfg);
            let (want, label, bits) = oracle(&mut kept, &a, &cfg);
            assert_eq!(reuse.label(), label, "{what}");
            assert_eq!(shift_bits(d), bits, "{what}: drift bits");
            assert_same_hierarchy(&mg.unwrap(), &want, &what);
            seen.push(reuse);
        }
        for reuse in [Reuse::Rescale, Reuse::Rebuild] {
            assert!(seen.contains(&reuse), "{}: no {reuse:?} in {seen:?}", kind.name());
        }
    }
}

/// An operator in the rescale band whose finest level cannot be smoothed
/// (a zero on the diagonal, refused at the swap; an entry zeroed elsewhere
/// in the baseline keeps the nonzero count, so the drift is not structural).
#[test]
fn a_failed_rescale_empties_the_slot_and_the_next_serve_rebuilds() {
    let cfg = MgConfig::d16();
    let mut a = laplacian(Grid3::cube(8), Pattern::p7(), 1.0);
    let mut drifted = laplacian(Grid3::cube(8), Pattern::p7(), 2.0);
    let diagonal = a.pattern().taps().iter().position(|t| t.is_diagonal()).unwrap();
    let cell = a.grid().cells() / 2;
    a.set(cell, (diagonal + 1) % a.pattern().len(), 0.0);
    drifted.set(cell, diagonal, 0.0);

    let mut slot = None;
    let (mg, reuse, d) = serve::<f32>(&mut slot, &a, &cfg);
    assert!(mg.is_ok() && reuse == Reuse::Rebuild && d.is_none() && slot.is_some());

    let (mg, reuse, d) = serve::<f32>(&mut slot, &drifted, &cfg);
    let d = d.expect("a retained baseline to drift from");
    assert_eq!((reuse, d.structural(), d.magnitude()), (Reuse::Rescale, false, 1.0));
    let refused = SetupError::NonPositiveDiagonal { level: 0, unknown: cell, value: 0.0 };
    assert_eq!(mg.map(|_| ()).unwrap_err(), refused);
    assert!(slot.is_none(), "a half-adopted chain must not be measured against");

    let (mg, reuse, d) = serve::<f32>(&mut slot, &a, &cfg);
    assert!(mg.is_ok() && reuse == Reuse::Rebuild && d.is_none() && slot.is_some());
}

/// `a` with every entry multiplied by `m`.
fn times(a: &SgDia<f64>, m: f64) -> SgDia<f64> {
    let mut scaled = a.clone();
    scaled.data_mut().iter_mut().for_each(|v| *v *= m);
    scaled
}

/// Largest `|x − y| / (ε |y|)` over the entries of two same-shape matrices.
fn max_ulps(x: &SgDia<f64>, y: &SgDia<f64>) -> f64 {
    assert_eq!((x.grid(), x.pattern().len()), (y.grid(), y.pattern().len()));
    let ulps = |(&x, &y): (&f64, &f64)| {
        if x == y {
            0.0
        } else {
            (x - y).abs() / (f64::EPSILON * y.abs())
        }
    };
    x.data().iter().zip(y.data()).map(ulps).fold(0.0, f64::max)
}

/// A uniform drift `m·A` is carried exactly: every coarse operator the
/// adopted chain assembles is the Galerkin operator a new chain for `m·A`
/// computes, to the rounding of the logarithms the weights go through
/// (an absolute error of a few ulps of `|log a_ii|`, up to 18 on
/// weather: 9 to 23 ulps of the entries here) — on a scalar problem, a
/// wide-range one, a three-component one, under semicoarsening and in AOS
/// layout.
#[test]
fn a_uniform_drift_carries_the_tail_to_the_galerkin_operators_of_the_drifted_matrix() {
    let semi = MgConfig { coarsening: Coarsening::Semi { threshold: 0.5 }, ..MgConfig::d16() };
    let aos = MgConfig { layout: Layout::Aos, ..MgConfig::d16() };
    for (kind, cfg) in [
        (ProblemKind::Laplace27, MgConfig::d16()),
        (ProblemKind::Weather, MgConfig::d16()),
        (ProblemKind::Rhd3T, MgConfig::d16()),
        (ProblemKind::Weather, semi),
        (ProblemKind::Laplace27, aos),
    ] {
        let a = kind.build(12).matrix;
        // A power of two, so `galerkin_rap(m·A) = m·galerkin_rap(A)` bit for
        // bit and the difference is the carry's own rounding.
        let ma = times(&a, 4.0);
        let mut chain = GalerkinChain::build(&a, &cfg).unwrap();
        chain.swap_finest(&ma, &cfg).unwrap();
        let fresh = GalerkinChain::build(&ma, &cfg).unwrap();
        let carried = chain.operators();
        assert_eq!(carried.len(), fresh.len(), "{}", kind.name());
        assert!(carried.len() > 2, "{}: a coarse tail to carry", kind.name());
        for (l, (got, want)) in carried.iter().zip(fresh.matrices()).enumerate().skip(1) {
            assert!(matches!(got, Cow::Owned(_)), "{} level {l}: carried", kind.name());
            let ulps = max_ulps(got, want);
            assert!(ulps <= 32.0, "{} {:?} level {l}: {ulps} ulps", kind.name(), cfg.layout);
        }
    }
}

/// The carry depends on the build operator and the current finest one
/// only: two adopts assemble, bit for bit, what the second alone does.
#[test]
fn two_adopts_assemble_what_the_second_alone_does() {
    let cfg = MgConfig::d16();
    for kind in [ProblemKind::Rhd, ProblemKind::Rhd3T, ProblemKind::Oil] {
        let evo = Evolution::new(kind, 8);
        let (a0, a1, a2) = (evo.matrix_at(0), evo.matrix_at(1), evo.matrix_at(2));
        let mut twice = GalerkinChain::build(&a0, &cfg).unwrap();
        let mut once = twice.clone();
        twice.swap_finest(&a1, &cfg).unwrap();
        twice.swap_finest(&a2, &cfg).unwrap();
        once.swap_finest(&a2, &cfg).unwrap();
        for (l, (x, y)) in twice.operators().iter().zip(once.operators().iter()).enumerate() {
            assert!(matches!(x, Cow::Owned(_)) == (l > 0), "{} level {l}", kind.name());
            assert!(x.data().iter().map(|v| v.to_bits()).eq(y.data().iter().map(|v| v.to_bits())));
        }
        let (x, y) = (Mg::setup_from_chain(&twice, &cfg), Mg::setup_from_chain(&once, &cfg));
        assert_same_hierarchy(&x.unwrap(), &y.unwrap(), kind.name());
    }
}

/// A finest operator with a zero or NaN diagonal entry breaks the rule a
/// smoothed level keeps: the swap refuses it and the chain — finest
/// operator, carried tail — stays as the adopt before it left it.
#[test]
fn a_zero_or_nan_finest_diagonal_is_refused_at_the_swap_leaving_the_chain() {
    let cfg = MgConfig::d16();
    let a = ProblemKind::Weather.build(12).matrix;
    let diagonal = a.pattern().taps().iter().position(|t| t.is_diagonal()).unwrap();
    let cell = a.grid().cells() / 2;
    let bits = |chain: &GalerkinChain| -> Vec<Vec<u64>> {
        let ops = chain.operators();
        ops.iter().map(|op| op.data().iter().map(|v| v.to_bits()).collect()).collect()
    };
    for bad in [0.0, f64::NAN] {
        let mut chain = GalerkinChain::build(&a, &cfg).unwrap();
        chain.swap_finest(&times(&a, 3.0), &cfg).unwrap();
        assert!(chain.operators()[1..].iter().all(|op| matches!(op, Cow::Owned(_))));
        let before = bits(&chain);
        let mut drifted = times(&a, 3.0);
        drifted.set(cell, diagonal, bad);
        let refused = chain.swap_finest(&drifted, &cfg).unwrap_err();
        let want = SetupError::NonPositiveDiagonal { level: 0, unknown: cell, value: bad };
        assert_eq!(format!("{refused:?}"), format!("{want:?}"), "ratio {bad}");
        assert!(bits(&chain) == before, "ratio {bad}: the refused swap moved the chain");
    }
}

/// A chain that never adopted assembles from its matrices as built —
/// the hierarchy `Mg::setup` builds, bit for bit — and the carry's
/// vectors are counted in the chain's bytes from the start, so an adopt
/// does not move them.
#[test]
fn a_never_adopted_chain_assembles_as_built_and_an_adopt_keeps_its_bytes() {
    let cfg = MgConfig::d16();
    for kind in ProblemKind::all() {
        let a = kind.build(10).matrix;
        let mut chain = GalerkinChain::build(&a, &cfg).unwrap();
        assert!(chain.operators().iter().all(|op| matches!(op, Cow::Borrowed(_))));
        let want = Mg::<f32>::setup(&a, &cfg).unwrap();
        assert_same_hierarchy(&Mg::setup_from_chain(&chain, &cfg).unwrap(), &want, kind.name());

        let coarse: usize = chain.matrices()[1..].iter().map(SgDia::rows).sum();
        let mats: usize = chain.matrices().iter().map(SgDia::value_bytes).sum();
        assert_eq!(chain.value_bytes(), mats + 2 * coarse * 8, "{}", kind.name());
        let bytes = chain.value_bytes();
        chain.swap_finest(&times(&a, 1.5), &cfg).unwrap();
        assert_eq!(chain.value_bytes(), bytes, "{}", kind.name());
    }
}
