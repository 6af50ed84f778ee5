//! The engine against the sequence it replaced — the block that stood
//! in the hierarchy cache, the time-stepper and three examples, spelled
//! out once here as the oracle — and its one failure rule.

use fp16mg_grid::Grid3;
use fp16mg_problems::{Evolution, ProblemKind};
use fp16mg_stencil::Pattern;

use super::*;
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

/// audit → drift → keep (`setup_from_chain`) / rescale (`swap_finest`,
/// new baseline, `setup_from_chain`) / rebuild (`GalerkinChain::build`).
fn oracle(kept: &mut Kept, a: &SgDia<f64>, cfg: &MgConfig) -> (Mg<f32>, &'static str, [u64; 2]) {
    let now = audit::audit(a, Precision::F16);
    let d = kept.as_ref().map(|(_, baseline)| audit::drift(baseline, &now));
    let magnitude = match d {
        Some(d) if !d.structural() => d.magnitude(),
        _ => f64::INFINITY,
    };
    let label = match kept {
        Some(_) if magnitude <= KEEP_MAX => "keep",
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
        for reuse in [Reuse::Keep, Reuse::Rescale, Reuse::Rebuild] {
            assert!(seen.contains(&reuse), "{}: no {reuse:?} in {seen:?}", kind.name());
        }
    }
}

/// An operator in the rescale band whose finest level cannot be
/// assembled (a zero on the diagonal; an entry zeroed elsewhere in the
/// baseline keeps the nonzero count, so the drift is not structural).
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
    assert!(matches!(mg, Err(SetupError::SingularDiagonalBlock { level: 0, .. })));
    assert!(slot.is_none(), "a half-adopted chain must not be measured against");

    let (mg, reuse, d) = serve::<f32>(&mut slot, &a, &cfg);
    assert!(mg.is_ok() && reuse == Reuse::Rebuild && d.is_none() && slot.is_some());
}
