use fp16mg_krylov::StopReason;

use super::*;

type Run = Result<E2eResult, String>;

/// A synthetic row: `combo` on `problem`, stopped for `reason`, with
/// `precond` of its `solve` seconds in the preconditioner and no set-up.
fn row(combo: Combo, reason: StopReason, precond: f64, solve: f64) -> Run {
    let secs = Duration::from_secs_f64;
    Ok(E2eResult {
        problem: "synthetic",
        combo,
        setup: Duration::ZERO,
        precond: secs(precond),
        other: secs(solve - precond),
        solve: secs(solve),
        result: SolveResult {
            reason,
            iters: 10,
            final_rel_residual: 1e-9,
            history: vec![],
            breakdown: None,
            stagnation: None,
            interrupt: None,
            health: vec![],
        },
        matrix_bytes: 0,
        workspace_bytes: 0,
        complexities: (1.0, 1.0),
    })
}

fn full(precond: f64, solve: f64) -> Run {
    row(Combo::Full64, StopReason::Converged, precond, solve)
}

fn mix(precond: f64, solve: f64) -> Run {
    row(Combo::D16SetupScale, StopReason::Converged, precond, solve)
}

fn capped(combo: Combo) -> Run {
    row(combo, StopReason::MaxIters, 0.1, 0.1)
}

#[test]
fn the_mean_counts_converged_pairs_only() {
    let mut m = SpeedupMean::default();
    assert_eq!(m.add("a", &full(4.0, 8.0), &mix(2.0, 4.0)), Some((2.0, 2.0)));
    assert_eq!(m.add("b", &full(8.0, 8.0), &mix(1.0, 2.0)), Some((8.0, 4.0)));
    // A pair whose Full64 run failed is left out, and is no Mix16 fault.
    assert_eq!(m.add("c", &capped(Combo::Full64), &mix(1.0, 1.0)), None);
    assert_eq!(m.add("d", &Err("setup".into()), &mix(1.0, 1.0)), None);
    let (pc, e2e) = m.means();
    assert!((pc - 4.0).abs() < 1e-12, "{pc}");
    assert!((e2e - 8f64.sqrt()).abs() < 1e-12, "{e2e}");
    let excluded: Vec<&str> = m.excluded.iter().map(|(p, _)| p.as_str()).collect();
    assert_eq!(excluded, ["c", "d"]);
    assert!(m.mix_failures().is_empty());
}

#[test]
fn a_mix16_only_failure_is_flagged() {
    let mut m = SpeedupMean::default();
    assert_eq!(m.add("ok", &full(2.0, 2.0), &mix(1.0, 1.0)), Some((2.0, 2.0)));
    // A Mix16 run at its iteration cap is fast and wrong: not a speedup.
    assert_eq!(m.add("stall", &full(2.0, 2.0), &capped(Combo::D16SetupScale)), None);
    assert_eq!(m.add("setup", &full(2.0, 2.0), &Err("setup".into())), None);
    // Both failing is an exclusion, not a Mix16-only failure.
    assert_eq!(m.add("both", &capped(Combo::Full64), &capped(Combo::D16SetupScale)), None);
    assert_eq!(m.mix_failures(), ["stall", "setup"]);
    assert_eq!(m.excluded.len(), 3);
    assert_eq!(m.means(), (2.0, 2.0));
}
