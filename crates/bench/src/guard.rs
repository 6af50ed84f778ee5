//! The detect → promote → converge experiment behind `repro guard`.
//!
//! A guarded solve wraps the Krylov method in the self-healing loop: run,
//! and if the solver reports a *precision-attributable* failure (non-finite
//! breakdown or a stagnation plateau above the FP16 roundoff floor) while
//! the hierarchy still has promotion budget, promote the suspect
//! reduced-precision level to FP32 and resume from the current iterate.
//! Non-finite V-cycle outputs never even reach the solver: the hierarchy,
//! insured by the problem's operator (`Mg::insured`), detects them
//! internally, promotes, and re-applies.

use std::time::Instant;

use fp16mg_core::{MatOp, Mg, PromotionEvent};
use fp16mg_fp::{Precision, Scalar};
use fp16mg_krylov::{cg, gmres, SolveOptions, SolveResult};
use fp16mg_problems::{Problem, SolverKind};
use fp16mg_sgdia::kernels::Par;

/// Outcome of one guarded solve.
#[derive(Clone, Debug)]
pub struct GuardOutcome {
    /// Final solver outcome (after any restarts).
    pub result: SolveResult,
    /// Every storage-precision promotion the hierarchy performed, both
    /// those triggered inside `apply_pr` and those requested by the
    /// restart loop.
    pub promotions: Vec<PromotionEvent>,
    /// Outer restarts performed after promote-on-stagnation.
    pub restarts: usize,
    /// Wall time of the whole guarded solve.
    pub seconds: f64,
}

impl GuardOutcome {
    /// True when the solve finished at the requested tolerance.
    pub fn converged(&self) -> bool {
        self.result.converged()
    }
}

/// Runs the problem's designated Krylov solver with the self-healing
/// restart loop around it.
pub fn solve_guarded<Pr: Scalar>(
    problem: &Problem,
    mg: &mut Mg<Pr>,
    opts: &SolveOptions,
    par: Par,
) -> GuardOutcome {
    let op = MatOp::new(&problem.matrix, par);
    let b = problem.rhs();
    let mut x = vec![0.0f64; problem.matrix.rows()];
    let t0 = Instant::now();
    let mut restarts = 0usize;
    loop {
        // The problem's operator insures the hierarchy's level 0.
        let mut m = mg.insured(&problem.matrix);
        let result = match problem.solver {
            SolverKind::Cg => cg(&op, &mut m, &b, &mut x, opts),
            SolverKind::Gmres => gmres(&op, &mut m, &b, &mut x, opts),
        };
        let done = result.converged() || !result.precision_suspect() || !m.can_promote();
        if done || m.promote_for_stagnation().is_none() {
            return GuardOutcome {
                result,
                promotions: mg.promotions().to_vec(),
                restarts,
                seconds: t0.elapsed().as_secs_f64(),
            };
        }
        // A breakdown can leave a poisoned iterate; restart clean then.
        if !x.iter().all(|v| v.is_finite()) {
            x.fill(0.0);
        }
        restarts += 1;
    }
}

/// Index of the finest level stored in a 16-bit format, if any.
pub fn finest_narrow_level<Pr: Scalar>(mg: &Mg<Pr>) -> Option<usize> {
    mg.info().levels.iter().position(|l| matches!(l.precision, Precision::F16 | Precision::BF16))
}
