//! Timed end-to-end solves with the Fig. 8/9 breakdown.

use std::time::{Duration, Instant};

use fp16mg_core::{MatOp, Mg};
use fp16mg_fp::Scalar;
use fp16mg_krylov::{cg, gmres, SolveOptions, SolveResult, TimedPrecond};
use fp16mg_problems::{Problem, ProblemKind, SolverKind};
use fp16mg_sgdia::kernels::Par;

use crate::Combo;

/// Outcome of one `(problem, combo)` end-to-end run.
#[derive(Clone, Debug)]
pub struct E2eResult {
    /// Paper problem name.
    pub problem: &'static str,
    /// Configuration.
    pub combo: Combo,
    /// Setup-phase wall time (Galerkin chain + scaling + truncation +
    /// smoother setup; the blue bars of Fig. 8).
    pub setup: Duration,
    /// Time inside the MG preconditioner during the solve (orange bars).
    pub precond: Duration,
    /// Everything else in the solve: SpMVs, orthogonalization, vector
    /// updates of the Krylov method (gray bars).
    pub other: Duration,
    /// Solve-phase wall time (`precond + other`).
    pub solve: Duration,
    /// Solver outcome, including the residual history for Fig. 6.
    pub result: SolveResult,
    /// Stored matrix value bytes across smoothed levels.
    pub matrix_bytes: usize,
    /// Bytes of the preallocated V-cycle workspace arena (carved once at
    /// setup, so this is also the solve-phase vector peak). With
    /// `matrix_bytes` it is not the hierarchy's whole resident set: the
    /// levels' FP32 promotion sources and FP64 repair parents are
    /// `MgInfo::insurance_bytes`.
    pub workspace_bytes: usize,
    /// Grid and operator complexities of the hierarchy.
    pub complexities: (f64, f64),
}

impl E2eResult {
    /// Total end-to-end time (setup + solve).
    pub fn total(&self) -> Duration {
        self.setup + self.solve
    }
}

/// Builds the problem, sets the hierarchy up, runs the designated solver,
/// and reports the breakdown. Returns `Err` with the setup error message
/// if the hierarchy could not be built.
pub fn solve_e2e(
    kind: ProblemKind,
    n: usize,
    combo: Combo,
    opts: &SolveOptions,
    par: Par,
) -> Result<E2eResult, String> {
    let problem = kind.build(n);
    if combo.p64() {
        run::<f64>(&problem, combo, opts, par)
    } else {
        run::<f32>(&problem, combo, opts, par)
    }
}

fn run<Pr: Scalar>(
    problem: &Problem,
    combo: Combo,
    opts: &SolveOptions,
    par: Par,
) -> Result<E2eResult, String> {
    let mut cfg = combo.mg_config();
    cfg.par = par;

    let t0 = Instant::now();
    let mg = Mg::<Pr>::setup(&problem.matrix, &cfg).map_err(|e| e.to_string())?;
    let setup = t0.elapsed();
    let matrix_bytes = mg.info().matrix_bytes;
    let workspace_bytes = mg.workspace_bytes();
    let complexities = (mg.info().grid_complexity, mg.info().operator_complexity);

    let mut timed = TimedPrecond::new(mg);
    let op = MatOp::new(&problem.matrix, par);
    let b = problem.rhs();
    let mut x = vec![0.0f64; problem.matrix.rows()];

    let t1 = Instant::now();
    let result = match problem.solver {
        SolverKind::Cg => cg(&op, &mut timed, &b, &mut x, opts),
        SolverKind::Gmres => gmres(&op, &mut timed, &b, &mut x, opts),
    };
    let solve = t1.elapsed();
    let precond = timed.elapsed().min(solve);

    Ok(E2eResult {
        problem: problem.name,
        combo,
        setup,
        precond,
        other: solve - precond,
        solve,
        result,
        matrix_bytes,
        workspace_bytes,
        complexities,
    })
}
