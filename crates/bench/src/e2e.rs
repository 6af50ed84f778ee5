//! Timed end-to-end solves with the Fig. 8/9 breakdown.

use std::time::{Duration, Instant};

use fp16mg_core::{MatOp, Mg, MgConfig};
use fp16mg_fp::Scalar;
use fp16mg_krylov::{cg, gmres, SolveOptions, SolveResult, TimedPrecond};
use fp16mg_problems::{Problem, ProblemKind, SolverKind};

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
    /// levels' FP32 promotion sources are `MgInfo::insurance_bytes`.
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

/// Builds the problem, sets the hierarchy up with `cfg` (usually
/// `combo.mg_config()`, or a copy with one field changed), runs the
/// designated solver, and reports the breakdown. `combo` picks the
/// computation precision and labels the result; `cfg.par` also runs the
/// Krylov operator. Returns `Err` with the setup error message if the
/// hierarchy could not be built.
pub fn solve_e2e(
    kind: ProblemKind,
    n: usize,
    combo: Combo,
    cfg: MgConfig,
    opts: &SolveOptions,
) -> Result<E2eResult, String> {
    let problem = kind.build(n);
    if combo.p64() {
        run::<f64>(&problem, combo, &cfg, opts)
    } else {
        run::<f32>(&problem, combo, &cfg, opts)
    }
}

fn run<Pr: Scalar>(
    problem: &Problem,
    combo: Combo,
    cfg: &MgConfig,
    opts: &SolveOptions,
) -> Result<E2eResult, String> {
    let t0 = Instant::now();
    let mg = Mg::<Pr>::setup(&problem.matrix, cfg).map_err(|e| e.to_string())?;
    let setup = t0.elapsed();
    let matrix_bytes = mg.info().matrix_bytes;
    let workspace_bytes = mg.workspace_bytes();
    let complexities = (mg.info().grid_complexity, mg.info().operator_complexity);

    let mut timed = TimedPrecond::new(mg);
    let op = MatOp::new(&problem.matrix, cfg.par);
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

/// Full64 time ÷ Mix16 time, preconditioner and end to end, over the
/// problems where both runs converged: a run that stopped at its
/// iteration cap timed nothing comparable.
#[derive(Debug, Default)]
pub struct SpeedupMean {
    /// The `(pc, e2e)` speedups of the counted pairs.
    pub counted: Vec<(f64, f64)>,
    /// Problems left out, each with the run that failed (Full64 is judged
    /// first).
    pub excluded: Vec<(String, &'static str)>,
}

impl SpeedupMean {
    /// Adds one problem's pair (`Err`: that run's set-up failed); returns
    /// its speedups when it counts.
    pub fn add(
        &mut self,
        problem: &str,
        full: &Result<E2eResult, String>,
        mix: &Result<E2eResult, String>,
    ) -> Option<(f64, f64)> {
        let why = match (full, mix) {
            (Err(_), _) => "Full64 setup failed",
            (Ok(f), _) if !f.result.converged() => "Full64 did not converge",
            (_, Err(_)) => "Mix16 setup failed",
            (_, Ok(m)) if !m.result.converged() => "Mix16 did not converge",
            (Ok(f), Ok(m)) => {
                let ratio = |a: Duration, b: Duration| a.as_secs_f64() / b.as_secs_f64().max(1e-12);
                let speedups = (ratio(f.precond, m.precond), ratio(f.total(), m.total()));
                self.counted.push(speedups);
                return Some(speedups);
            }
        };
        self.excluded.push((problem.to_string(), why));
        None
    }

    /// Geometric means of the counted `(pc, e2e)` speedups.
    pub fn means(&self) -> (f64, f64) {
        let (pc, e2e): (Vec<f64>, Vec<f64>) = self.counted.iter().copied().unzip();
        (crate::table::geomean(&pc), crate::table::geomean(&e2e))
    }

    /// The problems where Mix16 failed while Full64 converged.
    pub fn mix_failures(&self) -> Vec<&str> {
        let mix = self.excluded.iter().filter(|(_, why)| why.starts_with("Mix16"));
        mix.map(|(problem, _)| problem.as_str()).collect()
    }
}

#[cfg(test)]
mod tests;
