//! The three in-process workloads (`stream27`, `weather-par`, `block3t`):
//! cold set-up, then a Krylov solve to `tol`, for the paper's headline
//! configuration and the plain FP64 baseline, interleaved.
//!
//! *Mix16* = `MgConfig::d16()` with `Mg::<f32>` (K64P32D16, setup-then-
//! scale); *Full64* = `MgConfig::d64()` with `Mg::<f64>`. The Krylov
//! method is always f64 and is the one `Problem::solver` names.

use std::time::Instant;

use fp16mg_core::{MatOp, Mg, MgConfig, MgInfo};
use fp16mg_fp::Scalar;
use fp16mg_krylov::{cg, gmres, LinOp, Preconditioner, SolveOptions, SolveResult};
use fp16mg_problems::{Problem, ProblemKind, SolverKind};
use fp16mg_sgdia::Par;

use crate::reference::Bracketed;
use crate::report::Outcome;
use crate::stats::{median, norm2, rel_diff, SplitMix64};
use crate::trace::Tracer;

/// Relative residual every solve must reach.
pub const TOL: f64 = 1e-9;
/// Mix16 and Full64 solutions may differ by this much, relatively: loose
/// because `weather` is ill-conditioned; the true residual is the sharp test.
const MAX_SOLUTION_DIFF: f64 = 1e-4;
/// A time-driven run stops adding repetitions here.
const MAX_REPS: usize = 64;

/// The linear system behind a workload. The child-process workloads have
/// one too: the system their child solves per step or per request, which
/// the traced run replicates in process to attribute the time.
pub struct Spec {
    pub kind: ProblemKind,
    pub n: usize,
    pub par: Par,
    /// Timed repetitions are never fewer than this.
    pub min_reps: usize,
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

pub fn spec(workload: &str, quick: bool) -> Option<Spec> {
    let threads = Par::Threads(nproc());
    let (kind, n, toy, par) = match workload {
        "stream27" => (ProblemKind::Laplace27, 72, 16, Par::Seq),
        "weather-par" => (ProblemKind::Weather, 64, 16, threads),
        "block3t" => (ProblemKind::Rhd3T, 24, 8, Par::Seq),
        "timestep" => {
            (ProblemKind::Weather, crate::timestep::SIZE, crate::timestep::QUICK_SIZE, Par::Seq)
        }
        "served" => {
            (ProblemKind::Laplace27, crate::served::SIZE, crate::served::QUICK_SIZE, Par::Seq)
        }
        _ => return None,
    };
    Some(if quick {
        Spec { kind, n: toy, par, min_reps: 2 }
    } else {
        Spec { kind, n, par, min_reps: 5 }
    })
}

pub fn solve_options() -> SolveOptions {
    SolveOptions { tol: TOL, max_iters: 500, record_history: false, ..SolveOptions::default() }
}

/// A problem with its right-hand side and kernel parallelism: what every
/// solve of a run shares.
pub struct System {
    pub problem: Problem,
    pub par: Par,
    pub b: Vec<f64>,
}

impl System {
    pub fn new(spec: &Spec, problem: Problem, seed: u64) -> Self {
        let b = manufactured_rhs(&problem, seed);
        System { problem, par: spec.par, b }
    }

    /// `‖b − A x‖₂ / ‖b‖₂` in f64.
    pub fn true_rel_residual(&self, x: &[f64]) -> f64 {
        let mut ax = vec![0.0; x.len()];
        MatOp::new(&self.problem.matrix, Par::Seq).apply(x, &mut ax);
        let r: Vec<f64> = self.b.iter().zip(&ax).map(|(bi, ai)| bi - ai).collect();
        norm2(&r) / norm2(&self.b)
    }
}

/// The manufactured system: `x*` uniform in `[-1, 1]ⁿ` from SplitMix64,
/// `b = A·x*` in f64 through `core::MatOp`, so any seed can be re-checked.
fn manufactured_rhs(problem: &Problem, seed: u64) -> Vec<f64> {
    let mut rng = SplitMix64(seed);
    let x_star: Vec<f64> = (0..problem.matrix.rows()).map(|_| rng.next_signed_unit()).collect();
    let mut b = vec![0.0; x_star.len()];
    MatOp::new(&problem.matrix, Par::Seq).apply(&x_star, &mut b);
    b
}

/// One of the two configurations: how its hierarchy is configured and
/// what the spans of its set-up and solve are called. `Mix16` goes with
/// `Mg::<f32>`, `Full64` with `Mg::<f64>`.
pub struct Config {
    pub label: &'static str,
    pub mg: fn() -> MgConfig,
    pub setup: &'static str,
    pub solve: &'static str,
    pub vcycle: &'static str,
    pub matop: &'static str,
}

pub const MIX16: Config = Config {
    label: "Mix16",
    mg: MgConfig::d16,
    setup: "core.setup",
    solve: "krylov.solve",
    vcycle: "core.vcycle",
    matop: "krylov.matop",
};
pub const FULL64: Config = Config {
    label: "Full64",
    mg: MgConfig::d64,
    setup: "core.setup_full64",
    solve: "krylov.solve_full64",
    vcycle: "core.vcycle_full64",
    matop: "krylov.matop_full64",
};

/// Times `Preconditioner::apply` from outside, one span per call.
struct TracedPrecond<'a, M> {
    inner: M,
    tracer: &'a Tracer,
    name: &'static str,
}

impl<K: Scalar, M: Preconditioner<K>> Preconditioner<K> for TracedPrecond<'_, M> {
    fn apply(&mut self, r: &[K], z: &mut [K]) {
        let TracedPrecond { inner, tracer, name } = self;
        tracer.span(name, || inner.apply(r, z));
    }

    fn on_health_anomaly(&mut self) -> usize {
        self.inner.on_health_anomaly()
    }
}

/// Times `LinOp::apply` from outside, one span per call.
struct TracedOp<'a, A> {
    inner: A,
    tracer: &'a Tracer,
    name: &'static str,
}

impl<K: Scalar, A: LinOp<K>> LinOp<K> for TracedOp<'_, A> {
    fn rows(&self) -> usize {
        self.inner.rows()
    }

    fn apply(&self, x: &[K], y: &mut [K]) {
        self.tracer.span(self.name, || self.inner.apply(x, y));
    }
}

pub struct Solved {
    pub setup_s: f64,
    pub solve_s: f64,
    pub result: SolveResult,
    pub x: Vec<f64>,
    pub info: MgInfo,
    pub workspace_bytes: usize,
    /// Index of the solve span when the run was traced.
    pub solve_span: Option<usize>,
    /// Set-up and solve seconds ÷ the reference passes around each, when
    /// the run was bracketed.
    pub rel: Option<(f64, f64)>,
}

fn krylov(
    solver: SolverKind,
    a: &impl LinOp<f64>,
    m: &mut impl Preconditioner<f64>,
    b: &[f64],
    x: &mut [f64],
) -> SolveResult {
    let opts = solve_options();
    match solver {
        SolverKind::Cg => cg(a, m, b, x, &opts),
        SolverKind::Gmres => gmres(a, m, b, x, &opts),
    }
}

/// One cold set-up and one solve of `sys` under `cfg`, counted and checked
/// as one operation: it must converge, its f64 true residual must be
/// within `10·tol`, and — given the Full64 solution `x64` of the same
/// system — it must agree with it.
///
/// With a tracer the preconditioner and the operator are wrapped so that
/// every call leaves a span; without one the library types are handed to
/// the solver as they are. With a bracket, set-up and solve are each
/// followed by a reference pass.
pub fn op<Pr: Scalar>(
    sys: &System,
    cfg: &Config,
    x64: Option<&[f64]>,
    tracer: Option<&Tracer>,
    mut bracket: Option<&mut Bracketed>,
    out: &mut Outcome,
) -> Option<Solved> {
    out.attempted += 1;
    let a = &sys.problem.matrix;
    let mut mg_cfg = (cfg.mg)();
    mg_cfg.par = sys.par;
    let op = MatOp::new(a, sys.par);
    let mut x = vec![0.0f64; sys.b.len()];

    let t0 = Instant::now();
    let mg = match tracer {
        Some(t) => t.span(cfg.setup, || Mg::<Pr>::setup(a, &mg_cfg)),
        None => Mg::<Pr>::setup(a, &mg_cfg),
    };
    let setup_s = t0.elapsed().as_secs_f64();
    let mg = match mg {
        Ok(mg) => mg,
        Err(e) => {
            out.fail(format!("{} set-up: {e}", cfg.label));
            return None;
        }
    };
    let setup_rel = bracket.as_deref_mut().map(|r| setup_s / r.close());

    let solver = sys.problem.solver;
    let (solve_s, result, mg, solve_span) = if let Some(t) = tracer {
        let mut m = TracedPrecond { inner: mg, tracer: t, name: cfg.vcycle };
        let a = TracedOp { inner: op, tracer: t, name: cfg.matop };
        let t1 = Instant::now();
        let (result, id) = t.span_id(cfg.solve, || krylov(solver, &a, &mut m, &sys.b, &mut x));
        (t1.elapsed().as_secs_f64(), result, m.inner, Some(id))
    } else {
        let mut mg = mg;
        let t1 = Instant::now();
        let result = krylov(solver, &op, &mut mg, &sys.b, &mut x);
        (t1.elapsed().as_secs_f64(), result, mg, None)
    };
    let solve_rel = bracket.map(|r| solve_s / r.close());

    let resid = sys.true_rel_residual(&x);
    if !result.converged() {
        out.fail(format!(
            "{} did not converge: {:?} after {} iterations",
            cfg.label, result.reason, result.iters
        ));
    } else if resid.is_nan() || resid > 10.0 * TOL {
        out.fail(format!("{} true residual {resid:e} > {:e}", cfg.label, 10.0 * TOL));
    } else if let Some(diff) = x64.map(|x64| rel_diff(&x, x64)) {
        if diff.is_nan() || diff > MAX_SOLUTION_DIFF {
            out.fail(format!(
                "{} differs from the Full64 solution by {diff:e} > {MAX_SOLUTION_DIFF:e}",
                cfg.label
            ));
        }
    }
    Some(Solved {
        setup_s,
        solve_s,
        rel: setup_rel.zip(solve_rel),
        result,
        x,
        info: mg.info().clone(),
        workspace_bytes: mg.workspace_bytes(),
        solve_span,
    })
}

/// Median of `f` over `items`.
pub fn med<T>(items: &[T], f: impl Fn(&T) -> f64) -> f64 {
    median(&items.iter().map(f).collect::<Vec<f64>>())
}

/// The samples behind the medians, for the eye: the run-to-run noise of
/// this host is only believable when seen.
pub fn note_samples(
    out: &mut Outcome,
    solve_s: &[f64],
    setup_s: &[f64],
    solve_rel: &[f64],
    setup_rel: &[f64],
) {
    for (name, values) in [
        ("solve_s", solve_s),
        ("setup_s", setup_s),
        ("solve_rel", solve_rel),
        ("setup_rel", setup_rel),
    ] {
        let list: Vec<String> = values.iter().map(|v| format!("{v:.4}")).collect();
        out.note(format!("{name} samples: {}", list.join(" ")));
    }
}

/// Marks the whole run invalid when a quantity that must repeat exactly
/// across the repetitions of one run does not: such a run is not averaged.
pub fn require_identical(what: &str, values: &[usize], out: &mut Outcome) {
    if values.windows(2).any(|w| w[0] != w[1]) {
        out.failed = out.attempted;
        out.note(format!("FAILED: run invalid, {what} differs between repetitions: {values:?}"));
    }
}

pub fn describe(spec: &Spec, problem: &Problem) -> String {
    let a = &problem.matrix;
    let g = a.grid();
    format!(
        "{} n={} grid {}x{}x{} x{} components, {} unknowns, {} nonzeros, {:?}, {:?}; finest matrix {:.1} MB f64 / {:.1} MB f16",
        problem.name,
        spec.n,
        g.nx,
        g.ny,
        g.nz,
        g.components,
        a.rows(),
        a.nnz(),
        problem.solver,
        spec.par,
        a.value_bytes() as f64 / 1e6,
        a.value_bytes() as f64 / 4e6,
    )
}

/// The untraced end-to-end run of an in-process workload. An operation is
/// one cold set-up plus solve.
///
/// The first pair — Full64, then Mix16 — is the warm-up (it pages the
/// problem in and fills the kernels' scratch pools) and supplies the
/// Full64 reference solution; it is checked but not timed. The timed
/// repetitions are Mix16 only: the Mix16 : Full64 comparison belongs to
/// the traced run, which interleaves the two.
pub fn run(spec: &Spec, seed: u64, seconds: f64) -> Outcome {
    let mut out = Outcome::default();
    let sys = System::new(spec, spec.kind.build(spec.n), seed);
    out.note(describe(spec, &sys.problem));

    let Some(full64) = op::<f64>(&sys, &FULL64, None, None, None, &mut out) else { return out };
    let x64 = Some(full64.x.as_slice());
    if op::<f32>(&sys, &MIX16, x64, None, None, &mut out).is_none() {
        return out;
    }
    let mut refs = Bracketed::new();

    let mut reps = Vec::new();
    let t0 = Instant::now();
    while reps.len() < spec.min_reps
        || (t0.elapsed().as_secs_f64() < seconds && reps.len() < MAX_REPS)
    {
        match op::<f32>(&sys, &MIX16, x64, None, Some(&mut refs), &mut out) {
            Some(s) => reps.push(s),
            None => return out,
        }
    }

    let setup: Vec<f64> = reps.iter().map(|r| r.setup_s).collect();
    let solve: Vec<f64> = reps.iter().map(|r| r.solve_s).collect();
    let (setup_rel, solve_rel): (Vec<f64>, Vec<f64>) = reps.iter().filter_map(|r| r.rel).unzip();
    let busy_rel: f64 = setup_rel.iter().sum::<f64>() + solve_rel.iter().sum::<f64>();
    let n = reps.len();
    out.push("setup_s", median(&setup), n);
    out.push("setup_rel", median(&setup_rel), n);
    out.push("solve_rel", median(&solve_rel), n);
    out.push("throughput_rel", n as f64 / busy_rel, n);
    out.note(format!(
        "in seconds: set-up {:.6}, solve {:.6} (medians of {n}); reference pass {:.6}",
        median(&setup),
        median(&solve),
        refs.reference_s()
    ));
    note_samples(&mut out, &solve, &setup, &solve_rel, &setup_rel);

    let iters: Vec<usize> = reps.iter().map(|r| r.result.iters).collect();
    let bytes: Vec<usize> = reps.iter().map(|r| r.info.matrix_bytes).collect();
    require_identical("Mix16 iters", &iters, &mut out);
    require_identical("matrix_bytes", &bytes, &mut out);
    out.note(format!(
        "not gated: iters {} (Full64 {}), matrix_bytes {} (Full64 {}); Full64 warm-up pair: setup {:.6} s, solve {:.6} s",
        iters[0],
        full64.result.iters,
        bytes[0],
        full64.info.matrix_bytes,
        full64.setup_s,
        full64.solve_s,
    ));
    out
}
