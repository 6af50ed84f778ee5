//! Numerical-weather-prediction scenario: the paper's `weather` problem
//! advanced through forecast time steps.
//!
//! ```sh
//! cargo run --release --example weather_forecast
//! ```
//!
//! A GRAPES-style Helmholtz operator on a vertically stretched grid:
//! 3d19 stencil, strongly anisotropic, with coefficient magnitudes
//! *just past* the FP16 range ("near" distance in Table 3) — so every
//! hierarchy the forecast builds relies on the per-level scaling of
//! Theorem 4.1. The time dependence is the harshest of the presets:
//! the background state drifts smoothly, but every fifth step the
//! whole field jumps by ~24x (a regime change crossing several
//! binades) and back again. Each step goes through the reuse engine
//! (`mg::reuse::serve`), which audits the drifted operator against the
//! retained chain's baseline and keeps, rescales in place, or rebuilds
//! — the jump edges force rebuilds, the plateaus between them are
//! nearly free — and GMRES must converge to the FP64-grade tolerance
//! at every step.

use fp16mg::fp::F16;
use fp16mg::krylov::{gmres, SolveOptions};
use fp16mg::mg::{reuse, MatOp, Mg, MgConfig, Reuse};
use fp16mg::problems::{metrics, step_rhs, Evolution, ProblemKind};
use fp16mg::sgdia::kernels::Par;

const STEPS: u64 = 12;
const TOL: f64 = 1e-9;

fn main() {
    let evo = Evolution::new(ProblemKind::Weather, 20);
    let (out, dist) = metrics::fp16_distance(evo.base());
    let (absmax, _) = evo.base().abs_max();
    println!(
        "weather Helmholtz system: {} unknowns, |a|max = {:.3e} ({}x FP16_MAX, distance: \
         {dist}), out-of-range: {out}",
        evo.base().rows(),
        absmax,
        (absmax / F16::MAX_F64).ceil(),
    );
    println!("(drift preset: smooth background + ~24x field jump every 5 steps)");
    println!("\n{:>4}  {:>8}  {:>6}  {:>6}  {:>9}", "step", "decision", "drift", "#iter", "resid");

    let cfg = MgConfig::d16();
    let opts = SolveOptions { tol: TOL, max_iters: 400, restart: 30, ..Default::default() };
    let mut retained = None;
    let mut x = vec![0.0f64; evo.base().rows()];
    let (mut keeps, mut rescales, mut rebuilds) = (0u32, 0u32, 0u32);
    let mut final_resid = f64::NAN;

    for step in 0..STEPS {
        let problem = evo.problem_at(step);
        let a = &problem.matrix;
        let (mg, decision, drift) = reuse::serve(&mut retained, a, &cfg);
        let mut mg: Mg<f32> = mg.expect("setup");
        match decision {
            Reuse::Keep => keeps += 1,
            Reuse::Rescale => rescales += 1,
            Reuse::Rebuild => rebuilds += 1,
        }

        let b = step_rhs(&problem, if step == 0 { None } else { Some(&x) });
        let op = MatOp::new(a, Par::Seq);
        x.fill(0.0);
        let r = gmres(&op, &mut mg, &b, &mut x, &opts);
        assert!(r.converged(), "step {step} did not converge: {:?}", r.reason);
        final_resid = r.final_rel_residual;
        let shown = match drift {
            Some(d) if !d.structural() => format!("{:.3}", d.magnitude()),
            _ => "-".into(),
        };
        let label = decision.label();
        println!("{:>4}  {:>8}  {:>6}  {:>6}  {:>9.2e}", step, label, shown, r.iters, final_resid);
    }

    assert!(final_resid <= TOL, "final residual {final_resid:.2e} above tolerance");
    println!(
        "\ndecisions: keep={keeps} rescale={rescales} rebuild={rebuilds}; the jump edges \
         forced rebuilds, every other step reused the hierarchy, and every step converged \
         to {TOL:.0e}"
    );
}
