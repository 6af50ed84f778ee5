//! Reservoir-simulation scenario: the paper's `oil` problem advanced
//! through implicit time steps.
//!
//! ```sh
//! cargo run --release --example reservoir_simulation
//! ```
//!
//! A layered log-normal permeability field discretized on 3d7 produces a
//! highly anisotropic, mildly nonsymmetric pressure system (SPE-style).
//! A real simulator re-solves it every time step while the coefficients
//! drift — mobility changes smoothly, a saturation front sweeps the
//! field, and well events jump the contrast. Rebuilding the multigrid
//! hierarchy every step would throw away the setup cost the FP16
//! warm-start path amortizes, so each step goes through the reuse engine
//! (`mg::reuse::serve`): the drifted operator is audited against the
//! baseline of the retained chain and the cheapest sufficient action is
//! taken — **keep** the chain, **rescale** its finest level in place
//! (Galerkin-lag: the coarse tail stays), or **rebuild** it. The example
//! reports the per-step decisions and the total setup time against a
//! rebuild-every-step baseline.

use std::time::{Duration, Instant};

use fp16mg::krylov::{gmres, SolveOptions};
use fp16mg::mg::{reuse, MatOp, Mg, MgConfig, Reuse};
use fp16mg::problems::{step_rhs, Evolution, ProblemKind};
use fp16mg::sgdia::kernels::Par;

const STEPS: u64 = 12;
const TOL: f64 = 1e-9;

fn main() {
    let evo = Evolution::new(ProblemKind::Oil, 20);
    let cfg = MgConfig::d16();
    let rows = evo.base().rows();
    println!(
        "reservoir pressure system: {} unknowns, {} implicit steps, solver GMRES",
        rows, STEPS
    );
    println!(
        "\n{:>4}  {:>8}  {:>6}  {:>6}  {:>9}  {:>12}",
        "step", "decision", "drift", "#iter", "resid", "setup"
    );

    let opts = SolveOptions { tol: TOL, max_iters: 400, restart: 30, ..Default::default() };
    let mut retained = None;
    let mut x = vec![0.0f64; rows];
    let (mut keeps, mut rescales, mut rebuilds) = (0u32, 0u32, 0u32);
    let mut reuse_setup = Duration::ZERO;
    let mut fresh_setup = Duration::ZERO;
    let mut final_resid = f64::NAN;

    for step in 0..STEPS {
        let problem = evo.problem_at(step);
        let a = &problem.matrix;

        // What a rebuild-every-step simulator would pay.
        let t = Instant::now();
        let _ = Mg::<f32>::setup(a, &cfg).expect("fresh setup");
        fresh_setup += t.elapsed();

        // Audit the drifted operator and reuse as much as it allows.
        let t = Instant::now();
        let (mg, decision, drift) = reuse::serve(&mut retained, a, &cfg);
        let mut mg: Mg<f32> = mg.expect("setup");
        let step_setup = t.elapsed();
        reuse_setup += step_setup;
        match decision {
            Reuse::Keep => keeps += 1,
            Reuse::Rescale => rescales += 1,
            Reuse::Rebuild => rebuilds += 1,
        }

        // Backward-Euler-style step: the previous solution couples into
        // the right-hand side.
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
        println!(
            "{:>4}  {:>8}  {:>6}  {:>6}  {:>9.2e}  {:>10.1?}",
            step,
            decision.label(),
            shown,
            r.iters,
            r.final_rel_residual,
            step_setup
        );
    }

    assert!(final_resid <= TOL, "final residual {final_resid:.2e} above tolerance");
    println!(
        "\ndecisions: keep={keeps} rescale={rescales} rebuild={rebuilds}; every step converged \
         to {TOL:.0e}"
    );
    println!(
        "setup: reuse {:.1?} vs rebuild-every-step {:.1?} → amortized setup win {:.2}x",
        reuse_setup,
        fresh_setup,
        fresh_setup.as_secs_f64() / reuse_setup.as_secs_f64()
    );
}
