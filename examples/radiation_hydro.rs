//! Radiation-hydrodynamics scenario: the paper's hardest FP16 case,
//! `rhd`, advanced through implicit time steps.
//!
//! ```sh
//! cargo run --release --example radiation_hydro
//! ```
//!
//! The single-temperature diffusion matrix spans ~15 decades of
//! magnitude — far outside FP16 both ways — so only the setup-then-scale
//! path (Algorithm 1) stores its levels in FP16 at all. A radiation
//! front makes the time dependence brutal: opacity drifts smoothly
//! between steps, but the front sweeping the grid multiplies the
//! coefficients behind it by orders of magnitude. Each step goes through
//! the reuse engine (`mg::reuse::serve`): the drifted operator is audited
//! against the retained chain's baseline and the cheapest sufficient
//! action is taken — keep, rescale-in-place, or rebuild. On some steps
//! with the front in flight (three of ten here) the scaled-FP16 hierarchy
//! is not enough for CG, so the loop carries an escalation rung: a
//! failed step rebuilds the hierarchy in FP64 and retries, exactly the
//! `rebuild-f64` rung the `repro simulate` retry ladder lands on for this
//! problem. CG must then converge to the FP64-grade tolerance at every
//! step.

use fp16mg::krylov::{cg, SolveOptions};
use fp16mg::mg::{reuse, MatOp, Mg, MgConfig, Reuse};
use fp16mg::problems::{metrics, step_rhs, Evolution, ProblemKind};
use fp16mg::sgdia::kernels::Par;

const STEPS: u64 = 10;
const TOL: f64 = 1e-9;

fn main() {
    let evo = Evolution::new(ProblemKind::Rhd, 16);
    let hist = metrics::range_histogram(evo.base());
    println!(
        "rhd diffusion system: {} unknowns, magnitudes span 1e{} … 1e{}, {} implicit steps, \
         solver CG",
        evo.base().rows(),
        hist.first().unwrap().0,
        hist.last().unwrap().0 + 1,
        STEPS
    );
    println!("(front-propagation drift: the radiation front multiplies swept cells by ~6x)");
    println!("\n{:>4}  {:>8}  {:>6}  {:>6}  {:>9}", "step", "decision", "drift", "#iter", "resid");

    let cfg = MgConfig::d16(); // K64 P32 D16, setup-then-scale
    let opts = SolveOptions { tol: TOL, max_iters: 300, ..Default::default() };
    let mut retained = None;
    let mut x = vec![0.0f64; evo.base().rows()];
    let (mut keeps, mut rescales, mut rebuilds) = (0u32, 0u32, 0u32);
    let mut escalations = 0u32;
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
        let mut label = decision.label();

        let b = step_rhs(&problem, if step == 0 { None } else { Some(&x) });
        let op = MatOp::new(a, Par::Seq);
        x.fill(0.0);
        let mut r = cg(&op, &mut mg, &b, &mut x, &opts);
        if !r.converged() {
            // FP16 storage was too lossy for this step's drifted range
            // even after rescaling: rebuild in FP64 and retry, as the
            // `repro simulate` retry ladder does. The retained FP16
            // chain stays live for the following steps' audits.
            let mut mg = Mg::<f64>::setup(a, &MgConfig::d64()).expect("setup");
            label = "escalate";
            escalations += 1;
            x.fill(0.0);
            r = cg(&op, &mut mg, &b, &mut x, &opts);
        }
        assert!(r.converged(), "step {step} did not converge: {:?}", r.reason);
        final_resid = r.final_rel_residual;
        let shown = match drift {
            Some(d) if !d.structural() => format!("{:.3}", d.magnitude()),
            _ => "-".into(),
        };
        println!("{:>4}  {:>8}  {:>6}  {:>6}  {:>9.2e}", step, label, shown, r.iters, final_resid);
    }

    assert!(final_resid <= TOL, "final residual {final_resid:.2e} above tolerance");
    println!(
        "\ndecisions: keep={keeps} rescale={rescales} rebuild={rebuilds} \
         escalated={escalations}; every step converged to {TOL:.0e} despite the ~15-decade \
         range"
    );
}
