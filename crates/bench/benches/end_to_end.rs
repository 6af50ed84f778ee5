//! Benches for the Fig. 8/9 end-to-end comparison: each problem solved
//! with the Full64 baseline and the Mix16 (K64 P32 D16 setup-then-scale)
//! configuration. Setup is *included* in the measured iteration, matching
//! the paper's "entire workflow" definition.

use std::time::Duration;

use fp16mg_bench::{solve_e2e, Combo, Group};
use fp16mg_krylov::SolveOptions;
use fp16mg_problems::ProblemKind;

fn main() {
    let opts =
        SolveOptions { tol: 1e-9, max_iters: 500, record_history: false, ..Default::default() };
    for kind in ProblemKind::all() {
        let n = if kind.components() == 1 { 20 } else { 12 };
        let g = Group::new(format!("e2e/{}", kind.name())).measurement_time(Duration::from_secs(3));
        for combo in [Combo::Full64, Combo::D16SetupScale] {
            let label = if combo == Combo::Full64 { "Full64" } else { "Mix16" };
            g.bench(label, || {
                let r = solve_e2e(kind, n, combo, combo.mg_config(), &opts).expect("setup");
                assert!(r.result.converged(), "{} {label} did not converge", kind.name());
                let _ = r.total();
            });
        }
    }
}
