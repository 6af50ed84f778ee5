//! Solver-matrix integration: every Krylov method against the FP16
//! multigrid on appropriate problems.

use fp16mg::krylov::{cg, gmres, richardson, SolveOptions};
use fp16mg::mg::{MatOp, Mg, MgConfig};
use fp16mg::problems::ProblemKind;
use fp16mg::sgdia::kernels::Par;

fn setup(kind: ProblemKind, n: usize) -> (fp16mg::problems::Problem, Mg<f32>) {
    let p = kind.build(n);
    let mg = Mg::<f32>::setup(&p.matrix, &MgConfig::d16()).expect("setup");
    (p, mg)
}

#[test]
fn every_krylov_method_agrees_on_solution() {
    let (p, _) = setup(ProblemKind::Laplace27, 12);
    let op = MatOp::new(&p.matrix, Par::Seq);
    let b = p.rhs();
    let opts = SolveOptions { tol: 1e-10, max_iters: 300, ..Default::default() };
    let mut solutions: Vec<Vec<f64>> = Vec::new();
    for which in 0..3 {
        let mut mg = Mg::<f32>::setup(&p.matrix, &MgConfig::d16()).unwrap();
        let mut x = vec![0.0f64; p.matrix.rows()];
        let r = match which {
            0 => cg(&op, &mut mg, &b, &mut x, &opts),
            1 => gmres(&op, &mut mg, &b, &mut x, &opts),
            _ => richardson(&op, &mut mg, &b, &mut x, &opts),
        };
        assert!(r.converged(), "solver {which}: {r:?}");
        solutions.push(x);
    }
    let scale = solutions[0].iter().map(|v| v.abs()).fold(0.0f64, f64::max);
    for s in &solutions[1..] {
        for (a, b) in solutions[0].iter().zip(s) {
            assert!((a - b).abs() <= 1e-7 * scale, "{a} vs {b}");
        }
    }
}
