//! ROADMAP item 1 (a)'s three premises, measured on the `weather-par`
//! solve (weather 64³, Mix16 V-cycle, FGMRES(30) to 1e-9, `Threads(2)`,
//! a manufactured right-hand side): how often selective
//! reorthogonalisation fires, what one-pass-per-round blocked classical
//! Gram–Schmidt (CGS2) costs against the modified Gram–Schmidt (MGS) the
//! solver runs, and how many iterations an FP32 `V` + `Z` basis takes. A
//! probe, not a solver: `krylov::gmres`'s flexible cycle with the
//! orthogonalisation and the basis type swapped, timing the vector work
//! around the operator and the preconditioner. EXPERIMENTS.md records
//! what it printed.

use std::time::{Duration, Instant};

use fp16mg_core::{MatOp, Mg, MgConfig};
use fp16mg_fp::Scalar;
use fp16mg_krylov::{LinOp, Preconditioner};
use fp16mg_problems::ProblemKind;
use fp16mg_sgdia::Par;
use fp16mg_testkit::Rng;

const RESTART: usize = 30;
const TOL: f64 = 1e-9;
const MAX_ITERS: usize = 120;
/// Elements of `w` a blocked pass keeps in cache while every basis vector
/// streams past (16 KB of f64).
const BLOCK: usize = 2048;

#[derive(Clone, Copy, Debug, PartialEq)]
enum Ortho {
    /// What `krylov::gmres` does: per basis vector a dot, then an axpy.
    Mgs,
    /// Blocked classical Gram–Schmidt, always two rounds.
    Cgs2,
    /// Blocked classical Gram–Schmidt, a second round only when the first
    /// left less than 1/√2 of `‖w‖`.
    Selective,
}

struct Outcome {
    iters: usize,
    rel: f64,
    /// Orthogonalisation, basis normalisation and the `x += Z y` update.
    vector: Duration,
    /// Inner steps, and those on which a second round ran.
    steps: usize,
    second_rounds: usize,
}

fn dot<B: Scalar>(w: &[f64], v: &[B]) -> f64 {
    let mut acc = [0.0f64; 8];
    let (cw, cv) = (w.chunks_exact(8), v.chunks_exact(8));
    let tail: f64 = cw.remainder().iter().zip(cv.remainder()).map(|(a, b)| a * b.to_f64()).sum();
    for (a, b) in cw.zip(cv) {
        for l in 0..8 {
            acc[l] += a[l] * b[l].to_f64();
        }
    }
    acc.iter().sum::<f64>() + tail
}

/// `w −= h · v`.
fn sub<B: Scalar>(h: f64, v: &[B], w: &mut [f64]) {
    for (wi, vi) in w.iter_mut().zip(v) {
        *wi -= h * vi.to_f64();
    }
}

/// One blocked classical round: `c = Vᵀ w` with `w` read a block at a time
/// while `V` streams, then `w −= V c`; adds `c` to `h`.
fn cgs_round<B: Scalar>(w: &mut [f64], basis: &[B], n: usize, h: &mut [f64]) {
    let k = basis.len() / n;
    let mut c = [0.0f64; RESTART];
    for start in (0..n).step_by(BLOCK) {
        let end = (start + BLOCK).min(n);
        for (ci, v) in c.iter_mut().zip(basis.chunks_exact(n)) {
            *ci += dot(&w[start..end], &v[start..end]);
        }
    }
    for start in (0..n).step_by(BLOCK) {
        let end = (start + BLOCK).min(n);
        for (&ci, v) in c.iter().zip(basis.chunks_exact(n)) {
            sub(ci, &v[start..end], &mut w[start..end]);
        }
    }
    h.iter_mut().zip(&c[..k]).for_each(|(h, c)| *h += c);
}

/// Orthogonalises `w` against the `k + 1` vectors of `basis` into `h`;
/// returns `‖w‖` after and whether a second round ran.
fn orthogonalise<B: Scalar>(
    ortho: Ortho,
    w: &mut [f64],
    basis: &[B],
    n: usize,
    h: &mut [f64],
) -> (f64, bool) {
    h.fill(0.0);
    match ortho {
        Ortho::Mgs => {
            for (hi, v) in h.iter_mut().zip(basis.chunks_exact(n)) {
                *hi = dot(w, v);
                sub(*hi, v, w);
            }
            (dot(w, w).sqrt(), false)
        }
        Ortho::Cgs2 => {
            cgs_round(w, basis, n, h);
            cgs_round(w, basis, n, h);
            (dot(w, w).sqrt(), true)
        }
        Ortho::Selective => {
            let before = dot(w, w).sqrt();
            cgs_round(w, basis, n, h);
            let after = dot(w, w).sqrt();
            if after >= before / std::f64::consts::SQRT_2 {
                return (after, false);
            }
            cgs_round(w, basis, n, h);
            (dot(w, w).sqrt(), true)
        }
    }
}

/// FGMRES(`RESTART`) from `x = 0` with the basis stored as `B`.
fn fgmres<B: Scalar>(op: &MatOp<'_, f64>, mg: &mut Mg<f32>, b: &[f64], ortho: Ortho) -> Outcome {
    let n = b.len();
    let bnorm = dot(b, b).sqrt();
    let (mut x, mut w, mut v, mut z) = (vec![0.0; n], vec![0.0; n], vec![0.0; n], vec![0.0; n]);
    let (mut basis, mut zbasis) = (vec![B::ZERO; RESTART * n], vec![B::ZERO; RESTART * n]);
    let mut h = vec![0.0f64; (RESTART + 1) * RESTART];
    let mut col = [0.0f64; RESTART];
    let (mut cs, mut sn, mut g) = ([0.0; RESTART], [0.0; RESTART], [0.0; RESTART + 1]);
    let mut out =
        Outcome { iters: 0, rel: 1.0, vector: Duration::ZERO, steps: 0, second_rounds: 0 };
    loop {
        op.apply(&x, &mut w);
        let t = Instant::now();
        w.iter_mut().zip(b).for_each(|(wi, bi)| *wi = bi - *wi);
        let beta = dot(&w, &w).sqrt();
        out.rel = beta / bnorm;
        if out.rel < TOL || out.iters >= MAX_ITERS {
            return out;
        }
        basis[..n].iter_mut().zip(&w).for_each(|(v, wi)| *v = B::from_f64(wi / beta));
        out.vector += t.elapsed();
        g.fill(0.0);
        g[0] = beta;
        let mut used = 0;
        for k in 0..RESTART {
            v.iter_mut().zip(&basis[k * n..(k + 1) * n]).for_each(|(v, b)| *v = b.to_f64());
            mg.apply(&v, &mut z);
            // The product is of `z` as stored, which `x += Z y` will use.
            for (s, z) in zbasis[k * n..(k + 1) * n].iter_mut().zip(&mut z) {
                *s = B::from_f64(*z);
                *z = s.to_f64();
            }
            op.apply(&z, &mut w);
            let t = Instant::now();
            let (hkk, second) = orthogonalise(ortho, &mut w, &basis[..(k + 1) * n], n, &mut col);
            out.vector += t.elapsed();
            out.steps += 1;
            out.second_rounds += usize::from(second);
            for i in 0..=k {
                h[i * RESTART + k] = col[i];
            }
            for i in 0..k {
                let t = cs[i] * h[i * RESTART + k] + sn[i] * h[(i + 1) * RESTART + k];
                h[(i + 1) * RESTART + k] =
                    -sn[i] * h[i * RESTART + k] + cs[i] * h[(i + 1) * RESTART + k];
                h[i * RESTART + k] = t;
            }
            let denom = (h[k * RESTART + k].powi(2) + hkk * hkk).sqrt();
            cs[k] = h[k * RESTART + k] / denom;
            sn[k] = hkk / denom;
            h[k * RESTART + k] = denom;
            g[k + 1] = -sn[k] * g[k];
            g[k] *= cs[k];
            out.iters += 1;
            used = k + 1;
            if g[k + 1].abs() / bnorm < TOL || out.iters >= MAX_ITERS {
                break;
            }
            if k + 1 < RESTART {
                let t = Instant::now();
                let next = &mut basis[(k + 1) * n..(k + 2) * n];
                next.iter_mut().zip(&w).for_each(|(v, wi)| *v = B::from_f64(wi / hkk));
                out.vector += t.elapsed();
            }
        }
        let mut y = [0.0f64; RESTART];
        for i in (0..used).rev() {
            let s: f64 = (i + 1..used).map(|j| h[i * RESTART + j] * y[j]).sum();
            y[i] = (g[i] - s) / h[i * RESTART + i];
        }
        let t = Instant::now();
        for (zj, &yj) in zbasis.chunks_exact(n).zip(&y[..used]) {
            x.iter_mut().zip(zj).for_each(|(xi, zi)| *xi += yj * zi.to_f64());
        }
        out.vector += t.elapsed();
    }
}

fn main() {
    let p = ProblemKind::Weather.build(64);
    let par = Par::Threads(2);
    let op = MatOp::new(&p.matrix, par);
    let mut rng = Rng::new(7);
    let xs: Vec<f64> = (0..p.matrix.rows()).map(|_| rng.f64_range(-1.0, 1.0)).collect();
    let mut b = vec![0.0; xs.len()];
    op.apply(&xs, &mut b);
    let mut mg = Mg::<f32>::setup(&p.matrix, &MgConfig { par, ..MgConfig::d16() }).expect("setup");
    println!("gmres-probe: weather 64³ ({} unknowns), Mix16 V-cycle, FGMRES({RESTART}), tol {TOL:e}, {par:?}", b.len());
    let runs: [(&str, Ortho, bool); 4] = [
        ("MGS, f64 basis", Ortho::Mgs, false),
        ("CGS2 blocked, f64", Ortho::Cgs2, false),
        ("selective CGS, f64", Ortho::Selective, false),
        ("MGS, f32 V + Z", Ortho::Mgs, true),
    ];
    for (label, ortho, f32_basis) in runs {
        let mut times = Vec::new();
        let mut last = None;
        for _ in 0..5 {
            let o = if f32_basis {
                fgmres::<f32>(&op, &mut mg, &b, ortho)
            } else {
                fgmres::<f64>(&op, &mut mg, &b, ortho)
            };
            times.push(o.vector.as_secs_f64() * 1e3);
            last = Some(o);
        }
        times.sort_by(f64::total_cmp);
        let o = last.expect("five runs");
        println!(
            "{label:<20} iters {:>3}  rel {:.2e}  vector {:.1}–{:.1} ms (median {:.1})  second rounds {}/{}",
            o.iters, o.rel, times[0], times[4], times[2], o.second_rounds, o.steps
        );
    }
}
