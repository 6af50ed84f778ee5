//! Regenerates every table and figure of the paper's evaluation, and runs
//! the drivers that must be separate processes.
//!
//! ```text
//! repro <experiment>|all [--size N] [--tol T] [--threads N1,N2,...]
//! experiments: fig1 table2 fig3 fig5 fig6 fig7 fig8|fig9 fig10 table1 table3
//!              bf16 shift smooth cycle semi guard audit
//! repro serve --daemon --addr unix:PATH|tcp:HOST:PORT [--snapshot-dir DIR] [--mem-budget B]
//! repro loadgen --addr … [--requests N] [--shutdown]
//! repro loadgen --soak [--requests N] [--kill-after N] [--mem-budget B] [--out DIR]
//! repro simulate [--problem NAME|all] [--steps N] [--chaos] [--snapshot-dir DIR]
//! ```
//!
//! The experiments are one table, [`EXPERIMENTS`]: it drives dispatch,
//! `all` and the usage line.
//!
//! `serve --daemon --addr …` runs the daemon (`fp16mg_runtime::serve`:
//! one request at a time off the wire, solve → fsynced trail →
//! checkpoint → ack, state under `--snapshot-dir`) until a client asks it
//! to drain; `--mem-budget` puts its pool under a byte budget.
//! `loadgen --addr …` drives it (`--shutdown` drains it), and
//! `loadgen --soak` is the one kill/restart soak.
//!
//! `simulate` advances `--problem` (or the three time-dependent example
//! scenarios with `all`) through `--steps` implicit steps, reusing the
//! multigrid hierarchy across steps under an audit-driven
//! keep/rescale/rebuild policy, and prints the per-step cost/accuracy
//! table plus the amortized setup win over a fresh-setup-every-step
//! baseline. With `--snapshot-dir` every committed step is checkpointed
//! and a killed run resumes bit-identically (`tests/simulate.rs` and the
//! storage torture matrix hold it to that), and `--chaos` runs the
//! deterministic fault schedule that exercises every reuse decision and
//! recovery rung.
//!
//! The serve pool's scenarios and the storage, allocation and wire fault
//! matrices are integration tests (`crates/bench/tests/{serve,torture,
//! memtorture,nettorture}.rs`), not subcommands.
//!
//! Timing is not this binary's business: the repository's benchmark is
//! the `benchmark/` package that `BENCHMARK.json` names, and the
//! deterministic facts a perf gate can hold (iteration counts, byte
//! counts) are the tier-1 table in `crates/bench/tests/gates.rs`.
//!
//! `fig9` is the same harness as `fig8` (the paper's second architecture;
//! this reproduction runs on one ISA — see DESIGN.md substitutions).

use fp16mg_bench::table::{fmt_secs, geomean, Table};
use fp16mg_bench::{kernel_suite, solve_e2e, Combo, KernelKind, Variant};
use fp16mg_core::{Mg, MgConfig};
use fp16mg_fp::Scalar;
use fp16mg_krylov::SolveOptions;
use fp16mg_problems::{metrics, Problem, ProblemKind, SolverKind};
use fp16mg_sgdia::kernels::Par;
use fp16mg_sgdia::model;

struct Args {
    cmd: String,
    size: usize,
    size_set: bool,
    tol: f64,
    threads: Vec<usize>,
    requests: usize,
    chaos: bool,
    daemon: bool,
    soak: bool,
    snapshot_dir: String,
    kill_after: u64,
    mem_budget: u64,
    steps: u64,
    problem: String,
    out: String,
    addr: String,
    shutdown: bool,
}

type Experiment = fn(&Args);

/// The paper's experiments, in the order `all` runs them; `|` separates
/// the names one row answers to.
const EXPERIMENTS: &[(&str, Experiment)] = &[
    ("fig1", fig1),
    ("table2", |_| table2()),
    ("fig3", fig3),
    ("fig5", fig5),
    ("fig6", fig6),
    ("fig7", fig7),
    ("fig8|fig9", fig8),
    ("fig10", fig10),
    ("table1", table1),
    ("table3", table3),
    ("bf16", bf16),
    ("shift", shift),
    ("smooth", smooth),
    ("cycle", cycle_ablation),
    ("semi", semi_ablation),
    ("guard", guard),
    ("audit", audit_cmd),
];

fn usage(msg: &str) -> ! {
    let names: Vec<&str> = EXPERIMENTS.iter().map(|&(name, _)| name).collect();
    eprintln!("{msg}");
    eprintln!("usage: repro <experiment>|all [--size N] [--tol T] [--threads N1,N2,...]");
    eprintln!("experiments: {}", names.join(" "));
    eprintln!("drivers: repro serve --daemon --addr unix:PATH|tcp:HOST:PORT [--snapshot-dir DIR] [--mem-budget BYTES] [--workers 1]; repro loadgen --addr … [--requests N] [--shutdown]; repro loadgen --soak [--requests N] [--kill-after N] [--mem-budget BYTES] [--out DIR]; repro simulate [--problem NAME|all] [--steps N] [--chaos] [--snapshot-dir DIR]");
    std::process::exit(2)
}

fn arg_value<T: std::str::FromStr>(it: &mut impl Iterator<Item = String>, flag: &str) -> T {
    let Some(raw) = it.next() else { usage(&format!("{flag} needs a value")) };
    raw.parse().unwrap_or_else(|_| usage(&format!("{flag}: cannot parse '{raw}'")))
}

fn parse_args() -> Args {
    let mut args = Args {
        cmd: String::new(),
        size: 24,
        size_set: false,
        tol: 1e-9,
        threads: vec![],
        requests: 16,
        chaos: false,
        daemon: false,
        soak: false,
        snapshot_dir: String::new(),
        kill_after: 0,
        mem_budget: 0,
        steps: 12,
        problem: "all".into(),
        out: ".".into(),
        addr: String::new(),
        shutdown: false,
    };
    let mut kill_after: Option<u64> = None;
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--size" => {
                args.size = arg_value(&mut it, "--size");
                args.size_set = true;
            }
            "--tol" => args.tol = arg_value(&mut it, "--tol"),
            "--requests" => args.requests = arg_value(&mut it, "--requests"),
            // The daemon serves one request at a time; the flag stays
            // for the command lines that spell that out.
            "--workers" => {
                if arg_value::<usize>(&mut it, "--workers") != 1 {
                    usage("--workers: the daemon serves one request at a time; only 1 is accepted")
                }
            }
            "--chaos" => args.chaos = true,
            "--daemon" => args.daemon = true,
            "--soak" => args.soak = true,
            "--snapshot-dir" => args.snapshot_dir = arg_value(&mut it, "--snapshot-dir"),
            "--kill-after" => kill_after = Some(arg_value(&mut it, "--kill-after")),
            "--mem-budget" => args.mem_budget = arg_value(&mut it, "--mem-budget"),
            "--steps" => args.steps = arg_value(&mut it, "--steps"),
            "--problem" => args.problem = arg_value(&mut it, "--problem"),
            "--out" => args.out = arg_value(&mut it, "--out"),
            "--addr" => args.addr = arg_value(&mut it, "--addr"),
            "--shutdown" => args.shutdown = true,
            "--threads" => {
                let Some(list) = it.next() else { usage("--threads needs a value") };
                args.threads = list
                    .split(',')
                    .map(|s| match s.parse() {
                        Ok(0) | Err(_) => usage(&format!("--threads: bad count '{s}'")),
                        Ok(t) => t,
                    })
                    .collect()
            }
            other if args.cmd.is_empty() && !other.starts_with('-') => args.cmd = other.to_string(),
            other => usage(&format!("unknown argument: {other}")),
        }
    }
    if args.size < 4 {
        usage("--size must be at least 4 (smallest grid the generators support)");
    }
    if args.steps == 0 {
        usage("--steps must be at least 1");
    }
    // A soak's kill must land before its last request, or the restarted
    // child has nothing left to resume.
    if args.cmd == "loadgen" && args.soak {
        let (k, len) = (kill_after.unwrap_or(3), args.requests as u64);
        if k == 0 || k >= len {
            usage(&format!("--kill-after {k}: the soak needs 1 ≤ kill-after < --requests ({len})"));
        }
        args.kill_after = k;
    }
    if !args.tol.is_finite() || args.tol <= 0.0 {
        usage("--tol must be a positive finite number");
    }
    if args.cmd.is_empty() {
        args.cmd = "all".into();
    }
    if args.threads.is_empty() {
        let max = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
        let mut t = 1;
        while t <= max {
            args.threads.push(t);
            t *= 2;
        }
    }
    args
}

fn main() {
    let args = parse_args();
    match args.cmd.as_str() {
        "serve" if args.daemon => daemon_cmd(&args),
        "serve" => usage("serve needs --daemon"),
        "simulate" if args.soak => {
            usage("simulate has no --soak; loadgen --soak is the kill/restart soak")
        }
        "simulate" => simulate_cmd(&args),
        "loadgen" if args.soak => net_soak_cmd(&args),
        "loadgen" => loadgen_cmd(&args),
        "all" => EXPERIMENTS.iter().for_each(|(_, run)| run(&args)),
        cmd => match EXPERIMENTS.iter().find(|(names, _)| names.split('|').any(|n| n == cmd)) {
            Some((_, run)) => run(&args),
            None => usage(&format!("unknown experiment '{cmd}'")),
        },
    }
}

/// The options of a measured solve: `--tol`, no residual history.
fn solve_opts(args: &Args, max_iters: usize) -> SolveOptions {
    SolveOptions { tol: args.tol, max_iters, record_history: false, ..Default::default() }
}

fn header(title: &str) {
    println!("\n==================================================================");
    println!("{title}");
    println!("==================================================================");
}

// ---------------------------------------------------------------- fig1 --

fn fig1(args: &Args) {
    header("Figure 1: nonzero-magnitude distributions of the six real-world analogs");
    let n = capped_size(args, 20);
    let problems: Vec<_> = ProblemKind::real_world().into_iter().map(|k| k.build(n)).collect();
    let hists: Vec<_> = problems.iter().map(|p| metrics::range_histogram(&p.matrix)).collect();
    let lo = hists.iter().filter_map(|h| h.first().map(|&(d, _)| d)).min();
    let hi = hists.iter().filter_map(|h| h.last().map(|&(d, _)| d)).max();
    let (Some(lo), Some(hi)) = (lo, hi) else {
        println!("(no data: every histogram is empty)");
        return;
    };

    let mut head = vec!["decade".to_string()];
    head.extend(problems.iter().map(|p| p.name.to_string()));
    let mut t = Table::new(&head.iter().map(|s| s.as_str()).collect::<Vec<_>>());
    for d in lo..=hi {
        let mut row = vec![format!("1e{d:+03}")];
        for h in &hists {
            let pct = h.iter().find(|&&(dd, _)| dd == d).map(|&(_, p)| p).unwrap_or(0.0);
            row.push(if pct == 0.0 { String::new() } else { format!("{pct:5.1}%") });
        }
        if d == -5 {
            // FP16 smallest normal is 6.1e-5: mark the lower range edge.
            row[0].push_str(" <min16");
        }
        if d == 4 {
            row[0].push_str(" ~max16");
        }
        t.row(row);
    }
    print!("{t}");
    println!("(IEEE 754 FP16 normal range: 6.1e-05 … 6.5e+04)");
}

// -------------------------------------------------------------- table2 --

fn table2() {
    header("Table 2: estimated speedup upper bounds from matrix memory volume");
    let rows = model::table2(model::SUITESPARSE_DELTA);
    let mut t = Table::new(&[
        "format",
        "B/nnz fp64",
        "B/nnz fp32",
        "B/nnz fp16",
        "64/32",
        "32/16",
        "64/16",
    ]);
    for r in rows {
        t.row(vec![
            r.format.name().to_string(),
            format!("{:.2}", r.bytes[0]),
            format!("{:.2}", r.bytes[1]),
            format!("{:.2}", r.bytes[2]),
            format!("{:.2}x", r.bounds[0]),
            format!("{:.2}x", r.bounds[1]),
            format!("{:.2}x", r.bounds[2]),
        ]);
    }
    print!("{t}");
    println!("(CSR rows use the SuiteSparse average row-pointer amortization δ = 0.15)");
}

// ---------------------------------------------------------------- fig3 --

fn fig3(args: &Args) {
    header("Figure 3: grid/operator complexity statistics across the case suite");
    let sizes = [args.size / 2, (args.size * 3) / 4, args.size];
    let mut cg_vals = Vec::new();
    let mut co_vals = Vec::new();
    let mut t = Table::new(&["problem", "n", "levels", "C_G", "C_O"]);
    for kind in ProblemKind::all() {
        for &n in &sizes {
            let n = n.max(8);
            for max_levels in [3usize, 10] {
                let p = kind.build(n);
                let mut cfg = Combo::D16SetupScale.mg_config();
                cfg.max_levels = max_levels;
                let Ok(mg) = Mg::<f32>::setup(&p.matrix, &cfg) else { continue };
                let info = mg.info();
                cg_vals.push(info.grid_complexity);
                co_vals.push(info.operator_complexity);
                t.row(vec![
                    p.name.to_string(),
                    n.to_string(),
                    info.levels.len().to_string(),
                    format!("{:.3}", info.grid_complexity),
                    format!("{:.3}", info.operator_complexity),
                ]);
            }
        }
    }
    print!("{t}");
    let frac = |v: &[f64], thr: f64| {
        100.0 * v.iter().filter(|&&x| x < thr).count() as f64 / v.len() as f64
    };
    println!(
        "cumulative frequency: C_G < 1.15: {:.0}%   C_G < 1.20: {:.0}%",
        frac(&cg_vals, 1.15),
        frac(&cg_vals, 1.2)
    );
    println!(
        "                      C_O < 1.50: {:.0}%   C_O < 2.00: {:.0}%",
        frac(&co_vals, 1.5),
        frac(&co_vals, 2.0)
    );
    println!("(paper: 80% of MFEM cases have C_G < 1.2 and C_O < 1.5; full");
    println!(" coarsening keeps C_G ≤ 8/7 ≈ 1.14, so the finest level dominates)");
}

// ---------------------------------------------------------------- fig5 --

fn fig5(args: &Args) {
    header("Figure 5: multi-scale (anisotropy) measure statistics");
    let n = capped_size(args, 20);
    let mut t = Table::new(&["problem", "median", "p90", "max", "class"]);
    for kind in ProblemKind::all() {
        let p = kind.build(n);
        let a = metrics::anisotropy(&p.matrix);
        t.row(vec![
            p.name.to_string(),
            format!("{:.2}", a.median),
            format!("{:.2}", a.p90),
            format!("{:.2}", a.max),
            a.label().to_string(),
        ]);
    }
    print!("{t}");
    println!("(per-row log10(max|off-diag| / min|off-diag|); High ⇒ harder for FP16)");
}

// ---------------------------------------------------------------- fig6 --

fn fig6(args: &Args) {
    header("Figure 6: convergence ablation — relative residual per iteration");
    let problems = [
        ProblemKind::Laplace27,
        ProblemKind::Laplace27E8,
        ProblemKind::Weather,
        ProblemKind::Rhd,
        ProblemKind::Rhd3T,
    ];
    let n = capped_size(args, 20);
    let opts =
        SolveOptions { tol: 1e-10, max_iters: 200, record_history: true, ..Default::default() };
    for kind in problems {
        println!("\n--- {} (n = {n}) ---", kind.name());
        let runs: Vec<_> = Combo::fig6()
            .into_iter()
            .map(|c| (c, solve_e2e(kind, n, c, c.mg_config(), &opts)))
            .collect();
        let mut head = vec!["iter".to_string()];
        head.extend(runs.iter().map(|(c, _)| c.label()));
        let mut t = Table::new(&head.iter().map(|s| s.as_str()).collect::<Vec<_>>());
        let maxlen = runs
            .iter()
            .filter_map(|(_, r)| r.as_ref().ok().map(|r| r.result.history.len()))
            .max()
            .unwrap_or(0);
        for i in 0..maxlen {
            let mut row = vec![i.to_string()];
            for (_, r) in &runs {
                row.push(match r {
                    Ok(r) => match r.result.history.get(i) {
                        Some(v) if v.is_finite() => format!("{v:9.2e}"),
                        Some(_) => "NaN".into(),
                        None => String::new(),
                    },
                    Err(_) => "setup-fail".into(),
                });
            }
            t.row(row);
        }
        print!("{t}");
        for (c, r) in &runs {
            match r {
                Ok(r) => println!(
                    "  {:24} -> {:?} in {} iters",
                    c.label(),
                    r.result.reason,
                    r.result.iters
                ),
                Err(e) => println!("  {:24} -> setup failed: {e}", c.label()),
            }
        }
    }
}

// ---------------------------------------------------------------- fig7 --

/// Timing budget of each kernel measurement in the fig7 sweep.
const FIG7_BUDGET_MS: f64 = 30.0;

fn fig7(args: &Args) {
    header("Figure 7: kernel optimization ablation (speedups over MG-fp32/fp32)");
    // Kernel speedups are a memory-bandwidth story: the working set must
    // exceed the LLC (260 MB on the development host), so the kernel sweep
    // defaults to much larger grids than the solver experiments.
    let base = if args.size_set { args.size.max(16) } else { 104 };
    let sizes = [base, base + base / 8, base + base / 4];
    println!(
        "sizes: {sizes:?} (cubed), geometric mean; SIMD available: {}",
        fp16mg_sgdia::kernels::simd_available()
    );
    let rows = kernel_suite(&sizes, Par::Seq, FIG7_BUDGET_MS);
    for kernel in [KernelKind::Spmv, KernelKind::Sptrsv] {
        let kname = if kernel == KernelKind::Spmv { "SpMV" } else { "SpTRSV" };
        let mut t = Table::new(&["pattern", "variant", "time/apply", "speedup", "Max-fp16/fp32"]);
        for row in rows.iter().filter(|r| r.kernel == kernel) {
            let full_pat = match row.pattern.as_str() {
                "3d4" => "3d7",
                "3d10" => "3d19",
                "3d14" => "3d27",
                p => p,
            };
            let pattern = fp16mg_stencil::Pattern::from_name(full_pat)
                .expect("kernel_suite measures named patterns");
            let maxsp = fp16mg_bench::kernelbench::max_speedup(&pattern, sizes[1], kernel);
            t.row(vec![
                row.pattern.clone(),
                row.variant.label().to_string(),
                fmt_secs(row.seconds),
                format!("{:.2}x", row.speedup),
                if row.variant == Variant::F16Opt { format!("{maxsp:.2}x") } else { String::new() },
            ]);
        }
        println!("\n{kname}:");
        print!("{t}");
    }
    println!("(expect: opt ≈ Max > 1, naive ≤ 1 — conversion overhead vs SOA SIMD amortization)");
}

// ---------------------------------------------------------------- fig8 --

fn fig8(args: &Args) {
    header("Figure 8/9: end-to-end single-processor performance (Full64 vs Mix16)");
    // Bandwidth-pressure regime: the finest-level matrix should stress the
    // LLC, so the default is production-ish.
    let size = if args.size_set { args.size } else { 88 };
    let opts = solve_opts(args, 500);
    let mut t = Table::new(&[
        "problem",
        "combo",
        "#iter",
        "setup",
        "MG precond",
        "other",
        "total",
        "norm.total",
        "PC speedup",
        "E2E speedup",
    ]);
    let mut pc_speedups = Vec::new();
    let mut e2e_speedups = Vec::new();
    for kind in ProblemKind::all() {
        let n = match kind.components() {
            1 => size,
            _ => (size * 2) / 3,
        }
        .max(8);
        let run = |combo: Combo| solve_e2e(kind, n, combo, combo.mg_config(), &opts);
        let full = match run(Combo::Full64) {
            Ok(r) => r,
            Err(e) => {
                println!("{}: Full64 setup failed: {e}", kind.name());
                continue;
            }
        };
        let mix = match run(Combo::D16SetupScale) {
            Ok(r) => r,
            Err(e) => {
                println!("{}: Mix16 setup failed: {e}", kind.name());
                continue;
            }
        };
        let norm = full.total().as_secs_f64();
        let pc = full.precond.as_secs_f64() / mix.precond.as_secs_f64().max(1e-12);
        let e2e = norm / mix.total().as_secs_f64().max(1e-12);
        pc_speedups.push(pc);
        e2e_speedups.push(e2e);
        for r in [&full, &mix] {
            t.row(vec![
                r.problem.to_string(),
                r.combo.label(),
                format!("{}{}", r.result.iters, if r.result.converged() { "" } else { "!" }),
                fmt_secs(r.setup.as_secs_f64()),
                fmt_secs(r.precond.as_secs_f64()),
                fmt_secs(r.other.as_secs_f64()),
                fmt_secs(r.total().as_secs_f64()),
                format!("{:.3}", r.total().as_secs_f64() / norm),
                if r.combo == Combo::D16SetupScale { format!("{pc:.2}x") } else { String::new() },
                if r.combo == Combo::D16SetupScale { format!("{e2e:.2}x") } else { String::new() },
            ]);
        }
    }
    print!("{t}");
    println!(
        "geometric mean: preconditioner speedup {:.2}x, end-to-end speedup {:.2}x",
        geomean(&pc_speedups),
        geomean(&e2e_speedups)
    );
    println!("(paper single-processor: PC ~2.7-2.8x, E2E ~1.9-2.0x at 128-core scale;");
    println!(" '!' marks a non-converged run)");
}

// --------------------------------------------------------------- fig10 --

fn fig10(args: &Args) {
    header("Figure 10: strong scalability (total solve time vs threads)");
    let opts = solve_opts(args, 500);
    let mut t = Table::new(&[
        "problem",
        "threads",
        "Full* time",
        "Mix16 time",
        "Mix16 speedup",
        "par.eff Full*",
        "par.eff Mix16",
    ]);
    for kind in ProblemKind::all() {
        let n = match kind.components() {
            1 => args.size,
            _ => (args.size * 2) / 3,
        }
        .max(8);
        let mut base_full = f64::NAN;
        let mut base_mix = f64::NAN;
        for &threads in &args.threads {
            let par = Par::Threads(threads);
            let run = |c: Combo| solve_e2e(kind, n, c, MgConfig { par, ..c.mg_config() }, &opts);
            let (full, mix) = (run(Combo::Full64), run(Combo::D16SetupScale));
            let (Ok(full), Ok(mix)) = (full, mix) else { continue };
            let tf = full.total().as_secs_f64();
            let tm = mix.total().as_secs_f64();
            if threads == args.threads[0] {
                base_full = tf * args.threads[0] as f64;
                base_mix = tm * args.threads[0] as f64;
            }
            t.row(vec![
                kind.name().to_string(),
                threads.to_string(),
                fmt_secs(tf),
                fmt_secs(tm),
                format!("{:.2}x", tf / tm),
                format!("{:.0}%", 100.0 * base_full / (tf * threads as f64)),
                format!("{:.0}%", 100.0 * base_mix / (tm * threads as f64)),
            ]);
        }
    }
    print!("{t}");
    println!("(threads swept: {:?}; each SpMV and residual split into that many", args.threads);
    println!(" chunks on the caller and the worker team, sweeps and Krylov vectors");
    println!(" sequential; par.eff = first row's time x threads / this row's)");

    // The Fig. 10 *communication* analysis, modeled: halo-exchange volume
    // per V-cycle under an MPI-style box decomposition. Matrix compression
    // does not shrink halo traffic (vectors stay in the computation
    // precision, guideline 4), which is why FP16 acceleration makes the
    // communication share more dominant at scale.
    println!("\nModeled V-cycle halo-exchange volume (box decomposition, FP32 vectors):");
    let mut t = Table::new(&[
        "problem",
        "ranks",
        "rank grid",
        "finest halo B/cycle",
        "all-levels B/cycle",
        "halo/matrix traffic",
    ]);
    for kind in [ProblemKind::Laplace27, ProblemKind::Rhd, ProblemKind::Weather] {
        let p = kind.build(args.size.max(32));
        let grid = *p.matrix.grid();
        for ranks in [8usize, 64, 512] {
            let d = fp16mg_grid::Decomposition::new(grid, ranks);
            let per_level = fp16mg_grid::decomp::vcycle_halo_bytes(&grid, ranks, 6, 4);
            let total: usize = per_level.iter().map(|&(_, b)| b).sum();
            // Matrix traffic per cycle at FP16 (~4 passes over the finest
            // matrix) for the dominance comparison.
            let matrix_traffic = 4 * p.matrix.stored_entries() * 2;
            t.row(vec![
                kind.name().to_string(),
                ranks.to_string(),
                format!("{:?}", d.procs()),
                per_level.first().map(|&(_, b)| b.to_string()).unwrap_or_default(),
                total.to_string(),
                format!("{:.3}", total as f64 / matrix_traffic as f64),
            ]);
        }
    }
    print!("{t}");
    println!("(halo/matrix rises with rank count: strong scaling shifts the budget");
    println!(" toward communication, bounding the FP16 speedup exactly as Fig. 10's");
    println!(" efficiency numbers show)");
}

// -------------------------------------------------------------- table1 --

fn table1(args: &Args) {
    header("Table 1: mixed-precision multigrid preconditioners (literature + ours)");
    let mut t =
        Table::new(&["ref", "type", "scale?", "P.C. precision", "P.C. speedup", "E2E speedup"]);
    for (r, ty, sc, prec, pcs, e2e) in [
        ("[9] Goddeke'11", "GMG", "N/N", "FP32", "~2.0x", "~1.7x"),
        ("[5] Emans'10", "AMG", "N/N", "FP32", "1.1~1.5x", "unclear"),
        ("[27] Richter'14", "AMG", "N/N", "FP32", "unclear", "1.19x"),
        ("[8] Glimberg'13", "GMG", "N/N", "FP32", "1.9x", "1.6x"),
        ("[35] Yamagishi'16", "GMG", "N/N", "FP32", "2.0x", "1.18x"),
        ("[33] Tsai'23", "AMG", "Yes", "FP16/FP32", "unclear", "1.05~1.35x"),
    ] {
        t.row(vec![r.into(), ty.into(), sc.into(), prec.into(), pcs.into(), e2e.into()]);
    }
    // Our row, measured.
    let opts = solve_opts(args, 500);
    let mut pcs = Vec::new();
    let mut e2es = Vec::new();
    for kind in ProblemKind::all() {
        let n = if kind.components() == 1 { args.size } else { (args.size * 2) / 3 }.max(8);
        let run = |c: Combo| solve_e2e(kind, n, c, c.mg_config(), &opts);
        if let (Ok(f), Ok(m)) = (run(Combo::Full64), run(Combo::D16SetupScale)) {
            pcs.push(f.precond.as_secs_f64() / m.precond.as_secs_f64().max(1e-12));
            e2es.push(f.total().as_secs_f64() / m.total().as_secs_f64().max(1e-12));
        }
    }
    t.row(vec![
        "Ours (measured)".into(),
        "AMG".into(),
        "Yes".into(),
        "FP16/FP32".into(),
        format!("{:.2}x", geomean(&pcs)),
        format!("{:.2}x", geomean(&e2es)),
    ]);
    print!("{t}");
}

// -------------------------------------------------------------- table3 --

fn table3(args: &Args) {
    header("Table 3: problem characteristics");
    let n = capped_size(args, 20);
    let mut t = Table::new(&[
        "problem",
        "PDE",
        "pattern",
        "#dof",
        "#nnz",
        "real?",
        "out-of-fp16?",
        "dist",
        "aniso",
        "cond~",
        "precision",
        "solver",
        "C_G",
        "C_O",
    ]);
    for kind in ProblemKind::all() {
        let p = kind.build(n);
        let (out, dist) = metrics::fp16_distance(&p.matrix);
        let aniso = metrics::anisotropy(&p.matrix);
        let cond = metrics::condition_estimate(&p.matrix, 80);
        let mg = Mg::<f32>::setup(&p.matrix, &Combo::D16SetupScale.mg_config());
        let (cg_c, co_c) = mg
            .as_ref()
            .map(|m| (m.info().grid_complexity, m.info().operator_complexity))
            .unwrap_or((f64::NAN, f64::NAN));
        t.row(vec![
            p.name.to_string(),
            if kind.components() == 1 {
                "scalar".into()
            } else {
                format!("vector{}", kind.components())
            },
            kind.pattern_name().to_string(),
            p.matrix.rows().to_string(),
            p.matrix.nnz().to_string(),
            (!matches!(
                kind,
                ProblemKind::Laplace27 | ProblemKind::Laplace27E8 | ProblemKind::Solid3D
            ))
            .to_string(),
            if out { "Yes".into() } else { "No".to_string() },
            dist.to_string(),
            aniso.label().to_string(),
            format!("{cond:.1e}"),
            "K64/P32/D16".into(),
            match p.solver {
                SolverKind::Cg => "CG".to_string(),
                SolverKind::Gmres => "GMRES".to_string(),
            },
            format!("{cg_c:.2}"),
            format!("{co_c:.2}"),
        ]);
    }
    print!("{t}");
    println!("(#dof/#nnz are for --size {n}; the paper's originals are 2M-637M dof)");
}

// ---------------------------------------------------------------- bf16 --

fn bf16(args: &Args) {
    header("Section 8: FP16 vs BF16 storage (#iter comparison)");
    let opts = solve_opts(args, 500);
    let n = capped_size(args, 20);
    let mut t = Table::new(&["problem", "Full64", "D16 (+%)", "BF16 (+%)"]);
    for kind in ProblemKind::all() {
        let run = |c: Combo| solve_e2e(kind, n, c, c.mg_config(), &opts);
        let (full, d16, b16) = (run(Combo::Full64), run(Combo::D16SetupScale), run(Combo::Bf16));
        let fmt = |r: &Result<fp16mg_bench::E2eResult, String>, base: Option<usize>| match r {
            Ok(r) if r.result.converged() => match base {
                Some(b) if b > 0 => format!(
                    "{} (+{:.0}%)",
                    r.result.iters,
                    100.0 * (r.result.iters as f64 - b as f64) / b as f64
                ),
                _ => r.result.iters.to_string(),
            },
            Ok(r) => format!("{:?}", r.result.reason),
            Err(_) => "setup-fail".into(),
        };
        let base = full.as_ref().ok().map(|r| r.result.iters);
        t.row(vec![kind.name().to_string(), fmt(&full, None), fmt(&d16, base), fmt(&b16, base)]);
    }
    print!("{t}");
    println!("(paper observed FP16 +19% vs BF16 +59% on rhd: fewer mantissa bits cost");
    println!(" more iterations even though BF16 needs no scaling)");
}

// --------------------------------------------------------------- shift --

fn shift(args: &Args) {
    header("Section 4.3 extension: shift_levid sweep (underflow guard position)");
    let opts = solve_opts(args, 500);
    let n = capped_size(args, 20);
    let mut t = Table::new(&["problem", "shift_levid", "#iter", "matrix bytes"]);
    for kind in [ProblemKind::Rhd, ProblemKind::Weather, ProblemKind::Rhd3T] {
        for lev in [0usize, 1, 2, 3, usize::MAX] {
            let combo = if lev == usize::MAX { Combo::D16SetupScale } else { Combo::D16Shift(lev) };
            match solve_e2e(kind, n, combo, combo.mg_config(), &opts) {
                Ok(r) => t.row(vec![
                    kind.name().to_string(),
                    if lev == usize::MAX { "all-fp16".into() } else { lev.to_string() },
                    format!("{}{}", r.result.iters, if r.result.converged() { "" } else { "!" }),
                    r.matrix_bytes.to_string(),
                ]),
                Err(e) => {
                    t.row(vec![kind.name().to_string(), lev.to_string(), "setup-fail".into(), e])
                }
            }
        }
    }
    print!("{t}");
    println!("(shift_levid = 0 stores everything in FP32; larger values push FP16");
    println!(" deeper; 'all-fp16' = the default policy)");
}

// -------------------------------------------------------------- smooth --

fn smooth(args: &Args) {
    header("Section 8: smoothing-count sensitivity (ν1 = ν2 = ν)");
    let opts = solve_opts(args, 500);
    let n = capped_size(args, 24);
    let mut t = Table::new(&["problem", "nu", "combo", "#iter", "total", "E2E speedup"]);
    for kind in [ProblemKind::Laplace27, ProblemKind::Rhd, ProblemKind::Oil] {
        for nu in [1usize, 2] {
            let run = |c: Combo| {
                solve_e2e(kind, n, c, MgConfig { nu1: nu, nu2: nu, ..c.mg_config() }, &opts)
            };
            let full = run(Combo::Full64);
            let mix = run(Combo::D16SetupScale);
            if let (Ok(f), Ok(m)) = (full, mix) {
                let sp = f.total().as_secs_f64() / m.total().as_secs_f64().max(1e-12);
                for r in [&f, &m] {
                    t.row(vec![
                        kind.name().to_string(),
                        nu.to_string(),
                        r.combo.label(),
                        r.result.iters.to_string(),
                        fmt_secs(r.total().as_secs_f64()),
                        if r.combo == Combo::D16SetupScale {
                            format!("{sp:.2}x")
                        } else {
                            String::new()
                        },
                    ]);
                }
            }
        }
    }
    print!("{t}");
    println!("(more smoothing makes MG heavier ⇒ larger FP16 E2E leverage, per §8)");
}

// --------------------------------------------------------------- cycle --

fn cycle_ablation(args: &Args) {
    header("Extension: cycle-shape ablation (V vs W vs F)");
    use fp16mg_core::Cycle;
    let opts = solve_opts(args, 400);
    let n = capped_size(args, 24);
    let mut t = Table::new(&["problem", "cycle", "#iter", "MG precond", "total"]);
    for kind in [ProblemKind::Laplace27, ProblemKind::Oil, ProblemKind::Weather] {
        for cyc in [Cycle::V, Cycle::W, Cycle::F] {
            let combo = Combo::D16SetupScale;
            let cfg = MgConfig { cycle: cyc, ..combo.mg_config() };
            if let Ok(r) = solve_e2e(kind, n, combo, cfg, &opts) {
                t.row(vec![
                    kind.name().to_string(),
                    format!("{cyc:?}"),
                    format!("{}{}", r.result.iters, if r.result.converged() { "" } else { "!" }),
                    fmt_secs(r.precond.as_secs_f64()),
                    fmt_secs(r.total().as_secs_f64()),
                ]);
            }
        }
    }
    print!("{t}");
    println!("(the paper uses V exclusively; W/F trade time per cycle for fewer");
    println!(" iterations and a larger coarse-level share — mostly a wash at ν = 1)");
}

// ---------------------------------------------------------------- semi --

fn semi_ablation(args: &Args) {
    header("Extension: full vs semicoarsening on the anisotropic problems");
    use fp16mg_core::Coarsening;
    let opts = solve_opts(args, 400);
    let n = capped_size(args, 24);
    let mut t = Table::new(&["problem", "coarsening", "#iter", "C_G", "C_O", "total"]);
    for kind in [ProblemKind::Oil, ProblemKind::Weather, ProblemKind::Laplace27] {
        for (label, coarsening) in
            [("full", Coarsening::Full), ("semi(0.5)", Coarsening::Semi { threshold: 0.5 })]
        {
            let combo = Combo::D16SetupScale;
            let cfg = MgConfig { coarsening, ..combo.mg_config() };
            if let Ok(r) = solve_e2e(kind, n, combo, cfg, &opts) {
                t.row(vec![
                    kind.name().to_string(),
                    label.into(),
                    format!("{}{}", r.result.iters, if r.result.converged() { "" } else { "!" }),
                    format!("{:.2}", r.complexities.0),
                    format!("{:.2}", r.complexities.1),
                    fmt_secs(r.total().as_secs_f64()),
                ]);
            }
        }
    }
    print!("{t}");
    println!("(semicoarsening collapses the strong direction first: fewer iterations");
    println!(" on anisotropic problems at higher grid complexity — the PFMG trade)");
}

// --------------------------------------------------------------- audit --

fn audit_cmd(args: &Args) {
    header("Precision-safety audit: per-level FP16 range tables, shift_levid: Auto");
    fp16mg_bench::audit_report(capped_size(args, 24));
}

// -------------------------------------------------------------- daemon --

fn mem_budget(args: &Args) -> Option<u64> {
    (args.mem_budget > 0).then_some(args.mem_budget)
}

fn daemon_cmd(args: &Args) {
    use fp16mg_runtime::serve::{serve_net, NetServeConfig};
    if args.addr.is_empty() {
        usage("serve --daemon needs --addr");
    }
    let state_dir = if args.snapshot_dir.is_empty() {
        std::path::PathBuf::from(&args.out).join("netdaemon-state")
    } else {
        std::path::PathBuf::from(&args.snapshot_dir)
    };
    let cfg = NetServeConfig {
        size: capped_size(args, 10),
        tol: args.tol,
        threads: cli_threads(args),
        mem_budget: mem_budget(args),
        ..NetServeConfig::new(parse_addr(&args.addr), state_dir)
    };
    let report = serve_net(&cfg, std::sync::Arc::new(fp16mg_runtime::RealStorage));
    for v in &report.violations {
        eprintln!("netdaemon violation: {v}");
    }
    std::process::exit(i32::from(!(report.violations.is_empty() && report.drained)));
}

/// The single kernel-parallelism count serving commands use: the first
/// `--threads` value (the flag doubles as a comma list for the scaling
/// figures; serving wants one knob).
fn cli_threads(args: &Args) -> usize {
    args.threads.first().copied().unwrap_or(1)
}

/// The problem size under a command's ceiling. Clamping a `--size` the
/// user gave is said on stderr, never silent.
fn capped_size(args: &Args, cap: usize) -> usize {
    if args.size_set && args.size > cap {
        eprintln!("note: --size {} exceeds this command's limit; using {cap}", args.size);
    }
    args.size.min(cap)
}

fn parse_addr(addr: &str) -> fp16mg_runtime::Endpoint {
    fp16mg_runtime::Endpoint::parse(addr).unwrap_or_else(|e| usage(&format!("--addr: {e}")))
}

// ------------------------------------------------------------- loadgen --

fn loadgen_cmd(args: &Args) {
    if args.addr.is_empty() {
        usage("loadgen needs --addr (or --soak for the self-contained acceptance run)");
    }
    let cfg = fp16mg_bench::LoadgenConfig {
        endpoint: parse_addr(&args.addr),
        requests: args.requests as u64,
        size: capped_size(args, 10),
        tol: args.tol,
        seed: 0x6c6f_6164,
        shutdown: args.shutdown,
    };
    std::process::exit(fp16mg_bench::run_loadgen(&cfg));
}

fn net_soak_cmd(args: &Args) {
    header(
        "Soak: kill/restart acceptance — SIGKILLed daemon, exactly-once trail, replayed decisions",
    );
    let cfg = fp16mg_bench::NetSoakConfig {
        requests: args.requests as u64,
        kill_after: args.kill_after,
        size: capped_size(args, 10),
        tol: args.tol,
        threads: cli_threads(args),
        mem_budget: mem_budget(args),
        out: std::path::PathBuf::from(&args.out),
    };
    std::process::exit(fp16mg_bench::run_net_soak(&cfg));
}

// ------------------------------------------------------------ simulate --

/// Resolves `--problem`: `all` means the three time-dependent example
/// scenarios; any paper problem name selects a single trajectory.
fn sim_kinds(problem: &str) -> Vec<ProblemKind> {
    if problem == "all" {
        return vec![ProblemKind::Oil, ProblemKind::Rhd, ProblemKind::Weather];
    }
    match ProblemKind::all().iter().copied().find(|k| k.name() == problem) {
        Some(k) => vec![k],
        None => {
            let valid: Vec<&str> = ProblemKind::all().iter().map(|k| k.name()).collect();
            usage(&format!(
                "unknown problem '{problem}', valid names are all, {}",
                valid.join(", ")
            ))
        }
    }
}

fn simulate_cmd(args: &Args) {
    header("Simulate: drift-resilient time stepping with crash-safe resume");
    let size = if args.size_set { args.size } else { 12 };
    let mut worst = 0;
    for kind in sim_kinds(&args.problem) {
        let cfg = fp16mg_bench::SimConfig {
            kind,
            steps: args.steps,
            size,
            tol: args.tol,
            chaos: args.chaos,
            snapshot_dir: (!args.snapshot_dir.is_empty())
                .then(|| std::path::PathBuf::from(&args.snapshot_dir)),
            ack: true,
            ..fp16mg_bench::SimConfig::new(kind, args.steps, size, args.tol)
        };
        worst = worst.max(fp16mg_bench::run_sim_cli(cfg));
    }
    std::process::exit(worst);
}

// --------------------------------------------------------------- guard --

fn guard(args: &Args) {
    header("Robustness: fault-injected FP16 levels — detect, promote, converge");
    let opts = solve_opts(args, 500);
    let n = capped_size(args, 20);
    let mut t = Table::new(&[
        "problem",
        "scenario",
        "#iter",
        "rel.resid",
        "promoted",
        "restarts",
        "events",
    ]);
    let mut all_events: Vec<String> = Vec::new();
    for kind in [ProblemKind::Laplace27, ProblemKind::Rhd, ProblemKind::Weather] {
        let p = kind.build(n);
        for (label, combo, inject) in [
            ("Full64 clean", Combo::Full64, false),
            ("Mix16 clean", Combo::D16SetupScale, false),
            ("Mix16 injected", Combo::D16SetupScale, true),
        ] {
            let cells = if combo.p64() {
                guard_row::<f64>(&p, combo, inject, &opts, &mut all_events)
            } else {
                guard_row::<f32>(&p, combo, inject, &opts, &mut all_events)
            };
            let mut row = vec![kind.name().to_string(), label.to_string()];
            row.extend(cells);
            row.resize(7, String::new());
            t.row(row);
        }
    }
    print!("{t}");
    if !all_events.is_empty() {
        println!("\npromotion log:");
        for e in &all_events {
            println!("  {e}");
        }
    }
    println!("(expect: clean rows promote nothing; injected rows detect the corrupt");
    println!(" FP16 level inside one V-cycle, promote it to FP32, and converge to");
    println!(" the same tolerance as the clean run)");
}

/// One `guard` scenario at computation precision `Pr`: sets up, injects
/// infinities into the finest 16-bit level when asked, solves guarded, and
/// returns the row's cells after problem and scenario (fewer when set-up
/// fails or there is nothing to inject into).
fn guard_row<Pr: Scalar>(
    p: &Problem,
    combo: Combo,
    inject: bool,
    opts: &SolveOptions,
    events: &mut Vec<String>,
) -> Vec<String> {
    use fp16mg_bench::{finest_narrow_level, solve_guarded};
    use fp16mg_sgdia::fault::FaultSpec;

    let mut mg = match Mg::<Pr>::setup(&p.matrix, &combo.mg_config()) {
        Ok(m) => m,
        Err(e) => return vec!["setup-fail".into(), e.to_string()],
    };
    if inject {
        let Some(lev) = finest_narrow_level(&mg) else { return vec!["no 16-bit level".into()] };
        let spec = FaultSpec::inf(2e-4, 0xfeed);
        let report = mg.stored_mut(lev).expect("narrow level exists").inject_faults(&spec);
        events.push(format!(
            "{}: injected {} Inf values into level {lev} ({:?})",
            p.name,
            report.infs.max(1),
            mg.info().levels[lev].precision,
        ));
        if report.infs == 0 {
            // Rate too low for a small matrix: force one.
            mg.stored_mut(lev).expect("narrow level").inject_inf_at(0, 0);
        }
    }
    let out = solve_guarded(p, &mut mg, opts, Par::Seq);
    events.extend(out.promotions.iter().map(|ev| format!("{}: {ev}", p.name)));
    vec![
        format!("{}{}", out.result.iters, if out.converged() { "" } else { "!" }),
        format!("{:9.2e}", out.result.final_rel_residual),
        out.promotions.len().to_string(),
        out.restarts.to_string(),
        out.promotions
            .iter()
            .map(|e| format!("L{}:{}", e.level, e.reason))
            .collect::<Vec<_>>()
            .join("; "),
    ]
}
