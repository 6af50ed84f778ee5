//! Regenerates every table and figure of the paper's evaluation.
//!
//! ```text
//! repro <experiment> [--size N] [--tol T] [--threads N1,N2,...] [--budget-ms B]
//!                    [--requests N] [--workers N] [--chaos] [--overload] [--out DIR]
//! experiments: fig1 table2 fig3 fig5 fig6 fig7 fig8 fig10 table1 table3
//!              bf16 shift smooth guard audit serve chaos overload simulate
//!              loadgen torture memtorture nettorture all
//! ```
//!
//! `serve` fires a batch of mixed clean/fault-injected/panicking solve
//! requests through the concurrent resilient runtime and prints one typed
//! outcome per request (`--requests`, `--workers`, `--budget-ms` set the
//! batch size, pool width, and the deadline-limited request's deadline).
//! With `--chaos` (or the `chaos` experiment, its alias) the batch mixes
//! seeded single-bit flips into mid-hierarchy FP16 coefficient planes:
//! the integrity sentinels must detect, localize, and repair them via
//! the `repair-level` rung, visible in the per-request `repairs` column.
//! With `--overload` (or the `overload` experiment, its alias) the demo
//! instead drives an oversubscribed mixed-priority batch through the
//! admission-controlled `ServePool`: bounded queueing, best-effort-first
//! load shedding, degraded-mode solves with their `DegradeEvent` trail,
//! and a per-class circuit breaker that opens on a poisoned problem
//! class and recovers via a half-open probe. The process exits nonzero
//! if any acceptance invariant is violated.
//!
//! `serve --daemon --addr unix:PATH|tcp:HOST:PORT` runs the daemon
//! (`fp16mg_runtime::serve`: one request at a time off the wire, solve →
//! fsynced trail → checkpoint → ack, state under `--snapshot-dir`)
//! until a client asks it to drain; `--mem-budget` puts its pool under a
//! byte budget. `loadgen --addr …` drives it (`--shutdown` drains it),
//! `loadgen --soak` is the self-contained kill/restart acceptance
//! (`--kill-after`, optionally `--mem-budget`), `nettorture` the
//! wire-fault matrix, and `serve --daemon --chaos` the wedge-detection
//! and quarantine demo on the daemon's pool shape.
//!
//! `simulate` advances `--problem` (or the three time-dependent example
//! scenarios with `all`) through `--steps` implicit steps, reusing the
//! multigrid hierarchy across steps under an audit-driven
//! keep/rescale/rebuild policy, and prints the per-step cost/accuracy
//! table plus the amortized setup win over a fresh-setup-every-step
//! baseline. With `--snapshot-dir` every committed step is checkpointed
//! and a killed run resumes bit-identically; `--soak` proves it with a
//! real SIGKILL (run directories under `--out`), and `--chaos` runs the
//! deterministic fault schedule that exercises every reuse decision and
//! recovery rung.
//!
//! `torture` runs the storage-fault crash-point matrix: the simulation
//! durability stack is replayed on a deterministic fault-injecting
//! in-memory storage backend, with power loss at every I/O operation
//! index plus torn-write, failed-fsync, lying-fsync, ENOSPC-burst, and
//! read-corruption schedules. It exits zero only if every acknowledged
//! step survived every crash point, corrupt snapshot slots were
//! quarantined with fallback, every fault class actually fired, and a
//! deliberately broken write order was detected by the harness itself.
//! `memtorture` (allocation faults at every charged byte) and
//! `nettorture` (wire faults at every frame boundary) are its siblings;
//! all three print the one `bench::matrix` verdict.
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
use fp16mg_core::Mg;
use fp16mg_krylov::SolveOptions;
use fp16mg_problems::{metrics, ProblemKind, SolverKind};
use fp16mg_sgdia::kernels::Par;
use fp16mg_sgdia::model;

struct Args {
    cmd: String,
    size: usize,
    size_set: bool,
    tol: f64,
    threads: Vec<usize>,
    budget_ms: f64,
    smoother: Option<String>,
    requests: usize,
    requests_set: bool,
    workers: usize,
    chaos: bool,
    overload: bool,
    daemon: bool,
    soak: bool,
    snapshot_dir: String,
    kill_after: usize,
    pace_ms: u64,
    mem_budget: u64,
    steps: u64,
    problem: String,
    out: String,
    addr: String,
    shutdown: bool,
}

fn usage(msg: &str) -> ! {
    eprintln!("{msg}");
    eprintln!("usage: repro <experiment> [--size N] [--tol T] [--threads N1,N2,...] [--budget-ms B] [--smoother gs|jacobi|symgs|ilu0] [--requests N] [--workers N] [--chaos] [--overload] [--daemon] [--soak] [--snapshot-dir DIR] [--kill-after N] [--pace-ms MS] [--mem-budget BYTES] [--steps N] [--problem NAME|all] [--out DIR] [--addr unix:PATH|tcp:HOST:PORT] [--shutdown]");
    eprintln!("daemon: `serve --daemon --addr …` serves over the wire (`--snapshot-dir`, `--mem-budget`); `loadgen --addr …` drives it (`--shutdown` drains); `loadgen --soak [--kill-after N] [--mem-budget BYTES]` is the kill/restart acceptance; `serve --daemon --chaos` the supervision demo; `nettorture` the wire-fault matrix");
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
        budget_ms: 30.0,
        smoother: None,
        requests: 16,
        requests_set: false,
        workers: 0,
        chaos: false,
        overload: false,
        daemon: false,
        soak: false,
        snapshot_dir: String::new(),
        kill_after: 0,
        pace_ms: 0,
        mem_budget: 0,
        steps: 12,
        problem: "all".into(),
        out: ".".into(),
        addr: String::new(),
        shutdown: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--size" => {
                args.size = arg_value(&mut it, "--size");
                args.size_set = true;
            }
            "--tol" => args.tol = arg_value(&mut it, "--tol"),
            "--budget-ms" => args.budget_ms = arg_value(&mut it, "--budget-ms"),
            "--requests" => {
                args.requests = arg_value(&mut it, "--requests");
                args.requests_set = true;
            }
            "--workers" => args.workers = arg_value(&mut it, "--workers"),
            "--chaos" => args.chaos = true,
            "--overload" => args.overload = true,
            "--daemon" => args.daemon = true,
            "--soak" => args.soak = true,
            "--snapshot-dir" => args.snapshot_dir = arg_value(&mut it, "--snapshot-dir"),
            "--kill-after" => args.kill_after = arg_value(&mut it, "--kill-after"),
            "--pace-ms" => args.pace_ms = arg_value(&mut it, "--pace-ms"),
            "--mem-budget" => args.mem_budget = arg_value(&mut it, "--mem-budget"),
            "--steps" => args.steps = arg_value(&mut it, "--steps"),
            "--problem" => args.problem = arg_value(&mut it, "--problem"),
            "--out" => args.out = arg_value(&mut it, "--out"),
            "--addr" => args.addr = arg_value(&mut it, "--addr"),
            "--shutdown" => args.shutdown = true,
            "--smoother" => {
                let Some(s) = it.next() else { usage("--smoother needs a value") };
                args.smoother = Some(s)
            }
            "--threads" => {
                let Some(list) = it.next() else { usage("--threads needs a value") };
                args.threads = list
                    .split(',')
                    .map(|s| {
                        s.parse().unwrap_or_else(|_| usage(&format!("--threads: bad count '{s}'")))
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
        "fig1" => fig1(&args),
        "table2" => table2(),
        "fig3" => fig3(&args),
        "fig5" => fig5(&args),
        "fig6" => fig6(&args),
        "fig7" => fig7(&args),
        "fig8" | "fig9" => fig8(&args),
        "fig10" => fig10(&args),
        "table1" => table1(&args),
        "table3" => table3(&args),
        "bf16" => bf16(&args),
        "shift" => shift(&args),
        "smooth" => smooth(&args),
        "cycle" => cycle_ablation(&args),
        "semi" => semi_ablation(&args),
        "guard" => guard(&args),
        "audit" => audit_cmd(&args),
        "serve" if args.daemon => daemon_cmd(&args),
        "serve" if args.overload => overload_cmd(&args),
        "serve" => serve_cmd(&args, args.chaos),
        "chaos" => serve_cmd(&args, true),
        "overload" => overload_cmd(&args),
        "simulate" if args.soak => simulate_soak_cmd(&args),
        "simulate" => simulate_cmd(&args),
        "loadgen" if args.soak => net_soak_cmd(&args),
        "loadgen" => loadgen_cmd(&args),
        "nettorture" => nettorture_cmd(&args),
        "torture" => torture_cmd(&args),
        "memtorture" => memtorture_cmd(&args),
        "all" => {
            fig1(&args);
            table2();
            fig3(&args);
            fig5(&args);
            fig6(&args);
            fig7(&args);
            fig8(&args);
            fig10(&args);
            table1(&args);
            table3(&args);
            bf16(&args);
            shift(&args);
            smooth(&args);
            cycle_ablation(&args);
            semi_ablation(&args);
            guard(&args);
            audit_cmd(&args);
            serve_cmd(&args, false);
            serve_cmd(&args, true);
            overload_cmd(&args);
        }
        other => {
            eprintln!("unknown experiment '{other}'");
            std::process::exit(2);
        }
    }
}

/// Parses the --smoother override.
fn smoother_from(s: &Option<String>) -> Option<fp16mg_core::SmootherKind> {
    use fp16mg_core::SmootherKind;
    s.as_deref().map(|v| match v {
        "gs" => SmootherKind::GsSymmetric,
        "symgs" => SmootherKind::SymGs,
        "jacobi" => SmootherKind::Jacobi { weight: 0.85 },
        "ilu0" => SmootherKind::Ilu0,
        "chebyshev" | "cheb" => SmootherKind::Chebyshev { degree: 2 },
        other => panic!("unknown smoother '{other}' (gs|symgs|jacobi|ilu0|chebyshev)"),
    })
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
            .map(|c| (c, solve_e2e(kind, n, c, &opts, Par::Seq)))
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
    let rows = kernel_suite(&sizes, Par::Seq, args.budget_ms);
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
            let pattern = match fp16mg_stencil::Pattern::from_name(full_pat) {
                Ok(p) => p,
                Err(e) => {
                    eprintln!("fig7: {e}");
                    std::process::exit(2);
                }
            };
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
    if let Some(sm) = &args.smoother {
        println!("(smoother override: {sm})");
    }
    // Bandwidth-pressure regime: the finest-level matrix should stress the
    // LLC, so the default is production-ish.
    let size = if args.size_set { args.size } else { 88 };
    let opts =
        SolveOptions { tol: args.tol, max_iters: 500, record_history: false, ..Default::default() };
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
        let run = |combo: Combo| {
            let p = kind.build(n);
            let mut cfg = combo.mg_config();
            if let Some(sm) = smoother_from(&args.smoother) {
                cfg.smoother = sm;
            }
            run_with_config(&p, combo, cfg, &opts)
        };
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
    let opts =
        SolveOptions { tol: args.tol, max_iters: 500, record_history: false, ..Default::default() };
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
            let (full, mix) = (
                solve_e2e(kind, n, Combo::Full64, &opts, par),
                solve_e2e(kind, n, Combo::D16SetupScale, &opts, par),
            );
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
    println!(
        "(threads swept: {:?}; on a single-core host this degenerates to one row",
        args.threads
    );
    println!(" per problem — see EXPERIMENTS.md)");

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
    let opts =
        SolveOptions { tol: args.tol, max_iters: 500, record_history: false, ..Default::default() };
    let mut pcs = Vec::new();
    let mut e2es = Vec::new();
    for kind in ProblemKind::all() {
        let n = if kind.components() == 1 { args.size } else { (args.size * 2) / 3 }.max(8);
        if let (Ok(f), Ok(m)) = (
            solve_e2e(kind, n, Combo::Full64, &opts, Par::Seq),
            solve_e2e(kind, n, Combo::D16SetupScale, &opts, Par::Seq),
        ) {
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
    let opts =
        SolveOptions { tol: args.tol, max_iters: 500, record_history: false, ..Default::default() };
    let n = capped_size(args, 20);
    let mut t = Table::new(&["problem", "Full64", "D16 (+%)", "BF16 (+%)"]);
    for kind in ProblemKind::all() {
        let full = solve_e2e(kind, n, Combo::Full64, &opts, Par::Seq);
        let d16 = solve_e2e(kind, n, Combo::D16SetupScale, &opts, Par::Seq);
        let b16 = solve_e2e(kind, n, Combo::Bf16, &opts, Par::Seq);
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
    let opts =
        SolveOptions { tol: args.tol, max_iters: 500, record_history: false, ..Default::default() };
    let n = capped_size(args, 20);
    let mut t = Table::new(&["problem", "shift_levid", "#iter", "matrix bytes"]);
    for kind in [ProblemKind::Rhd, ProblemKind::Weather, ProblemKind::Rhd3T] {
        for lev in [0usize, 1, 2, 3, usize::MAX] {
            let combo = if lev == usize::MAX { Combo::D16SetupScale } else { Combo::D16Shift(lev) };
            match solve_e2e(kind, n, combo, &opts, Par::Seq) {
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
    let opts =
        SolveOptions { tol: args.tol, max_iters: 500, record_history: false, ..Default::default() };
    let n = capped_size(args, 24);
    let mut t = Table::new(&["problem", "nu", "combo", "#iter", "total", "E2E speedup"]);
    for kind in [ProblemKind::Laplace27, ProblemKind::Rhd, ProblemKind::Oil] {
        for nu in [1usize, 2] {
            let run = |combo: Combo| {
                let p = kind.build(n);
                let mut cfg = combo.mg_config();
                cfg.nu1 = nu;
                cfg.nu2 = nu;
                run_with_config(&p, combo, cfg, &opts)
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
    let opts =
        SolveOptions { tol: args.tol, max_iters: 400, record_history: false, ..Default::default() };
    let n = capped_size(args, 24);
    let mut t = Table::new(&["problem", "cycle", "#iter", "MG precond", "total"]);
    for kind in [ProblemKind::Laplace27, ProblemKind::Oil, ProblemKind::Weather] {
        for cyc in [Cycle::V, Cycle::W, Cycle::F] {
            let p = kind.build(n);
            let mut cfg = Combo::D16SetupScale.mg_config();
            cfg.cycle = cyc;
            if let Ok(r) = run_with_config(&p, Combo::D16SetupScale, cfg, &opts) {
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
    let opts =
        SolveOptions { tol: args.tol, max_iters: 400, record_history: false, ..Default::default() };
    let n = capped_size(args, 24);
    let mut t = Table::new(&["problem", "coarsening", "#iter", "C_G", "C_O", "total"]);
    for kind in [ProblemKind::Oil, ProblemKind::Weather, ProblemKind::Laplace27] {
        for (label, coarsening) in
            [("full", Coarsening::Full), ("semi(0.5)", Coarsening::Semi { threshold: 0.5 })]
        {
            let p = kind.build(n);
            let mut cfg = Combo::D16SetupScale.mg_config();
            cfg.coarsening = coarsening;
            if let Ok(r) = run_with_config(&p, Combo::D16SetupScale, cfg, &opts) {
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

// --------------------------------------------------------------- serve --

fn serve_cmd(args: &Args, chaos: bool) {
    if chaos {
        header("Resilient runtime: chaos batch — bit-flip upsets under the retry ladder");
    } else {
        header("Resilient runtime: concurrent mixed batch under the retry ladder");
    }
    let workers = if args.workers > 0 {
        args.workers
    } else {
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4).min(8)
    };
    let cfg = fp16mg_bench::ServeConfig {
        requests: args.requests,
        workers,
        size: capped_size(args, 12),
        tol: args.tol,
        deadline_ms: args.budget_ms,
        chaos,
    };
    fp16mg_bench::serve(&cfg);
    if chaos {
        println!("(expect: flip rows fail their corrupted attempt, then the repair-level");
        println!(" rung localizes the upset — see the repairs column, `L<level>:t<tap>` —");
        println!(" and re-solves the mended hierarchy without any rebuild; the panic row");
        println!(" stays isolated and every outcome is typed)");
    } else {
        println!("(expect: clean rows converge on the first rung; fault rows climb the");
        println!(" ladder to their first clean configuration; the panic row is isolated;");
        println!(" the deadline and no-converge rows end with typed errors)");
    }
}

// -------------------------------------------------------------- daemon --

fn mem_budget(args: &Args) -> Option<u64> {
    (args.mem_budget > 0).then_some(args.mem_budget)
}

fn daemon_cmd(args: &Args) {
    use fp16mg_runtime::serve::{serve_net, NetServeConfig};
    let workers = if args.workers > 0 { args.workers } else { 2 };
    let size = capped_size(args, 10);
    if args.chaos {
        std::process::exit(fp16mg_bench::serve_supervision_chaos(size, workers, mem_budget(args)));
    }
    if args.addr.is_empty() {
        usage("serve --daemon needs --addr (or --chaos for the supervision demo)");
    }
    let state_dir = if args.snapshot_dir.is_empty() {
        std::path::PathBuf::from(&args.out).join("netdaemon-state")
    } else {
        std::path::PathBuf::from(&args.snapshot_dir)
    };
    let cfg = NetServeConfig {
        size,
        tol: args.tol,
        workers,
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
        kill_after: if args.kill_after > 0 { args.kill_after as u64 } else { 3 },
        size: capped_size(args, 10),
        tol: args.tol,
        workers: if args.workers > 0 { args.workers } else { 2 },
        threads: cli_threads(args),
        mem_budget: mem_budget(args),
        out: std::path::PathBuf::from(&args.out),
    };
    std::process::exit(fp16mg_bench::run_net_soak(&cfg));
}

// ---------------------------------------------------------- nettorture --

fn nettorture_cmd(args: &Args) {
    header("Wire-fault torture: crash-point matrix over the framed protocol");
    let mut cfg = fp16mg_bench::NetTortureConfig::default();
    if args.size_set {
        cfg.size = capped_size(args, 8);
    }
    if args.requests_set {
        cfg.requests = args.requests.clamp(4, 32) as u64;
    }
    std::process::exit(fp16mg_bench::run_nettorture_cli(&cfg));
}

// ------------------------------------------------------------ overload --

fn overload_cmd(args: &Args) {
    header("Overload protection: admission control, shedding, circuit breaking");
    let workers = if args.workers > 0 { args.workers } else { 2 };
    let cfg = fp16mg_bench::OverloadConfig { size: capped_size(args, 10), tol: args.tol, workers };
    let report = fp16mg_bench::serve_overload(&cfg);
    if !report.violations.is_empty() {
        eprintln!("overload demo: {} acceptance violation(s)", report.violations.len());
        std::process::exit(1);
    }
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
            pace_ms: args.pace_ms,
            ack: true,
            ..fp16mg_bench::SimConfig::new(kind, args.steps, size, args.tol)
        };
        worst = worst.max(fp16mg_bench::run_sim_cli(cfg));
    }
    std::process::exit(worst);
}

fn torture_cmd(args: &Args) {
    header("Torture: storage-fault injection across every crash point of the durability stack");
    let kind = if args.problem == "all" { ProblemKind::Oil } else { sim_kinds(&args.problem)[0] };
    let cfg = fp16mg_bench::TortureConfig {
        kind,
        steps: if args.steps == 12 { 4 } else { args.steps.clamp(2, 8) },
        size: if args.size_set { capped_size(args, 10) } else { 6 },
        tol: args.tol.max(1e-7),
    };
    std::process::exit(fp16mg_bench::run_torture_cli(&cfg));
}

fn memtorture_cmd(args: &Args) {
    header("Memtorture: allocation-fault injection across every charged byte of the serve stack");
    let cfg = fp16mg_bench::MemTortureConfig {
        size: if args.size_set { capped_size(args, 10) } else { 6 },
        tol: args.tol.max(1e-8),
    };
    std::process::exit(fp16mg_bench::run_memtorture_cli(&cfg));
}

fn simulate_soak_cmd(args: &Args) {
    header("Simulate soak: SIGKILL mid-run, resume, bit-identical decision trail");
    let kind = if args.problem == "all" { ProblemKind::Oil } else { sim_kinds(&args.problem)[0] };
    let cfg = fp16mg_bench::SimSoakConfig {
        kind,
        steps: args.steps.max(12),
        size: if args.size_set { capped_size(args, 12) } else { 8 },
        tol: args.tol,
        kill_after: if args.kill_after > 0 { args.kill_after } else { 4 },
        out: std::path::PathBuf::from(&args.out).join("sim-soak"),
    };
    std::process::exit(fp16mg_bench::run_sim_soak(&cfg));
}

// --------------------------------------------------------------- guard --

fn guard(args: &Args) {
    header("Robustness: fault-injected FP16 levels — detect, promote, converge");
    use fp16mg_bench::{finest_narrow_level, solve_guarded};
    use fp16mg_sgdia::fault::FaultSpec;

    let opts =
        SolveOptions { tol: args.tol, max_iters: 500, record_history: false, ..Default::default() };
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
        // Each scenario: (label, combo, inject?).
        for (label, combo, inject) in [
            ("Full64 clean", Combo::Full64, false),
            ("Mix16 clean", Combo::D16SetupScale, false),
            ("Mix16 injected", Combo::D16SetupScale, true),
        ] {
            macro_rules! go {
                ($pr:ty) => {{
                    let mut mg = match Mg::<$pr>::setup(&p.matrix, &combo.mg_config()) {
                        Ok(m) => m,
                        Err(e) => {
                            t.row(vec![
                                kind.name().into(),
                                label.into(),
                                "setup-fail".into(),
                                e.to_string(),
                                String::new(),
                                String::new(),
                                String::new(),
                            ]);
                            continue;
                        }
                    };
                    if inject {
                        match finest_narrow_level(&mg) {
                            Some(lev) => {
                                let spec = FaultSpec::inf(2e-4, 0xfeed);
                                let report = mg
                                    .stored_mut(lev)
                                    .expect("narrow level exists")
                                    .inject_faults(&spec);
                                all_events.push(format!(
                                    "{}: injected {} Inf values into level {lev} ({:?})",
                                    kind.name(),
                                    report.infs.max(1),
                                    mg.info().levels[lev].precision,
                                ));
                                if report.infs == 0 {
                                    // Rate too low for a small matrix: force one.
                                    mg.stored_mut(lev).expect("narrow level").inject_inf_at(0, 0);
                                }
                            }
                            None => {
                                t.row(vec![
                                    kind.name().into(),
                                    label.into(),
                                    "no 16-bit level".into(),
                                    String::new(),
                                    String::new(),
                                    String::new(),
                                    String::new(),
                                ]);
                                continue;
                            }
                        }
                    }
                    let out = solve_guarded(&p, &mut mg, &opts, Par::Seq);
                    for ev in &out.promotions {
                        all_events.push(format!("{}: {ev}", kind.name()));
                    }
                    t.row(vec![
                        kind.name().into(),
                        label.into(),
                        format!("{}{}", out.result.iters, if out.converged() { "" } else { "!" }),
                        format!("{:9.2e}", out.result.final_rel_residual),
                        out.promotions.len().to_string(),
                        out.restarts.to_string(),
                        out.promotions
                            .iter()
                            .map(|e| format!("L{}:{}", e.level, e.reason))
                            .collect::<Vec<_>>()
                            .join("; "),
                    ]);
                }};
            }
            if combo.p64() {
                go!(f64)
            } else {
                go!(f32)
            }
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

/// Variant of solve_e2e with an explicit config (for the nu sweep).
fn run_with_config(
    p: &fp16mg_problems::Problem,
    combo: Combo,
    cfg: fp16mg_core::MgConfig,
    opts: &SolveOptions,
) -> Result<fp16mg_bench::E2eResult, String> {
    use fp16mg_core::MatOp;
    use fp16mg_krylov::{cg, gmres, TimedPrecond};
    use std::time::Instant;

    macro_rules! go {
        ($pr:ty) => {{
            let t0 = Instant::now();
            let mg = Mg::<$pr>::setup(&p.matrix, &cfg).map_err(|e| e.to_string())?;
            let setup = t0.elapsed();
            let matrix_bytes = mg.info().matrix_bytes;
            let workspace_bytes = mg.workspace_bytes();
            let complexities = (mg.info().grid_complexity, mg.info().operator_complexity);
            let mut timed = TimedPrecond::new(mg);
            let op = MatOp::new(&p.matrix, Par::Seq);
            let b = p.rhs();
            let mut x = vec![0.0f64; p.matrix.rows()];
            let t1 = Instant::now();
            let result = match p.solver {
                SolverKind::Cg => cg(&op, &mut timed, &b, &mut x, opts),
                SolverKind::Gmres => gmres(&op, &mut timed, &b, &mut x, opts),
            };
            let solve = t1.elapsed();
            let precond = timed.elapsed().min(solve);
            Ok(fp16mg_bench::E2eResult {
                problem: p.name,
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
        }};
    }
    if combo.p64() {
        go!(f64)
    } else {
        go!(f32)
    }
}
