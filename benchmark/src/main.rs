//! The repo benchmark (see `benchmark/README.md`).
//!
//! ```text
//! fp16mg-benchmark --workload NAME --seed N --seconds S --trace 0|1   one workload; last line is the result object
//! fp16mg-benchmark [--trace] [--quick] [--seed N] [--seconds S]       every workload; writes benchmark/out/results*.json
//! fp16mg-benchmark --compare A.json B.json                            B against A by the manifest's bounds
//! ```
//!
//! Run from the root of the checkout: `BENCHMARK.json` is read from the
//! working directory, `repro` is built there, and everything written goes
//! under `benchmark/out/`.

mod child;
mod inproc;
mod json;
mod layers;
mod reference;
mod report;
mod served;
mod stats;
mod timestep;
mod trace;

use std::path::Path;
use std::process::ExitCode;

use report::{Manifest, Outcome};

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    compare: Option<(String, String)>,
}

const USAGE: &str = "usage: fp16mg-benchmark [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]] [--quick] | --compare A.json B.json";

fn parse_args() -> Result<Args, String> {
    let mut args =
        Args { workload: None, seed: 1, seconds: 12.0, trace: false, quick: false, compare: None };
    let mut it = std::env::args().skip(1).peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value("a name")?),
            "--seed" => {
                args.seed = value("a number")?.parse().map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("a number")?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--compare" => args.compare = Some((value("two files")?, value("two files")?)),
            "--quick" => args.quick = true,
            // The contract passes `--trace 0|1`; by hand a bare `--trace` will do.
            "--trace" => {
                args.trace = match it.next_if(|v| v == "0" || v == "1") {
                    Some(v) => v == "1",
                    None => true,
                }
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if !(args.seconds.is_finite() && args.seconds >= 0.0) {
        return Err("--seconds must be a non-negative number".into());
    }
    Ok(args)
}

fn run_workload(name: &str, args: &Args) -> Result<Outcome, String> {
    if args.trace {
        return layers::run(name, args.seed, args.quick);
    }
    // A smoke test runs each workload's floor and no longer.
    let seconds = if args.quick { 0.0 } else { args.seconds };
    Ok(match name {
        "timestep" => timestep::run(seconds, args.quick),
        "served" => served::run(args.seed, seconds, args.quick),
        _ => {
            let spec =
                inproc::spec(name, args.quick).ok_or(format!("unknown workload `{name}`"))?;
            inproc::run(&spec, args.seed, seconds)
        }
    })
}

fn real_main() -> Result<ExitCode, String> {
    let args = parse_args().map_err(|e| format!("{e}\n{USAGE}"))?;
    let manifest = Manifest::load()?;
    if let Some((a, b)) = &args.compare {
        let worse = report::compare(&manifest, a, b)?;
        println!("{worse} end-to-end metric(s) worse than their bound");
        return Ok(if worse == 0 { ExitCode::SUCCESS } else { ExitCode::FAILURE });
    }
    let selected: Vec<String> = match &args.workload {
        Some(w) if manifest.workloads.contains(w) => vec![w.clone()],
        Some(w) => {
            return Err(format!(
                "unknown workload `{w}`; BENCHMARK.json names {:?}",
                manifest.workloads
            ))
        }
        None => manifest.workloads.clone(),
    };
    child::build_repro()?;

    let mut results = String::from("{");
    let mut failed = 0;
    let mut last_line = String::new();
    for (i, name) in selected.iter().enumerate() {
        let outcome = run_workload(name, &args)?;
        report::print(&manifest, name, args.trace, &outcome);
        // A run whose metrics are not the declared ones has no result.
        manifest.check(args.trace, &outcome).map_err(|e| format!("{name}: {e}"))?;
        failed += outcome.failed;
        last_line = report::result_json(&manifest, args.trace, &outcome);
        results.push_str(&format!(
            "{}\n{}: {last_line}",
            if i == 0 { "" } else { "," },
            json::escape(name)
        ));
    }
    results.push_str("\n}\n");

    if args.workload.is_some() {
        // The contract: the result object is the last line of stdout, and
        // a run that printed one exits 0 — `correct` carries the verdict.
        println!("{last_line}");
        return Ok(ExitCode::SUCCESS);
    }
    let file = format!(
        "results{}{}.json",
        if args.quick { "-quick" } else { "" },
        if args.trace { "-trace" } else { "" }
    );
    let path = Path::new(child::OUT_DIR).join(file);
    std::fs::create_dir_all(child::OUT_DIR)
        .and_then(|()| std::fs::write(&path, results))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!("\nwrote {} ({failed} failed operations)", path.display());
    Ok(if failed == 0 { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

fn main() -> ExitCode {
    real_main().unwrap_or_else(|e| {
        eprintln!("fp16mg-benchmark: {e}");
        ExitCode::from(2)
    })
}
