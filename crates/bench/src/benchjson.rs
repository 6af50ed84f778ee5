//! `repro bench-json`: the machine-readable perf trajectory.
//!
//! Runs the tier-1 end-to-end solves (every paper problem, Full64 and
//! the headline Mix16 configuration) and writes one `BENCH_<problem>.json`
//! per problem with setup/solve timings and iteration counts, so the
//! performance trajectory across PRs can be diffed by tooling instead of
//! eyeballed from tables. The JSON is hand-rolled — the workspace has no
//! serialization dependency, and the schema is flat enough not to need
//! one.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

use fp16mg_core::{GalerkinChain, Mg, MgConfig};
use fp16mg_krylov::SolveOptions;
use fp16mg_problems::ProblemKind;
use fp16mg_runtime::{CacheConfig, HierarchyCache};
use fp16mg_sgdia::kernels::Par;

use crate::{solve_e2e, Combo, E2eResult};

/// Knobs of the emitter, filled from the `repro` command line.
#[derive(Clone, Debug)]
pub struct BenchJsonConfig {
    /// Problem base extent.
    pub size: usize,
    /// Convergence tolerance.
    pub tol: f64,
    /// Directory the `BENCH_<problem>.json` files are written into.
    pub dir: PathBuf,
}

/// The combinations the emitter records: the FP64 baseline and the
/// paper's headline mixed-FP16 configuration.
const COMBOS: [Combo; 2] = [Combo::Full64, Combo::D16SetupScale];

pub(crate) fn esc(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' | '\\' => vec!['\\', c],
            c if (c as u32) < 0x20 => format!("\\u{:04x}", c as u32).chars().collect(),
            c => vec![c],
        })
        .collect()
}

/// A JSON float that always round-trips: finite values in shortest-exact
/// form, non-finite values as null (JSON has no Inf/NaN).
pub(crate) fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn run_json(r: &E2eResult) -> String {
    let mut s = String::new();
    let _ = write!(
        s,
        concat!(
            "    {{\n",
            "      \"combo\": \"{combo}\",\n",
            "      \"converged\": {converged},\n",
            "      \"iters\": {iters},\n",
            "      \"final_rel_residual\": {rel},\n",
            "      \"setup_s\": {setup},\n",
            "      \"precond_s\": {precond},\n",
            "      \"solve_s\": {solve},\n",
            "      \"total_s\": {total},\n",
            "      \"matrix_bytes\": {bytes},\n",
            "      \"workspace_bytes\": {ws},\n",
            "      \"grid_complexity\": {cg},\n",
            "      \"operator_complexity\": {co}\n",
            "    }}"
        ),
        combo = esc(&r.combo.label()),
        converged = r.result.converged(),
        iters = r.result.iters,
        rel = num(r.result.final_rel_residual),
        setup = num(r.setup.as_secs_f64()),
        precond = num(r.precond.as_secs_f64()),
        solve = num(r.solve.as_secs_f64()),
        total = num(r.total().as_secs_f64()),
        bytes = r.matrix_bytes,
        ws = r.workspace_bytes,
        cg = num(r.complexities.0),
        co = num(r.complexities.1),
    );
    s
}

/// Measures the hierarchy-cache split for one problem: a cold
/// `Mg::setup` (Galerkin chain + scale-and-truncate), the chain build
/// alone, and the warm `Mg::setup_from_chain` a cache hit actually pays.
/// Best of three, so the speedup the daemon claims for warm hits is a
/// measured number in the trajectory, not an assertion. `None` when the
/// headline config cannot set the problem up (already recorded as a run
/// error above).
fn cache_json(kind: ProblemKind, n: usize) -> Option<String> {
    let problem = kind.build(n);
    let config = MgConfig::d16();
    let best = |f: &mut dyn FnMut() -> bool| -> Option<f64> {
        let mut best = f64::INFINITY;
        for _ in 0..3 {
            let t = Instant::now();
            if !f() {
                return None;
            }
            best = best.min(t.elapsed().as_secs_f64());
        }
        Some(best)
    };
    let cold = best(&mut || Mg::<f32>::setup(&problem.matrix, &config).is_ok())?;
    let chain_s = best(&mut || GalerkinChain::build(&problem.matrix, &config).is_ok())?;
    let chain = GalerkinChain::build(&problem.matrix, &config).ok()?;
    let warm = best(&mut || Mg::<f32>::setup_from_chain(&chain, &config).is_ok())?;
    let mut s = String::new();
    let _ = write!(
        s,
        concat!(
            "  \"cache\": {{\n",
            "    \"cold_setup_s\": {cold},\n",
            "    \"chain_build_s\": {chain},\n",
            "    \"warm_setup_s\": {warm},\n",
            "    \"warm_speedup\": {speedup}\n",
            "  }},\n"
        ),
        cold = num(cold),
        chain = num(chain_s),
        warm = num(warm),
        speedup = num(if warm > 0.0 { cold / warm } else { f64::NAN }),
    );
    Some(s)
}

/// Measures the memory-resilience numbers for one problem under the
/// headline config: the preallocated V-cycle workspace arena (carved
/// once at setup, so its size *is* the solve-phase peak), the bytes one
/// retained hierarchy chain charges against the cache governor, and a
/// proof that a byte-capped cache actually evicts (two classes pushed
/// through a cache sized for one chain must fire `mem_evictions`).
/// Putting these in the trajectory lets `bench-compare` gate memory
/// regressions the same way it gates convergence. `None` when the
/// headline config cannot set the problem up.
fn memory_json(kind: ProblemKind, n: usize) -> Option<String> {
    let problem = kind.build(n);
    let config = MgConfig::d16();
    let mg = Mg::<f32>::setup(&problem.matrix, &config).ok()?;
    let peak_ws = mg.workspace_bytes();
    drop(mg);
    let mut probe = HierarchyCache::new(CacheConfig::default());
    probe.acquire("bench", &problem.matrix, &config).ok()?;
    let cache_bytes = probe.cache_bytes();
    drop(probe);
    let mut capped = HierarchyCache::new(CacheConfig {
        byte_budget: Some(cache_bytes),
        ..CacheConfig::default()
    });
    capped.acquire("bench-a", &problem.matrix, &config).ok()?;
    capped.acquire("bench-b", &problem.matrix, &config).ok()?;
    let mut s = String::new();
    let _ = write!(
        s,
        concat!(
            "  \"memory\": {{\n",
            "    \"peak_ws_bytes\": {ws},\n",
            "    \"cache_bytes\": {cb},\n",
            "    \"mem_evictions\": {ev}\n",
            "  }},\n"
        ),
        ws = peak_ws,
        cb = cache_bytes,
        ev = capped.mem_evictions(),
    );
    Some(s)
}

/// Proves the typed backpressure path is alive without a wall-clock
/// race: a capacity-1 admission queue must refuse the second
/// reservation with the typed error the daemon answers `Busy` with.
/// Returns the number of typed refusals observed (1 when alive).
fn busy_probe() -> u64 {
    use fp16mg_runtime::{AdmissionConfig, AdmissionQueue, Priority};
    let mut q = AdmissionQueue::new(AdmissionConfig { capacity: 1, ..AdmissionConfig::default() });
    u64::from(q.try_reserve(Priority::Batch).is_ok() && q.try_reserve(Priority::Batch).is_err())
}

/// Measures the serving layer's wire overhead and liveness once per
/// emitter run: an in-process networked daemon on the deterministic
/// storage backend serves a real Unix socket, the client measures
/// ping/pong round-trips (p50/p99 of the framed wire itself, no solve
/// attached), and the counters prove a connection was accepted, the
/// stream drained, and the admission queue still sheds with a typed
/// `Busy`. `Err` says why the probe could not run (no Unix sockets, a
/// dead server — the gate then skips the network checks instead of
/// failing); the client's attempts and deadlines are bounded, so a
/// server that never answers is an error here, not a hang.
fn network_json(tol: f64) -> Result<String, String> {
    use fp16mg_runtime::net::{Client, ClientConfig, Endpoint, SubmitRequest};
    use fp16mg_runtime::{FaultStorage, Storage};
    use std::sync::Arc;
    use std::time::Duration;

    let sock = crate::unique_temp("fp16mg-benchnet").with_extension("sock");
    let _ = std::fs::remove_file(&sock);
    let endpoint = Endpoint::Unix(sock);
    let mut cfg =
        fp16mg_runtime::serve::NetServeConfig::new(endpoint.clone(), PathBuf::from("state"));
    cfg.size = 6;
    cfg.tol = tol.max(1e-8);
    cfg.quiet = true;
    let storage: Arc<dyn Storage> = Arc::new(FaultStorage::new());
    let server = std::thread::spawn(move || fp16mg_runtime::serve::serve_net(&cfg, storage));

    let mut client = Client::new(ClientConfig {
        endpoint,
        max_attempts: 4,
        deadlines: [Duration::from_secs(10); 3],
        ..ClientConfig::default()
    });
    let mut rtts = Vec::new();
    let mut talk = || -> Result<(), String> {
        // One real request so the round-trips ride a warmed connection
        // and the served/drained counters are live.
        let warm = SubmitRequest { key: 0, size: 6, tol: tol.max(1e-8), priority: 1 };
        client.submit(warm).map_err(|e| format!("submit: {e}"))?;
        for _ in 0..64 {
            let t = Instant::now();
            client.ping().map_err(|e| format!("ping: {e}"))?;
            rtts.push(t.elapsed().as_secs_f64());
        }
        client.shutdown().map(drop).map_err(|e| format!("shutdown: {e}"))
    };
    if let Err(e) = talk() {
        // The server either never came up (its report says why) or is
        // still serving; only a finished one can be joined without
        // waiting.
        let why = match server.is_finished().then(|| server.join()) {
            Some(Ok(report)) => format!("; server: {}", report.violations.join("; ")),
            _ => String::new(),
        };
        return Err(format!("network probe client: {e}{why}"));
    }
    let report = server.join().map_err(|_| "network probe server panicked".to_string())?;
    if !report.violations.is_empty() || !report.drained {
        let v = report.violations.join("; ");
        return Err(format!("network probe server: drained {} violations [{v}]", report.drained));
    }
    rtts.sort_by(f64::total_cmp);
    let pick = |q: f64| rtts[((rtts.len() as f64 * q).ceil() as usize).clamp(1, rtts.len()) - 1];
    let mut s = String::new();
    let _ = write!(
        s,
        concat!(
            "  \"network\": {{\n",
            "    \"wire_p50_s\": {p50},\n",
            "    \"wire_p99_s\": {p99},\n",
            "    \"net_connections\": {conns},\n",
            "    \"net_busy\": {busy}\n",
            "  }},\n"
        ),
        p50 = num(pick(0.50)),
        p99 = num(pick(0.99)),
        conns = report.counters.accepted,
        busy = busy_probe(),
    );
    Ok(s)
}

/// Renders the `BENCH_<problem>.json` document for one problem. Failed
/// setups are recorded as `{"combo", "error"}` entries instead of being
/// dropped, so a regression that breaks setup is visible in the file.
/// `net` is the shared network section measured once per emitter run
/// (empty when the probe could not run).
pub fn render_problem(kind: ProblemKind, n: usize, tol: f64, net: &str) -> String {
    let opts = SolveOptions { tol, max_iters: 500, record_history: false, ..Default::default() };
    let mut runs = Vec::new();
    for combo in COMBOS {
        match solve_e2e(kind, n, combo, &opts, Par::Seq) {
            Ok(r) => runs.push(run_json(&r)),
            Err(e) => runs.push(format!(
                "    {{\n      \"combo\": \"{}\",\n      \"error\": \"{}\"\n    }}",
                esc(&combo.label()),
                esc(&e)
            )),
        }
    }
    format!(
        "{{\n  \"problem\": \"{}\",\n  \"size\": {n},\n  \"tol\": {},\n{}{}{net}  \"runs\": [\n{}\n  ]\n}}\n",
        esc(kind.name()),
        num(tol),
        cache_json(kind, n).unwrap_or_default(),
        memory_json(kind, n).unwrap_or_default(),
        runs.join(",\n")
    )
}

/// The file name a problem's benchmark document is written under.
pub fn file_name(kind: ProblemKind) -> String {
    format!("BENCH_{}.json", kind.name())
}

/// Runs the tier-1 matrix and writes one JSON file per problem into
/// `cfg.dir`. Returns the written paths.
///
/// # Errors
/// Propagates the I/O error if a file cannot be written.
pub fn bench_json_emit(cfg: &BenchJsonConfig) -> std::io::Result<Vec<PathBuf>> {
    let mut paths = Vec::new();
    let net = network_json(cfg.tol).unwrap_or_else(|e| {
        eprintln!("warning: no network section: {e}");
        String::new()
    });
    for kind in ProblemKind::all() {
        let doc = render_problem(kind, cfg.size, cfg.tol, &net);
        let path = Path::new(&cfg.dir).join(file_name(kind));
        std::fs::write(&path, doc)?;
        paths.push(path);
    }
    Ok(paths)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_wellformed_json_for_both_combos() {
        let net = network_json(1e-8).expect("the network probe must run on this platform");
        assert!(
            net.contains("\"wire_p50_s\"")
                && net.contains("\"wire_p99_s\"")
                && net.contains("\"net_connections\"")
                && net.contains("\"net_busy\": 1"),
            "the wire overhead and shed liveness must be part of the trajectory: {net}"
        );
        let doc = render_problem(ProblemKind::Laplace27, 8, 1e-8, &net);
        assert!(doc.contains("\"network\""));
        assert!(doc.contains(&format!("\"problem\": \"{}\"", ProblemKind::Laplace27.name())));
        assert_eq!(doc.matches("\"combo\"").count(), COMBOS.len());
        assert!(doc.contains("\"iters\"") && doc.contains("\"setup_s\""));
        assert!(
            doc.contains("\"cold_setup_s\"") && doc.contains("\"warm_speedup\""),
            "the cache split must be part of the trajectory"
        );
        assert!(
            doc.contains("\"peak_ws_bytes\"")
                && doc.contains("\"cache_bytes\"")
                && doc.contains("\"mem_evictions\"")
                && doc.contains("\"workspace_bytes\""),
            "the memory footprint must be part of the trajectory"
        );
        assert_eq!(doc.matches('{').count(), doc.matches('}').count(), "balanced objects");
        assert_eq!(doc.matches('[').count(), doc.matches(']').count(), "balanced arrays");
        assert!(!doc.contains("inf") && !doc.contains("NaN"), "JSON has no non-finite literals");
    }

    #[test]
    fn emit_writes_one_file_per_problem() {
        let dir = std::env::temp_dir().join("fp16mg-benchjson-test");
        std::fs::create_dir_all(&dir).unwrap();
        let cfg = BenchJsonConfig { size: 8, tol: 1e-8, dir: dir.clone() };
        let paths = bench_json_emit(&cfg).unwrap();
        assert_eq!(paths.len(), ProblemKind::all().len());
        for (kind, p) in ProblemKind::all().into_iter().zip(&paths) {
            assert_eq!(p.file_name().unwrap().to_str().unwrap(), file_name(kind));
            let body = std::fs::read_to_string(p).unwrap();
            assert!(body.starts_with('{') && body.trim_end().ends_with('}'));
            std::fs::remove_file(p).unwrap();
        }
    }
}
