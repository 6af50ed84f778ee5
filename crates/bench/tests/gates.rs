//! The deterministic half of a performance gate, as a table.
//!
//! Iteration counts and byte counts do not depend on the machine, so
//! they are tier-1 assertions rather than fields of a timing file
//! (per-precision iteration counts belong beside the time they explain,
//! not inside it). Each row is one problem at n = 12, tol 1e-9: the
//! iteration counts of the FP64 baseline and of the paper's headline
//! mixed-FP16 configuration, the V-cycle workspace arena, and the bytes
//! one retained hierarchy chain charges against the cache — the numbers
//! of the last `ci/bench-baseline/BENCH_*.json` set, with the headroom
//! that gate gave them (25 % on iterations, 50 % on bytes) so that only
//! a real regression trips it. Timing lives in the repository benchmark
//! (`benchmark/`, `BENCHMARK.json`).

use fp16mg_bench::{solve_e2e, Combo};
use fp16mg_core::MgConfig;
use fp16mg_krylov::SolveOptions;
use fp16mg_problems::ProblemKind;
use fp16mg_runtime::{CacheConfig, HierarchyCache};
use fp16mg_sgdia::kernels::Par;

const N: usize = 12;
const TOL: f64 = 1e-9;
/// A run's iteration count may grow by at most this factor.
const MAX_ITER_REGRESSION: f64 = 1.25;
/// The workspace arena and the per-chain cache charge may grow by at most
/// this factor: byte counts are exact, so the headroom only covers
/// intentional layout changes.
const MAX_MEM_GROWTH: f64 = 1.5;

struct Row {
    kind: ProblemKind,
    iters_full64: usize,
    iters_d16: usize,
    workspace_bytes: u64,
    cache_bytes: u64,
}

const BASELINE: [Row; 8] = [
    row(ProblemKind::Laplace27, 8, 8, 76_032, 425_736),
    row(ProblemKind::Laplace27E8, 8, 8, 76_032, 425_736),
    row(ProblemKind::Rhd, 14, 18, 76_032, 149_256),
    row(ProblemKind::Oil, 52, 52, 76_032, 149_256),
    row(ProblemKind::Weather, 19, 19, 38_016, 158_544),
    row(ProblemKind::Rhd3T, 41, 48, 228_096, 1_343_304),
    row(ProblemKind::Oil4C, 45, 45, 304_128, 2_388_096),
    row(ProblemKind::Solid3D, 10, 10, 228_096, 2_338_632),
];

const fn row(kind: ProblemKind, full64: usize, d16: usize, ws: u64, cache: u64) -> Row {
    Row { kind, iters_full64: full64, iters_d16: d16, workspace_bytes: ws, cache_bytes: cache }
}

fn ceiling(baseline: u64, factor: f64) -> u64 {
    (baseline as f64 * factor).ceil() as u64
}

#[test]
fn table_covers_every_problem() {
    let kinds: Vec<&str> = BASELINE.iter().map(|r| r.kind.name()).collect();
    let all: Vec<&str> = ProblemKind::all().iter().map(|k| k.name()).collect();
    assert_eq!(kinds, all);
}

#[test]
fn both_precisions_converge_within_the_iteration_and_workspace_ceilings() {
    let opts =
        SolveOptions { tol: TOL, max_iters: 500, record_history: false, ..Default::default() };
    for r in &BASELINE {
        for (combo, baseline) in
            [(Combo::Full64, r.iters_full64), (Combo::D16SetupScale, r.iters_d16)]
        {
            let name = format!("{} {}", r.kind.name(), combo.label());
            let run = solve_e2e(r.kind, N, combo, &opts, Par::Seq)
                .unwrap_or_else(|e| panic!("{name}: set-up failed: {e}"));
            assert!(run.result.converged(), "{name} no longer converges: {:?}", run.result);
            let limit = ceiling(baseline as u64, MAX_ITER_REGRESSION);
            assert!(
                run.result.iters as u64 <= limit,
                "{name}: iterations regressed {baseline} -> {} (ceiling {limit})",
                run.result.iters
            );
            if combo == Combo::D16SetupScale {
                // The arena is carved once at set-up, so its size is the
                // solve-phase peak.
                let (was, ws) = (r.workspace_bytes, run.workspace_bytes as u64);
                let limit = ceiling(was, MAX_MEM_GROWTH);
                assert!(ws <= limit, "{name}: workspace {was} -> {ws} B (ceiling {limit})");
            }
        }
    }
}

#[test]
fn a_cached_chain_stays_within_its_ceiling_and_a_one_chain_budget_evicts() {
    let config = MgConfig::d16();
    for r in &BASELINE {
        let name = r.kind.name();
        let problem = r.kind.build(N);
        let mut cache = HierarchyCache::new(CacheConfig::default());
        cache.acquire("gate", &problem.matrix, &config).expect("cold build");
        let chain = cache.cache_bytes();
        let limit = ceiling(r.cache_bytes, MAX_MEM_GROWTH);
        assert!(chain <= limit, "{name}: chain {} -> {chain} B (ceiling {limit})", r.cache_bytes);

        // A cache budgeted for exactly one chain must evict when a second
        // class arrives, not refuse it.
        let mut capped =
            HierarchyCache::new(CacheConfig { byte_budget: Some(chain), ..CacheConfig::default() });
        capped.acquire("gate-a", &problem.matrix, &config).expect("first class");
        capped.acquire("gate-b", &problem.matrix, &config).expect("second class");
        assert!(capped.mem_evictions() >= 1, "{name}: a one-chain byte budget never evicted");
    }
}
