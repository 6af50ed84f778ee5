//! Allocation-fault torture matrix acceptance: the full charge-point
//! sweep over the deterministic request stream must pass — every
//! injected allocation failure resolves as a typed outcome (degraded
//! serve or `SetupFailed`, never a panic), service resumes after each
//! fault clears, every fault class fires, every charge class observed
//! in the clean run is covered, and tracked bytes return to exactly
//! zero after every case. Everything runs in-process against the real
//! pool; no real byte budget is consumed beyond the small test grids.

use std::collections::BTreeMap;

use fp16mg_bench::memtorture::{run_matrix, MemTortureConfig};

#[test]
fn allocation_fault_matrix_holds_every_memory_invariant() {
    // The test's configuration is the CLI default: 16 charged ops get one
    // case each, plus three bursts and the two budget cases — the 21
    // cases `repro memtorture` prints.
    let report = run_matrix(&MemTortureConfig::default());
    assert_eq!(report.matrix.violations, Vec::<String>::new());
    assert!(report.matrix.passed(), "fired: {:?}", report.matrix.fired);
    assert_eq!((report.matrix.cases, report.probe_ops), (21, 16));
    assert!(report.probe_peak > 0, "the clean probe must track a working set");
    let fired: BTreeMap<String, u64> =
        [("alloc-burst", 9), ("alloc-fail", 16), ("budget-exceeded", 1)]
            .into_iter()
            .map(|(k, n)| (k.to_string(), n))
            .collect();
    assert_eq!(report.matrix.fired, fired);
    assert_eq!(
        report.classes.iter().copied().collect::<Vec<_>>(),
        ["cache-insert", "rescale", "setup", "workspace"],
        "every charge site must appear in the clean run"
    );
    assert!(report.mem_evictions > 0, "the tight-budget phase must force eviction");
    assert!(report.uncached > 0, "a refused cache-insert must degrade to an uncached serve");
}
