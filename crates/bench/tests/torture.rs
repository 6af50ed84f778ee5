//! Storage-fault torture matrix acceptance: the full crash-point sweep
//! over a short trajectory must pass — every acked step survives every
//! power-loss point, corrupt snapshot slots are quarantined with
//! fallback, the bounded ENOSPC retry absorbs a burst, every fault
//! class fires, and the harness proves it would catch a broken write
//! order. Everything runs on the in-memory fault backend: no real I/O.
//!
//! The case counts and per-class fire counts are the matrix's identity
//! (ROADMAP quotes them); they are pinned here exactly, so
//! a refactor of the schedule or of `FaultStorage` that moves one shows.

use std::collections::BTreeMap;

use fp16mg_bench::torture::{run_matrix, TortureConfig, TortureReport};
use fp16mg_problems::ProblemKind;

fn assert_matrix(report: &TortureReport, cases: usize, restarts: u64, fired: &[(&str, u64)]) {
    assert_eq!(report.matrix.violations, Vec::<String>::new());
    assert_eq!(
        report.matrix.self_check,
        Some(("broken write order", true)),
        "phase G must detect the broken write order"
    );
    assert!(report.matrix.passed(), "fired: {:?}", report.matrix.fired);
    assert_eq!(report.matrix.cases, cases);
    assert_eq!(report.restarts, restarts);
    let fired: BTreeMap<String, u64> = fired.iter().map(|&(k, n)| (k.to_string(), n)).collect();
    assert_eq!(report.matrix.fired, fired);
}

#[test]
fn crash_point_matrix_holds_every_durability_invariant() {
    let cfg = TortureConfig { kind: ProblemKind::Oil, steps: 3, size: 6, tol: 1e-7 };
    assert_matrix(
        &run_matrix(&cfg),
        82,
        69,
        &[
            ("crash", 57),
            ("crash@append", 9),
            ("crash@create", 8),
            ("crash@fsync", 11),
            ("crash@rename", 8),
            ("crash@sync-dir", 8),
            ("crash@write", 13),
            ("enospc", 12),
            ("fsync-fail", 6),
            ("read-corruption", 3),
            ("silent-fsync-loss", 12),
            ("torn-write", 6),
        ],
    );
}

#[test]
fn cli_default_configuration_enumerates_108_cases() {
    assert_matrix(
        &run_matrix(&TortureConfig::default()),
        108,
        92,
        &[
            ("crash", 76),
            ("crash@append", 13),
            ("crash@create", 11),
            ("crash@fsync", 15),
            ("crash@rename", 10),
            ("crash@sync-dir", 10),
            ("crash@write", 17),
            ("enospc", 16),
            ("fsync-fail", 8),
            ("read-corruption", 3),
            ("silent-fsync-loss", 16),
            ("torn-write", 8),
        ],
    );
}
