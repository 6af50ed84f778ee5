//! Wire-fault torture matrix acceptance: the full crash-point sweep
//! over the framed protocol must pass — a connection killed at every
//! frame boundary never loses an acked request (checked the instant
//! each ack lands, against the storage backend's durable image), every
//! idempotent resubmission is deduplicated instead of re-executed (the
//! durable trail stays bit-identical to the fault-free reference), all
//! six fault classes fire with typed resolutions, and the harness's own
//! broken-ack-order self-check detects a server that acks before the
//! fsync. Everything runs in-process over real Unix sockets against the
//! deterministic storage backend.

use std::collections::BTreeMap;

use fp16mg_bench::nettorture::{run_net_matrix, NetTortureConfig};

/// `reset` at every frame op, `torn` / `garbage` / `oversized` at every
/// send, `duplicate` at every submit, three stalls: the schedule is a
/// function of the probe's op log, so its size and what it fires are
/// exact. (Resubmission and duplicate-ack totals depend on timing and
/// are only required to be nonzero.)
fn assert_matrix(requests: u64, cases: usize, fired: [u64; 6]) {
    let cfg = NetTortureConfig { requests, ..NetTortureConfig::default() };
    let report = run_net_matrix(&cfg);
    assert_eq!(report.matrix.violations, Vec::<String>::new());
    assert!(report.matrix.passed(), "fired: {:?}", report.matrix.fired);
    assert_eq!(
        report.matrix.self_check,
        Some(("broken ack order", true)),
        "the harness must catch a broken ack order"
    );
    assert!(report.duplicate_acks > 0, "dedup must be proven, not assumed");
    assert_eq!(report.matrix.cases, cases);
    let classes = [
        "duplicate-delivery",
        "garbage-bytes",
        "oversized-frame",
        "reset-mid-frame",
        "stalled-read",
        "torn-frame",
    ];
    let fired: BTreeMap<String, u64> = classes.iter().map(|c| c.to_string()).zip(fired).collect();
    assert_eq!(report.matrix.fired, fired);
}

#[test]
fn wire_fault_matrix_holds_every_durability_invariant() {
    // 6 requests: every frame boundary of a shorter stream than the
    // CLI's, 14 frame ops.
    assert_matrix(6, 44, [6, 7, 7, 14, 3, 7]);
}

#[test]
fn cli_default_configuration_enumerates_56_cases() {
    // 8 requests, 18 frame ops. Runs beside the test above; most of
    // either's wall time is the three stalls sleeping.
    assert_matrix(8, 56, [8, 9, 9, 18, 3, 9]);
}
