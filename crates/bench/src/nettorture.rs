//! The wire-fault crash-point matrix.
//!
//! The storage torture matrix proved the durability stack survives
//! power loss at every I/O operation; this matrix proves the *wire*
//! keeps those guarantees: a connection killed at **every frame
//! boundary** of a probe run must never lose an acked request, never
//! execute a resubmission twice, and resolve every injected fault with
//! a typed error.
//!
//! Shape (mirroring `torture.rs`):
//!
//! 1. **Probe**: an in-process networked daemon on a deterministic
//!    [`FaultStorage`] backend serves the stream over a real Unix
//!    socket with a fault-free [`FaultTransport`] ticking every frame
//!    send/receive. The probe yields the op log (every frame boundary a
//!    fault can land on) and the reference durable trail.
//! 2. **Phases**: one fresh server + client per case —
//!    connection reset at every op index (A), torn frame / garbage
//!    bytes / oversized header at every send boundary (B–D), duplicate
//!    delivery at every submit boundary (E), stalled reads long enough
//!    to trip the server's deadline (F).
//! 3. **Invariants**, checked per case: the instant a request is acked,
//!    its decision line is in the **durable** trail image
//!    (acked ⇒ durable, checked at ack time, not at the end); at the
//!    end, the durable trail is bit-identical to the probe's (exactly
//!    one line per seq — resubmissions deduplicated, never re-run); the
//!    server drained cleanly; every injected fault has a typed
//!    resolution on record.
//! 4. **Self-check (G)**: a server deliberately acking *before* the
//!    (unsynced) trail append must be caught by the instant invariant —
//!    a harness that cannot see a broken ack order proves nothing.
//!
//! All six fault classes must fire across the matrix and at least one
//! lost-ack case must be answered with a `duplicate = true` ack, or the
//! matrix fails.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use fp16mg_runtime::net::{
    Client, ClientConfig, ClientStats, Endpoint, FaultTransport, Frame, NetFault, NetOp, NetOpKind,
    SubmitRequest,
};
use fp16mg_runtime::serve::{serve_net, NetServeConfig, NetServeReport, TRAIL_FILE};
use fp16mg_runtime::{trail, FaultStorage, Storage};

use crate::loadgen::drive_stream;
use crate::matrix::MatrixReport;

/// Problem base extent (small: the matrix runs many cases).
const SIZE: usize = 6;
/// Convergence tolerance.
const TOL: f64 = 1e-6;
/// Server per-connection deadline; the stall must exceed it.
const CONN_DEADLINE: Duration = Duration::from_millis(500);
/// Client silence injected by the stall fault, in milliseconds.
const STALL_MS: u64 = 1200;

/// The matrix verdict.
#[derive(Debug)]
pub struct NetTortureReport {
    /// The shared verdict: cases, violations (a failed case is one,
    /// prefixed with its `<phase>@op<k>` name), fired classes, and
    /// whether the phase-G broken-ack-order server was detected.
    pub matrix: MatrixReport,
    /// Total `duplicate = true` acks observed (must be > 0).
    pub duplicate_acks: u64,
    /// Total idempotent resubmissions the clients performed.
    pub resubmissions: u64,
}

const STATE_DIR: &str = "state";

fn trail_path() -> PathBuf {
    PathBuf::from(STATE_DIR).join(TRAIL_FILE)
}

fn client_cfg(endpoint: Endpoint) -> ClientConfig {
    ClientConfig {
        endpoint,
        max_attempts: 10,
        backoff: Duration::from_millis(5),
        max_backoff: Duration::from_millis(100),
        seed: 0xb0a7,
        deadlines: [Duration::from_secs(10); 3],
        write_deadline: Duration::from_secs(10),
    }
}

struct CaseOutcome {
    violations: Vec<String>,
    stats: ClientStats,
    fired: BTreeMap<String, u64>,
    server: NetServeReport,
    /// The durable trail the case left behind.
    trail: Vec<String>,
    /// Every frame boundary the client crossed.
    ops: Vec<NetOp>,
}

/// The complete trail lines of the fault storage's durable
/// (post-power-loss) image — what would survive a crash.
fn durable_lines(storage: &FaultStorage) -> Vec<String> {
    trail::complete_lines(&storage.peek_durable(&trail_path()).unwrap_or_default())
}

fn server_cfg(endpoint: Endpoint, break_ack_order: bool) -> NetServeConfig {
    let mut sc = NetServeConfig::new(endpoint, PathBuf::from(STATE_DIR));
    sc.size = SIZE;
    sc.tol = TOL;
    sc.conn_deadline = CONN_DEADLINE;
    sc.break_ack_order = break_ack_order;
    sc.quiet = true;
    sc
}

/// Drives one case: fresh storage, fresh in-process server, fresh
/// client with `schedule` planted, full stream + drain, instant and
/// end-state invariants.
fn run_case(
    requests: u64,
    sock: PathBuf,
    schedule: &[(u64, NetFault)],
    break_ack_order: bool,
    reference: &[String],
) -> CaseOutcome {
    let endpoint = Endpoint::Unix(sock);
    let storage = FaultStorage::new();
    let server_storage: Arc<dyn Storage> = Arc::new(storage.clone());
    let sc = server_cfg(endpoint.clone(), break_ack_order);
    let server = std::thread::spawn(move || serve_net(&sc, server_storage));

    let ft = FaultTransport::new();
    for &(index, fault) in schedule {
        ft.schedule(index, fault);
    }
    let mut client = Client::with_transport(client_cfg(endpoint.clone()), ft.clone());
    // THE instant invariant: the moment an ack is in hand, its decision
    // must already be in the durable image.
    let mut violations = drive_stream(&mut client, requests, SIZE, TOL, &mut |done| {
        if durable_lines(&storage).iter().any(|l| trail::key_of(l, "seq") == Some(done.key)) {
            Ok(())
        } else {
            Err(format!("seq={}: ACKED BUT NOT DURABLE", done.key))
        }
    })
    .violations;

    // Drain. A fault can eat the ShutdownOk after the server already
    // drained, so a failed client-side shutdown falls back to clean
    // retries without the fault transport; the server report is the
    // arbiter.
    if client.shutdown().is_err() {
        for _ in 0..50 {
            if server.is_finished() {
                break;
            }
            let mut plain = Client::new(client_cfg(endpoint.clone()));
            if plain.shutdown().is_ok() {
                break;
            }
            std::thread::sleep(Duration::from_millis(20));
        }
    }
    let stats = client.stats.clone();
    let server = server.join().unwrap_or_else(|_| {
        let mut r = NetServeReport::default();
        r.violations.push("server thread panicked".into());
        r
    });

    // End state: the durable trail must be bit-identical to the probe's
    // — exactly one line per seq, same decisions, nothing extra.
    let lines = durable_lines(&storage);
    if !reference.is_empty() && lines != reference {
        violations.push(format!(
            "durable trail diverged: {} lines vs {} in reference",
            lines.len(),
            reference.len()
        ));
    }
    for v in &server.violations {
        violations.push(format!("server: {v}"));
    }
    if !server.drained {
        violations.push("server never drained".into());
    }
    // Typed-resolution invariant: every class that fired was resolved
    // with a recorded typed error; the protocol-violation classes must
    // have been answered by the server's typed Error frame.
    let fired = ft.fired();
    for class in fired.keys() {
        match stats.resolutions.get(class) {
            None => violations.push(format!("{class}: fired but no typed resolution recorded")),
            Some(r)
                if matches!(class.as_str(), "garbage-bytes" | "oversized-frame")
                    && !r.starts_with("error:") =>
            {
                violations.push(format!("{class}: resolved `{r}`, not a typed server error"))
            }
            Some(_) => {}
        }
    }
    CaseOutcome { violations, stats, fired, server, trail: lines, ops: ft.op_log() }
}

/// Runs the probe + the full fault matrix over a stream of `requests`
/// requests per case (8 covers every stream class).
pub fn run_net_matrix(requests: u64) -> NetTortureReport {
    let mut report = NetTortureReport {
        matrix: MatrixReport::new(&NetFault::LABELS, Some("broken ack order")),
        duplicate_acks: 0,
        resubmissions: 0,
    };
    let dir = crate::unique_temp("fp16mg-nettorture");
    if let Err(e) = std::fs::create_dir_all(&dir) {
        report.matrix.violations.push(format!("socket dir {}: {e}", dir.display()));
        return report;
    }
    let mut case_id = 0usize;
    let sock = |id: &mut usize| {
        let p = dir.join(format!("c{}.sock", *id));
        *id += 1;
        p
    };

    // --- Probe: a fault-free case enumerates every frame boundary (the
    // transport op log) and leaves the reference durable trail every
    // fault case must reproduce bit-for-bit.
    let probe = run_case(requests, sock(&mut case_id), &[], false, &[]);
    report.matrix.violations.extend(probe.violations.iter().map(|v| format!("reference run {v}")));
    let (reference, op_log) = (probe.trail, probe.ops);
    if reference.len() as u64 != requests {
        report.matrix.violations.push(format!(
            "reference trail has {} lines for {} requests",
            reference.len(),
            requests
        ));
        return report;
    }

    let submit_kind =
        Frame::Submit(SubmitRequest { key: 0, size: 8, tol: 1e-6, priority: 1 }).kind();
    let send_ops: Vec<u64> = op_log
        .iter()
        .filter(|op| matches!(op.kind, NetOpKind::Send(_)))
        .map(|op| op.index)
        .collect();
    let submit_ops: Vec<u64> = op_log
        .iter()
        .filter(|op| matches!(op.kind, NetOpKind::Send(k) if k == submit_kind))
        .map(|op| op.index)
        .collect();
    let all_ops: Vec<u64> = op_log.iter().map(|op| op.index).collect();

    // --- Phase schedules ---------------------------------------------
    let mut cases: Vec<(String, Vec<(u64, NetFault)>)> = Vec::new();
    for &i in &all_ops {
        cases.push((format!("reset@op{i}"), vec![(i, NetFault::Reset)]));
    }
    for &i in &send_ops {
        cases.push((format!("torn@op{i}"), vec![(i, NetFault::Torn)]));
        cases.push((format!("garbage@op{i}"), vec![(i, NetFault::Garbage { len: 64 })]));
        cases.push((format!("oversized@op{i}"), vec![(i, NetFault::Oversized)]));
    }
    for &i in &submit_ops {
        cases.push((format!("duplicate@op{i}"), vec![(i, NetFault::Duplicate)]));
    }
    // Stalls are wall-clock (each case blocks for `stall_ms`), so the
    // phase samples the first, middle, and last submit boundaries.
    let stall_picks = [
        submit_ops.first().copied(),
        submit_ops.get(submit_ops.len() / 2).copied(),
        submit_ops.last().copied(),
    ];
    let mut stall_seen = std::collections::BTreeSet::new();
    for i in stall_picks.into_iter().flatten() {
        if stall_seen.insert(i) {
            cases.push((format!("stall@op{i}"), vec![(i, NetFault::Stall { ms: STALL_MS })]));
        }
    }

    // --- Run the matrix ----------------------------------------------
    for (name, schedule) in cases {
        let mut out = run_case(requests, sock(&mut case_id), &schedule, false, &reference);
        report.duplicate_acks += out.stats.duplicate_acks + out.server.counters.duplicate_acks;
        report.resubmissions += out.stats.resubmissions;
        if schedule.iter().any(|(_, f)| matches!(f, NetFault::Stall { .. }))
            && out.server.counters.wire_errors.get("deadline").copied().unwrap_or(0) == 0
        {
            out.violations = vec!["stall never tripped the server's read deadline".into()];
        }
        let violations = match out.violations.as_slice() {
            [] => Vec::new(),
            broke => vec![format!("case {name}: {}", broke.join("; "))],
        };
        report.matrix.case(out.fired, violations);
    }

    // --- Phase G: the self-check -------------------------------------
    // A server that acks before anything is durable must be caught by
    // the instant invariant; otherwise the matrix is decorative.
    let g = run_case(requests, sock(&mut case_id), &[], true, &[]);
    if g.violations.iter().any(|v| v.contains("ACKED BUT NOT DURABLE")) {
        report.matrix.self_check_detected();
    }

    // --- Aggregates ---------------------------------------------------
    if report.duplicate_acks == 0 {
        report.matrix.violations.push(
            "no resubmission was ever answered with duplicate=true — dedup never proven".into(),
        );
    }
    if report.resubmissions == 0 {
        report.matrix.violations.push("no case forced an idempotent resubmission".into());
    }
    report.matrix.seal();
    let _ = std::fs::remove_dir_all(&dir);
    report
}
