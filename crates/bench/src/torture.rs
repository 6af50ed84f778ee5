//! Crash-point recovery matrix over the simulation durability stack.
//!
//! The torture harness runs the time-stepping driver entirely on a
//! [`FaultStorage`] backend and enumerates fault schedules against the
//! exact operation sequence a clean run performs:
//!
//! - **Phase A** — power loss at *every* I/O operation index.
//! - **Phase B** — a torn write (half the buffer lands, then the power
//!   goes out) at every write index.
//! - **Phase C** — a failed fsync (dirty pages dropped) at every fsync
//!   index.
//! - **Phase D** — a *lying* fsync (reports success, persists nothing)
//!   at every fsync index, followed by power loss a few operations
//!   later — the window where the snapshot can claim a step the trail
//!   never durably recorded.
//! - **Phase E** — a bounded ENOSPC burst at every write index; the
//!   retry in the durable-append path must absorb it with no restart.
//! - **Phase F** — power loss mid-run, then bit corruption on every
//!   recovery read: the corrupt snapshot slots must be quarantined and
//!   recovery must fall back (previous generation or a logged cold
//!   start).
//! - **Phase G** — self-check: the same crash sweep as phase A with
//!   [`SimConfig::break_write_order`] set. The harness must *detect*
//!   the resulting acked-step loss; if the broken order sails through,
//!   the matrix itself is broken and the run fails.
//!
//! Two invariant tiers are checked:
//!
//! - **Instant** (at each power loss): the durable trail contains a
//!   bit-identical line for every step that was acknowledged. Skipped
//!   in phase D — no software ordering survives an fsync that lies —
//!   where the end-state invariant is the contract instead.
//! - **End state** (after restarts drive the run to completion): every
//!   step is covered by a trail line bit-identical to the clean-run
//!   reference, no alien lines, no torn tail, and the newest decodable
//!   snapshot generation is the final step.
//!
//! The matrix passes only if every invariant held *and* every fault
//! class actually fired (torn write, fsync failure, silent fsync loss,
//! ENOSPC, crash at rename, read corruption) — an empty matrix cannot
//! pass by default.

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use fp16mg_problems::ProblemKind;
use fp16mg_runtime::trail::{complete_lines, key_of};
use fp16mg_runtime::{Fault, FaultStorage, OpKind, SimSnapshot, SnapshotStore};

use crate::loadgen::verify_replay;
use crate::matrix::MatrixReport;
use crate::simulate::{sim_snapshot_path, sim_trail_path, SimConfig, SimDriver};

/// Virtual durability directory inside the in-memory fault backend.
const TORTURE_DIR: &str = "/torture";

/// Restart budget per case: a single scheduled fault needs at most two
/// process lives; anything past this is a recovery livelock.
const MAX_LIVES: u64 = 8;

/// How many operation indices after the first power loss get a
/// corrupt-read fault in phase F — wide enough to cover every recovery
/// read (trail plus both snapshot slots).
const CORRUPT_WINDOW: u64 = 10;

/// Fault classes that must have fired for the matrix to count as
/// exercised.
const REQUIRED_FIRED: &[&str] = &[
    "crash",
    "crash@rename",
    "torn-write",
    "fsync-fail",
    "silent-fsync-loss",
    "enospc",
    "read-corruption",
];

/// Shape of the torture run.
#[derive(Clone, Debug)]
pub struct TortureConfig {
    /// Problem family stepped through time.
    pub kind: ProblemKind,
    /// Steps per case (each case replays the same short trajectory).
    pub steps: u64,
    /// Grid extent.
    pub size: usize,
    /// Per-step convergence tolerance.
    pub tol: f64,
}

impl Default for TortureConfig {
    /// The default matrix: a short oil-reservoir trajectory, small
    /// enough that the full sweep stays fast, long enough that every
    /// step boundary (first create, steady appends, A/B slot flips)
    /// appears in the operation sequence.
    fn default() -> Self {
        TortureConfig { kind: ProblemKind::Oil, steps: 4, size: 6, tol: 1e-7 }
    }
}

/// Everything the matrix observed, for the tests.
#[derive(Clone, Debug)]
pub struct TortureReport {
    /// The shared verdict: cases, violations, fired classes, and
    /// whether phase G's deliberately broken write order was detected
    /// as an acked-step loss (it must be).
    pub matrix: MatrixReport,
    /// Process restarts summed over all cases.
    pub restarts: u64,
}

/// One fault case: a schedule plus how to judge the outcome.
struct CaseSpec {
    label: String,
    schedule: Vec<(u64, Fault)>,
    /// Check the instant invariant at every power loss.
    check_instant: bool,
    /// Run the driver with the deliberately broken write order.
    break_order: bool,
    /// After the first power loss, corrupt every read in the recovery
    /// window.
    corrupt_recovery: bool,
}

impl CaseSpec {
    fn new(label: String, schedule: Vec<(u64, Fault)>) -> Self {
        CaseSpec {
            label,
            schedule,
            check_instant: true,
            break_order: false,
            corrupt_recovery: false,
        }
    }
}

/// What one case produced.
#[derive(Default)]
struct CaseOutcome {
    violations: Vec<String>,
    /// Acked-step losses observed at a power loss (the instant
    /// invariant). A violation everywhere except phase G, where they
    /// are the expected detection signal.
    instant_losses: Vec<String>,
    events: Vec<String>,
    restarts: u64,
    completed: bool,
    fired: BTreeMap<String, u64>,
}

fn sim_cfg(c: &TortureConfig, fault: &FaultStorage, break_order: bool) -> SimConfig {
    let mut cfg = SimConfig::new(c.kind, c.steps, c.size, c.tol);
    cfg.snapshot_dir = Some(PathBuf::from(TORTURE_DIR));
    cfg.storage = Arc::new(fault.clone());
    cfg.break_write_order = break_order;
    cfg
}

/// Instant invariant: immediately after a power loss, the durable trail
/// must hold a line bit-identical to the reference for every
/// acknowledged step.
fn check_instant(
    fault: &FaultStorage,
    trail: &Path,
    acked: &[u64],
    reference: &[String],
    label: &str,
    losses: &mut Vec<String>,
) {
    let present: BTreeSet<u64> = complete_lines(&fault.peek(trail).unwrap_or_default())
        .into_iter()
        .filter_map(|line| {
            let s = key_of(&line, "step")?;
            (reference.get(s as usize) == Some(&line)).then_some(s)
        })
        .collect();
    for &s in acked {
        if !present.contains(&s) {
            losses.push(format!("{label}: acked step {s} has no durable trail line at power loss"));
        }
    }
}

/// End-state invariant: after the case drives the run to completion,
/// the trail must replay the reference ([`verify_replay`]: every step
/// covered by bit-identical lines, duplicates from replays allowed,
/// nothing else), end cleanly, and the newest decodable snapshot
/// generation must be the final step.
fn check_end_state(
    cfg: &TortureConfig,
    fault: &FaultStorage,
    reference: &[String],
    label: &str,
    violations: &mut Vec<String>,
) {
    let dir = Path::new(TORTURE_DIR);
    let Some(bytes) = fault.peek(&sim_trail_path(dir, cfg.kind)) else {
        violations.push(format!("{label}: no trail file after completion"));
        return;
    };
    if bytes.last() != Some(&b'\n') {
        violations.push(format!("{label}: trail ends in a torn record after completion"));
    }
    let replay = verify_replay(reference, &complete_lines(&bytes), "step", cfg.steps, true, true);
    violations.extend(replay.violations.iter().map(|v| format!("{label}: {v}")));
    let store = SnapshotStore::new(sim_snapshot_path(dir, cfg.kind));
    let newest = [store.slot_for(0), store.slot_for(1)]
        .iter()
        .filter_map(|p| fault.peek(p))
        .filter_map(|bytes| {
            SimSnapshot::decode(&String::from_utf8_lossy(&bytes)).ok().map(|s| s.step)
        })
        .max();
    if newest != Some(cfg.steps - 1) {
        violations.push(format!(
            "{label}: newest decodable snapshot is {newest:?}, expected step {}",
            cfg.steps - 1
        ));
    }
}

/// Runs one fault case to completion (or to the restart budget),
/// restarting across simulated power losses, and judges the invariants.
fn run_case(cfg: &TortureConfig, reference: &[String], spec: &CaseSpec) -> CaseOutcome {
    let fault = FaultStorage::new();
    for &(index, f) in &spec.schedule {
        fault.schedule(index, f);
    }
    let trail = sim_trail_path(Path::new(TORTURE_DIR), cfg.kind);
    let mut out = CaseOutcome::default();
    let mut acked: Vec<u64> = Vec::new();
    let mut corrupted = false;
    let mut lives = 0u64;
    loop {
        lives += 1;
        if lives > MAX_LIVES {
            out.violations.push(format!(
                "{}: run did not complete within {MAX_LIVES} process lives",
                spec.label
            ));
            break;
        }
        match SimDriver::new(sim_cfg(cfg, &fault, spec.break_order)) {
            Ok(mut driver) => {
                out.events.extend(driver.recovery_events().iter().cloned());
                let mut stepped = Ok(());
                while stepped.is_ok() && !driver.done() {
                    stepped = driver.step_once().map(|row| acked.push(row.step));
                }
                if stepped.is_ok() {
                    out.completed = true;
                    break;
                }
            }
            Err(e) if !fault.crashed() => {
                out.violations
                    .push(format!("{}: recovery failed without a crash: {e}", spec.label));
                break;
            }
            Err(_) => {}
        }
        out.restarts += 1;
        if fault.crashed() {
            fault.power_loss();
            if spec.check_instant {
                check_instant(
                    &fault,
                    &trail,
                    &acked,
                    reference,
                    &spec.label,
                    &mut out.instant_losses,
                );
            }
            if spec.corrupt_recovery && !corrupted {
                corrupted = true;
                let n = fault.op_count();
                for k in 1..=CORRUPT_WINDOW {
                    fault.schedule(n + k, Fault::CorruptRead { bit: 9 + k });
                }
            }
        }
    }
    if out.completed {
        check_end_state(cfg, &fault, reference, &spec.label, &mut out.violations);
    }
    out.fired = fault.fired();
    out
}

/// The clean-run reference: the trail (one line per step, in order) and
/// the full operation log whose indices the fault schedules target.
fn probe(cfg: &TortureConfig) -> Result<(Vec<String>, Vec<OpKind>), String> {
    let fault = FaultStorage::new();
    let mut driver = SimDriver::new(sim_cfg(cfg, &fault, false))?;
    while !driver.done() {
        driver.step_once()?;
    }
    let trail = sim_trail_path(Path::new(TORTURE_DIR), cfg.kind);
    let reference = complete_lines(&fault.peek(&trail).ok_or("probe run produced no trail")?);
    if let Some(v) =
        verify_replay(&reference, &reference, "step", cfg.steps, false, true).violations.first()
    {
        return Err(format!("probe trail: {v}"));
    }
    let ops = fault.op_log().into_iter().map(|o| o.kind).collect();
    Ok((reference, ops))
}

/// Executes the full matrix and aggregates the verdict.
pub fn run_matrix(cfg: &TortureConfig) -> TortureReport {
    let mut report = TortureReport {
        matrix: MatrixReport::new(REQUIRED_FIRED, Some("broken write order")),
        restarts: 0,
    };
    let (reference, ops) = match probe(cfg) {
        Ok(p) => p,
        Err(e) => {
            report.matrix.violations.push(format!("probe: clean run failed: {e}"));
            return report;
        }
    };
    let total = ops.len() as u64;
    let indices_of = |kind: OpKind| -> Vec<u64> {
        ops.iter().enumerate().filter(|&(_, k)| *k == kind).map(|(i, _)| i as u64).collect()
    };
    let writes = indices_of(OpKind::Write);
    let fsyncs = indices_of(OpKind::Fsync);
    let renames = indices_of(OpKind::Rename);

    let mut specs: Vec<CaseSpec> = Vec::new();
    // Phase A: power loss at every operation index.
    for i in 0..total {
        specs.push(CaseSpec::new(format!("A:crash@{i}"), vec![(i, Fault::Crash)]));
    }
    // Phase B: torn write at every write index.
    for &i in &writes {
        specs.push(CaseSpec::new(format!("B:torn@{i}"), vec![(i, Fault::TornWrite)]));
    }
    // Phase C: failed fsync at every fsync index.
    for &i in &fsyncs {
        specs.push(CaseSpec::new(format!("C:fsync-fail@{i}"), vec![(i, Fault::FsyncFail)]));
    }
    // Phase D: lying fsync, then power loss shortly after. The +6
    // offset reaches past a full snapshot publish, so a loss on the
    // trail fsync can coexist with a durably published snapshot — the
    // exact window the trail-aware recovery pick exists for. The
    // instant invariant is off: no write ordering survives an fsync
    // that lies; the end-state invariant is the contract here.
    for &i in &fsyncs {
        for off in [3u64, 6u64] {
            let mut spec = CaseSpec::new(
                format!("D:silent-loss@{i}+crash@{}", i + off),
                vec![(i, Fault::SilentFsyncLoss), (i + off, Fault::Crash)],
            );
            spec.check_instant = false;
            specs.push(spec);
        }
    }
    // Phase E: bounded ENOSPC burst at every write index; the retry in
    // the durable-append/publish path must absorb it without a restart.
    for &i in &writes {
        specs.push(CaseSpec::new(format!("E:enospc@{i}"), vec![(i, Fault::NoSpace { count: 2 })]));
    }
    // Phase F: crash mid-run, then corrupt every recovery read — the
    // quarantine-and-fall-back path must engage.
    let phase_f_from = specs.len();
    for &i in [renames.get(1), renames.last()].into_iter().flatten() {
        let mut spec =
            CaseSpec::new(format!("F:crash@{i}+corrupt-recovery"), vec![(i, Fault::Crash)]);
        spec.corrupt_recovery = true;
        specs.push(spec);
    }
    // Phase G: the phase-A sweep against a deliberately broken write
    // order (trail appended without fsync before the ack). The harness
    // passes only if it catches the resulting acked-step loss.
    let phase_g_from = specs.len();
    for i in 0..total {
        let mut spec = CaseSpec::new(format!("G:broken-order:crash@{i}"), vec![(i, Fault::Crash)]);
        spec.break_order = true;
        specs.push(spec);
    }

    let mut quarantine_seen = false;
    for (idx, spec) in specs.iter().enumerate() {
        let mut out = run_case(cfg, &reference, spec);
        report.restarts += out.restarts;
        if spec.break_order {
            if !out.instant_losses.is_empty() {
                report.matrix.self_check_detected();
            }
        } else {
            out.violations.append(&mut out.instant_losses);
        }
        if spec.label.starts_with("E:") && out.restarts > 0 {
            out.violations.push(format!(
                "{}: ENOSPC burst forced {} restart(s); the bounded retry should absorb it",
                spec.label, out.restarts
            ));
        }
        if (phase_f_from..phase_g_from).contains(&idx)
            && out.events.iter().any(|e| e.contains("quarantined"))
        {
            quarantine_seen = true;
        }
        report.matrix.case(out.fired, out.violations);
    }
    if phase_f_from < phase_g_from && !quarantine_seen {
        report.matrix.violations.push(
            "phase F never quarantined a corrupt snapshot slot; the fall-back path went \
             unexercised"
                .to_string(),
        );
    }
    report.matrix.seal();
    report
}
