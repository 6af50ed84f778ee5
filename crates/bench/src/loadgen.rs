//! `repro loadgen`: the external client driver, and the kill/restart
//! soak.
//!
//! **Loadgen** drives a running daemon (`fp16mg_runtime::serve`) through
//! the production [`Client`]: one ordered stream of idempotency-keyed
//! submissions with per-priority timeout classes and a jittered
//! retry/backoff ladder. Every ack is checked (right key, non-empty
//! outcome), wire round-trip latencies are recorded, and the run exits
//! nonzero on any violation. [`drive_stream`] is the only submit loop in
//! this crate; the soak and the wire-fault matrix hang their per-ack
//! work on its hook.
//!
//! **The soak** (`repro loadgen --soak`) runs the stream twice against
//! daemon children over a Unix socket: an uninterrupted reference, and a
//! child SIGKILLed after a chosen number of acks and restarted at once
//! while the client's backoff ladder rides out the gap. It then verifies
//! from the outside: every request acked exactly once (zero lost), at
//! least one resubmission crossed the kill, the restart resumed from its
//! snapshot, the durable trail holds **exactly one line per sequence
//! number** (resubmissions were deduplicated, not re-run), every
//! decision field is bit-identical to the reference, the reference
//! walked the cache's whole event ladder, and the drain left a snapshot
//! generation on disk. With `--mem-budget` the children self-check
//! `peak ≤ budget` (nonzero exit otherwise) and must have evicted or
//! served uncached at least once; the cross-run decision compare is then
//! report-only, because budget refusals depend on which bytes were live
//! and a restarted governor is cold.

use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::Instant;

use fp16mg_runtime::net::{Client, ClientConfig, DoneReply, Endpoint, SubmitRequest};
use fp16mg_runtime::serve::{decision_field, priority_for, SNAPSHOT_FILE, TRAIL_FILE};
use fp16mg_runtime::trail;

/// Loadgen configuration (`repro loadgen --addr …`).
pub struct LoadgenConfig {
    /// The daemon's endpoint.
    pub endpoint: Endpoint,
    /// Requests to submit (keys `0..requests`).
    pub requests: u64,
    /// Problem base extent the daemon was configured with.
    pub size: usize,
    /// Convergence tolerance the daemon was configured with.
    pub tol: f64,
    /// Client jitter seed.
    pub seed: u64,
    /// Request a graceful drain after the stream completes.
    pub shutdown: bool,
}

/// What the loadgen run observed.
#[derive(Clone, Debug, Default)]
pub struct LoadgenReport {
    /// Requests acknowledged.
    pub acked: u64,
    /// Acks served from the dedup record.
    pub duplicate_acks: u64,
    /// Resubmissions after lost connections/acks.
    pub resubmissions: u64,
    /// Typed `Busy` retries honored.
    pub busy_retries: u64,
    /// Reconnects performed by the retry ladder.
    pub reconnects: u64,
    /// Wire round-trip p50 in seconds.
    pub p50_s: f64,
    /// Wire round-trip p99 in seconds.
    pub p99_s: f64,
    /// Violations (any ⇒ nonzero exit).
    pub violations: Vec<String>,
}

/// Percentile of a sorted latency list (nearest-rank).
fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Drives keys `0..requests` of the stream through one client,
/// recording latencies and checking every ack; stops at the first
/// request the retry ladder gives up on. `on_ack` runs with each ack in
/// hand, before the next submission — an `Err` it returns is recorded as
/// a violation. Pure client-side; the daemon must already be listening
/// (or come up within the retry ladder's patience).
pub fn drive_stream(
    client: &mut Client,
    requests: u64,
    size: usize,
    tol: f64,
    on_ack: &mut dyn FnMut(&DoneReply) -> Result<(), String>,
) -> LoadgenReport {
    let mut report = LoadgenReport::default();
    let mut latencies = Vec::with_capacity(requests as usize);
    for seq in 0..requests {
        let req = SubmitRequest { key: seq, size: size as u32, tol, priority: priority_for(seq) };
        let t0 = Instant::now();
        match client.submit(req) {
            Ok(done) => {
                latencies.push(t0.elapsed().as_secs_f64());
                report.acked += 1;
                if done.key != seq {
                    report
                        .violations
                        .push(format!("ack for key {} while waiting on {seq}", done.key));
                }
                if done.outcome.is_empty() {
                    report.violations.push(format!("seq={seq}: empty outcome label in ack"));
                }
                report.violations.extend(on_ack(&done).err());
            }
            Err(e) => {
                report.violations.push(format!("seq={seq}: {e}"));
                break;
            }
        }
    }
    report.duplicate_acks = client.stats.duplicate_acks;
    report.resubmissions = client.stats.resubmissions;
    report.busy_retries = client.stats.busy_retries;
    report.reconnects = client.stats.reconnects;
    latencies.sort_by(|a, b| a.total_cmp(b));
    report.p50_s = percentile(&latencies, 50.0);
    report.p99_s = percentile(&latencies, 99.0);
    report
}

/// Runs loadgen against an already-listening daemon. Returns the
/// process exit code.
pub fn run_loadgen(cfg: &LoadgenConfig) -> i32 {
    let client_cfg = ClientConfig { endpoint: cfg.endpoint.clone(), ..ClientConfig::default() };
    let mut client = Client::new(client_cfg);
    let mut report = drive_stream(&mut client, cfg.requests, cfg.size, cfg.tol, &mut |_| Ok(()));
    if cfg.shutdown {
        match client.shutdown() {
            Ok(seq) => println!("loadgen: daemon drained at seq={seq}"),
            Err(e) => report.violations.push(format!("shutdown: {e}")),
        }
    }
    print_report("loadgen", &report, cfg.requests);
    for v in &report.violations {
        eprintln!("loadgen violation: {v}");
    }
    i32::from(!report.violations.is_empty())
}

fn print_report(who: &str, report: &LoadgenReport, requests: u64) {
    println!(
        "{who}: acked {}/{} (dup-acks={} resubmissions={} busy-retries={} reconnects={}) \
         p50={:.6}s p99={:.6}s",
        report.acked,
        requests,
        report.duplicate_acks,
        report.resubmissions,
        report.busy_retries,
        report.reconnects,
        report.p50_s,
        report.p99_s,
    );
}

// ---------------------------------------------------------- trail check --

/// What [`verify_replay`] found.
#[derive(Debug, Default)]
pub struct ReplayVerdict {
    /// Contract violations.
    pub violations: Vec<String>,
    /// Records the crash trail holds more than once (replayed windows).
    pub replayed: usize,
    /// Records whose decision differs from the reference's, when that is
    /// not a violation (`strict` off).
    pub drifted: usize,
}

/// Holds a crash-and-restart trail against the trail of an
/// uninterrupted reference run of the same `records`-long stream, both
/// keyed `<key>=N`.
///
/// The reference must be lines `0..records` in order. The crash trail
/// must hold every record and nothing else (no alien line, no key past
/// the stream); a record may appear more than once only when `replays`
/// is on (a restart that resumes behind its trail re-appends, as the
/// simulation does; the daemon deduplicates and never may), and then
/// every copy must agree. A record's decision state ([`decision_field`])
/// must be bit-identical to the reference's — a violation when `strict`,
/// counted as drift otherwise.
pub fn verify_replay(
    reference: &[String],
    crash: &[String],
    key: &str,
    records: u64,
    replays: bool,
    strict: bool,
) -> ReplayVerdict {
    let mut v = ReplayVerdict::default();
    if reference.len() as u64 != records {
        v.violations.push(format!("reference trail has {} lines, want {records}", reference.len()));
    }
    for (i, line) in reference.iter().enumerate() {
        if trail::key_of(line, key) != Some(i as u64) {
            v.violations.push(format!("reference trail line {i} is not {key} {i}: {line}"));
        }
    }
    let mut seen: Vec<Vec<&str>> = vec![Vec::new(); records as usize];
    for line in crash {
        match trail::key_of(line, key).and_then(|k| seen.get_mut(k as usize)) {
            Some(copies) => copies.push(decision_field(line)),
            None => v.violations.push(format!("crash trail has an alien line: {line}")),
        }
    }
    for (k, copies) in seen.iter().enumerate() {
        let Some(first) = copies.first() else {
            v.violations.push(format!("crash trail lost {key} {k}"));
            continue;
        };
        if copies.len() > 1 {
            v.replayed += 1;
            if !replays {
                v.violations.push(format!(
                    "{key} {k}: {} trail lines — a resubmission was re-executed",
                    copies.len()
                ));
            } else if copies.iter().any(|c| c != first) {
                v.violations.push(format!("crash trail replayed {key} {k} DIVERGENTLY"));
            }
        }
        match reference.get(k).map(|r| decision_field(r)) {
            Some(r) if r != *first && strict => v.violations.push(format!(
                "{key} {k} diverged from the reference\n  ref:   {r}\n  crash: {first}"
            )),
            Some(r) if r != *first => v.drifted += 1,
            _ => {}
        }
    }
    v
}

// ------------------------------------------------------------------ soak --

/// Soak configuration (`repro loadgen --soak`).
pub struct NetSoakConfig {
    /// Requests in the stream.
    pub requests: u64,
    /// Acks to observe before the SIGKILL.
    pub kill_after: u64,
    /// Problem base extent.
    pub size: usize,
    /// Convergence tolerance.
    pub tol: f64,
    /// Pool workers per child.
    pub workers: usize,
    /// Kernel-parallelism threads per child (`--threads`).
    pub threads: usize,
    /// Byte budget forwarded to every child (`--mem-budget`).
    pub mem_budget: Option<u64>,
    /// Working directory (per run: socket + state + child log).
    pub out: PathBuf,
}

/// One stream served to completion by daemon children in `dir`.
struct SoakRun {
    report: LoadgenReport,
    /// The children's stdout (every life of the run, in order).
    log: String,
    /// Complete lines of the durable trail after the drain.
    trail: Vec<String>,
}

/// Spawns a daemon child on `dir`'s socket and state directory, its
/// stdout appended to `dir/daemon.log`.
fn spawn_child(cfg: &NetSoakConfig, dir: &Path) -> Result<Child, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let log = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(dir.join("daemon.log"))
        .map_err(|e| format!("child log: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.arg("serve")
        .arg("--daemon")
        .arg("--addr")
        .arg(Endpoint::Unix(dir.join("daemon.sock")).to_string())
        .arg("--snapshot-dir")
        .arg(dir.join("state"))
        .arg("--size")
        .arg(cfg.size.to_string())
        .arg("--tol")
        .arg(format!("{:e}", cfg.tol))
        .arg("--workers")
        .arg(cfg.workers.to_string());
    if cfg.threads > 1 {
        cmd.arg("--threads").arg(cfg.threads.to_string());
    }
    if let Some(budget) = cfg.mem_budget {
        cmd.arg("--mem-budget").arg(budget.to_string());
    }
    cmd.stdout(Stdio::from(log)).stderr(Stdio::inherit());
    cmd.spawn().map_err(|e| format!("spawn child: {e}"))
}

/// Serves the whole stream from a fresh `dir`, SIGKILLing and at once
/// restarting the child after `kill_after` acks when given, then drains.
fn soak_run(cfg: &NetSoakConfig, dir: &Path, kill_after: Option<u64>) -> Result<SoakRun, String> {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let mut child = spawn_child(cfg, dir)?;
    // A bit more patience than the default ladder: a restart (snapshot
    // restore + possible reconciliation re-solve) sits inside one
    // request's retry window.
    let mut client = Client::new(ClientConfig {
        endpoint: Endpoint::Unix(dir.join("daemon.sock")),
        max_attempts: 24,
        ..ClientConfig::default()
    });
    let mut report = drive_stream(&mut client, cfg.requests, cfg.size, cfg.tol, &mut |done| {
        if Some(done.key + 1) == kill_after {
            // The in-flight connection dies with the child; the client's
            // backoff ladder reconnects and resubmits idempotently.
            println!("soak: SIGKILL after {} acks, immediate restart", done.key + 1);
            let _ = child.kill(); // no drain, no final checkpoint
            let _ = child.wait();
            child = spawn_child(cfg, dir)?;
        }
        Ok(())
    });
    if kill_after.is_some_and(|k| report.acked < k) {
        report.violations.push(format!("kill never landed: only {} acks", report.acked));
    }
    match client.shutdown() {
        Ok(seq) if seq == cfg.requests => {}
        Ok(seq) => report.violations.push(format!("drained at seq={seq}, not {}", cfg.requests)),
        Err(e) => {
            report.violations.push(format!("shutdown: {e}"));
            let _ = child.kill(); // never wait on a child nobody told to exit
        }
    }
    match child.wait() {
        Ok(status) if status.success() => {}
        Ok(status) => report.violations.push(format!("drained child exited {status}")),
        Err(e) => report.violations.push(format!("child wait: {e}")),
    }
    let state = dir.join("state");
    // Graceful drain flushed the snapshot: one of the A/B generations
    // must exist on disk.
    if !["a", "b"].iter().any(|slot| state.join(format!("{SNAPSHOT_FILE}.{slot}")).exists()) {
        report.violations.push("drain left no snapshot on disk".into());
    }
    let trail = std::fs::read(state.join(TRAIL_FILE)).map_err(|e| format!("trail: {e}"))?;
    let log = std::fs::read_to_string(dir.join("daemon.log")).unwrap_or_default();
    Ok(SoakRun { report, log, trail: trail::complete_lines(&trail) })
}

/// `evicted + uncached` of every `netdaemon: mem …` line in a child log
/// (echoed for the record).
fn budget_pressure(who: &str, log: &str) -> u64 {
    let mut pressure = 0;
    for rest in log.lines().filter_map(|l| l.strip_prefix("netdaemon: mem ")) {
        println!("soak: {who} child mem {rest}");
        pressure += rest
            .split_whitespace()
            .filter_map(|f| f.strip_prefix("evicted=").or_else(|| f.strip_prefix("uncached=")))
            .filter_map(|n| n.parse::<u64>().ok())
            .sum::<u64>();
    }
    pressure
}

/// The kill/restart acceptance soak. Returns the process exit code.
pub fn run_net_soak(cfg: &NetSoakConfig) -> i32 {
    println!("soak: reference run ({} requests, uninterrupted)", cfg.requests);
    let reference = soak_run(cfg, &cfg.out.join("ref"), None);
    println!("soak: crash run (SIGKILL after {} acks)", cfg.kill_after);
    let crash = soak_run(cfg, &cfg.out.join("crash"), Some(cfg.kill_after));
    let (reference, crash) = match (reference, crash) {
        (Ok(r), Ok(c)) => (r, c),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("soak: {e}");
            return 1;
        }
    };

    let mut violations: Vec<String> = Vec::new();
    for (who, run) in [("reference", &reference), ("crash", &crash)] {
        print_report(&format!("soak[{who}]"), &run.report, cfg.requests);
        violations.extend(run.report.violations.iter().map(|v| format!("{who} run: {v}")));
        if run.report.acked != cfg.requests {
            violations.push(format!("{who} run: only {}/{} acked", run.report.acked, cfg.requests));
        }
    }
    if crash.report.resubmissions == 0 {
        violations
            .push("the kill window produced no resubmission — the soak proved nothing".into());
    }
    let resumed = crash
        .log
        .lines()
        .filter_map(|l| l.strip_prefix("netdaemon: resumed seq=")?.trim().parse::<u64>().ok())
        .next_back();
    match resumed {
        Some(seq) if seq > 0 => println!("soak: restart resumed warm at seq={seq}"),
        _ => violations.push("restart did not report a snapshot resume past seq 0".into()),
    }

    // Exactly-once at the durable layer, and bit-identical decisions.
    // With a binding memory budget the decision compare is report-only
    // by design: budget refusals depend on which worker's bytes were
    // live at charge time, and a restarted governor is deliberately cold
    // (the snapshot restores metadata, not bytes).
    let strict = cfg.mem_budget.is_none();
    let verdict = verify_replay(&reference.trail, &crash.trail, "seq", cfg.requests, false, strict);
    if strict {
        if verdict.violations.is_empty() {
            println!("soak: {} decisions bit-identical to the reference", cfg.requests);
        }
        // The cache must have demonstrated its full event ladder in the
        // uninterrupted run. (Under a binding budget an entry may be
        // evicted before its rescale/invalidate revisit.)
        for needed in
            ["cache=hit", "cache=rescaled-hit", "cache=drift-invalidated", "cache=rebuilt"]
        {
            let n = reference.trail.iter().filter(|l| l.ends_with(needed)).count();
            println!("soak: reference {needed} x{n}");
            if n == 0 {
                violations.push(format!("reference run never produced {needed}"));
            }
        }
    } else {
        println!(
            "soak: {} decision(s) drifted under memory pressure (expected with --mem-budget; \
             the bit-compare applies to unbudgeted runs)",
            verdict.drifted
        );
        let pressure =
            budget_pressure("reference", &reference.log) + budget_pressure("crash", &crash.log);
        if pressure == 0 {
            violations.push(
                "no child evicted or served uncached — the budget never bound, the soak proved \
                 nothing about it"
                    .into(),
            );
        }
    }
    violations.extend(verdict.violations);

    if violations.is_empty() {
        println!(
            "soak: zero lost acks, exactly one trail line per seq, warm restart, graceful drain \
             verified"
        );
        0
    } else {
        for v in &violations {
            eprintln!("soak violation: {v}");
        }
        1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_nearest_rank() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&v, 50.0), 2.0);
        assert_eq!(percentile(&v, 99.0), 4.0);
        assert!(percentile(&[], 50.0).is_nan());
    }
}
