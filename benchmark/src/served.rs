//! `served`: `repro serve --daemon` as a child process, driven closed-loop
//! by one `runtime::net::Client` — the caller waits for each reply before
//! it sends the next request.
//!
//! At 10³ the solve is negligible, so admission, breaker, hierarchy
//! cache, trail fsync, A/B checkpoint and the MGW1 wire do nearly all the
//! work: the mirror image of `stream27`. The daemon derives each request
//! from its sequence number (`seq % 8`: 3 and 7 drift, 5 interactive,
//! 6 poison, the rest clean), so the stream takes no seed; `--seed` only
//! seeds the client's retry jitter, which a healthy run never draws on.

use std::time::{Duration, Instant};

use fp16mg_runtime::net::{Client, ClientConfig, Endpoint, SubmitRequest};

use crate::child::{repro_path, Proc, Scratch};
use crate::inproc::{note_samples, TOL};
use crate::reference::Bracketed;
use crate::report::Outcome;
use crate::stats::{median, tail};
use crate::trace::Tracer;

/// The CLI clamps `--size` to 10 for a served problem; measured as is.
pub const SIZE: usize = 10;
pub const QUICK_SIZE: usize = 6;
/// Never fewer requests than this in a full run.
const MIN_REQUESTS: u64 = 1200;
const MAX_REQUESTS: u64 = 40_000;
/// Daemons started (and, but for the last, drained at once) behind the
/// `setup_s` median.
const STARTS: usize = 15;
/// Requests of the probe a traced run of another workload sends.
const PROBE_REQUESTS: u64 = 200;
/// Requests between two reference passes: fifteen whole cycles of eight,
/// a second or so, against which the reference pass is short.
const BLOCK: u64 = 120;
const READY_DEADLINE: Duration = Duration::from_secs(20);
const DRAIN_DEADLINE: Duration = Duration::from_secs(20);
/// The stream as a whole; what is unsent by then counts as failed.
const WORKLOAD_DEADLINE: Duration = Duration::from_secs(120);

pub struct Daemon {
    // Field order is drop order: the client hangs up first, the child is
    // killed (if it still runs) and reaped next, its directory goes last.
    client: Client,
    proc: Proc,
    _scratch: Scratch,
    size: usize,
    /// Spawn → first `Pong`.
    pub ready_s: f64,
}

impl Daemon {
    /// Starts a daemon on a socket and a state directory of its own and
    /// waits for its first `Pong`.
    ///
    /// # Errors
    /// The child could not be started or did not answer in time (it is
    /// killed then).
    pub fn start(size: usize, seed: u64) -> Result<Daemon, String> {
        let scratch = Scratch::new()?;
        let socket = scratch.path().join("s.sock");
        let args: Vec<String> = [
            "serve",
            "--daemon",
            "--addr",
            &format!("unix:{}", socket.display()),
            "--size",
            &size.to_string(),
            "--workers",
            "1",
            "--snapshot-dir",
            &scratch.path().join("state").display().to_string(),
        ]
        .map(String::from)
        .to_vec();
        let proc = Proc::spawn(&repro_path(), &args)?;
        // Every wait is bounded: a request that gets no reply fails after
        // three five-second attempts instead of hanging the benchmark.
        let mut client = Client::new(ClientConfig {
            endpoint: Endpoint::Unix(socket),
            max_attempts: 3,
            deadlines: [Duration::from_secs(5); 3],
            seed,
            ..ClientConfig::default()
        });
        let deadline = proc.spawned + READY_DEADLINE;
        while client.ping().is_err() {
            if Instant::now() >= deadline {
                return Err("daemon did not answer a Ping before the readiness deadline".into());
            }
            std::thread::sleep(Duration::from_micros(500));
        }
        let ready_s = proc.spawned.elapsed().as_secs_f64();
        Ok(Daemon { client, proc, _scratch: scratch, size, ready_s })
    }

    /// `Shutdown` → `ShutdownOk`, then the child's own exit. Returns the
    /// seconds both took and the sequence number the daemon drained at.
    ///
    /// # Errors
    /// The drain was refused, or the child did not exit cleanly in time.
    pub fn drain(mut self) -> Result<(f64, u64), String> {
        let t0 = Instant::now();
        let seq = self.client.shutdown().map_err(|e| format!("shutdown: {e}"))?;
        match self.proc.wait_until(t0 + DRAIN_DEADLINE) {
            Some(status) if status.success() => Ok((t0.elapsed().as_secs_f64(), seq)),
            Some(status) => Err(format!("drained daemon exited with {status}")),
            None => Err("daemon did not exit after ShutdownOk".into()),
        }
    }
}

/// The label a request's stream class deterministically produces: the
/// poison class exhausts its four iterations (`unconverged`) until its
/// breaker opens and refuses it (`breaker-open`); everything else is `ok`.
fn label_ok(seq: u64, outcome: &str) -> bool {
    match seq % 8 {
        6 => outcome == "unconverged" || outcome == "breaker-open",
        _ => outcome == "ok",
    }
}

/// A run of [`BLOCK`] consecutive requests between two reference passes.
pub struct Block {
    pub p50_s: f64,
    pub wall_s: f64,
    pub requests: usize,
    pub reference_s: f64,
}

#[derive(Default)]
pub struct Stream {
    /// `(seq, round trip)` of every acknowledged request, in order.
    pub latencies: Vec<(u64, f64)>,
    /// Filled when the stream was bracketed.
    pub blocks: Vec<Block>,
}

impl Stream {
    pub fn class(&self, pick: impl Fn(u64) -> bool) -> Vec<f64> {
        self.latencies.iter().filter(|(s, _)| pick(s % 8)).map(|&(_, t)| t).collect()
    }
}

/// Submits requests `0..` until `min` are through and `seconds` have
/// passed, always ending on a whole cycle of eight — a whole block when
/// bracketed — so every run has the same class mix. Each request is one
/// operation; it fails when it errors, acks the wrong key or carries a
/// label its class cannot produce.
pub fn drive(
    daemon: &mut Daemon,
    min: u64,
    seconds: f64,
    tracer: Option<&Tracer>,
    mut bracket: Option<&mut Bracketed>,
    out: &mut Outcome,
) -> Stream {
    let mut stream = Stream::default();
    let mut block_start = Instant::now();
    let unit = if bracket.is_some() { BLOCK } else { 8 };
    let t0 = Instant::now();
    let mut seq = 0;
    loop {
        let elapsed = t0.elapsed();
        let more = seq < min
            || ((seq % unit != 0 || elapsed.as_secs_f64() < seconds) && seq < MAX_REQUESTS);
        if !more {
            break;
        }
        if elapsed > WORKLOAD_DEADLINE {
            let rest = min.saturating_sub(seq);
            out.note(format!(
                "FAILED: workload deadline passed at seq={seq}; {rest} requests not sent"
            ));
            out.attempted += rest;
            out.failed += rest;
            break;
        }
        let priority = if seq % 8 == 5 { 0 } else { 1 };
        let req = SubmitRequest { key: seq, size: daemon.size as u32, tol: TOL, priority };
        out.attempted += 1;
        let sent = Instant::now();
        let reply = daemon.client.submit(req);
        let got = Instant::now();
        match reply {
            Ok(done) if done.key != seq => out.fail(format!("seq={seq}: ack for key {}", done.key)),
            Ok(done) if !label_ok(seq, &done.outcome) => {
                out.fail(format!(
                    "seq={seq}: outcome `{}` is not one its class produces",
                    done.outcome
                ));
            }
            Ok(_) => {
                stream.latencies.push((seq, (got - sent).as_secs_f64()));
                if let Some(t) = tracer {
                    t.record("runtime.request", sent, got);
                }
            }
            Err(e) => {
                // The stream is ordered: after a lost request the rest
                // cannot be trusted, so they count as failed unsent.
                let rest = min.saturating_sub(seq + 1);
                out.fail(format!("seq={seq}: {e}; {rest} further requests not sent"));
                out.attempted += rest;
                out.failed += rest;
                break;
            }
        }
        seq += 1;
        if let (0, Some(refs)) = (seq % BLOCK, bracket.as_deref_mut()) {
            // The daemon idles while the reference pass runs; the pause
            // belongs to no request and to no block.
            let wall = block_start.elapsed().as_secs_f64();
            let first = stream.latencies.partition_point(|&(s, _)| s < seq - BLOCK);
            let block: Vec<f64> = stream.latencies[first..].iter().map(|&(_, t)| t).collect();
            if !block.is_empty() {
                stream.blocks.push(Block {
                    p50_s: median(&block),
                    wall_s: wall,
                    requests: block.len(),
                    reference_s: refs.close(),
                });
            }
            block_start = Instant::now();
        }
    }
    stream
}

/// The untraced end-to-end run. An operation is one request; set-up is
/// spawn → first `Pong`, over several daemons of which the last one serves.
pub fn run(seed: u64, seconds: f64, quick: bool) -> Outcome {
    let mut out = Outcome::default();
    let (size, min, starts) =
        if quick { (QUICK_SIZE, BLOCK, 2) } else { (SIZE, MIN_REQUESTS, STARTS) };
    let mut refs = Bracketed::new();
    // A start takes milliseconds, a reference pass a quarter of a second:
    // the starts run back to back inside one bracket.
    let mut ready_s = Vec::new();
    let mut serving = None;
    for i in 0..starts {
        match Daemon::start(size, seed) {
            Ok(d) => {
                ready_s.push(d.ready_s);
                if i + 1 == starts {
                    serving = Some(d);
                } else if let Err(e) = d.drain() {
                    out.note(format!("start {i}: {e}"));
                }
            }
            Err(e) => out.note(format!("start {i}: {e}")),
        }
    }
    let reference = refs.close();
    let ready_rel: Vec<f64> = ready_s.iter().map(|t| t / reference).collect();
    let Some(mut daemon) = serving else {
        out.attempted += min;
        out.failed += min;
        out.note("FAILED: the serving daemon did not start");
        return out;
    };
    let stream = drive(&mut daemon, min, seconds, None, Some(&mut refs), &mut out);
    let stats = daemon.client.stats.clone();
    match daemon.drain() {
        Ok((drain_s, at)) => out.note(format!("drained at seq={at} in {drain_s:.4} s")),
        Err(e) => out.fail(e),
    }
    let all = stream.class(|_| true);
    if stream.blocks.is_empty() {
        return out;
    }
    out.note(format!(
        "repro serve --daemon --size {size} --workers 1, one closed-loop client, {} requests in {} blocks of {BLOCK} between reference passes; {} starts",
        out.attempted,
        stream.blocks.len(),
        ready_s.len()
    ));
    let p50_rel: Vec<f64> = stream.blocks.iter().map(|b| b.p50_s / b.reference_s).collect();
    let busy_rel: f64 = stream.blocks.iter().map(|b| b.wall_s / b.reference_s).sum();
    let served: usize = stream.blocks.iter().map(|b| b.requests).sum();
    out.push("setup_s", median(&ready_s), ready_s.len());
    out.push("setup_rel", median(&ready_rel), ready_rel.len());
    out.push("solve_rel", median(&p50_rel), p50_rel.len());
    out.push("throughput_rel", served as f64 / busy_rel, served);
    let busy_s: f64 = stream.blocks.iter().map(|b| b.wall_s).sum();
    out.note(format!(
        "in seconds: ready {:.6}, round trip p50 {:.6} over {} requests, {:.2} requests/s; reference pass {:.6}",
        median(&ready_s),
        median(&all),
        all.len(),
        served as f64 / busy_s,
        refs.reference_s()
    ));
    if let Some((p, v)) = tail(&all) {
        out.note(format!("not gated: p{p:.0} round trip {v:.6} s (highest percentile with >= 10 samples beyond it)"));
    }
    out.note(format!(
        "client: busy_retries {} resubmissions {} reconnects {} duplicate_acks {}",
        stats.busy_retries, stats.resubmissions, stats.reconnects, stats.duplicate_acks
    ));
    let p50_s: Vec<f64> = stream.blocks.iter().map(|b| b.p50_s).collect();
    note_samples(&mut out, &p50_s, &ready_s, &p50_rel, &ready_rel);
    out
}

/// The daemon's part of a traced run: readiness, ping round trips, the
/// request stream split by class, the client's retry counters, the drain.
/// `full` runs the workload's own stream; otherwise a short probe, so that
/// every traced run shows whether the serving layers moved.
pub fn traced(full: bool, quick: bool, seed: u64, tracer: &Tracer, out: &mut Outcome) {
    const NAMES: [&str; 11] = [
        "bench.daemon_ready_s",
        "runtime.ping_rtt_p50_s",
        "runtime.req_clean_p50_s",
        "runtime.req_drift_p50_s",
        "runtime.req_poison_p50_s",
        "runtime.req_p99_s",
        "runtime.busy_retries",
        "runtime.resubmissions",
        "runtime.reconnects",
        "runtime.duplicate_acks",
        "bench.drain_s",
    ];
    let (size, min) = match (quick, full) {
        (true, _) => (QUICK_SIZE, 80),
        (false, true) => (SIZE, MIN_REQUESTS),
        (false, false) => (SIZE, PROBE_REQUESTS),
    };
    let measured = tracer.span("bench.serve", || -> Result<[(f64, usize); 11], String> {
        let mut daemon = Daemon::start(size, seed)?;
        tracer.record("bench.daemon_ready", daemon.proc.spawned, Instant::now());
        let ready_s = daemon.ready_s;
        let pings: Vec<f64> = (0..50)
            .filter_map(|_| {
                let (r, id) = tracer.span_id("runtime.ping", || daemon.client.ping());
                r.ok().map(|()| tracer.secs(id))
            })
            .collect();
        let stream = drive(&mut daemon, min, 0.0, Some(tracer), None, out);
        let stats = daemon.client.stats.clone();
        let (drain_s, _) = tracer.span("bench.drain", || daemon.drain())?;
        let classes = [
            stream.class(|c| !matches!(c, 3 | 6 | 7)),
            stream.class(|c| matches!(c, 3 | 7)),
            stream.class(|c| c == 6),
        ];
        if pings.is_empty() || classes.iter().any(Vec::is_empty) {
            return Err("a request class or the pings have no sample".into());
        }
        let all = stream.class(|_| true);
        // p99 where a thousand samples support it; on a probe, the highest
        // percentile that has ten samples beyond it.
        let high = tail(&all).map_or_else(|| all.iter().copied().fold(0.0, f64::max), |(_, v)| v);
        Ok([
            (ready_s, 1),
            (median(&pings), pings.len()),
            (median(&classes[0]), classes[0].len()),
            (median(&classes[1]), classes[1].len()),
            (median(&classes[2]), classes[2].len()),
            (high, all.len()),
            (stats.busy_retries as f64, 1),
            (stats.resubmissions as f64, 1),
            (stats.reconnects as f64, 1),
            (stats.duplicate_acks as f64, 1),
            (drain_s, 1),
        ])
    });
    let values = measured.unwrap_or_else(|e| {
        out.attempted += 1;
        out.fail(format!("served layer: {e}"));
        [(0.0, 0); 11]
    });
    for (name, (v, samples)) in NAMES.into_iter().zip(values) {
        out.push(name, v, samples);
    }
}
