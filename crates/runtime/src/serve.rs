//! The daemon: one externally driven serve loop behind the framed wire
//! protocol of [`crate::net`], and the things only it may know.
//!
//! Clients submit one request at a time over a Unix or TCP socket. Each
//! is gated individually by the [`AdmissionQueue`] (a refusal is a typed
//! `Busy` frame, never buffering) and applied under one durability
//! order: **solve → append trail (fsynced) → checkpoint → ack**. An ack
//! on the wire therefore means the decision is durable; a connection —
//! or the process — killed at any instant loses nothing that was acked.
//!
//! **The stream function.** Request *content* is a pure function of the
//! sequence number ([`request_for`], with [`priority_for`] its wire
//! priority), and the wire carries idempotency keys (the claimed
//! sequence number). That makes exactly-once provable: every applied
//! seq has exactly one trail line ([`trail_line`]), and a resubmission
//! of an applied key is answered from the decision record (loaded from
//! the durable trail at startup) with `duplicate = true`.
//!
//! **Restart reconciliation.** On startup the server truncates a torn
//! final trail record ([`crate::trail::recover`]), refuses to start on
//! a gapped trail or a snapshot that claims more than the trail holds,
//! and — when the trail runs ahead of the snapshot (a kill between
//! trail append and checkpoint) — replays the covered window through
//! the pool *without appending*, verifying each replayed decision is
//! bit-identical to its durable line. Divergence is a refusal to serve,
//! not a silent fork.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use fp16mg_core::MgConfig;
use fp16mg_krylov::{HealthPolicy, SolveError, SolveOptions};
use fp16mg_problems::ProblemKind;
use fp16mg_sgdia::kernels::Par;

use crate::admission::{AdmissionConfig, AdmissionQueue, Priority};
use crate::breaker::BreakerConfig;
use crate::cache::CacheConfig;
use crate::ladder::{RetryPolicy, SolveRequest};
use crate::net::{
    codes, read_frame, write_frame, Acceptor, Conn, DoneReply, Endpoint, Frame, Listener,
    SubmitRequest, WireError,
};
use crate::pool::{PoolConfig, RequestOutcome, ServeError, ServePool};
use crate::shed::ShedPolicy;
use crate::storage::{append_durable, Storage};
use crate::supervise::{Daemon, DaemonConfig, SuperviseConfig};
use crate::trail;

/// Snapshot base name inside the state directory (the A/B slots are
/// `<base>.a` / `<base>.b`).
pub const SNAPSHOT_FILE: &str = "daemon.snapshot";
/// Trail file name inside the state directory.
pub const TRAIL_FILE: &str = "trail.log";

// ------------------------------------------------------ stream function --

/// The daemon pool shape: protections on, cache on, supervision on,
/// shedding off (the stream is paced by its client, not pressure), and a
/// small jittered breaker so the poison class demonstrably trips and
/// recovers inside a short run.
pub fn pool_cfg(workers: usize, mem_budget: Option<u64>) -> PoolConfig {
    // Under a pool byte budget the cache gets half: retained chains
    // evict LRU-first at insert time (deterministic, no shed policy
    // needed) before the governor ever has to refuse a session's
    // transient setup/workspace charges, so eviction — not refusal —
    // is the first response to byte pressure.
    let cache = CacheConfig { byte_budget: mem_budget.map(|b| b / 2), ..CacheConfig::default() };
    PoolConfig {
        workers,
        admission: AdmissionConfig::default(),
        shed: ShedPolicy::disabled(),
        mem_budget,
        breaker: BreakerConfig {
            window: 4,
            min_samples: 2,
            failure_threshold: 0.5,
            cooldown: 3,
            cooldown_jitter: 2,
            probes: 1,
            probe_successes: 1,
            ..BreakerConfig::default()
        },
        cache,
        supervise: SuperviseConfig::default(),
    }
}

/// The wire priority byte of sequence number `seq`: interactive where
/// [`request_for`] builds interactive traffic, batch otherwise.
pub fn priority_for(seq: u64) -> u8 {
    if seq % 8 == 5 {
        0
    } else {
        1
    }
}

/// The request at sequence number `seq` — a pure function of
/// `(seq, size, tol, par)`, so a replayed window reconstructs the exact
/// submitted stream. `par` only parallelizes the solve-phase SpMV (the
/// smoothers stay as configured; row partitioning never reorders the
/// per-row reduction), so decisions and residual bits are identical at
/// any thread count.
pub fn request_for(seq: u64, size: usize, tol: f64, par: Par) -> SolveRequest {
    let mut problem = ProblemKind::Laplace27.build(size);
    let clean = SolveOptions { tol, record_history: false, ..Default::default() };
    let class = seq % 8;
    if matches!(class, 3 | 7) {
        // The drift class: the same geometry revisited with a rescaled
        // operator. The factor cycle walks the audit ladder: ~1.0 stays
        // within the keep bound, 4.0 forces a rescale-in-place, 24.0
        // exceeds the rescale bound and invalidates. Visits land at
        // seq 3, 7 mod 8, so a 16-request stream walks the full ladder.
        let factors = [1.0, 1.1, 4.0, 24.0];
        let factor = factors[((seq / 4) as usize) % factors.len()];
        for v in problem.matrix.data_mut() {
            *v *= factor;
        }
    }
    let mut req = SolveRequest::new(format!("req-{seq:05}"), problem, MgConfig::d16());
    req.opts = clean;
    req.par = par;
    match class {
        // A deterministically failing class: tolerance zero, health
        // checks off, four iterations, no retries. Trips its breaker.
        6 => {
            req.class = "poison".to_string();
            req.opts.tol = 0.0;
            req.opts.health = HealthPolicy::disabled();
            req.budget.max_iters = Some(4);
            req.policy = RetryPolicy::fail_fast();
        }
        3 | 7 => req.class = "drift".to_string(),
        // Interactive-priority clean traffic (shares the laplace27
        // cache entry with the steady batch traffic of the other
        // classes, whose identical operator hits after the first build).
        5 => req.priority = Priority::Interactive,
        _ => {}
    }
    req
}

// --------------------------------------------------- trail-line format --

/// The wire/trail vocabulary for a session or rejection error.
pub fn err_label(e: &ServeError) -> &'static str {
    match e {
        ServeError::Rejected(a) => a.label(),
        ServeError::Session(s) => match s {
            SolveError::Unconverged { .. } => "unconverged",
            SolveError::DeadlineExceeded { .. } => "deadline",
            SolveError::Cancelled { .. } => "cancelled",
            SolveError::VcycleBudgetExceeded { .. } => "vcycle-budget",
            SolveError::WorkerPanicked { .. } => "panicked",
            SolveError::SetupFailed { .. } => "setup-failed",
            _ => "numerical",
        },
    }
}

/// One durable trail line. Everything before ` cache=`
/// ([`decision_field`]) is **decision state** and must replay
/// bit-identically after a crash; the cache field is physical (a
/// restored cache is cold) and excluded from every comparison.
pub fn trail_line(seq: u64, o: &RequestOutcome, pool: &ServePool) -> String {
    let outcome = match &o.result {
        Ok(_) => "ok",
        Err(e) => err_label(e),
    };
    let breaker = pool.breakers().state(&o.class).map(|s| s.label()).unwrap_or("closed");
    let cache = o.cache.map(|k| k.label()).unwrap_or("none");
    format!(
        "seq={seq} req={} class={} prio={} profile={} outcome={outcome} breaker={breaker} cache={cache}\n",
        o.name,
        o.class,
        o.priority.label(),
        o.profile.label(),
    )
}

/// The decision state of a trail line: everything before ` cache=`.
pub fn decision_field(line: &str) -> &str {
    line.split(" cache=").next().unwrap_or(line)
}

fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!(" {key}=");
    let rest = &line[line.find(&pat)? + pat.len()..];
    rest.split_whitespace().next()
}

/// One remembered decision, reconstructable from a trail line and
/// sufficient to answer a duplicate submission without re-executing.
#[derive(Clone, Debug)]
struct Decision {
    line: String,
    outcome: String,
    profile: String,
    breaker: String,
}

impl Decision {
    /// Parses a trail line (without its newline) into its key and record.
    fn parse(line: &str) -> Option<(u64, Decision)> {
        let decision = Decision {
            line: line.to_string(),
            outcome: field(line, "outcome")?.to_string(),
            profile: field(line, "profile")?.to_string(),
            breaker: field(line, "breaker")?.to_string(),
        };
        Some((trail::key_of(line, "seq")?, decision))
    }

    fn reply(&self, key: u64, duplicate: bool) -> Frame {
        Frame::Done(DoneReply {
            key,
            duplicate,
            outcome: self.outcome.clone(),
            profile: self.profile.clone(),
            breaker: self.breaker.clone(),
        })
    }
}

// ------------------------------------------------------------ the loop --

/// Configuration of one serving run ([`serve_net`]).
pub struct NetServeConfig {
    /// Where to listen.
    pub endpoint: Endpoint,
    /// Directory (in the storage namespace) holding snapshot + trail.
    pub state_dir: PathBuf,
    /// Problem base extent of the stream.
    pub size: usize,
    /// Convergence tolerance of the stream.
    pub tol: f64,
    /// Pool workers.
    pub workers: usize,
    /// Kernel-parallelism threads for the solve phase (`--threads`);
    /// `0` and `1` stay sequential.
    pub threads: usize,
    /// Byte budget for the pool's memory governor. When set, a run whose
    /// tracked bytes ever exceeded it ends with a violation.
    pub mem_budget: Option<u64>,
    /// Per-connection read/write deadline (the slowloris bound).
    pub conn_deadline: Duration,
    /// Accept-loop backlog; connections beyond it get a typed `Busy`.
    pub backlog: usize,
    /// Admission-queue shape for per-request backpressure.
    pub admission: AdmissionConfig,
    /// **Torture self-check only**: acknowledge *before* the trail
    /// append, and append without fsync — deliberately breaking the
    /// durability order so the harness can prove it detects the
    /// violation. Never set outside `nettorture`.
    pub break_ack_order: bool,
    /// Suppress stdout (for in-process harness servers).
    pub quiet: bool,
}

impl NetServeConfig {
    /// The default shape for an endpoint + state dir: small problems,
    /// one worker, generous deadlines.
    pub fn new(endpoint: Endpoint, state_dir: PathBuf) -> Self {
        NetServeConfig {
            endpoint,
            state_dir,
            size: 8,
            tol: 1e-7,
            workers: 1,
            threads: 1,
            mem_budget: None,
            conn_deadline: Duration::from_secs(5),
            backlog: 16,
            admission: AdmissionConfig::default(),
            break_ack_order: false,
            quiet: false,
        }
    }
}

/// Counters of one serving run, for reports and assertions.
#[derive(Clone, Debug, Default)]
pub struct NetCounters {
    /// Connections accepted.
    pub accepted: u64,
    /// Connections refused with a typed `Busy` at the accept backlog.
    pub busy_connections: u64,
    /// Requests refused with a typed `Busy` by the admission queue.
    pub busy_requests: u64,
    /// Requests executed (excludes duplicates).
    pub served: u64,
    /// Acks answered from the durable decision record.
    pub duplicate_acks: u64,
    /// Typed wire errors observed per label (`deadline` counts the
    /// slowloris defense closing a stalled connection;
    /// `torn-trail-truncated` a torn final trail record dropped at
    /// startup).
    pub wire_errors: BTreeMap<String, u64>,
    /// Sequence numbers replayed (without re-appending) during restart
    /// reconciliation.
    pub reconciled: u64,
}

/// What one serving run did and whether it upheld its contract.
#[derive(Clone, Debug, Default)]
pub struct NetServeReport {
    /// Stream position after the run.
    pub seq: u64,
    /// `true` once the graceful drain (trail fsync + final snapshot)
    /// completed.
    pub drained: bool,
    /// `true` when the daemon resumed from a snapshot.
    pub restored: bool,
    /// Counters of the run.
    pub counters: NetCounters,
    /// Contract violations (fatal; the CLI maps any to a nonzero exit).
    pub violations: Vec<String>,
}

/// Maps a wire priority byte onto the admission [`Priority`].
fn priority_of(byte: u8) -> Priority {
    match byte {
        0 => Priority::Interactive,
        1 => Priority::Batch,
        _ => Priority::BestEffort,
    }
}

/// Runs the daemon until a client requests a graceful drain. Blocking;
/// harnesses run it on a thread and join for the report.
pub fn serve_net(cfg: &NetServeConfig, storage: Arc<dyn Storage>) -> NetServeReport {
    let mut report = NetServeReport::default();
    if let Err(violation) = serve(cfg, storage, &mut report) {
        report.violations.push(violation);
    }
    report
}

/// The state one serving run owns between accept and drain.
struct Server<'a> {
    cfg: &'a NetServeConfig,
    storage: Arc<dyn Storage>,
    trail: PathBuf,
    daemon: Daemon,
    admission: AdmissionQueue,
    /// The decision of every applied seq, indexed by seq.
    decisions: Vec<Decision>,
    par: Par,
}

fn serve(
    cfg: &NetServeConfig,
    storage: Arc<dyn Storage>,
    report: &mut NetServeReport,
) -> Result<(), String> {
    let say = |msg: String| {
        if !cfg.quiet {
            println!("{msg}");
            use std::io::Write as _;
            let _ = std::io::stdout().flush();
        }
    };

    // Bind before the (potentially slow) daemon restore so early client
    // connects queue in the OS backlog instead of being refused.
    let listener =
        Listener::bind(&cfg.endpoint).map_err(|e| format!("bind {}: {e}", cfg.endpoint))?;
    let mut acceptor = Acceptor::spawn(listener, cfg.backlog, cfg.conn_deadline)
        .map_err(|e| format!("acceptor: {e}"))?;

    storage.create_dir_all(&cfg.state_dir).map_err(|e| format!("state dir: {e}"))?;
    let daemon = Daemon::start(DaemonConfig {
        pool: pool_cfg(cfg.workers, cfg.mem_budget),
        snapshot_path: Some(cfg.state_dir.join(SNAPSHOT_FILE)),
        storage: Arc::clone(&storage),
    })
    .map_err(|e| format!("snapshot unusable: {e}"))?;
    report.restored = daemon.restored();
    say(if daemon.restored() {
        format!("netdaemon: resumed seq={}", daemon.seq())
    } else {
        "netdaemon: cold start".to_string()
    });

    let mut server = Server {
        cfg,
        trail: cfg.state_dir.join(TRAIL_FILE),
        storage,
        daemon,
        admission: AdmissionQueue::new(cfg.admission.clone()),
        decisions: Vec::new(),
        par: if cfg.threads > 1 { Par::Threads(cfg.threads) } else { Par::Seq },
    };
    server.reconcile(report)?;
    if report.counters.reconciled > 0 {
        say(format!("netdaemon: reconciled {} trailed seq(s)", report.counters.reconciled));
    }
    say(format!("netdaemon: listening on {} seq={}", cfg.endpoint, server.daemon.seq()));

    let drain_conn = server.accept_loop(&acceptor, report);
    acceptor.stop();
    report.counters.busy_connections = acceptor.busy();
    report.seq = server.daemon.seq();
    let Some(mut conn) = drain_conn? else { return Ok(()) };

    // Graceful drain: the serve loop is single-threaded, so nothing is
    // in flight here. Final snapshot rotation via `drain`, and only then
    // the acknowledgement on the wire.
    let pool = server.daemon.pool();
    let (governor, cache) = (pool.governor().clone(), pool.cache());
    let (evicted, uncached) = (cache.mem_evictions(), cache.uncached_serves());
    let drained = server.daemon.drain();
    let reply = match &drained {
        Ok(dr) => Frame::ShutdownOk { seq: dr.seq },
        Err(e) => Frame::Error { code: codes::INTERNAL, detail: e.to_string() },
    };
    let _ = write_frame(&mut conn, &reply);
    conn.shutdown();
    drained.map_err(|e| format!("drain: {e}"))?;
    report.drained = true;
    let c = &report.counters;
    say(format!(
        "netdaemon: drained=true seq={} served={} dup-acks={} busy={} conns={}",
        report.seq, c.served, c.duplicate_acks, c.busy_requests, c.accepted,
    ));
    // Memory accounting — deliberately outside the trail (the trail
    // bit-compare covers decisions, not byte counts). With a budget set
    // the run self-checks: tracked bytes must never have exceeded it.
    let budget = governor.budget();
    say(format!(
        "netdaemon: mem peak={} budget={} evicted={evicted} uncached={uncached}",
        governor.peak(),
        budget.map_or_else(|| "none".to_string(), |b| b.to_string()),
    ));
    match budget {
        Some(b) if governor.peak() > b => {
            Err(format!("MEM BUDGET VIOLATED: peak {} B > budget {b} B", governor.peak()))
        }
        _ => Ok(()),
    }
}

impl Server<'_> {
    /// Solves `seq` and advances the cursor; returns its trail line.
    fn solve(&mut self, seq: u64) -> String {
        let req = request_for(seq, self.cfg.size, self.cfg.tol, self.par);
        let outcomes = self.daemon.submit(vec![req]);
        trail_line(seq, &outcomes[0], self.daemon.pool())
    }

    /// Restart reconciliation: load the decision record from the durable
    /// trail and bring the snapshot cursor up to it.
    fn reconcile(&mut self, report: &mut NetServeReport) -> Result<(), String> {
        let (lines, torn) = trail::recover(self.storage.as_ref(), &self.trail)
            .map_err(|e| format!("trail recovery: {e}"))?;
        if torn > 0 {
            // Expected after a kill mid-append: dropped and counted,
            // never fatal.
            *report.counters.wire_errors.entry("torn-trail-truncated".into()).or_insert(0) += 1;
        }
        for line in &lines {
            let (seq, decision) =
                Decision::parse(line).ok_or_else(|| format!("unparseable trail line: {line}"))?;
            if seq != self.decisions.len() as u64 {
                return Err("trail has gaps or duplicate seqs; refusing to serve".into());
            }
            self.decisions.push(decision);
        }
        let covered = self.decisions.len() as u64;
        if self.daemon.seq() > covered {
            // A snapshot claiming more progress than the durable trail
            // means an ack could reference a decision that no longer
            // exists — the lying-fsync shape. Refuse rather than serve
            // unanswerable duplicates.
            return Err(format!(
                "snapshot seq={} ahead of durable trail coverage {covered}; refusing to serve",
                self.daemon.seq()
            ));
        }
        while self.daemon.seq() < covered {
            // The trail ran ahead of the snapshot (kill between append
            // and checkpoint): re-derive those decisions through the
            // pool so its state advances identically, but do NOT append
            // — the durable line already exists, and exactly-once means
            // never writing a second one. A different decision would
            // mean the replayed stream is not the one that was acked.
            let seq = self.daemon.seq();
            let replayed = self.solve(seq);
            let durable = &self.decisions[seq as usize].line;
            if decision_field(&replayed) != decision_field(durable) {
                return Err(format!(
                    "reconciliation divergence at seq={seq}: durable `{durable}` vs replayed `{}`",
                    replayed.trim_end()
                ));
            }
            report.counters.reconciled += 1;
        }
        if report.counters.reconciled > 0 {
            self.daemon.checkpoint().map_err(|e| format!("post-reconcile checkpoint: {e}"))?;
        }
        Ok(())
    }

    /// Serves connections until a `Shutdown` frame arrives; returns the
    /// requesting connection so the ack can be sent only once the final
    /// snapshot is durable (`None` when the accept loop died instead).
    ///
    /// # Errors
    /// A fatal durability failure while applying a request.
    fn accept_loop(
        &mut self,
        acceptor: &Acceptor,
        report: &mut NetServeReport,
    ) -> Result<Option<Conn>, String> {
        loop {
            let Some(mut conn) = acceptor.next(Duration::from_millis(200)) else {
                if acceptor.finished() {
                    report.violations.push("accept loop died without a drain request".into());
                    return Ok(None);
                }
                continue;
            };
            report.counters.accepted += 1;
            loop {
                let frame = match read_frame(&mut conn) {
                    Ok(f) => f,
                    Err(WireError::Closed) => break,
                    Err(e) => {
                        *report.counters.wire_errors.entry(e.label().into()).or_insert(0) += 1;
                        // Decode failures get a typed answer before the
                        // (now unsynchronized) stream is closed; deadline
                        // trips and transport failures just close.
                        if !matches!(
                            e,
                            WireError::Deadline
                                | WireError::ConnectionLost(_)
                                | WireError::Truncated { .. }
                        ) {
                            let reply = Frame::Error { code: e.code(), detail: e.to_string() };
                            let _ = write_frame(&mut conn, &reply);
                        }
                        conn.shutdown();
                        break;
                    }
                };
                let reply = match frame {
                    Frame::Ping => Frame::Pong,
                    Frame::Submit(sr) => match self.submit(&sr, &mut report.counters) {
                        Ok(reply) => reply,
                        Err(fatal) => {
                            conn.shutdown();
                            return Err(fatal);
                        }
                    },
                    Frame::Shutdown => return Ok(Some(conn)),
                    other => {
                        let reply = Frame::Error {
                            code: codes::UNEXPECTED,
                            detail: format!("unexpected frame kind {}", other.kind()),
                        };
                        let _ = write_frame(&mut conn, &reply);
                        conn.shutdown();
                        break;
                    }
                };
                // A lost ack is fine: the decision (if any) is durable
                // and the client's retry will deduplicate.
                if write_frame(&mut conn, &reply).is_err() {
                    break;
                }
            }
        }
    }

    /// Serves one submission: dedup below the cursor, typed refusal
    /// above it, and the durability pipeline at it.
    ///
    /// # Errors
    /// A failed trail append or checkpoint — the daemon stops serving.
    fn submit(&mut self, sr: &SubmitRequest, counters: &mut NetCounters) -> Result<Frame, String> {
        if sr.size as usize != self.cfg.size || sr.tol != self.cfg.tol {
            return Ok(Frame::Error {
                code: codes::STREAM_MISMATCH,
                detail: format!("stream is size={} tol={}", self.cfg.size, self.cfg.tol),
            });
        }
        let seq = self.daemon.seq();
        if sr.key < seq {
            // Already applied: answer from the decision record, never
            // re-execute. This is the at-least-once dedup on the wire.
            counters.duplicate_acks += 1;
            return Ok(self.decisions[sr.key as usize].reply(sr.key, true));
        }
        if sr.key > seq {
            return Ok(Frame::Error { code: codes::OUT_OF_ORDER, detail: format!("want {seq}") });
        }
        // Streaming admission: each request reserves individually;
        // refusal is typed backpressure on the wire, not a buffered queue.
        let priority = priority_of(sr.priority);
        if let Err(e) = self.admission.try_reserve(priority) {
            counters.busy_requests += 1;
            return Ok(Frame::Busy {
                reason: e.label().to_string(),
                retry_ms: 25 * (1 + self.admission.depth() as u32),
            });
        }
        let applied = self.apply(seq);
        self.admission.release(priority);
        counters.served += u64::from(applied.is_ok());
        applied
    }

    /// The durability pipeline for one admitted request:
    /// solve → trail append (fsynced) → checkpoint → ack.
    fn apply(&mut self, seq: u64) -> Result<Frame, String> {
        let line = self.solve(seq);
        let (_, decision) =
            Decision::parse(line.trim_end()).expect("trail_line emits parseable lines");
        let done = decision.reply(seq, false);
        self.decisions.push(decision);
        if self.cfg.break_ack_order {
            // Self-check mode: the ack escapes before anything is durable
            // (unsynced append, no checkpoint). The torture harness must
            // catch the acked-but-not-durable window this opens.
            let mut f = self
                .storage
                .append(&self.trail)
                .map_err(|e| format!("broken-order append: {e}"))?;
            let _ = f.write_all(line.as_bytes());
            return Ok(done);
        }
        append_durable(self.storage.as_ref(), &self.trail, line.as_bytes())
            .map_err(|e| format!("trail append seq={seq}: {e}"))?;
        self.daemon.checkpoint().map_err(|e| format!("checkpoint seq={seq}: {e}"))?;
        Ok(done)
    }
}
