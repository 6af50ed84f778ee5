//! The daemon: one serve loop on the caller's thread behind the framed
//! wire protocol of [`crate::net`], and the things only it may know.
//!
//! The loop binds, restores the pool from the newest snapshot,
//! reconciles it against the trail, and then accepts one connection at
//! a time and serves it until it closes; connections that arrive
//! meanwhile wait in the OS listen backlog. Clients submit one request
//! at a time over a Unix or TCP socket, each served under one
//! durability order: **solve → append trail (fsynced) → checkpoint →
//! ack**. An ack on the wire therefore means the decision is durable; a
//! connection — or the process — killed at any instant loses nothing
//! that was acked.
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
use std::io;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use fp16mg_core::MgConfig;
use fp16mg_krylov::{SolveError, SolveOptions};
use fp16mg_problems::ProblemKind;
use fp16mg_sgdia::kernels::Par;

use crate::admission::Priority;
use crate::ladder::SolveRequest;
use crate::net::{
    codes, read_frame, write_frame, Conn, DoneReply, Endpoint, Frame, Listener, SubmitRequest,
    WireError,
};
use crate::pool::{PoolConfig, RequestOutcome, ServeError, ServePool};
use crate::snapshot::{DaemonSnapshot, SnapshotError, SnapshotStore};
use crate::storage::{append_durable, Storage};
use crate::trail;

/// Snapshot base name inside the state directory (the A/B slots are
/// `<base>.a` / `<base>.b`).
pub const SNAPSHOT_FILE: &str = "daemon.snapshot";
/// Trail file name inside the state directory.
pub const TRAIL_FILE: &str = "trail.log";

// ------------------------------------------------------ stream function --

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
        // operator. The factor cycle walks the audit ladder: 1.0 after
        // 24.0 exceeds the rescale bound and invalidates, 1.1 and 4.0
        // each rescale in place, 24.0 after 4.0 rescales once more.
        // Visits land at seq 3, 7 mod 8, so a 16-request stream walks
        // the full ladder.
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
        // A deterministically failing class: tolerance zero and a
        // four-iteration session budget, which the first attempt spends,
        // so the ladder ends there. Trips its breaker. (Four iterations
        // are too few for the health monitor's stall patience to fire.)
        6 => {
            req.class = "poison".to_string();
            req.opts.tol = 0.0;
            req.budget.max_iters = Some(4);
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
        "seq={seq} req={} class={} prio={} profile=full outcome={outcome} breaker={breaker} cache={cache}\n",
        o.name,
        o.class,
        o.priority.label(),
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
    /// Kernel-parallelism threads for the solve phase (`--threads`);
    /// `0` and `1` stay sequential.
    pub threads: usize,
    /// Byte budget for the pool's memory governor. When set, a run whose
    /// tracked bytes ever exceeded it ends with a violation.
    pub mem_budget: Option<u64>,
    /// Per-connection read/write deadline (the slowloris bound).
    pub conn_deadline: Duration,
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
    /// generous deadlines.
    pub fn new(endpoint: Endpoint, state_dir: PathBuf) -> Self {
        NetServeConfig {
            endpoint,
            state_dir,
            size: 8,
            tol: 1e-7,
            threads: 1,
            mem_budget: None,
            conn_deadline: Duration::from_secs(5),
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

/// Runs the daemon until a client requests a graceful drain. Blocking:
/// the whole daemon is one loop on the caller's thread; harnesses run it
/// on a thread and join for the report.
pub fn serve_net(cfg: &NetServeConfig, storage: Arc<dyn Storage>) -> NetServeReport {
    let mut report = NetServeReport::default();
    if let Err(violation) = serve(cfg, storage, &mut report) {
        report.violations.push(violation);
    }
    report
}

/// The state one serving run owns between bind and drain.
struct Server<'a> {
    cfg: &'a NetServeConfig,
    storage: Arc<dyn Storage>,
    trail: PathBuf,
    snapshots: SnapshotStore,
    pool: ServePool,
    /// Requests applied over the daemon's lifetime: the next seq, and
    /// the cursor every checkpoint records.
    seq: u64,
    /// The next A/B snapshot publication generation.
    generation: u64,
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

    // Bind before the (potentially slow) restore: a client that connects
    // meanwhile waits in the OS listen backlog, as every connection does
    // while another one is served.
    let listener =
        Listener::bind(&cfg.endpoint).map_err(|e| format!("bind {}: {e}", cfg.endpoint))?;

    storage.create_dir_all(&cfg.state_dir).map_err(|e| format!("state dir: {e}"))?;
    let (mut server, restored) =
        Server::restore(cfg, storage).map_err(|e| format!("snapshot unusable: {e}"))?;
    report.restored = restored;
    say(if restored {
        format!("netdaemon: resumed seq={}", server.seq)
    } else {
        "netdaemon: cold start".to_string()
    });
    server.reconcile(report)?;
    if report.counters.reconciled > 0 {
        say(format!("netdaemon: reconciled {} trailed seq(s)", report.counters.reconciled));
    }
    say(format!("netdaemon: listening on {} seq={}", cfg.endpoint, server.seq));

    let drain_conn = server.serve_conns(&listener, report);
    // Stop accepting before the drain: the listener closes and takes its
    // Unix socket file with it.
    drop(listener);
    report.seq = server.seq;
    let mut conn = drain_conn?;

    // Graceful drain: the loop is the only thread, so nothing is in
    // flight here. A final checkpoint, and only then the acknowledgement
    // on the wire.
    let (governor, cache) = (server.pool.governor().clone(), server.pool.cache());
    let (evicted, uncached) = (cache.mem_evictions(), cache.uncached_serves());
    let drained = server.checkpoint();
    let reply = match &drained {
        Ok(()) => Frame::ShutdownOk { seq: server.seq },
        Err(e) => Frame::Error { code: codes::INTERNAL, detail: e.to_string() },
    };
    let _ = write_frame(&mut conn, &reply);
    conn.shutdown();
    drained.map_err(|e| format!("drain: {e}"))?;
    report.drained = true;
    let c = &report.counters;
    say(format!(
        "netdaemon: drained=true seq={} served={} dup-acks={} conns={}",
        report.seq, c.served, c.duplicate_acks, c.accepted,
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

impl<'a> Server<'a> {
    /// Builds the pool warm from the newest decodable snapshot generation
    /// (no snapshot at all is a cold start); the flag says whether one was
    /// found. A torn or corrupt slot is quarantined (moved to
    /// `<slot>.quarantine`) and the other generation used. The next
    /// checkpoint goes to the other slot, so the generation restored from
    /// is never the one overwritten.
    ///
    /// # Errors
    /// When slots exist but none decodes, the last quarantined slot's
    /// typed [`SnapshotError`]: a silent cold start would re-serve
    /// acknowledged work, and refusing to guess is the crash-safety
    /// contract.
    fn restore(
        cfg: &'a NetServeConfig,
        storage: Arc<dyn Storage>,
    ) -> Result<(Self, bool), SnapshotError> {
        let snapshots = SnapshotStore::new(cfg.state_dir.join(SNAPSHOT_FILE));
        let mut recovery = snapshots.recover(storage.as_ref(), &DaemonSnapshot::decode)?;
        let mut pool =
            ServePool::new(PoolConfig { mem_budget: cfg.mem_budget, ..PoolConfig::default() });
        let (mut seq, mut generation) = (0, 0);
        let newest = recovery.candidates.into_iter().max_by_key(|(_, snap)| snap.seq);
        let restored = newest.is_some();
        if let Some((slot, snap)) = newest {
            pool.restore_state(&snap.state);
            seq = snap.seq;
            generation = u64::from(slot == snapshots.slot_for(0));
        } else if let Some((_, err)) = recovery.quarantined.pop() {
            return Err(err);
        }
        let server = Server {
            cfg,
            trail: cfg.state_dir.join(TRAIL_FILE),
            storage,
            snapshots,
            pool,
            seq,
            generation,
            decisions: Vec::new(),
            par: if cfg.threads > 1 { Par::Threads(cfg.threads) } else { Par::Seq },
        };
        Ok((server, restored))
    }

    /// Publishes the pool's state at `seq` into the next A/B slot, so a
    /// torn checkpoint can only ever destroy the *older* of the two
    /// retained generations. Called only once the trail covers `seq`: a
    /// snapshot ahead of the trail is a state the daemon refuses to start
    /// from.
    fn checkpoint(&mut self) -> Result<(), SnapshotError> {
        let snap = DaemonSnapshot { seq: self.seq, state: self.pool.export_state() };
        self.snapshots.publish(self.storage.as_ref(), self.generation, &snap.encode())?;
        self.generation += 1;
        Ok(())
    }

    /// Solves the request at the cursor and advances it; returns its
    /// trail line.
    fn solve(&mut self) -> String {
        let seq = self.seq;
        let outcome = self.pool.serve(request_for(seq, self.cfg.size, self.cfg.tol, self.par));
        self.seq += 1;
        trail_line(seq, &outcome, &self.pool)
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
        if self.seq > covered {
            // A snapshot claiming more progress than the durable trail
            // means an ack could reference a decision that no longer
            // exists — the lying-fsync shape. Refuse rather than serve
            // unanswerable duplicates.
            return Err(format!(
                "snapshot seq={} ahead of durable trail coverage {covered}; refusing to serve",
                self.seq
            ));
        }
        while self.seq < covered {
            // The trail ran ahead of the snapshot (kill between append
            // and checkpoint): re-derive those decisions through the
            // pool so its state advances identically, but do NOT append
            // — the durable line already exists, and exactly-once means
            // never writing a second one. A different decision would
            // mean the replayed stream is not the one that was acked.
            let seq = self.seq;
            let replayed = self.solve();
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
            self.checkpoint().map_err(|e| format!("post-reconcile checkpoint: {e}"))?;
        }
        Ok(())
    }

    /// Serves connections one at a time (accept, serve until it closes,
    /// accept the next) until a `Shutdown` frame arrives; returns the
    /// requesting connection so the ack can be sent only once the final
    /// snapshot is durable.
    ///
    /// # Errors
    /// A failed `accept`, or a fatal durability failure while applying a
    /// request.
    fn serve_conns(
        &mut self,
        listener: &Listener,
        report: &mut NetServeReport,
    ) -> Result<Conn, String> {
        loop {
            let mut conn = match listener.accept() {
                Ok(conn) => conn,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(format!("accept failed without a drain request: {e}")),
            };
            let _ = conn.set_deadlines(self.cfg.conn_deadline, self.cfg.conn_deadline);
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
                    Frame::Shutdown => return Ok(conn),
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

    /// Serves one submission: dedup below the cursor, a typed error
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
        let seq = self.seq;
        if sr.key < seq {
            // Already applied: answer from the decision record, never
            // re-execute. This is the at-least-once dedup on the wire.
            counters.duplicate_acks += 1;
            return Ok(self.decisions[sr.key as usize].reply(sr.key, true));
        }
        if sr.key > seq {
            return Ok(Frame::Error { code: codes::OUT_OF_ORDER, detail: format!("want {seq}") });
        }
        let applied = self.apply(seq);
        counters.served += u64::from(applied.is_ok());
        applied
    }

    /// The durability pipeline for one request:
    /// solve → trail append (fsynced) → checkpoint → ack.
    fn apply(&mut self, seq: u64) -> Result<Frame, String> {
        let line = self.solve();
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
        self.checkpoint().map_err(|e| format!("checkpoint seq={seq}: {e}"))?;
        Ok(done)
    }
}
