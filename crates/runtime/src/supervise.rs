//! Worker supervision and the persistent daemon shell.
//!
//! A batch pool can afford to let one slow request hold its worker — the
//! batch ends and the process exits. An always-on daemon cannot: a
//! wedged worker is a permanently lost execution slot, and a request
//! that *reliably* wedges or panics its worker will take every slot in
//! turn. Supervision closes both holes:
//!
//! * **Heartbeats + wedge detection** — every worker posts its in-flight
//!   request to a heartbeat slot; a monitor thread polls the slots and
//!   trips the request's cooperative [`CancelToken`] once it has run
//!   past [`SuperviseConfig::wedge_after`]. The solver observes the
//!   cancellation at its next iteration boundary and the worker moves
//!   on — a *recovered* slot, not a killed thread, so no state is
//!   poisoned. (Cancelled sessions never feed the circuit breakers:
//!   wall-clock wedges must not perturb the deterministic replay state.)
//! * **Panic isolation + restart** — a panicking session is contained
//!   per-request (`catch_unwind`, as before); the worker loop simply
//!   continues with the next request, which *is* the restart.
//! * **Poisoned-request quarantine** — every wedge or panic is a strike
//!   against the request's name; at [`SuperviseConfig::max_strikes`]
//!   the [`Quarantine`] refuses further admissions of that request with
//!   a typed [`AdmissionError::Quarantined`](crate::AdmissionError),
//!   so a poison pill stops costing workers. Strikes are part of the
//!   daemon snapshot: a restart does not give a poison pill a fresh
//!   set of workers to burn.
//!
//! [`Daemon`] is the persistent shell around [`ServePool`]: it restores
//! pool state from a [`DaemonSnapshot`] at start, checkpoints when its
//! caller says so, and drains gracefully — stop admitting, finish in-flight,
//! write a final checkpoint, exit clean.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use crate::ladder::SolveRequest;
use crate::pool::{PoolConfig, RequestOutcome, ServeCounters, ServePool};
use crate::snapshot::{DaemonSnapshot, SnapshotError, SnapshotStore};
use crate::storage::{RealStorage, Storage};

/// Supervisor tuning.
#[derive(Clone, Debug)]
pub struct SuperviseConfig {
    /// Master switch. When off, no heartbeats are posted, no monitor
    /// thread runs, and the quarantine admits everything — the batch
    /// pool's historical behavior.
    pub enabled: bool,
    /// Wall-clock ceiling for one in-flight request; past it the
    /// monitor trips the request's cancel token (wedge detection).
    pub wedge_after: Duration,
    /// Monitor poll interval.
    pub poll: Duration,
    /// Wedges/panics charged to one request name before the quarantine
    /// refuses it (`0` disables quarantining).
    pub max_strikes: usize,
    /// Ring capacity of the worker-event trail.
    pub event_log_cap: usize,
}

impl Default for SuperviseConfig {
    fn default() -> Self {
        SuperviseConfig {
            enabled: true,
            wedge_after: Duration::from_secs(30),
            poll: Duration::from_millis(5),
            max_strikes: 2,
            event_log_cap: 256,
        }
    }
}

impl SuperviseConfig {
    /// Supervision off entirely (the batch-pool compatibility shape).
    pub fn disabled() -> Self {
        SuperviseConfig { enabled: false, ..Self::default() }
    }
}

/// What the supervisor observed about one worker.
#[derive(Clone, Debug, PartialEq)]
pub enum WorkerEventKind {
    /// The in-flight request ran past the wedge deadline; its cancel
    /// token was tripped.
    Wedged {
        /// Seconds the request had been in flight when tripped.
        elapsed: f64,
    },
    /// The session panicked; the panic was contained and the worker
    /// continued with the next request.
    Panicked,
    /// The request's strike count reached the quarantine threshold;
    /// further admissions of this name are refused.
    Quarantined {
        /// The strike count at quarantine.
        strikes: usize,
    },
}

impl WorkerEventKind {
    /// Short display label.
    pub fn label(&self) -> &'static str {
        match self {
            WorkerEventKind::Wedged { .. } => "wedged",
            WorkerEventKind::Panicked => "panicked",
            WorkerEventKind::Quarantined { .. } => "quarantined",
        }
    }
}

/// One supervision observation.
#[derive(Clone, Debug, PartialEq)]
pub struct WorkerEvent {
    /// The worker slot involved (`None` for registry-level events like
    /// quarantine promotion, which happen after the batch).
    pub worker: Option<usize>,
    /// The request's display name.
    pub request: String,
    /// What happened.
    pub kind: WorkerEventKind,
}

/// Strike bookkeeping for poisoned requests, keyed by request name.
/// Deterministic: strikes come from panics (deterministic) and wedges
/// (wall-clock), but the *count* is all that is persisted and compared.
#[derive(Clone, Debug, Default)]
pub struct Quarantine {
    strikes: BTreeMap<String, usize>,
    max_strikes: usize,
}

impl Quarantine {
    /// An empty quarantine refusing names at `max_strikes` strikes
    /// (`0` never refuses).
    pub fn new(max_strikes: usize) -> Self {
        Quarantine { strikes: BTreeMap::new(), max_strikes }
    }

    /// Charges one strike against `name`, returning the new count.
    pub fn strike(&mut self, name: &str) -> usize {
        let n = self.strikes.entry(name.to_string()).or_insert(0);
        *n += 1;
        *n
    }

    /// Strikes charged against `name` so far.
    pub fn strikes_of(&self, name: &str) -> usize {
        self.strikes.get(name).copied().unwrap_or(0)
    }

    /// True when `name` has reached the strike threshold.
    pub fn is_quarantined(&self, name: &str) -> bool {
        self.max_strikes > 0 && self.strikes_of(name) >= self.max_strikes
    }

    /// Every (name, strikes) pair, in name order (checkpointing).
    pub fn export(&self) -> Vec<(String, usize)> {
        self.strikes.iter().map(|(k, &v)| (k.clone(), v)).collect()
    }

    /// Restores strike counts from a checkpoint (merged by maximum, so
    /// a restore never forgets strikes observed since).
    pub fn restore(&mut self, entries: &[(String, usize)]) {
        for (name, n) in entries {
            let e = self.strikes.entry(name.clone()).or_insert(0);
            *e = (*e).max(*n);
        }
    }
}

/// Daemon shell configuration.
#[derive(Clone, Debug)]
pub struct DaemonConfig {
    /// The pool the daemon runs.
    pub pool: PoolConfig,
    /// Snapshot base path (the A/B slots are its siblings); `None` runs
    /// without persistence (restart cold).
    pub snapshot_path: Option<PathBuf>,
    /// Storage backend every durable byte flows through. The default is
    /// the real filesystem; tests swap in a fault-injecting backend.
    pub storage: Arc<dyn Storage>,
}

impl Default for DaemonConfig {
    fn default() -> Self {
        DaemonConfig {
            pool: PoolConfig::default(),
            snapshot_path: None,
            storage: Arc::new(RealStorage),
        }
    }
}

/// What a graceful drain left behind.
#[derive(Clone, Debug)]
pub struct DrainReport {
    /// Requests completed over the daemon's lifetime (restored + new).
    pub seq: u64,
    /// Final admission/outcome counters.
    pub counters: ServeCounters,
    /// True when a final checkpoint was written.
    pub checkpointed: bool,
}

/// The persistent serve daemon: a [`ServePool`] plus a durable sequence
/// cursor and snapshot lifecycle. `seq` counts requests whose outcomes
/// have been *returned to the caller*; it only advances when a batch
/// completes, so a crash between checkpoints replays the unacknowledged
/// window instead of losing it — at-least-once, deduplicated by `seq`.
pub struct Daemon {
    pool: ServePool,
    cfg: DaemonConfig,
    seq: u64,
    restored: bool,
    /// Next publication generation for the A/B snapshot rotation.
    generation: u64,
    /// Quarantined snapshot slots observed during recovery.
    quarantined: Vec<(PathBuf, SnapshotError)>,
}

impl Daemon {
    /// Starts the daemon, warm from the newest good snapshot generation
    /// at [`DaemonConfig::snapshot_path`] when one exists (no snapshot
    /// anywhere is a cold start, not an error).
    ///
    /// Recovery scans the A/B rotation slots. A torn or corrupt slot is
    /// quarantined (moved to `<slot>.quarantine`) and recovery falls
    /// back to the previous good generation; the quarantine evidence is
    /// reported by [`Daemon::quarantined_snapshots`].
    ///
    /// # Errors
    /// When snapshots are present but *none* decodes, the daemon
    /// refuses to start with the last slot's typed [`SnapshotError`] —
    /// silently cold-starting would re-serve acknowledged work, and
    /// refusing to guess is the crash-safety contract.
    pub fn start(cfg: DaemonConfig) -> Result<Self, SnapshotError> {
        let mut pool = ServePool::new(cfg.pool.clone());
        let mut seq = 0;
        let mut restored = false;
        let mut generation = 0;
        let mut quarantined = Vec::new();
        if let Some(path) = &cfg.snapshot_path {
            let store = SnapshotStore::new(path.clone());
            let recovery = store.recover(cfg.storage.as_ref(), &DaemonSnapshot::decode)?;
            quarantined = recovery.quarantined;
            let best = recovery
                .candidates
                .into_iter()
                .max_by_key(|(_, snap)| snap.seq)
                .map(|(from, snap)| (store.slot_for(0) == from, snap));
            match best {
                Some((from_slot_a, snap)) => {
                    pool.restore_state(&snap.state);
                    seq = snap.seq;
                    restored = true;
                    // Publish into the *other* slot next, so the newest
                    // good generation is never the one overwritten.
                    generation = if from_slot_a { 1 } else { 0 };
                }
                None => {
                    if let Some((_, err)) = quarantined.last() {
                        return Err(err.clone());
                    }
                }
            }
        }
        Ok(Daemon { pool, cfg, seq, restored, generation, quarantined })
    }

    /// True when this daemon restored state from a snapshot.
    pub fn restored(&self) -> bool {
        self.restored
    }

    /// Requests completed over the daemon's lifetime.
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// The underlying pool (stats, breaker states, cache).
    pub fn pool(&self) -> &ServePool {
        &self.pool
    }

    /// Serves one batch and advances the sequence cursor. Never
    /// checkpoints: the caller makes its own record of the outcomes
    /// durable first (the trail), then calls [`Daemon::checkpoint`] — a
    /// snapshot ahead of the trail is a state the daemon refuses to
    /// start from.
    pub fn submit(&mut self, batch: Vec<SolveRequest>) -> Vec<RequestOutcome> {
        self.seq += batch.len() as u64;
        self.pool.run(batch)
    }

    /// Snapshot slots that were present but undecodable at start and
    /// were quarantined (renamed to `<slot>.quarantine`).
    pub fn quarantined_snapshots(&self) -> &[(PathBuf, SnapshotError)] {
        &self.quarantined
    }

    /// Writes a snapshot now, rotating between the A/B generation
    /// slots so a torn checkpoint can only ever destroy the *older* of
    /// the two retained generations. Returns `false` when no snapshot
    /// path is configured.
    ///
    /// # Errors
    /// Propagates snapshot I/O failures.
    pub fn checkpoint(&mut self) -> Result<bool, SnapshotError> {
        let Some(path) = &self.cfg.snapshot_path else { return Ok(false) };
        let store = SnapshotStore::new(path.clone());
        let snap = DaemonSnapshot { seq: self.seq, state: self.pool.export_state() };
        store.publish(self.cfg.storage.as_ref(), self.generation, &snap.encode())?;
        self.generation += 1;
        Ok(true)
    }

    /// Graceful drain: the daemon stops admitting (it consumes itself —
    /// no further [`Daemon::submit`] is possible), in-flight work is
    /// already finished (submit is synchronous), a final checkpoint is
    /// written, and the report is returned for the caller's exit path.
    ///
    /// # Errors
    /// Propagates the final checkpoint's I/O failure.
    pub fn drain(mut self) -> Result<DrainReport, SnapshotError> {
        let checkpointed = self.checkpoint()?;
        Ok(DrainReport { seq: self.seq, counters: self.pool.counters(), checkpointed })
    }
}
