//! Request supervision and the persistent daemon shell.
//!
//! An always-on daemon cannot let one request hold its serving thread
//! forever, and a request that *reliably* wedges or panics must stop
//! being served. Supervision closes both holes:
//!
//! * **Wedge watchdog** — while a session runs, a watchdog thread waits
//!   for it to end and trips the request's cooperative [`CancelToken`]
//!   once it has run past [`SuperviseConfig::wedge_after`]. The solver
//!   observes the cancellation at its next iteration boundary and the
//!   pool moves on — no thread is killed, so no state is poisoned.
//!   (Cancelled sessions never feed the circuit breakers: wall-clock
//!   wedges must not perturb the deterministic replay state.)
//! * **Panic isolation** — a panicking session is contained per request
//!   (`catch_unwind`) and becomes a typed outcome; the next request is
//!   served on the same thread.
//! * **Poisoned-request quarantine** — every wedge or panic is a strike
//!   against the request's name; at `MAX_STRIKES` (2) strikes
//!   the [`Quarantine`] refuses further admissions of that request with
//!   a typed [`AdmissionError::Quarantined`](crate::AdmissionError),
//!   so a poison pill stops costing solves. Strikes are part of the
//!   daemon snapshot: a restart does not give a poison pill a fresh
//!   start.
//!
//! [`Daemon`] is the persistent shell around [`ServePool`]: it restores
//! pool state from a [`DaemonSnapshot`] at start, checkpoints when its
//! caller says so, and drains gracefully — write a final checkpoint,
//! exit clean.
//!
//! [`CancelToken`]: crate::CancelToken

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
    /// Master switch. When off, no watchdog runs and the quarantine
    /// admits everything.
    pub enabled: bool,
    /// Wall-clock ceiling for one in-flight request; past it the
    /// watchdog trips the request's cancel token (wedge detection).
    pub wedge_after: Duration,
}

impl Default for SuperviseConfig {
    fn default() -> Self {
        SuperviseConfig { enabled: true, wedge_after: Duration::from_secs(30) }
    }
}

impl SuperviseConfig {
    /// Supervision off entirely.
    pub fn disabled() -> Self {
        SuperviseConfig { enabled: false, ..Self::default() }
    }
}

/// What the supervisor observed about one request.
#[derive(Clone, Debug, PartialEq)]
pub enum WorkerEventKind {
    /// The in-flight request ran past the wedge deadline; its cancel
    /// token was tripped.
    Wedged {
        /// Seconds the request had been in flight when tripped.
        elapsed: f64,
    },
    /// The session panicked; the panic was contained.
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
    /// The request's display name.
    pub request: String,
    /// What happened.
    pub kind: WorkerEventKind,
}

/// Wedges/panics charged to one request name before the quarantine
/// refuses it.
pub(crate) const MAX_STRIKES: usize = 2;

/// Strike bookkeeping for poisoned requests, keyed by request name.
/// Deterministic: strikes come from panics (deterministic) and wedges
/// (wall-clock), but the *count* is all that is persisted and compared.
/// A name is refused at `MAX_STRIKES` strikes.
#[derive(Clone, Debug, Default)]
pub struct Quarantine {
    strikes: BTreeMap<String, usize>,
}

impl Quarantine {
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
        self.strikes_of(name) >= MAX_STRIKES
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
/// have been *returned to the caller*, so a crash between checkpoints
/// replays the unacknowledged window instead of losing it —
/// at-least-once, deduplicated by `seq`.
pub struct Daemon {
    pool: ServePool,
    cfg: DaemonConfig,
    seq: u64,
    restored: bool,
    /// Next publication generation for the A/B snapshot rotation.
    generation: u64,
}

impl Daemon {
    /// Starts the daemon, warm from the newest good snapshot generation
    /// at [`DaemonConfig::snapshot_path`] when one exists (no snapshot
    /// anywhere is a cold start, not an error).
    ///
    /// Recovery scans the A/B rotation slots. A torn or corrupt slot is
    /// quarantined (moved to `<slot>.quarantine`) and recovery falls
    /// back to the previous good generation.
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
        if let Some(path) = &cfg.snapshot_path {
            let store = SnapshotStore::new(path.clone());
            let recovery = store.recover(cfg.storage.as_ref(), &DaemonSnapshot::decode)?;
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
                    if let Some((_, err)) = recovery.quarantined.last() {
                        return Err(err.clone());
                    }
                }
            }
        }
        Ok(Daemon { pool, cfg, seq, restored, generation })
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

    /// Serves one request and advances the sequence cursor. Never
    /// checkpoints: the caller makes its own record of the outcome
    /// durable first (the trail), then calls [`Daemon::checkpoint`] — a
    /// snapshot ahead of the trail is a state the daemon refuses to
    /// start from.
    pub fn submit(&mut self, req: SolveRequest) -> RequestOutcome {
        self.seq += 1;
        self.pool.serve(req)
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
    /// no further [`Daemon::submit`] is possible), nothing is in flight
    /// (submit is synchronous), a final checkpoint is written, and the
    /// report is returned for the caller's exit path.
    ///
    /// # Errors
    /// Propagates the final checkpoint's I/O failure.
    pub fn drain(mut self) -> Result<DrainReport, SnapshotError> {
        let checkpointed = self.checkpoint()?;
        Ok(DrainReport { seq: self.seq, counters: self.pool.counters(), checkpointed })
    }
}
