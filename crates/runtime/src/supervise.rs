//! Request supervision: the wedge watchdog, panic isolation and the
//! poisoned-request quarantine of [`ServePool`](crate::ServePool).
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
//! Restoring the pool from a snapshot, checkpointing it and draining it
//! are the daemon loop's own steps ([`crate::serve`]).
//!
//! [`CancelToken`]: crate::CancelToken

use std::collections::BTreeMap;
use std::time::Duration;

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
