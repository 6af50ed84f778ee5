//! Admission control: bounded intake with per-priority-class capacity.
//!
//! The serve pool accepts work through this layer so callers get typed
//! *backpressure* instead of latency collapse: a request that cannot be
//! served now is refused immediately with an [`AdmissionError`] naming
//! exactly why — the bounded queue is full ([`AdmissionError::QueueFull`]),
//! the pressure signal shed it ([`AdmissionError::Shed`]), or its problem
//! class's circuit breaker is open ([`AdmissionError::BreakerOpen`]).
//! Nothing queues unboundedly, and nothing fails untyped.

use std::time::Duration;

/// Priority class of a solve request. Capacity is reserved per class and
/// load is shed in reverse order: [`Priority::BestEffort`] first,
/// [`Priority::Batch`] second, [`Priority::Interactive`] never (an
/// interactive request is only ever refused by a hard capacity bound or
/// an open breaker).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Priority {
    /// Latency-sensitive foreground work; degraded last, never shed.
    Interactive,
    /// Normal throughput work (the default).
    #[default]
    Batch,
    /// Opportunistic work; first to be shed under pressure.
    BestEffort,
}

impl Priority {
    /// All classes, most- to least-protected.
    pub const ALL: [Priority; 3] = [Priority::Interactive, Priority::Batch, Priority::BestEffort];

    /// Index into per-priority arrays (0 = most protected).
    pub fn index(self) -> usize {
        match self {
            Priority::Interactive => 0,
            Priority::Batch => 1,
            Priority::BestEffort => 2,
        }
    }

    /// Short display label.
    pub fn label(self) -> &'static str {
        match self {
            Priority::Interactive => "interactive",
            Priority::Batch => "batch",
            Priority::BestEffort => "best-effort",
        }
    }
}

impl core::fmt::Display for Priority {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.label())
    }
}

/// Typed admission refusal. Every rejected request carries exactly one of
/// these in its outcome; none of them means the process is unhealthy —
/// they are the overload-protection layer doing its job.
#[derive(Clone, Debug, PartialEq)]
pub enum AdmissionError {
    /// The bounded queue (total or this priority's reservation) is full.
    QueueFull {
        /// Priority class of the refused request.
        priority: Priority,
        /// Queue depth at refusal.
        depth: usize,
        /// The bound that was hit (total capacity or the per-priority
        /// cap, whichever refused).
        capacity: usize,
    },
    /// The pressure signal exceeded this priority class's shed threshold:
    /// the pool prefers refusing cheap work now over missing deadlines on
    /// admitted work later.
    Shed {
        /// Priority class of the shed request.
        priority: Priority,
        /// Pressure value that triggered the shed, in `[0, 1]`.
        pressure: f64,
    },
    /// The request's problem class has tripped its circuit breaker:
    /// recent sessions of this class kept failing terminally, so new work
    /// is refused until a half-open probe proves the class healthy again.
    BreakerOpen {
        /// The poisoned problem class.
        class: String,
        /// Terminal-failure rate of the window that tripped the breaker.
        failure_rate: f64,
        /// Admission attempts left before the breaker goes half-open and
        /// admits a probe.
        cooldown_remaining: usize,
    },
    /// This exact request has wedged or panicked its worker too many
    /// times; the supervisor's [`Quarantine`](crate::Quarantine) refuses
    /// it so a poison pill stops burning execution slots. Strikes
    /// survive daemon restarts via the snapshot.
    Quarantined {
        /// The quarantined request name.
        name: String,
        /// Strikes charged when it was refused.
        strikes: usize,
    },
}

impl AdmissionError {
    /// Short display label (outcome-table vocabulary).
    pub fn label(&self) -> &'static str {
        match self {
            AdmissionError::QueueFull { .. } => "queue-full",
            AdmissionError::Shed { .. } => "shed",
            AdmissionError::BreakerOpen { .. } => "breaker-open",
            AdmissionError::Quarantined { .. } => "quarantined",
        }
    }
}

impl core::fmt::Display for AdmissionError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            AdmissionError::QueueFull { priority, depth, capacity } => {
                write!(f, "queue full: {priority} depth {depth} at capacity {capacity}")
            }
            AdmissionError::Shed { priority, pressure } => {
                write!(f, "shed under pressure {pressure:.2} ({priority})")
            }
            AdmissionError::BreakerOpen { class, failure_rate, cooldown_remaining } => write!(
                f,
                "circuit breaker open for class '{class}' \
                 ({:.0}% terminal failures; {cooldown_remaining} attempts to half-open)",
                failure_rate * 100.0
            ),
            AdmissionError::Quarantined { name, strikes } => {
                write!(f, "request '{name}' quarantined after {strikes} worker strikes")
            }
        }
    }
}

impl std::error::Error for AdmissionError {}

/// Capacity shape of the bounded intake queue.
#[derive(Clone, Debug)]
pub struct AdmissionConfig {
    /// Total queued requests allowed, all classes together.
    pub capacity: usize,
    /// Per-priority caps, indexed by [`Priority::index`]. Each class is
    /// additionally bounded by `capacity`; a class cap above `capacity`
    /// simply never binds.
    pub per_priority: [usize; 3],
    /// Nominal per-request service estimate used by the pressure signal
    /// to convert queue depth into expected waiting time (see
    /// [`crate::shed::estimate_pressure`]). A declared constant, not a
    /// wall-clock measurement, so admission decisions are deterministic
    /// for a given batch.
    pub est_service: Duration,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        AdmissionConfig {
            capacity: 64,
            per_priority: [48, 48, 24],
            est_service: Duration::from_millis(100),
        }
    }
}

impl AdmissionConfig {
    /// A practically unbounded configuration: accepts everything.
    pub fn unbounded() -> Self {
        AdmissionConfig {
            capacity: usize::MAX / 2,
            per_priority: [usize::MAX / 2; 3],
            est_service: Duration::from_millis(100),
        }
    }
}

/// Depth bookkeeping for the bounded queue: tracks how many requests of
/// each class are queued and enforces both bounds. Purely counting — the
/// actual request storage lives in the pool.
#[derive(Clone, Debug)]
pub struct AdmissionQueue {
    cfg: AdmissionConfig,
    depth: [usize; 3],
}

impl AdmissionQueue {
    /// An empty queue with the given capacity shape.
    pub fn new(cfg: AdmissionConfig) -> Self {
        AdmissionQueue { cfg, depth: [0; 3] }
    }

    /// Total queued requests across all classes.
    pub fn depth(&self) -> usize {
        self.depth.iter().sum()
    }

    /// Queued requests of one class.
    pub fn depth_of(&self, priority: Priority) -> usize {
        self.depth[priority.index()]
    }

    /// Queue fill fraction in `[0, 1]` (total depth over total capacity).
    pub fn fill(&self) -> f64 {
        if self.cfg.capacity == 0 {
            1.0
        } else {
            (self.depth() as f64 / self.cfg.capacity as f64).min(1.0)
        }
    }

    /// The capacity shape.
    pub fn config(&self) -> &AdmissionConfig {
        &self.cfg
    }

    /// Reserves one slot for `priority`, or refuses with the bound that
    /// was hit.
    ///
    /// # Errors
    /// [`AdmissionError::QueueFull`] when the total capacity or the
    /// class's reservation is exhausted.
    pub fn try_reserve(&mut self, priority: Priority) -> Result<(), AdmissionError> {
        let total = self.depth();
        if total >= self.cfg.capacity {
            return Err(AdmissionError::QueueFull {
                priority,
                depth: total,
                capacity: self.cfg.capacity,
            });
        }
        let i = priority.index();
        if self.depth[i] >= self.cfg.per_priority[i] {
            return Err(AdmissionError::QueueFull {
                priority,
                depth: self.depth[i],
                capacity: self.cfg.per_priority[i],
            });
        }
        self.depth[i] += 1;
        Ok(())
    }

    /// Releases one previously reserved slot (a worker took the request).
    pub fn release(&mut self, priority: Priority) {
        let i = priority.index();
        self.depth[i] = self.depth[i].saturating_sub(1);
    }
}
