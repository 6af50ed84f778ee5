//! Admission vocabulary: a request's [`Priority`] and the typed
//! [`AdmissionError`] that refuses it before its session — its problem
//! class's circuit breaker is open ([`AdmissionError::BreakerOpen`]) or
//! its name is quarantined ([`AdmissionError::Quarantined`]). Nothing
//! is refused untyped.

/// Priority class of a solve request, carried on the wire and in the
/// daemon trail (`prio=`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Priority {
    /// Latency-sensitive foreground work.
    Interactive,
    /// Normal throughput work (the default).
    #[default]
    Batch,
    /// Opportunistic work.
    BestEffort,
}

impl Priority {
    /// All classes, most- to least-urgent.
    pub const ALL: [Priority; 3] = [Priority::Interactive, Priority::Batch, Priority::BestEffort];

    /// Position in [`Priority::ALL`] (0 = most urgent).
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
/// these in its outcome; neither means the process is unhealthy — they
/// are the protection layer doing its job.
#[derive(Clone, Debug, PartialEq)]
pub enum AdmissionError {
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
    /// This exact request has wedged or panicked its session too many
    /// times; the supervisor's [`Quarantine`](crate::Quarantine) refuses
    /// it so a poison pill stops burning solves. Strikes
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
            AdmissionError::BreakerOpen { .. } => "breaker-open",
            AdmissionError::Quarantined { .. } => "quarantined",
        }
    }
}

impl core::fmt::Display for AdmissionError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            AdmissionError::BreakerOpen { class, failure_rate, cooldown_remaining } => write!(
                f,
                "circuit breaker open for class '{class}' \
                 ({:.0}% terminal failures; {cooldown_remaining} attempts to half-open)",
                failure_rate * 100.0
            ),
            AdmissionError::Quarantined { name, strikes } => {
                write!(f, "request '{name}' quarantined after {strikes} strikes")
            }
        }
    }
}

impl std::error::Error for AdmissionError {}
