//! Admission vocabulary: a request's [`Priority`] and the typed
//! [`AdmissionError`] that refuses it before its session because its
//! problem class's circuit breaker is open
//! ([`AdmissionError::BreakerOpen`]). Nothing is refused untyped.

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

/// Typed admission refusal. Every rejected request carries one in its
/// outcome; it does not mean the process is unhealthy — it is the
/// protection layer doing its job.
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
}

impl AdmissionError {
    /// Short display label (outcome-table vocabulary).
    pub fn label(&self) -> &'static str {
        match self {
            AdmissionError::BreakerOpen { .. } => "breaker-open",
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
        }
    }
}

impl std::error::Error for AdmissionError {}
