//! Load shedding and degraded-mode solve profiles.
//!
//! Under pressure the pool has two levers, applied in this order:
//!
//! 1. **Degrade** admitted work: serve it with a cheaper profile —
//!    looser tolerance, capped iterations, and in the extreme the
//!    paper's FP16 storage below `shift_levid` with a hard V-cycle cap.
//!    The request still converges (to a looser target); the quality
//!    trade is recorded as a typed [`DegradeEvent`] trail.
//! 2. **Shed** work that the pool prefers to refuse outright:
//!    [`Priority::BestEffort`] first, [`Priority::Batch`] at near-
//!    saturation, [`Priority::Interactive`] never (interactive work is
//!    only refused by a hard capacity bound or an open breaker).
//!
//! The pressure signal driving both is computed from *declared*
//! quantities — queue depth against capacity, queued deadline slack
//! against a configured per-request service estimate, and tracked bytes
//! against the pool's memory budget — never from measured wall time or
//! RSS, so a replayed batch makes identical decisions.

use crate::admission::Priority;
use std::time::Duration;

/// Quality profile a request is served at.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum DegradeProfile {
    /// Requested quality, untouched.
    #[default]
    Full,
    /// Looser tolerance and capped outer iterations.
    Reduced,
    /// Reduced, plus uniform-FP16 storage below `shift_levid`, a hard
    /// V-cycle cap, and no FP64 rebuild rung: minimum cost per request.
    Economy,
}

impl DegradeProfile {
    /// Short display label.
    pub fn label(self) -> &'static str {
        match self {
            DegradeProfile::Full => "full",
            DegradeProfile::Reduced => "reduced",
            DegradeProfile::Economy => "economy",
        }
    }
}

impl core::fmt::Display for DegradeProfile {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.label())
    }
}

/// One recorded quality downgrade. A degraded request carries the full
/// trail in its outcome, so "it converged, but to what?" is always
/// answerable from the record.
#[derive(Clone, Debug, PartialEq)]
pub enum DegradeEvent {
    /// Convergence tolerance loosened.
    TolRelaxed {
        /// Tolerance the caller asked for.
        from: f64,
        /// Tolerance actually served.
        to: f64,
    },
    /// Outer-iteration budget capped.
    ItersCapped {
        /// Cap the caller asked for.
        from: usize,
        /// Cap actually served.
        to: usize,
    },
    /// Storage switched to FP16 below this level (the paper's
    /// `shift_levid` knob) with an F32 coarse solve.
    StorageEconomized {
        /// First level kept above FP16.
        shift_levid: usize,
    },
    /// Hard V-cycle budget imposed.
    VcyclesCapped {
        /// The imposed cap.
        cap: usize,
    },
    /// A retry-ladder rung disabled (economy drops the FP64 rebuild —
    /// the most expensive recovery — rather than spend it on shed-window
    /// work).
    LadderTrimmed {
        /// Label of the disabled rung.
        rung: &'static str,
    },
}

impl core::fmt::Display for DegradeEvent {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            DegradeEvent::TolRelaxed { from, to } => write!(f, "tol {from:.1e}→{to:.1e}"),
            DegradeEvent::ItersCapped { from, to } => write!(f, "iters {from}→{to}"),
            DegradeEvent::StorageEconomized { shift_levid } => {
                write!(f, "fp16-until {shift_levid}")
            }
            DegradeEvent::VcyclesCapped { cap } => write!(f, "vcycles ≤{cap}"),
            DegradeEvent::LadderTrimmed { rung } => write!(f, "no {rung}"),
        }
    }
}

/// The pressure signal: three components, combined as their max. All
/// are fractions in `[0, 1]`.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct PressureSignal {
    /// Queue depth over total capacity.
    pub queue_fill: f64,
    /// Fraction of queued deadline-bearing requests whose deadline is
    /// shorter than their expected wait (position in queue over worker
    /// count, times the declared service estimate).
    pub slack_deficit: f64,
    /// Fraction of the pool's memory budget in use
    /// ([`crate::MemGovernor::fill`]; zero when the pool has no byte
    /// budget). Tracked bytes, not RSS, so the signal replays
    /// deterministically.
    pub mem_fill: f64,
}

impl PressureSignal {
    /// Combined pressure in `[0, 1]`.
    pub fn value(self) -> f64 {
        self.queue_fill.max(self.slack_deficit).max(self.mem_fill).clamp(0.0, 1.0)
    }
}

/// Computes the pressure signal from declared quantities only.
///
/// `queued_deadlines` holds the deadline (if any) of each already-queued
/// request, in queue order; request `i`'s expected start is
/// `(i / workers) * est_service` — the batch-position model, not a
/// wall-clock measurement, so the signal is deterministic.
pub fn estimate_pressure(
    depth: usize,
    capacity: usize,
    workers: usize,
    est_service: Duration,
    queued_deadlines: &[Option<Duration>],
) -> PressureSignal {
    let queue_fill = if capacity == 0 { 1.0 } else { (depth as f64 / capacity as f64).min(1.0) };
    let workers = workers.max(1);
    let mut with_deadline = 0usize;
    let mut missing = 0usize;
    for (i, dl) in queued_deadlines.iter().enumerate() {
        if let Some(deadline) = dl {
            with_deadline += 1;
            let expected_wait = est_service * (i / workers) as u32;
            if *deadline < expected_wait + est_service {
                missing += 1;
            }
        }
    }
    let slack_deficit =
        if with_deadline == 0 { 0.0 } else { missing as f64 / with_deadline as f64 };
    PressureSignal { queue_fill, slack_deficit, mem_fill: 0.0 }
}

/// Thresholds mapping pressure to profiles and shed decisions.
#[derive(Clone, Debug)]
pub struct ShedPolicy {
    /// Pressure at or above which admitted work is served
    /// [`DegradeProfile::Reduced`].
    pub reduce_at: f64,
    /// Pressure at or above which admitted work is served
    /// [`DegradeProfile::Economy`].
    pub economy_at: f64,
    /// Per-priority shed thresholds, indexed by [`Priority::index`]: a
    /// request is shed when pressure ≥ its class's threshold.
    /// Interactive defaults to `f64::INFINITY` — never shed.
    pub shed_at: [f64; 3],
    /// Multiplier applied to the requested tolerance under Reduced and
    /// Economy (≥ 1; a degraded tolerance is never *tighter* than asked).
    pub tol_relax: f64,
    /// Loosest tolerance degradation may reach.
    pub tol_ceiling: f64,
    /// Outer-iteration cap under Reduced.
    pub reduced_max_iters: usize,
    /// Outer-iteration cap under Economy.
    pub economy_max_iters: usize,
    /// `shift_levid` for Economy's FP16-until storage.
    pub economy_shift_levid: usize,
    /// Hard V-cycle budget under Economy.
    pub economy_max_vcycles: usize,
}

impl Default for ShedPolicy {
    fn default() -> Self {
        ShedPolicy {
            reduce_at: 0.5,
            economy_at: 0.75,
            shed_at: [f64::INFINITY, 0.95, 0.7],
            tol_relax: 1e2,
            tol_ceiling: 1e-4,
            reduced_max_iters: 120,
            economy_max_iters: 60,
            economy_shift_levid: 2,
            economy_max_vcycles: 400,
        }
    }
}

impl ShedPolicy {
    /// A policy that never degrades and never sheds.
    pub fn disabled() -> Self {
        ShedPolicy {
            reduce_at: f64::INFINITY,
            economy_at: f64::INFINITY,
            shed_at: [f64::INFINITY; 3],
            ..Self::default()
        }
    }

    /// Profile admitted work is served at under this pressure.
    pub fn profile_for(&self, pressure: f64) -> DegradeProfile {
        if pressure >= self.economy_at {
            DegradeProfile::Economy
        } else if pressure >= self.reduce_at {
            DegradeProfile::Reduced
        } else {
            DegradeProfile::Full
        }
    }

    /// Whether this priority class is shed at this pressure.
    pub fn should_shed(&self, priority: Priority, pressure: f64) -> bool {
        pressure >= self.shed_at[priority.index()]
    }
}
