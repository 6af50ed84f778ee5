//! Per-problem-class circuit breakers.
//!
//! A *poisoned* problem class — a request shape whose sessions keep
//! ending in retry-ladder terminal failures or deadline misses — would
//! otherwise burn a full ladder climb (up to an FP64 rebuild) on every
//! arrival, starving healthy traffic. The breaker watches a sliding
//! window of terminal outcomes per class and walks the classic state
//! machine:
//!
//! ```text
//! Closed ──(failure rate ≥ threshold over ≥ min_samples)──▶ Open
//! Open ──(cooldown admission attempts observed)──▶ HalfOpen
//! HalfOpen ──(probe succeeds)──▶ Closed      HalfOpen ──(probe fails)──▶ Open
//! ```
//!
//! Everything is deterministic: the cooldown is counted in *admission
//! attempts*, not wall-clock time, and the per-trip cooldown jitter (so
//! many classes tripped together don't probe in lockstep) comes from a
//! seeded SplitMix64 stream — no wall-clock randomness anywhere, so a
//! replayed batch takes identical transitions.

use std::collections::{BTreeMap, VecDeque};

use crate::jitter;
use crate::ring::Ring;

/// The three breaker states.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BreakerState {
    /// Healthy: every admission attempt passes; outcomes feed the window.
    Closed,
    /// Tripped: admission attempts are refused (and counted toward the
    /// cooldown that leads to [`BreakerState::HalfOpen`]).
    Open,
    /// Probing: a bounded number of probe requests are admitted at full
    /// quality; everything else is still refused until a probe verdict.
    HalfOpen,
}

impl BreakerState {
    /// Short display label.
    pub fn label(self) -> &'static str {
        match self {
            BreakerState::Closed => "closed",
            BreakerState::Open => "open",
            BreakerState::HalfOpen => "half-open",
        }
    }
}

impl core::fmt::Display for BreakerState {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.label())
    }
}

/// Breaker tuning. One config is shared by every class in a
/// [`BreakerRegistry`]; each class derives its own jitter stream from
/// `seed` and its name.
#[derive(Clone, Debug)]
pub struct BreakerConfig {
    /// Master switch. When off, every admission attempt passes and no
    /// outcome is recorded.
    pub enabled: bool,
    /// Sliding-window length (terminal outcomes remembered per class).
    pub window: usize,
    /// Minimum outcomes in the window before the failure rate is trusted
    /// enough to trip.
    pub min_samples: usize,
    /// Terminal-failure fraction at or above which the breaker opens.
    pub failure_threshold: f64,
    /// Admission attempts observed while [`BreakerState::Open`] before
    /// the breaker goes half-open. Counted, not timed: determinism.
    pub cooldown: usize,
    /// Maximum extra cooldown attempts added per trip from the seeded
    /// jitter stream (`0` disables jitter). Spreads the half-open probes
    /// of classes that tripped together.
    pub cooldown_jitter: usize,
    /// Probes admitted while half-open.
    pub probes: usize,
    /// Probe successes required to close again.
    pub probe_successes: usize,
    /// Seed for the cooldown-jitter stream.
    pub seed: u64,
    /// Capacity of the registry's transition log ring — the bound that
    /// keeps a long-running daemon's breaker evidence from growing
    /// without limit. Oldest transitions are evicted first.
    pub transition_log_cap: usize,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig {
            enabled: true,
            window: 8,
            min_samples: 4,
            failure_threshold: 0.5,
            cooldown: 4,
            cooldown_jitter: 2,
            probes: 1,
            probe_successes: 1,
            seed: 0xb4ea_4e4b_5eed_0001,
            transition_log_cap: 256,
        }
    }
}

impl BreakerConfig {
    /// Breakers off entirely.
    pub fn disabled() -> Self {
        BreakerConfig { enabled: false, ..Self::default() }
    }
}

/// What the breaker says about one admission attempt.
#[derive(Clone, Debug, PartialEq)]
pub enum BreakerDecision {
    /// Pass. `probe` marks a half-open diagnostic request: it runs at
    /// full quality (no degradation) and its verdict alone decides
    /// whether the breaker closes or re-opens.
    Admit {
        /// True when this admission is a half-open probe.
        probe: bool,
    },
    /// Refuse: the breaker is open (or half-open with its probe quota
    /// already granted).
    Reject {
        /// Failure rate of the window that tripped the breaker.
        failure_rate: f64,
        /// Attempts left before half-open (0 while half-open).
        cooldown_remaining: usize,
    },
}

/// One class's breaker.
#[derive(Clone, Debug)]
pub struct CircuitBreaker {
    cfg: BreakerConfig,
    state: BreakerState,
    /// Sliding window of terminal outcomes, `true` = failure.
    window: VecDeque<bool>,
    /// Times this breaker has tripped (drives the jitter stream).
    trips: usize,
    /// Failure rate of the window at the last trip.
    last_failure_rate: f64,
    /// Admission attempts observed while open.
    attempts_while_open: usize,
    /// Cooldown target for the current open period (base + jitter).
    cooldown_target: usize,
    /// Probes granted but not yet recorded.
    probes_outstanding: usize,
    /// Probe successes seen this half-open period.
    probe_successes_seen: usize,
}

impl CircuitBreaker {
    /// A fresh, closed breaker.
    pub fn new(cfg: BreakerConfig) -> Self {
        CircuitBreaker {
            cfg,
            state: BreakerState::Closed,
            window: VecDeque::new(),
            trips: 0,
            last_failure_rate: 0.0,
            attempts_while_open: 0,
            cooldown_target: 0,
            probes_outstanding: 0,
            probe_successes_seen: 0,
        }
    }

    /// Current state.
    pub fn state(&self) -> BreakerState {
        self.state
    }

    /// Times this breaker has tripped.
    pub fn trips(&self) -> usize {
        self.trips
    }

    /// Failure fraction of the current window (0 when empty).
    pub fn failure_rate(&self) -> f64 {
        if self.window.is_empty() {
            0.0
        } else {
            self.window.iter().filter(|&&f| f).count() as f64 / self.window.len() as f64
        }
    }

    /// One admission attempt for this class. While open, the attempt
    /// itself advances the cooldown; the attempt that completes the
    /// cooldown flips the breaker half-open and is admitted as the probe.
    pub fn on_admission_attempt(&mut self) -> BreakerDecision {
        if !self.cfg.enabled {
            return BreakerDecision::Admit { probe: false };
        }
        match self.state {
            BreakerState::Closed => BreakerDecision::Admit { probe: false },
            BreakerState::Open => {
                self.attempts_while_open += 1;
                if self.attempts_while_open >= self.cooldown_target {
                    self.state = BreakerState::HalfOpen;
                    self.probes_outstanding = 1;
                    self.probe_successes_seen = 0;
                    BreakerDecision::Admit { probe: true }
                } else {
                    BreakerDecision::Reject {
                        failure_rate: self.last_failure_rate,
                        cooldown_remaining: self.cooldown_target - self.attempts_while_open,
                    }
                }
            }
            BreakerState::HalfOpen => {
                if self.probes_outstanding < self.cfg.probes {
                    self.probes_outstanding += 1;
                    BreakerDecision::Admit { probe: true }
                } else {
                    BreakerDecision::Reject {
                        failure_rate: self.last_failure_rate,
                        cooldown_remaining: 0,
                    }
                }
            }
        }
    }

    /// Records one completed session of this class. `probe` must echo the
    /// [`BreakerDecision::Admit`] flag the session was admitted with.
    pub fn record(&mut self, success: bool, probe: bool) {
        if !self.cfg.enabled {
            return;
        }
        if probe {
            self.probes_outstanding = self.probes_outstanding.saturating_sub(1);
            if !success {
                self.trip();
                return;
            }
            self.probe_successes_seen += 1;
            if self.probe_successes_seen >= self.cfg.probe_successes {
                self.close();
            }
            return;
        }
        // Non-probe stragglers finishing after a trip (in-flight when the
        // window crossed the threshold) must not perturb the open/half-
        // open bookkeeping; the probe verdict alone decides recovery.
        if self.state != BreakerState::Closed {
            return;
        }
        self.window.push_back(!success);
        while self.window.len() > self.cfg.window.max(1) {
            self.window.pop_front();
        }
        if self.window.len() >= self.cfg.min_samples.max(1)
            && self.failure_rate() >= self.cfg.failure_threshold
        {
            self.trip();
        }
    }

    fn trip(&mut self) {
        self.last_failure_rate = if self.window.is_empty() { 1.0 } else { self.failure_rate() };
        self.trips += 1;
        self.state = BreakerState::Open;
        self.attempts_while_open = 0;
        self.probes_outstanding = 0;
        self.probe_successes_seen = 0;
        let jitter = if self.cfg.cooldown_jitter == 0 {
            0
        } else {
            (jitter::splitmix64(self.cfg.seed.wrapping_add(self.trips as u64))
                % (self.cfg.cooldown_jitter as u64 + 1)) as usize
        };
        self.cooldown_target = self.cfg.cooldown.max(1) + jitter;
    }

    fn close(&mut self) {
        self.state = BreakerState::Closed;
        self.window.clear();
        self.probes_outstanding = 0;
        self.probe_successes_seen = 0;
        self.attempts_while_open = 0;
    }
}

/// One observed state change, for reports and tests.
#[derive(Clone, Debug, PartialEq)]
pub struct BreakerTransition {
    /// The problem class whose breaker moved.
    pub class: String,
    /// State before.
    pub from: BreakerState,
    /// State after.
    pub to: BreakerState,
}

impl core::fmt::Display for BreakerTransition {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{}: {} → {}", self.class, self.from, self.to)
    }
}

/// The full private state of one breaker, exported for checkpointing. A
/// breaker rebuilt from its export makes bit-identical decisions on the
/// same admission/record stream — the per-class jitter seed re-derives
/// from the shared config and the class name, so only observed state
/// travels, never derived constants.
#[derive(Clone, Debug, PartialEq)]
pub struct BreakerExport {
    /// Current state.
    pub state: BreakerState,
    /// Sliding outcome window, oldest first (`true` = failure).
    pub window: Vec<bool>,
    /// Trip count (drives the jitter stream position).
    pub trips: usize,
    /// Failure rate at the last trip.
    pub last_failure_rate: f64,
    /// Admission attempts observed while open.
    pub attempts_while_open: usize,
    /// Cooldown target of the current open period.
    pub cooldown_target: usize,
    /// Probes granted but not yet recorded.
    pub probes_outstanding: usize,
    /// Probe successes seen this half-open period.
    pub probe_successes_seen: usize,
}

impl CircuitBreaker {
    /// Exports every decision-relevant field for checkpointing.
    pub fn export(&self) -> BreakerExport {
        BreakerExport {
            state: self.state,
            window: self.window.iter().copied().collect(),
            trips: self.trips,
            last_failure_rate: self.last_failure_rate,
            attempts_while_open: self.attempts_while_open,
            cooldown_target: self.cooldown_target,
            probes_outstanding: self.probes_outstanding,
            probe_successes_seen: self.probe_successes_seen,
        }
    }

    /// Rebuilds a breaker from an export and its (per-class) config.
    pub fn from_export(cfg: BreakerConfig, e: &BreakerExport) -> Self {
        CircuitBreaker {
            cfg,
            state: e.state,
            window: e.window.iter().copied().collect(),
            trips: e.trips,
            last_failure_rate: e.last_failure_rate,
            attempts_while_open: e.attempts_while_open,
            cooldown_target: e.cooldown_target,
            probes_outstanding: e.probes_outstanding,
            probe_successes_seen: e.probe_successes_seen,
        }
    }
}

/// All breakers of a pool, keyed by problem class, sharing one config.
/// Created lazily per class; every state change lands in the
/// ring-bounded transition log in observation order (capacity
/// [`BreakerConfig::transition_log_cap`]).
#[derive(Clone, Debug, Default)]
pub struct BreakerRegistry {
    cfg: Option<BreakerConfig>,
    map: BTreeMap<String, CircuitBreaker>,
    transitions: Ring<BreakerTransition>,
}

impl BreakerRegistry {
    /// A registry handing each new class a breaker with this config (the
    /// class name is folded into the jitter seed so co-tripped classes
    /// de-synchronize their probes).
    pub fn new(cfg: BreakerConfig) -> Self {
        let transitions = Ring::new(cfg.transition_log_cap);
        BreakerRegistry { cfg: Some(cfg), map: BTreeMap::new(), transitions }
    }

    /// The shared config specialized to one class: the jitter seed is
    /// the class name FNV-folded into the shared seed, a pure function
    /// reconstructible after a restart.
    fn class_cfg(&self, class: &str) -> BreakerConfig {
        let mut cfg = self.cfg.clone().unwrap_or_default();
        cfg.seed = jitter::fold_seed(cfg.seed, class);
        cfg
    }

    fn breaker_mut(&mut self, class: &str) -> &mut CircuitBreaker {
        if !self.map.contains_key(class) {
            let cfg = self.class_cfg(class);
            self.map.insert(class.to_string(), CircuitBreaker::new(cfg));
        }
        self.map.get_mut(class).expect("breaker was just inserted")
    }

    /// Admission attempt for `class`, logging any state change.
    pub fn on_admission_attempt(&mut self, class: &str) -> BreakerDecision {
        let b = self.breaker_mut(class);
        let from = b.state();
        let decision = b.on_admission_attempt();
        let to = b.state();
        if from != to {
            self.transitions.push(BreakerTransition { class: class.to_string(), from, to });
        }
        decision
    }

    /// Records a completed session for `class`, logging any state change.
    pub fn record(&mut self, class: &str, success: bool, probe: bool) {
        let b = self.breaker_mut(class);
        let from = b.state();
        b.record(success, probe);
        let to = b.state();
        if from != to {
            self.transitions.push(BreakerTransition { class: class.to_string(), from, to });
        }
    }

    /// Current state of a class's breaker (`None` if the class has never
    /// been seen).
    pub fn state(&self, class: &str) -> Option<BreakerState> {
        self.map.get(class).map(|b| b.state())
    }

    /// The class's breaker, read-only.
    pub fn breaker(&self, class: &str) -> Option<&CircuitBreaker> {
        self.map.get(class)
    }

    /// The most recent state changes, in order (ring-bounded; see
    /// [`BreakerRegistry::transitions_evicted`] for how many older ones
    /// were dropped).
    pub fn transitions(&self) -> &[BreakerTransition] {
        &self.transitions
    }

    /// Transitions evicted from the bounded log so far.
    pub fn transitions_evicted(&self) -> usize {
        self.transitions.evicted()
    }

    /// Exports every class's breaker state for checkpointing, in key
    /// order (deterministic).
    pub fn export(&self) -> Vec<(String, BreakerExport)> {
        self.map.iter().map(|(k, b)| (k.clone(), b.export())).collect()
    }

    /// Restores breakers from a checkpoint export. Existing breakers of
    /// the same classes are replaced; the per-class jitter seeds are
    /// re-derived from the registry config, so a restored registry takes
    /// bit-identical decisions on a replayed stream.
    pub fn restore(&mut self, entries: &[(String, BreakerExport)]) {
        for (class, e) in entries {
            let cfg = self.class_cfg(class);
            self.map.insert(class.clone(), CircuitBreaker::from_export(cfg, e));
        }
    }
}
