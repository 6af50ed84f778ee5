//! The serve pool: admission-controlled, overload-protected concurrent
//! request driver with panic isolation, hierarchy caching, and worker
//! supervision.
//!
//! [`ServePool`] is the front door for batches of [`SolveRequest`]s. A
//! request passes four gates before any numerical work is spent on it:
//!
//! 1. **Quarantine** — a request name that has repeatedly wedged or
//!    panicked its worker is refused outright
//!    ([`AdmissionError::Quarantined`]) — see [`crate::supervise`];
//! 2. **Capacity** — the bounded [`AdmissionQueue`] (total and
//!    per-priority caps) refuses what cannot be queued, so latency never
//!    collapses under unbounded intake;
//! 3. **Breaker** — the per-problem-class [`BreakerRegistry`] refuses
//!    classes whose recent sessions keep failing terminally, until a
//!    half-open probe proves them healthy again;
//! 4. **Shed** — the pressure signal (queue fill, queued deadline
//!    slack) sheds [`Priority::BestEffort`] work first and
//!    [`Priority::Batch`] work near saturation, while admitted work is
//!    degraded ([`DegradeProfile::Reduced`]/[`DegradeProfile::Economy`])
//!    instead of queued at full cost.
//!
//! Admitted requests then hit the [`HierarchyCache`]: the expensive FP64
//! Galerkin setup is served from a retained chain when the operator has
//! not drifted past the audit bound, and each outcome records the typed
//! [`CacheEventKind`] that produced its hierarchy.
//!
//! Every gate decision is typed: a refused request carries its
//! [`AdmissionError`], a degraded one its [`DegradeEvent`] trail. The
//! admission phase is sequential and driven only by declared quantities,
//! so a replayed batch makes identical decisions; execution then fans
//! out over scoped workers (highest priority first) with per-request
//! `catch_unwind` containment and — when supervision is enabled — a
//! monitor thread that cancels wedged requests past their deadline.
//!
//! The pool's decision state ([`ServeCounters`], breakers, quarantine
//! strikes, cache metadata) exports as a [`PoolState`] for the daemon
//! snapshot and restores from one, which is what makes a restarted
//! daemon replay bit-identical decisions.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Condvar, Mutex};
use std::time::Instant;

use fp16mg_krylov::{SolveError, SolveResult};

use crate::admission::{AdmissionConfig, AdmissionError, AdmissionQueue, Priority};
use crate::breaker::{BreakerConfig, BreakerDecision, BreakerExport, BreakerRegistry};
use crate::budget::CancelToken;
use crate::cache::{CacheConfig, CacheEntryMeta, CacheEventKind, CacheStats, HierarchyCache};
use crate::ladder::{run_session_with, RetryReport, SolveRequest};
use crate::mem::MemGovernor;
use crate::ring::Ring;
use crate::shed::{estimate_pressure, DegradeEvent, DegradeProfile, ShedPolicy};
use crate::supervise::{Quarantine, SuperviseConfig, WorkerEvent, WorkerEventKind};

/// Why one request ended without a converged result: refused at
/// admission, or admitted and then failed in its solve session. Nothing
/// a request can experience is untyped.
#[derive(Clone, Debug)]
pub enum ServeError {
    /// Refused before any numerical work: queue full, shed, breaker
    /// open, or quarantined.
    Rejected(AdmissionError),
    /// Admitted, but the session ended with a typed solve failure
    /// (ladder exhaustion, deadline, cancellation, contained panic, …).
    Session(SolveError),
}

impl ServeError {
    /// The admission refusal, when this is one.
    pub fn rejection(&self) -> Option<&AdmissionError> {
        match self {
            ServeError::Rejected(e) => Some(e),
            ServeError::Session(_) => None,
        }
    }

    /// The session failure, when this is one.
    pub fn session(&self) -> Option<&SolveError> {
        match self {
            ServeError::Rejected(_) => None,
            ServeError::Session(e) => Some(e),
        }
    }
}

impl core::fmt::Display for ServeError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ServeError::Rejected(e) => write!(f, "rejected: {e}"),
            ServeError::Session(e) => write!(f, "session failed: {e}"),
        }
    }
}

impl std::error::Error for ServeError {}

/// Outcome of one request in a batch, tagged with its submission index
/// and full admission/degradation provenance.
#[derive(Clone, Debug)]
pub struct RequestOutcome {
    /// Position in the submitted batch (outcomes are returned in this
    /// order regardless of which worker finished first).
    pub index: usize,
    /// The request's display name.
    pub name: String,
    /// The request's priority class.
    pub priority: Priority,
    /// The request's problem class (breaker key).
    pub class: String,
    /// Converged result, or the typed error that ended the request —
    /// an admission refusal ([`ServeError::Rejected`]) or a session
    /// failure ([`ServeError::Session`], including
    /// [`SolveError::WorkerPanicked`] for contained panics).
    pub result: Result<SolveResult, ServeError>,
    /// The solution vector, when the session converged.
    pub solution: Option<Vec<f64>>,
    /// Every ladder attempt the session took (empty for rejected and
    /// panicked requests).
    pub report: RetryReport,
    /// The pressure value observed at this request's admission attempt.
    pub pressure: f64,
    /// The quality profile the request was served at (always
    /// [`DegradeProfile::Full`] for rejected requests and half-open
    /// probes).
    pub profile: DegradeProfile,
    /// Typed trail of every quality downgrade applied before the solve.
    pub degrades: Vec<DegradeEvent>,
    /// True when this request was admitted as a half-open breaker probe.
    pub probe: bool,
    /// How the hierarchy cache served this request's setup (`None` when
    /// the cache is disabled, the request was rejected, or the cached
    /// acquire failed and the session built its own hierarchy).
    pub cache: Option<CacheEventKind>,
    /// Outer iterations summed over all attempts.
    pub iters: usize,
    /// V-cycle applications summed over all attempts.
    pub vcycles: usize,
    /// Wall time of the session on its worker (zero for rejected
    /// requests — rejection spends no solve time, that is the point).
    pub seconds: f64,
}

impl RequestOutcome {
    /// True when the session converged.
    pub fn converged(&self) -> bool {
        self.result.is_ok()
    }

    /// The typed admission refusal, when the request was rejected.
    pub fn rejection(&self) -> Option<&AdmissionError> {
        self.result.as_ref().err().and_then(ServeError::rejection)
    }

    /// True when the request was served at a degraded profile.
    pub fn degraded(&self) -> bool {
        self.profile != DegradeProfile::Full
    }
}

/// Cumulative admission/outcome counters. Purely decision-driven (no
/// wall clock), so a checkpointed and restored counter set continues
/// identically on a replayed request stream.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServeCounters {
    /// Requests submitted (admitted or not).
    pub submitted: u64,
    /// Requests admitted to a worker.
    pub admitted: u64,
    /// Refused: bounded queue full.
    pub rejected_queue_full: u64,
    /// Refused: shed under pressure.
    pub rejected_shed: u64,
    /// Refused: class breaker open.
    pub rejected_breaker: u64,
    /// Refused: request name quarantined.
    pub rejected_quarantined: u64,
    /// Admitted at a degraded profile.
    pub degraded: u64,
    /// Sessions that converged.
    pub completed_ok: u64,
    /// Sessions that ended with a typed failure.
    pub completed_err: u64,
}

impl ServeCounters {
    /// Folds one outcome into the counters.
    fn observe(&mut self, outcome: &RequestOutcome) {
        self.submitted += 1;
        match &outcome.result {
            Ok(_) => {
                self.admitted += 1;
                self.completed_ok += 1;
            }
            Err(ServeError::Session(_)) => {
                self.admitted += 1;
                self.completed_err += 1;
            }
            Err(ServeError::Rejected(e)) => match e {
                AdmissionError::QueueFull { .. } => self.rejected_queue_full += 1,
                AdmissionError::Shed { .. } => self.rejected_shed += 1,
                AdmissionError::BreakerOpen { .. } => self.rejected_breaker += 1,
                AdmissionError::Quarantined { .. } => self.rejected_quarantined += 1,
            },
        }
        if outcome.result.as_ref().err().and_then(ServeError::rejection).is_none()
            && outcome.degraded()
        {
            self.degraded += 1;
        }
    }
}

/// The pool's complete exportable decision state — everything a
/// restarted daemon needs to make identical admission, breaker, and
/// cache-keying decisions on a replayed stream. Produced by
/// [`ServePool::export_state`], persisted by
/// [`DaemonSnapshot`](crate::DaemonSnapshot), and consumed by
/// [`ServePool::restore_state`].
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PoolState {
    /// Cumulative counters.
    pub counters: ServeCounters,
    /// Every breaker's full state, keyed by class, in class order.
    pub breakers: Vec<(String, BreakerExport)>,
    /// Quarantine strikes, keyed by request name, in name order.
    pub quarantine: Vec<(String, usize)>,
    /// Cache statistics.
    pub cache_stats: CacheStats,
    /// Cache entry metadata (entries restore cold).
    pub cache_entries: Vec<CacheEntryMeta>,
}

/// Full configuration of a [`ServePool`].
#[derive(Clone, Debug)]
pub struct PoolConfig {
    /// Worker threads executing admitted requests (clamped to at least 1
    /// and at most the batch size).
    pub workers: usize,
    /// Bounded-queue shape.
    pub admission: AdmissionConfig,
    /// Pressure thresholds and degraded-profile knobs.
    pub shed: ShedPolicy,
    /// Per-problem-class circuit-breaker tuning.
    pub breaker: BreakerConfig,
    /// Hierarchy-cache tuning (off by default: batch pools rebuild per
    /// request, daemons turn this on).
    pub cache: CacheConfig,
    /// Worker supervision (off by default, for the same reason).
    pub supervise: SuperviseConfig,
    /// Byte budget for the pool's shared [`MemGovernor`]: every
    /// hierarchy, workspace arena, cache entry, and rescale commit is
    /// charged against it; tracked usage over this budget feeds the
    /// pressure signal's `mem_fill` component and triggers cache
    /// eviction. `None` (the default) tracks usage without refusing.
    pub mem_budget: Option<u64>,
}

impl Default for PoolConfig {
    fn default() -> Self {
        PoolConfig {
            workers: 4,
            admission: AdmissionConfig::default(),
            shed: ShedPolicy::default(),
            breaker: BreakerConfig::default(),
            cache: CacheConfig::disabled(),
            supervise: SuperviseConfig::disabled(),
            mem_budget: None,
        }
    }
}

impl PoolConfig {
    /// Every protection off: practically unbounded queue, shedding and
    /// degradation off, breakers off, cache and supervision off. Every
    /// request is admitted at full quality.
    pub fn unbounded(workers: usize) -> Self {
        PoolConfig {
            workers,
            admission: AdmissionConfig::unbounded(),
            shed: ShedPolicy::disabled(),
            breaker: BreakerConfig::disabled(),
            cache: CacheConfig::disabled(),
            supervise: SuperviseConfig::disabled(),
            mem_budget: None,
        }
    }

    /// The long-running daemon shape: every protection layer on,
    /// hierarchy cache on, supervision on.
    pub fn daemon(workers: usize) -> Self {
        PoolConfig {
            workers,
            admission: AdmissionConfig::default(),
            shed: ShedPolicy::default(),
            breaker: BreakerConfig::default(),
            cache: CacheConfig::default(),
            supervise: SuperviseConfig::default(),
            mem_budget: None,
        }
    }
}

/// One admitted request, carrying its provenance to the worker phase.
struct Admitted {
    index: usize,
    req: SolveRequest,
    pressure: f64,
    profile: DegradeProfile,
    degrades: Vec<DegradeEvent>,
    probe: bool,
    prebuilt: Option<fp16mg_core::Mg<f32>>,
    cache: Option<CacheEventKind>,
}

/// One worker's heartbeat: what it is running and since when.
struct InFlight {
    name: String,
    cancel: CancelToken,
    started: Instant,
    wedged: bool,
}

/// The overload-protected serve pool. Owns the breaker registry, the
/// hierarchy cache, the quarantine, and the cumulative counters — all of
/// which persist across [`ServePool::run`] calls (and, via
/// [`ServePool::export_state`], across daemon restarts). The admission
/// queue is per-batch: each `run` starts with an empty bounded queue.
pub struct ServePool {
    cfg: PoolConfig,
    breakers: BreakerRegistry,
    cache: HierarchyCache,
    quarantine: Quarantine,
    counters: ServeCounters,
    worker_events: Ring<WorkerEvent>,
    governor: MemGovernor,
}

impl ServePool {
    /// A pool with fresh (all-closed) breakers, an empty cache, and an
    /// empty quarantine. When the config carries a `mem_budget`, the
    /// pool's shared [`MemGovernor`] enforces it across every session
    /// and cache entry.
    pub fn new(cfg: PoolConfig) -> Self {
        let governor = match cfg.mem_budget {
            Some(b) => MemGovernor::with_budget(b),
            None => MemGovernor::unlimited(),
        };
        let breakers = BreakerRegistry::new(cfg.breaker.clone());
        let cache = HierarchyCache::with_governor(cfg.cache.clone(), governor.clone());
        let quarantine = Quarantine::new(cfg.supervise.max_strikes);
        let worker_events = Ring::new(cfg.supervise.event_log_cap);
        ServePool {
            cfg,
            breakers,
            cache,
            quarantine,
            counters: ServeCounters::default(),
            worker_events,
            governor,
        }
    }

    /// The pool's shared memory governor (byte accounting, fault
    /// schedule, fired-fault counts).
    pub fn governor(&self) -> &MemGovernor {
        &self.governor
    }

    /// The pool configuration.
    pub fn config(&self) -> &PoolConfig {
        &self.cfg
    }

    /// The breaker registry (states and transition log).
    pub fn breakers(&self) -> &BreakerRegistry {
        &self.breakers
    }

    /// The hierarchy cache (stats and typed event trail).
    pub fn cache(&self) -> &HierarchyCache {
        &self.cache
    }

    /// The poisoned-request quarantine.
    pub fn quarantine(&self) -> &Quarantine {
        &self.quarantine
    }

    /// Cumulative admission/outcome counters.
    pub fn counters(&self) -> ServeCounters {
        self.counters
    }

    /// The supervision event trail (wedges, contained panics,
    /// quarantine promotions), oldest first.
    pub fn worker_events(&self) -> &[WorkerEvent] {
        &self.worker_events
    }

    /// Exports the pool's decision state for checkpointing.
    pub fn export_state(&self) -> PoolState {
        PoolState {
            counters: self.counters,
            breakers: self.breakers.export(),
            quarantine: self.quarantine.export(),
            cache_stats: self.cache.stats(),
            cache_entries: self.cache.metadata(),
        }
    }

    /// Restores decision state from a checkpoint: counters and breaker
    /// states are adopted wholesale, quarantine strikes merge by
    /// maximum, cache entries restore cold (identity and counters, not
    /// matrices).
    pub fn restore_state(&mut self, state: &PoolState) {
        self.counters = state.counters;
        self.breakers.restore(&state.breakers);
        self.quarantine.restore(&state.quarantine);
        self.cache.restore_stats(state.cache_stats);
        self.cache.restore_metadata(&state.cache_entries);
    }

    /// Serves one batch: sequential typed admission (quarantine,
    /// capacity, breaker, shed) plus cached hierarchy acquisition, then
    /// concurrent execution of the admitted requests (highest priority
    /// first) on scoped workers with per-request panic containment and
    /// optional wedge supervision. Outcomes come back in submission
    /// order, one per request, rejected or not.
    ///
    /// Completed sessions are recorded into the breaker registry in
    /// submission order after the batch finishes, so breaker evolution
    /// is deterministic regardless of worker interleaving. Counters are
    /// folded in the same order. Cancelled sessions (including wedge
    /// cancellations, which are wall-clock events) never feed the
    /// breakers, so the replayable decision state stays deterministic.
    pub fn run(&mut self, requests: Vec<SolveRequest>) -> Vec<RequestOutcome> {
        let n = requests.len();
        if n == 0 {
            return Vec::new();
        }
        let mut queue = AdmissionQueue::new(self.cfg.admission.clone());
        let workers = self.cfg.workers.clamp(1, n);

        // --- Phase 1: sequential admission. Decisions depend only on
        // declared quantities and arrival order, never on wall clock.
        let mut slots: Vec<Option<RequestOutcome>> = (0..n).map(|_| None).collect();
        let mut admitted: Vec<Admitted> = Vec::new();
        let mut queued_deadlines: Vec<Option<std::time::Duration>> = Vec::new();
        for (index, mut req) in requests.into_iter().enumerate() {
            // Every session charges its hierarchies against the pool's
            // shared governor, so one byte budget covers the whole pool.
            req.governor = self.governor.clone();
            let priority = req.priority;
            let class = req.class.clone();
            let name = req.name.clone();
            let reject = |err: AdmissionError, pressure: f64| RequestOutcome {
                index,
                name: name.clone(),
                priority,
                class: class.clone(),
                result: Err(ServeError::Rejected(err)),
                solution: None,
                report: RetryReport::default(),
                pressure,
                profile: DegradeProfile::Full,
                degrades: Vec::new(),
                probe: false,
                cache: None,
                iters: 0,
                vcycles: 0,
                seconds: 0.0,
            };

            // Gate 0: quarantine. A poison pill is refused before it
            // can consume a queue slot.
            if self.cfg.supervise.enabled && self.quarantine.is_quarantined(&name) {
                let strikes = self.quarantine.strikes_of(&name);
                let err = AdmissionError::Quarantined { name: name.clone(), strikes };
                slots[index] = Some(reject(err, queue.fill()));
                continue;
            }
            // Gate 1: bounded capacity.
            if let Err(e) = queue.try_reserve(priority) {
                slots[index] = Some(reject(e, queue.fill()));
                continue;
            }
            // Gate 2: the class's circuit breaker. (Checked after the
            // capacity reservation so a granted half-open probe always
            // has a slot — no rollback path.)
            let probe = match self.breakers.on_admission_attempt(&class) {
                BreakerDecision::Reject { failure_rate, cooldown_remaining } => {
                    queue.release(priority);
                    let err = AdmissionError::BreakerOpen {
                        class: class.clone(),
                        failure_rate,
                        cooldown_remaining,
                    };
                    slots[index] = Some(reject(err, queue.fill()));
                    continue;
                }
                BreakerDecision::Admit { probe } => probe,
            };
            // Gate 3: the pressure signal. Probes bypass shedding — the
            // whole point of a probe is to run and report.
            let mut signal = estimate_pressure(
                queue.depth(),
                queue.config().capacity,
                workers,
                queue.config().est_service,
                &queued_deadlines,
            );
            signal.mem_fill = self.governor.fill();
            // Memory pressure's first lever is eviction: before any work
            // is degraded or shed, the cache gives bytes back until the
            // fill drops below the degrade threshold (or the cache is
            // empty — residual pressure then degrades/sheds like any
            // other overload).
            if signal.mem_fill >= self.cfg.shed.reduce_at {
                if let Some(budget) = self.governor.budget() {
                    let target = (self.cfg.shed.reduce_at * budget as f64) as u64;
                    let excess = self.governor.used().saturating_sub(target);
                    let cache_target = self.cache.cache_bytes().saturating_sub(excess);
                    self.cache.evict_until_within(cache_target);
                    signal.mem_fill = self.governor.fill();
                }
            }
            let pressure = signal.value();
            if !probe && self.cfg.shed.should_shed(priority, pressure) {
                queue.release(priority);
                slots[index] = Some(reject(AdmissionError::Shed { priority, pressure }, pressure));
                continue;
            }

            // Admitted. Probes run at full quality: a degraded probe
            // would test the wrong thing.
            let profile =
                if probe { DegradeProfile::Full } else { self.cfg.shed.profile_for(pressure) };
            let degrades = req.apply_profile(profile, &self.cfg.shed);

            // Hierarchy acquisition through the cache, sequentially (the
            // cache's event trail and LRU order are part of the
            // deterministic decision state). Runs after degradation so
            // the cache keys on the configuration the session will
            // actually use. A failed acquire falls back to the session's
            // own build, where the error resurfaces typed.
            let (prebuilt, cache) = if self.cfg.cache.enabled {
                match self.cache.acquire(&class, &req.problem.matrix, &req.base) {
                    Ok((mg, kind)) => (Some(mg), Some(kind)),
                    Err(_) => (None, None),
                }
            } else {
                (None, None)
            };

            queued_deadlines.push(req.budget.deadline);
            admitted.push(Admitted {
                index,
                req,
                pressure,
                profile,
                degrades,
                probe,
                prebuilt,
                cache,
            });
        }

        // --- Phase 2: concurrent execution, highest priority first (the
        // shed order in reverse: what we protect hardest runs soonest).
        admitted.sort_by_key(|a| (a.req.priority.index(), a.index));
        let admitted_count = admitted.len();
        let exec: Mutex<VecDeque<Admitted>> = Mutex::new(admitted.into_iter().collect());
        let done: Vec<Mutex<Option<(RequestOutcome, bool)>>> =
            (0..n).map(|_| Mutex::new(None)).collect();

        let supervise = self.cfg.supervise.clone();
        let hearts: Vec<Mutex<Option<InFlight>>> = (0..workers).map(|_| Mutex::new(None)).collect();
        // Finished requests, with a condvar the monitor sleeps on so a
        // wave ends the moment its last request does.
        let completed: (Mutex<usize>, Condvar) = (Mutex::new(0), Condvar::new());
        let events: Mutex<Vec<WorkerEvent>> = Mutex::new(Vec::new());
        let strikes: Mutex<Vec<String>> = Mutex::new(Vec::new());

        std::thread::scope(|scope| {
            for w in 0..workers {
                let exec = &exec;
                let done = &done;
                let hearts = &hearts;
                let completed = &completed;
                let events = &events;
                let strikes = &strikes;
                let supervise = &supervise;
                scope.spawn(move || loop {
                    // The lock is held only around the pop — a panicking
                    // session can never poison the queue.
                    let job = exec.lock().unwrap_or_else(|e| e.into_inner()).pop_front();
                    let Some(adm) = job else { break };
                    let Admitted {
                        index,
                        req,
                        pressure,
                        profile,
                        degrades,
                        probe,
                        prebuilt,
                        cache,
                    } = adm;
                    let name = req.name.clone();
                    let priority = req.priority;
                    let class = req.class.clone();
                    if supervise.enabled {
                        *hearts[w].lock().unwrap_or_else(|e| e.into_inner()) = Some(InFlight {
                            name: name.clone(),
                            cancel: req.budget.cancel.clone(),
                            started: Instant::now(),
                            wedged: false,
                        });
                    }
                    let t0 = Instant::now();
                    let outcome = match catch_unwind(AssertUnwindSafe(|| {
                        run_session_with(&req, prebuilt)
                    })) {
                        Ok(sess) => {
                            // Cancelled sessions say nothing about class
                            // health; everything else feeds the breaker.
                            let countable =
                                !matches!(sess.result, Err(SolveError::Cancelled { .. }));
                            (
                                RequestOutcome {
                                    index,
                                    name: name.clone(),
                                    priority,
                                    class,
                                    result: sess.result.map_err(ServeError::Session),
                                    solution: sess.solution,
                                    report: sess.report,
                                    pressure,
                                    profile,
                                    degrades,
                                    probe,
                                    cache,
                                    iters: sess.iters,
                                    vcycles: sess.vcycles,
                                    seconds: sess.seconds,
                                },
                                countable,
                            )
                        }
                        Err(payload) => {
                            if supervise.enabled {
                                events.lock().unwrap_or_else(|e| e.into_inner()).push(
                                    WorkerEvent {
                                        worker: Some(w),
                                        request: name.clone(),
                                        kind: WorkerEventKind::Panicked,
                                    },
                                );
                                strikes
                                    .lock()
                                    .unwrap_or_else(|e| e.into_inner())
                                    .push(name.clone());
                            }
                            (
                                RequestOutcome {
                                    index,
                                    name: name.clone(),
                                    priority,
                                    class,
                                    result: Err(ServeError::Session(SolveError::WorkerPanicked {
                                        message: panic_message(payload.as_ref()),
                                    })),
                                    solution: None,
                                    report: RetryReport::default(),
                                    pressure,
                                    profile,
                                    degrades,
                                    probe,
                                    cache,
                                    iters: 0,
                                    vcycles: 0,
                                    seconds: t0.elapsed().as_secs_f64(),
                                },
                                true,
                            )
                        }
                    };
                    if supervise.enabled {
                        let wedged = hearts[w]
                            .lock()
                            .unwrap_or_else(|e| e.into_inner())
                            .take()
                            .is_some_and(|s| s.wedged);
                        if wedged {
                            strikes.lock().unwrap_or_else(|e| e.into_inner()).push(name.clone());
                        }
                    }
                    *completed.0.lock().unwrap_or_else(|e| e.into_inner()) += 1;
                    completed.1.notify_all();
                    *done[index].lock().unwrap_or_else(|e| e.into_inner()) = Some(outcome);
                });
            }

            // The monitor: checks every worker's heartbeat once per poll
            // interval and cancels
            // requests that have run past the wedge deadline. Purely
            // wall-clock, so its effects reach outcomes only as
            // `SolveError::Cancelled` (never counted by the breakers).
            if supervise.enabled && admitted_count > 0 {
                let hearts = &hearts;
                let completed = &completed;
                let events = &events;
                let supervise = &supervise;
                scope.spawn(move || loop {
                    // One poll interval, cut short when the last request
                    // completes.
                    let finished = completed.0.lock().unwrap_or_else(|e| e.into_inner());
                    let (finished, _) = completed
                        .1
                        .wait_timeout_while(finished, supervise.poll, |n| *n < admitted_count)
                        .unwrap_or_else(|e| e.into_inner());
                    if *finished >= admitted_count {
                        break;
                    }
                    drop(finished);
                    for (w, slot) in hearts.iter().enumerate() {
                        let mut s = slot.lock().unwrap_or_else(|e| e.into_inner());
                        if let Some(infl) = s.as_mut() {
                            let elapsed = infl.started.elapsed();
                            if !infl.wedged && elapsed > supervise.wedge_after {
                                infl.wedged = true;
                                infl.cancel.cancel();
                                events.lock().unwrap_or_else(|e| e.into_inner()).push(
                                    WorkerEvent {
                                        worker: Some(w),
                                        request: infl.name.clone(),
                                        kind: WorkerEventKind::Wedged {
                                            elapsed: elapsed.as_secs_f64(),
                                        },
                                    },
                                );
                            }
                        }
                    }
                });
            }
        });

        // Supervision bookkeeping. Strike *counts* per name are
        // deterministic (each wedge/panic strikes exactly once); only
        // the interleaving of the diagnostic event trail can vary.
        let mut batch_events = events.into_inner().unwrap_or_else(|e| e.into_inner());
        for nm in strikes.into_inner().unwrap_or_else(|e| e.into_inner()) {
            let strikes_now = self.quarantine.strike(&nm);
            if self.cfg.supervise.max_strikes > 0 && strikes_now == self.cfg.supervise.max_strikes {
                batch_events.push(WorkerEvent {
                    worker: None,
                    request: nm.clone(),
                    kind: WorkerEventKind::Quarantined { strikes: strikes_now },
                });
            }
        }
        self.worker_events.extend(batch_events);

        for (index, slot) in done.into_iter().enumerate() {
            if let Some((outcome, countable)) = slot.into_inner().unwrap_or_else(|e| e.into_inner())
            {
                if countable {
                    self.breakers.record(&outcome.class, outcome.converged(), outcome.probe);
                }
                slots[index] = Some(outcome);
            }
        }

        let outcomes: Vec<RequestOutcome> = slots
            .into_iter()
            .map(|slot| slot.expect("every request produces an outcome, admitted or not"))
            .collect();
        for outcome in &outcomes {
            self.counters.observe(outcome);
        }
        outcomes
    }
}

/// Extracts a human-readable message from a panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic payload of unknown type".to_string()
    }
}
