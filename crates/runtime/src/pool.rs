//! The serve pool: one request at a time, with panic isolation, a
//! per-class circuit breaker, the hierarchy cache and a bound on every
//! session's wall clock.
//!
//! [`ServePool::serve`] takes one [`SolveRequest`] through, in order:
//!
//! 1. **Breaker** — the per-problem-class [`BreakerRegistry`] refuses
//!    classes whose recent sessions keep failing terminally, until a
//!    half-open probe proves them healthy again;
//! 2. **Cache** — the [`HierarchyCache`] serves the expensive FP64
//!    Galerkin setup from a retained chain when the operator has not
//!    drifted past the audit bound, and the outcome records the typed
//!    [`CacheEventKind`] that produced its hierarchy;
//! 3. **Session** — the ladder runs on the caller's thread under
//!    `catch_unwind`, so a panic becomes a typed
//!    [`SolveError::WorkerPanicked`] outcome. The session's own budget
//!    carries the pool's wedge bound: its deadline is capped at
//!    [`PoolConfig::wedge_after`], and a session the cap stops ends
//!    [`SolveError::Cancelled`] at its next iteration boundary. The
//!    pool spawns no thread and kills nothing;
//! 4. **Bookkeeping** — the breaker records the session and the
//!    counters fold the outcome.
//!
//! Every decision is typed and, apart from wedges (wall clock), a pure
//! function of the request stream. The pool's decision state
//! ([`ServeCounters`], breakers, cache metadata) exports as a
//! [`PoolState`] for the daemon snapshot and restores from one, which is
//! what makes a restarted daemon replay bit-identical decisions.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use fp16mg_krylov::{SolveError, SolveResult};

use crate::admission::{AdmissionError, Priority};
use crate::breaker::{BreakerDecision, BreakerExport, BreakerRegistry};
use crate::cache::{CacheConfig, CacheEntryMeta, CacheEventKind, CacheStats, HierarchyCache};
use crate::ladder::{run_session_with, RetryReport, SessionOutcome, SolveRequest};
use crate::mem::MemGovernor;

/// Why one request ended without a converged result: refused before
/// its session, or admitted and then failed in it. Nothing a request can
/// experience is untyped.
#[derive(Clone, Debug)]
pub enum ServeError {
    /// Refused before any numerical work: the class's breaker is open.
    Rejected(AdmissionError),
    /// Admitted, but the session ended with a typed solve failure
    /// (ladder exhaustion, deadline, wedge, contained panic, …).
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

/// Outcome of one served request.
#[derive(Clone, Debug)]
pub struct RequestOutcome {
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
    /// True when this request was admitted as a half-open breaker probe.
    pub probe: bool,
    /// How the hierarchy cache served this request's setup (`None` when
    /// the request was rejected, or the cached acquire failed and the
    /// session built its own hierarchy).
    pub cache: Option<CacheEventKind>,
    /// Outer iterations summed over all attempts.
    pub iters: usize,
    /// Wall time of the session (zero for rejected requests — rejection
    /// spends no solve time, that is the point).
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
}

/// Cumulative admission/outcome counters. Purely decision-driven (no
/// wall clock), so a checkpointed and restored counter set continues
/// identically on a replayed request stream.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServeCounters {
    /// Requests submitted (admitted or not).
    pub submitted: u64,
    /// Requests admitted to a session.
    pub admitted: u64,
    /// Refused: class breaker open.
    pub rejected_breaker: u64,
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
            Err(ServeError::Rejected(AdmissionError::BreakerOpen { .. })) => {
                self.rejected_breaker += 1
            }
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
    /// Cache statistics.
    pub cache_stats: CacheStats,
    /// Cache entry metadata (entries restore cold).
    pub cache_entries: Vec<CacheEntryMeta>,
}

/// Full configuration of a [`ServePool`]. The breaker's tuning is the
/// breaker module's constants; the cache is always on, with half of
/// `mem_budget` for its retained chains.
#[derive(Clone, Debug)]
pub struct PoolConfig {
    /// Wall-clock bound on one session: its budget's deadline is capped
    /// here (a shorter deadline of the request's own is kept), and a
    /// session the cap stops ends [`SolveError::Cancelled`].
    pub wedge_after: Duration,
    /// Byte budget for the pool's shared [`MemGovernor`]: every
    /// hierarchy, workspace arena, cache entry, and rescale commit is
    /// charged against it. `None` (the default) tracks usage without
    /// refusing.
    pub mem_budget: Option<u64>,
}

impl Default for PoolConfig {
    fn default() -> Self {
        PoolConfig { wedge_after: Duration::from_secs(30), mem_budget: None }
    }
}

/// The serve pool. Owns the breaker registry, the hierarchy cache and
/// the cumulative counters — all of which persist
/// across [`ServePool::serve`] calls (and, via
/// [`ServePool::export_state`], across daemon restarts).
pub struct ServePool {
    wedge_after: Duration,
    breakers: BreakerRegistry,
    cache: HierarchyCache,
    counters: ServeCounters,
    governor: MemGovernor,
}

impl ServePool {
    /// A pool with fresh (all-closed) breakers and an empty cache. When
    /// the config carries a `mem_budget`, the pool's shared
    /// [`MemGovernor`] enforces it across every session and cache entry,
    /// and the cache gets half of it: retained chains evict LRU-first at
    /// insert time (deterministic) before the governor has to refuse a
    /// session's transient setup/workspace charges, so eviction — not
    /// refusal — is the first response to byte pressure. (A single chain
    /// larger than the half is still retained once the others are gone;
    /// see DESIGN.md §12.)
    pub fn new(cfg: PoolConfig) -> Self {
        let governor = match cfg.mem_budget {
            Some(b) => MemGovernor::with_budget(b),
            None => MemGovernor::unlimited(),
        };
        let cache_cfg = CacheConfig { byte_budget: cfg.mem_budget.map(|b| b / 2) };
        ServePool {
            wedge_after: cfg.wedge_after,
            breakers: BreakerRegistry::default(),
            cache: HierarchyCache::with_governor(cache_cfg, governor.clone()),
            counters: ServeCounters::default(),
            governor,
        }
    }

    /// The pool's shared memory governor (byte accounting, fault
    /// schedule, fired-fault counts).
    pub fn governor(&self) -> &MemGovernor {
        &self.governor
    }

    /// The breaker registry (states and transition log).
    pub fn breakers(&self) -> &BreakerRegistry {
        &self.breakers
    }

    /// The hierarchy cache (stats and typed event trail).
    pub fn cache(&self) -> &HierarchyCache {
        &self.cache
    }

    /// Cumulative admission/outcome counters.
    pub fn counters(&self) -> ServeCounters {
        self.counters
    }

    /// Exports the pool's decision state for checkpointing.
    pub fn export_state(&self) -> PoolState {
        PoolState {
            counters: self.counters,
            breakers: self.breakers.export(),
            cache_stats: self.cache.stats(),
            cache_entries: self.cache.metadata(),
        }
    }

    /// Restores decision state from a checkpoint: counters and breaker
    /// states are adopted wholesale, cache entries restore cold
    /// (identity and counters, not matrices).
    pub fn restore_state(&mut self, state: &PoolState) {
        self.counters = state.counters;
        self.breakers.restore(&state.breakers);
        self.cache.restore_stats(state.cache_stats);
        self.cache.restore_metadata(&state.cache_entries);
    }

    /// Serves one request: breaker gate, cached hierarchy acquisition,
    /// then the session on the calling thread with panic containment,
    /// its deadline capped at [`PoolConfig::wedge_after`]. Returns as
    /// soon as the session does.
    ///
    /// A session the cap stops ends [`SolveError::Cancelled`]; cancelled
    /// sessions (wall-clock events) never feed the breakers, so the
    /// replayable decision state stays deterministic. A request's own
    /// shorter deadline still ends [`SolveError::DeadlineExceeded`].
    pub fn serve(&mut self, mut req: SolveRequest) -> RequestOutcome {
        // Every session charges its hierarchies against the pool's
        // shared governor, so one byte budget covers the whole pool.
        req.governor = self.governor.clone();
        let wedge_after = self.wedge_after;
        let wedge_bound = req.budget.deadline.is_none_or(|d| wedge_after < d);
        if wedge_bound {
            req.budget.deadline = Some(wedge_after);
        }

        let probe = match self.breakers.on_admission_attempt(&req.class) {
            BreakerDecision::Reject { failure_rate, cooldown_remaining } => {
                let class = req.class.clone();
                let err = AdmissionError::BreakerOpen { class, failure_rate, cooldown_remaining };
                return self.refuse(&req, err);
            }
            BreakerDecision::Admit { probe } => probe,
        };
        // Hierarchy acquisition through the cache. A failed acquire
        // falls back to the session's own build, where the error
        // resurfaces typed.
        let (prebuilt, cache) =
            self.cache.acquire(&req.class, &req.problem.matrix, &req.base).ok().unzip();

        let t0 = Instant::now();
        let mut session = catch_unwind(AssertUnwindSafe(|| run_session_with(&req, prebuilt)))
            .unwrap_or_else(|payload| SessionOutcome {
                result: Err(SolveError::WorkerPanicked {
                    message: panic_message(payload.as_ref()),
                }),
                solution: None,
                report: RetryReport::default(),
                iters: 0,
                seconds: t0.elapsed().as_secs_f64(),
            });
        // A deadline that fired under the pool's bound is a wedge, not the
        // request's own miss. (The attempt log keeps the deadline record.)
        if wedge_bound {
            if let Err(SolveError::DeadlineExceeded { iter, .. }) = session.result {
                session.result = Err(SolveError::Cancelled { iter });
            }
        }
        // Cancelled sessions say nothing about class health; everything
        // else (contained panics included) feeds the breaker.
        if !matches!(session.result, Err(SolveError::Cancelled { .. })) {
            self.breakers.record(&req.class, session.converged(), probe);
        }
        self.fold(RequestOutcome {
            name: req.name,
            priority: req.priority,
            class: req.class,
            result: session.result.map_err(ServeError::Session),
            solution: session.solution,
            report: session.report,
            probe,
            cache,
            iters: session.iters,
            seconds: session.seconds,
        })
    }

    /// The outcome of a request refused before its session.
    fn refuse(&mut self, req: &SolveRequest, err: AdmissionError) -> RequestOutcome {
        self.fold(RequestOutcome {
            name: req.name.clone(),
            priority: req.priority,
            class: req.class.clone(),
            result: Err(ServeError::Rejected(err)),
            solution: None,
            report: RetryReport::default(),
            probe: false,
            cache: None,
            iters: 0,
            seconds: 0.0,
        })
    }

    /// Folds one outcome into the counters and returns it.
    fn fold(&mut self, outcome: RequestOutcome) -> RequestOutcome {
        self.counters.observe(&outcome);
        outcome
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
