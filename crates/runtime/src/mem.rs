//! Memory governor: byte budgets, typed allocation failure, and a
//! deterministic allocation-fault injector.
//!
//! Every large allocation the runtime makes on behalf of a session —
//! hierarchy setup, the V-cycle workspace arena, a cache entry's
//! retained Galerkin chain, a rescale commit — is *charged* against a
//! [`MemGovernor`] before the bytes are considered owned. A charge
//! either succeeds and returns an RAII [`MemCharge`] that credits the
//! bytes back on drop, or fails with a typed [`MemError`] — the setup
//! path never aborts on memory exhaustion; running out of budget is a
//! degrade rung like any other.
//!
//! The governor doubles as a deterministic allocation-fault injector on
//! the crate's one [`FaultSchedule`]: every charge has a monotonically
//! increasing op index, a schedule maps indices to [`AllocFault`]s, and
//! fired faults are counted per class so a torture harness can assert
//! that every scheduled failure class actually fired. The memory torture
//! matrix (`fp16mg_bench::memtorture`) probes a clean run's charge log,
//! then replays it failing each index in turn. The charge log exists only for a governor a harness has
//! asked to [`record_ops`](MemGovernor::record_ops): the daemon's
//! governor lives as long as the process and keeps counters, not
//! history.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use crate::fault::FaultSchedule;

/// Typed memory failure. `BudgetExceeded` is the organic form (the
/// session's byte budget has no room); `Injected` is the torture
/// harness's deterministic stand-in for a failed allocation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MemError {
    /// The charge would push tracked usage past the budget.
    BudgetExceeded {
        /// Charge class (e.g. `"setup"`, `"workspace"`, `"cache-insert"`).
        class: &'static str,
        /// Bytes the charge requested.
        requested: u64,
        /// Bytes already tracked.
        used: u64,
        /// The budget that refused the charge.
        budget: u64,
    },
    /// An [`AllocFault`] scheduled at this charge's op index fired.
    Injected {
        /// Charge class.
        class: &'static str,
        /// The op index the fault was scheduled at.
        index: u64,
    },
}

impl core::fmt::Display for MemError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            MemError::BudgetExceeded { class, requested, used, budget } => write!(
                f,
                "memory budget exceeded: {class} charge of {requested} B \
                 ({used} B tracked, budget {budget} B)"
            ),
            MemError::Injected { class, index } => {
                write!(f, "injected allocation failure: {class} charge at op {index}")
            }
        }
    }
}

impl std::error::Error for MemError {}

/// A deterministic allocation fault, scheduled at a charge op index.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AllocFault {
    /// Fail exactly the charge at the scheduled index.
    Fail,
    /// Fail the charge at the scheduled index and the `count - 1`
    /// charges after it (a bounded burst — the allocator analog of an
    /// ENOSPC burst: pressure that persists for a few requests, then
    /// clears).
    Burst {
        /// Total charges to fail (≥ 1).
        count: u32,
    },
}

/// One charge attempt, for the torture probe's replay log.
#[derive(Clone, Copy, Debug)]
pub struct ChargeRecord {
    /// Op index (0-based, monotonically increasing per charge attempt).
    pub index: u64,
    /// Charge class (one of the literals at the charge sites).
    pub class: &'static str,
    /// Bytes requested.
    pub bytes: u64,
}

struct Inner {
    budget: Option<u64>,
    used: u64,
    peak: u64,
    faults: FaultSchedule<AllocFault, ChargeRecord>,
    /// Remaining charges to fail from an active burst.
    burst_left: u32,
}

/// Cloneable handle to a session's memory accounting (shared
/// `Arc<Mutex<_>>` state, mirroring `FaultStorage`).
#[derive(Clone)]
pub struct MemGovernor {
    inner: Arc<Mutex<Inner>>,
}

impl core::fmt::Debug for MemGovernor {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let g = self.inner.lock().expect("mem governor lock");
        f.debug_struct("MemGovernor")
            .field("budget", &g.budget)
            .field("used", &g.used)
            .field("peak", &g.peak)
            .field("ops", &g.faults.op_count())
            .finish()
    }
}

impl Default for MemGovernor {
    fn default() -> Self {
        Self::unlimited()
    }
}

impl MemGovernor {
    /// A governor with a byte budget.
    pub fn with_budget(budget: u64) -> Self {
        Self::build(Some(budget))
    }

    /// A governor that tracks usage but never refuses a charge
    /// organically (injected faults still fire).
    pub fn unlimited() -> Self {
        Self::build(None)
    }

    fn build(budget: Option<u64>) -> Self {
        MemGovernor {
            inner: Arc::new(Mutex::new(Inner {
                budget,
                used: 0,
                peak: 0,
                faults: FaultSchedule::default(),
                burst_left: 0,
            })),
        }
    }

    /// Charges `bytes` against the budget. On success the returned
    /// [`MemCharge`] owns the bytes and credits them back when dropped;
    /// on failure nothing is charged and the error is typed.
    ///
    /// Every call — success or failure — consumes one op index (and is
    /// recorded in the charge log of a governor that keeps one), so a
    /// fault schedule derived from a clean run's log replays
    /// deterministically.
    pub fn try_charge(&self, class: &'static str, bytes: u64) -> Result<MemCharge, MemError> {
        let mut g = self.inner.lock().expect("mem governor lock");
        let index = g.faults.op_count();
        let fault = g.faults.tick(|index| ChargeRecord { index, class, bytes });
        let injected = match fault {
            Some(AllocFault::Fail) => Some("alloc-fail"),
            Some(AllocFault::Burst { count }) => {
                g.burst_left = count.saturating_sub(1);
                Some("alloc-burst")
            }
            None if g.burst_left > 0 => {
                g.burst_left -= 1;
                Some("alloc-burst")
            }
            None => None,
        };
        if let Some(label) = injected {
            g.faults.fire(label);
            return Err(MemError::Injected { class, index });
        }
        if let Some(budget) = g.budget {
            let used = g.used;
            if used.saturating_add(bytes) > budget {
                g.faults.fire("budget-exceeded");
                return Err(MemError::BudgetExceeded { class, requested: bytes, used, budget });
            }
        }
        g.used += bytes;
        g.peak = g.peak.max(g.used);
        Ok(MemCharge { inner: Arc::clone(&self.inner), bytes })
    }

    /// Schedules a fault at charge op index `index`.
    pub fn schedule(&self, index: u64, fault: AllocFault) {
        self.inner.lock().expect("mem governor lock").faults.schedule(index, fault);
    }

    /// Starts the charge log — the harness hook beside
    /// [`schedule`](Self::schedule). Call it before the run whose
    /// charges [`op_log`](Self::op_log) should list.
    pub fn record_ops(&self) {
        self.inner.lock().expect("mem governor lock").faults.record_ops();
    }

    /// Bytes currently tracked (sum of live charges).
    pub fn used(&self) -> u64 {
        self.inner.lock().expect("mem governor lock").used
    }

    /// High-water mark of tracked bytes.
    pub fn peak(&self) -> u64 {
        self.inner.lock().expect("mem governor lock").peak
    }

    /// The byte budget, if any.
    pub fn budget(&self) -> Option<u64> {
        self.inner.lock().expect("mem governor lock").budget
    }

    /// Fraction of the budget in use, in `[0, 1]` (0 when unlimited).
    pub fn fill(&self) -> f64 {
        let g = self.inner.lock().expect("mem governor lock");
        match g.budget {
            Some(b) if b > 0 => (g.used as f64 / b as f64).clamp(0.0, 1.0),
            _ => 0.0,
        }
    }

    /// Charge attempts so far (the next charge's op index).
    pub fn op_count(&self) -> u64 {
        self.inner.lock().expect("mem governor lock").faults.op_count()
    }

    /// The charge log: every attempt since
    /// [`record_ops`](Self::record_ops), in order; empty without it.
    pub fn op_log(&self) -> Vec<ChargeRecord> {
        self.inner.lock().expect("mem governor lock").faults.op_log()
    }

    /// How many times each fault class fired
    /// (`alloc-fail` / `alloc-burst` / `budget-exceeded`).
    pub fn fired(&self) -> BTreeMap<String, u64> {
        self.inner.lock().expect("mem governor lock").faults.fired()
    }
}

/// RAII receipt for a successful charge: holding it keeps the bytes
/// tracked; dropping it credits them back. Double-crediting is
/// impossible by construction — accounting leaks reduce to leaked
/// receipts, which the torture matrix checks by asserting `used() == 0`
/// after every case.
pub struct MemCharge {
    inner: Arc<Mutex<Inner>>,
    bytes: u64,
}

impl MemCharge {
    /// Bytes this receipt holds.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }
}

impl Drop for MemCharge {
    fn drop(&mut self) {
        let mut g = self.inner.lock().expect("mem governor lock");
        g.used = g.used.saturating_sub(self.bytes);
    }
}

impl core::fmt::Debug for MemCharge {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("MemCharge").field("bytes", &self.bytes).finish()
    }
}
