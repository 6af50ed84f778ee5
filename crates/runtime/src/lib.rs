//! Resilient solve runtime: budgets, retry ladder, and request
//! isolation.
//!
//! The layers below this crate make a single mixed-precision solve
//! *diagnosable* (typed breakdowns, stagnation detection) and partially
//! *self-healing* (FP16→FP32 level promotion inside the V-cycle). This
//! crate makes solves *dependable as a service*:
//!
//! - [`Budget`] bounds one solve session by a wall-clock deadline and
//!   an outer-iteration cap. [`BudgetGuard`] implements
//!   `fp16mg_krylov::SolveControl`, so the deadline is enforced at every
//!   Krylov iteration boundary, not just between attempts.
//! - [`run_session`] walks the retry ladder ([`Rung`]): run the mixed
//!   FP16 configuration on one hierarchy (the in-solve anomaly hook
//!   widens the levels its integrity sentinels flag; when a level was
//!   widened, a second attempt re-solves the mended hierarchy), eagerly
//!   promote 16-bit levels, rebuild in FP32, and finally fall back to
//!   full FP64 — the session [`Budget`] bounding the climb — recording
//!   every attempt (and every promotion) in a [`RetryReport`].
//! - [`ServePool`] serves one session at a time behind a per-problem-class
//!   circuit [`breaker`] (always on, fixed tuning), with the drift-audited
//!   [`HierarchyCache`] (always on, half of [`PoolConfig::mem_budget`] for
//!   its chains) — every refusal a typed [`AdmissionError`]. The pool has
//!   one shape, the daemon's: a [`PoolConfig`] sets only the byte budget
//!   and the wedge bound. A
//!   panicking session becomes a typed `SolveError::WorkerPanicked`
//!   outcome and the next request is served as usual; a wedged one is
//!   stopped by its own budget, whose deadline the pool caps at
//!   [`PoolConfig::wedge_after`], and ends `SolveError::Cancelled`.
//! - [`serve`] is the daemon: one loop on the caller's thread (accept a
//!   connection, wire frames in, solve → fsynced trail → checkpoint →
//!   ack out), its deterministic request stream, its A/B snapshot
//!   restore and its restart reconciliation, on top of [`net`],
//!   [`storage`] and [`trail`].
//!
//! A request can carry a [`FaultPlan`] that keeps corrupting rebuilt
//! hierarchies until a chosen rung, which is how the tests prove each
//! rung is reachable and actually fixes the fault class beneath it.

#![warn(missing_docs)]

pub mod admission;
pub mod breaker;
pub mod budget;
pub mod cache;
pub mod fault;
pub mod jitter;
pub mod ladder;
pub mod mem;
pub mod net;
pub mod pool;
pub mod ring;
pub mod serve;
pub mod snapshot;
pub mod storage;
pub mod trail;

pub use admission::{AdmissionError, Priority};
pub use breaker::{
    BreakerDecision, BreakerExport, BreakerRegistry, BreakerState, BreakerTransition,
    CircuitBreaker,
};
pub use budget::{Budget, BudgetGuard};
pub use cache::{
    CacheConfig, CacheEntryMeta, CacheEvent, CacheEventKind, CacheStats, HierarchyCache,
};
pub use fault::FaultSchedule;
pub use ladder::{
    run_session, run_session_with, Attempt, FaultPlan, LevelBitFlip, RetryReport, Rung,
    SessionOutcome, SolveRequest, SolverChoice,
};
pub use mem::{AllocFault, ChargeRecord, MemCharge, MemError, MemGovernor};
pub use net::{
    decode_frame, read_frame, write_frame, Client, ClientConfig, ClientError, ClientStats, Conn,
    DoneReply, Endpoint, FaultTransport, Frame, Listener, NetFault, NetOp, NetOpKind,
    SubmitRequest, WireError, WIRE_MAGIC,
};
pub use pool::{PoolConfig, PoolState, RequestOutcome, ServeCounters, ServeError, ServePool};
pub use ring::Ring;
pub use snapshot::{
    DaemonSnapshot, Recovery, SimCounters, SimSnapshot, SnapshotError, SnapshotStore,
    SNAPSHOT_VERSION,
};
pub use storage::{
    append_durable, Fault, FaultStorage, OpKind, OpRecord, RealStorage, Storage, StorageError,
    StorageFile, ENOSPC_RETRIES,
};

#[cfg(test)]
mod tests;
