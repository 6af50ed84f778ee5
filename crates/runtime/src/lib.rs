//! Resilient solve runtime: budgets, cancellation, retry ladder, and
//! concurrent request isolation.
//!
//! The layers below this crate make a single mixed-precision solve
//! *diagnosable* (typed breakdowns, stagnation detection) and partially
//! *self-healing* (FP16→FP32 level promotion inside the V-cycle). This
//! crate makes solves *dependable as a service*:
//!
//! - [`Budget`]/[`CancelToken`] bound one solve session by wall clock,
//!   outer iterations, and V-cycle applications, and let another thread
//!   cancel it cooperatively. [`BudgetGuard`] implements
//!   `fp16mg_krylov::SolveControl`, so the bounds are enforced at every
//!   Krylov iteration boundary, not just between attempts.
//! - [`run_session`] walks the retry ladder ([`Rung`]): retry the mixed
//!   FP16 configuration, repair corrupted levels in place from their
//!   integrity sentinels, eagerly promote 16-bit levels, rebuild in
//!   FP32, and finally fall back to full FP64 — with per-rung attempt
//!   caps and jittered backoff ([`RetryPolicy`]), recording every
//!   attempt (and every localized repair) in a [`RetryReport`].
//! - [`ServePool`] drives many sessions concurrently on a scoped worker
//!   pool behind an overload-protection layer: a bounded
//!   [`AdmissionQueue`] with per-[`Priority`] capacity, a
//!   per-problem-class circuit [`breaker`](crate::breaker), and a
//!   pressure-driven [`shed`](crate::shed) stage that degrades admitted
//!   work ([`DegradeProfile`]) or sheds it (BestEffort first,
//!   Interactive never) — every refusal a typed [`AdmissionError`],
//!   every downgrade a typed [`DegradeEvent`]. A panicking session
//!   becomes a typed `SolveError::WorkerPanicked` outcome while every
//!   other request completes.
//! - [`serve`] is the daemon: the one serve loop (wire frames in,
//!   solve → fsynced trail → checkpoint → ack out), its deterministic
//!   request stream and its restart reconciliation, on top of the
//!   persistent [`Daemon`] shell, [`net`], [`storage`] and [`trail`].
//!
//! Under the `fault-inject` feature, requests can carry a [`FaultPlan`]
//! that keeps corrupting rebuilt hierarchies until a chosen rung, which
//! is how the tests prove each rung is reachable and actually fixes the
//! fault class beneath it.

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
pub mod shed;
pub mod snapshot;
pub mod storage;
pub mod supervise;
pub mod trail;

pub use admission::{AdmissionConfig, AdmissionError, AdmissionQueue, Priority};
pub use breaker::{
    BreakerConfig, BreakerDecision, BreakerExport, BreakerRegistry, BreakerState,
    BreakerTransition, CircuitBreaker,
};
pub use budget::{Budget, BudgetGuard, CancelToken};
pub use cache::{
    CacheConfig, CacheEntryMeta, CacheEvent, CacheEventKind, CacheStats, HierarchyCache,
};
pub use fault::FaultSchedule;
pub use ladder::{
    run_session, run_session_with, Attempt, AuditSnapshot, RetryPolicy, RetryReport, Rung,
    SessionOutcome, SolveRequest, SolverChoice,
};
#[cfg(feature = "fault-inject")]
pub use ladder::{FaultPlan, LevelBitFlip};
pub use mem::{AllocFault, ChargeRecord, MemCharge, MemError, MemGovernor};
pub use net::{
    decode_frame, read_frame, write_frame, Acceptor, Client, ClientConfig, ClientError,
    ClientStats, Conn, DoneReply, Endpoint, FaultTransport, Frame, Listener, NetFault, NetOp,
    NetOpKind, SubmitRequest, WireError, WIRE_MAGIC,
};
pub use pool::{PoolConfig, PoolState, RequestOutcome, ServeCounters, ServeError, ServePool};
pub use ring::Ring;
pub use shed::{estimate_pressure, DegradeEvent, DegradeProfile, PressureSignal, ShedPolicy};
pub use snapshot::{
    DaemonSnapshot, Recovery, SimCounters, SimSnapshot, SnapshotError, SnapshotStore,
    SNAPSHOT_VERSION,
};
pub use storage::{
    append_durable, Fault, FaultStorage, OpKind, OpRecord, RealStorage, Storage, StorageError,
    StorageFile, ENOSPC_RETRIES,
};
pub use supervise::{
    Daemon, DaemonConfig, DrainReport, Quarantine, SuperviseConfig, WorkerEvent, WorkerEventKind,
};

#[cfg(test)]
mod tests;
