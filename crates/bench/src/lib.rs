//! Shared experiment harness.
//!
//! Everything the `repro` binary and the `benches/` targets need to
//! regenerate the paper's tables and figures: the precision/strategy
//! combinations of the Fig. 6 ablation, timed end-to-end solves with the
//! Fig. 8/9 breakdown (setup / MG preconditioner / other), the Fig. 7
//! kernel measurement matrix (baseline / naive / optimized / model-bound
//! / CSR stand-in for vendor libraries), the fault-injection guard
//! experiment demonstrating detect → promote → converge, the serve-pool
//! scenarios the integration tests run on `fp16mg-runtime`'s pool, and
//! the harnesses (load generator, kill/restart soak, fault matrices) that
//! hold the daemon in `fp16mg_runtime::serve` to its contract.

#![warn(missing_docs)]
pub mod audit;
pub mod combos;
pub mod e2e;
pub mod guard;
pub mod kernelbench;
pub mod loadgen;
pub mod matrix;
pub mod memtorture;
pub mod microbench;
pub mod nettorture;
pub mod serve;
pub mod simulate;
pub mod table;
pub mod torture;

pub use audit::{audit_report, print_audit_table};
pub use combos::Combo;
pub use e2e::{solve_e2e, E2eResult};
pub use guard::{finest_narrow_level, solve_guarded, GuardOutcome};
pub use kernelbench::{kernel_suite, KernelKind, KernelRow, Variant};
pub use loadgen::{run_loadgen, run_net_soak, LoadgenConfig, LoadgenReport, NetSoakConfig};
pub use matrix::MatrixReport;
pub use memtorture::MemTortureReport;
pub use microbench::Group;
pub use nettorture::{run_net_matrix, NetTortureReport};
pub use serve::serve;
pub use simulate::{run_sim_cli, SimConfig, SimDriver, SimReport, StepRow};
pub use torture::{run_matrix, TortureConfig, TortureReport};

/// A fresh path under the system temp directory, `<stem>-<pid>-<n>`:
/// unique per call, not only per process, so callers in one process
/// (tests on parallel threads) never share a socket or a directory.
pub(crate) fn unique_temp(stem: &str) -> std::path::PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static CALLS: AtomicU64 = AtomicU64::new(0);
    let n = CALLS.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("{stem}-{}-{n}", std::process::id()))
}
