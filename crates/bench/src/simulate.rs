//! Drift-resilient time-stepping simulation engine (`repro simulate`).
//!
//! A time-dependent application re-solves a slowly changing operator
//! every implicit step; rebuilding the Galerkin chain each step throws
//! away the very setup cost the paper's warm-start path amortizes. The
//! [`SimDriver`] advances an [`Evolution`] trajectory through `steps`
//! implicit solves and decides, per step, how much of the cached
//! hierarchy survives:
//!
//! 1. the reuse engine ([`fp16mg_core::reuse::serve`]) audits the drifted
//!    operator against the baseline of the retained chain and
//! 2. **keeps** the chain untouched, **rescales** (the new operator
//!    becomes the chain's finest level over the retained coarse tail) or
//!    **rebuilds** it — the driver's own part is to escalate a failed
//!    keep / rescale to a rebuild and to remember which steps the chain
//!    and its finest operator belong to;
//! 3. the hierarchy's integrity sentinels are verified (and corrupted
//!    levels repaired) before the solve, and the solve itself runs
//!    through the retry ladder; a step whose ladder is exhausted gets
//!    one *rollback-and-rebuild* recovery: the state rewinds to the
//!    last committed solution, the chain is rebuilt at the current
//!    step, and the solve re-runs once.
//!
//! Every committed step appends one deterministic line to a trail log
//! and checkpoints the full simulation cursor through
//! [`SimSnapshot`], in that order, so a run killed at any instant
//! resumes from the snapshot and reproduces the remaining trail
//! bit-identically: `tests/simulate.rs` resumes a dropped driver, and the
//! storage torture matrix (`tests/torture.rs`) cuts the power at every
//! I/O operation of a run and restarts it.
//! `--chaos` drives a deterministic fault schedule — bit flips into the
//! stored levels, forced drift spikes, and a poisoned solution vector —
//! that exercises every decision path and recovery rung.

use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use fp16mg_core::{
    reuse, IntegrityPolicy, Mg, MgConfig, RepairTrigger, Retained, Reuse, SetupError,
};
use fp16mg_problems::{step_rhs, Evolution, Problem, ProblemKind};
use fp16mg_runtime::{
    append_durable, run_session_with, trail, RealStorage, RetryPolicy, SimCounters, SimSnapshot,
    SnapshotStore, SolveRequest, Storage,
};
use fp16mg_sgdia::SgDia;

use crate::guard::finest_narrow_level;
use crate::table::{fmt_secs, Table};

/// Step whose chaos spike lands in the rescale band (×4 ≈ 2 binades).
/// The spike steps deliberately avoid the smooth-drift minima (steps 3
/// and 9, the extrema of the presets' sine term), where the natural
/// keep decisions live — chaos must add faults, not erase a decision
/// path from the schedule.
const CHAOS_SPIKE_RESCALE_STEP: u64 = 4;
const CHAOS_SPIKE_RESCALE_FACTOR: f64 = 4.0;
/// Step whose chaos spike forces a rebuild (×64 = 6 binades).
const CHAOS_SPIKE_REBUILD_STEP: u64 = 7;
const CHAOS_SPIKE_REBUILD_FACTOR: f64 = 64.0;
/// Chaos flips one bit in a 16-bit stored level on steps ≡ 2 (mod 5).
const CHAOS_FLIP_PERIOD: u64 = 5;
/// Chaos poisons the carried solution after this step commits, so the
/// *next* step's implicit right-hand side is non-finite and its ladder
/// exhausts — proving the rollback-and-rebuild rung.
const CHAOS_POISON_STEP: u64 = 5;

/// Configuration for one simulation run.
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// Problem family evolved through time.
    pub kind: ProblemKind,
    /// Implicit steps to advance.
    pub steps: u64,
    /// Grid extent.
    pub size: usize,
    /// Convergence tolerance per step.
    pub tol: f64,
    /// Deterministic fault schedule on/off.
    pub chaos: bool,
    /// Where the snapshot and trail live; `None` disables durability.
    pub snapshot_dir: Option<PathBuf>,
    /// Print `sim: cold start` / `sim: resumed step=N` and one
    /// `done step=N` acknowledgement per committed step (what the
    /// benchmark's `timestep` workload reads from a child process).
    pub ack: bool,
    /// Storage backend every durable byte flows through. The default is
    /// the real filesystem; the torture harness swaps in a
    /// fault-injecting backend.
    pub storage: Arc<dyn Storage>,
    /// **Testing only.** Deliberately break the durability order by
    /// appending the trail line *without* fsync before acknowledging.
    /// Exists so the torture matrix can prove it detects an acked-step
    /// loss when the write order is wrong.
    pub break_write_order: bool,
}

impl SimConfig {
    /// A quiet in-process run with no durability.
    pub fn new(kind: ProblemKind, steps: u64, size: usize, tol: f64) -> Self {
        SimConfig {
            kind,
            steps,
            size,
            tol,
            chaos: false,
            snapshot_dir: None,
            ack: false,
            storage: Arc::new(RealStorage),
            break_write_order: false,
        }
    }
}

/// One committed (or failed) step.
#[derive(Clone, Debug)]
pub struct StepRow {
    /// Step index.
    pub step: u64,
    /// Reuse decision taken (after any escalation).
    pub decision: Reuse,
    /// Drift magnitude vs. the baseline audit (0.0 on the initial
    /// build).
    pub drift: f64,
    /// Whether the drift was structural.
    pub structural: bool,
    /// Sentinel repairs performed before the solve.
    pub repairs: u64,
    /// Whether the rollback-and-rebuild rung fired.
    pub rollback: bool,
    /// Ladder rung trail (`RetryReport::summary`).
    pub rungs: String,
    /// `"ok"` or the terminal error label.
    pub outcome: String,
    /// Outer iterations over all ladder attempts.
    pub iters: usize,
    /// Final relative residual.
    pub resid: f64,
    /// Seconds the reuse engine spent this step: audit, decision and
    /// the hierarchy it assembled.
    pub reuse_setup_s: f64,
    /// Bytes of the preallocated V-cycle workspace arena of the
    /// hierarchy that served this step (the larger of the two when the
    /// rollback rung rebuilt mid-step). Carved once at setup, so this
    /// is the step's solve-phase peak. Not part of the trail line: the
    /// trail is the bit-exact resume contract and byte counts may
    /// legitimately change across code versions.
    pub ws_bytes: usize,
    /// Set-up errors met this step, in order: a failed rebuild (the
    /// ladder then builds its own hierarchy) and a failed rollback
    /// rebuild. Not part of the trail line, like `ws_bytes`.
    pub setup_errors: Vec<SetupError>,
}

impl StepRow {
    fn trail_line(&self) -> String {
        format!(
            "step={} decision={} drift={:016x} structural={} repairs={} rollback={} rungs={} \
             outcome={} iters={} resid={:016x}",
            self.step,
            self.decision.label(),
            self.drift.to_bits(),
            self.structural as u8,
            self.repairs,
            self.rollback as u8,
            sanitize_token(&self.rungs),
            sanitize_token(&self.outcome),
            self.iters,
            self.resid.to_bits(),
        )
    }
}

/// Summary of a completed run.
#[derive(Clone, Debug)]
pub struct SimReport {
    /// Problem simulated.
    pub kind: ProblemKind,
    /// Rows for the steps executed *in this process* (a resumed run
    /// only re-executes the remaining steps).
    pub rows: Vec<StepRow>,
    /// Decision and recovery tallies over the whole trajectory,
    /// including steps committed before a resume.
    pub counters: SimCounters,
    /// Whether this run resumed from a snapshot.
    pub resumed: bool,
    /// Total setup seconds spent by the reuse policy (this process).
    pub reuse_setup_s: f64,
    /// Final relative residual of the last committed step.
    pub final_resid: f64,
}

impl SimReport {
    /// Largest V-cycle workspace arena any step in this process carved
    /// (0 when the run resumed past its last step and executed none).
    pub fn peak_ws_bytes(&self) -> usize {
        self.rows.iter().map(|r| r.ws_bytes).max().unwrap_or(0)
    }

    /// Chaos acceptance: every decision path and recovery rung must
    /// have fired at least once.
    pub fn coverage_violations(&self) -> Vec<String> {
        let c = &self.counters;
        let mut v = Vec::new();
        for (n, label) in [
            (c.keep, "keep decision"),
            (c.rescale, "rescale decision"),
            (c.rebuild, "rebuild decision"),
            (c.repairs, "sentinel repair"),
            (c.rollbacks, "rollback-and-rebuild recovery"),
        ] {
            if n == 0 {
                v.push(format!("chaos run never exercised the {label}"));
            }
        }
        v
    }
}

/// Replaces whitespace so a trail field stays one token.
fn sanitize_token(s: &str) -> String {
    let t: String = s.chars().map(|c| if c.is_whitespace() { '_' } else { c }).collect();
    if t.is_empty() {
        "-".into()
    } else {
        t
    }
}

/// File-name-safe problem label.
fn sanitize_name(s: &str) -> String {
    s.chars().map(|c| if c.is_ascii_alphanumeric() { c } else { '-' }).collect()
}

/// Snapshot path for one problem inside the durability directory.
pub fn sim_snapshot_path(dir: &Path, kind: ProblemKind) -> PathBuf {
    dir.join(format!("sim-{}.snapshot", sanitize_name(kind.name())))
}

/// Trail-log path for one problem inside the durability directory.
pub fn sim_trail_path(dir: &Path, kind: ProblemKind) -> PathBuf {
    dir.join(format!("sim-{}.trail.log", sanitize_name(kind.name())))
}

/// The chaos seed recorded in the snapshot: the schedule is pure in the
/// step index, so the flag itself is the whole seed. A snapshot taken
/// with chaos on refuses to resume a chaos-off run and vice versa.
fn chaos_seed(chaos: bool) -> u64 {
    chaos as u64
}

/// Chaos drift-spike factor for `step` (1.0 outside the schedule).
fn chaos_spike(chaos: bool, step: u64) -> f64 {
    if !chaos {
        1.0
    } else if step == CHAOS_SPIKE_RESCALE_STEP {
        CHAOS_SPIKE_RESCALE_FACTOR
    } else if step == CHAOS_SPIKE_REBUILD_STEP {
        CHAOS_SPIKE_REBUILD_FACTOR
    } else {
        1.0
    }
}

/// The operator the solver actually sees at `step`: the evolution's
/// drifted matrix, uniformly scaled by the chaos spike. Pure in `step`,
/// which is what lets a resumed run rebuild the chain, the baseline
/// audit, and the right-hand sides bit-identically from the snapshot
/// cursor alone.
fn effective_matrix(evo: &Evolution, chaos: bool, step: u64) -> SgDia<f64> {
    let mut a = evo.matrix_at(step);
    let f = chaos_spike(chaos, step);
    if f != 1.0 {
        // Every stored value, whatever the layout; zeros keep their bits.
        for v in a.data_mut().iter_mut().filter(|v| **v != 0.0) {
            *v *= f;
        }
    }
    a
}

/// Ladder policy for simulation steps: the drift policy upstream already
/// decided how to treat the hierarchy, so the redundant audit gate is
/// off.
fn sim_policy() -> RetryPolicy {
    RetryPolicy { audit_gate: false, ..RetryPolicy::default() }
}

/// Appends one trail line through the storage choke point: write +
/// fsync with the bounded ENOSPC retry, and a parent-directory fsync
/// when the append creates the file. `synced = false` is **testing
/// only** ([`SimConfig::break_write_order`]): append with no fsync,
/// violating the trail-before-ack durability order on purpose so the
/// torture matrix can prove it notices.
fn trail_append(
    storage: &dyn Storage,
    path: &Path,
    line: &str,
    synced: bool,
) -> Result<(), String> {
    let bytes = format!("{line}\n").into_bytes();
    if synced {
        append_durable(storage, path, &bytes)
    } else {
        storage.append(path).and_then(|mut f| f.write_all(&bytes))
    }
    .map_err(|e| format!("trail append: {e}"))
}

/// Scans the trail on resume. A torn (partial) final record is
/// truncated away and logged, not a failed restore: the fsync-before-ack
/// ordering means a torn tail can only belong to a step that was never
/// acknowledged. Returns the highest step index holding a durable,
/// parseable line — the upper bound any resume candidate may claim.
fn recover_trail(
    storage: &dyn Storage,
    path: &Path,
    events: &mut Vec<String>,
) -> Result<Option<u64>, String> {
    let (lines, torn) = trail::recover(storage, path).map_err(|e| format!("trail: {e}"))?;
    if torn > 0 {
        events.push(format!(
            "trail: truncated torn final record ({torn} bytes) in {}",
            path.display()
        ));
    }
    let mut last = None;
    for line in &lines {
        match trail::key_of(line, "step") {
            Some(s) => last = last.max(Some(s)),
            None => events.push(format!("trail: unparseable line ignored: {line}")),
        }
    }
    Ok(last)
}

/// The time-stepping driver: owns the trajectory, the retained Galerkin
/// chain with its drift baseline, and the carried solution, and advances
/// one committed step at a time.
pub struct SimDriver {
    cfg: SimConfig,
    mg_cfg: MgConfig,
    evo: Evolution,
    retained: Option<Retained>,
    /// The steps whose operators the retained chain was built from and
    /// last rescaled to — all a snapshot needs to reconstruct it.
    chain_step: u64,
    finest_step: u64,
    /// Solution carried into the next step's right-hand side. Chaos may
    /// corrupt it *after* a commit; `good_x` never holds corruption.
    work_x: Vec<f64>,
    /// Last committed solution (what the snapshot holds) — the rewind
    /// target of the rollback-and-rebuild rung.
    good_x: Vec<f64>,
    next_step: u64,
    counters: SimCounters,
    last_resid: f64,
    rows: Vec<StepRow>,
    resumed: bool,
    reuse_setup_s: f64,
    recovery_events: Vec<String>,
}

impl SimDriver {
    /// Builds a driver, resuming from the newest snapshot generation in
    /// `cfg.snapshot_dir` that is *covered by the durable trail* (and
    /// matches the requested run), or starting cold.
    ///
    /// Recovery is fault-tolerant by construction: a torn final trail
    /// record is truncated (satisfying nothing was acked past it), a
    /// corrupt or torn snapshot slot is quarantined with fallback to
    /// the previous good generation, and a snapshot claiming a step
    /// the durable trail never recorded (a lying fsync) is ignored.
    /// Every such event is logged in [`SimDriver::recovery_events`].
    /// When no eligible generation remains, the run restarts cold —
    /// safe because the trajectory is a pure function of the step
    /// index, so replayed trail lines are bit-identical duplicates.
    pub fn new(cfg: SimConfig) -> Result<SimDriver, String> {
        let mut mg_cfg = MgConfig::d16();
        mg_cfg.integrity = IntegrityPolicy::armed();
        let evo = Evolution::new(cfg.kind, cfg.size);
        let cells = evo.base().grid().cells() * cfg.kind.components();
        let mut driver = SimDriver {
            mg_cfg,
            evo,
            retained: None,
            chain_step: 0,
            finest_step: 0,
            work_x: vec![0.0; cells],
            good_x: vec![0.0; cells],
            next_step: 0,
            counters: SimCounters::default(),
            last_resid: f64::NAN,
            rows: Vec::new(),
            resumed: false,
            reuse_setup_s: 0.0,
            recovery_events: Vec::new(),
            cfg,
        };
        if let Some(dir) = driver.cfg.snapshot_dir.clone() {
            let storage = Arc::clone(&driver.cfg.storage);
            storage
                .create_dir_all(&dir)
                .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
            let mut events = Vec::new();
            let trail_last = recover_trail(
                storage.as_ref(),
                &sim_trail_path(&dir, driver.cfg.kind),
                &mut events,
            )?;
            let store = SnapshotStore::new(sim_snapshot_path(&dir, driver.cfg.kind));
            let recovery = store
                .recover(storage.as_ref(), &SimSnapshot::decode)
                .map_err(|e| format!("snapshot recovery: {e}"))?;
            for (path, err) in &recovery.quarantined {
                events.push(format!("snapshot: quarantined {} ({err})", path.display()));
            }
            let mut best: Option<SimSnapshot> = None;
            for (path, snap) in recovery.candidates {
                // The trail line for step N is fsynced before snapshot
                // N is published, so a snapshot past the durable trail
                // means an fsync lied; trusting it would resume past
                // steps whose evidence is gone.
                if trail_last.is_none_or(|last| snap.step > last) {
                    events.push(format!(
                        "snapshot: {} claims step {} beyond the durable trail ({}); ignored",
                        path.display(),
                        snap.step,
                        trail_last.map_or("empty".to_string(), |l| format!("last step {l}")),
                    ));
                    continue;
                }
                if best.as_ref().is_none_or(|b| snap.step > b.step) {
                    best = Some(snap);
                }
            }
            match best {
                Some(snap) => driver.restore(snap)?,
                None => {
                    if trail_last.is_some() || !events.is_empty() {
                        events.push(
                            "recovery: no eligible snapshot generation; cold start (replayed \
                             trail lines are bit-identical duplicates)"
                                .to_string(),
                        );
                    }
                }
            }
            driver.recovery_events = events;
        }
        Ok(driver)
    }

    /// What recovery observed while this driver was built: torn-trail
    /// truncation, quarantined snapshot slots, ignored generations,
    /// cold-start fallback. Empty on a clean cold start or clean
    /// resume.
    pub fn recovery_events(&self) -> &[String] {
        &self.recovery_events
    }

    /// Rebuilds in-memory state from a snapshot: the chain and baseline
    /// audit are *reconstructed* (operators are pure functions of the
    /// step index), not persisted.
    fn restore(&mut self, snap: SimSnapshot) -> Result<(), String> {
        let cfg = &self.cfg;
        if snap.problem != cfg.kind.name()
            || snap.size != cfg.size
            || snap.steps != cfg.steps
            || snap.tol.to_bits() != cfg.tol.to_bits()
            || snap.seed != chaos_seed(cfg.chaos)
        {
            return Err(format!(
                "snapshot records run '{}' size {} steps {} tol {:e} seed {}, which does not \
                 match the requested run '{}' size {} steps {} tol {:e} seed {}",
                snap.problem,
                snap.size,
                snap.steps,
                snap.tol,
                snap.seed,
                cfg.kind.name(),
                cfg.size,
                cfg.steps,
                cfg.tol,
                chaos_seed(cfg.chaos),
            ));
        }
        if snap.fields != cfg.kind.components() {
            return Err(format!(
                "snapshot numbers its solution as {} field(s) but '{}' has {} components: it was \
                 written before unknowns were numbered component-major and cannot be resumed",
                snap.fields,
                cfg.kind.name(),
                cfg.kind.components(),
            ));
        }
        if snap.x.len() != self.work_x.len() {
            return Err(format!(
                "snapshot solution has {} entries, expected {}",
                snap.x.len(),
                self.work_x.len()
            ));
        }
        let chain_a = effective_matrix(&self.evo, cfg.chaos, snap.chain_step);
        let mut retained = Retained::build(&chain_a, Retained::audit(&chain_a), &self.mg_cfg)
            .map_err(|e| format!("chain rebuild at step {}: {e}", snap.chain_step))?;
        if snap.finest_step != snap.chain_step {
            let finest = effective_matrix(&self.evo, cfg.chaos, snap.finest_step);
            retained
                .adopt_finest(&finest, Retained::audit(&finest), &self.mg_cfg)
                .map_err(|e| format!("finest swap at step {}: {e}", snap.finest_step))?;
        }
        self.retained = Some(retained);
        self.chain_step = snap.chain_step;
        self.finest_step = snap.finest_step;
        self.work_x = snap.x.clone();
        self.good_x = snap.x;
        self.next_step = snap.step + 1;
        self.counters = snap.counters;
        self.last_resid = snap.last_resid;
        self.resumed = true;
        // Replay the post-commit chaos transformation of the restored
        // step, so the resumed trajectory matches the uninterrupted one.
        self.post_commit_chaos(snap.step);
        Ok(())
    }

    fn post_commit_chaos(&mut self, committed: u64) {
        if self.cfg.chaos && committed == CHAOS_POISON_STEP {
            self.work_x[0] = f64::NAN;
        }
    }

    /// True once every requested step has committed.
    pub fn done(&self) -> bool {
        self.next_step >= self.cfg.steps
    }

    /// Whether this driver resumed from a snapshot.
    pub fn resumed(&self) -> bool {
        self.resumed
    }

    /// The next step to execute.
    pub fn next_step(&self) -> u64 {
        self.next_step
    }

    /// Rebuilds the chain at `step` whatever the drift says: the
    /// escalation of a failed keep / rescale, and the rollback rung.
    /// On an error the retained state stays as it was and the ladder
    /// builds its own hierarchy.
    fn rebuild(&mut self, step: u64, a: &SgDia<f64>) -> Result<Mg<f32>, SetupError> {
        let fresh = Retained::build(a, Retained::audit(a), &self.mg_cfg)?;
        let mg = fresh.hierarchy(&self.mg_cfg)?;
        self.retained = Some(fresh);
        self.chain_step = step;
        self.finest_step = step;
        Ok(mg)
    }

    /// Runs the solve request, returning `(rungs, outcome, iters,
    /// resid, solution)`.
    fn solve(
        &self,
        step: u64,
        a: SgDia<f64>,
        mg: Option<Mg<f32>>,
        prev: Option<&[f64]>,
    ) -> (String, String, usize, f64, Option<Vec<f64>>) {
        let kind = self.cfg.kind;
        let problem = Problem { name: kind.name(), kind, matrix: a, solver: kind.solver() };
        let rhs = step_rhs(&problem, prev);
        let mut req = SolveRequest::new(
            format!("sim-{}-step{}", kind.name(), step),
            problem,
            self.mg_cfg.clone(),
        );
        req.rhs = Some(rhs);
        req.opts.tol = self.cfg.tol;
        req.policy = sim_policy();
        req.budget.max_iters = Some(4000);
        let outcome = run_session_with(&req, mg);
        let rungs = outcome.report.summary();
        let (label, resid) = match &outcome.result {
            Ok(r) => ("ok".to_string(), r.final_rel_residual),
            Err(e) => (format!("{e}"), f64::NAN),
        };
        (rungs, label, outcome.iters, resid, outcome.solution)
    }

    /// Executes the next step: audit → drift → reuse decision →
    /// sentinel verify/repair → ladder solve (→ rollback-and-rebuild on
    /// exhaustion) → durable commit. Returns the committed row, or an
    /// error for an unrecovered step (after appending its trail line).
    pub fn step_once(&mut self) -> Result<&StepRow, String> {
        assert!(!self.done(), "all steps already committed");
        let step = self.next_step;
        let a = effective_matrix(&self.evo, self.cfg.chaos, step);

        let t_reuse = Instant::now();
        let (built, mut decision, d) = reuse::serve(&mut self.retained, &a, &self.mg_cfg);
        let built = match built {
            Ok(mg) => {
                if decision != Reuse::Keep {
                    self.finest_step = step;
                }
                if decision == Reuse::Rebuild {
                    self.chain_step = step;
                }
                Ok(mg)
            }
            // Even the rebuild failed: the ladder builds its own.
            Err(e) if decision == Reuse::Rebuild => Err(e),
            Err(_) => {
                decision = Reuse::Rebuild;
                self.rebuild(step, &a)
            }
        };
        let mut setup_errors = Vec::new();
        let mut mg = built.map_err(|e| setup_errors.push(e)).ok();
        let reuse_setup_s = t_reuse.elapsed().as_secs_f64();
        let (drift_mag, structural) = d.map_or((0.0, false), |d| (d.magnitude(), d.structural()));
        let mut ws_bytes = mg.as_ref().map_or(0, Mg::workspace_bytes);

        // ABFT: chaos corrupts a 16-bit stored level, then the
        // sentinels are verified (and any corruption repaired) before
        // the hierarchy serves the step.
        let mut repairs = 0u64;
        if let Some(m) = mg.as_mut() {
            if self.cfg.chaos && step % CHAOS_FLIP_PERIOD == 2 {
                if let Some(level) = finest_narrow_level(m) {
                    if let Some(stored) = m.stored_mut(level) {
                        stored.inject_bit_flip_tap(0, 9);
                    }
                }
            }
            repairs = m.verify_and_repair(RepairTrigger::Periodic).len() as u64;
        }

        let prev = if step == 0 { None } else { Some(self.work_x.clone()) };
        let (mut rungs, mut outcome, mut iters, mut resid, mut solution) =
            self.solve(step, a, mg, prev.as_deref());

        // Rollback-and-rebuild: the in-step ladder is exhausted, so
        // rewind the carried state to the last committed solution,
        // rebuild the chain at this step, and re-run once.
        let mut rollback = false;
        if solution.is_none() {
            rollback = true;
            self.counters.rollbacks += 1;
            self.work_x = self.good_x.clone();
            let a2 = effective_matrix(&self.evo, self.cfg.chaos, step);
            let mg2 = self.rebuild(step, &a2).map_err(|e| setup_errors.push(e)).ok();
            ws_bytes = ws_bytes.max(mg2.as_ref().map_or(0, Mg::workspace_bytes));
            let prev2 = if step == 0 { None } else { Some(self.work_x.clone()) };
            let (r2, o2, i2, rr2, s2) = self.solve(step, a2, mg2, prev2.as_deref());
            rungs = format!("{rungs}↺{r2}");
            outcome = o2;
            iters += i2;
            resid = rr2;
            solution = s2;
        }

        let row = StepRow {
            step,
            decision,
            drift: drift_mag,
            structural,
            repairs,
            rollback,
            rungs,
            outcome,
            iters,
            resid,
            reuse_setup_s,
            ws_bytes,
            setup_errors,
        };
        self.reuse_setup_s += reuse_setup_s;

        let Some(x) = solution else {
            // Unrecovered: record the failed step in the trail, then
            // surface the error (the CLI exits nonzero).
            if let Some(dir) = &self.cfg.snapshot_dir {
                let trail = sim_trail_path(dir, self.cfg.kind);
                trail_append(self.cfg.storage.as_ref(), &trail, &row.trail_line(), true)?;
            }
            let err = format!("step {} unrecovered after rollback: {}", step, row.outcome);
            self.rows.push(row);
            return Err(err);
        };

        match decision {
            Reuse::Keep => self.counters.keep += 1,
            Reuse::Rescale => self.counters.rescale += 1,
            Reuse::Rebuild => self.counters.rebuild += 1,
        }
        self.counters.repairs += repairs;
        self.work_x = x;
        self.last_resid = resid;

        // Durability order: trail line (fsynced), then snapshot
        // (published into the A/B generation slot), then the ack. A
        // kill between any two leaves a resumable prefix; duplicate
        // trail lines after a resume are bit-identical by construction.
        if let Some(dir) = &self.cfg.snapshot_dir {
            let trail = sim_trail_path(dir, self.cfg.kind);
            let synced = !self.cfg.break_write_order;
            trail_append(self.cfg.storage.as_ref(), &trail, &row.trail_line(), synced)?;
            let snap = SimSnapshot {
                problem: self.cfg.kind.name().to_string(),
                size: self.cfg.size,
                steps: self.cfg.steps,
                tol: self.cfg.tol,
                seed: chaos_seed(self.cfg.chaos),
                step,
                chain_step: self.chain_step,
                finest_step: self.finest_step,
                last_resid: self.last_resid,
                counters: self.counters,
                x: self.work_x.clone(),
                fields: self.cfg.kind.components(),
            };
            // The publication generation is the step index: even steps
            // land in slot A, odd in slot B, so the slot being
            // overwritten always holds the older retained generation.
            SnapshotStore::new(sim_snapshot_path(dir, self.cfg.kind))
                .publish(self.cfg.storage.as_ref(), step, &snap.encode())
                .map_err(|e| format!("snapshot publish: {e}"))?;
        }
        self.good_x = self.work_x.clone();
        if self.cfg.ack {
            println!("done step={step}");
            std::io::stdout().flush().ok();
        }
        self.post_commit_chaos(step);
        self.next_step += 1;
        self.rows.push(row);
        Ok(self.rows.last().expect("row just pushed"))
    }

    /// Advances to completion and summarizes.
    pub fn run(&mut self) -> Result<SimReport, String> {
        if self.cfg.ack {
            if self.resumed {
                println!("sim: resumed step={}", self.next_step);
            } else {
                println!("sim: cold start");
            }
            std::io::stdout().flush().ok();
        }
        while !self.done() {
            self.step_once()?;
        }
        Ok(self.report())
    }

    /// The report for whatever has run so far.
    pub fn report(&self) -> SimReport {
        SimReport {
            kind: self.cfg.kind,
            rows: self.rows.clone(),
            counters: self.counters,
            resumed: self.resumed,
            reuse_setup_s: self.reuse_setup_s,
            final_resid: self.last_resid,
        }
    }
}

/// Renders the per-step cost/accuracy table.
pub fn render_sim_table(report: &SimReport) -> String {
    let mut t = Table::new(&[
        "step", "decision", "drift", "repairs", "rollback", "rungs", "iters", "resid", "setup",
        "ws-bytes",
    ]);
    for r in &report.rows {
        t.row(vec![
            r.step.to_string(),
            r.decision.label().to_string(),
            if r.structural { "structural".into() } else { format!("{:.3}", r.drift) },
            r.repairs.to_string(),
            if r.rollback { "yes".into() } else { "-".into() },
            r.rungs.clone(),
            r.iters.to_string(),
            format!("{:.2e}", r.resid),
            fmt_secs(r.reuse_setup_s),
            r.ws_bytes.to_string(),
        ]);
    }
    let c = report.counters;
    format!(
        "{}\ndecisions: keep={} rescale={} rebuild={} | repairs={} rollbacks={}\nsetup total: {}\n\
         peak workspace: {} bytes (preallocated per-level V-cycle arena; steady-state solve \
         allocates nothing beyond it)\n",
        t.render(),
        c.keep,
        c.rescale,
        c.rebuild,
        c.repairs,
        c.rollbacks,
        fmt_secs(report.reuse_setup_s),
        report.peak_ws_bytes(),
    )
}

/// Runs one simulation from the CLI: table to stdout, chaos coverage
/// enforcement. Returns the process exit code.
pub fn run_sim_cli(cfg: SimConfig) -> i32 {
    let name = cfg.kind.name();
    if let Some(dir) = &cfg.snapshot_dir {
        if let Err(e) = fs::create_dir_all(dir) {
            eprintln!("sim[{name}]: cannot create {}: {e}", dir.display());
            return 2;
        }
    }
    let mut driver = match SimDriver::new(cfg.clone()) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("sim[{name}]: {e}");
            return 2;
        }
    };
    for event in driver.recovery_events() {
        eprintln!("sim[{name}]: recovery: {event}");
    }
    let run = driver.run();
    for row in &driver.rows {
        for e in &row.setup_errors {
            eprintln!("sim[{name}]: step {}: set-up failed: {e}", row.step);
        }
    }
    let report = match run {
        Ok(r) => r,
        Err(e) => {
            eprintln!("sim[{name}]: {e}");
            return 1;
        }
    };
    println!("\n=== simulate {} ({} steps, size {}) ===", name, cfg.steps, cfg.size);
    print!("{}", render_sim_table(&report));
    if cfg.chaos {
        let violations = report.coverage_violations();
        if violations.is_empty() {
            println!("chaos coverage: all decision paths and recovery rungs fired");
        } else {
            for v in &violations {
                eprintln!("sim[{name}]: {v}");
            }
            return 1;
        }
    }
    0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_failed_rebuild_returns_its_reason_and_keeps_the_retained_chain() {
        let mut driver =
            SimDriver::new(SimConfig::new(ProblemKind::Weather, 4, 6, 1e-7)).expect("cold driver");
        driver.step_once().expect("step 0");
        driver.step_once().expect("step 1");
        let kept = |d: &SimDriver| {
            let chain = d.retained.as_ref().expect("a retained chain").chain();
            (chain.finest().data().to_vec(), d.chain_step, d.finest_step)
        };
        let before = kept(&driver);

        // A negative diagonal only sends its level to a wider precision
        // (Theorem 4.1 cannot scale it); a zero one cannot be smoothed.
        let mut a = effective_matrix(&driver.evo, false, 2);
        let diag = a.pattern().taps().iter().position(|t| t.is_diagonal()).expect("a diagonal");
        a.set(3, diag, 0.0);
        match driver.rebuild(2, &a) {
            Err(e) => assert_eq!(e, SetupError::SingularDiagonalBlock { level: 0, cell: 3 }),
            Ok(_) => panic!("a zero diagonal must fail set-up"),
        }
        assert!(kept(&driver) == before, "a failed rebuild moved the retained state");
    }
}
