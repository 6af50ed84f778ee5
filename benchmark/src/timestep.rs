//! `timestep`: `repro simulate --problem weather` as a child process, its
//! `done step=N` lines stamped from outside.
//!
//! Set-up is paid on every step here, through the keep / rescale /
//! rebuild reuse policy, so work moved from solve into set-up — which
//! looks free on the one-shot workloads — shows as a cost. The child
//! takes no seed: the operator trajectory is fixed by the step number.

use std::time::{Duration, Instant};

use crate::child::{repro_path, Proc, Scratch};
use crate::inproc::note_samples;
use crate::reference::Bracketed;
use crate::report::Outcome;
use crate::stats::{median, percentile};
use crate::trace::Tracer;

pub const SIZE: usize = 48;
pub const QUICK_SIZE: usize = 12;
/// Size of the probe a traced run of another workload makes.
const PROBE_SIZE: usize = 24;
/// Never fewer steps than this in a full run.
const MIN_STEPS: usize = 20;
/// Steps one child runs; the first is its cold start.
const STEPS_PER_CHILD: usize = 6;
const MAX_CHILDREN: usize = 40;
/// No single step may take longer; the child is killed when one does.
const STEP_DEADLINE: Duration = Duration::from_secs(30);

pub struct SimRun {
    /// Spawn → `done step=0`: process start, problem build, the first
    /// (cold) set-up and the first solve.
    pub first_step_s: Option<f64>,
    /// Interval before each of `done step=1..`.
    pub intervals: Vec<f64>,
    /// Spawn → exit.
    pub wall_s: f64,
    /// Why the run is not clean, if it is not.
    pub error: Option<String>,
}

/// Runs the child for `steps` steps. A step that misses its deadline or a
/// child that exits non-zero ends the run with `error` set.
pub fn simulate(size: usize, steps: usize, tracer: Option<&Tracer>) -> SimRun {
    let mut run = SimRun { first_step_s: None, intervals: Vec::new(), wall_s: 0.0, error: None };
    let scratch = match Scratch::new() {
        Ok(s) => s,
        Err(e) => return SimRun { error: Some(e), ..run },
    };
    let args: Vec<String> = [
        "simulate",
        "--problem",
        "weather",
        "--steps",
        &steps.to_string(),
        "--size",
        &size.to_string(),
        "--out",
        &scratch.path().display().to_string(),
    ]
    .map(String::from)
    .to_vec();
    let mut proc = match Proc::spawn(&repro_path(), &args) {
        Ok(p) => p,
        Err(e) => return SimRun { error: Some(e), ..run },
    };
    let mut last = proc.spawned;
    let mut seen = 0;
    while seen < steps {
        let Some((at, line)) = proc.next_line(last + STEP_DEADLINE) else {
            run.error = Some(format!("no `done step={seen}` line before its deadline"));
            break;
        };
        let Some(n) = line.strip_prefix("done step=") else { continue };
        if n.trim().parse() != Ok(seen) {
            run.error = Some(format!("expected `done step={seen}`, got `{line}`"));
            break;
        }
        if let Some(t) = tracer {
            t.record(if seen == 0 { "bench.sim_first_step" } else { "bench.sim_step" }, last, at);
        }
        let dt = (at - last).as_secs_f64();
        if seen == 0 {
            run.first_step_s = Some(dt);
        } else {
            run.intervals.push(dt);
        }
        last = at;
        seen += 1;
    }
    if run.error.is_none() {
        match proc.wait_until(Instant::now() + STEP_DEADLINE) {
            Some(status) if status.success() => {}
            Some(status) => run.error = Some(format!("child exited with {status}")),
            None => run.error = Some("child did not exit after its last step".to_string()),
        }
    }
    run.wall_s = proc.spawned.elapsed().as_secs_f64();
    run
}

/// The untraced end-to-end run. An operation is one time step.
///
/// The child cannot be paused for a reference pass, so the steps come in
/// several children of six (cold rebuild, rescale, rescale, keep, rescale,
/// rebuild — every reuse decision), each bracketed by reference passes.
/// A child's first step is a set-up sample, its other five are steps.
pub fn run(seconds: f64, quick: bool) -> Outcome {
    let mut out = Outcome::default();
    let (size, min_children) =
        if quick { (QUICK_SIZE, 1) } else { (SIZE, MIN_STEPS.div_ceil(STEPS_PER_CHILD - 1)) };
    let mut refs = Bracketed::new();
    let (mut first_s, mut first_rel, mut step_s, mut step_rel) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let t0 = Instant::now();
    let mut children = 0;
    while children < min_children
        || (t0.elapsed().as_secs_f64() < seconds && children < MAX_CHILDREN)
    {
        children += 1;
        out.attempted += STEPS_PER_CHILD as u64;
        let child = simulate(size, STEPS_PER_CHILD, None);
        let reference = refs.close();
        if let Some(e) = &child.error {
            // The steps not seen, or all of them when the child itself failed.
            let done = child.first_step_s.iter().len() + child.intervals.len();
            let lost =
                if done < STEPS_PER_CHILD { STEPS_PER_CHILD - done } else { STEPS_PER_CHILD };
            out.failed += lost as u64;
            out.note(format!("FAILED: child {children}: {e} ({lost} of {STEPS_PER_CHILD} steps counted as failed)"));
            continue;
        }
        first_rel.extend(child.first_step_s.map(|t| t / reference));
        first_s.extend(child.first_step_s);
        step_rel.extend(child.intervals.iter().map(|t| t / reference));
        step_s.extend(child.intervals);
    }
    out.note(format!(
        "{children} x repro simulate --problem weather --steps {STEPS_PER_CHILD} --size {size}, each between two reference passes"
    ));
    if first_s.is_empty() || step_s.is_empty() {
        return out;
    }
    out.push("setup_s", median(&first_s), first_s.len());
    out.push("setup_rel", median(&first_rel), first_rel.len());
    out.push("solve_rel", median(&step_rel), step_rel.len());
    out.push(
        "throughput_rel",
        step_rel.len() as f64 / step_rel.iter().sum::<f64>(),
        step_rel.len(),
    );
    out.note(format!(
        "in seconds: spawn to `done step=0` {:.6}, step interval {:.6} (medians); reference pass {:.6}",
        median(&first_s),
        median(&step_s),
        refs.reference_s()
    ));
    note_samples(&mut out, &step_s, &first_s, &step_rel, &first_rel);
    out
}

/// The `simulate` part of a traced run: one span per step, the child's
/// wall time and its slow steps. `full` runs the workload's own size;
/// otherwise a short probe at toy size.
pub fn traced(full: bool, quick: bool, tracer: &Tracer, out: &mut Outcome) {
    let (size, steps) = match (quick, full) {
        (true, _) => (QUICK_SIZE, 4),
        (false, true) => (SIZE, MIN_STEPS),
        (false, false) => (PROBE_SIZE, 6),
    };
    out.attempted += steps as u64;
    let run = tracer.span("bench.simulate", || simulate(size, steps, Some(tracer)));
    if let Some(e) = &run.error {
        out.failed += steps as u64;
        out.note(format!("FAILED: simulate probe: {e}"));
    }
    let p90 = if run.intervals.is_empty() { 0.0 } else { percentile(&run.intervals, 90.0) };
    out.push("bench.sim_wall_s", run.wall_s, 1);
    out.push("bench.sim_step_p90_s", p90, run.intervals.len());
}
