//! Time-stepping simulation engine acceptance: every step of a cold run
//! commits, the chaos schedule exercises every reuse decision and
//! recovery rung, an interrupted run resumes to a bit-identical trail,
//! and a snapshot from a different run configuration is refused. The
//! bench crate hosts these because the chaos paths need `fault-inject`.

use std::fs;
use std::io::Write;
use std::path::PathBuf;

use fp16mg_bench::simulate::{sim_snapshot_path, sim_trail_path, SimConfig, SimDriver};
use fp16mg_problems::ProblemKind;
use fp16mg_runtime::{RealStorage, SimSnapshot, SnapshotStore};

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fp16mg-simtest-{}-{tag}", std::process::id()));
    fs::remove_dir_all(&dir).ok();
    fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn cold_run_commits_every_step() {
    let dir = scratch("cold");
    let mut cfg = SimConfig::new(ProblemKind::Oil, 6, 6, 1e-9);
    cfg.snapshot_dir = Some(dir.clone());
    let mut driver = SimDriver::new(cfg).unwrap();
    assert!(!driver.resumed());
    let report = driver.run().unwrap();
    assert_eq!(report.rows.len(), 6);
    for row in &report.rows {
        assert_eq!(row.outcome, "ok", "step {} failed: {}", row.step, row.outcome);
        assert!(row.resid <= 1e-9, "step {} residual {}", row.step, row.resid);
        assert!(!row.rollback);
    }
    let c = report.counters;
    assert_eq!(c.keep + c.rescale + c.rebuild, 6);
    assert_eq!(c.rollbacks, 0);
    assert!(report.reuse_setup_s > 0.0);
    fs::remove_dir_all(&dir).ok();
}

/// `rhd`'s carried state stays bounded: carried with a weight of
/// `0.5·max|A|` it grew by about `max|A| / λ_min` per step, and CG broke
/// down on a non-finite `pᵀAp` at step 11 (step 10 from 16³ up).
#[test]
fn rhd_commits_every_step_past_the_old_overflow() {
    let report = SimDriver::new(SimConfig::new(ProblemKind::Rhd, 12, 8, 1e-9)).unwrap().run();
    let report = report.expect("every step commits");
    assert_eq!(report.rows.len(), 12);
    for row in &report.rows {
        assert_eq!((row.outcome.as_str(), row.rollback), ("ok", false), "step {}", row.step);
    }
}

#[test]
fn chaos_exercises_every_decision_and_recovery_path() {
    let mut cfg = SimConfig::new(ProblemKind::Oil, 12, 6, 1e-9);
    cfg.chaos = true;
    let mut driver = SimDriver::new(cfg).unwrap();
    let report = driver.run().expect("every chaos fault must be recovered");
    assert_eq!(
        report.coverage_violations(),
        Vec::<String>::new(),
        "counters: {:?}",
        report.counters
    );
    assert!(report.rows.iter().any(|r| r.rollback), "rollback-and-rebuild never fired");
    assert!(report.rows.iter().all(|r| r.outcome == "ok"));
}

#[test]
fn interrupted_run_resumes_to_a_bit_identical_trail() {
    let kind = ProblemKind::Oil;
    let (steps, size, tol) = (8u64, 6usize, 1e-9f64);

    // Uninterrupted reference.
    let ref_dir = scratch("ref");
    let mut ref_cfg = SimConfig::new(kind, steps, size, tol);
    ref_cfg.snapshot_dir = Some(ref_dir.clone());
    SimDriver::new(ref_cfg).unwrap().run().unwrap();
    let ref_trail = fs::read_to_string(sim_trail_path(&ref_dir, kind)).unwrap();

    // Interrupted run: three committed steps, then the driver is
    // dropped mid-flight (the in-memory state is lost, as in a kill).
    let crash_dir = scratch("crash");
    let mut cfg = SimConfig::new(kind, steps, size, tol);
    cfg.snapshot_dir = Some(crash_dir.clone());
    let mut first = SimDriver::new(cfg.clone()).unwrap();
    for _ in 0..3 {
        first.step_once().unwrap();
    }
    drop(first);

    // The restart must resume from the snapshot, not start cold, and
    // the concatenated trail must equal the reference byte for byte —
    // same decisions, same rung trails, same residual bits.
    let mut second = SimDriver::new(cfg).unwrap();
    assert!(second.resumed());
    assert_eq!(second.next_step(), 3);
    let report = second.run().unwrap();
    assert!(report.resumed);
    assert_eq!(report.rows.len(), 5);
    let crash_trail = fs::read_to_string(sim_trail_path(&crash_dir, kind)).unwrap();
    assert_eq!(crash_trail, ref_trail);
    assert_eq!(report.final_resid.to_bits(), {
        let last = ref_trail.lines().last().unwrap();
        let hex = last.rsplit("resid=").next().unwrap();
        u64::from_str_radix(hex, 16).unwrap()
    });
    fs::remove_dir_all(&ref_dir).ok();
    fs::remove_dir_all(&crash_dir).ok();
}

#[test]
fn snapshot_from_a_different_run_is_refused() {
    let dir = scratch("mismatch");
    let mut cfg = SimConfig::new(ProblemKind::Oil, 6, 6, 1e-9);
    cfg.snapshot_dir = Some(dir.clone());
    let mut driver = SimDriver::new(cfg.clone()).unwrap();
    driver.step_once().unwrap();
    drop(driver);

    // Same directory, different grid size: the snapshot must be
    // rejected, not silently reinterpreted.
    let mut other = cfg.clone();
    other.size = 8;
    let err = SimDriver::new(other).err().expect("size mismatch must refuse to resume");
    assert!(err.contains("does not match"), "unexpected error: {err}");

    // Chaos flag is part of the run identity too.
    let mut chaotic = cfg;
    chaotic.chaos = true;
    let err = SimDriver::new(chaotic).err().expect("chaos mismatch must refuse to resume");
    assert!(err.contains("does not match"), "unexpected error: {err}");
    fs::remove_dir_all(&dir).ok();
}

/// A snapshot written before unknowns were numbered component-major has
/// no numbering record. For a scalar problem it is the same bytes as
/// today's and resumes; for a vector PDE its `x` is cell-major and the
/// run must refuse it rather than couple the next step to a permuted
/// solution.
#[test]
fn old_numbering_vector_snapshot_is_refused_and_a_scalar_one_resumes() {
    for (kind, tag) in [(ProblemKind::Rhd3T, "old-vector"), (ProblemKind::Oil, "old-scalar")] {
        let dir = scratch(tag);
        let mut cfg = SimConfig::new(kind, 4, 6, 1e-9);
        cfg.snapshot_dir = Some(dir.clone());
        let mut driver = SimDriver::new(cfg.clone()).unwrap();
        driver.step_once().unwrap();
        drop(driver);

        // Rewrite the published generation as the older build wrote it.
        let store = SnapshotStore::new(sim_snapshot_path(&dir, kind));
        let found = store.recover(&RealStorage, &SimSnapshot::decode).unwrap();
        let [(_, snap)] = &found.candidates[..] else { panic!("one generation, {found:?}") };
        assert_eq!(snap.fields, kind.components());
        let old = SimSnapshot { fields: 1, ..snap.clone() };
        assert!(!old.encode().contains("x-fields"));
        store.publish(&RealStorage, snap.step, &old.encode()).unwrap();

        match (kind.components(), SimDriver::new(cfg)) {
            (1, Ok(resumed)) => assert!(resumed.resumed() && resumed.next_step() == 1),
            (1, Err(e)) => panic!("a scalar snapshot must resume: {e}"),
            (_, Ok(_)) => panic!("a cell-major vector snapshot must be refused"),
            (_, Err(e)) => assert!(e.contains("component-major"), "unexpected error: {e}"),
        }
        fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn torn_final_trail_record_is_truncated_and_logged_on_resume() {
    let kind = ProblemKind::Oil;
    let dir = scratch("torn");
    let mut cfg = SimConfig::new(kind, 5, 6, 1e-9);
    cfg.snapshot_dir = Some(dir.clone());
    let mut driver = SimDriver::new(cfg.clone()).unwrap();
    driver.step_once().unwrap();
    driver.step_once().unwrap();
    drop(driver);

    // Simulate a torn append: half of a record lands with no newline.
    let trail = sim_trail_path(&dir, kind);
    let intact = fs::read_to_string(&trail).unwrap();
    fs::OpenOptions::new()
        .append(true)
        .open(&trail)
        .unwrap()
        .write_all(b"step=2 decision=keep drift=00")
        .unwrap();

    // Resume: the torn tail is truncated and logged, not a failed
    // restore, and the run completes with a clean trail.
    let mut second = SimDriver::new(cfg).unwrap();
    assert!(
        second.recovery_events().iter().any(|e| e.contains("torn final record")),
        "truncation must be logged, got {:?}",
        second.recovery_events()
    );
    assert!(second.resumed());
    assert_eq!(second.next_step(), 2, "resume from the last durable step");
    assert_eq!(fs::read_to_string(&trail).unwrap(), intact, "torn bytes must be gone");
    second.run().unwrap();
    let final_trail = fs::read_to_string(&trail).unwrap();
    assert!(final_trail.ends_with('\n'));
    assert_eq!(final_trail.lines().count(), 5);
    fs::remove_dir_all(&dir).ok();
}

/// The trail `repro simulate --problem oil --steps 12 --size 6 --chaos`
/// wrote at `ff5068a`, before the reuse engine existed, each line up to
/// its ` resid=` field — but for step 9's `iters`, 52 then and 53 since
/// `step_rhs` bounds the state it carries from step to step.
const GOLDEN_OIL_CHAOS: &str = "\
step=0 decision=rebuild drift=0000000000000000 structural=0 repairs=0 rollback=0 rungs=retry outcome=ok iters=34
step=1 decision=rescale drift=3ff09cec7f97b501 structural=0 repairs=0 rollback=0 rungs=retry outcome=ok iters=51
step=2 decision=rescale drift=3fd8df3a45e876d4 structural=0 repairs=1 rollback=0 rungs=retry outcome=ok iters=58
step=3 decision=keep drift=3fc1f955c54c289a structural=0 repairs=0 rollback=0 rungs=retry outcome=ok iters=58
step=4 decision=rescale drift=40007ea520598827 structural=0 repairs=0 rollback=0 rungs=retry outcome=ok iters=120
step=5 decision=rescale drift=40023ce9c4ed3af5 structural=0 repairs=0 rollback=0 rungs=retry outcome=ok iters=60
step=6 decision=rebuild drift=4013484a77771fde structural=0 repairs=0 rollback=1 rungs=retry→retry→promote16→32→rebuild-f32→rebuild-f64↺retry outcome=ok iters=36
step=7 decision=rebuild drift=40179106601408a6 structural=1 repairs=1 rollback=0 rungs=retry outcome=ok iters=39
step=8 decision=rebuild drift=4019762ff6a17abc structural=0 repairs=0 rollback=0 rungs=retry outcome=ok iters=39
step=9 decision=keep drift=3fcfd0792cf37b3f structural=0 repairs=0 rollback=0 rungs=retry outcome=ok iters=53
step=10 decision=rescale drift=3ff3a21c578fa4e4 structural=0 repairs=0 rollback=0 rungs=retry outcome=ok iters=35
step=11 decision=rescale drift=3feab749c84e2c1e structural=0 repairs=0 rollback=0 rungs=retry outcome=ok iters=39
";

/// Likewise `repro simulate --problem weather --steps 8 --size 6`.
const GOLDEN_WEATHER: &str = "\
step=0 decision=rebuild drift=0000000000000000 structural=0 repairs=0 rollback=0 rungs=retry outcome=ok iters=16
step=1 decision=rescale drift=3fd8ec3ae92b6769 structural=0 repairs=0 rollback=0 rungs=retry outcome=ok iters=17
step=2 decision=rescale drift=3fd4fcee9c549634 structural=0 repairs=0 rollback=0 rungs=retry outcome=ok iters=18
step=3 decision=keep drift=3fcb7abb7d695bea structural=0 repairs=0 rollback=0 rungs=retry outcome=ok iters=18
step=4 decision=rescale drift=3fd20fda0a4087ee structural=0 repairs=0 rollback=0 rungs=retry outcome=ok iters=20
step=5 decision=rebuild drift=4011fa8f0d461d8a structural=0 repairs=0 rollback=0 rungs=retry outcome=ok iters=16
step=6 decision=keep drift=3fcdee47d4378ac1 structural=0 repairs=0 rollback=0 rungs=retry outcome=ok iters=16
step=7 decision=rescale drift=3fe260bdd922c166 structural=0 repairs=0 rollback=0 rungs=retry outcome=ok iters=16
";

/// The trail did not move: decisions, drift bits, repairs, rollbacks,
/// ladder rungs, outcomes and iteration counts of two committed runs are
/// what the parent of the reuse engine wrote (residual bits are left to
/// the `cmp` against a parent build — they follow the host's SIMD path).
#[test]
fn trails_are_the_golden_ones() {
    for (kind, steps, chaos, golden) in [
        (ProblemKind::Oil, 12, true, GOLDEN_OIL_CHAOS),
        (ProblemKind::Weather, 8, false, GOLDEN_WEATHER),
    ] {
        let dir = scratch(&format!("golden-{}", kind.name()));
        let mut cfg = SimConfig::new(kind, steps, 6, 1e-9);
        cfg.chaos = chaos;
        cfg.snapshot_dir = Some(dir.clone());
        SimDriver::new(cfg).unwrap().run().unwrap();
        let trail = fs::read_to_string(sim_trail_path(&dir, kind)).unwrap();
        let got: Vec<&str> =
            trail.lines().map(|l| l.split_once(" resid=").expect("a resid field").0).collect();
        assert_eq!(got, golden.lines().collect::<Vec<_>>(), "{}", kind.name());
        fs::remove_dir_all(&dir).ok();
    }
}
