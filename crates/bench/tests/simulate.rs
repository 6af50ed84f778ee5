//! Time-stepping simulation engine acceptance: every step of a cold run
//! commits, the chaos schedule exercises every reuse decision and
//! recovery rung, an interrupted run resumes to a bit-identical trail,
//! and a snapshot from a different run configuration is refused. The
//! bench crate hosts these because it holds the simulation driver.

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
    assert_eq!(c.rescale + c.rebuild, 6);
    assert_eq!(c.rollbacks, 0);
    assert!(report.reuse_setup_s > 0.0);
    fs::remove_dir_all(&dir).ok();
}

/// Every step of rhd at 10³ converges on the ladder's first rung: no
/// served hierarchy pairs a drifted operator with a stale finest level
/// (one that did ended step 5 on `retry→promote16→32`).
#[test]
fn rhd_serves_every_step_on_rung_0() {
    let report = SimDriver::new(SimConfig::new(ProblemKind::Rhd, 10, 10, 1e-9)).unwrap().run();
    let report = report.expect("every step commits");
    assert_eq!(report.rows.len(), 10);
    for row in &report.rows {
        assert_eq!(row.rungs, "retry", "step {} ({})", row.step, row.decision.label());
    }
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

/// Oil at 6³ and rhd at 16³ crash after two consecutive rescales (steps
/// 1 and 2), so the restart's one adopt must carry the coarse tail
/// exactly as the two adopts of the uninterrupted run did.
#[test]
fn interrupted_run_resumes_to_a_bit_identical_trail() {
    for (kind, size, tag) in [(ProblemKind::Oil, 6, "oil"), (ProblemKind::Rhd, 16, "rhd")] {
        let trail = resumes_bit_identically(kind, size, tag, false);
        for step in 1..3 {
            let line = trail.lines().nth(step).unwrap();
            assert!(line.contains(" decision=rescale "), "{tag} step {step}: {line}");
        }
    }
}

/// A snapshot written by a build that still counted steps served by a
/// chain left as it was has a nonzero first `counters` field: it decodes,
/// the count is dropped, and the run resumes to the same trail.
#[test]
fn a_snapshot_with_a_keep_count_resumes_to_a_bit_identical_trail() {
    resumes_bit_identically(ProblemKind::Oil, 6, "oil-keep", true);
}

/// `text` (an encoded snapshot) with its `counters` line's first field
/// set to 2 and the checksum trailer recomputed.
fn with_a_keep_count(text: &str) -> String {
    let body = &text[..text.rfind("checksum ").unwrap()];
    assert!(body.contains("\ncounters 0 "), "{body}");
    let body = body.replacen("\ncounters 0 ", "\ncounters 2 ", 1);
    let mut h = fp16mg_fp::Fnv1a::new();
    body.bytes().for_each(|b| h.write_u8(b));
    format!("{body}checksum {:016x}\n", h.finish())
}

/// Eight steps uninterrupted against three committed, a crash, and a
/// resume: the concatenated trail must be the same bytes. With
/// `keep_count`, the crashed run's last snapshot is republished with a
/// nonzero retired keep count first. Returns the trail.
fn resumes_bit_identically(kind: ProblemKind, size: usize, tag: &str, keep_count: bool) -> String {
    let (steps, tol) = (8u64, 1e-9f64);

    // Uninterrupted reference.
    let ref_dir = scratch(&format!("ref-{tag}"));
    let mut ref_cfg = SimConfig::new(kind, steps, size, tol);
    ref_cfg.snapshot_dir = Some(ref_dir.clone());
    let reference = SimDriver::new(ref_cfg).unwrap().run().unwrap();
    let ref_trail = fs::read_to_string(sim_trail_path(&ref_dir, kind)).unwrap();

    // Interrupted run: three committed steps, then the driver is
    // dropped mid-flight (the in-memory state is lost, as in a kill).
    let crash_dir = scratch(&format!("crash-{tag}"));
    let mut cfg = SimConfig::new(kind, steps, size, tol);
    cfg.snapshot_dir = Some(crash_dir.clone());
    let mut first = SimDriver::new(cfg.clone()).unwrap();
    for _ in 0..3 {
        first.step_once().unwrap();
    }
    drop(first);
    if keep_count {
        let store = SnapshotStore::new(sim_snapshot_path(&crash_dir, kind));
        let found = store.recover(&RealStorage, &SimSnapshot::decode).unwrap();
        let (_, newest) = found.candidates.iter().max_by_key(|(_, s)| s.step).unwrap();
        store.publish(&RealStorage, newest.step, &with_a_keep_count(&newest.encode())).unwrap();
    }

    // The restart must resume from the snapshot, not start cold, and
    // the concatenated trail must equal the reference byte for byte —
    // same decisions, same rung trails, same residual bits.
    let mut second = SimDriver::new(cfg).unwrap();
    assert!(second.resumed());
    assert_eq!(second.next_step(), 3);
    let report = second.run().unwrap();
    assert!(report.resumed);
    assert_eq!(report.rows.len(), 5);
    assert_eq!(report.counters, reference.counters);
    let crash_trail = fs::read_to_string(sim_trail_path(&crash_dir, kind)).unwrap();
    assert_eq!(crash_trail, ref_trail);
    assert_eq!(report.final_resid.to_bits(), {
        let last = ref_trail.lines().last().unwrap();
        let hex = last.rsplit("resid=").next().unwrap();
        u64::from_str_radix(hex, 16).unwrap()
    });
    fs::remove_dir_all(&ref_dir).ok();
    fs::remove_dir_all(&crash_dir).ok();
    ref_trail
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
        .write_all(b"step=2 decision=rescale drift=00")
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
/// writes, each line up to its ` resid=` field. Against the one `ff5068a`
/// wrote before the reuse engine existed: steps 1–5, 10 and 11 (51 / 58 /
/// 58 / 120 / 60 / 35 / 39 then) take fewer iterations since a rescale
/// carries the drift into the coarse tail; step 7 read 39 while its
/// pre-step check re-truncated the flipped level from an FP64 copy, and
/// 37 since it widens that level to FP32 (step 2 reads 36 either way);
/// steps 3 and 9 served the chain as it was (`keep`, 35 and 52, then 53
/// once `step_rhs` bounded the carried state) and rescale since every
/// drift within the bound swaps the operator in, so steps 4 and 10
/// measure their drift from the operators of steps 3 and 9.
const GOLDEN_OIL_CHAOS: &str = "\
step=0 decision=rebuild drift=0000000000000000 structural=0 repairs=0 rollback=0 rungs=retry outcome=ok iters=34
step=1 decision=rescale drift=3ff09cec7f97b501 structural=0 repairs=0 rollback=0 rungs=retry outcome=ok iters=40
step=2 decision=rescale drift=3fd8df3a45e876d4 structural=0 repairs=1 rollback=0 rungs=retry outcome=ok iters=36
step=3 decision=rescale drift=3fc1f955c54c289a structural=0 repairs=0 rollback=0 rungs=retry outcome=ok iters=36
step=4 decision=rescale drift=3ffebe1f88098b3b structural=0 repairs=0 rollback=0 rungs=retry outcome=ok iters=36
step=5 decision=rescale drift=40023ce9c4ed3af5 structural=0 repairs=0 rollback=0 rungs=retry outcome=ok iters=36
step=6 decision=rebuild drift=4013484a77771fde structural=0 repairs=0 rollback=1 rungs=retry→promote16→32→rebuild-f32→rebuild-f64↺retry outcome=ok iters=36
step=7 decision=rebuild drift=40179106601408a6 structural=1 repairs=1 rollback=0 rungs=retry outcome=ok iters=37
step=8 decision=rebuild drift=4019762ff6a17abc structural=0 repairs=0 rollback=0 rungs=retry outcome=ok iters=39
step=9 decision=rescale drift=3fcfd0792cf37b3f structural=0 repairs=0 rollback=0 rungs=retry outcome=ok iters=36
step=10 decision=rescale drift=3ff4e20765cb7b99 structural=0 repairs=0 rollback=0 rungs=retry outcome=ok iters=36
step=11 decision=rescale drift=3feab749c84e2c1e structural=0 repairs=0 rollback=0 rungs=retry outcome=ok iters=41
";

/// Likewise `repro simulate --problem weather --steps 8 --size 6`: steps
/// 1–4 took 17 / 18 / 18 / 20 iterations before the carry.
const GOLDEN_WEATHER: &str = "\
step=0 decision=rebuild drift=0000000000000000 structural=0 repairs=0 rollback=0 rungs=retry outcome=ok iters=16
step=1 decision=rescale drift=3fd8ec3ae92b6769 structural=0 repairs=0 rollback=0 rungs=retry outcome=ok iters=16
step=2 decision=rescale drift=3fd4fcee9c549634 structural=0 repairs=0 rollback=0 rungs=retry outcome=ok iters=16
step=3 decision=rescale drift=3fcb7abb7d695bea structural=0 repairs=0 rollback=0 rungs=retry outcome=ok iters=16
step=4 decision=rescale drift=3fb149f12e2f67fc structural=0 repairs=0 rollback=0 rungs=retry outcome=ok iters=16
step=5 decision=rebuild drift=4011fa8f0d461d8a structural=0 repairs=0 rollback=0 rungs=retry outcome=ok iters=16
step=6 decision=rescale drift=3fcdee47d4378ac1 structural=0 repairs=0 rollback=0 rungs=retry outcome=ok iters=16
step=7 decision=rescale drift=3fd5ca57c829bd71 structural=0 repairs=0 rollback=0 rungs=retry outcome=ok iters=16
";

/// Decisions, drift bits, repairs, rollbacks, ladder rungs, outcomes and
/// iteration counts of two committed runs are pinned (residual bits are
/// left to the `cmp` against a parent build — they follow the host's
/// SIMD path).
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
