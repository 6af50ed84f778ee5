//! The reference-vs-crash trail verifier that `repro loadgen --soak`
//! ends on (daemon rules) and the storage torture matrix's end-state
//! check uses (`replays` on: a restarted simulation may re-append a
//! step identically): one table of tampered crash trails, each of which
//! must be caught for its own reason and in the right mode.

use fp16mg_bench::loadgen::verify_replay;

fn seq_line(seq: u64, outcome: &str, cache: &str) -> String {
    format!(
        "seq={seq} req=req-{seq:05} class=default prio=batch profile=full outcome={outcome} \
         breaker=closed cache={cache}"
    )
}

fn reference() -> Vec<String> {
    (0..4).map(|s| seq_line(s, "ok", if s == 0 { "rebuilt" } else { "hit" })).collect()
}

/// `verify_replay` over the four-record `seq` stream: daemon rules
/// (`replays` off) unless said otherwise.
fn violations(crash: &[String], replays: bool, strict: bool) -> Vec<String> {
    verify_replay(&reference(), crash, "seq", 4, replays, strict).violations
}

#[test]
fn faithful_crash_trail_passes_and_the_cache_field_is_not_compared() {
    // A restarted daemon's cache is cold: seq 2 rebuilt instead of hit.
    let mut crash = reference();
    crash[2] = seq_line(2, "ok", "rebuilt");
    assert_eq!(violations(&crash, false, true), Vec::<String>::new());
}

#[test]
fn every_tampering_is_caught_for_its_own_reason() {
    let good = reference();
    let table: [(&str, Vec<String>, &str); 5] = [
        ("lost seq", vec![good[0].clone(), good[1].clone(), good[3].clone()], "lost seq 2"),
        (
            "second line for a seq",
            vec![
                good[0].clone(),
                good[1].clone(),
                good[1].clone(),
                good[2].clone(),
                good[3].clone(),
            ],
            "seq 1: 2 trail lines — a resubmission was re-executed",
        ),
        (
            "divergent decision",
            vec![
                good[0].clone(),
                seq_line(1, "unconverged", "hit"),
                good[2].clone(),
                good[3].clone(),
            ],
            "seq 1 diverged from the reference",
        ),
        (
            "alien line",
            vec![
                good[0].clone(),
                "hello".into(),
                good[1].clone(),
                good[2].clone(),
                good[3].clone(),
            ],
            "alien line: hello",
        ),
        (
            "key past the stream",
            [good.clone(), vec![seq_line(4, "ok", "hit")]].concat(),
            "alien line: seq=4",
        ),
    ];
    for (what, crash, expect) in table {
        let got = violations(&crash, false, true);
        assert_eq!(got.len(), 1, "{what}: {got:?}");
        assert!(got[0].contains(expect), "{what}: {got:?}");
    }
}

#[test]
fn identical_duplicates_are_allowed_only_in_replay_mode() {
    let good = reference();
    let replayed: Vec<String> =
        vec![good[0].clone(), good[1].clone(), good[1].clone(), good[2].clone(), good[3].clone()];
    assert_eq!(violations(&replayed, true, true), Vec::<String>::new());
    assert_eq!(verify_replay(&good, &replayed, "seq", 4, true, true).replayed, 1);
    assert_eq!(violations(&replayed, false, true).len(), 1);

    // A replay that disagrees with its first copy is caught even there.
    let mut forked = replayed.clone();
    forked[2] = seq_line(1, "unconverged", "hit");
    let got = violations(&forked, true, true);
    assert!(got.iter().any(|v| v.contains("replayed seq 1 DIVERGENTLY")), "{got:?}");
}

#[test]
fn drift_is_counted_not_fatal_when_not_strict() {
    let mut crash = reference();
    crash[3] = seq_line(3, "setup-failed", "none");
    let verdict = verify_replay(&reference(), &crash, "seq", 4, false, false);
    assert_eq!((verdict.violations.len(), verdict.drifted), (0, 1));
    // Loss stays fatal under a budget.
    crash.pop();
    assert_eq!(verify_replay(&reference(), &crash, "seq", 4, false, false).violations.len(), 1);
}

#[test]
fn reference_must_be_the_whole_stream_in_order() {
    let good = reference();
    let short = verify_replay(&good[..3], &good, "seq", 4, false, true).violations;
    assert!(short.iter().any(|v| v.contains("reference trail has 3 lines, want 4")), "{short:?}");
    let swapped = [good[1].clone(), good[0].clone(), good[2].clone(), good[3].clone()];
    let got = verify_replay(&swapped, &good, "seq", 4, false, true).violations;
    assert!(got.iter().any(|v| v.contains("reference trail line 0 is not seq 0")), "{got:?}");
}

#[test]
fn step_keyed_trails_compare_whole_lines() {
    let steps: Vec<String> =
        (0..3).map(|s| format!("step={s} decision=keep outcome=ok resid=3ff0")).collect();
    assert!(verify_replay(&steps, &steps, "step", 3, true, true).violations.is_empty());
    let mut crash = steps.clone();
    crash[2] = crash[2].replace("resid=3ff0", "resid=3ff1");
    let got = verify_replay(&steps, &crash, "step", 3, true, true).violations;
    assert!(got.len() == 1 && got[0].contains("step 2 diverged"), "{got:?}");
    // A `seq` trail is alien to a `step` check.
    assert_eq!(verify_replay(&steps, &reference(), "step", 3, true, true).violations.len(), 4 + 3);
}
