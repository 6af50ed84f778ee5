//! The `repro` command-line contract: bad input is a one-line error plus
//! the usage on stderr, nothing on stdout and exit code 2 — decided
//! before any experiment prints its header.

use std::process::{Command, Output};

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro")).args(args).output().expect("repro runs")
}

#[test]
fn bad_input_prints_usage_and_exits_2() {
    for args in [
        &["no-such-experiment"][..],
        &["chaos"],
        &["overload"],
        &["torture"],
        &["memtorture"],
        &["nettorture"],
        &["serve"],
        &["serve", "--daemon"],
        &["serve", "--daemon", "--addr", "unix:d.sock", "--workers", "2"],
        &["table2", "--size", "0"],
        // No `--smoother` flag exists: this is an unknown argument.
        &["fig8", "--size", "8", "--smoother", "bogus"],
        &["fig10", "--threads", "0"],
        &["fig10", "--threads", "1,0"],
        // The soak's reference trail needs 12 steps; fewer is refused, not clamped.
        &["simulate", "--soak", "--steps", "5"],
        // A soak's kill must land before its last request or step.
        &["loadgen", "--soak", "--requests", "6", "--kill-after", "6"],
        &["loadgen", "--soak", "--requests", "6", "--kill-after", "7"],
        &["loadgen", "--soak", "--kill-after", "0"],
        &["loadgen", "--soak", "--requests", "3"],
        &["simulate", "--soak", "--steps", "12", "--kill-after", "12"],
        &["simulate", "--soak", "--steps", "12", "--kill-after", "13"],
        &["simulate", "--soak", "--kill-after", "0"],
    ] {
        let out = repro(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains("usage: repro"), "{args:?}: no usage on stderr: {stderr}");
        assert!(
            out.stdout.is_empty(),
            "{args:?}: stdout: {}",
            String::from_utf8_lossy(&out.stdout)
        );
    }
}

#[test]
fn the_daemon_accepts_one_worker_only() {
    // `--workers 1` parses (the missing `--addr` is what stops this
    // run); any other count is refused by name.
    let one = String::from_utf8_lossy(&repro(&["serve", "--daemon", "--workers", "1"]).stderr)
        .into_owned();
    assert!(one.contains("serve --daemon needs --addr"), "{one}");
    let two = String::from_utf8_lossy(&repro(&["serve", "--daemon", "--workers", "2"]).stderr)
        .into_owned();
    assert!(two.contains("--workers: the daemon serves one request at a time"), "{two}");
}

#[test]
fn an_experiment_prints_its_table() {
    let out = repro(&["table2"]);
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stdout).contains("Table 2"));
}
