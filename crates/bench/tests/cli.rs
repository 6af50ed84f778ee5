//! The `repro` command-line contract: bad input is a one-line error plus
//! the usage on stderr, nothing on stdout and exit code 2 — decided
//! before any experiment prints its header.

use std::path::Path;
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
        // `loadgen --soak` is the one kill/restart soak; `simulate` takes
        // neither `--soak` nor `--pace-ms`.
        &["simulate", "--soak"],
        &["simulate", "--pace-ms", "5"],
        // A soak's kill must land before its last request.
        &["loadgen", "--soak", "--requests", "6", "--kill-after", "6"],
        &["loadgen", "--soak", "--requests", "6", "--kill-after", "7"],
        &["loadgen", "--soak", "--kill-after", "0"],
        &["loadgen", "--soak", "--requests", "3"],
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

#[test]
fn a_second_simulate_run_resumes_from_the_snapshot_dir() {
    let dir = std::env::temp_dir().join(format!("repro-cli-resume-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let run = || {
        let d = dir.to_str().expect("utf-8 temp path");
        let out = repro(&[
            "simulate",
            "--problem",
            "oil",
            "--steps",
            "2",
            "--size",
            "6",
            "--snapshot-dir",
            d,
        ]);
        let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
        assert_eq!(out.status.code(), Some(0), "{stdout}{}", String::from_utf8_lossy(&out.stderr));
        stdout
    };
    let trail = |dir: &Path| std::fs::read(dir.join("sim-oil.trail.log")).expect("trail written");

    let cold = run();
    assert!(cold.contains("sim: cold start"), "{cold}");
    assert!(cold.contains("done step=0\n") && cold.contains("done step=1\n"), "{cold}");
    let first = trail(&dir);

    let resumed = run();
    assert!(resumed.contains("sim: resumed step=2"), "{resumed}");
    assert!(!resumed.contains("done step="), "{resumed}");
    assert_eq!(trail(&dir), first, "a resume past the last step appends nothing");
    let _ = std::fs::remove_dir_all(&dir);
}
