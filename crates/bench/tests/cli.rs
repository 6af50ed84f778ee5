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
        &["table2", "--size", "0"],
        &["fig8", "--size", "8", "--smoother", "bogus"],
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
fn an_experiment_prints_its_table() {
    let out = repro(&["table2"]);
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stdout).contains("Table 2"));
}
