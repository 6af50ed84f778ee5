//! Child processes: building `repro`, unique scratch directories, and a
//! process handle that can be read with a deadline and never outlives
//! the harness.

use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, ExitStatus, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver};
use std::thread::JoinHandle;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

/// Everything the harness writes lives under here (relative to the root
/// of the checkout, the working directory the contract fixes).
pub const OUT_DIR: &str = "benchmark/out";

fn target_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from)
}

pub fn repro_path() -> PathBuf {
    target_dir().join("release").join("repro")
}

/// Builds the `repro` CLI the two child-process workloads drive. Cargo's
/// own output goes to stderr so that stdout stays the harness's.
///
/// # Errors
/// Cargo could not be run, or the build failed.
pub fn build_repro() -> Result<(), String> {
    let status = Command::new("cargo")
        .args(["build", "--release", "--offline", "--quiet", "-p", "fp16mg-bench"])
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building repro failed: {status}"));
    }
    if !repro_path().is_file() {
        return Err(format!("{} is missing after the build", repro_path().display()));
    }
    Ok(())
}

/// A directory no other run, workload or repetition shares: pid, a
/// process-wide counter and the clock make the name. Removed on drop.
/// The path stays relative and short, which keeps a Unix socket inside it
/// under the 108-byte `sun_path` limit wherever the checkout lives.
pub struct Scratch {
    path: PathBuf,
}

impl Scratch {
    /// # Errors
    /// The directory could not be created.
    pub fn new() -> Result<Scratch, String> {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let nanos = SystemTime::now().duration_since(UNIX_EPOCH).map_or(0, |d| d.subsec_nanos());
        let name =
            format!("t{}-{}-{nanos}", std::process::id(), COUNTER.fetch_add(1, Ordering::Relaxed));
        let path = Path::new(OUT_DIR).join("tmp").join(name);
        std::fs::create_dir_all(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        Ok(Scratch { path })
    }

    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

/// A running child. Its standard output is read by a thread that stamps
/// each line on arrival; dropping the handle kills the child if it still
/// runs, reaps it and joins the reader.
pub struct Proc {
    child: Child,
    lines: Receiver<(Instant, String)>,
    reader: Option<JoinHandle<()>>,
    pub spawned: Instant,
}

impl Proc {
    /// # Errors
    /// The program could not be started.
    pub fn spawn(program: &Path, args: &[String]) -> Result<Proc, String> {
        let spawned = Instant::now();
        let mut child = Command::new(program)
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", program.display()))?;
        let stdout = child.stdout.take().expect("stdout was piped");
        let (tx, lines) = mpsc::channel();
        let reader = std::thread::spawn(move || {
            for line in BufReader::new(stdout).lines().map_while(Result::ok) {
                if tx.send((Instant::now(), line)).is_err() {
                    break;
                }
            }
        });
        Ok(Proc { child, lines, reader: Some(reader), spawned })
    }

    /// The next output line and when it arrived; `None` once the child
    /// closed its output or `deadline` passed.
    pub fn next_line(&self, deadline: Instant) -> Option<(Instant, String)> {
        self.lines.recv_timeout(deadline.saturating_duration_since(Instant::now())).ok()
    }

    /// Waits for the child to end by itself; `None` if it has not by
    /// `deadline` (the caller then drops the handle, which kills it).
    pub fn wait_until(&mut self, deadline: Instant) -> Option<ExitStatus> {
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) => return Some(status),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(1));
                }
                _ => return None,
            }
        }
    }
}

impl Drop for Proc {
    fn drop(&mut self) {
        if !matches!(self.child.try_wait(), Ok(Some(_))) {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
        if let Some(reader) = self.reader.take() {
            let _ = reader.join();
        }
    }
}
