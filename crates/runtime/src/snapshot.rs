//! Crash-safe checkpoint/restore of daemon state.
//!
//! A [`DaemonSnapshot`] persists everything the pool needs to make
//! **identical admission and breaker decisions** after a restart: the
//! sequence cursor, the [`ServeCounters`], every circuit breaker's full
//! state (window, trip count, cooldown position — the jitter stream
//! position rides on the trip count, so replayed cooldowns land on the
//! same jittered targets), quarantine strikes, and the hierarchy-cache
//! metadata (entries restore *cold* — identity and counters, not
//! matrices).
//!
//! The format is deliberately primitive — a versioned line-oriented
//! text file, one record per line — because the failure mode that
//! matters is a daemon killed **mid-write**:
//!
//! * floats are serialized as their IEEE-754 bit patterns in hex, so a
//!   read-back is bit-identical (no decimal round-trip);
//! * strings are percent-escaped so class names can never smuggle a
//!   delimiter;
//! * the final line carries an FNV-1a checksum over everything before
//!   it; a torn or corrupted file fails with a typed
//!   [`SnapshotError`] instead of restoring garbage;
//! * writes go to a temp file in the same directory followed by an
//!   atomic rename **and a parent-directory fsync** — without the
//!   directory sync the rename itself is not durable across power
//!   loss — so the published path always holds either the old snapshot
//!   or the new one, never a tear;
//! * publication rotates between two generation slots (see
//!   [`SnapshotStore`]): a crash while publishing generation *n* can at
//!   worst tear the slot holding generation *n − 2*, never the newest
//!   good snapshot, and recovery quarantines undecodable slots and
//!   falls back to the previous good generation.
//!
//! Every byte flows through the [`Storage`](crate::storage::Storage)
//! choke point, so the whole path is exercised under deterministic
//! fault injection (`repro torture`).

use std::fmt;
use std::path::{Path, PathBuf};

use fp16mg_fp::Fnv1a;

use crate::storage::{retry_no_space, Storage, StorageError};

use crate::breaker::{BreakerExport, BreakerState};
use crate::cache::{CacheEntryMeta, CacheKey, CacheStats};
use crate::pool::{PoolState, ServeCounters};

/// Snapshot format version understood by this build. Version 2 has the
/// records of version 1; what changed is the meaning of a cache entry's
/// `fingerprint` (the eight-lane hash of `fp16mg_fp::LaneHash`, no longer a
/// byte-wise FNV-1a chain), so a v1 fingerprint can never match and a v1
/// file is refused ([`SnapshotError::UnsupportedVersion`]) rather than
/// restored into entries that would silently never hit.
pub const SNAPSHOT_VERSION: u32 = 2;

/// Magic token opening every daemon snapshot file.
const MAGIC: &str = "fp16mg-snapshot";

/// Magic token opening every simulation snapshot file.
const SIM_MAGIC: &str = "fp16mg-sim-snapshot";

/// Why a snapshot could not be written or restored.
#[derive(Clone, Debug, PartialEq)]
pub enum SnapshotError {
    /// Filesystem failure.
    Io {
        /// The operation that failed (`"create"`, `"rename"`, ...).
        op: &'static str,
        /// The OS error message.
        message: String,
    },
    /// The file does not start with the snapshot magic — not a
    /// snapshot (or the header itself was torn).
    BadMagic {
        /// What the first line actually held.
        found: String,
    },
    /// The snapshot was written by an incompatible format version.
    UnsupportedVersion {
        /// The version the file declares.
        found: u32,
    },
    /// The checksum trailer does not match the body — corruption.
    ChecksumMismatch {
        /// Checksum recorded in the file.
        expected: u64,
        /// Checksum recomputed over the body.
        actual: u64,
    },
    /// The file ends without a checksum trailer — a torn write.
    Truncated,
    /// A record line failed to parse.
    Parse {
        /// 1-based line number.
        line: usize,
        /// What went wrong.
        message: String,
    },
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Io { op, message } => write!(f, "snapshot {op} failed: {message}"),
            SnapshotError::BadMagic { found } => {
                write!(f, "not a snapshot file (first line {found:?})")
            }
            SnapshotError::UnsupportedVersion { found } => {
                write!(
                    f,
                    "snapshot version {found} unsupported (this build reads v{SNAPSHOT_VERSION})"
                )
            }
            SnapshotError::ChecksumMismatch { expected, actual } => write!(
                f,
                "snapshot checksum mismatch: recorded {expected:016x}, recomputed {actual:016x}"
            ),
            SnapshotError::Truncated => {
                write!(f, "snapshot truncated: no checksum trailer (torn write)")
            }
            SnapshotError::Parse { line, message } => {
                write!(f, "snapshot parse error at line {line}: {message}")
            }
        }
    }
}

impl std::error::Error for SnapshotError {}

/// The complete durable state of a [`Daemon`](crate::Daemon).
#[derive(Clone, Debug, PartialEq)]
pub struct DaemonSnapshot {
    /// Requests acknowledged (outcomes returned) over the daemon's
    /// lifetime; the replay cursor after a crash.
    pub seq: u64,
    /// The pool's exported decision state.
    pub state: PoolState,
}

// ---------------------------------------------------------------------
// escaping and primitive encoding

/// Percent-escapes anything outside `[A-Za-z0-9_.-]` so class names
/// can never contain a field or line delimiter.
fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for b in s.bytes() {
        if b.is_ascii_alphanumeric() || b == b'_' || b == b'.' || b == b'-' {
            out.push(b as char);
        } else {
            out.push_str(&format!("%{b:02X}"));
        }
    }
    if out.is_empty() {
        out.push_str("%00");
    }
    out
}

fn unesc(s: &str, line: usize) -> Result<String, SnapshotError> {
    let parse = |m: String| SnapshotError::Parse { line, message: m };
    let mut bytes = Vec::with_capacity(s.len());
    let raw = s.as_bytes();
    let mut i = 0;
    while i < raw.len() {
        if raw[i] == b'%' {
            let hex =
                raw.get(i + 1..i + 3).ok_or_else(|| parse(format!("dangling escape in {s:?}")))?;
            let hex =
                std::str::from_utf8(hex).map_err(|_| parse(format!("bad escape in {s:?}")))?;
            let b = u8::from_str_radix(hex, 16)
                .map_err(|_| parse(format!("bad escape %{hex} in {s:?}")))?;
            bytes.push(b);
            i += 3;
        } else {
            bytes.push(raw[i]);
            i += 1;
        }
    }
    if bytes == [0u8] {
        bytes.clear();
    }
    String::from_utf8(bytes).map_err(|_| parse(format!("escaped string {s:?} is not UTF-8")))
}

fn state_label(s: BreakerState) -> &'static str {
    match s {
        BreakerState::Closed => "closed",
        BreakerState::Open => "open",
        BreakerState::HalfOpen => "half-open",
    }
}

/// One record line under decode: its 1-based line number and the tokens
/// not yet consumed. Every getter names the field it wants, so a short
/// or malformed line fails as `Parse { line, "missing field: x" }` /
/// `"bad x: .."` whichever snapshot kind it belongs to.
struct Record<'a> {
    line: usize,
    toks: std::str::SplitWhitespace<'a>,
}

impl<'a> Record<'a> {
    fn err(&self, message: String) -> SnapshotError {
        SnapshotError::Parse { line: self.line, message }
    }

    /// The next whitespace token.
    fn tok(&mut self, what: &str) -> Result<&'a str, SnapshotError> {
        self.toks.next().ok_or_else(|| self.err(format!("missing field: {what}")))
    }

    fn parsed<T>(
        &mut self,
        what: &str,
        parse: impl FnOnce(&str) -> Option<T>,
    ) -> Result<T, SnapshotError> {
        let s = self.tok(what)?;
        parse(s).ok_or_else(|| self.err(format!("bad {what}: {s:?}")))
    }

    fn u64(&mut self, what: &str) -> Result<u64, SnapshotError> {
        self.parsed(what, |s| s.parse().ok())
    }

    fn usize(&mut self, what: &str) -> Result<usize, SnapshotError> {
        self.parsed(what, |s| s.parse().ok())
    }

    fn hex(&mut self, what: &str) -> Result<u64, SnapshotError> {
        self.parsed(what, |s| u64::from_str_radix(s, 16).ok())
    }

    /// f64 as its IEEE-754 bit pattern — bit-identical round trip.
    fn f64_bits(&mut self, what: &str) -> Result<f64, SnapshotError> {
        let s = self.tok(what)?;
        u64::from_str_radix(s, 16)
            .map(f64::from_bits)
            .map_err(|_| self.err(format!("bad {what} bit pattern: {s:?}")))
    }

    /// A percent-escaped string.
    fn label(&mut self, what: &str) -> Result<String, SnapshotError> {
        unesc(self.tok(what)?, self.line)
    }

    /// Unknown records are an error under v1: the version gate is the
    /// compatibility mechanism, not silent skipping.
    fn unknown(&self, tag: &str) -> SnapshotError {
        self.err(format!("unknown record {tag:?}"))
    }
}

/// The records of a validated body, header skipped: each line's tag and
/// a cursor over the rest of it.
fn records(body: &str) -> impl Iterator<Item = Result<(&str, Record<'_>), SnapshotError>> {
    body.lines().enumerate().skip(1).map(|(idx, raw)| {
        let mut rec = Record { line: idx + 1, toks: raw.split_whitespace() };
        Ok((rec.tok("record tag")?, rec))
    })
}

/// The body of a snapshot under encode: header line first, one record
/// per [`line`](Body::line), checksum trailer appended by
/// [`finish`](Body::finish).
struct Body(String);

impl Body {
    fn new(magic: &str) -> Self {
        Body(format!("{magic} v{SNAPSHOT_VERSION}\n"))
    }

    fn line(&mut self, record: fmt::Arguments<'_>) {
        fmt::Write::write_fmt(&mut self.0, record).expect("writing to a String cannot fail");
        self.0.push('\n');
    }

    fn finish(self) -> String {
        let sum = checksum_of(&self.0);
        format!("{}checksum {sum:016x}\n", self.0)
    }
}

fn checksum_of(body: &str) -> u64 {
    let mut h = Fnv1a::new();
    for b in body.bytes() {
        h.write_u8(b);
    }
    h.finish()
}

/// Validates the common snapshot frame — magic header, version,
/// checksum trailer — and returns the checksummed body (header line
/// included).
fn frame_body<'a>(text: &'a str, magic: &str) -> Result<&'a str, SnapshotError> {
    // Locate the trailer first: everything before it is the
    // checksummed body.
    let trailer_at = text.trim_end_matches('\n').rfind('\n').map(|i| i + 1).unwrap_or(0);
    let trailer = text[trailer_at..].trim_end();
    let Some(sum_hex) = trailer.strip_prefix("checksum ") else {
        // Distinguish "not a snapshot at all" from "snapshot torn
        // before the trailer" by checking the magic up front.
        if !text.starts_with(magic) {
            let found = text.lines().next().unwrap_or("").to_string();
            return Err(SnapshotError::BadMagic { found });
        }
        return Err(SnapshotError::Truncated);
    };
    let body = &text[..trailer_at];
    let trailer_line = body.lines().count() + 1;
    let expected = u64::from_str_radix(sum_hex, 16).map_err(|_| SnapshotError::Parse {
        line: trailer_line,
        message: format!("bad checksum: {sum_hex:?}"),
    })?;
    let actual = checksum_of(body);
    if expected != actual {
        return Err(SnapshotError::ChecksumMismatch { expected, actual });
    }
    let header = body.lines().next().ok_or(SnapshotError::Truncated)?;
    let Some(version) = header.strip_prefix(magic).and_then(|r| r.trim().strip_prefix('v')) else {
        return Err(SnapshotError::BadMagic { found: header.to_string() });
    };
    let version: u32 = version.trim().parse().map_err(|_| SnapshotError::Parse {
        line: 1,
        message: format!("bad version in header {header:?}"),
    })?;
    if version != SNAPSHOT_VERSION {
        return Err(SnapshotError::UnsupportedVersion { found: version });
    }
    Ok(body)
}

/// `path` with `suffix` appended to its file name.
fn with_suffix(path: &Path, suffix: &str) -> PathBuf {
    let mut name = path.file_name().map(|n| n.to_os_string()).unwrap_or_default();
    name.push(suffix);
    path.with_file_name(name)
}

/// Maps a [`StorageError`] into the snapshot error space, preserving
/// the failing operation.
fn storage_io(err: StorageError) -> SnapshotError {
    SnapshotError::Io { op: err.op(), message: err.to_string() }
}

/// Writes snapshot text atomically through a [`Storage`] backend: temp
/// file in the target's directory, write, fsync, rename over the final
/// path, then **fsync the parent directory** so the rename survives
/// power loss. A transient out-of-space failure anywhere in the
/// sequence rewinds (removing the temp file) and retries the whole
/// publication ([`retry_no_space`]).
fn write_atomic_with(storage: &dyn Storage, path: &Path, text: &str) -> Result<(), SnapshotError> {
    let dir = path.parent().filter(|d| !d.as_os_str().is_empty());
    if let Some(dir) = dir {
        storage.create_dir_all(dir).map_err(storage_io)?;
    }
    let tmp = with_suffix(path, ".tmp");
    retry_no_space(
        || {
            let mut file = storage.create(&tmp)?;
            file.write_all(text.as_bytes())?;
            file.fsync()?;
            drop(file);
            storage.rename(&tmp, path)?;
            dir.map_or(Ok(()), |dir| storage.sync_dir(dir))
        },
        || {
            if storage.exists(&tmp) {
                let _ = storage.remove(&tmp);
            }
            Ok(())
        },
    )
    .map_err(storage_io)
}

// ---------------------------------------------------------------------

impl DaemonSnapshot {
    /// Serializes to the versioned text format, checksum trailer
    /// included.
    pub fn encode(&self) -> String {
        let mut body = Body::new(MAGIC);
        body.line(format_args!("seq {}", self.seq));
        let c = &self.state.counters;
        body.line(format_args!(
            "counters {} {} {} {} {} {} {} {} {}",
            c.submitted,
            c.admitted,
            c.rejected_queue_full,
            c.rejected_shed,
            c.rejected_breaker,
            c.rejected_quarantined,
            c.degraded,
            c.completed_ok,
            c.completed_err,
        ));
        for (class, e) in &self.state.breakers {
            let window: String = if e.window.is_empty() {
                "-".to_string()
            } else {
                e.window.iter().map(|&f| if f { '1' } else { '0' }).collect()
            };
            body.line(format_args!(
                "breaker {} {} {} {} {:016x} {} {} {} {}",
                esc(class),
                state_label(e.state),
                window,
                e.trips,
                e.last_failure_rate.to_bits(),
                e.attempts_while_open,
                e.cooldown_target,
                e.probes_outstanding,
                e.probe_successes_seen,
            ));
        }
        for (name, strikes) in &self.state.quarantine {
            body.line(format_args!("quarantine {} {strikes}", esc(name)));
        }
        let s = &self.state.cache_stats;
        body.line(format_args!(
            "cache-stats {} {} {} {} {}",
            s.hits, s.rescaled_hits, s.drift_invalidations, s.rebuilds, s.evictions,
        ));
        for m in &self.state.cache_entries {
            let k = &m.key;
            body.line(format_args!(
                "cache-entry {} {} {} {} {} {} {:016x} {} {} {}",
                esc(&k.class),
                k.dims.0,
                k.dims.1,
                k.dims.2,
                k.components,
                k.taps,
                m.fingerprint,
                m.hits,
                m.rescaled_hits,
                m.builds,
            ));
        }
        body.finish()
    }

    /// Parses the text format, verifying magic, version, and checksum.
    ///
    /// # Errors
    /// Typed [`SnapshotError`] on any structural problem; a file with
    /// no checksum trailer is [`SnapshotError::Truncated`] (the torn
    /// write signature).
    pub fn decode(text: &str) -> Result<Self, SnapshotError> {
        let mut seq = 0u64;
        let mut state = PoolState::default();
        for record in records(frame_body(text, MAGIC)?) {
            let (tag, mut r) = record?;
            match tag {
                "seq" => seq = r.u64("seq")?,
                "counters" => {
                    state.counters = ServeCounters {
                        submitted: r.u64("submitted")?,
                        admitted: r.u64("admitted")?,
                        rejected_queue_full: r.u64("rejected_queue_full")?,
                        rejected_shed: r.u64("rejected_shed")?,
                        rejected_breaker: r.u64("rejected_breaker")?,
                        rejected_quarantined: r.u64("rejected_quarantined")?,
                        degraded: r.u64("degraded")?,
                        completed_ok: r.u64("completed_ok")?,
                        completed_err: r.u64("completed_err")?,
                    };
                }
                "breaker" => {
                    let class = r.label("class")?;
                    let breaker_state = match r.tok("state")? {
                        "closed" => BreakerState::Closed,
                        "open" => BreakerState::Open,
                        "half-open" => BreakerState::HalfOpen,
                        other => return Err(r.err(format!("unknown breaker state {other:?}"))),
                    };
                    let window = match r.tok("window")? {
                        "-" => Vec::new(),
                        bits => bits
                            .chars()
                            .map(|ch| match ch {
                                '0' => Ok(false),
                                '1' => Ok(true),
                                other => Err(r.err(format!("bad window bit {other:?}"))),
                            })
                            .collect::<Result<_, _>>()?,
                    };
                    let export = BreakerExport {
                        state: breaker_state,
                        window,
                        trips: r.usize("trips")?,
                        last_failure_rate: r.f64_bits("last_failure_rate")?,
                        attempts_while_open: r.usize("attempts_while_open")?,
                        cooldown_target: r.usize("cooldown_target")?,
                        probes_outstanding: r.usize("probes_outstanding")?,
                        probe_successes_seen: r.usize("probe_successes_seen")?,
                    };
                    state.breakers.push((class, export));
                }
                "quarantine" => {
                    let name = r.label("name")?;
                    state.quarantine.push((name, r.usize("strikes")?));
                }
                "cache-stats" => {
                    state.cache_stats = CacheStats {
                        hits: r.u64("hits")?,
                        rescaled_hits: r.u64("rescaled_hits")?,
                        drift_invalidations: r.u64("drift_invalidations")?,
                        rebuilds: r.u64("rebuilds")?,
                        evictions: r.u64("evictions")?,
                    };
                }
                "cache-entry" => {
                    let class = r.label("class")?;
                    let dims = (r.usize("nx")?, r.usize("ny")?, r.usize("nz")?);
                    let components = r.usize("components")?;
                    let taps = r.usize("taps")?;
                    state.cache_entries.push(CacheEntryMeta {
                        key: CacheKey { class, dims, components, taps },
                        fingerprint: r.hex("fingerprint")?,
                        hits: r.u64("hits")?,
                        rescaled_hits: r.u64("rescaled_hits")?,
                        builds: r.u64("builds")?,
                    });
                }
                other => return Err(r.unknown(other)),
            }
        }
        Ok(DaemonSnapshot { seq, state })
    }
}

// ---------------------------------------------------------------------
// simulation snapshots

/// Reuse-decision and recovery tallies of a simulation run. Part of
/// the durable state so a resumed run's final report covers the whole
/// trajectory, not just the post-crash tail.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SimCounters {
    /// Steps that kept the cached hierarchy untouched.
    pub keep: u64,
    /// Steps that rescaled the cached hierarchy in place.
    pub rescale: u64,
    /// Steps that rebuilt the Galerkin chain from scratch (the initial
    /// setup counts as one).
    pub rebuild: u64,
    /// Sentinel-verified level repairs across all steps.
    pub repairs: u64,
    /// Rollback-and-rebuild recoveries (step rewound to last good
    /// state after the in-step ladder was exhausted).
    pub rollbacks: u64,
}

/// The durable state of a time-stepping simulation between steps: the
/// cursor (which step completed, which step the cached chain and its
/// audit baseline were built at), the carried solution, and the
/// decision tallies.
///
/// Everything else the driver needs — the operator trajectory, the
/// chain itself, the range-audit baseline — is a pure function of
/// `(problem, size, step)`, so it is *reconstructed* on resume rather
/// than persisted, and the resumed run is bit-identical to an
/// uninterrupted one.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SimSnapshot {
    /// Problem name (the trajectory generator's identity).
    pub problem: String,
    /// Grid extent the trajectory was built at.
    pub size: usize,
    /// Total steps the run was asked for.
    pub steps: u64,
    /// Convergence tolerance.
    pub tol: f64,
    /// Chaos-schedule seed (0 when chaos is off).
    pub seed: u64,
    /// Last *completed* step (the snapshot is written after a step
    /// commits; resume continues at `step + 1`).
    pub step: u64,
    /// Step whose operator the cached Galerkin chain was built from.
    pub chain_step: u64,
    /// Step whose operator currently occupies the chain's finest level
    /// (differs from `chain_step` after a rescale-in-place).
    pub finest_step: u64,
    /// Final residual of the last completed step.
    pub last_resid: f64,
    /// Decision and recovery tallies so far.
    pub counters: SimCounters,
    /// The last committed solution vector (the implicit-step coupling
    /// for step `step + 1`).
    pub x: Vec<f64>,
    /// How many contiguous scalar fields `x` is numbered as: the
    /// problem's component count (`fp16mg_grid::Grid3::unknown`). A
    /// vector-PDE snapshot written before unknowns were numbered
    /// component-major has no such record and decodes as 1, which is how
    /// the driver tells its cell-major `x` apart and refuses it; scalar
    /// snapshots are the same bytes in both numberings.
    pub fields: usize,
}

impl SimSnapshot {
    /// Serializes to the versioned text format, checksum trailer
    /// included.
    pub fn encode(&self) -> String {
        let mut body = Body::new(SIM_MAGIC);
        body.line(format_args!("problem {}", esc(&self.problem)));
        body.line(format_args!(
            "config {} {} {:016x} {:016x}",
            self.size,
            self.steps,
            self.tol.to_bits(),
            self.seed,
        ));
        body.line(format_args!("cursor {} {} {}", self.step, self.chain_step, self.finest_step));
        body.line(format_args!("resid {:016x}", self.last_resid.to_bits()));
        let c = &self.counters;
        body.line(format_args!(
            "counters {} {} {} {} {}",
            c.keep, c.rescale, c.rebuild, c.repairs, c.rollbacks,
        ));
        let mut x = match self.fields {
            1 => format!("x {}", self.x.len()),
            r => format!("x-fields {r} {}", self.x.len()),
        };
        for v in &self.x {
            x.push_str(&format!(" {:016x}", v.to_bits()));
        }
        body.line(format_args!("{x}"));
        body.finish()
    }

    /// Parses the text format, verifying magic, version, and checksum.
    ///
    /// # Errors
    /// Typed [`SnapshotError`] on any structural problem; a file with
    /// no checksum trailer is [`SnapshotError::Truncated`].
    pub fn decode(text: &str) -> Result<Self, SnapshotError> {
        let mut snap = SimSnapshot { fields: 1, ..SimSnapshot::default() };
        for record in records(frame_body(text, SIM_MAGIC)?) {
            let (tag, mut r) = record?;
            match tag {
                "problem" => snap.problem = r.label("problem")?,
                "config" => {
                    snap.size = r.usize("size")?;
                    snap.steps = r.u64("steps")?;
                    snap.tol = r.f64_bits("tol")?;
                    snap.seed = r.hex("seed")?;
                }
                "cursor" => {
                    snap.step = r.u64("step")?;
                    snap.chain_step = r.u64("chain_step")?;
                    snap.finest_step = r.u64("finest_step")?;
                }
                "resid" => snap.last_resid = r.f64_bits("resid")?,
                "counters" => {
                    snap.counters = SimCounters {
                        keep: r.u64("keep")?,
                        rescale: r.u64("rescale")?,
                        rebuild: r.u64("rebuild")?,
                        repairs: r.u64("repairs")?,
                        rollbacks: r.u64("rollbacks")?,
                    };
                }
                "x" | "x-fields" => {
                    if tag == "x-fields" {
                        snap.fields = r.usize("x fields")?;
                    }
                    let len = r.usize("x length")?;
                    snap.x = (0..len)
                        .map(|i| r.f64_bits(&format!("x[{i}]")))
                        .collect::<Result<_, _>>()?;
                    if r.toks.next().is_some() {
                        return Err(
                            r.err(format!("x record longer than its declared length {len}"))
                        );
                    }
                }
                other => return Err(r.unknown(other)),
            }
        }
        Ok(snap)
    }
}

// ---------------------------------------------------------------------
// A/B generation rotation

/// A/B-rotated snapshot publication and recovery.
///
/// A single snapshot file is a durability hazard: a torn write while
/// republishing destroys the only copy. The store rotates publications
/// between two sibling slots (`<base>.a` for even generations,
/// `<base>.b` for odd), so the slot being overwritten always holds the
/// *oldest* of the two retained generations — a crash mid-publish can
/// never touch the newest good snapshot.
///
/// Recovery scans both slots, quarantines every present-but-
/// undecodable file (renaming it to `<path>.quarantine` and fsyncing
/// the directory, so the evidence survives without ever being mistaken
/// for a live snapshot again), and hands the decodable candidates to
/// the caller, who picks by its own ordering (daemon `seq`, simulation
/// `step`).
#[derive(Clone, Debug)]
pub struct SnapshotStore {
    base: PathBuf,
}

/// What [`SnapshotStore::recover`] found on disk.
#[derive(Debug)]
pub struct Recovery<T> {
    /// Every slot that decoded cleanly, with the path it came from.
    pub candidates: Vec<(PathBuf, T)>,
    /// Every present-but-undecodable slot, with the decode error. The
    /// files were renamed to `<path>.quarantine`.
    pub quarantined: Vec<(PathBuf, SnapshotError)>,
}

impl SnapshotStore {
    /// A store whose rotation slots are `<base>.a` and `<base>.b`.
    pub fn new(base: impl Into<PathBuf>) -> Self {
        SnapshotStore { base: base.into() }
    }

    /// The slot a given publication generation lands in.
    pub fn slot_for(&self, generation: u64) -> PathBuf {
        with_suffix(&self.base, if generation.is_multiple_of(2) { ".a" } else { ".b" })
    }

    /// Publishes snapshot text into the slot for `generation` (atomic
    /// write + rename + directory fsync) and returns the slot path.
    ///
    /// # Errors
    /// Typed I/O failures per operation.
    pub fn publish(
        &self,
        storage: &dyn Storage,
        generation: u64,
        text: &str,
    ) -> Result<PathBuf, SnapshotError> {
        let slot = self.slot_for(generation);
        write_atomic_with(storage, &slot, text)?;
        Ok(slot)
    }

    /// Scans both slots, decoding each present file with
    /// `decode`. Undecodable files are quarantined (renamed to
    /// `<path>.quarantine`, directory fsynced) and reported; decodable
    /// ones are returned for the caller to rank.
    ///
    /// # Errors
    /// Only a failing *read* operation (not a failing decode) aborts
    /// recovery — decode failures are the condition the store exists
    /// to survive.
    pub fn recover<T>(
        &self,
        storage: &dyn Storage,
        decode: &dyn Fn(&str) -> Result<T, SnapshotError>,
    ) -> Result<Recovery<T>, SnapshotError> {
        let mut out = Recovery { candidates: Vec::new(), quarantined: Vec::new() };
        for path in [self.slot_for(0), self.slot_for(1)] {
            if !storage.exists(&path) {
                continue;
            }
            let bytes = storage.read(&path).map_err(storage_io)?;
            match decode(&String::from_utf8_lossy(&bytes)) {
                Ok(value) => out.candidates.push((path, value)),
                Err(err) => {
                    Self::quarantine(storage, &path);
                    out.quarantined.push((path, err));
                }
            }
        }
        Ok(out)
    }

    /// Best-effort quarantine: move the corrupt file aside so it is
    /// never read as a snapshot again, keeping it for post-mortems.
    fn quarantine(storage: &dyn Storage, path: &Path) {
        if storage.rename(path, &with_suffix(path, ".quarantine")).is_ok() {
            if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
                let _ = storage.sync_dir(dir);
            }
        }
    }
}
