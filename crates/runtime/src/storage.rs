//! Storage choke point: one audited trait for every durable byte, a
//! production [`RealStorage`] backend, and a deterministic
//! [`FaultStorage`] that injects storage faults SQLite-test-VFS style.
//!
//! Everything the runtime persists — daemon checkpoints, simulation
//! snapshots, write-ahead trails — flows through the [`Storage`] trait.
//! That gives the durability stack a single seam where faults can be
//! injected deterministically and recovery can be proven, instead of a
//! scatter of `std::fs` calls that are only ever tested on the happy
//! path.
//!
//! [`FaultStorage`] models a power loss the way crash-consistency
//! testers do (the SQLite test VFS, ALICE, CrashMonkey):
//!
//! - **Dirty pages**: written data lives in a volatile page cache until
//!   `fsync` copies it to the durable image. Power loss drops everything
//!   that was never fsynced.
//! - **Volatile directory entries**: `create`, `rename` and `remove`
//!   change the *live* namespace immediately, but the *durable*
//!   namespace only after [`Storage::sync_dir`] on the parent. A crash
//!   before the directory sync reverts the rename — which is exactly
//!   the bug class that makes "write temp + rename" publication unsafe
//!   without a following directory fsync.
//!
//! Faults are scheduled by **global operation index**: every counting
//! operation (create/append/write/fsync/rename/remove/truncate/
//! sync-dir/read) increments one shared counter and is recorded in an
//! op log, so a harness can run a clean pass, read the log, and then
//! re-run with a fault planted at any specific operation. The schedule
//! is a plain map from index to [`Fault`] — the
//! [`FaultSchedule`](crate::fault::FaultSchedule) every injector in this
//! crate shares; there is no randomness inside the storage layer itself.

use std::collections::BTreeMap;
use std::fmt;
use std::fs;
use std::io::{Read as _, Seek as _, SeekFrom, Write as _};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

use crate::fault::FaultSchedule;

/// How many times a durable append or atomic publish is retried when
/// the backend reports a transient out-of-space condition.
pub const ENOSPC_RETRIES: u32 = 3;

/// Typed error for every operation on a [`Storage`] backend.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StorageError {
    /// The backend is out of space. Transient by contract: callers with
    /// a retry budget (see [`append_durable`]) may rewind and retry up
    /// to [`ENOSPC_RETRIES`] times before surfacing the error.
    NoSpace {
        /// Operation that hit the condition (`"write"`, `"create"`, …).
        op: &'static str,
        /// Path the operation was addressing.
        path: String,
    },
    /// A simulated power loss happened at or before this operation.
    /// Every subsequent operation fails the same way until the harness
    /// acknowledges the crash via [`FaultStorage::power_loss`].
    Crashed {
        /// Operation that observed the crash.
        op: &'static str,
        /// Path the operation was addressing.
        path: String,
    },
    /// Any other I/O failure, with the backend's message preserved.
    Io {
        /// Operation that failed.
        op: &'static str,
        /// Path the operation was addressing.
        path: String,
        /// Human-readable backend error.
        message: String,
    },
}

impl StorageError {
    /// The operation name carried by the error, for logs and tests.
    pub fn op(&self) -> &'static str {
        match self {
            StorageError::NoSpace { op, .. }
            | StorageError::Crashed { op, .. }
            | StorageError::Io { op, .. } => op,
        }
    }

    /// True if this is the transient out-of-space condition.
    pub fn is_no_space(&self) -> bool {
        matches!(self, StorageError::NoSpace { .. })
    }
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::NoSpace { op, path } => {
                write!(f, "storage {op} on {path}: no space left on device")
            }
            StorageError::Crashed { op, path } => {
                write!(f, "storage {op} on {path}: simulated power loss")
            }
            StorageError::Io { op, path, message } => {
                write!(f, "storage {op} on {path}: {message}")
            }
        }
    }
}

impl std::error::Error for StorageError {}

/// An open writable file handle obtained from a [`Storage`] backend.
///
/// Handles are append-oriented: the runtime only ever creates a file
/// fresh or appends to the end, never seeks into the middle.
pub trait StorageFile: Send {
    /// Append the whole buffer to the file.
    fn write_all(&mut self, buf: &[u8]) -> Result<(), StorageError>;
    /// Flush the file's data to durable media.
    fn fsync(&mut self) -> Result<(), StorageError>;
}

/// The audited choke point for every durable byte.
///
/// The contract mirrors the POSIX subset the durability stack needs —
/// nothing more. All methods take `&self` so one backend can be shared
/// across threads behind an `Arc<dyn Storage>`.
pub trait Storage: fmt::Debug + Send + Sync {
    /// Create (or truncate) a file for writing.
    fn create(&self, path: &Path) -> Result<Box<dyn StorageFile>, StorageError>;
    /// Open a file for appending, creating it if absent.
    fn append(&self, path: &Path) -> Result<Box<dyn StorageFile>, StorageError>;
    /// Read the whole file.
    fn read(&self, path: &Path) -> Result<Vec<u8>, StorageError>;
    /// Atomically rename `from` to `to`. Durable only after
    /// [`Storage::sync_dir`] on the parent directory.
    fn rename(&self, from: &Path, to: &Path) -> Result<(), StorageError>;
    /// Remove a file.
    fn remove(&self, path: &Path) -> Result<(), StorageError>;
    /// Truncate a file to `len` bytes (used to rewind a partial append
    /// before an ENOSPC retry and to drop a torn final trail record).
    fn truncate(&self, path: &Path, len: u64) -> Result<(), StorageError>;
    /// Fsync a directory so the entries inside it (creates, renames,
    /// removes) survive power loss.
    fn sync_dir(&self, dir: &Path) -> Result<(), StorageError>;
    /// Current length of the file in bytes.
    fn len(&self, path: &Path) -> Result<u64, StorageError>;
    /// Whether the path currently exists (live view).
    fn exists(&self, path: &Path) -> bool;
    /// Create the directory and all missing parents.
    fn create_dir_all(&self, dir: &Path) -> Result<(), StorageError>;
}

fn map_io(op: &'static str, path: &Path, err: std::io::Error) -> StorageError {
    let path = path.display().to_string();
    // ENOSPC by raw errno: `ErrorKind::StorageFull` is not stable on
    // every toolchain this builds with.
    if err.raw_os_error() == Some(28) {
        StorageError::NoSpace { op, path }
    } else {
        StorageError::Io { op, path, message: err.to_string() }
    }
}

// ---------------------------------------------------------------------
// RealStorage
// ---------------------------------------------------------------------

/// Production backend: thin mapping onto `std::fs`.
#[derive(Debug, Clone, Copy, Default)]
pub struct RealStorage;

struct RealFile {
    file: fs::File,
    path: PathBuf,
}

impl StorageFile for RealFile {
    fn write_all(&mut self, buf: &[u8]) -> Result<(), StorageError> {
        self.file.write_all(buf).map_err(|e| map_io("write", &self.path, e))
    }

    fn fsync(&mut self) -> Result<(), StorageError> {
        self.file.sync_all().map_err(|e| map_io("fsync", &self.path, e))
    }
}

impl Storage for RealStorage {
    fn create(&self, path: &Path) -> Result<Box<dyn StorageFile>, StorageError> {
        let file = fs::File::create(path).map_err(|e| map_io("create", path, e))?;
        Ok(Box::new(RealFile { file, path: path.to_path_buf() }))
    }

    fn append(&self, path: &Path) -> Result<Box<dyn StorageFile>, StorageError> {
        let file = fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| map_io("append", path, e))?;
        Ok(Box::new(RealFile { file, path: path.to_path_buf() }))
    }

    fn read(&self, path: &Path) -> Result<Vec<u8>, StorageError> {
        fs::read(path).map_err(|e| map_io("read", path, e))
    }

    fn rename(&self, from: &Path, to: &Path) -> Result<(), StorageError> {
        fs::rename(from, to).map_err(|e| map_io("rename", from, e))
    }

    fn remove(&self, path: &Path) -> Result<(), StorageError> {
        fs::remove_file(path).map_err(|e| map_io("remove", path, e))
    }

    fn truncate(&self, path: &Path, len: u64) -> Result<(), StorageError> {
        let file = fs::OpenOptions::new()
            .write(true)
            .open(path)
            .map_err(|e| map_io("truncate", path, e))?;
        file.set_len(len).map_err(|e| map_io("truncate", path, e))?;
        file.sync_all().map_err(|e| map_io("truncate", path, e))?;
        // Double-check the rewind actually happened before the caller
        // re-appends: a silent partial truncate would corrupt the log.
        let mut f = fs::File::open(path).map_err(|e| map_io("truncate", path, e))?;
        let end = f.seek(SeekFrom::End(0)).map_err(|e| map_io("truncate", path, e))?;
        if end != len {
            return Err(StorageError::Io {
                op: "truncate",
                path: path.display().to_string(),
                message: format!("expected length {len}, found {end}"),
            });
        }
        let mut sink = Vec::new();
        drop(f.read_to_end(&mut sink));
        Ok(())
    }

    fn sync_dir(&self, dir: &Path) -> Result<(), StorageError> {
        let handle = fs::File::open(dir).map_err(|e| map_io("sync-dir", dir, e))?;
        handle.sync_all().map_err(|e| map_io("sync-dir", dir, e))
    }

    fn len(&self, path: &Path) -> Result<u64, StorageError> {
        fs::metadata(path).map(|m| m.len()).map_err(|e| map_io("len", path, e))
    }

    fn exists(&self, path: &Path) -> bool {
        path.exists()
    }

    fn create_dir_all(&self, dir: &Path) -> Result<(), StorageError> {
        fs::create_dir_all(dir).map_err(|e| map_io("create-dir", dir, e))
    }
}

// ---------------------------------------------------------------------
// FaultStorage
// ---------------------------------------------------------------------

/// A storage fault to inject at a scheduled operation index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Power loss at this operation: the op fails, every later op fails
    /// the same way, and all un-fsynced data plus all un-synced
    /// directory entries are dropped when [`FaultStorage::power_loss`]
    /// applies the dirty-page model.
    Crash,
    /// Torn write: only the first half of the buffer reaches the file,
    /// the partial data is forced durable (background writeback), and
    /// the machine loses power. Fires on `write` operations.
    TornWrite,
    /// `fsync` returns an error and the dirty pages are dropped —
    /// after a failed fsync nothing about the file's durable state can
    /// be trusted. Fires on `fsync` operations.
    FsyncFail,
    /// `fsync` returns `Ok` but persists nothing — the lying-fsync
    /// failure mode. Fires on `fsync` operations.
    SilentFsyncLoss,
    /// The next `count` write operations fail with out-of-space, then
    /// the condition clears (a transient burst a bounded retry should
    /// absorb). Fires on `write` operations.
    NoSpace {
        /// How many consecutive write operations report ENOSPC.
        count: u32,
    },
    /// The read returns the stored bytes with one bit flipped; the
    /// media itself stays intact (a transient controller/DMA error).
    /// Fires on `read` operations.
    CorruptRead {
        /// Which bit of the returned buffer to flip (taken modulo the
        /// buffer's bit length).
        bit: u64,
    },
}

/// Kind of a counting storage operation, as recorded in the op log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// `create` — open a file fresh for writing.
    Create,
    /// `append` — open a file for appending.
    Append,
    /// `write` — append a buffer through an open handle.
    Write,
    /// `fsync` — flush an open handle to durable media.
    Fsync,
    /// `rename` — atomically rename a file.
    Rename,
    /// `remove` — delete a file.
    Remove,
    /// `truncate` — cut a file to a given length.
    Truncate,
    /// `sync-dir` — fsync a directory's entries.
    SyncDir,
    /// `read` — read a whole file back.
    Read,
}

impl OpKind {
    /// Stable lowercase label (used in logs and coverage keys).
    pub fn label(self) -> &'static str {
        match self {
            OpKind::Create => "create",
            OpKind::Append => "append",
            OpKind::Write => "write",
            OpKind::Fsync => "fsync",
            OpKind::Rename => "rename",
            OpKind::Remove => "remove",
            OpKind::Truncate => "truncate",
            OpKind::SyncDir => "sync-dir",
            OpKind::Read => "read",
        }
    }
}

impl fmt::Display for OpKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// One entry of the [`FaultStorage`] operation log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpRecord {
    /// Global operation index (the key fault schedules use).
    pub index: u64,
    /// What kind of operation it was.
    pub kind: OpKind,
    /// The path it addressed.
    pub path: PathBuf,
}

#[derive(Debug, Clone, Default)]
struct Inode {
    /// Volatile page-cache view: what reads observe.
    live: Vec<u8>,
    /// What survives power loss: the image as of the last real fsync
    /// (or forced writeback in the torn-write fault).
    synced: Vec<u8>,
}

#[derive(Debug, Default)]
struct Inner {
    /// Live namespace: path → inode id.
    live: BTreeMap<PathBuf, usize>,
    /// Durable namespace: the entries a crash preserves. Updated only
    /// by `sync_dir`, so un-synced creates/renames/removes revert.
    durable: BTreeMap<PathBuf, usize>,
    inodes: Vec<Inode>,
    faults: FaultSchedule<Fault, OpRecord>,
    crashed: bool,
    enospc_left: u32,
}

impl Inner {
    /// The prologue of every counting operation: refuse while the
    /// storage is down, count and log the op, and take the storage down
    /// if a crash is planted at this index (a crash outranks a running
    /// ENOSPC burst: the power goes out whether or not the disk is
    /// full). Any other planted fault is handed back for the operation
    /// to interpret (or ignore).
    fn begin(&mut self, kind: OpKind, path: &Path) -> Result<Option<Fault>, StorageError> {
        let op = kind.label();
        let down = || StorageError::Crashed { op, path: path.display().to_string() };
        if self.crashed {
            return Err(down());
        }
        let fault = self.faults.tick(|index| OpRecord { index, kind, path: path.to_path_buf() });
        if fault == Some(Fault::Crash) {
            self.crashed = true;
            self.faults.fire("crash");
            self.faults.fire(&format!("crash@{op}"));
            return Err(down());
        }
        Ok(fault)
    }

    fn inode_of(&mut self, path: &Path) -> Option<usize> {
        self.live.get(path).copied()
    }

    fn fresh_inode(&mut self) -> usize {
        self.inodes.push(Inode::default());
        self.inodes.len() - 1
    }

    fn apply_power_loss(&mut self) {
        self.live = self.durable.clone();
        for inode in &mut self.inodes {
            inode.live = inode.synced.clone();
        }
        self.crashed = false;
        self.enospc_left = 0;
    }
}

fn no_such_file(kind: OpKind, path: &Path) -> StorageError {
    StorageError::Io {
        op: kind.label(),
        path: path.display().to_string(),
        message: "no such file".into(),
    }
}

/// Deterministic fault-injecting in-memory backend.
///
/// Clones share the same underlying state, so a test harness can keep
/// one handle for scheduling faults and inspection while the system
/// under test owns another behind `Arc<dyn Storage>`.
#[derive(Clone)]
pub struct FaultStorage {
    inner: Arc<Mutex<Inner>>,
}

impl Default for FaultStorage {
    fn default() -> Self {
        let mut inner = Inner::default();
        inner.faults.record_ops();
        FaultStorage { inner: Arc::new(Mutex::new(inner)) }
    }
}

impl fmt::Debug for FaultStorage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let inner = self.lock();
        f.debug_struct("FaultStorage")
            .field("files", &inner.live.len())
            .field("ops", &inner.faults.op_count())
            .field("crashed", &inner.crashed)
            .finish()
    }
}

impl FaultStorage {
    /// A pristine, empty, fault-free storage.
    pub fn new() -> Self {
        Self::default()
    }

    /// Locks the shared state, recovering from poisoning: a panicking
    /// holder (a contained panic mid-operation) must not cascade into
    /// aborting every other thread that touches storage. The state is a
    /// plain map; a poisoned guard is still internally consistent.
    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Plant `fault` at global operation index `index`.
    pub fn schedule(&self, index: u64, fault: Fault) {
        self.lock().faults.schedule(index, fault);
    }

    /// Number of counting operations performed so far.
    pub fn op_count(&self) -> u64 {
        self.lock().faults.op_count()
    }

    /// The full operation log (index, kind, path) so far.
    pub fn op_log(&self) -> Vec<OpRecord> {
        self.lock().faults.op_log()
    }

    /// Which fault classes fired, and how often. Keys: `torn-write`,
    /// `fsync-fail`, `silent-fsync-loss`, `enospc`, `read-corruption`,
    /// `crash`, plus `crash@<op>` for the op kind the crash landed on.
    pub fn fired(&self) -> BTreeMap<String, u64> {
        self.lock().faults.fired()
    }

    /// True once a scheduled crash (or torn write) has taken the
    /// storage down; every counting operation fails until
    /// [`FaultStorage::power_loss`] is called.
    pub fn crashed(&self) -> bool {
        self.lock().crashed
    }

    /// Apply the dirty-page power-loss model and bring the storage
    /// back up: the live namespace reverts to the durable namespace
    /// (dropping un-synced creates/renames/removes) and every file's
    /// content reverts to its last-fsynced image.
    pub fn power_loss(&self) {
        self.lock().apply_power_loss();
    }

    /// Non-counting read of the live content of `path`, for harness
    /// validation (never intercepted by scheduled faults).
    pub fn peek(&self, path: &Path) -> Option<Vec<u8>> {
        let inner = self.lock();
        inner.live.get(path).map(|&id| inner.inodes[id].live.clone())
    }

    /// Non-counting read of the durable (post-crash) content of `path`.
    pub fn peek_durable(&self, path: &Path) -> Option<Vec<u8>> {
        let inner = self.lock();
        inner.durable.get(path).map(|&id| inner.inodes[id].synced.clone())
    }

    /// Opens `path` for writing on `inode`.
    fn handle(&self, path: &Path, inode: usize) -> Box<dyn StorageFile> {
        Box::new(FaultFile { inner: Arc::clone(&self.inner), path: path.to_path_buf(), inode })
    }
}

struct FaultFile {
    inner: Arc<Mutex<Inner>>,
    path: PathBuf,
    inode: usize,
}

impl StorageFile for FaultFile {
    fn write_all(&mut self, buf: &[u8]) -> Result<(), StorageError> {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        let fault = inner.begin(OpKind::Write, &self.path)?;
        let path = || self.path.display().to_string();
        if inner.enospc_left > 0 {
            inner.enospc_left -= 1;
            inner.faults.fire("enospc");
            return Err(StorageError::NoSpace { op: "write", path: path() });
        }
        match fault {
            Some(Fault::TornWrite) => {
                // Half the buffer lands, background writeback forces it
                // durable (entry included), then the power goes out.
                let half = &buf[..buf.len() / 2];
                inner.inodes[self.inode].live.extend_from_slice(half);
                let image = inner.inodes[self.inode].live.clone();
                inner.inodes[self.inode].synced = image;
                inner.durable.insert(self.path.clone(), self.inode);
                inner.crashed = true;
                inner.faults.fire("torn-write");
                return Err(StorageError::Crashed { op: "write", path: path() });
            }
            Some(Fault::NoSpace { count }) => {
                inner.enospc_left = count.saturating_sub(1);
                inner.faults.fire("enospc");
                return Err(StorageError::NoSpace { op: "write", path: path() });
            }
            _ => {}
        }
        inner.inodes[self.inode].live.extend_from_slice(buf);
        Ok(())
    }

    fn fsync(&mut self) -> Result<(), StorageError> {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        match inner.begin(OpKind::Fsync, &self.path)? {
            Some(Fault::FsyncFail) => {
                // After a failed fsync the page cache cannot be
                // trusted: drop the dirty pages (Postgres fsync-gate
                // semantics) and report the failure.
                let synced = inner.inodes[self.inode].synced.clone();
                inner.inodes[self.inode].live = synced;
                inner.faults.fire("fsync-fail");
                return Err(StorageError::Io {
                    op: "fsync",
                    path: self.path.display().to_string(),
                    message: "fsync failed (injected)".into(),
                });
            }
            Some(Fault::SilentFsyncLoss) => {
                // Lying fsync: report success, persist nothing.
                inner.faults.fire("silent-fsync-loss");
                return Ok(());
            }
            _ => {}
        }
        let image = inner.inodes[self.inode].live.clone();
        inner.inodes[self.inode].synced = image;
        Ok(())
    }
}

impl Storage for FaultStorage {
    fn create(&self, path: &Path) -> Result<Box<dyn StorageFile>, StorageError> {
        let mut inner = self.lock();
        inner.begin(OpKind::Create, path)?;
        let inode = inner.fresh_inode();
        inner.live.insert(path.to_path_buf(), inode);
        Ok(self.handle(path, inode))
    }

    fn append(&self, path: &Path) -> Result<Box<dyn StorageFile>, StorageError> {
        let mut inner = self.lock();
        inner.begin(OpKind::Append, path)?;
        let inode = match inner.inode_of(path) {
            Some(id) => id,
            None => {
                let id = inner.fresh_inode();
                inner.live.insert(path.to_path_buf(), id);
                id
            }
        };
        Ok(self.handle(path, inode))
    }

    fn read(&self, path: &Path) -> Result<Vec<u8>, StorageError> {
        let mut inner = self.lock();
        let fault = inner.begin(OpKind::Read, path)?;
        let id = inner.inode_of(path).ok_or_else(|| no_such_file(OpKind::Read, path))?;
        let mut bytes = inner.inodes[id].live.clone();
        if let Some(Fault::CorruptRead { bit }) = fault {
            if !bytes.is_empty() {
                let bit = bit % (bytes.len() as u64 * 8);
                bytes[(bit / 8) as usize] ^= 1 << (bit % 8);
                inner.faults.fire("read-corruption");
            }
        }
        Ok(bytes)
    }

    fn rename(&self, from: &Path, to: &Path) -> Result<(), StorageError> {
        let mut inner = self.lock();
        inner.begin(OpKind::Rename, from)?;
        let id = inner.live.remove(from).ok_or_else(|| no_such_file(OpKind::Rename, from))?;
        inner.live.insert(to.to_path_buf(), id);
        Ok(())
    }

    fn remove(&self, path: &Path) -> Result<(), StorageError> {
        let mut inner = self.lock();
        inner.begin(OpKind::Remove, path)?;
        inner.live.remove(path).ok_or_else(|| no_such_file(OpKind::Remove, path))?;
        Ok(())
    }

    fn truncate(&self, path: &Path, len: u64) -> Result<(), StorageError> {
        let mut inner = self.lock();
        inner.begin(OpKind::Truncate, path)?;
        let id = inner.inode_of(path).ok_or_else(|| no_such_file(OpKind::Truncate, path))?;
        inner.inodes[id].live.truncate(len as usize);
        // Model the metadata-journalled truncate as durable: the synced
        // image shrinks too (a grown synced image past the truncation
        // point cannot survive).
        inner.inodes[id].synced.truncate(len as usize);
        Ok(())
    }

    fn sync_dir(&self, dir: &Path) -> Result<(), StorageError> {
        let mut inner = self.lock();
        inner.begin(OpKind::SyncDir, dir)?;
        // Durable entries directly under `dir` become exactly the live
        // entries: creates and rename targets persist, removed and
        // renamed-away names disappear.
        inner.durable.retain(|p, _| p.parent() != Some(dir));
        let adds: Vec<(PathBuf, usize)> = inner
            .live
            .iter()
            .filter(|(p, _)| p.parent() == Some(dir))
            .map(|(p, &id)| (p.clone(), id))
            .collect();
        for (p, id) in adds {
            inner.durable.insert(p, id);
        }
        Ok(())
    }

    fn len(&self, path: &Path) -> Result<u64, StorageError> {
        let inner = self.lock();
        match inner.live.get(path) {
            Some(&id) => Ok(inner.inodes[id].live.len() as u64),
            None => Err(StorageError::Io {
                op: "len",
                path: path.display().to_string(),
                message: "no such file".into(),
            }),
        }
    }

    fn exists(&self, path: &Path) -> bool {
        self.lock().live.contains_key(path)
    }

    fn create_dir_all(&self, _dir: &Path) -> Result<(), StorageError> {
        // Directories are implicit in the in-memory namespace.
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Durable append helper
// ---------------------------------------------------------------------

/// Runs `attempt` until it succeeds or fails for good: after a
/// transient out-of-space failure `rewind` undoes the partial work and
/// the whole attempt is retried, up to [`ENOSPC_RETRIES`] times.
pub(crate) fn retry_no_space(
    mut attempt: impl FnMut() -> Result<(), StorageError>,
    mut rewind: impl FnMut() -> Result<(), StorageError>,
) -> Result<(), StorageError> {
    for _ in 0..ENOSPC_RETRIES {
        match attempt() {
            Err(err) if err.is_no_space() => rewind()?,
            done => return done,
        }
    }
    attempt()
}

/// Append `bytes` to `path` and fsync, with the bounded-retry rung for
/// transient ENOSPC: on out-of-space the partial append is rewound by
/// truncating back to the pre-append length and the whole
/// open→write→fsync sequence retries ([`retry_no_space`]).
/// If the file did not exist before the call, its parent directory is
/// fsynced after the first successful append so the new entry survives
/// power loss.
pub fn append_durable(
    storage: &dyn Storage,
    path: &Path,
    bytes: &[u8],
) -> Result<(), StorageError> {
    let created = !storage.exists(path);
    let base_len = if created { 0 } else { storage.len(path)? };
    retry_no_space(
        || {
            let mut file = storage.append(path)?;
            file.write_all(bytes)?;
            file.fsync()
        },
        || if storage.exists(path) { storage.truncate(path, base_len) } else { Ok(()) },
    )?;
    match path.parent().filter(|dir| created && !dir.as_os_str().is_empty()) {
        Some(parent) => storage.sync_dir(parent),
        None => Ok(()),
    }
}
