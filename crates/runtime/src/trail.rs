//! Reading a write-ahead trail back.
//!
//! A trail is written one newline-terminated record at a time through
//! [`append_durable`](crate::append_durable), each record opening with
//! its key (`seq=N …` for the daemon, `step=N …` for the simulation). A
//! kill mid-append can leave a partial final record; because the record
//! is fsynced before anything is acknowledged, such a tail can only
//! belong to work nobody was told about, so every reader drops it. This
//! module is the one place that knows how.

use std::path::Path;

use crate::storage::{Storage, StorageError};

/// Length of the prefix of `bytes` that ends in a newline.
fn complete_len(bytes: &[u8]) -> usize {
    bytes.iter().rposition(|&b| b == b'\n').map_or(0, |last| last + 1)
}

/// The complete (newline-terminated) lines of a trail image; a torn
/// tail fragment is excluded.
pub fn complete_lines(bytes: &[u8]) -> Vec<String> {
    String::from_utf8_lossy(&bytes[..complete_len(bytes)]).lines().map(str::to_string).collect()
}

/// Reads the trail at `path` for a restart, truncating a torn final
/// record away through `storage`. Returns the complete lines and how
/// many torn bytes were dropped (`0` for a clean or absent trail).
///
/// # Errors
/// The read or the truncate failed.
pub fn recover(storage: &dyn Storage, path: &Path) -> Result<(Vec<String>, usize), StorageError> {
    if !storage.exists(path) {
        return Ok((Vec::new(), 0));
    }
    let bytes = storage.read(path)?;
    let keep = complete_len(&bytes);
    if keep < bytes.len() {
        storage.truncate(path, keep as u64)?;
    }
    Ok((complete_lines(&bytes), bytes.len() - keep))
}

/// The record key of a trail line: the `u64` after `<key>=`, which must
/// open the line.
pub fn key_of(line: &str, key: &str) -> Option<u64> {
    line.strip_prefix(key)?.strip_prefix('=')?.split_whitespace().next()?.parse().ok()
}
