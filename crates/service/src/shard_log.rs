//! The shard log: one appended, checksummed record per committed shard.
//!
//! A checkpoint on disk is a snapshot (the pretty [`Checkpoint`] JSON) plus
//! this log beside it.  Committing a shard appends one record and
//! `sync_data`s the file, so a commit costs one shard's bytes and is
//! durable against power loss, not only against a kill.
//! [`Checkpoint::save`] compacts: it rewrites the snapshot and then removes
//! the log; [`Checkpoint::load`] replays the log over the snapshot.
//!
//! A record is framed as
//!
//! ```text
//! len: u32 LE | !len: u32 LE | FNV-1a of the payload: u64 LE | payload
//! ```
//!
//! where the payload is the compact JSON of a [`LogEntry`].  The
//! complemented length tells a damaged length apart from a record the file
//! ends inside.  The latter — like a last record whose checksum fails, or
//! a zero-filled tail — is the torn write of an interrupted commit and is
//! dropped; dropping it only means its shard runs again.  Any other damage
//! is an error naming the record.

use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};

use serde::{Deserialize, Serialize};

use crate::checkpoint::{Checkpoint, ShardRecord};
use crate::corpus::CorpusInsert;
use crate::digest::digest_bytes;
use crate::ServiceError;

/// Bytes before a record's payload: length, complemented length, checksum.
const HEADER: usize = 16;

/// One record's payload: a committed shard and its corpus inserts, in
/// commit order.
#[derive(Serialize, Deserialize)]
pub(crate) struct LogEntry {
    pub(crate) record: ShardRecord,
    pub(crate) corpus: Vec<CorpusInsert>,
}

/// Maps a filesystem error on `path` into [`ServiceError::Io`].
pub(crate) fn io_error(path: &Path) -> impl Fn(std::io::Error) -> ServiceError + '_ {
    move |source| ServiceError::Io {
        path: path.display().to_string(),
        source,
    }
}

/// Syncs the directory holding `path`, so a file created, renamed or
/// removed there stays that way across a power loss.
pub(crate) fn sync_dir(path: &Path) -> Result<(), ServiceError> {
    let dir = match path.parent() {
        Some(dir) if !dir.as_os_str().is_empty() => dir,
        _ => Path::new("."),
    };
    #[cfg(unix)]
    File::open(dir)
        .and_then(|d| d.sync_all())
        .map_err(io_error(dir))?;
    Ok(())
}

/// Removes the log beside `snapshot`, if there is one.
pub(crate) fn remove_log(snapshot: &Path) -> Result<(), ServiceError> {
    let path = Checkpoint::log_path(snapshot);
    match std::fs::remove_file(&path) {
        Err(err) if err.kind() != std::io::ErrorKind::NotFound => Err(io_error(&path)(err)),
        _ => Ok(()),
    }
}

/// The log of a running sweep, appended to by its committer.
pub(crate) struct ShardLog {
    file: File,
    path: PathBuf,
}

impl ShardLog {
    /// Opens the log beside `snapshot` for appending after its first `len`
    /// bytes — the whole records the load replayed — so a torn tail is cut
    /// off before the first append.  A log this creates is made durable by
    /// syncing its directory.
    pub(crate) fn open(snapshot: &Path, len: u64) -> Result<ShardLog, ServiceError> {
        let path = Checkpoint::log_path(snapshot);
        let created = !path.exists();
        let file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .and_then(|file| file.set_len(len).map(|()| file))
            .map_err(io_error(&path))?;
        if created {
            sync_dir(&path)?;
        }
        Ok(ShardLog { file, path })
    }

    /// Appends one record and syncs it to disk.
    pub(crate) fn append(&mut self, entry: &LogEntry) -> Result<(), ServiceError> {
        let payload = serde_json::to_string(entry);
        let len = u32::try_from(payload.len()).map_err(|_| {
            io_error(&self.path)(std::io::Error::other("shard record exceeds 4 GiB"))
        })?;
        let mut record = Vec::with_capacity(HEADER + payload.len());
        record.extend(len.to_le_bytes());
        record.extend((!len).to_le_bytes());
        record.extend(digest_bytes(payload.as_bytes()).to_le_bytes());
        record.extend(payload.as_bytes());
        self.file
            .write_all(&record)
            .and_then(|()| self.file.sync_data())
            .map_err(io_error(&self.path))
    }
}

/// Decodes a log's records, returning them with the byte length of the
/// whole ones; a torn tail is in neither.  A damaged record before the tail
/// is an error carrying the record's position and what is wrong with it.
pub(crate) fn read_log(bytes: &[u8]) -> Result<(Vec<LogEntry>, usize), (usize, String)> {
    let mut entries = Vec::new();
    let mut at = 0;
    while at < bytes.len() {
        let rest = &bytes[at..];
        // A header cut short, or a tail a power loss left zero-filled.
        if rest.len() < HEADER || rest.iter().all(|&b| b == 0) {
            break;
        }
        let word = |i: usize| u32::from_le_bytes(rest[i..i + 4].try_into().expect("4 bytes"));
        let len = word(0);
        if word(4) != !len {
            return Err((entries.len(), format!("damaged length at byte {at}")));
        }
        let end = HEADER + len as usize;
        if rest.len() < end {
            break;
        }
        let payload = &rest[HEADER..end];
        let checksum = u64::from_le_bytes(rest[8..HEADER].try_into().expect("8 bytes"));
        if digest_bytes(payload) != checksum {
            if rest.len() == end {
                break;
            }
            return Err((entries.len(), format!("checksum mismatch at byte {at}")));
        }
        let entry = std::str::from_utf8(payload)
            .map_err(|e| e.to_string())
            .and_then(|json| serde_json::from_str(json).map_err(|e| e.to_string()))
            .map_err(|e| (entries.len(), format!("payload does not parse: {e}")))?;
        entries.push(entry);
        at += end;
    }
    Ok((entries, at))
}
