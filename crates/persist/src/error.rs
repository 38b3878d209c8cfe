//! Errors of the persistence subsystem.
//!
//! The distinction that matters for recovery (DESIGN.md §9):
//!
//! * a **torn tail** — the file ends in the middle of the final record —
//!   is the expected signature of a crash mid-append. It is *not* an
//!   error: open truncates it and recovers the longest committed prefix.
//! * **mid-log corruption** — a checksum or format violation with intact
//!   bytes after it — means storage was damaged. Silently truncating
//!   would discard acknowledged commits, so this is a hard error carrying
//!   the record index and byte offset, rendered as a span-style
//!   diagnostic like the analyzer's.
//! * a **bad start position** — recovery reads only the records after the
//!   snapshot's `journal_pos`, so a position that does not start a record
//!   would skip or tear acknowledged commits. It is a hard error naming the
//!   position; nothing is replayed or truncated.

use std::fmt;

/// Errors raised while journaling, snapshotting, or recovering.
#[derive(Debug)]
pub enum PersistError {
    /// An operating-system I/O failure.
    Io {
        /// The file or directory involved.
        path: String,
        /// What was being attempted (`"create"`, `"append"`, ...).
        op: &'static str,
        /// The underlying error.
        source: std::io::Error,
    },
    /// The journal is damaged before its final record: a checksum
    /// mismatch, an implausible length prefix, or a payload that is not
    /// the event surface syntax.
    Corrupt {
        /// The journal file.
        path: String,
        /// Byte offset the scan started at: the first record
        /// (`journal::FIRST_RECORD`) for `verify` and `dduf db log`, the
        /// snapshot's position for recovery.
        from: u64,
        /// 0-based index of the damaged record, counted from `from`.
        record: usize,
        /// Byte offset of the damaged record's header.
        offset: u64,
        /// What exactly is wrong.
        detail: String,
    },
    /// A scan was asked to start at a byte that does not begin a record:
    /// before the first one, inside one, or past the last intact one.
    /// Recovery starts at the snapshot's `journal_pos`, whose header field
    /// no checksum covers, so this names a snapshot that disagrees with its
    /// journal.
    BadPosition {
        /// The journal file.
        path: String,
        /// The position that is not a record boundary.
        pos: u64,
        /// Where the position falls instead.
        detail: String,
    },
    /// `Journal::append` refused a payload over the `MAX_RECORD` cap.
    /// Writing it would frame a record every future scan rejects as
    /// corrupt (the `u32` length prefix cannot even represent it), so the
    /// append fails cleanly before any bytes hit disk.
    RecordTooLarge {
        /// The journal file.
        path: String,
        /// Size of the rejected payload.
        bytes: u64,
        /// The cap it exceeds (`journal::MAX_RECORD`).
        max: u32,
    },
    /// The snapshot file is missing its header, fails its checksum, or
    /// does not parse back into a database.
    Snapshot {
        /// The snapshot file.
        path: String,
        /// What exactly is wrong.
        detail: String,
    },
    /// Another process holds the directory's exclusive lock
    /// (`dduf.lock`). Opening would race its journal appends, so the
    /// open is refused instead of silently interleaving.
    Locked {
        /// The lock file another process holds.
        path: String,
    },
    /// The directory does not hold a durable database (no snapshot or no
    /// journal).
    NotADatabase(String),
    /// `init` refused to overwrite an existing durable database.
    AlreadyExists(String),
    /// A journal record past the snapshot passed its checksum but does not
    /// parse or validate as a transaction of the database's program. Open
    /// checks every record before it commits the tail's net transaction,
    /// so nothing was committed.
    Replay {
        /// 0-based index of the record that failed, counted from the
        /// snapshot's position.
        record: usize,
        /// Byte offset of the record's header.
        offset: u64,
        /// The parse or validation error.
        source: dduf_core::Error,
    },
    /// An error from the framework itself (evaluation, validation).
    Core(dduf_core::Error),
}

impl PersistError {
    /// Renders the error in the analyzer's span-diagnostic style:
    /// a headline, a `-->` location line, and `=` notes.
    pub fn render(&self) -> String {
        match self {
            PersistError::Corrupt {
                path,
                from,
                record,
                offset,
                detail,
            } => {
                let start = if *from == crate::journal::FIRST_RECORD {
                    "the first record".to_string()
                } else {
                    format!(
                        "byte {from}, the snapshot's position (record numbers count from there; \
                         `dduf db verify` checks the history before it)"
                    )
                };
                format!(
                    "error: journal corrupt: {detail}\n  --> {path}:record {record} (byte {offset})\n  \
                     = note: this scan started at {start}; the {record} record(s) it read before \
                     byte {offset} passed their checksums\n  = note: refusing to truncate \
                     acknowledged commits — repair or restore the journal manually\n"
                )
            }
            PersistError::BadPosition { path, pos, detail } => format!(
                "error: no journal record starts at byte {pos}: {detail}\n  --> {path} (byte {pos})\n  \
                 = note: recovery replays from the snapshot's journal_pos; starting anywhere else \
                 would skip or tear acknowledged commits, so nothing was replayed or truncated — \
                 `dduf db log` lists where each record starts\n"
            ),
            PersistError::Snapshot { path, detail } => {
                format!("error: snapshot unreadable: {detail}\n  --> {path}\n")
            }
            PersistError::Locked { path } => format!(
                "error: database is locked by another process\n  --> {path}\n  = note: a `dduf db open` session or `dduf serve` already owns this \
                 directory; close it first (the lock vanishes with its process)\n"
            ),
            other => format!("error: {other}\n"),
        }
    }
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PersistError::Io { path, op, source } => {
                write!(f, "cannot {op} {path}: {source}")
            }
            PersistError::Corrupt {
                path,
                from,
                record,
                offset,
                detail,
            } => write!(
                f,
                "journal {path} corrupt at record {record} counted from byte {from} \
                 (byte {offset}): {detail}"
            ),
            PersistError::BadPosition { path, pos, detail } => {
                write!(
                    f,
                    "no record of journal {path} starts at byte {pos}: {detail}"
                )
            }
            PersistError::RecordTooLarge { path, bytes, max } => write!(
                f,
                "record of {bytes} bytes exceeds the {max}-byte journal record cap of {path}; \
                 nothing was written"
            ),
            PersistError::Snapshot { path, detail } => {
                write!(f, "snapshot {path} unreadable: {detail}")
            }
            PersistError::Locked { path } => {
                write!(
                    f,
                    "database is locked by another process (lock file {path})"
                )
            }
            PersistError::NotADatabase(dir) => {
                write!(
                    f,
                    "{dir} is not a durable database (run `dduf db init` first)"
                )
            }
            PersistError::AlreadyExists(dir) => {
                write!(f, "{dir} already holds a durable database")
            }
            PersistError::Replay {
                record,
                offset,
                source,
            } => write!(
                f,
                "replay of tail record {record} (journal byte {offset}) failed: {source}"
            ),
            PersistError::Core(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for PersistError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PersistError::Io { source, .. } => Some(source),
            PersistError::Replay { source, .. } | PersistError::Core(source) => Some(source),
            _ => None,
        }
    }
}

impl From<dduf_core::Error> for PersistError {
    fn from(e: dduf_core::Error) -> PersistError {
        PersistError::Core(e)
    }
}

/// Result alias for the subsystem.
pub type Result<T> = std::result::Result<T, PersistError>;

/// Helper: wrap an `io::Error` with its path and operation.
pub(crate) fn io_err<'a>(
    path: &'a std::path::Path,
    op: &'static str,
) -> impl FnOnce(std::io::Error) -> PersistError + 'a {
    move |source| PersistError::Io {
        path: path.display().to_string(),
        op,
        source,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corrupt_renders_span_style() {
        let e = PersistError::Corrupt {
            path: "journal.log".into(),
            from: crate::journal::FIRST_RECORD,
            record: 3,
            offset: 128,
            detail: "checksum mismatch (stored 0xdeadbeef, computed 0x12345678)".into(),
        };
        let r = e.render();
        assert!(r.contains("--> journal.log:record 3 (byte 128)"), "{r}");
        assert!(r.contains("checksum mismatch"), "{r}");
        assert!(r.contains("started at the first record"), "{r}");
        assert!(e.to_string().contains("record 3"), "{e}");
    }

    #[test]
    fn corrupt_tail_render_names_where_the_scan_started() {
        let e = PersistError::Corrupt {
            path: "journal.log".into(),
            from: 96,
            record: 1,
            offset: 128,
            detail: "checksum mismatch (stored 0xdeadbeef, computed 0x12345678)".into(),
        };
        let r = e.render();
        assert!(r.contains("--> journal.log:record 1 (byte 128)"), "{r}");
        assert!(
            r.contains("started at byte 96, the snapshot's position"),
            "{r}"
        );
        assert!(r.contains("`dduf db verify`"), "{r}");
        assert!(!r.contains("records before record"), "{r}");
    }

    #[test]
    fn io_carries_source() {
        use std::error::Error as _;
        let e = io_err(std::path::Path::new("j.log"), "append")(std::io::Error::other("boom"));
        assert!(e.to_string().contains("append"), "{e}");
        assert!(e.source().is_some());
    }
}
