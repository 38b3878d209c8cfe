//! Snapshots (checkpoints): a full dump of the database in re-parseable
//! surface syntax, written atomically.
//!
//! A snapshot is the pretty-printer's output (`pretty::database`) behind
//! one header comment recording the journal position it covers and a
//! CRC-32 of the body:
//!
//! ```text
//! % dduf-snapshot v1 journal_pos=<bytes> crc=<8 hex digits>
//! <program directives, rules, facts>
//! ```
//!
//! The header is a `%` comment, so the file is *also* a plain loadable
//! database source. The frame and its atomic write (temp file, fsync,
//! rename, directory fsync) are the private `framed` module's, shared
//! with the counts file.

use crate::error::{PersistError, Result};
use crate::framed::{read_framed, write_framed};
use dduf_datalog::storage::database::Database;
use std::path::Path;

/// File name of the snapshot inside a durable-database directory.
pub const SNAPSHOT_FILE: &str = "snapshot.dl";

/// File name of the journal inside a durable-database directory.
pub const JOURNAL_FILE: &str = "journal.log";

/// A snapshot read back from disk.
#[derive(Clone, Debug)]
pub struct Snapshot {
    /// The database state the snapshot holds.
    pub db: Database,
    /// Journal byte offset the snapshot covers: replay starts here.
    pub journal_pos: u64,
}

/// Writes a snapshot of `db` covering the journal up to `journal_pos`,
/// atomically (temp file + fsync + rename + directory fsync).
pub fn write(dir: &Path, db: &Database, journal_pos: u64) -> Result<()> {
    let timer = dduf_obs::timer();
    let body = dduf_datalog::pretty::database(db);
    let bytes = write_framed(dir, SNAPSHOT_FILE, "snapshot", journal_pos, &body)?;
    dduf_obs::record_timed(
        "snapshot.write",
        "",
        &[
            ("writes", 1),
            ("bytes", bytes),
            ("facts", db.fact_count() as u64),
        ],
        timer.elapsed_us(),
    );
    Ok(())
}

/// Reads and validates the snapshot of a durable-database directory.
pub fn read(dir: &Path) -> Result<Snapshot> {
    let (journal_pos, body) = read_framed(dir, SNAPSHOT_FILE, "snapshot", || {
        PersistError::NotADatabase(dir.display().to_string())
    })?;
    let db = dduf_datalog::parser::parse_database(&body).map_err(|e| PersistError::Snapshot {
        path: dir.join(SNAPSHOT_FILE).display().to_string(),
        detail: format!("body does not parse: {e}"),
    })?;
    Ok(Snapshot { db, journal_pos })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dduf_datalog::parser::parse_database;

    fn tmpdir(name: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!("dduf_snap_{}_{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    fn db() -> Database {
        parse_database(
            "la(dolors). u_benefit(dolors).
             unemp(X) :- la(X), not works(X).
             :- unemp(X), not u_benefit(X).",
        )
        .unwrap()
    }

    #[test]
    fn write_read_roundtrip() {
        let dir = tmpdir("roundtrip");
        write(&dir, &db(), 42).unwrap();
        let snap = read(&dir).unwrap();
        assert_eq!(snap.journal_pos, 42);
        assert_eq!(snap.db.fact_count(), db().fact_count());
        assert_eq!(
            snap.db.program().rules().len(),
            db().program().rules().len()
        );
        // No temp file left behind.
        assert!(!dir.join("snapshot.dl.tmp").exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rewrite_replaces_atomically() {
        let dir = tmpdir("rewrite");
        write(&dir, &db(), 8).unwrap();
        write(&dir, &db(), 99).unwrap();
        assert_eq!(read(&dir).unwrap().journal_pos, 99);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn damaged_body_fails_checksum() {
        let dir = tmpdir("damage");
        write(&dir, &db(), 8).unwrap();
        let path = dir.join(SNAPSHOT_FILE);
        let mut content = std::fs::read_to_string(&path).unwrap();
        content.push_str("extra(garbage).\n");
        std::fs::write(&path, content).unwrap();
        match read(&dir) {
            Err(PersistError::Snapshot { detail, .. }) => {
                assert!(detail.contains("checksum mismatch"), "{detail}")
            }
            other => panic!("expected snapshot error, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_snapshot_is_not_a_database() {
        let dir = tmpdir("missing");
        assert!(matches!(read(&dir), Err(PersistError::NotADatabase(_))));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn header_is_a_comment_for_the_parser() {
        let dir = tmpdir("comment");
        write(&dir, &db(), 8).unwrap();
        let content = std::fs::read_to_string(dir.join(SNAPSHOT_FILE)).unwrap();
        // The whole file, header included, is loadable source.
        assert!(parse_database(&content).is_ok());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
