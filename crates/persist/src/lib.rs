//! # dduf-persist — durable state for the updating framework
//!
//! The paper's formalism is about transitions between consistent database
//! states, where a transaction is exactly a set of base-fact events —
//! which is precisely the content of a write-ahead log record. This crate
//! persists committed transactions as an append-only **event journal**
//! ([`journal`]) plus periodic atomic **snapshots** ([`snapshot`]), so
//! that crash **recovery** is nothing new: reopening a database commits
//! the journal tail through the same upward/commit path live sessions
//! use — as **one** upward interpretation of the tail's net transaction
//! (DESIGN.md §9).
//!
//! On-disk layout of a durable database directory:
//!
//! ```text
//! <dir>/snapshot.dl    full EDB+program dump, atomic (temp + rename)
//! <dir>/journal.log    MAGIC + length-prefixed, CRC-32'd event records
//! ```
//!
//! Durability contract (*kill-anywhere*): a transaction is durable once
//! [`DurableDb::commit`] (or the session hook) returns — the record is
//! fsynced **before** the in-memory state mutates. A crash at any byte
//! position leaves either a clean journal or a torn final record, and
//! open recovers exactly the longest acknowledged prefix. Corruption
//! *before* the final record is never truncated silently: it is a hard
//! error naming the damaged record.
//!
//! Recovery is O(tail). The snapshot *is* the state after every record
//! before its `journal_pos`, so [`DurableDb::open`] checks the journal's
//! magic, seeks to that position and parses each record as soon as it
//! passes its checksum; it never reads the history the snapshot covers.
//! A transaction is a set of base events (§3.1), so the tail
//! `T1; …; Tn` is itself one transaction: the last event per base fact,
//! without the events that change nothing in the snapshot's state
//! ([`Transaction::then`], [`Transaction::normalize`]). Open folds the
//! records into it and commits it once, after the scan — one maintenance
//! pass over the net change, not one per record. The recovered state is
//! the serial one because derived extensions and support counts are
//! functions of the final base facts; ranks are not persisted, so the
//! recovered engine starts unranked either way.
//! Open checks every byte it uses, and a position that does not start a
//! record is a hard [`PersistError::BadPosition`], never a skipped or torn
//! commit. The integrity of the covered history is [`verify`]'s job: it
//! (like [`read_log`] and `dduf db log`) scans the whole file. The journal
//! is never truncated at a checkpoint, so the full history stays on disk
//! for those audits.

#![forbid(unsafe_code)]
pub mod counts;
pub mod crc32;
pub mod error;
mod framed;
pub mod journal;
pub mod lock;
pub mod snapshot;

pub use counts::{CountsState, COUNTS_FILE};
pub use error::{PersistError, Result};
pub use journal::{Journal, Record, Scan, ScanSummary, TornTail, FIRST_RECORD, MAX_RECORD};
pub use lock::{DirLock, LOCK_FILE};
pub use snapshot::{Snapshot, JOURNAL_FILE, SNAPSHOT_FILE};

use dduf_core::processor::{ProcessorState, UpdateProcessor};
use dduf_core::transaction::Transaction;
use dduf_core::upward::maintain::MaintenanceEngine;
use dduf_core::upward::UpwardResult;
use std::path::{Path, PathBuf};

/// Serializes a transaction as one journal payload: its events in the
/// surface syntax the parser reads back (`+p(a). -q(b).`).
pub fn serialize_transaction(txn: &Transaction) -> String {
    let events: Vec<String> = txn.events().iter().map(|e| format!("{e}.")).collect();
    events.join(" ")
}

/// What recovery did while opening a durable database.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Recovery {
    /// Journal byte offset the snapshot covered.
    pub snapshot_pos: u64,
    /// Journal records replayed: every record past the snapshot's
    /// position, i.e. every commit since the last checkpoint, each parsed
    /// and validated, then folded into the one net transaction that open
    /// commits.
    pub replayed: usize,
    /// Base events of that net transaction: what the tail changed in the
    /// snapshot's state (zero when it cancels itself, and then open runs
    /// no upward interpretation at all).
    pub net_events: usize,
    /// Dangling bytes of a torn final record that were truncated.
    pub truncated_bytes: u64,
    /// Whether the maintenance state (support counts + extensions) was
    /// restored from `counts.state` instead of recomputed from scratch.
    pub counts_restored: bool,
}

/// The storage half of a durable database: directory + open journal.
/// [`Session`](../dduf/cli/struct.Session.html)-style frontends hold this
/// next to their own [`UpdateProcessor`] and call [`record_commit`]
/// from a [`commit_with_hook`](UpdateProcessor::commit_with_hook) hook.
///
/// [`record_commit`]: DurableStore::record_commit
#[derive(Debug)]
pub struct DurableStore {
    dir: PathBuf,
    journal: Journal,
    /// Exclusive directory lock, held for the store's lifetime so a
    /// second process cannot race the journal (released on drop or
    /// process death — including SIGKILL).
    _lock: DirLock,
}

impl DurableStore {
    /// The database directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Byte offset past the last journal record.
    pub fn journal_end(&self) -> u64 {
        self.journal.end()
    }

    /// Appends a committed transaction to the journal (fsynced). Shaped
    /// for [`UpdateProcessor::commit_with_hook`]: the error is the core
    /// error type, so a failed append vetoes the in-memory mutation.
    pub fn record_commit(&mut self, txn: &Transaction) -> dduf_core::Result<()> {
        self.journal
            .append(&serialize_transaction(txn))
            .map(|_| ())
            .map_err(|e| dduf_core::Error::Storage(e.to_string()))
    }

    /// Appends a *batch* of serialized transactions behind exactly one
    /// fsync ([`Journal::append_batch`]) — the server's group-commit
    /// path. Either the whole batch is durable when this returns, or
    /// nothing was acknowledged: on error the caller must discard every
    /// staged in-memory effect of the batch.
    pub fn record_commit_batch<S: AsRef<str>>(&mut self, payloads: &[S]) -> dduf_core::Result<u64> {
        self.journal
            .append_batch(payloads)
            .map_err(|e| dduf_core::Error::Storage(e.to_string()))
    }

    /// Writes a snapshot of `db` covering the whole journal so far, and
    /// persists the maintenance state next to it (or removes a stale
    /// counts file when there is none). The snapshot is renamed into
    /// place first: a crash between the two renames leaves a counts file
    /// whose `journal_pos` disagrees with the snapshot's, which recovery
    /// rejects and recomputes — never a torn restore.
    pub fn checkpoint_with_maint(
        &mut self,
        db: &dduf_datalog::storage::database::Database,
        maint: Option<&MaintenanceEngine>,
    ) -> Result<u64> {
        let pos = self.journal.end();
        snapshot::write(&self.dir, db, pos)?;
        match maint {
            Some(engine) => counts::write(&self.dir, engine, pos)?,
            None => counts::remove(&self.dir)?,
        }
        Ok(pos)
    }
}

/// A durable deductive database: an [`UpdateProcessor`] whose commits are
/// journaled, plus snapshot/checkpoint management.
#[derive(Debug)]
pub struct DurableDb {
    store: DurableStore,
    proc: UpdateProcessor,
    recovery: Recovery,
}

impl DurableDb {
    /// Creates a durable database in `dir` from database source text
    /// (program + initial facts). The directory is created if missing;
    /// initializing over an existing durable database is refused.
    pub fn init(dir: impl AsRef<Path>, schema_src: &str) -> Result<DurableDb> {
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir).map_err(error::io_err(dir, "create"))?;
        let lock = DirLock::acquire(dir)?;
        if dir.join(SNAPSHOT_FILE).exists() || dir.join(JOURNAL_FILE).exists() {
            return Err(PersistError::AlreadyExists(dir.display().to_string()));
        }
        let db = dduf_datalog::parser::parse_database(schema_src)
            .map_err(|e| PersistError::Core(e.into()))?;
        let proc = UpdateProcessor::new(db)?;
        let journal = Journal::create(&dir.join(JOURNAL_FILE))?;
        snapshot::write(dir, proc.database(), journal.end())?;
        counts::write(
            dir,
            proc.maintenance().expect("every processor maintains"),
            journal.end(),
        )?;
        Ok(DurableDb {
            store: DurableStore {
                dir: dir.to_path_buf(),
                journal,
                _lock: lock,
            },
            proc,
            recovery: Recovery::default(),
        })
    }

    /// Opens a durable database: loads the latest snapshot, then streams
    /// the journal from the snapshot's position, parsing and validating
    /// each record as soon as it passes its checksum and folding it into
    /// the tail's net transaction, and truncates a torn final record if a
    /// crash left one. Then it commits the net transaction, if it changes
    /// anything, through the normal upward/commit path: one maintenance
    /// pass for the whole tail. The records before the snapshot's position
    /// are never read.
    pub fn open(dir: impl AsRef<Path>) -> Result<DurableDb> {
        let dir = dir.as_ref();
        if !dir.is_dir() {
            return Err(PersistError::NotADatabase(dir.display().to_string()));
        }
        let lock = DirLock::acquire(dir)?;
        let snap = snapshot::read(dir)?;
        let journal_path = dir.join(JOURNAL_FILE);
        if !journal_path.exists() {
            return Err(PersistError::NotADatabase(dir.display().to_string()));
        }
        // Restore the maintenance state from the counts file when it
        // exactly matches the snapshot (same covered journal position and
        // a split that fits the program); anything else falls back to a
        // full recompute and counts why. Partial or stale state is never
        // loaded.
        let saved = match counts::read(dir) {
            Ok(None) => Err("missing"),
            Err(_) => Err("damaged"),
            Ok(Some(c)) if c.journal_pos != snap.journal_pos => Err("stale"),
            Ok(Some(c)) => MaintenanceEngine::from_saved(&snap.db, c.counts, c.dred_exts)
                .map_err(|_| "mismatch"),
        };
        let counts_restored = saved.is_ok();
        let mut proc = match saved {
            Ok(engine) => {
                dduf_obs::record(
                    "counts.persist",
                    "",
                    &[
                        ("loaded", 1),
                        ("restored_tuples", engine.tuple_count() as u64),
                    ],
                );
                let interp = engine.interpretation().clone();
                UpdateProcessor::from_state(ProcessorState {
                    db: snap.db,
                    interp,
                    maint: Some(engine),
                })
            }
            Err(reason) => {
                dduf_obs::record("counts.persist", "", &[("recompute", 1), (reason, 1)]);
                UpdateProcessor::new(snap.db)?
            }
        };
        let mut tail_txn = Transaction::new();
        let (journal, tail) = Journal::open(&journal_path, snap.journal_pos, &mut |rec| {
            let txn = proc
                .transaction(&rec.payload)
                .map_err(|source| PersistError::Replay {
                    record: rec.index,
                    offset: rec.offset,
                    source,
                })?;
            tail_txn.then(&txn);
            Ok(())
        })?;
        let (net, _noops) = tail_txn.normalize(proc.database());
        if !net.is_empty() {
            proc.commit(&net)?;
        }
        let truncated_bytes = tail.torn.map_or(0, |t| t.bytes);
        dduf_obs::record(
            "recovery.open",
            "",
            &[
                ("replayed", tail.records as u64),
                ("net_events", net.len() as u64),
                ("truncated_bytes", truncated_bytes),
            ],
        );
        Ok(DurableDb {
            store: DurableStore {
                dir: dir.to_path_buf(),
                journal,
                _lock: lock,
            },
            proc,
            recovery: Recovery {
                snapshot_pos: snap.journal_pos,
                replayed: tail.records,
                net_events: net.len(),
                truncated_bytes,
                counts_restored,
            },
        })
    }

    /// What recovery did when this handle was opened (zeroes after `init`).
    pub fn recovery(&self) -> Recovery {
        self.recovery
    }

    /// The underlying processor.
    pub fn processor(&self) -> &UpdateProcessor {
        &self.proc
    }

    /// The storage half.
    pub fn store(&self) -> &DurableStore {
        &self.store
    }

    /// Parses a transaction against this database.
    pub fn transaction(&self, src: &str) -> dduf_core::Result<Transaction> {
        self.proc.transaction(src)
    }

    /// Commits a transaction durably: the upward interpretation is
    /// evaluated, the event record is fsynced to the journal, and only
    /// then does the in-memory state change (write-ahead ordering). On an
    /// append error nothing moved: disk and memory still agree on the
    /// old state.
    pub fn commit(&mut self, txn: &Transaction) -> Result<UpwardResult> {
        let store = &mut self.store;
        self.proc
            .commit_with_hook(txn, &mut |t| store.record_commit(t))
            .map_err(PersistError::Core)
    }

    /// Writes a snapshot covering the whole journal so far (plus the
    /// maintenance state, so the next open restores instead of
    /// recomputing); returns the covered journal position.
    pub fn checkpoint(&mut self) -> Result<u64> {
        self.store
            .checkpoint_with_maint(self.proc.database(), self.proc.maintenance())
    }

    /// Splits into processor + store, for frontends (the `dduf` shell)
    /// that own the processor themselves.
    pub fn into_parts(self) -> (UpdateProcessor, DurableStore) {
        (self.proc, self.store)
    }
}

/// The result of [`verify`]: everything a checksum scan can establish
/// without replaying.
#[derive(Clone, Debug)]
pub struct VerifyReport {
    /// Journal byte offset the snapshot covers.
    pub snapshot_pos: u64,
    /// Extensional facts in the snapshot.
    pub snapshot_facts: usize,
    /// Intact journal records (whole file).
    pub records: usize,
    /// Records past the snapshot position (replayed on next open).
    pub tail_records: usize,
    /// Bytes of intact journal (where the next append goes).
    pub journal_end: u64,
    /// A torn final record, if the journal ends mid-record.
    pub torn: Option<TornTail>,
}

/// Verifies a durable database without opening it for writing: the
/// snapshot must parse and pass its checksum, every journal record —
/// including the history the snapshot covers, which open never reads —
/// must pass its checksum and re-parse as event syntax, and the
/// snapshot's position must be where a record starts (or where the last
/// one ends). A torn final record is reported (it is recoverable);
/// mid-log corruption and a bad position are the usual hard errors.
///
/// The journal is checked record-by-record via [`journal::scan_records`]
/// with bounded buffering — no payload is retained after its check — so a
/// journal much larger than memory verifies on a small machine.
pub fn verify(dir: impl AsRef<Path>) -> Result<VerifyReport> {
    let dir = dir.as_ref();
    let snap = snapshot::read(dir)?;
    let journal_path = dir.join(JOURNAL_FILE);
    if !journal_path.exists() {
        return Err(PersistError::NotADatabase(dir.display().to_string()));
    }
    let pos = snap.journal_pos;
    let mut tail_records = 0usize;
    let mut boundary = journal::Boundary::new(pos);
    let summary = journal::scan_records(&journal_path, FIRST_RECORD, &mut |rec| {
        dduf_datalog::parser::parse_events(&rec.payload).map_err(|e| PersistError::Corrupt {
            path: journal_path.display().to_string(),
            from: FIRST_RECORD,
            record: rec.index,
            offset: rec.offset,
            detail: format!("payload is not event syntax: {e}"),
        })?;
        if rec.offset >= pos {
            tail_records += 1;
        }
        boundary.visit(&rec);
        Ok(())
    })?;
    boundary.check(&journal_path, summary.end)?;
    Ok(VerifyReport {
        snapshot_pos: pos,
        snapshot_facts: snap.db.fact_count(),
        records: summary.records,
        tail_records,
        journal_end: summary.end,
        torn: summary.torn,
    })
}

/// Reads the whole journal for display: the snapshot's covered position
/// plus every record, the covered history included. Used by `dduf db
/// log` and by audits that compare the history with what was committed.
pub fn read_log(dir: impl AsRef<Path>) -> Result<(u64, Scan)> {
    let dir = dir.as_ref();
    let snap = snapshot::read(dir)?;
    let journal_path = dir.join(JOURNAL_FILE);
    if !journal_path.exists() {
        return Err(PersistError::NotADatabase(dir.display().to_string()));
    }
    Ok((snap.journal_pos, journal::scan(&journal_path)?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dduf_datalog::ast::Pred;

    const SCHEMA: &str = "la(dolors). u_benefit(dolors).
        unemp(X) :- la(X), not works(X).
        :- unemp(X), not u_benefit(X).";

    fn tmpdir(name: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("dduf_persist_{}_{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn init_commit_reopen() {
        let dir = tmpdir("basic");
        let mut db = DurableDb::init(&dir, SCHEMA).unwrap();
        let txn = db.transaction("+works(dolors).").unwrap();
        let res = db.commit(&txn).unwrap();
        assert_eq!(res.derived.to_string(), "{-unemp(dolors)}");
        drop(db);

        let db = DurableDb::open(&dir).unwrap();
        assert_eq!(db.recovery().replayed, 1);
        assert_eq!(db.recovery().net_events, 1);
        assert!(db
            .processor()
            .state()
            .relation(Pred::new("works", 1))
            .len()
            .eq(&1));
        assert!(db
            .processor()
            .interpretation()
            .relation(Pred::new("unemp", 1))
            .is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpoint_limits_replay() {
        let dir = tmpdir("checkpoint");
        let mut db = DurableDb::init(&dir, SCHEMA).unwrap();
        let t1 = db.transaction("+la(ana).").unwrap();
        db.commit(&t1).unwrap();
        db.checkpoint().unwrap();
        let t2 = db.transaction("+works(ana).").unwrap();
        db.commit(&t2).unwrap();
        drop(db);

        let db = DurableDb::open(&dir).unwrap();
        assert_eq!(db.recovery().replayed, 1, "only the post-snapshot tail");
        assert_eq!(db.processor().database().fact_count(), 4);
        let report = verify(&dir).unwrap();
        assert_eq!(report.records, 2);
        assert_eq!(report.tail_records, 1);
        assert!(report.torn.is_none());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn init_refuses_existing() {
        let dir = tmpdir("existing");
        DurableDb::init(&dir, SCHEMA).unwrap();
        assert!(matches!(
            DurableDb::init(&dir, SCHEMA),
            Err(PersistError::AlreadyExists(_))
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn open_missing_is_not_a_database() {
        let dir = tmpdir("missing");
        assert!(matches!(
            DurableDb::open(&dir),
            Err(PersistError::NotADatabase(_))
        ));
    }

    #[test]
    fn serialize_round_trips_through_parse() {
        let dir = tmpdir("serialize");
        let db = DurableDb::init(&dir, SCHEMA).unwrap();
        let txn = db
            .transaction("+works(ana). -u_benefit(dolors). +la('Señor X').")
            .unwrap();
        let src = serialize_transaction(&txn);
        let txn2 = db.transaction(&src).unwrap();
        assert_eq!(txn, txn2, "serialized form {src:?}");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
