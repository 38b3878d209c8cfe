//! Recovery reads only the journal tail (DESIGN.md §9.3).
//!
//! A snapshot is the state after every record before its `journal_pos`,
//! so opening a database must cost the records after it, not the history
//! before it. The gate: two databases whose histories differ a hundredfold
//! (1k and 100k cancelling `+la(x)` / `-la(x)` pairs) and whose tails are
//! the same 50 commits. On open, the deterministic `journal.scan` counters
//! must be identical for both and equal the tail's records and bytes;
//! recovery must replay exactly the tail and land on the committed state.

use dduf::datalog::pretty;
use dduf::persist::{verify, DurableDb};
use dduf::prelude::*;
use std::path::PathBuf;

const SCHEMA: &str = "la(dolors). u_benefit(dolors).
unemp(X) :- la(X), not works(X).
needy(X) :- la(X), not works(X), not u_benefit(X).
";

const TAIL_COMMITS: usize = 50;

/// Payloads per batched append while writing the history.
const BATCH: usize = 10_000;

fn fingerprint(proc: &UpdateProcessor) -> String {
    format!(
        "{}--\n{}",
        pretty::database(proc.database()),
        pretty::derived(proc.interpretation())
    )
}

/// What one database's open read and replayed.
struct Opened {
    scan_records: u64,
    scan_bytes: u64,
    replayed: u64,
    tail_bytes: u64,
}

/// Builds a database with `pairs` cancelling pairs of history, a
/// checkpoint, and the 50 tail commits; reopens it and reports what the
/// open read.
fn build_and_reopen(pairs: usize) -> Opened {
    let dir: PathBuf =
        std::env::temp_dir().join(format!("dduf_recovery_tail_{}_{pairs}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (mut proc, mut store) = DurableDb::init(&dir, SCHEMA).unwrap().into_parts();

    // History: each pair inserts and deletes the same fact, so the state
    // it leaves is the initial one and the processor needs no replay.
    let history: Vec<String> = (0..pairs)
        .flat_map(|i| [format!("+la(h{i})."), format!("-la(h{i}).")])
        .collect();
    for batch in history.chunks(BATCH) {
        store.record_commit_batch(batch).unwrap();
    }
    let snapshot_pos = store
        .checkpoint_with_maint(proc.database(), proc.maintenance())
        .unwrap();

    for i in 0..TAIL_COMMITS {
        let src = match i % 3 {
            0 => format!("+la(t{i})."),
            1 => format!("+works(t{}).", i - 1),
            _ => format!("-u_benefit(dolors). +la(s{i})."),
        };
        let txn = proc.transaction(&src).unwrap();
        proc.commit_with_hook(&txn, &mut |t| store.record_commit(t))
            .unwrap();
    }
    let tail_bytes = store.journal_end() - snapshot_pos;
    let committed = fingerprint(&proc);
    drop((proc, store));

    let (db, report) = dduf::obs::capture(|| DurableDb::open(&dir).unwrap());
    assert_eq!(
        fingerprint(db.processor()),
        committed,
        "{pairs} pairs: recovered state differs from the committed one"
    );
    assert_eq!(db.recovery().snapshot_pos, snapshot_pos);
    drop(db);

    // The history is still on disk, whole, for the audits that read it.
    let checked = verify(&dir).unwrap();
    assert_eq!(checked.records, 2 * pairs + TAIL_COMMITS);
    assert_eq!(checked.tail_records, TAIL_COMMITS);
    std::fs::remove_dir_all(&dir).unwrap();

    Opened {
        scan_records: report.counter("journal.scan", "", "records"),
        scan_bytes: report.counter("journal.scan", "", "bytes"),
        replayed: report.counter("recovery.open", "", "replayed"),
        tail_bytes,
    }
}

#[test]
fn open_reads_the_tail_whatever_the_history() {
    let small = build_and_reopen(1_000);
    let large = build_and_reopen(100_000);
    for (pairs, opened) in [(1_000, &small), (100_000, &large)] {
        assert_eq!(opened.replayed, TAIL_COMMITS as u64, "{pairs} pairs");
        assert_eq!(
            opened.scan_records, TAIL_COMMITS as u64,
            "{pairs} pairs: open scanned records the snapshot covers"
        );
        assert_eq!(
            opened.scan_bytes, opened.tail_bytes,
            "{pairs} pairs: open read bytes the snapshot covers"
        );
    }
    assert_eq!(
        (small.scan_records, small.scan_bytes),
        (large.scan_records, large.scan_bytes),
        "open's reads must not grow with the history"
    );
}
