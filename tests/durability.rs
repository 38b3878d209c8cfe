//! Crash-injection suite for the persistence subsystem (DESIGN.md §9).
//!
//! The kill-anywhere contract: commit N transactions, then simulate a
//! crash by truncating the journal at **every byte offset** of the final
//! record — reopening must recover exactly the N−1 prefix, never a
//! partial transaction. And the converse: damage *inside* the log (a
//! flipped byte) must be a hard corruption error naming the record, not a
//! silent truncation of acknowledged commits.

use dduf::datalog::pretty;
use dduf::persist::{journal, DurableDb, PersistError, JOURNAL_FILE, SNAPSHOT_FILE};
use dduf::prelude::*;
use std::path::{Path, PathBuf};

const SCHEMA: &str = "la(dolors). u_benefit(dolors).
unemp(X) :- la(X), not works(X).
needy(X) :- la(X), not works(X), not u_benefit(X).
";

const TXNS: [&str; 4] = [
    "+la(ana). +works(ana).",
    "+works(dolors).",
    "-u_benefit(dolors). +la(eva).",
    "+u_benefit(eva). -works(ana).",
];

fn tmpdir(name: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("dduf_durab_{}_{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// A canonical fingerprint of the full state: extensional database plus
/// materialized derived relations, both in deterministic pretty syntax.
fn fingerprint(proc: &UpdateProcessor) -> String {
    format!(
        "{}--\n{}",
        pretty::database(proc.database()),
        pretty::derived(proc.interpretation())
    )
}

/// The expected fingerprint after committing the first `k` transactions,
/// computed by a plain in-memory processor (no persistence involved).
fn reference_fingerprint(k: usize) -> String {
    let mut proc = UpdateProcessor::new(parse_database(SCHEMA).unwrap()).unwrap();
    for src in &TXNS[..k] {
        let txn = proc.transaction(src).unwrap();
        proc.commit(&txn).unwrap();
    }
    fingerprint(&proc)
}

/// Why open recomputed the maintenance state instead of restoring it:
/// the one reason `counts.persist` counted beside `recompute`, or `None`
/// when it restored.
fn fallback_reason(report: &dduf::obs::Report) -> Option<&'static str> {
    let reasons: Vec<&'static str> = ["missing", "stale", "damaged", "mismatch"]
        .into_iter()
        .filter(|r| report.total("counts.persist", r) > 0)
        .collect();
    assert!(reasons.len() <= 1, "more than one reason: {reasons:?}");
    assert_eq!(
        report.total("counts.persist", "recompute"),
        reasons.len() as u64,
        "a recompute counts exactly one reason"
    );
    reasons.first().copied()
}

/// Copies a durable database, truncating its journal to `cut` bytes —
/// the on-disk picture a crash at that byte would leave.
fn crashed_copy(src_dir: &Path, name: &str, cut: u64) -> PathBuf {
    let dst = tmpdir(name);
    std::fs::create_dir_all(&dst).unwrap();
    std::fs::copy(src_dir.join(SNAPSHOT_FILE), dst.join(SNAPSHOT_FILE)).unwrap();
    let mut bytes = std::fs::read(src_dir.join(JOURNAL_FILE)).unwrap();
    bytes.truncate(cut as usize);
    std::fs::write(dst.join(JOURNAL_FILE), bytes).unwrap();
    dst
}

#[test]
fn kill_anywhere_recovers_longest_committed_prefix() {
    let dir = tmpdir("kill_anywhere");
    let mut db = DurableDb::init(&dir, SCHEMA).unwrap();
    for src in TXNS {
        let txn = db.transaction(src).unwrap();
        db.commit(&txn).unwrap();
    }
    let full = fingerprint(db.processor());
    assert_eq!(full, reference_fingerprint(TXNS.len()));
    drop(db);

    let journal_path = dir.join(JOURNAL_FILE);
    let scan = journal::scan(&journal_path).unwrap();
    assert_eq!(scan.records.len(), TXNS.len());
    let last_start = scan.records.last().unwrap().offset;
    let file_len = std::fs::metadata(&journal_path).unwrap().len();
    assert_eq!(scan.end, file_len);
    let expect_prefix = reference_fingerprint(TXNS.len() - 1);

    // Crash at every byte of the final record: header bytes, payload
    // bytes, everything — including `cut == last_start` (crash before the
    // first byte landed).
    for cut in last_start..file_len {
        let crash = crashed_copy(&dir, &format!("cut{cut}"), cut);
        let recovered = DurableDb::open(&crash).unwrap();
        assert_eq!(
            fingerprint(recovered.processor()),
            expect_prefix,
            "cut at byte {cut}: state must equal the N-1 prefix"
        );
        assert_eq!(recovered.recovery().replayed, TXNS.len() - 1);
        let torn_bytes = cut - last_start;
        assert_eq!(recovered.recovery().truncated_bytes, torn_bytes);
        // The torn bytes are physically gone: the journal is clean again.
        drop(recovered);
        assert_eq!(
            std::fs::metadata(crash.join(JOURNAL_FILE)).unwrap().len(),
            last_start,
            "cut at byte {cut}: torn tail must be truncated"
        );
        // And the database is fully usable: re-commit the lost
        // transaction and get the original final state back.
        let mut db = DurableDb::open(&crash).unwrap();
        let txn = db.transaction(TXNS[TXNS.len() - 1]).unwrap();
        db.commit(&txn).unwrap();
        assert_eq!(fingerprint(db.processor()), full, "cut at byte {cut}");
        std::fs::remove_dir_all(&crash).unwrap();
    }

    // A cut exactly at the end of the file is no crash at all.
    let whole = crashed_copy(&dir, "cut_none", file_len);
    let recovered = DurableDb::open(&whole).unwrap();
    assert_eq!(fingerprint(recovered.processor()), full);
    assert_eq!(recovered.recovery().truncated_bytes, 0);
    std::fs::remove_dir_all(&whole).unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn batched_append_crash_recovers_clean_record_prefix() {
    let dir = tmpdir("batch");
    let mut db = DurableDb::init(&dir, SCHEMA).unwrap();
    let txn = db.transaction(TXNS[0]).unwrap();
    db.commit(&txn).unwrap();
    drop(db); // releases dduf.lock — we drive the journal directly below

    // Serialize TXNS[1..] exactly as the server's group commit does: one
    // staged processor, one payload per transaction, one batched append
    // (single fsync) covering all of them.
    let mut staged = UpdateProcessor::new(parse_database(SCHEMA).unwrap()).unwrap();
    let txn0 = staged.transaction(TXNS[0]).unwrap();
    staged.commit(&txn0).unwrap();
    let mut payloads = Vec::new();
    for src in &TXNS[1..] {
        let txn = staged.transaction(src).unwrap();
        payloads.push(dduf::persist::serialize_transaction(&txn));
        staged.commit(&txn).unwrap();
    }

    let journal_path = dir.join(JOURNAL_FILE);
    let (mut j, scan) =
        journal::Journal::open(&journal_path, journal::FIRST_RECORD, &mut |_| Ok(())).unwrap();
    assert_eq!(scan.records, 1);
    let batch_start = j.end();
    j.append_batch(&payloads).unwrap();
    drop(j);

    let scan = journal::scan(&journal_path).unwrap();
    assert_eq!(scan.records.len(), TXNS.len());
    let file_len = std::fs::metadata(&journal_path).unwrap().len();
    assert_eq!(scan.end, file_len);
    // End offset of each batch record: the next record's start, or EOF.
    let ends: Vec<u64> = scan
        .records
        .iter()
        .enumerate()
        .filter(|(_, r)| r.offset >= batch_start)
        .map(|(i, _)| scan.records.get(i + 1).map_or(file_len, |n| n.offset))
        .collect();

    // Crash at every byte of the batch region: recovery must land on a
    // clean whole-record prefix of the batch — the durability contract
    // does not change because many records shared one fsync.
    for cut in batch_start..=file_len {
        let complete = ends.iter().filter(|&&e| e <= cut).count();
        let boundary = ends
            .iter()
            .filter(|&&e| e <= cut)
            .max()
            .copied()
            .unwrap_or(batch_start);
        let crash = crashed_copy(&dir, &format!("bcut{cut}"), cut);
        let recovered = DurableDb::open(&crash).unwrap();
        assert_eq!(
            fingerprint(recovered.processor()),
            reference_fingerprint(1 + complete),
            "cut at byte {cut}: state must equal the {complete}-record batch prefix"
        );
        assert_eq!(recovered.recovery().replayed, 1 + complete);
        assert_eq!(recovered.recovery().truncated_bytes, cut - boundary);
        drop(recovered);
        assert_eq!(
            std::fs::metadata(crash.join(JOURNAL_FILE)).unwrap().len(),
            boundary,
            "cut at byte {cut}: torn batch tail must be truncated"
        );
        std::fs::remove_dir_all(&crash).unwrap();
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Copies a durable database including its counts sidecar, truncating
/// the journal to `cut` bytes — the on-disk picture a crash at that
/// byte would leave on a checkpointed database.
fn crashed_copy_with_counts(src_dir: &Path, name: &str, cut: u64) -> PathBuf {
    let dst = crashed_copy(src_dir, name, cut);
    std::fs::copy(
        src_dir.join(dduf::persist::COUNTS_FILE),
        dst.join(dduf::persist::COUNTS_FILE),
    )
    .unwrap();
    dst
}

/// The pipelined writer's journal shape: after a checkpoint, two
/// consecutive `append_batch` calls (batch N fsynced while batch N+1
/// was staging). Crash at **every byte** of that two-batch tail:
/// recovery must land on a clean whole-record prefix, and the counts
/// sidecar written by the checkpoint must keep restoring at every cut
/// — the torn tail is after the snapshot position, so it never
/// invalidates the persisted support counts.
#[test]
fn pipelined_two_batch_tail_crash_sweep_keeps_counts_restore() {
    let dir = tmpdir("pipe_tail");
    let mut db = DurableDb::init(&dir, SCHEMA).unwrap();
    let txn = db.transaction(TXNS[0]).unwrap();
    db.commit(&txn).unwrap();
    db.checkpoint().unwrap();
    drop(db); // releases dduf.lock — we drive the journal directly below

    // Serialize TXNS[1..] exactly as the pipelined writer does: staged
    // serially on one processor, split across two batched appends
    // (TXNS[1..3] fsync together, then TXNS[3] in the next batch).
    let mut staged = UpdateProcessor::new(parse_database(SCHEMA).unwrap()).unwrap();
    let txn0 = staged.transaction(TXNS[0]).unwrap();
    staged.commit(&txn0).unwrap();
    let mut payloads = Vec::new();
    for src in &TXNS[1..] {
        let txn = staged.transaction(src).unwrap();
        payloads.push(dduf::persist::serialize_transaction(&txn));
        staged.commit(&txn).unwrap();
    }

    let journal_path = dir.join(JOURNAL_FILE);
    let (mut j, scan) =
        journal::Journal::open(&journal_path, journal::FIRST_RECORD, &mut |_| Ok(())).unwrap();
    assert_eq!(scan.records, 1);
    let tail_start = j.end();
    j.append_batch(&payloads[..2]).unwrap();
    j.append_batch(&payloads[2..]).unwrap();
    drop(j);

    let scan = journal::scan(&journal_path).unwrap();
    assert_eq!(scan.records.len(), TXNS.len());
    let file_len = std::fs::metadata(&journal_path).unwrap().len();
    assert_eq!(scan.end, file_len);
    // End offset of each tail record: the next record's start, or EOF.
    let ends: Vec<u64> = scan
        .records
        .iter()
        .enumerate()
        .filter(|(_, r)| r.offset >= tail_start)
        .map(|(i, _)| scan.records.get(i + 1).map_or(file_len, |n| n.offset))
        .collect();
    assert_eq!(ends.len(), 3);

    for cut in tail_start..=file_len {
        let complete = ends.iter().filter(|&&e| e <= cut).count();
        let boundary = ends
            .iter()
            .filter(|&&e| e <= cut)
            .max()
            .copied()
            .unwrap_or(tail_start);
        let crash = crashed_copy_with_counts(&dir, &format!("pcut{cut}"), cut);
        let recovered = DurableDb::open(&crash).unwrap();
        assert_eq!(
            fingerprint(recovered.processor()),
            reference_fingerprint(1 + complete),
            "cut at byte {cut}: state must equal the {complete}-record tail prefix"
        );
        assert_eq!(recovered.recovery().replayed, complete, "cut {cut}");
        assert_eq!(recovered.recovery().truncated_bytes, cut - boundary);
        assert!(
            recovered.recovery().counts_restored,
            "cut at byte {cut}: a torn tail after the snapshot must not \
             invalidate the counts sidecar"
        );
        drop(recovered);
        assert_eq!(
            std::fs::metadata(crash.join(JOURNAL_FILE)).unwrap().len(),
            boundary,
            "cut at byte {cut}: torn tail must be truncated"
        );
        std::fs::remove_dir_all(&crash).unwrap();
    }

    // A torn tail *and* a damaged counts file together: recovery falls
    // back to the recompute and still lands on the exact prefix state.
    let mid_batch = ends[0] + (ends[1] - ends[0]) / 2;
    let crash = crashed_copy_with_counts(&dir, "pcut_nocounts", mid_batch);
    let counts_path = crash.join(dduf::persist::COUNTS_FILE);
    let counts_bytes = std::fs::read(&counts_path).unwrap();
    std::fs::write(&counts_path, &counts_bytes[..counts_bytes.len() / 2]).unwrap();
    let recovered = DurableDb::open(&crash).unwrap();
    assert!(
        !recovered.recovery().counts_restored,
        "damaged counts must fall back to recompute"
    );
    assert_eq!(fingerprint(recovered.processor()), reference_fingerprint(2));
    drop(recovered);
    std::fs::remove_dir_all(&crash).unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn midlog_byte_flip_is_a_named_corruption_error() {
    let dir = tmpdir("flip");
    let mut db = DurableDb::init(&dir, SCHEMA).unwrap();
    for src in TXNS {
        let txn = db.transaction(src).unwrap();
        db.commit(&txn).unwrap();
    }
    drop(db);
    let journal_path = dir.join(JOURNAL_FILE);
    let clean = std::fs::read(&journal_path).unwrap();
    let scan = journal::scan(&journal_path).unwrap();

    // Flip one payload byte of record 1 (mid-log: records 2 and 3 follow).
    let target = scan.records[1].offset as usize + journal::RECORD_HEADER + 3;
    let mut bytes = clean.clone();
    bytes[target] ^= 0x20;
    std::fs::write(&journal_path, &bytes).unwrap();
    match DurableDb::open(&dir) {
        Err(PersistError::Corrupt { record, detail, .. }) => {
            assert_eq!(record, 1, "error must name the damaged record");
            assert!(detail.contains("checksum mismatch"), "{detail}");
        }
        other => panic!("expected corruption at record 1, got {other:?}"),
    }
    // verify() sees the same damage; its rendering names the record.
    let err = dduf::persist::verify(&dir).unwrap_err();
    assert!(err.render().contains("record 1"), "{}", err.render());

    // Flipping a *checksum* byte (record 2's stored CRC) is also corruption.
    let mut bytes = clean.clone();
    bytes[scan.records[2].offset as usize + 5] ^= 0xFF;
    std::fs::write(&journal_path, &bytes).unwrap();
    match DurableDb::open(&dir) {
        Err(PersistError::Corrupt { record, .. }) => assert_eq!(record, 2),
        other => panic!("expected corruption at record 2, got {other:?}"),
    }

    // Restore the clean bytes: everything opens again.
    std::fs::write(&journal_path, &clean).unwrap();
    let db = DurableDb::open(&dir).unwrap();
    assert_eq!(
        fingerprint(db.processor()),
        reference_fingerprint(TXNS.len())
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The same damage after a checkpoint: open scans from the snapshot's
/// position, so the error counts records from there and says so, while
/// `verify` names the same bytes counted from the first record.
#[test]
fn midlog_byte_flip_after_a_checkpoint_is_a_named_corruption_error() {
    let dir = tmpdir("flip_ckpt");
    let mut db = DurableDb::init(&dir, SCHEMA).unwrap();
    let txn = db.transaction(TXNS[0]).unwrap();
    db.commit(&txn).unwrap();
    let pos = db.checkpoint().unwrap();
    for src in &TXNS[1..] {
        let txn = db.transaction(src).unwrap();
        db.commit(&txn).unwrap();
    }
    drop(db);
    let journal_path = dir.join(JOURNAL_FILE);
    let clean = std::fs::read(&journal_path).unwrap();
    let scan = journal::scan(&journal_path).unwrap();
    assert_eq!(scan.records[1].offset, pos);

    // Flip one payload byte of record 2: the tail's record 1, and record 3
    // follows it.
    let damaged = scan.records[2].offset;
    let mut bytes = clean.clone();
    bytes[damaged as usize + journal::RECORD_HEADER + 3] ^= 0x20;
    std::fs::write(&journal_path, &bytes).unwrap();
    let err = DurableDb::open(&dir).unwrap_err();
    match &err {
        PersistError::Corrupt {
            from,
            record,
            offset,
            detail,
            ..
        } => {
            assert_eq!(*from, pos, "open scans from the snapshot's position");
            assert_eq!(*record, 1, "counted from the snapshot's position");
            assert_eq!(*offset, damaged);
            assert!(detail.contains("checksum mismatch"), "{detail}");
        }
        other => panic!("expected corruption at tail record 1, got {other:?}"),
    }
    let rendered = err.render();
    assert!(
        rendered.contains(&format!("record 1 (byte {damaged})")),
        "{rendered}"
    );
    assert!(
        rendered.contains(&format!("started at byte {pos}, the snapshot's position")),
        "{rendered}"
    );
    match dduf::persist::verify(&dir) {
        Err(PersistError::Corrupt {
            from,
            record,
            offset,
            ..
        }) => {
            assert_eq!(from, journal::FIRST_RECORD);
            assert_eq!((record, offset), (2, damaged));
        }
        other => panic!("expected verify to name record 2, got {other:?}"),
    }

    // The stored checksum of the tail's last record: also corruption.
    let mut bytes = clean.clone();
    bytes[scan.records[3].offset as usize + 5] ^= 0xFF;
    std::fs::write(&journal_path, &bytes).unwrap();
    match DurableDb::open(&dir) {
        Err(PersistError::Corrupt { record, offset, .. }) => {
            assert_eq!((record, offset), (2, scan.records[3].offset))
        }
        other => panic!("expected corruption at tail record 2, got {other:?}"),
    }

    std::fs::write(&journal_path, &clean).unwrap();
    let db = DurableDb::open(&dir).unwrap();
    assert_eq!(
        fingerprint(db.processor()),
        reference_fingerprint(TXNS.len())
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Damage inside the history a snapshot covers: open never reads those
/// bytes and recovers the full state; `verify` reads the whole journal and
/// fails naming the damaged record.
#[test]
fn covered_history_damage_opens_and_fails_verify() {
    let dir = tmpdir("flip_covered");
    let mut db = DurableDb::init(&dir, SCHEMA).unwrap();
    for src in &TXNS[..2] {
        let txn = db.transaction(src).unwrap();
        db.commit(&txn).unwrap();
    }
    let pos = db.checkpoint().unwrap();
    for src in &TXNS[2..] {
        let txn = db.transaction(src).unwrap();
        db.commit(&txn).unwrap();
    }
    let end = db.store().journal_end();
    drop(db);
    let journal_path = dir.join(JOURNAL_FILE);
    let mut bytes = std::fs::read(&journal_path).unwrap();
    bytes[journal::FIRST_RECORD as usize + journal::RECORD_HEADER + 1] ^= 0x40;
    std::fs::write(&journal_path, &bytes).unwrap();

    let (db, report) = dduf::obs::capture(|| DurableDb::open(&dir).unwrap());
    assert_eq!(
        fingerprint(db.processor()),
        reference_fingerprint(TXNS.len())
    );
    assert_eq!(db.recovery().replayed, 2);
    assert_eq!(report.counter("journal.scan", "", "records"), 2);
    assert_eq!(report.counter("journal.scan", "", "bytes"), end - pos);
    drop(db);
    assert_eq!(
        std::fs::read(&journal_path).unwrap(),
        bytes,
        "open wrote nothing"
    );

    let err = dduf::persist::verify(&dir).unwrap_err();
    match &err {
        PersistError::Corrupt { record, detail, .. } => {
            assert_eq!(*record, 0, "verify must name the damaged record");
            assert!(detail.contains("checksum mismatch"), "{detail}");
        }
        other => panic!("expected corruption at record 0, got {other:?}"),
    }
    assert!(err.render().contains("record 0"), "{}", err.render());
    assert!(dduf::persist::read_log(&dir).is_err());
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Rewrites the `journal_pos` field of a snapshot's header. The header is
/// outside the body checksum, so the snapshot still reads back.
fn set_snapshot_pos(dir: &Path, pos: u64) {
    let path = dir.join(SNAPSHOT_FILE);
    let content = std::fs::read_to_string(&path).unwrap();
    let (header, body) = content.split_once('\n').unwrap();
    let header: Vec<String> = header
        .split(' ')
        .map(|field| match field.strip_prefix("journal_pos=") {
            Some(_) => format!("journal_pos={pos}"),
            None => field.to_string(),
        })
        .collect();
    std::fs::write(&path, format!("{}\n{body}", header.join(" "))).unwrap();
}

/// A snapshot position that does not start a record — one byte past the
/// true one, inside the record before it, past the end of the journal, or
/// any other byte that no record starts at — is a hard error naming the
/// position, from open and from `verify`. Open must neither skip a
/// committed record nor truncate one as if it were a torn tail.
#[test]
fn snapshot_position_off_a_record_boundary_is_a_hard_error() {
    let dir = tmpdir("badpos");
    let mut db = DurableDb::init(&dir, SCHEMA).unwrap();
    for src in &TXNS[..2] {
        let txn = db.transaction(src).unwrap();
        db.commit(&txn).unwrap();
    }
    let pos = db.checkpoint().unwrap();
    let txn = db.transaction(TXNS[2]).unwrap();
    db.commit(&txn).unwrap();
    drop(db);
    let journal_path = dir.join(JOURNAL_FILE);
    let clean = std::fs::read(&journal_path).unwrap();
    let scan = journal::scan(&journal_path).unwrap();
    let boundaries: Vec<u64> = scan
        .records
        .iter()
        .map(|r| r.offset)
        .chain([scan.end])
        .collect();
    let inside_previous = scan.records[1].offset + journal::RECORD_HEADER as u64 + 2;
    assert!(inside_previous < pos);
    let named = [pos + 1, inside_previous, scan.end + 100];
    let every_other = (0..=scan.end + 1).filter(|p| !boundaries.contains(p));
    for bad in named.into_iter().chain(every_other) {
        set_snapshot_pos(&dir, bad);
        match DurableDb::open(&dir) {
            Err(e @ PersistError::BadPosition { .. }) => {
                assert!(
                    e.render().contains(&format!("byte {bad}")),
                    "journal_pos={bad}: {}",
                    e.render()
                );
            }
            Err(other) => panic!("journal_pos={bad}: expected BadPosition, got {other:?}"),
            Ok(db) => panic!(
                "journal_pos={bad}: opened with {} replayed record(s)",
                db.recovery().replayed
            ),
        }
        assert_eq!(
            std::fs::read(&journal_path).unwrap(),
            clean,
            "journal_pos={bad}: open must not truncate the journal"
        );
        match dduf::persist::verify(&dir) {
            Err(PersistError::BadPosition { pos, .. }) => assert_eq!(pos, bad),
            other => panic!("journal_pos={bad}: verify must report it, got {other:?}"),
        }
    }

    // The true position opens with every acknowledged commit.
    set_snapshot_pos(&dir, pos);
    let db = DurableDb::open(&dir).unwrap();
    assert_eq!(db.recovery().replayed, 1);
    assert_eq!(fingerprint(db.processor()), reference_fingerprint(3));
    drop(db);
    assert!(dduf::persist::verify(&dir).is_ok());
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn checkpoint_then_crash_recovers_through_snapshot_plus_tail() {
    let dir = tmpdir("ckpt");
    let mut db = DurableDb::init(&dir, SCHEMA).unwrap();
    for src in &TXNS[..2] {
        let txn = db.transaction(src).unwrap();
        db.commit(&txn).unwrap();
    }
    db.checkpoint().unwrap();
    for src in &TXNS[2..] {
        let txn = db.transaction(src).unwrap();
        db.commit(&txn).unwrap();
    }
    drop(db);

    let journal_path = dir.join(JOURNAL_FILE);
    let scan = journal::scan(&journal_path).unwrap();
    let last_start = scan.records.last().unwrap().offset;
    // Crash mid-final-record, after the checkpoint.
    let crash = crashed_copy(&dir, "ckpt_cut", last_start + 3);
    let recovered = DurableDb::open(&crash).unwrap();
    assert_eq!(fingerprint(recovered.processor()), reference_fingerprint(3));
    assert_eq!(recovered.recovery().replayed, 1, "snapshot covers 2 of 3");
    std::fs::remove_dir_all(&crash).unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn oversized_append_fails_cleanly_with_no_bytes_written() {
    let dir = tmpdir("oversized");
    let mut db = DurableDb::init(&dir, SCHEMA).unwrap();
    let txn = db.transaction(TXNS[0]).unwrap();
    db.commit(&txn).unwrap();
    drop(db);

    let journal_path = dir.join(JOURNAL_FILE);
    let before = std::fs::read(&journal_path).unwrap();
    let (mut j, scan) =
        journal::Journal::open(&journal_path, journal::FIRST_RECORD, &mut |_| Ok(())).unwrap();
    assert_eq!(scan.records, 1);

    let oversized = "x".repeat(journal::MAX_RECORD as usize + 1);
    match j.append(&oversized) {
        Err(PersistError::RecordTooLarge { bytes, max, .. }) => {
            assert_eq!(bytes, journal::MAX_RECORD as u64 + 1);
            assert_eq!(max, journal::MAX_RECORD);
        }
        other => panic!("expected RecordTooLarge, got {other:?}"),
    }
    drop(j);
    drop(oversized);

    // Not a single byte hit disk — the journal is byte-for-byte what it
    // was before the rejected append, and the database stays fully
    // usable: reopen, commit the next transaction, state is exact.
    assert_eq!(std::fs::read(&journal_path).unwrap(), before);
    let mut db = DurableDb::open(&dir).unwrap();
    assert_eq!(fingerprint(db.processor()), reference_fingerprint(1));
    let txn = db.transaction(TXNS[1]).unwrap();
    db.commit(&txn).unwrap();
    assert_eq!(fingerprint(db.processor()), reference_fingerprint(2));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn preexisting_oversized_record_is_reported_corrupt_not_allocated() {
    let dir = tmpdir("implausible");
    let mut db = DurableDb::init(&dir, SCHEMA).unwrap();
    let txn = db.transaction(TXNS[0]).unwrap();
    db.commit(&txn).unwrap();
    drop(db);

    // Hand-frame the record a pre-cap writer could have produced: a
    // length prefix over MAX_RECORD. The scanner must reject it as
    // corruption (naming the record) *before* allocating a body buffer —
    // and must not mistake it for a recoverable torn tail.
    let journal_path = dir.join(JOURNAL_FILE);
    let mut bytes = std::fs::read(&journal_path).unwrap();
    bytes.extend_from_slice(&(journal::MAX_RECORD + 1).to_le_bytes());
    bytes.extend_from_slice(&0u32.to_le_bytes());
    std::fs::write(&journal_path, &bytes).unwrap();

    match DurableDb::open(&dir) {
        Err(PersistError::Corrupt { record, detail, .. }) => {
            assert_eq!(record, 1, "error must name the oversized record");
            assert!(detail.contains("implausible record length"), "{detail}");
        }
        other => panic!("expected corruption at record 1, got {other:?}"),
    }
    let err = dduf::persist::verify(&dir).unwrap_err();
    assert!(err.render().contains("record 1"), "{}", err.render());
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A clean checkpoint persists the maintenance state; reopening
/// restores the support counts instead of recomputing them, and the
/// restored engine keeps committing correctly.
#[test]
fn counts_restore_after_checkpoint_skips_the_recompute() {
    let dir = tmpdir("counts_ok");
    let mut db = DurableDb::init(&dir, SCHEMA).unwrap();
    for src in &TXNS[..3] {
        let txn = db.transaction(src).unwrap();
        db.commit(&txn).unwrap();
    }
    db.checkpoint().unwrap();
    drop(db);
    assert!(dir.join(dduf::persist::COUNTS_FILE).exists());

    let (mut recovered, report) = dduf::obs::capture(|| DurableDb::open(&dir).unwrap());
    assert!(recovered.recovery().counts_restored, "counts must restore");
    assert_eq!(report.total("counts.persist", "loaded"), 1);
    assert_eq!(report.total("counts.persist", "recompute"), 0);
    assert_eq!(fallback_reason(&report), None);
    assert!(recovered.processor().maintenance().is_some());
    assert_eq!(fingerprint(recovered.processor()), reference_fingerprint(3));
    // The restored engine is live: the next commit lands correctly.
    let txn = recovered.transaction(TXNS[3]).unwrap();
    recovered.commit(&txn).unwrap();
    assert_eq!(
        fingerprint(recovered.processor()),
        reference_fingerprint(TXNS.len())
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Crash injection inside the counts section: truncate the counts file
/// at every byte offset (and flip bytes mid-file) — recovery must fall
/// back to a full recompute, never load partial counts, and always land
/// on the exact reference state.
#[test]
fn damaged_counts_file_falls_back_to_recompute_never_partial() {
    let dir = tmpdir("counts_cut");
    let mut db = DurableDb::init(&dir, SCHEMA).unwrap();
    for src in &TXNS[..3] {
        let txn = db.transaction(src).unwrap();
        db.commit(&txn).unwrap();
    }
    db.checkpoint().unwrap();
    drop(db);

    let counts_path = dir.join(dduf::persist::COUNTS_FILE);
    let clean = std::fs::read(&counts_path).unwrap();
    let expected = reference_fingerprint(3);

    // Every truncation point, including the empty file.
    for cut in 0..clean.len() {
        std::fs::write(&counts_path, &clean[..cut]).unwrap();
        let (recovered, report) = dduf::obs::capture(|| DurableDb::open(&dir).unwrap());
        assert!(
            !recovered.recovery().counts_restored,
            "cut at byte {cut}: a truncated counts file must not restore"
        );
        assert_eq!(report.total("counts.persist", "recompute"), 1, "cut {cut}");
        assert_eq!(fallback_reason(&report), Some("damaged"), "cut {cut}");
        assert!(
            recovered.processor().maintenance().is_some(),
            "cut {cut}: recompute still enables maintenance"
        );
        assert_eq!(
            fingerprint(recovered.processor()),
            expected,
            "cut at byte {cut}"
        );
        drop(recovered);
    }

    // A flipped byte mid-file (checksum catches it) also falls back.
    let mut bytes = clean.clone();
    let mid = clean.len() / 2;
    bytes[mid] ^= 0x08;
    std::fs::write(&counts_path, &bytes).unwrap();
    let (recovered, report) = dduf::obs::capture(|| DurableDb::open(&dir).unwrap());
    assert!(!recovered.recovery().counts_restored, "flipped byte {mid}");
    assert_eq!(
        fallback_reason(&report),
        Some("damaged"),
        "flipped byte {mid}"
    );
    assert_eq!(fingerprint(recovered.processor()), expected);
    drop(recovered);

    // Restoring the clean bytes restores the fast path.
    std::fs::write(&counts_path, &clean).unwrap();
    let recovered = DurableDb::open(&dir).unwrap();
    assert!(recovered.recovery().counts_restored);
    assert_eq!(fingerprint(recovered.processor()), expected);
    drop(recovered);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A counts file left behind by an *older* checkpoint (journal position
/// mismatch with the snapshot — the picture a crash between the two
/// renames leaves) is rejected, not half-applied.
#[test]
fn stale_counts_file_is_rejected_on_journal_position_mismatch() {
    let dir = tmpdir("counts_stale");
    let mut db = DurableDb::init(&dir, SCHEMA).unwrap();
    let txn = db.transaction(TXNS[0]).unwrap();
    db.commit(&txn).unwrap();
    db.checkpoint().unwrap();
    drop(db);
    let stale = std::fs::read(dir.join(dduf::persist::COUNTS_FILE)).unwrap();

    // Advance the database and checkpoint again, then put the old
    // counts file back: snapshot and counts now disagree on coverage.
    let mut db = DurableDb::open(&dir).unwrap();
    for src in &TXNS[1..3] {
        let txn = db.transaction(src).unwrap();
        db.commit(&txn).unwrap();
    }
    db.checkpoint().unwrap();
    drop(db);
    std::fs::write(dir.join(dduf::persist::COUNTS_FILE), &stale).unwrap();

    let (recovered, report) = dduf::obs::capture(|| DurableDb::open(&dir).unwrap());
    assert!(
        !recovered.recovery().counts_restored,
        "stale counts must not restore"
    );
    assert_eq!(fallback_reason(&report), Some("stale"));
    assert_eq!(fingerprint(recovered.processor()), reference_fingerprint(3));
    drop(recovered);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// No counts file at all, and one whose split does not fit the program
/// (written by an engine of another program at the right position): both
/// recompute, and `counts.persist` names which it was.
#[test]
fn missing_and_mismatched_counts_fall_back_naming_the_reason() {
    let dir = tmpdir("counts_reason");
    let mut db = DurableDb::init(&dir, SCHEMA).unwrap();
    let txn = db.transaction(TXNS[0]).unwrap();
    db.commit(&txn).unwrap();
    let pos = db.checkpoint().unwrap();
    drop(db);
    let counts_path = dir.join(dduf::persist::COUNTS_FILE);

    std::fs::remove_file(&counts_path).unwrap();
    let (recovered, report) = dduf::obs::capture(|| DurableDb::open(&dir).unwrap());
    assert!(!recovered.recovery().counts_restored);
    assert_eq!(fallback_reason(&report), Some("missing"));
    assert_eq!(fingerprint(recovered.processor()), reference_fingerprint(1));
    drop(recovered);

    let other = format!("{SCHEMA}extra(X) :- la(X).\n");
    let other = UpdateProcessor::new(parse_database(&other).unwrap()).unwrap();
    dduf::persist::counts::write(&dir, other.maintenance().unwrap(), pos).unwrap();
    let (recovered, report) = dduf::obs::capture(|| DurableDb::open(&dir).unwrap());
    assert!(!recovered.recovery().counts_restored);
    assert_eq!(fallback_reason(&report), Some("mismatch"));
    assert_eq!(fingerprint(recovered.processor()), reference_fingerprint(1));
    drop(recovered);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn second_open_of_a_live_database_is_refused() {
    let dir = tmpdir("locked");
    let db = DurableDb::init(&dir, SCHEMA).unwrap();

    // A second opener must get the clear lock error, not a silent race
    // on the journal.
    match DurableDb::open(&dir) {
        Err(e @ PersistError::Locked { .. }) => {
            assert!(
                e.render().contains("locked by another process"),
                "{}",
                e.render()
            );
        }
        other => panic!("expected Locked, got {other:?}"),
    }

    // Read-only inspection (verify/log) deliberately does not lock.
    assert!(dduf::persist::verify(&dir).is_ok());
    assert!(dduf::persist::read_log(&dir).is_ok());

    // The lock dies with its owner: dropping the first handle frees it.
    drop(db);
    assert!(DurableDb::open(&dir).is_ok());
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn session_commits_are_journaled_with_write_ahead_ordering() {
    use dduf::cli::Session;
    let dir = tmpdir("session");
    DurableDb::init(&dir, SCHEMA).unwrap();
    let mut s = Session::durable(DurableDb::open(&dir).unwrap());
    let out = s.run(":force +la(ana).").unwrap();
    assert!(out.contains("applied"), "{out}");
    let out = s.run(":update -unemp(dolors).").unwrap();
    assert!(out.contains("[1]"), "{out}");
    let out = s.run(":do 1").unwrap();
    assert!(out.contains("committed"), "{out}");
    let out = s.run(":checkpoint").unwrap();
    assert!(out.contains("checkpoint written"), "{out}");
    drop(s);

    // The commit survives a reopen; the snapshot covers it.
    let db = DurableDb::open(&dir).unwrap();
    assert_eq!(db.recovery().replayed, 0, "checkpoint covers the commits");
    let unemp = db
        .processor()
        .interpretation()
        .relation(Pred::new("unemp", 1));
    assert!(
        !unemp.contains(&Tuple::new(vec![Const::sym("dolors")])),
        "the :do 1 commit must survive the reopen"
    );
    assert!(
        unemp.contains(&Tuple::new(vec![Const::sym("ana")])),
        "the :force commit must survive the reopen"
    );

    // An in-memory session refuses :checkpoint.
    let mut plain = Session::from_source(SCHEMA).unwrap();
    assert!(plain.run(":checkpoint").is_err());
    std::fs::remove_dir_all(&dir).unwrap();
}
