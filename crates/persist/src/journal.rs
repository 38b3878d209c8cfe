//! The append-only event journal.
//!
//! A transaction *is* a set of base-fact events (§3.1), which is exactly
//! the content of a write-ahead log record — so the journal stores each
//! committed transaction in the existing surface syntax (`+p(a). -q(b).`)
//! behind a binary framing that makes crashes detectable:
//!
//! ```text
//! file   := MAGIC record*
//! MAGIC  := "ddufjnl1"                      (8 bytes)
//! record := len:u32le crc:u32le payload     (crc = CRC-32 of payload)
//! ```
//!
//! The payload is UTF-8 text, so `strings journal.log` shows the history
//! and `dduf db log` is a trivial dump — but every record is still
//! length-prefixed and checksummed, giving the two guarantees recovery
//! needs: a crash mid-append leaves a recognizable **torn tail** (the
//! file ends before the final record completes), and any later damage is
//! a **checksum mismatch** at a known record index.

use crate::crc32::crc32;
use crate::error::{io_err, PersistError, Result};
use std::fs::{File, OpenOptions};
use std::io::{BufReader, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// The journal file's magic header.
pub const MAGIC: &[u8; 8] = b"ddufjnl1";

/// Bytes of framing before each payload (`u32` length + `u32` CRC).
pub const RECORD_HEADER: usize = 8;

/// Byte offset of the first record, just past [`MAGIC`]: where a scan of
/// the whole journal starts.
pub const FIRST_RECORD: u64 = MAGIC.len() as u64;

/// Sanity bound on a single record, enforced symmetrically: [`Journal::append`]
/// rejects larger payloads before any bytes hit disk, and scanning treats a
/// larger length prefix as corruption. It also caps the scanner's per-record
/// buffer, so a journal of any size is verified with bounded memory.
pub const MAX_RECORD: u32 = 1 << 30;

/// One decoded journal record.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Record {
    /// 0-based position among the records the scan read, counted from
    /// where it started: the record's index in the journal for a scan from
    /// [`FIRST_RECORD`] (`verify`, `dduf db log`), its index in the tail
    /// for recovery's scan from the snapshot's position.
    pub index: usize,
    /// Byte offset of the record's header in the file.
    pub offset: u64,
    /// The transaction in event surface syntax.
    pub payload: String,
}

impl Record {
    /// Byte offset just past the record: where the next one starts.
    pub(crate) fn end(&self) -> u64 {
        self.offset + RECORD_HEADER as u64 + self.payload.len() as u64
    }
}

/// A torn final record: the file ends before the record completes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TornTail {
    /// Byte offset where the torn record starts.
    pub offset: u64,
    /// How many dangling bytes follow that offset.
    pub bytes: u64,
}

/// The result of scanning a whole journal file into memory: see [`scan`].
#[derive(Clone, Debug)]
pub struct Scan {
    /// Every intact record, in append order.
    pub records: Vec<Record>,
    /// Byte offset just past the last intact record — the position appends
    /// (and snapshots) should use.
    pub end: u64,
    /// The torn final record, if the file ends mid-record.
    pub torn: Option<TornTail>,
}

/// Everything a streaming scan establishes besides the payloads
/// themselves: see [`scan_records`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ScanSummary {
    /// Number of intact records visited.
    pub records: usize,
    /// Byte offset just past the last intact record.
    pub end: u64,
    /// The torn final record, if the file ends mid-record.
    pub torn: Option<TornTail>,
}

/// Reads and validates a journal file record-by-record with bounded
/// memory, from byte `start` to the end, handing each intact record to
/// `visit` as it is decoded. The magic header at byte 0 is always
/// checked; the bytes between it and `start` are never read. At most one
/// record body (≤ [`MAX_RECORD`] bytes) is buffered at a time, so a
/// journal of any size can be verified on a small machine. The
/// `journal.scan` span counts the records and bytes this scan read.
///
/// `start` must be where a record starts (or where the last one ends):
/// [`FIRST_RECORD`] for the whole journal, a snapshot's position for its
/// tail. A `start` before the first record or past the end of the file is
/// a [`PersistError::BadPosition`]. One inside a record cannot be told
/// from the bytes at `start` alone, so when a scan from anywhere but
/// [`FIRST_RECORD`] fails at its very first record (torn or corrupt), it
/// walks the journal from its first record to confirm `start` is a
/// boundary before it reports that failure — the only case in which it
/// reads bytes before `start`.
///
/// An incomplete *final* record is reported via [`ScanSummary::torn`];
/// anything else that fails validation — checksum mismatch, implausible
/// length, non-UTF-8 payload — is a hard [`PersistError::Corrupt`]. An
/// error returned by `visit` aborts the scan.
pub fn scan_records(
    path: &Path,
    start: u64,
    visit: &mut dyn FnMut(Record) -> Result<()>,
) -> Result<ScanSummary> {
    let disp = path.display().to_string();
    let mut file = File::open(path).map_err(io_err(path, "read"))?;
    let file_len = file.metadata().map_err(io_err(path, "read"))?.len();

    let mut magic = [0u8; MAGIC.len()];
    let magic_ok = file_len >= FIRST_RECORD && {
        file.read_exact(&mut magic).map_err(io_err(path, "read"))?;
        &magic == MAGIC
    };
    if !magic_ok {
        return Err(PersistError::Corrupt {
            path: disp,
            from: start,
            record: 0,
            offset: 0,
            detail: format!(
                "missing magic header {:?}",
                std::str::from_utf8(MAGIC).unwrap()
            ),
        });
    }
    Boundary::new(start).check(path, file_len)?;
    file.seek(SeekFrom::Start(start))
        .map_err(io_err(path, "seek"))?;
    let mut reader = BufReader::new(file);

    let mut index = 0usize;
    let mut pos = start;
    let mut body = Vec::new();
    // How the scan stopped: at the end of the file, at a torn final
    // record, or (`Err`) at a damaged record, all at `index` / `pos`.
    let outcome: std::result::Result<Option<TornTail>, String> = loop {
        if pos == file_len {
            break Ok(None);
        }
        let remaining = file_len - pos;
        let torn = Some(TornTail {
            offset: pos,
            bytes: remaining,
        });
        if remaining < RECORD_HEADER as u64 {
            break Ok(torn);
        }
        let mut header = [0u8; RECORD_HEADER];
        reader
            .read_exact(&mut header)
            .map_err(io_err(path, "read"))?;
        let len = u32::from_le_bytes(header[..4].try_into().unwrap());
        let stored = u32::from_le_bytes(header[4..].try_into().unwrap());
        if len > MAX_RECORD {
            break Err(format!("implausible record length {len}"));
        }
        if remaining - (RECORD_HEADER as u64) < len as u64 {
            break Ok(torn);
        }
        // Bounded by the MAX_RECORD check above.
        body.resize(len as usize, 0);
        reader.read_exact(&mut body).map_err(io_err(path, "read"))?;
        let computed = crc32(&body);
        if computed != stored {
            break Err(format!(
                "checksum mismatch (stored {stored:#010x}, computed {computed:#010x})"
            ));
        }
        let Ok(payload) = std::str::from_utf8(&body) else {
            break Err("payload is not valid UTF-8".into());
        };
        visit(Record {
            index,
            offset: pos,
            payload: payload.to_string(),
        })?;
        pos += RECORD_HEADER as u64 + len as u64;
        index += 1;
    };
    if index == 0 && outcome != Ok(None) && start != FIRST_RECORD {
        check_boundary(path, start)?;
    }
    match outcome {
        Ok(torn) => {
            dduf_obs::record(
                "journal.scan",
                "",
                &[("records", index as u64), ("bytes", pos - start)],
            );
            Ok(ScanSummary {
                records: index,
                end: pos,
                torn,
            })
        }
        Err(detail) => Err(PersistError::Corrupt {
            path: disp,
            from: start,
            record: index,
            offset: pos,
            detail,
        }),
    }
}

/// Confirms that a record starts at `pos` (or that the last intact one
/// ends there) by scanning the journal from its first record.
fn check_boundary(path: &Path, pos: u64) -> Result<()> {
    let mut boundary = Boundary::new(pos);
    match scan_records(path, FIRST_RECORD, &mut |r| {
        boundary.visit(&r);
        Ok(())
    }) {
        Ok(summary) => boundary.check(path, summary.end),
        // The records before the damage tile the journal up to it.
        Err(PersistError::Corrupt { offset, .. }) if pos <= offset => boundary.check(path, offset),
        Err(e) => Err(e),
    }
}

/// Whether a byte position is a record boundary, decided from a scan
/// that starts at [`FIRST_RECORD`] and is shown every intact record.
pub(crate) struct Boundary {
    pos: u64,
    /// The record that spans `pos`: index, start, end.
    split: Option<(usize, u64, u64)>,
}

impl Boundary {
    pub(crate) fn new(pos: u64) -> Boundary {
        Boundary { pos, split: None }
    }

    pub(crate) fn visit(&mut self, r: &Record) {
        if r.offset < self.pos && self.pos < r.end() {
            self.split = Some((r.index, r.offset, r.end()));
        }
    }

    /// `Ok` when a record visited so far starts at the position, or the
    /// position is `end`, where the records stop; otherwise the
    /// [`PersistError::BadPosition`] saying where the position falls.
    pub(crate) fn check(&self, path: &Path, end: u64) -> Result<()> {
        let detail = if self.pos < FIRST_RECORD {
            format!("it falls inside the {FIRST_RECORD}-byte magic header")
        } else if let Some((index, from, to)) = self.split {
            format!("it falls inside record {index}, which spans bytes {from}..{to}")
        } else if self.pos > end {
            format!("it falls past byte {end}, where the journal's records end")
        } else {
            return Ok(());
        };
        Err(PersistError::BadPosition {
            path: path.display().to_string(),
            pos: self.pos,
            detail,
        })
    }
}

/// Reads and validates a whole journal file without modifying it,
/// collecting every record: [`scan_records`] from [`FIRST_RECORD`], for
/// callers (`dduf db log`, audits) that want the whole history in memory.
pub fn scan(path: &Path) -> Result<Scan> {
    let mut records = Vec::new();
    let summary = scan_records(path, FIRST_RECORD, &mut |r| {
        records.push(r);
        Ok(())
    })?;
    Ok(Scan {
        records,
        end: summary.end,
        torn: summary.torn,
    })
}

/// Fault-injection hook for tests and benches: `DDUF_SYNC_DELAY_US`
/// (microseconds) pads every batch append with an artificial sleep
/// between the write and its fsync, simulating a slow durable device.
/// That is exactly the window the pipelined server overlaps — the
/// backpressure e2e uses it to saturate the bounded commit queue, and
/// the fault harness to widen the SIGKILL window. Read once; unset (the
/// production case) costs one branch per batch.
fn sync_delay() -> Option<std::time::Duration> {
    static DELAY: std::sync::OnceLock<Option<std::time::Duration>> = std::sync::OnceLock::new();
    *DELAY.get_or_init(|| {
        std::env::var("DDUF_SYNC_DELAY_US")
            .ok()
            .and_then(|v| v.trim().parse::<u64>().ok())
            .filter(|&us| us > 0)
            .map(std::time::Duration::from_micros)
    })
}

/// An open journal, positioned for appending after the last intact record.
#[derive(Debug)]
pub struct Journal {
    file: File,
    path: PathBuf,
    end: u64,
}

impl Journal {
    /// Creates a fresh, empty journal (fails if the file exists).
    pub fn create(path: &Path) -> Result<Journal> {
        let mut file = OpenOptions::new()
            .write(true)
            .create_new(true)
            .open(path)
            .map_err(io_err(path, "create"))?;
        file.write_all(MAGIC).map_err(io_err(path, "write"))?;
        file.sync_all().map_err(io_err(path, "sync"))?;
        Ok(Journal {
            file,
            path: path.to_path_buf(),
            end: MAGIC.len() as u64,
        })
    }

    /// Validates an existing journal from byte `start` on and opens it for
    /// appending, handing each intact record to `visit` as the scan
    /// decodes it ([`scan_records`]). A torn final record is **truncated
    /// away** after the scan (it was never acknowledged); mid-log
    /// corruption is a hard error. Returns the journal plus the scan's
    /// summary.
    pub fn open(
        path: &Path,
        start: u64,
        visit: &mut dyn FnMut(Record) -> Result<()>,
    ) -> Result<(Journal, ScanSummary)> {
        let summary = scan_records(path, start, visit)?;
        let file = OpenOptions::new()
            .write(true)
            .open(path)
            .map_err(io_err(path, "open"))?;
        if summary.torn.is_some() {
            file.set_len(summary.end)
                .map_err(io_err(path, "truncate"))?;
            file.sync_all().map_err(io_err(path, "sync"))?;
        }
        Ok((
            Journal {
                file,
                path: path.to_path_buf(),
                end: summary.end,
            },
            summary,
        ))
    }

    /// Appends one record and flushes it to stable storage. The commit is
    /// durable — and may be acknowledged — once this returns.
    ///
    /// Payloads over [`MAX_RECORD`] bytes are rejected **before any bytes
    /// hit disk** with [`PersistError::RecordTooLarge`]: the `u32` length
    /// prefix would otherwise truncate silently, and even an exact prefix
    /// would frame a record every future [`scan`] rejects as corrupt.
    pub fn append(&mut self, payload: &str) -> Result<u64> {
        self.append_batch(std::slice::from_ref(&payload))
    }

    /// Appends a *batch* of records behind **exactly one fsync** — the
    /// group-commit primitive. All records are CRC-framed into a single
    /// buffer, written with one `write_all`, and made durable together;
    /// none of them may be acknowledged before this returns. A crash
    /// mid-batch leaves a clean prefix of the batch (plus at most one
    /// torn record), which recovery truncates exactly like a single-record
    /// crash — no batch member was acknowledged, so no acknowledged commit
    /// is ever lost.
    ///
    /// Every payload is size-checked against [`MAX_RECORD`] before any
    /// byte hits disk; an oversized member rejects the whole batch. An
    /// empty batch is a no-op (no write, no fsync).
    pub fn append_batch<S: AsRef<str>>(&mut self, payloads: &[S]) -> Result<u64> {
        if payloads.is_empty() {
            return Ok(self.end);
        }
        let timer = dduf_obs::timer();
        let mut total = 0usize;
        for payload in payloads {
            let body = payload.as_ref().as_bytes();
            if body.len() as u64 > MAX_RECORD as u64 {
                return Err(PersistError::RecordTooLarge {
                    path: self.path.display().to_string(),
                    bytes: body.len() as u64,
                    max: MAX_RECORD,
                });
            }
            total += RECORD_HEADER + body.len();
        }
        let mut buf = Vec::with_capacity(total);
        for payload in payloads {
            let body = payload.as_ref().as_bytes();
            buf.extend_from_slice(&(body.len() as u32).to_le_bytes());
            buf.extend_from_slice(&crc32(body).to_le_bytes());
            buf.extend_from_slice(body);
        }
        self.file
            .seek(SeekFrom::Start(self.end))
            .map_err(io_err(&self.path, "seek"))?;
        self.file
            .write_all(&buf)
            .map_err(io_err(&self.path, "append"))?;
        if let Some(delay) = sync_delay() {
            std::thread::sleep(delay);
        }
        self.file.sync_data().map_err(io_err(&self.path, "sync"))?;
        self.end += buf.len() as u64;
        dduf_obs::record_timed(
            "journal.append",
            "",
            &[
                ("appends", payloads.len() as u64),
                ("bytes", buf.len() as u64),
                ("fsyncs", 1),
            ],
            timer.elapsed_us(),
        );
        Ok(self.end)
    }

    /// Byte offset just past the last record (where the next one goes).
    pub fn end(&self) -> u64 {
        self.end
    }

    /// The journal's path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("dduf_journal_{}_{name}.log", std::process::id()))
    }

    #[test]
    fn create_append_scan_roundtrip() {
        let path = tmp("roundtrip");
        let _ = std::fs::remove_file(&path);
        let mut j = Journal::create(&path).unwrap();
        j.append("+p(a).").unwrap();
        j.append("-q(b). +p(c).").unwrap();
        let s = scan(&path).unwrap();
        assert_eq!(s.records.len(), 2);
        assert_eq!(s.records[0].payload, "+p(a).");
        assert_eq!(s.records[1].payload, "-q(b). +p(c).");
        assert_eq!(s.records[1].index, 1);
        assert!(s.torn.is_none());
        assert_eq!(s.end, j.end());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn torn_tail_detected_and_truncated_on_open() {
        let path = tmp("torn");
        let _ = std::fs::remove_file(&path);
        let mut j = Journal::create(&path).unwrap();
        j.append("+p(a).").unwrap();
        let keep = j.end();
        j.append("+p(b).").unwrap();
        drop(j);
        // Cut into the middle of the second record.
        let data = std::fs::read(&path).unwrap();
        std::fs::write(&path, &data[..keep as usize + 5]).unwrap();
        let s = scan(&path).unwrap();
        assert_eq!(s.records.len(), 1);
        assert_eq!(
            s.torn,
            Some(TornTail {
                offset: keep,
                bytes: 5
            })
        );
        // Open truncates the dangling bytes and can append again.
        let (mut j, s) = Journal::open(&path, FIRST_RECORD, &mut |_| Ok(())).unwrap();
        assert_eq!(s.records, 1);
        assert_eq!(s.end, keep);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), keep);
        j.append("+p(c).").unwrap();
        let s = scan(&path).unwrap();
        assert_eq!(s.records.len(), 2);
        assert_eq!(s.records[1].payload, "+p(c).");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn midlog_corruption_is_hard_error() {
        let path = tmp("corrupt");
        let _ = std::fs::remove_file(&path);
        let mut j = Journal::create(&path).unwrap();
        j.append("+p(a).").unwrap();
        j.append("+p(b).").unwrap();
        drop(j);
        let mut data = std::fs::read(&path).unwrap();
        // Flip a payload byte of record 0 (magic + header + 1).
        data[MAGIC.len() + RECORD_HEADER + 1] ^= 0x40;
        std::fs::write(&path, &data).unwrap();
        match scan(&path) {
            Err(PersistError::Corrupt { record, detail, .. }) => {
                assert_eq!(record, 0);
                assert!(detail.contains("checksum mismatch"), "{detail}");
            }
            other => panic!("expected corruption, got {other:?}"),
        }
        assert!(Journal::open(&path, FIRST_RECORD, &mut |_| Ok(())).is_err());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn implausible_length_prefix_is_corrupt() {
        // A pre-cap writer could frame a record whose length prefix
        // exceeds MAX_RECORD; the scanner must reject it, not allocate.
        let path = tmp("hugelen");
        let _ = std::fs::remove_file(&path);
        let mut j = Journal::create(&path).unwrap();
        j.append("+p(a).").unwrap();
        let keep = j.end();
        drop(j);
        let mut data = std::fs::read(&path).unwrap();
        data.extend_from_slice(&(MAX_RECORD + 1).to_le_bytes());
        data.extend_from_slice(&[0u8; 4]);
        data.extend_from_slice(b"short body");
        std::fs::write(&path, &data).unwrap();
        match scan(&path) {
            Err(PersistError::Corrupt {
                record,
                offset,
                detail,
                ..
            }) => {
                assert_eq!(record, 1);
                assert_eq!(offset, keep);
                assert!(detail.contains("implausible record length"), "{detail}");
            }
            other => panic!("expected corruption, got {other:?}"),
        }
    }

    #[test]
    fn streaming_scan_matches_collecting_scan() {
        let path = tmp("streaming");
        let _ = std::fs::remove_file(&path);
        let mut j = Journal::create(&path).unwrap();
        for i in 0..20 {
            j.append(&format!("+p(c{i}).")).unwrap();
        }
        drop(j);
        let collected = scan(&path).unwrap();
        let mut seen = Vec::new();
        let summary = scan_records(&path, FIRST_RECORD, &mut |r| {
            seen.push(r);
            Ok(())
        })
        .unwrap();
        assert_eq!(seen, collected.records);
        assert_eq!(summary.records, 20);
        assert_eq!(summary.end, collected.end);
        assert_eq!(summary.torn, None);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn visitor_error_aborts_scan() {
        let path = tmp("visitabort");
        let _ = std::fs::remove_file(&path);
        let mut j = Journal::create(&path).unwrap();
        j.append("+p(a).").unwrap();
        j.append("+p(b).").unwrap();
        drop(j);
        let mut visited = 0;
        let res = scan_records(&path, FIRST_RECORD, &mut |_| {
            visited += 1;
            Err(PersistError::NotADatabase("stop".into()))
        });
        assert!(res.is_err());
        assert_eq!(visited, 1);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn batch_append_is_one_fsync_and_scans_identically() {
        let single = tmp("batch_single");
        let batched = tmp("batch_group");
        let _ = std::fs::remove_file(&single);
        let _ = std::fs::remove_file(&batched);
        let payloads = ["+p(a).", "-q(b). +p(c).", "+r(d)."];

        let mut j = Journal::create(&single).unwrap();
        for p in payloads {
            j.append(p).unwrap();
        }
        let single_end = j.end();
        drop(j);

        let mut j = Journal::create(&batched).unwrap();
        let ((), report) = dduf_obs::capture(|| {
            j.append_batch(&payloads).unwrap();
        });
        // One span, one fsync, three framed records.
        assert_eq!(report.count("journal.append", ""), 1);
        assert_eq!(report.counter("journal.append", "", "fsyncs"), 1);
        assert_eq!(report.counter("journal.append", "", "appends"), 3);
        assert_eq!(j.end(), single_end, "framing must match record-at-a-time");
        drop(j);

        // Byte-identical files: the batch is indistinguishable on disk.
        assert_eq!(
            std::fs::read(&single).unwrap(),
            std::fs::read(&batched).unwrap()
        );
        let s = scan(&batched).unwrap();
        assert_eq!(s.records.len(), 3);
        assert_eq!(s.records[1].payload, "-q(b). +p(c).");
        std::fs::remove_file(&single).unwrap();
        std::fs::remove_file(&batched).unwrap();
    }

    #[test]
    fn batch_with_oversized_member_writes_nothing() {
        let path = tmp("batch_oversize");
        let _ = std::fs::remove_file(&path);
        let mut j = Journal::create(&path).unwrap();
        j.append("+p(a).").unwrap();
        let before = j.end();
        let huge = "x".repeat(MAX_RECORD as usize + 1);
        let res = j.append_batch(&["+p(b).", huge.as_str()]);
        assert!(matches!(res, Err(PersistError::RecordTooLarge { .. })));
        assert_eq!(j.end(), before);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), before);
        let s = scan(&path).unwrap();
        assert_eq!(s.records.len(), 1, "no batch member may land");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn empty_batch_is_a_noop() {
        let path = tmp("batch_empty");
        let _ = std::fs::remove_file(&path);
        let mut j = Journal::create(&path).unwrap();
        let before = j.end();
        let ((), report) = dduf_obs::capture(|| {
            j.append_batch(&[] as &[&str]).unwrap();
        });
        assert_eq!(j.end(), before);
        assert_eq!(report.count("journal.append", ""), 0, "no fsync");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn scan_from_a_record_boundary_reads_only_the_tail() {
        let path = tmp("tail");
        let _ = std::fs::remove_file(&path);
        let mut j = Journal::create(&path).unwrap();
        for i in 0..10 {
            j.append(&format!("+p(c{i}).")).unwrap();
        }
        let start = j.end();
        j.append("+q(a).").unwrap();
        j.append("+q(b).").unwrap();
        drop(j);
        let whole = scan(&path).unwrap();
        let mut tail = Vec::new();
        let (summary, report) = dduf_obs::capture(|| {
            scan_records(&path, start, &mut |r| {
                tail.push(r);
                Ok(())
            })
            .unwrap()
        });
        // Indices count from the scan start; offsets stay absolute.
        assert_eq!(tail.len(), 2);
        assert_eq!((tail[0].index, tail[1].index), (0, 1));
        assert_eq!(tail[0].offset, start);
        assert_eq!(
            tail[1],
            Record {
                index: 1,
                ..whole.records[11].clone()
            }
        );
        assert_eq!(tail[0].end(), tail[1].offset);
        assert_eq!(summary.end, whole.end);
        assert_eq!(report.counter("journal.scan", "", "records"), 2);
        assert_eq!(
            report.counter("journal.scan", "", "bytes"),
            whole.end - start
        );
        // A scan from the end reads nothing.
        let summary = scan_records(&path, whole.end, &mut |_| Ok(())).unwrap();
        assert_eq!((summary.records, summary.end), (0, whole.end));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn scan_start_off_a_record_boundary_is_a_bad_position() {
        let path = tmp("badpos");
        let _ = std::fs::remove_file(&path);
        let mut j = Journal::create(&path).unwrap();
        j.append("+p(a).").unwrap();
        let second = j.end();
        j.append("+p(b).").unwrap();
        let end = j.end();
        drop(j);
        let before = std::fs::read(&path).unwrap();
        // Inside the last record the bytes look like a torn tail; inside the
        // first, like a damaged record; before the first record or past
        // the end, nothing at all. Every one names the position, and open
        // truncates nothing.
        for start in [
            0,
            4,
            FIRST_RECORD + 1,
            second - 1,
            second + 1,
            end - 1,
            end + 1,
            end + 100,
        ] {
            match Journal::open(&path, start, &mut |_| Ok(())) {
                Err(PersistError::BadPosition { pos, .. }) => assert_eq!(pos, start),
                other => panic!("start {start}: expected BadPosition, got {other:?}"),
            }
            assert_eq!(std::fs::read(&path).unwrap(), before, "start {start}");
        }
        // A torn record right at a true boundary is still a torn tail.
        let mut torn = before.clone();
        torn.extend_from_slice(&[7, 0, 0]);
        std::fs::write(&path, &torn).unwrap();
        let (_, s) = Journal::open(&path, end, &mut |_| Ok(())).unwrap();
        assert_eq!(
            s.torn,
            Some(TornTail {
                offset: end,
                bytes: 3
            })
        );
        assert_eq!(std::fs::read(&path).unwrap(), before);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn missing_magic_rejected() {
        let path = tmp("magic");
        std::fs::write(&path, b"not a journal").unwrap();
        assert!(matches!(scan(&path), Err(PersistError::Corrupt { .. })));
        std::fs::remove_file(&path).unwrap();
    }
}
