//! Persisted maintenance state: support counts and materialized-view
//! extensions, written atomically next to the snapshot.
//!
//! A counts file lets recovery restore the
//! [`MaintenanceEngine`]
//! (support counts for the counting strata, extensions for the recursive
//! DRed strata) **without re-deriving a single stratum** — re-derivation
//! is exactly the cost the maintenance engine exists to avoid, and on a
//! large database paying it at every restart defeats the point.
//!
//! Format (`counts.state`):
//!
//! ```text
//! % dduf-counts v1 journal_pos=<bytes> crc=<8 hex digits>
//! c <count> +atom.        (one counted tuple of a counting stratum)
//! x +atom.                (one extension tuple of a DRed stratum)
//! ```
//!
//! Tuples render in the same event surface syntax the journal uses. A
//! read lexes the whole body in one pass with the parser's
//! [`FactReader`] and builds each predicate's counts or extension from
//! one sorted vector. The header, the CRC-32 over the body and the atomic
//! write are the snapshot's (the private `framed` module): a crash leaves
//! either the old complete file or the new complete file.
//!
//! The `journal_pos` header field ties the file to a snapshot: recovery
//! only restores from a counts file whose position **equals** the
//! snapshot's. Anything else — missing file, stale position, checksum
//! mismatch, unparsable body, or a split that no longer fits the program
//! — makes the caller fall back to recomputing the maintenance state from
//! scratch; [`read`] tells a missing file (`Ok(None)`) from a damaged one
//! (an error) so that the fallback can say which it was. Partial state is
//! never loaded.

use crate::error::{io_err, PersistError, Result};
use crate::framed::{read_framed, write_framed};
use dduf_core::upward::maintain::{Counts, MaintenanceEngine};
use dduf_datalog::ast::{Const, Pred};
use dduf_datalog::error::ParseError;
use dduf_datalog::parser::lexer::Tok;
use dduf_datalog::parser::FactReader;
use dduf_datalog::pretty;
use dduf_datalog::storage::relation::Relation;
use dduf_datalog::storage::tuple::Tuple;
use std::collections::BTreeMap;
use std::fmt::Write;
use std::path::Path;

/// File name of the persisted maintenance state inside a durable-database
/// directory.
pub const COUNTS_FILE: &str = "counts.state";

/// Maintenance state read back from disk.
#[derive(Clone, Debug)]
pub struct CountsState {
    /// Journal byte offset the state covers; must equal the snapshot's.
    pub journal_pos: u64,
    /// Support counts of the counting strata.
    pub counts: BTreeMap<Pred, Counts>,
    /// Extensions of the recursive (DRed) strata.
    pub dred_exts: BTreeMap<Pred, Relation>,
}

impl CountsState {
    /// Total persisted tuples (counted + DRed extension).
    pub fn tuple_count(&self) -> usize {
        self.counts.values().map(Counts::len).sum::<usize>()
            + self.dred_exts.values().map(Relation::len).sum::<usize>()
    }
}

/// Writes the maintenance state of `engine` covering the journal up to
/// `journal_pos`, atomically. Records a `counts.persist` span
/// (`writes`/`tuples`/`bytes`).
pub fn write(dir: &Path, engine: &MaintenanceEngine, journal_pos: u64) -> Result<()> {
    let timer = dduf_obs::timer();
    let mut body = String::new();
    let mut tuples = 0u64;
    for (&pred, map) in engine.counts() {
        for (t, c) in map.iter() {
            let _ = write!(body, "c {c} +");
            write_line(&mut body, pred, t);
            tuples += 1;
        }
    }
    for (pred, rel) in engine.interpretation().iter() {
        if engine.counts().contains_key(&pred) {
            continue; // counting extensions are implied by the counts
        }
        for t in rel.iter() {
            body.push_str("x +");
            write_line(&mut body, pred, t);
            tuples += 1;
        }
    }
    let bytes = write_framed(dir, COUNTS_FILE, "counts", journal_pos, &body)?;
    dduf_obs::record_timed(
        "counts.persist",
        "",
        &[("writes", 1), ("tuples", tuples), ("bytes", bytes)],
        timer.elapsed_us(),
    );
    Ok(())
}

/// Removes a stale counts file, if any (e.g. when checkpointing a database
/// whose session has no maintenance engine: a survivor from an earlier
/// configuration must not be restored against a newer snapshot).
pub fn remove(dir: &Path) -> Result<()> {
    let path = dir.join(COUNTS_FILE);
    match std::fs::remove_file(&path) {
        Ok(()) => Ok(()),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
        Err(e) => Err(io_err(&path, "remove")(e)),
    }
}

/// Reads and validates the persisted maintenance state: `Ok(None)` when
/// there is no counts file, and an error for every kind of damage — I/O,
/// bad header, checksum mismatch, unparsable line. The caller decides
/// whether to fall back to a recompute.
pub fn read(dir: &Path) -> Result<Option<CountsState>> {
    let disp = dir.join(COUNTS_FILE).display().to_string();
    let bad = |detail: String| PersistError::Snapshot {
        path: disp.clone(),
        detail,
    };
    let mut missing = false;
    let framed = read_framed(dir, COUNTS_FILE, "counts", || {
        missing = true;
        bad("no persisted maintenance state".into())
    });
    if missing {
        return Ok(None);
    }
    let (journal_pos, body) = framed?;
    let mut reader = FactReader::new(&body);
    let lines = read_lines(&mut reader);
    // The header is line 1 of the file, the body's first line line 2.
    let (counted, extensions) = reader
        .finish(lines)
        .map_err(|e| bad(format!("line {}: {}", e.span.line + 1, e.message)))?;
    let mut counts = BTreeMap::new();
    for (pred, mut entries) in counted {
        entries.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        if entries.windows(2).any(|w| w[0].0 == w[1].0) {
            return Err(bad(format!("duplicate counted tuple of {pred}")));
        }
        counts.insert(pred, Counts::from_sorted(entries));
    }
    let mut dred_exts = BTreeMap::new();
    for (pred, tuples) in extensions {
        let lines = tuples.len();
        let extension = Relation::from_tuples(tuples);
        if extension.len() < lines {
            return Err(bad(format!("duplicate extension tuple of {pred}")));
        }
        dred_exts.insert(pred, extension);
    }
    Ok(Some(CountsState {
        journal_pos,
        counts,
        dred_exts,
    }))
}

/// Ends a body line: the fact, `.` and the newline.
fn write_line(body: &mut String, pred: Pred, t: &[Const]) {
    let _ = pretty::write_fact(body, pred, t);
    body.push_str(".\n");
}

/// Each predicate's counted tuples and extension tuples, in file order.
type Lines = (
    BTreeMap<Pred, Vec<(Tuple, i64)>>,
    BTreeMap<Pred, Vec<Tuple>>,
);

/// Reads every line of a counts body, in one pass over its tokens.
fn read_lines(r: &mut FactReader<'_>) -> std::result::Result<Lines, ParseError> {
    let (mut counted, mut extensions) = Lines::default();
    loop {
        let span = r.span();
        let bad = |message: &str| ParseError {
            span,
            message: message.into(),
        };
        let count = match r.bump() {
            None => break,
            Some(Tok::Ident("c")) => match r.bump() {
                Some(Tok::Int(c)) if c > 0 => Some(c),
                Some(Tok::Int(_)) => return Err(bad("count must be positive")),
                _ => return Err(bad("missing count")),
            },
            Some(Tok::Ident("x")) => None,
            Some(_) => return Err(bad("unknown line tag")),
        };
        r.expect(&Tok::Plus)?;
        let (pred, tuple) = r.fact()?;
        r.expect(&Tok::Dot)?;
        match count {
            Some(c) => counted.entry(pred).or_default().push((tuple, c)),
            None => extensions.entry(pred).or_default().push(tuple),
        }
    }
    Ok((counted, extensions))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dduf_core::processor::UpdateProcessor;
    use dduf_datalog::parser::parse_database;

    const SCHEMA: &str = "e(a, b). e(b, c). e(a, c). flag('Señor X').
        v(X) :- e(X, Y), not flag(X).
        tc(X, Y) :- e(X, Y). tc(X, Y) :- e(X, Z), tc(Z, Y).";

    fn tmpdir(name: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!("dduf_counts_{}_{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    fn engine() -> MaintenanceEngine {
        let proc = UpdateProcessor::new(parse_database(SCHEMA).unwrap()).unwrap();
        proc.maintenance().unwrap().clone()
    }

    #[test]
    fn write_read_round_trip() {
        let dir = tmpdir("roundtrip");
        let engine = engine();
        write(&dir, &engine, 7).unwrap();
        let state = read(&dir).unwrap().unwrap();
        assert_eq!(state.journal_pos, 7);
        assert_eq!(&state.counts, engine.counts());
        assert_eq!(state.tuple_count(), engine.tuple_count());
        // The restored state rebuilds an identical engine.
        let db = parse_database(SCHEMA).unwrap();
        let restored = MaintenanceEngine::from_saved(&db, state.counts, state.dred_exts).unwrap();
        assert_eq!(restored.interpretation(), engine.interpretation());
        assert!(!dir.join(format!("{COUNTS_FILE}.tmp")).exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn damaged_body_fails_checksum() {
        let dir = tmpdir("damage");
        write(&dir, &engine(), 7).unwrap();
        let path = dir.join(COUNTS_FILE);
        let mut content = std::fs::read_to_string(&path).unwrap();
        content.push_str("x +tc(zz, zz).\n");
        std::fs::write(&path, content).unwrap();
        match read(&dir) {
            Err(PersistError::Snapshot { detail, .. }) => {
                assert!(detail.contains("checksum mismatch"), "{detail}")
            }
            other => panic!("expected checksum error, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn truncated_body_fails_checksum() {
        let dir = tmpdir("truncate");
        write(&dir, &engine(), 7).unwrap();
        let path = dir.join(COUNTS_FILE);
        let content = std::fs::read(&path).unwrap();
        std::fs::write(&path, &content[..content.len() - 9]).unwrap();
        assert!(read(&dir).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A body that passes its checksum but is not a counts body fails
    /// the read, naming the line, so open falls back to a recompute.
    #[test]
    fn malformed_bodies_fail_the_read() {
        let dir = tmpdir("malformed");
        for (body, detail) in [
            ("c 0 +v(a).\n", "line 2: count must be positive"),
            ("c 1 +v(a).\nc +v(b).\n", "line 3: missing count"),
            ("q +v(a).\n", "line 2: unknown line tag"),
            ("x -tc(a, b).\n", "line 2: expected `+`, found `-`"),
            ("x +tc(X, b).\n", "line 2: fact `tc(X, b)` must be ground"),
            ("x +tc(a, b)\n", "line 2: expected `.`, found end of input"),
            ("x +tc('a, b).\n", "line 2: unterminated quoted symbol"),
            (
                "x +tc(a, b).\nx +tc(a, b).\n",
                "duplicate extension tuple of tc/2",
            ),
            ("c 1 +v(a).\nc 2 +v(a).\n", "duplicate counted tuple of v/1"),
        ] {
            write_framed(&dir, COUNTS_FILE, "counts", 7, body).unwrap();
            match read(&dir) {
                Err(PersistError::Snapshot { detail: got, .. }) => {
                    assert_eq!(got, detail, "{body:?}")
                }
                other => panic!("{body:?}: expected a read error, got {other:?}"),
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn remove_is_idempotent() {
        let dir = tmpdir("remove");
        remove(&dir).unwrap(); // nothing there: fine
        write(&dir, &engine(), 7).unwrap();
        remove(&dir).unwrap();
        assert!(!dir.join(COUNTS_FILE).exists());
        assert!(read(&dir).unwrap().is_none(), "a missing file is no state");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
