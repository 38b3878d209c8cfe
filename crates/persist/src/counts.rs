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
//! Tuples render in the same event surface syntax the journal uses, so
//! they round-trip through the existing event parser. The header, the
//! CRC-32 over the body and the atomic write are the snapshot's (the
//! private `framed` module): a crash leaves either the old complete file
//! or the new complete file.
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
use dduf_datalog::ast::Pred;
use dduf_datalog::storage::relation::Relation;
use dduf_datalog::storage::tuple::Tuple;
use dduf_events::event::GroundEvent;
use std::collections::BTreeMap;
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
            body.push_str(&format!("c {c} {}.\n", GroundEvent::ins(pred, t.clone())));
            tuples += 1;
        }
    }
    for (pred, rel) in engine.interpretation().iter() {
        if engine.counts().contains_key(&pred) {
            continue; // counting extensions are implied by the counts
        }
        for t in rel.iter() {
            body.push_str(&format!("x {}.\n", GroundEvent::ins(pred, t.clone())));
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
    let mut counts: BTreeMap<Pred, Counts> = BTreeMap::new();
    let mut dred_exts: BTreeMap<Pred, Relation> = BTreeMap::new();
    for (ln, line) in body.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let bad_line = |detail: &str| bad(format!("line {}: {detail}: {line}", ln + 2));
        let (pred, tuple, count) = if let Some(rest) = line.strip_prefix("c ") {
            let (count, ev) = rest
                .split_once(' ')
                .ok_or_else(|| bad_line("missing count"))?;
            let count: i64 = count
                .parse()
                .map_err(|_| bad_line("count is not a number"))?;
            if count <= 0 {
                return Err(bad_line("count must be positive"));
            }
            let (pred, tuple) = parse_tuple(ev).map_err(|e| bad_line(&e))?;
            (pred, tuple, Some(count))
        } else if let Some(ev) = line.strip_prefix("x ") {
            let (pred, tuple) = parse_tuple(ev).map_err(|e| bad_line(&e))?;
            (pred, tuple, None)
        } else {
            return Err(bad_line("unknown line tag"));
        };
        match count {
            Some(c) => {
                if !counts.entry(pred).or_default().insert(tuple, c) {
                    return Err(bad_line("duplicate counted tuple"));
                }
            }
            None => {
                if !dred_exts.entry(pred).or_default().insert(tuple) {
                    return Err(bad_line("duplicate extension tuple"));
                }
            }
        }
    }
    Ok(Some(CountsState {
        journal_pos,
        counts,
        dred_exts,
    }))
}

/// Parses one `+atom.` payload back into its predicate and tuple.
fn parse_tuple(src: &str) -> std::result::Result<(Pred, Tuple), String> {
    let ev = dduf_datalog::parser::parse_event(src).map_err(|e| format!("bad event: {e}"))?;
    if !ev.insert {
        return Err("expected an insertion-shaped tuple".into());
    }
    let consts = ev
        .atom
        .as_tuple()
        .ok_or_else(|| "tuple is not ground".to_string())?;
    Ok((ev.atom.pred, Tuple::new(consts)))
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
