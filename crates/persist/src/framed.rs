//! Framed files: the snapshot and the counts file share one layout, a
//! header line recording the journal position the file covers and a
//! CRC-32 of the body, then the body:
//!
//! ```text
//! % dduf-<kind> v1 journal_pos=<bytes> crc=<8 hex digits>
//! <body>
//! ```
//!
//! A framed file is written atomically: to `<file>.tmp`, fsynced, renamed
//! over `<file>`, then the directory is fsynced — a crash at any point
//! leaves either the old complete file or the new complete file.

use crate::crc32::crc32;
use crate::error::{io_err, PersistError, Result};
use std::io::Write;
use std::path::Path;

fn header_prefix(kind: &str) -> String {
    format!("% dduf-{kind} v1 ")
}

/// Writes `body` framed as `kind` to `dir/file`, atomically. Returns the
/// number of bytes written.
pub(crate) fn write_framed(
    dir: &Path,
    file: &str,
    kind: &str,
    journal_pos: u64,
    body: &str,
) -> Result<u64> {
    let crc = crc32(body.as_bytes());
    let content = format!(
        "{}journal_pos={journal_pos} crc={crc:08x}\n{body}",
        header_prefix(kind)
    );
    let tmp = dir.join(format!("{file}.tmp"));
    let target = dir.join(file);
    let mut f = std::fs::File::create(&tmp).map_err(io_err(&tmp, "create"))?;
    f.write_all(content.as_bytes())
        .map_err(io_err(&tmp, "write"))?;
    f.sync_all().map_err(io_err(&tmp, "sync"))?;
    drop(f);
    std::fs::rename(&tmp, &target).map_err(io_err(&target, "rename into"))?;
    // Best-effort: not all platforms allow opening a directory for sync.
    if let Ok(d) = std::fs::File::open(dir) {
        let _ = d.sync_all();
    }
    Ok(content.len() as u64)
}

/// Reads `dir/file`, framed as `kind`, and checks its header and CRC.
/// Returns the covered journal position and the body. A missing file is
/// `missing()`; a bad header or checksum is a [`PersistError::Snapshot`].
pub(crate) fn read_framed(
    dir: &Path,
    file: &str,
    kind: &str,
    missing: impl FnOnce() -> PersistError,
) -> Result<(u64, String)> {
    let path = dir.join(file);
    let mut content = match std::fs::read_to_string(&path) {
        Ok(content) => content,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Err(missing()),
        Err(e) => return Err(io_err(&path, "read")(e)),
    };
    let bad = |detail: String| PersistError::Snapshot {
        path: path.display().to_string(),
        detail,
    };
    let Some(newline) = content.find('\n') else {
        return Err(bad("empty file".into()));
    };
    let prefix = header_prefix(kind);
    let header = content[..newline]
        .strip_prefix(&prefix)
        .ok_or_else(|| bad(format!("missing `{}` header", prefix.trim())))?;
    let mut journal_pos = None;
    let mut stored_crc = None;
    for field in header.split_whitespace() {
        match field.split_once('=') {
            Some(("journal_pos", v)) => journal_pos = v.parse::<u64>().ok(),
            Some(("crc", v)) => stored_crc = u32::from_str_radix(v, 16).ok(),
            _ => {}
        }
    }
    let journal_pos =
        journal_pos.ok_or_else(|| bad("header is missing a numeric journal_pos".into()))?;
    let stored_crc = stored_crc.ok_or_else(|| bad("header is missing a hex crc".into()))?;
    let computed = crc32(&content.as_bytes()[newline + 1..]);
    if computed != stored_crc {
        return Err(bad(format!(
            "checksum mismatch (stored {stored_crc:#010x}, computed {computed:#010x})"
        )));
    }
    content.drain(..=newline);
    Ok((journal_pos, content))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(name: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!("dduf_framed_{}_{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    /// The bytes on disk are the snapshot and counts formats of every
    /// earlier release, header and checksum included.
    #[test]
    fn framed_bytes_are_the_established_formats() {
        let dir = tmpdir("bytes");
        for (file, kind, body, expected) in [
            (
                "snapshot.dl",
                "snapshot",
                "la(dolors).\n",
                "% dduf-snapshot v1 journal_pos=42 crc=007b351b\nla(dolors).\n",
            ),
            (
                "counts.state",
                "counts",
                "c 1 +v(a).\nx +tc(a, b).\n",
                "% dduf-counts v1 journal_pos=42 crc=b21e021e\nc 1 +v(a).\nx +tc(a, b).\n",
            ),
        ] {
            let bytes = write_framed(&dir, file, kind, 42, body).unwrap();
            let on_disk = std::fs::read_to_string(dir.join(file)).unwrap();
            assert_eq!(on_disk, expected);
            assert_eq!(bytes, expected.len() as u64);
            assert!(!dir.join(format!("{file}.tmp")).exists());
            let missing = || unreachable!("the file exists");
            assert_eq!(
                read_framed(&dir, file, kind, missing).unwrap(),
                (42, body.to_string())
            );
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn bad_frames_name_what_is_wrong() {
        let dir = tmpdir("bad");
        let detail = |content: &str| {
            std::fs::write(dir.join("f"), content).unwrap();
            match read_framed(&dir, "f", "counts", || unreachable!()) {
                Err(PersistError::Snapshot { detail, .. }) => detail,
                other => panic!("expected a frame error, got {other:?}"),
            }
        };
        assert_eq!(detail(""), "empty file");
        assert_eq!(
            detail("% dduf-snapshot v1 journal_pos=1 crc=0\n"),
            "missing `% dduf-counts v1` header"
        );
        assert_eq!(
            detail("% dduf-counts v1 crc=0\n"),
            "header is missing a numeric journal_pos"
        );
        assert_eq!(
            detail("% dduf-counts v1 journal_pos=1\n"),
            "header is missing a hex crc"
        );
        assert!(
            detail("% dduf-counts v1 journal_pos=1 crc=0\nx\n").starts_with("checksum mismatch")
        );
        let gone = read_framed(&dir, "absent", "counts", || {
            PersistError::NotADatabase("gone".into())
        });
        assert!(matches!(gone, Err(PersistError::NotADatabase(_))));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
