//! The `dduf db` verb family: durable databases on disk.
//!
//! ```sh
//! dduf db init schema.dl mydb/   # create: snapshot + empty journal
//! dduf db open mydb/             # interactive session, commits journaled
//! dduf db checkpoint mydb/       # write a snapshot covering the journal
//! dduf db log mydb/              # human-readable journal dump
//! dduf db verify mydb/           # scan snapshot + journal checksums
//! dduf db stats mydb/            # storage summary + recovery trace counters
//! ```
//!
//! Exit codes match `dduf lint`: `0` — success; `1` — the database is
//! damaged (corrupt journal/snapshot) or cannot be opened; `2` — usage or
//! I/O error.

use crate::cli::Session;
use dduf_persist::{DurableDb, PersistError};
use std::io::Write;

/// Usage string for the db verb family.
pub const DB_USAGE: &str = "\
usage: dduf db init <schema.dl> <dir>   create a durable database from a schema
       dduf db open <dir>               open an interactive durable session
       dduf db checkpoint <dir>         write a snapshot covering the journal
       dduf db log <dir>                print the journal, one record per line
       dduf db verify <dir>             scan snapshot + journal checksums
       dduf db stats <dir>              storage summary + recovery trace counters";

fn usage_err(msg: &str) -> i32 {
    eprintln!("dduf db: {msg}\n{DB_USAGE}");
    2
}

fn persist_err(e: &PersistError) -> i32 {
    eprint!("{}", e.render());
    1
}

/// Full `dduf db` entry point: dispatch on the subcommand, print results
/// to stdout (failures to stderr), return the exit code.
pub fn run(args: impl IntoIterator<Item = String>) -> i32 {
    let mut args = args.into_iter();
    let Some(sub) = args.next() else {
        return usage_err("missing subcommand");
    };
    let operands: Vec<String> = args.collect();
    match (sub.as_str(), operands.as_slice()) {
        ("init", [schema, dir]) => init(schema, dir),
        ("open", [dir]) => open(dir),
        ("checkpoint", [dir]) => checkpoint(dir),
        ("log", [dir]) => log(dir),
        ("verify", [dir]) => verify(dir),
        ("stats", [dir]) => stats(dir),
        ("init", _) => usage_err("init takes <schema.dl> <dir>"),
        ("open" | "checkpoint" | "log" | "verify" | "stats", _) => {
            usage_err(&format!("{sub} takes exactly one <dir>"))
        }
        _ => usage_err(&format!("unknown subcommand `{sub}`")),
    }
}

fn init(schema: &str, dir: &str) -> i32 {
    let src = match std::fs::read_to_string(schema) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("dduf db: cannot read {schema}: {e}");
            return 2;
        }
    };
    match DurableDb::init(dir, &src) {
        Ok(db) => {
            let d = db.processor().database();
            println!(
                "initialized durable database in {dir}: {} fact(s), {} rule(s); journal at {dir}/{}",
                d.fact_count(),
                d.program().rules().len(),
                dduf_persist::JOURNAL_FILE,
            );
            0
        }
        Err(e) => persist_err(&e),
    }
}

fn open(dir: &str) -> i32 {
    let db = match DurableDb::open(dir) {
        Ok(db) => db,
        Err(e) => return persist_err(&e),
    };
    let rec = db.recovery();
    if rec.truncated_bytes > 0 {
        println!(
            "recovered: truncated a torn final record ({} byte(s) from an unacknowledged commit)",
            rec.truncated_bytes
        );
    }
    println!(
        "opened {dir}: snapshot + {} replayed journal record(s) as {} net base event(s)",
        rec.replayed, rec.net_events
    );
    let mut session = Session::durable(db);
    crate::cli::run_repl(&mut session)
}

fn checkpoint(dir: &str) -> i32 {
    let mut db = match DurableDb::open(dir) {
        Ok(db) => db,
        Err(e) => return persist_err(&e),
    };
    // Open replayed exactly the records past the previous snapshot; the
    // new one folds them in and covers the whole journal.
    let rec = db.recovery();
    match db.checkpoint() {
        Ok(pos) => {
            println!(
                "checkpoint written: snapshot covers the journal through byte {pos}; \
                 folded in {} record(s) since the previous checkpoint (byte {}) \
                 as {} net base event(s)",
                rec.replayed, rec.snapshot_pos, rec.net_events,
            );
            0
        }
        Err(e) => persist_err(&e),
    }
}

fn log(dir: &str) -> i32 {
    let (snapshot_pos, scan) = match dduf_persist::read_log(dir) {
        Ok(log) => log,
        Err(e) => return persist_err(&e),
    };
    // A reader that stops early (`| head`) closes the pipe: that ends the
    // dump, it is not an error.
    match print_log(&mut std::io::stdout().lock(), snapshot_pos, &scan) {
        Ok(()) => 0,
        Err(e) if e.kind() == std::io::ErrorKind::BrokenPipe => 0,
        Err(e) => {
            eprintln!("dduf db log: cannot write the dump: {e}");
            2
        }
    }
}

fn print_log(
    out: &mut impl Write,
    snapshot_pos: u64,
    scan: &dduf_persist::Scan,
) -> std::io::Result<()> {
    writeln!(
        out,
        "journal: {} record(s), snapshot covers through byte {snapshot_pos}",
        scan.records.len()
    )?;
    for r in &scan.records {
        let mark = if r.offset < snapshot_pos {
            " %= in snapshot"
        } else {
            ""
        };
        writeln!(out, "[{}] @{} {}{mark}", r.index, r.offset, r.payload)?;
    }
    if let Some(t) = scan.torn {
        writeln!(
            out,
            "torn tail: {} dangling byte(s) at offset {} (truncated on next open)",
            t.bytes, t.offset
        )?;
    }
    out.flush()
}

fn verify(dir: &str) -> i32 {
    match dduf_persist::verify(dir) {
        Ok(report) => {
            println!(
                "ok: snapshot {} fact(s) covering journal through byte {}; {} record(s) \
                 ({} in recovery tail), journal intact through byte {}",
                report.snapshot_facts,
                report.snapshot_pos,
                report.records,
                report.tail_records,
                report.journal_end,
            );
            if let Some(t) = report.torn {
                println!(
                    "torn tail: {} dangling byte(s) at offset {} (an unacknowledged commit; \
                     truncated on next open)",
                    t.bytes, t.offset
                );
            }
            0
        }
        Err(e) => persist_err(&e),
    }
}

fn stats(dir: &str) -> i32 {
    // Open the database under a fresh collector so the report is exactly
    // the cost of recovery (scan + replay), independent of anything the
    // surrounding session recorded.
    let (opened, report) = dduf_obs::capture(|| DurableDb::open(dir));
    let db = match opened {
        Ok(db) => db,
        Err(e) => return persist_err(&e),
    };
    let rec = db.recovery();
    let d = db.processor().database();
    println!(
        "{dir}: {} fact(s), {} rule(s); journal end at byte {}; snapshot covers through byte {}; \
         {} record(s) replayed on open as {} net base event(s)",
        d.fact_count(),
        d.program().rules().len(),
        db.store().journal_end(),
        rec.snapshot_pos,
        rec.replayed,
        rec.net_events,
    );
    print!("{}", report.render_text());
    0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(name: &str) -> String {
        let d = std::env::temp_dir().join(format!("dduf_dbverb_{}_{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d.display().to_string()
    }

    fn schema_file(name: &str) -> String {
        let p = std::env::temp_dir().join(format!("dduf_dbverb_{}_{name}.dl", std::process::id()));
        std::fs::write(&p, "la(dolors).\nunemp(X) :- la(X), not works(X).\n").unwrap();
        p.display().to_string()
    }

    #[test]
    fn usage_errors_exit_two() {
        assert_eq!(run(Vec::<String>::new()), 2);
        assert_eq!(run(["bogus".to_string()]), 2);
        assert_eq!(run(["init".to_string()]), 2);
        assert_eq!(run(["verify".to_string(), "a".into(), "b".into()]), 2);
    }

    #[test]
    fn init_checkpoint_verify_cycle() {
        let schema = schema_file("cycle");
        let dir = tmpdir("cycle");
        assert_eq!(run(["init".to_string(), schema.clone(), dir.clone()]), 0);
        // Re-init refuses.
        assert_eq!(run(["init".to_string(), schema.clone(), dir.clone()]), 1);
        assert_eq!(run(["checkpoint".to_string(), dir.clone()]), 0);
        assert_eq!(run(["verify".to_string(), dir.clone()]), 0);
        assert_eq!(run(["log".to_string(), dir.clone()]), 0);
        assert_eq!(run(["stats".to_string(), dir.clone()]), 0);
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_file(&schema);
    }

    #[test]
    fn missing_database_exits_one() {
        let dir = tmpdir("missing");
        assert_eq!(run(["verify".to_string(), dir.clone()]), 1);
        assert_eq!(run(["stats".to_string(), dir.clone()]), 1);
        assert_eq!(run(["open".to_string(), dir]), 1);
    }

    #[test]
    fn unreadable_schema_exits_two() {
        let dir = tmpdir("badschema");
        assert_eq!(run(["init".to_string(), "/nonexistent.dl".into(), dir]), 2);
    }
}
