//! End-to-end test of the `dduf` shell binary: drive it with a piped
//! script (the non-interactive mode) and check the printed answers.

use std::io::Write as _;
use std::process::{Command, Stdio};

fn run_script(db_src: &str, script: &str) -> (String, String) {
    let dir = std::env::temp_dir();
    let path = dir.join(format!("dduf_bin_test_{}.dl", std::process::id()));
    std::fs::write(&path, db_src).unwrap();
    let mut child = Command::new(env!("CARGO_BIN_EXE_dduf"))
        .arg(&path)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary runs");
    child
        .stdin
        .as_mut()
        .unwrap()
        .write_all(script.as_bytes())
        .unwrap();
    let out = child.wait_with_output().unwrap();
    let _ = std::fs::remove_file(&path);
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

const EMPLOYMENT: &str = "la(dolors). u_benefit(dolors).
unemp(X) :- la(X), not works(X).
:- unemp(X), not u_benefit(X).
";

#[test]
fn scripted_session_runs_the_catalog() {
    let (stdout, stderr) = run_script(
        EMPLOYMENT,
        ":check -u_benefit(dolors).
:update -unemp(dolors).
:do 1
:show
:quit
",
    );
    assert!(
        stdout.contains("REJECT"),
        "stdout: {stdout}\nstderr: {stderr}"
    );
    assert!(stdout.contains("[1]"), "{stdout}");
    assert!(stdout.contains("committed"), "{stdout}");
    // After committing {+works(dolors)}, unemp is empty (the `:show`
    // listing must not include it as a derived fact); u_benefit remains.
    assert!(stdout.contains("u_benefit(dolors)."), "{stdout}");
    assert!(!stdout.contains("unemp(dolors). %= derived"), "{stdout}");
    // The induced deletion was reported during the commit.
    assert!(stdout.contains("induced {-unemp(dolors)}"), "{stdout}");
    assert!(stderr.is_empty(), "unexpected stderr: {stderr}");
}

#[test]
fn errors_go_to_stderr_and_session_survives() {
    let (stdout, stderr) = run_script(
        EMPLOYMENT,
        ":nonsense
:threads 2
:check +works(dolors).
",
    );
    assert!(stderr.contains("unknown command `:nonsense`"), "{stderr}");
    // Evaluation is sequential; there is no worker count to set.
    assert!(stderr.contains("unknown command `:threads`"), "{stderr}");
    assert!(stdout.contains("ok"), "{stdout}");
}

/// A `:why` whose transaction is not ground is a usage error, and the
/// session goes on.
#[test]
fn why_of_a_non_ground_transaction_is_a_usage_error() {
    let (stdout, stderr) = run_script(
        EMPLOYMENT,
        ":why -unemp(dolors). +works(X).
:why -unemp(dolors). +works(dolors).
",
    );
    assert!(stderr.contains("usage: :why"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(stdout.contains("no derivation survives"), "{stdout}");
}

fn dduf(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_dduf"))
        .args(args)
        .stdin(Stdio::null())
        .output()
        .unwrap()
}

fn dduf_piped(args: &[&str], script: &str) -> std::process::Output {
    let mut child = Command::new(env!("CARGO_BIN_EXE_dduf"))
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    // A child that refuses its database exits without reading stdin, and
    // the write then races its exit (EPIPE); callers assert on the output.
    let _ = child.stdin.as_mut().unwrap().write_all(script.as_bytes());
    child.wait_with_output().unwrap()
}

#[test]
fn version_and_help_flags() {
    for flag in ["--version", "-V"] {
        let out = dduf(&[flag]);
        assert!(out.status.success(), "{flag}");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            stdout.contains(env!("CARGO_PKG_VERSION")),
            "{flag}: {stdout}"
        );
    }
    for flag in ["--help", "-h", "help"] {
        let out = dduf(&[flag]);
        assert!(out.status.success(), "{flag}");
        let stdout = String::from_utf8_lossy(&out.stdout);
        for verb in [
            "lint",
            "db init",
            "db open",
            "db checkpoint",
            "db log",
            "db verify",
        ] {
            assert!(stdout.contains(verb), "{flag} must list `{verb}`: {stdout}");
        }
    }
}

#[test]
fn usage_errors_exit_two_not_file_not_found() {
    // An unrecognized flag is a usage error, not a file path.
    let out = dduf(&["--bogus"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unrecognized flag"), "{stderr}");
    assert!(stderr.contains("usage:"), "{stderr}");
    // No arguments at all: usage on stderr, exit 2.
    let out = dduf(&[]);
    assert_eq!(out.status.code(), Some(2));
    // Extra operands after the database file.
    let out = dduf(&["a.dl", "b.dl"]);
    assert_eq!(out.status.code(), Some(2));
    // Unknown db subcommand.
    let out = dduf(&["db", "bogus"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage:"));
}

/// Evaluation is sequential: a worker-count flag is a usage error like
/// any other unrecognized flag.
#[test]
fn thread_count_flags_are_unrecognized() {
    for args in [&["--threads", "2"][..], &["-j", "2"], &["--threads=2"]] {
        let out = dduf(&[args, &["db.dl"]].concat());
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("unrecognized flag `{}`", args[0])),
            "{args:?}: {stderr}"
        );
        assert!(!stderr.contains("--threads N"), "{args:?}: {stderr}");
    }
}

#[test]
fn db_verbs_round_trip_a_durable_session() {
    let base = std::env::temp_dir().join(format!("dduf_bin_db_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    std::fs::create_dir_all(&base).unwrap();
    let schema = base.join("schema.dl");
    std::fs::write(&schema, EMPLOYMENT).unwrap();
    let dir = base.join("db");
    let schema = schema.to_str().unwrap();
    let dir = dir.to_str().unwrap();

    // init
    let out = dduf(&["db", "init", schema, dir]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("initialized"));

    // open: commit through the interactive session (piped script).
    let out = dduf_piped(&["db", "open", dir], ":force +works(dolors).\n:quit\n");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("applied {+works(dolors)}"), "{stdout}");

    // log: the journaled record is shown.
    let out = dduf(&["db", "log", dir]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("+works(dolors)."), "{stdout}");
    assert!(stdout.contains("1 record(s)"), "{stdout}");

    // verify: clean.
    let out = dduf(&["db", "verify", dir]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("ok:"), "{stdout}");

    // The committed state is visible on reopen.
    let out = dduf_piped(&["db", "open", dir], ":show works\n:quit\n");
    assert!(String::from_utf8_lossy(&out.stdout).contains("works(dolors)."));

    // checkpoint, then verify again.
    let out = dduf(&["db", "checkpoint", dir]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let out = dduf(&["db", "verify", dir]);
    assert!(out.status.success());

    // One commit past the checkpoint: the recovery tail.
    let journal = std::path::Path::new(dir).join("journal.log");
    let tail_start = std::fs::metadata(&journal).unwrap().len() as usize;
    let out = dduf_piped(&["db", "open", dir], ":force +la(maria).\n:quit\n");
    assert!(out.status.success());

    // Corrupt one payload byte of record 0, which the snapshot covers:
    // verify must fail naming record 0 ...
    let mut bytes = std::fs::read(&journal).unwrap();
    let flip = 8 + 8 + 1; // magic + record header + 1 byte into the payload
    bytes[flip] ^= 0x40;
    std::fs::write(&journal, &bytes).unwrap();
    let out = dduf(&["db", "verify", dir]);
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("record 0"), "{stderr}");
    assert!(stderr.contains("checksum mismatch"), "{stderr}");
    // ... while open, which reads only the tail, recovers the full state.
    let out = dduf_piped(&["db", "open", dir], ":show\n:quit\n");
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("1 replayed journal record(s)"), "{stdout}");
    assert!(
        stdout.contains("1 replayed journal record(s) as 1 net base event(s)"),
        "{stdout}"
    );
    assert!(stdout.contains("works(dolors)."), "{stdout}");
    assert!(stdout.contains("la(maria)."), "{stdout}");

    // Damage in the tail: open refuses (mid-log damage is never truncated
    // silently).
    bytes[tail_start + 8 + 1] ^= 0x40;
    std::fs::write(&journal, &bytes).unwrap();
    let out = dduf_piped(&["db", "open", dir], ":quit\n");
    assert_eq!(out.status.code(), Some(1));
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("journal corrupt"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    std::fs::remove_dir_all(&base).unwrap();
}

/// `dduf db checkpoint` reports the byte its snapshot covers and the
/// records it folded in since the previous checkpoint — over two
/// checkpoints, where the second one covers every record but folds in one.
#[test]
fn db_checkpoint_reports_the_byte_it_covers_and_the_records_it_folds_in() {
    let base = std::env::temp_dir().join(format!("dduf_bin_ckpt_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    std::fs::create_dir_all(&base).unwrap();
    let schema = base.join("schema.dl");
    std::fs::write(&schema, EMPLOYMENT).unwrap();
    let dir = base.join("db");
    let journal = dir.join("journal.log");
    let (schema, dir) = (schema.to_str().unwrap(), dir.to_str().unwrap());
    assert!(dduf(&["db", "init", schema, dir]).status.success());

    let script = ":force +la(ana).\n:force +la(ben).\n:force +works(ana).\n:quit\n";
    assert!(dduf_piped(&["db", "open", dir], script).status.success());
    let first = std::fs::metadata(&journal).unwrap().len();
    let out = dduf(&["db", "checkpoint", dir]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains(&format!(
            "snapshot covers the journal through byte {first}; folded in 3 record(s) \
             since the previous checkpoint (byte 8)"
        )),
        "{stdout}"
    );
    assert!(
        stdout.contains("(byte 8) as 3 net base event(s)"),
        "{stdout}"
    );

    let script = ":force +works(ben).\n:quit\n";
    assert!(dduf_piped(&["db", "open", dir], script).status.success());
    let second = std::fs::metadata(&journal).unwrap().len();
    let out = dduf(&["db", "checkpoint", dir]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains(&format!(
            "snapshot covers the journal through byte {second}; folded in 1 record(s) \
             since the previous checkpoint (byte {first})"
        )),
        "{stdout}"
    );
    assert!(
        stdout.contains(&format!("(byte {first}) as 1 net base event(s)")),
        "{stdout}"
    );
    let out = dduf(&["db", "log", dir]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains(&format!(
            "4 record(s), snapshot covers through byte {second}"
        )),
        "{stdout}"
    );
    std::fs::remove_dir_all(&base).unwrap();
}

/// A reader that stops early (`dduf db log <dir> | head -2`) closes the
/// pipe mid-dump: the dump ends quietly with exit 0, no panic.
#[test]
fn db_log_into_a_closed_pipe_exits_zero() {
    use std::io::BufRead as _;
    let base = std::env::temp_dir().join(format!("dduf_bin_pipe_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    let dir = base.join("db");
    let (proc, mut store) = dduf::persist::DurableDb::init(&dir, EMPLOYMENT)
        .unwrap()
        .into_parts();
    // Far more dump than a pipe buffers, so the writer meets the closed end.
    let payloads: Vec<String> = (0..10_000).map(|i| format!("+la(p{i}).")).collect();
    store.record_commit_batch(&payloads).unwrap();
    drop((proc, store));

    let mut child = Command::new(env!("CARGO_BIN_EXE_dduf"))
        .args(["db", "log", dir.to_str().unwrap()])
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    let mut lines = std::io::BufReader::new(child.stdout.take().unwrap()).lines();
    assert!(lines
        .next()
        .unwrap()
        .unwrap()
        .starts_with("journal: 10000 record(s)"));
    assert!(lines
        .next()
        .unwrap()
        .unwrap()
        .starts_with("[0] @8 +la(p0)."));
    drop(lines);
    let out = child.wait_with_output().unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    assert!(stderr.is_empty(), "{stderr}");
    std::fs::remove_dir_all(&base).unwrap();
}

/// Write verbs against a directory whose `dduf.lock` is held by a live
/// process must exit 1 with the clear "locked by another process"
/// diagnostic (not a raw debug string), while the read-only verbs keep
/// working lock-free.
#[test]
fn locked_database_rejects_write_verbs_with_a_clear_message() {
    let base = std::env::temp_dir().join(format!("dduf_bin_lock_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    std::fs::create_dir_all(&base).unwrap();
    let schema = base.join("schema.dl");
    std::fs::write(&schema, EMPLOYMENT).unwrap();
    let dir = base.join("db");
    let out = dduf(&[
        "db",
        "init",
        schema.to_str().unwrap(),
        dir.to_str().unwrap(),
    ]);
    assert!(out.status.success());

    // Hold the directory lock the way a running server does.
    let held = dduf::persist::DurableDb::open(&dir).unwrap();

    for verb in ["checkpoint", "init"] {
        let out = if verb == "init" {
            dduf(&[
                "db",
                "init",
                schema.to_str().unwrap(),
                dir.to_str().unwrap(),
            ])
        } else {
            dduf(&["db", verb, dir.to_str().unwrap()])
        };
        assert_eq!(out.status.code(), Some(1), "db {verb} against a locked dir");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("locked by another process"),
            "db {verb}: {stderr}"
        );
        assert!(
            stderr.contains("dduf serve"),
            "db {verb} should hint at who owns the lock: {stderr}"
        );
        assert!(
            !stderr.contains("Locked("),
            "db {verb} leaked a debug rendering: {stderr}"
        );
    }

    // Read-only verbs deliberately skip the lock.
    for verb in ["verify", "log"] {
        let out = dduf(&["db", verb, dir.to_str().unwrap()]);
        assert!(
            out.status.success(),
            "db {verb} must not need the lock: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }

    // Releasing the lock makes the write verbs work again.
    drop(held);
    let out = dduf(&["db", "checkpoint", dir.to_str().unwrap()]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    std::fs::remove_dir_all(&base).unwrap();
}

#[test]
fn bad_database_file_reports_and_exits_nonzero() {
    let dir = std::env::temp_dir();
    let path = dir.join(format!("dduf_bin_bad_{}.dl", std::process::id()));
    std::fs::write(&path, "p(X) :- not q(X).").unwrap(); // unsafe rule
    let out = Command::new(env!("CARGO_BIN_EXE_dduf"))
        .arg(&path)
        .stdin(Stdio::null())
        .output()
        .unwrap();
    let _ = std::fs::remove_file(&path);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("not allowed"), "{stderr}");
}
