//! End-to-end tests of the observability surface of the `dduf` binary:
//! `--trace` / `--trace=json` run reports on stderr, the `:stats` shell
//! command, `dduf db stats`, and — crucially — that tracing changes
//! nothing else: the default output stays byte-identical and the JSON
//! report's semantic counters are identical from process to process.

use std::io::Write as _;
use std::process::{Command, Stdio};

const EMPLOYMENT: &str = "la(dolors). u_benefit(dolors).
unemp(X) :- la(X), not works(X).
:- unemp(X), not u_benefit(X).
";

const SCRIPT: &str = ":check -u_benefit(dolors).
:update -unemp(dolors).
:do 1
:show
:quit
";

/// Writes the employment database to a temp file and returns its path.
fn db_file(name: &str) -> std::path::PathBuf {
    let path = std::env::temp_dir().join(format!("dduf_trace_{}_{name}.dl", std::process::id()));
    std::fs::write(&path, EMPLOYMENT).unwrap();
    path
}

/// Runs the binary with `args`, piping `script` to stdin when given.
fn dduf(args: &[&str], script: Option<&str>) -> std::process::Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_dduf"));
    cmd.args(args).stdout(Stdio::piped()).stderr(Stdio::piped());
    match script {
        None => {
            cmd.stdin(Stdio::null());
            cmd.output().unwrap()
        }
        Some(s) => {
            cmd.stdin(Stdio::piped());
            let mut child = cmd.spawn().unwrap();
            child
                .stdin
                .as_mut()
                .unwrap()
                .write_all(s.as_bytes())
                .unwrap();
            child.wait_with_output().unwrap()
        }
    }
}

/// With no `--trace`, stdout and stderr are byte-identical to what the
/// binary printed before tracing existed: the collector must be
/// invisible by default.
#[test]
fn default_output_is_untouched_by_tracing() {
    let path = db_file("default");
    let plain = dduf(&[path.to_str().unwrap()], Some(SCRIPT));
    let traced = dduf(&["--trace", path.to_str().unwrap()], Some(SCRIPT));
    assert!(plain.status.success());
    assert!(traced.status.success());
    assert!(
        plain.stderr.is_empty(),
        "default stderr not empty: {}",
        String::from_utf8_lossy(&plain.stderr)
    );
    assert_eq!(
        plain.stdout, traced.stdout,
        "--trace changed stdout (report must go to stderr only)"
    );
    let report = String::from_utf8_lossy(&traced.stderr);
    assert!(report.contains("trace report"), "{report}");
    assert!(report.contains("eval.materialize"), "{report}");
    assert!(report.contains("upward.apply"), "{report}");
    assert!(report.contains("downward.translate"), "{report}");
    let _ = std::fs::remove_file(&path);
}

/// `--trace=json` emits one JSON document on stderr with the documented
/// shape — version tag, semantic_only marker, phases with labelled spans
/// and counter objects — and no wall-clock fields.
#[test]
fn trace_json_has_the_documented_shape() {
    let path = db_file("json");
    let out = dduf(&["--trace=json", path.to_str().unwrap()], Some(SCRIPT));
    assert!(out.status.success());
    let json = String::from_utf8(out.stderr).expect("stderr is UTF-8");
    assert!(
        json.starts_with("{\"dduf_trace\":1,\"semantic_only\":true,\"phases\":["),
        "{json}"
    );
    assert!(json.ends_with("}\n"), "{json}");
    assert!(json.contains("\"phase\":\"eval.materialize\""), "{json}");
    assert!(json.contains("\"label\":\"\""), "{json}");
    assert!(json.contains("\"count\":"), "{json}");
    assert!(json.contains("\"counters\":{"), "{json}");
    assert!(json.contains("\"components\":"), "{json}");
    assert!(json.contains("\"phase\":\"downward.translate\""), "{json}");
    assert!(json.contains("\"alternatives\":"), "{json}");
    assert!(
        !json.contains("time_us"),
        "semantic-only JSON must exclude wall-clock times: {json}"
    );
    // Balanced nesting: same number of opening and closing braces/brackets.
    let opens = json.matches('{').count();
    let closes = json.matches('}').count();
    assert_eq!(opens, closes, "{json}");
    let _ = std::fs::remove_file(&path);
}

/// The determinism contract, end to end: the full JSON report (which
/// holds only semantic counters) is byte-identical in two separate
/// processes, whose hash maps are seeded differently.
#[test]
fn trace_json_identical_across_processes() {
    let path = db_file("processes");
    let run = || dduf(&["--trace=json", path.to_str().unwrap()], Some(SCRIPT));
    let (first, second) = (run(), run());
    assert!(first.status.success() && second.status.success());
    assert_eq!(first.stdout, second.stdout);
    assert_eq!(
        String::from_utf8_lossy(&first.stderr),
        String::from_utf8_lossy(&second.stderr),
        "semantic trace diverges between processes"
    );
    let _ = std::fs::remove_file(&path);
}

/// A bad `--trace` value is a usage error: exit 2 and the usage text.
#[test]
fn bad_trace_value_is_a_usage_error() {
    let path = db_file("badvalue");
    let out = dduf(&["--trace=bogus", path.to_str().unwrap()], None);
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--trace expects"), "{err}");
    assert!(err.contains("usage:"), "{err}");
    let _ = std::fs::remove_file(&path);
}

/// `:stats` works in a piped session — even without `--trace` — because
/// the collector is always installed; it renders whatever has been
/// recorded so far.
#[test]
fn stats_command_reports_in_session() {
    let path = db_file("stats");
    let out = dduf(
        &[path.to_str().unwrap()],
        Some(":apply +works(dolors).\n:stats\n:quit\n"),
    );
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("trace report"), "{stdout}");
    assert!(stdout.contains("eval.materialize"), "{stdout}");
    // A checked `:apply` is one upward interpretation, not two: the
    // maintenance engine's, and no read besides it.
    assert!(stdout.contains("upward.maintain\n  ·  x1  "), "{stdout}");
    assert!(!stdout.contains("upward.apply"), "{stdout}");
    // No --trace flag: nothing on stderr.
    assert!(
        out.stderr.is_empty(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let _ = std::fs::remove_file(&path);
}

/// `dduf db stats` prints a storage summary plus the recovery trace and
/// uses the documented exit codes (0 ok, 1 damaged/missing, 2 usage).
#[test]
fn db_stats_summary_and_exit_codes() {
    let schema = db_file("dbstats_schema");
    let dir = std::env::temp_dir().join(format!("dduf_trace_dbstats_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let init = dduf(
        &[
            "db",
            "init",
            schema.to_str().unwrap(),
            dir.to_str().unwrap(),
        ],
        None,
    );
    assert!(init.status.success());
    let open = dduf(
        &["db", "open", dir.to_str().unwrap()],
        Some(":apply +works(dolors).\n:stats\n:quit\n"),
    );
    assert!(open.status.success());
    // A durable session's checked `:apply` is interpreted once, by the
    // maintenance engine that keeps the counts.
    let stdout = String::from_utf8_lossy(&open.stdout);
    assert!(stdout.contains("upward.maintain\n  ·  x1  "), "{stdout}");
    assert!(!stdout.contains("upward.apply"), "{stdout}");

    let stats = dduf(&["db", "stats", dir.to_str().unwrap()], None);
    assert_eq!(stats.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&stats.stdout);
    assert!(stdout.contains("journal end at byte"), "{stdout}");
    assert!(stdout.contains("1 record(s) replayed"), "{stdout}");
    assert!(
        stdout.contains("1 record(s) replayed on open as 1 net base event(s)"),
        "{stdout}"
    );
    assert!(stdout.contains("net_events=1"), "{stdout}");
    assert!(stdout.contains("recovery.open"), "{stdout}");
    assert!(stdout.contains("journal.scan"), "{stdout}");

    let missing = dduf(&["db", "stats", "/nonexistent_dduf_db"], None);
    assert_eq!(missing.status.code(), Some(1));
    let usage = dduf(&["db", "stats"], None);
    assert_eq!(usage.status.code(), Some(2));

    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_file(&schema);
}
