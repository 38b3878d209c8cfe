//! End-to-end suite for `dduf serve`: a real server process, real TCP
//! clients, and the two contracts that define the server (DESIGN.md
//! §14):
//!
//! * **Serial equivalence** — whatever interleaving concurrent clients
//!   produce, the final durable state is bit-identical to replaying the
//!   journal's transactions serially through a plain in-memory
//!   processor. Group commit batches fsyncs, never semantics.
//! * **Durability of acknowledgement** — a SIGKILL at any moment loses
//!   at most unacknowledged work: every `:apply` a client saw `ok` for
//!   is in the recovered state.

use dduf::prelude::*;
use dduf::server::proto::read_response;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};

const SCHEMA: &str = "item(seed, s0). view(X) :- item(X, Y).";

fn tmpdir(name: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("dduf_e2e_{}_{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// Creates a durable database and releases it (the server process must
/// be able to take the directory lock).
fn make_db(dir: &Path) {
    drop(dduf::persist::DurableDb::init(dir, SCHEMA).unwrap());
}

/// Spawns `dduf serve` on an ephemeral port and parses the bound
/// address from its stdout. The returned reader keeps the stdout pipe
/// open for the child's lifetime (dropping it would turn the server's
/// final status prints into broken-pipe panics).
fn spawn_server(dir: &Path) -> (Child, SocketAddr, BufReader<std::process::ChildStdout>) {
    spawn_server_with(dir, &[], &[])
}

/// `spawn_server` plus extra `dduf serve` flags and environment
/// variables (fault hooks like `DDUF_SYNC_DELAY_US`).
fn spawn_server_with(
    dir: &Path,
    extra_args: &[&str],
    envs: &[(&str, &str)],
) -> (Child, SocketAddr, BufReader<std::process::ChildStdout>) {
    let mut args = vec![
        "serve",
        dir.to_str().unwrap(),
        "--addr",
        "127.0.0.1:0",
        "--sessions",
        "4",
    ];
    args.extend_from_slice(extra_args);
    let mut child = Command::new(env!("CARGO_BIN_EXE_dduf"))
        .args(&args)
        .envs(envs.iter().copied())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .unwrap();
    let mut reader = BufReader::new(child.stdout.take().unwrap());
    let addr = loop {
        let mut line = String::new();
        assert_ne!(
            reader.read_line(&mut line).unwrap(),
            0,
            "server exited before announcing its address"
        );
        if let Some(rest) = line.trim().strip_prefix("listening on ") {
            break rest.parse().unwrap();
        }
    };
    (child, addr, reader)
}

struct Client {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(addr: SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).unwrap();
        stream.set_nodelay(true).unwrap();
        let reader = BufReader::new(stream.try_clone().unwrap());
        Client { stream, reader }
    }

    fn send(&mut self, line: &str) -> (bool, Vec<String>) {
        writeln!(self.stream, "{line}").unwrap();
        read_response(&mut self.reader).unwrap()
    }
}

/// Replays the journal serially through a fresh in-memory processor and
/// asserts the recovered durable state renders bit-identically.
fn assert_serial_equivalence(dir: &Path) -> String {
    assert_serial_equivalence_over(dir, SCHEMA)
}

/// [`assert_serial_equivalence`] for a database created from `schema`.
fn assert_serial_equivalence_over(dir: &Path, schema: &str) -> String {
    let (_, scan) = dduf::persist::read_log(dir).unwrap();
    let mut replay = UpdateProcessor::new(parse_database(schema).unwrap()).unwrap();
    for r in &scan.records {
        let txn = replay.transaction(&r.payload).unwrap();
        replay.commit(&txn).unwrap();
    }
    let recovered = dduf::persist::DurableDb::open(dir).unwrap();
    let state = dduf::datalog::pretty::database(recovered.processor().database());
    assert_eq!(
        dduf::datalog::pretty::database(replay.database()),
        state,
        "recovered state is not a serial replay of the journal"
    );
    state
}

/// Four concurrent clients mixing commits, queries, and checks; the
/// final state must equal the serial replay of the journal and contain
/// every acknowledged fact.
#[test]
fn concurrent_clients_end_in_a_serially_equivalent_state() {
    let dir = tmpdir("conc");
    make_db(&dir);
    let (mut child, addr, _stdout) = spawn_server(&dir);

    let workers: Vec<_> = (0..4)
        .map(|c| {
            std::thread::spawn(move || {
                let mut client = Client::connect(addr);
                let mut acked = Vec::new();
                for i in 0..12 {
                    let fact = format!("item(c{c}, i{i})");
                    let (ok, lines) = client.send(&format!(":apply +{fact}."));
                    assert!(ok, "client {c} commit {i}: {lines:?}");
                    assert!(lines[0].starts_with("applied"), "{lines:?}");
                    acked.push(fact);
                    // Read-your-writes on the same connection.
                    let (ok, lines) = client.send(&format!(":query view(c{c})"));
                    assert!(ok, "{lines:?}");
                    assert!(
                        lines.iter().any(|l| l == &format!("view(c{c})")),
                        "client {c} step {i}: own write invisible: {lines:?}"
                    );
                    // Reads never fail mid-stream.
                    let (ok, _) = client.send(":check +item(probe, p).");
                    assert!(ok);
                }
                let (ok, _) = client.send(":quit");
                assert!(ok);
                acked
            })
        })
        .collect();
    let acked: Vec<String> = workers
        .into_iter()
        .flat_map(|w| w.join().expect("client thread"))
        .collect();
    assert_eq!(acked.len(), 48);

    let mut admin = Client::connect(addr);
    let (ok, lines) = admin.send(":stats");
    assert!(ok);
    assert!(
        lines.iter().any(|l| l.starts_with("journal: durable")),
        "{lines:?}"
    );
    let (ok, _) = admin.send(":shutdown");
    assert!(ok);
    assert!(child.wait().unwrap().success());

    let state = assert_serial_equivalence(&dir);
    for fact in &acked {
        assert!(
            state.contains(fact.as_str()),
            "{fact} missing after shutdown"
        );
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// SIGKILL mid-run: the journal recovers to a clean prefix that
/// includes every acknowledged commit.
#[test]
fn sigkill_recovers_every_acknowledged_commit() {
    let dir = tmpdir("kill");
    make_db(&dir);
    let (mut child, addr, _stdout) = spawn_server(&dir);

    let mut client = Client::connect(addr);
    let mut acked = Vec::new();
    for i in 0..10 {
        let fact = format!("item(k, i{i})");
        let (ok, lines) = client.send(&format!(":apply +{fact}."));
        assert!(ok, "{lines:?}");
        acked.push(fact);
    }
    // One more request goes out, then the process dies mid-flight —
    // that one may or may not have made it; everything acked must have.
    writeln!(client.stream, ":apply +item(k, unacked).").unwrap();
    child.kill().unwrap();
    child.wait().unwrap();

    let state = assert_serial_equivalence(&dir);
    for fact in &acked {
        assert!(state.contains(fact.as_str()), "{fact} lost by SIGKILL");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Regression for the framing fix: body lines whose *content* contains
/// framing bytes must arrive byte-exact. A quoted symbol embedding a
/// CRLF splits into a body line that ends with a carriage return — the
/// byte the old reader's terminator stripping silently ate — and error
/// responses are deliberately multi-line without desynchronizing the
/// stream.
#[test]
fn framing_bytes_in_content_survive_the_wire() {
    let dir = tmpdir("framing");
    // The CRLF lives in a quoted symbol, so `:show` renders a line that
    // is split across two wire lines, the first ending in '\r'.
    let schema = "item('win\r\nstyle', s9). item(seed, s0). view(X) :- item(X, Y).";
    drop(dduf::persist::DurableDb::init(&dir, schema).unwrap());
    let (mut child, addr, _stdout) = spawn_server(&dir);
    let mut client = Client::connect(addr);

    // A symbol with an embedded CR commits over the wire and queries
    // back byte-exact (the request line carries the raw CR mid-line).
    let (ok, lines) = client.send(":apply +item('cr\rmid', s1).");
    assert!(ok, "{lines:?}");
    let (ok, lines) = client.send(":query view(X)");
    assert!(ok);
    assert!(
        lines.iter().any(|l| l == "view('cr\rmid')"),
        "embedded CR corrupted in transit: {lines:?}"
    );

    // The CRLF symbol shows up as two wire lines; the first keeps its
    // trailing '\r' and joining reconstructs the rendered fact exactly.
    let (ok, lines) = client.send(":show item");
    assert!(ok);
    assert!(
        lines.iter().any(|l| l.ends_with('\r')),
        "trailing CR stripped from a content line: {lines:?}"
    );
    assert!(
        lines.join("\n").contains("item('win\r\nstyle', s9)."),
        "CRLF symbol corrupted in transit: {lines:?}"
    );

    // A deliberately multi-line response and a following error frame
    // keep the stream in sync: every line of :help arrives, the error
    // is intact, and the connection still answers.
    let (ok, help) = client.send(":help");
    assert!(ok);
    assert!(help.len() > 5, "expected the full help body: {help:?}");
    let (ok, lines) = client.send(":apply +item('oops");
    assert!(!ok);
    assert!(
        lines
            .iter()
            .any(|l| l.contains("unterminated quoted symbol")),
        "{lines:?}"
    );
    assert_eq!(client.send(":ping"), (true, vec!["pong".to_string()]));

    let (ok, _) = client.send(":shutdown");
    assert!(ok);
    assert!(child.wait().unwrap().success());

    // The committed CR fact recovers: replaying the journal serially
    // over the schema matches the recovered state.
    let state = assert_serial_equivalence_over(&dir, schema);
    assert!(state.contains("item('cr\rmid', s1)."), "{state}");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// `:query` reads one positive atom off the snapshot's materialized
/// state — the writer's own interpretation, so a committed fact shows in
/// the view at once — and refuses anything else with an `err` frame
/// instead of answering for the first atom it can find.
#[test]
fn query_reads_the_maintained_state_and_rejects_other_shapes() {
    let dir = tmpdir("query");
    make_db(&dir);
    let (mut child, addr, _stdout) = spawn_server(&dir);
    let mut client = Client::connect(addr);

    let (ok, lines) = client.send(":apply +item(k1, s1).");
    assert!(ok, "{lines:?}");
    // Answers come in tuple order, which follows symbol interning.
    let (ok, mut lines) = client.send(":query view(X)");
    lines.sort();
    assert!(ok);
    assert_eq!(
        lines,
        ["(2 answer(s) via Materialized)", "view(k1)", "view(seed)"]
    );
    let (ok, lines) = client.send(":query item(k1, S).");
    assert!(ok);
    assert_eq!(lines, ["item(k1, s1)", "(1 answer(s) via Extensional)"]);
    for other in [":query not view(k1)", ":query item(X, Y), view(X)"] {
        let (ok, lines) = client.send(other);
        assert!(!ok, "{other} was answered: {lines:?}");
        assert!(
            lines.iter().any(|l| l.contains("usage: :query p(a, X)")),
            "{other}: {lines:?}"
        );
    }
    assert_eq!(client.send(":ping"), (true, vec!["pong".to_string()]));

    let (ok, _) = client.send(":shutdown");
    assert!(ok);
    assert!(child.wait().unwrap().success());
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The `REJECTED:` branch of the writer: a violating `:apply` between two
/// valid ones, written in one `write` so the three can share a batch. The
/// rejected one answers an `ok` frame, changes nothing, is not journaled,
/// and does not disturb its neighbours (the third is valid only on top of
/// the first); `:force` overrides it. The replies are the local shell's
/// (DESIGN.md §14), and the state survives a SIGKILL.
#[test]
fn rejected_apply_inside_a_batch_leaves_no_trace() {
    use dduf::cli::Session;
    const EMPLOYMENT: &str = "la(dolors). u_benefit(dolors). la(maria). works(maria).
        unemp(X) :- la(X), not works(X).
        :- unemp(X), not u_benefit(X).";
    const BATCH: [(&str, &str); 3] = [
        (
            ":apply +u_benefit(maria).",
            "applied {+u_benefit(maria)}; induced {}",
        ),
        (
            ":apply -u_benefit(dolors).",
            "REJECTED: violates +ic1 (use :force to override)",
        ),
        (
            ":apply -works(maria).",
            "applied {-works(maria)}; induced {+unemp(maria)}",
        ),
    ];
    const CHECK: (&str, &str) = (
        ":check +la(pere).",
        "warning: database is already inconsistent (see :repair)",
    );
    let dir = tmpdir("rejected");
    drop(dduf::persist::DurableDb::init(&dir, EMPLOYMENT).unwrap());
    let (mut child, addr, _stdout) = spawn_server(&dir);
    let mut client = Client::connect(addr);
    let mut shell = Session::from_source(EMPLOYMENT).unwrap();
    let records = || dduf::persist::read_log(&dir).unwrap().1.records.len();
    // `:show` lists predicates in the order the database met them, which
    // a durable database and a source file need not share.
    let show = |client: &mut Client| {
        let (ok, mut lines) = client.send(":show");
        assert!(ok, "{lines:?}");
        lines.sort();
        lines
    };

    let lines: Vec<&str> = BATCH.iter().map(|(line, _)| *line).collect();
    client
        .stream
        .write_all(format!("{}\n", lines.join("\n")).as_bytes())
        .unwrap();
    for (line, expected) in BATCH {
        let (ok, lines) = read_response(&mut client.reader).unwrap();
        assert_eq!((ok, lines.join("\n").as_str()), (true, expected), "{line}");
        assert_eq!(shell.run(line).unwrap(), expected, "{line}");
    }
    // The state is the one the two valid transactions alone produce.
    let mut valid_only = Session::from_source(EMPLOYMENT).unwrap();
    valid_only.run(BATCH[0].0).unwrap();
    valid_only.run(BATCH[2].0).unwrap();
    let expected = valid_only.run(":show").unwrap();
    let mut expected: Vec<&str> = expected.lines().collect();
    expected.sort();
    assert_eq!(show(&mut client), expected);
    assert_eq!(records(), 2, "a rejected transaction is not journaled");

    // A multi-predicate event set: two processes that interned `ic` and
    // `ic1` in different orders print it the same.
    const FORCE: (&str, &str) = (
        ":force -u_benefit(dolors).",
        "applied {-u_benefit(dolors)}; induced {+ic, +ic1}",
    );
    for (line, expected) in [FORCE, CHECK] {
        assert_eq!(client.send(line), (true, vec![expected.to_string()]));
        assert_eq!(shell.run(line).unwrap(), expected, "{line}");
    }
    assert_eq!(records(), 3);
    let shown = show(&mut client);

    child.kill().unwrap();
    child.wait().unwrap();
    assert_serial_equivalence_over(&dir, EMPLOYMENT);
    let (mut child, addr, _stdout) = spawn_server(&dir);
    let mut client = Client::connect(addr);
    assert_eq!(show(&mut client), shown);
    assert_eq!(client.send(CHECK.0), (true, vec![CHECK.1.to_string()]));
    let (ok, _) = client.send(":shutdown");
    assert!(ok);
    assert!(child.wait().unwrap().success());
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Saturating a tiny commit queue in `reject` mode: the overflow gets
/// the retryable `busy` diagnostic, every accepted commit is acked and
/// durable, `:stats` agrees with the client on the rejection count,
/// and the queue drains to depth 0 once the burst settles.
#[test]
fn backpressure_rejects_overflow_and_loses_no_accepted_commit() {
    let dir = tmpdir("backpressure");
    make_db(&dir);
    // One transaction per fsync, each fsync stretched to 20ms, and a
    // two-job high-water mark: a burst must overflow.
    let (mut child, addr, _stdout) = spawn_server_with(
        &dir,
        &[
            "--max-batch",
            "1",
            "--queue-cap",
            "2",
            "--backpressure",
            "reject",
        ],
        &[("DDUF_SYNC_DELAY_US", "20000")],
    );
    let mut client = Client::connect(addr);

    // Stream the whole burst without reading a single response: the
    // session submits each line as it arrives, so the queue saturates.
    const BURST: usize = 30;
    for i in 0..BURST {
        writeln!(client.stream, ":apply +item(bp, i{i}).").unwrap();
    }
    let mut acked = Vec::new();
    let mut rejected = 0usize;
    for i in 0..BURST {
        let (ok, lines) = read_response(&mut client.reader).unwrap();
        if ok {
            assert!(lines[0].starts_with("applied"), "request {i}: {lines:?}");
            acked.push(format!("item(bp, i{i})"));
        } else {
            let text = lines.join("\n");
            assert!(
                text.contains("retryable"),
                "rejection must say it is retryable: {text:?}"
            );
            rejected += 1;
        }
    }
    assert!(
        rejected > 0,
        "a 30-commit burst must overflow a 2-job queue"
    );
    assert!(!acked.is_empty(), "the queue must accept some of the burst");

    // Quiescent again: a retried commit goes through, and the gauge
    // agrees with what this client observed.
    let (ok, lines) = client.send(":apply +item(bp, retried).");
    assert!(ok, "retry after backpressure must succeed: {lines:?}");
    acked.push("item(bp, retried)".to_string());
    let (ok, lines) = client.send(":stats");
    assert!(ok);
    let queue_line = lines
        .iter()
        .find(|l| l.starts_with("queue: "))
        .expect("queue gauge line in :stats");
    assert!(
        queue_line.starts_with("queue: depth 0 of 2; "),
        "queue must be drained at quiescence: {queue_line:?}"
    );
    assert!(
        queue_line.contains(&format!("{rejected} rejected")),
        "server counted differently than the client saw: {queue_line:?} \
         vs {rejected} client-observed rejections"
    );

    let (ok, _) = client.send(":shutdown");
    assert!(ok);
    assert!(child.wait().unwrap().success());

    // Every accepted commit is durable; nothing rejected leaked in.
    let state = assert_serial_equivalence(&dir);
    for fact in &acked {
        assert!(state.contains(fact.as_str()), "{fact} was acked but lost");
    }
    assert_eq!(
        state.matches("item(bp, ").count(),
        acked.len(),
        "rejected commits must not appear in the durable state"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

/// While a server owns the directory, a second process opening it gets
/// the clear lock error instead of racing the journal.
#[test]
fn concurrent_process_is_locked_out_while_serving() {
    let dir = tmpdir("lockout");
    make_db(&dir);
    let (mut child, addr, _stdout) = spawn_server(&dir);

    let out = Command::new(env!("CARGO_BIN_EXE_dduf"))
        .args(["db", "stats", dir.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1), "second opener must fail");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("locked by another process"),
        "unexpected error text: {stderr}"
    );

    // Read-only verification deliberately works alongside the server.
    let out = Command::new(env!("CARGO_BIN_EXE_dduf"))
        .args(["db", "verify", dir.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success(), "verify must not need the lock");

    let mut client = Client::connect(addr);
    let (ok, _) = client.send(":shutdown");
    assert!(ok);
    assert!(child.wait().unwrap().success());
    // The lock died with the server: a local open works now.
    assert!(dduf::persist::DurableDb::open(&dir).is_ok());
    std::fs::remove_dir_all(&dir).unwrap();
}
