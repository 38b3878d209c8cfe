//! Randomized fault-injection harness for the pipelined server
//! (DESIGN.md §16). Two families of evidence that pipelining staging
//! with the in-flight fsync changes *when* durability happens, never
//! what is committed:
//!
//! * **Seeded randomized workload** — N concurrent clients drive a
//!   deterministic (per-client xorshift-seeded) mix of `:apply`
//!   inserts and deletes, `:query`, `:check`, and `:checkpoint`
//!   against an in-process server, once per seed. The final durable
//!   state must be the serial replay of the journal, replaying the
//!   journal twice must produce identical semantic trace fingerprints,
//!   and each client's last acknowledged write to a key decides that
//!   key's final state.
//! * **SIGKILL crash injection** — clients stream pipelined commits at
//!   a real `dduf serve` process (fsync widened by the journal's
//!   `DDUF_SYNC_DELAY_US` hook so the kill lands inside the pipelined
//!   window) and the process is killed at a seed-chosen moment, four
//!   rounds. Recovery must contain every acknowledged commit, must not
//!   contain anything never sent, and the crashed journal must still
//!   replay to the recovered state.

use dduf::core::rng::Rng;
use dduf::prelude::*;
use dduf::server::proto::read_response;
use dduf::server::{start, ServerConfig};
use std::collections::{HashMap, HashSet, VecDeque};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};

const SCHEMA: &str = "acct(seed, s0). mirror(X) :- acct(X, Y).";

fn tmpdir(name: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("dduf_fault_{}_{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// Replays the journal serially through a fresh in-memory processor
/// under trace capture; returns the rendered final database and the
/// deterministic trace fingerprint.
fn replay_journal(dir: &Path) -> (String, String) {
    let (_, scan) = dduf::persist::read_log(dir).unwrap();
    let (rendered, report) = dduf::obs::capture(|| {
        let mut replay = UpdateProcessor::new(parse_database(SCHEMA).unwrap()).unwrap();
        for r in &scan.records {
            let txn = replay.transaction(&r.payload).unwrap();
            replay.commit(&txn).unwrap();
        }
        dduf::datalog::pretty::database(replay.database())
    });
    (rendered, report.semantic_fingerprint())
}

/// Serial equivalence + trace determinism: the recovered state must be
/// the serial replay of the journal, and replaying twice must agree on
/// state and on the semantic trace fingerprint. Returns the rendered
/// recovered state.
fn audit(dir: &Path) -> String {
    let (once, fp_once) = replay_journal(dir);
    let (twice, fp_twice) = replay_journal(dir);
    assert_eq!(once, twice, "journal replay is not deterministic");
    assert_eq!(
        fp_once, fp_twice,
        "journal replay trace fingerprint is not deterministic"
    );
    let recovered = dduf::persist::DurableDb::open(dir).unwrap();
    let state = dduf::datalog::pretty::database(recovered.processor().database());
    assert_eq!(
        once, state,
        "recovered state is not a serial replay of the journal"
    );
    state
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

/// One randomized client: a deterministic stream of inserts, deletes,
/// queries, checks, and checkpoints over its own key space. Returns
/// each key's last acknowledged state (true = inserted, false =
/// deleted).
fn random_client(addr: SocketAddr, id: usize, seed: u64, ops: usize) -> HashMap<String, bool> {
    let mut rng = Rng::new(seed ^ (id as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
    let mut client = Client::connect(addr);
    // Keys this client believes are live (acknowledged inserts minus
    // acknowledged deletes). Keys are namespaced by client id, so no
    // other session ever touches them.
    let mut last: HashMap<String, bool> = HashMap::new();
    for _ in 0..ops {
        let roll = rng.usize(100);
        if roll < 55 {
            let fact = format!("acct(c{id}, k{})", rng.usize(24));
            let (ok, lines) = client.send(&format!(":apply +{fact}."));
            assert!(ok, "client {id} insert: {lines:?}");
            last.insert(fact, true);
        } else if roll < 70 {
            let live: Vec<&String> = last.iter().filter(|(_, v)| **v).map(|(k, _)| k).collect();
            if !live.is_empty() {
                let fact = (*rng.choose(&live)).clone();
                let (ok, lines) = client.send(&format!(":apply -{fact}."));
                assert!(ok, "client {id} delete: {lines:?}");
                last.insert(fact, false);
            }
        } else if roll < 85 {
            let (ok, lines) = client.send(&format!(":query mirror(c{id})"));
            assert!(ok, "client {id} query: {lines:?}");
            // Read-your-writes: if any key is live, the derived view
            // must contain this client's mirror row.
            if last.values().any(|v| *v) {
                assert!(
                    lines.iter().any(|l| l == &format!("mirror(c{id})")),
                    "client {id}: own writes invisible: {lines:?}"
                );
            }
        } else if roll < 95 {
            let (ok, lines) = client.send(":check +acct(probe, p).");
            assert!(ok, "client {id} check: {lines:?}");
        } else {
            let (ok, lines) = client.send(":checkpoint");
            assert!(ok, "client {id} checkpoint: {lines:?}");
        }
    }
    let (ok, _) = client.send(":quit");
    assert!(ok);
    last
}

/// Four randomized clients against an in-process server, once per
/// seed: the journal must replay deterministically to the recovered
/// state, and every key must match its owner's last acknowledged write.
#[test]
fn randomized_workload_is_serially_equivalent() {
    for seed in [0xfau64, 0x17u64] {
        let dir = tmpdir(&format!("rand_{seed:x}"));
        let db = dduf::persist::DurableDb::init(&dir, SCHEMA).unwrap();
        let handle = start(
            db,
            ServerConfig {
                addr: "127.0.0.1:0".to_string(),
                sessions: 4,
                max_batch: 4,
                ..ServerConfig::default()
            },
        )
        .unwrap();
        let addr = handle.addr();

        let workers: Vec<_> = (0..4)
            .map(|id| std::thread::spawn(move || random_client(addr, id, seed, 40)))
            .collect();
        let outcomes: Vec<HashMap<String, bool>> =
            workers.into_iter().map(|w| w.join().unwrap()).collect();
        handle.shutdown();

        let state = audit(&dir);
        for last in &outcomes {
            for (fact, alive) in last {
                let present = state.contains(&format!("{fact}."));
                assert_eq!(
                    present, *alive,
                    "{fact}: last acked write said alive={alive}, state disagrees (seed={seed:#x})"
                );
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// Spawns `dduf serve` on an ephemeral port with a widened fsync (so
/// kills land inside the pipelined window) and parses the bound
/// address.
fn spawn_server(dir: &Path) -> (Child, SocketAddr, BufReader<std::process::ChildStdout>) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_dduf"))
        .arg("serve")
        .arg(dir)
        .args([
            "--addr",
            "127.0.0.1:0",
            "--sessions",
            "4",
            "--max-batch",
            "4",
        ])
        .env("DDUF_SYNC_DELAY_US", "1500")
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

/// What one crash-facing client saw: every fact it put on the wire and
/// every fact the server acknowledged durable.
struct ClientLog {
    sent: Vec<String>,
    acked: Vec<String>,
}

/// Streams commits with two requests in flight (exercising the
/// session's pipelined submission path) until the connection dies.
/// Every response read before the crash is an `ok` the server must
/// honor after recovery.
fn crash_client(addr: SocketAddr, id: usize, seed: u64) -> ClientLog {
    let mut rng = Rng::new(seed ^ (id as u64).wrapping_mul(0x517c_c1b7_2722_0a95));
    let stream = match TcpStream::connect(addr) {
        Ok(s) => s,
        Err(_) => {
            return ClientLog {
                sent: Vec::new(),
                acked: Vec::new(),
            }
        }
    };
    let _ = stream.set_nodelay(true);
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;
    let mut log = ClientLog {
        sent: Vec::new(),
        acked: Vec::new(),
    };
    // FIFO of in-flight requests; `Some(fact)` for commits, `None` for
    // the occasional interleaved `:checkpoint`.
    let mut in_flight: VecDeque<Option<String>> = VecDeque::new();
    let settle = |reader: &mut BufReader<TcpStream>,
                  in_flight: &mut VecDeque<Option<String>>,
                  acked: &mut Vec<String>| {
        let sent = in_flight.pop_front().expect("response without request");
        match read_response(reader) {
            Ok((ok, lines)) => {
                if let Some(fact) = sent {
                    assert!(ok, "commit rejected without fault: {lines:?}");
                    acked.push(fact);
                }
                true
            }
            Err(_) => false, // the server died mid-response
        }
    };
    for i in 0..100_000 {
        let line = if rng.chance(0.05) {
            in_flight.push_back(None);
            ":checkpoint".to_string()
        } else {
            let fact = format!("acct(c{id}, i{i})");
            log.sent.push(fact.clone());
            in_flight.push_back(Some(fact));
            format!(":apply +{}.", log.sent.last().unwrap())
        };
        if writeln!(writer, "{line}").is_err() {
            in_flight.pop_back(); // never reached the wire
            break;
        }
        if in_flight.len() >= 2 && !settle(&mut reader, &mut in_flight, &mut log.acked) {
            return log;
        }
    }
    while !in_flight.is_empty() {
        if !settle(&mut reader, &mut in_flight, &mut log.acked) {
            break;
        }
    }
    log
}

/// SIGKILL at a seed-chosen moment of a streaming pipelined workload:
/// recovery keeps every acknowledged commit, invents nothing that was
/// never sent, and the (possibly torn) journal still replays to the
/// recovered state.
#[test]
fn sigkill_under_load_loses_no_acked_commit_and_invents_none() {
    let mut rng = Rng::new(0xdead_beef_cafe);
    for round in 0..4u64 {
        let dir = tmpdir(&format!("kill_{round}"));
        drop(dduf::persist::DurableDb::init(&dir, SCHEMA).unwrap());
        let (mut child, addr, _stdout) = spawn_server(&dir);

        let seed = 0x5eed ^ round;
        let workers: Vec<_> = (0..3)
            .map(|id| std::thread::spawn(move || crash_client(addr, id, seed)))
            .collect();
        // Let the pipeline fill, then kill at an arbitrary point of
        // the window (fsyncs take ≥1.5ms here, so this lands with
        // a staged batch behind an in-flight one).
        std::thread::sleep(std::time::Duration::from_millis(40 + rng.usize(120) as u64));
        child.kill().unwrap();
        child.wait().unwrap();
        let logs: Vec<ClientLog> = workers.into_iter().map(|w| w.join().unwrap()).collect();

        let state = audit(&dir);
        let sent: HashSet<&String> = logs.iter().flat_map(|l| l.sent.iter()).collect();
        let mut acked_total = 0usize;
        for log in &logs {
            acked_total += log.acked.len();
            for fact in &log.acked {
                assert!(
                    state.contains(&format!("{fact}.")),
                    "acked commit {fact} lost by SIGKILL (round={round})"
                );
            }
        }
        // Nothing in the recovered state beyond the schema seed and
        // facts some client actually sent: an unacked commit may
        // land (it was in flight), but nothing can be invented.
        for line in state.lines() {
            let fact = line.trim().trim_end_matches('.');
            if let Some(body) = fact.strip_prefix("acct(") {
                if body.starts_with("seed") {
                    continue;
                }
                assert!(
                    sent.contains(&fact.to_string()),
                    "recovered state invented {fact} (round={round})"
                );
            }
        }
        assert!(
            acked_total > 0,
            "kill landed before any commit was acknowledged; widen the window \
             (round={round})"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
