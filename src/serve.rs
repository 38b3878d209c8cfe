//! The `dduf serve` verb and its `--connect` client.
//!
//! ```sh
//! dduf serve mydb/ --addr 127.0.0.1:7117 --sessions 8
//! dduf --connect 127.0.0.1:7117
//! ```
//!
//! `serve` opens a durable database (taking its directory lock, so a
//! second server or `dduf db open` on the same directory is refused),
//! prints `listening on <addr>`, and runs until a client sends
//! `:shutdown` or the process is killed. Commands are the shell's
//! syntax; see [`dduf_server`] for the concurrency model (one
//! group-committing writer, snapshot-isolated readers).
//!
//! `--connect` is a thin interactive client: lines go to the server
//! verbatim, `ok` bodies print to stdout, `err` bodies to stderr.
//! Exit codes follow the other verbs: `0` — clean exit; `1` — the
//! database cannot be opened or the connection died; `2` — usage error.

use dduf_server::{ServerConfig, ServerHandle};
use std::io::{BufRead, BufReader, IsTerminal, Write as _};
use std::net::TcpStream;

const SERVE_USAGE: &str = "\
usage: dduf serve <dir> [--addr HOST:PORT] [--sessions N] [--max-batch N]
                        [--queue-cap N] [--backpressure block|reject]
       --addr          address to listen on (default 127.0.0.1:7117; port 0 = ephemeral)
       --sessions      concurrent client sessions served (default 8, at most 1024)
       --max-batch     most transactions one group commit may cover (default 64)
       --queue-cap     commit-queue high-water mark in jobs (default 256, at most 65536)
       --backpressure  policy when the queue is full: block the session or
                       answer a retryable `busy` error (default block)";

fn usage_err(msg: &str) -> i32 {
    eprintln!("dduf serve: {msg}\n{SERVE_USAGE}");
    2
}

/// `dduf serve <dir> [--addr A] [--sessions N]`: parse flags, start the
/// server, and block until it shuts down.
pub fn run(args: impl IntoIterator<Item = String>) -> i32 {
    let mut dir: Option<String> = None;
    let mut config = ServerConfig::default();
    let mut args = args.into_iter();
    // `--flag value` and `--flag=value` both work, like the db verbs.
    let numeric = |flag: &str, inline: Option<&str>, args: &mut dyn Iterator<Item = String>| {
        inline
            .map(str::to_string)
            .or_else(|| args.next())
            .and_then(|v| v.trim().parse::<usize>().ok())
            .ok_or_else(|| format!("{flag} expects a number"))
    };
    while let Some(a) = args.next() {
        if a == "--addr" {
            let Some(v) = args.next() else {
                return usage_err("--addr expects HOST:PORT");
            };
            config.addr = v;
        } else if let Some(v) = a.strip_prefix("--addr=") {
            config.addr = v.to_string();
        } else if a == "--sessions" || a.starts_with("--sessions=") {
            match numeric("--sessions", a.strip_prefix("--sessions="), &mut args) {
                Ok(n) => config.sessions = n,
                Err(e) => return usage_err(&e),
            }
        } else if a == "--max-batch" || a.starts_with("--max-batch=") {
            match numeric("--max-batch", a.strip_prefix("--max-batch="), &mut args) {
                Ok(n) => config.max_batch = n,
                Err(e) => return usage_err(&e),
            }
        } else if a == "--queue-cap" || a.starts_with("--queue-cap=") {
            match numeric("--queue-cap", a.strip_prefix("--queue-cap="), &mut args) {
                Ok(n) => config.queue_cap = n,
                Err(e) => return usage_err(&e),
            }
        } else if a == "--backpressure" || a.starts_with("--backpressure=") {
            let v = a
                .strip_prefix("--backpressure=")
                .map(str::to_string)
                .or_else(|| args.next());
            config.backpressure = match v.as_deref().map(str::trim) {
                Some("block") => dduf_server::Backpressure::Block,
                Some("reject") => dduf_server::Backpressure::Reject,
                _ => return usage_err("--backpressure expects `block` or `reject`"),
            };
        } else if a.starts_with('-') {
            return usage_err(&format!("unrecognized flag `{a}`"));
        } else if dir.is_some() {
            return usage_err("too many operands");
        } else {
            dir = Some(a);
        }
    }
    let Some(dir) = dir else {
        return usage_err("missing <dir> operand");
    };
    if config.sessions == 0 {
        return usage_err("--sessions must be at least 1");
    }
    if config.sessions > dduf_server::MAX_SESSIONS {
        let max = dduf_server::MAX_SESSIONS;
        return usage_err(&format!("--sessions must be at most {max}"));
    }
    if config.queue_cap > dduf_server::MAX_QUEUE_CAP {
        let max = dduf_server::MAX_QUEUE_CAP;
        return usage_err(&format!("--queue-cap must be at most {max}"));
    }

    let db = match dduf_persist::DurableDb::open(&dir) {
        Ok(db) => db,
        Err(e) => {
            eprint!("{}", e.render());
            return 1;
        }
    };
    let rec = db.recovery();
    println!(
        "opened {dir}: snapshot + {} replayed journal record(s) as {} net base event(s)",
        rec.replayed, rec.net_events
    );
    let handle: ServerHandle = match dduf_server::start(db, config) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("dduf serve: cannot bind: {e}");
            return 1;
        }
    };
    // Scripts (and the e2e tests) parse this line for the bound port.
    println!("listening on {}", handle.addr());
    let _ = std::io::stdout().flush();
    handle.wait();
    println!("server stopped");
    0
}

/// `dduf --connect <addr>`: a line-oriented client REPL. Reads commands
/// from stdin, prints response bodies; `ok`/`err` framing maps onto
/// stdout/stderr like the local shell.
pub fn connect(addr: &str) -> i32 {
    let stream = match TcpStream::connect(addr) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("dduf: cannot connect to {addr}: {e}");
            return 1;
        }
    };
    let _ = stream.set_nodelay(true);
    let mut reader = match stream.try_clone() {
        Ok(s) => BufReader::new(s),
        Err(e) => {
            eprintln!("dduf: {e}");
            return 1;
        }
    };
    let mut writer = stream;
    let interactive = std::io::stdin().is_terminal();
    if interactive {
        println!("connected to {addr} (:help for commands, :quit to leave)");
    }
    let stdin = std::io::stdin();
    loop {
        if interactive {
            print!("dduf> ");
            let _ = std::io::stdout().flush();
        }
        let mut line = String::new();
        match stdin.lock().read_line(&mut line) {
            Ok(0) => return 0,
            Ok(_) => {}
            Err(e) => {
                eprintln!("dduf: {e}");
                return 1;
            }
        }
        let cmd = line.trim();
        if writeln!(writer, "{cmd}").is_err() {
            eprintln!("dduf: connection lost");
            return 1;
        }
        let (ok, lines) = match dduf_server::proto::read_response(&mut reader) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("dduf: connection lost: {e}");
                return 1;
            }
        };
        for l in &lines {
            if ok {
                println!("{l}");
            } else {
                eprintln!("error: {l}");
            }
        }
        // The server closes the connection after these; mirror it.
        if ok && matches!(cmd, ":quit" | ":q" | ":exit" | ":shutdown") {
            return 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn usage_errors_exit_two() {
        assert_eq!(run(Vec::<String>::new()), 2);
        assert_eq!(run(["--bogus".to_string()]), 2);
        // Removed with the serial writer: refused like any unknown flag.
        assert_eq!(run(["d".to_string(), "--serial".into()]), 2);
        assert_eq!(run(["a".to_string(), "b".into()]), 2);
        assert_eq!(run(["--addr".to_string()]), 2);
        assert_eq!(run(["--sessions".to_string(), "x".into(), "d".into()]), 2);
        assert_eq!(run(["--sessions=0".to_string(), "d".into()]), 2);
        assert_eq!(run(["--max-batch".to_string(), "x".into(), "d".into()]), 2);
        assert_eq!(run(["--queue-cap=".to_string(), "d".into()]), 2);
        // Above the bounds: refused before the database is opened.
        assert_eq!(run(["--sessions=1025".to_string(), "d".into()]), 2);
        let huge = ["--queue-cap".to_string(), "10000000000".into(), "d".into()];
        assert_eq!(run(huge), 2);
        assert_eq!(run(["--queue-cap=65537".to_string(), "d".into()]), 2);
        let bad = ["--backpressure".to_string(), "sideways".into(), "d".into()];
        assert_eq!(run(bad), 2);
    }

    #[test]
    fn missing_database_exits_one() {
        let dir = std::env::temp_dir().join(format!("dduf-serve-miss-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(run([dir.display().to_string()]), 1);
    }

    #[test]
    fn connect_refused_exits_one() {
        // Port 1 on loopback is essentially never listening.
        assert_eq!(connect("127.0.0.1:1"), 1);
    }
}
