//! The `dduf` binary: the interactive shell over a database file, the
//! `lint` static analyzer, the `analyze` dataflow reporter, the `db`
//! durable-database verbs, and the `serve`/`--connect` server pair.
//!
//! ```sh
//! cargo run --bin dduf -- db.dl
//! cargo run --bin dduf -- lint --deny-warnings db.dl
//! cargo run --bin dduf -- analyze --format=json db.dl
//! cargo run --bin dduf -- db init schema.dl mydb/
//! echo ':update -unemp(dolors).
//! :do 1
//! :show' | cargo run --bin dduf -- db.dl
//! ```
//!
//! Exit codes: `0` — success; `1` — a load or data error; `2` — usage
//! error (unknown flag/verb, missing operand, unreadable file).

use dduf::cli::{run_repl, Session, USAGE};

fn main() {
    std::process::exit(real_main());
}

/// How `--trace` asked for the run report to be rendered on stderr.
#[derive(Clone, Copy, PartialEq, Eq)]
enum TraceFormat {
    Text,
    Json,
}

fn real_main() -> i32 {
    // Strip the global `--trace[=json]` flag (any position before the
    // verb's own operands), which selects the run report.
    let mut rest: Vec<String> = Vec::new();
    let mut trace: Option<TraceFormat> = None;
    for a in std::env::args().skip(1) {
        if a == "--trace" {
            trace = Some(TraceFormat::Text);
        } else if let Some(v) = a.strip_prefix("--trace=") {
            match v {
                "text" => trace = Some(TraceFormat::Text),
                "json" => trace = Some(TraceFormat::Json),
                other => {
                    eprint!("dduf: --trace expects `text` or `json`, got `{other}`\n{USAGE}");
                    return 2;
                }
            }
        } else {
            rest.push(a);
        }
    }
    // The collector is installed unconditionally so `:stats` works in any
    // shell session; the report only reaches stderr under `--trace`.
    let collector = std::rc::Rc::new(dduf::obs::Collector::new());
    let _guard = dduf::obs::install(collector.clone());
    let code = dispatch(rest);
    if let Some(format) = trace {
        let report = collector.report_now();
        match format {
            TraceFormat::Text => eprint!("{}", report.render_text()),
            TraceFormat::Json => eprint!("{}", report.render_json(false)),
        }
    }
    code
}

fn dispatch(rest: Vec<String>) -> i32 {
    let mut args = rest.into_iter();
    let Some(first) = args.next() else {
        eprint!("{USAGE}");
        return 2;
    };
    match first.as_str() {
        "--help" | "-h" | "help" => {
            print!("{USAGE}");
            0
        }
        "--version" | "-V" => {
            println!("dduf {}", env!("CARGO_PKG_VERSION"));
            0
        }
        "lint" => dduf::lint::run(args),
        "analyze" => dduf::analyze::run(args),
        "db" => dduf::db::run(args),
        "serve" => dduf::serve::run(args),
        "--connect" => {
            let Some(addr) = args.next() else {
                eprint!("dduf: --connect expects <host:port>\n{USAGE}");
                return 2;
            };
            if args.next().is_some() {
                eprint!("dduf: too many operands\n{USAGE}");
                return 2;
            }
            dduf::serve::connect(&addr)
        }
        s if s.starts_with('-') => {
            eprint!("dduf: unrecognized flag `{s}`\n{USAGE}");
            2
        }
        path => {
            if args.next().is_some() {
                eprint!("dduf: too many operands\n{USAGE}");
                return 2;
            }
            shell(path)
        }
    }
}

/// The original mode: an in-memory session over one database file.
fn shell(path: &str) -> i32 {
    let src = match std::fs::read_to_string(path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("dduf: cannot read {path}: {e}");
            return 2;
        }
    };
    let mut session = match Session::from_source(&src) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("dduf: {e}");
            return 1;
        }
    };
    run_repl(&mut session)
}
