//! End-to-end benchmark of `dduf serve` with a per-layer traced replay.
//! See `README.md` in this directory for the metrics, the workloads and
//! how the layers map onto the end-to-end numbers.
//!
//! ```sh
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- --seed 1
//! ```

mod calib;
mod e2e;
mod gen;
mod replay;
mod server;
mod spec;
mod stats;

use server::{Paths, Result};
use spec::{Metric, Workload, END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS};
use std::collections::BTreeMap;
use std::fmt::Write as _;

const USAGE: &str = "\
usage: dduf-e2ebench [--seed N] [--seconds S]
           all workloads: end-to-end metrics, then the per-layer table
       dduf-e2ebench --workload NAME --seed N --seconds S --trace 0|1
           one run; the last line of stdout is the result as one JSON object
           (--trace 0: end-to-end metrics, --trace 1: per-layer metrics)
       dduf-e2ebench --repeat N [--seed N] [--seconds S]
           N runs per workload, each with another seed; prints the quartile
           spread of every end-to-end metric against its bound
       dduf-e2ebench --check
           all workloads at a tenth of their size, under ten seconds";

/// In a traced run the end-to-end part only feeds the reconciliation
/// row, so it gets this share of the seconds.
const TRACED_E2E_SHARE: f64 = 1.0 / 3.0;
/// Measured window of each workload under `--check`.
const CHECK_SECONDS: f64 = 0.5;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    repeat: Option<usize>,
    check: bool,
}

fn parse_args() -> std::result::Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: RUN_SECONDS as f64,
        trace: false,
        repeat: None,
        check: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} expects {what}"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value("a workload name")?),
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|_| "--seed expects an unsigned 64-bit number")?
            }
            "--seconds" => {
                args.seconds = value("a number")?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or("--seconds expects a positive number")?
            }
            "--trace" => {
                args.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace expects 0 or 1".into()),
                }
            }
            "--repeat" => {
                args.repeat = Some(
                    value("a count")?
                        .parse()
                        .ok()
                        .filter(|n| *n >= 2)
                        .ok_or("--repeat expects a count of at least 2")?,
                )
            }
            "--check" => args.check = true,
            other => return Err(format!("unrecognized argument `{other}`")),
        }
    }
    Ok(args)
}

/// One run of one workload: the end-to-end part and, when traced, the
/// replay of the same inputs.
struct Outcome {
    e2e: e2e::E2e,
    replay: Option<replay::Replay>,
}

fn run_workload(
    paths: &Paths,
    w: &Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
) -> Result<Outcome> {
    let e2e = e2e::run(paths, w, seed, seconds)?;
    let replay = if trace {
        let measured = replay::Measured {
            us_per_commit: e2e.us_per_commit,
            commits_per_fsync: e2e.commits_per_fsync,
        };
        Some(replay::run(paths, w, seed, &e2e.world, &measured)?)
    } else {
        None
    };
    Ok(Outcome { e2e, replay })
}

/// Prints `table` in `metrics`' order and fails on a missing or
/// non-finite value.
fn print_metrics(w: &Workload, metrics: &[Metric], table: &BTreeMap<&str, f64>) -> Result<()> {
    for m in metrics {
        let v = *table
            .get(m.name)
            .ok_or_else(|| format!("{}: metric {} was not measured", w.name, m.name))?;
        if !v.is_finite() {
            return Err(format!("{}: metric {} is {v}", w.name, m.name));
        }
        println!("{:<12} {:<34} {v:>16.4} {}", w.name, m.name, m.unit);
    }
    Ok(())
}

fn print_outcome(w: &Workload, seed: u64, out: &Outcome) -> Result<()> {
    println!("== {} (seed {seed}) ==", w.name);
    print_metrics(w, END_TO_END, &out.e2e.metrics)?;
    for note in &out.e2e.notes {
        println!("{:<12} {note}", w.name);
    }
    if let Some(replay) = &out.replay {
        println!("-- {} per layer (traced replay) --", w.name);
        print_metrics(w, PER_LAYER, &replay.metrics)?;
        for note in &replay.notes {
            println!("{:<12} {note}", w.name);
        }
    }
    Ok(())
}

/// The driver's result line.
fn result_json(out: &Outcome, trace: bool) -> String {
    let (metrics, table) = match &out.replay {
        Some(replay) if trace => (PER_LAYER, &replay.metrics),
        _ => (END_TO_END, &out.e2e.metrics),
    };
    let mut s = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        out.e2e.failed == 0,
        out.e2e.attempted,
        out.e2e.failed
    );
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            s,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, table[m.name], m.unit
        );
    }
    s.push_str("}}");
    s
}

/// `--repeat`: the acceptance check of the benchmark itself.
fn repeat(paths: &Paths, args: &Args, n: usize) -> Result<bool> {
    let mut within = true;
    for w in WORKLOADS {
        let mut series: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
        for i in 0..n as u64 {
            let out = run_workload(paths, w, args.seed + i, args.seconds, false)?;
            if out.e2e.failed > 0 {
                return Err(format!("{} seed {}: audit failed", w.name, args.seed + i));
            }
            for (name, v) in &out.e2e.metrics {
                series.entry(name).or_default().push(*v);
            }
            eprintln!("{} seed {} done", w.name, args.seed + i);
        }
        for m in END_TO_END {
            let values = &series[m.name];
            let spread = stats::quartile_spread(values);
            let ok = spread <= m.bound;
            within &= ok;
            println!(
                "{:<12} {:<26} median {:>12.4} {:<4} spread {:>6.2} % of bound {:>5.1} % {}",
                w.name,
                m.name,
                stats::median(&mut values.clone()),
                m.unit,
                spread * 100.0,
                m.bound * 100.0,
                match (ok, spread <= m.bound / 3.0) {
                    (false, _) => "EXCEEDED",
                    (true, true) => "ok",
                    (true, false) => "ok (above a third of the bound)",
                }
            );
            println!("{:<12} {:<26} values {values:.4?}", w.name, m.name);
        }
    }
    Ok(within)
}

/// `--check`: every workload at a tenth of its size, and every workload
/// and metric `BENCHMARK.json` names among the ones printed, finite and
/// with their units.
fn check(paths: &Paths) -> Result<bool> {
    let file = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let json = std::fs::read_to_string(&file).map_err(|e| format!("{}: {e}", file.display()))?;
    spec::check_benchmark_json(&json)?;
    let mut ok = true;
    for w in WORKLOADS {
        let out = run_workload(paths, &w.tiny(), 1, CHECK_SECONDS, true)?;
        print_outcome(w, 1, &out)?;
        ok &= out.e2e.failed == 0;
    }
    Ok(ok)
}

fn real_main() -> std::result::Result<bool, String> {
    let args = parse_args().map_err(|e| format!("{e}\n{USAGE}"))?;
    let paths = Paths::prepare()?;
    // After the build, which may use every CPU.
    match calib::pin_to_one_cpu() {
        Some(cpu) => eprintln!("dduf-e2ebench: load generator and server run on CPU {cpu}"),
        None => eprintln!("dduf-e2ebench: could not pin to one CPU; timings will be noisier"),
    }
    if args.check {
        return check(&paths);
    }
    if let Some(n) = args.repeat {
        return repeat(&paths, &args, n);
    }
    if let Some(name) = &args.workload {
        let w = spec::workload(name).ok_or_else(|| format!("unknown workload `{name}`"))?;
        let seconds = if args.trace {
            args.seconds * TRACED_E2E_SHARE
        } else {
            args.seconds
        };
        let out = run_workload(&paths, w, args.seed, seconds, args.trace)?;
        print_outcome(w, args.seed, &out)?;
        // A failed audit is reported in the result line, not by the exit
        // code: the run itself completed.
        println!("{}", result_json(&out, args.trace));
        return Ok(true);
    }
    let mut ok = true;
    for w in WORKLOADS {
        let out = run_workload(&paths, w, args.seed, args.seconds, true)?;
        print_outcome(w, args.seed, &out)?;
        ok &= out.e2e.failed == 0;
    }
    Ok(ok)
}

fn main() {
    let code = match real_main() {
        Ok(true) => 0,
        Ok(false) => 1,
        Err(e) => {
            eprintln!("dduf-e2ebench: {e}");
            2
        }
    };
    std::process::exit(code);
}
