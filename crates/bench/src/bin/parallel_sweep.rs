//! Threads-sweep characterization of the parallel evaluator (C-F12):
//! runs the same workloads at 1/2/4/8 workers, asserts the results are
//! bit-identical at every setting, and writes the timings to
//! `BENCH_parallel.json` (override the path with `BENCH_PARALLEL_OUT`).
//!
//! Three shapes, one per parallelism axis of the engine:
//!
//! * `wavefront_views` — hundreds of mutually independent view SCCs, so
//!   the component wavefront is wide and the per-component work is the
//!   unit of scheduling;
//! * `chain_tc` — one recursive SCC whose semi-naive deltas are large,
//!   exercising the within-round delta partitioning;
//! * `upward_toggle` — the `upward_scaling` workload (wide view, random
//!   base toggles) through the full upward interpretation path;
//! * `index_probe` — concurrent point selects against one warmed
//!   relation, the read-lock regression guard for the index cache.
//!
//! Run with: `cargo run --release -p dduf-bench --bin parallel_sweep`

use dduf_bench::{chain_tc_db, random_toggle_txn, time_us, wide_db};
use dduf_core::upward::{self, Engine};
use dduf_datalog::ast::Const;
use dduf_datalog::eval::{materialize_with_threads, Strategy};
use dduf_datalog::parser::parse_database;
use dduf_datalog::storage::database::Database;
use dduf_datalog::storage::relation::Relation;
use dduf_datalog::{pretty, Tuple};
use std::fmt::Write as _;

const THREADS: [usize; 4] = [1, 2, 4, 8];

/// `views` independent stratified views over disjoint base relations:
/// every view is its own SCC with no inter-view edges, so the
/// condensation wavefront is `views` wide.
fn many_views_db(views: usize, facts: usize) -> Database {
    let mut src = String::new();
    for v in 0..views {
        let _ = writeln!(src, "v{v}(X) :- b{v}(X), not r{v}(X).");
        for f in 0..facts {
            let _ = writeln!(src, "b{v}({f}).");
            if f % 3 == 0 {
                let _ = writeln!(src, "r{v}({f}).");
            }
        }
    }
    parse_database(&src).expect("generated views parse")
}

struct Row {
    threads: usize,
    mean_us: f64,
}

struct Workload {
    name: &'static str,
    param: String,
    rows: Vec<Row>,
}

impl Workload {
    /// Sweeps `f` over the thread counts, checking that both the
    /// fingerprint `f` returns and the semantic trace counters it records
    /// are identical at every setting. Only the assertion runs are
    /// captured; the timed loop stays untraced, so the timings measure
    /// the evaluator with the recorder disabled.
    fn sweep(
        name: &'static str,
        param: String,
        iters: usize,
        mut f: impl FnMut(usize) -> String,
    ) -> Workload {
        let (baseline, base_trace) = dduf_obs::capture(|| f(1));
        let rows = THREADS
            .iter()
            .map(|&t| {
                let (fp, trace) = dduf_obs::capture(|| f(t));
                assert_eq!(
                    baseline, fp,
                    "{name}: result at {t} threads differs from sequential"
                );
                assert_eq!(
                    base_trace.semantic_fingerprint(),
                    trace.semantic_fingerprint(),
                    "{name}: trace counters at {t} threads differ from sequential"
                );
                Row {
                    threads: t,
                    mean_us: time_us(iters, || f(t)),
                }
            })
            .collect();
        Workload { name, param, rows }
    }

    fn speedup_at(&self, threads: usize) -> f64 {
        let base = self.rows.iter().find(|r| r.threads == 1).expect("t=1 row");
        let row = self
            .rows
            .iter()
            .find(|r| r.threads == threads)
            .expect("row");
        base.mean_us / row.mean_us
    }
}

/// Concurrent point selects against one shared relation, the key space
/// partitioned across readers so total work is constant: with the index
/// cache behind a read lock the readers must not serialize. The
/// fingerprint is the total hit count, independent of the reader count.
fn index_probe(readers: usize, rel: &Relation) -> String {
    const KEYS: i64 = 64;
    const ROUNDS: i64 = 8;
    let hits: usize = std::thread::scope(|s| {
        let handles: Vec<_> = (0..readers)
            .map(|r| {
                s.spawn(move || {
                    let mut hits = 0usize;
                    for k in (0..KEYS * ROUNDS).filter(|k| *k as usize % readers == r) {
                        hits += rel.select(&[Some(Const::Int(k % KEYS)), None]).len();
                    }
                    hits
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("reader")).sum()
    });
    format!("{hits}")
}

fn main() {
    let host = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut workloads = Vec::new();

    // Wavefront over independent SCCs.
    let views = many_views_db(192, 48);
    workloads.push(Workload::sweep(
        "wavefront_views",
        "views=192,facts=48".into(),
        3,
        |t| pretty::derived(&materialize_with_threads(&views, Strategy::SemiNaive, t).unwrap()),
    ));

    // One recursive SCC, chunked deltas.
    let chain = chain_tc_db(160);
    workloads.push(Workload::sweep("chain_tc", "n=160".into(), 3, |t| {
        pretty::derived(&materialize_with_threads(&chain, Strategy::SemiNaive, t).unwrap())
    }));

    // The upward_scaling workload through the full interpretation path.
    let wide = wide_db(2_000);
    let old = materialize_with_threads(&wide, Strategy::SemiNaive, 1).unwrap();
    let txn = random_toggle_txn(&wide, 8, 42);
    workloads.push(Workload::sweep(
        "upward_toggle",
        "n=2000,k=8".into(),
        5,
        |t| {
            let res = upward::interpret_with_threads(&wide, &old, &txn, Engine::Incremental, t)
                .expect("upward");
            format!("{:?}", res.derived)
        },
    ));

    // Index-cache contention regression: warmed index, scaling readers.
    let rel = Relation::from_tuples(
        (0..20_000i64).map(|i| Tuple::new(vec![Const::Int(i % 64), Const::Int(i)])),
    );
    rel.build_index(&[0]);
    workloads.push(Workload::sweep(
        "index_probe",
        "tuples=20000,keys=64".into(),
        5,
        |t| index_probe(t, &rel),
    ));

    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"bench\": \"parallel_sweep\",");
    let _ = writeln!(json, "  \"host_parallelism\": {host},");
    let _ = writeln!(json, "  \"threads\": [1, 2, 4, 8],");
    let _ = writeln!(json, "  \"workloads\": [");
    for (i, w) in workloads.iter().enumerate() {
        let _ = writeln!(json, "    {{");
        let _ = writeln!(json, "      \"name\": \"{}\",", w.name);
        let _ = writeln!(json, "      \"param\": \"{}\",", w.param);
        let _ = writeln!(json, "      \"deterministic\": true,");
        let _ = writeln!(json, "      \"rows\": [");
        for (j, r) in w.rows.iter().enumerate() {
            let _ = writeln!(
                json,
                "        {{\"threads\": {}, \"mean_us\": {:.1}, \"speedup_vs_1\": {:.2}}}{}",
                r.threads,
                r.mean_us,
                w.speedup_at(r.threads),
                if j + 1 < w.rows.len() { "," } else { "" }
            );
        }
        let _ = writeln!(json, "      ]");
        let _ = writeln!(
            json,
            "    }}{}",
            if i + 1 < workloads.len() { "," } else { "" }
        );
    }
    let _ = writeln!(json, "  ]");
    json.push_str("}\n");

    let out = std::env::var("BENCH_PARALLEL_OUT").unwrap_or_else(|_| "BENCH_parallel.json".into());
    std::fs::write(&out, &json).expect("write BENCH_parallel.json");

    println!("workload,param,threads,mean_us,speedup_vs_1");
    for w in &workloads {
        for r in &w.rows {
            println!(
                "{},{},{},{:.1},{:.2}",
                w.name,
                w.param,
                r.threads,
                r.mean_us,
                w.speedup_at(r.threads)
            );
        }
    }
    eprintln!("wrote {out} (host parallelism: {host})");
}
