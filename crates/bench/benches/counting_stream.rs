//! C-F10 — Maintenance throughput over a transaction *stream*: the
//! stateful maintenance engine (support counts after [GMS93], cited in
//! §5.1.3; every stratum here is non-recursive, so all of it is
//! counting) vs. rematerialization.
//!
//! Counting pays its count store once and then answers deletions without
//! re-derivation checks; rematerialization recomputes everything.
//! Expected shape: counting ≪ rematerialize per step, with the gap
//! largest on deletion-heavy multi-support workloads.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dduf_core::transaction::Transaction;
use dduf_core::upward::maintain::MaintenanceEngine;
use dduf_datalog::eval::materialize;
use dduf_datalog::parser::parse_database;
use dduf_datalog::storage::database::Database;
use std::fmt::Write as _;
use std::time::Duration;

/// Multi-support view over n items: v(X) has up to 3 supports per tuple.
fn multi_support_db(n: usize) -> Database {
    let mut src = String::from(
        "v(X) :- a(X). v(X) :- b(X). v(X) :- c(X).
         w(X) :- v(X), not blocked(X).\n",
    );
    for i in 0..n {
        let _ = writeln!(src, "a(k{i}). b(k{i}).");
        if i % 2 == 0 {
            let _ = writeln!(src, "c(k{i}).");
        }
    }
    parse_database(&src).expect("parses")
}

/// A deletion-heavy stream of single-event transactions (kills one support
/// at a time; only every second/third deletion produces a view event).
fn stream(db: &Database, n: usize) -> Vec<Transaction> {
    (0..n.min(64))
        .map(|i| {
            let pred = ["a", "b", "c"][i % 3];
            Transaction::parse(db, &format!("-{pred}(k{}).", i % n)).expect("valid")
        })
        .collect()
}

fn bench_counting_stream(c: &mut Criterion) {
    let mut group = c.benchmark_group("counting_stream");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(900));

    for &n in &[100usize, 1_000] {
        let db0 = multi_support_db(n);
        let txns = stream(&db0, n);

        let engine0 = MaintenanceEngine::new(&db0).expect("stratified");
        group.bench_with_input(BenchmarkId::new("counting", n), &n, |b, _| {
            b.iter(|| {
                let mut db = db0.clone();
                let mut engine = engine0.clone();
                for txn in &txns {
                    let r = engine.apply(&db, txn).expect("counting");
                    std::hint::black_box(r);
                    db = txn.apply(&db);
                }
            })
        });
        group.bench_with_input(BenchmarkId::new("rematerialize", n), &n, |b, _| {
            b.iter(|| {
                let mut db = db0.clone();
                for txn in &txns {
                    db = txn.apply(&db);
                    let m = materialize(&db).expect("full");
                    std::hint::black_box(m);
                }
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_counting_stream);
criterion_main!(benches);
