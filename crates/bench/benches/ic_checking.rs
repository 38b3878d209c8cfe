//! C-F4 — Incremental integrity checking vs. full re-evaluation.
//!
//! Expected shape: event-rule driven checking (upward `ins Ic`) is nearly
//! flat in |EDB| for a fixed transaction, while re-materializing the new
//! state to test `Ic` grows with |EDB|.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dduf_bench::constraint_db;
use dduf_core::problems::ic_checking;
use dduf_core::transaction::Transaction;
use dduf_core::upward::maintain::MaintenanceEngine;
use dduf_core::upward::semantic;
use dduf_datalog::eval::materialize;
use std::time::Duration;

fn bench_ic_checking(c: &mut Criterion) {
    let mut group = c.benchmark_group("ic_checking");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(800));

    for &n in &[100usize, 1_000, 10_000] {
        let db = constraint_db(n);
        let old = materialize(&db).expect("old");
        // A transaction that violates: p1 becomes unemployed w/o benefit
        // (p1 has u_benefit in the generator; use a fresh person instead).
        let txn = Transaction::parse(&db, "+la(newguy).").expect("txn");
        let engine = MaintenanceEngine::new(&db).expect("stratified");

        // The production path: `:check` of the shell and the server.
        group.bench_with_input(BenchmarkId::new("incremental_check", n), &n, |b, _| {
            b.iter(|| ic_checking::check_transaction(&db, &engine, &txn).expect("check"))
        });
        // The same path for a transaction no constraint can see violated:
        // a deletion of `la` can only delete `unemp`, hence `ic1`. Decided
        // off the dependency graph — flat in n.
        let harmless = Transaction::parse(&db, "-la(p1).").expect("txn");
        group.bench_with_input(BenchmarkId::new("outside_cone_check", n), &n, |b, _| {
            b.iter(|| ic_checking::check_transaction(&db, &engine, &harmless).expect("check"))
        });
        group.bench_with_input(BenchmarkId::new("semantic_check", n), &n, |b, _| {
            b.iter(|| {
                let up = semantic::interpret(&db, &old, &txn).expect("upward");
                ic_checking::check(&db, &old, &up)
            })
        });
        group.bench_with_input(BenchmarkId::new("full_reeval", n), &n, |b, _| {
            b.iter(|| {
                let new_db = txn.apply(&db);
                let new = materialize(&new_db).expect("new");
                let ic = db.program().global_ic().expect("ic");
                !new.relation(ic).is_empty()
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_ic_checking);
criterion_main!(benches);
