//! C-F1 — Incremental upward interpretation vs. full recomputation.
//!
//! Fixes a small transaction (4 toggles) and scales the extensional
//! database. Expected shape: the maintenance engine's read (the pass a
//! commit runs, staged state dropped) is roughly flat in |EDB| (it joins
//! only from the changed tuples), the semantic oracle and full
//! recomputation grow linearly; the gap widens with database size.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dduf_bench::{random_toggle_txn, wide_db};
use dduf_core::upward::maintain::MaintenanceEngine;
use dduf_core::upward::semantic;
use dduf_datalog::eval::materialize;
use std::time::Duration;

fn bench_upward_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("upward_scaling");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(800));

    for &n in &[100usize, 1_000, 10_000] {
        let db = wide_db(n);
        let old = materialize(&db).expect("old state");
        let txn = random_toggle_txn(&db, 4, 42);
        let engine = MaintenanceEngine::new(&db).expect("stratified");

        group.bench_with_input(BenchmarkId::new("read", n), &n, |b, _| {
            b.iter(|| engine.interpret_for(&db, &txn, None).expect("upward"))
        });
        group.bench_with_input(BenchmarkId::new("semantic_diff", n), &n, |b, _| {
            b.iter(|| semantic::interpret(&db, &old, &txn).expect("upward"))
        });
        group.bench_with_input(BenchmarkId::new("full_recompute", n), &n, |b, _| {
            b.iter(|| {
                let new_db = txn.apply(&db);
                materialize(&new_db).expect("recompute")
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_upward_scaling);
criterion_main!(benches);
