//! C-F6 — Materialized view maintenance: view deltas vs. rematerialize.
//!
//! Expected shape: computing the `ins`/`del` view events is proportional
//! to the delta (flat in view size); rematerializing the views from
//! scratch grows linearly.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dduf_bench::{random_toggle_txn, wide_db};
use dduf_core::problems::view_maintenance;
use dduf_core::upward::maintain::MaintenanceEngine;
use dduf_datalog::eval::materialize;
use std::time::Duration;

fn bench_matview(c: &mut Criterion) {
    let mut group = c.benchmark_group("matview");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(800));

    for &n in &[100usize, 1_000, 10_000] {
        let db = wide_db(n);
        let txn = random_toggle_txn(&db, 4, 7);
        let engine = MaintenanceEngine::new(&db).expect("stratified");

        group.bench_with_input(BenchmarkId::new("apply_delta", n), &n, |b, _| {
            b.iter(|| {
                let up = engine.interpret_for(&db, &txn, None).expect("upward");
                view_maintenance::maintain(&db, &up)
            })
        });
        group.bench_with_input(BenchmarkId::new("rematerialize", n), &n, |b, _| {
            b.iter(|| materialize(&txn.apply(&db)).expect("new"))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_matview);
criterion_main!(benches);
