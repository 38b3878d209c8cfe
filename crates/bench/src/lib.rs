//! Workload construction and measurement helpers for the `dduf`
//! experiment binaries.
//!
//! The paper has no quantitative evaluation (it is a specification
//! framework); the measurable artifacts are Table 4.1 and the worked
//! examples, reproduced by the `table41` binary and
//! `tests/paper_examples.rs`. The `experiments` binary is the one harness
//! for the performance characterizations that §6's "efficient
//! implementation" future work calls for: each of its sections times a
//! production path and is indexed as a C-F* row in EXPERIMENTS.md. This
//! library hosts the shared workload builders and the wall-clock helper
//! it prints its CSV with.

#![forbid(unsafe_code)]
use dduf_core::rng::Rng;
use dduf_core::transaction::Transaction;
use dduf_datalog::storage::database::Database;
use std::time::Instant;

pub use dduf_core::testkit::{constraint_db, tower_db, wide_db, TowerShape};

/// A transaction of `k` random toggles over the base facts of `db`
/// (deterministic for a given seed): present facts are deleted, absent
/// constants inserted.
pub fn random_toggle_txn(db: &Database, k: usize, seed: u64) -> Transaction {
    let mut rng = Rng::new(seed);
    let mut base: Vec<(dduf_datalog::ast::Pred, Vec<dduf_datalog::Tuple>)> = Vec::new();
    for (pred, role) in db.program().predicates() {
        if matches!(role, dduf_datalog::schema::Role::Base) {
            let tuples: Vec<_> = db.relation(pred).iter().cloned().collect();
            if !tuples.is_empty() {
                base.push((pred, tuples));
            }
        }
    }
    assert!(!base.is_empty(), "workload database has no base facts");
    let mut events = Vec::new();
    let mut attempts = 0;
    while events.len() < k && attempts < k * 10 {
        attempts += 1;
        let (pred, tuples) = rng.choose(&base);
        if rng.bool() {
            // delete an existing fact
            let t = rng.choose(tuples).clone();
            events.push(dduf_events::event::GroundEvent::del(*pred, t));
        } else {
            // insert a fresh fact (new integer constant)
            let c: i64 = rng.range_i64(1_000_000, 2_000_000);
            let t: dduf_datalog::Tuple = (0..pred.arity)
                .map(|_| dduf_datalog::ast::Const::Int(c))
                .collect();
            events.push(dduf_events::event::GroundEvent::ins(*pred, t));
        }
    }
    // Deduplicate conflicting toggles by keeping first occurrence.
    let mut seen = std::collections::BTreeSet::new();
    events.retain(|e| seen.insert((e.pred, e.tuple.clone())));
    Transaction::from_events(db, events).expect("valid toggles")
}

/// Wall-clock measurement of `f` over `iters` runs, returning the mean in
/// microseconds. Deliberately simple: the `experiments` binary wants rough
/// shape numbers in CSV form, not statistically rigorous ones.
pub fn time_us<T>(iters: usize, mut f: impl FnMut() -> T) -> f64 {
    // Warm-up run.
    std::hint::black_box(f());
    let start = Instant::now();
    for _ in 0..iters {
        std::hint::black_box(f());
    }
    start.elapsed().as_secs_f64() * 1e6 / iters as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn toggle_txn_is_deterministic_and_valid() {
        let db = wide_db(50);
        let a = random_toggle_txn(&db, 4, 7);
        let b = random_toggle_txn(&db, 4, 7);
        assert_eq!(a, b);
        assert!(!a.is_empty() && a.len() <= 4);
    }

    #[test]
    fn time_us_returns_positive() {
        let t = time_us(3, || (0..1000).sum::<u64>());
        assert!(t >= 0.0);
    }
}
