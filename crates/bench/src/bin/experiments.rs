//! Runs every C-F* characterization of EXPERIMENTS.md that times a
//! production path, in one pass, and prints the measured shapes as CSV
//! (rough wall-clock means): C-F1 (`MaintenanceEngine::interpret_for`),
//! C-F2 (the transition rules the `:update` translator builds), C-F3
//! (`downward::interpret_with`), C-F4 (`ic_checking::check_transaction`),
//! C-F5 (`view_update_with_integrity` / `view_update_checked`), C-F8
//! (exhaustive negation) and C-F10 (`MaintenanceEngine::apply` over a
//! transaction stream). The other C-F rows are dated records. Each
//! recompute baseline (C-F1 `full_recompute_us`, C-F4 `full_reeval_us`,
//! C-F10 `rematerialize_us`) times `MaintenanceEngine::new` on the new
//! state, production's build of derived state; C-F1 `semantic_us` times
//! the oracle.
//!
//! Run with: `cargo run --release -p dduf-bench --bin experiments`

use dduf_bench::{constraint_db, random_toggle_txn, time_us, tower_db, wide_db, TowerShape};
use dduf_core::downward::{self, DownwardOptions, Request};
use dduf_core::problems::ic_checking;
use dduf_core::processor::UpdateProcessor;
use dduf_core::transaction::Transaction;
use dduf_core::upward::maintain::MaintenanceEngine;
use dduf_core::upward::semantic;
use dduf_datalog::ast::{Atom, Const, Literal, Pred, Rule, Term};
use dduf_datalog::eval::materialize;
use dduf_datalog::parser::parse_database;
use dduf_datalog::schema::Program;
use dduf_datalog::storage::database::Database;
use dduf_events::event::EventKind;
use dduf_events::simplify::simplify_transition;
use dduf_events::transition::TransitionRule;
use std::fmt::Write as _;

fn main() {
    println!("experiment,param,metric,value");

    // ---- C-F1: upward scaling ----
    for n in [100usize, 1_000, 10_000] {
        let db = wide_db(n);
        let old = materialize(&db).unwrap();
        let txn = random_toggle_txn(&db, 4, 42);
        let engine = MaintenanceEngine::new(&db).unwrap();
        let iters = if n >= 10_000 { 3 } else { 10 };
        let read = time_us(iters, || engine.interpret_for(&db, &txn, None).unwrap());
        let sem = time_us(iters, || semantic::interpret(&db, &old, &txn).unwrap());
        let full = time_us(iters, || MaintenanceEngine::new(&txn.apply(&db)).unwrap());
        println!("C-F1,n={n},read_us,{read:.1}");
        println!("C-F1,n={n},semantic_us,{sem:.1}");
        println!("C-F1,n={n},full_recompute_us,{full:.1}");
    }

    // ---- C-F2: transition blow-up ----
    for k in [2usize, 4, 6, 8, 10, 12] {
        let mut body: Vec<Literal> = vec![Literal::pos(Atom::new("guard", vec![Term::var("X")]))];
        for i in 0..k {
            let atom = Atom::new(&format!("b{i}"), vec![Term::var("X")]);
            body.push(if i % 2 == 0 {
                Literal::pos(atom)
            } else {
                Literal::neg(atom)
            });
        }
        let mut b = Program::builder();
        b.rule(Rule::new(Atom::new("p", vec![Term::var("X")]), body));
        let prog = b.build().unwrap();
        let build = time_us(10, || TransitionRule::build(&prog, Pred::new("p", 1)));
        let tr = TransitionRule::build(&prog, Pred::new("p", 1));
        let simp = time_us(5, || simplify_transition(&tr));
        let simplified = simplify_transition(&tr);
        println!("C-F2,k={},build_us,{build:.1}", k + 1);
        println!("C-F2,k={},simplify_us,{simp:.1}", k + 1);
        println!("C-F2,k={},raw_disjuncts,{}", k + 1, tr.disjunct_count());
        println!(
            "C-F2,k={},simplified_disjuncts,{}",
            k + 1,
            simplified.disjunct_count()
        );
    }

    // ---- C-F3: downward search ----
    for depth in [1usize, 2, 3, 4, 5, 6] {
        let db = tower_db(TowerShape {
            depth,
            facts_per_level: 8,
            with_negation: true,
        });
        let old = materialize(&db).unwrap();
        let req = Request::new().achieve(
            EventKind::Del,
            Atom::ground(&format!("v{depth}"), vec![Const::sym("c0")]),
        );
        let opts = DownwardOptions::default();
        let t = time_us(10, || {
            downward::interpret_with(&db, &old, &req, &opts).unwrap()
        });
        let res = downward::interpret_with(&db, &old, &req, &opts).unwrap();
        println!("C-F3,depth={depth},downward_us,{t:.1}");
        println!("C-F3,depth={depth},alternatives,{}", res.alternatives.len());
    }
    for dom in [2usize, 8, 32] {
        let db = tower_db(TowerShape {
            depth: 2,
            facts_per_level: dom,
            with_negation: false,
        });
        let old = materialize(&db).unwrap();
        let req = Request::new().achieve(EventKind::Del, Atom::new("v2", vec![Term::var("X")]));
        let opts = DownwardOptions::default();
        let t = time_us(5, || {
            downward::interpret_with(&db, &old, &req, &opts).unwrap()
        });
        println!("C-F3,dom={dom},open_downward_us,{t:.1}");
    }

    // ---- C-F4: integrity checking ----
    for n in [100usize, 1_000, 10_000] {
        let db = constraint_db(n);
        let engine = MaintenanceEngine::new(&db).unwrap();
        let txn = Transaction::parse(&db, "+la(newguy).").unwrap();
        let iters = if n >= 10_000 { 3 } else { 10 };
        let check = time_us(iters, || {
            ic_checking::check_transaction(&db, &engine, &txn).unwrap()
        });
        // A deletion of `la` can only delete `unemp`, so no constraint can
        // see it violated: decided off the dependency graph, flat in n.
        let harmless = Transaction::parse(&db, "-la(p1).").unwrap();
        let outside = time_us(iters, || {
            ic_checking::check_transaction(&db, &engine, &harmless).unwrap()
        });
        let full = time_us(iters, || {
            let new = MaintenanceEngine::new(&txn.apply(&db)).unwrap();
            let ic = db.program().global_ic().unwrap();
            !new.extension(ic).is_empty()
        });
        println!("C-F4,n={n},read_check_us,{check:.1}");
        println!("C-F4,n={n},outside_cone_check_us,{outside:.1}");
        println!("C-F4,n={n},full_reeval_us,{full:.1}");
    }

    // ---- C-F5: combined pipelines ----
    for n in [10usize, 100, 1_000] {
        let mut src = String::from(
            "unemp(X) :- la(X), not works(X).
             unemp(X) :- registered(X), not works(X).
             :- unemp(X), not u_benefit(X).\n",
        );
        for i in 0..n {
            let _ = writeln!(src, "la(p{i}). u_benefit(p{i}).");
            if i % 2 == 0 {
                let _ = writeln!(src, "works(p{i}).");
            }
        }
        let proc = UpdateProcessor::new(parse_database(&src).unwrap()).unwrap();
        let req = Request::new().achieve(
            EventKind::Ins,
            Atom::ground("unemp", vec![Const::sym("fresh")]),
        );
        let iters = if n >= 1_000 { 3 } else { 10 };
        let a = time_us(iters, || proc.view_update_with_integrity(&req).unwrap());
        let b = time_us(iters, || proc.view_update_checked(&req).unwrap());
        println!("C-F5,n={n},maintain_in_search_us,{a:.1}");
        println!("C-F5,n={n},generate_and_test_us,{b:.1}");
    }

    // ---- C-F8: negation strategy ablation ----
    for n in [2usize, 4, 6] {
        let mut src = String::from(
            "unemp(X) :- la(X), not works(X).
             :- unemp(X), not u_benefit(X).\n",
        );
        for i in 0..n {
            let _ = writeln!(src, "la(p{i}). u_benefit(p{i}).");
        }
        let base = UpdateProcessor::new(parse_database(&src).unwrap()).unwrap();
        let req = Request::new().achieve(
            EventKind::Ins,
            Atom::ground("unemp", vec![Const::sym("fresh")]),
        );
        let greedy = base.clone();
        let exhaustive = base.clone().with_options(DownwardOptions {
            exhaustive_negation: true,
            max_alternatives: 1_000_000,
            ..DownwardOptions::default()
        });
        let tg = time_us(5, || greedy.view_update_with_integrity(&req).unwrap());
        let tx = time_us(3, || exhaustive.view_update_with_integrity(&req).unwrap());
        let g = greedy.view_update_with_integrity(&req).unwrap();
        let x = exhaustive.view_update_with_integrity(&req).unwrap();
        println!("C-F8,n={n},greedy_us,{tg:.1}");
        println!("C-F8,n={n},exhaustive_us,{tx:.1}");
        println!("C-F8,n={n},greedy_alternatives,{}", g.alternatives.len());
        println!(
            "C-F8,n={n},exhaustive_alternatives,{}",
            x.alternatives.len()
        );
    }

    // ---- C-F10: maintenance over a transaction stream ----
    for n in [100usize, 1_000] {
        let db0 = multi_support_db(n);
        let txns = deletion_stream(&db0, n);
        let engine0 = MaintenanceEngine::new(&db0).unwrap();
        let counting = time_us(3, || {
            let mut db = db0.clone();
            let mut engine = engine0.clone();
            for txn in &txns {
                std::hint::black_box(engine.apply(&db, txn).unwrap());
                db = txn.apply(&db);
            }
        });
        let remat = time_us(3, || {
            let mut db = db0.clone();
            for txn in &txns {
                db = txn.apply(&db);
                std::hint::black_box(MaintenanceEngine::new(&db).unwrap());
            }
        });
        println!("C-F10,n={n},counting_us,{counting:.1}");
        println!("C-F10,n={n},rematerialize_us,{remat:.1}");
    }
}

/// A multi-support view over `n` items: `v(X)` has two or three supports
/// per tuple, so most deletions kill a support without killing the tuple.
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
    parse_database(&src).unwrap()
}

/// A deletion-heavy stream of (at most 64) single-event transactions, each
/// killing one support; only some of them delete a view tuple.
fn deletion_stream(db: &Database, n: usize) -> Vec<Transaction> {
    (0..n.min(64))
        .map(|i| {
            let pred = ["a", "b", "c"][i % 3];
            Transaction::parse(db, &format!("-{pred}(k{}).", i % n)).unwrap()
        })
        .collect()
}
