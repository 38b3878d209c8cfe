//! Runs every C-F* characterization of EXPERIMENTS.md in one pass and
//! prints the measured shapes as CSV (rough wall-clock means; use the
//! criterion benches for rigorous numbers).
//!
//! Run with: `cargo run --release -p dduf-bench --bin experiments`

use dduf_bench::{
    chain_tc_db, constraint_db, random_toggle_txn, time_us, tower_db, wide_db, TowerShape,
};
use dduf_core::downward::{self, DownwardOptions, Request};
use dduf_core::problems::{ic_checking, view_maintenance};
use dduf_core::processor::UpdateProcessor;
use dduf_core::transaction::Transaction;
use dduf_core::upward::maintain::MaintenanceEngine;
use dduf_core::upward::semantic;
use dduf_datalog::ast::{Atom, Const, Literal, Pred, Rule, Term};
use dduf_datalog::eval::{materialize, materialize_with, Strategy};
use dduf_datalog::parser::parse_database;
use dduf_datalog::schema::Program;
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
        let full = time_us(iters, || materialize(&txn.apply(&db)).unwrap());
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
        let full = time_us(iters, || {
            let new = materialize(&txn.apply(&db)).unwrap();
            let ic = db.program().global_ic().unwrap();
            !new.relation(ic).is_empty()
        });
        println!("C-F4,n={n},read_check_us,{check:.1}");
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

    // ---- C-F6: materialized views ----
    for n in [100usize, 1_000, 10_000] {
        let db = wide_db(n);
        let engine = MaintenanceEngine::new(&db).unwrap();
        let txn = random_toggle_txn(&db, 4, 7);
        let iters = if n >= 10_000 { 3 } else { 10 };
        let apply = time_us(iters, || {
            let up = engine.interpret_for(&db, &txn, None).unwrap();
            view_maintenance::maintain(&db, &up)
        });
        let remat = time_us(iters, || materialize(&txn.apply(&db)).unwrap());
        println!("C-F6,n={n},apply_delta_us,{apply:.1}");
        println!("C-F6,n={n},rematerialize_us,{remat:.1}");
    }

    // ---- C-F7: naive vs semi-naive ----
    for n in [16usize, 32, 64] {
        let db = chain_tc_db(n);
        let naive = time_us(3, || materialize_with(&db, Strategy::Naive).unwrap());
        let semi = time_us(3, || materialize_with(&db, Strategy::SemiNaive).unwrap());
        println!("C-F7,n={n},naive_us,{naive:.1}");
        println!("C-F7,n={n},seminaive_us,{semi:.1}");
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

    // ---- C-F9: relevance-restricted materialization ----
    for views in [1usize, 10, 100] {
        let mut src = String::from(
            "unemp(X) :- la(X), not works(X).
             :- unemp(X), not u_benefit(X).\n",
        );
        for v in 0..views {
            let _ = writeln!(src, "view{v}(X) :- base{}(X).", v % 8);
        }
        for i in 0..500 {
            let _ = writeln!(src, "la(p{i}). u_benefit(p{i}). base{}(p{i}).", i % 8);
        }
        let db = parse_database(&src).unwrap();
        let ic = db.program().global_ic().unwrap();
        let full = time_us(5, || materialize(&db).unwrap());
        let part = time_us(5, || {
            dduf_datalog::eval::materialize_for(&db, &[ic], Strategy::SemiNaive).unwrap()
        });
        println!("C-F9,views={views},full_us,{full:.1}");
        println!("C-F9,views={views},restricted_us,{part:.1}");
    }
}
