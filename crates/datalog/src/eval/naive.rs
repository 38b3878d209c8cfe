//! Naive fixpoint evaluation of one stratification component: the
//! reference evaluator behind [`materialize`](crate::eval::materialize).
//!
//! Every rule is re-evaluated against the full current relations each round
//! until no new tuple appears. Quadratic in the number of rounds, but
//! trivially correct — it serves as the oracle against which the upward
//! engine is differentially tested.

use crate::ast::Pred;
use crate::eval::plan::{eval_heads, JoinPlan};
use crate::eval::{ComponentTrace, Interpretation};
use crate::schema::Program;
use crate::storage::database::Database;
use crate::storage::relation::Relation;
use crate::storage::tuple::Tuple;
use crate::stratify::Component;
use std::collections::{BTreeMap, BTreeSet};

/// Evaluates `component` to fixpoint, returning the extension of each of
/// its predicates and the component's trace. `interp` must already
/// contain every lower component. Each round evaluates every rule against
/// the relations as the previous round left them, then merges the fresh
/// tuples. A non-recursive component stops after its first round: no body
/// literal reads a member, so a second round would derive the same tuples.
pub fn eval_component(
    db: &Database,
    interp: &Interpretation,
    component: &Component,
) -> (Vec<(Pred, Relation)>, ComponentTrace) {
    let program = db.program();
    let mut current: BTreeMap<Pred, Relation> = component
        .preds
        .iter()
        .map(|&p| (p, Relation::new()))
        .collect();

    let rules: Vec<_> = component
        .preds
        .iter()
        .flat_map(|&p| program.rules_for(p))
        .collect();

    // One full-evaluation plan per rule, compiled once; naive rounds all
    // evaluate the same (unpinned) binding pattern.
    let plans: Vec<JoinPlan> = rules
        .iter()
        .map(|r| JoinPlan::compile(&r.body, &BTreeSet::new(), None))
        .collect();

    let mut trace = ComponentTrace {
        plans: plans.len() as u64,
        ..ComponentTrace::default()
    };
    loop {
        let mut derived: Vec<(Pred, Tuple)> = Vec::new();
        for (rule, plan) in rules.iter().zip(&plans) {
            let rel_of = |i: usize| -> &Relation {
                body_relation(db, interp, &current, program, rule.body[i].atom.pred)
            };
            let heads = eval_heads(plan, &rule.head.terms, &rel_of, &mut trace.stats);
            derived.extend(heads.into_iter().filter_map(|tuple| {
                (!current[&rule.head.pred].contains(&tuple)).then_some((rule.head.pred, tuple))
            }));
        }
        let round_tuples = derived.len() as u64;
        let mut fresh = 0u64;
        for (pred, tuple) in derived {
            if current
                .get_mut(&pred)
                .expect("component pred")
                .insert(tuple)
            {
                fresh += 1;
            }
        }
        trace.push_round(round_tuples, fresh);
        if fresh == 0 || !component.recursive {
            break;
        }
    }
    (current.into_iter().collect(), trace)
}

/// The relation backing a body literal: a member's in-progress extension
/// in `current`, a lower component's in `interp`, a base predicate's in
/// `db`.
fn body_relation<'a>(
    db: &'a Database,
    interp: &'a Interpretation,
    current: &'a BTreeMap<Pred, Relation>,
    program: &Program,
    pred: Pred,
) -> &'a Relation {
    if let Some(rel) = current.get(&pred) {
        rel
    } else if program.is_derived(pred) {
        interp.relation(pred)
    } else {
        db.relation(pred)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{Atom, Const, Literal, Rule, Term};
    use crate::eval::materialize;
    use crate::storage::tuple::syms;

    fn atom(name: &str, vars: &[&str]) -> Atom {
        Atom::new(name, vars.iter().map(|v| Term::var(v)).collect())
    }

    fn edge_db(edges: &[(&str, &str)]) -> Database {
        let mut b = Program::builder();
        b.rule(Rule::new(
            atom("tc", &["X", "Y"]),
            vec![Literal::pos(atom("e", &["X", "Y"]))],
        ));
        b.rule(Rule::new(
            atom("tc", &["X", "Y"]),
            vec![
                Literal::pos(atom("e", &["X", "Z"])),
                Literal::pos(atom("tc", &["Z", "Y"])),
            ],
        ));
        let mut db = Database::new(b.build().unwrap());
        for (a, bb) in edges {
            db.assert_fact(&Atom::ground("e", vec![Const::sym(a), Const::sym(bb)]))
                .unwrap();
        }
        db
    }

    #[test]
    fn transitive_closure() {
        let db = edge_db(&[("a", "b"), ("b", "c"), ("c", "d")]);
        let m = materialize(&db).unwrap();
        let tc = m.relation(Pred::new("tc", 2));
        assert_eq!(tc.len(), 6); // ab ac ad bc bd cd
        assert!(tc.contains(&syms(&["a", "d"])));
        assert!(!tc.contains(&syms(&["d", "a"])));
    }

    #[test]
    fn cycle_terminates() {
        let db = edge_db(&[("a", "b"), ("b", "a")]);
        let m = materialize(&db).unwrap();
        let tc = m.relation(Pred::new("tc", 2));
        assert_eq!(tc.len(), 4); // aa ab ba bb
        assert!(tc.contains(&syms(&["a", "a"])));
    }

    #[test]
    fn stratified_negation() {
        // unemp(X) :- la(X), not works(X).
        let mut b = Program::builder();
        b.rule(Rule::new(
            atom("unemp", &["X"]),
            vec![
                Literal::pos(atom("la", &["X"])),
                Literal::neg(atom("works", &["X"])),
            ],
        ));
        let mut db = Database::new(b.build().unwrap());
        db.assert_fact(&Atom::ground("la", vec![Const::sym("dolors")]))
            .unwrap();
        db.assert_fact(&Atom::ground("la", vec![Const::sym("joan")]))
            .unwrap();
        db.assert_fact(&Atom::ground("works", vec![Const::sym("joan")]))
            .unwrap();
        let m = materialize(&db).unwrap();
        let unemp = m.relation(Pred::new("unemp", 1));
        assert_eq!(unemp.len(), 1);
        assert!(unemp.contains(&syms(&["dolors"])));
    }

    #[test]
    fn empty_database_empty_model() {
        let db = edge_db(&[]);
        let m = materialize(&db).unwrap();
        assert_eq!(m.fact_count(), 0);
    }

    #[test]
    fn chain_closure_holds_every_forward_pair() {
        let names: Vec<String> = (0..=12).map(|i| format!("n{i}")).collect();
        let edges: Vec<(&str, &str)> = names
            .windows(2)
            .map(|w| (w[0].as_str(), w[1].as_str()))
            .collect();
        let m = materialize(&edge_db(&edges)).unwrap();
        // n*(n+1)/2 pairs for a chain of n edges
        assert_eq!(m.relation(Pred::new("tc", 2)).len(), 12 * 13 / 2);
    }

    #[test]
    fn recursion_through_a_base_join() {
        // even(X) :- zero(X).  even(Y) :- succ2(X, Y), even(X).
        let mut b = Program::builder();
        b.rule(Rule::new(
            atom("even", &["X"]),
            vec![Literal::pos(atom("zero", &["X"]))],
        ));
        b.rule(Rule::new(
            atom("even", &["Y"]),
            vec![
                Literal::pos(atom("succ2", &["X", "Y"])),
                Literal::pos(atom("even", &["X"])),
            ],
        ));
        let mut db = Database::new(b.build().unwrap());
        db.assert_fact(&Atom::ground("zero", vec![Const::Int(0)]))
            .unwrap();
        for i in (0..10).step_by(2) {
            db.assert_fact(&Atom::ground(
                "succ2",
                vec![Const::Int(i), Const::Int(i + 2)],
            ))
            .unwrap();
        }
        let m = materialize(&db).unwrap();
        assert_eq!(m.relation(Pred::new("even", 1)).len(), 6);
    }

    #[test]
    fn negation_reads_a_completed_recursive_stratum() {
        // reach(X) :- src(X).  reach(Y) :- reach(X), e(X, Y).
        // unreachable(X) :- node(X), not reach(X).
        let mut b = Program::builder();
        b.rule(Rule::new(
            atom("reach", &["X"]),
            vec![Literal::pos(atom("src", &["X"]))],
        ));
        b.rule(Rule::new(
            atom("reach", &["Y"]),
            vec![
                Literal::pos(atom("reach", &["X"])),
                Literal::pos(atom("e", &["X", "Y"])),
            ],
        ));
        b.rule(Rule::new(
            atom("unreachable", &["X"]),
            vec![
                Literal::pos(atom("node", &["X"])),
                Literal::neg(atom("reach", &["X"])),
            ],
        ));
        let mut db = Database::new(b.build().unwrap());
        for n in ["a", "b", "c", "d"] {
            db.assert_fact(&Atom::ground("node", vec![Const::sym(n)]))
                .unwrap();
        }
        db.assert_fact(&Atom::ground("src", vec![Const::sym("a")]))
            .unwrap();
        db.assert_fact(&Atom::ground("e", vec![Const::sym("a"), Const::sym("b")]))
            .unwrap();
        db.assert_fact(&Atom::ground("e", vec![Const::sym("b"), Const::sym("c")]))
            .unwrap();
        let m = materialize(&db).unwrap();
        assert_eq!(m.relation(Pred::new("unreachable", 1)).len(), 1);
        assert!(m.holds(Pred::new("unreachable", 1), &syms(&["d"])));
    }
}
