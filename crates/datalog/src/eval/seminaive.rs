//! Semi-naive (differential) fixpoint evaluation of one stratification
//! component.
//!
//! After the first round, each rule is only re-evaluated with one recursive
//! positive literal restricted to the previous round's *delta* (the tuples
//! derived in that round), so already-explored derivations are not repeated.
//! Negative literals always refer to lower strata (guaranteed by
//! stratification) and are therefore static during the fixpoint.

use crate::ast::{Literal, Pred, Rule};
use crate::eval::plan::{eval_heads, JoinPlan};
use crate::eval::{body_relation, ComponentTrace, Interpretation};
use crate::storage::database::Database;
use crate::storage::relation::Relation;
use crate::storage::tuple::Tuple;
use crate::stratify::Component;
use std::collections::{BTreeMap, BTreeSet};

/// Evaluates `component` to fixpoint semi-naively, returning the extension
/// of each of its predicates and the component's evaluation trace.
/// `interp` must already contain every lower component. The trace carries
/// only semantic counters (rounds, derivation and delta cardinalities,
/// join work, compiled plans), each a function of the program and the
/// data (DESIGN.md §12).
pub fn eval_component(
    db: &Database,
    interp: &Interpretation,
    component: &Component,
) -> (Vec<(Pred, Relation)>, ComponentTrace) {
    let program = db.program();
    let members: Vec<Pred> = component.preds.clone();
    let mut current: BTreeMap<Pred, Relation> =
        members.iter().map(|&p| (p, Relation::new())).collect();

    let rules: Vec<&Rule> = members.iter().flat_map(|&p| program.rules_for(p)).collect();
    let mut trace = ComponentTrace::default();

    // Dead rules: a positive body literal over a *non-member* empty
    // relation can never match, and non-member relations are fixed for
    // the duration of this component's evaluation — so the rule is
    // unreachable and no plan is compiled for it. Skipping cannot change
    // results: the rule contributes nothing either way.
    let dead: Vec<bool> = rules
        .iter()
        .map(|rule| {
            rule.body.iter().any(|l| {
                l.positive
                    && !members.contains(&l.atom.pred)
                    && body_relation(db, interp, &current, program, l.atom.pred).is_empty()
            })
        })
        .collect();

    // Compile every plan this component can need, once, up front: one per
    // live rule for full (round-0) evaluation, one per (rule, recursive
    // occurrence) for differential rounds with that occurrence pinned as
    // the delta. Plan choice depends only on the rule and the static
    // binding pattern, never on relation contents. A rule with a positive
    // member occurrence gets no full plan either: members start empty, so
    // its round-0 evaluation is vacuous and every later derivation goes
    // through a delta plan. A rule or occurrence without a plan is never
    // evaluated.
    let full: Vec<(usize, JoinPlan)> = rules
        .iter()
        .enumerate()
        .filter(|&(ri, r)| {
            !dead[ri] && !r.body.iter().any(|l| is_recursive_occurrence(l, &members))
        })
        .map(|(ri, r)| (ri, JoinPlan::compile(&r.body, &BTreeSet::new(), None)))
        .collect();
    let mut delta_plans: BTreeMap<(usize, usize), JoinPlan> = BTreeMap::new();
    if component.recursive {
        for (ri, rule) in rules.iter().enumerate() {
            if dead[ri] {
                continue;
            }
            for (occ, lit) in rule.body.iter().enumerate() {
                if is_recursive_occurrence(lit, &members) {
                    delta_plans.insert(
                        (ri, occ),
                        JoinPlan::compile(&rule.body, &BTreeSet::new(), Some(occ)),
                    );
                }
            }
        }
    }
    trace.plans = (full.len() + delta_plans.len()) as u64;

    // Round 0: full evaluation (recursive predicates are empty, so this
    // costs the same as the non-recursive case).
    let mut delta: BTreeMap<Pred, Relation> =
        members.iter().map(|&p| (p, Relation::new())).collect();
    let mut round_tuples = 0u64;
    for (ri, pl) in &full {
        let rule = rules[*ri];
        let rel_of = |i: usize| -> &Relation {
            body_relation(db, interp, &current, program, rule.body[i].atom.pred)
        };
        let heads = eval_heads(pl, &rule.head.terms, &rel_of, &mut trace.stats);
        round_tuples += heads.len() as u64;
        delta
            .get_mut(&rule.head.pred)
            .expect("member")
            .extend(heads);
    }
    merge_delta(&mut current, &mut delta);
    trace.push_round(round_tuples, fresh_count(&delta));

    if !component.recursive {
        return (current.into_iter().collect(), trace);
    }

    // Differential rounds: each (rule, recursive occurrence) plan runs
    // with the occurrence bound to the previous round's delta. Every plan
    // reads the same `current`/`delta`; the new tuples are merged after
    // the last one.
    while delta.values().any(|r| !r.is_empty()) {
        let mut next: BTreeMap<Pred, Relation> =
            members.iter().map(|&p| (p, Relation::new())).collect();
        let mut round_tuples = 0u64;
        for (&(ri, occ), pl) in &delta_plans {
            let rule = rules[ri];
            let rel_of = |i: usize| -> &Relation {
                let pred = rule.body[i].atom.pred;
                if i == occ {
                    &delta[&pred]
                } else {
                    body_relation(db, interp, &current, program, pred)
                }
            };
            let mut tuples = eval_heads(pl, &rule.head.terms, &rel_of, &mut trace.stats);
            let head_rel = &current[&rule.head.pred];
            tuples.retain(|t| !head_rel.contains(t));
            round_tuples += tuples.len() as u64;
            next.get_mut(&rule.head.pred)
                .expect("member")
                .extend(tuples);
        }
        delta = next;
        merge_delta(&mut current, &mut delta);
        trace.push_round(round_tuples, fresh_count(&delta));
    }

    (current.into_iter().collect(), trace)
}

/// Post-dedup cardinality of a round's delta.
fn fresh_count(delta: &BTreeMap<Pred, Relation>) -> u64 {
    delta.values().map(|r| r.len() as u64).sum()
}

/// True iff `lit` is a positive occurrence of a component member (negative
/// member occurrences are impossible in a stratifiable program).
fn is_recursive_occurrence(lit: &Literal, members: &[Pred]) -> bool {
    lit.positive && members.contains(&lit.atom.pred)
}

/// Adds `delta` into `current` (one bulk merge, one index invalidation
/// per mutated relation), shrinking `delta` to the genuinely new tuples.
fn merge_delta(current: &mut BTreeMap<Pred, Relation>, delta: &mut BTreeMap<Pred, Relation>) {
    for (pred, d) in delta.iter_mut() {
        let fresh: Vec<Tuple> = current.get_mut(pred).expect("member").merge(d);
        *d = fresh.into_iter().collect();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{Atom, Const, Term};
    use crate::eval::{materialize_with, Strategy};
    use crate::schema::Program;

    fn atom(name: &str, vars: &[&str]) -> Atom {
        Atom::new(name, vars.iter().map(|v| Term::var(v)).collect())
    }

    fn chain_db(n: usize) -> Database {
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
        for i in 0..n {
            db.assert_fact(&Atom::ground(
                "e",
                vec![Const::Int(i as i64), Const::Int(i as i64 + 1)],
            ))
            .unwrap();
        }
        db
    }

    #[test]
    fn matches_naive_on_chain() {
        let db = chain_db(12);
        let a = materialize_with(&db, Strategy::Naive).unwrap();
        let b = materialize_with(&db, Strategy::SemiNaive).unwrap();
        assert_eq!(a, b);
        // n*(n+1)/2 pairs for a chain of n edges
        assert_eq!(a.relation(Pred::new("tc", 2)).len(), 12 * 13 / 2);
    }

    #[test]
    fn matches_naive_on_mutual_recursion() {
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
        let a = materialize_with(&db, Strategy::Naive).unwrap();
        let b2 = materialize_with(&db, Strategy::SemiNaive).unwrap();
        assert_eq!(a, b2);
        assert_eq!(a.relation(Pred::new("even", 1)).len(), 6);
    }

    #[test]
    fn negation_across_strata_matches_naive() {
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
        let a = materialize_with(&db, Strategy::Naive).unwrap();
        let s = materialize_with(&db, Strategy::SemiNaive).unwrap();
        assert_eq!(a, s);
        assert_eq!(s.relation(Pred::new("unreachable", 1)).len(), 1);
        assert!(s.holds(
            Pred::new("unreachable", 1),
            &crate::storage::tuple::syms(&["d"])
        ));
    }
}
